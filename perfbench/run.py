"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload noisy-longstream --seed 1 --seconds 10 --trace 0

Workloads: ``noisy-longstream``, ``faulty-sharded``, ``serve-open-loop``
(see ``perfbench/NOTES.md``).  ``--trace 0`` measures the end-to-end
metrics untraced, in ``PARTS`` fresh interpreters.  ``--trace 1`` runs
in this process with the layer wrappers installed for the measured calls,
reports the per-layer metrics and the tracing overhead, and writes the
full stage profile to ``perfbench/out/<workload>.json`` (``--profile-out``
to choose another path inside the checkout).

Stdout ends with one JSON line: ``correct``, ``attempted``, ``failed``
and ``metrics`` (name -> value and unit).  The lines before it print the
same metrics as a table, with sample counts.  Exits 2, printing no
result, when the program's sources (``src/repro``) are not beside the
benchmark.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import signal
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
PARTS = 3
"""Untraced runs are split into this many parts, each in a fresh interpreter.

Each part sets up cold and measures ``seconds / PARTS`` on its own stream
of inputs.  Timings are pooled over the parts, which spreads a run over
several processes' states on a shared machine, and ``setup_s`` is the
median of the parts' cold set-ups.
"""


def _parse(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--profile-out", type=Path, default=None)
    parser.add_argument(
        "--part",
        type=int,
        default=None,
        help="run one untraced part in this process and print it as JSON "
        "(the benchmark runs its parts this way)",
    )
    return parser.parse_args(argv)


def _adopt_orphans() -> None:
    """Make this process the reaper of its descendants' orphans (Linux).

    A part's helper processes (pool workers, multiprocessing's resource
    tracker) that outlive the part are then re-parented here, so
    :func:`_end_part` can wait for them.
    """
    try:
        ctypes.CDLL(None, use_errno=True).prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER
    except (OSError, AttributeError):
        pass


def _end_part(process: "subprocess.Popen[str]") -> None:
    """Kill whatever is left of a part's process group and wait for all of it."""
    if process.poll() is None:
        process.kill()
        process.wait()
    try:
        os.killpg(process.pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass
    while True:
        try:
            os.waitpid(-1, 0)
        except ChildProcessError:
            return


def stop_helper_processes() -> None:
    """Stop the processes multiprocessing started here and wait for each.

    Pool workers are joined by the pool itself; the resource tracker that
    shared-memory arenas start would otherwise outlive this interpreter
    until it notices the exit.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.terminate()
        child.join()
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def _run_part(args: argparse.Namespace, part: int) -> Dict[str, Any]:
    """One untraced part in a fresh interpreter, in a process group of its own."""
    process = subprocess.Popen(
        [
            sys.executable,
            str(Path(__file__).resolve()),
            "--workload",
            args.workload,
            "--seed",
            str(args.seed),
            "--seconds",
            repr(args.seconds / PARTS),
            "--part",
            str(part),
        ],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        stdout, stderr = process.communicate(timeout=170)
    finally:
        _end_part(process)
    if process.returncode != 0:
        sys.stderr.write(stderr)
        raise SystemExit(f"part {part} exited with code {process.returncode}")
    return dict(json.loads(stdout.splitlines()[-1]))


def _combine(workload: str, parts: List[Dict[str, Any]]) -> Dict[str, Any]:
    """The run's result from its parts: pooled metrics, summed counts."""
    from perfbench.workloads import end_to_end

    samples: Dict[str, int] = {"parts": len(parts)}
    for part in parts:
        for key, count in part["samples"].items():
            samples[key] = samples.get(key, 0) + count
    return {
        "attempted": sum(p["attempted"] for p in parts),
        "failed": sum(p["failed"] for p in parts),
        "failures": [f for p in parts for f in p["failures"]],
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in end_to_end(workload, [p["raw"] for p in parts]).items()
        },
        "samples": samples,
    }


def _table(metrics: Dict[str, Dict[str, Any]], samples: Dict[str, int]) -> str:
    width = max(len(name) for name in metrics)
    lines = [f"{name:<{width}}  {m['value']:>14.6g}  {m['unit']}" for name, m in metrics.items()]
    lines += [f"samples: {name} = {count}" for name, count in samples.items()]
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    try:
        return _main(argv)
    finally:
        if "multiprocessing" in sys.modules:
            stop_helper_processes()


def _main(argv: Optional[List[str]] = None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program sources at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    from perfbench import workloads

    if args.workload not in workloads.WORKLOADS:
        print(
            f"error: unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}",
            file=sys.stderr,
        )
        return 2
    if args.part is not None:
        part = workloads.run_workload(args.workload, args.seed, args.seconds, False, args.part)
        print(json.dumps(part.summary()))
        return 0

    if args.trace:
        from perfbench.profile import profile_document

        result = workloads.run_workload(args.workload, args.seed, args.seconds, True)
        assert result.profile is not None
        document = profile_document(
            args.workload,
            args.seed,
            result.per_layer,
            result.profile["details"],
            result.profile["shapes"],
        )
        out = args.profile_out or ROOT / "perfbench" / "out" / f"{args.workload}.json"
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
        summary = {
            "attempted": result.attempted,
            "failed": result.failed,
            "failures": result.failures,
            "metrics": {
                name: {"value": value, "unit": _unit(name)}
                for name, value in result.per_layer.items()
            },
            "samples": result.samples,
        }
    else:
        _adopt_orphans()
        summary = _combine(args.workload, [_run_part(args, part) for part in range(PARTS)])
    for failure in summary["failures"]:
        print(f"check failed: {failure}", file=sys.stderr)
    print(_table(summary["metrics"], summary["samples"]))
    print(
        json.dumps(
            {
                "correct": summary["failed"] == 0 and not summary["failures"],
                "attempted": summary["attempted"],
                "failed": summary["failed"],
                "metrics": summary["metrics"],
            }
        )
    )
    return 0


def _unit(name: str) -> str:
    """Unit of a per-layer metric, from its name's suffix."""
    if name.endswith("_s"):
        return "s"
    if "_ms" in name:
        return "ms"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith("_error"):
        return "probability"
    if name.endswith(("fraction", "efficiency", "utilization", "coverage", "_z")):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())

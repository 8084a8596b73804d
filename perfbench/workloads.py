"""The benchmark's three workloads: set-up, timed phase, checks, metrics.

Every workload runs the order-2 Bernstein program ``[0.25, 0.625,
0.375]`` with width-16 LFSR randomizers on the ``packed`` kernel.  The
seed given on the command line makes every input: the evenly spaced
batch inputs' offset, each evaluation's seed schedule, the serving
arrival times and request values (``part`` picks an independent stream
of them for each part of a run).  The program receives only those
inputs.

Set-up is timed from before the first ``repro`` import to the end of a
warm-up evaluation, so it covers import-time work, design sizing, the
memoized pass context, the LFSR cycle tables, the pool and shared-memory
arena (sharded) or ``server.start()`` (serving).  Untraced parts run in
fresh interpreters, so every set-up sample is cold.  Objects alive after
set-up are frozen out of the garbage collector (:func:`gc.freeze`):
without it a full collection of the imported modules pauses the event
loop for ~50 ms at random points of a serving phase, which swamps the
latency percentiles.
"""

from __future__ import annotations

import asyncio
import contextlib
import gc
import resource
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import checks
from .layers import Tracer
from .profile import layer_metrics, nearest_rank, roots_in, structure_of
from .spans import ATTRS, END, NAME, START, SpanRecorder

__all__ = [
    "BATCH_WORKLOADS",
    "SERVE",
    "WORKLOADS",
    "BatchWorkload",
    "RunResult",
    "ServeWorkload",
    "end_to_end",
    "run_batch_workload",
    "run_serve_workload",
    "run_workload",
    "setup_batch",
    "start_server",
]

POLYNOMIAL = (0.25, 0.625, 0.375)
SNG_WIDTH = 16
KERNEL = "packed"
TARGET_BER = 1e-6
SERVE_BASE_SEED = 0x5EED
WARMUP_TILES = 2


@dataclass(frozen=True)
class BatchWorkload:
    """One batch job evaluated back to back (closed loop, one job at a time)."""

    name: str
    rows: int
    length: int
    chunk_length: int
    workers: int
    noisy: bool
    flip_probability: float
    near_threshold: bool


@dataclass(frozen=True)
class ServeWorkload:
    """Open-loop Poisson arrivals at fixed rates against one server."""

    name: str
    rates: Tuple[int, ...]
    shares: Tuple[float, ...]
    window_s: float
    length: int
    max_batch_size: int
    max_queue: int
    deadline_s: float
    limit_ms: float
    verify_batch: int


BATCH_WORKLOADS: Dict[str, BatchWorkload] = {
    "noisy-longstream": BatchWorkload(
        name="noisy-longstream",
        rows=64,
        length=1 << 20,
        chunk_length=1 << 16,
        workers=1,
        noisy=True,
        flip_probability=0.0,
        near_threshold=True,
    ),
    "faulty-sharded": BatchWorkload(
        name="faulty-sharded",
        rows=128,
        length=1 << 21,
        chunk_length=1 << 16,
        workers=2,
        noisy=False,
        flip_probability=1e-3,
        near_threshold=False,
    ),
}

SERVE = ServeWorkload(
    name="serve-open-loop",
    rates=(1000, 2000, 8000),
    shares=(0.45, 0.4, 0.15),
    window_s=1.0,
    length=4096,
    max_batch_size=64,
    max_queue=128,
    deadline_s=0.1,
    limit_ms=100.0,
    verify_batch=32,
)

WORKLOADS: Tuple[str, ...] = tuple(BATCH_WORKLOADS) + (SERVE.name,)


@dataclass
class RunResult:
    """What one run reports: correctness, counts and both metric sets."""

    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)
    raw: Dict[str, Any] = field(default_factory=dict)
    per_layer: Dict[str, float] = field(default_factory=dict)
    samples: Dict[str, int] = field(default_factory=dict)
    profile: Optional[Dict[str, Any]] = None

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.failures

    def summary(self) -> Dict[str, Any]:
        """The JSON an untraced part hands to the run that started it."""
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "failures": self.failures,
            "samples": self.samples,
            "raw": self.raw,
        }


def _span(recorder: Optional[SpanRecorder], name: str) -> Any:
    return recorder.span(name) if recorder is not None else contextlib.nullcontext()


def _peak_rss_mb(workers: int) -> float:
    """Peak resident memory of this process plus its pool workers.

    ``RUSAGE_CHILDREN`` reports the largest reaped child; the pool's
    workers run at once, so it counts once per worker.  Pages a forked
    worker shares copy-on-write with the parent are counted in both:
    an upper bound.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + (workers if workers > 1 else 0) * child) / 1024.0


def build_circuit(near_threshold: bool, recorder: Optional[SpanRecorder] = None) -> Any:
    """The benchmark circuit, sized inside a ``core.design`` span.

    ``near_threshold``: the MRR-first design of the Section V-A grid at
    the probe power Eq. 8/9 needs for BER 1e-6 (~0.212 mW).  Otherwise
    the Section V-A parameters as published.
    """
    from repro.core.circuit import OpticalStochasticCircuit
    from repro.core.design import mrr_first_design
    from repro.core.params import paper_section5a_parameters
    from repro.stochastic.bernstein import BernsteinPolynomial

    with _span(recorder, "core.design"):
        polynomial = BernsteinPolynomial(list(POLYNOMIAL))
        if near_threshold:
            design = mrr_first_design(order=2, wl_spacing_nm=1.0, target_ber=TARGET_BER)
            return OpticalStochasticCircuit.from_design(design, polynomial)
        return OpticalStochasticCircuit(paper_section5a_parameters(), polynomial)


def batch_inputs(workload: BatchWorkload, seed: int) -> np.ndarray:
    """``rows`` evenly spaced inputs in [0, 1), offset by the seed."""
    offset = np.random.default_rng([seed, 0]).random()
    return (np.arange(workload.rows) + offset) / workload.rows


def setup_batch(
    workload: BatchWorkload, seed: int, recorder: Optional[SpanRecorder] = None
) -> Tuple[Any, float]:
    """``(evaluator, seconds)``: build, then warm up on two tiles."""
    start = time.perf_counter()
    with _span(recorder, "bench.setup"):
        from repro.session import EvalSpec, Evaluator
        from repro.simulation.faultmodel import FaultSpec
        from repro.simulation.runtime import RuntimeConfig

        circuit = build_circuit(workload.near_threshold, recorder)
        fault = (
            FaultSpec(flip_probability=workload.flip_probability)
            if workload.flip_probability
            else None
        )
        evaluator = Evaluator(
            circuit,
            EvalSpec(
                length=workload.length,
                noisy=workload.noisy,
                sng_width=SNG_WIDTH,
                fault=fault,
            ),
            RuntimeConfig(
                workers=workload.workers,
                chunk_length=workload.chunk_length,
                kernel=KERNEL,
                transport="shm" if workload.workers > 1 else "pickle",
            ),
        )
        warm_length = min(workload.length, WARMUP_TILES * workload.chunk_length)
        evaluator.with_options(length=warm_length).evaluate(
            batch_inputs(workload, seed), rng=np.random.default_rng([seed, 1 << 30])
        )
    return evaluator, time.perf_counter() - start


def check_batch(workload: BatchWorkload, evaluator: Any, result: Any) -> List[str]:
    """Statistical and contract checks on one evaluation's outputs."""
    failures: List[str] = []
    tiles = -(-workload.length // workload.chunk_length)
    if int(result.chunk_count) != tiles:
        failures.append(f"{result.chunk_count} tiles streamed, expected {tiles}")
    clocks = workload.rows * workload.length
    errors = int(np.sum(result.transmission_bit_errors))
    if workload.noisy:
        failures += checks.check_bit_error_rate(errors, clocks, evaluator.circuit.ber())
        failures += checks.check_decoded_values(
            result.values, result.expected, workload.length, SNG_WIDTH
        )
    if workload.flip_probability:
        # Noiseless, so every observed-vs-ideal difference is a flip.
        from repro.simulation import faultmodel

        failures += checks.check_flip_rate(
            errors,
            clocks,
            workload.flip_probability,
            getattr(faultmodel, "FAULT_PROBABILITY_BITS", None),
        )
    return failures


def _same_outputs(a: Any, b: Any) -> bool:
    return bool(
        np.array_equal(a.ones_count, b.ones_count)
        and np.array_equal(a.transmission_bit_errors, b.transmission_bit_errors)
    )


def run_batch_workload(
    workload: BatchWorkload, seed: int, seconds: float, trace: bool, part: int = 0
) -> RunResult:
    """Set up, evaluate until *seconds* have passed, check every output.

    Untraced: every repetition is timed.  Traced: repetitions alternate
    untraced and traced on the same inputs (the pair's outputs must be
    identical), and the traced ones give the per-layer metrics.
    """
    recorder = SpanRecorder() if trace else None
    tracer = Tracer(recorder) if recorder is not None else None
    if tracer is not None:
        tracer.install()
    evaluator, setup_s = setup_batch(workload, seed, recorder)
    setup_end = time.perf_counter()
    if tracer is not None:
        tracer.uninstall()
    gc.collect()
    gc.freeze()
    out = RunResult()
    xs = batch_inputs(workload, seed)
    untraced: List[float] = []
    traced: List[float] = []
    flip_z: List[float] = []
    outliers: List[int] = []
    worst_error = 0.0
    timed_start = time.perf_counter()
    repetition = 0
    try:
        while True:
            rng_seed = [seed, part, 2 + repetition]
            start = time.perf_counter()
            result = evaluator.evaluate(xs, rng=np.random.default_rng(rng_seed))
            untraced.append(time.perf_counter() - start)
            out.attempted += 1
            failures = check_batch(workload, evaluator, result)
            if tracer is not None:
                tracer.install()
                try:
                    with tracer.recorder.span("bench.eval"):
                        start = time.perf_counter()
                        traced_result = evaluator.evaluate(
                            xs, rng=np.random.default_rng(rng_seed)
                        )
                        traced.append(time.perf_counter() - start)
                finally:
                    tracer.uninstall()
                out.attempted += 1
                if not _same_outputs(result, traced_result):
                    failures.append("traced outputs differ from untraced outputs")
            if workload.noisy:
                outliers.append(
                    checks.outlier_rows(
                        result.values, result.expected, workload.length, SNG_WIDTH
                    )
                )
                worst_error = max(
                    worst_error, float(np.max(np.abs(result.values - result.expected)))
                )
            if workload.flip_probability:
                flip_z.append(
                    checks.flip_rate_z(
                        int(np.sum(result.transmission_bit_errors)),
                        workload.rows * workload.length,
                        workload.flip_probability,
                    )
                )
            if failures:
                out.failed += 1
                out.failures += failures
            repetition += 1
            if time.perf_counter() - timed_start >= seconds and repetition >= 2:
                break
    finally:
        gc.unfreeze()

    out.samples["evaluations"] = len(untraced)
    if not trace:
        out.raw = {
            "eval_s": untraced,
            "jobs": out.attempted,
            "jobs_ok": out.attempted - out.failed,
            "setup_s": setup_s,
            "peak_rss_mb": _peak_rss_mb(workload.workers),
        }
        return out

    assert tracer is not None
    spans = tracer.recorder.spans
    metrics, details = layer_metrics(
        spans,
        (0.0, setup_end),
        (setup_end, float("inf")),
        "bench.eval",
    )
    metrics.update(_zero_serving_metrics())
    metrics["faultmodel.flip_rate_z"] = float(np.median(flip_z)) if flip_z else 0.0
    metrics["accuracy.outlier_rows"] = float(np.mean(outliers)) if outliers else 0.0
    metrics["accuracy.max_abs_error"] = worst_error
    metrics["trace.overhead_fraction"] = float(np.median(traced) / np.median(untraced)) - 1.0
    out.per_layer = metrics
    shapes = structure_of(spans, [s for s in roots_in(spans, setup_end, float("inf"))])
    details["untraced_eval_s"] = untraced
    details["traced_eval_s"] = traced
    out.profile = {"details": details, "shapes": shapes}
    return out


# -- serving ---------------------------------------------------------------------


SERVING_FIELDS = (
    "latency_ms.p50",
    "latency_ms.p99",
    "sent",
    "served",
    "shed",
    "expired",
    "failed",
    "queue_wait_ms.p50",
    "queue_wait_ms.p99",
    "batch_size.mean",
    "batches",
    "overhead_ms.p50",
    "generator_lag_ms.p99",
)

_SERVED, _SHED, _EXPIRED, _FAILED = 0, 1, 2, 3


def _zero_serving_metrics() -> Dict[str, float]:
    return {
        f"serving.{name}.r{rate}": 0.0 for rate in SERVE.rates for name in SERVING_FIELDS
    }


@dataclass
class Phase:
    """One open-loop phase: per-request schedule and outcome arrays."""

    rate: int
    due: np.ndarray
    xs: np.ndarray
    submitted: np.ndarray
    done: np.ndarray
    outcome: np.ndarray
    values: np.ndarray
    origin: float = 0.0
    errors: List[str] = field(default_factory=list)

    @property
    def sent(self) -> int:
        return int(self.due.size)

    @property
    def span(self) -> Tuple[float, float]:
        """From the phase origin to the last outcome."""
        return self.origin, float(np.max(self.done, initial=self.origin))

    def count(self, outcome: int) -> int:
        return int(np.sum(self.outcome == outcome))

    def latencies_ms(self) -> np.ndarray:
        served = self.outcome == _SERVED
        return (self.done[served] - self.due[served]) * 1e3

    def window_stats(self, seconds: float) -> List[Tuple[float, float, float]]:
        """``(p50, p99, within-limit share)`` for each window of due time.

        The phase is cut into whole windows of at least ``SERVE.window_s``.
        Percentiles are over the window's served latencies, the share over
        its sent requests; a window that sent nothing is skipped.
        """
        count = max(1, int(seconds // SERVE.window_s))
        width = seconds / count
        index = np.minimum(((self.due - self.origin) // width).astype(np.int64), count - 1)
        served = self.outcome == _SERVED
        latencies = (self.done - self.due) * 1e3
        out = []
        for window in range(count):
            in_window = index == window
            sample = latencies[served & in_window]
            if in_window.any():
                out.append(
                    (
                        nearest_rank(sample, 0.50),
                        nearest_rank(sample, 0.99),
                        float(np.sum(sample <= SERVE.limit_ms)) / int(np.sum(in_window)),
                    )
                )
        return out

    def within_limit(self, limit_ms: float) -> float:
        """Share of *sent* requests served within the limit."""
        return float(np.sum(self.latencies_ms() <= limit_ms)) / max(1, self.sent)


def arrival_schedule(
    seed: int, part: int, rate: int, seconds: float
) -> Tuple[np.ndarray, np.ndarray]:
    """Poisson due times (s from phase start) and uniform inputs."""
    rng = np.random.default_rng([seed, part, rate])
    count = int(rate * seconds * 1.5) + 16
    due = np.cumsum(rng.exponential(1.0 / rate, count))
    due = due[due < seconds]
    xs = rng.random(due.size)
    return due, xs


async def run_phase(server: Any, rate: int, due_offsets: np.ndarray, xs: np.ndarray) -> Phase:
    """Send every request at its due time and wait for all outcomes.

    The generator never waits for replies, and each request's latency
    runs from its scheduled due time, so a stall that delays sending
    counts against every request it delays.
    """
    from repro.errors import DeadlineExceededError, OverloadedError

    count = due_offsets.size
    phase = Phase(
        rate=rate,
        due=np.empty(count),
        xs=xs,
        submitted=np.empty(count),
        done=np.empty(count),
        outcome=np.full(count, _FAILED, dtype=np.int8),
        values=np.full(count, np.nan),
    )

    pending = count
    all_done = asyncio.Event()

    async def client(index: int) -> None:
        nonlocal pending
        phase.submitted[index] = time.perf_counter()
        try:
            value = await server.submit(float(xs[index]))
        except OverloadedError:
            phase.outcome[index] = _SHED
        except DeadlineExceededError:
            phase.outcome[index] = _EXPIRED
        except Exception as error:  # counted as failed; the run reports it
            phase.outcome[index] = _FAILED
            phase.errors.append(repr(error))
        else:
            phase.outcome[index] = _SERVED
            phase.values[index] = value
        phase.done[index] = time.perf_counter()
        pending -= 1
        if pending == 0:
            all_done.set()

    loop = asyncio.get_running_loop()
    origin = time.perf_counter() + 0.005
    phase.origin = origin
    phase.due[:] = origin + due_offsets
    tasks = []
    index = 0
    while index < count:
        now = time.perf_counter()
        while index < count and phase.due[index] <= now:
            tasks.append(loop.create_task(client(index)))
            index += 1
        if index < count:
            await asyncio.sleep(max(0.0, phase.due[index] - time.perf_counter()))
    # Gathering only after every request has its outcome: registering on
    # tens of thousands of tasks blocks the loop for tens of ms, which
    # would otherwise land on the latency of the last requests.
    if count:
        await all_done.wait()
    await asyncio.gather(*tasks)
    return phase


def _serving_layer_metrics(
    phase: Phase, seconds: float, spans: Sequence[Any]
) -> Dict[str, float]:
    """Per-rate serving metrics of a traced phase."""
    batches = [
        s
        for s in spans
        if s[NAME] == "session.evaluate" and phase.span[0] <= s[START] <= phase.span[1]
    ]
    interval: Dict[float, Tuple[float, float]] = {}
    sizes = []
    for span in batches:
        attrs = span[ATTRS] or {}
        sizes.append(attrs.get("rows", 0))
        for x in np.asarray(attrs.get("_xs", ())).tolist():
            interval[x] = (span[START], span[END])
    served = np.flatnonzero(phase.outcome == _SERVED)
    waits, overheads = [], []
    for i in served:
        start, end = interval.get(float(phase.xs[i]), (np.nan, np.nan))
        wait = start - phase.submitted[i]
        latency = phase.done[i] - phase.due[i]
        waits.append(wait * 1e3)
        overheads.append((latency - wait - (end - start)) * 1e3)
    lag_ms = (phase.submitted - phase.due) * 1e3
    windows = phase.window_stats(seconds)
    p50, p99, _ = np.median(windows, axis=0) if windows else (0.0, 0.0, 0.0)
    tag = f"r{phase.rate}"
    return {
        f"serving.latency_ms.p50.{tag}": float(p50),
        f"serving.latency_ms.p99.{tag}": float(p99),
        f"serving.sent.{tag}": float(phase.sent),
        f"serving.served.{tag}": float(phase.count(_SERVED)),
        f"serving.shed.{tag}": float(phase.count(_SHED)),
        f"serving.expired.{tag}": float(phase.count(_EXPIRED)),
        f"serving.failed.{tag}": float(phase.count(_FAILED)),
        f"serving.queue_wait_ms.p50.{tag}": nearest_rank(waits, 0.50),
        f"serving.queue_wait_ms.p99.{tag}": nearest_rank(waits, 0.99),
        f"serving.batch_size.mean.{tag}": float(np.mean(sizes)) if sizes else 0.0,
        f"serving.batches.{tag}": float(len(batches)),
        f"serving.overhead_ms.p50.{tag}": nearest_rank(overheads, 0.50),
        f"serving.generator_lag_ms.p99.{tag}": nearest_rank(lag_ms, 0.99),
    }


def _serve_evaluator(recorder: Optional[SpanRecorder]) -> Any:
    from repro.session import EvalSpec, Evaluator
    from repro.simulation.runtime import RuntimeConfig

    return Evaluator(
        build_circuit(False, recorder),
        EvalSpec(
            length=SERVE.length,
            noisy=False,
            sng_width=SNG_WIDTH,
            base_seed=SERVE_BASE_SEED,
        ),
        RuntimeConfig(workers=1, kernel=KERNEL),
    )


async def start_server(seed: int, recorder: Optional[SpanRecorder] = None) -> Tuple[Any, float]:
    """``(server, seconds)``: import, build, warm up, start.

    The evaluation caches are warmed by a direct call before the server
    starts, so the server's service-time estimate starts from a warm
    batch.  (A cold first batch slower than the deadline makes the
    admission check refuse every later request: the estimate only
    updates when a batch runs, and none is admitted to run.)
    """
    start = time.perf_counter()
    with _span(recorder, "bench.setup"):
        from repro.serving import BatchServer

        evaluator = _serve_evaluator(recorder)
        warm = np.random.default_rng([seed, 1 << 30]).random(SERVE.max_batch_size)
        evaluator.evaluate(warm)
        server = BatchServer(
            evaluator,
            max_batch_size=SERVE.max_batch_size,
            policy="shed",
            max_queue=SERVE.max_queue,
            default_deadline_s=SERVE.deadline_s,
            executor_workers=1,
        )
        with _span(recorder, "serving.start"):
            await server.start()
        await server.submit_many(warm.tolist())
    return server, time.perf_counter() - start


def _verify_served(
    phases: Sequence[Phase], evaluator: Any, tracer: Optional[Tracer]
) -> Tuple[int, List[float], List[float]]:
    """Re-evaluate every served input directly; count mismatches.

    Row independence makes each served value a pure function of its
    input, so any batch composition must reproduce it bit for bit.
    With a tracer, each chunk is evaluated untraced and traced, and the
    per-row times give the tracing overhead on the evaluation path.
    """
    xs = np.concatenate([p.xs[p.outcome == _SERVED] for p in phases])
    served = np.concatenate([p.values[p.outcome == _SERVED] for p in phases])
    mismatches = 0
    untraced: List[float] = []
    traced: List[float] = []
    for lo in range(0, xs.size, SERVE.verify_batch):
        chunk = xs[lo : lo + SERVE.verify_batch]
        start = time.perf_counter()
        direct = np.asarray(evaluator.evaluate(chunk).values, dtype=float)
        untraced.append((time.perf_counter() - start) / chunk.size)
        mismatches += int(np.sum(direct != served[lo : lo + chunk.size]))
        if tracer is not None:
            tracer.install()
            try:
                start = time.perf_counter()
                again = np.asarray(evaluator.evaluate(chunk).values, dtype=float)
                traced.append((time.perf_counter() - start) / chunk.size)
            finally:
                tracer.uninstall()
            mismatches += int(np.sum(again != served[lo : lo + chunk.size]))
    return mismatches, untraced, traced


async def _serve(
    seed: int,
    part: int,
    seconds: float,
    recorder: Optional[SpanRecorder],
    tracer: Optional[Tracer],
) -> RunResult:
    if tracer is not None:
        tracer.install()
    server, setup_s = await start_server(seed, recorder)
    setup_end = time.perf_counter()
    if tracer is not None:
        tracer.uninstall()
    gc.collect()
    gc.freeze()
    durations = [seconds * share for share in SERVE.shares]
    phases: List[Phase] = []
    try:
        for rate, phase_s in zip(SERVE.rates, durations):
            due, xs = arrival_schedule(seed, part, rate, phase_s)
            if tracer is not None:
                tracer.install()
            try:
                phases.append(await run_phase(server, rate, due, xs))
            finally:
                if tracer is not None:
                    tracer.uninstall()
            await asyncio.sleep(0.05)
        snapshot = server.metrics()
    finally:
        await server.stop()
        gc.unfreeze()
    timed_end = time.perf_counter()

    out = RunResult()
    out.attempted = sum(p.sent for p in phases)
    out.failed = sum(p.count(_FAILED) for p in phases)
    client = {
        "served": SERVE.max_batch_size + sum(p.count(_SERVED) for p in phases),
        "shed": sum(p.count(_SHED) for p in phases),
        "expired": sum(p.count(_EXPIRED) for p in phases),
        "failed": out.failed,
    }
    for name, count in client.items():
        if getattr(snapshot, name) != count:
            out.failures.append(
                f"server counted {getattr(snapshot, name)} {name}, clients saw {count}"
            )
    for phase in phases:
        if phase.count(_SERVED) == 0:
            out.failures.append(f"nothing served at {phase.rate} req/s")
        out.failures += sorted(set(phase.errors))
    mismatches, untraced_row_s, traced_row_s = _verify_served(
        phases, server.evaluator, tracer
    )
    if mismatches:
        out.failed += mismatches
        out.failures.append(f"{mismatches} served values differ from direct evaluation")
    for phase in phases:
        out.samples[f"served.r{phase.rate}"] = phase.count(_SERVED)

    if tracer is None:
        out.raw = {
            "setup_s": setup_s,
            "peak_rss_mb": _peak_rss_mb(1),
            "phases": [
                {
                    "rate": p.rate,
                    "windows": p.window_stats(phase_s),
                    "sent": p.sent,
                    "within": int(np.sum(p.latencies_ms() <= SERVE.limit_ms)),
                    "served": p.count(_SERVED),
                    "seconds": p.span[1] - p.span[0],
                }
                for p, phase_s in zip(phases, durations)
            ],
        }
        return out

    assert tracer is not None
    spans = tracer.recorder.spans
    metrics, details = layer_metrics(
        spans, (0.0, setup_end), (setup_end, timed_end), "session.evaluate"
    )
    for phase, phase_s in zip(phases, durations):
        metrics.update(_serving_layer_metrics(phase, phase_s, spans))
    metrics["faultmodel.flip_rate_z"] = 0.0
    metrics["accuracy.outlier_rows"] = 0.0
    metrics["accuracy.max_abs_error"] = 0.0
    metrics["trace.overhead_fraction"] = (
        float(np.median(traced_row_s)) / float(np.median(untraced_row_s)) - 1.0
    )
    out.per_layer = metrics
    calls = [s for s in roots_in(spans, setup_end, timed_end) if s[NAME] == "session.evaluate"]
    details["traced_phases"] = [
        {
            "rate": p.rate,
            "sent": p.sent,
            "served": p.count(_SERVED),
            "within_limit": p.within_limit(SERVE.limit_ms),
            "latency_p50_ms": nearest_rank(p.latencies_ms(), 0.50),
            "latency_p99_ms": nearest_rank(p.latencies_ms(), 0.99),
        }
        for p in phases
    ]
    out.profile = {"details": details, "shapes": structure_of(spans, calls[:64])}
    return out


def run_serve_workload(seed: int, seconds: float, trace: bool, part: int = 0) -> RunResult:
    """Serve open-loop Poisson traffic at each fixed rate, then verify."""
    recorder = SpanRecorder() if trace else None
    tracer = Tracer(recorder) if recorder is not None else None
    return asyncio.run(_serve(seed, part, seconds, recorder, tracer))


def run_workload(
    workload: str, seed: int, seconds: float, trace: bool, part: int = 0
) -> RunResult:
    """Run *workload*; *part* selects an independent stream of its inputs."""
    if workload in BATCH_WORKLOADS:
        return run_batch_workload(BATCH_WORKLOADS[workload], seed, seconds, trace, part)
    return run_serve_workload(seed, seconds, trace, part)


def end_to_end(workload: str, parts: Sequence[Dict[str, Any]]) -> Dict[str, Tuple[float, str]]:
    """End-to-end metrics of a run from its parts' raw measurements.

    Job times are pooled over the parts.  The serving latency is the
    median over every part's windows of each window's p50, so a slow
    stretch of the shared machine moves one window, not the run's
    figure.  Shares are ratios of summed counts, ``setup_s`` is the
    median of the parts' cold set-ups and ``peak_rss_mb`` the largest
    part's peak.
    """
    metrics: Dict[str, Tuple[float, str]] = {}
    top = SERVE.rates[-1]
    if workload in BATCH_WORKLOADS:
        shape = BATCH_WORKLOADS[workload]
        eval_s = np.concatenate([part["eval_s"] for part in parts])
        median_s = float(np.median(eval_s))
        metrics["mclk_per_s"] = (shape.rows * shape.length / median_s / 1e6, "Mclk/s")
        # A batch job has no arrival rate: the latency of one whole job,
        # evaluated closed loop.
        metrics[f"latency_p50_ms.r{top}"] = (median_s * 1e3, "ms")
        metrics[f"within_limit_fraction.r{top}"] = (
            sum(part["jobs_ok"] for part in parts) / sum(part["jobs"] for part in parts),
            "fraction",
        )
        metrics["max_rate_rps"] = (shape.rows / median_s, "1/s")
    else:
        meeting = []
        for index, rate in enumerate(SERVE.rates):
            phases = [part["phases"][index] for part in parts]
            windows = np.array([w for p in phases for w in p["windows"]]).reshape(-1, 3)
            p50, _, window_within = np.median(windows, axis=0) if windows.size else (0, 0, 0)
            # Meets the limit: in the median window, p99 over *sent*
            # requests within it, misses counting as late.  A growing
            # backlog makes requests late or shed, so this rules one out.
            if window_within >= 0.99:
                meeting.append(rate)
            if rate == top:
                metrics[f"latency_p50_ms.r{rate}"] = (float(p50), "ms")
                served_per_s = sum(p["served"] for p in phases) / sum(p["seconds"] for p in phases)
                metrics["mclk_per_s"] = (served_per_s * SERVE.length / 1e6, "Mclk/s")
                within = sum(p["within"] for p in phases) / max(1, sum(p["sent"] for p in phases))
                metrics[f"within_limit_fraction.r{rate}"] = (within, "fraction")
        metrics["max_rate_rps"] = (float(max(meeting, default=0)), "1/s")
    metrics["setup_s"] = (float(np.median([part["setup_s"] for part in parts])), "s")
    metrics["peak_rss_mb"] = (max(part["peak_rss_mb"] for part in parts), "MB")
    return metrics

"""Per-layer metrics from a recorded trace.

A traced run has two windows: set-up and the timed phase.  Every root
span (no parent) belongs to the window its start falls in, and its
descendants go with it.  Timed-phase layer figures are reported *per
evaluation call* (one ``session.evaluate`` span: a whole batch job, or
one served micro-batch), summed over processes — so in the sharded
workload a layer's seconds are busy time across both shards, while
``runtime.shard_wall_s`` is the wall time the caller waited.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .spans import (
    ATTRS,
    END,
    ID,
    NAME,
    PARENT,
    PID,
    START,
    Span,
    blocking_path,
    children_index,
    self_times,
    structure,
)

__all__ = [
    "LayerTable",
    "descendants",
    "layer_metrics",
    "nearest_rank",
    "profile_document",
    "roots_in",
    "structure_of",
]


def nearest_rank(values: Sequence[float], quantile: float) -> float:
    """Nearest-rank percentile (0 for an empty sample)."""
    if len(values) == 0:
        return 0.0
    ordered = np.sort(np.asarray(values, dtype=float))
    rank = max(1, int(np.ceil(quantile * ordered.size)))
    return float(ordered[rank - 1])


def roots_in(spans: Sequence[Span], lo: float, hi: float) -> List[Span]:
    """Root spans whose start lies in ``[lo, hi)``."""
    return [s for s in spans if s[PARENT] is None and lo <= s[START] < hi]


def descendants(spans: Sequence[Span], roots: Iterable[Span]) -> List[Span]:
    """*roots* and every span below them."""
    index = children_index(spans)
    out: List[Span] = []
    stack = list(roots)
    while stack:
        span = stack.pop()
        out.append(span)
        stack.extend(index.get(span[ID], ()))
    return out


class LayerTable:
    """Count, inclusive time, self time and summed counts per span name."""

    def __init__(self, spans: Sequence[Span], self_time: Dict[int, float]) -> None:
        self.calls: Dict[str, int] = defaultdict(int)
        self.inclusive: Dict[str, float] = defaultdict(float)
        self.self: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.durations: Dict[str, List[float]] = defaultdict(list)
        for span in spans:
            name = span[NAME]
            duration = span[END] - span[START]
            self.calls[name] += 1
            self.inclusive[name] += duration
            self.self[name] += self_time[span[ID]]
            self.durations[name].append(duration)
            attrs = span[ATTRS]
            if attrs:
                for key, value in attrs.items():
                    if not key.startswith("_"):
                        self.counts[name][key] += float(value)

    def count(self, name: str, key: str) -> float:
        return self.counts[name][key] if name in self.counts else 0.0

    def as_dict(self, per: float) -> Dict[str, Any]:
        return {
            name: {
                "calls_per_eval": self.calls[name] / per,
                "inclusive_s_per_eval": self.inclusive[name] / per,
                "self_s_per_eval": self.self[name] / per,
                **{f"{k}_per_eval": v / per for k, v in self.counts[name].items()},
            }
            for name in sorted(self.calls)
        }


def _shard_overhead(spans: Sequence[Span]) -> Tuple[float, float, float]:
    """``(overhead, busy, capacity)`` summed over the pool-map spans.

    Overhead is each pool map's wall time minus its slowest worker
    process's shard time; busy is the summed shard time; capacity is
    workers x wall, the denominator of parallel efficiency.
    """
    index = children_index(spans)
    overhead = busy = capacity = 0.0
    for span in spans:
        if span[NAME] != "runtime.pool_map":
            continue
        wall = span[END] - span[START]
        per_process: Dict[int, float] = defaultdict(float)
        for child in index.get(span[ID], ()):
            if child[NAME] == "runtime.shard":
                per_process[child[PID]] += child[END] - child[START]
        slowest = max(per_process.values(), default=wall)
        overhead += wall - slowest
        busy += sum(per_process.values())
        attrs = span[ATTRS] or {}
        capacity += max(1, int(attrs.get("workers", 1))) * wall
    return overhead, busy, capacity


def layer_metrics(
    spans: Sequence[Span],
    setup_window: Tuple[float, float],
    timed_window: Tuple[float, float],
    call_roots_name: str,
) -> Tuple[Dict[str, float], Dict[str, Any]]:
    """Per-layer metrics of one traced run, plus the profile details.

    *call_roots_name* names the per-call root spans whose self time is
    the unattributed remainder (``bench.eval`` around each batch job;
    ``session.evaluate`` for served micro-batches, whose caller is the
    server).
    """
    self_time = self_times(spans)
    setup_spans = descendants(spans, roots_in(spans, *setup_window))
    timed_roots = roots_in(spans, *timed_window)
    timed_spans = descendants(spans, timed_roots)
    setup = LayerTable(setup_spans, self_time)
    timed = LayerTable(timed_spans, self_time)
    calls = max(1, timed.calls["session.evaluate"])

    def per_call(value: float) -> float:
        return value / calls

    overhead, busy, capacity = _shard_overhead(timed_spans)
    packed_bits = timed.count("kernels.source_create", "packed_bits")
    evaluate_ms = [d * 1e3 for d in timed.durations["session.evaluate"]]

    call_roots = [s for s in timed_spans if s[NAME] == call_roots_name]
    wall = sum(s[END] - s[START] for s in call_roots)
    unattributed = sum(self_time[s[ID]] for s in call_roots)
    blocking: Dict[str, float] = defaultdict(float)
    for root in call_roots:
        for span in blocking_path(spans, root):
            blocking[span[NAME]] += self_time[span[ID]]
    attributed = sum(v for k, v in blocking.items() if k != call_roots_name)

    metrics = {
        "core.design_s": setup.inclusive["core.design"],
        "kernels.pass_context_s": setup.inclusive["kernels.pass_context"],
        "serving.start_s": setup.inclusive["serving.start"],
        "kernels.source_create_s": per_call(timed.inclusive["kernels.source_create"]),
        "kernels.source_unique_values": per_call(
            timed.count("kernels.source_create", "unique_values")
        ),
        "kernels.source_pack_utilization": (
            timed.count("kernels.source_take", "clocks") / packed_bits if packed_bits else 0.0
        ),
        "kernels.source_take_s": per_call(timed.inclusive["kernels.source_take"]),
        "kernels.source_words": per_call(timed.count("kernels.source_take", "words")),
        "kernels.popcount_s": per_call(timed.inclusive["kernels.popcount"]),
        "kernels.pack_bits_s": per_call(timed.inclusive["kernels.pack_bits"]),
        "kernels.tile_statistics_s": per_call(timed.self["kernels.tile_statistics"]),
        "kernels.tile_clocks": per_call(timed.count("kernels.tile_statistics", "clocks")),
        "kernels.optical_pass_s": per_call(timed.inclusive["kernels.optical_pass"]),
        "kernels.optical_pass_bytes": per_call(timed.count("kernels.optical_pass", "bytes")),
        "runtime.noise_draws": per_call(timed.count("runtime.noise_draw", "draws")),
        "runtime.noise_draw_s": per_call(timed.inclusive["runtime.noise_draw"]),
        "runtime.tiles": per_call(timed.calls["kernels.tile_statistics"]),
        "runtime.chunked_self_s": per_call(timed.self["runtime.simulate_chunked"]),
        "runtime.shard_wall_s": per_call(timed.inclusive["runtime.pool_map"]),
        "runtime.shard_overhead_s": per_call(overhead),
        "runtime.parallel_efficiency": busy / capacity if capacity else 0.0,
        "faultmodel.apply_s": per_call(timed.inclusive["faultmodel.apply"]),
        "faultmodel.words": per_call(timed.count("faultmodel.apply", "words")),
        "faultmodel.flips": per_call(timed.count("faultmodel.apply", "flips")),
        "transport.arena_bytes": per_call(timed.count("transport.arena_create", "bytes")),
        "transport.arena_create_s": per_call(timed.inclusive["transport.arena_create"]),
        "transport.reassembly_s": per_call(timed.inclusive["transport.reassembly"]),
        "engine.seed_schedule_s": per_call(timed.inclusive["engine.seed_schedule"]),
        "engine.simulate_batch_self_s": per_call(timed.self["engine.simulate_batch"]),
        "session.evaluate_ms.p50": nearest_rank(evaluate_ms, 0.50),
        "session.evaluate_ms.p99": nearest_rank(evaluate_ms, 0.99),
        "trace.unattributed_fraction": unattributed / wall if wall else 0.0,
        "trace.blocking_path_coverage": attributed / wall if wall else 0.0,
    }
    details = {
        "evaluation_calls": calls,
        "evaluate_samples": len(evaluate_ms),
        "call_root": call_roots_name,
        "call_wall_s": per_call(wall),
        "blocking_path_self_s_per_eval": {
            name: per_call(value) for name, value in sorted(blocking.items())
        },
        "setup_layers": setup.as_dict(1.0),
        "timed_layers": timed.as_dict(calls),
    }
    return metrics, details


def structure_of(spans: Sequence[Span], roots: Sequence[Span]) -> List[Dict[str, int]]:
    """Timing-free shape of each root's subtree (see :func:`structure`)."""
    return [dict(sorted(structure(spans, root[ID]).items())) for root in roots]


def profile_document(
    workload: str,
    seed: int,
    metrics: Dict[str, float],
    details: Dict[str, Any],
    shapes: Optional[List[Dict[str, int]]] = None,
) -> Dict[str, Any]:
    """The JSON written at the end of a traced run."""
    document: Dict[str, Any] = {
        "workload": workload,
        "seed": seed,
        "per_layer": metrics,
        **details,
    }
    if shapes is not None:
        document["trace_structure_identical"] = all(s == shapes[0] for s in shapes)
        document["trace_structure"] = shapes[0] if shapes else {}
    return document

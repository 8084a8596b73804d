"""Span recorder, trace arithmetic and traced-run contracts of the benchmark."""

from __future__ import annotations

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from perfbench import checks
from perfbench.layers import Tracer
from perfbench.profile import nearest_rank
from perfbench.spans import (
    NAME,
    PARENT,
    SpanRecorder,
    blocking_path,
    covered_length,
    self_times,
    structure,
)
from perfbench.workloads import BATCH_WORKLOADS, run_batch_workload, run_serve_workload

TINY_SHARDED = replace(
    BATCH_WORKLOADS["faulty-sharded"], rows=6, length=1 << 12, chunk_length=1 << 10
)
TINY_NOISY = replace(
    BATCH_WORKLOADS["noisy-longstream"], rows=4, length=1 << 12, chunk_length=1 << 10
)


def _span(span_id, parent, name, start, end, pid=1):
    return (span_id, parent, name, start, end, pid, None)


def test_covered_length_unions_overlaps_and_clips():
    assert covered_length([(1.0, 3.0), (2.0, 4.0), (6.0, 7.0)], 0.0, 10.0) == 4.0
    assert covered_length([(-5.0, 2.0), (9.0, 20.0)], 0.0, 10.0) == 3.0
    assert covered_length([], 0.0, 10.0) == 0.0


def test_self_time_is_duration_minus_covered_child_intervals():
    spans = [
        _span(1, None, "root", 0.0, 10.0),
        _span(2, 1, "a", 1.0, 4.0),
        _span(3, 1, "b", 3.0, 5.0),  # overlaps a: [1, 5] counted once
        _span(4, 2, "leaf", 1.5, 2.0),
        _span(5, 1, "late", 9.0, 12.0),  # only [9, 10] lies inside root
    ]
    self_time = self_times(spans)
    assert self_time[1] == pytest.approx(10.0 - 4.0 - 1.0)
    assert self_time[2] == pytest.approx(3.0 - 0.5)
    assert self_time[3] == pytest.approx(2.0)
    assert self_time[4] == pytest.approx(0.5)


def test_recorder_nests_by_thread_stack_and_measures_self_time():
    recorder = SpanRecorder()
    with recorder.span("outer"):
        with recorder.span("inner"):
            time.sleep(0.02)
        time.sleep(0.01)
    inner, outer = recorder.spans
    assert inner[NAME] == "inner" and outer[NAME] == "outer"
    assert inner[PARENT] == outer[0] and outer[PARENT] is None
    self_time = self_times(recorder.spans)
    assert self_time[outer[0]] == pytest.approx(
        (outer[4] - outer[3]) - (inner[4] - inner[3])
    )
    assert 0.005 < self_time[outer[0]] < 0.02 + 0.01


def test_adopt_reparents_worker_spans_with_fresh_ids():
    parent = SpanRecorder()
    with parent.span("pool") as pool:
        pass
    worker = [_span(1, None, "shard", 0.0, 1.0, pid=7), _span(2, 1, "tile", 0.1, 0.2, pid=7)]
    parent.adopt(worker, pool.span[0])
    shard, tile = parent.spans[1:]
    assert shard[PARENT] == pool.span[0]
    assert tile[PARENT] == shard[0]
    assert len({s[0] for s in parent.spans}) == 3


def test_blocking_path_follows_the_busiest_worker_process():
    spans = [
        _span(1, None, "root", 0.0, 10.0, pid=1),
        _span(2, 1, "pool", 0.0, 9.0, pid=1),
        _span(3, 2, "shard", 0.0, 5.0, pid=2),
        _span(4, 2, "shard", 0.0, 8.0, pid=3),
        _span(5, 4, "tile", 1.0, 7.0, pid=3),
        _span(6, 3, "tile", 1.0, 4.0, pid=2),
    ]
    path = blocking_path(spans, spans[0])
    assert [s[0] for s in path] == [1, 2, 4, 5]
    self_time = self_times(spans)
    attributed = sum(self_time[s[0]] for s in path)
    assert attributed == pytest.approx(10.0)


def test_structure_counts_name_paths():
    spans = [
        _span(1, None, "root", 0, 1),
        _span(2, 1, "tile", 0, 1),
        _span(3, 1, "tile", 0, 1),
        _span(4, 3, "popcount", 0, 1),
    ]
    assert structure(spans) == {"root": 1, "root/tile": 2, "root/tile/popcount": 1}


def test_tracer_uninstall_restores_every_original():
    from repro.session import Evaluator
    from repro.simulation import engine, kernels, runtime

    originals = (
        kernels.popcount,
        runtime.simulate_chunked,
        runtime.packed_tile_statistics,
        runtime._chunked_shm_worker,
        Evaluator.evaluate,
        engine.SeedSchedule.row_noise_rng,
    )
    create = vars(kernels.PackedLfsrSource)["create"]
    tracer = Tracer(SpanRecorder())
    tracer.install()
    assert kernels.popcount is not originals[0]
    assert runtime.packed_tile_statistics is not originals[2]
    tracer.uninstall()
    restored = (
        kernels.popcount,
        runtime.simulate_chunked,
        runtime.packed_tile_statistics,
        runtime._chunked_shm_worker,
        Evaluator.evaluate,
        engine.SeedSchedule.row_noise_rng,
    )
    assert all(a is b for a, b in zip(originals, restored))
    assert vars(kernels.PackedLfsrSource)["create"] is create
    assert "take" not in vars(kernels.PackedLfsrSource)


@pytest.mark.parametrize("workload", [TINY_SHARDED, TINY_NOISY], ids=lambda w: w.name)
def test_trace_structure_is_identical_across_repetitions(workload):
    out = run_batch_workload(workload, seed=3, seconds=0.0, trace=True)
    shapes = out.profile["shapes"]
    assert len(shapes) >= 2
    assert all(shape == shapes[0] for shape in shapes)
    layers = out.per_layer
    # Tiles are tile-kernel calls, counted in every shard.
    assert layers["runtime.tiles"] == 4 * workload.workers
    assert layers["kernels.tile_clocks"] == workload.rows * workload.length
    if workload.workers > 1:
        # Worker-side layers arrive from the forked shard workers.
        assert any("runtime.pool_map/runtime.shard/" in path for path in shapes[0])
        assert layers["faultmodel.words"] > 0
        assert 0.0 < layers["runtime.parallel_efficiency"] <= 1.0
    else:
        assert layers["runtime.noise_draws"] == workload.rows * workload.length


def test_traced_run_reports_overhead_and_accounts_for_wall_time():
    out = run_batch_workload(TINY_SHARDED, seed=5, seconds=0.0, trace=True)
    layers = out.per_layer
    assert math.isfinite(layers["trace.overhead_fraction"])
    assert len(out.profile["details"]["traced_eval_s"]) == len(
        out.profile["details"]["untraced_eval_s"]
    )
    assert 0.0 <= layers["trace.unattributed_fraction"] < 0.5
    assert layers["trace.blocking_path_coverage"] == pytest.approx(
        1.0 - layers["trace.unattributed_fraction"], abs=0.2
    )
    assert out.correct, out.failures


def test_serve_workload_serves_verified_values_and_reports_every_rate():
    out = run_serve_workload(seed=2, seconds=0.3, trace=True)
    assert out.correct, out.failures
    assert out.attempted > 0
    for rate in (1000, 2000, 8000):
        sent = out.per_layer[f"serving.sent.r{rate}"]
        outcomes = sum(
            out.per_layer[f"serving.{kind}.r{rate}"]
            for kind in ("served", "shed", "expired", "failed")
        )
        assert sent > 0 and outcomes == sent
    assert math.isfinite(out.per_layer["trace.overhead_fraction"])


def test_statistical_gates():
    assert checks.poisson_upper_quantile(0.0) == 0
    bound = checks.poisson_upper_quantile(67.0)
    assert 95 < bound < 120
    assert checks.check_bit_error_rate(60, 1 << 26, 1e-6) == []
    assert checks.check_bit_error_rate(0, 1 << 26, 1e-6)
    assert checks.check_bit_error_rate(bound + 1, 67_000_000, 1e-6)
    clocks = 1 << 28
    exact = int(1e-3 * clocks)
    assert checks.check_flip_rate(exact, clocks, 1e-3, None) == []
    assert checks.check_flip_rate(int(exact * 1.01), clocks, 1e-3, None)
    expected = np.linspace(0.3, 0.6, 16)
    assert checks.check_decoded_values(expected + 1e-4, expected, 1 << 20, 16) == []
    assert checks.check_decoded_values(expected + 0.02, expected, 1 << 20, 16)
    one_off = expected.copy()
    one_off[3] += 0.08  # a correlated-stream row: reported, not failed
    assert checks.check_decoded_values(one_off, expected, 1 << 20, 16) == []
    assert checks.outlier_rows(one_off, expected, 1 << 20, 16) == 1
    assert nearest_rank([3.0, 1.0, 2.0], 0.5) == 2.0

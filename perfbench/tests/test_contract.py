"""The metrics every run prints match what BENCHMARK.json declares."""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

from perfbench.workloads import (
    BATCH_WORKLOADS,
    SERVE,
    WORKLOADS,
    end_to_end,
    run_batch_workload,
)

DECLARED = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


def _names(section):
    return {metric["name"] for metric in DECLARED[section]}


def test_declared_workloads_are_the_runnable_ones():
    assert [w["name"] for w in DECLARED["workloads"]] == list(WORKLOADS)


def test_every_workload_reports_every_end_to_end_metric():
    batch_part = {
        "eval_s": [1.0, 1.2],
        "jobs": 2,
        "jobs_ok": 2,
        "setup_s": 0.5,
        "peak_rss_mb": 100.0,
    }
    serve_part = {
        "setup_s": 0.5,
        "peak_rss_mb": 100.0,
        "phases": [
            {
                "rate": rate,
                "windows": [(5.0, 9.0, 1.0), (6.0, 12.0, 0.99)],
                "sent": 100,
                "within": 99,
                "served": 99,
                "seconds": 1.0,
            }
            for rate in SERVE.rates
        ],
    }
    for workload in WORKLOADS:
        part = batch_part if workload in BATCH_WORKLOADS else serve_part
        metrics = end_to_end(workload, [part, part, part])
        assert set(metrics) == _names("end_to_end")
        units = {m["name"]: m["unit"] for m in DECLARED["end_to_end"]}
        assert all(unit == units[name] for name, (_, unit) in metrics.items())
        assert all(value > 0 for value, _ in metrics.values())


def test_traced_run_reports_every_declared_per_layer_metric():
    tiny = replace(BATCH_WORKLOADS["faulty-sharded"], rows=4, length=1 << 11, chunk_length=1 << 10)
    out = run_batch_workload(tiny, seed=1, seconds=0.0, trace=True)
    assert set(out.per_layer) == _names("per_layer")


def test_sharded_run_leaves_no_helper_process():
    import multiprocessing
    from multiprocessing import resource_tracker

    from perfbench.run import stop_helper_processes

    tiny = replace(BATCH_WORKLOADS["faulty-sharded"], rows=4, length=1 << 11, chunk_length=1 << 10)
    run_batch_workload(tiny, seed=1, seconds=0.0, trace=False)
    stop_helper_processes()
    assert multiprocessing.active_children() == []
    assert getattr(resource_tracker._resource_tracker, "_pid", None) is None

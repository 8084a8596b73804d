"""Scaling runtime over the batched engine: sharding, chunking, caching.

PR 1 made ``(B, L)`` whole-vector evaluation the unit of work, but one
:func:`~repro.simulation.engine.simulate_batch` call still runs on a
single core and materializes the full ``(B, L)`` power/bit tensors.
This module is the scaling layer above the engine:

* **Row-wise sharding** (:func:`simulate_batch_sharded`): per-row
  ``(data_seed, coeff_seed, noise_seed)`` triples are pre-derived into a
  :class:`~repro.simulation.engine.SeedSchedule`, shards of rows are
  shipped to a process (or thread) pool, and the shard results are
  reassembled into a :class:`~repro.simulation.engine.BatchEvaluation`
  that is **bit-for-bit identical** to the single-process call under the
  same schedule — every row is fully determined by its seed triple, so
  rows are relocatable across workers.  Shard data moves over a
  pluggable *transport*: ``"pickle"`` (pool-pipe serialization) or
  ``"shm"`` (zero-copy shared-memory arenas, see
  :mod:`repro.simulation.transport`).
* **Chunked streaming** (:func:`simulate_chunked`): very long streams
  (``length >> 2**20``, the ``O(1/N)``-convergence regime that motivates
  low-discrepancy and chaotic-laser randomizers) are evaluated in
  ``(B, chunk)`` tiles with running accumulators — ones count, link
  bit-error count, optional received-power histogram — so memory stays
  bounded by the tile size while the accumulated statistics stay
  bit-exact with the one-shot pass, whose stream sources the tiles
  share: LFSR/Sobol/counter streams resume by index offset; chaotic
  orbits resume by carrying raw map state.
* **Keyed evaluation cache** (:class:`EvaluationCache`, enabled through
  :class:`RuntimeConfig`): repeated exploration sweeps over the same
  ``circuit fingerprint x sng_kind x base_seed x sng_width x length x
  inputs`` skip recomputation entirely.  Cacheable runs derive their
  receiver-noise seeds from ``base_seed`` so even noisy results are
  deterministic.
* **Generic parallel map** (:func:`parallel_map`): the process-pool
  primitive the exploration grid sweep and the Monte Carlo corner loop
  share.

:func:`run_batch` bundles the knobs behind one dispatcher
(:class:`RuntimeConfig`); ``REPRO_RUNTIME_WORKERS`` sets the default
worker count process-wide (``auto`` = one per CPU).
"""

from __future__ import annotations

import hashlib
import math
import multiprocessing
import os
import sys
import threading
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from ..errors import ConfigurationError
from .engine import (
    BatchEvaluation,
    SeedSchedule,
    _validate_batch_inputs,
    derive_seed_schedule,
    simulate_batch,
)
from .faultmodel import FaultSpec, fault_channel_for, pin_stuck, validate_fault
from .kernels import (
    optical_pass,
    pack_bits,
    packed_tile_statistics,
    pass_context,
    resolve_kernel,
    screen_noise,
    stream_source,
    unpack_bits,
)
from .transport import TRANSPORTS, SharedArena, resolve_transport

__all__ = [
    "BACKENDS",
    "TRANSPORTS",
    "ChunkedEvaluation",
    "EvaluationCache",
    "RuntimeConfig",
    "default_evaluation_cache",
    "default_worker_count",
    "parallel_map",
    "resolve_pool",
    "resolve_transport",
    "resolve_vectorized",
    "run_batch",
    "simulate_batch_sharded",
    "simulate_chunked",
]

BACKENDS: Tuple[str, ...] = ("process", "thread")
"""Execution backends for sharded evaluation and :func:`parallel_map`."""

_WORKERS_ENV = "REPRO_RUNTIME_WORKERS"


def default_worker_count() -> int:
    """Worker count from ``REPRO_RUNTIME_WORKERS`` (0 = in-process serial).

    ``auto`` maps to one worker per CPU; anything unparsable maps to 0 so
    a stray environment value can never break an evaluation.
    """
    raw = os.environ.get(_WORKERS_ENV, "").strip().lower()
    if not raw:
        return 0
    if raw == "auto":
        return os.cpu_count() or 1
    try:
        return max(0, int(raw))
    except ValueError:
        return 0


def _validate_backend(backend: str) -> str:
    if backend not in BACKENDS:
        raise ConfigurationError(
            f"unknown backend {backend!r}; expected one of {BACKENDS}"
        )
    return backend


def _pool_context() -> Any:
    """Prefer fork (cheap workers, inherited caches) where safe.

    Only on Linux — macOS keeps spawn as its default precisely because
    forking there can crash/deadlock inside system frameworks — and only
    while no extra Python thread is alive, since forking a
    multi-threaded process can deadlock the child on locks held by
    other threads (the reason CPython is moving away from fork as a
    default).  Everywhere else, honor the platform default.
    """
    methods = multiprocessing.get_all_start_methods()
    if (
        sys.platform.startswith("linux")
        and "fork" in methods
        and threading.active_count() <= 1
    ):
        return multiprocessing.get_context("fork")
    # Never fall back to a fork default (Linux <= 3.13) once the fast
    # path was refused: pick an explicitly fork-free start method.
    for method in ("forkserver", "spawn"):
        if method in methods:
            return multiprocessing.get_context(method)
    return multiprocessing.get_context()


def resolve_pool(
    runtime: Any, workers: Optional[int] = None
) -> Tuple[Optional[int], str]:
    """``(workers, backend)`` for a pooled consumer of a session config.

    The one place the ``runtime=RuntimeConfig(...)`` convenience kwarg
    is unpacked for :func:`parallel_map`-style fan-outs (grid sweeps,
    Monte Carlo corners): an explicit *workers* wins over the config's,
    the config supplies the pool backend, and ``runtime=None`` keeps
    the historical defaults (environment worker count, process pool).
    """
    backend = "process"
    if runtime is not None:
        if not isinstance(runtime, RuntimeConfig):
            raise ConfigurationError(
                f"runtime must be a RuntimeConfig, got {runtime!r}"
            )
        backend = runtime.backend
        if workers is None:
            workers = runtime.resolved_workers
    return workers, backend


def resolve_vectorized(
    runtime: Any, vectorized: Optional[bool] = None
) -> bool:
    """Whether an optics consumer should take the stacked-array fast path.

    The companion of :func:`resolve_pool` for the ``vectorized`` knob of
    :class:`RuntimeConfig`: an explicit *vectorized* argument wins, a
    bound session config supplies its default otherwise, and with
    neither the historical scalar corner loop is kept (batched results
    match it only to floating-point rounding, so flipping the default
    silently would perturb seeded reference numbers).
    """
    if vectorized is not None:
        return bool(vectorized)
    if runtime is not None:
        if not isinstance(runtime, RuntimeConfig):
            raise ConfigurationError(
                f"runtime must be a RuntimeConfig, got {runtime!r}"
            )
        return runtime.vectorized
    return False


def parallel_map(
    fn: Callable[[Any], Any],
    items: Iterable[Any],
    workers: Optional[int] = None,
    backend: str = "process",
) -> List[Any]:
    """Ordered ``[fn(item) for item in items]`` over a worker pool.

    The shared fan-out primitive behind sharded evaluation, the
    exploration grid sweep and the Monte Carlo corner loop.  With
    ``workers`` at most 1 (or a single item) the map runs in-process —
    no pool, no pickling, bit-identical results either way.  *fn* and
    the items must be picklable for the ``process`` backend (module-level
    functions, plain data).
    """
    _validate_backend(backend)
    items = list(items)
    workers = default_worker_count() if workers is None else int(workers)
    if workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    workers = min(workers, len(items))
    if backend == "thread":
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, items))
    chunksize = max(1, math.ceil(len(items) / workers))
    with ProcessPoolExecutor(
        max_workers=workers, mp_context=_pool_context()
    ) as pool:
        return list(pool.map(fn, items, chunksize=chunksize))


# -- row-wise sharding ---------------------------------------------------------


def _shard_bounds(batch: int, workers: int) -> List[Tuple[int, int]]:
    """Contiguous, near-equal row ranges covering ``[0, batch)``."""
    shard_count = min(workers, batch)
    size = batch // shard_count
    remainder = batch % shard_count
    bounds: List[Tuple[int, int]] = []
    start = 0
    for index in range(shard_count):
        stop = start + size + (1 if index < remainder else 0)
        bounds.append((start, stop))
        start = stop
    return bounds


def _map_row_shards(
    worker: Callable[[Any], Any],
    payload_builder: Callable[..., Any],
    xs: "np.ndarray[Any, Any]",
    schedule: SeedSchedule,
    workers: int,
    backend: str,
) -> List[Any]:
    """Fan one row-sharded evaluation out over the pool, order preserved.

    ``payload_builder(xs_shard, schedule_shard)`` produces each worker's
    payload — the single place the shard layout is decided for both the
    one-shot and the chunked sharded paths.
    """
    payloads = [
        payload_builder(xs[lo:hi], schedule.shard(lo, hi))
        for lo, hi in _shard_bounds(xs.size, workers)
    ]
    return parallel_map(worker, payloads, workers=workers, backend=backend)


def _shard_worker(payload: Tuple[Any, ...]) -> BatchEvaluation:
    """Evaluate one row shard (module-level so process pools can pickle it)."""
    (
        circuit,
        xs,
        length,
        noisy,
        sng_kind,
        sng_width,
        schedule,
        kernel,
        fault,
    ) = payload
    return simulate_batch(
        circuit,
        xs,
        length=length,
        noisy=noisy,
        sng_kind=sng_kind,
        sng_width=sng_width,
        schedule=schedule,
        kernel=kernel,
        fault=fault,
    )


def _concatenate_batches(
    shards: Sequence[BatchEvaluation], length: int
) -> BatchEvaluation:
    """Reassemble shard results into one batch, row order preserved."""
    return BatchEvaluation(
        xs=np.concatenate([s.xs for s in shards]),
        values=np.concatenate([s.values for s in shards]),
        expected=np.concatenate([s.expected for s in shards]),
        stream_length=int(length),
        received_power_mw=np.concatenate(
            [s.received_power_mw for s in shards], axis=0
        ),
        output_bits=np.concatenate([s.output_bits for s in shards], axis=0),
        ideal_bits=np.concatenate([s.ideal_bits for s in shards], axis=0),
        select_levels=np.concatenate([s.select_levels for s in shards], axis=0),
    )


def _shard_input_fields(batch: int) -> Dict[str, Any]:
    """Arena fields carrying the batch inputs (parent -> workers)."""
    return {
        "xs": ((batch,), np.float64),
        "data_seeds": ((batch,), np.int64),
        "coeff_seeds": ((batch,), np.int64),
        "noise_seeds": ((batch,), np.int64),
    }


def _write_shard_inputs(
    arena: SharedArena, xs: "np.ndarray[Any, Any]", schedule: SeedSchedule
) -> None:
    arena.write("xs", xs)
    arena.write("data_seeds", schedule.data_seeds)
    arena.write("coeff_seeds", schedule.coeff_seeds)
    arena.write("noise_seeds", schedule.noise_seeds)


def _read_shard_inputs(
    arena: SharedArena, lo: int, hi: int
) -> Tuple["np.ndarray[Any, Any]", SeedSchedule]:
    """``(xs, schedule)`` for rows ``[lo, hi)`` from the input arena."""
    return (
        arena.read("xs", lo, hi),
        SeedSchedule(
            data_seeds=arena.read("data_seeds", lo, hi),
            coeff_seeds=arena.read("coeff_seeds", lo, hi),
            noise_seeds=arena.read("noise_seeds", lo, hi),
        ),
    )


def _shm_shard_worker(payload: Tuple[Any, ...]) -> Tuple[int, int]:
    """Evaluate one row shard in place through the shared arena.

    Attaches by segment name, reads its input rows, writes its result
    rows into the arena's field views, and returns only the row range —
    no result tensor crosses the process boundary.  Bit tensors are
    written in packed uint64 form (8x smaller) when a packed kernel
    runs; the parent unpacks once at reassembly (an exact inverse).
    """
    (
        spec,
        circuit,
        lo,
        hi,
        length,
        noisy,
        sng_kind,
        sng_width,
        kernel,
        packed,
        fault,
    ) = payload
    arena = SharedArena.attach(spec)
    try:
        xs, schedule = _read_shard_inputs(arena, lo, hi)
        result = simulate_batch(
            circuit,
            xs,
            length=length,
            noisy=noisy,
            sng_kind=sng_kind,
            sng_width=sng_width,
            schedule=schedule,
            kernel=kernel,
            fault=fault,
        )
        arena.write("values", result.values, lo)
        arena.write("expected", result.expected, lo)
        arena.write("received_power_mw", result.received_power_mw, lo)
        arena.write("select_levels", result.select_levels, lo)
        if packed:
            arena.write("output_words", pack_bits(result.output_bits), lo)
            arena.write("ideal_words", pack_bits(result.ideal_bits), lo)
        else:
            arena.write("output_bits", result.output_bits, lo)
            arena.write("ideal_bits", result.ideal_bits, lo)
    finally:
        arena.close()
    return lo, hi


def _simulate_batch_sharded_shm(
    circuit: Any,
    xs: "np.ndarray[Any, Any]",
    length: int,
    noisy: bool,
    sng_kind: str,
    sng_width: int,
    schedule: SeedSchedule,
    kernel: str,
    workers: int,
    backend: str,
    fault: Optional[FaultSpec] = None,
) -> BatchEvaluation:
    """The zero-copy shm fan-out behind ``transport="shm"``.

    One arena holds the inputs and every result field for the whole
    batch; workers write their row ranges in place and reassembly is a
    view (:meth:`~repro.simulation.transport.SharedArena.export_views`)
    plus — under a packed kernel — one vectorized unpack of the bit
    tensors.  Bit-for-bit identical to the pickle transport: the same
    :func:`~repro.simulation.engine.simulate_batch` runs per shard, and
    copies/views of identical values are identical.
    """
    batch = xs.size
    packed = kernel != "numpy"
    words = (int(length) + 63) // 64
    fields = _shard_input_fields(batch)
    fields.update(
        {
            "values": ((batch,), np.float64),
            "expected": ((batch,), np.float64),
            "received_power_mw": ((batch, length), np.float64),
            "select_levels": ((batch, length), np.int64),
        }
    )
    if packed:
        fields["output_words"] = ((batch, words), np.uint64)
        fields["ideal_words"] = ((batch, words), np.uint64)
    else:
        fields["output_bits"] = ((batch, length), np.uint8)
        fields["ideal_bits"] = ((batch, length), np.uint8)
    arena = SharedArena(fields)
    try:
        _write_shard_inputs(arena, xs, schedule)
        spec = arena.spec
        payloads = [
            (
                spec,
                circuit,
                lo,
                hi,
                length,
                noisy,
                sng_kind,
                sng_width,
                kernel,
                packed,
                fault,
            )
            for lo, hi in _shard_bounds(batch, workers)
        ]
        parallel_map(
            _shm_shard_worker, payloads, workers=workers, backend=backend
        )
    except BaseException:
        arena.destroy()
        raise
    views = arena.export_views()
    if packed:
        output_bits = unpack_bits(views["output_words"], length)
        ideal_bits = unpack_bits(views["ideal_words"], length)
    else:
        output_bits = views["output_bits"]
        ideal_bits = views["ideal_bits"]
    return BatchEvaluation(
        xs=views["xs"],
        values=views["values"],
        expected=views["expected"],
        stream_length=int(length),
        received_power_mw=views["received_power_mw"],
        output_bits=output_bits,
        ideal_bits=ideal_bits,
        select_levels=views["select_levels"],
    )


def simulate_batch_sharded(
    circuit: Any,
    xs: Any,
    length: int = 1024,
    rng: Optional[np.random.Generator] = None,
    noisy: bool = True,
    sng_kind: str = "lfsr",
    base_seed: Optional[int] = None,
    sng_width: int = 16,
    workers: Optional[int] = None,
    backend: str = "process",
    schedule: Optional[SeedSchedule] = None,
    kernel: str = "numpy",
    transport: str = "pickle",
    fault: Optional[FaultSpec] = None,
) -> BatchEvaluation:
    """Row-sharded :func:`~repro.simulation.engine.simulate_batch`.

    Pre-derives the per-row seed schedule from *rng* (or takes an
    explicit *schedule*), splits the rows into up to *workers* contiguous
    shards, evaluates them on a worker pool, and reassembles the result.
    Because every row is fully determined by its seed triple, the
    reassembled :class:`~repro.simulation.engine.BatchEvaluation` is
    bit-for-bit identical to ``simulate_batch(..., schedule=schedule)``
    run serially — sharding is a pure wall-clock optimization.

    ``workers`` defaults to ``REPRO_RUNTIME_WORKERS`` (0 = serial).  The
    ``thread`` backend avoids inter-process copies and suits workloads
    dominated by GIL-releasing numpy kernels; ``process`` (default) is
    immune to the GIL entirely.  *kernel* selects the compute kernel
    every shard evaluates with (:data:`repro.simulation.kernels.KERNELS`)
    and *transport* how shard results return from process workers:
    ``"pickle"`` (serialize through the pool pipe) or ``"shm"`` (write
    row ranges in place into a shared-memory arena, reassembled as
    views — see :mod:`repro.simulation.transport`).  Like the pool
    knobs, neither ever changes an output bit.
    """
    _validate_backend(backend)
    kernel = resolve_kernel(kernel)
    transport = resolve_transport(transport, backend)
    xs = _validate_batch_inputs(
        circuit, xs, length, sng_kind, base_seed, sng_width
    )
    validate_fault(fault, circuit.params.order)
    batch = xs.size
    if schedule is None:
        schedule = derive_seed_schedule(
            batch, rng=rng, sng_kind=sng_kind, base_seed=base_seed
        )
    elif schedule.batch_size != batch:
        raise ConfigurationError(
            f"schedule covers {schedule.batch_size} rows but xs has {batch}"
        )
    workers = default_worker_count() if workers is None else int(workers)
    if workers <= 1 or batch == 1:
        return simulate_batch(
            circuit,
            xs,
            length=length,
            noisy=noisy,
            sng_kind=sng_kind,
            sng_width=sng_width,
            schedule=schedule,
            kernel=kernel,
            fault=fault,
        )
    if transport == "shm":
        return _simulate_batch_sharded_shm(
            circuit,
            xs,
            length,
            noisy,
            sng_kind,
            sng_width,
            schedule,
            kernel,
            workers,
            backend,
            fault=fault,
        )
    shards = _map_row_shards(
        _shard_worker,
        lambda xs_shard, schedule_shard: (
            circuit,
            xs_shard,
            length,
            noisy,
            sng_kind,
            sng_width,
            schedule_shard,
            kernel,
            fault,
        ),
        xs,
        schedule,
        workers,
        backend,
    )
    return _concatenate_batches(shards, length)


# -- chunked streaming ---------------------------------------------------------


@dataclass(frozen=True)
class ChunkedEvaluation:
    """Accumulated statistics of a tile-streamed evaluation.

    Holds only ``O(batch)`` state (plus the optional fixed-size power
    histogram) no matter how long the stream was; the per-clock tensors
    existed one ``(B, chunk)`` tile at a time.  All counters are
    bit-exact with what the one-shot
    :class:`~repro.simulation.engine.BatchEvaluation` of the same seed
    schedule would report.
    """

    xs: "np.ndarray[Any, Any]"
    expected: "np.ndarray[Any, Any]"
    stream_length: int
    chunk_length: int
    chunk_count: int
    ones_count: "np.ndarray[Any, Any]"
    transmission_bit_errors: "np.ndarray[Any, Any]"
    power_histogram: Optional["np.ndarray[Any, Any]"] = None
    power_bin_edges: Optional["np.ndarray[Any, Any]"] = None

    @property
    def batch_size(self) -> int:
        """Number of evaluations in the batch."""
        return int(self.xs.size)

    @property
    def values(self) -> "np.ndarray[Any, Any]":
        """Per-row de-randomized outputs (ones fraction)."""
        return self.ones_count / self.stream_length

    @property
    def absolute_errors(self) -> "np.ndarray[Any, Any]":
        """Per-row ``|value - expected|``."""
        return np.abs(self.values - self.expected)

    @property
    def mean_absolute_error(self) -> float:
        """Batch-mean ``|value - expected|`` (the accuracy-sweep metric)."""
        return float(np.mean(self.absolute_errors))

    @property
    def transmission_ber(self) -> "np.ndarray[Any, Any]":
        """Per-row observed link bit-error rate."""
        return self.transmission_bit_errors / self.stream_length


def _chunked_shard_worker(payload: Tuple[Any, ...]) -> ChunkedEvaluation:
    """Stream one row shard (module-level so process pools can pickle it)."""
    (
        circuit,
        xs,
        length,
        chunk_length,
        noisy,
        sng_kind,
        sng_width,
        schedule,
        bins,
        kernel,
        fault,
    ) = payload
    return simulate_chunked(
        circuit,
        xs,
        length=length,
        chunk_length=chunk_length,
        noisy=noisy,
        sng_kind=sng_kind,
        sng_width=sng_width,
        schedule=schedule,
        power_histogram_bins=bins,
        workers=0,
        kernel=kernel,
        fault=fault,
    )


def _chunked_shm_worker(
    payload: Tuple[Any, ...],
) -> Tuple[int, int, Optional["np.ndarray[Any, Any]"]]:
    """Stream one row shard, accumulating into the shared arena.

    The streaming accumulators are ``O(rows)`` scalars per row plus an
    optional fixed-size histogram, so the worker writes them straight
    into its row range (histograms get one private arena row per shard
    — integer counts over shared bin edges, summed exactly by the
    parent) and returns only the tile geometry.
    """
    (
        spec,
        circuit,
        shard_index,
        lo,
        hi,
        length,
        chunk_length,
        noisy,
        sng_kind,
        sng_width,
        bins,
        kernel,
        fault,
    ) = payload
    arena = SharedArena.attach(spec)
    try:
        xs, schedule = _read_shard_inputs(arena, lo, hi)
        result = simulate_chunked(
            circuit,
            xs,
            length=length,
            chunk_length=chunk_length,
            noisy=noisy,
            sng_kind=sng_kind,
            sng_width=sng_width,
            schedule=schedule,
            power_histogram_bins=bins,
            workers=0,
            kernel=kernel,
            fault=fault,
        )
        arena.write("expected", result.expected, lo)
        arena.write("ones_count", result.ones_count, lo)
        arena.write("bit_errors", result.transmission_bit_errors, lo)
        if bins:
            histogram = result.power_histogram
            assert histogram is not None
            arena.write("histogram", histogram[None, :], shard_index)
    finally:
        arena.close()
    return result.chunk_count, result.chunk_length, result.power_bin_edges


def _simulate_chunked_shm(
    circuit: Any,
    xs: "np.ndarray[Any, Any]",
    length: int,
    chunk_length: int,
    noisy: bool,
    sng_kind: str,
    sng_width: int,
    schedule: SeedSchedule,
    bins: int,
    kernel: str,
    workers: int,
    backend: str,
    fault: Optional[FaultSpec] = None,
) -> ChunkedEvaluation:
    """Shared-memory row sharding for the streaming path."""
    batch = xs.size
    bounds = _shard_bounds(batch, workers)
    fields = _shard_input_fields(batch)
    fields.update(
        {
            "expected": ((batch,), np.float64),
            "ones_count": ((batch,), np.int64),
            "bit_errors": ((batch,), np.int64),
        }
    )
    if bins:
        fields["histogram"] = ((len(bounds), bins), np.int64)
    arena = SharedArena(fields)
    try:
        _write_shard_inputs(arena, xs, schedule)
        spec = arena.spec
        payloads = [
            (
                spec,
                circuit,
                shard_index,
                lo,
                hi,
                length,
                chunk_length,
                noisy,
                sng_kind,
                sng_width,
                bins,
                kernel,
                fault,
            )
            for shard_index, (lo, hi) in enumerate(bounds)
        ]
        metas = parallel_map(
            _chunked_shm_worker, payloads, workers=workers, backend=backend
        )
    except BaseException:
        arena.destroy()
        raise
    views = arena.export_views()
    chunk_count, shard_chunk_length, edges = metas[0]
    return ChunkedEvaluation(
        xs=views["xs"],
        expected=views["expected"],
        stream_length=int(length),
        chunk_length=int(shard_chunk_length),
        chunk_count=int(chunk_count),
        ones_count=views["ones_count"],
        transmission_bit_errors=views["bit_errors"],
        power_histogram=views["histogram"].sum(axis=0) if bins else None,
        power_bin_edges=edges,
    )


def _concatenate_chunked(
    shards: Sequence[ChunkedEvaluation],
) -> ChunkedEvaluation:
    """Reassemble row-sharded streaming results, row order preserved."""
    first = shards[0]
    histogram = first.power_histogram
    if histogram is not None:
        histogram = np.sum([s.power_histogram for s in shards], axis=0)
    return ChunkedEvaluation(
        xs=np.concatenate([s.xs for s in shards]),
        expected=np.concatenate([s.expected for s in shards]),
        stream_length=first.stream_length,
        chunk_length=first.chunk_length,
        chunk_count=first.chunk_count,
        ones_count=np.concatenate([s.ones_count for s in shards]),
        transmission_bit_errors=np.concatenate(
            [s.transmission_bit_errors for s in shards]
        ),
        power_histogram=histogram,
        power_bin_edges=first.power_bin_edges,
    )


def simulate_chunked(
    circuit: Any,
    xs: Any,
    length: int = 1 << 21,
    chunk_length: int = 1 << 16,
    rng: Optional[np.random.Generator] = None,
    noisy: bool = True,
    sng_kind: str = "lfsr",
    base_seed: Optional[int] = None,
    sng_width: int = 16,
    schedule: Optional[SeedSchedule] = None,
    power_histogram_bins: int = 0,
    workers: Optional[int] = None,
    backend: str = "process",
    kernel: str = "numpy",
    transport: str = "pickle",
    fault: Optional[FaultSpec] = None,
) -> ChunkedEvaluation:
    """Stream a long evaluation through ``(B, chunk_length)`` tiles.

    Peak memory is bounded by the tile size instead of the stream
    length, so ``length >> 2**20`` runs (the regime where the Sobol and
    chaotic randomizers' ``O(1/N)`` convergence pays off) stay cheap.
    The accumulated statistics — ones count, link bit-error count, and
    the optional received-power histogram over *power_histogram_bins*
    equal-width bins spanning the Eq. 6 table range — are **bit-exact**
    with a one-shot ``simulate_batch(..., schedule=schedule)`` of the
    same seed schedule: tiles reuse the engine's own optical pass, and
    consecutive windows of the same stream sources
    (:func:`repro.simulation.kernels.stream_source`) the one-shot pass
    takes whole (index offsets for LFSR/Sobol/counter, carried state
    for chaotic orbits and wide LFSR registers; receiver noise continues
    from per-row seeded generators, which numpy draws identically
    whether in one call or split across tiles).

    Chunking composes with sharding: ``workers > 1`` (default: the
    ``REPRO_RUNTIME_WORKERS`` environment setting, like every runtime
    entry point) streams row shards on a worker pool (each worker
    bounded by its own tile), and the reassembled accumulators are
    identical to the serial streaming run — rows are independent under
    the schedule, and per-shard histograms share the table-derived bin
    edges so they sum exactly.  *transport* picks how shard
    accumulators return from process workers (``"pickle"`` through the
    pool pipe, ``"shm"`` in place through a shared-memory arena — see
    :mod:`repro.simulation.transport`); both are bit-exact.

    With the ``"packed"`` *kernel* each tile is
    evaluated on 64-clock uint64 words: the ones/bit-error accumulators
    come from popcounts and per-key counts instead of per-clock byte
    tensors (:func:`repro.simulation.kernels.packed_tile_statistics`),
    and on the LFSR path no per-clock array is materialized at all
    besides each row's noise draw, which is screened as soon as it is
    drawn (:func:`repro.simulation.kernels.screen_noise`) so only the
    rare clocks whose noise can cross the threshold are decided one by
    one.  The accumulated statistics stay bit-exact with the numpy
    kernel's.

    *fault* injects a :class:`~repro.simulation.faultmodel.FaultSpec`
    scenario: flip/erasure masks are pure functions of the absolute
    clock index and the per-row schedule seeds, and the
    desynchronization shift carries its bits across tiles — so the
    accumulated statistics are bit-exact with the one-shot faulted
    evaluation whatever the chunk length, worker count or kernel.
    """
    _validate_backend(backend)
    kernel = resolve_kernel(kernel)
    transport = resolve_transport(transport, backend)
    xs = _validate_batch_inputs(
        circuit, xs, length, sng_kind, base_seed, sng_width
    )
    validate_fault(fault, circuit.params.order)
    if chunk_length <= 0:
        raise ConfigurationError(
            f"chunk_length must be positive, got {chunk_length!r}"
        )
    if power_histogram_bins < 0:
        raise ConfigurationError(
            f"power_histogram_bins must be >= 0, got {power_histogram_bins!r}"
        )
    batch = xs.size
    if schedule is None:
        schedule = derive_seed_schedule(
            batch, rng=rng, sng_kind=sng_kind, base_seed=base_seed
        )
    elif schedule.batch_size != batch:
        raise ConfigurationError(
            f"schedule covers {schedule.batch_size} rows but xs has {batch}"
        )
    workers = default_worker_count() if workers is None else int(workers)
    if workers > 1 and batch > 1:
        if transport == "shm":
            return _simulate_chunked_shm(
                circuit,
                xs,
                length,
                chunk_length,
                noisy,
                sng_kind,
                sng_width,
                schedule,
                power_histogram_bins,
                kernel,
                workers,
                backend,
                fault=fault,
            )
        shards = _map_row_shards(
            _chunked_shard_worker,
            lambda xs_shard, schedule_shard: (
                circuit,
                xs_shard,
                length,
                chunk_length,
                noisy,
                sng_kind,
                sng_width,
                schedule_shard,
                power_histogram_bins,
                kernel,
                fault,
            ),
            xs,
            schedule,
            workers,
            backend,
        )
        return _concatenate_chunked(shards)
    params = circuit.params
    order = params.order
    channel_count = order + 1
    coefficients = np.asarray(circuit.polynomial.coefficients, dtype=float)
    noise_sigma = params.detector.noise_current_a

    packed = kernel == "packed"
    data_source = stream_source(
        sng_kind,
        schedule.data_seeds,
        order,
        sng_width,
        xs[:, None],
        length,
        packed,
    )
    coeff_source = stream_source(
        sng_kind,
        schedule.coeff_seeds,
        channel_count,
        sng_width,
        coefficients[None, :],
        length,
        packed,
    )
    noise_rngs: Optional[List[Any]] = (
        [schedule.row_noise_rng(row) for row in range(batch)] if noisy else None
    )
    # One stream-fault channel for the whole run: masks are addressed by
    # absolute clock, the desynchronization carry advances tile by tile.
    fault_channel = fault_channel_for(fault, schedule.noise_seeds, length)

    ones_count = np.zeros(batch, dtype=np.int64)
    error_count = np.zeros(batch, dtype=np.int64)
    histogram: Optional["np.ndarray[Any, Any]"] = None
    edges: Optional["np.ndarray[Any, Any]"] = None
    if power_histogram_bins:
        table = circuit.model.received_power_table_mw()
        edges = np.linspace(
            float(table.min()), float(table.max()), power_histogram_bins + 1
        )
        histogram = np.zeros(power_histogram_bins, dtype=np.int64)

    chunk_count = 0
    for start in range(0, length, chunk_length):
        count = min(chunk_length, length - start)
        data_streams = pin_stuck(data_source.take(start, count), fault, count)
        coeff_streams = coeff_source.take(start, count)
        # One draw per row and tile, in row order, on either kernel.
        draws = (
            None
            if noise_rngs is None
            else (gen.normal(0.0, noise_sigma, count) for gen in noise_rngs)
        )
        if packed:
            ones_inc, error_inc, histogram_inc = packed_tile_statistics(
                circuit,
                data_streams,
                coeff_streams,
                count,
                noise=(
                    None
                    if draws is None
                    else screen_noise(pass_context(circuit), draws)
                ),
                histogram_edges=edges if histogram is not None else None,
                fault_channel=fault_channel,
                clock_offset=start,
            )
            ones_count += ones_inc
            error_count += error_inc
            if histogram is not None:
                assert histogram_inc is not None
                histogram += histogram_inc
        else:
            noise_a = None if draws is None else np.stack(list(draws))
            powers, output_bits, ideal_bits, _ = optical_pass(
                circuit, data_streams, coeff_streams, noise_a
            )
            if fault_channel is not None:
                output_bits = fault_channel.apply_bits(output_bits, start)
            ones_count += output_bits.sum(axis=1, dtype=np.int64)
            error_count += np.sum(
                output_bits != ideal_bits, axis=1, dtype=np.int64
            )
            if histogram is not None:
                assert edges is not None
                histogram += np.histogram(powers, bins=edges)[0]
        chunk_count += 1

    expected = np.asarray(circuit.polynomial(xs), dtype=float)
    return ChunkedEvaluation(
        xs=xs,
        expected=expected,
        stream_length=int(length),
        chunk_length=int(min(chunk_length, length)),
        chunk_count=chunk_count,
        ones_count=ones_count,
        transmission_bit_errors=error_count,
        power_histogram=histogram,
        power_bin_edges=edges,
    )


# -- keyed evaluation cache ----------------------------------------------------


class EvaluationCache:
    """LRU cache of deterministic batch evaluations.

    Keyed on ``circuit fingerprint x sng_kind x base_seed x sng_width x
    length x noisy x inputs digest`` — everything that determines a
    schedule-seeded evaluation.  Exploration sweeps that revisit the
    same design point skip the engine pass entirely; ``hits`` /
    ``misses`` expose the effectiveness.

    Each entry retains the full :class:`BatchEvaluation` including its
    per-clock ``(B, L)`` tensors (roughly ``18 * B * L`` bytes), so size
    ``max_entries`` to your memory budget — the default is deliberately
    small.  For streams long enough that one entry is itself a memory
    problem, use :func:`simulate_chunked` instead of caching.

    The cache is thread-safe: ``backend="thread"`` sharded runs and the
    serving layer's executor threads share the process-wide default
    instance, so lookup/store/clear each hold an internal lock — the
    LRU reorder, the hit/miss counters and eviction stay atomic.
    """

    def __init__(self, max_entries: int = 16) -> None:
        if max_entries < 1:
            raise ConfigurationError(
                f"max_entries must be >= 1, got {max_entries!r}"
            )
        self.max_entries = int(max_entries)
        self._entries: "OrderedDict[Tuple[Any, ...], BatchEvaluation]" = (
            OrderedDict()
        )
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def clear(self) -> None:
        """Drop every entry and reset the hit/miss counters."""
        with self._lock:
            self._entries.clear()
            self.hits = 0
            self.misses = 0

    def lookup(self, key: Tuple[Any, ...]) -> Optional[BatchEvaluation]:
        """The cached evaluation for *key*, refreshing its LRU slot."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return entry

    def store(self, key: Tuple[Any, ...], result: BatchEvaluation) -> None:
        """Insert *result*, evicting the least-recently-used overflow.

        The stored arrays are frozen read-only: hits return the stored
        object by identity, so an in-place mutation by one caller would
        otherwise silently corrupt every later hit of the same key.
        """
        for name in (
            "xs",
            "values",
            "expected",
            "received_power_mw",
            "output_bits",
            "ideal_bits",
            "select_levels",
        ):
            getattr(result, name).setflags(write=False)
        with self._lock:
            self._entries[key] = result
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)


_DEFAULT_CACHE = EvaluationCache(max_entries=16)


def default_evaluation_cache() -> EvaluationCache:
    """The process-wide cache :func:`cached_simulate_batch` defaults to."""
    return _DEFAULT_CACHE


def _evaluation_key(
    circuit: Any,
    xs: "np.ndarray[Any, Any]",
    length: int,
    noisy: bool,
    sng_kind: str,
    base_seed: int,
    sng_width: int,
    fault: Optional[FaultSpec] = None,
) -> Tuple[Any, ...]:
    digest = hashlib.sha1(np.ascontiguousarray(xs).tobytes()).hexdigest()
    return (
        circuit.fingerprint(),
        sng_kind,
        int(base_seed),
        int(sng_width),
        int(length),
        bool(noisy),
        int(xs.size),
        digest,
        # FaultSpec is a frozen value object: equal scenarios hash equal,
        # and the fault realization is a pure function of base_seed + spec.
        fault,
    )


def _cached_simulate_batch(
    circuit: Any,
    xs: Any,
    length: int = 1024,
    noisy: bool = True,
    sng_kind: str = "lfsr",
    base_seed: int = 0x5EED,
    sng_width: int = 16,
    cache: Optional[EvaluationCache] = None,
    workers: Optional[int] = None,
    backend: str = "process",
    kernel: str = "numpy",
    transport: str = "pickle",
    fault: Optional[FaultSpec] = None,
) -> BatchEvaluation:
    """Keyed, memoized batch evaluation for repeated exploration sweeps.

    Requires a fixed *base_seed*: the whole evaluation (including the
    receiver noise, whose per-row seeds are derived from *base_seed* via
    the deterministic schedule) is then a pure function of the key, so a
    hit can return the stored result unchanged.  A miss computes through
    :func:`simulate_batch_sharded` (serial when ``workers <= 1``) and
    stores the result in *cache* (the process-wide default when
    omitted).  The *kernel* is deliberately **not** part of the cache
    key: every kernel is bit-for-bit identical, so entries computed by
    one serve hits requested under another.
    """
    if base_seed is None:
        raise ConfigurationError(
            "the evaluation cache needs a fixed base_seed; rng-derived "
            "seeds make every call unique"
        )
    xs = _validate_batch_inputs(
        circuit, xs, length, sng_kind, base_seed, sng_width
    )
    # Private copy: the stored result's arrays are frozen read-only on
    # store, and np.asarray may have returned the caller's own float
    # array by identity — freezing that would break callers who reuse
    # or mutate their input buffer after the call.
    xs = xs.copy()
    cache = _DEFAULT_CACHE if cache is None else cache
    key = _evaluation_key(
        circuit, xs, length, noisy, sng_kind, base_seed, sng_width, fault
    )
    hit = cache.lookup(key)
    if hit is not None:
        return hit
    schedule = derive_seed_schedule(
        xs.size, sng_kind=sng_kind, base_seed=base_seed
    )
    result = simulate_batch_sharded(
        circuit,
        xs,
        length=length,
        noisy=noisy,
        sng_kind=sng_kind,
        sng_width=sng_width,
        workers=workers,
        backend=backend,
        schedule=schedule,
        kernel=kernel,
        transport=transport,
        fault=fault,
    )
    cache.store(key, result)
    return result


# -- one-stop dispatcher -------------------------------------------------------


@dataclass(frozen=True)
class RuntimeConfig:
    """Scaling knobs for :func:`run_batch`.

    ``workers`` > 1 enables row sharding (``None`` defers to the
    ``REPRO_RUNTIME_WORKERS`` environment default); ``chunk_length``
    enables tile streaming for streams longer than one tile (the result
    is then a :class:`ChunkedEvaluation`); ``use_cache``/``cache``
    enable memoization for fixed-``base_seed`` calls; ``vectorized``
    routes the optics analysis consumers (Monte Carlo corners, yield
    curves) through the stacked-array engine of
    :mod:`repro.core.vectorized` instead of the per-corner scalar loop
    — results agree to floating-point rounding, an order of magnitude
    faster.

    ``kernel`` selects the engine's compute kernel
    (:data:`repro.simulation.kernels.KERNELS`): ``"numpy"`` (reference,
    default) or ``"packed"`` (dependency-free uint64 bit-plane engine).
    Not to be confused with ``backend``, which picks
    the process/thread *pool* for sharded fan-out — the two compose
    freely, and like every other knob here the kernel never changes an
    output bit.

    ``transport`` selects how shard data moves between the parent and
    process workers (:data:`repro.simulation.transport.TRANSPORTS`):
    ``"pickle"`` (default) serializes shard inputs/results through the
    pool pipe; ``"shm"`` shares one zero-copy
    :mod:`multiprocessing.shared_memory` arena that workers write their
    row ranges into, with reassembly as a view — no hot array is
    serialized in either direction.  ``"shm"`` requires the
    ``"process"`` backend (thread workers already share memory) and is,
    like the kernel, bit-exact with the default.

    Every construction-knowable misconfiguration fails in
    ``__post_init__`` — an invalid backend, kernel, chunk size, worker
    count or cache object never survives to the first evaluation.  The
    one check that needs the seed policy (cache without a fixed
    ``base_seed``) fails on **every** :func:`run_batch` path, and at
    construction when the config is bound to a spec in a
    :class:`repro.session.Evaluator`.
    """

    workers: Optional[int] = None
    backend: str = "process"
    chunk_length: Optional[int] = None
    use_cache: bool = False
    cache: Optional[EvaluationCache] = None
    vectorized: bool = False
    kernel: str = "numpy"
    transport: str = "pickle"

    def __post_init__(self) -> None:
        _validate_backend(self.backend)
        resolve_kernel(self.kernel)
        resolve_transport(self.transport, self.backend)
        if not isinstance(self.vectorized, bool):
            raise ConfigurationError(
                f"vectorized must be a bool, got {self.vectorized!r}"
            )
        if self.chunk_length is not None and self.chunk_length <= 0:
            raise ConfigurationError(
                f"chunk_length must be positive, got {self.chunk_length!r}"
            )
        if self.workers is not None and int(self.workers) < 0:
            raise ConfigurationError(
                f"workers must be >= 0, got {self.workers!r}"
            )
        if self.cache is not None and not isinstance(
            self.cache, EvaluationCache
        ):
            raise ConfigurationError(
                f"cache must be an EvaluationCache, got {self.cache!r}"
            )

    @property
    def cache_requested(self) -> bool:
        """Whether this config asks for memoized evaluation."""
        return self.use_cache or self.cache is not None

    @property
    def resolved_workers(self) -> int:
        """The effective worker count (environment default applied)."""
        return (
            default_worker_count() if self.workers is None else int(self.workers)
        )


def run_batch(
    circuit: Any,
    xs: Any,
    length: int = 1024,
    rng: Optional[np.random.Generator] = None,
    noisy: bool = True,
    sng_kind: str = "lfsr",
    base_seed: Optional[int] = None,
    sng_width: int = 16,
    config: Optional[RuntimeConfig] = None,
    fault: Optional[FaultSpec] = None,
) -> Any:
    """Evaluate through the runtime, picking the scaling strategy.

    Dispatch order: chunked streaming first (when ``config.chunk_length``
    is set and the stream exceeds one tile — returns a
    :class:`ChunkedEvaluation`, row-sharded across ``config.workers``;
    chunking wins over the cache because a stream long enough to chunk
    is exactly one whose ``(B, L)`` tensors must never be materialized,
    let alone pinned in a cache), then the cache (when enabled; a cache
    without a fixed *base_seed* is a misconfiguration and raises), then
    sharding (``workers > 1``), else the serial engine call.  Consumers that only need ``.values`` / error
    statistics work with either result type unchanged.

    Every strategy runs over the **same** pre-derived seed schedule, so
    the worker count, chunk size and compute kernel
    (``config.kernel``) are pure wall-clock/memory knobs: changing them
    never changes a single output bit or accumulated statistic for a
    given *rng* seed (or *base_seed*).  That includes an injected
    *fault* (:class:`~repro.simulation.faultmodel.FaultSpec`): its
    realization is seeded from the same schedule and addressed by
    absolute clock index, so the faulted bits are identical on every
    strategy too.  (This schedule
    protocol consumes *rng* differently than a bare ``simulate_batch``
    call — run_batch results are reproducible against run_batch, not
    against the engine's legacy per-row noise-block protocol.)
    """
    config = config or RuntimeConfig()
    workers = config.resolved_workers
    if config.cache_requested and base_seed is None:
        # Silently recomputing while the caller believes memoization is
        # on would defeat the config; fail on every dispatch path (the
        # chunked branch used to skip this check and quietly ignore the
        # cache request).
        raise ConfigurationError(
            "RuntimeConfig enables the evaluation cache but base_seed is "
            "None; rng-derived seeds make every call unique — pass a "
            "fixed base_seed or disable the cache"
        )
    if config.chunk_length is not None and length > config.chunk_length:
        xs = _validate_batch_inputs(
            circuit, xs, length, sng_kind, base_seed, sng_width
        )
        schedule = derive_seed_schedule(
            xs.size, rng=rng, sng_kind=sng_kind, base_seed=base_seed
        )
        return simulate_chunked(
            circuit,
            xs,
            length=length,
            chunk_length=config.chunk_length,
            noisy=noisy,
            sng_kind=sng_kind,
            sng_width=sng_width,
            schedule=schedule,
            workers=workers,
            backend=config.backend,
            kernel=config.kernel,
            transport=config.transport,
            fault=fault,
        )
    if config.cache_requested:  # base_seed is fixed: validated above
        assert base_seed is not None
        return _cached_simulate_batch(
            circuit,
            xs,
            length=length,
            noisy=noisy,
            sng_kind=sng_kind,
            base_seed=base_seed,
            sng_width=sng_width,
            cache=config.cache,
            workers=workers,
            backend=config.backend,
            kernel=config.kernel,
            transport=config.transport,
            fault=fault,
        )
    xs = _validate_batch_inputs(
        circuit, xs, length, sng_kind, base_seed, sng_width
    )
    schedule = derive_seed_schedule(
        xs.size, rng=rng, sng_kind=sng_kind, base_seed=base_seed
    )
    if workers > 1:
        return simulate_batch_sharded(
            circuit,
            xs,
            length=length,
            noisy=noisy,
            sng_kind=sng_kind,
            sng_width=sng_width,
            workers=workers,
            backend=config.backend,
            schedule=schedule,
            kernel=config.kernel,
            transport=config.transport,
            fault=fault,
        )
    return simulate_batch(
        circuit,
        xs,
        length=length,
        noisy=noisy,
        sng_kind=sng_kind,
        sng_width=sng_width,
        schedule=schedule,
        kernel=config.kernel,
        fault=fault,
    )

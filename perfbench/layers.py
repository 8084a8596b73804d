"""Wrap the program's layer boundaries with spans, from outside the program.

:class:`Tracer` replaces each named function or method at every name its
callers look it up by — module globals across the loaded ``repro``
modules (``from .kernels import popcount`` binds a second name) and
class attributes for methods — and puts the originals back on
:meth:`Tracer.uninstall`.  Nothing under ``src/repro`` changes; with the
tracer uninstalled the program runs exactly as shipped.

Worker processes: the sharded chunked path forks its pool while the
tracer is installed, so workers inherit the wrappers.  The per-shard
entry point :func:`traced_chunked_shm_worker` (module-level, so the pool
can pickle it by name) records the shard's spans on a detached recorder
and ships them back on the shard's result tuple (:class:`ShardResult`);
the parent's ``parallel_map`` wrapper re-parents them under its own
span.  The worker-side layers therefore come from the workers
themselves, not from a replay.

Counts are attached to spans as attributes (clocks, words, bytes,
flips, unique values).  The one count that costs real work — the flips
a fault mask realized — is computed inside a ``trace.accounting`` span
so its cost is attributed to the tracer, not to the layer.
"""

from __future__ import annotations

import functools
import sys
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from .spans import SpanRecorder

__all__ = ["ShardResult", "Tracer", "traced_chunked_shm_worker"]

_ACTIVE: Dict[str, Any] = {}
"""The installed tracer's recorder and original shard worker.

Module-level because the pool pickles :func:`traced_chunked_shm_worker`
by name and a forked worker finds its state only through the module.
Set by :meth:`Tracer.install`, cleared by :meth:`Tracer.uninstall`.
"""


class ShardResult(tuple):  # type: ignore[type-arg]
    """A shard worker's result tuple carrying the worker's spans.

    Still unpacks like the plain tuple the runtime expects; the spans
    ride along as an attribute, which pickling preserves.
    """

    spans: List[Any]


def traced_chunked_shm_worker(payload: Tuple[Any, ...]) -> ShardResult:
    """The runtime's chunked shm shard worker, traced in the worker."""
    if not _ACTIVE:
        # A spawned (not forked) worker starts from a fresh import with
        # no tracer installed: run the shard untraced.
        from repro.simulation import runtime

        out = ShardResult(runtime._chunked_shm_worker(payload))
        out.spans = []
        return out
    recorder: SpanRecorder = _ACTIVE["recorder"]
    original: Callable[[Any], Any] = _ACTIVE["chunked_shm_worker"]
    saved = recorder.detach()
    try:
        with recorder.span("runtime.shard", rows=int(payload[4] - payload[3])) as shard:
            result = original(payload)
            shard.attrs["peak_rss_kb"] = _peak_rss_kb()
    finally:
        spans = recorder.restore(saved)
    out = ShardResult(result)
    out.spans = spans
    return out


def _peak_rss_kb() -> int:
    """This process's resident-set high-water mark (Linux ``VmHWM``)."""
    try:
        with open("/proc/self/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


class _TimedGenerator:
    """A receiver-noise generator whose draws are spans."""

    __slots__ = ("_generator", "_recorder")

    def __init__(self, generator: np.random.Generator, recorder: SpanRecorder) -> None:
        self._generator = generator
        self._recorder = recorder

    def normal(self, *args: Any, **kwargs: Any) -> Any:
        token = self._recorder.begin()
        out = self._generator.normal(*args, **kwargs)
        self._recorder.end(token, "runtime.noise_draw", {"draws": int(np.size(out))})
        return out

    def __getattr__(self, name: str) -> Any:
        return getattr(self._generator, name)


class Tracer:
    """Installs and removes the layer wrappers around one recorder."""

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        self._undo: List[Callable[[], None]] = []

    # -- patching primitives -----------------------------------------------------

    def _replace_function(self, original: Any, wrapper: Any) -> None:
        """Rebind every module-global name that refers to *original*."""
        for module_name, module in list(sys.modules.items()):
            if module is None or not (
                module_name == "repro" or module_name.startswith("repro.")
            ):
                continue
            namespace = vars(module)
            for attr, value in list(namespace.items()):
                if value is original:
                    namespace[attr] = wrapper
                    self._undo.append(
                        functools.partial(namespace.__setitem__, attr, original)
                    )

    def _replace_attribute(self, owner: type, attr: str, wrapper: Any) -> None:
        """Set a class attribute, remembering whether *owner* defined it."""
        if attr in vars(owner):
            original = vars(owner)[attr]
            self._undo.append(functools.partial(setattr, owner, attr, original))
        else:
            self._undo.append(functools.partial(delattr, owner, attr))
        setattr(owner, attr, wrapper)

    def _timed(
        self,
        name: str,
        function: Callable[..., Any],
        count: Optional[Callable[[tuple, dict, Any], Dict[str, Any]]] = None,
    ) -> Callable[..., Any]:
        recorder = self.recorder

        @functools.wraps(function)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            token = recorder.begin()
            try:
                result = function(*args, **kwargs)
            except BaseException:
                recorder.end(token, name, {"error": 1})
                raise
            attrs: Dict[str, Any] = {}
            recorder.end(token, name, attrs)
            if count is not None:
                attrs.update(count(args, kwargs, result))
            return result

        return wrapper

    # -- the layer table -----------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced layer; idempotent."""
        if self._undo:
            return
        from repro.session import Evaluator
        from repro.simulation import engine, faultmodel, kernels, runtime, transport

        recorder = self.recorder
        popcount = kernels.popcount
        _ACTIVE["recorder"] = recorder
        _ACTIVE["chunked_shm_worker"] = runtime._chunked_shm_worker
        self._undo.append(_ACTIVE.clear)

        self._replace_attribute(
            Evaluator,
            "evaluate",
            self._timed(
                "session.evaluate",
                Evaluator.evaluate,
                lambda a, k, r: {"rows": int(np.size(a[1])), "_xs": a[1]},
            ),
        )
        for name, function in (
            ("engine.seed_schedule", engine.derive_seed_schedule),
            ("engine.simulate_batch", engine.simulate_batch),
            ("runtime.simulate_chunked", runtime.simulate_chunked),
            ("kernels.pass_context", kernels.pass_context),
            ("kernels.popcount", kernels.popcount),
            ("kernels.pack_bits", kernels.pack_bits),
        ):
            self._replace_function(function, self._timed(name, function))
        self._replace_function(
            kernels.packed_tile_statistics,
            self._timed(
                "kernels.tile_statistics",
                kernels.packed_tile_statistics,
                lambda a, k, r: {"clocks": int(a[1].shape[0]) * int(a[3])},
            ),
        )
        self._replace_function(
            kernels.packed_optical_pass,
            self._timed(
                "kernels.optical_pass",
                kernels.packed_optical_pass,
                lambda a, k, r: {"bytes": int(sum(part.nbytes for part in r))},
            ),
        )
        self._replace_function(runtime._chunked_shm_worker, traced_chunked_shm_worker)
        self._replace_function(runtime.parallel_map, self._pool_map(runtime.parallel_map))

        lfsr_source = kernels.PackedLfsrSource
        create = lfsr_source.create.__func__  # type: ignore[attr-defined]
        self._replace_attribute(
            lfsr_source,
            "create",
            classmethod(
                self._timed("kernels.source_create", create, _source_create_counts)
            ),
        )
        self._replace_attribute(
            lfsr_source,
            "take",
            self._timed(
                "kernels.source_take",
                lfsr_source.take,
                lambda a, k, r: {
                    "words": int(r.size),
                    "clocks": int(a[2]) * int(np.prod(r.shape[:-1])),
                },
            ),
        )

        row_noise_rng = engine.SeedSchedule.row_noise_rng

        def timed_row_noise_rng(schedule: Any, row: int) -> Any:
            return _TimedGenerator(row_noise_rng(schedule, row), recorder)

        self._replace_attribute(engine.SeedSchedule, "row_noise_rng", timed_row_noise_rng)

        apply_words = faultmodel.PackedFaultChannel.apply_words

        def timed_apply_words(channel: Any, words: Any, offset: int, count: int) -> Any:
            token = recorder.begin()
            observed = apply_words(channel, words, offset, count)
            attrs: Dict[str, Any] = {"words": int(words.size)}
            recorder.end(token, "faultmodel.apply", attrs)
            with recorder.span("trace.accounting"):
                attrs["flips"] = int(popcount(observed ^ words).sum())
            return observed

        self._replace_attribute(faultmodel.PackedFaultChannel, "apply_words", timed_apply_words)

        arena = transport.SharedArena
        self._replace_attribute(
            arena,
            "__init__",
            self._timed(
                "transport.arena_create",
                arena.__init__,
                lambda a, k, r: {"bytes": _arena_bytes(a[1])},
            ),
        )
        self._replace_attribute(
            arena,
            "export_views",
            self._timed("transport.reassembly", arena.export_views),
        )

    def _pool_map(self, parallel_map: Callable[..., Any]) -> Callable[..., Any]:
        recorder = self.recorder

        @functools.wraps(parallel_map)
        def traced_parallel_map(fn: Any, items: Any, workers: Any = None, backend: str = "process") -> Any:
            items = list(items)
            token = recorder.begin()
            try:
                results = parallel_map(fn, items, workers=workers, backend=backend)
            except BaseException:
                recorder.end(token, "runtime.pool_map", {"error": 1})
                raise
            for result in results:
                if isinstance(result, ShardResult):
                    recorder.adopt(result.spans, token[0])
            recorder.end(
                token,
                "runtime.pool_map",
                {"workers": int(workers or 1), "items": len(items)},
            )
            return results

        return traced_parallel_map

    def uninstall(self) -> None:
        """Restore every original, newest patch first."""
        while self._undo:
            self._undo.pop()()


def _source_create_counts(args: tuple, kwargs: dict, source: Any) -> Dict[str, Any]:
    """Unique comparison values and cycle bits one packed source built."""
    if source is None:
        return {}
    _, seeds, values, width = args[:4]
    seeds = np.asarray(seeds)
    unique = int(np.unique(np.broadcast_to(np.asarray(values, dtype=float), seeds.shape)).size)
    period = (1 << int(width)) - 1
    return {"unique_values": unique, "packed_bits": unique * period}


def _arena_bytes(fields: Dict[str, Any]) -> int:
    """Bytes of the fields one shared-memory arena lays out."""
    total = 0
    for shape, dtype in fields.values():
        total += int(np.prod(shape, dtype=np.int64)) * np.dtype(dtype).itemsize
    return total

"""Zero-copy shard transport over POSIX shared memory.

Serializing every shard's result tensors through the process-pool pipe
would cost, for a ``B=256 x L=2**20`` batch, gigabytes of pickling in
each direction — the dominant cost once the packed kernels made the
compute itself cheap.  Every sharded run of the runtime therefore moves
its shard data through a shared-memory arena instead, on either pool
backend:

* the parent allocates **one** :mod:`multiprocessing.shared_memory`
  segment laid out as a set of named arrays (:class:`SharedArena`) —
  the batch inputs, the per-row outputs, the ``(B, L)`` hot tensors
  (with the bit tensors in packed uint64 form when a packed kernel
  runs, 8x smaller), or the chunked path's per-shard accumulators;
* workers attach by segment name, read their inputs and write their row
  ranges **in place**, returning only tiny metadata;
* reassembly is a view: the parent wraps the segment's memory in numpy
  arrays without copying, unlinks the name, and the OS frees the pages
  when the last view dies.

No hot array is serialized in either direction, and results are
bit-for-bit identical to the serial engine call (gated by the parity
matrices in ``tests/test_runtime.py`` and ``bench_batched.py``).  Where
the platform can reserve the segment's pages up front
(``os.posix_fallocate``), an arena that does not fit in ``/dev/shm``
fails at creation with :class:`~repro.errors.SimulationError` instead of
a ``SIGBUS`` at the first write.
"""

from __future__ import annotations

import errno
import os
import threading
import weakref
from multiprocessing import shared_memory
from typing import Any, Dict, Optional, Sequence, Tuple

import numpy as np

from ..errors import ConfigurationError, SimulationError

__all__ = ["SharedArena"]

_ALIGN = 64

#: ``{field: (shape, dtype)}`` as callers declare an arena.
FieldMap = Dict[str, Tuple[Sequence[int], Any]]
#: ``(shape, dtype, byte offset)`` as the resolved layout stores it.
_Field = Tuple[Tuple[int, ...], "np.dtype[Any]", int]


def _build_layout(fields: FieldMap) -> Tuple[Dict[str, _Field], int]:
    """``{name: (shape, dtype, offset)}`` plus total byte size.

    Each field is 64-byte aligned so every view is cache-line aligned
    regardless of the dtypes preceding it.
    """
    layout: Dict[str, _Field] = {}
    offset = 0
    for name, (raw_shape, raw_dtype) in fields.items():
        dtype = np.dtype(raw_dtype)
        shape = tuple(int(s) for s in raw_shape)
        offset = -(-offset // _ALIGN) * _ALIGN
        layout[name] = (shape, dtype, offset)
        offset += int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
    return layout, offset


_ATTACH_LOCK = threading.Lock()


def _attach_untracked(name: str) -> shared_memory.SharedMemory:
    """``SharedMemory(name=...)`` without tracker registration.

    Before Python 3.13's ``track=False``, merely *attaching* to a
    segment registers it with the resource tracker (bpo-39959) — and
    the tracker's cache is a set, so when several workers attach to the
    same segment the duplicate registrations collapse and any matching
    unregisters (ours, or the owner's ``unlink``) hit ``KeyError`` in
    the tracker process.  Only the creating side should track the
    name, so suppress registration for the duration of the attach.
    """
    from multiprocessing import resource_tracker

    with _ATTACH_LOCK:
        original = resource_tracker.register

        def _skip_shared_memory(rname: str, rtype: str) -> None:
            if rtype != "shared_memory":
                original(rname, rtype)

        resource_tracker.register = _skip_shared_memory
        try:
            return shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = original


def _reserve_pages(shm: shared_memory.SharedMemory, size: int) -> None:
    """Back every page of a new segment now, or unlink it and raise.

    A tmpfs segment is sparse: without the reservation, a ``/dev/shm``
    too small for the arena only shows at the first write to a missing
    page, as a ``SIGBUS`` that kills the whole process.  Platforms
    without ``posix_fallocate``, or filesystems that refuse it
    (``EINVAL``/``EOPNOTSUPP``), keep the sparse segment.
    """
    fallocate = getattr(os, "posix_fallocate", None)
    fd = int(getattr(shm, "_fd", -1))
    if fallocate is None or fd < 0:
        return
    try:
        fallocate(fd, 0, size)
    except OSError as error:
        if error.errno in (errno.EINVAL, errno.EOPNOTSUPP):
            return
        shm.close()
        shm.unlink()
        raise SimulationError(
            f"cannot reserve {size} bytes of shared memory for the shard "
            f"arena ({error}); stream the run in tiles (a smaller "
            "chunk_length) or use fewer rows per call"
        ) from error


class SharedArena:
    """One shared-memory segment laid out as a set of named ndarrays.

    Create in the parent with a ``{name: (shape, dtype)}`` field map,
    ship the picklable :attr:`spec` (segment name + layout — a few
    hundred bytes) to the workers, and :meth:`attach` on their side.
    :meth:`write` stores a row range in place without retaining a view
    (so :meth:`close` stays legal afterwards); :meth:`export_views`
    hands the parent zero-copy result arrays whose lifetime manages the
    segment's.
    """

    _layout: Dict[str, _Field]
    _shm: Optional[shared_memory.SharedMemory]
    _owner: bool

    def __init__(self, fields: FieldMap) -> None:
        self._layout, size = _build_layout(fields)
        size = max(1, size)
        # Under the attach lock: a concurrent untracked attach on another
        # thread would otherwise swallow this segment's tracker entry.
        with _ATTACH_LOCK:
            shm = shared_memory.SharedMemory(create=True, size=size)
        _reserve_pages(shm, size)
        self._shm = shm
        self._owner = True

    @classmethod
    def attach(cls, spec: Dict[str, Any]) -> "SharedArena":
        """Attach to an existing arena from its :attr:`spec`."""
        arena = cls.__new__(cls)
        arena._layout = {
            name: (tuple(shape), np.dtype(dtype), int(offset))
            for name, (shape, dtype, offset) in spec["fields"].items()
        }
        arena._shm = _attach_untracked(spec["name"])
        arena._owner = False
        return arena

    @property
    def name(self) -> str:
        """The OS-level segment name workers attach by."""
        assert self._shm is not None
        return self._shm.name

    @property
    def spec(self) -> Dict[str, Any]:
        """Picklable descriptor: segment name plus field layout."""
        assert self._shm is not None
        return {
            "name": self._shm.name,
            "fields": {
                name: (shape, dtype.str, offset)
                for name, (shape, dtype, offset) in self._layout.items()
            },
        }

    def _field(self, name: str) -> _Field:
        try:
            return self._layout[name]
        except KeyError:
            raise ConfigurationError(
                f"unknown arena field {name!r}; have {sorted(self._layout)}"
            ) from None

    def _view(self, name: str) -> "np.ndarray[Any, Any]":
        shape, dtype, offset = self._field(name)
        assert self._shm is not None
        return np.ndarray(shape, dtype=dtype, buffer=self._shm.buf, offset=offset)

    def write(self, name: str, array: Any, lo: int = 0) -> None:
        """Store *array* at row offset *lo* of field *name*, in place.

        No view outlives the call, so the arena can still be closed
        afterwards (numpy buffer exports would otherwise pin the
        mapping open).
        """
        view = self._view(name)
        array = np.asarray(array, dtype=view.dtype)
        view[lo : lo + (array.shape[0] if array.ndim else 1)] = array
        del view

    def read(
        self, name: str, lo: int = 0, hi: Optional[int] = None
    ) -> "np.ndarray[Any, Any]":
        """A private copy of rows ``[lo, hi)`` of field *name*."""
        view = self._view(name)
        out = np.array(view[lo:hi], copy=True)
        del view
        return out

    def export_views(self) -> Dict[str, "np.ndarray[Any, Any]"]:
        """Zero-copy views of every field, with arena lifetime attached.

        The segment name is unlinked immediately (POSIX keeps the pages
        alive while mapped), every view shares one base array, and a
        finalizer closes the mapping when the last view dies — so the
        returned arrays behave like ordinary result arrays with no
        cleanup protocol for the caller, and no memory outlives them.
        The arena itself must not be used (or closed) afterwards.
        """
        assert self._shm is not None
        base = np.frombuffer(self._shm.buf, dtype=np.uint8)
        views: Dict[str, "np.ndarray[Any, Any]"] = {}
        for name, (shape, dtype, offset) in self._layout.items():
            nbytes = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
            views[name] = (
                base[offset : offset + nbytes].view(dtype).reshape(shape)
            )
        shm = self._shm
        self._shm = None
        if self._owner:
            shm.unlink()
        weakref.finalize(base, _release_segment, shm)
        return views

    def close(self) -> None:
        """Drop this process's mapping (workers, after their writes)."""
        if self._shm is not None:
            self._shm.close()
            self._shm = None

    def destroy(self) -> None:
        """Unmap and unlink (parent error paths: nothing escaped)."""
        if self._shm is not None:
            shm = self._shm
            self._shm = None
            shm.close()
            if self._owner:
                shm.unlink()


def _release_segment(shm: shared_memory.SharedMemory) -> None:
    """Close an escaped segment's mapping once its last view dies.

    The finalizer fires at the *start* of the base array's
    deallocation, before numpy has released its buffer pointer, so the
    mmap may refuse to close yet.  In that case drop our references
    instead: the mmap object unmaps itself when the last buffer export
    dies moments later, and we close the file descriptor here so
    nothing OS-level outlives the arrays (the segment name was already
    unlinked at export time).
    """
    try:  # pragma: no cover - GC-timing dependent
        shm.close()
    except BufferError:
        setattr(shm, "_mmap", None)
        fd = int(getattr(shm, "_fd", -1))
        if fd >= 0:
            try:
                os.close(fd)
            except OSError:
                pass
            setattr(shm, "_fd", -1)

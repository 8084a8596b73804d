"""Pluggable compute kernels for the bit-level evaluation engine.

The paper's premise is that stochastic computing trades precision for
ultra-cheap single-gate bitwise logic on long bit streams.  The numpy
engine of PR 1 vectorized the pipeline but still spends one *byte* (or
one float64) of memory traffic per stream *bit*; this module adds a
**kernel** dimension — orthogonal to the process/thread *pool* backend
of :mod:`repro.simulation.runtime` — with two implementations behind
the unchanged ``simulate_batch`` signature:

``"numpy"``
    The reference engine: ``(B, C, L)`` uint8 bit tensors, one fancy
    index into the Eq. 6 pattern table per clock.
``"packed"``
    Dependency-free bit-plane engine: data/coefficient bits are packed
    64 clocks per uint64 word (``(B, C, L//64)``), the adder level is a
    carry-save bit-sliced sum across channels, and the receiver decision
    is resolved through precomputed per-``(pattern, level)`` flat tables
    — so the bit tensors shrink 8× and the hot noiseless path runs on
    words instead of bytes.  Statistics-only consumers (the chunked
    streaming runtime) accumulate ones/bit-error counts straight from
    packed words via popcount (:func:`popcount` —
    ``np.bitwise_count`` when the numpy build has it, a 16-bit LUT
    otherwise), noisy tiles included: receiver noise is screened
    (:func:`screen_noise`) and only the rare clocks whose draw can
    cross the threshold are decided one by one.

The packed kernel is **bit-for-bit identical** to ``"numpy"`` for all
four SNG kinds, noisy and noiseless (enforced by ``tests/test_kernels.py``
and the ``bench_batched.py --kernels`` exit gate): the packed pipeline
re-derives exactly the same comparator decisions, adder levels and
receiver thresholds, only in a different data layout.  Choosing a
kernel is therefore a pure wall-clock/memory lever, like the pool
backend and the chunk size.

The module also owns the memoized per-circuit pass context
(:func:`pass_context`): the link budget, Eq. 6 table and threshold
receiver are built once per circuit fingerprint instead of once per
optical pass, which previously repeated that work for every tile of a
chunked stream — and the comparator stream sources
(:func:`stream_source`) both the one-shot engine and the chunked
runtime draw their randomizer banks from.  Packed LFSR and Sobol banks
read their words off the randomizer cycle in one of two layouts picked
by a cost rule on the bank's shape: *tiled* words (each distinct
value's period compared and packed once — long streams) or *sliced*
words (the cycle's value-independent state bit planes compared against
integer thresholds word-wide — short streams of many distinct values,
such as serving batches).
"""

from __future__ import annotations

import sys
import threading
from collections import OrderedDict
from typing import (
    Any,
    Dict,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Tuple,
    Type,
    TypeVar,
)

import numpy as np

from ..errors import ConfigurationError, SimulationError
from ..stochastic.bitstream import exact_bit_window
from ..stochastic.lfsr import (
    LFSR,
    _TABLE_MAX_WIDTH,
    _cycle_tables,
    _resolve_taps,
    lfsr_uniform_windows,
)
from ..stochastic.sng import (
    chaotic_orbit,
    chaotic_warmup,
    derive_chaotic_intensities,
    derive_lfsr_seeds,
    derive_sobol_offsets,
    van_der_corput,
)
from .receiver import OpticalReceiver

__all__ = [
    "KERNELS",
    "kernel_capabilities",
    "resolve_kernel",
    "pack_bits",
    "unpack_bits",
    "popcount",
    "pass_context",
    "clear_pass_context_cache",
    "optical_pass",
    "packed_optical_pass",
    "NoiseCandidates",
    "screen_noise",
    "PackedLfsrSource",
    "PackedSobolSource",
    "stream_source",
    "packed_tile_statistics",
]

KERNELS: Tuple[str, ...] = ("numpy", "packed")
"""Compute-kernel implementations behind ``simulate_batch``."""

_HAS_BITWISE_COUNT = hasattr(np, "bitwise_count")

_WORD_BITS = 64

_ALL_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)


# -- kernel registry -----------------------------------------------------------


def resolve_kernel(kernel: str) -> str:
    """Validate a kernel name, failing fast on unknown ones.

    Unknown names raise whatever the caller is — a
    :class:`~repro.simulation.runtime.RuntimeConfig` constructor, the
    engine entry points, the CLI — so a typo can never silently fall
    back to the reference kernel.
    """
    if kernel not in KERNELS:
        raise ConfigurationError(
            f"unknown kernel {kernel!r}; expected one of {KERNELS}"
        )
    return kernel


def kernel_capabilities() -> Dict[str, Dict[str, Any]]:
    """Capability table of every kernel (for docs, CLIs and probing).

    Keys mirror :data:`KERNELS`; each entry records availability, the
    extra requirement (if any), the relative per-bit memory footprint of
    the bit tensors, and a one-line description of when the kernel wins.
    """
    return {
        "numpy": {
            "available": True,
            "requires": None,
            "bit_tensor_bytes_per_bit": 1.0,
            "description": (
                "reference engine: uint8 bit tensors; fastest for single "
                "rows of short streams (L=4096: 0.8 vs 1.6 ms for one "
                "row, on par at 8 rows), where the packed kernel's fixed "
                "per-call word work dominates"
            ),
        },
        "packed": {
            "available": True,
            "requires": None,
            "bit_tensor_bytes_per_bit": 1.0 / 8.0,
            "description": (
                "dependency-free uint64 bit-plane engine: 8x smaller bit "
                "tensors; wins from tens of rows and on long streams, "
                "noisy or not (L=4096, 64 rows: 1.8x noiseless, 1.1x "
                "noisy; the LFSR hot path runs on words, not bytes)"
            ),
        },
    }


# -- packing primitives --------------------------------------------------------


def _word_count(length: int) -> int:
    return (int(length) + _WORD_BITS - 1) // _WORD_BITS


def pack_bits(bits: "np.ndarray[Any, Any]") -> "np.ndarray[Any, Any]":
    """Pack a 0/1 bit tensor along its last axis, 64 clocks per word.

    ``(..., L)`` uint8 in, ``(..., ceil(L / 64))`` uint64 out; bit ``j``
    of word ``w`` is clock ``64 * w + j`` (little-endian bit order), and
    tail bits past ``L`` are zero.  :func:`unpack_bits` is the exact
    inverse.
    """
    bits = np.ascontiguousarray(bits, dtype=np.uint8)
    if bits.ndim == 0:
        raise ConfigurationError("bits must have at least one axis")
    length = bits.shape[-1]
    words = _word_count(length)
    packed = np.packbits(bits, axis=-1, bitorder="little")
    padded = np.zeros(bits.shape[:-1] + (words * 8,), dtype=np.uint8)
    padded[..., : packed.shape[-1]] = packed
    out = padded.view(np.uint64)
    if sys.byteorder != "little":  # pragma: no cover - exotic platforms
        out = out.byteswap()
    return out


def unpack_bits(
    words: "np.ndarray[Any, Any]", length: int
) -> "np.ndarray[Any, Any]":
    """Unpack uint64 words back to a ``(..., length)`` uint8 bit tensor."""
    words = np.ascontiguousarray(words, dtype=np.uint64)
    if sys.byteorder != "little":  # pragma: no cover - exotic platforms
        words = words.byteswap()
    as_bytes = words.view(np.uint8)
    bits = np.unpackbits(as_bytes, axis=-1, bitorder="little")
    return bits[..., : int(length)]


_POPCOUNT_LUT: Optional["np.ndarray[Any, Any]"] = None
_POPCOUNT_LOCK = threading.Lock()


def _popcount_lut() -> "np.ndarray[Any, Any]":
    """Lazily built 16-bit population-count table (64 KiB, built once).

    Double-checked under the module lock: thread-backend shards hit the
    fallback path concurrently on older numpy, and an unguarded lazy
    init would build (and briefly publish) the table per racing thread.
    """
    global _POPCOUNT_LUT
    lut = _POPCOUNT_LUT
    if lut is not None:
        return lut
    with _POPCOUNT_LOCK:
        lut = _POPCOUNT_LUT
        if lut is None:
            values = np.arange(1 << 16, dtype=np.uint16)
            counts = np.zeros(1 << 16, dtype=np.uint8)
            for shift in range(16):
                counts += ((values >> shift) & 1).astype(np.uint8)
            lut = counts
            _POPCOUNT_LUT = lut
    return lut


def popcount(
    words: "np.ndarray[Any, Any]", use_lut: bool = False
) -> "np.ndarray[Any, Any]":
    """Per-word population count of a uint64 tensor, as int64.

    Uses ``np.bitwise_count`` when the numpy build provides it; older
    numpy falls back to a 16-bit lookup table over the four half-words
    (*use_lut* forces the fallback so both paths stay testable on any
    numpy).
    """
    words = np.ascontiguousarray(words, dtype=np.uint64)
    if _HAS_BITWISE_COUNT and not use_lut:
        return np.bitwise_count(words).astype(np.int64)
    lut = _popcount_lut()
    if sys.byteorder != "little":  # pragma: no cover - exotic platforms
        words = words.byteswap()
    halves = lut[words.view(np.uint16)].reshape(words.shape + (4,))
    return halves.sum(axis=-1, dtype=np.int64)


# -- memoized per-circuit pass context -----------------------------------------


class CircuitPassContext:
    """Per-circuit precomputation shared by every kernel.

    Holds the link budget, the Eq. 6 received-power table and the
    calibrated threshold receiver — previously rebuilt on every
    optical pass, i.e. once per tile of a chunked stream —
    plus the packed kernel's flat per-``(pattern, level)`` lookup
    tables, built lazily on first packed use.

    The flat tables index on ``key = (level << channel_count) |
    pattern``: ``flat_powers[key]`` / ``flat_currents[key]`` are copies
    of the same float64 values the numpy kernel gathers (float copies
    are bit-exact), ``flat_decisions[key]`` is the noiseless threshold
    decision, and ``flat_ideal[key]`` the multiplexer's selected
    coefficient bit.
    """

    def __init__(self, circuit: Any) -> None:
        self.fingerprint = circuit.fingerprint()
        self.order = int(circuit.params.order)
        self.channel_count = self.order + 1
        budget = circuit.link_budget()
        if not budget.bands_separated:
            raise SimulationError(
                "link budget bands overlap: the circuit cannot distinguish "
                "'0' from '1' at this design point"
            )
        self.table = circuit.model.received_power_table_mw()
        self.receiver = OpticalReceiver.from_power_bands(
            circuit.params.detector,
            zero_level_mw=budget.zero_band_mw[1],
            one_level_mw=budget.one_band_mw[0],
        )
        self._flat: Optional[Dict[str, Any]] = None

    @property
    def level_bits(self) -> int:
        """Bit planes needed for the adder level (values ``0..order``)."""
        return max(1, int(self.order).bit_length())

    def _flat_tables(self) -> Dict[str, Any]:
        """The packed kernel's flat lookup tables (built once, lazily)."""
        flat = self._flat
        if flat is None:
            order, channels = self.order, self.channel_count
            # flat index: key = (level << channels) | pattern.  The
            # (P, levels) table transposed row-major is exactly that
            # enumeration, because P == 2**channels.
            powers = np.ascontiguousarray(self.table.T).reshape(-1)
            currents = np.asarray(
                self.receiver.detector.photocurrent_a(powers), dtype=float
            )
            decisions = (currents > self.receiver.threshold_a).astype(np.uint8)
            levels = np.repeat(
                np.arange(order + 1, dtype=np.int64), 1 << channels
            )
            patterns = np.tile(
                np.arange(1 << channels, dtype=np.int64), order + 1
            )
            ideal = ((patterns >> levels) & 1).astype(np.uint8)
            key_bits = channels + self.level_bits
            key_dtype: Any
            if key_bits <= 8:
                key_dtype = np.uint8
            elif key_bits <= 16:
                key_dtype = np.uint16
            else:
                key_dtype = np.uint32
            flat = {
                "powers": powers,
                "currents": currents,
                "decisions": decisions,
                "ideal": ideal,
                "key_dtype": key_dtype,
                # With separated bands and a midpoint threshold the
                # noiseless decision normally *is* the multiplexer bit;
                # verified numerically here so the word-level statistics
                # fast path never has to assume it.
                "decision_is_ideal": bool(np.array_equal(decisions, ideal)),
                "noise_screen_a": _noise_screen(
                    currents, self.receiver.threshold_a
                ),
            }
            self._flat = flat
        return flat

    @property
    def noise_screen_a(self) -> float:
        """Largest |noise| (A) that provably leaves every decision as is.

        Receiver noise with ``|n| <= noise_screen_a`` decides exactly as
        the noiseless receiver for every key, so only draws past the
        screen need the per-clock threshold test (:func:`screen_noise`).
        """
        return float(self._flat_tables()["noise_screen_a"])


_SCREEN_GUARD = 1e-9
"""Relative shrink of the smallest key margin that yields the noise screen."""


def _noise_screen(
    currents: "np.ndarray[Any, Any]", threshold_a: float
) -> float:
    """The noise screen of a flat current table, exact in float64.

    Let ``m = min_key |theta - I_key|`` and ``s = m (1 - g)`` with the
    guard ``g = 1e-9``.  For any ``|n| <= s`` the float64 decision
    ``I_key + n > theta`` equals the noiseless ``I_key > theta``:

    * ``I_key < theta``: the real sum is at most ``theta - g m <
      theta``; round-to-nearest is monotone and ``theta`` is a float,
      so the rounded sum is ``<= theta`` and the strict test stays 0.
    * ``I_key > theta``: the real sum is at least ``theta + g m``
      (less the ``~2**-53 m`` the float margin and ``s`` may be off by),
      so whenever ``g m`` exceeds half the float spacing at ``theta``
      it rounds above ``theta`` and the test stays 1.
    * ``I_key == theta``: ``m = 0``, the screen is 0 and every non-zero
      draw is evaluated exactly.

    At the paper's BER 1e-6 point (order 2, 1 nm grid) the guard is
    ``g m ~ 4e-14`` A against a float spacing of ``~7e-21`` A at
    ``theta``.  A design whose guard does not dominate the spacing gets
    screen 0: every draw is then decided exactly.
    """
    margin = float(np.min(np.abs(currents - threshold_a)))
    guard = margin * _SCREEN_GUARD
    if guard <= 2.0 * float(np.spacing(threshold_a)):
        return 0.0
    return margin - guard


_CONTEXT_CACHE: "OrderedDict[Tuple[Any, Any], CircuitPassContext]" = (
    OrderedDict()
)
_CONTEXT_CACHE_MAX = 8
_CONTEXT_LOCK = threading.Lock()


def pass_context(circuit: Any) -> CircuitPassContext:
    """The memoized :class:`CircuitPassContext` for *circuit*.

    Keyed on the circuit's concrete type plus ``circuit.fingerprint()``
    (parameters + Bernstein program, the same digest that keys the
    evaluation cache), LRU-bounded and thread-safe — thread-backend
    shard workers and the serving executor hit this cache concurrently.
    The type in the key keeps a subclass that overrides
    ``link_budget()``/``model`` from reusing a base circuit's context;
    both are assumed immutable per instance, as everywhere else in the
    engine.  Failed builds — overlapping link-budget bands — are never
    cached, so the :class:`~repro.errors.SimulationError` is raised on
    every attempt, exactly like the unmemoized path.
    """
    key = (type(circuit), circuit.fingerprint())
    with _CONTEXT_LOCK:
        context = _CONTEXT_CACHE.get(key)
        if context is not None:
            _CONTEXT_CACHE.move_to_end(key)
            return context
    context = CircuitPassContext(circuit)  # built unlocked: may raise
    with _CONTEXT_LOCK:
        existing = _CONTEXT_CACHE.get(key)
        if existing is not None:
            _CONTEXT_CACHE.move_to_end(key)
            return existing
        _CONTEXT_CACHE[key] = context
        while len(_CONTEXT_CACHE) > _CONTEXT_CACHE_MAX:
            _CONTEXT_CACHE.popitem(last=False)
    return context


def clear_pass_context_cache() -> None:
    """Drop every memoized pass context (testing hook)."""
    with _CONTEXT_LOCK:
        _CONTEXT_CACHE.clear()


# -- the numpy reference kernel ------------------------------------------------


def _pattern_index(
    coeff_bits: "np.ndarray[Any, Any]",
) -> "np.ndarray[Any, Any]":
    """Coefficient pattern per clock: ``(B, L)`` int64 from ``(B, C, L)``.

    Bit ``c`` of the result is channel ``c``'s transmitted bit.  The
    accumulation runs in the narrowest unsigned dtype that holds the
    pattern (uint8 up to 8 channels, uint16 up to 16) and widens to
    int64 once at the end — replacing the old per-channel ``(B, L)``
    int64 shift/or temporaries with byte-wide ones, ~4x faster at the
    benchmark shape.  Pure integer bit-ops: exact in any order.
    """
    channel_count = coeff_bits.shape[1]
    dtype: Any
    if channel_count <= 8:
        dtype = np.uint8
    elif channel_count <= 16:
        dtype = np.uint16
    else:
        dtype = np.int64
    pattern = np.zeros(
        (coeff_bits.shape[0], coeff_bits.shape[2]), dtype=dtype
    )
    for channel in range(channel_count):
        plane = coeff_bits[:, channel, :]
        if plane.dtype != dtype:
            plane = plane.astype(dtype)
        pattern |= plane << channel
    return pattern.astype(np.int64)


def optical_pass(
    circuit: Any,
    data_bits: "np.ndarray[Any, Any]",
    coeff_bits: "np.ndarray[Any, Any]",
    noise_a: Optional["np.ndarray[Any, Any]"],
) -> Tuple[
    "np.ndarray[Any, Any]",
    "np.ndarray[Any, Any]",
    "np.ndarray[Any, Any]",
    "np.ndarray[Any, Any]",
]:
    """The reference per-clock optics + receiver pass on byte tensors.

    Steps 3-4 of the pipeline for one ``(B, C, L)`` bit-tensor tile:
    returns ``(powers, output_bits, ideal_bits, levels)``, shared by the
    one-shot batch evaluation and the chunked streaming runtime, and
    reproduced bit for bit by :func:`packed_optical_pass`.
    """
    context = pass_context(circuit)
    levels = data_bits.sum(axis=1, dtype=np.int64)
    pattern_index = _pattern_index(coeff_bits)
    powers = context.table[pattern_index, levels]
    output_bits, _ = context.receiver.decide_batch(powers, noise_a=noise_a)
    # Reference: the bits the ideal (electronic) multiplexer would pick.
    ideal_bits = np.take_along_axis(coeff_bits, levels[:, None, :], axis=1)[
        :, 0, :
    ]
    return powers, output_bits, np.ascontiguousarray(ideal_bits), levels


# -- the packed bit-plane kernel -----------------------------------------------


def _bit_plane_sum(
    words: "np.ndarray[Any, Any]",
) -> List["np.ndarray[Any, Any]"]:
    """Bit-sliced binary sum across the channel axis of packed words.

    ``(B, C, W)`` uint64 in; returns the little-endian bit planes of the
    per-clock ones-count (the adder ``level``) as a list of ``(B, W)``
    word arrays — a ripple adder chain of word-wide half adders.  The
    list may carry trailing all-zero planes (one per channel in the
    worst case); callers truncate to the planes the level range needs.
    """
    planes: List["np.ndarray[Any, Any]"] = []
    for channel in range(words.shape[1]):
        carry = words[:, channel, :]
        for index, plane in enumerate(planes):
            planes[index], carry = plane ^ carry, plane & carry
        planes.append(carry)
    return planes


def _assemble_keys(
    planes: List["np.ndarray[Any, Any]"], length: int, dtype: Any
) -> "np.ndarray[Any, Any]":
    """Per-clock lookup keys from bit planes: ``(B, length)`` of *dtype*.

    Plane ``i`` contributes bit ``i`` of the key.  This is the packed
    kernel's only per-clock byte materialization.
    """
    keys = np.zeros((planes[0].shape[0], int(length)), dtype=dtype)
    for index, plane in enumerate(planes):
        bits = unpack_bits(plane, length)
        keys |= bits.astype(dtype) << dtype(index)
    return keys


def _key_planes(
    context: CircuitPassContext,
    coeff_words: "np.ndarray[Any, Any]",
    level_planes: List["np.ndarray[Any, Any]"],
) -> List["np.ndarray[Any, Any]"]:
    """Bit planes of the flat lookup key: coefficient bits then level."""
    planes = [
        coeff_words[:, channel, :]
        for channel in range(context.channel_count)
    ]
    planes.extend(level_planes)
    return planes


def _level_planes(
    context: CircuitPassContext, data_words: "np.ndarray[Any, Any]"
) -> List["np.ndarray[Any, Any]"]:
    """The adder level's bit planes, truncated to the level range."""
    return _bit_plane_sum(data_words)[: context.level_bits]


def _packed_keys(
    context: CircuitPassContext,
    data_words: "np.ndarray[Any, Any]",
    coeff_words: "np.ndarray[Any, Any]",
    length: int,
) -> "np.ndarray[Any, Any]":
    flat = context._flat_tables()
    planes = _key_planes(
        context, coeff_words, _level_planes(context, data_words)
    )
    return _assemble_keys(planes, length, flat["key_dtype"])


class NoiseCandidates(NamedTuple):
    """Screened receiver noise of one tile (see :func:`screen_noise`).

    The clocks whose draw exceeds the pass context's noise screen, as
    parallel ``(row, clock, noise)`` arrays in row-major clock order;
    every other clock of the tile decides exactly as the noiseless
    receiver.
    """

    rows: "np.ndarray[Any, Any]"
    clocks: "np.ndarray[Any, Any]"
    noise_a: "np.ndarray[Any, Any]"


def screen_noise(
    context: CircuitPassContext, row_draws: Iterable[Any]
) -> NoiseCandidates:
    """Screen a tile's receiver-noise draws down to its candidate clocks.

    *row_draws* yields one row's 1-D draw at a time — the rows of a
    ``(B, L)`` noise array, or a generator drawing each row on demand,
    so a row is screened as soon as it is drawn and no ``(B, L)`` noise
    tile need exist.  A draw is a candidate when ``|n| >
    context.noise_screen_a``; at the paper's BER 1e-6 point that is
    about 2 clocks per million.
    """
    screen = context.noise_screen_a
    rows: List["np.ndarray[Any, Any]"] = []
    clocks: List["np.ndarray[Any, Any]"] = []
    values: List["np.ndarray[Any, Any]"] = []
    for row, draw in enumerate(row_draws):
        # Two reductions settle the common row with no candidate.
        if draw.max() <= screen and draw.min() >= -screen:
            continue
        hits = np.flatnonzero(np.abs(draw) > screen)
        rows.append(np.full(hits.size, row, dtype=np.int64))
        clocks.append(hits)
        values.append(draw[hits])
    if not rows:
        empty = np.zeros(0, dtype=np.int64)
        return NoiseCandidates(empty, empty, np.zeros(0, dtype=float))
    return NoiseCandidates(
        np.concatenate(rows), np.concatenate(clocks), np.concatenate(values)
    )


def _screened_decisions(
    context: CircuitPassContext,
    keys: "np.ndarray[Any, Any]",
    noise_a: "np.ndarray[Any, Any]",
) -> "np.ndarray[Any, Any]":
    """Exact receiver decisions of the screened candidate clocks.

    The single definition of the packed noisy decision rule, shared by
    the full-output pass and the chunked statistics accumulator.  It
    is bit-for-bit the numpy kernel's ``decide_batch`` — the same
    flat-gathered photocurrent plus the same noise draw against the
    same strict ``>`` threshold — evaluated only where
    :func:`screen_noise` found a draw that can cross the threshold.
    """
    flat = context._flat_tables()
    currents = flat["currents"].take(keys) + noise_a
    return (currents > context.receiver.threshold_a).astype(np.uint8)


def _keys_at(
    planes: List["np.ndarray[Any, Any]"],
    rows: "np.ndarray[Any, Any]",
    clocks: "np.ndarray[Any, Any]",
) -> "np.ndarray[Any, Any]":
    """Flat lookup keys of single ``(row, clock)`` positions of key planes."""
    words = clocks >> 6
    shifts = (clocks & 63).astype(np.uint64)
    keys = np.zeros(rows.size, dtype=np.int64)
    for index, plane in enumerate(planes):
        bits = (plane[rows, words] >> shifts) & np.uint64(1)
        keys |= bits.astype(np.int64) << index
    return keys


def packed_optical_pass(
    circuit: Any,
    data_words: "np.ndarray[Any, Any]",
    coeff_words: "np.ndarray[Any, Any]",
    noise_a: Optional["np.ndarray[Any, Any]"],
    length: int,
) -> Tuple[
    "np.ndarray[Any, Any]",
    "np.ndarray[Any, Any]",
    "np.ndarray[Any, Any]",
    "np.ndarray[Any, Any]",
]:
    """The packed kernel's optics + receiver pass, full per-clock output.

    Takes ``(B, C, W)`` packed word tensors (see :func:`pack_bits`) and
    returns the same ``(powers, output_bits, ideal_bits, levels)`` tuple
    as the numpy pass, bit-for-bit: per-clock keys are assembled from
    the coefficient and bit-sliced level planes, and every observable is
    a flat-table gather of exactly the values the numpy kernel computes.
    Under receiver noise the output is the noiseless decision gather,
    patched at the clocks :func:`screen_noise` keeps.
    """
    context = pass_context(circuit)
    flat = context._flat_tables()
    keys = _packed_keys(context, data_words, coeff_words, length)
    powers = flat["powers"].take(keys)
    levels = (keys >> np.uint8(context.channel_count)).astype(np.int64)
    output_bits = flat["decisions"].take(keys)
    if noise_a is not None:
        noise = np.asarray(noise_a, dtype=float)
        if noise.shape != keys.shape:
            raise ConfigurationError(
                f"noise_a shape {noise.shape} must match powers shape "
                f"{keys.shape}"
            )
        rows, clocks, values = screen_noise(context, noise)
        output_bits[rows, clocks] = _screened_decisions(
            context, keys[rows, clocks], values
        )
    ideal_bits = flat["ideal"].take(keys)
    return powers, output_bits, ideal_bits, levels


# -- comparator stream sources -------------------------------------------------


def _check_window(offset: int, count: int) -> None:
    if offset < 0 or count <= 0:
        raise ConfigurationError(
            f"invalid window offset={offset!r} count={count!r}"
        )


_SLICED_STREAM_COST = 4
_SLICED_START_COST = 24
"""Sliced-layout cost per plane word, in units of one tiled cycle bit.

Per distinct ``(start, threshold)`` stream compared, and per distinct
start position whose plane windows are read.  Fitted to a
create-plus-take sweep (LFSR widths 10-20, 16-512 streams, 2-512
starts, 3-512 thresholds, L = 2**8 to 2**18) with numpy 2.4 on a
2-core x86 VM: a tiled cycle bit cost ~0.9 ns, a sliced plane word ~5
ns per stream and ~23 ns per start.
"""


def _comparator_thresholds(
    values: Any, shape: Tuple[int, ...], width: int
) -> "np.ndarray[Any, Any]":
    """Integer comparator thresholds ``t = ceil(v * 2**width)``, clamped.

    A cycle uniform is exactly ``state / 2**width`` — the LFSR's
    ``cycle / 2**width`` and the van der Corput sum of distinct powers
    of two are both exact in float64, as is ``v * 2**width`` — so for an
    integer state ``uniform < v`` holds exactly when ``state < t``.
    ``t`` is clamped to ``[0, 2**width]``: NaN and values ``<= 0`` give
    0 (no clock is below), values ``> 1 - 2**-width`` and ``+inf`` give
    ``2**width`` (every clock is below).
    """
    scale = float(1 << int(width))
    values = np.broadcast_to(np.asarray(values, dtype=float), shape)
    scaled = np.nan_to_num(np.ceil(values * scale), nan=0.0)
    return np.clip(scaled, 0.0, scale).astype(np.int64)


def _tiled_words(
    bits: "np.ndarray[Any, Any]", period: int
) -> "np.ndarray[Any, Any]":
    """Pack ``(..., period)`` cycle bits tiled for unaligned word reads.

    Enough repeats of the period that a 64-bit window starting anywhere
    in ``[0, period)`` is one in-bounds two-word read, with periodic
    continuation automatic (two repeats except periods shorter than 64
    bits).
    """
    repeats = 1 + -(-(_WORD_BITS - 1) // int(period))
    return pack_bits(np.tile(bits, (1,) * (bits.ndim - 1) + (repeats,)))


_CYCLE_PLANES: Dict[Tuple[str, int], "np.ndarray[Any, Any]"] = {}
_CYCLE_PLANES_LOCK = threading.Lock()


def _cycle_planes(
    key: Tuple[str, int], cycle: "np.ndarray[Any, Any]", width: int
) -> "np.ndarray[Any, Any]":
    """The *width* bit planes of a cycle's states, tiled and packed.

    ``(width, words)`` uint64, plane ``i`` holding bit ``i`` of every
    state (:func:`_tiled_words` layout).  Value-independent, so built
    once per randomizer *key*, read-only, under the module lock:
    thread-backend shards and the serving executor share the cache.
    Only the sliced path asks for planes; tiled runs never build them.
    """
    with _CYCLE_PLANES_LOCK:
        planes = _CYCLE_PLANES.get(key)
        if planes is None:
            planes = np.stack(
                [
                    _tiled_words(
                        ((cycle >> bit) & 1).astype(np.uint8), cycle.size
                    )
                    for bit in range(int(width))
                ]
            )
            planes.setflags(write=False)
            _CYCLE_PLANES[key] = planes
    return planes


def _sliced_less(
    windows: "np.ndarray[Any, Any]",
    rows: "np.ndarray[Any, Any]",
    masks: "np.ndarray[Any, Any]",
) -> "np.ndarray[Any, Any]":
    """Packed ``state < t`` per stream: a word-wide MSB-first comparator.

    *windows* is ``(w, U, W)``: the state-plane words of each of ``U``
    distinct start positions, least significant plane first; *rows*
    picks each stream's start; *masks* is ``(w + 1, len(rows), 1)``,
    all-ones where bit ``i`` of the stream's threshold is set (bit
    ``w`` set means ``t == 2**w``, above every state).  A clock is
    below its threshold when, at the highest bit where the two differ,
    the threshold has the 1; ``equal`` tracks the clocks whose higher
    bits all agree so far.
    """
    width = windows.shape[0]
    shape = rows.shape + windows.shape[-1:]
    less = np.broadcast_to(masks[width], shape).copy()
    equal = ~less
    for bit in range(width - 1, -1, -1):
        differ = windows[bit][rows]
        differ ^= masks[bit]
        differ &= equal
        equal ^= differ
        differ &= masks[bit]
        less |= differ
    return less


_Source = TypeVar("_Source", bound="_PackedCycleSource")


class _PackedCycleSource:
    """Shared machinery of the periodic packed comparator sources.

    A periodic randomizer walks a cycle of integer states whose
    comparator uniforms are exactly ``state / 2**width``, so a stream is
    fixed by its start position on the cycle and its integer threshold
    (:func:`_comparator_thresholds`).  :meth:`take` reads stream words
    by bit offset — never materializing the ``(B, C, count)`` float64
    uniforms — from one of two layouts, chosen once per source by a
    cost rule (:meth:`_from_cycle`):

    * **tiled**: the ``period``-bit comparator sequence of each distinct
      threshold, compared and packed at creation.  Creation costs
      ``thresholds * period`` bits, then any window is a word gather:
      the layout for streams that read the cycle many times over.
    * **sliced**: the cycle's ``width`` value-independent bit planes
      (:func:`_cycle_planes`, built once per randomizer).  A take
      gathers the plane windows once per distinct start position and
      evaluates ``state < t`` word-wide (:func:`_sliced_less`) once per
      distinct ``(start, threshold)`` stream — no per-value work: the
      layout for short streams of many distinct values.

    Both layouts yield the same bits.  Subclasses provide the cycle,
    the per-stream start positions and ``_start_shift`` (how many cycle
    steps past the start position the stream's first clock sits).
    """

    _start_shift: int = 0

    def __init__(
        self,
        starts: "np.ndarray[Any, Any]",
        period: int,
        table: "np.ndarray[Any, Any]",
        rows: "np.ndarray[Any, Any]",
        sliced: Optional[
            Tuple["np.ndarray[Any, Any]", "np.ndarray[Any, Any]"]
        ] = None,
    ) -> None:
        # Tiled (sliced None): starts per stream, table one row per
        # threshold, rows each stream's threshold row.  Sliced: starts
        # the distinct start positions, table the state planes, rows
        # each stream's distinct (start, threshold) stream, and sliced
        # those streams' start rows and threshold masks.
        self._starts = starts
        self._period = int(period)
        self._table = table
        self._rows = rows
        self._sliced = sliced

    @classmethod
    def _from_cycle(
        cls: Type[_Source],
        key: Tuple[str, int],
        cycle: "np.ndarray[Any, Any]",
        starts: "np.ndarray[Any, Any]",
        values: Any,
        width: int,
        length: Optional[int],
    ) -> _Source:
        """Build a source over *cycle* in the cheaper layout.

        Slicing costs ``(_SLICED_STREAM_COST * streams +
        _SLICED_START_COST * starts) * ceil(length / 64) * width``,
        tiling ``thresholds * period``.  An unknown *length* (``None``)
        keeps the tiled words, which serve any number of re-reads.
        """
        period = int(cycle.size)
        thresholds = _comparator_thresholds(values, starts.shape, width)
        unique, value_rows = np.unique(thresholds, return_inverse=True)
        distinct, start_rows = np.unique(starts, return_inverse=True)
        levels = (1 << int(width)) + 1
        streams, stream_rows = np.unique(
            start_rows.reshape(starts.shape) * levels + thresholds,
            return_inverse=True,
        )
        if length is not None and (
            _SLICED_STREAM_COST * streams.size
            + _SLICED_START_COST * distinct.size
        ) * _word_count(length) * int(width) < unique.size * period:
            bits = np.arange(int(width) + 1)[:, None, None]
            masks = np.where(
                (streams[:, None] % levels >> bits) & 1,
                _ALL_ONES,
                np.uint64(0),
            )
            return cls(
                distinct,
                period,
                _cycle_planes(key, cycle, width),
                stream_rows.reshape(starts.shape),
                (streams // levels, masks),
            )
        cycle_bits = cycle[None, :] < unique.astype(cycle.dtype)[:, None]
        cycle_bits = cycle_bits.view(np.uint8)
        return cls(
            starts,
            period,
            _tiled_words(cycle_bits, period),
            value_rows.reshape(starts.shape),
        )

    def _read(
        self, rows: "np.ndarray[Any, Any]", positions: "np.ndarray[Any, Any]"
    ) -> "np.ndarray[Any, Any]":
        """64-bit windows of *table* rows at cycle bit *positions*."""
        positions = positions % self._period
        word_index = positions >> 6
        shift = (positions & 63).astype(np.uint64)
        lo = self._table[rows, word_index]
        hi = self._table[rows, word_index + 1]
        high_part = hi << ((np.uint64(_WORD_BITS) - shift) & np.uint64(63))
        return (lo >> shift) | np.where(shift == 0, np.uint64(0), high_part)

    def take(self, offset: int, count: int) -> "np.ndarray[Any, Any]":
        """Packed words for stream clocks ``[offset, offset + count)``."""
        _check_window(offset, count)
        clocks = (
            self._start_shift
            + int(offset)
            + _WORD_BITS * np.arange(_word_count(count), dtype=np.int64)
        )
        starts = self._starts
        if self._sliced is None:
            out = self._read(self._rows[..., None], starts[..., None] + clocks)
        else:
            stream_starts, masks = self._sliced
            planes = np.arange(self._table.shape[0])[:, None, None]
            windows = self._read(planes, starts[None, :, None] + clocks)
            out = _sliced_less(windows, stream_starts, masks)[self._rows]
        tail = count % _WORD_BITS
        if tail:
            out[..., -1] &= np.uint64((1 << tail) - 1)
        return out


class PackedLfsrSource(_PackedCycleSource):
    """Resumable packed comparator source over the cached LFSR cycle.

    A maximal-length LFSR stream is a periodic window of one canonical
    cycle (:class:`_PackedCycleSource`); the stream's first clock is the
    *successor* of the seed state, hence ``_start_shift = 1``.  The
    comparator decisions are exactly those of the floats the unpacked
    path evaluates, so the packed words are bit-exact with
    ``pack_bits(lfsr_uniform_windows(...) < values[..., None])``.

    Build through :meth:`create`, which returns ``None`` when the fast
    path does not apply (register wider than the cycle-table cache, or
    seeds off the canonical orbit) — callers then fall back to
    compare-and-pack.  *length*, the clocks the caller will read,
    selects the sliced or tiled layout; ``None`` keeps the tiled one.
    """

    _start_shift: int = 1

    @classmethod
    def create(
        cls, seeds: Any, values: Any, width: int, length: Optional[int] = None
    ) -> Optional["PackedLfsrSource"]:
        if width > _TABLE_MAX_WIDTH:
            return None
        taps = _resolve_taps(width, None)
        cycle, position, _ = _cycle_tables(width, taps)
        if cycle.size == 0:
            return None
        seeds = np.asarray(seeds, dtype=np.int64)
        if np.any(seeds < 1) or np.any(seeds >= (1 << width)):
            raise ConfigurationError(f"seeds must be in [1, 2**{width} - 1]")
        starts = position[seeds]
        if np.any(starts < 0):
            return None
        return cls._from_cycle(
            ("lfsr", int(width)), cycle, starts, values, width, length
        )


_SOBOL_CYCLE_CACHE: Dict[int, "np.ndarray[Any, Any]"] = {}
_SOBOL_CYCLE_LOCK = threading.Lock()
_SOBOL_CYCLE_MAX_WIDTH = _TABLE_MAX_WIDTH


def _sobol_cycle_states(width: int) -> "np.ndarray[Any, Any]":
    """The full-period van der Corput cycle as integer states, memoized.

    ``van_der_corput(i, width)`` consumes only the low *width* bits of
    ``i`` and equals ``reverse(i mod 2**width) / 2**width`` exactly, so
    the sequence is periodic with period ``2**width`` and its states
    are the bit-reversed counter — the property that makes the Sobol
    comparator stream a :class:`_PackedCycleSource`.  The uint32 table
    is 4 MiB at the width cap and shared process-wide, like the LFSR
    cycle tables.
    """
    with _SOBOL_CYCLE_LOCK:
        states = _SOBOL_CYCLE_CACHE.get(int(width))
        if states is None:
            index = np.arange(1 << int(width), dtype=np.uint32)
            states = np.zeros_like(index)
            for bit in range(int(width)):
                states |= ((index >> bit) & 1) << (int(width) - 1 - bit)
            states.setflags(write=False)
            _SOBOL_CYCLE_CACHE[int(width)] = states
    return states


class PackedSobolSource(_PackedCycleSource):
    """Resumable packed comparator source over the van der Corput cycle.

    The Sobol-like randomizer samples ``van_der_corput(offset + clock,
    width)``, which depends only on ``(offset + clock) mod 2**width`` —
    a periodic cycle of bit-reversed counter states, so the same
    machinery as :class:`PackedLfsrSource` applies with ``starts =
    offsets mod 2**width``.  The packed words are bit-exact with
    ``pack_bits(van_der_corput(offsets[..., None] + arange(L), width) <
    values[..., None])``.

    :meth:`create` returns ``None`` when *width* exceeds the cycle
    cache cap (``2**width``-entry tables stop paying off) — callers
    then fall back to compare-and-pack.  *length* selects the layout as
    for :meth:`PackedLfsrSource.create`.
    """

    @classmethod
    def create(
        cls,
        offsets: Any,
        values: Any,
        width: int,
        length: Optional[int] = None,
    ) -> Optional["PackedSobolSource"]:
        if width > _SOBOL_CYCLE_MAX_WIDTH:
            return None
        offsets = np.asarray(offsets, dtype=np.int64)
        if np.any(offsets < 0):
            raise ConfigurationError("sobol offsets must be >= 0")
        states = _sobol_cycle_states(width)
        return cls._from_cycle(
            ("sobol", int(width)),
            states,
            offsets % states.size,
            values,
            width,
            length,
        )


_PACK_BLOCK = 4096
"""Clocks compared and packed per block by a packed :class:`_ComparatorSource`.

A multiple of 64 so block boundaries align with word boundaries; bounds
the float materialization at ``(B, C, block)`` instead of the full
window.
"""


class _ComparatorSource:
    """Comparator streams from explicit uniforms: ``uniforms < values``.

    The numpy kernel's reference source, and the packed kernel's source
    wherever no cycle applies (chaotic orbits, widths past the cycle
    caps).  The uniforms are the exact floats the scalar SNGs draw.
    Table-cached LFSRs and Sobol streams are index maps, so any offset
    is a cheap re-aim; chaotic orbits and LFSRs too wide for the cycle
    table are iterated state machines whose state is carried forward,
    so they resume only in sequence — re-stepping ``offset`` states per
    window would make long streams quadratic.  Packed output is
    compared and packed in :data:`_PACK_BLOCK`-clock blocks.
    """

    def __init__(
        self,
        kind: str,
        stream_seeds: "np.ndarray[Any, Any]",
        width: int,
        values: Any,
        packed: bool,
    ) -> None:
        self._kind = kind
        # LFSR seeds, Sobol offsets, or the carried chaotic orbit state.
        self._seeds = stream_seeds
        self._width = int(width)
        self._values = np.asarray(values, dtype=float)[..., None]
        self._packed = packed
        self._next_offset = 0
        self._registers: Optional[List[LFSR]] = None
        if kind == "lfsr" and self._width > _TABLE_MAX_WIDTH:
            self._registers = [
                LFSR(self._width, int(seed)) for seed in stream_seeds.flat
            ]
        elif kind == "chaotic":
            self._warmups = np.asarray(
                [chaotic_warmup(c) for c in range(stream_seeds.shape[-1])],
                dtype=np.int64,
            )[None, :]

    def _uniforms(self, offset: int, count: int) -> "np.ndarray[Any, Any]":
        if self._kind == "sobol":
            indices = self._seeds[..., None] + (
                offset + np.arange(count, dtype=np.int64)
            )
            return van_der_corput(indices, self._width)
        if self._kind == "lfsr" and self._registers is None:
            return lfsr_uniform_windows(
                self._seeds, count, self._width, offset=offset
            )
        if offset != self._next_offset:
            raise ConfigurationError(
                "stateful streams resume sequentially: expected offset "
                f"{self._next_offset}, got {offset}"
            )
        self._next_offset = offset + count
        if self._registers is not None:
            # Fallback tile for registers wider than the cycle table;
            # a packed take asks for at most one _PACK_BLOCK at a time.
            out = np.empty(self._seeds.shape + (count,), dtype=float)
            cells = np.ndindex(self._seeds.shape)
            for cell, register in zip(cells, self._registers):
                out[cell] = register.uniform(count)
            return out
        warmups = self._warmups if offset == 0 else 0
        uniforms, self._seeds = chaotic_orbit(
            self._seeds, warmups, count, return_state=True
        )
        return uniforms

    def _bits(self, offset: int, count: int) -> "np.ndarray[Any, Any]":
        return (self._uniforms(offset, count) < self._values).astype(np.uint8)

    def take(self, offset: int, count: int) -> "np.ndarray[Any, Any]":
        """Bits (or packed words) for clocks ``[offset, offset + count)``."""
        _check_window(offset, count)
        if not self._packed:
            return self._bits(offset, count)
        out = np.empty(
            self._seeds.shape + (_word_count(count),), dtype=np.uint64
        )
        for done in range(0, count, _PACK_BLOCK):
            block = min(_PACK_BLOCK, count - done)
            word = done // _WORD_BITS
            out[..., word : word + _word_count(block)] = pack_bits(
                self._bits(offset + done, block)
            )
        return out


class _CounterSource:
    """The counter randomizer: deterministic evenly-spread streams.

    Every stream of one value is the same, so one window per value is
    generated (:func:`exact_bit_window` — any offset, no state) and
    broadcast across the bank as a read-only view.
    """

    def __init__(
        self, values: Any, shape: Tuple[int, int], length: int, packed: bool
    ) -> None:
        self._values = np.asarray(values, dtype=float)
        self._shape = shape
        self._length = int(length)
        self._packed = packed

    def take(self, offset: int, count: int) -> "np.ndarray[Any, Any]":
        """Bits (or packed words) for clocks ``[offset, offset + count)``."""
        bits = exact_bit_window(
            self._values.reshape(-1), self._length, offset, offset + count
        ).reshape(self._values.shape + (count,))
        out = pack_bits(bits) if self._packed else bits
        return np.broadcast_to(out, self._shape + out.shape[-1:])


def stream_source(
    kind: str,
    base_seeds: Any,
    channel_count: int,
    width: int,
    values: Any,
    length: int,
    packed: bool,
) -> Any:
    """The resumable comparator stream source of one randomizer bank.

    One bank is ``channel_count`` SNG channels per evaluation row: row
    ``b``, channel ``c`` is the stream the scalar path's
    ``make_independent_sngs(channel_count, kind,
    base_seed=base_seeds[b])[c]`` emits for ``values[b, c]`` (*values*
    broadcasts to ``(B, channel_count)``) over a *length*-clock
    evaluation.  ``take(offset, count)`` returns clocks ``[offset,
    offset + count)``: ``(B, C, count)`` uint8 bits, or with *packed*
    ``(B, C, ceil(count / 64))`` uint64 words, bit-for-bit
    ``pack_bits`` of the bits.  The one-shot engine takes ``(0,
    length)`` once; the chunked runtime takes consecutive tiles, which
    stitch to the same stream.

    Packed LFSR and Sobol banks read words off their cached cycles
    (:class:`PackedLfsrSource`, :class:`PackedSobolSource`); counter
    banks window the deterministic matrix; every other case compares
    explicit uniforms (:class:`_ComparatorSource`).
    """
    seeds = np.atleast_1d(np.asarray(base_seeds, dtype=np.int64))
    if kind == "counter":
        return _CounterSource(
            values, (seeds.size, int(channel_count)), length, packed
        )
    source: Optional[_PackedCycleSource] = None
    if kind == "lfsr":
        stream_seeds = derive_lfsr_seeds(seeds, channel_count, width)
        if packed:
            source = PackedLfsrSource.create(
                stream_seeds, values, width, length
            )
    elif kind == "sobol":
        stream_seeds = derive_sobol_offsets(seeds, channel_count)
        if packed:
            source = PackedSobolSource.create(
                stream_seeds, values, width, length
            )
    elif kind == "chaotic":
        stream_seeds = derive_chaotic_intensities(seeds, channel_count)
    else:
        raise ConfigurationError(f"unknown SNG kind {kind!r}")
    if source is not None:
        return source
    return _ComparatorSource(kind, stream_seeds, width, values, packed)


# -- packed statistics (chunked streaming) -------------------------------------


def _mux_words(
    coeff_words: "np.ndarray[Any, Any]",
    level_planes: List["np.ndarray[Any, Any]"],
    order: int,
) -> "np.ndarray[Any, Any]":
    """Word-level multiplexer: the selected coefficient bit per clock.

    ``out = OR_m (level == m) & coeff[m]`` with the level-match
    indicator built from the bit-sliced level planes — pure word ops, no
    per-clock bytes.  Tail bits stay zero because the packed coefficient
    words have zero tails.
    """
    out = np.zeros(level_planes[0].shape, dtype=np.uint64)
    for level in range(order + 1):
        indicator = np.full(level_planes[0].shape, _ALL_ONES, dtype=np.uint64)
        for plane_index, plane in enumerate(level_planes):
            if (level >> plane_index) & 1:
                indicator &= plane
            else:
                indicator &= ~plane
        out |= indicator & coeff_words[:, level, :]
    return out


def _histogram_from_key_counts(
    flat_powers: "np.ndarray[Any, Any]",
    key_counts: "np.ndarray[Any, Any]",
    edges: "np.ndarray[Any, Any]",
) -> "np.ndarray[Any, Any]":
    """Received-power histogram from per-key totals, exactly.

    ``np.histogram`` bins each power value identically wherever it
    appears, so the histogram of all per-clock powers equals the
    histogram of the distinct flat-table values weighted by their
    occurrence counts — integer weights, exact sums.
    """
    counts, _ = np.histogram(flat_powers, bins=edges, weights=key_counts)
    return counts.astype(np.int64)


def packed_tile_statistics(
    circuit: Any,
    data_words: "np.ndarray[Any, Any]",
    coeff_words: "np.ndarray[Any, Any]",
    length: int,
    noise: Optional[NoiseCandidates] = None,
    histogram_edges: Optional["np.ndarray[Any, Any]"] = None,
    fault_channel: Optional[Any] = None,
    clock_offset: int = 0,
) -> Tuple[
    "np.ndarray[Any, Any]",
    "np.ndarray[Any, Any]",
    Optional["np.ndarray[Any, Any]"],
]:
    """Accumulator increments for one packed tile: ``(ones, errors, hist)``.

    The chunked streaming runtime's packed hot path: per-row ones and
    link bit-error counts (and the optional received-power histogram)
    straight from packed words, bit-exact with running the numpy pass on
    the unpacked tile and summing.

    * The noiseless output stream is built as words.  With the
      (verified) separated-band property that the threshold decision
      equals the multiplexer bit, it is a word-level mux of the
      coefficient words by the bit-sliced level, and no per-clock byte
      array exists at all (keys are only assembled when the histogram
      is requested).  An exotic detector whose decisions diverge from
      the mux packs the flat-table decisions of per-clock keys instead.
    * Receiver *noise* arrives screened (:func:`screen_noise`): only
      the candidate clocks whose draw can cross the threshold.  Their
      keys are read off the coefficient and level planes, the exact
      decision rule (:func:`_screened_decisions`) settles them, and the
      ones that differ from the noiseless decision are XOR'd into the
      output words — every other clock decides exactly as noiseless.

    Ones are popcounts of the output words and errors popcounts of
    output XOR ideal, so with the mux property the errors are exactly
    the noise flips.  With *fault_channel* (a
    :class:`~repro.simulation.faultmodel.PackedFaultChannel`) the
    output words are transformed before counting — *clock_offset* is
    the tile's absolute stream clock, so trajectory faults and the
    desynchronization carry resume exactly across tiles.  The power
    histogram bins the *optical* powers, which receiver noise and
    receiver-side channel faults do not touch.
    """
    context = pass_context(circuit)
    flat = context._flat_tables()
    level_planes = _level_planes(context, data_words)
    planes = _key_planes(context, coeff_words, level_planes)
    keys: Optional["np.ndarray[Any, Any]"] = None
    if flat["decision_is_ideal"]:
        out_words = _mux_words(coeff_words, level_planes, context.order)
        ideal_words = out_words
    else:
        keys = _assemble_keys(planes, length, flat["key_dtype"])
        out_words = pack_bits(flat["decisions"].take(keys))
        ideal_words = pack_bits(flat["ideal"].take(keys))
    if noise is not None and noise.rows.size:
        candidate_keys = _keys_at(planes, noise.rows, noise.clocks)
        flipped = np.flatnonzero(
            _screened_decisions(context, candidate_keys, noise.noise_a)
            != flat["decisions"].take(candidate_keys)
        )
        if flipped.size:
            clocks = noise.clocks[flipped]
            out_words = out_words.copy()
            np.bitwise_xor.at(
                out_words,
                (noise.rows[flipped], clocks >> 6),
                np.uint64(1) << (clocks & 63).astype(np.uint64),
            )
    if fault_channel is not None:
        out_words = fault_channel.apply_words(out_words, clock_offset, length)
    ones = popcount(out_words).sum(axis=-1)
    errors = popcount(out_words ^ ideal_words).sum(axis=-1)
    histogram: Optional["np.ndarray[Any, Any]"] = None
    if histogram_edges is not None:
        if keys is None:
            keys = _assemble_keys(planes, length, flat["key_dtype"])
        key_counts = np.bincount(
            keys.reshape(-1).astype(np.int64),
            minlength=flat["powers"].size,
        )
        histogram = _histogram_from_key_counts(
            flat["powers"], key_counts, histogram_edges
        )
    return ones, errors, histogram

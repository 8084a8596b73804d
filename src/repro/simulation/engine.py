"""Batched vectorized evaluation engine: many inputs, one array pass.

The bit-level functional simulation of Fig. 3 is embarrassingly batchable:
every stage — randomizer sampling, the optical adder, the Eq. 6 pattern
table, the threshold receiver — is expressible as array operations over a
``(batch, length)`` bit tensor.  :func:`simulate_batch` evaluates a whole
vector of inputs in one such pass:

1. per evaluation row, decorrelated SNG seeds are derived from the
   caller's ``rng`` (or a fixed ``base_seed``);
2. data and coefficient streams are one ``take(0, length)`` window of
   the resumable per-bank stream sources
   (:func:`repro.simulation.kernels.stream_source`) the chunked runtime
   tiles — so one-shot and chunked streams agree by construction;
3. the per-clock received power is a single ``(B, L)`` fancy-index into
   the precomputed Eq. 6 pattern table;
4. the receiver slices the whole batch at once.

The scalar entry points (:func:`repro.simulation.functional.simulate_evaluation`
and ``simulate_sweep``) are thin wrappers over this engine, and the two
paths are **bit-for-bit identical** for a fixed seed sequence: looping
``simulate_evaluation`` over ``xs`` with one ``rng`` consumes the
generator exactly like one ``simulate_batch(circuit, xs, rng=rng)`` call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Optional, Tuple

import numpy as np

from ..errors import ConfigurationError

if TYPE_CHECKING:
    from ..core.circuit import OpticalStochasticCircuit
from ..stochastic.sng import SNG_KINDS
from .faultmodel import (
    FaultSpec,
    PackedFaultChannel,
    pin_stuck,
    validate_fault,
)
from .kernels import (
    optical_pass,
    packed_optical_pass,
    resolve_kernel,
    stream_source,
)

__all__ = [
    "BatchEvaluation",
    "SeedSchedule",
    "derive_seed_schedule",
    "simulate_batch",
    "COEFF_SEED_STRIDE",
]

COEFF_SEED_STRIDE = 0x9E3779B9
"""Offset separating the coefficient-stream seed space from the data one."""

_DEFAULT_FIXED_SEED = 0x5EED
_NOISE_SEED_SPACE = 1 << 62
_FALLBACK_RNG_SEED = 0xD47E
"""Seed of the derivation rng when the caller passes neither rng nor seeds."""


@dataclass(frozen=True)
class BatchEvaluation:
    """Outcome of one vectorized batch of bit-level evaluations.

    All per-evaluation arrays are stacked along axis 0 (one row per
    input); per-clock arrays have shape ``(batch, stream_length)``.
    """

    xs: "np.ndarray[Any, Any]"
    values: "np.ndarray[Any, Any]"
    expected: "np.ndarray[Any, Any]"
    stream_length: int
    received_power_mw: "np.ndarray[Any, Any]"
    output_bits: "np.ndarray[Any, Any]"
    ideal_bits: "np.ndarray[Any, Any]"
    select_levels: "np.ndarray[Any, Any]"

    @property
    def batch_size(self) -> int:
        """Number of evaluations in the batch."""
        return int(self.xs.size)

    @property
    def absolute_errors(self) -> "np.ndarray[Any, Any]":
        """Per-row ``|value - expected|``."""
        return np.abs(self.values - self.expected)

    @property
    def transmission_bit_errors(self) -> "np.ndarray[Any, Any]":
        """Per-row count of bits flipped by the link + receiver noise."""
        return np.sum(self.output_bits != self.ideal_bits, axis=1)

    @property
    def transmission_ber(self) -> "np.ndarray[Any, Any]":
        """Per-row observed link bit-error rate."""
        return self.transmission_bit_errors / self.stream_length

    @property
    def mean_absolute_error(self) -> float:
        """Batch-mean ``|value - expected|`` (the accuracy-sweep metric)."""
        return float(np.mean(self.absolute_errors))


def _derive_base_seeds(rng: np.random.Generator) -> Tuple[int, int]:
    """One (data, coefficient) base-seed pair, two draws from *rng*."""
    data = int(rng.integers(1, 1 << 31))
    coeff = int(rng.integers(1, 1 << 31))
    return data, coeff


@dataclass(frozen=True)
class SeedSchedule:
    """Explicit per-row seed material for one batch of evaluations.

    Every row of a batch is fully determined by its
    ``(data_seed, coeff_seed, noise_seed)`` triple (plus the input and
    the circuit), so a schedule makes the evaluation *relocatable*: the
    scaling runtime (:mod:`repro.simulation.runtime`) pre-derives one
    schedule from the caller's rng, then evaluates any row subset on any
    worker — or any chunk of the stream — and still reassembles results
    bit-for-bit identical to the serial one-shot call.

    ``noise_seeds[b]`` seeds a **fresh, private** generator for row
    ``b``'s receiver noise (``default_rng(noise_seeds[b])``), which is
    what lets chunked evaluation draw the same noise stream in tiles:
    numpy Generators produce identical normals whether drawn in one call
    or split across consecutive calls.
    """

    data_seeds: "np.ndarray[Any, Any]"
    coeff_seeds: "np.ndarray[Any, Any]"
    noise_seeds: "np.ndarray[Any, Any]"

    def __post_init__(self) -> None:
        for name in ("data_seeds", "coeff_seeds", "noise_seeds"):
            array = np.atleast_1d(np.asarray(getattr(self, name), dtype=np.int64))
            object.__setattr__(self, name, array)
        if not (
            self.data_seeds.shape
            == self.coeff_seeds.shape
            == self.noise_seeds.shape
        ) or self.data_seeds.ndim != 1:
            raise ConfigurationError(
                "schedule seed arrays must be 1-D and equally sized"
            )

    @property
    def batch_size(self) -> int:
        """Number of rows this schedule covers."""
        return int(self.data_seeds.size)

    def shard(self, start: int, stop: int) -> "SeedSchedule":
        """The sub-schedule for rows ``[start, stop)``."""
        if not 0 <= start < stop <= self.batch_size:
            raise ConfigurationError(
                f"invalid shard [{start}, {stop}) for batch of {self.batch_size}"
            )
        return SeedSchedule(
            data_seeds=self.data_seeds[start:stop],
            coeff_seeds=self.coeff_seeds[start:stop],
            noise_seeds=self.noise_seeds[start:stop],
        )

    def row_noise_rng(self, row: int) -> np.random.Generator:
        """The private receiver-noise generator of one row."""
        return np.random.default_rng(int(self.noise_seeds[row]))


def derive_seed_schedule(
    batch: int,
    rng: Optional[np.random.Generator] = None,
    sng_kind: str = "lfsr",
    base_seed: Optional[int] = None,
) -> SeedSchedule:
    """Pre-draw the per-row seed triples for a *batch*-row evaluation.

    With ``base_seed`` given the schedule is **fully deterministic**
    (``rng`` is ignored): every row reuses the fixed SNG seed pair, and
    the noise seeds are derived from ``base_seed`` alone — this is what
    makes noisy runs cacheable.  Otherwise the per-row protocol consumes
    *rng* as ``(data seed, coeff seed, noise seed)`` per row.
    """
    if batch <= 0:
        raise ConfigurationError(f"batch must be positive, got {batch!r}")
    if sng_kind not in SNG_KINDS:
        raise ConfigurationError(
            f"unknown SNG kind {sng_kind!r}; expected one of {SNG_KINDS}"
        )
    _validate_base_seed(base_seed)
    seeded = sng_kind != "counter"
    data_seeds = np.empty(batch, dtype=np.int64)
    coeff_seeds = np.empty(batch, dtype=np.int64)
    noise_seeds = np.empty(batch, dtype=np.int64)
    if base_seed is not None:
        fixed = int(base_seed)
        data_seeds[:] = fixed
        coeff_seeds[:] = fixed + COEFF_SEED_STRIDE
        noise_seeds[:] = np.random.default_rng(
            [fixed, _DEFAULT_FIXED_SEED]
        ).integers(0, _NOISE_SEED_SPACE, batch)
        return SeedSchedule(data_seeds, coeff_seeds, noise_seeds)
    rng = rng or np.random.default_rng(_FALLBACK_RNG_SEED)
    for row in range(batch):
        if seeded:
            data_seeds[row], coeff_seeds[row] = _derive_base_seeds(rng)
        else:
            data_seeds[row] = _DEFAULT_FIXED_SEED
            coeff_seeds[row] = _DEFAULT_FIXED_SEED + COEFF_SEED_STRIDE
        noise_seeds[row] = int(rng.integers(0, _NOISE_SEED_SPACE))
    return SeedSchedule(data_seeds, coeff_seeds, noise_seeds)


def _validate_base_seed(base_seed: Optional[int]) -> None:
    """Reject the negative seeds the scalar factory path refuses.

    A negative ``base_seed`` used to wrap silently through the uint64
    cast in :func:`van_der_corput` (sobol) and the modulus in
    :func:`derive_lfsr_seeds`, while ``make_independent_sngs`` raised on
    the derived negative ``bit_offset`` — the batched and scalar paths
    must fail identically instead.
    """
    if base_seed is not None and int(base_seed) < 0:
        raise ConfigurationError(
            f"base_seed must be >= 0, got {base_seed!r}"
        )


def _validate_sng_width(sng_kind: str, sng_width: int) -> None:
    """Per-kind width validation matching the scalar constructors.

    The sobol batched path feeds ``sng_width`` straight into
    :func:`van_der_corput`, which accepts any bit count — while the
    scalar :class:`repro.stochastic.sng.SobolLikeSNG` enforces
    ``bits in [1, 30]``.  ``sng_width=32`` would silently produce wrong
    samples batched but raise scalar; validate here so both paths raise
    the same :class:`ConfigurationError`.  (The lfsr path already fails
    identically through the shared tap-table validation; counter and
    chaotic randomizers ignore the width.)
    """
    if sng_kind == "sobol" and not 1 <= int(sng_width) <= 30:
        raise ConfigurationError(
            f"sng_width must be in [1, 30] for the sobol randomizer, "
            f"got {sng_width!r}"
        )


def simulate_batch(
    circuit: "OpticalStochasticCircuit",
    xs: Any,
    length: int = 1024,
    rng: Optional[np.random.Generator] = None,
    noisy: bool = True,
    sng_kind: str = "lfsr",
    base_seed: Optional[int] = None,
    sng_width: int = 16,
    schedule: Optional[SeedSchedule] = None,
    kernel: str = "numpy",
    fault: Optional[FaultSpec] = None,
) -> BatchEvaluation:
    """Run the optical circuit on every input in *xs* in one array pass.

    Parameters
    ----------
    circuit:
        An :class:`repro.core.circuit.OpticalStochasticCircuit`.
    xs:
        Input values in ``[0, 1]``; one evaluation row each.
    length:
        Stream length (clock count) per evaluation.
    rng:
        Random generator for the per-row SNG seeds and the receiver
        noise (a default seeded generator is created when omitted).
    noisy:
        When False the receiver slices noiselessly — isolating the
        stochastic-computing error from the transmission error.
    sng_kind:
        Randomizer family: ``"lfsr"`` (default), ``"counter"``,
        ``"sobol"`` or ``"chaotic"``.
    base_seed:
        Fix the SNG seed space instead of deriving per-row seeds from
        *rng* — every row then reuses the same randomizer streams
        (the pre-engine behaviour, useful for exact reproducibility).
    sng_width:
        LFSR register width / comparator resolution in bits.
    schedule:
        Explicit per-row :class:`SeedSchedule` (from
        :func:`derive_seed_schedule`).  When given, *rng* and
        *base_seed* are ignored: SNG seeds come from the schedule and
        each row's receiver noise from its private seeded generator —
        the relocatable protocol the sharded/chunked runtime relies on.
    kernel:
        Compute kernel (:data:`repro.simulation.kernels.KERNELS`):
        ``"numpy"`` (reference, default) or ``"packed"`` (dependency-free
        uint64 bit-plane engine).  A pure wall-clock/memory lever: both
        kernels return bit-for-bit identical results.
    fault:
        Optional :class:`~repro.simulation.faultmodel.FaultSpec` fault
        scenario.  A stuck MZI pins its data channel before the optical
        pass; channel faults (decay erasure, flips/drift, the
        desynchronization shift) transform the observed output stream —
        seeded from the schedule's per-row ``noise_seeds`` so the
        realization is bit-exact across kernels, workers, chunk sizes
        and pool backends.  Stochastic fault components therefore need a
        *schedule* or a fixed *base_seed*.
    """
    kernel = resolve_kernel(kernel)
    xs = _validate_batch_inputs(
        circuit, xs, length, sng_kind, base_seed, sng_width
    )
    params = circuit.params
    order = params.order
    channel_count = order + 1
    batch = xs.size
    coefficients = np.asarray(circuit.polynomial.coefficients, dtype=float)
    noise_sigma = params.detector.noise_current_a
    validate_fault(fault, order)

    noise_a: Optional["np.ndarray[Any, Any]"] = (
        np.empty((batch, length), dtype=float) if noisy else None
    )
    if schedule is not None:
        if schedule.batch_size != batch:
            raise ConfigurationError(
                f"schedule covers {schedule.batch_size} rows but xs has "
                f"{batch}"
            )
        data_seeds = schedule.data_seeds
        coeff_seeds = schedule.coeff_seeds
        if noisy:
            assert noise_a is not None
            for row in range(batch):
                noise_a[row] = schedule.row_noise_rng(row).normal(
                    0.0, noise_sigma, length
                )
    else:
        # Per-row rng protocol, interleaved exactly like a scalar loop
        # would consume the generator: (data seed, coefficient seed,
        # noise block) per evaluation.  Keeping this order is what makes
        # the batched and per-evaluation paths bit-for-bit identical
        # under a shared rng.
        rng = rng or np.random.default_rng(_FALLBACK_RNG_SEED)
        seeded = sng_kind != "counter"
        data_seeds = np.empty(batch, dtype=np.int64)
        coeff_seeds = np.empty(batch, dtype=np.int64)
        for row in range(batch):
            if base_seed is None and seeded:
                data_seeds[row], coeff_seeds[row] = _derive_base_seeds(rng)
            if noisy:
                assert noise_a is not None
                noise_a[row] = rng.normal(0.0, noise_sigma, length)
        if base_seed is not None or not seeded:
            fixed = (
                int(base_seed) if base_seed is not None else _DEFAULT_FIXED_SEED
            )
            data_seeds[:] = fixed
            coeff_seeds[:] = fixed + COEFF_SEED_STRIDE

    # 1-2. randomizers: data streams for the MZIs, coefficient streams
    # for the MRRs — one window of the same resumable sources the
    # chunked runtime tiles.
    packed = kernel == "packed"
    data_source = stream_source(
        sng_kind, data_seeds, order, sng_width, xs[:, None], length, packed
    )
    coeff_source = stream_source(
        sng_kind,
        coeff_seeds,
        channel_count,
        sng_width,
        coefficients[None, :],
        length,
        packed,
    )
    data_streams = pin_stuck(data_source.take(0, length), fault, length)
    coeff_streams = coeff_source.take(0, length)

    # 3-4. per-clock optics + receiver.
    if packed:
        powers, output_bits, ideal_bits, levels = packed_optical_pass(
            circuit, data_streams, coeff_streams, noise_a, length
        )
    else:
        powers, output_bits, ideal_bits, levels = optical_pass(
            circuit, data_streams, coeff_streams, noise_a
        )

    if fault is not None and fault.has_stream_faults:
        if schedule is not None:
            fault_seeds = schedule.noise_seeds
        elif not fault.needs_seeds:
            # Stuck/shift faults are deterministic; any seed column works.
            fault_seeds = np.zeros(batch, dtype=np.int64)
        elif base_seed is not None:
            # The deterministic schedule of this base_seed — exactly the
            # seeds run_batch would thread through, so the bare call and
            # the runtime agree on the realization.
            fault_seeds = derive_seed_schedule(
                batch, sng_kind=sng_kind, base_seed=base_seed
            ).noise_seeds
        else:
            raise ConfigurationError(
                "stochastic fault injection needs relocatable per-row "
                "seeds: pass a SeedSchedule or a fixed base_seed "
                "(run_batch and the Evaluator session derive one "
                "automatically)"
            )
        channel = PackedFaultChannel(fault, fault_seeds, length)
        output_bits = channel.apply_bits(output_bits, 0)

    values = output_bits.mean(axis=1)
    # Vectorized de Casteljau is elementwise: identical floats to calling
    # circuit.expected_value(x) per row.
    expected = np.asarray(circuit.polynomial(xs), dtype=float)
    return BatchEvaluation(
        xs=xs,
        values=values,
        expected=expected,
        stream_length=int(length),
        received_power_mw=powers,
        output_bits=output_bits,
        ideal_bits=ideal_bits,
        select_levels=levels,
    )


def _validate_batch_inputs(
    circuit: Any,
    xs: Any,
    length: int,
    sng_kind: str,
    base_seed: Optional[int],
    sng_width: int,
) -> "np.ndarray[Any, Any]":
    """Shared entry validation of the one-shot and runtime batch paths."""
    from ..core.circuit import OpticalStochasticCircuit

    if not isinstance(circuit, OpticalStochasticCircuit):
        raise ConfigurationError(
            "circuit must be an OpticalStochasticCircuit"
        )
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    if xs.ndim != 1 or xs.size == 0:
        raise ConfigurationError("xs must be a non-empty 1-D array")
    if not np.all((xs >= 0.0) & (xs <= 1.0)):  # also rejects NaN
        raise ConfigurationError("x must be in [0, 1]")
    if length <= 0:
        raise ConfigurationError(f"length must be positive, got {length!r}")
    if sng_kind not in SNG_KINDS:
        raise ConfigurationError(
            f"unknown SNG kind {sng_kind!r}; expected one of {SNG_KINDS}"
        )
    _validate_base_seed(base_seed)
    _validate_sng_width(sng_kind, sng_width)
    return xs

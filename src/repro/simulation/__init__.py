"""Bit-level and time-domain simulation of the optical SC circuit.

While :mod:`repro.core` evaluates the paper's *analytical* models, this
subpackage runs the circuit: stochastic bit-streams drive the MZI and MRR
states clock by clock, the transmission model produces received powers,
and a noisy receiver recovers the output stream — closing the loop from
Bernstein program to de-randomized probability (paper Fig. 3).

It also implements the paper's future-work items: transient (time-domain)
simulation with pump-pulse synchronization (Section VI item ii) and the
monitoring/calibration feedback controller (item i), plus fault-injection
utilities for the robustness studies.
"""

from .receiver import OpticalReceiver, ReceiverDecision
from .kernels import (
    KERNELS,
    kernel_capabilities,
    pack_bits,
    popcount,
    resolve_kernel,
    unpack_bits,
)
from .engine import (
    BatchEvaluation,
    SeedSchedule,
    derive_seed_schedule,
    simulate_batch,
)
from .functional import OpticalEvaluation, simulate_evaluation, simulate_sweep
from .runtime import (
    ChunkedEvaluation,
    EvaluationCache,
    RuntimeConfig,
    default_evaluation_cache,
    default_worker_count,
    parallel_map,
    resolve_vectorized,
    run_batch,
    simulate_batch_sharded,
    simulate_chunked,
)
from .transport import SharedArena
from .noise import apply_ber_flips, effective_probability_after_flips
from .faults import (
    FaultInjector,
    with_coefficient_ring_drift,
    with_filter_drift,
    with_stuck_mzi,
)
from .faultmodel import FAULT_PROBABILITY_BITS, FaultSpec, PackedFaultChannel
from .transient import TransientResult, TransientSimulator
from .controller import CalibrationController, ControllerTrace
from .montecarlo import (
    MonteCarloResult,
    VariationModel,
    fault_frontier,
    run_monte_carlo,
    yield_vs_sigma,
)

__all__ = [
    "OpticalReceiver",
    "ReceiverDecision",
    "KERNELS",
    "kernel_capabilities",
    "pack_bits",
    "popcount",
    "resolve_kernel",
    "unpack_bits",
    "OpticalEvaluation",
    "BatchEvaluation",
    "SeedSchedule",
    "derive_seed_schedule",
    "simulate_batch",
    "simulate_evaluation",
    "simulate_sweep",
    "ChunkedEvaluation",
    "EvaluationCache",
    "RuntimeConfig",
    "SharedArena",
    "default_evaluation_cache",
    "default_worker_count",
    "parallel_map",
    "resolve_vectorized",
    "run_batch",
    "simulate_batch_sharded",
    "simulate_chunked",
    "apply_ber_flips",
    "effective_probability_after_flips",
    "FaultInjector",
    "with_stuck_mzi",
    "with_filter_drift",
    "with_coefficient_ring_drift",
    "FAULT_PROBABILITY_BITS",
    "FaultSpec",
    "PackedFaultChannel",
    "fault_frontier",
    "TransientSimulator",
    "TransientResult",
    "CalibrationController",
    "ControllerTrace",
    "VariationModel",
    "MonteCarloResult",
    "run_monte_carlo",
    "yield_vs_sigma",
]

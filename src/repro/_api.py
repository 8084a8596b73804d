"""Aggregated public API re-exported lazily by ``repro.__getattr__``.

Everything a downstream user needs for the common workflows:

>>> import repro
>>> design = repro.mrr_first_design(order=2, wl_spacing_nm=1.0)
>>> circuit = repro.OpticalStochasticCircuit.from_design(
...     design, repro.BernsteinPolynomial([0.25, 0.625, 0.375]))
>>> evaluator = repro.Evaluator(circuit, repro.EvalSpec(length=4096))
>>> batch = evaluator.evaluate([0.25, 0.5, 0.75])
"""

from .core.circuit import OpticalStochasticCircuit
from .core.design import CircuitDesign, mrr_first_design, mzi_first_design
from .core.energy import (
    EnergyBreakdown,
    energy_breakdown,
    energy_vs_spacing,
    optimal_wl_spacing_nm,
)
from .core.link_budget import LinkBudget, batch_eye_bands, received_power_table
from .core.params import OpticalSCParameters, paper_section5a_parameters
from .core.reconfigurable import ReconfigurableCircuit
from .core.snr import (
    ber_for_snr,
    circuit_ber,
    circuit_snr,
    minimum_probe_power_mw,
    probe_power_for_eyes_mw,
    required_snr_for_ber,
    worst_case_eye,
)
from .core.transmission import StackedTransmissionModel, TransmissionModel
from .core.vectorized import (
    energy_vs_spacing_batch,
    monte_carlo_eye_batch,
    mrr_first_design_batch,
    mrr_first_sizing_batch,
    worst_case_eye_batch,
)
from .exploration import (
    gamma_correction_case_study,
    grid_sweep,
    measured_accuracy_frontier,
    order_scaling_table,
    pareto_front,
    throughput_accuracy_frontier,
)
from .experiments import list_experiments, run_experiment
from .experiments.registry import experiment_config_parameters
from .photonics import (
    CWLaser,
    MZIModulator,
    Photodetector,
    PulsedLaser,
    RingParameters,
    WDMGrid,
)
from .photonics import devices
from .simulation import (
    KERNELS,
    BatchEvaluation,
    CalibrationController,
    ChunkedEvaluation,
    EvaluationCache,
    FaultInjector,
    FaultSpec,
    OpticalReceiver,
    RuntimeConfig,
    SeedSchedule,
    TransientSimulator,
    derive_seed_schedule,
    fault_frontier,
    kernel_capabilities,
    run_batch,
    simulate_batch,
    simulate_batch_sharded,
    simulate_chunked,
    simulate_evaluation,
    simulate_sweep,
)
from .serving import (
    BatchServer,
    CircuitBreaker,
    DegradationController,
    DegradationLadder,
    HistogramSnapshot,
    ManualClock,
    MetricsSnapshot,
    MonotonicClock,
    RetryPolicy,
    RungMetrics,
    ServingStats,
)
from .session import EvalSpec, Evaluator
from .stochastic import (
    BernsteinPolynomial,
    Bitstream,
    ComparatorSNG,
    PowerPolynomial,
    ReSCUnit,
)
from .stochastic.functions import bernstein_program, gamma_bernstein

__all__ = [
    "OpticalStochasticCircuit",
    "CircuitDesign",
    "mrr_first_design",
    "mzi_first_design",
    "EnergyBreakdown",
    "energy_breakdown",
    "energy_vs_spacing",
    "optimal_wl_spacing_nm",
    "LinkBudget",
    "received_power_table",
    "OpticalSCParameters",
    "paper_section5a_parameters",
    "ReconfigurableCircuit",
    "ber_for_snr",
    "required_snr_for_ber",
    "circuit_snr",
    "circuit_ber",
    "minimum_probe_power_mw",
    "worst_case_eye",
    "TransmissionModel",
    "StackedTransmissionModel",
    "batch_eye_bands",
    "probe_power_for_eyes_mw",
    "worst_case_eye_batch",
    "monte_carlo_eye_batch",
    "mrr_first_sizing_batch",
    "mrr_first_design_batch",
    "energy_vs_spacing_batch",
    "grid_sweep",
    "pareto_front",
    "order_scaling_table",
    "gamma_correction_case_study",
    "measured_accuracy_frontier",
    "throughput_accuracy_frontier",
    "list_experiments",
    "run_experiment",
    "experiment_config_parameters",
    "EvalSpec",
    "Evaluator",
    "BatchServer",
    "ServingStats",
    "MetricsSnapshot",
    "RungMetrics",
    "HistogramSnapshot",
    "RetryPolicy",
    "CircuitBreaker",
    "DegradationLadder",
    "DegradationController",
    "ManualClock",
    "MonotonicClock",
    "MZIModulator",
    "RingParameters",
    "WDMGrid",
    "Photodetector",
    "CWLaser",
    "PulsedLaser",
    "devices",
    "OpticalReceiver",
    "BatchEvaluation",
    "ChunkedEvaluation",
    "EvaluationCache",
    "RuntimeConfig",
    "SeedSchedule",
    "KERNELS",
    "kernel_capabilities",
    "derive_seed_schedule",
    "run_batch",
    "simulate_batch",
    "simulate_batch_sharded",
    "simulate_chunked",
    "simulate_evaluation",
    "simulate_sweep",
    "TransientSimulator",
    "CalibrationController",
    "FaultInjector",
    "FaultSpec",
    "fault_frontier",
    "Bitstream",
    "BernsteinPolynomial",
    "PowerPolynomial",
    "ReSCUnit",
    "ComparatorSNG",
    "bernstein_program",
    "gamma_bernstein",
]

"""Simulators and evaluation drivers for the learned filter.

``discrete`` provides small finite-state controlled processes whose exact
predictive distributions are computable, ``oracle`` a feature-space twin
of the Gram-matrix filter for cross-checking and large-sample convergence
studies, ``simulate`` the nonlinear continuous benchmark system, and
``benchmark`` the prediction-error protocol against simple baselines and
``evaluate``, the desk benchmark behind ``hsepsr evaluate``.
"""

from hsepsr.simbench.discrete import (
    DiscreteOracleSystem,
    cycle_system,
    default_system,
    exact_filter,
    sample_trajectory,
)
from hsepsr.simbench.benchmark import (
    DESK_HORIZONS,
    Evaluation,
    ModelPredictor,
    MseTable,
    baseline_mean,
    baseline_prev,
    desk_extents,
    evaluate,
    run_protocol,
    write_csv,
)
from hsepsr.simbench.oracle import (
    ConvergencePoint,
    ExplicitModel,
    convergence_curve,
    explicit_filter,
    gram_filter_distributions,
    normalize_distributions,
    train_explicit,
)
from hsepsr.simbench.simulate import SynthConfig, simulate_system

__all__ = [
    "DESK_HORIZONS",
    "Evaluation",
    "ModelPredictor",
    "MseTable",
    "baseline_mean",
    "baseline_prev",
    "desk_extents",
    "evaluate",
    "run_protocol",
    "write_csv",
    "DiscreteOracleSystem",
    "cycle_system",
    "default_system",
    "exact_filter",
    "sample_trajectory",
    "ConvergencePoint",
    "ExplicitModel",
    "convergence_curve",
    "explicit_filter",
    "gram_filter_distributions",
    "normalize_distributions",
    "train_explicit",
    "SynthConfig",
    "simulate_system",
]

"""Spin-S magnetometry under Ornstein-Uhlenbeck dephasing.

Quantum Fisher information of high-spin probes, decoherence-time analysis,
yield-rate optimization and scaling laws, spin-1 initial-state optimization,
and a measurement-level estimator benchmarked against the Cramer-Rao bound.
"""

__version__ = "0.1.0"

from .estimation import (
    EstimationRun,
    classical_fisher,
    outcome_probability,
    simulate_and_estimate,
)
from .ou_noise import (
    DDProfile,
    McCoherence,
    OUNoise,
    chi,
    classify,
    dd_chi,
    dd_t2,
    mc_coherence,
    t2,
)
from .protocol import (
    ExponentFit,
    StateOptResult,
    SweepTable,
    YieldResult,
    dd_scaling,
    fit_loglog_exponent,
    optimize_initial_state_spin1,
    sweep,
    yield_rate,
)
from .qfi import (
    drho_domega,
    ghz_qfi_values,
    qfi_generic,
    spin1_qfi_values,
)
from .spin_ops import (
    SpinQuantumNumber,
    dephase,
    ghz_like_state,
)

__all__ = [
    "DDProfile",
    "EstimationRun",
    "ExponentFit",
    "McCoherence",
    "OUNoise",
    "SpinQuantumNumber",
    "StateOptResult",
    "SweepTable",
    "YieldResult",
    "chi",
    "classical_fisher",
    "classify",
    "dd_chi",
    "dd_scaling",
    "dd_t2",
    "dephase",
    "drho_domega",
    "fit_loglog_exponent",
    "ghz_like_state",
    "ghz_qfi_values",
    "mc_coherence",
    "optimize_initial_state_spin1",
    "outcome_probability",
    "qfi_generic",
    "simulate_and_estimate",
    "spin1_qfi_values",
    "sweep",
    "t2",
    "yield_rate",
]

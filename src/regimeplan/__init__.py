"""Production planning under regime switching.

Infinite-horizon discounted linear-quadratic control of an inventory whose
demand, volatility and cost weights switch with a finite-state Markov chain.
The package solves the coupled curvature/slope systems behind the optimal
feedback law, evaluates the analytic value function, and verifies both by
exact chain simulation plus Euler-Maruyama Monte Carlo.
"""

__version__ = "0.1.0"

from .chain import (
    RegimePath,
    discounted_functional_mc,
    discounted_resolvent,
    simulate_chain,
)
from .model import (
    ConfigError,
    Generator,
    ModelParams,
    ValidationReport,
    load_params,
    params_from_config,
    params_to_config,
    save_params,
    validate_params,
)
from .policy import (
    PolicyCoefficients,
    ValueReport,
    default_grid,
    feedback_control,
    hamiltonian,
    hamiltonian_minimizer,
    policy_coefficients,
    value_constant,
    value_function,
    value_report,
)
from .reference import SWEEPS, benchmark_params, expected_values, sweep_params
from .riccati import (
    BracketFailure,
    DominanceCertificate,
    NonConvergence,
    RiccatiSolution,
    are_residual,
    elimination_solve,
    psi_residual,
    solve,
    solve_are,
    solve_psi,
    uniqueness_certificate,
)
from .sde import (
    ControlledPath,
    MCEstimate,
    SimConfig,
    adjoint_residual,
    asymptotic_decay,
    mc_cost,
    shifted_policy,
    simulate_controlled,
)

__all__ = [
    "__version__",
    "BracketFailure",
    "ConfigError",
    "ControlledPath",
    "DominanceCertificate",
    "Generator",
    "MCEstimate",
    "ModelParams",
    "NonConvergence",
    "PolicyCoefficients",
    "RegimePath",
    "RiccatiSolution",
    "SimConfig",
    "SWEEPS",
    "ValidationReport",
    "ValueReport",
    "adjoint_residual",
    "are_residual",
    "asymptotic_decay",
    "benchmark_params",
    "default_grid",
    "discounted_functional_mc",
    "discounted_resolvent",
    "elimination_solve",
    "expected_values",
    "feedback_control",
    "hamiltonian",
    "hamiltonian_minimizer",
    "load_params",
    "mc_cost",
    "params_from_config",
    "params_to_config",
    "policy_coefficients",
    "psi_residual",
    "save_params",
    "shifted_policy",
    "simulate_chain",
    "simulate_controlled",
    "solve",
    "solve_are",
    "solve_psi",
    "sweep_params",
    "uniqueness_certificate",
    "validate_params",
    "value_constant",
    "value_function",
    "value_report",
]

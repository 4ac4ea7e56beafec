"""Thermodynamic formalism on primitive subshifts of finite type.

Compute topological pressure and unique equilibrium states of locally
constant potentials, maximize ergodic averages, and solve for
equilibrium states of prescribed intermediate entropy or pressure along
potential rays ``psi + t * phi``.
"""

from . import errors
from .config import SystemConfig, config_from_dict, parse_config
from .ergopt import (
    MaximizationResult,
    ZeroTemperatureRow,
    ground_state_pressure_bound,
    max_ergodic_average,
    zero_temperature_diagnostics,
)
from .paths import (
    ContinuityReport,
    MonotonicityReport,
    PathSample,
    SolveReport,
    entropy_monotonicity_check,
    equilibrium_continuity_check,
    sample_at,
    solve_intermediate_entropy,
    solve_intermediate_pressure,
    sweep,
)
from .potentials import (
    Potential,
    birkhoff_sum,
    combine,
    constant_potential,
    fixed_point_potential,
    lift_to_memory,
    sup_norm,
    zero_potential,
)
from .sft import (
    Block,
    Sft,
    admissible_blocks,
    build_sft,
    full_shift,
    golden_mean_shift,
    is_admissible_block,
    recode_to_edge_shift,
    topological_entropy,
    wielandt_bound,
)
from .transfer import (
    LipschitzReport,
    MarkovMeasure,
    PressureResult,
    equilibrium_state,
    integrate,
    lift_markov_measure,
    lipschitz_check,
    pressure,
    pressure_and_equilibrium,
    variational_identity_check,
)

__version__ = "0.1.0"

__all__ = [
    "Block",
    "ContinuityReport",
    "LipschitzReport",
    "MarkovMeasure",
    "MaximizationResult",
    "MonotonicityReport",
    "PathSample",
    "Potential",
    "PressureResult",
    "Sft",
    "SolveReport",
    "SystemConfig",
    "ZeroTemperatureRow",
    "admissible_blocks",
    "birkhoff_sum",
    "build_sft",
    "combine",
    "config_from_dict",
    "constant_potential",
    "entropy_monotonicity_check",
    "equilibrium_continuity_check",
    "equilibrium_state",
    "errors",
    "fixed_point_potential",
    "full_shift",
    "golden_mean_shift",
    "ground_state_pressure_bound",
    "integrate",
    "is_admissible_block",
    "lift_markov_measure",
    "lift_to_memory",
    "lipschitz_check",
    "max_ergodic_average",
    "parse_config",
    "pressure",
    "pressure_and_equilibrium",
    "recode_to_edge_shift",
    "sample_at",
    "solve_intermediate_entropy",
    "solve_intermediate_pressure",
    "sup_norm",
    "sweep",
    "topological_entropy",
    "variational_identity_check",
    "wielandt_bound",
    "zero_potential",
    "zero_temperature_diagnostics",
]

"""Thermodynamic formalism on primitive subshifts of finite type.

Compute topological pressure and unique equilibrium states of locally
constant potentials, maximize ergodic averages, and solve for
equilibrium states of prescribed intermediate entropy or pressure along
potential rays ``psi + t * phi``.

The namespace is lazy (PEP 562): ``import thermoshift`` loads only
`errors`, and each other public name and submodule is imported on its
first access, so a caller, such as one CLI command, loads only the
layers it uses.
"""

import importlib

from . import errors

__version__ = "0.1.0"

# The public names, by the submodule that defines them.
_EXPORTS = {
    "config": ("SystemConfig", "config_from_dict", "parse_config"),
    "ergopt": (
        "MaximizationResult",
        "ZeroTemperatureRow",
        "ground_state_pressure_bound",
        "max_ergodic_average",
        "zero_temperature_diagnostics",
    ),
    "paths": (
        "ContinuityReport",
        "MonotonicityReport",
        "PathSample",
        "SolveReport",
        "entropy_monotonicity_check",
        "equilibrium_continuity_check",
        "sample_at",
        "solve_intermediate_entropy",
        "solve_intermediate_pressure",
        "sweep",
    ),
    "potentials": (
        "Potential",
        "birkhoff_sum",
        "combine",
        "constant_potential",
        "fixed_point_potential",
        "lift_to_memory",
        "sup_norm",
        "zero_potential",
    ),
    "sft": (
        "Block",
        "Sft",
        "admissible_blocks",
        "build_sft",
        "full_shift",
        "golden_mean_shift",
        "is_admissible_block",
        "recode_to_edge_shift",
        "topological_entropy",
        "wielandt_bound",
    ),
    "transfer": (
        "LipschitzReport",
        "MarkovMeasure",
        "PressureResult",
        "equilibrium_state",
        "integrate",
        "lift_markov_measure",
        "lipschitz_check",
        "pressure",
        "pressure_and_equilibrium",
        "variational_identity_check",
    ),
}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset(
    {"_edgegraph", "_perron", "cli", "config", "ergopt", "errors", "maxplus",
     "paths", "potentials", "sft", "transfer"}
)

__all__ = sorted(["errors", *_ORIGIN])


def __getattr__(name):
    if name in _SUBMODULES:
        # importing a submodule binds it on this package
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _ORIGIN:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_ORIGIN[name]}"), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted({*globals(), *__all__})

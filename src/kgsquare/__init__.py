"""Stationary states of a relativistic spin-0 particle in a one-dimensional
square potential with a mixed vector/scalar coupling: scattering amplitudes,
transmission resonances, bound-state spectra and level-coalescence detection.

Importing the package loads only the closed-form scalar layers (``core``,
``scatter``, ``tables``), which need no numpy. The numpy-backed layers,
``bound`` (bound spectra, sweeps, coalescences) and ``oracle`` (the RK4
cross-check), load on first access to one of their names or to the submodule
itself, through the module ``__getattr__`` below (PEP 562).
"""

from importlib import import_module as _import_module

from .core import (
    CLASS_EPSILON,
    BranchWavenumber,
    ChannelDensities,
    DomainError,
    Kinematics,
    NumericalError,
    PotentialConfig,
    SolutionClass,
    channel_densities,
    classify,
    critical_potentials,
    exterior_wavenumber,
    interior_q_squared,
    interior_wavenumber,
    kinematics,
)
from .scatter import (
    Q_LIMIT_EPSILON,
    RESONANCE_TOL,
    ScatteringSolution,
    amplitudes,
    coefficients,
    resonance_energies,
    resonant_v0_for_energy,
    sweep_transmission,
    transmission_regime,
)
from .tables import SweepTable, parse_csv

# Public names of the numpy-backed submodules, bound on first access.
_LAZY = {
    "bound": (
        "BoundState",
        "Branch",
        "DisappearanceEvent",
        "SpectrumSweep",
        "SswEvent",
        "antiparticle_crossover_energy",
        "count_imaginary_q_solutions",
        "detect_ssw",
        "find_bound_states",
        "pole_residual",
        "quantization_residual",
        "spectrum_sweep",
        "z0_of",
    ),
    "oracle": ("OracleConfig", "OracleFailure", "oracle_bound_states", "oracle_transmission"),
}
_LAZY_HOME = {name: module for module, names in _LAZY.items() for name in names}


def __getattr__(name: str):
    if name in _LAZY:
        value = _import_module(f".{name}", __name__)
    elif name in _LAZY_HOME:
        value = getattr(_import_module(f".{_LAZY_HOME[name]}", __name__), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY, *_LAZY_HOME})


__version__ = "0.1.0"

__all__ = [
    "BoundState",
    "Branch",
    "BranchWavenumber",
    "ChannelDensities",
    "CLASS_EPSILON",
    "DisappearanceEvent",
    "DomainError",
    "Kinematics",
    "NumericalError",
    "OracleConfig",
    "OracleFailure",
    "PotentialConfig",
    "Q_LIMIT_EPSILON",
    "RESONANCE_TOL",
    "ScatteringSolution",
    "SolutionClass",
    "SpectrumSweep",
    "SswEvent",
    "SweepTable",
    "amplitudes",
    "antiparticle_crossover_energy",
    "channel_densities",
    "classify",
    "coefficients",
    "count_imaginary_q_solutions",
    "critical_potentials",
    "detect_ssw",
    "exterior_wavenumber",
    "find_bound_states",
    "interior_q_squared",
    "interior_wavenumber",
    "kinematics",
    "oracle_bound_states",
    "oracle_transmission",
    "parse_csv",
    "pole_residual",
    "quantization_residual",
    "resonance_energies",
    "resonant_v0_for_energy",
    "spectrum_sweep",
    "sweep_transmission",
    "transmission_regime",
    "z0_of",
    "__version__",
]

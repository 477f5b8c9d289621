"""Domain types and kinematics for a relativistic spin-0 particle in a
one-dimensional square potential with a mixed vector/scalar coupling.

Units: hbar = c = m = 1. Energies and potential strengths are measured in
units of the rest energy; lengths in units of the Compton wavelength. The
potential has strength ``v0`` on ``|x| <= half_width_a`` and vanishes
outside; a fraction ``g_t`` couples as the time component of a vector and
the remainder ``g_s = 1 - g_t`` as a scalar (added to the mass).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Literal

# Half-width of the band around g_t = 1/2 treated as exactly balanced.
CLASS_EPSILON = 1e-12
# Bound-state energy window, shared by the phase solver and the oracle.
E_MARGIN = 1e-9  # scans stay this far inside the open window (-1, 1)
# Energy samples of the oracle's full-window scan and of count_imaginary_q_solutions.
N_SCAN = 8192

Region = Literal["exterior", "interior"]
Direction = Literal["plus", "minus"]
Parity = Literal["even", "odd"]


class DomainError(ValueError):
    """An input lies outside the physical domain of the operation."""


class NumericalError(RuntimeError):
    """An internal numerical consistency check failed."""


class SolutionClass(Enum):
    """Qualitative regime of the interior solutions, set by the coupling mix."""

    A = "A"  # vector-dominated: g_t > 1/2
    B = "B"  # balanced:         g_t = 1/2
    C = "C"  # scalar-dominated: g_t < 1/2


@dataclass(frozen=True, slots=True)
class PotentialConfig:
    """Square potential of strength ``v0`` (> 0 barrier, < 0 well) on
    ``|x| <= half_width_a`` with vector fraction ``g_t`` of the coupling.

    The scalar fraction is never stored; it is always ``g_s = 1 - g_t``.
    """

    v0: float
    half_width_a: float
    g_t: float

    def __post_init__(self) -> None:
        # Plain floats keep numpy scalars from changing results or warnings;
        # float inputs skip the slow writes to the frozen fields.
        if not type(self.v0) is type(self.half_width_a) is type(self.g_t) is float:
            for name in ("v0", "half_width_a", "g_t"):
                object.__setattr__(self, name, float(getattr(self, name)))
        if not (math.isfinite(self.half_width_a) and self.half_width_a > 0.0):
            raise DomainError(f"half_width_a must be positive, got {self.half_width_a}")
        if not (math.isfinite(self.g_t) and 0.0 <= self.g_t <= 1.0):
            raise DomainError(f"g_t must lie in [0, 1], got {self.g_t}")
        if not math.isfinite(self.v0):
            raise DomainError(f"v0 must be finite, got {self.v0}")

    @property
    def g_s(self) -> float:
        return 1.0 - self.g_t


@dataclass(frozen=True, slots=True)
class BranchWavenumber:
    """A wavenumber stored as a nonnegative magnitude plus a branch flag.

    ``is_imaginary`` means the channel is evanescent and the physical
    wavenumber is ``i * magnitude`` (prescription q -> i|q| for q^2 < 0).
    """

    magnitude: float
    is_imaginary: bool

    def as_complex(self) -> complex:
        if self.is_imaginary:
            return complex(0.0, self.magnitude)
        return complex(self.magnitude, 0.0)


@dataclass(frozen=True, slots=True)
class Kinematics:
    """All wavenumbers at one energy for one potential configuration.

    ``kappa`` is the exterior decay constant sqrt(1 - E^2); it is only
    defined on the bound-state window |E| <= 1 and is None otherwise.
    """

    energy_e: float
    k_squared: float
    q_squared: float
    k: BranchWavenumber
    q: BranchWavenumber
    kappa: float | None


@dataclass(frozen=True, slots=True)
class ChannelDensities:
    """Charge density, current and group velocity of a unit-amplitude
    propagating plane-wave channel."""

    rho: float
    current_j: float
    group_velocity: float


def _branch(w_squared: float) -> BranchWavenumber:
    if w_squared >= 0.0:
        return BranchWavenumber(math.sqrt(w_squared), False)
    return BranchWavenumber(math.sqrt(-w_squared), True)


def classify(g_t: float) -> SolutionClass:
    """Map the vector fraction to its solution class (B only inside the
    CLASS_EPSILON band around exactly 1/2)."""
    if not (math.isfinite(g_t) and 0.0 <= g_t <= 1.0):
        raise DomainError(f"g_t must lie in [0, 1], got {g_t}")
    if g_t > 0.5 + CLASS_EPSILON:
        return SolutionClass.A
    if g_t < 0.5 - CLASS_EPSILON:
        return SolutionClass.C
    return SolutionClass.B


def monotone_grid(v0_grid) -> list[float]:
    """The strengths of a sweep grid as floats; the grid must have at least
    two points and be strictly increasing or strictly decreasing."""
    grid = [float(v) for v in v0_grid]
    if len(grid) < 2:
        raise DomainError("v0_grid needs at least two points")
    diffs = [b - a for a, b in zip(grid, grid[1:])]
    if not (all(d > 0.0 for d in diffs) or all(d < 0.0 for d in diffs)):
        raise DomainError("v0_grid must be strictly monotone")
    return grid


def exterior_wavenumber(energy_e: float) -> BranchWavenumber:
    """k = sqrt(E^2 - 1), evanescent (kappa) branch when |E| < 1."""
    return _branch(energy_e * energy_e - 1.0)


def interior_q_squared(energy_e: float, cfg: PotentialConfig) -> float:
    """q^2 = (E - g_t V0)^2 - (1 + g_s V0)^2 inside the potential; DomainError where a square overflows."""
    vt = cfg.g_t * cfg.v0
    vs = cfg.g_s * cfg.v0
    try:
        return (energy_e - vt) ** 2 - (1.0 + vs) ** 2
    except OverflowError:
        raise DomainError(f"q^2 is not finite at E={energy_e}, V0={cfg.v0}") from None


def interior_wavenumber(energy_e: float, cfg: PotentialConfig) -> BranchWavenumber:
    """Interior wavenumber q with branch resolved by the sign of q^2."""
    return _branch(interior_q_squared(energy_e, cfg))


def kinematics(energy_e: float, cfg: PotentialConfig) -> Kinematics:
    """Bundle k, q and (when defined) kappa at one energy."""
    k2 = energy_e * energy_e - 1.0
    q2 = interior_q_squared(energy_e, cfg)
    kappa = math.sqrt(-k2) if k2 <= 0.0 else None
    return Kinematics(energy_e, k2, q2, _branch(k2), _branch(q2), kappa)


def strength_roots(energy_e: float, q2: float, g_t: float) -> list[float]:
    """The strengths V0, ascending, at which the interior has q^2 = q2 at the energy E: the real
    roots of (2 g_t - 1) V0^2 - 2 V0 [(E - 1) g_t + 1] + (E^2 - 1) - q2 = 0, a linear equation
    inside the CLASS_EPSILON band around g_t = 1/2. Two exactly equal roots are returned once."""
    beta = (energy_e - 1.0) * g_t + 1.0
    c0 = energy_e * energy_e - 1.0 - q2
    c2 = 2.0 * g_t - 1.0
    if abs(c2) <= CLASS_EPSILON:
        return [c0 / (2.0 * beta)]  # linear case: balanced coupling
    b = -2.0 * beta
    disc = b * b - 4.0 * c2 * c0
    if disc < 0.0:
        return []
    half = -(b + math.copysign(math.sqrt(disc), b)) / 2.0  # no cancellation for either sign of b
    roots = sorted((half / c2, c0 / half)) if half != 0.0 else [0.0, 0.0]  # half = 0: b = disc = 0
    return roots[:1] if roots[0] == roots[1] else roots


def critical_potentials(energy_e: float, g_t: float) -> tuple[float, float | None]:
    """Strengths V1 and V2 at which q^2 vanishes and the interior branch flips.

    V1 = E - 1 always; V2 = (E + 1)/(2 g_t - 1) exists only off the balanced
    coupling (g_t != 1/2), where the q^2-vs-V0 parabola has a second root.
    """
    if classify(g_t) is SolutionClass.B:
        return energy_e - 1.0, None
    return energy_e - 1.0, (energy_e + 1.0) / (2.0 * g_t - 1.0)


def channel_densities(
    energy_e: float,
    cfg: PotentialConfig,
    region: Region,
    direction: Direction,
) -> ChannelDensities:
    """Density rho, current J and group velocity J/rho for a unit-amplitude
    plane wave moving in ``direction`` in the given region.

    Raises DomainError when the requested channel is not propagating.
    """
    if direction == "plus":
        sign = 1.0
    elif direction == "minus":
        sign = -1.0
    else:
        raise DomainError(f"direction must be 'plus' or 'minus', got {direction!r}")
    if region == "exterior":
        w_squared = energy_e * energy_e - 1.0
        rho = energy_e
    elif region == "interior":
        w_squared = interior_q_squared(energy_e, cfg)
        rho = energy_e - cfg.g_t * cfg.v0
    else:
        raise DomainError(f"region must be 'exterior' or 'interior', got {region!r}")
    if not w_squared > 0.0:
        raise DomainError(
            f"no propagating channel in the {region} at E={energy_e} (w^2={w_squared})"
        )
    current_j = sign * math.sqrt(w_squared)
    return ChannelDensities(rho, current_j, current_j / rho)

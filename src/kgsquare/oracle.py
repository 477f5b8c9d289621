"""Brute-force verifiers built on direct integration of the stationary wave
equation phi'' = -q^2 phi.

Both integrators run only across the closed well |x| <= a: the transmission
from x = +a to x = -a, the shooting from x = 0 to x = a. There the potential
is V0, so the RK4 coefficient is the constant -q^2(V0), with
q^2 = (E - g_t V0)^2 - (1 + g_s V0)^2 from the oracle's own formula. These
solvers never reuse the closed-form interior solution, so they provide an
independent check of the matched-amplitude results.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import E_MARGIN, N_SCAN, DomainError, NumericalError, Parity, PotentialConfig

_BISECT_TOL = 1e-10  # bound-energy bracket width
_K_SECTION = 64  # interior points per bracket in each refinement pass


class OracleFailure(NumericalError):
    """The integrator produced non-finite values."""


@dataclass(frozen=True, slots=True)
class OracleConfig:
    """Fixed-step integrator settings.

    ``step_count`` is the number of RK4 steps across the full interaction
    region [-a, +a]; determinism comes from the fixed step, accuracy from
    its size.
    """

    step_count: int = 20000

    def __post_init__(self) -> None:
        if self.step_count < 1000:
            raise DomainError(f"step_count must be >= 1000, got {self.step_count}")


def _q2_at(v: np.ndarray, energy_e: np.ndarray, g_t: np.ndarray) -> np.ndarray:
    """Local squared wavenumber where the potential takes the value ``v``."""
    return (energy_e - g_t * v) ** 2 - (1.0 + (1.0 - g_t) * v) ** 2


def _rk4(
    phi: np.ndarray,
    dphi: np.ndarray,
    h: np.ndarray | float,
    c: np.ndarray,
    steps: int,
) -> tuple[np.ndarray, np.ndarray]:
    """``steps`` fixed RK4 steps of size h for phi'' = c phi, elementwise over
    the arrays."""
    half = 0.5 * h
    sixth = h / 6.0
    for _ in range(steps):
        k1d = c * phi
        p2 = phi + half * dphi
        d2 = dphi + half * k1d
        k2d = c * p2
        p3 = phi + half * d2
        d3 = dphi + half * k2d
        k3d = c * p3
        p4 = phi + h * d3
        d4 = dphi + h * k3d
        k4d = c * p4
        phi = phi + sixth * (dphi + 2.0 * d2 + 2.0 * d3 + d4)
        dphi = dphi + sixth * (k1d + 2.0 * k2d + 2.0 * k3d + k4d)
    return phi, dphi


def _matmul(m1: tuple[np.ndarray, ...], m2: tuple[np.ndarray, ...]) -> tuple[np.ndarray, ...]:
    """Elementwise product of 2x2 matrices stored as (a, b, c, d) = [[a, b], [c, d]]."""
    a1, b1, c1, d1 = m1
    a2, b2, c2, d2 = m2
    return (a1 * a2 + b1 * c2, a1 * b2 + b1 * d2, c1 * a2 + d1 * c2, c1 * b2 + d1 * d2)


def _propagator(h: float, c: np.ndarray, steps: int) -> tuple[np.ndarray, ...]:
    """``steps`` RK4 steps as one matrix (a, b, c, d), elementwise: (phi, phi')
    after them is [[a, b], [c, d]] (phi, phi') before.

    RK4 on a linear equation with a constant coefficient applies the same
    linear map at every step. So the steps are one RK4 step from the unit
    data (1, 0) and (0, 1), raised to ``steps`` by repeated squaring.
    """
    one, zero = np.ones_like(c), np.zeros_like(c)
    total = (one, zero, zero, one)
    a, c21 = _rk4(one, zero, h, c, 1)
    b, d = _rk4(zero, one, h, c, 1)
    step = (a, b, c21, d)
    while steps:
        if steps & 1:
            total = _matmul(step, total)
        steps >>= 1
        if steps:
            step = _matmul(step, step)
    return total


def _transmission_batch(
    energy_e: np.ndarray,
    v0: np.ndarray,
    g_t: np.ndarray,
    a: np.ndarray,
    step_count: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized backward RK4 from a pure transmitted wave at x = +a down to
    x = -a; returns (R, T) per sample. A single sample steps on Python scalars,
    with the same rounding as the array path: a step then costs about 1 µs
    rather than 30 numpy calls on 1-element arrays (about 30 µs)."""
    n = step_count
    c = -_q2_at(v0, energy_e, g_t)
    k = np.sqrt(energy_e * energy_e - 1.0)
    # Overflow surfaces as the OracleFailure below, not as numpy warnings.
    with np.errstate(all="ignore"):
        # Start from phi = e^{ikx} at x = +a (unit transmitted amplitude).
        phi = np.exp(1j * k * a)
        start = (phi, 1j * k * phi, -2.0 * a / n, c)
        if phi.size == 1:
            # CPython 3.10-3.13 promotes a float x to complex(x, 0.0) and
            # multiplies by (ar*br - ai*bi, ar*bi + ai*br), as numpy does after
            # casting a float array, so each step rounds alike.
            start = tuple(x.item() for x in start)
        phi, dphi = np.atleast_1d(*_rk4(*start, n))
        # Project onto incoming/reflected plane waves at x = -a.
        exp_ika = np.exp(1j * k * a)
        a_plus = 0.5 * (phi + dphi / (1j * k)) * exp_ika
        a_minus = 0.5 * (phi - dphi / (1j * k)) / exp_ika
        r = np.abs(a_minus / a_plus) ** 2
        t_coeff = 1.0 / np.abs(a_plus) ** 2
    if not all(np.all(np.isfinite(x)) for x in (a_plus, a_minus, r, t_coeff)):
        raise OracleFailure("transmission integration produced non-finite amplitudes or (R, T)")
    return r, t_coeff


def oracle_transmission(
    energy_e: float,
    cfg: PotentialConfig,
    ocfg: OracleConfig = OracleConfig(),
) -> tuple[float, float]:
    """(R, T) by direct integration; requires an incident propagating wave."""
    if not energy_e > 1.0:
        raise DomainError(f"no incident propagating wave: requires E > 1, got {energy_e}")
    r, t = _transmission_batch(
        np.asarray([energy_e], dtype=float),
        np.asarray([cfg.v0], dtype=float),
        np.asarray([cfg.g_t], dtype=float),
        np.asarray([cfg.half_width_a], dtype=float),
        ocfg.step_count,
    )
    return float(r[0]), float(t[0])


def _shoot_mismatch(energy_e: np.ndarray, cfg: PotentialConfig, step_count: int) -> np.ndarray:
    """Integrate from the center to x = a and return the decaying-tail
    mismatch M(E) = phi'(a) + kappa phi(a) as two rows: even initial data
    (phi, phi') = (1, 0), then odd (0, 1)."""
    m = step_count // 2  # steps on [0, a], matching the [-a, a] step size
    v0, g_t = (np.asarray(x, dtype=float) for x in (cfg.v0, cfg.g_t))
    c = -_q2_at(v0, energy_e, g_t)
    with np.errstate(over="ignore", invalid="ignore"):  # reported as OracleFailure below
        phi_even, phi_odd, dphi_even, dphi_odd = _propagator(cfg.half_width_a / m, c, m)
    phi, dphi = np.stack([phi_even, phi_odd]), np.stack([dphi_even, dphi_odd])
    if not (np.all(np.isfinite(phi)) and np.all(np.isfinite(dphi))):
        raise OracleFailure("shooting integration produced non-finite values")
    kappa = np.sqrt(1.0 - energy_e * energy_e)
    return dphi + kappa * phi


def oracle_bound_states(
    cfg: PotentialConfig,
    ocfg: OracleConfig = OracleConfig(),
) -> list[tuple[float, Parity]]:
    """Bound energies by parity shooting.

    One evaluation of the RK4 transfer matrix from x = 0 to x = a gives the
    mismatch of both parities on N_SCAN energies in
    (-1 + E_MARGIN, 1 - E_MARGIN). Each change of ``mismatch > 0`` between
    adjacent energies is one bracket, so a root that falls exactly on a scan
    energy opens one bracket, not two. Every pass then evaluates _K_SECTION
    interior points of all brackets at once and keeps the first sub-interval
    with a sign change, until every bracket is no wider than _BISECT_TOL. A
    level is the midpoint of its bracket.
    """
    e_grid = np.linspace(-1.0 + E_MARGIN, 1.0 - E_MARGIN, N_SCAN)
    mm = _shoot_mismatch(e_grid, cfg, ocfg.step_count)
    positive = mm > 0.0
    parity_row, cell = np.nonzero(positive[:, :-1] != positive[:, 1:])  # even brackets first
    lo, hi, flo = e_grid[cell], e_grid[cell + 1], mm[parity_row, cell]
    fractions = np.arange(1, _K_SECTION + 1) / (_K_SECTION + 1)
    bracket = np.arange(lo.size)
    while lo.size and (hi - lo).max() > _BISECT_TOL:
        points = lo[:, None] + (hi - lo)[:, None] * fractions
        f = _shoot_mismatch(points, cfg, ocfg.step_count)[parity_row, bracket]
        # The bisection rule per point: the root lies above where the sign
        # still matches the lower end.
        above = (f > 0.0) == (flo[:, None] > 0.0)
        # First point past the root; _K_SECTION when it lies above them all.
        first = np.where(above.all(axis=1), _K_SECTION, above.argmin(axis=1))
        edges = np.concatenate([lo[:, None], points, hi[:, None]], axis=1)
        values = np.concatenate([flo[:, None], f], axis=1)
        lo, hi, flo = edges[bracket, first], edges[bracket, first + 1], values[bracket, first]
    levels = zip(0.5 * (lo + hi), parity_row)
    return sorted((float(e_root), "odd" if row else "even") for e_root, row in levels)

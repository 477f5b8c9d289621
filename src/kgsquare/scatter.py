"""Scattering of an incident wave (E > 1) on the square potential: matched
plane-wave amplitudes, closed-form reflection/transmission coefficients,
transmission resonances and strength sweeps.

Amplitude ratios are relative to the incident amplitude, for the wave
    A+ e^{ikx} + A- e^{-ikx}  (x < -a),
    B+ e^{iqx} + B- e^{-iqx}  (|x| <= a),
    C+ e^{ikx}                (x > +a),
with q -> i|q| on the evanescent branch.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Literal

from .core import (
    DomainError,
    NumericalError,
    PotentialConfig,
    classify,
    interior_q_squared,
    monotone_grid,
    strength_roots,
)
from .tables import SweepTable

# Verified tolerance for "transmission equals one" at a resonance.
RESONANCE_TOL = 1e-9
_CROSS_CHECK_TOL = 1e-10

ChargeSign = Literal["positive", "negative"]
Regime = Literal["propagating-particle", "evanescent", "propagating-antiparticle"]

SWEEP_T_COLUMNS = ["v0", "q2", "T", "R", "regime", "class"]


@dataclass(frozen=True, slots=True)
class ScatteringSolution:
    """Amplitude ratios plus the derived reflection/transmission pair.

    ``interior_charge_sign`` is the sign of the interior charge density
    E - g_t V0: 'negative' exactly when E < g_t V0 (antiparticle regime).
    """

    ratio_a_minus: complex
    ratio_b_plus: complex
    ratio_b_minus: complex
    ratio_c_plus: complex
    r: float
    t: float
    interior_propagating: bool
    interior_charge_sign: ChargeSign


def _sin_over_q(q2: float, a: float) -> float:
    """sin(2qa)/q continued through q = 0: its limit 2a at q^2 = 0 exactly,
    sinh(2|q|a)/|q| on the evanescent branch, inf on overflow. Neither quotient
    cancels for q^2 != 0, so small |q| needs no series."""
    if q2 > 0.0:
        q = math.sqrt(q2)
        return math.sin(2.0 * q * a) / q
    if q2 == 0.0:
        return 2.0 * a
    mu = math.sqrt(-q2)
    try:
        return math.sinh(2.0 * mu * a) / mu
    except OverflowError:
        return math.inf


def coefficients(energy_e: float, cfg: PotentialConfig) -> tuple[float, float]:
    """(R, T) in closed form, valid on both interior branches.

    T = 1 / (1 + x^2) with x = (k^2 - q^2) sin(2qa) / (2kq); R is computed
    independently from its own closed form, the two are checked to satisfy
    R + T = 1 within 1e-12, and R = 1 - T is returned.
    """
    energy_e = float(energy_e)
    if not energy_e > 1.0:
        raise DomainError(f"no incident propagating wave: requires E > 1, got {energy_e}")
    if energy_e == math.inf:
        raise DomainError(f"E must be finite, got {energy_e}")
    k2 = energy_e * energy_e - 1.0
    k = math.sqrt(k2)
    q2 = interior_q_squared(energy_e, cfg)
    if not (math.isfinite(k2) and math.isfinite(q2)):
        raise DomainError(
            f"k^2 or q^2 is not finite at E={energy_e}, V0={cfg.v0} (k^2={k2}, q^2={q2})"
        )
    denom = (k2 - q2) * _sin_over_q(q2, cfg.half_width_a)
    x = denom / (2.0 * k)
    t = 0.0 if math.isinf(x) else 1.0 / (1.0 + x * x)
    r_indep = 0.0 if denom == 0.0 else 1.0 / (1.0 + (2.0 * k / denom) ** 2)
    if abs(r_indep + t - 1.0) > 1e-12:
        raise NumericalError(
            f"independent R and T violate R + T = 1 at E={energy_e}, cfg={cfg}: "
            f"R={r_indep}, T={t}"
        )
    return 1.0 - t, t


def amplitudes(energy_e: float, cfg: PotentialConfig) -> ScatteringSolution:
    """All four amplitude ratios from the interface-matching solution.

    The evanescent branch is evaluated in a scaled form (common factor
    e^{2|q|a} divided out of numerators and denominator) so deep barriers
    cannot overflow. R and T in the result come from the closed forms and are
    cross-checked against the amplitude magnitudes.
    """
    energy_e = float(energy_e)
    r, t = coefficients(energy_e, cfg)  # its domain errors (E, k^2, q^2) come first
    a = cfg.half_width_a
    k2 = energy_e * energy_e - 1.0
    k = math.sqrt(k2)
    q2 = interior_q_squared(energy_e, cfg)
    # |d| >= 2k|q| on the propagating branch and >= k|q| on the scaled
    # evanescent one, so the denominator vanishes exactly at q^2 = 0.
    if q2 == 0.0:
        raise NumericalError(f"vanishing matching denominator at E={energy_e}, cfg={cfg} (q^2={q2})")
    exp_m2ika = cmath.exp(-2.0j * k * a)
    if q2 > 0.0:
        q = math.sqrt(q2)
        c2 = math.cos(2.0 * q * a)
        s2 = math.sin(2.0 * q * a)
        d = 2.0 * k * q * c2 - 1.0j * (q2 + k2) * s2
        ratio_a_minus = 1.0j * (q2 - k2) * s2 * exp_m2ika / d
        ratio_b_plus = k * (q + k) * cmath.exp(-1.0j * (q + k) * a) / d
        ratio_b_minus = k * (q - k) * cmath.exp(1.0j * (q - k) * a) / d
        ratio_c_plus = 2.0 * q * k * exp_m2ika / d
    else:
        mu = math.sqrt(-q2)
        # sinh(2 mu a) e^{-2 mu a} = -expm1(-4 mu a)/2 without cancellation, and
        # cosh(2 mu a) e^{-2 mu a} = 1 - that; both tend to 1/2 for large mu a
        sh = -0.5 * math.expm1(-4.0 * mu * a)
        ch = 1.0 - sh
        d = complex((k2 + q2) * sh, 2.0 * k * mu * ch)
        exp_mika = cmath.exp(-1.0j * k * a)
        ratio_a_minus = (mu * mu + k2) * sh * exp_m2ika / d
        ratio_b_plus = k * complex(k, mu) * exp_mika * math.exp(-mu * a) / d
        ratio_b_minus = k * complex(-k, mu) * exp_mika * math.exp(-3.0 * mu * a) / d
        ratio_c_plus = 2.0j * mu * k * exp_m2ika * math.exp(-2.0 * mu * a) / d
    if abs(abs(ratio_a_minus) ** 2 - r) > _CROSS_CHECK_TOL or abs(abs(ratio_c_plus) ** 2 - t) > _CROSS_CHECK_TOL:
        raise NumericalError(
            f"amplitude/closed-form mismatch at E={energy_e}, cfg={cfg}: "
            f"|A-|^2={abs(ratio_a_minus) ** 2} vs R={r}, |C+|^2={abs(ratio_c_plus) ** 2} vs T={t}"
        )
    return ScatteringSolution(
        ratio_a_minus=ratio_a_minus,
        ratio_b_plus=ratio_b_plus,
        ratio_b_minus=ratio_b_minus,
        ratio_c_plus=ratio_c_plus,
        r=r,
        t=t,
        interior_propagating=q2 > 0.0,
        interior_charge_sign="negative" if energy_e < cfg.g_t * cfg.v0 else "positive",
    )


def resonance_energies(cfg: PotentialConfig, n_max: int) -> list[tuple[int, float]]:
    """Energies with T = 1 at fixed strength: the interior phase satisfies
    2qa = n pi, so E_n = g_t V0 +- sqrt((n pi / 2a)^2 + (1 + g_s V0)^2).

    Both signs are kept whenever they land above the E > 1 threshold; each
    returned energy is verified to transmit fully within RESONANCE_TOL.
    """
    if n_max < 1:
        raise DomainError(f"n_max must be >= 1, got {n_max}")
    out: list[tuple[int, float]] = []
    for n in range(1, n_max + 1):
        root = math.hypot(n * math.pi / (2.0 * cfg.half_width_a), 1.0 + cfg.g_s * cfg.v0)
        for energy in (cfg.g_t * cfg.v0 - root, cfg.g_t * cfg.v0 + root):
            if energy > 1.0:
                _, t = coefficients(energy, cfg)
                if abs(t - 1.0) > RESONANCE_TOL:
                    raise NumericalError(
                        f"resonance candidate failed T=1 check: n={n}, E={energy}, T={t}"
                    )
                out.append((n, energy))
    return out


def resonant_v0_for_energy(
    energy_e: float,
    g_t: float,
    half_width_a: float,
    n: int,
) -> list[float]:
    """Strengths making the fixed energy a transmission resonance (2qa = n pi):
    roots of (2g_t - 1) V0^2 - 2 V0 [(E - 1) g_t + 1] + (E^2 - 1) - (n pi / 2a)^2 = 0.

    Returns the real roots in ascending order (empty when the discriminant is
    negative); each root is verified to give T = 1 within RESONANCE_TOL.
    """
    if not energy_e > 1.0:
        raise DomainError(f"resonant strengths need E > 1, got {energy_e}")
    if energy_e == math.inf:
        raise DomainError(f"E must be finite, got {energy_e}")
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    if not (0.0 <= g_t <= 1.0):
        raise DomainError(f"g_t must lie in [0, 1], got {g_t}")
    if not half_width_a > 0.0:
        raise DomainError(f"half_width_a must be positive, got {half_width_a}")
    roots = strength_roots(energy_e, (n * math.pi / (2.0 * half_width_a)) ** 2, g_t)
    for v0 in roots:
        _, t = coefficients(energy_e, PotentialConfig(v0, half_width_a, g_t))
        if abs(t - 1.0) > RESONANCE_TOL:
            raise NumericalError(
                f"resonant strength failed T=1 check: n={n}, V0={v0}, T={t}"
            )
    return sorted(roots)


def transmission_regime(energy_e: float, cfg: PotentialConfig) -> Regime:
    """Label the interior channel: propagating particle charge, propagating
    antiparticle charge (E < g_t V0), or evanescent."""
    q2 = interior_q_squared(energy_e, cfg)
    if q2 > 0.0:
        if energy_e < cfg.g_t * cfg.v0:
            return "propagating-antiparticle"
        return "propagating-particle"
    return "evanescent"


def sweep_transmission(
    energy_e: float,
    g_t: float,
    half_width_a: float,
    v0_grid,
    threads: int = 1,
) -> SweepTable:
    """Transmission table over a strictly monotone grid of strengths.

    Output rows follow the grid order; every row carries (v0, q2, T, R,
    regime, class). ``threads`` is accepted for compatibility and has no
    effect.
    """
    grid = monotone_grid(v0_grid)
    cls = classify(g_t).value

    def one(v0: float) -> dict:
        cfg = PotentialConfig(v0, half_width_a, g_t)
        r, t = coefficients(energy_e, cfg)
        return {
            "v0": v0,
            "q2": interior_q_squared(energy_e, cfg),
            "T": t,
            "R": r,
            "regime": transmission_regime(energy_e, cfg),
            "class": cls,
        }

    records = [one(v0) for v0 in grid]
    params = {"energy": energy_e, "g_t": g_t, "half_width_a": half_width_a}
    return SweepTable(params, list(SWEEP_T_COLUMNS), records)

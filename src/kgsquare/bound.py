"""Bound states (|E| < 1) of the square potential: parity quantization
conditions, spectra as functions of the strength, and detection of the
Schiff-Snyder-Weinberg coalescence where a particle and an antiparticle
level of the same parity merge and leave the real spectrum.

On each interior branch s = +-1 the energy is a function of the interior
phase z = qa, E(z) = g_t V0 + s sqrt((z/a)^2 + (1 + g_s V0)^2). With
kappa = sqrt(1 - E^2), the Pruefer-style phase phi(z) = z - atan2(kappa a, z)
turns the quantization conditions kappa/q = tan(qa) (even) and
kappa/q = -cot(qa) (odd) into phi = j pi/2, j = 0, 1, 2, ..., with even j
for even levels and odd j for odd ones. Every level is checked against the
pole-free residuals
    f_even = kappa cos(qa) - q sin(qa) = -(z0/a) sin(phi),
    f_odd  = kappa sin(qa) + q cos(qa) =  (z0/a) cos(phi),
whose zeros coincide with the poles of the transmission amplitude continued
to k = i kappa.

A spectrum sweep solves all its grid strengths in one vectorised pass, with
every branch at every strength of the one well a segment of z. On each
segment phi has at most one critical point, a minimum, so the signs of phi'
at its two ends tell whether it must be cut there; the roots and their checks
are then computed for all segments at once. find_bound_states is that pass on
a single strength.

Every root has a phase key (s, j, orient): its branch, its label and the
orientation +-1 of phi on its monotone cell. The key is constant along a
level curve E(V0): a root never reaches z = 0, where phi = -pi/2, and phi'
can vanish at a root only where the two roots (s, j, +1) and (s, j, -1) meet.
A sweep's branch is therefore a maximal run of one key on consecutive grid
strengths. A run that ends alone has left through |E| = 1 (a continuum dive);
the two runs of one (s, j) that end or begin together are a coalescence, at
the fold of their level curve phi = j pi/2, where the strength turns back.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import Literal

import numpy as np

from .core import (
    E_MARGIN,
    N_SCAN,
    DomainError,
    NumericalError,
    Parity,
    PotentialConfig,
    SolutionClass,
    classify,
    interior_q_squared,
    monotone_grid,
    strength_roots,
)

RESIDUAL_TOL = 1e-10  # accepted quantization-residual magnitude at a root
DUALITY_TOL = 1e-8  # accepted |transmission denominator| at k -> i kappa
SSW_V0_TOL = 1e-9  # accuracy the tests require of a coalescence strength


@dataclass(frozen=True, slots=True)
class BoundState:
    """One bound level: energy, parity, 1-based energy-ordered index, and the
    dimensionless phases z = qa and z0 = a sqrt(q^2 + kappa^2)."""

    energy_e: float
    parity: Parity
    index_n: int
    z: float
    z0: float


@dataclass(frozen=True, slots=True)
class SswEvent:
    """A same-parity particle/antiparticle level coalescence at a level-curve fold."""

    v0_critical: float
    e_critical: float
    branch_a: int
    branch_b: int
    parity: Parity


@dataclass(frozen=True, slots=True)
class DisappearanceEvent:
    """A level reaching the edge of the bound window and leaving it."""

    v0: float
    branch_id: int
    continuum: Literal["upper", "lower"]
    last_energy: float


@dataclass(frozen=True, slots=True)
class SswCandidate:
    """Two levels of one (s, j) that vanish, or appear, together between two
    adjacent grid strengths: a coalescence before its fold is solved."""

    parity: Parity
    v0_alive: float  # grid point where both levels were last seen
    v0_dead: float  # adjacent grid point where both were gone
    pair: tuple[float, float]  # energies of the two levels at v0_alive, ascending
    key: tuple[float, float]  # interior branch s and label j of both roots
    branch_a: int
    branch_b: int


@dataclass
class Branch:
    """A continuous level curve E(V0) of fixed parity."""

    branch_id: int
    parity: Parity
    v0s: list[float]
    states: list[BoundState]
    label: str = ""  # 'particle' or 'antiparticle' (metadata only)


@dataclass
class SpectrumSweep:
    """Spectra over a strength grid, linked into branches, with events."""

    g_t: float
    half_width_a: float
    v0_grid: list[float]
    branches: list[Branch]
    ssw_events: list[SswEvent]
    disappearance_events: list[DisappearanceEvent]
    ssw_candidates: list[SswCandidate] = field(default_factory=list)


def _kappa(energy_e: float) -> float:
    # (1-E)(1+E) keeps full precision next to the window edges
    return math.sqrt((1.0 - energy_e) * (1.0 + energy_e))


def quantization_residual(energy_e: float, cfg: PotentialConfig, parity: Parity) -> float:
    """Pole-free matching residual whose zeros are the bound energies.

    Requires |E| < 1 and a propagating interior mode (q^2 > 0).
    """
    if not abs(energy_e) < 1.0:
        raise DomainError(f"bound energies require |E| < 1, got {energy_e}")
    q2 = interior_q_squared(energy_e, cfg)
    if not q2 > 0.0:
        raise DomainError(
            f"no propagating interior mode at E={energy_e} (q^2={q2})"
        )
    q = math.sqrt(q2)
    qa = q * cfg.half_width_a
    kap = _kappa(energy_e)
    if parity == "even":
        return kap * math.cos(qa) - q * math.sin(qa)
    if parity == "odd":
        return kap * math.sin(qa) + q * math.cos(qa)
    raise DomainError(f"parity must be 'even' or 'odd', got {parity!r}")


def z0_of(energy_e: float, cfg: PotentialConfig) -> float:
    """z0 = a sqrt((2 g_t - 1) V0^2 - 2 V0 ((E - 1) g_t + 1)), the radius of
    the quantization circle; identical to a sqrt(q^2 + kappa^2)."""
    radicand = (2.0 * cfg.g_t - 1.0) * cfg.v0 * cfg.v0 - 2.0 * cfg.v0 * (
        (energy_e - 1.0) * cfg.g_t + 1.0
    )
    if radicand < 0.0:
        raise DomainError(
            f"no real z0 at E={energy_e}, V0={cfg.v0}: radicand={radicand}"
        )
    return cfg.half_width_a * math.sqrt(radicand)


def pole_residual(energy_e: float, cfg: PotentialConfig) -> float:
    """|transmission matching denominator| continued to k = i kappa; it
    vanishes exactly at the bound energies (pole/bound-state duality). It is
    math.inf where it overflows: on evanescent interiors with a large |q| a."""
    if not abs(energy_e) < 1.0:
        raise DomainError(f"pole residual is defined for |E| < 1, got {energy_e}")
    q2 = interior_q_squared(energy_e, cfg)
    q = cmath.sqrt(complex(q2, 0.0))  # i|q| branch when q^2 < 0
    kc = 1.0j * _kappa(energy_e)
    two_qa = 2.0 * q * cfg.half_width_a
    try:
        d = 2.0 * kc * q * cmath.cos(two_qa) - 1.0j * (q * q + kc * kc) * cmath.sin(two_qa)
    except OverflowError:  # cosh(2 |q| a) beyond the double range
        return math.inf
    return abs(d)


def _phase(
    z: np.ndarray,
    s: np.ndarray,
    a: float,
    vt: np.ndarray,
    m: np.ndarray,
    critical: bool = False,
) -> tuple[np.ndarray, ...]:
    """Energy E, phase phi, dphi/dz and kappa dphi/dz at the phases z on the
    branches s, for the well of half-width a, with vector part vt = g_t V0 and
    mass term m = 1 + g_s V0 per element, and with ``critical`` the
    z-derivative of kappa dphi/dz. That product has the zeros of phi' but
    stays finite at the window edges."""
    q = z / a
    w = np.hypot(q, m)  # |E - g_t V0|
    e = vt + s * w
    k2 = (1.0 - e) * (1.0 + e)
    kap = np.sqrt(k2)
    c = np.divide(q, w, out=np.ones_like(q), where=w > 0.0)  # dw/dq; E = g_t V0 + s q at w = 0
    sec = s * e * c
    num = q * sec + k2
    den = q * q + k2  # (z0/a)^2
    g = num / (a * den)  # kappa (phi' - 1)
    out = (e, z - np.arctan2(kap, q), 1.0 + g / kap, kap + g)
    if not critical:
        return out
    dg = (q - sec) * (c * c * den - 2.0 * num) / (a * a * den * den)
    return out + (dg - sec / (a * kap),)


def _newton(fun: Callable, lo: np.ndarray, hi: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Roots of the increasing functions ``fun`` (value, derivative) on the
    brackets [lo, hi], with fun(lo) < 0 <= fun(hi), all at once from the
    starting points z. Every iterate replaces the bracket end of its sign, and
    a Newton step that leaves the bracket becomes a bisection. A root is done
    when its Newton step is within rounding of the iterate, or when its
    bracket can no longer be split."""
    active = np.ones(z.shape, dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore"):
        while active.any():
            f, df = fun(z)
            below = f < 0.0
            lo = np.where(below, z, lo)
            hi = np.where(below, hi, z)
            newton = z - f / df
            z_new = np.where((lo < newton) & (newton < hi), newton, 0.5 * (lo + hi))
            # a step within a few ulps of the phase scale is rounding noise
            active = (np.abs(newton - z) > 4.0 * np.spacing(z + 1.0)) & (z_new != z)
            z = np.where(active, z_new, z)
    return z


def _levels(v0: np.ndarray, a: float, g_t: float) -> tuple[np.ndarray, ...]:
    """Every level in the bound window [-1 + E_MARGIN, 1 - E_MARGIN] of the
    well of half-width a and vector fraction g_t at each strength v0[i], as
    the arrays (owner, E, j, s, orient): the index i of the strength, the
    energy, the phase label (even j: even parity), the interior branch
    s = +-1 and the orientation +-1 of phi on the level's monotone cell.
    Sorted by owner, then by energy, then even before odd.

    On each branch s at each strength, phi has at most one critical point, a
    minimum. Put x = |E - g_t V0| >= m = |1 + g_s V0|, c = -s g_t V0 and
    A = 1 - c^2 - m^2, so that E = s(x - c), L = q^2 + kappa^2 = 2cx + A and
    a x kappa L phi'(z) = a x L kappa + Q(x) with Q = c x^2 + A x + c m^2.
    If c <= 0, phi' > 0. If c > 0, phi' = 0 needs Q < 0, which on a non-empty
    segment (m < c + 1) forces c >= m + 1; as Q(c) = c > 0, every zero lies
    at x <= c. There a kappa rises strictly and -Q/(xL) never rises (its
    derivative has the sign of A x^2 + 4 c m^2 x + A m^2, whose discriminant
    is <= 0), so phi' changes sign at most once, from - to +.

    The minimum, refined by Newton, cuts its segment into two cells on which
    phi is monotone. Every j pi/2 in the range of a cell is one root, refined
    by Newton within [j pi/2, (j + 1) pi/2], as z = j pi/2 + atan2(kappa a, z).
    Every element is solved on its own, so the levels at one strength do not
    depend on the other strengths in the batch.
    """
    vt = g_t * v0
    m = np.abs(1.0 + (1.0 - g_t) * v0)
    # segments: strength-major, branch s = +1 before s = -1
    s_seg = np.tile([1.0, -1.0], v0.size)
    own = np.repeat(np.arange(v0.size), 2)
    e_lo, e_hi = -1.0 + E_MARGIN, 1.0 - E_MARGIN
    w_a, w_b = s_seg * (e_lo - vt[own]), s_seg * (e_hi - vt[own])
    w_lo = np.maximum(np.minimum(w_a, w_b), m[own])
    w_hi = np.maximum(w_a, w_b)
    keep = w_hi > w_lo
    s_seg, own, w_lo, w_hi = s_seg[keep], own[keep], w_lo[keep], w_hi[keep]
    if not own.size:
        return np.zeros(0, dtype=int), np.zeros(0), np.zeros(0), np.zeros(0), np.zeros(0)
    vt_seg, m_seg = vt[own], m[own]
    z_lo = a * np.sqrt((w_lo - m_seg) * (w_lo + m_seg))
    z_hi = a * np.sqrt((w_hi - m_seg) * (w_hi + m_seg))

    def at(cells: np.ndarray) -> tuple[np.ndarray, ...]:
        return s_seg[cells], a, vt_seg[cells], m_seg[cells]

    n = own.size
    both = np.tile(np.arange(n), 2)
    _, phi, _, slope = _phase(np.concatenate((z_lo, z_hi)), *at(both))
    # cells [z_lo, z_c] and [z_c, z_hi]; the first is empty where there is no minimum
    z_c, phi_c = z_lo.copy(), phi[:n].copy()
    dip = np.nonzero((slope[:n] < 0.0) & (slope[n:] > 0.0))[0]
    if dip.size:
        lo, hi, k_lo, k_hi, p_crit = z_lo[dip], z_hi[dip], slope[dip], slope[n + dip], at(dip)
        start = lo + k_lo / (k_lo - k_hi) * (hi - lo)
        z_c[dip] = _newton(lambda x: _phase(x, *p_crit, True)[3:], lo, hi, start)
        phi_c[dip] = _phase(z_c[dip], *p_crit)[1]

    f0, f1 = np.concatenate((phi[:n], phi_c)), np.concatenate((phi_c, phi[n:]))
    x0, x1 = f0 / (0.5 * math.pi), f1 / (0.5 * math.pi)
    up = x1 > x0
    # labels j with j pi/2 in (phi0, phi1] on a rising cell, [phi1, phi0) on a falling one
    first = np.maximum(np.where(up, np.floor(x0) + 1.0, np.ceil(x1)), 0.0)
    last = np.where(up, np.floor(x1), np.ceil(x0) - 1.0)
    count = np.maximum(last - first + 1.0, 0.0).astype(int)
    cell = np.repeat(np.arange(count.size), count)
    j = first[cell] + np.arange(cell.size) - np.repeat(np.cumsum(count) - count, count)
    target = j * (0.5 * math.pi)
    c_lo, c_hi = np.concatenate((z_lo, z_c))[cell], np.concatenate((z_c, z_hi))[cell]
    start = c_lo + (target - f0[cell]) / (f1[cell] - f0[cell]) * (c_hi - c_lo)
    lo, hi = np.maximum(c_lo, target), np.minimum(c_hi, (j + 1.0) * (0.5 * math.pi))
    p_cell = at(both[cell])
    orient = np.where(up[cell], 1.0, -1.0)

    def offset(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        _, p, d1, _ = _phase(x, *p_cell)
        return orient * (p - target), orient * d1

    root = _newton(offset, lo, hi, np.clip(start, lo, hi))
    energies = _phase(root, *p_cell)[0]
    owner = own[both[cell]]
    order = np.lexsort((j % 2.0, energies, owner))
    return owner[order], energies[order], j[order], p_cell[0][order], orient[order]


def _check_levels(
    owner: np.ndarray, e: np.ndarray, odd: np.ndarray, v0: np.ndarray, a: float, g_t: float
) -> tuple[np.ndarray, np.ndarray]:
    """The per-level root checks, for all levels at once: a propagating
    interior, the quantization residual, the transmission-pole duality and
    z < z0, with the formulas of interior_q_squared, quantization_residual,
    pole_residual and z0_of. Level k lies in the well (a, g_t) at the
    strength v0[owner[k]]. Raises at the first level that fails, in level
    order, with the error of the first check it fails. Returns (z, z0)."""
    v0 = v0[owner]
    vt = g_t * v0
    # float_power is libm pow, as Python's ** is: q^2 keeps the scalar's last bit
    q2 = np.float_power(e - vt, 2.0) - np.float_power(1.0 + (1.0 - g_t) * v0, 2.0)
    with np.errstate(invalid="ignore"):
        q = np.sqrt(q2)
        z = q * a
        kap = np.sqrt((1.0 - e) * (1.0 + e))
        sin, cos = np.sin(z), np.cos(z)
        residual = np.abs(np.where(odd, kap * sin + q * cos, kap * cos - q * sin))
        two_qa = 2.0 * q * a
        dual = np.abs(2.0 * kap * q * np.cos(two_qa) - (q * q - kap * kap) * np.sin(two_qa))
        radicand = (2.0 * g_t - 1.0) * v0 * v0 - 2.0 * v0 * ((e - 1.0) * g_t + 1.0)
        z0 = a * np.sqrt(radicand)
        checks = (
            (~(q2 > 0.0), lambda k: NumericalError(
                f"bound root with non-propagating interior: E={e[k]}")),
            (~(np.abs(e) < 1.0), lambda k: DomainError(
                f"bound energies require |E| < 1, got {e[k]}")),
            (residual > RESIDUAL_TOL, lambda k: NumericalError(
                f"quantization residual {residual[k]} above {RESIDUAL_TOL} at E={e[k]}")),
            (dual > DUALITY_TOL, lambda k: NumericalError(
                f"pole-duality residual {dual[k]} above {DUALITY_TOL} at E={e[k]}")),
            (radicand < 0.0, lambda k: DomainError(
                f"no real z0 at E={e[k]}, V0={v0[k]}: radicand={radicand[k]}")),
            (~(z < z0), lambda k: NumericalError(
                f"z >= z0 at bound root E={e[k]} (z={z[k]}, z0={z0[k]})")),
        )
    failed = np.logical_or.reduce([mask for mask, _ in checks])
    if failed.any():
        k = int(np.argmax(failed))
        raise next(err(k) for mask, err in checks if mask[k])
    return z, z0


def _bound_states(
    v0: np.ndarray, a: float, g_t: float
) -> tuple[list[BoundState], np.ndarray, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """find_bound_states of the well (a, g_t) at every strength of v0, solved
    and checked in one vectorised pass, as one flat list ordered by strength,
    then energy; with the index of each level's strength and the phase keys
    (s, j, orient) of all levels as flat arrays in the same order."""
    owner, e, j, s, orient = _levels(v0, a, g_t)
    odd = j % 2.0 == 1.0
    z, z0 = _check_levels(owner, e, odd, v0, a, g_t)
    # owner is sorted, so each strength's levels start where its owner first appears
    index_n = (np.arange(1, owner.size + 1) - np.searchsorted(owner, owner)).tolist()
    parity = ["odd" if o else "even" for o in odd.tolist()]
    states = list(map(BoundState, e.tolist(), parity, index_n, z.tolist(), z0.tolist()))
    return states, owner, (s, j, orient)


def find_bound_states(cfg: PotentialConfig) -> list[BoundState]:
    """All bound levels of the configuration, sorted by energy and indexed
    from 1; every root is checked against the quantization residual and the
    transmission-pole duality."""
    return _bound_states(np.array([cfg.v0]), cfg.half_width_a, cfg.g_t)[0]


def count_imaginary_q_solutions(cfg: PotentialConfig) -> int:
    """Sign changes of the evanescent-interior matching residuals on the
    q^2 < 0 part of the bound window. Both parity residuals reduce to sums of
    strictly positive terms there, so the count is always zero; this scan
    verifies it numerically."""
    e = np.linspace(-1.0 + E_MARGIN, 1.0 - E_MARGIN, N_SCAN)
    q2 = interior_q_squared(e, cfg)
    mask = q2 < 0.0
    if not mask.any():
        return 0
    mu = np.sqrt(np.where(mask, -q2, 0.0))
    kap = np.sqrt((1.0 - e) * (1.0 + e))
    th = np.tanh(mu * cfg.half_width_a)
    count = 0
    for g in (kap + mu * th, kap * th + mu):  # even, odd (cosh factored out)
        sgn = np.sign(g)
        count += int(np.count_nonzero(mask[:-1] & mask[1:] & (sgn[:-1] != sgn[1:])))
    return count


def antiparticle_crossover_energy(g_t: float) -> float:
    """E = -g_t / (1 - g_t): scalar-dominated wells keep their antiparticle
    levels below this energy (diagnostic for class C spectra)."""
    if classify(g_t) is not SolutionClass.C:
        raise DomainError(f"crossover energy is a class C diagnostic, got g_t={g_t}")
    return -g_t / (1.0 - g_t)


def _fold(g_t: float, a: float, cand: SswCandidate) -> SswEvent:
    """The coalescence of a candidate as the fold of its level curve phi = j pi/2 in z: there
    kappa a = z tan(z - j pi/2), E = +-sqrt(1 - kappa^2) has the sign of the pair, and V0 is the
    root on branch s of strength_roots at q = z/a. dV0/dz = 0 where (E - g_t V0) dE/dz = z/a^2,
    a sign change between the pair's phases at v0_alive, bisected until it cannot be split."""
    s, j = cand.key

    def fold(z: float) -> tuple[float, float, float]:  # z/a^2 - (E - g_t V0) dE/dz, V0, E
        t = math.tan(z - 0.5 * math.pi * j)
        kap = z * t / a
        e = math.copysign(math.sqrt((1.0 - kap) * (1.0 + kap)), cand.pair[0])
        v0 = [v for v in strength_roots(e, (z / a) ** 2, g_t) if s * (e - g_t * v) > 0.0]
        if len(v0) != 1:
            raise NumericalError(f"{len(v0)} strengths on branch s={s} at z={z} for {cand}")
        return z / (a * a) + (e - g_t * v0[0]) * kap * (t + z * (1.0 + t * t)) / (a * e), v0[0], e

    try:
        if not cand.pair[0] * cand.pair[1] > 0.0:
            raise NumericalError(f"pair straddles E = 0, where z is not monotone in E: {cand}")
        alive = PotentialConfig(cand.v0_alive, a, g_t)
        lo, hi = sorted(a * math.sqrt(interior_q_squared(e, alive)) for e in cand.pair)
        if not (f_lo := fold(lo)[0]) * fold(hi)[0] < 0.0:
            raise NumericalError(f"no sign change of dV0/dz between the pair's phases: {cand}")
        while lo < (z := 0.5 * (lo + hi)) < hi:
            lo, hi = (z, hi) if (fold(z)[0] < 0.0) == (f_lo < 0.0) else (lo, z)
        _, v0_c, e_c = fold(z)
    except (ArithmeticError, ValueError) as exc:
        raise NumericalError(f"fold solve failed ({exc}) for {cand}") from exc
    return SswEvent(v0_c, e_c, cand.branch_a, cand.branch_b, cand.parity)


def spectrum_sweep(
    g_t: float,
    half_width_a: float,
    v0_grid,
    threads: int = 1,
) -> SpectrumSweep:
    """Solve the spectrum at every grid strength and link the levels into
    fixed-parity branches by their phase key (s, j, orient); record continuum
    dives and refine pairwise level deaths/births into coalescence events.

    A branch is a maximal run of one key over consecutive grid strengths,
    numbered by its first level: by grid index, then energy. The two roots
    (s, j, +1) and (s, j, -1) of one label on one interior branch are created
    and destroyed together at a fold of phi, so two such runs that both end,
    or both begin, between adjacent grid strengths are a coalescence
    candidate. A run that ends alone before the last strength is a dive at
    the next one. Between each two adjacent strengths, candidates of runs
    that end come before those of runs that begin, each in ascending energy
    on the side where the levels exist.

    The states at each strength, and the coalescences, do not depend on the
    direction of the grid. A dive does: it is reported only where a level
    leaves the window along the grid's direction, and a level that enters it
    makes no event. All grid strengths are solved in one vectorised pass.
    ``threads`` is accepted for compatibility and has no effect."""
    grid = monotone_grid(v0_grid)
    # a strictly monotone grid can be non-finite only at its ends
    well = PotentialConfig(grid[0], half_width_a, g_t)
    PotentialConfig(grid[-1], half_width_a, g_t)
    states, owner, keys = _bound_states(np.array(grid), well.half_width_a, well.g_t)
    order = np.lexsort((owner, *keys[::-1]))  # by key, then strength
    sorted_keys = np.stack(keys)[:, order]
    same = (sorted_keys[:, 1:] == sorted_keys[:, :-1]).all(axis=0)
    step = np.diff(owner[order])
    if (dup := same & (step == 0)).any():
        k = int(order[1:][dup].min())  # the first duplicate in level order
        key, v0 = tuple(float(x[k]) for x in keys), grid[owner[k]]
        raise NumericalError(f"two levels share the phase key (s, j, orient)={key} at V0={v0}")
    cuts = np.flatnonzero(~(same & (step == 1))) + 1
    runs = sorted(np.split(order, cuts), key=lambda run: run[0]) if order.size else []

    owner, s, j = owner.tolist(), keys[0].tolist(), keys[1].tolist()
    branches: list[Branch] = []
    # (i, born, (s, j)) -> (energy, branch id) of the runs that end at
    # grid[i - 1] (born False) or begin at grid[i] (born True)
    ends: dict[tuple[int, bool, tuple[float, float]], list[tuple[float, int]]] = {}
    for b_id, run in enumerate(runs):
        run = run.tolist()
        lo, hi = owner[run[0]], owner[run[-1]]
        b = Branch(b_id, states[run[0]].parity, grid[lo : hi + 1], [states[k] for k in run])
        shallow = b.states[0 if abs(grid[lo]) <= abs(grid[hi]) else -1]
        b.label = "particle" if shallow.energy_e > 0.0 else "antiparticle"
        branches.append(b)
        for i, born, state in ((hi + 1, False, b.states[-1]), (lo, True, b.states[0])):
            if 0 < i < len(grid):
                end = ends.setdefault((i, born, (s[run[0]], j[run[0]])), [])
                end.append((state.energy_e, b_id))
    dives: list[DisappearanceEvent] = []
    candidates: list[SswCandidate] = []
    for (i, born, s_j), pair in sorted(ends.items(), key=lambda end: (end[0][:2], min(end[1]))):
        if len(pair) == 2:
            (e_a, id_a), (e_b, id_b) = sorted(pair)
            alive, dead = (grid[i], grid[i - 1]) if born else (grid[i - 1], grid[i])
            parity = branches[id_a].parity
            candidates.append(SswCandidate(parity, alive, dead, (e_a, e_b), s_j, id_a, id_b))
        elif not born:
            ((e, b_id),) = pair
            dives.append(DisappearanceEvent(grid[i], b_id, "upper" if e > 0.0 else "lower", e))

    return SpectrumSweep(
        g_t=well.g_t,
        half_width_a=well.half_width_a,
        v0_grid=grid,
        branches=branches,
        ssw_events=[_fold(well.g_t, well.half_width_a, c) for c in candidates],
        disappearance_events=dives,
        ssw_candidates=candidates,
    )


def detect_ssw(sweep: SpectrumSweep) -> list[tuple[float, float]]:
    """The (V0, E) of every coalescence event of a sweep: the fold of the
    pair's level curve, where its strength turns back."""
    return [(ev.v0_critical, ev.e_critical) for ev in sweep.ssw_events]

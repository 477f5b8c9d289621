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
)

RESIDUAL_TOL = 1e-10  # accepted quantization-residual magnitude at a root
DUALITY_TOL = 1e-8  # accepted |transmission denominator| at k -> i kappa
SSW_V0_TOL = 1e-9  # width of the critical-strength bracket after refinement
_GRID_PER_HALF_PI = 8  # phase-grid points per pi/2 of z on each branch
_SSW_PAIR_WINDOW = 0.6  # max |delta E| for two deaths to count as one pair
_SSW_EDGE = 0.95  # pair members must sit below this |E| (dives live near 1)
_SHRINK_FACTOR = 0.2  # required pair-separation shrinkage for a true coalescence


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
    """A same-parity particle/antiparticle level coalescence."""

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
    """Raw sweep evidence for a possible coalescence, before refinement."""

    parity: Parity
    v0_alive: float  # grid point where both levels were last seen
    v0_dead: float  # adjacent grid point where both were gone
    pair: tuple[float, float]
    other_roots: tuple[float, ...]
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
    vanishes exactly at the bound energies (pole/bound-state duality)."""
    if not abs(energy_e) < 1.0:
        raise DomainError(f"pole residual is defined for |E| < 1, got {energy_e}")
    q2 = interior_q_squared(energy_e, cfg)
    q = cmath.sqrt(complex(q2, 0.0))  # i|q| branch when q^2 < 0
    kc = 1.0j * _kappa(energy_e)
    two_qa = 2.0 * q * cfg.half_width_a
    d = 2.0 * kc * q * cmath.cos(two_qa) - 1.0j * (q * q + kc * kc) * cmath.sin(two_qa)
    return abs(d)


def _phase(
    z: np.ndarray, s: np.ndarray, cfg: PotentialConfig, critical: bool = False
) -> tuple[np.ndarray, ...]:
    """Energy E, phase phi, dphi/dz and kappa dphi/dz at the phases z on the
    branches s, and with ``critical`` the z-derivative of kappa dphi/dz. That
    product has the zeros of phi' but stays finite at the window edges."""
    a = cfg.half_width_a
    q = z / a
    w = np.hypot(q, 1.0 + cfg.g_s * cfg.v0)  # |E - g_t V0|
    e = cfg.g_t * cfg.v0 + s * w
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


def _levels(cfg: PotentialConfig, e_lo: float, e_hi: float) -> list[tuple[float, Parity]]:
    """Every level with energy in [e_lo, e_hi], sorted, as (E, parity).

    Each interior branch is sampled at _GRID_PER_HALF_PI points per pi/2 of
    z. Sign changes of phi' there are refined to the critical points of phi,
    which cut the branch into cells on which phi is monotone. Every j pi/2 in
    the range of a cell is then exactly one root, refined by Newton.
    """
    a = cfg.half_width_a
    vt = cfg.g_t * cfg.v0
    m = abs(1.0 + cfg.g_s * cfg.v0)
    zs, ss = [], []
    for s in (1.0, -1.0):
        w_lo, w_hi = sorted((s * (e_lo - vt), s * (e_hi - vt)))
        w_lo = max(w_lo, m)
        if w_hi > w_lo:
            z_lo, z_hi = (a * math.sqrt((w - m) * (w + m)) for w in (w_lo, w_hi))
            n = 2 + int((z_hi - z_lo) * _GRID_PER_HALF_PI / (0.5 * math.pi))
            zs.append(np.linspace(z_lo, z_hi, n))
            ss.append(np.full(n, s))
    if not zs:
        return []
    z, s = np.concatenate(zs), np.concatenate(ss)
    _, phi, _, slope = _phase(z, s, cfg)
    rising = slope > 0.0
    i = np.nonzero((rising[:-1] != rising[1:]) & (s[:-1] == s[1:]))[0]
    if i.size:
        orient = np.where(rising[i], -1.0, 1.0)
        si = s[i]

        def oriented_slope(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            _, _, _, k1, dk1 = _phase(x, si, cfg, True)
            return orient * k1, orient * dk1

        lo, hi = z[i], z[i + 1]
        start = lo + slope[i] / (slope[i] - slope[i + 1]) * (hi - lo)
        c = _newton(oriented_slope, lo, hi, start)
        z = np.insert(z, i + 1, c)
        s = np.insert(s, i + 1, si)
        phi = np.insert(phi, i + 1, _phase(c, si, cfg)[1])

    x = phi / (0.5 * math.pi)
    x0, x1 = x[:-1], x[1:]
    up = x1 > x0
    # labels j with j pi/2 in (phi0, phi1] on a rising cell, [phi1, phi0) on a falling one
    first = np.maximum(np.where(up, np.floor(x0) + 1.0, np.ceil(x1)), 0.0)
    last = np.where(up, np.floor(x1), np.ceil(x0) - 1.0)
    count = np.where(s[:-1] == s[1:], np.maximum(last - first + 1.0, 0.0), 0.0).astype(int)
    cell = np.repeat(np.arange(count.size), count)
    j = first[cell] + np.arange(cell.size) - np.repeat(np.cumsum(count) - count, count)
    target = j * (0.5 * math.pi)
    lo, hi, f0, f1, sc = z[cell], z[cell + 1], phi[cell], phi[cell + 1], s[cell]
    orient = np.where(up[cell], 1.0, -1.0)

    def offset(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        _, p, d1, _ = _phase(x, sc, cfg)
        return orient * (p - target), orient * d1

    root = _newton(offset, lo, hi, lo + (target - f0) / (f1 - f0) * (hi - lo))
    energies = _phase(root, sc, cfg)[0]
    return sorted(
        (float(e), "even" if jj % 2 == 0 else "odd") for e, jj in zip(energies, j.astype(int))
    )


def find_bound_states(cfg: PotentialConfig) -> list[BoundState]:
    """All bound levels of the configuration, sorted by energy and indexed
    from 1; every root is checked against the quantization residual and the
    transmission-pole duality."""
    states: list[BoundState] = []
    for idx, (e_root, parity) in enumerate(_levels(cfg, -1.0 + E_MARGIN, 1.0 - E_MARGIN), start=1):
        q2 = interior_q_squared(e_root, cfg)
        if not q2 > 0.0:
            raise NumericalError(f"bound root with non-propagating interior: E={e_root}")
        residual = abs(quantization_residual(e_root, cfg, parity))
        if residual > RESIDUAL_TOL:
            raise NumericalError(
                f"quantization residual {residual} above {RESIDUAL_TOL} at E={e_root}"
            )
        dual = pole_residual(e_root, cfg)
        if dual > DUALITY_TOL:
            raise NumericalError(
                f"pole-duality residual {dual} above {DUALITY_TOL} at E={e_root}"
            )
        z = math.sqrt(q2) * cfg.half_width_a
        z0 = z0_of(e_root, cfg)
        if not z < z0:
            raise NumericalError(f"z >= z0 at bound root E={e_root} (z={z}, z0={z0})")
        states.append(BoundState(e_root, parity, idx, z, z0))
    return states


def count_imaginary_q_solutions(cfg: PotentialConfig, n_scan: int = N_SCAN) -> int:
    """Sign changes of the evanescent-interior matching residuals on the
    q^2 < 0 part of the bound window. Both parity residuals reduce to sums of
    strictly positive terms there, so the count is always zero; this scan
    verifies it numerically."""
    e = np.linspace(-1.0 + E_MARGIN, 1.0 - E_MARGIN, n_scan)
    vt = cfg.g_t * cfg.v0
    vs = cfg.g_s * cfg.v0
    q2 = (e - vt) ** 2 - (1.0 + vs) ** 2
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


def _jump_limit(branch: Branch, dv0: float) -> float:
    """Largest |delta E| a branch may take across one grid step."""
    if len(branch.states) >= 2:
        de = abs(branch.states[-1].energy_e - branch.states[-2].energy_e)
        dv = abs(branch.v0s[-1] - branch.v0s[-2])
        slope = de / dv if dv > 0.0 else 1.0
    else:
        slope = 1.0
    return max(1e-3, 5.0 * dv0 * slope)


def _refine_ssw(g_t: float, half_width_a: float, cand: SswCandidate) -> SswEvent | None:
    """Bisect the strength between the last two-root point and the first
    zero-root point, counting same-parity roots in a window around the pair.
    Returns None when the pair separation fails to shrink (not a coalescence).
    """
    e1, e2 = sorted(cand.pair)
    sep0 = e2 - e1
    pad = max(0.08, sep0)
    w_lo = e1 - pad
    w_hi = e2 + pad
    for r in cand.other_roots:
        if r <= e1:
            w_lo = max(w_lo, 0.5 * (r + e1))
        elif r >= e2:
            w_hi = min(w_hi, 0.5 * (r + e2))
    w_lo = max(w_lo, -1.0 + 2.0 * E_MARGIN)
    w_hi = min(w_hi, 1.0 - 2.0 * E_MARGIN)
    v_alive, v_dead = cand.v0_alive, cand.v0_dead
    roots_alive = [e1, e2]
    while abs(v_dead - v_alive) > SSW_V0_TOL:
        v_mid = 0.5 * (v_alive + v_dead)
        cfg_mid = PotentialConfig(v_mid, half_width_a, g_t)
        roots = [e for e, p in _levels(cfg_mid, w_lo, w_hi) if p == cand.parity]
        if roots:
            v_alive = v_mid
            roots_alive = roots
        else:
            v_dead = v_mid
    sep_last = roots_alive[-1] - roots_alive[0]
    if not sep_last < _SHRINK_FACTOR * sep0:
        return None
    return SswEvent(
        v0_critical=0.5 * (v_alive + v_dead),
        e_critical=0.5 * (roots_alive[0] + roots_alive[-1]),
        branch_a=cand.branch_a,
        branch_b=cand.branch_b,
        parity=cand.parity,
    )


def spectrum_sweep(
    g_t: float,
    half_width_a: float,
    v0_grid,
    threads: int = 1,
) -> SpectrumSweep:
    """Solve the spectrum at every grid strength and link the levels into
    fixed-parity branches; record continuum dives and (for vector-dominated
    coupling) refine pairwise level deaths/births into coalescence events."""
    grid = [float(v) for v in v0_grid]
    if len(grid) < 2:
        raise DomainError("v0_grid needs at least two points")
    diffs = [b - a for a, b in zip(grid, grid[1:])]
    if not (all(d > 0.0 for d in diffs) or all(d < 0.0 for d in diffs)):
        raise DomainError("v0_grid must be strictly monotone")
    solution_class = classify(g_t)
    cfgs = [PotentialConfig(v0, half_width_a, g_t) for v0 in grid]
    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            per_point = list(pool.map(find_bound_states, cfgs))  # ordered gather
    else:
        per_point = [find_bound_states(cfg) for cfg in cfgs]

    branches: list[Branch] = []
    alive: list[Branch] = []
    dives: list[DisappearanceEvent] = []
    candidates: list[SswCandidate] = []
    next_id = 0
    for i, (v0, states) in enumerate(zip(grid, per_point)):
        dv0 = abs(v0 - grid[i - 1]) if i > 0 else 0.0
        survivors: list[Branch] = []
        deaths: list[Branch] = []
        births: list[BoundState] = []
        for parity in ("even", "odd"):
            sts = [s for s in states if s.parity == parity]
            acts = [b for b in alive if b.parity == parity]
            pairs: list[tuple[float, int, int]] = []
            for bi, b in enumerate(acts):
                limit = _jump_limit(b, dv0)
                e_last = b.states[-1].energy_e
                for si, s in enumerate(sts):
                    de = abs(s.energy_e - e_last)
                    if de <= limit:
                        pairs.append((de, bi, si))
            pairs.sort()
            used_b: set[int] = set()
            used_s: set[int] = set()
            for _, bi, si in pairs:
                if bi in used_b or si in used_s:
                    continue
                used_b.add(bi)
                used_s.add(si)
                acts[bi].v0s.append(v0)
                acts[bi].states.append(sts[si])
                survivors.append(acts[bi])
            deaths.extend(b for bi, b in enumerate(acts) if bi not in used_b)
            births.extend(s for si, s in enumerate(sts) if si not in used_s)

        # deaths: branches last seen at grid[i-1]
        deaths_by_parity: dict[str, list[Branch]] = {"even": [], "odd": []}
        for b in deaths:
            deaths_by_parity[b.parity].append(b)
        for parity, group in deaths_by_parity.items():
            group.sort(key=lambda b: b.states[-1].energy_e)
            paired: set[int] = set()
            if solution_class is SolutionClass.A and len(group) >= 2:
                for j in range(len(group) - 1):
                    if j in paired or j + 1 in paired:
                        continue
                    ea = group[j].states[-1].energy_e
                    eb = group[j + 1].states[-1].energy_e
                    if abs(eb - ea) < _SSW_PAIR_WINDOW and max(abs(ea), abs(eb)) < _SSW_EDGE:
                        others = tuple(
                            s.energy_e
                            for s in per_point[i - 1]
                            if s.parity == parity and s.energy_e not in (ea, eb)
                        )
                        candidates.append(
                            SswCandidate(
                                parity=parity,  # type: ignore[arg-type]
                                v0_alive=grid[i - 1],
                                v0_dead=v0,
                                pair=(ea, eb),
                                other_roots=others,
                                branch_a=group[j].branch_id,
                                branch_b=group[j + 1].branch_id,
                            )
                        )
                        paired.update((j, j + 1))
            for j, b in enumerate(group):
                if j not in paired:
                    e_last = b.states[-1].energy_e
                    dives.append(
                        DisappearanceEvent(
                            v0=v0,
                            branch_id=b.branch_id,
                            continuum="upper" if e_last > 0.0 else "lower",
                            last_energy=e_last,
                        )
                    )

        # births: new branches, ids in ascending energy order
        births.sort(key=lambda s: s.energy_e)
        new_branches: list[Branch] = []
        for s in births:
            b = Branch(next_id, s.parity, [v0], [s])
            next_id += 1
            branches.append(b)
            new_branches.append(b)
        if i > 0 and solution_class is SolutionClass.A:
            for parity in ("even", "odd"):
                grp = [b for b in new_branches if b.parity == parity]
                for j in range(len(grp) - 1):
                    ea = grp[j].states[0].energy_e
                    eb = grp[j + 1].states[0].energy_e
                    if abs(eb - ea) < _SSW_PAIR_WINDOW and max(abs(ea), abs(eb)) < _SSW_EDGE:
                        others = tuple(
                            s.energy_e
                            for s in states
                            if s.parity == parity and s.energy_e not in (ea, eb)
                        )
                        candidates.append(
                            SswCandidate(
                                parity=parity,  # type: ignore[arg-type]
                                v0_alive=v0,
                                v0_dead=grid[i - 1],
                                pair=(ea, eb),
                                other_roots=others,
                                branch_a=grp[j].branch_id,
                                branch_b=grp[j + 1].branch_id,
                            )
                        )
        alive = survivors + new_branches

    for b in branches:
        shallow = 0 if abs(b.v0s[0]) <= abs(b.v0s[-1]) else -1
        b.label = "particle" if b.states[shallow].energy_e > 0.0 else "antiparticle"

    ssw_events = []
    for cand in candidates:
        ev = _refine_ssw(g_t, half_width_a, cand)
        if ev is not None:
            ssw_events.append(ev)
    return SpectrumSweep(
        g_t=g_t,
        half_width_a=half_width_a,
        v0_grid=grid,
        branches=branches,
        ssw_events=ssw_events,
        disappearance_events=dives,
        ssw_candidates=candidates,
    )


def detect_ssw(sweep: SpectrumSweep) -> list[tuple[float, float]]:
    """Refine every coalescence candidate of a sweep down to a critical
    strength bracket narrower than SSW_V0_TOL; returns (V0, E) pairs."""
    out: list[tuple[float, float]] = []
    for cand in sweep.ssw_candidates:
        ev = _refine_ssw(sweep.g_t, sweep.half_width_a, cand)
        if ev is not None:
            out.append((ev.v0_critical, ev.e_critical))
    return out

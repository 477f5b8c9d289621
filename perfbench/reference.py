"""Dense reference scan for bound levels, independent of kgsquare.bound.

Levels need a propagating interior, q^2 = (E - g_t V0)^2 - (1 + g_s V0)^2 > 0,
so the scan covers only those parts of the window |E| < 1 - 1e-9. On them it
counts sign changes of
    even:    kappa cos(qa) - q sin(qa)
    odd/q:   kappa sin(qa)/q + cos(qa)
on a uniform energy grid. The odd residual kappa sin(qa) + q cos(qa) vanishes
trivially at q = 0; divided by q it tends to kappa a + 1 > 0 there, so the
threshold q = 0 produces no spurious root. The count must not change when the
grid is doubled, otherwise the reference is rejected as unresolved.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

E_MARGIN = 1e-9
GRID_POINTS = 1 << 20  # over the full window; doubled for the check
_CHUNK = 1 << 17
# A returned level within this distance of a reference cell counts as inside
# it: a root within 1e-13 of a grid point may land in the neighbouring cell.
_CELL_SLACK = 1e-10


class UnresolvedReference(RuntimeError):
    """The reference count changed when its grid was doubled."""


@dataclass(frozen=True)
class ReferenceLevels:
    """Reference root cells per parity from the doubled grid: each level lies
    in [lo[i], hi[i]]."""

    even_lo: np.ndarray
    even_hi: np.ndarray
    odd_lo: np.ndarray
    odd_hi: np.ndarray

    @property
    def count(self) -> int:
        return len(self.even_lo) + len(self.odd_lo)


def _propagating_intervals(v0: float, half_width_a: float, g_t: float) -> list[tuple[float, float]]:
    vt = g_t * v0
    mass = abs(1.0 + (1.0 - g_t) * v0)
    lo, hi = -1.0 + E_MARGIN, 1.0 - E_MARGIN
    out = []
    if vt - mass > lo:
        out.append((lo, min(hi, vt - mass)))
    if vt + mass < hi:
        out.append((max(lo, vt + mass), hi))
    return [(a, b) for a, b in out if b > a]


def _residual(e: np.ndarray, v0: float, a: float, g_t: float, parity: str) -> np.ndarray:
    d = e - g_t * v0
    m = 1.0 + (1.0 - g_t) * v0
    q = np.sqrt(np.maximum((d - m) * (d + m), 0.0))
    kap = np.sqrt((1.0 - e) * (1.0 + e))
    qa = q * a
    if parity == "even":
        return kap * np.cos(qa) - q * np.sin(qa)
    return kap * a * np.sinc(qa / np.pi) + np.cos(qa)


def _root_cells(v0: float, a: float, g_t: float, parity: str, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Cells of a uniform grid with density n points per unit width 2 where
    the residual changes sign."""
    los: list[np.ndarray] = []
    his: list[np.ndarray] = []
    for e_lo, e_hi in _propagating_intervals(v0, a, g_t):
        count = max(2, int(round(n * (e_hi - e_lo) / 2.0)))
        step = (e_hi - e_lo) / (count - 1)
        for first in range(0, count - 1, _CHUNK):
            idx = np.arange(first, min(count, first + _CHUNK + 1), dtype=float)
            e = np.minimum(e_lo + step * idx, e_hi)
            neg = np.signbit(_residual(e, v0, a, g_t, parity))
            cells = np.nonzero(neg[:-1] != neg[1:])[0]
            los.append(e[cells])
            his.append(e[cells + 1])
    if not los:
        return np.empty(0), np.empty(0)
    return np.concatenate(los), np.concatenate(his)


def reference_levels(v0: float, half_width_a: float, g_t: float) -> ReferenceLevels:
    cells = {}
    for parity in ("even", "odd"):
        coarse, _ = _root_cells(v0, half_width_a, g_t, parity, GRID_POINTS)
        lo, hi = _root_cells(v0, half_width_a, g_t, parity, 2 * GRID_POINTS)
        if len(coarse) != len(lo):
            raise UnresolvedReference(
                f"{parity} count {len(coarse)} -> {len(lo)} on doubling the grid "
                f"(v0={v0}, a={half_width_a}, g_t={g_t})"
            )
        cells[parity] = (lo, hi)
    return ReferenceLevels(*cells["even"], *cells["odd"])


def match_levels(ref: ReferenceLevels, levels: list[tuple[float, str]]) -> tuple[int, int]:
    """(found, spurious): reference levels with a returned level of the same
    parity inside their cell, and returned levels inside no reference cell or
    sharing one with another returned level."""
    found = spurious = 0
    for parity, lo, hi in (("even", ref.even_lo, ref.even_hi), ("odd", ref.odd_lo, ref.odd_hi)):
        hit = np.zeros(len(lo), dtype=bool)
        for e, p in levels:
            if p != parity:
                continue
            i = int(np.searchsorted(hi, e - _CELL_SLACK))  # first cell ending at or above e
            if i < len(lo) and lo[i] - _CELL_SLACK <= e and not hit[i]:
                hit[i] = True
            else:
                spurious += 1
        found += int(hit.sum())
    return found, spurious

"""Bound-state spectra, quantization residuals, sweeps, and SSW coalescence."""

import dataclasses
import math
import random
from collections import Counter

import numpy as np
import pytest

from kgsquare import (
    DomainError,
    NumericalError,
    PotentialConfig,
    antiparticle_crossover_energy,
    count_imaginary_q_solutions,
    detect_ssw,
    find_bound_states,
    pole_residual,
    quantization_residual,
    spectrum_sweep,
    z0_of,
)
from kgsquare import bound
from kgsquare.bound import SSW_V0_TOL
from kgsquare.cli import SWEEP_BOUND_PRESETS
from kgsquare.core import E_MARGIN, interior_q_squared
from kgsquare.oracle import OracleConfig, oracle_bound_states

# Frozen regression anchors for the g_t=1, a=0.5 coalescence (well deepening
# past V0 ~ -2.25 merges the even particle/antiparticle pair).
SSW_V0 = -2.2526775990478694
SSW_E = -0.8558233459004724


# (V0, a, g_t) -> (even, odd) level counts of wide wells, from a dense
# sign-change scan of the parity residuals (2^21 points over the window, the
# count unchanged from 2^20 points). V0 is the middle of the per-g_t depth
# window of the wide-well benchmark, plus one deeper scalar well.
WIDE_WELL_COUNTS = {
    (-1.0, 5.0, 1.0): (3, 3),
    (-1.75, 5.0, 0.5): (3, 3),
    (-1.25, 5.0, 0.0): (4, 4),
    (-1.0, 20.0, 1.0): (12, 11),
    (-1.75, 20.0, 0.5): (12, 12),
    (-1.25, 20.0, 0.0): (14, 12),
    (-1.0, 50.0, 1.0): (28, 28),
    (-1.75, 50.0, 0.5): (30, 30),
    (-1.25, 50.0, 0.0): (32, 30),
    (-1.0, 100.0, 1.0): (56, 55),
    (-1.75, 100.0, 0.5): (60, 60),
    (-1.25, 100.0, 0.0): (62, 62),
    (-1.0, 200.0, 1.0): (111, 110),
    (-1.75, 200.0, 0.5): (120, 119),
    (-1.25, 200.0, 0.0): (124, 124),
    (-1.0, 400.0, 1.0): (221, 221),
    (-1.75, 400.0, 0.5): (239, 238),
    (-1.25, 400.0, 0.0): (248, 246),
    (-1.5, 400.0, 0.0): (222, 220),
}


# name -> (g_t, a, V0 min, grid sizes) of sweeps over [V0 min, -0.01]
GRID_SWEEPS = {
    "fig5": (1.0, 0.5, -4.0, (241, 801, 3201, 6401)),
    "fig6": (0.75, 0.5, -4.0, (241, 801, 3201, 6401)),
    "gt1-a0.5": (1.0, 0.5, -6.0, (241, 801, 3201, 6401)),
    "gt0.75-a1": (0.75, 1.0, -8.0, (241, 801, 3201, 6401)),
    "gt0.75-a2": (0.75, 2.0, -8.0, (801, 3201, 6401)),
}


def _residual_sign_changes(cfg: PotentialConfig, parity: str, e_lo: float, e_hi: float) -> int:
    """Sign changes of the parity residual kappa cos(qa) - q sin(qa) (even)
    or kappa sin(qa)/q + cos(qa) (odd) on 8001 energies in [e_lo, e_hi],
    where the interior must be propagating."""
    e = np.linspace(e_lo, e_hi, 8001)
    d = e - cfg.g_t * cfg.v0
    m = 1.0 + cfg.g_s * cfg.v0
    q2 = (d - m) * (d + m)
    assert (q2 > 0.0).all()
    q = np.sqrt(q2)
    kap = np.sqrt((1.0 - e) * (1.0 + e))
    qa = q * cfg.half_width_a
    f = kap * np.cos(qa) - q * np.sin(qa) if parity == "even" else kap * np.sin(qa) / q + np.cos(qa)
    return int(np.count_nonzero(np.signbit(f[:-1]) != np.signbit(f[1:])))


def _propagating_sign_changes(cfg: PotentialConfig, parity: str) -> int:
    """Sign changes of the parity residual of _residual_sign_changes over the
    propagating part of the bound window, branch by branch, at energies
    evenly spaced in q: 20 per pi/2 of qa (about 20 per level), and at least
    8001 per branch."""
    vt, m, a = cfg.g_t * cfg.v0, abs(1.0 + cfg.g_s * cfg.v0), cfg.half_width_a
    count = 0
    for s in (1.0, -1.0):
        w_lo, w_hi = sorted((s * (-1.0 + E_MARGIN - vt), s * (1.0 - E_MARGIN - vt)))
        w_lo = max(w_lo, m)
        if not w_hi > w_lo:
            continue
        q_lo, q_hi = math.sqrt((w_lo - m) * (w_lo + m)), math.sqrt((w_hi - m) * (w_hi + m))
        q = np.linspace(q_lo, q_hi, max(8001, int(20 * (q_hi - q_lo) * a / (0.5 * math.pi))))
        q = q[q > 0.0]
        e = vt + s * np.hypot(q, m)
        kap = np.sqrt((1.0 - e) * (1.0 + e))
        qa = q * a
        f = kap * np.cos(qa) - q * np.sin(qa) if parity == "even" else kap * np.sin(qa) / q + np.cos(qa)
        count += int(np.count_nonzero(np.signbit(f[:-1]) != np.signbit(f[1:])))
    return count


def _cfg_at_phase(energy_e: float, phase: float, a: float = 1.0) -> PotentialConfig:
    """Pure vector well whose interior phase q*a equals ``phase`` at E."""
    v0 = energy_e - math.sqrt((phase / a) ** 2 + 1.0)
    return PotentialConfig(v0, a, 1.0)


class TestQuantizationResidual:
    def test_half_pi_phase(self):
        # qa = pi/2: even residual reduces to -q, odd to +kappa.
        cfg = _cfg_at_phase(0.5, math.pi / 2.0)
        q = math.pi / 2.0
        kappa = math.sqrt(0.75)
        assert quantization_residual(0.5, cfg, "even") == pytest.approx(-q, abs=1e-12)
        assert quantization_residual(0.5, cfg, "odd") == pytest.approx(kappa, abs=1e-12)

    def test_pi_phase_is_not_automatically_bound(self):
        # qa = pi (a transmission-resonance phase): both residuals are nonzero.
        cfg = _cfg_at_phase(0.5, math.pi)
        q = math.pi
        kappa = math.sqrt(0.75)
        assert quantization_residual(0.5, cfg, "odd") == pytest.approx(-q, abs=1e-12)
        assert quantization_residual(0.5, cfg, "even") == pytest.approx(-kappa, abs=1e-12)

    def test_domain_errors(self):
        cfg = PotentialConfig(-1.0, 0.5, 1.0)
        with pytest.raises(DomainError):
            quantization_residual(1.0, cfg, "even")
        with pytest.raises(DomainError):
            quantization_residual(0.99, PotentialConfig(0.0, 1.0, 1.0), "even")


class TestZ0:
    def test_scalar_depth_limit(self):
        assert z0_of(0.3, PotentialConfig(-2.0, 5.0, 0.0)) == 0.0

    def test_unit_radicand(self):
        assert z0_of(0.0, PotentialConfig(-1.0, 0.7, 1.0)) == pytest.approx(0.7, abs=1e-15)

    def test_negative_radicand_rejected(self):
        with pytest.raises(DomainError):
            z0_of(0.3, PotentialConfig(-2.5, 5.0, 0.0))

    @pytest.mark.parametrize(
        "v0,a,g_t",
        [(-0.2, 0.5, 1.0), (-1.0, 0.5, 1.0), (-1.2, 5.0, 0.0), (-1.5, 5.0, 0.5)],
    )
    def test_circle_identity(self, v0, a, g_t):
        # z0^2 = z^2 + (kappa a)^2 ties the phase to the well geometry.
        cfg = PotentialConfig(v0, a, g_t)
        for s in find_bound_states(cfg):
            kappa_a = math.sqrt((1.0 - s.energy_e) * (1.0 + s.energy_e)) * a
            assert s.z0**2 - s.z**2 - kappa_a**2 == pytest.approx(
                0.0, abs=1e-12 * max(1.0, s.z0**2)
            )
            assert s.z < s.z0


class TestFindBoundStates:
    def test_free_particle_empty(self):
        assert find_bound_states(PotentialConfig(0.0, 1.0, 1.0)) == []

    def test_beyond_scalar_depth_limit_empty(self):
        assert find_bound_states(PotentialConfig(-2.5, 5.0, 0.0)) == []

    def test_shallow_well_has_even_state_near_threshold(self):
        states = find_bound_states(PotentialConfig(-0.2, 0.5, 1.0))
        assert len(states) == 1
        assert states[0].parity == "even"
        assert states[0].energy_e == pytest.approx(0.97936870006225574, rel=1e-12)
        assert states[0].z == pytest.approx(0.31261419141112851, rel=1e-12)
        assert states[0].z0 == pytest.approx(0.32853747123612187, rel=1e-12)

    def test_mid_depth_frozen(self):
        states = find_bound_states(PotentialConfig(-1.0, 0.5, 1.0))
        assert [(s.index_n, s.parity) for s in states] == [(1, "even")]
        assert states[0].energy_e == pytest.approx(0.56430564071997369, rel=1e-12)

    def test_scalar_well_frozen_spectrum(self):
        states = find_bound_states(PotentialConfig(-1.2, 5.0, 0.0))
        expected = [
            (-0.99071570043673896, "odd"),
            (-0.78946932424543848, "even"),
            (-0.55444904523217053, "odd"),
            (-0.32831458378050826, "even"),
            (0.32831458378050826, "even"),
            (0.55444904523217053, "odd"),
            (0.78946932424543859, "even"),
            (0.99071570043673896, "odd"),
        ]
        assert len(states) == len(expected)
        assert [s.index_n for s in states] == list(range(1, 9))
        for s, (energy, parity) in zip(states, expected):
            assert s.parity == parity
            assert s.energy_e == pytest.approx(energy, rel=1e-11, abs=1e-13)

    def test_invariants_on_every_state(self):
        for v0, a, g_t in [(-0.2, 0.5, 1.0), (-1.0, 0.5, 1.0), (-1.2, 5.0, 0.0), (-1.5, 5.0, 0.5)]:
            cfg = PotentialConfig(v0, a, g_t)
            states = find_bound_states(cfg)
            energies = [s.energy_e for s in states]
            assert energies == sorted(energies)
            for s in states:
                assert abs(s.energy_e) < 1.0
                q2 = (s.energy_e - g_t * v0) ** 2 - (1.0 + (1.0 - g_t) * v0) ** 2
                assert q2 > 0.0
                assert abs(quantization_residual(s.energy_e, cfg, s.parity)) < 1e-10
                assert pole_residual(s.energy_e, cfg) < 1e-8

    def test_parity_alternates_in_phase_order(self):
        # With z0 > pi the levels alternate even/odd as the phase z grows.
        for v0, a, g_t in [(-1.2, 5.0, 0.0), (-1.5, 5.0, 0.5)]:
            states = find_bound_states(PotentialConfig(v0, a, g_t))
            by_z: dict[float, str] = {}
            for s in states:
                by_z.setdefault(round(s.z, 9), s.parity)
            parities = [by_z[z] for z in sorted(by_z)]
            assert parities == ["even" if i % 2 == 0 else "odd" for i in range(len(parities))]

    def test_deep_well_phases_approach_half_pi_multiples(self):
        # Wide balanced well: lowest phases z_n lock to n pi / 2 within 2%.
        states = find_bound_states(PotentialConfig(-1.0, 60.0, 0.5))
        assert len(states) > 40
        zs = sorted(s.z for s in states)
        for n, z in enumerate(zs[:4], start=1):
            assert z == pytest.approx(n * math.pi / 2.0, rel=0.02)

    def test_resolves_near_coalescent_pair(self):
        # 1e-8 from the critical depth the even pair is split by ~1e-4 and
        # both levels must still be found, one on each side of the minimum
        # of the phase function.
        states = find_bound_states(PotentialConfig(SSW_V0 + 1e-8, 0.5, 1.0))
        pair = [s for s in states if s.parity == "even" and s.energy_e < -0.5]
        assert len(pair) == 2
        gap = abs(pair[1].energy_e - pair[0].energy_e)
        assert 1e-5 < gap < 1e-3
        for s in pair:
            assert s.energy_e == pytest.approx(SSW_E, abs=1e-3)

    @pytest.mark.parametrize("v0,a,g_t", list(WIDE_WELL_COUNTS))
    def test_wide_well_level_counts(self, v0, a, g_t):
        # Level spacings shrink toward the interior threshold q = 0.
        states = find_bound_states(PotentialConfig(v0, a, g_t))
        even = sum(s.parity == "even" for s in states)
        assert (even, len(states) - even) == WIDE_WELL_COUNTS[(v0, a, g_t)]

    def test_level_counts_match_residual_sign_changes(self):
        # seeded wells up to a = 400, each parity counted by an independent scan
        rng = np.random.default_rng(15)
        for _ in range(60):
            a = float(np.exp(rng.uniform(math.log(0.03), math.log(400.0))))
            cfg = PotentialConfig(float(rng.uniform(-6.0, 3.0)), a, float(rng.uniform(0.0, 1.0)))
            parities = Counter(s.parity for s in find_bound_states(cfg))
            for parity in ("even", "odd"):
                assert parities[parity] == _propagating_sign_changes(cfg, parity), (cfg, parity)

    def test_matches_shooting_oracle(self):
        ocfg = OracleConfig(step_count=4000)
        for v0, a, g_t in [(-1.0, 0.5, 1.0), (-1.2, 5.0, 0.0)]:
            cfg = PotentialConfig(v0, a, g_t)
            solver = [(s.energy_e, s.parity) for s in find_bound_states(cfg)]
            oracle = oracle_bound_states(cfg, ocfg)
            assert len(solver) == len(oracle)
            for (e_s, p_s), (e_o, p_o) in zip(solver, oracle):
                assert p_s == p_o
                assert e_s == pytest.approx(e_o, abs=1e-8)


class TestDualityAndImaginaryQ:
    @pytest.mark.parametrize("energy", [0.4, 0.62, 0.9])
    def test_pole_residual_factorizes(self, energy):
        # |D(k -> i kappa)| = 2 |f_even f_odd|: bound states are exactly the
        # poles of the transmission amplitude continued below threshold.
        cfg = PotentialConfig(-1.2, 5.0, 0.0)
        product = 2.0 * abs(
            quantization_residual(energy, cfg, "even")
            * quantization_residual(energy, cfg, "odd")
        )
        assert pole_residual(energy, cfg) == pytest.approx(product, rel=1e-12)

    def test_pole_residual_overflow_is_inf(self):
        # evanescent interior: |D| grows like cosh(2 |q| a), here with 2 |q| a ~ 2700
        assert pole_residual(0.3, PotentialConfig(3.0, 400.0, 0.2)) == math.inf

    @pytest.mark.parametrize(
        "v0,a,g_t",
        [(-1.5, 0.5, 1.0), (-1.2, 5.0, 0.0), (-1.5, 5.0, 0.5), (-3.0, 5.0, 0.25)],
    )
    def test_no_imaginary_q_solutions(self, v0, a, g_t):
        assert count_imaginary_q_solutions(PotentialConfig(v0, a, g_t)) == 0


class TestSpectralSymmetries:
    def test_vector_well_mirror(self):
        # g_t = 1: spectrum at -V0 is the negated spectrum at +V0.
        well = find_bound_states(PotentialConfig(-1.7, 0.5, 1.0))
        barrier = find_bound_states(PotentialConfig(1.7, 0.5, 1.0))
        assert len(well) == len(barrier) == 1
        assert well[0].energy_e == pytest.approx(-0.05536401593472954, rel=1e-10)
        assert well[0].energy_e == pytest.approx(-barrier[0].energy_e, abs=1e-9)

    def test_scalar_well_energy_mirror(self):
        states = find_bound_states(PotentialConfig(-1.2, 5.0, 0.0))
        energies = sorted(s.energy_e for s in states)
        for e_low, e_high in zip(energies, reversed(energies)):
            assert e_low == pytest.approx(-e_high, abs=1e-9)
        assert all(abs(s.energy_e) > 1e-9 for s in states)

    def test_scalar_well_depth_mirror(self):
        left = [s.energy_e for s in find_bound_states(PotentialConfig(-1.2, 5.0, 0.0))]
        right = [s.energy_e for s in find_bound_states(PotentialConfig(-0.8, 5.0, 0.0))]
        assert len(left) == len(right)
        for e_l, e_r in zip(left, right):
            assert e_l == pytest.approx(e_r, abs=1e-9)

    def test_scalar_well_empty_at_depth_limit(self):
        assert find_bound_states(PotentialConfig(-2.0, 5.0, 0.0)) == []


@pytest.fixture(scope="module")
def fig5_sweep():
    return spectrum_sweep(1.0, 0.5, np.linspace(-4.0, -0.01, 241))


class TestSpectrumSweep:
    def test_ssw_event_found_and_refined(self, fig5_sweep):
        events = fig5_sweep.ssw_events
        assert len(events) == 1
        event = events[0]
        assert event.parity == "even"
        assert event.v0_critical == pytest.approx(SSW_V0, abs=1e-6)
        assert event.e_critical == pytest.approx(SSW_E, abs=1e-6)
        assert abs(event.e_critical) < 1.0 - 1e-6

    @pytest.mark.parametrize("g_t, a, v0_min, sizes", list(GRID_SWEEPS.values()), ids=list(GRID_SWEEPS))
    def test_ssw_independent_of_grid_resolution(self, g_t, a, v0_min, sizes):
        # Branches, dives and coalescences are properties of the spectrum,
        # not of the grid that samples it.
        summaries = {}
        for n in sizes:
            sweep = spectrum_sweep(g_t, a, np.linspace(v0_min, -0.01, n))
            events = sorted(sweep.ssw_events, key=lambda ev: ev.v0_critical)
            summaries[n] = (
                len(sweep.branches),
                len(sweep.disappearance_events),
                [ev.parity for ev in events],
                [ev.v0_critical for ev in events],
            )
        branches, dives, parities, v0cs = summaries[801]
        assert v0cs
        for n, (b, d, p, v) in summaries.items():
            assert (b, d, p) == (branches, dives, parities), n
            for v0c, v0c_801 in zip(v, v0cs):
                assert abs(v0c - v0c_801) <= SSW_V0_TOL, n

    def test_detect_ssw_matches_sweep(self, fig5_sweep):
        refined = detect_ssw(fig5_sweep)
        assert len(refined) == 1
        v0_c, e_c = refined[0]
        assert v0_c == pytest.approx(fig5_sweep.ssw_events[0].v0_critical, abs=1e-9)
        assert e_c == pytest.approx(fig5_sweep.ssw_events[0].e_critical, abs=1e-7)

    def test_branches_are_parity_pure_and_continuous(self, fig5_sweep):
        for branch in fig5_sweep.branches:
            assert len(branch.v0s) == len(branch.states)
            assert {s.parity for s in branch.states} == {branch.parity}
            energies = [s.energy_e for s in branch.states]
            for e_prev, e_next in zip(energies, energies[1:]):
                assert abs(e_next - e_prev) < 0.25

    @pytest.mark.parametrize(
        "preset, steps",
        [(p, None) for p in ("fig5", "fig6", "fig7", "fig8", "fig9")] + [("fig5", 3200)],
    )
    def test_continuum_dives_classified(self, preset, steps):
        p = SWEEP_BOUND_PRESETS[preset]
        grid = np.linspace(p["v0_min"], p["v0_max"], (steps or p["steps"]) + 1)
        sweep = spectrum_sweep(p["gt"], p["half_width"], grid)
        assert sweep.disappearance_events
        for dive in sweep.disappearance_events:
            assert dive.continuum in ("upper", "lower")
            assert abs(dive.last_energy) > 0.99

    def test_coalescences_near_the_continuum_edge(self):
        # Seven same-parity pairs of this well merge, some within 0.006 of
        # |E| = 1. Each is checked by counting sign changes of the parity
        # residual just above and just below the critical strength.
        sweep = spectrum_sweep(0.75, 2.0, np.linspace(-8.0, -0.01, 801))
        assert len(sweep.ssw_events) == 7
        for ev in sweep.ssw_events:
            counts = sorted(
                _residual_sign_changes(
                    PotentialConfig(ev.v0_critical + dv, 2.0, 0.75),
                    ev.parity,
                    ev.e_critical - 0.004,
                    ev.e_critical + 0.004,
                )
                for dv in (-1e-6, 1e-6)
            )
            assert counts == [0, 2], ev

    def test_levels_sharing_a_phase_key_raise(self, monkeypatch):
        # The sweep links levels by (s, j, orient); a duplicate must not be
        # merged silently into one branch.
        levels = bound._levels

        def first_root_twice(*args):
            out = levels(*args)
            return tuple(np.insert(x, 0, x[0]) for x in out)

        monkeypatch.setattr(bound, "_levels", first_root_twice)
        with pytest.raises(NumericalError, match="at V0=-4.0$"):
            spectrum_sweep(1.0, 0.5, np.linspace(-4.0, -0.01, 41))

    def test_balanced_well_has_no_ssw_and_particle_branches(self):
        sweep = spectrum_sweep(0.5, 5.0, np.linspace(-4.0, -0.01, 201))
        assert sweep.ssw_events == []
        assert sweep.ssw_candidates == []
        assert detect_ssw(sweep) == []
        assert sweep.branches
        assert all(b.label == "particle" for b in sweep.branches)

    def test_scalar_well_has_no_ssw(self):
        sweep = spectrum_sweep(0.0, 5.0, np.linspace(-1.99, -0.01, 201))
        assert sweep.ssw_events == []
        assert detect_ssw(sweep) == []

    def test_threads_do_not_change_results(self):
        grid = np.linspace(-4.0, -0.01, 121)
        serial = spectrum_sweep(1.0, 0.5, grid, threads=1)
        threaded = spectrum_sweep(1.0, 0.5, grid, threads=4)
        assert len(serial.branches) == len(threaded.branches)
        for b_s, b_t in zip(serial.branches, threaded.branches):
            assert b_s.v0s == b_t.v0s
            assert [s.energy_e for s in b_s.states] == [s.energy_e for s in b_t.states]

    def test_rejects_non_monotone_grid(self):
        with pytest.raises(DomainError):
            spectrum_sweep(1.0, 0.5, [-1.0, -2.0, -1.5])

    @pytest.mark.parametrize(
        "g_t, a, grid, message",
        [
            (1.5, 0.5, [-2.0, -1.0], "g_t must lie in [0, 1], got 1.5"),
            (math.nan, 0.5, [-2.0, -1.0], "g_t must lie in [0, 1], got nan"),
            (0.5, 0.0, [-2.0, -1.0], "half_width_a must be positive, got 0.0"),
            (0.5, math.inf, [-2.0, -1.0], "half_width_a must be positive, got inf"),
            (0.5, 1.0, [-2.0, -1.0, math.inf], "v0 must be finite, got inf"),
            (0.5, 1.0, [-math.inf, -2.0, -1.0], "v0 must be finite, got -inf"),
            # the half-width check comes first
            (1.5, 0.0, [-math.inf, -1.0], "half_width_a must be positive, got 0.0"),
        ],
        ids=["gt-above-1", "gt-nan", "a-zero", "a-inf", "v0-last-inf", "v0-first-inf", "precedence"],
    )
    def test_rejects_invalid_well_or_strength(self, g_t, a, grid, message):
        with pytest.raises(DomainError) as err:
            spectrum_sweep(g_t, a, grid)
        assert str(err.value) == message

    @pytest.mark.parametrize(
        "g_t, a",
        [(np.float32(0.3), 5.0), (np.float32(0.1), 5.0), (0.9, np.float32(0.7))],
        ids=["gt-0.3", "gt-0.1", "a-0.7"],
    )
    def test_numpy_scalar_well_solves_as_its_floats(self, g_t, a):
        # numpy 2 keeps float32 arithmetic between float32 scalars, so the
        # sweep must solve with the float values; the a = 0.7 well has coalescences
        grid = np.linspace(-4.0, -0.01, 201)
        assert spectrum_sweep(g_t, a, grid) == spectrum_sweep(float(g_t), float(a), grid)

    def test_sweep_reports_the_float_well(self):
        sweep = spectrum_sweep(np.float32(0.1), np.float32(5.0), np.linspace(-1.0, -0.01, 5))
        assert type(sweep.g_t) is float and sweep.g_t == float(np.float32(0.1))
        assert type(sweep.half_width_a) is float and sweep.half_width_a == 5.0


# Folds of the fig5 and fig6 level curves, solved to 50 digits with mpmath
# independently of the library.
FOLD_V0 = {"fig5": -2.252677598858633775708, "fig6": -2.540695628643266158692}

# name -> (g_t, a, V0 min, event count) of 801-point sweeps over [V0 min, -0.01]
FOLD_SWEEPS = {"fig5": (1.0, 0.5, -4.0, 1), "fig6": (0.75, 0.5, -4.0, 1), "gt0.75-a2": (0.75, 2.0, -8.0, 7)}


class TestSswFold:
    @pytest.mark.parametrize("preset", sorted(FOLD_V0))
    def test_fold_matches_the_50_digit_value(self, preset):
        p = SWEEP_BOUND_PRESETS[preset]
        sweep = spectrum_sweep(p["gt"], p["half_width"], np.linspace(p["v0_min"], p["v0_max"], p["steps"] + 1))
        (event,) = sweep.ssw_events
        assert abs(event.v0_critical - FOLD_V0[preset]) <= 1e-14

    @pytest.mark.parametrize("g_t, a, v0_min, count", list(FOLD_SWEEPS.values()), ids=list(FOLD_SWEEPS))
    def test_pair_exists_on_one_side_of_the_fold_only(self, g_t, a, v0_min, count):
        # 1e-12 on either side of the critical strength, the parity residual
        # has the two roots of the pair on one side and none on the other.
        sweep = spectrum_sweep(g_t, a, np.linspace(v0_min, -0.01, 801))
        assert len(sweep.ssw_events) == count
        for ev in sweep.ssw_events:
            counts = sorted(
                _residual_sign_changes(
                    PotentialConfig(ev.v0_critical + dv, a, g_t),
                    ev.parity,
                    ev.e_critical - 4e-6,
                    ev.e_critical + 4e-6,
                )
                for dv in (-1e-12, 1e-12)
            )
            assert counts == [0, 2], ev

    @staticmethod
    def _fig5_candidate() -> bound.SswCandidate:
        (cand,) = spectrum_sweep(1.0, 0.5, np.linspace(-4.0, -0.01, 801)).ssw_candidates
        return cand

    @pytest.mark.parametrize(
        "case, message",
        [
            ("straddle", "pair straddles E = 0"),
            ("one-side", "no sign change of dV0/dz"),
            ("no-root", "0 strengths on branch s=-1.0"),
            ("two-roots", "2 strengths on branch s=1.0"),
            ("math-domain", r"fold solve failed \(math domain error\)"),
        ],
    )
    def test_fold_failures_name_the_candidate(self, case, message):
        fig5 = self._fig5_candidate()
        e_lo = fig5.pair[0]
        # a scalar-dominated well: both strength roots at E ~ 0.99 lie on branch s = +1
        scalar = bound.SswCandidate("even", -3.0, -3.01, (0.6, 0.7), (1.0, 0.0), 0, 1)
        g_t, cand = {
            "straddle": (1.0, dataclasses.replace(fig5, pair=(-0.1, 0.1))),
            "one-side": (1.0, dataclasses.replace(fig5, pair=(e_lo, e_lo + 1e-3))),
            "no-root": (0.25, dataclasses.replace(scalar, key=(-1.0, 0.0))),
            "two-roots": (0.25, scalar),
            "math-domain": (1.0, dataclasses.replace(fig5, pair=(-0.5, -0.4))),  # q^2 < 0 at v0_alive
        }[case]
        with pytest.raises(NumericalError, match=message) as err:
            bound._fold(g_t, 0.5, cand)
        assert str(err.value).endswith(repr(cand))

    def test_fold_raises_only_numerical_errors(self):
        rng = random.Random(2217)
        solved = 0
        for _ in range(3000):
            pair = tuple(sorted(rng.uniform(-1.0, 1.0) for _ in range(2)))
            key = (rng.choice([1.0, -1.0]), float(rng.randint(0, 4)))
            cand = bound.SswCandidate("even", rng.uniform(-10.0, 10.0), 0.0, pair, key, 0, 1)
            try:
                event = bound._fold(rng.uniform(0.0, 1.0), 10.0 ** rng.uniform(-1.0, 1.0), cand)
            except NumericalError:
                continue
            assert math.isfinite(event.v0_critical) and abs(event.e_critical) < 1.0
            solved += 1
        assert solved > 0


# a fig5 configuration: g_t = 1, a = 0.5, V0 on the 801-point preset grid
FIG5_CFG = PotentialConfig(float(np.linspace(-4.0, -0.01, 801)[600]), 0.5, 1.0)


def _check(cfg, energies, odd):
    """Run the vectorised level checks on the given (E, odd) levels of cfg."""
    e = np.asarray(energies, dtype=float)
    owner = np.zeros(e.size, dtype=int)
    return bound._check_levels(
        owner, e, np.asarray(odd, dtype=bool), np.array([cfg.v0]), cfg.half_width_a, cfg.g_t
    )


class TestBatchedSolve:
    @pytest.mark.parametrize(
        "preset, steps",
        [(p, None) for p in ("fig5", "fig6", "fig7", "fig8", "fig9")] + [("fig5", 3200), ("wide", None)],
    )
    def test_sweep_states_equal_single_solves(self, preset, steps):
        # "wide": a scalar well with dozens of levels at every strength of the batch
        wide = {"gt": 0.0, "half_width": 50.0, "v0_min": -1.99, "v0_max": -0.01, "steps": 80}
        p = SWEEP_BOUND_PRESETS.get(preset, wide)
        grid = np.linspace(p["v0_min"], p["v0_max"], (steps or p["steps"]) + 1)
        sweep = spectrum_sweep(p["gt"], p["half_width"], grid)
        singles = {
            v0: find_bound_states(PotentialConfig(v0, p["half_width"], p["gt"]))
            for v0 in sweep.v0_grid
        }
        for branch in sweep.branches:
            for v0, state in zip(branch.v0s, branch.states):
                assert state == singles[v0][state.index_n - 1]
        alive = Counter(v0 for branch in sweep.branches for v0 in branch.v0s)
        assert [len(singles[v0]) for v0 in sweep.v0_grid] == [alive[v0] for v0 in sweep.v0_grid]

    def test_phase_has_at_most_one_critical_point_a_minimum(self):
        # kappa phi' over 2000 seeded segments (s, a, g_t V0, 1 + g_s V0) of
        # the bound window changes sign at most once, and only from - to +.
        rng = np.random.default_rng(15)
        g_t, v0 = rng.uniform(0.0, 1.0, 8000), rng.uniform(-20.0, 20.0, 8000)
        a = np.exp(rng.uniform(math.log(0.01), math.log(400.0), 8000))
        s = rng.choice([1.0, -1.0], 8000)
        vt, m = g_t * v0, np.abs(1.0 + (1.0 - g_t) * v0)
        w_a, w_b = s * (-1.0 + E_MARGIN - vt), s * (1.0 - E_MARGIN - vt)
        w_lo, w_hi = np.maximum(np.minimum(w_a, w_b), m), np.maximum(w_a, w_b)
        segments = np.flatnonzero(w_hi > w_lo)[:2000]
        assert segments.size == 2000
        minima = 0
        for i in np.array_split(segments, 40):
            z_lo = a[i] * np.sqrt((w_lo[i] - m[i]) * (w_lo[i] + m[i]))
            z_hi = a[i] * np.sqrt((w_hi[i] - m[i]) * (w_hi[i] + m[i]))
            z = np.linspace(z_lo, z_hi, 20001, axis=1)
            rising = bound._phase(z, s[i, None], a[i, None], vt[i, None], m[i, None])[3] > 0.0
            flips = np.count_nonzero(rising[:, 1:] != rising[:, :-1], axis=1)
            assert (flips <= 1).all()
            assert not (rising[:, 0] & (flips == 1)).any()
            minima += int(flips.sum())
        assert minima > 500

    @pytest.mark.parametrize("cfg", [FIG5_CFG, PotentialConfig(-1.5, 400.0, 0.0)])
    def test_vectorised_checks_match_scalar_formulas(self, cfg):
        _, e, j, _, _ = bound._levels(np.array([cfg.v0]), cfg.half_width_a, cfg.g_t)
        z, z0 = _check(cfg, e, j % 2.0 == 1.0)
        a = cfg.half_width_a
        assert z.tolist() == [math.sqrt(interior_q_squared(x, cfg)) * a for x in e.tolist()]
        assert z0.tolist() == [z0_of(x, cfg) for x in e.tolist()]

    def test_vectorised_checks_still_armed(self, monkeypatch):
        _, e, j, _, _ = bound._levels(np.array([FIG5_CFG.v0]), FIG5_CFG.half_width_a, FIG5_CFG.g_t)
        odd = j % 2.0 == 1.0
        with pytest.raises(NumericalError, match="quantization residual"):
            _check(FIG5_CFG, e[:1] + 1e-6, odd[:1])
        # q^2 = (E - V0)^2 - 1 < 0 at E = V0 + 0.5 for g_t = 1
        with pytest.raises(NumericalError, match="non-propagating interior"):
            _check(FIG5_CFG, [FIG5_CFG.v0 + 0.5], [False])
        # the first failing level in level order is the one reported
        with pytest.raises(NumericalError, match=f"at E={e[0] + 1e-6}$"):
            _check(FIG5_CFG, [e[0] + 1e-6, FIG5_CFG.v0 + 0.5], [odd[0], False])
        monkeypatch.setattr(bound, "DUALITY_TOL", 0.0)
        with pytest.raises(NumericalError, match="pole-duality residual"):
            _check(FIG5_CFG, e, odd)


class TestAntiparticleCrossover:
    def test_class_c_value(self):
        assert antiparticle_crossover_energy(0.25) == pytest.approx(-1.0 / 3.0, rel=1e-15)
        assert antiparticle_crossover_energy(0.0) == 0.0

    def test_rejected_outside_class_c(self):
        for g_t in (0.5, 0.8, 1.0):
            with pytest.raises(DomainError):
                antiparticle_crossover_energy(g_t)

"""Scattering coefficients, amplitude ratios, resonances, and sweeps."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from kgsquare import (
    DomainError,
    PotentialConfig,
    amplitudes,
    coefficients,
    critical_potentials,
    resonance_energies,
    resonant_v0_for_energy,
    sweep_transmission,
    transmission_regime,
)
from kgsquare.oracle import _transmission_batch
from kgsquare.scatter import SWEEP_T_COLUMNS

finite = {"allow_nan": False, "allow_infinity": False}

valid_energy = st.floats(min_value=1.001, max_value=3.0, **finite)
valid_v0 = st.floats(min_value=-5.0, max_value=5.0, **finite)
valid_a = st.floats(min_value=0.2, max_value=3.0, **finite)
valid_gt = st.floats(min_value=0.0, max_value=1.0, **finite)


class TestCoefficients:
    def test_free_case_is_exact(self):
        assert coefficients(1.25, PotentialConfig(0.0, 1.0, 1.0)) == (0.0, 1.0)

    def test_vector_barrier_frozen(self):
        r, t = coefficients(1.1, PotentialConfig(3.0, 1.0, 1.0))
        assert t == pytest.approx(0.9794398201298196, rel=1e-13)
        assert r == pytest.approx(0.02056017987018044, rel=1e-12)

    def test_balanced_barrier_frozen(self):
        # Evanescent branch: g_t = 1/2 keeps q^2 < 0 for all V0 > V1.
        r, t = coefficients(1.1, PotentialConfig(2.0, 1.0, 0.5))
        assert t == pytest.approx(0.0002576237276452207, rel=1e-12)
        assert r == pytest.approx(0.9997423762723547, rel=1e-13)

    def test_deep_suppression_underflows_to_zero(self):
        r, t = coefficients(1.1, PotentialConfig(20000.0, 3.0, 0.5))
        assert t == 0.0
        assert r == 1.0

    def test_deep_suppression_stays_positive_before_overflow(self):
        r, t = coefficients(1.1, PotentialConfig(600.0, 3.0, 0.5))
        assert 0.0 < t < 1e-100
        assert r + t == pytest.approx(1.0, abs=1e-12)

    def test_numpy_scalar_inputs_are_coerced(self):
        # numpy scalars must neither warn on overflow nor leak into results.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cfg = PotentialConfig(np.float64(3.0), np.float64(60.0), np.float64(0.0))
            r, t = coefficients(np.float64(1.5), cfg)
            sol = amplitudes(np.float64(1.5), cfg)
        assert [type(x) for x in (cfg.v0, cfg.half_width_a, cfg.g_t, r, t, sol.r, sol.t)] == [float] * 7
        assert (r, t) == coefficients(1.5, PotentialConfig(3.0, 60.0, 0.0))

    def test_requires_propagating_incidence(self):
        for energy in (1.0, 0.5, -2.0):
            with pytest.raises(DomainError):
                coefficients(energy, PotentialConfig(1.0, 1.0, 1.0))

    @settings(max_examples=400, deadline=None)
    @given(valid_energy, valid_v0, valid_a, valid_gt)
    def test_conservation_and_bounds(self, energy, v0, a, g_t):
        r, t = coefficients(energy, PotentialConfig(v0, a, g_t))
        assert abs(r + t - 1.0) <= 1e-12
        assert 0.0 <= r <= 1.0
        assert 0.0 <= t <= 1.0

    def test_continuous_across_critical_strengths(self):
        # T is smooth in V0 through q^2 = 0; the gap across each critical
        # strength shrinks linearly with the probe offset.
        cases = [(1.1, 1.0, 1.0), (1.1, 0.5, 1.0), (1.1, 0.25, 3.0)]
        for energy, g_t, a in cases:
            v1, v2 = critical_potentials(energy, g_t)
            for vc in [v1] + ([v2] if v2 is not None else []):
                gaps = []
                for h in (1e-6, 1e-8, 1e-10):
                    lo = coefficients(energy, PotentialConfig(vc - h, a, g_t))[1]
                    hi = coefficients(energy, PotentialConfig(vc + h, a, g_t))[1]
                    gaps.append(abs(hi - lo))
                assert gaps[0] < 1e-4
                assert gaps[1] < 1e-6 and gaps[1] < gaps[0]
                assert gaps[2] <= 1e-8


class TestAmplitudes:
    def test_matches_closed_form_frozen(self):
        sol = amplitudes(1.1, PotentialConfig(3.0, 1.0, 1.0))
        assert sol.t == pytest.approx(0.9794398201298196, rel=1e-13)
        assert abs(sol.ratio_c_plus) ** 2 == pytest.approx(sol.t, abs=1e-12)
        assert abs(sol.ratio_a_minus) ** 2 == pytest.approx(sol.r, abs=1e-12)
        assert sol.interior_propagating
        assert sol.interior_charge_sign == "negative"

    def test_positive_charge_sign_below_dip(self):
        sol = amplitudes(1.25, PotentialConfig(0.05, 1.0, 0.5))
        assert sol.interior_charge_sign == "positive"

    def test_degenerate_basis_at_exact_critical(self):
        # At q^2 = 0 exactly the plane-wave interior basis degenerates and the
        # B+- ratios have no finite value; the closed forms stay regular.
        from kgsquare import NumericalError, interior_q_squared

        cfg = PotentialConfig(1.0, 1.0, 0.0)
        assert interior_q_squared(2.0, cfg) == 0.0
        r, t = coefficients(2.0, cfg)
        assert r + t == pytest.approx(1.0, abs=1e-12)
        assert 0.0 < t < 1.0
        with pytest.raises(NumericalError, match="denominator"):
            amplitudes(2.0, cfg)

    @settings(max_examples=300, deadline=None)
    @given(valid_energy, valid_v0, valid_a, valid_gt)
    def test_amplitude_closed_form_agreement(self, energy, v0, a, g_t):
        assume((energy - g_t * v0) ** 2 != (1.0 + (1.0 - g_t) * v0) ** 2)
        sol = amplitudes(energy, PotentialConfig(v0, a, g_t))
        assert abs(abs(sol.ratio_a_minus) ** 2 - sol.r) <= 1e-12
        assert abs(abs(sol.ratio_c_plus) ** 2 - sol.t) <= 1e-12
        assert sol.interior_charge_sign == (
            "negative" if energy < g_t * v0 else "positive"
        )

    @settings(max_examples=300, deadline=None)
    @given(valid_energy, valid_v0, valid_a, valid_gt)
    def test_current_uniformity(self, energy, v0, a, g_t):
        # The conserved current is the same in all three regions.
        assume((energy - g_t * v0) ** 2 != (1.0 + (1.0 - g_t) * v0) ** 2)
        cfg = PotentialConfig(v0, a, g_t)
        sol = amplitudes(energy, cfg)
        k = math.sqrt(energy * energy - 1.0)
        j_transmitted = k * abs(sol.ratio_c_plus) ** 2
        j_exterior = k * (1.0 - abs(sol.ratio_a_minus) ** 2)
        assert abs(j_exterior - j_transmitted) <= 1e-10
        q2 = (energy - g_t * v0) ** 2 - (1.0 + (1.0 - g_t) * v0) ** 2
        if q2 > 0.0:
            q = math.sqrt(q2)
            j_interior = q * (abs(sol.ratio_b_plus) ** 2 - abs(sol.ratio_b_minus) ** 2)
        else:
            mu = math.sqrt(-q2)
            j_interior = 2.0 * mu * (sol.ratio_b_plus.conjugate() * sol.ratio_b_minus).imag
        assert abs(j_interior - j_transmitted) <= 1e-10


class TestResonances:
    def test_energies_frozen(self):
        cfg = PotentialConfig(3.0, 1.0, 1.0)
        expected = [
            (1, 3.0 - math.sqrt((math.pi / 2.0) ** 2 + 1.0)),
            (1, 3.0 + math.sqrt((math.pi / 2.0) ** 2 + 1.0)),
            (2, 3.0 + math.sqrt(math.pi**2 + 1.0)),
            (3, 3.0 + math.sqrt((3.0 * math.pi / 2.0) ** 2 + 1.0)),
        ]
        got = resonance_energies(cfg, 3)
        assert [n for n, _ in got] == [n for n, _ in expected]
        for (_, e_got), (_, e_want) in zip(got, expected):
            assert e_got == pytest.approx(e_want, rel=1e-14)
        assert got[0][1] == pytest.approx(1.1379041108814134, rel=1e-13)

    def test_every_resonance_transmits_fully(self):
        for cfg in (
            PotentialConfig(3.0, 1.0, 1.0),
            PotentialConfig(-2.0, 0.7, 0.8),
            PotentialConfig(4.0, 2.0, 0.25),
        ):
            for _, energy in resonance_energies(cfg, 4):
                _, t = coefficients(energy, cfg)
                assert abs(t - 1.0) <= 1e-9

    def test_depths_quadratic_frozen(self):
        roots = resonant_v0_for_energy(1.1, 1.0, 1.0, 1)
        assert roots == pytest.approx(
            [-0.7620958891185866, 2.9620958891185865], rel=1e-13
        )
        for v0 in roots:
            _, t = coefficients(1.1, PotentialConfig(v0, 1.0, 1.0))
            assert abs(t - 1.0) <= 1e-9

    def test_depths_linear_balanced_case(self):
        roots = resonant_v0_for_energy(1.1, 0.5, 1.0, 1)
        assert len(roots) == 1
        assert roots[0] == pytest.approx(-1.0749529048915902, rel=1e-13)
        _, t = coefficients(1.1, PotentialConfig(roots[0], 1.0, 0.5))
        assert abs(t - 1.0) <= 1e-9

    def test_depths_negative_discriminant_empty(self):
        assert resonant_v0_for_energy(1.1, 0.0, 0.05, 9) == []

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            resonance_energies(PotentialConfig(3.0, 1.0, 1.0), 0)
        with pytest.raises(DomainError):
            resonant_v0_for_energy(0.9, 1.0, 1.0, 1)
        with pytest.raises(DomainError):
            resonant_v0_for_energy(1.1, 1.0, 1.0, 0)


class TestTransmissionRegime:
    @pytest.mark.parametrize(
        "energy,v0,g_t,a,expected",
        [
            (1.1, 0.05, 1.0, 1.0, "propagating-particle"),
            (1.1, 1.0, 1.0, 1.0, "evanescent"),
            (1.1, 3.0, 1.0, 1.0, "propagating-antiparticle"),
            (1.1, 2.0, 0.5, 1.0, "evanescent"),
            (1.1, -5.0, 0.25, 3.0, "evanescent"),
            (1.1, -2.0, 0.25, 3.0, "propagating-particle"),
        ],
    )
    def test_labels(self, energy, v0, g_t, a, expected):
        assert transmission_regime(energy, PotentialConfig(v0, a, g_t)) == expected


class TestSweepTransmission:
    def test_structure_and_order(self):
        grid = np.linspace(0.0, 10.0, 101)
        table = sweep_transmission(1.1, 1.0, 1.0, grid)
        assert table.columns == SWEEP_T_COLUMNS
        assert len(table.records) == 101
        assert [row["v0"] for row in table.records] == [float(v) for v in grid]

    def test_rejects_non_monotone_grid(self):
        with pytest.raises(DomainError):
            sweep_transmission(1.1, 1.0, 1.0, [0.0, 2.0, 1.0])
        with pytest.raises(DomainError):
            sweep_transmission(1.1, 1.0, 1.0, [0.0])

    def test_threads_do_not_change_bytes(self):
        grid = np.linspace(0.0, 10.0, 301)
        serial = sweep_transmission(1.1, 1.0, 1.0, grid, threads=1).to_csv()
        threaded = sweep_transmission(1.1, 1.0, 1.0, grid, threads=4).to_csv()
        assert serial == threaded

    def test_peak_positions_match_resonant_depths(self):
        # T = 1 peaks above V2 are the quadratic-inverse resonances plus the
        # single impedance-match point V0 = 2E where q = k kills reflection.
        grid = np.linspace(0.0, 10.0, 1001)
        table = sweep_transmission(1.1, 1.0, 1.0, grid)
        t_vals = [row["T"] for row in table.records]
        v_vals = [row["v0"] for row in table.records]
        _, v2 = critical_potentials(1.1, 1.0)
        peaks = [
            v_vals[i]
            for i in range(1, len(t_vals) - 1)
            if v_vals[i] > v2
            and t_vals[i] >= t_vals[i - 1]
            and t_vals[i] >= t_vals[i + 1]
            and t_vals[i] > 0.9
        ]
        expected = [2.0 * 1.1]
        n = 1
        while True:
            roots = [v for v in resonant_v0_for_energy(1.1, 1.0, 1.0, n) if v2 < v <= 10.0]
            if not roots and n > 1:
                break
            expected.extend(roots)
            n += 1
        assert len(peaks) == len(expected) == 6
        step = v_vals[1] - v_vals[0]
        for got, want in zip(sorted(peaks), sorted(expected)):
            assert abs(got - want) <= step

    def test_impedance_match_is_fully_transparent(self):
        # q^2 = k^2 at V0 = 2E for pure vector coupling: exact transparency
        # without satisfying the 2qa = n pi resonance condition.
        r, t = coefficients(1.1, PotentialConfig(2.2, 1.0, 1.0))
        assert t == 1.0
        assert r == 0.0


class TestOracleSpotAgreement:
    def test_matches_integrator_across_classes(self):
        rng = np.random.default_rng(42)
        n = 12
        energy = rng.uniform(1.05, 3.0, n)
        v0 = rng.uniform(-5.0, 5.0, n)
        g_t = rng.uniform(0.0, 1.0, n)
        a = rng.uniform(0.2, 2.0, n)
        _, t_oracle = _transmission_batch(energy, v0, g_t, a, 6000)
        for i in range(n):
            cfg = PotentialConfig(float(v0[i]), float(a[i]), float(g_t[i]))
            _, t_closed = coefficients(float(energy[i]), cfg)
            assert t_closed == pytest.approx(float(t_oracle[i]), abs=1e-6)

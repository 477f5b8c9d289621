"""Direct-integration verifiers: transmission integrator and parity shooting."""

import warnings

import numpy as np
import pytest

from kgsquare import (
    DomainError,
    OracleConfig,
    OracleFailure,
    PotentialConfig,
    find_bound_states,
    oracle_bound_states,
    oracle_transmission,
)
from kgsquare import oracle
from kgsquare.core import E_MARGIN, N_SCAN
from kgsquare.oracle import _propagator, _q2_at, _rk4, _transmission_batch

FAST = OracleConfig(step_count=2000)
GOLDEN = OracleConfig(step_count=4000)
# Accuracy the oracle is held to at FAST and GOLDEN steps.
TOLERANCE = 1e-8

# (E, V0, a, g_t) -> (R, T) of oracle_transmission at 4000 steps, recorded
# from the per-step reference integrator. One propagating (q^2 > 0) and one
# evanescent (q^2 < 0) interior per class A, B, C.
GOLDEN_TRANSMISSION = {
    (1.5, 0.2, 1.0, 0.75): (0.07131423318152971, 0.9286857668184708),
    (1.5, 2.0, 1.0, 0.75): (0.9909320503804779, 0.009067949619523615),
    (1.5, 0.2, 1.0, 0.5): (0.060987109259064885, 0.9390128907409393),
    (1.5, 2.0, 1.0, 0.5): (0.9987031110274395, 0.0012968889725618023),
    (1.5, 0.2, 1.0, 0.25): (0.05168544372071439, 0.948314556279285),
    (1.5, 2.0, 1.0, 0.25): (0.9997400044823297, 0.00025999551767182317),
}

# (E, V0, a, g_t, steps) -> (R, T) of oracle_transmission, exact to the bit,
# in wide wells and at step counts the goldens above miss: classes A, B, C,
# each with a propagating and an evanescent interior. At 1850 and 2085 steps
# across a = 400 the step is too coarse for R + T = 1; those entries pin the
# arithmetic, not the physics.
PINNED_TRANSMISSION = {
    (1.5, 0.2, 50.0, 0.75, 1000): (6.915282896250452e-05, 0.9999360261606991),
    (1.5, 0.6, 50.0, 0.75, 20000): (1.0000000000000013, 3.701556310432934e-41),
    (1.2, -0.5, 400.0, 0.9, 2085): (0.32243757196357203, 1.1609112890272684),
    (1.5, -1.0, 400.0, 0.5, 20000): (0.045475763524491744, 0.9545814666917962),
    (1.1, 0.3, 50.0, 0.5, 2085): (0.9999999999999998, 1.8193213508565606e-56),
    (1.3, -2.0, 400.0, 0.25, 1850): (0.3670690587951656, 41.45618084739288),
    (1.05, 0.1, 50.0, 0.25, 1000): (0.9999999999999998, 2.860868903063696e-28),
    (1.2, -0.5, 50.0, 0.0, 1850): (0.13535060979217137, 0.8646503236796736),
    (1.4, 0.8, 50.0, 0.0, 20000): (0.9999999999999993, 2.1061132971041407e-98),
}

# (g_t, a, V0) -> oracle_bound_states at 4000 steps, recorded from the
# per-parity bisection reference.
GOLDEN_LEVELS = {
    (0.75, 0.5, -2.5): [(-0.9012023566956691, "even"), (-0.6635168191119152, "even")],
    (0.5, 5.0, -3.5): [
        (-0.980905431173569, "even"),
        (-0.8608541044883535, "odd"),
        (-0.6674297647376675, "even"),
        (-0.43397409059557435, "odd"),
        (-0.17894476988633296, "even"),
        (0.08793350593869961, "odd"),
        (0.3609791453599368, "even"),
        (0.6357618721004477, "odd"),
        (0.904597319839495, "even"),
    ],
}

# (g_t, a, V0) -> oracle_bound_states at 4000 steps, exact to the bit;
# GOLDEN_LEVELS above agrees only to about 1e-11.
PINNED_LEVELS = {
    (1.0, 0.5, -2.5): [(0.9593371785796356, "odd")],
    (0.75, 0.5, -2.5): [(-0.9012023566852354, "even"), (-0.6635168190924077, "even")],
    (0.5, 5.0, -3.5): [
        (-0.9809054311494844, "even"),
        (-0.8608541044820289, "odd"),
        (-0.6674297647391241, "even"),
        (-0.43397409059295233, "odd"),
        (-0.17894476986905714, "even"),
        (0.08793350595260035, "odd"),
        (0.36097914536660847, "even"),
        (0.6357618721210945, "odd"),
        (0.9045973198487682, "even"),
    ],
    (0.25, 5.0, -2.5): [
        (0.2880827998756203, "even"),
        (0.3951848053835492, "odd"),
        (0.5542343730915239, "even"),
        (0.7457318605678744, "odd"),
        (0.946343821627885, "even"),
    ],
    (0.0, 5.0, -1.5): [
        (-0.89168909347295, "even"),
        (-0.7099900191269232, "odd"),
        (-0.5610454916166674, "even"),
        (0.5610454916166674, "even"),
        (0.7099900191269234, "odd"),
        (0.8916890934729502, "even"),
    ],
}

# Deep enough that the integrated solution overflows.
OVERFLOW = PotentialConfig(-1e6, 5.0, 0.5)


class TestOracleConfig:
    def test_defaults(self):
        ocfg = OracleConfig()
        assert ocfg.step_count == 20000

    def test_rejects_coarse_grid(self):
        with pytest.raises(DomainError):
            OracleConfig(step_count=999)


class TestOracleTransmission:
    def test_free_particle(self):
        r, t = oracle_transmission(1.25, PotentialConfig(0.0, 1.0, 1.0), FAST)
        assert t == pytest.approx(1.0, abs=TOLERANCE)
        assert r == pytest.approx(0.0, abs=TOLERANCE)

    def test_requires_propagating_incidence(self):
        with pytest.raises(DomainError):
            oracle_transmission(1.0, PotentialConfig(1.0, 1.0, 1.0), FAST)
        with pytest.raises(DomainError):
            oracle_transmission(0.9, PotentialConfig(1.0, 1.0, 1.0), FAST)

    def test_flux_conservation_random(self):
        rng = np.random.default_rng(20260815)
        for _ in range(8):
            energy = float(rng.uniform(1.02, 3.0))
            cfg = PotentialConfig(
                float(rng.uniform(-5.0, 5.0)),
                float(rng.uniform(0.2, 2.0)),
                float(rng.uniform(0.0, 1.0)),
            )
            r, t = oracle_transmission(energy, cfg, FAST)
            assert r + t == pytest.approx(1.0, abs=1e-7)

    def test_step_halving_converges(self):
        # Halving the step changes T by far less than the stated tolerance.
        cfg = PotentialConfig(3.0, 1.0, 1.0)
        _, t_coarse = oracle_transmission(1.1, cfg, OracleConfig(step_count=4000))
        _, t_fine = oracle_transmission(1.1, cfg, OracleConfig(step_count=8000))
        assert abs(t_fine - t_coarse) < TOLERANCE / 10.0

    def test_matches_closed_form_barrier(self):
        from kgsquare import coefficients

        cfg = PotentialConfig(3.0, 1.0, 1.0)
        r_o, t_o = oracle_transmission(1.1, cfg, OracleConfig(step_count=4000))
        r_c, t_c = coefficients(1.1, cfg)
        assert t_o == pytest.approx(t_c, abs=1e-6)
        assert r_o == pytest.approx(r_c, abs=1e-6)

    @pytest.mark.parametrize("inputs", sorted(GOLDEN_TRANSMISSION))
    def test_golden_values(self, inputs):
        energy, v0, a, g_t = inputs
        assert oracle_transmission(energy, PotentialConfig(v0, a, g_t), GOLDEN) == (
            GOLDEN_TRANSMISSION[inputs]
        )

    def test_golden_values_batch(self):
        inputs = sorted(GOLDEN_TRANSMISSION)
        energy, v0, a, g_t = (np.array(col) for col in zip(*inputs))
        r, t = _transmission_batch(energy, v0, g_t, a, GOLDEN.step_count)
        assert list(zip(r.tolist(), t.tolist())) == [GOLDEN_TRANSMISSION[i] for i in inputs]

    @pytest.mark.parametrize("steps", [1000, 2085, 3000])
    def test_single_sample_matches_batch_row(self, steps):
        # A single sample steps on Python scalars, a batch on arrays; both
        # must round alike, to the bit, and warn about nothing.
        rng = np.random.default_rng(20261018 + steps)
        energy, v0, g_t = rng.uniform(1.0, 3.0, 32), rng.uniform(-5.0, 5.0, 32), rng.uniform(0.0, 1.0, 32)
        a = np.exp(rng.uniform(np.log(0.2), np.log(20.0), 32))
        ocfg = OracleConfig(step_count=steps)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            r, t = _transmission_batch(energy, v0, g_t, a, steps)
            single = [
                oracle_transmission(float(e), PotentialConfig(float(v), float(w), float(g)), ocfg)
                for e, v, w, g in zip(energy, v0, a, g_t)
            ]
        assert single == list(zip(r.tolist(), t.tolist()))

    @pytest.mark.parametrize("inputs", sorted(PINNED_TRANSMISSION))
    def test_pinned_transmission(self, inputs):
        energy, v0, a, g_t, steps = inputs
        assert oracle_transmission(
            energy, PotentialConfig(v0, a, g_t), OracleConfig(step_count=steps)
        ) == PINNED_TRANSMISSION[inputs]

    def test_overflow_raises(self):
        # The exception alone reports the failure: no numpy warning before it.
        with warnings.catch_warnings(), pytest.raises(OracleFailure):
            warnings.simplefilter("error")
            oracle_transmission(1.5, OVERFLOW, OracleConfig(step_count=1000))

    def test_infinite_coefficients_raise(self):
        # The amplitudes stay finite but |a_minus/a_plus|^2 overflows: that is
        # a failure, not (R, T) = (inf, inf). The closed form gives T = 0.230.
        cfg = PotentialConfig(-4.225890301934019, 400.0, 0.987777576672508)
        with warnings.catch_warnings(), pytest.raises(OracleFailure):
            warnings.simplefilter("error")
            oracle_transmission(1.5995663395273003, cfg, OracleConfig(step_count=1850))

    def test_overflowing_square_gives_zero_transmission(self):
        # |a_plus|^2 overflows, so T is exactly 0, as in the closed form, and
        # no numpy warning escapes.
        cfg = PotentialConfig(0.5559611692072339, 400.0, 0.8796511733349222)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            r, t = oracle_transmission(1.1285224531806508, cfg, OracleConfig(step_count=2085))
        assert np.isfinite(r) and t == 0.0


def _random_starts(rng, size):
    """Complex (phi, phi'), real step h and real coefficient c. A quarter of the
    starts are purely real, so zero parts occur. With q h = sqrt|c| |h| <= 0.5,
    1000 steps grow a start by at most e^500, so every value stays finite."""
    phi, dphi = (
        10.0 ** rng.uniform(-3.0, 3.0, size) * np.exp(2j * np.pi * rng.uniform(size=size))
        for _ in range(2)
    )
    phi.imag[: size // 4], dphi.imag[: size // 4] = 0.0, 0.0
    h = rng.choice([-1.0, 1.0], size) * 10.0 ** rng.uniform(-4.0, -1.0, size)
    c = rng.choice([-1.0, 1.0], size) * (10.0 ** rng.uniform(-4.0, np.log10(0.5), size) / h) ** 2
    return phi, dphi, h, c


def _complex_stepping_transmission(energy_e, cfg, step_count):
    """(R, T) the way oracle_transmission computed it by stepping the complex
    wave: the same start and projection, with _rk4 on Python complex scalars."""
    e, v0, g_t, a = (np.asarray([x], dtype=float) for x in (energy_e, cfg.v0, cfg.g_t, cfg.half_width_a))
    c = -_q2_at(v0, e, g_t)
    k = np.sqrt(e * e - 1.0)
    with np.errstate(all="ignore"):
        phi = np.exp(1j * k * a)
        start = tuple(x.item() for x in (phi, 1j * k * phi, -2.0 * a / step_count, c))
        phi, dphi = np.atleast_1d(*_rk4(*start, step_count))
        exp_ika = np.exp(1j * k * a)
        a_plus = 0.5 * (phi + dphi / (1j * k)) * exp_ika
        a_minus = 0.5 * (phi - dphi / (1j * k)) / exp_ika
        r = np.abs(a_minus / a_plus) ** 2
        t = 1.0 / np.abs(a_plus) ** 2
    if not all(np.all(np.isfinite(x)) for x in (a_plus, a_minus, r, t)):
        raise OracleFailure("complex stepping produced non-finite values")
    return float(r[0]), float(t[0])


class TestRealStreams:
    """The transmission steps the real and imaginary parts of its wave as two
    real solutions. With real h and c that is the complex step's arithmetic,
    so (R, T) keeps every bit."""

    @pytest.mark.parametrize("steps", [1, 2, 1000])
    def test_complex_step_is_two_real_steps_on_arrays(self, steps):
        phi, dphi, h, c = _random_starts(np.random.default_rng(20261020 + steps), 500)
        re, im = _rk4(phi.real, dphi.real, h, c, steps), _rk4(phi.imag, dphi.imag, h, c, steps)
        for z, z_re, z_im in zip(_rk4(phi, dphi, h, c, steps), re, im):
            # == compares, so a zero part may differ in sign.
            assert np.array_equal(z.real, z_re) and np.array_equal(z.imag, z_im)

    @pytest.mark.parametrize("steps", [1, 2, 1000])
    def test_complex_step_is_two_real_steps_on_scalars(self, steps):
        starts = _random_starts(np.random.default_rng(20261021 + steps), 500)
        for phi, dphi, h, c in zip(*(x.tolist() for x in starts)):
            z = _rk4(phi, dphi, h, c, steps)
            re, im = _rk4(phi.real, dphi.real, h, c, steps), _rk4(phi.imag, dphi.imag, h, c, steps)
            assert [w.real for w in z] == list(re) and [w.imag for w in z] == list(im)

    def test_transmission_bits_match_complex_stepping(self):
        # Wells up to a = 400 and |V0| = 1e3: some overflow, and both paths
        # must then raise.
        rng = np.random.default_rng(20261022)
        failures = 0
        for _ in range(400):
            energy = float(1.0 + 10.0 ** rng.uniform(-4.0, 1.0))
            cfg = PotentialConfig(
                float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-3.0, 3.0)),
                float(np.exp(rng.uniform(np.log(0.05), np.log(400.0)))),
                float(rng.uniform(0.0, 1.0)),
            )
            steps = int(rng.integers(1000, 1101))
            try:
                want = _complex_stepping_transmission(energy, cfg, steps)
            except OracleFailure:
                failures += 1
                with pytest.raises(OracleFailure):
                    oracle_transmission(energy, cfg, OracleConfig(step_count=steps))
                continue
            got = oracle_transmission(energy, cfg, OracleConfig(step_count=steps))
            assert [x.hex() for x in got] == [x.hex() for x in want]
        assert 0 < failures < 400


class TestOracleBoundStates:
    def test_free_particle_empty(self):
        assert oracle_bound_states(PotentialConfig(0.0, 1.0, 1.0), FAST) == []

    def test_beyond_scalar_depth_limit_empty(self):
        assert oracle_bound_states(PotentialConfig(-2.5, 5.0, 0.0), FAST) == []

    def test_matches_quantization_solver(self):
        cfg = PotentialConfig(-1.0, 0.5, 1.0)
        oracle = oracle_bound_states(cfg, OracleConfig(step_count=4000))
        solver = find_bound_states(cfg)
        assert len(oracle) == len(solver) == 1
        (e_o, parity_o) = oracle[0]
        assert parity_o == solver[0].parity == "even"
        assert e_o == pytest.approx(solver[0].energy_e, abs=1e-8)

    @pytest.mark.parametrize("params", sorted(GOLDEN_LEVELS))
    def test_golden_levels(self, params):
        g_t, a, v0 = params
        levels = oracle_bound_states(PotentialConfig(v0, a, g_t), GOLDEN)
        golden = GOLDEN_LEVELS[params]
        assert [p for _, p in levels] == [p for _, p in golden]
        for (e, _), (e_golden, _) in zip(levels, golden):
            assert e == pytest.approx(e_golden, abs=1e-10)

    @pytest.mark.parametrize("params", sorted(PINNED_LEVELS))
    def test_pinned_levels(self, params):
        g_t, a, v0 = params
        assert oracle_bound_states(PotentialConfig(v0, a, g_t), GOLDEN) == PINNED_LEVELS[params]

    def test_overflow_raises(self):
        # The exception alone reports the failure: no numpy warning before it.
        with warnings.catch_warnings(), pytest.raises(OracleFailure):
            warnings.simplefilter("error")
            oracle_bound_states(OVERFLOW, OracleConfig(step_count=1000))

    def test_each_sign_change_is_one_level(self, monkeypatch):
        # Two even roots 8e-11 apart, on either side of a scan energy, are two
        # levels; an odd mismatch that is exactly 0.0 at a scan energy is one.
        scan = np.linspace(-1.0 + E_MARGIN, 1.0 - E_MARGIN, N_SCAN)
        even_node, odd_node = scan[3000], scan[5000]

        def mismatch(energy_e, cfg, step_count):
            even = (energy_e - (even_node - 4e-11)) * (energy_e - (even_node + 4e-11))
            return np.stack([even, energy_e - odd_node])

        monkeypatch.setattr(oracle, "_shoot_mismatch", mismatch)
        levels = oracle_bound_states(PotentialConfig(-1.0, 1.0, 1.0), FAST)
        assert [p for _, p in levels] == ["even", "even", "odd"]
        for (e, _), root in zip(levels, (even_node - 4e-11, even_node + 4e-11, odd_node)):
            assert abs(e - root) <= 1e-10


class TestPropagator:
    @pytest.mark.parametrize(
        "cfg",
        [PotentialConfig(-2.5, 0.5, 0.75), PotentialConfig(-3.5, 5.0, 0.5), PotentialConfig(1.5, 2.0, 0.0)],
    )
    def test_matches_step_loop(self, cfg):
        # Repeated squaring regroups the rounding of 1000 steps, about 1e3 ulp
        # in all; 1e-10 (about 5e5 ulp) leaves a wide margin.
        m = 1000
        energy = np.linspace(-0.99, 0.99, 101)
        c = -_q2_at(np.asarray(cfg.v0), energy, np.asarray(cfg.g_t))
        h = cfg.half_width_a / m
        a11, a12, a21, a22 = _propagator(h, c, m)
        one, zero = np.ones_like(energy), np.zeros_like(energy)
        for start, columns in (((one, zero), (a11, a21)), ((zero, one), (a12, a22))):
            for got, want in zip(columns, _rk4(*start, h, c, m)):
                np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-10 * np.abs(want).max())

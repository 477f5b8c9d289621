"""Kinematics, classification, critical strengths, and channel densities."""

import math
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgsquare import (
    DomainError,
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
from kgsquare.core import CLASS_EPSILON, strength_roots

finite = {"allow_nan": False, "allow_infinity": False}


class TestPotentialConfig:
    def test_g_s_is_derived(self):
        cfg = PotentialConfig(1.0, 1.0, 0.3)
        assert cfg.g_s == pytest.approx(0.7, abs=1e-15)

    @pytest.mark.parametrize(
        "v0,a,gt",
        [
            (1.0, 0.0, 0.5),
            (1.0, -2.0, 0.5),
            (1.0, 1.0, -0.1),
            (1.0, 1.0, 1.1),
            (math.nan, 1.0, 0.5),
            (1.0, math.inf, 0.5),
        ],
    )
    def test_rejects_invalid_fields(self, v0, a, gt):
        with pytest.raises(DomainError):
            PotentialConfig(v0, a, gt)

    def test_immutable(self):
        cfg = PotentialConfig(1.0, 1.0, 0.5)
        with pytest.raises(Exception):
            cfg.v0 = 2.0


class TestClassify:
    def test_examples(self):
        assert classify(1.0) is SolutionClass.A
        assert classify(0.5) is SolutionClass.B
        assert classify(0.25) is SolutionClass.C

    def test_boundary_band(self):
        assert classify(0.5 + CLASS_EPSILON / 2) is SolutionClass.B
        assert classify(0.5 - CLASS_EPSILON / 2) is SolutionClass.B
        assert classify(0.5 + 10 * CLASS_EPSILON) is SolutionClass.A
        assert classify(0.5 - 10 * CLASS_EPSILON) is SolutionClass.C

    def test_domain(self):
        with pytest.raises(DomainError):
            classify(-0.01)
        with pytest.raises(DomainError):
            classify(1.01)

    @given(st.floats(min_value=0.0, max_value=1.0))
    def test_total_on_unit_interval(self, g_t):
        assert classify(g_t) in (SolutionClass.A, SolutionClass.B, SolutionClass.C)

    @given(
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=-CLASS_EPSILON / 2, max_value=CLASS_EPSILON / 2),
    )
    def test_stable_away_from_boundary(self, g_t, eps):
        # Perturbations below class_epsilon/2 cannot change the class unless
        # the point already sits inside the boundary band.
        if abs(g_t - 0.5) > 2 * CLASS_EPSILON and 0.0 <= g_t + eps <= 1.0:
            assert classify(g_t + eps) is classify(g_t)


class TestExteriorWavenumber:
    def test_threshold(self):
        k = exterior_wavenumber(1.0)
        assert k.magnitude == 0.0
        assert not k.is_imaginary

    def test_exact_square(self):
        k = exterior_wavenumber(1.25)
        assert k.magnitude == pytest.approx(0.75, abs=1e-15)
        assert not k.is_imaginary

    def test_fig_energy(self):
        k = exterior_wavenumber(1.1)
        assert k.magnitude == pytest.approx(math.sqrt(0.21), abs=1e-15)
        assert k.magnitude == pytest.approx(0.45826, abs=5e-6)

    def test_subluminal_is_imaginary(self):
        k = exterior_wavenumber(0.6)
        assert k.is_imaginary
        assert k.magnitude == pytest.approx(0.8, abs=1e-15)
        assert k.as_complex() == pytest.approx(0.8j, abs=1e-15)

    @given(st.floats(min_value=-5.0, max_value=5.0, **finite))
    def test_branch_exclusivity(self, energy):
        # Exactly one of k, kappa is real-positive away from |E| = 1.
        k = exterior_wavenumber(energy)
        if abs(energy) > 1.0:
            assert not k.is_imaginary and k.magnitude > 0.0
        elif abs(energy) < 1.0:
            assert k.is_imaginary and k.magnitude > 0.0
        assert k.magnitude**2 == pytest.approx(abs(energy**2 - 1.0), abs=1e-12)


class TestInteriorWavenumber:
    def test_free_case_matches_exterior(self):
        cfg = PotentialConfig(0.0, 1.0, 1.0)
        q = interior_wavenumber(1.25, cfg)
        assert q.magnitude == pytest.approx(0.75, abs=1e-15)
        assert not q.is_imaginary

    def test_scalar_cancels_mass(self):
        # g_t = 0, V0 = -1: the scalar part cancels the rest mass, q = E.
        cfg = PotentialConfig(-1.0, 1.0, 0.0)
        q = interior_wavenumber(1.1, cfg)
        assert q.magnitude == pytest.approx(1.1, abs=1e-15)

    def test_vector_barrier(self):
        cfg = PotentialConfig(3.0, 1.0, 1.0)
        q = interior_wavenumber(1.1, cfg)
        assert q.magnitude == pytest.approx(math.sqrt(2.61), rel=1e-15)
        assert q.magnitude == pytest.approx(1.61555, abs=5e-6)

    def test_evanescent_branch(self):
        cfg = PotentialConfig(2.0, 1.0, 0.5)
        q2 = interior_q_squared(1.1, cfg)
        q = interior_wavenumber(1.1, cfg)
        assert q2 == pytest.approx(-3.99, rel=1e-14)
        assert q.is_imaginary
        assert q.magnitude == pytest.approx(math.sqrt(3.99), rel=1e-14)


class TestKinematics:
    def test_bundle_consistency(self):
        cfg = PotentialConfig(3.0, 1.0, 1.0)
        kin = kinematics(1.1, cfg)
        assert kin.energy_e == 1.1
        assert kin.k_squared == pytest.approx(0.21, rel=1e-13)
        assert kin.q_squared == pytest.approx(2.61, rel=1e-14)
        assert kin.kappa is None

    def test_kappa_inside_gap(self):
        cfg = PotentialConfig(-1.0, 0.5, 1.0)
        kin = kinematics(0.6, cfg)
        assert kin.kappa == pytest.approx(0.8, abs=1e-15)
        assert kin.k.is_imaginary

    @given(
        st.floats(min_value=-3.0, max_value=3.0, **finite),
        st.floats(min_value=-5.0, max_value=5.0, **finite),
        st.floats(min_value=0.1, max_value=5.0, **finite),
        st.floats(min_value=0.0, max_value=1.0, **finite),
    )
    def test_q_squared_definition(self, energy, v0, a, g_t):
        cfg = PotentialConfig(v0, a, g_t)
        expected = (energy - g_t * v0) ** 2 - (1.0 + (1.0 - g_t) * v0) ** 2
        assert interior_q_squared(energy, cfg) == pytest.approx(expected, abs=1e-12)


class TestCriticalPotentials:
    def test_vector_case(self):
        v1, v2 = critical_potentials(1.1, 1.0)
        assert v1 == pytest.approx(0.1, abs=1e-15)
        assert v2 == pytest.approx(2.1, abs=1e-15)

    def test_balanced_case_has_single_critical(self):
        v1, v2 = critical_potentials(1.1, 0.5)
        assert v1 == pytest.approx(0.1, abs=1e-15)
        assert v2 is None

    def test_scalar_case(self):
        v1, v2 = critical_potentials(1.1, 0.0)
        assert v1 == pytest.approx(0.1, abs=1e-15)
        assert v2 == pytest.approx(-2.1, abs=1e-15)

    @settings(max_examples=200)
    @given(
        st.floats(min_value=1.0001, max_value=3.0, **finite),
        st.floats(min_value=0.0, max_value=1.0, **finite),
        st.floats(min_value=0.1, max_value=3.0, **finite),
    )
    def test_q_squared_vanishes_at_criticals(self, energy, g_t, a):
        v1, v2 = critical_potentials(energy, g_t)
        assert abs(interior_q_squared(energy, PotentialConfig(v1, a, g_t))) <= 1e-10
        # Rounding in the difference of squares grows like (g_t V2)^2 eps, so
        # the 1e-10 root check is only meaningful at moderate strengths.
        if v2 is not None and abs(v2) < 50.0:
            assert abs(interior_q_squared(energy, PotentialConfig(v2, a, g_t))) <= 1e-10


def _strength_inputs():
    """Seeded (E, q^2, g_t) triples of the three kinds the strength quadratic serves."""
    rng = random.Random(2201)
    for _ in range(1000):  # bound-window energies with beta = (E - 1) g_t + 1 < 0
        g_t = rng.uniform(0.55, 1.0)
        e = -1.0 + (2.0 - 1.0 / g_t) * 10.0 ** rng.uniform(-8.0, 0.0)
        assert (e - 1.0) * g_t + 1.0 < 0.0
        yield e, (10.0 ** rng.uniform(-4.0, 1.3) / rng.uniform(0.1, 10.0)) ** 2, g_t
    for _ in range(1000):  # the balanced band, where the equation is linear
        e = rng.choice([rng.uniform(-1.0, 1.0), rng.uniform(1.0, 10.0)])
        yield e, rng.uniform(0.0, 50.0), 0.5 + rng.uniform(-1.0, 1.0) * CLASS_EPSILON
    for _ in range(1000):  # transmission resonances, 2qa = n pi
        a, n = rng.uniform(0.1, 10.0), rng.randint(1, 20)
        yield 1.0 + 10.0 ** rng.uniform(-12.0, 1.0), (n * math.pi / (2.0 * a)) ** 2, rng.uniform(0.0, 1.0)


class TestStrengthRoots:
    def test_roots_reproduce_q_squared(self):
        eps = sys.float_info.epsilon
        count = 0
        for e, q2, g_t in _strength_inputs():
            for v in strength_roots(e, q2, g_t):
                d, m = e - g_t * v, 1.0 + (1.0 - g_t) * v
                # rounding of q^2 at V0, and of V0 itself carried by dq^2/dV0
                scale = d * d + m * m + 2.0 * abs(v) * (g_t * abs(d) + (1.0 - g_t) * abs(m))
                # inside the balanced band the (2 g_t - 1) V0^2 term is dropped
                c2 = 2.0 * g_t - 1.0
                dropped = abs(c2) * v * v if abs(c2) <= CLASS_EPSILON else 0.0
                residual = interior_q_squared(e, PotentialConfig(v, 1.0, g_t)) - q2
                assert abs(residual) <= 16.0 * eps * scale + dropped, (e, q2, g_t, v)
                count += 1
        assert count > 4000

    def test_ascending_and_empty_without_real_roots(self):
        assert strength_roots(0.5, 1.0, 0.5) == [(0.25 - 1.0 - 1.0) / (2.0 * 0.75)]  # beta = 0.75
        roots = strength_roots(-0.9, 4.0, 0.9)
        assert len(roots) == 2 and roots[0] < roots[1]
        assert strength_roots(0.0, 1.0, 0.2) == []  # scalar-dominated: q^2 above the parabola's peak


class TestChannelDensities:
    def test_exterior_plus(self):
        cfg = PotentialConfig(0.0, 1.0, 1.0)
        ch = channel_densities(1.25, cfg, "exterior", "plus")
        assert ch.rho == pytest.approx(1.25, abs=1e-15)
        assert ch.current_j == pytest.approx(0.75, abs=1e-15)
        assert ch.group_velocity == pytest.approx(0.6, abs=1e-15)

    def test_interior_negative_density(self):
        # Antiparticle regime: interior density E - g_t V0 < 0.
        cfg = PotentialConfig(3.0, 1.0, 1.0)
        ch = channel_densities(1.1, cfg, "interior", "plus")
        assert ch.rho == pytest.approx(-1.9, rel=1e-15)
        assert ch.group_velocity < 0.0

    def test_interior_positive_density(self):
        cfg = PotentialConfig(0.05, 1.0, 0.5)
        ch = channel_densities(1.1, cfg, "interior", "plus")
        assert ch.rho == pytest.approx(1.075, rel=1e-15)

    def test_minus_direction_flips_current(self):
        cfg = PotentialConfig(0.0, 1.0, 1.0)
        plus = channel_densities(1.25, cfg, "exterior", "plus")
        minus = channel_densities(1.25, cfg, "exterior", "minus")
        assert minus.current_j == -plus.current_j
        assert minus.rho == plus.rho

    def test_evanescent_channel_rejected(self):
        cfg = PotentialConfig(2.0, 1.0, 0.5)
        with pytest.raises(DomainError, match="no propagating channel"):
            channel_densities(1.1, cfg, "interior", "plus")
        with pytest.raises(DomainError, match="no propagating channel"):
            channel_densities(0.5, cfg, "exterior", "plus")

    @settings(max_examples=300)
    @given(
        st.floats(min_value=-3.0, max_value=3.0, **finite),
        st.floats(min_value=-5.0, max_value=5.0, **finite),
        st.floats(min_value=0.1, max_value=5.0, **finite),
        st.floats(min_value=0.0, max_value=1.0, **finite),
        st.sampled_from(["exterior", "interior"]),
        st.sampled_from(["plus", "minus"]),
    )
    def test_current_equals_density_times_group_velocity(
        self, energy, v0, a, g_t, region, direction
    ):
        cfg = PotentialConfig(v0, a, g_t)
        try:
            ch = channel_densities(energy, cfg, region, direction)
        except DomainError:
            return
        residual = abs(ch.current_j - ch.rho * ch.group_velocity)
        assert residual <= 1e-12 * max(1.0, abs(ch.current_j))

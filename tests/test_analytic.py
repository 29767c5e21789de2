import math

import numpy as np
import pytest

from wiresplit import (
    InfeasibleDesignError,
    analytic_orbit,
    apex_wire_position,
    closest_approach,
    closest_approach_headon,
    current_density,
    inverse_current_ratio,
    inverse_max_size,
    scattering_angle,
    stiffness_k,
    triangular_current_ratio,
    triangular_max_size,
)

V0, B, X0, TAU = 0.01, 0.5e-6, 300e-6, 0.1


class TestStiffness:
    def test_reference_retrace_current_gives_k_four(self, medium):
        k = stiffness_k(0.616467, B, V0, medium)
        assert k == pytest.approx(4.0, abs=1e-3)

    def test_reference_triangular_current(self, medium):
        k = stiffness_k(0.925273, B, V0, medium)
        # sqrt(k) must equal pi / arccos(x0 / (v0 tau - x0))
        assert math.sqrt(k) == pytest.approx(math.pi / math.acos(3.0 / 7.0),
                                             rel=1e-5)
        assert k == pytest.approx(7.758, abs=2e-3)

    def test_no_current_limit(self, medium):
        assert stiffness_k(1e-9, B, V0, medium) == pytest.approx(1.0, abs=1e-9)
        with pytest.raises(ValueError):
            stiffness_k(0.0, B, V0, medium)

    def test_headon_redirects(self, medium):
        with pytest.raises(ValueError, match="closest_approach_headon"):
            stiffness_k(1.0, 0.0, V0, medium)


class TestScatteringAngle:
    def test_right_angle_at_k_four(self):
        assert scattering_angle(4.0) == pytest.approx(math.pi / 2.0, rel=1e-15)

    def test_no_deflection_at_k_one(self):
        assert scattering_angle(1.0) == 0.0

    def test_reference_triangular_angle(self, medium):
        k = stiffness_k(0.925273, B, V0, medium)
        assert scattering_angle(k) == pytest.approx(math.acos(-3.0 / 7.0),
                                                    abs=2e-5)

    def test_domain(self):
        with pytest.raises(ValueError):
            scattering_angle(0.99)


class TestOrbit:
    def test_periapsis_matches_closest_approach(self, medium):
        rng = np.random.default_rng(3)
        for _ in range(20):
            current = rng.uniform(0.05, 5.0)
            b = rng.uniform(0.1e-6, 10e-6)
            v0 = rng.uniform(1e-3, 1.0)
            k = stiffness_k(current, b, v0, medium)
            # the closest approach is the midpoint of the branch
            theta_peri = (1.0 - 0.5 / math.sqrt(k)) * math.pi
            r_peri = analytic_orbit(theta_peri, k, b)
            assert r_peri == pytest.approx(math.sqrt(k) * b, rel=1e-12)
            assert r_peri == pytest.approx(
                closest_approach(b, current, v0, medium), rel=1e-10)

    def test_asymptotes_diverge(self, medium):
        k = stiffness_k(2.0, B, V0, medium)
        r_peri = math.sqrt(k) * B
        assert analytic_orbit(math.pi - 1e-7, k, B) > 1e4 * r_peri
        theta_s = scattering_angle(k)
        assert analytic_orbit(theta_s + 1e-7, k, B) > 1e4 * r_peri

    def test_outside_branch_rejected(self, medium):
        k = stiffness_k(2.0, B, V0, medium)
        theta_s = scattering_angle(k)
        with pytest.raises(ValueError):
            analytic_orbit(theta_s - 0.01, k, B)
        with pytest.raises(ValueError):
            analytic_orbit(math.pi + 0.01, k, B)

    def test_straight_line_limit(self):
        # k = 1: r = b / sin(theta)
        assert analytic_orbit(math.pi / 2.0, 1.0, B) == pytest.approx(B, rel=1e-12)
        assert analytic_orbit(math.pi / 6.0, 1.0, B) == pytest.approx(2.0 * B,
                                                                      rel=1e-12)


class TestMaxSizes:
    def test_triangular_reference(self):
        dz = triangular_max_size(V0, TAU, X0)
        assert dz == pytest.approx(math.sqrt(V0**2 * TAU**2 - 2 * V0 * X0 * TAU),
                                   rel=1e-15)
        assert dz == pytest.approx(632.46e-6, rel=1e-3)

    def test_inverse_reference(self):
        assert inverse_max_size(V0, TAU, X0) == pytest.approx(400e-6, rel=1e-12)

    def test_triangular_beats_inverse(self):
        assert triangular_max_size(V0, TAU, X0) > inverse_max_size(V0, TAU, X0)

    def test_short_launch_limit(self):
        assert triangular_max_size(V0, TAU, 1e-12) == pytest.approx(V0 * TAU,
                                                                    rel=1e-5)

    def test_boundary_infeasible(self):
        with pytest.raises(InfeasibleDesignError):
            triangular_max_size(V0, 2 * X0 / V0, X0)
        with pytest.raises(InfeasibleDesignError):
            inverse_max_size(V0, 2 * X0 / V0, X0)


class TestCurrentRatios:
    def test_triangular_reference_current(self, medium):
        current = triangular_current_ratio(V0, TAU, X0, medium) * B
        assert current == pytest.approx(0.925273, rel=1e-4)

    def test_inverse_reference_current(self, medium):
        current = inverse_current_ratio(V0, medium) * B
        assert current == pytest.approx(0.616467, rel=1e-4)

    def test_half_ratio_chain(self, medium):
        # choose x0 so x0/(v0 tau - x0) = 1/2; then the deflection is
        # arccos(-1/2) = 2 pi/3, the stiffness (pi/arccos(1/2))^2 = 9, and
        # the ratio is (v0/sqrt(alpha)) sqrt(8)
        x0 = 100e-6
        tau = 300e-6 / V0
        ratio = triangular_current_ratio(V0, tau, x0, medium)
        assert ratio == pytest.approx(
            (V0 / math.sqrt(medium.alpha)) * math.sqrt(8.0), rel=1e-12)
        k = stiffness_k(ratio * B, B, V0, medium)
        assert k == pytest.approx(9.0, rel=1e-12)
        assert scattering_angle(k) == pytest.approx(2.0 * math.pi / 3.0,
                                                    rel=1e-12)

    def test_triangular_tends_to_inverse_for_short_base(self, medium):
        # x0 -> 0 makes the optimal deflection a right angle
        ratio = triangular_current_ratio(V0, TAU, 1e-9, medium)
        assert ratio == pytest.approx(inverse_current_ratio(V0, medium), rel=1e-5)

    def test_monotone_in_base_fraction(self, medium):
        ratios = [triangular_current_ratio(V0, TAU, x0, medium)
                  for x0 in (50e-6, 150e-6, 300e-6, 450e-6)]
        assert all(a < b for a, b in zip(ratios, ratios[1:]))

    def test_inverse_ratio_linear_in_speed(self, medium):
        assert inverse_current_ratio(0.005, medium) == pytest.approx(
            0.5 * inverse_current_ratio(0.01, medium), rel=1e-15)

    def test_inverse_ratio_always_k_four(self, medium):
        for v0 in (1e-3, 0.02, 0.7):
            k = stiffness_k(inverse_current_ratio(v0, medium) * B, B, v0, medium)
            assert k == pytest.approx(4.0, rel=1e-12)

    def test_roundtrip_reproduces_geometry_angle(self, medium):
        rng = np.random.default_rng(5)
        for _ in range(20):
            v0 = rng.uniform(1e-3, 0.5)
            tau = rng.uniform(0.01, 1.0)
            x0 = rng.uniform(0.05, 0.45) * v0 * tau
            ratio = triangular_current_ratio(v0, tau, x0, medium)
            k = stiffness_k(ratio * B, B, v0, medium)
            expected = math.acos(-x0 / (v0 * tau - x0))
            assert scattering_angle(k) == pytest.approx(expected, abs=1e-10)

    def test_infeasible_geometry(self, medium):
        with pytest.raises(InfeasibleDesignError):
            triangular_current_ratio(V0, 2 * X0 / V0, X0, medium)


class TestClosestApproach:
    def test_headon_reference(self, medium):
        d0 = closest_approach_headon(0.925273, V0, medium)
        # oracle: strip the impact parameter off the reported approach radius
        oracle = math.sqrt(1.39269e-6**2 - B**2)
        assert d0 == pytest.approx(oracle, rel=1e-4)

    def test_headon_limits(self, medium):
        assert closest_approach_headon(0.0, V0, medium) == 0.0
        assert closest_approach_headon(1.0, 1e6, medium) < 1e-13

    def test_with_impact_parameter_reference(self, medium):
        d = closest_approach(B, 0.925273, V0, medium)
        assert d == pytest.approx(1.39269e-6, rel=3e-5)

    def test_no_current_returns_impact_parameter(self, medium):
        assert closest_approach(B, 0.0, V0, medium) == B

    def test_monotonicity(self, medium):
        rng = np.random.default_rng(9)
        for _ in range(20):
            b = rng.uniform(0.1e-6, 5e-6)
            current = rng.uniform(0.1, 3.0)
            v0 = rng.uniform(2e-3, 0.5)
            d = closest_approach(b, current, v0, medium)
            assert closest_approach(b, current * 1.1, v0, medium) > d
            assert closest_approach(b * 1.1, current, v0, medium) > d
            assert closest_approach(b, current, v0 * 1.1, medium) < d


class TestCurrentDensity:
    def test_triangular_reference(self, medium):
        ratio = triangular_current_ratio(V0, TAU, X0, medium)
        rho = current_density(V0, B, ratio, medium)
        assert rho == pytest.approx(0.15e12, rel=2e-2)

    def test_identity_with_closest_approach(self, medium):
        rng = np.random.default_rng(13)
        for _ in range(20):
            b = rng.uniform(0.05e-6, 5e-6)
            ratio = rng.uniform(1e4, 1e7)
            v0 = rng.uniform(1e-3, 0.5)
            current = ratio * b
            d = closest_approach(b, current, v0, medium)
            assert current_density(v0, b, ratio, medium) == pytest.approx(
                current / (math.pi * d * d), rel=1e-12)

    def test_retrace_deflector_reference(self, medium):
        # near-head-on encounter: density follows I/(pi d^2) with d ~ d0
        current, d = 0.00823, 0.0115617e-6
        rho = current / (math.pi * d * d)
        assert rho == pytest.approx(19.6e12, rel=2e-2)
        b_eff = 1e-12  # vanishing effective impact parameter
        assert current_density(V0, b_eff, current / b_eff, medium) == \
            pytest.approx(V0**2 / (math.pi * medium.alpha * current), rel=1e-4)

    def test_small_ratio_limit(self, medium):
        # rho -> ratio / (pi b) as the current vanishes
        assert current_density(V0, B, 1e-3, medium) == pytest.approx(
            1e3 * current_density(V0, B, 1e-6, medium), rel=1e-9)
        with pytest.raises(ValueError):
            current_density(V0, B, 0.0, medium)


class TestApexPlacement:
    def test_reference_position(self):
        x, z = apex_wire_position(X0, B, V0, TAU)
        semi_major = (V0 * TAU - X0) / 2.0
        semi_minor = math.sqrt(semi_major**2 - (X0 / 2.0) ** 2)
        assert x == pytest.approx(-150e-6, rel=1e-12)
        assert z == pytest.approx(B + semi_minor, rel=1e-12)
        assert z == pytest.approx(316.73e-6, rel=1e-4)

    def test_degenerate_base(self):
        x, z = apex_wire_position(1e-12, B, V0, TAU)
        assert abs(x) < 1e-12
        assert z == pytest.approx(B + V0 * TAU / 2.0, rel=1e-9)

    def test_height_equals_half_max_size(self):
        _, z = apex_wire_position(X0, B, V0, TAU)
        assert z - B == pytest.approx(triangular_max_size(V0, TAU, X0) / 2.0,
                                      rel=1e-12)

    def test_infeasible(self):
        with pytest.raises(InfeasibleDesignError):
            apex_wire_position(X0, B, V0, 2 * X0 / V0)

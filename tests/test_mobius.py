import importlib
import pkgutil

import numpy as np
import pytest

import sublevel_lab
from sublevel_lab import mobius, thinrect, volume
from sublevel_lab.mobius import (CURVATURE_BOUND, MapParams, apply_map,
                                 check_curvature, check_log_concavity,
                                 check_preimage_convexity,
                                 check_radial_profile, jacobian,
                                 mobius_factor, mobius_factor_d1)

from .map_reference import (curvature_grid_max, log_jacobian,
                            midpoint_defects, mobius_factor_d2,
                            preimage_midpoint_violations)

EIGHTH = MapParams(0.125)


def forbid_draws(monkeypatch):
    """Make every random draw the package could reach raise: `chunk_rng` in
    each package module that holds the name (modules bind it at import)."""
    def no_draws(*args, **kwargs):
        raise AssertionError("random draw")

    for info in pkgutil.iter_modules(sublevel_lab.__path__):
        module = importlib.import_module(f"sublevel_lab.{info.name}")
        if hasattr(module, "chunk_rng"):
            monkeypatch.setattr(module, "chunk_rng", no_draws)
    monkeypatch.setattr(np.random, "default_rng", no_draws)


def test_forbid_draws_reaches_every_sampler(monkeypatch):
    forbid_draws(monkeypatch)
    with pytest.raises(AssertionError, match="random draw"):
        volume.sample_ball(volume.BallSpec(np.zeros(2), 0.5, 0.25), 10, 1)
    with pytest.raises(AssertionError, match="random draw"):
        thinrect.limit_moduli(thinrect.ThinRectFunction(np.array([0.0, 1.0]), 0.1),
                              10, 1)


class TestParams:
    def test_derived_quantities(self):
        assert EIGHTH.zero_sphere_radius_sq == pytest.approx(1 - 0.125 ** 3)
        assert EIGHTH.injectivity_radius_sq == pytest.approx(0.623046875)
        assert EIGHTH.injectivity_radius < EIGHTH.zero_sphere_radius < 1.0

    @pytest.mark.parametrize("delta", [0.0, -0.1, 0.2, 1.0])
    def test_delta_domain(self, delta):
        with pytest.raises(ValueError):
            MapParams(delta)


class TestMobiusFactor:
    def test_at_zero(self):
        assert mobius_factor(0.0, EIGHTH) == pytest.approx(
            EIGHTH.zero_sphere_radius_sq)

    def test_at_fixed_level(self):
        assert mobius_factor(EIGHTH.zero_sphere_radius_sq, EIGHTH) == 0.0

    def test_derived_value(self):
        got = mobius_factor(EIGHTH.injectivity_radius_sq, EIGHTH)
        assert got == pytest.approx(0.991617, abs=1e-6)

    def test_pole_guard(self):
        with pytest.raises(ValueError, match="pole"):
            mobius_factor(1.0 / EIGHTH.zero_sphere_radius_sq, EIGHTH)

    def test_pole_guard_covers_rounding(self):
        # one ulp below the pole, 1 - A zeta is 2.2e-16, not 0
        zeta = np.nextafter(1.0 / EIGHTH.zero_sphere_radius_sq, 0.0)
        assert 0.0 < 1.0 - EIGHTH.zero_sphere_radius_sq * zeta <= mobius.POLE_TOL
        with pytest.raises(ValueError, match="pole"):
            mobius_factor(zeta, EIGHTH)

    def test_involution_on_real_interval(self):
        rs = np.linspace(0.0, EIGHTH.injectivity_radius_sq, 1000)
        back = mobius_factor(mobius_factor(rs, EIGHTH), EIGHTH)
        assert np.max(np.abs(back - rs)) <= 1e-12


class TestApplyMap:
    def test_origin_fixed_direction(self):
        out = apply_map(np.zeros(3, dtype=complex), EIGHTH)
        np.testing.assert_array_equal(out, np.zeros(3, dtype=complex))

    def test_real_sphere_collapses(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(5)
        x *= EIGHTH.zero_sphere_radius / np.linalg.norm(x)
        out = apply_map(x.astype(complex), EIGHTH)
        assert np.max(np.abs(out)) <= 1e-12

    def test_image_radius_value(self):
        x = np.array([EIGHTH.injectivity_radius, 0.0], dtype=complex)
        out = apply_map(x, EIGHTH)
        assert np.linalg.norm(out) == pytest.approx(0.78271, abs=1e-5)

    def test_rejects_points_outside_ball(self):
        with pytest.raises(ValueError):
            apply_map(np.array([1.0 + 0j, 0.5]), EIGHTH)

    @pytest.mark.parametrize("z", [
        np.array([np.nan, 0.1]), np.array([0.1, complex(0.0, np.nan)]),
        np.zeros((2, 3))], ids=["nan", "nan-imag", "batch"])
    def test_rejects_nan_point_and_batch(self, z):
        # unchecked, a NaN point maps to NaN coordinates
        with pytest.raises(ValueError, match="one point of the open"):
            apply_map(z, EIGHTH)


class TestJacobian:
    def test_at_origin_collapses_to_power(self):
        a = EIGHTH.zero_sphere_radius_sq
        assert jacobian(0.0, 3, EIGHTH) == pytest.approx(a ** 3)

    def test_at_injectivity_radius(self):
        # independent arithmetic: m(R0), m'(R0) combined by hand
        r0sq = EIGHTH.injectivity_radius_sq
        m = float(mobius_factor(r0sq, EIGHTH))
        m1 = float(mobius_factor_d1(r0sq, EIGHTH))
        expected = (m + 2 * r0sq * m1) * m ** 2
        got = jacobian(EIGHTH.injectivity_radius, 3, EIGHTH)
        assert got == pytest.approx(expected, rel=1e-14)
        assert got == pytest.approx(0.94163, abs=1e-5)

    def test_dimension_one_is_radial_factor(self):
        rs = np.linspace(0.0, EIGHTH.injectivity_radius, 50)
        R = rs * rs
        expected = mobius_factor(R, EIGHTH) + 2 * R * mobius_factor_d1(R, EIGHTH)
        np.testing.assert_array_equal(jacobian(rs, 1, EIGHTH), expected)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            jacobian(EIGHTH.injectivity_radius + 0.01, 2, EIGHTH)

    @pytest.mark.parametrize("n", [1, 2, 8, 64])
    def test_positive(self, n):
        rs = np.linspace(0.0, EIGHTH.injectivity_radius, 2000)
        assert np.all(jacobian(rs, n, EIGHTH) > 0.0)

    @pytest.mark.parametrize("n", [2, 5, 64])
    def test_factorization_identity_exact(self, n):
        rs = np.linspace(0.0, EIGHTH.injectivity_radius, 500)
        m = mobius_factor(rs * rs, EIGHTH)
        lhs = jacobian(rs, n, EIGHTH)
        rhs = jacobian(rs, 1, EIGHTH) * m ** (n - 1)
        np.testing.assert_array_equal(lhs, rhs)


class TestRadialProfile:
    @pytest.mark.parametrize("delta", [1 / 32, 1 / 16, 1 / 8])
    def test_passes(self, delta):
        rep = check_radial_profile(MapParams(delta))
        assert rep.passed
        assert rep.statistic > 0.0
        assert rep.extras["image_radius"] > 1 - 2 * delta

    def test_reported_values_for_eighth(self):
        rep = check_radial_profile(EIGHTH)
        assert rep.extras["image_radius"] == pytest.approx(0.78271, abs=1e-5)
        assert rep.extras["max_logderiv_ratio"] == pytest.approx(0.0275, abs=1e-3)
        assert rep.extras["max_logderiv_ratio"] <= 1 / 30

    def test_small_delta_image_radius(self):
        rep = check_radial_profile(MapParams(1 / 32))
        assert rep.extras["image_radius"] > 1 - 1 / 16

    @pytest.mark.parametrize("delta, expected", [(1 / 32, 0.9868),
                                                 (1 / 16, 0.9752),
                                                 (1 / 8, 0.9576)])
    def test_statistic_is_grid_minimum_at_rim(self, delta, expected):
        # (r m(r^2))' = J_1(r); its minimum on a fine grid sits at r0
        params = MapParams(delta)
        rs = np.linspace(0.0, params.injectivity_radius, 200_001)
        slope = jacobian(rs, 1, params)
        rep = check_radial_profile(params)
        assert int(np.argmin(slope)) == rs.size - 1
        assert rep.statistic == pytest.approx(float(np.min(slope)), rel=1e-14)
        assert rep.statistic == pytest.approx(expected, abs=1e-4)

    def test_row_schema(self):
        row = check_radial_profile(EIGHTH).to_row()
        assert set(row) == {"check", "delta", "n", "statistic", "bound",
                            "pass"}


class TestRimValues:
    @pytest.mark.parametrize("delta", [1 / 32, 1 / 16, 1 / 8])
    def test_match_direct_forms(self, delta):
        params = MapParams(delta)
        R0 = params.injectivity_radius_sq
        direct = (mobius_factor(R0, params), mobius_factor_d1(R0, params),
                  mobius_factor_d2(R0, params))
        for got, ref in zip(mobius._rim_values(params), direct):
            assert got == pytest.approx(float(ref), rel=1e-12)

    @pytest.mark.parametrize("delta", [1e-7, 1e-6, 1e-5])
    def test_leading_terms_at_tiny_delta(self, delta):
        # for delta <= 1e-6, A = 1 - delta^3 rounds to 1 and the direct
        # forms read m' = 0
        params = MapParams(delta)
        m0, m1, m2 = mobius._rim_values(params)
        assert m1 == pytest.approx(-2 * delta / 9, rel=1e-8)
        assert m2 == pytest.approx(-4 / 27, rel=1e-8)
        g0 = m0 + 2 * params.injectivity_radius_sq * m1
        assert g0 == pytest.approx(1 - 4 * delta / 9, abs=1e-9)
        rep = check_radial_profile(params)
        assert rep.statistic == g0
        assert rep.extras["max_logderiv_ratio"] == pytest.approx(2 * delta / 9,
                                                                 rel=1e-6)


class TestCurvature:
    @pytest.mark.parametrize("delta", [1 / 32, 1 / 16, 1 / 8])
    def test_bound(self, delta):
        rep = check_curvature(MapParams(delta))
        assert rep.passed
        assert rep.statistic <= CURVATURE_BOUND
        assert rep.bound == CURVATURE_BOUND

    @pytest.mark.parametrize("delta", [1e-4, 1 / 1024, 1 / 32, 1 / 16, 1 / 8])
    def test_certificate_brackets_grid_maximum(self, delta):
        params = MapParams(delta)
        grid_max = curvature_grid_max(params, 2001, 181)
        assert grid_max <= check_curvature(params).statistic <= 1.06 * grid_max

    @pytest.mark.parametrize("delta", [1e-300, 1e-7, 1e-6])
    def test_small_delta_limit(self, delta):
        # kappa -> r0 h(2/3) with alpha = 16/27, beta = 0 as delta -> 0
        rep = check_curvature(MapParams(delta))
        assert rep.statistic == pytest.approx(32 / (81 * np.sqrt(3)), abs=1e-6)

    @pytest.mark.parametrize("slot", [0, 1, 2])
    def test_nan_rim_value_fails(self, monkeypatch, slot):
        values = list(mobius._rim_values(EIGHTH))
        values[slot] = np.nan
        monkeypatch.setattr(mobius, "_rim_values", lambda params: tuple(values))
        assert not check_curvature(EIGHTH).passed

    def test_draws_no_random_numbers_and_builds_no_grid(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("gridded")

        forbid_draws(monkeypatch)
        for name in ("mobius_factor", "mobius_factor_d1"):
            monkeypatch.setattr(mobius, name, forbidden)
        assert check_curvature(EIGHTH, 2, 2) == check_curvature(EIGHTH)

    def test_radial_lines_are_straight(self):
        # alpha in {0, pi}: s' and s'' are parallel, curvature 0
        assert curvature_grid_max(EIGHTH, 101, 2) <= 1e-12

    def test_zero_radius_no_bending(self):
        # s''(0) carries a factor r; at r = 0 the cross product vanishes
        assert curvature_grid_max(EIGHTH, 1, 91) == 0.0


class TestLogConcavity:
    def test_passes_dimension_two(self):
        rep = check_log_concavity(EIGHTH, 2)
        assert rep.passed
        assert rep.statistic == pytest.approx(0.031281, abs=1e-6)
        assert rep.bound == 0.0

    @pytest.mark.parametrize("delta", [1 / 32, 1 / 16, 1 / 8])
    @pytest.mark.parametrize("n", [1, 2, 8, 32, 64])
    def test_statistic_closed_form(self, delta, n):
        d3 = delta ** 3
        rep = check_log_concavity(MapParams(delta), n)
        assert rep.statistic == pytest.approx(
            (2 * n + 4) * d3 * (2 - d3) / (1 - d3), rel=1e-14)

    @pytest.mark.parametrize("delta", [1 / 32, 1 / 16, 1 / 8])
    @pytest.mark.parametrize("n", [1, 2, 8, 32])
    def test_kappa_attained_at_origin(self, delta, n):
        # second difference of Psi along a line through 0, over -kappa_n
        params, h = MapParams(delta), 1e-3
        kappa = check_log_concavity(params, n).statistic
        d2 = 2.0 * (log_jacobian(h, n, params) - log_jacobian(0.0, n, params)) / h ** 2
        assert -d2 / kappa == pytest.approx(1.0, rel=1e-5)

    @pytest.mark.parametrize("n", [1, 2, 8])
    def test_sampled_defects_respect_certificate(self, n):
        kappa = check_log_concavity(EIGHTH, n).statistic
        defect, dist_sq = midpoint_defects(EIGHTH, n, 20_000, seed=11)
        assert np.min(defect - kappa * dist_sq / 8) >= -1e-12

    def test_draws_no_random_numbers(self, monkeypatch):
        forbid_draws(monkeypatch)
        a = check_log_concavity(EIGHTH, 3, 70_000, seed=21, threads=1)
        b = check_log_concavity(EIGHTH, 3, 10, seed=5, threads=4)
        assert a == b
        assert check_radial_profile(EIGHTH, 10) == check_radial_profile(EIGHTH)

    def test_midpoint_identity(self):
        r = 0.3
        d = log_jacobian(r, 4, EIGHTH) - log_jacobian(r, 4, EIGHTH)
        assert d == 0.0

    def test_radial_triple_second_difference(self):
        r0 = EIGHTH.injectivity_radius
        rs = np.array([0.0, r0 / 2, r0])
        vals = np.log(jacobian(rs, 1, EIGHTH))
        assert vals[0] - 2 * vals[1] + vals[2] <= 0.0

    def test_second_difference_grid(self):
        # the closed-form maxima of d^2/dr^2 of both radial factors bound
        # their second differences on a grid, and sit at r = 0
        for delta in (1 / 32, 1 / 16, 1 / 8):
            params = MapParams(delta)
            rep = check_log_concavity(params, 1)
            a = params.zero_sphere_radius_sq
            assert rep.passed
            assert rep.extras["max_d2_factor"] == pytest.approx(-2 * (1 - a * a))
            assert rep.extras["max_d2_radial"] == pytest.approx(-6 * (1 - a * a))
            rs, h = np.linspace(0.0, params.injectivity_radius, 2001,
                                retstep=True)
            R = rs * rs
            m = mobius_factor(R, params)
            radial = m + 2.0 * R * mobius_factor_d1(R, params)
            for values, top in ((m, rep.extras["max_d2_factor"]),
                                (radial, rep.extras["max_d2_radial"])):
                d2 = np.diff(values, 2) / h ** 2
                assert np.all(d2 <= top * (1 - 1e-3))
                assert d2[0] == pytest.approx(top, rel=1e-2)


def preimage_balls(params: MapParams):
    """(center_dist, radius) of the suite's ball, a centred ball and a ball
    whose rim nearly touches the image rim."""
    r = params.image_radius
    return [(0.35 * r, 0.4 * r), (0.0, 0.5 * r), (0.6 * r, 0.4 * r - 1e-6)]


class TestPreimageConvexity:
    @pytest.mark.parametrize("delta", [1 / 32, 1 / 16, 1 / 8, 1e-4, 1e-6])
    def test_certificate_is_radius_times_curvature(self, delta):
        params = MapParams(delta)
        kappa = check_curvature(params).statistic
        for center_dist, radius in preimage_balls(params):
            rep = check_preimage_convexity(params, center_dist, radius)
            assert rep.passed
            assert rep.statistic == radius * kappa
            assert rep.bound == 1.0

    @pytest.mark.parametrize("delta", [1 / 32, 1 / 16, 1 / 8])
    def test_sampled_pairs_respect_certificate(self, delta):
        params = MapParams(delta)
        for k, (center_dist, radius) in enumerate(preimage_balls(params)):
            violations, pairs = preimage_midpoint_violations(
                params, center_dist, radius, 10_000, seed=40 + k)
            assert pairs == 10_000
            assert violations == 0

    @pytest.mark.parametrize("slot", [0, 1, 2])
    def test_nan_rim_value_fails(self, monkeypatch, slot):
        values = list(mobius._rim_values(EIGHTH))
        values[slot] = np.nan
        monkeypatch.setattr(mobius, "_rim_values", lambda params: tuple(values))
        assert not check_preimage_convexity(EIGHTH, 0.3, 0.2).passed

    def test_draws_no_random_numbers(self, monkeypatch):
        forbid_draws(monkeypatch)
        a = check_preimage_convexity(EIGHTH, 0.3, 0.2, 1000, seed=9)
        b = check_preimage_convexity(EIGHTH, 0.3, 0.2, 10, seed=4)
        assert a == b

    def test_centered_ball(self):
        rep = check_preimage_convexity(EIGHTH, 0.0, 0.5, 2000, seed=4)
        assert rep.passed
        assert 0.0 < rep.statistic < 1.0

    def test_near_boundary_ball(self):
        rep = check_preimage_convexity(EIGHTH, 0.5, 0.28, 2000, seed=4)
        assert rep.passed

    def test_ball_within_margin_of_image_rim_rejected(self):
        # a rim 1e-10 inside the image rim is within CONTAINMENT_MARGIN
        with pytest.raises(ValueError, match="strictly inside"):
            check_preimage_convexity(EIGHTH, 0.0, EIGHTH.image_radius - 1e-10)

    def test_degenerate_radius(self):
        # a point is convex
        rep = check_preimage_convexity(EIGHTH, 0.2, 0.0, 100, seed=4)
        assert rep.passed
        assert rep.statistic == 0.0

    def test_ball_outside_image_rejected(self):
        with pytest.raises(ValueError, match="inside the image"):
            check_preimage_convexity(EIGHTH, 0.6, 0.3, 100, seed=4)


def test_paper_constant_chain_for_eighth():
    # the derivative-ratio chain: (1-A^2)/(A-R)^2 <= 2 delta / 9 < 1/30
    A = EIGHTH.zero_sphere_radius_sq
    R0 = EIGHTH.injectivity_radius_sq
    lhs = (1 - A * A) / (A - R0) ** 2
    assert lhs <= 2 * 0.125 / 9 + 1e-15
    assert 2 * 0.125 / 9 < 1 / 30

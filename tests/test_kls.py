import math

import numpy as np
import pytest

from sublevel_lab import kls
from sublevel_lab.intervals import IntervalSet
from sublevel_lab.kls import (LocalizationInstance, PiecewiseLogLinear,
                              dense_core_1d, format_instance,
                              localization_check_1d, min_interval_ratio,
                              min_interval_ratio_many, parse_instance,
                              random_instance)

UNIFORM = PiecewiseLogLinear(np.array([0.0, 1.0]), np.array([0.0, 0.0]))


def brute_min_ratio(x, e: IntervalSet, s, grid=1000):
    """Independent oracle: scan all interval pairs drawn from a dense grid
    joined with the candidate endpoints."""
    s0, s1 = s
    lefts = np.unique(np.concatenate(
        [np.linspace(s0, x, grid), e.endpoints, [s0, x]]))
    lefts = lefts[(lefts >= s0) & (lefts <= x)]
    rights = np.unique(np.concatenate(
        [np.linspace(x, s1, grid), e.endpoints, [x, s1]]))
    rights = rights[(rights >= x) & (rights <= s1)]
    w_l = e.measure_below(lefts)
    w_r = e.measure_below(rights)
    num = w_r[None, :] - w_l[:, None]
    den = rights[None, :] - lefts[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = num / den
    ratios[den <= 0] = np.inf
    best = float(np.min(ratios))
    return min(best, 1.0) if np.isfinite(best) else 1.0


def per_point_min_ratio(xs, e: IntervalSet, s):
    """Reference: the per-point loop over the candidate endpoints that
    `min_interval_ratio_many` replaced with one array expression."""
    s0, s1 = float(s[0]), float(s[1])
    xs = np.clip(np.asarray(xs, dtype=float), s0, s1)
    if e.n_components == 0:
        return np.zeros(xs.shape)
    cands = kls._candidate_points(e, (s0, s1))
    m = cands.size
    w_c = e.measure_below(cands)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = (w_c[None, :] - w_c[:, None]) / (cands[None, :] - cands[:, None])
    ratios[cands[None, :] - cands[:, None] <= 0] = np.inf
    suffix = np.minimum.accumulate(ratios[:, ::-1], axis=1)[:, ::-1]
    prefix = np.minimum.accumulate(suffix, axis=0)
    cross = np.array([prefix[k, k + 1] for k in range(m - 1)])
    w_x = e.measure_below(xs)
    seg = np.clip(np.searchsorted(cands, xs, side="right") - 1, 0, m - 2)
    out = np.empty(xs.shape)
    for i, (x, wx, k) in enumerate(zip(xs, w_x, seg)):
        best = cross[k]
        right = cands[k + 1:]
        den_r = right - x
        ok_r = den_r > 0
        if np.any(ok_r):
            r = (e.measure_below(right[ok_r]) - wx) / den_r[ok_r]
            best = min(best, float(np.min(r)))
        left = cands[:k + 1]
        den_l = x - left
        ok_l = den_l > 0
        if np.any(ok_l):
            r = (wx - w_c[:k + 1][ok_l]) / den_l[ok_l]
            best = min(best, float(np.min(r)))
        out[i] = best if np.isfinite(best) else 1.0
    return np.clip(out, 0.0, 1.0)


class TestMinIntervalRatio:
    def test_full_set(self):
        e = IntervalSet.from_pairs([(0.0, 1.0)])
        assert min_interval_ratio(0.5, e, (0.0, 1.0)) == 1.0

    def test_left_piece_closed_form(self):
        t = 0.9
        e = IntervalSet.from_pairs([(0.0, t)])
        for x in (0.0, 0.3, 0.6, 0.9):
            expected = (t - x) / (1.0 - x)
            assert min_interval_ratio(x, e, (0.0, 1.0)) == pytest.approx(
                expected, abs=1e-12)

    def test_empty_set(self):
        assert min_interval_ratio(0.5, IntervalSet.empty(), (0.0, 1.0)) == 0.0

    def test_outside_s_rejected(self):
        e = IntervalSet.from_pairs([(0.0, 1.0)])
        with pytest.raises(ValueError):
            min_interval_ratio(1.5, e, (0.0, 1.0))

    def test_interior_of_full_set_is_one(self):
        e = IntervalSet.from_pairs([(0.2, 0.8)])
        assert min_interval_ratio(0.5, e, (0.2, 0.8)) == 1.0

    def test_component_edge_is_zero(self):
        # intervals reaching left of x meet E in measure zero
        e = IntervalSet.from_pairs([(0.5, 0.8)])
        assert min_interval_ratio(0.5, e, (0.0, 1.0)) == 0.0

    def test_oracle_agreement(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            s0 = float(rng.uniform(-1, 0))
            s1 = float(rng.uniform(0.5, 1.5))
            n = int(rng.integers(1, 8))
            cuts = np.sort(rng.uniform(s0, s1, 2 * n))
            e = IntervalSet.from_pairs(
                [(cuts[2 * k], cuts[2 * k + 1]) for k in range(n)])
            x = float(rng.uniform(s0, s1))
            fast = min_interval_ratio(x, e, (s0, s1))
            brute = brute_min_ratio(x, e, (s0, s1))
            assert abs(fast - brute) <= 1e-8

    def test_matches_per_point_loop_exactly(self):
        rng = np.random.default_rng(29)
        for _ in range(100):
            inst = random_instance(rng)
            e, (s0, s1) = inst.e_set, inst.s_interval
            if rng.random() < 0.3:  # add zero-length components
                pts = rng.uniform(s0, s1, 3)
                e = e.union(IntervalSet.from_pairs([(p, p) for p in pts]))
            xs = np.concatenate([rng.uniform(s0, s1, 200), [s0, s1],
                                 kls._candidate_points(e, (s0, s1)),
                                 np.linspace(s0, s1, 101)])
            got = min_interval_ratio_many(xs, e, (s0, s1))
            assert np.array_equal(got, per_point_min_ratio(xs, e, (s0, s1)))

    def test_zero_length_components_exact(self):
        e = IntervalSet.from_pairs([(0.1, 0.1), (0.3, 0.5), (0.7, 0.7)])
        xs = np.concatenate([np.linspace(0.0, 1.0, 257), [0.1, 0.3, 0.5, 0.7]])
        got = min_interval_ratio_many(xs, e, (0.0, 1.0))
        assert np.array_equal(got, per_point_min_ratio(xs, e, (0.0, 1.0)))

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(3)
        e = IntervalSet.from_pairs([(0.1, 0.3), (0.5, 0.55), (0.7, 0.95)])
        xs = rng.uniform(0.0, 1.0, 64)
        batch = min_interval_ratio_many(xs, e, (0.0, 1.0))
        for x, v in zip(xs, batch):
            assert v == pytest.approx(min_interval_ratio(x, e, (0.0, 1.0)),
                                      abs=1e-14)


class TestDenseCore:
    def test_closed_form_left_piece(self):
        # ratio (0.9 - x)/(1 - x) >= 1/2 iff x <= 0.8
        e = IntervalSet.from_pairs([(0.0, 0.9)])
        core = dense_core_1d(e, (0.0, 1.0), 2.0)
        assert core.inner.n_components == 1
        lo, hi = core.inner.pairs()[0]
        assert lo == pytest.approx(0.0, abs=1e-12)
        assert hi == pytest.approx(0.8, abs=1e-9)
        out_lo, out_hi = core.outer.pairs()[0]
        assert out_hi == pytest.approx(0.8, abs=1e-9)
        assert core.inner.is_subset_of(core.outer, tol=1e-12)

    def test_measure_zero_core(self):
        # (0.5 - x)/(1 - x) >= 1/2 only at x = 0
        e = IntervalSet.from_pairs([(0.0, 0.5)])
        core = dense_core_1d(e, (0.0, 1.0), 2.0)
        assert core.outer.total_length <= 1e-9
        assert core.inner.total_length <= core.outer.total_length
        assert core.inner.contains_point(0.0)

    def test_full_set_fixed(self):
        e = IntervalSet.from_pairs([(0.0, 1.0)])
        for lam in (1.5, 2.0, 10.0):
            core = dense_core_1d(e, (0.0, 1.0), lam)
            assert core.inner.pairs() == [(0.0, 1.0)]

    def test_monotone_in_lambda(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            inst = random_instance(rng)
            lam2 = inst.lam + 1.0
            core_lo = dense_core_1d(inst.e_set, inst.s_interval, inst.lam)
            core_hi = dense_core_1d(inst.e_set, inst.s_interval, lam2)
            assert core_hi.inner.total_length <= core_lo.inner.total_length + 1e-10
            # componentwise containment up to refinement width
            for lo, hi in core_hi.inner.pairs():
                assert core_lo.outer.intersect_length(lo, hi) >= (hi - lo) - 1e-9

    def test_core_narrower_than_a_grid_cell(self):
        # (x - 0.1)/x >= theta and (0.9 - x)/(1 - x) >= theta hold together
        # only on [0.1, 0.9 - theta] / (1 - theta): about 1e-4 long, well
        # inside one cell of a 512-point grid on E, and off its points
        e = IntervalSet.from_pairs([(0.1, 0.9)])
        lam = 4.9995
        theta = (lam - 1.0) / lam
        (lo, hi), = dense_core_1d(e, (0.0, 1.0), lam).inner.pairs()
        assert lo == pytest.approx(0.1 / (1.0 - theta), abs=1e-12)
        assert hi == pytest.approx((0.9 - theta) / (1.0 - theta), abs=1e-12)
        assert hi - lo == pytest.approx(1e-4, rel=1e-6)

    def test_matches_definition_on_fine_grid(self):
        def members(xs, core_set):
            return np.any((xs[:, None] >= core_set.lower)
                          & (xs[:, None] <= core_set.upper), axis=1)

        rng = np.random.default_rng(31)
        for _ in range(50):
            inst = random_instance(rng)
            e, (s0, s1) = inst.e_set, inst.s_interval
            if rng.random() < 0.3:  # add zero-length components
                pts = rng.uniform(s0, s1, 3)
                e = e.union(IntervalSet.from_pairs([(p, p) for p in pts]))
            theta = (inst.lam - 1.0) / inst.lam
            core = dense_core_1d(e, (s0, s1), inst.lam)
            for lo, hi in e.pairs():
                xs = np.linspace(lo, hi, 2001)
                ratio = min_interval_ratio_many(xs, e, (s0, s1))
                assert np.all(ratio[members(xs, core.inner)] >= theta - 1e-9)
                assert np.all(ratio[~members(xs, core.outer)] <= theta + 1e-9)

    def test_lambda_domain(self):
        e = IntervalSet.from_pairs([(0.0, 1.0)])
        with pytest.raises(ValueError):
            dense_core_1d(e, (0.0, 1.0), 1.0)

    def test_e_outside_s_rejected(self):
        e = IntervalSet.from_pairs([(0.5, 1.5)])
        with pytest.raises(ValueError, match="E must lie in S"):
            dense_core_1d(e, (0.0, 1.0), 2.0)


class TestDensity:
    def test_constructor_requires_concavity(self):
        with pytest.raises(ValueError, match="concave"):
            PiecewiseLogLinear(np.array([0.0, 0.5, 1.0]),
                               np.array([0.0, -1.0, 0.5]))

    def test_integral_uniform(self):
        assert UNIFORM.integral(0.2, 0.7) == pytest.approx(0.5, rel=1e-14)

    def test_integral_exponential_closed_form(self):
        den = PiecewiseLogLinear(np.array([0.0, 1.0]), np.array([0.0, -1.0]))
        # integral of exp(-x) over [a, b]
        for a, b in [(0.0, 1.0), (0.1, 0.9), (0.5, 0.5)]:
            assert den.integral(a, b) == pytest.approx(
                math.exp(-a) - math.exp(-b), rel=1e-13)

    def test_value_and_support(self):
        den = PiecewiseLogLinear(np.array([-1.0, 0.0, 2.0]),
                                 np.array([0.0, 1.0, -3.0]))
        assert den.support == (-1.0, 2.0)
        assert den.value(0.0) == pytest.approx(math.e)
        with pytest.raises(ValueError):
            den.value(2.5)

    def test_scaling_changes_integral(self):
        den = UNIFORM.scaled(7.3)
        assert den.integral(0.0, 1.0) == pytest.approx(7.3, rel=1e-12)


class TestLocalizationCheck1D:
    def test_uniform_closed_form(self):
        e = IntervalSet.from_pairs([(0.0, 0.9)])
        inst = LocalizationInstance(UNIFORM, (0.0, 1.0), e, 2.0)
        rep = localization_check_1d(inst, 512)
        assert rep.passed
        assert rep.lhs_inner == pytest.approx(0.8, abs=1e-10)
        assert rep.lhs_outer == pytest.approx(0.8, abs=1e-10)
        assert rep.rhs == pytest.approx(0.81, abs=1e-10)

    def test_full_set_equality(self):
        e = IntervalSet.from_pairs([(0.0, 1.0)])
        inst = LocalizationInstance(UNIFORM, (0.0, 1.0), e, 3.0)
        rep = localization_check_1d(inst, 64)
        assert rep.lhs_inner == pytest.approx(1.0, abs=1e-12)
        assert rep.rhs == pytest.approx(1.0, abs=1e-12)
        assert rep.passed

    def test_exponential_weight_instance(self):
        den = PiecewiseLogLinear(np.array([0.0, 1.0]), np.array([0.0, -1.0]))
        e = IntervalSet.from_pairs([(0.0, 0.9)])
        inst = LocalizationInstance(den, (0.0, 1.0), e, 3.0)
        rep = localization_check_1d(inst, 512)
        assert rep.passed
        # independent quadrature for the right side
        mass_e = math.exp(0) - math.exp(-0.9)
        mass_s = 1 - math.exp(-1.0)
        assert rep.rhs == pytest.approx((mass_e / mass_s) ** 3, rel=1e-12)

    def test_scaling_invariance_bitwise(self):
        e = IntervalSet.from_pairs([(0.1, 0.4), (0.6, 0.8)])
        den = PiecewiseLogLinear(np.array([0.0, 0.5, 1.0]),
                                 np.array([0.0, 0.4, -0.6]))
        inst = LocalizationInstance(den, (0.0, 1.0), e, 2.5)
        scaled = LocalizationInstance(den.scaled(7.3), (0.0, 1.0), e, 2.5)
        a = localization_check_1d(inst, 256)
        b = localization_check_1d(scaled, 256)
        assert a.lhs_inner == b.lhs_inner
        assert a.lhs_outer == b.lhs_outer
        assert a.rhs == b.rhs

    def test_randomized_instances(self):
        rng = np.random.default_rng(101)
        for _ in range(50):
            inst = random_instance(rng)
            rep = localization_check_1d(inst, 256)
            assert rep.passed, (inst.s_interval, inst.lam)

    def test_e_outside_s_rejected(self):
        e = IntervalSet.from_pairs([(0.0, 1.5)])
        with pytest.raises(ValueError):
            LocalizationInstance(
                PiecewiseLogLinear(np.array([0.0, 2.0]), np.array([0.0, 0.0])),
                (0.0, 1.0), e, 2.0)


class TestTextFormat:
    def test_round_trip(self):
        inst = LocalizationInstance(
            PiecewiseLogLinear(np.array([0.0, 0.5, 1.0]),
                               np.array([0.1, 0.3, -0.2])),
            (0.1, 0.9), IntervalSet.from_pairs([(0.2, 0.4)]), 2.5)
        back = parse_instance(format_instance(inst))
        np.testing.assert_allclose(back.density.breakpoints,
                                   inst.density.breakpoints)
        np.testing.assert_allclose(back.density.log_values,
                                   inst.density.log_values)
        assert back.s_interval == inst.s_interval
        assert back.e_set.pairs() == inst.e_set.pairs()
        assert back.lam == inst.lam

    def test_incomplete_instance_rejected(self):
        with pytest.raises(ValueError):
            parse_instance("phi 0 0\nphi 1 0\nS 0 1\n")

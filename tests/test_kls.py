import math

import numpy as np
import pytest

from sublevel_lab import kls
from sublevel_lab.cli import _read_instance
from sublevel_lab.intervals import IntervalSet
from sublevel_lab.kls import (LocalizationInstance, PiecewiseLogLinear,
                              dense_core_1d, localization_check_1d,
                              min_interval_ratio_many, random_instance)

UNIFORM = PiecewiseLogLinear(np.array([0.0, 1.0]), np.array([0.0, 0.0]))


def endpoints(e: IntervalSet) -> np.ndarray:
    """All component endpoints of `e`, ascending."""
    return np.sort(np.concatenate([e.lower, e.upper]))


def with_points(e: IntervalSet, pts) -> IntervalSet:
    """`e` joined with the zero-length components [p, p]."""
    return IntervalSet.from_pairs(e.pairs() + [(p, p) for p in pts])


def scaled(den: PiecewiseLogLinear, factor: float) -> PiecewiseLogLinear:
    """The density multiplied by `factor`: log_values shifted by its log."""
    return PiecewiseLogLinear(den.breakpoints, den.log_values + math.log(factor))


def format_instance(inst: LocalizationInstance) -> str:
    """The instance literal that cli._read_instance reads."""
    lines = [f"phi {float(t)!r} {float(v)!r}" for t, v in
             zip(inst.density.breakpoints, inst.density.log_values)]
    lines.append(f"S {float(inst.s_interval[0])!r} {float(inst.s_interval[1])!r}")
    lines.extend(f"E {l!r} {u!r}" for l, u in inst.e_set.pairs())
    lines.append(f"lambda {float(inst.lam)!r}")
    return "\n".join(lines) + "\n"


def brute_min_ratio(x, e: IntervalSet, s, grid=1000):
    """Independent oracle: scan all interval pairs drawn from a dense grid
    joined with the candidate endpoints."""
    s0, s1 = s
    lefts = np.unique(np.concatenate(
        [np.linspace(s0, x, grid), endpoints(e), [s0, x]]))
    lefts = lefts[(lefts >= s0) & (lefts <= x)]
    rights = np.unique(np.concatenate(
        [np.linspace(x, s1, grid), endpoints(e), [x, s1]]))
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
    def test_candidate_points_sorted_and_distinct(self):
        # endpoints on a coarse grid repeat: zero-length components, clipped
        # ends and endpoints equal to those of S
        rng = np.random.default_rng(17)
        for _ in range(200):
            ends = rng.integers(-2, 12, (int(rng.integers(0, 6)), 2)) / 10
            e = IntervalSet.from_pairs([(min(a, b), max(a, b)) for a, b in ends])
            pts = [0.0, 1.0] + [v for l, u in e.pairs() if u >= 0.0 and l <= 1.0
                                for v in (max(l, 0.0), min(u, 1.0))]
            assert np.array_equal(kls._candidate_points(e, (0.0, 1.0)), np.unique(pts))

    def test_full_set(self):
        e = IntervalSet.from_pairs([(0.0, 1.0)])
        assert min_interval_ratio_many([0.5], e, (0.0, 1.0))[0] == 1.0

    def test_left_piece_closed_form(self):
        t = 0.9
        e = IntervalSet.from_pairs([(0.0, t)])
        for x in (0.0, 0.3, 0.6, 0.9):
            expected = (t - x) / (1.0 - x)
            got = min_interval_ratio_many([x], e, (0.0, 1.0))[0]
            assert got == pytest.approx(expected, abs=1e-12)

    def test_empty_set(self):
        empty = IntervalSet.from_pairs([])
        assert min_interval_ratio_many([0.5], empty, (0.0, 1.0))[0] == 0.0

    def test_outside_s_rejected(self):
        e = IntervalSet.from_pairs([(0.0, 1.0)])
        with pytest.raises(ValueError):
            min_interval_ratio_many([1.5], e, (0.0, 1.0))

    def test_interior_of_full_set_is_one(self):
        e = IntervalSet.from_pairs([(0.2, 0.8)])
        assert min_interval_ratio_many([0.5], e, (0.2, 0.8))[0] == 1.0

    def test_component_edge_is_zero(self):
        # intervals reaching left of x meet E in measure zero
        e = IntervalSet.from_pairs([(0.5, 0.8)])
        assert min_interval_ratio_many([0.5], e, (0.0, 1.0))[0] == 0.0

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
            fast = min_interval_ratio_many([x], e, (s0, s1))[0]
            brute = brute_min_ratio(x, e, (s0, s1))
            assert abs(fast - brute) <= 1e-8

    def test_matches_per_point_loop_exactly(self):
        rng = np.random.default_rng(29)
        for _ in range(100):
            inst = random_instance(rng)
            e, (s0, s1) = inst.e_set, inst.s_interval
            if rng.random() < 0.3:  # add zero-length components
                pts = rng.uniform(s0, s1, 3)
                e = with_points(e, pts)
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
        # each point's ratio is its own row: a batch gives what one-point
        # calls give
        rng = np.random.default_rng(3)
        e = IntervalSet.from_pairs([(0.1, 0.3), (0.5, 0.55), (0.7, 0.95)])
        xs = rng.uniform(0.0, 1.0, 64)
        batch = min_interval_ratio_many(xs, e, (0.0, 1.0))
        for x, v in zip(xs, batch):
            assert v == pytest.approx(
                min_interval_ratio_many([x], e, (0.0, 1.0))[0], abs=1e-14)


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
        assert IntervalSet.from_pairs([(0.0, 0.0)]).is_subset_of(core.inner)

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
                covered = core_lo.outer.measure_below(hi) - core_lo.outer.measure_below(lo)
                assert covered >= (hi - lo) - 1e-9

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
                e = with_points(e, pts)
            theta = (inst.lam - 1.0) / inst.lam
            core = dense_core_1d(e, (s0, s1), inst.lam)
            for lo, hi in e.pairs():
                xs = np.linspace(lo, hi, 2001)
                ratio = min_interval_ratio_many(xs, e, (s0, s1))
                assert np.all(ratio[members(xs, core.inner)] >= theta - 1e-9)
                assert np.all(ratio[~members(xs, core.outer)] <= theta + 1e-9)

    def test_certification_catches_a_core_off_by_1e6(self, monkeypatch):
        # the core's endpoints read 1e-6 below theta: past CERT_TOL
        ratio = kls.min_interval_ratio_many
        monkeypatch.setattr(kls, "min_interval_ratio_many",
                            lambda *args: ratio(*args) - 1e-6)
        e = IntervalSet.from_pairs([(0.0, 0.9)])
        with pytest.raises(ValueError, match="fails its certification"):
            dense_core_1d(e, (0.0, 1.0), 2.0)

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

    def test_convex_kink_of_1e6_rejected(self):
        with pytest.raises(ValueError, match="concave"):
            PiecewiseLogLinear(np.array([0.0, 1.0, 2.0]),
                               np.array([0.0, 0.0, 1e-6]))

    def test_linear_log_density_accepted_despite_rounding(self):
        # log-density 0.7 t: its two slopes round 3.3e-16 apart, upward
        t = np.array([0.0, 0.1, 0.3])
        slopes = np.diff(0.7 * t) / np.diff(t)
        assert slopes[1] > slopes[0]
        PiecewiseLogLinear(t, 0.7 * t)

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
        # the density is exp(1 + x) on [-1, 0]
        assert den.integral(-1.0, 0.0) == pytest.approx(math.e - 1.0, rel=1e-14)
        with pytest.raises(ValueError):
            den.integral(0.0, 2.5)

    def test_scaling_changes_integral(self):
        den = scaled(UNIFORM, 7.3)
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

    def test_scaling_invariance(self):
        # mass ratios do not see a constant factor of the weight
        e = IntervalSet.from_pairs([(0.1, 0.4), (0.6, 0.8)])
        den = PiecewiseLogLinear(np.array([0.0, 0.5, 1.0]),
                                 np.array([0.0, 0.4, -0.6]))
        inst = LocalizationInstance(den, (0.0, 1.0), e, 2.5)
        times = LocalizationInstance(scaled(den, 7.3), (0.0, 1.0), e, 2.5)
        a = localization_check_1d(inst, 256)
        b = localization_check_1d(times, 256)
        assert b.lhs_inner == pytest.approx(a.lhs_inner, rel=1e-12)
        assert b.lhs_outer == pytest.approx(a.lhs_outer, rel=1e-12)
        assert b.rhs == pytest.approx(a.rhs, rel=1e-12)
        assert times.density.integral(0.0, 1.0) == pytest.approx(
            7.3 * den.integral(0.0, 1.0), rel=1e-12)

    def test_randomized_instances(self):
        rng = np.random.default_rng(101)
        for _ in range(50):
            inst = random_instance(rng)
            rep = localization_check_1d(inst, 256)
            assert rep.passed, (inst.s_interval, inst.lam)

    def test_outer_core_above_rhs_by_rounding_fails(self, monkeypatch):
        # the core is all of E at lambda just above 1: lhs_outer = 1/2 lies
        # above rhs = 2^-lambda by ~3.5e-13, far inside any rounding slack
        e = IntervalSet.from_pairs([(0.0, 0.5)])
        monkeypatch.setattr(kls, "dense_core_1d",
                            lambda *args: kls.DenseCore(e, e))
        inst = LocalizationInstance(UNIFORM, (0.0, 1.0), e, 1.0 + 1e-12)
        rep = localization_check_1d(inst)
        assert rep.lhs_outer == 0.5
        assert 0.0 < rep.lhs_outer - rep.rhs < 1e-12
        assert not rep.passed

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
        back = _read_instance(format_instance(inst))
        np.testing.assert_allclose(back.density.breakpoints,
                                   inst.density.breakpoints)
        np.testing.assert_allclose(back.density.log_values,
                                   inst.density.log_values)
        assert back.s_interval == inst.s_interval
        assert back.e_set.pairs() == inst.e_set.pairs()
        assert back.lam == inst.lam

    def test_incomplete_instance_rejected(self):
        with pytest.raises(ValueError):
            _read_instance("phi 0 0\nphi 1 0\nS 0 1\n")

    def test_bad_number_names_its_line(self):
        with pytest.raises(ValueError, match="^line 2: could not convert "
                                             "string to float: 'x'"):
            _read_instance("phi 0 0\nphi 1 x\nS 0 1\nE 0 0.5\nlambda 2\n")

    def test_record_of_wrong_arity_rejected(self):
        with pytest.raises(ValueError, match="^line 4: unrecognized record "
                                             "'lambda' of 2 numbers"):
            _read_instance("phi 0 0\nphi 1 0\nS 0 1\nlambda 2 3\n")

    def test_repeated_records_are_read_in_order(self):
        inst = _read_instance("phi 0 0\nE 0.6 0.7\nphi 0.5 0.1\nS 0 1\n"
                              "phi 1 0\nE 0.1 0.2\nlambda 2\n")
        assert inst.density.breakpoints.tolist() == [0.0, 0.5, 1.0]
        assert inst.e_set.pairs() == [(0.1, 0.2), (0.6, 0.7)]

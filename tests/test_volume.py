import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from sublevel_lab import thinrect, volume
from sublevel_lab.poly import MultiPoly, eval_many, from_terms, lift, normalize
from sublevel_lab.sampling import (CHUNK_SIZE, STREAM_BALL, STREAM_LEVEL,
                                   chunk_sizes)
from sublevel_lab.volume import (BallSpec, check_quantile_bounds,
                                 check_superlevel_power_bound, level_fraction,
                                 sample_ball, sample_moduli, sigma_exponent)

from .ball_reference import chunked_ball_points, complex_power_eval

HALF_SHIFT = normalize(from_terms(1, {(0,): 0.5, (1,): 0.5}))
IDENTITY_1D = normalize(from_terms(1, {(1,): 1.0}))
SQUARE_1D = normalize(from_terms(1, {(2,): 1.0}))
INTERVAL_HALF = BallSpec(np.zeros(1), 0.5, 0.25)


class TestBallSpec:
    def test_epsilon_domain(self):
        with pytest.raises(ValueError, match="epsilon"):
            BallSpec(np.zeros(2), 0.5, 0.3)
        with pytest.raises(ValueError, match="epsilon"):
            BallSpec(np.zeros(2), 0.5, 0.0)

    def test_containment(self):
        with pytest.raises(ValueError, match="inside"):
            BallSpec(np.array([0.5, 0.0]), 0.3, 0.25)
        BallSpec(np.array([0.05, 0.0]), 0.7, 0.25)  # boundary case is fine

    def test_containment_slack_is_rounding_only(self):
        # a rim 1e-9 past 1 - epsilon lies outside: the slack covers rounding
        with pytest.raises(ValueError, match="inside"):
            BallSpec(np.zeros(1), 0.75 + 1e-9, 0.25)

    @pytest.mark.parametrize("center, radius, message", [
        ([math.nan, 0.0], 0.5, "inside"),
        ([0.0, 0.0], math.inf, "inside"),
        ([0.0, 0.0], math.nan, "radius")])
    def test_non_finite_ball_rejected(self, center, radius, message):
        with pytest.raises(ValueError, match=message):
            BallSpec(np.array(center), radius, 0.25)


class TestSampleBall:
    def test_mean_abs_interval(self):
        pts = sample_ball(INTERVAL_HALF, 100_000, seed=1)
        mean = float(np.mean(np.abs(pts)))
        se = 0.5 / math.sqrt(12 * 100_000)  # std of |U(-r,r)| ~ r/sqrt(12)
        assert abs(mean - 0.25) <= 5 * se

    def test_degenerate_radius(self):
        spec = BallSpec(np.array([0.1, 0.2]), 0.0, 0.25)
        pts = sample_ball(spec, 1000, seed=2)
        assert np.allclose(pts, [0.1, 0.2])

    def test_radius_moment_dimension_eight(self):
        spec = BallSpec(np.zeros(8), 0.7, 0.25)
        pts = sample_ball(spec, 100_000, seed=3)
        ratio = float(np.mean(np.sum(pts ** 2, axis=1))) / 0.49
        # E r^2 / R^2 = n/(n+2) = 0.8
        assert abs(ratio - 0.8) <= 5 * 0.5 / math.sqrt(100_000)

    def test_points_inside_ball(self):
        spec = BallSpec(np.array([0.1, -0.1, 0.0]), 0.6, 0.25)
        pts = sample_ball(spec, 10_000, seed=4)
        assert np.max(np.linalg.norm(pts - spec.center, axis=1)) <= 0.6

    def test_deterministic_across_threads(self):
        spec = BallSpec(np.zeros(3), 0.5, 0.25)
        a = sample_ball(spec, 200_000, seed=5, threads=1)
        b = sample_ball(spec, 200_000, seed=5, threads=4)
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_equals_full_point_reference(self, threads):
        # normals, then uniforms, from each chunk's generator: a full chunk
        # and a partial one, off centre, bit for bit
        spec = BallSpec(np.array([0.2, -0.1, 0.3]), 0.4, 0.2)
        count = CHUNK_SIZE + 4_000
        got = sample_ball(spec, count, seed=6, threads=threads)
        assert np.array_equal(got, chunked_ball_points(spec, count, 6, STREAM_BALL))


def reference_quantile(poly, count, seed):
    """M and its standard error on [-1/2, 1/2], read as `check_quantile_bounds`
    reads them: these polynomials vanish at 0, which its exponent rejects."""
    summary = sample_moduli(poly, INTERVAL_HALF, count, seed)
    return volume.quantile_with_se(summary, volume.QUANTILE_LEVEL)


class TestQuantile:
    def test_identity_closed_form(self):
        m, se = reference_quantile(IDENTITY_1D, 200_000, seed=11)
        expected = (1 - 1 / math.e) / 2
        assert abs(m - expected) <= 4 * se

    def test_square_closed_form(self):
        m, se = reference_quantile(SQUARE_1D, 200_000, seed=12)
        expected = ((1 - 1 / math.e) / 2) ** 2
        assert abs(m - expected) <= 4 * se
        assert m == pytest.approx(0.09990, abs=2e-3)

    def test_check_reports_this_estimator(self):
        rep = check_quantile_bounds(HALF_SHIFT, INTERVAL_HALF, [2.0], 50_000, seed=13)
        assert (rep.quantile, rep.quantile_std_err) == \
            reference_quantile(HALF_SHIFT, 50_000, seed=13)

    def test_constant_rejected(self):
        const = normalize(from_terms(1, {(0,): 1.0}))
        with pytest.raises(ValueError, match="constant"):
            check_quantile_bounds(const, INTERVAL_HALF, [2.0], 1000, seed=1)

    def test_missing_certificate_rejected(self):
        p = from_terms(1, {(1,): 2.0})
        with pytest.raises(ValueError, match="certificate"):
            check_quantile_bounds(p, INTERVAL_HALF, [2.0], 1000, seed=1)

    def test_certificate_slack_is_rounding_only(self):
        # coefficient l1 norm 1 + 1e-9: past the slack that covers rounding
        p = from_terms(1, {(0,): 0.5, (1,): 0.5 + 1e-9})
        with pytest.raises(ValueError, match="certificate"):
            check_quantile_bounds(p, INTERVAL_HALF, [2.0], 1000, seed=1)

    def test_forged_certificate_rejected(self):
        # sup |F| = 5.5 on the ball: both ball checks compute the
        # certificate from the coefficients, so no caller can vouch for it
        forged = MultiPoly(1, [[0], [1]], [0.5, 5.0])
        with pytest.raises(ValueError, match="certificate"):
            check_quantile_bounds(forged, INTERVAL_HALF, [2.0], 1000, seed=1)
        with pytest.raises(ValueError, match="certificate"):
            check_superlevel_power_bound(forged, INTERVAL_HALF, 0.5, [2.0],
                                         1000, seed=1)

    def test_unnormalized_certified_polynomial_accepted(self):
        # 0.5 + 0.25 z has l1 norm 3/4: certified without `normalize`
        p = from_terms(1, {(0,): 0.5, (1,): 0.25})
        assert check_quantile_bounds(p, INTERVAL_HALF, [2.0], 1000, seed=1).all_pass
        assert check_superlevel_power_bound(p, INTERVAL_HALF, 0.5, [2.0],
                                            1000, seed=1).all_pass


class TestLevelFraction:
    def test_zero_threshold(self):
        frac, _ = level_fraction(HALF_SHIFT, BallSpec(np.zeros(1), 0.7, 0.25),
                                 0.0, "ge", 10_000, seed=7)
        assert frac == 1.0

    def test_above_certificate(self):
        frac, _ = level_fraction(HALF_SHIFT, BallSpec(np.zeros(1), 0.7, 0.25),
                                 1.0 + 1e-9, "ge", 10_000, seed=7)
        assert frac == 0.0

    def test_nan_threshold_rejected(self):
        with pytest.raises(ValueError, match="threshold must be nonnegative"):
            level_fraction(HALF_SHIFT, BallSpec(np.zeros(1), 0.7, 0.25),
                           math.nan, "ge", 10_000, seed=7)

    def test_identity_median(self):
        frac, se = level_fraction(IDENTITY_1D, INTERVAL_HALF, 0.25, "le",
                                  100_000, seed=8)
        assert abs(frac - 0.5) <= 4 * se

    def test_quantile_self_consistency(self):
        m, m_se = reference_quantile(IDENTITY_1D, 100_000, seed=21)
        frac, se = level_fraction(IDENTITY_1D, INTERVAL_HALF, m, "ge",
                                  100_000, seed=22)
        assert abs(frac - 1 / math.e) <= 3 * (se + m_se)


def f0_abs(p):
    """|F(0)|, as the ball checks pass it to sigma_exponent."""
    return abs(p.constant_term())


class TestSigma:
    def test_half_shift_value(self):
        sigma = sigma_exponent(f0_abs(HALF_SHIFT), 0.25)
        assert sigma == pytest.approx(3072 * math.log(2.0), rel=1e-12)
        assert sigma == pytest.approx(2129.35, abs=0.01)

    def test_zero_constant_term_rejected(self):
        with pytest.raises(ValueError, match="undefined"):
            sigma_exponent(f0_abs(IDENTITY_1D), 0.25)

    def test_unimodular_constant_rejected(self):
        p = normalize(from_terms(1, {(0,): 1.0}))
        with pytest.raises(ValueError):
            sigma_exponent(f0_abs(p), 0.25)

    def test_dimension_free(self):
        sig1 = sigma_exponent(f0_abs(HALF_SHIFT), 0.25)
        for n in (2, 4, 8, 16):
            assert sigma_exponent(f0_abs(lift(HALF_SHIFT, n)), 0.25) == sig1


class TestQuantileBounds:
    def test_half_shift_two_dims(self):
        p = lift(HALF_SHIFT, 2)
        spec = BallSpec(np.zeros(2), 0.7, 0.25)
        rep = check_quantile_bounds(p, spec, [1.5, 2.0, 4.0, 8.0],
                                    100_000, seed=31)
        assert rep.all_pass
        assert rep.sigma == pytest.approx(3072 * math.log(2.0), rel=1e-12)
        # thresholds are astronomically slack: empirical fractions vanish
        for row in rep.rows:
            assert row.small_fraction == 0.0
            assert row.tail_fraction == 0.0

    def test_lambda_one_trivial(self):
        # the small-set bound 1/lambda = 1 holds whatever F does
        with pytest.raises(ValueError, match=r"lambdas\[1\] must be > 1, got 1.0"):
            check_quantile_bounds(HALF_SHIFT, BallSpec(np.zeros(1), 0.7, 0.25),
                                  [2.0, 1.0], 20_000, seed=32)

    def test_large_lambda_tail(self):
        # exp(-50) is under one sample's mass at 5e4 samples, so the tail
        # bound would pass on an empty tail
        with pytest.raises(ValueError, match=r"lambdas\[0\] must have samples "
                                             r"\* exp\(-lambda\) >= 1"):
            check_quantile_bounds(HALF_SHIFT, BallSpec(np.zeros(1), 0.7, 0.25),
                                  [50.0], 50_000, seed=33)

    def test_invalid_lambda(self):
        with pytest.raises(ValueError):
            check_quantile_bounds(HALF_SHIFT,
                                  BallSpec(np.zeros(1), 0.7, 0.25),
                                  [0.5], 10_000, seed=1)


class TestSuperlevelPowerBound:
    def test_lambda_one_monotone(self):
        # at lambda = 1 the bound only says that a superlevel fraction falls
        # as its threshold rises
        spec = BallSpec(np.zeros(1), 0.7, 0.25)
        with pytest.raises(ValueError, match=r"lambdas\[0\] must be > 1"):
            check_superlevel_power_bound(HALF_SHIFT, spec, 0.3, [1.0],
                                         50_000, seed=41)

    def test_threshold_above_maximum(self):
        spec = BallSpec(np.zeros(1), 0.7, 0.25)
        rep = check_superlevel_power_bound(HALF_SHIFT, spec, 2.0, [2.0],
                                           20_000, seed=42)
        assert rep.rows[0].lhs == 0.0
        assert rep.all_pass

    def test_at_reference_quantile_matches_tail_row(self):
        spec = BallSpec(np.zeros(1), 0.7, 0.25)
        qb = check_quantile_bounds(HALF_SHIFT, spec, [2.0], 50_000, seed=43)
        sf = check_superlevel_power_bound(HALF_SHIFT, spec, qb.quantile,
                                          [2.0], 50_000, seed=43)
        # same seed, same stream: identical samples, identical tail fraction
        assert sf.rows[0].lhs == qb.rows[0].tail_fraction
        assert sf.all_pass

    @pytest.mark.parametrize("c, message", [(math.nan, "positive"),
                                            (-1.0, "positive"),
                                            (math.inf, "finite")])
    def test_bad_c_rejected(self, c, message):
        spec = BallSpec(np.zeros(1), 0.7, 0.25)
        with pytest.raises(ValueError, match=f"c must be {message}"):
            check_superlevel_power_bound(HALF_SHIFT, spec, c, [2.0],
                                         20_000, seed=42)


class TestLambdaRule:
    """One rule for every ball check: lambda > 1 and samples * exp(-lambda)
    >= 1, checked before any sample is drawn."""

    @pytest.mark.parametrize("lambdas, count, ok", [
        ([1.5, 2.0, 4.0, 8.0], 1_000_000, True),
        ([8.0], 2981, True), ([8.0], 2980, False),
        ([1.0], 10**6, False), (np.nextafter(1.0, 2.0), 1000, True),
        ([-1e300], 1000, False), ([math.nan], 1000, False)])
    def test_rule(self, lambdas, count, ok):
        lambdas = list(np.atleast_1d(lambdas))
        if ok:
            assert volume.check_lambdas(lambdas, count) == [float(l) for l in lambdas]
        else:
            with pytest.raises(ValueError, match=r"lambdas\[0\]"):
                volume.check_lambdas(lambdas, count)

    @pytest.mark.parametrize("check", [
        lambda lambdas: check_quantile_bounds(
            HALF_SHIFT, INTERVAL_HALF, lambdas, 50_000, seed=1),
        lambda lambdas: check_superlevel_power_bound(
            HALF_SHIFT, INTERVAL_HALF, 0.3, lambdas, 50_000, seed=1)])
    @pytest.mark.parametrize("lam", [1.0, 50.0])
    def test_checks_draw_no_sample(self, monkeypatch, check, lam):
        drawn = []
        monkeypatch.setattr(volume, "map_chunks",
                            lambda *args: drawn.append(args))
        with pytest.raises(ValueError, match=r"lambdas\[1\]"):
            check([2.0, lam])
        assert drawn == []


class TestScaleCoherence:
    def test_unimodular_rotation_bitwise(self):
        spec = BallSpec(np.zeros(1), 0.7, 0.25)
        p = HALF_SHIFT
        q = from_terms(1, {(0,): -0.5, (1,): -0.5})  # u = -1 times p
        q = normalize(q)
        a = sample_moduli(p, spec, 50_000, seed=51)
        b = sample_moduli(q, spec, 50_000, seed=51)
        np.testing.assert_array_equal(a.sorted_moduli, b.sorted_moduli)


def test_reports_deterministic_across_threads_and_runs():
    spec = BallSpec(np.zeros(2), 0.7, 0.25)
    p = lift(HALF_SHIFT, 2)
    a = check_quantile_bounds(p, spec, [2.0, 4.0], 150_000, seed=61, threads=1)
    b = check_quantile_bounds(p, spec, [2.0, 4.0], 150_000, seed=61, threads=3)
    assert a.quantile == b.quantile
    for ra, rb in zip(a.rows, b.rows):
        assert ra == rb


class TestSampleMemo:
    """sample_moduli remembers its last call, keyed on every argument."""

    P2 = lift(HALF_SHIFT, 2)
    SPEC2 = BallSpec(np.zeros(2), 0.7, 0.25)
    BASE = {"poly": P2, "spec": SPEC2, "count": 20_000, "seed": 71, "threads": 1}

    @pytest.fixture
    def draws(self, monkeypatch):
        """Start from an empty memo and count the map_chunks passes."""
        monkeypatch.setattr(volume, "_last_moduli", None)
        calls = []
        inner = volume.map_chunks

        def counting(*args, **kwargs):
            calls.append(args[0])
            return inner(*args, **kwargs)

        monkeypatch.setattr(volume, "map_chunks", counting)
        return calls

    def test_quantile_and_power_checks_draw_once(self, draws):
        spec = self.SPEC2
        qb = check_quantile_bounds(self.P2, spec, [2.0, 4.0], 100_000, seed=72)
        check_superlevel_power_bound(self.P2, spec, qb.quantile, [2.0, 4.0],
                                     100_000, seed=72)
        assert draws == [100_000]

    @pytest.mark.parametrize("change", [
        {"seed": 72},
        {"count": 20_001},
        {"threads": 2},
        {"poly": lift(normalize(from_terms(1, {(0,): 0.5, (1,): 0.5j})), 2)},
        {"spec": BallSpec(np.array([0.01, 0.0]), 0.7, 0.25)},
        {"spec": BallSpec(np.zeros(2), 0.6, 0.25)},
    ], ids=["seed", "count", "threads", "coefficient", "centre", "radius"])
    def test_any_argument_change_draws_again(self, draws, change):
        first = sample_moduli(**self.BASE)
        again = sample_moduli(**self.BASE)
        assert again is first and draws == [20_000]
        changed = sample_moduli(**{**self.BASE, **change})
        assert changed is not first
        assert len(draws) == 2

    def test_sample_is_read_only(self, draws):
        summary = sample_moduli(**self.BASE)
        with pytest.raises(ValueError, match="read-only"):
            summary.sorted_moduli[0] = 0.0
        assert not summary.sorted_moduli.flags.writeable

    def test_concurrent_callers_get_their_own_sample(self, monkeypatch):
        # more threads than cores, alternating keys, frequent switches: every
        # caller must still receive the sample of its own arguments
        monkeypatch.setattr(volume, "_last_moduli", None)
        seeds = (81, 82, 83)
        refs = {s: sample_moduli(**{**self.BASE, "seed": s}).sorted_moduli.copy()
                for s in seeds}
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=6) as pool:
                jobs = [(s, pool.submit(sample_moduli, **{**self.BASE, "seed": s}))
                        for s in seeds * 40]
                got = [(s, job.result(timeout=60)) for s, job in jobs]
        finally:
            sys.setswitchinterval(old)
        for s, summary in got:
            np.testing.assert_array_equal(summary.sorted_moduli, refs[s])


def _random_cubic():
    rng = np.random.default_rng(90)
    return normalize(from_terms(1, {(k,): complex(*rng.standard_normal(2))
                                    for k in range(4)}))


def _reads_all_eight():
    terms = {(0,) * 8: 0.3, (1,) + (0,) * 6 + (1,): 0.2j}
    for j in range(8):
        alpha = [0] * 8
        alpha[j] = 1 + j % 3
        terms[tuple(alpha)] = 0.1 * (j + 1) - 0.05j
    return normalize(from_terms(8, terms))


CENTRE_8 = 0.3 * np.cos(np.arange(8.0)) / np.linalg.norm(np.cos(np.arange(8.0)))
# (name, F, ball): lifted one-variable templates at n = 1, 2 and 8, then
# F reading all 8 coordinates, 2 of 8, one of 8 plus a constant, and none
IDENTITY_CASES = [
    *[(f"{name}/n={n}", lift(p, n), BallSpec(np.zeros(n), 0.7, 0.25))
      for name, p in (("half_shift", HALF_SHIFT), ("cubic", _random_cubic()))
      for n in (1, 2, 8)],
    ("all_of_8", _reads_all_eight(), BallSpec(CENTRE_8, 0.4, 0.25)),
    ("2_of_8", normalize(from_terms(8, {(0,) * 8: 0.2, (0, 0, 2, 0, 0, 0, 0, 0): 0.5,
                                        (0, 0, 1, 0, 0, 1, 0, 0): -0.3j})),
     BallSpec(CENTRE_8, 0.4, 0.25)),
    ("const_plus_x6", normalize(from_terms(8, {(0,) * 8: 0.5,
                                               (0, 0, 0, 0, 0, 1, 0, 0): 0.5})),
     BallSpec(CENTRE_8, 0.4, 0.25)),
    ("constant", from_terms(8, {(0,) * 8: 0.5}), BallSpec(CENTRE_8, 0.4, 0.25)),
]
IDENTITY_COUNT = CHUNK_SIZE + 4_000  # a full chunk and a partial one


def full_point_moduli(p, spec, count, seed, stream):
    """|F| at every ball point built in all n coordinates, chunk by chunk."""
    return np.abs(eval_many(p, chunked_ball_points(spec, count, seed, stream)))


class TestUsedCoordinates:
    """The ball worker builds only the coordinates F reads; every |F| is
    bit-identical to the one from the full points."""

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("name,p,spec", IDENTITY_CASES,
                             ids=[c[0] for c in IDENTITY_CASES])
    def test_sample_moduli_matches_full_points(self, name, p, spec, threads):
        got = sample_moduli(p, spec, IDENTITY_COUNT, seed=91, threads=threads)
        want = np.sort(np.abs(eval_many(p, sample_ball(spec, IDENTITY_COUNT, seed=91))))
        assert np.array_equal(got.sorted_moduli, want)

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("name,p,spec", IDENTITY_CASES,
                             ids=[c[0] for c in IDENTITY_CASES])
    def test_level_fraction_matches_full_points(self, name, p, spec, threads):
        vals = full_point_moduli(p, spec, IDENTITY_COUNT, 92, STREAM_LEVEL)
        t = float(np.median(vals))
        for side, hits in (("le", vals <= t), ("ge", vals >= t)):
            frac, _ = level_fraction(p, spec, t, side, IDENTITY_COUNT, seed=92,
                                     threads=threads)
            assert frac == np.count_nonzero(hits) / IDENTITY_COUNT


@pytest.mark.parametrize("name,p,spec", IDENTITY_CASES,
                         ids=[c[0] for c in IDENTITY_CASES])
def test_real_point_moduli_match_complex_power(name, p, spec):
    # eval_many works in real arithmetic on real points: same |F| bits
    pts = sample_ball(spec, IDENTITY_COUNT, seed=94)
    assert np.array_equal(np.abs(eval_many(p, pts)), np.abs(complex_power_eval(p, pts)))


@pytest.mark.parametrize("threads", [1, 2])
def test_eval_many_sees_every_ball_point(monkeypatch, threads):
    # the benchmark counts points x terms in volume.eval_many and compares
    # sample_moduli against eval_many on sample_ball: one call per chunk,
    # carrying every point of it
    monkeypatch.setattr(volume, "_last_moduli", None)
    calls = []
    inner = volume.eval_many

    def counting(p, points):
        calls.append((len(points), p.n_terms))
        return inner(p, points)

    monkeypatch.setattr(volume, "eval_many", counting)
    _, p, spec = next(c for c in IDENTITY_CASES if c[0] == "cubic/n=8")
    count = 2 * CHUNK_SIZE + 1234
    for run in (lambda: sample_moduli(p, spec, count, seed=93, threads=threads),
                lambda: level_fraction(p, spec, 0.5, "ge", count, seed=93,
                                       threads=threads)):
        calls.clear()
        run()
        assert sorted(size for size, _ in calls) == sorted(chunk_sizes(count))
        assert sum(size * terms for size, terms in calls) == count * p.n_terms


COUNT_CALLS = {
    "sample_ball": lambda n: sample_ball(INTERVAL_HALF, n, seed=1),
    "sample_moduli": lambda n: sample_moduli(IDENTITY_1D, INTERVAL_HALF, n, seed=1),
    # unchecked, these two divide by zero and index an empty sample
    "level_fraction": lambda n: level_fraction(IDENTITY_1D, INTERVAL_HALF, 0.1,
                                               "le", n, seed=1),
    "growth_experiment": lambda n: thinrect.growth_experiment(
        [thinrect.ThinRectFunction(thinrect.monomial_on_quarter(m), 0.1)
         for m in (1, 2)], 1e-3, [2.0], n, seed=1),
    "rectangle_moduli": lambda n: thinrect.rectangle_moduli(
        thinrect.ThinRectFunction(np.array([0.0, 1.0]), 0.1), 1e-3, n, seed=1),
    "limit_moduli": lambda n: thinrect.limit_moduli(
        thinrect.ThinRectFunction(np.array([0.0, 1.0]), 0.1), n, seed=1),
}


@pytest.mark.parametrize("count", [0, -1])
@pytest.mark.parametrize("call", COUNT_CALLS)
def test_every_sampler_rejects_count_below_one(monkeypatch, call, count):
    # one rule, in sampling.map_chunks, whatever sampler draws
    monkeypatch.setattr(volume, "_last_moduli", None)
    with pytest.raises(ValueError, match="count must be >= 1"):
        COUNT_CALLS[call](count)

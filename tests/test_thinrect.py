import math
from types import SimpleNamespace

import mpmath as mp
import numpy as np
import pytest
from numpy.polynomial import Chebyshev, Polynomial

from sublevel_lab import thinrect
from sublevel_lab.poly import certify_sup, eval_many, from_terms
from sublevel_lab.sampling import ks_distance
from sublevel_lab.thinrect import (ThinRectFunction, _LimitLaw, build_function,
                                   chebyshev_on_quarter, chebyshev_series,
                                   disk_normalized, disk_sup_upper_bound,
                                   eval_on_rectangle, growth_experiment,
                                   ks_to_thin_limit, limit_moduli,
                                   monomial_on_quarter,
                                   oracle_required_exponent, oracle_quantile,
                                   rectangle_moduli,
                                   required_exponent_from_summary)

def two_variable_poly(f):
    """F = eta Q(z1) + z2/2 + 1/4 as a two-variable polynomial: the
    reference for the rectangle values and the sup bound on the ball."""
    q = f.q.convert(kind=np.polynomial.Polynomial).coef
    return from_terms(2, [((k, 0), f.eta * c) for k, c in enumerate(q)]
                      + [((0, 0), 0.25), ((0, 1), 0.5)])


def required_exponent(f, delta, lam, count, seed):
    """sigma_eff of the rectangle law of width `delta`, from one sample."""
    return required_exponent_from_summary(
        rectangle_moduli(f, delta, count, seed), lam)


COMPLEX_Q = "F takes a real Q: a coefficient of Q has a nonzero imaginary part"
LINEAR = np.array([0.0, 1.0])          # Q(z) = z
CONSTANT = np.array([1.0])
ZERO = np.array([0.0])
QUANTILE_LEVELS = (1 - 1 / math.e, 0.5, 0.125)


def chebyshev_level(m, level):
    """c with measure{w in [-1, 1] : |T_m(w)| <= c} / 2 = level, from the
    arccos form: with w = cos(theta), |cos(m theta)| <= c on m theta-intervals
    [(k pi + a)/m, (k pi + pi - a)/m], a = arccos(c); solved at 40 digits."""
    def fraction(c):
        a = mp.acos(c)
        return sum(mp.cos((k * mp.pi + a) / m) - mp.cos((k * mp.pi + mp.pi - a) / m)
                   for k in range(m)) / 2 - level

    with mp.workdps(40):
        return float(mp.findroot(fraction, (0, 1), solver="illinois"))


class TestDiskSupBound:
    def test_linear(self):
        assert disk_sup_upper_bound(LINEAR) == pytest.approx(1.0)

    def test_dominates_boundary_samples(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            q = rng.standard_normal(int(rng.integers(1, 12)))
            upper = disk_sup_upper_bound(q)
            theta = rng.random(500) * 2 * np.pi
            vals = np.abs(np.polynomial.polynomial.polyval(
                np.exp(1j * theta), q.astype(complex)))
            assert upper >= np.max(vals) - 1e-12

    def test_chebyshev_normalization(self):
        # T_m(8z - 1) has power coefficients of alternating sign, so their l1
        # norm is |T_m(-9)| = cosh(m arccosh 9), the disk sup itself
        with mp.workdps(50):
            for m in range(33):
                exact = mp.cosh(m * mp.acosh(9))
                bound = disk_sup_upper_bound(chebyshev_series(m))
                assert abs(bound - exact) <= 1e-14 * exact, m
        # for any coefficients the bound is their l1 norm
        rng = np.random.default_rng(21)
        for _ in range(50):
            n = int(rng.integers(1, 40))
            q = rng.standard_normal(n)
            assert disk_sup_upper_bound(q) == np.sum(np.abs(q))

    def test_rescaled_chebyshev_growth(self):
        # the certified disk sup explodes with the degree, which is what
        # drives the admissibility ceiling for this family
        sups = [disk_sup_upper_bound(chebyshev_on_quarter(m))
                for m in (4, 8, 16)]
        assert sups[0] > 1e4 and sups[1] > 1e9 and sups[2] > 1e19


class TestBuildFunction:
    def test_constant_q(self):
        f = ThinRectFunction(CONSTANT, 0.1)
        assert f.f0_abs == pytest.approx(0.35)

    def test_zero_q(self):
        f = ThinRectFunction(ZERO, 0.1)
        assert f.f0_abs == pytest.approx(0.25)

    def test_normalized_chebyshev_accepted(self):
        q = disk_normalized(chebyshev_on_quarter(10))
        f = ThinRectFunction(q, 0.1)
        assert f.f0_abs >= 0.15 - 1e-12

    def test_unnormalized_chebyshev_rejected(self):
        with pytest.raises(ValueError, match="eta too large"):
            ThinRectFunction(chebyshev_on_quarter(10), 0.1)

    def test_hand_built_complex_q_draws_no_sample(self, monkeypatch):
        # F is built only through the class, which takes Q through the one
        # real-Q check before any sample can be drawn
        drawn = []
        monkeypatch.setattr(thinrect, "chunk_rng",
                            lambda *cell: drawn.append(cell))
        for q in (Polynomial([0.1, 0.5j]), np.array([0.1, 0.5j])):
            with pytest.raises(ValueError, match=COMPLEX_Q):
                growth_experiment([ThinRectFunction(q, 0.1),
                                   ThinRectFunction(LINEAR, 0.1)], 1e-3,
                                  [2.0], 2000, seed=1)
        assert drawn == []

    def test_inadmissible_eta_draws_no_sample(self, monkeypatch):
        # eta is certified when F is built, so no sampler sees an F outside
        # the theorem's class, and |F(0)| is not an argument
        drawn = []
        monkeypatch.setattr(thinrect, "chunk_rng",
                            lambda *cell: drawn.append(cell))
        for eta, match in ((10.0, "eta too large"), (0.0, "eta must be positive"),
                           (-0.1, "eta must be positive"),
                           (math.nan, "eta must be positive")):
            with pytest.raises(ValueError, match=match):
                rectangle_moduli(ThinRectFunction(LINEAR, eta), 1e-3, 2000, 1)
        with pytest.raises(ValueError, match="eta too large"):
            ThinRectFunction(ZERO, math.inf)
        with pytest.raises(TypeError):
            ThinRectFunction(LINEAR, 0.1, 0.25)
        assert drawn == []

    @pytest.mark.parametrize("m", range(33))
    def test_f0_abs_bit_equal_to_power_constant(self, m):
        # |F(0)| = |1/4 + eta q0|, q0 the constant power coefficient of Q,
        # bit for bit
        for q in (disk_normalized(chebyshev_series(m)), monomial_on_quarter(m)):
            q0 = thinrect._series(q).convert(kind=Polynomial).coef[0]
            want = float(abs(0.25 + 0.1 * q0))
            assert ThinRectFunction(q, 0.1).f0_abs.hex() == want.hex()

    def test_builder_name_is_the_class(self):
        # the benchmark builds F under the old builder's name
        assert build_function is ThinRectFunction

    def test_certificate_bound_for_admissible_families(self):
        members = [ZERO, CONSTANT, LINEAR, monomial_on_quarter(5),
                   disk_normalized(chebyshev_on_quarter(8))]
        for q in members:
            f = ThinRectFunction(q, 0.1)
            assert certify_sup(two_variable_poly(f)) <= 0.875 + 1e-12

    def test_f0_lower_bound_guarantee(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            q = disk_normalized(rng.standard_normal(int(rng.integers(1, 9))))
            f = ThinRectFunction(q, 0.1)
            # admissibility keeps eta |Q(0)| below 1/8, so |F(0)| > 1/8
            assert f.f0_abs > 0.125


class TestDistributions:
    @pytest.mark.parametrize("delta", (0.0, 0.6))
    def test_delta_domain(self, delta):
        f = ThinRectFunction(ZERO, 0.1)
        with pytest.raises(ValueError, match="delta"):
            rectangle_moduli(f, delta, 1000, seed=3)

    def test_zero_q_uniform_range(self):
        f = ThinRectFunction(ZERO, 0.1)
        summary = rectangle_moduli(f, 0.5, 50_000, seed=3)
        vals = summary.sorted_moduli
        assert vals[0] >= 0.0
        assert vals[-1] <= 0.25 + 1e-12

    def test_small_delta_concentration(self):
        f = ThinRectFunction(ZERO, 0.1)
        summary = rectangle_moduli(f, 1e-4, 20_000, seed=4)
        assert summary.sorted_moduli[-1] <= 0.5 * 1e-4 + 1e-12

    def test_certificate_dominates_all_moduli(self):
        q = disk_normalized(chebyshev_on_quarter(6))
        f = ThinRectFunction(q, 0.1)
        summary = rectangle_moduli(f, 0.3, 20_000, seed=5)
        assert summary.sorted_moduli[-1] <= 0.875

    def test_limit_point_mass_for_constant(self):
        f = ThinRectFunction(CONSTANT, 0.1)
        summary = limit_moduli(f, 10_000, seed=6)
        np.testing.assert_allclose(summary.sorted_moduli, 0.1, rtol=1e-12)

    def test_limit_uniform_for_linear(self):
        f = ThinRectFunction(LINEAR, 0.1)
        summary = limit_moduli(f, 100_000, seed=7)
        vals = summary.sorted_moduli
        assert vals[-1] <= 0.025 + 1e-12
        # uniform law: mean 0.0125
        assert np.mean(vals) == pytest.approx(0.0125, abs=3e-4)

    def test_rectangle_eval_consistency(self):
        q = disk_normalized(chebyshev_on_quarter(4))
        f = ThinRectFunction(q, 0.1)
        x1 = np.array([0.0, 0.1, 0.2])
        x2 = np.array([-0.5, -0.45, -0.4])
        pts = np.stack([x1, x2], axis=1).astype(complex)
        direct = np.abs(eval_many(two_variable_poly(f), pts))
        np.testing.assert_allclose(eval_on_rectangle(f, x1, x2), direct,
                                   rtol=1e-12)


class TestRealQ:
    """|F| from a real Q is bit for bit |F| from complex arithmetic on the
    same coefficients: each imaginary part there is +-0, and abs of such a
    number is abs of its real part."""

    @staticmethod
    def complex_reference(f):
        """f with Q's power coefficients held as complex numbers, so every
        value of Q and F is computed in complex arithmetic.  It stands in for
        a `ThinRectFunction`, which would make Q real."""
        return SimpleNamespace(q=Polynomial(f.q.coef.astype(complex)),
                               eta=f.eta, f0_abs=f.f0_abs)

    @pytest.mark.parametrize("q", [
        LINEAR, monomial_on_quarter(7), disk_normalized(chebyshev_on_quarter(6)),
        disk_normalized(np.random.default_rng(31).standard_normal(9))])
    def test_matches_complex_arithmetic(self, q):
        f = ThinRectFunction(q, 0.1)
        ref = self.complex_reference(f)
        rng = np.random.default_rng(32)
        x1, x2 = 0.25 * rng.random(1000), -0.5 + 1e-2 * rng.random(1000)
        assert f.q(x1).dtype == float
        assert np.array_equal(eval_on_rectangle(f, x1, x2),
                              eval_on_rectangle(ref, x1, x2))
        assert np.array_equal(rectangle_moduli(f, 1e-3, 50_000, 33, 2).sorted_moduli,
                              rectangle_moduli(ref, 1e-3, 50_000, 33, 2).sorted_moduli)
        assert np.array_equal(limit_moduli(f, 50_000, 34, 2).sorted_moduli,
                              limit_moduli(ref, 50_000, 34, 2).sorted_moduli)


class TestRequiredExponent:
    def test_uniform_closed_form(self):
        f = ThinRectFunction(ZERO, 0.1)
        est = required_exponent(f, 1e-3, 2.0, 400_000, seed=8)
        expected = math.log(2 * (1 - 1 / math.e)) / math.log(16.0)
        assert abs(est.sigma_eff - expected) <= 4 * est.std_err
        assert est.sigma_eff == pytest.approx(expected, abs=5e-3)

    def test_lambda_floor(self):
        f = ThinRectFunction(ZERO, 0.1)
        with pytest.raises(ValueError, match="lambda"):
            required_exponent(f, 1e-3, 1.05, 10_000, seed=9)

    def test_monotone_pair(self):
        # degree-1 vs degree-2 monomials: sublevel exponents 1 vs 1/2
        fam = [np.array([0.0, 1.0]), np.array([0.0, 0.0, 1.0])]
        delta = 1e-5
        vals = []
        for i, q in enumerate(fam):
            f = ThinRectFunction(q, 0.1)
            est = required_exponent(f, delta, 2.0, 200_000, seed=10 + i)
            vals.append(est.sigma_eff)
        assert vals[1] > vals[0]
        assert vals[1] / vals[0] == pytest.approx(2.0, abs=0.35)


class TestOracle:
    def test_sublevel_measure_linear(self):
        # measure{0.1 t <= s} on [0, 1/4] = min(10 s, 1/4)
        for s in (0.0, 0.005, 0.02, 0.03):
            got = _LimitLaw(LINEAR, 0.1).sublevel(s)[0]
            assert got == pytest.approx(min(10 * s, 0.25), abs=1e-9)

    def test_sublevel_measure_oscillating(self):
        q = disk_normalized(chebyshev_on_quarter(6))
        eta = 0.1
        s = 0.3 * eta / disk_sup_upper_bound(chebyshev_on_quarter(6)) * \
            disk_sup_upper_bound(q)  # some interior level
        got = _LimitLaw(q, eta).sublevel(s)[0]
        # Monte Carlo cross-check
        rng = np.random.default_rng(0)
        t = rng.random(200_000) * 0.25
        frac = np.mean(np.abs(eta * np.polynomial.polynomial.polyval(
            t, q.astype(complex))) <= s)
        assert got / 0.25 == pytest.approx(frac, abs=5e-3)

    def test_oracle_quantile_uniform(self):
        # |0.1 t| uniform on [0, 0.025]: level-q quantile is 0.025 q
        for level in (0.3, 0.5, 1 - 1 / math.e):
            got = oracle_quantile(LINEAR, 0.1, level)
            assert got == pytest.approx(0.025 * level, rel=1e-6)

    @pytest.mark.parametrize("m", range(1, 33))
    def test_monomial_closed_forms(self, m):
        # |0.1 t^m| <= s on [0, min(1/4, (10 s)^(1/m))]; level-L quantile 0.1 (L/4)^m
        q = monomial_on_quarter(m)
        for level in QUANTILE_LEVELS:
            want = 0.1 * (level / 4) ** m
            assert oracle_quantile(q, 0.1, level) == pytest.approx(want, rel=1e-12, abs=0)
            assert _LimitLaw(q, 0.1).sublevel(want)[0] == pytest.approx(
                level / 4, rel=1e-12, abs=0)
        assert _LimitLaw(q, 0.1).sublevel(0.2)[0] == 0.25
        lam = 2.0
        want = m * math.log((1 - 1 / math.e) * lam) / math.log(8 * lam)
        f = ThinRectFunction(q, 0.1)
        assert oracle_required_exponent(f, lam) == pytest.approx(want, rel=1e-12, abs=0)

    @pytest.mark.parametrize("m", range(1, 33))
    def test_chebyshev_family_arccos_form(self, m):
        # the family as the CLI builds it: T_m(8t - 1) in its own basis, over
        # its certified disk sup
        q = disk_normalized(chebyshev_series(m))
        scale = 0.1 / disk_sup_upper_bound(chebyshev_series(m))
        for level in QUANTILE_LEVELS:
            want = scale * chebyshev_level(m, level)
            assert oracle_quantile(q, 0.1, level) == pytest.approx(want, rel=1e-12, abs=0)

    @pytest.mark.parametrize("m", (4, 8))
    def test_benchmark_power_basis_chebyshev(self, m):
        # the benchmark passes T_m as power coefficients and reads kappa from
        # the leading one, 2^(m-1) 8^m kappa
        q = disk_normalized(chebyshev_on_quarter(m))
        kappa = abs(q[-1]) / (2.0 ** (m - 1) * 8.0 ** m)
        want = [0.1 * kappa * chebyshev_level(m, level)
                for level in QUANTILE_LEVELS]
        got = [oracle_quantile(q, 0.1, level) for level in QUANTILE_LEVELS]
        # Horner on these coefficients errs by up to eps T_m(3) relative to
        # max |T_m| = 1 on [0, 1/4], 7e-11 at m = 8
        assert got == pytest.approx(want, rel=1e-10, abs=0)
        sigma = math.log(want[0] / want[1]) / math.log(16.0)
        f = ThinRectFunction(q, 0.1)
        assert oracle_required_exponent(f, 2.0) == pytest.approx(sigma, rel=1e-10, abs=0)

    def test_complex_q_rejected(self):
        # Q is real: every entry point rejects a nonzero imaginary part with
        # the one message, in an array and in a series alike
        calls = (lambda q: ThinRectFunction(q, 0.1), disk_sup_upper_bound,
                 disk_normalized, lambda q: oracle_quantile(q, 0.1, 0.5),
                 lambda q: _LimitLaw(q, 0.1).sublevel(0.01)[0])
        for q in (np.array([0.1, 0.5j]), Polynomial([0.1, 0.5j]),
                  Chebyshev([0.1, 1e-20j], domain=[0.0, 0.25])):
            for call in calls:
                with pytest.raises(ValueError, match=COMPLEX_Q):
                    call(q)
        # a complex dtype with zero imaginary parts is its real twin, bit for bit
        for real in (disk_normalized(chebyshev_on_quarter(5)),
                     disk_normalized(chebyshev_series(5))):
            twin = (real.astype(complex) if isinstance(real, np.ndarray)
                    else Chebyshev(real.coef.astype(complex), real.domain))
            f = ThinRectFunction(twin, 0.1)
            assert f == ThinRectFunction(real, 0.1) and f.q.coef.dtype == float
            assert disk_sup_upper_bound(twin) == disk_sup_upper_bound(real)
            norm_twin, norm_real = disk_normalized(twin), disk_normalized(real)
            assert np.array_equal(getattr(norm_twin, "coef", norm_twin),
                                  getattr(norm_real, "coef", norm_real))
            assert (_LimitLaw(twin, 0.1).sublevel(0.01)
                    == _LimitLaw(real, 0.1).sublevel(0.01))
            for level in QUANTILE_LEVELS:
                assert oracle_quantile(twin, 0.1, level) == \
                    oracle_quantile(real, 0.1, level)

    def test_constant_is_exact(self):
        for q in (CONSTANT, ZERO):
            want = abs(0.1 * complex(q[0]))
            for level in QUANTILE_LEVELS:
                assert oracle_quantile(q, 0.1, level) == want
        assert oracle_required_exponent(ThinRectFunction(CONSTANT, 0.1), 2.0) == 0.0

    def test_oracle_matches_monte_carlo(self):
        q = disk_normalized(chebyshev_on_quarter(4))
        f = ThinRectFunction(q, 0.1)
        summary = limit_moduli(f, 400_000, seed=12)
        est = required_exponent_from_summary(summary, 2.0)
        oracle = oracle_required_exponent(f, 2.0)
        assert abs(est.sigma_eff - oracle) <= 3 * est.std_err


class TestKolmogorovDistance:
    def test_identical_samples(self):
        a = np.linspace(0, 1, 1000)
        assert ks_distance(a, a) == 0.0

    @staticmethod
    def union_grid(a, b):
        """sup |F_a - F_b| over every point of both samples, by search."""
        sa, sb = np.sort(a), np.sort(b)
        grid = np.sort(np.concatenate([sa, sb]))
        return float(np.max(np.abs(np.searchsorted(sa, grid, side="right") / sa.size
                                   - np.searchsorted(sb, grid, side="right") / sb.size)))

    @pytest.mark.parametrize("seed", range(5))
    def test_tied_unequal_samples_match_union_grid(self, seed):
        # integer draws tie within and across samples; sizes differ
        rng = np.random.default_rng(seed)
        a = rng.integers(0, 12, 1000).astype(float)
        b = rng.integers(2, 15, 1537).astype(float)
        ref = self.union_grid(a, b)
        assert ks_distance(a, b).hex() == ref.hex()
        assert ks_distance(b, a).hex() == ref.hex()

    def test_nan_samples_match_union_grid(self):
        # NaNs sort last and tie with one another, infinities tie below them
        rng = np.random.default_rng(20)
        pairs = [(np.array([np.nan]), np.array([np.nan, np.nan])),
                 (np.array([np.nan, 1.0]), np.array([np.inf, np.nan]))]
        for _ in range(200):
            a, b = (rng.integers(0, 6, rng.integers(1, 30)).astype(float)
                    for _ in range(2))
            for x in (a, b):
                x[rng.random(x.size) < 0.25] = np.nan
                x[rng.random(x.size) < 0.05] = np.inf
            pairs.append((a, b))
        for a, b in pairs:
            ref = self.union_grid(a, b)
            assert ks_distance(a, b).hex() == ref.hex()
            assert ks_distance(b, a).hex() == ref.hex()

    def test_rect_vs_limit_linear_small_delta(self):
        f = ThinRectFunction(LINEAR, 0.1)
        rect = rectangle_moduli(f, 1e-4, 200_000, seed=13)
        lim = limit_moduli(f, 200_000, seed=14)
        assert ks_distance(rect.sorted_moduli, lim.sorted_moduli) <= 0.01

    def test_monotone_in_delta(self):
        f = ThinRectFunction(LINEAR, 0.1)
        lim = limit_moduli(f, 200_000, seed=15)
        noise = 2 * math.sqrt(2 / 200_000) * 2
        dists = []
        for i, delta in enumerate((1e-1, 1e-2, 1e-3, 1e-4)):
            rect = rectangle_moduli(f, delta, 200_000, seed=16 + i)
            dists.append(ks_distance(rect.sorted_moduli, lim.sorted_moduli))
        for a, b in zip(dists, dists[1:]):
            assert b <= a + noise


def convolution_ks(eta, delta):
    """sup_s (G(s) - H(s)) at 30 digits, where G is the CDF of Y uniform on
    [0, eta/4] and H(s) = (1/b) int_0^b G(s - w) dw that of Y + w, w uniform
    on [0, b = delta/2], by quadrature split at the integrand's kinks.  The
    grid holds the kinks a and b of G - H among 65 points of [0, a + b];
    G - H is quadratic between kinks, so a peak inside a piece that the grid
    missed would read low and fail the comparison, not pass it."""
    with mp.workdps(30):
        a, b = mp.mpf(eta) / 4, mp.mpf(delta) / 2

        def g(x):
            return min(max(x / a, mp.mpf(0)), mp.mpf(1))

        def h(s):
            cuts = sorted({mp.mpf(0), b, *(c for c in (s - a, s) if 0 < c < b)})
            return mp.quad(lambda w: g(s - w), cuts) / b

        grid = {a, b} | {(a + b) * k / 64 for k in range(65)}
        return float(max(g(s) - h(s) for s in grid))


class TestThinLimitDistance:
    """`ks_to_thin_limit`: the Kolmogorov distance between the rectangle law
    of |F| for Q(z) = z and its thin limit, in closed form."""

    @pytest.mark.parametrize("eta, delta", [
        (0.1, 1e-4), (0.1, 1e-2), (0.05, 0.01), (0.1, 0.0625), (0.1, 0.5),
        (0.003, 0.2)])
    def test_matches_convolution_quadrature(self, eta, delta):
        # the first three take delta/eta, the last three 1 - eta/(4 delta)
        assert ks_to_thin_limit(eta, delta) == pytest.approx(
            convolution_ks(eta, delta), rel=1e-12, abs=0)

    @pytest.mark.parametrize("eta", [0.1, 0.02, 0.12])
    def test_branches_meet_at_half(self, eta):
        # delta/eta at delta = eta/2, and 1 - eta/(4 delta) just above it
        assert ks_to_thin_limit(eta, eta / 2) == 0.5
        above = np.nextafter(eta / 2, 1.0)
        assert ks_to_thin_limit(eta, above) == pytest.approx(0.5, rel=1e-15)

    @pytest.mark.parametrize("delta", [0.0, -1e-3, 0.51, math.nan])
    def test_delta_out_of_range(self, delta):
        with pytest.raises(ValueError, match="delta must lie"):
            ks_to_thin_limit(0.1, delta)

    @pytest.mark.parametrize("eta, match", [
        (0.125, "eta too large"), (0.125 - 5e-10, "eta too large"),
        (0.0, "eta must be positive")])
    def test_eta_not_admissible(self, eta, match):
        with pytest.raises(ValueError, match=match):
            ks_to_thin_limit(eta, 1e-4)

    @pytest.mark.parametrize("seed", [78, 99, 184])
    def test_sampled_statistic_is_near_exact(self, seed):
        # the two-sample statistic that the counterexample KS row once
        # reported (5e4 + 5e4 points).  It misses the exact distance by more
        # than 0.02 only if one empirical CDF is off by more than 0.01; by the
        # DKW inequality that has probability at most 4 exp(-2 * 5e4 * 1e-4)
        # = 1.8e-4 per seed for a correct program
        f = ThinRectFunction(LINEAR, 0.1)
        rect = rectangle_moduli(f, 1e-4, 50_000, seed)
        lim = limit_moduli(f, 50_000, seed + 1)
        sampled = ks_distance(rect.sorted_moduli, lim.sorted_moduli)
        assert abs(sampled - ks_to_thin_limit(0.1, 1e-4)) <= 0.02


class TestGrowthExperiment:
    def test_monomial_pair_passes(self):
        fam = [ThinRectFunction(q, 0.1)
               for q in (np.array([0.0, 1.0]), np.array([0.0, 0.0, 1.0]))]
        rep = growth_experiment(fam, 1e-5, [2.0], 150_000, seed=17)
        assert rep.strictly_increasing
        assert rep.theorem_sigma_ratio < 2.0
        assert rep.passed

    def test_single_member_rejected(self, monkeypatch):
        # one member has no neighbour to compare, and would pass vacuously
        drawn = []
        monkeypatch.setattr(thinrect, "chunk_rng",
                            lambda *cell: drawn.append(cell))
        for fam in ([], [ThinRectFunction(CONSTANT, 0.1)]):
            with pytest.raises(ValueError, match="at least two members"):
                growth_experiment(fam, 1e-3, [2.0], 20_000, seed=18)
        assert drawn == []

    @pytest.mark.parametrize("degrees", [(4, 2, 1), (2, 2, 4), (1, 0)])
    def test_degrees_must_strictly_increase(self, monkeypatch, degrees):
        # the clause reads sigma_eff along the list, so the list is read in
        # degree order: reversed, it fails a clause that holds, and with a
        # repeated degree it can never pass
        drawn = []
        monkeypatch.setattr(thinrect, "chunk_rng",
                            lambda *cell: drawn.append(cell))
        fam = [ThinRectFunction(monomial_on_quarter(m), 0.1) for m in degrees]
        with pytest.raises(ValueError, match="degrees must strictly increase"):
            growth_experiment(fam, 1e-5, [2.0], 20_000, seed=1)
        assert drawn == []

    @pytest.mark.parametrize("lambdas, match", [
        ([], "lambdas must hold at least one value"),
        ([1.05], "lambda must be >= 1.1"), ([2.0, math.nan], "lambda must be >= 1.1")],
        ids=["empty", "below-min", "nan"])
    def test_lambdas_checked_before_any_draw(self, monkeypatch, lambdas, match):
        # no lambda would give no rows and a vacuous pass; one below
        # MIN_LAMBDA must not cost a member's sample before it is rejected
        drawn = []
        monkeypatch.setattr(thinrect, "chunk_rng",
                            lambda *cell: drawn.append(cell))
        fam = [ThinRectFunction(monomial_on_quarter(m), 0.1) for m in (1, 2)]
        with pytest.raises(ValueError, match=match):
            growth_experiment(fam, 1e-3, lambdas, 20_000, seed=1)
        assert drawn == []

    def test_oracle_column_present(self):
        fam = [ThinRectFunction(q, 0.1) for q in (LINEAR, monomial_on_quarter(2))]
        rep = growth_experiment(fam, 1e-5, [2.0], 50_000, seed=20)
        for row in rep.rows:
            assert row.sigma_eff_oracle == pytest.approx(
                row.sigma_eff, abs=4 * row.sigma_eff_std_err + 0.01)

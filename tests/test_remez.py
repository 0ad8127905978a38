import math

import mpmath as mp
import numpy as np
import pytest
from numpy.polynomial import polynomial as npp

from sublevel_lab import remez
from sublevel_lab.cli import _read_function
from sublevel_lab.intervals import IntervalSet
from sublevel_lab.remez import (DiskFunction, classical_remez_check,
                                factor_bounds, random_disk_function, remez_check,
                                remez_exponent, split_criterion, split_zeros,
                                _certified_max, _log_abs, _log_form,
                                _log_form_enclosure, _max_log_form, _poly_enclosure)

EMPTY = np.array([], dtype=complex)


def make_f(zeros=(), atoms=(), const=1.0):
    locs = np.array([np.exp(1j * t) for t, _ in atoms], dtype=complex)
    ws = np.array([w for _, w in atoms], dtype=float)
    return DiskFunction(np.array(zeros, dtype=complex), locs, ws, const)


def blaschke_log_abs(zeros: np.ndarray, x) -> np.ndarray:
    """Reference: log |prod (x - z)/(1 - x conj(z))| at real or complex x."""
    x = np.asarray(x, dtype=np.complex128)
    if zeros.size == 0:
        return np.zeros(x.shape, dtype=float)
    xs = x[..., None]
    with np.errstate(divide="ignore"):
        return np.sum(np.log(np.abs(xs - zeros))
                      - np.log(np.abs(1.0 - xs * np.conj(zeros))), axis=-1)


def outer_log_abs(locs: np.ndarray, weights: np.ndarray, z) -> np.ndarray:
    """Reference: log |outer factor| = -sum w Re((loc + z)/(loc - z))."""
    z = np.asarray(z, dtype=np.complex128)
    if locs.size == 0:
        return np.zeros(z.shape, dtype=float)
    zs = z[..., None]
    return -np.sum(weights * np.real((locs + zs) / (locs - zs)), axis=-1)


def log_abs_f(f: DiskFunction, x) -> np.ndarray:
    """Reference for the package's vertex form of log|f|: the Blaschke
    product and the Poisson integral, at real or complex points."""
    return blaschke_log_abs(f.zeros, x) + outer_log_abs(f.atom_locs, f.atom_weights, x)


def eval_disk_function(f: DiskFunction, z: complex) -> complex:
    """Reference for log_abs_f: f at one point of the open disk, one factor
    at a time."""
    z = complex(z)
    if abs(z) >= 1.0:
        raise ValueError("point must lie in the open unit disk")
    value = complex(f.const)
    for zero in f.zeros:
        value *= (z - zero) / (1.0 - z * np.conj(zero))
    if f.atom_locs.size:
        value *= np.exp(-np.sum(f.atom_weights * (f.atom_locs + z) / (f.atom_locs - z)))
    return complex(value)


def format_disk_function(f: DiskFunction) -> str:
    """The disk-function literal that cli._read_function reads."""
    lines = [f"const {float(np.angle(f.const))!r}"]
    for z in f.zeros:
        lines.append(f"zero {float(z.real)!r} {float(z.imag)!r}")
    for loc, w in zip(f.atom_locs, f.atom_weights):
        lines.append(f"atom {float(np.angle(loc))!r} {float(w)!r}")
    return "\n".join(lines) + "\n"


ATOM_F = make_f(atoms=[(0.0, 0.1)])          # single atom at zeta=1, w=0.1
SINGLE_ZERO = make_f(zeros=[0.0])            # f(z) = z up to the constant


class TestEval:
    """The vertex form of log|f| at real points (`_LogForm.at`), against
    the Blaschke/Poisson reference above."""

    def test_empty_product_is_one(self):
        assert _log_abs(make_f()).at(np.array([0.3]))[0] == 0.0

    def test_single_zero_at_origin(self):
        got = _log_abs(SINGLE_ZERO).at(np.array([0.7]))[0]
        assert got == pytest.approx(math.log(0.7), rel=1e-14)

    def test_atom_kernel_value(self):
        # (1 - x^2)/(1 - x)^2 = 19 at x = 0.9
        got = _log_abs(ATOM_F).at(np.array([0.9]))[0]
        assert got == pytest.approx(-1.9, rel=1e-12)

    def test_modulus_bounded_by_one(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            f = random_disk_function(rng)
            z = (rng.random() * 0.98) * np.exp(1j * rng.random() * 2 * np.pi)
            assert log_abs_f(f, np.array([z]))[0] <= 1e-12
            assert _log_abs(f).at(np.array([z.real]))[0] <= 1e-12

    def test_log_abs_matches_eval(self):
        rng = np.random.default_rng(8)
        f = random_disk_function(rng)
        zs = (rng.random(20) * 0.9) * np.exp(1j * rng.random(20) * 2 * np.pi)
        logs = log_abs_f(f, zs)
        direct = np.array([abs(eval_disk_function(f, z)) for z in zs])
        np.testing.assert_allclose(np.exp(logs), direct, rtol=1e-10)
        for _ in range(50):
            f = random_disk_function(rng)
            xs = rng.uniform(-0.99, 0.99, 200)
            np.testing.assert_allclose(_log_abs(f).at(xs), log_abs_f(f, xs),
                                       rtol=1e-10, atol=1e-12)

    def test_zero_invariants_enforced(self):
        with pytest.raises(ValueError):
            make_f(zeros=[1.0])
        with pytest.raises(ValueError):
            DiskFunction(EMPTY, np.array([0.5 + 0j]), np.array([1.0]))
        with pytest.raises(ValueError):
            DiskFunction(EMPTY, EMPTY, np.array([]), const=2.0)

    def test_slacks_cover_rounding_only(self):
        # an atom or a constant 1e-6 off the unit circle, and a zero 1e-10
        # past 1 - ZERO_RADIUS_TOL, are each rejected
        with pytest.raises(ValueError, match="unit circle"):
            DiskFunction(EMPTY, np.array([1.0 + 1e-6 + 0j]), np.array([0.1]))
        with pytest.raises(ValueError, match="unimodular"):
            DiskFunction(EMPTY, EMPTY, np.array([]), const=1.0 + 1e-6)
        with pytest.raises(ValueError, match="zeros must satisfy"):
            make_f(zeros=[1.0 - remez.ZERO_RADIUS_TOL + 1e-10])


class TestSplit:
    def test_zero_at_origin_is_short_factor(self):
        fac = split_zeros([0.0], 0.9)
        assert fac.n_b2 == 1
        assert fac.b1_zeros.size == 0

    def test_near_boundary_imaginary_zero_is_tame(self):
        val = split_criterion(np.array([0.999j]), 0.9)[0]
        assert val == pytest.approx(0.0022, abs=2e-4)
        fac = split_zeros([0.999j], 0.9)
        assert fac.b1_zeros.size == 1

    def test_near_boundary_real_zero_is_short(self):
        val = split_criterion(np.array([0.99 + 0j]), 0.9)[0]
        assert val == pytest.approx(1.68, abs=0.01)
        fac = split_zeros([0.99 + 0j], 0.9)
        assert fac.n_b2 == 1

    def test_partition(self):
        rng = np.random.default_rng(12)
        f = random_disk_function(rng)
        fac = split_zeros(f.zeros, 0.8)
        assert fac.b1_zeros.size + fac.b2_zeros.size == f.zeros.size


class TestFactorBounds:
    def test_atom_example(self):
        rep = factor_bounds(ATOM_F, 0.9)
        outer = rep.checks["outer_min"]
        assert outer.statistic == pytest.approx(math.exp(-1.9), rel=1e-9)
        assert outer.bound == pytest.approx(
            math.exp(-(1.9 + 0.1 / 19) / 0.19), rel=1e-6)
        assert rep.all_pass

    def test_single_zero_count_bound(self):
        count = factor_bounds(SINGLE_ZERO, 0.9).checks["count"]
        assert count.statistic == 1
        assert count.bound == pytest.approx(3 / 0.19 * math.log(1 / 0.81),
                                            rel=1e-9)
        assert count.passed

    def test_trivial_function_equalities(self):
        # every factor is empty: each rule and the remez rule compare 0 with 0
        f = make_f(const=np.exp(0.3j))
        rep = factor_bounds(f, 0.7)
        assert list(rep.checks) == ["outer_min", "b1_min", "count",
                                    "denominator_ratio"]
        for name, want in (("outer_min", 1.0), ("b1_min", 1.0), ("count", 0),
                           ("denominator_ratio", 0.0)):
            c = rep.checks[name]
            assert c.statistic == c.bound == want, name
            assert c.passed, name
        assert rep.all_pass
        e = IntervalSet.from_pairs([(-0.5, -0.4), (0.1, 0.2)])
        rz = remez_check(f, 0.7, (-0.6, 0.7), e)
        assert rz.sigma == 0.0
        assert rz.log_max_i == rz.log_bound == 0.0
        assert rz.passed

    def test_randomized(self):
        rng = np.random.default_rng(77)
        for _ in range(40):
            f = random_disk_function(rng)
            a = float(rng.uniform(0.5, 0.99))
            assert factor_bounds(f, a).all_pass


class TestKernelDomination:
    @pytest.mark.parametrize("a", [0.5, 0.9, 0.99])
    def test_grid(self, a):
        thetas = np.linspace(0.0, 2 * np.pi, 10_000, endpoint=False)
        zetas = np.exp(1j * thetas)
        xs = np.linspace(-a, a, 401)
        lhs = 1.0 / np.abs(1.0 - xs[:, None] * zetas[None, :]) ** 2
        rhs = (1.0 / np.abs(1.0 - a * zetas) ** 2
               + 1.0 / np.abs(1.0 + a * zetas) ** 2)[None, :]
        assert np.all(lhs <= rhs + 1e-12)


class TestPerFactorBounds:
    def test_tame_factor_lower_bound(self):
        rng = np.random.default_rng(5)
        a = 0.9
        xs = np.linspace(-a, a, 1001)
        found = 0
        while found < 20:
            z = (np.sqrt(rng.random()) * 0.995
                 * np.exp(1j * rng.random() * 2 * np.pi))
            if split_criterion(np.array([z]), a)[0] > 2 / 3:
                continue
            found += 1
            log_b = blaschke_log_abs(np.array([z]), xs)
            log_ba = blaschke_log_abs(np.array([z]), np.array([a, -a]))
            bound = (log_ba[0] + log_ba[1]) * 2 * (1 - xs ** 2) / (1 - a * a)
            assert np.all(np.exp(log_b) >= np.exp(bound) - 1e-12)

    def test_short_factor_decay(self):
        rng = np.random.default_rng(6)
        a = 0.8
        found = 0
        while found < 20:
            z = (np.sqrt(rng.random()) * 0.995
                 * np.exp(1j * rng.random() * 2 * np.pi))
            if split_criterion(np.array([z]), a)[0] <= 2 / 3:
                continue
            found += 1
            log_ba = blaschke_log_abs(np.array([z]), np.array([a, -a]))
            val = np.exp(2 * (log_ba[0] + log_ba[1]))
            assert val <= math.exp(-2 * (1 - a * a) / 3) + 1e-12


class TestExponent:
    def test_single_zero(self):
        assert remez_exponent(SINGLE_ZERO, 0.9) == pytest.approx(
            3 / 0.1 * math.log(1 / 0.81), rel=1e-12)

    def test_unimodular_function(self):
        assert remez_exponent(make_f(), 0.9) == 0.0

    def test_atom_product_form(self):
        # product form 3/(1-a) * (1.9 + 1/190)
        expected = 30 * (1.9 + 0.1 / 19)
        assert remez_exponent(ATOM_F, 0.9) == pytest.approx(expected, rel=1e-12)

    def test_vanishing_endpoint_rejected(self):
        f = make_f(zeros=[0.9])
        with pytest.raises(ValueError):
            remez_exponent(f, 0.9)


class TestRemezCheck:
    def test_monotone_modulus_example(self):
        e = IntervalSet.from_pairs([(0.0, 0.09)])
        rep = remez_check(SINGLE_ZERO, 0.9, (0.0, 0.9), e, 10_001, 301)
        assert rep.passed
        assert rep.max_i == pytest.approx(0.9, rel=1e-9)
        assert rep.sup_e == pytest.approx(0.09, rel=1e-9)
        assert rep.sigma == pytest.approx(6.3216, abs=1e-3)

    def test_full_set_trivial(self):
        e = IntervalSet.from_pairs([(-0.7, 0.7)])
        rep = remez_check(ATOM_F, 0.7, (-0.7, 0.7), e, 10_001, 301)
        assert rep.passed
        assert rep.log_bound >= rep.log_max_i

    def test_randomized_instances(self):
        rng = np.random.default_rng(2024)
        for _ in range(40):
            f = random_disk_function(rng)
            a = float(rng.uniform(0.5, 0.99))
            lo = float(rng.uniform(-a, 0))
            hi = float(rng.uniform(lo + 0.05 * a, a))
            n = int(rng.integers(1, 11))
            cuts = np.sort(rng.uniform(lo, hi, 2 * n))
            e = IntervalSet.from_pairs(
                [(cuts[2 * k], cuts[2 * k + 1]) for k in range(n)])
            if e.total_length < (hi - lo) / 100:
                continue
            rep = remez_check(f, a, (lo, hi), e, 20_001, 501)
            assert rep.passed

    def test_interval_outside_range_rejected(self):
        e = IntervalSet.from_pairs([(0.0, 0.1)])
        with pytest.raises(ValueError):
            remez_check(SINGLE_ZERO, 0.5, (0.0, 0.9), e)

    def test_certified_max_one_ulp_above_bound_fails(self, monkeypatch):
        # the verdict reads max_I's certified bound, not its attained value
        interval, e = (0.1, 0.8), IntervalSet.from_pairs([(0.2, 0.4)])
        log_bound = remez_check(SINGLE_ZERO, 0.9, interval, e).log_bound
        certified_max = remez._certified_max

        def one_ulp_over(enclose, pairs, terms):
            best = certified_max(enclose, pairs, terms)
            if list(pairs) != [interval]:
                return best
            assert best.attained < log_bound
            return remez.Extremum(float(np.nextafter(log_bound, np.inf)),
                                  best.attained, best.segments)

        monkeypatch.setattr(remez, "_certified_max", one_ulp_over)
        rep = remez_check(SINGLE_ZERO, 0.9, interval, e)
        assert rep.log_bound == log_bound
        assert rep.log_max_i == np.nextafter(log_bound, np.inf)
        assert not rep.passed

    def test_factor_monotonicity_in_e(self):
        # ratio factor shrinks and sup grows when E is enlarged
        f = SINGLE_ZERO
        a = 0.9
        e_small = IntervalSet.from_pairs([(0.0, 0.05)])
        e_large = IntervalSet.from_pairs([(0.0, 0.05), (0.5, 0.6)])
        sigma = remez_exponent(f, a)
        ratio_small = sigma * math.log(8 * 0.9 / e_small.total_length)
        ratio_large = sigma * math.log(8 * 0.9 / e_large.total_length)
        assert ratio_large < ratio_small
        sup_small = _max_log_form(_log_abs(f), e_small.pairs()).attained
        sup_large = _max_log_form(_log_abs(f), e_large.pairs()).attained
        assert sup_large >= sup_small


# Both Remez checks read I and E through one validation: each bad pair is
# rejected by each check, with the message naming what is wrong.
REMEZ_CHECKS = {
    "remez_check": lambda interval, e: remez_check(SINGLE_ZERO, 0.9, interval, e),
    "classical_remez_check": lambda interval, e: classical_remez_check(
        np.array([1.0, -2.0, 0.5]), interval, e),
}


@pytest.mark.parametrize("check", REMEZ_CHECKS)
@pytest.mark.parametrize("interval, pairs, message", [
    ((0.3, 0.3), [(0.3, 0.3)], "interval I must have positive length"),
    ((0.0, 0.9), [], "set E must have positive length"),
    ((0.0, 0.9), [(0.2, 0.2)], "set E must have positive length"),
    ((0.0, 0.5), [(0.4, 0.6)], "E must be a subset of I"),
], ids=["zero-length-I", "empty-E", "zero-length-E", "E-outside-I"])
def test_interval_and_set_rejected(check, interval, pairs, message):
    with pytest.raises(ValueError, match=message):
        REMEZ_CHECKS[check](interval, IntervalSet.from_pairs(pairs))


@pytest.mark.parametrize("check, bound", [("remez_check", "log_bound"),
                                          ("classical_remez_check", "log_rhs")])
def test_bound_built_on_attained_sup_over_e(check, bound, monkeypatch):
    # sup_E enters the bound as a value attained in E: a certified sup far
    # above it leaves the bound as it is
    interval, e = (0.1, 0.8), IntervalSet.from_pairs([(0.2, 0.4), (0.5, 0.6)])
    want = getattr(REMEZ_CHECKS[check](interval, e), bound)
    certified_max = remez._certified_max

    def loose_over_e(enclose, pairs, terms):
        best = certified_max(enclose, pairs, terms)
        if list(pairs) == [interval]:
            return best
        return remez.Extremum(best.attained + 100.0, best.attained, best.segments)

    monkeypatch.setattr(remez, "_certified_max", loose_over_e)
    assert getattr(REMEZ_CHECKS[check](interval, e), bound) == want


class TestClassicalRemez:
    def test_power_closed_form(self):
        for n in (1, 3, 7):
            coeffs = np.zeros(n + 1)
            coeffs[n] = 1.0
            e = IntervalSet.from_pairs([(0.0, 0.5)])
            rep = classical_remez_check(coeffs, (0.0, 1.0), e, 20_001, 2001)
            assert rep.passed
            assert rep.lhs == pytest.approx(1.0, rel=1e-9)
            # bound is (4 * 1 / 0.5)^n * (1/2)^n = 4^n
            assert rep.rhs == pytest.approx(4.0 ** n, rel=1e-6)

    def test_full_set(self):
        coeffs = np.array([1.0, -2.0, 0.5])
        e = IntervalSet.from_pairs([(-1.0, 1.0)])
        rep = classical_remez_check(coeffs, (-1.0, 1.0), e)
        assert rep.passed

    def test_constant_degree_zero_equality(self):
        # max_I |P| = sup_E |P| and the bound's factor is 1 at degree 0
        e = IntervalSet.from_pairs([(0.2, 0.3), (0.5, 0.55)])
        for const in (3.0, 1.0, 0.7j, -2.5 + 1e-3j, 1e-200):
            rep = classical_remez_check(np.array([const]), (0.0, 1.0), e)
            assert rep.log_lhs == rep.log_rhs
            assert rep.lhs == rep.rhs
            assert rep.passed

    def test_certified_max_one_ulp_above_bound_fails(self, monkeypatch):
        coeffs = np.array([1.0, -2.0, 0.5])
        interval, e = (-1.0, 1.0), IntervalSet.from_pairs([(0.2, 0.6)])
        log_rhs = classical_remez_check(coeffs, interval, e).log_rhs
        certified_max = remez._certified_max

        def one_ulp_over(enclose, pairs, terms):
            best = certified_max(enclose, pairs, terms)
            if list(pairs) != [interval]:
                return best
            return remez.Extremum(float(np.nextafter(log_rhs, np.inf)),
                                  best.attained, best.segments)

        monkeypatch.setattr(remez, "_certified_max", one_ulp_over)
        rep = classical_remez_check(coeffs, interval, e)
        assert rep.log_rhs == log_rhs
        assert rep.log_lhs == np.nextafter(log_rhs, np.inf)
        assert not rep.passed

    def test_randomized(self):
        rng = np.random.default_rng(55)
        for _ in range(25):
            deg = int(rng.integers(0, 21))
            coeffs = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
            lo, hi = -1.0, 1.0
            n = int(rng.integers(1, 6))
            cuts = np.sort(rng.uniform(lo, hi, 2 * n))
            e = IntervalSet.from_pairs(
                [(cuts[2 * k], cuts[2 * k + 1]) for k in range(n)])
            if e.total_length < 0.05:
                continue
            assert classical_remez_check(coeffs, (lo, hi), e, 20_001, 501).passed


class TestEnclosures:
    """Every per-segment bound and every certified extremum is checked
    against point values from the independent evaluators (log_abs_f, polyval)."""

    @staticmethod
    def _segments(rng, n):
        ends = np.sort(rng.uniform(-0.99, 0.99, (n, 2)), axis=1)
        # half the segments short, where the centered bound decides
        short = ends[::2, 0] + rng.uniform(1e-6, 1e-2, ends[::2].shape[0])
        ends[::2, 1] = np.minimum(short, 0.99)
        return ends[:, 0], ends[:, 1]

    @staticmethod
    def _points(rng, x0, x1, n=2000):
        return x0[:, None] + (x1 - x0)[:, None] * rng.random((x0.size, n))

    def test_disk_forms(self):
        rng = np.random.default_rng(4242)
        for _ in range(200):
            f = random_disk_function(rng)
            x0, x1 = self._segments(rng, 2)
            pts = self._points(rng, x0, x1)
            exact = log_abs_f(f, pts)
            lo, hi = x0[1], x1[1]
            grid = log_abs_f(f, np.linspace(lo, hi, 20_001))
            for sign in (1.0, -1.0):
                g = _log_form(sign, f.zeros, f.zeros, f.atom_locs, f.atom_weights)
                if g.empty:
                    continue
                upper, value, _ = _log_form_enclosure(g)(x0, x1)
                assert np.all(upper[:, None] >= sign * exact)
                assert np.all(value <= upper)
                # at sign -1 this says the certified min of log|f| is <= the grid min
                best = _max_log_form(g, [(lo, hi)])
                assert best.upper >= np.max(sign * grid)
                assert best.attained <= best.upper

    def test_polynomials(self):
        rng = np.random.default_rng(4243)
        for _ in range(100):
            deg = int(rng.integers(0, 21))
            coeffs = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
            x0, x1 = self._segments(rng, 2)
            upper, value, _ = _poly_enclosure(coeffs)(x0, x1)
            pts = self._points(rng, x0, x1)
            with np.errstate(divide="ignore"):
                exact = np.log(np.abs(npp.polyval(pts, coeffs)))
            assert np.all(upper[:, None] >= exact)
            assert np.all(value <= upper)
            lo, hi = x0[1], x1[1]
            grid = np.log(np.abs(npp.polyval(np.linspace(lo, hi, 20_001), coeffs)))
            best = _certified_max(_poly_enclosure(coeffs), [(lo, hi)], deg + 1)
            assert best.upper >= np.max(grid)

    def test_point_segments_bound_the_exact_value(self):
        # on a segment of zero width every bound is one value computed in
        # floating point, so only the pad covers its rounding: each bound
        # is checked against log|P| and log|f| in 50-digit arithmetic
        rng = np.random.default_rng(4245)
        x = rng.uniform(-0.9, 0.9, 200)
        coeffs = np.array([2.0, 0.3, -0.2, 0.1])   # |P| > 1.3 on [-1, 1]
        f = make_f(zeros=[0.3 + 0.4j, -0.5 + 0.1j, 0.7j],
                   atoms=[(1.0, 0.2), (2.5, 0.3)])
        with mp.workdps(50):
            def exact_log_f(t):
                t = mp.mpf(t)
                logs = sum(mp.log(abs(t - mp.mpc(z))) - mp.log(abs(1 - t * mp.conj(z)))
                           for z in f.zeros)
                return logs - sum(w * mp.re((mp.mpc(c) + t) / (mp.mpc(c) - t))
                                  for c, w in zip(f.atom_locs, f.atom_weights))

            for upper, exact in (
                    (_poly_enclosure(coeffs)(x, x)[0],
                     [mp.log(abs(mp.polyval(coeffs[::-1].tolist(), mp.mpf(t)))) for t in x]),
                    (_log_form_enclosure(_log_abs(f))(x, x)[0],
                     [exact_log_f(t) for t in x])):
                assert all(u >= e for u, e in zip(upper, exact))

    def test_unsplittable_segment_settles_at_its_bound(self):
        # [1 - 2^-53, 1] holds no float strictly inside, so a split gives it
        # back unchanged, and with a zero pad and a bound above every value
        # the gap rule never settles it; the stub ends a search that would
        # run on
        calls = []

        def enclose(x0, x1):
            calls.append(x0.size)
            if len(calls) > 1000:
                raise RuntimeError("the branch and bound does not end")
            return np.full(x0.size, bound), np.zeros(x0.size), np.zeros(x0.size)

        for bound in (1.0, math.nan):
            calls.clear()
            best = _certified_max(enclose, [(1.0 - 2.0 ** -53, 1.0)], 1)
            # a NaN bound settles as NaN, so every verdict on it fails
            assert math.isnan(best.upper) if math.isnan(bound) else best.upper == 1.0
            assert (best.attained, best.segments) == (0.0, remez.BNB_PIECES)
            assert calls == [remez.BNB_PIECES]

    def test_calls_bounded_by_segments_times_terms(self, monkeypatch):
        # 300 zeros give 600 log terms: each enclosure call bounds at most
        # 4096 * 128 / 600 segments, and the maximum is the one that calls
        # of 4096 segments give, bit for bit
        rng = np.random.default_rng(4244)
        zeros = (0.9 + 0.1 * rng.random(300)) * np.exp(2j * np.pi * rng.random(300))
        g = _log_form(1.0, zeros, zeros)
        sizes = []

        def recorded(g):
            enclose = _log_form_enclosure(g)

            def counted(x0, x1):
                sizes.append(x0.size)
                return enclose(x0, x1)
            return counted

        monkeypatch.setattr(remez, "_log_form_enclosure", recorded)
        pairs = [(-0.7 + 0.02 * k, -0.69 + 0.02 * k) for k in range(70)]
        small = _max_log_form(g, pairs)
        assert max(sizes) == remez.BNB_CHUNK * remez.BNB_CHUNK_TERMS // 600
        sizes.clear()
        monkeypatch.setattr(remez, "BNB_CHUNK_TERMS", 600)
        assert _max_log_form(g, pairs) == small
        assert max(sizes) == remez.BNB_CHUNK


class TestTextFormat:
    def test_round_trip(self):
        f = make_f(zeros=[0.1 + 0.2j, -0.5], atoms=[(1.0, 0.3)],
                   const=np.exp(0.7j))
        g = _read_function(format_disk_function(f))
        np.testing.assert_allclose(g.zeros, f.zeros, atol=1e-15)
        np.testing.assert_allclose(g.atom_locs, f.atom_locs, atol=1e-15)
        np.testing.assert_allclose(g.atom_weights, f.atom_weights, atol=1e-15)
        assert complex(g.const) == pytest.approx(complex(f.const), abs=1e-15)

    def test_bad_record(self):
        with pytest.raises(ValueError, match="line 1"):
            _read_function("pole 0.5 0.5\n")

    def test_bad_number_names_its_line(self):
        with pytest.raises(ValueError, match="^line 3: could not convert "
                                             "string to float: 'abc'"):
            _read_function("zero 0.5 0\n\nzero 0.1 abc\n")


class TestImportPath:
    def test_lazy_names(self):
        with pytest.raises(AttributeError):
            getattr(remez, "no_such_name")
        pytest.importorskip("scipy")
        assert callable(remez.minimize_scalar)

"""Each reference in bench/refs.py against mpmath at 50 digits."""

from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

import refs

mp.mp.dps = 50
LEVEL = 1 - 1 / mp.e


def mp_x1_sublevel(coeffs, radius, n, s):
    """P(|p(radius u)| <= s), u the x1 marginal of the unit ball of R^n."""
    c = [mp.mpc(complex(v)) * mp.mpf(radius) ** k for k, v in enumerate(coeffs)]
    re = [mp.re(v) for v in c]
    im = [mp.im(v) for v in c]
    deg = len(c) - 1
    g = [mp.mpf(0)] * (2 * deg + 1)
    for i in range(deg + 1):
        for j in range(deg + 1):
            g[i + j] += re[i] * re[j] + im[i] * im[j]
    g[0] -= mp.mpf(s) ** 2
    while g and g[-1] == 0:
        g.pop()
    roots = mp.polyroots(g[::-1], maxsteps=200, extraprec=200)
    xs = sorted([mp.re(r) for r in roots if abs(mp.im(r)) < mp.mpf(10) ** -30
                 and -1 < mp.re(r) < 1])
    edges = [mp.mpf(-1)] + xs + [mp.mpf(1)]
    a = mp.mpf(n + 1) / 2
    total = mp.mpf(0)
    for lo, hi in zip(edges, edges[1:]):
        mid = (lo + hi) / 2
        if mp.polyval(g[::-1], mid) <= 0:
            total += mp.betainc(a, a, (1 + lo) / 2, (1 + hi) / 2, regularized=True)
    return total


@pytest.mark.parametrize("n", [1, 2, 8])
def test_half_shift_quantile_closed_form(n):
    a = mp.mpf(n + 1) / 2
    b = mp.findroot(lambda x: mp.betainc(a, a, 0, x, regularized=True) - LEVEL, 0.6)
    want = mp.mpf("0.5") * (1 + mp.mpf("0.7") * (2 * b - 1))
    got = refs.x1_quantile(np.array([0.5, 0.5]), 0.7, n)
    assert abs(got - float(want)) <= 1e-13


@pytest.mark.parametrize("n", [1, 2, 8])
def test_random_cubic_quantile_level(n):
    rng = np.random.default_rng(5)
    c = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    c /= np.sum(np.abs(c))
    s = refs.x1_quantile(c, 0.7, n)
    assert abs(mp_x1_sublevel(c, 0.7, n, s) - LEVEL) <= 1e-11


def test_sigma_ball():
    want = 48 * mp.mpf(4) ** 3 * mp.log(1 / mp.mpf(0.3))
    assert refs.sigma_ball(0.3, 0.25) == pytest.approx(float(want), rel=1e-15)


def brute_ks(a, b):
    grid = sorted(set(a) | set(b))
    fa = lambda x: Fraction(sum(v <= x for v in a), len(a))
    fb = lambda x: Fraction(sum(v <= x for v in b), len(b))
    return float(max(abs(fa(x) - fb(x)) for x in grid))


def test_two_sample_ks_with_ties():
    rng = np.random.default_rng(1)
    a = rng.integers(0, 20, 57).astype(float)
    b = rng.integers(3, 25, 41).astype(float)
    assert refs.two_sample_ks(a, b) == pytest.approx(brute_ks(list(a), list(b)), abs=1e-15)


def test_uniform_ks():
    x = np.sort(np.random.default_rng(2).random(50) * 0.025)
    want = max(max(mp.mpf(i + 1) / 50 - mp.mpf(v) / mp.mpf(0.025),
                   mp.mpf(v) / mp.mpf(0.025) - mp.mpf(i) / 50) for i, v in enumerate(x))
    assert refs.uniform_ks(x, 0.025) == pytest.approx(float(want), abs=1e-14)


def mp_map(x, delta):
    a = 1 - mp.mpf(delta) ** 3
    r = sum(v * v for v in x)
    m = (a - r) / (1 - a * r)
    return [m * v for v in x]


@pytest.mark.parametrize("delta,n", [(1 / 32, 2), (1 / 8, 3), (1 / 16, 5)])
def test_jacobian_fd(delta, n):
    x = np.random.default_rng(n).standard_normal(n)
    x *= 0.6 / np.linalg.norm(x)
    xm = [mp.mpf(v) for v in x]
    jac = mp.matrix(n, n)
    for j in range(n):
        for i in range(n):
            def comp(t, i=i, j=j):
                y = list(xm)
                y[j] = t
                return mp_map(y, delta)[i]
            jac[i, j] = mp.diff(comp, xm[j])
    want = mp.det(jac)
    assert refs.jacobian_fd(x, delta) == pytest.approx(float(want), rel=1e-8)


def test_image_radius():
    d = mp.mpf(1) / 16
    r0 = mp.sqrt(1 - 3 * d - d ** 3)
    a = 1 - d ** 3
    want = r0 * (a - r0 ** 2) / (1 - a * r0 ** 2)
    assert refs.image_radius(1 / 16) == pytest.approx(float(want), rel=1e-14)


def mp_disk_log_abs(zeros, angles, weights, x):
    x = mp.mpf(x)
    val = mp.mpf(0)
    for z in zeros:
        z = mp.mpc(complex(z))
        val += mp.log(abs((x - z) / (1 - x * mp.conj(z))))
    for t, w in zip(angles, weights):
        zeta = mp.expj(mp.mpf(t))
        val -= mp.mpf(w) * mp.re((zeta + x) / (zeta - x))
    return val


def disk_instance(seed):
    rng = np.random.default_rng(seed)
    zeros = np.sqrt(rng.random(12)) * 0.995 * np.exp(2j * np.pi * rng.random(12))
    angles = 2 * np.pi * rng.random(3)
    weights = 0.5 * rng.random(3) + 1e-3
    return zeros, angles, weights


def test_disk_log_abs():
    zeros, angles, weights = disk_instance(3)
    xs = np.linspace(-0.95, 0.95, 9)
    got = refs.disk_log_abs(zeros, angles, weights, xs)
    for x, g in zip(xs, got):
        assert g == pytest.approx(float(mp_disk_log_abs(zeros, angles, weights, x)),
                                  rel=1e-12, abs=1e-12)


def test_remez_sigma():
    zeros, angles, weights = disk_instance(4)
    a = 0.8
    want = 3 / (1 - mp.mpf(a)) * -(mp_disk_log_abs(zeros, angles, weights, a)
                                   + mp_disk_log_abs(zeros, angles, weights, -a))
    assert refs.remez_sigma(zeros, angles, weights, a) == pytest.approx(float(want), rel=1e-12)


def test_dense_max_covers_all_blocks():
    assert refs.dense_max(lambda x: x, -1.0, 2.0, 200_001) == 2.0


@pytest.mark.parametrize("n", [0, 1, 7, 20])
def test_chebyshev_power(n):
    want = mp.taylor(lambda x: mp.chebyt(n, x), 0, n)  # integers up to 1e-40 noise
    assert all(abs(v - mp.nint(v)) < 1e-30 for v in want)
    assert [float(mp.nint(v)) for v in want] == list(refs.chebyshev_power(n))


def test_poly_abs():
    c = np.array([1 + 2j, -0.5, 0.25j, 3.0])
    for x in (-0.9, 0.1, 0.7):
        want = abs(mp.polyval([mp.mpc(complex(v)) for v in c[::-1]], mp.mpf(x)))
        assert refs.poly_abs(c, np.array([x]))[0] == pytest.approx(float(want), rel=1e-15)


def mp_loglinear_mass(t, v, lo, hi):
    def f(x):
        for k in range(len(t) - 1):
            if t[k] <= x <= t[k + 1]:
                s = (mp.mpf(v[k + 1]) - v[k]) / (mp.mpf(t[k + 1]) - t[k])
                return mp.exp(v[k] + s * (x - t[k]))
        raise ValueError(x)
    pts = [mp.mpf(lo)] + [mp.mpf(p) for p in t if lo < p < hi] + [mp.mpf(hi)]
    return mp.quad(f, pts)


def test_loglinear_mass_both_branches():
    t = [-1.0, -0.2, 0.5, 1.5]
    v = [-2.0, 0.3, 0.3 + 2e-6, -1.0]   # the middle piece takes the series branch
    for lo, hi in [(-1.0, 1.5), (-0.7, 0.9), (-0.1, 0.4)]:
        want = mp_loglinear_mass(t, v, lo, hi)
        assert refs.loglinear_mass(t, v, lo, hi) == pytest.approx(float(want), rel=1e-12)


def test_localization_rhs():
    t, v = [0.0, 0.4, 1.0], [0.0, 0.8, -0.5]
    pairs = [(0.1, 0.3), (0.5, 0.9)]
    mass_e = sum(mp_loglinear_mass(t, v, l, u) for l, u in pairs)
    want = (mass_e / mp_loglinear_mass(t, v, 0.05, 0.95)) ** mp.mpf(2.5)
    assert refs.localization_rhs(t, v, (0.05, 0.95), pairs, 2.5) == pytest.approx(
        float(want), rel=1e-12)


@pytest.mark.parametrize("m", [1, 2, 4, 8, 16, 32])
def test_monomial_sigma_eff(m):
    lam = mp.mpf(2)
    quantile = lambda level: mp.mpf("0.1") * (level / 4) ** m
    want = mp.log(quantile(LEVEL) / quantile(1 / lam)) / mp.log(8 * lam)
    assert refs.monomial_sigma_eff(m, 2.0) == pytest.approx(float(want), rel=1e-14)


def mp_chebyshev_fraction(m, c):
    """Fraction of [0, 1/4] where |T_m(8t - 1)| <= c, from the roots of
    T_m(x) = +-c found by mpmath."""
    coeffs = mp.taylor(lambda x: mp.chebyt(m, x), 0, m)[::-1]
    xs = []
    for sign in (1, -1):
        shifted = list(coeffs)
        shifted[-1] -= sign * mp.mpf(c)
        xs += [mp.re(r) for r in mp.polyroots(shifted, maxsteps=400, extraprec=400)
               if abs(mp.im(r)) < mp.mpf(10) ** -25 and -1 < mp.re(r) < 1]
    edges = [mp.mpf(-1)] + sorted(xs) + [mp.mpf(1)]
    inside = sum(hi - lo for lo, hi in zip(edges, edges[1:])
                 if abs(mp.chebyt(m, (lo + hi) / 2)) <= c)
    return inside / 2


@pytest.mark.parametrize("m", [4, 8])
@pytest.mark.parametrize("level", [float(1 - 1 / mp.e), 0.5])
def test_chebyshev_level(m, level):
    c = refs.chebyshev_level(m, level)
    assert float(mp_chebyshev_fraction(m, c)) == pytest.approx(level, abs=1e-13)
    assert refs.chebyshev_sublevel_fraction(m, c) == pytest.approx(level, abs=1e-15)

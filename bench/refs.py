"""Reference values computed apart from `sublevel_lab`.

Every function here re-derives a quantity the program reports, from the
mathematics alone: closed forms, quadrature of a 1-D marginal, finite
differences, or a denser grid.  Nothing here imports the package, so a
fault in the program cannot hide behind a shared helper.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import betainc

QUANTILE_LEVEL = 1.0 - 1.0 / math.e


# ----------------------------------------------------------------------
# Ball Monte Carlo: the lifted template depends on x1 alone.

def x1_cdf(u, n: int):
    """P(x1 / radius <= u) for x uniform in a ball of R^n.

    x1 / radius has density proportional to (1 - u^2)^((n - 1)/2) on
    [-1, 1], i.e. (1 + u)/2 ~ Beta((n + 1)/2, (n + 1)/2).
    """
    a = 0.5 * (n + 1)
    return betainc(a, a, 0.5 * (1.0 + np.clip(u, -1.0, 1.0)))


def _sublevel_mass(coeffs: np.ndarray, radius: float, n: int, s: float) -> float:
    """P(|p(radius * u)| <= s) with u the scaled x1 marginal in R^n."""
    c = np.asarray(coeffs, dtype=np.complex128) * radius ** np.arange(len(coeffs))
    re = np.polynomial.Polynomial(c.real)
    im = np.polynomial.Polynomial(c.imag)
    g = re * re + im * im - s * s
    roots = g.roots()
    real = roots[np.abs(roots.imag) <= 1e-9].real
    edges = np.unique(np.concatenate([[-1.0, 1.0], real[(real > -1.0) & (real < 1.0)]]))
    mids = 0.5 * (edges[:-1] + edges[1:])
    below = g(mids) <= 0.0
    cdf = x1_cdf(edges, n)
    return float(np.sum(np.diff(cdf)[below]))


def x1_quantile(coeffs, radius: float, n: int,
                level: float = QUANTILE_LEVEL) -> float:
    """s with P(|p(x1)| <= s) = level, x uniform in B(0, radius) of R^n and
    p a univariate polynomial (ascending coefficients) in x1."""
    c = np.asarray(coeffs, dtype=np.complex128)
    grid = radius * np.linspace(-1.0, 1.0, 4097)
    vals = np.abs(np.polynomial.polynomial.polyval(grid, c))
    lo, hi = 0.0, float(vals.max()) * (1.0 + 1e-9) + 1e-300
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if _sublevel_mass(c, radius, n, mid) < level:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-15 * hi:
            break
    return 0.5 * (lo + hi)


def sigma_ball(f0_abs: float, epsilon: float) -> float:
    """The ball exponent 48 eps^-3 log(1/|F(0)|)."""
    return 48.0 / epsilon ** 3 * math.log(1.0 / f0_abs)


def uniform_ks(sorted_sample: np.ndarray, width: float) -> float:
    """One-sample Kolmogorov distance to the uniform law on [0, width]."""
    x = np.asarray(sorted_sample, dtype=float)
    n = x.size
    cdf = np.clip(x / width, 0.0, 1.0)
    i = np.arange(1, n + 1)
    return float(max(np.max(i / n - cdf), np.max(cdf - (i - 1) / n)))


def two_sample_ks(a: np.ndarray, b: np.ndarray) -> float:
    """sup |F_a - F_b| from a merge of the two sorted samples."""
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    values = np.concatenate([a, b])
    from_a = np.concatenate([np.ones(a.size), np.zeros(b.size)])
    order = np.argsort(values, kind="stable")
    values, from_a = values[order], from_a[order]
    fa = np.cumsum(from_a) / a.size
    fb = np.cumsum(1.0 - from_a) / b.size
    last = np.append(values[1:] != values[:-1], True)  # ECDFs jump after ties
    return float(np.max(np.abs(fa - fb)[last]))


# ----------------------------------------------------------------------
# Change of variables T(x) = m(|x|^2) x on real points.

def moebius_m(big_r, delta: float):
    a = 1.0 - delta ** 3
    return (a - big_r) / (1.0 - a * big_r)


def map_t(x: np.ndarray, delta: float) -> np.ndarray:
    return moebius_m(float(x @ x), delta) * x


def jacobian_fd(x: np.ndarray, delta: float, h: float = 1e-6) -> float:
    """det DT(x) by central differences of T, one column per coordinate."""
    n = x.size
    cols = []
    for j in range(n):
        e = np.zeros(n)
        e[j] = h
        cols.append((map_t(x + e, delta) - map_t(x - e, delta)) / (2.0 * h))
    return float(np.linalg.det(np.stack(cols, axis=1)))


def image_radius(delta: float) -> float:
    r0 = math.sqrt(1.0 - 3.0 * delta - delta ** 3)
    return r0 * moebius_m(r0 * r0, delta)


# ----------------------------------------------------------------------
# Disk functions: log|f| in real arithmetic, Poisson kernel for the outer
# factor.

def disk_log_abs(zeros, atom_angles, atom_weights, x) -> np.ndarray:
    """log |B(x) U(x)| at real x in (-1, 1)."""
    x = np.asarray(x, dtype=float)
    out = np.zeros(x.shape)
    for z in np.asarray(zeros, dtype=np.complex128):
        num = (x - z.real) ** 2 + z.imag ** 2
        den = (1.0 - x * z.real) ** 2 + (x * z.imag) ** 2
        out += 0.5 * np.log(num / den)
    for theta, w in zip(atom_angles, atom_weights):
        out -= w * (1.0 - x * x) / (1.0 - 2.0 * x * math.cos(theta) + x * x)
    return out


def remez_sigma(zeros, atom_angles, atom_weights, a: float) -> float:
    """3/(1-a) * log 1/|f(a) f(-a)|."""
    la, lma = disk_log_abs(zeros, atom_angles, atom_weights, np.array([a, -a]))
    return 3.0 / (1.0 - a) * (-(la + lma))


def dense_max(fun, lo: float, hi: float, points: int) -> float:
    """Maximum of a vectorized function on a uniform grid of [lo, hi],
    evaluated in blocks to bound memory."""
    xs = np.linspace(lo, hi, points)
    return max(float(np.max(fun(xs[i:i + (1 << 16)])))
               for i in range(0, points, 1 << 16))


def poly_abs(coeffs, x) -> np.ndarray:
    """|P(x)| by Horner's rule (ascending coefficients)."""
    acc = np.zeros(np.shape(x), dtype=np.complex128)
    for c in np.asarray(coeffs, dtype=np.complex128)[::-1]:
        acc = acc * x + c
    return np.abs(acc)


def chebyshev_power(n: int) -> np.ndarray:
    """Power-basis coefficients of T_n from T_{k+1} = 2x T_k - T_{k-1}."""
    prev, cur = np.array([1.0]), np.array([0.0, 1.0])
    if n == 0:
        return prev
    for _ in range(n - 1):
        nxt = np.zeros(cur.size + 1)
        nxt[1:] = 2.0 * cur
        nxt[:prev.size] -= prev
        prev, cur = cur, nxt
    return cur


# ----------------------------------------------------------------------
# Localization: mass of a piecewise log-linear density.

def loglinear_mass(breakpoints, log_values, lo: float, hi: float) -> float:
    """Integral over [lo, hi] of exp(linear interpolation of log_values)."""
    t = np.asarray(breakpoints, dtype=float)
    v = np.asarray(log_values, dtype=float)
    total = 0.0
    for k in range(t.size - 1):
        a, b = max(lo, t[k]), min(hi, t[k + 1])
        if b <= a:
            continue
        slope = (v[k + 1] - v[k]) / (t[k + 1] - t[k])
        la = v[k] + slope * (a - t[k])
        lb = v[k] + slope * (b - t[k])
        y = lb - la
        if abs(y) > 1e-4:
            total += (math.exp(lb) - math.exp(la)) / slope
        else:  # symmetric series around the midpoint; error below y^6/3e5
            total += math.exp(0.5 * (la + lb)) * (b - a) * (1.0 + y * y / 24.0
                                                             + y ** 4 / 1920.0)
    return total


def localization_rhs(breakpoints, log_values, s_interval, e_pairs,
                     lam: float) -> float:
    """(Phi(E) / Phi(S))^lambda."""
    mass_s = loglinear_mass(breakpoints, log_values, *s_interval)
    mass_e = sum(loglinear_mass(breakpoints, log_values, l, u) for l, u in e_pairs)
    return (mass_e / mass_s) ** lam


# ----------------------------------------------------------------------
# Thin-limit laws on [0, 1/4].

def monomial_sigma_eff(m: int, lam: float) -> float:
    """sigma_eff of |eta t^m|, t uniform on [0, 1/4]: the level-L quantile is
    eta (L/4)^m, so the ratio of the 1 - 1/e and 1/lambda quantiles is
    ((1 - 1/e) lambda)^m."""
    return m * math.log(QUANTILE_LEVEL * lam) / math.log(8.0 * lam)


def chebyshev_sublevel_fraction(m: int, c: float) -> float:
    """Fraction of t in [0, 1/4] with |T_m(8t - 1)| <= c, 0 <= c <= 1.

    With x = cos(theta), |cos(m theta)| <= c on the m theta-intervals
    [(k pi + alpha)/m, (k pi + pi - alpha)/m], alpha = arccos(c); their
    x-lengths add to the measure on [-1, 1], which is twice the fraction.
    """
    alpha = math.acos(min(max(c, 0.0), 1.0))
    k = np.arange(m)
    lengths = np.cos((k * math.pi + alpha) / m) - np.cos((k * math.pi + math.pi - alpha) / m)
    return float(np.sum(lengths)) / 2.0


def chebyshev_level(m: int, level: float) -> float:
    """c in [0, 1] with chebyshev_sublevel_fraction(m, c) = level."""
    lo, hi = 0.0, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if chebyshev_sublevel_fraction(m, mid) < level:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-16:
            break
    return 0.5 * (lo + hi)

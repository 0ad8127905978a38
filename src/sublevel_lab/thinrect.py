"""Thin-rectangle counterexample experiments.

From a univariate polynomial Q and a small eta, take the two-variable
function F(z1, z2) = eta Q(z1) + z2/2 + 1/4 and study the law of |F| on
thin rectangles V_delta = [0, 1/4] x [-1/2, -1/2 + delta].  As delta
shrinks this law approaches that of |eta Q(t)| on [0, 1/4]; the required
Remez-type exponent sigma_eff extracted from the rectangle law can grow
with the degree of Q while the ball-theorem exponent stays bounded, which
is the failure mechanism for thin bodies.

F is carried as Q, a certified eta and the |F(0)| they give, which is all
that the rectangle law, its thin limit and the ball-theorem exponent read.

Admissibility: eta * l1 must stay below 1/8, where l1 is the l1 norm of
Q's power coefficients, a certified sup of |Q| over the complex unit disk
as |z^k| <= 1 there.  Then |F| <= eta * l1 + 3/4 < 7/8 on the complex
ball.  For the family T_m(8z - 1) l1 is the sup itself: the coefficients
alternate in sign, so it equals |T_m(-9)|.

Q is a real polynomial, carried as a numpy series on [0, 1/4], and its
basis is data: an array of coefficients is a power-basis `Polynomial`, and
the oscillating family is a `Chebyshev` series on [0, 1/4].  Every value on
[0, 1/4] comes from the series itself; only the disk certificate, which
lives on the unit disk, reads power coefficients.  `_series` is the one
place a Q enters: it rejects a complex dtype.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import Chebyshev, Polynomial

from .sampling import STREAM_LIMIT, STREAM_RECT, chunk_rng
from .volume import (QUANTILE_LEVEL, DistributionSummary, quantile_with_se,
                     sigma_exponent, sorted_sample)

ETA_MARGIN = 1e-9
MIN_LAMBDA = 1.1
RECT_X_MAX = 0.25
# Newton steps that polish each oracle root: one takes a colleague or
# companion root to rounding; a root of t^32 = c with tiny c starts ~1e-7 off
POLISH_STEPS = 2
# cap on the oracle's Newton-or-bisection steps in s (2 to 8 are taken)
MAX_STEPS = 100
# the ball theorem's epsilon at which growth_experiment reports its exponent
THEOREM_EPSILON = 0.25


def _series(q_coeffs):
    """Q as a real numpy series: a `Polynomial` or `Chebyshev` series in its
    own basis, and an array as the power-basis `Polynomial` of its entries.
    A complex dtype is rejected, even with every imaginary part zero."""
    q = q_coeffs
    if not isinstance(q, (Polynomial, Chebyshev)):
        coef = np.asarray(q).reshape(-1)
        q = Polynomial(coef if coef.size else np.zeros(1))
    if np.iscomplexobj(q.coef):
        raise ValueError("F takes a real Q: Q has a complex dtype")
    return q


def _disk_coeffs(q) -> np.ndarray:
    """Power coefficients of the series q in the disk variable z."""
    return q.convert(kind=Polynomial).coef


def disk_sup_upper_bound(q_coeffs) -> float:
    """Certified upper bound for max |Q| over the closed unit disk: the l1
    norm of Q's power coefficients (see the module docstring)."""
    return float(np.sum(np.abs(_disk_coeffs(_series(q_coeffs)))))


@dataclass(frozen=True)
class ThinRectFunction:
    """F = eta Q(z1) + z2/2 + 1/4 from Q (read by `_series`) and admissible eta."""

    q: Polynomial | Chebyshev
    eta: float
    f0_abs: float = field(init=False)

    def __post_init__(self):
        if not self.eta > 0:
            raise ValueError("eta must be positive")
        series = _series(self.q)
        q = _disk_coeffs(series)
        q_sup = float(np.sum(np.abs(q)))  # disk_sup_upper_bound, converting once
        if not self.eta * q_sup < 0.125 - ETA_MARGIN:
            raise ValueError(f"eta too large: eta * sup|Q| = {self.eta * q_sup:.6g} "
                             "must stay below 1/8")
        object.__setattr__(self, "q", series)
        object.__setattr__(self, "eta", float(self.eta))
        object.__setattr__(self, "f0_abs", float(abs(0.25 + self.eta * q[0])))


# the benchmark (bench/workloads.py) builds F under this name
build_function = ThinRectFunction


def eval_on_rectangle(f: ThinRectFunction, x1: np.ndarray,
                      x2: np.ndarray) -> np.ndarray:
    """|F| at real rectangle points, from Q on the first coordinate."""
    qv = f.q(x1)
    return np.abs(f.eta * qv + 0.5 * x2 + 0.25)


def rectangle_moduli(f: ThinRectFunction, delta: float, count: int, seed: int,
                     threads: int = 1) -> DistributionSummary:
    """Sorted |F| sample under the normalized area of V_delta =
    {0 <= x1 <= 1/4, 0 <= x2 + 1/2 <= delta}, inside B(0, 3/4)."""
    if not (0.0 < delta <= 0.5):
        raise ValueError("delta must lie in (0, 1/2]")
    lo, hi = np.array([0.0, -0.5]), np.array([RECT_X_MAX, -0.5 + delta])

    def worker(chunk, size):
        rng = chunk_rng(seed, STREAM_RECT, chunk)
        u = rng.random((size, 2))
        pts = lo + u * (hi - lo)
        return eval_on_rectangle(f, pts[:, 0], pts[:, 1])

    return sorted_sample(count, worker, threads)


def limit_moduli(f: ThinRectFunction, count: int, seed: int,
                 threads: int = 1) -> DistributionSummary:
    """Sorted sample of |eta Q(t)|, t uniform on [0, 1/4] (the thin limit)."""

    def worker(chunk, size):
        rng = chunk_rng(seed, STREAM_LIMIT, chunk)
        t = RECT_X_MAX * rng.random(size)
        return np.abs(f.eta * f.q(t))

    return sorted_sample(count, worker, threads)


def ks_to_thin_limit(eta: float, delta: float) -> float:
    """Kolmogorov distance between the law of |F| on V_delta and its thin
    limit for Q(z) = z, eta admissible: |F| = Y + w, Y = eta t uniform on
    [0, a = eta/4] and w = (x2 + 1/2)/2 uniform on [0, b = delta/2].  Y + w
    dominates Y, so the distance is sup (G - H), G(s) = s/a the CDF of Y and
    H the trapezoid CDF of Y + w.  G - H = s/a - s^2/(2ab) rises on
    [0, min(a, b)].  If b <= a it reaches b/(2a) = delta/eta, keeps it on
    [b, a] (H = (s - b/2)/a) and falls after.  If b > a it reaches
    1 - a/(2b) = 1 - eta/(4 delta) at a, and falls after (G - H =
    1 - (s - a/2)/b on [a, b]).  Both read 1/2 at delta = eta/2."""
    if not (0.0 < delta <= 0.5):
        raise ValueError("delta must lie in (0, 1/2]")
    ThinRectFunction(monomial_on_quarter(1), eta)
    if delta <= 0.5 * eta:
        return delta / eta
    return 1.0 - eta / (4.0 * delta)


def _required_exponent(m: float, low_quantile, lam: float) -> tuple[float, float]:
    """t* = low_quantile(lam), the 1/lam quantile, and sigma_eff =
    log(M/t*) / log(8 lam).  lam < MIN_LAMBDA is rejected before t* is
    taken, and t* <= 0 after."""
    if lam < MIN_LAMBDA:
        raise ValueError(f"lambda must be >= {MIN_LAMBDA}")
    t_star = low_quantile(lam)
    if t_star <= 0.0:
        raise ValueError("low quantile t* is zero")
    return t_star, math.log(m / t_star) / math.log(8.0 * lam)


@dataclass(frozen=True)
class RequiredExponent:
    sigma_eff: float
    std_err: float


def required_exponent_from_summary(summary: DistributionSummary,
                                   lam: float) -> RequiredExponent:
    """Smallest exponent s with frac{|F| <= (8 lam)^-s M} <= 1/lam.

    M is the 1/e reference quantile; the low threshold t* is the largest
    value whose sublevel fraction stays at or below 1/lam (the 1/lam
    quantile); then s = log(M/t*) / log(8 lam).
    """
    n = summary.count
    vals = summary.sorted_moduli
    m, m_se = quantile_with_se(summary, QUANTILE_LEVEL)
    t_star, sigma_eff = _required_exponent(
        m, lambda lam: float(vals[max(int(math.floor(n / lam)), 1) - 1]), lam)
    _, t_se = quantile_with_se(summary, 1.0 / lam)
    rel = math.hypot(m_se / m, t_se / t_star)
    return RequiredExponent(sigma_eff, rel / math.log(8.0 * lam))


# ----------------------------------------------------------------------
# Exact oracle for the limit law (independent of the sampler).

class _LimitLaw:
    """The law of |eta Q(t)|, t uniform on [0, 1/4], read from
    the crossings of |eta Q| = s.

    |eta Q| is |p| for the real series p = eta Q, so the crossings are real
    roots of p - s and p + s.  `.roots()` finds them from the companion
    matrix in the power basis and from the colleague matrix in the
    Chebyshev basis.  Both matrices are real, so their real eigenvalues
    come back with a zero imaginary part; a pair that rounding splits off
    the axis is a tangency within rounding of s, whose gap is left out."""

    def __init__(self, q_coeffs, eta: float):
        q = self.q = _series(q_coeffs)
        self.eta = eta
        self.p = eta * q
        self.dp = self.p.deriv()
        # |eta Q| sorted on a grid: the first guess and upper end of a quantile
        self.sample = np.sort(np.abs(eta * q(np.linspace(0.0, RECT_X_MAX, 4097))))

    def sublevel(self, s: float):
        """measure{t in [0, 1/4] : |eta Q(t)| <= s} and its derivative in s.

        The crossings, each polished by Newton steps, cut [0, 1/4] into
        segments, each inside or outside the sublevel set as its midpoint
        is.  The derivative is the sum of 1 / |d|eta Q|/dt| over the
        crossings between an inside and an outside segment, with the slope
        of the last polishing step."""
        levels = (s, -s)
        roots = [(self.p - c).roots() for c in levels]
        c = np.concatenate([np.full(r.size, c) for r, c in zip(roots, levels)])
        t = np.concatenate(roots)
        keep = (t.imag == 0) & (t.real >= 0.0) & (t.real <= RECT_X_MAX)
        t, c = t.real[keep], c[keep]
        for _ in range(POLISH_STEPS):
            slope = self.dp(t)
            with np.errstate(divide="ignore", invalid="ignore"):
                step = (self.p(t) - c) / slope
            t = np.where(np.isfinite(step), t - step, t)
        order = np.argsort(t)
        cuts, rate = np.clip(t[order], 0.0, RECT_X_MAX), np.abs(slope[order])
        edges = np.concatenate([[0.0], cuts, [RECT_X_MAX]])
        inside = np.abs(self.eta * self.q(0.5 * (edges[:-1] + edges[1:]))) <= s
        measure = float(np.sum(np.diff(edges)[inside]))
        rate = rate[inside[:-1] != inside[1:]]
        with np.errstate(divide="ignore", invalid="ignore"):
            return measure, float(np.sum(1.0 / rate))

    def quantile(self, level: float) -> float:
        """s with measure{|eta Q| <= s} = level/4, and |eta q0| exactly for a
        constant Q.  Newton steps in s, each kept inside a bracket [lo, hi]
        with measure(lo) < level/4 <= measure(hi), and a bisection of the
        bracket where a step would leave it.  They stop at a step below
        rounding of s, or where rounding of the measure sets the steps.  The
        sample gives the first guess and a first upper end, doubled until it
        is one."""
        if self.q.trim().degree() == 0:
            return float(abs(self.eta * self.q.coef[0]))
        target = level * RECT_X_MAX
        lo, hi = 0.0, max(float(self.sample[-1]), np.finfo(float).tiny)
        while self.sublevel(hi)[0] < target:
            lo, hi = hi, 2.0 * hi
        s = float(self.sample[round(level * (self.sample.size - 1))])
        if not lo < s < hi:
            s = 0.5 * (lo + hi)
        eps = np.finfo(float).eps
        for _ in range(MAX_STEPS):
            measure, slope = self.sublevel(s)
            if measure < target:
                lo = s
            else:
                hi = s
            step = (target - measure) / slope if 0.0 < slope < math.inf else math.nan
            if abs(step) <= eps * s:
                return s + step
            if lo < s + step < hi:
                s += step
            elif abs(step) <= math.sqrt(eps) * s or hi - lo <= 2.0 * eps * hi:
                # a step this small that leaves the bracket is set by the
                # rounding of the measure (power coefficients of high
                # degree), and the bracket holds the quantile
                return 0.5 * (lo + hi)
            else:
                s = 0.5 * (lo + hi)
        return s


def oracle_quantile(q_coeffs, eta: float, level: float) -> float:
    """s with measure{|eta Q| <= s}/(1/4) = level; |eta q0| exactly for a
    constant Q."""
    if not (0.0 < level < 1.0):
        raise ValueError("level must lie in (0, 1)")
    return _LimitLaw(q_coeffs, eta).quantile(level)


def oracle_required_exponent(f: ThinRectFunction, lam: float) -> float:
    """sigma_eff of the limit law from its exact quantiles."""
    law = _LimitLaw(f.q, f.eta)
    m = law.quantile(QUANTILE_LEVEL)
    return _required_exponent(m, lambda lam: law.quantile(1.0 / lam), lam)[1]


# ----------------------------------------------------------------------
# Canonical families.

def chebyshev_series(degree: int) -> Chebyshev:
    """T_degree(8t - 1): the Chebyshev polynomial of the given degree with
    its oscillation interval mapped onto [0, 1/4], in its own basis."""
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    return Chebyshev.basis(degree, domain=[0.0, RECT_X_MAX])


def chebyshev_on_quarter(degree: int) -> np.ndarray:
    """Power-basis coefficients of `chebyshev_series(degree)` in the disk
    variable.  Only the benchmark reads T_m in this form (its `core_oracle`
    inputs), until it builds T_m from its own arccos reference; the package
    evaluates the family in its own basis."""
    return chebyshev_series(degree).convert(kind=Polynomial).coef


def disk_normalized(q_coeffs):
    """Scale Q so its certified disk sup equals 1 (admissible with eta < 1/8):
    a series stays a series in its basis, and an array gives a real array."""
    q = _series(q_coeffs)
    sup = disk_sup_upper_bound(q)
    if sup == 0.0:
        raise ValueError("cannot normalize the zero polynomial")
    if isinstance(q_coeffs, (Polynomial, Chebyshev)):
        return q / sup
    return q.coef / sup


def monomial_on_quarter(degree: int) -> np.ndarray:
    """z^degree: disk sup exactly 1, flat of order `degree` at the rectangle edge."""
    q = np.zeros(degree + 1)
    q[degree] = 1.0
    return q


@dataclass(frozen=True)
class GrowthRow:
    degree: int
    f0_abs: float
    sigma_theorem: float
    lam: float
    sigma_eff: float
    sigma_eff_std_err: float
    sigma_eff_oracle: float


@dataclass(frozen=True)
class GrowthReport:
    rows: list[GrowthRow]
    strictly_increasing: bool
    theorem_sigma_ratio: float
    passed: bool


def check_degrees(degrees) -> None:
    """A family to compare: two or more members, in strictly increasing degree."""
    if len(degrees) < 2:
        raise ValueError(f"a family needs at least two members, got {len(degrees)}")
    if any(b <= a for a, b in zip(degrees, degrees[1:])):
        raise ValueError(f"degrees must strictly increase, got {list(degrees)}")


def growth_experiment(functions: list[ThinRectFunction], delta: float, lambdas,
                      count: int, seed: int, threads: int = 1) -> GrowthReport:
    """Required-exponent growth across a polynomial family.

    functions: the family's test functions, in strictly increasing degree
    (`check_degrees`).  lambdas: one or more, each >= MIN_LAMBDA; both are
    checked before any draw.  Passing requires sigma_eff strictly increasing
    along the family at every lambda while the ball-theorem exponent varies
    by less than 2x across it.  The ball-theorem exponent is taken at
    epsilon = THEOREM_EPSILON.
    """
    degrees = [f.q.trim().degree() for f in functions]
    check_degrees(degrees)
    lambdas = [float(l) for l in lambdas]
    if not lambdas:
        raise ValueError("lambdas must hold at least one value")
    if not all(l >= MIN_LAMBDA for l in lambdas):
        raise ValueError(f"lambda must be >= {MIN_LAMBDA}")
    rows: list[GrowthRow] = []
    sigma_theorems = []
    per_lam: dict[float, list[float]] = {l: [] for l in lambdas}
    for idx, (f, degree) in enumerate(zip(functions, degrees)):
        sigma_theorem = sigma_exponent(f.f0_abs, THEOREM_EPSILON)
        sigma_theorems.append(sigma_theorem)
        summary = rectangle_moduli(f, delta, count, seed + idx, threads)
        for lam in lambdas:
            est = required_exponent_from_summary(summary, lam)
            oracle = oracle_required_exponent(f, lam)
            per_lam[lam].append(est.sigma_eff)
            rows.append(GrowthRow(degree, f.f0_abs, sigma_theorem, lam,
                                  est.sigma_eff, est.std_err, oracle))
    increasing = all(
        all(b > a for a, b in zip(vals, vals[1:]))
        for vals in per_lam.values())
    ratio = max(sigma_theorems) / min(sigma_theorems)
    return GrowthReport(
        rows=rows,
        strictly_increasing=increasing, theorem_sigma_ratio=float(ratio),
        passed=bool(increasing and ratio < 2.0))

"""Localization inequality for log-concave weights, checked exactly in 1-D.

For a weight Phi, a convex compact S, a closed E inside S and lambda > 1,
the checked inequality compares the Phi-mass of the "dense core" of E (the
points whose every containing interval inside S meets E in relative length
at least (lambda-1)/lambda) against the lambda-th power of E's mass ratio.

The localization lemma reduces the inequality to 1-D needles, so the check
works on the line: piecewise log-linear densities integrate in closed form
and the inner minimization over intervals is solved exactly by
candidate-endpoint enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .intervals import IntervalSet

# slack of the closed-form dense core's self-certification; no pass rule
# reads it
CERT_TOL = 1e-9
CORE_PAD = 1e-12
CONCAVITY_TOL = 1e-12


@dataclass(frozen=True)
class PiecewiseLogLinear:
    """Density exp(piecewise-linear interpolation of log_values).

    Concavity (non-increasing slopes) is enforced at construction.  The
    localization check reads only mass ratios, which a positive constant
    factor of the weight does not change.
    """

    breakpoints: np.ndarray
    log_values: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.breakpoints, dtype=float).reshape(-1)
        v = np.asarray(self.log_values, dtype=float).reshape(-1)
        object.__setattr__(self, "breakpoints", t)
        object.__setattr__(self, "log_values", v)
        if t.size < 2 or t.size != v.size:
            raise ValueError("need matching breakpoints/log_values, length >= 2")
        if np.any(np.diff(t) <= 0):
            raise ValueError("breakpoints must be strictly increasing")
        slopes = np.diff(v) / np.diff(t)
        if np.any(np.diff(slopes) > CONCAVITY_TOL):
            raise ValueError("log-density must be concave (non-increasing slopes)")

    @property
    def support(self) -> tuple[float, float]:
        return float(self.breakpoints[0]), float(self.breakpoints[-1])

    def integral(self, lo: float, hi: float) -> float:
        """Exact integral of the density over [lo, hi]."""
        t, v = self.breakpoints, self.log_values
        s_lo, s_hi = self.support
        if lo < s_lo - 1e-12 or hi > s_hi + 1e-12:
            raise ValueError("integration range outside the support")
        lo, hi = max(lo, s_lo), min(hi, s_hi)
        if hi <= lo:
            return 0.0
        total = 0.0
        for k in range(t.size - 1):
            a, b = max(lo, t[k]), min(hi, t[k + 1])
            if b <= a:
                continue
            m = (v[k + 1] - v[k]) / (t[k + 1] - t[k])
            base = v[k] + m * (a - t[k])
            if m == 0.0:
                total += np.exp(base) * (b - a)
            else:
                total += np.exp(base) * np.expm1(m * (b - a)) / m
        return float(total)

    def _integral_set(self, e: IntervalSet) -> float:
        return float(sum(self.integral(l, u) for l, u in e.pairs()))


def _candidate_points(e: IntervalSet, s: tuple[float, float]) -> np.ndarray:
    s0, s1 = s
    pts = [s0, s1]
    for l, u in e.pairs():
        if u < s0 or l > s1:
            continue
        pts.append(max(l, s0))
        pts.append(min(u, s1))
    # sorted and deduplicated as np.unique does it for floats, without the
    # numpy.ma import that np.unique pulls in
    pts = np.sort(np.array(pts, dtype=float))
    return pts[np.concatenate(([True], pts[1:] != pts[:-1]))]


def min_interval_ratio_many(xs: np.ndarray, e: IntervalSet,
                            s: tuple[float, float]) -> np.ndarray:
    """Exact min over intervals J with x in J inside S of |E∩J| / |J|.

    The minimizing interval's endpoints lie among {s0, s1, x} and the
    component endpoints of E (the ratio is piecewise monotone in each
    endpoint), and one endpoint can be taken at x: an interval straddling x
    has the mediant of the ratios of its two halves.  So the minimum runs
    over the intervals [x, c] and [c, x] for the candidates c, one
    len(xs) x m array expression.
    """
    s0, s1 = float(s[0]), float(s[1])
    if s1 <= s0:
        raise ValueError("S must have positive length")
    xs = np.asarray(xs, dtype=float)
    if np.any(xs < s0 - 1e-12) or np.any(xs > s1 + 1e-12):
        raise ValueError("points must lie in S")
    xs = np.clip(xs, s0, s1)
    cands = _candidate_points(e, (s0, s1))
    w_c = e.measure_below(cands)
    w_x = e.measure_below(xs)
    # one row per x, one column per candidate c: the interval [x, c] or
    # [c, x], with numerator and denominator each taken as a nonnegative
    # difference (with E empty every ratio is 0)
    gap = cands - xs[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        r = np.where(gap > 0, (w_c - w_x[:, None]) / gap,
                     (w_x[:, None] - w_c) / (xs[:, None] - cands))
    r[gap == 0] = np.inf
    return np.clip(r.min(axis=1), 0.0, 1.0)


@dataclass(frozen=True)
class DenseCore:
    """The dense core of E (`inner`, exact up to rounding) and the same core
    widened by CORE_PAD inside each component of E (`outer`)."""

    inner: IntervalSet
    outer: IntervalSet


def dense_core_1d(e: IntervalSet, s: tuple[float, float],
                  lam: float) -> DenseCore:
    """{x in E : |E ∩ J| >= theta |J| for every interval J in S holding x},
    theta = (lam-1)/lam, in closed form.

    On a component [l, u] of E, W(x) = |E ∩ (-inf, x]| rises with slope 1,
    so for each candidate c outside [l, u] the condition on the interval
    between x and c is one half-line with the boundary
    g(c) = (W(c) - W(l) + l - theta c) / (1 - theta): x >= g(c) for c < l
    and x <= g(c) for c > u.  Candidates inside [l, u] give ratio 1.  The
    core in [l, u] is therefore the single interval
    [max(l, max_{c<l} g), min(u, min_{c>u} g)].  Its endpoints are
    certified against `min_interval_ratio_many`.
    """
    if lam <= 1.0:
        raise ValueError("lambda must exceed 1")
    s0, s1 = float(s[0]), float(s[1])
    if e.n_components and (e.lower[0] < s0 - 1e-12 or e.upper[-1] > s1 + 1e-12):
        raise ValueError("E must lie in S")
    theta = (lam - 1.0) / lam
    l, u = e.lower, e.upper
    cands = _candidate_points(e, (s0, s1))
    # one row per component, one column per candidate
    g = ((e.measure_below(cands) - e.measure_below(l)[:, None] + l[:, None]
          - theta * cands) / (1.0 - theta))
    lo = np.maximum(l, np.max(np.where(cands < l[:, None], g, -np.inf), axis=1))
    hi = np.minimum(u, np.min(np.where(cands > u[:, None], g, np.inf), axis=1))
    keep = lo <= hi
    ends = np.concatenate([lo[keep], hi[keep]])
    if np.any(min_interval_ratio_many(ends, e, (s0, s1)) < theta - CERT_TOL):
        raise ValueError("closed-form dense core fails its certification")
    out_lo, out_hi = np.maximum(l, lo - CORE_PAD), np.minimum(u, hi + CORE_PAD)
    wide = out_lo <= out_hi
    return DenseCore(IntervalSet.from_pairs(zip(lo[keep], hi[keep])),
                     IntervalSet.from_pairs(zip(out_lo[wide], out_hi[wide])))


@dataclass(frozen=True)
class LocalizationInstance:
    density: PiecewiseLogLinear
    s_interval: tuple[float, float]
    e_set: IntervalSet
    lam: float

    def __post_init__(self):
        s0, s1 = self.s_interval
        lo, hi = self.density.support
        if not (lo - 1e-12 <= s0 < s1 <= hi + 1e-12):
            raise ValueError("S must be a nondegenerate interval inside the support")
        if self.lam <= 1.0:
            raise ValueError("lambda must exceed 1")
        if self.e_set.n_components and not self.e_set.is_subset_of(
                IntervalSet.from_pairs([self.s_interval]), tol=1e-12):
            raise ValueError("E must be a subset of S")


@dataclass(frozen=True)
class LocalizationReport:
    lhs_inner: float
    lhs_outer: float
    rhs: float
    passed: bool


def localization_check_1d(inst: LocalizationInstance,
                          resolution: int = 512) -> LocalizationReport:
    """Exact-integration check of the localization inequality in 1-D.

    The reported pass uses the padded outer core, which can only
    overestimate the left side; rounding therefore produces false failures,
    never false passes.  The dense core is computed in closed form, so
    `resolution` is only range-checked and changes no number; it stays
    because the benchmark (bench/workloads.py) passes it positionally.
    """
    if resolution < 2:
        raise ValueError("resolution must be >= 2")
    den = inst.density
    s0, s1 = inst.s_interval
    mass_s = den.integral(s0, s1)
    if mass_s <= 0:
        raise ValueError("S carries no mass")
    core = dense_core_1d(inst.e_set, inst.s_interval, inst.lam)
    lhs_inner = den._integral_set(core.inner) / mass_s
    lhs_outer = den._integral_set(core.outer) / mass_s
    rhs = (den._integral_set(inst.e_set) / mass_s) ** inst.lam
    return LocalizationReport(
        lhs_inner=float(lhs_inner), lhs_outer=float(lhs_outer), rhs=float(rhs),
        passed=bool(lhs_outer <= rhs))


# ----------------------------------------------------------------------
# Instance literal: "phi t v" lines, "S s0 s1", "E l u" lines, "lambda x".

def parse_instance(text: str) -> LocalizationInstance:
    bps: list[float] = []
    vals: list[float] = []
    s_interval = None
    e_pairs: list[tuple[float, float]] = []
    lam = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        kind, *fields = line.split()
        if len(fields) != {"phi": 2, "S": 2, "E": 2, "lambda": 1}.get(kind):
            raise ValueError(f"line {lineno}: unrecognized instance record")
        try:
            nums = [float(x) for x in fields]
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
        if not np.all(np.isfinite(nums)):
            raise ValueError(f"line {lineno}: numbers must be finite")
        if kind == "phi":
            bps.append(nums[0])
            vals.append(nums[1])
        elif kind == "S":
            s_interval = (nums[0], nums[1])
        elif kind == "E":
            e_pairs.append((nums[0], nums[1]))
        else:
            lam = nums[0]
    if s_interval is None or lam is None or len(bps) < 2:
        raise ValueError("instance needs phi lines, an S line and a lambda line")
    density = PiecewiseLogLinear(np.array(bps), np.array(vals))
    return LocalizationInstance(density, s_interval,
                                IntervalSet.from_pairs(e_pairs), lam)


def random_instance(rng: np.random.Generator) -> LocalizationInstance:
    """Randomized 1-D instance: concave piecewise-linear log density of 1 to
    8 pieces whose support contains S, E a union of 1 to 10 subintervals of
    S, and lambda uniform in [1.1, 5)."""
    n_pieces = int(rng.integers(1, 9))
    bps = np.sort(rng.uniform(-2.0, 2.0, n_pieces + 1))
    while np.min(np.diff(bps)) < 1e-3:
        bps = np.sort(rng.uniform(-2.0, 2.0, n_pieces + 1))
    slopes = np.sort(rng.uniform(-4.0, 4.0, n_pieces))[::-1]
    v0 = float(rng.uniform(-1.0, 1.0))
    vals = v0 + np.concatenate([[0.0], np.cumsum(slopes * np.diff(bps))])
    density = PiecewiseLogLinear(bps, vals - vals.max())
    lo, hi = density.support
    width = hi - lo
    s0 = lo + rng.uniform(0.0, 0.2) * width
    s1 = hi - rng.uniform(0.0, 0.2) * width
    if s1 - s0 < 0.3 * width:
        s0, s1 = lo, hi
    n_comp = int(rng.integers(1, 11))
    cuts = np.sort(rng.uniform(s0, s1, 2 * n_comp))
    pairs = [(cuts[2 * k], cuts[2 * k + 1]) for k in range(n_comp)]
    e = IntervalSet.from_pairs(pairs)
    if e.total_length > 0.9 * (s1 - s0):
        shrink = 0.9 * (s1 - s0) / e.total_length
        pairs = [(l, l + (u - l) * shrink) for l, u in e.pairs()]
        e = IntervalSet.from_pairs(pairs)
    lam = float(rng.uniform(1.1, 5.0))
    return LocalizationInstance(density, (float(s0), float(s1)), e, lam)

"""Remez-type estimates for bounded analytic functions on the unit disk.

A disk function is a unimodular constant times a finite Blaschke product
times an atomic outer factor, so |f| <= 1 holds by construction.  On the
real axis each log-modulus the checks need is one vertex form, whose terms
give both its values at points and its per-segment enclosures.

Extrema over segments of the real axis come from one level-synchronous
branch and bound, with one settling rule, over those exact enclosures (R. E.
Moore, Interval Analysis, 1966; the centered form as in A. Neumaier,
Interval Methods for Systems of Equations, 1990).  It returns a certified
upper bound and a value attained at a point, and every check takes the side
that can only make it fail.

All inequality checks compare log-moduli with a plain <=, no tolerance: the
Remez bound (C|I|/|E|)^sigma overflows the linear scale long before the
mathematics becomes interesting.  Empty factors and constant polynomials
are exact on both sides, so their checks hold with equality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .intervals import IntervalSet


def __getattr__(name: str):
    # The benchmark tracer (bench/tracing.py) still wraps
    # remez.minimize_scalar, which the package no longer calls; resolving it
    # lazily keeps scipy off the import path.  Goes away with that wrap in
    # the next benchmark change.
    if name == "minimize_scalar":
        from scipy.optimize import minimize_scalar
        return minimize_scalar
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


ZERO_RADIUS_TOL = 1e-9
CIRCLE_TOL = 1e-12
SPLIT_THRESHOLD = 2.0 / 3.0
REMEZ_CONSTANT = 8.0
CLASSICAL_REMEZ_CONSTANT = 4.0


@dataclass(frozen=True)
class DiskFunction:
    """Bounded analytic function on the unit disk.

    zeros: Blaschke zeros (with multiplicity), strictly inside the disk.
    atom_locs/atom_weights: atoms of the positive boundary measure defining
    the outer factor.  const is a unimodular constant.
    """

    zeros: np.ndarray
    atom_locs: np.ndarray
    atom_weights: np.ndarray
    const: complex = 1.0 + 0.0j

    def __post_init__(self):
        zeros = np.asarray(self.zeros, dtype=np.complex128).reshape(-1)
        locs = np.asarray(self.atom_locs, dtype=np.complex128).reshape(-1)
        ws = np.asarray(self.atom_weights, dtype=float).reshape(-1)
        object.__setattr__(self, "zeros", zeros)
        object.__setattr__(self, "atom_locs", locs)
        object.__setattr__(self, "atom_weights", ws)
        # each guard is written so that a NaN trips it
        if not np.all(np.abs(zeros) <= 1.0 - ZERO_RADIUS_TOL):
            raise ValueError("zeros must satisfy |zero| <= 1 - 1e-9")
        if locs.size != ws.size:
            raise ValueError("atom_locs and atom_weights must match")
        if not np.all(np.abs(np.abs(locs) - 1.0) <= CIRCLE_TOL):
            raise ValueError("atoms must sit on the unit circle")
        if not np.all(ws > 0.0):
            raise ValueError("atom weights must be positive")
        if not abs(abs(complex(self.const)) - 1.0) <= CIRCLE_TOL:
            raise ValueError("const must be unimodular")


def split_criterion(zeros: np.ndarray, a: float) -> np.ndarray:
    """(1-|z|^2)/|1+az|^2 + (1-|z|^2)/|1-az|^2 for each zero."""
    zeros = np.asarray(zeros, dtype=np.complex128)
    one_minus = 1.0 - np.abs(zeros) ** 2
    return one_minus / np.abs(1.0 + a * zeros) ** 2 + one_minus / np.abs(1.0 - a * zeros) ** 2


@dataclass(frozen=True)
class Factorization:
    """Partition of the Blaschke zeros by the 2/3 splitting rule."""

    b1_zeros: np.ndarray
    b2_zeros: np.ndarray

    @property
    def n_b2(self) -> int:
        return int(self.b2_zeros.size)


def split_zeros(zeros, a: float) -> Factorization:
    """Zeros with criterion <= 2/3 go to the tame factor, the rest to the
    short one whose cardinality the exponent controls."""
    if not (0.0 < a < 1.0):
        raise ValueError("a must lie in (0, 1)")
    zeros = np.asarray(zeros, dtype=np.complex128).reshape(-1)
    crit = split_criterion(zeros, a)
    tame = crit <= SPLIT_THRESHOLD
    return Factorization(zeros[tame], zeros[~tame])


# ----------------------------------------------------------------------
# Certified extrema: branch and bound over exact per-segment enclosures.

BNB_PIECES = 64             # initial segments per component
BNB_SPLIT = 8               # children of each open segment per level
BNB_CHUNK = 4096            # segments bounded per enclosure call (memory),
BNB_CHUNK_TERMS = 128       # up to this many terms; fewer past it
BNB_MAX_SEGMENTS = 1 << 20  # open segments at which the search gives up
ENCLOSURE_PAD = 1e-13       # relative pad added to every upper bound


@dataclass(frozen=True)
class Extremum:
    """Maximum of a function over a union of segments: `upper` is a
    certified upper bound, `attained` the function's value at a point, and
    `segments` the number of segments bounded to close the gap between
    them."""

    upper: float
    attained: float
    segments: int


def _certified_max(enclose, pairs, terms: int) -> Extremum:
    """Level-synchronous branch and bound.  `enclose(x0, x1)` returns, per
    segment, an upper bound of the function on [x0, x1] (padded), its value
    at a point of the segment and the pad; a call holds `terms` temporaries
    per segment for at most BNB_CHUNK * BNB_CHUNK_TERMS of them, each
    segment on its own row.  Every open segment is split BNB_SPLIT ways per
    level; a segment is settled once its bound is within 4 * pad of the best
    value attained, which also prunes every segment whose bound lies below
    that value."""
    edges = [np.linspace(lo, hi, BNB_PIECES + 1) for lo, hi in pairs]
    x0 = np.concatenate([e[:-1] for e in edges])
    x1 = np.concatenate([e[1:] for e in edges])
    t = np.arange(1, BNB_SPLIT) / BNB_SPLIT
    chunk = max(1, min(BNB_CHUNK, BNB_CHUNK * BNB_CHUNK_TERMS // terms))
    best = settled = -np.inf
    segments = 0
    while x0.size:
        if x0.size > BNB_MAX_SEGMENTS:
            raise RuntimeError("branch and bound did not converge: "
                               f"{x0.size} open segments")
        parts = [enclose(x0[k:k + chunk], x1[k:k + chunk])
                 for k in range(0, x0.size, chunk)]
        upper, value, pad = (np.concatenate(z) for z in zip(*parts))
        segments += x0.size
        best = max(best, float(np.max(value)))
        # written so that a NaN bound keeps its segment open
        open_ = ~(upper - best <= 4.0 * pad)
        settled = max(settled, float(np.max(upper[~open_], initial=-np.inf)))
        x0, x1 = x0[open_], x1[open_]
        inner = x0[:, None] + (x1 - x0)[:, None] * t
        x0 = np.concatenate([x0[:, None], inner], axis=1).ravel()
        x1 = np.concatenate([inner, x1[:, None]], axis=1).ravel()
    return Extremum(max(settled, best), best, segments)


def _ratio_range(n0, n1, dlo, dhi):
    """Range of n / d for n between n0 and n1 and d in [dlo, dhi], dlo > 0."""
    nlo, nhi = np.minimum(n0, n1), np.maximum(n0, n1)
    return np.minimum(nlo / dlo, nlo / dhi), np.maximum(nhi / dlo, nhi / dhi)


@dataclass(frozen=True)
class _LogForm:
    """g(x) = sum half log(alpha (x - p)^2 + mu) + sum v (1 - x^2) / D(x)
    with D(x) = (x - c)^2 + s2, on the real axis: every log-modulus the
    checks need has this form."""

    alpha: np.ndarray
    p: np.ndarray
    mu: np.ndarray
    half: np.ndarray
    c: np.ndarray
    s2: np.ndarray
    v: np.ndarray

    @property
    def empty(self) -> bool:
        return self.half.size + self.v.size == 0

    def terms(self, x):
        """The log terms and the atom terms of g at real points x, each
        along a new last axis."""
        x = np.asarray(x, dtype=float)[..., None]
        u, w = x - self.p, x - self.c
        with np.errstate(divide="ignore"):
            return (self.half * np.log(self.alpha * u * u + self.mu),
                    self.v * (1.0 - x * x) / (w * w + self.s2))

    def at(self, x) -> np.ndarray:
        """g at real points x."""
        logs, atoms = self.terms(x)
        return np.sum(logs, axis=-1) + np.sum(atoms, axis=-1)


_EMPTY = np.empty(0, dtype=np.complex128)


def _log_form(sign: float, zeros=_EMPTY, den_zeros=_EMPTY, locs=_EMPTY,
              weights=np.empty(0)) -> _LogForm:
    """sign * (sum log|x - z| - sum log|1 - x conj(d)| + log|outer factor|).

    |x - z|^2 = (x - Re z)^2 + (Im z)^2 and |1 - x conj(d)|^2 =
    |d|^2 (x - Re d/|d|^2)^2 + (Im d)^2/|d|^2; the vertex form keeps a zero
    near the real axis free of cancellation.  The outer factor's Poisson
    kernel is (1 - x^2) / |zeta - x|^2 with |zeta - x|^2 = (x - Re zeta)^2 +
    (Im zeta)^2."""
    zeros = np.asarray(zeros, dtype=np.complex128)
    den_zeros = np.asarray(den_zeros, dtype=np.complex128)
    locs = np.asarray(locs, dtype=np.complex128)
    dd = np.abs(den_zeros) ** 2
    safe = np.where(dd > 0.0, dd, 1.0)
    return _LogForm(
        alpha=np.concatenate([np.ones(zeros.size), dd]),
        p=np.concatenate([zeros.real, np.where(dd > 0.0, den_zeros.real / safe, 0.0)]),
        mu=np.concatenate([zeros.imag ** 2,
                           np.where(dd > 0.0, den_zeros.imag ** 2 / safe, 1.0)]),
        half=0.5 * sign * np.concatenate([np.ones(zeros.size),
                                          -np.ones(den_zeros.size)]),
        c=locs.real, s2=locs.imag ** 2,
        v=-sign * np.asarray(weights, dtype=float))


def _log_form_enclosure(g: _LogForm):
    """Per segment [x0, x1] with midpoint m and radius r, an upper bound of g:
    its value at an end when an enclosure D of g' has one sign (the segment
    is monotone), else the smaller of the natural bound (each term bounded
    by its exact range) and the centered bound g(m) + r max|D|.  The value
    attained is the largest of g(x0), g(m) and g(x1)."""
    rising = g.half > 0.0
    log_slope = 2.0 * g.alpha * g.half   # (half log q)' = log_slope (x - p) / q
    atom_slope = 2.0 * g.v               # (v K)' = atom_slope (c (1 + x^2) - 2x) / D^2

    def enclose(x0, x1):
        r = 0.5 * (x1 - x0)
        x = np.stack([x0, 0.5 * (x0 + x1), x1], axis=1)
        ends = x[:, ::2, None]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            logs, kern = g.terms(x)
            # half log q with q = alpha (x - p)^2 + mu: convex q peaks at an
            # end and bottoms out at the vertex p clamped to the segment
            u = ends - g.p
            q = g.alpha * u * u + g.mu
            near = np.maximum(np.maximum(u[:, 0], -u[:, 1]), 0.0)
            q_lo = g.alpha * near * near + g.mu
            q_hi = np.maximum(q[:, 0], q[:, 1])
            natural = np.sum(g.half * np.log(np.where(rising, q_hi, q_lo)), axis=1)
            d_lo, d_hi = _ratio_range(log_slope * u[:, 0], log_slope * u[:, 1],
                                      q_lo, q_hi)
            # v K with K = (1 - x^2) / D, D = (x - c)^2 + s2; the numerator of
            # K' is monotone on (-1, 1), since its vertex 1/c lies outside
            w = ends - g.c
            den = w * w + g.s2
            num = 1.0 - ends * ends
            near = np.maximum(np.maximum(w[:, 0], -w[:, 1]), 0.0)
            den_lo = near * near + g.s2
            den_hi = np.maximum(den[:, 0], den[:, 1])
            num_lo = np.minimum(num[:, 0], num[:, 1])
            num_hi = 1.0 - np.maximum(np.maximum(x0, -x1), 0.0)[:, None] ** 2
            natural += np.sum(np.where(g.v > 0.0, g.v * num_hi / den_lo,
                                       g.v * num_lo / den_hi), axis=1)
            e = atom_slope * (g.c * (1.0 + ends * ends) - 2.0 * ends)
            a_lo, a_hi = _ratio_range(e[:, 0], e[:, 1], den_lo * den_lo,
                                      den_hi * den_hi)
            slope_lo = np.sum(d_lo, axis=1) + np.sum(a_lo, axis=1)
            slope_hi = np.sum(d_hi, axis=1) + np.sum(a_hi, axis=1)
            values = np.sum(logs, axis=2) + np.sum(kern, axis=2)
            centered = values[:, 1] + r * np.maximum(np.abs(slope_lo), np.abs(slope_hi))
            upper = np.where(slope_lo >= 0.0, values[:, 2],
                             np.where(slope_hi <= 0.0, values[:, 0],
                                      np.fmin(natural, centered)))
            at_m = logs[:, 1]
            scale = (np.sum(np.abs(at_m), axis=1, where=np.isfinite(at_m))
                     + np.sum(np.abs(kern[:, 1]), axis=1))
        pad = ENCLOSURE_PAD * np.maximum(1.0, scale)
        return upper + pad, np.max(values, axis=1), pad

    return enclose


def _max_log_form(g: _LogForm, pairs) -> Extremum:
    """Certified max of g over segments of (-1, 1); an empty g is exactly 0."""
    pairs = list(pairs)
    if any(not (-1.0 < lo <= hi < 1.0) for lo, hi in pairs):
        raise ValueError("segments [lo, hi] must satisfy -1 < lo <= hi < 1")
    if g.empty:
        return Extremum(0.0, 0.0, 0)
    return _certified_max(_log_form_enclosure(g), pairs, g.half.size + g.v.size)


@dataclass(frozen=True)
class FactorEstimate:
    """One factor estimate: `statistic` against `bound` and its verdict."""

    statistic: float
    bound: float
    passed: bool


@dataclass(frozen=True)
class FactorBoundsReport:
    """The four factor estimates by name, in the order of the report rows;
    extras["segments"] counts the segments bounded."""

    checks: dict[str, FactorEstimate]
    extras: dict = field(default_factory=dict)

    @property
    def all_pass(self) -> bool:
        return all(c.passed for c in self.checks.values())


def factor_bounds(f: DiskFunction, a: float) -> FactorBoundsReport:
    """Verify the four factor estimates on [-a, a]:

    outer_min:          min |U| >= |U(a)U(-a)|^(1/(1-a^2))
    b1_min:             min |B1| >= |B1(a)B1(-a)|^(2/(1-a^2))
    count:              #B2 <= 3/(1-a^2) * log 1/|B2(a)B2(-a)|
    denominator_ratio:  max |reciprocal factor| <= (2/(1-a))^N * min of it,
                        compared in log units (log spread <= N log(2/(1-a)))

    Both minima are certified lower bounds, compared in logs, and the spread
    of the reciprocal factor a certified upper bound, so each check can err
    only toward failing.
    """
    fac = split_zeros(f.zeros, a)
    span, ends = [(-a, a)], np.array([a, -a])
    neg_log_u = _log_form(-1.0, locs=f.atom_locs, weights=f.atom_weights)
    neg_log_b1 = _log_form(-1.0, fac.b1_zeros, fac.b1_zeros)
    neg_u = _max_log_form(neg_log_u, span)
    neg_b1 = _max_log_form(neg_log_b1, span)
    # log of the reciprocal factor 1/prod|1 - x conj(z)|: spread = max + max of -
    r_max = _max_log_form(_log_form(1.0, den_zeros=fac.b2_zeros), span)
    r_neg_max = _max_log_form(_log_form(-1.0, den_zeros=fac.b2_zeros), span)

    # each factor's endpoint sum log|g(a)| + log|g(-a)|
    log_u, log_b1 = (-float(np.sum(g.at(ends))) for g in (neg_log_u, neg_log_b1))
    log_b2 = float(np.sum(_log_form(1.0, fac.b2_zeros, fac.b2_zeros).at(ends)))
    shrink = 1.0 - a * a

    def minimum(neg_max: Extremum, bound_log: float) -> FactorEstimate:
        # the certified minimum exp(-neg_max.upper), compared in logs
        return FactorEstimate(float(np.exp(-neg_max.upper)), float(np.exp(bound_log)),
                              bool(bound_log <= -neg_max.upper))

    n = fac.n_b2
    n_bound = 3.0 / shrink * -log_b2
    r_spread = r_max.upper + r_neg_max.upper
    r_bound = n * np.log(2.0 / (1.0 - a))
    return FactorBoundsReport(
        checks={"outer_min": minimum(neg_u, log_u / shrink),
                "b1_min": minimum(neg_b1, 2.0 * log_b1 / shrink),
                "count": FactorEstimate(n, float(n_bound), bool(n <= n_bound)),
                "denominator_ratio": FactorEstimate(
                    float(r_spread), float(r_bound), bool(r_spread <= r_bound))},
        extras={"segments": neg_u.segments + neg_b1.segments + r_max.segments
                + r_neg_max.segments})


def _log_abs(f: DiskFunction) -> _LogForm:
    """log|f| on the real axis."""
    return _log_form(1.0, f.zeros, f.zeros, f.atom_locs, f.atom_weights)


def _exponent(log_f: _LogForm, a: float) -> float:
    if not (0.0 < a < 1.0):
        raise ValueError("a must lie in (0, 1)")
    log_ends = float(np.sum(log_f.at(np.array([a, -a]))))
    if not np.isfinite(log_ends):
        raise ValueError("f vanishes at an endpoint +-a")
    return 3.0 / (1.0 - a) * -log_ends


def remez_exponent(f: DiskFunction, a: float) -> float:
    """3/(1-a) * log 1/(|f(a)||f(-a)|), the exponent the factorization proof
    delivers."""
    return _exponent(_log_abs(f), a)


def _remez_sides(interval: tuple[float, float], e: IntervalSet):
    """(lo, hi, |I|/|E|) for the sides of a Remez comparison on I = [lo, hi]
    and E, once I and E have positive length and E lies in I."""
    lo, hi = float(interval[0]), float(interval[1])
    if hi <= lo:
        raise ValueError("interval I must have positive length")
    if e.n_components == 0 or e.total_length == 0.0:
        raise ValueError("set E must have positive length")
    if not e.is_subset_of(IntervalSet.from_pairs([(lo, hi)]), tol=1e-12):
        raise ValueError("E must be a subset of I")
    return lo, hi, (hi - lo) / e.total_length


@dataclass(frozen=True)
class RemezReport:
    max_i: float
    sup_e: float
    sigma: float
    log_max_i: float
    log_bound: float
    passed: bool
    extras: dict = field(default_factory=dict)


def remez_check(f: DiskFunction, a: float, interval: tuple[float, float],
                e: IntervalSet, n_grid: int | None = None,
                per_component: int | None = None) -> RemezReport:
    """Verify max_I |f| <= (8 |I|/|E|)^sigma * sup_E |f| in log space.

    max_I is a certified upper bound and sup_E a value attained in E, so the
    check can err only toward failing.  extras["segments"] counts the
    segments bounded.  `n_grid` and `per_component` are ignored; they stay
    because the benchmark (bench/workloads.py) passes them positionally."""
    lo, hi, ratio = _remez_sides(interval, e)
    if lo < -a - 1e-15 or hi > a + 1e-15:
        raise ValueError("interval I must lie in [-a, a]")
    log_f = _log_abs(f)
    sigma = _exponent(log_f, a)
    max_i = _max_log_form(log_f, [(lo, hi)])
    sup_e = _max_log_form(log_f, e.pairs())
    log_bound = float(sigma * np.log(REMEZ_CONSTANT * ratio) + sup_e.attained)
    return RemezReport(
        max_i=float(np.exp(max_i.upper)), sup_e=float(np.exp(sup_e.attained)),
        sigma=sigma, log_max_i=max_i.upper, log_bound=log_bound,
        passed=bool(max_i.upper <= log_bound),
        extras={"log_sup_e": sup_e.attained,
                "segments": max_i.segments + sup_e.segments})


@dataclass(frozen=True)
class ClassicalRemezReport:
    lhs: float
    rhs: float
    log_lhs: float
    log_rhs: float
    passed: bool
    extras: dict = field(default_factory=dict)


def _poly_enclosure(coeffs: np.ndarray):
    """Per segment, an upper bound of log|P| from the Taylor expansion at the
    midpoint m, P(m + t) = sum_j p_j t^j with |t| <= r:
    |P| <= max|p0 +- p1 r| + sum_{j>=2} |p_j| r^j.  The p_j at every
    midpoint come from one product V(m) @ W, W[i, j] = C(i + j, j) a_{i+j}.
    A constant is exact: p0 = a0 and there is no tail, so it gets no pad."""
    n = coeffs.size - 1
    i, j = np.indices((n + 1, n + 1))
    binom = np.array([[math.comb(p + q, q) for q in range(n + 1)]
                      for p in range(n + 1)], dtype=float)
    shift = np.where(i + j <= n, binom * coeffs[np.minimum(i + j, n)], 0.0)

    def enclose(x0, x1):
        m = 0.5 * (x0 + x1)
        r = 0.5 * (x1 - x0)
        taylor = np.vander(m, n + 1, increasing=True) @ shift
        p0 = taylor[:, 0]
        p1r = taylor[:, 1] * r if n else 0.0
        r_pow = np.vander(r, n + 1, increasing=True)
        tail = np.sum(np.abs(taylor[:, 2:]) * r_pow[:, 2:], axis=1)
        with np.errstate(divide="ignore"):
            upper = np.log(np.maximum(np.abs(p0 + p1r), np.abs(p0 - p1r)) + tail)
            value = np.log(np.abs(p0))
        pad = (ENCLOSURE_PAD * np.maximum(1.0, np.abs(upper)) if n
               else np.zeros_like(upper))
        return upper + pad, value, pad

    return enclose


def classical_remez_check(coeffs, interval: tuple[float, float], e: IntervalSet,
                          n_grid: int | None = None,
                          per_component: int | None = None) -> ClassicalRemezReport:
    """Classical polynomial Remez bound max_I |P| <= (4|I|/|E|)^deg * sup_E |P|.

    max_I is a certified upper bound and sup_E a value attained in E;
    extras["segments"] is as in remez_check.  `n_grid` and `per_component`
    are ignored; they stay because the benchmark (bench/workloads.py) passes
    them positionally."""
    coeffs = np.asarray(coeffs, dtype=np.complex128).reshape(-1)
    nz = np.nonzero(coeffs)[0]
    if not nz.size:
        raise ValueError("P must not vanish identically")
    degree = int(nz[-1])
    lo, hi, ratio = _remez_sides(interval, e)
    enclose = _poly_enclosure(coeffs[:degree + 1])
    max_i = _certified_max(enclose, [(lo, hi)], degree + 1)
    sup_e = _certified_max(enclose, e.pairs(), degree + 1)
    log_rhs = float(degree * np.log(CLASSICAL_REMEZ_CONSTANT * ratio) + sup_e.attained)
    return ClassicalRemezReport(
        lhs=float(np.exp(max_i.upper)), rhs=float(np.exp(min(log_rhs, 700.0))),
        log_lhs=max_i.upper, log_rhs=log_rhs, passed=bool(max_i.upper <= log_rhs),
        extras={"segments": max_i.segments + sup_e.segments})


def random_disk_function(rng: np.random.Generator) -> DiskFunction:
    """Random disk function: 0 to 30 zeros of modulus < 0.995 and 0 to 5
    outer atoms of weight in [1e-3, 0.501)."""
    n_zeros = int(rng.integers(0, 31))
    radii = np.sqrt(rng.random(n_zeros)) * 0.995
    zeros = radii * np.exp(1j * rng.random(n_zeros) * 2.0 * np.pi)
    n_atoms = int(rng.integers(0, 6))
    locs = np.exp(1j * rng.random(n_atoms) * 2.0 * np.pi)
    weights = rng.random(n_atoms) * 0.5 + 1e-3
    const = np.exp(1j * rng.random() * 2.0 * np.pi)
    return DiskFunction(zeros, locs, weights, const)


def random_subset(rng: np.random.Generator, lo: float, hi: float,
                  max_components: int = 10, min_fraction: float = 0.01
                  ) -> IntervalSet:
    """Random union of at most `max_components` subintervals of [lo, hi]
    holding at least `min_fraction` of its length."""
    width = hi - lo
    for _ in range(100):
        n = int(rng.integers(1, max_components + 1))
        cuts = np.sort(rng.uniform(lo, hi, 2 * n))
        e = IntervalSet.from_pairs(
            [(cuts[2 * k], cuts[2 * k + 1]) for k in range(n)])
        if e.total_length >= min_fraction * width:
            return e
    return IntervalSet.from_pairs([(lo, lo + min_fraction * width)])

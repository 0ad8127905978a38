"""Monte Carlo distribution checks for |F| over real balls.

Estimates the 1/e reference quantile of |F| under the normalized volume of
a real ball and checks the two-sided quantile bounds

    frac{|F| <= (8 lam)^(-sigma) M} <= 1/lam        (small-set bound)
    frac{|F| >= (8 lam)^(+sigma) M} <= exp(-lam)    (tail bound)

plus the superlevel power bound frac{|F| >= (8 lam)^sigma c} <= frac{|F| >= c}^lam,
with sigma = 48 eps^-3 log(1/|F(0)|).  sigma is a few thousand for typical
inputs, so (8 lam)^sigma overflows the linear scale: every threshold
comparison runs on log-moduli.  All pass/fail margins are 3-sigma binomial.

Both checks read one sorted sample of |F|.  `sample_moduli` remembers its
last call, keyed on the content of every argument (the polynomial's
exponents and coefficients, the ball's centre and radius, count, seed and
threads), so a quantile check and a power-bound check at the same
arguments draw and sort the sample once.  Keying on `threads` keeps every
comparison across thread counts a comparison of two computations.  The
remembered array is read-only; at the CLI's `samples` cap of 1e7 it holds
80 MB until the next call with other arguments replaces it.

Every uniform ball point comes from one chunk worker, `_ball_coords` (a
Gaussian direction scaled by U^(1/n)): all n coordinates for `sample_ball`,
those F reads for `sample_moduli` and `level_fraction`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .poly import MultiPoly, certify_sup, eval_many
from .sampling import STREAM_BALL, STREAM_LEVEL, chunk_rng, map_chunks

THEOREM_CONSTANT = 8.0
QUANTILE_LEVEL = 1.0 - 1.0 / math.e


@dataclass(frozen=True)
class BallSpec:
    """Real ball B(center, radius) in R^n sitting inside B(0, 1 - epsilon)."""

    center: np.ndarray
    radius: float
    epsilon: float

    def __post_init__(self):
        c = np.asarray(self.center, dtype=float).reshape(-1)
        object.__setattr__(self, "center", c)
        if not (0.0 < self.epsilon <= 0.25):
            raise ValueError("epsilon must lie in (0, 1/4]")
        if not (self.radius >= 0):
            raise ValueError("radius must be nonnegative")
        if not np.linalg.norm(c) + self.radius <= 1.0 - self.epsilon + 1e-12:
            raise ValueError("ball must lie inside B(0, 1 - epsilon)")

    @property
    def dim(self) -> int:
        return int(self.center.size)


@dataclass(frozen=True)
class DistributionSummary:
    """Sorted sample of |F| values under the normalized ball volume."""

    sorted_moduli: np.ndarray

    @property
    def count(self) -> int:
        return int(self.sorted_moduli.size)

    def log_moduli(self) -> np.ndarray:
        with np.errstate(divide="ignore"):
            return np.log(self.sorted_moduli)


def _ball_coords(spec: BallSpec, seed: int, stream: int, used):
    """``worker(chunk, size)``: the `used` coordinates (an index array, or
    ``slice(None)`` for all n) of the chunk's uniform ball points.  It draws
    the normals, then the radial uniforms: the byte stream depends on that order."""
    n, center = spec.dim, spec.center[used]

    def worker(chunk, size):
        rng = chunk_rng(seed, stream, chunk)
        x = rng.standard_normal((size, n))
        u = rng.random(size)
        norms = np.linalg.norm(x, axis=1)
        norms[norms == 0.0] = 1.0
        pts = x[:, used]  # x itself for a slice: scaled and shifted in place
        pts *= (spec.radius * u ** (1.0 / n) / norms)[:, None]
        return np.add(center, pts, out=pts)

    return worker


def sample_ball(spec: BallSpec, count: int, seed: int, threads: int = 1) -> np.ndarray:
    """Uniform points of the ball, deterministic per (seed, chunk)."""
    return map_chunks(count, _ball_coords(spec, seed, STREAM_BALL, slice(None)),
                      threads)


def _moduli_worker(poly: MultiPoly, spec: BallSpec, seed: int, stream: int):
    """``worker(chunk, size)``: |F| at the chunk's ball points, built only in
    the coordinates F reads; F drops its unread variables (same terms, same
    order), and a constant F keeps x1, so the points stay a matrix.  When F
    reads every coordinate, the points are the draws scaled in place."""
    used = [0] if poly.is_constant() else np.flatnonzero(poly.exponents.any(axis=0))
    if len(used) == poly.dim:
        used = slice(None)
    else:
        poly = MultiPoly(len(used), poly.exponents[:, used], poly.coeffs)
    coords = _ball_coords(spec, seed, stream, used)
    return lambda chunk, size: np.abs(eval_many(poly, coords(chunk, size)))


# The last sample_moduli call: (key, summary), or None before the first.
# Read and replaced as one tuple, so a concurrent caller sees a whole entry;
# a lost race costs a recomputation, never a wrong sample.
_last_moduli: tuple[tuple, DistributionSummary] | None = None


def sample_moduli(poly: MultiPoly, spec: BallSpec, count: int, seed: int,
                  threads: int = 1) -> DistributionSummary:
    """Sorted |F| sample; sampling and evaluation are chunk-parallel.

    Repeats the last call's result when every argument has the same content
    (see the module docstring); the returned array is read-only.
    """
    global _last_moduli
    if poly.dim != spec.dim:
        raise ValueError("polynomial and ball dimensions differ")
    key = (poly.exponents.tobytes(), poly.coeffs.tobytes(), spec.center.tobytes(),
           float(spec.radius).hex(), count, seed, threads)
    last = _last_moduli
    if last is not None and last[0] == key:
        return last[1]
    summary = sorted_sample(count, _moduli_worker(poly, spec, seed, STREAM_BALL),
                            threads)
    _last_moduli = (key, summary)
    return summary


def sorted_sample(count: int, worker, threads: int = 1) -> DistributionSummary:
    """``worker(chunk, size)`` mapped over the chunks of `count`, sorted, read-only."""
    vals = map_chunks(count, worker, threads)
    vals.sort()
    vals.flags.writeable = False
    return DistributionSummary(vals)


def _require_usable(poly: MultiPoly):
    if poly.is_constant():
        raise ValueError("polynomial is constant; quantile checks are degenerate")
    if not certify_sup(poly) <= 1.0 + 1e-12:
        raise ValueError("polynomial needs a sup certificate <= 1: its "
                         "coefficient l1 norm exceeds 1")


def check_lambdas(lambdas, count: int) -> list[float]:
    """The lambdas as floats, each > 1 with count * exp(-lambda) >= 1: a tail
    bound under one sample's mass passes on an empty tail whatever F does."""
    lambdas = [float(lam) for lam in lambdas]
    for i, lam in enumerate(lambdas):
        if not lam > 1.0:
            raise ValueError(f"lambdas[{i}] must be > 1, got {lam!r}")
        if count * math.exp(-lam) < 1.0:
            raise ValueError(f"lambdas[{i}] must have samples * exp(-lambda) "
                             f">= 1, got {lam!r} at {count} samples")
    return lambdas


def quantile_index(count: int, level: float) -> int:
    """0-based order-statistic index for the ceil(level*N)-th smallest value."""
    k = int(math.ceil(level * count))
    return min(max(k, 1), count) - 1


def quantile_with_se(summary: DistributionSummary,
                     level: float) -> tuple[float, float]:
    """Order-statistic quantile and a std error mapped through the local
    empirical density (binomial level noise over quantile slope)."""
    n = summary.count
    vals = summary.sorted_moduli
    k = quantile_index(n, level)
    q = float(vals[k])
    se_level = math.sqrt(level * (1.0 - level) / n)
    lo = vals[quantile_index(n, max(level - se_level, 0.0))]
    hi = vals[quantile_index(n, min(level + se_level, 1.0))]
    return q, float((hi - lo) / 2.0)


def level_fraction(poly: MultiPoly, spec: BallSpec, threshold: float, side: str,
                   count: int, seed: int, threads: int = 1) -> tuple[float, float]:
    """Monte Carlo frac{|F| <= t} or frac{|F| >= t} with binomial std error."""
    if not threshold >= 0:
        raise ValueError("threshold must be nonnegative")
    if side not in ("le", "ge"):
        raise ValueError("side must be 'le' or 'ge'")
    if poly.dim != spec.dim:
        raise ValueError("polynomial and ball dimensions differ")

    moduli = _moduli_worker(poly, spec, seed, STREAM_LEVEL)

    def worker(chunk, size):
        vals = moduli(chunk, size)
        hits = vals <= threshold if side == "le" else vals >= threshold
        return np.array([np.count_nonzero(hits)], dtype=np.int64)

    hits = int(np.sum(map_chunks(count, worker, threads)))
    p = hits / count
    return p, math.sqrt(p * (1.0 - p) / count)


def sigma_exponent(f0: float, epsilon: float) -> float:
    """48 * eps^-3 * log(1/f0) for f0 = |F(0)|; rejects f0 in {0} or [1, inf)."""
    if f0 == 0.0:
        raise ValueError("F(0) = 0: the exponent is undefined")
    if f0 >= 1.0:
        raise ValueError("|F(0)| >= 1 forces F constant under the sup hypothesis")
    return 48.0 * epsilon ** -3 * math.log(1.0 / f0)


def _fraction(sorted_logs: np.ndarray, log_t: float,
              side: str) -> tuple[float, float]:
    """frac{log|F| <= log_t} (side "le") or frac{log|F| >= log_t} (side
    "ge") of a sorted sample, with its binomial std error."""
    n, le = sorted_logs.size, side == "le"
    k = np.searchsorted(sorted_logs, log_t, side="right" if le else "left")
    p = float(k if le else n - k) / n
    return p, math.sqrt(p * (1.0 - p) / n)


@dataclass(frozen=True)
class BoundRow:
    lam: float
    sigma: float
    quantile: float
    small_threshold_log: float
    small_fraction: float
    small_bound: float
    small_std_err: float
    tail_threshold_log: float
    tail_fraction: float
    tail_bound: float
    tail_std_err: float
    passed: bool


@dataclass(frozen=True)
class QuantileBoundsReport:
    rows: list[BoundRow]
    sigma: float
    quantile: float
    quantile_std_err: float
    all_pass: bool


def check_quantile_bounds(poly: MultiPoly, spec: BallSpec, lambdas,
                          count: int, seed: int,
                          threads: int = 1) -> QuantileBoundsReport:
    """Small-set and tail bounds at each lambda, from one shared sample."""
    _require_usable(poly)
    lambdas = check_lambdas(lambdas, count)
    sigma = sigma_exponent(abs(poly.constant_term()), spec.epsilon)
    summary = sample_moduli(poly, spec, count, seed, threads)
    logs = summary.log_moduli()
    m, m_se = quantile_with_se(summary, QUANTILE_LEVEL)
    if m <= 0.0:
        raise ValueError("reference quantile vanished; F is zero on the ball?")
    log_m = math.log(m)
    rows = []
    for lam in lambdas:
        shift = sigma * math.log(THEOREM_CONSTANT * lam)
        small_t = log_m - shift
        tail_t = log_m + shift
        small_frac, small_se = _fraction(logs, small_t, "le")
        tail_frac, tail_se = _fraction(logs, tail_t, "ge")
        small_bound = 1.0 / lam
        tail_bound = math.exp(-lam)
        ok = (small_frac <= small_bound + 3.0 * small_se
              and tail_frac <= tail_bound + 3.0 * tail_se)
        rows.append(BoundRow(lam, sigma, m, small_t, small_frac, small_bound,
                             small_se, tail_t, tail_frac, tail_bound, tail_se, ok))
    return QuantileBoundsReport(
        rows=rows, sigma=sigma, quantile=m, quantile_std_err=m_se,
        all_pass=all(r.passed for r in rows))


@dataclass(frozen=True)
class PowerBoundRow:
    lam: float
    threshold_log: float
    lhs: float
    rhs: float
    margin: float
    passed: bool


@dataclass(frozen=True)
class PowerBoundReport:
    rows: list[PowerBoundRow]
    sigma: float
    all_pass: bool


def check_superlevel_power_bound(poly: MultiPoly, spec: BallSpec, c: float,
                                 lambdas, count: int, seed: int,
                                 threads: int = 1) -> PowerBoundReport:
    """frac{|F| >= (8 lam)^sigma c} <= frac{|F| >= c}^lam, shared sample."""
    _require_usable(poly)
    if not c > 0:
        raise ValueError("c must be positive")
    if not math.isfinite(c):
        raise ValueError("c must be finite")
    lambdas = check_lambdas(lambdas, count)
    sigma = sigma_exponent(abs(poly.constant_term()), spec.epsilon)
    summary = sample_moduli(poly, spec, count, seed, threads)
    logs = summary.log_moduli()
    log_c = math.log(c)
    base, base_se = _fraction(logs, log_c, "ge")
    rows = []
    for lam in lambdas:
        threshold_log = log_c + sigma * math.log(THEOREM_CONSTANT * lam)
        lhs, lhs_se = _fraction(logs, threshold_log, "ge")
        rhs = base ** lam
        rhs_se = lam * base ** (lam - 1.0) * base_se if base > 0 else 0.0
        margin = 3.0 * math.hypot(lhs_se, rhs_se)
        rows.append(PowerBoundRow(lam, threshold_log, lhs, rhs, margin,
                                  lhs <= rhs + margin))
    return PowerBoundReport(rows, sigma, all(r.passed for r in rows))

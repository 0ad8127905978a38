"""Monte Carlo distribution checks for |F| over real balls.

Estimates the 1/e reference quantile of |F| under the normalized volume of
a real ball and checks the two-sided quantile bounds

    frac{|F| <= (8 lam)^(-sigma) M} <= 1/lam        (small-set bound)
    frac{|F| >= (8 lam)^(+sigma) M} <= exp(-lam)    (tail bound)

plus the superlevel power bound frac{|F| >= (8 lam)^sigma c} <= frac{|F| >= c}^lam,
with sigma = 48 eps^-3 log(1/|F(0)|).  sigma is a few thousand for typical
inputs, so (8 lam)^sigma overflows the linear scale: every threshold
comparison runs on log-moduli.  All pass/fail margins are 3-sigma binomial.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .poly import MultiPoly, eval_many
from .sampling import (STREAM_BALL, STREAM_LEVEL, ball_points, chunk_rng,
                       map_chunks)

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
        if np.linalg.norm(c) + self.radius > 1.0 - self.epsilon + 1e-12:
            raise ValueError("ball must lie inside B(0, 1 - epsilon)")

    @property
    def dim(self) -> int:
        return int(self.center.size)


@dataclass(frozen=True)
class DistributionSummary:
    """Sorted sample of |F| values under the normalized ball volume."""

    sorted_moduli: np.ndarray
    seed: int

    @property
    def count(self) -> int:
        return int(self.sorted_moduli.size)

    def log_moduli(self) -> np.ndarray:
        with np.errstate(divide="ignore"):
            return np.log(self.sorted_moduli)


def sample_ball(spec: BallSpec, count: int, seed: int, threads: int = 1) -> np.ndarray:
    """Uniform points of the ball, deterministic per (seed, chunk)."""
    if count < 1:
        raise ValueError("count must be >= 1")

    def worker(chunk, size):
        rng = chunk_rng(seed, STREAM_BALL, chunk)
        return spec.center + ball_points(rng, size, spec.dim, spec.radius)

    return map_chunks(count, worker, threads)


def sample_moduli(poly: MultiPoly, spec: BallSpec, count: int, seed: int,
                  threads: int = 1) -> DistributionSummary:
    """Sorted |F| sample; sampling and evaluation are chunk-parallel."""
    if poly.dim != spec.dim:
        raise ValueError("polynomial and ball dimensions differ")

    def worker(chunk, size):
        rng = chunk_rng(seed, STREAM_BALL, chunk)
        pts = spec.center + ball_points(rng, size, spec.dim, spec.radius)
        return np.abs(eval_many(poly, pts))

    moduli = map_chunks(count, worker, threads)
    moduli.sort()
    return DistributionSummary(moduli, seed)


def _require_usable(poly: MultiPoly):
    if poly.is_constant():
        raise ValueError("polynomial is constant; quantile checks are degenerate")
    if poly.sup_cert is None or poly.sup_cert > 1.0 + 1e-12:
        raise ValueError("polynomial must carry a sup certificate <= 1")


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


@dataclass(frozen=True)
class QuantileEstimate:
    value: float
    std_err: float
    level: float
    count: int
    seed: int


def modulus_quantile(poly: MultiPoly, spec: BallSpec, count: int, seed: int,
                     threads: int = 1) -> QuantileEstimate:
    """The reference quantile M: frac{|F| >= M} = 1/e (QUANTILE_LEVEL)."""
    _require_usable(poly)
    summary = sample_moduli(poly, spec, count, seed, threads)
    q, se = quantile_with_se(summary, QUANTILE_LEVEL)
    return QuantileEstimate(q, se, QUANTILE_LEVEL, count, seed)


def level_fraction(poly: MultiPoly, spec: BallSpec, threshold: float, side: str,
                   count: int, seed: int, threads: int = 1) -> tuple[float, float]:
    """Monte Carlo frac{|F| <= t} or frac{|F| >= t} with binomial std error."""
    if threshold < 0:
        raise ValueError("threshold must be nonnegative")
    if side not in ("le", "ge"):
        raise ValueError("side must be 'le' or 'ge'")
    if poly.dim != spec.dim:
        raise ValueError("polynomial and ball dimensions differ")

    def worker(chunk, size):
        rng = chunk_rng(seed, STREAM_LEVEL, chunk)
        pts = spec.center + ball_points(rng, size, spec.dim, spec.radius)
        vals = np.abs(eval_many(poly, pts))
        hits = vals <= threshold if side == "le" else vals >= threshold
        return np.array([np.count_nonzero(hits)], dtype=np.int64)

    hits = int(np.sum(map_chunks(count, worker, threads)))
    p = hits / count
    return p, math.sqrt(p * (1.0 - p) / count)


def sigma_exponent(poly: MultiPoly, epsilon: float) -> float:
    """48 * eps^-3 * log(1/|F(0)|); rejects |F(0)| in {0} or [1, inf)."""
    f0 = abs(poly.constant_term())
    if f0 == 0.0:
        raise ValueError("F(0) = 0: the exponent is undefined")
    if f0 >= 1.0:
        raise ValueError("|F(0)| >= 1 forces F constant under the sup hypothesis")
    return 48.0 * epsilon ** -3 * math.log(1.0 / f0)


def _fraction_le_log(sorted_logs: np.ndarray, log_t: float) -> float:
    return float(np.searchsorted(sorted_logs, log_t, side="right")) / sorted_logs.size


def _fraction_ge_log(sorted_logs: np.ndarray, log_t: float) -> float:
    n = sorted_logs.size
    return float(n - np.searchsorted(sorted_logs, log_t, side="left")) / n


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
    count: int
    seed: int
    all_pass: bool
    extras: dict = field(default_factory=dict)


def check_quantile_bounds(poly: MultiPoly, spec: BallSpec, lambdas,
                          count: int, seed: int,
                          threads: int = 1) -> QuantileBoundsReport:
    """Small-set and tail bounds at each lambda, from one shared sample."""
    _require_usable(poly)
    sigma = sigma_exponent(poly, spec.epsilon)
    summary = sample_moduli(poly, spec, count, seed, threads)
    logs = summary.log_moduli()
    m, m_se = quantile_with_se(summary, QUANTILE_LEVEL)
    if m <= 0.0:
        raise ValueError("reference quantile vanished; F is zero on the ball?")
    log_m = math.log(m)
    rows = []
    for lam in lambdas:
        lam = float(lam)
        if lam < 1.0:
            raise ValueError("every lambda must be >= 1")
        shift = sigma * math.log(THEOREM_CONSTANT * lam)
        small_t = log_m - shift
        tail_t = log_m + shift
        small_frac = _fraction_le_log(logs, small_t)
        tail_frac = _fraction_ge_log(logs, tail_t)
        small_se = math.sqrt(small_frac * (1.0 - small_frac) / count)
        tail_se = math.sqrt(tail_frac * (1.0 - tail_frac) / count)
        small_bound = 1.0 / lam
        tail_bound = math.exp(-lam)
        ok = (small_frac <= small_bound + 3.0 * small_se
              and tail_frac <= tail_bound + 3.0 * tail_se)
        rows.append(BoundRow(lam, sigma, m, small_t, small_frac, small_bound,
                             small_se, tail_t, tail_frac, tail_bound, tail_se, ok))
    return QuantileBoundsReport(
        rows=rows, sigma=sigma, quantile=m, quantile_std_err=m_se,
        count=count, seed=seed, all_pass=all(r.passed for r in rows),
        extras={"epsilon": spec.epsilon, "dim": spec.dim})


@dataclass(frozen=True)
class PowerBoundRow:
    lam: float
    lhs: float
    rhs: float
    margin: float
    passed: bool


@dataclass(frozen=True)
class PowerBoundReport:
    rows: list[PowerBoundRow]
    sigma: float
    c: float
    count: int
    seed: int
    all_pass: bool


def check_superlevel_power_bound(poly: MultiPoly, spec: BallSpec, c: float,
                                 lambdas, count: int, seed: int,
                                 threads: int = 1) -> PowerBoundReport:
    """frac{|F| >= (8 lam)^sigma c} <= frac{|F| >= c}^lam, shared sample."""
    _require_usable(poly)
    if c <= 0:
        raise ValueError("c must be positive")
    sigma = sigma_exponent(poly, spec.epsilon)
    summary = sample_moduli(poly, spec, count, seed, threads)
    logs = summary.log_moduli()
    log_c = math.log(c)
    base = _fraction_ge_log(logs, log_c)
    base_se = math.sqrt(base * (1.0 - base) / count)
    rows = []
    for lam in lambdas:
        lam = float(lam)
        if lam < 1.0:
            raise ValueError("every lambda must be >= 1")
        lhs = _fraction_ge_log(logs, log_c + sigma * math.log(THEOREM_CONSTANT * lam))
        rhs = base ** lam
        lhs_se = math.sqrt(lhs * (1.0 - lhs) / count)
        rhs_se = lam * base ** (lam - 1.0) * base_se if base > 0 else 0.0
        margin = 3.0 * math.hypot(lhs_se, rhs_se)
        rows.append(PowerBoundRow(lam, lhs, rhs, margin, lhs <= rhs + margin))
    return PowerBoundReport(rows, sigma, c, count, seed,
                            all(r.passed for r in rows))

"""Thin-rectangle counterexample experiments.

From a univariate polynomial Q and a small eta, build the two-variable
function F(z1, z2) = (1/2) * (2 eta Q(z1) + z2 + 1/2) and study the law of
|F| on thin rectangles V_delta = [0, 1/4] x [-1/2, -1/2 + delta].  As delta
shrinks this law approaches that of |eta Q(t)| on [0, 1/4]; the required
Remez-type exponent sigma_eff extracted from the rectangle law can grow
with the degree of Q while the ball-theorem exponent stays bounded, which
is the failure mechanism for thin bodies.

Admissibility: eta * (certified sup of |Q| over the complex unit disk)
must stay below 1/8, so that the full two-variable function is bounded by
one on the complex ball.  The certificate is the smaller of the coefficient
l1 norm and a dense boundary maximum padded with a derivative correction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import chebyshev as npc
from numpy.polynomial import polynomial as npp

from .poly import MultiPoly, certified, from_terms
from .sampling import (STREAM_LIMIT, STREAM_RECT, chunk_rng, map_chunks)
from .volume import (QUANTILE_LEVEL, DistributionSummary, quantile_with_se,
                     sigma_exponent)

ETA_MARGIN = 1e-9
MIN_LAMBDA = 1.1
BOUNDARY_SAMPLES = 10_000
RECT_X_MAX = 0.25
ORACLE_GRID = 1 << 17
REFINE_ITERS = 40
# the ball theorem's epsilon at which growth_experiment reports its exponent
THEOREM_EPSILON = 0.25


@dataclass(frozen=True)
class RectangleSpec:
    """V_delta = {0 <= x1 <= 1/4, 0 <= x2 + 1/2 <= delta}, inside B(0, 3/4)."""

    delta: float

    def __post_init__(self):
        if not (0.0 < self.delta <= 0.5):
            raise ValueError("delta must lie in (0, 1/2]")

    @property
    def low(self) -> np.ndarray:
        return np.array([0.0, -0.5])

    @property
    def high(self) -> np.ndarray:
        return np.array([RECT_X_MAX, -0.5 + self.delta])


def disk_sup_upper_bound(q_coeffs) -> float:
    """Certified upper bound for max |Q| over the closed unit disk.

    min(coefficient l1 norm, dense boundary max + Lipschitz correction from
    the derivative's l1 norm); both branches are rigorous upper bounds.
    """
    q = np.asarray(q_coeffs, dtype=np.complex128).reshape(-1)
    l1 = float(np.sum(np.abs(q)))
    if q.size <= 1:
        return l1
    theta = 2.0 * np.pi * np.arange(BOUNDARY_SAMPLES) / BOUNDARY_SAMPLES
    boundary = float(np.max(np.abs(npp.polyval(np.exp(1j * theta), q))))
    deriv_l1 = float(np.sum(np.arange(q.size) * np.abs(q)))
    correction = (np.pi / BOUNDARY_SAMPLES) * deriv_l1
    return min(l1, boundary + correction)


@dataclass(frozen=True)
class ThinRectFunction:
    """The two-variable test function together with its certificates."""

    q_coeffs: np.ndarray
    eta: float
    poly: MultiPoly
    f0_abs: float
    f0_lower_bound: float


def build_function(q_coeffs, eta: float) -> ThinRectFunction:
    """Construct F = eta*Q(z1) + z2/2 + 1/4 and certify its hypotheses."""
    if eta <= 0:
        raise ValueError("eta must be positive")
    q = np.asarray(q_coeffs, dtype=np.complex128).reshape(-1)
    if q.size == 0:
        q = np.zeros(1, dtype=np.complex128)
    q_sup = disk_sup_upper_bound(q)
    if eta * q_sup >= 0.125 - ETA_MARGIN:
        raise ValueError(
            f"eta too large: eta * sup|Q| = {eta * q_sup:.6g} must stay below 1/8")
    terms = {(0, 1): 0.5 + 0.0j, (0, 0): 0.25 + eta * q[0]}
    for k in range(1, q.size):
        if q[k] != 0:
            terms[(k, 0)] = eta * q[k]
    poly = certified(from_terms(2, terms))
    f0 = abs(0.25 + eta * q[0])
    return ThinRectFunction(
        q_coeffs=q, eta=float(eta), poly=poly, f0_abs=float(f0),
        f0_lower_bound=float(0.5 * (0.5 - 2.0 * eta * q_sup)))


def eval_on_rectangle(f: ThinRectFunction, x1: np.ndarray,
                      x2: np.ndarray) -> np.ndarray:
    """|F| at real rectangle points, via the 1-D structure (fast path)."""
    qv = npp.polyval(x1, f.q_coeffs)
    return np.abs(f.eta * qv + 0.5 * x2 + 0.25)


def rectangle_moduli(f: ThinRectFunction, delta: float, count: int, seed: int,
                     threads: int = 1) -> DistributionSummary:
    """Sorted |F| sample under the normalized area of V_delta."""
    spec = RectangleSpec(delta)
    lo, hi = spec.low, spec.high

    def worker(chunk, size):
        rng = chunk_rng(seed, STREAM_RECT, chunk)
        u = rng.random((size, 2))
        pts = lo + u * (hi - lo)
        return eval_on_rectangle(f, pts[:, 0], pts[:, 1])

    vals = map_chunks(count, worker, threads)
    vals.sort()
    return DistributionSummary(vals, seed)


def limit_moduli(f: ThinRectFunction, count: int, seed: int,
                 threads: int = 1) -> DistributionSummary:
    """Sorted sample of |eta Q(t)|, t uniform on [0, 1/4] (the thin limit)."""

    def worker(chunk, size):
        rng = chunk_rng(seed, STREAM_LIMIT, chunk)
        t = RECT_X_MAX * rng.random(size)
        return np.abs(f.eta * npp.polyval(t, f.q_coeffs))

    vals = map_chunks(count, worker, threads)
    vals.sort()
    return DistributionSummary(vals, seed)


@dataclass(frozen=True)
class RequiredExponent:
    sigma_eff: float
    std_err: float
    quantile: float
    lam: float


def required_exponent_from_summary(summary: DistributionSummary,
                                   lam: float) -> RequiredExponent:
    """Smallest exponent s with frac{|F| <= (8 lam)^-s M} <= 1/lam.

    M is the 1/e reference quantile; the low threshold t* is the largest
    value whose sublevel fraction stays at or below 1/lam (the 1/lam
    quantile); then s = log(M/t*) / log(8 lam).
    """
    if lam < MIN_LAMBDA:
        raise ValueError(f"lambda must be >= {MIN_LAMBDA}")
    n = summary.count
    vals = summary.sorted_moduli
    m, m_se = quantile_with_se(summary, QUANTILE_LEVEL)
    k = max(int(math.floor(n / lam)), 1)
    t_star = float(vals[k - 1])
    _, t_se = quantile_with_se(summary, 1.0 / lam)
    if t_star <= 0.0:
        raise ValueError("low quantile is zero; increase the sample size")
    denom = math.log(8.0 * lam)
    sigma_eff = math.log(m / t_star) / denom
    rel = math.hypot(m_se / m if m > 0 else 0.0,
                     t_se / t_star if t_star > 0 else 0.0)
    return RequiredExponent(sigma_eff, rel / denom, m, lam)


# ----------------------------------------------------------------------
# Quadrature oracle for the limit law (independent of the sampler).

def _grid_moduli(q: np.ndarray, eta: float):
    """The oracle grid linspace(0, 1/4, ORACLE_GRID + 1) and |eta Q| on it."""
    ts = np.linspace(0.0, RECT_X_MAX, ORACLE_GRID + 1)
    return ts, np.abs(eta * npp.polyval(ts, q))


def _sublevel_measure(q: np.ndarray, eta: float, s: float, ts: np.ndarray,
                      moduli: np.ndarray) -> float:
    """sublevel_measure with the grid moduli |eta Q(ts)| already computed."""
    below = moduli <= s
    flips = np.nonzero(below[:-1] != below[1:])[0]
    if flips.size:
        lo = ts[flips].copy()
        hi = ts[flips + 1].copy()
        for _ in range(REFINE_ITERS):
            mid = 0.5 * (lo + hi)
            mid_below = np.abs(eta * npp.polyval(mid, q)) <= s
            # move the endpoint whose state matches the midpoint
            same_as_left = mid_below == below[flips]
            lo = np.where(same_as_left, mid, lo)
            hi = np.where(same_as_left, hi, mid)
        crossings = 0.5 * (lo + hi)
    else:
        crossings = np.empty(0)
    # segments between consecutive crossings alternate in/out, starting
    # from the state at t = 0
    edges = np.concatenate([[0.0], crossings, [RECT_X_MAX]])
    lengths = np.diff(edges)
    start = 0 if bool(below[0]) else 1
    return float(np.sum(lengths[start::2]))


def sublevel_measure(q_coeffs, eta: float, s: float) -> float:
    """measure{t in [0, 1/4] : |eta Q(t)| <= s}, by bracketing the crossings
    of |eta Q| - s on the ORACLE_GRID + 1-point grid and bisecting all of
    them in parallel, REFINE_ITERS steps each.

    Each call evaluates |eta Q| on the whole grid; `oracle_quantile`
    evaluates it once and reuses it for every level it tries."""
    if s < 0:
        raise ValueError("s must be nonnegative")
    q = np.asarray(q_coeffs, dtype=np.complex128).reshape(-1)
    ts, moduli = _grid_moduli(q, eta)
    return _sublevel_measure(q, eta, s, ts, moduli)


def oracle_quantile(q_coeffs, eta: float, level: float) -> float:
    """s with measure{|eta Q| <= s}/(1/4) = level, by bisection in s.

    Each bisection step measures the sublevel set exactly as
    `sublevel_measure` does, but |eta Q| on the ORACLE_GRID + 1 grid points
    is computed once per call."""
    if not (0.0 < level < 1.0):
        raise ValueError("level must lie in (0, 1)")
    q = np.asarray(q_coeffs, dtype=np.complex128).reshape(-1)
    ts = np.linspace(0.0, RECT_X_MAX, 1 << 12)
    hi = float(np.max(np.abs(eta * npp.polyval(ts, q)))) * (1.0 + 1e-9) + 1e-300
    lo = 0.0
    grid_ts, moduli = _grid_moduli(q, eta)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        measure = _sublevel_measure(q, eta, mid, grid_ts, moduli)
        if measure / RECT_X_MAX < level:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-13 * hi:
            break
    return 0.5 * (lo + hi)


def oracle_required_exponent(f: ThinRectFunction, lam: float) -> float:
    """sigma_eff of the limit law from quadrature quantiles."""
    if lam < MIN_LAMBDA:
        raise ValueError(f"lambda must be >= {MIN_LAMBDA}")
    m = oracle_quantile(f.q_coeffs, f.eta, QUANTILE_LEVEL)
    t_star = oracle_quantile(f.q_coeffs, f.eta, 1.0 / lam)
    if t_star <= 0.0:
        raise ValueError("oracle low quantile is zero")
    return math.log(m / t_star) / math.log(8.0 * lam)


# ----------------------------------------------------------------------
# Canonical families.

def chebyshev_on_quarter(degree: int) -> np.ndarray:
    """Chebyshev polynomial of the given degree with its oscillation interval
    mapped onto [0, 1/4] (power-basis coefficients in the disk variable)."""
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    cheb = np.zeros(degree + 1)
    cheb[degree] = 1.0
    power = npc.cheb2poly(cheb)
    comp = np.array([power[-1]], dtype=float)
    for c in power[-2::-1]:
        comp = npp.polyadd(npp.polymul(comp, np.array([-1.0, 8.0])), np.array([c]))
    return np.asarray(comp, dtype=float)


def disk_normalized(q_coeffs) -> np.ndarray:
    """Scale Q so its certified disk sup equals 1 (admissible with eta < 1/8)."""
    q = np.asarray(q_coeffs, dtype=np.complex128).reshape(-1)
    sup = disk_sup_upper_bound(q)
    if sup == 0.0:
        raise ValueError("cannot normalize the zero polynomial")
    return q / sup


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
    delta: float
    count: int
    seed: int
    strictly_increasing: bool
    theorem_sigma_ratio: float
    passed: bool
    extras: dict = field(default_factory=dict)


def growth_experiment(family, eta: float, delta: float, lambdas, count: int,
                      seed: int, threads: int = 1) -> GrowthReport:
    """Required-exponent growth across a polynomial family.

    family: iterable of coefficient arrays, each scaled by the same eta.
    Passing requires sigma_eff strictly increasing in degree at every lambda
    while the ball-theorem exponent varies by less than 2x across the
    family.  The ball-theorem exponent is taken at epsilon = THEOREM_EPSILON.
    """
    family = [np.asarray(q, dtype=np.complex128).reshape(-1) for q in family]
    if not family:
        raise ValueError("family must be nonempty")
    lambdas = [float(l) for l in lambdas]
    rows: list[GrowthRow] = []
    sigma_theorems = []
    per_lam: dict[float, list[float]] = {l: [] for l in lambdas}
    for idx, q in enumerate(family):
        f = build_function(q, eta)
        sigma_theorem = sigma_exponent(f.poly, THEOREM_EPSILON)
        sigma_theorems.append(sigma_theorem)
        summary = rectangle_moduli(f, delta, count, seed + idx, threads)
        degree = int(np.nonzero(q)[0][-1]) if np.any(q) else 0
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
        rows=rows, delta=delta, count=count, seed=seed,
        strictly_increasing=increasing, theorem_sigma_ratio=float(ratio),
        passed=bool(increasing and ratio < 2.0),
        extras={"lambdas": lambdas, "epsilon": THEOREM_EPSILON})

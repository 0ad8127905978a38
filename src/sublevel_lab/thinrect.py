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
        q_coeffs=q, eta=float(eta), poly=poly, f0_abs=float(f0))


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


def _crossing_cells(s: float, ts: np.ndarray, moduli: np.ndarray):
    """The grid cells where |eta Q| - s changes sign: whether each cell's
    left grid point lies in the sublevel set, and the cells' ends."""
    below = moduli <= s
    flips = np.nonzero(below[:-1] != below[1:])[0]
    return below[flips], ts[flips], ts[flips + 1]


def _bisect_cells(q: np.ndarray, eta: float, s: float, left_below: np.ndarray,
                  lo: np.ndarray, hi: np.ndarray):
    """One bisection step on every crossing cell at once."""
    mid = 0.5 * (lo + hi)
    mid_below = np.abs(eta * npp.polyval(mid, q)) <= s
    # move the endpoint whose state matches the midpoint
    same_as_left = mid_below == left_below
    return np.where(same_as_left, mid, lo), np.where(same_as_left, hi, mid)


def _measure(crossings: np.ndarray, start_below: bool) -> float:
    """Total length of the segments of [0, 1/4] between consecutive
    crossings that lie in the sublevel set; they alternate in/out, starting
    from the state at t = 0."""
    edges = np.concatenate([[0.0], crossings, [RECT_X_MAX]])
    lengths = np.diff(edges)
    return float(np.sum(lengths[(0 if start_below else 1)::2]))


def _sublevel_measure(q: np.ndarray, eta: float, s: float, ts: np.ndarray,
                      moduli: np.ndarray) -> float:
    """sublevel_measure with the grid moduli |eta Q(ts)| already computed:
    every crossing cell is bisected REFINE_ITERS times and each crossing is
    taken at the midpoint of its last bracket."""
    left_below, lo, hi = _crossing_cells(s, ts, moduli)
    if lo.size:
        for _ in range(REFINE_ITERS):
            lo, hi = _bisect_cells(q, eta, s, left_below, lo, hi)
    return _measure(0.5 * (lo + hi), bool(moduli[0] <= s))


def _measure_below(q: np.ndarray, eta: float, s: float, ts: np.ndarray,
                   moduli: np.ndarray, level: float) -> bool:
    """_sublevel_measure(q, eta, s, ts, moduli) / RECT_X_MAX < level,
    refining the crossings only until that comparison is decided.

    The measure is linear in the crossings, each with coefficient +1 where
    its cell's left grid point is in the sublevel set and -1 elsewhere.  So
    with every crossing at the outer end of its current bracket (`hi` where
    the left point is in, `lo` elsewhere) the measure is largest, and at the
    inner end it is smallest.  Each later bracket, the REFINE_ITERS-step
    midpoints included, lies inside the current one, so the refined measure
    lies between the two.  Each computed measure is a sum of at most F + 1
    nonnegative rounded differences, F crossing cells, with total at most
    RECT_X_MAX, so it is within (F + 1) u RECT_X_MAX of the exact measure of
    its crossings (u = eps / 2, up to a factor 1 + (F + 1) u).  The margin
    2 (F + 2) eps RECT_X_MAX is at least twice the rounding of two such
    sums and of the margin's own addition, so a decision made with it is
    the one the full refinement makes, bit for bit.  If no bracket clears
    the target by the margin, the full REFINE_ITERS-step measure decides."""
    left_below, lo, hi = _crossing_cells(s, ts, moduli)
    start_below = bool(moduli[0] <= s)
    margin = 2.0 * (lo.size + 2) * np.finfo(float).eps * RECT_X_MAX
    for _ in range(REFINE_ITERS):
        outer = _measure(np.where(left_below, hi, lo), start_below)
        if (outer + margin) / RECT_X_MAX < level:
            return True
        inner = _measure(np.where(left_below, lo, hi), start_below)
        if (inner - margin) / RECT_X_MAX >= level:
            return False
        lo, hi = _bisect_cells(q, eta, s, left_below, lo, hi)
    return _measure(0.5 * (lo + hi), start_below) / RECT_X_MAX < level


def sublevel_measure(q_coeffs, eta: float, s: float) -> float:
    """measure{t in [0, 1/4] : |eta Q(t)| <= s}, by bracketing the crossings
    of |eta Q| - s on the ORACLE_GRID + 1-point grid and bisecting all of
    them in parallel, REFINE_ITERS steps each.

    Each call evaluates |eta Q| on the whole grid and refines every crossing
    in full.  `oracle_quantile` evaluates the grid once per polynomial and
    needs only the side of its target that this measure falls on, so it
    stops refining as soon as the side is decided and gets the same answer
    as this function would give."""
    if s < 0:
        raise ValueError("s must be nonnegative")
    q = np.asarray(q_coeffs, dtype=np.complex128).reshape(-1)
    ts, moduli = _grid_moduli(q, eta)
    return _sublevel_measure(q, eta, s, ts, moduli)


def _oracle_grid(q: np.ndarray, eta: float):
    """What every quantile of one polynomial shares: an upper bound for
    |eta Q| on [0, 1/4] from 4096 points, the oracle grid and |eta Q| on it."""
    ts = np.linspace(0.0, RECT_X_MAX, 1 << 12)
    hi = float(np.max(np.abs(eta * npp.polyval(ts, q)))) * (1.0 + 1e-9) + 1e-300
    return (hi, *_grid_moduli(q, eta))


def _oracle_quantile(q: np.ndarray, eta: float, level: float, grid) -> float:
    """oracle_quantile on the grid that `_oracle_grid` built for q."""
    hi, ts, moduli = grid
    lo = 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if _measure_below(q, eta, mid, ts, moduli, level):
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-13 * hi:
            break
    return 0.5 * (lo + hi)


def oracle_quantile(q_coeffs, eta: float, level: float) -> float:
    """s with measure{|eta Q| <= s}/(1/4) = level, by bisection in s.

    Each bisection step asks only whether `sublevel_measure(q, eta, s)`
    falls below level/4.  |eta Q| on the ORACLE_GRID + 1 grid points is
    computed once per call, and the crossings are refined only until a
    bracket on the measure, widened by a bound on its rounding, lies clear
    of the target (see `_measure_below`); an undecided step refines in full.
    Every step thus takes the branch that the full refinement takes, and
    the result is the one a bisection over `sublevel_measure` returns."""
    if not (0.0 < level < 1.0):
        raise ValueError("level must lie in (0, 1)")
    q = np.asarray(q_coeffs, dtype=np.complex128).reshape(-1)
    return _oracle_quantile(q, eta, level, _oracle_grid(q, eta))


def oracle_required_exponent(f: ThinRectFunction, lam: float) -> float:
    """sigma_eff of the limit law from quadrature quantiles, both taken on
    one oracle grid."""
    if lam < MIN_LAMBDA:
        raise ValueError(f"lambda must be >= {MIN_LAMBDA}")
    q = np.asarray(f.q_coeffs, dtype=np.complex128).reshape(-1)
    grid = _oracle_grid(q, f.eta)
    m = _oracle_quantile(q, f.eta, QUANTILE_LEVEL, grid)
    t_star = _oracle_quantile(q, f.eta, 1.0 / lam, grid)
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

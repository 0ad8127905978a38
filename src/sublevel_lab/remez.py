"""Remez-type estimates for bounded analytic functions on the unit disk.

A disk function is a unimodular constant times a finite Blaschke product
times an atomic outer factor, so |f| <= 1 holds by construction and every
quantity below (values at points, minima over [-a, a], the Remez exponent)
is computable in closed form or by dense-grid search with local refinement.

All inequality checks compare log-moduli: the Remez bound (C|I|/|E|)^sigma
overflows the linear scale long before the mathematics becomes interesting.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import polynomial as npp
from scipy.optimize import minimize_scalar

from .intervals import IntervalSet

REL_TOL = 1e-9
ZERO_RADIUS_TOL = 1e-9
CIRCLE_TOL = 1e-12
MODULUS_SLACK = 1e-12
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
        if np.any(np.abs(zeros) > 1.0 - ZERO_RADIUS_TOL):
            raise ValueError("zeros must satisfy |zero| <= 1 - 1e-9")
        if locs.size != ws.size:
            raise ValueError("atom_locs and atom_weights must match")
        if np.any(np.abs(np.abs(locs) - 1.0) > CIRCLE_TOL):
            raise ValueError("atoms must sit on the unit circle")
        if np.any(ws <= 0.0):
            raise ValueError("atom weights must be positive")
        if abs(abs(complex(self.const)) - 1.0) > CIRCLE_TOL:
            raise ValueError("const must be unimodular")


def blaschke_log_abs(zeros: np.ndarray, x) -> np.ndarray:
    """log |product (x - z)/(1 - x conj(z))| for real or complex x (vectorized)."""
    x = np.asarray(x, dtype=np.complex128)
    if zeros.size == 0:
        return np.zeros(x.shape, dtype=float)
    xs = x[..., None]
    num = np.abs(xs - zeros)
    den = np.abs(1.0 - xs * np.conj(zeros))
    with np.errstate(divide="ignore"):
        return np.sum(np.log(num) - np.log(den), axis=-1)


def outer_log_abs(locs: np.ndarray, weights: np.ndarray, z) -> np.ndarray:
    """log |outer factor| = -sum w * Re((loc + z)/(loc - z)); real z allowed."""
    z = np.asarray(z, dtype=np.complex128)
    if locs.size == 0:
        return np.zeros(z.shape, dtype=float)
    zs = z[..., None]
    kernel = np.real((locs + zs) / (locs - zs))
    return -np.sum(weights * kernel, axis=-1)


def log_abs_f(f: DiskFunction, x) -> np.ndarray:
    """log |f| at real or complex points strictly inside the disk."""
    x = np.asarray(x, dtype=np.complex128)
    if np.any(np.abs(x) >= 1.0):
        raise ValueError("points must lie in the open unit disk")
    return blaschke_log_abs(f.zeros, x) + outer_log_abs(f.atom_locs, f.atom_weights, x)


def eval_disk_function(f: DiskFunction, z: complex) -> complex:
    """Value of f at one point of the open disk (modulus <= 1 + 1e-12)."""
    z = complex(z)
    if abs(z) >= 1.0:
        raise ValueError("point must lie in the open unit disk")
    value = complex(f.const)
    for zero in f.zeros:
        value *= (z - zero) / (1.0 - z * np.conj(zero))
    if f.atom_locs.size:
        value *= np.exp(-np.sum(f.atom_weights * (f.atom_locs + z) / (f.atom_locs - z)))
    return complex(value)


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


def _log_leq(lhs_log: float, rhs_log: float, tol: float = REL_TOL) -> bool:
    """lhs <= rhs with relative tolerance tol, compared on the log scale."""
    return lhs_log <= rhs_log + tol * max(1.0, abs(lhs_log), abs(rhs_log))


@dataclass(frozen=True)
class FactorBoundsReport:
    a: float
    outer_min: float
    outer_min_bound: float
    b1_min: float
    b1_min_bound: float
    n_b2: int
    n_b2_bound: float
    r_ratio: float
    r_ratio_bound: float
    all_pass: bool
    extras: dict = field(default_factory=dict)


def factor_bounds(f: DiskFunction, a: float, grid: int = 10_000) -> FactorBoundsReport:
    """Verify the four factor estimates on a uniform grid of [-a, a]:

    outer factor:  min |U| >= |U(a)U(-a)|^(1/(1-a^2))
    tame factor:   min |B1| >= |B1(a)B1(-a)|^(2/(1-a^2))
    count:         #B2 <= 3/(1-a^2) * log 1/|B2(a)B2(-a)|
    denominators:  max |reciprocal factor| <= (2/(1-a))^N * min of it
    """
    if not (0.0 < a < 1.0):
        raise ValueError("a must lie in (0, 1)")
    xs = np.linspace(-a, a, grid)
    fac = split_zeros(f.zeros, a)

    log_u = outer_log_abs(f.atom_locs, f.atom_weights, xs)
    log_u_a = float(outer_log_abs(f.atom_locs, f.atom_weights, np.array([a]))[0])
    log_u_ma = float(outer_log_abs(f.atom_locs, f.atom_weights, np.array([-a]))[0])
    min_log_u = float(np.min(log_u))
    bound_log_u = (log_u_a + log_u_ma) / (1.0 - a * a)
    ok_u = _log_leq(bound_log_u, min_log_u)

    log_b1 = blaschke_log_abs(fac.b1_zeros, xs)
    log_b1_a = float(blaschke_log_abs(fac.b1_zeros, np.array([a]))[0])
    log_b1_ma = float(blaschke_log_abs(fac.b1_zeros, np.array([-a]))[0])
    min_log_b1 = float(np.min(log_b1))
    bound_log_b1 = 2.0 * (log_b1_a + log_b1_ma) / (1.0 - a * a)
    ok_b1 = _log_leq(bound_log_b1, min_log_b1)

    log_b2_a = float(blaschke_log_abs(fac.b2_zeros, np.array([a]))[0])
    log_b2_ma = float(blaschke_log_abs(fac.b2_zeros, np.array([-a]))[0])
    n = fac.n_b2
    n_bound = 3.0 / (1.0 - a * a) * (-(log_b2_a + log_b2_ma))
    ok_n = n <= n_bound + REL_TOL * max(1.0, abs(n_bound))

    if n:
        log_r = -np.sum(np.log(np.abs(1.0 - xs[:, None] * np.conj(fac.b2_zeros))), axis=1)
        r_spread = float(np.max(log_r) - np.min(log_r))
    else:
        r_spread = 0.0
    r_bound = n * np.log(2.0 / (1.0 - a))
    ok_r = _log_leq(r_spread, r_bound)

    return FactorBoundsReport(
        a=a,
        outer_min=float(np.exp(min_log_u)),
        outer_min_bound=float(np.exp(bound_log_u)),
        b1_min=float(np.exp(min_log_b1)),
        b1_min_bound=float(np.exp(bound_log_b1)),
        n_b2=n,
        n_b2_bound=float(n_bound),
        r_ratio=float(np.exp(r_spread)),
        r_ratio_bound=float(np.exp(min(r_bound, 700.0))),
        all_pass=bool(ok_u and ok_b1 and ok_n and ok_r),
        extras={
            "outer_pass": ok_u, "b1_pass": ok_b1, "count_pass": ok_n,
            "r_pass": ok_r, "grid": grid,
            "log_r_spread": r_spread, "log_r_bound": float(r_bound),
        })


def _refine_max(fun, lo: float, hi: float, n_grid: int) -> float:
    """Max of a scalar vectorized function on [lo, hi]: dense grid plus a
    bounded local search around the best grid point."""
    if hi < lo:
        raise ValueError("empty interval")
    if hi == lo:
        return float(fun(np.array([lo]))[0])
    xs = np.linspace(lo, hi, n_grid)
    vals = fun(xs)
    i = int(np.argmax(vals))
    best = float(vals[i])
    left = xs[max(i - 1, 0)]
    right = xs[min(i + 1, n_grid - 1)]
    if right > left:
        res = minimize_scalar(lambda t: -float(fun(np.array([t]))[0]),
                              bounds=(left, right), method="bounded",
                              options={"xatol": 1e-13})
        best = max(best, float(-res.fun))
    return best


def max_log_abs_on_interval(f: DiskFunction, lo: float, hi: float,
                            n_grid: int = 100_000) -> float:
    return _refine_max(lambda x: log_abs_f(f, x), lo, hi, n_grid)


def sup_log_abs_on_set(f: DiskFunction, e: IntervalSet,
                       per_component: int = 1000) -> float:
    """sup log|f| over an interval union, component by component.

    Under-estimation is conservative here: the Remez inequality puts this on
    the large side, so a too-small value can only make the check harder.
    """
    if e.n_components == 0 or e.total_length == 0.0:
        raise ValueError("set E must have positive length")
    best = -np.inf
    for lo, hi in e.pairs():
        best = max(best, _refine_max(lambda x: log_abs_f(f, x), lo, hi,
                                     per_component))
    return best


def remez_exponent(f: DiskFunction, a: float) -> float:
    """3/(1-a) * log 1/(|f(a)||f(-a)|), the exponent the factorization proof
    delivers.  Under the symmetric hypothesis |f(a)| = |f(-a)| this is twice
    the single-value form, which symmetric_exponent reports."""
    if not (0.0 < a < 1.0):
        raise ValueError("a must lie in (0, 1)")
    log_fa = float(log_abs_f(f, np.array([a]))[0])
    log_fma = float(log_abs_f(f, np.array([-a]))[0])
    if not np.isfinite(log_fa) or not np.isfinite(log_fma):
        raise ValueError("f vanishes at an endpoint +-a")
    return 3.0 / (1.0 - a) * (-(log_fa + log_fma))


def symmetric_exponent(f: DiskFunction, a: float) -> float:
    """3/(1-a) * log 1/|f(a)|, the exponent as stated for symmetric values."""
    log_fa = float(log_abs_f(f, np.array([a]))[0])
    if not np.isfinite(log_fa):
        raise ValueError("f vanishes at a")
    return 3.0 / (1.0 - a) * (-log_fa)


@dataclass(frozen=True)
class RemezReport:
    max_i: float
    sup_e: float
    sigma: float
    sigma_symmetric: float
    log_max_i: float
    log_bound: float
    passed: bool
    extras: dict = field(default_factory=dict)


def remez_check(f: DiskFunction, a: float, interval: tuple[float, float],
                e: IntervalSet, n_grid: int = 100_000,
                per_component: int = 1000) -> RemezReport:
    """Verify max_I |f| <= (8 |I|/|E|)^sigma * sup_E |f| in log space."""
    lo, hi = float(interval[0]), float(interval[1])
    if hi <= lo:
        raise ValueError("interval I must have positive length")
    if lo < -a - 1e-15 or hi > a + 1e-15:
        raise ValueError("interval I must lie in [-a, a]")
    if e.n_components == 0 or e.total_length == 0.0:
        raise ValueError("set E must have positive length")
    if not e.is_subset_of(IntervalSet.from_pairs([(lo, hi)]), tol=1e-12):
        raise ValueError("E must be a subset of I")
    sigma = remez_exponent(f, a)
    log_max_i = max_log_abs_on_interval(f, lo, hi, n_grid)
    log_sup_e = sup_log_abs_on_set(f, e, per_component)
    ratio = REMEZ_CONSTANT * (hi - lo) / e.total_length
    log_bound = sigma * np.log(ratio) + log_sup_e
    passed = _log_leq(log_max_i, log_bound)
    return RemezReport(
        max_i=float(np.exp(log_max_i)),
        sup_e=float(np.exp(log_sup_e)),
        sigma=sigma,
        sigma_symmetric=symmetric_exponent(f, a),
        log_max_i=float(log_max_i),
        log_bound=float(log_bound),
        passed=passed,
        extras={"a": a, "interval": (lo, hi), "set_length": e.total_length,
                "log_sup_e": float(log_sup_e)})


@dataclass(frozen=True)
class ClassicalRemezReport:
    lhs: float
    rhs: float
    degree: int
    passed: bool
    extras: dict = field(default_factory=dict)


def classical_remez_check(coeffs, interval: tuple[float, float], e: IntervalSet,
                          n_grid: int = 100_000,
                          per_component: int = 1000) -> ClassicalRemezReport:
    """Classical polynomial Remez bound max_I |P| <= (4|I|/|E|)^deg * sup_E |P|."""
    coeffs = np.asarray(coeffs, dtype=np.complex128).reshape(-1)
    nz = np.nonzero(coeffs)[0]
    degree = int(nz[-1]) if nz.size else 0
    lo, hi = float(interval[0]), float(interval[1])
    if hi <= lo:
        raise ValueError("interval I must have positive length")
    if e.n_components == 0 or e.total_length == 0.0:
        raise ValueError("set E must have positive length")
    if not e.is_subset_of(IntervalSet.from_pairs([(lo, hi)]), tol=1e-12):
        raise ValueError("E must be a subset of I")

    def log_abs_p(x):
        with np.errstate(divide="ignore"):
            return np.log(np.abs(npp.polyval(x, coeffs)))

    log_max_i = _refine_max(log_abs_p, lo, hi, n_grid)
    log_sup_e = -np.inf
    for clo, chi in e.pairs():
        log_sup_e = max(log_sup_e, _refine_max(log_abs_p, clo, chi, per_component))
    ratio = CLASSICAL_REMEZ_CONSTANT * (hi - lo) / e.total_length
    log_rhs = degree * np.log(ratio) + log_sup_e
    passed = _log_leq(log_max_i, log_rhs)
    return ClassicalRemezReport(
        lhs=float(np.exp(log_max_i)),
        rhs=float(np.exp(min(log_rhs, 700.0))),
        degree=degree,
        passed=passed,
        extras={"log_lhs": float(log_max_i), "log_rhs": float(log_rhs)})


# Text format: lines "zero re im" / "atom theta weight" / "const theta".

def parse_disk_function(text: str) -> DiskFunction:
    zeros: list[complex] = []
    locs: list[complex] = []
    weights: list[float] = []
    const = 1.0 + 0.0j
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        kind = fields[0]
        if kind == "zero" and len(fields) == 3:
            zeros.append(complex(float(fields[1]), float(fields[2])))
        elif kind == "atom" and len(fields) == 3:
            theta, w = float(fields[1]), float(fields[2])
            locs.append(np.exp(1j * theta))
            weights.append(w)
        elif kind == "const" and len(fields) == 2:
            const = np.exp(1j * float(fields[1]))
        else:
            raise ValueError(f"line {lineno}: unrecognized disk-function record")
    return DiskFunction(np.array(zeros, dtype=np.complex128),
                        np.array(locs, dtype=np.complex128),
                        np.array(weights, dtype=float), const)


def format_disk_function(f: DiskFunction) -> str:
    lines = [f"const {float(np.angle(f.const))!r}"]
    for z in f.zeros:
        lines.append(f"zero {float(z.real)!r} {float(z.imag)!r}")
    for loc, w in zip(f.atom_locs, f.atom_weights):
        lines.append(f"atom {float(np.angle(loc))!r} {float(w)!r}")
    return "\n".join(lines) + "\n"


def random_disk_function(rng: np.random.Generator, max_zeros: int = 30,
                         max_atoms: int = 5) -> DiskFunction:
    """Random disk function: up to `max_zeros` zeros of modulus < 0.995 and
    up to `max_atoms` outer atoms of weight in [1e-3, 0.501)."""
    n_zeros = int(rng.integers(0, max_zeros + 1))
    radii = np.sqrt(rng.random(n_zeros)) * 0.995
    zeros = radii * np.exp(1j * rng.random(n_zeros) * 2.0 * np.pi)
    n_atoms = int(rng.integers(0, max_atoms + 1))
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

"""Localization inequality for log-concave weights (1-D exact, 2-D sampled).

For a weight Phi, a convex compact S, a closed E inside S and lambda > 1,
the checked inequality compares the Phi-mass of the "dense core" of E (the
points whose every containing interval inside S meets E in relative length
at least (lambda-1)/lambda) against the lambda-th power of E's mass ratio.

The 1-D path is the workhorse: piecewise log-linear densities integrate in
closed form and the inner minimization over intervals is solved exactly by
candidate-endpoint enumeration.  The 2-D path is a sampled sanity check
whose approximations are all chosen conservatively (they can only produce
false alarms, never false passes).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .intervals import IntervalSet

PASS_TOL = 1e-9
CORE_PAD = 1e-12
CONCAVITY_TOL = 1e-12


@dataclass(frozen=True)
class PiecewiseLogLinear:
    """Density exp(log_scale + piecewise-linear interpolation of log_values).

    Concavity (non-increasing slopes) is enforced at construction.  The
    log_scale offset never enters mass ratios, so scaling the weight by a
    positive constant through `scaled` leaves every reported ratio
    bit-identical.
    """

    breakpoints: np.ndarray
    log_values: np.ndarray
    log_scale: float = 0.0

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

    def scaled(self, factor: float) -> "PiecewiseLogLinear":
        """Multiply the density by a positive constant."""
        if factor <= 0:
            raise ValueError("factor must be positive")
        return replace(self, log_scale=self.log_scale + float(np.log(factor)))

    def log_value(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        lo, hi = self.support
        if np.any(x < lo) or np.any(x > hi):
            raise ValueError("point outside the support")
        return self.log_scale + np.interp(x, self.breakpoints, self.log_values)

    def value(self, x) -> np.ndarray:
        return np.exp(self.log_value(x))

    def _integral_unscaled(self, lo: float, hi: float) -> float:
        """Exact integral of exp(interpolated log-density), scale excluded."""
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

    def integral(self, lo: float, hi: float) -> float:
        return float(np.exp(self.log_scale)) * self._integral_unscaled(lo, hi)

    def _integral_set_unscaled(self, e: IntervalSet) -> float:
        return float(sum(self._integral_unscaled(l, u) for l, u in e.pairs()))


def _candidate_points(e: IntervalSet, s: tuple[float, float]) -> np.ndarray:
    s0, s1 = s
    pts = [s0, s1]
    for l, u in e.pairs():
        if u < s0 or l > s1:
            continue
        pts.append(max(l, s0))
        pts.append(min(u, s1))
    return np.unique(np.array(pts, dtype=float))


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


def min_interval_ratio(x: float, e: IntervalSet, s: tuple[float, float]) -> float:
    return float(min_interval_ratio_many(np.array([float(x)]), e, s)[0])


@dataclass(frozen=True)
class DenseCore:
    """The dense core of E (`inner`, exact up to rounding) and the same core
    widened by CORE_PAD inside each component of E (`outer`)."""

    inner: IntervalSet
    outer: IntervalSet


def dense_core_1d(e: IntervalSet, s: tuple[float, float],
                  lam: float) -> DenseCore:
    """{x in E : min_interval_ratio(x) >= theta}, theta = (lam-1)/lam, in
    closed form.

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
    if np.any(min_interval_ratio_many(ends, e, (s0, s1)) < theta - PASS_TOL):
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
    extras: dict = field(default_factory=dict)


def localization_check_1d(inst: LocalizationInstance,
                          resolution: int = 512) -> LocalizationReport:
    """Exact-integration check of the localization inequality in 1-D.

    The reported pass uses the padded outer core, which can only
    overestimate the left side; rounding therefore produces false failures,
    never false passes.  The dense core is computed in closed form, so
    `resolution` is only range-checked and changes no number.
    """
    if resolution < 2:
        raise ValueError("resolution must be >= 2")
    den = inst.density
    s0, s1 = inst.s_interval
    mass_s = den._integral_unscaled(s0, s1)
    if mass_s <= 0:
        raise ValueError("S carries no mass")
    core = dense_core_1d(inst.e_set, inst.s_interval, inst.lam)
    lhs_inner = den._integral_set_unscaled(core.inner) / mass_s
    lhs_outer = den._integral_set_unscaled(core.outer) / mass_s
    rhs = (den._integral_set_unscaled(inst.e_set) / mass_s) ** inst.lam
    return LocalizationReport(
        lhs_inner=float(lhs_inner), lhs_outer=float(lhs_outer), rhs=float(rhs),
        passed=bool(lhs_outer <= rhs + PASS_TOL),
        extras={
            "lambda": inst.lam,
            "core_inner_length": core.inner.total_length,
            "core_outer_length": core.outer.total_length,
        })


# ----------------------------------------------------------------------
# 2-D sampled check

@dataclass(frozen=True)
class LogQuadDensity2D:
    """Density exp(const + lin.x - x.quad.x / 2) with quad PSD (log-concave)."""

    const: float
    lin: np.ndarray
    quad: np.ndarray

    def __post_init__(self):
        lin = np.asarray(self.lin, dtype=float).reshape(2)
        quad = np.asarray(self.quad, dtype=float).reshape(2, 2)
        object.__setattr__(self, "lin", lin)
        object.__setattr__(self, "quad", quad)
        if not np.allclose(quad, quad.T, atol=1e-12):
            raise ValueError("quad must be symmetric")
        if np.min(np.linalg.eigvalsh(quad)) < -1e-12:
            raise ValueError("quad must be positive semidefinite")

    def log_value(self, pts: np.ndarray) -> np.ndarray:
        pts = np.asarray(pts, dtype=float).reshape(-1, 2)
        return (self.const + pts @ self.lin
                - 0.5 * np.einsum("ni,ij,nj->n", pts, self.quad, pts))


@dataclass(frozen=True)
class ConvexPolygon:
    """Convex polygon with counterclockwise vertices."""

    vertices: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=float).reshape(-1, 2)
        object.__setattr__(self, "vertices", v)
        if v.shape[0] < 3:
            raise ValueError("polygon needs at least 3 vertices")
        edges = np.roll(v, -1, axis=0) - v
        nxt = np.roll(edges, -1, axis=0)
        cross = edges[:, 0] * nxt[:, 1] - edges[:, 1] * nxt[:, 0]
        if np.any(cross < -1e-12):
            raise ValueError("vertices must be convex and counterclockwise")

    def contains(self, pts: np.ndarray, tol: float = 1e-12) -> np.ndarray:
        pts = np.asarray(pts, dtype=float).reshape(-1, 2)
        v = self.vertices
        edges = np.roll(v, -1, axis=0) - v
        rel = pts[:, None, :] - v[None, :, :]
        cross = edges[None, :, 0] * rel[:, :, 1] - edges[None, :, 1] * rel[:, :, 0]
        return np.all(cross >= -tol, axis=1)

    def chord(self, point: np.ndarray, direction: np.ndarray) -> tuple[float, float]:
        """Parameter range of {point + t*direction} inside the polygon."""
        p = np.asarray(point, dtype=float)
        u = np.asarray(direction, dtype=float)
        v = self.vertices
        edges = np.roll(v, -1, axis=0) - v
        normals = np.stack([edges[:, 1], -edges[:, 0]], axis=1)  # outward
        offs = np.einsum("ki,ki->k", normals, v)
        nu = normals @ u
        np_ = normals @ p
        t_lo, t_hi = -np.inf, np.inf
        for k in range(v.shape[0]):
            if abs(nu[k]) < 1e-15:
                if np_[k] > offs[k] + 1e-12:
                    return 0.0, 0.0
                continue
            bound = (offs[k] - np_[k]) / nu[k]
            if nu[k] > 0:
                t_hi = min(t_hi, bound)
            else:
                t_lo = max(t_lo, bound)
        if t_hi <= t_lo:
            return 0.0, 0.0
        return float(t_lo), float(t_hi)


def _boxes_to_line_set(boxes, point, direction) -> IntervalSet:
    """Intersection of a union of axis boxes with a parametrized line."""
    p = np.asarray(point, dtype=float)
    u = np.asarray(direction, dtype=float)
    pairs = []
    for lo, hi in boxes:
        t_lo, t_hi = -np.inf, np.inf
        empty = False
        for j in range(2):
            if abs(u[j]) < 1e-15:
                if not (lo[j] - 1e-12 <= p[j] <= hi[j] + 1e-12):
                    empty = True
                    break
                continue
            a = (lo[j] - p[j]) / u[j]
            b = (hi[j] - p[j]) / u[j]
            if a > b:
                a, b = b, a
            t_lo, t_hi = max(t_lo, a), min(t_hi, b)
        if not empty and t_hi >= t_lo:
            pairs.append((t_lo, t_hi))
    return IntervalSet.from_pairs(pairs)


def localization_check_2d(density: LogQuadDensity2D, polygon: ConvexPolygon,
                          boxes, lam: float, directions: int = 8,
                          grid: int = 64, seed: int = 0) -> LocalizationReport:
    """Sampled 2-D check: outer-approximate the dense core by testing the
    interval condition only along a fixed fan of directions, integrate by
    midpoint quadrature, and widen the pass margin by a boundary-cell error
    estimate.  Every approximation errs toward failing."""
    if lam <= 1.0:
        raise ValueError("lambda must exceed 1")
    if directions < 1 or grid < 4:
        raise ValueError("need directions >= 1 and grid >= 4")
    theta = (lam - 1.0) / lam
    boxes = [(np.asarray(lo, dtype=float), np.asarray(hi, dtype=float))
             for lo, hi in boxes]
    v = polygon.vertices
    x0, y0 = v.min(axis=0)
    x1, y1 = v.max(axis=0)
    hx, hy = (x1 - x0) / grid, (y1 - y0) / grid
    cx = x0 + hx * (np.arange(grid) + 0.5)
    cy = y0 + hy * (np.arange(grid) + 0.5)
    centers = np.stack(np.meshgrid(cx, cy, indexing="ij"), axis=-1).reshape(-1, 2)

    in_s = polygon.contains(centers)
    in_e = np.zeros(centers.shape[0], dtype=bool)
    for lo, hi in boxes:
        in_e |= np.all((centers >= lo) & (centers <= hi), axis=1)
    in_e &= in_s

    angles = (np.arange(directions) + 0.5) * np.pi / directions
    dirs = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    in_core = in_e.copy()
    idx_e = np.nonzero(in_e)[0]
    for i in idx_e:
        p = centers[i]
        for u in dirs:
            t_lo, t_hi = polygon.chord(p, u)
            if t_hi <= t_lo:
                continue
            e_line = _boxes_to_line_set(boxes, p, u).intersect(t_lo, t_hi)
            if e_line.n_components == 0:
                in_core[i] = False
                break
            if min_interval_ratio(0.0, e_line, (t_lo, t_hi)) < theta:
                in_core[i] = False
                break

    logw = density.log_value(centers)
    w = np.exp(logw - np.max(logw[in_s]))
    mass_s = float(np.sum(w[in_s]))
    lhs = float(np.sum(w[in_core])) / mass_s
    rhs = (float(np.sum(w[in_e])) / mass_s) ** lam

    # boundary cells: corner membership disagrees with the center
    corners = centers[:, None, :] + 0.5 * np.array(
        [[-hx, -hy], [-hx, hy], [hx, -hy], [hx, hy]])[None, :, :]
    flat = corners.reshape(-1, 2)
    corner_s = polygon.contains(flat).reshape(-1, 4)
    corner_e = np.zeros(flat.shape[0], dtype=bool)
    for lo, hi in boxes:
        corner_e |= np.all((flat >= lo) & (flat <= hi), axis=1)
    corner_e = corner_e.reshape(-1, 4)
    disagree_s = corner_s.any(axis=1) != corner_s.all(axis=1)
    disagree_e = corner_e.any(axis=1) != corner_e.all(axis=1)
    boundary = disagree_s | disagree_e
    err = float(np.sum(w[boundary])) / mass_s

    return LocalizationReport(
        lhs_inner=lhs, lhs_outer=lhs, rhs=rhs,
        passed=bool(lhs <= rhs + 3.0 * err),
        extras={"lambda": lam, "quadrature_error": err, "grid": grid,
                "directions": directions, "seed": seed})


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
        fields = line.split()
        kind = fields[0]
        if kind == "phi" and len(fields) == 3:
            bps.append(float(fields[1]))
            vals.append(float(fields[2]))
        elif kind == "S" and len(fields) == 3:
            s_interval = (float(fields[1]), float(fields[2]))
        elif kind == "E" and len(fields) == 3:
            e_pairs.append((float(fields[1]), float(fields[2])))
        elif kind == "lambda" and len(fields) == 2:
            lam = float(fields[1])
        else:
            raise ValueError(f"line {lineno}: unrecognized instance record")
    if s_interval is None or lam is None or len(bps) < 2:
        raise ValueError("instance needs phi lines, an S line and a lambda line")
    density = PiecewiseLogLinear(np.array(bps), np.array(vals))
    return LocalizationInstance(density, s_interval,
                                IntervalSet.from_pairs(e_pairs), lam)


def format_instance(inst: LocalizationInstance) -> str:
    lines = [f"phi {float(t)!r} {float(v)!r}" for t, v in
             zip(inst.density.breakpoints, inst.density.log_values)]
    lines.append(f"S {float(inst.s_interval[0])!r} {float(inst.s_interval[1])!r}")
    lines.extend(f"E {l!r} {u!r}" for l, u in inst.e_set.pairs())
    lines.append(f"lambda {float(inst.lam)!r}")
    return "\n".join(lines) + "\n"


def random_instance(rng: np.random.Generator, max_pieces: int = 8,
                    max_components: int = 10,
                    lam_range: tuple[float, float] = (1.1, 5.0)) -> LocalizationInstance:
    """Randomized 1-D instance: concave piecewise-linear log density whose
    support contains S, and E a union of subintervals of S."""
    n_pieces = int(rng.integers(1, max_pieces + 1))
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
    n_comp = int(rng.integers(1, max_components + 1))
    cuts = np.sort(rng.uniform(s0, s1, 2 * n_comp))
    pairs = [(cuts[2 * k], cuts[2 * k + 1]) for k in range(n_comp)]
    e = IntervalSet.from_pairs(pairs)
    if e.total_length > 0.9 * (s1 - s0):
        shrink = 0.9 * (s1 - s0) / e.total_length
        pairs = [(l, l + (u - l) * shrink) for l, u in e.pairs()]
        e = IntervalSet.from_pairs(pairs)
    lam = float(rng.uniform(*lam_range))
    return LocalizationInstance(density, (float(s0), float(s1)), e, lam)

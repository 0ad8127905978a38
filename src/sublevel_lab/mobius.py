"""Radial Moebius-type change of variables on the complex unit ball.

The map sends z to m(sum z_j^2) * z where m is a Moebius factor with a real
coefficient.  It fixes the origin's value pattern needed downstream: the
real sphere of squared radius `zero_sphere_radius_sq` collapses to the
origin, the map is injective on a smaller real ball, its Jacobian has a
closed form that is log-concave there, and preimages of balls in the image
are convex.  The check_* routines verify each property numerically and
return small report objects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .sampling import (STREAM_LOGCONCAVITY, STREAM_PREIMAGE, ball_points,
                       chunk_rng, chunk_sizes, map_chunks)

POLE_TOL = 1e-15
ALGEBRAIC_TOL = 1e-9
GRID_TOL = 1e-6
MEMBERSHIP_TOL = 1e-12
CONTAINMENT_MARGIN = 1e-9
CURVATURE_BOUND = 25.0 / 27.0
LOGDERIV_RATIO_BOUND = 1.0 / 30.0
RADIAL_GRID = 10_000


@dataclass(frozen=True)
class MapParams:
    """Parameter pack derived from delta in (0, 1/8].

    Everything is recomputed from delta on access so the tuple cannot drift.
    """

    delta: float

    def __post_init__(self):
        if not (0.0 < self.delta <= 0.125):
            raise ValueError("delta must lie in (0, 1/8]")

    @property
    def zero_sphere_radius_sq(self) -> float:
        """Squared radius of the real sphere mapped to the origin."""
        return 1.0 - self.delta ** 3

    @property
    def zero_sphere_radius(self) -> float:
        return math.sqrt(self.zero_sphere_radius_sq)

    @property
    def injectivity_radius_sq(self) -> float:
        """Squared radius of the real ball on which the map is injective."""
        return 1.0 - 3.0 * self.delta - self.delta ** 3

    @property
    def injectivity_radius(self) -> float:
        return math.sqrt(self.injectivity_radius_sq)

    @property
    def image_radius(self) -> float:
        """Radius of the image of the injectivity ball (a centered ball)."""
        r0 = self.injectivity_radius
        return r0 * float(mobius_factor(self.injectivity_radius_sq, self))


def mobius_factor(zeta, params: MapParams):
    """(A - zeta) / (1 - A*zeta) with A = params.zero_sphere_radius_sq."""
    A = params.zero_sphere_radius_sq
    zeta = np.asarray(zeta)
    denom = 1.0 - A * zeta
    if np.any(np.abs(denom) <= POLE_TOL):
        raise ValueError("evaluation too close to the Moebius pole")
    return (A - zeta) / denom


def mobius_factor_d1(R, params: MapParams):
    """First derivative of the Moebius factor at real argument R."""
    A = params.zero_sphere_radius_sq
    return -(1.0 - A * A) / (1.0 - A * np.asarray(R)) ** 2


def mobius_factor_d2(R, params: MapParams):
    """Second derivative, from the closed form (no numeric differencing)."""
    A = params.zero_sphere_radius_sq
    return -2.0 * A * (1.0 - A * A) / (1.0 - A * np.asarray(R)) ** 3


def apply_map(z, params: MapParams) -> np.ndarray:
    """Apply the change of variables to one point (or batch) of B_c(0,1)."""
    z = np.asarray(z, dtype=np.complex128)
    squeeze = z.ndim == 1
    pts = z.reshape(1, -1) if squeeze else z
    if np.any(np.linalg.norm(pts, axis=1) >= 1.0):
        raise ValueError("points must lie in the open complex unit ball")
    s = np.sum(pts * pts, axis=1)
    out = mobius_factor(s, params)[:, None] * pts
    return out[0] if squeeze else out


def jacobian(r, n: int, params: MapParams):
    """|det D T| at radius r in [0, injectivity_radius] in dimension n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    r = np.asarray(r, dtype=float)
    r0 = params.injectivity_radius
    if np.any(r < -1e-12) or np.any(r > r0 + 1e-12):
        raise ValueError("radius outside [0, injectivity_radius]")
    R = r * r
    m = mobius_factor(R, params)
    radial = m + 2.0 * R * mobius_factor_d1(R, params)
    return radial * m ** (n - 1)


def log_jacobian(r, n: int, params: MapParams):
    """log |det D T|; exact log-space form used by the concavity check."""
    r = np.asarray(r, dtype=float)
    R = r * r
    m = mobius_factor(R, params)
    radial = m + 2.0 * R * mobius_factor_d1(R, params)
    return np.log(radial) + (n - 1) * np.log(m)


@dataclass(frozen=True)
class CheckReport:
    """Uniform result record for the property checks."""

    check: str
    delta: float
    statistic: float
    bound: float
    passed: bool
    n: int | None = None
    seed: int | None = None
    extras: dict = field(default_factory=dict)

    def to_row(self) -> dict:
        return {
            "check": self.check,
            "delta": self.delta,
            "n": self.n,
            "seed": self.seed,
            "statistic": self.statistic,
            "bound": self.bound,
            "pass": bool(self.passed),
        }


def check_radial_profile(params: MapParams, grid_points: int = 10_000) -> CheckReport:
    """Strict monotonicity of r -> r*m(r^2), the image radius target, and the
    derivative-ratio bound |m'|/m <= 1/30 on [0, injectivity_radius]."""
    if grid_points < 2:
        raise ValueError("grid_points must be >= 2")
    r0 = params.injectivity_radius
    rs = np.linspace(0.0, r0, grid_points)
    g = rs * mobius_factor(rs * rs, params)
    min_diff = float(np.min(np.diff(g)))
    image_radius = params.image_radius
    ratio = np.abs(mobius_factor_d1(rs * rs, params)) / mobius_factor(rs * rs, params)
    max_ratio = float(np.max(ratio))
    radius_target = 1.0 - 2.0 * params.delta
    passed = (min_diff > 0.0 and image_radius > radius_target
              and max_ratio <= LOGDERIV_RATIO_BOUND)
    return CheckReport(
        check="radial_profile", delta=params.delta,
        statistic=min_diff, bound=0.0, passed=passed,
        extras={
            "image_radius": image_radius,
            "image_radius_target": radius_target,
            "max_logderiv_ratio": max_ratio,
            "logderiv_ratio_bound": LOGDERIV_RATIO_BOUND,
            "grid_points": grid_points,
        })


def check_log_concavity(params: MapParams, n: int, trials: int, seed: int,
                        threads: int = 1) -> CheckReport:
    """Midpoint log-concavity of the Jacobian over random segment pairs, plus
    concavity (nonpositive second differences) of both closed-form radial
    factors on a uniform grid of RADIAL_GRID points."""
    if n < 1:
        raise ValueError("n must be >= 1")
    r0 = params.injectivity_radius

    def worker(chunk, size):
        rng = chunk_rng(seed, STREAM_LOGCONCAVITY, chunk)
        x = ball_points(rng, size, n, r0)
        y = ball_points(rng, size, n, r0)
        mid = 0.5 * (x + y)
        d = (log_jacobian(np.linalg.norm(mid, axis=1), n, params)
             - 0.5 * (log_jacobian(np.linalg.norm(x, axis=1), n, params)
                      + log_jacobian(np.linalg.norm(y, axis=1), n, params)))
        return d

    defects = map_chunks(trials, worker, threads)
    worst = float(np.min(defects)) if defects.size else 0.0

    # concavity of both radial factors along the radius
    rs = np.linspace(0.0, r0, RADIAL_GRID)
    R = rs * rs
    m = mobius_factor(R, params)
    radial = m + 2.0 * R * mobius_factor_d1(R, params)
    sd_m = float(np.max(np.diff(m, 2)))
    sd_radial = float(np.max(np.diff(radial, 2)))
    second_diff_ok = sd_m <= 1e-12 and sd_radial <= 1e-12

    passed = worst >= -ALGEBRAIC_TOL and second_diff_ok
    return CheckReport(
        check="log_concavity", delta=params.delta, n=n, seed=seed,
        statistic=worst, bound=-ALGEBRAIC_TOL, passed=passed,
        extras={
            "trials": trials,
            "max_second_diff_factor": sd_m,
            "max_second_diff_radial": sd_radial,
            "radial_grid": RADIAL_GRID,
        })


def check_curvature(params: MapParams, r_grid: int = 10_000,
                    alpha_grid: int = 360) -> CheckReport:
    """Maximum curvature of images of straight lines, evaluated in the plane.

    The tangent line through r*x with direction v at angle alpha maps to a
    curve whose first two derivatives at the touch point have closed forms;
    curvature = |s' x s''| / |s'|^3.
    """
    if r_grid < 2 or alpha_grid < 2:
        raise ValueError("grids must be >= 2")
    rs = np.linspace(0.0, params.injectivity_radius, r_grid)[:, None]
    alphas = np.linspace(0.0, np.pi, alpha_grid)[None, :]
    R = rs * rs
    m = mobius_factor(R, params)
    m1 = mobius_factor_d1(R, params)
    m2 = mobius_factor_d2(R, params)
    ca, sa = np.cos(alphas), np.sin(alphas)
    # x = (1, 0), v = (cos a, sin a)
    sp_x = m * ca + 2.0 * R * m1 * ca
    sp_y = m * sa
    spp_x = 4.0 * rs * m1 * ca * ca + 2.0 * rs * m1 + 4.0 * rs * R * m2 * ca * ca
    spp_y = 4.0 * rs * m1 * ca * sa
    cross = np.abs(sp_x * spp_y - sp_y * spp_x)
    speed_sq = sp_x * sp_x + sp_y * sp_y
    curvature = cross / speed_sq ** 1.5
    max_curv = float(np.max(curvature))
    bound = CURVATURE_BOUND + GRID_TOL
    return CheckReport(
        check="curvature", delta=params.delta,
        statistic=max_curv, bound=bound, passed=max_curv <= bound,
        extras={"r_grid": r_grid, "alpha_grid": alpha_grid})


def check_preimage_convexity(params: MapParams, center_dist: float,
                             radius: float, trials: int, seed: int) -> CheckReport:
    """Convexity of S = B(0, r0) ∩ T^{-1}(ball) via random midpoint tests.

    The preimage is a body of revolution around the axis through the test
    ball's center, so the plane case decides convexity; the test runs in R^2
    with the ball centered at (center_dist, 0).
    """
    if radius < 0 or center_dist < 0:
        raise ValueError("center_dist and radius must be nonnegative")
    if center_dist + radius >= params.image_radius - CONTAINMENT_MARGIN:
        raise ValueError("test ball must lie strictly inside the image ball")
    r0 = params.injectivity_radius
    center = np.array([center_dist, 0.0])

    def member(points):
        img = mobius_factor(np.sum(points * points, axis=1), params)[:, None] * points
        return np.linalg.norm(img - center, axis=1) <= radius

    violations = 0
    tested = 0
    checked_pairs = 0
    chunk_index = 0
    n_chunks = len(chunk_sizes(max(trials, 1)))
    # Rejection from the injectivity ball; stop once enough member pairs seen
    # or the chunk budget (64x oversampling) is exhausted.
    max_chunks = max(n_chunks * 64, 64)
    while checked_pairs < trials and chunk_index < max_chunks:
        rng = chunk_rng(seed, STREAM_PREIMAGE, chunk_index)
        pts = ball_points(rng, 2 * 4096, 2, r0)
        inside = pts[member(pts)]
        m = inside.shape[0] - (inside.shape[0] % 2)
        if m >= 2:
            a, b = inside[:m:2], inside[1:m:2]
            mid = 0.5 * (a + b)
            img = mobius_factor(np.sum(mid * mid, axis=1), params)[:, None] * mid
            bad = np.linalg.norm(img - center, axis=1) > radius + MEMBERSHIP_TOL
            violations += int(np.sum(bad))
            checked_pairs += m // 2
        tested += pts.shape[0]
        chunk_index += 1
    return CheckReport(
        check="preimage_convexity", delta=params.delta, seed=seed,
        statistic=float(violations), bound=0.0, passed=violations == 0,
        extras={
            "pairs_checked": checked_pairs,
            "pairs_requested": trials,
            "center_dist": center_dist,
            "radius": radius,
        })


def run_all_checks(delta: float, n: int, trials: int, seed: int,
                   threads: int = 1, r_grid: int = 10_000,
                   alpha_grid: int = 360) -> list[CheckReport]:
    """Full property sweep for one (delta, n)."""
    params = MapParams(delta)
    ball = (0.35 * params.image_radius, 0.4 * params.image_radius)
    return [
        check_radial_profile(params, r_grid),
        check_curvature(params, r_grid, alpha_grid),
        check_log_concavity(params, n, trials, seed, threads),
        check_preimage_convexity(params, ball[0], ball[1],
                                 max(trials // 10, 100), seed),
    ]

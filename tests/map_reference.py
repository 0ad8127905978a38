"""Sampled and gridded references for the map's closed-form certificates.

`mobius.check_log_concavity` certifies strong log-concavity in closed form;
the tests cross-check that certificate against random midpoint triples of
Psi(x) = log J_n(|x|) in the injectivity ball.  `mobius.check_curvature`
certifies an upper bound on the curvature of line images; the tests compare
it with the maximum over an (r, alpha) grid.  `check_preimage_convexity`
certifies convexity of ball preimages from that bound; the tests look for
random member pairs whose midpoint leaves the preimage.
"""

import numpy as np

from sublevel_lab.mobius import MapParams, mobius_factor, mobius_factor_d1

from .ball_reference import ball_points


def mobius_factor_d2(R, params: MapParams):
    """Second derivative of the Moebius factor at real argument R."""
    A = params.zero_sphere_radius_sq
    return -2.0 * A * (1.0 - A * A) / (1.0 - A * np.asarray(R)) ** 3


def curvature_grid_max(params: MapParams, r_grid: int, alpha_grid: int) -> float:
    """Maximum curvature of line images over an r_grid x alpha_grid grid of
    [0, r0] x [0, pi], walked in row blocks to bound memory.

    The line through r e_1 with direction (cos a, sin a) maps to a curve s
    whose first two derivatives at r e_1 have closed forms; curvature =
    |s' x s''| / |s'|^3.  A NaN anywhere makes the maximum NaN."""
    r_all = np.linspace(0.0, params.injectivity_radius, r_grid)[:, None]
    alphas = np.linspace(0.0, np.pi, alpha_grid)[None, :]
    ca, sa = np.cos(alphas), np.sin(alphas)
    block_max = []
    for rs in np.array_split(r_all, -(-r_grid // 256)):
        R = rs * rs
        m = mobius_factor(R, params)
        m1 = mobius_factor_d1(R, params)
        m2 = mobius_factor_d2(R, params)
        sp_x = m * ca + 2.0 * R * m1 * ca
        sp_y = m * sa
        spp_x = 4.0 * rs * m1 * ca * ca + 2.0 * rs * m1 + 4.0 * rs * R * m2 * ca * ca
        spp_y = 4.0 * rs * m1 * ca * sa
        cross = np.abs(sp_x * spp_y - sp_y * spp_x)
        block_max.append(np.max(cross / (sp_x * sp_x + sp_y * sp_y) ** 1.5))
    return float(np.max(block_max))


def log_jacobian(r, n: int, params: MapParams):
    """log |det D T| at radius r, summed in log space."""
    r = np.asarray(r, dtype=float)
    R = r * r
    m = mobius_factor(R, params)
    radial = m + 2.0 * R * mobius_factor_d1(R, params)
    return np.log(radial) + (n - 1) * np.log(m)


def midpoint_defects(params: MapParams, n: int, count: int, seed: int):
    """(defect, |x - y|^2) for `count` pairs x, y drawn uniformly from the
    injectivity ball in R^n, with defect = Psi((x + y)/2) - (Psi(x) +
    Psi(y))/2.  A Hessian <= -kappa I makes each defect >= kappa |x - y|^2 / 8."""
    rng = np.random.default_rng(seed)
    r0 = params.injectivity_radius
    x = ball_points(rng, count, n, r0)
    y = ball_points(rng, count, n, r0)

    def psi(points):
        return log_jacobian(np.linalg.norm(points, axis=1), n, params)

    defect = psi(0.5 * (x + y)) - 0.5 * (psi(x) + psi(y))
    return defect, np.sum((x - y) ** 2, axis=1)


def preimage_midpoint_violations(params: MapParams, center_dist: float,
                                 radius: float, pairs: int,
                                 seed: int) -> tuple[int, int]:
    """(violations, pairs checked) for random pairs of points of the plane
    preimage S = {x in B(0, r0) : |T(x) - (center_dist, 0)| <= radius}: a
    pair violates convexity when its midpoint's image lies outside the ball
    or within 1e-12 of its rim.  Points are drawn from the injectivity disk
    and kept when they land in S, in rounds of 8192, for at most 64 rounds;
    a degenerate S can leave fewer than `pairs` pairs checked."""
    rng = np.random.default_rng(seed)
    r0 = params.injectivity_radius
    center = np.array([center_dist, 0.0])

    def image_dist(points):
        img = mobius_factor(np.sum(points * points, axis=1), params)[:, None] * points
        return np.linalg.norm(img - center, axis=1)

    members, found = [], 0
    for _ in range(64):
        if found >= 2 * pairs:
            break
        pts = ball_points(rng, 8192, 2, r0)
        inside = pts[image_dist(pts) <= radius]
        members.append(inside)
        found += inside.shape[0]
    pts = np.concatenate(members)
    m = min(pts.shape[0] // 2, pairs)
    bad = image_dist(0.5 * (pts[:m] + pts[m:2 * m])) > radius - 1e-12
    return int(np.sum(bad)), m

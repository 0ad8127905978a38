"""Radial Moebius-type change of variables on the complex unit ball.

The map sends z to m(sum z_j^2) * z where m is a Moebius factor with a real
coefficient.  It fixes the origin's value pattern needed downstream: the
real sphere of radius sqrt(`zero_sphere_radius_sq`) collapses to the
origin, the map is injective on a smaller real ball, its Jacobian has a
closed form that is log-concave there, and preimages of balls in the image
are convex.  The check_* routines verify each property in closed form
(radial profile, log-concavity, curvature, and preimage convexity as a
corollary of the curvature bound), draw no random numbers, and return
small report objects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

POLE_TOL = 1e-15
CONTAINMENT_MARGIN = 1e-9
CURVATURE_BOUND = 25.0 / 27.0
LOGDERIV_RATIO_BOUND = 1.0 / 30.0


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


def _rim_values(params: MapParams) -> tuple[float, float, float]:
    """m, m' and m'' at R0 = injectivity_radius_sq, free of cancellation and
    of underflow.  With A - R0 = 3 delta, 1 - A R0 = 3 delta q for
    q = 1 + delta^2 (2 - 3 delta - delta^3) / 3, and 1 - A^2 = delta^3 s for
    s = 2 - delta^3, they are 1/q, -delta s / (9 q^2) and
    -2 A s / (27 q^3); they stay accurate where A = 1 - delta^3 rounds to 1."""
    d = params.delta
    q = 1.0 + d * d * (2.0 - 3.0 * d - d ** 3) / 3.0
    s = 2.0 - d ** 3
    A = params.zero_sphere_radius_sq
    return 1.0 / q, -d * s / (9.0 * q * q), -2.0 * A * s / (27.0 * q ** 3)


def apply_map(z, params: MapParams) -> np.ndarray:
    """Apply the change of variables to one point z of B_c(0,1); the guard
    is written so that a NaN point trips it."""
    z = np.asarray(z, dtype=np.complex128)
    if z.ndim != 1 or not np.linalg.norm(z) < 1.0:
        raise ValueError("z must be one point of the open complex unit ball")
    return mobius_factor(np.sum(z * z), params) * z


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


@dataclass(frozen=True)
class CheckReport:
    """Uniform result record for the property checks."""

    check: str
    delta: float
    statistic: float
    bound: float
    passed: bool
    n: int | None = None
    extras: dict = field(default_factory=dict)

    def to_row(self) -> dict:
        return {
            "check": self.check,
            "delta": self.delta,
            "n": self.n,
            "statistic": self.statistic,
            "bound": self.bound,
            "pass": bool(self.passed),
        }


def check_radial_profile(params: MapParams, grid_points: int = 10_000) -> CheckReport:
    """Strict monotonicity of r -> r*m(r^2), the image radius target, and the
    derivative-ratio bound |m'|/m <= 1/30 on [0, injectivity_radius].

    (r m(r^2))' = (m + 2 R m')(r^2) decreases in r (see check_log_concavity),
    so its exact minimum is its value at r0.  |m'|/m = (1 - A^2) /
    ((1 - A R)(A - R)) increases in R, so its maximum is the closed form at
    R = injectivity_radius_sq.  `grid_points` is ignored."""
    m0, m1, _ = _rim_values(params)
    min_slope = m0 + 2.0 * params.injectivity_radius_sq * m1
    image_radius = params.image_radius
    max_ratio = -m1 / m0
    radius_target = 1.0 - 2.0 * params.delta
    passed = (min_slope > 0.0 and image_radius > radius_target
              and max_ratio <= LOGDERIV_RATIO_BOUND)
    return CheckReport(
        check="radial_profile", delta=params.delta,
        statistic=min_slope, bound=0.0, passed=passed,
        extras={"image_radius": image_radius, "max_logderiv_ratio": max_ratio})


def check_log_concavity(params: MapParams, n: int, trials: int = 0,
                        seed: int = 0, threads: int = 1) -> CheckReport:
    """Strong log-concavity of the Jacobian on the injectivity ball, in closed
    form: the Hessian of log J_n(|x|) is <= -kappa_n I on the whole ball, with
    kappa_n = (2n + 4)(1 - A^2) / A, attained at the origin.

    Write log J_n = psi(r) = log g_r + (n - 1) log g_m with g_m(r) = m(r^2)
    and g_r(r) = (m + 2 R m')(r^2) = d/dr [r m(r^2)].  On [0, r0^2], with
    A = 1 - delta^3 and 1 - A R > 0, each derivative m^(k) = -k! A^(k-1)
    (1 - A^2) / (1 - A R)^(k+1), k >= 1, is negative and grows in size with
    R.  So both factors fall from g(0) = A, and g_m'' = 2 m' + 4 R m'' and
    g_r'' = 6 m' + 24 R m'' + 8 R^2 m''' fall with r from their values at
    r = 0, -2 (1 - A^2) and -6 (1 - A^2).  Each factor adds g''/g - (g'/g)^2
    to psi'', and g'(0) = 0.  Where both factors are positive, g''/g <=
    g''(0)/A, hence psi'' <= psi''(0) = -kappa_n, and so is
    psi'(r)/r, the mean of psi'' over [0, r].  These are the radial and the
    tangential eigenvalues of the Hessian, in every dimension.  Both factors
    are positive on the ball iff they are positive at r0.

    1 - A^2 is computed as delta^3 (2 - delta^3), free of cancellation.
    `trials`, `seed` and `threads` are ignored."""
    if n < 1:
        raise ValueError("n must be >= 1")
    d3 = params.delta ** 3
    one_minus_a_sq = d3 * (2.0 - d3)
    kappa = (2 * n + 4) * one_minus_a_sq / params.zero_sphere_radius_sq
    factor_r0, m1, _ = _rim_values(params)
    radial_r0 = factor_r0 + 2.0 * params.injectivity_radius_sq * m1
    passed = kappa > 0.0 and factor_r0 > 0.0 and radial_r0 > 0.0
    return CheckReport(
        check="log_concavity", delta=params.delta, n=n,
        statistic=kappa, bound=0.0, passed=passed,
        extras={
            "max_d2_factor": -2.0 * one_minus_a_sq,
            "max_d2_radial": -6.0 * one_minus_a_sq,
        })


def _curvature_certificate(params: MapParams) -> tuple[float, float]:
    """(kappa_cert, g(R0)): the closed-form bound on the curvature of line
    images that check_curvature derives, and the radial slope g = m + 2 R m'
    at R0 that it divides by."""
    m0, m1, m2 = _rim_values(params)
    A, R0 = params.zero_sphere_radius_sq, params.injectivity_radius_sq
    g0 = m0 + 2.0 * R0 * m1
    alpha = 4.0 * R0 * (2.0 * m1 * m1 + A * abs(m2))
    beta = 2.0 * A * abs(m1)
    c = 0.0
    if alpha:
        c = min(max((2.0 * alpha - beta) / (3.0 * alpha), 0.0), 1.0)
    kappa = (params.injectivity_radius * math.sqrt(1.0 - c) * (alpha * c + beta)
             / g0 ** 3)
    return kappa, g0


def check_curvature(params: MapParams, r_grid: int = 10_000,
                    alpha_grid: int = 360) -> CheckReport:
    """Certified upper bound on the curvature of images of straight lines.

    The line through r e_1 at direction angle a maps to a plane curve s(t)
    with curvature |s' x s''| / |s'|^3 at r e_1.  With c = cos^2 a and
    g = m + 2 R m', m' and m'' evaluated at R = r^2, this is

        kappa = r sin a (4 R c (2 m'^2 + m |m''|) + 2 m |m'|)
                / (g^2 c + m^2 (1 - c))^(3/2).

    On [0, r0] the values r, R, |m'| and |m''| rise, and 0 < g <= m <= A
    with g falling (see check_log_concavity).  So the denominator is at
    least g(R0)^3, and kappa <= r0 h(c) / g(R0)^3 with h(c) = sqrt(1 - c)
    (alpha c + beta), alpha = 4 R0 (2 m'(R0)^2 + A |m''(R0)|) and
    beta = 2 A |m'(R0)|.  h is largest at c* = (2 alpha - beta) / (3 alpha),
    clipped to [0, 1].  A non-positive g(R0) or a NaN fails the check.
    `r_grid` and `alpha_grid` are ignored."""
    kappa, g0 = _curvature_certificate(params)
    return CheckReport(
        check="curvature", delta=params.delta,
        statistic=kappa, bound=CURVATURE_BOUND,
        passed=g0 > 0.0 and kappa <= CURVATURE_BOUND)


def check_preimage_convexity(params: MapParams, center_dist: float,
                             radius: float, trials: int = 0,
                             seed: int = 0) -> CheckReport:
    """Convexity of S = T^{-1}(D) for a ball D = B(c, radius) inside the image
    ball, certified by radius * kappa_cert < 1 with kappa_cert from
    check_curvature.

    Put F(y) = |T(y) - c|^2 - radius^2, take x on the boundary of S and a
    unit t with t . grad F(x) = 0, and let gamma(s) = T(x + s t), a plane
    curve of curvature at most kappa_cert.  At s = 0, gamma - c is normal to
    gamma', so F'' = 2 |gamma'|^2 + 2 <gamma - c, gamma''> >= 2 |gamma'|^2
    (1 - radius kappa_cert).  g(R0) > 0 makes DT invertible, so grad F and
    gamma' do not vanish, and the boundary of S is curved positively in
    every tangent direction.  S is compact and connected (T is a
    homeomorphism of the injectivity ball onto the image ball), so it is
    convex by Hadamard's theorem.  The statistic is radius * kappa_cert
    against 1; a NaN fails.  `trials` and `seed` are ignored."""
    if radius < 0 or center_dist < 0:
        raise ValueError("center_dist and radius must be nonnegative")
    if center_dist + radius >= params.image_radius - CONTAINMENT_MARGIN:
        raise ValueError("test ball must lie strictly inside the image ball")
    kappa, g0 = _curvature_certificate(params)
    bending = radius * kappa
    return CheckReport(
        check="preimage_convexity", delta=params.delta,
        statistic=bending, bound=1.0, passed=g0 > 0.0 and bending < 1.0)


def run_all_checks(deltas: list[float], ns: list[int]) -> list[CheckReport]:
    """Full property sweep, in closed form: it draws no random numbers.  Each
    delta gets its three dimension-free checks once and one log-concavity
    check per n."""
    reports = []
    for delta in deltas:
        params = MapParams(delta)
        ball = (0.35 * params.image_radius, 0.4 * params.image_radius)
        reports += [check_radial_profile(params), check_curvature(params)]
        reports += [check_log_concavity(params, n) for n in ns]
        reports.append(check_preimage_convexity(params, ball[0], ball[1]))
    return reports

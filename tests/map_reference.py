"""Sampled reference for the Jacobian's log-concavity.

`mobius.check_log_concavity` certifies strong log-concavity in closed form;
the tests cross-check that certificate against random midpoint triples of
Psi(x) = log J_n(|x|) in the injectivity ball.
"""

import numpy as np

from sublevel_lab.mobius import MapParams, mobius_factor, mobius_factor_d1
from sublevel_lab.sampling import ball_points


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

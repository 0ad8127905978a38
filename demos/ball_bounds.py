"""Two-sided distribution bounds for |F| over real balls.

F is a polynomial normalized to sup <= 1 on the complex unit ball.  With M
the 1/e reference quantile of |F| over a real ball inside B(0, 1 - eps),
the sublevel mass below (8 lam)^-sigma M stays under 1/lam and the
superlevel mass above (8 lam)^sigma M under exp(-lam), with the exponent
sigma = 48 eps^-3 log(1/|F(0)|) independent of the ambient dimension.

At desk scale these bounds are astronomically slack: sigma is in the
thousands, so the thresholds live at exp(+-5000)-ish and every empirical
fraction is 0 or 1e-ish.  The point of the run is that the machinery
evaluates them faithfully anyway (all in log space), and that sigma does
not move when the same polynomial is lifted to higher dimension.
"""

import math

import numpy as np

from sublevel_lab.poly import from_terms, lift, normalize
from sublevel_lab.volume import (BallSpec, check_quantile_bounds,
                                 check_superlevel_power_bound, level_fraction)

base = normalize(from_terms(1, {(0,): 0.5, (1,): 0.5}))  # (z1 + 1)/2
lambdas = [1.5, 2.0, 4.0, 8.0]

for n in (1, 2, 4, 8):
    poly = lift(base, n)
    spec = BallSpec(np.zeros(n), 0.7, 0.25)
    rep = check_quantile_bounds(poly, spec, lambdas, 200_000, seed=5)
    print(f"n = {n}: sigma = {rep.sigma:.2f}, M = {rep.quantile:.5f}, "
          f"all rows pass = {rep.all_pass}")

poly = lift(base, 2)
spec = BallSpec(np.zeros(2), 0.7, 0.25)

rep = check_quantile_bounds(poly, spec, lambdas, 200_000, seed=6)
frac, se = level_fraction(poly, spec, rep.quantile, "ge", 200_000, seed=7)
print(f"\nM = {rep.quantile:.5f} (standard error {rep.quantile_std_err:.1e})")
print(f"self-consistency: frac{{|F| >= M}} = {frac:.5f} "
      f"vs 1/e = {1 / math.e:.5f} (+- {3 * se:.5f})")

sf = check_superlevel_power_bound(poly, spec, rep.quantile, lambdas, 200_000,
                                  seed=6)
print("\nsuperlevel power bound, c = M:")
for row in sf.rows:
    print(f"  lam = {row.lam}: lhs = {row.lhs:.3e} <= "
          f"rhs = {row.rhs:.3e} (+- {row.margin:.1e}): {row.passed}")

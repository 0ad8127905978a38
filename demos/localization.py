"""Localization inequality for log-concave weights.

For a weight Phi, a convex compact S and closed E inside S, the dense core
of E (points whose every containing interval meets E in relative length at
least (lam-1)/lam) carries at most the lam-th power of E's mass fraction.
The lemma reduces to 1-D needles, where both sides are computed exactly.
"""

import numpy as np

from sublevel_lab.intervals import IntervalSet
from sublevel_lab.kls import (LocalizationInstance, PiecewiseLogLinear,
                              dense_core_1d, localization_check_1d,
                              min_interval_ratio)

# the closed-form warm-up: uniform weight, E = [0, 0.9] inside S = [0, 1]
uniform = PiecewiseLogLinear(np.array([0.0, 1.0]), np.array([0.0, 0.0]))
e = IntervalSet.from_pairs([(0.0, 0.9)])
print("interval density at x = 0.5:",
      min_interval_ratio(0.5, e, (0.0, 1.0)), "(the minimizer is [x, 1])")

core = dense_core_1d(e, (0.0, 1.0), lam=2.0)
print("dense core of [0, 0.9] at lam=2:", core.inner.pairs(),
      "(closed form: [0, 0.8])")

rep = localization_check_1d(
    LocalizationInstance(uniform, (0.0, 1.0), e, 2.0), 512)
print(f"mass of core = {rep.lhs_outer:.12f} <= "
      f"(mass of E)^2 = {rep.rhs:.12f}: {rep.passed}")

# a genuinely log-concave weight: piecewise log-linear tent
tent = PiecewiseLogLinear(np.array([0.0, 0.4, 1.0]),
                          np.array([-1.0, 0.5, -2.0]))
e2 = IntervalSet.from_pairs([(0.05, 0.3), (0.5, 0.7), (0.8, 0.85)])
rep2 = localization_check_1d(
    LocalizationInstance(tent, (0.0, 1.0), e2, 3.0), 512)
print(f"\ntent weight, three components, lam=3: "
      f"lhs = {rep2.lhs_outer:.6f} <= rhs = {rep2.rhs:.6f}: {rep2.passed}")

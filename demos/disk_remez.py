"""Remez-type estimate for a bounded analytic function on the unit disk.

A disk function is assembled from Blaschke zeros and boundary atoms, its
zeros are split by the 2/3 rule into a tame factor and a short one, the
four factor estimates are checked one by one, and the Remez inequality
max_I |f| <= (8 |I|/|E|)^sigma sup_E |f| is checked with the exponent
sigma = 3/(1-a) log 1/|f(a)f(-a)|.  The same comparison with sigma = deg P
and the constant 4 is the classical Remez inequality for a polynomial P.
Every extremum is certified by branch and bound; the segment counts show
the work done.
"""

import numpy as np

from sublevel_lab.intervals import IntervalSet
from sublevel_lab.remez import (DiskFunction, classical_remez_check,
                                factor_bounds, remez_check, remez_exponent,
                                split_zeros)

rng = np.random.default_rng(7)
n_zeros = 12
zeros = np.sqrt(rng.random(n_zeros)) * 0.97 * \
    np.exp(1j * rng.random(n_zeros) * 2 * np.pi)
f = DiskFunction(zeros,
                 np.exp(1j * np.array([0.3, 2.0])),   # two boundary atoms
                 np.array([0.05, 0.02]),
                 const=np.exp(0.4j))
a = 0.9

fac = split_zeros(f.zeros, a)
print(f"{n_zeros} zeros split into {fac.b1_zeros.size} tame + "
      f"{fac.n_b2} short factors at a = {a}")

# the minima of |U| and |B1| stay above their bounds; the count of short
# factors and the log spread of the denominators stay below theirs
fb = factor_bounds(f, a)
for name, c in fb.checks.items():
    side = ">=" if name.endswith("_min") else "<="
    print(f"{name:18s} {c.statistic:.4e} {side} {c.bound:.4e}: "
          f"{'pass' if c.passed else 'FAIL'}")
print(f"all factor bounds pass: {fb.all_pass} "
      f"({fb.extras['segments']} segments bounded)")

sigma = remez_exponent(f, a)
print(f"\nexponent (product form)    = {sigma:.3f}")

interval = (-0.6, 0.8)
e = IntervalSet.from_pairs([(-0.5, -0.2), (0.1, 0.15), (0.4, 0.45)])
rep = remez_check(f, a, interval, e)
print(f"\nmax over I     = {rep.max_i:.4e}")
print(f"sup over E     = {rep.sup_e:.4e}  (|E| = {e.total_length:.3f})")
print(f"log max_I      = {rep.log_max_i:.3f} <= log bound = {rep.log_bound:.3f}")
print("Remez inequality holds:", rep.passed)
print(f"segments bounded = {rep.extras['segments']}")

# x^7 on I = [0, 1] with E = [0, 1/2]: max_I = 1 against (4 * 2)^7 (1/2)^7 = 4^7
coeffs = np.zeros(8)
coeffs[7] = 1.0
poly = classical_remez_check(coeffs, (0.0, 1.0),
                             IntervalSet.from_pairs([(0.0, 0.5)]))
print(f"\nclassical, x^7: log max_I = {poly.log_lhs:.4f} <= log bound = "
      f"{poly.log_rhs:.4f} ({poly.extras['segments']} segments bounded)")
print("classical Remez inequality holds:", poly.passed)

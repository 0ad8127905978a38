"""Remez-type estimate for a bounded analytic function on the unit disk.

A disk function is assembled from Blaschke zeros and boundary atoms, its
zeros are split by the 2/3 rule into a tame factor and a short one, the
four factor estimates are verified on a grid, and finally the Remez
inequality max_I |f| <= (8 |I|/|E|)^sigma sup_E |f| is checked with the
exponent sigma = 3/(1-a) log 1/|f(a)f(-a)|.
"""

import numpy as np

from sublevel_lab.intervals import IntervalSet
from sublevel_lab.remez import (DiskFunction, factor_bounds, remez_check,
                                remez_exponent, split_zeros,
                                symmetric_exponent)

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

fb = factor_bounds(f, a)
print(f"outer factor:   min |U|  = {fb.outer_min:.4e} >= {fb.outer_min_bound:.4e}")
print(f"tame factor:    min |B1| = {fb.b1_min:.4e} >= {fb.b1_min_bound:.4e}")
print(f"short factor:   count {fb.n_b2} <= {fb.n_b2_bound:.2f}")
print(f"denominators:   spread {fb.r_ratio:.4e} <= {fb.r_ratio_bound:.4e}")
print("all factor bounds pass:", fb.all_pass)

sigma = remez_exponent(f, a)
print(f"\nexponent (product form)    = {sigma:.3f}")
print(f"exponent (symmetric form)  = {symmetric_exponent(f, a):.3f}")

interval = (-0.6, 0.8)
e = IntervalSet.from_pairs([(-0.5, -0.2), (0.1, 0.15), (0.4, 0.45)])
rep = remez_check(f, a, interval, e)
print(f"\nmax over I     = {rep.max_i:.4e}")
print(f"sup over E     = {rep.sup_e:.4e}  (|E| = {e.total_length:.3f})")
print(f"log max_I      = {rep.log_max_i:.3f} <= log bound = {rep.log_bound:.3f}")
print("Remez inequality holds:", rep.passed)

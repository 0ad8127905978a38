"""Why round bodies matter: thin rectangles break the two-sided bounds.

F(z1, z2) = eta Q(z1) + z2/2 + 1/4 on thin rectangles
V_delta = [0, 1/4] x [-1/2, -1/2 + delta].  As delta -> 0 the law of |F|
approaches that of |eta Q(t)| on [0, 1/4], so the required exponent
sigma_eff (extracted from the 1/e quantile and the 1/lam quantile) tracks
the sublevel geometry of Q.  For flat families like t^m the exponent grows
linearly in m while the ball exponent stays bounded; no exponent chosen
once can serve every rectangle.

The admissibility ceiling eta * sup_disk |Q| < 1/8 is the interesting
constraint: polynomials that oscillate on [0, 1/4] have disk sups growing
like 18^degree, so their admissible amplitude collapses far below any
fixed rectangle thickness, and at fixed delta their rectangle law is the
smear law of the second coordinate.  The growth experiment therefore uses
the monomial family, whose disk sup is exactly 1.
"""

import numpy as np

from sublevel_lab.sampling import ks_distance
from sublevel_lab.thinrect import (ThinRectFunction, chebyshev_series,
                                   disk_normalized, disk_sup_upper_bound,
                                   growth_experiment, limit_moduli,
                                   monomial_on_quarter, rectangle_moduli)

# thin-limit indistinguishability for a first-degree instance
f = ThinRectFunction(np.array([0.0, 1.0]), 0.1)
lim = limit_moduli(f, 200_000, seed=1)
print("Kolmogorov distance of the V_delta law to the thin limit (Q = z):")
for delta in (1e-1, 1e-2, 1e-3, 1e-4):
    rect = rectangle_moduli(f, delta, 200_000, seed=2)
    print(f"  delta = {delta:.0e}: {ks_distance(rect.sorted_moduli, lim.sorted_moduli):.4f}")

# exponent growth for the flat (monomial) family
fam = [ThinRectFunction(monomial_on_quarter(m), 0.1) for m in (1, 2, 4)]
rep = growth_experiment(fam, delta=1e-6, lambdas=[2.0], count=300_000, seed=3)
print("\nrequired exponent for z^m on a delta = 1e-6 rectangle (lam = 2):")
for row in rep.rows:
    print(f"  degree {row.degree}: sigma_eff = {row.sigma_eff:.4f} "
          f"(oracle {row.sigma_eff_oracle:.4f}), "
          f"ball-theorem sigma = {row.sigma_theorem:.1f}")
print("strictly increasing:", rep.strictly_increasing,
      "| ball exponent spread:", f"{rep.theorem_sigma_ratio:.3f}x")

# the admissibility ceiling for oscillating families
print("\ncertified disk sup of the Chebyshev family rescaled to [0, 1/4]:")
for m in (4, 8, 16, 32):
    sup = disk_sup_upper_bound(chebyshev_series(m))
    print(f"  degree {m:2d}: sup ~ {sup:.2e}  -> admissible amplitude "
          f"{0.1 / sup:.1e} on [0, 1/4]")
print("(all far below a 1e-3 rectangle thickness: at fixed delta their "
      "rectangle law is the smear law, and no exponent growth is visible)")

q16 = disk_normalized(chebyshev_series(16))
f16 = ThinRectFunction(q16, 0.1)
rect = rectangle_moduli(f16, 1e-4, 100_000, seed=4)
lim16 = limit_moduli(f16, 100_000, seed=5)
print(f"\ndegree-16 member at delta = 1e-4: KS distance to its thin limit "
      f"= {ks_distance(rect.sorted_moduli, lim16.sorted_moduli):.3f} "
      f"(the limit sits 17 orders of magnitude below the smear)")

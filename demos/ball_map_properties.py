"""Walk through the radial Moebius-type change of variables.

The map T(z) = m(sum z_j^2) z, with m a Moebius factor whose coefficient is
1 - delta^3, squeezes the complex unit ball into itself while collapsing a
real sphere to the origin.  Everything the volume bounds need from it is
checked here: monotone radial profile and log-concavity of the Jacobian in
closed form, image ball radius, a certified bound on the curvature of line
images, and convexity of ball preimages as its corollary: rho * kappa < 1
for a test ball of radius rho.
"""

import numpy as np

from sublevel_lab.mobius import (MapParams, apply_map, check_curvature,
                                 check_log_concavity,
                                 check_preimage_convexity,
                                 check_radial_profile, jacobian)

for delta in (1 / 32, 1 / 16, 1 / 8):
    params = MapParams(delta)
    print(f"delta = {delta:.5f}")
    print(f"  collapse sphere radius  a  = {params.zero_sphere_radius:.6f}")
    print(f"  injectivity radius      r0 = {params.injectivity_radius:.6f}")
    print(f"  image ball radius          = {params.image_radius:.6f} "
          f"(target > {1 - 2 * delta:.6f})")

params = MapParams(1 / 8)

# the real sphere |x| = a really does collapse
x = np.array([params.zero_sphere_radius, 0.0, 0.0], dtype=complex)
print("\n|T(a, 0, 0)| =", np.linalg.norm(apply_map(x, params)))

# Jacobian values at the center and the edge of the injectivity ball
print("jacobian at r=0,  n=3:", jacobian(0.0, 3, params))
print("jacobian at r=r0, n=3:", jacobian(params.injectivity_radius, 3, params))

profile = check_radial_profile(params)
print("\nradial profile: min (r m(r^2))' =", f"{profile.statistic:.4f}",
      "(exact, at r0), max |m'|/m =",
      f"{profile.extras['max_logderiv_ratio']:.4f}", "(bound 1/30)")

curv = check_curvature(params)
print(f"max curvature of line images <= {curv.statistic:.4f} "
      f"(certified, bound 25/27 = {25 / 27:.4f})")

for n in (2, 8, 32):
    lc = check_log_concavity(params, n)
    print(f"log-concavity, n = {n:2d}: Hessian of log J <= -kappa I with "
          f"kappa = {lc.statistic:.6f}")

pre = check_preimage_convexity(params, 0.5, 0.28)
print(f"preimage of B(0.5 e_1, 0.28) convex: rho * kappa_cert = "
      f"{pre.statistic:.4f} < 1 (certified)")

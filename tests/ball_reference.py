"""Full uniform ball points built straight from the draws, and |F| at them
evaluated in complex arithmetic, for the tests.

A Gaussian direction scaled by U^(1/n) (Muller, 1959): the normals are drawn
first, then the radial uniforms, so a reference fed `sampling.chunk_rng`
cells holds the points the package's ball worker builds.
"""

import numpy as np

from sublevel_lab.sampling import chunk_rng, chunk_sizes


def ball_points(rng: np.random.Generator, size: int, dim: int,
                radius: float) -> np.ndarray:
    """`size` uniform points of the origin-centred ball of `radius` in R^dim."""
    x = rng.standard_normal((size, dim))
    u = rng.random(size)
    norms = np.linalg.norm(x, axis=1)
    norms[norms == 0.0] = 1.0
    return x * (radius * u ** (1.0 / dim) / norms)[:, None]


def chunked_ball_points(spec, count: int, seed: int, stream: int) -> np.ndarray:
    """`count` points of the ball `spec`, chunk by chunk from `chunk_rng`."""
    return np.concatenate([
        spec.center + ball_points(chunk_rng(seed, stream, i), size, spec.dim,
                                  spec.radius)
        for i, size in enumerate(chunk_sizes(count))])


def complex_power_eval(p, points) -> np.ndarray:
    """p at points of shape (N, dim) in complex arithmetic: the points cast to
    complex128, each power taken by numpy's ``z ** a``, one product per term."""
    pts = np.asarray(points).astype(np.complex128)
    out = np.zeros(pts.shape[0], dtype=np.complex128)
    for alpha, c in zip(p.exponents, p.coeffs):
        mono = np.ones(pts.shape[0], dtype=np.complex128)
        for j in range(p.dim):
            a = int(alpha[j])
            if a:
                mono *= pts[:, j] ** a
        out += c * mono
    return out

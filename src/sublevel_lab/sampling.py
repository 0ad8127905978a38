"""Deterministic counter-based random streams and chunked samplers.

Every randomized routine in the package draws from a Philox generator keyed
by (master seed, stream id, chunk index).  Work is split into fixed-size
chunks of 2**16 draws, each chunk owning its own generator, so results are
bit-identical no matter how many worker threads process the chunks.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np

CHUNK_SIZE = 1 << 16

# Stream ids, one per randomized operation; keeps sub-seeds disjoint even
# when several operations share a master seed.  The values key the Philox
# streams, so renumbering one changes every draw of that operation.
STREAM_BALL = 1
STREAM_LEVEL = 3
STREAM_LOGCONCAVITY = 4
STREAM_PREIMAGE = 5
STREAM_RECT = 6
STREAM_LIMIT = 7
STREAM_SUP_DIAG = 8
STREAM_SUITE = 9

_MASK64 = (1 << 64) - 1
_MASK32 = (1 << 32) - 1


def chunk_rng(seed: int, stream: int, chunk: int) -> np.random.Generator:
    """Generator for one (seed, stream, chunk) cell."""
    key = np.array(
        [np.uint64(seed & _MASK64),
         np.uint64(((stream & _MASK32) << 32) | (chunk & _MASK32))],
        dtype=np.uint64,
    )
    return np.random.Generator(np.random.Philox(key=key))


def chunk_sizes(count: int) -> list[int]:
    """Sizes of the fixed chunks covering `count` draws."""
    if count < 0:
        raise ValueError("count must be nonnegative")
    full, rem = divmod(count, CHUNK_SIZE)
    return [CHUNK_SIZE] * full + ([rem] if rem else [])


def map_chunks(count: int, worker, threads: int = 1) -> np.ndarray:
    """Apply ``worker(chunk_index, size) -> array`` to every chunk and
    concatenate the results in chunk order.

    The concatenation order is fixed by the chunk index, never by thread
    completion order, so the output is independent of `threads`.
    """
    sizes = chunk_sizes(count)
    if not sizes:
        return np.empty(0)
    if threads <= 1 or len(sizes) == 1:
        parts = [worker(i, s) for i, s in enumerate(sizes)]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(worker, range(len(sizes)), sizes))
    return np.concatenate(parts, axis=0)


def ball_points(rng: np.random.Generator, size: int, dim: int,
                radius: float) -> np.ndarray:
    """`size` uniform points of the origin-centred ball of `radius` in R^dim.

    Draws the normals first, then the uniforms: each caller's byte stream
    depends on that order.  Callers add the centre.
    """
    x = rng.standard_normal((size, dim))
    u = rng.random(size)
    norms = np.linalg.norm(x, axis=1)
    norms[norms == 0.0] = 1.0
    x *= (radius * u ** (1.0 / dim) / norms)[:, None]
    return x


def ks_distance(sample_a: np.ndarray, sample_b: np.ndarray) -> float:
    """Two-sample Kolmogorov-Smirnov statistic sup |F_a - F_b|."""
    a = np.sort(np.asarray(sample_a, dtype=float))
    b = np.sort(np.asarray(sample_b, dtype=float))
    if a.size == 0 or b.size == 0:
        raise ValueError("samples must be nonempty")
    grid = np.concatenate([a, b])
    grid.sort()
    fa = np.searchsorted(a, grid, side="right") / a.size
    fb = np.searchsorted(b, grid, side="right") / b.size
    return float(np.max(np.abs(fa - fb)))

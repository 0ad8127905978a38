"""Deterministic counter-based random streams, chunk maps and the KS distance.

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
STREAM_RECT = 6
STREAM_LIMIT = 7
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
    completion order, so the output is independent of `threads`.  Every
    sampler draws through here, so `count` >= 1 is checked once, here.
    """
    if not count >= 1:
        raise ValueError("count must be >= 1")
    sizes = chunk_sizes(count)
    if threads <= 1 or len(sizes) == 1:
        parts = [worker(i, s) for i, s in enumerate(sizes)]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(worker, range(len(sizes)), sizes))
    return np.concatenate(parts, axis=0)


def ks_distance(sample_a: np.ndarray, sample_b: np.ndarray) -> float:
    """Two-sample Kolmogorov-Smirnov statistic sup |F_a - F_b| of two
    nonempty ascending samples, such as `sorted_moduli`.

    Both empirical CDFs step only at sample points, so the supremum is read
    at the end of each tie group of the two samples merged in one stable
    pass: there the cumulative counts i_a and i_b give |i_a/n_a - i_b/n_b|.
    A NaN fails the ascending check (x[0] <= x[-1] catches a lone one).
    """
    a, b = (np.asarray(s, dtype=float) for s in (sample_a, sample_b))
    for x in (a, b):
        if not (x.size and x[0] <= x[-1] and np.all(x[:-1] <= x[1:])):
            raise ValueError("samples must be ascending")
    merged = np.concatenate([a, b])
    # two ascending runs: the stable sort (timsort) merges them in one pass
    order = np.argsort(merged, kind="stable")
    merged = merged[order]
    i_a = np.cumsum(order < a.size)
    i_b = np.arange(1, merged.size + 1) - i_a
    ends = np.append(merged[1:] != merged[:-1], True)
    return float(np.max(np.abs(i_a[ends] / a.size - i_b[ends] / b.size)))

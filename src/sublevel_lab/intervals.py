"""Finite unions of closed intervals with exact endpoint arithmetic."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class IntervalSet:
    """Sorted, pairwise-disjoint closed intervals [lower[i], upper[i]].

    Zero-length components (lower == upper) are allowed; overlapping or
    touching input intervals are merged by the constructor helpers.
    """

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = np.asarray(self.lower, dtype=float)
        hi = np.asarray(self.upper, dtype=float)
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)
        if lo.shape != hi.shape or lo.ndim != 1:
            raise ValueError("lower/upper must be 1-d arrays of equal length")
        if np.any(hi < lo):
            raise ValueError("each component must satisfy lower <= upper")
        if lo.size > 1 and np.any(lo[1:] <= hi[:-1]):
            raise ValueError("components must be sorted and disjoint")

    @classmethod
    def from_pairs(cls, pairs) -> "IntervalSet":
        """Build from (lower, upper) pairs, merging overlaps and touches."""
        pairs = [(float(l), float(u)) for l, u in pairs]
        for l, u in pairs:
            if u < l:
                raise ValueError(f"invalid interval [{l}, {u}]")
        if not pairs:
            return cls(np.empty(0), np.empty(0))
        pairs.sort()
        merged = [list(pairs[0])]
        for l, u in pairs[1:]:
            if l <= merged[-1][1]:
                merged[-1][1] = max(merged[-1][1], u)
            else:
                merged.append([l, u])
        arr = np.array(merged, dtype=float)
        return cls(arr[:, 0], arr[:, 1])

    @property
    def n_components(self) -> int:
        return int(self.lower.size)

    @property
    def total_length(self) -> float:
        return float(np.sum(self.upper - self.lower))

    def pairs(self) -> list[tuple[float, float]]:
        return [(float(l), float(u)) for l, u in zip(self.lower, self.upper)]

    def is_subset_of(self, other: "IntervalSet", tol: float = 0.0) -> bool:
        """Every component lies inside some component of `other`."""
        for l, u in self.pairs():
            ok = np.any((other.lower - tol <= l) & (u <= other.upper + tol))
            if not ok:
                return False
        return True

    def measure_below(self, x) -> np.ndarray:
        """|self ∩ (-inf, x]| for scalar or array x (piecewise linear)."""
        x = np.asarray(x, dtype=float)
        clipped = np.clip(x[..., None], self.lower, self.upper)
        return np.sum(clipped - self.lower, axis=-1)

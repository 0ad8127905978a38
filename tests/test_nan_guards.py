"""A NaN in a library constructor or check is rejected where it is read.

Each guard is a comparison that a NaN trips: `not x > 0` rather than
`x <= 0`, `not np.all(...)` rather than `np.any(...)`.  The CLI reader
already rejects non-finite numbers; these cases reach the library directly.
"""

import numpy as np
import pytest

from sublevel_lab import kls, remez, volume
from sublevel_lab.intervals import IntervalSet
from sublevel_lab.poly import MultiPoly

NAN = float("nan")
EMPTY = np.empty(0, dtype=complex)
DENSITY = kls.PiecewiseLogLinear([0.0, 1.0], [0.0, 0.0])
E = IntervalSet.from_pairs([(0.2, 0.4)])

CASES = {
    "loglinear-breakpoint": lambda: kls.PiecewiseLogLinear([0.0, NAN], [0.0, 0.0]),
    "loglinear-log-value": lambda: kls.PiecewiseLogLinear([0.0, 1.0], [0.0, NAN]),
    # an infinite breakpoint gave an infinite mass and a vacuous lemma-a pass
    "loglinear-infinite-breakpoint": lambda: kls.PiecewiseLogLinear(
        [0.0, float("inf")], [0.0, 0.0]),
    "instance-lambda": lambda: kls.LocalizationInstance(DENSITY, (0.0, 1.0), E, NAN),
    "dense-core-lambda": lambda: kls.dense_core_1d(E, (0.0, 1.0), NAN),
    "interval-pair": lambda: IntervalSet.from_pairs([(0.1, NAN)]),
    # merged into [0, 0.5] by max(0.5, nan) = 0.5 unless rejected first
    "interval-pair-merged": lambda: IntervalSet.from_pairs([(0.0, 0.5), (0.1, NAN)]),
    "interval-arrays": lambda: IntervalSet(np.array([0.1]), np.array([NAN])),
    "disk-zero": lambda: remez.DiskFunction(np.array([NAN]), EMPTY, np.empty(0)),
    "disk-atom-location": lambda: remez.DiskFunction(
        EMPTY, np.array([complex(NAN, 0.0)]), np.array([0.1])),
    "disk-atom-weight": lambda: remez.DiskFunction(
        EMPTY, np.array([1.0 + 0j]), np.array([NAN])),
    "disk-const": lambda: remez.DiskFunction(EMPTY, EMPTY, np.empty(0), NAN),
    "quantile-coefficient": lambda: volume.check_quantile_bounds(
        MultiPoly(1, np.array([[0], [1]]), np.array([0.5, NAN])),
        volume.BallSpec(np.zeros(1), 0.5, 0.25), [2.0], 1000, 1),
}


@pytest.mark.parametrize("case", CASES)
def test_nan_is_rejected(case):
    with pytest.raises(ValueError):
        CASES[case]()


# unchecked, each drives the branch and bound past its segment cap to a
# RuntimeError that does not name the input
FINITE_CASES = {
    "classical-nan-coefficient": lambda: remez.classical_remez_check(
        [1.0, NAN], (0.0, 0.5), E),
    "classical-infinite-coefficient": lambda: remez.classical_remez_check(
        [float("inf"), 1.0], (0.0, 0.5), E),
    "disk-infinite-atom-weight": lambda: remez.DiskFunction(
        EMPTY, np.array([1.0 + 0j]), np.array([float("inf")])),
}


@pytest.mark.parametrize("case", FINITE_CASES)
def test_non_finite_is_rejected_by_name(case):
    with pytest.raises(ValueError, match="finite"):
        FINITE_CASES[case]()

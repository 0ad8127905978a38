import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sublevel_lab.intervals import IntervalSet

pair = st.tuples(st.floats(-5, 5), st.floats(0, 2)).map(
    lambda t: (t[0], t[0] + t[1]))
pairs = st.lists(pair, min_size=0, max_size=8)


def intersect_length(s: IntervalSet, lo: float, hi: float) -> float:
    """|s ∩ [lo, hi]| summed over the components; the reference for measure_below."""
    return float(np.sum(np.maximum(np.minimum(s.upper, hi) - np.maximum(s.lower, lo), 0.0)))


def union(a: IntervalSet, b: IntervalSet) -> IntervalSet:
    return IntervalSet.from_pairs(a.pairs() + b.pairs())


def contains_point(s: IntervalSet, x: float) -> bool:
    return IntervalSet.from_pairs([(x, x)]).is_subset_of(s)


def test_merging_and_sorting():
    s = IntervalSet.from_pairs([(2.0, 3.0), (0.0, 1.0), (0.5, 1.5)])
    assert s.pairs() == [(0.0, 1.5), (2.0, 3.0)]
    assert s.total_length == pytest.approx(2.5)


def test_touching_intervals_merge():
    s = IntervalSet.from_pairs([(0.0, 1.0), (1.0, 2.0)])
    assert s.n_components == 1


def test_invalid_pair_rejected():
    with pytest.raises(ValueError):
        IntervalSet.from_pairs([(1.0, 0.0)])


def test_direct_constructor_validates_disjointness():
    with pytest.raises(ValueError):
        IntervalSet(np.array([0.0, 0.5]), np.array([1.0, 2.0]))


def test_intersect_length():
    s = IntervalSet.from_pairs([(0.0, 1.0), (2.0, 3.0)])
    assert intersect_length(s, 0.5, 2.5) == pytest.approx(1.0)
    assert intersect_length(s, -1.0, -0.5) == 0.0


def test_measure_below_matches_intersect_length():
    s = IntervalSet.from_pairs([(0.0, 1.0), (2.0, 3.0)])
    xs = np.array([-1.0, 0.5, 1.5, 2.5, 4.0])
    expected = [intersect_length(s, -10.0, x) for x in xs]
    np.testing.assert_allclose(s.measure_below(xs), expected)


def test_subset_and_contains():
    s = IntervalSet.from_pairs([(0.0, 1.0), (2.0, 3.0)])
    e = IntervalSet.from_pairs([(0.2, 0.4), (2.5, 3.0)])
    assert e.is_subset_of(s)
    assert not s.is_subset_of(e)
    assert contains_point(s, 2.0)
    assert not contains_point(s, 1.5)


@given(pairs)
def test_from_pairs_idempotent(ps):
    s = IntervalSet.from_pairs(ps)
    t = IntervalSet.from_pairs(s.pairs())
    assert s.pairs() == t.pairs()


@given(pairs)
def test_components_disjoint_and_sorted(ps):
    s = IntervalSet.from_pairs(ps)
    lo, hi = s.lower, s.upper
    assert np.all(hi >= lo)
    if lo.size > 1:
        assert np.all(lo[1:] > hi[:-1])


@given(pairs, pairs)
def test_union_length_superadditive(ps, qs):
    a = IntervalSet.from_pairs(ps)
    b = IntervalSet.from_pairs(qs)
    u = union(a, b)
    assert u.total_length <= a.total_length + b.total_length + 1e-12
    assert u.total_length >= max(a.total_length, b.total_length) - 1e-12

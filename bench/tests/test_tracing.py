"""The tracer: wrapping, restoring, counts and the span tree."""

import numpy as np
import pytest

from sublevel_lab import kls, poly, remez, volume
from sublevel_lab.intervals import IntervalSet

from tracing import Tracer


def small_calls():
    base = poly.normalize(poly.from_terms(1, {(0,): 0.5, (1,): 0.5}))
    p = poly.lift(base, 2)
    spec = volume.BallSpec(np.zeros(2), 0.7, 0.25)
    volume.check_quantile_bounds(p, spec, [2.0], 70_000, 3, threads=1)
    volume.sample_moduli(p, spec, 70_000, 3, threads=2)
    inst = kls.random_instance(np.random.default_rng(0))
    kls.localization_check_1d(inst, 32)
    f = remez.DiskFunction(np.array([0.3 + 0.2j]), np.empty(0), np.empty(0))
    remez.remez_check(f, 0.8, (-0.5, 0.5), IntervalSet.from_pairs([(0.0, 0.2)]), 2001, 101)


@pytest.fixture(scope="module")
def tracer():
    tr = Tracer()
    with tr:
        with tr.span("bench.pass"):
            small_calls()
    return tr


def test_self_times_sum_to_root(tracer):
    root = tracer.spans[0]
    assert root[0] == "bench.pass" and root[3] == -1
    assert all(p >= 0 for _, _, _, p in tracer.spans[1:])
    selfs = tracer.self_times()
    assert min(selfs) >= 0.0
    assert sum(selfs) == pytest.approx(root[2] - root[1], rel=1e-9)
    assert sum(tracer.self_by_layer().values()) == pytest.approx(root[2] - root[1], rel=1e-9)


def test_spans_nest_inside_parents(tracer):
    for name, start, end, parent in tracer.spans[1:]:
        _, p_start, p_end, _ = tracer.spans[parent]
        assert p_start <= start <= end <= p_end


def test_imported_names_are_recorded(tracer):
    names = {s[0] for s in tracer.spans}
    # volume calls eval_many and kls calls min_interval_ratio_many through
    # the names they imported; remez calls scipy through its own global.
    assert "poly.eval_many" in names
    assert "kls.min_interval_ratio_many" in names
    assert "remez.local_search" in names
    assert tracer.counts["intervals.measure_below.calls"] > 0
    assert tracer.counts["kls.candidate_points"] > 0


def test_worker_thread_calls_are_counted_not_timed(tracer):
    # 70_000 draws are two chunks; threads=2 runs them on pool threads.
    assert tracer.counts["volume.sample_moduli.calls"] == 2
    assert tracer.counts["volume.samples_drawn"] == 140_000
    assert tracer.counts["poly.eval_many.calls"] == 4
    timed = [s for s in tracer.spans if s[0] == "poly.eval_many"]
    assert len(timed) == 2
    assert tracer.counts["poly.term_evals"] == 2 * 70_000 * 2  # two passes, two terms


def test_inclusive_time_counts_recursion_once():
    tr = Tracer()
    with tr.span("a"):
        with tr.span("a"):
            with tr.span("b"):
                pass
    total = tr.spans[0][2] - tr.spans[0][1]
    assert tr.inclusive_by_name()["a"] == pytest.approx(total)


def test_uninstall_restores_every_name():
    before = (volume.eval_many, poly.eval_many, IntervalSet.measure_below,
              remez.minimize_scalar, kls._candidate_points)
    with Tracer():
        assert volume.eval_many is not before[0]
        assert volume.eval_many is poly.eval_many
    after = (volume.eval_many, poly.eval_many, IntervalSet.measure_below,
             remez.minimize_scalar, kls._candidate_points)
    assert after == before

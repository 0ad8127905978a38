"""Span and count recording around the calls into each `sublevel_lab` layer.

A layer is a module.  `Tracer.install` replaces every public module-level
function of every module with a recording wrapper, in the defining module
and in every module (the package included) that imported the name, so a
call is recorded whichever namespace it goes through.  Three more names are
wrapped for their counts: `remez.minimize_scalar` (the scipy local search,
recorded as `remez.local_search`), the method `IntervalSet.measure_below`
and `kls._candidate_points`.

Spans (name, start, end, parent) are recorded on the thread that installed
the tracer.  Calls made on pool worker threads run concurrently with the
span that started the pool, so they are counted but not timed; that span's
time covers them.  Everything stays in memory until `write`.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import threading
import time
from collections import Counter
from pathlib import Path

MODULES = ("intervals", "kls", "mobius", "poly", "remez", "reports",
           "sampling", "thinrect", "volume", "cli")


def _arg(args, kwargs, index: int, name: str, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _file_size(args, kwargs, result):
    return Path(_arg(args, kwargs, 0, "path")).stat().st_size


# Per-call counts: span name -> [(counter, fn(args, kwargs, result) -> number)].
COUNTERS = {
    "volume.sample_moduli": [("volume.samples_drawn", lambda a, k, r: _arg(a, k, 2, "count"))],
    "volume.level_fraction": [("volume.samples_drawn", lambda a, k, r: _arg(a, k, 4, "count"))],
    "poly.eval_many": [("poly.term_evals", lambda a, k, r: len(_arg(a, k, 1, "points"))
                        * _arg(a, k, 0, "p").n_terms)],
    "remez.log_abs_f": [("remez.log_abs_f.points",
                         lambda a, k, r: int(getattr(_arg(a, k, 1, "x"), "size", 1)))],
    "mobius.check_curvature": [("mobius.curvature_grid_points",
                                lambda a, k, r: _arg(a, k, 1, "r_grid", 10_000)
                                * _arg(a, k, 2, "alpha_grid", 360))],
    "kls.localization_check_1d": [("kls.core_gap", lambda a, k, r: r.lhs_outer - r.lhs_inner)],
    "kls._candidate_points": [("kls.candidate_points", lambda a, k, r: int(r.size))],
    "thinrect.sublevel_measure": [("thinrect.grid_points_scanned",
                                   lambda a, k, r: _arg(a, k, 3, "grid", 1 << 17) + 1)],
    "reports.write_json": [("reports.bytes_written", _file_size)],
    "reports.write_csv": [("reports.bytes_written", _file_size)],
}


class Tracer:
    """Records spans and counts while installed; restores on uninstall."""

    def __init__(self):
        self.spans: list[list] = []      # [name, start, end, parent index]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._thread = threading.get_ident()
        self._lock = threading.Lock()
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------
    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself."""
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _count(self, name, args, kwargs, result):
        extra = [(c, fn(args, kwargs, result)) for c, fn in COUNTERS.get(name, ())]
        with self._lock:
            self.counts[name + ".calls"] += 1
            for counter, value in extra:
                self.counts[counter] += value

    def wrap(self, name, fn, timed: bool = True):
        name_of = (lambda a, k: name) if not callable(name) else name

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name_of(args, kwargs)
            if not timed or threading.get_ident() != self._thread:
                result = fn(*args, **kwargs)
            else:
                idx = self._open(label)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self._close(idx)
            self._count(label, args, kwargs, result)
            return result

        return wrapper

    # -- installation -------------------------------------------------
    def _set(self, owner, attr: str, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        package = importlib.import_module("sublevel_lab")
        modules = {m: importlib.import_module(f"sublevel_lab.{m}") for m in MODULES}
        originals = {}
        for short, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    label = f"{short}.{attr}"
                    if label == "cli.run":
                        label = lambda a, k: "cli.run." + str(_arg(a, k, 0, "config")["subcommand"])
                    originals[id(obj)] = self.wrap(label, obj)
        for mod in [package, *modules.values()]:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in originals and inspect.isfunction(obj):
                    self._set(mod, attr, originals[id(obj)])
        remez, kls, intervals = modules["remez"], modules["kls"], modules["intervals"]
        self._set(remez, "minimize_scalar",
                  self.wrap("remez.local_search", remez.minimize_scalar))
        self._set(kls, "_candidate_points",
                  self.wrap("kls._candidate_points", kls._candidate_points, timed=False))
        self._set(intervals.IntervalSet, "measure_below",
                  self.wrap("intervals.measure_below",
                            intervals.IntervalSet.measure_below))
        return self

    def uninstall(self):
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    # -- analysis -----------------------------------------------------
    def children(self) -> list[list[int]]:
        kids: list[list[int]] = [[] for _ in self.spans]
        for i, (_, _, _, parent) in enumerate(self.spans):
            if parent >= 0:
                kids[parent].append(i)
        return kids

    def self_times(self) -> list[float]:
        """Duration of each span minus the part of it its children cover."""
        kids = self.children()
        out = []
        for i, (_, start, end, _) in enumerate(self.spans):
            covered, reach = 0.0, start
            for s, e in sorted((self.spans[c][1], self.spans[c][2]) for c in kids[i]):
                s, e = max(s, reach), min(e, end)
                if e > s:
                    covered += e - s
                    reach = e
            out.append((end - start) - covered)
        return out

    def inclusive_by_name(self) -> dict[str, float]:
        """Total time per span name, not counting a span nested in another
        span of the same name twice."""
        totals: Counter = Counter()
        for i, (name, start, end, parent) in enumerate(self.spans):
            p = parent
            while p >= 0 and self.spans[p][0] != name:
                p = self.spans[p][3]
            if p < 0:
                totals[name] += end - start
        return dict(totals)

    def self_by_layer(self) -> dict[str, float]:
        """Self time summed per layer, the span name's first component."""
        totals: Counter = Counter()
        for (name, *_), t in zip(self.spans, self.self_times()):
            totals[name.split(".", 1)[0]] += t
        return dict(totals)

    def write(self, path: Path):
        path.parent.mkdir(parents=True, exist_ok=True)
        selfs = self.self_times()
        doc = {
            "fields": ["name", "start_s", "end_s", "parent", "self_s"],
            "spans": [[n, s, e, p, t] for (n, s, e, p), t in zip(self.spans, selfs)],
            "counts": dict(sorted(self.counts.items())),
        }
        path.write_text(json.dumps(doc, separators=(",", ":")) + "\n")

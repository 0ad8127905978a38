"""sublevel-lab benchmark: acceptance-scale checks, timed end to end and
traced layer by layer.

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

With --trace 0 a run repeats timed passes while the next one still fits in
--seconds (at least one), after an untimed warm-up pass on workloads that
run cold, and reports the end-to-end metrics.  With --trace 1
it makes a warm-up pass, one traced and one untraced pass and the
workload's probes, then reports the per-layer metrics and writes the spans to
bench-trace/.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
IMPORT_REPEATS = 3
CHILD_TIMEOUT_S = 170

END_TO_END = {"setup_s": "s", "run_s": "s", "cpu_s": "s", "peak_rss_mb": "MiB"}

# Per-layer metrics.  Names ending in ".s" are the traced time of the span of
# that name; ".self_s" is a layer's self time; everything else is a count,
# except the probe metrics listed in PROBES.
PER_LAYER = {
    "volume.check_quantile_bounds.s": "s",
    "volume.check_superlevel_power_bound.s": "s",
    "volume.level_fraction.s": "s",
    "volume.sample_moduli.s": "s",
    "volume.sample_moduli.calls": "count",
    "volume.samples_drawn": "count",
    "poly.term_evals": "count",
    "volume.sample_ball.s": "s",
    "poly.eval_many.s": "s",
    "volume.sample_moduli.residual_s": "s",
    "sampling.map_chunks.speedup_2t": "x",
    "thinrect.rectangle_moduli.s": "s",
    "thinrect.limit_moduli.s": "s",
    "sampling.ks_distance.s": "s",
    "mobius.check_log_concavity.s": "s",
    "mobius.check_curvature.s": "s",
    "mobius.check_radial_profile.s": "s",
    "mobius.check_preimage_convexity.s": "s",
    "mobius.curvature_grid_points": "count",
    "remez.factor_bounds.s": "s",
    "remez.remez_check.s": "s",
    "remez.max_log_abs_on_interval.s": "s",
    "remez.sup_log_abs_on_set.s": "s",
    "remez.classical_remez_check.s": "s",
    "remez.blaschke_log_abs.s": "s",
    "remez.log_abs_f.calls": "count",
    "remez.log_abs_f.points": "count",
    "remez.local_search.calls": "count",
    "remez.local_search.s": "s",
    "kls.localization_check_1d.s": "s",
    "kls.dense_core_1d.s": "s",
    "kls.min_interval_ratio_many.s": "s",
    "kls.min_interval_ratio_many.calls": "count",
    "kls.min_interval_ratio.calls": "count",
    "intervals.measure_below.calls": "count",
    "kls.candidate_points": "count",
    "kls.core_gap": "mass",
    "thinrect.oracle_required_exponent.s": "s",
    "thinrect.oracle_quantile.calls": "count",
    "thinrect.sublevel_measure.calls": "count",
    "thinrect.sublevel_measure.s": "s",
    "thinrect.grid_points_scanned": "count",
    "cli.run.theorem.s": "s",
    "cli.run.lemma-a.s": "s",
    "cli.run.lemma-b.s": "s",
    "cli.run.lemma-c.s": "s",
    "cli.run.counterexample.s": "s",
    "reports.write_json.s": "s",
    "reports.write_csv.s": "s",
    "reports.bytes_written": "count",
    "sublevel_lab.import_s": "s",
    "trace.overhead_s": "s",
    "volume.self_s": "s",
    "sampling.self_s": "s",
    "poly.self_s": "s",
    "mobius.self_s": "s",
    "remez.self_s": "s",
    "kls.self_s": "s",
    "intervals.self_s": "s",
    "thinrect.self_s": "s",
    "cli.self_s": "s",
    "reports.self_s": "s",
    "bench.self_s": "s",
}
# Measured by probes outside the traced pass, not read from spans.
PROBES = {"volume.sample_ball.s", "poly.eval_many.s", "volume.sample_moduli.residual_s",
          "sampling.map_chunks.speedup_2t", "sublevel_lab.import_s", "trace.overhead_s"}


def cpu_seconds() -> float:
    """User + system CPU of this process and of its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    """Largest resident set of this process or of any waited-for child (MiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def setup_seconds(workload: str, seed: int) -> float:
    """Median wall time from spawning a fresh interpreter to the moment it
    has imported the package and built the inputs."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.monotonic()
        out = subprocess.run([sys.executable, str(BENCH / "setup_probe.py"), workload,
                              str(seed)], check=True, capture_output=True, text=True,
                             timeout=CHILD_TIMEOUT_S).stdout
        times.append(float(out.split()[-1]) - start)
    return median(times)


def import_seconds() -> float:
    """Median time a fresh interpreter spends in `import sublevel_lab`."""
    code = ("import time; t = time.perf_counter(); import sublevel_lab; "
            "print(repr(time.perf_counter() - t))")
    times = []
    for _ in range(IMPORT_REPEATS):
        out = subprocess.run([sys.executable, "-c", code], check=True, capture_output=True,
                             text=True, timeout=CHILD_TIMEOUT_S,
                             env={**os.environ, "PYTHONPATH": str(SRC)}).stdout
        times.append(float(out.split()[-1]))
    return median(times)


def timed_pass(pass_fn, inputs):
    c0, t0 = cpu_seconds(), time.perf_counter()
    ops = pass_fn(inputs)
    t1, c1 = time.perf_counter(), cpu_seconds()
    return t1 - t0, c1 - c0, ops


def ball_probe(inputs, ops):
    """Split sample_moduli into draws plus ball transform, polynomial
    evaluation, and the rest (concatenation and sort), one input per n, and
    time it at 1 and 2 threads.  Both must give the same sorted sample."""
    import numpy as np
    from sublevel_lab import poly, sampling, volume

    t = {"ball": 0.0, "eval": 0.0, "sm1": 0.0, "sm2": 0.0}
    for case in inputs["cases"]:
        if case["template"] != "random_cubic":
            continue
        p, spec, seed, count = case["poly"], case["spec"], case["seed"], 1_000_000
        t0 = time.perf_counter()
        pts = volume.sample_ball(spec, count, seed, threads=1)
        t1 = time.perf_counter()
        mods = [np.abs(poly.eval_many(p, pts[i:i + sampling.CHUNK_SIZE]))
                for i in range(0, count, sampling.CHUNK_SIZE)]
        t2 = time.perf_counter()
        one = volume.sample_moduli(p, spec, count, seed, threads=1)
        t3 = time.perf_counter()
        two = volume.sample_moduli(p, spec, count, seed, threads=2)
        t4 = time.perf_counter()
        del pts
        for key, dt in zip(t, (t1 - t0, t2 - t1, t3 - t2, t4 - t3)):
            t[key] += dt
        ops.check(f"probe/sample_moduli/n={case['n']}", lambda: (
            bool(np.array_equal(np.sort(np.concatenate(mods)), one.sorted_moduli)
                 and np.array_equal(one.sorted_moduli, two.sorted_moduli)), ""))
    return {"volume.sample_ball.s": t["ball"], "poly.eval_many.s": t["eval"],
            "volume.sample_moduli.residual_s": t["sm1"] - t["ball"] - t["eval"],
            "sampling.map_chunks.speedup_2t": t["sm1"] / t["sm2"]}


def layer_metrics(tracer, probes: dict) -> dict:
    spans = tracer.inclusive_by_name()
    layers = tracer.self_by_layer()
    out = {}
    for name, unit in PER_LAYER.items():
        if name in PROBES:
            value = probes.get(name, 0.0)
        elif name.endswith(".self_s"):
            value = layers.get(name[:-len(".self_s")], 0.0)
        elif name.endswith(".s"):
            value = spans.get(name[:-2], 0.0)
        else:
            value = tracer.counts.get(name, 0)
        out[name] = {"value": value, "unit": unit}
    return out


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> dict:
    setup = setup_seconds(name, seed)
    import workloads  # imports sublevel_lab from SRC
    import sublevel_lab
    if Path(sublevel_lab.__file__).resolve().parent != SRC / "sublevel_lab":
        raise SystemExit(f"sublevel_lab imported from {sublevel_lab.__file__}, not {SRC}")

    build, pass_fn, warm_up = workloads.WORKLOADS[name]
    inputs = build(seed, ROOT)
    records = []
    if not trace:
        if warm_up:
            records += pass_fn(inputs).records
        walls, cpus = [], []
        start = time.perf_counter()
        while not walls or time.perf_counter() - start + median(walls) <= seconds:
            wall, cpu, ops = timed_pass(pass_fn, inputs)
            walls.append(wall)
            cpus.append(cpu)
            records += ops.records
        passes = f"{len(walls)} timed ({', '.join(f'{w:.3f}' for w in walls)} s)"
        if warm_up:
            passes += " after 1 warm-up"
        metrics = {"setup_s": setup, "run_s": median(walls), "cpu_s": median(cpus),
                   "peak_rss_mb": peak_rss_mb()}
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}
    else:
        from tracing import Tracer
        # A warm-up pass first, so that the traced and the untraced pass
        # both run warm and their difference is the tracing overhead.
        records += pass_fn(inputs).records
        tracer = Tracer()
        with tracer:
            with tracer.span("bench.pass"):
                ops = pass_fn(inputs)
            records += ops.records
            if name == "cli_all":
                with tracer.span("bench.in_process"):
                    records += workloads.run_in_process(inputs).records
        traced_wall = tracer.spans[0][2] - tracer.spans[0][1]
        plain_wall, _, ops = timed_pass(pass_fn, inputs)
        records += ops.records
        passes = f"warm-up, traced ({traced_wall:.3f} s), untraced ({plain_wall:.3f} s)"
        probes = {"trace.overhead_s": traced_wall - plain_wall,
                  "sublevel_lab.import_s": import_seconds()}
        if name == "ball_mc":
            ops = workloads.Ops()
            probes.update(ball_probe(inputs, ops))
            records += ops.records
        tracer.write(ROOT / "bench-trace" / f"{name}-seed{seed}.json")
        metrics = layer_metrics(tracer, probes)
    failed = [r for r in records if r.status == "failed"]
    wrong = [r for r in records if r.status == "wrong"]
    for r in (failed + wrong)[:20]:
        print(f"{r.status.upper()}: {r.name}: {r.detail}", file=sys.stderr)
    print(f"workload {name}  seed {seed}  passes {passes}  "
          f"operations attempted {len(records)}  failed {len(failed)}  wrong {len(wrong)}")
    for key, m in metrics.items():
        print(f"  {key:40s} {m['value']:.6g} {m['unit']}")
    return {"correct": not wrong, "attempted": len(records), "failed": len(failed),
            "metrics": metrics}


def run_all(args) -> dict:
    """Each workload in its own process, one after another."""
    from workloads import WORKLOADS
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=3 * CHILD_TIMEOUT_S)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"workload {name} exited with {proc.returncode}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for key, m in result["metrics"].items():
            total["metrics"][f"{name}.{key}"] = m
    return total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=["all", "ball_mc", "disk_remez", "core_oracle", "cli_all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=28)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (SRC / "sublevel_lab" / "__init__.py").is_file():
        print(f"error: no sublevel_lab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH)]
    if args.workload == "all":
        result = run_all(args)
    else:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Batch experiment runner.

Usage:  sublevel-lab <subcommand> --config <path> [--out <dir>] [--threads <k>]
        sublevel-lab suite [--seed <s>] [--out <dir>] [--threads <k>]

Every run writes manifest.json (the exact config echoed back, plus the tool
version), report.csv and report.json to the output directory, and exits 0
exactly when every reported row passes.  All randomness flows from the
single seed in the config; environment variables are never consulted, and
the worker count cannot change any reported number.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .intervals import IntervalSet
from .kls import localization_check_1d, parse_instance, random_instance
from .mobius import run_all_checks
from .poly import normalize, parse_poly
from .remez import (DiskFunction, classical_remez_check, factor_bounds,
                    parse_disk_function, remez_check)
from .reports import write_csv, write_json
from .sampling import STREAM_SUITE, chunk_rng, ks_distance
from .thinrect import (build_function, chebyshev_on_quarter, disk_normalized,
                       growth_experiment, limit_moduli, monomial_on_quarter,
                       rectangle_moduli)
from .volume import (BallSpec, check_quantile_bounds,
                     check_superlevel_power_bound)

SUBCOMMANDS = ("theorem", "lemma-a", "lemma-b", "lemma-c", "counterexample", "all")
# Only an input bound: the dense core is computed in closed form, so
# `resolution` no longer changes any number.
MAX_RESOLUTION = 1 << 16


class ConfigError(ValueError):
    """Invalid experiment configuration; the message names the field."""


def _require(cond: bool, message: str):
    if not cond:
        raise ConfigError(message)


def _get(inputs: dict, field: str, default=None, required=False):
    if field in inputs:
        return inputs[field]
    _require(not required, f"{field} is required")
    return default


def _as_int(value, field: str) -> int:
    """`value` as an int: an int, or a float with an integral value (JSON
    writers may print 100000 as 1e5).  Anything else, infinities and NaN
    included, is a ConfigError naming `field`."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    _require(isinstance(value, int) and not isinstance(value, bool),
             f"{field} must be an integer, got {value!r}")
    return value


def _get_int(inputs: dict, field: str, default=None, required=False) -> int:
    return _as_int(_get(inputs, field, default, required), field)


def load_config(path: str) -> dict:
    doc = json.loads(Path(path).read_text())
    # accept a previously written manifest as a config
    if "config" in doc and "subcommand" not in doc:
        doc = doc["config"]
    _require(isinstance(doc, dict), "config must be a JSON object")
    sub = doc.get("subcommand")
    _require(sub in SUBCOMMANDS, f"subcommand must be one of {SUBCOMMANDS}")
    _require(isinstance(doc.get("seed"), int), "seed must be an integer")
    doc.setdefault("inputs", {})
    return doc


# ----------------------------------------------------------------------
# Subcommand runners.  Each returns (rows, csv_header, csv_rows).

def _run_theorem(inputs: dict, seed: int, threads: int):
    text = _get(inputs, "poly", required=True)
    poly = parse_poly(text)
    if bool(_get(inputs, "normalize", True)):
        poly = normalize(poly)
    epsilon = float(_get(inputs, "epsilon", required=True))
    _require(0.0 < epsilon, "epsilon must be positive")
    _require(epsilon <= 0.25, "epsilon must be <= 0.25")
    radius = float(_get(inputs, "radius", required=True))
    _require(math.isfinite(radius) and radius >= 0,
             "radius must be finite and >= 0")
    center = np.asarray(_get(inputs, "center", [0.0] * poly.dim), dtype=float)
    _require(center.size == poly.dim, "center must match the polynomial dimension")
    spec = BallSpec(center, radius, epsilon)
    lambdas = [float(l) for l in _get(inputs, "lambdas", [1.5, 2.0, 4.0, 8.0])]
    _require(len(lambdas) > 0, "lambdas must be non-empty")
    _require(all(l > 1.0 for l in lambdas), "lambdas must all exceed 1")
    samples = _get_int(inputs, "samples", 100_000)
    _require(samples >= 1000, "samples must be >= 1000")

    c = _get(inputs, "strong_form_c", None)
    c = None if c is None else float(c)
    _require(c is None or (math.isfinite(c) and c > 0),
             "strong_form_c must be finite and > 0")

    qb = check_quantile_bounds(poly, spec, lambdas, samples, seed, threads)
    c = qb.quantile if c is None else c
    sf = check_superlevel_power_bound(poly, spec, c, lambdas, samples, seed,
                                      threads)

    header = ["lambda", "sigma", "M", "threshold_log", "fraction", "bound",
              "std_err", "pass"]
    csv_rows = []
    rows = []
    for r in qb.rows:
        csv_rows.append([r.lam, r.sigma, r.quantile, r.small_threshold_log,
                         r.small_fraction, r.small_bound, r.small_std_err,
                         r.passed])
        csv_rows.append([r.lam, r.sigma, r.quantile, r.tail_threshold_log,
                         r.tail_fraction, r.tail_bound, r.tail_std_err,
                         r.passed])
        rows.append({"check": "quantile_bounds", "lambda": r.lam,
                     "sigma": r.sigma, "M": r.quantile,
                     "small_fraction": r.small_fraction,
                     "small_bound": r.small_bound,
                     "tail_fraction": r.tail_fraction,
                     "tail_bound": r.tail_bound, "pass": r.passed})
    for r in sf.rows:
        log_thr = math.log(c) + sf.sigma * math.log(8.0 * r.lam)
        csv_rows.append([r.lam, sf.sigma, c, log_thr, r.lhs, r.rhs,
                         r.margin / 3.0, r.passed])
        rows.append({"check": "superlevel_power", "lambda": r.lam,
                     "sigma": sf.sigma, "c": c, "lhs": r.lhs, "rhs": r.rhs,
                     "pass": r.passed})
    return rows, header, csv_rows


def _run_lemma_a(inputs: dict, seed: int, threads: int):
    resolution = _get_int(inputs, "resolution", 512)
    _require(2 <= resolution <= MAX_RESOLUTION,
             f"resolution must lie in [2, {MAX_RESOLUTION}]")
    rows = []
    header = ["check", "lambda", "lhs_inner", "lhs_outer", "rhs", "pass"]
    csv_rows = []

    text = _get(inputs, "instance", None)
    if text is not None:
        inst = parse_instance(text)
        rep = localization_check_1d(inst, resolution)
        rows.append({"check": "instance", "lambda": inst.lam,
                     "lhs_inner": rep.lhs_inner, "lhs_outer": rep.lhs_outer,
                     "rhs": rep.rhs, "pass": rep.passed})
        csv_rows.append(["instance", inst.lam, rep.lhs_inner, rep.lhs_outer,
                         rep.rhs, rep.passed])

    n_random = _get_int(inputs, "random_instances", 0)
    rng = chunk_rng(seed, STREAM_SUITE, 0)
    for k in range(n_random):
        inst = random_instance(rng)
        rep = localization_check_1d(inst, resolution)
        rows.append({"check": f"random_{k}", "lambda": inst.lam,
                     "lhs_inner": rep.lhs_inner, "lhs_outer": rep.lhs_outer,
                     "rhs": rep.rhs, "pass": rep.passed})
        csv_rows.append([f"random_{k}", inst.lam, rep.lhs_inner,
                         rep.lhs_outer, rep.rhs, rep.passed])
    _require(rows, "instance or random_instances must be given")
    return rows, header, csv_rows


def _random_disk_function(rng: np.random.Generator, max_zeros: int = 30,
                          max_atoms: int = 5) -> tuple[DiskFunction, float]:
    n_zeros = int(rng.integers(0, max_zeros + 1))
    radii = np.sqrt(rng.random(n_zeros)) * 0.995
    angles = rng.random(n_zeros) * 2.0 * np.pi
    zeros = radii * np.exp(1j * angles)
    n_atoms = int(rng.integers(0, max_atoms + 1))
    locs = np.exp(1j * rng.random(n_atoms) * 2.0 * np.pi)
    weights = rng.random(n_atoms) * 0.5 + 1e-3
    const = np.exp(1j * rng.random() * 2.0 * np.pi)
    a = float(rng.uniform(0.5, 0.99))
    return DiskFunction(zeros, locs, weights, const), a


def _random_subset(rng: np.random.Generator, lo: float, hi: float,
                   max_components: int = 10, min_fraction: float = 0.01
                   ) -> IntervalSet:
    width = hi - lo
    for _ in range(100):
        n = int(rng.integers(1, max_components + 1))
        cuts = np.sort(rng.uniform(lo, hi, 2 * n))
        e = IntervalSet.from_pairs(
            [(cuts[2 * k], cuts[2 * k + 1]) for k in range(n)])
        if e.total_length >= min_fraction * width:
            return e
    return IntervalSet.from_pairs([(lo, lo + min_fraction * width)])


def _run_lemma_b(inputs: dict, seed: int, threads: int):
    n_grid = _get_int(inputs, "grid", 100_000)
    per_component = _get_int(inputs, "per_component", 1000)
    rows = []
    header = ["check", "a", "statistic", "bound", "pass"]
    csv_rows = []

    def record(name, a, stat, bound, ok):
        rows.append({"check": name, "a": a, "statistic": stat,
                     "bound": bound, "pass": bool(ok)})
        csv_rows.append([name, a, stat, bound, bool(ok)])

    def run_one(tag, f, a, interval, e):
        fb = factor_bounds(f, a)
        record(f"{tag}_outer_min", a, fb.outer_min, fb.outer_min_bound,
               fb.extras["outer_pass"])
        record(f"{tag}_b1_min", a, fb.b1_min, fb.b1_min_bound,
               fb.extras["b1_pass"])
        record(f"{tag}_count", a, fb.n_b2, fb.n_b2_bound,
               fb.extras["count_pass"])
        record(f"{tag}_denominator_ratio", a, fb.r_ratio, fb.r_ratio_bound,
               fb.extras["r_pass"])
        rz = remez_check(f, a, interval, e, n_grid, per_component)
        record(f"{tag}_remez", a, rz.log_max_i, rz.log_bound, rz.passed)

    text = _get(inputs, "function", None)
    if text is not None:
        f = parse_disk_function(text)
        a = float(_get(inputs, "a", required=True))
        _require(0.0 < a < 1.0, "a must lie in (0, 1)")
        interval = _get(inputs, "interval", [-a, a])
        pairs = _get(inputs, "set", [[interval[0],
                                      interval[0] + (interval[1] - interval[0]) / 5.0]])
        run_one("given", f, a, (float(interval[0]), float(interval[1])),
                IntervalSet.from_pairs(pairs))

    n_random = _get_int(inputs, "random_instances", 0)
    rng = chunk_rng(seed, STREAM_SUITE, 1)
    for k in range(n_random):
        f, a = _random_disk_function(rng)
        lo = float(rng.uniform(-a, 0.0))
        hi = float(rng.uniform(lo + 0.05 * a, a))
        e = _random_subset(rng, lo, hi)
        run_one(f"random_{k}", f, a, (lo, hi), e)

    n_classical = _get_int(inputs, "classical_instances", 0)
    for k in range(n_classical):
        deg = int(rng.integers(0, 21))
        coeffs = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
        lo, hi = -0.9, 0.9
        e = _random_subset(rng, lo, hi, max_components=5, min_fraction=0.05)
        rep = classical_remez_check(coeffs, (lo, hi), e, 20_001, 501)
        record(f"classical_{k}", 0.9, rep.extras["log_lhs"],
               rep.extras["log_rhs"], rep.passed)

    _require(rows, "function, random_instances or classical_instances required")
    return rows, header, csv_rows


def _run_lemma_c(inputs: dict, seed: int, threads: int):
    delta = float(_get(inputs, "delta", required=True))
    _require(0.0 < delta <= 0.125, "delta must lie in (0, 1/8]")
    n = _get_int(inputs, "n", 2)
    _require(n >= 1, "n must be >= 1")
    trials = _get_int(inputs, "trials", 100_000)
    r_grid = _get_int(inputs, "r_grid", 10_000)
    alpha_grid = _get_int(inputs, "alpha_grid", 360)
    reports = run_all_checks(delta, n, trials, seed, threads, r_grid, alpha_grid)
    header = ["check", "delta", "n", "seed", "statistic", "bound", "pass"]
    rows = [r.to_row() for r in reports]
    csv_rows = [[r.check, r.delta, r.n, r.seed, r.statistic, r.bound,
                 bool(r.passed)] for r in reports]
    return rows, header, csv_rows


def _family_coeffs(name: str, degrees, normalization: str):
    coeffs = []
    for d in degrees:
        if name == "chebyshev":
            q = chebyshev_on_quarter(int(d))
        elif name == "monomial":
            q = monomial_on_quarter(int(d))
        else:
            raise ConfigError("family must be 'chebyshev' or 'monomial'")
        if normalization == "disk":
            q = disk_normalized(q)
        elif normalization != "none":
            raise ConfigError("normalization must be 'disk' or 'none'")
        coeffs.append(q)
    return coeffs


def _run_counterexample(inputs: dict, seed: int, threads: int):
    family_name = str(_get(inputs, "family", "chebyshev"))
    degrees = [_as_int(d, "degrees")
               for d in _get(inputs, "degrees", [4, 8, 16, 32])]
    _require(len(degrees) >= 2,
             "degrees must hold at least 2 degrees for a growth claim")
    _require(all(d >= 0 for d in degrees), "degrees must be nonnegative")
    eta = float(_get(inputs, "eta", 0.1))
    _require(eta > 0, "eta must be positive")
    delta = float(_get(inputs, "delta", 1e-3))
    _require(0.0 < delta <= 0.5, "delta must lie in (0, 1/2]")
    lambdas = [float(l) for l in _get(inputs, "lambdas", [2.0])]
    _require(all(l >= 1.1 for l in lambdas), "lambdas must be >= 1.1")
    samples = _get_int(inputs, "samples", 100_000)
    normalization = str(_get(inputs, "normalization", "disk"))
    family = _family_coeffs(family_name, degrees, normalization)

    report = growth_experiment(family, eta, delta, lambdas, samples, seed,
                               threads)
    header = ["degQ", "F0", "sigma_theorem", "lambda", "sigma_eff", "N", "seed"]
    csv_rows = [[r.degree, r.f0_abs, r.sigma_theorem, r.lam, r.sigma_eff,
                 samples, seed] for r in report.rows]
    rows = [{"check": "growth", "degQ": r.degree, "F0": r.f0_abs,
             "sigma_theorem": r.sigma_theorem, "lambda": r.lam,
             "sigma_eff": r.sigma_eff, "sigma_eff_oracle": r.sigma_eff_oracle,
             "pass": report.passed} for r in report.rows]

    ks_delta = _get(inputs, "ks_delta", None)
    if ks_delta is not None:
        ks_delta = float(ks_delta)
        ks_degree = _get_int(inputs, "ks_degree", degrees[0])
        ks_q = _family_coeffs(family_name, [ks_degree], normalization)[0]
        f = build_function(ks_q, eta)
        rect = rectangle_moduli(f, ks_delta, samples, seed, threads)
        lim = limit_moduli(f, samples, seed + 1, threads)
        ks = ks_distance(rect.sorted_moduli, lim.sorted_moduli)
        ks_bound = float(_get(inputs, "ks_bound", 0.01))
        rows.append({"check": "ks_limit", "delta": ks_delta, "ks": ks,
                     "bound": ks_bound, "pass": ks <= ks_bound})
        csv_rows.append([ks_degree, f.f0_abs, 0.0, 0.0, ks, samples, seed])
    return rows, header, csv_rows


_RUNNERS = {
    "theorem": _run_theorem,
    "lemma-a": _run_lemma_a,
    "lemma-b": _run_lemma_b,
    "lemma-c": _run_lemma_c,
    "counterexample": _run_counterexample,
}


def _default_config(sub: str, seed: int) -> dict:
    defaults = {
        "theorem": {"poly": "0.5 0 0 0\n0.5 0 1 0", "epsilon": 0.25,
                    "radius": 0.7, "center": [0.0, 0.0],
                    "lambdas": [1.5, 2.0, 4.0, 8.0], "samples": 50_000},
        "lemma-a": {"random_instances": 25, "resolution": 256},
        "lemma-b": {"random_instances": 10, "classical_instances": 5,
                    "grid": 20_001, "per_component": 501},
        "lemma-c": {"delta": 0.125, "n": 2, "trials": 20_000,
                    "r_grid": 2_001, "alpha_grid": 181},
        "counterexample": {"family": "monomial", "degrees": [1, 2, 4],
                           "eta": 0.1, "delta": 1e-5, "lambdas": [2.0],
                           "samples": 50_000, "ks_delta": 1e-4,
                           "ks_degree": 1},
    }
    return {"subcommand": sub, "seed": seed, "inputs": defaults[sub]}


def run(config: dict, out_dir: str, threads: int = 1) -> bool:
    """Execute one experiment config; returns True when all rows pass."""
    sub = config["subcommand"]
    seed = int(config["seed"])
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    if sub == "all":
        all_ok = True
        summary_rows = []
        for name in ("theorem", "lemma-a", "lemma-b", "lemma-c",
                     "counterexample"):
            sub_cfg = _default_config(name, seed)
            sub_cfg["inputs"].update(config.get("inputs", {}).get(name, {}))
            ok = run(sub_cfg, out / name, threads)
            summary_rows.append([name, ok])
            all_ok &= ok
        write_json(out / "manifest.json",
                   {"config": config, "tool_version": __version__})
        write_csv(out / "report.csv", ["check", "pass"], summary_rows)
        write_json(out / "report.json",
                   {"rows": [{"check": n, "pass": bool(p)}
                             for n, p in summary_rows],
                    "summary": {"all_pass": bool(all_ok)}})
        return all_ok

    rows, header, csv_rows = _RUNNERS[sub](config.get("inputs", {}), seed,
                                           threads)
    n_pass = sum(1 for r in rows if r.get("pass"))
    all_ok = n_pass == len(rows)
    write_json(out / "manifest.json",
               {"config": config, "tool_version": __version__})
    write_csv(out / "report.csv", header, csv_rows)
    write_json(out / "report.json",
               {"rows": rows,
                "summary": {"n_rows": len(rows), "n_pass": n_pass,
                            "all_pass": bool(all_ok)}})
    return all_ok


# ----------------------------------------------------------------------
# Acceptance-style suite at documented reduced defaults.

SUITE_DEFAULTS = {
    "mc_samples": 100_000,
    "random_localization_instances": 40,
    "random_disk_functions": 40,
    "classical_instances": 10,
    "logconcavity_trials": 20_000,
    "r_grid": 2_001,
    "alpha_grid": 181,
    "resolution": 256,
}


def suite(seed: int, out_dir: str, threads: int = 1) -> bool:
    """Run every criterion family at the documented reduced defaults and
    print one verdict line per criterion.  Scale is reduced; tolerances and
    pass rules are the full ones, so the thin-rectangle growth criterion
    fails here for the same structural reason it fails at full scale (see
    README)."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    d = SUITE_DEFAULTS
    verdicts = []

    cfg = _default_config("lemma-c", seed)
    cfg["inputs"].update({"trials": d["logconcavity_trials"],
                          "r_grid": d["r_grid"], "alpha_grid": d["alpha_grid"]})
    ok = True
    for delta in (1 / 32, 1 / 16, 1 / 8):
        for n in (2, 8, 32):
            c = dict(cfg)
            c["inputs"] = dict(cfg["inputs"], delta=delta, n=n)
            ok &= run(c, out / f"lemma-c-{delta:.6f}-{n}", threads)
    verdicts.append(("criterion-1 map properties", ok))

    cfg = _default_config("lemma-a", seed)
    cfg["inputs"].update({"random_instances":
                          d["random_localization_instances"],
                          "resolution": d["resolution"]})
    ok = run(cfg, out / "lemma-a", threads)
    verdicts.append(("criterion-2 localization", ok))

    cfg = _default_config("lemma-b", seed)
    cfg["inputs"].update({"random_instances": d["random_disk_functions"],
                          "classical_instances": d["classical_instances"]})
    ok = run(cfg, out / "lemma-b", threads)
    verdicts.append(("criterion-3 disk remez", ok))

    cfg = _default_config("theorem", seed)
    cfg["inputs"].update({"samples": d["mc_samples"]})
    ok = run(cfg, out / "theorem", threads)
    verdicts.append(("criterion-4 ball bounds", ok))

    cfg = {"subcommand": "counterexample", "seed": seed,
           "inputs": {"family": "chebyshev", "degrees": [4, 8, 16, 32],
                      "eta": 0.1, "delta": 1e-3, "lambdas": [2.0],
                      "samples": d["mc_samples"], "normalization": "disk",
                      "ks_delta": 1e-4, "ks_degree": 4}}
    ok = run(cfg, out / "counterexample", threads)
    verdicts.append(("criterion-5 thin rectangles", ok))

    all_ok = all(ok for _, ok in verdicts)
    for name, ok in verdicts:
        print(f"{name}: {'PASS' if ok else 'FAIL'}")
    write_csv(out / "report.csv", ["check", "pass"],
              [[n, o] for n, o in verdicts])
    write_json(out / "report.json",
               {"rows": [{"check": n, "pass": bool(o)} for n, o in verdicts],
                "summary": {"all_pass": bool(all_ok)}})
    write_json(out / "manifest.json",
               {"config": {"subcommand": "suite", "seed": seed,
                           "defaults": d},
                "tool_version": __version__})
    return all_ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="sublevel-lab",
        description="Numerical checks for sublevel-set volume bounds")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in SUBCOMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=(name != "all"),
                       help="path to a JSON experiment config")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--threads", type=int, default=1)
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
    p = sub.add_parser("suite")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--out", default="suite-out")
    p.add_argument("--threads", type=int, default=1)

    args = parser.parse_args(argv)
    try:
        _require(args.threads >= 1, "--threads must be >= 1")
        if args.subcommand == "suite":
            ok = suite(args.seed, args.out, args.threads)
            return 0 if ok else 1
        if args.subcommand == "all" and args.config is None:
            config = {"subcommand": "all",
                      "seed": args.seed if args.seed is not None else 42,
                      "inputs": {}}
        else:
            config = load_config(args.config)
            _require(config["subcommand"] == args.subcommand,
                     f"config subcommand {config['subcommand']!r} does not "
                     f"match {args.subcommand!r}")
            if args.seed is not None:
                config["seed"] = args.seed
        out = args.out or config.get("output_dir") or f"out-{args.subcommand}"
        ok = run(config, out, args.threads)
        return 0 if ok else 1
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

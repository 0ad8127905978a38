"""Batch experiment runner.

Usage:  sublevel-lab <subcommand> --config <path> [--out <dir>] [--threads <k>]
        sublevel-lab suite [--seed <s>] [--out <dir>] [--threads <k>]

Every run writes manifest.json (the exact config echoed back, plus the tool,
Python and numpy versions the bytes depend on), report.csv and report.json
to the output directory, and exits 0 exactly when every reported row
passes.  All randomness flows from the single seed in the config;
environment variables are never consulted, and the worker count cannot
change any reported number.
"""

from __future__ import annotations

import argparse
import json
import math
import operator
import platform
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__
from .intervals import IntervalSet
from .kls import localization_check_1d, parse_instance, random_instance
from .mobius import run_all_checks
from .poly import normalize, parse_poly
from .remez import (classical_remez_check, factor_bounds, parse_disk_function,
                    random_disk_function, random_subset, remez_check,
                    remez_exponent)
from .reports import write_csv, write_json
from .sampling import STREAM_SUITE, chunk_rng, ks_distance
from .thinrect import (build_function, chebyshev_on_quarter, disk_normalized,
                       growth_experiment, limit_moduli, monomial_on_quarter,
                       rectangle_moduli)
from .volume import (BallSpec, check_quantile_bounds,
                     check_superlevel_power_bound)

_REQUIRED = object()


class ConfigError(ValueError):
    """Invalid experiment configuration; the message names the field."""


@dataclass(frozen=True)
class Field:
    """One config input: `kind` is int, float, bool, str, choice, object,
    pair ([lo, hi], lo < hi), ints, floats or pairs.  Bounds apply to a number
    or to each list entry; a list holds min_len to max_len entries.  A None
    default means "derived when absent", and JSON null reads the same.  A str
    with a `parse` function is a text literal, read into what it returns."""
    kind: str
    default: object = _REQUIRED
    gt: float | None = None
    ge: float | None = None
    lt: float | None = None
    le: float | None = None
    min_len: int = 0
    max_len: int = 64
    choices: tuple = ()
    parse: object = None


# The one reference for every subcommand's inputs.  Caps bound run time and
# memory.  Degrees stop at 32, where the power-basis Chebyshev coefficients
# already err by ~4e7.
FIELDS = {
    "theorem": {
        "poly": Field("str", parse=parse_poly),
        "normalize": Field("bool", True),
        "epsilon": Field("float", gt=0.0, le=0.25),
        "radius": Field("float", ge=0.0),
        "center": Field("floats", None, max_len=1024),
        "lambdas": Field("floats", [1.5, 2.0, 4.0, 8.0], gt=1.0, min_len=1),
        "samples": Field("int", 100_000, ge=1000, le=10**7),
        "strong_form_c": Field("float", None, gt=0.0),
    },
    "lemma-a": {
        "instance": Field("str", None, parse=parse_instance),
        "random_instances": Field("int", 0, ge=0, le=10_000),
    },
    "lemma-b": {
        "function": Field("str", None, parse=parse_disk_function),
        "a": Field("float", None, gt=0.0, lt=1.0),
        "interval": Field("pair", None),
        "set": Field("pairs", None, min_len=1, max_len=1000),
        "random_instances": Field("int", 0, ge=0, le=10_000),
        "classical_instances": Field("int", 0, ge=0, le=10_000),
    },
    "lemma-c": {
        "delta": Field("float", gt=0.0, le=0.125),
        "n": Field("int", 2, ge=1, le=64),
        "trials": Field("int", 100_000, ge=1, le=10**7),
        "r_grid": Field("int", 10_000, ge=2, le=20_000),
        "alpha_grid": Field("int", 360, ge=2, le=720),
    },
    "counterexample": {
        "family": Field("choice", "chebyshev",
                        choices=("chebyshev", "monomial")),
        "degrees": Field("ints", [4, 8, 16, 32], ge=0, le=32, min_len=2),
        "eta": Field("float", 0.1, gt=0.0),
        "delta": Field("float", 1e-3, gt=0.0, le=0.5),
        "lambdas": Field("floats", [2.0], ge=1.1, min_len=1),
        "samples": Field("int", 100_000, ge=1000, le=10**7),
        "normalization": Field("choice", "disk", choices=("disk", "none")),
        "ks_delta": Field("float", None, gt=0.0, le=0.5),
        "ks_degree": Field("int", None, ge=0, le=32),
        "ks_bound": Field("float", 0.01, ge=0.0, le=1.0),
    },
}
# `all` takes one optional inputs object per subcommand.
FIELDS["all"] = {name: Field("object", {}) for name in FIELDS}
SUBCOMMANDS = tuple(FIELDS)

# Fields that only qualify another field: given without their partner they
# would be read and then ignored.
PARTNERS = {
    "lemma-b": {"a": "function", "interval": "function", "set": "function"},
    "counterexample": {"ks_degree": "ks_delta", "ks_bound": "ks_delta"},
}


def _require(cond: bool, message: str):
    if not cond:
        raise ConfigError(message)


def _read_value(name: str, f: Field, value):
    if f.kind in ("ints", "floats", "pairs"):
        _require(isinstance(value, list), f"{name} must be a list, got {value!r}")
        _require(f.min_len <= len(value) <= f.max_len,
                 f"{name} must hold {f.min_len} to {f.max_len} entries, "
                 f"got {len(value)}")
        entry = replace(f, kind=f.kind[:-1])
        return [_read_value(f"{name}[{i}]", entry, x)
                for i, x in enumerate(value)]
    if f.kind == "pair":
        _require(isinstance(value, list) and len(value) == 2,
                 f"{name} must be a pair [lo, hi], got {value!r}")
        lo, hi = (_read_value(name, replace(f, kind="float"), x) for x in value)
        _require(lo < hi, f"{name} must have lo < hi, got {value!r}")
        return [lo, hi]
    if f.kind == "bool":
        _require(isinstance(value, bool),
                 f"{name} must be true or false, got {value!r}")
    elif f.kind in ("str", "choice"):
        _require(isinstance(value, str), f"{name} must be a string, got {value!r}")
        _require(f.kind == "str" or value in f.choices,
                 f"{name} must be one of {f.choices}, got {value!r}")
        if f.parse is not None:
            try:
                return f.parse(value)
            except ValueError as exc:
                raise ConfigError(f"{name}: {exc}") from None
    elif f.kind == "object":
        _require(isinstance(value, dict),
                 f"{name} must be a JSON object, got {value!r}")
    elif f.kind == "int":
        # an integral float is an int: JSON writers may print 100000 as 1e5
        if isinstance(value, float) and value.is_integer():
            value = int(value)
        _require(isinstance(value, int) and not isinstance(value, bool),
                 f"{name} must be an integer, got {value!r}")
    else:
        # bools, NaN, infinities and ints beyond the float range are out
        _require(isinstance(value, (int, float)) and not isinstance(value, bool)
                 and abs(value) <= sys.float_info.max,
                 f"{name} must be a finite number, got {value!r}")
        value = float(value)
    for op, holds, bound in ((">", operator.gt, f.gt), (">=", operator.ge, f.ge),
                             ("<", operator.lt, f.lt), ("<=", operator.le, f.le)):
        _require(bound is None or holds(value, bound),
                 f"{name} must be {op} {bound}, got {value!r}")
    return value


def _read_inputs(sub: str, inputs) -> dict:
    """The inputs of `sub` read against FIELDS[sub]: typed, range-checked,
    defaults filled in (derived ones too), and checked across fields so that
    a run fails before it writes.  Any departure is a ConfigError naming the
    field."""
    _require(isinstance(inputs, dict), f"{sub} inputs must be a JSON object")
    unknown = sorted(set(inputs) - set(FIELDS[sub]))
    _require(not unknown, f"unknown {sub} input field(s): {', '.join(unknown)}")
    values = {}
    for name, f in FIELDS[sub].items():
        raw = inputs.get(name, f.default)
        _require(raw is not _REQUIRED, f"{name} is required")
        values[name] = (None if raw is None and f.default is None
                        else _read_value(name, f, raw))
    for name, partner in PARTNERS.get(sub, {}).items():
        _require(inputs.get(name) is None or values[partner] is not None,
                 f"{name} requires {partner}")
    if sub in _CHECKS:
        _CHECKS[sub](values)
    return values


def _check(field: str, check, *args):
    """Run a package check on read inputs; its ValueError names `field`."""
    try:
        return check(*args)
    except ValueError as exc:
        raise ConfigError(f"{field}: {exc}") from None


def _check_theorem(v: dict) -> None:
    """The theorem checks that span fields."""
    _require(v["center"] is None or len(v["center"]) == v["poly"].dim,
             "center must match the polynomial dimension")
    center = v["center"] if v["center"] is not None else [0.0] * v["poly"].dim
    v["spec"] = _check("radius", BallSpec, np.asarray(center), v["radius"],
                       v["epsilon"])
    samples = v["samples"]
    for i, lam in enumerate(v["lambdas"]):
        # a tail bound exp(-lambda) under one sample's worth of mass passes
        # on an empty tail whatever the function does
        _require(samples * math.exp(-lam) >= 1.0,
                 f"lambdas[{i}] must have samples * exp(-lambda) >= 1, "
                 f"got {lam!r} at {samples} samples")


def _check_lemma_a(v: dict) -> None:
    _require(v["instance"] is not None or v["random_instances"] > 0,
             "instance or random_instances must be given")


def _check_lemma_b(v: dict) -> None:
    """The given function's interval lies in [-a, a] and its set in the
    interval, and f does not vanish at +-a."""
    _require(v["function"] is not None or v["random_instances"] > 0
             or v["classical_instances"] > 0,
             "function, random_instances or classical_instances required")
    if v["function"] is None:
        return
    _require(v["a"] is not None, "a is required with function")
    a = v["a"]
    if v["interval"] is None:
        v["interval"] = [-a, a]
    lo, hi = v["interval"]
    if v["set"] is None:
        v["set"] = [[lo, lo + (hi - lo) / 5.0]]
    interval = IntervalSet.from_pairs([v["interval"]])
    _require(interval.is_subset_of(IntervalSet.from_pairs([(-a, a)])),
             f"interval must lie in [-a, a], got {v['interval']!r}")
    _require(IntervalSet.from_pairs(v["set"]).is_subset_of(interval),
             f"set must lie in interval, got {v['set']!r}")
    _check("a", remez_exponent, v["function"], a)


def _check_counterexample(v: dict) -> None:
    """eta is admissible for every family member and the KS member."""
    if v["ks_delta"] is not None and v["ks_degree"] is None:
        v["ks_degree"] = v["degrees"][0]
    degrees = v["degrees"] + ([v["ks_degree"]] if v["ks_delta"] is not None
                              else [])
    for q in _family_coeffs(v, degrees):
        _check("eta", build_function, q, v["eta"])


_CHECKS = {"theorem": _check_theorem, "lemma-a": _check_lemma_a,
           "lemma-b": _check_lemma_b, "counterexample": _check_counterexample}


def load_config(path: str) -> dict:
    doc = json.loads(Path(path).read_text())
    # accept a previously written manifest as a config
    if isinstance(doc, dict) and "config" in doc and "subcommand" not in doc:
        doc = doc["config"]
    _require(isinstance(doc, dict), "config must be a JSON object")
    _require(doc.get("subcommand") in SUBCOMMANDS,
             f"subcommand must be one of {SUBCOMMANDS}")
    _require(isinstance(doc.get("output_dir", ""), str),
             "output_dir must be a string")
    doc.setdefault("inputs", {})
    return doc


# ----------------------------------------------------------------------
# Subcommand runners.  Each returns (rows, csv_header, csv_rows); csv_rows
# None means the header's fields of each row.

def _run_theorem(inputs: dict, seed: int, threads: int):
    v = _read_inputs("theorem", inputs)
    poly = v["poly"]
    if v["normalize"]:
        poly = normalize(poly)
    spec, lambdas, samples = v["spec"], v["lambdas"], v["samples"]

    qb = check_quantile_bounds(poly, spec, lambdas, samples, seed, threads)
    c = qb.quantile if v["strong_form_c"] is None else v["strong_form_c"]
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
    v = _read_inputs("lemma-a", inputs)
    named = []
    if v["instance"] is not None:
        named.append(("instance", v["instance"]))
    rng = chunk_rng(seed, STREAM_SUITE, 0)
    named += [(f"random_{k}", random_instance(rng))
              for k in range(v["random_instances"])]
    rows = []
    for name, inst in named:
        rep = localization_check_1d(inst)
        rows.append({"check": name, "lambda": inst.lam,
                     "lhs_inner": rep.lhs_inner, "lhs_outer": rep.lhs_outer,
                     "rhs": rep.rhs, "pass": rep.passed})
    return rows, ["check", "lambda", "lhs_inner", "lhs_outer", "rhs",
                  "pass"], None


def _run_lemma_b(inputs: dict, seed: int, threads: int):
    v = _read_inputs("lemma-b", inputs)
    rows = []

    def record(name, a, stat, bound, ok):
        rows.append({"check": name, "a": a, "statistic": stat,
                     "bound": bound, "pass": bool(ok)})

    def run_one(tag, f, a, interval, e):
        fb = factor_bounds(f, a)
        for part, stat, bound, ok in (
                ("outer_min", fb.outer_min, fb.outer_min_bound, "outer_pass"),
                ("b1_min", fb.b1_min, fb.b1_min_bound, "b1_pass"),
                ("count", fb.n_b2, fb.n_b2_bound, "count_pass"),
                ("denominator_ratio", fb.r_ratio, fb.r_ratio_bound, "r_pass")):
            record(f"{tag}_{part}", a, stat, bound, fb.extras[ok])
        rz = remez_check(f, a, interval, e)
        record(f"{tag}_remez", a, rz.log_max_i, rz.log_bound, rz.passed)

    if v["function"] is not None:
        run_one("given", v["function"], v["a"], tuple(v["interval"]),
                IntervalSet.from_pairs(v["set"]))

    rng = chunk_rng(seed, STREAM_SUITE, 1)
    for k in range(v["random_instances"]):
        f = random_disk_function(rng)
        a = float(rng.uniform(0.5, 0.99))
        lo = float(rng.uniform(-a, 0.0))
        hi = float(rng.uniform(lo + 0.05 * a, a))
        e = random_subset(rng, lo, hi)
        run_one(f"random_{k}", f, a, (lo, hi), e)

    for k in range(v["classical_instances"]):
        deg = int(rng.integers(0, 21))
        coeffs = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
        lo, hi = -0.9, 0.9
        e = random_subset(rng, lo, hi, max_components=5, min_fraction=0.05)
        rep = classical_remez_check(coeffs, (lo, hi), e)
        record(f"classical_{k}", 0.9, rep.extras["log_lhs"],
               rep.extras["log_rhs"], rep.passed)
    return rows, ["check", "a", "statistic", "bound", "pass"], None


def _run_lemma_c(inputs: dict, seed: int, threads: int):
    v = _read_inputs("lemma-c", inputs)
    reports = run_all_checks(v["delta"], v["n"], v["trials"], seed, threads,
                             v["r_grid"], v["alpha_grid"])
    return ([r.to_row() for r in reports],
            ["check", "delta", "n", "seed", "statistic", "bound", "pass"], None)


def _family_coeffs(v: dict, degrees):
    make = {"chebyshev": chebyshev_on_quarter,
            "monomial": monomial_on_quarter}[v["family"]]
    coeffs = [make(d) for d in degrees]
    if v["normalization"] == "disk":
        coeffs = [disk_normalized(q) for q in coeffs]
    return coeffs


def _run_counterexample(inputs: dict, seed: int, threads: int):
    v = _read_inputs("counterexample", inputs)
    eta, samples = v["eta"], v["samples"]
    report = growth_experiment(_family_coeffs(v, v["degrees"]), eta,
                               v["delta"], v["lambdas"], samples, seed,
                               threads)
    header = ["degQ", "F0", "sigma_theorem", "lambda", "sigma_eff", "N", "seed"]
    csv_rows = [[r.degree, r.f0_abs, r.sigma_theorem, r.lam, r.sigma_eff,
                 samples, seed] for r in report.rows]
    rows = [{"check": "growth", "degQ": r.degree, "F0": r.f0_abs,
             "sigma_theorem": r.sigma_theorem, "lambda": r.lam,
             "sigma_eff": r.sigma_eff, "sigma_eff_oracle": r.sigma_eff_oracle,
             "pass": report.passed} for r in report.rows]

    if v["ks_delta"] is not None:
        f = build_function(_family_coeffs(v, [v["ks_degree"]])[0], eta)
        rect = rectangle_moduli(f, v["ks_delta"], samples, seed, threads)
        lim = limit_moduli(f, samples, seed + 1, threads)
        ks = ks_distance(rect.sorted_moduli, lim.sorted_moduli)
        rows.append({"check": "ks_limit", "delta": v["ks_delta"], "ks": ks,
                     "bound": v["ks_bound"], "pass": ks <= v["ks_bound"]})
        csv_rows.append([v["ks_degree"], f.f0_abs, 0.0, 0.0, ks, samples,
                         seed])
    return rows, header, csv_rows


_RUNNERS = {
    "theorem": _run_theorem,
    "lemma-a": _run_lemma_a,
    "lemma-b": _run_lemma_b,
    "lemma-c": _run_lemma_c,
    "counterexample": _run_counterexample,
}


def _default_config(sub: str, seed: int, inputs: dict) -> dict:
    defaults = {
        "theorem": {"poly": "0.5 0 0 0\n0.5 0 1 0", "epsilon": 0.25,
                    "radius": 0.7, "center": [0.0, 0.0],
                    "lambdas": [1.5, 2.0, 4.0, 8.0], "samples": 50_000},
        "lemma-a": {"random_instances": 25},
        "lemma-b": {"random_instances": 10, "classical_instances": 5},
        "lemma-c": {"delta": 0.125, "n": 2, "trials": 20_000,
                    "r_grid": 2_001, "alpha_grid": 181},
        "counterexample": {"family": "monomial", "degrees": [1, 2, 4],
                           "eta": 0.1, "delta": 1e-5, "lambdas": [2.0],
                           "samples": 50_000, "ks_delta": 1e-4,
                           "ks_degree": 1},
    }
    return {"subcommand": sub, "seed": seed,
            "inputs": {**defaults[sub], **inputs}}


def run(config: dict, out_dir: str, threads: int = 1) -> bool:
    """Execute one experiment config; returns True when all rows pass.  Bad
    input raises ConfigError, naming the field, before the run writes its
    report."""
    unknown = sorted(set(config) - {"subcommand", "seed", "inputs", "output_dir"})
    _require(not unknown, f"unknown config key(s): {', '.join(unknown)}")
    sub = config["subcommand"]
    seed = config.get("seed")
    _require(isinstance(seed, int) and not isinstance(seed, bool)
             and 0 <= seed < 1 << 64,
             f"seed must be an integer in [0, 2^64), got {seed!r}")
    inputs = config.get("inputs", {})
    out = Path(out_dir)

    if sub == "all":
        parts = _read_inputs("all", inputs)
        configs = [_default_config(name, seed, parts[name]) for name in _RUNNERS]
        for cfg in configs:
            # reject every bad input before the first run writes anything
            _read_inputs(cfg["subcommand"], cfg["inputs"])
        rows = [{"check": cfg["subcommand"],
                 "pass": run(cfg, out / cfg["subcommand"], threads)}
                for cfg in configs]
        header, csv_rows, summary = ["check", "pass"], None, {}
    else:
        rows, header, csv_rows = _RUNNERS[sub](inputs, seed, threads)
        summary = {"n_rows": len(rows),
                   "n_pass": sum(1 for r in rows if r.get("pass"))}
    summary["all_pass"] = all(r.get("pass") for r in rows)
    _write_report(out, config, header, csv_rows, rows, summary)
    return summary["all_pass"]


def _write_report(out: Path, config: dict, header: list[str], csv_rows,
                  rows: list[dict], summary: dict) -> None:
    out.mkdir(parents=True, exist_ok=True)
    write_json(out / "manifest.json",
               {"config": config, "tool_version": __version__,
                "python": platform.python_version(), "numpy": np.__version__})
    if csv_rows is None:
        csv_rows = [[r[k] for k in header] for r in rows]
    write_csv(out / "report.csv", header, csv_rows)
    write_json(out / "report.json", {"rows": rows, "summary": summary})


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
}


def suite(seed: int, out_dir: str, threads: int = 1) -> bool:
    """Run every criterion family at the documented reduced defaults and
    print one verdict line per criterion.  Scale is reduced; tolerances and
    pass rules are the full ones, so the thin-rectangle growth criterion
    fails here for the same structural reason it fails at full scale (see
    README)."""
    out = Path(out_dir)
    d = SUITE_DEFAULTS
    ok = True
    for delta in (1 / 32, 1 / 16, 1 / 8):
        for n in (2, 8, 32):
            cfg = _default_config("lemma-c", seed, {
                "trials": d["logconcavity_trials"], "r_grid": d["r_grid"],
                "alpha_grid": d["alpha_grid"], "delta": delta, "n": n})
            ok &= run(cfg, out / f"lemma-c-{delta:.6f}-{n}", threads)
    verdicts = [("criterion-1 map properties", ok)]
    for name, sub, inputs in (
            ("criterion-2 localization", "lemma-a",
             {"random_instances": d["random_localization_instances"]}),
            ("criterion-3 disk remez", "lemma-b",
             {"random_instances": d["random_disk_functions"],
              "classical_instances": d["classical_instances"]}),
            ("criterion-4 ball bounds", "theorem",
             {"samples": d["mc_samples"]}),
            ("criterion-5 thin rectangles", "counterexample",
             {"family": "chebyshev", "degrees": [4, 8, 16, 32], "eta": 0.1,
              "delta": 1e-3, "lambdas": [2.0], "samples": d["mc_samples"],
              "normalization": "disk", "ks_delta": 1e-4, "ks_degree": 4})):
        cfg = _default_config(sub, seed, inputs)
        verdicts.append((name, run(cfg, out / sub, threads)))

    all_ok = all(ok for _, ok in verdicts)
    for name, ok in verdicts:
        print(f"{name}: {'PASS' if ok else 'FAIL'}")
    _write_report(out, {"subcommand": "suite", "seed": seed, "defaults": d},
                  ["check", "pass"], None,
                  [{"check": n, "pass": bool(o)} for n, o in verdicts],
                  {"all_pass": bool(all_ok)})
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
            return 0 if suite(args.seed, args.out, args.threads) else 1
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
        return 0 if run(config, out, args.threads) else 1
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

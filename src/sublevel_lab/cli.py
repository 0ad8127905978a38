"""Batch experiment runner.

Usage:  sublevel-lab <subcommand> --config <path> [--out <dir>] [--threads <k>]
        sublevel-lab all [--seed <s>] [--out <dir>] [--threads <k>]
        sublevel-lab suite [--seed <s>] [--out <dir>] [--threads <k>]

`all` runs the five subcommands, one subdirectory each, at the inputs of
ALL_PRESET, which its config's inputs override field by field; `suite` is
`all` at SUITE_INPUTS, and prints one verdict line per criterion.

Every run writes manifest.json (the exact config echoed back, plus the tool,
Python and numpy versions the bytes depend on), report.json (its rows and
their summary) and report.csv (the same rows, one column per key) to the
output directory, and exits 0 exactly when every reported row passes.  A
written manifest.json is a valid --config for the subcommand it names and
replays its run bit for bit.
All randomness flows from the single seed in the config; no environment
variable is read for any reported number, and the worker count cannot change
any reported number.  A process that starts as the CLI (`sublevel-lab` or
`python -m sublevel_lab.cli`) defaults OPENBLAS_NUM_THREADS to 1, so that
--threads is its only source of worker threads; an explicit value wins.
"""

from __future__ import annotations

import argparse
import json
import operator
import os
import platform
import sys
from dataclasses import dataclass, replace
from pathlib import Path

# OpenBLAS starts its worker pool when numpy loads, and on the CLI's inputs
# that pool only spins.  A process that loaded numpy before this module (a
# script, a test run, the benchmark) is left alone: the setting could no
# longer change its BLAS and would only reach its child processes.
if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from . import __version__
from .intervals import IntervalSet
from .kls import localization_check_1d, parse_instance, random_instance
from .mobius import run_all_checks
from .poly import normalize, parse_poly
from .remez import (classical_remez_check, factor_bounds, parse_disk_function,
                    random_disk_function, random_subset, remez_check,
                    remez_exponent)
from .reports import dumps_json, write_csv, write_json
from .sampling import STREAM_SUITE, chunk_rng
from .thinrect import (MIN_LAMBDA, ThinRectFunction, chebyshev_series,
                       check_degrees, disk_normalized, growth_experiment,
                       ks_to_thin_limit, monomial_on_quarter)
from .volume import (BallSpec, check_lambdas, check_quantile_bounds,
                     check_superlevel_power_bound)

_REQUIRED = object()


class ConfigError(ValueError):
    """Invalid experiment configuration; the message names the field."""


@dataclass(frozen=True)
class Field:
    """One config input: `kind` is int, float, str, choice, object,
    pair ([lo, hi], lo < hi), ints, floats or pairs.  Bounds apply to a number
    or to each list entry; a list holds min_len to max_len entries, and a text
    literal (a str with a `parse` function, read into what it returns) at most
    max_len lines.  A None default means "derived when absent", and JSON null
    reads the same."""
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
# memory.  Degrees stop at 32 for run time only: the Chebyshev family is
# evaluated in its own basis, so its values on [0, 1/4] stay exact there.
# `center`'s cap also caps the dimension `poly` sets.  Line caps bound a
# literal's records: each lemma-b enclosure call holds at most 4096 x 128
# segment-terms of 3 floats (fewer segments past 128 terms), and lemma-a's
# memory grows with the square of the E lines.
FIELDS = {
    "theorem": {
        "poly": Field("str", parse=parse_poly, max_len=1024),
        "epsilon": Field("float", gt=0.0, le=0.25),
        "radius": Field("float", ge=0.0),
        "center": Field("floats", None, max_len=1024),
        "lambdas": Field("floats", [1.5, 2.0, 4.0, 8.0], min_len=1),
        "samples": Field("int", 100_000, ge=1000, le=10**7),
    },
    "lemma-a": {
        "instance": Field("str", None, parse=parse_instance, max_len=1024),
        "random_instances": Field("int", 0, ge=0, le=10_000),
    },
    "lemma-b": {
        "function": Field("str", None, parse=parse_disk_function, max_len=512),
        "a": Field("float", None, gt=0.0, lt=1.0),
        "interval": Field("pair", None),
        "set": Field("pairs", None, min_len=1, max_len=1000),
        "random_instances": Field("int", 0, ge=0, le=10_000),
        "classical_instances": Field("int", 0, ge=0, le=10_000),
    },
    "lemma-c": {
        "delta": Field("floats", gt=0.0, le=0.125, min_len=1),
        "n": Field("ints", [2], ge=1, le=64, min_len=1),
    },
    "counterexample": {
        "family": Field("choice", "chebyshev",
                        choices=("chebyshev", "monomial")),
        "degrees": Field("ints", [4, 8, 16, 32], ge=0, le=32, min_len=2),
        "eta": Field("float", 0.1, gt=0.0),
        "delta": Field("float", 1e-3, gt=0.0, le=0.5),
        "lambdas": Field("floats", [2.0], ge=MIN_LAMBDA, min_len=1),
        "samples": Field("int", 100_000, ge=1000, le=10**7),
        "ks_delta": Field("float", None, gt=0.0, le=0.5),
    },
}
# `all` takes one optional inputs object per subcommand.
FIELDS["all"] = {name: Field("object", {}) for name in FIELDS}
SUBCOMMANDS = tuple(FIELDS)

# Each worker thread holds one chunk's temporaries (at dimension 256 about
# 0.4 GiB), so the thread count is capped with the other inputs.
MAX_THREADS = 4

# The counterexample KS row holds the exact Kolmogorov distance between the
# rectangle law and its thin limit for Q(z) = z, the member that criterion 5
# states, whatever the growth family, against criterion 5's bound KS_BOUND.
KS_BOUND = 0.01


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
    if f.kind in ("str", "choice"):
        _require(isinstance(value, str), f"{name} must be a string, got {value!r}")
        _require(f.kind == "str" or value in f.choices,
                 f"{name} must be one of {f.choices}, got {value!r}")
        if f.parse is not None:
            lines = len(value.splitlines())
            _require(lines <= f.max_len,
                     f"{name} must hold at most {f.max_len} lines, got {lines}")
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
    dim, max_dim = v["poly"].dim, FIELDS["theorem"]["center"].max_len
    _require(dim <= max_dim, f"poly must have dimension <= {max_dim}, got {dim}")
    _require(v["center"] is None or len(v["center"]) == dim,
             "center must match the polynomial dimension")
    center = v["center"] if v["center"] is not None else [0.0] * dim
    v["spec"] = _check("radius", BallSpec, np.asarray(center), v["radius"],
                       v["epsilon"])
    _check("lambdas", check_lambdas, v["lambdas"], v["samples"])


def _check_lemma_a(v: dict) -> None:
    _require(v["instance"] is not None or v["random_instances"] > 0,
             "instance or random_instances must be given")


def _check_lemma_b(v: dict) -> None:
    """a, interval and set qualify the given function, so each requires it
    (given alone it would be read and then ignored).  The function's
    interval lies in [-a, a] and its set in the interval, and f does not
    vanish at +-a."""
    for name in ("a", "interval", "set"):
        _require(v[name] is None or v["function"] is not None,
                 f"{name} requires function")
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
    """The degrees strictly increase, and eta is admissible for every family
    member and the KS member.  v keeps the KS distance and the members'
    functions, each scaled to disk sup 1: T_m as a Chebyshev series on
    [0, 1/4], z^m as power coefficients."""
    _check("degrees", check_degrees, v["degrees"])
    make = {"chebyshev": chebyshev_series,
            "monomial": monomial_on_quarter}[v["family"]]
    v["functions"] = [_check("eta", ThinRectFunction, disk_normalized(make(d)),
                             v["eta"]) for d in v["degrees"]]
    if v["ks_delta"] is not None:
        v["ks"] = _check("eta", ks_to_thin_limit, v["eta"], v["ks_delta"])


_CHECKS = {"theorem": _check_theorem, "lemma-a": _check_lemma_a,
           "lemma-b": _check_lemma_b, "counterexample": _check_counterexample}


def load_config(path: str):
    """The JSON document at `path`; a written manifest gives its config.
    `run` checks what it holds."""
    doc = json.loads(Path(path).read_text())
    if isinstance(doc, dict) and "config" in doc and "subcommand" not in doc:
        doc = doc["config"]
    return doc


# ----------------------------------------------------------------------
# Subcommand runners.  Each takes its inputs as `_read_inputs` read them and
# returns its report rows: one dict per checked inequality, with its `check`
# name first and its `pass` flag.

def _run_theorem(v: dict, seed: int, threads: int):
    poly = normalize(v["poly"])
    spec, lambdas, samples = v["spec"], v["lambdas"], v["samples"]

    qb = check_quantile_bounds(poly, spec, lambdas, samples, seed, threads)
    sf = check_superlevel_power_bound(poly, spec, qb.quantile, lambdas, samples,
                                      seed, threads)

    rows = [{"check": "quantile_bounds", "lambda": r.lam, "sigma": r.sigma,
             "M": r.quantile, "small_threshold_log": r.small_threshold_log,
             "small_fraction": r.small_fraction, "small_bound": r.small_bound,
             "small_std_err": r.small_std_err,
             "tail_threshold_log": r.tail_threshold_log,
             "tail_fraction": r.tail_fraction, "tail_bound": r.tail_bound,
             "tail_std_err": r.tail_std_err, "pass": r.passed}
            for r in qb.rows]
    return rows + [{"check": "superlevel_power", "lambda": r.lam,
                    "sigma": sf.sigma, "c": qb.quantile,
                    "threshold_log": r.threshold_log, "lhs": r.lhs, "rhs": r.rhs,
                    "margin": r.margin, "pass": r.passed} for r in sf.rows]


def _run_lemma_a(v: dict, seed: int, threads: int):
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
    return rows


def _run_lemma_b(v: dict, seed: int, threads: int):
    rows = []

    def record(name, stat, bound, ok, **where):
        rows.append({"check": name, **where, "statistic": stat,
                     "bound": bound, "pass": bool(ok)})

    def run_one(tag, f, a, interval, e):
        for name, c in factor_bounds(f, a).checks.items():
            record(f"{tag}_{name}", c.statistic, c.bound, c.passed, a=a)
        rz = remez_check(f, a, interval, e)
        record(f"{tag}_remez", rz.log_max_i, rz.log_bound, rz.passed, a=a)

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
        record(f"classical_{k}", rep.log_lhs, rep.log_rhs, rep.passed)
    return rows


def _run_lemma_c(v: dict, seed: int, threads: int):
    return [r.to_row() for r in run_all_checks(v["delta"], v["n"])]


def _run_counterexample(v: dict, seed: int, threads: int):
    report = growth_experiment(v["functions"], v["delta"], v["lambdas"],
                               v["samples"], seed, threads)
    rows = [{"check": "growth", "degQ": r.degree, "F0": r.f0_abs,
             "sigma_theorem": r.sigma_theorem, "lambda": r.lam,
             "sigma_eff": r.sigma_eff, "sigma_eff_std_err": r.sigma_eff_std_err,
             "sigma_eff_oracle": r.sigma_eff_oracle, "pass": report.passed}
            for r in report.rows]

    if v["ks_delta"] is not None:
        rows.append({"check": "ks_limit", "delta": v["ks_delta"], "ks": v["ks"],
                     "bound": KS_BOUND, "pass": v["ks"] <= KS_BOUND})
    return rows


_RUNNERS = {
    "theorem": _run_theorem,
    "lemma-a": _run_lemma_a,
    "lemma-b": _run_lemma_b,
    "lemma-c": _run_lemma_c,
    "counterexample": _run_counterexample,
}


# `all`'s preset inputs: an `all` config's inputs for a subcommand override
# its preset field by field.
ALL_PRESET = {
    "theorem": {"poly": "0.5 0 0 0\n0.5 0 1 0", "epsilon": 0.25,
                "radius": 0.7, "center": [0.0, 0.0],
                "lambdas": [1.5, 2.0, 4.0, 8.0], "samples": 50_000},
    "lemma-a": {"random_instances": 25},
    "lemma-b": {"random_instances": 10, "classical_instances": 5},
    "lemma-c": {"delta": [0.125], "n": [2]},
    "counterexample": {"family": "monomial", "degrees": [1, 2, 4],
                       "eta": 0.1, "delta": 1e-5, "lambdas": [2.0],
                       "samples": 50_000, "ks_delta": 1e-4},
}


def run(config: dict, out_dir: str, threads: int = 1) -> bool:
    """Execute one experiment config; returns True when all rows pass.  Bad
    input raises ConfigError, naming the field, before the run writes its
    report.  The config is echoed to manifest.json with its inputs, {} when
    absent."""
    _require(isinstance(config, dict), "config must be a JSON object")
    unknown = sorted(set(config) - {"subcommand", "seed", "inputs"})
    _require(not unknown, f"unknown config key(s): {', '.join(unknown)}")
    sub = config.get("subcommand")
    _require(sub in SUBCOMMANDS,
             f"subcommand must be one of {SUBCOMMANDS}, got {sub!r}")
    seed = config.get("seed")
    _require(isinstance(seed, int) and not isinstance(seed, bool)
             and 0 <= seed < 1 << 64,
             f"seed must be an integer in [0, 2^64), got {seed!r}")
    inputs = config.get("inputs", {})
    config = {**config, "inputs": inputs}
    out = Path(out_dir)

    if sub == "all":
        parts = _read_inputs("all", inputs)
        configs = {name: {"subcommand": name, "seed": seed,
                          "inputs": {**ALL_PRESET[name], **parts[name]}}
                   for name in _RUNNERS}
        # reject every bad input before the first run writes anything
        values = {name: _read_inputs(name, cfg["inputs"])
                  for name, cfg in configs.items()}
        rows = [{"check": name,
                 "pass": _write_report(out / name, cfg, _RUNNERS[name](
                     values[name], seed, threads))}
                for name, cfg in configs.items()]
    else:
        rows = _RUNNERS[sub](_read_inputs(sub, inputs), seed, threads)
    return _write_report(out, config, rows)


def _write_report(out: Path, config: dict, rows: list[dict]) -> bool:
    """Write manifest.json, report.csv and report.json; returns whether
    every row passes.  A value that is not finite raises before any file is
    written."""
    n_pass = sum(1 for r in rows if r["pass"])
    summary = {"n_rows": len(rows), "n_pass": n_pass,
               "all_pass": n_pass == len(rows)}
    manifest = {"config": config, "tool_version": __version__,
                "python": platform.python_version(), "numpy": np.__version__}
    report = {"rows": rows, "summary": summary}
    dumps_json([manifest, report])
    out.mkdir(parents=True, exist_ok=True)
    write_json(out / "manifest.json", manifest)
    write_csv(out / "report.csv", rows)
    write_json(out / "report.json", report)
    return summary["all_pass"]


# ----------------------------------------------------------------------
# Acceptance-style suite: `all` at SUITE_INPUTS, reduced in scale but with
# the full tolerances and pass rules.

SUITE_INPUTS = {
    "theorem": {"samples": 100_000},
    "lemma-a": {"random_instances": 40},
    "lemma-b": {"random_instances": 40, "classical_instances": 10},
    "lemma-c": {"delta": [1 / 32, 1 / 16, 1 / 8], "n": [2, 8, 32]},
    "counterexample": {"family": "chebyshev", "degrees": [4, 8, 16, 32],
                       "eta": 0.1, "delta": 1e-3, "lambdas": [2.0],
                       "samples": 100_000, "ks_delta": 1e-4},
}

# The criterion that each subcommand's verdict decides, in criterion order.
CRITERIA = {
    "lemma-c": "criterion-1 map properties",
    "lemma-a": "criterion-2 localization",
    "lemma-b": "criterion-3 disk remez",
    "theorem": "criterion-4 ball bounds",
    "counterexample": "criterion-5 thin rectangles",
}


def suite(seed: int, out_dir: str, threads: int = 1) -> bool:
    """Run `all` at SUITE_INPUTS and print one verdict line per criterion.
    The thin-rectangle growth criterion fails here for the same structural
    reason it fails at full scale (see README)."""
    ok = run({"subcommand": "all", "seed": seed, "inputs": SUITE_INPUTS},
             out_dir, threads)
    rows = json.loads((Path(out_dir) / "report.json").read_text())["rows"]
    verdicts = {r["check"]: r["pass"] for r in rows}
    for sub, name in CRITERIA.items():
        print(f"{name}: {'PASS' if verdicts[sub] else 'FAIL'}")
    return ok


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
        _require(1 <= args.threads <= MAX_THREADS,
                 f"--threads must lie in [1, {MAX_THREADS}], got {args.threads}")
        if args.subcommand == "suite":
            return 0 if suite(args.seed, args.out, args.threads) else 1
        if args.subcommand == "all" and args.config is None:
            config = {"subcommand": "all",
                      "seed": args.seed if args.seed is not None else 42,
                      "inputs": {}}
        else:
            config = load_config(args.config)
            # run checks the config; matching it and overriding its seed
            # need an object
            _require(isinstance(config, dict), "config must be a JSON object")
            _require(config.get("subcommand") == args.subcommand,
                     f"config subcommand {config.get('subcommand')!r} does not "
                     f"match {args.subcommand!r}")
            if args.seed is not None:
                config["seed"] = args.seed
        out = args.out or f"out-{args.subcommand}"
        return 0 if run(config, out, args.threads) else 1
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

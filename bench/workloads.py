"""The four benchmark workloads: inputs built from a seed, and one pass.

A pass makes the same calls into `sublevel_lab` in the same order every
time, and checks every output against `refs` or against a property the
method must have.  One checked instance is one operation.  Module objects
are called through their attributes (`volume.check_quantile_bounds`, not
an imported name) so that the tracer's wrappers see every call.

Instance sizes that set the cost of a call (zero, atom and component
counts, polynomial degrees) cycle through fixed values instead of being
drawn, so the work of a pass does not depend on the seed; the seed draws
everything else.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from sublevel_lab import cli, kls, mobius, poly, remez, sampling, thinrect, volume
from sublevel_lab.intervals import IntervalSet

import refs

E_INV = 1.0 / math.e


@dataclass
class Record:
    name: str
    status: str   # "ok", "wrong" (output disagrees with a check) or "failed" (raised)
    detail: str


class Ops:
    """Collects one record per checked operation."""

    def __init__(self):
        self.records: list[Record] = []

    def check(self, name: str, fn):
        """Run fn() -> (ok, detail); an exception marks the operation failed."""
        try:
            ok, detail = fn()
        except Exception as exc:  # a raising call is a failed operation, not a crash
            self.records.append(Record(name, "failed", repr(exc)))
            return
        self.records.append(Record(name, "ok" if ok else "wrong", detail))


def close(value: float, ref: float, rel: float, abs_tol: float = 0.0) -> bool:
    return abs(value - ref) <= rel * max(abs(ref), 1e-300) + abs_tol


def rng_for(seed: int, workload: str) -> np.random.Generator:
    tag = sum(ord(c) << (8 * i) for i, c in enumerate(workload[:8]))
    return np.random.default_rng(np.random.SeedSequence([seed, tag]))


def random_pairs(rng, lo: float, hi: float, n: int, min_length: float):
    """n disjoint subintervals of [lo, hi] with total length >= min_length."""
    while True:
        cuts = np.sort(rng.uniform(lo, hi, 2 * n))
        pairs = [(float(cuts[2 * k]), float(cuts[2 * k + 1])) for k in range(n)]
        if sum(u - l for l, u in pairs) >= min_length:
            return pairs


# ----------------------------------------------------------------------
# ball_mc: Monte Carlo over real balls, thin-rectangle samplers, map grids.

BALL_DIMS = (1, 2, 8)
BALL_LAMBDAS = (1.5, 2.0, 4.0, 8.0)
BALL_SAMPLES = 1_000_000
BALL_RADIUS = 0.7
BALL_EPSILON = 0.25
KS_DELTA = 1e-4
KS_ETA = 0.1
MAP_DELTAS = (1 / 32, 1 / 16, 1 / 8)
MAP_DIMS = (2, 8, 32)
MAP_TRIALS = 100_000
JACOBIAN_RADII = 4
# The quantile and the level fraction are Monte Carlo estimates; 5 standard
# errors keeps a correct program inside on all but ~1e-6 of seeds, where 3
# would miss on ~0.3% of checks.
MC_SIGMAS = 5.0


def build_ball_mc(seed: int, root: Path) -> dict:
    rng = rng_for(seed, "ball_mc")

    def cnormal():
        return complex(rng.standard_normal(), rng.standard_normal())

    templates = {
        "half_shift": poly.normalize(poly.from_terms(1, {(0,): 0.5, (1,): 0.5})),
        "random_quadratic": poly.normalize(
            poly.from_terms(1, {(k,): cnormal() for k in range(3)})),
        "random_cubic": poly.normalize(
            poly.from_terms(1, {(k,): cnormal() for k in range(4)})),
    }
    cases = []
    for name, base in templates.items():
        dense = np.zeros(base.degree + 1, dtype=np.complex128)
        dense[base.exponents[:, 0]] = base.coeffs
        for n in BALL_DIMS:
            cases.append({
                "template": name, "n": n, "coeffs": dense,
                "poly": poly.lift(base, n),
                "spec": volume.BallSpec(np.zeros(n), BALL_RADIUS, BALL_EPSILON),
                "seed": int(rng.integers(0, 2 ** 31)),
            })
    maps = []
    for delta in MAP_DELTAS:
        params = mobius.MapParams(delta)
        per_n = []
        for n in MAP_DIMS:
            dirs = rng.standard_normal((JACOBIAN_RADII, n))
            dirs /= np.linalg.norm(dirs, axis=1)[:, None]
            radii = 0.9 * params.injectivity_radius * rng.random(JACOBIAN_RADII)
            per_n.append({"n": n, "seed": int(rng.integers(0, 2 ** 31)),
                          "points": dirs * radii[:, None], "radii": radii})
        maps.append({"delta": delta, "params": params, "per_n": per_n,
                     "seed": int(rng.integers(0, 2 ** 31))})
    return {
        "cases": cases,
        "ks_function": thinrect.build_function(np.array([0.0, 1.0]), KS_ETA),
        "ks_seeds": (int(rng.integers(0, 2 ** 31)), int(rng.integers(0, 2 ** 31))),
        "maps": maps,
    }


def pass_ball_mc(inp: dict) -> Ops:
    ops = Ops()
    sigmas: dict[str, set] = {}
    for case in inp["cases"]:
        p, spec, seed = case["poly"], case["spec"], case["seed"]
        tag = f"{case['template']}/n={case['n']}"
        state = {}

        def quantile_bounds():
            qb = volume.check_quantile_bounds(p, spec, BALL_LAMBDAS, BALL_SAMPLES,
                                              seed, threads=2)
            state["qb"] = qb
            m_ref = refs.x1_quantile(case["coeffs"], BALL_RADIUS, case["n"])
            sigma_ref = refs.sigma_ball(abs(case["coeffs"][0]), BALL_EPSILON)
            sigmas.setdefault(case["template"], set()).add(qb.sigma)
            ok = (qb.all_pass
                  and abs(qb.quantile - m_ref) <= MC_SIGMAS * qb.quantile_std_err
                  and close(qb.sigma, sigma_ref, 1e-12))
            return ok, f"M={qb.quantile!r} ref={m_ref!r} se={qb.quantile_std_err!r}"

        def power_bound():
            qb = state["qb"]
            sf = volume.check_superlevel_power_bound(p, spec, qb.quantile, BALL_LAMBDAS,
                                                     BALL_SAMPLES, seed, threads=2)
            return sf.all_pass and sf.sigma == qb.sigma, f"rows={len(sf.rows)}"

        def fraction():
            frac, _ = volume.level_fraction(p, spec, state["qb"].quantile, "ge",
                                            BALL_SAMPLES, seed + 1, threads=2)
            tol = (MC_SIGMAS * math.sqrt(2.0 * E_INV * (1.0 - E_INV) / BALL_SAMPLES)
                   + 2.0 / BALL_SAMPLES)
            return abs(frac - E_INV) <= tol, f"fraction={frac!r}"

        ops.check(f"quantile_bounds/{tag}", quantile_bounds)
        ops.check(f"power_bound/{tag}", power_bound)
        ops.check(f"level_fraction/{tag}", fraction)
    for name, values in sigmas.items():
        ops.check(f"sigma_dimension_free/{name}",
                  lambda values=values: (len(values) == 1, f"sigmas={sorted(values)}"))

    f = inp["ks_function"]
    seed_rect, seed_limit = inp["ks_seeds"]
    state = {}

    def ks_rect_limit():
        rect = thinrect.rectangle_moduli(f, KS_DELTA, BALL_SAMPLES, seed_rect, threads=2)
        lim = thinrect.limit_moduli(f, BALL_SAMPLES, seed_limit, threads=2)
        state["limit"] = lim
        ks = sampling.ks_distance(rect.sorted_moduli, lim.sorted_moduli)
        ks_ref = refs.two_sample_ks(rect.sorted_moduli, lim.sorted_moduli)
        return ks <= 0.01 and abs(ks - ks_ref) <= 1e-12, f"ks={ks!r} ref={ks_ref!r}"

    def limit_law():
        # Q(z) = z: |eta t| with t uniform on [0, 1/4] is uniform on [0, eta/4].
        vals = state["limit"].sorted_moduli
        d = refs.uniform_ks(vals, KS_ETA * 0.25)
        ok = d <= 3.0 / math.sqrt(vals.size) and vals[0] >= 0.0 and vals[-1] <= KS_ETA * 0.25
        return ok, f"ks_uniform={d!r}"

    ops.check("ks_rect_limit", ks_rect_limit)
    ops.check("limit_law_uniform", limit_law)

    for m in inp["maps"]:
        params, delta = m["params"], m["delta"]

        def radial_profile():
            prof = mobius.check_radial_profile(params, 10_000)
            ref = refs.image_radius(delta)
            return (prof.passed and close(prof.extras["image_radius"], ref, 1e-12),
                    f"image_radius={prof.extras['image_radius']!r} ref={ref!r}")

        def curvature():
            curv = mobius.check_curvature(params, 10_000, 360)
            return (curv.passed and curv.statistic <= 25.0 / 27.0 + 1e-6,
                    f"curvature={curv.statistic!r}")

        def preimage():
            r = params.image_radius
            pre = mobius.check_preimage_convexity(params, 0.35 * r, 0.4 * r,
                                                  MAP_TRIALS // 10, m["seed"])
            return pre.passed, f"violations={pre.statistic!r}"

        ops.check(f"radial_profile/delta={delta:g}", radial_profile)
        ops.check(f"curvature/delta={delta:g}", curvature)
        ops.check(f"preimage_convexity/delta={delta:g}", preimage)
        for case in m["per_n"]:
            n = case["n"]

            def log_concavity():
                lc = mobius.check_log_concavity(params, n, MAP_TRIALS, case["seed"],
                                                threads=2)
                return lc.passed and lc.statistic >= -1e-9, f"defect={lc.statistic!r}"

            def jacobian():
                got = mobius.jacobian(case["radii"], n, params)
                ref = np.array([refs.jacobian_fd(x, delta) for x in case["points"]])
                ok = bool(np.all(np.abs(got - ref) <= 1e-6 * np.abs(ref)))
                return ok, f"max_rel={float(np.max(np.abs(got / ref - 1.0)))!r}"

            ops.check(f"log_concavity/delta={delta:g}/n={n}", log_concavity)
            ops.check(f"jacobian/delta={delta:g}/n={n}", jacobian)
    return ops


# ----------------------------------------------------------------------
# disk_remez: factor bounds and Remez checks, disk and classical.

DISK_INSTANCES = 100
DISK_GRID = 100_000
DISK_PER_COMPONENT = 1000
DISK_DENSE_GRID = 2 * DISK_GRID + 1
CLASSICAL_INSTANCES = 100
CHEBYSHEV_DEGREES = range(1, 21)
CLASSICAL_CHECK_GRID = 20_001


def build_disk_remez(seed: int, root: Path) -> dict:
    rng = rng_for(seed, "disk_remez")
    disks = []
    for k in range(DISK_INSTANCES):
        n_zeros, n_atoms, n_comp = k % 31, k % 6, 1 + k % 10
        zeros = np.sqrt(rng.random(n_zeros)) * 0.995 * np.exp(2j * np.pi * rng.random(n_zeros))
        angles = 2.0 * np.pi * rng.random(n_atoms)
        weights = 0.5 * rng.random(n_atoms) + 1e-3
        const = np.exp(2j * np.pi * rng.random())
        a = float(rng.uniform(0.5, 0.99))
        lo = float(rng.uniform(-a, 0.0))
        hi = float(rng.uniform(lo + 0.05 * a, a))
        pairs = random_pairs(rng, lo, hi, n_comp, (hi - lo) / 100.0)
        disks.append({
            "f": remez.DiskFunction(zeros, np.exp(1j * angles), weights, const),
            "zeros": zeros, "angles": angles, "weights": weights, "a": a,
            "interval": (lo, hi), "e": IntervalSet.from_pairs(pairs),
        })
    classical = []
    for k in range(CLASSICAL_INSTANCES):
        deg = k % 21
        coeffs = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
        pairs = random_pairs(rng, -1.0, 1.0, 1 + k % 5, 0.02)
        classical.append({"coeffs": coeffs, "e": IntervalSet.from_pairs(pairs)})
    chebyshev = [{"n": n, "coeffs": refs.chebyshev_power(n),
                  "e": IntervalSet.from_pairs(random_pairs(rng, -1.0, 1.0, 1 + n % 5, 0.02))}
                 for n in CHEBYSHEV_DEGREES]
    return {"disks": disks, "classical": classical, "chebyshev": chebyshev}


def pass_disk_remez(inp: dict) -> Ops:
    ops = Ops()
    for k, d in enumerate(inp["disks"]):
        def disk(d=d):
            f, a = d["f"], d["a"]
            lo, hi = d["interval"]
            fb = remez.factor_bounds(f, a)
            rz = remez.remez_check(f, a, (lo, hi), d["e"], DISK_GRID, DISK_PER_COMPONENT)
            args = (d["zeros"], d["angles"], d["weights"])
            sigma_ref = refs.remez_sigma(*args, a)
            with np.errstate(divide="ignore"):
                dense = refs.dense_max(lambda x: refs.disk_log_abs(*args, x), lo, hi,
                                       DISK_DENSE_GRID)
            log_sup_e = rz.extras["log_sup_e"]
            ok = (fb.all_pass and rz.passed
                  and close(rz.sigma, sigma_ref, 1e-9, 1e-9)
                  and rz.log_max_i >= dense - 1e-9 * max(1.0, abs(dense))
                  and log_sup_e <= rz.log_max_i + 1e-12 * max(1.0, abs(rz.log_max_i)))
            return ok, (f"sigma={rz.sigma!r} ref={sigma_ref!r} log_max_i={rz.log_max_i!r}"
                        f" dense={dense!r} log_sup_e={log_sup_e!r}")

        ops.check(f"disk/{k}", disk)

    for k, c in enumerate(inp["classical"]):
        def classical(c=c):
            rep = remez.classical_remez_check(c["coeffs"], (-1.0, 1.0), c["e"],
                                              DISK_GRID, DISK_PER_COMPONENT)
            grid_max = float(np.max(refs.poly_abs(
                c["coeffs"], np.linspace(-1.0, 1.0, CLASSICAL_CHECK_GRID))))
            ok = rep.passed and rep.lhs >= grid_max * (1.0 - 1e-12)
            return ok, f"lhs={rep.lhs!r} grid_max={grid_max!r}"

        ops.check(f"classical/{k}", classical)

    for c in inp["chebyshev"]:
        def chebyshev(c=c):
            rep = remez.classical_remez_check(c["coeffs"], (-1.0, 1.0), c["e"],
                                              DISK_GRID, DISK_PER_COMPONENT)
            return rep.passed and close(rep.lhs, 1.0, 1e-7), f"lhs={rep.lhs!r}"

        ops.check(f"chebyshev/T{c['n']}", chebyshev)

    def x_power():
        coeffs = np.zeros(8)
        coeffs[7] = 1.0
        rep = remez.classical_remez_check(coeffs, (0.0, 1.0),
                                          IntervalSet.from_pairs([(0.0, 0.5)]),
                                          DISK_GRID, 2000)
        ok = rep.passed and close(rep.rhs, 4.0 ** 7, 1e-9) and close(rep.lhs, 1.0, 1e-12)
        return ok, f"lhs={rep.lhs!r} rhs={rep.rhs!r}"

    ops.check("classical/x^7", x_power)
    return ops


# ----------------------------------------------------------------------
# core_oracle: 1-D dense cores and the thin-limit quadrature oracle.

LOCALIZATION_INSTANCES = 40
LOCALIZATION_RESOLUTION = 512
MONOMIAL_DEGREES = (1, 2, 4, 8, 16, 32)
# T16 and T32 are left out: their power-basis coefficients lose the values
# on [0, 1/4] (see README), so the arccos reference cannot hold for them.
CHEBYSHEV_ORACLE_DEGREES = (4, 8)
ORACLE_LAMBDA = 2.0
ORACLE_ETA = 0.1


def build_core_oracle(seed: int, root: Path) -> dict:
    rng = rng_for(seed, "core_oracle")
    closed = kls.LocalizationInstance(
        kls.PiecewiseLogLinear(np.array([0.0, 1.0]), np.array([0.0, 0.0])),
        (0.0, 1.0), IntervalSet.from_pairs([(0.0, 0.9)]), 2.0)
    monomials = [(m, thinrect.build_function(thinrect.monomial_on_quarter(m), ORACLE_ETA))
                 for m in MONOMIAL_DEGREES]
    chebyshev = []
    for m in CHEBYSHEV_ORACLE_DEGREES:
        q = thinrect.disk_normalized(thinrect.chebyshev_on_quarter(m))
        # q = kappa * T_m(8t - 1); T_m(8t - 1) has leading coefficient 2^(m-1) 8^m.
        kappa = float(q[-1].real) / (2.0 ** (m - 1) * 8.0 ** m)
        chebyshev.append((m, q, kappa, thinrect.build_function(q, ORACLE_ETA)))
    return {
        "closed": closed,
        "random": [kls.random_instance(rng) for _ in range(LOCALIZATION_INSTANCES)],
        "monomials": monomials,
        "chebyshev": chebyshev,
    }


def pass_core_oracle(inp: dict) -> Ops:
    ops = Ops()

    def closed_form():
        rep = kls.localization_check_1d(inp["closed"], LOCALIZATION_RESOLUTION)
        ok = (abs(rep.lhs_outer - 0.8) <= 1e-10 and abs(rep.rhs - 0.81) <= 1e-10
              and rep.passed)
        return ok, f"lhs={rep.lhs_outer!r} rhs={rep.rhs!r}"

    ops.check("localization/closed_form", closed_form)
    for k, inst in enumerate(inp["random"]):
        def random_instance(inst=inst):
            rep = kls.localization_check_1d(inst, LOCALIZATION_RESOLUTION)
            den = inst.density
            rhs_ref = refs.localization_rhs(den.breakpoints, den.log_values,
                                            inst.s_interval, inst.e_set.pairs(), inst.lam)
            ok = (rep.passed and rep.lhs_inner <= rep.lhs_outer
                  and close(rep.rhs, rhs_ref, 1e-9))
            return ok, (f"inner={rep.lhs_inner!r} outer={rep.lhs_outer!r}"
                        f" rhs={rep.rhs!r} ref={rhs_ref!r}")

        ops.check(f"localization/{k}", random_instance)

    for m, f in inp["monomials"]:
        def monomial(m=m, f=f):
            sigma = thinrect.oracle_required_exponent(f, ORACLE_LAMBDA)
            ref = refs.monomial_sigma_eff(m, ORACLE_LAMBDA)
            return close(sigma, ref, 1e-9), f"sigma={sigma!r} ref={ref!r}"

        ops.check(f"oracle/z^{m}", monomial)

    for m, q, kappa, f in inp["chebyshev"]:
        def chebyshev(m=m, q=q, kappa=kappa, f=f):
            scale = ORACLE_ETA * abs(kappa)
            got, want = [], []
            for level in (refs.QUANTILE_LEVEL, 1.0 / ORACLE_LAMBDA):
                got.append(thinrect.oracle_quantile(q, ORACLE_ETA, level))
                want.append(scale * refs.chebyshev_level(m, level))
            sigma = thinrect.oracle_required_exponent(f, ORACLE_LAMBDA)
            sigma_ref = math.log(want[0] / want[1]) / math.log(8.0 * ORACLE_LAMBDA)
            ok = (all(close(g, w, 1e-9) for g, w in zip(got, want))
                  and close(sigma, sigma_ref, 1e-8))
            return ok, f"quantiles={got!r} ref={want!r} sigma={sigma!r} ref={sigma_ref!r}"

        ops.check(f"oracle/T{m}", chebyshev)
    return ops


# ----------------------------------------------------------------------
# cli_all: the `all` subcommand as users run it, at 1 and 2 threads.

CLI_TIMEOUT_S = 150
REPLAY_SUBCOMMAND = "counterexample"
# `all` runs its KS check on 5e4 + 5e4 samples against a bound of 0.01, which
# the two-sample statistic exceeds on ~1.5% of seeds, so that verdict is left
# out.  P(ks > 0.02) ~ 2 exp(-2 (0.02 / sqrt(2 / 5e4))^2) ~ 4e-9.
CLI_KS_BOUND = 0.02


def build_cli_all(seed: int, root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    return {"seed": seed, "out": root / "bench-out" / "cli_all", "env": env}


def run_cli(inp: dict, *args: str) -> int:
    """Exit code of one CLI run: 0 (all rows pass) or 1 (some fail).  Any
    other exit raises, with the tail of the CLI's standard error."""
    proc = subprocess.run([sys.executable, "-m", "sublevel_lab.cli", *args],
                          env=inp["env"], stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True, timeout=CLI_TIMEOUT_S)
    if proc.returncode not in (0, 1):
        raise RuntimeError(f"exit {proc.returncode}: {proc.stderr[-500:]}")
    return proc.returncode


def strict_json(path: Path):
    def reject(token):
        raise ValueError(f"non-finite number {token} in {path}")
    return json.loads(path.read_text(), parse_constant=reject)


def tree_bytes(directory: Path) -> dict[str, bytes]:
    return {str(p.relative_to(directory)): p.read_bytes()
            for p in sorted(directory.rglob("*")) if p.is_file()}


def check_all_run(out: Path, rc: int) -> tuple[bool, str]:
    """Exit code matches the verdict, and every row passes except the
    left-out KS verdict, whose statistic must stay within CLI_KS_BOUND."""
    top = strict_json(out / "report.json")
    all_pass = top["summary"]["all_pass"]
    ok = rc == (0 if all_pass else 1)
    bad = []
    for row in top["rows"]:
        sub = strict_json(out / row["check"] / "report.json")
        ok &= row["pass"] == sub["summary"]["all_pass"]
        for r in sub["rows"]:
            if r["check"] == "ks_limit":
                ok &= r["pass"] == (r["ks"] <= r["bound"]) and r["ks"] <= CLI_KS_BOUND
            elif not r["pass"]:
                bad.append(f"{row['check']}/{r['check']}")
    return ok and not bad, f"rc={rc} all_pass={all_pass} failing_rows={bad}"


def pass_cli_all(inp: dict) -> Ops:
    ops = Ops()
    out, seed = inp["out"], str(inp["seed"])
    shutil.rmtree(out, ignore_errors=True)
    dirs = {}
    for threads in ("1", "2"):
        d = out / f"threads{threads}"
        dirs[threads] = d

        def all_run(d=d, threads=threads):
            rc = run_cli(inp, "all", "--seed", seed, "--out", str(d), "--threads", threads)
            return check_all_run(d, rc)

        def strict(d=d):
            files = sorted(d.rglob("*.json"))
            for path in files:
                strict_json(path)
            return len(files) == 12, f"json_files={len(files)}"

        ops.check(f"all/threads={threads}", all_run)
        ops.check(f"strict_json/threads={threads}", strict)

    def identical():
        a, b = tree_bytes(dirs["1"]), tree_bytes(dirs["2"])
        diff = sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))
        return bool(a) and not diff, f"files={len(a)} differing={diff}"

    def replay():
        src = dirs["1"] / REPLAY_SUBCOMMAND
        dst = out / "replay"
        rc = run_cli(inp, REPLAY_SUBCOMMAND, "--config", str(src / "manifest.json"),
                     "--out", str(dst))
        a, b = tree_bytes(src), tree_bytes(dst)
        verdict = strict_json(src / "report.json")["summary"]["all_pass"]
        return (a == b and rc == (0 if verdict else 1),
                f"rc={rc} files={len(a)} identical={a == b}")

    ops.check("threads_byte_identical", identical)
    ops.check(f"replay/{REPLAY_SUBCOMMAND}", replay)
    return ops


def run_in_process(inp: dict) -> Ops:
    """`all` through `cli.run` in this process (traced runs only); its
    output must equal the subprocess output byte for byte."""
    ops = Ops()
    d = inp["out"] / "in_process"
    shutil.rmtree(d, ignore_errors=True)

    def in_process():
        cli.run({"subcommand": "all", "seed": inp["seed"], "inputs": {}}, str(d), 1)
        same = tree_bytes(d) == tree_bytes(inp["out"] / "threads1")
        return same, f"identical_to_subprocess={same}"

    ops.check("all/in_process", in_process)
    return ops


# name -> (build inputs, one pass, untimed warm-up pass first).  Only ball_mc
# runs cold: its first pass in a process is ~10% slower, paying for the first
# touch of its 10-30 MB arrays.  The other workloads show no cold pass, and
# cli_all starts fresh processes in every pass by design.
WORKLOADS = {
    "ball_mc": (build_ball_mc, pass_ball_mc, True),
    "disk_remez": (build_disk_remez, pass_disk_remez, False),
    "core_oracle": (build_core_oracle, pass_core_oracle, False),
    "cli_all": (build_cli_all, pass_cli_all, False),
}

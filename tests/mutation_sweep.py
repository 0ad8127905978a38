"""Mutation sweep: does some test fail when a guard is weakened?

Each row of MUTANTS names a file under src/sublevel_lab, an exact text that
occurs in it once, the text that replaces it, and what the change weakens.
For each row the sweep applies that one change to a temporary copy of the
repository, runs the named test files there with pytest and prints

    killed    a test that passes on the unchanged copy fails (the first
              such test is named);
    survived  every such test still passes;
    timeout   the run took longer than TIMEOUT seconds;
    stale     the old text does not occur exactly once (the row needs
              updating; nothing is run).

Tests that already fail on the unchanged copy are deselected, so a known
failure kills no mutant; so is tests/test_mutation_table.py, which checks
the table against the unchanged source and so fails on every mutant.  The
working tree is never edited.  The sweep uses only the standard library and
is run by hand (pytest does not collect it):

    python tests/mutation_sweep.py                     # every row, tests/
    python tests/mutation_sweep.py -k kls tests/test_kls.py

It exits 1 when a row is stale, and 0 otherwise, whatever survives.
"""

from __future__ import annotations

import argparse
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TIMEOUT = 900.0  # seconds for one test run; tier-1 takes about 30

# (file under src/sublevel_lab, old text, new text, what the mutant weakens)
MUTANTS = [
    # the text-literal reader (cli.py)
    ("cli.py", "    if not np.isfinite(x):", "    if False:",
     "reader: a NaN or infinite number is read"),
    ("cli.py", "        if len(nums) != arity.get(kind):",
     "        if kind not in arity:",
     "reader: a record of a known kind with the wrong arity is read"),
    ("cli.py", "        if kind in once and found[kind]:", "        if False:",
     "reader: a second S, lambda or const record replaces the first"),
    ("cli.py", "        if len(fields) < 3:", "        if len(fields) < 2:",
     "reader: a poly term without exponents is read"),
    ("cli.py", "    _require(not F.is_constant(),", "    _require(True,",
     "theorem boundary: a constant F whose |F(0)| rounds below 1 passes"),
    ("cli.py",
     '    _check("poly", sigma_exponent, abs(F.constant_term()), v["epsilon"])',
     "    pass",
     "theorem boundary: F(0) = 0 is left to the run"),
    # input slacks
    ("volume.py", "<= 1.0 - self.epsilon + 1e-12:",
     "<= 1.0 - self.epsilon + 1e-3:",
     "BallSpec containment slack 1e-12 -> 1e-3"),
    ("volume.py", "if not certify_sup(poly) <= 1.0 + 1e-12:",
     "if not certify_sup(poly) <= 1.0 + 0.5:",
     "sup certificate slack 1e-12 -> 0.5"),
    ("mobius.py", "CONTAINMENT_MARGIN = 1e-9", "CONTAINMENT_MARGIN = -1e-6",
     "mobius.CONTAINMENT_MARGIN 1e-9 -> -1e-6 (admits balls past the rim)"),
    ("mobius.py", "CONTAINMENT_MARGIN = 1e-9", "CONTAINMENT_MARGIN = 0.0",
     "mobius.CONTAINMENT_MARGIN 1e-9 -> 0"),
    # every *_PAD, *_TOL and *_MARGIN constant: dropped and widened
    ("kls.py", "CERT_TOL = 1e-9", "CERT_TOL = 0.0", "kls.CERT_TOL -> 0"),
    ("kls.py", "CERT_TOL = 1e-9", "CERT_TOL = 1.0",
     "kls.CERT_TOL -> 1 (the core's certification never fails)"),
    ("kls.py", "CORE_PAD = 1e-12", "CORE_PAD = 0.0", "kls.CORE_PAD -> 0"),
    ("kls.py", "CORE_PAD = 1e-12", "CORE_PAD = 1e-3", "kls.CORE_PAD -> 1e-3"),
    ("kls.py", "CONCAVITY_TOL = 1e-12", "CONCAVITY_TOL = 0.0",
     "kls.CONCAVITY_TOL -> 0"),
    ("kls.py", "CONCAVITY_TOL = 1e-12", "CONCAVITY_TOL = 1e-3",
     "kls.CONCAVITY_TOL -> 1e-3 (admits convex kinks)"),
    ("mobius.py", "POLE_TOL = 1e-15", "POLE_TOL = 0.0", "mobius.POLE_TOL -> 0"),
    ("mobius.py", "POLE_TOL = 1e-15", "POLE_TOL = 1e-3",
     "mobius.POLE_TOL -> 1e-3"),
    ("remez.py", "ZERO_RADIUS_TOL = 1e-9", "ZERO_RADIUS_TOL = 0.0",
     "remez.ZERO_RADIUS_TOL -> 0"),
    ("remez.py", "ZERO_RADIUS_TOL = 1e-9", "ZERO_RADIUS_TOL = 1e-3",
     "remez.ZERO_RADIUS_TOL -> 1e-3"),
    ("remez.py", "CIRCLE_TOL = 1e-12", "CIRCLE_TOL = 0.0",
     "remez.CIRCLE_TOL -> 0"),
    ("remez.py", "CIRCLE_TOL = 1e-12", "CIRCLE_TOL = 1e-3",
     "remez.CIRCLE_TOL -> 1e-3 (admits atoms off the circle)"),
    ("remez.py", "ENCLOSURE_PAD = 1e-13", "ENCLOSURE_PAD = 0.0",
     "remez.ENCLOSURE_PAD -> 0"),
    ("remez.py", "ENCLOSURE_PAD = 1e-13", "ENCLOSURE_PAD = 1e-3",
     "remez.ENCLOSURE_PAD -> 1e-3"),
    ("thinrect.py", "ETA_MARGIN = 1e-9", "ETA_MARGIN = 0.0",
     "thinrect.ETA_MARGIN -> 0"),
    ("thinrect.py", "ETA_MARGIN = 1e-9", "ETA_MARGIN = -1e-6",
     "thinrect.ETA_MARGIN -> -1e-6 (admits eta * sup|Q| past 1/8)"),
    # NaN guards: each mutant restores the comparison a NaN does not trip
    ("kls.py",
     "        if not (np.all(np.isfinite(t)) and np.all(np.isfinite(v))):",
     "        if False:",
     "PiecewiseLogLinear: a NaN or infinite breakpoint or log value is read"),
    ("kls.py", "        if not self.lam > 1.0:", "        if self.lam <= 1.0:",
     "LocalizationInstance: a NaN lambda is read"),
    ("kls.py", "    if not lam > 1.0:", "    if lam <= 1.0:",
     "dense_core_1d: a NaN lambda is read"),
    ("intervals.py", "        if not np.all(lo <= hi):", "        if np.any(hi < lo):",
     "IntervalSet: a NaN endpoint is read"),
    ("intervals.py", "            if not l <= u:", "            if u < l:",
     "IntervalSet.from_pairs: a NaN endpoint is read"),
    ("remez.py", "if not np.all(np.abs(zeros) <= 1.0 - ZERO_RADIUS_TOL):",
     "if np.any(np.abs(zeros) > 1.0 - ZERO_RADIUS_TOL):",
     "DiskFunction: a NaN zero is read"),
    ("remez.py", "if not np.all(np.abs(np.abs(locs) - 1.0) <= CIRCLE_TOL):",
     "if np.any(np.abs(np.abs(locs) - 1.0) > CIRCLE_TOL):",
     "DiskFunction: a NaN atom location is read"),
    ("remez.py", "if not np.all(ws > 0.0):", "if np.any(ws <= 0.0):",
     "DiskFunction: a NaN atom weight is read"),
    ("remez.py", "if not abs(abs(complex(self.const)) - 1.0) <= CIRCLE_TOL:",
     "if abs(abs(complex(self.const)) - 1.0) > CIRCLE_TOL:",
     "DiskFunction: a NaN const is read"),
    ("volume.py", "if not certify_sup(poly) <= 1.0 + 1e-12:",
     "if certify_sup(poly) > 1.0 + 1e-12:",
     "_require_usable: a NaN sup certificate is read"),
    # verdicts read from the side that is not certified
    ("kls.py", "passed=bool(lhs_outer <= rhs))", "passed=bool(lhs_inner <= rhs))",
     "lemma-a verdict read from the unpadded inner core"),
    ("remez.py", "passed=bool(max_i.upper <= log_bound),",
     "passed=bool(max_i.attained <= log_bound),",
     "remez_check verdict read from the attained value, not the bound"),
    ("remez.py", "sigma * np.log(REMEZ_CONSTANT * ratio) + sup_e.attained)",
     "sigma * np.log(REMEZ_CONSTANT * ratio) + sup_e.upper)",
     "remez_check bound built on the certified sup over E, not an attained value"),
    ("remez.py", "passed=bool(max_i.upper <= log_rhs)",
     "passed=bool(max_i.attained <= log_rhs)",
     "classical_remez_check verdict read from the attained value"),
    ("remez.py", "ratio) + sup_e.attained)\n    return ClassicalRemezReport(",
     "ratio) + sup_e.upper)\n    return ClassicalRemezReport(",
     "classical_remez_check bound built on the certified sup over E"),
    # criterion-4 sampling margins
    ("volume.py", "small_bound + 3.0 * small_se", "small_bound + 0.0 * small_se",
     "small-set row: 3-sigma margin dropped"),
    ("volume.py", "tail_bound + 3.0 * tail_se", "tail_bound + 0.0 * tail_se",
     "tail row: 3-sigma margin dropped"),
    ("volume.py", "margin = 3.0 * math.hypot(lhs_se, rhs_se)",
     "margin = 0.0 * math.hypot(lhs_se, rhs_se)",
     "superlevel-power row: 3-sigma margin dropped"),
]

IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache",
                                ".hypothesis", "*.egg-info", "out-*",
                                "suite-out")


def pytest_run(tree: Path, tests, extra):
    """(exit code or None on timeout, ids of the failed tests)."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"),
           "PYTHONDONTWRITEBYTECODE": "1"}
    cmd = [sys.executable, "-m", "pytest", "-q", "-rfE", "-p",
           "no:cacheprovider", *extra, *tests]
    try:
        done = subprocess.run(cmd, cwd=tree, env=env, capture_output=True,
                              text=True, timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return None, []
    failed = re.findall(r"^(?:FAILED|ERROR) (.+?)(?: - .*)?$", done.stdout, re.M)
    return done.returncode, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("tests", nargs="*", default=["tests"],
                        help="test files or directories (default: tests)")
    parser.add_argument("-k", default="",
                        help="run only the rows whose file or reason holds this")
    args = parser.parse_args(argv)
    rows = [r for r in MUTANTS if args.k in r[0] or args.k in r[3]]

    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=IGNORE)
        code, known = pytest_run(tree, args.tests, [])
        if code not in (0, 1):
            print(f"the unchanged tree does not test cleanly (exit {code})")
            return 1
        print(f"unchanged tree: {len(known)} known failure(s) deselected: "
              f"{', '.join(known) or '-'}")
        deselect = [f"--deselect={t}" for t in
                    (*known, "tests/test_mutation_table.py")]
        stale = 0
        for name, old, new, reason in rows:
            path = tree / "src" / "sublevel_lab" / name
            text = path.read_text()
            if text.count(old) != 1:
                stale += 1
                print(f"stale     {name}: {reason}")
                continue
            path.write_text(text.replace(old, new))
            start = time.perf_counter()
            try:
                code, failed = pytest_run(tree, args.tests, ["-x", *deselect])
            finally:
                path.write_text(text)
            took = time.perf_counter() - start
            verdict = ("timeout" if code is None
                       else "survived" if code == 0 else "killed")
            by = f"  by {failed[0]}" if verdict == "killed" and failed else ""
            print(f"{verdict:9} {name}: {reason}  [{took:.0f} s]{by}",
                  flush=True)
    return 1 if stale else 0


if __name__ == "__main__":
    sys.exit(main())

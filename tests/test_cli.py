import contextlib
import csv
import io
import json
import os
import platform
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sublevel_lab import cli
from sublevel_lab.cli import FIELDS, SUBCOMMANDS, load_config, main, run
from sublevel_lab.mobius import CheckReport
from sublevel_lab.reports import format_cell
from sublevel_lab.thinrect import ks_to_thin_limit

SRC = Path(__file__).resolve().parents[1] / "src"

THEOREM_CONFIG = {
    "subcommand": "theorem",
    "seed": 42,
    "inputs": {
        "poly": "0.5 0 0 0\n0.5 0 1 0",
        "epsilon": 0.25,
        "radius": 0.7,
        "center": [0.0, 0.0],
        "lambdas": [2.0, 4.0, 8.0],
        "samples": 20_000,
    },
}


# Inputs on which one replaced field decides the outcome: each is rejected
# before any work, or runs in well under a second.
BASE_INPUTS = {
    "theorem": THEOREM_CONFIG["inputs"],
    "lemma-a": {"random_instances": 1},
    "lemma-b": {"random_instances": 1},
    "lemma-c": {"delta": [0.125], "n": [2]},
    "counterexample": {"family": "chebyshev", "degrees": [4, 8],
                       "samples": 2000},
    "all": {},
}


def write_config(tmp_path: Path, config: dict) -> Path:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return path


def read_all(out: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(out.glob("*"))
            if p.is_file()}


def tree_bytes(out: Path) -> dict:
    return {p.relative_to(out): p.read_bytes() for p in sorted(out.rglob("*"))
            if p.is_file()}


class TestValidation:
    def test_bad_epsilon_names_field(self, tmp_path, capsys):
        cfg = json.loads(json.dumps(THEOREM_CONFIG))
        cfg["inputs"]["epsilon"] = 0.3
        rc = main(["theorem", "--config", str(write_config(tmp_path, cfg)),
                   "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "epsilon must be <= 0.25" in capsys.readouterr().err

    def test_unknown_subcommand_in_config(self, tmp_path):
        # load_config only reads the file; run rejects the config before
        # it writes
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"subcommand": "bogus", "seed": 1}))
        out = tmp_path / "out"
        with pytest.raises(cli.ConfigError, match="subcommand"):
            run(load_config(str(path)), str(out))
        assert not out.exists()

    def test_subcommand_mismatch(self, tmp_path, capsys):
        rc = main(["lemma-a", "--config",
                   str(write_config(tmp_path, THEOREM_CONFIG)),
                   "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "does not match" in capsys.readouterr().err

    def test_missing_required_field(self, tmp_path, capsys):
        cfg = json.loads(json.dumps(THEOREM_CONFIG))
        del cfg["inputs"]["radius"]
        rc = main(["theorem", "--config", str(write_config(tmp_path, cfg)),
                   "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "radius is required" in capsys.readouterr().err

    @pytest.mark.parametrize("threads", ["0", "-1", "5"])
    @pytest.mark.parametrize("sub", [*SUBCOMMANDS, "suite"])
    def test_threads_below_one_rejected(self, tmp_path, capsys, sub, threads):
        # and above the cap of 4: only a value just above it is tried, so a
        # broken check cannot start many threads
        out = tmp_path / "out"
        argv = [sub, "--out", str(out), "--threads", threads]
        if sub not in ("all", "suite"):
            cfg = {"subcommand": sub, "seed": 1, "inputs": {}}
            argv += ["--config", str(write_config(tmp_path, cfg))]
        assert main(argv) == 2
        assert "--threads" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("degrees, message", [
        ([4, 2, 1], "degrees: degrees must strictly increase, got [4, 2, 1]"),
        ([2, 2, 4], "degrees: degrees must strictly increase, got [2, 2, 4]")])
    def test_degrees_out_of_order_rejected(self, tmp_path, capsys, degrees,
                                           message):
        # the growth clause reads sigma_eff along the list in degree order
        cfg = {"subcommand": "counterexample", "seed": 1,
               "inputs": {**BASE_INPUTS["counterexample"], "degrees": degrees}}
        out = tmp_path / "out"
        assert main(["counterexample", "--config",
                     str(write_config(tmp_path, cfg)), "--out", str(out)]) == 2
        assert f"config error: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_output_dir_is_unknown(self, tmp_path, capsys, monkeypatch):
        # --out is the one way to name the output directory
        monkeypatch.chdir(tmp_path)
        cfg = {**THEOREM_CONFIG, "output_dir": str(tmp_path / "out")}
        assert main(["theorem", "--config",
                     str(write_config(tmp_path, cfg))]) == 2
        assert "unknown config key(s): output_dir" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]

    def test_lemma_a_resolution_rejected(self, tmp_path, capsys):
        # the dense core is exact, so a resolution would change no number
        cfg = {"subcommand": "lemma-a", "seed": 7,
               "inputs": {"random_instances": 1, "resolution": 256}}
        out = tmp_path / "out"
        rc = main(["lemma-a", "--config", str(write_config(tmp_path, cfg)),
                   "--out", str(out)])
        assert rc == 2
        assert "unknown lemma-a input field(s): resolution" in \
            capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("literal", ["1e400", "NaN"])
    def test_non_finite_integer_field_names_field(self, tmp_path, capsys,
                                                  literal):
        path = tmp_path / "config.json"
        path.write_text('{"subcommand": "lemma-a", "seed": 1, "inputs": '
                        '{"random_instances": %s}}' % literal)
        rc = main(["lemma-a", "--config", str(path),
                   "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "random_instances" in capsys.readouterr().err

    @pytest.mark.parametrize("sub, field, value", [
        ("theorem", "lambdas", []),
        ("theorem", "radius", float("nan")),
        ("theorem", "strong_form_c", 0.5),
        ("counterexample", "degrees", [4]),
        ("theorem", "lambdas", [float("inf")]),
        ("theorem", "lambdas", ["a"]),
        ("theorem", "normalize", "no"),
        ("theorem", "sample", 5),
        ("theorem", "center", [float("nan"), 0.0]),
        ("theorem", "seed", True),
        ("theorem", "seed", -1),
        ("theorem", "input", {"samples": 1000}),
        ("theorem", "output_dir", 5),
        ("lemma-a", "instance", 5),
        ("lemma-b", "interval", 5),
        ("counterexample", "samples", 0),
        ("counterexample", "degrees", [4, 400]),
        ("counterexample", "lambdas", []),
        ("counterexample", "ks_delta", float("nan")),
        ("all", "theorem", 5),
        ("theorem", "poly", "nan 0 0 0\n0.5 0 1 0"),
        ("lemma-a", "instance", "phi 0 0\nphi 1 inf\nS 0 1\nE 0 0.5\nlambda 2"),
        ("lemma-b", "function", "zero nan 0\n"),
        ("lemma-b", "grid", 101),
        ("theorem", "lambdas", [1e12]),
        ("lemma-b", "a", 0.5),
        ("lemma-b", "interval", [-0.1, 0.1]),
        ("lemma-b", "set", [[0.0, 0.1]]),
        ("counterexample", "ks_bound", 0.01),
        ("counterexample", "ks_degree", 2),
        ("lemma-c", "r_grid", 2001),
        ("lemma-c", "alpha_grid", 181),
        ("lemma-c", "trials", 20_000),
        ("counterexample", "normalization", "disk"),
        ("counterexample", "degrees", [4, 2, 1]),
        ("counterexample", "degrees", [2, 2, 4]),
        ("theorem", "lambdas", [2.0, 1.0]),
    ], ids=["empty-lambdas", "nan-radius", "removed-strong_form_c", "one-degree",
            "inf-lambda", "string-lambda", "string-normalize", "unknown-key",
            "nan-center", "bool-seed", "negative-seed", "misspelled-inputs",
            "int-output_dir", "int-instance", "int-interval",
            "zero-samples", "degree-400", "counterexample-empty-lambdas",
            "nan-ks_delta", "all-int-inputs", "nan-poly",
            "inf-instance", "nan-function", "dropped-grid",
            "lambda-beyond-sample", "a-without-function",
            "interval-without-function", "set-without-function",
            "removed-ks_bound", "ks_degree-without-ks_delta",
            "dropped-r_grid", "dropped-alpha_grid", "dropped-trials",
            "removed-normalization", "decreasing-degrees", "repeated-degree",
            "lambda-one"])
    def test_vacuous_or_nan_input_names_field(self, tmp_path, capsys, sub,
                                              field, value):
        cfg = {"subcommand": sub, "seed": 1,
               "inputs": json.loads(json.dumps(BASE_INPUTS[sub]))}
        if field in ("seed", "input", "output_dir"):
            cfg[field] = value
        else:
            cfg["inputs"][field] = value
        out = tmp_path / "out"
        rc = main([sub, "--config", str(write_config(tmp_path, cfg)),
                   "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert field in err
        if field in cfg["inputs"] and field not in FIELDS[sub]:
            assert f"unknown {sub} input field(s): {field}" in err
        assert not (out / "report.json").exists()

    @pytest.mark.parametrize("inputs, field", [
        ({"theorem": {"lambdas": [1e12]}}, "lambdas"),
        ({"theorem": {"normalize": True}}, "normalize"),
        ({"counterexample": {"ks_degree": 1}}, "ks_degree"),
        ({"theorem": {"radius": 0.9}}, "radius"),
        ({"counterexample": {"eta": 1.0}}, "eta"),
        ({"lemma-b": {"function": "zero 0.5 0\n", "a": 0.5,
                      "interval": [-0.9, 0.9]}}, "interval"),
        ({"counterexample": {"degrees": [4, 2, 1]}}, "degrees"),
        ({"counterexample": {"degrees": [2, 2, 4]}}, "degrees"),
        ({"theorem": {"lambdas": [1.0]}}, "lambdas"),
    ], ids=["lambda-beyond-sample", "removed-normalize", "removed-ks_degree",
            "ball-outside", "eta-too-large", "interval-outside",
            "decreasing-degrees", "repeated-degree", "lambda-one"])
    def test_all_rejects_before_first_write(self, tmp_path, capsys, inputs,
                                            field):
        # the last three fail only inside a run, after earlier runs wrote
        cfg = {"subcommand": "all", "seed": 1, "inputs": inputs}
        out = tmp_path / "out"
        rc = main(["all", "--config", str(write_config(tmp_path, cfg)),
                   "--out", str(out)])
        assert rc == 2
        assert field in capsys.readouterr().err
        assert not out.exists()


# A literal one line past its cap, and one that sets a dimension past
# center's cap.  Each is rejected before any work.
OVER_CAP = [
    ("theorem", "poly", "0.5 0 0\n" * 1025,
     "poly must hold at most 1024 lines, got 1025"),
    ("theorem", "poly", "0.5 0" + " 0" * 2000,
     "poly must have dimension <= 1024, got 2000"),
    ("lemma-b", "function", "zero 0.5 0\n" * 513,
     "function must hold at most 512 lines, got 513"),
    ("lemma-a", "instance", "E 0 0.5\n" * 1025,
     "instance must hold at most 1024 lines, got 1025"),
]


@pytest.mark.parametrize("sub, field, literal, message", OVER_CAP,
                         ids=["poly-lines", "poly-dim", "function-lines",
                              "instance-lines"])
def test_literal_past_its_cap_exits_2(tmp_path, capsys, sub, field, literal,
                                      message):
    inputs = {**BASE_INPUTS[sub], field: literal}
    if field == "poly":
        del inputs["center"]
    if field == "function":
        inputs["a"] = 0.9
    cfg = {"subcommand": sub, "seed": 1, "inputs": inputs}
    out = tmp_path / "out"
    assert main([sub, "--config", str(write_config(tmp_path, cfg)),
                 "--out", str(out)]) == 2
    assert f"config error: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_literals_at_their_caps_are_read():
    # the same literals one line or one dimension shorter, each with a
    # linear term: the theorem rejects a constant F
    theorem = {**BASE_INPUTS["theorem"], "center": None, "samples": 1000,
               "lambdas": [2.0]}
    poly = cli._read_inputs("theorem", {
        **theorem, "poly": "0.5 0 0\n" * 1023 + "0.5 0 1\n"})["poly"]
    # the literal as read, before normalizing: 1024 halves
    assert poly.dim == 1 and poly.coeffs.tolist() == [511.5, 0.5]
    assert poly.coeffs.sum() == 512.0
    wide = cli._read_inputs("theorem", {
        **theorem, "poly": "0.5 0" + " 0" * 1024 + "\n0.5 0 1" + " 0" * 1023})
    assert wide["poly"].dim == wide["F"].dim == wide["spec"].dim == 1024
    zeros = "zero 0.5 0\n" * 512
    f = cli._read_inputs("lemma-b", {"function": zeros, "a": 0.9})["function"]
    assert f.zeros.size == 512
    instance = "phi 0 0\nphi 1 0\nS 0 1\nlambda 2\n" + "E 0 0.5\n" * 1020
    assert cli._read_inputs("lemma-a", {"instance": instance})["instance"].lam == 2


# A second S, lambda or const record; the literal is otherwise valid.
REPEATED = [
    ("lemma-a", "instance",
     "phi 0 0\nphi 1 0\nS 0 1\nS 0 0.5\nE 0 0.25\nlambda 2\n", 4, "S"),
    ("lemma-a", "instance",
     "phi 0 0\nphi 1 0\nS 0 1\nE 0 0.25\nlambda 2\nlambda 3\n", 6, "lambda"),
    ("lemma-b", "function", "const 0\nzero 0.5 0\n\nconst 1\n", 4, "const"),
]


@pytest.mark.parametrize("sub, field, literal, line, kind", REPEATED,
                         ids=["instance-S", "instance-lambda", "function-const"])
def test_repeated_singleton_record_exits_2(tmp_path, capsys, sub, field,
                                           literal, line, kind):
    inputs = {field: literal, **({"a": 0.9} if field == "function" else {})}
    cfg = {"subcommand": sub, "seed": 1, "inputs": inputs}
    out = tmp_path / "out"
    assert main([sub, "--config", str(write_config(tmp_path, cfg)),
                 "--out", str(out)]) == 2
    assert (f"config error: {field}: line {line}: repeated {kind} record"
            in capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("read, text", [
    (cli._read_poly, "0.5 0 1 0\nnan 0 0 0\n"),
    (cli._read_instance, "phi 0 0\nphi 1 inf\nS 0 1\nE 0 0.5\nlambda 2\n"),
    (cli._read_function, "zero 0.5 0\nzero nan 0\n"),
], ids=["poly", "instance", "function"])
def test_non_finite_number_is_named_with_its_line(read, text):
    # the library constructors reject some of these too, but only the
    # reader names the line and the number
    with pytest.raises(ValueError, match=r"^line 2: numbers must be finite, "
                                         r"got '(nan|inf)'$"):
        read(text)


# Polynomials the theorem cannot check: zero, F(0) = 0, and two constants,
# one whose normalized |F(0)| is exactly 1 and one where it rounds to
# 1 - 2^-53.
UNUSABLE_POLYS = ["0 0 1 0", "1 0 1 0", "0.5 0 0 0", "49 0 0 0"]


@pytest.mark.parametrize("poly", UNUSABLE_POLYS,
                         ids=["zero", "vanishing-at-0", "constant", "constant-49"])
@pytest.mark.parametrize("sub", ["theorem", "all"])
def test_unusable_theorem_poly_names_poly(tmp_path, capsys, sub, poly):
    inputs = {**THEOREM_CONFIG["inputs"], "poly": poly}
    cfg = {"subcommand": sub, "seed": 1,
           "inputs": {"theorem": inputs} if sub == "all" else inputs}
    out = tmp_path / "out"
    assert main([sub, "--config", str(write_config(tmp_path, cfg)),
                 "--out", str(out)]) == 2
    assert "config error: poly: " in capsys.readouterr().err
    assert not out.exists()


def test_all_reads_each_input_once(tmp_path, monkeypatch):
    # `all` reads its own inputs object, then each subcommand's inputs once;
    # the runs take what was read
    reads = []
    read_inputs = cli._read_inputs

    def counted(sub, inputs):
        reads.append(sub)
        return read_inputs(sub, inputs)

    monkeypatch.setattr(cli, "_read_inputs", counted)
    inputs = {sub: BASE_INPUTS[sub] for sub in cli._RUNNERS}
    run({"subcommand": "all", "seed": 1, "inputs": inputs}, tmp_path / "out")
    assert reads == ["all", *cli._RUNNERS]


def strict_json(path: Path):
    def reject(token):
        raise ValueError(f"non-finite number {token} in {path}")
    return json.loads(path.read_text(), parse_constant=reject)


MALFORMED = ["text", True, {"k": 1}, None, float("nan"), float("inf"),
             float("-inf"), -1, -0.5, [], 10**12, 1e300, [float("nan")],
             [float("inf")], [-1], ["text"], [10**12], [[0.2, 0.1]]]


@given(data=st.data())
def test_fuzzed_inputs_exit_cleanly(data):
    """One field of a small valid config replaced by a malformed value (or an
    unknown key added): the CLI exits 0, 1 or 2 without a traceback, and any
    report.json it writes is strict JSON."""
    sub = data.draw(st.sampled_from(sorted(BASE_INPUTS.keys() - {"all"})))
    field = data.draw(st.sampled_from([*FIELDS[sub], "unknown_key"]))
    value = data.draw(st.sampled_from(MALFORMED))
    inputs = dict(BASE_INPUTS[sub], **{field: value})
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps({"subcommand": sub, "seed": 3,
                                    "inputs": inputs}))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = main([sub, "--config", str(path), "--out", f"{tmp}/out",
                       "--threads", "1"])
        assert rc in (0, 1, 2)
        assert "Traceback" not in err.getvalue()
        for report in Path(tmp).rglob("report.json"):
            strict_json(report)


class TestTheoremRun:
    def test_exit_zero_and_files(self, tmp_path):
        out = tmp_path / "out"
        rc = main(["theorem", "--config",
                   str(write_config(tmp_path, THEOREM_CONFIG)),
                   "--out", str(out)])
        assert rc == 0
        csv = (out / "report.csv").read_text().splitlines()
        assert csv[0] == (
            "check,lambda,sigma,M,small_threshold_log,small_fraction,"
            "small_bound,small_std_err,tail_threshold_log,tail_fraction,"
            "tail_bound,tail_std_err,c,threshold_log,lhs,rhs,margin,pass")
        # one quantile-bound row and one power-bound row per lambda
        assert len(csv) == 1 + 2 * len(THEOREM_CONFIG["inputs"]["lambdas"])
        report = json.loads((out / "report.json").read_text())
        assert report["summary"]["all_pass"] is True
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["seed"] == 42

    def test_manifest_round_trip(self, tmp_path):
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        assert main(["theorem", "--config",
                     str(write_config(tmp_path, THEOREM_CONFIG)),
                     "--out", str(out1)]) == 0
        rc = main(["theorem", "--config", str(out1 / "manifest.json"),
                   "--out", str(out2)])
        assert rc == 0
        manifest = json.loads((out1 / "manifest.json").read_text())
        assert manifest["python"] == platform.python_version()
        assert manifest["numpy"] == np.__version__
        assert read_all(out1) == read_all(out2)

    def test_threads_do_not_change_bytes(self, tmp_path):
        out1 = tmp_path / "t1"
        out4 = tmp_path / "t4"
        cfgp = write_config(tmp_path, THEOREM_CONFIG)
        assert main(["theorem", "--config", str(cfgp), "--out", str(out1),
                     "--threads", "1"]) == 0
        assert main(["theorem", "--config", str(cfgp), "--out", str(out4),
                     "--threads", "4"]) == 0
        assert read_all(out1) == read_all(out4)


class TestOtherSubcommands:
    def test_lemma_c(self, tmp_path):
        cfg = {"subcommand": "lemma-c", "seed": 7,
               "inputs": {"delta": [0.125], "n": [2]}}
        out = tmp_path / "out"
        rc = main(["lemma-c", "--config", str(write_config(tmp_path, cfg)),
                   "--out", str(out)])
        assert rc == 0
        rows = json.loads((out / "report.json").read_text())["rows"]
        curv = next(r for r in rows if r["check"] == "curvature")
        assert curv["bound"] == 25 / 27
        assert curv["pass"] and curv["statistic"] <= curv["bound"]

    def test_lemma_c_does_not_depend_on_seed(self, tmp_path):
        cfgp = write_config(tmp_path, {"subcommand": "lemma-c", "seed": 1,
                                       "inputs": {"delta": [0.125], "n": [2]}})
        reports = []
        for seed in ("1", "2"):
            out = tmp_path / f"seed{seed}"
            assert main(["lemma-c", "--config", str(cfgp), "--out", str(out),
                         "--seed", seed]) == 0
            reports.append({name: (out / name).read_bytes()
                            for name in ("report.csv", "report.json")})
        assert reports[0] == reports[1]

    def test_lemma_c_bad_delta(self, tmp_path, capsys):
        cfg = {"subcommand": "lemma-c", "seed": 7,
               "inputs": {"delta": [0.2]}}
        rc = main(["lemma-c", "--config", str(write_config(tmp_path, cfg)),
                   "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "delta[0] must be <= 0.125" in capsys.readouterr().err

    def test_lemma_c_lists_write_each_row_once(self, tmp_path):
        # the n-free rows once per delta and one log-concavity row per
        # (delta, n): the distinct rows of the runs at one (delta, n) each
        deltas, ns = [1 / 32, 1 / 8], [2, 8]
        out = tmp_path / "grid"
        assert run({"subcommand": "lemma-c", "seed": 1,
                    "inputs": {"delta": deltas, "n": ns}}, str(out))
        rows = {json.dumps(r, sort_keys=True)
                for r in strict_json(out / "report.json")["rows"]}
        single = set()
        for delta in deltas:
            for n in ns:
                one = tmp_path / f"{delta}-{n}"
                run({"subcommand": "lemma-c", "seed": 1,
                     "inputs": {"delta": [delta], "n": [n]}}, str(one))
                single.update(json.dumps(r, sort_keys=True)
                              for r in strict_json(one / "report.json")["rows"])
        assert len(rows) == len(deltas) * (3 + len(ns))
        assert rows == single

    def test_lemma_a_random(self, tmp_path):
        cfg = {"subcommand": "lemma-a", "seed": 7,
               "inputs": {"random_instances": 5}}
        rc = main(["lemma-a", "--config", str(write_config(tmp_path, cfg)),
                   "--out", str(tmp_path / "out")])
        assert rc == 0

    def test_lemma_b_given_function(self, tmp_path):
        cfg = {"subcommand": "lemma-b", "seed": 7,
               "inputs": {"function": "zero 0 0\n", "a": 0.9,
                          "interval": [0.0, 0.9], "set": [[0.0, 0.09]]}}
        out = tmp_path / "out"
        rc = main(["lemma-b", "--config", str(write_config(tmp_path, cfg)),
                   "--out", str(out)])
        assert rc == 0
        rows = json.loads((out / "report.json").read_text())["rows"]
        assert any(r["check"] == "given_remez" and r["pass"] for r in rows)

    def test_lemma_b_denominators_beyond_float_range(self, tmp_path):
        # 400 zeros near the rim: the denominator spread is about e^1194, so
        # the row compares logs
        zeros = "".join(f"zero {0.9 + 0.0999 * k / 400!r} 1e-7\n"
                        for k in range(400))
        cfg = {"subcommand": "lemma-b", "seed": 1,
               "inputs": {"function": zeros, "a": 0.95}}
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(cfg, str(out)) is True
        rows = strict_json(out / "report.json")["rows"]
        row = next(r for r in rows if r["check"] == "given_denominator_ratio")
        assert row["pass"] == (row["statistic"] <= row["bound"])

    def test_lemma_b_rows_are_their_own_verdicts(self, tmp_path):
        # the suite's lemma-b inputs: each row's pass flag is its statistic
        # against its bound, with no tolerance
        d = cli.SUITE_INPUTS["lemma-b"]
        cfg = {"subcommand": "lemma-b", "seed": 42, "inputs": d}
        out = tmp_path / "out"
        assert run(cfg, str(out)) is True
        rows = strict_json(out / "report.json")["rows"]
        assert len(rows) == 5 * d["random_instances"] + d["classical_instances"]
        for r in rows:
            if r["check"].endswith(("_outer_min", "_b1_min")):
                assert r["pass"] == (r["statistic"] >= r["bound"]), r
            else:
                assert r["pass"] == (r["statistic"] <= r["bound"]), r
            # `a` is a disk radius; the classical rows have none
            assert ("a" in r) != r["check"].startswith("classical_"), r

    def test_counterexample_monomial(self, tmp_path):
        cfg = {"subcommand": "counterexample", "seed": 7,
               "inputs": {"family": "monomial", "degrees": [1, 2],
                          "eta": 0.1, "delta": 1e-5, "lambdas": [2.0],
                          "samples": 30_000, "ks_delta": 1e-4}}
        out = tmp_path / "out"
        rc = main(["counterexample", "--config",
                   str(write_config(tmp_path, cfg)), "--out", str(out)])
        assert rc == 0
        csv = (out / "report.csv").read_text().splitlines()
        assert csv[0] == ("check,degQ,F0,sigma_theorem,lambda,sigma_eff,"
                          "sigma_eff_std_err,sigma_eff_oracle,delta,ks,bound,"
                          "pass")

    def test_ks_row_does_not_depend_on_family(self, tmp_path):
        # the KS row always compares the laws of Q(z) = z
        ks = {}
        for family in ("chebyshev", "monomial"):
            cfg = {"subcommand": "counterexample", "seed": 3,
                   "inputs": {"family": family, "degrees": [2, 3],
                              "samples": 2000, "ks_delta": 1e-4}}
            out = tmp_path / family
            run(cfg, str(out))
            rows = json.loads((out / "report.json").read_text())["rows"]
            ks[family] = [r["ks"] for r in rows if r["check"] == "ks_limit"]
            csv = (out / "report.csv").read_text().splitlines()
            assert csv[-1].startswith("ks_limit,")
        assert len(ks["chebyshev"]) == 1
        assert ks["chebyshev"] == ks["monomial"]

    @pytest.mark.parametrize("seed", [78, 99, 184])
    def test_ks_cell_is_the_closed_form(self, tmp_path, seed):
        # at the seeds where the sampled statistic once crossed the bound,
        # at one and two threads, the cell is delta/eta = 1e-3 exactly
        inputs = cli.ALL_PRESET["counterexample"]
        want = ks_to_thin_limit(inputs["eta"], inputs["ks_delta"])
        assert want == 1e-3
        for threads in (1, 2):
            out = tmp_path / f"t{threads}"
            assert run({"subcommand": "counterexample", "seed": seed,
                        "inputs": inputs}, str(out), threads) is True
            row = strict_json(out / "report.json")["rows"][-1]
            assert row == {"check": "ks_limit", "delta": inputs["ks_delta"],
                           "ks": want, "bound": cli.KS_BOUND, "pass": True}
            assert (out / "report.csv").read_text().splitlines()[-1] == \
                "ks_limit,,,,,,,,0.0001,0.001,0.01,true"

    def test_run_function_returns_pass_flag(self, tmp_path):
        ok = run(THEOREM_CONFIG, str(tmp_path / "out"), threads=1)
        assert ok is True


class TestReportFiles:
    def test_csv_renders_the_json_rows(self, tmp_path):
        # every report of an `all` run: one CSV column per row key, `pass`
        # last, and each cell the rendering of its JSON value
        out = tmp_path / "out"
        run({"subcommand": "all", "seed": 42, "inputs": {}}, str(out))
        reports = sorted(out.rglob("report.json"))
        assert len(reports) == 1 + len(cli._RUNNERS)
        for path in reports:
            rows = strict_json(path)["rows"]
            with open(path.with_name("report.csv"), newline="") as fh:
                table = list(csv.reader(fh))
            header, cells = table[0], table[1:]
            assert header[-1] == "pass"
            assert set(header) == {k for r in rows for k in r}
            assert len(header) == len(set(header))
            assert cells == [[format_cell(r.get(k)) for k in header]
                             for r in rows], path

    def test_non_finite_row_writes_no_file(self, tmp_path, monkeypatch,
                                           capsys):
        bad = CheckReport("x", 0.125, float("nan"), 1.0, True, 2)
        monkeypatch.setattr(cli, "run_all_checks", lambda deltas, ns: [bad])
        cfg = {"subcommand": "lemma-c", "seed": 1, "inputs": {"delta": [0.125]}}
        out = tmp_path / "out"
        assert main(["lemma-c", "--config", str(write_config(tmp_path, cfg)),
                     "--out", str(out)]) == 2
        assert "not JSON compliant" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("sub", ["all", "suite"])
def test_every_manifest_replays(tmp_path, sub):
    # each manifest.json of the tree, given back as the config of the
    # subcommand it names, rewrites its directory bit for bit
    tree = tmp_path / sub
    main([sub, "--seed", "42", "--out", str(tree)])
    manifests = sorted(tree.rglob("manifest.json"))
    assert len(manifests) == 1 + len(cli._RUNNERS)
    for k, path in enumerate(manifests):
        name = strict_json(path)["config"]["subcommand"]
        all_pass = strict_json(path.with_name("report.json"))["summary"]["all_pass"]
        out = tmp_path / f"replay{k}"
        rc = main([name, "--config", str(path), "--out", str(out)])
        assert rc == (0 if all_pass else 1), path
        assert tree_bytes(out) == tree_bytes(path.parent), path


def child_env(**overrides) -> dict:
    """This process's environment for a fresh interpreter that imports the
    package from the source tree, with OPENBLAS_NUM_THREADS only if given."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env.update(overrides)
    return env


def child_output(code: str, **env) -> str:
    return subprocess.run([sys.executable, "-c", code], env=child_env(**env),
                          capture_output=True, text=True,
                          check=True).stdout.strip()


class TestProcessStart:
    def test_cli_import_leaves_scipy_out(self):
        code = ("import sys, sublevel_lab.cli; print(sorted(m for m in "
                "sys.modules if m == 'scipy' or m.startswith('scipy.')))")
        assert child_output(code) == "[]"

    @pytest.mark.parametrize("imports, caller, seen", [
        ("sublevel_lab.cli", {}, "1"),
        ("sublevel_lab.cli", {"OPENBLAS_NUM_THREADS": "2"}, "2"),
        ("numpy, sublevel_lab.cli", {}, "None")],
        ids=["cli_defaults_to_1", "caller_value_kept", "numpy_first_left_alone"])
    def test_blas_setting(self, imports, caller, seen):
        code = f"import os, {imports}; print(os.environ.get('OPENBLAS_NUM_THREADS'))"
        assert child_output(code, **caller) == seen

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="counts the threads in /proc/self/task")
    def test_cli_process_has_one_thread(self):
        code = ("import os, sublevel_lab.cli; "
                "print(len(os.listdir('/proc/self/task')))")
        assert child_output(code) == "1"

    def test_blas_threads_leave_report_bytes(self, tmp_path):
        trees = []
        for blas in ("1", "2"):
            out = tmp_path / f"blas{blas}"
            subprocess.run([sys.executable, "-m", "sublevel_lab.cli", "all",
                            "--seed", "42", "--out", str(out)],
                           env=child_env(OPENBLAS_NUM_THREADS=blas),
                           capture_output=True, check=True)
            trees.append(tree_bytes(out))
        assert trees[0] and trees[0] == trees[1]

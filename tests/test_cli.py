import contextlib
import io
import json
import platform
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sublevel_lab.cli import FIELDS, SUBCOMMANDS, load_config, main, run

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
    "lemma-c": {"delta": 0.125, "n": 2, "trials": 200, "r_grid": 11,
                "alpha_grid": 5},
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


class TestValidation:
    def test_bad_epsilon_names_field(self, tmp_path, capsys):
        cfg = json.loads(json.dumps(THEOREM_CONFIG))
        cfg["inputs"]["epsilon"] = 0.3
        rc = main(["theorem", "--config", str(write_config(tmp_path, cfg)),
                   "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "epsilon must be <= 0.25" in capsys.readouterr().err

    def test_unknown_subcommand_in_config(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"subcommand": "nope", "seed": 1}))
        with pytest.raises(Exception):
            load_config(str(path))

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

    @pytest.mark.parametrize("threads", ["0", "-1"])
    @pytest.mark.parametrize("sub", [*SUBCOMMANDS, "suite"])
    def test_threads_below_one_rejected(self, tmp_path, capsys, sub, threads):
        out = tmp_path / "out"
        argv = [sub, "--out", str(out), "--threads", threads]
        if sub not in ("all", "suite"):
            cfg = {"subcommand": sub, "seed": 1, "inputs": {}}
            argv += ["--config", str(write_config(tmp_path, cfg))]
        assert main(argv) == 2
        assert "--threads" in capsys.readouterr().err
        assert not out.exists()

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
        ("theorem", "strong_form_c", float("nan")),
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
        ("lemma-c", "trials", 0),
        ("counterexample", "samples", 0),
        ("counterexample", "degrees", [4, 400]),
        ("counterexample", "lambdas", []),
        ("counterexample", "ks_bound", float("nan")),
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
        ("counterexample", "ks_bound", 0.0),
        ("counterexample", "ks_degree", 2),
    ], ids=["empty-lambdas", "nan-radius", "nan-strong_form_c", "one-degree",
            "inf-lambda", "string-lambda", "string-normalize", "unknown-key",
            "nan-center", "bool-seed", "negative-seed", "misspelled-inputs",
            "int-output_dir", "int-instance", "int-interval", "zero-trials",
            "zero-samples", "degree-400", "counterexample-empty-lambdas",
            "nan-ks_bound", "nan-ks_delta", "all-int-inputs", "nan-poly",
            "inf-instance", "nan-function", "dropped-grid",
            "lambda-beyond-sample", "a-without-function",
            "interval-without-function", "set-without-function",
            "ks_bound-without-ks_delta", "ks_degree-without-ks_delta"])
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
        assert field in capsys.readouterr().err
        assert not (out / "report.json").exists()

    @pytest.mark.parametrize("inputs, field", [
        ({"theorem": {"lambdas": [1e12]}}, "lambdas"),
        ({"theorem": {"radius": 0.9}}, "radius"),
        ({"counterexample": {"eta": 1.0}}, "eta"),
        ({"lemma-b": {"function": "zero 0.5 0\n", "a": 0.5,
                      "interval": [-0.9, 0.9]}}, "interval"),
    ], ids=["lambda-beyond-sample", "ball-outside", "eta-too-large",
            "interval-outside"])
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
        assert csv[0] == "lambda,sigma,M,threshold_log,fraction,bound,std_err,pass"
        # two quantile-bound rows plus one power-bound row per lambda
        assert len(csv) == 1 + 3 * len(THEOREM_CONFIG["inputs"]["lambdas"])
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
               "inputs": {"delta": 0.125, "n": 2, "trials": 5000,
                          "r_grid": 1001, "alpha_grid": 91}}
        out = tmp_path / "out"
        rc = main(["lemma-c", "--config", str(write_config(tmp_path, cfg)),
                   "--out", str(out)])
        assert rc == 0
        rows = json.loads((out / "report.json").read_text())["rows"]
        curv = next(r for r in rows if r["check"] == "curvature")
        assert curv["statistic"] <= 25 / 27 + 1e-6

    def test_lemma_c_bad_delta(self, tmp_path, capsys):
        cfg = {"subcommand": "lemma-c", "seed": 7,
               "inputs": {"delta": 0.2}}
        rc = main(["lemma-c", "--config", str(write_config(tmp_path, cfg)),
                   "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "delta" in capsys.readouterr().err

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

    def test_counterexample_monomial(self, tmp_path):
        cfg = {"subcommand": "counterexample", "seed": 7,
               "inputs": {"family": "monomial", "degrees": [1, 2],
                          "eta": 0.1, "delta": 1e-5, "lambdas": [2.0],
                          "samples": 30_000, "ks_delta": 1e-4,
                          "ks_degree": 1}}
        out = tmp_path / "out"
        rc = main(["counterexample", "--config",
                   str(write_config(tmp_path, cfg)), "--out", str(out)])
        assert rc == 0
        csv = (out / "report.csv").read_text().splitlines()
        assert csv[0] == "degQ,F0,sigma_theorem,lambda,sigma_eff,N,seed"

    def test_run_function_returns_pass_flag(self, tmp_path):
        ok = run(THEOREM_CONFIG, str(tmp_path / "out"), threads=1)
        assert ok is True

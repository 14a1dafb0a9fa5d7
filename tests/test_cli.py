"""End-to-end tests of the command line interface: exit codes, output files,
error stream formatting, and rerun determinism."""

import contextlib
import csv
import dataclasses
import datetime
import io
import json
import math
import numbers
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pinvreg
from pinvreg import bench, cli
from pinvreg.bench import COMMANDS, COMMON_KEYS, ExperimentConfig
from pinvreg.cli import main
from pinvreg.design import build_design, spectral_report
from pinvreg.errors import ValidationError
from pinvreg.jacobi import JacobiBasis, JacobiParams
from pinvreg.regression import load_model
from pinvreg.sampling import sample_beta_on_I

BASE = datetime.date(2020, 3, 1)
SRC = str(Path(pinvreg.__file__).resolve().parents[1])   # the package's import root

# a valid value of each key that some command does not read
VALID = {"alpha": 0.5, "beta": 0.5, "N": 3, "n": 20, "s": 1.0, "sigma": 0.1,
         "trials": 1, "ransac_iterations": 2, "ransac_subset": 10,
         "truncation": 100.0, "lambda_grid": [0.1], "bandwidth": 5.0,
         "variant": "example3", "csv": "x.csv", "location": "X",
         "start": "2020-03-01", "end": "2020-04-01"}
UNREAD = [(command, f.name) for command, spec in COMMANDS.items()
          for f in dataclasses.fields(ExperimentConfig)
          if f.name not in spec.keys and f.name not in COMMON_KEYS]


FIELDS = {f.name: f for f in dataclasses.fields(ExperimentConfig)}
# size keys are drawn up to these caps, to keep each run short
SIZE_CAPS = {"N": 40, "n": 200, "trials": 2, "ransac_iterations": 10}
SERIES_DAYS = 400      # past fit-series' default n = 340


def flag(key):
    return "--" + key.replace("_", "-")


def reject_constant(name):
    raise AssertionError(f"non-standard JSON constant {name}")


def one_error_line(capsys) -> dict:
    """The single JSON error line of a run that printed nothing else."""
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    return json.loads(lines[0])


@pytest.fixture
def series_csv(tmp_path):
    path = tmp_path / "series.csv"
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["date", "location", "new_cases"])
        for d in range(60):
            day = (BASE + datetime.timedelta(days=d)).isoformat()
            w.writerow([day, "Aland", f"{50 + d + 10 * (d % 7 == 0):.1f}"])
    return path


class TestBenchmarkCommands:
    def test_table1_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "t1.csv"
        code = main(["table1", "--trials", "2", "--N", "3", "--n", "20",
                     "--out", str(out)])
        assert code == 0
        assert f"wrote {out}" in capsys.readouterr().out
        text = out.read_text()
        assert text.startswith("# config ")
        assert "mean_kappa2_direct" in text

    def test_table1_stdout_when_no_out(self, capsys):
        code = main(["table1", "--trials", "1", "--N", "2", "--n", "15"])
        assert code == 0
        assert capsys.readouterr().out.startswith("# config ")

    def test_table2_smoke(self, tmp_path):
        out = tmp_path / "t2.csv"
        code = main(["table2", "--trials", "1", "--s", "1.5", "--N", "8",
                     "--n", "60", "--out", str(out)])
        assert code == 0
        assert "ineq47_bound" in out.read_text()

    def test_table3_smoke(self, tmp_path):
        out = tmp_path / "t3.csv"
        code = main(["table3", "--trials", "1", "--sigma", "0.1", "--s", "1.0",
                     "--N", "5", "--n", "60", "--out", str(out)])
        assert code == 0
        text = out.read_text()
        assert "mse_npreg" in text and "mse_krr" in text

    def test_table4_json(self, tmp_path):
        out = tmp_path / "t4.json"
        code = main(["table4", "--trials", "1", "--s", "2.0", "--n", "100",
                     "--format", "json", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert set(doc) == {"config", "rows"}
        assert any(r["metric"] == "e2" for r in doc["rows"])

    def test_json_is_strict_with_non_finite_values(self, tmp_path):
        # a singular-only cell has an infinite mean kappa
        out = tmp_path / "t1.json"
        code = main(["table1", "--alpha", "3", "--N", "30", "--n", "31",
                     "--trials", "2", "--format", "json", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text(), parse_constant=reject_constant)
        values = {r["metric"]: r["value"] for r in doc["rows"]}
        assert values["mean_kappa2_direct"] == "inf"
        assert values["singular_trials_direct"] == 2.0

    def test_simulate_lfr_smoke(self, capsys):
        code = main(["simulate-lfr", "--n", "120", "--N", "16", "--trials", "1"])
        assert code == 0
        assert "cumulative_kappa" in capsys.readouterr().out

    @pytest.mark.parametrize("command, alpha, metrics", [
        ("table1", "512", ("mean_kappa2_direct", "mean_kappa2_transformed")),
        ("table3", "600", ("mse_npreg", "mse_krr")),
    ])
    def test_large_alpha_runs(self, tmp_path, command, alpha, metrics):
        # the weight's mass 2^(2a+1) B(a+1, a+1) used to overflow on its power
        out = tmp_path / "out.json"
        assert main([command, "--alpha", alpha, "--N", "5", "--trials", "1",
                     "--format", "json", "--out", str(out)]) == 0
        values = {r["metric"]: r["value"] for r in json.loads(out.read_text())["rows"]}
        assert all(isinstance(values[m], float) and math.isfinite(values[m])
                   for m in metrics), values

    def test_rerun_does_not_change_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["table1", "--trials", "2", "--seed", "9"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"trials": 5, "N": 4, "n": 30}))
        out = tmp_path / "o.csv"
        code = main(["table1", "--config", str(cfg), "--trials", "2",
                     "--out", str(out)])
        assert code == 0
        echo = json.loads(out.read_text().splitlines()[0][len("# config "):])
        assert echo["trials"] == 2      # flag beats file
        assert echo["N"] == 4           # file beats default
        assert "out" not in echo

    def test_subcommand_wins_over_the_config_experiment(self, tmp_path, capsys):
        # diagnose ran the experiment "custom" before it had its own
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"experiment": "custom", "n": 30}))
        assert main(["diagnose", "--config", str(cfg)]) == 0
        from_file = capsys.readouterr().out
        assert main(["diagnose", "--n", "30"]) == 0
        assert from_file == capsys.readouterr().out
        cfg.write_text(json.dumps({"experiment": "diagnose"}))
        assert main(["simulate-lfr", "--config", str(cfg)]) == 0


def diagnose_row(capsys) -> dict:
    """The one row of a diagnose run that wrote JSON to stdout."""
    return json.loads(capsys.readouterr().out)["rows"][0]


# a short run of each command that writes CSV to stdout
SMALL_RUNS = {
    "table1": ["--trials", "1", "--N", "2", "--n", "15"],
    "table2": ["--trials", "1", "--N", "20", "--n", "100"],
    "table3": ["--trials", "1", "--N", "10", "--n", "30"],
    "table4": ["--trials", "1", "--s", "1.5", "--n", "100"],
    "fit-series": ["--n", "40", "--N", "5"],
    "simulate-lfr": ["--n", "150", "--N", "20"],
    "diagnose": [],
}


@pytest.mark.parametrize("command", list(COMMANDS))
def test_every_command_echoes_its_config(capsys, series_csv, command):
    argv = [command] + SMALL_RUNS[command]
    if command == "fit-series":
        argv += ["--csv", str(series_csv)]
    assert main(argv) == 0
    first = capsys.readouterr().out.split("\r\n", 1)[0]
    assert first.startswith("# config ")
    echo = json.loads(first[len("# config "):], parse_constant=reject_constant)
    assert echo["experiment"] == COMMANDS[command].experiment


class TestDiagnose:
    def test_text_payload_matches_library(self, capsys):
        code = main(["diagnose", "--alpha", "-0.5", "--beta", "-0.5",
                     "--N", "5", "--n", "25", "--seed", "7"])
        assert code == 0
        body = capsys.readouterr().out.partition("\r\n")[2]    # past the echo
        rows = list(csv.DictReader(io.StringIO(body, newline="")))
        assert len(rows) == 1
        lines = rows[0]
        params = JacobiParams(-0.5, -0.5)
        samples = sample_beta_on_I(params, 25, 7)
        report = spectral_report(build_design(JacobiBasis(params, 5), samples).gram())
        assert float(lines["kappa2"]) == pytest.approx(report.kappa2)
        assert float(lines["lambda_min"]) == pytest.approx(report.lambda_min)
        assert lines["condition1_satisfied"] in ("True", "False")
        assert lines["kappa_bound_delta=0.1"] == "inf"

    def test_json_format(self, capsys):
        code = main(["diagnose", "--seed", "3", "--format", "json"])
        assert code == 0
        doc = diagnose_row(capsys)
        assert doc["N"] == 5 and doc["n"] == 25 and doc["seed"] == 3
        assert "kappa_bound_delta=0.1" in doc

    def test_writes_file(self, tmp_path, capsys):
        out = tmp_path / "diag.csv"
        code = main(["diagnose", "--out", str(out)])
        assert code == 0
        assert capsys.readouterr().out == f"wrote {out} (1 rows)\n"
        with open(out, newline="", encoding="utf-8") as fh:
            assert fh.readline().startswith("# config ")
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1
        assert float(rows[0]["kappa2"]) >= 1.0
        assert rows[0]["N"] == "5" and rows[0]["n"] == "25"

    def test_overflowing_constant_reads_inf(self, capsys):
        # eta_{53,53}^2 passes the float range: the bounds are vacuous
        assert main(["diagnose", "--alpha", "53", "--format", "json"]) == 0
        doc = diagnose_row(capsys)
        assert doc["L_N"] == "inf" and doc["kappa_bound_delta=0.1"] == "inf"
        assert doc["condition1_satisfied"] is False
        assert 1.0 <= doc["kappa2"] < math.inf

    def test_overflowing_power_reads_inf(self, capsys):
        # (N+1)^(2 mu + 2) at mu = 198 passes the float range
        assert main(["diagnose", "--alpha", "198", "--format", "json"]) == 0
        doc = diagnose_row(capsys)
        assert doc["L_N"] == "inf" and doc["kappa_bound_delta=0.1"] == "inf"
        assert doc["condition1_satisfied"] is False

    def test_low_degree_skips_theory(self, capsys):
        code = main(["diagnose", "--N", "1", "--n", "10", "--format", "json"])
        assert code == 0
        doc = diagnose_row(capsys)
        assert "condition1_satisfied" not in doc     # JSON rows drop None
        assert "L_N" not in doc
        # the CSV keeps the column, empty
        assert main(["diagnose", "--N", "1", "--n", "10"]) == 0
        header, values = capsys.readouterr().out.splitlines()[1:]
        assert header.split(",")[-1] == "condition1_satisfied"
        assert values.endswith(",")


class TestFitSeries:
    def test_writes_plot_and_model(self, tmp_path, series_csv, capsys):
        out = tmp_path / "fit.csv"
        code = main(["fit-series", "--csv", str(series_csv), "--n", "40",
                     "--N", "5", "--out", str(out)])
        assert code == 0
        stdout = capsys.readouterr().out
        assert f"wrote {out}" in stdout
        model_path = out.with_suffix(".model.json")
        assert f"wrote {model_path}" in stdout
        assert out.read_bytes().count(b"\r\n") == 62  # config + header + 60 rows
        header = next(csv.reader([out.read_text().splitlines()[1]]))
        assert header == ["day", "observed", "fitted"]
        model = load_model(model_path)
        assert model.basis.degree_max == 5
        preds = model.predict(np.linspace(0, 1, 11))
        assert np.all(np.isfinite(preds))

    def test_int_exponent_is_saved_as_given(self, tmp_path, series_csv):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"alpha": 0}')
        out = tmp_path / "fit.csv"
        assert main(["fit-series", "--config", str(cfg), "--csv", str(series_csv),
                     "--n", "40", "--N", "5", "--out", str(out)]) == 0
        doc = json.loads(out.with_suffix(".model.json").read_text())
        assert doc["alpha"] == 0 and type(doc["alpha"]) is int

    def test_without_out_writes_no_model_file(self, tmp_path, series_csv, capsys,
                                              monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["fit-series", "--csv", str(series_csv), "--n", "40",
                     "--N", "5"]) == 0
        assert capsys.readouterr().out.startswith("# config ")
        assert list(tmp_path.rglob("*.json")) == []

    def test_location_and_range_filters(self, tmp_path, series_csv, capsys):
        out = tmp_path / "fit.csv"
        start = (BASE + datetime.timedelta(days=5)).isoformat()
        end = (BASE + datetime.timedelta(days=54)).isoformat()
        code = main(["fit-series", "--csv", str(series_csv), "--location",
                     "Aland", "--start", start, "--end", end, "--n", "30",
                     "--N", "4", "--out", str(out)])
        assert code == 0
        echo = json.loads(out.read_text().splitlines()[0][len("# config "):])
        assert echo["location"] == "Aland"
        assert echo["diagnostics"]["m"] == 50


class TestErrorPaths:
    def test_unknown_location_exits_one(self, series_csv, capsys):
        code = main(["fit-series", "--csv", str(series_csv),
                     "--location", "Nowhere", "--n", "30", "--N", "4"])
        assert code == 1
        err = capsys.readouterr().err
        assert "\n" not in err.strip()
        doc = json.loads(err)
        assert doc["error"] == "ValidationError"
        assert "Nowhere" in doc["message"]

    @pytest.mark.filterwarnings("error")
    def test_overflowing_score_exits_one_before_writing(self, tmp_path, capsys):
        # each squared residual passes the float range: every robust-fit
        # score read inf, so iteration 0 won and the echo held Infinity
        series = tmp_path / "big.csv"
        with open(series, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["date", "location", "new_cases"])
            for d in range(400):
                day = (BASE + datetime.timedelta(days=d)).isoformat()
                w.writerow([day, "X", repr(1e200 * (1 + 7 * d % 13))])
        out = tmp_path / "fit.csv"
        assert main(["fit-series", "--csv", str(series), "--out", str(out)]) == 1
        doc = one_error_line(capsys)
        assert doc["error"] == "ValueError"
        assert "float range" in doc["message"]
        assert list(tmp_path.iterdir()) == [series]

    def test_failed_model_write_prints_no_wrote_line(self, tmp_path, series_csv,
                                                     capsys):
        out = tmp_path / "fit.csv"
        out.with_suffix(".model.json").mkdir()
        code = main(["fit-series", "--csv", str(series_csv), "--n", "40",
                     "--N", "5", "--out", str(out)])
        assert code == 1
        assert one_error_line(capsys)["error"] == "IsADirectoryError"

    def test_non_finite_truncation_exits_one_before_writing(
        self, tmp_path, series_csv, capsys
    ):
        out = tmp_path / "fit.csv"
        code = main(["fit-series", "--csv", str(series_csv), "--n", "30",
                     "--N", "4", "--truncation", "inf", "--out", str(out)])
        assert code == 1
        doc = json.loads(capsys.readouterr().err)
        assert doc["error"] == "ValidationError"
        assert "truncation" in doc["message"]
        assert list(tmp_path.iterdir()) == [series_csv]

    @pytest.mark.parametrize("argv, message", [
        (["table4", "--sigma", "-0.5"], "sigma must be >= 0, got -0.5"),
        (["table1", "--seed", "-1"], "seed must be >= 0, got -1"),
        (["table3", "--bandwidth", "-3"], "bandwidth must be > 0, got -3.0"),
        (["table3", "--bandwidth", "0"], "bandwidth must be > 0, got 0.0"),
        (["table2", "--s", "-1"], "s must be > 0, got -1.0"),
        (["simulate-lfr", "--s", "0"], "s must be > 0, got 0.0"),
        (["table1", "--n", "0"], "n must be >= 1, got 0"),
        (["table2", "--N", "-1"], "N must be >= 0, got -1"),
        (["diagnose", "--alpha", "-0.75"], "alpha must be >= -0.5, got -0.75"),
        (["table1", "--beta", "-1"], "beta must be >= -0.5, got -1.0"),
        (["simulate-lfr", "--trials", "0"], "trials must be >= 1, got 0"),
    ])
    def test_out_of_range_exits_one_before_writing(self, tmp_path, capsys, argv,
                                                   message):
        out = tmp_path / "out.csv"
        assert main(argv + ["--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0]) == {"error": "ValidationError", "message": message}
        assert not out.exists()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("argv", [
        ["diagnose", "--alpha", "-0.5", "--beta", "1e5"],
        ["diagnose", "--alpha", "1e18"],
        ["diagnose", "--alpha", "1e30"],
        ["diagnose", "--alpha", "1e60", "--N", "6"],
        ["table1", "--alpha", "1e30", "--trials", "1"],
        ["table3", "--alpha", "1e30", "--trials", "1"],
        ["diagnose", "--alpha", "1e308"],
        ["diagnose", "--beta", "1e308"],
    ])
    def test_unrepresentable_basis_exits_one_before_writing(self, tmp_path, capsys,
                                                            argv):
        out = tmp_path / "out.csv"
        assert main(argv + ["--out", str(out)]) == 1
        doc = one_error_line(capsys)
        assert doc["error"] == "ValueError" and "not representable" in doc["message"]
        assert not out.exists()

    @pytest.mark.parametrize("argv, message", [
        (["table2", "--s", "2000", "--trials", "1"], "s=2000.0 puts the ineq47 bound"),
        (["table3", "--s", "1e-3", "--sigma", "0.1", "--N", "10", "--trials", "1"],
         "s=0.001 needs more than 1023"),
        (["table3", "--s", "1e-300", "--trials", "1"], "s=1e-300 needs more than 1023"),
        (["simulate-lfr", "--sigma", "1e308"], "sigma=1e+308 puts a response"),
        (["table4", "--sigma", "1e308", "--s", "1.5", "--n", "100", "--trials", "1"],
         "sigma=1e+308 puts a response"),
        (["simulate-lfr", "--sigma", "1e160"], "sigma=1e+160 puts the coefficient error"),
        (["table4", "--sigma", "1e160", "--s", "1.5", "--n", "100", "--trials", "1"],
         "sigma=1e+160 puts the coefficient error"),
        (["table3", "--bandwidth", "1e308", "--N", "10", "--trials", "1"],
         "bandwidth c=1e+308 puts c (x - y) past the float range"),
        (["table3", "--sigma", "1e160", "--trials", "1"], "sigma=1e+160 puts an MSE"),
    ])
    def test_values_past_the_float_range_exit_one(self, tmp_path, capsys, monkeypatch,
                                                  argv, message):
        # table2 refuses its cell before drawing any trial's scores
        monkeypatch.setattr(bench, "_scores", None)
        out = tmp_path / "out.json"
        assert main(argv + ["--format", "json", "--out", str(out)]) == 1
        assert message in one_error_line(capsys)["message"]
        assert not out.exists()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("cpus", [1, 2])
    def test_table3_refuses_a_response_past_the_float_range(self, tmp_path, capsys,
                                                           monkeypatch, cpus):
        # noise of sigma 1e308 overflows: refused before the kernel CV sees it
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        out = tmp_path / "out.json"
        argv = ["table3", "--sigma", "1e308", "--trials", "1", "--format", "json"]
        assert main(argv + ["--out", str(out)]) == 1
        assert one_error_line(capsys) == {
            "error": "ValueError",
            "message": "sigma=1e+308 puts a response past the float range"}
        assert not out.exists()

    def test_table3_refuses_a_response_before_fitting_it(self, capsys, monkeypatch):
        fits = []
        monkeypatch.setattr(bench, "fit", lambda *args: fits.append(args))
        assert main(["table3", "--sigma", "1e308"]) == 1
        assert one_error_line(capsys) == {
            "error": "ValueError",
            "message": "sigma=1e+308 puts a response past the float range"}
        assert fits == []

    # 2^-s is subnormal or 0 past s = 1022: the target is cos(pi x) alone;
    # at sigma 2e152 each trial's e2 is near 2e307, and their sum overflows
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("argv", [
        ["table3", "--s", "1074", "--N", "10", "--trials", "1"],
        ["table3", "--s", "1075", "--N", "10", "--trials", "1"],
        ["table3", "--s", "1e300", "--N", "10", "--trials", "1"],
        ["table4", "--sigma", "2e152", "--s", "2.0", "--n", "100"],
    ])
    def test_values_near_the_float_range_exit_zero(self, capsys, argv):
        assert main(argv + ["--format", "json"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        rows = json.loads(captured.out)["rows"]
        assert all(isinstance(r["value"], float) and math.isfinite(r["value"])
                   for r in rows)

    @pytest.mark.parametrize("alpha", ["1e8", "1e16"])
    def test_digitless_constants_exit_one(self, capsys, alpha):
        # gamma_ab is finite here, but its log-space terms have cancelled
        assert main(["diagnose", "--alpha", alpha]) == 1
        doc = one_error_line(capsys)
        assert doc["error"] == "ValueError" and "not representable" in doc["message"]

    @pytest.mark.parametrize("level", ["-5", "0"])
    def test_nonpositive_truncation_exits_one_before_writing(
        self, tmp_path, series_csv, capsys, level
    ):
        out = tmp_path / "fit.csv"
        code = main(["fit-series", "--csv", str(series_csv), "--n", "30",
                     "--N", "4", "--truncation", level, "--out", str(out)])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        doc = json.loads(captured.err)
        assert doc["error"] == "ValidationError"
        assert doc["message"] == f"truncation must be > 0, got {float(level)}"
        assert list(tmp_path.iterdir()) == [series_csv]

    def test_simulate_lfr_truncation_flag_is_gone(self, capsys):
        assert main(["simulate-lfr", "--truncation", "0.01"]) == 1
        assert "--truncation" in json.loads(capsys.readouterr().err)["message"]

    def test_unknown_config_key_exits_one(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bogus": 1}))
        code = main(["table1", "--config", str(cfg)])
        assert code == 1
        doc = json.loads(capsys.readouterr().err)
        assert "bogus" in doc["message"]

    def test_malformed_config_file_exits_one(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json")
        assert main(["table1", "--config", str(cfg)]) == 1
        assert json.loads(capsys.readouterr().err)["error"] == "ValidationError"

    def test_non_object_config_file_exits_one(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1, 2]")
        assert main(["table1", "--config", str(cfg)]) == 1
        assert one_error_line(capsys) == {
            "error": "ValidationError",
            "message": f"config file {cfg}: expected a JSON object"}

    def test_unrecognized_flag_exits_one(self, capsys):
        assert main(["table1", "--badflag", "3"]) == 1
        doc = json.loads(capsys.readouterr().err)
        assert "badflag" in doc["message"]

    def test_threads_flag_is_gone(self, capsys):
        assert main(["table1", "--threads", "2"]) == 1
        err = capsys.readouterr().err
        assert "\n" not in err.strip()
        doc = json.loads(err)
        assert doc["error"] == "ValidationError"
        assert "--threads" in doc["message"]

    @pytest.mark.parametrize("bad", [{"trials": "5"}, {"N": 2.5}, {"seed": 1.5}])
    def test_wrong_config_type_exits_one(self, tmp_path, capsys, bad):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(bad))
        assert main(["table4", "--config", str(cfg)]) == 1
        doc = json.loads(capsys.readouterr().err)
        assert doc["error"] == "ValidationError"
        assert f"{next(iter(bad))} must be integral" in doc["message"]

    # the subcommand sets experiment, whatever the config file says
    @pytest.mark.parametrize("field", [f for f in dataclasses.fields(ExperimentConfig)
                                       if f.name != "experiment"], ids=lambda f: f.name)
    def test_wrong_config_kind_exits_one(self, tmp_path, capsys, field):
        command = next(c for c, spec in COMMANDS.items()
                       if field.name in spec.keys or field.name in COMMON_KEYS)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({field.name: ["a"] if field.metadata["kind"] is str
                                   else "5"}))
        assert main([command, "--config", str(cfg)]) == 1
        doc = one_error_line(capsys)
        assert doc["error"] == "ValidationError"
        assert re.match(rf"(unknown )?{field.name} ", doc["message"])
        assert list(tmp_path.iterdir()) == [cfg]

    @pytest.mark.parametrize("command, bad, message", [
        ("fit-series", {"start": 5}, "start must be str: 5"),
        ("table1", {"out": ["a"]}, "out must be str: ['a']"),
        ("simulate-lfr", {"variant": 5},
         "unknown variant 5; expected one of ('example3', 'table2')"),
    ])
    def test_wrong_kind_regressions(self, tmp_path, capsys, series_csv, command, bad,
                                    message):
        # these raised raw TypeError tracebacks or a bare ValueError
        cfg = tmp_path / "cfg.json"
        if command == "fit-series":
            bad = bad | {"csv": str(series_csv)}
        cfg.write_text(json.dumps(bad))
        assert main([command, "--config", str(cfg)]) == 1
        assert one_error_line(capsys) == {"error": "ValidationError", "message": message}
        assert set(tmp_path.iterdir()) == {cfg, series_csv}

    @pytest.mark.parametrize("command, bad", [("table1", {"out": True}),
                                              ("fit-series", {"csv": 5})])
    def test_non_string_path_exits_one_in_a_process(self, tmp_path, command, bad):
        # these opened raw file descriptors ({"out": true} wrote the table to
        # fd 1, then closed it), so a regression run in-process would close
        # the test runner's own stdout
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(bad))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [SRC, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run(
            [sys.executable, "-m", "pinvreg.cli", command, "--config", cfg.name],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 1
        assert proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1
        key, value = next(iter(bad.items()))
        assert json.loads(lines[0]) == {"error": "ValidationError",
                                        "message": f"{key} must be str: {value!r}"}
        assert list(tmp_path.iterdir()) == [cfg]

    @pytest.mark.parametrize("grid", [5, ["1e-3", "0.1"], [True, 0.1]])
    def test_wrong_lambda_grid_type_exits_one(self, tmp_path, capsys, grid):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"lambda_grid": grid}))
        code = main(["table3", "--trials", "1", "--N", "10", "--s", "1.0",
                     "--sigma", "0.1", "--config", str(cfg)])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        doc = json.loads(lines[0])
        assert doc["error"] == "ValidationError"
        assert "lambda_grid must be" in doc["message"]

    @pytest.mark.parametrize("iterations", ["0", "-2"])
    def test_nonpositive_ransac_iterations_exits_one(self, series_csv, capsys,
                                                     iterations):
        code = main(["fit-series", "--csv", str(series_csv), "--n", "30",
                     "--N", "4", "--ransac-iterations", iterations])
        assert code == 1
        doc = json.loads(capsys.readouterr().err)
        assert doc["error"] == "ValidationError"
        assert "ransac_iterations must be >= 1" in doc["message"]

    def test_missing_subcommand_exits_one(self, capsys):
        assert main([]) == 1
        assert json.loads(capsys.readouterr().err)["error"] == "ValidationError"

    def test_missing_input_file_exits_one(self, tmp_path, capsys):
        code = main(["fit-series", "--csv", str(tmp_path / "nope.csv"),
                     "--n", "10", "--N", "2"])
        assert code == 1
        assert json.loads(capsys.readouterr().err)["error"] == "FileNotFoundError"

    @pytest.mark.parametrize("command", ["diagnose", "table1", "table3"])
    def test_huge_degree_exits_one_in_a_process(self, tmp_path, command):
        # the basis constructor used to run for minutes before the
        # underdetermined design was rejected
        cfg = tmp_path / "big.json"
        cfg.write_text('{"N": 100000000000000000000000}')
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [SRC, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run(
            [sys.executable, "-m", "pinvreg.cli", command, "--config", cfg.name],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=10)
        assert proc.returncode == 1
        assert proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1
        n = COMMANDS[command].keys["n"]
        assert json.loads(lines[0]) == {
            "error": "ValidationError",
            "message": f"n must be > N, got n={n}, N=100000000000000000000000"}

    @pytest.mark.parametrize("argv", [
        ["diagnose", "--n", "1000000000000"],                        # 7.28 TiB
        ["table2", "--n", "100000", "--N", "50000", "--s", "1", "--trials", "1"],
    ])
    def test_failed_allocation_exits_one_in_a_process(self, tmp_path, argv):
        # under a 3 GiB address-space limit the first large array fails at
        # once; nothing here lets an allocation grow
        resource = pytest.importorskip("resource")
        limit = 3 * 1024 ** 3

        def cap_address_space():
            resource.setrlimit(resource.RLIMIT_AS,
                               (limit, resource.getrlimit(resource.RLIMIT_AS)[1]))

        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [SRC, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run(
            [sys.executable, "-m", "pinvreg.cli", *argv], cwd=tmp_path, env=env,
            preexec_fn=cap_address_space, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 1
        assert proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1
        doc = json.loads(lines[0])
        assert set(doc) == {"error", "message"} and "MemoryError" in doc["error"]

    @pytest.mark.parametrize("argv, message", [
        (["--ransac-subset", "0"], "ransac_subset must be > N, got ransac_subset=0, N=40"),
        (["--ransac-subset", "341"],
         "ransac_subset must be <= n, got ransac_subset=341, n=340"),
        (["--n", "12", "--N", "12"], "n must be > N, got n=12, N=12"),
    ])
    def test_cross_key_rules_exit_one_before_reading(self, tmp_path, capsys, argv,
                                                     message):
        # the CSV does not exist: the rule is checked before it is opened
        missing = tmp_path / "missing.csv"
        assert main(["fit-series", "--csv", str(missing)] + argv) == 1
        assert one_error_line(capsys) == {"error": "ValidationError", "message": message}
        assert list(tmp_path.iterdir()) == []

    def test_sweep_cells_are_held_to_the_rules_before_any_runs(
            self, tmp_path, capsys, monkeypatch):
        # n = 15 suits the sweep's N = 10 cells but not its N = 20 and 30 ones
        def no_cell_work(*args, **kwargs):
            raise AssertionError("a cell ran")

        monkeypatch.setattr(bench, "sample_beta_on_I", no_cell_work)
        out = tmp_path / "t3.csv"
        assert main(["table3", "--n", "15", "--trials", "1", "--out", str(out)]) == 1
        assert one_error_line(capsys) == {"error": "ValidationError",
                                          "message": "n must be > N, got n=15, N=30"}
        assert list(tmp_path.iterdir()) == []

    def test_ransac_degeneracy_exits_two(self, series_csv, capsys):
        # square 41-point subsample at degree 40 is numerically singular for
        # every iteration, a guaranteed consensus failure
        code = main(["fit-series", "--csv", str(series_csv), "--n", "41",
                     "--N", "40", "--ransac-subset", "41"])
        assert code == 2
        err = capsys.readouterr().err
        assert "\n" not in err.strip()
        doc = json.loads(err)
        assert doc["error"] == "RobustFitError"
        assert "near singular" in doc["message"]


class TestUnreadKeys:
    """A key a command does not read is rejected however it is set."""

    @pytest.mark.parametrize("command, key", UNREAD)
    def test_as_a_flag(self, tmp_path, capsys, command, key):
        out = tmp_path / "out.csv"
        assert main([command, flag(key), "1", "--out", str(out)]) == 1
        doc = one_error_line(capsys)
        assert doc["error"] == "ValidationError"
        assert doc["message"] == f"unrecognized arguments: {flag(key)} 1"
        assert not out.exists()

    @pytest.mark.parametrize("command, key", UNREAD)
    def test_as_a_config_file_key(self, tmp_path, capsys, command, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: VALID[key]}))
        out = tmp_path / "out.csv"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
        assert one_error_line(capsys) == {
            "error": "ValidationError", "message": f"{command} does not read {key}"}
        assert not out.exists()

    @pytest.mark.parametrize("command, key", UNREAD)
    def test_as_a_config_argument(self, command, key):
        experiment = COMMANDS[command].experiment
        with pytest.raises(ValidationError, match=f"^{command} does not read {key}$"):
            ExperimentConfig(experiment=experiment, **{key: VALID[key]})

    @pytest.mark.parametrize("argv, unread", [
        (["table2", "--alpha", "3", "--sigma", "9", "--trials", "1"],
         "--alpha 3 --sigma 9"),
        (["fit-series", "--trials", "3", "--n", "30", "--N", "4"], "--trials 3"),
        (["diagnose", "--trials", "3"], "--trials 3"),
    ], ids=["table2-alpha-sigma", "fit-series-trials", "diagnose-trials"])
    def test_unread_flags_regression(self, tmp_path, capsys, series_csv, argv,
                                     unread):
        # these ran, echoing the unread keys as if they were used
        out = tmp_path / "out.csv"
        if argv[0] == "fit-series":
            argv = argv + ["--csv", str(series_csv)]
        assert main(argv + ["--out", str(out)]) == 1
        assert one_error_line(capsys) == {
            "error": "ValidationError",
            "message": f"unrecognized arguments: {unread}"}
        assert not out.exists()


class TestParserReuse:
    def test_builds_one_parser_per_process(self, monkeypatch, capsys):
        build, builds = cli.build_parser, []

        def counting():
            builds.append(None)
            return build()

        cli._parser.cache_clear()
        monkeypatch.setattr(cli, "build_parser", counting)
        assert main(["diagnose", "--format", "json"]) == 0
        assert main(["table1", "--bogus"]) == 1
        assert main(["diagnose", "--N", "1", "--n", "10"]) == 0
        assert len(builds) == 1

    def test_a_refused_call_leaves_the_next_output_alone(self, capsys):
        assert main(["diagnose", "--format", "json"]) == 0
        first = capsys.readouterr().out
        assert main(["table1", "--bogus"]) == 1
        assert one_error_line(capsys) == {
            "error": "ValidationError", "message": "unrecognized arguments: --bogus"}
        assert main(["diagnose", "--format", "json"]) == 0
        assert capsys.readouterr().out == first


def help_flags(capsys, command) -> dict:
    """Each flag of the command's --help, mapped to its help block."""
    with pytest.raises(SystemExit):
        main([command, "--help"])
    text = capsys.readouterr().out
    flags = {}
    for block in re.split(r"\n  (?=-)", text)[1:]:
        words = block.split()
        flags[words[0].rstrip(",")] = " ".join(words)
    return flags


class TestHelp:
    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_flag_help_shows_the_table_default(self, capsys, command):
        flags = help_flags(capsys, command)
        for key, default in COMMANDS[command].keys.items():
            if key == "lambda_grid":      # config-file only
                continue
            if default is None:
                assert "default " not in flags[flag(key)]
            else:
                assert flags[flag(key)].endswith(f"default {default})")

    def test_each_command_has_a_runner_and_lists_its_summary(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        text = " ".join(capsys.readouterr().out.split())
        for spec in COMMANDS.values():
            assert callable(getattr(bench, spec.runner))
            assert spec.summary in text

    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_lists_exactly_the_commands_keys(self, capsys, command):
        keys = set(COMMANDS[command].keys) - {"lambda_grid"}
        assert set(help_flags(capsys, command)) == (
            {"-h", "--seed", "--config", "--out", "--format"} | {flag(k) for k in keys})


@pytest.fixture(scope="module")
def long_series(tmp_path_factory):
    path = tmp_path_factory.mktemp("series") / "series.csv"
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["date", "location", "new_cases"])
        for d in range(SERIES_DAYS):
            day = (BASE + datetime.timedelta(days=d)).isoformat()
            w.writerow([day, "Aland", f"{50 + d % 30 + 10 * (d % 7 == 0):.1f}"])
    return path


def key_values(key, series):
    """Values of a config key, drawn from its field's kind and rule: reals
    over the whole finite float range, integers up to the size caps, and any
    text, besides a valid input path, location or date for fit-series."""
    kind, rule = FIELDS[key].metadata["kind"], FIELDS[key].metadata["rule"]
    if isinstance(kind, tuple):
        return st.sampled_from(kind)
    if kind is str:
        days = st.dates(BASE, BASE + datetime.timedelta(days=SERIES_DAYS - 1))
        valid = {"csv": st.just(str(series)), "location": st.just("Aland"),
                 "start": days.map(datetime.date.isoformat),
                 "end": days.map(datetime.date.isoformat)}
        return st.one_of(valid[key], st.text()) if key in valid else st.text()
    op, bound = rule.split() if rule else (None, None)
    if kind is numbers.Integral:      # every integer rule is ">= b"
        return st.integers(None if bound is None else int(bound), SIZE_CAPS.get(key))
    reals = st.floats(float(bound), exclude_min=op == ">", allow_nan=False,
                      allow_infinity=False)
    return st.lists(reals, min_size=1, max_size=12) if kind is list else reals


class TestConfigSpace:
    """Any config a command reads, its keys drawn from their own kinds and
    rules, ends in exit 0, 1 or 2 on the one-line stderr contract."""

    @pytest.mark.parametrize("command", list(COMMANDS))
    @settings(derandomize=True, deadline=None, max_examples=80)
    @given(data=st.data())
    def test_every_config_keeps_the_exit_contract(self, long_series, command, data):
        keys = [k for k in FIELDS
                if k in COMMANDS[command].keys or k in ("seed", "format")]
        config = {}
        for key in keys:
            values = key_values(key, long_series)
            # a size left unset takes its default (trials 10, fit-series n 340),
            # past the caps; an unset sweep key runs the sweep's own values
            if key not in SIZE_CAPS or key in COMMANDS[command].sweep_keys:
                values = st.none() | values
            value = data.draw(values, label=key)
            if value is not None:
                config[key] = value
        out, err = io.StringIO(), io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp, "config.json")
            path.write_text(json.dumps(config, allow_nan=False))
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([command, "--config", str(path)])
        assert code in (0, 1, 2)
        lines = err.getvalue().splitlines()
        if code != 0:
            assert out.getvalue() == ""
            assert len(lines) == 1
            assert set(json.loads(lines[0])) == {"error", "message"}
            return
        assert lines == []
        body = out.getvalue()
        if config.get("format") == "json":
            doc = json.loads(body, parse_constant=reject_constant)
            values = [v for row in doc.get("rows", [doc]) for v in row.values()]
        else:
            rows = body.splitlines()
            if rows[0].startswith("# config "):
                json.loads(rows.pop(0)[len("# config "):], parse_constant=reject_constant)
            values = [v for row in csv.reader(rows) for v in row]
        assert "nan" not in values

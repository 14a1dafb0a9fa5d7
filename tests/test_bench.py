"""Tests for experiment configs, long-format results, and the table runners."""

import csv
import dataclasses
import io
import json
import math
import numbers
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import pinvreg
from pinvreg import bench
from pinvreg.bench import (
    COMMANDS,
    TABLE1_SWEEP,
    TABLE3_SWEEP,
    ExperimentConfig,
    ExperimentResult,
    run_diagnose,
    run_lfr_sim,
    run_table1,
    run_table2,
    run_table3,
    run_table4,
    run_timeseries,
    timing_comparison,
)
from pinvreg.cli import main
from pinvreg.design import build_design, spectral_report, theory_bounds
from pinvreg.errors import RegularizationError, ValidationError
from pinvreg.jacobi import JacobiBasis, JacobiParams
from pinvreg.lfr import TABLE2, block_gram, ineq47_bound, simulate_problem
from pinvreg.regression import load_model, save_model
from pinvreg.sampling import derive_seed, sample_beta_on_I


def write_series_csv(path, m=60, location="X"):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["date", "location", "new_cases"])
        for d in range(m):
            day = f"2020-{3 + d // 30:02d}-{1 + d % 30:02d}"
            value = 50.0 + 30.0 * math.sin(2 * math.pi * d / m) + d
            w.writerow([day, location, f"{value:.2f}"])
    return path


def command_reading(key):
    """The experiment of a command that reads `key`: table3 reads all the
    checked keys but fit-series' robust-fit and clamp keys."""
    command = "fit-series" if key.startswith(("ransac", "truncation")) else "table3"
    return COMMANDS[command].experiment


class TestExperimentConfig:
    def test_round_trip(self):
        cfg = ExperimentConfig(experiment="table1", alpha=-0.5, N=5, n=25,
                               trials=3, seed=7)
        assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg
        cfg = ExperimentConfig(experiment="table3")      # unchecked default grid
        assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg

    def test_rejects_unknown_keys(self):
        with pytest.raises(ValidationError, match="unknown config key"):
            ExperimentConfig.from_dict({"experiment": "table1", "gamma": 2})

    def test_requires_experiment(self):
        with pytest.raises(ValidationError, match="experiment"):
            ExperimentConfig.from_dict({"N": 5})

    def test_rejects_unknown_experiment(self):
        with pytest.raises(ValidationError, match="unknown experiment"):
            ExperimentConfig(experiment="table9")

    def test_rejects_bad_format(self):
        with pytest.raises(ValidationError, match="format"):
            ExperimentConfig(experiment="table1", format="yaml")

    def test_rejects_bad_trials(self):
        with pytest.raises(ValidationError, match="trials"):
            ExperimentConfig(experiment="table1", trials=0)

    def test_lambda_grid_validated_and_cast(self):
        cfg = ExperimentConfig(experiment="table3", lambda_grid=[1, 0.1])
        assert cfg.lambda_grid == [1.0, 0.1]
        for bad in (0.0, math.inf, math.nan):
            with pytest.raises(ValidationError, match="lambda_grid"):
                ExperimentConfig(experiment="table3", lambda_grid=[1e-3, bad])

    @pytest.mark.parametrize("name", ["alpha", "beta", "s", "sigma", "truncation", "bandwidth"])
    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite_knobs(self, name, bad):
        experiment = command_reading(name)
        with pytest.raises(ValidationError, match=f"{name} must be finite"):
            ExperimentConfig(experiment=experiment, **{name: bad})

    @pytest.mark.parametrize("key, bad", [
        ("trials", "5"), ("N", 2.5), ("n", True), ("seed", 1.5), ("seed", None),
        ("ransac_iterations", "10"), ("ransac_subset", 3.0),
        ("alpha", "0.5"), ("beta", False), ("s", True), ("sigma", [0.1]),
        ("truncation", "1"), ("bandwidth", "10"),
        ("lambda_grid", 5), ("lambda_grid", ["1e-3", "0.1"]), ("lambda_grid", [True, 0.1]),
    ])
    def test_rejects_wrong_types(self, key, bad):
        experiment = command_reading(key)
        with pytest.raises(ValidationError, match=f"{key} must be"):
            ExperimentConfig.from_dict({"experiment": experiment, key: bad})

    @pytest.mark.parametrize("key, bad, rule", [
        ("N", -1, ">= 0"), ("n", 0, ">= 1"), ("trials", 0, ">= 1"), ("seed", -1, ">= 0"),
        ("ransac_iterations", 0, ">= 1"), ("alpha", -0.6, ">= -0.5"),
        ("beta", -0.6, ">= -0.5"), ("s", 0.0, "> 0"), ("sigma", -1e-9, ">= 0"),
        ("truncation", 0.0, "> 0"), ("bandwidth", -3.0, "> 0"),
    ])
    def test_range_rules(self, key, bad, rule):
        experiment = command_reading(key)
        with pytest.raises(ValidationError, match=f"^{key} must be {rule}, got {bad}$"):
            ExperimentConfig.from_dict({"experiment": experiment, key: bad})

    def test_resolves_each_commands_defaults(self):
        lfr = ExperimentConfig(experiment="custom")
        diagnose = ExperimentConfig(experiment="diagnose")
        assert (lfr.n, lfr.N, lfr.trials, lfr.variant) == (300, 50, 1, "example3")
        assert (diagnose.n, diagnose.N, diagnose.trials) == (25, 5, None)
        assert diagnose.alpha == diagnose.beta == -0.5
        series = ExperimentConfig(experiment="covid", alpha=1.0)
        assert (series.n, series.N, series.ransac_iterations) == (340, 40, 10)
        assert series.beta == 1.0             # beta defaults to alpha

    def test_sweep_keys_stay_unset_for_the_sweep(self):
        sweep = ExperimentConfig(experiment="table3")
        assert (sweep.sigma, sweep.s, sweep.N, sweep.bandwidth) == (None,) * 4
        assert (sweep.trials, sweep.n, sweep.alpha, sweep.beta) == (10, 100, -0.5, -0.5)
        cell = ExperimentConfig(experiment="table3", sigma=0.05)
        assert (cell.sigma, cell.s, cell.N, cell.bandwidth) == (0.05, 1.0, 10, None)

    def test_every_command_has_valid_defaults(self):
        # defaults are filled in unchecked, so pass them as if set by hand
        for spec in COMMANDS.values():
            ExperimentConfig(experiment=spec.experiment,
                             **{k: v for k, v in spec.keys.items() if v is not None})

    def test_each_experiment_names_one_command(self):
        assert len(bench.EXPERIMENTS) == len(COMMANDS)

    @pytest.mark.parametrize("command", COMMANDS)
    def test_default_config_survives_round_trip_and_replace(self, command):
        spec = COMMANDS[command]
        cfg = ExperimentConfig(experiment=spec.experiment)
        read = set(spec.keys) | set(bench.COMMON_KEYS)
        assert {k for k, v in cfg.to_dict().items() if v is not None} <= read
        assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg
        assert dataclasses.replace(cfg, seed=3).to_dict() == cfg.to_dict() | {"seed": 3}

    @pytest.mark.parametrize("field", dataclasses.fields(ExperimentConfig),
                             ids=lambda f: f.name)
    def test_every_key_rejects_a_wrong_kind(self, field):
        kind = field.metadata["kind"]
        assert isinstance(kind, tuple) or kind in (str, list) or issubclass(
            kind, numbers.Number)
        d = {"experiment": "table1", field.name: 5 if kind is str else "5"}
        with pytest.raises(ValidationError, match=rf"^(unknown )?{field.name} "):
            ExperimentConfig.from_dict(d)

    def test_names_every_unread_key(self):
        with pytest.raises(ValidationError, match="^table2 does not read alpha, sigma$"):
            ExperimentConfig(experiment="table2", alpha=3.0, sigma=9.0, trials=1)

    @pytest.mark.parametrize("command, keys, message", [
        ("table1", {"N": 25}, "n must be > N, got n=25, N=25"),
        ("table3", {"N": 100}, "n must be > N, got n=100, N=100"),
        ("diagnose", {"N": 10**23}, f"n must be > N, got n=25, N={10**23}"),
        ("fit-series", {"n": 40}, "n must be > N, got n=40, N=40"),
        ("fit-series", {"ransac_subset": 40},
         "ransac_subset must be > N, got ransac_subset=40, N=40"),
        ("fit-series", {"ransac_subset": 341},
         "ransac_subset must be <= n, got ransac_subset=341, n=340"),
    ])
    def test_cross_key_rules(self, command, keys, message):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            ExperimentConfig(experiment=COMMANDS[command].experiment, **keys)

    def test_sweep_cells_are_held_to_the_rules(self):
        # table3's sweep leaves N unset in the config; its cells run N = 10..30
        config = ExperimentConfig(experiment="table3", n=30, trials=1)
        with pytest.raises(ValidationError, match="^n must be > N, got n=30, N=30$"):
            run_table3(config)
        config = ExperimentConfig(experiment="table3", n=31, trials=1)
        assert len(run_table3(config).rows) == 3 * len(TABLE3_SWEEP)

    def test_cross_key_rules_hold_at_their_edges(self):
        assert ExperimentConfig(experiment="table1", N=24).n == 25
        for subset in (41, 340):
            assert ExperimentConfig(experiment="covid", ransac_subset=subset).N == 40

    def test_cross_key_rules_skip_an_unset_key(self):
        # a whole sweep leaves N unset, and ransac_subset defaults in the library
        assert ExperimentConfig(experiment="table3", n=5).N is None
        assert ExperimentConfig(experiment="covid", n=41).ransac_subset is None

    def test_replace_keeps_the_command(self):
        cfg = ExperimentConfig(experiment="diagnose", alpha=1.0)
        assert dataclasses.replace(cfg, seed=1).to_dict() == cfg.to_dict() | {"seed": 1}


class TestExperimentResult:
    def make(self):
        rows = [
            {"experiment": "table1", "alpha": -0.5, "N": 5, "n": 25,
             "metric": "mean_kappa2_direct", "value": 7.25, "seed": "0/table1"},
        ]
        return ExperimentResult(config={"experiment": "table1", "seed": 0},
                                rows=rows)

    def test_csv_config_line(self):
        text = self.make().to_csv_text()
        first = text.split("\r\n", 1)[0]
        assert first.startswith("# config ")
        assert json.loads(first[len("# config "):]) == {
            "experiment": "table1", "seed": 0}

    def test_csv_body_parses(self):
        text = self.make().to_csv_text()
        body = text.split("\r\n", 1)[1]
        reader = csv.reader(io.StringIO(body))
        header = next(reader)
        assert header[:2] == ["experiment", "alpha"]
        row = next(reader)
        row_map = dict(zip(header, row))
        assert row_map["value"] == repr(7.25)
        assert row_map["beta"] == ""          # absent fields render empty

    def test_json_structure(self):
        doc = json.loads(self.make().to_json_text())
        assert set(doc) == {"config", "rows"}
        assert doc["rows"][0]["metric"] == "mean_kappa2_direct"
        assert "beta" not in doc["rows"][0]   # None values dropped

    def test_render_validates_format(self):
        with pytest.raises(ValidationError, match="format"):
            self.make().render("parquet")

    def test_write_matches_render(self, tmp_path):
        res = self.make()
        path = tmp_path / "out.csv"
        res.write(path, "csv")
        assert path.read_bytes() == res.to_csv_text().encode()

    @pytest.mark.parametrize("columns, rows", [
        (("a", "b", "c"), [{"a": 1, "c": 2.5}, {"b": "x"}]),     # a missing column
        (("a", "b"), [{"a": 1, "b": 2, "z": "extra"}]),          # an extra key
        (("a", "b"), [{"a": None, "b": float("nan")}]),          # a None value
        (("a",), [{"a": "two words"}, {"a": 2.0}, {}]),          # one column
        (("a", "b"), []),
    ])
    def test_csv_matches_the_row_get_reference(self, columns, rows):
        res = ExperimentResult(config={"seed": 0}, rows=rows, columns=columns)
        assert res.to_csv_text() == reference_csv_text(res)

    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_every_command_renders_as_the_reference(self, tmp_path, command):
        spec = COMMANDS[command]
        keys = {}
        if command == "fit-series":
            keys = {"csv": str(write_series_csv(tmp_path / "series.csv")), "n": 50, "N": 8}
        res = getattr(bench, spec.runner)(
            ExperimentConfig(experiment=spec.experiment, seed=0, **keys))
        assert res.rows
        assert res.to_csv_text() == reference_csv_text(res)


def reference_csv_text(result):
    """ExperimentResult.to_csv_text with one `row.get` per cell: the render
    that the C-level field extraction must match byte for byte."""
    buf = io.StringIO()
    buf.write("# config ")
    buf.write(json.dumps(result.config, sort_keys=True, separators=(",", ":")))
    buf.write("\r\n")
    writer = csv.writer(buf)
    writer.writerow(result.columns)
    writer.writerows([row.get(col) for col in result.columns] for row in result.rows)
    return buf.getvalue()


class TestRunTable1:
    def test_degenerate_degree_gives_unit_kappa(self):
        res = run_table1(ExperimentConfig(experiment="table1", N=0, n=20, trials=1))
        vals = {r["metric"]: r["value"] for r in res.rows}
        assert vals["mean_kappa2_direct"] == pytest.approx(1.0)
        assert vals["mean_kappa2_transformed"] == pytest.approx(1.0)
        assert vals["singular_trials_direct"] == 0.0

    def test_one_basis_table_per_cell_and_transform(self, monkeypatch):
        table = JacobiBasis.table
        points = []

        def counted(self, x):
            points.append(len(x))
            return table(self, x)

        monkeypatch.setattr(JacobiBasis, "table", counted)
        cpus(monkeypatch, 1)       # every call counted here, wherever cells run
        run_table1(ExperimentConfig(experiment="table1", trials=3))
        # each (cell, transform) pair evaluates its 3 trials' points in one call
        assert sorted(points) == sorted(3 * n for _, _, n in TABLE1_SWEEP for _ in range(2))

    def test_sweep_covers_grid(self):
        res = run_table1(ExperimentConfig(experiment="table1", trials=1))
        assert len(res.rows) == 4 * len(TABLE1_SWEEP)
        cells = {(r["alpha"], r["N"], r["n"]) for r in res.rows}
        assert cells == set(TABLE1_SWEEP)

    def test_seed_lineage_strings(self):
        res = run_table1(ExperimentConfig(experiment="table1", N=3, n=20,
                                          trials=1, seed=5))
        seeds = {r["seed"] for r in res.rows}
        assert any(s.startswith("5/table1/direct") for s in seeds)
        assert any(s.startswith("5/table1/transformed") for s in seeds)

    def test_beta_alone_picks_one_cell(self):
        res = run_table1(ExperimentConfig(experiment="table1", beta=0.5, trials=1))
        assert {(r["alpha"], r["beta"], r["N"], r["n"]) for r in res.rows} == {
            (-0.5, 0.5, 5, 25)}
        assert (res.config["alpha"], res.config["N"], res.config["n"]) == (-0.5, 5, 25)

    def test_echo_resolves_defaults_and_drops_out(self):
        res = run_table1(ExperimentConfig(experiment="table1", N=3, n=20,
                                          trials=1, out="/tmp/somewhere.csv"))
        assert res.config["trials"] == 1
        assert "out" not in res.config

    def test_wrong_experiment_rejected(self):
        with pytest.raises(ValidationError, match="runner expects"):
            run_table1(ExperimentConfig(experiment="table2"))

    def test_rerun_byte_identical(self):
        cfg = ExperimentConfig(experiment="table1", N=4, n=30, trials=2, seed=1)
        assert run_table1(cfg).to_json_text() == run_table1(cfg).to_json_text()


class TestRunTable2:
    def test_single_cell_metrics(self):
        res = run_table2(ExperimentConfig(experiment="table2", s=2.0, N=8,
                                          n=100, trials=2, seed=0))
        vals = {r["metric"]: r["value"] for r in res.rows}
        assert vals["ineq47_bound"] == pytest.approx(ineq47_bound(2.0, 8))
        assert vals["bound_exceeded"] in (0.0, 1.0)
        assert vals["singular_trials"] == 0.0
        assert 1.0 < vals["cumulative_kappa"] < vals["ineq47_bound"]

    def test_matches_per_trial_reference(self):
        # reference: a full problem and one block Gram and report per trial
        res = run_table2(ExperimentConfig(experiment="table2", s=1.5, N=20, n=60,
                                          trials=4, seed=3))
        vals = {r["metric"]: r["value"] for r in res.rows}
        sums = []
        for t in range(4):
            problem = simulate_problem(60, 20, 1.5, sigma=0.0, variant=TABLE2,
                                       seed=derive_seed(3, "table2", "s=1.5", 20, 60, t))
            sums.append(float(sum(spectral_report(block_gram(problem, k)[1]).kappa2
                                  for k in range(problem.partition.K))))
        assert vals["cumulative_kappa"] == float(np.mean(sums))
        assert vals["singular_trials"] == 0.0

    def test_counts_a_singular_trial(self, monkeypatch):
        # trial 1 repeats a score column inside block (9, 16): that block's
        # Gram is rank deficient, so its kappa and its trial's sum read inf
        draw = bench._scores
        calls = []

        def scores(n, size, seed):
            Z = draw(n, size, seed)
            calls.append(seed)
            if len(calls) == 2:
                Z[:, 8] = Z[:, 9]
            return Z

        monkeypatch.setattr(bench, "_scores", scores)
        res = run_table2(ExperimentConfig(experiment="table2", s=1.5, N=20, n=60,
                                          trials=4, seed=3))
        vals = {r["metric"]: r["value"] for r in res.rows}
        sums = []
        for t in (0, 2, 3):
            problem = simulate_problem(60, 20, 1.5, sigma=0.0, variant=TABLE2,
                                       seed=derive_seed(3, "table2", "s=1.5", 20, 60, t))
            sums.append(sum(spectral_report(block_gram(problem, k)[1]).kappa2
                            for k in range(problem.partition.K)))
        assert len(calls) == 4
        assert vals["singular_trials"] == 1.0
        assert vals["cumulative_kappa"] == float(np.mean(sums))

    def test_deterministic(self):
        cfg = ExperimentConfig(experiment="table2", s=1.5, N=8, n=80, trials=2)
        assert run_table2(cfg).to_csv_text() == run_table2(cfg).to_csv_text()


class TestRunTable3:
    def test_noiseless_fit_is_tight(self):
        # sigma = 0 leaves only the polynomial approximation floor
        res = run_table3(ExperimentConfig(experiment="table3", sigma=0.0,
                                          s=2.0, N=30, trials=1))
        vals = {r["metric"]: r["value"] for r in res.rows}
        assert vals["mse_npreg"] < 2e-4
        assert vals["singular_trials"] == 0.0

    def test_bandwidth_defaults_to_degree(self):
        res = run_table3(ExperimentConfig(experiment="table3", sigma=0.1,
                                          s=1.0, N=10, trials=1))
        assert all(r["c"] == 10.0 for r in res.rows)

    def test_bandwidth_override(self):
        res = run_table3(ExperimentConfig(experiment="table3", sigma=0.1,
                                          s=1.0, N=10, trials=1, bandwidth=25.0))
        assert all(r["c"] == 25.0 for r in res.rows)

    def test_echo_includes_lambda_grid(self):
        res = run_table3(ExperimentConfig(experiment="table3", sigma=0.1,
                                          s=1.0, N=10, trials=1,
                                          lambda_grid=[1e-6, 1e-3]))
        assert res.config["lambda_grid"] == [1e-6, 1e-3]


def cpus(monkeypatch, count):
    """Make the runners see `count` usable CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


def pid_cell(config, cell):
    """A sweep cell that records the process it runs in; it raises where the
    cell is negative."""
    if cell < 0:
        raise ValueError(f"cell {cell} refused")
    return [{"cell": cell, "pid": os.getpid()}]


def sweep_pids(cells) -> list:
    config = ExperimentConfig(experiment="table1")
    rows = bench._sweep(config, pid_cell, cells).rows
    assert [row["cell"] for row in rows] == cells
    return [row["pid"] for row in rows]


def no_child_left():
    """This process has no child, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestForkedCells:
    """Every table deals its cells between the calling process and forked
    children, the same way on every sweep."""

    @pytest.fixture
    def two_cpus(self, monkeypatch):
        cpus(monkeypatch, 2)

    @pytest.mark.parametrize("runner, keys", [
        (run_table1, {"experiment": "table1", "trials": 1}),
        (run_table2, {"experiment": "table2", "trials": 1}),
        (run_table3, {"experiment": "table3", "trials": 1, "n": 40}),
        (run_table4, {"experiment": "table4", "trials": 1}),
    ])
    def test_every_table_forks(self, monkeypatch, runner, keys):
        def forks():
            raise RuntimeError("a child is forked")

        monkeypatch.setattr(os, "fork", forks)
        cpus(monkeypatch, 2)
        with pytest.raises(RuntimeError, match="a child is forked"):
            runner(ExperimentConfig(**keys))
        no_child_left()

    def test_a_warm_sweep_runs_a_share_here(self, two_cpus, monkeypatch):
        # a cell function's first and second sweeps in this process are dealt
        # alike: two CPUs run shares [0, 2] here and [1] in a child
        me = os.getpid()
        for _ in range(2):
            pids = sweep_pids([0, 1, 2])
            assert pids[0] == pids[2] == me
            assert pids[1] != me
        # three CPUs: shares [0, 3], [1, 4] and [2]
        cpus(monkeypatch, 3)
        for _ in range(2):
            pids = sweep_pids([0, 1, 2, 3, 4])
            assert pids[0] == pids[3] == me
            assert pids[1] == pids[4] != me
            assert pids[2] not in (me, pids[1])
        no_child_left()

    def test_an_error_here_kills_the_children(self, two_cpus):
        parent = os.getpid()

        def refused_here(config, cell):
            if os.getpid() != parent:
                time.sleep(60)      # killed long before
            raise ValueError(f"cell {cell} refused here")

        start = time.monotonic()
        with pytest.raises(ValueError, match="cell 0 refused here"):
            bench._sweep(ExperimentConfig(experiment="table1"), refused_here, [0, 1])
        assert time.monotonic() - start < 30
        no_child_left()

    def test_a_child_that_dies_exits_one(self, tmp_path):
        # a child killed mid-sweep (as by the OOM killer) leaves an OSError,
        # not a wait without end
        script = (
            "import os, signal, sys\n"
            "from pinvreg import bench\n"
            "from pinvreg.cli import main\n"
            "parent, noise = os.getpid(), bench.make_noise\n"
            "def dies_in_a_child(*args, **kwargs):\n"
            "    if os.getpid() != parent:\n"
            "        os.kill(os.getpid(), signal.SIGKILL)\n"
            "    return noise(*args, **kwargs)\n"
            "bench.make_noise = dies_in_a_child\n"
            "os.sched_getaffinity = lambda pid: {0, 1, 2}\n"
            "code = main(['table3', '--trials', '1', '--n', '40', '--out', 't.csv'])\n"
            "try:\n"
            "    os.waitpid(-1, os.WNOHANG)\n"
            "except ChildProcessError:\n"
            "    sys.exit(code)\n"
            "sys.exit('a child outlived the sweep')\n"
        )
        src = str(Path(pinvreg.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 1
        assert proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1
        doc = json.loads(lines[0])
        assert doc["error"] == "OSError"
        assert re.fullmatch(r"sweep worker \d+ died without a result", doc["message"])
        assert list(tmp_path.iterdir()) == []

    def test_a_child_that_loads_scipy_writes_the_serial_bytes(self, tmp_path):
        # at alpha = 1/2 every table3 cell loads scipy (betaincinv and
        # roots_jacobi); a fresh process on 2 CPUs forks before any cell, so
        # the child loads its own scipy
        script = (
            "import os, sys\n"
            "from pinvreg.cli import main\n"
            "os.sched_getaffinity = lambda pid: set(range(int(sys.argv[1])))\n"
            "sys.exit(main(['table3', '--alpha', '0.5', '--n', '40', '--trials', '1',\n"
            "               '--out', sys.argv[2]]))\n"
        )
        src = str(Path(pinvreg.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src, os.environ.get("PYTHONPATH", "")]))
        for count in (2, 1):
            subprocess.run([sys.executable, "-c", script, str(count), f"{count}.csv"],
                           cwd=tmp_path, env=env, capture_output=True, timeout=120,
                           check=True)
        assert (tmp_path / "2.csv").read_bytes() == (tmp_path / "1.csv").read_bytes()

    def test_table1_children_that_load_scipy_write_the_serial_bytes(self, tmp_path):
        # at alpha = beta = 1/2, inverse_beta_cdf loads scipy; a fresh process
        # on 2 CPUs forks before any cell, so the child loads its own. Each
        # process checks that its first cell is the one that loads scipy, and
        # a child leaves a file named after its pid
        script = (
            "import os, sys\n"
            "from pinvreg import bench\n"
            "count, parent, fresh = int(sys.argv[1]), os.getpid(), []\n"
            "os.sched_getaffinity = lambda pid: set(range(count))\n"
            "def cell(config, c):\n"
            "    fresh.append('scipy' not in sys.modules)\n"
            "    rows = bench._table1_cell(config, c)\n"
            "    assert fresh[0] and 'scipy.special' in sys.modules, fresh\n"
            "    if os.getpid() != parent:\n"
            "        open(f'child-{count}-{os.getpid()}', 'w').close()\n"
            "    return rows\n"
            "assert 'scipy' not in sys.modules\n"
            "cells = [(0.5, 0.5, 5, 25), (0.5, 0.5, 10, 40), (0.5, 0.5, 15, 60)]\n"
            "config = bench.ExperimentConfig(experiment='table1', trials=3, seed=7)\n"
            "text = bench._sweep(config, cell, cells).to_json_text()\n"
            "open(sys.argv[2], 'w').write(text)\n"
        )
        src = str(Path(pinvreg.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src, os.environ.get("PYTHONPATH", "")]))
        for count in (2, 1):
            subprocess.run([sys.executable, "-c", script, str(count), f"{count}.json"],
                           cwd=tmp_path, env=env, capture_output=True, timeout=120,
                           check=True)
        children = sorted(p.name.rsplit("-", 1)[0] for p in tmp_path.glob("child-*"))
        assert children == ["child-2"]      # one forked child, and only on 2 CPUs
        assert (tmp_path / "2.json").read_bytes() == (tmp_path / "1.json").read_bytes()

    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize("runner, keys", [
        (run_table2, {"experiment": "table2", "trials": 2}),
        (run_table3, {"experiment": "table3", "trials": 1, "n": 40}),
        (run_table4, {"experiment": "table4", "trials": 1}),
        (run_table1, {"experiment": "table1", "trials": 2}),
    ])
    def test_serial_rows_equal_the_pooled_ones(self, two_cpus, monkeypatch, runner, keys,
                                               seed):
        # two split sweeps, then every cell in the calling process
        cfg = ExperimentConfig(**keys, seed=seed)
        pooled = runner(cfg).to_json_text()
        assert runner(cfg).to_json_text() == pooled
        cpus(monkeypatch, 1)
        assert runner(cfg).to_json_text() == pooled
        no_child_left()

    def test_a_workers_numerical_error_exits_two(self, monkeypatch, tmp_path, capsys):
        parent, solve = os.getpid(), bench.cross_validate

        def fails_in_a_worker(*args, **kwargs):
            if os.getpid() != parent:
                raise RegularizationError("kernel system is not positive definite")
            return solve(*args, **kwargs)

        monkeypatch.setattr(bench, "cross_validate", fails_in_a_worker)
        cpus(monkeypatch, 2)
        out = tmp_path / "table3.json"
        argv = ["table3", "--trials", "1", "--n", "40", "--format", "json"]
        assert main(argv + ["--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "RegularizationError"
        assert not out.exists()
        no_child_left()

    def test_a_workers_refusal_exits_one(self, monkeypatch, tmp_path, capsys):
        # noise past the float range in the workers' cells only: their MSE
        # refusal reaches the caller as the one error line
        parent, noise = os.getpid(), bench.make_noise

        def huge_in_a_worker(n, sigma, **kwargs):
            return noise(n, sigma if os.getpid() == parent else 1e160, **kwargs)

        monkeypatch.setattr(bench, "make_noise", huge_in_a_worker)
        cpus(monkeypatch, 2)
        out = tmp_path / "table3.json"
        argv = ["table3", "--trials", "1", "--n", "40", "--format", "json"]
        assert main(argv + ["--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        doc = json.loads(lines[0])
        assert doc["error"] == "ValueError" and "puts an MSE past" in doc["message"]
        assert not out.exists()
        no_child_left()

    def test_no_worker_outlives_the_run(self, monkeypatch):
        cpus(monkeypatch, 2)
        run_table3(ExperimentConfig(experiment="table3", trials=1, n=40))
        no_child_left()


class TestRunTable4:
    def test_noiseless_estimation_error_vanishes(self):
        res = run_table4(ExperimentConfig(experiment="table4", sigma=0.0,
                                          s=2.0, n=100, trials=1))
        vals = {r["metric"]: r["value"] for r in res.rows}
        assert vals["e2"] <= 1e-10
        assert vals["e0"] <= 1e-10
        assert vals["singular_trials"] == 0.0

    def test_row_structure(self):
        res = run_table4(ExperimentConfig(experiment="table4", s=1.5, n=100,
                                          trials=2, seed=4))
        metrics = [r["metric"] for r in res.rows]
        assert metrics == ["e0", "e2", "cumulative_kappa", "singular_trials"]
        assert all(r["N"] == 50 and r["sigma"] == 0.5 for r in res.rows)


class TestRunLfrSim:
    def test_per_trial_rows(self):
        res = run_lfr_sim(ExperimentConfig(experiment="custom", trials=2,
                                           n=150, N=20))
        assert [r["metric"] for r in res.rows] == [
            "e0", "e2", "cumulative_kappa"] * 2
        assert all(np.isfinite(r["value"]) for r in res.rows)

    def test_deterministic(self):
        cfg = ExperimentConfig(experiment="custom", trials=2, n=150, N=20, seed=8)
        assert run_lfr_sim(cfg).to_csv_text() == run_lfr_sim(cfg).to_csv_text()

    def test_rejects_another_experiment(self):
        for experiment in ("table4", "diagnose"):
            with pytest.raises(ValidationError, match="runner expects 'custom'"):
                run_lfr_sim(ExperimentConfig(experiment=experiment))


class TestRunDiagnose:
    def test_row_matches_library(self):
        res = run_diagnose(ExperimentConfig(experiment="diagnose", seed=7))
        params = JacobiParams(-0.5, -0.5)
        samples = sample_beta_on_I(params, 25, 7)
        A = build_design(JacobiBasis(params, 5), samples)
        report = spectral_report(A.T @ A)
        tb = theory_bounds(params, 25, 5)
        assert res.rows == [{
            "alpha": -0.5, "beta": -0.5, "N": 5, "n": 25, "seed": 7,
            "lambda_min": report.lambda_min, "lambda_max": report.lambda_max,
            "kappa2": report.kappa2, "condition1_satisfied": tb.condition1_ok,
            "L_N": tb.L_N, "kappa_bound_delta=0.1": tb.kappa_bound(0.1)}]
        assert res.columns == tuple(res.rows[0])
        assert res.config["experiment"] == "diagnose"
        assert res.model is None      # only fit-series' result carries a model

    def test_rejects_another_experiment(self):
        with pytest.raises(ValidationError, match="runner expects 'diagnose'"):
            run_diagnose(ExperimentConfig(experiment="table1"))


class TestRunTimeseries:
    def test_plot_rows_and_diagnostics(self, tmp_path):
        path = write_series_csv(tmp_path / "series.csv")
        cfg = ExperimentConfig(experiment="covid", csv=str(path), n=50, N=8,
                               seed=1)
        res = run_timeseries(cfg)
        assert res.columns == ("day", "observed", "fitted")
        assert len(res.rows) == 60
        diag = res.config["diagnostics"]
        assert diag["m"] == 60
        assert math.isfinite(diag["kappa2"])
        assert res.model.basis.degree_max == 8

    def test_saved_model_reproduces_the_fitted_column(self, tmp_path):
        path = write_series_csv(tmp_path / "series.csv")
        res = run_timeseries(ExperimentConfig(experiment="covid", csv=str(path),
                                              n=50, N=8, seed=1))
        save_model(res.model, tmp_path / "series.model.json")
        model = load_model(tmp_path / "series.model.json")
        fitted = [row["fitted"] for row in res.rows]
        np.testing.assert_allclose(model.predict(np.arange(1, 61) / 60), fitted,
                                   rtol=1e-12)

    def test_requires_csv(self):
        with pytest.raises(ValidationError, match="csv"):
            run_timeseries(ExperimentConfig(experiment="covid"))


class TestTimingComparison:
    def test_reports_positive_times(self):
        t = timing_comparison(n=100, repeats=2)
        assert set(t) == {"npreg_seconds", "krr_seconds"}
        assert t["npreg_seconds"] > 0 and t["krr_seconds"] > 0

    @pytest.mark.parametrize("repeats", [0, -1])
    def test_rejects_fewer_than_one_repeat(self, repeats):
        with pytest.raises(ValueError, match=f"^repeats must be >= 1, got {repeats}$"):
            timing_comparison(n=100, repeats=repeats)


def openblas_counts() -> list:
    """The thread count of each OpenBLAS that the sweep sets."""
    return [get() for get, _ in bench._openblas_threads()]


def thread_cell(config, cell):
    """A sweep cell that reads openblas_counts(); it raises where the cell is
    negative and runs in the process whose pid is the config's seed."""
    if cell < 0 and os.getpid() == config.seed:
        raise ValueError(f"cell {cell} refused here")
    return [{"cell": cell, "threads": openblas_counts()}]


class TestSweepThreads:
    """A forked sweep runs numpy's OpenBLAS on one thread per process, and
    gives the caller its count back however the sweep ends; a serial sweep
    leaves it alone."""

    @pytest.fixture
    def threads(self, monkeypatch):
        """numpy's OpenBLAS at 2 threads and two usable CPUs; yields the
        counts as they read, and puts the earlier ones back afterwards."""
        found = bench._openblas_threads()
        if not found:
            pytest.skip("no OpenBLAS with a thread setter is loaded")
        saved = [(put, get()) for get, put in found]
        for put, _ in saved:
            put(2)
        cpus(monkeypatch, 2)
        yield openblas_counts()
        for put, count in saved:
            put(count)

    def test_children_run_one_thread_and_the_caller_gets_its_counts_back(self, threads):
        config = ExperimentConfig(experiment="table1", seed=os.getpid())
        for _ in range(2):      # two sweeps in one process
            rows = bench._sweep(config, thread_cell, [0, 1, 2, 3]).rows
            assert [row["cell"] for row in rows] == [0, 1, 2, 3]
            assert [row["threads"] for row in rows] == [[1] * len(threads)] * 4
            assert openblas_counts() == threads
        no_child_left()

    def test_a_sweep_that_raises_gives_the_counts_back(self, threads):
        config = ExperimentConfig(experiment="table1", seed=os.getpid())
        # cell -1 is in the caller's share
        with pytest.raises(ValueError, match="cell -1 refused here"):
            bench._sweep(config, thread_cell, [-1, 1, 2])
        assert openblas_counts() == threads
        no_child_left()

    def test_a_serial_sweep_keeps_the_counts(self, threads, monkeypatch):
        cpus(monkeypatch, 1)
        rows = bench._sweep(ExperimentConfig(experiment="table1"), thread_cell,
                            [0, 1, 2]).rows
        assert [row["threads"] for row in rows] == [threads] * 3

    def test_a_setter_that_cannot_be_found_changes_nothing(self, threads, monkeypatch):
        # a symbol that the library does not have, and a pattern that finds
        # no library
        pattern, symbol = found = bench._OPENBLAS
        for missing in ((pattern, symbol + "_none"), ("pinvreg.libs/*.so*", symbol)):
            monkeypatch.setattr(bench, "_OPENBLAS", missing)
            assert bench._openblas_threads() == []
            rows = bench._sweep(ExperimentConfig(experiment="table1"), thread_cell,
                                [0, 1, 2]).rows
            assert [row["cell"] for row in rows] == [0, 1, 2]
        monkeypatch.setattr(bench, "_OPENBLAS", found)
        assert openblas_counts() == threads
        no_child_left()

    @pytest.mark.parametrize("seed", [0, 7])
    def test_rows_at_a_threaded_size(self, threads, monkeypatch, seed):
        # n = 220 gives a 220x220 kernel, whose eigh numpy's OpenBLAS threads
        # and so rounds mse_krr by its thread count (n = 200, a multiple of 8,
        # did not): two split sweeps and a serial one at one thread give
        # equal rows, and a serial one at two threads moves
        # mse_krr within its lock
        cfg = ExperimentConfig(experiment="table3", trials=1, n=220, seed=seed)
        pooled = run_table3(cfg).rows
        assert run_table3(cfg).rows == pooled
        cpus(monkeypatch, 1)
        serial = run_table3(cfg).rows
        for mine, theirs in zip(pooled, serial, strict=True):
            if mine["metric"] == "mse_krr":
                assert mine["value"] == pytest.approx(theirs["value"], rel=1e-6, abs=0)
                mine, theirs = dict(mine, value=0), dict(theirs, value=0)
            assert mine == theirs
        for _, put in bench._openblas_threads():
            put(1)
        assert run_table3(cfg).rows == pooled
        no_child_left()

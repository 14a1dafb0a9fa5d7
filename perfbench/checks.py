"""Checks every `--out` file of a benchmark operation must pass.

A check failure makes the operation count as failed. The expected cell grids
are written out here, not imported from the program, so a program that drops
or renames a cell fails the check instead of redefining it.
"""

import csv
import json
import math
from dataclasses import dataclass

import numpy as np


class CheckError(Exception):
    """An output file that a correct program could not have written."""


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


@dataclass(frozen=True)
class Table:
    cell_columns: tuple
    cells: tuple
    metrics: tuple
    trials: int
    samplings: int = 1      # Monte Carlo runs per cell (table1: direct and transformed)


# Paper-default grids of the four table commands.
TABLES = {
    "table1": Table(
        ("alpha", "N", "n"),
        ((-0.5, 5, 25), (-0.5, 10, 40), (-0.5, 15, 60), (-0.5, 20, 100),
         (0.0, 5, 40), (0.0, 10, 100), (0.0, 15, 125), (0.0, 20, 250)),
        ("mean_kappa2_direct", "singular_trials_direct",
         "mean_kappa2_transformed", "singular_trials_transformed"),
        trials=50, samplings=2,
    ),
    "table2": Table(
        ("s", "N", "n"),
        tuple((s, N, n) for s in (0.75, 1.5) for N in (20, 30, 40, 50)
              for n in (100, 150, 200)),
        ("cumulative_kappa", "ineq47_bound", "bound_exceeded", "singular_trials"),
        trials=50,
    ),
    "table3": Table(
        ("sigma", "s", "N"),
        tuple((sigma, s, N) for sigma in (0.1, 0.05) for s in (1.0, 2.0)
              for N in (10, 20, 30)),
        ("mse_npreg", "mse_krr", "singular_trials"),
        trials=10,
    ),
    "table4": Table(
        ("s", "n"),
        tuple((s, n) for s in (1.5, 2.0, 4.0) for n in (100, 200, 300)),
        ("e0", "e2", "cumulative_kappa", "singular_trials"),
        trials=10,
    ),
}
TABLE_COLUMNS = ("experiment", "alpha", "beta", "s", "sigma", "N", "n", "c",
                 "trials", "metric", "value", "seed")
SERIES_COLUMNS = ("day", "observed", "fitted")
SERIES_DEGREE = 40          # fit-series defaults: N = 40, n = 340, 10 RANSAC iterations
SERIES_SAMPLES = 340
RANSAC_ITERATIONS = 10

# Relative tolerance of each value against the outputs recorded at the
# default workload seed. 1e-9 is the project's behaviour lock: far above the
# ~1e-14 that reordered sums or another LAPACK routine give, far below any real
# change of result. mse_krr is looser because cross-validation can select the
# ridge 1e-9, where the regularized sinc-kernel system is so ill conditioned
# that last-bit changes of the kernel entries move the MSE far more: writing
# the kernel as (c/pi) np.sinc(c d / pi) moves mse_krr by up to 9.7e-9
# (relative) at the default seed, so 1e-6 leaves a margin of about 100.
DEFAULT_REL_TOL = 1e-9
REL_TOL = {"mse_krr": 1e-6}
# Counts and verdicts must match exactly.
EXACT_METRICS = ("singular_trials", "singular_trials_direct",
                 "singular_trials_transformed", "bound_exceeded",
                 "ransac_iteration", "ransac_failures")


def read_result(path) -> tuple:
    """(config echo, header, rows as dicts) of a config-stamped result CSV."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            first = fh.readline()
            _expect(first.startswith("# config "), f"{path}: no '# config' line")
            try:
                config = json.loads(first[len("# config "):])
            except json.JSONDecodeError as exc:
                raise CheckError(f"{path}: config echo is not JSON: {exc}") from None
            _expect(isinstance(config, dict), f"{path}: config echo is not an object")
            reader = csv.DictReader(fh)
            rows = list(reader)
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise CheckError(f"{path}: unreadable: {exc}") from None
    return config, tuple(reader.fieldnames or ()), rows


def _finite(value: str, where: str) -> float:
    try:
        x = float(value)
    except (TypeError, ValueError):     # a short row reads as None
        raise CheckError(f"{where}: {value!r} is not a number") from None
    _expect(math.isfinite(x), f"{where}: value {x} is not finite")
    return x


def _key(cell, metric: str) -> str:
    return ",".join(repr(float(v)) for v in cell) + "/" + metric


def check_table(command: str, path, seed: int) -> dict:
    """Validate a table command's output; return {cell/metric: value}."""
    spec = TABLES[command]
    config, header, rows = read_result(path)
    _expect(header == TABLE_COLUMNS, f"{path}: header {header}")
    _expect(config.get("experiment") == command, f"{path}: experiment {config.get('experiment')!r}")
    _expect(config.get("seed") == seed, f"{path}: seed echo {config.get('seed')!r} != {seed}")
    _expect(config.get("trials") == spec.trials, f"{path}: trials echo {config.get('trials')!r}")
    values = {}
    for row in rows:
        _expect(row["experiment"] == command, f"{path}: row of experiment {row['experiment']!r}")
        cell = tuple(_finite(row[c], f"{path} {c}") for c in spec.cell_columns)
        key = _key(cell, row["metric"])
        _expect(key not in values, f"{path}: duplicate row {key}")
        values[key] = _finite(row["value"], f"{path} {key}")
    expected = {_key(cell, m) for cell in spec.cells for m in spec.metrics}
    missing, extra = sorted(expected - set(values)), sorted(set(values) - expected)
    _expect(not missing and not extra, f"{path}: missing {missing[:3]}, unexpected {extra[:3]}")

    for cell in spec.cells:
        v = {m: values[_key(cell, m)] for m in spec.metrics}
        where = f"{path} cell {cell}"
        for m, x in v.items():
            if m.startswith("singular_trials"):
                _expect(x == int(x) and 0 <= x <= spec.trials, f"{where}: {m} = {x}")
            if m.startswith(("mean_kappa2", "cumulative_kappa")):
                _expect(x >= 1.0, f"{where}: {m} = {x} < 1")
            if m.startswith(("mse_", "e0", "e2")):
                _expect(x >= 0.0, f"{where}: {m} = {x} < 0")
        if command == "table2":
            _expect(v["ineq47_bound"] > 0.0, f"{where}: ineq47_bound = {v['ineq47_bound']}")
            exceeded = float(v["cumulative_kappa"] > v["ineq47_bound"])
            _expect(v["bound_exceeded"] == exceeded,
                    f"{where}: bound_exceeded = {v['bound_exceeded']} but cumulative_kappa "
                    f"{v['cumulative_kappa']} vs ineq47_bound {v['ineq47_bound']}")
        if command == "table4":
            # e0 weights the same squared errors as e2 by j^-s <= 1
            _expect(v["e0"] <= v["e2"], f"{where}: e0 = {v['e0']} > e2 = {v['e2']}")
    return values


def mc_outcomes(command: str, values: dict) -> tuple:
    """(Monte Carlo trials attempted, trials that gave a usable result)."""
    spec = TABLES[command]
    attempted = len(spec.cells) * spec.trials * spec.samplings
    singular = sum(x for k, x in values.items() if k.split("/")[1].startswith("singular_trials"))
    return attempted, attempted - int(singular)


def check_series(op, series, load_model) -> dict:
    """Validate a fit-series result CSV and model file against the input it
    read; return the values the reference comparison uses."""
    path = op.out
    config, header, rows = read_result(path)
    _expect(header == SERIES_COLUMNS, f"{path}: header {header}")
    _expect(config.get("experiment") == "covid", f"{path}: experiment {config.get('experiment')!r}")
    _expect(config.get("seed") == op.seed, f"{path}: seed echo {config.get('seed')!r} != {op.seed}")
    _expect(config.get("location") == op.location, f"{path}: location echo {config.get('location')!r}")
    _expect(config.get("N") == SERIES_DEGREE and config.get("n") == SERIES_SAMPLES,
            f"{path}: N/n echo {config.get('N')!r}/{config.get('n')!r}")
    dates, observed = series.dates[op.location], series.values[op.location]
    m = len(dates)
    _expect(len(rows) == m, f"{path}: {len(rows)} rows for a {m}-day series")
    _expect(tuple(r["day"] for r in rows) == dates, f"{path}: day column differs from the input")
    _expect(tuple(_finite(r["observed"], f"{path} observed") for r in rows) == observed,
            f"{path}: observed column differs from the input")
    fitted = np.array([_finite(r["fitted"], f"{path} fitted") for r in rows])

    diag = config.get("diagnostics") or {}
    iterations = config.get("ransac_iterations") or RANSAC_ITERATIONS
    _expect(diag.get("m") == m, f"{path}: diagnostics m = {diag.get('m')!r}")
    kappa2 = diag.get("kappa2")
    _expect(isinstance(kappa2, float) and math.isfinite(kappa2) and kappa2 >= 1.0,
            f"{path}: kappa2 = {kappa2!r}")
    score = diag.get("ransac_score")
    _expect(isinstance(score, float) and math.isfinite(score) and score >= 0.0,
            f"{path}: ransac_score = {score!r}")
    failures, best = diag.get("ransac_failures"), diag.get("ransac_iteration")
    _expect(isinstance(failures, int) and 0 <= failures < iterations,
            f"{path}: ransac_failures = {failures!r}")
    _expect(isinstance(best, int) and 0 <= best < iterations,
            f"{path}: ransac_iteration = {best!r}")

    try:
        model = load_model(op.model)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise CheckError(f"{op.model}: load_model failed: {exc!r}") from None
    coeffs = np.asarray(model.coeffs, dtype=float)
    _expect(model.basis.degree_max == SERIES_DEGREE and coeffs.shape == (SERIES_DEGREE + 1,),
            f"{op.model}: degree {model.basis.degree_max}, {coeffs.size} coefficients")
    _expect(bool(np.all(np.isfinite(coeffs))), f"{op.model}: non-finite coefficient")
    predicted = model.predict(np.arange(1, m + 1, dtype=float) / m)
    scale = max(1.0, float(np.max(np.abs(fitted))))
    gap = float(np.max(np.abs(predicted - fitted)))
    _expect(gap <= DEFAULT_REL_TOL * scale,
            f"{op.model}: reloaded model misses the fitted column by {gap:.3e}")
    return {
        "coeffs": coeffs.tolist(),
        "kappa2": kappa2,
        "ransac_score": score,
        "ransac_iteration": best,
        "ransac_failures": failures,
        "ransac_iterations": iterations,
    }


def compare_reference(actual: dict, reference: dict, where: str) -> None:
    """Every referenced value must be present and within its tolerance."""
    for key, ref in reference.items():
        _expect(key in actual, f"{where}: {key} missing")
        got = actual[key]
        metric = key.split("/")[-1]
        if metric in EXACT_METRICS:
            _expect(got == ref, f"{where}: {key} = {got!r}, reference {ref!r}")
            continue
        tol = REL_TOL.get(metric, DEFAULT_REL_TOL)
        got, ref = np.asarray(got, dtype=float), np.asarray(ref, dtype=float)
        # vectors are compared norm-wise, so a tiny coefficient is not held
        # to a relative bound its size cannot support
        gap = float(np.max(np.abs(got - ref)))
        limit = tol * float(np.max(np.abs(ref)))
        _expect(gap <= limit, f"{where}: {key} off the reference by {gap:.3e} (limit {limit:.3e})")

"""Value-level behaviour lock: the seed-0 outputs of every table command,
simulate-lfr and fit-series, compared with the values in golden.json.

Values are compared, not bytes, because LAPACK results may differ between
CPUs: relative 1e-9 (1e-6 for mse_krr, which the sinc-kernel Cholesky solves
carry less precisely), counts exactly, vectors norm-wise. A change that moves
these values on purpose says why and re-records them with

    PYTHONPATH=src python tests/test_golden.py
"""

import csv
import datetime
import json
import math
import random
import sys
from pathlib import Path

import numpy as np
import pytest

from pinvreg.cli import main

GOLDEN = Path(__file__).with_name("golden.json")

TABLE_COMMANDS = {
    "table1": ["table1", "--trials", "3"],
    "table2": ["table2", "--trials", "3"],
    "table3": ["table3", "--trials", "2"],
    "table4": ["table4", "--trials", "2"],
    "simulate-lfr": ["simulate-lfr", "--trials", "2"],
}
REL_TOL = 1e-9
REL_TOL_OF = {"mse_krr": 1e-6}
COUNT_METRICS = ("singular_trials", "singular_trial", "bound_exceeded")
SERIES_COUNTS = ("m", "ransac_iteration", "ransac_failures")
SERIES_VECTORS = ("fitted", "coeffs")
SERIES_DAYS = 400            # above fit-series' default n = 340 sampled days


def write_series_csv(path: Path) -> None:
    """A smooth seasonal count series with noise and a few spikes."""
    rng = random.Random(0)
    start = datetime.date(2020, 3, 1)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["date", "location", "new_cases"])
        for d in range(SERIES_DAYS):
            value = 200.0 + 150.0 * math.sin(2.0 * math.pi * d / 180.0)
            value += rng.gauss(0.0, 15.0) + (400.0 if rng.random() < 0.02 else 0.0)
            day = (start + datetime.timedelta(days=d)).isoformat()
            writer.writerow([day, "Aland", f"{max(value, 0.0):.0f}"])


def _run(argv: list) -> None:
    code = main(argv + ["--seed", "0", "--format", "json"])
    assert code == 0, f"{argv} exited {code}"


def collect(tmp_dir: Path) -> dict:
    """Seed-0 values of every locked command, keyed by command, then by
    row lineage and metric."""
    values = {}
    for name, argv in TABLE_COMMANDS.items():
        out = tmp_dir / f"{name}.json"
        _run(argv + ["--out", str(out)])
        rows = json.loads(out.read_text())["rows"]
        values[name] = {f"{r['seed']}/{r['metric']}": r["value"] for r in rows}
    csv_path = tmp_dir / "series.csv"
    write_series_csv(csv_path)
    out = tmp_dir / "fit-series.json"
    _run(["fit-series", "--csv", str(csv_path), "--out", str(out)])
    doc = json.loads(out.read_text())
    model = json.loads(out.with_suffix(".model.json").read_text())
    values["fit-series"] = doc["config"]["diagnostics"] | {
        "fitted": [r["fitted"] for r in doc["rows"]],
        "coeffs": model["coeffs"],
    }
    return values


def _check_scalar(actual, expected, tol: float, where: str) -> None:
    # a non-finite value (written as "inf" or "nan") fails the bound
    actual, expected = float(actual), float(expected)
    assert abs(actual - expected) <= tol * abs(expected), (
        f"{where}: {actual!r} vs golden {expected!r}"
    )


@pytest.fixture(scope="module")
def actual(tmp_path_factory):
    return collect(tmp_path_factory.mktemp("golden"))


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("command", list(TABLE_COMMANDS))
def test_table_values_match_golden(actual, golden, command):
    got, want = actual[command], golden[command]
    assert sorted(got) == sorted(want)
    for key, expected in want.items():
        metric = key.rsplit("/", 1)[1]
        tol = 0.0 if metric in COUNT_METRICS else REL_TOL_OF.get(metric, REL_TOL)
        _check_scalar(got[key], expected, tol, f"{command} {key}")


def test_fit_series_matches_golden(actual, golden):
    got, want = actual["fit-series"], golden["fit-series"]
    assert sorted(got) == sorted(want)
    for key in SERIES_COUNTS:
        assert got[key] == want[key], key
    for key in sorted(set(want) - set(SERIES_COUNTS) - set(SERIES_VECTORS)):
        _check_scalar(got[key], want[key], REL_TOL, f"fit-series {key}")
    for key in SERIES_VECTORS:
        a, b = np.array(got[key]), np.array(want[key])
        assert a.shape == b.shape, key
        assert np.max(np.abs(a - b)) <= REL_TOL * np.max(np.abs(b)), key


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        record = collect(Path(tmp))
    GOLDEN.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}", file=sys.stderr)

"""Tests for CSV series ingestion and the robust daily-series fit."""

import csv
import datetime
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from pinvreg.errors import DataError, RobustFitError, ValidationError
from pinvreg.timeseries import TimeSeriesDataset, fit_series, load_series_csv

BASE = datetime.date(2020, 3, 1)


def iso(day):
    return (BASE + datetime.timedelta(days=day)).isoformat()


def write_rows(path, rows, header=("date", "location", "new_cases")):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        if header is not None:
            w.writerow(header)
        w.writerows(rows)
    return path


def make_dataset(m, fn):
    dates = tuple(iso(d) for d in range(m))
    return TimeSeriesDataset(dates=dates,
                             values=fn(np.arange(1, m + 1, dtype=float)),
                             location=None)


class TestLoadSeriesCsv:
    def test_happy_path(self, tmp_path):
        path = write_rows(tmp_path / "a.csv", [
            [iso(0), "X", "10"], [iso(1), "X", "12.5"], [iso(2), "X", "0"],
        ])
        ds = load_series_csv(path)
        assert ds.m == 3
        assert_allclose(ds.values, [10.0, 12.5, 0.0], rtol=0)
        assert ds.dates == (iso(0), iso(1), iso(2))
        assert_allclose(ds.day_grid(), [1 / 3, 2 / 3, 1.0], rtol=1e-15)

    def test_empty_value_is_zero(self, tmp_path):
        path = write_rows(tmp_path / "a.csv", [
            [iso(0), "X", "5"], [iso(1), "X", ""],
        ])
        assert_allclose(load_series_csv(path).values, [5.0, 0.0], rtol=0)

    def test_location_filter(self, tmp_path):
        path = write_rows(tmp_path / "a.csv", [
            [iso(0), "X", "1"], [iso(0), "Y", "100"],
            [iso(1), "X", "2"], [iso(1), "Y", "200"],
        ])
        ds = load_series_csv(path, location="Y")
        assert_allclose(ds.values, [100.0, 200.0], rtol=0)
        assert ds.location == "Y"

    def test_unknown_location(self, tmp_path):
        path = write_rows(tmp_path / "a.csv", [[iso(0), "X", "1"]])
        with pytest.raises(ValidationError, match="unknown location"):
            load_series_csv(path, location="Z")

    def test_date_range_filter(self, tmp_path):
        path = write_rows(tmp_path / "a.csv",
                          [[iso(d), "X", str(d)] for d in range(10)])
        ds = load_series_csv(path, start=iso(3), end=iso(5))
        assert_allclose(ds.values, [3.0, 4.0, 5.0], rtol=0)

    def test_bad_range_bounds(self, tmp_path):
        path = write_rows(tmp_path / "a.csv", [[iso(0), "X", "1"]])
        with pytest.raises(ValidationError, match="bad date range"):
            load_series_csv(path, start="03/01/2020")
        with pytest.raises(ValidationError, match="empty date range"):
            load_series_csv(path, start=iso(5), end=iso(2))

    def test_empty_after_filtering(self, tmp_path):
        path = write_rows(tmp_path / "a.csv", [[iso(0), "X", "1"]])
        with pytest.raises(ValidationError, match="no rows left"):
            load_series_csv(path, start=iso(10), end=iso(20))

    def test_missing_column_reported_on_line_one(self, tmp_path):
        path = write_rows(tmp_path / "a.csv", [[iso(0), "X"]],
                          header=("date", "location"))
        with pytest.raises(DataError, match="missing column") as err:
            load_series_csv(path)
        assert err.value.line == 1

    def test_empty_file(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text("")
        with pytest.raises(DataError, match="header"):
            load_series_csv(path)

    def test_bad_date_line_number(self, tmp_path):
        path = write_rows(tmp_path / "a.csv", [
            [iso(0), "X", "1"], ["2020-13-45", "X", "2"],
        ])
        with pytest.raises(DataError, match="bad date") as err:
            load_series_csv(path)
        assert err.value.line == 3

    def test_bad_value_line_number(self, tmp_path):
        path = write_rows(tmp_path / "a.csv", [
            [iso(0), "X", "1"], [iso(1), "X", "n/a"],
        ])
        with pytest.raises(DataError, match="bad value") as err:
            load_series_csv(path)
        assert err.value.line == 3

    @pytest.mark.parametrize("raw", ["nan", "inf", "-inf", "Infinity"])
    def test_non_finite_value_rejected(self, tmp_path, raw):
        path = write_rows(tmp_path / "a.csv", [
            [iso(0), "X", "1"], [iso(1), "X", "2"], [iso(2), "X", raw],
        ])
        with pytest.raises(DataError, match="non-finite") as err:
            load_series_csv(path)
        assert err.value.line == 4

    def test_negative_value_rejected(self, tmp_path):
        path = write_rows(tmp_path / "a.csv", [[iso(0), "X", "-4"]])
        with pytest.raises(DataError, match="negative") as err:
            load_series_csv(path)
        assert err.value.line == 2

    def test_non_monotone_dates_name_both_lines(self, tmp_path):
        path = write_rows(tmp_path / "a.csv", [
            [iso(0), "X", "1"], [iso(5), "X", "2"], [iso(3), "X", "3"],
        ])
        with pytest.raises(DataError, match="not strictly increasing") as err:
            load_series_csv(path)
        assert err.value.line == 4
        assert "line 3" in str(err.value)

    def test_duplicate_date_rejected(self, tmp_path):
        path = write_rows(tmp_path / "a.csv", [
            [iso(0), "X", "1"], [iso(0), "X", "2"],
        ])
        with pytest.raises(DataError, match="not strictly increasing"):
            load_series_csv(path)

    def test_extra_columns_ignored(self, tmp_path):
        path = write_rows(tmp_path / "a.csv", [
            [iso(0), "X", "1", "note"], [iso(1), "X", "2", ""],
        ], header=("date", "location", "new_cases", "comment"))
        assert_allclose(load_series_csv(path).values, [1.0, 2.0], rtol=0)

    def test_short_row_rejected(self, tmp_path):
        path = write_rows(tmp_path / "a.csv", [
            [iso(0), "X", "1"], [iso(1), "X"],
        ])
        with pytest.raises(DataError, match="fields") as err:
            load_series_csv(path)
        assert err.value.line == 3

    def test_blank_rows_skipped(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text(
            "date,location,new_cases\n"
            f"{iso(0)},X,1\n"
            "\n"
            " , , \n"
            f"{iso(1)},X,2\n"
        )
        assert_allclose(load_series_csv(path).values, [1.0, 2.0], rtol=0)

    def test_header_case_insensitive(self, tmp_path):
        path = write_rows(tmp_path / "a.csv", [[iso(0), "X", "3"]],
                          header=("Date", "LOCATION", "New_Cases"))
        assert_allclose(load_series_csv(path).values, [3.0], rtol=0)


class TestFitSeries:
    def test_insufficient_data(self):
        ds = make_dataset(30, lambda k: k)
        with pytest.raises(ValidationError, match="insufficient"):
            fit_series(ds, n=50, degree_max=5)

    def test_constant_series_recovered(self):
        ds = make_dataset(60, lambda k: np.full(len(k), 7.5))
        sf = fit_series(ds, n=50, degree_max=8, seed=1)
        assert np.max(np.abs(sf.fitted - 7.5)) < 1e-6

    def test_grid_polynomial_within_rounding_error(self):
        # responses come from the snapped day, design from continuous draws:
        # the residual floor is the index-rounding perturbation, sup|p'| / m
        m = 60
        p = lambda u: 2 + 3 * u - 1.5 * u**2 + 0.5 * u**3
        ds = make_dataset(m, lambda k: p(k / m))
        sf = fit_series(ds, n=40, degree_max=5, seed=2)
        mse = float(np.mean((sf.fitted - ds.values) ** 2))
        assert mse <= (3.0 / m) ** 2

    def test_design_conditioning_band(self):
        # paper-scale defaults: the full-design condition number sits near 10
        ds = make_dataset(594, lambda k: 80 + 40 * np.sin(k / 594 * 2 * math.pi))
        sf = fit_series(ds, n=340, degree_max=40, seed=0)
        assert 1.0 <= sf.design_report.kappa2 <= 30.0

    def test_fit_is_deterministic(self):
        ds = make_dataset(100, lambda k: k)
        a = fit_series(ds, n=30, degree_max=4, seed=3)
        b = fit_series(ds, n=30, degree_max=4, seed=3)
        assert_allclose(a.model.coeffs, b.model.coeffs, rtol=0)
        assert_allclose(a.fitted, b.fitted, rtol=0)

    def test_outlier_day_is_smoothed_over(self):
        m = 120
        clean = 50 + 0.5 * np.arange(1, m + 1)
        values = clean.copy()
        values[60] += 5000.0           # one corrupted day
        ds = TimeSeriesDataset(dates=tuple(iso(d) for d in range(m)),
                               values=values, location=None)
        sf = fit_series(ds, n=80, degree_max=6, seed=4, ransac_iterations=20)
        off_outlier = np.delete(sf.fitted - clean, 60)
        assert np.max(np.abs(off_outlier)) < 25.0

    def test_truncation_level_clamps_fit(self):
        ds = make_dataset(80, lambda k: k)
        sf = fit_series(ds, n=60, degree_max=5, seed=5, truncation=10.0)
        assert np.max(np.abs(sf.fitted)) <= 10.0

    def test_square_subsample_degenerates(self):
        # 41 points cannot stably support 41 polynomial columns; every
        # consensus iteration reuses the same square draw and fails
        ds = make_dataset(60, lambda k: 50.0 + k)
        with pytest.raises(RobustFitError, match="near singular"):
            fit_series(ds, n=41, degree_max=40, subset_size=41, seed=0)

    def test_plot_rows_shape(self):
        ds = make_dataset(50, lambda k: k**1.5)
        sf = fit_series(ds, n=30, degree_max=4, seed=6)
        rows = sf.plot_rows()
        assert len(rows) == 50
        date, observed, fitted = rows[9]
        assert date == iso(9)
        assert observed == pytest.approx(10.0**1.5)
        assert isinstance(fitted, float)

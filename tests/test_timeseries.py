"""Tests for CSV series ingestion and the robust daily-series fit."""

import csv
import datetime
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from pinvreg.bench import ExperimentConfig, run_timeseries
from pinvreg.cli import main
from pinvreg.design import build_design, spectral_report
from pinvreg.errors import DataError, RobustFitError, ValidationError
from pinvreg.jacobi import UNIT, JacobiBasis, JacobiParams
from pinvreg.regression import ransac_fit
from pinvreg.sampling import sample_beta_unit
from pinvreg.timeseries import TimeSeriesDataset, fit_series, load_series_csv

BASE = datetime.date(2020, 3, 1)


def iso(day):
    return (BASE + datetime.timedelta(days=day)).isoformat()


def write_rows(path, rows, header=("date", "location", "new_cases"),
               quoting=csv.QUOTE_MINIMAL):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, quoting=quoting)
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


class TestLoaderRowContract:
    """Width and blankness are checked on every row; dates and values only on
    rows of the selected location."""

    def write(self, path, body):
        path.write_text("date,location,new_cases\n" + body)
        return path

    def test_short_row_of_another_location_raises(self, tmp_path):
        path = self.write(tmp_path / "a.csv",
                          f"{iso(0)},X,1\n{iso(0)},Y,5\n{iso(1)},Y\n{iso(1)},X,2\n")
        with pytest.raises(DataError, match="expected 3 fields, got 2") as err:
            load_series_csv(path, location="X")
        assert err.value.line == 4

    def test_blank_rows_between_other_rows_skipped(self, tmp_path):
        path = self.write(tmp_path / "a.csv",
                          f"{iso(0)},X,1\n{iso(0)},Y,5\n , , \n \t, \n\n"
                          f"{iso(1)},Y,6\n{iso(1)},X,2\n")
        assert_allclose(load_series_csv(path, location="X").values, [1.0, 2.0], rtol=0)
        assert_allclose(load_series_csv(path, location="Y").values, [5.0, 6.0], rtol=0)

    @pytest.mark.parametrize("row, message", [
        ("2020-13-45,Y,6", "bad date"),
        (f"{iso(1)},Y,n/a", "bad value"),
        (f"{iso(1)},Y,-3", "negative value"),
        (f"{iso(0)},Y,7", "not strictly increasing"),
    ])
    def test_other_locations_values_are_not_parsed(self, tmp_path, row, message):
        path = self.write(tmp_path / "a.csv",
                          f"{iso(0)},X,1\n{iso(0)},Y,5\n{row}\n{iso(1)},X,2\n")
        assert_allclose(load_series_csv(path, location="X").values, [1.0, 2.0], rtol=0)
        with pytest.raises(DataError, match=message) as err:
            load_series_csv(path, location="Y")
        assert err.value.line == 4

    def test_absent_location_raises(self, tmp_path):
        path = self.write(tmp_path / "a.csv", f"{iso(0)},X,1\n , , \n{iso(0)},Y,5\n")
        with pytest.raises(ValidationError, match="unknown location 'Z'"):
            load_series_csv(path, location="Z")


class TestUnreadableRecord:
    """A record csv.reader cannot read is a DataError naming its line, on
    either reader path, whatever its location."""

    def long_field_rows(self, width):
        return [[iso(0), "A", "1"], [iso(0), "B", "5"],
                [iso(1), "A", "7" * width], [iso(1), "B", "6"]]

    @pytest.mark.parametrize("quoting", [csv.QUOTE_MINIMAL, csv.QUOTE_ALL])
    def test_field_past_the_limit_refused(self, tmp_path, quoting):
        rows = self.long_field_rows(csv.field_size_limit() + 1)
        path = write_rows(tmp_path / "a.csv", rows, quoting=quoting)
        with pytest.raises(DataError, match="field larger than field limit") as err:
            load_series_csv(path, location="B")
        assert err.value.line == 4

    def test_field_at_the_limit_loads(self, tmp_path):
        path = write_rows(tmp_path / "a.csv", self.long_field_rows(csv.field_size_limit()))
        assert_allclose(load_series_csv(path, location="B").values, [5.0, 6.0], rtol=0)

    def test_line_past_the_limit_of_shorter_fields_loads(self, tmp_path):
        note = "n" * csv.field_size_limit()
        path = write_rows(tmp_path / "a.csv", [[iso(0), "A", "1", note], [iso(0), "B", "5", note]],
                          header=("date", "location", "new_cases", "note"))
        assert_allclose(load_series_csv(path, location="B").values, [5.0], rtol=0)

    def test_cli_refusal_keeps_the_exit_contract(self, tmp_path, capsys):
        rows = self.long_field_rows(200_000)
        path = write_rows(tmp_path / "a.csv", rows)
        assert main(["fit-series", "--csv", str(path), "--location", "B"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0]) == {
            "error": "DataError",
            "message": "line 4: field larger than field limit (131072)",
        }


OTHER_ISO_FORMS = ["20200302", "2020-W10-1", "2020W101", "2020-W10", "2020-3-02"]


@st.composite
def near_iso_dates(draw):
    """ISO dates with up to two characters replaced, maybe padded."""
    text = list(draw(st.dates()).isoformat())
    for _ in range(draw(st.integers(0, 2))):
        text[draw(st.integers(0, 9))] = draw(st.sampled_from("0123456789-+:.TW \u0661\uff11"))
    pads = st.sampled_from(["", " ", "\t", "  "])
    return draw(pads) + "".join(text) + draw(pads)


class TestDateForm:
    """Dates are YYYY-MM-DD after strip on every supported Python; 3.11's
    date.fromisoformat also reads the basic and week forms."""

    @pytest.mark.parametrize("text", OTHER_ISO_FORMS)
    def test_other_iso_forms_refused_in_the_file(self, tmp_path, text):
        path = write_rows(tmp_path / "a.csv", [[iso(0), "X", "1"], [text, "X", "2"]])
        with pytest.raises(DataError, match=f"bad date '{text}'") as err:
            load_series_csv(path)
        assert err.value.line == 3

    @pytest.mark.parametrize("bound", ["start", "end"])
    @pytest.mark.parametrize("text", OTHER_ISO_FORMS)
    def test_other_iso_forms_refused_as_bounds(self, tmp_path, text, bound):
        path = write_rows(tmp_path / "a.csv", [[iso(0), "X", "1"]])
        with pytest.raises(ValidationError, match="bad date range bound"):
            load_series_csv(path, **{bound: text})

    def test_padded_date_accepted(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text(f"date,location,new_cases\n {iso(0)} ,X,1\n\t{iso(1)},X,2\n")
        assert load_series_csv(path, start=f" {iso(1)} ").dates == (iso(1),)

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(text=near_iso_dates())
    def test_kept_dates_are_their_isoformat(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp, "a.csv")
            path.write_text(f"date,location,new_cases\n{text},X,1\n", encoding="utf-8")
            try:
                dates = load_series_csv(path).dates
            except DataError as exc:
                assert "bad date" in str(exc)
                return
        assert dates == (datetime.date.fromisoformat(text.strip()).isoformat(),)


class TestPhysicalLines:
    """Error lines are physical lines: a record is named by the line it starts
    on, also after a quoted field that holds a line break."""

    HEADER = "date,location,new_cases,note\n"

    def load(self, tmp_path, body, location=None):
        path = tmp_path / "a.csv"
        path.write_bytes((self.HEADER + body).encode())
        return load_series_csv(path, location=location)

    @pytest.mark.parametrize("brk", ["\n", "\r\n", "\r"])
    def test_line_after_a_quoted_line_break(self, tmp_path, brk):
        body = f'{iso(0)},A,1,"two{brk}lines"\n{iso(1)},A,n/a,x\n'
        with pytest.raises(DataError, match="bad value 'n/a'") as err:
            self.load(tmp_path, body)
        assert err.value.line == 4

    def test_record_named_by_its_first_line(self, tmp_path):
        body = f'{iso(0)},A,1,x\n{iso(1)},A,n/a,"two\nlines"\n'
        with pytest.raises(DataError, match="bad value") as err:
            self.load(tmp_path, body)
        assert err.value.line == 3

    def test_both_lines_of_a_date_step_back(self, tmp_path):
        body = f'{iso(1)},A,1,"two\nlines"\n{iso(0)},A,2,x\n'
        with pytest.raises(DataError, match=r"line 4: .* \(line 2\)"):
            self.load(tmp_path, body)

    def test_unreadable_record_after_a_quoted_line_break(self, tmp_path):
        big = "7" * (csv.field_size_limit() + 1)
        body = f'{iso(0)},B,1,"two\nlines"\n{iso(0)},A,{big},x\n'
        with pytest.raises(DataError, match="field larger than field limit") as err:
            self.load(tmp_path, body, location="B")
        assert err.value.line == 4


class TestUndecodable:
    """A file that is not UTF-8 is a DataError naming the line of its first
    bad byte, lines ending at CRLF, CR or LF."""

    @pytest.mark.parametrize("end", [b"\n", b"\r\n", b"\r"])
    @pytest.mark.parametrize("bad, reason", [(b"\xff", "invalid start byte"),
                                             (b"\xc3", "invalid continuation byte")])
    def test_names_the_line_of_the_bad_byte(self, tmp_path, end, bad, reason):
        lines = [b"date,location,new_cases", iso(0).encode() + b",A,1",
                 iso(1).encode() + b",A," + bad + b"2", iso(2).encode() + b",A,3"]
        path = tmp_path / "a.csv"
        path.write_bytes(end.join(lines) + end)
        with pytest.raises(DataError, match=reason) as err:
            load_series_csv(path, location="B")
        assert err.value.line == 3

    def test_cli_refusal_keeps_the_exit_contract(self, tmp_path, capsys):
        path = tmp_path / "a.csv"
        path.write_bytes(f"date,location,new_cases\n{iso(0)},A,1\n{iso(1)},A,2\xff\n".encode("latin-1"))
        assert main(["fit-series", "--csv", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0]) == {
            "error": "DataError",
            "message": "line 3: invalid UTF-8 byte 0xff: invalid start byte",
        }


def oracle_load(path, location=None):
    """load_series_csv as one csv.reader loop over the file, every record
    split; each record's line is the physical line it starts on, and a
    record csv.reader cannot read is a DataError on its first line."""

    def records(fh):
        reader = csv.reader(fh)
        line = 1
        try:
            for row in reader:
                yield line, row
                line = reader.line_num + 1
        except csv.Error as exc:
            raise DataError(str(exc), line=line) from None

    with open(path, newline="", encoding="utf-8") as fh:
        rows = records(fh)
        try:
            header = next(rows)[1]
        except StopIteration:
            raise DataError("empty file: header row required", line=1) from None
        header = [h.strip().lower() for h in header]
        missing = [c for c in ("date", "location", "new_cases") if c not in header]
        if missing:
            raise DataError(f"missing column(s): {', '.join(missing)}", line=1)
        width = len(header)
        i_date, i_loc, i_value = (header.index(c) for c in ("date", "location", "new_cases"))
        found, dates, values, prev = False, [], [], None
        for line, row in rows:
            if len(row) < width:
                if not "".join(row).strip():
                    continue
                raise DataError(f"expected {width} fields, got {len(row)}", line=line)
            if location is not None and row[i_loc].strip() != location:
                continue
            if not "".join(row).strip():
                continue
            found = True
            try:
                date = datetime.date.fromisoformat(row[i_date].strip())
            except ValueError as exc:
                raise DataError(f"bad date {row[i_date]!r}: {exc}", line=line) from None
            raw = row[i_value].strip()
            try:
                value = float(raw) if raw else 0.0
            except ValueError:
                raise DataError(f"bad value {raw!r}", line=line) from None
            if not math.isfinite(value):
                raise DataError(f"non-finite value {raw!r}", line=line)
            if value < 0:
                raise DataError(f"negative value {value}", line=line)
            if prev is not None and date <= prev[0]:
                raise DataError(f"dates not strictly increasing: {date} after {prev[0]} "
                                f"(line {prev[1]})", line=line)
            prev = (date, line)
            dates.append(date.isoformat())
            values.append(value)
    if location is not None and not found:
        raise ValidationError(f"unknown location {location!r}")
    if not dates:
        raise ValidationError("no rows left after filtering")
    return TimeSeriesDataset(dates=tuple(dates), values=np.array(values), location=location)


def outcome(load, path, location):
    try:
        ds = load(path, location=location)
    except ValueError as exc:
        return type(exc), str(exc), getattr(exc, "line", None)
    return ds.dates, ds.values.tolist(), ds.location


# every date text reads the same through date.fromisoformat on 3.10 and 3.11
DATE_TEXTS = [iso(d) for d in range(4)] + [" " + iso(2), "2020-13-45", "x", ""]
# str.splitlines would end a line inside the last one; csv.reader does not
LOCATION_TEXTS = ["X", "aX", "Xa", "X Y", " X ", "Y", "", "X\x0b\x1c\x85\u2028"]
VALUE_TEXTS = ["1", "2.5", "", " 3 "] * 3 + ["-1", "n/a", "nan"]
LOCATIONS = [None, "", "X", "aX", "a,b", "X Y", " X "]


# csv.reader reads these as X, "a,b", 1 and 'x"y'; the NUL is read as is on 3.11
# and refused on 3.10
QUOTED_TEXTS = ['"X"', '"a,b"', '"1"', '"x""y"', 'a"b', "Y\0"]


@st.composite
def csv_texts(draw):
    """Headers in any column order, rows full, short, wide, blank or
    whitespace-only, each ended by LF, CRLF or CR, the last one maybe not;
    some rows get a quoted field or a NUL, which csv.reader must read."""
    extra = draw(st.sampled_from([[], ["note"], ["note", "day"]]))
    columns = draw(st.permutations(["date", "location", "new_cases"] + extra))
    if draw(st.sampled_from([False] * 19 + [True])):
        columns = columns[1:]
    texts = {"location": LOCATION_TEXTS, "new_cases": VALUE_TEXTS}
    lines = [",".join(columns)]
    for i in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["row"] * 12 + ["short", "wide", "blank", "blank", "spaces"]))
        if kind == "blank":
            lines.append("")
            continue
        if kind == "spaces":
            lines.append(draw(st.sampled_from([" ", " , , ", "\t,", ",,", ", ,  ,"])))
            continue
        fields = [draw(st.sampled_from([iso(i)] * 4 + DATE_TEXTS if c == "date"
                                       else texts.get(c, LOCATION_TEXTS + VALUE_TEXTS)))
                  for c in columns]
        if draw(st.sampled_from([False] * 9 + [True])):
            fields[draw(st.integers(0, len(fields) - 1))] = draw(st.sampled_from(QUOTED_TEXTS))
        if kind == "short":
            fields = fields[:draw(st.integers(1, len(fields) - 1))]
        elif kind == "wide":
            fields.append("X")
        lines.append(",".join(fields))
    ends = [draw(st.sampled_from(["\n", "\r\n", "\r"])) for _ in lines]
    if draw(st.booleans()):
        ends[-1] = ""
    return "".join(line + end for line, end in zip(lines, ends))


class TestReaderParity:
    """Both reader paths give csv.reader's outcome: the same dataset, or the
    same error type, message and line."""

    @settings(derandomize=True, deadline=None, max_examples=400)
    @given(text=csv_texts())
    def test_matches_the_csv_reader_loop(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp, "a.csv")
            with open(path, "w", newline="", encoding="utf-8") as fh:
                fh.write(text)
            for location in LOCATIONS:
                expected = outcome(oracle_load, path, location)
                assert outcome(load_series_csv, path, location) == expected, location


class TestFitSeries:
    @pytest.mark.parametrize("truncation", [None, 30.0])
    def test_reuses_ransac_tables(self, monkeypatch, truncation):
        ds = make_dataset(80, lambda k: k + 5.0 * np.sin(k))
        calls = []
        table = JacobiBasis.table

        def counting(self, x):
            calls.append(len(x))
            return table(self, x)

        monkeypatch.setattr(JacobiBasis, "table", counting)
        sf = fit_series(ds, n=60, degree_max=5, alpha=0.5, beta=1.0,
                        ransac_iterations=7, truncation=truncation, seed=9)
        assert calls == [60 + 80]       # the sample and the day grid in one table
        # reference: the path that tabled the sample and the grid again
        params = JacobiParams(0.5, 1.0)
        basis = JacobiBasis(params, 5, domain=UNIT)
        x = sample_beta_unit(params, 60, 9)
        y = ds.values[np.clip(np.ceil(80 * x), 1, 80).astype(int) - 1]
        grid = ds.day_grid()
        ref = ransac_fit(x, y, basis, iterations=7, scoring=(grid, ds.values),
                         seed=9, truncation_level=truncation)
        assert_array_equal(sf.ransac.model.coeffs, ref.model.coeffs)
        assert_array_equal(sf.fitted, ref.model.predict(grid))
        A = build_design(basis, x)
        assert_array_equal(sf.design_report.eigenvalues, spectral_report(A.T @ A).eigenvalues)
        if truncation is not None:
            assert np.max(np.abs(sf.fitted)) == truncation

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
        assert_allclose(a.ransac.model.coeffs, b.ransac.model.coeffs, rtol=0)
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

    def test_plot_rows_shape(self, tmp_path):
        path = write_rows(tmp_path / "a.csv",
                          [[iso(d), "X", str((d + 1) ** 1.5)] for d in range(50)])
        config = ExperimentConfig(experiment="covid", csv=str(path), n=30, N=4, seed=6)
        result = run_timeseries(config)
        sf = fit_series(load_series_csv(path), n=30, degree_max=4, seed=6)
        assert len(result.rows) == 50
        row = result.rows[9]
        assert list(row) == ["day", "observed", "fitted"]
        assert row["day"] == iso(9)
        assert isinstance(row["observed"], float)
        assert row["observed"] == pytest.approx(10.0**1.5)
        assert isinstance(row["fitted"], float)
        assert row["fitted"] == sf.fitted[9]

"""Daily time-series regression: CSV ingestion, random-day sampling, robust fit.

A length-m series f(1), ..., f(m) is treated as a function on (0, 1] through
x = k/m. Sample days are drawn by a Beta law on [0, 1], snapped to the grid,
and the values regressed on the unit-domain Jacobi basis with an outlier-robust
consensus loop.
"""

import csv
import datetime
import io
import math
from dataclasses import dataclass

import numpy as np

from .design import DesignMatrix, spectral_report
from .errors import DataError, ValidationError
from .jacobi import UNIT, JacobiBasis, JacobiParams
from .regression import NpregModel, RansacResult, ransac_fit
from .sampling import sample_beta_unit

__all__ = [
    "TimeSeriesDataset",
    "SeriesFit",
    "load_series_csv",
    "fit_series",
]

REQUIRED_COLUMNS = ("date", "location", "new_cases")


@dataclass(frozen=True)
class TimeSeriesDataset:
    """Filtered daily values with their ISO source dates, strictly increasing.
    CSV line numbers are not kept; only load errors carry them."""

    dates: tuple
    values: np.ndarray
    location: str | None = None

    @property
    def m(self) -> int:
        return len(self.values)

    def day_grid(self) -> np.ndarray:
        """Rescaled day positions k/m for k = 1..m."""
        return np.arange(1, self.m + 1, dtype=float) / self.m


def _iso_date(text: str) -> datetime.date:
    """`date.fromisoformat` held to YYYY-MM-DD, the one form it reads on
    every supported Python (3.11 also reads 20200101 and 2020-W01-1); the
    caller strips. An accepted text is its date's `isoformat()`."""
    if len(text) != 10 or text[4] != "-" or text[7] != "-":
        raise ValueError(f"Invalid isoformat string: {text!r}")
    return datetime.date.fromisoformat(text)


def _csv_records(text: str):
    """(line, fields) of every record csv.reader reads from text, line being
    the record's first physical line; a record it cannot read raises
    DataError naming its first line."""
    reader = csv.reader(io.StringIO(text, newline=""))
    line = 1
    try:
        for fields in reader:
            yield line, fields
            line = reader.line_num + 1
    except csv.Error as exc:
        raise DataError(str(exc), line=line) from None


def _undecodable(path, exc: UnicodeDecodeError) -> ValueError:
    """The DataError naming the line of the file's first byte that is not
    UTF-8, lines ending at CRLF, CR and LF as in _records; exc itself if the
    file now decodes. Only a failed read calls this, so the text of a file
    that loads is never held twice."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as bad:
        head = data[: bad.start].replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        return DataError(
            f"invalid UTF-8 byte {data[bad.start]:#04x}: {bad.reason}",
            line=head.count(b"\n") + 1,
        )
    return exc


def _records(text: str, location: str | None):
    """(line, fields) of the header, then of every record that can be kept
    for location or be an error.

    A text with no quote, no NUL and no line past `csv.field_size_limit()` is
    split as csv.reader would split it: records end at CRLF, CR and LF,
    and fields at every comma. Then only the lines that contain location's
    text, or have fewer commas than the header (short or blank), are split;
    any other line is a full-width row of another location. Any other text
    goes through csv.reader whole.
    """
    if '"' in text or "\0" in text:
        yield from _csv_records(text)
        return
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    # a line longer than the limit holds a multiple of limit + 1: probe those
    limit = csv.field_size_limit()
    for p in range(0, len(text), limit + 1):
        end = text.find("\n", p)
        if (len(text) if end < 0 else end) - text.rfind("\n", 0, p) - 1 > limit:
            yield from _csv_records(text)
            return
    if not lines:
        return
    header = lines[0].split(",")
    yield 1, header
    need = len(header) - 1
    for line, row in enumerate(lines[1:], start=2):
        if location is None or location in row or row.count(",") < need:
            yield line, row.split(",")


def load_series_csv(
    path,
    location: str | None = None,
    start: str | None = None,
    end: str | None = None,
) -> TimeSeriesDataset:
    """Read (date, location, new_cases) rows; empty values count as 0.

    Extra columns are ignored and the header is required. The file is read
    and decoded whole, then parsed as csv.reader parses it (a record it
    cannot read, such as a field past `csv.field_size_limit()`, raises).
    Every row is checked for width (a short row that is not blank raises)
    and whitespace-only rows are skipped. Only rows of the selected location
    (every row when location is None) have their dates parsed and their
    values checked: dates YYYY-MM-DD and strictly increasing after
    filtering, values finite and >= 0. Errors carry the 1-based physical
    line on which the offending record starts (a quoted field can hold line
    breaks), and a byte that is not UTF-8 is refused naming its line. A file
    with no quote and no NUL is split without csv.reader, and the full-width
    rows of other locations are never split.
    """
    try:
        lo = _iso_date(start.strip()) if start is not None else None
        hi = _iso_date(end.strip()) if end is not None else None
    except ValueError as exc:
        raise ValidationError(f"bad date range bound: {exc}") from None
    if lo is not None and hi is not None and lo > hi:
        raise ValidationError(f"empty date range: {start} > {end}")

    try:
        with open(path, newline="", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise _undecodable(path, exc) from None
    records = _records(text, location)
    first = next(records, None)
    if first is None:
        raise DataError("empty file: header row required", line=1)
    header = [h.strip().lower() for h in first[1]]
    missing = [c for c in REQUIRED_COLUMNS if c not in header]
    if missing:
        raise DataError(f"missing column(s): {', '.join(missing)}", line=1)
    width = len(header)
    i_date, i_loc, i_value = (header.index(c) for c in REQUIRED_COLUMNS)

    found = False                      # a row of the selected location
    dates = []
    values = []
    prev = prev_line = None            # date and line of the last kept row
    for line, row in records:
        if len(row) < width:
            if not "".join(row).strip():
                continue
            raise DataError(f"expected {width} fields, got {len(row)}", line=line)
        if location is not None and row[i_loc].strip() != location:
            continue
        # a row whose location matched a non-empty location is not blank
        if not location and not "".join(row).strip():
            continue
        found = True
        day = row[i_date].strip()
        try:
            date = _iso_date(day)
        except ValueError as exc:
            raise DataError(f"bad date {row[i_date]!r}: {exc}", line=line) from None
        if (lo is not None and date < lo) or (hi is not None and date > hi):
            continue
        raw = row[i_value].strip()
        if raw == "":
            value = 0.0
        else:
            try:
                value = float(raw)
            except ValueError:
                raise DataError(f"bad value {raw!r}", line=line) from None
            if not 0.0 <= value < math.inf:
                raise DataError(
                    f"non-finite value {raw!r}"
                    if not math.isfinite(value)
                    else f"negative value {value}",
                    line=line,
                )
        if prev is not None and date <= prev:
            raise DataError(
                f"dates not strictly increasing: {date} after {prev} "
                f"(line {prev_line})",
                line=line,
            )
        prev, prev_line = date, line
        dates.append(day)
        values.append(value)

    if location is not None and not found:
        raise ValidationError(f"unknown location {location!r}")
    if not dates:
        raise ValidationError("no rows left after filtering")
    return TimeSeriesDataset(
        dates=tuple(dates), values=np.array(values), location=location
    )


@dataclass(frozen=True)
class SeriesFit:
    dataset: TimeSeriesDataset
    model: NpregModel
    ransac: RansacResult
    design_report: object        # SpectralReport of the full sampled design
    fitted: np.ndarray           # model evaluated on the full day grid


def fit_series(
    dataset: TimeSeriesDataset,
    n: int,
    degree_max: int,
    alpha: float = -0.5,
    beta: float | None = None,
    ransac_iterations: int = 10,
    subset_size: int | None = None,
    truncation: float | None = None,
    seed=0,
) -> SeriesFit:
    """Sample n random positions, read off the nearest day, and fit robustly.

    Position draws are Beta(beta+1, alpha+1) on [0, 1], the law of the unit
    basis' weight x^beta (1-x)^alpha; responses come from the snapped day
    index ceil(m x) clamped to [1, m], while the design keeps the continuous
    draws, so its conditioning follows the random-design theory rather than
    the grid. The consensus loop is scored on all m days,
    which protects against heavy single-day outliers.
    """
    m = dataset.m
    if m < n:
        raise ValidationError(f"insufficient data: series has m={m} days < n={n}")
    params = JacobiParams(alpha, alpha if beta is None else beta)
    basis = JacobiBasis(params, degree_max, domain=UNIT)
    x = sample_beta_unit(params, n, seed)
    days = np.clip(np.ceil(m * x), 1, m).astype(int)
    y = dataset.values[days - 1]
    grid = dataset.day_grid()
    result = ransac_fit(
        x,
        y,
        basis,
        iterations=ransac_iterations,
        subset_size=subset_size,
        scoring=(grid, dataset.values),
        seed=seed,
        truncation_level=truncation,
    )
    # the full design and the day-grid predictions reuse ransac_fit's tables
    report = spectral_report(DesignMatrix(result.table / math.sqrt(n), basis).gram())
    fitted = result.score_table @ result.model.coeffs
    if truncation is not None:
        fitted = np.clip(fitted, -truncation, truncation)
    return SeriesFit(
        dataset=dataset,
        model=result.model,
        ransac=result,
        design_report=report,
        fitted=fitted,
    )

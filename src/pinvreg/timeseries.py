"""Daily time-series regression: CSV ingestion, random-day sampling, robust fit.

A length-m series f(1), ..., f(m) is treated as a function on (0, 1] through
x = k/m. Sample days are drawn by a Beta law on [0, 1], snapped to the grid,
and the values regressed on the unit-domain Jacobi basis with an outlier-robust
consensus loop.
"""

import csv
import datetime
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


def _parse_date(text: str, line: int) -> datetime.date:
    try:
        return datetime.date.fromisoformat(text.strip())
    except ValueError as exc:
        raise DataError(f"bad date {text!r}: {exc}", line=line) from None


def load_series_csv(
    path,
    location: str | None = None,
    start: str | None = None,
    end: str | None = None,
) -> TimeSeriesDataset:
    """Read (date, location, new_cases) rows; empty values count as 0.

    Extra columns are ignored and the header is required. The file is
    streamed. Every row is checked for width (a short row that is not blank
    raises) and whitespace-only rows are skipped. Only rows of the selected
    location (every row when location is None) have their dates parsed and
    their values checked: dates strictly increasing after filtering, values
    finite and >= 0. Errors carry the offending 1-based line number.
    """
    try:
        lo = datetime.date.fromisoformat(start) if start is not None else None
        hi = datetime.date.fromisoformat(end) if end is not None else None
    except ValueError as exc:
        raise ValidationError(f"bad date range bound: {exc}") from None
    if lo is not None and hi is not None and lo > hi:
        raise ValidationError(f"empty date range: {start} > {end}")

    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError("empty file: header row required", line=1) from None
        header = [h.strip().lower() for h in header]
        missing = [c for c in REQUIRED_COLUMNS if c not in header]
        if missing:
            raise DataError(f"missing column(s): {', '.join(missing)}", line=1)
        width = len(header)
        i_date, i_loc, i_value = (header.index(c) for c in REQUIRED_COLUMNS)

        found = False                      # a row of the selected location
        dates = []
        values = []
        prev: tuple | None = None          # (date, line) of last kept row
        for line, row in enumerate(reader, start=2):
            if len(row) < width:
                if not "".join(row).strip():
                    continue
                raise DataError(f"expected {width} fields, got {len(row)}", line=line)
            if location is not None and row[i_loc].strip() != location:
                continue
            if not "".join(row).strip():
                continue
            found = True
            date = _parse_date(row[i_date], line)
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
            if not math.isfinite(value):
                raise DataError(f"non-finite value {raw!r}", line=line)
            if value < 0:
                raise DataError(f"negative value {value}", line=line)
            if prev is not None and date <= prev[0]:
                raise DataError(
                    f"dates not strictly increasing: {date} after {prev[0]} "
                    f"(line {prev[1]})",
                    line=line,
                )
            prev = (date, line)
            dates.append(date.isoformat())
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

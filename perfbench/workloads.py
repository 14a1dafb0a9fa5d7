"""Workload definitions: the fixed command mix of each pass, per-pass seeds,
and the seeded multi-location CSV that `series_fits` reads.

Every operation is one `pinvreg` command line at paper defaults. Nothing here
imports the program: the program only ever sees argv and the generated files.
"""

import csv
import datetime
import hashlib
import math
import random
from dataclasses import dataclass
from pathlib import Path

DEFAULT_SEED = 0

# One pass is this command mix, run back to back; every pass gets a new seed.
# The four tables share one workload so that each run can be long enough to
# average out the drift of a shared machine's speed within the time budget.
PASS_COMMANDS = {
    "tables": ("table1", "table2", "table3", "table4"),
    "series_fits": ("fit-series",),
}
WORKLOADS = tuple(PASS_COMMANDS)

SERIES_LOCATIONS = 8
SERIES_MIN_DAYS = 400      # above the fit's default n = 340 sampled days
SERIES_MAX_DAYS = 1460     # about four years (plus jitter)


def pass_seed(workload: str, seed: int, index: int) -> int:
    """Program seed of pass `index`, stable across processes and platforms."""
    digest = hashlib.blake2b(f"{workload}/{seed}/{index}".encode(), digest_size=4)
    return int.from_bytes(digest.digest(), "big") >> 1


@dataclass(frozen=True)
class Series:
    """The generated CSV and what each location in it must read back as."""

    path: Path
    locations: tuple
    dates: dict          # location -> tuple of ISO dates
    values: dict         # location -> tuple of floats (an empty cell reads as 0)
    rows: int
    bytes: int


@dataclass(frozen=True)
class Op:
    command: str
    argv: list
    out: Path
    seed: int
    location: str | None = None

    @property
    def model(self) -> Path | None:
        """Model file that `fit-series --out X.csv` writes beside X."""
        return self.out.with_suffix(".model.json") if self.command == "fit-series" else None

    def outputs(self) -> list:
        return [p for p in (self.out, self.model) if p is not None]


def pass_ops(workload: str, seed: int, index: int, out_dir: Path,
             series: Series | None = None, tag: str = "") -> list:
    """The operations of pass `index`, writing into out_dir."""
    s = pass_seed(workload, seed, index)
    ops = []
    for command in PASS_COMMANDS[workload]:
        out = out_dir / f"p{index:05d}{tag}-{command}.csv"
        argv = [command, "--seed", str(s), "--out", str(out)]
        location = None
        if command == "fit-series":
            # round robin, so every run fits each series length equally often
            location = series.locations[index % len(series.locations)]
            argv += ["--csv", str(series.path), "--location", location]
        ops.append(Op(command, argv, out, s, location))
    return ops


def _daily_counts(rng: random.Random, m: int, start: datetime.date) -> list:
    """A few epidemic waves with weekly reporting dips, noise, gross single-day
    outliers and the odd empty cell."""
    base = rng.uniform(0.0, 20.0)
    waves = [
        (rng.uniform(0.0, m), rng.uniform(20.0, 120.0), rng.uniform(50.0, 5000.0))
        for _ in range(rng.randint(2, 4))
    ]
    counts = []
    for t in range(m):
        level = base + sum(h * math.exp(-0.5 * ((t - c) / w) ** 2) for c, w, h in waves)
        if (start + datetime.timedelta(days=t)).weekday() >= 5:
            level *= 0.7
        counts.append(max(0, round(level * (1.0 + 0.1 * rng.gauss(0.0, 1.0)))))
    for t in rng.sample(range(m), rng.randint(2, 5)):
        counts[t] = round(max(counts[t], 100) * rng.uniform(8.0, 25.0))
    for t in rng.sample(range(m), rng.randint(0, 2)):
        counts[t] = None
    return counts


def write_series_csv(path: Path, seed: int) -> Series:
    """Write every location to one daily CSV (sorted by location, then date,
    with extra columns the loader ignores), as public case-count exports are."""
    rng = random.Random(f"series_fits/{seed}")
    # evenly spread lengths (plus a little jitter) in seeded order keep the
    # total work of a run nearly the same for every seed
    step = (SERIES_MAX_DAYS - SERIES_MIN_DAYS) / (SERIES_LOCATIONS - 1)
    lengths = [round(SERIES_MIN_DAYS + k * step) + rng.randrange(10)
               for k in range(SERIES_LOCATIONS)]
    rng.shuffle(lengths)
    locations, dates, values, lines = [], {}, {}, []
    for k, m in enumerate(lengths):
        location = f"Region {k + 1:02d}"
        start = datetime.date(2020, 1, 1) + datetime.timedelta(days=rng.randint(0, 90))
        counts = _daily_counts(rng, m, start)
        days = tuple((start + datetime.timedelta(days=t)).isoformat() for t in range(m))
        total = 0
        for day, count in zip(days, counts):
            total += count or 0
            lines.append([f"R{k + 1:02d}", location, day, total,
                          "" if count is None else count])
        locations.append(location)
        dates[location] = days
        values[location] = tuple(float(c or 0) for c in counts)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["iso_code", "location", "date", "total_cases", "new_cases"])
        writer.writerows(lines)
    return Series(
        path=path, locations=tuple(locations), dates=dates, values=values,
        rows=len(lines), bytes=path.stat().st_size,
    )

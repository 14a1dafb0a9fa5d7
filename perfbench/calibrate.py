"""Host-speed calibration: a fixed reference load, timed between the
program's operations, by which the benchmark scales its times to a
reference host speed.

On a shared host the speed a process gets drifts by tens of per cent over
minutes, for every kind of work at once, while the program stays the same.
Two sets of runs of the same code then disagree by more than any useful
bound. The reference load is fixed and independent of the program, so the
share of a run's time it takes measures only the host's speed during that
run; dividing the program's times by it (and multiplying by the load's time
at the reference speed) removes the drift and keeps every change in the
program's own work.

The load mixes what the program spends its time on: Python-level parsing,
large elementwise numpy work, LAPACK factorisations and many small numpy
operations. Its blocks are run interleaved with the program, keeping their
total at a fixed share of the program's time, so that they sample the same
stretches of the host's speed as the program does.
"""

import csv
import io
import statistics
import time

import numpy as np

# Seconds one block, and one fresh-interpreter IMPORT_SNIPPET, take at the
# reference speed: their typical times on a 2-core Intel Xeon at 2.1 GHz,
# Python 3.11, numpy 2.4, scipy 1.17. Only the scale of the reported times
# depends on these; their steadiness and ratios do not.
REFERENCE_BLOCK_S = 0.025
REFERENCE_IMPORT_S = 0.45

# Share of the program's time the blocks take in a run.
SHARE = 0.15

# The reference load for set-up time: a fresh interpreter importing a fixed
# set of modules of the environment (not of the program).
IMPORT_SNIPPET = (
    "import time; start = time.perf_counter(); "
    "import argparse, csv, json, hashlib, dataclasses, numpy, scipy.linalg, scipy.special; "
    "print(time.perf_counter() - start)"
)

_TEXT = "\n".join(f"R{i % 7},Region {i % 7},2020-{1 + i % 12:02d}-{1 + i % 28:02d},"
                  f"{i * 3},{i % 97}" for i in range(4000))
_X = np.linspace(-40.0, 40.0, 200_001)
_A = np.random.default_rng(0).standard_normal((300, 300))
_A = _A @ _A.T + 300.0 * np.eye(300)
_B = _A[:40, :40].copy()
_V = np.ones(64)


def block() -> None:
    """One block of the reference load."""
    rows = list(csv.reader(io.StringIO(_TEXT)))
    by_location = {}
    for row in rows:
        by_location.setdefault(row[1], []).append(float(row[4]) if row[4] else 0.0)
    for _ in range(3):
        (np.sin(_X) / (1.0 + _X * _X)).sum()
    np.linalg.cholesky(_A)
    for _ in range(40):
        np.linalg.eigvalsh(_B)
    p0, p1 = _V, 0.5 * _V
    for _ in range(600):
        p0, p1 = p1, 1.01 * p1 - 0.3 * p0


class Calibration:
    """Runs blocks so that their time stays SHARE of the program's time."""

    def __init__(self):
        self.program_s = 0.0
        self.block_s = 0.0
        self.blocks = []    # seconds of each block
        block()             # unmeasured: first use of the BLAS threads and caches

    def after(self, program_seconds: float) -> None:
        """Account for one program operation, then catch up with blocks."""
        self.program_s += program_seconds
        while self.block_s < SHARE * self.program_s:
            start = time.perf_counter()
            block()
            self.blocks.append(time.perf_counter() - start)
            self.block_s += self.blocks[-1]

    def scale(self) -> float:
        """Factor that takes this run's times to the reference speed: the
        reference block time over the mean block time, the slowest and the
        fastest tenth of blocks left out (a block hit by a stall of the host
        says nothing about its speed over the run)."""
        times = sorted(self.blocks)
        cut = len(times) // 10
        return REFERENCE_BLOCK_S / statistics.fmean(times[cut:len(times) - cut])

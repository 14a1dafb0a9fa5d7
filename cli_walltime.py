"""Fresh-process wall time and peak RSS of each pinvreg command at paper
defaults, per source tree, as medians over repeats.

    python3 cli_walltime.py --tree parent=/path/to/other/checkout --tree change=. \
        [--repeats 9] [--out FILE]

Each repeat runs every command once per tree in a new interpreter whose
PYTHONPATH is that tree's src/, the trees taking turns at going first. Wall
time includes interpreter start-up, as a user sees it. Besides the seven
commands, "import" is `import pinvreg.cli` plus `build_parser()`. fit-series
reads the perfbench series CSV of seed 1 at location "Region 01". Peak RSS is
the child's ru_maxrss. Every command must exit 0.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE / "perfbench"))
from workloads import write_series_csv  # noqa: E402

COMMANDS = ("import", "table1", "table2", "table3", "table4", "fit-series",
            "simulate-lfr", "diagnose")


def argv_of(command: str, series: Path, out: Path) -> list:
    if command == "import":
        return [sys.executable, "-c", "import pinvreg.cli; pinvreg.cli.build_parser()"]
    argv = [sys.executable, "-m", "pinvreg.cli", command, "--out", str(out)]
    if command == "fit-series":
        argv += ["--csv", str(series), "--location", "Region 01"]
    return argv


def run_once(argv: list, src: Path) -> tuple:
    """(wall seconds, peak RSS in MB) of one child process."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONNOUSERSITE="1")
    with tempfile.TemporaryFile() as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)    # wait4 also reports the RSS
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            err.seek(0)
            sys.exit(f"{argv} failed in {src}: {err.read().decode()}")
    return wall, usage.ru_maxrss / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tree", action="append", required=True, metavar="NAME=PATH",
                        help="a checkout whose src/ is timed; repeat for each tree")
    parser.add_argument("--repeats", type=int, default=9)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    trees = {}
    for spec in args.tree:
        name, _, path = spec.partition("=")
        trees[name] = Path(path).resolve() / "src"
    values = {c: {t: [] for t in trees} for c in COMMANDS}
    with tempfile.TemporaryDirectory() as tmp:
        series = Path(tmp) / "series.csv"
        write_series_csv(series, seed=1)
        order = list(trees)
        for r in range(args.repeats):
            for command in COMMANDS:
                for tree in order:
                    out = Path(tmp) / f"{tree}-{command}.csv"
                    values[command][tree].append(
                        run_once(argv_of(command, series, out), trees[tree]))
            order.reverse()
            print(f"repeat {r + 1}/{args.repeats} done", file=sys.stderr, flush=True)

    record = {"environment": {"nproc": os.cpu_count(), "python": platform.python_version()},
              "repeats": args.repeats, "trees": list(trees),
              "commands": {}}
    for command in COMMANDS:
        row = record["commands"][command] = {}
        cells = []
        for tree in trees:
            walls = [w for w, _ in values[command][tree]]
            rss = [m for _, m in values[command][tree]]
            row[tree] = {"wall_s": {"median": statistics.median(walls), "values": walls},
                         "peak_rss_mb": {"median": statistics.median(rss), "values": rss}}
            cells.append(f"{tree} {statistics.median(walls):.3f} s "
                         f"{statistics.median(rss):.1f} MB")
        print(f"{command:13s} " + " | ".join(cells))
    if args.out:
        args.out.write_text(json.dumps(record, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

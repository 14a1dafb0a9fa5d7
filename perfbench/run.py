"""pinvreg benchmark: end-to-end and per-layer numbers for the CLI commands.

    python3 perfbench/run.py --workload tables --seed 1 --seconds 43 --trace 0

Run from anywhere; the program is taken from `src/` beside this directory and
nothing is installed. Workloads (see workloads.py):

  tables       passes of table1, table2, table3, table4 at paper defaults
  series_fits  fit-series of one location of a seeded multi-location CSV

`--seconds` is the length of the timed phase; the figures in baseline/ were
measured at BENCHMARK.json's run_seconds. The workload runs in a fresh child
process as a closed loop (one client, one command at a time, no think time),
with blocks of a fixed reference load (calibrate.py) between the commands
taking 15% of the program's time, and every output is checked. Times are
reported at the reference host speed: measured times multiplied by the
reference load's time at that speed over its time in this run. A shared
host's speed drifts by tens of per cent over minutes; the scaling removes
that drift and keeps every change in the program's own work (the measured
times are printed beside the scaled ones). Set-up time is measured in pairs
of fresh interpreters, one importing pinvreg.cli and building the parser,
one importing a fixed set of the environment's modules, half of the pairs
before and half after the workload.

The run prints each metric by name, unit and sample count, then, as its
last line, one JSON object with the end-to-end metrics of BENCHMARK.json
(`--trace 0`) or its per-layer metrics (`--trace 1`, a separate traced run
without the reference load; per-layer values are measured, per pass).
Exits non-zero without a result when the program cannot be run.

Beside it: repeat.py (runs over many seeds, medians and spreads; it wrote
baseline/), record_reference.py (the default-seed reference outputs) and the
self-test, `PYTHONPATH=src python3 -m pytest -q perfbench/tests`.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_DIR = ROOT / ".perfbench_run"
SETUP_PAIRS = 12
CHILD_TIMEOUT_S = 150
SETUP_SNIPPET = (
    "import time; start = time.perf_counter(); import pinvreg.cli; "
    "pinvreg.cli.build_parser(); print(time.perf_counter() - start); "
    "print(pinvreg.cli.__file__)"
)

sys.path.insert(0, str(HERE))
from calibrate import IMPORT_SNIPPET, REFERENCE_IMPORT_S  # noqa: E402
from workloads import PASS_COMMANDS, WORKLOADS  # noqa: E402


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def program_env() -> dict:
    """Environment whose Python imports pinvreg from the checkout's src/ only."""
    src = ROOT / "src"
    if not (src / "pinvreg" / "cli.py").is_file():
        fail(f"no program source at {src / 'pinvreg'}")
    return dict(os.environ, PYTHONPATH=str(src), PYTHONNOUSERSITE="1")


def timed_start(env: dict, snippet: str) -> float:
    """Seconds a fresh interpreter reports for `snippet`, which prints them
    and, for the program, the file pinvreg.cli was imported from."""
    proc = subprocess.run([sys.executable, "-c", snippet], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=60)
    if proc.returncode != 0:
        fail(f"a fresh interpreter failed:\n{proc.stderr.strip()}")
    lines = proc.stdout.split("\n")
    if snippet is SETUP_SNIPPET:
        src = (ROOT / "src").resolve()
        if src not in Path(lines[1]).resolve().parents:
            fail(f"pinvreg was imported from {lines[1]}, not from {src}")
    return float(lines[0])


def measure_setup(env: dict, pairs: int, warm_up: bool) -> list:
    """Ratios of set-up time to the reference import (calibrate.py), one per
    pair of fresh interpreters run back to back in alternating order; with
    warm_up, one unmeasured pair first fills the bytecode and file caches."""
    ratios = []
    for i in range(pairs + warm_up):
        if i % 2:
            reference = timed_start(env, IMPORT_SNIPPET)
            program = timed_start(env, SETUP_SNIPPET)
        else:
            program = timed_start(env, SETUP_SNIPPET)
            reference = timed_start(env, IMPORT_SNIPPET)
        if i or not warm_up:
            ratios.append(program / reference)
    return ratios


def run_child(args, env: dict) -> dict:
    run_dir = RUN_DIR / f"{args.workload}-{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--run-dir", str(run_dir)]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"workload run exceeded {CHILD_TIMEOUT_S} s")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    if proc.returncode != 0:
        fail(f"workload run exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().split("\n")[-1])


def benchmark_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def end_to_end(run: dict, setup: list, workload: str) -> tuple:
    """(metrics by name, report lines) of an untraced run. Times marked
    "ref" are scaled to the reference host speed (calibrate.py)."""
    lines = []
    metrics = {}
    scale = run["scale"]

    def report(name, value, unit, note):
        metrics[name] = value
        lines.append(f"  {name:<18} {value:>12.6g} {unit:<4} {note}")

    pass_median = 0.0
    for command in PASS_COMMANDS[workload]:
        samples = run["command_seconds"][command]
        name = command.replace("-", "_")
        median = statistics.median(samples)
        pass_median += median
        report(f"{name}_s", median * scale, "s",
               f"ref, median, n={len(samples)} (measured {median:.6g} s)")
        # the p90 counts only with at least ten samples beyond it
        if len(samples) - math.ceil(0.9 * len(samples)) >= 10:
            p90 = statistics.quantiles(samples, n=10)[8]
            report(f"{name}_p90_s", p90 * scale, "s",
                   f"ref, 90th percentile, n={len(samples)} (measured {p90:.6g} s)")
    # a command by command median: one slow command does not make its whole
    # pass the median or not
    report("pass_s", pass_median * scale, "s",
           f"ref, sum of the medians above ({' + '.join(PASS_COMMANDS[workload])}), "
           f"n={run['passes']} passes (measured {pass_median:.6g} s)")
    completed = run["attempted"] - run["failed"]
    report("ops_per_s", completed / run["phase_s"], "1/s",
           f"measured: {completed} commands completed in {run['phase_s']:.2f} s, "
           f"{run['calibration_blocks']} reference blocks included")
    report("host_scale", scale, "",
           f"reference speed / measured speed, {run['calibration_blocks']} reference blocks")
    report("setup_s", statistics.median(setup) * REFERENCE_IMPORT_S, "s",
           f"ref, median, n={len(setup)} pairs of fresh interpreters "
           f"(import pinvreg.cli + build_parser, against the reference import)")
    report("peak_rss_mb", run["peak_rss_mb"], "MB", "ru_maxrss of the workload process")
    report("error_rate", run["failed"] / run["attempted"], "",
           f"{run['failed']} failed / {run['attempted']} attempted")
    return metrics, lines


def per_layer(run: dict) -> tuple:
    layers = run["layers"]
    lines = [f"  per pass, mean of {run['passes']} traced passes"]
    for key in sorted(layers):
        lines.append(f"  {key:<40} {layers[key]:>14.6g}")
    for name in ("design.mc", "lfr.mc", "regression.ransac"):
        lines.append(f"  {name}.useful_ratio base: {layers[f'{name}.attempted']} attempted in the run")
    if run["absent"]:
        lines.append(f"  absent (reported as 0): {', '.join(run['absent'])}")
    return layers, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="pinvreg benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    env = program_env()
    spec = benchmark_spec()
    if args.trace:
        run = run_child(args, env)
        measured, lines = per_layer(run)
        wanted = spec["per_layer"]
    else:
        # set-up samples before and after the workload, so that a run's
        # median spans its whole time window rather than its start
        setup = measure_setup(env, SETUP_PAIRS // 2, warm_up=True)
        run = run_child(args, env)
        setup += measure_setup(env, SETUP_PAIRS - SETUP_PAIRS // 2, warm_up=False)
        measured, lines = end_to_end(run, setup, args.workload)
        wanted = spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if missing:
        fail(f"BENCHMARK.json declares metrics this run does not produce: {missing}")

    print(f"pinvreg benchmark: workload {args.workload}, seed {args.seed}, trace {args.trace}, "
          f"{run['passes']} passes (closed loop, 1 client, no think time)")
    if "input" in run:
        print("  input: {locations} locations, {csv_rows} rows, {csv_bytes} bytes".format(**run["input"]))
    print("\n".join(lines))
    for error in run["errors"][:10]:
        print(f"  FAILED {error}")
    print(json.dumps({
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

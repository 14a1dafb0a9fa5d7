"""One timed run of one workload, in a fresh interpreter.

    PYTHONPATH=src python3 perfbench/child.py --workload W --seed N \
        --seconds S --trace 0|1 --run-dir DIR

`run.py` starts this and reads the JSON object printed as its last line. A
closed loop with one client runs the workload's passes back to back, each
operation an in-process call of `pinvreg.cli.main(argv)`, until `--seconds`
have passed at a pass boundary. Outputs are checked after the timed phase.

With `--trace 1` every operation runs twice, untraced and traced (the order
alternates), and the two sets of output files must be byte-identical.
Without it, blocks of a fixed reference load (calibrate.py) run between the
operations, and the run reports the factor that scales its times to the
reference host speed.
"""

import argparse
import io
import json
import resource
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import checks
import workloads
from calibrate import Calibration
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"


def import_program():
    """pinvreg.cli, refusing any copy other than the checkout's src/."""
    import pinvreg.cli

    src = (ROOT / "src").resolve()
    if src not in Path(pinvreg.cli.__file__).resolve().parents:
        raise SystemExit(f"pinvreg was imported from {pinvreg.cli.__file__}, not from {src}")
    return pinvreg.cli


def call(main, argv: list) -> tuple:
    """(wall seconds, error message or None) of one CLI call; its stdout and
    stderr are captured so they cost what writing to a pipe would not."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    with redirect_stdout(out), redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = main(argv)
        except Exception as exc:     # one crashing operation is counted, not fatal
            code, error = None, f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
    if error is None and code != 0:
        error = f"exit code {code}: {err.getvalue().strip()}"
    return seconds, error


def prepare_series(workload: str, seed: int, run_dir: Path):
    """Write the series_fits input and check the loader accepts every location."""
    if workload != "series_fits":
        return None
    from pinvreg.timeseries import load_series_csv

    series = workloads.write_series_csv(run_dir / "series.csv", seed)
    for location in series.locations:
        data = load_series_csv(series.path, location=location)
        if (data.dates != series.dates[location]
                or tuple(data.values.tolist()) != series.values[location]):
            raise SystemExit(f"load_series_csv misreads {location!r} of {series.path}")
    return series


def load_reference(workload: str, seed: int) -> dict:
    """{pass index: {command: values}} recorded at the default seed, else {}."""
    if seed != workloads.DEFAULT_SEED:
        return {}
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh).get(workload, {})


def check_op(op, series, reference: dict | None) -> dict:
    """Check one operation's outputs; return the values they hold."""
    if op.command == "fit-series":
        from pinvreg.regression import load_model

        values = checks.check_series(op, series, load_model)
    else:
        values = checks.check_table(op.command, op.out, op.seed)
    if reference:
        checks.compare_reference(values, reference, op.out.name)
    return values


def same_outputs(plain, traced) -> bool:
    """Whether the traced operation wrote exactly the untraced one's bytes."""
    try:
        return all(p.read_bytes() == t.read_bytes()
                   for p, t in zip(plain.outputs(), traced.outputs()))
    except OSError:
        return False


class Outcomes:
    """Useful results against attempts, read from the checked outputs."""

    RATIOS = {"table1": "design.mc", "table2": "lfr.mc", "table4": "lfr.mc",
              "fit-series": "regression.ransac"}

    def __init__(self):
        self.attempted = {name: 0 for name in set(self.RATIOS.values())}
        self.useful = dict(self.attempted)

    def add(self, command: str, values: dict) -> None:
        name = self.RATIOS.get(command)
        if name is None:
            return
        if command == "fit-series":
            attempted = values["ransac_iterations"]
            useful = attempted - values["ransac_failures"]
        else:
            attempted, useful = checks.mc_outcomes(command, values)
        self.attempted[name] += attempted
        self.useful[name] += useful

    def metrics(self) -> dict:
        out = {}
        for name, attempted in self.attempted.items():
            out[f"{name}.useful_ratio"] = self.useful[name] / attempted if attempted else 0.0
            out[f"{name}.attempted"] = attempted
        return out


def timed_passes(args, run_one) -> int:
    """Call run_one(pass index) until --seconds have passed; return the count."""
    start = time.perf_counter()
    index = 0
    while True:
        run_one(index)
        index += 1
        if time.perf_counter() - start >= args.seconds:
            return index


def run_plain(args, main, out_dir: Path, series, reference: dict) -> dict:
    records = []        # (pass index, op, seconds, error)
    calibration = Calibration()

    def run_pass(index):
        for op in workloads.pass_ops(args.workload, args.seed, index, out_dir, series):
            seconds, error = call(main, op.argv)
            records.append((index, op, seconds, error))
            calibration.after(seconds)

    start = time.perf_counter()
    passes = timed_passes(args, run_pass)
    phase = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    errors = []
    command_seconds = {c: [] for c in workloads.PASS_COMMANDS[args.workload]}
    for index, op, seconds, error in records:
        command_seconds[op.command].append(seconds)
        if error is None:
            try:
                check_op(op, series, reference.get(str(index), {}).get(op.command))
            except checks.CheckError as exc:
                error = str(exc)
        if error is not None:
            errors.append(f"pass {index} {op.command}: {error}")
    return {
        "attempted": len(records),
        "failed": len(errors),
        "errors": errors,
        "passes": passes,
        "phase_s": phase,
        "command_seconds": command_seconds,
        "peak_rss_mb": peak_rss_mb,
        "scale": calibration.scale(),
        "calibration_blocks": len(calibration.blocks),
    }


def run_traced(args, main, out_dir: Path, series, reference: dict) -> dict:
    tracer = Tracer()
    traced_main = tracer.root(main)
    walls = {}          # op id -> traced wall seconds
    plain_total = 0.0
    pairs = []          # (pass index, plain op, traced op, plain error, traced error)

    def run_plain_op(op):
        nonlocal plain_total
        seconds, error = call(main, op.argv)
        plain_total += seconds
        return error

    def run_traced_op(op):
        tracer.op = len(pairs)
        with tracer.installed():
            seconds, error = call(traced_main, op.argv)
        walls[tracer.op] = seconds
        return error

    def run_pass(index):
        plain_ops = workloads.pass_ops(args.workload, args.seed, index, out_dir, series, "u")
        traced_ops = workloads.pass_ops(args.workload, args.seed, index, out_dir, series, "t")
        for plain, traced in zip(plain_ops, traced_ops):
            if len(pairs) % 2 == 0:
                plain_error = run_plain_op(plain)
                traced_error = run_traced_op(traced)
            else:
                traced_error = run_traced_op(traced)
                plain_error = run_plain_op(plain)
            pairs.append((index, plain, traced, plain_error, traced_error))

    passes = timed_passes(args, run_pass)
    layers = tracer.summary(walls)
    tracer.dump(args.run_dir.parent / f"spans-{args.workload}.npz")

    errors = []
    failed = 0          # commands, two per pair
    outcomes = Outcomes()
    for index, plain, traced, plain_error, traced_error in pairs:
        where = f"pass {index} {plain.command}"
        if plain_error or traced_error:
            for side, error in (("untraced", plain_error), ("traced", traced_error)):
                if error is not None:
                    failed += 1
                    errors.append(f"{where} {side}: {error}")
            continue
        if not same_outputs(plain, traced):
            failed += 1
            errors.append(f"{where}: traced outputs differ from untraced ones")
            continue
        try:
            values = check_op(plain, series, reference.get(str(index), {}).get(plain.command))
        except checks.CheckError as exc:
            failed += 2     # the two output sets are identical
            errors.append(f"{where}: {exc}")
            continue
        outcomes.add(plain.command, values)

    per_pass = {k: v / passes for k, v in layers.items()}
    per_pass["tracing.overhead_s"] = (layers["tracing.wall_s"] - plain_total) / passes
    per_pass.update(outcomes.metrics())
    return {
        "attempted": 2 * len(pairs),
        "failed": failed,
        "errors": errors,
        "passes": passes,
        "layers": per_pass,
        "absent": tracer.absent,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--run-dir", type=Path, required=True)
    args = parser.parse_args(argv)

    cli = import_program()
    out_dir = args.run_dir / "out"
    out_dir.mkdir(parents=True)
    series = prepare_series(args.workload, args.seed, args.run_dir)
    reference = load_reference(args.workload, args.seed)
    run = run_traced if args.trace else run_plain
    result = run(args, cli.main, out_dir, series, reference)
    if series is not None:
        result["input"] = {"csv_rows": series.rows, "csv_bytes": series.bytes,
                           "locations": len(series.locations)}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

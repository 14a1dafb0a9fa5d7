"""Repeat benchmark runs over seeds; report each metric's median and spread.

    python3 perfbench/repeat.py --workloads tables series_fits --seeds 1 10 \
        [--trace 0] [--out FILE]

Runs run.py once per (workload, seed), one run at a time, each for
BENCHMARK.json's run_seconds. The spread of a
metric is the distance between the first and third quartiles of its values
(statistics.quantiles(n=4)) as a share of their median. --out writes the
values, medians and spreads with the machine they were measured on.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def environment() -> dict:
    import numpy
    import scipy

    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__}


def spread(values: list) -> float | None:
    """None where the median is 0 (a layer the workload does not use)."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", nargs=2, type=int, metavar=("FIRST", "LAST"), required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    with open(HERE.parent / "BENCHMARK.json", encoding="utf-8") as fh:
        seconds = json.load(fh)["run_seconds"]

    record = {"environment": environment(), "seconds": seconds, "trace": args.trace,
              "workloads": {}}
    for workload in args.workloads:
        runs = []
        for seed in range(args.seeds[0], args.seeds[1] + 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed",
                 str(seed), "--seconds", str(seconds), "--trace", str(args.trace)],
                stdout=subprocess.PIPE, text=True, check=True)
            result = json.loads(proc.stdout.strip().split("\n")[-1])
            runs.append(result)
            values = {k: round(v["value"], 6) for k, v in result["metrics"].items()}
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} {values}", flush=True)
        metrics = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            metrics[name] = {"median": statistics.median(values), "spread": spread(values),
                             "unit": runs[0]["metrics"][name]["unit"], "values": values}
            print(f"  {workload} {name}: median {metrics[name]['median']:.6g} "
                  f"spread {metrics[name]['spread']}", flush=True)
        record["workloads"][workload] = {
            "seeds": list(range(args.seeds[0], args.seeds[1] + 1)),
            "correct": all(r["correct"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "metrics": metrics,
        }
    if args.out:
        args.out.write_text(json.dumps(record, indent=1, allow_nan=False) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

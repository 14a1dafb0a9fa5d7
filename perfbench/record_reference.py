"""Record reference.json: the output values of the first passes of each
workload at the default seed.

    PYTHONPATH=src python3 perfbench/record_reference.py

Default-seed benchmark runs compare their outputs with this file, each value
within its tolerance in checks.py. Record it only from a commit whose outputs
are the behaviour contract.
"""

import json
import shutil
import sys

import workloads
from child import REFERENCE, ROOT, call, check_op, import_program, prepare_series

PASSES = {"tables": 1, "series_fits": 8}


def main() -> int:
    cli = import_program()
    run_dir = ROOT / ".perfbench_run" / "reference"
    shutil.rmtree(run_dir, ignore_errors=True)
    (run_dir / "out").mkdir(parents=True)
    reference = {}
    try:
        for workload, passes in PASSES.items():
            series = prepare_series(workload, workloads.DEFAULT_SEED, run_dir)
            recorded = reference[workload] = {}
            for index in range(passes):
                for op in workloads.pass_ops(workload, workloads.DEFAULT_SEED, index,
                                             run_dir / "out", series):
                    _, error = call(cli.main, op.argv)
                    if error is not None:
                        raise SystemExit(f"{workload} pass {index} {op.command}: {error}")
                    values = check_op(op, series, None)
                    recorded.setdefault(str(index), {})[op.command] = values
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

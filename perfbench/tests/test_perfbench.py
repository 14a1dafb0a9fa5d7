"""Self-test of the benchmark: tracing must not change a single output byte,
a trace target the program no longer has is reported as absent, the output
checks reject results a correct program cannot produce, and the reference
load keeps to its share of the program's time.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import checks  # noqa: E402
from calibrate import SHARE, Calibration  # noqa: E402
import workloads  # noqa: E402
from child import (  # noqa: E402
    call, check_op, import_program, load_reference, prepare_series, same_outputs,
)
from tracer import Target, Tracer  # noqa: E402

SEED = workloads.DEFAULT_SEED


@pytest.fixture(scope="module")
def cli():
    return import_program()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tracing_keeps_outputs_byte_identical(cli, workload, tmp_path):
    series = prepare_series(workload, SEED, tmp_path)
    reference = load_reference(workload, SEED)["0"]
    plain_ops = workloads.pass_ops(workload, SEED, 0, tmp_path, series, "u")
    traced_ops = workloads.pass_ops(workload, SEED, 0, tmp_path, series, "t")
    tracer = Tracer()
    traced_main = tracer.root(cli.main)
    walls = {}
    for i, (plain, traced) in enumerate(zip(plain_ops, traced_ops)):
        assert call(cli.main, plain.argv)[1] is None
        tracer.op = i
        with tracer.installed():
            walls[i], error = call(traced_main, traced.argv)
        assert error is None
        assert same_outputs(plain, traced), plain.out.name
        check_op(plain, series, reference[plain.command])

    assert tracer.absent == []
    layers = tracer.summary(walls)
    assert layers["cli.main.calls"] == len(plain_ops)
    assert layers["bench.runner.calls"] == len(plain_ops)
    import pinvreg.design
    assert not hasattr(pinvreg.design.spectral_report, "__wrapped__")


def test_missing_target_is_reported_absent(cli):
    tracer = Tracer(targets=(
        Target("sampling.gone", "pinvreg.sampling", ("no_such_function",)),
        Target("jacobi.gone", "pinvreg.jacobi", ("JacobiBasis.no_such_method",)),
        Target("design.build_design", "pinvreg.design", ("build_design",), error="NoSuchError"),
    ))
    with tracer.installed():
        pass
    assert {"sampling.gone", "jacobi.gone", "pinvreg.errors.NoSuchError"} <= set(tracer.absent)
    assert "design.build_design" not in tracer.absent
    layers = tracer.summary({})
    assert layers["sampling.gone.calls"] == 0
    assert layers["sampling.gone.self_s"] == 0.0


def _rewrite_field(path: Path, marker: str, column: int, value: str) -> None:
    lines = path.read_bytes().decode().split("\r\n")
    i = next(i for i, line in enumerate(lines) if i > 1 and marker in line)
    fields = lines[i].split(",")
    fields[column] = value
    lines[i] = ",".join(fields)
    path.write_bytes("\r\n".join(lines).encode())


def test_checks_reject_impossible_outputs(cli, tmp_path):
    table4 = next(op for op in workloads.pass_ops("tables", SEED, 0, tmp_path)
                  if op.command == "table4")
    assert call(cli.main, table4.argv)[1] is None
    checks.check_table("table4", table4.out, table4.seed)
    with pytest.raises(checks.CheckError, match="unreadable"):
        checks.check_table("table4", tmp_path / "never-written.csv", table4.seed)
    _rewrite_field(table4.out, ",e0,", 10, "1e9")
    with pytest.raises(checks.CheckError, match="e0"):
        checks.check_table("table4", table4.out, table4.seed)

    series = prepare_series("series_fits", SEED, tmp_path)
    fit = workloads.pass_ops("series_fits", SEED, 0, tmp_path, series)[0]
    assert call(cli.main, fit.argv)[1] is None
    from pinvreg.regression import load_model
    checks.check_series(fit, series, load_model)
    _rewrite_field(fit.out, series.dates[fit.location][5], 2, "12345.0")
    with pytest.raises(checks.CheckError, match="fitted column"):
        checks.check_series(fit, series, load_model)


@pytest.mark.parametrize("metric, change, ok", [
    ("e0", 1e-12, True), ("e0", 1e-6, False), ("mse_krr", 1e-7, True),
    ("mse_krr", 1e-3, False), ("singular_trials", 1e-12, False),
])
def test_reference_tolerances(metric, change, ok):
    key = f"1.5,100.0/{metric}"
    actual = {key: 2.0 * (1.0 + change)}
    if ok:
        checks.compare_reference(actual, {key: 2.0}, "test")
    else:
        with pytest.raises(checks.CheckError):
            checks.compare_reference(actual, {key: 2.0}, "test")


def test_calibration_keeps_its_share():
    calibration = Calibration()
    calibration.after(0.0)
    assert calibration.blocks == []
    calibration.after(0.2)
    assert calibration.blocks
    assert SHARE * 0.2 <= calibration.block_s
    assert calibration.scale() > 0.0

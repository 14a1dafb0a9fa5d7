"""The package root re-exports the public names of every library module, and
importing it or the CLI does not load scipy."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pinvreg
from pinvreg import bench, cli, design, errors, jacobi, krr, lfr, regression, sampling
from pinvreg import timeseries

SRC = str(Path(pinvreg.__file__).resolve().parents[1])   # the package's import root
LIBRARY = (design, errors, jacobi, krr, lfr, regression, sampling, timeseries)

# every name the package root exported before it was built from the lists, less
# the ones since deleted with their code
ROOT_NAMES = """
__version__ JacobiParams JacobiBasis QuadratureRule gauss_jacobi_rule norm_constant
omega_weight omega_norm uniform_bound derive_seed derive_rng
sample_beta_on_I sample_beta_unit make_noise arcsine_quantile inverse_beta_cdf
cdf_transform build_design SpectralReport spectral_report TheoryBounds
theory_bounds McSummary mc_condition_number NpregModel RansacResult
RiskSummary fit ransac_fit l2_risk_mc weierstrass save_model load_model
KrrModel sinc_kernel krr_fit cross_validate DyadicPartition LfrProblem LfrModel
dyadic_partition simulate_problem lfr_fit lfr_errors theorem7_bound
ineq47_bound lfr_risk_mc TimeSeriesDataset load_series_csv fit_series
ValidationError DataError NumericalError StabilityError SingularBlockError
RobustFitError RegularizationError
""".split()


def test_every_module_name_is_the_same_object_at_the_root():
    for module in LIBRARY:
        for name in module.__all__:
            assert getattr(pinvreg, name) is getattr(module, name), (module, name)


def test_root_all_is_the_version_and_the_module_lists():
    assert len(pinvreg.__all__) == len(set(pinvreg.__all__))
    assert set(pinvreg.__all__) == {"__version__"}.union(
        *(module.__all__ for module in LIBRARY))


def test_each_public_name_has_one_module():
    names = [name for module in LIBRARY + (bench, cli) for name in module.__all__]
    assert len(names) == len(set(names))
    for module in LIBRARY + (bench, cli):
        for name in module.__all__:
            assert hasattr(module, name), (module, name)


def test_every_earlier_root_name_still_imports():
    assert len(ROOT_NAMES) == 57
    for name in ROOT_NAMES:
        assert name in pinvreg.__all__ and hasattr(pinvreg, name), name


# A fresh interpreter imports the package, builds the CLI parser and runs each
# argv in process; it prints, per step, the exit code and which of SCIPY are loaded.
SCIPY = ("scipy", "scipy.linalg", "scipy.special")
PROBE = """
import json, sys
import pinvreg
SCIPY = %r
def step(name, code):
    steps.append([name, code, [m for m in SCIPY if m in sys.modules]])
steps = []
step("import pinvreg", 0)
from pinvreg import cli
cli.build_parser()
step("build_parser", 0)
for argv in json.loads(sys.argv[1]):
    step(argv[0], cli.main(argv))
print(json.dumps(steps))
""" % (SCIPY,)


def probe(tmp_path, *argvs) -> list:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [SRC, os.environ.get("PYTHONPATH", "")]))
    argvs = [list(argv) + ["--out", str(tmp_path / f"{i}.out")]
             for i, argv in enumerate(argvs)]
    proc = subprocess.run([sys.executable, "-c", PROBE, json.dumps(argvs)], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def test_scipy_stays_off_the_import_path(tmp_path):
    # at the defaults no command loads scipy (table3 is a case below): the
    # normal CDF, the uniform and arcsine quantiles and the Chebyshev rule have
    # closed forms, and KRR runs on numpy's eigh
    series = tmp_path / "series.csv"
    series.write_text("date,location,new_cases\n" + "".join(
        f"2020-03-{d + 1:02d},X,{50 + d}\n" for d in range(30)))
    steps = probe(tmp_path, ["diagnose"],
                  ["fit-series", "--csv", str(series), "--n", "20", "--N", "4"],
                  ["table1", "--trials", "1"], ["table2", "--trials", "1"],
                  ["table4", "--trials", "1"], ["simulate-lfr", "--trials", "1"])
    assert [step[0] for step in steps] == [
        "import pinvreg", "build_parser", "diagnose", "fit-series", "table1", "table2",
        "table4", "simulate-lfr"]
    assert all(code == 0 and not loaded for _, code, loaded in steps), steps


@pytest.mark.parametrize("argv, needs, skips", [
    # KRR is numpy's eigh and solve, and alpha = beta = -1/2 has the closed
    # Gauss-Chebyshev rule: no scipy at all
    (["table3"], set(), set(SCIPY)),
    # no closed-form quantile or rule at alpha = 1/2: betaincinv, roots_jacobi;
    # roots_jacobi loads scipy.linalg itself, so table3 does there
    (["table1", "--alpha", "0.5"], {"scipy.special"}, set()),
    (["table3", "--alpha", "0.5"], {"scipy.linalg", "scipy.special"}, set()),
], ids=["table3", "table1-alpha0.5", "table3-alpha0.5"])
def test_scipy_modules_each_table_loads(tmp_path, argv, needs, skips):
    steps = probe(tmp_path, argv + ["--trials", "1"])
    assert steps[:2] == [["import pinvreg", 0, []], ["build_parser", 0, []]]
    command, code, loaded = steps[2]
    assert (command, code) == (argv[0], 0)
    assert needs <= set(loaded) and not skips & set(loaded), loaded

"""The singular-trial policy of every Monte Carlo runner: a trial (or RANSAC
iteration) whose fit raised the runner's singular error is counted, the
others are averaged, and any other error escapes.

Each test forces chosen fits to raise by wrapping the fit that the runner
calls once per trial. A run that keeps only trial k reads trial k's own
values, so the run that drops trial 1 must read those of trials 0, 2 and 3.
"""

import itertools
import math

import numpy as np
import pytest

from pinvreg import bench, lfr, regression
from pinvreg.bench import ExperimentConfig, run_lfr_sim, run_table3, run_table4
from pinvreg.errors import (NumericalError, RobustFitError, SingularBlockError,
                            StabilityError)
from pinvreg.jacobi import JacobiBasis, JacobiParams
from pinvreg.lfr import lfr_risk_mc
from pinvreg.regression import l2_risk_mc, ransac_fit
from pinvreg.sampling import sample_beta_on_I

TRIALS = 4
EVERY = frozenset(range(TRIALS))
KEPT = (0, 2, 3)             # the trials left when trial 1 is singular
PARAMS = JacobiParams(-0.5, -0.5)


def table3():
    return run_table3(ExperimentConfig(experiment="table3", sigma=0.1, s=1.0, N=5,
                                       n=30, trials=TRIALS, seed=2))


def table4():
    return run_table4(ExperimentConfig(experiment="table4", s=1.5, n=60, N=20,
                                       trials=TRIALS, seed=2))


def simulate_lfr():
    return run_lfr_sim(ExperimentConfig(experiment="custom", n=60, N=20, s=1.5,
                                        sigma=0.5, trials=TRIALS, seed=2))


def l2_risk():
    return l2_risk_mc(lambda x: np.cos(np.pi * x), PARAMS, 60, 5, M=1.5,
                      trials=TRIALS, sigma=0.2, seed=2)


def lfr_risk():
    return lfr_risk_mc(60, 20, 1.5, 0.5, level=6.0, trials=TRIALS, seed=2)


def ransac():
    x = sample_beta_on_I(PARAMS, 60, seed=2)
    return ransac_fit(x, np.sin(3 * x), JacobiBasis(PARAMS, 4), iterations=TRIALS,
                      seed=0)


# runner: (module whose fit it calls once per trial, that fit, its singular error)
FITS = {
    table3: (bench, "fit", StabilityError),
    table4: (bench, "lfr_fit", SingularBlockError),
    simulate_lfr: (bench, "lfr_fit", SingularBlockError),
    l2_risk: (regression, "fit", StabilityError),
    lfr_risk: (lfr, "lfr_fit", SingularBlockError),
    ransac: (regression, "fit", StabilityError),
}


@pytest.fixture
def forcing(monkeypatch):
    """forcing(runner, raising, error=None): the runner's result with its fit
    raising `error` (default: its singular error) on the calls whose 0-based
    index is in raising."""
    def run(runner, raising, error=None):
        module, name, singular = FITS[runner]
        real = getattr(module, name)
        calls = itertools.count()

        def fit(*args, **kwargs):
            if next(calls) in raising:
                raise (error or singular)("forced")
            return real(*args, **kwargs)

        with monkeypatch.context() as m:
            m.setattr(module, name, fit)
            return runner()
    return run


def metrics(result) -> dict:
    return {row["metric"]: row["value"] for row in result.rows}


@pytest.mark.parametrize("runner", [table3, table4])
def test_table_cell_averages_the_other_trials(forcing, runner):
    alone = [metrics(forcing(runner, EVERY - {k})) for k in KEPT]
    got = metrics(forcing(runner, {1}))
    assert [a["singular_trials"] for a in alone] == [3.0] * 3
    assert got["singular_trials"] == 1.0
    means = [m for m in got if m != "singular_trials"]
    assert len(means) >= 2
    for m in means:
        assert got[m] == float(np.mean([a[m] for a in alone])), m
    none = metrics(forcing(runner, EVERY))
    assert none["singular_trials"] == float(TRIALS)
    assert all(none[m] == math.inf for m in means)


@pytest.mark.parametrize("runner", [l2_risk, lfr_risk])
def test_risk_estimator_sorts_the_other_trials(forcing, runner):
    alone = [forcing(runner, EVERY - {k}) for k in KEPT]
    got = forcing(runner, {1})
    assert [a.n_singular for a in alone] == [3] * 3
    assert got.n_singular == 1
    risks = np.sort([a.risks[0] for a in alone])
    np.testing.assert_array_equal(got.risks, risks)
    assert got.mean_risk == float(np.mean(risks))
    none = forcing(runner, EVERY)
    assert none.n_singular == TRIALS and len(none.risks) == 0
    assert none.mean_risk == math.inf
    assert none.bound == got.bound       # the bound draws on no trial


def test_simulate_lfr_writes_one_row_per_singular_trial(forcing):
    plain = simulate_lfr().rows
    rows = forcing(simulate_lfr, {1}).rows
    singular = [r for r in rows if r["metric"] == "singular_trial"]
    assert [r["value"] for r in singular] == [1.0]
    assert rows == plain[:3] + singular + plain[6:]     # trial 1 in its place
    none = forcing(simulate_lfr, EVERY).rows
    assert [(r["metric"], r["value"]) for r in none] == [
        ("singular_trial", float(t)) for t in range(TRIALS)]


def test_ransac_picks_the_first_best_other_iteration(forcing):
    alone = [forcing(ransac, EVERY - {k}) for k in KEPT]
    got = forcing(ransac, {1})
    assert [a.n_failed for a in alone] == [3] * 3
    assert [a.iteration for a in alone] == list(KEPT)
    assert got.n_failed == 1
    best = min(alone, key=lambda a: a.score)
    assert best.iteration == 0      # at seed 0: not the last kept iteration
    assert (got.score, got.iteration) == (best.score, best.iteration)
    np.testing.assert_array_equal(got.model.coeffs, best.model.coeffs)
    with pytest.raises(RobustFitError, match=f"all {TRIALS} subsample fits"):
        forcing(ransac, EVERY)


@pytest.mark.parametrize("runner", list(FITS))
def test_other_numerical_errors_escape(forcing, runner):
    with pytest.raises(NumericalError, match="forced") as info:
        forcing(runner, {1}, NumericalError)
    assert type(info.value) is NumericalError


def test_l2_risk_counts_natural_singular_trials():
    # n = 12 points for 11 columns: three of four random designs are near singular
    summary = l2_risk_mc(lambda x: np.cos(np.pi * x), JacobiParams(0, 0), 12, 10,
                         M=1.5, trials=4, sigma=0.3, seed=0)
    assert summary.n_singular == 3
    assert len(summary.risks) == 1 and summary.mean_risk == summary.risks[0]

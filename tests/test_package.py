"""The package root re-exports the public names of every library module."""

import pinvreg
from pinvreg import bench, cli, design, errors, jacobi, krr, lfr, regression, sampling
from pinvreg import timeseries

LIBRARY = (design, errors, jacobi, krr, lfr, regression, sampling, timeseries)

# every name the package root exported before it was built from the lists
ROOT_NAMES = """
__version__ JacobiParams JacobiBasis QuadratureRule gauss_jacobi_rule norm_constant
omega_weight omega_norm uniform_bound EmpiricalCdf derive_seed derive_rng
sample_beta_on_I sample_beta_unit make_noise arcsine_quantile inverse_beta_cdf
cdf_transform DesignMatrix build_design SpectralReport spectral_report TheoryBounds
theory_bounds McSummary mc_condition_number NpregModel FitDiagnostics RansacResult
RiskSummary fit ransac_fit error_report l2_risk_mc weierstrass save_model load_model
KrrModel sinc_kernel krr_fit cross_validate DyadicPartition LfrProblem LfrModel
dyadic_partition simulate_problem lfr_fit lfr_errors theorem6_bound theorem7_bound
ineq47_bound truncate_beta lfr_risk_mc TimeSeriesDataset load_series_csv fit_series
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
    assert len(ROOT_NAMES) == 63
    for name in ROOT_NAMES:
        assert name in pinvreg.__all__ and hasattr(pinvreg, name), name

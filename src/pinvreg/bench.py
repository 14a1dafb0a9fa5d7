"""Seeded experiment harness: condition-number sweeps, regression benchmarks,
functional-regression error tables, and the time-series pipeline, all emitted
as config-stamped CSV or JSON files.

Every runner is a pure function of (config, seed): rows are reproduced
byte-identically across reruns. Each cell of a sweep owns a derived seed, and
rows are assembled in sweep order.
"""

import csv
import io
import json
import math
import numbers
import time
from dataclasses import dataclass, fields

import numpy as np

from .design import build_design, mc_condition_number, spectral_reports
from .errors import SingularBlockError, StabilityError, ValidationError
from .jacobi import JacobiBasis, JacobiParams, omega_norm
from .krr import DEFAULT_LAMBDA_GRID, cross_validate, krr_fit
from .lfr import (
    EXAMPLE3,
    TABLE2,
    block_gram,
    ineq47_bound,
    lfr_errors,
    lfr_fit,
    simulate_problem,
)
from .regression import fit, weierstrass
from .sampling import derive_seed, make_noise, sample_beta_on_I
from .timeseries import fit_series, load_series_csv

__all__ = [
    "ExperimentConfig",
    "ExperimentResult",
    "run_table1",
    "run_table2",
    "run_table3",
    "run_table4",
    "run_timeseries",
    "run_lfr_sim",
    "timing_comparison",
    "TABLE1_SWEEP",
    "TABLE2_SWEEP",
    "TABLE3_SWEEP",
    "TABLE4_SWEEP",
]

EXPERIMENTS = ("table1", "table2", "table3", "table4", "covid", "custom")

# (alpha, N, n) grid of the symmetric-Jacobi conditioning sweep
TABLE1_SWEEP = (
    (-0.5, 5, 25),
    (-0.5, 10, 40),
    (-0.5, 15, 60),
    (-0.5, 20, 100),
    (0.0, 5, 40),
    (0.0, 10, 100),
    (0.0, 15, 125),
    (0.0, 20, 250),
)
TABLE2_SWEEP = tuple(
    (s, N, n) for s in (0.75, 1.5) for N in (20, 30, 40, 50) for n in (100, 150, 200)
)
TABLE3_SWEEP = tuple(
    (sigma, s, N) for sigma in (0.1, 0.05) for s in (1.0, 2.0) for N in (10, 20, 30)
)
TABLE4_SWEEP = tuple((s, n) for s in (1.5, 2.0, 4.0) for n in (100, 200, 300))

_COLUMNS = (
    "experiment",
    "alpha",
    "beta",
    "s",
    "sigma",
    "N",
    "n",
    "c",
    "trials",
    "metric",
    "value",
    "seed",
)

_INT_KEYS = ("N", "n", "trials", "seed", "ransac_iterations", "ransac_subset")
_REAL_KEYS = ("alpha", "beta", "s", "sigma", "truncation", "bandwidth")


@dataclass
class ExperimentConfig:
    """Resolved knobs for one experiment run; unknown keys are rejected."""

    experiment: str
    alpha: float | None = None
    beta: float | None = None
    N: int | None = None
    n: int | None = None
    s: float | None = None
    sigma: float | None = None
    trials: int | None = None
    seed: int = 0
    out: str | None = None
    format: str = "csv"
    ransac_iterations: int | None = None
    ransac_subset: int | None = None
    truncation: float | None = None
    lambda_grid: list | None = None
    bandwidth: float | None = None
    variant: str | None = None
    csv: str | None = None
    location: str | None = None
    start: str | None = None
    end: str | None = None

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ValidationError(
                f"unknown experiment {self.experiment!r}; expected one of {EXPERIMENTS}"
            )
        if self.format not in ("csv", "json"):
            raise ValidationError(f"format must be csv or json, got {self.format!r}")
        for name in _INT_KEYS + _REAL_KEYS:
            value = getattr(self, name)
            if value is None and name != "seed":
                continue
            kind = numbers.Integral if name in _INT_KEYS else numbers.Real
            if not _is_a(value, kind):
                raise ValidationError(f"{name} must be {kind.__name__.lower()}: {value!r}")
            if not -math.inf < value < math.inf:   # no float() overflow on huge ints
                raise ValidationError(f"{name} must be finite, got {value}")
        if self.trials is not None and self.trials < 1:
            raise ValidationError(f"trials must be >= 1, got {self.trials}")
        if self.lambda_grid is not None:
            grid = self.lambda_grid
            if not isinstance(grid, (list, tuple)) or not all(
                _is_a(v, numbers.Real) for v in grid
            ):
                raise ValidationError(f"lambda_grid must be a list of reals: {grid!r}")
            if not all(0 < v < math.inf for v in grid):
                raise ValidationError("lambda_grid entries must be finite and > 0")
            self.lambda_grid = [float(v) for v in grid]

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(d) - known)
        if unknown:
            raise ValidationError(f"unknown config key(s): {', '.join(unknown)}")
        if "experiment" not in d:
            raise ValidationError("config requires an 'experiment' key")
        return cls(**d)

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


def _is_a(value, kind) -> bool:
    # bool is an int subclass, so it is rejected by name
    return isinstance(value, kind) and not isinstance(value, bool)


@dataclass
class ExperimentResult:
    """Config echo plus long-format metric rows; identical configs reproduce
    identical bytes."""

    config: dict
    rows: list
    columns: tuple = _COLUMNS

    def to_csv_text(self) -> str:
        buf = io.StringIO()
        buf.write("# config ")
        buf.write(json.dumps(self.config, sort_keys=True, separators=(",", ":")))
        buf.write("\r\n")
        writer = csv.writer(buf)
        writer.writerow(self.columns)
        for row in self.rows:
            writer.writerow([_fmt(row.get(col)) for col in self.columns])
        return buf.getvalue()

    def to_json_text(self) -> str:
        """Strict RFC 8259 JSON: non-finite floats are written as their repr
        strings ("inf", "nan"), as `diagnose` does."""
        rows = [{k: v for k, v in row.items() if v is not None} for row in self.rows]
        doc = _jsonable({"config": self.config, "rows": rows})
        return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"

    def render(self, format: str = "csv") -> str:
        if format == "csv":
            return self.to_csv_text()
        if format == "json":
            return self.to_json_text()
        raise ValidationError(f"format must be csv or json, got {format!r}")

    def write(self, path, format: str = "csv") -> None:
        text = self.render(format)
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.write(text)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _jsonable(value):
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (np.floating, np.integer)):
        value = value.item()
    if isinstance(value, float) and not math.isfinite(value):
        return repr(value)
    return value


def _lineage(*parts) -> str:
    return "/".join(str(p) for p in parts)


def _echo(config: ExperimentConfig, **resolved) -> dict:
    # the output path is plumbing, not experiment identity; leaving it out
    # keeps files byte-identical wherever they are written
    d = config.to_dict() | resolved
    d.pop("out", None)
    return d


def _require(config: ExperimentConfig, experiment: str) -> None:
    if config.experiment != experiment:
        raise ValidationError(
            f"config experiment is {config.experiment!r}, runner expects {experiment!r}"
        )


def run_table1(config: ExperimentConfig) -> ExperimentResult:
    """Mean condition number of the random Gram, direct Beta sampling vs the
    standard-normal CDF-transformed sampling, over the (alpha, N, n) grid."""
    _require(config, "table1")
    trials = config.trials if config.trials is not None else 50
    master = config.seed
    if config.alpha is not None or config.N is not None or config.n is not None:
        alpha = config.alpha if config.alpha is not None else -0.5
        beta = config.beta if config.beta is not None else alpha
        cells = [(alpha, beta, config.N if config.N is not None else 5,
                  config.n if config.n is not None else 25)]
    else:
        cells = [(a, a, N, n) for a, N, n in TABLE1_SWEEP]

    def work(cell):
        alpha, beta, N, n = cell
        params = JacobiParams(alpha, beta)
        base = {
            "experiment": "table1", "alpha": alpha, "beta": beta,
            "N": N, "n": n, "trials": trials,
        }
        rows = []
        for tag, transform in (("direct", None), ("transformed", "standard_normal")):
            labels = ("table1", tag, f"a={alpha}", f"b={beta}", N, n)
            mc = mc_condition_number(
                params, n, N, trials, transform=transform,
                master_seed=derive_seed(master, *labels),
            )
            lineage = _lineage(master, *labels)
            rows.append(base | {
                "metric": f"mean_kappa2_{tag}", "value": mc.mean_kappa2, "seed": lineage,
            })
            rows.append(base | {
                "metric": f"singular_trials_{tag}",
                "value": float(mc.n_singular), "seed": lineage,
            })
        return rows

    rows = [row for cell in cells for row in work(cell)]
    echo = _echo(config, trials=trials)
    return ExperimentResult(config=echo, rows=rows)


def run_table2(config: ExperimentConfig) -> ExperimentResult:
    """Mean cumulative block condition number for xi_j = j^(-s) designs,
    against the 2^s 1.72 log(N) / (0.63 log 2) ceiling."""
    _require(config, "table2")
    trials = config.trials if config.trials is not None else 50
    master = config.seed
    if config.s is not None or config.N is not None or config.n is not None:
        cells = [(
            config.s if config.s is not None else 0.75,
            config.N if config.N is not None else 20,
            config.n if config.n is not None else 100,
        )]
    else:
        cells = list(TABLE2_SWEEP)

    def work(cell):
        s, N, n = cell
        labels = ("table2", f"s={s}", N, n)
        lineage = _lineage(master, *labels)
        grams = []        # per trial: the Gram of each block
        for t in range(trials):
            problem = simulate_problem(
                n, N, s, sigma=0.0, variant=TABLE2,
                seed=derive_seed(master, *labels, t),
            )
            grams.append([block_gram(problem, k)[1] for k in range(problem.partition.K)])
        # one batched eigvalsh per block index, over all trials
        reports = [spectral_reports(np.stack(block)) for block in zip(*grams)]
        sums = []
        n_singular = 0
        for trial in zip(*reports):
            total = float(sum(r.kappa2 for r in trial))
            if not math.isfinite(total):
                n_singular += 1
                continue
            sums.append(total)
        mean = float(np.mean(sums)) if sums else math.inf
        bound = ineq47_bound(s, N)
        base = {"experiment": "table2", "s": s, "N": N, "n": n, "trials": trials,
                "seed": lineage}
        return [
            base | {"metric": "cumulative_kappa", "value": mean},
            base | {"metric": "ineq47_bound", "value": bound},
            base | {"metric": "bound_exceeded", "value": float(mean > bound)},
            base | {"metric": "singular_trials", "value": float(n_singular)},
        ]

    rows = [row for cell in cells for row in work(cell)]
    echo = _echo(config, trials=trials)
    return ExperimentResult(config=echo, rows=rows)


def run_table3(config: ExperimentConfig) -> ExperimentResult:
    """Weighted-L2 MSE of the polynomial estimator vs sinc-kernel ridge
    regression on Weierstrass targets, over (sigma, s, N) with c = N."""
    _require(config, "table3")
    trials = config.trials if config.trials is not None else 10
    n = config.n if config.n is not None else 100
    alpha = config.alpha if config.alpha is not None else -0.5
    beta = config.beta if config.beta is not None else alpha
    grid = tuple(config.lambda_grid) if config.lambda_grid else DEFAULT_LAMBDA_GRID
    master = config.seed
    if config.sigma is not None or config.s is not None or config.N is not None:
        cells = [(
            config.sigma if config.sigma is not None else 0.1,
            config.s if config.s is not None else 1.0,
            config.N if config.N is not None else 10,
        )]
    else:
        cells = list(TABLE3_SWEEP)
    params = JacobiParams(alpha, beta)

    def work(cell):
        sigma, s, N = cell
        c = config.bandwidth if config.bandwidth is not None else float(N)
        basis = JacobiBasis(params, N)
        rule = basis.quadrature(N + 12)
        node_table = basis.table(rule.nodes)
        f = lambda x: weierstrass(s, x)
        f_nodes = f(rule.nodes)
        labels = ("table3", f"sigma={sigma}", f"s={s}", N)
        lineage = _lineage(master, *labels)
        mse_np, mse_kr = [], []
        n_singular = 0
        for t in range(trials):
            samples = sample_beta_on_I(params, n, derive_seed(master, *labels, t, "x"))
            eps = make_noise(n, sigma, seed=derive_seed(master, *labels, t, "e"))
            y = f(samples) + eps
            try:
                model = fit(build_design(basis, samples), y)
            except StabilityError:
                n_singular += 1
                continue
            fhat_nodes = node_table @ model.coeffs
            mse_np.append(omega_norm(f_nodes - fhat_nodes, rule) ** 2)
            cv = cross_validate(
                samples, y, grid=grid, bandwidth=c,
                seed=derive_seed(master, *labels, t, "cv"),
            )
            mse_kr.append(omega_norm(f_nodes - cv.model.predict(rule.nodes), rule) ** 2)
        base = {"experiment": "table3", "alpha": alpha, "beta": beta, "s": s,
                "sigma": sigma, "N": N, "n": n, "c": c, "trials": trials,
                "seed": lineage}
        return [
            base | {"metric": "mse_npreg",
                    "value": float(np.mean(mse_np)) if mse_np else math.inf},
            base | {"metric": "mse_krr",
                    "value": float(np.mean(mse_kr)) if mse_kr else math.inf},
            base | {"metric": "singular_trials", "value": float(n_singular)},
        ]

    rows = [row for cell in cells for row in work(cell)]
    echo = _echo(
        config, trials=trials, n=n, alpha=alpha, beta=beta,
        lambda_grid=[float(g) for g in grid],
    )
    return ExperimentResult(config=echo, rows=rows)


def run_table4(config: ExperimentConfig) -> ExperimentResult:
    """Functional-regression prediction/estimation errors E0 and E2 for the
    alternating quadratic-decay slope, over (s, n) at N = 50, sigma = 0.5."""
    _require(config, "table4")
    trials = config.trials if config.trials is not None else 10
    N = config.N if config.N is not None else 50
    sigma = config.sigma if config.sigma is not None else 0.5
    master = config.seed
    if config.s is not None or config.n is not None:
        cells = [(
            config.s if config.s is not None else 1.5,
            config.n if config.n is not None else 100,
        )]
    else:
        cells = list(TABLE4_SWEEP)

    def work(cell):
        s, n = cell
        labels = ("table4", f"s={s}", n)
        lineage = _lineage(master, *labels)
        e0s, e2s, kappas = [], [], []
        n_singular = 0
        for t in range(trials):
            problem = simulate_problem(
                n, N, s, sigma, variant=EXAMPLE3, seed=derive_seed(master, *labels, t)
            )
            try:
                model = lfr_fit(problem)
            except SingularBlockError:
                n_singular += 1
                continue
            err = lfr_errors(model, problem)
            e0s.append(err.e0)
            e2s.append(err.e2)
            kappas.append(model.cumulative_kappa)
        base = {"experiment": "table4", "s": s, "sigma": sigma, "N": N, "n": n,
                "trials": trials, "seed": lineage}
        return [
            base | {"metric": "e0", "value": float(np.mean(e0s)) if e0s else math.inf},
            base | {"metric": "e2", "value": float(np.mean(e2s)) if e2s else math.inf},
            base | {"metric": "cumulative_kappa",
                    "value": float(np.mean(kappas)) if kappas else math.inf},
            base | {"metric": "singular_trials", "value": float(n_singular)},
        ]

    rows = [row for cell in cells for row in work(cell)]
    echo = _echo(config, trials=trials, N=N, sigma=sigma)
    return ExperimentResult(config=echo, rows=rows)


def run_lfr_sim(config: ExperimentConfig) -> ExperimentResult:
    """Single-cell functional-regression simulation: per-trial E0/E2 rows."""
    trials = config.trials if config.trials is not None else 1
    n = config.n if config.n is not None else 300
    N = config.N if config.N is not None else 50
    s = config.s if config.s is not None else 2.0
    sigma = config.sigma if config.sigma is not None else 0.5
    variant = config.variant if config.variant is not None else EXAMPLE3
    master = config.seed
    rows = []
    for t in range(trials):
        labels = ("lfr-sim", f"s={s}", n, t)
        problem = simulate_problem(
            n, N, s, sigma, variant=variant, seed=derive_seed(master, *labels)
        )
        base = {"experiment": config.experiment, "s": s, "sigma": sigma, "N": N,
                "n": n, "trials": trials, "seed": _lineage(master, *labels)}
        try:
            model = lfr_fit(problem, truncation_level=config.truncation)
        except SingularBlockError:
            rows.append(base | {"metric": "singular_trial", "value": float(t)})
            continue
        err = lfr_errors(model, problem)
        rows.append(base | {"metric": "e0", "value": err.e0})
        rows.append(base | {"metric": "e2", "value": err.e2})
        rows.append(base | {"metric": "cumulative_kappa",
                            "value": model.cumulative_kappa})
    echo = _echo(config, trials=trials, n=n, N=N, s=s, sigma=sigma, variant=variant)
    return ExperimentResult(config=echo, rows=rows)


def run_timeseries(config: ExperimentConfig):
    """Load the series, run the robust unit-domain fit, and emit plot rows.

    Returns (ExperimentResult with (day, observed, fitted) rows, SeriesFit).
    """
    _require(config, "covid")
    if config.csv is None:
        raise ValidationError("covid experiment requires a csv input path")
    dataset = load_series_csv(
        config.csv, location=config.location, start=config.start, end=config.end
    )
    n = config.n if config.n is not None else 340
    N = config.N if config.N is not None else 40
    alpha = config.alpha if config.alpha is not None else -0.5
    result = fit_series(
        dataset,
        n=n,
        degree_max=N,
        alpha=alpha,
        beta=config.beta,
        ransac_iterations=(
            config.ransac_iterations if config.ransac_iterations is not None else 10
        ),
        subset_size=config.ransac_subset,
        truncation=config.truncation,
        seed=config.seed,
    )
    rows = [
        {"day": day, "observed": observed, "fitted": fitted}
        for day, observed, fitted in result.plot_rows()
    ]
    echo = _echo(
        config, n=n, N=N, alpha=alpha,
        diagnostics={
            "m": dataset.m,
            "kappa2": float(result.design_report.kappa2),
            "ransac_score": float(result.ransac.score),
            "ransac_iteration": result.ransac.iteration,
            "ransac_failures": result.ransac.n_failed,
        },
    )
    return (
        ExperimentResult(config=echo, rows=rows, columns=("day", "observed", "fitted")),
        result,
    )


def timing_comparison(
    n: int = 200,
    degree_max: int = 10,
    bandwidth: float = 10.0,
    ridge: float = 1e-6,
    seed: int = 0,
    repeats: int = 5,
) -> dict:
    """Wall-clock comparison of one polynomial fit vs one kernel ridge fit.

    The polynomial path factors an n x (N+1) matrix; the kernel path factors
    an n x n matrix, so its time grows much faster with n.
    """
    params = JacobiParams(-0.5, -0.5)
    basis = JacobiBasis(params, degree_max)
    samples = sample_beta_on_I(params, n, seed)
    y = weierstrass(2.0, samples) + make_noise(
        n, 0.1, seed=derive_seed(seed, "timing")
    )
    design = build_design(basis, samples)
    fit(design, y)                                   # warm both paths
    krr_fit(samples, y, ridge, bandwidth)
    t0 = time.perf_counter()
    for _ in range(repeats):
        fit(design, y)
    npreg_seconds = (time.perf_counter() - t0) / repeats
    t0 = time.perf_counter()
    for _ in range(repeats):
        krr_fit(samples, y, ridge, bandwidth)
    krr_seconds = (time.perf_counter() - t0) / repeats
    return {"npreg_seconds": npreg_seconds, "krr_seconds": krr_seconds}

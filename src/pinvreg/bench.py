"""Seeded experiment harness: condition-number sweeps, regression benchmarks,
functional-regression error tables, the one-design spectral diagnosis and the
time-series pipeline, all emitted as config-stamped CSV or JSON files.

Every runner is a pure function of (config, seed): rows are reproduced
byte-identically across reruns. Each cell of a sweep owns a derived seed, and
rows are assembled in sweep order.
"""

import csv
import ctypes
import io
import itertools
import json
import math
import numbers
import operator
import os
import pickle
import time
import warnings
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .design import (_kappas, _mean, _trials, build_design, mc_condition_number,
                     spectral_report, theory_bounds)
from .errors import SingularBlockError, StabilityError, ValidationError
from .jacobi import JacobiBasis, JacobiParams, omega_norm
from .krr import DEFAULT_LAMBDA_GRID, cross_validate, krr_fit
from .lfr import (
    EXAMPLE3,
    TABLE2,
    _scores,
    _weights,
    ineq47_bound,
    lfr_errors,
    lfr_fit,
    simulate_problem,
)
from .regression import NpregModel, fit, weierstrass
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
    "run_diagnose",
    "timing_comparison",
    "COMMANDS",
    "COMMON_KEYS",
    "Command",
    "TABLE1_SWEEP",
    "TABLE3_SWEEP",
]

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


class Command(NamedTuple):
    """A CLI command: its experiment, the name of its runner on this module
    (looked up per call, so a patched or wrapped runner is the one run), its
    --help summary, every key it reads, its sweep keys and the rules that tie
    two of its keys.

    Each key maps to its paper default, or to None where the value is unset
    or derived. Besides its keys, every command reads `COMMON_KEYS`. Setting
    any sweep key picks one cell, the others taking their defaults; setting
    none runs the whole sweep and leaves them None (they differ per cell).
    A rule "a op b" is checked once the defaults are filled, when both keys
    are set, and again against each cell of a sweep before any cell runs."""

    experiment: str
    runner: str
    summary: str
    keys: dict
    sweep_keys: tuple = ()
    rules: tuple = ()


COMMON_KEYS = ("experiment", "seed", "out", "format")
COMMANDS = {
    "table1": Command("table1", "run_table1", "run the table1 benchmark sweep",
                      {"trials": 50, "alpha": -0.5, "beta": None, "N": 5, "n": 25},
                      ("alpha", "beta", "N", "n"), ("n > N",)),
    "table2": Command("table2", "run_table2", "run the table2 benchmark sweep",
                      {"trials": 50, "s": 0.75, "N": 20, "n": 100}, ("s", "N", "n")),
    "table3": Command("table3", "run_table3", "run the table3 benchmark sweep",
                      {"trials": 10, "n": 100, "alpha": -0.5, "beta": None,
                       "lambda_grid": DEFAULT_LAMBDA_GRID, "bandwidth": None,
                       "sigma": 0.1, "s": 1.0, "N": 10},
                      ("sigma", "s", "N"), ("n > N",)),
    "table4": Command("table4", "run_table4", "run the table4 benchmark sweep",
                      {"trials": 10, "N": 50, "sigma": 0.5, "s": 1.5, "n": 100},
                      ("s", "n")),
    "fit-series": Command("covid", "run_timeseries", "fit a daily time series from CSV",
                          {"csv": None, "location": None, "start": None, "end": None,
                           "n": 340, "N": 40, "alpha": -0.5, "beta": None,
                           "ransac_iterations": 10, "ransac_subset": None,
                           "truncation": None},
                          rules=("n > N", "ransac_subset > N", "ransac_subset <= n")),
    "simulate-lfr": Command("custom", "run_lfr_sim", "simulate functional regression",
                            {"trials": 1, "n": 300, "N": 50, "s": 2.0, "sigma": 0.5,
                             "variant": EXAMPLE3}),
    "diagnose": Command("diagnose", "run_diagnose",
                        "spectral report for one random design",
                        {"alpha": -0.5, "beta": None, "N": 5, "n": 25},
                        rules=("n > N",)),
}
EXPERIMENTS = tuple(c.experiment for c in COMMANDS.values())
_COMPARE = {">=": operator.ge, ">": operator.gt, "<=": operator.le}


def _key(kind, rule=None, help=None, default=None):
    """A config field that declares its own check and flag.

    kind is a numbers ABC, str, list (a non-empty list of reals, each entry
    held to the rule) or a tuple of choices; rule is ">= b" or "> b"; help is
    the flag's help text (None: config-file only)."""
    return field(default=default, metadata={"kind": kind, "rule": rule, "help": help})


@dataclass
class ExperimentConfig:
    """Resolved knobs for one experiment run; unknown keys are rejected.

    Construction checks the kind and range of each key that is set, rejects
    any key that the experiment's command does not read, fills its paper
    defaults and sets beta to alpha if unset. Keys left None are unread, or
    derived per cell or in the library: sweep keys of a sweep, table3's
    bandwidth (each cell's N), ransac_subset and truncation (no clamp).
    """

    experiment: str = _key(EXPERIMENTS, default=MISSING)
    alpha: float | None = _key(numbers.Real, ">= -0.5", "Jacobi alpha")
    beta: float | None = _key(numbers.Real, ">= -0.5", "Jacobi beta, alpha if unset")
    N: int | None = _key(numbers.Integral, ">= 0", "basis degree / coefficient count")
    n: int | None = _key(numbers.Integral, ">= 1", "sample size")
    s: float | None = _key(numbers.Real, "> 0", "smoothness / decay exponent")
    sigma: float | None = _key(numbers.Real, ">= 0", "noise standard deviation")
    trials: int | None = _key(numbers.Integral, ">= 1", "Monte Carlo trials per cell")
    seed: int = _key(numbers.Integral, ">= 0", "master seed (default 0)", 0)
    out: str | None = _key(str, help="output file path (default: stdout)")
    format: str = _key(("csv", "json"), help="output format", default="csv")
    ransac_iterations: int | None = _key(numbers.Integral, ">= 1",
                                         "robust-fit iterations")
    ransac_subset: int | None = _key(numbers.Integral,
                                     help="points per robust-fit subsample")
    truncation: float | None = _key(numbers.Real, "> 0", "clamp level for predictions")
    lambda_grid: list | None = _key(list, "> 0")
    bandwidth: float | None = _key(numbers.Real, "> 0",
                                   "kernel bandwidth c, each cell's N if unset")
    variant: str | None = _key((EXAMPLE3, TABLE2), help="xi family")
    csv: str | None = _key(str, help="input CSV (date,location,new_cases)")
    location: str | None = _key(str, help="location filter")
    start: str | None = _key(str, help="first date, ISO-8601")
    end: str | None = _key(str, help="last date, ISO-8601")

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if value is not None or f.default is not None:
                setattr(self, f.name, _checked(f.name, value, f.metadata["kind"],
                                               f.metadata["rule"]))
        command, spec = next((c, spec) for c, spec in COMMANDS.items()
                             if spec.experiment == self.experiment)
        unread = [f.name for f in fields(self) if getattr(self, f.name) is not None
                  and f.name not in spec.keys and f.name not in COMMON_KEYS]
        if unread:
            raise ValidationError(f"{command} does not read {', '.join(unread)}")
        one_cell = any(getattr(self, k) is not None for k in spec.sweep_keys)
        for key, value in spec.keys.items():
            if getattr(self, key) is None and (one_cell or key not in spec.sweep_keys):
                setattr(self, key, value)
        if self.beta is None:
            self.beta = self.alpha
        _check_rules(spec.rules, [self.to_dict()])

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


def _checked(name, value, kind, rule):
    """value, if it is of the kind and within the rule (a list or tuple with
    its entries as floats); otherwise a ValidationError naming the key."""
    if isinstance(kind, tuple):
        if value not in kind:
            raise ValidationError(f"unknown {name} {value!r}; expected one of {kind}")
        return value
    if kind is list:
        if not isinstance(value, (list, tuple)) or not value or not all(
            _is_a(v, numbers.Real) for v in value
        ):
            raise ValidationError(f"{name} must be a non-empty list of reals: {value!r}")
        if not all(v < math.inf and _holds(v, rule) for v in value):
            raise ValidationError(f"{name} entries must be finite and {rule}")
        return type(value)(float(v) for v in value)
    if not _is_a(value, kind):
        raise ValidationError(f"{name} must be {kind.__name__.lower()}: {value!r}")
    if kind is not str:
        if not -math.inf < value < math.inf:   # no float() overflow on huge ints
            raise ValidationError(f"{name} must be finite, got {value}")
        if not _holds(value, rule):
            raise ValidationError(f"{name} must be {rule}, got {value}")
    return value


def _check_rules(rules, cells) -> None:
    """Raise a ValidationError for the first rule "a op b" that a cell (a dict
    of key values) breaks, naming the largest breaking pair; a rule binds a
    cell only where both of its keys are set."""
    for rule in rules:
        left, op, right = rule.split()
        broken = sorted((c[left], c[right]) for c in cells if c[left] is not None
                        and c[right] is not None and not _COMPARE[op](c[left], c[right]))
        if broken:
            a, b = broken[-1]
            raise ValidationError(f"{left} must be {op} {right}, got {left}={a}, "
                                  f"{right}={b}")


def _holds(value, rule) -> bool:
    if rule is None:
        return True
    op, bound = rule.split()
    return _COMPARE[op](value, float(bound))


def _is_a(value, kind) -> bool:
    # bool is an int subclass, so it is rejected by name
    return isinstance(value, kind) and not isinstance(value, bool)


@dataclass
class ExperimentResult:
    """Config echo plus long-format metric rows; identical configs reproduce
    identical bytes. fit-series' result also carries its fitted model, which
    the CLI saves beside the rows; it is None for every other command."""

    config: dict
    rows: list
    columns: tuple = _COLUMNS
    model: NpregModel | None = None

    def to_csv_text(self) -> str:
        buf = io.StringIO()
        buf.write("# config ")
        buf.write(json.dumps(self.config, sort_keys=True, separators=(",", ":")))
        buf.write("\r\n")
        # csv writes None as an empty field, and str(float) is repr(float).
        # Each column's cells come from dict.get mapped in C over the rows (a
        # key a row lacks reads None), and zip joins them into records.
        writer = csv.writer(buf)
        writer.writerow(self.columns)
        writer.writerows(
            zip(*[map(dict.get, self.rows, itertools.repeat(col)) for col in self.columns])
        )
        return buf.getvalue()

    def to_json_text(self) -> str:
        """Strict RFC 8259 JSON: non-finite floats are written as their repr
        strings ("inf", "nan"), and None values are left out of each row."""
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


def _echo(config: ExperimentConfig) -> dict:
    # the output path is plumbing, not experiment identity; leaving it out
    # keeps files byte-identical wherever they are written
    d = config.to_dict()
    d.pop("out", None)
    return d


def _cells(config: ExperimentConfig, command: str, sweep) -> list:
    """The one cell the config picks (its values of the command's sweep keys),
    or the whole sweep when it sets none of them. The config must run the
    command's experiment, and every cell is held to the command's rules
    before any of them runs."""
    spec = COMMANDS[command]
    _require(config, spec.experiment)
    keys = spec.sweep_keys
    if all(getattr(config, k) is None for k in keys):
        cells = list(sweep)
    else:
        cells = [tuple(getattr(config, k) for k in keys)]
    _check_rules(spec.rules, [config.to_dict() | dict(zip(keys, c)) for c in cells])
    return cells


# numpy's OpenBLAS: its library, by pattern under numpy's parent directory,
# and the name of its thread-count getter and setter ({} is get or set)
_OPENBLAS = ("numpy.libs/libscipy_openblas*.so*", "scipy_openblas_{}_num_threads64_")


def _openblas_threads() -> list:
    """(get, set) of the thread count of each library that _OPENBLAS finds
    loaded in this process. A library is opened with RTLD_NOLOAD, so one that
    is not loaded stays unloaded; a library or symbol that is not found is
    left out."""
    pattern, symbol = _OPENBLAS
    found = []
    for path in Path(np.__file__).parents[1].glob(pattern):
        try:
            lib = ctypes.CDLL(str(path), mode=os.RTLD_NOLOAD)
            get, put = (getattr(lib, symbol.format(op)) for op in ("get", "set"))
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        put.argtypes, put.restype = [ctypes.c_int], None
        found.append((get, put))
    return found


def _sweep(config: ExperimentConfig, cell, cells: list) -> ExperimentResult:
    """The config's result: the rows of cell(config, c) over the cells, in
    cell order.

    The cells are dealt k ways, k the number of cells or of usable CPUs,
    whichever is fewer: cells[0::k] run here and cells[i::k] in forked child
    i, which pickles its rows or its error into its own pipe. A child's error
    is raised here, a child that dies is an OSError, and none outlives the
    sweep. Each cell derives its own seeds, so its rows do not depend on
    where it runs. Every cell runs here where k < 2 or the platform cannot
    fork, with the BLAS threads as they are. Where k >= 2, numpy's OpenBLAS
    runs one thread per process until the children are reaped, when its
    count is restored: k processes of k threads each would oversubscribe the
    CPUs. scipy's OpenBLAS, which a cell may load, keeps its count: no cell
    makes a threaded call to it.
    numpy's threaded eigh (table3's kernel, from order about 145) rounds by
    its thread count, so there a forked sweep may differ in its last digits
    from a serial one at more threads."""
    # no sched_getaffinity (macOS, Windows): no fork that is safe to use
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    k = max(1, min(len(cells), cpus))
    children = []     # (pid, the read end of its pipe)
    threads = []      # (set, the count to restore) of numpy's OpenBLAS
    try:
        if k > 1:
            threads = [(put, get()) for get, put in _openblas_threads()]
            for put, _ in threads:
                put(1)
        for i in range(1, k):
            import signal
            read, write = os.pipe()
            with warnings.catch_warnings():
                # Python >= 3.12 warns on a threaded fork; BLAS stops its threads across it
                warnings.filterwarnings("ignore", r"This process .* is multi-threaded",
                                        DeprecationWarning)
                pid = os.fork()
            if pid == 0:    # the child: it leaves only through os._exit
                try:
                    with open(write, "wb") as fh:
                        try:
                            out = [cell(config, c) for c in cells[i::k]]
                        except BaseException as exc:
                            out = exc
                        pickle.dump(out, fh)
                finally:
                    os._exit(0)
            os.close(write)
            children.append((pid, open(read, "rb")))
        shares = [[cell(config, c) for c in cells[0::k]]]
        for pid, fh in children:
            try:    # the result is cut short where the child was killed
                shares.append(pickle.load(fh))
            except (EOFError, pickle.UnpicklingError):
                raise OSError(f"sweep worker {pid} died without a result") from None
            if isinstance(shares[-1], BaseException):
                raise shares[-1]
    finally:
        for pid, fh in children:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            fh.close()
        for put, count in threads:
            put(count)
    parts = [shares[j % k][j // k] for j in range(len(cells))]
    return ExperimentResult(config=_echo(config), rows=[r for p in parts for r in p])


def _mean_rows(base: dict, metrics: tuple, values: list, n_singular: int) -> list:
    """A cell's rows: per metric, the mean of its entry of each kept trial's
    values (inf when none was kept), then the singular-trial count."""
    means = np.reshape(values, (-1, len(metrics))).T
    return [base | {"metric": m, "value": _mean(v)} for m, v in zip(metrics, means)] + [
        base | {"metric": "singular_trials", "value": float(n_singular)}]


def _require(config: ExperimentConfig, experiment: str) -> None:
    if config.experiment != experiment:
        raise ValidationError(
            f"config experiment is {config.experiment!r}, runner expects {experiment!r}"
        )


def _table1_cell(config: ExperimentConfig, cell) -> list:
    alpha, beta, N, n = cell
    trials, master = config.trials, config.seed
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


def run_table1(config: ExperimentConfig) -> ExperimentResult:
    """Mean condition number of the random Gram, direct Beta sampling vs the
    standard-normal CDF-transformed sampling, over the (alpha, N, n) grid."""
    cells = _cells(config, "table1", [(a, a, N, n) for a, N, n in TABLE1_SWEEP])
    return _sweep(config, _table1_cell, cells)


def _table2_cell(config: ExperimentConfig, cell) -> list:
    s, N, n = cell
    trials, master = config.trials, config.seed
    labels = ("table2", f"s={s}", N, n)
    part, xi = _weights(n, N, s, TABLE2)
    # every trial's F = xi Z / sqrt(n), from the scores alone, in one stack
    F = np.empty((trials, n, N))
    for t in range(trials):     # filled in place: no list of score arrays
        F[t] = _scores(n, N, derive_seed(master, *labels, t))
    F *= xi
    F /= math.sqrt(n)
    # per block: the Grams F_k'F_k of its columns F_k over all trials in one
    # batched matmul, as in lfr.block_gram, then one batched eigvalsh; the
    # trial's kappas summed in block order
    blocks = (F[:, :, sl] for sl in part.slices())
    sums = sum(_kappas(Fk.swapaxes(1, 2) @ Fk) for Fk in blocks)
    finite = np.isfinite(sums)
    mean, n_singular = _mean(sums[finite]), int(np.count_nonzero(~finite))
    bound = ineq47_bound(s, N)
    base = {"experiment": "table2", "s": s, "N": N, "n": n, "trials": trials,
            "seed": _lineage(master, *labels)}
    return [
        base | {"metric": "cumulative_kappa", "value": mean},
        base | {"metric": "ineq47_bound", "value": bound},
        base | {"metric": "bound_exceeded", "value": float(mean > bound)},
        base | {"metric": "singular_trials", "value": float(n_singular)},
    ]


def run_table2(config: ExperimentConfig) -> ExperimentResult:
    """Mean cumulative block condition number for xi_j = j^(-s) designs,
    against the 2^s 1.72 log(N) / (0.63 log 2) ceiling."""
    cells = _cells(config, "table2", TABLE2_SWEEP)
    for s, N, _ in cells:
        if ineq47_bound(s, N) == math.inf:
            raise ValidationError(f"s={s} puts the ineq47 bound past the float range")
    return _sweep(config, _table2_cell, cells)


def _table3_cell(config: ExperimentConfig, cell) -> list:
    sigma, s, N = cell
    trials, n, alpha, beta = config.trials, config.n, config.alpha, config.beta
    grid, master = tuple(config.lambda_grid), config.seed
    c = float(N) if config.bandwidth is None else config.bandwidth
    params = JacobiParams(alpha, beta)
    basis = JacobiBasis(params, N)
    rule = basis.quadrature(N + 12)
    node_table = basis.table(rule.nodes)
    f = lambda x: weierstrass(s, x)
    f_nodes = f(rule.nodes)
    labels = ("table3", f"sigma={sigma}", f"s={s}", N)
    xs = np.stack([sample_beta_on_I(params, n, derive_seed(master, *labels, t, "x"))
                   for t in range(trials)])
    f_xs = f(xs)      # one target evaluation over all trials' points
    designs = build_design(basis, xs)

    def trial(t):
        y = f_xs[t] + make_noise(n, sigma, seed=derive_seed(master, *labels, t, "e"))
        if not np.all(np.isfinite(y)):
            raise ValueError(f"sigma={sigma} puts a response past the float range")
        model = fit(designs[t], y, basis)
        cv = cross_validate(
            xs[t], y, grid=grid, bandwidth=c,
            seed=derive_seed(master, *labels, t, "cv"),
        )
        return (omega_norm(f_nodes - node_table @ model.coeffs, rule) ** 2,
                omega_norm(f_nodes - cv.model.predict(rule.nodes), rule) ** 2)

    with np.errstate(over="ignore", invalid="ignore"):      # refused below
        n_singular, mses = _trials(trials, trial, StabilityError)
    if not np.all(np.isfinite(mses)):
        raise ValueError(f"sigma={sigma} puts an MSE past the float range")
    base = {"experiment": "table3", "alpha": alpha, "beta": beta, "s": s,
            "sigma": sigma, "N": N, "n": n, "c": c, "trials": trials,
            "seed": _lineage(master, *labels)}
    return _mean_rows(base, ("mse_npreg", "mse_krr"), mses, n_singular)


def run_table3(config: ExperimentConfig) -> ExperimentResult:
    """Weighted-L2 MSE of the polynomial estimator vs sinc-kernel ridge
    regression on Weierstrass targets, over (sigma, s, N) with c = N."""
    return _sweep(config, _table3_cell, _cells(config, "table3", TABLE3_SWEEP))


_LFR_METRICS = ("e0", "e2", "cumulative_kappa")


def _lfr_trial(n, N, s, sigma, variant, seed) -> tuple:
    """The _LFR_METRICS of one simulated LFR fit; SingularBlockError where a
    block Gram is near singular."""
    problem = simulate_problem(n, N, s, sigma, variant=variant, seed=seed)
    model = lfr_fit(problem)
    err = lfr_errors(model, problem)
    return err.e0, err.e2, model.cumulative_kappa


def _table4_cell(config: ExperimentConfig, cell) -> list:
    s, n = cell
    trials, N, sigma, master = config.trials, config.N, config.sigma, config.seed
    labels = ("table4", f"s={s}", n)
    n_singular, values = _trials(
        trials,
        lambda t: _lfr_trial(n, N, s, sigma, EXAMPLE3, derive_seed(master, *labels, t)),
        SingularBlockError,
    )
    base = {"experiment": "table4", "s": s, "sigma": sigma, "N": N, "n": n,
            "trials": trials, "seed": _lineage(master, *labels)}
    return _mean_rows(base, _LFR_METRICS, values, n_singular)


def run_table4(config: ExperimentConfig) -> ExperimentResult:
    """Functional-regression prediction/estimation errors E0 and E2 for the
    alternating quadratic-decay slope, over (s, n) at fixed N and sigma."""
    return _sweep(config, _table4_cell, _cells(config, "table4", TABLE4_SWEEP))


def run_lfr_sim(config: ExperimentConfig) -> ExperimentResult:
    """Single-cell functional-regression simulation: per-trial E0/E2 rows."""
    _require(config, "custom")
    trials, n, N, s, sigma = config.trials, config.n, config.N, config.s, config.sigma
    rows = []
    for t in range(trials):
        labels = ("lfr-sim", f"s={s}", n, t)
        base = {"experiment": config.experiment, "s": s, "sigma": sigma, "N": N,
                "n": n, "trials": trials, "seed": _lineage(config.seed, *labels)}
        try:     # one row per singular trial, so not through design._trials
            values = _lfr_trial(n, N, s, sigma, config.variant,
                                derive_seed(config.seed, *labels))
        except SingularBlockError:
            rows.append(base | {"metric": "singular_trial", "value": float(t)})
            continue
        rows += [base | {"metric": m, "value": v} for m, v in zip(_LFR_METRICS, values)]
    return ExperimentResult(config=_echo(config), rows=rows)


def run_diagnose(config: ExperimentConfig) -> ExperimentResult:
    """One row: the spectral report of one random design's Gram and, at
    N >= 2, the printed stability condition and bounds."""
    _require(config, "diagnose")
    alpha, beta, N, n = config.alpha, config.beta, config.N, config.n
    params = JacobiParams(alpha, beta)
    basis = JacobiBasis(params, N)      # refuses an unrepresentable basis first
    samples = sample_beta_on_I(params, n, config.seed)
    A = build_design(basis, samples)
    report = spectral_report(A.T @ A)
    # condition1_satisfied is preset so that an N < 2 row keeps its column
    row = {"alpha": alpha, "beta": beta, "N": N, "n": n, "seed": config.seed,
           "lambda_min": report.lambda_min, "lambda_max": report.lambda_max,
           "kappa2": report.kappa2, "condition1_satisfied": None}
    if N >= 2:
        tb = theory_bounds(params, n, N)
        row |= {"condition1_satisfied": tb.condition1_ok, "L_N": tb.L_N,
                "kappa_bound_delta=0.1": tb.kappa_bound(0.1)}
    return ExperimentResult(config=_echo(config), rows=[row], columns=tuple(row))


def run_timeseries(config: ExperimentConfig) -> ExperimentResult:
    """Load the series and run the robust unit-domain fit: (day, observed,
    fitted) rows, the fit's diagnostics in the config echo, and its model."""
    _require(config, "covid")
    if config.csv is None:
        raise ValidationError("covid experiment requires a csv input path")
    dataset = load_series_csv(
        config.csv, location=config.location, start=config.start, end=config.end
    )
    result = fit_series(
        dataset,
        n=config.n,
        degree_max=config.N,
        alpha=config.alpha,
        beta=config.beta,
        ransac_iterations=config.ransac_iterations,
        subset_size=config.ransac_subset,
        truncation=config.truncation,
        seed=config.seed,
    )
    rows = [
        {"day": day, "observed": observed, "fitted": fitted}
        for day, observed, fitted in zip(
            dataset.dates, dataset.values.tolist(), result.fitted.tolist()
        )
    ]
    echo = _echo(config) | {
        "diagnostics": {
            "m": dataset.m,
            "kappa2": float(result.design_report.kappa2),
            "ransac_score": float(result.ransac.score),
            "ransac_iteration": result.ransac.iteration,
            "ransac_failures": result.ransac.n_failed,
        },
    }
    return ExperimentResult(echo, rows, ("day", "observed", "fitted"), result.ransac.model)


def timing_comparison(
    n: int = 200,
    degree_max: int = 10,
    bandwidth: float = 10.0,
    ridge: float = 1e-6,
    seed: int = 0,
    repeats: int = 5,
) -> dict:
    """Wall-clock comparison of one polynomial fit vs one kernel ridge fit.

    The polynomial path factors an n x (N+1) matrix; the kernel path
    eigendecomposes an n x n matrix, so its time grows much faster with n.
    """
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    params = JacobiParams(-0.5, -0.5)
    basis = JacobiBasis(params, degree_max)
    samples = sample_beta_on_I(params, n, seed)
    y = weierstrass(2.0, samples) + make_noise(
        n, 0.1, seed=derive_seed(seed, "timing")
    )
    design = build_design(basis, samples)
    fit(design, y, basis)                            # warm both paths
    krr_fit(samples, y, ridge, bandwidth)
    t0 = time.perf_counter()
    for _ in range(repeats):
        fit(design, y, basis)
    npreg_seconds = (time.perf_counter() - t0) / repeats
    t0 = time.perf_counter()
    for _ in range(repeats):
        krr_fit(samples, y, ridge, bandwidth)
    krr_seconds = (time.perf_counter() - t0) / repeats
    return {"npreg_seconds": npreg_seconds, "krr_seconds": krr_seconds}

"""Command line entry point.

Subcommands: table1..table4 (benchmark sweeps), fit-series (CSV time-series
pipeline), simulate-lfr (functional-regression simulation), diagnose (one-shot
spectral report). Exit codes: 0 success, 1 validation error, 2 numerical
failure; errors print one JSON line on stderr.
"""

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from . import bench
from .design import build_design, spectral_report, theory_bounds
from .errors import NumericalError, ValidationError
from .jacobi import JacobiBasis, JacobiParams
from .regression import save_model
from .sampling import sample_beta_on_I

__all__ = ["main", "build_parser"]


class _Parser(argparse.ArgumentParser):
    """Raises instead of exiting so the CLI controls exit codes."""

    def __init__(self, *args, **kwargs):
        kwargs.setdefault("allow_abbrev", False)
        super().__init__(*args, **kwargs)

    def error(self, message):
        raise ValidationError(message)


def _add_common(p) -> None:
    p.add_argument("--seed", type=int, help="master seed (default 0)")
    p.add_argument("--config", type=str, help="JSON config file; flags override it")
    p.add_argument("--out", type=str, help="output file path (default: stdout)")
    p.add_argument("--format", choices=("csv", "json"), help="output format")
    p.add_argument("--trials", type=int, help="Monte Carlo trials per cell")


def _add_sweep_overrides(p) -> None:
    p.add_argument("--alpha", type=float, help="Jacobi alpha")
    p.add_argument("--beta", type=float, help="Jacobi beta (defaults to alpha)")
    p.add_argument("--N", type=int, help="basis degree / coefficient count")
    p.add_argument("--n", type=int, help="sample size")
    p.add_argument("--s", type=float, help="smoothness / decay exponent")
    p.add_argument("--sigma", type=float, help="noise standard deviation")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="pinvreg",
        description="Random pseudo-inverse regression benchmarks and pipelines",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    for name in ("table1", "table2", "table3", "table4"):
        p = sub.add_parser(name, help=f"run the {name} benchmark sweep")
        _add_common(p)
        _add_sweep_overrides(p)
        if name == "table3":
            p.add_argument("--bandwidth", type=float, help="kernel bandwidth c")

    p = sub.add_parser("fit-series", help="fit a daily time series from CSV")
    _add_common(p)
    p.add_argument("--csv", type=str, help="input CSV (date,location,new_cases)")
    p.add_argument("--location", type=str, help="location filter")
    p.add_argument("--start", type=str, help="first date, ISO-8601")
    p.add_argument("--end", type=str, help="last date, ISO-8601")
    p.add_argument("--alpha", type=float, help="Jacobi alpha")
    p.add_argument("--beta", type=float, help="Jacobi beta (defaults to alpha)")
    p.add_argument("--N", type=int, help="basis degree")
    p.add_argument("--n", type=int, help="sampled days")
    p.add_argument("--ransac-iterations", type=int, dest="ransac_iterations",
                   help="robust-fit iterations")
    p.add_argument("--ransac-subset", type=int, dest="ransac_subset",
                   help="points per robust-fit subsample")
    p.add_argument("--truncation", type=float, help="clamp level for predictions")

    p = sub.add_parser("simulate-lfr", help="simulate functional regression")
    _add_common(p)
    p.add_argument("--n", type=int, help="sample size")
    p.add_argument("--N", type=int, help="coefficient count")
    p.add_argument("--s", type=float, help="decay exponent")
    p.add_argument("--sigma", type=float, help="noise sd")
    p.add_argument("--variant", choices=("example3", "table2"), help="xi family")

    p = sub.add_parser("diagnose", help="spectral report for one random design")
    _add_common(p)
    p.add_argument("--alpha", type=float, help="Jacobi alpha")
    p.add_argument("--beta", type=float, help="Jacobi beta (defaults to alpha)")
    p.add_argument("--N", type=int, help="basis degree")
    p.add_argument("--n", type=int, help="sample size")

    for name, p in sub.choices.items():
        _note_defaults(p, bench.COMMANDS[name])
    return parser


def _note_defaults(p, command: bench.Command) -> None:
    """Append each flag's paper default, read from the command table."""
    for action in p._actions:
        notes = ["picks one cell"] if action.dest in command.sweep_keys else []
        if action.dest in command.defaults:
            notes.append(f"default {command.defaults[action.dest]}")
        if notes:
            action.help = f"{action.help} ({'; '.join(notes)})"


def _load_config_file(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"config file {path}: {exc}") from None
    if not isinstance(data, dict):
        raise ValidationError(f"config file {path}: expected a JSON object")
    return data


def _build_config(args) -> bench.ExperimentConfig:
    base = _load_config_file(args.config) if getattr(args, "config", None) else {}
    base["experiment"] = bench.COMMANDS[args.command].experiment   # subcommand wins
    # every flag that feeds the config has the config key as its dest
    for field in dataclasses.fields(bench.ExperimentConfig):
        value = getattr(args, field.name, None)
        if value is not None:
            base[field.name] = value
    return bench.ExperimentConfig.from_dict(base, command=args.command)


def _emit(result: bench.ExperimentResult, config) -> None:
    fmt = config.format
    if config.out:
        result.write(config.out, fmt)
        print(f"wrote {config.out} ({len(result.rows)} rows)")
    else:
        sys.stdout.write(result.render(fmt))


def _run_diagnose(config) -> int:
    alpha, beta, N, n = config.alpha, config.beta, config.N, config.n
    params = JacobiParams(alpha, beta)
    samples = sample_beta_on_I(params, n, config.seed)
    report = spectral_report(build_design(JacobiBasis(params, N), samples).gram())
    payload = {
        "alpha": alpha,
        "beta": beta,
        "N": N,
        "n": n,
        "seed": config.seed,
        "lambda_min": report.lambda_min,
        "lambda_max": report.lambda_max,
        "kappa2": report.kappa2,
    }
    if N >= 2:
        tb = theory_bounds(params, n, N)
        payload["condition1_satisfied"] = tb.condition1_ok
        payload["L_N"] = tb.L_N
        payload["kappa_bound_delta=0.1"] = tb.kappa_bound(0.1)
    else:
        payload["condition1_satisfied"] = None
    text = (
        json.dumps(bench._jsonable(payload), sort_keys=True, allow_nan=False)
        if config.format == "json"
        else "\n".join(f"{k}={v}" for k, v in payload.items())
    )
    if config.out:
        with open(config.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        print(f"wrote {config.out}")
    else:
        print(text)
    return 0


def _dispatch(args) -> int:
    config = _build_config(args)
    command = args.command
    if command in ("table1", "table2", "table3", "table4"):
        runner = getattr(bench, f"run_{command}")
        _emit(runner(config), config)
        return 0
    if command == "simulate-lfr":
        _emit(bench.run_lfr_sim(config), config)
        return 0
    if command == "fit-series":
        result, series = bench.run_timeseries(config)
        _emit(result, config)
        if config.out:
            model_path = Path(config.out).with_suffix(".model.json")
            save_model(series.model, model_path)
            print(f"wrote {model_path}")
        return 0
    if command == "diagnose":
        return _run_diagnose(config)
    raise ValidationError(f"unknown command {command!r}")


def _print_error(exc: Exception) -> None:
    message = " ".join(str(exc).split()) or type(exc).__name__
    line = json.dumps({"error": type(exc).__name__, "message": message})
    print(line, file=sys.stderr)


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return _dispatch(args)
    except NumericalError as exc:
        _print_error(exc)
        return 2
    except (ValidationError, ValueError) as exc:
        _print_error(exc)
        return 1
    except OSError as exc:
        _print_error(exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""Command line entry point.

Subcommands: table1..table4 (benchmark sweeps), fit-series (CSV time-series
pipeline), simulate-lfr (functional-regression simulation), diagnose (one-shot
spectral report). Exit codes: 0 success, 1 validation error, I/O error or an
allocation that fails at once, 2 numerical failure; errors print one JSON line
on stderr.
"""

import argparse
import csv
import dataclasses
import functools
import io
import json
import numbers
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


# argparse type of each numeric or string kind of config key
_TYPES = {numbers.Integral: int, numbers.Real: float, str: str}
_SUMMARIES = {
    "fit-series": "fit a daily time series from CSV",
    "simulate-lfr": "simulate functional regression",
    "diagnose": "spectral report for one random design",
}


def build_parser() -> argparse.ArgumentParser:
    """One subparser per command, with a flag for each key it reads, typed and
    described by the key's ExperimentConfig field; each flag's help notes its
    paper default and whether it picks one cell."""
    parser = _Parser(
        prog="pinvreg",
        description="Random pseudo-inverse regression benchmarks and pipelines",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for name, command in bench.COMMANDS.items():
        summary = _SUMMARIES.get(name, f"run the {name} benchmark sweep")
        p = sub.add_parser(name, help=summary)
        p.add_argument("--config", help="JSON config file; flags override it")
        for field in dataclasses.fields(bench.ExperimentConfig):
            key, kind, text = field.name, field.metadata["kind"], field.metadata["help"]
            if text is None or key not in command.keys and key not in bench.COMMON_KEYS:
                continue
            default = command.keys.get(key)
            notes = ["picks one cell"] if key in command.sweep_keys else []
            if default is not None:
                notes.append(f"default {default}")
            if notes:
                text = f"{text} ({'; '.join(notes)})"
            p.add_argument("--" + key.replace("_", "-"), help=text,
                           **({"choices": kind} if isinstance(kind, tuple)
                              else {"type": _TYPES[kind]}))
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # one parser per process: parse_args reads it and never changes it
    return build_parser()


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
    return bench.ExperimentConfig.from_dict(base)


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
    basis = JacobiBasis(params, N)      # refuses an unrepresentable basis first
    samples = sample_beta_on_I(params, n, config.seed)
    report = spectral_report(build_design(basis, samples).gram())
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
    payload = bench._jsonable(payload)         # non-finite values as "inf"/"nan"
    if config.format == "json":
        text = json.dumps(payload, sort_keys=True, allow_nan=False) + "\n"
    else:                                       # one header row, one value row
        buf = io.StringIO()
        csv.writer(buf).writerows((payload.keys(), payload.values()))
        text = buf.getvalue()
    if config.out:
        with open(config.out, "w", newline="", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {config.out}")
    else:
        sys.stdout.write(text)
    return 0


def _dispatch(args) -> int:
    config = _build_config(args)
    command = args.command
    if command == "diagnose":
        return _run_diagnose(config)
    if command == "fit-series":
        result, series = bench.run_timeseries(config)
    else:       # looked up per call, so a runner patched on bench is the one run
        runner = "run_lfr_sim" if command == "simulate-lfr" else f"run_{command}"
        result = getattr(bench, runner)(config)
    _emit(result, config)
    if command == "fit-series" and config.out:
        model_path = Path(config.out).with_suffix(".model.json")
        save_model(series.model, model_path)
        print(f"wrote {model_path}")
    return 0


def _print_error(exc: Exception) -> None:
    message = " ".join(str(exc).split()) or type(exc).__name__
    line = json.dumps({"error": type(exc).__name__, "message": message})
    print(line, file=sys.stderr)


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        return _dispatch(args)
    except NumericalError as exc:
        _print_error(exc)
        return 2
    except (ValueError, OSError, MemoryError) as exc:    # ValidationError too
        _print_error(exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())

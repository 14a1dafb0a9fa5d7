"""Command line entry point.

One subcommand per `bench.COMMANDS` entry, which names its runner in `bench`
and its help summary. Every runner returns an ExperimentResult, written as
config-stamped CSV or JSON, with its model file beside it where it carries a
fitted model. Exit codes: 0 success, 1 validation error, I/O error or an
allocation that fails at once, 2 numerical failure; errors print one JSON line
on stderr.
"""

import argparse
import dataclasses
import functools
import json
import numbers
import sys
from pathlib import Path

from . import bench
from .errors import NumericalError, ValidationError
from .regression import save_model

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
        p = sub.add_parser(name, help=command.summary)
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


def _dispatch(args) -> int:
    spec = bench.COMMANDS[args.command]
    base = _load_config_file(args.config) if args.config else {}
    base["experiment"] = spec.experiment   # the subcommand wins
    # every flag that feeds the config has the config key as its dest
    for field in dataclasses.fields(bench.ExperimentConfig):
        value = getattr(args, field.name, None)
        if value is not None:
            base[field.name] = value
    config = bench.ExperimentConfig.from_dict(base)
    # looked up per call, so a runner patched on bench is the one run
    result = getattr(bench, spec.runner)(config)
    if not config.out:
        sys.stdout.write(result.render(config.format))
        return 0
    result.write(config.out, config.format)
    written = [f"wrote {config.out} ({len(result.rows)} rows)"]
    if result.model is not None:
        model_path = Path(config.out).with_suffix(".model.json")
        save_model(result.model, model_path)
        written.append(f"wrote {model_path}")
    print(*written, sep="\n")       # only once every file is written
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

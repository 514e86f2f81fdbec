"""Command-line front end: the one place that validates flags and writes output."""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import Optional, Sequence

from .eft import MAX_K
from .experiments import (
    CheckFailed,
    render_csv,
    run_condition_sweep,
    run_cubic_comparison,
    run_flop_report,
    run_root_neighborhood,
    run_table_reproduction,
)

_RUNNERS = {
    "root-neighborhood": run_root_neighborhood,
    "condition-sweep": run_condition_sweep,
    "table1": run_table_reproduction,
    "cubic-compare": run_cubic_comparison,
    "flops": run_flop_report,
}


def _parse_k_list(text: str) -> tuple[int, ...]:
    parts = text.split(",")
    if not all(part.strip() for part in parts):
        raise argparse.ArgumentTypeError(f"empty item in k list {text!r}")
    try:
        values = tuple(int(part) for part in parts)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated integer list: {text!r}")
    if any(not 1 <= k <= MAX_K for k in values):
        raise argparse.ArgumentTypeError(f"k values must lie in 1..{MAX_K}, got {text!r}")
    if len(set(values)) != len(values):
        raise argparse.ArgumentTypeError(f"k values must not repeat, got {text!r}")
    return values


def _parse_points(text: str) -> int:
    try:
        points = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if points < 2:
        raise argparse.ArgumentTypeError(f"point count must be >= 2, got {points}")
    return points


_FLAGS = {
    "k_list": ("--k", _parse_k_list, "LIST", f"comma-separated distinct K values in 1..{MAX_K}"),
    "points": ("--points", _parse_points, "N", "number of sweep points per window, at least 2"),
}

# Help line (docstring summary) and flag parameters of each runner, read at
# import: perfbench's tracer later swaps runners for (*args, **kwargs) wrappers.
_SUBCOMMANDS = {
    name: (
        (runner.__doc__ or "").partition("\n")[0],
        runner.__code__.co_varnames[: runner.__code__.co_argcount],
    )
    for name, runner in _RUNNERS.items()
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="casteljau",
        description=(
            "Accuracy experiments for plain and compensated de Casteljau "
            "evaluation, reported against an exact rational oracle."
        ),
    )
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name, (description, params) in _SUBCOMMANDS.items():
        # An omitted flag passes nothing, so the runner's default applies.
        p = sub.add_parser(name, help=description, argument_default=argparse.SUPPRESS)
        p.add_argument("--out", type=Path, help="output file path")
        for param in params:
            flag, parse, metavar, help_text = _FLAGS[param]
            p.add_argument(flag, dest=param, type=parse, metavar=metavar, help=help_text)
    return parser


def _render(result: Sequence) -> str:
    if result and isinstance(result[0], str):
        return "\n".join(result) + "\n"
    return render_csv(result)


def _write(text: str, out: Optional[Path]) -> int:
    try:
        if out is None:
            sys.stdout.write(text)
            sys.stdout.flush()
        else:
            with open(out, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
    except OSError as exc:
        if out is None:
            # The interpreter flushes stdout again at exit: send what is left
            # to devnull, so a closed pipe or a full disk is reported once.
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        print(f"error: cannot write {out or 'stdout'}: {exc.strerror or exc}", file=sys.stderr)
        return 2
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    options = vars(build_parser().parse_args(argv))
    experiment = options.pop("experiment")
    out = options.pop("out", None)
    try:
        result = _RUNNERS[experiment](**options)
    except CheckFailed as exc:
        if exc.report:
            _write(_render(exc.report), out)
        print(f"regression check failed: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return _write(_render(result), out)

"""Command-line front end: the one place that validates flags and writes output."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

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

# Help text, and the runner parameters each experiment takes as flags.
_EXPERIMENTS = {
    "root-neighborhood": ("sweep the octic across its multiple root at 3/4", ("points",)),
    "condition-sweep": (
        "walk the octic's condition number up geometrically",
        ("k_list", "points"),
    ),
    "table1": ("audit the once-compensated quartic triangle entry by entry", ()),
    "cubic-compare": ("Horner vs de Casteljau, and K=2 vs K=3 near 1/2", ("points",)),
    "flops": ("closed-form flop counts vs instrumented operation tallies", ("k_list",)),
}


def _parse_k_list(text: str) -> tuple[int, ...]:
    try:
        values = tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated integer list: {text!r}")
    if not values:
        raise argparse.ArgumentTypeError("empty k list")
    if any(not 1 <= k <= 8 for k in values):
        raise argparse.ArgumentTypeError(f"k values must lie in 1..8, got {text!r}")
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
    "k_list": ("--k", _parse_k_list, "LIST", "comma-separated K values, each in 1..8"),
    "points": ("--points", _parse_points, "N", "number of sweep points per window, at least 2"),
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
    for name, (description, params) in _EXPERIMENTS.items():
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


def _write(text: str, out: Optional[Path]) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


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
    _write(_render(result), out)
    return 0


if __name__ == "__main__":
    sys.exit(main())

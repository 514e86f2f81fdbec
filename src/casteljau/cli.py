"""Command-line front end for the accuracy experiments."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

from .experiments import (
    CheckFailed,
    ExperimentConfig,
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
    try:
        values = tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated integer list: {text!r}")
    if not values:
        raise argparse.ArgumentTypeError("empty k list")
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="casteljau",
        description=(
            "Accuracy experiments for plain and compensated de Casteljau "
            "evaluation, reported against an exact rational oracle."
        ),
    )
    sub = parser.add_subparsers(dest="experiment", required=True)
    descriptions = {
        "root-neighborhood": "sweep the octic across its multiple root at 3/4",
        "condition-sweep": "walk the octic's condition number up geometrically",
        "table1": "audit the once-compensated quartic triangle entry by entry",
        "cubic-compare": "Horner vs de Casteljau, and K=2 vs K=3 near 1/2",
        "flops": "closed-form flop counts vs instrumented operation tallies",
    }
    for name, runner in _RUNNERS.items():
        p = sub.add_parser(name, help=descriptions[name])
        p.add_argument(
            "--k",
            type=_parse_k_list,
            default=(),
            metavar="LIST",
            help="comma-separated K values (condition-sweep and flops; "
            "other experiments use fixed method sets)",
        )
        p.add_argument("--out", type=Path, default=None, help="output file path")
        p.add_argument(
            "--points",
            type=int,
            default=None,
            metavar="N",
            help="number of sweep points per window",
        )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = ExperimentConfig(k_list=args.k, out=args.out, points=args.points)
        result = _RUNNERS[args.experiment](config)
    except CheckFailed as exc:
        print(f"regression check failed: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if config.out is None:
        if result and isinstance(result[0], str):
            sys.stdout.write("\n".join(result) + "\n")
        else:
            sys.stdout.write(render_csv(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

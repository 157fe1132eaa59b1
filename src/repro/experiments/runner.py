"""Experiment registry and runner.

Maps experiment ids (``table1`` … ``figure1``) to their run/format pairs so
examples, benchmarks and the command line can regenerate any published
artefact uniformly::

    python -m repro.experiments.runner table3
    python -m repro.experiments.runner --list

Unknown ids exit with status 2 and print the available set; the
``python -m repro experiments`` subcommand delegates here.
"""

from __future__ import annotations

# repro: noqa-file[LOG001] -- this module IS a CLI entry point (python -m
# repro.experiments.runner); its prints are the reporting surface, exactly
# like repro/cli.py
import argparse
import sys
from typing import Optional, Sequence

from ..errors import ExperimentError, FlowError
from ..registry import Registry
from .figure1 import format_figure1, run_figure1
from .table1 import format_table1, run_table1
from .table2 import format_table2, run_table2
from .table3 import format_table3, run_table3

__all__ = ["EXPERIMENTS", "run_experiment", "build_parser", "main"]

#: id -> (runner, formatter) registry.
EXPERIMENTS = Registry("experiment")
EXPERIMENTS.register("table1", (run_table1, format_table1))
EXPERIMENTS.register("table2", (run_table2, format_table2))
EXPERIMENTS.register("table3", (run_table3, format_table3))
EXPERIMENTS.register("figure1", (run_figure1, format_figure1))


def run_experiment(experiment_id: str, **kwargs) -> str:
    """Run one experiment by id and return its formatted report."""
    try:
        runner, formatter = EXPERIMENTS.get(experiment_id)
    except FlowError as exc:
        raise ExperimentError(str(exc)) from None
    return formatter(runner(**kwargs))


def build_parser() -> argparse.ArgumentParser:
    """Argument parser for the experiment runner CLI."""
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description=(
            "Regenerate the paper's published artefacts (tables 1-3, "
            "figure 1).  With no ids, every experiment runs."
        ),
    )
    parser.add_argument(
        "ids",
        nargs="*",
        metavar="experiment",
        help=f"experiment ids to run; available: {', '.join(sorted(EXPERIMENTS))}",
    )
    parser.add_argument(
        "--list",
        action="store_true",
        help="print the available experiment ids and exit",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point: run the named experiments (default: all).

    Exit codes: 0 on success, 2 when an unknown experiment id is given
    (the available set is printed to stderr).
    """
    args = build_parser().parse_args(argv)
    if args.list:
        for experiment_id in sorted(EXPERIMENTS):
            print(experiment_id)
        return 0
    unknown = [target for target in args.ids if target not in EXPERIMENTS]
    if unknown:
        print(
            f"unknown experiment ids {unknown}; "
            f"available: {sorted(EXPERIMENTS)}",
            file=sys.stderr,
        )
        return 2
    targets = args.ids or sorted(EXPERIMENTS)
    for target in targets:
        print(run_experiment(target))
        print()
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    raise SystemExit(main())

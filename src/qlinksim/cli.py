"""Command-line entry point: scenario subcommands writing CSV tables.

Exit codes: 0 success, 2 configuration error (unknown key, bad value,
a grid value the model rejects, unwritable output), 3 infeasible
scenario (no positive rate anywhere in the altitude bracket).
"""

from __future__ import annotations

import argparse
import sys

from .config import ConfigError, load_config
from .sweeps import SCENARIOS, InfeasibleScenario, render_csv, run_scenario

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qlinksim",
        description="Satellite-to-ground quantum/classical link feasibility sweeps.",
    )
    sub = parser.add_subparsers(dest="scenario", required=True, metavar="SCENARIO")
    for name, scenario in SCENARIOS.items():
        p = sub.add_parser(name, help=scenario.help)
        p.add_argument("--config", default=None, metavar="PATH", help="INI config file")
        p.add_argument(
            "--out",
            default=None,
            metavar="PATH",
            help="output CSV path (default: stdout)",
        )
        p.add_argument(
            "--workers", type=int, default=1, metavar="INT",
            help="accepted for compatibility; has no effect",
        )
        p.add_argument(
            "--override",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="override a config entry as section.key=value (repeatable)",
        )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.workers < 1:
        print(f"config error: --workers must be >= 1: {args.workers}", file=sys.stderr)
        return 2
    try:
        cfg = load_config(args.config, args.override)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        table = run_scenario(args.scenario, cfg)
    except InfeasibleScenario as exc:
        print(f"infeasible scenario: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        # a grid value the model rejects, such as a zero altitude or slant
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    text = render_csv(table, cfg)
    if args.out is None:
        sys.stdout.write(text)
        return 0
    try:
        with open(args.out, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    except OSError as exc:
        print(f"config error: cannot write output file {args.out!r}: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())

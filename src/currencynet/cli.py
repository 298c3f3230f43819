"""Command-line front end.

Subcommands: ``run`` executes a scenario file and writes the output bundle;
``check`` validates a scenario and prints diagnostics; ``repro`` runs the
built-in reproduction suites against their tolerances.

Exit codes: 0 success, 1 usage or config error, 2 runtime error,
3 reproduction failure.
"""
from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .engine import load_scenario, run_scenario, validate_config
from .errors import ConfigError, CurrencyNetError, UnknownSuiteError
from .justice import convergence_report
from . import outputs, repro

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RUNTIME = 2
EXIT_REPRO_FAIL = 3


def _default_outdir() -> str:
    return os.environ.get("CURRENCYNET_OUT", "out")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="currencynet",
        description="Simulate and analyze egalitarian multi-currency community networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a scenario file and write the output bundle")
    run.add_argument("--scenario", required=True, help="path to a scenario JSON file")
    run.add_argument("--steps", type=int, default=None, help="override total steps")
    run.add_argument("--seed", type=int, default=None, help="override the RNG seed")
    run.add_argument("--out", default=None, help="output directory (default $CURRENCYNET_OUT or ./out)")
    run.add_argument("--format", choices=("csv", "json"), default="csv")
    run.add_argument("--quiet", action="store_true")

    check = sub.add_parser("check", help="validate a scenario file")
    check.add_argument("--scenario", required=True)
    check.add_argument("--quiet", action="store_true")

    rep = sub.add_parser("repro", help="run a built-in reproduction suite")
    rep.add_argument("suite", choices=sorted(repro.SUITES) + ["all"])
    rep.add_argument("--quiet", action="store_true")
    return parser


def cmd_run(args) -> int:
    try:
        config = load_scenario(args.scenario)
    except (OSError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    overrides = {}
    if args.steps is not None:
        overrides["steps"] = args.steps
    if args.seed is not None:
        overrides["seed"] = args.seed
    if overrides:
        config = config._replace(**overrides)
    diagnostics = validate_config(config)
    for diag in diagnostics:
        if not args.quiet or diag.level == "error":
            print(f"{diag.level}: [{diag.code}] {diag.message}", file=sys.stderr)
    if any(d.level == "error" for d in diagnostics):
        return EXIT_USAGE
    try:
        result = run_scenario(config)
        outdir = Path(args.out if args.out is not None else _default_outdir()) / config.name
        files = outputs.write_bundle(result, outdir, fmt=args.format)
    except CurrencyNetError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    if not args.quiet:
        print(f"wrote {', '.join(files)} to {outdir}")
        if result.ex12 is not None:
            tail = convergence_report(result.ex12)
            print(f"ex12 trailing mean: {tail.trailing_mean:.6f}")
    return EXIT_OK


def cmd_check(args) -> int:
    try:
        config = load_scenario(args.scenario)
    except (OSError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    diagnostics = validate_config(config)
    for diag in diagnostics:
        print(f"{diag.level}: [{diag.code}] {diag.message}")
    errors = [d for d in diagnostics if d.level == "error"]
    if not diagnostics and not args.quiet:
        print("ok")
    return EXIT_USAGE if errors else EXIT_OK


def cmd_repro(args) -> int:
    names = sorted(repro.SUITES) if args.suite == "all" else [args.suite]
    all_checks = []
    for name in names:
        try:
            checks = repro.run_suite(name)
        except UnknownSuiteError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        all_checks.extend(checks)
        if not args.quiet:
            for check in checks:
                print(check.format_row())
    failed = [c for c in all_checks if c.status == "FAIL"]
    print(f"{len(all_checks) - len(failed)}/{len(all_checks)} checks passed")
    return EXIT_REPRO_FAIL if failed else EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    if args.command == "run":
        return cmd_run(args)
    if args.command == "check":
        return cmd_check(args)
    return cmd_repro(args)


if __name__ == "__main__":
    sys.exit(main())

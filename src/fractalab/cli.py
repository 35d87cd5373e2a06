"""Batch command-line driver.

    fractalab run <config>       run an experiment config, write CSV + summary
    fractalab classify <file>    print the classification report of an IFS
    fractalab suites             list the packaged verification suites

Exit status 0 means every assertion in the run passed.
"""

from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path

from . import classify as cls
from .fourier import BudgetError
from .ifs_core import PreconditionError
from .specfile import SpecFileError, parse_config, resolve_system

# run_suite stays bound here: perfbench's tracer wraps and restores it by name
from .suites import BUILTIN_SUITES, ConfigError, parse_flag, parse_value, run_config, run_suite  # noqa: F401


def _write_tables(result, out_dir):
    out_dir.mkdir(parents=True, exist_ok=True)
    for tname, (header, rows) in result.tables.items():
        path = out_dir / f"{result.name}-{tname}.csv"
        with path.open("w", newline="") as fh:
            wtr = csv.writer(fh)
            wtr.writerow(header)
            for row in rows:
                wtr.writerow(row)
    summary = out_dir / f"{result.name}-summary.txt"
    summary.write_text("\n".join(result.summary_lines()) + "\n")


def cmd_run(args):
    try:
        result, resolved = run_config(parse_config(args.config))
    except (ValueError, KeyError, OSError, BudgetError) as exc:
        # config errors, unreadable files and values the experiment rejects
        # (PreconditionError, or a tol the word tree's node budget cannot reach)
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _write_tables(result, Path(resolved["out"]))
    print("\n".join(result.summary_lines()))
    return 0 if result.passed else 1


def cmd_classify(args):
    try:
        report = cls.classify_ifs(resolve_system(args.ifs_file)[0])
    except (SpecFileError, PreconditionError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(report.to_text(), end="")
    status = 0
    try:
        for expect in args.expect or []:
            key, _, value = expect.partition("=")
            got = {
                "periodic": report.periodicity.periodic,
                "lattice-contained": report.lattice.contained,
                "integer-form": report.integer_form.in_form,
            }.get(key)
            if got is None:
                raise ConfigError(f"unknown expectation {key!r}")
            if got != parse_value(key, parse_flag, value):
                print(f"expectation failed: {key} is {str(got).lower()}, wanted {value}", file=sys.stderr)
                status = 1
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return status


def cmd_suites(_args):
    for name in BUILTIN_SUITES:
        print(name)
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(prog="fractalab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run an experiment config")
    p_run.add_argument("config")
    p_run.set_defaults(func=cmd_run)
    p_cls = sub.add_parser("classify", help="classify an IFS spec file (or builtin:<name>)")
    p_cls.add_argument("ifs_file")
    p_cls.add_argument("--expect", action="append", metavar="KEY=BOOL",
                       help="fail (exit 1) unless the report matches, e.g. periodic=true")
    p_cls.set_defaults(func=cmd_classify)
    p_suites = sub.add_parser("suites", help="list packaged verification suites")
    p_suites.set_defaults(func=cmd_suites)
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())

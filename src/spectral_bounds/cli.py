"""Command line entry point.

    spectral-bounds run --config scenario.json --out results/ [--format both]
    spectral-bounds spectrum --config scenario.json [--count 12]
    spectral-bounds bound --config scenario.json --kind kroger-avg --param 5 10

Exit status is 0 when every evaluated inequality holds, 1 when any
report has holds=false, and 2 when the scenario could not be loaded or
solved or a bound could not be evaluated.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from typing import List, Optional

import numpy as np

from . import __version__
from .fdsolver import SolverConvergenceError
from .report import BoundReport
from .scenario import (ScenarioError, build_spectrum, emit, load_scenario,
                       run_scenario, scenario_from_dict)

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spectral-bounds",
        description="verify eigenvalue-sum, Riesz-mean and heat-trace "
                    "bounds for weighted Neumann problems")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a scenario file end to end")
    run.add_argument("--config", required=True, help="scenario JSON path")
    run.add_argument("--out", required=True, help="output directory")
    run.add_argument("--format", default="json",
                     choices=["json", "csv", "both"])
    run.set_defaults(handler=_cmd_run)

    spectrum = sub.add_parser("spectrum",
                              help="print the spectrum of a scenario")
    spectrum.add_argument("--config", required=True)
    spectrum.add_argument("--count", type=int, default=None,
                          help="print at most this many eigenvalues")
    spectrum.add_argument("--json", action="store_true",
                          help="emit machine-readable JSON")
    spectrum.set_defaults(handler=_cmd_spectrum)

    bound = sub.add_parser("bound", help="evaluate one bound kind")
    bound.add_argument("--config", required=True,
                       help="scenario JSON providing problem and spectrum")
    bound.add_argument("--kind", required=True)
    bound.add_argument("--param", type=float, nargs="+", required=True,
                       help="parameter values (k, z or t depending on kind)")
    bound.set_defaults(handler=_cmd_bound)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser `main` reads its arguments with, built once: building
    one took about 1 ms, a fifteenth of a small in-process run."""
    return build_parser()


def _print_reports(reports: List[BoundReport], stream) -> None:
    for r in reports:
        slack = "" if r.slack_ratio is None else f" slack={r.slack_ratio:.6g}"
        status = "ok" if r.holds else "VIOLATED"
        print(f"{r.kind} parameter={r.parameter:g} bound={r.bound_value:.12g} "
              f"computed={r.computed_value:.12g}{slack} {status}",
              file=stream)


def _exit_code(report) -> int:
    if report.errors:
        return 2
    return 0 if report.all_hold else 1


def _cmd_run(args) -> int:
    scenario = load_scenario(args.config)
    started = time.perf_counter()
    report = run_scenario(scenario)
    elapsed = time.perf_counter() - started
    written = emit(report, args.out, fmt=args.format)
    print(f"{scenario.label}: {len(report.reports)} bounds, "
          f"{sum(1 for r in report.reports if not r.holds)} violations, "
          f"{len(report.errors)} errors in {elapsed:.2f}s", file=sys.stderr)
    for path in written:
        print(f"wrote {path}", file=sys.stderr)
    for err in report.errors:
        print(f"error: {err['kind']} parameter={err['parameter']:g}: "
              f"{err['message']}", file=sys.stderr)
    _print_reports(report.reports, sys.stdout)
    return _exit_code(report)


def _cmd_spectrum(args) -> int:
    if args.count is not None and args.count < 0:
        raise ValueError(f"--count: must be >= 0, got {args.count}")
    _, spectrum, summary = build_spectrum(load_scenario(args.config))
    if args.json:
        payload = spectrum.to_json_dict()
        payload["values"] = payload["values"][:args.count]
        payload["summary"] = summary
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(f"# source={summary['source']} count={summary['count']} "
              f"cutoff={summary['cutoff']:.12g}")
        for i, v in enumerate(spectrum.values[:args.count]):
            print(f"{i}\t{float(v)!r}")
    return 0


def _cmd_bound(args) -> int:
    from .scenario import _KINDS

    if args.kind not in _KINDS:
        raise ScenarioError(f"--kind: unknown bound kind {args.kind!r}")
    scenario = load_scenario(args.config)
    entry = {"kind": args.kind, _KINDS[args.kind][0]: list(args.param)}
    report = run_scenario(scenario_from_dict(
        dict(scenario.raw, bounds=[entry]), label=scenario.label))
    for err in report.errors:
        print(f"error: {err['kind']} parameter={err['parameter']:g}: "
              f"{err['message']}", file=sys.stderr)
    _print_reports(report.reports, sys.stdout)
    return _exit_code(report)


def main(argv: Optional[List[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        # a floating-point overflow, invalid operation or division by zero
        # raises instead of printing a numpy warning and running on
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return args.handler(args)
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 2
    except SolverConvergenceError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 2
    # bad fields, grid or spectrum request, overflow on extreme sizes, a
    # geometry the fd solver does not support, or a path it cannot open
    except (ValueError, ArithmeticError, NotImplementedError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Command line entry point.

    spectral-bounds run --config scenario.json --out results/ [--format both]
    spectral-bounds spectrum --config scenario.json [--count 12]
    spectral-bounds bound --config scenario.json --kind kroger-avg --param 5 10
    spectral-bounds selftest [--seed 0]

Exit status is 0 when every evaluated inequality holds, 1 when any
report has holds=false, and 2 when the scenario could not be loaded or
solved or a bound could not be evaluated.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from typing import List, Optional

import numpy as np

from . import __version__
from .fdsolver import SolverConvergenceError
from .report import BoundReport
from .scenario import (ScenarioError, emit, load_scenario, run_scenario,
                       scenario_from_dict)

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

    selftest = sub.add_parser("selftest",
                              help="run randomized internal identity checks")
    selftest.add_argument("--seed", type=int, default=0)
    selftest.set_defaults(handler=_cmd_selftest)

    return parser


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
    from .bounds import bound_context
    from .domains import QuadratureGrid
    from .scenario import _scenario_spectrum

    scenario = load_scenario(args.config)
    grid = QuadratureGrid(scenario.problem.domain, scenario.grid_n)
    spectrum, summary = _scenario_spectrum(
        scenario, grid, bound_context(scenario.problem, grid))
    count = len(spectrum) if args.count is None else min(args.count,
                                                         len(spectrum))
    if args.json:
        payload = spectrum.to_json_dict()
        payload["values"] = payload["values"][:count]
        payload["summary"] = summary
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(f"# source={summary['source']} count={summary['count']} "
              f"cutoff={summary['cutoff']:.12g}")
        for i, v in enumerate(spectrum.values[:count]):
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


def _cmd_selftest(args) -> int:
    """Randomized identity checks that need no scenario file."""
    from .avp import avp_check, frame_constant, tight_frame_bound
    from .special import (Lattice2, hex_theta, lattice_heat_trace,
                          lattice_heat_trace_poisson)

    rng = np.random.default_rng(args.seed)
    failures = 0

    def check(name: str, ok: bool) -> None:
        nonlocal failures
        print(f"{'PASS' if ok else 'FAIL'} {name}")
        if not ok:
            failures += 1

    # averaged variational inequality on random ensembles
    worst = 0.0
    for _ in range(100):
        n = 12
        a = rng.standard_normal((n, n))
        h = 0.5 * (a + a.T)
        vectors = [rng.standard_normal(n) for _ in range(6)]
        weights = rng.uniform(0.2, 2.0, size=6)
        family = list(zip(vectors, weights))
        subset = list(rng.choice(6, size=3, replace=False))
        z = float(rng.uniform(-2.0, 6.0))
        rep = avp_check(h, family, subset, z)
        worst = max(worst, rep.bound_value - rep.computed_value)
        if not rep.holds:
            break
    check(f"avp random ensembles (worst deficit {worst:.3g})",
          worst <= 1e-9)

    # equality at a full orthonormal family
    n = 8
    a = rng.standard_normal((n, n))
    h = 0.5 * (a + a.T)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    family = [(q[:, i], 1.0) for i in range(n)]
    z = float(np.linalg.eigvalsh(h).max() + 1.0)
    rep = avp_check(h, family, list(range(n)), z)
    gap = abs(rep.computed_value - rep.bound_value)
    check(f"avp orthonormal equality (gap {gap:.3g})", gap <= 1e-9)

    # tight-frame sum bound against exact partial sums
    ok = True
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    family = [(q[:, i], 1.0) for i in range(n)]
    frame_constant(n, family)
    a = rng.standard_normal((n, n))
    h = 0.5 * (a + a.T)
    for k in range(1, n):
        for subset_size in (1, n // 2, n):
            subset = list(rng.choice(n, size=subset_size, replace=False))
            rep = tight_frame_bound(h, family, subset, k)
            if not rep.holds:
                ok = False
    check("avp tight-frame sum bound", ok)

    # Poisson summation on random lattices
    worst = 0.0
    for _ in range(20):
        basis = rng.uniform(-2.0, 2.0, size=(2, 2))
        while abs(np.linalg.det(basis)) < 0.3:
            basis = rng.uniform(-2.0, 2.0, size=(2, 2))
        lat = Lattice2(tuple(basis[0]), tuple(basis[1]))
        t = float(rng.uniform(0.05, 1.5))
        direct = lattice_heat_trace(lat, t)
        dual = lattice_heat_trace_poisson(lat, t)
        worst = max(worst, abs(direct - dual) / max(abs(direct), 1.0))
    check(f"poisson summation on random lattices (worst {worst:.3g})",
          worst <= 1e-9)

    # hexagonal theta limit
    limit = hex_theta(10.0)
    check(f"hexagonal theta large-argument limit ({limit:.12g})",
          abs(limit - 2.0 / math.sqrt(3.0)) <= 1e-6)

    print(f"{'OK' if failures == 0 else 'FAILED'}: "
          f"{5 - failures}/5 selftests passed")
    return 0 if failures == 0 else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
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
    # bad fields, grid or spectrum request, overflow on extreme sizes, or a
    # geometry the fd solver does not support
    except (ValueError, ArithmeticError, NotImplementedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

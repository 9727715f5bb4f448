"""Scenario files and the verification run pipeline.

A scenario is a JSON document describing one weighted Neumann problem, how
to obtain its spectrum, and which bounds to verify on which parameter
grids:

    {
      "label": "square-kroger",
      "domain": {"type": "box", "sides": [1.0, 1.0]},
      "fields": {"w": "1", "rho": "0", "V": "0"},
      "grid":   {"n": 64},
      "spectrum": {"source": "exact-rectangle", "count": 60},
      "bounds": [{"kind": "kroger-avg", "k": [5, 10, 20, 50]}],
      "seed": 0
    }

Domains: box {sides, origin?}, disk {radius, center?}, masked_box {sides,
origin?, inside}, torus {e1, e2}.  Field expressions default to w=1,
rho=0, V=0.  Spectrum sources: "fd" (finite differences on the grid),
"exact-rectangle", "exact-torus", "exact-sphere"; exact sources apply the
affine shift by (w_mean, vweff_mean), which matches the operator exactly
when the fields are constant.

Bound kinds and their parameter key:
    kroger-avg k | general-sum k | riesz-lower z | heat-lower t |
    individual-sk k | individual-pos k | phase-space-sum k | heat-torus t

The run computes the spectrum once, evaluates every requested bound,
sorts reports by (kind, parameter), and emits JSON/CSV whose bytes depend
only on scenario content, seed, and package version (wall time goes to
stderr, never into the files).
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from . import __version__
from .bounds import (general_sum_bound, heat_lower_bound, individual_bound_pos,
                     individual_bound_sk, kroger_avg_bound, riesz_lower_bound)
from .domains import Box, Disk, MaskedBox, QuadratureGrid, TorusFundamental
from .expressions import FieldSyntaxError
from .homog import heat_torus_bound
from .phasespace import phase_space_sum_bound, phase_space_tables
from .problem import ProblemSpec
from .report import BoundReport, inputs_digest
from .special import Lattice2
from .spectra import (Spectrum, rectangle_neumann_exact, shifted_spectrum,
                      sphere_spectrum, torus_spectrum)
from .fdsolver import SolverOptions, assemble, solve_lowest_detailed

__all__ = ["Scenario", "BoundRequest", "RunReport", "ScenarioError",
           "load_scenario", "run_scenario", "emit", "default_jobs"]

_PARAM_KEY = {
    "kroger-avg": "k",
    "general-sum": "k",
    "riesz-lower": "z",
    "heat-lower": "t",
    "individual-sk": "k",
    "individual-pos": "k",
    "phase-space-sum": "k",
    "heat-torus": "t",
}


class ScenarioError(ValueError):
    """Scenario file violates the schema; message names the field path."""


@dataclass(frozen=True)
class BoundRequest:
    kind: str
    parameters: Tuple[float, ...]
    options: Dict[str, float] = field(default_factory=dict)


@dataclass
class Scenario:
    label: str
    problem: ProblemSpec
    grid_n: Tuple[int, ...]
    source: str
    count: int
    cutoff: Optional[float]
    sphere_nu: Optional[int]
    sphere_l_max: Optional[int]
    method: Optional[str]
    tolerance: float
    bounds: Tuple[BoundRequest, ...]
    seed: int
    raw: dict = field(repr=False, default_factory=dict)

    def digest(self) -> str:
        return inputs_digest("scenario", json.dumps(self.raw, sort_keys=True))


def _expect(mapping: dict, key: str, types, path: str, default=_PARAM_KEY):
    if key not in mapping:
        if default is not _PARAM_KEY:
            return default
        raise ScenarioError(f"{path}.{key}: missing required field")
    value = mapping[key]
    if types is not None and not isinstance(value, types):
        raise ScenarioError(
            f"{path}.{key}: expected {types}, got {type(value).__name__}")
    return value


def _vector(mapping: dict, key: str, path: str, length=None, default=_PARAM_KEY):
    value = _expect(mapping, key, list, path, default)
    if value is default and default is not _PARAM_KEY:
        return default
    if not all(isinstance(v, (int, float)) and not isinstance(v, bool)
               for v in value):
        raise ScenarioError(f"{path}.{key}: expected a list of numbers")
    if length is not None and len(value) != length:
        raise ScenarioError(f"{path}.{key}: expected {length} entries")
    return [float(v) for v in value]


def _parse_domain(data: dict, path: str):
    kind = _expect(data, "type", str, path)
    if kind == "box":
        sides = _vector(data, "sides", path)
        origin = _vector(data, "origin", path, length=len(sides),
                         default=None)
        return Box(tuple(sides),
                   None if origin is None else tuple(origin))
    if kind == "disk":
        radius = _expect(data, "radius", (int, float), path)
        center = _vector(data, "center", path, length=2, default=[0.0, 0.0])
        return Disk(float(radius), tuple(center))
    if kind == "masked_box":
        sides = _vector(data, "sides", path)
        origin = _vector(data, "origin", path, length=len(sides),
                         default=None)
        inside = _expect(data, "inside", str, path)
        box = Box(tuple(sides), None if origin is None else tuple(origin))
        from .expressions import parse_field
        return MaskedBox(box, parse_field(inside, len(sides)))
    if kind == "torus":
        e1 = _vector(data, "e1", path, length=2)
        e2 = _vector(data, "e2", path, length=2)
        return TorusFundamental(tuple(e1), tuple(e2))
    raise ScenarioError(f"{path}.type: unknown domain type {kind!r}")


def load_scenario(path) -> Scenario:
    """Parse and validate a scenario file; errors name the offending
    field by its JSON path."""
    path = Path(path)

    def finite(text):
        value = float(text)
        if not math.isfinite(value):
            raise ScenarioError(f"{path}: number {text} is not finite")
        return value

    try:
        data = json.loads(path.read_text(), parse_float=finite,
                          parse_int=lambda text: int(finite(text)),
                          parse_constant=finite)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ScenarioError(f"{path}: document must be an object")

    label = _expect(data, "label", str, "$", default=path.stem)
    domain = _parse_domain(_expect(data, "domain", dict, "$"), "domain")

    fields = _expect(data, "fields", dict, "$", default={})
    try:
        problem = ProblemSpec(
            domain,
            w=_expect(fields, "w", str, "fields", default=None),
            rho=_expect(fields, "rho", str, "fields", default=None),
            V=_expect(fields, "V", str, "fields", default=None),
            label=label)
    except FieldSyntaxError as exc:
        raise ScenarioError(f"fields: {exc}") from exc

    grid = _expect(data, "grid", dict, "$", default={"n": 64})
    n_raw = grid.get("n", 64)
    if isinstance(n_raw, int) and not isinstance(n_raw, bool):
        grid_n = (n_raw,) * domain.nu
    elif isinstance(n_raw, list):
        grid_n = tuple(int(v) for v in _vector(grid, "n", "grid"))
    else:
        raise ScenarioError("grid.n: expected an integer or list")
    if any(n < 2 for n in grid_n):
        raise ScenarioError(f"grid.n: resolutions must be >= 2, got {grid_n}")

    spec = _expect(data, "spectrum", dict, "$", default={"source": "fd"})
    source = _expect(spec, "source", str, "spectrum", default="fd")
    if source not in ("fd", "exact-rectangle", "exact-torus", "exact-sphere"):
        raise ScenarioError(f"spectrum.source: unknown source {source!r}")
    count = _expect(spec, "count", int, "spectrum", default=16)
    if count < 1:
        raise ScenarioError("spectrum.count: must be >= 1")
    cutoff = _expect(spec, "cutoff", (int, float), "spectrum", default=None)
    sphere_nu = _expect(spec, "nu", int, "spectrum", default=None)
    sphere_l_max = _expect(spec, "l_max", int, "spectrum", default=None)
    method = _expect(spec, "method", str, "spectrum", default=None)
    if method not in (None, "dense", "iterative"):
        raise ScenarioError(
            "spectrum.method: expected 'dense' or 'iterative'")
    tolerance = float(_expect(spec, "tolerance", (int, float), "spectrum",
                              default=1e-8))

    bounds: List[BoundRequest] = []
    for i, entry in enumerate(_expect(data, "bounds", list, "$", default=[])):
        bpath = f"bounds[{i}]"
        if not isinstance(entry, dict):
            raise ScenarioError(f"{bpath}: expected an object")
        kind = _expect(entry, "kind", str, bpath)
        if kind not in _PARAM_KEY:
            raise ScenarioError(f"{bpath}.kind: unknown bound kind {kind!r}")
        key = _PARAM_KEY[kind]
        params = _vector(entry, key, bpath)
        if not params:
            raise ScenarioError(f"{bpath}.{key}: parameter list is empty")
        options = {k: float(v) for k, v in entry.items()
                   if k not in ("kind", key)
                   and isinstance(v, (int, float)) and not isinstance(v, bool)}
        if key == "k":
            needed = max(int(p) for p in params)
            if kind in ("individual-sk", "individual-pos"):
                needed += 1
            if source != "exact-rectangle" and needed > count and \
                    source in ("fd",):
                raise ScenarioError(
                    f"{bpath}.{key}: needs {needed} eigenvalues but "
                    f"spectrum.count is {count}")
        bounds.append(BoundRequest(kind, tuple(float(p) for p in params),
                                   options))

    seed = _expect(data, "seed", int, "$", default=0)
    return Scenario(label, problem, grid_n, source, count, cutoff,
                    sphere_nu, sphere_l_max, method, tolerance,
                    tuple(bounds), int(seed), raw=data)


@dataclass
class RunReport:
    label: str
    scenario_digest: str
    seed: int
    spectrum_summary: dict
    reports: List[BoundReport]
    errors: List[dict]
    version: str = __version__

    @property
    def all_hold(self) -> bool:
        return all(r.holds for r in self.reports)

    def to_json_dict(self) -> dict:
        return {
            "version": self.version,
            "label": self.label,
            "scenario_digest": self.scenario_digest,
            "seed": self.seed,
            "spectrum": self.spectrum_summary,
            "bounds": [r.to_json_dict() for r in self.reports],
            "errors": self.errors,
        }

    def to_json_text(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True) + "\n"

    def to_csv_text(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["kind", "parameter", "bound", "computed", "slack",
                         "holds"])
        for r in self.reports:
            writer.writerow(r.csv_row())
        return buf.getvalue()


def _scenario_spectrum(s: Scenario, grid: QuadratureGrid):
    """Spectrum per the scenario source; returns (spectrum, summary)."""
    summary = {"source": s.source}
    if s.source == "fd":
        form = assemble(s.problem, grid)
        opts = SolverOptions(k=s.count, method=s.method,
                             tolerance=s.tolerance)
        result = solve_lowest_detailed(form, opts)
        spectrum = result.spectrum
        summary["method"] = result.method
        summary["max_residual"] = float(result.residuals.max())
        summary["note"] = ("staircase boundary approximation"
                           if isinstance(s.problem.domain, (Disk, MaskedBox))
                           else "grid-converged values not verified in-run")
    elif s.source == "exact-rectangle":
        if not isinstance(s.problem.domain, Box) or s.problem.domain.nu != 2:
            raise ScenarioError(
                "spectrum.source: exact-rectangle needs a 2-D box domain")
        lx, ly = s.problem.domain.sides
        spectrum = rectangle_neumann_exact(lx, ly, count=s.count)
        summary["note"] = "analytic Neumann rectangle values"
    elif s.source == "exact-torus":
        if not isinstance(s.problem.domain, TorusFundamental):
            raise ScenarioError(
                "spectrum.source: exact-torus needs a torus domain")
        lattice = Lattice2(tuple(s.problem.domain.e1),
                           tuple(s.problem.domain.e2))
        cutoff = s.cutoff
        if cutoff is None:
            # enough dual points to cover `count` eigenvalues, Weyl-sized
            cutoff = 4.0 * math.pi * (s.count + 4) / lattice.covolume()
        homog = torus_spectrum(lattice, float(cutoff))
        w_mean = s.problem.mean_w(grid)
        vw_mean = s.problem.mean_veff_w(grid)
        spectrum = shifted_spectrum(homog, w_mean, vw_mean).flatten()
        summary["note"] = ("affine shift of the free torus spectrum; exact "
                           "for constant fields")
    else:  # exact-sphere
        nu = s.sphere_nu
        l_max = s.sphere_l_max
        if nu is None or l_max is None:
            raise ScenarioError(
                "spectrum: exact-sphere needs `nu` and `l_max`")
        homog = sphere_spectrum(nu, l_max)
        spectrum = homog.flatten()
        summary["note"] = "round-sphere Laplacian values"

    summary["count"] = len(spectrum)
    summary["cutoff"] = float(spectrum.cutoff)
    summary["first_values"] = [float(v) for v in spectrum.values[:12]]
    return spectrum, summary


def _evaluate_request(s: Scenario, req: BoundRequest, grid: QuadratureGrid,
                      spectrum: Spectrum, param: float):
    kind = req.kind
    H = req.options.get("H_omega")
    if kind == "kroger-avg":
        return [kroger_avg_bound(s.problem, int(param), grid, spectrum)]
    if kind == "general-sum":
        return [general_sum_bound(s.problem, int(param), grid,
                                  H_omega=H, spectrum=spectrum)]
    if kind == "riesz-lower":
        return [riesz_lower_bound(s.problem, param, grid, spectrum,
                                  H_omega=H)]
    if kind == "heat-lower":
        return [heat_lower_bound(s.problem, param, grid, spectrum,
                                 H_omega=H)]
    if kind == "individual-sk":
        return [individual_bound_sk(s.problem, int(param), spectrum, grid,
                                    H_omega=H)]
    if kind == "individual-pos":
        return list(individual_bound_pos(s.problem, int(param), spectrum,
                                         grid, H_omega=H))
    if kind == "heat-torus":
        return [heat_torus_bound(s.problem, param, grid, spectrum)]
    raise AssertionError(f"unhandled kind {kind}")


def default_jobs() -> int:
    env = os.environ.get("SPECTRAL_BOUNDS_JOBS", "")
    try:
        return max(1, int(env))
    except ValueError:
        return 1


def run_scenario(s: Scenario, jobs: Optional[int] = None) -> RunReport:
    """Compute the spectrum once and evaluate every requested bound.

    Individual bound failures become entries of `errors`; inequality
    violations surface as reports with holds=False.
    """
    jobs = default_jobs() if jobs is None else max(1, jobs)
    grid = QuadratureGrid(s.problem.domain, s.grid_n)
    spectrum, summary = _scenario_spectrum(s, grid)

    reports: List[BoundReport] = []
    errors: List[dict] = []

    # phase-space requests share one table set per option signature
    psd_cache: Dict[Tuple, object] = {}

    def psd_for(req: BoundRequest):
        key = (req.options.get("grid_n"), req.options.get("lam_max"))
        if key not in psd_cache:
            n = int(req.options.get("grid_n") or max(s.grid_n))
            lam_max = req.options.get("lam_max")
            if lam_max is None:
                lam_max = max(float(spectrum.values[-1]) * 2.0, 1.0)

            def levels(floor):
                lam_grid = np.linspace(floor, float(lam_max), 33)
                if lam_grid[0] == lam_grid[-1]:
                    lam_grid = np.linspace(floor, floor + 1.0, 33)
                return lam_grid

            psd_grid = QuadratureGrid(s.problem.domain, n)
            psd_cache[key] = phase_space_tables(s.problem, levels, psd_grid)
        return psd_cache[key]

    tasks = []
    for req in s.bounds:
        for param in req.parameters:
            tasks.append((req, param))

    def run_one(item):
        req, param = item
        try:
            if req.kind == "phase-space-sum":
                psd = psd_for(req)
                order = req.options.get("bessel_order")
                lip = req.options.get("lip_override")
                return [phase_space_sum_bound(
                    s.problem, int(param), psd, spectrum,
                    bessel_order=order, lip_override=lip)], None
            return _evaluate_request(s, req, grid, spectrum, param), None
        except Exception as exc:  # collected, run continues
            return [], {"kind": req.kind, "parameter": param,
                        "message": f"{type(exc).__name__}: {exc}"}

    if jobs > 1 and len(tasks) > 1:
        # phase-space tables are built serially first: the cache is not
        # thread-safe and the tables dominate the cost anyway
        for req in s.bounds:
            if req.kind == "phase-space-sum":
                psd_for(req)
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            outcomes = list(pool.map(run_one, tasks))
    else:
        outcomes = [run_one(t) for t in tasks]

    for found, err in outcomes:
        reports.extend(found)
        if err is not None:
            errors.append(err)

    reports.sort(key=lambda r: (r.kind, r.parameter))
    errors.sort(key=lambda e: (e["kind"], e["parameter"]))
    return RunReport(s.label, s.digest(), s.seed, summary, reports, errors)


def emit(report: RunReport, out_dir, fmt: str = "json") -> List[Path]:
    """Write the report files; bytes depend only on report content."""
    if fmt not in ("json", "csv", "both"):
        raise ValueError(f"format must be json, csv, or both, got {fmt!r}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    if fmt in ("json", "both"):
        p = out / f"{report.label}.json"
        p.write_text(report.to_json_text())
        written.append(p)
    if fmt in ("csv", "both"):
        p = out / f"{report.label}.csv"
        p.write_text(report.to_csv_text())
        written.append(p)
    return written

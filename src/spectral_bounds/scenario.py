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

_DOMAINS maps each domain type to the keys it reads and its parser: box
{sides, origin?}, disk {radius, center?}, masked_box {sides, origin?,
inside}, torus {e1, e2}.  _SOURCES maps each spectrum source to the keys
it reads, the domains it accepts and its builder: fd, exact-rectangle (a
2-D box), exact-torus (a torus), exact-sphere (nu and l_max).  An exact
source shifts the bare Laplacian values, Lambda -> w_mean Lambda +
vweff_mean, the operator's spectrum only when the fields w, V and rho
(default 1, 0, 0) are constant.  Every check runs at load, before
anything is allocated: a key that nothing reads is refused, and so is a
source on a domain or fields it does not accept, a grid of more than
_MAX_NODES nodes, a spectrum of more than _MAX_NODES values (count, or
exact-sphere through l_max) and an fd count x grid nodes above
_MAX_VECTOR_ENTRIES.  A grid resolution (grid.n, a phase-space grid_n)
must be an integer, and so must every k, in [1, _MAX_NODES]: none is
truncated or left to overflow.  Every number must be finite, and the
label, which names the output files, a plain file name.

Each bound entry names a kind, the list of values of its parameter key,
and the numeric options that kind reads; any other key is rejected.  The
table _KINDS holds all three per kind:

    kroger-avg       k
    general-sum      k   H_omega
    riesz-lower      z   H_omega
    heat-lower       t   H_omega
    individual-sk    k   H_omega
    individual-pos   k   H_omega
    heat-torus       t
    phase-space-sum  k   grid_n

A run builds, in build_spectrum, one BoundContext on the run grid
(|Omega|, w_mean, vweff_mean; it checks w > 0 at every inside node; an
fd run takes |Omega| from the cells it solves on) and the spectrum, then
evaluates every requested bound through the table; the sorted
phase-space nodes are built once per grid_n.  Reports are sorted by
(kind, parameter), and the JSON/CSV bytes depend only on scenario
content, seed, and package version (wall time goes to stderr, never into
the files).
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from . import __version__
from .bounds import (BoundContext, bound_context, general_sum_bound,
                     heat_lower_bound, individual_bound_pos,
                     individual_bound_sk, kroger_avg_bound, riesz_lower_bound)
from .domains import Box, Disk, MaskedBox, QuadratureGrid, TorusFundamental
from .expressions import FieldSyntaxError, is_constant
from .homog import heat_torus_bound
from .phasespace import (PhaseSpaceData, phase_space_sum_bound,
                         phase_space_tables)
from .problem import ProblemSpec
from .report import BoundReport, inputs_digest
from .spectra import (Spectrum, rectangle_neumann_exact, shifted_spectrum,
                      sphere_spectrum, torus_spectrum)
from .fdsolver import assemble, solve_lowest_detailed

__all__ = ["Scenario", "BoundRequest", "RunReport", "ScenarioError",
           "load_scenario", "scenario_from_dict", "build_spectrum",
           "run_scenario", "emit"]

_FIELDS = ("w", "rho", "V")
_REQUIRED = object()   # default of a field that must be present
_TOP_KEYS = ("label", "domain", "fields", "grid", "spectrum", "bounds",
             "seed")
# most quadrature nodes one grid may have (grid.n or a phase-space
# grid_n), and most eigenvalues one spectrum may hold (count, or the
# exact-sphere values through l_max), checked before anything is
# allocated: 2^21 holds a 1024^2 or a 128^3 grid and refuses the 64^4
# default of a 4-D box
_MAX_NODES = 2 ** 21
# most eigenvector entries (count x grid nodes) an fd solve may hold:
# 2^26 doubles, 512 MiB, hold every pair of a grid at the dense cap
_MAX_VECTOR_ENTRIES = 2 ** 26


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
    bounds: Tuple[BoundRequest, ...]
    seed: int
    raw: dict = field(repr=False, default_factory=dict)

    def digest(self) -> str:
        return inputs_digest("scenario", json.dumps(self.raw, sort_keys=True))


def _expect(mapping: dict, key: str, types, path: str, default=_REQUIRED):
    if key not in mapping:
        if default is _REQUIRED:
            raise ScenarioError(f"{path}.{key}: missing required field")
        return default
    value = mapping[key]
    # bool is an int subclass, and no field reads a JSON true or false
    if types is not None and (not isinstance(value, types) or
                              isinstance(value, bool)):
        raise ScenarioError(
            f"{path}.{key}: expected {types}, got {type(value).__name__}")
    return value


def _known(mapping: dict, keys, path: str, reader: str):
    """Reject every key of mapping that is not among the keys reader reads."""
    for name in mapping:
        if name not in keys:
            raise ScenarioError(f"{path}.{name}: {reader} reads no such key "
                                f"(it reads {', '.join(keys)})")


def _check_size(size: int, limit: int, path: str, what: str):
    if size > limit:
        # a product of grid resolutions may pass the float range
        shown = size if size <= sys.float_info.max else math.inf
        raise ScenarioError(f"{path}: {shown:g} {what} exceed the limit of "
                            f"{limit}")


def _check_nodes(counts, path: str):
    _check_size(math.prod(abs(n) for n in counts), _MAX_NODES, path,
                "grid nodes")


def _check_sphere_size(nu: int, l_max: int):
    """Refuse an exact-sphere spectrum that is not defined or has more
    than _MAX_NODES values.  S^nu has C(l_max + nu, nu) + C(l_max + nu -
    1, nu) of them through degree l_max; C(top, i) >= 2^i for i <= top/2,
    so each product below passes the limit within 22 steps however large
    nu and l_max are."""
    for key, value, least in (("nu", nu, 2), ("l_max", l_max, 0)):
        if value < least:
            raise ScenarioError(
                f"spectrum.{key}: must be >= {least}, got {value}")
    total = 0
    for top in range(max(nu, l_max + nu - 1), l_max + nu + 1):
        binom = 1
        for i in range(1, min(nu, top - nu) + 1):
            binom = binom * (top - i + 1) // i
            if total + binom > _MAX_NODES:
                raise ScenarioError(
                    f"spectrum.l_max: more than {_MAX_NODES} eigenvalues "
                    f"on S^{nu} through degree {l_max}")
        total += binom


def _is_number(value) -> bool:
    """A finite int or float, not a bool, as the file parse hooks demand."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) \
        and abs(value) <= sys.float_info.max


def _number(mapping: dict, key: str, path: str, default=_REQUIRED):
    value = _expect(mapping, key, None, path, default)
    if key in mapping and not _is_number(value):
        raise ScenarioError(f"{path}.{key}: expected a number, got {value!r}")
    return value


def _vector(mapping: dict, key: str, path: str, length=None,
            default=_REQUIRED):
    if key not in mapping and default is not _REQUIRED:
        return default
    value = _expect(mapping, key, list, path)
    if not all(_is_number(v) for v in value):
        raise ScenarioError(f"{path}.{key}: expected a list of finite numbers")
    if length is not None and len(value) != length:
        raise ScenarioError(f"{path}.{key}: expected {length} entries")
    return [float(v) for v in value]


def _box(data: dict, path: str) -> Box:
    sides = _vector(data, "sides", path)
    origin = _vector(data, "origin", path, length=len(sides), default=None)
    return Box(tuple(sides), None if origin is None else tuple(origin))


def _masked_box(data: dict, path: str) -> MaskedBox:
    box = _box(data, path)
    from .expressions import parse_field
    try:
        return MaskedBox(box, parse_field(_expect(data, "inside", str, path),
                                          box.nu))
    except FieldSyntaxError as exc:
        raise ScenarioError(f"{path}.inside: {exc}") from exc


# domain type -> (the keys it reads, parser (data, path) -> domain)
_DOMAINS = {
    "box": (("type", "sides", "origin"), _box),
    "disk": (("type", "radius", "center"), lambda d, p: Disk(
        float(_number(d, "radius", p)),
        tuple(_vector(d, "center", p, length=2, default=[0.0, 0.0])))),
    "masked_box": (("type", "sides", "origin", "inside"), _masked_box),
    "torus": (("type", "e1", "e2"), lambda d, p: TorusFundamental(
        tuple(_vector(d, "e1", p, length=2)),
        tuple(_vector(d, "e2", p, length=2)))),
}


def _parse_domain(data: dict, path: str):
    kind = _expect(data, "type", str, path)
    if kind not in _DOMAINS:
        raise ScenarioError(f"{path}.type: unknown domain type {kind!r}")
    keys, parse = _DOMAINS[kind]
    _known(data, keys, path, kind)
    return parse(data, path)


def load_scenario(path) -> Scenario:
    """Read and validate a scenario file; errors name the offending field
    by its JSON path."""
    path = Path(path)

    def finite(text, parse=float):
        # float() reads a literal of any length, so int() meets only the
        # at most 309 digits of one in range
        value = parse(text) if math.isfinite(float(text)) else math.inf
        if not abs(value) <= sys.float_info.max:
            raise ScenarioError(f"{path}: number {text} is not finite")
        return value

    try:
        data = json.loads(path.read_text(), parse_float=finite,
                          parse_int=lambda text: finite(text, int),
                          parse_constant=finite)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path}: invalid JSON: {exc}") from exc
    return scenario_from_dict(data, label=path.stem)


def scenario_from_dict(data: dict, label: str = "scenario") -> Scenario:
    """Validate a parsed scenario document; `label` names it when the
    document has no label of its own."""
    if not isinstance(data, dict):
        raise ScenarioError("$: document must be an object")
    _known(data, _TOP_KEYS, "$", "a scenario")
    label = _expect(data, "label", str, "$", default=label)
    if label in ("", ".", "..") or "/" in label or "\\" in label:
        raise ScenarioError(f"$.label: {label!r} is not a plain file name")
    domain_doc = _expect(data, "domain", dict, "$")
    domain = _parse_domain(domain_doc, "domain")

    fields = _expect(data, "fields", dict, "$", default={})
    for name in fields:
        if name not in _FIELDS:
            raise ScenarioError(
                f"fields.{name}: unknown field (expected w, rho or V)")
    try:
        problem = ProblemSpec(domain, **{
            name: _expect(fields, name, str, "fields", default=None)
            for name in _FIELDS})
    except FieldSyntaxError as exc:
        raise ScenarioError(f"fields: {exc}") from exc

    grid = _expect(data, "grid", dict, "$", default={"n": 64})
    _known(grid, ("n",), "grid", "grid")
    n_raw = grid.get("n", 64)
    if isinstance(n_raw, int) and not isinstance(n_raw, bool):
        grid_n = (n_raw,) * domain.nu
    elif isinstance(n_raw, list):
        values = _vector(grid, "n", "grid", length=domain.nu)
        if not all(v.is_integer() for v in values):
            raise ScenarioError(f"grid.n: expected integers, got {n_raw}")
        grid_n = tuple(int(v) for v in values)
    else:
        raise ScenarioError("grid.n: expected an integer or list")
    if any(n < 2 for n in grid_n):
        raise ScenarioError(f"grid.n: resolutions must be >= 2, got {grid_n}")
    _check_nodes(grid_n, "grid.n")

    spec = _expect(data, "spectrum", dict, "$", default={"source": "fd"})
    source = _expect(spec, "source", str, "spectrum", default="fd")
    if source not in _SOURCES:
        raise ScenarioError(f"spectrum.source: unknown source {source!r}")
    keys, domains, exact, _ = _SOURCES[source]
    _known(spec, keys, "spectrum", source)
    count = _expect(spec, "count", int, "spectrum", default=16)
    if count < 1:
        raise ScenarioError("spectrum.count: must be >= 1")
    _check_size(count, _MAX_NODES, "spectrum.count", "eigenvalues")
    if not exact:
        _check_size(count * math.prod(grid_n), _MAX_VECTOR_ENTRIES,
                    "spectrum.count", "eigenvector entries (count x grid "
                    "nodes)")
    cutoff = _number(spec, "cutoff", "spectrum", default=None)
    absent = _REQUIRED if "nu" in keys else None   # exact-sphere needs both
    sphere_nu = _expect(spec, "nu", int, "spectrum", default=absent)
    sphere_l_max = _expect(spec, "l_max", int, "spectrum", default=absent)
    if sphere_nu is not None and sphere_l_max is not None:
        _check_sphere_size(sphere_nu, sphere_l_max)
    method = _expect(spec, "method", str, "spectrum", default=None)
    if method not in (None, "dense", "iterative"):
        raise ScenarioError(
            "spectrum.method: expected 'dense' or 'iterative'")
    if domains is not None and \
            (domain_doc["type"], domain.nu) not in domains:
        accepted = " or ".join(f"{nu}-D {kind}" for kind, nu in domains)
        raise ScenarioError(
            f"spectrum.source: {source} needs a {accepted} domain")
    # the shift of an exact source is the operator's spectrum only for
    # constant fields: a linear rho changes the Neumann condition too
    for name in _FIELDS:
        if exact and not is_constant(getattr(problem, name)):
            raise ScenarioError(
                f"fields.{name}: {source} holds only for constant fields, "
                f"got {name} = '{getattr(problem, name)}'")

    bounds: List[BoundRequest] = []
    for i, entry in enumerate(_expect(data, "bounds", list, "$", default=[])):
        bpath = f"bounds[{i}]"
        if not isinstance(entry, dict):
            raise ScenarioError(f"{bpath}: expected an object")
        kind = _expect(entry, "kind", str, bpath)
        if kind not in _KINDS:
            raise ScenarioError(f"{bpath}.kind: unknown bound kind {kind!r}")
        key, option_keys, _ = _KINDS[kind]
        _known(entry, ("kind", key) + option_keys, bpath, kind)
        params = _vector(entry, key, bpath)
        if not params:
            raise ScenarioError(f"{bpath}.{key}: parameter list is empty")
        if key == "k":
            for p in params:
                if not (p.is_integer() and 1 <= p <= _MAX_NODES):
                    raise ScenarioError(f"{bpath}.k: expected integers in "
                                        f"[1, {_MAX_NODES}], got {p:g}")
        options = {name: float(_number(entry, name, bpath))
                   for name in option_keys if name in entry}
        if "grid_n" in options:
            n = options["grid_n"]
            if not (n.is_integer() and n >= 2):
                raise ScenarioError(
                    f"{bpath}.grid_n: expected an integer >= 2, got {n:g}")
            _check_nodes([n] * domain.nu, f"{bpath}.grid_n")
        if key == "k" and not exact:
            needed = max(int(p) for p in params)
            if kind.startswith("individual"):
                needed += 1     # these read mu_k itself
            if needed > count:
                raise ScenarioError(
                    f"{bpath}.{key}: needs {needed} eigenvalues but "
                    f"spectrum.count is {count}")
        bounds.append(BoundRequest(kind, tuple(params), options))

    seed = _expect(data, "seed", int, "$", default=0)
    return Scenario(label, problem, grid_n, source, count, cutoff,
                    sphere_nu, sphere_l_max, method, tuple(bounds),
                    int(seed), raw=data)


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


def _shift_note(ctx: BoundContext) -> str:
    """Note on the affine shift of an exact spectrum; empty when the shift
    is the identity (w_mean = 1, vweff_mean = 0)."""
    if (ctx.w_mean, ctx.vw_mean) == (1.0, 0.0):
        return ""
    return "; affine shift by (w_mean, vweff_mean), exact for constant fields"


def _build_fd(s: Scenario, grid: QuadratureGrid, ctx: BoundContext):
    result = solve_lowest_detailed(assemble(s.problem, grid), s.count,
                                   s.method)
    staircase = isinstance(s.problem.domain, (Disk, MaskedBox))
    return result.spectrum, {
        "method": result.method,
        "max_residual": float(result.residuals.max()),
        "note": "staircase boundary approximation" if staircase
        else "grid-converged values not verified in-run"}


def _build_rectangle(s: Scenario, grid: QuadratureGrid, ctx: BoundContext):
    lx, ly = s.problem.domain.sides
    return rectangle_neumann_exact(lx, ly, count=s.count), {
        "note": "analytic Neumann rectangle values" + _shift_note(ctx)}


def _build_torus(s: Scenario, grid: QuadratureGrid, ctx: BoundContext):
    torus = s.problem.domain
    cutoff = s.cutoff
    if cutoff is None:
        # enough dual points to cover `count` eigenvalues, Weyl-sized
        cutoff = 4.0 * math.pi * (s.count + 4) / torus.covolume()
    return torus_spectrum(torus, float(cutoff)), {
        "note": "affine shift of the free torus spectrum; exact for "
                "constant fields"}


def _build_sphere(s: Scenario, grid: QuadratureGrid, ctx: BoundContext):
    return sphere_spectrum(s.sphere_nu, s.sphere_l_max), {
        "note": "round-sphere Laplacian values" + _shift_note(ctx)}


# source -> (spectrum keys it reads, (domain type, nu) pairs it accepts or
# None for any, exact: Laplacian values that build_spectrum shifts to
# w_mean Lambda + vweff_mean rather than a solve on the grid, builder
# (scenario, grid, ctx) -> (spectrum, summary entries)).  A builder looks
# each solver and enumerator up by its module-global name when it is
# called, as the _KINDS lambdas do.
_SOURCES = {
    "fd": (("source", "count", "method"), None, False, _build_fd),
    "exact-rectangle": (("source", "count"), (("box", 2),), True,
                        _build_rectangle),
    "exact-torus": (("source", "count", "cutoff"), (("torus", 2),), True,
                    _build_torus),
    "exact-sphere": (("source", "nu", "l_max"), None, True, _build_sphere),
}


def build_spectrum(s: Scenario):
    """(bound context on the run grid, spectrum per the scenario source,
    the summary `run` reports); `spectrum` prints the same."""
    _, _, exact, build = _SOURCES[s.source]
    grid = QuadratureGrid(s.problem.domain, s.grid_n)
    ctx = bound_context(s.problem, grid, solved=not exact)
    spectrum, summary = build(s, grid, ctx)
    if exact:
        spectrum = shifted_spectrum(spectrum, ctx.w_mean, ctx.vw_mean)
    return ctx, spectrum, {
        "source": s.source, **summary, "count": len(spectrum),
        "cutoff": float(spectrum.cutoff),
        "first_values": [float(v) for v in spectrum.values[:12]]}


@dataclass
class _Run:
    """What an evaluator reads: the scenario, its bound context and
    spectrum, and the phase-space tables built so far."""

    scenario: Scenario
    ctx: BoundContext
    spectrum: Spectrum
    _tables: Dict[int, PhaseSpaceData] = field(default_factory=dict)

    def tables(self, grid_n: Optional[float]) -> PhaseSpaceData:
        """Phase-space tables on grid_n nodes per axis (default: the run
        grid's finest axis), built once per resolution."""
        n = int(grid_n or max(self.scenario.grid_n))
        if n not in self._tables:
            problem = self.scenario.problem
            self._tables[n] = phase_space_tables(
                problem, QuadratureGrid(problem.domain, n))
        return self._tables[n]


# kind -> (parameter key, option keys it reads, evaluator).  An evaluator
# maps (run, parameter, options) to a list of reports.  The lambdas look
# each bound function up by its module-global name when they are called,
# so a function replaced on this module after import is the one that runs.
_KINDS = {
    "kroger-avg": ("k", (), lambda r, k, o: [
        kroger_avg_bound(r.ctx, int(k), r.spectrum)]),
    "general-sum": ("k", ("H_omega",), lambda r, k, o: [
        general_sum_bound(r.ctx, int(k), r.spectrum, o.get("H_omega"))]),
    "riesz-lower": ("z", ("H_omega",), lambda r, z, o: [
        riesz_lower_bound(r.ctx, z, r.spectrum, o.get("H_omega"))]),
    "heat-lower": ("t", ("H_omega",), lambda r, t, o: [
        heat_lower_bound(r.ctx, t, r.spectrum, o.get("H_omega"))]),
    "individual-sk": ("k", ("H_omega",), lambda r, k, o: [
        individual_bound_sk(r.ctx, int(k), r.spectrum, o.get("H_omega"))]),
    "individual-pos": ("k", ("H_omega",), lambda r, k, o: list(
        individual_bound_pos(r.ctx, int(k), r.spectrum, o.get("H_omega")))),
    "heat-torus": ("t", (), lambda r, t, o: [
        heat_torus_bound(r.ctx, t, r.spectrum)]),
    "phase-space-sum": ("k", ("grid_n",), lambda r, k, o: [
        phase_space_sum_bound(int(k), r.tables(o.get("grid_n")),
                              r.spectrum)]),
}


def run_scenario(s: Scenario) -> RunReport:
    """Build the bound context, compute the spectrum once and evaluate
    every requested bound.

    Individual bound failures become entries of `errors`; inequality
    violations surface as reports with holds=False.
    """
    ctx, spectrum, summary = build_spectrum(s)
    run = _Run(s, ctx, spectrum)

    reports: List[BoundReport] = []
    errors: List[dict] = []
    for req in s.bounds:
        evaluate = _KINDS[req.kind][2]
        for param in req.parameters:
            try:
                reports.extend(evaluate(run, param, req.options))
            except Exception as exc:  # collected, run continues
                errors.append({"kind": req.kind, "parameter": param,
                               "message": f"{type(exc).__name__}: {exc}"})

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

"""Outside-in spans for the traced run.

The package is not instrumented.  Instead, `install` replaces each public
function with a timing wrapper under the name its consuming module looks
it up by: ``scenario.py`` does ``from .fdsolver import assemble``, so the
wrapper goes on ``spectral_bounds.scenario.assemble``.  Spans are kept in
memory (name, start, end, parent, workload, scenario, stats) and written
out as JSON lines when the run ends.  A layer's self time is its spans'
duration minus the part their child spans cover.

This module imports nothing heavy, so that timing ``import
spectral_bounds`` after importing it still measures numpy and scipy.
"""

from __future__ import annotations

import functools
import importlib
import json
from collections import Counter
from contextlib import contextmanager
from time import perf_counter
from typing import Dict, List

LAYERS = ("cli", "scenario", "expressions", "domains", "fdsolver", "spectra",
          "bounds", "phasespace", "report")


class WiringError(RuntimeError):
    """A wrapped name is gone, or an expected span never fired."""


class Recorder:
    def __init__(self, workload: str):
        self.workload = workload
        self.scenario = ""
        self.spans: List[dict] = []
        self.counts: Counter = Counter()
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str):
        rec = {"name": name, "start": perf_counter(), "end": None,
               "parent": self._stack[-1] if self._stack else None,
               "workload": self.workload, "scenario": self.scenario,
               "stats": {}}
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = perf_counter()
            self._stack.pop()

    def add(self, name: str, start: float, end: float) -> None:
        """Record a span measured before the recorder existed."""
        self.spans.append({"name": name, "start": start, "end": end,
                           "parent": None, "workload": self.workload,
                           "scenario": self.scenario, "stats": {}})

    def dump(self, path) -> None:
        with open(path, "a") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")
            fh.write(json.dumps({"counts": dict(self.counts)}) + "\n")


# ---------------------------------------------------------------------------
# stats taken from each wrapped call's arguments and result

def _points(args, result):
    import numpy as np
    coords = [np.asarray(c) for c in args[1]]
    return {"points": int(np.broadcast(*coords).size) if coords else 1}


def _form(args, form):
    return {"dof": int(form.dof_count), "nnz": int(form.stiffness.nnz)}


def _solve(args, res):
    dof = int(res.vectors.shape[0])
    return {"method": res.method, "dof": dof,
            "residual_max": float(res.residuals.max())}


def _exact(args, spectrum):
    n = spectrum.count() if hasattr(spectrum, "count") else len(spectrum)
    return {"values": int(n)}


def _reports(args, result):
    return {"reports": len(result) if isinstance(result, tuple) else 1}


def _run(args, report):
    return {"reports": len(report.reports), "errors": len(report.errors)}


def _emit(args, paths):
    return {"bytes": sum(p.stat().st_size for p in paths)}


_BOUND_FUNCS = ("kroger_avg_bound", "general_sum_bound", "riesz_lower_bound",
                "heat_lower_bound", "individual_bound_sk",
                "individual_bound_pos", "heat_torus_bound")

# (module, attribute path as the consumer looks it up, span name, stats)
WRAPPERS = [
    ("spectral_bounds.cli", "load_scenario", "scenario.load", None),
    ("spectral_bounds.cli", "run_scenario", "scenario.run", _run),
    ("spectral_bounds.cli", "emit", "report.emit", _emit),
    ("spectral_bounds.problem", "parse_field", "expressions.parse", None),
    ("spectral_bounds.expressions", "parse_field", "expressions.parse", None),
    ("spectral_bounds.expressions", "ScalarFieldExpr.evaluate",
     "expressions.eval", _points),
    ("spectral_bounds.domains", "QuadratureGrid.__init__", "domains.grid",
     None),
    ("spectral_bounds.problem", "mean_value", "domains.mean", None),
    ("spectral_bounds.bounds", "domain_volume", "domains.mean", None),
    ("spectral_bounds.scenario", "assemble", "fdsolver.assemble", _form),
    ("spectral_bounds.scenario", "solve_lowest_detailed", "fdsolver.eig",
     _solve),
    ("spectral_bounds.scenario", "rectangle_neumann_exact", "spectra.exact",
     _exact),
    ("spectral_bounds.scenario", "torus_spectrum", "spectra.exact", _exact),
    ("spectral_bounds.scenario", "sphere_spectrum", "spectra.exact", _exact),
    *[("spectral_bounds.scenario", f, "bounds.eval", _reports)
      for f in _BOUND_FUNCS],
    ("spectral_bounds.scenario", "phase_space_tables", "phasespace.tables",
     None),
    ("spectral_bounds.scenario", "phase_space_sum_bound",
     "phasespace.sum_bound", None),
]

# node sweeps are counted, not spanned: there are hundreds per bound
SWEEPS = [("spectral_bounds.phasespace", f"PhaseSpaceData.{m}")
          for m in ("phi1_at", "phiw_at", "ew_at", "lip_at")]

# spans each workload must show; a renamed or bypassed wrapper reads as zero
_COMMON = {"cli.import", "cli.main", "scenario.load", "scenario.run",
           "report.emit", "expressions.parse", "expressions.eval",
           "domains.grid", "fdsolver.assemble", "fdsolver.eig"}
EXPECTED = {
    "fd-2d": _COMMON | {"domains.mean", "bounds.eval"},
    "fd-3d": _COMMON | {"domains.mean", "bounds.eval"},
    "phase-space": _COMMON | {"phasespace.tables", "phasespace.sum_bound",
                              "phasespace.node_sweeps"},
    "cli-batch": _COMMON | {"domains.mean", "bounds.eval", "spectra.exact",
                            "phasespace.tables", "phasespace.sum_bound",
                            "phasespace.node_sweeps"},
}


def _resolve(module: str, path: str):
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    try:
        for p in parents:
            owner = getattr(owner, p)
        return owner, attr, getattr(owner, attr)
    except AttributeError as exc:
        raise WiringError(f"cannot wrap {module}.{path}: {exc}") from exc


def _spanned(rec: Recorder, original, name, stats):
    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        with rec.span(name) as sp:
            result = original(*args, **kwargs)
            if stats is not None:
                sp["stats"] = stats(args, result)
        return result
    return wrapper


def _counted(rec: Recorder, original):
    @functools.wraps(original)
    def wrapper(self, lam):
        rec.counts["phasespace.node_sweeps"] += 1
        rec.counts["phasespace.nodes_swept"] += int(self.vt_nodes.size)
        return original(self, lam)
    return wrapper


def install(rec: Recorder) -> None:
    for module, path, name, stats in WRAPPERS:
        owner, attr, original = _resolve(module, path)
        setattr(owner, attr, _spanned(rec, original, name, stats))
    for module, path in SWEEPS:
        owner, attr, original = _resolve(module, path)
        setattr(owner, attr, _counted(rec, original))


# ---------------------------------------------------------------------------
# reading spans back

def load(path) -> tuple:
    """Spans and counts from a file that one or more processes appended to."""
    spans: List[dict] = []
    counts: Counter = Counter()
    offset = 0
    with open(path) as fh:
        for line in fh:
            item = json.loads(line)
            if "counts" in item:       # ends one process's dump
                counts.update(item["counts"])
                offset = len(spans)
                continue
            if item["parent"] is not None:
                item["parent"] += offset
            spans.append(item)
    return spans, counts


def check_wiring(workload: str, spans: List[dict], counts: Counter) -> None:
    seen = {s["name"] for s in spans} | {k for k, v in counts.items() if v}
    missing = sorted(EXPECTED[workload] - seen)
    if missing:
        raise WiringError(f"{workload}: expected spans never fired: "
                          f"{', '.join(missing)}")


def self_times(spans: List[dict]) -> Dict[str, float]:
    """Self time per layer: span duration minus its children's."""
    child = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += s["end"] - s["start"]
    out = dict.fromkeys(LAYERS, 0.0)
    for s, c in zip(spans, child):
        out[s["name"].split(".")[0]] += s["end"] - s["start"] - c
    return out


def layer_metrics(spans: List[dict], counts: Counter) -> Dict[str, tuple]:
    """Per-layer metrics as name -> (value, unit)."""
    def spans_of(name, method=None):
        return [s for s in spans if s["name"] == name and
                (method is None or s["stats"].get("method") == method)]

    def secs(name, method=None):
        return sum(s["end"] - s["start"] for s in spans_of(name, method))

    def calls(name, method=None):
        return len(spans_of(name, method))

    def stat(name, key, fold=sum):
        return fold([s["stats"].get(key, 0) for s in spans_of(name)] or [0])

    dense = spans_of("fdsolver.eig", "dense")
    m = {
        "cli.import_s": (secs("cli.import"), "s"),
        "scenario.load_s": (secs("scenario.load"), "s"),
        "expressions.parse_s": (secs("expressions.parse"), "s"),
        "expressions.parse_calls": (calls("expressions.parse"), "count"),
        "expressions.eval_s": (secs("expressions.eval"), "s"),
        "expressions.eval_calls": (calls("expressions.eval"), "count"),
        "expressions.eval_points": (stat("expressions.eval", "points"),
                                    "count"),
        "domains.grid_s": (secs("domains.grid"), "s"),
        "domains.mean_s": (secs("domains.mean"), "s"),
        "domains.mean_calls": (calls("domains.mean"), "count"),
        "fdsolver.assemble_s": (secs("fdsolver.assemble"), "s"),
        "fdsolver.dof": (stat("fdsolver.assemble", "dof"), "count"),
        "fdsolver.nnz": (stat("fdsolver.assemble", "nnz"), "count"),
        "fdsolver.eig_dense_s": (secs("fdsolver.eig", "dense"), "s"),
        "fdsolver.eig_dense_calls": (len(dense), "count"),
        "fdsolver.dense_bytes": (sum(8 * s["stats"]["dof"] ** 2
                                     for s in dense), "bytes"),
        "fdsolver.eig_iterative_s": (secs("fdsolver.eig", "iterative"), "s"),
        "fdsolver.eig_iterative_calls": (calls("fdsolver.eig", "iterative"),
                                         "count"),
        "fdsolver.residual_max": (stat("fdsolver.eig", "residual_max", max),
                                  "residual"),
        "spectra.exact_s": (secs("spectra.exact"), "s"),
        "spectra.exact_values": (stat("spectra.exact", "values"), "count"),
        "bounds.eval_s": (secs("bounds.eval"), "s"),
        "bounds.reports": (stat("scenario.run", "reports"), "count"),
        "bounds.errors": (stat("scenario.run", "errors"), "count"),
        "scenario.emit_s": (secs("report.emit"), "s"),
        "scenario.emit_bytes": (stat("report.emit", "bytes"), "bytes"),
        "phasespace.tables_s": (secs("phasespace.tables"), "s"),
        "phasespace.sum_bound_s": (secs("phasespace.sum_bound"), "s"),
        "phasespace.node_sweeps": (counts["phasespace.node_sweeps"], "count"),
        "phasespace.nodes_swept": (counts["phasespace.nodes_swept"], "count"),
    }
    for layer, value in self_times(spans).items():
        m[f"{layer}.self_s"] = (value, "s")
    return m

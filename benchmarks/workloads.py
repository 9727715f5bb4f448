"""Seeded scenario generation and reference spectra for the four workloads.

A workload is a list of cases.  Each case is one scenario file the program
runs, plus what the oracle expects of that run: the first eigenvalues and
their relative tolerance, or the exit status of a malformed scenario.

The seed varies field coefficients and parameter lists (worker.py also
shuffles each pass from it).  Grid sizes and dof never depend on it, and
the ranges keep shift-invert iteration counts level, so neither does the
cost.
Field coefficients come from a short table of variants per scenario, so
every weighted or masked fd spectrum has a reference recorded at the seed
commit (``references.json``, written by ``record_references.py``).  For
shift-invert scenarios the variants stay close together, because the
iteration count follows the spectrum's scale.
Constant-coefficient boxes and tori are checked against the closed-form
cell-centred dispersion relation, exact sources against exact enumeration;
both are re-implemented here, independent of the package.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional

import numpy as np

HERE = Path(__file__).resolve().parent
REFERENCES = HERE / "references.json"
BUNDLED = Path("src") / "spectral_bounds" / "scenarios"

WORKLOADS = ("fd-2d", "fd-3d", "phase-space", "cli-batch")
VARIANTS = 4
CHECKED_VALUES = 12          # the emitted JSON carries the first 12 values
FD_RTOL = 1e-8               # the solver's default residual tolerance
EXACT_RTOL = 1e-12


@dataclass
class Case:
    label: str
    path: Path
    reference: Optional[List[float]]     # None: the run must not emit
    rtol: float = FD_RTOL
    expect_status: Optional[int] = None  # set only for malformed inputs

    def to_json(self) -> dict:
        return {"label": self.label, "path": str(self.path),
                "reference": self.reference, "rtol": self.rtol,
                "expect_status": self.expect_status}


# ---------------------------------------------------------------------------
# independent oracles

def neumann_axis(n: int, h: float) -> np.ndarray:
    """Cell-centred 1-D Neumann stencil: (4/h^2) sin^2(pi m / 2n)."""
    return 4.0 / h ** 2 * np.sin(np.pi * np.arange(n) / (2 * n)) ** 2


def periodic_axis(n: int, h: float) -> np.ndarray:
    """Cell-centred 1-D periodic stencil: (4/h^2) sin^2(pi m / n)."""
    return 4.0 / h ** 2 * np.sin(np.pi * np.arange(n) / n) ** 2


def tensor_lowest(axes: List[np.ndarray], count: int) -> List[float]:
    """Lowest `count` sums of one value per axis."""
    total = np.zeros(1)
    for a in axes:
        a = np.sort(a)[:count]
        total = np.sort(np.add.outer(total, a).ravel())[:count]
    return [float(v) for v in total]


def rectangle_exact(lx: float, ly: float, count: int) -> List[float]:
    m = np.arange(count + 1)
    vals = np.add.outer((np.pi * m / lx) ** 2, (np.pi * m / ly) ** 2)
    return [float(v) for v in np.sort(vals.ravel())[:count]]


def torus_exact(e1, e2, scale: float, count: int) -> List[float]:
    """scale * 4 pi^2 |xi|^2 over the dual lattice, lowest `count`."""
    dual = np.linalg.inv(np.array([e1, e2], dtype=float)).T
    r = np.arange(-24, 25)
    m, n = np.meshgrid(r, r, indexing="ij")
    xi = m.ravel()[:, None] * dual[0] + n.ravel()[:, None] * dual[1]
    vals = scale * 4.0 * np.pi ** 2 * (xi ** 2).sum(axis=1)
    return [float(v) for v in np.sort(vals)[:count]]


def sphere_exact(nu: int, count: int) -> List[float]:
    vals: List[float] = []
    l = 0
    while len(vals) < count:
        mult = math.comb(l + nu, nu)
        if l >= 2:
            mult -= math.comb(l + nu - 2, nu)
        vals.extend([float(l * (l + nu - 1))] * mult)
        l += 1
    return vals[:count]


# ---------------------------------------------------------------------------
# scenarios whose spectra are recorded per variant

def _box(sides, origin=None) -> dict:
    d = {"type": "box", "sides": list(sides)}
    if origin is not None:
        d["origin"] = list(origin)
    return d


def _fd(label, domain, n, count, fields, method=None) -> dict:
    spectrum = {"source": "fd", "count": count}
    if method is not None:
        spectrum["method"] = method
    return {"label": label, "domain": domain, "fields": fields,
            "grid": {"n": n}, "spectrum": spectrum, "bounds": [], "seed": 0}


# name -> variant index -> scenario without bounds
RECORDED: Dict[str, Callable[[int], dict]] = {
    "fd2-weighted-40": lambda v: _fd(
        "fd2-weighted-40", _box([1.0, 1.0]), 40, 20,
        {"w": f"1 + {(0.25, 0.5, 1.0, 2.0)[v]}*x"}),
    "fd2-disk-44": lambda v: _fd(
        "fd2-disk-44",
        {"type": "disk", "radius": (0.5, 0.8, 1.0, 1.5)[v],
         "center": [0.1 * v, -0.2]}, 44, 20, {}),
    "fd2-weighted-160": lambda v: _fd(
        "fd2-weighted-160", _box([1.0, 1.0]), 160, 16,
        {"w": f"1 + {(0.9, 1.0, 1.1, 1.2)[v]}*x*y",
         "V": f"{(2.0, 2.2, 2.4, 2.6)[v]}*y"}),
    "fd2-lshape-160": lambda v: _fd(
        "fd2-lshape-160",
        {"type": "masked_box", "sides": [1.0, 1.0],
         "inside": "min(x - 0.5, y - 0.5)"}, 160, 16,
        {"w": f"1 + {(0.4, 0.45, 0.5, 0.55)[v]}*y"}),
    "fd3-aniso": lambda v: _fd(
        "fd3-aniso", _box([1.0, 1.0, 2.0]), [16, 16, 32], 10,
        {"w": f"1 + {(0.4, 0.45, 0.5, 0.55)[v]}*x", "rho": "0.2*z"}),
    "ps-osc-2d": lambda v: _fd(
        "ps-osc-2d", _box([8.0, 8.0], [-4.0, -4.0]), 64, 40,
        {"V": f"{(0.9, 1.0, 1.1, 1.2)[v]}*(x^2 + y^2)"}, "iterative"),
    "ps-osc-3d": lambda v: _fd(
        "ps-osc-3d", _box([6.0, 6.0, 6.0], [-3.0, -3.0, -3.0]), 16, 10,
        {"V": f"{(0.9, 1.0, 1.1, 1.2)[v]}*(x^2 + y^2 + z^2)"},
        "iterative"),
    "cb-weighted-fd24": lambda v: _fd(
        "cb-weighted-fd24", _box([1.0, 1.0]), 24, 20,
        {"w": f"1 + {(0.25, 0.5, 1.0, 2.0)[v]}*x*y"}),
    "cb-disk-32": lambda v: _fd(
        "cb-disk-32",
        {"type": "disk", "radius": (0.5, 0.8, 1.0, 1.5)[v]}, 32, 12, {}),
    "cb-phase-256": lambda v: _fd(
        "cb-phase-256", _box([4.0, 4.0], [-2.0, -2.0]), 24, 12,
        {"V": f"{(0.5, 1.0, 1.5, 2.0)[v]}*(x^2 + y^2)"}),
}


def load_references() -> Dict[str, List[float]]:
    return json.loads(REFERENCES.read_text())


# ---------------------------------------------------------------------------
# seeded parameter lists

def _ks(rng, count, m, reserve=0) -> List[int]:
    return sorted(rng.sample(range(1, count - reserve), m))


def _zs(rng, spec, m) -> List[float]:
    """Riesz levels inside the spectrum's range, so no request errors."""
    top = spec[-1]
    return sorted(round(top * rng.uniform(0.25, 0.98), 6) for _ in range(m))


def _ts(rng, spec, m) -> List[float]:
    """Heat times where the truncated trace misses under e^-6 of its tail."""
    top = spec[-1]
    return sorted(round(rng.uniform(6.0, 24.0) / top, 8) for _ in range(m))


def _fd_bounds(rng, spec, count, kinds) -> List[dict]:
    table = {
        "kroger-avg": lambda: {"k": _ks(rng, count, 4)},
        "general-sum": lambda: {"k": _ks(rng, count, 4)},
        "riesz-lower": lambda: {"z": _zs(rng, spec, 4)},
        "heat-lower": lambda: {"t": _ts(rng, spec, 3)},
        "individual-sk": lambda: {"k": _ks(rng, count, 3, reserve=1)},
        "individual-pos": lambda: {"k": _ks(rng, count, 3, reserve=1)},
    }
    return [{"kind": kind, **table[kind]()} for kind in kinds]


# ---------------------------------------------------------------------------
# workload generators

class _Generator:
    def __init__(self, workload: str, seed: int, root: Path, out: Path):
        self.rng = random.Random(f"{workload}/{seed}")
        self.root = root
        self.out = out
        self.refs = load_references()
        self.cases: List[Case] = []

    def write(self, doc: dict, reference, rtol=FD_RTOL,
              expect_status=None) -> None:
        path = self.out / f"{doc['label']}.json"
        path.write_text(json.dumps(doc, indent=1, sort_keys=True))
        self.cases.append(Case(doc["label"], path, reference, rtol,
                               expect_status))

    def recorded(self, name: str, kinds, k_fixed=None, **opts) -> None:
        v = self.rng.randrange(VARIANTS)
        doc = RECORDED[name](v)
        spec = self.refs[f"{name}/{v}"]
        count = doc["spectrum"]["count"]
        if k_fixed is not None:
            doc["bounds"] = [{"kind": "phase-space-sum", "k": k_fixed, **opts}]
        else:
            doc["bounds"] = _fd_bounds(self.rng, spec, count, kinds)
        self.write(doc, spec[:CHECKED_VALUES])

    def bundled(self, name: str, reference, rtol) -> None:
        path = self.root / BUNDLED / f"{name}.json"
        doc = json.loads(path.read_text())
        self.cases.append(Case(doc["label"], path, reference, rtol))


def _fd_2d(b: _Generator) -> None:
    lx, ly = (round(b.rng.uniform(0.9, 1.1), 6) for _ in range(2))
    c = round(b.rng.uniform(0.5, 2.0), 6)
    n, count = 32, 40
    spec = [c * v for v in tensor_lowest(
        [periodic_axis(n, lx / n), periodic_axis(n, ly / n)], count)]
    doc = _fd("fd2-torus-32", {"type": "torus", "e1": [lx, 0.0],
                               "e2": [0.0, ly]}, n, count, {"w": str(c)})
    ts = _ts(b.rng, spec, 3)
    doc["bounds"] = [{"kind": "heat-torus", "t": ts},
                     {"kind": "heat-lower", "t": ts}]
    b.write(doc, spec[:CHECKED_VALUES])
    all_kinds = ("kroger-avg", "general-sum", "riesz-lower", "heat-lower",
                 "individual-sk")
    b.recorded("fd2-weighted-40", all_kinds)
    b.recorded("fd2-disk-44", ("kroger-avg", "riesz-lower"))
    b.recorded("fd2-weighted-160", ("kroger-avg", "heat-lower"))
    b.recorded("fd2-lshape-160", ("kroger-avg", "riesz-lower"))
    # sides at least 0.04 apart: a near-square box has near-double
    # eigenvalues, and shift-invert then takes a third more iterations
    sides = [round(b.rng.uniform(0.95, 0.98), 6),
             round(b.rng.uniform(1.02, 1.05), 6)]
    n, count = 256, 16
    spec = tensor_lowest([neumann_axis(n, s / n) for s in sides], count)
    doc = _fd("fd2-box-256", _box(sides), n, count, {})
    doc["bounds"] = _fd_bounds(b.rng, spec, count,
                               ("kroger-avg", "general-sum", "riesz-lower"))
    b.write(doc, spec[:CHECKED_VALUES])


def _fd_3d(b: _Generator) -> None:
    c = round(b.rng.uniform(0.9, 1.1), 6)
    # 11 values end on a whole cluster (1+3+3+1+3); cutting one makes the
    # shift-invert iteration count jump with c
    n, count = 24, 11
    spec = [c * v for v in tensor_lowest([neumann_axis(n, 1.0 / n)] * 3,
                                         count)]
    doc = _fd("fd3-cube-24", _box([1.0, 1.0, 1.0]), n, count, {"w": str(c)})
    doc["bounds"] = _fd_bounds(b.rng, spec, count,
                               ("kroger-avg", "riesz-lower"))
    b.write(doc, spec[:CHECKED_VALUES])
    b.recorded("fd3-aniso", ("kroger-avg", "general-sum", "heat-lower"))


def _phase_space(b: _Generator) -> None:
    b.recorded("ps-osc-2d", (), k_fixed=[2, 5, 10, 20, 40], grid_n=1024)
    b.recorded("ps-osc-3d", (), k_fixed=[2, 5, 10], grid_n=80)


def _cli_batch(b: _Generator) -> None:
    rng = b.rng
    b.bundled("square-kroger", rectangle_exact(1.0, 1.0, CHECKED_VALUES),
              EXACT_RTOL)

    lx, ly = (round(rng.uniform(0.5, 2.0), 6) for _ in range(2))
    count = 160
    spec = rectangle_exact(lx, ly, count)
    doc = {"label": "cb-rect-sweep", "domain": _box([lx, ly]),
           "spectrum": {"source": "exact-rectangle", "count": count},
           "bounds": [
               {"kind": "kroger-avg", "k": _ks(rng, count, 150)},
               {"kind": "general-sum", "k": _ks(rng, count, 150)},
               {"kind": "riesz-lower", "z": _zs(rng, spec, 150)},
               {"kind": "heat-lower", "t": _ts(rng, spec, 100)},
               {"kind": "individual-sk", "k": _ks(rng, count, 100, 1)},
               {"kind": "individual-pos", "k": _ks(rng, count, 50, 1)}],
           "seed": 0}
    b.write(doc, spec[:CHECKED_VALUES], EXACT_RTOL)   # 750 reports

    e1 = [round(rng.uniform(0.8, 1.25), 6), 0.0]
    e2 = [round(rng.uniform(-0.4, 0.4), 6), round(rng.uniform(0.8, 1.25), 6)]
    c = round(rng.uniform(0.5, 2.0), 6)
    covol = abs(e1[0] * e2[1])
    ts = sorted(round(rng.uniform(0.1, 1.0) * covol / c, 6) for _ in range(6))
    doc = {"label": "cb-torus-exact",
           "domain": {"type": "torus", "e1": e1, "e2": e2},
           "fields": {"w": str(c)}, "grid": {"n": 32},
           "spectrum": {"source": "exact-torus", "count": 40},
           "bounds": [{"kind": "heat-lower", "t": ts},
                      {"kind": "heat-torus", "t": ts}], "seed": 0}
    b.write(doc, torus_exact(e1, e2, c, CHECKED_VALUES), EXACT_RTOL)

    l_max = rng.randrange(20, 31)
    top = float(l_max * (l_max + 1))
    doc = {"label": "cb-sphere-riesz", "domain": _box([2.0, math.pi]),
           "spectrum": {"source": "exact-sphere", "nu": 2, "l_max": l_max},
           "bounds": [{"kind": "riesz-lower",
                       "z": sorted(round(top * rng.uniform(0.05, 0.98), 6)
                                   for _ in range(60))}], "seed": 0}
    b.write(doc, sphere_exact(2, CHECKED_VALUES), EXACT_RTOL)

    b.recorded("cb-weighted-fd24", ("kroger-avg", "general-sum",
                                    "riesz-lower", "heat-lower",
                                    "individual-sk", "individual-pos"))
    b.recorded("cb-disk-32", ("kroger-avg", "riesz-lower"))
    b.recorded("cb-phase-256", (), k_fixed=[2, 5, 10], grid_n=256)

    # malformed inputs: the exit-status contract says 2 for both
    bad = {"domain": _box([1.0, 1.0]), "grid": {"n": 16},
           "spectrum": {"source": "fd", "count": 8},
           "bounds": [{"kind": "kroger-avg", "k": [2]}], "seed": 0}
    b.write({**bad, "label": "cb-bad-weight", "fields": {"w": "x - 0.5"}},
            None, expect_status=2)
    b.write({**bad, "label": "cb-bad-grid", "grid": {"n": 4}},
            None, expect_status=2)


_GENERATORS = {"fd-2d": _fd_2d, "fd-3d": _fd_3d, "phase-space": _phase_space,
             "cli-batch": _cli_batch}


def build(workload: str, seed: int, root: Path, out: Path) -> List[Case]:
    """Write the workload's scenario files under `out`; return one pass."""
    out.mkdir(parents=True, exist_ok=True)
    b = _Generator(workload, seed, root, out)
    _GENERATORS[workload](b)
    return b.cases

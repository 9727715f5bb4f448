"""Check that two source trees give byte-identical `run` outputs.

    python tools/compare_outputs.py OLD NEW
    python tools/compare_outputs.py HEAD~1 src

OLD and NEW each name a directory that holds the `spectral_bounds` package
(a checkout's `src/`) or, when no such directory exists, a git revision of
this checkout, whose `src/` is exported by `git archive` into the
temporary directory.  A side that holds no package is refused.  Into the
temporary directory the script writes, from this checkout, every scenario
of the four bench workloads at seeds 1 and 3, every recorded fd variant
with one fixed bound list, both bundled scenarios,
`tests/golden/torus-kinds.scenario.json`, the fixed fd scenarios of
`FORMS`, which sample their fields in shapes the workloads do not (a
torus whose weight varies across the seam, a 3-D box with a constant
nonzero rho and V, a 2-D box with a weight that spans the grid), and
the fixed phase-space scenarios of `TABLES`, which take the table paths
the workloads do not: a masked domain with one weight, a varying weight,
a weight finite on the disk but not on its bounding grid, nu = 1 and 3, a
flat and a non-separable effective potential, a list of 100 k, levels
strictly between two values of one bucket of the Lipschitz level index,
a last slab of fewer rows than the others and a first slab with no
inside node, and the exact scenarios of `EXACT`: a thin torus whose
Weyl-sized cutoff holds fewer values than its `count`.
It runs `python -m spectral_bounds.cli run --format both` on each, once
per tree, with one BLAS thread, and compares the JSON and CSV files,
stdout and the exit status.  stderr holds paths and elapsed times, so it
is not compared.  It prints each difference and exits 1 if there is any.
For a run whose JSON differs it prints one more line on how far the
reports moved: the largest relative change of `bound` and of `computed`,
how many bounds went down and how many `holds` flipped.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "benchmarks"))

import workloads  # noqa: E402

SEEDS = (1, 3)
BLAS_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _phase(label, domain, fields, n, grid_n, k, count=12) -> dict:
    """A phase-space scenario on a dense fd spectrum of count values."""
    return {"label": label, "domain": domain, "fields": fields,
            "grid": {"n": n}, "spectrum": {"source": "fd", "count": count},
            "bounds": [{"kind": "phase-space-sum", "k": k,
                        "grid_n": grid_n}], "seed": 0}


def _fd(label, domain, fields, n, count=12) -> dict:
    """An fd scenario of count values with the recorded variants' bounds."""
    return {"label": label, "domain": domain, "fields": fields,
            "grid": {"n": n}, "spectrum": {"source": "fd", "count": count},
            "bounds": [{"kind": "kroger-avg", "k": [1, count // 2, count]},
                       {"kind": "general-sum", "k": [2, count]},
                       {"kind": "individual-sk", "k": [count // 2]}],
            "seed": 0}


FORMS = [
    # w is read at the left edge on the seam of x, where it jumps
    _fd("fd-torus-w-in-x", {"type": "torus", "e1": [1.2, 0.0],
                            "e2": [0.0, 0.9]}, {"w": "1 + 0.5*x"}, 24),
    _fd("fd-box3-constant-rho", {"type": "box", "sides": [1.0, 1.0, 1.3]},
        {"rho": "0.3", "V": "2"}, 10),
    _fd("fd-box2-w-xy", {"type": "box", "sides": [1.0, 1.0]},
        {"w": "1 + x*y"}, 24),
]

_SQUARE = {"type": "box", "sides": [4.0, 4.0], "origin": [-2.0, -2.0]}
TABLES = [
    _phase("ps-disk-w1", {"type": "disk", "radius": 1.0},
           {"V": "x^2 + 2*y^2"}, 24, 300, [2, 5, 10]),
    _phase("ps-varying-w", _SQUARE, {"V": "x^2 + y^2", "w": "1 + 0.1*x"},
           24, 256, [2, 5, 10]),
    # w is not finite at the corners of the disk's bounding grid
    _phase("ps-disk-weight", {"type": "disk", "radius": 1.0},
           {"V": "x^2 + y^2", "w": "1 + sqrt(1 - x^2 - y^2)"}, 24, 200,
           [2, 5, 10]),
    _phase("ps-nu1", {"type": "box", "sides": [4.0], "origin": [-2.0]},
           {"V": "x^4 - x"}, 64, 4096, [1, 3, 7, 11]),
    _phase("ps-nu3", {"type": "box", "sides": [2.0, 2.0, 2.0],
                      "origin": [-1.0, -1.0, -1.0]},
           {"V": "x^2 + y^2 + 2*z^2"}, 8, 40, [2, 5, 10]),
    _phase("ps-flat", {"type": "box", "sides": [1.0, 1.0]}, {"V": "-3"},
           24, 128, [2, 5, 10]),
    _phase("ps-non-separable", _SQUARE, {"V": "x*y + y^2"}, 24, 256,
           [2, 5, 10]),
    _phase("ps-many-k", _SQUARE, {"V": "x^2 + y^2"}, 24, 256,
           list(range(1, 101)), count=100),
    _phase("ps-off-lattice", {"type": "box", "sides": [8.0, 8.0],
                              "origin": [-4.0, -4.0]},
           {"V": "x^2 + y^2 + 0.1*x"}, 24, 512, [1, 4, 5, 8, 10]),
    # slabs of 16 rows of 1000 nodes, the last one of 8
    _phase("ps-slab-rows", _SQUARE, {"V": "x^2 + y^2 + 0.3*x*y"}, 24, 1000,
           [2, 5, 10]),
    # the first slab, rows 0 to 39 of 400 nodes, holds no inside node
    _phase("ps-empty-slab", {"type": "masked_box", "sides": [1.0, 1.0],
                             "inside": "0.1 - x"},
           {"V": "x^2 + 2*y^2"}, 24, 400, [2, 5, 10]),
]

EXACT = [
    # 4 pi^2 (m^2 + 400 n^2): 33 values under the Weyl cutoff for 40
    {"label": "exact-thin-torus",
     "domain": {"type": "torus", "e1": [1.0, 0.0], "e2": [0.0, 0.05]},
     "spectrum": {"source": "exact-torus", "count": 40},
     "bounds": [{"kind": "kroger-avg", "k": [10, 40]}], "seed": 0},
]


def scenarios(tmp: Path) -> list:
    """The scenario paths to run, each once."""
    paths = []
    for workload in workloads.WORKLOADS:
        for seed in SEEDS:
            cases = workloads.build(workload, seed, ROOT,
                                    tmp / f"{workload}-{seed}")
            paths += [case.path for case in cases]
    recorded = tmp / "recorded"
    recorded.mkdir()
    for name, make in workloads.RECORDED.items():
        for v in range(workloads.VARIANTS):
            doc = make(v)
            count = doc["spectrum"]["count"]
            doc["bounds"] = [
                {"kind": "kroger-avg", "k": [1, count // 2, count]},
                {"kind": "general-sum", "k": [2, count]},
                {"kind": "individual-sk", "k": [count // 2]}]
            path = recorded / f"{name}-{v}.json"
            path.write_text(json.dumps(doc, indent=1, sort_keys=True))
            paths.append(path)
    for name, docs in (("forms", FORMS), ("tables", TABLES),
                       ("exact", EXACT)):
        (tmp / name).mkdir()
        for doc in docs:
            path = tmp / name / f"{doc['label']}.json"
            path.write_text(json.dumps(doc, indent=1, sort_keys=True))
            paths.append(path)
    paths += sorted((ROOT / workloads.BUNDLED).glob("*.json"))
    paths.append(ROOT / "tests" / "golden" / "torus-kinds.scenario.json")
    return list(dict.fromkeys(p.resolve() for p in paths))


def source_tree(side: str, tmp: Path, repo: Path = ROOT) -> Path:
    """The directory holding `spectral_bounds` for one side: `side` itself
    when it is a directory, else the `src/` of the git revision of `repo`
    that it names, exported under `tmp`.  Raises ValueError when neither
    holds the package."""
    path = Path(side)
    if not path.is_dir():
        git = ["git", "-C", str(repo)]
        rev = subprocess.run(
            git + ["rev-parse", "--verify", "--quiet", f"{side}^{{commit}}"],
            capture_output=True, text=True)
        if rev.returncode:
            raise ValueError(f"{side} is neither a directory nor a git "
                             f"revision of {repo}")
        commit = rev.stdout.strip()
        path = tmp / "revisions" / commit
        path.mkdir(parents=True, exist_ok=True)
        # a revision without src/ exports nothing, and is refused below
        tree = subprocess.run(git + ["archive", commit, "src"],
                              capture_output=True).stdout
        if tree:
            subprocess.run(["tar", "-x", "-C", str(path)], input=tree,
                           check=True)
        path = path / "src"
    if not (path / "spectral_bounds" / "__init__.py").is_file():
        raise ValueError(f"{side} holds no spectral_bounds package")
    return path.resolve()


def run(src: Path, config: Path, out: Path) -> dict:
    """stdout, exit status and output files of one `run`."""
    out.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(src))
    env.update(dict.fromkeys(BLAS_THREADS, "1"))
    done = subprocess.run(
        [sys.executable, "-m", "spectral_bounds.cli", "run", "--config",
         str(config), "--out", str(out), "--format", "both"],
        env=env, cwd=out.parent, capture_output=True)
    files = {p.name: p.read_bytes() for p in sorted(out.glob("*"))}
    return {"status": done.returncode, "stdout": done.stdout, **files}


def _largest_change(pairs, key):
    """The relative change (new - old) / |old| of key over the report pairs
    that is largest in size, with the parameter it was read at."""
    def change(old, new):
        if old[key] == new[key]:
            return 0.0
        return (new[key] - old[key]) / abs(old[key]) if old[key] else \
            math.copysign(math.inf, new[key] - old[key])
    moved = [(change(old, new), old["parameter"]) for old, new in pairs]
    return max(moved, key=lambda m: abs(m[0]), default=(0.0, None))


def moves(old: bytes, new: bytes) -> str:
    """How far the reports of two JSON outputs of one scenario moved, in
    one line.  Reports are paired in order."""
    sides = [json.loads(side)["bounds"] for side in (old, new)]
    pairs = list(zip(*sides))
    parts = []
    for key in ("bound", "computed"):
        rel, at = _largest_change(pairs, key)
        parts.append(f"{key} {rel:+.3g}" + (f" (at {at:g})" if rel else ""))
    down = sum(new["bound"] < old["bound"] for old, new in pairs)
    flips = sum(new["holds"] != old["holds"] for old, new in pairs)
    line = f"largest relative change: {', '.join(parts)}; " \
        f"{down} of {len(pairs)} bounds down, {flips} holds flipped"
    if len(sides[0]) != len(sides[1]):
        line += f"; {len(sides[0])} against {len(sides[1])} reports"
    return line


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", help="source directory or git revision")
    parser.add_argument("new", help="source directory or git revision")
    args = parser.parse_args(argv)
    differ = 0
    with tempfile.TemporaryDirectory() as name:
        tmp = Path(name).resolve()
        try:
            # both sides failing to import would compare equal
            srcs = [source_tree(side, tmp) for side in (args.old, args.new)]
        except ValueError as exc:
            parser.error(str(exc))
        configs = scenarios(tmp)
        for i, config in enumerate(configs):
            old, new = (run(src, config, tmp / side / str(i))
                        for side, src in zip(("old", "new"), srcs))
            keys = [k for k in dict.fromkeys([*old, *new])
                    if old.get(k) != new.get(k)]
            if keys:
                differ += 1
                where = config.relative_to(tmp) if tmp in config.parents \
                    else config
                print(f"{where}: {', '.join(map(str, keys))} differ")
                for key in keys:
                    if key.endswith(".json") and key in old and key in new:
                        print(f"  {moves(old[key], new[key])}")
    print(f"{differ} of {len(configs)} runs differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())

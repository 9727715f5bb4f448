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
`tests/golden/torus-kinds.scenario.json`, and the fixed phase-space
scenarios of `TABLES`, which take the table paths the workloads do not:
a masked domain with one weight, a varying weight, nu = 1 and 3, a flat
and a non-separable effective potential, and a list of 100 k.  It runs
`python -m spectral_bounds.cli run --format both` on each, once per tree,
with one BLAS thread, and compares the JSON and CSV files, stdout and the
exit status.  stderr holds paths and elapsed times, so it is not compared.
It prints each difference and exits 1 if there is any.
"""

from __future__ import annotations

import argparse
import json
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


_SQUARE = {"type": "box", "sides": [4.0, 4.0], "origin": [-2.0, -2.0]}
TABLES = [
    _phase("ps-disk-w1", {"type": "disk", "radius": 1.0},
           {"V": "x^2 + 2*y^2"}, 24, 300, [2, 5, 10]),
    _phase("ps-varying-w", _SQUARE, {"V": "x^2 + y^2", "w": "1 + 0.1*x"},
           24, 256, [2, 5, 10]),
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
    tables = tmp / "tables"
    tables.mkdir()
    for doc in TABLES:
        path = tables / f"{doc['label']}.json"
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
    print(f"{differ} of {len(configs)} runs differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())

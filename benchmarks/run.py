"""The spectral-bounds benchmark: one workload, one seed, one run.

    python3 benchmarks/run.py --workload fd-2d --seed 1 --seconds 22 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
Generates the workload's scenarios from the seed, measures set-up in fresh
interpreters, runs the workload in a fresh worker process and checks every
output against the oracle in workloads.py.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics (from a traced run checked against an untraced one) with
``--trace 1``.  Working files go to ``.bench_work/`` in the checkout.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One BLAS thread, set before numpy loads, for this process and every child:
# with a few shared cores, a second thread that must keep in step measures
# the host's scheduler more than the program.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 7
RUN_LIMIT = 170.0      # seconds; every child is killed past this
TRACE_RTOL = 1e-12


_DEADLINE = time.monotonic() + RUN_LIMIT


class BenchError(RuntimeError):
    """The run cannot give a result; the message says why."""


def child_env() -> dict:
    """Children import the checkout's package with the default job count
    (SPECTRAL_BOUNDS_JOBS is unset and no --jobs is passed) and one BLAS
    thread."""
    env = dict(os.environ)
    env.pop("SPECTRAL_BOUNDS_JOBS", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def machine_record() -> dict:
    cpu = "unknown"
    try:
        for line in open("/proc/cpuinfo"):
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas.get("name"),
            "blas_version": blas.get("version"),
            "blas_threads": _blas_threads(),
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS")}


def _blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None."""
    try:
        libs = {line.split()[-1] for line in open("/proc/self/maps")
                if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _python(args, env) -> str:
    """Run a helper script; on overrun kill it with everything it started."""
    with subprocess.Popen([sys.executable, *map(str, args)], cwd=ROOT,
                          env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True,
                          start_new_session=True) as proc:
        try:
            out, err = proc.communicate(
                timeout=max(1.0, _DEADLINE - time.monotonic()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise BenchError(f"{Path(str(args[0])).name} ran past the "
                             f"{RUN_LIMIT:g} s limit") from None
    if proc.returncode != 0:
        raise BenchError(f"{Path(str(args[0])).name} exited "
                         f"{proc.returncode}:\n{err[-3000:]}")
    return out.strip().splitlines()[-1]


def setup_times(cases, env, repeats) -> list:
    """Set-up samples in fresh interpreters, after one untimed warm-up that
    compiles the bytecode."""
    probe = [HERE / "setup_probe.py", *sorted({c.path for c in cases})]
    _python(probe, env)
    return [float(_python(probe, env)) for _ in range(repeats)]


def run_worker(cases_file, out, seconds, max_passes, env, spans=None) -> dict:
    args = [HERE / "worker.py", cases_file, out, seconds, max_passes]
    if spans is not None:
        args.append(spans)
    line = _python(args, env)
    Path(f"{out}.json").write_text(line)
    return json.loads(line)


# ---------------------------------------------------------------------------
# oracle

def _report(case, op):
    path = Path(op["out"]) / f"{case.label}.json"
    return json.loads(path.read_text()) if path.is_file() else None


def check_op(case, op):
    """None if the operation is right, else (kind, message).  Kind
    "failed": the run broke the exit-status contract; kind "wrong": it
    gave a wrong answer."""
    status = op["status"]
    if status not in (0, 1, 2):
        return "failed", f"exit status {status} is outside the contract"
    if case.expect_status is not None:
        if status != case.expect_status or "Traceback" in op["stderr"]:
            return "failed", (f"exit status {status}, expected "
                              f"{case.expect_status} with a one-line "
                              f"message; stderr ends "
                              f"{op['stderr'].strip()[-160:]!r}")
        return None
    doc = _report(case, op)
    if doc is None:
        return "failed", (f"exit status {status} and no report; stderr ends "
                          f"{op['stderr'].strip()[-160:]!r}")
    if doc["errors"]:        # no workload declares an error entry
        return "wrong", f"error entries {doc['errors']}"
    verdict = 0 if all(b["holds"] for b in doc["bounds"]) else 1
    if status != verdict:
        return "wrong", f"exit status {status} but the report says {verdict}"
    got = doc["spectrum"]["first_values"]
    ref = case.reference
    if len(got) < len(ref):
        return "wrong", f"{len(got)} eigenvalues, expected {len(ref)}"
    worst = max(abs(g - r) / max(abs(r), 1.0) for g, r in zip(got, ref))
    if worst > case.rtol:
        return "wrong", (f"eigenvalues off the reference by {worst:.3g} "
                         f"relative (tolerance {case.rtol:g})")
    return None


def check(cases, result) -> tuple:
    failed, wrong = 0, 0
    for op in result["ops"]:
        case = cases[op["case"]]
        problem = check_op(case, op)
        if problem is not None:
            failed += 1
            wrong += problem[0] == "wrong"
            print(f"# {case.label}: {problem[0]}: {problem[1]}")
    return len(result["ops"]), failed, wrong


def outcome(case, op):
    """What the traced run must reproduce: status, verdicts, spectrum."""
    doc = _report(case, op)
    if doc is None:
        return op["status"], None, None
    verdicts = [(b["kind"], b["parameter"], b["holds"]) for b in doc["bounds"]]
    verdicts += [(e["kind"], e["parameter"], "error") for e in doc["errors"]]
    return op["status"], verdicts, doc["spectrum"]["first_values"]


def compare_traced(cases, plain, traced) -> None:
    for a, b in zip(plain["ops"], traced["ops"]):
        case = cases[a["case"]]
        (sa, va, xa), (sb, vb, xb) = outcome(case, a), outcome(case, b)
        same = sa == sb and va == vb and (xa is None) == (xb is None)
        if same and xa is not None:
            same = len(xa) == len(xb) and np.allclose(
                xa, xb, rtol=TRACE_RTOL, atol=TRACE_RTOL)
        if not same:
            raise BenchError(f"traced run differs from the untraced run on "
                             f"{case.label}: status {sa} vs {sb}")


# ---------------------------------------------------------------------------
# metrics

def _quartile(values, q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=4, method="inclusive")[q - 1]


def end_to_end(result, setup) -> dict:
    """Each scenario's latency is its median over the run's passes, so a
    burst of load on the host spoils one sample, not the figure; a pass
    costs the sum of these."""
    runs = {}
    for op in result["ops"]:
        runs.setdefault(op["case"], []).append(op["latency"])
    lat = [statistics.median(v) for v in runs.values()]
    passes = len(result["passes"])
    return {
        "wall_s": (sum(lat), "s", passes),
        "setup_s": (statistics.median(setup), "s", len(setup)),
        "peak_rss_mb": (result["peak_rss_mb"], "MB", 1),
        "latency_s_p50": (_quartile(lat, 2), "s", len(lat)),
        "latency_s_p75": (_quartile(lat, 3), "s", len(lat)),
    }


def per_layer(workload, cases, env, work, seconds) -> tuple:
    cases_file = work / "cases.json"
    plain = run_worker(cases_file, work / "plain", seconds, 1, env)
    spans_file = work / "spans.jsonl"
    traced = run_worker(cases_file, work / "traced", seconds, 1, env,
                        spans_file)
    compare_traced(cases, plain, traced)
    spans, counts = tracing.load(spans_file)
    tracing.check_wiring(workload, spans, counts)
    metrics = {name: (value, unit, 1) for name, (value, unit)
               in tracing.layer_metrics(spans, counts).items()}
    metrics["trace.overhead_s"] = (traced["passes"][0] - plain["passes"][0],
                                   "s", 1)
    return metrics, [plain, traced]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "spectral_bounds" / "__init__.py").is_file():
        print(f"error: no package at {ROOT / 'src' / 'spectral_bounds'}; "
              "run from a full checkout", file=sys.stderr)
        return 2

    work = ROOT / ".bench_work" / f"{args.workload}-seed{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = child_env()
    machine = machine_record()
    (work / "machine.json").write_text(json.dumps(machine, indent=1))
    print(f"# machine {json.dumps(machine)}")

    cases = workloads.build(args.workload, args.seed, ROOT,
                            work / "scenarios")
    (work / "cases.json").write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed,
         "cases": [c.to_json() for c in cases]}))

    try:
        if args.trace:
            setup_times(cases, env, 0)
            metrics, results = per_layer(args.workload, cases, env, work,
                                         args.seconds)
        else:
            setup = setup_times(cases, env, SETUP_REPEATS)
            result = run_worker(work / "cases.json", work / "run",
                                args.seconds, 1000, env)
            metrics, results = end_to_end(result, setup), [result]
    except (BenchError, tracing.WiringError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3

    attempted = failed = wrong = 0
    for result in results:
        a, f, w = check(cases, result)
        attempted, failed, wrong = attempted + a, failed + f, wrong + w

    for name, (value, unit, samples) in metrics.items():
        print(f"# {args.workload} {name} {value:.6g} {unit} (n={samples})")
    print(f"# {args.workload} fail_ratio {failed / attempted:.6g} "
          f"({failed} of {attempted} operations)")
    if args.trace:
        selfs = {k: v for k, (v, _, _) in metrics.items()
                 if k.endswith(".self_s")}
        total = sum(selfs.values())
        for name in sorted(selfs, key=selfs.get, reverse=True):
            print(f"# self-time share {name.split('.')[0]:<12} "
                  f"{selfs[name] / total:7.1%}")

    print(json.dumps({
        "correct": wrong == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u, _) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

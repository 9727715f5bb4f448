"""Measure one workload in a fresh process.

    python3 benchmarks/worker.py CASES OUT SECONDS MAX_PASSES [SPANS]

CASES is the JSON list of cases written by run.py.  Runs whole passes over
the cases, one scenario at a time and in an order shuffled per pass from
the workload seed, and starts another pass only while the elapsed time
plus half the median pass so far stays within SECONDS.  In-process
workloads call ``spectral_bounds.cli.main(["run", ...])`` per scenario;
cli-batch starts ``python -m spectral_bounds.cli run`` per scenario and
waits for it.  With SPANS, the traced variants run instead and append their
spans to that file.  Prints one JSON object: pass wall times, one record
per operation, and the peak RSS of this process (cli-batch: of its
children).
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent


class InProcess:
    """Scenarios run through cli.main inside this process."""

    def __init__(self, workload: str, spans_path):
        started = perf_counter()
        import spectral_bounds.cli as cli
        finished = perf_counter()
        self.main = cli.main
        self.rec = None
        self.spans_path = spans_path
        if spans_path is not None:
            import tracing
            self.rec = tracing.Recorder(workload)
            self.rec.add("cli.import", started, finished)
            tracing.install(self.rec)

    def run(self, case: dict, out: Path) -> dict:
        argv = ["run", "--config", case["path"], "--out", str(out)]
        sink = io.StringIO()
        started = perf_counter()
        with contextlib.redirect_stdout(sink), \
                contextlib.redirect_stderr(sink):
            if self.rec is None:
                status = exit_status(self.main, argv)
            else:
                self.rec.scenario = case["label"]
                with self.rec.span("cli.main"):
                    status = exit_status(self.main, argv)
        latency = perf_counter() - started
        return {"status": status, "latency": latency,
                "stderr": sink.getvalue()[-2000:]}

    def finish(self) -> float:
        if self.rec is not None:
            self.rec.dump(self.spans_path)
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def exit_status(main, argv) -> int:
    """Exit status as `python -m spectral_bounds.cli` would report it."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except Exception:
        traceback.print_exc()
        return 1


class Subprocess:
    """Scenarios run as fresh `python -m spectral_bounds.cli` processes."""

    def __init__(self, workload: str, spans_path):
        self.traced = spans_path is not None
        self.prefix = [sys.executable, "-m", "spectral_bounds.cli"]
        if self.traced:
            self.prefix = [sys.executable, str(HERE / "traced_cli.py"),
                           str(spans_path), workload]

    def run(self, case: dict, out: Path) -> dict:
        argv = ["run", "--config", case["path"], "--out", str(out)]
        if self.traced:
            argv = [case["label"]] + argv
        started = perf_counter()
        proc = subprocess.run(self.prefix + argv, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True)
        latency = perf_counter() - started
        return {"status": proc.returncode, "latency": latency,
                "stderr": proc.stderr[-2000:]}

    def finish(self) -> float:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def main(argv) -> int:
    cases_path, out, seconds, max_passes = argv[:4]
    spans_path = argv[4] if len(argv) > 4 else None
    doc = json.loads(Path(cases_path).read_text())
    runner = (Subprocess if doc["workload"] == "cli-batch" else InProcess)(
        doc["workload"], spans_path)

    rng = random.Random(doc["seed"])
    order = list(range(len(doc["cases"])))
    passes, ops = [], []
    started = perf_counter()
    while True:
        rng.shuffle(order)
        pass_started = perf_counter()
        for i in order:
            op_out = Path(out) / f"p{len(passes)}" / f"op{i:02d}"
            ops.append({"case": i, "out": str(op_out),
                        **runner.run(doc["cases"][i], op_out)})
        passes.append(perf_counter() - pass_started)
        elapsed = perf_counter() - started
        # stop at the pass count that ends nearest to SECONDS, so that a
        # slightly slower host does not drop a whole pass from the medians
        if len(passes) >= int(max_passes) or \
                elapsed + statistics.median(passes) / 2 > float(seconds):
            break
    print(json.dumps({"passes": passes, "ops": ops,
                      "peak_rss_mb": runner.finish()}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

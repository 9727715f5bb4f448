"""`python -m spectral_bounds.cli` with the benchmark's spans installed.

    python3 benchmarks/traced_cli.py SPANS WORKLOAD LABEL run --config ...

Times the package import, wraps the layers (see tracing.py), runs the
command line, appends the spans to SPANS and exits with the command's
status; an uncaught exception prints its traceback and exits 1, as the
interpreter would.
"""

import sys
from time import perf_counter


def main() -> int:
    spans_path, workload, label, *argv = sys.argv[1:]
    started = perf_counter()
    import spectral_bounds.cli as cli
    finished = perf_counter()

    import tracing
    from worker import exit_status
    rec = tracing.Recorder(workload)
    rec.scenario = label
    rec.add("cli.import", started, finished)
    tracing.install(rec)
    with rec.span("cli.main"):
        status = exit_status(cli.main, argv)
    rec.dump(spans_path)
    return status


if __name__ == "__main__":
    sys.exit(main())

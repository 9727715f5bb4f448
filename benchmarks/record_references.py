"""Record the reference spectra of the weighted and masked fd scenarios.

    PYTHONPATH=src python3 benchmarks/record_references.py

Solves every variant in ``workloads.RECORDED`` through the package's own
``spectrum --json`` command and writes ``benchmarks/references.json``.
The committed file was recorded at the commit that introduced the
benchmark; re-record only when a change is meant to move these values,
and say so, because the benchmark's correctness oracle compares against
them.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import workloads


def main() -> int:
    from spectral_bounds.cli import main as cli_main

    refs = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, make in workloads.RECORDED.items():
            for v in range(workloads.VARIANTS):
                path = Path(tmp) / f"{name}-{v}.json"
                path.write_text(json.dumps(make(v)))
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    status = cli_main(["spectrum", "--config", str(path),
                                       "--json"])
                if status != 0:
                    raise SystemExit(f"{name}/{v}: status {status}")
                refs[f"{name}/{v}"] = json.loads(buf.getvalue())["values"]
                print(f"{name}/{v}: {refs[f'{name}/{v}'][:3]}",
                      file=sys.stderr)
    workloads.REFERENCES.write_text(json.dumps(refs, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Set-up cost in a fresh interpreter.

    python3 benchmarks/setup_probe.py SCENARIO...

Prints the seconds taken by ``import spectral_bounds`` plus
``load_scenario`` of every given file.  A file that fails to load still
counts: its cost up to the failure is set-up work.
"""

import sys
from time import perf_counter


def main() -> int:
    started = perf_counter()
    from spectral_bounds import load_scenario
    for path in sys.argv[1:]:
        try:
            load_scenario(path)
        except Exception:
            pass
    print(perf_counter() - started)
    return 0


if __name__ == "__main__":
    sys.exit(main())

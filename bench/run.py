#!/usr/bin/env python3
"""crossrec benchmark: one closed-loop caller, timed from outside the package.

Run from the repository root:

    python3 bench/run.py --workload meta-default --seed 0 --seconds 24 --trace 0

BLAS is held to one thread, so the load is one process and one thread.
Exits with code 2, printing no result, when ``src/crossrec`` is not beside
``bench/``. See bench/README.md.
"""
import os
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

if __name__ == "__main__":
    if not os.path.isfile(os.path.join(SRC, "crossrec", "__init__.py")):
        print(f"bench: crossrec sources not found under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"  # read when numpy loads, below
    import harness

    sys.exit(harness.main())

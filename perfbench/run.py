"""Benchmark entry point; run from the repository root:

    python3 perfbench/run.py --workload semi-series --seed 1 --seconds 20 \
        --trace 0

Workloads: semi-series, finite-series, contour-resolvent.  See README.md.
"""

import os
import sys

if __name__ == "__main__":
    # OpenBLAS reads its thread count when NumPy first loads it, so the
    # single-threaded baseline is fixed before anything imports NumPy.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    from harness import main
    sys.exit(main())

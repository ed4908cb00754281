"""Test-session setup shared by tests/ and perfbench/.

BLAS is pinned to one thread before numpy loads.  A threaded BLAS sums in
an order that depends on the thread count, which moves the last digits of
dense eigenvalues, so the golden spectra under tests/data would otherwise
depend on the host's cores and the caller's environment.  One thread is
also how perfbench runs every worker.
"""

import os
import sys

if "numpy" in sys.modules:
    raise RuntimeError("numpy was imported before conftest.py could pin BLAS to one thread")
for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[var] = "1"

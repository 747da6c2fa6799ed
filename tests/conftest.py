"""One BLAS thread for the suite, as bench/run.py pins for the benchmark.

The network's small matrix products are slower and far less steady when
OpenBLAS's default two threads contend for two vCPUs, which made the
wall-time margin of criterion 6 depend on the host.  The variables are read
when numpy is first imported, so they are set here, before any test module
imports it; a value already in the environment wins.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

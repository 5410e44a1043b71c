"""Test session set-up.  BLAS is pinned to one thread, as the benchmark
pins it (benchmarks/run.py), before numpy is first imported: then the
chunk threads of ensemble.mc_permuted_step_rate do not each start BLAS
threads of their own on the same cores."""

import os

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

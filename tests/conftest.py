"""Pin BLAS to one thread before numpy is imported.

Seeded runs are bit-reproducible in single-threaded mode (``--threads 1``),
so the byte-identity and resume tests run in that mode whatever the host's
core count.
"""
import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

"""Pin BLAS to one thread before numpy is imported.

The CLI runs BLAS on one thread per call, the bit-reproducible mode, so
the suite's in-process calls run in that mode too, whatever the host's
core count.  The pin only takes effect before numpy loads, so a plugin
that loaded numpy first stops the run.
"""
import os
import sys

if "numpy" in sys.modules:
    sys.exit("numpy was loaded before tests/conftest.py could pin BLAS to one thread")

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

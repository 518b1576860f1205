#!/usr/bin/env python3
"""glyphsdf benchmark: end-to-end and per-layer figures on two workloads.

Run from the repository root:

    python3 bench/run.py --workload train|infer --seed N \
        --seconds S --trace 0|1

The package is imported from ``src/`` and driven in-process through
``glyphsdf.cli.main`` with single-threaded BLAS (``threads=1``, the
bit-reproducible mode).  Inputs are generated from ``--seed`` under
``.bench_work/``.  Each workload sets up several times (``setup_s`` is the
median), then repeats whole rounds of its timed operations until
``--seconds`` have passed, checks every output against bench/oracles.py
and prints one JSON object as the last line of standard output.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` wraps the
package's public functions (bench/tracer.py), reports the per-layer
metrics, writes the spans to ``.bench_work/trace-<workload>-<seed>.json``
and re-runs one round untraced to check that the traced outputs are
byte-identical.
"""
from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("train", "infer")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "glyphsdf" / "__init__.py").is_file():
        print(f"error: no glyphsdf sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))

    import workloads

    result = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace),
                           ROOT / ".bench_work")
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())

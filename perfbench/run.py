"""Benchmark of bnnsim: host time to simulate and check a frame, plus the
modeled cycles and energy of that frame.

    python3 perfbench/run.py --workload {resnet18,sed_tiled,random_nets}
                             --seed N --seconds S --trace {0,1} [--out FILE]

Run it from the root of a checkout; it imports bnnsim from `src/` of that
checkout and refuses to run without it.  Each workload runs in this one
process as a closed loop: one caller starts the next item only after the
previous one has finished.  BLAS and OpenMP thread pools are capped at the
number of CPUs this process may use, before numpy is imported.

With `--trace 0` the last line of standard output is a JSON object whose
metrics are the end-to-end ones of BENCHMARK.json; with `--trace 1` spans
are recorded around every call into bnnsim and the metrics are the
per-layer ones.  The lines before it print every metric by name and unit.
`--out FILE` also writes a result file with the environment, every metric,
the modeled per-layer counters, per-item records and, when traced, the
spans; `perfbench/diff.py` compares two such files.  Nothing is written
unless `--out` is given.
"""

from __future__ import annotations

import argparse
import importlib.util
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
WORKLOAD_NAMES = ("resnet18", "sed_tiled", "random_nets")


def cap_threads(nproc: int) -> dict:
    """Lower every thread-pool variable to at most `nproc`; returns them."""
    for var in THREAD_VARS:
        try:
            cur = int(os.environ.get(var, ""))
        except ValueError:
            cur = nproc
        os.environ[var] = str(max(1, min(cur, nproc)))
    return {var: os.environ[var] for var in THREAD_VARS}


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="measure for this long; every pooled item still runs once")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="write the result file here")
    args = p.parse_args(argv)
    if args.seconds < 0:
        p.error("--seconds must be >= 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    pkg = SRC / "bnnsim"
    if not (pkg / "__init__.py").is_file():
        print(f"perfbench: no bnnsim sources at {pkg}; run from a full checkout",
              file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    threads = cap_threads(nproc)
    sys.path.insert(0, str(SRC))
    spec = importlib.util.find_spec("bnnsim")
    if spec is None or Path(spec.origin).resolve().parent != pkg.resolve():
        print(f"perfbench: bnnsim would not be imported from {pkg}", file=sys.stderr)
        return 2

    import bench  # imports numpy, so only after the thread caps are set

    return bench.run(args, nproc=nproc, threads=threads)


if __name__ == "__main__":
    sys.exit(main())

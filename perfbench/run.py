"""sproxalm benchmark: one workload per run, in one process.

    python3 perfbench/run.py --workload {solve_box,eb_halfspace,monitor_box}
                             [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout.  The last line of standard output is a
JSON object with the keys correct, attempted, failed and metrics: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("solve_box", "eb_halfspace", "monitor_box")
# one BLAS thread: the benchmark measures the single-threaded program
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def _non_negative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be >= 0")
    return value


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    ap.add_argument("--seed", type=_non_negative, default=0,
                    help="instance set; 0 is the acceptance criteria's instances")
    ap.add_argument("--seconds", type=float, default=36.0,
                    help="measure for about this long (whole passes; at least one)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "sproxalm" / "__init__.py").is_file():
        print(f"error: no sproxalm sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    os.environ.update(BLAS_ENV)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    start = perf_counter()
    import measure   # imports numpy, scipy and sproxalm

    args.import_s = perf_counter() - start
    return measure.main(args)


if __name__ == "__main__":
    raise SystemExit(main())

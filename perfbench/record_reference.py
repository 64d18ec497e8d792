"""Record the reference outputs that the seed-0 output checks compare against.

    python3 perfbench/record_reference.py

Writes perfbench/reference.json: the iterations and best_eps of every
solve of solve_box's set, the error-bound verifier's max_ratio for every
unit of eb_halfspace's set and the exact lower bound of every
monitor_box instance, all at seed 0 and default sizes.  Run it
only when the workloads' definitions change, never to make a check pass.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from pathlib import Path

from run import BLAS_ENV

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    os.environ.update(BLAS_ENV)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    import workloads

    with tempfile.TemporaryDirectory(prefix=".work-", dir=HERE) as workdir:
        solve = workloads.SolveBox(0, workdir)
        solve.prepare()
        summaries = [json.loads(solve.run(j)[0]["stdout"]) for j in range(solve.size)]
        eb = workloads.EbHalfspace(0, workdir)
        eb.prepare()
        ratios = [eb.run(j)[0]["report"]["max_ratio"] for j in range(eb.size)]
        mon = workloads.MonitorBox(0, workdir)
        mon.prepare()
        bounds = [workloads.oracles.exact_lower_bound_box_qp(inst)[0] for inst in mon.instances]
    reference = {
        "solve_box": {"config": solve.config(), "iters": [s["iters"] for s in summaries],
                      "best_eps": [s["best_eps"] for s in summaries]},
        "eb_halfspace": {"config": eb.config(), "max_ratio": ratios},
        "monitor_box": {"config": mon.config(), "lower_bound": bounds},
    }
    with open(HERE / "reference.json", "w") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

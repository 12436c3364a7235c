"""Solve one group of scaled grids through the CLI and bound the process's peak memory.

Groups:

* ``phase``: a 7-phase chain at m=8: state 1 absorbing, phase i moves to
  i-1 with probability 0.1, prior e_7, Gaussian observations with means
  (1, 0, ..., 0) and variance 0.5, ``quickest_predictive`` with alpha=0,
  beta=1, d=1, rho=0.9, op_cost 0.001.
* ``grid``: the scaled grids of the north star, in one process: fig3a at
  m=100 (X=3) and ``phase4`` at m=30 (X=4).

Usage: ``PYTHONPATH=src python -W error scripts/scaled_solves.py GROUP OUT_DIR``

Configs and outputs go to ``OUT_DIR``.  One line per solve, with its exit
code and wall time, and one with the process's peak RSS (``ru_maxrss``)
are appended to the file that ``GITHUB_STEP_SUMMARY`` names, or printed
when it is unset.  Exits 1 when a solve exits non-zero or the peak RSS
exceeds 250 MB, 2 on a bad argument.  Run each group in a process of its
own, as the peak RSS is the process's.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from pathlib import Path

from phasestop import cli

MAX_RSS_MB = 250


def phase_chain(x: int = 7) -> dict:
    p = [[0.0] * x for _ in range(x)]
    p[0][0] = 1.0
    for i in range(1, x):
        p[i][i - 1], p[i][i] = 0.1, 0.9
    return {
        "model": {
            "transition": p,
            "initial": [0.0] * (x - 1) + [1.0],
            "observation": {"gaussian": {"means": [1.0] + [0.0] * (x - 1), "variances": [0.5] * x}},
        },
        "cost": {"family": "quickest_predictive", "alpha": 0, "beta": 1, "d": 1, "rho": 0.9, "op_cost": 0.001},
        "bins": 101,
    }


GROUPS = {
    "phase": lambda: [("7-phase chain", phase_chain(), 8)],
    "grid": lambda: [("fig3a", cli.load_config("fig3a"), 100), ("phase4", cli.load_config("phase4"), 30)],
}


def main(argv: list[str]) -> int:
    if len(argv) != 2 or argv[0] not in GROUPS:
        print(__doc__, file=sys.stderr)
        return 2
    out = Path(argv[1])
    out.mkdir(parents=True, exist_ok=True)
    lines, failed = [], False
    for label, cfg, m in GROUPS[argv[0]]():
        cfg["grid"] = {"m": m}
        stem = f"{label.replace(' ', '-')}-m{m}"
        path = out / f"{stem}.json"
        path.write_text(json.dumps(cfg))
        start = time.perf_counter()
        code = cli.main(["solve", "--config", str(path), "--out", str(out / stem)])
        wall = time.perf_counter() - start
        failed |= code != 0
        lines.append(f"`solve` {label}, m={m}: exit {code}, {wall:.2f} s")
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
    lines.append(f"scaled-{argv[0]} solves: peak RSS {rss_mb:.0f} MB")
    summary = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary:
        with open(summary, "a") as fh:
            fh.write("".join(line + "\n" for line in lines))
    else:
        print("\n".join(lines))
    return 1 if failed or rss_mb > MAX_RSS_MB else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

"""Run one group of scaled CLI commands and bound the process's peak memory.

Groups:

* ``phase``: ``solve`` on a 7-phase chain at m=8: state 1 absorbing, phase
  i moves to i-1 with probability 0.1, prior e_7, Gaussian observations
  with means (1, 0, ..., 0) and variance 0.5, ``quickest_predictive`` with
  alpha=0, beta=1, d=1, rho=0.9, op_cost 0.001.
* ``grid``: ``solve`` on the scaled grids of the north star, in one
  process: fig3a at m=100 (X=3) and ``phase4`` at m=30 (X=4).
* ``simulate``: ``solve`` on fig3a at m=20 (horizon 200), then ``simulate``
  of 20 000 fig3a trajectories under that grid policy, with a 10 000-step
  cap and 3 recorded paths.

Usage: ``PYTHONPATH=src python -W error scripts/scaled_solves.py GROUP OUT_DIR``

Configs and outputs go to ``OUT_DIR``.  One line per command, with its exit
code and wall time, and one with the process's peak RSS (``ru_maxrss``)
are appended to the file that ``GITHUB_STEP_SUMMARY`` names, or printed
when it is unset.  Exits 1 when a command exits non-zero or the peak RSS
exceeds the group's bound (``GROUPS``), 2 on a bad argument.  Run each group
in a process of its own, as the peak RSS is the process's.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from pathlib import Path

from phasestop import cli


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


def solve(label: str, cfg: dict, m: int) -> tuple:
    return "solve", f"{label}, m={m}", f"{label.replace(' ', '-')}-m{m}", {**cfg, "grid": {"m": m}}


def simulate(out: Path) -> list[tuple]:
    """perfbench's ``montecarlo`` command, on a grid policy solved first."""
    fig3a = cli.load_config("fig3a")
    policy = solve("fig3a", {**fig3a, "horizon": 200}, 20)
    cfg = {
        **{k: fig3a[k] for k in ("model", "cost", "bins")},
        "policy": {"solution": str(out / policy[2] / f"{policy[2]}_solution.csv")},
        "trajectories": 20_000,
        "max_steps": 10_000,
        "record": 3,
    }
    return [policy, ("simulate", "fig3a, 20 000 trajectories", "fig3a-montecarlo", cfg)]


# by group: its peak-RSS bound in MB, and its commands (command, label, file
# stem, config) given the output directory. A fresh `simulate` process peaks
# near 43 MB; with its step records kept for the whole batch, not settled per
# block, it peaks near 390 MB
GROUPS = {
    "phase": (250, lambda out: [solve("7-phase chain", phase_chain(), 8)]),
    "grid": (
        250,
        lambda out: [solve("fig3a", cli.load_config("fig3a"), 100), solve("phase4", cli.load_config("phase4"), 30)],
    ),
    "simulate": (75, simulate),
}


def main(argv: list[str]) -> int:
    if len(argv) != 2 or argv[0] not in GROUPS:
        print(__doc__, file=sys.stderr)
        return 2
    out = Path(argv[1])
    out.mkdir(parents=True, exist_ok=True)
    max_rss_mb, runs = GROUPS[argv[0]]
    lines, failed = [], False
    for command, label, stem, cfg in runs(out):
        path = out / f"{stem}.json"
        path.write_text(json.dumps(cfg))
        start = time.perf_counter()
        code = cli.main([command, "--config", str(path), "--out", str(out / stem)])
        wall = time.perf_counter() - start
        failed |= code != 0
        lines.append(f"`{command}` {label}: exit {code}, {wall:.2f} s")
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
    lines.append(f"scaled-{argv[0]}: peak RSS {rss_mb:.0f} MB, bound {max_rss_mb} MB")
    summary = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary:
        with open(summary, "a") as fh:
            fh.write("".join(line + "\n" for line in lines))
    else:
        print("\n".join(lines))
    return 1 if failed or rss_mb > max_rss_mb else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

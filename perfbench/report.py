"""One-off traced report of the rows in the ROADMAP baseline table.

Run from the repository root (about ten minutes and 1 GB of memory, most of
both for the X=4 m=30 convexity check)::

    python3 perfbench/report.py

Prints a markdown table: each row's figure as this script measures it, the
figure the ROADMAP table gives, their ratio and whether they agree within
25 %.  Times come from one run of
each step with the layer tracer installed, so a row can be split into the
layer that dominates it.  The ROADMAP does not say which X=4 chain, which
threshold or which priors it used; this script uses the benchmark's
generated chain for seed 0, theta = (1.2, 0.3) and Dirichlet(1) priors.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import numpy as np  # noqa: E402

import phasestop  # noqa: E402
from phasestop import cli, dp, policy, sim  # noqa: E402
import spans  # noqa: E402
import workloads as wl  # noqa: E402

THETA = (1.2, 0.3)
MIN_SIM_SECONDS = 2.0
AGREE = 1.25  # ratios within [1/1.25, 1.25] count as agreeing


def solve_rows(label, model, spec, m, convexity, roadmap):
    grid = dp.build_grid(model.n_states, m)
    with spans.Tracer(phasestop) as tr:
        sol = dp.value_iterate(model, spec, grid, horizon=wl.HORIZON)
        regions = dp.extract_regions(sol, grid)
        if convexity:
            dp.convexity_check(regions.stop_indices, grid)
    rows = [
        (f"successor projection (`nearest`), {label}", tr.total["dp.nearest"], roadmap["succ"]),
        (f"`value_iterate`, {label}", tr.total["dp.value_iterate"], roadmap["vi"]),
    ]
    if convexity:
        r = len(regions.stop_indices)
        rows.append((f"`convexity_check`, {label} (R={r} stop points)",
                     tr.total["dp.convexity_check"], roadmap["conv"]))
    return rows


def sim_rows(model, spec, roadmap):
    pol = policy.LinearThresholdPolicy(np.array(THETA))
    rows = []
    for n, ref_us in roadmap.items():
        priors = np.random.default_rng(0).dirichlet(np.ones(model.n_states), size=n)
        per_traj = []
        start = time.perf_counter()
        rep = 0
        while time.perf_counter() - start < MIN_SIM_SECONDS or rep < 3:
            t0 = time.perf_counter()
            sim.simulate_batch(model, spec, pol, priors, np.random.default_rng(rep), max_steps=500)
            per_traj.append((time.perf_counter() - t0) / n)
            rep += 1
        rows.append((f"`simulate_batch` per trajectory, {n} rows (median of {rep})",
                     float(np.median(per_traj)) * 1e6, ref_us))
    return rows


def verdict(ratio: float) -> str:
    return "agrees" if 1 / AGREE <= ratio <= AGREE else "disagrees"


def main() -> int:
    fig3a = cli.load_config("fig3a")
    spec = cli.parse_cost(fig3a["cost"])
    x3 = cli.parse_model(fig3a["model"])
    x4 = cli.parse_model(wl.phase_chain(0))
    rows = []
    rows += solve_rows("X=3 m=50", x3, spec, 50, True, {"succ": 1.36, "vi": 1.35, "conv": 4.7})
    rows += solve_rows("X=3 m=100", x3, spec, 100, False, {"succ": 15.2, "vi": 15.8})
    rows += solve_rows("X=4 m=30", x4, spec, 30, True, {"succ": 16.0, "vi": 17.0, "conv": 119.0})
    sim_part = sim_rows(x3, spec, {100: 603.0, 1000: 145.0, 10_000: 98.0})

    print("| row | measured | ROADMAP | measured / ROADMAP | verdict |")
    print("|---|---|---|---|---|")
    for (what, got, ref), unit in [(r, "s") for r in rows] + [(r, "µs") for r in sim_part]:
        print(f"| {what} | {got:.3g} {unit} | {ref:g} {unit} | {got / ref:.2f} | {verdict(got / ref)} |")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

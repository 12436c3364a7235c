"""Run every bundled config, plus ``orders`` on the solve configs, into one directory.

It also writes five small fig3a-derived configs into the directory and runs
them: ``spsa`` (100 priors, 10 iterations, 3 restarts, 500-step cap) and
``simulate`` (2 000 trajectories under a fixed threshold policy), so that the
simulation paths are compared too; a transient-detection and a
risk-sensitive cost, each through ``solve`` and ``orders``, so that every
cost family has a bundled output; and fig3a's cost discounted by 0.9 with no
horizon, through ``solve`` and ``orders``, one converged solution with a
genuine threshold.  The two simulation configs and the discounted one
observe with variance 0.3, not fig3a's 0.01, so that the cost moves with the
threshold and SPSA's two perturbed policies stop different trajectories.
One more derived config replaces fig3a's model by a 4-phase change chain
(m=20, horizon 200, Gaussian observations), through ``solve`` and
``orders``: no bundled config has 4 states, and its stop region (833 of
1 771 grid points) is neither empty nor the whole grid, so the 4-state
successor, sweep, convexity and line-crossing code is compared too.

Usage: ``PYTHONPATH=src python scripts/bundled_outputs.py OUT_DIR``

Each command writes its output files into ``OUT_DIR`` and its console output
to ``OUT_DIR/<config>-<command>.stdout``.  The package is imported from
``PYTHONPATH``, so pointing it at another checkout's ``src`` runs that
checkout's code and configs; ``diff -r`` of two such directories shows
whether a change alters any bundled output.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

from phasestop import cli

RUNS = [
    ("fig3a", "solve"), ("fig3b", "solve"), ("fig3c", "solve"), ("fig3d", "solve"),
    ("fig4a", "solve"), ("fig4c", "solve"), ("blackwell", "solve"),
    ("social_optimum", "solve"), ("fig5", "sweep"), ("fig6", "sweep"),
    ("ph_example", "phdist"),
]

# name -> (commands, noisy, fields over fig3a's model, cost and bins); a noisy
# config observes with variance 0.3
DERIVED = {
    "fig3a_spsa": (("spsa",), True, {
        "priors": 100, "iterations": 10, "restarts": 3, "max_steps": 500,
        "gains": {"step": 0.15, "stability": 10.0, "perturb": 0.1},
    }),
    "fig3a_simulate": (("simulate",), True, {"policy": {"theta": [1.2, 0.3]}, "trajectories": 2000}),
    "fig3a_transient": (("solve", "orders"), False, {"cost": {
        "family": "transient", "alpha": 0.5, "beta": 1.0, "delays": [0, 1, 0], "rho": 0.9,
    }}),
    "fig3a_risk": (("solve", "orders"), False, {"cost": {
        "family": "risk_sensitive", "risk": 0.1, "beta": 3.0, "d": 1.0,
    }}),
    # fig3a's cost discounted, with no horizon: solved to convergence
    "fig3a_discounted": (("solve", "orders"), True, {"cost": {
        "family": "quickest_predictive", "alpha": 0, "beta": 1.0, "d": 1, "rho": 0.9,
        "op_cost": 0.001,
    }}),
    # phase 4 drifts to 3, 3 to 2 (rarely back), 2 to the absorbing change state 1
    "phase4": (("solve", "orders"), False, {"grid": {"m": 20}, "horizon": 200, "model": {
        "transition": [
            [1.0, 0.0, 0.0, 0.0],
            [0.29, 0.12, 0.59, 0.0],
            [0.0, 0.03, 0.97, 0.0],
            [0.0, 0.0, 0.07, 0.93],
        ],
        "initial": [0.0, 0.0, 0.0, 1.0],
        "observation": {"gaussian": {"means": [0.0, 1.0, 1.0, 1.0], "variances": [0.015] * 4}},
    }}),
}


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    out = Path(argv[0])
    out.mkdir(parents=True, exist_ok=True)
    runs = RUNS + [(name, "orders") for name, command in RUNS if command == "solve"]
    fig3a = cli.load_config("fig3a")
    for name, (commands, noisy, fields) in DERIVED.items():
        model = json.loads(json.dumps(fig3a["model"]))
        if noisy:
            gaussian = model["observation"]["gaussian"]
            gaussian["variances"] = [0.3] * len(gaussian["variances"])
        cfg = {"model": model, "cost": fig3a["cost"], "bins": fig3a["bins"], **fields}
        (out / f"{name}.json").write_text(json.dumps(cfg, indent=1) + "\n")
        runs.extend((name, command) for command in commands)
    failed = 0
    for name, command in runs:
        config = str(out / f"{name}.json") if name in DERIVED else name
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main([command, "--config", config, "--out", str(out)])
        (out / f"{name}-{command}.stdout").write_text(buf.getvalue())
        if code != 0:
            print(f"{command} {name}: exit {code}", file=sys.stderr)
            failed += 1
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

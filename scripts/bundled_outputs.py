"""Run every bundled config, plus ``orders`` on the solve configs, into one directory.

It also runs the six bundled configs derived from fig3a, and copies them
into the directory.  ``fig3a_spsa`` runs ``spsa`` (100 priors, 10
iterations, 3 restarts, 500-step cap) and ``fig3a_simulate`` runs
``simulate`` (2 000 trajectories under a fixed threshold policy), so that
the simulation paths are compared too.  ``fig3a_transient`` and
``fig3a_risk`` hold a transient-detection and a risk-sensitive cost, so
that every cost family has a bundled output.  ``fig3a_discounted`` is
fig3a's cost discounted by 0.9 with no horizon: one converged solution with
a genuine threshold.  The two simulation configs and the discounted one
observe with variance 0.3, not fig3a's 0.01, so that the cost moves with the
threshold and SPSA's two perturbed policies stop different trajectories.
``phase4`` replaces fig3a's model by a 4-phase change chain (m=20, horizon
200, Gaussian observations): no bundled config has 4 states, and its stop
region (833 of 1 771 grid points) is neither empty nor the whole grid, so
the 4-state successor, sweep, convexity and line-crossing code is compared
too.  The cost-family, discounted and 4-phase configs run ``solve`` and
``orders``.

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
import sys
from importlib import resources
from pathlib import Path

from phasestop import cli

RUNS = [
    ("fig3a", "solve"), ("fig3b", "solve"), ("fig3c", "solve"), ("fig3d", "solve"),
    ("fig4a", "solve"), ("fig4c", "solve"), ("blackwell", "solve"),
    ("social_optimum", "solve"), ("fig5", "sweep"), ("fig6", "sweep"),
    ("ph_example", "phdist"),
]

# bundled configs derived from fig3a, with the commands each runs
DERIVED = {
    "fig3a_spsa": ("spsa",),
    "fig3a_simulate": ("simulate",),
    "fig3a_transient": ("solve", "orders"),
    "fig3a_risk": ("solve", "orders"),
    "fig3a_discounted": ("solve", "orders"),
    "phase4": ("solve", "orders"),
}


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    out = Path(argv[0])
    out.mkdir(parents=True, exist_ok=True)
    runs = RUNS + [(name, "orders") for name, command in RUNS if command == "solve"]
    configs = resources.files("phasestop.configs")
    for name, commands in DERIVED.items():
        (out / f"{name}.json").write_text(configs.joinpath(f"{name}.json").read_text())
        runs.extend((name, command) for command in commands)
    failed = 0
    for name, command in runs:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main([command, "--config", name, "--out", str(out)])
        (out / f"{name}-{command}.stdout").write_text(buf.getvalue())
        if code != 0:
            print(f"{command} {name}: exit {code}", file=sys.stderr)
            failed += 1
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

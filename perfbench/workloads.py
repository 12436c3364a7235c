"""Workloads: generated configs, one round of CLI commands each, output checks.

Every command goes through ``phasestop.cli.main`` in-process.  A workload is
a list of command kinds run in order as one *round*; the benchmark repeats
rounds for the measured time.

* ``solve``: fig3a at m=50 (X=3, N=1326), then a 4-phase chain drawn from
  the seed at m=20 (X=4, N=1771).  Time goes to successor projection
  (``SimplexGrid.nearest``) and ``convexity_check``; nothing is simulated.
* ``spsa``: fig3a with 100 Dirichlet priors, a 500-step cap, the gains of
  acceptance criterion 09 and 4 restarts of 3 iterations per command.
  Small batches, so ``simulate_batch`` is bound by per-step Python
  overhead; the linear policy never calls ``nearest``.  An iteration's cost
  follows the stopping times its parameters give, so the unit of work is a
  simulated trajectory-step (see :class:`TrajectorySteps`).
* ``montecarlo``: 20 000 fig3a trajectories under the m=20 grid policy,
  read from a solution CSV written during set-up, 10 000-step cap, 3
  recorded trajectories.  One large batch with a long, thin tail; ``nearest``
  runs once per step and the recorded paths use ``filters.hmm_update``.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from phasestop import cli, policy

FIG3A = cli.load_config("fig3a")
HORIZON = 200
SPSA_GAINS = {"step": 0.15, "stability": 10.0, "perturb": 0.1}  # criterion 09


@dataclass(frozen=True)
class Scale:
    """Sizes of the generated inputs; ``FULL`` is the benchmark's."""

    solve_m3: int = 50
    solve_m4: int = 20
    policy_m: int = 20
    spsa_priors: int = 100
    spsa_iterations: int = 3
    spsa_restarts: int = 4
    spsa_max_steps: int = 500
    trajectories: int = 20_000
    record: int = 3
    max_steps: int = 10_000


FULL = Scale()
WARMUP = Scale(
    spsa_priors=10, spsa_iterations=1, spsa_restarts=1, spsa_max_steps=50,
    trajectories=100, record=1, max_steps=500,
)


def phase_chain(seed: int) -> dict:
    """A 4-phase change model drawn from ``seed``.

    Phase 4 drifts to 3, phase 3 to 2 (rarely back), phase 2 to the absorbing
    state 1; only the post-change mean differs.  The ranges are narrow so
    that the stop region, whose size sets the convexity check's cost,
    stays within a few percent across seeds.
    """
    rng = np.random.default_rng([seed, 4])
    a, r = rng.uniform(0.28, 0.30), rng.uniform(0.58, 0.60)
    q, s = 0.03, rng.uniform(0.06, 0.075)
    var = rng.uniform(0.012, 0.019)
    return {
        "transition": [
            [1.0, 0.0, 0.0, 0.0],
            [a, 1.0 - a - r, r, 0.0],
            [0.0, q, 1.0 - q, 0.0],
            [0.0, 0.0, s, 1.0 - s],
        ],
        "initial": [0.0, 0.0, 0.0, 1.0],
        "observation": {"gaussian": {"means": [0.0, 1.0, 1.0, 1.0], "variances": [var] * 4}},
    }


def make_configs(seed: int, work: Path, policy_csv: Path, scale: Scale = FULL) -> dict[str, Path]:
    """Write every config of every workload under ``work``; returns name -> path.

    The ``sim`` config reads its grid policy from ``policy_csv``, which the
    ``policy`` solve writes when run with ``--out`` set to its directory.
    """
    work.mkdir(parents=True, exist_ok=True)
    base = {k: FIG3A[k] for k in ("model", "cost", "bins")}
    cfgs = {
        "x3": {**base, "grid": {"m": scale.solve_m3}, "horizon": HORIZON},
        "x4": {
            "model": phase_chain(seed),
            "cost": FIG3A["cost"],
            "bins": FIG3A["bins"],
            "grid": {"m": scale.solve_m4},
            "horizon": HORIZON,
        },
        "policy": {**base, "grid": {"m": scale.policy_m}, "horizon": HORIZON},
        "spsa": {
            **base,
            "priors": scale.spsa_priors,
            "iterations": scale.spsa_iterations,
            "restarts": scale.spsa_restarts,
            "max_steps": scale.spsa_max_steps,
            "gains": SPSA_GAINS,
        },
        "sim": {
            **base,
            "policy": {"solution": str(policy_csv)},
            "trajectories": scale.trajectories,
            "record": scale.record,
            "max_steps": scale.max_steps,
        },
    }
    paths = {}
    for name, cfg in cfgs.items():
        paths[name] = work / f"{name}.json"
        paths[name].write_text(json.dumps(cfg, indent=1))
    return paths


# ---------------------------------------------------------------------------
# Output checks: each returns a list of problems (empty when correct).


def _csv_rows(path: Path) -> list[dict]:
    with path.open() as fh:
        return list(csv.DictReader(fh))


def check_solve(out: Path, cfg_path: Path) -> list[str]:
    cfg = json.loads(cfg_path.read_text())
    name = cfg_path.stem
    report = json.loads((out / f"{name}_report.json").read_text())
    x = len(cfg["model"]["initial"])
    m = cfg["grid"]["m"]
    want = math.comb(m + x - 1, x - 1)
    problems = []
    if report["grid_points"] != want:
        problems.append(f"{name}: grid_points {report['grid_points']} != C({m}+{x}-1,{x}-1)={want}")
    if report["sweeps"] != cfg["horizon"]:
        problems.append(f"{name}: sweeps {report['sweeps']} != horizon {cfg['horizon']}")
    rows = _csv_rows(out / f"{name}_solution.csv")
    if len(rows) != want:
        problems.append(f"{name}: solution has {len(rows)} rows, expected {want}")
    if not all(math.isfinite(float(r["value"])) for r in rows):
        problems.append(f"{name}: non-finite values in the solution")
    return problems


def check_spsa(out: Path, cfg_path: Path) -> list[str]:
    summary = json.loads((out / f"{cfg_path.stem}_policy.json").read_text())
    theta = summary["theta"]
    problems = []
    if not summary["feasible"] or not all(map(math.isfinite, theta)):
        problems.append(f"spsa: infeasible theta {theta}")
    if not (summary["evaluation_cost"] is not None and math.isfinite(summary["evaluation_cost"])):
        problems.append(f"spsa: evaluation cost {summary['evaluation_cost']}")
    return problems


def check_simulate(out: Path, cfg_path: Path) -> list[str]:
    cfg = json.loads(cfg_path.read_text())
    name = cfg_path.stem
    s = json.loads((out / f"{name}_summary.json").read_text())
    cost = cfg["cost"]
    want = cost["d"] * s["mean_delay"] + cost["beta"] * s["false_alarm_rate"]
    problems = []
    if s["trajectories"] != cfg["trajectories"]:
        problems.append(f"simulate: {s['trajectories']} trajectories, expected {cfg['trajectories']}")
    if not math.isclose(s["criterion"], want, rel_tol=1e-12, abs_tol=1e-12):
        problems.append(f"simulate: criterion {s['criterion']} != d*delay + beta*false_alarm = {want}")
    for k in range(min(cfg["record"], cfg["trajectories"])):
        if not _csv_rows(out / f"{name}_trajectory{k}.csv"):
            problems.append(f"simulate: trajectory {k} is empty")
    return problems


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Command:
    """One CLI invocation kind: subcommand, config name, work units, check;
    ``host_probe`` scales its measured time by the host's speed around it
    (see ``hostspeed.py``)."""

    label: str
    sub: str
    config: str
    check: Callable[[Path, Path], list[str]]
    host_probe: bool = False

    def work(self, cfg: dict, trajectory_steps: int) -> float:
        """Units of work one command does (grid points, trajectory-steps,
        trajectories)."""
        if self.sub == "solve":
            x = len(cfg["model"]["initial"])
            return math.comb(cfg["grid"]["m"] + x - 1, x - 1)
        if self.sub == "spsa":
            return trajectory_steps
        return cfg["trajectories"]


SOLVE_X3 = Command("solve_x3", "solve", "x3", check_solve)
SOLVE_X4 = Command("solve_x4", "solve", "x4", check_solve)
POLICY = Command("policy", "solve", "policy", check_solve)
SPSA = Command("spsa", "spsa", "spsa", check_spsa, host_probe=True)
SIMULATE = Command("simulate", "simulate", "sim", check_simulate)

WORKLOADS = {
    "solve": (SOLVE_X3, SOLVE_X4),
    "spsa": (SPSA,),
    "montecarlo": (SIMULATE,),
}
WORK_UNIT = {"solve": "grid points", "spsa": "trajectory-steps", "montecarlo": "trajectories"}


class TrajectorySteps:
    """Counts the trajectory-steps SPSA simulates while installed.

    A restart that starts in the flat "always stop" region simulates one step
    per trajectory; one elsewhere runs up to the 500-step cap, so SPSA
    iterations cost from milliseconds to a second.  The sum of the stopping
    times of every batch ``policy.simulate_batch`` returns is the work
    SPSA asked for, whatever path it took.  One wrapper call per batch adds
    microseconds to a command of about a second.
    """

    def __init__(self):
        self.count = 0

    def __enter__(self):
        self._batch = batch = policy.simulate_batch

        def counted(*args, **kwargs):
            result = batch(*args, **kwargs)
            self.count += int(result.tau.sum())
            return result

        policy.simulate_batch = counted
        return self

    def __exit__(self, *exc):
        policy.simulate_batch = self._batch
        return False


def run_command(cmd: Command, paths: dict[str, Path], out: Path, seed: int) -> list[str]:
    """Run one command through ``cli.main``; returns its problems (empty if correct)."""
    argv = [cmd.sub, "--config", str(paths[cmd.config]), "--out", str(out), "--seed", str(seed)]
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
    except Exception as exc:  # a raising command is a failed command, not a crash
        return [f"{cmd.label}: raised {type(exc).__name__}: {exc}"]
    if code != 0:
        return [f"{cmd.label}: exit code {code}"]
    try:
        return cmd.check(out, paths[cmd.config])
    except (OSError, KeyError, ValueError) as exc:
        return [f"{cmd.label}: unreadable output ({type(exc).__name__}: {exc})"]


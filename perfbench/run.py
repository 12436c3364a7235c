"""phasestop benchmark: drive the CLI in-process on generated inputs.

Run from the repository root::

    python3 perfbench/run.py --workload solve --seed 0 --seconds 30 --trace 0

``--trace 0`` reports the end-to-end metrics with tracing off; ``--trace 1``
reruns the same inputs with every layer wrapped (see ``spans.py``) and reports
the per-layer metrics.  Human-readable lines come first; the last line of
standard output is one JSON object ``{correct, attempted, failed, metrics}``.
A result file with the environment, per-command times and, when traced, the
span tables is written under ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if not (ROOT / "src" / "phasestop" / "__init__.py").is_file():
    sys.exit(f"error: no phasestop package under {ROOT / 'src'}; run from a repository checkout")
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import hostspeed  # noqa: E402
import phasestop  # noqa: E402
import spans  # noqa: E402
import workloads as wl  # noqa: E402

SETUP_REPS = 5
OUT_DIR = ROOT / ".perfbench"
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import phasestop.cli; "
    "print(time.perf_counter() - t)"
)

# metric name -> unit, for --trace 0 (end_to_end) and --trace 1 (per_layer);
# per-layer times and counts are per measured round
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


# ---------------------------------------------------------------------------
# Environment


def _git_sha(root: Path) -> str:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = root / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def _cpu() -> dict:
    info = {"model": platform.processor() or "unknown", "caches": {}}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["model"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((idx / f).read_text().strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        tag = f"L{level}" + {"Data": "d", "Instruction": "i"}.get(kind, "")
        info["caches"][tag] = f"{size} per instance"
    return info


def _blas() -> dict:
    """BLAS library and its thread count, read from the loaded OpenBLAS."""
    cfg = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    out = {"name": cfg.get("name"), "version": cfg.get("version"), "threads": None}
    try:
        maps = Path("/proc/self/maps").read_text().splitlines()
    except OSError:
        return out
    libs = {line.split()[-1] for line in maps if "openblas" in line.lower() and ".so" in line}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out["threads"] = int(fn())
                return out
    return out


def environment() -> dict:
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    blas = _blas()
    return {
        "git_sha": _git_sha(ROOT),
        "nproc": nproc,
        "cpu": _cpu(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads_within_nproc": blas["threads"] is None or blas["threads"] <= nproc,
    }


# ---------------------------------------------------------------------------
# Set-up and measurement


class Run:
    """Counts commands and failures; keeps per-command times and work done.

    ``scaled`` sums the measured seconds, each divided by the host slowdown
    probed around its command where the command asks for it (``spsa``, see
    ``hostspeed.py``) and by 1 elsewhere."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.setup_s: list[float] = []
        self.times: dict[str, list[float]] = {}
        self.steps: dict[str, list[int]] = {}  # trajectory-steps SPSA simulated
        self.work = 0.0
        self.busy = 0.0
        self.scaled = 0.0
        self.slowdowns: list[float] = []
        self.rounds = 0

    def command(self, cmd, paths, out, seed, measured=True):
        probed = measured and cmd.host_probe
        before = hostspeed.slowdown() if probed else 1.0
        with wl.TrajectorySteps() as steps:
            t0 = time.perf_counter()
            problems = wl.run_command(cmd, paths, out, seed)
            dt = time.perf_counter() - t0
        after = hostspeed.slowdown() if probed else 1.0
        self.attempted += 1
        self.failed += bool(problems)
        self.problems.extend(problems)
        if measured:
            self.times.setdefault(cmd.label, []).append(dt)
            self.steps.setdefault(cmd.label, []).append(steps.count)
            self.busy += dt
            self.scaled += dt * 2.0 / (before + after)
            if probed:
                self.slowdowns += [before, after]
            if not problems:
                self.work += cmd.work(json.loads(paths[cmd.config].read_text()), steps.count)


def import_seconds() -> float:
    """Import time of ``phasestop.cli`` in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    res = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(res.stdout.strip().splitlines()[-1])


def setup(run: Run, seed: int, work: Path) -> dict:
    """Import, config generation, the montecarlo policy solve and a small
    warm-up of the spsa and simulate paths.  Returns the config paths."""
    t_import = import_seconds()
    t0 = time.perf_counter()
    policy_csv = work / "policy_solution.csv"
    paths = wl.make_configs(seed, work, policy_csv)
    run.command(wl.POLICY, paths, work, seed, measured=False)
    warm = wl.make_configs(seed, work / "warmup", policy_csv, wl.WARMUP)
    for cmd in (wl.SPSA, wl.SIMULATE):
        run.command(cmd, warm, work / "warmup", seed, measured=False)
    run.setup_s.append(t_import + time.perf_counter() - t0)
    return paths


def measure(run: Run, workload: str, paths: dict, out: Path, seed: int, seconds: float,
            between=None):
    """Repeat rounds of the workload's commands; a round starts only when it
    is expected to end within ``seconds`` of measured time.  Command k of the
    run gets seed ``seed * 1000 + k``.  ``between(fraction_done)`` runs
    after each round but the last, outside the measured time."""
    k = 0
    while True:
        for cmd in wl.WORKLOADS[workload]:
            run.command(cmd, paths, out, seed * 1000 + k)
            k += 1
        run.rounds += 1
        if run.busy + run.busy / run.rounds > seconds:
            return
        if between is not None:
            between(run.busy / seconds)


# ---------------------------------------------------------------------------
# Reporting


def end_to_end(run: Run) -> dict:
    return {
        "work_per_s": run.work / run.scaled,
        "setup_s": statistics.median(run.setup_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def named(run: Run, workload: str, metrics: dict) -> dict:
    """The end-to-end figures under the names the workloads are discussed by."""
    out = {}
    if workload == "solve":
        out["solve_x3_s"] = (statistics.median(run.times["solve_x3"]), "s")
        out["solve_x4_s"] = (statistics.median(run.times["solve_x4"]), "s")
        out["grid_points_per_s"] = (metrics["work_per_s"], "1/s")
    elif workload == "spsa":
        iterations = len(run.times["spsa"]) * wl.FULL.spsa_iterations * wl.FULL.spsa_restarts
        out["spsa_iters_per_s"] = (iterations / run.busy, "1/s")
        out["trajectory_steps_per_s"] = (metrics["work_per_s"], "1/s")
    else:
        out["sim_traj_per_s"] = (metrics["work_per_s"], "1/s")
    if run.slowdowns:
        out["raw_work_per_s"] = (run.work / run.busy, "1/s")
        out["host_slowdown"] = (statistics.median(run.slowdowns), "x")
    out["setup_s"] = (metrics["setup_s"], "s")
    out["peak_rss_mb"] = (metrics["peak_rss_mb"], "MB")
    out["failed_frac"] = (run.failed / run.attempted, "fraction")
    return out


def per_layer(tracer: spans.Tracer, run: Run, span_cost: float) -> dict:
    t, n, c = tracer.total, tracer.calls, tracer.counts
    r = run.rounds
    raw = {
        "dp.nearest_s": t["dp.nearest"],
        "dp.nearest_calls": n["dp.nearest"],
        "dp.nearest_rows": c["dp.nearest_rows"],
        "dp.nearest_ops_computed": c["dp.nearest_ops_computed"],
        "dp.nearest_bytes_computed": c["dp.nearest_bytes_computed"],
        "dp.convexity_check_s": t["dp.convexity_check"],
        "dp.convexity_pairs": c["dp.convexity_pairs"],
        "dp.convexity_ops_computed": c["dp.convexity_ops_computed"],
        "dp.value_iterate_s": t["dp.value_iterate"],
        "dp.value_iterate_self_s": tracer.self_time["dp.value_iterate"],
        "dp.sweeps": c["dp.sweeps"],
        "dp.build_grid_s": t["dp.build_grid"],
        "dp.extract_regions_s": t["dp.extract_regions"],
        "dp.line_crossing_check_s": t["dp.line_crossing_check"],
        "dp.solution_csv_s": t["dp.solution_csv"],
        "sim.simulate_batch_s": t["sim.simulate_batch"],
        "sim.simulate_batch_calls": n["sim.simulate_batch"],
        "sim.loop_steps": c["sim.loop_steps"],
        "sim.belief_steps": c["sim.belief_steps"],
        "sim.sample_trajectory_s": t["sim.sample_trajectory"],
        "filters.hmm_update_calls": n["filters.hmm_update"],
        "filters.hmm_update_s": t["filters.hmm_update"],
        "model.discrete_obs_calls": n["model.discrete_obs"],
        "model.discrete_obs_s": t["model.discrete_obs"],
        "policy.spsa_optimize_s": t["policy.spsa_optimize"],
        "policy.sample_cost_calls": n["policy.sample_cost"],
        "policy.sample_cost_s": t["policy.sample_cost"],
        "orders.check_assumptions_s": t["orders.check_assumptions"],
        "model.validate_model_s": t["model.validate_model"],
        "cli.main_s": t["cli.main"],
        "cli.self_s": tracer.layer_self("cli"),
        "trace.overhead_s": tracer.n_spans * span_cost,
    }
    out = {k: v / r for k, v in raw.items()}
    out["sim.rows_per_loop_step"] = c["sim.belief_steps"] / max(c["sim.loop_steps"], 1)
    out["sim.censored_frac"] = c["sim.censored_rows"] / max(c["sim.rows"], 1)
    out["policy.flat_iter_frac"] = c["policy.flat_iterations"] / max(c["policy.spsa_iterations"], 1)
    out["bench.rounds"] = r
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    env = environment()
    if not env["blas_threads_within_nproc"]:
        print(f"warning: {env['blas']['threads']} BLAS threads on {env['nproc']} CPUs")
    OUT_DIR.mkdir(exist_ok=True)
    work = OUT_DIR / f"work-{os.getpid()}"
    run = Run()
    tracer = spans.Tracer(phasestop) if args.trace else None
    try:
        if tracer is None:
            paths = setup(run, args.seed, work)

            def between(done):
                # spread the set-ups over the run, so that their median sees
                # the same host conditions as the measured rounds
                while len(run.setup_s) < 1 + int(done * (SETUP_REPS - 1)):
                    setup(run, args.seed, work)

            measure(run, args.workload, paths, work / "out", args.seed, args.seconds, between)
            between(1.0)
        else:
            # one traced set-up: every layer gets some spans on every workload
            span_cost = spans.span_cost(phasestop)
            tracer.install()
            paths = setup(run, args.seed, work)
            measure(run, args.workload, paths, work / "out", args.seed, args.seconds)
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)

    e2e = end_to_end(run)
    if tracer is None:
        metrics, units = e2e, END_TO_END
    else:
        metrics, units = per_layer(tracer, run, span_cost), PER_LAYER
    figures = named(run, args.workload, e2e)

    print(f"env: {json.dumps(env)}")
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} rounds={run.rounds} "
          f"work={run.work:g} {wl.WORK_UNIT[args.workload]} in {run.busy:.3f} s")
    for name, (value, unit) in figures.items():
        print(f"  {name:<24} {value:14.6g} {unit}{'  (traced)' if tracer else ''}")
    if tracer is not None:
        for name in ("policy.flat_iter_frac", "sim.loop_steps", "sim.belief_steps",
                     "sim.rows_per_loop_step", "trace.overhead_s"):
            print(f"  {name:<24} {metrics[name]:14.6g} {PER_LAYER[name]}")
    for p in run.problems:
        print(f"  problem: {p}")

    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": float(metrics[k]), "unit": u} for k, u in units.items()},
    }
    record = {
        "args": vars(args),
        "env": env,
        "named": {k: v[0] for k, v in figures.items()},
        "command_seconds": run.times,
        "command_trajectory_steps": run.steps,
        "host_slowdowns": run.slowdowns,
        "setup_seconds": run.setup_s,
        "problems": run.problems,
        "result": result,
    }
    if tracer is not None:
        record["layers"] = {
            k: {"calls": tracer.calls[k], "total_s": tracer.total[k], "self_s": tracer.self_time[k]}
            for k in sorted(tracer.calls)
        }
        record["edges"] = [[p, c, n] for (p, c), n in sorted(tracer.edges.items(), key=str)]
        record["spans"] = tracer.spans
    results = OUT_DIR / "results"
    results.mkdir(exist_ok=True)
    target = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    target.write_text(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

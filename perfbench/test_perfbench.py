"""Tests of the benchmark's tracer and workloads, at small input sizes.

Run from the repository root: ``python3 -m pytest -q perfbench``.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import phasestop  # noqa: E402
import run as bench  # noqa: E402
import spans  # noqa: E402
import workloads as wl  # noqa: E402

SMALL = wl.Scale(
    solve_m3=8, solve_m4=5, policy_m=8, spsa_priors=10, spsa_iterations=2,
    trajectories=200, record=2, max_steps=500,
)

# spans each workload's own commands must record (a missed binding reads 0)
EXPECTED = {
    "solve": [
        "cli.main", "cli.cmd_solve", "model.validate_model", "model.discrete_obs",
        "orders.check_assumptions", "dp.build_grid", "dp.value_iterate", "dp.nearest",
        "dp.stage_cost_vectors", "dp.convexity_check", "dp.extract_regions",
        "dp.line_crossing_check", "dp.solution_csv",
    ],
    "spsa": [
        "cli.cmd_spsa", "policy.optimize_with_restarts", "policy.spsa_optimize",
        "policy.sample_cost", "sim.simulate_batch", "dp.stage_cost_vectors",
        "model.discrete_obs", "orders.check_assumptions",
    ],
    "montecarlo": [
        "cli.cmd_simulate", "dp.build_grid", "dp.nearest", "sim.simulate_batch",
        "sim.sample_trajectory", "filters.hmm_update", "model.discrete_obs",
        "sim.decompose_from_times", "sim.trajectory_csv",
    ],
}

# (caller, callee) pairs reached only through a `from ... import` copy, a
# dict of commands or a class attribute
EDGES = {
    "solve": [
        ("cli.main", "cli.cmd_solve"),
        ("cli.cmd_solve", "model.validate_model"),
        ("dp.value_iterate", "dp.nearest"),
        ("dp.value_iterate", "model.discrete_obs"),
    ],
    "spsa": [
        ("cli.main", "cli.cmd_spsa"),
        ("policy.sample_cost", "sim.simulate_batch"),
        ("sim.simulate_batch", "dp.stage_cost_vectors"),
    ],
    "montecarlo": [
        ("cli.main", "cli.cmd_simulate"),
        ("sim.simulate_batch", "dp.nearest"),
        ("sim.sample_trajectory", "filters.hmm_update"),
        ("filters.hmm_update", "model.discrete_obs"),
    ],
}


@pytest.fixture(scope="module")
def configs(tmp_path_factory):
    work = tmp_path_factory.mktemp("bench")
    paths = wl.make_configs(3, work, work / "policy_solution.csv", SMALL)
    assert wl.run_command(wl.POLICY, paths, work, 3) == []
    return paths, work


def _bindings():
    """Every function-valued binding the tracer may replace, by identity."""
    out = {}
    for layer in spans.LAYERS:
        mod = getattr(phasestop, layer)
        for name, obj in vars(mod).items():
            if callable(obj):
                out[(layer, name)] = obj
            elif isinstance(obj, dict):
                out.update({(layer, name, k): v for k, v in obj.items() if callable(v)})
    for layer, cls, meth in spans.METHODS:
        out[(layer, cls, meth)] = vars(getattr(getattr(phasestop, layer), cls))[meth]
    return out


@pytest.mark.parametrize("workload", sorted(wl.WORKLOADS))
def test_each_layer_binding_records_calls(workload, configs):
    paths, work = configs
    with spans.Tracer(phasestop) as tracer:
        for k, cmd in enumerate(wl.WORKLOADS[workload]):
            assert wl.run_command(cmd, paths, work / "out", k) == []
    idle = [name for name in EXPECTED[workload] if tracer.calls[name] == 0]
    assert idle == []
    missing = [e for e in EDGES[workload] if tracer.edges[e] == 0]
    assert missing == []
    for name in tracer.calls:
        assert 0.0 <= tracer.self_time[name] <= tracer.total[name] + 1e-9


def test_probe_counts_follow_sizes(configs):
    paths, work = configs
    with spans.Tracer(phasestop) as tracer:
        assert wl.run_command(wl.SOLVE_X3, paths, work / "out", 0) == []
        assert wl.run_command(wl.SPSA, paths, work / "out", 1) == []
    c = tracer.counts
    n_points, x = 45, 3  # m=8, X=3
    assert c["dp.nearest_ops_computed"] == c["dp.nearest_rows"] * n_points * x
    assert c["dp.nearest_bytes_computed"] == c["dp.nearest_rows"] * n_points * 8
    assert c["dp.convexity_ops_computed"] == c["dp.convexity_pairs"] * n_points * x
    assert c["dp.sweeps"] == wl.HORIZON
    assert c["policy.spsa_iterations"] == SMALL.spsa_iterations * SMALL.spsa_restarts
    assert 0 <= c["policy.flat_iterations"] <= c["policy.spsa_iterations"]
    assert c["sim.loop_steps"] <= c["sim.belief_steps"] <= c["sim.rows"] * SMALL.spsa_max_steps


def test_uninstall_restores_every_binding(configs):
    before = _bindings()
    with spans.Tracer(phasestop):
        during = _bindings()
    after = _bindings()
    assert before == after
    assert all(before[k] is after[k] for k in before)
    replaced = {k for k in before if during[k] is not before[k]}
    for key in [("policy", "simulate_batch"), ("sim", "hmm_update"), ("sim", "stage_cost_vectors"),
                ("cli", "validate_model"), ("cli", "_COMMANDS", "solve"),
                ("dp", "SimplexGrid", "nearest"), ("model", "DetectionModel", "discrete_obs")]:
        assert key in replaced


def test_per_layer_reports_every_metric(configs):
    paths, work = configs
    run = bench.Run()
    with spans.Tracer(phasestop) as tracer:
        bench.measure(run, "montecarlo", paths, work / "out", 0, seconds=0.0)
    metrics = bench.per_layer(tracer, run, span_cost=1e-6)
    assert set(metrics) == set(bench.PER_LAYER)
    assert run.rounds == 1 and run.failed == 0
    for name in ("dp.nearest_s", "sim.simulate_batch_s", "sim.belief_steps",
                 "filters.hmm_update_calls", "model.discrete_obs_s", "trace.overhead_s"):
        assert metrics[name] > 0, name


def test_trajectory_steps_count_what_spsa_simulates(configs):
    paths, work = configs
    before = phasestop.policy.simulate_batch
    with spans.Tracer(phasestop) as tracer, wl.TrajectorySteps() as steps:
        assert wl.run_command(wl.SPSA, paths, work / "out", 2) == []
    assert phasestop.policy.simulate_batch is before
    assert steps.count == tracer.counts["sim.belief_steps"] > 0
    cfg = {"iterations": SMALL.spsa_iterations, "restarts": SMALL.spsa_restarts}
    assert wl.SPSA.work(cfg, steps.count) == steps.count


def test_only_spsa_time_is_scaled_by_the_host_probe(configs):
    paths, work = configs
    run = bench.Run()
    run.command(wl.SPSA, paths, work / "out", 4)
    run.command(wl.SOLVE_X3, paths, work / "out", 5)
    run.command(wl.SPSA, paths, work / "out", 6, measured=False)
    assert len(run.slowdowns) == 2 and min(run.slowdowns) > 0
    spsa_s, solve_s = run.times["spsa"][0], run.times["solve_x3"][0]
    assert run.scaled == pytest.approx(spsa_s * 2.0 / sum(run.slowdowns) + solve_s)


def test_same_seed_same_inputs(tmp_path):
    a = wl.make_configs(7, tmp_path / "a", tmp_path / "p.csv")
    b = wl.make_configs(7, tmp_path / "b", tmp_path / "p.csv")
    c = wl.make_configs(8, tmp_path / "c", tmp_path / "p.csv")
    assert all(a[k].read_text() == b[k].read_text() for k in a)
    assert a["x4"].read_text() != c["x4"].read_text()

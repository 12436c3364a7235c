import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from phasestop import cli, sim
from phasestop import policy as pol

BUNDLED = [
    "fig3a", "fig3b", "fig3c", "fig3d", "fig4a", "fig4c",
    "fig5", "fig6", "blackwell", "social_optimum", "ph_example",
]

SMALL_MODEL = {
    "transition": [[1, 0], [0.3, 0.7]],
    "initial": [0, 1],
    "observation": {"discrete": [[0.8, 0.2], [0.2, 0.8]]},
}

SMALL_COST = {
    "family": "quickest_classical",
    "alpha": 0.0, "beta": 5.0, "d": 1.0, "rho": 1.0,
    "false_alarm": [0, 1],
}


def write_config(tmp_path, name, cfg):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def test_bundled_configs_parse():
    for name in BUNDLED:
        cfg = cli.load_config(name)
        if "model" in cfg:
            cli.parse_model(cfg["model"])
        if "cost" in cfg:
            cli.parse_cost(cfg["cost"])
        if "models" in cfg:
            for entry in cfg["models"]:
                cli.parse_model(entry["model"])


def test_unknown_config_rejected(capsys):
    assert cli.main(["solve", "--config", "no_such_config"]) == 2
    assert "no such file" in capsys.readouterr().err


def test_config_validation_messages(tmp_path, capsys):
    bad = write_config(tmp_path, "bad", {"model": SMALL_MODEL, "cost": {"family": "nope"}})
    assert cli.main(["solve", "--config", bad, "--out", str(tmp_path)]) == 2
    assert "unknown family" in capsys.readouterr().err
    bad2 = write_config(tmp_path, "bad2", {"cost": SMALL_COST})
    assert cli.main(["solve", "--config", bad2, "--out", str(tmp_path)]) == 2
    assert "missing required field" in capsys.readouterr().err


def test_solve_roundtrip_and_reproducibility(tmp_path):
    cfg = {
        "model": SMALL_MODEL,
        "cost": SMALL_COST,
        "grid": {"m": 60},
        "tol": 1e-10,
        "seed": 1,
    }
    ref = write_config(tmp_path, "small", cfg)
    out1 = tmp_path / "o1"
    out2 = tmp_path / "o2"
    assert cli.main(["solve", "--config", ref, "--out", str(out1)]) == 0
    assert cli.main(["solve", "--config", ref, "--out", str(out2)]) == 0
    a = (out1 / "small_solution.csv").read_bytes()
    b = (out2 / "small_solution.csv").read_bytes()
    assert a == b
    lines = a.decode().splitlines()
    assert lines[0] == "c0,c1,value,policy,component"
    assert len(lines) == 62
    report = json.loads((out1 / "small_report.json").read_text())
    assert report["stop_components"] == 1


def test_orders_command_eq52_family(tmp_path, capsys):
    def cfg(p, f):
        return {
            "model": {
                "transition": [[1, 0, 0], [0.3, 0.6, 0.1], [0.1, p, round(0.9 - p, 10)]],
                "initial": [0, 0, 1],
                "observation": {"gaussian": {"means": [0, 1, 1], "variances": [4, 4, 4]}},
            },
            "cost": {
                "family": "quickest_classical",
                "alpha": 0.5, "beta": 1.0, "d": 1.0, "rho": 0.75,
                "false_alarm": f,
            },
        }

    good = write_config(tmp_path, "good", cfg(0.2, [0, 1, 2]))
    assert cli.main(["orders", "--config", good, "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out

    bad = write_config(tmp_path, "badp", cfg(0.1, [0, 1, 2]))
    assert cli.main(["orders", "--config", bad, "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert any("A3" in line and "FAIL" in line for line in out.splitlines())


@pytest.mark.parametrize("command", ["orders", "solve"])
def test_quickest_classical_without_false_alarm_penalty(tmp_path, capsys, command):
    # beta = 0: AS-Ex1(i) and (iii) are checked multiplied through by beta
    cost = {**SMALL_COST, "beta": 0.0}
    ref = write_config(tmp_path, "nobeta", {"model": SMALL_MODEL, "cost": cost})
    assert cli.main([command, "--config", ref, "--out", str(tmp_path)]) == 0
    checks = [line for line in capsys.readouterr().out.splitlines() if line.startswith("AS-Ex1")]
    assert len(checks) == 3 and all(" pass " in line for line in checks)
    assert "at b = 0" in checks[0] and "at b = 0" in checks[2]
    # alpha = 2 breaks (i): its slack is d - alpha - rho alpha f'P'e_2 = 1 - 2 - 1.4
    cost = {**cost, "alpha": 2.0}
    ref = write_config(tmp_path, "nobeta2", {"model": SMALL_MODEL, "cost": cost})
    assert cli.main([command, "--config", ref, "--out", str(tmp_path)]) == 0
    first = next(line for line in capsys.readouterr().out.splitlines() if "AS-Ex1(i) " in line)
    assert "FAIL" in first and "slack=-2.4" in first


def test_spsa_rejects_invalid_gains(tmp_path, capsys):
    cfg = {
        "model": SMALL_MODEL,
        "cost": SMALL_COST,
        "iterations": 5,
        "gains": {"perturb_decay": 0.3},
        "seed": 0,
    }
    ref = write_config(tmp_path, "badgain", cfg)
    assert cli.main(["spsa", "--config", ref, "--out", str(tmp_path)]) == 2
    assert "decay" in capsys.readouterr().err


def test_spsa_zero_iterations(tmp_path):
    cfg = {
        "model": SMALL_MODEL,
        "cost": SMALL_COST,
        "iterations": 0,
        "init_phi": [0.4],
        "priors": 4,
        "seed": 0,
    }
    ref = write_config(tmp_path, "zeroiter", cfg)
    assert cli.main(["spsa", "--config", ref, "--out", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / "zeroiter_policy.json").read_text())
    assert summary["theta"] == [pytest.approx(0.16)]


def test_simulate_requires_positive_count(tmp_path, capsys):
    cfg = {
        "model": SMALL_MODEL,
        "cost": SMALL_COST,
        "policy": {"theta": [0.3]},
        "trajectories": 0,
    }
    ref = write_config(tmp_path, "zerosim", cfg)
    assert cli.main(["simulate", "--config", ref, "--out", str(tmp_path)]) == 2
    assert "positive" in capsys.readouterr().err


def test_simulate_transient_reports_mean_cost_without_a_criterion(tmp_path, capsys):
    # the transient family has per-state delays, no scalar d to weigh the delay by
    cost = {"family": "transient", "alpha": 0.0, "beta": 2.0, "delays": [1.0, 0.0], "rho": 0.9}
    cfg = {"model": SMALL_MODEL, "cost": cost, "policy": {"theta": [0.3]}, "trajectories": 50}
    ref = write_config(tmp_path, "transient", cfg)
    assert cli.main(["simulate", "--config", ref, "--out", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / "transient_summary.json").read_text())
    assert summary["criterion"] is None and summary["stderr"] is None
    assert summary["trajectories"] == 50 and np.isfinite(summary["mean_cost"])
    out = capsys.readouterr().out
    assert f"mean_cost={summary['mean_cost']:.6g}" in out and "criterion" not in out


def test_simulate_from_solution_csv(tmp_path):
    solve_cfg = {
        "model": SMALL_MODEL,
        "cost": SMALL_COST,
        "grid": {"m": 200},
        "tol": 1e-10,
    }
    ref = write_config(tmp_path, "base", solve_cfg)
    assert cli.main(["solve", "--config", ref, "--out", str(tmp_path)]) == 0
    sim_cfg = {
        "model": SMALL_MODEL,
        "cost": SMALL_COST,
        "policy": {"solution": str(tmp_path / "base_solution.csv")},
        "trajectories": 500,
        "max_steps": 2000,
        "seed": 7,
        "record": 1,
    }
    ref2 = write_config(tmp_path, "simrun", sim_cfg)
    assert cli.main(["simulate", "--config", ref2, "--out", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / "simrun_summary.json").read_text())
    assert summary["trajectories"] == 500
    assert summary["criterion"] > 0
    traj = (tmp_path / "simrun_trajectory0.csv").read_text().splitlines()
    assert traj[0] == "step,state,observation,belief0,belief1,action"


def _bad_action_row(lines):
    cells = lines[2].split(",")
    cells[3] = "3"  # the policy column: neither 1 (stop) nor 2 (continue)
    lines[2] = ",".join(cells)


def _drop_row(lines):
    del lines[3]


def _duplicate_row(lines):
    lines[3] = lines[2]


def _off_grid_row(lines):
    lines[3] = "2,9," + lines[3].split(",", 2)[2]


def _negative_row(lines):
    lines[1] = "-1,11," + lines[1].split(",", 2)[2]


def _extra_field_first_row(lines):
    lines[1] += ",0"


def _missing_field_later_row(lines):
    lines[6] = lines[6].rsplit(",", 1)[0]  # no component column


def _latin1_header(lines):
    lines[0] = lines[0].replace("value", "val\xe9")  # one byte, not UTF-8


@pytest.mark.parametrize(
    "edit, message",
    [
        (_drop_row, "10 rows, but the grid of the first row (m=10) has 11 points"),
        (_duplicate_row, "grid point (1, 9) appears more than once"),
        (_off_grid_row, "(2, 9) is not on the grid"),
        (_negative_row, "(-1, 11) is not on the grid"),
        (_bad_action_row, "policy entries must be 1 or 2, got [3]"),
        (_extra_field_first_row, "data row 1 has extra or missing fields"),
        (_missing_field_later_row, "data row 6 has extra or missing fields"),
        (_latin1_header, "cannot read"),
    ],
)
def test_simulate_rejects_bad_solution_csv(tmp_path, capsys, edit, message):
    solve_cfg = {"model": SMALL_MODEL, "cost": SMALL_COST, "grid": {"m": 10}, "tol": 1e-10}
    ref = write_config(tmp_path, "base", solve_cfg)
    assert cli.main(["solve", "--config", ref, "--out", str(tmp_path)]) == 0
    csv_path = tmp_path / "base_solution.csv"
    lines = csv_path.read_text().splitlines()
    edit(lines)
    csv_path.write_bytes(("\n".join(lines) + "\n").encode("latin-1"))
    sim_cfg = {
        "model": SMALL_MODEL,
        "cost": SMALL_COST,
        "policy": {"solution": str(csv_path)},
        "trajectories": 10,
    }
    capsys.readouterr()
    sim_ref = write_config(tmp_path, "sim", sim_cfg)
    assert cli.main(["simulate", "--config", sim_ref, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "config.policy.solution" in err and message in err


def test_seed_override_changes_output(tmp_path):
    cfg = {
        "model": SMALL_MODEL,
        "cost": SMALL_COST,
        "policy": {"theta": [0.3]},
        "trajectories": 200,
        "max_steps": 1000,
        "seed": 1,
    }
    ref = write_config(tmp_path, "seeded", cfg)
    out1, out2, out3 = (tmp_path / n for n in ("s1", "s2", "s3"))
    assert cli.main(["simulate", "--config", ref, "--out", str(out1)]) == 0
    assert cli.main(["simulate", "--config", ref, "--out", str(out2)]) == 0
    assert cli.main(["simulate", "--config", ref, "--seed", "2", "--out", str(out3)]) == 0
    a = (out1 / "seeded_summary.json").read_bytes()
    assert a == (out2 / "seeded_summary.json").read_bytes()
    assert a != (out3 / "seeded_summary.json").read_bytes()


def test_phdist_command(tmp_path):
    cfg = {"model": SMALL_MODEL, "k_max": 40}
    ref = write_config(tmp_path, "dist", cfg)
    assert cli.main(["phdist", "--config", ref, "--out", str(tmp_path)]) == 0
    rows = (tmp_path / "dist_phdist.csv").read_text().splitlines()
    assert rows[0] == "k,pmf,cumulative"
    assert len(rows) == 42
    pmf1 = float(rows[2].split(",")[1])
    assert pmf1 == pytest.approx(0.3, abs=1e-12)


def test_sweep_command_unordered_pair(tmp_path, capsys):
    cfg = {
        "cost": {"family": "quickest_predictive", "alpha": 0.0, "beta": 1.0, "d": 0.9, "rho": 0.9},
        "models": [
            {"label": "lo", "model": {
                "transition": [[1, 0], [0.5, 0.5]], "initial": [0, 1],
                "observation": {"discrete": [[0.8, 0.2], [0.2, 0.8]]}}},
            {"label": "hi", "model": {
                "transition": [[1, 0], [0.1, 0.9]], "initial": [0, 1],
                "observation": {"discrete": [[0.8, 0.2], [0.2, 0.8]]}}},
        ],
        "grid": {"m": 50},
        "tol": 1e-9,
    }
    ref = write_config(tmp_path, "sweepx", cfg)
    assert cli.main(["sweep", "--config", ref, "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "not comparable" in out
    verdict = json.loads((tmp_path / "sweepx_verdict.json").read_text())
    assert verdict["verdict"] == "not comparable"
    assert (tmp_path / "sweepx_lo_solution.csv").exists()


@pytest.mark.parametrize(
    "name,command",
    [
        ("fig3a", "solve"), ("fig3b", "solve"), ("fig3c", "solve"), ("fig3d", "solve"),
        ("fig4a", "solve"), ("fig4c", "solve"),
        ("fig5", "sweep"), ("fig6", "sweep"),
        ("blackwell", "solve"), ("social_optimum", "solve"),
        ("ph_example", "phdist"),
    ],
)
def test_bundled_configs_run_end_to_end(tmp_path, name, command):
    assert cli.main([command, "--config", name, "--out", str(tmp_path)]) == 0
    assert any(tmp_path.iterdir())


GAUSS_MODEL = {
    "transition": [[1, 0, 0], [0.3, 0.1, 0.6], [0, 0.02, 0.98]],
    "initial": [0, 0, 1],
    "observation": {"gaussian": {"means": [0, 1, 1], "variances": [0.25, 0.25, 0.25]}},
}
GAUSS_COST = {
    "family": "quickest_predictive",
    "alpha": 0.0, "beta": 1.0, "d": 1.0, "rho": 1.0, "op_cost": 0.001,
}


def test_simulate_honours_config_bins(tmp_path):
    cfg = {
        "model": GAUSS_MODEL,
        "cost": GAUSS_COST,
        "policy": {"theta": [1.2, 0.4]},
        "trajectories": 300,
        "max_steps": 400,
        "seed": 3,
        "record": 1,
    }
    means = {}
    for bins in (51, 101):
        ref = write_config(tmp_path, f"bins{bins}", {**cfg, "bins": bins})
        assert cli.main(["simulate", "--config", ref, "--out", str(tmp_path)]) == 0
        means[bins] = json.loads((tmp_path / f"bins{bins}_summary.json").read_text())["mean_cost"]
        traj = (tmp_path / f"bins{bins}_trajectory0.csv").read_text().splitlines()
        assert max(int(r.split(",")[2]) for r in traj[2:]) < bins
    m, spec = cli.parse_model(GAUSS_MODEL, bins=51), cli.parse_cost(GAUSS_COST)
    direct = sim.simulate_batch(
        m, spec, pol.LinearThresholdPolicy(np.array([1.2, 0.4])),
        np.tile(m.initial, (300, 1)), np.random.default_rng(3),
        max_steps=400, transformed=False,
    )
    assert means[51] == float(direct.costs.mean())
    assert means[51] != means[101]


def test_spsa_honours_config_bins(tmp_path, monkeypatch):
    seen = set()
    batch = pol.simulate_batch

    def recording(model, *args, **kwargs):
        seen.add(model.discrete_obs().matrix.shape[1])
        return batch(model, *args, **kwargs)

    monkeypatch.setattr(pol, "simulate_batch", recording)
    cfg = {
        "model": GAUSS_MODEL, "cost": GAUSS_COST, "bins": 51,
        "priors": 10, "iterations": 2, "restarts": 2, "max_steps": 50,
    }
    ref = write_config(tmp_path, "spsabins", cfg)
    assert cli.main(["spsa", "--config", ref, "--out", str(tmp_path)]) == 0
    assert seen == {51}


SOCIAL_COST = {
    "family": "social_stopping", "d": 1.8, "beta": 2.0, "rho": 0.9,
    "local_costs": [[4.57, 5.57], [2.57, 0.0]],
}
STATIC_MODEL = {**SMALL_MODEL, "transition": [[1, 0], [0, 1]], "initial": [0.5, 0.5]}


@pytest.mark.parametrize(
    "command, extra",
    [
        ("simulate", {"policy": {"theta": [0.3]}, "trajectories": 10}),
        ("spsa", {"priors": 5, "iterations": 1, "restarts": 1, "max_steps": 20}),
    ],
)
def test_batch_commands_reject_unsupported_family(tmp_path, capsys, command, extra):
    cfg = {"model": STATIC_MODEL, "cost": SOCIAL_COST, "validation": "general", **extra}
    ref = write_config(tmp_path, "social", cfg)
    assert cli.main([command, "--config", ref, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "config.cost.family" in err and "'social_stopping'" in err
    assert not list(tmp_path.glob("social_*"))


NON_ABSORBING = {**SMALL_MODEL, "transition": [[0.9, 0.1], [0.3, 0.7]]}


@pytest.mark.parametrize(
    "command, cfg",
    [
        ("simulate", {"model": NON_ABSORBING, "cost": SMALL_COST,
                      "policy": {"theta": [0.3]}, "trajectories": 10}),
        ("spsa", {"model": NON_ABSORBING, "cost": SMALL_COST,
                  "priors": 5, "iterations": 1, "restarts": 1, "max_steps": 20}),
        ("sweep", {"cost": SMALL_COST, "grid": {"m": 10},
                   "models": [{"label": "a", "model": SMALL_MODEL},
                              {"label": "b", "model": NON_ABSORBING}]}),
        ("phdist", {"model": NON_ABSORBING, "k_max": 10}),
    ],
)
def test_commands_validate_the_model(tmp_path, capsys, command, cfg):
    ref = write_config(tmp_path, "bad", cfg)
    assert cli.main([command, "--config", ref, "--out", str(tmp_path)]) == 2
    assert "row 1 not absorbing" in capsys.readouterr().err
    assert not list(tmp_path.glob("bad_*"))
    # the general tag checks stochasticity only, so the same model runs
    ok = write_config(tmp_path, "general", {**cfg, "validation": "general"})
    assert cli.main([command, "--config", ok, "--out", str(tmp_path)]) == 0


def test_unknown_validation_tag_rejected(tmp_path, capsys):
    ref = write_config(tmp_path, "tag", {"model": SMALL_MODEL, "cost": SMALL_COST, "validation": "lax"})
    assert cli.main(["solve", "--config", ref, "--out", str(tmp_path)]) == 2
    assert "config.validation: unknown validation tag 'lax'" in capsys.readouterr().err


BINS_CONFIGS = {
    "solve": {"model": GAUSS_MODEL, "cost": GAUSS_COST, "grid": {"m": 10}},
    "orders": {"model": GAUSS_MODEL, "cost": GAUSS_COST},
    "phdist": {"model": GAUSS_MODEL, "k_max": 10},
    "sweep": {"cost": GAUSS_COST, "grid": {"m": 10},
              "models": [{"label": "a", "model": GAUSS_MODEL}]},
    "spsa": {"model": GAUSS_MODEL, "cost": GAUSS_COST,
             "priors": 5, "iterations": 1, "restarts": 1, "max_steps": 20},
    "simulate": {"model": GAUSS_MODEL, "cost": GAUSS_COST,
                 "policy": {"theta": [1.2, 0.4]}, "trajectories": 10},
}


@pytest.mark.parametrize("command", sorted(BINS_CONFIGS))
def test_bins_must_be_an_integer_of_at_least_3(tmp_path, capsys, command):
    for bins in (2, "abc", 50.5, True, None):
        ref = write_config(tmp_path, "bins", {**BINS_CONFIGS[command], "bins": bins})
        assert cli.main([command, "--config", ref, "--out", str(tmp_path)]) == 2
        assert f"config.bins: expected an integer >= 3, got {bins!r}" in capsys.readouterr().err
    assert not list(tmp_path.glob("bins_*"))
    ok = write_config(tmp_path, "three", {**BINS_CONFIGS[command], "bins": 3})
    assert cli.main([command, "--config", ok, "--out", str(tmp_path)]) == 0


def test_gaussian_observation_errors_exit_2(tmp_path, capsys):
    bad_model = {**GAUSS_MODEL, "observation": {"gaussian": {"means": [0, 1, 1], "variances": [0.25, 0, 0.25]}}}
    ref = write_config(tmp_path, "var", {"model": bad_model, "cost": GAUSS_COST})
    assert cli.main(["solve", "--config", ref, "--out", str(tmp_path)]) == 2
    assert "config.model.observation.gaussian: variances must be strictly positive" in capsys.readouterr().err


THREE_SYMBOL_MODEL = {**SMALL_MODEL, "observation": {"discrete": [[0.6, 0.3, 0.1], [0.1, 0.3, 0.6]]}}
CONSTRAINED_COST = {"family": "constrained_social", "d": 1.0, "beta": 2.0, "rho": 0.5}


@pytest.mark.parametrize("command", ["orders", "solve"])
def test_constrained_social_costs_need_one_column_per_symbol(tmp_path, capsys, command):
    costs = {"local_costs": [[2.0, 1.0], [1.9, 0.9]]}
    cfg = {"model": THREE_SYMBOL_MODEL, "cost": {**CONSTRAINED_COST, **costs}, "grid": {"m": 10}}
    ref = write_config(tmp_path, "cs", cfg)
    assert cli.main([command, "--config", ref, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "config.cost.local_costs: expected shape (2, 3) (states x symbols), got (2, 2)" in err
    assert not list(tmp_path.glob("cs_*"))
    costs = {"local_costs": [[2.0, 1.5, 1.0], [1.9, 1.4, 0.9]]}
    ok = write_config(tmp_path, "ok", {**cfg, "cost": {**CONSTRAINED_COST, **costs}})
    assert cli.main([command, "--config", ok, "--out", str(tmp_path)]) == 0


def test_social_costs_need_one_row_per_state(tmp_path, capsys):
    cost = {**SOCIAL_COST, "local_costs": [[4.57, 5.57], [2.57, 0.0], [1.0, 1.0]]}
    ref = write_config(tmp_path, "rows", {"model": STATIC_MODEL, "cost": cost, "validation": "general"})
    assert cli.main(["solve", "--config", ref, "--out", str(tmp_path)]) == 2
    assert "expected shape (2, 2) (one row per state), got (3, 2)" in capsys.readouterr().err


def test_orders_rejects_observation_rows_that_do_not_match_the_states(tmp_path, capsys):
    three_rows = {**SMALL_MODEL, "observation": {"discrete": [[0.8, 0.2], [0.2, 0.8], [0.5, 0.5]]}}
    ref = write_config(tmp_path, "rows", {"model": three_rows, "cost": SMALL_COST})
    assert cli.main(["orders", "--config", ref, "--out", str(tmp_path)]) == 2
    assert "config.model: observation matrix row count does not match state count" in capsys.readouterr().err
    assert not list(tmp_path.glob("rows_*"))


TRANSIENT_COST = {"family": "transient", "alpha": 0.0, "beta": 1.0, "delays": [0, 1], "rho": 0.9}
THREE_STATE_MODEL = {
    "transition": [[1, 0, 0], [0.3, 0.1, 0.6], [0, 0.02, 0.98]],
    "initial": [0, 0, 1],
    "observation": {"discrete": [[0.8, 0.2], [0.5, 0.5], [0.2, 0.8]]},
}
SCHEDULING_COST = {
    "family": "scheduling", "alpha1": 2.5, "alpha2": 0.5, "c1": [0.1, 0.15], "c2": [0.5, 0.65],
    "g": [0, 1], "rho": 0.8, "obs_hi": [[0.9, 0.1], [0.1, 0.9]], "confusion": [[0.8, 0.2], [0.2, 0.8]],
}


NUMERIC_CONFIGS = {
    "solve": {"model": SMALL_MODEL, "cost": SMALL_COST, "grid": {"m": 10}},
    "phdist": {"model": SMALL_MODEL, "k_max": 10},
    "spsa": {"model": SMALL_MODEL, "cost": SMALL_COST,
             "priors": 5, "iterations": 1, "restarts": 1, "max_steps": 20},
    "simulate": {"model": SMALL_MODEL, "cost": SMALL_COST,
                 "policy": {"theta": [0.3]}, "trajectories": 10},
    "sweep": {"cost": SMALL_COST, "grid": {"m": 10},
              "models": [{"label": "a", "model": SMALL_MODEL}]},
    "orders": {"model": SMALL_MODEL, "cost": SMALL_COST},
}
NAN = float("nan")
NAN_TRANSITION = {**SMALL_MODEL, "transition": [[1, 0], [0.3, NAN]]}
NOT_FINITE = "config.model: transition matrix and initial belief entries must be finite"


def _case_id(value):
    # the model messages gained their "config." prefix; their cases keep the
    # ids they had, so that the test names stay the same
    if isinstance(value, str) and value.startswith(("config.model:", "config.model.")):
        return value.removeprefix("config.")
    return None


@pytest.mark.parametrize(
    "command, patch, message",
    [
        ("solve", {"grid": {"m": "abc"}}, "config.grid.m: expected an integer, got 'abc'"),
        ("solve", {"grid": {"m": 0}}, "config.grid.m: expected an integer >= 1, got 0"),
        ("solve", {"grid": [10]}, "config.grid: expected an object, got [10]"),
        ("solve", {"horizon": "long"}, "config.horizon: expected an integer, got 'long'"),
        ("solve", {"tol": [1e-9]}, "config.tol: expected a number, got [1e-09]"),
        ("phdist", {"k_max": "abc"}, "config.k_max: expected an integer, got 'abc'"),
        ("phdist", {"k_max": -1}, "config.k_max: expected an integer >= 0, got -1"),
        ("spsa", {"priors": "many"}, "config.priors: expected an integer, got 'many'"),
        ("spsa", {"priors": 0}, "config.priors: expected an integer >= 1, got 0"),
        ("spsa", {"iterations": None}, "config.iterations: expected an integer, got None"),
        ("spsa", {"restarts": "x"}, "config.restarts: expected an integer, got 'x'"),
        ("spsa", {"max_steps": "x"}, "config.max_steps: expected an integer, got 'x'"),
        ("spsa", {"seed": "x"}, "config.seed: expected an integer, got 'x'"),
        ("spsa", {"gains": {"step": "fast"}}, "config.gains.step: expected a number, got 'fast'"),
        ("spsa", {"gains": [0.1]}, "config.gains: expected an object, got [0.1]"),
        ("simulate", {"trajectories": "x"}, "config.trajectories: expected an integer, got 'x'"),
        ("simulate", {"record": [1]}, "config.record: expected an integer, got [1]"),
        ("simulate", {"max_steps": 1e400}, "config.max_steps: expected an integer, got inf"),
        ("simulate", {"seed": -1}, "config.seed: expected an integer >= 0, got -1"),
        ("spsa", {"iterations": -1}, "config.iterations: expected an integer >= 0, got -1"),
        ("spsa", {"restarts": 0}, "config.restarts: expected an integer >= 1, got 0"),
        ("spsa", {"max_steps": 0}, "config.max_steps: expected an integer >= 1, got 0"),
        ("simulate", {"max_steps": 0}, "config.max_steps: expected an integer >= 1, got 0"),
        ("simulate", {"record": -1}, "config.record: expected an integer >= 0, got -1"),
        ("spsa", {"iterations": 0, "init_phi": [0.1, 0.2, 0.3]},
         "config.init_phi: expected 1 numbers, got [0.1, 0.2, 0.3]"),
        ("spsa", {"iterations": 0, "init_phi": "abc"}, "config.init_phi: not a numeric array"),
        ("simulate", {"policy": "theta"},
         "config.policy: expected an object with 'theta' or 'solution', got 'theta'"),
        ("simulate", {"policy": 5},
         "config.policy: expected an object with 'theta' or 'solution', got 5"),
        ("simulate", {"policy": {"solution": 5}},
         "config.policy.solution: expected a file path, got 5"),
        ("sweep", {"models": [3]}, "config.models[0]: expected an object, got 3"),
        ("sweep", {"cost": "quickest"}, "config.cost: expected an object, got 'quickest'"),
        ("solve", {"cost": {**SMALL_COST, "family": ["quickest_classical"]}},
         "config.cost.family: unknown family ['quickest_classical']"),
        ("solve", {"model": {**SMALL_MODEL, "observation": "gaussian"}},
         "config.model.observation: expected an object with 'discrete' or 'gaussian', got 'gaussian'"),
        ("solve", {"model": {**SMALL_MODEL, "observation": {"gaussian": {"means": "a"}}}},
         "config.model.observation.gaussian.means: not a numeric array"),
        ("solve", {"cost": {**SMALL_COST, "rho": "x"}}, "config.cost.rho: expected a number, got 'x'"),
        ("solve", {"cost": {**SMALL_COST, "beta": None}}, "config.cost.beta: expected a number, got None"),
        ("spsa", {"cost": {**SMALL_COST, "false_alarm": 0.5}},
         "config.cost.false_alarm: expected a vector, got 0.5"),
        ("simulate", {"cost": {**SMALL_COST, "false_alarm": [0, 1, 2]}},
         "config.cost.false_alarm: expected shape (2,) (one entry per state), got (3,)"),
        ("sweep", {"models": [{"label": "a", "model": SMALL_MODEL}, {"label": "a", "model": SMALL_MODEL}]},
         "config.models[1].label: 'a' is already the label of config.models[0]"),
        ("solve", {"cost": {**SMALL_COST, "false_alarm": [[0, 1]]}},
         "config.cost.false_alarm: expected a vector, got [[0, 1]]"),
        ("solve", {"cost": {**TRANSIENT_COST, "delays": 1.0}}, "config.cost.delays: expected a vector, got 1.0"),
        ("solve", {"cost": {**TRANSIENT_COST, "delays": [0, 1, 2]}},
         "config.cost.delays: expected shape (2,) (one entry per state), got (3,)"),
        ("solve", {"cost": {**TRANSIENT_COST, "false_alarm": [0, 1, 0]}},
         "config.cost.false_alarm: expected shape (2,) (one entry per state), got (3,)"),
        ("solve", {"cost": {**SCHEDULING_COST, "c1": 0.1}}, "config.cost.c1: expected a vector, got 0.1"),
        ("solve", {"cost": {**SCHEDULING_COST, "c2": [0.5, 0.6, 0.7]}},
         "config.cost.c2: expected shape (2,) (one entry per state), got (3,)"),
        ("solve", {"cost": {**SCHEDULING_COST, "g": [[0, 1]]}}, "config.cost.g: expected a vector, got [[0, 1]]"),
        ("solve", {"cost": {**SCHEDULING_COST, "obs_hi": [0.9, 0.1]}},
         "config.cost.obs_hi: expected a matrix, got [0.9, 0.1]"),
        ("solve", {"cost": {**SCHEDULING_COST, "obs_hi": [[0.9, 0.1], [0.1, 0.9], [0.5, 0.5]]}},
         "config.cost.obs_hi: expected shape (2, 2) (one row per state), got (3, 2)"),
        ("solve", {"cost": {**SCHEDULING_COST, "obs_hi": [[0.9, 0.2], [0.1, 0.9]]}},
         "config.cost.obs_hi: observation matrix rows must sum to 1"),
        ("solve", {"cost": {**SCHEDULING_COST, "confusion": 1}}, "config.cost.confusion: expected a matrix, got 1"),
        ("solve", {"cost": {**SCHEDULING_COST, "confusion": [[1, 0, 0], [0, 1, 0]]}},
         "config.cost.confusion: expected shape (2, 2) (mode-2 symbols x mode-1 symbols), got (2, 3)"),
        ("solve", {"cost": {**SCHEDULING_COST, "alpha1": [1]}}, "config.cost.alpha1: expected a number, got [1]"),
        ("solve", {"cost": {**SOCIAL_COST, "include_welfare": "no"}},
         "config.cost.include_welfare: expected true or false, got 'no'"),
        ("solve", {"grid": {"m": True}}, "config.grid.m: expected an integer, got True"),
        ("solve", {"cost": {**SMALL_COST, "rho": True}}, "config.cost.rho: expected a number, got True"),
        ("spsa", {"priors": False}, "config.priors: expected an integer, got False"),
        ("spsa", {"gains": {"step": True}}, "config.gains.step: expected a number, got True"),
        ("sweep", {"models": [{"label": "a", "model": SMALL_MODEL},
                              {"label": "b", "model": THREE_STATE_MODEL}]},
         "config.models[1].model: 3 states, but config.models[0].model has 2"),
        # value iteration runs forever on a NaN horizon and needs at least one sweep
        ("solve", {"horizon": "nan"}, "config.horizon: expected an integer, got 'nan'"),
        ("sweep", {"horizon": -3}, "config.horizon: expected an integer >= 1, got -3"),
        ("solve", {"tol": float("nan")}, "config.tol: expected a number >= 0, got nan"),
        # a NaN gain makes every iterate NaN
        ("spsa", {"gains": {"step": "nan"}},
         "config.gains: step, stability, and perturbation scales must be positive"),
        # a bad discrete observation matrix is a config error, as a Gaussian one is
        ("solve", {"model": {**SMALL_MODEL, "observation": {"discrete": [[0.9, 0.2], [0.2, 0.8]]}}},
         "config.model.observation.discrete: observation matrix rows must sum to 1"),
        ("solve", {"model": {**SMALL_MODEL, "observation": {"discrete": [0.5, 0.5]}}},
         "config.model.observation.discrete: observation matrix must be 2-D"),
        ("solve", {"model": {**SMALL_MODEL, "observation": {"discrete": [[1.1, -0.1], [0.2, 0.8]]}}},
         "config.model.observation.discrete: observation probabilities must be non-negative"),
        # NaN passes a plain comparison: unchecked, it runs into NaN values or a traceback
        ("solve", {"model": NAN_TRANSITION}, NOT_FINITE),
        ("orders", {"model": NAN_TRANSITION}, NOT_FINITE),
        ("simulate", {"model": {**SMALL_MODEL, "initial": [NAN, 1]}}, NOT_FINITE),
        ("solve", {"model": {**SMALL_MODEL, "observation": {"discrete": [[0.8, 0.2], [NAN, 0.8]]}}},
         "config.model.observation.discrete: observation probabilities must be non-negative"),
        ("solve", {"model": {**SMALL_MODEL, "observation": {"gaussian": {"means": [0, NAN], "variances": [1, 1]}}}},
         "config.model.observation.gaussian: means must be finite"),
        ("solve", {"cost": {**SMALL_COST, "alpha": NAN}},
         "config.cost: alpha must be finite and non-negative, got nan"),
        # simulate's threshold: a finite vector of X - 1 numbers
        ("simulate", {"policy": {"theta": [[0.3]]}}, "config.policy.theta: expected 1 finite numbers, got [[0.3]]"),
        ("simulate", {"policy": {"theta": [NAN]}}, "config.policy.theta: expected 1 finite numbers, got [nan]"),
        ("simulate", {"policy": {"theta": [0.3, 0.1]}},
         "config.policy.theta: expected 1 finite numbers, got [0.3, 0.1]"),
        # cost arrays with no sign rule are checked for finite entries only
        ("solve", {"cost": {**SCHEDULING_COST, "g": [0, NAN]}},
         "config.cost: g must be finite, got [0.0, nan]"),
        ("solve", {"cost": {**SOCIAL_COST, "local_costs": [[4.57, NAN], [2.57, 0.0]]}},
         "config.cost: local_costs must be finite, got [[4.57, nan], [2.57, 0.0]]"),
        ("solve", {"cost": {**CONSTRAINED_COST, "local_costs": [[2.0, float("inf")], [1.9, 0.9]]}},
         "config.cost: local_costs must be finite, got [[2.0, inf], [1.9, 0.9]]"),
        # a sweep entry's model is named by its full path, as the top-level model is
        ("sweep", {"models": [{"label": "a", "model": NAN_TRANSITION}]},
         "config.models[0].model: transition matrix and initial belief entries must be finite"),
        ("orders", {"cost": {**SCHEDULING_COST, "confusion": [[0.8, 0.1], [0.2, 0.8]]}},
         "config.cost: confusion matrix must be row-stochastic"),
        ("orders", {"cost": {**SCHEDULING_COST, "confusion": [[1.1, -0.1], [0.2, 0.8]]}},
         "config.cost: confusion matrix must be row-stochastic"),
        # NaN passes the row-stochastic test's comparisons
        ("orders", {"cost": {**SCHEDULING_COST, "confusion": [[0.8, 0.2], [NAN, 0.8]]}},
         "config.cost: confusion must be finite, got [[0.8, 0.2], [nan, 0.8]]"),
        # only a run of 0 iterations starts from init_phi: restarts draw their own starts
        ("spsa", {"init_phi": "abc"}, "config.init_phi: only iterations 0 reads it"),
        ("spsa", {"init_phi": [0.4]}, "config.init_phi: only iterations 0 reads it"),
    ],
    ids=_case_id,
)
def test_numeric_fields_exit_2_with_their_path(tmp_path, capsys, command, patch, message):
    ref = write_config(tmp_path, "num", {**NUMERIC_CONFIGS[command], **patch})
    assert cli.main([command, "--config", ref, "--out", str(tmp_path)]) == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert not list(tmp_path.glob("num_*"))


@pytest.mark.parametrize("command", ["spsa", "simulate"])
def test_batch_commands_reject_more_states_than_the_draw_tables_hold(tmp_path, capsys, command):
    x = sim.MAX_TABLE_ROWS + 1
    transition = np.eye(x, k=-1)
    transition[0, 0] = 1.0
    obs = np.full((x, 2), [0.2, 0.8])
    obs[0] = [0.8, 0.2]
    big = {"transition": transition.tolist(), "initial": np.eye(x)[-1].tolist(),
           "observation": {"discrete": obs.tolist()}}
    ref = write_config(tmp_path, "big", {**NUMERIC_CONFIGS[command], "model": big})
    assert cli.main([command, "--config", ref, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert f"error: config.model: {command} simulates at most {x - 1} states, but the model has {x}" in err
    assert not list(tmp_path.glob("big_*"))


@pytest.mark.parametrize("command", ["solve", "orders", "sweep", "spsa", "simulate"])
def test_transient_variance_penalty_with_an_explicit_false_alarm_exits_2(tmp_path, capsys, command):
    # the variance penalty is defined for the default start-state false alarm only
    cost = {**TRANSIENT_COST, "alpha": 0.5, "false_alarm": [0, 1]}
    cfg = {**NUMERIC_CONFIGS.get(command, NUMERIC_CONFIGS["solve"]), "cost": cost}
    ref = write_config(tmp_path, "tr", cfg)
    assert cli.main([command, "--config", ref, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "error: config.cost: variance penalty requires the default start-state false alarm" in err
    assert not list(tmp_path.glob("tr_*"))


@pytest.mark.parametrize(
    "command, text, numbers",
    [
        ("solve", {"grid": {"m": "12"}, "horizon": "30", "tol": "1e-9"},
         {"grid": {"m": 12}, "horizon": 30, "tol": 1e-9}),
        ("phdist", {"k_max": 12.0}, {"k_max": 12}),
        ("spsa", {"priors": "6", "iterations": 2.0, "restarts": "2", "max_steps": "30",
                  "seed": "3", "gains": {"step": "0.2", "perturb": 1}},
         {"priors": 6, "iterations": 2, "restarts": 2, "max_steps": 30,
          "seed": 3, "gains": {"step": 0.2, "perturb": 1.0}}),
        ("simulate", {"trajectories": "12", "max_steps": 50.0, "record": "2", "seed": "4"},
         {"trajectories": 12, "max_steps": 50, "record": 2, "seed": 4}),
    ],
)
def test_numeric_fields_keep_the_values_they_accepted(tmp_path, command, text, numbers):
    # int() and float() read a numeric string or a whole float as before
    outs = []
    for label, values in (("text", text), ("numbers", numbers), ("unpatched", {})):
        ref = write_config(tmp_path, "run", {**NUMERIC_CONFIGS[command], **values})
        out = tmp_path / label
        assert cli.main([command, "--config", ref, "--out", str(out)]) == 0
        outs.append({f.name: f.read_bytes() for f in sorted(out.iterdir())})
    assert outs[0] == outs[1] != outs[2]


def _fit_model(x, y):
    """An absorbing chain on ``x`` states that drifts one phase down per step,
    observed through ``y`` symbols whose likelihood ratios increase with the state."""
    transition = np.eye(x)
    for i in range(1, x):
        transition[i, i - 1], transition[i, i] = 0.3, 0.7
    obs = np.array([[(i + 1.0) ** k for k in range(y)] for i in range(x)])
    return {
        "transition": transition.tolist(),
        "initial": [0.0] * (x - 1) + [1.0],
        "observation": {"discrete": (obs / obs.sum(axis=1, keepdims=True)).tolist()},
    }


def _fit_cost(family, x, y, actions):
    """A cost of ``family`` with every array sized for ``x`` states, ``y``
    symbols and ``actions`` local actions."""
    ones, ramp = [1.0] * x, np.linspace(1.0, 0.0, x)
    local = (ramp[:, None] * np.arange(1.0, actions + 1.0)).tolist()
    return {
        "quickest_predictive": {"alpha": 0.5, "beta": 1.0, "d": 2.0, "rho": 0.9},
        "quickest_classical": {"alpha": 0.0, "beta": 1.0, "d": 1.0, "rho": 0.9,
                               "false_alarm": [0.0] + ones[1:]},
        "transient": {"alpha": 0.0, "beta": 1.0, "delays": [0.0] + ones[1:], "rho": 0.9},
        "risk_sensitive": {"risk": 0.1, "beta": 3.0, "d": 1.0},
        "social_stopping": {"d": 1.8, "beta": 2.0, "rho": 0.9, "local_costs": local},
        "constrained_social": {"d": 1.0, "beta": 2.0, "rho": 0.5, "local_costs": local},
        "scheduling": {"alpha1": 2.5, "alpha2": 0.5, "c1": ones, "c2": ones, "g": ramp.tolist(),
                       "rho": 0.8, "obs_hi": _fit_model(x, y)["observation"]["discrete"],
                       "confusion": np.eye(y).tolist()},
    }[family] | {"family": family}


@pytest.mark.parametrize("family", sorted(cli._FAMILIES))
def test_every_family_and_shape_exits_0_or_2_and_reports_its_assumptions(tmp_path, capsys, family):
    # a cost family that accepts a model reports all its assumptions, in solve
    # as in orders; a pair it does not fit exits 2 without a traceback
    extra = {
        "solve": {"grid": {"m": 4}},
        "orders": {},
        "spsa": {"priors": 5, "iterations": 1, "restarts": 1, "max_steps": 20},
        "simulate": {"trajectories": 5, "max_steps": 20},
    }
    social = family in ("social_stopping", "constrained_social")
    for x in (2, 3, 4):
        for y in (2, 3):
            for actions in (1, 2, 3) if social else (y,):
                cfg = {"model": _fit_model(x, y), "cost": _fit_cost(family, x, y, actions),
                       "policy": {"theta": [0.5] * (x - 1)}}
                name = f"fit{x}{y}{actions}"
                codes = {}
                for command, fields in extra.items():
                    ref = write_config(tmp_path, name, {**cfg, **fields})
                    codes[command] = cli.main([command, "--config", ref, "--out", str(tmp_path)])
                    assert codes[command] in (0, 2), (command, x, y, actions)
                capsys.readouterr()
                if codes["solve"] == codes["orders"] == 0:
                    report = json.loads((tmp_path / f"{name}_report.json").read_text())
                    lines = (tmp_path / f"{name}_orders.txt").read_text().splitlines()
                    assert report["assumptions"] == lines, (x, y, actions)
                    assert lines


def test_social_stopping_needs_two_local_actions(tmp_path, capsys):
    cost = {**SOCIAL_COST, "local_costs": [[4.57], [2.57]]}
    ref = write_config(tmp_path, "one", {"model": STATIC_MODEL, "cost": cost, "validation": "general"})
    for command in ("solve", "orders"):
        assert cli.main([command, "--config", ref, "--out", str(tmp_path)]) == 2
        assert "error: config.cost: local_costs needs at least 2 local actions" in capsys.readouterr().err
    assert not list(tmp_path.glob("one_*"))


@pytest.mark.parametrize("x", [3, 4])
def test_social_stopping_is_a_two_state_family(tmp_path, capsys, x):
    local = np.linspace([4.57, 5.57], [2.57, 0.0], x).tolist()  # one row per state
    cfg = {"model": _fit_model(x, 2), "cost": {**SOCIAL_COST, "local_costs": local}}
    ref = write_config(tmp_path, "many", cfg)
    for command in ("solve", "orders"):
        assert cli.main([command, "--config", ref, "--out", str(tmp_path)]) == 2
        want = f"error: config.cost.family: 'social_stopping' is a 2-state family, but the model has {x} states"
        assert want in capsys.readouterr().err
    assert not list(tmp_path.glob("many_*"))


@pytest.mark.parametrize("command", ["solve", "sweep"])
def test_a_cost_that_overflows_exits_2_before_writing(tmp_path, capsys, command):
    cost = {"family": "quickest_predictive", "alpha": 1e308, "beta": 1e308, "d": 1e308, "rho": 0.9}
    model = {"model": SMALL_MODEL} if command == "solve" else {"models": [{"label": "a", "model": SMALL_MODEL}]}
    ref = write_config(tmp_path, "huge", {**model, "cost": cost, "grid": {"m": 10}})
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # an overflow is an exit 2, not a warning
        assert cli.main([command, "--config", ref, "--out", str(tmp_path)]) == 2
    assert "error: config.cost: a stage cost or the offset is not finite" in capsys.readouterr().err
    assert not list(tmp_path.glob("huge_*"))


@pytest.mark.parametrize("rho", [0.9, 1.0])
@pytest.mark.parametrize("command", ["spsa", "simulate"])
def test_a_cost_that_overflows_in_simulation_exits_2_before_writing(tmp_path, capsys, command, rho):
    # at rho = 0.9 spsa sizes its truncation from the stage-cost bound, which overflows
    cost = {"family": "quickest_predictive", "alpha": 1e308, "beta": 1e308, "d": 1e308, "rho": rho}
    cfg = {**NUMERIC_CONFIGS[command], "cost": cost}
    cfg.pop("max_steps", None)
    ref = write_config(tmp_path, "huge", cfg)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # an overflow is an exit 2, not a warning
        assert cli.main([command, "--config", ref, "--out", str(tmp_path)]) == 2
    assert "error: config.cost: " in capsys.readouterr().err
    assert not list(tmp_path.glob("huge_*"))


def test_a_config_that_is_not_a_text_file_exits_2(tmp_path, capsys):
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff\xfe\x00")
    for ref in (tmp_path, binary):
        assert cli.main(["phdist", "--config", str(ref), "--out", str(tmp_path / "o")]) == 2
        assert f"error: config {str(ref)!r}: " in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_an_output_path_that_is_a_file_exits_2(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("")
    assert cli.main(["phdist", "--config", "ph_example", "--out", str(taken)]) == 2
    assert f"error: cannot write {taken}: " in capsys.readouterr().err


def test_a_directory_as_the_policy_solution_exits_2(tmp_path, capsys):
    cfg = {**NUMERIC_CONFIGS["simulate"], "policy": {"solution": str(tmp_path)}}
    ref = write_config(tmp_path, "sol", cfg)
    assert cli.main(["simulate", "--config", ref, "--out", str(tmp_path)]) == 2
    assert f"error: config.policy.solution: no such file {tmp_path}" in capsys.readouterr().err
    assert not list(tmp_path.glob("sol_*"))


def test_sweep_label_that_is_not_a_file_name_exits_2_before_solving(tmp_path, capsys, monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before the labels were checked")

    monkeypatch.setattr(cli.dp, "value_monotonicity_sweep", no_solve)
    cfg = {**NUMERIC_CONFIGS["sweep"], "models": [{"label": "a", "model": SMALL_MODEL},
                                                  {"label": "b/c", "model": SMALL_MODEL}]}
    ref = write_config(tmp_path, "lab", cfg)
    assert cli.main(["sweep", "--config", ref, "--out", str(tmp_path)]) == 2
    assert "error: config.models[1].label: 'b/c' names a file" in capsys.readouterr().err


def _strict_json(text):
    def reject(constant):
        raise AssertionError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=reject)


def test_one_trajectory_summary_is_strict_json(tmp_path):
    ref = write_config(tmp_path, "one", {**NUMERIC_CONFIGS["simulate"], "trajectories": 1})
    assert cli.main(["simulate", "--config", ref, "--out", str(tmp_path)]) == 0
    summary = _strict_json((tmp_path / "one_summary.json").read_text())
    assert summary["trajectories"] == 1 and summary["stderr"] is None
    assert summary["criterion"] is not None


def test_a_non_finite_report_value_exits_2_instead_of_writing_it(tmp_path):
    with pytest.raises(cli.ConfigError, match="x.json: Out of range float values"):
        cli._write_json(tmp_path, "x.json", {"value": float("inf")})
    assert not list(tmp_path.iterdir())
    cli._write_json(tmp_path, "y.json", {"value": [0.5, None]})
    assert (tmp_path / "y.json").read_text() == '{\n  "value": [\n    0.5,\n    null\n  ]\n}\n'

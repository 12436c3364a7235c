"""Experiment driver: solve | spsa | orders | sweep | simulate | phdist.

Configs are JSON documents (schema documented in the README); bundled
experiment configs ship with the package and can be referenced by bare name
(e.g. ``fig3a``).  All randomness flows from a single ``seed`` field, so
reruns with the same config are byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import math
import sys
from importlib import resources
from pathlib import Path

import numpy as np

from . import dp, orders, policy as policy_mod, sim
from .model import (
    DEFAULT_BINS,
    FAMILIES,
    DetectionModel,
    DiscreteObs,
    GaussianObs,
    ParameterError,
    discretize_gaussian,
    ph_pmf,
    validate_model,
)


class ConfigError(ValueError):
    pass


def _need(cfg: dict, key: str, where: str):
    if not isinstance(cfg, dict):
        raise ConfigError(f"{where}: expected an object, got {cfg!r}")
    if key not in cfg:
        raise ConfigError(f"{where}: missing required field {key!r}")
    return cfg[key]


def _choice(cfg: dict, key: str, where: str, options: tuple[str, ...]):
    """The object ``cfg[key]`` and the first of the fields ``options`` it holds."""
    section = _need(cfg, key, where)
    for option in options:
        if isinstance(section, dict) and option in section:
            return section, option
    raise ConfigError(
        f"{where}.{key}: expected an object with {' or '.join(map(repr, options))}, got {section!r}"
    )


def _number(section, key: str, default, kind=int, where: str = "config", low=None):
    """``kind(section[key])``, or ``kind(default)`` when the key is absent.

    ``kind`` is ``int`` or ``float``, applied as the commands always have
    (``"7"`` and ``7.9`` read as 7 for ``int``).  A value it rejects, such as
    ``"abc"``, ``null`` or a list, a boolean, or a result below ``low``, is a
    :class:`ConfigError` naming the field.
    """
    if not isinstance(section, dict):
        raise ConfigError(f"{where}: expected an object, got {section!r}")
    value = section.get(key, default)
    noun = "an integer" if kind is int else "a number"
    try:
        if isinstance(value, bool):  # JSON true and false are not numbers
            raise TypeError
        number = kind(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{where}.{key}: expected {noun}, got {value!r}") from None
    if low is not None and not number >= low:
        raise ConfigError(f"{where}.{key}: expected {noun} >= {low}, got {value!r}")
    return number


def _optional_number(cfg: dict, key: str, kind, low=None):
    """:func:`_number` for a field whose absence or ``null`` means "use the default"."""
    return None if cfg.get(key) is None else _number(cfg, key, None, kind, low=low)


def _stopping_rule(cfg: dict) -> dict:
    """The ``horizon`` (a sweep count) and ``tol`` arguments of value iteration."""
    return {
        "horizon": _optional_number(cfg, "horizon", int, low=1),
        "tol": _optional_number(cfg, "tol", float, low=0),
    }


def _matrix(value, where: str) -> np.ndarray:
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: not a numeric array ({exc})") from None
    return arr


def parse_model(cfg: dict, where: str = "config.model", bins=DEFAULT_BINS) -> DetectionModel:
    """Parse a model.  A Gaussian observation model is discretized here onto
    ``bins`` cells (the config's top-level ``bins``); no later layer does."""
    if isinstance(bins, bool) or not isinstance(bins, int) or bins < 3:
        raise ConfigError(f"config.bins: expected an integer >= 3, got {bins!r}")
    transition = _matrix(_need(cfg, "transition", where), f"{where}.transition")
    initial = _matrix(_need(cfg, "initial", where), f"{where}.initial")
    obs_cfg, kind = _choice(cfg, "observation", where, ("discrete", "gaussian"))
    ow = f"{where}.observation.{kind}"
    if kind == "discrete":
        matrix = _matrix(obs_cfg["discrete"], ow)
    else:
        g = obs_cfg["gaussian"]
        means = _matrix(_need(g, "means", ow), f"{ow}.means")
        variances = _matrix(_need(g, "variances", ow), f"{ow}.variances")
    try:
        obs = (DiscreteObs(matrix) if kind == "discrete"
               else discretize_gaussian(GaussianObs(means, variances), bins))
    except ValueError as exc:
        raise ConfigError(f"{ow}: {exc}") from None
    try:
        return DetectionModel(transition, initial, obs)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None


# each family's config fields are its dataclass fields
_FAMILIES = {cls.family: (cls, [f.name for f in dataclasses.fields(cls)]) for cls in FAMILIES}


def parse_cost(cfg: dict, where: str = "config.cost") -> object:
    """Parse a cost spec; the family converts and checks its own fields."""
    family = _need(cfg, "family", where)
    if not isinstance(family, str) or family not in _FAMILIES:
        raise ConfigError(f"{where}.family: unknown family {family!r}; expected one of {sorted(_FAMILIES)}")
    cls, fields = _FAMILIES[family]
    unknown = set(cfg) - set(fields) - {"family"}
    if unknown:
        raise ConfigError(f"{where}: unknown fields {sorted(unknown)} for family {family!r}")
    try:
        return cls(**{k: cfg[k] for k in fields if k in cfg})
    except ParameterError as exc:  # its message starts with the field's name
        raise ConfigError(f"{where}.{exc}") from None
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from None


def load_config(ref: str) -> dict:
    """Load a config by path, or by bundled name (e.g. ``fig3a``)."""
    path = Path(ref)
    if path.exists():
        try:
            text = path.read_text()
        except (OSError, UnicodeDecodeError) as exc:  # a directory or a binary file, say
            raise ConfigError(f"config {ref!r}: cannot read it ({exc})") from None
    else:
        candidate = resources.files("phasestop.configs").joinpath(f"{ref}.json")
        if not candidate.is_file():
            raise ConfigError(f"config {ref!r}: no such file and no bundled config with that name")
        text = candidate.read_text()
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {ref!r}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}")
    if not isinstance(cfg, dict):
        raise ConfigError(f"config {ref!r}: top level must be an object")
    return cfg


def _write(out_dir: Path, name: str, text: str) -> Path:
    target = out_dir / name
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        target.write_text(text, newline="\n")
    except OSError as exc:  # --out names a file, say
        raise ConfigError(f"cannot write {exc.filename or target}: {exc.strerror}") from None
    return target


def _write_json(out_dir: Path, name: str, obj) -> Path:
    """Write ``obj`` as strict JSON: a non-finite number is an error, never
    the ``NaN`` or ``Infinity`` that strict parsers reject."""
    try:
        text = json.dumps(obj, indent=2, allow_nan=False)
    except ValueError as exc:
        raise ConfigError(f"{name}: {exc}") from None
    return _write(out_dir, name, text + "\n")


def _grid_for(cfg: dict, model: DetectionModel) -> dp.SimplexGrid:
    m = _number(cfg.get("grid", {}), "m", 20, where="config.grid", low=1)
    return dp.build_grid(model.n_states, m)


def _model(
    cfg: dict, model_cfg: dict, where: str = "config.model", validate: bool = True
) -> DetectionModel:
    """Parse a model at the config's ``bins`` and, with ``validate``, check it
    under the config's ``validation`` tag."""
    model = parse_model(model_cfg, where, cfg.get("bins", DEFAULT_BINS))
    if not validate:
        return model
    try:
        problems = validate_model(model, cfg.get("validation", "relaxed"))
    except ValueError as exc:
        raise ConfigError(f"config.validation: {exc}") from None
    if problems:
        raise ConfigError(f"{where}: " + "; ".join(problems))
    return model


def _spec(cfg: dict, models: list, batch_command: str | None = None):
    """Parse the cost spec and check it against the models it runs with
    (``spec.n_states`` and ``spec.array_shapes``).

    ``batch_command`` names a command that runs the batch simulator, which
    supports the families in ``sim.BATCH_FAMILIES`` only, on models of at
    most ``sim.MAX_TABLE_ROWS`` states.
    """
    spec = parse_cost(_need(cfg, "cost", "config"))
    if batch_command is not None and spec.family not in sim.BATCH_FAMILIES:
        raise ConfigError(
            f"config.cost.family: {batch_command} supports {list(sim.BATCH_FAMILIES)}, "
            f"not {spec.family!r}"
        )
    for model in models:
        if batch_command is not None and model.n_states > sim.MAX_TABLE_ROWS:
            raise ConfigError(
                f"config.model: {batch_command} simulates at most {sim.MAX_TABLE_ROWS} states, "
                f"but the model has {model.n_states}"
            )
        if spec.n_states not in (None, model.n_states):
            raise ConfigError(
                f"config.cost.family: {spec.family!r} is a {spec.n_states}-state family, "
                f"but the model has {model.n_states} states"
            )
        for key, shape, want, meaning in spec.array_shapes(model):
            if shape != want:
                raise ConfigError(
                    f"config.cost.{key}: expected shape {want} ({meaning}), got {shape}"
                )
    return spec


def cmd_solve(cfg: dict, out_dir: Path, name: str) -> int:
    model = _model(cfg, _need(cfg, "model", "config"))
    spec = _spec(cfg, [model])
    grid = _grid_for(cfg, model)
    sol = dp.value_iterate(model, spec, grid, **_stopping_rule(cfg))
    regions = dp.extract_regions(sol, grid)
    violations = dp.convexity_check(regions.stop_indices, grid)
    crossings = {
        "toward_last_vertex": dp.line_crossing_check(sol, grid, model.n_states),
        "toward_first_vertex": dp.line_crossing_check(sol, grid, 1),
    }
    assumptions = orders.check_assumptions(model, spec).lines()
    _write(out_dir, f"{name}_solution.csv", dp.solution_csv(sol, grid, regions))
    report = {
        "grid_points": grid.n_points,
        "sweeps": sol.sweeps,
        "sup_delta": sol.sup_delta,
        "stop_points": int(len(regions.stop_indices)),
        "stop_components": regions.n_stop_components,
        "continue_components": regions.n_continue_components,
        "convexity_violations": len(violations),
        "max_line_crossings": crossings,
        "assumptions": assumptions,
    }
    _write_json(out_dir, f"{name}_report.json", report)
    for line in assumptions:
        print(line)
    print(
        f"{name}: stop={report['stop_points']}/{grid.n_points} "
        f"components stop={report['stop_components']} continue={report['continue_components']} "
        f"convexity_violations={report['convexity_violations']} "
        f"crossings={crossings['toward_last_vertex']}/{crossings['toward_first_vertex']}"
    )
    return 0


def cmd_orders(cfg: dict, out_dir: Path, name: str) -> int:
    model = _model(cfg, _need(cfg, "model", "config"), validate=False)
    spec = _spec(cfg, [model])
    report = orders.check_assumptions(model, spec)
    for line in report.lines():
        print(line)
    _write(out_dir, f"{name}_orders.txt", "\n".join(report.lines()) + "\n")
    return 0


def cmd_sweep(cfg: dict, out_dir: Path, name: str) -> int:
    entries = _need(cfg, "models", "config")
    if not isinstance(entries, list) or not entries:
        raise ConfigError("config.models: expected a non-empty list of {label, model} objects")
    labels = [str(_need(e, "label", f"config.models[{k}]")) for k, e in enumerate(entries)]
    for k, label in enumerate(labels):
        # each label names its solution file
        if set(label) & set("/\\\0"):
            raise ConfigError(
                f"config.models[{k}].label: {label!r} names a file, so it cannot hold '/', '\\' or NUL"
            )
        if label in labels[:k]:
            raise ConfigError(
                f"config.models[{k}].label: {label!r} is already the label of "
                f"config.models[{labels.index(label)}]"
            )
    models = [
        _model(cfg, _need(e, "model", f"config.models[{k}]"), f"config.models[{k}].model")
        for k, e in enumerate(entries)
    ]
    for k, model in enumerate(models):
        if model.n_states != models[0].n_states:
            # one grid serves every model
            raise ConfigError(
                f"config.models[{k}].model: {model.n_states} states, but "
                f"config.models[0].model has {models[0].n_states}"
            )
    spec = _spec(cfg, models)
    grid = _grid_for(cfg, models[0])
    res = dp.value_monotonicity_sweep(models, spec, grid, labels=labels, **_stopping_rule(cfg))
    for label, sol in zip(labels, res.solutions):
        _write(out_dir, f"{name}_{label}_solution.csv", dp.solution_csv(sol, grid))
    if not res.comparable:
        print("warning: transition matrices are not ordered; verdict: not comparable")
        verdict = "not comparable"
    else:
        verdict = "ordered" if res.monotone else "ordering violated"
    slack = min(res.pointwise_min_slack) if res.pointwise_min_slack else 0.0
    print(f"{name}: verdict={verdict} min_pointwise_slack={slack:.3g}")
    report = {
        "labels": labels,
        "premise_ordered": res.premise_ordered,
        "pointwise_min_slack": res.pointwise_min_slack,
        "verdict": verdict,
    }
    _write_json(out_dir, f"{name}_verdict.json", report)
    return 0


def cmd_spsa(cfg: dict, out_dir: Path, name: str) -> int:
    model = _model(cfg, _need(cfg, "model", "config"))
    spec = _spec(cfg, [model], "spsa")
    report = orders.check_assumptions(model, spec)
    if not report.passed:
        print(
            "warning: threshold-structure assumptions failed "
            f"({', '.join(report.failed_names())}); optimizing anyway"
        )
    defaults = vars(policy_mod.SpsaParams())
    gains = {k: _number(cfg.get("gains", {}), k, v, float, "config.gains") for k, v in defaults.items()}
    try:
        params = policy_mod.SpsaParams(**gains)
    except ValueError as exc:
        raise ConfigError(f"config.gains: {exc}") from None
    seed = _number(cfg, "seed", 0, low=0)
    rng = np.random.default_rng(seed)
    n_priors = _number(cfg, "priors", 100, low=1)
    priors = rng.dirichlet(np.ones(model.n_states), size=n_priors)
    iterations = _number(cfg, "iterations", 200, low=0)
    restarts = _number(cfg, "restarts", 5, low=1)
    max_steps = _optional_number(cfg, "max_steps", int, low=1)
    dim = model.n_states - 1
    if iterations == 0:
        init = _matrix(cfg.get("init_phi", np.zeros(dim)), "config.init_phi")
        if init.shape != (dim,):
            raise ConfigError(f"config.init_phi: expected {dim} numbers, got {cfg['init_phi']!r}")
        result = policy_mod.spsa_optimize(
            model, spec, init, 0, params, priors, rng, max_steps=max_steps
        )
        score = float("nan")
    elif "init_phi" in cfg:
        raise ConfigError(
            f"config.init_phi: only iterations 0 reads it (restarts draw their own starts), "
            f"but iterations is {iterations}"
        )
    else:
        result, score = policy_mod.optimize_with_restarts(
            model,
            spec,
            iterations,
            params,
            priors,
            rng,
            restarts=restarts,
            max_steps=max_steps,
        )
    buf = io.StringIO()
    head = (
        ["iteration"]
        + [f"phi{k}" for k in range(dim)]
        + [f"theta{k}" for k in range(dim)]
        + ["batch_cost"]
    )
    buf.write(",".join(head) + "\n")
    for n in range(result.phi_trace.shape[0]):
        cost = f"{result.costs[n - 1]:.17g}" if 1 <= n <= result.costs.size else ""
        row = (
            [str(n)]
            + [f"{v:.17g}" for v in result.phi_trace[n]]
            + [f"{v:.17g}" for v in result.theta_trace[n]]
            + [cost]
        )
        buf.write(",".join(row) + "\n")
    _write(out_dir, f"{name}_trace.csv", buf.getvalue())
    summary = {
        "theta": [float(v) for v in result.final_theta],
        "phi": [float(v) for v in result.final_phi],
        "evaluation_cost": None if np.isnan(score) else float(score),
        "feasible": bool(policy_mod.theta_is_mlr_increasing(result.final_theta)),
    }
    _write_json(out_dir, f"{name}_policy.json", summary)
    print(f"{name}: theta={summary['theta']} cost={summary['evaluation_cost']}")
    return 0


def _policy_from_config(cfg: dict, model: DetectionModel):
    src, kind = _choice(cfg, "policy", "config", ("theta", "solution"))
    if kind == "theta":
        theta = _matrix(src["theta"], "config.policy.theta")
        if theta.shape != (model.n_states - 1,) or not np.isfinite(theta).all():
            raise ConfigError(
                f"config.policy.theta: expected {model.n_states - 1} finite numbers, got {src['theta']!r}"
            )
        return policy_mod.LinearThresholdPolicy(theta)
    if not isinstance(src["solution"], str):
        raise ConfigError(f"config.policy.solution: expected a file path, got {src['solution']!r}")
    path = Path(src["solution"])
    if not path.is_file():
        raise ConfigError(f"config.policy.solution: no such file {path}")
    try:
        with path.open(encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise ConfigError(f"config.policy.solution: cannot read {path} ({exc})") from None
    if not rows:
        raise ConfigError("config.policy.solution: empty solution file")
    # DictReader puts extra fields under the key None and fills missing ones with None
    ragged = [k for k, r in enumerate(rows, 1) if None in r or None in r.values()]
    if ragged:
        raise ConfigError(f"config.policy.solution: data row {ragged[0]} has extra or missing fields")
    coord_keys = sorted(
        (k for k in rows[0] if k.startswith("c") and k[1:].isdigit()),
        key=lambda k: int(k[1:]),
    )
    if len(coord_keys) != model.n_states:
        raise ConfigError(
            "config.policy.solution: grid dimension does not match the model"
        )
    if "policy" not in rows[0]:
        raise ConfigError("config.policy.solution: missing 'policy' column")
    try:
        coords = np.array([[int(r[k]) for k in coord_keys] for r in rows])
        actions = np.array([int(r["policy"]) for r in rows])
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"config.policy.solution: {exc}") from None
    bad = sorted(set(actions.tolist()) - {dp.STOP, dp.CONTINUE})
    if bad:
        raise ConfigError(f"config.policy.solution: policy entries must be 1 or 2, got {bad}")
    x, m = model.n_states, int(coords[0].sum())
    n_points = math.comb(m + x - 1, x - 1) if m >= 1 else 0
    if len(rows) != n_points:
        raise ConfigError(
            f"config.policy.solution: {len(rows)} rows, but the grid of the first "
            f"row (m={m}) has {n_points} points"
        )
    grid = dp.build_grid(x, m)
    try:
        idx = grid.index_of(coords)
    except ValueError as exc:
        raise ConfigError(f"config.policy.solution: {exc}") from None
    seen = np.bincount(idx, minlength=grid.n_points)
    if (seen > 1).any():
        twice = tuple(int(v) for v in grid.coords[np.argmax(seen)])
        raise ConfigError(f"config.policy.solution: grid point {twice} appears more than once")
    ordered = np.empty(grid.n_points, dtype=int)
    ordered[idx] = actions
    return dp.GridPolicy(grid, ordered)


def cmd_simulate(cfg: dict, out_dir: Path, name: str) -> int:
    model = _model(cfg, _need(cfg, "model", "config"))
    spec = _spec(cfg, [model], "simulate")
    n = _number(cfg, "trajectories", _need(cfg, "trajectories", "config"))
    if n <= 0:
        raise ConfigError("config.trajectories: must be positive")
    pol = _policy_from_config(cfg, model)
    seed = _number(cfg, "seed", 0, low=0)
    max_steps = _number(cfg, "max_steps", sim.DETECTION_MAX_STEPS, low=1)
    record = _number(cfg, "record", 1, low=0)
    rng = np.random.default_rng(seed)
    priors = np.tile(np.asarray(model.initial, dtype=float), (n, 1))
    batch = sim.simulate_batch(model, spec, pol, priors, rng, max_steps=max_steps, transformed=False)
    # a family without a scalar d (transient) has no delay/false-alarm criterion
    d = getattr(spec, "d", None)
    summary = sim.decompose_from_times(
        batch.tau, batch.tau0, 0.0 if d is None else d, spec.beta, batch.censored
    )
    criterion = None if d is None else summary.criterion
    # one trajectory gives no standard error
    stderr = None if d is None or summary.n < 2 else summary.stderr
    mean_cost = float(batch.costs.mean())
    report = {
        "trajectories": summary.n,
        "mean_delay": summary.mean_delay,
        "false_alarm_rate": summary.false_alarm_rate,
        "criterion": criterion,
        "stderr": stderr,
        "censored": summary.n_censored,
        "mean_cost": mean_cost,
    }
    _write_json(out_dir, f"{name}_summary.json", report)
    rec_rng = np.random.default_rng(seed + 1)
    for k in range(min(record, n)):
        traj = sim.sample_trajectory(model, pol, max_steps=max_steps, rng=rec_rng)
        _write(out_dir, f"{name}_trajectory{k}.csv", sim.trajectory_csv(traj))
    head = (
        f"mean_cost={mean_cost:.6g}"
        if d is None
        else f"criterion={criterion:.6g} (se {summary.stderr:.2g})"
    )
    print(
        f"{name}: {head} "
        f"delay={summary.mean_delay:.6g} false_alarm={summary.false_alarm_rate:.6g}"
    )
    return 0


def cmd_phdist(cfg: dict, out_dir: Path, name: str) -> int:
    model = _model(cfg, _need(cfg, "model", "config"))
    k_max = _number(cfg, "k_max", 200, low=0)
    dist = ph_pmf(model, k_max, tag=cfg.get("validation", "relaxed"))
    buf = io.StringIO()
    buf.write("k,pmf,cumulative\n")
    cum = dist.partial_sums()
    for k, (p, c) in enumerate(zip(dist.pmf, cum)):
        buf.write(f"{k},{p:.17g},{c:.17g}\n")
    _write(out_dir, f"{name}_phdist.csv", buf.getvalue())
    print(f"{name}: mass within {k_max} steps = {cum[-1]:.12g}")
    return 0


_COMMANDS = {
    "solve": cmd_solve,
    "spsa": cmd_spsa,
    "orders": cmd_orders,
    "sweep": cmd_sweep,
    "simulate": cmd_simulate,
    "phdist": cmd_phdist,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="phasestop",
        description="Sequential-detection experiments on the belief simplex",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for cmd in _COMMANDS:
        p = sub.add_parser(cmd)
        p.add_argument("--config", required=True, help="config path or bundled name")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", default="results", help="output directory")
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg["seed"] = args.seed
        name = Path(args.config).stem
        return _COMMANDS[args.command](cfg, Path(args.out), name)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FloatingPointError as exc:  # a cost that overflows in a solve or a simulation
        print(f"error: config.cost: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())

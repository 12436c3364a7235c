"""Trajectory simulation and Monte Carlo cost evaluation.

Timing convention: the chain starts at ``x_0`` drawn from the initial belief;
at each step ``k >= 1`` the chain moves, a symbol is observed, the belief is
updated, and the decision is applied to the updated belief.  ``tau`` is the
first step whose decision is stop, ``tau0`` the first step in the absorbing
state.  Costs therefore start accruing at the first post-observation belief.

Draw convention: a draw from a pmf is the inverse CDF of one uniform
``u = rng.random()``: the first index whose CDF entry exceeds ``u``, that
is the number of entries at or below ``u``.  Every path draws this way, on
tables built by :func:`_cdf`, which pins the entries at a row's total to
1.0, so no draw picks a zero-probability column or one past the end.  The
batch paths (:func:`simulate_batch`, :func:`sample_change_times`) turn each
table into one sorted, flattened array of integer keys once per call
(:func:`_draw_table`), and every batch draw, whichever row of the table
each entry draws from, is one ``searchsorted`` on those keys
(:func:`_draw_positions`).  A draw is a position in the flattened table,
``s * cols + j`` for column ``j`` of row ``s``, and the batch paths map
positions to what they need through arrays built once per call: the chain
table to the next state's row offset ``j << 54``, which the step carries in
place of the state (offset 0 is state 1), and the observation table to the
likelihood row ``b[:, j]``.  The keys are exact: NumPy's ``random()``
returns ``k * 2**-53`` for an integer ``k``, so ``cdf <= u`` holds exactly
when ``ceil(cdf * 2**53) <= k``, and both sides are integers below
``2**53``.  A batch step draws one uniform per active row for the state
moves, then one per active row for the symbols, in ascending row order, in
one ``rng.random`` call of twice the active rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dp import CONTINUE, STOP, stage_cost_vectors
from .filters import ZeroProbabilityError, _bayes_step, as_belief, hmm_update
from .model import CostSpec, DetectionModel

DETECTION_MAX_STEPS = 10_000
# the additive-cost families driven by the plain Bayesian filter
BATCH_FAMILIES = ("quickest_predictive", "quickest_classical", "transient")
# a discounted batch runs until the largest stage cost, discounted, falls below this
TRUNCATION_TOL = 1e-8


@dataclass
class Trajectory:
    states: np.ndarray  # x_0 .. x_K (1-based state labels)
    observations: np.ndarray  # y_1 .. y_K (symbol indices)
    beliefs: np.ndarray  # pi_0 .. pi_K
    actions: np.ndarray  # u_1 .. u_K (1 stop / 2 continue)
    tau: int | None  # stop step, None when censored
    tau0: int | None  # first step in the absorbing state, None if not reached

    @property
    def censored(self) -> bool:
        return self.tau is None


def _cdf(pmf) -> np.ndarray:
    """Cumulative sums along the last axis, with the entries at each row's
    total pinned to 1.0: a total rounded below 1 must not let a uniform draw
    past the last column with positive probability."""
    cdf = np.cumsum(pmf, axis=-1)
    cdf[cdf >= cdf[..., -1:]] = 1.0
    return cdf


def _draw(rng: np.random.Generator, cdf: np.ndarray) -> int:
    return int(np.searchsorted(cdf, rng.random(), side="right"))


def sample_trajectory(
    model: DetectionModel,
    policy,
    max_steps: int = DETECTION_MAX_STEPS,
    rng: np.random.Generator | None = None,
) -> Trajectory:
    """Simulate one chain/observation/belief/decision path until ``policy.stop_mask`` stops."""
    rng = rng if rng is not None else np.random.default_rng()
    cdf_p = _cdf(model.transition)
    cdf_b = _cdf(model.discrete_obs().matrix)
    pi = as_belief(model.initial)
    x = _draw(rng, _cdf(pi))
    states = [x + 1]
    beliefs = [pi]
    observations: list[int] = []
    actions: list[int] = []
    tau = None
    tau0 = 0 if x == 0 else None
    for k in range(1, max_steps + 1):
        x = _draw(rng, cdf_p[x])
        if tau0 is None and x == 0:
            tau0 = k
        y = _draw(rng, cdf_b[x])
        pi = hmm_update(pi, y, model).next_belief
        u = STOP if policy.stop_mask(pi[None])[0] else CONTINUE
        states.append(x + 1)
        observations.append(y)
        beliefs.append(pi)
        actions.append(u)
        if u == STOP:
            tau = k
            break
    return Trajectory(
        states=np.array(states),
        observations=np.array(observations),
        beliefs=np.array(beliefs),
        actions=np.array(actions),
        tau=tau,
        tau0=tau0,
    )


# ---------------------------------------------------------------------------
# Vectorized batches


@dataclass
class BatchResult:
    costs: np.ndarray  # per-trajectory accumulated cost
    tau: np.ndarray  # stop step per trajectory (= max step when censored)
    tau0: np.ndarray  # first absorbing step, -1 when not reached
    censored: np.ndarray  # boolean


# the key of CDF entry c in row s of a draw table is ceil(c * 2**53) + s * 2**54:
# row s's keys lie in [s * 2**54, s * 2**54 + 2**53], below 2**63 for s <= 511
_GRID = 2.0**53
_ROW_SHIFT = 54
MAX_TABLE_ROWS = 511


def _draw_table(cdf: np.ndarray) -> np.ndarray:
    """The sorted ``int64`` search keys of the :func:`_cdf` table ``cdf``
    (rows, cols) for :func:`_draw_positions`, flattened row by row: entry
    ``(s, j)`` is ``ceil(cdf[s, j] * 2**53)`` offset by ``s << 54``.
    Raises ``ValueError`` for a table of more than 511 rows: up to 511,
    every key and every query of :func:`_draw_positions` stays below
    ``2**63``."""
    if cdf.shape[0] > MAX_TABLE_ROWS:
        raise ValueError(f"a draw table has at most {MAX_TABLE_ROWS} rows, got {cdf.shape[0]}")
    keys = np.ceil(cdf * _GRID).astype(np.int64)
    keys += np.arange(cdf.shape[0], dtype=np.int64)[:, None] << _ROW_SHIFT
    return keys.ravel()


def _draw_positions(keys: np.ndarray, offsets: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Inverse-CDF draws: entry ``i`` draws from row ``s = offsets[i] >> 54``
    of the table whose :func:`_draw_table` keys are ``keys``, with the
    uniform ``u[i]``, giving the draw's position ``s * cols + j`` in the
    flattened table, ``j`` being the number of entries of the row at or
    below ``u[i]``.

    Exact only for uniforms on the ``2**-53`` grid, as ``rng.random()``
    returns them: ``k = u * 2**53`` is then an integer, and a row's entry
    is at or below ``u`` exactly when its key is at or below
    ``offsets[i] + k``.  Every key of an earlier row lies below that query
    and every key of a later row above it, so one ``searchsorted`` over the
    flattened table counts ``s * cols`` entries plus the draw.
    """
    query = (u * _GRID).astype(np.int64)
    query += offsets
    return keys.searchsorted(query, side="right")


def _row_offsets(rows: int, cols: int) -> np.ndarray:
    """By position in a flattened (rows, cols) draw table, the row offset
    ``j << 54`` of the drawn column ``j``: the chain table's next state."""
    return np.tile(np.arange(cols, dtype=np.int64) << _ROW_SHIFT, rows)


def _stage_cost_bound(spec: CostSpec, model: DetectionModel) -> float:
    eye = np.eye(model.n_states)
    c1, c2 = stage_cost_vectors(spec, model, eye)
    bound = float(np.max(np.abs(np.concatenate([c1, c2]))))
    return bound + spec.alpha + 1e-12


def simulate_batch(
    model: DetectionModel,
    spec: CostSpec,
    policy,
    priors: np.ndarray,
    rng: np.random.Generator,
    max_steps: int | None = None,
    transformed: bool = True,
) -> BatchResult:
    """Simulate one trajectory per prior row, accumulating discounted stage costs.

    A row stops at the first step whose belief ``policy.stop_mask`` marks.
    With ``transformed=False`` the raw expected costs are accumulated.
    Censored trajectories contribute their truncated cost and are flagged.
    The step loop works on the still-active rows only, in ascending row
    order.  Raises :class:`~phasestop.filters.ZeroProbabilityError` when a
    row's filter normalisation is zero or not finite (a NaN prior, or a
    belief that underflowed away from the true state).

    ``policy`` may also be a list of T policies, giving (T, n) arrays.  The
    policies share one sample path per row (chain, symbols, beliefs), as only
    their stop steps differ: each step draws and filters once the rows some
    policy still runs, and every policy decides on all of them.  A policy
    whose stop region lies inside every other's thus matches its solo run
    bit for bit, generator end state included, and nested stop regions give
    stop steps ordered row by row.  The step prices continuing on every row
    it runs, and stopping only on the steps where some policy stops.
    """
    if spec.family not in BATCH_FAMILIES:
        raise ValueError(
            "batch cost simulation supports the additive-cost families driven "
            "by the plain Bayesian filter"
        )
    stacked = isinstance(policy, (list, tuple))
    policies = list(policy) if stacked else [policy]
    if not policies:
        raise ValueError("simulate_batch needs at least one policy")
    priors = np.atleast_2d(np.asarray(priors, dtype=float))
    n = priors.shape[0]
    b = model.discrete_obs().matrix
    p = model.transition
    rho = spec.rho
    if max_steps is None:
        if rho >= 1.0:
            max_steps = 500
        else:
            bound = _stage_cost_bound(spec, model)
            max_steps = int(np.ceil(np.log(TRUNCATION_TOL / max(bound, 1e-12)) / np.log(rho)))
            max_steps = max(1, min(max_steps, DETECTION_MAX_STEPS))
    keys_p, keys_b = _draw_table(_cdf(p)), _draw_table(_cdf(b))
    # by draw position: the next state's row offset, and symbol y's likelihood per state
    next_off, lik = _row_offsets(*p.shape), np.tile(b.T, (b.shape[0], 1))

    shape = (len(policies), n)
    costs = np.zeros(shape)
    tau = np.full(shape, max_steps, dtype=int)
    tau0 = np.full(shape, -1)
    censored = np.zeros(shape, dtype=bool)

    # the rows some policy still runs, ascending, with their state's row
    # offset, belief, tau0, running cost (the same for every policy still
    # running the row) and which policies still run them
    rows = np.arange(n)
    # the prior table has a row per trajectory: count its entries at or below u
    off = (_cdf(priors) <= rng.random(n)[:, None]).sum(axis=1) << _ROW_SHIFT
    beliefs, t0, acc = priors.copy(), np.where(off == 0, 0, -1), np.zeros(n)
    alive = np.ones(shape, dtype=bool)
    disc = 1.0
    for k in range(1, max_steps + 1):
        if rows.size == 0:
            break
        u = rng.random(2 * rows.size)  # the state moves' uniforms, then the symbols'
        off = next_off[_draw_positions(keys_p, off, u[: rows.size])]
        t0[(t0 < 0) & (off == 0)] = k
        y_pos = _draw_positions(keys_b, off, u[rows.size :])
        del u  # before the Bayes step allocates: no higher peak memory
        beliefs, sigma, low = _bayes_step(beliefs @ p, lik[y_pos])
        if not (low > 0.0 and sigma.max() < np.inf):
            j = int(np.argmax(~((sigma > 0.0) & (sigma < np.inf))))
            raise ZeroProbabilityError(
                f"simulate_batch step {k}: row {int(rows[j])} has filter normalisation "
                f"{sigma[j]} after observation {int(y_pos[j]) % b.shape[1]}"
            )
        stop = alive & np.array([pol.stop_mask(beliefs) for pol in policies])
        if stop.any():
            c_stop, c_cont = stage_cost_vectors(spec, model, beliefs, original=not transformed)
            t, j = np.nonzero(stop)
            done = rows[j]
            costs[t, done] = acc[j] + disc * c_stop[j]
            tau[t, done], tau0[t, done] = k, t0[j]
            alive ^= stop  # stop lies inside alive
            keep = np.flatnonzero(alive.any(axis=0))
            rows, off, beliefs, t0, acc, c_cont = (
                rows[keep], off[keep], beliefs[keep], t0[keep], acc[keep], c_cont[keep]
            )
            alive = alive[:, keep]
        else:  # no stop cost is read on this step
            c_cont = spec.continue_costs(model, beliefs, not transformed)
        acc += disc * c_cont
        disc *= rho
    t, j = np.nonzero(alive)
    costs[t, rows[j]], tau0[t, rows[j]], censored[t, rows[j]] = acc[j], t0[j], True
    if not stacked:
        return BatchResult(costs=costs[0], tau=tau[0], tau0=tau0[0], censored=censored[0])
    return BatchResult(costs=costs, tau=tau, tau0=tau0, censored=censored)


def sample_change_times(
    model: DetectionModel,
    n: int,
    rng: np.random.Generator,
    max_steps: int = DETECTION_MAX_STEPS,
) -> np.ndarray:
    """First-hit times of the absorbing state for ``n`` independent chains
    (-1 when not absorbed within ``max_steps``)."""
    p = model.transition
    keys_p, next_off = _draw_table(_cdf(p)), _row_offsets(*p.shape)
    states = np.searchsorted(_cdf(as_belief(model.initial)), rng.random(n), side="right")
    times = np.where(states == 0, 0, -1)
    rows = np.flatnonzero(states != 0)
    off = states[rows] << _ROW_SHIFT
    for k in range(1, max_steps + 1):
        if rows.size == 0:
            break
        off = next_off[_draw_positions(keys_p, off, rng.random(rows.size))]
        hit = off == 0
        times[rows[hit]] = k
        rows, off = rows[~hit], off[~hit]
    return times


# ---------------------------------------------------------------------------
# Criterion decomposition


@dataclass
class DetectionSummary:
    mean_delay: float
    false_alarm_rate: float
    criterion: float
    stderr: float
    n: int
    n_censored: int


def decompose_from_times(tau, tau0, d: float, beta: float, censored=None) -> DetectionSummary:
    """Empirical delay / false-alarm decomposition of the detection criterion.

    ``tau0 < 0`` encodes "change not reached"; the delay term is
    ``(tau - tau0)^+`` and a false alarm is a stop strictly before the change.
    """
    tau = np.asarray(tau, dtype=float)
    t0 = np.asarray(tau0, dtype=float)
    if tau.size == 0:
        raise ValueError("no trajectories")
    no_change = t0 < 0
    delay = np.where(no_change, 0.0, np.maximum(tau - t0, 0.0))
    false_alarm = np.where(no_change, 1.0, (tau < t0).astype(float))
    per_traj = d * delay + beta * false_alarm
    n = tau.size
    stderr = float(per_traj.std(ddof=1) / np.sqrt(n)) if n > 1 else float("inf")
    n_censored = int(np.asarray(censored).sum()) if censored is not None else 0
    return DetectionSummary(
        mean_delay=float(delay.mean()),
        false_alarm_rate=float(false_alarm.mean()),
        criterion=float(per_traj.mean()),
        stderr=stderr,
        n=n,
        n_censored=n_censored,
    )


def trajectory_csv(traj: Trajectory) -> str:
    """CSV rows (step, state, observation, belief components, action)."""
    x = traj.beliefs.shape[1]
    head = "step,state,observation," + ",".join(f"belief{k}" for k in range(x)) + ",action"
    lines = [head]
    for k in range(len(traj.beliefs)):
        obs = str(int(traj.observations[k - 1])) if 1 <= k <= len(traj.observations) else ""
        act = str(int(traj.actions[k - 1])) if 1 <= k <= len(traj.actions) else ""
        state = int(traj.states[k]) if k < len(traj.states) else int(traj.states[-1])
        belief = ",".join(f"{v:.17g}" for v in traj.beliefs[k])
        lines.append(f"{k},{state},{obs},{belief},{act}")
    return "\n".join(lines) + "\n"

import warnings

import numpy as np
import pytest

import oracles
from conftest import StopWhere
from phasestop import dp, filters, model, sim
from phasestop import policy as pol

always_stop = StopWhere(lambda pi: True)
never_stop = StopWhere(lambda pi: False)


def test_always_stop_gives_tau_one(geometric_model):
    traj = sim.sample_trajectory(geometric_model, always_stop, rng=np.random.default_rng(0))
    assert traj.tau == 1
    assert len(traj.actions) == 1
    assert not traj.censored


def test_absorbing_state_never_left(geometric_model):
    rng = np.random.default_rng(1)
    for _ in range(50):
        traj = sim.sample_trajectory(geometric_model, never_stop, max_steps=200, rng=rng)
        states = traj.states
        hits = np.nonzero(states == 1)[0]
        if hits.size:
            assert np.all(states[hits[0]:] == 1)
            assert traj.tau0 == hits[0]
        else:
            assert traj.tau0 is None
        assert traj.censored


def test_belief_consistency_bitwise(geometric_model):
    rng = np.random.default_rng(2)
    policy = StopWhere(lambda pi: pi[0] > 0.9)
    for _ in range(1000):
        traj = sim.sample_trajectory(geometric_model, policy, max_steps=500, rng=rng)
        pi = np.asarray(geometric_model.initial, dtype=float)
        assert np.array_equal(traj.beliefs[0], pi)
        for k, y in enumerate(traj.observations, start=1):
            pi, _ = filters.hmm_update(pi, int(y), geometric_model)
            assert np.array_equal(traj.beliefs[k], pi)


def test_trajectory_determinism(geometric_model):
    policy = StopWhere(lambda pi: pi[0] > 0.8)
    a = sim.sample_trajectory(geometric_model, policy, rng=np.random.default_rng(33))
    b = sim.sample_trajectory(geometric_model, policy, rng=np.random.default_rng(33))
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.observations, b.observations)
    assert np.array_equal(a.beliefs, b.beliefs)
    assert a.tau == b.tau and a.tau0 == b.tau0


def test_stop_step_is_first_stop_action(geometric_model):
    policy = StopWhere(lambda pi: pi[0] > 0.6)
    rng = np.random.default_rng(4)
    for _ in range(50):
        traj = sim.sample_trajectory(geometric_model, policy, rng=rng)
        if traj.tau is not None:
            acts = traj.actions
            assert acts[traj.tau - 1] == 1
            assert np.all(acts[: traj.tau - 1] == 2)


def test_change_times_match_ph_pmf(staged_model):
    m = staged_model(0.2)
    kmax = 120
    nu = model.ph_pmf(m, kmax).pmf
    times = oracles.sample_change_times(m, 20_000, np.random.default_rng(5), max_steps=2000)
    emp = np.bincount(np.clip(times, 0, kmax + 1), minlength=kmax + 2) / times.size
    ref = np.concatenate([nu, [max(0.0, 1 - nu.sum())]])
    tv = 0.5 * np.abs(emp - ref).sum()
    assert tv < 0.05


def test_batch_matches_trajectory_distribution(geometric_model):
    # the batch and scalar simulators implement the same law: compare the
    # stop-time distribution of a threshold policy
    policy = StopWhere(lambda pi: pi[0] > 0.7)
    spec = model.QuickestClassicalDelay(
        alpha=0.0, beta=3.0, d=1.0, rho=1.0, false_alarm=[0, 1]
    )
    priors = np.tile([0.0, 1.0], (4000, 1))
    batch = sim.simulate_batch(
        geometric_model, spec, policy, priors,
        np.random.default_rng(6), max_steps=500,
    )
    rng = np.random.default_rng(7)
    taus = np.array(
        [sim.sample_trajectory(geometric_model, policy, rng, 500).tau for _ in range(4000)]
    )
    assert abs(batch.tau.mean() - taus.mean()) < 0.3
    assert abs(np.median(batch.tau) - np.median(taus)) <= 1


def test_batch_rejects_other_families(identity_model_2):
    spec = model.SocialStopping(
        d=1.8, beta=2.0, rho=0.9, local_costs=[[4.57, 5.57], [2.57, 0.0]]
    )
    with pytest.raises(ValueError):
        sim.simulate_batch(
            identity_model_2, spec, None, np.array([[0.5, 0.5]]), np.random.default_rng(0)
        )


def test_zero_discount_runs_one_step_without_a_log_of_zero(geometric_model):
    # at rho = 0 every step after the first is discounted to 0, so the default
    # truncation is one step, reached without taking log(0)
    spec = model.QuickestPredictiveDelay(alpha=0.0, beta=1.0, d=1.0, rho=0.0)
    priors = np.tile(geometric_model.initial, (50, 1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        batch = sim.simulate_batch(geometric_model, spec, never_stop, priors, np.random.default_rng(0))
    assert (batch.tau == 1).all() and batch.censored.all()


def test_decompose_from_times_edge_cases(geometric_model):
    spec = model.QuickestClassicalDelay(
        alpha=0.0, beta=2.0, d=1.0, rho=1.0, false_alarm=[0, 1]
    )
    priors = np.tile(geometric_model.initial, (500, 1))
    rng = np.random.default_rng(8)
    batch = sim.simulate_batch(geometric_model, spec, always_stop, priors, rng)
    summary = sim.decompose_from_times(batch.tau, batch.tau0, 1.0, 2.0, batch.censored)
    assert summary.mean_delay == 0.0
    # stopping at step one is a false alarm whenever the change comes later
    p21 = geometric_model.transition[1, 0]
    assert summary.false_alarm_rate == pytest.approx(1 - p21, abs=0.06)

    batch = sim.simulate_batch(geometric_model, spec, never_stop, priors[:100], rng, max_steps=300)
    summary = sim.decompose_from_times(batch.tau, batch.tau0, 1.0, 2.0, batch.censored)
    assert summary.false_alarm_rate == 0.0
    assert summary.n_censored == 100
    with pytest.raises(ValueError):
        sim.decompose_from_times([], [], 1.0, 1.0)


def test_trajectory_csv_layout(geometric_model):
    traj = sim.sample_trajectory(
        geometric_model, StopWhere(lambda pi: pi[0] > 0.6),
        rng=np.random.default_rng(11),
    )
    text = sim.trajectory_csv(traj)
    lines = text.strip().split("\n")
    assert lines[0] == "step,state,observation,belief0,belief1,action"
    assert len(lines) == len(traj.beliefs) + 1
    first = lines[1].split(",")
    assert first[0] == "0" and first[2] == "" and first[-1] == ""


# ---------------------------------------------------------------------------
# Bit-identity of the batch kernels against the plain step loop they replace


def _reference_simulate_batch(
    model_, spec, policy, priors, rng, max_steps=None, transformed=True,
    truncation_tol=1e-8,
):
    """The full-width loop: a fresh ``cumsum`` per draw, every per-row array
    gathered and scattered through the active mask on every step."""

    def draw_rows(pmf_rows):
        cum = np.cumsum(pmf_rows, axis=1)
        u = rng.random(pmf_rows.shape[0])
        return (u[:, None] > cum).sum(axis=1)

    priors = np.atleast_2d(np.asarray(priors, dtype=float))
    n = priors.shape[0]
    b = model_.discrete_obs().matrix
    p = model_.transition
    rho = getattr(spec, "rho", 1.0)
    if max_steps is None:
        if rho >= 1.0:
            max_steps = 500
        else:
            bound = sim._stage_cost_bound(spec, model_)
            max_steps = int(np.ceil(np.log(truncation_tol / max(bound, 1e-12)) / np.log(rho)))
            max_steps = max(1, min(max_steps, sim.DETECTION_MAX_STEPS))
    states = draw_rows(priors)
    beliefs = priors.copy()
    costs = np.zeros(n)
    tau = np.full(n, max_steps, dtype=int)
    tau0 = np.where(states == 0, 0, -1)
    active = np.ones(n, dtype=bool)
    disc = 1.0
    for k in range(1, max_steps + 1):
        idx = np.nonzero(active)[0]
        if idx.size == 0:
            break
        states[idx] = draw_rows(p[states[idx]])
        tau0[idx[(tau0[idx] < 0) & (states[idx] == 0)]] = k
        ys = draw_rows(b[states[idx]])
        unnorm = (beliefs[idx] @ p) * b[:, ys].T
        beliefs[idx] = unnorm / unnorm.sum(axis=1)[:, None]
        stop = np.asarray(policy.stop_mask(beliefs[idx]))
        c_stop, c_cont = dp.stage_cost_vectors(
            spec, model_, beliefs[idx], original=not transformed
        )
        costs[idx[stop]] += disc * c_stop[stop]
        costs[idx[~stop]] += disc * c_cont[~stop]
        tau[idx[stop]] = k
        active[idx[stop]] = False
        disc *= rho
    return sim.BatchResult(costs=costs, tau=tau, tau0=tau0, censored=active.copy())


def _reference_change_times(model_, n, rng, max_steps=sim.DETECTION_MAX_STEPS):
    def draw_rows(pmf_rows):
        u = rng.random(pmf_rows.shape[0])
        return (u[:, None] > np.cumsum(pmf_rows, axis=1)).sum(axis=1)

    p = model_.transition
    states = draw_rows(np.tile(np.asarray(model_.initial, dtype=float), (n, 1)))
    times = np.where(states == 0, 0, -1)
    active = states != 0
    for k in range(1, max_steps + 1):
        idx = np.nonzero(active)[0]
        if idx.size == 0:
            break
        states[idx] = draw_rows(p[states[idx]])
        hit = idx[states[idx] == 0]
        times[hit] = k
        active[hit] = False
    return times


def assert_batches_equal(a, b):
    for field in ("costs", "tau", "tau0", "censored"):
        x, y = getattr(a, field), getattr(b, field)
        assert x.dtype == y.dtype, field
        assert np.array_equal(x, y), field


FOUR_PHASE = model.DetectionModel(
    [[1, 0, 0, 0], [0.3, 0.5, 0.2, 0], [0, 0.03, 0.97, 0], [0, 0, 0.07, 0.93]],
    [0, 0, 0, 1],
    model.discretize_gaussian(model.GaussianObs([0, 1, 1, 1], [0.5, 0.5, 0.5, 0.5]), 101),
)


def both_batches(model_, spec, policy, priors, seed, **kw):
    """The batch and its reference, each on a fresh generator from ``seed``;
    asserts that both generators end in the same state."""
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    new = sim.simulate_batch(model_, spec, policy, priors, rng, **kw)
    ref = _reference_simulate_batch(model_, spec, policy, priors, ref_rng, **kw)
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    return new, ref


@pytest.fixture(scope="module")
def grid_policy_m12(three_state_model):
    spec = model.QuickestPredictiveDelay(alpha=0.0, beta=1.0, d=1.0, rho=1.0, op_cost=1e-3)
    g = dp.build_grid(3, 12)
    sol = dp.value_iterate(three_state_model, spec, g, horizon=100)
    return spec, dp.GridPolicy(g, sol.policy)


@pytest.mark.parametrize("transformed", [True, False])
def test_batch_bit_identical_grid_policy(three_state_model, grid_policy_m12, transformed):
    spec, grid_policy = grid_policy_m12
    priors = np.tile(three_state_model.initial, (5000, 1))
    new, ref = both_batches(
        three_state_model, spec, grid_policy, priors, 5,
        max_steps=3000, transformed=transformed,
    )
    assert_batches_equal(new, ref)
    assert new.tau.max() > 50  # a real tail, not a one-step batch


@pytest.mark.parametrize("seed", range(10))
def test_batch_bit_identical_linear_policy(three_state_model, seed):
    spec = model.QuickestPredictiveDelay(alpha=0.0, beta=1.0, d=1.0, rho=1.0, op_cost=1e-3)
    rng = np.random.default_rng(seed)
    priors = rng.dirichlet(np.ones(3), size=100)
    linear = pol.LinearThresholdPolicy(pol.phi_to_theta(rng.normal(size=2)))
    new, ref = both_batches(three_state_model, spec, linear, priors, 100 + seed, max_steps=500)
    assert_batches_equal(new, ref)


def test_batch_bit_identical_plain_callable_discounted():
    # a per-belief predicate policy, a 4-state Gaussian chain, and a derived step cap
    spec = model.QuickestClassicalDelay(
        alpha=0.5, beta=2.0, d=1.0, rho=0.95, false_alarm=[0, 1, 1, 1]
    )
    priors = np.random.default_rng(3).dirichlet(np.ones(4), size=400)
    policy = StopWhere(lambda pi: pi[0] > 0.6)
    for transformed in (True, False):
        new, ref = both_batches(FOUR_PHASE, spec, policy, priors, 9, transformed=transformed)
        assert_batches_equal(new, ref)
    assert new.tau.max() < 1000  # the derived cap, not the 500 default or 10 000


@pytest.mark.parametrize("false_alarm", [None, [0, 1, 1.2]])
def test_batch_bit_identical_transient(staged_model, false_alarm):
    # the variance penalty needs the default false alarm; the discounted spec
    # derives its step cap from the stage-cost bound
    spec = model.TransientDetection(
        alpha=0.5 if false_alarm is None else 0.0, beta=2.0, delays=[1.0, 1.5, 0.0],
        rho=0.95 if false_alarm is None else 1.0, false_alarm=false_alarm,
    )
    m = staged_model(0.0)
    rng = np.random.default_rng(6)
    priors = rng.dirichlet(np.ones(3), size=200)
    linear = pol.LinearThresholdPolicy(np.array([1.2, 0.3]))
    for transformed in (True, False):
        new, ref = both_batches(m, spec, linear, priors, 12, transformed=transformed)
        assert_batches_equal(new, ref)
    # at least 10 steps on which no row stops, so no stop cost is charged
    assert new.tau.max() - np.unique(new.tau).size >= 10


def test_batch_bit_identical_always_stop_and_censoring(geometric_model):
    spec = model.QuickestClassicalDelay(
        alpha=0.0, beta=3.0, d=1.0, rho=1.0, false_alarm=[0, 1]
    )
    priors = np.tile([0.0, 1.0], (300, 1))
    new, ref = both_batches(geometric_model, spec, always_stop, priors, 1, max_steps=50)
    assert_batches_equal(new, ref)
    assert np.all(new.tau == 1)
    mixed = StopWhere(lambda pi: pi[0] > 0.95)
    for policy in (never_stop, mixed):
        new, ref = both_batches(geometric_model, spec, policy, priors, 2, max_steps=4)
        assert_batches_equal(new, ref)
        assert new.censored.any()


FIVE_PHASE = model.DetectionModel(
    [[1, 0, 0, 0, 0], [0.2, 0.8, 0, 0, 0], [0, 0.1, 0.9, 0, 0], [0, 0, 0.05, 0.95, 0],
     [0, 0, 0, 0.03, 0.97]],
    [0, 0, 0, 0, 1],
    model.discretize_gaussian(model.GaussianObs([0.0, 0.5, 1.0, 1.5, 2.0], [1.0] * 5), 21),
)


def test_batch_bit_identical_across_price_blocks(three_state_model, geometric_model, monkeypatch):
    # costs are priced per block of recorded steps, a one-row step alone:
    # (a) 300 rows whose row-steps fill several blocks, some censored
    spec = model.QuickestPredictiveDelay(alpha=0.0, beta=1.0, d=1.0, rho=1.0, op_cost=1e-3)
    priors = np.random.default_rng(0).dirichlet(np.ones(3), size=300)
    linear = pol.LinearThresholdPolicy([1.0, 0.05])
    for transformed in (True, False):
        new, ref = both_batches(
            three_state_model, spec, linear, priors, 40, max_steps=500, transformed=transformed
        )
        assert_batches_equal(new, ref)
    assert new.tau.sum() >= 3 * sim.BLOCK_ROW_STEPS and new.censored.any()
    # (b) a one-row batch: every step is priced alone
    new, ref = both_batches(three_state_model, spec, linear, priors[:1], 41, max_steps=500)
    assert_batches_equal(new, ref)
    # (c) two states with a long run to a tiny threshold, and a 5-state chain
    # with a false-alarm vector that ends in a long one-row tail
    classical = model.QuickestClassicalDelay(
        alpha=0.5, beta=2.0, d=1.0, rho=0.99, false_alarm=[0, 1]
    )
    priors = np.tile([0.0, 1.0], (60, 1))
    tiny = pol.LinearThresholdPolicy([1e-30])
    new, ref = both_batches(geometric_model, classical, tiny, priors, 0)
    assert_batches_equal(new, ref)
    assert new.tau.max() > 50
    classical = model.QuickestClassicalDelay(
        alpha=0.5, beta=2.0, d=1.0, rho=0.98, false_alarm=[0, 1, 1.5, 2, 2.5]
    )
    priors = np.random.default_rng(0).dirichlet(np.ones(5), size=80)
    linear = pol.LinearThresholdPolicy([1.0, 1.0, 1.0, 0.1])
    for transformed in (True, False):
        new, ref = both_batches(
            FIVE_PHASE, classical, linear, priors, 0, max_steps=500, transformed=transformed
        )
        assert_batches_equal(new, ref)
    tau = np.sort(new.tau)
    assert tau[-1] - tau[-2] >= 20  # one row runs alone after the second-last stop
    # (d) three stacked linear policies at X = 4: long stop-free runs, broken
    # by stops and by compactions, and a one-row tail; the stack equals its
    # inner policy's solo run and, row by row, the same stack charged one step
    # at a time, each step priced by its own stage_cost_vectors call
    classical = model.QuickestClassicalDelay(
        alpha=0.5, beta=2.0, d=1.0, rho=0.999, false_alarm=[0, 1, 1.5, 2]
    )
    priors = np.tile(FOUR_PHASE.initial, (40, 1))
    thetas = ([1.0, 1.0, 0.1], [1.0, 1.0, 0.05], [1.0, 1.0, 0.02])
    stack = [pol.LinearThresholdPolicy(np.array(th)) for th in thetas]
    for transformed in (True, False):
        kw = dict(max_steps=500, transformed=transformed)
        new = assert_shared_paths(FOUR_PHASE, classical, stack, 2, priors, 0, **kw)
        assert_batches_equal(*both_batches(FOUR_PHASE, classical, stack[2], priors, 0, **kw))
        monkeypatch.setattr(sim, "_price_steps", price_each_step)
        each = sim.simulate_batch(FOUR_PHASE, classical, stack, priors, np.random.default_rng(0), **kw)
        monkeypatch.undo()
        assert_batches_equal(new, each)
    stops = np.unique(new.tau)
    assert np.diff(stops).max() >= 50 and stops.size >= 40 and not new.censored.any()
    last = np.sort(new.tau.max(axis=0))  # the step at which each row leaves the batch
    assert last[-1] - last[-2] >= 50 and np.unique(last).size >= 20


def price_each_step(spec, model_, original, steps, acc, first, enters, out):
    """``sim._price_steps`` one recorded step at a time: each step's first
    visits to state 1 and costs from its own calls, settled as a per-step
    loop would."""
    for k, disc, beliefs, rows, moves, stops, keep in steps:
        visit = rows[enters[moves]]
        first[visit[first[visit] > k]] = k
        c1, c2 = dp.stage_cost_vectors(spec, model_, beliefs, original=original)
        if stops is not None:
            t, j = stops
            done = rows[j]
            out.tau[t, done] = k
            out.tau0[t, done] = np.where(first[done] <= k, first[done], -1)
            out.costs[t, done] = acc[j] + disc * c1[j]
            acc, c2 = acc[keep], c2[keep]
        acc += disc * c2
    return acc


def leaving_chain(x):
    """An X-state chain that leaves state 1 again (with probability 0.4 per
    step) and enters it with probability at most 0.03 per step; the initial
    belief puts no mass on state 1."""
    rng = np.random.default_rng(70 + x)
    p = rng.dirichlet(np.ones(x), size=x)
    p[1:, 0] = 0.03 * p[1:, 0] / p[1:, 0].max()
    p[1:, 1:] *= ((1 - p[1:, 0]) / p[1:, 1:].sum(axis=1))[:, None]
    p[0] = np.r_[0.6, np.full(x - 1, 0.4 / (x - 1))]
    means = np.r_[0.0, 1.0 + 0.5 * np.arange(x - 1)]
    obs = model.discretize_gaussian(model.GaussianObs(means, np.full(x, 0.25)), 21)
    return model.DetectionModel(p, np.r_[0.0, np.full(x - 1, 1 / (x - 1))], obs)


@pytest.mark.parametrize("x", [2, 3, 4, 5])
def test_tau0_is_the_first_visit_on_a_chain_that_leaves_state_1(x):
    m = leaving_chain(x)
    spec = model.QuickestPredictiveDelay(alpha=0.0, beta=1.0, d=1.0, rho=1.0, op_cost=1e-3)
    rng = np.random.default_rng(x)
    eye = np.eye(x)
    # rows drawn anywhere, rows that start in state 1, rows that start in the last state
    priors = np.vstack([rng.dirichlet(np.ones(x), size=150), np.tile(eye[0], (25, 1)), np.tile(eye[-1], (25, 1))])
    linear = pol.LinearThresholdPolicy(np.r_[np.ones(x - 2), 0.05])
    for policy in (linear, never_stop):
        new, ref = both_batches(m, spec, policy, priors, 80 + x, max_steps=40)
        assert_batches_equal(new, ref)
        assert np.all(new.tau0[150:175] == 0)
        assert (new.tau0 == -1).sum() >= 20 and (new.tau0 > 0).sum() >= 40
    first = new.tau0  # never_stop's: each row's first visit within the 40 steps
    # stacked, never_stop innermost: a row's tau0 is its first visit up to its stop
    stack = [pol.LinearThresholdPolicy(np.r_[np.ones(x - 2), 0.6]), linear, never_stop]
    batch = assert_shared_paths(m, spec, stack, 2, priors, 80 + x, max_steps=40)
    for t in range(len(stack)):
        seen = (first >= 0) & (first <= batch.tau[t])
        assert np.array_equal(batch.tau0[t], np.where(seen, first, -1)), t
    assert (batch.tau0[0] != first).any()  # a row that stopped before its first visit


def test_change_times_bit_identical(staged_model):
    for m in (staged_model(0.2), FOUR_PHASE):
        for seed in range(3):
            new = oracles.sample_change_times(m, 3000, np.random.default_rng(seed), max_steps=400)
            ref = _reference_change_times(m, 3000, np.random.default_rng(seed), max_steps=400)
            assert new.dtype == ref.dtype and np.array_equal(new, ref)


GRID = 2.0**53


def draw_positions(table, states, u):
    """``sim._draw_positions`` from the rows ``states`` of a draw table, with
    the grid uniforms ``u`` quantized to their integer keys."""
    return sim._draw_positions(table, (states << sim._ROW_SHIFT) + (u * GRID).astype(np.int64))


def grid_uniforms_around(cdf):
    """Uniforms on the ``2**-53`` grid of ``rng.random()`` at and next to the
    entries of ``cdf``: each entry that lies on the grid, the grid points on
    each side of every entry, and the ends 0 and 1 - 2**-53."""
    scaled = np.asarray(cdf).ravel() * GRID
    k = np.concatenate(
        [np.floor(scaled) - 1, np.floor(scaled), np.ceil(scaled), np.ceil(scaled) + 1, [0, GRID - 1]]
    )
    return np.unique(np.clip(k, 0, GRID - 1)) / GRID


def shaped_pmf(cols, rng):
    """Six random pmf rows over ``cols`` columns, five of them given shapes
    that a draw must handle."""
    pmf = rng.dirichlet(np.ones(cols), size=6)
    pmf[0] = np.eye(cols)[0]  # an absorbing row: CDF entries all 1
    pmf[1, 1] = 0.0  # a zero-probability column inside the row
    pmf[2, 0] = 0.0  # and one at its start: the CDF starts at 0
    pmf[3, -1] = 0.0  # and one at its end
    pmf[4, :2] = [1e-300, 1e-17]  # entries off the grid, below its first step
    return pmf / pmf.sum(axis=1, keepdims=True)


def test_draw_rows_matches_searchsorted():
    for cols in (3, 7, 101):
        rng = np.random.default_rng(12 + cols)
        pmf = shaped_pmf(cols, rng)
        cdf = sim._cdf(pmf)
        assert (cdf == 1.0).sum() > len(cdf)  # entries pinned to 1.0 besides the last
        # the grid points at and around every entry of every row, then random
        # ones: the tie u == cdf counts as "at or below", so on a run of equal
        # entries (a zero-probability column) the draw is the column after the run
        u_grid = grid_uniforms_around(cdf)
        states = np.concatenate([np.repeat(np.arange(6), u_grid.size), rng.integers(0, 6, 500)])
        u = np.concatenate([np.tile(u_grid, 6), rng.random(500)])
        assert u.min() == 0.0 and u.max() == 1.0 - 2.0**-53
        assert np.array_equal(u * GRID, np.floor(u * GRID))  # every uniform on the grid
        want = np.array([np.searchsorted(cdf[s], v, side="right") for s, v in zip(states, u)])
        assert pmf[states, want].min() > 0.0  # never a zero-probability column
        got = draw_positions(sim._DrawTable(cdf), states, u)
        assert got.dtype == np.intp and np.array_equal(got, states * cols + want), cols


def test_draw_table_row_limit():
    cdf = sim._cdf(np.full((sim.MAX_TABLE_ROWS, 4), 0.25))
    table = sim._DrawTable(cdf)
    keys = table.keys
    assert keys.ndim == 1 and np.all(np.diff(keys) > 0)  # flat, sorted, rows apart
    top = np.array([sim.MAX_TABLE_ROWS - 1] * 3)
    u = np.array([0.0, 0.5, 1.0 - 2.0**-53])
    assert list(draw_positions(table, top, u) - top * 4) == [0, 2, 3]
    # a long array reads the guide, which stays within its bound: 511 rows
    # of 2**13 entries would be 4.2 million
    rows = np.arange(sim.MAX_TABLE_ROWS).repeat(3)
    got = draw_positions(table, rows, np.tile(u, sim.MAX_TABLE_ROWS))
    assert rows.size >= sim.GUIDE_MIN_QUERIES and "guide" in vars(table)
    assert table.guide.size <= sim.GUIDE_MAX_ENTRIES
    assert np.array_equal(got - rows * 4, np.tile([0, 2, 3], sim.MAX_TABLE_ROWS))
    with pytest.raises(ValueError, match="at most 511 rows"):
        sim._DrawTable(sim._cdf(np.full((sim.MAX_TABLE_ROWS + 1, 4), 0.25)))


def test_guide_draws_match_searchsorted_at_bucket_edges(three_state_model):
    # every bucket's first grid point b << shift and the one below it (on a
    # 101-column table, b * 2**41 and b * 2**41 - 1) and the grid points
    # around every entry, from every row of fig3a's observation table and of
    # the shaped tables: one long array through the guide, and the same
    # queries in arrays too short for it, must give per-row searchsorted
    rng = np.random.default_rng(41)
    tables = [three_state_model.discrete_obs().matrix] + [shaped_pmf(c, rng) for c in (3, 7, 101)]
    for pmf in tables:
        cdf = sim._cdf(pmf)
        rows, cols = cdf.shape
        table = sim._DrawTable(cdf)
        edges = np.arange(1 << table.bits, dtype=np.int64) << table.shift
        k = np.concatenate([edges, edges[1:] - 1]).astype(float)
        u_row = np.unique(np.concatenate([k / GRID, grid_uniforms_around(cdf)]))
        states, u = np.arange(rows).repeat(u_row.size), np.tile(u_row, rows)
        want = np.concatenate([np.searchsorted(row, u_row, side="right") for row in cdf])
        short = [
            draw_positions(table, s, v)
            for s, v in zip(np.array_split(states, 200), np.array_split(u, 200))
        ]
        assert max(map(len, short)) < sim.GUIDE_MIN_QUERIES and "guide" not in vars(table)
        got = draw_positions(table, states, u)
        assert got.dtype == np.intp and np.array_equal(got, states * cols + want), cols
        assert np.array_equal(np.concatenate(short), got)
        # both kinds of bucket were met: one count for the whole bucket, and -1
        hits = table.guide[((u * GRID).astype(np.int64) + (states << sim._ROW_SHIFT)) >> table.shift]
        assert (hits >= 0).any() and (hits < 0).any()
        assert table.shift == 41 if cols == 101 else table.shift > 41


class Uniforms:
    """A generator stand-in that returns the given uniforms in order, and
    raises ``IndexError`` when asked for more.  Its ``bit_generator.state``
    is its position, which can be set back."""

    def __init__(self, values):
        self.values, self.state, self.bit_generator = list(values), 0, self

    def random(self, size=None):
        if size is None:
            return self.random(1)[0]
        if self.state + size > len(self.values):
            raise IndexError(f"uniform {len(self.values) + 1} asked for, {len(self.values)} given")
        self.state += size
        return np.array(self.values[self.state - size : self.state])


def test_draws_at_the_ends_of_the_unit_interval(three_state_model):
    # fig3a's chain: its initial belief and its state-3 transition row start
    # with a zero-probability column, and the cumulative sum of its state-1
    # observation row ends at 1 - 2**-53, the largest value rng.random() returns
    m = three_state_model
    b = m.discrete_obs().matrix
    top = 1.0 - 2.0**-53
    assert np.cumsum(b[0])[-1] == top
    table = sim._DrawTable(sim._cdf([[0.0, 0.5, 0.5]]))
    assert list(draw_positions(table, np.array([0, 0]), np.array([0.0, top]))) == [1, 2]
    # x_0 = 3, then u = 0 moves 3 -> 2 -> 1, and state 1 draws a symbol at u = top
    uniforms = [0.0, 0.0, 0.5, 0.0, top]
    traj = sim.sample_trajectory(m, never_stop, max_steps=2, rng=Uniforms(uniforms))
    assert list(traj.states) == [3, 2, 1] and traj.tau0 == 2
    y = int(traj.observations[-1])
    assert y < b.shape[1] and b[0, y] > 0.0
    spec = model.QuickestPredictiveDelay(alpha=0.0, beta=1.0, d=1.0, rho=1.0, op_cost=1e-3)
    batch = sim.simulate_batch(
        m, spec, never_stop, np.array([m.initial]), Uniforms(uniforms), max_steps=2
    )
    assert batch.tau0[0] == 2 and batch.censored[0]
    assert oracles.sample_change_times(m, 1, Uniforms([0.0] * 3), max_steps=2)[0] == 2


def test_batch_nan_prior_raises_zero_probability(geometric_model):
    spec = model.QuickestClassicalDelay(
        alpha=0.0, beta=3.0, d=1.0, rho=1.0, false_alarm=[0, 1]
    )
    priors = np.tile([0.2, 0.8], (5, 1))
    priors[3] = np.nan
    linear = pol.LinearThresholdPolicy(np.array([0.5]))
    b = geometric_model.discrete_obs().matrix
    # the NaN row starts in state 1; on the second chain it moves to state 2,
    # whose symbols sit past state 1's in the flattened observation table
    for chain, state in ((geometric_model.transition, 0), ([[0, 1], [0.3, 0.7]], 1)):
        m = model.DetectionModel(chain, geometric_model.initial, geometric_model.obs)
        rng = np.random.default_rng(0)
        u = [rng.random(5) for _ in range(3)][2][3]  # prior, move, then symbol draws
        y = int(np.searchsorted(np.cumsum(b[state]), u, side="right"))
        with pytest.raises(
            filters.ZeroProbabilityError, match=f"step 1: row 3 .* after observation {y}$"
        ):
            sim.simulate_batch(m, spec, linear, priors, np.random.default_rng(0), max_steps=20)


class StopAt:
    """A policy that stops every row at its ``k``-th stop test: at step ``k``."""

    def __init__(self, k):
        self.k, self.calls = k, 0

    def stop_mask(self, pts):
        self.calls += 1
        return np.full(pts.shape[0], self.calls >= self.k)


BLOCK = sim.UNIFORM_BLOCK


@pytest.mark.parametrize(
    "rows, stop, max_steps",
    [
        (50, 1, 500),  # the rows stop inside the first block
        (64, BLOCK // 128, 100),  # the last step ends on the block's last uniform
        (64, BLOCK // 128 + 1, 100),  # one step into the second block
        (3 * BLOCK // 8, 4, 10),  # steps whose uniforms span two blocks
        (BLOCK, 3, 10),  # steps wider than a block
        (10, 60, 50),  # censored at the step cap, which caps the reads
    ],
)
def test_batch_gives_back_the_uniforms_no_step_took(geometric_model, rows, stop, max_steps):
    spec = model.QuickestClassicalDelay(alpha=0.0, beta=3.0, d=1.0, rho=1.0, false_alarm=[0, 1])
    priors = np.tile([0.0, 1.0], (rows, 1))
    rng = np.random.default_rng(rows)
    batch = sim.simulate_batch(geometric_model, spec, StopAt(stop), priors, rng, max_steps=max_steps)
    steps = min(stop, max_steps)
    assert np.all(batch.tau == steps) and np.all(batch.censored == (stop > max_steps))
    # the prior's uniforms, then two per row and step
    ref = np.random.default_rng(rows)
    ref.random(rows + 2 * rows * steps)
    assert rng.bit_generator.state == ref.bit_generator.state


def test_batch_error_gives_back_the_uniforms(geometric_model):
    spec = model.QuickestClassicalDelay(alpha=0.0, beta=3.0, d=1.0, rho=1.0, false_alarm=[0, 1])
    # (a) a NaN prior row fails step 1: the generator sits after n + 2n uniforms
    priors = np.tile([0.2, 0.8], (5, 1))
    priors[3] = np.nan
    rng = np.random.default_rng(0)
    with pytest.raises(filters.ZeroProbabilityError, match="step 1: row 3 "):
        sim.simulate_batch(geometric_model, spec, never_stop, priors, rng, max_steps=20)
    ref = np.random.default_rng(0)
    ref.random(5 + 2 * 5)
    assert rng.bit_generator.state == ref.bit_generator.state
    # (b) step 3 of 3 rows on a chain that stays in state 2: two symbols of
    # likelihood 1e-200 there underflow the belief in state 2 to 0, then a
    # symbol only state 2 emits gives a zero normalisation; the block read
    # 6 uniforms for each of the 10 steps the cap allows
    m = model.DetectionModel(
        [[1, 0], [0.5, 0.5]], [0, 1],
        model.DiscreteObs([[0.5, 0.5, 0.0], [1e-200, 0.5, 0.5]]),
    )
    steps = [0.6] * 3 + [0.0] * 3
    uniforms = Uniforms([0.3] * 3 + steps + steps + [0.6] * 3 + [0.75] * 3 + [0.5] * 42)
    with pytest.raises(filters.ZeroProbabilityError, match="step 3: row 0 .* after observation 2$"):
        sim.simulate_batch(m, spec, never_stop, np.tile([0.0, 1.0], (3, 1)), uniforms, max_steps=10)
    assert uniforms.state == 3 + 3 * 2 * 3


def test_sample_trajectory_filters_with_its_bins(three_state_model):
    bins = 51
    obs = model.discretize_gaussian(model.GaussianObs([0.0, 1.0, 1.0], [0.01, 0.01, 0.01]), bins)
    mdl = model.DetectionModel(three_state_model.transition, three_state_model.initial, obs)
    b = mdl.discrete_obs().matrix
    p = mdl.transition
    policy = StopWhere(lambda pi: pi[0] > 0.9)
    traj = sim.sample_trajectory(mdl, policy, max_steps=300, rng=np.random.default_rng(13))
    assert traj.observations.max() < bins
    pi = traj.beliefs[0]
    for k, y in enumerate(traj.observations, start=1):
        unnorm = b[:, y] * (p.T @ pi)
        pi = unnorm / unnorm.sum()
        assert np.array_equal(traj.beliefs[k], pi)


# ---------------------------------------------------------------------------
# A list of policies in one batch: every policy runs on the same sample paths


def batch_row(batch, t):
    return sim.BatchResult(batch.costs[t], batch.tau[t], batch.tau0[t], batch.censored[t])


def assert_shared_paths(model_, spec, policies, inner, priors, seed, **kw):
    """Check a stacked batch of ``policies`` whose stop regions all contain
    the region of ``policies[inner]``, and return it.

    (a) The inner policy's row equals its solo run on a fresh generator from
    ``seed``, and the caller's generator ends where that run leaves it.
    (b) Every policy stops each row no later than the inner one.
    (c) Reversing the list reverses the rows.
    """
    rng = np.random.default_rng(seed)
    batch = sim.simulate_batch(model_, spec, policies, priors, rng, **kw)
    assert batch.costs.shape == (len(policies), len(priors))
    solo_rng = np.random.default_rng(seed)
    solo = sim.simulate_batch(model_, spec, policies[inner], priors, solo_rng, **kw)
    assert_batches_equal(batch_row(batch, inner), solo)
    assert rng.bit_generator.state == solo_rng.bit_generator.state
    assert np.all(batch.tau <= batch.tau[inner])
    flipped = sim.simulate_batch(
        model_, spec, policies[::-1], priors, np.random.default_rng(seed), **kw
    )
    for t in range(len(policies)):
        assert_batches_equal(batch_row(flipped, len(policies) - 1 - t), batch_row(batch, t))
    return batch


def fork_step(batch, s, t):
    """The first step at which policies ``s`` and ``t`` stop different rows,
    None when they never do."""
    differ = batch.tau[s] != batch.tau[t]
    return int(np.minimum(batch.tau[s], batch.tau[t])[differ].min()) if differ.any() else None


def test_stacked_policies_fork_at_step_one(geometric_model):
    spec = model.QuickestClassicalDelay(
        alpha=0.0, beta=3.0, d=1.0, rho=1.0, false_alarm=[0, 1]
    )
    priors = np.tile([0.0, 1.0], (300, 1))
    mixed = StopWhere(lambda pi: pi[0] > 0.95)
    # stop regions: never_stop's (empty) inside mixed's inside always_stop's
    batch = assert_shared_paths(
        geometric_model, spec, (always_stop, never_stop, mixed, always_stop), 1, priors, 3,
        max_steps=20,
    )
    assert fork_step(batch, 0, 1) == 1 and batch.censored[1].all()
    assert fork_step(batch, 0, 2) == 1 and fork_step(batch, 0, 3) is None
    assert_batches_equal(batch_row(batch, 0), batch_row(batch, 3))


def test_stacked_linear_policies_fork_mid_run(staged_model):
    m = staged_model(0.2)
    spec = model.QuickestPredictiveDelay(alpha=0.0, beta=1.0, d=1.0, rho=1.0, op_cost=1e-3)
    priors = np.tile(m.initial, (200, 1))
    # nested stop regions, innermost first; the last repeats the first
    thetas = ([1.2, 0.3], [1.2, 0.31], [1.5, 0.6], [1.2, 0.3])
    policies = [pol.LinearThresholdPolicy(np.array(th)) for th in thetas]
    batch = assert_shared_paths(m, spec, policies, 0, priors, 1, max_steps=300)
    assert fork_step(batch, 0, 1) > 2 and fork_step(batch, 1, 2) is not None
    assert np.all(batch.tau[2] <= batch.tau[1])
    assert_batches_equal(batch_row(batch, 0), batch_row(batch, 3))


def test_nested_policies_stop_in_order_on_shared_paths():
    # fig3a's chain with observation variance 0.3: the larger stop region
    # never stops a row later
    m = model.DetectionModel(
        [[1, 0, 0], [0.3, 0.1, 0.6], [0, 0.02, 0.98]],
        [0, 0, 1],
        model.discretize_gaussian(model.GaussianObs([0.0, 1.0, 1.0], [0.3, 0.3, 0.3]), 101),
    )
    spec = model.QuickestPredictiveDelay(alpha=0.0, beta=1.0, d=1.0, rho=1.0, op_cost=1e-3)
    policies = [pol.LinearThresholdPolicy(np.array(th)) for th in ([1.2, 0.3], [1.2, 0.5])]
    priors = np.tile(m.initial, (300, 1))
    for seed in range(5):
        batch = assert_shared_paths(m, spec, policies, 0, priors, seed, max_steps=500)
        assert np.any(batch.tau[1] < batch.tau[0])


class Intersection:
    """Stops exactly where every one of ``policies`` stops."""

    def __init__(self, *policies):
        self.policies = policies

    def stop_mask(self, pts):
        return np.all([p.stop_mask(pts) for p in self.policies], axis=0)


@pytest.fixture(scope="module")
def noisy_grid_policy(staged_model):
    """A grid policy with both regions on a noisy chain, and its discounted spec."""
    m = staged_model(0.2)
    spec = model.QuickestClassicalDelay(
        alpha=0.0, beta=5.0, d=1.0, rho=0.95, false_alarm=[0, 1, 1]
    )
    g = dp.build_grid(3, 12)
    return m, spec, dp.GridPolicy(g, dp.value_iterate(m, spec, g, tol=1e-9).policy)


@pytest.mark.parametrize("transformed", [True, False])
def test_stacked_grid_linear_and_callable_policies(noisy_grid_policy, transformed):
    # rho < 1: the step cap is derived from the spec
    m, spec, grid_policy = noisy_grid_policy
    priors = np.tile(m.initial, (500, 1))
    linear = pol.LinearThresholdPolicy(np.array([1.2, 0.4]))
    callable_ = StopWhere(lambda pi: pi[0] > 0.6)
    inner = Intersection(grid_policy, linear, callable_)
    policies = [grid_policy, linear, callable_, grid_policy, inner, linear]
    batch = assert_shared_paths(m, spec, policies, 4, priors, 5, transformed=transformed)
    assert fork_step(batch, 0, 1) > 1 and fork_step(batch, 0, 2) > 1
    assert fork_step(batch, 0, 4) is not None
    assert_batches_equal(batch_row(batch, 0), batch_row(batch, 3))
    assert_batches_equal(batch_row(batch, 1), batch_row(batch, 5))
    assert batch.tau.max() < 1000  # the derived cap, not the 500 default or 10 000


def test_stop_masks_match_actions(noisy_grid_policy):
    m, spec, grid_policy = noisy_grid_policy
    linear = pol.LinearThresholdPolicy(np.array([1.0, 0.5]))
    c, t = oracles.coefficients(linear)
    pts = np.random.default_rng(9).dirichlet(np.ones(3), size=400)
    # exact ties: linear's score is exactly 0 here, and these lie halfway
    # between grid points of different actions
    linear_ties = np.array([[0.5, 0.5, 0.0], [0.5, 0.25, 0.25], [0.5, 0.0, 0.5]])
    assert [float(pi @ c - t) for pi in linear_ties] == [0.0] * 3
    g = grid_policy.grid
    acts = grid_policy.actions
    src, dst = g.edges[:, acts[g.edges[0]] != acts[g.edges[1]]]
    grid_ties = (g.points[src] + g.points[dst]) / 2
    assert len(grid_ties) > 0
    # each policy's rule, one belief at a time: a strictly negative score,
    # and the action of the nearest grid point
    rules = (
        (linear, linear_ties, lambda pi: float(pi @ c - t) < 0.0),
        (grid_policy, grid_ties, lambda pi: acts[g.nearest(pi[None])[0]] == dp.STOP),
    )
    for policy, ties, rule in rules:
        rows = np.concatenate([pts, ties])
        mask = policy.stop_mask(rows)
        assert mask.dtype == bool and mask.any() and not mask.all()
        # a stack of rows decides as each row alone does (sample_trajectory's call)
        assert np.array_equal(mask, [policy.stop_mask(pi[None])[0] for pi in rows])
        assert np.array_equal(mask, [rule(pi) for pi in rows])
    assert not linear.stop_mask(linear_ties).any()  # a score of exactly 0 continues

    # per-belief predicate policies that ask the built-in ones, stacked with them
    priors = np.tile(m.initial, (100, 1))
    policies = [
        grid_policy,
        StopWhere(lambda pi: linear.stop_mask(pi[None])[0]),
        linear,
        StopWhere(lambda pi: grid_policy.stop_mask(pi[None])[0]),
    ]
    batch = sim.simulate_batch(m, spec, policies, priors, np.random.default_rng(10))
    assert_batches_equal(batch_row(batch, 0), batch_row(batch, 3))
    assert_batches_equal(batch_row(batch, 1), batch_row(batch, 2))
    assert fork_step(batch, 0, 2) is not None


def test_single_policy_keeps_its_shapes(three_state_model):
    spec = model.QuickestPredictiveDelay(alpha=0.0, beta=1.0, d=1.0, rho=1.0, op_cost=1e-3)
    priors = np.random.default_rng(2).dirichlet(np.ones(3), size=50)
    linear = pol.LinearThresholdPolicy(np.array([1.2, 0.4]))
    solo = sim.simulate_batch(three_state_model, spec, linear, priors, np.random.default_rng(4))
    for field in ("costs", "tau", "tau0", "censored"):
        assert getattr(solo, field).shape == (50,), field
    assert_shared_paths(three_state_model, spec, [linear], 0, priors, 4)
    with pytest.raises(ValueError, match="at least one policy"):
        sim.simulate_batch(three_state_model, spec, [], priors, np.random.default_rng(4))


# ---------------------------------------------------------------------------
# One stop test for a stack of policies


def written_out_score(theta, pi) -> float:
    """The linear score one belief at a time, in Python floats, before its
    intercept: pi(2) + theta(1) pi(3) + ..., summed left to right."""
    score = float(pi[1])
    for c, p in zip(theta[:-1], pi[2:]):
        score += float(c) * float(p)
    return score


def tied_thetas(pts, rng, count):
    """``count`` random feasible theta, each with its intercept set to the
    written-out score of one row of ``pts``: that row ties and continues,
    and rows next to it decide by the last bits of their scores."""
    thetas = []
    for t in range(count):
        theta = pol.phi_to_theta(rng.normal(size=pts.shape[1] - 1))
        theta[-1] = written_out_score(theta, pts[t % len(pts)])
        thetas.append(theta)
    return thetas


@pytest.mark.parametrize("x", [2, 3, 4, 5])
def test_stacked_linear_mask_matches_each_policy(x):
    rng = np.random.default_rng(60 + x)
    pts = rng.dirichlet(np.ones(x), size=400)
    policies = [pol.LinearThresholdPolicy(th) for th in tied_thetas(pts, rng, 40)]
    mask = pol.LinearThresholdPolicy.stacked_mask(policies, x)
    stacked = mask(pts)
    assert stacked.dtype == bool and stacked.shape == (len(policies), len(pts))
    assert stacked.any() and not stacked.all()
    for t, policy in enumerate(policies):
        solo = policy.stop_mask(pts)
        assert np.array_equal(stacked[t], solo)
        assert not solo[t]  # the tied row continues
        assert list(solo) == [written_out_score(policy.theta, pi) < policy.theta[-1] for pi in pts]
    # one row at a time, alone and stacked, decides as in the taller arrays
    for i in range(0, len(pts), 7):
        row = pts[i : i + 1]
        assert np.array_equal(mask(row)[:, 0], stacked[:, i])
        assert [p.stop_mask(row)[0] for p in policies] == list(stacked[:, i])


def test_stacked_mask_of_a_625_theta_mesh():
    pts = np.random.default_rng(62).dirichlet(np.ones(3), size=100)
    mesh = [np.array([a, b]) for a in np.linspace(1.0, 3.0, 25) for b in np.linspace(0.05, 1.5, 25)]
    policies = [pol.LinearThresholdPolicy(th) for th in mesh]
    stacked = pol.LinearThresholdPolicy.stacked_mask(policies, 3)(pts)
    assert stacked.shape == (625, 100) and stacked.any() and not stacked.all()
    for t, policy in enumerate(policies):
        assert np.array_equal(stacked[t], policy.stop_mask(pts))
        assert np.array_equal(stacked[t, :1], policy.stop_mask(pts[:1]))


def test_stop_test_of_a_mixed_stack(noisy_grid_policy):
    grid_policy = noisy_grid_policy[2]
    pts = np.random.default_rng(63).dirichlet(np.ones(3), size=300)
    linear = [pol.LinearThresholdPolicy(th) for th in tied_thetas(pts, np.random.default_rng(64), 3)]
    callable_ = StopWhere(lambda pi: pi[0] > 0.6)
    policies = [grid_policy, linear[0], callable_, linear[1], grid_policy, linear[2]]
    test = sim._stop_test(policies, 3)
    for rows in (pts, pts[5:6]):
        stacked = test(rows)
        assert stacked.dtype == bool and stacked.shape == (len(policies), len(rows))
        for t, policy in enumerate(policies):
            assert np.array_equal(stacked[t], policy.stop_mask(rows)), t
    # a list of linear policies alone is one stacked test, in list order
    assert np.array_equal(sim._stop_test(linear, 3)(pts), np.array([p.stop_mask(pts) for p in linear]))


@pytest.mark.parametrize("size", [1, 3])
def test_linear_theta_must_fit_the_states(three_state_model, size):
    spec = model.QuickestPredictiveDelay(alpha=0.0, beta=1.0, d=1.0, rho=1.0, op_cost=1e-3)
    bad = pol.LinearThresholdPolicy(np.full(size, 0.5))
    message = f"a linear policy on 3 states needs 2 theta entries, got {size}"
    with pytest.raises(ValueError, match=message):
        bad.stop_mask(np.full((4, 3), 1 / 3))
    priors = np.tile(three_state_model.initial, (10, 1))
    for policy in (bad, [pol.LinearThresholdPolicy(np.array([1.2, 0.4])), bad]):
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        with pytest.raises(ValueError, match=message):
            sim.simulate_batch(three_state_model, spec, policy, priors, rng, max_steps=20)
        assert rng.bit_generator.state == before  # raised before the first draw


@pytest.mark.parametrize(
    "priors, message",
    [
        (np.full((4, 2), 0.5), r"priors must have shape \(n, 3\), one column per state, got \(4, 2\)"),
        ([[2.0, 1.0, 1.0]], r"prior row 0 does not sum to 1: \[2.0, 1.0, 1.0\]"),
        ([[0.2, 0.3, 0.5], [0.5, 0.6, -0.1]], r"prior row 1 has an entry below 0: \[0.5, 0.6, -0.1\]"),
    ],
)
def test_batch_rejects_priors_that_are_not_beliefs(three_state_model, priors, message):
    spec = model.QuickestPredictiveDelay(alpha=0.0, beta=1.0, d=1.0, rho=1.0, op_cost=1e-3)
    linear = pol.LinearThresholdPolicy(np.array([1.2, 0.4]))
    rng = np.random.default_rng(0)
    before = rng.bit_generator.state
    with pytest.raises(ValueError, match=message):
        sim.simulate_batch(three_state_model, spec, linear, priors, rng, max_steps=20)
    assert rng.bit_generator.state == before
    # rounding within SUM_TOL per entry passes
    fine = [[0.5, 0.5 + 2e-12, -1e-12]]
    sim.simulate_batch(three_state_model, spec, linear, fine, rng, max_steps=20)

import numpy as np
import pytest

import oracles
from conftest import SocialCase
from phasestop import filters, model


def test_hmm_update_hand_example():
    m = model.DetectionModel(
        [[1, 0], [0.5, 0.5]], [0, 1], model.DiscreteObs([[0.8, 0.2], [0.2, 0.8]])
    )
    nxt, norm = filters.hmm_update([0.5, 0.5], 0, m)
    # predicted (0.75, 0.25); unnormalized (0.6, 0.05)
    assert norm == pytest.approx(0.65, abs=1e-15)
    assert np.allclose(nxt, [12 / 13, 1 / 13], atol=1e-14)


def test_hmm_update_absorbing_fixed_point():
    m = model.DetectionModel(
        [[1, 0], [0.5, 0.5]], [0, 1], model.DiscreteObs([[0.8, 0.2], [0.2, 0.8]])
    )
    for y in (0, 1):
        nxt, _ = filters.hmm_update([1.0, 0.0], y, m)
        assert np.allclose(nxt, [1, 0], atol=1e-15)


def test_hmm_update_uninformative():
    m = model.DetectionModel(
        np.eye(3), [0.2, 0.3, 0.5], model.DiscreteObs(np.full((3, 4), 0.25))
    )
    nxt, norm = filters.hmm_update([0.2, 0.3, 0.5], 2, m)
    assert np.allclose(nxt, [0.2, 0.3, 0.5], atol=1e-15)
    assert norm == pytest.approx(0.25)


def test_hmm_update_impossible_observation():
    m = model.DetectionModel(
        [[1, 0], [0, 1]], [1, 0], model.DiscreteObs([[1.0, 0.0], [0.0, 1.0]])
    )
    with pytest.raises(filters.ZeroProbabilityError):
        filters.hmm_update([1.0, 0.0], 1, m)


def test_filter_preserves_mlr_in_belief_and_symbol():
    rng = np.random.default_rng(17)
    for _ in range(500):
        p = oracles.random_tp2_stochastic(3, 3, rng, max_tries=30)
        b = oracles.random_tp2_stochastic(3, int(rng.integers(2, 5)), rng, max_tries=30)
        m = model.DetectionModel(p, np.full(3, 1 / 3), model.DiscreteObs(b))
        hi, lo = oracles.random_mlr_pair(3, rng)
        prev_hi = None
        for y in range(b.shape[1]):
            a, _ = filters.hmm_update(hi, y, m)
            c, _ = filters.hmm_update(lo, y, m)
            assert oracles.mlr_geq(a, c)
            if prev_hi is not None:
                assert oracles.mlr_geq(a, prev_hi)
            prev_hi = a


def _risk_step(spec, m, pi, y):
    """The risk-sensitive continue update of ``spec`` from belief ``pi`` on
    symbol ``y``: the Bayes step on the prediction of ``spec.updates``."""
    pred, liks = spec.updates(m, np.asarray(pi, dtype=float)[None])[1]
    nxt, sigma = filters.bayes_step(pred, liks[y])
    return nxt[0], sigma[0]


def test_risk_update_reduces_to_plain_filter_at_zero():
    m = model.DetectionModel(
        [[1, 0], [0.5, 0.5]], [0, 1], model.DiscreteObs([[0.8, 0.2], [0.2, 0.8]])
    )
    spec = model.RiskSensitive(risk=0.0, beta=2.0, d=1.0)
    nxt, sigma = _risk_step(spec, m, [0.4, 0.6], 1)
    b, norm = filters.hmm_update([0.4, 0.6], 1, m)
    assert np.allclose(nxt, b, atol=1e-15)
    assert sigma == pytest.approx(norm, abs=1e-15)


def test_risk_update_hand_example():
    p = np.array([[1.0, 0.0], [0.5, 0.5]])
    b = np.array([[0.8, 0.2], [0.2, 0.8]])
    m = model.DetectionModel(p, [0, 1], model.DiscreteObs(b))
    spec = model.RiskSensitive(risk=1.0, beta=2.0, d=1.0)
    pi = np.array([0.5, 0.5])
    nxt, sigma = _risk_step(spec, m, pi, 0)
    # independent evaluation of the scaled predict/correct
    r2 = np.array([np.e, np.exp(0.5)])
    unnorm = b[:, 0] * (p.T @ (r2 * pi))
    assert sigma == pytest.approx(unnorm.sum(), rel=1e-14)
    assert np.allclose(nxt, unnorm / unnorm.sum(), atol=1e-14)


def test_risk_update_absorbing_fixed_point():
    m = model.DetectionModel(
        [[1, 0], [0.5, 0.5]], [0, 1], model.DiscreteObs([[0.8, 0.2], [0.2, 0.8]])
    )
    spec = model.RiskSensitive(risk=0.7, beta=1.0, d=2.0)
    nxt, _ = _risk_step(spec, m, [1.0, 0.0], 1)
    assert np.allclose(nxt, [1, 0], atol=1e-15)


def test_social_fixed_points_values(social_context_a):
    ctx = social_context_a
    assert ctx.eta2 == pytest.approx(1 / 3.57, abs=1e-12)
    assert ctx.eta1 == pytest.approx(0.9 / 1.157, abs=1e-12)
    assert ctx.eta3 == pytest.approx(0.1 / 2.413, abs=1e-12)
    assert ctx.eta3 <= ctx.eta2 <= ctx.eta1


def test_social_fixed_points_symmetric_costs():
    _, eta2, _ = oracles.social_fixed_points_from(
        np.array([[0.0, 1.0], [1.0, 0.0]]), np.array([[0.8, 0.2], [0.2, 0.8]])
    )
    assert eta2 == pytest.approx(0.5, abs=1e-14)


def _local_action(pi, y, costs, b):
    """The myopic local action (1-based) after privately updating ``pi`` by ``y``."""
    pts = np.asarray(pi, dtype=float)[None]
    return int(filters.social_scores(costs, b, pts)[y, 0].argmin()) + 1


def test_social_local_action_cases(social_context_a):
    costs, b = social_context_a.spec.local_costs, social_context_a.model.obs.matrix
    # with the public belief split evenly, a bad-state signal favors action 1:
    # private beliefs (0.9, 0.1): costs 4.370 vs 5.013
    assert _local_action([0.5, 0.5], 0, costs, b) == 1
    assert _local_action([0.5, 0.5], 1, costs, b) == 2
    # degenerate public belief pins the action regardless of the signal
    for y in (0, 1):
        assert _local_action([1.0, 0.0], y, costs, b) == 1
    # pointwise-dominating column always wins
    dom = np.array([[1.0, 2.0], [0.5, 1.5]])
    for y in (0, 1):
        assert _local_action([0.5, 0.5], y, dom, b) == 1


def test_social_action_likelihood_cascade_and_learning(social_context_a):
    spec, m = social_context_a.spec, social_context_a.model

    def lik(pi, a):  # the likelihood of broadcast action a (1-based) at belief pi
        return spec.updates(m, np.asarray(pi, dtype=float)[None])[1][1][a - 1, 0]

    hi = np.array([1 - 0.9, 0.9])  # inside the upper cascade interval
    assert np.allclose(lik(hi, 2), [1, 1])
    assert np.allclose(lik(hi, 1), [0, 0])
    mid = np.array([1 - 0.5, 0.5])  # learning region: likelihood equals the channel
    assert np.allclose(lik(mid, 1), m.obs.matrix[:, 0])
    assert np.allclose(lik(mid, 2), m.obs.matrix[:, 1])
    # rows sum to one across actions for any public belief
    rng = np.random.default_rng(2)
    for _ in range(50):
        pi = rng.dirichlet([1, 1])
        total = sum(lik(pi, a) for a in (1, 2))
        assert np.allclose(total, [1, 1])


def test_social_update_cascade_is_exact_fixed_point(social_context_a, social_context_b):
    for ctx in (social_context_a, social_context_b):
        for pi2 in np.linspace(ctx.eta1 * 1.001 + 1e-9, 1.0, 25):
            pi = np.array([1 - pi2, pi2])
            assert np.array_equal(ctx.update(pi, 2), pi)
        for pi2 in np.linspace(0.0, ctx.eta3 * 0.999, 25):
            pi = np.array([1 - pi2, pi2])
            assert np.array_equal(ctx.update(pi, 1), pi)


def test_social_update_impossible_action(social_context_a):
    # cascade on action 2: action 1 has probability zero, a branch the solver
    # sends to grid point 0
    _, sigma = social_context_a.step([0.05, 0.95], 1)
    assert sigma == 0.0


def _interior(ctx, eta, side):
    """Boundary value nudged into the interval where learning occurs.

    The myopic-action indifference points are defined by strict inequalities,
    so the fixed-point identities are boundary limits; a 1e-13 nudge keeps the
    evaluation on the learning side while perturbing the identity by far less
    than the 1e-10 tolerance.
    """
    return eta + (1e-13 if side == "up" else -1e-13)


def test_social_fixed_point_cycle(social_context_a, social_context_b):
    for ctx in (social_context_a, social_context_b):
        vec = lambda x: np.array([1 - x, x])
        e1v = _interior(ctx, ctx.eta1, "down")
        e3v = _interior(ctx, ctx.eta3, "up")
        t11 = ctx.update(vec(e1v), 1)[1]
        t32 = ctx.update(vec(e3v), 2)[1]
        t22 = ctx.update(vec(ctx.eta2), 2)[1]
        t21 = ctx.update(vec(ctx.eta2), 1)[1]
        assert t11 == pytest.approx(ctx.eta2, abs=1e-10)
        assert t32 == pytest.approx(ctx.eta2, abs=1e-10)
        assert t22 == pytest.approx(ctx.eta1, abs=1e-10)
        assert t21 == pytest.approx(ctx.eta3, abs=1e-10)
        # composed cycle fixed points
        cyc1 = ctx.update(vec(t11), 2)[1]
        cyc3 = ctx.update(vec(t32), 1)[1]
        assert cyc1 == pytest.approx(ctx.eta1, abs=1e-10)
        assert cyc3 == pytest.approx(ctx.eta3, abs=1e-10)


def test_social_interval_transport(social_context_a):
    ctx = social_context_a
    rng = np.random.default_rng(8)
    for _ in range(200):
        pi2 = rng.uniform(ctx.eta2 * 1.001, ctx.eta1 * 0.999)  # interval 2
        pi = np.array([1 - pi2, pi2])
        up = ctx.update(pi, 2)[1]
        down = ctx.update(pi, 1)[1]
        assert up > ctx.eta1  # interval 1
        assert ctx.eta3 < down <= ctx.eta2  # interval 3
    for _ in range(200):
        pi2 = rng.uniform(ctx.eta3 * 1.001, ctx.eta2 * 0.999)  # interval 3
        pi = np.array([1 - pi2, pi2])
        up = ctx.update(pi, 2)[1]
        down = ctx.update(pi, 1)[1]
        assert ctx.eta2 < up <= ctx.eta1  # interval 2
        assert down <= ctx.eta3  # interval 4


def test_risk_update_filters_with_the_parsed_bins():
    from phasestop import cli

    m = cli.parse_model(
        {
            "transition": [[1, 0, 0], [0.3, 0.1, 0.6], [0, 0.02, 0.98]],
            "initial": [0, 0, 1],
            "observation": {"gaussian": {"means": [0, 1, 1], "variances": [0.25, 0.25, 0.25]}},
        },
        bins=151,
    )
    spec = model.RiskSensitive(risk=0.1, beta=2.0, d=1.0)
    b = m.discrete_obs().matrix
    assert b.shape == (3, 151)
    pi = np.array([0.2, 0.3, 0.5])
    nxt, sigma = _risk_step(spec, m, pi, 120)
    _, r2 = spec.scalings(m.transition)
    unnorm = b[:, 120] * ((r2 * pi) @ m.transition)
    assert sigma == unnorm.sum()
    assert np.array_equal(nxt, unnorm / unnorm.sum())


def _ulps_around(eta: float, n: int = 60) -> np.ndarray:
    """The 2n + 1 floats from n ulps below ``eta`` to n ulps above it."""
    below, above = [eta], [eta]
    for _ in range(n):
        below.append(np.nextafter(below[-1], -np.inf))
        above.append(np.nextafter(above[-1], np.inf))
    return np.array(below[:0:-1] + above)


def test_filters_and_solver_share_the_bayes_step_and_the_social_rule():
    import dataclasses

    from phasestop import cli, dp

    for name in ("fig4a", "fig4c"):
        cfg = cli.load_config(name)
        m, spec = cli.parse_model(cfg["model"]), cli.parse_cost(cfg["cost"])
        costs = spec.local_costs
        ctx = SocialCase(spec, m)
        grid = dp.build_grid(2, cfg["grid"]["m"])
        near = np.concatenate([_ulps_around(e) for e in (ctx.eta1, ctx.eta2, ctx.eta3)])
        pts = np.vstack([grid.points, np.stack([1.0 - near, near], axis=1)])
        # the solver's successor weights at every probe belief: sigma of each
        # broadcast action, zero for an action the rule never picks there
        probe = dataclasses.replace(grid, points=pts)
        _, _, actions = dp._bellman_setup(m, spec, probe, spec.offset(m, pts), False)
        _, (values, lengths), w = actions[1]
        idx = np.repeat(values, lengths).reshape(w.shape)
        filtered, filtered_idx = np.zeros_like(w), idx.copy()
        for n, pi in enumerate(pts):
            for a in range(costs.shape[1]):
                nxt, sigma = ctx.step(pi, a + 1)
                if sigma > 0.0:
                    filtered[n, a] = sigma
                    filtered_idx[n, a] = grid.nearest(nxt)[0]
        mismatched = ((filtered != w) | (filtered_idx != idx)).any(axis=1)
        assert mismatched.sum() == 0, (name, pts[mismatched][:3])

    # one belief gets the scores of its row in a stack, at any state count
    rng = np.random.default_rng(5)
    costs, b = rng.random((4, 3)), rng.dirichlet(np.ones(5), size=4)
    pts = rng.dirichlet(np.ones(4), size=200)
    scores = filters.social_scores(costs, b, pts)
    for n, pi in enumerate(pts):
        assert np.array_equal(filters.social_scores(costs, b, pi[None, :])[:, 0], scores[:, n])

    # the HMM filter is the Bayes step on its prediction, and the step on a
    # stack of rows equals the step on each row
    cfg = cli.load_config("fig3a")
    m = cli.parse_model(cfg["model"])
    b, p = m.obs.matrix, m.transition
    beliefs = np.random.default_rng(4).dirichlet(np.ones(3), size=40)
    for y in (0, 37, 50, 100):
        preds = beliefs @ p
        stacked, sigmas = filters.bayes_step(preds, b[:, y])
        for n, pi in enumerate(beliefs):
            nxt, sigma = filters.bayes_step(preds[n], b[:, y])
            assert np.array_equal(stacked[n], nxt) and sigmas[n] == sigma
            out, norm = filters.hmm_update(pi, y, m)
            nxt, sigma = filters.bayes_step(p.T @ pi, b[:, y])
            assert np.array_equal(out, nxt) and norm == sigma


def test_bayes_step_leaves_a_zero_or_nan_row_undivided():
    pred = np.array([[0.5, 0.5], [1.0, 0.0], [np.nan, 0.5]])
    nxt, sigma = filters.bayes_step(pred, np.array([0.0, 1.0]))
    assert np.array_equal(sigma[:2], [0.5, 0.0]) and np.isnan(sigma[2])
    assert np.array_equal(nxt[:2], [[0.0, 1.0], [0.0, 0.0]])
    assert np.isnan(nxt[2, 0]) and nxt[2, 1] == 0.5
    # with every sigma positive the rows are divided by sigma itself: the same
    # bits as the guarded division of the same rows in a stack with a zero and
    # a NaN row, which still come back undivided
    rng = np.random.default_rng(3)
    pos, lik = rng.dirichlet(np.ones(3), size=500), rng.random(3)
    fast, fast_sigma = filters.bayes_step(pos, lik)
    mixed, mixed_sigma = filters.bayes_step(np.vstack([pos, [0.0, 0.0, 0.0], [np.nan, 0.5, 0.5]]), lik)
    assert fast.tobytes() == mixed[:500].tobytes()
    assert fast_sigma.tobytes() == mixed_sigma[:500].tobytes()
    assert np.array_equal(mixed[500], [0.0, 0.0, 0.0]) and mixed_sigma[500] == 0.0
    assert np.isnan(mixed[501, 0]) and np.array_equal(mixed[501, 1:], 0.5 * lik[1:])
    for n in (0, 499):  # one belief, as a 1-D array
        one, one_sigma = filters.bayes_step(pos[n], lik)
        assert one.tobytes() == fast[n].tobytes() and one_sigma == fast_sigma[n]


@pytest.mark.parametrize("x", range(2, 13))
def test_row_sum_is_numpy_sum_bit_for_bit(x):
    rng = np.random.default_rng(x)
    edge = filters.SHORT_SUM_MIN_ROWS  # the row count from which it adds by columns
    for k in (1, 7, edge - 1, edge, edge + 1, 100, 20_000):
        # entries of one magnitude per row, where the order of the additions
        # shows in the last bits, and of mixed magnitudes, from 1e-300 to 1e5
        row_scale = 10.0 ** rng.uniform(-300, 5, size=(k, 1))
        mixed = 10.0 ** rng.uniform(-300, 5, size=(k, x))
        for a in (rng.random((k, x)) * row_scale, rng.random((k, x)) * mixed):
            a[0] = -0.0  # a signed-zero row: NumPy's sum is +0.0
            got, want = filters._row_sum(a), a.sum(axis=-1)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), (x, k)
            for row in a[:3]:  # one belief, as a 1-D array
                got, want = filters._row_sum(row), row.sum(axis=-1)
                assert np.shape(got) == () and got.tobytes() == want.tobytes(), (x, k)

import numpy as np
import pytest

import oracles
from phasestop import model, orders


def test_mlr_examples():
    assert oracles.mlr_geq([0, 0, 1], [1, 0, 0])  # vertices: greatest vs least
    pi = [0.2, 0.5, 0.3]
    assert oracles.mlr_geq(pi, pi)
    # likelihood ratio (0.5, 0.75, 2.5) is increasing
    assert oracles.mlr_geq([0.2, 0.3, 0.5], [0.4, 0.4, 0.2])
    assert not oracles.mlr_geq([0.4, 0.4, 0.2], [0.2, 0.3, 0.5])
    with pytest.raises(ValueError):
        oracles.mlr_geq([0.5, 0.5], [0.2, 0.3, 0.5])


def test_fosd_examples():
    assert oracles.fosd_geq([0.1, 0.4, 0.5], [0.3, 0.3, 0.4])
    assert not oracles.fosd_geq([0.5, 0.5], [0.4, 0.6])
    assert oracles.fosd_geq([0.4, 0.6], [0.5, 0.5])


def test_mlr_implies_fosd_randomized():
    rng = np.random.default_rng(11)
    for _ in range(2000):
        x = int(rng.integers(2, 6))
        hi, lo = oracles.random_mlr_pair(x, rng)
        assert oracles.mlr_geq(hi, lo)
        assert oracles.fosd_geq(hi, lo)


def test_mlr_partial_order_properties():
    rng = np.random.default_rng(5)
    for _ in range(300):
        x = int(rng.integers(2, 5))
        a, b = oracles.random_mlr_pair(x, rng)
        c = b * np.cumsum(rng.exponential(1.0, x))
        c /= c.sum()
        # transitivity on a constructed chain c >= b, a >= b
        assert oracles.mlr_geq(c, b)
        mid, low = oracles.random_mlr_pair(x, rng)
        top = mid * np.cumsum(rng.exponential(1.0, x))
        top /= top.sum()
        assert oracles.mlr_geq(top, mid) and oracles.mlr_geq(mid, low)
        assert oracles.mlr_geq(top, low)


def test_is_tp2_examples(staged_model):
    assert oracles.is_tp2(np.eye(3))
    assert oracles.is_tp2(staged_model(0.2).transition)
    assert not oracles.is_tp2(staged_model(0.78).transition)
    # tridiagonal with P_ii P_{i+1,i+1} < P_{i,i+1} P_{i+1,i}
    bad = np.array([[0.5, 0.5, 0.0], [0.6, 0.1, 0.3], [0.0, 0.5, 0.5]])
    assert not oracles.is_tp2(bad)
    with pytest.raises(ValueError):
        oracles.is_tp2([[0.5, -0.1], [0.2, 0.4]])


def test_is_tp2_matches_brute_force():
    rng = np.random.default_rng(21)
    for k in range(1000):
        if k % 3 == 0:
            m = oracles.random_tp2_stochastic(4, 4, rng, max_tries=10)
        else:
            m = rng.random((4, 4))
        assert oracles.is_tp2(m) == oracles.brute_force_tp2(m)


def _reference_tp2_slack(m):
    """Smallest 2x2 minor, scanned one row pair at a time (0 when there is none)."""
    worst = np.inf
    for r1 in range(m.shape[0] - 1):
        for r2 in range(r1 + 1, m.shape[0]):
            prod = np.outer(m[r1], m[r2])
            iu = np.triu_indices(m.shape[1], k=1)
            minors = prod[iu] - prod.T[iu]
            if minors.size:
                worst = min(worst, float(minors.min()))
    return worst if np.isfinite(worst) else 0.0


@pytest.mark.parametrize("shape", [(1, 4), (4, 1), (1, 1), (2, 2), (3, 3), (4, 4), (3, 101), (5, 2)])
def test_tp2_check_slack_matches_row_pair_scan(shape):
    rng = np.random.default_rng(shape[0] * 1000 + shape[1])
    for k in range(50):
        if k % 2 and min(shape) > 1:
            m = oracles.random_tp2_stochastic(*shape, rng, max_tries=5)
        else:
            m = rng.random(shape)
        check = orders._tp2_check("A", m, "")
        assert check.slack == _reference_tp2_slack(m)
        assert oracles.is_tp2(m) == (check.slack >= -orders.ORDER_TOL)


def _reference_random_tp2_stochastic(rows, cols, rng, max_tries=200):
    """The rejection loop that draws and tests one try at a time; also
    returns whether it fell back to the Gaussian rows."""
    idx = np.arange(cols)
    for _ in range(max_tries):
        m = rng.dirichlet(np.ones(cols), size=rows)
        keys = m @ idx
        m = m[np.argsort(keys)]
        if oracles.is_tp2(m):
            return m, False
    centers = np.sort(rng.uniform(0, cols - 1, size=rows))
    scale = rng.uniform(0.5, 1.5) * cols / 4.0
    m = np.exp(-0.5 * ((idx[None, :] - centers[:, None]) / scale) ** 2)
    m /= m.sum(axis=1, keepdims=True)
    return m, True


@pytest.mark.parametrize("shape, max_tries", [((3, 3), 30), ((4, 4), 10), ((3, 4), 3), ((4, 4), 0)])
def test_random_tp2_stochastic_matches_the_one_try_loop(shape, max_tries):
    # the same matrices and the same generator end state, fallbacks included
    seed = 100 * shape[0] + 10 * shape[1] + max_tries
    new, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    fallbacks = 0
    for _ in range(2000):
        got = oracles.random_tp2_stochastic(*shape, new, max_tries=max_tries)
        want, fell_back = _reference_random_tp2_stochastic(*shape, ref, max_tries=max_tries)
        assert np.array_equal(got, want)
        assert new.bit_generator.state == ref.bit_generator.state
        fallbacks += fell_back
    assert 0 < fallbacks < 2000 if max_tries else fallbacks == 2000


def test_matrix_order_examples():
    p1 = [[0.2, 0.8], [0.1, 0.9]]
    p2 = [[0.8, 0.2], [0.7, 0.3]]
    assert orders.matrix_order_geq(p1, p2)
    assert not orders.matrix_order_geq(p2, p1)
    iid = np.tile([0.3, 0.7], (2, 1))
    assert orders.matrix_order_geq(iid, iid)
    with pytest.raises(ValueError):
        orders.matrix_order_geq(p1, np.eye(3))


def test_matrix_order_geometric_family_iff():
    def p_of(p):
        return np.array([[1.0, 0.0], [1.0 - p, p]])

    ps = np.linspace(0.05, 0.95, 10)
    for a in ps:
        for b in ps:
            assert orders.matrix_order_geq(p_of(a), p_of(b)) == (a >= b - 1e-12)


def test_matrix_order_implies_mlr_of_predictions():
    rng = np.random.default_rng(33)
    for _ in range(1000):
        x = int(rng.integers(2, 5))
        p1, p2 = oracles.random_ordered_matrix_pair(x, rng)
        assert orders.matrix_order_geq(p1, p2)
        pi = rng.dirichlet(np.ones(x))
        assert oracles.mlr_geq(p1.T @ pi, p2.T @ pi)


def test_matrix_order_matches_the_column_pair_loop():
    def loop(a, b):
        n = a.shape[1]
        for j in range(n - 1):
            for l in range(j + 1, n):
                if np.any(np.outer(a[:, j], b[:, l]) > np.outer(b[:, j], a[:, l]) + orders.ORDER_TOL):
                    return False
        return True

    rng = np.random.default_rng(8)
    verdicts = set()
    for k in range(2000):
        x = int(rng.integers(2, 6))
        if k % 2:
            p1, p2 = oracles.random_ordered_matrix_pair(x, rng)
        else:
            p1, p2 = rng.dirichlet(np.ones(x), size=(2, x))
        # (p1, p1): every product meets its own mirror, a tie that must hold exactly
        for a, b in ((p1, p2), (p2, p1), (p1, p1)):
            verdicts.add(orders.matrix_order_geq(a, b))
            assert orders.matrix_order_geq(a, b) == loop(a, b)
    assert verdicts == {True, False}


def test_three_state_ordered_pair():
    p1 = [[1, 0, 0], [0.5, 0.3, 0.2], [0.3, 0.4, 0.3]]
    p2 = [[1, 0, 0], [0.9, 0.1, 0], [0.8, 0.15, 0.05]]
    assert orders.matrix_order_geq(p1, p2)
    assert oracles.is_tp2(p1) and oracles.is_tp2(p2)


def test_assumptions_quickest_predictive(three_state_model):
    good = model.QuickestPredictiveDelay(alpha=0, beta=1, d=1, rho=1, op_cost=1e-3)
    rep = orders.check_assumptions(three_state_model, good)
    assert rep["A1-Ex1"].passed and rep["S-Ex1"].passed
    assert rep["A2"].passed and rep["A3"].passed

    bad = model.QuickestPredictiveDelay(alpha=10, beta=1, d=5, rho=1, op_cost=1e-3)
    rep = orders.check_assumptions(three_state_model, bad)
    assert not rep["S-Ex1"].passed
    assert rep["S-Ex1"].slack < 0


def test_assumptions_classical_feasible_vector(staged_model):
    m = staged_model(0.2)
    spec = model.QuickestClassicalDelay(
        alpha=0.5, beta=1.0, d=1.0, rho=0.75, false_alarm=[0, 1, 2]
    )
    rep = orders.check_assumptions(m, spec)
    assert rep.passed, rep.failed_names()

    rep_bad = orders.check_assumptions(staged_model(0.1), spec)
    assert not rep_bad["A3"].passed


def test_assumptions_transient_bound():
    # with zero discount the variance bound reduces to alpha <= d2 + beta
    m = model.DetectionModel(
        [[1, 0, 0], [0.25, 0.75, 0], [0, 0.1, 0.9]],
        [0, 0, 1],
        model.DiscreteObs([[0.85, 0.15], [0.5, 0.5], [0.2, 0.8]]),
    )
    spec = model.TransientDetection(alpha=1.9, beta=1.0, delays=[1.5, 1.0, 0.0], rho=0.0)
    rep = orders.check_assumptions(m, spec)
    assert rep["S-Ex2"].slack == pytest.approx(2.0 - 1.9, abs=1e-12)
    spec_hi = model.TransientDetection(alpha=2.1, beta=1.0, delays=[1.5, 1.0, 0.0], rho=0.0)
    assert not orders.check_assumptions(m, spec_hi)["S-Ex2"].passed


def test_assumptions_reproducible(three_state_model):
    spec = model.QuickestPredictiveDelay(alpha=10, beta=1, d=5, rho=1)
    first = orders.check_assumptions(three_state_model, spec)
    second = orders.check_assumptions(three_state_model, spec)
    assert [c.slack for c in first.checks] == [c.slack for c in second.checks]
    assert first.failed_names() == second.failed_names()


def test_check_assumptions_reads_the_parsed_observation_matrix():
    from phasestop import cli

    gauss = {"means": [0, 0.5, 1], "variances": [0.25, 0.25, 0.25]}
    m = cli.parse_model(
        {
            "transition": [[1, 0, 0], [0.3, 0.6, 0.1], [0, 0.05, 0.95]],
            "initial": [0, 0, 1],
            "observation": {"gaussian": gauss},
        },
        bins=51,
    )
    spec = model.QuickestPredictiveDelay(alpha=0.0, beta=1.0, d=1.0, rho=1.0)
    slack = orders.check_assumptions(m, spec)["A2"].slack

    def min_minor(bins):
        obs = model.discretize_gaussian(model.GaussianObs(gauss["means"], gauss["variances"]), bins)
        return orders._min_minor(obs.matrix)

    assert slack == min_minor(51)
    assert slack != min_minor(101)


def test_a_non_square_observation_matrix_fails_b_symmetric():
    # fig4a's costs on 3 symbols: the other checks still report their slack
    spec = model.SocialStopping(d=1.8, beta=2.0, rho=0.9, local_costs=[[4.57, 5.57], [2.57, 0.0]])
    m = model.DetectionModel(
        [[1, 0], [0, 1]], [0.5, 0.5], model.DiscreteObs([[0.6, 0.3, 0.1], [0.1, 0.3, 0.6]])
    )
    report = orders.check_assumptions(m, spec)
    assert [c.name for c in report.checks] == ["costdom-1", "costdom-2", "d-rho-beta", "A2", "B-symmetric"]
    assert report.failed_names() == ["B-symmetric"]
    assert report["B-symmetric"].slack == -np.inf
    assert "B-symmetric  FAIL slack=-inf" in report.lines()[-1]

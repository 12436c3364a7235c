import numpy as np
import pytest

import oracles
from phasestop import model, policy as pol


def test_decide_examples():
    p3 = pol.LinearThresholdPolicy(np.array([1.0, 0.5]))
    # the first vertex always stops; at e2 the score is 1*1 + theta(1)*0 -
    # theta(2) = 0.5 > 0: continue; a boundary score of exactly zero continues
    # (strict inequality)
    c, t = oracles.coefficients(p3)
    assert np.array([0.5, 0.5, 0.0]) @ c - t == 0.0
    assert list(p3.stop_mask(np.array([[1, 0, 0], [0, 1, 0], [0.5, 0.5, 0.0]]))) == [True, False, False]
    p2 = pol.LinearThresholdPolicy(np.array([0.3]))
    # [0.7, 0.3] has a score of exactly 0: continue
    assert list(p2.stop_mask(np.array([[1.0, 0.0], [0.7, 0.3], [0.71, 0.29]]))) == [True, False, True]


def test_theta_feasibility_examples():
    assert pol.theta_is_mlr_increasing([1.2, 0.5])
    assert not pol.theta_is_mlr_increasing([0.8, 0.5])
    assert not pol.theta_is_mlr_increasing([1.2, 0.0])
    assert pol.theta_is_mlr_increasing([0.4])
    assert not pol.theta_is_mlr_increasing([-0.1])
    # X = 4: interior coefficients must lie in [0, theta(X-2)]
    assert pol.theta_is_mlr_increasing([0.5, 1.3, 0.2])
    assert not pol.theta_is_mlr_increasing([1.5, 1.3, 0.2])
    assert not pol.theta_is_mlr_increasing([-0.1, 1.3, 0.2])
    # a non-finite coefficient is infeasible, whichever check it reaches
    for theta in ([np.nan, np.nan], [np.nan, 0.5], [np.inf, 0.5], [np.nan], [0.5, 1.3, np.nan]):
        assert not pol.theta_is_mlr_increasing(theta)


def test_phi_to_theta_examples():
    assert np.allclose(pol.phi_to_theta([0.0, 1.0]), [1.0, 1.0])
    assert pol.phi_to_theta([0.0, 2.0])[0] == 1.0  # boundary of the constraint
    theta = pol.phi_to_theta([0.7, -1.2, 0.5])
    assert theta[1] == pytest.approx(1.0 + 1.44)
    assert theta[0] == pytest.approx((1.0 + 1.44) * np.sin(0.7) ** 2)
    rng = np.random.default_rng(9)
    for _ in range(10_000):
        phi = rng.normal(0, 2, size=int(rng.integers(1, 5)))
        theta = pol.phi_to_theta(phi)
        if phi[-1] != 0.0:
            assert pol.theta_is_mlr_increasing(theta)


def test_feasible_theta_has_no_monotonicity_violations():
    rng = np.random.default_rng(10)
    for _ in range(1000):
        x = int(rng.integers(3, 6))
        phi = rng.normal(0, 1.5, size=x - 1)
        phi[-1] = phi[-1] if abs(phi[-1]) > 1e-3 else 0.5
        theta = pol.phi_to_theta(phi)
        assert oracles.line_monotonicity_violations(theta, rng, n_lines=5) == []


def test_infeasible_theta_produces_violation():
    rng = np.random.default_rng(12)
    for _ in range(300):
        x = int(rng.integers(3, 6))
        theta = pol.phi_to_theta(rng.normal(0, 1.5, size=x - 1))
        theta[-1] = abs(theta[-1]) + 0.1
        kind = rng.integers(0, 4)
        if kind == 0:
            theta[-2] = rng.uniform(-0.5, 0.999)
        elif kind == 1 and x >= 4:
            theta[0] = theta[-2] + rng.uniform(0.01, 2.0)
        elif kind == 2 and x >= 4:
            theta[0] = -rng.uniform(0.01, 2.0)
        else:
            theta[-1] = -rng.uniform(0.0, 1.0)
        if pol.theta_is_mlr_increasing(theta):
            continue
        assert oracles.line_monotonicity_violations(theta, rng, n_lines=50) != []


def test_sample_cost_stop_now_is_free_without_variance(geometric_model):
    spec = model.QuickestClassicalDelay(
        alpha=0.0, beta=3.0, d=1.0, rho=0.9, false_alarm=[0, 1]
    )
    stop_now = pol.LinearThresholdPolicy(np.array([2.0]))  # score always < 0
    rng = np.random.default_rng(0)
    priors = rng.dirichlet([1, 1], size=64)
    [cost] = pol.sample_cost([stop_now], geometric_model, spec, priors, rng)
    assert cost == pytest.approx(0.0, abs=1e-12)


def test_sample_cost_never_stop_geometric_series(geometric_model):
    # constant continue cost: alpha = beta = d = 0 leaves only the
    # per-measurement operational cost
    spec = model.QuickestPredictiveDelay(alpha=0, beta=0, d=0, rho=0.9, op_cost=0.37)
    never = pol.LinearThresholdPolicy(np.array([-1.0]))  # score always > 0
    rng = np.random.default_rng(1)
    priors = rng.dirichlet([1, 1], size=8)
    [cost] = pol.sample_cost([never], geometric_model, spec, priors, rng)
    assert cost == pytest.approx(0.37 / (1 - 0.9), rel=1e-4)


def test_sample_cost_deterministic(geometric_model):
    spec = model.QuickestClassicalDelay(
        alpha=0.0, beta=3.0, d=1.0, rho=0.95, false_alarm=[0, 1]
    )
    policy = pol.LinearThresholdPolicy(np.array([0.3]))
    priors = np.random.default_rng(5).dirichlet([1, 1], size=32)
    a = pol.sample_cost([policy], geometric_model, spec, priors, np.random.default_rng(77))
    b = pol.sample_cost([policy], geometric_model, spec, priors, np.random.default_rng(77))
    assert a == b


def test_spsa_params_validation():
    with pytest.raises(ValueError):
        pol.SpsaParams(perturb_decay=0.3)
    with pytest.raises(ValueError):
        pol.SpsaParams(step_decay=0.5)
    with pytest.raises(ValueError):
        pol.SpsaParams(step=-1.0)
    for field in ("step", "stability", "perturb"):
        with pytest.raises(ValueError, match="must be positive"):
            pol.SpsaParams(**{field: float("nan")})
    pol.SpsaParams()  # defaults valid


def test_spsa_zero_iterations_returns_init(geometric_model):
    spec = model.QuickestClassicalDelay(
        alpha=0.0, beta=3.0, d=1.0, rho=0.9, false_alarm=[0, 1]
    )
    rng = np.random.default_rng(3)
    priors = rng.dirichlet([1, 1], size=8)
    res = pol.spsa_optimize(
        pol.simulated_cost(geometric_model, spec, priors), [0.4], 0, pol.SpsaParams(), rng
    )
    assert np.array_equal(res.final_phi, [0.4])
    assert res.costs.size == 0


def test_spsa_flat_objective_is_stationary():
    res = pol.spsa_optimize(
        lambda phis, seed: [0.0] * len(phis), [0.5, -0.5], 50, pol.SpsaParams(),
        np.random.default_rng(0),
    )
    assert np.allclose(res.phi_trace, res.phi_trace[0])


def test_spsa_quadratic_oracle_converges():
    target = np.array([0.5, -0.3])

    def quad(phis, seed):
        return [float(np.sum((phi - target) ** 2)) for phi in phis]

    res = pol.spsa_optimize(
        quad, np.zeros(2), 1000, pol.SpsaParams(step=0.5, stability=10.0),
        np.random.default_rng(42),
    )
    assert np.max(np.abs(res.final_phi - target)) < 1e-2


def test_spsa_iterates_stay_feasible(geometric_model):
    spec = model.QuickestClassicalDelay(
        alpha=0.0, beta=3.0, d=1.0, rho=0.9, false_alarm=[0, 1]
    )
    rng = np.random.default_rng(6)
    priors = rng.dirichlet([1, 1], size=16)
    res = pol.spsa_optimize(
        pol.simulated_cost(geometric_model, spec, priors), [0.8], 30, pol.SpsaParams(), rng
    )
    for theta in res.theta_trace:
        assert pol.theta_is_mlr_increasing(theta)


def test_spsa_nonfinite_cost_reported():
    def bad(phis, seed):
        return [float("nan")] * len(phis)

    with pytest.raises(RuntimeError, match="non-finite"):
        pol.spsa_optimize(bad, [0.1], 5, pol.SpsaParams(), np.random.default_rng(0))


def _noisy_spsa_case(staged_model):
    """A model whose batch cost moves with theta, so J+ and J- differ."""
    m = staged_model(0.2)
    spec = model.QuickestPredictiveDelay(alpha=0.0, beta=1.0, d=1.0, rho=1.0, op_cost=0.05)
    priors = np.random.default_rng(21).dirichlet(np.ones(3), size=30)
    return m, spec, priors, pol.SpsaParams(step=0.15, stability=10.0, perturb=0.1)


def test_spsa_pair_shares_one_sample_path(staged_model):
    m, spec, priors, params = _noisy_spsa_case(staged_model)
    got = pol.spsa_optimize(
        pol.simulated_cost(m, spec, priors, max_steps=200), [0.3, 0.8], 15, params,
        np.random.default_rng(8),
    )
    # the same iterations, each pair priced by one stacked batch on its seed
    rng, phi = np.random.default_rng(8), np.array([0.3, 0.8])
    for n in range(15):
        delta_n = params.perturb / (n + 1.0) ** params.perturb_decay
        direction = rng.integers(0, 2, size=2) * 2 - 1
        seed = int(rng.integers(0, 2**63 - 1))
        pair = [pol.LinearThresholdPolicy(pol.phi_to_theta(phi + s * delta_n * direction))
                for s in (1, -1)]
        j_plus, j_minus = pol.sample_cost(
            pair, m, spec, priors, np.random.default_rng(seed), max_steps=200
        )
        assert pol.sample_cost(
            pair[::-1], m, spec, priors, np.random.default_rng(seed), max_steps=200
        ) == [j_minus, j_plus]
        assert got.costs[n] == 0.5 * (j_plus + j_minus)
        step_n = params.step / (n + 2.0 + params.stability) ** params.step_decay
        phi = phi - step_n * ((j_plus - j_minus) / (2.0 * delta_n) * direction)
        assert np.array_equal(got.phi_trace[n + 1], phi)
    assert not np.all(got.phi_trace[1:] == got.phi_trace[:-1])  # some J+ != J-


def test_restarts_scored_in_one_batch_match_a_per_restart_loop(staged_model):
    m, spec, priors, params = _noisy_spsa_case(staged_model)

    def reference(rng, restarts=4, iterations=5, max_steps=200):
        eval_seed = int(rng.integers(0, 2**63 - 1))
        results = []
        for _ in range(restarts):
            init = rng.normal(0.0, 1.0, size=2)
            results.append(pol.spsa_optimize(
                pol.simulated_cost(m, spec, priors, max_steps=max_steps), init, iterations,
                params, rng,
            ))
        scores = pol.sample_cost(
            [res.policy for res in results], m, spec, priors,
            np.random.default_rng(eval_seed), max_steps=max_steps,
        )
        best = next(r for r, s in enumerate(scores) if s == min(scores))
        return results[best], scores[best], scores

    want, want_score, scores = reference(np.random.default_rng(5))
    assert len(set(scores)) > 1
    got, got_score = pol.optimize_with_restarts(
        m, spec, 5, params, priors, np.random.default_rng(5), restarts=4, max_steps=200
    )
    assert got_score == want_score
    assert np.array_equal(got.phi_trace, want.phi_trace)
    assert np.array_equal(got.costs, want.costs)


@pytest.mark.parametrize("restarts", [0, -1])
def test_restarts_below_one_are_rejected(staged_model, restarts):
    m, spec, priors, params = _noisy_spsa_case(staged_model)
    with pytest.raises(ValueError, match="restarts must be at least 1"):
        pol.optimize_with_restarts(
            m, spec, 5, params, priors, np.random.default_rng(5), restarts=restarts
        )


def test_sample_cost_of_a_list_shares_one_sample_path(staged_model):
    m, spec, priors, _ = _noisy_spsa_case(staged_model)
    # the first policy's stop region lies inside the second's
    policies = [pol.LinearThresholdPolicy(np.array(th)) for th in ([1.2, 0.3], [1.5, 0.6])]
    got = pol.sample_cost(
        policies + policies[:1], m, spec, priors, np.random.default_rng(3), max_steps=200
    )
    [solo] = pol.sample_cost(policies[:1], m, spec, priors, np.random.default_rng(3), max_steps=200)
    assert got[0] == got[2] == solo and got[0] != got[1]
    flipped = pol.sample_cost(
        policies[::-1], m, spec, priors, np.random.default_rng(3), max_steps=200
    )
    assert flipped == got[1::-1]

"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  The heavier experiments reuse session-scoped solutions.
"""

import time

import numpy as np
import pytest

from conftest import SocialCase
from phasestop import dp, filters, model, orders, policy as pol, sim

_TERMINAL = None


@pytest.fixture(autouse=True, scope="module")
def _grab_terminal(request):
    global _TERMINAL
    _TERMINAL = request.config.pluginmanager.get_plugin("terminalreporter")
    yield


def report(cid: str, ok: bool, detail: str):
    line = f"ACCEPTANCE {cid}: {'PASS' if ok else 'FAIL'} - {detail}"
    if _TERMINAL is not None:
        _TERMINAL.write_line("")
        _TERMINAL.write_line(line)
    else:
        print(line)
    assert ok, f"{cid}: {detail}"


# ---------------------------------------------------------------------------
# Shared heavy artifacts


@pytest.fixture(scope="module")
def fig3():
    m = model.DetectionModel(
        [[1, 0, 0], [0.3, 0.1, 0.6], [0, 0.02, 0.98]],
        [0, 0, 1],
        model.discretize_gaussian(model.GaussianObs([0.0, 1.0, 1.0], [0.01, 0.01, 0.01]), 101),
    )
    grid = dp.build_grid(3, 20)
    sols = {}
    runtimes = {}
    for key, (alpha, d) in {
        "a": (0, 1), "b": (1, 2), "c": (10, 11), "d": (10, 5)
    }.items():
        spec = model.QuickestPredictiveDelay(
            alpha=alpha, beta=1.0, d=d, rho=1.0, op_cost=1e-3
        )
        t0 = time.time()
        sols[key] = (spec, dp.value_iterate(m, spec, grid, horizon=200))
        runtimes[key] = time.time() - t0
    return m, grid, sols, runtimes


@pytest.fixture(scope="module")
def social_instances():
    b = model.DiscreteObs([[0.9, 0.1], [0.1, 0.9]])
    m = model.DetectionModel(np.eye(2), [0.5, 0.5], b)
    grid = dp.build_grid(2, 499)  # 500-point interval grid
    cases = {}
    for key, spec in {
        "selfish": model.SocialStopping(
            d=1.8, beta=2.0, rho=0.9, local_costs=[[4.57, 5.57], [2.57, 0.0]]
        ),
        "welfare": model.SocialStopping(
            d=1.0, beta=20.0, rho=0.9,
            local_costs=[[2.1, 3.1], [3.1, 0.53]], include_welfare=True,
        ),
    }.items():
        sol = dp.value_iterate(m, spec, grid, tol=1e-10)
        ctx = SocialCase(spec, m)
        cases[key] = (spec, sol, ctx)
    return m, grid, cases


# ---------------------------------------------------------------------------
# Criteria


def test_criterion_01_threshold_structure(fig3):
    m, grid, sols, runtimes = fig3
    problems = []
    for key in ("a", "b", "c"):
        spec, sol = sols[key]
        reg = dp.extract_regions(sol, grid)
        viol = dp.convexity_check(reg.stop_indices, grid)
        cross3 = dp.line_crossing_check(sol, grid, 3)
        cross1 = dp.line_crossing_check(sol, grid, 1)
        if reg.n_stop_components != 1:
            problems.append(f"{key}: stop set has {reg.n_stop_components} components")
        if reg.n_continue_components != 1:
            problems.append(f"{key}: continue set has {reg.n_continue_components} components")
        if len(viol):
            problems.append(f"{key}: {len(viol)} convexity violations")
        if cross3 > 1 or cross1 > 1:
            problems.append(f"{key}: crossings {cross3}/{cross1}")
        if runtimes[key] > 120.0:
            problems.append(f"{key}: runtime {runtimes[key]:.1f}s")
    report(
        "01 threshold structure (fig3 a-c)",
        not problems,
        "; ".join(problems)
        or f"connected+convex stop sets, <=1 crossing, runtimes "
        f"{max(runtimes.values()):.2f}s max",
    )


def test_criterion_02_disconnected_negative_case(fig3):
    m, grid, sols, _ = fig3
    spec, sol = sols["d"]
    rep = orders.check_assumptions(m, spec)
    reg = dp.extract_regions(sol, grid)
    ok = (not rep["S-Ex1"].passed) and reg.n_stop_components >= 2
    report(
        "02 negative case (fig3 d)",
        ok,
        f"S-Ex1 slack={rep['S-Ex1'].slack:.3g}, stop components={reg.n_stop_components}",
    )


def test_criterion_03_random_convexity_suite():
    rng = np.random.default_rng(314)
    grid = dp.build_grid(3, 20)
    worst = 0
    for _ in range(20):
        p = np.zeros((3, 3))
        p[0, 0] = 1.0
        p[1:] = rng.dirichlet(np.ones(3), size=2)
        while np.any(p[1:, 0] < 1e-3):
            p[1:] = rng.dirichlet(np.ones(3), size=2)
        n_sym = int(rng.integers(2, 5))
        b = rng.dirichlet(np.ones(n_sym), size=3)
        m = model.DetectionModel(p, [0, 0.5, 0.5], model.DiscreteObs(b))
        rho = float(rng.uniform(0.8, 1.0))
        spec = model.QuickestPredictiveDelay(
            alpha=0.0,
            beta=float(rng.uniform(0.5, 3.0)),
            d=float(rng.uniform(0.5, 3.0)),
            rho=rho,
        )
        if rho == 1.0:
            sol = dp.value_iterate(m, spec, grid, horizon=200)
        else:
            sol = dp.value_iterate(m, spec, grid, tol=1e-9)
        reg = dp.extract_regions(sol, grid)
        worst = max(worst, len(dp.convexity_check(reg.stop_indices, grid)))
    report(
        "03 random zero-variance convexity",
        worst == 0,
        f"max violations over 20 instances = {worst}",
    )


def test_criterion_04_double_threshold(social_instances):
    m, grid, cases = social_instances
    problems = []
    for key, (spec, sol, ctx) in cases.items():
        reg = dp.extract_regions(sol, grid)
        intervals = reg.n_stop_components
        if not 2 <= intervals <= 3:
            problems.append(f"{key}: {intervals} stop intervals")
        # cascade regions are exact fixed points
        worst = 0.0
        for pi2 in np.linspace(ctx.eta1 + 1e-6, 1.0, 40):
            out = ctx.update([1 - pi2, pi2], 2)
            worst = max(worst, float(np.abs(out[1] - pi2)))
        for pi2 in np.linspace(0.0, max(ctx.eta3 - 1e-6, 0.0), 40):
            out = ctx.update([1 - pi2, pi2], 1)
            worst = max(worst, float(np.abs(out[1] - pi2)))
        if worst >= 1e-12:
            problems.append(f"{key}: cascade deviation {worst:.2e}")
        # boundary-limit identities (evaluated a hair inside the learning side
        # of each boundary; the indifference points themselves are tie cases)
        vec = lambda x: np.array([1 - x, x])
        t11 = ctx.update(vec(ctx.eta1 - 1e-13), 1)[1]
        t32 = ctx.update(vec(ctx.eta3 + 1e-13), 2)[1]
        t22 = ctx.update(vec(ctx.eta2), 2)[1]
        t21 = ctx.update(vec(ctx.eta2), 1)[1]
        gaps = [
            abs(t11 - ctx.eta2), abs(t32 - ctx.eta2),
            abs(t22 - ctx.eta1), abs(t21 - ctx.eta3),
        ]
        if max(gaps) >= 1e-10:
            problems.append(f"{key}: identity gap {max(gaps):.2e}")
    report(
        "04 social double threshold (fig4)",
        not problems,
        "; ".join(problems) or "2 stop intervals per instance, cascade exact, identities < 1e-10",
    )


def test_criterion_05_value_monotone_in_change_parameter():
    b = model.DiscreteObs([[0.8, 0.2], [0.2, 0.8]])
    spec = model.QuickestPredictiveDelay(alpha=0.0, beta=1.0, d=0.9, rho=0.9)
    grid = dp.build_grid(2, 500)  # 501 points
    ps = [0.99, 0.95, 0.9, 0.8, 0.01]  # dominance-descending order
    models = [model.DetectionModel([[1, 0], [1 - p, p]], [0, 1], b) for p in ps]
    res = dp.value_monotonicity_sweep(models, spec, grid, tol=1e-10, labels=ps)
    slack = min(res.pointwise_min_slack)
    ok = res.comparable and slack >= -1e-6
    report(
        "05 value monotone in dominance (fig6)",
        ok,
        f"premises {res.premise_ordered}, min pointwise slack {slack:.3g}",
    )


def test_criterion_06_ph_distribution():
    p = 0.7
    geo = model.DetectionModel(
        [[1, 0], [1 - p, p]], [0, 1], model.DiscreteObs([[0.8, 0.2], [0.2, 0.8]])
    )
    nu = model.ph_pmf(geo, 60).pmf
    ks = np.arange(1, 61)
    geo_err = float(np.max(np.abs(nu[1:] - (1 - p) * p ** (ks - 1))))

    staged = model.DetectionModel(
        [[1, 0, 0], [0.3, 0.6, 0.1], [0.1, 0.2, 0.7]],
        [0, 0, 1],
        model.DiscreteObs(np.full((3, 2), 0.5)),
    )
    kmax = 200
    pmf = model.ph_pmf(staged, kmax).pmf
    times = sim.sample_change_times(staged, 100_000, np.random.default_rng(2718), 5000)
    emp = np.bincount(np.clip(times, 0, kmax + 1), minlength=kmax + 2) / times.size
    ref = np.concatenate([pmf, [max(0.0, 1.0 - pmf.sum())]])
    tv = 0.5 * float(np.abs(emp - ref).sum())
    ok = geo_err < 1e-12 and tv < 0.02
    report(
        "06 phase-type distribution",
        ok,
        f"geometric max err {geo_err:.2e}, Monte Carlo TV {tv:.4f}",
    )


def test_criterion_07_order_and_filter_property_suites():
    rng = np.random.default_rng(99)
    fails = {}

    bad = 0
    for _ in range(10_000):
        x = int(rng.integers(2, 6))
        hi, lo = orders.random_mlr_pair(x, rng)
        if not (orders.mlr_geq(hi, lo) and orders.fosd_geq(hi, lo)):
            bad += 1
    fails["mlr=>fosd"] = bad

    def brute_tp2(mat, tol=1e-12):
        rows, cols = mat.shape
        for r1 in range(rows):
            for r2 in range(r1 + 1, rows):
                for c1 in range(cols):
                    for c2 in range(c1 + 1, cols):
                        if mat[r1, c1] * mat[r2, c2] - mat[r1, c2] * mat[r2, c1] < -tol:
                            return False
        return True

    bad = 0
    for k in range(10_000):
        if k % 3 == 0:
            mat = orders.random_tp2_stochastic(4, 4, rng, max_tries=10)
        else:
            mat = rng.random((4, 4))
        if orders.is_tp2(mat) != brute_tp2(mat):
            bad += 1
    fails["tp2 vs brute force"] = bad

    bad_pi = bad_y = 0
    for _ in range(10_000):
        p = orders.random_tp2_stochastic(3, 3, rng, max_tries=30)
        b = orders.random_tp2_stochastic(3, int(rng.integers(2, 5)), rng, max_tries=30)
        m = model.DetectionModel(p, np.full(3, 1 / 3), model.DiscreteObs(b))
        hi, lo = orders.random_mlr_pair(3, rng)
        prev = None
        for y in range(b.shape[1]):
            a = filters.hmm_update(hi, y, m).next_belief
            c = filters.hmm_update(lo, y, m).next_belief
            if not orders.mlr_geq(a, c):
                bad_pi += 1
            if prev is not None and not orders.mlr_geq(a, prev):
                bad_y += 1
            prev = a
    fails["filter MLR in belief"] = bad_pi
    fails["filter MLR in symbol"] = bad_y

    bad = 0
    for _ in range(10_000):
        x = int(rng.integers(2, 5))
        p1, p2 = orders.random_ordered_matrix_pair(x, rng)
        pi = rng.dirichlet(np.ones(x))
        if not (orders.matrix_order_geq(p1, p2) and orders.mlr_geq(p1.T @ pi, p2.T @ pi)):
            bad += 1
    fails["matrix order => prediction MLR"] = bad

    total = sum(fails.values())
    report(
        "07 order/filter property suites",
        total == 0,
        ", ".join(f"{k}: {v}" for k, v in fails.items()),
    )


def test_criterion_08_linear_threshold_iff():
    rng = np.random.default_rng(77)
    feasible_bad = 0
    for _ in range(10_000):
        x = int(rng.integers(3, 6))
        phi = rng.normal(0, 1.5, size=x - 1)
        if abs(phi[-1]) < 1e-3:
            phi[-1] = 0.5
        theta = pol.phi_to_theta(phi)
        if pol.line_monotonicity_violations(theta, rng, n_lines=2):
            feasible_bad += 1

    infeasible_missed = 0
    n_infeasible = 0
    while n_infeasible < 1000:
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
        n_infeasible += 1
        if not pol.line_monotonicity_violations(theta, rng, n_lines=50):
            infeasible_missed += 1
    ok = feasible_bad == 0 and infeasible_missed == 0
    report(
        "08 threshold monotonicity iff",
        ok,
        f"feasible violations {feasible_bad}/10000, "
        f"undetected infeasible {infeasible_missed}/1000",
    )


def test_criterion_09_spsa_matches_grid_policy(fig3):
    m, grid, sols, _ = fig3
    spec, sol = sols["a"]
    grid_policy = dp.GridPolicy(grid, sol.policy)
    rng = np.random.default_rng(42)
    priors = np.array([model.dirichlet_uniform_sample(3, rng) for _ in range(100)])

    def mc_cost(policy, reps=100, seed0=5000):
        vals = [
            sim.simulate_batch(
                m, spec, policy, priors, np.random.default_rng(seed0 + r),
                max_steps=500, transformed=False,
            ).costs.mean()
            for r in range(reps)
        ]
        arr = np.array(vals)
        return float(arr.mean()), float(arr.std(ddof=1) / np.sqrt(reps))

    baseline, base_se = mc_cost(grid_policy)
    params = pol.SpsaParams(step=0.15, stability=10.0, perturb=0.1)
    best, _ = pol.optimize_with_restarts(
        m, spec, iterations=200, params=params, priors=priors,
        rng=np.random.default_rng(11), restarts=5, max_steps=500,
    )
    cost, se = mc_cost(best.policy)
    rel = cost / baseline - 1.0

    target = np.array([0.5, -0.3])
    quad = pol.spsa_optimize(
        None, None, np.zeros(2), 1000,
        pol.SpsaParams(step=0.5, stability=10.0), None,
        np.random.default_rng(4242), cost_fn=lambda p, r: float(np.sum((p - target) ** 2)),
    )
    quad_err = float(np.max(np.abs(quad.final_phi - target)))

    ok = rel <= 0.05 and quad_err < 1e-2 and pol.theta_is_mlr_increasing(best.final_theta)
    report(
        "09 spsa threshold policy",
        ok,
        f"grid policy {baseline:.4f}+-{base_se:.4f}, threshold {cost:.4f}+-{se:.4f} "
        f"(rel {rel:+.1%}), quadratic err {quad_err:.2e}, theta={best.final_theta}",
    )


def test_criterion_10_blackwell_myopic_bound():
    b2 = model.DiscreteObs([[0.9, 0.1], [0.1, 0.9]])
    q = np.array([[0.8, 0.2], [0.2, 0.8]])
    b1 = dp.blackwell_degrade(b2, q)
    m = model.DetectionModel([[0.8, 0.2], [0.3, 0.7]], [0.5, 0.5], b1)
    spec = model.Scheduling(
        alpha1=2.5, alpha2=0.5, c1=[0.1, 0.15], c2=[0.5, 0.65],
        g=[0, 1], rho=0.8, obs_hi=b2, confusion=q,
    )
    grid = dp.build_grid(2, 500)
    sol = dp.value_iterate(m, spec, grid, tol=1e-10)
    myopic = np.array([dp.myopic_policy(spec, m, grid.points[i]) for i in range(grid.n_points)])
    holds = bool(np.all(myopic <= sol.policy))
    agrees = bool(np.all(sol.policy[myopic == 2] == 2))
    nontrivial = 0 < int((myopic == 2).sum()) < grid.n_points
    ok = holds and agrees and nontrivial
    report(
        "10 blackwell myopic bound",
        ok,
        f"bound holds={holds}, agreement on informative region={agrees}, "
        f"myopic mode-2 {int((myopic == 2).sum())}/{grid.n_points}, "
        f"optimal mode-2 {int((sol.policy == 2).sum())}",
    )


def test_criterion_11_simulator_dp_cross_validation():
    m = model.DetectionModel(
        [[1, 0], [0.3, 0.7]], [0, 1], model.DiscreteObs([[0.8, 0.2], [0.2, 0.8]])
    )
    spec = model.QuickestClassicalDelay(
        alpha=0.0, beta=5.0, d=1.0, rho=1.0, false_alarm=[0, 1]
    )
    grid = dp.build_grid(2, 2000)
    sol = dp.value_iterate(m, spec, grid, tol=1e-12)
    i0 = grid.nearest(np.array([[0.0, 1.0]]))[0]
    vbar = float(sol.values_original[i0])
    policy = dp.GridPolicy(grid, sol.policy)
    priors = np.tile([0.0, 1.0], (1000, 1))
    tau, tau0, cens = [], [], []
    for rep in range(100):
        res = sim.simulate_batch(
            m, spec, policy, priors, np.random.default_rng(999 + rep),
            max_steps=3000, transformed=False,
        )
        tau.append(res.tau)
        tau0.append(res.tau0)
        cens.append(res.censored)
    summary = sim.decompose_from_times(
        np.concatenate(tau), np.concatenate(tau0), d=1.0, beta=5.0,
        censored=np.concatenate(cens),
    )
    sigma_gap = abs(summary.criterion - vbar) / summary.stderr
    ok = sigma_gap < 3.0 and summary.n == 100_000 and summary.n_censored == 0
    report(
        "11 simulator/DP cross-validation",
        ok,
        f"empirical {summary.criterion:.5f}+-{summary.stderr:.5f} vs grid {vbar:.5f} "
        f"({sigma_gap:.2f} standard errors)",
    )


def test_criterion_12_risk_sensitive_consistency():
    b = model.DiscreteObs([[0.8, 0.2], [0.2, 0.8]])
    m = model.DetectionModel([[1, 0], [0.3, 0.7]], [0, 1], b)
    grid = dp.build_grid(2, 200)  # 201 points
    eps = 1e-6
    risk = model.RiskSensitive(risk=eps, beta=2.0, d=1.0)
    lin = model.QuickestPredictiveDelay(alpha=0.0, beta=2.0, d=1.0, rho=1.0)
    sol_r = dp.value_iterate(m, risk, grid, tol=1e-14)
    sol_l = dp.value_iterate(m, lin, grid, tol=1e-14)
    gap = float(np.max(np.abs(sol_r.values / eps - sol_l.values)))

    m3 = model.DetectionModel(
        [[1, 0, 0], [0.3, 0.1, 0.6], [0, 0.02, 0.98]],
        [0, 0, 1],
        model.discretize_gaussian(model.GaussianObs([0.0, 1.0, 1.0], [0.01, 0.01, 0.01]), 101),
    )
    grid3 = dp.build_grid(3, 20)
    risk3 = model.RiskSensitive(risk=0.1, beta=2.0, d=1.0)
    sol3 = dp.value_iterate(m3, risk3, grid3, horizon=2000)
    reg3 = dp.extract_regions(sol3, grid3)
    viol = dp.convexity_check(reg3.stop_indices, grid3)
    nontrivial = 0 < len(reg3.stop_indices) < grid3.n_points
    ok = gap < 1e-3 and len(viol) == 0 and nontrivial and reg3.n_stop_components == 1
    report(
        "12 risk-sensitive consistency",
        ok,
        f"eps-limit sup gap {gap:.2e}, stop region convex "
        f"({len(reg3.stop_indices)} points, {len(viol)} violations)",
    )

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from phasestop import cli, dp, filters, model, orders


def brute_nearest(grid, pts):
    """Reference projection: exact squared distances from ``m * pi`` (as
    computed) to every grid point; ties go to the lexicographically smallest
    grid point, i.e. the smallest index."""
    out = []
    for z in np.atleast_2d(pts) * grid.m:
        zf = [Fraction(float(v)) for v in z]
        dist = [sum((int(c) - v) ** 2 for c, v in zip(row, zf)) for row in grid.coords]
        out.append(min(range(grid.n_points), key=lambda i: (dist[i], i)))
    return np.array(out)


def brute_convexity(region, grid):
    """Reference convexity check: for each pair, all grid points at the
    minimum exact distance (4x squared, in integers) from the midpoint."""
    member = {int(i) for i in region}
    bad = []
    for a, b in itertools.combinations(sorted(member), 2):
        s = grid.coords[a] + grid.coords[b]
        d4 = ((2 * grid.coords - s) ** 2).sum(axis=1)
        if not member.intersection(np.nonzero(d4 == d4.min())[0].tolist()):
            bad.append((a, b))
    return bad


def test_build_grid_two_state():
    g = dp.build_grid(2, 4)
    assert g.n_points == 5
    assert np.allclose(g.points[:, 0], [0, 0.25, 0.5, 0.75, 1.0])
    assert np.all(g.points.sum(axis=1) == 1.0)


def test_build_grid_three_state_count_and_adjacency():
    g = dp.build_grid(3, 20)
    assert g.n_points == 231
    assert np.all(g.points.sum(axis=1) == 1.0)
    src, dst = g.edges
    pairs = set(zip(src.tolist(), dst.tolist()))
    assert len(pairs) == src.size
    for i, j in pairs:
        assert (j, i) in pairs
        assert np.abs(g.coords[i] - g.coords[j]).sum() == 2
    center = g.index_of((7, 7, 6))
    assert np.count_nonzero(src == center) == 6


def test_nearest_projection_two_state():
    g = dp.build_grid(2, 10)
    pts = np.array([[0.0, 1.0], [0.26, 0.74], [0.999, 0.001]])
    assert list(g.nearest(pts)) == [0, 3, 10]
    # exact midpoint resolves to the lexicographically smaller coordinates
    assert g.nearest(np.array([[0.25, 0.75]]))[0] == 2


@pytest.mark.parametrize("x,m", [(2, 10), (3, 12), (4, 8), (5, 6)])
def test_nearest_matches_exact_brute_force(x, m):
    g = dp.build_grid(x, m)
    assert np.array_equal(g.nearest(g.points), np.arange(g.n_points))
    rng = np.random.default_rng(x * 100 + m)
    pts = np.vstack([rng.dirichlet(np.ones(x), size=40), rng.dirichlet(0.2 * np.ones(x), size=20)])
    assert np.array_equal(g.nearest(pts), brute_nearest(g, pts))


@pytest.mark.parametrize("x,m", [(3, 20), (4, 12)])
def test_nearest_matches_brute_force_on_many_beliefs(x, m):
    # every grid point's float squared distance from m * pi; argmin takes the
    # first minimum, the lexicographically smallest grid point, and rows whose
    # two best distances lie within 1e-9 are settled by the exact brute force
    g = dp.build_grid(x, m)
    rng = np.random.default_rng(2000 + x)
    pts = np.vstack([rng.dirichlet(np.ones(x), size=1500), rng.dirichlet(0.2 * np.ones(x), size=500)])
    d2 = ((pts[:, None, :] * m - g.coords[None, :, :]) ** 2).sum(axis=2)
    want = d2.argmin(axis=1)
    best_two = np.sort(d2, axis=1)[:, :2]
    close = best_two[:, 1] - best_two[:, 0] < 1e-9
    want[close] = brute_nearest(g, pts[close])
    assert np.array_equal(g.nearest(pts), want)


def argsort_nearest(grid, pts):
    """The sorting kernel that the pairwise ranks in ``nearest`` replaced:
    two stable argsorts per row rank the fractional parts."""
    z = np.atleast_2d(pts) * grid.m
    z += (grid.m - z.sum(axis=1, keepdims=True)) / grid.n_states
    low = np.floor(z)
    order = np.argsort((low - z)[:, ::-1], axis=1, kind="stable")
    rank = np.argsort(order, axis=1)[:, ::-1]
    return grid.index_of((low + (rank < grid.m - low.sum(axis=1, keepdims=True))).astype(int))


def tie_points(x, m, rng, size=60):
    """Beliefs with m * pi on the half- and quarter-integer lattice, where
    several grid points are exactly equally far."""
    return np.vstack([rng.multinomial(q * m, np.ones(x) / x, size=size) / (q * m) for q in (2, 4)])


@pytest.mark.parametrize("x,m", [(2, 9), (3, 20), (4, 12), (5, 8), (6, 6)])
def test_nearest_matches_the_argsort_kernel(x, m):
    g = dp.build_grid(x, m)
    rng = np.random.default_rng(1000 + 10 * x + m)
    assert np.array_equal(g.nearest(g.points), argsort_nearest(g, g.points))
    for alpha in (1.0, 0.2, 5.0):
        pts = rng.dirichlet(alpha * np.ones(x), size=400)
        assert np.array_equal(g.nearest(pts), argsort_nearest(g, pts))
    ties = tie_points(x, m, rng)
    assert np.array_equal(g.nearest(ties), argsort_nearest(g, ties))
    # one ulp either side of a tie, on one coordinate per row
    for direction in (-np.inf, np.inf):
        near = ties.copy()
        cols = rng.integers(0, x, size=len(near))
        rows = np.arange(len(near))
        near[rows, cols] = np.nextafter(near[rows, cols], direction)
        near = np.maximum(near, 0.0)
        assert np.array_equal(g.nearest(near), argsort_nearest(g, near))


def test_nearest_matches_the_argsort_kernel_on_fig5_successors(staged_model):
    # the successor beliefs of the fig5 solve: about 1 100 pairs of equal
    # fractional parts and 300 pairs an ulp or a few apart
    mdl = staged_model(0.2)
    g = dp.build_grid(3, 20)
    unnorm = (g.points @ mdl.transition)[:, None, :] * mdl.obs.matrix.T[None, :, :]
    succ = (unnorm / unnorm.sum(axis=2, keepdims=True)).reshape(-1, 3)
    assert np.array_equal(g.nearest(succ), argsort_nearest(g, succ))


@pytest.mark.parametrize("x,m", [(3, 8), (3, 20), (4, 10), (4, 16)])
def test_nearest_exact_ties(x, m):
    # m * pi on a half- or quarter-integer lattice: several grid points at
    # exactly the same distance, resolved to the lexicographically smallest
    # (dyadic for m = 8, 16; for m = 10, 20 the float distances of a brute
    # force search can settle such ties either way)
    g = dp.build_grid(x, m)
    rng = np.random.default_rng(m + x)
    for q in (2, 4):
        parts = rng.multinomial(q * m, np.ones(x) / x, size=40)
        pts = parts / (q * m)
        assert np.array_equal(g.nearest(pts), brute_nearest(g, pts))


def test_nearest_tie_rule_example():
    g = dp.build_grid(3, 8)
    # m * pi = (4.5, 1.5, 2): (5, 1, 2) and (4, 2, 2) tie; the smaller wins
    assert tuple(g.coords[g.nearest([[4.5 / 8, 1.5 / 8, 2 / 8]])[0]]) == (4, 2, 2)
    g4 = dp.build_grid(4, 8)
    # (1.25, 1.25, 1.25, 4.25): four-way tie, the last coordinate rounds up
    pts = np.array([[1.25, 1.25, 1.25, 4.25]]) / 8
    assert tuple(g4.coords[g4.nearest(pts)[0]]) == (1, 1, 1, 5)


@pytest.mark.parametrize(
    "row", [[np.nan, 0.5, 0.5], [np.inf, 0.0, 0.0], [-0.1, 0.6, 0.5], [1.0, 1.0, 0.0]]
)
def test_nearest_rejects_invalid_beliefs(row):
    g = dp.build_grid(3, 10)
    with pytest.raises(ValueError):
        g.nearest(np.array([[0.2, 0.3, 0.5], row]))


@pytest.mark.parametrize("x,m", [(2, 7), (3, 9), (4, 6), (5, 4)])
def test_rank_table_round_trip(x, m):
    g = dp.build_grid(x, m)
    assert g.n_points == math.comb(m + x - 1, x - 1)
    assert [tuple(c) for c in g.coords] == sorted(tuple(c) for c in g.coords)
    assert np.array_equal(g.index_of(g.coords), np.arange(g.n_points))
    assert [g.index_of(tuple(c)) for c in g.coords] == list(range(g.n_points))
    assert np.count_nonzero(g.rank >= 0) == g.n_points
    l1 = np.abs(g.coords[:, None, :] - g.coords[None, :, :]).sum(axis=2)
    by_source = g.edges[:, np.lexsort(g.edges[::-1])]
    assert np.array_equal(by_source, np.nonzero(l1 == 2))
    for bad in ([m + 1] + [0] * (x - 2) + [-1], [m] + [0] * (x - 2) + [1], [0] * x):
        with pytest.raises(ValueError):
            g.index_of(bad)


def test_stage_costs_predictive_examples(three_state_model):
    m = three_state_model
    spec0 = model.QuickestPredictiveDelay(alpha=0.0, beta=1.0, d=1.0, rho=1.0)
    rng = np.random.default_rng(0)
    for _ in range(20):
        pi = rng.dirichlet(np.ones(3))
        c1, _ = dp.stage_cost_vectors(spec0, m, pi)
        assert c1[0] == 0.0
    spec = model.QuickestPredictiveDelay(alpha=2.0, beta=1.0, d=1.5, rho=1.0)
    c1_bar, c2_bar = spec.stage_costs(m, np.array([[1.0, 0, 0]]), original=True)
    assert c1_bar[0] == pytest.approx(0.0, abs=1e-15)
    assert c2_bar[0] == pytest.approx(1.5 * m.transition[0, 0], abs=1e-15)  # = d


def test_stage_costs_risk_small_parameter_series():
    p = np.array([[1.0, 0.0], [0.4, 0.6]])
    m = model.DetectionModel(p, [0, 1], model.DiscreteObs([[0.8, 0.2], [0.2, 0.8]]))
    eps, beta, d = 1e-8, 2.0, 1.5
    spec = model.RiskSensitive(risk=eps, beta=beta, d=d)
    rng = np.random.default_rng(1)
    for _ in range(20):
        pi = rng.dirichlet(np.ones(2))
        _, (c2,) = dp.stage_cost_vectors(spec, m, pi)
        # first-order series: d*P(change next) + beta*(pi1 - P(change next))
        pred = p[:, 0] @ pi
        series = d * pred + beta * (pi[0] - pred)
        assert c2 / eps == pytest.approx(series, abs=1e-6)


def test_stage_costs_constrained_social(identity_model_2):
    c = np.array([[2.0, 1.0], [1.9, 0.9]])
    spec = model.ConstrainedSocial(local_costs=c, d=1.0, beta=2.0, rho=0.5)
    pi = np.array([0.3, 0.7])
    (c1,), (c2,) = dp.stage_cost_vectors(spec, identity_model_2, pi)
    assert c1 == pytest.approx(min(c[:, 0] @ pi, c[:, 1] @ pi) / 0.5)
    b = identity_model_2.obs.matrix
    reveal = pi @ (b * c).sum(axis=1)
    assert c2 == pytest.approx(reveal + (1.0 + 0.5 * 2.0) * pi[0] - 0.5 * 2.0)


def test_value_iterate_zero_costs_all_stop():
    m = model.DetectionModel(
        [[1, 0], [0.5, 0.5]], [0, 1], model.DiscreteObs([[0.8, 0.2], [0.2, 0.8]])
    )
    spec = model.QuickestPredictiveDelay(alpha=0.0, beta=0.0, d=0.0, rho=0.9)
    g = dp.build_grid(2, 50)
    sol = dp.value_iterate(m, spec, g, tol=1e-12)
    assert np.all(sol.values == 0.0)
    assert np.all(sol.policy == dp.STOP)


def test_value_iterate_classical_two_state_threshold(geometric_model):
    spec = model.QuickestClassicalDelay(
        alpha=0.0, beta=5.0, d=1.0, rho=1.0, false_alarm=[0, 1]
    )
    g = dp.build_grid(2, 400)
    sol = dp.value_iterate(geometric_model, spec, g, tol=1e-12)
    # single threshold: exactly one policy switch along the interval
    switches = int(np.sum(sol.policy[1:] != sol.policy[:-1]))
    assert switches == 1
    assert sol.policy[-1] == dp.STOP  # full belief in the change state
    assert sol.policy[0] == dp.CONTINUE
    assert dp.line_crossing_check(sol, g, 2) == 1


def test_value_iterate_discounted_contracts(geometric_model):
    spec = model.QuickestClassicalDelay(
        alpha=0.0, beta=5.0, d=1.0, rho=0.8, false_alarm=[0, 1]
    )
    g = dp.build_grid(2, 100)
    sol = dp.value_iterate(geometric_model, spec, g, tol=1e-11)
    deltas = sol.delta_history
    ratios = deltas[2:] / np.maximum(deltas[1:-1], 1e-300)
    assert np.all(ratios <= 0.8 + 1e-9)


@pytest.mark.parametrize(
    "rule",
    [{"horizon": float("nan")}, {"horizon": -3}, {"horizon": 0}, {"horizon": 2.5},
     {"horizon": 200.0}, {"horizon": True}, {"horizon": "200"},
     {"tol": float("nan")}, {"tol": -1e-8}, {"horizon": 5, "tol": float("nan")}],
    ids=str,
)
def test_value_iterate_rejects_a_bad_stopping_rule(geometric_model, monkeypatch, rule):
    spec = model.QuickestClassicalDelay(alpha=0.0, beta=5.0, d=1.0, rho=0.8, false_alarm=[0, 1])
    g = dp.build_grid(2, 10)

    def no_sweep(*args):
        raise AssertionError("swept before checking the stopping rule")

    monkeypatch.setattr(dp, "_q_values", no_sweep)
    match = "horizon must be an integer >= 1" if "tol" not in rule else "tol must be a number >= 0"
    with pytest.raises(ValueError, match=match):
        dp.value_iterate(geometric_model, spec, g, **rule)
    with pytest.raises(ValueError, match=match):
        dp.value_monotonicity_sweep([geometric_model], spec, g, **rule)
    monkeypatch.undo()
    # a NumPy integer and a zero tolerance are accepted
    assert dp.value_iterate(geometric_model, spec, g, horizon=np.int64(2), tol=0.0).sweeps == 2


def test_value_iterate_tol_zero_stops_at_an_exact_fixed_point(geometric_model):
    # with no costs the zero value is a fixed point from the first sweep on:
    # tol = 0 accepts a sup-norm change of exactly 0 instead of running to MAX_SWEEPS
    spec = model.QuickestPredictiveDelay(alpha=0, beta=0, d=0, rho=0.9)
    sol = dp.value_iterate(geometric_model, spec, dp.build_grid(2, 50), tol=0.0)
    assert sol.sweeps == 1 and sol.sup_delta == 0.0 and not sol.values.any()


def test_value_is_mlr_decreasing_on_vertex_chains(three_state_model):
    spec = model.QuickestPredictiveDelay(alpha=0.0, beta=1.0, d=1.0, rho=1.0, op_cost=1e-3)
    g = dp.build_grid(3, 20)
    sol = dp.value_iterate(three_state_model, spec, g, horizon=200)
    for chain in dp.vertex_chains(g, 3):
        vals = sol.values[chain]
        assert np.all(np.diff(vals) <= 1e-9)
        pols = sol.policy[chain]
        assert np.all(np.diff(pols) >= 0)  # stop-to-continue at most once, never back


def test_extract_regions_all_stop():
    m = model.DetectionModel(
        [[1, 0], [0.5, 0.5]], [0, 1], model.DiscreteObs([[0.8, 0.2], [0.2, 0.8]])
    )
    spec = model.QuickestPredictiveDelay(alpha=0.0, beta=0.0, d=0.0, rho=0.9)
    g = dp.build_grid(2, 10)
    sol = dp.value_iterate(m, spec, g, tol=1e-12)
    reg = dp.extract_regions(sol, g)
    assert reg.n_stop_components == 1
    assert len(reg.continue_indices) == 0


def test_convexity_check_trivial_and_punctured():
    g = dp.build_grid(3, 12)
    assert dp.convexity_check([g.index_of((4, 4, 4))], g).shape == (0, 2)
    disc = [
        g.index_of((a, b, 12 - a - b))
        for a in range(13)
        for b in range(13 - a)
        if a >= 6
    ]
    assert dp.convexity_check(disc, g).shape == (0, 2)
    hole = g.index_of((9, 1, 2))
    punctured = [i for i in disc if i != hole]
    assert len(dp.convexity_check(punctured, g)) > 0


@pytest.mark.parametrize("x,m", [(2, 12), (3, 8), (4, 6)])
def test_convexity_check_matches_brute_force(x, m):
    g = dp.build_grid(x, m)
    rng = np.random.default_rng(x * 10 + m)
    found = 0
    for t in range(12):
        w = rng.normal(size=x)
        if t % 3 == 0:
            region = np.nonzero(rng.random(g.n_points) < 0.5)[0]
        elif t % 3 == 1:
            region = np.nonzero(g.points @ w > 0.2 * rng.normal())[0]
        else:
            half = np.nonzero(g.points @ w > 0.0)[0]
            region = np.setdiff1d(half, rng.choice(g.n_points, 2))
        got = dp.convexity_check(region, g)
        assert got.dtype.kind == "i" and got.shape == (len(got), 2)
        assert [tuple(p) for p in got.tolist()] == brute_convexity(region, g)
        found += len(got)
    assert found > 0


def test_line_crossing_detects_hand_built_violation():
    g = dp.build_grid(3, 6)
    policy = np.full(g.n_points, dp.CONTINUE)
    sol = dp.GridSolution(
        values=np.zeros(g.n_points),
        values_original=np.zeros(g.n_points),
        policy=policy,
        sweeps=0,
        sup_delta=0.0,
        delta_history=np.zeros(1),
    )
    assert dp.line_crossing_check(sol, g, 3) == 0
    # stop-continue-stop along the edge from the first to the last vertex
    edge = [g.index_of((6 - k, 0, k)) for k in range(7)]
    policy[edge[0]] = dp.STOP
    policy[edge[3]] = dp.STOP
    assert dp.line_crossing_check(sol, g, 3) >= 2


def test_myopic_policy_cases(geometric_model):
    obs_hi = model.DiscreteObs([[0.9, 0.1], [0.1, 0.9]])
    equal = model.Scheduling(
        alpha1=1.0, alpha2=1.0, c1=[0.2, 0.3], c2=[0.2, 0.3],
        g=[0, 1], rho=0.9, obs_hi=obs_hi,
    )
    cheap2 = model.Scheduling(
        alpha1=1.0, alpha2=1.0, c1=[0.5, 0.6], c2=[0.1, 0.2],
        g=[0, 1], rho=0.9, obs_hi=obs_hi,
    )
    rng = np.random.default_rng(4)
    for _ in range(50):
        pi = rng.dirichlet([1, 1])
        assert dp.myopic_policy(equal, geometric_model, pi) == 1
        assert dp.myopic_policy(cheap2, geometric_model, pi) == 2


def test_blackwell_degrade():
    b2 = model.DiscreteObs([[0.9, 0.1], [0.1, 0.9]])
    assert np.allclose(dp.blackwell_degrade(b2, np.eye(2)).matrix, b2.matrix)
    garbled = dp.blackwell_degrade(b2, [[0.5, 0.5], [0.5, 0.5]])
    assert np.allclose(garbled.matrix, 0.5)
    mixed = dp.blackwell_degrade(b2, [[0.8, 0.2], [0.2, 0.8]])
    assert np.allclose(mixed.matrix, [[0.74, 0.26], [0.26, 0.74]])
    with pytest.raises(ValueError):
        dp.blackwell_degrade(b2, [[0.7, 0.2], [0.2, 0.8]])


def test_value_monotonicity_sweep_single_and_pair():
    b = model.DiscreteObs([[0.8, 0.2], [0.2, 0.8]])
    spec = model.QuickestPredictiveDelay(alpha=0.0, beta=1.0, d=0.9, rho=0.9)
    g = dp.build_grid(2, 100)
    mk = lambda p: model.DetectionModel([[1, 0], [1 - p, p]], [0, 1], b)
    single = dp.value_monotonicity_sweep([mk(0.5)], spec, g, tol=1e-10)
    assert single.comparable and single.monotone
    pair = dp.value_monotonicity_sweep([mk(0.9), mk(0.5)], spec, g, tol=1e-10)
    assert pair.comparable
    assert pair.monotone
    unordered = dp.value_monotonicity_sweep([mk(0.5), mk(0.9)], spec, g, tol=1e-10)
    assert not unordered.comparable


def test_solution_csv_shape(geometric_model):
    spec = model.QuickestClassicalDelay(
        alpha=0.0, beta=5.0, d=1.0, rho=0.9, false_alarm=[0, 1]
    )
    g = dp.build_grid(2, 20)
    sol = dp.value_iterate(geometric_model, spec, g, tol=1e-10)
    text = dp.solution_csv(sol, g)
    lines = text.strip().split("\n")
    assert lines[0] == "c0,c1,value,policy,component"
    assert len(lines) == g.n_points + 1


def test_grid_policy_lookup(geometric_model):
    g = dp.build_grid(2, 10)
    actions = np.where(g.points[:, 0] > 0.5, dp.STOP, dp.CONTINUE)
    pol = dp.GridPolicy(g, actions)
    assert list(pol.stop_mask(np.array([[0.9, 0.1], [0.1, 0.9]]))) == [True, False]
    # one row at a time, as a single trajectory decides
    assert pol.stop_mask(np.array([[0.9, 0.1]]))[0] and not pol.stop_mask(np.array([[0.1, 0.9]]))[0]


def test_expected_value_after_update_matches_manual(geometric_model):
    spec = model.QuickestClassicalDelay(
        alpha=0.0, beta=5.0, d=1.0, rho=1.0, false_alarm=[0, 1]
    )
    g = dp.build_grid(2, 500)
    sol = dp.value_iterate(geometric_model, spec, g, tol=1e-12)
    pi0 = np.array([0.0, 1.0])
    # the grid successors of one filter step from pi0 and their sigma-weights
    pred = geometric_model.transition.T @ pi0
    idx, w = dp._successors(g, pred[None, :], geometric_model.obs.matrix.T, interpolate=False)
    i0 = g.nearest(pi0[None, :])[0]
    # in transformed coordinates the continue branch of the fixed point is
    # exact on the grid
    _, (c2,) = dp.stage_cost_vectors(spec, geometric_model, g.points[i0])
    assert sol.values[i0] == pytest.approx(c2 + (w[0] * sol.values[idx[0]]).sum(), abs=1e-9)
    # classical delay with no initial change mass: the first-step continue
    # cost vanishes, so the after-update value tracks the value itself up to
    # the offset projection error O((alpha+beta)/m)
    after = (w[0] * sol.values_original[idx[0]]).sum()
    assert after == pytest.approx(sol.values_original[i0], abs=5.0 / 500 * 2)


def test_constrained_social_stop_set_structure(identity_model_2):
    # stop set is connected and each myopic-action cell meets it in a
    # grid-convex piece (at most one piece per symbol)
    c = np.array([[2.0, 1.0], [1.9, 0.9]])
    spec = model.ConstrainedSocial(local_costs=c, d=1.0, beta=2.0, rho=0.5)
    g = dp.build_grid(2, 500)
    sol = dp.value_iterate(identity_model_2, spec, g, tol=1e-11)
    reg = dp.extract_regions(sol, g)
    assert reg.n_stop_components <= c.shape[1]
    assert reg.n_stop_components == 1  # also connected
    scores = g.points @ c  # (N, A) myopic herding costs
    cell = np.argmin(scores, axis=1)
    for a in range(c.shape[1]):
        piece = [int(i) for i in reg.stop_indices if cell[i] == a]
        if piece:
            assert dp.convexity_check(piece, g).shape == (0, 2)


def test_social_value_concave_per_interval(social_context_a):
    # interpolated successor lookup: under nearest-point projection the
    # composite of the piecewise-linear value with the projected update dents
    # by O(slope/m) where successors cross a kink, masking the exact
    # per-interval concavity
    ctx = social_context_a
    g = dp.build_grid(2, 499)
    sol = dp.value_iterate(ctx.model, ctx.spec, g, tol=1e-10, interpolate=True)
    pi2 = g.points[:, 1]
    bounds = [0.0, ctx.eta3, ctx.eta2, ctx.eta1, 1.0]
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        idx = np.nonzero((pi2 > lo + 1e-9) & (pi2 <= hi - 1e-9))[0]
        vals = sol.values[idx]
        # midpoint concavity on the 1-D grid inside each interval
        assert np.all(vals[1:-1] >= 0.5 * (vals[:-2] + vals[2:]) - 1e-9)


def test_vertex_prefix_structure(three_state_model):
    g = dp.build_grid(3, 20)
    for alpha, d in [(0, 1), (1, 2), (10, 11)]:
        spec = model.QuickestPredictiveDelay(
            alpha=alpha, beta=1.0, d=d, rho=1.0, op_cost=1e-3
        )
        sol = dp.value_iterate(three_state_model, spec, g, horizon=200)
        vertex_policy = [
            sol.policy[g.index_of(tuple(20 * np.eye(3, dtype=int)[i]))] for i in range(3)
        ]
        stops = [p == dp.STOP for p in vertex_policy]
        assert stops[0]  # the post-change vertex always stops
        assert stops == sorted(stops, reverse=True)  # stop vertices form a prefix


def test_reference_models_validate(three_state_model, staged_model):
    assert model.validate_model(three_state_model, "strict") == []
    assert model.validate_model(staged_model(0.2), "strict") == []
    assert model.validate_model(staged_model(0.77), "strict") == []
    b = model.DiscreteObs([[0.8, 0.2], [0.2, 0.8]])
    for p in (0.01, 0.8, 0.9, 0.95, 0.99):
        geo = model.DetectionModel([[1, 0], [1 - p, p]], [0, 1], b)
        assert model.validate_model(geo, "strict") == []
    nu = model.ph_pmf(three_state_model, 10_000)
    assert nu.partial_sums()[-1] > 1 - 1e-6


def _reference_vertex_chains(grid, vertex):
    """Per-point grouping by the gcd-reduced remaining coordinates."""
    axis = vertex - 1
    vertex_idx = None
    classes = {}
    for i, c in enumerate(grid.coords):
        rest = np.delete(c, axis)
        g = int(np.gcd.reduce(rest))
        if g == 0:
            vertex_idx = i
            continue
        key = tuple(int(v) for v in rest // g)
        classes.setdefault(key, []).append((int(c[axis]), i))
    chains = []
    for _, items in sorted(classes.items()):
        chains.append(np.array([i for _, i in sorted(items)] + [vertex_idx], dtype=int))
    return chains


def _policy_solution(policy, values=None):
    n = len(policy)
    values = np.zeros(n) if values is None else values
    return dp.GridSolution(values, values, np.asarray(policy), 0, 0.0, np.zeros(1))


def _reference_line_crossings(policy, chains):
    """The crossing count as computed from a list of chains: one
    concatenation, chain ids by ``np.repeat``, switches counted per chain."""
    seq = policy[np.concatenate(chains)]
    chain_id = np.repeat(np.arange(len(chains)), [len(c) for c in chains])
    switch = (seq[1:] != seq[:-1]) & (chain_id[1:] == chain_id[:-1])
    return int(np.bincount(chain_id[1:][switch], minlength=len(chains)).max())


@pytest.mark.parametrize("x,m", [(2, 9), (3, 1), (3, 12), (3, 20), (4, 2), (4, 10), (5, 6)])
def test_vertex_chains_match_reference(x, m):
    g = dp.build_grid(x, m)
    rng = np.random.default_rng(x * 100 + m)
    for vertex in range(1, x + 1):
        got, want = dp.vertex_chains(g, vertex), _reference_vertex_chains(g, vertex)
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and np.array_equal(a, b)
        # random policies, then one action everywhere and a threshold in the
        # first coordinate
        policies = [rng.integers(1, 3, size=g.n_points) for _ in range(5)] + [
            np.full(g.n_points, dp.STOP),
            np.where(g.coords[:, 0] * 2 >= m, dp.STOP, dp.CONTINUE),
        ]
        for policy in policies:
            sol = _policy_solution(policy)
            worst = max(int(np.sum(policy[c][1:] != policy[c][:-1])) for c in want)
            assert dp.line_crossing_check(sol, g, vertex) == _reference_line_crossings(policy, want) == worst


# Reference: the two-loop value iteration with one successor builder per
# family group, as it stood before the single Bellman operator.


def _ref_hmm_branches(mdl, grid, interpolate, scale=None):
    b = mdl.discrete_obs().matrix
    pts = grid.points if scale is None else grid.points * scale[None, :]
    pred = pts @ mdl.transition
    idx_parts, w_parts = [], []
    for y in range(b.shape[1]):
        unnorm = pred * b[:, y][None, :]
        sigma = unnorm.sum(axis=1)
        safe = np.where(sigma > 0.0, sigma, 1.0)
        nxt = unnorm / safe[:, None]
        nxt[sigma <= 0.0] = grid.points[0]
        idx, w = dp._project(grid, nxt, interpolate)
        idx_parts.append(idx)
        w_parts.append(w * sigma[:, None])
    return np.concatenate(idx_parts, axis=1), np.concatenate(w_parts, axis=1)


def _ref_static_obs_branches(mdl, grid, interpolate):
    frozen = model.DetectionModel(np.eye(mdl.n_states), mdl.initial, mdl.obs)
    return _ref_hmm_branches(frozen, grid, interpolate)


def _ref_social_branches(spec, mdl, grid, interpolate):
    b = mdl.discrete_obs().matrix
    c = spec.local_costs
    pts = grid.points
    n, x = pts.shape
    chosen = np.empty((n, b.shape[1]), dtype=int)
    for y in range(b.shape[1]):
        chosen[:, y] = np.argmin(pts @ (b[:, y : y + 1] * c), axis=1)
    idx_parts, w_parts = [], []
    for a in range(c.shape[1]):
        lik = np.zeros((n, x))
        for y in range(b.shape[1]):
            lik[chosen[:, y] == a] += b[:, y][None, :]
        unnorm = lik * pts
        sigma = unnorm.sum(axis=1)
        safe = np.where(sigma > 0.0, sigma, 1.0)
        nxt = unnorm / safe[:, None]
        nxt[sigma <= 0.0] = pts[0]
        idx, w = dp._project(grid, nxt, interpolate)
        idx_parts.append(idx)
        w_parts.append(w * sigma[:, None])
    return np.concatenate(idx_parts, axis=1), np.concatenate(w_parts, axis=1)


def _ref_value_iterate(mdl, spec, grid, horizon=None, tol=None, interpolate=False):
    undiscounted = isinstance(spec, model.RiskSensitive) or getattr(spec, "rho", 1.0) >= 1.0
    if horizon is None and tol is None:
        if undiscounted:
            horizon = dp.DEFAULT_HORIZON_UNDISCOUNTED
        else:
            tol = dp.DEFAULT_TOL
    pts = grid.points
    offset = spec.offset(mdl, pts)
    c1, c2 = dp.stage_cost_vectors(spec, mdl, pts)

    def run(q_pair):
        v = init
        deltas = []
        while True:
            v_new = np.minimum(*q_pair(v))
            deltas.append(float(np.max(np.abs(v_new - v))))
            v = v_new
            if horizon is not None and len(deltas) >= horizon:
                break
            if tol is not None and (deltas[-1] < tol or len(deltas) >= dp.MAX_SWEEPS):
                break
        q1, q2 = q_pair(v)
        policy = np.where(q1 <= q2, dp.STOP, dp.CONTINUE)
        return dp.GridSolution(v, v + offset, policy, len(deltas), deltas[-1], np.array(deltas))

    init = -offset
    if isinstance(spec, model.Scheduling):
        hi_model = model.DetectionModel(mdl.transition, mdl.initial, spec.obs_hi)
        idx1, w1 = _ref_hmm_branches(mdl, grid, interpolate)
        idx2, w2 = _ref_hmm_branches(hi_model, grid, interpolate)
        return run(lambda v: (c1 + spec.rho * (w1 * v[idx1]).sum(axis=1),
                              c2 + spec.rho * (w2 * v[idx2]).sum(axis=1)))
    if isinstance(spec, model.RiskSensitive):
        _, r2 = spec.scalings(mdl.transition)
        idx, w = _ref_hmm_branches(mdl, grid, interpolate, scale=r2)
        disc = 1.0
        init = np.zeros(grid.n_points)
    elif isinstance(spec, model.SocialStopping):
        idx, w = _ref_social_branches(spec, mdl, grid, interpolate)
        disc = spec.rho
    elif isinstance(spec, model.ConstrainedSocial):
        idx, w = _ref_static_obs_branches(mdl, grid, interpolate)
        disc = spec.rho
    else:
        idx, w = _ref_hmm_branches(mdl, grid, interpolate)
        disc = spec.rho
    return run(lambda v: (c1, c2 + disc * (w * v[idx]).sum(axis=1)))


_BIN2 = model.DiscreteObs([[0.8, 0.2], [0.2, 0.8]])
_BIN3 = model.DiscreteObs([[0.7, 0.2, 0.1], [0.2, 0.6, 0.2], [0.1, 0.2, 0.7]])
_GEO2 = model.DetectionModel([[1, 0], [0.3, 0.7]], [0, 1], _BIN2)
_CHAIN3 = model.DetectionModel([[1, 0, 0], [0.3, 0.6, 0.1], [0.1, 0.2, 0.7]], [0, 0, 1], _BIN3)


def _gauss3(bins):
    return model.DetectionModel(
        [[1, 0, 0], [0.3, 0.1, 0.6], [0, 0.02, 0.98]], [0, 0, 1],
        model.discretize_gaussian(model.GaussianObs([0.0, 1.0, 1.0], [0.25, 0.25, 0.25]), bins),
    )


_STATIC2 = model.DetectionModel(np.eye(2), [0.5, 0.5], model.DiscreteObs([[0.9, 0.1], [0.1, 0.9]]))
_STATIC3 = model.DetectionModel(np.eye(3), [1 / 3, 1 / 3, 1 / 3], _BIN3)
_SELFISH = model.SocialStopping(d=1.8, beta=2.0, rho=0.9, local_costs=[[4.57, 5.57], [2.57, 0.0]])
_WELFARE = model.SocialStopping(
    d=1.0, beta=20.0, rho=0.9, local_costs=[[2.1, 3.1], [3.1, 0.53]], include_welfare=True
)
_CONSTRAINED2 = model.ConstrainedSocial(local_costs=[[2.0, 1.0], [1.9, 0.9]], d=1.0, beta=2.0, rho=0.5)
_CONSTRAINED3 = model.ConstrainedSocial(
    local_costs=[[2.0, 1.5, 1.0], [1.9, 1.4, 0.9], [1.0, 0.8, 0.5]], d=1.0, beta=2.0, rho=0.7
)
_SCHED2 = model.Scheduling(
    alpha1=2.5, alpha2=0.5, c1=[0.1, 0.15], c2=[0.5, 0.65], g=[0, 1], rho=0.8,
    obs_hi=model.DiscreteObs([[0.9, 0.1], [0.1, 0.9]]),
)
_SCHED3 = model.Scheduling(
    alpha1=1.0, alpha2=0.2, c1=[0.1, 0.2, 0.3], c2=[0.4, 0.5, 0.6], g=[0, 1, 2], rho=0.9,
    obs_hi=model.DiscreteObs([[0.9, 0.05, 0.05], [0.05, 0.9, 0.05], [0.05, 0.05, 0.9]]),
)

BELLMAN_CASES = {
    "predictive-x2-horizon": (_GEO2, model.QuickestPredictiveDelay(
        alpha=0.5, beta=1.0, d=1.0, rho=1.0, op_cost=1e-3), 40, {"horizon": 30}),
    "predictive-x3-gaussian": (_gauss3(21), model.QuickestPredictiveDelay(
        alpha=0.0, beta=1.0, d=0.9, rho=0.9), 12, {}),
    "classical-x2-tol": (_GEO2, model.QuickestClassicalDelay(
        alpha=0.0, beta=5.0, d=1.0, rho=0.95, false_alarm=[0, 1]), 60, {"tol": 1e-10}),
    "classical-x3-horizon": (_CHAIN3, model.QuickestClassicalDelay(
        alpha=0.2, beta=2.0, d=1.0, rho=1.0, false_alarm=[0, 1, 1.5]), 12, {}),
    "classical-x2-interpolate": (_GEO2, model.QuickestClassicalDelay(
        alpha=0.0, beta=5.0, d=1.0, rho=0.9, false_alarm=[0, 1]), 50, {"interpolate": True}),
    "transient-x3": (_CHAIN3, model.TransientDetection(
        alpha=0.5, beta=1.0, delays=[0, 1, 0], rho=0.9), 12, {}),
    "transient-x3-gaussian": (_gauss3(15), model.TransientDetection(
        alpha=0.0, beta=2.0, delays=[0, 1.5, 0], rho=1.0, false_alarm=[0, 1, 1.2]), 10,
        {"horizon": 25}),
    "risk-x2": (_GEO2, model.RiskSensitive(risk=0.3, beta=2.0, d=1.0), 40, {}),
    "risk-x3-horizon": (_CHAIN3, model.RiskSensitive(risk=0.1, beta=2.0, d=1.0), 12, {"horizon": 15}),
    "risk-x2-interpolate": (_GEO2, model.RiskSensitive(risk=0.2, beta=1.0, d=1.0), 30,
                            {"interpolate": True, "horizon": 20}),
    "social-selfish-x2": (_STATIC2, _SELFISH, 99, {"tol": 1e-10}),
    "social-welfare-x2": (_STATIC2, _WELFARE, 99, {}),
    "social-selfish-interpolate": (_STATIC2, _SELFISH, 99, {"interpolate": True, "tol": 1e-10}),
    "constrained-x2": (_STATIC2, _CONSTRAINED2, 80, {}),
    "constrained-x3-horizon": (_STATIC3, _CONSTRAINED3, 10, {"horizon": 40}),
    "scheduling-x2": (model.DetectionModel([[0.8, 0.2], [0.3, 0.7]], [0.5, 0.5], _BIN2),
                      _SCHED2, 60, {"tol": 1e-10}),
    "scheduling-x3-horizon": (model.DetectionModel(
        [[0.8, 0.15, 0.05], [0.1, 0.8, 0.1], [0.05, 0.15, 0.8]], [1 / 3] * 3, _BIN3),
        _SCHED3, 10, {"horizon": 30}),
    "scheduling-x2-interpolate": (model.DetectionModel([[0.8, 0.2], [0.3, 0.7]], [0.5, 0.5], _BIN2),
                                  _SCHED2, 60, {"interpolate": True}),
}


@pytest.mark.parametrize("case", sorted(BELLMAN_CASES))
def test_value_iterate_matches_two_loop_reference(case):
    mdl, spec, m, kwargs = BELLMAN_CASES[case]
    g = dp.build_grid(mdl.n_states, m)
    got = dp.value_iterate(mdl, spec, g, **kwargs)
    want = _ref_value_iterate(mdl, spec, g, **kwargs)
    for name in ("values", "values_original", "policy", "delta_history"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    assert got.sweeps == want.sweeps and got.sup_delta == want.sup_delta
    assert np.array_equal(np.signbit(got.values), np.signbit(want.values))
    assert np.array_equal(np.signbit(got.values_original), np.signbit(want.values_original))


# one case per family, with the belief pi+ at which the transformed continue
# cost takes the offset back: the prediction P'pi for detection, the scaled
# prediction P'(r2 o pi) (unnormalised) for risk, pi itself for the static
# social families; scheduling has offset 0
TRANSFORM_CASES = {
    "quickest_predictive": ("predictive-x2-horizon", lambda mdl, spec, pts: pts @ mdl.transition),
    "quickest_classical": ("classical-x3-horizon", lambda mdl, spec, pts: pts @ mdl.transition),
    "transient": ("transient-x3", lambda mdl, spec, pts: pts @ mdl.transition),
    "risk_sensitive": ("risk-x3-horizon", lambda mdl, spec, pts: (
        pts * np.exp(spec.risk * spec.d * mdl.transition[:, 0])) @ mdl.transition),
    "social_stopping": ("social-welfare-x2", lambda mdl, spec, pts: pts),
    "constrained_social": ("constrained-x3-horizon", lambda mdl, spec, pts: pts),
    "scheduling": ("scheduling-x3-horizon", lambda mdl, spec, pts: pts @ mdl.transition),
}


@pytest.mark.parametrize("family", sorted(TRANSFORM_CASES))
def test_transformed_costs_shift_the_original_costs_by_the_offset(family):
    case, successor = TRANSFORM_CASES[family]
    mdl, spec, _, _ = BELLMAN_CASES[case]
    assert spec.family == family
    x = mdl.n_states
    pts = np.vstack([np.eye(x), np.random.default_rng(8).dirichlet(np.ones(x), size=300)])
    stop, cont = dp.stage_cost_vectors(spec, mdl, pts)
    stop_orig, cont_orig = dp.stage_cost_vectors(spec, mdl, pts, original=True)
    offset = spec.offset(mdl, pts)
    offset_next = spec.offset(mdl, successor(mdl, spec, pts))
    if family == "scheduling":
        assert not offset.any() and not offset_next.any()
    np.testing.assert_allclose(stop, stop_orig - offset, rtol=0, atol=1e-12)
    np.testing.assert_allclose(cont, cont_orig - offset + spec.rho * offset_next, rtol=0, atol=1e-12)


@pytest.mark.parametrize("name", ["fig3a", "fig3b", "fig3c"])
def test_fig3_thresholds_come_from_the_free_exit_horizon(name):
    # the terminal rule is free exit (CostSpec.initial_value): on fig3a-c
    # continuing costs more than stopping at every grid point, so the
    # converged policy stops everywhere, and the bundled threshold is that
    # of the 200-step free-exit run
    cfg = cli.load_config(name)
    mdl = cli.parse_model(cfg["model"], bins=cfg["bins"])
    spec = cli.parse_cost(cfg["cost"])
    g = dp.build_grid(mdl.n_states, 20)
    c_stop, c_cont = dp.stage_cost_vectors(spec, mdl, g.points)
    assert np.all(c_cont - c_stop > 0.0)
    converged = dp.value_iterate(mdl, spec, g, tol=1e-10)
    assert converged.sweeps < dp.MAX_SWEEPS and converged.sup_delta < 1e-10
    assert np.all(converged.policy == dp.STOP)
    horizon = dp.value_iterate(mdl, spec, g, horizon=cfg["horizon"])
    assert cfg["horizon"] == 200 and np.any(horizon.policy == dp.CONTINUE)


# Bit-identity of the solve path's array kernels against the per-point code
# they replaced.


def _bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.int64)


def _config_case(name):
    cfg = cli.load_config(name)
    mdl = cli.parse_model(cfg["model"], bins=cfg["bins"])
    return mdl, cli.parse_cost(cfg["cost"]), cfg["grid"]["m"], {}


@pytest.mark.parametrize("case", [
    "fig3a", "fig3d", "classical-x2-interpolate", "social-selfish-interpolate",
    "social-selfish-x2", "social-welfare-x2", "constrained-x3-horizon",
])
def test_run_gather_matches_the_fancy_index_gather(case):
    mdl, spec, m, kwargs = _config_case(case) if case.startswith("fig") else BELLMAN_CASES[case]
    interpolate = kwargs.get("interpolate", False)
    g = dp.build_grid(mdl.n_states, m)
    disc = spec.rho
    solved = dp.value_iterate(mdl, spec, g, **kwargs).values
    rng = np.random.default_rng(7)
    signed_zeros = np.where(rng.random(g.n_points) < 0.5, -0.0, 0.0)
    costs = dp.stage_cost_vectors(spec, mdl, g.points)
    for c, update in zip(costs, spec.updates(mdl, g.points)):
        if update is None:
            continue
        idx, w = dp._successors(g, *update, interpolate)
        runs = dp._runs(idx)
        assert np.array_equal(np.repeat(*runs), idx.ravel())
        for v in (solved, rng.normal(size=g.n_points), signed_zeros):
            (got,) = dp._q_values([(c, runs, w)], disc, v)
            assert np.array_equal(_bits(got), _bits(c + disc * (w * v[idx]).sum(axis=1)))


def _reference_components(indices, edges):
    """Depth-first search from the smallest unseen index."""
    neighbors = {}
    for i, j in edges.T.tolist():
        neighbors.setdefault(i, []).append(j)
    unseen = set(int(i) for i in indices)
    comps = []
    while unseen:
        start = min(unseen)
        unseen.remove(start)
        stack, comp = [start], [start]
        while stack:
            for vtx in neighbors.get(stack.pop(), []):
                if vtx in unseen:
                    unseen.remove(vtx)
                    stack.append(vtx)
                    comp.append(vtx)
        comps.append(sorted(comp))
    return comps


@pytest.mark.parametrize("x,m", [(2, 30), (3, 1), (3, 15), (4, 8), (5, 5)])
def test_extract_regions_matches_the_search(x, m):
    g = dp.build_grid(x, m)
    rng = np.random.default_rng(x * 10 + m)
    coord_sum = g.coords[:, :-1].sum(axis=1)
    policies = [
        rng.integers(1, 3, size=g.n_points),  # fragmented
        np.where(rng.random(g.n_points) < 0.1, dp.STOP, dp.CONTINUE),  # scattered stop points
        np.where(coord_sum % 3 == 0, dp.STOP, dp.CONTINUE),  # stripes
        np.where(g.coords[:, 0] * 2 >= m, dp.STOP, dp.CONTINUE),  # a threshold
        np.full(g.n_points, dp.STOP),
        np.full(g.n_points, dp.CONTINUE),
    ]
    for policy in policies:
        reg = dp.extract_regions(_policy_solution(policy), g)
        stop, cont = np.nonzero(policy == dp.STOP)[0], np.nonzero(policy == dp.CONTINUE)[0]
        assert np.array_equal(reg.stop_indices, stop)
        assert np.array_equal(reg.continue_indices, cont)
        stop_comps = _reference_components(stop, g.edges)
        cont_comps = _reference_components(cont, g.edges)
        counts = (reg.n_stop_components, reg.n_continue_components)
        assert counts == (len(stop_comps), len(cont_comps))
        assert all(type(n) is int for n in counts)  # the solve report's JSON counts
        ids = np.full(g.n_points, -1)
        for k, comp in enumerate(stop_comps + cont_comps):
            ids[comp] = k
        assert np.array_equal(reg.component_ids, ids)


def _reference_solution_csv(sol, grid, regions):
    ids = regions.component_ids
    lines = [",".join(f"c{k}" for k in range(grid.n_states)) + ",value,policy,component"]
    for i in range(grid.n_points):
        coords = ",".join(str(int(v)) for v in grid.coords[i])
        lines.append(f"{coords},{sol.values[i]:.17g},{int(sol.policy[i])},{int(ids[i])}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("x,m", [(2, 20), (3, 10), (4, 5)])
def test_solution_csv_matches_the_row_writer(x, m):
    g = dp.build_grid(x, m)
    rng = np.random.default_rng(m)
    special = [-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, np.inf, -np.inf, np.nan,
               0.1, -0.1, 1 / 3, -2.5e-17, 123456789.125]
    values = rng.normal(scale=1e3, size=g.n_points)
    values[: len(special)] = special
    sol = _policy_solution(rng.integers(1, 3, size=g.n_points), values)
    regions = dp.extract_regions(sol, g)
    text = dp.solution_csv(sol, g, regions)
    assert text == _reference_solution_csv(sol, g, regions)
    assert dp.solution_csv(sol, g) == text


def _reference_unit_sums(points):
    """The unit-sum fix-up run on every row."""
    points = points.copy()
    for row in points:
        for _ in range(12):
            resid = 1.0 - row.sum()
            if resid == 0.0:
                break
            best_j, best_err = -1, abs(resid)
            for j in np.argsort(row):
                if row[j] + resid < 0.0:
                    continue
                old = row[j]
                row[j] = old + resid
                err = abs(1.0 - row.sum())
                if err == 0.0:
                    break
                row[j] = old
                if err < best_err:
                    best_j, best_err = j, err
            else:
                if best_j < 0:
                    break
                row[best_j] += resid
    return points


@pytest.mark.parametrize("x,m", [(2, 97), (3, 49), (4, 30), (5, 11), (6, 7)])
def test_grid_unit_sums_match_the_fix_up_on_every_row(x, m):
    g = dp.build_grid(x, m)
    assert np.array_equal(_bits(g.points), _bits(_reference_unit_sums(g.coords / float(m))))

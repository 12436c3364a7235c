"""Reference oracles and random-instance generators of the property and
acceptance tests; no command of the package runs them."""

import itertools

import numpy as np

from phasestop.dp import SimplexGrid, _chain_order
from phasestop.filters import as_belief
from phasestop.model import DetectionModel, DiscreteObs
from phasestop.orders import ORDER_TOL, _min_minor, _minors, _pairs, matrix_order_geq
from phasestop.policy import LinearThresholdPolicy
from phasestop.sim import (
    _ROW_SHIFT,
    DETECTION_MAX_STEPS,
    _cdf,
    _draw_positions,
    _DrawTable,
    _row_offsets,
    _uniform_keys,
)

MLR_RATIO_SCALE = 2.0
TILT_TRIES = 500


def mlr_geq(pi1, pi2) -> bool:
    """Monotone-likelihood-ratio dominance: ``pi1 >= pi2`` in the MLR order."""
    a = np.asarray(pi1, dtype=float)
    b = np.asarray(pi2, dtype=float)
    if a.shape != b.shape:
        raise ValueError("beliefs must have the same dimension")
    # pi1(i) pi2(j) <= pi2(i) pi1(j) for all i < j
    lhs = np.outer(a, b)
    rhs = np.outer(b, a)
    iu = _pairs(a.size)
    return bool(np.all(lhs[iu] <= rhs[iu] + ORDER_TOL))


def fosd_geq(pi1, pi2) -> bool:
    """First-order stochastic dominance: every tail sum of pi1 dominates pi2's."""
    a = np.asarray(pi1, dtype=float)
    b = np.asarray(pi2, dtype=float)
    if a.shape != b.shape:
        raise ValueError("beliefs must have the same dimension")
    ta = np.cumsum(a[::-1])[::-1]
    tb = np.cumsum(b[::-1])[::-1]
    return bool(np.all(ta >= tb - ORDER_TOL))


def is_tp2(mat) -> bool:
    """True when every 2x2 minor (adjacent or not) of the matrix is >= -ORDER_TOL."""
    m = np.asarray(mat, dtype=float)
    if np.any(m < -ORDER_TOL):
        raise ValueError("matrix must be non-negative")
    return _min_minor(m) >= -ORDER_TOL


def brute_force_tp2(mat, tol=1e-12):
    """:func:`is_tp2` written out: every 2x2 minor, one at a time."""
    m = np.asarray(mat, float)
    rows, cols = m.shape
    for r1, r2 in itertools.combinations(range(rows), 2):
        for c1, c2 in itertools.combinations(range(cols), 2):
            if m[r1, c1] * m[r2, c2] - m[r1, c2] * m[r2, c1] < -tol:
                return False
    return True


def random_mlr_pair(n_states: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """A pair ``(hi, lo)`` with ``hi >= lo`` in the MLR order.

    ``hi`` is ``lo`` reweighted by an increasing likelihood-ratio vector, the
    cumulative sum of exponentials of mean ``MLR_RATIO_SCALE``.
    """
    lo = rng.dirichlet(np.ones(n_states))
    ratio = np.cumsum(rng.exponential(MLR_RATIO_SCALE, size=n_states))
    hi = lo * ratio
    hi /= hi.sum()
    return hi, lo


def random_tp2_stochastic(
    rows: int, cols: int, rng: np.random.Generator, max_tries: int = 200
) -> np.ndarray:
    """Random row-stochastic TP2 matrix.

    Draws positive matrices, sorts rows by mean symbol index, and
    rejection-samples on the TP2 test; falls back to rows of discretized
    Gaussians with increasing means (always TP2) if rejection stalls.

    All ``max_tries`` tries are drawn in one call and tested together.  When
    one passes, the generator goes back to its state before the call and
    redraws the tries up to the first that passed, so that it ends where
    drawing and testing one try at a time would have ended.
    """
    idx = np.arange(cols)
    start = rng.bit_generator.state
    tries = rng.dirichlet(np.ones(cols), size=(max_tries, rows))
    tries = np.take_along_axis(tries, np.argsort(tries @ idx, axis=1)[..., None], axis=1)
    passed = np.flatnonzero(np.min(_minors(tries), axis=-1, initial=np.inf) >= -ORDER_TOL)
    if passed.size:
        rng.bit_generator.state = start
        rng.dirichlet(np.ones(cols), size=(passed[0] + 1, rows))
        return tries[passed[0]]
    centers = np.sort(rng.uniform(0, cols - 1, size=rows))
    scale = rng.uniform(0.5, 1.5) * cols / 4.0
    m = np.exp(-0.5 * ((idx[None, :] - centers[:, None]) / scale) ** 2)
    m /= m.sum(axis=1, keepdims=True)
    return m


def random_ordered_matrix_pair(n_states: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Random pair ``(P1, P2)`` with ``P1 >= P2`` in the transition order.

    Mixes two constructions: identical-row (iid) matrices built from an
    MLR-ordered pair of distributions, and an exponential tilt of a common
    base matrix, tried up to ``TILT_TRIES`` times before falling back to the
    first construction.
    """
    if rng.random() < 0.5:
        hi, lo = random_mlr_pair(n_states, rng)
        p1 = np.tile(hi, (n_states, 1))
        p2 = np.tile(lo, (n_states, 1))
        return p1, p2
    for _ in range(TILT_TRIES):
        base = rng.dirichlet(np.ones(n_states), size=n_states)
        t = rng.uniform(2.0, 12.0)
        tilt = t ** np.arange(n_states)
        p1 = base * tilt
        p1 /= p1.sum(axis=1, keepdims=True)
        if matrix_order_geq(p1, base):
            return p1, base
    hi, lo = random_mlr_pair(n_states, rng)
    return np.tile(hi, (n_states, 1)), np.tile(lo, (n_states, 1))


def line_monotonicity_violations(
    theta,
    rng: np.random.Generator | None = None,
    n_lines: int = 0,
    tol: float = 1e-12,
) -> list[str]:
    """Witnesses that the threshold score fails to be monotone on some
    vertex-anchored line, or that the first vertex is not in the stop set.

    The lines checked run from each vertex, plus ``n_lines`` random ones drawn
    from ``rng``.  Feasible coefficients produce no witnesses; every
    infeasible vector produces at least one.
    """
    t = np.asarray(theta, dtype=float)
    pol = LinearThresholdPolicy(t)
    x = pol.n_states
    c, intercept = coefficients(pol)
    out: list[str] = []
    if intercept <= tol:
        out.append("first vertex not in the stopping set (intercept <= 0)")

    eye = np.eye(x)
    bases_hi = list(eye[: x - 1])
    bases_lo = list(eye[1:])
    if rng is not None and n_lines > 0:
        for _ in range(n_lines):
            w = rng.dirichlet(np.ones(x - 1))
            base = np.insert(w, x - 1, 0.0)
            bases_hi.append(base)
            base = np.insert(rng.dirichlet(np.ones(x - 1)), 0, 0.0)
            bases_lo.append(base)

    # toward the last vertex the score must be non-decreasing
    for base in bases_hi:
        slope = c[x - 1] - float(base @ c)
        if slope < -tol:
            out.append(f"score decreases toward e_{x} on the line from {base}")
    # toward the first vertex the score must be non-increasing
    for base in bases_lo:
        slope = c[0] - float(base @ c)
        if slope > tol:
            out.append(f"score increases toward e_1 on the line from {base}")
    return out


def blackwell_degrade(obs_hi, confusion) -> DiscreteObs:
    """Degrade an observation matrix through a stochastic confusion matrix."""
    b2 = obs_hi.matrix if isinstance(obs_hi, DiscreteObs) else np.asarray(obs_hi, dtype=float)
    q = np.asarray(confusion, dtype=float)
    if np.any(q < 0) or np.any(np.abs(q.sum(axis=1) - 1.0) > 1e-12):
        raise ValueError("confusion matrix must be row-stochastic")
    prod = b2 @ q
    rows = prod.sum(axis=1)
    if np.any(np.abs(rows - 1.0) > 1e-12):
        raise ValueError("degraded matrix rows must sum to 1")
    return DiscreteObs(prod / rows[:, None])


def dirichlet_uniform_sample(n_states: int, rng: np.random.Generator) -> np.ndarray:
    """Draw a belief uniformly from the simplex via normalized unit exponentials."""
    if n_states < 2:
        raise ValueError("need at least two states")
    x = rng.exponential(1.0, size=n_states)
    return x / x.sum()


def social_fixed_points_from(costs: np.ndarray, b: np.ndarray) -> tuple[float, float, float]:
    """The cascade and learning interval boundaries ``eta1 >= eta2 >= eta3``
    (second belief component) of the 2-state, 2-action social rule."""
    delta1 = costs[0, 1] - costs[0, 0]
    delta2 = costs[1, 0] - costs[1, 1]
    dens = (
        delta1 * b[0, 0] + delta2 * b[1, 0],
        delta1 + delta2,
        delta1 * b[0, 1] + delta2 * b[1, 1],
    )
    if any(abs(d) < 1e-300 for d in dens):
        raise ValueError("degenerate local costs: zero denominator in interval bounds")
    eta1 = delta1 * b[0, 0] / dens[0]
    eta2 = delta1 / dens[1]
    eta3 = delta1 * b[0, 1] / dens[2]
    return float(eta1), float(eta2), float(eta3)


def coefficients(policy: LinearThresholdPolicy) -> tuple[np.ndarray, float]:
    """Belief-space coefficient vector and intercept of a linear policy's score."""
    c = np.zeros(policy.n_states)
    c[1] = 1.0
    c[2:] = policy.theta[: policy.n_states - 2]
    return c, float(policy.theta[-1])


def vertex_chains(grid: SimplexGrid, vertex: int) -> list[np.ndarray]:
    """Maximal grid-aligned lines toward the (1-based) vertex.

    Points are grouped by the projective class of their remaining
    coordinates (divided by their gcd); the chains come in ascending order
    of that class, each ordered by increasing mass on the vertex and ending
    at the vertex itself.
    """
    order, ends = _chain_order(grid, vertex)
    return np.split(order, ends[:-1])


def sample_change_times(
    model: DetectionModel,
    n: int,
    rng: np.random.Generator,
    max_steps: int = DETECTION_MAX_STEPS,
) -> np.ndarray:
    """First-hit times of the absorbing state for ``n`` independent chains
    (-1 when not absorbed within ``max_steps``)."""
    p = model.transition
    table_p, next_off = _DrawTable(_cdf(p)), _row_offsets(*p.shape)
    states = np.searchsorted(_cdf(as_belief(model.initial)), rng.random(n), side="right")
    times = np.where(states == 0, 0, -1)
    rows = np.flatnonzero(states != 0)
    off = states[rows] << _ROW_SHIFT
    for k in range(1, max_steps + 1):
        if rows.size == 0:
            break
        query = _uniform_keys(rng, rows.size)
        query += off
        off = next_off[_draw_positions(table_p, query)]
        hit = off == 0
        times[rows[hit]] = k
        rows, off = rows[~hit], off[~hit]
    return times

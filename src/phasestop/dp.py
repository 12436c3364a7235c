"""Grid dynamic programming on the belief simplex.

Builds a barycentric grid and runs value iteration of one Bellman operator,
``V(pi) = min_u { c(pi, u) + disc * sum_y sigma(pi, y, u) V(T(pi, y, u)) }``,
in the transformed coordinates (stop cost and continue cost after
subtracting the linear stopping offset).  Everything family-specific comes
from the spec's methods (:class:`~phasestop.model.CostSpec`): the stage
costs, the offset, the zero-horizon value and each action's belief update.
This module turns an update into the grid indices and sigma-weights of its
successor beliefs (projected to the nearest grid point); stopping is an
action with no successors.  A row of successor indices holds a few grid
points in runs, so each sweep gathers successor values by runs
(``np.repeat`` of one value per run); the products and row sums see the
same operands in the same order as ``(w * v[idx]).sum(axis=1)``, so every
bit is unchanged.  When the first sweep lowers no value, no later sweep
lowers one, so a row whose stop value is strictly below its continue value
stays stopped: it settles and is left out of the later sweeps, bit for bit
(:func:`value_iterate`).  Runs break at row starts, so a row subset keeps
the runs that start in its rows.  The Bayes step comes from
:mod:`phasestop.filters`.
Structural analysis helpers check connectedness, convexity, and
single-crossing of the policy along vertex-anchored lines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, reduce
from itertools import chain, combinations

import numpy as np

from .filters import _row_sum, bayes_step
from .model import CostSpec, DetectionModel
from .orders import matrix_order_geq

STOP, CONTINUE = 1, 2


# ---------------------------------------------------------------------------
# Simplex grid


NEGATIVE_TOL = 1e-12  # float noise allowed below zero in a belief coordinate


@dataclass
class SimplexGrid:
    """Barycentric grid: all integer compositions of ``m`` into ``X`` parts.

    The compositions are the points of the A_{X-1} lattice on the plane
    ``sum(c) = m``, stored in lexicographic order.  ``rank`` maps the first
    ``X - 1`` coordinates of a composition (the last one is implied) to its
    grid index; entries whose coordinates sum past ``m`` hold -1.
    """

    m: int
    coords: np.ndarray  # (N, X) integer barycentric coordinates
    points: np.ndarray  # (N, X) belief vectors
    edges: np.ndarray  # (2, E) index pairs at barycentric L1 distance 2, both directions
    rank: np.ndarray = field(repr=False)  # (m+1,)*(X-1) composition -> index

    @property
    def n_states(self) -> int:
        return self.coords.shape[1]

    @property
    def n_points(self) -> int:
        return self.coords.shape[0]

    @cached_property
    def _rank_strides(self) -> np.ndarray:
        return np.array(self.rank.strides) // self.rank.itemsize

    def _flat(self, coords: np.ndarray) -> np.ndarray:
        """Offsets into ``rank.ravel()`` of the rows of ``coords`` (shape (..., X))."""
        return coords[..., :-1] @ self._rank_strides

    def _lookup(self, coords: np.ndarray) -> np.ndarray:
        """Grid indices of valid compositions ``coords`` (shape (..., X))."""
        return self.rank.ravel()[self._flat(coords)]

    def index_of(self, coords):
        """Grid index of one composition, or an index array for an (K, X) array.

        Raises ``ValueError`` for a row that is not a composition of ``m``
        into ``X`` non-negative parts.
        """
        c = np.asarray(coords)
        if c.shape[-1:] != (self.n_states,) or c.ndim > 2:
            raise ValueError(
                f"expected compositions of length {self.n_states}, got shape {c.shape}"
            )
        rows = np.atleast_2d(c).astype(int)
        off = (rows < 0).any(axis=1) | (rows.sum(axis=1) != self.m)
        if off.any():
            bad = tuple(int(v) for v in rows[np.argmax(off)])
            raise ValueError(f"{bad} is not on the grid (non-negative parts summing to {self.m})")
        idx = self._lookup(rows)
        return int(idx[0]) if c.ndim == 1 else idx

    def nearest(self, pts) -> np.ndarray:
        """Indices of the grid points nearest (Euclidean) to each row of ``pts``.

        Exact lattice rounding (Conway & Sloane 1982): ``z = m * pi`` as
        computed is shifted by a constant onto the plane ``sum(z) = m``, then
        floored, and the ``k = m - sum(floor)`` coordinates with the largest
        fractional parts are rounded up.  Among equal fractional parts the
        later coordinate is rounded up, so an exact distance tie resolves to
        the lexicographically smallest of the tied grid points.

        The work is done in column layout, one length-K array per coordinate.
        A coordinate's rank among the descending fractional parts (the later
        coordinate first among equals) is counted from the ``X (X - 1) / 2``
        pairwise comparisons: comparing coordinates ``i < j`` adds one to
        the rank of whichever of the two comes second.  Coordinates ranked
        below ``k`` are rounded up; no sort is needed.

        Raises ``ValueError`` for a row that is non-finite, has a coordinate
        below ``-NEGATIVE_TOL``, or lies so far off the simplex that its
        rounding has a negative part.
        """
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        x = self.n_states
        z = pts * self.m
        total = _row_sum(z)
        # a NaN or infinite coordinate makes its row total non-finite
        if not np.isfinite(total).all():
            raise ValueError("nearest: non-finite belief")
        if (pts < -NEGATIVE_TOL).any():
            raise ValueError("nearest: negative belief coordinate")
        z = np.add(z.T, (self.m - total) / x, order="C")  # (X, K), on sum(z) = m
        low = np.floor(z)
        frac = np.subtract(z, low, out=z)
        # rank[j] starts at j, the number of pairs (i, j) with i < j; each
        # pair whose j comes first (frac[j] >= frac[i]) moves one to rank[i]
        rank = np.empty(z.shape, dtype=np.int8)
        rank[:] = np.arange(x, dtype=np.int8)[:, None]
        for i in range(x - 1):
            for j in range(i + 1, x):
                first = frac[j] >= frac[i]
                rank[i] += first
                rank[j] -= first
        # k as int8, as the ranks: a k that does not fit belongs to a row
        # with a coordinate far below 0, which raises below
        with np.errstate(invalid="ignore"):
            low += rank < (self.m - low.sum(axis=0)).astype(np.int8)
        if (low < 0).any():
            raise ValueError("nearest: belief too far off the simplex")
        # offsets into the rank table, exact in float64 (integers below 2**53)
        return self.rank.ravel()[(self._rank_strides @ low[:-1]).astype(np.intp)]


def build_grid(n_states: int, m: int) -> SimplexGrid:
    """Grid of all beliefs with coordinates k/m, in lexicographic order."""
    if m < 1:
        raise ValueError("resolution m must be >= 1")
    # C order over the first X-1 coordinates is the lexicographic order
    head = np.indices((m + 1,) * (n_states - 1)).reshape(n_states - 1, -1).T
    head = head[head.sum(axis=1) <= m]
    coords = np.hstack([head, m - head.sum(axis=1, keepdims=True)])
    rank = np.full((m + 1,) * (n_states - 1), -1, dtype=int)
    rank[tuple(head.T)] = np.arange(coords.shape[0])
    points = coords / float(m)
    # force exact unit sums (the divisions can lose a ulp in the row total)
    for i in np.flatnonzero(points.sum(axis=1) != 1.0):
        row = points[i]
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
    src, dst = [], []
    for a in range(n_states):
        for b in range(n_states):
            if a == b:
                continue
            i = np.nonzero(coords[:, a] > 0)[0]
            moved = coords[i]
            moved[:, a] -= 1
            moved[:, b] += 1
            src.append(i)
            dst.append(rank[tuple(moved[:, :-1].T)])
    edges = np.stack([np.concatenate(src), np.concatenate(dst)])
    return SimplexGrid(m=m, coords=coords, points=points, edges=edges, rank=rank)


# ---------------------------------------------------------------------------
# Stage costs


def stage_cost_vectors(
    spec: CostSpec,
    model: DetectionModel,
    pts: np.ndarray,
    original: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """Stage costs (stop, continue) for each belief row of ``pts``, in the
    transformed coordinates unless ``original``; see :class:`CostSpec`."""
    return spec.stage_costs(model, np.atleast_2d(np.asarray(pts, dtype=float)), original)


# ---------------------------------------------------------------------------
# Successor structure


def _project(grid: SimplexGrid, beliefs: np.ndarray, interpolate: bool):
    """Map successor beliefs to grid indices and weights.

    Returns ``(idx, w)`` of shape (K, S): S = 1 for nearest-point projection,
    S = 2 for linear interpolation (supported on 2-state grids).
    """
    if not interpolate:
        idx = grid.nearest(beliefs)
        return idx[:, None], np.ones((beliefs.shape[0], 1))
    if grid.n_states != 2:
        raise NotImplementedError("interpolation is only supported on 2-state grids")
    pos = np.clip(beliefs[:, 0] * grid.m, 0.0, float(grid.m))
    lo = np.floor(pos).astype(int)
    lo = np.minimum(lo, grid.m - 1)
    frac = pos - lo
    idx = np.stack([lo, lo + 1], axis=1)
    w = np.stack([1.0 - frac, frac], axis=1)
    return idx, w


def _successors(grid: SimplexGrid, pred: np.ndarray, liks, interpolate: bool):
    """Grid indices and sigma-weights of the successors ``pred * lik``, one
    branch per likelihood in ``liks``; a zero or NaN sigma sends the branch to
    point 0.  Each branch writes its columns of the (N, S) outputs in place."""
    k = 2 if interpolate else 1
    idx = np.empty((pred.shape[0], k * len(liks)), dtype=int)
    w = np.empty(idx.shape)
    for b, lik in enumerate(liks):
        nxt, sigma = bayes_step(pred, lik)
        nxt[~(sigma > 0.0)] = grid.points[0]
        cols = slice(k * b, k * (b + 1))
        idx[:, cols], w_proj = _project(grid, nxt, interpolate)
        np.multiply(w_proj, sigma[:, None], out=w[:, cols])
    return idx, w


# ---------------------------------------------------------------------------
# Value iteration


@dataclass
class GridSolution:
    """Value function and policy on a grid, with convergence metadata."""

    values: np.ndarray  # transformed coordinates
    values_original: np.ndarray
    policy: np.ndarray  # 1 = stop / mode 1, 2 = continue / mode 2
    sweeps: int
    sup_delta: float
    delta_history: np.ndarray


MAX_SWEEPS = 10_000
DEFAULT_TOL = 1e-8
DEFAULT_HORIZON_UNDISCOUNTED = 200


def _runs(idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(values, lengths)`` of the runs of equal entries in the rows of the
    (N, S) table ``idx``, so that ``np.repeat(values, lengths)`` is
    ``idx.ravel()``.  A run breaks at each row start, so the runs of a row
    subset are the runs that start in its rows (:func:`_keep_rows`)."""
    flat = idx.ravel()
    new = np.empty(flat.size, dtype=bool)
    np.not_equal(flat[1:], flat[:-1], out=new[1:])
    new[:: idx.shape[1]] = True
    starts = np.flatnonzero(new)
    del new  # the (N, S) mask, freed before the run tables are built
    return flat[starts], np.diff(starts, append=flat.size)


def _keep_rows(actions, keep: np.ndarray) -> list:
    """The rows of ``actions`` (as :func:`_bellman_setup` lists them) where
    the boolean mask ``keep`` is true.  A run is kept with the row it starts
    in, ``(cumsum(lengths) - lengths) // S``: one gather over the runs, with
    no (N, S) index table rebuilt."""
    out = []
    for c, runs, w in actions:
        if runs is None:
            out.append((c[keep], None, None))
            continue
        values, lengths = runs
        kept = keep[(np.cumsum(lengths) - lengths) // w.shape[1]]
        out.append((c[keep], (values[kept], lengths[kept]), w[keep]))
    return out


def _bellman_setup(model, spec, grid, offset, interpolate):
    """The family's ``(disc, init, actions)``: ``actions`` lists ``(stage_cost,
    runs, w)`` per action of ``spec.updates``, stop / mode 1 first, where
    ``runs`` is :func:`_runs` of the (N, S) successor indices and ``w`` their
    (N, S) sigma-weights; a stop action has ``runs = w = None``."""
    costs = stage_cost_vectors(spec, model, grid.points)
    actions = []
    for c, update in zip(costs, spec.updates(model, grid.points)):
        if update is None:
            actions.append((c, None, None))
        else:
            idx, w = _successors(grid, *update, interpolate)
            actions.append((c, _runs(idx), w))
    return spec.rho, spec.initial_value(offset), actions


def _q_values(actions, disc: float, v: np.ndarray) -> list[np.ndarray]:
    """Each action's value ``c + disc * sum_s w[:, s] * v[idx[:, s]]``.

    A row of successor indices holds few distinct grid points, in runs, so
    ``v[idx]`` is gathered as ``np.repeat(v[values], lengths)``: the same
    operands, multiplied and summed in the same order, so the same bits as
    ``(w * v[idx]).sum(axis=1)``.  A stop action's value is its stage cost
    alone (adding ``disc * 0`` would turn a -0.0 cost into +0.0).
    """
    q = []
    for c, runs, w in actions:
        if runs is None:
            q.append(c)
            continue
        succ = np.repeat(v[runs[0]], runs[1]).reshape(w.shape)
        q.append(c + disc * np.multiply(succ, w, out=succ).sum(axis=1))
    return q


@np.errstate(over="ignore", invalid="ignore")
def value_iterate(
    model: DetectionModel,
    spec: CostSpec,
    grid: SimplexGrid,
    horizon: int | None = None,
    tol: float | None = None,
    interpolate: bool = False,
) -> GridSolution:
    """Fixed-point iteration of the Bellman recursion on the grid.

    Undiscounted runs (rho = 1, and the risk-sensitive family) default to a
    fixed horizon; discounted runs stop when the sup-norm change drops below
    ``tol`` (default 1e-8) or reaches 0, or after 10_000 sweeps.  The greedy
    policy picks the first action (stop / mode 1) on ties.  Raises
    ``ValueError`` before any sweep when ``horizon`` is not an integer >= 1
    or ``tol`` is NaN or negative, and ``FloatingPointError``, not a
    warning, when a stage cost, the offset or a value is not finite.

    Settled stop rows are left out of the sweeps: exact action elimination
    (MacQueen 1967).  It applies when the first action is a stop (no
    successors), ``disc >= 0`` and the first sweep lowers no value
    (``v_1 >= v_0``).  The values then never fall: the sigma-weights are
    >= 0 and rounding is monotone, so if ``v_k >= v_{k-1}``, each product
    ``w * v[idx]``, each partial sum of a row, each action's value and their
    minimum is at least the previous sweep's.  A row whose stop value is
    strictly below its continue value therefore stays so at every later
    sweep: it settles, keeps its stop cost bit for bit, changes by
    exactly 0 and ends with the stop action.  Settled rows leave the swept
    table once they are at least 1/8 of its rows.  Ties never settle, so
    the choice of ``np.minimum`` between -0.0 and +0.0 is never skipped.
    The values stay between ``v_0`` and the stop cost, so the products of a
    skipped row stay finite, and its continue value cannot turn NaN where
    the full sweep would raise.  When the check fails (a first sweep that
    lowers a value, or a family with no stop action), every sweep prices
    every row.
    """
    if horizon is not None and (
        isinstance(horizon, bool) or not isinstance(horizon, (int, np.integer)) or horizon < 1
    ):
        raise ValueError(f"horizon must be an integer >= 1, got {horizon!r}")
    if tol is not None and not tol >= 0.0:
        raise ValueError(f"tol must be a number >= 0, got {tol!r}")
    if grid.n_states != model.n_states:
        raise ValueError("grid dimension does not match the model")
    offset = spec.offset(model, grid.points)
    disc, v, actions = _bellman_setup(model, spec, grid, offset, interpolate)
    if not (np.isfinite(offset).all() and all(np.isfinite(c).all() for c, _, _ in actions)):
        raise FloatingPointError("a stage cost or the offset is not finite: the cost parameters overflow")
    if horizon is None and tol is None:
        if disc >= 1.0:
            horizon = DEFAULT_HORIZON_UNDISCOUNTED
        else:
            tol = DEFAULT_TOL
    # the rows still swept, and their tables; v keeps every row's value
    rows = np.arange(grid.n_points)
    v = np.array(v, dtype=float)
    settling = disc >= 0.0 and actions[0][1] is None
    deltas = []
    sweeps = 0
    while True:
        q = _q_values(actions, disc, v)
        v_new = reduce(np.minimum, q)
        v_old = v[rows]
        delta = float(np.max(np.abs(v_new - v_old), initial=0.0))
        if not math.isfinite(delta):
            raise FloatingPointError(f"a value is not finite after {sweeps + 1} sweeps")
        if sweeps == 0:
            settling = settling and bool((v_new >= v_old).all())
        v[rows] = v_new
        deltas.append(delta)
        sweeps += 1
        if settling:
            settled = q[0] < q[1]
            n_settled = np.count_nonzero(settled)
            if n_settled and 8 * n_settled >= rows.size:
                keep = ~settled
                rows = rows[keep]
                actions = _keep_rows(actions, keep)
        if horizon is not None and sweeps >= horizon:
            break
        # delta == 0.0 is a fixed point, which tol = 0 would otherwise never accept
        if tol is not None and (delta < tol or delta == 0.0 or sweeps >= MAX_SWEEPS):
            break
    q1, q2 = _q_values(actions, disc, v)
    original = v + offset
    if not np.isfinite(original).all():
        raise FloatingPointError("a value in original units is not finite")
    policy = np.full(grid.n_points, STOP)
    policy[rows] = np.where(q1 <= q2, STOP, CONTINUE)
    return GridSolution(v, original, policy, sweeps, deltas[-1], np.array(deltas))


# ---------------------------------------------------------------------------
# Region structure


@dataclass
class RegionReport:
    """Stop/continue sets; ``component_ids`` numbers each point's component,
    stop components first, each in order of its smallest index."""

    stop_indices: np.ndarray
    continue_indices: np.ndarray
    component_ids: np.ndarray
    n_stop_components: int
    n_continue_components: int


def _component_labels(policy: np.ndarray, grid: SimplexGrid) -> np.ndarray:
    """Each grid point's label: the smallest index of its component, the
    grid-connected points that share its action.

    Min-label propagation over the grid edges of equal action, with a
    shortcut ``label[label]`` after each pass.  A label is always a point of
    the same component and never grows, so at the fixed point every
    component holds one label, its smallest index.
    """
    src, dst = grid.edges
    same = policy[src] == policy[dst]
    src, dst = src[same], dst[same]
    label = np.arange(grid.n_points)
    while True:
        nxt = label.copy()
        np.minimum.at(nxt, src, label[dst])
        nxt = nxt[nxt]
        if np.array_equal(nxt, label):
            return label
        label = nxt


def extract_regions(sol: GridSolution, grid: SimplexGrid) -> RegionReport:
    """Stop/continue sets and the component id of every grid point."""
    stop = sol.policy == STOP
    label = _component_labels(sol.policy, grid)
    # stop labels sort below continue labels, each in order of smallest index
    keys, ids = np.unique(np.where(stop, label, label + grid.n_points), return_inverse=True)
    n_stop = int(np.count_nonzero(keys < grid.n_points))
    return RegionReport(
        stop_indices=np.flatnonzero(stop),
        continue_indices=np.flatnonzero(sol.policy == CONTINUE),
        component_ids=ids,
        n_stop_components=n_stop,
        n_continue_components=keys.size - n_stop,
    )


def _half_roundings(x: int) -> list[np.ndarray]:
    """Each parity code's 0/1 up-rounding vectors, one (K_code, x) array per
    code in ``range(2**x)``: for the odd coordinates given by the bits of
    ``code`` (an even number q of them), the C(q, q/2) ways to round up
    exactly half of them.  An odd-sized code gets none; no pair of grid
    points has one."""
    rows = []
    for code in range(2**x):
        odd = [a for a in range(x) if code >> a & 1]
        halves = combinations(odd, len(odd) // 2) if len(odd) % 2 == 0 else []
        rows.append(np.array([np.isin(np.arange(x), h) for h in halves], dtype=int).reshape(-1, x))
    return rows


CONVEXITY_CHUNK = 1 << 14  # pairs per block; bounds the check's memory


def convexity_check(region, grid: SimplexGrid) -> np.ndarray:
    """Pairs of region points whose midpoint projects outside the region.

    The midpoint of lattice points ``a`` and ``b`` is ``s / 2`` with
    ``s = a + b``.  Its nearest grid points are exactly ``floor(s / 2)`` with
    half of the q odd coordinates of ``s`` rounded up: the C(q, q/2) choices
    tie at squared distance q/4 and every other grid point is farther.  A
    pair counts as violating when none of these points is in the region.
    Returns the pairs ``(i, j)``, ``i < j``, as the rows of a (K, 2) index
    array in lexicographic order.
    """
    region = np.sort(np.asarray(region, dtype=int))
    r = region.size
    coords = grid.coords[region]
    flat = grid._flat(coords)
    parity = (coords & 1) @ (1 << np.arange(grid.n_states))
    # Rank offsets are linear in the coordinates, so a pair's candidates
    # depend only on code = its odd-coordinate bit mask and the half-sum
    # h = (flat(a) + flat(b)) >> 1: flat(floor(s / 2)) is h - (flat(odd) >> 1)
    # (s - odd is even), and the candidates sit there plus flat(up).
    # miss[code, h] says whether none of them is in the region.  inside is
    # padded by size on both sides, so every entry reads within it; entries
    # no pair has are unused.
    size = grid.rank.size
    inside = np.zeros(3 * size, dtype=bool)
    inside[size + flat] = True
    miss = np.zeros((2**grid.n_states, size), dtype=bool)
    for code, ups in enumerate(_half_roundings(grid.n_states)):
        shift = size - (grid._flat(code >> np.arange(grid.n_states) & 1) >> 1)
        for up in grid._flat(ups) + shift:
            miss[code] |= inside[up : up + size]
    miss = np.logical_not(miss, out=miss).ravel()
    bad_pairs = [np.empty((0, 2), dtype=int)]
    lo = 0
    while lo < r - 1:  # rows lo..hi-1 against the columns after lo
        hi = min(r - 1, lo + max(1, CONVEXITY_CHUNK // (r - lo)))
        cols = slice(lo + 1, r)
        code = parity[lo:hi, None] ^ parity[None, cols]
        key = code * size + ((flat[lo:hi, None] + flat[None, cols]) >> 1)
        i, j = np.nonzero(miss[key])
        upper = j >= i  # column lo + 1 + j comes after row lo + i
        bad_pairs.append(np.stack([region[lo + i[upper]], region[lo + 1 + j[upper]]], axis=1))
        lo = hi
    return np.concatenate(bad_pairs)


def _chain_order(grid: SimplexGrid, vertex: int) -> tuple[np.ndarray, np.ndarray]:
    """The maximal grid-aligned lines toward the (1-based) vertex,
    concatenated, and the offset in that order at which each line ends
    (exclusive).

    Points are grouped by the projective class of their remaining
    coordinates (divided by their gcd); the lines come in ascending order of
    that class, each ordered by increasing mass on the vertex and ending at
    the vertex itself.
    """
    axis = vertex - 1
    if not 0 <= axis < grid.n_states:
        raise ValueError("vertex out of range")
    rest = np.delete(grid.coords, axis, axis=1)
    g = np.gcd.reduce(rest, axis=1)
    vertex_idx = int(np.flatnonzero(g == 0)[0])
    pts = np.flatnonzero(g)
    keys = rest[pts] // g[pts, None]
    # class keys ascending (first column primary), then mass on the vertex
    perm = np.lexsort((grid.coords[pts, axis], *keys.T[::-1]))
    keys = keys[perm]
    ends = np.append(np.flatnonzero((keys[1:] != keys[:-1]).any(axis=1)) + 1, len(pts))
    # the vertex closes each chain: insert it before each chain's end
    order = np.insert(pts[perm], ends, vertex_idx)
    return order, ends + np.arange(1, ends.size + 1)


def line_crossing_check(sol: GridSolution, grid: SimplexGrid, vertex: int) -> int:
    """Maximum number of policy switches along grid-aligned lines to a vertex."""
    order, ends = _chain_order(grid, vertex)
    seq = sol.policy[order]
    chain_id = np.repeat(np.arange(ends.size), np.diff(ends, prepend=0))
    switch = (seq[1:] != seq[:-1]) & (chain_id[1:] == chain_id[:-1])
    return int(np.bincount(chain_id[1:][switch], minlength=ends.size).max())


@dataclass(frozen=True)
class GridPolicy:
    """Policy lookup by nearest grid point, usable as a simulation policy."""

    grid: SimplexGrid
    actions: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "_stops", np.asarray(self.actions) == STOP)

    def stop_mask(self, pts: np.ndarray) -> np.ndarray:
        """True where the nearest grid point's action is stop, one belief per
        row of ``pts``."""
        return self._stops[self.grid.nearest(pts)]


# ---------------------------------------------------------------------------
# Parametrized sweeps


@dataclass
class SweepResult:
    solutions: list
    premise_ordered: list  # consecutive transition-order verdicts
    pointwise_min_slack: list  # min over grid of V[k+1] - V[k]
    comparable: bool

    @property
    def monotone(self) -> bool:
        return all(s >= -1e-6 for s in self.pointwise_min_slack)


def value_monotonicity_sweep(
    models: list[DetectionModel],
    spec: CostSpec,
    grid: SimplexGrid,
    horizon: int | None = None,
    tol: float | None = None,
) -> SweepResult:
    """Solve per model (given in dominance-descending order) and verify that
    the optimal expected cost increases pointwise down the family."""
    sols = [value_iterate(m, spec, grid, horizon=horizon, tol=tol) for m in models]
    ordered = [
        matrix_order_geq(models[k].transition, models[k + 1].transition)
        for k in range(len(models) - 1)
    ]
    slacks = [
        float(np.min(sols[k + 1].values_original - sols[k].values_original))
        for k in range(len(models) - 1)
    ]
    return SweepResult(
        solutions=sols,
        premise_ordered=ordered,
        pointwise_min_slack=slacks,
        comparable=all(ordered),
    )


# ---------------------------------------------------------------------------
# Export


def solution_csv(sol: GridSolution, grid: SimplexGrid, regions: RegionReport | None = None) -> str:
    """One row per grid point: barycentric coordinates, value, policy, component id."""
    if regions is None:
        regions = extract_regions(sol, grid)
    head = ",".join(f"c{k}" for k in range(grid.n_states))
    row = ",".join(["%d"] * grid.n_states + ["%.17g", "%d", "%d"]) + "\n"
    cols = [*grid.coords.T.tolist(), sol.values.tolist(), sol.policy.tolist(),
            regions.component_ids.tolist()]
    body = (row * grid.n_points) % tuple(chain.from_iterable(zip(*cols)))
    return f"{head},value,policy,component\n{body}"

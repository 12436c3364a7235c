"""Trajectory simulation and Monte Carlo cost evaluation.

Timing convention: the chain starts at ``x_0`` drawn from the initial belief;
at each step ``k >= 1`` the chain moves, a symbol is observed, the belief is
updated, and the decision is applied to the updated belief.  ``tau`` is the
first step whose decision is stop, ``tau0`` the first step in state 1 (the
absorbing post-change state of a change model).  Costs therefore start
accruing at the first post-observation belief.

Draw convention: a draw from a pmf is the inverse CDF of one uniform
``u = rng.random()``: the first index whose CDF entry exceeds ``u``, that
is the number of entries at or below ``u``.  Every path draws this way, on
tables built by :func:`_cdf`, which pins the entries at a row's total to
1.0, so no draw picks a zero-probability column or one past the end.  The
batch path (:func:`simulate_batch`) compares integers instead: NumPy's
``random()`` returns ``k * 2**-53`` for an integer ``k``, so ``cdf <= u``
holds exactly when ``ceil(cdf * 2**53) <= k``, and both sides are integers
below ``2**53``.  A batch step takes one uniform per active row for the
state moves, then one per active row for the symbols, in ascending row
order: the order of one ``rng.random`` call of twice the active rows.  The
batch reads them ahead in blocks (:class:`_UniformReader`) and, when it
returns or raises, gives back those no step took, so the generator ends
where per-step draws leave it.

State offsets: a batch row carries its state ``j + 1`` as the row offset
``j << 54`` (offset 0 is state 1), which added to a uniform's ``k`` is the
query of its draw (:func:`_draw_positions`).  A draw is a position in the
flattened table, ``s * cols + j`` for column ``j`` of row ``s``, and arrays
built once per call map it to what the step needs: a chain-table position
to the next state's row offset, an observation-table position to the
likelihood row ``b[:, j]``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .dp import CONTINUE, STOP, stage_cost_vectors
from .filters import SUM_TOL, ZeroProbabilityError, _row_sum, as_belief, hmm_update
from .model import CostSpec, DetectionModel

DETECTION_MAX_STEPS = 10_000
# the additive-cost families driven by the plain Bayesian filter
BATCH_FAMILIES = ("quickest_predictive", "quickest_classical", "transient")
# a discounted batch runs until the largest stage cost, discounted, falls below this
TRUNCATION_TOL = 1e-8
# a batch settles its recorded steps once they hold this many rows
BLOCK_ROW_STEPS = 4096
# a batch reads its uniforms from the generator this many at a time, or a
# step's worth when a step needs more
UNIFORM_BLOCK = 4096


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
    rng: np.random.Generator,
    max_steps: int = DETECTION_MAX_STEPS,
) -> Trajectory:
    """Simulate one chain/observation/belief/decision path until ``policy.stop_mask`` stops."""
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
        pi, _ = hmm_update(pi, y, model)
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
# a guide splits each row's uniforms into 32 buckets per column, rounded up
# to a power of two, so that at most one bucket in 32 holds a key, unless
# the table's guide would exceed 2**16 entries.  On a 2-core x86 host the
# lookup beats one searchsorted from about 150-400 queries on fig3a's
# tables, and building both of their guides costs about 0.25 ms, which
# steps of 512 rows repay within about 15 steps
GUIDE_BUCKETS_PER_COLUMN = 32
GUIDE_MAX_ENTRIES = 1 << 16
GUIDE_MIN_QUERIES = 512


class _DrawTable:
    """A :func:`_cdf` table ``cdf`` (rows, cols) prepared for
    :func:`_draw_positions`.

    ``keys`` are its sorted ``int64`` search keys, flattened row by row:
    entry ``(s, j)`` is ``ceil(cdf[s, j] * 2**53)`` offset by ``s << 54``.
    ``guide``, built on first use, answers most queries without a search.
    Raises ``ValueError`` for a table of more than 511 rows: up to 511,
    every key and every query of :func:`_draw_positions` stays below
    ``2**63``.
    """

    def __init__(self, cdf: np.ndarray):
        self.rows = rows = cdf.shape[0]
        if rows > MAX_TABLE_ROWS:
            raise ValueError(f"a draw table has at most {MAX_TABLE_ROWS} rows, got {rows}")
        keys = np.ceil(cdf * _GRID).astype(np.int64)
        keys += np.arange(rows, dtype=np.int64)[:, None] << _ROW_SHIFT
        self.keys = keys.ravel()
        # 2**bits buckets per row, and rows * 2**(bits + 1) guide entries
        self.bits = min(
            (GUIDE_BUCKETS_PER_COLUMN * cdf.shape[1] - 1).bit_length(),
            (GUIDE_MAX_ENTRIES // rows).bit_length() - 2,
        )
        self.shift = 53 - self.bits

    @cached_property
    def guide(self) -> np.ndarray:
        """The guide table of Chen & Asau (1974), indexed by ``query >> shift``.

        Bucket ``b`` of row ``s`` holds the queries ``(s << 54) + k`` whose
        top bits ``k >> shift`` are ``b``; as ``(s << 54) >> shift`` is
        ``s << (bits + 1)``, the query's index is ``(s << (bits + 1)) + b``.
        The entry is the draw position that every query of the bucket gets,
        the count of keys at or below its smallest query, unless a key of
        the row lies inside the bucket, above that query: then the count
        varies within the bucket and the entry is -1.  So is every entry
        ``b >= 2**bits``, which no uniform below 1 reaches.
        """
        width = 1 << self.shift
        guide = np.full((self.rows, 2 << self.bits), -1, dtype=np.intp)
        first = np.arange(0, 1 << 53, width, dtype=np.int64)
        first = first + (np.arange(self.rows, dtype=np.int64)[:, None] << _ROW_SHIFT)
        guide[:, : 1 << self.bits] = self.keys.searchsorted(first, side="right")
        guide = guide.ravel()
        inside = self.keys[(self.keys & (width - 1)) != 0]
        guide[inside >> self.shift] = -1
        return guide


def _uniform_keys(rng: np.random.Generator, size: int) -> np.ndarray:
    """``size`` uniforms ``u = rng.random(size)`` as the integers
    ``k = u * 2**53``: scaled in place, then cast over their own buffer."""
    u = rng.random(size)
    u *= _GRID
    keys = u.view(np.int64)
    np.copyto(keys, u, casting="unsafe")
    return keys


_NO_KEYS = np.empty(0, dtype=np.int64)


class _UniformReader:
    """The uniform keys (:func:`_uniform_keys`) of a batch's steps, read
    from ``rng`` ahead of the steps in blocks of at least ``UNIFORM_BLOCK``.

    :meth:`take` hands them out in the generator's order, so a step gets
    the keys that an ``rng.random`` call of its own would give.
    :meth:`give_back` returns the keys no step took: it sets the generator
    back to its state before the last block, then redraws the part of that
    block the steps took.
    """

    def __init__(self, rng: np.random.Generator):
        self.rng = rng
        self.keys, self.pos = _NO_KEYS, 0
        self.start, self.block = None, 0  # the state before the last block, and its size

    def take(self, size: int, steps_left: int) -> np.ndarray:
        """The next ``size`` keys, for a step of ``size`` uniforms with
        ``steps_left - 1`` steps after it, none of them wider: a block
        reads no more than these steps can take."""
        end = self.pos + size
        if end > self.keys.size:
            left = self.keys[self.pos :]
            start = self.rng.bit_generator.state
            block = min(max(UNIFORM_BLOCK, size - left.size), size * steps_left - left.size)
            block = _uniform_keys(self.rng, block)
            self.keys = np.concatenate([left, block]) if left.size else block
            self.start, self.block, self.pos, end = start, block.size, 0, size
        keys = self.keys[self.pos : end]
        if end == self.keys.size:  # so that the step's del frees a spent block
            self.keys, end = _NO_KEYS, 0
        self.pos = end
        return keys

    def give_back(self) -> None:
        unused = self.keys.size - self.pos
        if unused:
            self.rng.bit_generator.state = self.start
            self.rng.random(self.block - unused)


def _draw_positions(table: _DrawTable, query: np.ndarray) -> np.ndarray:
    """Inverse-CDF draws: the integer query ``(s << 54) + k`` draws from row
    ``s`` of ``table`` with the uniform ``u = k * 2**-53``, giving the
    draw's position ``s * cols + j`` in the flattened table, ``j`` being the
    number of entries of the row at or below ``u``.

    A row's entry is at or below ``u`` exactly when its key is at or below
    the query (:func:`_uniform_keys` gives ``k`` for ``rng.random()``'s
    uniforms, which lie on the ``2**-53`` grid).  Every key of an earlier
    row lies below the query and every key of a later row above it, so one
    ``searchsorted`` over the flattened table counts ``s * cols`` entries
    plus the draw.  From ``GUIDE_MIN_QUERIES`` queries on, the guide gives
    the count, and the search runs only on the queries whose bucket holds a
    key.
    """
    if query.size < GUIDE_MIN_QUERIES:
        return table.keys.searchsorted(query, side="right")
    pos = table.guide.take(query >> table.shift)
    miss = np.flatnonzero(pos < 0)
    pos[miss] = table.keys.searchsorted(query[miss], side="right")
    return pos


def _row_offsets(rows: int, cols: int) -> np.ndarray:
    """By position in a flattened (rows, cols) draw table, the row offset
    ``j << 54`` of the drawn column ``j``: the chain table's next state."""
    return np.tile(np.arange(cols, dtype=np.int64) << _ROW_SHIFT, rows)


def _stage_cost_bound(spec: CostSpec, model: DetectionModel) -> float:
    eye = np.eye(model.n_states)
    c1, c2 = stage_cost_vectors(spec, model, eye)
    bound = float(np.max(np.abs(np.concatenate([c1, c2]))))
    return bound + spec.alpha + 1e-12


def _price_steps(spec, model, original, steps, acc, first, enters, out):
    """Settle recorded batch steps in ``out``, a :class:`BatchResult`, in
    order, and return the running costs ``acc`` after them.

    A step is ``(k, disc, beliefs, rows, moves, stops, keep)``: its number
    and discount, the beliefs of the rows it ran (those of ``acc``), their
    trajectories and the chain-table positions of their moves, and, when
    some policy stopped, the policies ``t`` and positions ``j`` of the stops
    and the positions still running.  First the moves that ``enters`` marks,
    those into state 1 from another state, lower their trajectories' first
    step in state 1 in ``first``: a trajectory's first visit is its least
    such step.  A block of one step, as every wide step is, reads its own
    arrays without a copy.  The steps of more than one row are priced by one
    :func:`~phasestop.dp.stage_cost_vectors` call on their stacked beliefs;
    a one-row step is priced alone, as NumPy's one-row matrix-vector product
    rounds differently from the same row inside a taller one.  Then, step by
    step, a stop at step ``k`` gets ``tau = k``, ``tau0`` its first step in
    state 1 if that is at most ``k`` (else -1), and the cost ``acc + disc *
    stop cost``, and each row still running adds ``disc * continue cost``
    to ``acc``.
    """
    if not steps:
        return acc
    ks, _, step_beliefs, step_rows, moves, _, _ = zip(*steps)
    if len(steps) == 1:
        entry, ks, moved = enters.take(moves[0]), ks[0], step_rows[0]
    else:
        entry = enters.take(np.concatenate(moves))
        ks = np.repeat(ks, [m.size for m in moves]).compress(entry)
        moved = np.concatenate(step_rows)
    np.minimum.at(first, moved.compress(entry), ks)
    wide = [b for b in step_beliefs if b.shape[0] > 1]
    if wide:
        stacked = wide[0] if len(wide) == 1 else np.concatenate(wide)
        c_stop, c_cont = stage_cost_vectors(spec, model, stacked, original=original)
    start = 0
    for k, disc, beliefs, rows, _, stops, keep in steps:
        if beliefs.shape[0] == 1:
            c1, c2 = stage_cost_vectors(spec, model, beliefs, original=original)
        else:
            end = start + beliefs.shape[0]
            c1, c2, start = c_stop[start:end], c_cont[start:end], end
        if stops is not None:
            t, j = stops
            done = rows[j]
            t0 = first[done]
            out.tau[t, done], out.tau0[t, done] = k, np.where(t0 <= k, t0, -1)
            out.costs[t, done] = acc[j] + disc * c1[j]
            acc, c2 = acc[keep], c2[keep]
        acc += disc * c2
    return acc


def _check_priors(priors: np.ndarray, n_states: int) -> None:
    """Raise ``ValueError`` unless ``priors`` is (n, X) and each row is a
    belief: entries at least ``-SUM_TOL``, summing to 1 within
    ``SUM_TOL * X``.  A NaN row passes; its filter step raises."""
    if priors.ndim != 2 or priors.shape[1] != n_states:
        raise ValueError(
            f"priors must have shape (n, {n_states}), one column per state, got {priors.shape}"
        )
    negative = (priors < -SUM_TOL).any(axis=1)
    off_sum = np.abs(priors.sum(axis=1) - 1.0) > SUM_TOL * n_states
    if negative.any() or off_sum.any():
        i = int(np.argmax(negative | off_sum))
        rule = "has an entry below 0" if negative[i] else "does not sum to 1"
        raise ValueError(f"prior row {i} {rule}: {priors[i].tolist()}")


def _stop_test(policies: list, n_states: int):
    """The stop test of a list of T policies, built once per batch: a
    function of the beliefs ``pts`` giving their (T, rows) stop mask (a
    lone policy of no stack may give its (rows,) mask, which broadcasts).

    The policies of a class with a ``stacked_mask(policies, n_states)``
    method (:class:`~phasestop.policy.LinearThresholdPolicy`) share one
    test; every other policy is a group of one through its ``stop_mask``.
    """
    stacks, groups = {}, []
    for t, pol in enumerate(policies):
        if hasattr(type(pol), "stacked_mask"):
            stacks.setdefault(type(pol), []).append(t)
        else:
            groups.append(([t], pol.stop_mask))
    for cls, index in stacks.items():
        groups.append((index, cls.stacked_mask([policies[t] for t in index], n_states)))
    if len(groups) == 1:
        return groups[0][1]

    def test(pts):
        stop = np.empty((len(policies), pts.shape[0]), dtype=bool)
        for index, mask in groups:
            stop[index] = mask(pts)
        return stop

    return test


@np.errstate(over="ignore", invalid="ignore")
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
    order.  Raises ``ValueError``, before the first draw, when ``priors`` is
    not (n, X) or a row is not a belief (an entry below ``-SUM_TOL``, or a
    sum off 1 by more than ``SUM_TOL * X``), and when a linear policy's
    theta does not have X - 1 entries;
    :class:`~phasestop.filters.ZeroProbabilityError` when a row's filter
    normalisation is zero or NaN (a NaN prior, or a belief that underflowed
    away from the true state); and ``FloatingPointError``, not a warning,
    when the stage-cost bound or a returned cost is not finite (cost
    parameters that overflow).

    ``policy`` may also be a list of T policies, giving (T, n) arrays.  The
    policies share one sample path per row (chain, symbols, beliefs), as only
    their stop steps differ: each step draws and filters once the rows some
    policy still runs, and every policy decides on all of them, the linear
    policies in one stacked test (:func:`_stop_test`).  A policy
    whose stop region lies inside every other's thus matches its solo run
    bit for bit, generator end state included, and nested stop regions give
    stop steps ordered row by row.  A step only draws, filters and decides,
    its uniforms read ahead in blocks (:class:`_UniformReader`).  It
    records its beliefs, rows, the chain-table positions of their moves and
    its stops, and :func:`_price_steps` settles the recorded steps once
    they hold ``BLOCK_ROW_STEPS`` rows, and at the end: the first visits to
    state 1 with one mask per block, then the stop steps, change times and
    costs, the costs with the operands and order of a per-step charge.
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
    _check_priors(priors, model.n_states)
    stop_test = _stop_test(policies, model.n_states)
    n = priors.shape[0]
    b = model.discrete_obs().matrix
    p = model.transition
    rho = spec.rho
    if max_steps is None:
        if rho >= 1.0:
            max_steps = 500
        elif rho == 0.0:  # every step after the first is discounted to 0
            max_steps = 1
        else:
            bound = _stage_cost_bound(spec, model)
            if not np.isfinite(bound):
                raise FloatingPointError("the stage-cost bound is not finite: the cost parameters overflow")
            max_steps = int(np.ceil(np.log(TRUNCATION_TOL / max(bound, 1e-12)) / np.log(rho)))
            max_steps = max(1, min(max_steps, DETECTION_MAX_STEPS))
    table_p, table_b = _DrawTable(_cdf(p)), _DrawTable(_cdf(b))
    # by draw position: the next state's row offset, whether the move enters
    # state 1 from another state, and symbol y's likelihood per state. Only
    # an entry can be a first visit; a stay in state 1 (position 0), the
    # common move late in a batch, is left out
    next_off, lik = _row_offsets(*p.shape), np.tile(b.T, (b.shape[0], 1))
    enters = next_off == 0
    enters[0] = False

    shape = (len(policies), n)
    out = BatchResult(
        costs=np.zeros(shape),
        tau=np.full(shape, max_steps, dtype=int),
        tau0=np.full(shape, -1),
        censored=np.zeros(shape, dtype=bool),
    )

    # the rows some policy still runs, ascending, with their state's row
    # offset, belief, running cost (the same for every policy still running
    # the row, and behind the loop by the steps not yet settled) and which
    # policies still run them; and by trajectory, the first step in state 1
    # (max_steps + 1 before it), up to the last settled step
    rows = np.arange(n)
    # the prior table has a row per trajectory: count its entries at or below u
    off = (_cdf(priors) <= rng.random(n)[:, None]).sum(axis=1) << _ROW_SHIFT
    beliefs, first, acc = priors.copy(), np.where(off == 0, 0, max_steps + 1), np.zeros(n)
    alive = np.ones(shape, dtype=bool)
    disc = 1.0
    steps, recorded = [], 0  # the steps not yet settled, and their rows
    uniforms = _UniformReader(rng)
    try:
        for k in range(1, max_steps + 1):
            if rows.size == 0:
                break
            # the state moves' queries, then the symbols': uniform keys plus row offsets
            keys = uniforms.take(2 * rows.size, max_steps - k + 1)
            move, symbol = keys[: rows.size], keys[rows.size :]
            move += off
            moves = _draw_positions(table_p, move)
            off = next_off[moves]
            symbol += off
            y_pos = _draw_positions(table_b, symbol)
            del keys, move, symbol  # before the Bayes step allocates: no higher peak memory
            beliefs = beliefs @ p  # the prediction, dropping the old beliefs before the gather
            beliefs *= lik.take(y_pos, axis=0)  # filters.bayes_step, in place
            sigma = _row_sum(beliefs)
            # checked priors keep every sigma finite: a zero or NaN one makes its least fail
            if not sigma.min() > 0.0:
                j = int(np.argmax(~(sigma > 0.0)))
                raise ZeroProbabilityError(
                    f"simulate_batch step {k}: row {int(rows[j])} has filter normalisation "
                    f"{sigma[j]} after observation {int(y_pos[j]) % b.shape[1]}"
                )
            beliefs /= sigma[:, None]
            del y_pos, sigma  # before the policies allocate
            stop = alive & stop_test(beliefs)
            hit = stop.ravel().nonzero()[0]  # the stops' flat positions t * rows + j
            stops = keep = None
            if hit.size:
                stops = np.divmod(hit, rows.size)
                alive ^= stop  # stop lies inside alive
                keep = np.flatnonzero(alive.any(axis=0))
            steps.append((k, disc, beliefs, rows, moves, stops, keep))
            recorded += beliefs.shape[0]
            if recorded >= BLOCK_ROW_STEPS:  # before the compacted rows allocate
                acc = _price_steps(spec, model, not transformed, steps, acc, first, enters, out)
                steps, recorded = [], 0
            if keep is not None:
                rows, off, alive = rows[keep], off[keep], alive.take(keep, axis=1)
                beliefs = beliefs.take(keep, axis=0)
            disc *= rho
    finally:
        uniforms.give_back()
    acc = _price_steps(spec, model, not transformed, steps, acc, first, enters, out)
    t, j = np.nonzero(alive)
    done = rows[j]
    t0 = first[done]
    out.costs[t, done], out.tau0[t, done] = acc[j], np.where(t0 <= max_steps, t0, -1)
    out.censored[t, done] = True
    if not np.isfinite(out.costs).all():
        raise FloatingPointError("a simulated cost is not finite: the cost parameters overflow")
    if not stacked:
        return BatchResult(out.costs[0], out.tau[0], out.tau0[0], out.censored[0])
    return out


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
        # step 0 has no observation and no action
        obs = str(int(traj.observations[k - 1])) if k else ""
        act = str(int(traj.actions[k - 1])) if k else ""
        belief = ",".join(f"{v:.17g}" for v in traj.beliefs[k])
        lines.append(f"{k},{int(traj.states[k])},{obs},{belief},{act}")
    return "\n".join(lines) + "\n"

"""Stochastic-order predicates, model assumption checkers, and random generators.

All predicates use the small absolute slack ``ORDER_TOL``: inputs are O(1)
probabilities and the comparisons involve products of two entries.  Each
cost family states its own assumptions (``assumptions`` of the family's
:class:`~phasestop.model.CostSpec`) from the check helpers here;
:func:`check_assumptions` collects them into a report.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .model import CostSpec, DetectionModel

ORDER_TOL = 1e-12
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


@lru_cache(maxsize=64)
def _pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The index pairs ``i < j`` below ``n``, ``np.triu_indices(n, k=1)``,
    built once per size and read-only."""
    pairs = np.triu_indices(n, k=1)
    for idx in pairs:
        idx.flags.writeable = False
    return pairs


def _minors(m: np.ndarray) -> np.ndarray:
    """The 2x2 minors ``m[i,j] m[k,l] - m[i,l] m[k,j]`` over all rows
    ``i < k`` and columns ``j < l`` of each matrix of the stack ``m``
    (..., rows, cols), flattened to shape (..., minors)."""
    i, k = _pairs(m.shape[-2])
    j, l = _pairs(m.shape[-1])
    a, b = m[..., i, :], m[..., k, :]
    minors = a[..., j] * b[..., l] - a[..., l] * b[..., j]
    return minors.reshape(*m.shape[:-2], i.size * j.size)


def _min_minor(mat) -> float:
    """Smallest of the matrix's :func:`_minors` (0 for a matrix with no 2x2
    minor)."""
    minors = _minors(np.asarray(mat, dtype=float))
    return float(minors.min()) if minors.size else 0.0


def is_tp2(mat) -> bool:
    """True when every 2x2 minor (adjacent or not) of the matrix is >= -ORDER_TOL."""
    m = np.asarray(mat, dtype=float)
    if np.any(m < -ORDER_TOL):
        raise ValueError("matrix must be non-negative")
    return _min_minor(m) >= -ORDER_TOL


def matrix_order_geq(p1, p2) -> bool:
    """Transition-matrix dominance: P1 >= P2 when
    ``P1[i,j] * P2[m,l] <= P2[i,j] * P1[m,l]`` for every l > j and all i, m.
    """
    a = np.asarray(p1, dtype=float)
    b = np.asarray(p2, dtype=float)
    if a.shape != b.shape:
        raise ValueError("matrices must have the same shape")
    n = a.shape[1]
    for j in range(n - 1):
        for l in range(j + 1, n):
            # outer over (i, m)
            if np.any(np.outer(a[:, j], b[:, l]) > np.outer(b[:, j], a[:, l]) + ORDER_TOL):
                return False
    return True


# ---------------------------------------------------------------------------
# Assumption checking


@dataclass(frozen=True)
class AssumptionCheck:
    name: str
    passed: bool
    slack: float
    detail: str = ""


@dataclass(frozen=True)
class AssumptionReport:
    checks: tuple[AssumptionCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failed_names(self) -> list[str]:
        return [c.name for c in self.checks if not c.passed]

    def __getitem__(self, name: str) -> AssumptionCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def lines(self) -> list[str]:
        return [
            f"{c.name:<12} {'pass' if c.passed else 'FAIL':<4} slack={c.slack:+.6g}"
            + (f"  ({c.detail})" if c.detail else "")
            for c in self.checks
        ]


def _ineq(name: str, slack: float, detail: str = "", tol: float = 1e-12) -> AssumptionCheck:
    """A check of the form ``expression >= 0`` with recorded slack."""
    return AssumptionCheck(name, slack >= -tol, float(slack), detail)


def _tp2_check(name: str, mat: np.ndarray, detail: str) -> AssumptionCheck:
    return _ineq(name, _min_minor(mat), detail)


def check_assumptions(model: DetectionModel, spec: CostSpec) -> AssumptionReport:
    """Numerically evaluate the structural assumptions of the cost family
    (``spec.assumptions``).

    Every inequality is reported with its slack (negative slack = violated).
    """
    return AssumptionReport(tuple(spec.assumptions(model)))


# ---------------------------------------------------------------------------
# Random generators for property tests


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

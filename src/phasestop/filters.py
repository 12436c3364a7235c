"""Belief-state recursions: the one Bayes step and the myopic social action rule.

:func:`bayes_step` corrects a prediction by a likelihood for the belief
recursions in the package: the HMM filter :func:`hmm_update` (which raises
:class:`ZeroProbabilityError` on a zero or NaN normalisation), every cost
family's ``updates`` and the grid solver.  The batch simulator makes the
same correction in place on its fresh predictions, with :func:`_row_sum`
for the normalisations, and raises on a zero or NaN one before it divides.
:func:`social_scores` and :func:`social_likelihoods`, the myopic social
action rule on a stack of beliefs, give ``SocialStopping.updates``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .model import DetectionModel

SUM_TOL = 1e-12


def as_belief(probs) -> np.ndarray:
    """Validate and return a belief vector as a float array.

    Raises ValueError if entries are outside [0, 1] or do not sum to one
    within ``SUM_TOL`` per entry; a NaN entry makes the sum NaN, which fails.
    """
    pi = np.asarray(probs, dtype=float)
    if pi.ndim != 1 or pi.size < 2:
        raise ValueError("belief must be a vector with at least two entries")
    if np.any(pi < -SUM_TOL) or np.any(pi > 1.0 + SUM_TOL):
        raise ValueError(f"belief entries outside [0, 1]: {pi}")
    s = float(pi.sum())
    if not abs(s - 1.0) <= SUM_TOL * pi.size:
        raise ValueError(f"belief entries sum to {s}, expected 1")
    return pi


class ZeroProbabilityError(ValueError):
    """Raised when an update conditions on a probability-zero event."""


# on a 2-core x86 host, at X = 3 and 4, adding column by column overtakes
# ``.sum(axis=-1)`` between about 60 and 100 rows
SHORT_SUM_MIN_ROWS = 64


def _row_sum(a: np.ndarray):
    """``a.sum(axis=-1)``, bit for bit, for a float array.

    NumPy adds fewer than 8 entries left to right, from 0.0 (more go in
    pairwise blocks); so does this, one column at a time, without the cost
    of a reduction over a short last axis.  That pays from about
    ``SHORT_SUM_MIN_ROWS`` rows on (a 1-D belief is one row): below, and at
    other widths, this calls ``.sum``.
    """
    n = a.shape[-1]
    if not 2 <= n < 8 or a.size < SHORT_SUM_MIN_ROWS * n:
        return a.sum(axis=-1)
    total = a[..., 0] + 0.0  # as NumPy's start from 0.0: a -0.0 column gives 0.0
    for j in range(1, n):
        total += a[..., j]
    return total


def bayes_step(pred, lik):
    """Bayes correction of the prediction ``pred`` by the likelihood ``lik``.

    Returns ``(pred * lik / sigma, sigma)``, ``sigma`` being the sum over the
    last axis, for one belief or a stack of rows (``lik`` broadcasts against
    ``pred``).  A row whose ``sigma`` is zero or NaN is returned undivided;
    what that means is up to the caller.
    """
    unnorm = pred * lik
    sigma = _row_sum(unnorm)
    unnorm /= np.where(sigma > 0.0, sigma, 1.0)[..., None]
    return unnorm, sigma


def hmm_update(pi, y: int, model: DetectionModel) -> tuple[np.ndarray, float]:
    """One Bayesian filter step: predict through the chain, correct by symbol
    ``y`` of the model's observation matrix; ``(belief, norm)``."""
    p = as_belief(pi)
    nxt, sigma = bayes_step(model.transition.T @ p, model.discrete_obs().matrix[:, y])
    if not sigma > 0.0:
        raise ZeroProbabilityError(f"observation {y} impossible from belief {p}")
    return nxt, float(sigma)


# ---------------------------------------------------------------------------
# Social learning


def social_scores(costs: np.ndarray, b: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Myopic local-action scores ``pi' (B_y o c)``, shape (Y, N, A): the
    expected cost of local action ``a + 1`` after privately updating belief
    row ``n`` by symbol ``y``, times that update's normalisation; one belief
    alone gets the bits of its row in a stack."""
    # NumPy sends a one-row product to BLAS gemv, which can round differently
    # from the rows of a taller (gemm) product; two rows keep one belief on gemm
    rows = np.vstack([pts, pts]) if pts.shape[0] == 1 else pts
    return np.stack([rows @ (b[:, y : y + 1] * costs) for y in range(b.shape[1])])[:, : len(pts)]


def social_likelihoods(costs: np.ndarray, b: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Per-state likelihood of each broadcast local action, shape (A, N, X):
    the sum of the columns of ``b`` whose symbol makes that action myopically
    optimal at the row's belief.  Ties go to the smaller action index."""
    chosen = social_scores(costs, b, pts).argmin(axis=2)  # (Y, N)
    lik = np.zeros((costs.shape[1],) + pts.shape)
    rows = np.arange(pts.shape[0])
    for y in range(b.shape[1]):
        lik[chosen[y], rows] += b[:, y]
    return lik

"""Belief-state recursions: HMM filter, social-learning filter, risk-sensitive filter.

All updates are pure functions of their inputs.  A zero normalization means
the conditioning event is impossible from the given belief; that is surfaced
as :class:`ZeroProbabilityError` rather than silently renormalized.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import DetectionModel, DiscreteObs, RiskSensitive, as_belief


class ZeroProbabilityError(ValueError):
    """Raised when an update conditions on a probability-zero event."""


@dataclass(frozen=True)
class FilterOutput:
    next_belief: np.ndarray
    norm: float


def hmm_update(pi, y: int, model: DetectionModel) -> FilterOutput:
    """One Bayesian filter step: predict through the chain, correct by symbol
    ``y`` of the model's observation matrix."""
    p = as_belief(pi)
    b = model.discrete_obs().matrix
    unnorm = b[:, y] * (model.transition.T @ p)
    sigma = float(unnorm.sum())
    if sigma <= 0.0:
        raise ZeroProbabilityError(f"observation {y} impossible from belief {p}")
    return FilterOutput(unnorm / sigma, sigma)


def risk_update(pi, y: int, model: DetectionModel, spec: RiskSensitive) -> FilterOutput:
    """Risk-sensitive filter step: the prior is scaled by the exponential
    delay weights before the usual predict/correct."""
    p = as_belief(pi)
    b = model.discrete_obs().matrix
    _, r2 = spec.scalings(model.transition)
    unnorm = b[:, y] * (model.transition.T @ (r2 * p))
    sigma = float(unnorm.sum())
    if sigma <= 0.0:
        raise ZeroProbabilityError(f"observation {y} impossible from belief {p}")
    return FilterOutput(unnorm / sigma, sigma)


# ---------------------------------------------------------------------------
# Social learning


@dataclass(frozen=True)
class SocialContext:
    """Local-decision environment for social learning with a static state.

    ``local_costs[i, a-1]`` is the cost of local action ``a`` (1-based) in
    state ``i+1``; ``obs`` is the private observation matrix.  For the 2-state
    2-action stopping setup the cascade/learning interval boundaries
    ``eta1 >= eta2 >= eta3`` (values of the second belief component) are
    computed on construction.
    """

    local_costs: np.ndarray
    obs: DiscreteObs
    eta1: float = field(init=False)
    eta2: float = field(init=False)
    eta3: float = field(init=False)

    def __post_init__(self):
        c = np.asarray(self.local_costs, dtype=float)
        object.__setattr__(self, "local_costs", c)
        if c.shape[0] != self.obs.matrix.shape[0]:
            raise ValueError("cost matrix and observation matrix disagree on state count")
        if c.shape == (2, 2):
            try:
                e1, e2, e3 = social_fixed_points_from(c, self.obs.matrix)
            except ValueError:
                e1 = e2 = e3 = float("nan")
        else:
            e1 = e2 = e3 = float("nan")
        object.__setattr__(self, "eta1", e1)
        object.__setattr__(self, "eta2", e2)
        object.__setattr__(self, "eta3", e3)

    @property
    def n_actions(self) -> int:
        return self.local_costs.shape[1]

    def interval_of(self, pi2: float, tol: float = 0.0) -> int:
        """Index l in 1..4 of the interval containing the belief value ``pi2``."""
        if pi2 > self.eta1 + tol:
            return 1
        if pi2 > self.eta2 + tol:
            return 2
        if pi2 > self.eta3 + tol:
            return 3
        return 4


def social_fixed_points_from(costs: np.ndarray, b: np.ndarray) -> tuple[float, float, float]:
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


def social_local_action(pi, y: int, ctx: SocialContext) -> int:
    """Myopic local action (1-based) after privately updating ``pi`` by ``y``.

    Ties break toward the smaller action index.
    """
    p = as_belief(pi)
    eta = ctx.obs.matrix[:, y] * p
    total = float(eta.sum())
    if total <= 0.0:
        raise ZeroProbabilityError(f"observation {y} impossible from belief {p}")
    scores = ctx.local_costs.T @ eta
    return int(np.argmin(scores)) + 1


def social_action_likelihood(pi, a: int, ctx: SocialContext) -> np.ndarray:
    """Per-state probability that an agent holding public belief ``pi``
    broadcasts action ``a``: sums observation rows over the symbols mapped
    to ``a`` by the myopic rule."""
    p = as_belief(pi)
    b = ctx.obs.matrix
    out = np.zeros(p.size)
    for y in range(b.shape[1]):
        if social_local_action(p, y, ctx) == a:
            out += b[:, y]
    return out


def social_update(pi, a: int, ctx: SocialContext) -> FilterOutput:
    """Public-belief update after observing broadcast action ``a``."""
    p = as_belief(pi)
    lik = social_action_likelihood(p, a, ctx)
    unnorm = lik * p
    sigma = float(unnorm.sum())
    if sigma <= 0.0:
        raise ZeroProbabilityError(f"action {a} impossible from public belief {p}")
    return FilterOutput(unnorm / sigma, sigma)

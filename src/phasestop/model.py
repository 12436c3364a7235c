"""Domain types for sequential detection on the belief simplex.

Conventions used throughout the package:

* A belief is a length-``X`` numpy vector of non-negative probabilities
  summing to one.  State 1 (array index 0) is the absorbing post-change
  state in the detection families.
* Observation symbols are plain array indices ``0 .. Y-1``.
* Global decisions are ``1`` (stop) and ``2`` (continue); local actions in
  the social-learning families are likewise 1-based.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

SUM_TOL = 1e-12


def as_belief(probs, tol: float = SUM_TOL) -> np.ndarray:
    """Validate and return a belief vector as a float array.

    Raises ValueError if entries are outside [0, 1] or do not sum to one
    within ``tol``.
    """
    pi = np.asarray(probs, dtype=float)
    if pi.ndim != 1 or pi.size < 2:
        raise ValueError("belief must be a vector with at least two entries")
    if np.any(pi < -tol) or np.any(pi > 1.0 + tol):
        raise ValueError(f"belief entries outside [0, 1]: {pi}")
    s = float(pi.sum())
    if abs(s - 1.0) > max(tol, 1e-12 * pi.size):
        raise ValueError(f"belief entries sum to {s}, expected 1")
    return pi


def dirichlet_uniform_sample(n_states: int, rng: np.random.Generator) -> np.ndarray:
    """Draw a belief uniformly from the simplex via normalized unit exponentials."""
    if n_states < 2:
        raise ValueError("need at least two states")
    x = rng.exponential(1.0, size=n_states)
    return x / x.sum()


# ---------------------------------------------------------------------------
# Observation models


@dataclass(frozen=True)
class DiscreteObs:
    """Conditional observation probabilities, one row per state."""

    matrix: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.matrix, dtype=float)
        object.__setattr__(self, "matrix", b)
        if b.ndim != 2:
            raise ValueError("observation matrix must be 2-D")
        if np.any(b < -SUM_TOL):
            raise ValueError("observation probabilities must be non-negative")
        if np.any(np.abs(b.sum(axis=1) - 1.0) > 1e-9):
            raise ValueError("observation matrix rows must sum to 1")


@dataclass(frozen=True)
class GaussianObs:
    """One Gaussian observation density per state."""

    means: np.ndarray
    variances: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.means, dtype=float)
        v = np.asarray(self.variances, dtype=float)
        object.__setattr__(self, "means", m)
        object.__setattr__(self, "variances", v)
        if m.shape != v.shape or m.ndim != 1:
            raise ValueError("means and variances must be vectors of equal length")
        if np.any(v <= 0):
            raise ValueError("variances must be strictly positive")


DEFAULT_BINS = 101


def discretize_gaussian(obs: GaussianObs, bins: int = DEFAULT_BINS) -> DiscreteObs:
    """Discretize per-state Gaussians onto a shared uniform bin grid.

    The grid spans ``[min mean - 6*sigma_max, max mean + 6*sigma_max]``; each
    row is the density at the bin centers times the bin width, renormalized
    to sum to one.
    """
    if bins < 3:
        raise ValueError("need at least 3 bins")
    sig = np.sqrt(obs.variances)
    lo = obs.means.min() - 6.0 * sig.max()
    hi = obs.means.max() + 6.0 * sig.max()
    edges = np.linspace(lo, hi, bins + 1)
    centers = 0.5 * (edges[:-1] + edges[1:])
    width = edges[1] - edges[0]
    z = (centers[None, :] - obs.means[:, None]) / sig[:, None]
    rows = np.exp(-0.5 * z**2) / (sig[:, None] * np.sqrt(2.0 * np.pi)) * width
    rows /= rows.sum(axis=1, keepdims=True)
    return DiscreteObs(rows)


# ---------------------------------------------------------------------------
# Detection model


@dataclass(frozen=True)
class DetectionModel:
    """Hidden Markov model: transition matrix, initial belief, observation
    matrix (a Gaussian model is discretized first, by :func:`discretize_gaussian`)."""

    transition: np.ndarray
    initial: np.ndarray
    obs: DiscreteObs

    def __post_init__(self):
        if not isinstance(self.obs, DiscreteObs):
            raise TypeError(f"obs must be a DiscreteObs, not {type(self.obs).__name__}")
        p = np.asarray(self.transition, dtype=float)
        pi0 = np.asarray(self.initial, dtype=float)
        object.__setattr__(self, "transition", p)
        object.__setattr__(self, "initial", pi0)
        if p.ndim != 2 or p.shape[0] != p.shape[1]:
            raise ValueError("transition matrix must be square")
        if pi0.shape != (p.shape[0],):
            raise ValueError("initial belief length must match transition matrix")
        if self.obs.matrix.shape[0] != p.shape[0]:
            raise ValueError("observation matrix row count does not match state count")

    @property
    def n_states(self) -> int:
        return self.transition.shape[0]

    def discrete_obs(self) -> DiscreteObs:
        """The observation matrix every layer filters through."""
        return self.obs


def spectral_radius(mat: np.ndarray, tol: float = 1e-10, max_iter: int = 10_000) -> float:
    """Spectral radius of a non-negative matrix by power iteration."""
    m = np.asarray(mat, dtype=float)
    if m.size == 0:
        return 0.0
    v = np.ones(m.shape[0])
    lam = 0.0
    for _ in range(max_iter):
        w = m @ v
        norm = float(np.abs(w).sum())
        if norm == 0.0:
            return 0.0
        lam_new = norm / float(np.abs(v).sum())
        v = w / norm
        if abs(lam_new - lam) < tol:
            return lam_new
        lam = lam_new
    return lam


VALIDATION_TAGS = ("strict", "relaxed", "general")


def validate_model(model: DetectionModel, tag: str = "strict") -> list[str]:
    """Check model invariants and return a list of violation messages.

    Tags: ``strict`` enforces the absorbing change model including a
    pre-change initial belief; ``relaxed`` drops the initial-belief
    constraint; ``general`` only checks stochasticity.
    """
    if tag not in VALIDATION_TAGS:
        raise ValueError(f"unknown validation tag {tag!r}; expected one of {VALIDATION_TAGS}")
    problems: list[str] = []
    p = model.transition
    if np.any(p < -SUM_TOL):
        problems.append("transition matrix has negative entries")
    bad_rows = np.nonzero(np.abs(p.sum(axis=1) - 1.0) > SUM_TOL * p.shape[0])[0]
    for i in bad_rows:
        problems.append(f"transition row {i + 1} sums to {p[i].sum():.15g}, expected 1")
    try:
        as_belief(model.initial)
    except ValueError as exc:
        problems.append(f"initial belief invalid: {exc}")
    if tag in ("strict", "relaxed"):
        e1 = np.zeros(model.n_states)
        e1[0] = 1.0
        if np.any(np.abs(p[0] - e1) > SUM_TOL):
            problems.append("row 1 not absorbing")
        if tag == "strict" and abs(model.initial[0]) > SUM_TOL:
            problems.append("initial belief puts mass on the absorbing state")
        rad = spectral_radius(p[1:, 1:])
        if rad >= 1.0 - 1e-9:
            problems.append(
                f"pre-change states not transient (spectral radius {rad:.12g})"
            )
    return problems


# ---------------------------------------------------------------------------
# Phase-type change-time distribution


@dataclass(frozen=True)
class PhDistribution:
    """Probability mass of the absorption time, one entry per step k >= 0."""

    pmf: np.ndarray

    def __post_init__(self):
        nu = np.asarray(self.pmf, dtype=float)
        object.__setattr__(self, "pmf", nu)
        if np.any(nu < -SUM_TOL):
            raise ValueError("pmf entries must be non-negative")
        if nu.sum() > 1.0 + 1e-9:
            raise ValueError("pmf mass exceeds 1")

    def partial_sums(self) -> np.ndarray:
        return np.cumsum(self.pmf)


def ph_pmf(model: DetectionModel, k_max: int, tag: str = "relaxed") -> PhDistribution:
    """Absorption-time pmf of the change model, entries for k = 0 .. k_max.

    Computed by iterated matrix-vector products against the sub-matrix of
    transient states.
    """
    problems = validate_model(model, tag)
    if problems:
        raise ValueError("invalid change model: " + "; ".join(problems))
    p_under = model.transition[1:, 0]
    p_bar = model.transition[1:, 1:]
    w = model.initial[1:].copy()
    nu = np.empty(k_max + 1)
    nu[0] = model.initial[0]
    for k in range(1, k_max + 1):
        nu[k] = float(w @ p_under)
        w = p_bar.T @ w
    return PhDistribution(nu)


# ---------------------------------------------------------------------------
# Cost families

def _check_prob(name: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {value}")


def _check_nonneg(name: str, value) -> None:
    if np.any(np.asarray(value, dtype=float) < 0):
        raise ValueError(f"{name} must be non-negative, got {value}")


@dataclass(frozen=True)
class QuickestPredictiveDelay:
    """Quickest detection with a one-step-ahead delay penalty.

    Stopping pays a variance penalty (weight ``alpha``) plus a false-alarm
    penalty (``beta``) on the pre-change states; continuing pays ``d`` times
    the predicted probability of being post-change next step, plus a fixed
    per-measurement operational cost.
    """

    alpha: float
    beta: float
    d: float
    rho: float = 1.0
    op_cost: float = 0.0

    family = "quickest_predictive"

    def __post_init__(self):
        _check_nonneg("alpha", self.alpha)
        _check_nonneg("beta", self.beta)
        _check_nonneg("d", self.d)
        _check_nonneg("op_cost", self.op_cost)
        _check_prob("rho", self.rho)


@dataclass(frozen=True)
class QuickestClassicalDelay:
    """Quickest detection with the classical current-state delay penalty.

    The false-alarm penalty is a per-state vector ``false_alarm`` whose first
    entry must be zero (no penalty for stopping after the change).
    """

    alpha: float
    beta: float
    d: float
    rho: float
    false_alarm: np.ndarray

    family = "quickest_classical"

    def __post_init__(self):
        f = np.asarray(self.false_alarm, dtype=float)
        object.__setattr__(self, "false_alarm", f)
        _check_nonneg("alpha", self.alpha)
        _check_nonneg("beta", self.beta)
        _check_nonneg("d", self.d)
        _check_prob("rho", self.rho)
        _check_nonneg("false_alarm", f)
        if f[0] != 0.0:
            raise ValueError("false-alarm vector must have first entry 0")


@dataclass(frozen=True)
class TransientDetection:
    """Detection of a transient state visit.

    ``delays`` is a per-state delay vector (zero on the start states);
    ``false_alarm`` defaults to a unit penalty on the last (start) state.
    """

    alpha: float
    beta: float
    delays: np.ndarray
    rho: float
    false_alarm: np.ndarray | None = None

    family = "transient"

    def __post_init__(self):
        d = np.asarray(self.delays, dtype=float)
        object.__setattr__(self, "delays", d)
        _check_nonneg("alpha", self.alpha)
        _check_nonneg("beta", self.beta)
        _check_nonneg("delays", d)
        _check_prob("rho", self.rho)
        if self.false_alarm is not None:
            f = np.asarray(self.false_alarm, dtype=float)
            object.__setattr__(self, "false_alarm", f)
            _check_nonneg("false_alarm", f)
            if f[0] != 0.0:
                raise ValueError("false-alarm vector must have first entry 0")

    def false_alarm_vector(self, n_states: int) -> np.ndarray:
        if self.false_alarm is not None:
            return self.false_alarm
        f = np.zeros(n_states)
        f[-1] = 1.0
        return f


@dataclass(frozen=True)
class RiskSensitive:
    """Exponential (risk-sensitive) delay penalty with linear false-alarm cost.

    ``risk`` is the exponent scale; ``risk -> 0`` recovers the linear-cost
    problem with unit discount.
    """

    risk: float
    beta: float
    d: float

    family = "risk_sensitive"

    def __post_init__(self):
        _check_nonneg("risk", self.risk)
        _check_nonneg("beta", self.beta)
        _check_nonneg("d", self.d)

    def scalings(self, transition: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Stopping-cost vector and belief-recursion scaling vector.

        The first has ``exp(risk*beta)`` on the pre-change states; the second
        is ``exp(risk*d*P[i,1])`` per state (absorbing state included).
        """
        x = transition.shape[0]
        r1 = np.full(x, np.exp(self.risk * self.beta))
        r1[0] = 1.0
        r2 = np.exp(self.risk * self.d * transition[:, 0])
        return r1, r2


@dataclass(frozen=True)
class SocialStopping:
    """Stopping problem driven by the social-learning public belief (2 states).

    ``local_costs[i, a-1]`` is the myopic cost of local action ``a`` in state
    ``i+1``.  With ``include_welfare`` the continue cost additionally charges
    the agents' expected myopic cost.
    """

    d: float
    beta: float
    rho: float
    local_costs: np.ndarray
    include_welfare: bool = False

    family = "social_stopping"

    def __post_init__(self):
        c = np.asarray(self.local_costs, dtype=float)
        object.__setattr__(self, "local_costs", c)
        _check_nonneg("d", self.d)
        _check_nonneg("beta", self.beta)
        _check_prob("rho", self.rho)
        if c.ndim != 2:
            raise ValueError("local cost matrix must be 2-D (states x actions)")


@dataclass(frozen=True)
class ConstrainedSocial:
    """Constrained-social stopping: continue reveals the observation, stop herds."""

    local_costs: np.ndarray
    d: float
    beta: float
    rho: float

    family = "constrained_social"

    def __post_init__(self):
        c = np.asarray(self.local_costs, dtype=float)
        object.__setattr__(self, "local_costs", c)
        _check_nonneg("d", self.d)
        _check_nonneg("beta", self.beta)
        _check_prob("rho", self.rho)
        if self.rho >= 1.0:
            raise ValueError("constrained-social family requires rho < 1")
        if c.ndim != 2:
            raise ValueError("local cost matrix must be 2-D (states x actions)")


@dataclass(frozen=True)
class Scheduling:
    """Two-mode measurement scheduling with per-mode accuracy and cost.

    Mode 1 observes through the model's observation matrix, mode 2 through
    ``obs_hi``.  ``confusion``, when given, is the stochastic matrix mapping
    mode-2 symbols to mode-1 symbols (Blackwell degradation).
    """

    alpha1: float
    alpha2: float
    c1: np.ndarray
    c2: np.ndarray
    g: np.ndarray
    rho: float
    obs_hi: DiscreteObs
    confusion: np.ndarray | None = None

    family = "scheduling"

    def __post_init__(self):
        c1 = np.asarray(self.c1, dtype=float)
        c2 = np.asarray(self.c2, dtype=float)
        g = np.asarray(self.g, dtype=float)
        object.__setattr__(self, "c1", c1)
        object.__setattr__(self, "c2", c2)
        object.__setattr__(self, "g", g)
        _check_nonneg("alpha1", self.alpha1)
        _check_nonneg("alpha2", self.alpha2)
        _check_nonneg("c1", c1)
        _check_nonneg("c2", c2)
        _check_prob("rho", self.rho)
        if self.confusion is not None:
            q = np.asarray(self.confusion, dtype=float)
            object.__setattr__(self, "confusion", q)
            if np.any(q < -SUM_TOL) or np.any(np.abs(q.sum(axis=1) - 1.0) > 1e-9):
                raise ValueError("confusion matrix must be row-stochastic")


CostSpec = Union[
    QuickestPredictiveDelay,
    QuickestClassicalDelay,
    TransientDetection,
    RiskSensitive,
    SocialStopping,
    ConstrainedSocial,
    Scheduling,
]

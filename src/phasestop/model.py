"""Domain types for sequential detection on the belief simplex.

Conventions used throughout the package:

* A belief is a length-``X`` numpy vector of non-negative probabilities
  summing to one.  State 1 (array index 0) is the absorbing post-change
  state in the detection families.
* Observation symbols are plain array indices ``0 .. Y-1``.
* Global decisions are ``1`` (stop) and ``2`` (continue); local actions in
  the social-learning families are likewise 1-based.

Each cost family is one :class:`CostSpec` dataclass that holds its
parameters together with its stage costs, value offset, belief updates and
structural assumption checks, and the shapes its array fields must have on
a given model (``array_shapes``); the solver, simulator, checkers and CLI
call these methods and never test a spec's type.  Each field's annotation
names its parameter's kind (``Rate``, ``Vector``, ...), and building a
family converts and checks every field by its kind, so a config and a
Python caller pass the same checks and the CLI names no family field.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .filters import SUM_TOL, as_belief, social_likelihoods, social_scores
from .orders import _ineq, _tp2_check


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
        if not np.all(b >= -SUM_TOL):  # a NaN entry fails this and the next check
            raise ValueError("observation probabilities must be non-negative numbers")
        if not np.all(np.abs(b.sum(axis=1) - 1.0) <= 1e-9):
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
        if not np.isfinite(m).all():
            raise ValueError("means must be finite")
        if not np.all((v > 0) & (v < np.inf)):  # NaN fails
            raise ValueError("variances must be strictly positive and finite")


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
        if not (np.isfinite(p).all() and np.isfinite(pi0).all()):
            raise ValueError("transition matrix and initial belief entries must be finite")
        if self.obs.matrix.shape[0] != p.shape[0]:
            raise ValueError("observation matrix row count does not match state count")

    @property
    def n_states(self) -> int:
        return self.transition.shape[0]

    def discrete_obs(self) -> DiscreteObs:
        """The observation matrix every layer filters through."""
        return self.obs


def spectral_radius(mat: np.ndarray) -> float:
    """Spectral radius: the largest eigenvalue modulus (0 for an empty matrix)."""
    m = np.asarray(mat, dtype=float)
    return float(np.abs(np.linalg.eigvals(m)).max()) if m.size else 0.0


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

class ParameterError(ValueError):
    """A cost parameter of the wrong kind; the message starts with the field's name."""


# A cost parameter's kind is its field's annotation: one of these aliases,
# ``bool`` or ``DiscreteObs``, with ``| None`` where the default is None.
Rate = Discount = float
Vector = Signed = Matrix = np.ndarray

# each kind's rank, the rule its entries keep and what breaking it reads; a
# flag has no rank, and a DiscreteObs is a matrix that DiscreteObs checks
_KINDS = {
    "bool": (None, None, None),
    "Rate": (0, lambda x: np.isfinite(x).all() and (x >= 0).all(), "must be finite and non-negative"),
    "Discount": (0, lambda x: 0.0 <= x <= 1.0, "must lie in [0, 1]"),
    "Vector": (1, lambda x: np.isfinite(x).all() and (x >= 0).all(), "must be finite and non-negative"),
    "Signed": (1, lambda x: np.isfinite(x).all(), "must be finite"),
    "Matrix": (2, lambda x: np.isfinite(x).all(), "must be finite"),
    "DiscreteObs": (2, None, None),
}
_NOUNS = ("a number", "a vector", "a matrix")


def _convert(name: str, kind: str, value):
    """``value`` as a cost parameter of ``kind``, checked: a
    :class:`ParameterError` when it is not of the kind, and a ``ValueError``
    when it breaks the kind's rule."""
    rank, rule, broken = _KINDS[kind]
    if rank is None:
        if not isinstance(value, bool):
            raise ParameterError(f"{name}: expected true or false, got {value!r}")
        return value
    if isinstance(value, DiscreteObs) and kind == "DiscreteObs":
        return value
    try:  # true, false and null are not numbers
        x = None if isinstance(value, bool) or value is None else np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError):
        x = None
    if x is None or x.ndim != rank:
        raise ParameterError(f"{name}: expected {_NOUNS[rank]}, got {value!r}")
    if rule is None:
        try:
            return DiscreteObs(x)
        except ValueError as exc:
            raise ParameterError(f"{name}: {exc}") from None
    if not rule(x):
        raise ValueError(f"{name} {broken}, got {x.tolist()}")
    return float(x) if rank == 0 else x


class CostSpec:
    """A cost family: its parameters (the dataclass fields) and its behaviour.

    Each field's annotation names its kind (a key of ``_KINDS``), and
    construction converts and checks every field by it, so a family's own
    ``__post_init__`` holds only the rules beyond its fields' kinds.

    On a stack of belief rows ``pts``, ``stage_costs(model, pts, original)``
    gives the (stop, continue) costs (the mode-1 and mode-2 costs for
    scheduling), in the transformed coordinates unless ``original``, and
    ``offset(model, pts)`` the linear offset: original values = transformed
    values + offset.  ``updates(model, pts)`` lists ``(pred, liks)`` per
    action, stop / mode 1 first: the action's successors are the Bayes steps
    ``pred * lik`` for each likelihood row of ``liks``, and a stop action is
    ``None``.  ``array_shapes(model)`` yields ``(field, shape, expected
    shape, meaning)`` for each array field whose size depends on the model
    (by default each 1-D array field, one entry per state); a spec fits the
    model when every shape is the expected one and the model has the
    family's ``n_states`` states (``None``: any number).
    ``assumptions(model)`` lists the structural assumption checks
    (:class:`~phasestop.orders.AssumptionCheck`) and never raises on a model
    the spec fits.  By default continuing predicts through the chain and
    corrects by the model's observation matrix, discounted by ``rho``, from
    the zero-horizon value ``-offset``.
    """

    n_states = None

    def __post_init__(self):
        """Convert and check each field by its kind; one whose default is None keeps None."""
        for f in fields(self):
            value = getattr(self, f.name)
            if not (value is None and f.default is None):
                object.__setattr__(self, f.name, _convert(f.name, f.type.split(" | ")[0], value))

    def updates(self, model: DetectionModel, pts: np.ndarray) -> list:
        return [None, (pts @ model.transition, model.discrete_obs().matrix.T)]

    def array_shapes(self, model: DetectionModel):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, np.ndarray) and value.ndim == 1:
                yield f.name, value.shape, (model.n_states,), "one entry per state"

    def initial_value(self, offset: np.ndarray) -> np.ndarray:
        """The zero-horizon value, in transformed coordinates, from the offset
        at each grid point: the terminal rule of a horizon run.

        The rule is free exit: ``-offset`` is the original value 0, so a path
        still running when the horizon ends stops at no cost, with no
        false-alarm or delay charge.  :class:`RiskSensitive` overrides it
        with a forced stop (transformed zeros, the original value being the
        stopping cost).  A converged discounted run does not depend on the
        rule; a fixed-horizon run does, and the bundled fig3a-c thresholds
        exist only under free exit (under a forced stop they stop everywhere).
        """
        return -offset


class _DetectionCost(CostSpec):
    """Detection family: ``_continue_terms(model, pts)`` gives the
    false-alarm probability ``f'pi``, its one-step prediction ``f'P'pi`` and
    the original continue cost, and ``_stop_cost(pts, fpi)`` the original stop
    cost, by default ``alpha`` times the variance of the post-change indicator
    plus ``beta f'pi``.  The offset is ``(alpha + beta) f'pi``.

    :meth:`continue_costs` prices the continue action alone, bit for bit
    ``stage_costs(...)[1]``, for a caller that reads the stop cost only where
    a policy stops (the batch simulator).
    """

    def _continue(self, model, pts, original):
        """``f'pi`` and the continue cost, transformed unless ``original``."""
        fpi, fppi, c2_bar = self._continue_terms(model, pts)
        if original:
            return fpi, c2_bar
        ab = self.alpha + self.beta
        return fpi, c2_bar - ab * fpi + self.rho * ab * fppi

    def continue_costs(self, model, pts, original=False):
        """The continue costs alone: ``stage_costs(model, pts, original)[1]``."""
        return self._continue(model, pts, original)[1]

    def stage_costs(self, model, pts, original=False):
        fpi, c2 = self._continue(model, pts, original)
        c1 = self._stop_cost(pts, fpi)
        if not original:
            c1 = c1 - (self.alpha + self.beta) * fpi
        return c1, c2

    def _stop_cost(self, pts, fpi):
        p1 = pts[:, 0]
        return self.alpha * (p1 - p1 * p1) + self.beta * fpi

    def offset(self, model, pts):
        return (self.alpha + self.beta) * self._continue_terms(model, pts)[0]


@dataclass(frozen=True)
class QuickestPredictiveDelay(_DetectionCost):
    """Quickest detection with a one-step-ahead delay penalty.

    Stopping pays a variance penalty (weight ``alpha``) plus a false-alarm
    penalty (``beta``) on the pre-change states; continuing pays ``d`` times
    the predicted probability of being post-change next step, plus a fixed
    per-measurement operational cost.
    """

    alpha: Rate
    beta: Rate
    d: Rate
    rho: Discount = 1.0
    op_cost: Rate = 0.0

    family = "quickest_predictive"

    def _continue_terms(self, model, pts):
        q1 = pts @ model.transition[:, 0]
        return 1.0 - pts[:, 0], 1.0 - q1, self.d * q1 + self.op_cost

    def assumptions(self, model):
        p = model.transition
        margin = self.d - self.rho * (self.alpha + self.beta)
        return [
            _ineq("A1-Ex1", margin, "d >= rho*(alpha+beta)"),
            _tp2_check("A2", model.discrete_obs().matrix, "observation matrix TP2"),
            _tp2_check("A3", p, "transition matrix TP2"),
            _ineq(
                "S-Ex1",
                margin * (1.0 - p[1, 0]) - (self.alpha - self.beta),
                "(d-rho*(alpha+beta))*(1-P21) >= alpha-beta",
            ),
        ]


@dataclass(frozen=True)
class QuickestClassicalDelay(_DetectionCost):
    """Quickest detection with the classical current-state delay penalty.

    The false-alarm penalty is a per-state vector ``false_alarm`` whose first
    entry must be zero (no penalty for stopping after the change).
    """

    alpha: Rate
    beta: Rate
    d: Rate
    rho: Discount
    false_alarm: Vector

    family = "quickest_classical"

    def __post_init__(self):
        super().__post_init__()
        if not (self.false_alarm.size and self.false_alarm[0] == 0.0):
            raise ValueError("false-alarm vector must have first entry 0")

    def _continue_terms(self, model, pts):
        f = self.false_alarm
        return pts @ f, pts @ (model.transition @ f), self.d * pts[:, 0]

    def assumptions(self, model):
        p = model.transition
        f = self.false_alarm
        pf = p @ f  # pf[i] = f' P' e_i
        x = model.n_states
        a, b, d, rho = self.alpha, self.beta, self.d, self.rho
        if b > 0:
            ratio = rho * (a + b) / b
            slacks_i = [f[i] - max(1.0, ratio * pf[i] + (a - d) / b) for i in range(1, x)]
            slacks_iii = [f[x - 1] - f[i] - ratio * (pf[x - 1] - pf[i]) for i in range(1, x - 1)]
            text_i = "f_i >= max(1, rho*(a+b)/b f'P'e_i + (a-d)/b)"
            text_iii = "f_X - f_i >= rho*(a+b)/b f'P'(e_X - e_i)"
        else:
            # (i) and (iii) multiplied through by b: at b = 0 their left sides vanish
            slacks_i = [0.0 - max(0.0, rho * a * pf[i] + a - d) for i in range(1, x)]
            slacks_iii = [0.0 - rho * a * (pf[x - 1] - pf[i]) for i in range(1, x - 1)]
            text_i = "b f_i >= max(b, rho*(a+b) f'P'e_i + a-d), at b = 0"
            text_iii = "b (f_X - f_i) >= rho*(a+b) f'P'(e_X - e_i), at b = 0"
        worst_ii = 0.0
        for i in range(1, x - 2):
            for j in range(i, x):
                worst_ii = min(worst_ii, f[j] - f[i] - rho * (pf[j] - pf[i]))
        worst_i, worst_iii = min(slacks_i, default=0.0), min(slacks_iii, default=0.0)
        return [
            _ineq("AS-Ex1(i)", worst_i, text_i),
            _ineq("AS-Ex1(ii)", worst_ii, "f_j - f_i >= rho f'P'(e_j - e_i)"),
            _ineq("AS-Ex1(iii)", worst_iii, text_iii),
            _tp2_check("A2", model.discrete_obs().matrix, "observation matrix TP2"),
            _tp2_check("A3", p, "transition matrix TP2"),
        ]


@dataclass(frozen=True)
class TransientDetection(_DetectionCost):
    """Detection of a transient state visit.

    ``delays`` is a per-state delay vector (zero on the start states);
    ``false_alarm`` defaults to a unit penalty on the last (start) state,
    the only false alarm the variance penalty (``alpha > 0``) allows.
    """

    alpha: Rate
    beta: Rate
    delays: Vector
    rho: Discount
    false_alarm: Vector | None = None

    family = "transient"

    def __post_init__(self):
        super().__post_init__()
        if self.false_alarm is not None:
            if not (self.false_alarm.size and self.false_alarm[0] == 0.0):
                raise ValueError("false-alarm vector must have first entry 0")
            if self.alpha > 0:
                raise ValueError("variance penalty requires the default start-state false alarm")

    def _continue_terms(self, model, pts):
        if self.false_alarm is None:
            # f = e_X: f'pi is pi's last entry and P f is P's last column,
            # copied because pts @ may sum a strided column in another order
            return pts[:, -1], pts @ model.transition[:, -1].copy(), pts @ self.delays
        f = self.false_alarm
        return pts @ f, pts @ (model.transition @ f), pts @ self.delays

    def _stop_cost(self, pts, fpi):
        return self.alpha * (fpi - fpi * fpi) + self.beta * fpi

    def assumptions(self, model):
        p = model.transition
        checks = [_tp2_check("A2", model.discrete_obs().matrix, "observation matrix TP2")]
        if model.n_states == 3:
            bound = (self.delays[1] + self.beta - self.rho * self.beta * p[2, 2]) / (1.0 + self.rho * p[2, 2])
            checks.append(_ineq("S-Ex2", bound - self.alpha, "alpha <= (d2+b-rho*b*P33)/(1+rho*P33)"))
        if self.false_alarm is not None:
            f = self.false_alarm
            checks.append(_ineq("PH-f", f[1] - 1.0, "first transient false alarm >= 1"))
            vec = self.delays + self.beta * ((self.rho * p - np.eye(model.n_states)) @ f)
            slack = float(np.min(vec[:-1] - vec[1:]))
            checks.append(_ineq("PH-dd", slack, "(d + beta*(rho*P - I) f) has decreasing entries"))
        return checks


@dataclass(frozen=True)
class RiskSensitive(CostSpec):
    """Exponential (risk-sensitive) delay penalty with linear false-alarm cost.

    ``risk`` is the exponent scale; ``risk -> 0`` recovers the linear-cost
    problem with unit discount.  The recursion is multiplicative: the delay
    enters the belief update, so the original continue cost is zero, and
    the zero-horizon value is the forced-stop factor, which is the offset.
    """

    risk: Rate
    beta: Rate
    d: Rate

    family = "risk_sensitive"
    rho = 1.0

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

    def stage_costs(self, model, pts, original=False):
        p = model.transition
        r1, r2 = self.scalings(p)
        if original:
            return pts @ r1, np.zeros(pts.shape[0])
        return np.zeros(pts.shape[0]), pts @ (r2 * (p @ r1) - r1)

    def offset(self, model, pts):
        return pts @ self.scalings(model.transition)[0]

    def updates(self, model, pts):
        p = model.transition
        return [None, ((pts * self.scalings(p)[1]) @ p, model.discrete_obs().matrix.T)]

    def initial_value(self, offset):
        return np.zeros_like(offset)

    def assumptions(self, model):
        p = model.transition
        r1, r2 = self.scalings(p)
        entries = r2 * (p @ r1) - r1
        return [
            _ineq("A1-Ex3", float(np.min(entries[:-1] - entries[1:])), "continue cost decreasing per state"),
            _tp2_check("A2", model.discrete_obs().matrix, "observation matrix TP2"),
            _tp2_check("A3", p, "transition matrix TP2"),
        ]


@dataclass(frozen=True)
class SocialStopping(CostSpec):
    """Stopping problem driven by the social-learning public belief (2 states).

    ``local_costs[i, a-1]`` is the myopic cost of local action ``a`` in state
    ``i+1``.  With ``include_welfare`` the continue cost additionally charges
    the agents' expected myopic cost.  Continuing observes the action the
    next agent broadcasts under the myopic social rule; the state is static.
    """

    d: Rate
    beta: Rate
    rho: Discount
    local_costs: Matrix
    include_welfare: bool = False

    family = "social_stopping"
    n_states = 2

    def __post_init__(self):
        super().__post_init__()
        columns = self.local_costs.shape[1]
        if columns < 2:
            raise ValueError(f"local_costs needs at least 2 local actions (columns), got {columns}")

    def array_shapes(self, model):
        shape = self.local_costs.shape
        yield "local_costs", shape, (model.n_states, shape[1]), "one row per state"

    def _welfare(self, b: np.ndarray, pts: np.ndarray) -> np.ndarray:
        """Expected myopic local cost: sum over symbols of min_a pi' (B_y o c_a)."""
        total = np.zeros(pts.shape[0])
        for scores in social_scores(self.local_costs, b, pts):
            total += scores.min(axis=1)
        return total

    def stage_costs(self, model, pts, original=False):
        p1 = pts[:, 0]
        c1_bar = self.beta * (1.0 - p1)
        c2_bar = self.d * p1
        if self.include_welfare:
            c2_bar = c2_bar + self._welfare(model.discrete_obs().matrix, pts)
        if original:
            return c1_bar, c2_bar
        return np.zeros(pts.shape[0]), c2_bar - (1.0 - self.rho) * c1_bar

    def offset(self, model, pts):
        return self.beta * (1.0 - pts[:, 0])

    def updates(self, model, pts):
        return [None, (pts, social_likelihoods(self.local_costs, model.discrete_obs().matrix, pts))]

    def assumptions(self, model):
        c, b = self.local_costs, model.discrete_obs().matrix
        # a non-square matrix is not symmetric
        asymmetry = float(np.abs(b - b.T).max()) if b.shape[0] == b.shape[1] else np.inf
        return [
            _ineq("costdom-1", c[0, 1] - c[0, 0], "c(e1,1) < c(e1,2)", tol=-1e-12),
            _ineq("costdom-2", c[1, 0] - c[1, 1], "c(e2,2) < c(e2,1)", tol=-1e-12),
            _ineq("d-rho-beta", self.d - self.rho * self.beta, "d >= rho*beta"),
            _tp2_check("A2", b, "observation matrix TP2"),
            _ineq("B-symmetric", -asymmetry, "observation matrix symmetric"),
        ]


@dataclass(frozen=True)
class ConstrainedSocial(CostSpec):
    """Constrained-social stopping: continue reveals the observation, stop herds."""

    local_costs: Matrix
    d: Rate
    beta: Rate
    rho: Discount

    family = "constrained_social"
    offset = SocialStopping.offset

    def __post_init__(self):
        super().__post_init__()
        if self.rho >= 1.0:
            raise ValueError("constrained-social family requires rho < 1")

    def array_shapes(self, model):
        yield "local_costs", self.local_costs.shape, model.discrete_obs().matrix.shape, "states x symbols"

    def stage_costs(self, model, pts, original=False):
        c, p1 = self.local_costs, pts[:, 0]
        herd = (pts @ c).min(axis=1) / (1.0 - self.rho)
        reveal = pts @ (model.discrete_obs().matrix * c).sum(axis=1)
        if original:
            return self.beta * (1.0 - p1) + herd, reveal + self.d * p1
        return herd, reveal + (self.d + (1.0 - self.rho) * self.beta) * p1 - (1.0 - self.rho) * self.beta

    def updates(self, model, pts):
        return [None, (pts, model.discrete_obs().matrix.T)]

    def assumptions(self, model):
        c, b = self.local_costs, model.discrete_obs().matrix
        x, n_actions = c.shape
        if n_actions != b.shape[1]:
            raise ValueError("constrained-social family requires one local action per symbol")
        avg = np.einsum("iy,iy->i", c, b)
        worst_i = min(
            c[x - 1, a] - c[i, a] - (1.0 - self.rho) * (avg[x - 1] - avg[i])
            for a in range(n_actions)
            for i in range(x)
        )
        worst_ii = min(
            (1.0 - self.rho) * (avg[0] - avg[i]) - (c[0, a] - c[i, a])
            for a in range(n_actions)
            for i in range(x)
        )
        return [
            _ineq("A1-Ex5", float(np.min(c[:-1, :] - c[1:, :])), "local costs decreasing per state"),
            _tp2_check("A2", b, "observation matrix TP2"),
            _ineq("S-Ex5(i)", float(worst_i), "submodularity toward the last state"),
            _ineq("S-Ex5(ii)", float(worst_ii), "submodularity toward the first state"),
        ]


@dataclass(frozen=True)
class Scheduling(CostSpec):
    """Two-mode measurement scheduling with per-mode accuracy and cost.

    Mode 1 observes through the model's observation matrix, mode 2 through
    ``obs_hi``.  ``confusion``, when given, is the stochastic matrix mapping
    mode-2 symbols to mode-1 symbols (Blackwell degradation).  There is no
    stop action: both modes continue, and the offset is zero.
    """

    alpha1: Rate
    alpha2: Rate
    c1: Vector
    c2: Vector
    g: Signed
    rho: Discount
    obs_hi: DiscreteObs
    confusion: Matrix | None = None

    family = "scheduling"

    def __post_init__(self):
        super().__post_init__()
        q = self.confusion
        if q is not None and (np.any(q < -SUM_TOL) or np.any(np.abs(q.sum(axis=1) - 1.0) > 1e-9)):
            raise ValueError("confusion matrix must be row-stochastic")

    def array_shapes(self, model):
        yield from super().array_shapes(model)
        shape = self.obs_hi.matrix.shape
        yield "obs_hi", shape, (model.n_states, shape[1]), "one row per state"
        if self.confusion is not None:
            want = (shape[1], model.discrete_obs().matrix.shape[1])
            yield "confusion", self.confusion.shape, want, "mode-2 symbols x mode-1 symbols"

    def stage_costs(self, model, pts, original=False):
        q = pts @ model.transition
        var = q @ (self.g * self.g) - (q @ self.g) ** 2
        return self.alpha1 * var + q @ self.c1, self.alpha2 * var + q @ self.c2

    def offset(self, model, pts):
        return np.zeros(pts.shape[0])

    def updates(self, model, pts):
        pred = pts @ model.transition
        return [(pred, model.discrete_obs().matrix.T), (pred, self.obs_hi.matrix.T)]

    def assumptions(self, model):
        checks = [
            _tp2_check("A2-hi", self.obs_hi.matrix, "mode-2 observation matrix TP2"),
            _tp2_check("A3", model.transition, "transition matrix TP2"),
        ]
        if self.confusion is not None:
            gap = -float(np.abs(self.obs_hi.matrix @ self.confusion - model.discrete_obs().matrix).max())
            checks.append(_ineq("blackwell", gap, "mode-1 matrix equals mode-2 times confusion"))
        return checks


FAMILIES = (
    QuickestPredictiveDelay,
    QuickestClassicalDelay,
    TransientDetection,
    RiskSensitive,
    SocialStopping,
    ConstrainedSocial,
    Scheduling,
)

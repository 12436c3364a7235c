"""Linear threshold policies on the simplex and the SPSA policy-gradient search.

A threshold policy stops exactly when the linear score
``pi(2) + theta(1) pi(3) + ... + theta(X-2) pi(X) - theta(X-1)`` is negative,
summed elementwise so that a belief's decision is the same alone or in a
stack of policies (:meth:`LinearThresholdPolicy.stop_mask`).
The constraint set ``theta(X-2) >= 1``, ``0 <= theta(i) <= theta(X-2)``,
``theta(X-1) > 0`` characterizes the policies whose score is monotone along
every line anchored at the extreme vertices, i.e. the policies consistent
with a threshold switching curve.

SPSA (:func:`spsa_optimize`) minimizes one objective ``cost(phis, seed)``:
the cost of each unconstrained parameter ``phi`` in a list, all priced on
the sample paths of one seed.  :func:`simulated_cost` builds that objective
for the simulated cost of the threshold policies ``phi_to_theta(phi)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .model import CostSpec, DetectionModel
from .sim import simulate_batch


def _stop_mask(coefs: tuple, threshold, pts: np.ndarray) -> np.ndarray:
    """The linear stop test on the beliefs ``pts`` (rows, X): the score
    ``pi(2) + coefs[0] pi(3) + ... + coefs[X-3] pi(X)``, summed elementwise
    left to right, is below ``threshold``.  Scalar coefficients give one
    policy's (rows,) mask, (T, 1) columns the (T, rows) mask of a stack."""
    if not coefs:
        return pts[:, 1] < threshold
    score = coefs[0] * pts[:, 2]
    score += pts[:, 1]  # pi(2) + theta(1) pi(3): addition commutes exactly
    for i in range(1, len(coefs)):
        score += coefs[i] * pts[:, i + 2]
    return score < threshold


def _check_size(theta_size: int, n_states: int) -> None:
    if theta_size != n_states - 1:
        raise ValueError(
            f"a linear policy on {n_states} states needs {n_states - 1} theta entries, "
            f"got {theta_size}"
        )


@dataclass(frozen=True)
class LinearThresholdPolicy:
    theta: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.theta, dtype=float)
        object.__setattr__(self, "theta", t)
        if t.ndim != 1 or t.size < 1:
            raise ValueError("theta must be a vector with at least one entry")
        # the score's terms, as Python floats, computed once per policy
        object.__setattr__(self, "_terms", (tuple(t[:-1].tolist()), float(t[-1])))

    @property
    def n_states(self) -> int:
        return self.theta.size + 1

    def stop_mask(self, pts: np.ndarray) -> np.ndarray:
        """True where the policy stops, one belief per row of ``pts``: where
        the score is strictly negative.  A score of exactly 0 continues.

        The score is summed elementwise, left to right: ``s = pi(2)``, then
        ``s += theta(i) pi(i + 2)`` for ``i = 1 .. X-2``, and a row stops
        where ``s < theta(X-1)``.  A row's bits depend on that row alone, so
        a belief gets the same decision alone, in a taller array, or in a
        stack of policies (:meth:`stacked_mask`).  Raises ``ValueError``
        unless ``pts`` has ``X = theta.size + 1`` columns.
        """
        _check_size(self.theta.size, pts.shape[-1])
        return _stop_mask(*self._terms, pts)

    @staticmethod
    def stacked_mask(policies, n_states: int):
        """One stop test for a stack of T policies on ``n_states`` states:
        a function of ``pts`` whose (T, rows) result has row ``t`` equal to
        ``policies[t].stop_mask(pts)``, bit for bit.  The coefficients are
        stacked once, as (T, 1) columns.  Raises ``ValueError`` unless every
        theta has ``n_states - 1`` entries."""
        for p in policies:
            _check_size(p.theta.size, n_states)
        terms = [col[:, None] for col in np.array([p.theta for p in policies]).T.copy()]
        return partial(_stop_mask, tuple(terms[:-1]), terms[-1])


def theta_is_mlr_increasing(theta) -> bool:
    """Feasibility of the threshold coefficients: monotone score along the
    vertex-anchored lines plus a stopping region containing the first vertex."""
    t = np.asarray(theta, dtype=float)
    if not np.isfinite(t).all() or t[-1] <= 0.0:
        return False
    if t.size >= 2:
        if t[-2] < 1.0:
            return False
        head = t[:-2]
        if np.any(head < 0.0) or np.any(head > t[-2]):
            return False
    return True


def phi_to_theta(phi) -> np.ndarray:
    """Unconstrained-to-constrained reparametrization.

    The squared/sine map guarantees the feasibility constraints for any phi
    (up to the degenerate last entry when ``phi[-1] = 0``).
    """
    p = np.asarray(phi, dtype=float)
    if p.ndim != 1 or p.size < 1:
        raise ValueError("phi must be a vector with at least one entry")
    theta = np.empty_like(p)
    theta[-1] = p[-1] ** 2
    if p.size >= 2:
        theta[-2] = 1.0 + p[-2] ** 2
        if p.size >= 3:
            theta[:-2] = (1.0 + p[-2] ** 2) * np.sin(p[:-2]) ** 2
    return theta


# ---------------------------------------------------------------------------
# Simulated policy cost


def sample_cost(
    policies: list,
    model: DetectionModel,
    spec: CostSpec,
    priors: np.ndarray,
    rng: np.random.Generator,
    max_steps: int | None = None,
) -> list[float]:
    """Average discounted sample-path cost of each policy over the given
    priors, one simulated trajectory per prior.

    The policies are simulated in one :func:`~phasestop.sim.simulate_batch`
    call, on shared sample paths.
    """
    res = simulate_batch(model, spec, list(policies), priors, rng, max_steps=max_steps)
    return [float(c.mean()) for c in res.costs]


def simulated_cost(
    model: DetectionModel, spec: CostSpec, priors: np.ndarray, max_steps: int | None = None
):
    """The objective ``cost(phis, seed)`` of the threshold policies: the
    :func:`sample_cost` of each ``phi``'s policy, all priced in one batch on
    the sample paths of ``np.random.default_rng(seed)``."""

    def cost(phis, seed: int) -> list[float]:
        policies = [LinearThresholdPolicy(phi_to_theta(phi)) for phi in phis]
        return sample_cost(
            policies, model, spec, priors, np.random.default_rng(seed), max_steps=max_steps
        )

    return cost


# ---------------------------------------------------------------------------
# SPSA


@dataclass(frozen=True)
class SpsaParams:
    """Gain schedule: step ``eps/(n+1+s)^zeta``, perturbation ``delta/(n+1)^gamma``."""

    step: float = 0.1
    stability: float = 10.0
    step_decay: float = 0.602
    perturb: float = 0.05
    perturb_decay: float = 0.602

    def __post_init__(self):
        if not 0.5 <= self.perturb_decay <= 1.0:
            raise ValueError("perturbation decay must lie in [0.5, 1]")
        if not 0.5 < self.step_decay <= 1.0:
            raise ValueError("step decay must lie in (0.5, 1]")
        if not (self.step > 0 and self.stability > 0 and self.perturb > 0):  # NaN fails
            raise ValueError("step, stability, and perturbation scales must be positive")


@dataclass
class SpsaResult:
    phi_trace: np.ndarray  # (iterations+1, dim)
    costs: np.ndarray  # per-iteration two-sided average batch cost

    @property
    def theta_trace(self) -> np.ndarray:
        return np.array([phi_to_theta(phi) for phi in self.phi_trace])

    @property
    def final_phi(self) -> np.ndarray:
        return self.phi_trace[-1]

    @property
    def final_theta(self) -> np.ndarray:
        return phi_to_theta(self.final_phi)

    @property
    def policy(self) -> LinearThresholdPolicy:
        return LinearThresholdPolicy(self.final_theta)


def spsa_optimize(
    cost, init_phi, iterations: int, params: SpsaParams, rng: np.random.Generator
) -> SpsaResult:
    """Two-point simultaneous-perturbation gradient descent on the
    unconstrained parametrization.

    Each iteration draws a random direction ``d_n`` and then a seed, prices
    ``phi +/- delta_n d_n`` with one ``cost([phi_plus, phi_minus], seed)``
    call (common random numbers: both on the seed's sample paths), forms
    the random-direction gradient estimate, and takes a decaying step.
    """
    phi = np.asarray(init_phi, dtype=float)
    phi_trace = [phi]
    costs = []
    for n in range(iterations):
        delta_n = params.perturb / (n + 1.0) ** params.perturb_decay
        direction = rng.integers(0, 2, size=phi.size) * 2 - 1
        seed = int(rng.integers(0, 2**63 - 1))
        j_plus, j_minus = cost([phi + delta_n * direction, phi - delta_n * direction], seed)
        if not (np.isfinite(j_plus) and np.isfinite(j_minus)):
            raise RuntimeError(
                f"non-finite batch cost at iteration {n}: phi={phi}, "
                f"J+={j_plus}, J-={j_minus}"
            )
        grad = (j_plus - j_minus) / (2.0 * delta_n) * direction
        step_n = params.step / (n + 2.0 + params.stability) ** params.step_decay
        phi = phi - step_n * grad
        phi_trace.append(phi)
        costs.append(0.5 * (j_plus + j_minus))
    return SpsaResult(np.array(phi_trace), np.array(costs))


def optimize_with_restarts(
    model: DetectionModel,
    spec: CostSpec,
    iterations: int,
    params: SpsaParams,
    priors: np.ndarray,
    rng: np.random.Generator,
    restarts: int = 5,
    max_steps: int | None = None,
) -> tuple[SpsaResult, float]:
    """Run SPSA on the :func:`simulated_cost` from several standard-normal
    initial points and keep the cheapest final policy (the first of tied
    scores), every one scored on ``priors`` with one evaluation seed drawn
    from ``rng`` first."""
    if restarts < 1:
        raise ValueError(f"restarts must be at least 1, got {restarts}")
    cost = simulated_cost(model, spec, priors, max_steps)
    dim = model.n_states - 1
    eval_seed = int(rng.integers(0, 2**63 - 1))
    results = [
        spsa_optimize(cost, rng.normal(0.0, 1.0, size=dim), iterations, params, rng)
        for _ in range(restarts)
    ]
    scores = cost([res.final_phi for res in results], eval_seed)
    best = int(np.argmin(scores))
    return results[best], scores[best]

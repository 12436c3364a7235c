"""Linear threshold policies on the simplex and the SPSA policy-gradient search.

A threshold policy stops exactly when the linear score
``pi(2) + theta(1) pi(3) + ... + theta(X-2) pi(X) - theta(X-1)`` is negative.
The constraint set ``theta(X-2) >= 1``, ``0 <= theta(i) <= theta(X-2)``,
``theta(X-1) > 0`` characterizes the policies whose score is monotone along
every line anchored at the extreme vertices, i.e. the policies consistent
with a threshold switching curve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import CostSpec, DetectionModel
from .sim import simulate_batch


@dataclass(frozen=True)
class LinearThresholdPolicy:
    theta: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.theta, dtype=float)
        object.__setattr__(self, "theta", t)
        if t.ndim != 1 or t.size < 1:
            raise ValueError("theta must be a vector with at least one entry")
        # the score's terms, computed once per policy
        object.__setattr__(self, "_coefficients", self.coefficients())

    @property
    def n_states(self) -> int:
        return self.theta.size + 1

    def coefficients(self) -> tuple[np.ndarray, float]:
        """Belief-space coefficient vector and intercept of the score."""
        c = np.zeros(self.n_states)
        c[1] = 1.0
        c[2:] = self.theta[: self.n_states - 2]
        return c, float(self.theta[-1])

    def stop_mask(self, pts: np.ndarray) -> np.ndarray:
        """True where the policy stops, one belief per row of ``pts``: where
        the score is strictly negative.  A score of exactly 0 continues."""
        # for finite values, pts @ c < t exactly when the score pts @ c - t < 0
        c, t = self._coefficients
        return pts @ c < t


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
    policy,
    model: DetectionModel,
    spec: CostSpec,
    priors: np.ndarray,
    rng: np.random.Generator,
    max_steps: int | None = None,
) -> float | list[float]:
    """Average discounted sample-path cost of a policy over the given priors,
    one simulated trajectory per prior.

    A list of policies is simulated in one :func:`~phasestop.sim.simulate_batch`
    call, on shared sample paths, and gives a list of costs.
    """
    res = simulate_batch(model, spec, policy, priors, rng, max_steps=max_steps)
    if res.costs.ndim == 2:  # a list of policies, one row each
        return [float(c.mean()) for c in res.costs]
    return float(res.costs.mean())


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
    theta_trace: np.ndarray
    costs: np.ndarray  # per-iteration two-sided average batch cost
    final_phi: np.ndarray
    final_theta: np.ndarray

    @property
    def policy(self) -> LinearThresholdPolicy:
        return LinearThresholdPolicy(self.final_theta)


def spsa_optimize(
    model: DetectionModel,
    spec: CostSpec,
    init_phi,
    iterations: int,
    params: SpsaParams,
    priors: np.ndarray | None,
    rng: np.random.Generator,
    cost_fn=None,
    max_steps: int | None = None,
) -> SpsaResult:
    """Two-point simultaneous-perturbation gradient descent on the
    unconstrained parametrization.

    Each iteration evaluates the batch cost at ``phi +/- delta_n d_n`` with
    common random numbers, forms the random-direction gradient estimate, and
    takes a decaying step.  The simulated policy cost runs both sides in one
    stacked :func:`~phasestop.sim.simulate_batch` call, on the same sample
    paths.  ``cost_fn(phi, rng)`` may replace it (used for synthetic
    objectives and tests); it is then called once per side, each on a fresh
    generator from that seed.
    """
    phi = np.asarray(init_phi, dtype=float).copy()
    if cost_fn is None:
        if priors is None:
            raise ValueError("priors required when optimizing the simulated cost")

        def pair_cost(phi_plus, phi_minus, seed):
            # one stacked batch: J+ and J- on the same sample paths
            pols = [LinearThresholdPolicy(phi_to_theta(q)) for q in (phi_plus, phi_minus)]
            return sample_cost(
                pols, model, spec, priors, np.random.default_rng(seed), max_steps=max_steps
            )

    else:

        def pair_cost(phi_plus, phi_minus, seed):
            return (
                cost_fn(phi_plus, np.random.default_rng(seed)),
                cost_fn(phi_minus, np.random.default_rng(seed)),
            )

    dim = phi.size
    phi_trace = [phi.copy()]
    costs = []
    for n in range(iterations):
        delta_n = params.perturb / (n + 1.0) ** params.perturb_decay
        direction = rng.integers(0, 2, size=dim) * 2 - 1
        seed = int(rng.integers(0, 2**63 - 1))
        j_plus, j_minus = pair_cost(phi + delta_n * direction, phi - delta_n * direction, seed)
        if not (np.isfinite(j_plus) and np.isfinite(j_minus)):
            raise RuntimeError(
                f"non-finite batch cost at iteration {n}: phi={phi}, "
                f"J+={j_plus}, J-={j_minus}"
            )
        grad = (j_plus - j_minus) / (2.0 * delta_n) * direction
        step_n = params.step / (n + 2.0 + params.stability) ** params.step_decay
        phi = phi - step_n * grad
        phi_trace.append(phi.copy())
        costs.append(0.5 * (j_plus + j_minus))
    phi_arr = np.array(phi_trace)
    theta_arr = np.array([phi_to_theta(p) for p in phi_trace])
    return SpsaResult(
        phi_trace=phi_arr,
        theta_trace=theta_arr,
        costs=np.array(costs),
        final_phi=phi,
        final_theta=phi_to_theta(phi),
    )


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
    """Run SPSA from several standard-normal initial points and keep the
    cheapest final policy, scored on ``priors`` with a shared evaluation seed
    drawn from ``rng`` first."""
    dim = model.n_states - 1
    eval_seed = int(rng.integers(0, 2**63 - 1))
    results = []
    for _ in range(max(1, restarts)):
        init = rng.normal(0.0, 1.0, size=dim)
        results.append(
            spsa_optimize(model, spec, init, iterations, params, priors, rng, max_steps=max_steps)
        )
    # every final policy scored on the same evaluation paths, in one stacked batch
    scores = sample_cost(
        [res.policy for res in results],
        model,
        spec,
        priors,
        np.random.default_rng(eval_seed),
        max_steps=max_steps,
    )
    best = 0
    for r, score in enumerate(scores):
        if score < scores[best]:
            best = r
    return results[best], scores[best]

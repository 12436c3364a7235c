import numpy as np
import pytest

import oracles
from phasestop import dp, filters, model


class StopWhere:
    """A test-only policy from a per-belief predicate: ``stop_mask`` is true
    on the rows where ``stops(pi)`` holds."""

    def __init__(self, stops):
        self.stops = stops

    def stop_mask(self, pts):
        return np.array([bool(self.stops(pi)) for pi in pts], dtype=bool)


@pytest.fixture(scope="session")
def geometric_model():
    """Two-state absorbing chain with a symmetric binary channel."""
    return model.DetectionModel(
        [[1, 0], [0.3, 0.7]], [0, 1], model.DiscreteObs([[0.8, 0.2], [0.2, 0.8]])
    )


@pytest.fixture(scope="session")
def three_state_model():
    """Three-state absorbing chain with near-noiseless Gaussian observations."""
    return model.DetectionModel(
        [[1, 0, 0], [0.3, 0.1, 0.6], [0, 0.02, 0.98]],
        [0, 0, 1],
        model.discretize_gaussian(model.GaussianObs([0.0, 1.0, 1.0], [0.01, 0.01, 0.01]), 101),
    )


@pytest.fixture(scope="session")
def staged_model():
    """Three-state chain with a fat-noise channel and tunable middle row."""

    def make(p):
        return model.DetectionModel(
            [[1, 0, 0], [0.3, 0.6, 0.1], [0.1, p, 0.9 - p]],
            [0, 0, 1],
            model.discretize_gaussian(model.GaussianObs([0.0, 1.0, 1.0], [4.0, 4.0, 4.0]), 101),
        )

    return make


class SocialCase:
    """A social stopping cost ``spec`` on a static 2-state model ``m``, with
    the boundaries ``eta1 >= eta2 >= eta3`` (second belief component) of the
    cascade and learning intervals of its myopic action rule."""

    def __init__(self, spec, m):
        self.spec, self.model = spec, m
        self.eta1, self.eta2, self.eta3 = oracles.social_fixed_points_from(spec.local_costs, m.obs.matrix)

    def step(self, pi, a):
        """``(next belief, sigma)`` after broadcast action ``a`` (1-based) from
        belief ``pi``: the Bayes step on the prediction and likelihoods of
        ``spec.updates``, the solver's own update.  A zero sigma means ``a``
        is impossible from ``pi``."""
        pred, liks = self.spec.updates(self.model, np.asarray(pi, dtype=float)[None])[1]
        return filters.bayes_step(pred[0], liks[a - 1, 0])

    def update(self, pi, a):
        """The next belief after broadcast action ``a``, which must be possible from ``pi``."""
        nxt, sigma = self.step(pi, a)
        assert sigma > 0.0, f"action {a} impossible from belief {pi}"
        return nxt


@pytest.fixture(scope="session")
def social_context_a(identity_model_2):
    """Selfish-agent stopping instance with a known double threshold."""
    spec = model.SocialStopping(d=1.8, beta=2.0, rho=0.9, local_costs=[[4.57, 5.57], [2.57, 0.0]])
    return SocialCase(spec, identity_model_2)


@pytest.fixture(scope="session")
def social_context_b(identity_model_2):
    """Welfare-extended stopping instance (same channel)."""
    spec = model.SocialStopping(
        d=1.0, beta=20.0, rho=0.9, local_costs=[[2.1, 3.1], [3.1, 0.53]], include_welfare=True
    )
    return SocialCase(spec, identity_model_2)


@pytest.fixture(scope="session")
def identity_model_2():
    """Static two-state environment for the social families."""
    return model.DetectionModel(
        np.eye(2), [0.5, 0.5], model.DiscreteObs([[0.9, 0.1], [0.1, 0.9]])
    )


@pytest.fixture(scope="session")
def grid3_20():
    return dp.build_grid(3, 20)


@pytest.fixture(scope="session")
def grid2_200():
    return dp.build_grid(2, 200)

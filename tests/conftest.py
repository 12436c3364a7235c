import numpy as np
import pytest

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


@pytest.fixture(scope="session")
def social_context_a():
    """Selfish-agent stopping instance with a known double threshold."""
    return filters.SocialContext(
        np.array([[4.57, 5.57], [2.57, 0.0]]),
        model.DiscreteObs([[0.9, 0.1], [0.1, 0.9]]),
    )


@pytest.fixture(scope="session")
def social_context_b():
    """Welfare-extended stopping instance (same channel)."""
    return filters.SocialContext(
        np.array([[2.1, 3.1], [3.1, 0.53]]),
        model.DiscreteObs([[0.9, 0.1], [0.1, 0.9]]),
    )


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

import dataclasses

import numpy as np
import pytest

from phasestop import model


def test_belief_validation():
    pi = model.as_belief([0.25, 0.75])
    assert pi.dtype == float
    with pytest.raises(ValueError):
        model.as_belief([0.5, 0.6])
    with pytest.raises(ValueError):
        model.as_belief([-0.1, 1.1])
    with pytest.raises(ValueError):
        model.as_belief([1.0])
    # a NaN entry makes the sum NaN, which fails the sum check
    with pytest.raises(ValueError, match="sum to nan"):
        model.as_belief([float("nan"), 1.0])


def test_validate_geometric_model_is_valid():
    m = model.DetectionModel(
        [[1, 0], [0.5, 0.5]], [0, 1], model.DiscreteObs([[0.8, 0.2], [0.2, 0.8]])
    )
    assert model.validate_model(m, "strict") == []


def test_validate_flags_non_absorbing_first_row():
    m = model.DetectionModel(
        [[0.9, 0.1], [0.5, 0.5]], [0, 1], model.DiscreteObs([[0.8, 0.2], [0.2, 0.8]])
    )
    report = model.validate_model(m, "strict")
    assert any("absorbing" in msg for msg in report)


def test_validate_flags_non_transient_states():
    m = model.DetectionModel(
        [[1, 0], [0, 1]], [0, 1], model.DiscreteObs([[0.8, 0.2], [0.2, 0.8]])
    )
    report = model.validate_model(m, "strict")
    assert any("transient" in msg for msg in report)


def test_validate_relaxed_allows_initial_mass_on_change():
    m = model.DetectionModel(
        [[1, 0], [0.5, 0.5]], [0.4, 0.6], model.DiscreteObs([[0.8, 0.2], [0.2, 0.8]])
    )
    assert model.validate_model(m, "relaxed") == []
    assert model.validate_model(m, "strict") != []


def test_ph_pmf_geometric_closed_form():
    p = 0.7
    m = model.DetectionModel(
        [[1, 0], [1 - p, p]], [0, 1], model.DiscreteObs([[0.8, 0.2], [0.2, 0.8]])
    )
    nu = model.ph_pmf(m, 30).pmf
    ks = np.arange(1, 31)
    expected = (1 - p) * p ** (ks - 1)
    assert nu[0] == 0.0
    assert np.max(np.abs(nu[1:] - expected)) < 1e-12


def test_ph_pmf_already_absorbed():
    m = model.DetectionModel(
        [[1, 0], [0.5, 0.5]], [1, 0], model.DiscreteObs([[0.8, 0.2], [0.2, 0.8]])
    )
    nu = model.ph_pmf(m, 5, tag="relaxed").pmf
    assert nu[0] == 1.0
    assert np.all(nu[1:] == 0.0)


def test_ph_pmf_partial_sums_monotone_and_complete(staged_model):
    m = staged_model(0.2)
    dist = model.ph_pmf(m, 10_000)
    sums = dist.partial_sums()
    assert np.all(np.diff(sums) >= -1e-15)
    assert sums[-1] <= 1 + 1e-9
    assert sums[-1] > 1 - 1e-6


def test_ph_pmf_rejects_invalid_model():
    m = model.DetectionModel(
        [[0.9, 0.1], [0.5, 0.5]], [0, 1], model.DiscreteObs([[0.8, 0.2], [0.2, 0.8]])
    )
    with pytest.raises(ValueError, match="absorbing"):
        model.ph_pmf(m, 10)


def test_discretize_rows_sum_to_one():
    obs = model.GaussianObs([0.0, 1.0], [0.01, 0.01])
    disc = model.discretize_gaussian(obs, bins=101)
    assert disc.matrix.shape == (2, 101)
    assert np.max(np.abs(disc.matrix.sum(axis=1) - 1.0)) < 1e-12


def test_discretize_identical_states_give_identical_rows():
    obs = model.GaussianObs([0.3, 0.3], [0.5, 0.5])
    disc = model.discretize_gaussian(obs, bins=21)
    assert np.array_equal(disc.matrix[0], disc.matrix[1])


def test_discretize_equal_variance_rows_are_tp2():
    from phasestop import orders

    obs = model.GaussianObs([0.0, 1.0], [0.01, 0.01])
    disc = model.discretize_gaussian(obs, bins=101)
    assert orders.is_tp2(disc.matrix)


def test_discretize_rejects_bad_inputs():
    with pytest.raises(ValueError):
        model.GaussianObs([0.0, 1.0], [0.01, -0.01])
    nan, inf = float("nan"), float("inf")
    with pytest.raises(ValueError, match="means must be finite"):
        model.GaussianObs([0.0, nan], [1.0, 1.0])
    for variance in (nan, inf):
        with pytest.raises(ValueError, match="variances must be strictly positive and finite"):
            model.GaussianObs([0.0, 1.0], [1.0, variance])
    for bad in ([[nan, 0.2], [0.2, 0.8]], [[0.8, 0.2], [0.2, nan]], [[inf, 0.2], [0.2, 0.8]]):
        with pytest.raises(ValueError, match="observation"):
            model.DiscreteObs(bad)
    with pytest.raises(ValueError):
        model.discretize_gaussian(model.GaussianObs([0.0], [1.0]), bins=2)


def test_dirichlet_sampler_means_and_determinism():
    rng = np.random.default_rng(123)
    draws = np.array([model.dirichlet_uniform_sample(3, rng) for _ in range(100_000)])
    assert np.max(np.abs(draws.mean(axis=0) - 1.0 / 3.0)) < 0.01
    draws2 = np.array(
        [model.dirichlet_uniform_sample(2, np.random.default_rng(7)) for _ in range(3)]
    )
    draws3 = np.array(
        [model.dirichlet_uniform_sample(2, np.random.default_rng(7)) for _ in range(3)]
    )
    assert np.array_equal(draws2, draws3)
    assert abs(draws.sum(axis=1).max() - 1.0) < 1e-12


def test_spectral_radius_basics():
    assert model.spectral_radius(np.array([[1.0]])) == pytest.approx(1.0, abs=1e-9)
    assert model.spectral_radius(np.array([[0.6, 0.1], [0.2, 0.7]])) == pytest.approx(
        np.max(np.abs(np.linalg.eigvals([[0.6, 0.1], [0.2, 0.7]]))), abs=1e-8
    )
    assert model.spectral_radius(np.zeros((2, 2))) == 0.0


@pytest.mark.parametrize("block", [[[0, 1], [0.5, 0]], [[0, 1], [0.01, 0]]])
def test_spectral_radius_of_a_periodic_block(block):
    # eigenvalues +-r of equal modulus: a power iteration oscillates on them
    # (0.667 for the first block, 0.0198 for the second)
    expected = np.abs(np.linalg.eigvals(block)).max()
    assert model.spectral_radius(np.array(block)) == pytest.approx(expected, rel=1e-12)
    assert expected == pytest.approx(np.sqrt(block[1][0]), rel=1e-12)


@pytest.mark.parametrize("closed", [[[0, 1], [1, 0]], [[0.5, 0.5], [0.5, 0.5]]])
@pytest.mark.parametrize("tag", ["strict", "relaxed"])
def test_a_closed_pre_change_class_is_not_transient(closed, tag):
    # phases 2 and 3 never leave each other, so from them the change never
    # comes; phase 4's slow exit kept a power iteration's radius below 1
    p = np.zeros((4, 4))
    p[0, 0] = 1.0
    p[1:3, 1:3] = closed
    p[3, 3], p[3, 0] = 0.999999, 0.000001
    m = model.DetectionModel(p, [0, 0.5, 0.5, 0], model.DiscreteObs(np.full((4, 2), 0.5)))
    problems = model.validate_model(m, tag)
    assert len(problems) == 1 and problems[0].startswith("pre-change states not transient")


def test_cost_spec_validation():
    with pytest.raises(ValueError):
        model.QuickestPredictiveDelay(alpha=-1, beta=1, d=1, rho=1)
    # NaN passes a "< 0" test; a NaN or infinite cost makes every value NaN
    for alpha in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="alpha must be finite and non-negative"):
            model.QuickestPredictiveDelay(alpha=alpha, beta=1, d=1, rho=1)
    with pytest.raises(ValueError, match="false_alarm must be finite and non-negative"):
        model.QuickestClassicalDelay(alpha=0, beta=1, d=1, rho=0.9, false_alarm=[0, float("nan")])
    with pytest.raises(ValueError):
        model.QuickestPredictiveDelay(alpha=0, beta=1, d=1, rho=1.2)
    with pytest.raises(ValueError):
        model.QuickestClassicalDelay(alpha=0, beta=1, d=1, rho=0.9, false_alarm=[0.5, 1])
    with pytest.raises(ValueError):
        model.ConstrainedSocial(local_costs=[[1, 2], [0.5, 0.2]], d=1, beta=1, rho=1.0)
    # a row summing to 0.9, and a row summing to 1 through a negative entry
    for confusion in ([[0.8, 0.1], [0.2, 0.8]], [[1.1, -0.1], [0.2, 0.8]]):
        with pytest.raises(ValueError, match="confusion matrix must be row-stochastic"):
            model.Scheduling(
                alpha1=1,
                alpha2=1,
                c1=[0, 0],
                c2=[1, 1],
                g=[0, 1],
                rho=0.9,
                obs_hi=model.DiscreteObs([[0.9, 0.1], [0.1, 0.9]]),
                confusion=confusion,
            )


# one valid parameter set per family, every field given
VALID_COSTS = {
    model.QuickestPredictiveDelay: dict(alpha=0.5, beta=1, d=1, rho=0.9, op_cost=0.1),
    model.QuickestClassicalDelay: dict(alpha=0, beta=1, d=1, rho=0.9, false_alarm=[0, 1]),
    model.TransientDetection: dict(alpha=0, beta=1, delays=[0, 1], rho=0.9, false_alarm=[0, 1]),
    model.RiskSensitive: dict(risk=0.1, beta=1, d=1),
    model.SocialStopping: dict(d=1.8, beta=2, rho=0.9, local_costs=[[4.57, 5.57], [2.57, 0]], include_welfare=True),
    model.ConstrainedSocial: dict(local_costs=[[2, 1], [1.9, 0.9]], d=1, beta=2, rho=0.5),
    model.Scheduling: dict(
        alpha1=2.5, alpha2=0.5, c1=[0.1, 0.15], c2=[0.5, 0.65], g=[0, 1], rho=0.8,
        obs_hi=[[0.9, 0.1], [0.1, 0.9]], confusion=[[0.8, 0.2], [0.2, 0.8]],
    ),
}
NAN = float("nan")
# values of the wrong kind, by the kind they are given for
WRONG_KIND = {
    "Rate": [True, [1.0], "abc", None],
    "Discount": [False, [0.5], None],
    "Vector": [0.5, [[0.0, 1.0]], "abc"],
    "Signed": [0.5, [[0.0, 1.0]], [0.0, NAN]],
    "Matrix": [[0.5, 0.5], 1.0, [[0.5, NAN], [0.5, 0.5]]],
    "DiscreteObs": [[0.5, 0.5], [[0.5, NAN], [0.5, 0.5]]],
    "bool": [1, "yes", None],
}


def _kind(f):
    return f.type.split(" | ")[0]


def test_every_cost_field_declares_a_kind_the_converter_knows():
    assert set(VALID_COSTS) == set(model.FAMILIES)
    for cls in model.FAMILIES:
        assert set(VALID_COSTS[cls]) == {f.name for f in dataclasses.fields(cls)}
        for f in dataclasses.fields(cls):
            assert _kind(f) in model._KINDS and _kind(f) in WRONG_KIND, (cls.family, f.name, f.type)


@pytest.mark.parametrize(
    "cls, name, value",
    [
        (cls, f.name, value)
        for cls in model.FAMILIES
        for f in dataclasses.fields(cls)
        for value in WRONG_KIND[_kind(f)]
    ],
    ids=lambda v: v.family if isinstance(v, type) else None,
)
def test_a_cost_field_of_the_wrong_kind_is_a_value_error_naming_it(cls, name, value):
    # Python callers get the checks a config gets: no IndexError on a scalar
    # false-alarm vector, no AxisError on a vector confusion matrix, and no
    # spec holding a matrix where a vector belongs
    with pytest.raises(ValueError, match=rf"^{name}\b"):
        cls(**{**VALID_COSTS[cls], name: value})


def test_cost_fields_are_converted_to_their_kind():
    spec = model.Scheduling(**VALID_COSTS[model.Scheduling])
    assert isinstance(spec.obs_hi, model.DiscreteObs) and spec.obs_hi.matrix.dtype == float
    assert type(spec.alpha1) is float and spec.c1.dtype == float and spec.confusion.shape == (2, 2)
    # a field whose default is None keeps None; a required one does not take it
    assert model.TransientDetection(**{**VALID_COSTS[model.TransientDetection], "false_alarm": None}).false_alarm is None
    with pytest.raises(model.ParameterError, match="^false_alarm: expected a vector, got None$"):
        model.QuickestClassicalDelay(**{**VALID_COSTS[model.QuickestClassicalDelay], "false_alarm": None})


def test_risk_scalings():
    spec = model.RiskSensitive(risk=1.0, beta=2.0, d=1.0)
    r1, r2 = spec.scalings(np.array([[1.0, 0.0], [0.5, 0.5]]))
    assert np.allclose(r1, [1.0, np.exp(2.0)])
    assert np.allclose(r2, [np.e, np.exp(0.5)])


def test_detection_model_takes_only_a_discrete_observation_matrix():
    gauss = model.GaussianObs([0.0, 1.0], [0.01, 0.01])
    with pytest.raises(TypeError, match="DiscreteObs"):
        model.DetectionModel([[1, 0], [0.5, 0.5]], [0, 1], gauss)
    obs = model.discretize_gaussian(gauss, 31)
    m = model.DetectionModel([[1, 0], [0.5, 0.5]], [0, 1], obs)
    assert m.discrete_obs() is obs
    with pytest.raises(TypeError):
        m.discrete_obs(101)


def test_detection_model_needs_one_observation_row_per_state():
    three_rows = model.DiscreteObs([[0.8, 0.2], [0.2, 0.8], [0.5, 0.5]])
    with pytest.raises(ValueError, match="observation matrix row count"):
        model.DetectionModel([[1, 0], [0.5, 0.5]], [0, 1], three_rows)
    # and finite transition and initial entries
    obs = model.DiscreteObs([[0.8, 0.2], [0.2, 0.8]])
    nan = float("nan")
    for transition, initial in (([[1, 0], [0.3, nan]], [0, 1]), ([[1, 0], [0.3, 0.7]], [nan, 1])):
        with pytest.raises(ValueError, match="entries must be finite"):
            model.DetectionModel(transition, initial, obs)


# each detection family's original (stop, continue) costs, written out
def _predictive_costs(spec, m, pts):
    p1, q1 = pts[:, 0], pts @ m.transition[:, 0]
    return spec.alpha * (p1 - p1 * p1) + spec.beta * (1.0 - p1), spec.d * q1 + spec.op_cost


def _classical_costs(spec, m, pts):
    p1 = pts[:, 0]
    return spec.alpha * (p1 - p1 * p1) + spec.beta * (pts @ spec.false_alarm), spec.d * p1


def _transient_costs(spec, m, pts):
    fpi = pts @ (np.eye(3)[-1] if spec.false_alarm is None else spec.false_alarm)
    return spec.alpha * (fpi - fpi * fpi) + spec.beta * fpi, pts @ spec.delays


DETECTION_CASES = {
    "predictive": (
        model.QuickestPredictiveDelay(alpha=0.7, beta=1.3, d=2.0, rho=0.9, op_cost=1e-3),
        _predictive_costs,
    ),
    "classical": (
        model.QuickestClassicalDelay(alpha=0.4, beta=2.0, d=1.0, rho=0.95, false_alarm=[0, 1, 1.5]),
        _classical_costs,
    ),
    "transient": (
        model.TransientDetection(alpha=0.5, beta=1.0, delays=[1.0, 1.5, 0.0], rho=0.9),
        _transient_costs,
    ),
    "transient-false-alarm": (
        model.TransientDetection(
            alpha=0.0, beta=2.0, delays=[1.0, 1.5, 0.0], rho=1.0, false_alarm=[0, 1, 1.2]
        ),
        _transient_costs,
    ),
}


@pytest.mark.parametrize("case", sorted(DETECTION_CASES))
def test_continue_costs_match_stage_costs(three_state_model, case):
    spec, written_out = DETECTION_CASES[case]
    m = three_state_model
    pts = np.vstack([np.eye(3), np.random.default_rng(11).dirichlet(np.ones(3), size=1000)])
    for original in (True, False):
        cont = spec.stage_costs(m, pts, original)[1]
        alone = spec.continue_costs(m, pts, original)
        assert alone.dtype == cont.dtype and alone.tobytes() == cont.tobytes(), original
    stop, cont = spec.stage_costs(m, pts, True)
    want_stop, want_cont = written_out(spec, m, pts)
    assert stop.tobytes() == want_stop.tobytes() and cont.tobytes() == want_cont.tobytes()

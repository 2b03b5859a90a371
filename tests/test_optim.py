import math

import numpy as np
import pytest

from eqnn.circuit import Circuit, Gate, Input, Weight
from eqnn.data import Dataset, Sample, gen_linear, gen_two_class_usage
from eqnn.errors import (
    ConfigurationError,
    NonFiniteLossError,
    UnsupportedModelError,
    UsageError,
)
from eqnn.optim import (
    Objective,
    OptimizerConfig,
    initial_weights,
    make_objective,
    minimize,
    parameter_shift_gradient,
)
from eqnn.qnn import (
    CROSS_ENTROPY,
    PARITY,
    REGRESSION,
    SQUARED_ERROR,
    QnnModel,
    batch_loss,
    build_model,
    forward,
    simplified_model,
)


def quadratic(center):
    center = np.asarray(center, dtype=float)

    def fun(w):
        return float(np.sum((w - center) ** 2))

    def grad(w):
        return 2.0 * (w - center)

    return fun, grad


def one_sample(x, y):
    return Dataset((Sample((float(x),), float(y)),), "regression", "toy", 0)


# --------------------------------------------------------------------------
# Config and plumbing


def test_config_validation():
    with pytest.raises(UsageError):
        OptimizerConfig(kind="adam")
    with pytest.raises(ConfigurationError):
        OptimizerConfig(kind="spsa", max_iters=0)
    with pytest.raises(ConfigurationError):
        OptimizerConfig(kind="aqgd", learning_rate=0.0)
    with pytest.raises(ConfigurationError):
        OptimizerConfig(kind="spsa", spsa_c=-0.1)


def test_minimize_checks_dimensions():
    fun, _ = quadratic([0.0, 0.0])
    objective = Objective(fun=fun, dim=2)
    with pytest.raises(UsageError):
        minimize(objective, [1.0], OptimizerConfig(kind="cobyla"))


def test_initial_weights_seeded_uniform():
    w = initial_weights(6, seed=9)
    again = initial_weights(6, seed=9)
    np.testing.assert_array_equal(w, again)
    assert w.shape == (6,)
    assert np.all(np.abs(w) <= math.pi)
    assert not np.array_equal(w, initial_weights(6, seed=10))


# --------------------------------------------------------------------------
# COBYLA


def test_cobyla_scalar_quadratic_converges():
    fun, _ = quadratic([2.0])
    trace = minimize(
        Objective(fun=fun, dim=1), [0.0], OptimizerConfig(kind="cobyla", max_iters=100)
    )
    assert abs(trace.final_weights[0] - 2.0) < 1e-3
    assert trace.final_loss <= trace.losses[0]
    assert np.all(np.diff(trace.losses) <= 0)  # incumbent trace never rises
    assert 1 <= trace.iterations <= 100
    assert trace.evaluations >= trace.iterations


def test_cobyla_may_stop_early_without_padding():
    fun, _ = quadratic([0.3, -0.7])
    trace = minimize(
        Objective(fun=fun, dim=2), [2.0, 2.0], OptimizerConfig(kind="cobyla", max_iters=1000)
    )
    assert trace.iterations < 1000
    assert trace.final_loss < 1e-6


def test_cobyla_is_deterministic():
    model = build_model("eqnn1")
    dataset = gen_two_class_usage(per_class=20, seed=4)
    objective = make_objective(model, dataset, CROSS_ENTROPY)
    w0 = initial_weights(model.n_weights, seed=4)
    config = OptimizerConfig(kind="cobyla", max_iters=25, seed=4)
    a, b = minimize(objective, w0, config), minimize(objective, w0, config)
    np.testing.assert_array_equal(a.losses, b.losses)
    np.testing.assert_array_equal(a.final_weights, b.final_weights)
    assert a.evaluations == b.evaluations


# --------------------------------------------------------------------------
# SPSA


def test_spsa_default_calibration_reaches_quadratic_minimum():
    fun, _ = quadratic([1.0])
    trace = minimize(
        Objective(fun=fun, dim=1), [0.0], OptimizerConfig(kind="spsa", max_iters=100, seed=3)
    )
    assert trace.final_loss < 1e-2
    assert trace.iterations == 100
    # 20 calibration pairs + (2 probes + 1 incumbent) per iteration
    assert trace.evaluations == 40 + 3 * 100


def test_spsa_explicit_gain_follows_exact_recurrence():
    # On a 1-d quadratic the perturbation cancels out of the update, so the
    # whole trajectory is a deterministic recurrence in the gain schedule.
    a, c, stability, alpha, gamma = 0.1, 0.1, 10.0, 0.602, 0.101
    w, expected = 0.0, []
    for k in range(100):
        a_k = a / (k + 1 + stability) ** alpha
        w = w - a_k * 2.0 * (w - 1.0)
        expected.append((w - 1.0) ** 2)
    fun, _ = quadratic([1.0])
    trace = minimize(
        Objective(fun=fun, dim=1),
        [0.0],
        OptimizerConfig(kind="spsa", max_iters=100, seed=12, spsa_a=a, spsa_c=c),
    )
    np.testing.assert_allclose(trace.losses, expected, atol=1e-12)
    assert trace.evaluations == 3 * 100  # no calibration when the gain is pinned


def test_spsa_same_seed_bit_identical():
    model = build_model("eqnn1")
    dataset = gen_two_class_usage(per_class=20, seed=6)
    objective = make_objective(model, dataset, CROSS_ENTROPY)
    w0 = initial_weights(model.n_weights, seed=6)
    config = OptimizerConfig(kind="spsa", max_iters=30, seed=6)
    a, b = minimize(objective, w0, config), minimize(objective, w0, config)
    np.testing.assert_array_equal(a.losses, b.losses)
    np.testing.assert_array_equal(a.final_weights, b.final_weights)
    different = minimize(objective, w0, OptimizerConfig(kind="spsa", max_iters=30, seed=7))
    assert not np.array_equal(a.losses, different.losses)


# --------------------------------------------------------------------------
# AQGD


def test_aqgd_quadratic_converges_monotonically():
    fun, grad = quadratic([0.0, 0.0, 0.0, 0.0])
    trace = minimize(
        Objective(fun=fun, dim=4, grad=grad),
        [1.0, 1.0, 1.0, 1.0],
        OptimizerConfig(kind="aqgd", max_iters=100),
    )
    assert trace.final_loss < 1e-6
    assert np.all(np.diff(trace.losses) <= 0)
    assert trace.iterations == 100
    # one objective call per iteration plus 2*dim gradient-equivalent passes
    assert trace.evaluations == 100 * (2 * 4 + 1)


def test_aqgd_requires_gradient():
    fun, _ = quadratic([0.0])
    with pytest.raises(UsageError):
        minimize(Objective(fun=fun, dim=1), [1.0], OptimizerConfig(kind="aqgd"))


def test_aqgd_momentum_is_available_but_off_by_default():
    config = OptimizerConfig(kind="aqgd")
    assert config.momentum == 0.0
    fun, grad = quadratic([0.0])
    heavy = minimize(
        Objective(fun=fun, dim=1, grad=grad),
        [1.0],
        OptimizerConfig(kind="aqgd", max_iters=50, momentum=0.25),
    )
    assert heavy.final_loss < 1e-6


def test_non_finite_loss_aborts_with_weights():
    def bad(w):
        return math.nan

    for kind in ("cobyla", "spsa"):
        with pytest.raises(NonFiniteLossError) as info:
            minimize(Objective(fun=bad, dim=1), [0.5], OptimizerConfig(kind=kind))
        assert info.value.weights.shape == (1,)

    def explodes(w):
        return math.inf if abs(w[0]) > 10 else float(w[0] ** 2)

    with pytest.raises(NonFiniteLossError):
        minimize(
            Objective(fun=explodes, dim=1, grad=lambda w: -1e6 * np.ones(1)),
            [0.0],
            OptimizerConfig(kind="aqgd", max_iters=5),
        )


# --------------------------------------------------------------------------
# Parameter-shift gradient


def test_shift_gradient_zero_at_stationary_sample():
    # x = 0, y = 0, w = 0: prediction is 0, so dL/dw = 2*y'*dy'/dw = 0.
    grad = parameter_shift_gradient(
        simplified_model(), np.zeros(1), one_sample(0.0, 0.0), SQUARED_ERROR
    )
    assert grad.shape == (1,)
    assert grad[0] == pytest.approx(0.0, abs=1e-14)


def test_shift_rule_recovers_prediction_derivative():
    # dy'/dw at x = 0, w = 0 equals -1; two shifted forwards realize it.
    model = simplified_model()
    up = forward(model, [0.0], [math.pi / 2.0]).y
    down = forward(model, [0.0], [-math.pi / 2.0]).y
    assert (up - down) / 2.0 == pytest.approx(-1.0, abs=1e-12)


def test_shift_gradient_matches_analytic_closed_form():
    model = simplified_model()
    dataset = gen_linear(50, seed=21)
    x = dataset.features_array()[:, 0]
    y = dataset.targets_array()
    for w in (0.3, 2.0, -1.1):
        got = parameter_shift_gradient(model, np.array([w]), dataset, SQUARED_ERROR)
        pred = -np.sin(x + w)
        want = np.mean(2.0 * (pred - y) * (-np.cos(x + w)))
        assert got[0] == pytest.approx(want, abs=1e-12)


def finite_difference(model, w, dataset, kind, h=1e-5):
    grad = np.empty_like(w)
    for j in range(len(w)):
        up, down = w.copy(), w.copy()
        up[j] += h
        down[j] -= h
        grad[j] = (
            batch_loss(model, up, dataset, kind) - batch_loss(model, down, dataset, kind)
        ) / (2.0 * h)
    return grad


def test_shift_gradient_agrees_with_finite_differences():
    rng = np.random.default_rng(40)
    simple = simplified_model()
    for _ in range(6):
        w = rng.uniform(-math.pi, math.pi, 1)
        dataset = one_sample(rng.uniform(-1, 1), rng.uniform(-1, 1))
        got = parameter_shift_gradient(simple, w, dataset, SQUARED_ERROR)
        np.testing.assert_allclose(
            got, finite_difference(simple, w, dataset, SQUARED_ERROR), atol=1e-6
        )
    model = build_model("eqnn2")
    for _ in range(6):
        w = rng.uniform(-math.pi, math.pi, model.n_weights)
        sample = Sample((rng.uniform(0, 1), rng.uniform(0, 1)), int(rng.integers(2)))
        dataset = Dataset((sample,), "classification", "toy", 0)
        got = parameter_shift_gradient(model, w, dataset, CROSS_ENTROPY)
        np.testing.assert_allclose(
            got, finite_difference(model, w, dataset, CROSS_ENTROPY), atol=1e-6
        )


def test_shift_gradient_is_zero_where_cross_entropy_is_clamped():
    # RY(w) RY(x)|0> at x = 0, w = 1e-7: P(label 1) = sin(w/2)^2 ~ 2.5e-15 is
    # below PROB_EPS, so the clamped loss is flat and its derivative is 0.
    model = QnnModel(
        "clamped",
        Circuit(1, (Gate("ry", (0,), Input(0)),)),
        Circuit(1, (Gate("ry", (0,), Weight(0)),)),
        PARITY,
    )
    dataset = Dataset((Sample((0.0,), 1),), "classification", "toy", 0)
    w = np.array([1e-7])
    got = parameter_shift_gradient(model, w, dataset, CROSS_ENTROPY)
    want = finite_difference(model, w, dataset, CROSS_ENTROPY, h=1e-6)
    assert want[0] == 0.0
    np.testing.assert_array_equal(got, want)


def test_shift_gradient_rejects_invalid_weight_placement():
    dataset = one_sample(0.2, 0.1)
    fm = simplified_model().feature_map

    scaled = Circuit(1, (Gate("ry", (0,), 2.0 * Weight(0)),))
    with pytest.raises(UnsupportedModelError):
        parameter_shift_gradient(
            QnnModel("scaled", fm, scaled, REGRESSION), [0.1], dataset, SQUARED_ERROR
        )

    phase_weight = Circuit(1, (Gate("phase", (0,), Weight(0)),))
    with pytest.raises(UnsupportedModelError):
        parameter_shift_gradient(
            QnnModel("phased", fm, phase_weight, REGRESSION), [0.1], dataset, SQUARED_ERROR
        )

    repeated = Circuit(
        1, (Gate("ry", (0,), Weight(0)), Gate("ry", (0,), Weight(0)))
    )
    with pytest.raises(UnsupportedModelError):
        parameter_shift_gradient(
            QnnModel("tied", fm, repeated, REGRESSION), [0.1], dataset, SQUARED_ERROR
        )


def test_shift_gradient_validates_shapes_and_pairing():
    dataset = one_sample(0.2, 0.1)
    with pytest.raises(UsageError):
        parameter_shift_gradient(simplified_model(), [0.1, 0.2], dataset, SQUARED_ERROR)
    with pytest.raises(UsageError):
        parameter_shift_gradient(simplified_model(), [0.1], dataset, CROSS_ENTROPY)


def test_make_objective_wires_loss_and_gradient():
    model = simplified_model()
    dataset = gen_linear(30, seed=2)
    objective = make_objective(model, dataset, SQUARED_ERROR)
    assert objective.dim == 1
    w = np.array([0.7])
    assert objective.fun(w) == pytest.approx(
        batch_loss(model, w, dataset, SQUARED_ERROR)
    )
    np.testing.assert_array_equal(
        objective.grad(w), parameter_shift_gradient(model, w, dataset, SQUARED_ERROR)
    )


def test_training_simplified_model_end_to_end():
    dataset = gen_linear(60, seed=42)
    objective = make_objective(simplified_model(), dataset, SQUARED_ERROR)
    trace = minimize(
        objective,
        initial_weights(1, seed=42),
        OptimizerConfig(kind="aqgd", max_iters=60, seed=42),
    )
    assert abs(abs(trace.final_weights[0]) - math.pi) < 0.05
    assert trace.final_loss < 5e-3

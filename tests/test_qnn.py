import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import strategies
from eqnn.circuit import Circuit, Gate, Input, Weight, bind, build_efm, build_real_amplitudes
from eqnn.data import Dataset, Sample, gen_linear, gen_two_class_usage
from eqnn.errors import UsageError
from eqnn.qnn import (
    CROSS_ENTROPY,
    PARITY,
    PROB_EPS,
    SQUARED_ERROR,
    QnnModel,
    accuracy,
    batch_loss,
    build_model,
    decide,
    forward,
    gate_summary,
    parity_signs,
    predict_probs,
    predict_regression,
    probabilities_batch,
    simplified_model,
    simulate,
)

ALL_NAMED = ("benchmark", "eqnn1", "eqnn2", "eqnn3")


def tiny_class_set(points):
    samples = tuple(Sample((float(a), float(b)), int(y)) for a, b, y in points)
    return Dataset(samples, "classification", "toy", 0)


def one_row(features, target, kind):
    return Dataset((Sample(tuple(features), target),), kind, "toy", 0)


def ry_parity_model():
    """1 qubit, RY(x) then RY(w), parity head: at x = w = 0 the state is |0> exactly."""
    feature_map = Circuit(1, (Gate("ry", (0,), Input(0)),))
    variational = Circuit(1, (Gate("ry", (0,), Weight(0)),))
    return QnnModel("ry-parity", feature_map, variational, PARITY)


def predicted_class(model, x, w):
    return decide(*predict_probs(model, [x], w)[0])


# --------------------------------------------------------------------------
# Model assembly


def test_model_shapes():
    model = simplified_model()
    assert (model.n_qubits, model.n_inputs, model.n_weights) == (1, 1, 1)
    for name, weights in zip(ALL_NAMED, (8, 4, 6, 8)):
        m = build_model(name)
        assert (m.n_qubits, m.n_inputs, m.n_weights) == (2, 2, weights)
        assert m.head == PARITY


def test_gate_summaries():
    expected = {
        "benchmark": (7, 11, 18),
        "eqnn1": (5, 5, 10),
        "eqnn2": (5, 8, 13),
        "eqnn3": (5, 11, 16),
    }
    for name, (fm, var, total) in expected.items():
        counts = gate_summary(build_model(name))
        assert (counts["feature_map"], counts["variational"], counts["total"]) == (
            fm, var, total,
        )


def test_model_validation():
    with pytest.raises(UsageError):
        build_model("eqnn4")
    with pytest.raises(UsageError):
        QnnModel("bad", build_efm(), build_real_amplitudes(3, 1), PARITY)
    with pytest.raises(UsageError):
        QnnModel("bad", build_efm(), build_real_amplitudes(2, 1), "softmax")
    weighted_fm = Circuit(2, (Gate("ry", (0,), Weight(0)),))
    with pytest.raises(UsageError):
        QnnModel("bad", weighted_fm, build_real_amplitudes(2, 1), PARITY)
    input_var = Circuit(2, (Gate("ry", (0,), Input(0)),))
    with pytest.raises(UsageError):
        QnnModel("bad", build_efm(), input_var, PARITY)


def test_parity_signs():
    np.testing.assert_array_equal(parity_signs(1), [1.0, -1.0])
    np.testing.assert_array_equal(parity_signs(2), [1.0, -1.0, -1.0, 1.0])
    assert parity_signs(3)[[0, 3, 5, 6]].tolist() == [1.0, 1.0, 1.0, 1.0]


# --------------------------------------------------------------------------
# Forward


def test_forward_uniform_point_is_zero():
    assert forward(simplified_model(), [0.0], [0.0]).y == pytest.approx(0.0, abs=1e-15)


def test_forward_matches_closed_form_and_matrix_oracle():
    rng = np.random.default_rng(30)
    model = simplified_model()
    for _ in range(1000):
        x, w = rng.uniform(-math.pi, math.pi, 2)
        y = forward(model, [x], [w]).y
        assert abs(y - math.cos(x + w + math.pi / 2)) < 1e-10
        assert abs(y - oracles.simplified_prediction(x, w)) < 1e-12


def test_forward_value_at_quoted_weight():
    # The model's own output at w = 3.14150444, x = 0.1, frozen against the
    # closed form -sin(x + w) and the independent matrix oracle.
    y = forward(simplified_model(), [0.1], [3.14150444]).y
    assert y == pytest.approx(-math.sin(0.1 + 3.14150444), abs=1e-12)
    assert y == pytest.approx(0.0997456433692298, abs=1e-12)
    assert y == pytest.approx(oracles.simplified_prediction(0.1, 3.14150444), abs=1e-12)


def test_forward_is_periodic_in_weights():
    rng = np.random.default_rng(31)
    model = build_model("eqnn2")
    w = rng.uniform(-math.pi, math.pi, model.n_weights)
    x = rng.uniform(0, 1, 2)
    base = forward(model, x, w)
    for j in range(model.n_weights):
        shifted = w.copy()
        shifted[j] += 4.0 * math.pi
        moved = forward(model, x, shifted)
        assert moved.p0 == pytest.approx(base.p0, abs=1e-10)


def test_forward_output_ranges():
    rng = np.random.default_rng(32)
    simple = simplified_model()
    for _ in range(50):
        y = forward(simple, rng.uniform(-2, 2, 1), rng.uniform(-7, 7, 1)).y
        assert -1.0 <= y <= 1.0
    model = build_model("eqnn3")
    for _ in range(50):
        pred = forward(model, rng.uniform(0, 1, 2), rng.uniform(-7, 7, model.n_weights))
        assert 0.0 <= pred.p0 <= 1.0 and 0.0 <= pred.p1 <= 1.0
        assert pred.p0 + pred.p1 == pytest.approx(1.0, abs=1e-12)


def test_regression_and_parity_heads_agree_on_one_qubit():
    base = simplified_model()
    parity_variant = QnnModel("simplified-parity", base.feature_map, base.variational, PARITY)
    rng = np.random.default_rng(33)
    for _ in range(25):
        x, w = rng.uniform(-2, 2, 2)
        y = forward(base, [x], [w]).y
        probs = forward(parity_variant, [x], [w])
        assert probs.p0 - probs.p1 == pytest.approx(y, abs=1e-14)


def test_class_probs_are_even_and_odd_basis_sums():
    model = build_model("eqnn1")
    rng = np.random.default_rng(34)
    X = rng.uniform(0, 1, (10, 2))
    w = rng.uniform(-math.pi, math.pi, model.n_weights)
    basis = probabilities_batch(model, X, w)
    pair = predict_probs(model, X, w)
    np.testing.assert_allclose(pair[:, 0], basis[:, 0] + basis[:, 3], atol=1e-14)
    np.testing.assert_allclose(pair[:, 1], basis[:, 1] + basis[:, 2], atol=1e-14)


def test_forward_arity_validation():
    model = build_model("eqnn1")
    with pytest.raises(UsageError):
        forward(model, [0.1], [0.0, 0.0])
    with pytest.raises(UsageError):
        forward(model, [0.1, 0.2], [0.0])


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_batch_rows_equal_single_state_simulation(data):
    # Named models and random circuits (h/phase/ry/cnot on 1-4 qubits):
    # every batch row is exactly the one-row simulation, and both match
    # the dense matrix product of the bound gates.
    model = data.draw(
        st.one_of(st.sampled_from(ALL_NAMED).map(build_model), strategies.models())
    )
    X = data.draw(strategies.rows(data.draw(st.integers(1, 8)), model.n_inputs))
    w = data.draw(strategies.weights(model.n_weights))
    batch = probabilities_batch(model, X, w)
    assert batch.shape == (len(X), 1 << model.n_qubits)
    for x, row in zip(X, batch):
        single = simulate(model.circuit, x, w).amps
        np.testing.assert_array_equal(row, np.abs(single) ** 2)
        dense = oracles.circuit_state(
            model.n_qubits, [(g.name, g.qubits, g.angle) for g in bind(model.circuit, x, w)]
        )
        np.testing.assert_allclose(single, dense, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(row, np.abs(dense) ** 2, rtol=0.0, atol=1e-12)


def test_batch_walked_in_blocks_equals_single_state_simulation():
    # 2 qubits walk 1024 rows per block; 2051 rows span three blocks,
    # the last a partial one.
    model = build_model("benchmark")
    X = np.random.default_rng(3).uniform(-1.0, 1.0, size=(2051, model.n_inputs))
    w = np.linspace(-1.0, 1.0, model.n_weights)
    batch = probabilities_batch(model, X, w)
    singles = [np.abs(simulate(model.circuit, x, w).amps) ** 2 for x in X]
    np.testing.assert_array_equal(batch, np.array(singles))


# --------------------------------------------------------------------------
# Losses


def test_squared_error_examples():
    model, w = simplified_model(), np.array([0.7])
    y = forward(model, [0.3], w).y
    assert batch_loss(model, w, one_row([0.3], y, "regression"), SQUARED_ERROR) == 0.0
    off = one_row([0.3], y - 0.5, "regression")
    assert batch_loss(model, w, off, SQUARED_ERROR) == pytest.approx(0.25)


def test_cross_entropy_examples():
    model, w = ry_parity_model(), np.array([0.0])
    certain = one_row([0.0], 0, "classification")
    assert batch_loss(model, w, certain, CROSS_ENTROPY) == pytest.approx(0.0)
    even_odds = one_row([math.pi / 2], 1, "classification")
    assert batch_loss(model, w, even_odds, CROSS_ENTROPY) == pytest.approx(
        math.log(2.0), abs=1e-12
    )
    # confidently wrong: P(label) is exactly 0, clamped at 1e-12, not infinite
    assert predict_probs(model, [[0.0]], w)[0, 1] == 0.0
    wrong = batch_loss(model, w, one_row([0.0], 1, "classification"), CROSS_ENTROPY)
    assert wrong == pytest.approx(-math.log(PROB_EPS))
    assert math.isfinite(wrong)


def test_cross_entropy_zero_only_at_one_hot_match():
    # P(class 0) = cos^2(x/2) with w = 0, so x in [0.2, 2.9] keeps it in (0.01, 0.99).
    model, w = ry_parity_model(), np.array([0.0])
    rng = np.random.default_rng(36)
    for _ in range(50):
        row = one_row([rng.uniform(0.2, 2.9)], 0, "classification")
        assert batch_loss(model, w, row, CROSS_ENTROPY) > 0.0


def test_batch_loss_single_and_duplicate_sample():
    model = simplified_model()
    single = Dataset((Sample((0.4,), 0.4),), "regression", "toy", 0)
    doubled = Dataset((Sample((0.4,), 0.4),) * 2, "regression", "toy", 0)
    w = np.array([1.0])
    per_sample = oracles.per_row_loss(forward(model, [0.4], w), 0.4, SQUARED_ERROR)
    assert batch_loss(model, w, single, SQUARED_ERROR) == pytest.approx(per_sample, abs=1e-12)
    assert batch_loss(model, w, doubled, SQUARED_ERROR) == pytest.approx(per_sample, abs=1e-12)


def test_batch_loss_linear_dataset_at_pi_matches_closed_form():
    dataset = gen_linear(200, seed=5)
    model = simplified_model()
    got = batch_loss(model, np.array([math.pi]), dataset, SQUARED_ERROR)
    x = dataset.features_array()[:, 0]
    want = np.mean((np.sin(x) - x) ** 2)
    assert got == pytest.approx(want, abs=1e-12)


def test_batch_loss_validates_pairing():
    model = simplified_model()
    regression = gen_linear(10, seed=0)
    classes = tiny_class_set([(0.1, 0.2, 0), (0.8, 0.9, 1)])
    empty = Dataset((), "regression", "toy", 0)
    with pytest.raises(UsageError):
        batch_loss(model, [0.0], empty, SQUARED_ERROR)
    with pytest.raises(UsageError):
        batch_loss(model, [0.0], regression, CROSS_ENTROPY)
    with pytest.raises(UsageError):
        batch_loss(build_model("eqnn1"), [0.0, 0.0], regression, CROSS_ENTROPY)
    with pytest.raises(UsageError):
        batch_loss(build_model("eqnn1"), [0.0, 0.0], classes, SQUARED_ERROR)
    with pytest.raises(UsageError):
        batch_loss(model, [0.0], regression, "hinge")


def test_batch_cross_entropy_matches_per_sample_loss():
    model = build_model("eqnn1")
    dataset = gen_two_class_usage(per_class=10, seed=3)
    w = np.array([0.3, -1.2, 0.7, 2.1])
    want = np.mean([
        oracles.per_row_loss(forward(model, s.features, w), s.target, CROSS_ENTROPY)
        for s in dataset.samples
    ])
    assert batch_loss(model, w, dataset, CROSS_ENTROPY) == pytest.approx(want, abs=1e-12)


# --------------------------------------------------------------------------
# Classification decisions


def test_decision_rule_tie_goes_to_class_zero():
    assert decide(0.5, 0.5) == 0
    assert decide(0.7, 0.3) == 0
    assert decide(0.3, 0.7) == 1
    np.testing.assert_array_equal(
        decide(np.array([0.5, 0.7, 0.3]), np.array([0.5, 0.3, 0.7])), [0, 0, 1]
    )


def test_predict_class_near_tie_follows_strict_comparison():
    # With all-zero weights the economical encoder at x = (0.75, 0.75)
    # leaves the uniform state; P(even) equals 0.5 to rounding, and the
    # decision follows the strict comparison on the computed floats.
    model = build_model("eqnn1")
    w = np.zeros(model.n_weights)
    pred = forward(model, [0.75, 0.75], w)
    assert pred.p0 == pytest.approx(0.5, abs=1e-12)
    assert predicted_class(model, [0.75, 0.75], w) == (1 if pred.p1 > pred.p0 else 0)


def test_predict_class_follows_larger_probability():
    model = build_model("eqnn1")
    rng = np.random.default_rng(37)
    for _ in range(50):
        x = rng.uniform(0, 1, 2)
        w = rng.uniform(-math.pi, math.pi, model.n_weights)
        pred = forward(model, x, w)
        assert predicted_class(model, x, w) == (1 if pred.p1 > pred.p0 else 0)


def test_accuracy_toy_extremes():
    model = build_model("eqnn1")
    w = np.array([0.9, -0.4, 1.7, 0.2])
    points = [(0.05, 0.1, None), (0.9, 0.95, None), (0.3, 0.55, None)]
    labels = [predicted_class(model, (a, b), w) for a, b, _ in points]
    right = tiny_class_set([(a, b, y) for (a, b, _), y in zip(points, labels)])
    wrong = tiny_class_set([(a, b, 1 - y) for (a, b, _), y in zip(points, labels)])
    assert accuracy(model, w, right) == 1.0
    assert accuracy(model, w, wrong) == 0.0


def test_accuracy_equals_mean_of_single_predictions():
    model = build_model("eqnn2")
    dataset = gen_two_class_usage(per_class=15, seed=8)
    w = np.random.default_rng(38).uniform(-math.pi, math.pi, model.n_weights)
    singles = np.mean([
        predicted_class(model, s.features, w) == s.target for s in dataset.samples
    ])
    assert accuracy(model, w, dataset) == pytest.approx(singles)


def test_accuracy_validates_inputs():
    with pytest.raises(UsageError):
        accuracy(simplified_model(), [0.0], gen_linear(5, seed=0))
    with pytest.raises(UsageError):
        accuracy(build_model("eqnn1"), [0.0, 0.0], Dataset((), "classification", "toy", 0))


def test_predict_regression_batch_matches_forward():
    model = simplified_model()
    rng = np.random.default_rng(39)
    X = rng.uniform(-1, 1, (25, 1))
    w = np.array([2.2])
    batch = predict_regression(model, X, w)
    singles = [forward(model, row, w).y for row in X]
    np.testing.assert_array_equal(batch, singles)

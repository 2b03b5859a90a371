import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import strategies
from eqnn.circuit import (
    Circuit,
    Const,
    Gate,
    Input,
    Weight,
    bind,
    build_benchmark_feature_map,
    build_efm,
    build_real_amplitudes,
    circuit_to_dict,
    concat,
    diagram,
    evaluate,
    expr_str,
)
from eqnn.errors import ConfigurationError, UsageError
from eqnn.qnn import build_model, probabilities_batch, simulate


# --------------------------------------------------------------------------
# Expressions


def test_expression_arithmetic_and_evaluation():
    expr = 2.0 * Input(0) - 1.5
    assert evaluate(expr, [0.75], []) == pytest.approx(0.0)
    assert evaluate(expr, [0.0], []) == pytest.approx(-1.5)
    pair = 2.0 * (Const(math.pi) - Input(0)) * (Const(math.pi) - Input(1))
    assert evaluate(pair, [0.0, 0.0], []) == pytest.approx(2.0 * math.pi**2)
    assert evaluate(pair, [math.pi, 0.3], []) == pytest.approx(0.0)
    assert evaluate(Weight(1) + Input(0), [0.25], [10.0, 20.0]) == pytest.approx(20.25)


def test_expression_batch_evaluation_broadcasts():
    expr = 2.0 * Input(1) - 1.5
    X = np.array([[0.0, 0.0], [0.5, 1.0], [0.25, 0.75]])
    np.testing.assert_allclose(evaluate(expr, X, []), [-1.5, 0.5, 0.0])


def test_expression_rendering():
    assert expr_str(2.0 * Input(0) - 1.5) == "2.0*x0 - 1.5"
    assert expr_str(Weight(3)) == "w3"
    pair = 2.0 * (Const(math.pi) - Input(0)) * (Const(math.pi) - Input(1))
    assert expr_str(pair) == (
        "2.0*(3.141592653589793 - x0)*(3.141592653589793 - x1)"
    )


# --------------------------------------------------------------------------
# Circuit structure and validation


def test_circuit_rejects_malformed_gates():
    with pytest.raises(UsageError):
        Circuit(2, (Gate("h", (2,)),))
    with pytest.raises(UsageError):
        Circuit(2, (Gate("cnot", (1, 1)),))
    with pytest.raises(UsageError):
        Circuit(2, (Gate("toffoli", (0, 1)),))
    with pytest.raises(UsageError):
        Circuit(2, (Gate("h", (0,), Const(1.0)),))  # angle on a fixed gate
    with pytest.raises(UsageError):
        Circuit(2, (Gate("ry", (0,)),))  # missing angle
    with pytest.raises(UsageError):
        Circuit(2, (Gate("cnot", (0,)),))
    with pytest.raises(ConfigurationError):
        Circuit(0, ())


def test_benchmark_feature_map_structure():
    circuit = build_benchmark_feature_map()
    assert len(circuit.gates) == 7
    assert [g.name for g in circuit.gates] == [
        "h", "h", "phase", "phase", "cnot", "phase", "cnot",
    ]
    assert circuit.input_arity == 2
    assert circuit.weight_arity == 0


def test_benchmark_bound_angles():
    bound = bind(build_benchmark_feature_map(), [0.3, 0.7], [])
    angles = [g.angle for g in bound if g.name == "phase"]
    assert angles[0] == pytest.approx(0.6)
    assert angles[1] == pytest.approx(1.4)
    assert angles[2] == pytest.approx(2.0 * (math.pi - 0.3) * (math.pi - 0.7))


def test_efm_structure_and_angles():
    circuit = build_efm()
    assert len(circuit.gates) == 5
    assert [g.name for g in circuit.gates] == ["h", "h", "ry", "ry", "cnot"]
    bound = bind(circuit, [0.75, 0.5], [])
    assert bound[2].angle == pytest.approx(0.0)
    assert bound[3].angle == pytest.approx(-0.5)
    wide = bind(build_efm(rescale="wide"), [0.5, 1.0], [])
    assert wide[2].angle == pytest.approx(0.0)
    assert wide[3].angle == pytest.approx(1.5)
    with pytest.raises(UsageError):
        build_efm(rescale="narrow")


@pytest.mark.parametrize("reps,gates,weights", [(0, 2, 2), (1, 5, 4), (2, 8, 6), (3, 11, 8)])
def test_real_amplitudes_counts(reps, gates, weights):
    circuit = build_real_amplitudes(2, reps)
    assert len(circuit.gates) == gates
    assert circuit.weight_arity == weights
    assert circuit.input_arity == 0


def test_real_amplitudes_weight_placement_layer_major_qubit_minor():
    circuit = build_real_amplitudes(2, 3)
    placements = [
        (g.angle.index, g.qubits[0]) for g in circuit.gates if g.name == "ry"
    ]
    assert placements == [(j, j % 2) for j in range(8)]
    # even-indexed weights rotate q0, odd-indexed rotate q1
    assert all(q == j % 2 for j, q in placements)


def test_concat_appends_and_checks_width():
    fm, ansatz = build_efm(), build_real_amplitudes(2, 1)
    joined = concat(fm, ansatz)
    assert len(joined.gates) == 10
    assert joined.gates[:5] == fm.gates and joined.gates[5:] == ansatz.gates
    with pytest.raises(UsageError):
        concat(fm, build_real_amplitudes(3, 1))


def test_concat_is_associative():
    a, b, c = build_efm(), build_real_amplitudes(2, 1), build_real_amplitudes(2, 2)
    left = concat(concat(a, b), c)
    right = concat(a, concat(b, c))
    assert left.gates == right.gates


def test_bind_requires_exact_arity():
    circuit = build_efm()
    with pytest.raises(UsageError):
        bind(circuit, [0.5], [])
    with pytest.raises(UsageError):
        bind(circuit, [0.5, 0.5, 0.5], [])
    with pytest.raises(UsageError):
        bind(build_real_amplitudes(2, 1), [], [0.1, 0.2, 0.3])
    with pytest.raises(UsageError):
        bind(circuit, np.zeros((3, 1)), [])
    with pytest.raises(UsageError, match="got 3 dimensions"):
        bind(circuit, np.zeros((2, 3, 2)), [])
    with pytest.raises(UsageError):
        bind(build_real_amplitudes(2, 1), np.zeros((3, 0)), np.zeros((1, 4)))
    # A batch larger than one evaluation block: the message names the
    # per-row width, not the shape of whichever block reached bind.
    model = build_model("eqnn3")
    with pytest.raises(UsageError) as info:
        probabilities_batch(model, np.zeros((5000, 3)), np.zeros(model.n_weights))
    assert "got 3" in str(info.value)
    assert "1024" not in str(info.value) and "5000" not in str(info.value)
    bound = bind(circuit, [0.2, 0.9], [])
    assert all(
        (g.angle is None) == (g.name in ("h", "cnot")) for g in bound
    )


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_batch_bind_equals_per_row_bind(data):
    leaves = [Input(0), Input(1), Weight(0), Weight(1)]
    circuit = data.draw(strategies.circuits(data.draw(st.integers(1, 4)), leaves))
    X = data.draw(strategies.rows(data.draw(st.integers(1, 8)), circuit.input_arity))
    w = data.draw(strategies.weights(circuit.weight_arity))
    per_row = [bind(circuit, x, w) for x in X]
    for k, bound in enumerate(bind(circuit, X, w)):
        assert all((r[k].name, r[k].qubits) == (bound.name, bound.qubits) for r in per_row)
        assert all(isinstance(r[k].angle, (float, type(None))) for r in per_row)
        if bound.angle is None:
            assert all(r[k].angle is None for r in per_row)
        elif Circuit(circuit.n_qubits, (circuit.gates[k],)).input_arity:
            assert isinstance(bound.angle, np.ndarray) and bound.angle.shape == (len(X),)
            assert bound.angle.tolist() == [r[k].angle for r in per_row]
        else:
            assert isinstance(bound.angle, float)
            assert all(r[k].angle == bound.angle for r in per_row)


# --------------------------------------------------------------------------
# Bound-circuit simulation vs matrix oracles


def test_efm_state_matches_matrix_oracle_on_random_inputs():
    rng = np.random.default_rng(20)
    circuit = build_efm()
    for _ in range(100):
        x0, x1 = rng.uniform(0.0, 1.0, 2)
        got = simulate(circuit, [x0, x1], []).amps
        np.testing.assert_allclose(got, oracles.efm_state(x0, x1), atol=1e-12)


def test_efm_wide_rescale_matches_oracle():
    rng = np.random.default_rng(21)
    circuit = build_efm(rescale="wide")
    for _ in range(20):
        x0, x1 = rng.uniform(0.0, 1.0, 2)
        got = simulate(circuit, [x0, x1], []).amps
        np.testing.assert_allclose(
            got, oracles.efm_state(x0, x1, rescale_slope=3.0), atol=1e-12
        )


def test_benchmark_state_matches_matrix_oracle():
    circuit = build_benchmark_feature_map()
    got = simulate(circuit, [0.0, 0.0], []).amps
    np.testing.assert_allclose(got, oracles.benchmark_state(0.0, 0.0), atol=1e-12)
    rng = np.random.default_rng(22)
    for _ in range(50):
        x0, x1 = rng.uniform(0.0, 1.0, 2)
        got = simulate(circuit, [x0, x1], []).amps
        np.testing.assert_allclose(got, oracles.benchmark_state(x0, x1), atol=1e-12)


# --------------------------------------------------------------------------
# Presentation


def test_diagram_layout():
    text = diagram(build_efm())
    lines = text.split("\n")
    assert lines[0].startswith("q0:") and lines[1].startswith("q1:")
    assert "RY(2.0*x0 - 1.5)" in lines[0]
    assert "o" in lines[0] and "X" in lines[1]  # cnot control/target marks
    assert len(lines[0]) == len(lines[1])


def test_circuit_to_dict_is_json_ready():
    payload = circuit_to_dict(build_benchmark_feature_map())
    text = json.dumps(payload)
    assert payload["n_qubits"] == 2
    assert payload["gate_count"] == 7
    assert payload["gates"][2] == {"gate": "phase", "qubits": [0], "angle": "2.0*x0"}
    assert "angle" not in payload["gates"][0]
    assert json.loads(text) == payload

"""Hypothesis strategies for random circuits, models, their numeric inputs and datasets."""

import math

from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from eqnn.circuit import GATE_NAMES, Circuit, Const, Gate, Input, Weight
from eqnn.data import Dataset, Sample
from eqnn.qnn import (
    CROSS_ENTROPY,
    MODEL_NAMES,
    PARITY,
    SQUARED_ERROR,
    QnnModel,
    build_model,
    simplified_model,
)

COEFFICIENTS = st.floats(-4.0, 4.0)


@st.composite
def affine(draw, leaves):
    """``c0 + c1*leaf + ...`` over up to two of ``leaves``."""
    expr = Const(draw(COEFFICIENTS))
    for leaf in draw(st.lists(st.sampled_from(leaves), max_size=2)) if leaves else []:
        expr = expr + draw(COEFFICIENTS) * leaf
    return expr


@st.composite
def angles(draw, leaves):
    """An affine angle, or the product of two (like the benchmark pair phase)."""
    expr = draw(affine(leaves))
    return expr * draw(affine(leaves)) if draw(st.booleans()) else expr


@st.composite
def circuits(draw, n_qubits, leaves, max_gates=8):
    """1 to ``max_gates`` random h/phase/ry/cnot gates with angles over ``leaves``."""
    names = GATE_NAMES if n_qubits > 1 else tuple(n for n in GATE_NAMES if n != "cnot")
    gates = []
    for name in draw(st.lists(st.sampled_from(names), min_size=1, max_size=max_gates)):
        if name == "cnot":
            control, target = draw(st.permutations(range(n_qubits)))[:2]
            gates.append(Gate(name, (control, target)))
        else:
            qubit = draw(st.integers(0, n_qubits - 1))
            gates.append(Gate(name, (qubit,), None if name == "h" else draw(angles(leaves))))
    return Circuit(n_qubits, tuple(gates))


@st.composite
def models(draw):
    """A parity-head model on 1-4 qubits: random feature map, random ansatz."""
    n_qubits = draw(st.integers(1, 4))
    inputs = [Input(i) for i in range(draw(st.integers(0, 2)))]
    weights = [Weight(j) for j in range(draw(st.integers(0, 3)))]
    return QnnModel(
        "random", draw(circuits(n_qubits, inputs)), draw(circuits(n_qubits, weights)), PARITY
    )


def rows(n_rows, n_inputs):
    """A ``(n_rows, n_inputs)`` batch of inputs."""
    return arrays(float, (n_rows, n_inputs), elements=st.floats(-2.0, 2.0))


def weights(n_weights):
    return arrays(float, (n_weights,), elements=st.floats(-math.pi, math.pi))


# The simplified fit model with squared error and each named classifier
# with cross-entropy: every model the package builds, with its one valid loss.
FIVE_MODELS = ((simplified_model(), SQUARED_ERROR),) + tuple(
    (build_model(name), CROSS_ENTROPY) for name in MODEL_NAMES
)


# The five built models, or a random parity-head model with cross-entropy.
ANY_MODELS = st.one_of(
    st.sampled_from(FIVE_MODELS), models().map(lambda model: (model, CROSS_ENTROPY))
)


@st.composite
def problems(draw, pairs=st.sampled_from(FIVE_MODELS)):
    """``(model, kind, w, dataset)``: a ``pairs`` model, its loss, random weights, 1-50 rows."""
    model, kind = draw(pairs)
    w = draw(weights(model.n_weights))
    X = draw(rows(draw(st.integers(1, 50)), model.n_inputs))
    if kind == SQUARED_ERROR:
        targets = draw(st.lists(st.floats(-1.0, 1.0), min_size=len(X), max_size=len(X)))
        dataset_kind = "regression"
    else:
        targets = draw(st.lists(st.integers(0, 1), min_size=len(X), max_size=len(X)))
        dataset_kind = "classification"
    samples = tuple(Sample(tuple(x), t) for x, t in zip(X.tolist(), targets))
    return model, kind, w, Dataset(samples, dataset_kind, "drawn", 0)

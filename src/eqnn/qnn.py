"""Model assembly, forward evaluation, losses, and accuracy.

A ``QnnModel`` glues together a feature-map circuit (inputs only), a
variational circuit (weights only), and a measurement head:

* ``"regression"`` — y' = P(even-parity basis states) - P(odd-parity),
  which on one qubit is simply P(|0>) - P(|1>), a value in [-1, 1].
* ``"parity"`` — binary class probabilities (P(even), P(odd)).

Model zoo:

* ``simplified`` — 1 qubit, H + RY(x) encoder, single RY(w) ansatz,
  regression head.  Its forward has the closed form cos(x + w + pi/2).
* ``benchmark`` — ZZ-style encoder + 3-rep RY ansatz, parity head.
* ``eqnn1/2/3`` — economical encoder + 1/2/3-rep RY ansatz, parity head.

Every evaluation goes through one gate walk, ``_amplitudes``: it binds
the circuit (one row or a ``(batch, n_inputs)`` batch) and applies the
gates in order, so one call evaluates a whole dataset (in blocks of rows)
and a batch row is identical to one-at-a-time simulation.  Every loss
goes through one core, ``_fitted``, which gives the per-row value the
loss is taken of, and every class decision through ``decide``.
Batch means use ``np.mean`` (pairwise summation) as the one documented
reduction order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .circuit import (
    Circuit,
    Gate,
    Input,
    Weight,
    bind,
    build_benchmark_feature_map,
    build_efm,
    build_real_amplitudes,
    concat,
)
from .errors import UsageError
from .statevector import StateVector, _apply

REGRESSION = "regression"
PARITY = "parity"
HEADS = (REGRESSION, PARITY)

SQUARED_ERROR = "squared_error"
CROSS_ENTROPY = "cross_entropy"
LOSS_KINDS = (SQUARED_ERROR, CROSS_ENTROPY)

MODEL_NAMES = ("benchmark", "eqnn1", "eqnn2", "eqnn3")

PROB_EPS = 1e-12  # clamp under the log in cross-entropy


@dataclass(frozen=True)
class Regression:
    y: float


@dataclass(frozen=True)
class ClassProbs:
    p0: float
    p1: float


@dataclass(frozen=True, eq=False)
class QnnModel:
    name: str
    feature_map: Circuit
    variational: Circuit
    head: str

    def __post_init__(self):
        if self.head not in HEADS:
            raise UsageError(f"unknown head {self.head!r}; expected one of {HEADS}")
        if self.feature_map.n_qubits != self.variational.n_qubits:
            raise UsageError(
                f"feature map acts on {self.feature_map.n_qubits} qubits but "
                f"variational circuit on {self.variational.n_qubits}"
            )
        if self.feature_map.weight_arity:
            raise UsageError("feature map must not contain trainable weights")
        if self.variational.input_arity:
            raise UsageError("variational circuit must not contain data inputs")

    @property
    def n_qubits(self) -> int:
        return self.feature_map.n_qubits

    @property
    def n_inputs(self) -> int:
        return self.feature_map.input_arity

    @property
    def n_weights(self) -> int:
        return self.variational.weight_arity

    @cached_property
    def circuit(self) -> Circuit:
        return concat(self.feature_map, self.variational)


def simplified_model() -> QnnModel:
    """The 1-qubit regression model: encode H, RY(x); train one RY(w)."""
    feature_map = Circuit(1, (Gate("h", (0,)), Gate("ry", (0,), Input(0))))
    variational = Circuit(1, (Gate("ry", (0,), Weight(0)),))
    return QnnModel("simplified", feature_map, variational, REGRESSION)


def build_model(name: str, rescale: str = "default") -> QnnModel:
    """Build one of the named two-qubit classifiers.

    ``rescale`` selects the economical encoder's input map (see
    ``build_efm``); the benchmark encoder has no rescale knob.
    """
    if name == "benchmark":
        return QnnModel(
            name, build_benchmark_feature_map(), build_real_amplitudes(2, 3), PARITY
        )
    if name in ("eqnn1", "eqnn2", "eqnn3"):
        reps = int(name[-1])
        return QnnModel(
            name, build_efm(rescale=rescale), build_real_amplitudes(2, reps), PARITY
        )
    raise UsageError(f"unknown model {name!r}; expected one of {MODEL_NAMES}")


def parity_signs(n_qubits: int) -> np.ndarray:
    """+1 for even-popcount basis indices, -1 for odd."""
    idx = np.arange(1 << n_qubits)
    bits = idx[:, None] >> np.arange(n_qubits)[None, :] & 1
    return np.where(bits.sum(axis=1) % 2 == 0, 1.0, -1.0)


# --------------------------------------------------------------------------
# Simulation


def _amplitudes(circuit: Circuit, inputs, weights) -> np.ndarray:
    """Bind ``circuit`` and run it gate by gate from the all-zeros state.

    One input row gives ``2**n`` amplitudes; a ``(batch, n_inputs)``
    batch gives ``(batch, 2**n)``.
    """
    gates = bind(circuit, inputs, weights)
    amps = np.zeros(np.shape(inputs)[:-1] + (1 << circuit.n_qubits,), dtype=complex)
    amps[..., 0] = 1.0
    for g in gates:
        amps = _apply(amps, g.name, g.qubits, g.angle)
    return amps


def simulate(circuit: Circuit, inputs, weights) -> StateVector:
    """Bind and run a circuit on one input row from the all-zeros state."""
    return StateVector(circuit.n_qubits, _amplitudes(circuit, inputs, weights))


# A batch is evaluated in blocks of at most this many amplitudes (64 KB of
# complex128).  Kernel outputs that size stay below malloc's mmap threshold
# and are reused from its heap; whole-batch ones would be mapped and
# unmapped afresh on every gate.
_BLOCK_AMPLITUDES = 4096


def probabilities_batch(model: QnnModel, X, w) -> np.ndarray:
    """Basis-state probabilities for each input row: shape (batch, 2**n)."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    step = max(1, _BLOCK_AMPLITUDES >> model.n_qubits)
    blocks = [X[i : i + step] for i in range(0, max(len(X), 1), step)]
    return np.concatenate([np.abs(_amplitudes(model.circuit, b, w)) ** 2 for b in blocks])


def predict_regression(model: QnnModel, X, w) -> np.ndarray:
    """y' = P(even parity) - P(odd parity) for each input row."""
    probs = probabilities_batch(model, X, w)
    return probs @ parity_signs(model.n_qubits)


def predict_probs(model: QnnModel, X, w) -> np.ndarray:
    """Class-probability pairs (P(class 0), P(class 1)), shape (batch, 2)."""
    probs = probabilities_batch(model, X, w)
    even = probs @ (parity_signs(model.n_qubits) > 0).astype(float)
    return np.stack([even, 1.0 - even], axis=-1)


def forward(model: QnnModel, x, w) -> Regression | ClassProbs:
    """Evaluate the model on a single input point."""
    x = np.asarray(x, dtype=float).reshape(-1)
    if model.head == REGRESSION:
        return Regression(float(predict_regression(model, x[None, :], w)[0]))
    p0, p1 = predict_probs(model, x[None, :], w)[0]
    return ClassProbs(float(p0), float(p1))


# --------------------------------------------------------------------------
# Losses and metrics


def _check_pairing(model: QnnModel, dataset, kind: str):
    if len(dataset) == 0:
        raise UsageError("dataset is empty")
    if kind not in LOSS_KINDS:
        raise UsageError(f"unknown loss kind {kind!r}; expected one of {LOSS_KINDS}")
    if kind == SQUARED_ERROR and (
        model.head != REGRESSION or dataset.kind != "regression"
    ):
        raise UsageError(
            "squared_error needs a regression-head model and a regression dataset"
        )
    if kind == CROSS_ENTROPY and (
        model.head != PARITY or dataset.kind != "classification"
    ):
        raise UsageError(
            "cross_entropy needs a parity-head model and a classification dataset"
        )


def _fitted(model: QnnModel, X, w, targets: np.ndarray, kind: str) -> np.ndarray:
    """Per-row value the loss is taken of: y' for squared error, P(label) otherwise."""
    if kind == SQUARED_ERROR:
        return predict_regression(model, X, w)
    return predict_probs(model, X, w)[np.arange(len(targets)), targets.astype(int)]


def batch_loss(model: QnnModel, w, dataset, kind: str) -> float:
    """Arithmetic mean of per-sample losses over a dataset.

    ``squared_error`` is (y' - target)^2 for a regression head;
    ``cross_entropy`` is -log P(label) for a parity head, natural log,
    with P(label) clamped at ``PROB_EPS``.
    """
    _check_pairing(model, dataset, kind)
    targets = dataset.targets_array()
    fitted = _fitted(model, dataset.features_array(), w, targets, kind)
    if kind == SQUARED_ERROR:
        return float(np.mean((fitted - targets) ** 2))
    return float(np.mean(-np.log(np.maximum(fitted, PROB_EPS))))


def decide(p0, p1):
    """The hard decision rule on probabilities or arrays of them: tie -> class 0."""
    return (np.asarray(p1) > p0).astype(int)


def accuracy(model: QnnModel, w, dataset) -> float:
    """Fraction of dataset samples whose predicted class matches the label."""
    if len(dataset) == 0:
        raise UsageError("dataset is empty")
    if model.head != PARITY or dataset.kind != "classification":
        raise UsageError("accuracy needs a parity-head model and labeled classes")
    probs = predict_probs(model, dataset.features_array(), w)
    predicted = decide(probs[:, 0], probs[:, 1])
    return float(np.mean(predicted == dataset.targets_array().astype(int)))


def gate_summary(model: QnnModel) -> dict:
    """Feature-map / variational / total gate counts."""
    fm, var = len(model.feature_map.gates), len(model.variational.gates)
    return {"feature_map": fm, "variational": var, "total": fm + var}

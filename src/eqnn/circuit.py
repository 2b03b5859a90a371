"""Symbolic parameterized circuits.

A ``Circuit`` is an ordered gate list over ``n_qubits`` qubits.  Gate
angles are little expression trees over named inputs ``x0, x1, ...``
and trainable weights ``w0, w1, ...`` so a circuit can be inspected,
counted, and pretty-printed before any numbers exist, then bound to
concrete values for simulation.

Builders for the three circuit families used by the models:

* ``build_benchmark_feature_map`` — H layer, per-qubit phases ``2*x_i``,
  and a CNOT-sandwiched pair phase ``2*(pi - x0)*(pi - x1)``  (7 gates).
* ``build_efm`` — H layer, per-qubit RY with an affine rescale of the
  input, one entangling CNOT  (5 gates; "efm" = economical feature map).
* ``build_real_amplitudes`` — RY layer, then ``reps`` repetitions of
  CNOT-chain + RY layer; weights are indexed layer-major, qubit-minor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, reduce

import numpy as np

from .errors import ConfigurationError, UsageError
from .statevector import MAX_QUBITS

# --------------------------------------------------------------------------
# Angle expressions


class Expr:
    """Base of the angle-expression tree.  Supports +, -, * with numbers."""

    __slots__ = ()

    def __add__(self, other):
        return _sum(self, as_expr(other))

    def __radd__(self, other):
        return _sum(as_expr(other), self)

    def __sub__(self, other):
        return _sum(self, -as_expr(other))

    def __rsub__(self, other):
        return _sum(as_expr(other), -self)

    def __mul__(self, other):
        return _product(self, as_expr(other))

    def __rmul__(self, other):
        return _product(as_expr(other), self)

    def __neg__(self):
        return _product(Const(-1.0), self)


@dataclass(frozen=True)
class Const(Expr):
    value: float


@dataclass(frozen=True)
class Input(Expr):
    """Data input ``x<index>``."""

    index: int


@dataclass(frozen=True)
class Weight(Expr):
    """Trainable weight ``w<index>``."""

    index: int


@dataclass(frozen=True)
class Sum(Expr):
    terms: tuple[Expr, ...]


@dataclass(frozen=True)
class Product(Expr):
    factors: tuple[Expr, ...]


def as_expr(value) -> Expr:
    if isinstance(value, Expr):
        return value
    if isinstance(value, (int, float)):
        return Const(float(value))
    raise UsageError(f"cannot use {value!r} in an angle expression")


def _sum(a: Expr, b: Expr) -> Expr:
    terms = (a.terms if isinstance(a, Sum) else (a,)) + (
        b.terms if isinstance(b, Sum) else (b,)
    )
    return Sum(terms)


def _product(a: Expr, b: Expr) -> Expr:
    factors = (a.factors if isinstance(a, Product) else (a,)) + (
        b.factors if isinstance(b, Product) else (b,)
    )
    return Product(factors)


def evaluate(expr: Expr, inputs, weights):
    """Evaluate an angle expression.

    ``inputs`` and ``weights`` are indexed along their last axis, so a
    batch of input rows of shape ``(batch, n_inputs)`` evaluates to a
    ``(batch,)`` array in one call; 1-D arguments give plain scalars.
    """
    if isinstance(expr, Const):
        return expr.value
    if isinstance(expr, Input):
        return np.asarray(inputs, dtype=float)[..., expr.index]
    if isinstance(expr, Weight):
        return np.asarray(weights, dtype=float)[..., expr.index]
    if isinstance(expr, Sum):
        return reduce(lambda u, v: u + v, (evaluate(t, inputs, weights) for t in expr.terms))
    if isinstance(expr, Product):
        return reduce(lambda u, v: u * v, (evaluate(f, inputs, weights) for f in expr.factors))
    raise UsageError(f"not an angle expression: {expr!r}")


def _collect_indices(expr: Expr, cls) -> set[int]:
    if isinstance(expr, cls):
        return {expr.index}
    if isinstance(expr, Sum):
        return set().union(*(_collect_indices(t, cls) for t in expr.terms))
    if isinstance(expr, Product):
        return set().union(*(_collect_indices(f, cls) for f in expr.factors))
    return set()


def expr_str(expr: Expr) -> str:
    """Deterministic human-readable rendering, e.g. ``2.0*x0 - 1.5``."""
    if isinstance(expr, Const):
        return repr(expr.value)
    if isinstance(expr, Input):
        return f"x{expr.index}"
    if isinstance(expr, Weight):
        return f"w{expr.index}"
    if isinstance(expr, Product):
        parts = []
        for f in expr.factors:
            s = expr_str(f)
            parts.append(f"({s})" if isinstance(f, Sum) else s)
        return "*".join(parts)
    if isinstance(expr, Sum):
        out = expr_str(expr.terms[0])
        for term in expr.terms[1:]:
            neg = _negated(term)
            if neg is not None:
                out += f" - {expr_str(neg)}"
            else:
                out += f" + {expr_str(term)}"
        return out
    raise UsageError(f"not an angle expression: {expr!r}")


def _negated(expr: Expr) -> Expr | None:
    """If ``expr`` is plainly negative, return its negation, else None."""
    if isinstance(expr, Const) and expr.value < 0:
        return Const(-expr.value)
    if (
        isinstance(expr, Product)
        and isinstance(expr.factors[0], Const)
        and expr.factors[0].value == -1.0
    ):
        rest = expr.factors[1:]
        return rest[0] if len(rest) == 1 else Product(rest)
    return None


# --------------------------------------------------------------------------
# Gates and circuits

GATE_NAMES = ("h", "phase", "ry", "cnot")
_PARAMETERIZED = ("phase", "ry")


@dataclass(frozen=True)
class Gate:
    """One gate application: ``name``, operand ``qubits``, optional ``angle``."""

    name: str
    qubits: tuple[int, ...]
    angle: Expr | None = None


@dataclass(frozen=True, eq=False)
class Circuit:
    n_qubits: int
    gates: tuple[Gate, ...]

    def __post_init__(self):
        if not 1 <= self.n_qubits <= MAX_QUBITS:
            raise ConfigurationError(
                f"n_qubits must be between 1 and {MAX_QUBITS}, got {self.n_qubits}"
            )
        object.__setattr__(self, "gates", tuple(self.gates))
        for gate in self.gates:
            self._check_gate(gate)

    def _check_gate(self, gate: Gate):
        if gate.name not in GATE_NAMES:
            raise UsageError(f"unknown gate {gate.name!r}")
        want = 2 if gate.name == "cnot" else 1
        if len(gate.qubits) != want:
            raise UsageError(
                f"{gate.name} takes {want} qubit(s), got {gate.qubits!r}"
            )
        for q in gate.qubits:
            if not 0 <= q < self.n_qubits:
                raise UsageError(
                    f"qubit {q} out of range for {self.n_qubits}-qubit circuit"
                )
        if gate.name == "cnot" and gate.qubits[0] == gate.qubits[1]:
            raise UsageError("cnot control and target must differ")
        if (gate.angle is not None) != (gate.name in _PARAMETERIZED):
            raise UsageError(
                f"{gate.name} gate {'takes no' if gate.angle is not None else 'needs an'} angle"
            )

    def _arity(self, cls) -> int:
        """One more than the largest ``cls`` index in any angle; 0 if none."""
        indices = set().union(
            *(_collect_indices(g.angle, cls) for g in self.gates if g.angle)
        )
        return max(indices) + 1 if indices else 0

    @cached_property
    def input_arity(self) -> int:
        return self._arity(Input)

    @cached_property
    def weight_arity(self) -> int:
        return self._arity(Weight)


def concat(first: Circuit, second: Circuit) -> Circuit:
    """Run ``first`` then ``second`` on the same register."""
    if first.n_qubits != second.n_qubits:
        raise UsageError(
            f"cannot concatenate circuits on {first.n_qubits} and "
            f"{second.n_qubits} qubits"
        )
    return Circuit(first.n_qubits, first.gates + second.gates)


@dataclass(frozen=True)
class BoundGate:
    """A gate with its angle evaluated: a number, or one per row of a batch."""

    name: str
    qubits: tuple[int, ...]
    angle: float | np.ndarray | None = None


def bind(circuit: Circuit, inputs, weights) -> tuple[BoundGate, ...]:
    """Evaluate every angle against concrete inputs and weights.

    ``inputs`` is one row of shape ``(n_inputs,)`` or a batch of shape
    ``(batch, n_inputs)``; ``weights`` has shape ``(n_weights,)``.  An
    angle that depends on the inputs becomes a ``(batch,)`` array for a
    batch; every other angle is a plain float.  This is the one place
    that checks arity: the lengths must equal the circuit's input and
    weight arity exactly — a partial binding is rejected rather than
    deferred.
    """
    inputs = np.asarray(inputs, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if inputs.ndim not in (1, 2):
        raise UsageError(
            f"inputs must be one row or a batch of rows, got {inputs.ndim} dimensions"
        )
    if inputs.shape[-1] != circuit.input_arity:
        raise UsageError(
            f"circuit needs {circuit.input_arity} inputs per row, got {inputs.shape[-1]}"
        )
    if weights.shape != (circuit.weight_arity,):
        raise UsageError(
            f"circuit needs {circuit.weight_arity} weights, got shape {weights.shape}"
        )

    def angle(expr):
        value = evaluate(expr, inputs, weights)
        return float(value) if np.ndim(value) == 0 else value

    return tuple(
        BoundGate(g.name, g.qubits, None if g.angle is None else angle(g.angle))
        for g in circuit.gates
    )


# --------------------------------------------------------------------------
# Builders


def build_benchmark_feature_map() -> Circuit:
    """ZZ-style two-qubit encoder: H layer, per-qubit phases, pair phase."""
    x0, x1 = Input(0), Input(1)
    pi = Const(math.pi)
    return Circuit(
        2,
        (
            Gate("h", (0,)),
            Gate("h", (1,)),
            Gate("phase", (0,), 2.0 * x0),
            Gate("phase", (1,), 2.0 * x1),
            Gate("cnot", (0, 1)),
            Gate("phase", (1,), 2.0 * (pi - x0) * (pi - x1)),
            Gate("cnot", (0, 1)),
        ),
    )


def build_efm(rescale: str = "default") -> Circuit:
    """Economical two-qubit encoder: H layer, rescaled-input RY layer, one CNOT.

    ``rescale`` picks the affine map applied to each input before it
    becomes a rotation angle: ``"default"`` uses ``2*x - 1.5`` and
    ``"wide"`` uses ``3*x - 1.5`` (a larger angular spread for inputs
    in [0, 1]).
    """
    scales = {"default": 2.0, "wide": 3.0}
    if rescale not in scales:
        raise UsageError(f"unknown rescale {rescale!r}; expected one of {sorted(scales)}")
    k = scales[rescale]
    return Circuit(
        2,
        (
            Gate("h", (0,)),
            Gate("h", (1,)),
            Gate("ry", (0,), k * Input(0) - 1.5),
            Gate("ry", (1,), k * Input(1) - 1.5),
            Gate("cnot", (0, 1)),
        ),
    )


def build_real_amplitudes(n_qubits: int = 2, reps: int = 1) -> Circuit:
    """RY layer + ``reps`` x (CNOT chain + RY layer).

    Weight ``w[layer*n_qubits + q]`` is the angle of the RY on qubit
    ``q`` in layer ``layer`` — i.e. layer-major, qubit-minor, so for two
    qubits the even-indexed weights rotate q0 and the odd-indexed ones
    rotate q1.  Total: ``n_qubits*(reps+1)`` weights and, for 2 qubits,
    ``2 + 3*reps`` gates.
    """
    if reps < 0:
        raise ConfigurationError(f"reps must be non-negative, got {reps}")
    gates: list[Gate] = []

    def ry_layer(layer: int):
        for q in range(n_qubits):
            gates.append(Gate("ry", (q,), Weight(layer * n_qubits + q)))

    ry_layer(0)
    for layer in range(1, reps + 1):
        for q in range(n_qubits - 1):
            gates.append(Gate("cnot", (q, q + 1)))
        ry_layer(layer)
    return Circuit(n_qubits, tuple(gates))


# --------------------------------------------------------------------------
# Presentation


def diagram(circuit: Circuit) -> str:
    """A fixed-width text sketch, one line per qubit, gates left to right."""
    labels: list[list[str]] = [[] for _ in range(circuit.n_qubits)]
    for gate in circuit.gates:
        if gate.name == "cnot":
            control, target = gate.qubits
            cell = {control: "o", target: "X"}
        else:
            text = gate.name.upper()
            if gate.angle is not None:
                text += f"({expr_str(gate.angle)})"
            cell = {gate.qubits[0]: text}
        width = max(len(s) for s in cell.values())
        for q in range(circuit.n_qubits):
            labels[q].append(cell.get(q, "-" * width).center(width, "-"))
    return "\n".join(
        f"q{q}: ---" + "---".join(labels[q]) + "---" for q in range(circuit.n_qubits)
    )


def circuit_to_dict(circuit: Circuit) -> dict:
    """JSON-friendly description with symbolic angle strings."""
    return {
        "n_qubits": circuit.n_qubits,
        "gate_count": len(circuit.gates),
        "gates": [
            {
                "gate": g.name,
                "qubits": list(g.qubits),
                **({"angle": expr_str(g.angle)} if g.angle is not None else {}),
            }
            for g in circuit.gates
        ],
    }

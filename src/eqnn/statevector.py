"""Dense statevector simulation for small qubit registers.

Amplitude ordering is little-endian: qubit ``q`` owns bit ``q`` of the
amplitude index, so for two qubits the basis order is
``|00>, |01>, |10>, |11>`` with the *right* bit belonging to qubit 0.
Basis label ``|q1 q0>`` therefore reads right-to-left.

Two layers over one dispatch:

* ``kernel_*`` functions operate on raw real or complex arrays of shape
  ``(..., 2**n)``.  Leading axes broadcast, so a batch of states (and a
  matching batch of angles) is transformed in one vectorized call.
  H, RY and CNOT keep a real input real; ``kernel_phase`` promotes its
  output to complex.  These are the hot path for training.
* ``StateVector`` plus ``zero_state`` / ``apply_single`` / ``apply_cnot``
  / ``probabilities`` wrap the kernels in a validated value type for
  single-state work.

``_apply`` is the one place that maps a gate name (``h``, ``phase``,
``ry``, ``cnot``) to its kernel; the value-type API and the circuit
walk in ``qnn`` both go through it.

All operations are pure; nothing mutates its input.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import ConfigurationError, UsageError

MAX_QUBITS = 20

_SQRT_HALF = 1.0 / np.sqrt(2.0)


def _qubit_count(dim: int) -> int:
    n = dim.bit_length() - 1
    if dim <= 0 or 1 << n != dim:
        raise UsageError(f"amplitude axis has length {dim}, not a power of two")
    return n


def _split(amps: np.ndarray, qubit: int) -> np.ndarray:
    """View ``(..., 2**n)`` as ``(..., pre, 2, post)`` with ``qubit`` in the middle."""
    n = _qubit_count(amps.shape[-1])
    if not 0 <= qubit < n:
        raise UsageError(f"qubit {qubit} out of range for {n}-qubit state")
    pre, post = 1 << (n - 1 - qubit), 1 << qubit
    return amps.reshape(amps.shape[:-1] + (pre, 2, post))


def _angle(theta) -> np.ndarray:
    """Shape an angle (scalar or batch) to broadcast against ``(..., pre, post)``."""
    th = np.asarray(theta, dtype=float)
    return th[..., None, None] if th.ndim else th


def kernel_h(amps: np.ndarray, qubit: int) -> np.ndarray:
    """Hadamard on ``qubit``."""
    a = _split(amps, qubit)
    v0, v1 = a[..., 0, :], a[..., 1, :]
    out = np.empty_like(a)
    out[..., 0, :] = (v0 + v1) * _SQRT_HALF
    out[..., 1, :] = (v0 - v1) * _SQRT_HALF
    return out.reshape(amps.shape)


def kernel_phase(amps: np.ndarray, theta, qubit: int) -> np.ndarray:
    """Phase gate diag(1, e^{i*theta}) on ``qubit``; the output is complex."""
    a = _split(amps, qubit)
    out = a.astype(complex)
    out[..., 1, :] = a[..., 1, :] * np.exp(1j * _angle(theta))
    return out.reshape(amps.shape)


def kernel_ry(amps: np.ndarray, theta, qubit: int) -> np.ndarray:
    """RY rotation [[cos t/2, -sin t/2], [sin t/2, cos t/2]] on ``qubit``."""
    a = _split(amps, qubit)
    th = _angle(theta)
    c, s = np.cos(th / 2.0), np.sin(th / 2.0)
    v0, v1 = a[..., 0, :], a[..., 1, :]
    out = np.empty_like(a)
    out[..., 0, :] = c * v0 - s * v1
    out[..., 1, :] = s * v0 + c * v1
    return out.reshape(amps.shape)


def kernel_cnot(amps: np.ndarray, control: int, target: int) -> np.ndarray:
    """CNOT: flip ``target`` on the amplitudes whose ``control`` bit is 1."""
    n = _qubit_count(amps.shape[-1])
    for name, q in (("control", control), ("target", target)):
        if not 0 <= q < n:
            raise UsageError(f"{name} qubit {q} out of range for {n}-qubit state")
    if control == target:
        raise UsageError(f"cnot control and target must differ (both {control})")
    idx = np.arange(amps.shape[-1])
    src = np.where((idx >> control) & 1 == 1, idx ^ (1 << target), idx)
    return amps[..., src]


def _apply(amps: np.ndarray, name: str, qubits: tuple[int, ...], angle=None) -> np.ndarray:
    """Apply the gate called ``name`` to ``qubits`` of ``amps``."""
    if name == "h":
        return kernel_h(amps, qubits[0])
    if name == "phase":
        return kernel_phase(amps, angle, qubits[0])
    if name == "ry":
        return kernel_ry(amps, angle, qubits[0])
    if name == "cnot":
        return kernel_cnot(amps, qubits[0], qubits[1])
    raise UsageError(f"unknown gate {name!r}")


@dataclass(frozen=True, eq=False)
class StateVector:
    """An ``n_qubits`` register as ``2**n_qubits`` complex amplitudes.

    Treat instances as immutable; every operation returns a new one.
    The squared amplitudes always sum to 1 (checked at construction).
    """

    n_qubits: int
    amps: np.ndarray

    def __post_init__(self):
        if not 1 <= self.n_qubits <= MAX_QUBITS:
            raise ConfigurationError(
                f"n_qubits must be between 1 and {MAX_QUBITS}, got {self.n_qubits}"
            )
        amps = np.array(self.amps, dtype=complex)
        if amps.shape != (1 << self.n_qubits,):
            raise UsageError(
                f"expected {1 << self.n_qubits} amplitudes for "
                f"{self.n_qubits} qubits, got shape {amps.shape}"
            )
        norm = float(np.sum(np.abs(amps) ** 2))
        if abs(norm - 1.0) > 1e-12:
            raise UsageError(f"amplitudes are not normalized (sum of squares {norm!r})")
        object.__setattr__(self, "amps", amps)

    @property
    def dim(self) -> int:
        return 1 << self.n_qubits


# Single-qubit gate descriptors for the value-type API.


@dataclass(frozen=True)
class Hadamard:
    name: ClassVar[str] = "h"


@dataclass(frozen=True)
class Phase:
    theta: float
    name: ClassVar[str] = "phase"


@dataclass(frozen=True)
class RY:
    theta: float
    name: ClassVar[str] = "ry"


def zero_state(n_qubits: int) -> StateVector:
    """The all-zeros computational basis state |0...0>."""
    if not 1 <= n_qubits <= MAX_QUBITS:
        raise ConfigurationError(
            f"n_qubits must be between 1 and {MAX_QUBITS}, got {n_qubits}"
        )
    amps = np.zeros(1 << n_qubits, dtype=complex)
    amps[0] = 1.0
    return StateVector(n_qubits, amps)


def apply_single(state: StateVector, gate, qubit: int) -> StateVector:
    """Apply a one-qubit gate (``Hadamard``, ``Phase`` or ``RY``) to ``qubit``."""
    if not isinstance(gate, (Hadamard, Phase, RY)):
        raise UsageError(f"not a single-qubit gate: {gate!r}")
    amps = _apply(state.amps, gate.name, (qubit,), getattr(gate, "theta", None))
    return StateVector(state.n_qubits, amps)


def apply_cnot(state: StateVector, control: int, target: int) -> StateVector:
    """Apply CNOT with the given control and target qubits."""
    return StateVector(state.n_qubits, _apply(state.amps, "cnot", (control, target)))


def probabilities(state: StateVector) -> np.ndarray:
    """Measurement probabilities over the computational basis."""
    return np.abs(state.amps) ** 2

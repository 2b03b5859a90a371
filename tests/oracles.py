"""Independent dense-matrix oracles used by the tests.

Everything here is built from explicit 2x2 / 4x4 matrices and Kronecker
products only — no reuse of the package's gate kernels — so agreement
between the two routes is meaningful.

Amplitude index convention (little-endian, matching the package): bit q
of the index is qubit q, so ``np.kron(A, B)`` applies ``A`` to the
highest qubit and ``B`` to the lowest.
"""

import numpy as np

SQRT_HALF = 1.0 / np.sqrt(2.0)

H2 = np.array([[1.0, 1.0], [1.0, -1.0]]) * SQRT_HALF
I2 = np.eye(2)


def phase_matrix(theta: float) -> np.ndarray:
    return np.array([[1.0, 0.0], [0.0, np.exp(1j * theta)]])


def ry_matrix(theta: float) -> np.ndarray:
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    return np.array([[c, -s], [s, c]])


def single_on(n_qubits: int, qubit: int, m: np.ndarray) -> np.ndarray:
    """Embed a one-qubit matrix at ``qubit`` in an n-qubit operator."""
    op = np.array([[1.0]])
    for q in reversed(range(n_qubits)):
        op = np.kron(op, m if q == qubit else I2)
    return op


def cnot_matrix(n_qubits: int, control: int, target: int) -> np.ndarray:
    """Permutation matrix flipping ``target`` where ``control`` bit is 1."""
    dim = 1 << n_qubits
    op = np.zeros((dim, dim))
    for col in range(dim):
        row = col ^ (1 << target) if (col >> control) & 1 else col
        op[row, col] = 1.0
    return op


def circuit_state(n_qubits: int, gates) -> np.ndarray:
    """|0...0> through ``(name, qubits, theta)`` gates by dense matrix products."""
    state = np.zeros(1 << n_qubits, dtype=complex)
    state[0] = 1.0
    for name, qubits, theta in gates:
        if name == "cnot":
            op = cnot_matrix(n_qubits, *qubits)
        elif name == "h":
            op = single_on(n_qubits, qubits[0], H2)
        elif name == "phase":
            op = single_on(n_qubits, qubits[0], phase_matrix(theta))
        else:
            op = single_on(n_qubits, qubits[0], ry_matrix(theta))
        state = op @ state
    return state


def random_state(rng: np.random.Generator, n_qubits: int) -> np.ndarray:
    """A Haar-ish random normalized amplitude vector."""
    amps = rng.normal(size=1 << n_qubits) + 1j * rng.normal(size=1 << n_qubits)
    return amps / np.linalg.norm(amps)


def efm_state(x0: float, x1: float, rescale_slope: float = 2.0) -> np.ndarray:
    """CNOT . (RY(k*x1-1.5) ⊗ RY(k*x0-1.5)) . (H ⊗ H) |00> by matrix product."""
    op = cnot_matrix(2, 0, 1)
    op = op @ single_on(2, 0, ry_matrix(rescale_slope * x0 - 1.5))
    op = op @ single_on(2, 1, ry_matrix(rescale_slope * x1 - 1.5))
    op = op @ single_on(2, 0, H2) @ single_on(2, 1, H2)
    zero = np.zeros(4)
    zero[0] = 1.0
    return op @ zero


def benchmark_state(x0: float, x1: float) -> np.ndarray:
    """The ZZ-style encoder state by matrix product."""
    pi = np.pi
    op = cnot_matrix(2, 0, 1)
    op = op @ single_on(2, 1, phase_matrix(2.0 * (pi - x0) * (pi - x1)))
    op = op @ cnot_matrix(2, 0, 1)
    op = op @ single_on(2, 0, phase_matrix(2.0 * x0))
    op = op @ single_on(2, 1, phase_matrix(2.0 * x1))
    op = op @ single_on(2, 0, H2) @ single_on(2, 1, H2)
    zero = np.zeros(4)
    zero[0] = 1.0
    return op @ zero


def simplified_prediction(x: float, w: float) -> float:
    """y' = P(0) - P(1) of RY(w) . RY(x) . H |0>, by 2x2 matrix product."""
    amps = ry_matrix(w) @ ry_matrix(x) @ H2 @ np.array([1.0, 0.0])
    probs = np.abs(amps) ** 2
    return float(probs[0] - probs[1])


def grid_min_mse(features: np.ndarray, targets: np.ndarray, points: int = 20000) -> float:
    """min over w of mean((-sin(x + w) - target)^2) by dense grid scan."""
    w = np.linspace(0.0, 2.0 * np.pi, points, endpoint=False)
    pred = -np.sin(features[None, :] + w[:, None])
    return float(np.mean((pred - targets[None, :]) ** 2, axis=1).min())


def per_row_loss(pred, target, kind: str) -> float:
    """One row's loss from a ``forward`` output, by the textbook formula.

    ``squared_error``: (y' - target)^2 for a regression output.
    ``cross_entropy``: -ln P(target class), P clamped at 1e-12, for a
    class-probability output.
    """
    if kind == "squared_error":
        return (pred.y - target) ** 2
    p_label = pred.p1 if target == 1 else pred.p0
    return -float(np.log(max(p_label, 1e-12)))

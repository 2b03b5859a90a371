"""Independent reference computations for the benchmark's output checks.

Nothing here calls into the package: the two-qubit models are rebuilt as
explicit 4x4 matrix products, the wide register is simulated by
tensordot on a ``(2,)*n`` tensor with axis bookkeeping, and the datasets
and splits are regenerated from their documented recipes.  A later change
to the package therefore cannot pass the checks by computing something
different consistently.

Amplitude convention (as documented by the package): bit q of the basis
index is qubit q, so ``np.kron(A, B)`` puts ``A`` on qubit 1 and ``B`` on
qubit 0, and in a C-ordered ``(2,)*n`` tensor qubit q is axis n-1-q.
"""

from __future__ import annotations

import math

import numpy as np

PROB_EPS = 1e-12  # the documented clamp under the cross-entropy log

H2 = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
I2 = np.eye(2)
CNOT_01 = np.array(  # control qubit 0, target qubit 1, little-endian basis
    [[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]], dtype=complex
)

# Gate counts (feature map, variational, total) quoted in the README table.
GATE_COUNTS = {
    "benchmark": (7, 11, 18),
    "eqnn1": (5, 5, 10),
    "eqnn2": (5, 8, 13),
    "eqnn3": (5, 11, 16),
}


def _ry(theta) -> np.ndarray:
    """RY matrices, shape ``theta.shape + (2, 2)``."""
    theta = np.asarray(theta, dtype=float)
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    return np.stack([np.stack([c, -s], -1), np.stack([s, c], -1)], -2).astype(complex)


def _phase(theta) -> np.ndarray:
    theta = np.asarray(theta, dtype=float)
    one, zero = np.ones_like(theta), np.zeros_like(theta)
    return np.stack(
        [np.stack([one, zero], -1), np.stack([zero, np.exp(1j * theta)], -1)], -2
    )


def _on(m: np.ndarray, qubit: int) -> np.ndarray:
    """Embed (batched) 2x2 matrices on one qubit of a two-qubit register."""
    a, b = (I2, m) if qubit == 0 else (m, I2)
    out = np.einsum("...ij,...kl->...ikjl", a, b)
    return out.reshape(out.shape[:-4] + (4, 4))


def ansatz_matrix(w, reps: int) -> np.ndarray:
    """RealAmplitudes on two qubits: RY layer, then reps x (CNOT, RY layer)."""
    op = _on(_ry(w[1]), 1) @ _on(_ry(w[0]), 0)
    for layer in range(1, reps + 1):
        op = _on(_ry(w[2 * layer + 1]), 1) @ _on(_ry(w[2 * layer]), 0) @ CNOT_01 @ op
    return op


def encoded_states(model: str, X: np.ndarray) -> np.ndarray:
    """Feature-map states, shape (rows, 4), by per-row matrix products."""
    hh = _on(H2, 1) @ _on(H2, 0)
    x0, x1 = X[:, 0], X[:, 1]
    if model == "benchmark":
        op = _on(_phase(2.0 * x1), 1) @ _on(_phase(2.0 * x0), 0) @ hh
        op = CNOT_01 @ _on(_phase(2.0 * (math.pi - x0) * (math.pi - x1)), 1) @ CNOT_01 @ op
    else:
        op = _on(_ry(2.0 * x1 - 1.5), 1) @ _on(_ry(2.0 * x0 - 1.5), 0) @ hh
        op = CNOT_01 @ op
    return op[:, :, 0]


def class_probs(model: str, X: np.ndarray, w) -> np.ndarray:
    """(P(even parity), P(odd parity)) per row for a named two-qubit classifier."""
    reps = {"benchmark": 3, "eqnn1": 1, "eqnn2": 2, "eqnn3": 3}[model]
    states = encoded_states(model, X) @ ansatz_matrix(np.asarray(w, float), reps).T
    probs = np.abs(states) ** 2
    even = probs[:, 0] + probs[:, 3]
    return np.stack([even, probs[:, 1] + probs[:, 2]], axis=-1)


def cross_entropy(probs: np.ndarray, labels: np.ndarray) -> float:
    picked = probs[np.arange(len(labels)), labels]
    return float(np.mean(-np.log(np.maximum(picked, PROB_EPS))))


def split_indices(n_rows: int, test_fraction: float, seed: int):
    """The documented seeded shuffle-split: (train rows, test rows)."""
    order = np.random.default_rng(seed).permutation(n_rows)
    n_test = int(round(n_rows * test_fraction))
    return order[n_test:], order[:n_test]


def sampled_accuracy_band(p_even: np.ndarray, labels: np.ndarray, shots: int,
                          sigmas: float = 6.0):
    """Expected shot-sampled accuracy and its tolerance.

    Each row predicts class 0 when at least half of its ``shots`` parity
    samples are even; the even count is Binomial(shots, P(even)) however
    it is drawn, so the number of correct rows has a known mean and
    variance.  The tolerance is ``sigmas`` standard deviations plus one row.
    """
    from scipy.stats import binom

    p_class0 = binom.sf(math.ceil(shots / 2) - 1, shots, np.clip(p_even, 0.0, 1.0))
    p_correct = np.where(labels == 0, p_class0, 1.0 - p_class0)
    n = len(labels)
    mean = float(np.mean(p_correct))
    sd = float(np.sqrt(np.sum(p_correct * (1.0 - p_correct)))) / n
    return mean, sigmas * sd + 1.0 / n


def fit_dataset(target: str, n: int, seed: int):
    """The documented activation-fit generators: (features, targets)."""
    rng = np.random.default_rng(seed)
    if target == "linear":
        x = rng.uniform(-1.0, 1.0, n)
        return x, x
    if target == "sigmoid":
        raw = rng.uniform(-3.0, 3.0, n)
        return raw / 2.0, 2.0 / (1.0 + np.exp(-raw)) - 1.0
    if target == "tanh":
        x = rng.uniform(-1.5, 1.5, n)
        return x, np.tanh(x)
    raise ValueError(f"unknown fit target {target!r}")


def fit_mse(target: str, n: int, seed: int, weight: float) -> float:
    """MSE of the one-qubit model, whose output is -sin(x + w) in closed form."""
    x, y = fit_dataset(target, n, seed)
    return float(np.mean((-np.sin(x + weight) - y) ** 2))


# --------------------------------------------------------------------------
# Wide register


def real_amplitudes_state(n: int, reps: int, w, plus_start: bool) -> np.ndarray:
    """RealAmplitudes(n, reps) applied to |0..0> or to H^n|0..0>.

    The register is a ``(2,)*n`` tensor; a one-qubit gate is a tensordot
    on the qubit's axis followed by moving the axis back, and a CNOT
    flips the target axis inside the control-1 slice.
    """
    dim = 1 << n
    if plus_start:
        psi = np.full(dim, 1.0 / math.sqrt(dim), dtype=complex)
    else:
        psi = np.zeros(dim, dtype=complex)
        psi[0] = 1.0
    psi = psi.reshape((2,) * n)

    def ry(q, theta):
        nonlocal psi
        axis = n - 1 - q
        psi = np.moveaxis(np.tensordot(_ry(theta), psi, axes=([1], [axis])), 0, axis)

    def cnot(control, target):
        nonlocal psi
        c_axis, t_axis = n - 1 - control, n - 1 - target
        out = psi.copy()
        index = [slice(None)] * n
        index[c_axis] = 1
        sub = psi[tuple(index)]
        out[tuple(index)] = np.flip(sub, axis=t_axis - (t_axis > c_axis))
        psi = out

    w = np.asarray(w, dtype=float)
    for q in range(n):
        ry(q, w[q])
    for layer in range(1, reps + 1):
        for q in range(n - 1):
            cnot(q, q + 1)
        for q in range(n):
            ry(q, w[layer * n + q])
    return psi.reshape(dim)


def parity_split(amps: np.ndarray) -> np.ndarray:
    """(P(even popcount), P(odd popcount)) of an amplitude vector."""
    probs = np.abs(amps) ** 2
    n = len(probs).bit_length() - 1
    parity = np.zeros(len(probs), dtype=np.uint8)
    for q in range(n):
        parity ^= ((np.arange(len(probs)) >> q) & 1).astype(np.uint8)
    odd = float(probs[parity == 1].sum())
    return np.array([float(probs.sum()) - odd, odd])

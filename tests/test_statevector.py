import numpy as np
import pytest

import oracles
from eqnn.errors import ConfigurationError, UsageError
from eqnn.statevector import (
    RY,
    Hadamard,
    Phase,
    StateVector,
    apply_cnot,
    apply_single,
    kernel_cnot,
    kernel_h,
    kernel_phase,
    kernel_ry,
    probabilities,
    zero_state,
)


def as_state(amps):
    amps = np.asarray(amps, dtype=complex)
    return StateVector(int(np.log2(len(amps))), amps)


def random_state(rng, n):
    return as_state(oracles.random_state(rng, n))


def test_zero_state_basis():
    one = zero_state(1)
    assert one.n_qubits == 1
    np.testing.assert_array_equal(one.amps, [1.0, 0.0])
    two = zero_state(2)
    np.testing.assert_array_equal(two.amps, [1.0, 0.0, 0.0, 0.0])
    assert zero_state(5).dim == 32


def test_zero_state_rejects_bad_sizes():
    for n in (0, -1, 21):
        with pytest.raises(ConfigurationError):
            zero_state(n)


def test_statevector_rejects_unnormalized_and_misshaped():
    with pytest.raises(UsageError):
        StateVector(1, np.array([1.0, 1.0]))
    with pytest.raises(UsageError):
        StateVector(2, np.array([1.0, 0.0]))


def test_hadamard_on_zero_gives_uniform():
    state = apply_single(zero_state(1), Hadamard(), 0)
    np.testing.assert_allclose(state.amps, [oracles.SQRT_HALF] * 2, atol=1e-15)


def test_single_qubit_kernels_match_matrix_oracle():
    rng = np.random.default_rng(11)
    cases = [
        (Hadamard(), oracles.H2),
        (Phase(0.7), oracles.phase_matrix(0.7)),
        (RY(-1.3), oracles.ry_matrix(-1.3)),
    ]
    for n in (1, 2, 3):
        for q in range(n):
            for gate, matrix in cases:
                state = random_state(rng, n)
                got = apply_single(state, gate, q).amps
                want = oracles.single_on(n, q, matrix) @ state.amps
                np.testing.assert_allclose(got, want, atol=1e-12)


def test_cnot_matches_matrix_oracle_all_pairs():
    rng = np.random.default_rng(12)
    for n in (2, 3):
        for control in range(n):
            for target in range(n):
                if control == target:
                    continue
                state = random_state(rng, n)
                got = apply_cnot(state, control, target).amps
                want = oracles.cnot_matrix(n, control, target) @ state.amps
                np.testing.assert_allclose(got, want, atol=1e-15)


def test_cnot_permutes_basis_states():
    # control q0, target q1: |00> -> |00>, |01>=idx1 -> idx3, idx2 -> idx2, idx3 -> idx1
    for col, row in ((0, 0), (1, 3), (2, 2), (3, 1)):
        amps = np.zeros(4)
        amps[col] = 1.0
        out = apply_cnot(as_state(amps), 0, 1).amps
        assert out[row] == 1.0 and np.count_nonzero(out) == 1


def test_h_and_cnot_are_involutions():
    rng = np.random.default_rng(13)
    for _ in range(20):
        state = random_state(rng, 2)
        twice = apply_single(apply_single(state, Hadamard(), 1), Hadamard(), 1)
        np.testing.assert_allclose(twice.amps, state.amps, atol=1e-12)
        swapped = apply_cnot(apply_cnot(state, 1, 0), 1, 0)
        np.testing.assert_allclose(swapped.amps, state.amps, atol=1e-15)


def test_zero_angle_gates_are_identity():
    rng = np.random.default_rng(14)
    for _ in range(20):
        state = random_state(rng, 2)
        for gate in (Phase(0.0), RY(0.0)):
            np.testing.assert_allclose(
                apply_single(state, gate, 0).amps, state.amps, atol=1e-15
            )


def test_ry_angles_compose_additively():
    rng = np.random.default_rng(15)
    for _ in range(10):
        state = random_state(rng, 1)
        a, b = rng.uniform(-np.pi, np.pi, 2)
        step = apply_single(apply_single(state, RY(a), 0), RY(b), 0)
        joined = apply_single(state, RY(a + b), 0)
        np.testing.assert_allclose(step.amps, joined.amps, atol=1e-12)


def test_gates_preserve_norm():
    rng = np.random.default_rng(16)
    for _ in range(25):
        state = random_state(rng, 3)
        for op in (
            lambda s: apply_single(s, Hadamard(), 2),
            lambda s: apply_single(s, Phase(rng.uniform(-9, 9)), 1),
            lambda s: apply_single(s, RY(rng.uniform(-9, 9)), 0),
            lambda s: apply_cnot(s, 2, 0),
        ):
            state = op(state)
            assert abs(np.sum(np.abs(state.amps) ** 2) - 1.0) < 1e-12


def test_probabilities_sum_to_one_and_match_amplitudes():
    rng = np.random.default_rng(17)
    state = random_state(rng, 3)
    probs = probabilities(state)
    assert probs.shape == (8,)
    assert abs(probs.sum() - 1.0) < 1e-12
    np.testing.assert_allclose(probs, np.abs(state.amps) ** 2)


def test_qubit_index_validation():
    state = zero_state(2)
    with pytest.raises(UsageError):
        apply_single(state, Hadamard(), 2)
    with pytest.raises(UsageError):
        apply_single(state, RY(0.1), -1)
    with pytest.raises(UsageError):
        apply_cnot(state, 0, 2)
    with pytest.raises(UsageError):
        apply_cnot(state, 1, 1)
    with pytest.raises(UsageError):
        apply_single(state, "h", 0)


def test_batched_kernels_equal_per_row_application():
    rng = np.random.default_rng(18)
    batch = np.stack([oracles.random_state(rng, 2) for _ in range(7)])
    thetas = rng.uniform(-np.pi, np.pi, 7)

    batched = kernel_ry(batch, thetas, 1)
    rows = np.stack([kernel_ry(batch[i], thetas[i], 1) for i in range(7)])
    np.testing.assert_array_equal(batched, rows)

    batched = kernel_phase(batch, thetas, 0)
    rows = np.stack([kernel_phase(batch[i], thetas[i], 0) for i in range(7)])
    np.testing.assert_array_equal(batched, rows)

    for kernel in (lambda a: kernel_h(a, 0), lambda a: kernel_cnot(a, 0, 1)):
        np.testing.assert_array_equal(
            kernel(batch), np.stack([kernel(batch[i]) for i in range(7)])
        )


def test_phase_on_real_amplitudes_is_complex():
    # A walk starts in float64; the phase gate must keep the imaginary part
    # of e^{i theta} rather than drop it on the way back into a real array.
    np.testing.assert_array_equal(
        kernel_phase(np.array([0.6, 0.8]), 0.5, 0), [0.6, 0.8 * np.exp(0.5j)]
    )
    rng = np.random.default_rng(19)
    batch = rng.normal(size=(5, 4))
    batch /= np.linalg.norm(batch, axis=1, keepdims=True)
    thetas = rng.uniform(-np.pi, np.pi, 5)
    out = kernel_phase(batch, thetas, 1)
    assert out.dtype == complex
    np.testing.assert_array_equal(out, kernel_phase(batch.astype(complex), thetas, 1))
    for row, theta, got in zip(batch, thetas, out):
        want = oracles.single_on(2, 1, oracles.phase_matrix(theta)) @ row
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-15)


def test_twenty_qubit_register_round_trip():
    state = zero_state(20)
    state = apply_single(state, Hadamard(), 19)
    state = apply_cnot(state, 19, 0)
    probs = probabilities(state)
    assert abs(probs.sum() - 1.0) < 1e-12
    # H then CNOT from |0...0> is a Bell pair on qubits 19 and 0.
    assert probs[0] == pytest.approx(0.5)
    assert probs[(1 << 19) | 1] == pytest.approx(0.5)

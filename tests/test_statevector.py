import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from eqnn import statevector
from eqnn.circuit import build_real_amplitudes
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
from eqnn.qnn import simulate


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
    # A nan sum of squares fails the norm check too: it is not within 1e-12 of 1.
    for n, amps in [
        (1, [1.0, 1.0]),
        (2, [1.0, 0.0]),
        (1, [np.nan, 0.0]),
        (1, [np.inf, 0.0]),
        (2, [0.5, 0.5, 0.5, -np.inf]),
    ]:
        with pytest.raises(UsageError):
            StateVector(n, np.array(amps))
    with pytest.raises(UsageError, match="not normalized"):
        simulate(build_real_amplitudes(2, 1), [], [np.nan, 0.0, 0.0, 0.0])


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
    # The amplitude axis comes first; the batch axes trail.
    rng = np.random.default_rng(18)
    batch = np.stack([oracles.random_state(rng, 2) for _ in range(7)], axis=1)
    thetas = rng.uniform(-np.pi, np.pi, 7)
    assert batch.shape == (4, 7)

    batched = kernel_ry(batch, thetas, 1)
    rows = np.stack([kernel_ry(batch[:, i], thetas[i], 1) for i in range(7)], axis=1)
    np.testing.assert_array_equal(batched, rows)

    batched = kernel_phase(batch, thetas, 0)
    rows = np.stack([kernel_phase(batch[:, i], thetas[i], 0) for i in range(7)], axis=1)
    np.testing.assert_array_equal(batched, rows)

    for kernel in (lambda a: kernel_h(a, 0), lambda a: kernel_cnot(a, 0, 1)):
        np.testing.assert_array_equal(
            kernel(batch), np.stack([kernel(batch[:, i]) for i in range(7)], axis=1)
        )

    # One qubit and one column leave a one-element half; it rounds as alone.
    for _ in range(20):
        column, theta = oracles.random_state(rng, 1), rng.uniform(-np.pi, np.pi)
        np.testing.assert_array_equal(
            kernel_phase(column[:, None], np.array([theta]), 0)[:, 0],
            kernel_phase(column, theta, 0),
        )

    # A batch laid out the old way, (batch, 2**n), is refused, not misread.
    for kernel in (
        lambda a: kernel_h(a, 0),
        lambda a: kernel_ry(a, thetas[:, None], 1),
        lambda a: kernel_phase(a, thetas[:, None], 0),
        lambda a: kernel_cnot(a, 0, 1),
    ):
        with pytest.raises(UsageError, match="amplitude axis has length 7, not a power of two"):
            kernel(batch.T)


def test_phase_on_real_amplitudes_is_complex():
    # A walk starts in float64; the phase gate must keep the imaginary part
    # of e^{i theta} rather than drop it on the way back into a real array.
    np.testing.assert_array_equal(
        kernel_phase(np.array([0.6, 0.8]), 0.5, 0), [0.6, 0.8 * np.exp(0.5j)]
    )
    rng = np.random.default_rng(19)
    batch = rng.normal(size=(4, 5))
    batch /= np.linalg.norm(batch, axis=0, keepdims=True)
    thetas = rng.uniform(-np.pi, np.pi, 5)
    out = kernel_phase(batch, thetas, 1)
    assert out.dtype == complex
    np.testing.assert_array_equal(out, kernel_phase(batch.astype(complex), thetas, 1))
    for column, theta, got in zip(batch.T, thetas, out.T):
        want = oracles.single_on(2, 1, oracles.phase_matrix(theta)) @ column
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-15)


def _layouts(draw, amps):
    """``amps`` as drawn: C-ordered, zero-stride broadcast, or transposed in memory."""
    layout = draw(st.sampled_from(("c", "broadcast", "transposed")))
    if layout == "broadcast":  # every column is the first one, at stride 0
        first = amps.reshape(len(amps), -1)[:, 0]
        return np.broadcast_to(first.reshape(first.shape + (1,) * (amps.ndim - 1)), amps.shape)
    if layout == "transposed":
        return np.ascontiguousarray(amps.T).T
    return amps


@settings(max_examples=150)
@given(data=st.data())
def test_kernels_act_column_by_column_and_match_the_matrix_oracle(data):
    # Any n, dtype, batch shape and memory layout: every column of the output
    # is exactly the kernel on that column alone and matches the dense
    # matrix; the output is fresh and C-ordered, and the input is untouched.
    n = data.draw(st.integers(1, 6), label="n")
    sizes = st.integers(1, 4)
    batch = data.draw(
        st.one_of(st.just(()), st.tuples(sizes), st.tuples(sizes, sizes)), label="batch"
    )
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    amps = rng.normal(size=(1 << n,) + batch)
    if data.draw(st.booleans(), label="complex"):
        amps = amps + 1j * rng.normal(size=amps.shape)
    amps = _layouts(data.draw, amps)
    before = amps.copy()
    thetas = rng.uniform(-np.pi, np.pi, batch)

    singles = (
        (lambda a, th, q: kernel_h(a, q), lambda th: oracles.H2),
        (kernel_ry, oracles.ry_matrix),
        (kernel_phase, oracles.phase_matrix),
    )
    cases = [
        (lambda a, th, k=k, q=q: k(a, th, q), lambda th, m=m, q=q: oracles.single_on(n, q, m(th)))
        for k, m in singles
        for q in range(n)
    ]
    cases += [
        (lambda a, th, c=c, t=t: kernel_cnot(a, c, t),
         lambda th, c=c, t=t: oracles.cnot_matrix(n, c, t))
        for c in range(n)
        for t in range(n)
        if c != t
    ]
    for kernel, matrix in cases:
        out = kernel(amps, thetas)
        assert out.shape == amps.shape
        assert out.flags.c_contiguous
        assert not np.shares_memory(out, amps)
        for idx in np.ndindex(*batch):
            column = amps[(slice(None),) + idx]
            got = out[(slice(None),) + idx]
            np.testing.assert_array_equal(got, kernel(column, thetas[idx]))
            np.testing.assert_allclose(
                got, matrix(thetas[idx]) @ column, rtol=0.0, atol=1e-12
            )
        np.testing.assert_array_equal(amps, before)


@settings(max_examples=150)
@given(data=st.data())
def test_tiled_kernels_equal_the_one_tile_kernels_bit_for_bit(data):
    # With the kernel tile forced small, H and RY work through the pair
    # halves in many tiles: at low positions a tile spans several ``pre``
    # rows, at high ones it splits ``post``.  Every position, real or
    # complex, C-ordered, zero-stride or transposed input, scalar or
    # batch-shaped angle: each output equals, byte for byte, that of the
    # kernels with one tile as large as the state.
    n = data.draw(st.integers(1, 9), label="n")
    batch = data.draw(st.sampled_from([(), (1,), (3,), (2, 1), (2, 3)]), label="batch")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    amps = rng.normal(size=(1 << n,) + batch)
    if data.draw(st.booleans(), label="complex"):
        amps = amps + 1j * rng.normal(size=amps.shape)
    amps = _layouts(data.draw, amps)
    theta = data.draw(st.sampled_from(["scalar", "batch", "leading"]), label="angle")
    if theta == "scalar" or not batch:
        theta = rng.uniform(-np.pi, np.pi)
    elif theta == "batch":
        theta = rng.uniform(-np.pi, np.pi, batch)
    else:  # one angle per leading batch row, as a batched walk gives it
        theta = rng.uniform(-np.pi, np.pi, batch[:1] + (1,) * (len(batch) - 1))
    row = amps.itemsize * math.prod(batch)
    tile = row << data.draw(st.integers(0, max(0, n - 2)), label="tile")
    kernels = [lambda a, q: kernel_h(a, q), lambda a, q: kernel_ry(a, theta, q)]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(statevector, "_KERNEL_TILE_BYTES", 1 << 62)
        whole = [kernel(amps, q) for kernel in kernels for q in range(n)]
        patch.setattr(statevector, "_KERNEL_TILE_BYTES", tile)
        tiled = [kernel(amps, q) for kernel in kernels for q in range(n)]
    for one, many in zip(whole, tiled):
        assert many.dtype == one.dtype and many.tobytes() == one.tobytes()


@settings(max_examples=150)
@given(data=st.data())
def test_a_cnot_run_equals_its_cnots_one_at_a_time_bit_for_bit(data):
    # A run of CNOTs given to ``kernel_cnot`` as two sequences is one gather
    # through source tables; it equals, byte for byte, the same CNOTs
    # applied one at a time by copying and flipping halves.  Runs of any
    # pairs on 2-12 qubits (control above or below target, a pair repeated)
    # and full chains on 14 or 16, whose span of more than 2^12 chunks
    # splits into two tables; real or complex; scalar, batch or empty-batch
    # shape; C-ordered, zero-stride or transposed input.  An out-of-range
    # qubit, or a control equal to its target, in any pair is refused.
    if data.draw(st.booleans(), label="full chain"):
        n = data.draw(st.sampled_from([14, 16]), label="n")
        pairs = [(q, q + 1) for q in range(n - 1)]
        if data.draw(st.booleans(), label="downwards"):
            pairs = [(t, c) for c, t in reversed(pairs)]
    else:
        n = data.draw(st.integers(2, 12), label="n")
        pair = st.permutations(range(n)).map(lambda p: tuple(p[:2]))
        pairs = data.draw(st.lists(pair, min_size=1, max_size=8), label="pairs")
        if data.draw(st.booleans(), label="repeat"):
            pairs.append(pairs[data.draw(st.integers(0, len(pairs) - 1), label="repeated")])
    batch = data.draw(st.sampled_from([(), (3,), (2, 3), (0,), (2, 0)]), label="batch")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    amps = rng.normal(size=(1 << n,) + batch)
    if data.draw(st.booleans(), label="complex"):
        amps = amps + 1j * rng.normal(size=amps.shape)
    if amps.size:  # an empty batch has no column to broadcast
        amps = _layouts(data.draw, amps)
    before = amps.copy()
    seq = data.draw(st.sampled_from([tuple, list]), label="sequence")

    want = amps
    for c, t in pairs:
        want = oracles.cnot_by_halves(want, c, t)
    got = kernel_cnot(amps, *(seq(qubits) for qubits in zip(*pairs)))
    assert got.dtype == amps.dtype and got.shape == amps.shape and got.flags.c_contiguous
    assert got.tobytes() == want.tobytes()
    np.testing.assert_array_equal(amps, before)

    i = data.draw(st.integers(0, len(pairs) - 1), label="refused pair")
    c, t = pairs[i]
    for bad, message in (
        ((n, t), f"control qubit {n} out of range for {n}-qubit state"),
        ((c, -1), f"target qubit -1 out of range for {n}-qubit state"),
        ((t, t), f"cnot control and target must differ (both {t})"),
    ):
        refused = pairs[:i] + [bad] + pairs[i + 1 :]
        with pytest.raises(UsageError, match=re.escape(message)):
            kernel_cnot(amps, *(seq(qubits) for qubits in zip(*refused)))


def test_a_cnot_run_needs_one_target_per_control():
    amps = zero_state(3).amps
    for controls, targets in (((0, 1), (1,)), ([0], [1, 2]), ((), ()), ((0, 1), 2)):
        with pytest.raises(UsageError, match="a cnot run needs one target per control"):
            kernel_cnot(amps, controls, targets)
    with pytest.raises(UsageError, match=re.escape("target qubit must be an integer, got (1, 2)")):
        kernel_cnot(amps, 0, (1, 2))


TWO_QUBITS = np.array([0.6, 0.0, 0.8, 0.0])
NON_INTEGER_QUBITS = {
    "kernel_h": (lambda: kernel_h(TWO_QUBITS, 1.5), "qubit must be an integer, got 1.5"),
    "kernel_ry": (lambda: kernel_ry(TWO_QUBITS, 0.3, 1.0), "qubit must be an integer, got 1.0"),
    "kernel_phase": (
        lambda: kernel_phase(TWO_QUBITS, 0.3, np.float64(0.0)), "qubit must be an integer, got 0.0"
    ),
    "kernel_cnot control": (
        lambda: kernel_cnot(TWO_QUBITS, 0.0, 1), "control qubit must be an integer, got 0.0"
    ),
    "kernel_cnot target": (
        lambda: kernel_cnot(TWO_QUBITS, 0, 1.0), "target qubit must be an integer, got 1.0"
    ),
    "kernel_cnot run": (
        lambda: kernel_cnot(TWO_QUBITS, (0, 1.0), (1, 0)),
        "control qubit must be an integer, got 1.0",
    ),
    "apply_single": (
        lambda: apply_single(as_state(TWO_QUBITS), RY(0.3), 0.5),
        "qubit must be an integer, got 0.5",
    ),
    "apply_cnot": (
        lambda: apply_cnot(as_state(TWO_QUBITS), 0.0, 1),
        "control qubit must be an integer, got 0.0",
    ),
}


@pytest.mark.parametrize(
    "call, message", NON_INTEGER_QUBITS.values(), ids=NON_INTEGER_QUBITS.keys()
)
def test_kernels_refuse_a_non_integer_qubit(call, message):
    # Refused with the package's own error naming the position, not left
    # to fail in numpy's shift or reshape with a bare TypeError.
    with pytest.raises(UsageError, match=re.escape(message)):
        call()


def test_kernels_take_numpy_integer_qubits():
    one, zero = np.int64(1), np.int64(0)
    for kernel in (
        lambda q, p: kernel_h(TWO_QUBITS, q),
        lambda q, p: kernel_ry(TWO_QUBITS, 0.3, q),
        lambda q, p: kernel_phase(TWO_QUBITS, 0.3, q),
        lambda q, p: kernel_cnot(TWO_QUBITS, q, p),
        lambda q, p: kernel_cnot(TWO_QUBITS, [q, p], (p, q)),
    ):
        assert kernel(one, zero).tobytes() == kernel(1, 0).tobytes()
    state = as_state(TWO_QUBITS)
    np.testing.assert_array_equal(
        apply_single(state, Hadamard(), one).amps, apply_single(state, Hadamard(), 1).amps
    )
    np.testing.assert_array_equal(apply_cnot(state, one, zero).amps, apply_cnot(state, 1, 0).amps)


@settings(max_examples=100)
@given(data=st.data())
def test_kernels_write_into_a_given_out_exactly_as_into_a_fresh_one(data):
    # Any n, dtype, batch shape, input layout and kernel tile: a kernel
    # given ``out`` (and RY its ``scratch``, a tile and two planes) fills
    # it with exactly the fresh output, returns it, and leaves the input
    # untouched.  An ``out`` or ``scratch`` that may overlap the input (or,
    # for ``scratch``, ``out``), or has the wrong shape, dtype or order, or
    # is read-only, is refused.
    n = data.draw(st.integers(1, 5), label="n")
    batch = data.draw(st.one_of(st.just(()), st.tuples(st.integers(1, 4))), label="batch")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    amps = rng.normal(size=(1 << n,) + batch)
    if data.draw(st.booleans(), label="complex"):
        amps = amps + 1j * rng.normal(size=amps.shape)
    amps = _layouts(data.draw, amps)
    before = amps.copy()
    theta = rng.uniform(-np.pi, np.pi, batch)
    q = data.draw(st.integers(0, n - 1), label="qubit")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(statevector, "_KERNEL_TILE_BYTES", 1 << data.draw(st.integers(3, 12)))
        _check_given_out(amps, before, theta, q, batch)


def _check_given_out(amps, before, theta, q, batch):
    n = len(amps).bit_length() - 1
    scratch = (statevector._tile_amplitudes(amps) + 2,) + batch
    kernels = {
        "h": (lambda a, **kw: kernel_h(a, q, **kw), amps.dtype),
        "ry": (lambda a, **kw: kernel_ry(a, theta, q, **kw), amps.dtype),
        "phase": (lambda a, **kw: kernel_phase(a, theta, q, **kw), np.dtype(complex)),
    }
    if n > 1:
        kernels["cnot"] = (lambda a, **kw: kernel_cnot(a, q, (q + 1) % n, **kw), amps.dtype)
    for name, (kernel, dtype) in kernels.items():
        fresh = kernel(amps)
        out = np.full(amps.shape, np.nan, dtype)
        extra = {"scratch": np.full(scratch, np.nan, dtype)} if name == "ry" else {}
        assert kernel(amps, out=out, **extra) is out
        np.testing.assert_array_equal(out, fresh)
        np.testing.assert_array_equal(amps, before)

        # Wrong shape, dtype or order, the input itself, and an array that
        # overlaps its input by all but one element: each is refused.
        wrong = [
            np.empty(amps.shape + (1,), dtype),
            np.empty((2 * len(amps),) + batch, dtype),
            np.empty(amps.shape, np.float32),
        ]
        transposed = np.empty(amps.shape[::-1], dtype).T
        if not transposed.flags.c_contiguous:  # a length-1 axis may leave it C-ordered
            wrong.append(transposed)
        if dtype == complex:
            wrong.append(np.empty(amps.shape, float))
        if amps.flags.c_contiguous and amps.flags.writeable and amps.dtype == dtype:
            wrong.append(amps)
        for bad in wrong:
            with pytest.raises(UsageError, match="out must"):
                kernel(amps, out=bad, **extra)
        shifted = np.empty(amps.size + 1, dtype)
        shifted[1:] = amps.ravel()
        source, overlapping = shifted[1:].reshape(amps.shape), shifted[:-1].reshape(amps.shape)
        with pytest.raises(UsageError, match="must not overlap the input"):
            kernel(source, out=overlapping, **extra)
        if name == "ry":
            _check_given_scratch(kernel, amps, scratch, dtype)
        np.testing.assert_array_equal(amps, before)


def _check_given_scratch(kernel, amps, shape, dtype):
    """RY refuses a scratch of another shape than ``shape``, a tile and two
    planes (such as the tile alone, or a half-size one where it tiles),
    dtype or order, a read-only one, and one that overlaps its input or
    ``out``."""
    read_only = np.empty(shape, dtype)
    read_only.flags.writeable = False
    tile = shape[0] - 2
    wrong = [
        np.empty((tile,) + shape[1:], dtype),
        np.empty((tile - 1,) + shape[1:], dtype),
        np.empty((tile + 1,) + shape[1:], dtype),
        np.empty((tile + 3,) + shape[1:], dtype),
        np.empty(shape, np.float32),
        read_only,
    ]
    # A tile and two planes is the whole state of two qubits, and half the
    # state where a tile is two amplitudes short of it.
    if len(amps) != shape[0]:
        wrong.append(np.empty(amps.shape, dtype))
    if tile < len(amps) // 2 != shape[0]:
        wrong.append(np.empty((len(amps) // 2,) + shape[1:], dtype))
    transposed = np.empty(shape[::-1], dtype).T
    if not transposed.flags.c_contiguous:
        wrong.append(transposed)
    for bad in wrong:
        with pytest.raises(UsageError, match="scratch must"):
            kernel(amps, out=np.empty(amps.shape, dtype), scratch=bad)
    # One buffer under both the input (or ``out``) and the scratch; a
    # scratch may be longer than a one-qubit state.
    size = math.prod(shape)
    shared = np.empty(max(amps.size, size), dtype)
    shared[: amps.size] = amps.ravel()
    source, overlapping = shared[: amps.size].reshape(amps.shape), shared[:size].reshape(shape)
    with pytest.raises(UsageError, match="scratch must .*not overlap the input"):
        kernel(source, out=np.empty(amps.shape, dtype), scratch=overlapping)
    with pytest.raises(UsageError, match="scratch must not overlap out"):
        kernel(amps, out=source, scratch=overlapping)


@settings(max_examples=100)
@given(data=st.data())
def test_ry_with_one_angle_per_leading_row_equals_the_four_product_oracle(data):
    # A (B, 1) angle over (2**n, B, rows) amplitudes, as a gradient walks
    # its 2m+1 weight rows: any position, real or complex, C-ordered,
    # zero-stride or transposed input, with or without a given scratch,
    # and one tiled wide register: every byte equals the four products
    # broadcast as given.
    tiled = data.draw(st.booleans(), label="tiled")
    if tiled:  # more than one kernel tile per half
        n, B, rows = (data.draw(st.integers(*bounds)) for bounds in ((10, 12), (2, 4), (20, 32)))
    else:
        n, B, rows = (data.draw(st.integers(*bounds)) for bounds in ((1, 4), (2, 40), (1, 600)))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    amps = rng.normal(size=(1 << n, B, rows))
    if data.draw(st.booleans(), label="complex"):
        amps = amps + 1j * rng.normal(size=amps.shape)
    amps = _layouts(data.draw, amps)
    before = amps.copy()
    theta = rng.uniform(-np.pi, np.pi, (B, 1))
    q = data.draw(st.integers(0, n - 1), label="qubit")
    k = statevector._tile_amplitudes(amps)
    assert not tiled or k < len(amps) // 2
    want = oracles.ry_by_halves(amps, theta, q).tobytes()
    assert kernel_ry(amps, theta, q).tobytes() == want
    scratch = np.full((k + 2, B, rows), np.nan, amps.dtype)
    out = np.full(amps.shape, np.nan, amps.dtype)
    assert kernel_ry(amps, theta, q, out=out, scratch=scratch) is out
    assert out.tobytes() == want
    if rows > 1:  # the angle broadcast along rows, through the planes
        cos_sin = np.stack([np.cos(theta / 2.0), np.sin(theta / 2.0)])
        np.testing.assert_array_equal(scratch[k:], np.broadcast_to(cos_sin, scratch[k:].shape))
    np.testing.assert_array_equal(amps, before)


def test_ry_with_planes_in_scratch_allocates_nothing_of_batch_size():
    # A gradient's block: 17 weight rows over 481 rows of a two-qubit
    # register, one angle per weight row.  Given ``out`` and a scratch of
    # a tile and two planes, cos and sin are filled into the planes, and
    # nothing of one (17, 481) plane's size is allocated.
    amps = np.random.default_rng(22).normal(size=(4, 17, 481))
    theta = np.random.default_rng(23).uniform(-np.pi, np.pi, (17, 1))
    k = statevector._tile_amplitudes(amps)
    out, scratch = np.empty_like(amps), np.empty((k + 2, 17, 481))
    plane = 17 * 481 * amps.itemsize
    tracemalloc.start()
    try:
        kernel_ry(amps, theta, 0, out=out, scratch=scratch)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < plane / 10, peak
    assert out.tobytes() == oracles.ry_by_halves(amps, theta, 0).tobytes()


def test_kernels_given_out_allocate_nothing_of_size():
    # With ``out`` (and RY's ``scratch``, one tile and two one-amplitude
    # planes) supplied, a kernel on one 2**16-amplitude float64 state
    # allocates no array of its size.
    amps = np.random.default_rng(21).normal(size=1 << 16)
    out = np.empty_like(amps)
    scratch = np.empty(statevector._KERNEL_TILE_BYTES // amps.itemsize + 2)
    for kernel in (
        lambda: kernel_cnot(amps, 3, 9, out=out),
        lambda: kernel_h(amps, 15, out=out),
        lambda: kernel_ry(amps, 0.3, 0, out=out, scratch=scratch),
    ):
        tracemalloc.start()
        try:
            kernel()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < amps.nbytes / 100, peak


@pytest.mark.parametrize(
    "kernel, bound",
    [
        (lambda a: kernel_cnot(a, 3, 9), 1.05),
        (lambda a: kernel_h(a, 15), 1.05),
        (lambda a: kernel_ry(a, 0.3, 0), 1.3),
    ],
    ids=["cnot", "h", "ry"],
)
def test_kernels_allocate_no_index_and_no_whole_size_temporary(kernel, bound):
    # One 2**16-amplitude float64 state.  Past the output, CNOT and H may
    # allocate nothing of size (no gather index), and RY one 128 KB tile,
    # a quarter of the output, for its second product (1.26 measured).
    amps = np.random.default_rng(20).normal(size=1 << 16)
    tracemalloc.start()
    try:
        out = kernel(amps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / out.nbytes <= bound, peak / out.nbytes


def test_twenty_qubit_register_round_trip():
    state = zero_state(20)
    state = apply_single(state, Hadamard(), 19)
    state = apply_cnot(state, 19, 0)
    probs = probabilities(state)
    assert abs(probs.sum() - 1.0) < 1e-12
    # H then CNOT from |0...0> is a Bell pair on qubits 19 and 0.
    assert probs[0] == pytest.approx(0.5)
    assert probs[(1 << 19) | 1] == pytest.approx(0.5)

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
import strategies
from eqnn import qnn, statevector
from eqnn.circuit import (
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
from eqnn.data import Dataset, Sample, gen_linear, gen_two_class_usage
from eqnn.errors import UsageError
from eqnn.optim import initial_weights, make_objective, parameter_shift_gradient
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
    for n in range(1, 13):
        popcount = [bin(i).count("1") for i in range(1 << n)]
        want = np.array([(-1.0) ** c for c in popcount])
        assert parity_signs(n).dtype == float
        np.testing.assert_array_equal(parity_signs(n), want)


def test_parity_signs_allocates_little_beyond_its_result():
    # 16 qubits give a 512 KB vector; the build may not hold a per-bit table.
    tracemalloc.start()
    try:
        signs = parity_signs(16)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * signs.nbytes


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
    with pytest.raises(UsageError, match=r"needs 4 weights per row, got shape \(1,\)"):
        forward(model, [0.1, 0.2], [0.0])
    with pytest.raises(UsageError, match=r"one weight row, got shape \(2, 4\)"):
        predict_probs(model, np.zeros((3, 2)), np.zeros((2, 4)))


@given(problem=strategies.problems(), data=st.data())
def test_predictions_refuse_a_non_finite_feature_or_weight(problem, data):
    # A nan or +-inf in one input row, or in one weight, is refused before
    # any walk, naming its row or weight; it never reads as a nan
    # probability, as class 0 in an accuracy, or as a nan loss or gradient.
    model, kind, w, dataset = problem
    X, w = dataset.features_array().copy(), w.copy()
    value = data.draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    if data.draw(st.booleans()):
        i = data.draw(st.integers(0, len(X) - 1))
        X[i, data.draw(st.integers(0, X.shape[1] - 1))] = value
        message = f"input row {i} has a non-finite feature"
    else:
        j = data.draw(st.integers(0, len(w) - 1))
        w[j] = value
        message = f"weight {j} is not finite"
        with pytest.raises(UsageError, match=message):
            batch_loss(model, w, dataset, kind)
        with pytest.raises(UsageError, match=message):
            parameter_shift_gradient(model, w, dataset, kind)
    with pytest.raises(UsageError, match=message):
        predict_probs(model, X, w)
    with pytest.raises(UsageError, match=message):
        predict_regression(model, X, w)
    if kind == CROSS_ENTROPY:
        samples = tuple(Sample(tuple(x), s.target) for x, s in zip(X.tolist(), dataset.samples))
        broken = Dataset(samples, dataset.kind, dataset.generator, dataset.seed)
        with pytest.raises(UsageError, match=message):
            accuracy(model, w, broken)


def test_every_prediction_goes_through_probabilities_batch(monkeypatch):
    # The benchmark times ``qnn.probabilities_batch`` as a layer of its own
    # on every workload; a prediction that walked around it would leave
    # that layer unmeasured.
    calls = []
    original = qnn.probabilities_batch

    def spy(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(qnn, "probabilities_batch", spy)
    model, w = build_model("eqnn1"), np.zeros(4)
    dataset = tiny_class_set([(0.1, 0.2, 0), (0.8, 0.9, 1)])
    X = dataset.features_array()
    for predict in (
        lambda: predict_probs(model, X, w),
        lambda: predict_regression(model, X, w),
        lambda: forward(model, X[0], w),
        lambda: accuracy(model, w, dataset),
    ):
        calls.clear()
        predict()
        assert len(calls) == 1


def test_empty_batches_keep_their_shapes():
    model, w = build_model("eqnn1"), np.zeros(4)
    X = np.zeros((0, 2))
    assert predict_regression(model, X, w).shape == (0,)
    assert predict_probs(model, X, w).shape == (0, 2)
    assert probabilities_batch(model, X, w).shape == (0, 4)


@settings(max_examples=80)
@given(data=st.data())
def test_batch_rows_equal_single_state_simulation(data):
    # Named models and random circuits (h/phase/ry/cnot on 1-4 qubits):
    # every batch row is exactly the one-row simulation, which is exactly
    # the walk from a complex |0> (the real start moves no value), and both
    # match the dense matrix product of the bound gates.
    model = data.draw(
        st.one_of(st.sampled_from(ALL_NAMED).map(build_model), strategies.models())
    )
    X = data.draw(strategies.rows(data.draw(st.integers(1, 8)), model.n_inputs))
    w = data.draw(strategies.weights(model.n_weights))
    batch = probabilities_batch(model, X, w)
    assert batch.shape == (len(X), 1 << model.n_qubits)
    complex_zero = np.zeros(1 << model.n_qubits, dtype=complex)
    complex_zero[0] = 1.0
    for x, row in zip(X, batch):
        single = simulate(model.circuit, x, w).amps
        gates = bind(model.circuit, x, w)
        np.testing.assert_array_equal(row, np.abs(single) ** 2)
        np.testing.assert_array_equal(single, qnn._walk(gates, complex_zero, qnn._Workspace()))
        dense = oracles.circuit_state(
            model.n_qubits, [(g.name, g.qubits, g.angle) for g in gates]
        )
        np.testing.assert_allclose(single, dense, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(row, np.abs(dense) ** 2, rtol=0.0, atol=1e-12)


def test_batch_walked_in_blocks_equals_single_state_simulation(monkeypatch):
    # At 64 KB blocks the benchmark's 2 qubits encode, and walk the
    # weights, 1024 complex rows per block; 2051 rows span three blocks, the
    # last a partial one.  (At the default block size they would take one.)
    monkeypatch.setattr(qnn, "_BLOCK_BYTES", 1 << 16)
    model = build_model("benchmark")
    X = np.random.default_rng(3).uniform(-1.0, 1.0, size=(2051, model.n_inputs))
    w = np.linspace(-1.0, 1.0, model.n_weights)
    batch = probabilities_batch(model, X, w)
    singles = [np.abs(simulate(model.circuit, x, w).amps) ** 2 for x in X]
    np.testing.assert_array_equal(batch, np.array(singles))


# --------------------------------------------------------------------------
# Bit rotations of wide registers


def h_layer(n):
    return Circuit(n, tuple(Gate("h", (q,)) for q in range(n)))


def count_rotations(monkeypatch) -> list:
    """Record the shift of every ``qnn._rotate`` call from now on."""
    shifts = []
    original = qnn._rotate

    def spy(amps, d, out):
        shifts.append(d)
        return original(amps, d, out)

    monkeypatch.setattr(qnn, "_rotate", spy)
    return shifts


def test_two_qubit_and_empty_walks_never_rotate(monkeypatch):
    # 3000 rows run 3000 elements at bit position 0 and 6000 at position 1,
    # so only the two-qubit rule keeps these walks from rotating: every
    # loss, gradient and prediction of the named models walks as before.
    shifts = count_rotations(monkeypatch)
    dataset = gen_two_class_usage(per_class=1500, seed=9)
    X = dataset.features_array()
    for name in ("eqnn3", "benchmark"):
        model = build_model(name)
        objective = make_objective(model, dataset, CROSS_ENTROPY)
        w = initial_weights(model.n_weights, seed=9)
        objective.fun(w)
        objective.value_and_grad(w)
    for model in (simplified_model(),) + tuple(build_model(name) for name in ALL_NAMED):
        predict_probs(model, X[:, : model.n_inputs], np.zeros(model.n_weights))
    # A wide register with no rows has nothing to rotate.
    wide = QnnModel("wide", h_layer(14), build_real_amplitudes(14, 1), PARITY)
    assert predict_probs(wide, np.zeros((0, 0)), np.zeros(wide.n_weights)).shape == (0, 2)
    assert shifts == []


@settings(max_examples=100)
@given(data=st.data())
def test_rotated_walk_equals_the_unrotated_walk_bit_for_bit(data):
    # Random h/phase/ry/cnot circuits on 1-12 qubits, walked real or complex
    # from a random 1-D state or a (2**n, b) batch of them (one angle per
    # column): with the fast-run threshold forced low, so that the walk
    # rotates, and the kernel tile forced small, so that H and RY tile
    # their pair halves, every amplitude equals that of the walk that
    # never rotates and works on each half in one tile.
    n = data.draw(st.integers(1, 12))
    batch = data.draw(st.sampled_from([(), (1,), (2,), (3,)]))
    circuit = data.draw(strategies.circuits(n, [Input(0)], max_gates=24))
    X = data.draw(strategies.rows(batch[0] if batch else 1, circuit.input_arity))
    gates = bind(circuit, X if batch else X[0], ())
    dtype = qnn._walk_dtype(data.draw(st.sampled_from([float, complex])), gates)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    start = rng.normal(size=(1 << n,) + batch).astype(dtype)
    if dtype == complex:
        start += 1j * rng.normal(size=start.shape)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(qnn, "_FAST_RUN", 1)  # every position is fast
        patch.setattr(statevector, "_KERNEL_TILE_BYTES", 1 << 62)  # one tile
        plain = qnn._walk(gates, start, qnn._Workspace()).copy()
        patch.setattr(qnn, "_FAST_RUN", 1 << data.draw(st.integers(1, n)))
        patch.setattr(statevector, "_KERNEL_TILE_BYTES", 1 << data.draw(st.integers(4, 12)))
        rotated = qnn._walk(gates, start, qnn._Workspace())
    assert rotated.dtype == plain.dtype
    assert rotated.tobytes() == plain.tobytes()


def test_wide_simulate_matches_the_tensordot_oracle():
    # RealAmplitudes(14, 3) from |0...0> rotates 28 times (see the count
    # test below); the oracle applies each gate by tensordot, and agrees
    # with the dense matrix product on a small register.
    small = build_real_amplitudes(4, 2)
    gates = [(g.name, g.qubits, g.angle) for g in bind(small, (), np.linspace(-2, 2, 12))]
    np.testing.assert_allclose(
        oracles.tensor_state(4, gates), oracles.circuit_state(4, gates), rtol=0.0, atol=1e-14
    )
    n = 14
    circuit = build_real_amplitudes(n, 3)
    w = np.random.default_rng(40).uniform(-math.pi, math.pi, circuit.weight_arity)
    gates = [(g.name, g.qubits, g.angle) for g in bind(circuit, (), w)]
    np.testing.assert_allclose(
        simulate(circuit, (), w).amps, oracles.tensor_state(n, gates), rtol=0.0, atol=1e-10
    )


def test_wide_walks_rotate_once_per_window_of_fast_positions(monkeypatch):
    # A 1-D register of n > 12 qubits runs 2^12 elements only at the
    # n - 12 bit positions from 12 on, so a layer of n one-qubit gates
    # takes ceil(n / (n - 12)) rotations: 7 at 14 qubits, 4 at 17.
    # RealAmplitudes(14, 3) has reps + 1 = 4 RY layers, and an H layer
    # before it makes 5; a CNOT never rotates.  Each walk can end on an
    # unrotated window, so none rotates back.  Every one-qubit gate lands
    # on a fast position, so a walk that never rotates fails too.  Looking
    # ahead matters for an H layer walked downwards, where the target's own
    # window holds one gate (14 rotations), and at 17 qubits, where the last
    # window would otherwise end rotated (5).
    positions = []
    original = qnn._apply

    def spy(amps, name, qubits, *args):
        positions.append(qubits)
        return original(amps, name, qubits, *args)

    monkeypatch.setattr(qnn, "_apply", spy)
    shifts = count_rotations(monkeypatch)
    n, reps = 14, 3
    ansatz = build_real_amplitudes(n, reps)
    w = np.linspace(-1.0, 1.0, ansatz.weight_arity)
    model = QnnModel("wide", h_layer(n), ansatz, PARITY)
    downwards = Circuit(n, h_layer(n).gates[::-1])
    for call, qubits, layers in (
        (lambda: simulate(ansatz, (), w), n, reps + 1),
        (lambda: simulate(concat(h_layer(n), ansatz), (), w), n, reps + 2),
        (lambda: predict_probs(model, np.zeros((1, 0)), w), n, reps + 2),
        (lambda: simulate(downwards, (), ()), n, 1),
        (lambda: simulate(h_layer(17), (), ()), 17, 1),
    ):
        shifts.clear()
        positions.clear()
        call()
        assert 0 < len(shifts) <= layers * math.ceil(qubits / (qubits - 12))
        assert all(q[0] >= 12 for q in positions if len(q) == 1)


def test_wide_simulate_allocates_its_workspace_and_result_only():
    # RealAmplitudes(16, 3) from |0...0> rotates 16 times between its two
    # walk buffers, and no rotation copies through a block-sized temporary.
    # The walk holds two walk buffers, the one-block float start and RY's
    # one-tile scratch; then the complex result (two blocks) is copied from
    # one walk buffer, and the norm check squares nothing of size.  So the
    # peak stays below the result plus 1.5 blocks (1.42 measured; 2.02 with
    # a half-block scratch and a squared norm).
    n = 16
    circuit = build_real_amplitudes(n, 3)
    w = np.linspace(-1.0, 1.0, circuit.weight_arity)
    tracemalloc.start()
    try:
        state = simulate(circuit, (), w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * (1 << n) * 8 + state.amps.nbytes, peak


def test_prediction_holds_only_its_workspace_and_its_output():
    # 64 rows of a 14-qubit register: each block is walked from |0...0> and
    # squared straight into the 8 MiB output, so no (2**n, N) state of the
    # encoded rows is held beside it (about 1.12x measured; 2.1x with one).
    n, rows = 14, 64
    model = QnnModel("wide", h_layer(n), build_real_amplitudes(n, 1), PARITY)
    w = np.linspace(-1.0, 1.0, model.n_weights)
    tracemalloc.start()
    try:
        probs = probabilities_batch(model, np.zeros((rows, 0)), w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert probs.shape == (rows, 1 << n)
    assert peak < 1.25 * probs.nbytes, peak


@st.composite
def wide_sources(draw, n, batch, dtype):
    """A walk's source of ``(2**n, *batch)`` ``dtype`` amplitudes: a caller's array, a
    read-only column broadcast over the batch like a block of encoded states, or the
    |0...0> start."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["array", "column", "zero"]))
    shape = (1 << n,) + batch
    if kind == "zero":
        column = np.zeros((1 << n,) + (1,) * len(batch), dtype)
        column[0] = 1.0
        return np.broadcast_to(column, shape)
    source = rng.normal(size=shape if kind == "array" else (1 << n,) + (1,) * len(batch))
    if dtype == complex:
        source = source + 1j * rng.normal(size=source.shape)
    return source if kind == "array" else np.broadcast_to(source, shape)


@st.composite
def wide_gates(draw, n, rows):
    """Bound random h/phase/ry/cnot gates on ``n`` qubits, one angle per row, some
    starting with a run of CNOTs."""
    circuit = draw(strategies.circuits(n, [Input(0)], max_gates=10))
    if draw(st.booleans()):
        run = tuple(Gate("cnot", tuple(draw(st.permutations(range(n)))[:2]))
                    for _ in range(draw(st.integers(1, 3))))
        circuit = Circuit(n, run + circuit.gates)
    X = draw(strategies.rows(rows or 1, circuit.input_arity))
    return bind(circuit, X if rows else X[0], ())


def compiled_walk(gates, amps, work, views):
    """``qnn._walk``, or with ``views`` the compiled walk of a training leg."""
    if not views:
        return qnn._walk(gates, amps, work)
    thetas = [g.angle.reshape(g.angle.shape + (1,) * (amps.ndim - 2)) if np.ndim(g.angle)
              else g.angle for g in gates]
    steps, result = qnn._compile(gates, thetas, amps, work, views=True)
    qnn._run(steps)
    return result


@settings(max_examples=25, deadline=None)
@given(n=st.integers(13, 15), rows=st.sampled_from([None, 1, 2, 3]), data=st.data())
def test_wide_walks_rewritten_in_place_equal_the_gate_by_gate_walk(n, rows, data):
    # 13-15 qubits over no batch or 1-3 rows, real or complex, with small
    # kernel tiles: a walk whose one-qubit gates rewrite their walk buffer
    # in place, compiled with views or not, and then a second walk that goes
    # on from its result, equal the walk that writes every gate into the
    # other buffer, by bytes.  The source is left as it was.
    batch = () if rows is None else (rows,)
    first, then = data.draw(wide_gates(n, rows)), data.draw(wide_gates(n, rows))
    dtype = qnn._walk_dtype(data.draw(st.sampled_from([float, complex])), first + then)
    source = data.draw(wide_sources(n, batch, dtype))
    before = source.tobytes()
    work = qnn._Workspace()
    want = oracles.walk_by_gates(then, oracles.walk_by_gates(first, source, work), work).copy()
    views = data.draw(st.booleans())
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(statevector, "_KERNEL_TILE_BYTES", 1 << data.draw(st.integers(10, 14)))
        work = qnn._Workspace()
        got = compiled_walk(then, compiled_walk(first, source, work, views), work, views)
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()
    assert source.tobytes() == before


@pytest.mark.parametrize("first", ["h", "ry", "phase", "cnot"])
@pytest.mark.parametrize("batch", [(), (2,)])
def test_a_walk_reads_a_caller_array_and_never_writes_it(first, batch):
    # A 13-qubit walk from a caller's writeable, C-ordered array: the first
    # gate reads it into a walk buffer, and the later gates rewrite that
    # buffer, so the array keeps its bytes, with or without compiled views.
    n = 13
    gate = Gate(first, (0, 12) if first == "cnot" else (12,),
                None if first in ("h", "cnot") else Input(0))
    circuit = Circuit(n, (gate, Gate("h", (0,)), Gate("ry", (5,), 2.0 * Input(0))))
    X = np.linspace(0.3, 0.9, 2)[:, None]
    gates = bind(circuit, X if batch else X[0], ())
    rng = np.random.default_rng(12)
    source = rng.normal(size=(1 << n,) + batch) + 1j * rng.normal(size=(1 << n,) + batch)
    before = source.tobytes()
    want = oracles.walk_by_gates(gates, source, qnn._Workspace())
    for views in (False, True):
        got = compiled_walk(gates, source, qnn._Workspace(), views)
        assert got.tobytes() == want.tobytes()
        assert source.tobytes() == before


def test_one_qubit_gates_rewrite_the_walk_buffer_that_holds_their_input(monkeypatch):
    # A 14-qubit simulate and an H-layer prediction: the first gate reads the
    # |0...0> start into a walk buffer, every later H and RY rewrites the
    # buffer that holds its input, and only CNOT runs and rotations write the
    # other one.
    moved = []
    original = qnn._apply, qnn._rotate

    def spy_apply(amps, name, qubits, angle, out, *args):
        moved.append((name, out is not amps))
        return original[0](amps, name, qubits, angle, out, *args)

    def spy_rotate(amps, d, out):
        moved.append(("rotate", out is not amps))
        return original[1](amps, d, out)

    monkeypatch.setattr(qnn, "_apply", spy_apply)
    monkeypatch.setattr(qnn, "_rotate", spy_rotate)
    n = 14
    ansatz = build_real_amplitudes(n, 3)
    w = np.linspace(-1.0, 1.0, ansatz.weight_arity)
    model = QnnModel("wide", h_layer(n), ansatz, PARITY)
    for call in (lambda: simulate(ansatz, (), w),
                 lambda: predict_probs(model, np.zeros((1, 0)), w)):
        moved.clear()
        call()
        assert moved[0][1]  # the start read into a walk buffer
        assert all(elsewhere == (name in ("cnot", "rotate")) for name, elsewhere in moved[1:])
        assert {name for name, _ in moved} >= {"cnot", "rotate", "ry"}


@pytest.mark.parametrize("batch", [(), (0,), (1,), (3,), (2, 0), (2, 3)])
@pytest.mark.parametrize("tile_bytes", [8, 1 << 10, 1 << 17])
def test_square_tiled_rotation_equals_the_swapaxes_copy(batch, tile_bytes, monkeypatch):
    # Every shift of 1-9 qubits with any trailing batch, empty ones included,
    # and tiles of one amplitude, of a few, or of the default size.
    monkeypatch.setattr(qnn, "_TILE_BYTES", tile_bytes)
    rng = np.random.default_rng(len(batch) + tile_bytes)
    for n in range(1, 10):
        amps = rng.normal(size=(1 << n,) + batch)
        for d in range(1, n):
            want = amps.reshape((1 << d, 1 << (n - d)) + batch).swapaxes(0, 1).copy()
            out = np.full_like(amps, np.nan)
            assert qnn._rotate(amps, d, out) is out
            assert out.tobytes() == want.tobytes()


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


@given(problem=strategies.problems())
def test_batch_loss_is_mean_of_per_row_losses(problem):
    # Every built model with its loss, random weights and 1-50 rows.
    model, kind, w, dataset = problem
    want = np.mean([
        oracles.per_row_loss(forward(model, s.features, w), s.target, kind)
        for s in dataset.samples
    ])
    assert batch_loss(model, w, dataset, kind) == pytest.approx(want, rel=0.0, abs=1e-12)


def test_batch_cross_entropy_matches_per_sample_loss():
    model = build_model("eqnn1")
    dataset = gen_two_class_usage(per_class=10, seed=3)
    w = np.array([0.3, -1.2, 0.7, 2.1])
    want = np.mean([
        oracles.per_row_loss(forward(model, s.features, w), s.target, CROSS_ENTROPY)
        for s in dataset.samples
    ])
    assert batch_loss(model, w, dataset, CROSS_ENTROPY) == pytest.approx(want, abs=1e-12)


@given(problem=strategies.problems(strategies.ANY_MODELS))
def test_fused_loss_is_mean_of_per_row_losses_on_any_model(problem):
    # Random parity- or regression-head circuits on 1-4 qubits (no gates,
    # phase gates, weight expressions, products) as well as the five built
    # models: the loss from the encoded rows and the walk of the weights
    # equals the textbook per-row loss of ``forward``.
    model, kind, w, dataset = problem
    want = np.mean([
        oracles.per_row_loss(forward(model, s.features, w), s.target, kind)
        for s in dataset.samples
    ])
    assert batch_loss(model, w, dataset, kind) == pytest.approx(want, rel=0.0, abs=1e-12)


@given(problem=strategies.problems(strategies.ANY_MODELS), data=st.data())
def test_contracted_values_equal_public_predictions_bit_for_bit(problem, data):
    # Each row of a weight batch walks the variational circuit from the
    # encoded rows with the same arithmetic as a prediction's one weight
    # row, so every fitted value equals the public prediction exactly;
    # random models put phase gates in either circuit.
    model, kind, w, dataset = problem
    W = np.vstack([w, data.draw(strategies.rows(data.draw(st.integers(0, 4)), len(w)))])
    X, targets = dataset.features_array(), dataset.targets_array()
    fitted = qnn._Problem(model, dataset, kind).fitted(W)
    assert fitted.shape == (len(W), len(X))
    for row, weights in zip(fitted, W):
        if kind == SQUARED_ERROR:
            want = predict_regression(model, X, weights)
        else:
            want = predict_probs(model, X, weights)[np.arange(len(X)), targets.astype(int)]
        np.testing.assert_array_equal(row, want)


def test_an_empty_ansatz_reads_out_the_encoded_states():
    # With no variational gate the fitted values are the encoded states'
    # readout: P(label) of each row, bit for bit the prediction, and the loss
    # is their mean cross-entropy.
    model = QnnModel("e", build_efm(), Circuit(2, ()), PARITY)
    dataset = gen_two_class_usage(per_class=3, seed=1)
    X, labels = dataset.features_array(), dataset.targets_array().astype(int)
    want = predict_probs(model, X, np.zeros(0))[np.arange(len(X)), labels]
    fitted = qnn._Problem(model, dataset, CROSS_ENTROPY).fitted(np.zeros((2, 0)))
    assert fitted.tobytes() == np.vstack([want, want]).tobytes()
    assert batch_loss(model, np.zeros(0), dataset, CROSS_ENTROPY) == np.mean(-np.log(want))


@st.composite
def forked_stacks(draw, w, extra=6):
    """``w`` and up to ``extra`` rows that keep a prefix of it: shifts, new suffixes, copies,
    duplicates."""
    stack = [w]
    for _ in range(draw(st.integers(0, extra))):
        row = draw(st.sampled_from(stack)).copy()  # a copy of w or a duplicate of a row
        if len(w) and draw(st.booleans()):
            j = draw(st.integers(0, len(w) - 1))
            if draw(st.booleans()):
                row = w.copy()
                row[j] += draw(st.sampled_from([math.pi / 2, -math.pi / 2]))
            else:
                row[j:] = draw(strategies.weights(len(w) - j))
        stack.append(row)
    return np.array(stack).reshape(len(stack), len(w))


def assert_rows_walk_as_alone(problem, W):
    fitted = problem.fitted(W)
    for row, weights in zip(fitted, W):
        assert row.tobytes() == problem.fitted(weights[None])[0].tobytes()


@settings(max_examples=60)
@given(problem=strategies.problems(strategies.ANY_MODELS), data=st.data())
def test_forked_rows_equal_their_own_walks_bit_for_bit(problem, data):
    # Rows that keep a prefix of row 0 walk from a copy of row 0's state
    # where they leave it, and a row equal to row 0 takes its values; each
    # equals its own one-row walk.  Random models put phase gates on either
    # side and may start the variational circuit with a CNOT.
    model, kind, w, dataset = problem
    assert_rows_walk_as_alone(qnn._Problem(model, dataset, kind), data.draw(forked_stacks(w)))


@settings(max_examples=30)
@given(n=st.integers(3, 6), reps=st.integers(1, 3), data=st.data())
def test_forked_rows_of_rotating_walks_equal_their_own_walks_bit_for_bit(n, reps, data):
    # RealAmplitudes on 3-6 qubits with the fast-run threshold forced low,
    # so that the legs of a forked walk, and every one-row walk, rotate the
    # register and back.
    feature_map = Circuit(n, tuple(Gate("ry", (q,), (q + 1) * Input(0)) for q in range(n)))
    model = QnnModel("wide", feature_map, build_real_amplitudes(n, reps), PARITY)
    X = data.draw(strategies.rows(data.draw(st.integers(1, 3)), 1))
    dataset = Dataset(tuple(Sample(tuple(x), i % 2) for i, x in enumerate(X.tolist())),
                      "classification", "drawn", 0)
    W = data.draw(forked_stacks(data.draw(strategies.weights(model.n_weights))))
    rotations, rotate = [], qnn._rotate
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(qnn, "_FAST_RUN", 1 << (n - 1))
        patch.setattr(qnn, "_rotate", lambda *args: rotations.append(args[1]) or rotate(*args))
        assert_rows_walk_as_alone(qnn._Problem(model, dataset, CROSS_ENTROPY), W)
    assert rotations


@pytest.mark.parametrize("name", ["eqnn3", "benchmark"])
def test_forked_rows_of_a_block_wide_weight_row_equal_their_own_walks(name):
    # At 8000 rows one eqnn3 weight row fills a block and one benchmark
    # (complex) weight row fills two, so each walk holds one weight row.
    model = build_model(name)
    problem = qnn._Problem(model, gen_two_class_usage(per_class=4000, seed=7), CROSS_ENTROPY)
    w = initial_weights(model.n_weights, seed=7)
    shifts = math.pi / 2 * np.eye(len(w))
    suffix = w.copy()
    suffix[5:] = 0.25
    W = np.vstack([w, w + shifts[2], w, suffix, w - shifts[7], suffix, w + shifts[0]])
    assert_rows_walk_as_alone(problem, W)


def assert_compiled_walk_equals_the_gate_by_gate_walk(model, kind, dataset, W, blocks, stack):
    """Build the problem of ``model`` with ``_BLOCK_BYTES`` set so that its rows span
    ``blocks`` blocks, of which the first holds ``stack`` weight rows, and hold each
    fitted value to ``oracles.fitted_by_gates``.  The same problem then takes ``W``
    upside down, a stack of the same shape that leaves another row 0 elsewhere, and
    ``W`` again, so that a plan kept for one stack pattern serves no other."""
    row = qnn._walk_dtype(float, model.circuit.gates).itemsize << model.n_qubits
    per_block = -(-len(dataset) // blocks)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(qnn, "_BLOCK_BYTES", row * per_block * (stack if blocks == 1 else 1))
        problem = qnn._Problem(model, dataset, kind)
        assert len(problem.blocks) == blocks or per_block * (blocks - 1) >= len(dataset)
        stacks = (W, W[::-1], W)
        fitted = [problem.fitted(S) for S in stacks]
    for S, values in zip(stacks, fitted):
        assert values.tobytes() == oracles.fitted_by_gates(problem, S).tobytes()


@st.composite
def compiled_walks(draw):
    """``(model, kind, dataset, W, blocks, stack)`` for
    ``assert_compiled_walk_equals_the_gate_by_gate_walk``."""
    model, kind, w, dataset = draw(strategies.problems(strategies.ANY_MODELS))
    W = draw(forked_stacks(w, extra=16))
    blocks = draw(st.integers(1, min(3, len(dataset))))
    return model, kind, dataset, W, blocks, draw(st.integers(1, 17))


# The benchmark model at x = 0 under weights of 0 and +-pi: its encoded
# states and walks hold exact zero parts, the only values whose sign a walk
# on (re, im) pairs may give otherwise than the complex walk.
_AT_ZERO = (build_model("benchmark"), CROSS_ENTROPY, tiny_class_set([(0, 0, 0), (0, 0, 1)]))
_EXACT_ZEROS = math.pi * np.array([[0] * 8, [1] * 8, [-1] * 8, [1, -1, 0, 0, 1, 1, -1, 0]])


@settings(max_examples=80)
@given(case=compiled_walks())
@example(case=_AT_ZERO + (_EXACT_ZEROS, 1, 17))
@example(case=_AT_ZERO + (_EXACT_ZEROS[[0, 1, 0, 2]], 2, 1))
def test_compiled_walks_equal_the_gate_by_gate_walk_bit_for_bit(case):
    # Every model the package builds and random circuits on 1-4 qubits, real
    # or complex, under stacks of 1-17 weight rows with forked, copied and
    # duplicate rows, over data rows in 1-3 blocks, or in one block holding
    # 1-17 weight rows: each fitted value, walked by a plan compiled once,
    # equals that row's walk gate by gate, bit for bit.
    assert_compiled_walk_equals_the_gate_by_gate_walk(*case)


@pytest.mark.parametrize("phase, dtype", [(False, np.float64), (True, np.complex128)])
def test_complex_states_walk_a_real_ansatz_as_float_pairs(phase, dtype):
    # The benchmark encode is complex and its RealAmplitudes ansatz has no
    # phase gate, so every step of every compiled leg, for one row and for a
    # forked gradient stack, walks float64 (re, im) pairs of the complex128
    # states.  A phase gate in the ansatz keeps every step complex128.
    variational = build_real_amplitudes(2, 3)
    if phase:
        variational = concat(variational, Circuit(2, (Gate("phase", (1,), Weight(0)),)))
    model = QnnModel("zz", build_benchmark_feature_map(), variational, PARITY)
    problem = qnn._Problem(model, gen_two_class_usage(per_class=4, seed=3), CROSS_ENTROPY)
    w = initial_weights(model.n_weights, seed=3)
    shifts = math.pi / 2 * np.eye(len(w))
    for W in (w[None], np.vstack([w, w + shifts, w - shifts])):
        np.testing.assert_array_equal(problem.fitted(W), oracles.fitted_by_gates(problem, W))
    steps = [step for _, _, legs, _ in problem.plans.values()
             for leg_steps, _, _ in legs for step in leg_steps]
    assert problem.psi.dtype == np.complex128 and len(problem.plans) == 2
    assert steps and {s[1].dtype for s in steps} == {s[4].dtype for s in steps} == {
        np.dtype(dtype)}


def test_workspace_arrays_start_on_a_cache_line():
    # numpy aligns an allocation to 16 bytes only; walk buffers, RY's scratch
    # and the snapshot start on a 64-byte line, so no vector load or store
    # of a kernel splits across two lines.
    work = qnn._Workspace()
    for amps in (np.zeros((4, 3, 2000)), np.zeros((4, 5, 37), complex)):
        arrays = work.views(amps) + [work.snapshot(amps)]
        assert [a.ctypes.data % 64 for a in arrays] == [0] * 4


@pytest.mark.parametrize("name", ("simplified",) + ALL_NAMED)
@pytest.mark.parametrize("blocks, stack", [(1, 17), (1, 2), (2, 1)])
def test_stacks_of_one_start_and_of_copies_equal_the_gate_by_gate_walk(name, blocks, stack):
    # Every row but row 0 of the first stack leaves it at the first gate, so
    # all of them walk from the start, in blocks of at most ``stack`` rows
    # with row 0 among the last; every row of the second equals row 0 and
    # takes its values unwalked.  Both equal each row's walk gate by gate.
    if name == "simplified":
        model, kind, dataset = simplified_model(), SQUARED_ERROR, gen_linear(8, seed=8)
    else:
        model, kind = build_model(name), CROSS_ENTROPY
        dataset = gen_two_class_usage(per_class=4, seed=8)
    w = initial_weights(model.n_weights, seed=8)
    first = math.pi / 2 * np.eye(model.n_weights)[0]
    leaving = np.vstack([w, w + first, w - first, w + 0.25, -w, w + 0.5 * first])
    for W in (leaving, np.tile(w, (5, 1))):
        assert_compiled_walk_equals_the_gate_by_gate_walk(model, kind, dataset, W, blocks, stack)


@settings(max_examples=8)
@given(n=st.integers(14, 17), phase=st.booleans(), data=st.data())
def test_compiled_walks_of_rotated_registers_equal_the_gate_by_gate_walk(n, phase, data):
    # RealAmplitudes on 14-17 qubits from an RY encoder, and a phase gate
    # that makes the walk complex: one or two data rows, each a block of
    # its own, rotate the register many times in every leg.
    encoder = tuple(Gate("ry", (q,), (q + 1) * Input(0)) for q in range(n))
    encoder += (Gate("phase", (0,), Input(0)),) if phase else ()
    model = QnnModel("wide", Circuit(n, encoder), build_real_amplitudes(n, 1), PARITY)
    X = data.draw(strategies.rows(data.draw(st.integers(1, 2)), 1))
    dataset = Dataset(tuple(Sample(tuple(x), i % 2) for i, x in enumerate(X.tolist())),
                      "classification", "drawn", 0)
    W = data.draw(forked_stacks(data.draw(strategies.weights(model.n_weights)), extra=2))
    rotations, rotate = [], qnn._rotate
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(qnn, "_rotate", lambda *args: rotations.append(args[1]) or rotate(*args))
        assert_compiled_walk_equals_the_gate_by_gate_walk(
            model, CROSS_ENTROPY, dataset, W, len(X), 1)
    assert rotations


def test_wide_register_loss_stays_within_a_few_states():
    # 14 qubits and 3 rows: the walk starts from the 3 encoded states, never
    # from a 2**14 x 2**14 identity (2**28 amplitudes, 4 GiB of complex128).
    n = 14
    model = QnnModel("wide", h_layer(n), build_real_amplitudes(n, 1), PARITY)
    dataset = Dataset(tuple(Sample((), y) for y in (0, 1, 0)), "classification", "toy", 0)
    w = np.linspace(-1.0, 1.0, model.n_weights)
    tracemalloc.start()
    try:
        loss = batch_loss(model, w, dataset, CROSS_ENTROPY)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    states = 3 * (1 << n) * 16
    assert peak < 3 * states, peak
    want = np.mean([
        oracles.per_row_loss(forward(model, s.features, w), s.target, CROSS_ENTROPY)
        for s in dataset.samples
    ])
    assert loss == pytest.approx(want, rel=0.0, abs=1e-12)


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

import gc
import itertools
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import oracles
import strategies
from eqnn import optim, qnn
from eqnn.circuit import Circuit, Gate, Input, Weight, build_real_amplitudes
from eqnn.data import (
    Dataset,
    Sample,
    gen_linear,
    gen_sigmoid,
    gen_tanh,
    gen_two_class_usage,
    split_dataset,
)
from eqnn.errors import (
    ConfigurationError,
    EqnnError,
    NonFiniteLossError,
    UnsupportedModelError,
    UsageError,
)
from eqnn.optim import (
    SPSA_ALPHA,
    SPSA_C,
    SPSA_CALIBRATION_SAMPLES,
    SPSA_STABILITY,
    SPSA_TARGET_STEP,
    Objective,
    OptimizerConfig,
    initial_weights,
    make_objective,
    minimize,
    parameter_shift_gradient,
)
from eqnn.qnn import (
    CROSS_ENTROPY,
    PARITY,
    PROB_EPS,
    REGRESSION,
    SQUARED_ERROR,
    QnnModel,
    batch_loss,
    build_model,
    forward,
    predict_probs,
    simplified_model,
)
from eqnn.statevector import zero_state


def quadratic(center):
    center = np.asarray(center, dtype=float)

    def fun(w):
        return float(np.sum((w - center) ** 2))

    def grad(w):
        return 2.0 * (w - center)

    return fun, grad


def one_sample(x, y):
    return Dataset((Sample((float(x),), float(y)),), "regression", "toy", 0)


def ry_parity_model():
    """1 qubit, RY(x) then RY(w), parity head: P(class 1) = sin^2((x + w) / 2)."""
    return QnnModel(
        "clamped",
        Circuit(1, (Gate("ry", (0,), Input(0)),)),
        Circuit(1, (Gate("ry", (0,), Weight(0)),)),
        PARITY,
    )


# --------------------------------------------------------------------------
# Config and plumbing


def test_config_validation():
    with pytest.raises(UsageError):
        OptimizerConfig(kind="adam")
    with pytest.raises(ConfigurationError):
        OptimizerConfig(kind="spsa", max_iters=0)
    # A float budget would run all of COBYLA before failing on a slice.
    with pytest.raises(ConfigurationError, match="max_iters must be an integer >= 1, got 2.5"):
        OptimizerConfig(kind="cobyla", max_iters=2.5)
    assert OptimizerConfig(kind="spsa", max_iters=np.int64(3)).max_iters == 3


def test_config_rejects_negative_seed():
    # numpy's generators take non-negative seeds only.
    with pytest.raises(ConfigurationError):
        OptimizerConfig(kind="spsa", seed=-1)
    assert OptimizerConfig(kind="spsa", seed=0).seed == 0


SEEDED_CALLS = {
    "initial_weights": lambda seed: initial_weights(3, seed),
    "gen_linear": lambda seed: gen_linear(3, seed),
    "gen_sigmoid": lambda seed: gen_sigmoid(3, seed),
    "gen_tanh": lambda seed: gen_tanh(3, seed),
    "gen_two_class_usage": lambda seed: gen_two_class_usage(3, seed),
    "split_dataset": lambda seed: split_dataset(gen_linear(4, 0), 0.5, seed),
}


@pytest.mark.parametrize("call", SEEDED_CALLS.values(), ids=SEEDED_CALLS.keys())
def test_seeded_calls_reject_negative_seed(call):
    # Every seeded call refuses a negative seed as ``OptimizerConfig`` does,
    # with the package's own error, not numpy's ValueError.
    with pytest.raises(ConfigurationError, match="seed must be >= 0, got -1"):
        call(-1)


@pytest.mark.parametrize(
    "call",
    [*SEEDED_CALLS.values(), lambda seed: OptimizerConfig(kind="spsa", seed=seed)],
    ids=[*SEEDED_CALLS, "OptimizerConfig"],
)
def test_seeded_calls_reject_non_integer_seed(call):
    # numpy's generators would refuse 1.5 with a TypeError of their own;
    # any integer type, numpy's included, is a seed.
    with pytest.raises(ConfigurationError, match="seed must be an integer, got 1.5"):
        call(1.5)
    call(np.int64(1))


SIZED_CALLS = {
    "Circuit n_qubits": (lambda: Circuit(2.5, ()), "n_qubits must be an integer, got 2.5"),
    "Circuit qubit": (
        lambda: Circuit(2, (Gate("h", (1.0,)),)), "qubit index must be an integer, got 1.0"
    ),
    "zero_state": (lambda: zero_state(2.0), "n_qubits must be an integer, got 2.0"),
    "build_real_amplitudes reps": (
        lambda: build_real_amplitudes(2, 1.5), "reps must be an integer, got 1.5"
    ),
    "build_real_amplitudes n_qubits": (
        lambda: build_real_amplitudes(2.5, 1), "n_qubits must be an integer, got 2.5"
    ),
    "gen_linear": (lambda: gen_linear(2.5, 0), "n must be an integer, got 2.5"),
    "gen_two_class_usage": (
        lambda: gen_two_class_usage(2.5, 0), "per_class must be an integer, got 2.5"
    ),
    "initial_weights": (lambda: initial_weights(2.5, 0), "n_weights must be an integer, got 2.5"),
    "initial_weights negative": (
        lambda: initial_weights(-1, 0), "n_weights must be non-negative, got -1"
    ),
}


@pytest.mark.parametrize("call, message", SIZED_CALLS.values(), ids=SIZED_CALLS.keys())
def test_sized_calls_reject_a_non_integer_size(call, message):
    # A register size, qubit index, repetition or sample count that is not
    # an integer is refused up front with the package's own error, naming
    # the parameter, not accepted or left to fail in numpy with a TypeError;
    # so is a negative weight count, which numpy refuses with a ValueError.
    with pytest.raises(EqnnError, match=message):
        call()


def test_sized_calls_take_numpy_integers():
    two = np.int64(2)
    assert Circuit(two, (Gate("h", (np.int64(1),)),)).n_qubits == 2
    assert zero_state(two).dim == 4
    assert len(build_real_amplitudes(two, np.int64(1)).gates) == 5
    assert len(gen_linear(two, 0).samples) == 2
    assert len(gen_two_class_usage(two, 0).samples) == 4
    assert initial_weights(two, 0).shape == (2,)


def test_minimize_checks_dimensions():
    fun, _ = quadratic([0.0, 0.0])
    objective = Objective(fun=fun, dim=2)
    with pytest.raises(UsageError):
        minimize(objective, [1.0], OptimizerConfig(kind="cobyla"))


def test_import_leaves_scipy_optimize_unloaded():
    # A fresh interpreter, so modules the rest of the suite imported do not mask it.
    code = "import eqnn, eqnn.cli, sys; print('scipy.optimize' in sys.modules)"
    src = str(Path(qnn.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"


def test_initial_weights_seeded_uniform():
    w = initial_weights(6, seed=9)
    again = initial_weights(6, seed=9)
    np.testing.assert_array_equal(w, again)
    assert w.shape == (6,)
    assert np.all(np.abs(w) <= math.pi)
    assert not np.array_equal(w, initial_weights(6, seed=10))


# --------------------------------------------------------------------------
# COBYLA


def test_cobyla_scalar_quadratic_converges():
    fun, _ = quadratic([2.0])
    trace = minimize(
        Objective(fun=fun, dim=1), [0.0], OptimizerConfig(kind="cobyla", max_iters=100)
    )
    assert abs(trace.final_weights[0] - 2.0) < 1e-3
    assert trace.final_loss <= trace.losses[0]
    assert np.all(np.diff(trace.losses) <= 0)  # incumbent trace never rises
    assert 1 <= trace.iterations <= 100
    assert trace.evaluations >= trace.iterations


def test_cobyla_may_stop_early_without_padding():
    fun, _ = quadratic([0.3, -0.7])
    trace = minimize(
        Objective(fun=fun, dim=2), [2.0, 2.0], OptimizerConfig(kind="cobyla", max_iters=1000)
    )
    assert trace.iterations < 1000
    assert trace.final_loss < 1e-6


def test_cobyla_budget_below_simplex_is_raised_without_warning():
    # COBYLA's first simplex needs dim + 1 evaluations; a smaller budget is
    # raised to dim + 2 explicitly, not by scipy with a warning.
    fun, _ = quadratic(np.arange(8.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        trace = minimize(
            Objective(fun=fun, dim=8), np.zeros(8), OptimizerConfig(kind="cobyla", max_iters=3)
        )
    assert 1 <= trace.iterations <= 3
    assert trace.evaluations >= 10
    assert trace.final_loss == fun(trace.final_weights)


def test_cobyla_is_deterministic():
    model = build_model("eqnn1")
    dataset = gen_two_class_usage(per_class=20, seed=4)
    objective = make_objective(model, dataset, CROSS_ENTROPY)
    w0 = initial_weights(model.n_weights, seed=4)
    config = OptimizerConfig(kind="cobyla", max_iters=25, seed=4)
    a, b = minimize(objective, w0, config), minimize(objective, w0, config)
    np.testing.assert_array_equal(a.losses, b.losses)
    np.testing.assert_array_equal(a.final_weights, b.final_weights)
    assert a.evaluations == b.evaluations


@pytest.mark.parametrize(
    "kind, name, iters",
    [("cobyla", "eqnn1", 20), ("cobyla", "simplified", 15), ("spsa", "eqnn1", 8),
     ("spsa", "simplified", 8), ("aqgd", "eqnn1", 4), ("aqgd", "simplified", 4)],
)
def test_final_loss_is_the_objective_at_the_final_weights_bit_for_bit(kind, name, iters):
    if name == "simplified":
        model, dataset, loss = simplified_model(), gen_tanh(40, seed=3), SQUARED_ERROR
    else:
        model, dataset, loss = build_model(name), gen_two_class_usage(10, seed=3), CROSS_ENTROPY
    objective = make_objective(model, dataset, loss)
    w0 = initial_weights(model.n_weights, seed=3)
    trace = minimize(objective, w0, OptimizerConfig(kind=kind, max_iters=iters, seed=3))
    assert trace.final_loss == objective.fun(trace.final_weights)
    if (kind, name) == ("cobyla", "eqnn1"):
        # Evaluations after the last trust-region step improved the best
        # point, so the last recorded incumbent is not the final loss.
        assert trace.final_loss < trace.losses[-1]
    else:
        assert trace.final_loss == trace.losses[-1]


# --------------------------------------------------------------------------
# SPSA


def test_spsa_default_calibration_reaches_quadratic_minimum():
    fun, _ = quadratic([1.0])
    trace = minimize(
        Objective(fun=fun, dim=1), [0.0], OptimizerConfig(kind="spsa", max_iters=100, seed=3)
    )
    assert trace.final_loss < 1e-2
    assert trace.iterations == 100
    # 20 calibration pairs + (2 probes + 1 incumbent) per iteration
    assert trace.evaluations == 40 + 3 * 100


def test_spsa_calibrated_gain_follows_exact_recurrence():
    # On a 1-d quadratic the perturbation cancels out of the update, so the
    # whole trajectory is a deterministic recurrence in the gain schedule.
    # Every calibration pair at w0 = 0 has the slope |f(c) - f(-c)| / 2c.
    fun, _ = quadratic([1.0])
    slope = abs(fun([SPSA_C]) - fun([-SPSA_C])) / (2.0 * SPSA_C)
    a = SPSA_TARGET_STEP / slope * (SPSA_STABILITY + 1.0) ** SPSA_ALPHA
    w, expected = 0.0, []
    for k in range(100):
        a_k = a / (k + 1 + SPSA_STABILITY) ** SPSA_ALPHA
        w = w - a_k * 2.0 * (w - 1.0)
        expected.append((w - 1.0) ** 2)
    trace = minimize(
        Objective(fun=fun, dim=1), [0.0], OptimizerConfig(kind="spsa", max_iters=100, seed=12)
    )
    np.testing.assert_allclose(trace.losses, expected, atol=1e-12)
    assert trace.evaluations == 2 * SPSA_CALIBRATION_SAMPLES + 3 * 100


def test_spsa_same_seed_bit_identical():
    model = build_model("eqnn1")
    dataset = gen_two_class_usage(per_class=20, seed=6)
    objective = make_objective(model, dataset, CROSS_ENTROPY)
    w0 = initial_weights(model.n_weights, seed=6)
    config = OptimizerConfig(kind="spsa", max_iters=30, seed=6)
    a, b = minimize(objective, w0, config), minimize(objective, w0, config)
    np.testing.assert_array_equal(a.losses, b.losses)
    np.testing.assert_array_equal(a.final_weights, b.final_weights)
    different = minimize(objective, w0, OptimizerConfig(kind="spsa", max_iters=30, seed=7))
    assert not np.array_equal(a.losses, different.losses)


def spsa_problem(name, per_class=20):
    """The objective and ``w0`` of an SPSA run on ``name`` (simplified: squared error)."""
    if name == "simplified":
        model, dataset, kind = simplified_model(), gen_tanh(2 * per_class, seed=9), SQUARED_ERROR
    else:
        model, kind = build_model(name), CROSS_ENTROPY
        dataset = gen_two_class_usage(per_class, seed=9)
    return make_objective(model, dataset, kind), initial_weights(model.n_weights, seed=9)


@pytest.mark.parametrize("max_iters", [1, 5])
@pytest.mark.parametrize("name, per_class", [
    ("simplified", 20), ("eqnn1", 20), ("benchmark", 20), ("benchmark", 500),
])
def test_stacked_spsa_equals_the_row_by_row_oracle_bit_for_bit(name, per_class, max_iters):
    # The calibration pairs are one 40-row stack and each step one stack
    # of the iterate and its two probes, yet every loss, the final
    # weights and the evaluation count are those of one row at a time.
    # At 1000 benchmark rows a block holds four weight rows, so the
    # calibration stack walks in ten groups.
    objective, w0 = spsa_problem(name, per_class)
    trace = minimize(objective, w0, OptimizerConfig(kind="spsa", max_iters=max_iters, seed=9))
    losses, w, evaluations = oracles.spsa_by_rows(objective.fun, w0, max_iters, seed=9)
    assert trace.losses.tobytes() == losses.tobytes()
    assert trace.final_weights.tobytes() == w.tobytes()
    assert trace.evaluations == evaluations == 2 * SPSA_CALIBRATION_SAMPLES + 3 * max_iters


def nan_at(objective, index):
    """``objective`` with a nan for the ``index``-th row it evaluates, one at a time or stacked."""
    rows = itertools.count()

    def marked(values):
        return [math.nan if next(rows) == index else value for value in values]

    return Objective(
        fun=lambda w: marked([objective.fun(w)])[0],
        dim=objective.dim,
        values=None if objective.values is None else lambda W: np.array(marked(objective.values(W))),
    )


# Rows in evaluation order: 40 calibration rows, then w0+ and w0-, then
# (w_k, w_k+, w_k-) for k = 1..4, then w5.
@pytest.mark.parametrize("index, where", [
    (7, "calibration"), (43, "w1+"), (44, "w1-"), (45, "w2"), (54, "w5"),
])
def test_stacked_spsa_names_the_weights_of_the_first_non_finite_row(index, where):
    objective, w0 = spsa_problem("eqnn1")
    with pytest.raises(NonFiniteLossError) as stacked:
        minimize(nan_at(objective, index), w0, OptimizerConfig(kind="spsa", max_iters=5, seed=9))
    with pytest.raises(NonFiniteLossError) as by_rows:
        oracles.spsa_by_rows(nan_at(objective, index).fun, w0, 5, seed=9)
    assert stacked.value.weights.tobytes() == by_rows.value.weights.tobytes()


def test_spsa_on_an_objective_without_stacked_values_runs_row_by_row():
    # A plain ``fun`` is called once per row, in the oracle's order.
    fun, _ = quadratic([1.0, -0.5])
    seen = []

    def recorded(w):
        seen.append(np.array(w))
        return fun(w)

    trace = minimize(Objective(fun=recorded, dim=2), [0.0, 0.0],
                     OptimizerConfig(kind="spsa", max_iters=5, seed=4))
    expected = []
    losses, w, evaluations = oracles.spsa_by_rows(
        lambda w: expected.append(np.array(w)) or fun(w), [0.0, 0.0], 5, seed=4
    )
    assert trace.losses.tobytes() == losses.tobytes()
    assert trace.final_weights.tobytes() == w.tobytes()
    assert trace.evaluations == evaluations == len(seen)
    assert np.array(seen).tobytes() == np.array(expected).tobytes()


# --------------------------------------------------------------------------
# AQGD


def test_aqgd_quadratic_converges_monotonically():
    fun, grad = quadratic([0.0, 0.0, 0.0, 0.0])
    trace = minimize(
        Objective(fun=fun, dim=4, value_and_grad=lambda w: (fun(w), grad(w))),
        [1.0, 1.0, 1.0, 1.0],
        OptimizerConfig(kind="aqgd", max_iters=100),
    )
    assert trace.final_loss < 1e-6
    assert np.all(np.diff(trace.losses) <= 0)
    assert trace.iterations == 100
    # 2*dim+1 rows per gradient, whose base row gives the loss at each
    # iterate but the last, plus one plain loss at the last
    assert trace.evaluations == 100 * 9 + 1


@pytest.mark.parametrize("kind", ["cobyla", "spsa", "aqgd"])
def test_reported_evaluations_equal_dataset_passes(monkeypatch, kind):
    # The objective evaluates the dataset by walking its cached encoding
    # under a batch of weight rows; each row is one dataset pass: 1 per loss,
    # 2m+1 per gradient.
    passes = []
    original = qnn._Problem.fitted

    def counted(problem, weights):
        passes.extend([1] * len(weights))
        return original(problem, weights)

    monkeypatch.setattr(qnn._Problem, "fitted", counted)
    model = build_model("eqnn1")
    dataset = gen_two_class_usage(per_class=10, seed=4)
    objective = make_objective(model, dataset, CROSS_ENTROPY)
    w0 = initial_weights(model.n_weights, seed=4)
    trace = minimize(objective, w0, OptimizerConfig(kind=kind, max_iters=5, seed=4))
    assert len(passes) == trace.evaluations


@pytest.mark.parametrize("max_iters", [1, 5])
@pytest.mark.parametrize("name", ["simplified", "benchmark", "eqnn1", "eqnn3"])
def test_aqgd_trace_equals_a_gradient_then_loss_reference_loop(name, max_iters):
    # Every loss but the last comes from the base row of the next gradient's
    # walk, yet the trace equals, bit for bit, a loop that takes each
    # gradient and then the loss at the new weights on its own.
    if name == "simplified":
        model, dataset, kind = simplified_model(), gen_linear(40, seed=8), SQUARED_ERROR
    else:
        model, kind = build_model(name), CROSS_ENTROPY
        dataset = gen_two_class_usage(per_class=20, seed=8)
    w = w0 = initial_weights(model.n_weights, seed=8)
    objective = make_objective(model, dataset, kind)
    trace = minimize(objective, w0, OptimizerConfig(kind="aqgd", max_iters=max_iters))
    losses = []
    for _ in range(max_iters):
        w = w - optim.LEARNING_RATE * parameter_shift_gradient(model, w, dataset, kind)
        losses.append(batch_loss(model, w, dataset, kind))
    assert trace.losses.tobytes() == np.array(losses).tobytes()
    assert trace.final_weights.tobytes() == w.tobytes()
    assert trace.evaluations == (2 * model.n_weights + 1) * max_iters + 1


def test_stacked_gradient_memory_stays_below_one_amplitude_stack():
    # eqnn3 at 8000 rows: the 2m+1 = 17 weight rows are walked in row blocks
    # through the objective's 3-block workspace (two walk buffers, and RY's
    # tile and cos and sin planes), so the peak, the encoding and the
    # workspace included, is about one (17, 8000) array of fitted values
    # on top of those (2.6 MB measured), below the 4.35 MB that an
    # unblocked (17, 8000, 4) float64 stack of amplitudes would take alone.
    model = build_model("eqnn3")
    dataset = gen_two_class_usage(per_class=4000, seed=5)
    w = initial_weights(model.n_weights, seed=5)
    rows = 2 * model.n_weights + 1
    tracemalloc.start()
    try:
        objective = make_objective(model, dataset, CROSS_ENTROPY)
        objective.value_and_grad(w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * rows * len(dataset) * 8 < rows * len(dataset) * 4 * 8, peak


def _owner(array: np.ndarray) -> np.ndarray:
    while isinstance(array.base, np.ndarray):
        array = array.base
    return array


@pytest.mark.parametrize("name, call", [
    ("eqnn3", lambda objective, w: objective.fun(w)),
    ("benchmark", lambda objective, w: objective.value_and_grad(w)),
    pytest.param(
        "eqnn3", lambda objective, w: (objective.value_and_grad(w), objective.fun(w)),
        id="eqnn3-gradient-then-loss",
    ),
])
def test_objective_writes_every_kernel_output_into_its_own_workspace(monkeypatch, name, call):
    # After one warm-up call, an 8000-row loss (eqnn3, real, one block),
    # gradient (benchmark, complex, many blocks), or gradient and then loss
    # in AQGD's order (the loss in the buffers the gradient grew) write
    # every gate's output into the two walk buffers that the objective owns
    # and already wrote in the warm-up: no kernel returns a fresh array.
    outputs = []
    original = qnn._apply

    def spy(*args, **kwargs):
        outputs.append(original(*args, **kwargs))
        return outputs[-1]

    monkeypatch.setattr(qnn, "_apply", spy)
    model = build_model(name)
    dataset = gen_two_class_usage(per_class=4000, seed=6)
    objective = make_objective(model, dataset, CROSS_ENTROPY)
    w = initial_weights(model.n_weights, seed=6)
    outputs.clear()  # the encoding's walk
    call(objective, w)
    buffers = {id(_owner(out)): _owner(out) for out in outputs}
    assert len(buffers) == 2
    outputs.clear()
    call(objective, w)
    assert len(outputs) >= len(model.variational.gates)
    for out in outputs:
        assert any(np.shares_memory(out, buffer) for buffer in buffers.values())
        assert id(_owner(out)) in buffers


def test_prediction_encodes_and_walks_in_one_workspace(monkeypatch):
    # One call walks each block of rows through the whole bound circuit,
    # feature map and variational part alike, and every gate writes into
    # the same two walk buffers: 5000 benchmark rows, complex, take two
    # blocks at 256 KB.
    outputs = []
    original = qnn._apply

    def spy(*args, **kwargs):
        outputs.append(original(*args, **kwargs))
        return outputs[-1]

    monkeypatch.setattr(qnn, "_apply", spy)
    model = build_model("benchmark")
    X = np.random.default_rng(4).uniform(-1.0, 1.0, size=(5000, model.n_inputs))
    qnn.probabilities_batch(model, X, np.linspace(-1.0, 1.0, model.n_weights))
    assert len(outputs) == 2 * len(model.circuit.gates)
    assert len({id(_owner(out)) for out in outputs}) == 2


@pytest.mark.parametrize("call", ["simulate", "predict_probs"])
def test_wide_call_writes_every_kernel_and_rotation_into_its_own_workspace(monkeypatch, call):
    # A 1-D 14-qubit simulate, or a prediction from an H layer, rotates
    # the register many times.  There is one output per one-qubit gate,
    # one per CNOT run (RealAmplitudes(14, 3) has three chains) and one
    # per rotation, and each is one of the two walk buffers of the call's
    # one workspace.
    outputs, walk_buffers = [], []
    for name in ("_apply", "_rotate"):

        def spy(*args, name=name, original=getattr(qnn, name)):
            outputs.append((name, original(*args)))
            return outputs[-1][1]

        monkeypatch.setattr(qnn, name, spy)
    views = qnn._Workspace.views

    def record(work, amps):
        shaped = views(work, amps)
        walk_buffers.append(work._bytes[:2])
        return shaped

    monkeypatch.setattr(qnn._Workspace, "views", record)
    n, reps = 14, 3
    ansatz = build_real_amplitudes(n, reps)
    w = np.linspace(-1.0, 1.0, ansatz.weight_arity)
    singles = sum(len(g.qubits) == 1 for g in ansatz.gates)
    if call == "simulate":
        qnn.simulate(ansatz, (), w)
    else:
        h_layer = Circuit(n, tuple(Gate("h", (q,)) for q in range(n)))
        qnn.predict_probs(QnnModel("wide", h_layer, ansatz, PARITY), np.zeros((1, 0)), w)
        singles += n
    rotations = sum(name == "_rotate" for name, _ in outputs)
    assert rotations > 0
    assert len(outputs) == singles + reps + rotations
    buffers = {id(b) for b in walk_buffers[0]}
    assert all({id(b) for b in pair} == buffers for pair in walk_buffers)
    assert {id(_owner(out)) for _, out in outputs} == buffers


def test_aqgd_requires_gradient():
    fun, _ = quadratic([0.0])
    with pytest.raises(UsageError):
        minimize(Objective(fun=fun, dim=1), [1.0], OptimizerConfig(kind="aqgd"))


def test_non_finite_loss_aborts_with_weights():
    def bad(w):
        return math.nan

    for kind in ("cobyla", "spsa"):
        with pytest.raises(NonFiniteLossError) as info:
            minimize(Objective(fun=bad, dim=1), [0.5], OptimizerConfig(kind=kind))
        assert info.value.weights.shape == (1,)

    def explodes(w):
        return math.inf if abs(w[0]) > 10 else float(w[0] ** 2)

    # AQGD's first step lands on w1 = 0.4 * 1e6, whose loss comes with the
    # gradient there; it is refused, naming w1.
    with pytest.raises(NonFiniteLossError) as info:
        minimize(
            Objective(fun=explodes, dim=1,
                      value_and_grad=lambda w: (explodes(w), -1e6 * np.ones(1))),
            [0.0],
            OptimizerConfig(kind="aqgd", max_iters=5),
        )
    np.testing.assert_array_equal(info.value.weights, [optim.LEARNING_RATE * 1e6])


def test_aqgd_refuses_a_non_finite_final_loss_and_skips_the_unrecorded_first_one():
    # The gradient's losses are finite at w1 and w2 and nan at the unrecorded
    # w0; only the plain loss at the last iterate w3 is nan, and it is refused.
    fun, grad = quadratic([0.0])
    w0 = np.array([1.0])
    iterates = [w0]
    for _ in range(3):
        iterates.append(iterates[-1] - optim.LEARNING_RATE * grad(iterates[-1]))

    def value_and_grad(w):
        return (math.nan if np.array_equal(w, w0) else fun(w)), grad(w)

    with pytest.raises(NonFiniteLossError) as info:
        minimize(
            Objective(fun=lambda w: math.nan, dim=1, value_and_grad=value_and_grad),
            w0,
            OptimizerConfig(kind="aqgd", max_iters=3),
        )
    np.testing.assert_array_equal(info.value.weights, iterates[3])


# --------------------------------------------------------------------------
# Parameter-shift gradient


def test_shift_gradient_zero_at_stationary_sample():
    # x = 0, y = 0, w = 0: prediction is 0, so dL/dw = 2*y'*dy'/dw = 0.
    grad = parameter_shift_gradient(
        simplified_model(), np.zeros(1), one_sample(0.0, 0.0), SQUARED_ERROR
    )
    assert grad.shape == (1,)
    assert grad[0] == pytest.approx(0.0, abs=1e-14)


def test_shift_rule_recovers_prediction_derivative():
    # dy'/dw at x = 0, w = 0 equals -1; two shifted forwards realize it.
    model = simplified_model()
    up = forward(model, [0.0], [math.pi / 2.0]).y
    down = forward(model, [0.0], [-math.pi / 2.0]).y
    assert (up - down) / 2.0 == pytest.approx(-1.0, abs=1e-12)


def test_shift_gradient_matches_analytic_closed_form():
    model = simplified_model()
    dataset = gen_linear(50, seed=21)
    x = dataset.features_array()[:, 0]
    y = dataset.targets_array()
    for w in (0.3, 2.0, -1.1):
        got = parameter_shift_gradient(model, np.array([w]), dataset, SQUARED_ERROR)
        pred = -np.sin(x + w)
        want = np.mean(2.0 * (pred - y) * (-np.cos(x + w)))
        assert got[0] == pytest.approx(want, abs=1e-12)


def finite_difference(model, w, dataset, kind, h=1e-5):
    grad = np.empty_like(w)
    for j in range(len(w)):
        up, down = w.copy(), w.copy()
        up[j] += h
        down[j] -= h
        grad[j] = (
            batch_loss(model, up, dataset, kind) - batch_loss(model, down, dataset, kind)
        ) / (2.0 * h)
    return grad


def test_shift_gradient_agrees_with_finite_differences():
    rng = np.random.default_rng(40)
    simple = simplified_model()
    for _ in range(6):
        w = rng.uniform(-math.pi, math.pi, 1)
        dataset = one_sample(rng.uniform(-1, 1), rng.uniform(-1, 1))
        got = parameter_shift_gradient(simple, w, dataset, SQUARED_ERROR)
        np.testing.assert_allclose(
            got, finite_difference(simple, w, dataset, SQUARED_ERROR), atol=1e-6
        )
    model = build_model("eqnn2")
    for _ in range(6):
        w = rng.uniform(-math.pi, math.pi, model.n_weights)
        sample = Sample((rng.uniform(0, 1), rng.uniform(0, 1)), int(rng.integers(2)))
        dataset = Dataset((sample,), "classification", "toy", 0)
        got = parameter_shift_gradient(model, w, dataset, CROSS_ENTROPY)
        np.testing.assert_allclose(
            got, finite_difference(model, w, dataset, CROSS_ENTROPY), atol=1e-6
        )


def test_shift_gradient_is_zero_where_cross_entropy_is_clamped():
    # RY(w) RY(x)|0> at x = 0, w = 1e-7: P(label 1) = sin(w/2)^2 ~ 2.5e-15 is
    # below PROB_EPS, so the clamped loss is flat and its derivative is 0.
    model = ry_parity_model()
    dataset = Dataset((Sample((0.0,), 1),), "classification", "toy", 0)
    w = np.array([1e-7])
    got = parameter_shift_gradient(model, w, dataset, CROSS_ENTROPY)
    want = finite_difference(model, w, dataset, CROSS_ENTROPY, h=1e-6)
    assert want[0] == 0.0
    np.testing.assert_array_equal(got, want)


@given(problem=strategies.problems())
def test_shift_gradient_equals_reference_loop(problem):
    # Every built model with its loss, random weights and 1-50 rows: the
    # gradient equals the written-out per-weight shift loop of the oracle,
    # to 1e-12 of the mean absolute per-row term, so that rounding in a
    # gradient that cancels to near 0 does not read as a failure.
    model, kind, w, dataset = problem
    got = parameter_shift_gradient(model, w, dataset, kind)
    terms = oracles.shift_terms(model, w, dataset, kind)
    scale = np.mean(np.abs(terms), axis=1)
    assert np.all(np.abs(got - terms.mean(axis=1)) <= 1e-12 * scale), (got, terms)


@given(problem=strategies.problems())
def test_shift_gradient_equals_central_differences_off_the_clamp(problem):
    # On rows whose P(label) is at least 0.05 the loss is smooth, so the
    # shift rule and central differences agree (criterion 07's h and atol).
    model, kind, w, dataset = problem
    if kind == CROSS_ENTROPY:
        p_label = predict_probs(model, dataset.features_array(), w)[
            np.arange(len(dataset)), dataset.targets_array().astype(int)
        ]
        kept = [s for s, p in zip(dataset.samples, p_label) if p >= 0.05]
        assume(kept)
        dataset = Dataset(tuple(kept), dataset.kind, dataset.generator, dataset.seed)
    np.testing.assert_allclose(
        parameter_shift_gradient(model, w, dataset, kind),
        finite_difference(model, w, dataset, kind),
        rtol=0.0,
        atol=1e-6,
    )


@given(data=st.data())
def test_clamped_rows_add_nothing_to_the_gradient(data):
    # Rows with x = 0, label 1 and |w| <= 1e-7 have P(label) = sin^2(w/2)
    # below PROB_EPS, where the clamped loss is flat.  Mixed among rows with
    # P(label) >= 0.05, they leave the summed gradient as it was.
    model = ry_parity_model()
    w = np.array([data.draw(st.floats(-1e-7, 1e-7))])
    points = data.draw(
        st.lists(st.tuples(st.floats(-3.0, 3.0), st.integers(0, 1)), min_size=1, max_size=25)
    )
    p = predict_probs(model, [[x] for x, _ in points], w)
    smooth = [Sample((x,), y) for (x, y), row in zip(points, p) if row[y] >= 0.05]
    assume(smooth)
    clamped = [Sample((0.0,), 1)] * data.draw(st.integers(1, 25))
    mixed = data.draw(st.permutations(smooth + clamped))
    assert predict_probs(model, [[0.0]], w)[0, 1] < PROB_EPS

    smooth_set = Dataset(tuple(smooth), "classification", "toy", 0)
    mixed_set = Dataset(tuple(mixed), "classification", "toy", 0)
    got = parameter_shift_gradient(model, w, mixed_set, CROSS_ENTROPY)
    alone = parameter_shift_gradient(model, w, smooth_set, CROSS_ENTROPY)
    terms = oracles.shift_terms(model, w, smooth_set, CROSS_ENTROPY)
    assert np.all(
        np.abs(len(mixed) * got - len(smooth) * alone)
        <= 1e-12 * np.sum(np.abs(terms), axis=1)
    )
    np.testing.assert_allclose(
        got, finite_difference(model, w, mixed_set, CROSS_ENTROPY, h=1e-6), rtol=0.0, atol=1e-6
    )


def test_shift_gradient_rejects_invalid_weight_placement():
    dataset = one_sample(0.2, 0.1)
    fm = simplified_model().feature_map

    scaled = Circuit(1, (Gate("ry", (0,), 2.0 * Weight(0)),))
    with pytest.raises(UnsupportedModelError):
        parameter_shift_gradient(
            QnnModel("scaled", fm, scaled, REGRESSION), [0.1], dataset, SQUARED_ERROR
        )

    phase_weight = Circuit(1, (Gate("phase", (0,), Weight(0)),))
    with pytest.raises(UnsupportedModelError):
        parameter_shift_gradient(
            QnnModel("phased", fm, phase_weight, REGRESSION), [0.1], dataset, SQUARED_ERROR
        )

    repeated = Circuit(
        1, (Gate("ry", (0,), Weight(0)), Gate("ry", (0,), Weight(0)))
    )
    with pytest.raises(UnsupportedModelError):
        parameter_shift_gradient(
            QnnModel("tied", fm, repeated, REGRESSION), [0.1], dataset, SQUARED_ERROR
        )


def spy_on_encodes(monkeypatch) -> list:
    """The list that gets one entry per ``qnn._encode`` call from now on."""
    encodes = []
    original = qnn._encode

    def spy(*args):
        encodes.append(1)
        return original(*args)

    monkeypatch.setattr(qnn, "_encode", spy)
    return encodes


def test_shift_gradient_checks_model_and_weights_before_encoding(monkeypatch):
    # An unsupported model, a 2-D ``w`` or a ``w`` of the wrong width is
    # refused before the dataset is encoded, naming the shape passed.
    encodes = spy_on_encodes(monkeypatch)
    dataset = one_sample(0.2, 0.1)
    fm = Circuit(1, (Gate("ry", (0,), Input(0)),))
    tied = Circuit(1, (Gate("ry", (0,), Weight(0)), Gate("ry", (0,), Weight(0))))
    with pytest.raises(UnsupportedModelError):
        parameter_shift_gradient(
            QnnModel("tied", fm, tied, REGRESSION), [0.1], dataset, SQUARED_ERROR
        )
    with pytest.raises(UsageError, match="one weight row"):
        parameter_shift_gradient(simplified_model(), [[0.1]], dataset, SQUARED_ERROR)
    with pytest.raises(UsageError, match=r"needs 1 weights per row, got shape \(2,\)$"):
        parameter_shift_gradient(simplified_model(), [0.1, 0.2], dataset, SQUARED_ERROR)
    classes = gen_two_class_usage(per_class=3, seed=1)
    with pytest.raises(UsageError, match=r"needs 4 weights per row, got shape \(5,\)$"):
        parameter_shift_gradient(build_model("eqnn1"), np.zeros(5), classes, CROSS_ENTROPY)
    assert encodes == []


def test_losses_check_weight_width_before_encoding(monkeypatch):
    # A weight row or stack of the wrong width is refused before the dataset
    # is encoded, naming the shape passed, not the stack walked.
    encodes = spy_on_encodes(monkeypatch)
    model, classes = build_model("eqnn1"), gen_two_class_usage(per_class=3, seed=1)
    with pytest.raises(UsageError, match=r"needs 4 weights per row, got shape \(5,\)$"):
        batch_loss(model, np.zeros(5), classes, CROSS_ENTROPY)
    with pytest.raises(UsageError, match=r"needs 4 weights per row, got shape \(3, 5\)$"):
        qnn.batch_losses(model, np.zeros((3, 5)), classes, CROSS_ENTROPY)
    assert encodes == []


def test_shift_gradient_validates_shapes_and_pairing():
    dataset = one_sample(0.2, 0.1)
    with pytest.raises(UsageError):
        parameter_shift_gradient(simplified_model(), [0.1, 0.2], dataset, SQUARED_ERROR)
    with pytest.raises(UsageError):
        parameter_shift_gradient(simplified_model(), [0.1], dataset, CROSS_ENTROPY)
    # A 2-D w would broadcast against the shift stack; it is refused instead.
    classes = gen_two_class_usage(per_class=3, seed=1)
    with pytest.raises(UsageError, match="one weight row"):
        parameter_shift_gradient(build_model("eqnn1"), np.zeros((4, 4)), classes, CROSS_ENTROPY)
    with pytest.raises(UsageError, match="one weight row"):
        batch_loss(build_model("eqnn1"), np.zeros((1, 4)), classes, CROSS_ENTROPY)


def test_make_objective_wires_loss_and_gradient():
    model = simplified_model()
    dataset = gen_linear(30, seed=2)
    objective = make_objective(model, dataset, SQUARED_ERROR)
    assert objective.dim == 1
    w = np.array([0.7])
    assert objective.fun(w) == pytest.approx(
        batch_loss(model, w, dataset, SQUARED_ERROR)
    )
    loss, gradient = objective.value_and_grad(w)
    assert loss == batch_loss(model, w, dataset, SQUARED_ERROR)
    np.testing.assert_array_equal(
        gradient, parameter_shift_gradient(model, w, dataset, SQUARED_ERROR)
    )


@given(problem=strategies.problems(), data=st.data())
def test_non_finite_dataset_value_is_refused_with_its_row(problem, data):
    # A nan or +-inf feature, or regression target, in a dataset built in
    # code (``load_csv`` refuses such rows itself) is refused before any
    # walk, naming its row; a class label is 0 or 1 by construction.
    model, kind, w, dataset = problem
    i = data.draw(st.integers(0, len(dataset) - 1))
    values = list(dataset.samples[i].features) + [dataset.samples[i].target]
    j = data.draw(st.integers(0, len(values) - 1 - (kind == CROSS_ENTROPY)))
    values[j] = data.draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    samples = list(dataset.samples)
    samples[i] = Sample(tuple(values[:-1]), values[-1])
    broken = Dataset(tuple(samples), dataset.kind, dataset.generator, dataset.seed)
    message = f"dataset row {i} has a non-finite feature or target"
    with pytest.raises(UsageError, match=message):
        batch_loss(model, w, broken, kind)
    with pytest.raises(UsageError, match=message):
        parameter_shift_gradient(model, w, broken, kind)
    with pytest.raises(UsageError, match=message):
        make_objective(model, broken, kind)


@pytest.mark.parametrize("model, dataset, kind", [
    (simplified_model(), gen_linear(30, seed=2), SQUARED_ERROR),
    (build_model("eqnn1"), gen_two_class_usage(per_class=10, seed=2), CROSS_ENTROPY),
])
def test_objective_encodes_and_reads_out_once(monkeypatch, model, dataset, kind):
    # The encoding and the head's readout belong to the dataset, not to the
    # weights: an objective builds them once, and no evaluation rebuilds them.
    calls = []
    for name in ("_encode", "parity_signs"):
        def spy(*args, _original=getattr(qnn, name), _name=name):
            calls.append(_name)
            return _original(*args)

        monkeypatch.setattr(qnn, name, spy)
    objective = make_objective(model, dataset, kind)
    built = list(calls)
    w = initial_weights(model.n_weights, seed=2)
    for _ in range(3):
        objective.fun(w)
        objective.value_and_grad(w)
    assert calls == built


def test_an_aqgd_run_compiles_its_gradient_plan_once(monkeypatch):
    # Every gradient of a run has the same stack pattern (w and its 2m
    # shifts), so five steps compile one gradient walk; the last iterate's
    # plain loss compiles one more.
    stacks = []
    original = qnn._legs

    def spy(gates, differs, per_block):
        stacks.append(len(differs))
        return original(gates, differs, per_block)

    monkeypatch.setattr(qnn, "_legs", spy)
    model = build_model("eqnn2")
    objective = make_objective(model, gen_two_class_usage(per_class=10, seed=5), CROSS_ENTROPY)
    w0 = initial_weights(model.n_weights, seed=5)
    minimize(objective, w0, OptimizerConfig(kind="aqgd", max_iters=5))
    assert stacks == [2 * model.n_weights + 1, 1]


def test_a_problem_allocates_its_walk_buffers_once(monkeypatch):
    # The workspace is sized for the largest block before the encode, so the
    # encode, a loss, a gradient's 2m+1 rows, a 40-row SPSA stack and a second
    # loss all walk in the same arrays, and no plan is dropped for larger
    # ones: the second loss runs the first loss's plan again.
    buffers, stacks = [], []
    views, legs = qnn._Workspace.views, qnn._legs

    def record(work, amps):
        shaped = views(work, amps)
        buffers.append([id(b) for b in work._bytes])
        return shaped

    def spy(gates, differs, per_block):
        stacks.append(len(differs))
        return legs(gates, differs, per_block)

    monkeypatch.setattr(qnn._Workspace, "views", record)
    monkeypatch.setattr(qnn, "_legs", spy)
    model = build_model("eqnn3")
    dataset = gen_two_class_usage(per_class=10, seed=6)
    problem = qnn._Problem(model, dataset, CROSS_ENTROPY)
    w = initial_weights(model.n_weights, seed=6)
    deltas = np.random.default_rng(6).choice([-1.0, 1.0], size=(20, model.n_weights))
    probes = np.vstack([w + 0.1 * deltas, w - 0.1 * deltas])
    loss = batch_loss(model, w, dataset, CROSS_ENTROPY, _problem=problem)
    (plan,) = problem.plans.values()
    parameter_shift_gradient(model, w, dataset, CROSS_ENTROPY, _problem=problem)
    qnn.batch_losses(model, probes, dataset, CROSS_ENTROPY, _problem=problem)
    assert batch_loss(model, w, dataset, CROSS_ENTROPY, _problem=problem) == loss
    assert stacks == [1, 2 * model.n_weights + 1, 40]
    assert len(problem.plans) == 3 and plan in problem.plans.values()
    assert problem.work._snapshot is not None  # the gradient's forks
    assert len(buffers) > 3 + len(model.variational.gates)
    assert all(ids == [id(b) for b in problem.work._bytes] for ids in buffers)


def test_dropping_an_objective_frees_its_plans_and_their_buffers(monkeypatch):
    # Plans belong to their problem: once the objective is gone, nothing else
    # holds the problem, its workspace, the walk buffers, the snapshot or a
    # plan's angles.
    problems = []
    init = qnn._Problem.__init__

    def spy(problem, *args):
        init(problem, *args)
        problems.append(weakref.ref(problem))

    monkeypatch.setattr(qnn._Problem, "__init__", spy)
    model = build_model("benchmark")
    objective = make_objective(model, gen_two_class_usage(per_class=10, seed=7), CROSS_ENTROPY)
    w = initial_weights(model.n_weights, seed=7)
    objective.value_and_grad(w)
    objective.fun(w)
    problem = problems[0]()
    work = problem.work
    arrays = list(work._bytes) + [work._snapshot] + [plan[1] for plan in problem.plans.values()]
    assert len(arrays) == 3 + 1 + 2
    refs = [weakref.ref(array) for array in arrays] + [weakref.ref(work), problems[0]]
    del problem, work, arrays, objective
    gc.collect()
    assert [ref() for ref in refs] == [None] * len(refs)


def test_objective_evaluates_through_the_public_loss_and_gradient(monkeypatch):
    # The benchmark times ``qnn.batch_loss`` and ``optim.parameter_shift_gradient``
    # as layers of their own; an objective that walked around either would
    # leave that layer unmeasured.
    calls = []
    for module, name in ((qnn, "batch_loss"), (optim, "parameter_shift_gradient")):
        def spy(*args, _original=getattr(module, name), _name=name, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, spy)
    model = build_model("eqnn1")
    objective = make_objective(model, gen_two_class_usage(per_class=5, seed=3), CROSS_ENTROPY)
    w = initial_weights(model.n_weights, seed=3)
    objective.fun(w)
    assert calls == ["batch_loss"]
    objective.value_and_grad(w)
    assert calls == ["batch_loss", "parameter_shift_gradient"]


def test_training_simplified_model_end_to_end():
    dataset = gen_linear(60, seed=42)
    objective = make_objective(simplified_model(), dataset, SQUARED_ERROR)
    trace = minimize(
        objective,
        initial_weights(1, seed=42),
        OptimizerConfig(kind="aqgd", max_iters=60, seed=42),
    )
    assert abs(abs(trace.final_weights[0]) - math.pi) < 0.05
    assert trace.final_loss < 5e-3

"""Independent dense-matrix oracles used by the tests.

The simulator oracles are built from explicit 2x2 / 4x4 matrices and
Kronecker products only — no reuse of the package's gate kernels — so
agreement between the two routes is meaningful.  The loss and gradient
oracles write each loss formula and slope out themselves and reach the
package only through its public predictions.  ``spsa_by_rows`` is SPSA
one evaluation at a time, as the optimizer ran before it walked weight
stacks.  ``walk_by_gates`` is the circuit walk as the package ran it before
it compiled walks: one gate at a time through the package's own kernels and
rotation helpers, deciding every buffer and rotation as it goes, so that
agreement with it pins the compilation rather than the arithmetic;
``fitted_by_gates`` walks each weight row alone that way.  ``load_csv_by_lines`` is
the reference CSV reader: one ``Sample`` per line, parsed and checked in
file order, built into a ``Dataset`` through its ``Sample`` constructor.

Amplitude index convention (little-endian, matching the package): bit q
of the index is qubit q, so ``np.kron(A, B)`` applies ``A`` to the
highest qubit and ``B`` to the lowest.
"""

import math

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


def cnot_by_halves(amps: np.ndarray, control: int, target: int) -> np.ndarray:
    """CNOT on ``(2**n, *batch)`` amplitudes by copying and flipping halves.

    On the ``(2,)*n + batch`` view (qubit q on axis n-1-q) the control=0
    half is copied and the control=1 half flipped along the target axis:
    the package's own CNOT before it gathered runs of them.
    """
    n = amps.shape[0].bit_length() - 1
    a = amps.reshape((2,) * n + amps.shape[1:])
    out = np.empty(a.shape, amps.dtype)
    c, t = n - 1 - control, n - 1 - target
    lead = (slice(None),) * c
    out[lead + (0,)] = a[lead + (0,)]
    out[lead + (1,)] = np.flip(a[lead + (1,)], t - (t > c))
    return out.reshape(amps.shape)


def ry_by_halves(amps: np.ndarray, theta, qubit: int) -> np.ndarray:
    """RY on ``(2**n, *batch)`` amplitudes by four products of whole pair halves.

    On the ``(pre, 2, post, *batch)`` view, ``c * v0 - s * v1`` and
    ``s * v0 + c * v1`` with ``c``, ``s`` the cos and sin of ``theta / 2``,
    broadcast as given: the package's own RY before it tiled its halves or
    filled cos and sin planes.
    """
    n = amps.shape[0].bit_length() - 1
    a = amps.reshape((1 << (n - 1 - qubit), 2, 1 << qubit) + amps.shape[1:])
    half = np.asarray(theta, dtype=float) / 2.0
    c, s = np.cos(half), np.sin(half)
    out = np.empty(a.shape, amps.dtype)
    out[:, 0] = c * a[:, 0] - s * a[:, 1]
    out[:, 1] = s * a[:, 0] + c * a[:, 1]
    return out.reshape(amps.shape)


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


def tensor_state(n_qubits: int, gates) -> np.ndarray:
    """``circuit_state`` for registers too wide for a dense matrix.

    The register is a ``(2,)*n`` tensor with qubit q on axis n-1-q; each
    gate is a tensordot of its 2x2 matrix, or of CNOT as a
    ``[control', target', control, target]`` tensor, on its qubits' axes.
    """
    cnot = np.zeros((2, 2, 2, 2))
    for c in range(2):
        for t in range(2):
            cnot[c, t ^ c, c, t] = 1.0
    psi = np.zeros((2,) * n_qubits, dtype=complex)
    psi[(0,) * n_qubits] = 1.0
    for name, qubits, theta in gates:
        if name == "cnot":
            op = cnot
        elif name == "h":
            op = H2
        else:
            op = phase_matrix(theta) if name == "phase" else ry_matrix(theta)
        axes = [n_qubits - 1 - q for q in qubits]
        k = len(axes)
        psi = np.tensordot(op, psi, axes=(list(range(k, 2 * k)), axes))
        psi = np.moveaxis(psi, list(range(k)), axes)
    return psi.reshape(-1)


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


def shift_terms(model, w, dataset, kind: str) -> np.ndarray:
    """Per-row terms of the parameter-shift gradient, shape (n_weights, n_rows).

    Their mean along each row is dL/dw_j, the reference gradient.

    Row j holds each sample's dL/dw_j: the shift-rule derivative of its
    fitted value (y' for squared error, P(label) for cross-entropy)
    times the loss's slope, written out here on its own: 2 (y' - t)
    for squared error, -1 / max(P, 1e-12) for cross-entropy and 0 where
    P < 1e-12, the clamped loss being flat there.  Fitted values come
    from the public ``predict_regression`` / ``predict_probs`` only.
    """
    from eqnn.qnn import predict_probs, predict_regression

    X, targets = dataset.features_array(), dataset.targets_array()

    def fitted(weights):
        if kind == "squared_error":
            return predict_regression(model, X, weights)
        return predict_probs(model, X, weights)[np.arange(len(targets)), targets.astype(int)]

    w = np.asarray(w, dtype=float)
    f = fitted(w)
    terms = np.empty((len(w), len(targets)))
    for j in range(len(w)):
        shift = np.zeros_like(w)
        shift[j] = np.pi / 2.0
        df = (fitted(w + shift) - fitted(w - shift)) / 2.0
        if kind == "squared_error":
            terms[j] = 2.0 * (f - targets) * df
        else:
            terms[j] = np.where(f < 1e-12, 0.0, -df / np.maximum(f, 1e-12))
    return terms


def spsa_by_rows(fun, w0, max_iters: int, seed: int):
    """SPSA from ``w0`` with one call of ``fun`` per weight row, in Spall's order.

    Twenty calibration pairs ``f(w0 + c delta) - f(w0 - c delta)`` set the
    gain numerator; then each step evaluates ``w + c_k delta_k`` and
    ``w - c_k delta_k``, updates ``w`` and evaluates the new iterate, whose
    loss it records.  Each value is checked as it comes: a non-finite one
    raises ``NonFiniteLossError`` naming its weights.  Returns ``(losses,
    final weights, evaluations)``.
    """
    from eqnn.errors import NonFiniteLossError
    from eqnn.optim import (
        SPSA_ALPHA,
        SPSA_C,
        SPSA_CALIBRATION_SAMPLES,
        SPSA_GAMMA,
        SPSA_STABILITY,
        SPSA_TARGET_STEP,
    )

    evaluations = 0

    def f(w):
        nonlocal evaluations
        evaluations += 1
        value = float(fun(w))
        if not math.isfinite(value):
            raise NonFiniteLossError(value, np.asarray(w, dtype=float).copy())
        return value

    rng = np.random.default_rng(seed)
    w0 = np.asarray(w0, dtype=float)

    def rademacher():
        return rng.integers(0, 2, size=len(w0)) * 2.0 - 1.0

    slopes = []
    for _ in range(SPSA_CALIBRATION_SAMPLES):
        delta = rademacher()
        diff = f(w0 + SPSA_C * delta) - f(w0 - SPSA_C * delta)
        slopes.append(abs(diff) / (2.0 * SPSA_C))
    a = SPSA_TARGET_STEP / max(float(np.mean(slopes)), 1e-10) * (SPSA_STABILITY + 1.0) ** SPSA_ALPHA
    w, losses = w0.copy(), []
    for k in range(max_iters):
        a_k = a / (k + 1 + SPSA_STABILITY) ** SPSA_ALPHA
        c_k = SPSA_C / (k + 1) ** SPSA_GAMMA
        delta = rademacher()
        diff = f(w + c_k * delta) - f(w - c_k * delta)
        w = w - a_k * (diff / (2.0 * c_k) * delta)
        losses.append(f(w))
    return np.array(losses), w, evaluations


def _csv_header(line: str) -> tuple[str, int, str]:
    from eqnn.data import KINDS
    from eqnn.errors import DataFormatError

    fields = dict(token.split("=", 1) for token in line[1:].split() if "=" in token)
    missing = {"generator", "seed", "kind"} - fields.keys()
    if missing:
        raise DataFormatError(f"header missing {sorted(missing)}", line_number=1)
    if fields["kind"] not in KINDS:
        raise DataFormatError(f"unknown kind {fields['kind']!r}", line_number=1)
    try:
        seed = int(fields["seed"])
    except ValueError:
        raise DataFormatError(f"bad seed {fields['seed']!r}", line_number=1) from None
    return fields["generator"], seed, fields["kind"]


def load_csv_by_lines(path):
    """The reference reader of the ``save_csv`` format, one ``Sample`` per line.

    Blank lines are skipped.  Each data line, in file order, must have the
    first data line's width (at least 2); its features, and a regression
    target, must parse with ``float()``; a class label must read ``0`` or
    ``1`` once stripped; every value must be finite.  The first line that
    breaks a rule raises ``DataFormatError`` with its line number.
    """
    from eqnn.data import Dataset, Sample
    from eqnn.errors import DataFormatError

    with open(path, "r", newline="") as fh:
        raw_lines = fh.read().split("\n")
    if not raw_lines or not raw_lines[0].startswith("#"):
        raise DataFormatError(
            "expected '# generator=... seed=... kind=...' header", line_number=1
        )
    generator, seed, kind = _csv_header(raw_lines[0])
    samples = []
    width = None
    for number, line in enumerate(raw_lines[1:], start=2):
        if not line.strip():
            continue
        cells = line.split(",")
        if width is None:
            width = len(cells)
            if width < 2:
                raise DataFormatError(
                    "need at least one feature and a target", line_number=number
                )
        elif len(cells) != width:
            raise DataFormatError(
                f"expected {width} columns, got {len(cells)}", line_number=number
            )
        try:
            features = tuple(float(c) for c in cells[:-1])
        except ValueError as exc:
            raise DataFormatError(str(exc), line_number=number) from None
        if kind == "classification":
            label = cells[-1].strip()
            if label not in ("0", "1"):
                raise DataFormatError(
                    f"classification target must be 0 or 1, got {cells[-1]!r}",
                    line_number=number,
                )
            target = int(label)
        else:
            try:
                target = float(cells[-1])
            except ValueError as exc:
                raise DataFormatError(str(exc), line_number=number) from None
        if not all(map(math.isfinite, features + (target,))):
            raise DataFormatError(f"non-finite value in {line!r}", line_number=number)
        samples.append(Sample(features, target))
    if not samples:
        raise DataFormatError("no data rows", line_number=1)
    return Dataset(tuple(samples), kind, generator, seed)


def walk_by_gates(gates, amps: np.ndarray, work) -> np.ndarray:
    """Bound ``gates`` applied in order to ``amps`` through ``work``, a ``qnn._Workspace``.

    Each gate, CNOT run or rotation calls ``statevector._apply`` or
    ``qnn._rotate`` as it is reached, into the walk buffer that does not
    hold its input, with the bit rotation of a wide register chosen gate by
    gate (``qnn._slow_positions``, ``qnn._rotation``).
    """
    from eqnn.qnn import _rotate, _rotation, _slow_positions
    from eqnn.statevector import _apply

    *buffers, scratch = work.views(amps)
    if amps.flags.writeable:
        amps = next((b for b in buffers if np.may_share_memory(amps, b)), amps)
    n = amps.shape[0].bit_length() - 1
    low, r = _slow_positions(amps), 0
    run = []
    for k, g in enumerate(gates):
        if g.name == "cnot":
            run.append(tuple((q + r) % n for q in g.qubits) if r else g.qubits)
            if k + 1 < len(gates) and gates[k + 1].name == "cnot":
                continue
            qubits = tuple(zip(*run)) if len(run) > 1 else run[0]
            amps = _apply(amps, "cnot", qubits, None, buffers[amps is buffers[0]])
            run = []
            continue
        if low and (g.qubits[0] + r) % n < low:
            rotation = _rotation(gates[k:], n, low)
            amps = _rotate(amps, (rotation - r) % n, buffers[amps is buffers[0]])
            r = rotation
        angle = g.angle
        if np.ndim(angle):
            angle = angle.reshape(angle.shape + (1,) * (amps.ndim - 2))
        qubits = tuple((q + r) % n for q in g.qubits) if r else g.qubits
        amps = _apply(amps, g.name, qubits, angle, buffers[amps is buffers[0]], scratch)
    if r:
        amps = _rotate(amps, n - r, buffers[amps is buffers[0]])
    return amps


def fitted_by_gates(problem, W: np.ndarray) -> np.ndarray:
    """``problem.fitted(W)`` with each weight row walked alone by ``walk_by_gates``.

    Each row walks the variational circuit from all of ``problem.psi`` and
    is squared as a prediction is (``qnn.probabilities_batch``), then read
    out through the whole readout, one block of data rows at a time as the
    problem reads (the product's summation order may follow the number of
    rows): y' for squared error, P(label) for cross-entropy.
    """
    from eqnn.circuit import bind
    from eqnn.qnn import CROSS_ENTROPY, _Workspace

    fitted = []
    for w in W:
        amps = walk_by_gates(bind(problem.model.variational, (), w), problem.psi, _Workspace())
        probs = np.empty(amps.shape[::-1])
        np.square(np.abs(amps), out=probs.T)
        value = np.concatenate([probs[rows] @ problem.readout for rows in problem.blocks])
        if problem.kind == CROSS_ENTROPY:
            value = np.where(problem.targets == 1, 1.0 - value, value)
        fitted.append(value)
    return np.array(fitted).reshape(len(W), problem.psi.shape[1])

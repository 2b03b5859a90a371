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

Every evaluation goes through one gate walk, ``_walk``, over gates that
``bind`` evaluated for one row or a batch of rows, in one dtype from
start to end: float64, or complex if a walked gate is a phase gate
(``_walk_dtype``).  Before that gate every imaginary part is +0, so a
complex start computes the same values as a real one.  The one exception
is a training problem whose encoded states are complex and whose
variational circuit has no phase gate, such as ``benchmark``'s: it walks
those states as (re, im) float64 pairs, with the same bits (see
``_Problem._compile_block``).  Amplitudes are
laid out as the kernels take them, ``(2**n, *batch)``.  A walk is
compiled, then run: ``_compile`` turns the gates into steps over fixed
sources and outputs in a ``_Workspace`` (two walk buffers, RY's scratch
of one tile and its cos and sin planes for per-row angles, see
``statevector.kernel_ry``), and ``_run`` hands each step to ``_apply``,
which calls the public ``statevector.kernel_*`` by name.  Each call or
training problem owns one workspace, sized once for its largest block;
it never grows.  There is one rule: walk the bound circuit from |0...0>
(``_amplitudes``), a batch in blocks of rows of at most 256 KB
(``_BLOCK_BYTES``).  ``simulate`` walks one row; a prediction walks the
model circuit bound to each block of rows and the weight row, and
squares the block straight into its output (``_square``).  Such
one-shot walks leave each kernel to build its own views.

Only a training problem (``_Problem``: one model, dataset and loss kind)
caches the weight-free feature map's states (``_encode``, a ``(2**n, N)``
state in the whole circuit's dtype), because every loss and gradient
walks that prefix again.  Each of them walks the variational circuit
from those states under a ``(B, m)`` stack of weight rows: one per loss,
the 2m+1 rows ``w``, ``w +- pi/2 e_j`` per gradient, and SPSA's probes
with their iterate (``batch_losses``).  A block walks ``(2**n, B', N')``:
B' whole weight rows over all N data rows while one weight row's states
fit in a block, else one weight row over as many data rows as fit.  A
row walks only from where its angles leave row 0's (``_forks``,
``_legs``): a row shifted in a later layer of the ansatz starts from a
copy of row 0's state there, in the workspace's snapshot block, and a
row equal to row 0 is not walked at all.  The problem compiles these
legs once per stack pattern, which rows leave row 0 at which weights
(``_Problem._plan``): each gate's angle source (a weight column or a
fixed float), the bit positions and rotations, and every kernel's views
(``statevector._views``), checked then.  An evaluation only gathers its
angles into the plan and runs its steps, and each walked block is
squared into the spare walk buffer for the head's readout: only the one
or two amplitudes a parity readout counts, else all of them.  The
problem keeps its plans (``_Problem.plans``), whose views stay valid
because its workspace never grows.  No returned array is a view into a
workspace.  A batch row is identical to one-at-a-time simulation, every
fitted value, forked or not, to the public prediction, and a wide
register needs no ``2**n x 2**n`` matrix.

A walk hands each run of consecutive CNOTs, such as a ``RealAmplitudes``
chain, to one ``kernel_cnot`` call: one gather of the whole run, at about
the same speed at any bit positions.  A walk of a wide register keeps
its amplitudes in a rotated bit order: logical qubit ``q`` at bit
position ``(q + r) % n`` for one offset ``r``, and the kernels are given
positions.  numpy runs a one-qubit gate at position ``p`` over ``2**p``
times the batch size elements at a time, slowly below 2^12
(``_FAST_RUN``).  So a one-qubit gate on a low position first rotates
the register to put the coming one-qubit gates on high ones, and the
walk rotates back before it returns.  At 2^20 float64 a 20-qubit RY
layer falls from 63 to 36 ms, bit for bit the same (see ``_compile``).

One loss formula, ``_loss``, gives each loss for ``batch_losses`` (and
its one-row case ``batch_loss``) and the shift-rule gradient alike, and
``_slope`` its slope for the gradient; every class decision goes through
``decide``.  Batch means use ``np.mean`` (pairwise summation) as the one
documented reduction order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .circuit import (
    Circuit,
    Gate,
    Input,
    Weight,
    _collect_indices,
    bind,
    build_benchmark_feature_map,
    build_efm,
    build_real_amplitudes,
    concat,
    evaluate,
)
from .errors import UsageError
from .statevector import StateVector, _apply, _tile_amplitudes, _views

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
    signs = np.ones(1)
    for _ in range(n_qubits):  # setting the next-higher bit flips the parity
        signs = np.concatenate([signs, -signs])
    return signs


# --------------------------------------------------------------------------
# Simulation


def _walk_dtype(dtype, gates) -> np.dtype:
    """The one dtype of a walk of ``gates`` from ``dtype``: complex if any is a phase gate."""
    return np.dtype(complex if any(g.name == "phase" for g in gates) else dtype)


def _bytes(nbytes: int) -> np.ndarray:
    """Fresh bytes that hold ``nbytes`` from a 64-byte cache line on (see ``_as``)."""
    return np.empty(nbytes + 63, np.uint8)


def _as(buffer: np.ndarray, shape: tuple, dtype) -> np.ndarray:
    """The leading bytes of ``buffer`` (``_bytes``) from its first cache line on, as a
    C-ordered ``dtype`` array of ``shape``.

    numpy aligns an allocation to 16 bytes only.  A walk buffer off a cache
    line splits the kernels' vector loads and stores across lines: a 1000-row
    eqnn1 or eqnn3 gradient ran about 15% slower from buffers 16 to 48 bytes
    past a line.
    """
    dtype, start = np.dtype(dtype), -buffer.ctypes.data % 64
    return buffer[start : start + math.prod(shape) * dtype.itemsize].view(dtype).reshape(shape)


class _Workspace:
    """Flat bytes that walks write into, sized once for the largest walk of their owner.

    Two walk buffers of one block each, which the gates write in turn,
    and RY's scratch: one kernel tile for its second product (at most
    half a block, see ``statevector._tile_amplitudes``) and two planes
    of one amplitude's batch for its per-row cos and sin (see
    ``statevector.kernel_ry``).  That is two blocks, one tile and two
    planes, as three arrays, so a walk's result keeps only its own
    buffer alive.  They are sized for ``block``, a training problem's
    largest, or else for the first walk given, a one-shot call's first
    and largest block, and never grow.  A forked walk (``_Problem.fitted``)
    also keeps one snapshot block, a fourth array made on its first use:
    row 0's state at a fork, which the walks from it read and never write.
    """

    def __init__(self, block: np.ndarray | None = None):
        self._bytes = self._snapshot = None
        if block is not None:
            self.views(block)

    def views(self, amps: np.ndarray) -> list[np.ndarray]:
        """The two walk buffers shaped like ``amps``, then RY's scratch, ``(k + 2, *batch)``."""
        shapes = (amps.shape, amps.shape, (_tile_amplitudes(amps) + 2,) + amps.shape[1:])
        if self._bytes is None:
            self._bytes = tuple(_bytes(math.prod(s) * amps.itemsize) for s in shapes)
        return [_as(b, s, amps.dtype) for b, s in zip(self._bytes, shapes)]

    def spare(self, amps: np.ndarray) -> np.ndarray:
        """The walk buffer that does not hold ``amps``."""
        first, second, _ = self._bytes
        return second if np.may_share_memory(first, amps) else first

    def snapshot(self, amps: np.ndarray) -> np.ndarray:
        """The snapshot block, which no walk writes, shaped like ``amps``, the first the largest."""
        if self._snapshot is None:
            self._snapshot = _bytes(amps.nbytes)
        return _as(self._snapshot, amps.shape, amps.dtype)


# A one-qubit gate whose pair halves come in runs of fewer elements than
# this rotates the register first (see ``_compile``).  At 2^20 float64 a
# lone RY takes 13.3 ms at bit position 1, 7.2 at 2, 3.5 at 6 and 2.7 at
# 11, against 1.7-2.0 ms from position 12 on, where a run is 2^12 long.
_FAST_RUN = 1 << 12

# A rotation copies tiles of about this many bytes of the source, and of
# at least 32 source rows, so that the reads of each tile stay in cache
# and each write runs at least 32 elements.
_TILE_BYTES = 1 << 15


def _slow_positions(amps: np.ndarray) -> int:
    """The bit positions below which a gate on ``amps`` runs short; 0 if the walk never rotates.

    Position ``p`` runs ``2**p`` times the batch size.  Registers of at most
    two qubits, empty batches and registers with no fast position never
    rotate: a rotation there moves every amplitude for one or two gates.
    """
    n = amps.shape[0].bit_length() - 1
    rest = math.prod(amps.shape[1:])
    if n <= 2 or rest == 0:
        return 0
    low = ((_FAST_RUN - 1) // rest).bit_length()  # least p with 2**p * rest >= _FAST_RUN
    return low if low < n else 0


def _rotation(gates, n: int, low: int) -> int:
    """The rotation that lands the longest run of ``gates``, from the first, on fast positions.

    A candidate puts the first gate's qubit on a fast position; its run
    ends at the first one-qubit gate with a qubit below ``low``.  A CNOT,
    a gather at about the same speed at every position, never ends it.
    Of equal runs the rotation 0 wins, which spares the rotation back.
    """

    def run(r: int) -> tuple[int, bool]:
        for k, g in enumerate(gates):
            if len(g.qubits) == 1 and (g.qubits[0] + r) % n < low:
                return k, r == 0
        return len(gates), r == 0

    first = gates[0].qubits[0]
    return max(((p - first) % n for p in range(low, n)), key=run)


def _rotate(amps: np.ndarray, d: int, out: np.ndarray) -> np.ndarray:
    """``amps`` with the amplitude at bit position ``p`` moved to ``(p + d) % n``, into ``out``.

    That is the ``(2**d, 2**(n-d), *batch)`` view with its first two axes
    swapped, copied in tiles of its rows (``_TILE_BYTES``): one copy of the
    whole view at 2^20 float64 takes 3.5-5.5 ms, the tiles 1.0-1.4 ms.
    """
    n = amps.shape[0].bit_length() - 1
    source = amps.reshape((1 << d, 1 << (n - d)) + amps.shape[1:])
    target = out.reshape((1 << (n - d), 1 << d) + amps.shape[1:])
    step = max(32, _TILE_BYTES // source[0].nbytes)
    for i in range(0, 1 << d, step):
        target[:, i : i + step] = source[i : i + step].swapaxes(0, 1)
    return out


def _compile(gates, thetas, amps: np.ndarray, work: _Workspace, views: bool):
    """The steps of a walk of ``gates`` from ``amps``, and the view its result will be in.

    ``thetas`` holds each gate's angle as its kernel takes it.  A step is
    ``(name, source, positions, theta, out, scratch, views)``, which
    ``_run`` hands to ``_apply``; for the name ``"rotate"`` it calls
    ``_rotate(source, positions, out)``, ``positions`` being the shift.
    Every source and output is fixed: the input, or the walk buffer of
    ``work`` that the step before wrote.  With ``views``, each step also
    holds the views its kernel works on (``statevector._views``), built and
    checked here once, so that each run of the steps calls only the ufuncs.

    Gates bound to a batch of rows turn ``amps[:, b]``, shape ``(2**n, ...)``,
    by row ``b``'s angles.  Each run of consecutive CNOTs is one
    ``kernel_cnot`` call, a single gather.  Every gate, CNOT run and
    rotation writes the walk buffer that does not hold its input, so the
    result is a view into one of the two; a walk from such a result goes on
    from its buffer.

    The walk keeps one bit rotation ``r``: logical qubit ``q`` sits at bit
    position ``(q + r) % n``, and each kernel gets the positions.  A
    one-qubit gate at position ``p`` runs over ``2**p`` times the batch
    size elements at a time, and numpy is slow on short runs.  So a
    one-qubit gate whose run is shorter than ``_FAST_RUN`` first rotates
    the register (``_rotate``) to the ``r`` that lands the longest run of
    the gates from it on fast positions (``_rotation``), and the walk ends
    rotated back to ``r = 0``.  A CNOT run takes any positions.  A rotation
    only moves amplitudes, so every amplitude gets the same arithmetic in
    the same gate order, and the result is bit for bit that of the walk
    without rotations.  Walks of at most two qubits, such as every walk of
    the named models, never rotate (``_slow_positions``).
    """
    *buffers, scratch = work.views(amps)
    if amps.flags.writeable:  # a walk's result goes on from its own buffer
        amps = next((b for b in buffers if np.may_share_memory(amps, b)), amps)
    n = amps.shape[0].bit_length() - 1
    low, r = _slow_positions(amps), 0
    steps, run = [], []  # the (control, target) positions of the CNOTs since the last other gate

    def step(name, positions, theta=None):
        nonlocal amps
        out = buffers[amps is buffers[0]]  # the walk buffer that does not hold amps
        given = _views(amps, name, positions, out, scratch) if views and name != "rotate" else None
        steps.append((name, amps, positions, theta, out, scratch, given))
        amps = out

    for k, g in enumerate(gates):
        if g.name == "cnot":
            run.append(tuple((q + r) % n for q in g.qubits) if r else g.qubits)
            if k + 1 < len(gates) and gates[k + 1].name == "cnot":
                continue  # the run goes on
            step("cnot", tuple(zip(*run)) if len(run) > 1 else run[0])  # (controls, targets)
            run = []
            continue
        if low and (g.qubits[0] + r) % n < low:
            rotation = _rotation(gates[k:], n, low)
            step("rotate", (rotation - r) % n)
            r = rotation
        step(g.name, tuple((q + r) % n for q in g.qubits) if r else g.qubits, thetas[k])
    if r:
        step("rotate", n - r)
    return steps, amps


def _run(steps) -> None:
    """Run compiled steps (``_compile``) through ``_apply`` and ``_rotate``."""
    for name, amps, positions, theta, out, scratch, views in steps:
        if name == "rotate":
            _rotate(amps, positions, out)
        else:
            _apply(amps, name, positions, theta, out, scratch, views)


def _walk(gates, amps: np.ndarray, work: _Workspace) -> np.ndarray:
    """Apply bound gates in order to ``amps``, of the walk's one dtype (see ``_walk_dtype``).

    The walk is compiled (``_compile``) and run once; each kernel builds
    its own views, so no view of a one-shot walk outlives its step.  The
    result is a view into ``work``.
    """
    thetas = [g.angle.reshape(g.angle.shape + (1,) * (amps.ndim - 2))  # one angle per row
              if np.ndim(g.angle) else g.angle for g in gates]
    steps, result = _compile(gates, thetas, amps, work, views=False)
    _run(steps)
    return result


def _amplitudes(circuit: Circuit, inputs, weights, work: _Workspace) -> np.ndarray:
    """Bind ``circuit`` and walk it from the all-zeros state.

    One input row gives ``2**n`` amplitudes; a ``(batch, n_inputs)``
    batch gives ``(2**n, batch)``, the amplitude axis first.  The start,
    broadcast over the batch, is float64, or complex if the circuit has a
    phase gate.  The result is a view into ``work`` (see ``_walk``).
    """
    shape = (1 << circuit.n_qubits,) + np.shape(inputs)[:-1]
    zero = np.zeros((shape[0],) + (1,) * (len(shape) - 1), _walk_dtype(float, circuit.gates))
    zero[0] = 1.0
    return _walk(bind(circuit, inputs, weights), np.broadcast_to(zero, shape), work)


def simulate(circuit: Circuit, inputs, weights) -> StateVector:
    """Bind and run a circuit on one input row from the all-zeros state."""
    return StateVector(circuit.n_qubits, _amplitudes(circuit, inputs, weights, _Workspace()))


# A batch is walked in blocks of rows of at most this many bytes of the
# walk's one dtype.  Every gate of a block writes into the workspace of
# its call or training problem, so the size trades per-call overhead
# against memory, not against page faults.
_BLOCK_BYTES = 1 << 18


def _blocks(n_rows: int, row_bytes: int) -> list[slice]:
    """Slices of ``_BLOCK_BYTES`` worth of rows, at least one row each; one slice for 0 rows."""
    step = max(1, _BLOCK_BYTES // row_bytes)
    return [slice(i, i + step) for i in range(0, max(n_rows, 1), step)]


def _encode(model: QnnModel, X: np.ndarray, work: _Workspace) -> np.ndarray:
    """The ``(2**n, N)`` feature-map states of the float ``X``, in the whole circuit's dtype."""
    dim = 1 << model.n_qubits
    psi = np.empty((dim, len(X)), _walk_dtype(float, model.circuit.gates))
    for rows in _blocks(len(X), psi.itemsize * dim):
        psi[:, rows] = _amplitudes(model.feature_map, X[rows], (), work)
    return psi


def _weight_rows(W, model: QnnModel, ndim: int = 1) -> np.ndarray:
    """``W`` as one float weight row of ``model`` (``ndim`` 1) or a stack of them (2); refuses
    any other shape or width, naming the shape given, then a non-finite weight, naming it."""
    W = np.asarray(W, dtype=float)
    if W.ndim != ndim:
        expected = "one weight row" if ndim == 1 else "a stack of weight rows"
        raise UsageError(f"expected {expected}, got shape {W.shape}")
    if W.shape[-1] != model.n_weights:
        raise UsageError(f"model needs {model.n_weights} weights per row, got shape {W.shape}")
    if not np.isfinite(W).all():
        *row, j = np.argwhere(~np.isfinite(W))[0]
        where = f"weight {j} of row {row[0]}" if row else f"weight {j}"
        raise UsageError(f"{where} is not finite")
    return W


def _square(amps: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``|amps|**2`` into the float ``out``: ``np.abs`` first if complex, since the square of
    a real amplitude has the bits of the square of its abs."""
    if amps.dtype.kind == "c":
        amps = np.abs(amps, out=out)
    return np.square(amps, out=out)


def probabilities_batch(model: QnnModel, X, w) -> np.ndarray:
    """Basis-state probabilities for each input row: shape (batch, 2**n).

    Each block of rows walks the model circuit, bound to those rows and
    ``w``, from |0...0>, and is squared into its rows of the output.
    Refuses a non-finite feature or weight, naming its row or index.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    w = _weight_rows(w, model)
    if not np.isfinite(X).all():
        row = int(np.argwhere(~np.isfinite(X))[0, 0])
        raise UsageError(f"input row {row} has a non-finite feature")
    dim = 1 << model.n_qubits
    out, work = np.empty((len(X), dim)), _Workspace()
    for rows in _blocks(len(X), dim * _walk_dtype(float, model.circuit.gates).itemsize):
        _square(_amplitudes(model.circuit, X[rows], w, work), out[rows].T)  # amplitude-first
    return out


def predict_regression(model: QnnModel, X, w) -> np.ndarray:
    """y' = P(even parity) - P(odd parity) for each input row."""
    return probabilities_batch(model, X, w) @ parity_signs(model.n_qubits)


def predict_probs(model: QnnModel, X, w) -> np.ndarray:
    """Class-probability pairs (P(class 0), P(class 1)), shape (batch, 2)."""
    even = probabilities_batch(model, X, w) @ np.where(parity_signs(model.n_qubits) > 0, 1.0, 0.0)
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


def _forks(gates, differs: np.ndarray) -> tuple[list, list]:
    """Where each weight row of ``gates`` leaves row 0's walk.

    ``differs[b, k]`` says whether row ``b``'s angle at gate ``k`` may have
    other bits than row 0's.  Returns ``(starts, leaving)``: each row's
    start, and for each gate the set of rows that differ there.  A row's
    first such gate lies in a run of one-qubit gates, and the row starts at
    the first gate of that run (any CNOTs before the first run belong to
    it): before its start a row's walk is row 0's, gate for gate, bit for
    bit.  A row whose every angle is row 0's, row 0 itself included,
    starts at ``len(gates)``.
    """
    runs, run, single = [], 0, False  # the start of each gate's run
    for k, g in enumerate(gates):
        if g.name != "cnot":
            single = True
        elif single:
            run = k + 1
        runs.append(run)
    starts, leaving = [len(gates)] * len(differs), [set() for _ in gates]
    for b, k in zip(*np.nonzero(differs)):
        leaving[k].add(int(b))
        starts[b] = min(starts[b], runs[k])
    return starts, leaving


def _legs(gates, differs: np.ndarray, per_block: int) -> tuple[list, list]:
    """The walks of the weight rows of ``gates``, at most ``per_block`` rows each.

    ``differs`` is as for ``_forks``, one row per weight row.  Returns
    ``(legs, same)``.  A leg is ``(lo, hi, rows, picks, on, snap, read)``:
    walk ``rows`` through ``gates[lo:hi]`` from row 0's state at ``lo``, or
    on from the leg before (``on``); then copy row 0's state, the first
    row's, into the snapshot (``snap``), or read ``rows`` out (``read``).
    ``picks`` holds, for each of those gates, the rows whose angles it
    takes, or ``None`` for a fixed angle.  ``same`` are row 0 and the rows
    equal to it, which take its values and are not walked.

    The rows of each start (``_forks``) walk from row 0's state there, and
    row 0 walks from start to start, in the last block of the rows of each
    start if it has room, else on its own.  A block that carries it on to
    the next start leaves a copy of its state there, and goes on to the
    end.  When every row starts at gate 0, as in an SPSA stack or a single
    loss, that is one start: the rows walk from the start in blocks, row 0
    among the last.  A gate where none of a leg's rows leaves row 0 takes
    row 0's angle alone, which the kernel broadcasts: the same products as
    a whole plane of it.
    """
    varying = [isinstance(g.angle, np.ndarray) for g in gates]
    starts, leaving = _forks(gates, differs)

    def take(lo: int, hi: int, rows: list) -> tuple:
        """``gates[lo:hi]`` for ``rows``."""
        return lo, hi, rows, [
            None if not varying[k] else [0] if leaving[k].isdisjoint(rows) else rows
            for k in range(lo, hi)
        ]

    groups: dict[int, list] = {}
    for b, start in enumerate(starts):
        groups.setdefault(start, []).append(b)
    bounds = sorted(set(groups) - {len(gates)} | {0, len(gates)})
    legs = []
    for start, stop in zip(bounds, bounds[1:]):
        rows = groups.get(start, [])
        chunks = [rows[i : i + per_block] for i in range(0, len(rows), per_block)]
        carrier = [0] + (chunks.pop() if chunks and len(chunks[-1]) < per_block else [])
        legs += [take(start, len(gates), c) + (False, False, True) for c in chunks]
        last = stop == len(gates)
        legs.append(take(start, stop, carrier) + (False, not last, last))
        if not last and len(carrier) > 1:  # the carrier goes on to the end
            legs.append(take(stop, len(gates), carrier) + (True, False, True))
    return legs, groups[len(gates)]


# A training problem keeps the compiled walks of at most this many weight
# stack patterns, dropping the oldest first.
_PLANS_KEPT = 8


class _Problem:
    """One model, dataset and loss kind, validated, encoded and read out once.

    Holds the encoded rows ``psi``, the workspace that their encode and
    every later walk write into, sized first for the largest block, the
    compiled walks of the weight stacks (``plans``, see ``_plan``), the
    targets and the head's readout.  With ``pairs``, complex ``psi`` under
    a variational circuit with no phase gate, every walk runs on the
    float64 (re, im) pairs of ``psi`` (``_compile_block``), bit for bit the
    complex walk.  One-shot walks keep the circuit's dtype: after its last
    phase gate one may take an angle per data row, which does not broadcast
    over pairs, while a weight angle does.
    """

    def __init__(self, model: QnnModel, dataset, kind: str):
        if len(dataset) == 0:
            raise UsageError("dataset is empty")
        if kind not in LOSS_KINDS:
            raise UsageError(f"unknown loss kind {kind!r}; expected one of {LOSS_KINDS}")
        head, data = (
            (REGRESSION, "regression") if kind == SQUARED_ERROR else (PARITY, "classification")
        )
        if model.head != head or dataset.kind != data:
            raise UsageError(f"{kind} needs a {head}-head model and a {data} dataset")
        X, self.targets = dataset.features_array(), dataset.targets_array()
        finite = np.isfinite(X).all(axis=1) & np.isfinite(self.targets)
        if not finite.all():
            raise UsageError(
                f"dataset row {int(np.argmin(finite))} has a non-finite feature or target"
            )
        self.model, self.kind = model, kind
        self.shift_checked = False  # set by ``optim`` once the shift rule's precondition holds
        # The data rows of a block, and the weight rows it holds over them.
        dtype, dim = _walk_dtype(float, model.circuit.gates), 1 << model.n_qubits
        self.blocks = _blocks(len(X), dtype.itemsize * dim)
        rows = min(len(X), self.blocks[0].stop)
        self.stack = max(1, _BLOCK_BYTES // (dtype.itemsize * dim * rows))
        # The largest block, (2**n, stack, rows of block 0), as a view of no data.
        self.work = _Workspace(np.broadcast_to(np.empty((), dtype), (dim, self.stack, rows)))
        self.plans: dict = {}
        self.psi = _encode(model, X, self.work)
        self.pairs = self.psi.dtype != _walk_dtype(float, model.variational.gates)
        signs = parity_signs(model.n_qubits)
        self.readout = signs if kind == SQUARED_ERROR else np.where(signs > 0, 1.0, 0.0)
        # A readout of |0...0>'s +1 and at most one more +-1 is that square, or the
        # sum or difference of the two: every other term of ``probs @ readout`` is
        # an exact +0, in any order of summation.
        terms = np.flatnonzero(self.readout)
        fast = len(terms) <= 2 and set(self.readout[terms].tolist()) <= {1.0, -1.0}
        self.terms = terms.tolist() if fast else None
        self.combine = np.add if self.readout[terms[-1]] > 0 else np.subtract
        # P(label) = P(class 0) * sign + offset: 1 - P for label 1, P + 0 for label 0.
        label_one = self.targets == 1
        self.flip = (np.where(label_one, -1.0, 1.0), np.where(label_one, 1.0, 0.0))
        # Each weight-dependent angle's weights, and its column of the angle table
        # (``_angles``): its weight's own, or one after the weights for an expression.
        self.depends = [sorted(_collect_indices(g.angle, Weight)) if g.angle else []
                        for g in model.variational.gates]
        self.exprs = [g.angle for g, d in zip(model.variational.gates, self.depends)
                      if d and not isinstance(g.angle, Weight)]
        extra = iter(range(model.n_weights, model.n_weights + len(self.exprs)))
        self.columns = [None if not d else g.angle.index if isinstance(g.angle, Weight)
                        else next(extra) for g, d in zip(model.variational.gates, self.depends)]

    def fitted(self, weights) -> np.ndarray:
        """Fitted values of every row under each row of the ``(B, m)`` ``weights``: ``(B, N)``.

        A block holds whole weight rows over all data rows while one weight
        row's states fit in ``_BLOCK_BYTES``, and otherwise one weight row
        over as many data rows as fit.  The weight rows walk the variational
        circuit from those rows of ``psi`` in the legs of ``_legs``: each row
        from where its angles leave row 0's, from a copy of row 0's state
        there in the workspace's snapshot block.  Every walk does, gate for
        gate, the arithmetic of the row's own one-row walk, so each value is
        bit for bit that of the row walked alone.

        The legs are compiled once per stack pattern (``_plan``); an
        evaluation gathers its angles into the plan and runs its steps.  A
        fitted value is y' for squared error and P(label) for cross-entropy,
        turned from P(class 0) in place.
        """
        W = np.ascontiguousarray(weights, dtype=float)
        index, angles, legs, same = self._plan(W)
        np.take(self._angles(W), index, out=angles)
        fitted = np.empty((len(W), self.psi.shape[1]))
        for steps, snap, read in legs:
            _run(steps)
            if snap:
                np.copyto(*snap)
            if read:
                self._read(read, fitted)
        if len(same) > 1:  # row 0 itself and the rows equal to it
            fitted[same] = fitted[0]
        if self.kind == CROSS_ENTROPY:
            # Unmasked and in place; a P(class 0) is a sum of squares, never
            # -0, so adding 0 keeps every bit.
            fitted *= self.flip[0]
            fitted += self.flip[1]
        return fitted

    def _angles(self, W: np.ndarray) -> np.ndarray:
        """The angle table of ``W``: its weight columns, then one column per expression angle."""
        if not self.exprs:
            return W
        return np.column_stack([W] + [evaluate(e, (), W) for e in self.exprs])

    def _plan(self, W: np.ndarray) -> tuple:
        """The compiled walk of weight stacks that leave row 0 where ``W`` does.

        Returns ``(index, angles, legs, same)``: the angle table's flat
        entries that each evaluation gathers into ``angles``, whose views
        the steps take as angles, the legs of every block as ``(steps,
        snap, read)`` over fixed views, and the rows equal to row 0 (see
        ``_legs``).  The key is the stack's shape and which weights of each
        row have other bits than row 0's, so that one plan serves every
        gradient, every SPSA step and every single loss.  ``bind`` checks
        the stack's arity when the plan is built, and the kernels check
        their views.
        """
        bits = W.view(np.uint64)
        differ = bits != bits[:1]
        key = (W.shape, differ.tobytes())
        plan = self.plans.get(key)
        if plan is not None:
            return plan
        gates = bind(self.model.variational, (), W)
        differs = np.zeros((len(W), len(gates)), bool)
        for k, depends in enumerate(self.depends):
            if depends:
                differs[:, k] = differ[:, depends].any(axis=1)
        legs, same = _legs(gates, differs, self.stack)
        width, index, thetas = W.shape[1] + len(self.exprs), [], []
        for lo, hi, _, picks, *_ in legs:  # each gate's fixed angle, or its slice of angles
            thetas.append([])
            for k, rows in zip(range(lo, hi), picks):
                at = len(index)
                index += [b * width + self.columns[k] for b in rows or ()]
                thetas[-1].append(gates[k].angle if rows is None else slice(at, len(index)))
        angles = np.empty(len(index))
        thetas = [[angles[t].reshape(-1, 1) if isinstance(t, slice) else t for t in leg]
                  for leg in thetas]
        compiled = [step for rows in self.blocks
                    for step in self._compile_block(gates, legs, thetas, rows)]
        if len(self.plans) >= _PLANS_KEPT:
            del self.plans[next(iter(self.plans))]
        plan = self.plans[key] = (np.array(index, np.intp), angles, compiled, same)
        return plan

    def _compile_block(self, gates, legs, thetas, rows: slice) -> list:
        """The legs of the data ``rows`` as ``(steps, snap, read)`` (see ``_plan``).

        With ``pairs``, the legs walk ``psi.view(float)``, where data row ``i``
        is columns ``2i`` (re) and ``2i + 1`` (im).  A weight angle, ``(B, 1)``,
        broadcasts over both.  numpy multiplies a real angle into a complex
        amplitude as ``(c + 0i)(a + bi)``, whose parts are ``ca`` and ``cb``
        plus an exact +-0, so every amplitude equals the complex walk's; only
        the sign of a zero may differ, and ``|+-0|**2`` is +0.
        """
        dim, compiled = self.psi.shape[0], []
        if self.pairs:
            state = self.psi.view(float)[:, None, 2 * rows.start : 2 * rows.stop]
        else:
            state = self.psi[:, None, rows]
        for (lo, hi, which, _, on, snap, read), leg_thetas in zip(legs, thetas):
            if not on:
                amps = np.broadcast_to(state, (dim, len(which)) + state.shape[2:])
            steps, amps = _compile(gates[lo:hi], leg_thetas, amps, self.work, views=True)
            if snap:
                state = self.work.snapshot(amps[:, :1])
                snap = (state, amps[:, :1])
            compiled.append((steps, snap, self._reader(amps, which, rows) if read else None))
        return compiled

    def _reader(self, amps: np.ndarray, which: list, rows: slice) -> tuple:
        """``(squares, terms, which, rows)``: how ``_read`` reads ``amps`` out.

        The squares go into the spare walk buffer, from each ``(amplitudes,
        square)`` of ``terms``: all of them as one, amplitude-last, for the
        readout's product, or only the readout's terms, as whole planes.
        (re, im) pairs are read as the complex amplitudes they hold, so
        ``_square`` takes ``np.abs`` first, as for a prediction.
        """
        spare = self.work.spare(amps)
        if self.pairs:
            amps = amps.view(self.psi.dtype)
        if which == list(range(which[0], which[-1] + 1)):
            which = slice(which[0], which[-1] + 1)
        if self.terms is None:
            squares = _as(spare, amps.shape[1:] + amps.shape[:1], float)
            return squares, [(amps, squares.transpose(2, 0, 1))], which, rows
        squares = _as(spare, (len(self.terms),) + amps.shape[1:], float)
        return squares, [(amps[i], square) for i, square in zip(self.terms, squares)], which, rows

    def _read(self, read: tuple, fitted: np.ndarray) -> None:
        """Square the walked amplitudes and read them out into ``fitted[which, rows]``."""
        squares, terms, which, rows = read
        for a, square in terms:
            _square(a, square)
        if self.terms is None:
            fitted[which, rows] = squares @ self.readout
            return
        if len(terms) == 2:
            self.combine(squares[0], squares[1], out=squares[0])
        fitted[which, rows] = squares[0]


def _loss(fitted: np.ndarray, targets: np.ndarray, kind: str) -> np.ndarray:
    """Per-row loss of ``fitted`` (any shape broadcasting to ``targets``).

    ``squared_error``: (y' - t)^2.  ``cross_entropy``: -ln P(label) with P
    clamped at ``PROB_EPS``.
    """
    if kind == SQUARED_ERROR:
        return (fitted - targets) ** 2
    return -np.log(np.maximum(fitted, PROB_EPS))


def _slope(fitted: np.ndarray, targets: np.ndarray, kind: str) -> np.ndarray:
    """The slope of ``_loss`` in ``fitted``: 2 (y' - t), or -1/P, 0 below the clamp where the
    loss is flat."""
    if kind == SQUARED_ERROR:
        return 2.0 * (fitted - targets)
    return np.where(fitted < PROB_EPS, 0.0, -1.0 / np.maximum(fitted, PROB_EPS))


def batch_losses(model: QnnModel, W, dataset, kind: str, *, _problem=None) -> np.ndarray:
    """``batch_loss`` at each row of the ``(B, m)`` weight stack ``W``: shape ``(B,)``.

    The stack walks in groups of as many weight rows as one block holds
    (``_Problem.fitted``), so that its fitted values take no more memory
    than one block's walk: at 8000 rows each weight row walks alone, as a
    single loss does.  Each loss is bit for bit that of its row alone.
    Refuses any shape but a stack of rows of the model's width, or a
    non-finite weight, first.  ``_problem`` is the caller's ``_Problem``
    for these arguments; without it one is built for this call.
    """
    W = _weight_rows(W, model, ndim=2)
    if _problem is None:
        _problem = _Problem(model, dataset, kind)
    return np.array([
        np.mean(_loss(f, _problem.targets, kind))
        for i in range(0, len(W), _problem.stack)
        for f in _problem.fitted(W[i : i + _problem.stack])
    ])


def batch_loss(model: QnnModel, w, dataset, kind: str, *, _problem=None) -> float:
    """Arithmetic mean of per-sample losses over a dataset (see ``_loss``).

    The one-row case of ``batch_losses``.  Refuses any shape but one row
    of the model's width, or a non-finite weight, first.
    """
    W = _weight_rows(w, model)[None]
    return float(batch_losses(model, W, dataset, kind, _problem=_problem)[0])


def decide(p0, p1):
    """The hard decision rule on probabilities or arrays of them: tie -> class 0."""
    return np.int_(np.asarray(p1) > p0)


def accuracy(model: QnnModel, w, dataset) -> float:
    """Fraction of dataset samples whose predicted class matches the label."""
    if len(dataset) == 0:
        raise UsageError("dataset is empty")
    if model.head != PARITY or dataset.kind != "classification":
        raise UsageError("accuracy needs a parity-head model and labeled classes")
    probs = predict_probs(model, dataset.features_array(), w)
    predicted = decide(probs[:, 0], probs[:, 1])
    return float(np.mean(predicted == dataset.targets_array()))


def gate_summary(model: QnnModel) -> dict:
    """Feature-map / variational / total gate counts."""
    fm, var = len(model.feature_map.gates), len(model.variational.gates)
    return {"feature_map": fm, "variational": var, "total": fm + var}

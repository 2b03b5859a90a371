"""Dense statevector simulation for small qubit registers.

Amplitude ordering is little-endian: qubit ``q`` owns bit ``q`` of the
amplitude index, so for two qubits the basis order is
``|00>, |01>, |10>, |11>`` with the *right* bit belonging to qubit 0.
Basis label ``|q1 q0>`` therefore reads right-to-left.

Two layers over one dispatch:

* ``kernel_*`` functions operate on raw real or complex arrays of shape
  ``(2**n, *batch)``: the amplitude axis first, batch axes trailing, and
  an angle shaped like the batch, broadcasting to it (such as one angle
  per leading batch row) or a scalar, so a batch of states is
  transformed in one vectorized call.  Each writes a C-ordered output,
  fresh or the caller's ``out``, so the two halves of every qubit's pair
  are whole slabs.  H and RY work through the halves one cache-sized
  tile at a time (``_KERNEL_TILE_BYTES``), each tile with the same
  ufuncs in the same order, so tiling changes no bit of any amplitude;
  ``kernel_ry`` also takes a ``scratch`` of one tile for its second
  product and two planes of the batch's shape, into which it copies the
  cos and sin of an angle given per leading batch row.  ``kernel_cnot``
  takes one CNOT or a run of them and moves whole chunks of amplitudes
  in one gather, through two source tables of at most 2^12 entries each
  (``_gather_tables``), at about the same speed at every bit position.
  H, RY and CNOT keep a real input real; ``kernel_phase`` promotes its
  output to complex.  These are the hot path for training.
* ``StateVector`` plus ``zero_state`` / ``apply_single`` / ``apply_cnot``
  / ``probabilities`` wrap the kernels in a validated value type for
  single-state work.

Kernels take bit positions, not logical qubits: the circuit walk in
``qnn`` owns the layout and may rotate a wide register's bit order.

``_apply`` is the one place that maps a gate name (``h``, ``phase``,
``ry``, ``cnot``) to its kernel; the value-type API and the circuit
walk in ``qnn`` both go through it.  Each kernel first builds and checks
the views it works on (its output, the pair halves of each tile, RY's
scratch and planes, a CNOT run's reshaped input and output and source
tables) with a private ``_*_views`` function; ``_views`` builds them
for a gate name, and a kernel given them through its private ``_views``
argument skips that step.  A walk compiled once and run many times
(``qnn._Problem``) hands each kernel the views it built at compile
time, so a call runs only the kernel's ufuncs, the same ones in the same
order as a call that builds its own.

All operations are pure unless given ``out`` (or ``scratch``), which must
not overlap the input; nothing mutates its input.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import ConfigurationError, UsageError, _checked_integer

MAX_QUBITS = 20

_SQRT_HALF = 1.0 / np.sqrt(2.0)

# RY and H work through the pair halves in tiles of at most this many
# bytes of each half (or one amplitude's batch, if that is larger), so
# that a tile's outputs are still in cache when the next ufunc reads them
# (cache blocking, as in Doi and Horii, IEEE QCE 2020).  At 2^20 float64
# on 2 vCPU, RY fell from 1.5-1.7 ms to 0.94-1.23 ms, and H from 1.1 to
# 0.94-1.05 ms; 64 KB tiles were slower.  Distinct from ``qnn._TILE_BYTES``,
# the tile of a rotation's copy.
_KERNEL_TILE_BYTES = 1 << 17


def _checked_qubits(n_qubits: int) -> int:
    """``n_qubits``, refused unless an integer in 1..``MAX_QUBITS``."""
    _checked_integer(n_qubits, "n_qubits", ConfigurationError)
    if not 1 <= n_qubits <= MAX_QUBITS:
        raise ConfigurationError(f"n_qubits must be between 1 and {MAX_QUBITS}, got {n_qubits}")
    return n_qubits


def _qubit_count(dim: int) -> int:
    n = dim.bit_length() - 1
    if dim <= 0 or 1 << n != dim:
        raise UsageError(f"amplitude axis has length {dim}, not a power of two")
    return n


def _split(amps: np.ndarray, qubit: int) -> np.ndarray:
    """View ``(2**n, *batch)`` as ``(pre, 2, post, *batch)``, ``qubit`` in the middle."""
    n = _qubit_count(amps.shape[0])
    _checked_integer(qubit, "qubit")
    if not 0 <= qubit < n:
        raise UsageError(f"qubit {qubit} out of range for {n}-qubit state")
    pre, post = 1 << (n - 1 - qubit), 1 << qubit
    return amps.reshape((pre, 2, post) + amps.shape[1:])


def _target(amps: np.ndarray, given, shape: tuple, dtype, name: str) -> np.ndarray:
    """``given``, checked to be a C-ordered ``dtype`` array of ``shape`` apart from ``amps``.

    Without ``given``, a fresh one.
    """
    if given is None:
        return np.empty(shape, dtype)
    if given.shape != shape or given.dtype != dtype or not given.flags.c_contiguous:
        raise UsageError(
            f"{name} must be a C-ordered {np.dtype(dtype)} array of shape {shape}, "
            f"got {given.dtype} of shape {given.shape}"
        )
    if not given.flags.writeable or np.may_share_memory(given, amps):
        raise UsageError(f"{name} must be writeable and must not overlap the input")
    return given


def _tile_amplitudes(amps: np.ndarray) -> int:
    """The amplitude indices in one tile of the pair halves of ``amps``, ``(2**n, *batch)``.

    All ``2**(n-1)`` of a half if it fits in ``_KERNEL_TILE_BYTES``, else
    the largest power of two of them whose batch rows do, at least 1.
    """
    if amps.nbytes <= 2 * _KERNEL_TILE_BYTES:
        return amps.shape[0] // 2
    row = amps.nbytes // amps.shape[0]
    return 1 << max(0, (_KERNEL_TILE_BYTES // row).bit_length() - 1)


def _tiles(a: np.ndarray, o: np.ndarray, k: int) -> tuple[tuple, ...]:
    """``(v0, v1, o0, o1)``, the pair halves of ``a`` and ``o``, for each tile of ``k`` amplitudes.

    ``a`` and ``o`` are ``(pre, 2, post, *batch)`` views.  A tile takes
    ``k`` of ``post`` when ``post`` is longer, else ``k // post`` rows of
    ``pre``; the batch axes stay whole.  One tile, the halves themselves,
    is tested first: every block of at most 256 KB (``qnn._BLOCK_BYTES``)
    is one tile.
    """
    if k == a.shape[0] * a.shape[2]:
        return ((a[:, 0], a[:, 1], o[:, 0], o[:, 1]),)
    pre, _, post = a.shape[:3]
    rows, cols = max(1, k // post), min(k, post)
    return tuple(
        (a[i : i + rows, 0, j : j + cols], a[i : i + rows, 1, j : j + cols],
         o[i : i + rows, 0, j : j + cols], o[i : i + rows, 1, j : j + cols])
        for i in range(0, pre, rows)
        for j in range(0, post, cols)
    )


def _h_views(amps: np.ndarray, qubit: int, out) -> tuple:
    """``(result, tiles)``: ``kernel_h``'s output and the pair halves of each tile (``_tiles``)."""
    a = _split(amps, qubit)
    result = _target(amps, out, amps.shape, amps.dtype, "out")
    return result, _tiles(a, result.reshape(a.shape), _tile_amplitudes(amps))


def kernel_h(amps: np.ndarray, qubit: int, out=None, _views=None) -> np.ndarray:
    """Hadamard on ``qubit``, one tile of the pair halves at a time."""
    result, tiles = _views or _h_views(amps, qubit, out)
    for v0, v1, o0, o1 in tiles:
        np.add(v0, v1, out=o0)
        np.multiply(o0, _SQRT_HALF, out=o0)
        np.subtract(v0, v1, out=o1)
        np.multiply(o1, _SQRT_HALF, out=o1)
    return result


def _phase_views(amps: np.ndarray, qubit: int, out) -> tuple:
    """``(result, a0, a1, o0, o1)``: ``kernel_phase``'s output, and the pair halves of its
    input and output."""
    a = _split(amps, qubit)
    result = _target(amps, out, amps.shape, complex, "out")
    o = result.reshape(a.shape)
    return result, a[:, 0], a[:, 1], o[:, 0], o[:, 1]


def kernel_phase(amps: np.ndarray, theta, qubit: int, out=None, _views=None) -> np.ndarray:
    """Phase gate diag(1, e^{i*theta}) on ``qubit``; the output is complex."""
    result, a0, a1, o0, o1 = _views or _phase_views(amps, qubit, out)
    o0[...] = a0
    # Broadcast before the multiply: a one-element product that the ufunc must
    # broadcast itself skips numpy's SIMD loop and rounds 1 ulp apart.
    phase = np.broadcast_to(np.exp(1j * np.asarray(theta, dtype=float)), o1.shape)
    np.multiply(a1, phase, out=o1)
    return result


def _ry_views(amps: np.ndarray, qubit: int, out, scratch) -> tuple:
    """``(result, tiles, tmp, planes)`` of ``kernel_ry``: its output, the pair halves of
    each tile (``_tiles``), the second product's scratch shaped like a tile's half, and
    the cos and sin planes."""
    a = _split(amps, qubit)
    result = _target(amps, out, amps.shape, amps.dtype, "out")
    k = _tile_amplitudes(amps)
    tiles = _tiles(a, result.reshape(a.shape), k)
    tmp = _target(amps, scratch, (k + 2,) + amps.shape[1:], amps.dtype, "scratch")
    if scratch is not None and np.may_share_memory(tmp, result):
        raise UsageError("scratch must not overlap out")
    return result, tiles, tmp[:k].reshape(tiles[0][1].shape), (tmp[k], tmp[k + 1])


def kernel_ry(amps: np.ndarray, theta, qubit: int, out=None, scratch=None,
              _views=None) -> np.ndarray:
    """RY rotation [[cos t/2, -sin t/2], [sin t/2, cos t/2]] on ``qubit``.

    Works one tile of the pair halves at a time (see ``_KERNEL_TILE_BYTES``).
    ``scratch``, ``(k + 2, *batch)``, holds a tile's second product in its
    first ``k`` rows, one per amplitude of a tile (``_tile_amplitudes``);
    without it one is allocated.  ``k`` is ``2**(n-1)`` when half the
    state fits in a tile.

    ``theta`` is a scalar or broadcasts to the batch, such as one angle
    per leading batch row, ``(B, 1)`` over ``(2**n, B, rows)``.  numpy
    multiplies by such an angle, broadcast along a trailing axis, far more
    slowly than by a whole plane, so its cos and sin are first copied into
    the last two rows of ``scratch``, two planes of the amplitude dtype
    shaped like the batch.  Every product is the same, bit for bit.  A
    scalar, one-element or batch-shaped angle is used as it is.
    """
    result, tiles, tmp, planes = _views or _ry_views(amps, qubit, out, scratch)
    half = np.asarray(theta, dtype=float) / 2.0
    c, s = np.cos(half), np.sin(half)
    if half.size > 1 and half.shape != amps.shape[1:]:
        np.copyto(planes[0], c)
        np.copyto(planes[1], s)
        c, s = planes
    for v0, v1, o0, o1 in tiles:
        np.multiply(s, v1, out=tmp)
        np.subtract(np.multiply(c, v0, out=o0), tmp, out=o0)
        np.add(np.multiply(s, v0, out=o1), np.multiply(c, v1, out=tmp), out=o1)
    return result


# A run of CNOTs gathers chunks of amplitudes through two source tables of
# at most 2**_TABLE_BITS entries each (see ``_gather_tables``); at most
# ``_TABLES_CACHED`` runs keep theirs.
_TABLE_BITS = 12
_TABLES_CACHED = 64


@functools.lru_cache(maxsize=_TABLES_CACHED)
def _gather_tables(pairs: tuple[tuple[int, int], ...]) -> tuple[int, int, np.ndarray, np.ndarray]:
    """``(low, high, hi, lo)`` for the CNOT ``(control, target)`` ``pairs``, applied in order.

    ``low`` and ``high`` are the lowest and highest bit positions of the
    run, and no other position moves.  On the ``span`` = ``high - low + 1``
    bits between them, the run moves chunk ``j`` of the output from chunk
    ``hi[j >> k] ^ lo[j & (2**k - 1)]`` of the input, ``k`` =
    ``min(span, _TABLE_BITS)``.  Each CNOT maps a basis index linearly over
    GF(2), so the source of ``j`` is the XOR of the sources of its upper and
    lower bits; each table is that source map, the run's CNOTs applied last
    to first, on the indices of one part.
    """
    low, high = min(min(pair) for pair in pairs), max(max(pair) for pair in pairs)
    span = high - low + 1
    k = min(span, _TABLE_BITS)
    tables = (np.arange(1 << (span - k)) << k, np.arange(1 << k))
    for index in tables:
        for control, target in reversed(pairs):
            index ^= ((index >> (control - low)) & 1) << (target - low)
        index.flags.writeable = False
    return (low, high) + tables


def _cnot_views(amps: np.ndarray, control, target, out) -> tuple:
    """``(result, a, o, hi, lo)`` of ``kernel_cnot``: its output, input and output as
    ``(pre, 2**span chunks, 2**low amplitudes and their batch per chunk)``, and the run's
    source tables (``_gather_tables``)."""
    n = _qubit_count(amps.shape[0])
    if isinstance(control, (tuple, list)):
        if not (isinstance(target, (tuple, list)) and 0 < len(control) == len(target)):
            raise UsageError(
                f"a cnot run needs one target per control, got {control} and {target}"
            )
        pairs = tuple(zip(control, target))
    else:
        pairs = ((control, target),)
    for c, t in pairs:
        _checked_integer(c, "control qubit")
        _checked_integer(t, "target qubit")
        if not 0 <= c < n:
            raise UsageError(f"control qubit {c} out of range for {n}-qubit state")
        if not 0 <= t < n:
            raise UsageError(f"target qubit {t} out of range for {n}-qubit state")
        if c == t:
            raise UsageError(f"cnot control and target must differ (both {c})")
    low, high, hi, lo = _gather_tables(pairs)
    result = _target(amps, out, amps.shape, amps.dtype, "out")
    shape = (1 << (n - 1 - high), 1 << (high - low + 1), (amps.size >> n) << low)
    return result, amps.reshape(shape), result.reshape(shape), hi, lo


def kernel_cnot(amps: np.ndarray, control: int, target: int, out=None,
                _views=None) -> np.ndarray:
    """CNOT: flip ``target`` on the amplitudes whose ``control`` bit is 1.

    ``control`` and ``target`` may also be tuples or lists of equal length,
    a run of CNOTs applied in order.  Bit positions below the run's lowest
    and above its highest do not move, so the run is one gather of whole
    chunks of ``2**low`` amplitudes through two small source tables
    (``_gather_tables``), at about the same speed at every position.
    """
    result, a, o, hi, lo = _views or _cnot_views(amps, control, target, out)
    # mode="raise" would gather into a buffered copy of ``out``, one more
    # pass; every table entry is in range.
    if len(hi) == 1:
        a.take(lo, axis=1, out=o, mode="clip")
        return result
    for h, base in enumerate(hi):  # a C-ordered ``out`` for each row of ``pre``
        index, rows = lo ^ base, slice(h * len(lo), (h + 1) * len(lo))
        for a_row, o_row in zip(a, o):
            a_row.take(index, axis=0, out=o_row[rows], mode="clip")
    return result


def _views(amps: np.ndarray, name: str, qubits: tuple, out, scratch=None):
    """The views that ``_apply`` hands the kernel of ``name`` for ``amps`` and ``out``.

    The kernel checks its qubits, ``out`` and ``scratch`` as it builds
    them.  ``None`` for a CNOT whose input is not C-ordered: its reshape is
    a copy, which the kernel must make at each call.
    """
    if name == "h":
        return _h_views(amps, qubits[0], out)
    if name == "phase":
        return _phase_views(amps, qubits[0], out)
    if name == "ry":
        return _ry_views(amps, qubits[0], out, scratch)
    if name == "cnot":
        views = _cnot_views(amps, qubits[0], qubits[1], out)
        return views if np.may_share_memory(views[1], amps) else None
    raise UsageError(f"unknown gate {name!r}")


def _apply(amps: np.ndarray, name: str, qubits: tuple[int, ...], angle=None,
           out=None, scratch=None, views=None) -> np.ndarray:
    """Apply the gate called ``name`` to ``qubits`` of ``amps``, into ``out`` if given.

    A ``cnot``'s ``qubits`` may be ``(controls, targets)``, a run of CNOTs
    (see ``kernel_cnot``).  ``scratch`` is RY's (see ``kernel_ry``);
    the other gates ignore it.  ``views``, from ``_views`` for the same
    arguments, spares the kernel building them.
    """
    if name == "h":
        return kernel_h(amps, qubits[0], out, _views=views)
    if name == "phase":
        return kernel_phase(amps, angle, qubits[0], out, _views=views)
    if name == "ry":
        return kernel_ry(amps, angle, qubits[0], out, scratch, _views=views)
    if name == "cnot":
        return kernel_cnot(amps, qubits[0], qubits[1], out, _views=views)
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
        _checked_qubits(self.n_qubits)
        amps = np.array(self.amps, dtype=complex)
        if amps.shape != (1 << self.n_qubits,):
            raise UsageError(
                f"expected {1 << self.n_qubits} amplitudes for "
                f"{self.n_qubits} qubits, got shape {amps.shape}"
            )
        norm = float(np.vdot(amps, amps).real)  # no state-sized temporary
        if not abs(norm - 1.0) <= 1e-12:  # a nan norm fails too
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
    amps = np.zeros(1 << _checked_qubits(n_qubits), dtype=complex)
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

"""Three minimizers behind one contract, plus the parameter-shift gradient.

Each optimizer runs one fixed schedule, set by the constants below;
only ``kind``, ``max_iters`` and ``seed`` vary between runs.

* ``cobyla`` — Powell's derivative-free linear-approximation trust
  region method (via scipy, imported on first use), trust radius
  shrinking from ``RHO_BEGIN`` to ``RHO_END``.  May stop before
  ``max_iters``; the loss trace then simply ends early (nothing is
  padded).
* ``spsa`` — simultaneous perturbation stochastic approximation with
  the standard gain schedules a_k = a/(k+1+A)^0.602 and
  c_k = c/(k+1)^0.101 and Rademacher +-1 perturbations from a seeded
  generator.  The numerator ``a`` is calibrated from the objective
  itself: the mean magnitude of ``SPSA_CALIBRATION_SAMPLES``
  perturbation-pair slopes at w0 sets ``a`` so the expected first step
  is about ``SPSA_TARGET_STEP``.
* ``aqgd`` — gradient descent, step ``LEARNING_RATE``, on the shift-rule
  gradient, whose loss slopes come from ``qnn._slope``.

``make_objective`` builds one ``qnn._Problem`` per objective: the model,
dataset and loss validated once, the ``(2**n, N)`` encoded states, the
one workspace that the encode and every later walk write into, the
targets and the head's readout.
It hands that problem to ``qnn.batch_loss``, ``qnn.batch_losses`` and
``parameter_shift_gradient`` through their private keyword ``_problem``;
without it each builds one for that call alone.  A gradient's 2m+1
evaluations run as one batched walk (``qnn``), whose base row ``w`` also
gives the loss at ``w`` (``Objective.value_and_grad``).  SPSA hands its
20 calibration pairs to ``Objective.values`` as one 40-row stack, and
each step's iterate and two probes as one 3-row stack; each row is
counted and checked in the order of one evaluation at a time.

Every run returns a ``TrainTrace``: one incumbent loss per iteration
(COBYLA: best-so-far at each trust-region step; SPSA/AQGD: loss at the
updated weights), the final weights, the loss at those weights, and the
number of evaluations, each one weight row walked over the dataset.
COBYLA's final loss is scipy's ``result.fun``, which may undercut the
last recorded incumbent: evaluations after the last trust-region step
can still improve the best point.  An AQGD step takes the loss at
``w_{k+1}`` from the base row of the gradient at ``w_{k+1}``, so a run
of K steps costs (2m+1)·K evaluations for its K gradients plus one plain
loss at the last iterate.  A run of K SPSA steps costs 40 + 3K: the
calibration rows, two probes and one iterate per step.

A non-finite objective value aborts the run immediately with the
offending weights attached to the exception (``_checked_loss``).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import qnn
from .circuit import Weight, _collect_indices
from .errors import (
    ConfigurationError,
    NonFiniteLossError,
    UnsupportedModelError,
    UsageError,
    _checked_integer,
    _checked_seed,
)

COBYLA = "cobyla"
SPSA = "spsa"
AQGD = "aqgd"
OPTIMIZER_NAMES = (COBYLA, SPSA, AQGD)

# aqgd
LEARNING_RATE = 0.4
# spsa (Spall 1998)
SPSA_C = 0.1
SPSA_STABILITY = 10.0
SPSA_ALPHA = 0.602
SPSA_GAMMA = 0.101
SPSA_CALIBRATION_SAMPLES = 20
SPSA_TARGET_STEP = 2.0 * math.pi / 10.0
# cobyla (Powell 1994)
RHO_BEGIN = 1.0
RHO_END = 1e-4


@dataclass(frozen=True)
class Objective:
    """A deterministic scalar function of an m-vector, optionally with gradient.

    ``value_and_grad(w)`` returns ``(fun(w), gradient at w)`` from one
    evaluation, as the parameter-shift gradient's base row gives both.
    ``values(W)`` returns ``fun`` at each row of a ``(B, m)`` stack, bit
    for bit, from one evaluation; without it a stack runs row by row.
    """

    fun: Callable[[np.ndarray], float]
    dim: int
    value_and_grad: Callable[[np.ndarray], tuple[float, np.ndarray]] | None = None
    values: Callable[[np.ndarray], np.ndarray] | None = None


@dataclass(frozen=True)
class OptimizerConfig:
    """Which optimizer to run, for how many iterations, from which seed."""

    kind: str
    max_iters: int = 100
    seed: int = 0

    def __post_init__(self):
        if self.kind not in OPTIMIZER_NAMES:
            raise UsageError(
                f"unknown optimizer {self.kind!r}; expected one of {OPTIMIZER_NAMES}"
            )
        if not isinstance(self.max_iters, numbers.Integral) or self.max_iters < 1:
            raise ConfigurationError(f"max_iters must be an integer >= 1, got {self.max_iters}")
        _checked_seed(self.seed)


@dataclass(frozen=True, eq=False)
class TrainTrace:
    losses: np.ndarray
    final_weights: np.ndarray
    evaluations: int
    final_loss: float  # the objective at ``final_weights``, bit for bit

    @property
    def iterations(self) -> int:
        return len(self.losses)


def _checked_loss(value, w: np.ndarray) -> float:
    """``value`` as a float; a non-finite one raises, naming the weights ``w`` it is the loss of."""
    value = float(value)
    if not math.isfinite(value):
        raise NonFiniteLossError(value, np.asarray(w, dtype=float).copy())
    return value


class _Counted:
    """Wrap an objective: count evaluated rows, track the best value, refuse non-finite ones."""

    def __init__(self, fun, values=None):
        self._fun, self._values = fun, values
        self.calls = 0
        self.best = math.inf

    def __call__(self, w: np.ndarray) -> float:
        return self._count(self._fun(w), w)

    def rows(self, W: np.ndarray) -> list[float]:
        """``fun`` at each row of ``W``, counted and checked in row order.

        One call of the stacked ``values`` if the objective has it, and
        otherwise one call of ``fun`` per row, each checked before the next.
        """
        if self._values is None:
            return [self(w) for w in W]
        return [self._count(value, w) for value, w in zip(self._values(W), W)]

    def _count(self, value, w: np.ndarray) -> float:
        self.calls += 1
        value = _checked_loss(value, w)
        self.best = min(self.best, value)
        return value


def initial_weights(n_weights: int, seed: int) -> np.ndarray:
    """Seeded uniform draw on [-pi, pi]."""
    if _checked_integer(n_weights, "n_weights") < 0:
        raise UsageError(f"n_weights must be non-negative, got {n_weights}")
    return np.random.default_rng(_checked_seed(seed)).uniform(-math.pi, math.pi, n_weights)


def minimize(objective: Objective, w0, config: OptimizerConfig) -> TrainTrace:
    """Run the configured optimizer for up to ``config.max_iters`` iterations."""
    w0 = np.asarray(w0, dtype=float).copy()
    if w0.shape != (objective.dim,):
        raise UsageError(
            f"objective has dimension {objective.dim}, got w0 of shape {w0.shape}"
        )
    fun = _Counted(objective.fun, objective.values)
    if config.kind == COBYLA:
        return _minimize_cobyla(fun, w0, config)
    if config.kind == SPSA:
        return _minimize_spsa(fun, w0, config)
    return _minimize_aqgd(objective, fun, w0, config)


def _minimize_cobyla(fun: _Counted, w0: np.ndarray, config: OptimizerConfig) -> TrainTrace:
    """COBYLA with an evaluation budget of ``max(max_iters, dim + 2)``.

    Below ``dim + 2`` COBYLA cannot finish its first simplex, so
    ``evaluations`` may exceed ``max_iters``; the trace never does.  A
    run that ends before its first trust-region step records the best
    value of its simplex.
    """
    from scipy.optimize import minimize as scipy_minimize

    # Each trust-region step reports COBYLA's best point so far; its value
    # is the running minimum that ``fun`` already holds.
    incumbents: list[float] = []
    result = scipy_minimize(
        fun,
        w0,
        method="COBYLA",
        callback=lambda xk: incumbents.append(fun.best),
        options={
            "rhobeg": RHO_BEGIN,
            "tol": RHO_END,
            "maxiter": max(config.max_iters, len(w0) + 2),
        },
    )
    losses = np.array((incumbents or [fun.best])[: config.max_iters])
    return TrainTrace(losses, np.asarray(result.x, dtype=float), fun.calls, float(result.fun))


def _minimize_spsa(fun: _Counted, w0: np.ndarray, config: OptimizerConfig) -> TrainTrace:
    """SPSA from ``w0``, recording the loss at each new iterate.

    The calibration pairs are one 40-row stack.  Step k's stack is the
    iterate ``w_k``, whose loss step k-1 records, and its two probes
    ``w_k +- c_k delta_k``; the loss at ``w0`` is neither walked nor
    recorded, and the last iterate takes one plain evaluation.  Rows are
    counted and checked in the order of one evaluation at a time, and the
    perturbations are drawn in that order too.
    """
    rng = np.random.default_rng(config.seed)
    m = len(w0)

    def rademacher() -> np.ndarray:
        return rng.integers(0, 2, size=m) * 2.0 - 1.0

    deltas = [rademacher() for _ in range(SPSA_CALIBRATION_SAMPLES)]
    probes = fun.rows(np.array([w for d in deltas for w in (w0 + SPSA_C * d, w0 - SPSA_C * d)]))
    slopes = [abs(plus - minus) / (2.0 * SPSA_C) for plus, minus in zip(probes[::2], probes[1::2])]
    mean_slope = max(float(np.mean(slopes)), 1e-10)
    a = SPSA_TARGET_STEP / mean_slope * (SPSA_STABILITY + 1.0) ** SPSA_ALPHA

    w = w0.copy()
    losses = []
    for k in range(config.max_iters):
        a_k = a / (k + 1 + SPSA_STABILITY) ** SPSA_ALPHA
        c_k = SPSA_C / (k + 1) ** SPSA_GAMMA
        delta = rademacher()
        stack = ([w] if k else []) + [w + c_k * delta, w - c_k * delta]
        *loss, plus, minus = fun.rows(np.array(stack))
        losses += loss
        gradient_estimate = (plus - minus) / (2.0 * c_k) * delta  # 1/delta_i == delta_i
        w = w - a_k * gradient_estimate
    losses.append(fun(w))
    return TrainTrace(np.array(losses), w, fun.calls, losses[-1])


def _minimize_aqgd(
    objective: Objective, fun: _Counted, w0: np.ndarray, config: OptimizerConfig
) -> TrainTrace:
    """Gradient descent from ``w0``, recording the loss at each new iterate.

    Each gradient comes with the loss at its own weights, so the loss at
    ``w_{k+1}`` is that of the gradient taken there.  Only the last
    iterate, whose gradient is never needed, takes one plain evaluation.
    The loss at ``w0`` is neither recorded nor checked.
    """
    if objective.value_and_grad is None:
        raise UsageError("aqgd needs an objective with an analytic gradient")
    w = w0.copy()
    _, gradient = objective.value_and_grad(w)
    losses = []
    for k in range(config.max_iters):
        w = w - LEARNING_RATE * np.asarray(gradient, dtype=float)
        if k + 1 == config.max_iters:
            losses.append(fun(w))
        else:
            loss, gradient = objective.value_and_grad(w)
            losses.append(_checked_loss(loss, w))
    # Each analytic gradient walks one base row plus two shifted rows per weight.
    evaluations = fun.calls + (2 * objective.dim + 1) * config.max_iters
    return TrainTrace(np.array(losses), w, evaluations, losses[-1])


# --------------------------------------------------------------------------
# Parameter-shift gradient


def _check_shift_precondition(model: qnn.QnnModel) -> None:
    """Each weight must be the whole angle of exactly one RY gate."""
    seen: dict[int, int] = {}
    for gate in model.variational.gates:
        if gate.angle is None:
            continue
        indices = _collect_indices(gate.angle, Weight)
        if not indices:
            continue
        if gate.name != "ry" or not isinstance(gate.angle, Weight):
            raise UnsupportedModelError(
                f"weight(s) {sorted(indices)} enter a {gate.name} gate with angle "
                "expression; the shift rule needs each weight as the whole angle "
                "of a single ry gate"
            )
        j = gate.angle.index
        seen[j] = seen.get(j, 0) + 1
    repeated = sorted(j for j, count in seen.items() if count > 1)
    if repeated:
        raise UnsupportedModelError(
            f"weight(s) {repeated} appear in more than one gate; the plain "
            "shift rule applies to single-occurrence weights only"
        )


def parameter_shift_gradient(
    model: qnn.QnnModel, w, dataset, kind: str, *, _problem=None, _with_loss=False
):
    """Exact dL/dw via two +-pi/2-shifted evaluations per weight.

    The derivative of each fitted value, (f(w_j + pi/2) - f(w_j - pi/2)) / 2,
    times the loss's slope at f(w) from ``qnn._slope``, averaged.
    The stack ``w``, ``w + pi/2 e_j``, ``w - pi/2 e_j`` is one walk.
    ``_problem`` is the caller's ``qnn._Problem`` for these arguments,
    whose model passes the shift rule's precondition once, on its first
    gradient; without it one is built for this call, after the model and
    ``w`` pass.
    With ``_with_loss``, returns ``(loss at w, gradient)``: the base row's
    loss, bit for bit ``qnn.batch_loss`` at ``w``.
    """
    if _problem is None or not _problem.shift_checked:
        _check_shift_precondition(model)
    w = qnn._weight_rows(w, model)
    if _problem is None:
        _problem = qnn._Problem(model, dataset, kind)
    _problem.shift_checked = True
    shifts = math.pi / 2.0 * np.eye(len(w))
    fitted = _problem.fitted(np.vstack([w, w + shifts, w - shifts]))
    slope = qnn._slope(fitted[0], _problem.targets, kind)
    plus, minus = fitted[1 : len(w) + 1], fitted[len(w) + 1 :]
    terms = np.subtract(plus, minus, out=plus)  # (f+ - f-) / 2 * slope, over the f+ rows
    terms /= 2.0
    terms *= slope
    gradient = np.mean(terms, axis=1)
    if not _with_loss:
        return gradient
    return float(np.mean(qnn._loss(fitted[0], _problem.targets, kind))), gradient


def make_objective(model: qnn.QnnModel, dataset, kind: str) -> Objective:
    """Batch loss over a dataset as a minimization objective on one ``qnn._Problem``.

    Every evaluation walks from that problem and writes into its one
    workspace, sized when the problem is built for its largest block.
    ``value_and_grad`` is one such gradient, with the loss of its base row,
    and ``values`` one walk of a stack of weight rows (``qnn.batch_losses``).
    """
    problem = qnn._Problem(model, dataset, kind)
    return Objective(
        fun=lambda w: qnn.batch_loss(model, w, dataset, kind, _problem=problem),
        dim=model.n_weights,
        value_and_grad=lambda w: parameter_shift_gradient(
            model, w, dataset, kind, _problem=problem, _with_loss=True
        ),
        values=lambda W: qnn.batch_losses(model, W, dataset, kind, _problem=problem),
    )

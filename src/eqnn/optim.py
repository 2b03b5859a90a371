"""Three minimizers behind one contract, plus the parameter-shift gradient.

* ``cobyla`` — Powell's derivative-free linear-approximation trust
  region method (via scipy), trust radius shrinking from ``rho_begin``
  to ``rho_end``.  May stop before ``max_iters``; the loss trace then
  simply ends early (nothing is padded).
* ``spsa`` — simultaneous perturbation stochastic approximation with
  the standard gain schedules a_k = a/(k+1+A)^0.602 and
  c_k = c/(k+1)^0.101 and Rademacher +-1 perturbations from a seeded
  generator.  By default the numerator ``a`` is calibrated from the
  objective itself (see ``OptimizerConfig.spsa_a``).
* ``aqgd`` — plain gradient descent on the analytic parameter-shift
  gradient; optional momentum, off by default.

Every run returns a ``TrainTrace``: one incumbent loss per iteration
(COBYLA: best-so-far at each trust-region step; SPSA/AQGD: loss at the
updated weights), the final weights, and an honest evaluation count —
for AQGD each gradient costs 2m objective-equivalent circuit passes.

A non-finite objective value aborts the run immediately with the
offending weights attached to the exception.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.optimize import minimize as scipy_minimize

from . import qnn
from .circuit import Weight, _collect_indices
from .errors import (
    ConfigurationError,
    NonFiniteLossError,
    UnsupportedModelError,
    UsageError,
)

COBYLA = "cobyla"
SPSA = "spsa"
AQGD = "aqgd"
OPTIMIZER_NAMES = (COBYLA, SPSA, AQGD)


@dataclass(frozen=True)
class Objective:
    """A deterministic scalar function of an m-vector, optionally with gradient."""

    fun: Callable[[np.ndarray], float]
    dim: int
    grad: Callable[[np.ndarray], np.ndarray] | None = None


@dataclass(frozen=True)
class OptimizerConfig:
    """Which optimizer to run and its hyperparameters.

    ``spsa_a = None`` (the default) calibrates the gain numerator from
    the objective before iterating: the mean magnitude of
    ``spsa_calibration_samples`` perturbation-pair slopes at w0 sets
    ``a`` so the expected first step is about ``spsa_target_step``.
    Pass an explicit ``spsa_a`` to pin the schedule instead.
    """

    kind: str
    max_iters: int = 100
    seed: int = 0
    # aqgd
    learning_rate: float = 0.4
    momentum: float = 0.0
    # spsa
    spsa_a: float | None = None
    spsa_c: float = 0.1
    spsa_stability: float = 10.0
    spsa_alpha: float = 0.602
    spsa_gamma: float = 0.101
    spsa_calibration_samples: int = 20
    spsa_target_step: float = 2.0 * math.pi / 10.0
    # cobyla
    rho_begin: float = 1.0
    rho_end: float = 1e-4

    def __post_init__(self):
        if self.kind not in OPTIMIZER_NAMES:
            raise UsageError(
                f"unknown optimizer {self.kind!r}; expected one of {OPTIMIZER_NAMES}"
            )
        if self.max_iters < 1:
            raise ConfigurationError(f"max_iters must be >= 1, got {self.max_iters}")
        if self.learning_rate <= 0:
            raise ConfigurationError("learning_rate must be positive")
        if self.spsa_c <= 0:
            raise ConfigurationError("spsa_c must be positive")


@dataclass(frozen=True, eq=False)
class TrainTrace:
    losses: np.ndarray
    final_weights: np.ndarray
    evaluations: int

    @property
    def iterations(self) -> int:
        return len(self.losses)

    @property
    def final_loss(self) -> float:
        return float(self.losses[-1])


class _Counted:
    """Wrap an objective: count calls and refuse non-finite values."""

    def __init__(self, fun):
        self._fun = fun
        self.calls = 0

    def __call__(self, w: np.ndarray) -> float:
        value = float(self._fun(w))
        self.calls += 1
        if not math.isfinite(value):
            raise NonFiniteLossError(value, np.asarray(w, dtype=float).copy())
        return value


def initial_weights(n_weights: int, seed: int) -> np.ndarray:
    """Seeded uniform draw on [-pi, pi]."""
    return np.random.default_rng(seed).uniform(-math.pi, math.pi, n_weights)


def minimize(objective: Objective, w0, config: OptimizerConfig) -> TrainTrace:
    """Run the configured optimizer for up to ``config.max_iters`` iterations."""
    w0 = np.asarray(w0, dtype=float).copy()
    if w0.shape != (objective.dim,):
        raise UsageError(
            f"objective has dimension {objective.dim}, got w0 of shape {w0.shape}"
        )
    fun = _Counted(objective.fun)
    if config.kind == COBYLA:
        return _minimize_cobyla(fun, w0, config)
    if config.kind == SPSA:
        return _minimize_spsa(fun, w0, config)
    return _minimize_aqgd(objective, fun, w0, config)


def _minimize_cobyla(fun: _Counted, w0: np.ndarray, config: OptimizerConfig) -> TrainTrace:
    cache: dict[bytes, float] = {}

    def wrapped(w):
        w = np.asarray(w, dtype=float)
        value = fun(w)
        cache[w.tobytes()] = value
        return value

    incumbents: list[float] = []

    def on_step(xk):
        # Each trust-region step reports a point COBYLA already evaluated;
        # record the best value seen so far as the incumbent.
        value = cache.get(np.asarray(xk, dtype=float).tobytes())
        if value is None:
            value = wrapped(xk)
        best = min(incumbents[-1], value) if incumbents else value
        incumbents.append(best)

    result = scipy_minimize(
        wrapped,
        w0,
        method="COBYLA",
        callback=on_step,
        options={
            "rhobeg": config.rho_begin,
            "tol": config.rho_end,
            "maxiter": config.max_iters,
        },
    )
    if not incumbents:
        incumbents.append(wrapped(result.x))
    losses = np.array(incumbents[: config.max_iters])
    return TrainTrace(losses, np.asarray(result.x, dtype=float), fun.calls)


def _minimize_spsa(fun: _Counted, w0: np.ndarray, config: OptimizerConfig) -> TrainTrace:
    rng = np.random.default_rng(config.seed)
    m = len(w0)
    c = config.spsa_c
    stability = config.spsa_stability
    a = config.spsa_a

    def rademacher() -> np.ndarray:
        return rng.integers(0, 2, size=m) * 2.0 - 1.0

    if a is None:
        slopes = []
        for _ in range(config.spsa_calibration_samples):
            delta = rademacher()
            slopes.append(abs(fun(w0 + c * delta) - fun(w0 - c * delta)) / (2.0 * c))
        mean_slope = max(float(np.mean(slopes)), 1e-10)
        a = config.spsa_target_step / mean_slope * (stability + 1.0) ** config.spsa_alpha

    w = w0.copy()
    losses = []
    for k in range(config.max_iters):
        a_k = a / (k + 1 + stability) ** config.spsa_alpha
        c_k = c / (k + 1) ** config.spsa_gamma
        delta = rademacher()
        diff = fun(w + c_k * delta) - fun(w - c_k * delta)
        gradient_estimate = diff / (2.0 * c_k) * delta  # 1/delta_i == delta_i
        w = w - a_k * gradient_estimate
        losses.append(fun(w))
    return TrainTrace(np.array(losses), w, fun.calls)


def _minimize_aqgd(
    objective: Objective, fun: _Counted, w0: np.ndarray, config: OptimizerConfig
) -> TrainTrace:
    if objective.grad is None:
        raise UsageError("aqgd needs an objective with an analytic gradient")
    w = w0.copy()
    velocity = np.zeros_like(w)
    losses = []
    grad_calls = 0
    for _ in range(config.max_iters):
        gradient = np.asarray(objective.grad(w), dtype=float)
        grad_calls += 1
        velocity = config.momentum * velocity - config.learning_rate * gradient
        w = w + velocity
        losses.append(fun(w))
    # Each analytic gradient costs two shifted circuit passes per weight.
    evaluations = fun.calls + 2 * objective.dim * grad_calls
    return TrainTrace(np.array(losses), w, evaluations)


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


def parameter_shift_gradient(model: qnn.QnnModel, w, dataset, kind: str) -> np.ndarray:
    """Exact dL/dw via two +-pi/2-shifted evaluations per weight.

    The circuit-level derivative of each fitted value is
    (f(w_j + pi/2) - f(w_j - pi/2)) / 2; the loss's outer derivative
    (squared error or clamped cross-entropy) is applied analytically.
    Where P(label) is below ``PROB_EPS`` the clamped loss is flat, so
    those rows contribute 0.
    """
    qnn._check_pairing(model, dataset, kind)
    _check_shift_precondition(model)
    w = np.asarray(w, dtype=float)
    X = dataset.features_array()
    targets = dataset.targets_array()
    base = qnn._fitted(model, X, w, targets, kind)
    if kind == qnn.SQUARED_ERROR:
        residual = 2.0 * (base - targets)
    else:
        clamped, flat = np.maximum(base, qnn.PROB_EPS), base < qnn.PROB_EPS
    grad = np.empty(model.n_weights)
    for j in range(model.n_weights):
        shift = np.zeros_like(w)
        shift[j] = math.pi / 2.0
        df = (
            qnn._fitted(model, X, w + shift, targets, kind)
            - qnn._fitted(model, X, w - shift, targets, kind)
        ) / 2.0
        if kind == qnn.SQUARED_ERROR:
            grad[j] = np.mean(residual * df)
        else:
            grad[j] = np.mean(np.where(flat, 0.0, -df / clamped))
    return grad


def make_objective(model: qnn.QnnModel, dataset, kind: str) -> Objective:
    """Batch loss over a dataset as a minimization objective."""
    qnn._check_pairing(model, dataset, kind)
    return Objective(
        fun=lambda w: qnn.batch_loss(model, w, dataset, kind),
        dim=model.n_weights,
        grad=lambda w: parameter_shift_gradient(model, w, dataset, kind),
    )

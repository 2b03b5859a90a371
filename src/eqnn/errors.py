"""Exception hierarchy shared across the package.

Two broad families:

* ``UsageError`` — the caller handed us something malformed (bad qubit
  index, mismatched arity, wrong loss for a model head).  The CLI maps
  these to exit code 2.
* everything else under ``EqnnError`` — a run-time failure of the
  computation itself (non-finite loss, unreadable data file).  The CLI
  maps these to exit code 1.
"""

from __future__ import annotations

import numbers


class EqnnError(Exception):
    """Base class for all package-specific errors."""


class ConfigurationError(EqnnError):
    """A structural parameter is outside its supported range.

    Example: requesting a simulator register with 0 or 21+ qubits.
    """


class UsageError(EqnnError):
    """An API call with arguments that cannot be satisfied as given."""


class UnsupportedModelError(UsageError):
    """The model's weight placement violates an optimizer precondition.

    The parameter-shift gradient requires every trainable weight to
    enter the circuit exactly once, as the whole rotation angle of a
    single RY gate.
    """


class DegenerateRangeError(EqnnError):
    """Min-max normalization hit a feature column with zero spread."""


class DataFormatError(EqnnError):
    """A dataset file could not be parsed.

    Carries the 1-based line number of the offending line when known.
    """

    def __init__(self, message: str, line_number: int | None = None):
        self.line_number = line_number
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)


class NonFiniteLossError(EqnnError):
    """An optimizer observed NaN or infinity from the objective.

    The weight vector that produced the value is kept for diagnostics.
    """

    def __init__(self, loss: float, weights):
        self.loss = loss
        self.weights = weights
        super().__init__(
            f"objective returned non-finite value {loss!r} at weights {list(weights)!r}"
        )


def _checked_integer(value, name: str, error: type[EqnnError] = UsageError):
    """``value``, refused with ``error`` naming ``name`` unless an integer of any type."""
    if type(value) is not int and not isinstance(value, numbers.Integral):  # int first: fast
        raise error(f"{name} must be an integer, got {value}")
    return value


def _checked_seed(seed: int) -> int:
    """``seed``, refused unless an integer >= 0: numpy's generators take no other."""
    _checked_integer(seed, "seed", ConfigurationError)
    if seed < 0:
        raise ConfigurationError(f"seed must be >= 0, got {seed}")
    return seed

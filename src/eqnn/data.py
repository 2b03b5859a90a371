"""Datasets: generation, normalization, splitting and CSV persistence.

A ``Dataset`` holds its rows as read-only float64 columns, ``features``
``(N, d)`` and ``targets`` ``(N,)``, which every producer here fills
directly; ``Sample`` rows appear only in ``Dataset(samples, ...)`` and
``Dataset.samples``.  Datasets are equal when all their fields are.

Generators draw from ``numpy.random.default_rng`` (PCG64), so a seed
pins the dataset bit-for-bit on any platform with the same numpy
generator; the CSV file is the portable ground truth across languages.

Regression sets (1 feature):

* ``gen_linear``   — x ~ U[-1, 1],     y = x
* ``gen_sigmoid``  — raw ~ U[-3, 3], feature = raw/2, y = 2*s(raw) - 1
  (equivalently y = tanh(feature))
* ``gen_tanh``     — x ~ U[-1.5, 1.5], y = tanh(x)

Classification set (2 features, labels {0, 1}):

* ``gen_two_class_usage`` — synthetic (mid-month, month-end) data-usage
  pairs; class 0 is a low-usage regime, class 1 high-usage, month-end
  >= mid-month within every sample, min-max normalized to [0, 1].
  The regimes are disjoint, so the classes are linearly separable.

CSV format: one header line ``# generator=<name> seed=<s> kind=<k>``
followed by ``x0,...,target`` rows; '.' decimal separator, LF endings,
floats written with ``repr`` for lossless round-trips.  Every value must
be finite: ``load_csv`` rejects ``nan`` and ``inf`` with the line number.
"""

from __future__ import annotations

import math
import os
import tempfile
from dataclasses import dataclass

import numpy as np

from .errors import (
    DataFormatError,
    DegenerateRangeError,
    UsageError,
    _checked_integer,
    _checked_seed,
)

REGRESSION_KIND = "regression"
CLASSIFICATION_KIND = "classification"
KINDS = (REGRESSION_KIND, CLASSIFICATION_KIND)


@dataclass(frozen=True)
class Sample:
    features: tuple[float, ...]
    target: float | int


@dataclass(frozen=True, init=False, eq=False)
class Dataset:
    """Rows of one ``kind`` as columns; ``Sample`` rows are converted on construction."""

    features: np.ndarray
    targets: np.ndarray
    kind: str
    generator: str
    seed: int

    def __init__(self, samples, kind: str, generator: str, seed: int):
        rows = tuple(samples)
        try:
            features = np.array([s.features for s in rows], dtype=float)
            targets = np.array([s.target for s in rows]).astype(float, casting="same_kind")
        except (TypeError, ValueError):
            raise UsageError("samples need features of one width and numeric targets") from None
        width = len(rows[0].features) if rows else 0
        self._hold(features.reshape(len(rows), width), targets, kind, generator, seed)

    @classmethod
    def _of(cls, features, targets, kind, generator, seed) -> Dataset:
        """A dataset taking over ``features`` and ``targets``, which no one else writes."""
        return cls.__new__(cls)._hold(features, targets, kind, generator, seed)

    def _hold(self, features, targets, kind, generator, seed) -> Dataset:
        """The one validation: a known kind, one target per feature row, 0/1 labels."""
        if kind not in KINDS:
            raise UsageError(f"unknown dataset kind {kind!r}")
        if features.ndim != 2 or targets.shape != features.shape[:1]:
            raise UsageError(f"{features.shape} features do not pair with {targets.shape} targets")
        if kind == CLASSIFICATION_KIND:
            bad = np.unique(targets[(targets != 0) & (targets != 1)])
            if bad.size:
                raise UsageError(f"classification targets must be 0/1, got {bad.tolist()}")
        features.flags.writeable = targets.flags.writeable = False
        vars(self).update(features=features, targets=targets, kind=kind,
                          generator=generator, seed=seed)
        return self

    def __eq__(self, other) -> bool:
        return isinstance(other, Dataset) and all(
            np.array_equal(value, vars(other)[name]) for name, value in vars(self).items()
        )

    def __len__(self) -> int:
        return len(self.targets)

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    @property
    def samples(self) -> tuple[Sample, ...]:
        """The rows as ``Sample``s, built on each access; class labels are ``int``."""
        label = int if self.kind == CLASSIFICATION_KIND else float
        return tuple(
            Sample(tuple(x), label(y))
            for x, y in zip(self.features.tolist(), self.targets.tolist())
        )

    def features_array(self) -> np.ndarray:
        """(n_samples, n_features) float array, read-only."""
        return self.features

    def targets_array(self) -> np.ndarray:
        """(n_samples,) float array of targets/labels, read-only."""
        return self.targets


def _uniform_draw(n: int, seed: int, half_width: float) -> np.ndarray:
    """``n`` seeded draws from Uniform[-half_width, half_width]; refuses n < 1."""
    if _checked_integer(n, "n") < 1:
        raise UsageError(f"need at least one sample, got n={n}")
    return np.random.default_rng(_checked_seed(seed)).uniform(-half_width, half_width, n)


def gen_linear(n: int = 200, seed: int = 0) -> Dataset:
    """y = x on x ~ Uniform[-1, 1]."""
    x = _uniform_draw(n, seed, 1.0)
    return Dataset._of(x.reshape(-1, 1), x, REGRESSION_KIND, "linear", seed)


def gen_sigmoid(n: int = 200, seed: int = 0) -> Dataset:
    """y = 2*s(raw) - 1 on raw ~ Uniform[-3, 3], stored feature raw/2."""
    raw = _uniform_draw(n, seed, 3.0)
    y = 2.0 / (1.0 + np.exp(-raw)) - 1.0
    return Dataset._of((raw / 2.0).reshape(-1, 1), y, REGRESSION_KIND, "sigmoid", seed)


def gen_tanh(n: int = 200, seed: int = 0) -> Dataset:
    """y = tanh(x) on x ~ Uniform[-1.5, 1.5]."""
    x = _uniform_draw(n, seed, 1.5)
    return Dataset._of(x.reshape(-1, 1), np.tanh(x), REGRESSION_KIND, "tanh", seed)


def gen_two_class_usage(per_class: int = 500, seed: int = 0) -> Dataset:
    """Two disjoint usage regimes, normalized to [0, 1] per feature.

    Raw draws (GB): class 0 mid ~ U[0.5, 3.0], end = mid + U[0.2, 2.0];
    class 1 mid ~ U[6.0, 12.0], end = mid + U[1.0, 8.0].  Draw order is
    fixed (class 0 mids, class 0 increments, class 1 mids, class 1
    increments) so a seed pins the dataset exactly.
    """
    if _checked_integer(per_class, "per_class") < 1:
        raise UsageError(f"need at least one sample per class, got {per_class}")
    rng = np.random.default_rng(_checked_seed(seed))
    mid0 = rng.uniform(0.5, 3.0, per_class)
    end0 = mid0 + rng.uniform(0.2, 2.0, per_class)
    mid1 = rng.uniform(6.0, 12.0, per_class)
    end1 = mid1 + rng.uniform(1.0, 8.0, per_class)
    raw = np.stack([np.concatenate([mid0, mid1]), np.concatenate([end0, end1])], axis=1)
    labels = np.repeat([0.0, 1.0], per_class)
    return normalize_minmax(Dataset._of(raw, labels, CLASSIFICATION_KIND, "two_class_usage", seed))


def normalize_minmax(dataset: Dataset) -> Dataset:
    """Map each feature linearly onto [0, 1] by its min and max; each must be finite."""
    if len(dataset) == 0:
        raise UsageError("dataset is empty")
    values = dataset.features
    finite = np.isfinite(values).all(axis=1)
    if not finite.all():
        raise UsageError(f"dataset row {int(np.argmin(finite))} has a non-finite feature")
    lo, hi = values.min(axis=0), values.max(axis=0)
    degenerate = np.flatnonzero(hi <= lo)
    if degenerate.size:
        raise DegenerateRangeError(
            f"feature(s) {degenerate.tolist()} have zero range; cannot normalize"
        )
    scaled = (values - lo) / (hi - lo)
    return Dataset._of(scaled, dataset.targets, dataset.kind, dataset.generator, dataset.seed)


def split_dataset(dataset: Dataset, test_fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    """Seeded shuffle-split into (train, test)."""
    if not 0.0 < test_fraction < 1.0:
        raise UsageError(f"test_fraction must be in (0, 1), got {test_fraction}")
    order = np.random.default_rng(_checked_seed(seed)).permutation(len(dataset))
    n_test = int(round(len(dataset) * test_fraction))
    if n_test == 0 or n_test == len(dataset):
        raise UsageError(
            f"split of {len(dataset)} samples at {test_fraction} leaves an empty side"
        )
    return tuple(
        Dataset._of(dataset.features[rows], dataset.targets[rows],
                    dataset.kind, dataset.generator, dataset.seed)
        for rows in (order[n_test:], order[:n_test])
    )


# --------------------------------------------------------------------------
# Persistence


def save_csv(dataset: Dataset, path):
    """Write the header + rows format; the write is atomic (temp + rename)."""
    targets = dataset.targets.astype(int if dataset.kind == CLASSIFICATION_KIND else float)
    columns = [map(repr, column) for column in (*dataset.features.T.tolist(), targets.tolist())]
    lines = [f"# generator={dataset.generator} seed={dataset.seed} kind={dataset.kind}"]
    lines += map(",".join, zip(*columns))
    _write_atomic(path, "\n".join(lines) + "\n")


def _write_atomic(path, text: str):
    """Write ``text`` with LF endings via a temp file renamed over ``path``.

    Missing parent directories are created first.
    """
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="\n") as fh:
            fh.write(text)
        os.chmod(tmp, 0o644)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _parse_header(line: str) -> tuple[str, int, str]:
    if not line.startswith("#"):
        raise DataFormatError("expected '# generator=... seed=... kind=...' header", line_number=1)
    fields = dict(
        token.split("=", 1) for token in line[1:].split() if "=" in token
    )
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


def load_csv(path) -> Dataset:
    """Read a file written by ``save_csv``; fails with the line number.

    A valid file is parsed in one vectorised pass (``_table``).  Any other
    falls through to the per-line pass (``_table_by_lines``), the only one
    that raises, which names the first line that breaks a rule.
    """
    with open(path, "r", newline="") as fh:
        raw_lines = fh.read().split("\n")
    generator, seed, kind = _parse_header(raw_lines[0])
    table = _table(raw_lines[1:], kind)
    if table is None:
        table = _table_by_lines(raw_lines[1:], kind)
    return Dataset._of(table[:, :-1].copy(), table[:, -1].copy(), kind, generator, seed)


def _table(lines: list[str], kind: str) -> np.ndarray | None:
    """The non-blank ``lines`` as one ``(N, width)`` float array, or ``None`` if any breaks
    a rule of ``_table_by_lines``.

    Every line must have the first one's number of commas, at least one: a
    count per line, since a short row beside a long one keeps the total.
    Then one ``np.array(cells, dtype=float)`` parses every cell, as
    ``float()`` would, and the finite check runs on that array.  A class
    label is checked as text, since ``"1.0"`` parses to 1 but is refused.
    """
    lines = [line for line in lines if line.strip()]
    commas = lines[0].count(",") if lines else 0
    if commas < 1 or any(line.count(",") != commas for line in lines):
        return None
    cells = ",".join(lines).split(",")
    try:
        table = np.array(cells, dtype=float).reshape(len(lines), commas + 1)
    except ValueError:
        return None
    if not np.isfinite(table).all():
        return None
    if kind == CLASSIFICATION_KIND and not {
        label.strip() for label in cells[commas :: commas + 1]
    } <= {"0", "1"}:
        return None
    return table


def _table_by_lines(lines: list[str], kind: str) -> np.ndarray:
    """The data ``lines``, line 2 on, as one ``(N, width)`` float array, one line at a time;
    raises ``DataFormatError`` at the first line that breaks a rule."""
    values: list[float] = []
    width = 0
    for number, line in enumerate(lines, start=2):
        if not line.strip():
            continue
        cells = line.split(",")
        width = width or len(cells)
        if width < 2:
            raise DataFormatError("need at least one feature and a target", line_number=number)
        if len(cells) != width:
            raise DataFormatError(
                f"expected {width} columns, got {len(cells)}", line_number=number
            )
        try:
            row = list(map(float, cells if kind == REGRESSION_KIND else cells[:-1]))
        except ValueError as exc:
            raise DataFormatError(str(exc), line_number=number) from None
        if kind == CLASSIFICATION_KIND:
            if cells[-1].strip() not in ("0", "1"):
                message = f"classification target must be 0 or 1, got {cells[-1]!r}"
                raise DataFormatError(message, line_number=number)
            row.append(float(cells[-1]))
        if not all(map(math.isfinite, row)):
            raise DataFormatError(f"non-finite value in {line!r}", line_number=number)
        values += row
    if not values:
        raise DataFormatError("no data rows", line_number=1)
    return np.array(values).reshape(-1, width)

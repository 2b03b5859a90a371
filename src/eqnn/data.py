"""Dataset generation, normalization, and CSV persistence.

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
from functools import cached_property

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


@dataclass(frozen=True, eq=True)
class Dataset:
    samples: tuple[Sample, ...]
    kind: str
    generator: str
    seed: int

    def __post_init__(self):
        if self.kind not in KINDS:
            raise UsageError(f"unknown dataset kind {self.kind!r}")
        object.__setattr__(self, "samples", tuple(self.samples))
        widths = {len(s.features) for s in self.samples}
        if len(widths) > 1:
            raise UsageError(f"inconsistent feature widths {sorted(widths)}")
        if self.kind == CLASSIFICATION_KIND:
            bad = {s.target for s in self.samples} - {0, 1}
            if bad:
                raise UsageError(f"classification targets must be 0/1, got {sorted(bad)}")

    def __len__(self) -> int:
        return len(self.samples)

    @property
    def n_features(self) -> int:
        return len(self.samples[0].features) if self.samples else 0

    @cached_property
    def _features(self) -> np.ndarray:
        return np.array([s.features for s in self.samples], dtype=float)

    @cached_property
    def _targets(self) -> np.ndarray:
        return np.array([s.target for s in self.samples], dtype=float)

    def features_array(self) -> np.ndarray:
        """(n_samples, n_features) float array.  Treat as read-only."""
        return self._features

    def targets_array(self) -> np.ndarray:
        """(n_samples,) float array of targets/labels.  Treat as read-only."""
        return self._targets


def _regression_set(name: str, seed: int, features, targets) -> Dataset:
    samples = tuple(
        Sample((float(x),), float(y)) for x, y in zip(features, targets)
    )
    return Dataset(samples, REGRESSION_KIND, name, seed)


def _uniform_draw(n: int, seed: int, half_width: float) -> np.ndarray:
    """``n`` seeded draws from Uniform[-half_width, half_width]; refuses n < 1."""
    if _checked_integer(n, "n") < 1:
        raise UsageError(f"need at least one sample, got n={n}")
    return np.random.default_rng(_checked_seed(seed)).uniform(-half_width, half_width, n)


def gen_linear(n: int = 200, seed: int = 0) -> Dataset:
    """y = x on x ~ Uniform[-1, 1]."""
    x = _uniform_draw(n, seed, 1.0)
    return _regression_set("linear", seed, x, x)


def gen_sigmoid(n: int = 200, seed: int = 0) -> Dataset:
    """y = 2*s(raw) - 1 on raw ~ Uniform[-3, 3], stored feature raw/2."""
    raw = _uniform_draw(n, seed, 3.0)
    y = 2.0 / (1.0 + np.exp(-raw)) - 1.0
    return _regression_set("sigmoid", seed, raw / 2.0, y)


def gen_tanh(n: int = 200, seed: int = 0) -> Dataset:
    """y = tanh(x) on x ~ Uniform[-1.5, 1.5]."""
    x = _uniform_draw(n, seed, 1.5)
    return _regression_set("tanh", seed, x, np.tanh(x))


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
    mids = np.concatenate([mid0, mid1])
    ends = np.concatenate([end0, end1])
    samples = tuple(
        Sample((float(m), float(e)), int(label))
        for m, e, label in zip(mids, ends, [0] * per_class + [1] * per_class)
    )
    raw = Dataset(samples, CLASSIFICATION_KIND, "two_class_usage", seed)
    return normalize_minmax(raw)


def normalize_minmax(dataset: Dataset) -> Dataset:
    """Map each feature linearly onto [0, 1] by its min and max."""
    if len(dataset) == 0:
        raise UsageError("dataset is empty")
    values = dataset.features_array()
    lo, hi = values.min(axis=0), values.max(axis=0)
    degenerate = np.flatnonzero(hi <= lo)
    if degenerate.size:
        raise DegenerateRangeError(
            f"feature(s) {degenerate.tolist()} have zero range; cannot normalize"
        )
    scaled = (values - lo) / (hi - lo)
    samples = tuple(
        Sample(tuple(float(v) for v in row), s.target)
        for row, s in zip(scaled, dataset.samples)
    )
    return Dataset(samples, dataset.kind, dataset.generator, dataset.seed)


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
    test_idx, train_idx = order[:n_test], order[n_test:]

    def subset(idx) -> Dataset:
        samples = tuple(dataset.samples[i] for i in idx)
        return Dataset(samples, dataset.kind, dataset.generator, dataset.seed)

    return subset(train_idx), subset(test_idx)


# --------------------------------------------------------------------------
# Persistence


def _format_target(kind: str, target) -> str:
    return str(int(target)) if kind == CLASSIFICATION_KIND else repr(float(target))


def save_csv(dataset: Dataset, path):
    """Write the header + rows format; the write is atomic (temp + rename)."""
    lines = [f"# generator={dataset.generator} seed={dataset.seed} kind={dataset.kind}"]
    for s in dataset.samples:
        row = [repr(float(v)) for v in s.features]
        row.append(_format_target(dataset.kind, s.target))
        lines.append(",".join(row))
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
    """Read a file written by ``save_csv``; fails with the offending line number."""
    with open(path, "r", newline="") as fh:
        raw_lines = fh.read().split("\n")
    if not raw_lines or not raw_lines[0].startswith("#"):
        raise DataFormatError(
            "expected '# generator=... seed=... kind=...' header", line_number=1
        )
    generator, seed, kind = _parse_header(raw_lines[0])
    samples: list[Sample] = []
    width: int | None = None
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
        if kind == CLASSIFICATION_KIND:
            label = cells[-1].strip()
            if label not in ("0", "1"):
                raise DataFormatError(
                    f"classification target must be 0 or 1, got {cells[-1]!r}",
                    line_number=number,
                )
            target: int | float = int(label)
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

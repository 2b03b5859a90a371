"""``eqnn reproduce --seed 42`` against its checked-in artifacts.

``tests/golden/`` holds the 18 artifacts of that command.  Criterion 10
only compares a run with itself; this test pins the run to the numbers
it produced before, with one rule per artifact kind:

* ``table2.json``, ``table3.json`` and ``summary.md``: byte for byte.
  The classification accuracies in ``table3.json`` are therefore exact,
  COBYLA's included.
* AQGD, SPSA and activation-fit loss histories: same length, each value
  within ``rtol`` 1e-12.  Changes that only reorder floating-point
  arithmetic have moved these by at most 4e-15 relative.
* COBYLA loss histories: 1 to 100 entries, final loss within
  ``COBYLA_FINAL_RTOL``.  COBYLA's stopping point is chaotic under
  1e-16 perturbations of the objective: fusing the variational circuit
  into one unitary changed the benchmark history from 72 to 65 entries
  and its final loss from 0.253526 to 0.253571 (1.8e-4 relative), so
  the bound is about five times that shift.

Regenerate with ``eqnn reproduce --seed 42 --out tests/golden`` only for
a change that is meant to move these numbers, and log its cause.
"""

from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from eqnn.cli import main

GOLDEN = Path(__file__).parent / "golden"
EXACT = ("table2.json", "table3.json", "summary.md")
HISTORY_RTOL = 1e-12
COBYLA_FINAL_RTOL = 1e-3
MAX_ITERS = 100


def _losses(path: Path) -> np.ndarray:
    lines = path.read_text().split("\n")
    assert lines[0] == "iteration,loss" and lines[-1] == "", path.name
    rows = [line.split(",") for line in lines[1:-1]]
    assert [int(i) for i, _ in rows] == list(range(1, len(rows) + 1)), path.name
    return np.array([float(v) for _, v in rows])


@pytest.fixture(scope="module")
def fresh(tmp_path_factory) -> Path:
    out = tmp_path_factory.mktemp("reproduce")
    result = CliRunner().invoke(
        main, ["reproduce", "--seed", "42", "--out", str(out)], catch_exceptions=False
    )
    assert result.exit_code == 0, result.output
    return out


def test_golden_artifact_set(fresh):
    golden = sorted(p.name for p in GOLDEN.iterdir())
    assert len(golden) == 18
    assert sorted(p.name for p in fresh.iterdir()) == golden


@pytest.mark.parametrize("name", EXACT)
def test_golden_tables_and_summary_exact(fresh, name):
    assert (fresh / name).read_bytes() == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize(
    "name",
    sorted(p.name for p in GOLDEN.glob("*_loss.csv") if "cobyla" not in p.name),
)
def test_golden_loss_histories(fresh, name):
    got, want = _losses(fresh / name), _losses(GOLDEN / name)
    assert len(want) == MAX_ITERS
    assert got.shape == want.shape
    np.testing.assert_allclose(got, want, rtol=HISTORY_RTOL, atol=0.0)


@pytest.mark.parametrize("name", sorted(p.name for p in GOLDEN.glob("*_cobyla_loss.csv")))
def test_golden_cobyla_final_loss(fresh, name):
    got, want = _losses(fresh / name), _losses(GOLDEN / name)
    assert 1 <= len(got) <= MAX_ITERS
    assert got[-1] == pytest.approx(want[-1], rel=COBYLA_FINAL_RTOL, abs=0.0)

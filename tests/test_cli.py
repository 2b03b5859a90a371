import filecmp
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from scipy.stats import binom

import eqnn
from eqnn.cli import _sampled_accuracy, main
from eqnn.data import gen_sigmoid, gen_two_class_usage, save_csv
from eqnn.qnn import build_model, predict_probs


@pytest.fixture
def runner():
    return CliRunner()


def run(runner, args, **kwargs):
    result = runner.invoke(main, args, catch_exceptions=False, **kwargs)
    assert result.exit_code == 0, result.output
    return result


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


# --------------------------------------------------------------------------
# gate-count


def test_gate_count_table(runner):
    result = run(runner, ["gate-count"])
    lines = result.output.strip().split("\n")
    assert lines[0].split() == ["model", "feature_map", "variational", "total"]
    rows = {line.split()[0]: line.split()[1:] for line in lines[1:]}
    assert rows["benchmark"] == ["7", "11", "18"]
    assert rows["eqnn1"] == ["5", "5", "10"]
    assert rows["eqnn2"] == ["5", "8", "13"]
    assert rows["eqnn3"] == ["5", "11", "16"]


def test_gate_count_single_model_and_json(runner, tmp_path):
    out = tmp_path / "table.json"
    result = run(runner, ["gate-count", "--model", "eqnn2", "--out", str(out)])
    assert "eqnn2" in result.output
    assert "benchmark" not in result.output
    payload = read_json(out)
    assert payload["schema"] == 1
    assert payload["gate_counts"] == {
        "eqnn2": {"feature_map": 5, "variational": 8, "total": 13}
    }


def test_gate_count_dump_circuit_prints_diagrams(runner):
    result = run(runner, ["gate-count", "--model", "eqnn1", "--dump-circuit"])
    assert "eqnn1:" in result.output
    assert "q0:" in result.output and "q1:" in result.output


def test_gate_count_rejects_unknown_model(runner):
    result = runner.invoke(main, ["gate-count", "--model", "qswift"])
    assert result.exit_code == 2
    assert "--model" in result.output


def test_version_flag(runner):
    result = run(runner, ["--version"])
    assert result.output.strip() == "eqnn, version 0.1.0"


# --------------------------------------------------------------------------
# fit-activation


def test_fit_activation_writes_curve_and_report(runner, tmp_path):
    prefix = tmp_path / "lin"
    result = run(
        runner,
        [
            "fit-activation", "--target", "linear", "--iters", "8",
            "--n-samples", "40", "--seed", "3", "--out", str(prefix),
        ],
    )
    assert "linear: mse" in result.output

    fit_lines = (tmp_path / "lin_fit.csv").read_text().strip().split("\n")
    assert fit_lines[0] == "x,y_true,y_pred"
    assert len(fit_lines) == 1 + 40
    xs = [float(line.split(",")[0]) for line in fit_lines[1:]]
    assert xs == sorted(xs)

    report = read_json(tmp_path / "lin_report.json")
    assert report["schema"] == 1
    assert report["model"] == "simplified"
    assert report["optimizer"] == "aqgd"
    assert report["target"] == "linear"
    assert report["n_samples"] == 40
    assert report["seed"] == 3
    assert len(report["loss_history"]) == 8
    assert len(report["trained_weights"]) == 1
    assert report["wall_time_s"] > 0.0


def test_fit_activation_default_prefix_is_target(runner):
    with runner.isolated_filesystem():
        run(runner, ["fit-activation", "--target", "tanh", "--iters", "2",
                     "--n-samples", "10"])
        assert os.path.exists("tanh_fit.csv")
        assert os.path.exists("tanh_report.json")


def test_fit_activation_unwritable_prefix_exits_one(runner, tmp_path):
    blocker = tmp_path / "blocked"
    blocker.write_text("")
    result = runner.invoke(
        main,
        ["fit-activation", "--target", "linear", "--iters", "2",
         "--n-samples", "10", "--out", str(blocker / "x")],
    )
    assert result.exit_code == 1
    assert "Error" in result.output


# --------------------------------------------------------------------------
# train


def train_args(prefix, extra=()):
    return [
        "train", "--model", "eqnn1", "--gen", "--per-class", "30",
        "--iters", "10", "--seed", "5", "--out", str(prefix), *extra,
    ]


def test_train_generated_dataset_artifacts(runner, tmp_path):
    prefix = tmp_path / "run"
    result = run(runner, train_args(prefix))
    assert "eqnn1 + aqgd: accuracy" in result.output

    loss_lines = (tmp_path / "run_loss.csv").read_text().strip().split("\n")
    assert loss_lines[0] == "iteration,loss"
    assert len(loss_lines) == 1 + 10
    assert loss_lines[1].startswith("1,")

    report = read_json(tmp_path / "run_report.json")
    assert report["model"] == "eqnn1"
    assert report["optimizer"] == "aqgd"
    assert report["n_samples"] == 60
    assert report["rescale"] == "default"
    assert report["gate_counts"] == {"feature_map": 5, "variational": 5, "total": 10}
    assert 0.0 <= report["accuracy"] <= 1.0
    assert report["loss_history"] == pytest.approx(
        [float(line.split(",")[1]) for line in loss_lines[1:]]
    )


def test_train_from_csv(runner, tmp_path):
    data = tmp_path / "usage.csv"
    save_csv(gen_two_class_usage(per_class=25, seed=11), data)
    prefix = tmp_path / "csvrun"
    run(
        runner,
        ["train", "--model", "eqnn2", "--optimizer", "cobyla", "--iters", "20",
         "--data", str(data), "--seed", "11", "--out", str(prefix)],
    )
    report = read_json(tmp_path / "csvrun_report.json")
    assert report["model"] == "eqnn2"
    assert report["optimizer"] == "cobyla"
    assert report["n_samples"] == 50


def test_train_needs_exactly_one_source(runner, tmp_path):
    result = runner.invoke(main, ["train", "--model", "eqnn1"])
    assert result.exit_code == 2
    assert "--data" in result.output and "--gen" in result.output

    data = tmp_path / "usage.csv"
    save_csv(gen_two_class_usage(per_class=5, seed=0), data)
    result = runner.invoke(
        main, ["train", "--model", "eqnn1", "--gen", "--data", str(data)]
    )
    assert result.exit_code == 2


def test_train_rejects_regression_csv(runner, tmp_path):
    data = tmp_path / "sigmoid.csv"
    save_csv(gen_sigmoid(20, seed=0), data)
    result = runner.invoke(
        main, ["train", "--model", "eqnn1", "--data", str(data)]
    )
    assert result.exit_code == 2
    assert "classification" in result.output


def test_train_split_and_shots_fields(runner, tmp_path):
    prefix = tmp_path / "rich"
    run(runner, train_args(prefix, extra=["--split", "0.25", "--shots", "64"]))
    report = read_json(tmp_path / "rich_report.json")
    assert report["n_samples"] == 45
    assert report["n_test_samples"] == 15
    assert 0.0 <= report["test_accuracy"] <= 1.0
    assert report["shots"] == 64
    assert 0.0 <= report["accuracy_sampled"] <= 1.0


def test_sampled_accuracy_within_binomial_band():
    # Row i is called class 0 when at least half of its shots land on an
    # even-parity state; the expected accuracy follows from binomial tails.
    model = build_model("eqnn1")
    dataset = gen_two_class_usage(100, seed=3)
    w = np.array([0.3, -1.2, 2.0, 0.5])
    shots = 16
    p_even = predict_probs(model, dataset.features_array(), w)[:, 0]
    p_class0 = binom.sf(shots // 2 - 1, shots, p_even)
    labels = dataset.targets_array().astype(int)
    p_correct = np.where(labels == 0, p_class0, 1.0 - p_class0)
    mean = p_correct.mean()
    band = 6.0 * np.sqrt(np.sum(p_correct * (1.0 - p_correct))) / len(labels)
    assert abs(mean - 0.5) > band  # a flipped decision rule would fail
    for seed in range(3):
        got = _sampled_accuracy(model, w, dataset, shots, seed)
        assert got == _sampled_accuracy(model, w, dataset, shots, seed)
        assert abs(got - mean) <= band + 1.0 / len(labels)


def test_train_dump_circuit_and_wide_rescale(runner, tmp_path):
    prefix = tmp_path / "wide"
    run(runner, train_args(prefix, extra=["--rescale", "wide", "--dump-circuit"]))
    report = read_json(tmp_path / "wide_report.json")
    assert report["rescale"] == "wide"
    circuit = read_json(tmp_path / "wide_circuit.json")
    assert circuit["model"] == "eqnn1"
    angles = [g.get("angle") for g in circuit["feature_map"]["gates"]]
    assert "3.0*x0 - 1.5" in angles
    assert any("q0:" in line for line in circuit["diagram"])


def test_train_reports_are_reproducible(runner, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    run(runner, train_args(a, extra=["--optimizer", "spsa"]))
    run(runner, train_args(b, extra=["--optimizer", "spsa"]))
    assert filecmp.cmp(tmp_path / "a_loss.csv", tmp_path / "b_loss.csv", shallow=False)
    first = read_json(tmp_path / "a_report.json")
    second = read_json(tmp_path / "b_report.json")
    first.pop("wall_time_s")
    second.pop("wall_time_s")
    assert first == second


def test_loss_history_does_not_depend_on_blas_threads(tmp_path):
    # The head reduction goes through BLAS.  One process on one BLAS
    # thread and one on two must write the same loss history byte for
    # byte, as the benchmark's pass-to-pass check and the goldens assume.
    src = str(Path(eqnn.__file__).resolve().parents[1])
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    code = "import sys; from eqnn.cli import main; sys.exit(main())"
    args = ["train", "--gen", "--per-class", "50", "--iters", "5",
            "--optimizer", "aqgd", "--model", "benchmark", "--seed", "3"]
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": path}
        env.update(dict.fromkeys(
            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), threads))
        result = subprocess.run(
            [sys.executable, "-c", code, *args, "--out", str(tmp_path / threads)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == 0, result.stderr
    assert (tmp_path / "1_loss.csv").read_bytes() == (tmp_path / "2_loss.csv").read_bytes()


def test_seed_env_fallback(runner, tmp_path):
    prefix = tmp_path / "env"
    run(
        runner,
        ["train", "--model", "eqnn1", "--gen", "--per-class", "10",
         "--iters", "3", "--out", str(prefix)],
        env={"EQNN_SEED": "7"},
    )
    assert read_json(tmp_path / "env_report.json")["seed"] == 7


@pytest.mark.parametrize(
    "args, env",
    [
        (["fit-activation", "--target", "linear", "--iters", "2", "--seed", "-1"], {}),
        (["train", "--model", "eqnn1", "--gen", "--iters", "2"], {"EQNN_SEED": "-5"}),
    ],
)
def test_negative_seed_is_a_usage_error(runner, tmp_path, args, env):
    # numpy's generators take non-negative seeds only; the flag and its
    # environment fallback are both refused before anything runs.
    result = runner.invoke(main, [*args, "--out", str(tmp_path / "run")], env=env)
    assert result.exit_code == 2, result.output
    assert "--seed" in result.output
    assert list(tmp_path.iterdir()) == []


# --------------------------------------------------------------------------
# reproduce


def expected_reproduction_files():
    names = {"table2.json", "table3.json", "summary.md"}
    names |= {f"fit_{t}_loss.csv" for t in ("linear", "sigmoid", "tanh")}
    names |= {
        f"{m}_{o}_loss.csv"
        for m in ("benchmark", "eqnn1", "eqnn2", "eqnn3")
        for o in ("cobyla", "spsa", "aqgd")
    }
    return names


def test_reproduce_small_run_is_complete_and_stable(runner, tmp_path):
    first, second = tmp_path / "r1", tmp_path / "r2"
    for out_dir in (first, second):
        result = run(
            runner, ["reproduce", "--iters", "3", "--seed", "5", "--out", str(out_dir)]
        )
        assert "summary ->" in result.output
        assert {p.name for p in out_dir.iterdir()} == expected_reproduction_files()

    for name in sorted(expected_reproduction_files()):
        assert (first / name).read_bytes() == (second / name).read_bytes(), name

    table2 = read_json(first / "table2.json")
    totals = {m: c["total"] for m, c in table2["gate_counts"].items()}
    assert totals == {"benchmark": 18, "eqnn1": 10, "eqnn2": 13, "eqnn3": 16}

    table3 = read_json(first / "table3.json")
    assert set(table3["accuracy"]) == {"benchmark", "eqnn1", "eqnn2", "eqnn3"}
    for per_model in table3["accuracy"].values():
        assert set(per_model) == {"cobyla", "spsa", "aqgd"}
        for value in per_model.values():
            assert 0.0 <= value <= 1.0

    summary = (first / "summary.md").read_text()
    assert "## Gate counts" in summary
    assert "## Classification accuracy" in summary
    assert "wall" not in summary.lower()


def test_reproduce_loss_files_have_requested_length(runner, tmp_path):
    out_dir = tmp_path / "rep"
    run(runner, ["reproduce", "--iters", "4", "--seed", "2", "--out", str(out_dir)])
    for name in ("eqnn1_aqgd_loss.csv", "fit_linear_loss.csv"):
        lines = Path(out_dir / name).read_text().strip().split("\n")
        assert lines[0] == "iteration,loss"
        assert len(lines) == 1 + 4

"""Command-line front end.

Four commands:

* ``gate-count``      — circuit-size table for the named models.
* ``fit-activation``  — train the 1-qubit model against a target
  function (linear / sigmoid / tanh) and write the fitted curve.
* ``train``           — train a two-qubit classifier on a CSV dataset
  or freshly generated synthetic data; write loss history + report.
* ``reproduce``       — the full 4-model x 3-optimizer matrix plus the
  three activation fits, as one batch of artifacts.

Conventions: every report is JSON with a ``"schema": 1`` marker and
sorted keys; files are written atomically (temp + rename); reruns with
the same flags and seed are byte-identical except for the
``wall_time_s`` field, which is the wall time of the whole command,
first-use imports included: the first COBYLA run in a process also pays
for importing ``scipy.optimize``.  Exit codes: 0 ok, 1 runtime/I-O
failure, 2 usage error.  ``EQNN_SEED`` provides the default seed.
"""

from __future__ import annotations

import functools
import json
import os
import time

import click
import numpy as np

from . import __version__
from .circuit import circuit_to_dict, diagram
from .data import (
    Dataset,
    _write_atomic,
    gen_linear,
    gen_sigmoid,
    gen_tanh,
    gen_two_class_usage,
    load_csv,
    split_dataset,
)
from .errors import EqnnError
from .errors import UsageError as PkgUsageError
from .optim import (
    OPTIMIZER_NAMES,
    OptimizerConfig,
    initial_weights,
    make_objective,
    minimize,
)
from .qnn import (
    CROSS_ENTROPY,
    MODEL_NAMES,
    SQUARED_ERROR,
    QnnModel,
    accuracy,
    batch_loss,
    build_model,
    decide,
    gate_summary,
    predict_probs,
    predict_regression,
    simplified_model,
)

SCHEMA = 1

FIT_GENERATORS = {"linear": gen_linear, "sigmoid": gen_sigmoid, "tanh": gen_tanh}

_seed_option = click.option(
    "--seed",
    type=int,
    default=42,
    envvar="EQNN_SEED",
    show_default=True,
    help="PRNG seed (env fallback: EQNN_SEED).",
)


def _friendly_errors(f):
    """Map package errors onto click's exit-code conventions."""

    @functools.wraps(f)
    def wrapper(*args, **kwargs):
        try:
            return f(*args, **kwargs)
        except PkgUsageError as exc:
            raise click.UsageError(str(exc)) from exc
        except (EqnnError, OSError) as exc:
            raise click.ClickException(str(exc)) from exc

    return wrapper


def _write_json(path: str, payload: dict):
    _write_atomic(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_loss_csv(path: str, losses):
    lines = ["iteration,loss"]
    lines += [f"{i},{repr(float(v))}" for i, v in enumerate(losses, start=1)]
    _write_atomic(path, "\n".join(lines) + "\n")


def _report(model: QnnModel, optimizer: str, seed: int, trace, final_loss: float) -> dict:
    return {
        "schema": SCHEMA,
        "model": model.name,
        "optimizer": optimizer,
        "seed": seed,
        "gate_counts": gate_summary(model),
        "iterations": trace.iterations,
        "evaluations": trace.evaluations,
        "final_loss": final_loss,
        "loss_history": [float(v) for v in trace.losses],
        "trained_weights": [float(v) for v in trace.final_weights],
    }


def _train_once(model: QnnModel, kind: str, dataset: Dataset, optimizer: str,
                iters: int, seed: int):
    objective = make_objective(model, dataset, kind)
    w0 = initial_weights(model.n_weights, seed)
    config = OptimizerConfig(kind=optimizer, max_iters=iters, seed=seed)
    trace = minimize(objective, w0, config)
    return trace, batch_loss(model, trace.final_weights, dataset, kind)


def _sampled_accuracy(model: QnnModel, w, dataset: Dataset, shots: int, seed: int) -> float:
    """Accuracy under shot noise: finite samples of each measurement.

    Only the parity of each shot decides the class, so the number of
    even-parity shots per row is one binomial draw on P(even).
    """
    rng = np.random.default_rng(seed)
    p_even = np.clip(predict_probs(model, dataset.features_array(), w)[:, 0], 0.0, 1.0)
    sampled_even = rng.binomial(shots, p_even) / shots
    predicted = decide(sampled_even, 1.0 - sampled_even)
    return float(np.mean(predicted == dataset.targets_array().astype(int)))


@click.group()
@click.version_option(version=__version__, prog_name="eqnn")
def main():
    """Variational quantum neural network toolkit."""


# --------------------------------------------------------------------------
# gate-count


@main.command("gate-count")
@click.option(
    "--model",
    "model_name",
    type=click.Choice(MODEL_NAMES + ("all",)),
    default="all",
    show_default=True,
)
@click.option("--out", type=click.Path(dir_okay=False), default=None,
              help="Also write the table as JSON.")
@click.option("--dump-circuit", is_flag=True, help="Print circuit diagrams too.")
@_friendly_errors
def cmd_gate_count(model_name: str, out: str | None, dump_circuit: bool):
    """Show feature-map / variational / total gate counts."""
    names = MODEL_NAMES if model_name == "all" else (model_name,)
    models = [build_model(name) for name in names]
    click.echo(f"{'model':<10} {'feature_map':>11} {'variational':>11} {'total':>5}")
    for model in models:
        counts = gate_summary(model)
        click.echo(
            f"{model.name:<10} {counts['feature_map']:>11} "
            f"{counts['variational']:>11} {counts['total']:>5}"
        )
    if dump_circuit:
        for model in models:
            click.echo(f"\n{model.name}:")
            click.echo(diagram(model.circuit))
    if out:
        _write_json(out, {
            "schema": SCHEMA,
            "gate_counts": {m.name: gate_summary(m) for m in models},
        })


# --------------------------------------------------------------------------
# fit-activation


@main.command("fit-activation")
@click.option("--target", type=click.Choice(tuple(FIT_GENERATORS)), required=True)
@click.option("--optimizer", type=click.Choice(OPTIMIZER_NAMES), default="aqgd",
              show_default=True)
@click.option("--iters", type=click.IntRange(min=1), default=100, show_default=True)
@click.option("--n-samples", type=click.IntRange(min=1), default=200, show_default=True)
@_seed_option
@click.option("--out", "out_prefix", default=None,
              help="Output prefix [default: the target name].")
@_friendly_errors
def cmd_fit_activation(target: str, optimizer: str, iters: int, n_samples: int,
                       seed: int, out_prefix: str | None):
    """Fit the 1-qubit model to a target function; write curve + report."""
    started = time.perf_counter()
    prefix = out_prefix or target
    dataset = FIT_GENERATORS[target](n_samples, seed)
    model = simplified_model()
    trace, final_mse = _train_once(model, SQUARED_ERROR, dataset, optimizer, iters, seed)

    x = dataset.features_array()
    order = np.argsort(x[:, 0], kind="stable")
    y_pred = predict_regression(model, x, trace.final_weights)
    y_true = dataset.targets_array()
    lines = ["x,y_true,y_pred"]
    lines += [
        f"{repr(float(x[i, 0]))},{repr(float(y_true[i]))},{repr(float(y_pred[i]))}"
        for i in order
    ]
    _write_atomic(f"{prefix}_fit.csv", "\n".join(lines) + "\n")

    report = _report(model, optimizer, seed, trace, final_mse)
    report["target"] = target
    report["n_samples"] = len(dataset)
    report["wall_time_s"] = time.perf_counter() - started
    _write_json(f"{prefix}_report.json", report)
    click.echo(
        f"{target}: mse {final_mse:.6g}, trained weights "
        f"{[round(float(v), 6) for v in trace.final_weights]} -> {prefix}_report.json"
    )


# --------------------------------------------------------------------------
# train


@main.command("train")
@click.option("--model", "model_name", type=click.Choice(MODEL_NAMES), required=True)
@click.option("--optimizer", type=click.Choice(OPTIMIZER_NAMES), default="aqgd",
              show_default=True)
@click.option("--iters", type=click.IntRange(min=1), default=100, show_default=True)
@click.option("--data", "data_path", type=click.Path(exists=True, dir_okay=False),
              default=None, help="Dataset CSV (see data module format).")
@click.option("--gen", "generate", is_flag=True,
              help="Generate the synthetic two-class dataset instead of reading --data.")
@click.option("--per-class", type=click.IntRange(min=1), default=500, show_default=True,
              help="Samples per class with --gen.")
@_seed_option
@click.option("--split", type=click.FloatRange(0.0, 1.0, min_open=True, max_open=True),
              default=None, help="Hold out this fraction for a test accuracy.")
@click.option("--shots", type=click.IntRange(min=1), default=None,
              help="Also report accuracy under N-shot sampled measurement.")
@click.option("--rescale", type=click.Choice(("default", "wide")), default="default",
              show_default=True, help="Input rescale of the economical encoder.")
@click.option("--out", "out_prefix", default=None,
              help="Output prefix [default: <model>_<optimizer>].")
@click.option("--dump-circuit", is_flag=True, help="Write the bound-circuit JSON too.")
@_friendly_errors
def cmd_train(model_name: str, optimizer: str, iters: int, data_path: str | None,
              generate: bool, per_class: int, seed: int, split: float | None,
              shots: int | None, rescale: str, out_prefix: str | None,
              dump_circuit: bool):
    """Train a two-qubit classifier; write loss history + report."""
    started = time.perf_counter()
    if generate == (data_path is not None):
        raise click.UsageError("pass exactly one of --data PATH or --gen")
    dataset = gen_two_class_usage(per_class, seed) if generate else load_csv(data_path)
    if dataset.kind != "classification":
        raise click.UsageError(
            f"train needs a classification dataset, got kind={dataset.kind!r}"
        )
    if dataset.n_features != 2:
        raise click.UsageError(
            f"train needs 2-feature samples, got {dataset.n_features}"
        )
    test_set = None
    if split is not None:
        dataset, test_set = split_dataset(dataset, split, seed)

    model = build_model(model_name, rescale=rescale)
    prefix = out_prefix or f"{model_name}_{optimizer}"
    trace, final_loss = _train_once(model, CROSS_ENTROPY, dataset, optimizer, iters, seed)
    train_accuracy = accuracy(model, trace.final_weights, dataset)

    report = _report(model, optimizer, seed, trace, final_loss)
    report["accuracy"] = train_accuracy
    report["n_samples"] = len(dataset)
    report["rescale"] = rescale
    if test_set is not None:
        report["test_accuracy"] = accuracy(model, trace.final_weights, test_set)
        report["n_test_samples"] = len(test_set)
    if shots is not None:
        report["shots"] = shots
        report["accuracy_sampled"] = _sampled_accuracy(
            model, trace.final_weights, dataset, shots, seed
        )
    _write_loss_csv(f"{prefix}_loss.csv", trace.losses)
    if dump_circuit:
        _write_json(f"{prefix}_circuit.json", {
            "schema": SCHEMA,
            "model": model.name,
            "feature_map": circuit_to_dict(model.feature_map),
            "variational": circuit_to_dict(model.variational),
            "diagram": diagram(model.circuit).split("\n"),
        })
    report["wall_time_s"] = time.perf_counter() - started
    _write_json(f"{prefix}_report.json", report)
    message = f"{model_name} + {optimizer}: accuracy {train_accuracy:.4f}"
    if test_set is not None:
        message += f" (test {report['test_accuracy']:.4f})"
    click.echo(message + f", final loss {final_loss:.6g} -> {prefix}_report.json")


# --------------------------------------------------------------------------
# reproduce


@main.command("reproduce")
@_seed_option
@click.option("--iters", type=click.IntRange(min=1), default=100, show_default=True)
@click.option("--out", "out_dir", type=click.Path(file_okay=False),
              default="reproduction", show_default=True)
@_friendly_errors
def cmd_reproduce(seed: int, iters: int, out_dir: str):
    """Run every experiment and drop all artifacts into one directory."""
    path = functools.partial(os.path.join, out_dir)

    models = {name: build_model(name) for name in MODEL_NAMES}
    _write_json(path("table2.json"), {
        "schema": SCHEMA,
        "gate_counts": {name: gate_summary(m) for name, m in models.items()},
    })
    click.echo(f"gate counts -> {path('table2.json')}")

    fit_rows = []
    for target in FIT_GENERATORS:
        dataset = FIT_GENERATORS[target](200, seed)
        model = simplified_model()
        trace, mse = _train_once(model, SQUARED_ERROR, dataset, "aqgd", iters, seed)
        _write_loss_csv(path(f"fit_{target}_loss.csv"), trace.losses)
        fit_rows.append((target, mse, float(trace.final_weights[0])))
        click.echo(f"fit {target}: mse {mse:.6g}")

    table3: dict[str, dict[str, float]] = {}
    dataset = gen_two_class_usage(500, seed)
    for name, model in models.items():
        table3[name] = {}
        for optimizer in OPTIMIZER_NAMES:
            trace, final_loss = _train_once(
                model, CROSS_ENTROPY, dataset, optimizer, iters, seed
            )
            acc = accuracy(model, trace.final_weights, dataset)
            table3[name][optimizer] = acc
            _write_loss_csv(path(f"{name}_{optimizer}_loss.csv"), trace.losses)
            click.echo(f"{name} + {optimizer}: accuracy {acc:.4f}")
    _write_json(path("table3.json"), {"schema": SCHEMA, "accuracy": table3})

    lines = [
        "# Reproduction summary",
        "",
        f"Seed {seed}; {iters} iterations per training run; in-sample accuracy.",
        "",
        "## Gate counts",
        "",
        "| model | feature map | variational | total |",
        "|---|---|---|---|",
    ]
    for name, model in models.items():
        counts = gate_summary(model)
        lines.append(
            f"| {name} | {counts['feature_map']} | {counts['variational']} "
            f"| {counts['total']} |"
        )
    lines += [
        "",
        "## Classification accuracy",
        "",
        "| model | " + " | ".join(OPTIMIZER_NAMES) + " |",
        "|---|" + "---|" * len(OPTIMIZER_NAMES),
    ]
    for name in models:
        cells = " | ".join(f"{table3[name][o]:.4f}" for o in OPTIMIZER_NAMES)
        lines.append(f"| {name} | {cells} |")
    lines += [
        "",
        "## Activation fits (1-qubit model, aqgd)",
        "",
        "| target | final mse | trained weight |",
        "|---|---|---|",
    ]
    for target, mse, weight in fit_rows:
        lines.append(f"| {target} | {mse:.6g} | {weight:.8f} |")
    _write_atomic(path("summary.md"), "\n".join(lines) + "\n")
    click.echo(f"summary -> {path('summary.md')}")


if __name__ == "__main__":
    main()

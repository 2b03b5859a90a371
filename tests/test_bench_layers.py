"""Every package name the benchmark uses exists, and its kernel layers fire.

The benchmark wraps public functions by name, so a renamed one leaves its
layer ``MISSING`` in a traced run; and its workloads call package names
directly, so a renamed one crashes a workload.  This reads the benchmark's
modules, read-only, so that such a rename fails here first.  A walk that
stopped calling ``statevector.kernel_cnot`` by that name would leave the
layer ``MISSING`` too, so the calls that reach it are counted here, as
are the AQGD calls that reach ``optim.parameter_shift_gradient``,
``qnn.batch_loss`` and ``statevector.kernel_ry``, and the SPSA calls that
reach ``qnn.batch_losses``.
"""

import importlib
import importlib.util
import inspect
import re
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import eqnn.cli  # noqa: F401  (imports every layer module)
from eqnn import optim, qnn, statevector
from eqnn.circuit import build_real_amplitudes
from eqnn.data import gen_two_class_usage
from eqnn.optim import OptimizerConfig, initial_weights, make_objective, minimize
from eqnn.qnn import CROSS_ENTROPY, batch_loss, build_model, probabilities_batch, simulate

BENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"_bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def is_public_function(name):
    module = sys.modules[f"eqnn.{name.split('.')[0]}"]
    value = getattr(module, name.split(".")[1], None)
    return inspect.isfunction(value) and value.__module__ == module.__name__


def test_every_traced_name_is_a_public_function_and_every_expected_layer_is_traced():
    run, tracer, workloads = load("run"), load("tracer"), load("workloads")
    names = {name for names in run.LAYERS.values() for name in names} | set(tracer.EXTRAS)
    assert sorted(name for name in names if not is_public_function(name)) == []
    for workload in workloads.WORKLOADS.values():
        assert set(workload.expected_layers) - set(run.LAYERS) == set(), workload.name


def test_every_package_name_the_benchmark_uses_directly_resolves():
    used = {
        match.groups()
        for path in BENCH.glob("*.py")
        for match in re.finditer(r"eqnn\.([a-z_]+)\.(\w+)", path.read_text())
    }
    assert used
    missing = [
        f"{module}.{name}"
        for module, name in sorted(used)
        if not hasattr(importlib.import_module(f"eqnn.{module}"), name)
    ]
    assert missing == []


def count_cnot_calls(monkeypatch) -> list:
    """Record every call that reaches ``statevector.kernel_cnot`` by its module name.

    The benchmark's tracer patches that name, as this does, so these are
    the calls its ``statevector.kernel_cnot`` layer counts.
    """
    calls = []
    original = statevector.kernel_cnot

    def spy(amps, control, target, out=None, _views=None):
        calls.append((control, target))
        return original(amps, control, target, out, _views=_views)

    monkeypatch.setattr(statevector, "kernel_cnot", spy)
    return calls


def test_a_wide_walk_reaches_kernel_cnot_once_per_cnot_run(monkeypatch):
    # RealAmplitudes(16, 3) has three chains of 15 CNOTs between its RY
    # layers: each chain is one call, so the layer never reads MISSING.
    calls = count_cnot_calls(monkeypatch)
    circuit = build_real_amplitudes(16, 3)
    simulate(circuit, (), np.linspace(-1.0, 1.0, circuit.weight_arity))
    assert len(calls) == 3
    assert all(len(control) == len(target) == 15 for control, target in calls)


def test_the_benchmark_model_reaches_kernel_cnot_once_per_cnot(monkeypatch):
    # No two CNOTs of the benchmark model are adjacent, so each is its own
    # call, in a prediction and in a training loss (which encodes through
    # the feature map and then walks the variational circuit) alike.
    calls = count_cnot_calls(monkeypatch)
    model = build_model("benchmark")
    w = np.linspace(-1.0, 1.0, model.n_weights)
    cnots = [g for g in model.circuit.gates if g.name == "cnot"]
    probabilities_batch(model, np.zeros((3, model.n_inputs)), w)
    assert len(calls) == len(cnots) == 5
    calls.clear()
    batch_loss(model, w, gen_two_class_usage(per_class=2, seed=1), CROSS_ENTROPY)
    assert len(calls) == len(cnots)


def count_calls(monkeypatch, *layers) -> list:
    """Record the name of every call that reaches one of the ``(module, name)`` layers."""
    calls = []
    for module, name in layers:

        def spy(*args, _original=getattr(module, name), _name=name, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, spy)
    return calls


KERNELS = ("kernel_h", "kernel_phase", "kernel_ry", "kernel_cnot")


def kernels_of(gates) -> Counter:
    """The kernel each of ``gates`` runs in, once per gate and once per run of CNOTs."""
    return Counter(
        f"kernel_{g.name}" for k, g in enumerate(gates)
        if not (g.name == "cnot" and k + 1 < len(gates) and gates[k + 1].name == "cnot")
    )


@pytest.mark.parametrize("name", qnn.MODEL_NAMES)
def test_every_walk_reaches_each_kernel_by_module_name_once_per_gate(monkeypatch, name):
    # A compiled walk runs its steps through ``qnn._apply``, which calls each
    # kernel by its ``statevector`` name, so the benchmark's kernel layers see
    # every gate of a loss, of an SPSA stack and of a prediction once (1000
    # rows are one block), and every step of a gradient's forked legs once.
    model = build_model(name)
    dataset = gen_two_class_usage(per_class=500, seed=3)
    problem = qnn._Problem(model, dataset, CROSS_ENTROPY)
    w = initial_weights(model.n_weights, seed=3)
    calls = count_calls(monkeypatch, *((statevector, kernel) for kernel in KERNELS))
    batch_loss(model, w, dataset, CROSS_ENTROPY, _problem=problem)
    assert Counter(calls) == kernels_of(model.variational.gates)
    calls.clear()
    qnn.batch_losses(model, np.vstack([w, w + 0.1, w - 0.1]), dataset, CROSS_ENTROPY,
                     _problem=problem)
    assert Counter(calls) == kernels_of(model.variational.gates)
    calls.clear()
    qnn.predict_probs(model, dataset.features_array(), w)
    assert Counter(calls) == kernels_of(model.circuit.gates)
    calls.clear()
    optim.parameter_shift_gradient(model, w, dataset, CROSS_ENTROPY, _problem=problem)
    (_, _, legs, _), = (plan for key, plan in problem.plans.items() if key[0][0] > 3)
    steps = Counter(f"kernel_{step[0]}" for leg_steps, _, _ in legs for step in leg_steps)
    assert Counter(calls) == steps
    gates = kernels_of(model.variational.gates)
    assert all(steps[kernel] >= count for kernel, count in gates.items())
    assert steps["kernel_ry"] > gates["kernel_ry"]  # the legs of the shifted rows


def test_an_aqgd_run_reaches_the_gradient_and_loss_layers(monkeypatch):
    # Three AQGD steps take three gradients, whose base rows give the losses
    # at w1 and w2, and one plain loss at w3.  A gradient of eqnn1's two RY
    # layers reaches ``kernel_ry`` six times: the base row and the four rows
    # shifted in the first layer walk both layers together, leaving a copy
    # of the base row's state after the first, and the base row and the
    # four rows shifted in the second walk the second layer from that copy.
    calls = count_calls(
        monkeypatch,
        (optim, "parameter_shift_gradient"),
        (qnn, "batch_loss"),
        (statevector, "kernel_ry"),
    )
    model = build_model("eqnn1")
    objective = make_objective(model, gen_two_class_usage(per_class=5, seed=2), CROSS_ENTROPY)
    w0 = initial_weights(model.n_weights, seed=2)
    minimize(objective, w0, OptimizerConfig(kind="aqgd", max_iters=3))
    assert calls.count("parameter_shift_gradient") == 3
    assert calls.count("batch_loss") == 1
    calls.clear()
    objective.value_and_grad(w0)
    assert sum(g.name == "ry" for g in model.variational.gates) == 4
    assert calls == ["parameter_shift_gradient"] + ["kernel_ry"] * 6


def test_an_spsa_run_reaches_the_stacked_loss_once_per_step(monkeypatch):
    # One stack of the 40 calibration rows, one stack per step (its two
    # probes, and from the second step on the iterate whose loss the step
    # before records), and one plain loss at the last iterate.
    calls = count_calls(monkeypatch, (qnn, "batch_loss"), (qnn, "batch_losses"))
    model = build_model("eqnn1")
    objective = make_objective(model, gen_two_class_usage(per_class=5, seed=2), CROSS_ENTROPY)
    w0 = initial_weights(model.n_weights, seed=2)
    trace = minimize(objective, w0, OptimizerConfig(kind="spsa", max_iters=4))
    assert calls == ["batch_losses"] * (1 + 4) + ["batch_loss", "batch_losses"]
    assert trace.evaluations == 40 + 3 * 4

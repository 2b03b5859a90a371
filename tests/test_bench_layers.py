"""Every layer the benchmark traces names a public function of the package.

The benchmark wraps public functions by name, so a renamed one leaves its
layer ``MISSING`` in a traced run.  This loads the benchmark's modules,
read-only, so that such a rename fails here first.
"""

import importlib.util
import inspect
import sys
from pathlib import Path

import eqnn.cli  # noqa: F401  (imports every layer module)

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

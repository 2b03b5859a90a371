"""Every package name the benchmark uses exists.

The benchmark wraps public functions by name, so a renamed one leaves its
layer ``MISSING`` in a traced run; and its workloads call package names
directly, so a renamed one crashes a workload.  This reads the benchmark's
modules, read-only, so that such a rename fails here first.
"""

import importlib
import importlib.util
import inspect
import re
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

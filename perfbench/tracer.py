"""Outside-in span tracer for the eqnn package.

The tracer wraps the public functions of the package modules from the
outside: it replaces every reference to such a function in every
package namespace (``from ... import`` copies and module-level dict
values included) with a wrapper that records one span per call, and
puts the originals back on ``uninstall``.  Nothing in ``src/`` knows it
is being traced.

A span is (name, start, end, parent span, operation id).  Spans are kept
in compact in-memory arrays while the benchmark runs and written out once
at the end; self time (a span's duration minus the part its child spans
cover) is derived from them afterwards.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import os
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

# The package modules whose public functions become layers.
LAYER_MODULES = ("statevector", "circuit", "qnn", "optim", "data", "cli")


def _kernel_bytes(args, kwargs, result) -> int:
    """Bytes of the kernel's input and output arrays (amplitudes and angles)."""
    total = result.nbytes
    for value in args:
        if isinstance(value, np.ndarray):
            total += value.nbytes
    for value in kwargs.values():
        if isinstance(value, np.ndarray):
            total += value.nbytes
    return total


def _rows_of_result(args, kwargs, result) -> int:
    return len(result)


def _save_csv_bytes(args, kwargs, result) -> int:
    return os.path.getsize(kwargs["path"] if "path" in kwargs else args[1])


# Counters recorded beside the spans: span name -> ((counter, value of one call), ...).
EXTRAS = {
    **{f"statevector.{k}": (("bytes_computed", _kernel_bytes),)
       for k in ("kernel_h", "kernel_ry", "kernel_cnot", "kernel_phase")},
    "qnn.probabilities_batch": (("rows", _rows_of_result),),
    "data.load_csv": (("rows", _rows_of_result),),
    "data.save_csv": (("bytes", _save_csv_bytes),),
    "optim.minimize": (
        ("iterations", lambda args, kwargs, result: result.iterations),
        ("evaluations_reported", lambda args, kwargs, result: result.evaluations),
    ),
}


class Tracer:
    """Records spans for wrapped package functions and for harness operations."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_t0 = array("d")
        self.span_t1 = array("d")
        self.counters: dict[tuple[str, str], float] = defaultdict(float)
        self.op = -1
        self._stack: list[int] = []
        self._patches: list[tuple[dict, str, object]] = []
        self.wrapped: set[str] = set()

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one harness span, such as an operation's root."""
        idx = len(self.span_t0)
        self.span_name.append(self._name_id(name))
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_op.append(self.op)
        self.span_t1.append(0.0)
        self._stack.append(idx)
        self.span_t0.append(time.perf_counter())
        try:
            yield
        finally:
            self.span_t1[idx] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name: str, fn):
        name_id = self._name_id(name)
        extras = [((name, key), count) for key, count in EXTRAS.get(name, ())]
        counters = self.counters
        clock = time.perf_counter
        stack, span_name, span_parent = self._stack, self.span_name, self.span_parent
        span_op, span_t0, span_t1 = self.span_op, self.span_t0, self.span_t1

        def wrapper(*args, **kwargs):
            # A recursive call (``evaluate`` walking its own tree) stays
            # inside the outer span rather than opening one per node.
            if stack and span_name[stack[-1]] == name_id:
                return fn(*args, **kwargs)
            idx = len(span_t0)
            span_name.append(name_id)
            span_parent.append(stack[-1] if stack else -1)
            span_op.append(self.op)
            span_t1.append(0.0)
            stack.append(idx)
            span_t0.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                span_t1[idx] = clock()
                stack.pop()
            for key, count in extras:
                counters[key] += count(args, kwargs, result)
            return result

        return functools.update_wrapper(wrapper, fn)

    def install(self, package) -> None:
        """Wrap every public function of the layer modules, in every namespace."""
        namespaces = [vars(mod) for name, mod in sorted(sys.modules.items())
                      if name == package.__name__ or name.startswith(package.__name__ + ".")]
        wrappers: dict[int, object] = {}
        for short in LAYER_MODULES:
            mod = sys.modules[f"{package.__name__}.{short}"]
            for attr, value in sorted(vars(mod).items()):
                if (inspect.isfunction(value) and not attr.startswith("_")
                        and value.__module__ == mod.__name__):
                    wrappers[id(value)] = self._wrap(f"{short}.{attr}", value)
                    self.wrapped.add(f"{short}.{attr}")
        for namespace in namespaces:
            for attr, value in list(namespace.items()):
                if id(value) in wrappers:
                    self._patch(namespace, attr, value, wrappers[id(value)])
                elif isinstance(value, dict):  # e.g. cli.FIT_GENERATORS
                    for key, item in list(value.items()):
                        if id(item) in wrappers:
                            self._patch(value, key, item, wrappers[id(item)])

    def _patch(self, namespace: dict, key, original, replacement):
        self._patches.append((namespace, key, original))
        namespace[key] = replacement

    def uninstall(self) -> None:
        for namespace, key, original in reversed(self._patches):
            namespace[key] = original
        self._patches.clear()

    # ------------------------------------------------------------------
    # Derived views

    def arrays(self) -> dict[str, np.ndarray]:
        name = np.frombuffer(self.span_name, dtype=np.int32).copy()
        parent = np.frombuffer(self.span_parent, dtype=np.int32).copy()
        op = np.frombuffer(self.span_op, dtype=np.int32).copy()
        t0 = np.frombuffer(self.span_t0, dtype=np.float64).copy()
        t1 = np.frombuffer(self.span_t1, dtype=np.float64).copy()
        duration = t1 - t0
        child = parent >= 0
        covered = np.bincount(parent[child], weights=duration[child], minlength=len(t0))
        return {
            "name": name,
            "parent": parent,
            "op": op,
            "t0": t0,
            "t1": t1,
            "duration": duration,
            "self": duration - covered,
        }

    def write(self, path) -> None:
        """Write every span (and the name table) as one compressed archive."""
        spans = self.arrays()
        np.savez_compressed(
            path,
            names=np.array(self.names),
            **{k: spans[k] for k in ("name", "parent", "op", "t0", "t1")},
        )


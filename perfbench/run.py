"""eqnn benchmark: end-to-end metrics, or a traced per-layer breakdown.

Usage, from the repository root:

    python3 perfbench/run.py --workload reproduce --seed 42 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json, measured
with tracing off.  ``--trace 1`` alternates untraced and traced passes
and prints the per-layer metrics, derived from spans recorded by the
outside-in tracer.  Either way every operation's output is checked
against independent oracles, deliberately corrupted outputs must be
caught, and the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  A fuller record
(machine, versions, every metric, spans) goes to ``.perfbench_out/``.

The benchmark imports the package from ``src/`` of the checkout it sits
in, and refuses to run without it.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORK = ROOT / ".perfbench_work"
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 5  # one in the measuring process, the rest in fresh interpreters
MIN_PASSES = 2  # pass-to-pass identity needs two passes of one seed


class HarnessError(Exception):
    """The benchmark cannot run here; no result is printed."""


def cap_blas_threads() -> int:
    """Cap the BLAS thread variables at the CPUs this process may use."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        value = os.environ.get(var, "")
        if not value.isdigit() or not 1 <= int(value) <= nproc:
            os.environ[var] = str(nproc)
    return nproc


def import_eqnn():
    """Import the package from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "eqnn" / "__init__.py").is_file():
        raise HarnessError(f"no eqnn package under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import eqnn
    import eqnn.cli  # noqa: F401  (the command-line entry point is part of set-up)

    if Path(eqnn.__file__).resolve().parent != (SRC / "eqnn").resolve():
        raise HarnessError(f"imported eqnn from {eqnn.__file__}, not from {SRC}")
    return eqnn


def timed_setup(workload, seed: int, work: Path):
    started = time.perf_counter()
    eqnn = import_eqnn()
    state = workload.setup(eqnn, seed, work)
    return time.perf_counter() - started, eqnn, state


def probe_setup(workload: str, seed: int, work: Path) -> float:
    """Set-up time in a fresh interpreter, where ``import eqnn`` is cold."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", workload, "--seed", str(seed), "--work", str(work)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    if done.returncode != 0:
        raise HarnessError(f"set-up probe failed: {done.stderr.strip()[-500:]}")
    return float(done.stdout.strip().split("\n")[-1])


# --------------------------------------------------------------------------
# Passes


def run_pass(workloads, wl, eqnn, state, pass_dir: Path, tracer=None):
    """One pass of the workload's work list: (wall seconds, outcomes)."""
    pass_dir.mkdir(parents=True)
    ops = wl.operations(eqnn, state, pass_dir)
    outcomes = []
    started = time.perf_counter()
    for op in ops:
        error = output = None
        if tracer is not None:
            tracer.op += 1
        with tracer.span(op.root) if tracer is not None else contextlib.nullcontext():
            try:
                output = op.run()
            except Exception as exc:  # an operation that raises counts as failed
                error = f"{type(exc).__name__}: {exc}"
        outcomes.append(workloads.Outcome(op.label, error, op.out_dir or output))
    wall = time.perf_counter() - started
    return wall, outcomes


def digest(outcome, keep_output: bool, workloads) -> None:
    """Fingerprint an outcome; only the first pass keeps in-memory outputs."""
    import numpy as np

    out = outcome.output
    if isinstance(out, Path):
        payload = json.dumps(workloads.digest_dir(out), sort_keys=True).encode() \
            if out.is_dir() else b""
    elif isinstance(out, np.ndarray):
        payload = repr((out.shape, out.dtype.str)).encode() + out.tobytes()
        if not keep_output:
            outcome.output = None
    else:
        payload = b""
    outcome.digest = hashlib.sha256(payload).hexdigest()


def schedule_done(walls: list[float], elapsed: float, seconds: float, minimum: int) -> bool:
    """Stop once the minimum is met and another pass would overrun ``seconds``."""
    return len(walls) >= minimum and elapsed + statistics.median(walls) > seconds


# --------------------------------------------------------------------------
# Per-layer metrics from spans

KERNELS = ("kernel_h", "kernel_ry", "kernel_cnot", "kernel_phase")
GENERATORS = ("data.gen_linear", "data.gen_sigmoid", "data.gen_tanh",
              "data.gen_two_class_usage")
LAYERS = {
    **{f"statevector.{k}": (f"statevector.{k}",) for k in KERNELS},
    "circuit.evaluate": ("circuit.evaluate",),
    "circuit.bind": ("circuit.bind",),
    "qnn.probabilities_batch": ("qnn.probabilities_batch",),
    "qnn.simulate": ("qnn.simulate",),
    "qnn.batch_loss": ("qnn.batch_loss",),
    "qnn.accuracy": ("qnn.accuracy",),
    "optim.parameter_shift_gradient": ("optim.parameter_shift_gradient",),
    "optim.minimize": ("optim.minimize",),
    "data.generate": GENERATORS,
    "data.save_csv": ("data.save_csv",),
    "data.load_csv": ("data.load_csv",),
}
MODULES = ("statevector", "circuit", "qnn", "optim", "data", "cli", "bench")


def _percentile(values, q: float, scale: float, name: str, omitted: dict):
    """Percentile ``q`` only where at least ten samples lie beyond it."""
    import numpy as np

    if len(values) * (1.0 - q / 100.0) < 10:
        omitted[name] = f"{len(values)} samples"
        return None
    return float(np.percentile(values, q)) * scale


def layer_metrics(tracer, wl, rounds: int, pass_ops: set[int], traced_walls: list[float],
                  untraced_walls: list[float], cli_files: tuple[int, int]):
    """Per-layer metrics per traced round, plus the names that are missing or omitted."""
    import numpy as np

    spans = tracer.arrays()
    ids = {name: i for i, name in enumerate(tracer.names)}
    metrics: dict[str, float] = {}
    missing: dict[str, str] = {}
    omitted: dict[str, str] = {}

    def mask(fnames):
        wanted = [ids[n] for n in fnames if n in ids]
        return np.isin(spans["name"], wanted)

    def under(fname):
        """Spans with an ancestor named ``fname``."""
        flag = np.zeros(len(spans["name"]), dtype=bool)
        if fname not in ids:
            return flag
        is_name = spans["name"] == ids[fname]
        parent = spans["parent"]
        has_parent = parent >= 0
        while True:
            new = np.zeros_like(flag)
            p = parent[has_parent]
            new[has_parent] = is_name[p] | flag[p]
            if np.array_equal(new, flag):
                return flag
            flag = new

    for layer, fnames in LAYERS.items():
        m = mask(fnames)
        calls = int(m.sum())
        if not set(fnames) <= set(tracer.wrapped):
            missing[layer] = "no such public function to wrap"
            continue
        if calls == 0 and layer in wl.expected_layers:
            missing[layer] = "wrapper never fired on a workload that must reach it"
            continue
        metrics[f"{layer}.calls"] = calls / rounds
        metrics[f"{layer}.self_s"] = float(spans["self"][m].sum()) / rounds
        durations = spans["duration"][m]
        if layer.startswith("statevector."):
            metrics[f"{layer}.bytes_computed"] = tracer.counters[(layer, "bytes_computed")] / rounds
            for q in (50, 90):
                value = _percentile(durations, q, 1e6, f"{layer}.p{q}_us", omitted)
                if value is not None:
                    metrics[f"{layer}.p{q}_us"] = value
        if layer in ("qnn.probabilities_batch", "optim.parameter_shift_gradient"):
            for q in (50, 90):
                value = _percentile(durations, q, 1e3, f"{layer}.p{q}_ms", omitted)
                if value is not None:
                    metrics[f"{layer}.p{q}_ms"] = value
        if layer == "optim.parameter_shift_gradient":
            metrics[f"{layer}.total_s"] = float(durations.sum()) / rounds
        if layer in ("qnn.probabilities_batch", "data.load_csv"):
            metrics[f"{layer}.rows"] = tracer.counters[(layer, "rows")] / rounds
        if layer == "data.save_csv":
            metrics[f"{layer}.bytes"] = tracer.counters[(layer, "bytes")] / rounds

    passes = mask(("qnn.probabilities_batch",))
    if "optim.minimize" not in missing and "qnn.probabilities_batch" not in missing:
        metrics["optim.iterations"] = tracer.counters[("optim.minimize", "iterations")] / rounds
        metrics["optim.evaluations_reported"] = (
            tracer.counters[("optim.minimize", "evaluations_reported")] / rounds)
        metrics["optim.dataset_passes"] = int((passes & under("optim.minimize")).sum()) / rounds
    if ("optim.parameter_shift_gradient" not in missing
            and "qnn.probabilities_batch" not in missing):
        gradient_passes = int((passes & under("optim.parameter_shift_gradient")).sum())
        metrics["optim.gradient_passes"] = gradient_passes / rounds
        grads = metrics["optim.parameter_shift_gradient.calls"] * rounds
        if grads:
            metrics["optim.passes_per_grad"] = gradient_passes / grads
        else:
            omitted["optim.passes_per_grad"] = "no gradient calls"

    for module in MODULES:
        prefix = module + "."
        m = mask([n for n in tracer.names if n.startswith(prefix)])
        metrics[f"{module}.self_s"] = float(spans["self"][m].sum()) / rounds
    metrics["cli.files_written"] = cli_files[0] / rounds
    metrics["cli.bytes_written"] = cli_files[1] / rounds

    roots = np.isin(spans["op"], sorted(pass_ops)) & (spans["parent"] < 0)
    covered = float(spans["duration"][roots].sum())
    metrics["trace.unattributed_frac"] = 1.0 - covered / sum(traced_walls)
    metrics["trace.overhead_frac"] = (
        statistics.median(traced_walls) / statistics.median(untraced_walls) - 1.0)
    return metrics, missing, omitted


# --------------------------------------------------------------------------
# Run record


def run_record(args, wl, workloads, nproc: int) -> dict:
    import numpy
    import scipy

    record = {
        "workload": wl.name,
        "why": wl.why,
        "predictions": [{"layer_metrics": a, "moves": b} for a, b in workloads.PREDICTIONS],
        "load": "closed loop, one client, one operation at a time",
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": nproc,
        "cpu_model": None,
        "caches": [],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "git_commit": None,
        "source_sha256": hashlib.sha256(b"".join(
            p.relative_to(SRC).as_posix().encode() + b"\0" + p.read_bytes()
            for p in sorted(SRC.rglob("*.py")))).hexdigest(),
    }
    try:
        for line in Path("/proc/cpuinfo").read_text().split("\n"):
            if line.startswith("model name"):
                record["cpu_model"] = line.split(":", 1)[1].strip()
                break
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
            record["caches"].append(f"L{level} {kind} {size}")
    except OSError:
        pass
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                  text=True, timeout=30)
            record["git_commit"] = done.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return record


# --------------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run [default: run_seconds of BENCHMARK.json]")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--work", type=Path, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    nproc = cap_blas_threads()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise HarnessError(f"unknown workload {args.workload!r}; "
                           f"expected one of {sorted(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload]
    if args.setup_probe:
        seconds, _, _ = timed_setup(wl, args.seed, args.work)
        print(repr(seconds))
        return 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])

    work = WORK / f"{wl.name}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        return measure(args, wl, workloads, spec, work, nproc)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, wl, workloads, spec, work: Path, nproc: int) -> int:
    setup_main, eqnn, state = timed_setup(wl, args.seed, work / "setup")
    from tracer import Tracer

    setups = [setup_main]
    if not args.trace:
        setups += [probe_setup(wl.name, args.seed, work / f"probe{k}")
                   for k in range(1, SETUP_SAMPLES)]

    untraced: list[float] = []
    traced: list[float] = []
    passes: list[list] = []
    cpu: list[dict] = []
    tracer = Tracer()
    pass_ops: set[int] = set()
    traced_dirs: list[Path] = []

    def one_pass(pass_state, traced_by=None) -> float:
        pass_dir = work / f"pass{len(passes)}"
        before = resource.getrusage(resource.RUSAGE_SELF)
        wall, outcomes = run_pass(workloads, wl, eqnn, pass_state, pass_dir, traced_by)
        after = resource.getrusage(resource.RUSAGE_SELF)
        cpu.append({"traced": traced_by is not None, "wall_s": wall,
                    "user_s": after.ru_utime - before.ru_utime,
                    "sys_s": after.ru_stime - before.ru_stime,
                    "minor_faults": after.ru_minflt - before.ru_minflt})
        for outcome in outcomes:
            digest(outcome, not passes, workloads)
        passes.append(outcomes)
        return wall

    started = time.perf_counter()
    while True:
        untraced.append(one_pass(state))
        if args.trace:
            # A traced round repeats the set-up (all but the import) and a pass.
            tracer.install(eqnn)
            tracer.op += 1
            with tracer.span("bench.setup"):
                round_state = wl.setup(eqnn, args.seed, work / f"setup{len(passes)}")
            first_op = tracer.op + 1
            traced.append(one_pass(round_state, tracer))
            tracer.uninstall()
            pass_ops.update(range(first_op, tracer.op + 1))
            traced_dirs += [o.output for o in passes[-1] if isinstance(o.output, Path)]
        walls = [u + t for u, t in zip(untraced, traced)] if args.trace else untraced
        if schedule_done(walls, time.perf_counter() - started, args.seconds, MIN_PASSES):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    first = passes[0]
    attempted = failed = 0
    failures = []
    for number, outcomes in enumerate(passes):
        for outcome, reference in zip(outcomes, first):
            if outcome.error:
                outcome.checks = [outcome.error]
            else:
                try:
                    outcome.checks = wl.check(state, outcome, reference)
                except Exception as exc:  # an output the checks cannot read fails them
                    outcome.checks = [f"check raised {type(exc).__name__}: {exc}"]
            attempted += 1
            if outcome.failed:
                failed += 1
                failures.append(f"pass {number} {outcome.label}: {'; '.join(outcome.checks)}")
    self_checks = ([] if any(o.error for o in first)
                   else wl.self_check(state, first, work / "selfcheck"))
    undetected = [name for name, detected in self_checks if not detected]

    record = run_record(args, wl, workloads, nproc)
    result = {"record": record, "setup_samples_s": setups, "untraced_walls_s": untraced,
              "traced_walls_s": traced, "passes": cpu, "failures": failures,
              "self_checks": [{"corruption": n, "detected": d} for n, d in self_checks]}
    if args.trace:
        files = [workloads.dir_totals(d) for d in traced_dirs if d.is_dir()]
        cli_files = (sum(f[0] for f in files), sum(f[1] for f in files))
        measured, missing, omitted = layer_metrics(
            tracer, wl, len(traced), pass_ops, traced, untraced, cli_files)
        untraced_cpu = [c for c in cpu if not c["traced"]]
        measured["process.sys_s"] = statistics.median(c["sys_s"] for c in untraced_cpu)
        measured["process.minor_faults"] = statistics.median(
            c["minor_faults"] for c in untraced_cpu)
        listed = spec["per_layer"]
        result.update(missing=missing, omitted=omitted, all_metrics=measured)
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"{wl.name}-seed{args.seed}-spans.npz")
    else:
        measured = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(untraced),
            "peak_rss_mb": peak_rss_mb,
            "passed_frac": (attempted - failed) / attempted,
        }
        listed = spec["end_to_end"]
        missing = omitted = {}
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
               for m in listed if m["name"] in measured}
    summary = {
        "correct": failed == 0 and not undetected,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    result["summary"] = summary
    OUT.mkdir(exist_ok=True)
    (OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=2, sort_keys=True) + "\n")

    print(f"# {wl.name} seed {args.seed}: {len(untraced)} untraced, {len(traced)} traced "
          f"passes; setup samples {[round(s, 4) for s in setups]}")
    for line in failures:
        print(f"# FAILED {line}")
    for name, detected in self_checks:
        print(f"# self-check {'caught' if detected else 'MISSED'}: {name}")
    if args.trace:
        for name in sorted(measured):
            print(f"# {name:48s} {measured[name]:.6g}")
        for name, why in sorted(missing.items()):
            print(f"# MISSING {name}: {why}")
        for name, why in sorted(omitted.items()):
            print(f"# omitted {name}: {why}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except HarnessError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)

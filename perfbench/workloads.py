"""The benchmark's workloads: set-up, one pass of work, and output checks.

Each workload builds its inputs from the seed alone, runs a fixed work
list one operation at a time (closed loop, one client), and checks every
operation's output against the independent oracles in ``oracles.py``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import re
import shutil
from dataclasses import dataclass, field
from pathlib import Path

ITERS = 100

# Which end-to-end metric each layer metric should move, per workload.
PREDICTIONS = [
    ("optim.parameter_shift_gradient.*, optim.passes_per_grad",
     "wall_s on reproduce; no movement on train-csv or wide-register"),
    ("qnn.probabilities_batch.*, circuit.evaluate.*", "wall_s on train-csv and reproduce"),
    ("statevector.*.p50_us, statevector.*.calls",
     "wall_s on reproduce, where kernels are overhead-bound"),
    ("statevector.*.self_s, statevector.*.bytes_computed",
     "wall_s and peak_rss_mb on wide-register"),
    ("data.*", "setup_s everywhere, wall_s on train-csv"),
    ("cli.*", "wall_s on reproduce"),
    ("optim.minimize.self_s", "wall_s on train-csv"),
    ("any encoding cache or stacked pass", "peak_rss_mb on train-csv and wide-register"),
]


@dataclass
class Op:
    """One operation of a pass: a CLI command or a library call."""

    label: str
    root: str  # name of the harness span around it
    run: object  # zero-argument callable
    out_dir: Path | None = None


@dataclass
class Outcome:
    label: str
    error: str | None
    output: object = None
    digest: str = ""
    checks: list[str] = field(default_factory=list)  # failed checks

    @property
    def failed(self) -> bool:
        return self.error is not None or bool(self.checks)


def invoke_cli(eqnn, args: list[str]) -> None:
    """Run one ``eqnn`` command in-process as a user would; raise unless it exits 0."""
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            eqnn.cli.main.main(args=args, prog_name="eqnn", standalone_mode=True)
        except SystemExit as exc:
            if exc.code not in (0, None):
                raise RuntimeError(f"eqnn {args[0]} exited with {exc.code}") from None


def digest_dir(path: Path) -> dict[str, str]:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(path.iterdir())
        if p.is_file()
    }


def dir_totals(path: Path) -> tuple[int, int]:
    files = [p for p in path.iterdir() if p.is_file()]
    return len(files), sum(p.stat().st_size for p in files)


def _close(got: float, want: float, rtol: float = 1e-9, atol: float = 1e-12) -> bool:
    return math.isfinite(got) and abs(got - want) <= atol + rtol * abs(want)


def read_loss_csv(path: Path) -> list[float]:
    lines = path.read_text().split("\n")
    if lines[0] != "iteration,loss" or lines[-1] != "":
        raise ValueError(f"{path.name}: bad header or missing final newline")
    values = []
    for number, line in enumerate(lines[1:-1], start=1):
        index, value = line.split(",")
        if int(index) != number or not math.isfinite(float(value)):
            raise ValueError(f"{path.name}: bad row {number}: {line!r}")
        values.append(float(value))
    return values


class Workload:
    name = ""
    why = ""
    expected_layers: tuple[str, ...] = ()

    def setup(self, eqnn, seed: int, work: Path):
        """Everything a run needs before its first pass (beyond importing eqnn)."""
        raise NotImplementedError

    def operations(self, eqnn, state, pass_dir: Path) -> list[Op]:
        raise NotImplementedError

    def check(self, state, outcome: Outcome, first: Outcome) -> list[str]:
        """Failed checks of one operation; ``first`` is the same operation in pass 0."""
        raise NotImplementedError

    def self_check(self, state, first_pass: list[Outcome], scratch: Path) -> list[tuple[str, bool]]:
        """Corrupt known-good outputs; return (corruption, was it detected)."""
        raise NotImplementedError


# --------------------------------------------------------------------------
# reproduce


FIT_TARGETS = ("linear", "sigmoid", "tanh")
MODELS = ("benchmark", "eqnn1", "eqnn2", "eqnn3")
OPTIMIZERS = ("cobyla", "spsa", "aqgd")
REPRODUCE_FILES = sorted(
    ["table2.json", "table3.json", "summary.md"]
    + [f"fit_{t}_loss.csv" for t in FIT_TARGETS]
    + [f"{m}_{o}_loss.csv" for m in MODELS for o in OPTIMIZERS]
)
_FIT_ROW = re.compile(r"^\| (\w+) \| (\S+) \| (\S+) \|$")


class Reproduce(Workload):
    name = "reproduce"
    why = (
        "The paper's whole experiment and what users rerun: 12 classifier runs on "
        "1000 rows and 3 one-qubit fits on 200 rows. Time goes to the AQGD "
        "parameter-shift gradient and to tens of thousands of kernel calls on "
        "(<=1000, 4) arrays, i.e. per-call overhead."
    )
    expected_layers = (
        "statevector.kernel_h", "statevector.kernel_ry", "statevector.kernel_cnot",
        "statevector.kernel_phase", "circuit.evaluate", "qnn.probabilities_batch",
        "qnn.batch_loss", "qnn.accuracy", "optim.parameter_shift_gradient",
        "optim.minimize", "data.generate",
    )

    def setup(self, eqnn, seed, work):
        # The command builds its own models and data; building them here too
        # puts model build and data generation into setup_s on every workload.
        models = [eqnn.qnn.build_model(name) for name in MODELS]
        models.append(eqnn.qnn.simplified_model())
        datasets = [eqnn.data.gen_two_class_usage(500, seed)]
        datasets += [eqnn.cli.FIT_GENERATORS[t](200, seed) for t in FIT_TARGETS]
        return {"seed": seed, "models": models, "datasets": datasets}

    def operations(self, eqnn, state, pass_dir):
        out = pass_dir / "reproduction"
        args = ["reproduce", "--iters", str(ITERS), "--seed", str(state["seed"]),
                "--out", str(out)]
        return [Op("reproduce", "cli.reproduce", lambda: invoke_cli(eqnn, args), out)]

    def check(self, state, outcome, first):
        from oracles import GATE_COUNTS, fit_mse

        out = outcome.output
        failures = []
        names = sorted(p.name for p in out.iterdir())
        if names != REPRODUCE_FILES:
            return [f"artifact set differs: {sorted(set(names) ^ set(REPRODUCE_FILES))}"]
        if outcome.digest != first.digest:
            failures.append("artifacts differ from the first pass of the same seed")
        try:
            table2 = json.loads((out / "table2.json").read_text())
            table3 = json.loads((out / "table3.json").read_text())
            for model, (fm, var, total) in GATE_COUNTS.items():
                if table2["gate_counts"][model] != {
                        "feature_map": fm, "variational": var, "total": total}:
                    failures.append(f"table2 gate counts wrong for {model}")
                for opt in OPTIMIZERS:
                    if not 0.0 <= table3["accuracy"][model][opt] <= 1.0:
                        failures.append(f"table3 accuracy out of range: {model}/{opt}")
            if table2["schema"] != 1 or table3["schema"] != 1:
                failures.append("report schema is not 1")
            final_fit_loss = {}
            for name in REPRODUCE_FILES:
                if not name.endswith("_loss.csv"):
                    continue
                losses = read_loss_csv(out / name)
                exact = not name.endswith("cobyla_loss.csv")
                if (len(losses) != ITERS) if exact else not 1 <= len(losses) <= ITERS:
                    failures.append(f"{name}: {len(losses)} iterations")
                if name.startswith("fit_"):
                    final_fit_loss[name[4:-9]] = losses[-1]
            summary = (out / "summary.md").read_text().split("\n")
            fits = {m.group(1): (float(m.group(2)), float(m.group(3)))
                    for m in map(_FIT_ROW.match, summary) if m and m.group(1) in FIT_TARGETS}
            if sorted(fits) != sorted(FIT_TARGETS):
                failures.append("summary.md lacks the activation-fit rows")
            for target, (mse, weight) in fits.items():
                want = fit_mse(target, 200, state["seed"], weight)
                if not _close(mse, want, rtol=2e-5, atol=1e-9):
                    failures.append(f"fit {target}: mse {mse} but -sin(x+w) gives {want}")
                if f"{final_fit_loss[target]:.6g}" != f"{mse:.6g}":
                    failures.append(f"fit {target}: summary mse is not the final loss")
            for model in MODELS:
                cells = " | ".join(f"{table3['accuracy'][model][o]:.4f}" for o in OPTIMIZERS)
                if f"| {model} | {cells} |" not in summary:
                    failures.append(f"summary.md accuracy row for {model} != table3")
        except (OSError, ValueError, KeyError, TypeError) as exc:
            failures.append(f"unparseable artifact: {exc!r}")
        return failures

    def self_check(self, state, first_pass, scratch):
        first = first_pass[0]
        results = []
        # A corrupted report value: one fit MSE in summary.md off by 0.1%.
        bad = scratch / "corrupt-summary"
        shutil.copytree(first.output, bad)
        text = (bad / "summary.md").read_text()
        m = next(filter(None, (_FIT_ROW.match(line) for line in text.split("\n")
                               if line.startswith("| linear"))))
        text = text.replace(
            m.group(0), f"| linear | {float(m.group(2)) * 1.001:.6g} | {m.group(3)} |")
        (bad / "summary.md").write_text(text)
        results.append(("summary.md fit mse x1.001", self._detects(state, bad, first)))
        # One byte of one loss history changed: breaks pass-to-pass identity.
        bad = scratch / "corrupt-loss"
        shutil.copytree(first.output, bad)
        path = bad / "eqnn3_aqgd_loss.csv"
        data = bytearray(path.read_bytes())
        data[-2] = ord("1") if data[-2] != ord("1") else ord("2")
        path.write_bytes(bytes(data))
        results.append(("eqnn3_aqgd_loss.csv one digit", self._detects(state, bad, first)))
        return results

    def _detects(self, state, out, first) -> bool:
        outcome = Outcome("reproduce", None, out, hashlib.sha256(
            json.dumps(digest_dir(out), sort_keys=True).encode()).hexdigest())
        return bool(self.check(state, outcome, first))


# --------------------------------------------------------------------------
# train-csv


TRAIN_MODELS = ("benchmark", "eqnn3")
TRAIN_OPTIMIZERS = ("cobyla", "spsa")
SPLIT = 0.2
SHOTS = 1000


class TrainCsv(Workload):
    name = "train-csv"
    why = (
        "eqnn train on a 10k-row CSV with derivative-free optimizers: the gradient "
        "never runs, large batches amortise per-call overhead, and time goes to "
        "per-row arithmetic, SPSA's 340 loss passes, shot sampling and file I/O. "
        "benchmark keeps the complex phase path in play; eqnn3 is real-only."
    )
    expected_layers = (
        "statevector.kernel_h", "statevector.kernel_ry", "statevector.kernel_cnot",
        "statevector.kernel_phase", "circuit.evaluate", "qnn.probabilities_batch",
        "qnn.batch_loss", "qnn.accuracy", "optim.minimize", "data.generate",
        "data.save_csv", "data.load_csv",
    )

    def setup(self, eqnn, seed, work):
        models = [eqnn.qnn.build_model(name) for name in TRAIN_MODELS]
        dataset = eqnn.data.gen_two_class_usage(5000, seed)
        work.mkdir(parents=True, exist_ok=True)
        csv = work / "usage.csv"
        eqnn.data.save_csv(dataset, csv)
        return {"seed": seed, "csv": csv, "models": models}

    def operations(self, eqnn, state, pass_dir):
        ops = []
        for model in TRAIN_MODELS:
            for opt in TRAIN_OPTIMIZERS:
                out = pass_dir / f"{model}_{opt}"
                args = ["train", "--model", model, "--optimizer", opt,
                        "--iters", str(ITERS), "--data", str(state["csv"]),
                        "--split", str(SPLIT), "--shots", str(SHOTS),
                        "--seed", str(state["seed"]), "--out", str(out / "run")]
                ops.append(Op(f"{model}/{opt}", "cli.train",
                              lambda args=args: invoke_cli(eqnn, args), out))
        return ops

    def _oracle(self, state):
        """Rows and labels of the train and test split, read from the CSV."""
        if "oracle" not in state:
            import numpy as np
            from oracles import split_indices

            table = np.loadtxt(state["csv"], delimiter=",", comments="#", ndmin=2)
            X, labels = table[:, :2], table[:, 2].astype(int)
            train, test = split_indices(len(table), SPLIT, state["seed"])
            state["oracle"] = (X[train], labels[train], X[test], labels[test])
        return state["oracle"]

    def check(self, state, outcome, first):
        return self.check_report(state, outcome.label, outcome.output,
                                 first.output if outcome is not first else None)

    def check_report(self, state, label, out, first_out) -> list[str]:
        import numpy as np
        from oracles import class_probs, cross_entropy, sampled_accuracy_band

        model, opt = label.split("/")
        failures = []
        try:
            report = json.loads((out / "run_report.json").read_text())
            losses = read_loss_csv(out / "run_loss.csv")
        except (OSError, ValueError) as exc:
            return [f"unparseable output: {exc!r}"]
        X, y, X_test, y_test = self._oracle(state)
        try:
            if (report["model"], report["optimizer"], report["seed"]) != (
                    model, opt, state["seed"]):
                failures.append("report names another model, optimizer or seed")
            if (report["n_samples"], report["n_test_samples"]) != (len(y), len(y_test)):
                failures.append("split sizes differ from the documented split")
            if losses != report["loss_history"] or report["iterations"] != len(losses):
                failures.append("loss CSV, loss_history and iterations disagree")
            if not 1 <= len(losses) <= ITERS:
                failures.append(f"{len(losses)} iterations for a budget of {ITERS}")
            w = np.array(report["trained_weights"], dtype=float)
            probs = class_probs(model, X, w)
            want = cross_entropy(probs, y)
            if not _close(report["final_loss"], want):
                failures.append(f"final_loss {report['final_loss']!r} != oracle {want!r}")
            for key, rows, labels in (("accuracy", X, y), ("test_accuracy", X_test, y_test)):
                p = probs if rows is X else class_probs(model, rows, w)
                predicted = (p[:, 1] > p[:, 0]).astype(int)
                ambiguous = int(np.sum(np.abs(p[:, 1] - p[:, 0]) < 1e-9))
                miss = abs(report[key] - float(np.mean(predicted == labels))) * len(labels)
                if miss > ambiguous + 1e-6:
                    failures.append(f"{key} {report[key]!r} != oracle by {miss:.0f} rows")
            mean, tol = sampled_accuracy_band(probs[:, 0], y, SHOTS)
            if report["shots"] != SHOTS or abs(report["accuracy_sampled"] - mean) > tol:
                failures.append(
                    f"accuracy_sampled {report['accuracy_sampled']!r} outside "
                    f"{mean:.6f} +- {tol:.6f}")
        except (KeyError, TypeError, ValueError) as exc:
            failures.append(f"report field missing or malformed: {exc!r}")
        if first_out is not None:
            if _without_wall_time(out) != _without_wall_time(first_out) or (
                    out / "run_loss.csv").read_bytes() != (first_out / "run_loss.csv").read_bytes():
                failures.append("outputs differ from the first pass of the same seed")
        return failures

    def self_check(self, state, first_pass, scratch):
        first = first_pass[0]
        results = []
        for key, change in (("final_loss", lambda v: v * (1.0 + 1e-6)),
                            ("accuracy_sampled", lambda v: v - 0.05 if v > 0.5 else v + 0.05),
                            ("test_accuracy", lambda v: v - 0.01 if v > 0.5 else v + 0.01)):
            bad = scratch / f"corrupt-{key}"
            shutil.copytree(first.output, bad)
            report = json.loads((bad / "run_report.json").read_text())
            report[key] = change(report[key])
            (bad / "run_report.json").write_text(json.dumps(report, indent=2, sort_keys=True))
            detected = bool(self.check_report(state, first.label, bad, None))
            results.append((f"{first.label} report {key}", detected))
        return results


def _without_wall_time(out: Path) -> dict:
    report = json.loads((out / "run_report.json").read_text())
    report.pop("wall_time_s", None)
    return report


# --------------------------------------------------------------------------
# wide-register


WIDE_QUBITS = (16, 18, 20)
WIDE_REPS = 3


class WideRegister(Workload):
    name = "wide-register"
    why = (
        "Library calls on 2^16-2^20 amplitudes: bound by bytes moved, not by calls. "
        "The only workload where a 2-qubit trick that does not scale (e.g. a dense "
        "2^n x 2^n fused unitary) shows up, and where memory shows."
    )
    expected_layers = (
        "statevector.kernel_h", "statevector.kernel_ry", "statevector.kernel_cnot",
        "circuit.bind", "circuit.evaluate", "qnn.simulate", "qnn.probabilities_batch",
    )

    def setup(self, eqnn, seed, work):
        import numpy as np

        rng = np.random.default_rng(seed)
        registers = []
        for n in WIDE_QUBITS:
            ansatz = eqnn.circuit.build_real_amplitudes(n, WIDE_REPS)
            h_layer = eqnn.circuit.Circuit(
                n, tuple(eqnn.circuit.Gate("h", (q,)) for q in range(n)))
            model = eqnn.qnn.QnnModel(f"wide{n}", h_layer, ansatz, eqnn.qnn.PARITY)
            weights = rng.uniform(-math.pi, math.pi, ansatz.weight_arity)
            registers.append((n, ansatz, model, weights))
        return {"seed": seed, "registers": registers, "row": np.zeros((1, 0))}

    def operations(self, eqnn, state, pass_dir):
        ops = []
        for n, ansatz, model, w in state["registers"]:
            ops.append(Op(f"simulate/{n}", "bench.call",
                          lambda a=ansatz, w=w: eqnn.qnn.simulate(a, [], w).amps))
            ops.append(Op(f"predict_probs/{n}", "bench.call",
                          lambda m=model, w=w: eqnn.qnn.predict_probs(m, state["row"], w)))
        return ops

    def _reference(self, state, label):
        from oracles import parity_split, real_amplitudes_state

        refs = state.setdefault("reference", {})
        if label not in refs:
            kind, n = label.split("/")
            n = int(n)
            w = next(r[3] for r in state["registers"] if r[0] == n)
            amps = real_amplitudes_state(n, WIDE_REPS, w, plus_start=kind == "predict_probs")
            refs[label] = amps if kind == "simulate" else parity_split(amps)[None, :]
        return refs[label]

    def check(self, state, outcome, first):
        return self.check_output(state, outcome.label, outcome.output, outcome.digest,
                                 first.digest)

    def check_output(self, state, label, output, digest, first_digest) -> list[str]:
        import numpy as np

        failures = []
        if digest != first_digest:
            failures.append("output differs from the first pass of the same seed")
        if output is None:  # later passes keep only their digest
            return failures
        want = self._reference(state, label)
        if output.shape != want.shape:
            return failures + [f"shape {output.shape}, oracle {want.shape}"]
        norm = float(np.sum(np.abs(output) ** 2 if label.startswith("simulate") else output))
        if abs(norm - 1.0) > 1e-10:
            failures.append(f"norm {norm!r} is not 1")
        err = float(np.max(np.abs(output - want)))
        if err > 1e-10:
            failures.append(f"max deviation from the tensordot oracle {err:.3g}")
        return failures

    def self_check(self, state, first_pass, scratch):
        import numpy as np

        first = next(o for o in first_pass if o.label == f"simulate/{WIDE_QUBITS[-1]}")
        bad = first.output.copy()
        bad[1] += 1e-6
        bad /= np.linalg.norm(bad)
        detected = bool(self.check_output(state, first.label, bad, first.digest, first.digest))
        return [(f"{first.label} one amplitude +1e-6, renormalised", detected)]


WORKLOADS = {w.name: w for w in (Reproduce(), TrainCsv(), WideRegister())}

"""The three benchmark workloads and the checks made on their outputs.

Each workload has the same shape:

* ``setup()`` builds the inputs the program needs (timed, repeated);
* ``operate(i, watch)`` makes round ``i``'s program calls, timing each
  through ``watch.time(name, fn, ...)``, and returns the outputs to
  check; every round repeats the same operations, so a run is a whole
  number of rounds;
* ``check(out, checks)`` checks those outputs against computations made
  apart from the program (see ``reference``), one operation per check;
* ``finish(checks)`` makes the checks that span the whole run;
* ``timings(samples)`` gives ``task_s`` and ``subtask_s`` from the
  calibrated samples of all rounds (name -> seconds), and
  ``figures(samples)`` the workload's own figures from the raw samples.
"""
from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import shutil
from dataclasses import dataclass
from statistics import median

import numpy as np

import reference

MAPE_FAULT = (
    "pipeline.evaluate divides |error| by actual, not |actual| "
    "(src/hybridcast/pipeline.py:457); the session target crosses zero"
)


@dataclass(frozen=True)
class Sizes:
    """Input sizes; FULL is what the benchmark measures, TINY is for the self-test."""

    n_days: int = 1060
    pool: int = 20  # select-mc panels (the c5 Monte Carlo seeds 0..19)
    setup_repeats: int = 3
    train_epochs: int = 2
    predict_passes: int = 4
    fd_per_block: int = 2
    session_epochs: int = 5
    compare_epochs: int = 3
    compare_seeds: int = 2


FULL = Sizes()
TINY = Sizes(n_days=300, pool=2, setup_repeats=1, train_epochs=2, predict_passes=2,
             fd_per_block=1, session_epochs=2, compare_epochs=1, compare_seeds=1)


class Checks:
    """Attempted/failed operation counts; unexpected failures make the run incorrect."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.unexpected: list[str] = []
        self.known: dict[str, str] = {}

    def record(self, name: str, ok: bool, detail: str = "", known_fault: str | None = None) -> None:
        self.attempted += 1
        if ok:
            return
        self.failed += 1
        if known_fault is not None:
            self.known.setdefault(name, f"{detail}; {known_fault}")
        else:
            self.unexpected.append(f"{name}: {detail}")

    def fail_run(self, name: str, detail: str) -> None:
        """A run-level check failed; it is not an operation, so only correctness changes."""
        self.unexpected.append(f"{name}: {detail}")


# ---------------------------------------------------------------------------


class SelectMC:
    """Tuned ridge + SCAD selection over the c5 Monte Carlo panels."""

    name = "select-mc"
    trace_rounds = 4

    def __init__(self, hc, sizes: Sizes, seed: int, workdir: str):
        self.hc, self.sizes = hc, sizes
        # a fixed pool keeps the panel-to-panel spread (0.7-1.9 s per
        # selection) out of the run-to-run figure; the seed sets where in
        # the pool a run starts, and so which panels it repeats
        self.panel_seeds = [(seed + j) % sizes.pool for j in range(sizes.pool)]
        self.covered: list[bool] = []

    def setup(self):
        synth = self.hc["synth"]
        self.panels = [
            synth.generate_synthetic_panel(synth.SyntheticSpec(n_days=self.sizes.n_days, seed=s))
            for s in self.panel_seeds
        ]

    def operate(self, i, watch):
        pipeline = self.hc["pipeline"]
        frame, truth = self.panels[i % len(self.panels)]
        rr, scad = watch.time("select", pipeline.select_panel_features, frame)
        _, scad_fixed = watch.time("select_fixed", pipeline.select_panel_features, frame, scad_lambda=scad.penalty.lam)
        return frame, truth, rr, scad, scad_fixed

    def check(self, out, checks: Checks):
        frame, truth, rr, scad, scad_fixed = out
        x, y, names = reference.lagged_design(frame.columns, frame.target_name)
        if [r.name for r in rr.rows] != names or [r.name for r in scad.rows] != names:
            checks.record("feature order", False, "report rows do not follow the panel's columns")
            return

        sd = x.std(axis=0, ddof=1)
        beta_std = np.array([r.coef for r in rr.rows]) * sd
        res = reference.ridge_normal_equation_residual(x, y, rr.penalty.lam, beta_std)
        checks.record("ridge normal equations", res <= 1e-9, f"relative residual {res:.3e}")

        for label, report in (("tuned", scad), ("fixed-lambda", scad_fixed)):
            beta = np.array([r.coef for r in report.rows])
            worst = reference.scad_kkt(x, y, beta, report.penalty.lam, report.penalty.a)
            support_ok = [r.name for r in report.rows if r.selected] == [n for n, b in zip(names, beta) if b != 0.0]
            checks.record(f"SCAD KKT ({label})", worst <= 1e-6 and support_ok,
                          f"largest violation {worst:.3e}, support matches nonzeros: {support_ok}")
        self.covered.append(set(truth.support_names) <= set(scad.selected_names))

    def finish(self, checks: Checks):
        # c5 asks for the true support inside the SCAD selection on >= 16 of 20 panels
        rate = sum(self.covered) / len(self.covered)
        if rate < 0.8:
            checks.fail_run("SCAD support recovery", f"{sum(self.covered)}/{len(self.covered)} panels, below 0.8")
        return {"scad_support_recovery": rate, "panels": len(self.covered)}

    @staticmethod
    def timings(samples):
        return {"task_s": median(samples["select"]), "subtask_s": median(samples["select_fixed"])}

    @staticmethod
    def figures(samples):
        return {"select_s": median(samples["select"]), "select_fixed_lambda_s": median(samples["select_fixed"]),
                "samples": len(samples["select"])}


# ---------------------------------------------------------------------------


class TrainDilated:
    """dilated_cnn_lstm training on the RR selection of the default panel, then predict passes."""

    name = "train-dilated"
    trace_rounds = 2

    def __init__(self, hc, sizes: Sizes, seed: int, workdir: str):
        self.hc, self.sizes, self.seed = hc, sizes, seed
        self.n_train = 0

    def setup(self):
        synth, pipeline = self.hc["synth"], self.hc["pipeline"]
        self.frame, _ = synth.generate_synthetic_panel(synth.SyntheticSpec(n_days=self.sizes.n_days))
        self.rr, _ = pipeline.select_panel_features(self.frame)

    def _windows(self, result):
        """Every window of the panel, standardized with the trained scaler, and its target."""
        scaler = result.scaler
        mat = np.column_stack([self.frame.columns[n] for n in scaler.names])
        std = (mat - scaler.mean) / scaler.sd
        window = result.model.config.window
        n = len(std) - window
        idx = np.arange(n)[:, None] + np.arange(window)[None, :]
        return std[idx], std[window:, scaler.names.index(self.frame.target_name)]

    def operate(self, i, watch):
        neural, pipeline = self.hc["neural"], self.hc["pipeline"]
        config = neural.ModelConfig(epochs=self.sizes.train_epochs, seed=self.seed)
        result = watch.time("train", pipeline.train_model, self.frame, self.rr, config)
        windows, targets = self._windows(result)
        preds = [watch.time("predict", result.model.predict, windows) for _ in range(self.sizes.predict_passes)]
        n_samples = len(windows)
        self.n_train = min(max(int(math.floor(0.9 * n_samples)), 1), n_samples - 1)
        self.n_windows = n_samples
        return result, windows, targets, preds

    def check(self, out, checks: Checks):
        result, windows, targets, preds = out
        model = result.model
        hist = result.history
        checks.record("epoch loss falls", len(hist) >= 2 and hist[-1] < hist[0], f"history {hist}")
        same = all(np.array_equal(preds[0], p) for p in preds[1:])
        checks.record("predict passes bit-identical", same, "two predict passes differ")

        ref = reference.forward_conv_lstm(model.params, model.config.dilation, windows)
        gap = float(np.max(np.abs(ref - preds[0])))
        checks.record("reference forward pass", gap <= 1e-9 * max(1.0, float(np.max(np.abs(ref)))),
                      f"largest gap {gap:.3e}")

        # analytic gradients of the mean squared error at a training batch of the
        # workload's own size, against central differences of forward passes
        rng = np.random.default_rng([self.seed, 64])
        rows = rng.choice(self.n_train, size=min(model.config.batch_size, self.n_train), replace=False)
        xb, yb = windows[rows], targets[rows]
        pred, cache = model.forward(xb)
        grads, _ = model.backward(cache, 2.0 * (pred - yb) / len(yb))

        def loss():
            return float(np.mean((model.predict(xb) - yb) ** 2))

        numeric = reference.sampled_central_differences(loss, model.params, rng, self.sizes.fd_per_block)
        for block, (idx, num) in numeric.items():
            ana = np.asarray(grads[block]).reshape(-1)[idx]
            err = np.abs(ana - num)
            ok = bool(np.all(err <= 1e-5 * np.maximum(np.abs(ana), np.abs(num)) + 1e-9))
            checks.record(f"central differences {block}", ok, f"largest gap {err.max():.3e}")

    def finish(self, checks: Checks):
        channels = self.hc["neural"].ModelConfig().out_channels
        return {"n_train": self.n_train, "lstm_input_width": channels * (self.rr.n_selected + 1)}

    @staticmethod
    def timings(samples):
        return {"task_s": median(samples["train"]), "subtask_s": median(samples["predict"])}

    def figures(self, samples):
        epochs = self.sizes.train_epochs
        return {
            "train_samples_per_s": self.n_train * epochs / median(samples["train"]),
            "predict_samples_per_s": self.n_windows / median(samples["predict"]),
            "train_runs": len(samples["train"]),
            "predict_passes": len(samples["predict"]),
        }


# ---------------------------------------------------------------------------


SESSION_PANEL_SEED = 0
TARGET = "price"
COMPARE_LABELS = ["RR-CNN", "RR-LSTM", "RR-CNN-LSTM", "RR-DILATED_CNN-LSTM", "SCAD-DILATED_CNN-LSTM"]


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


class CsvSession:
    """select, train, evaluate, compare and gradcheck through hybridcast.cli.main on four CSVs."""

    name = "csv-session"
    trace_rounds = 1

    def __init__(self, hc, sizes: Sizes, seed: int, workdir: str):
        self.hc, self.sizes, self.seed = hc, sizes, seed
        self.dir = os.path.join(workdir, "session")
        self.out = os.path.join(self.dir, "out")
        self.paths = [os.path.join(self.dir, f"{part}.csv") for part in ("target", "macro", "fin", "chain")]
        self.config_path = os.path.join(self.dir, "config.json")
        self.compare_seeds = [2 * seed + 1 + k for k in range(sizes.compare_seeds)]
        self.expected = None

    def setup(self):
        synth = self.hc["synth"]
        # the panel does not depend on the workload seed; target_base=0 makes
        # the target cross zero, like a return series
        frame, _ = synth.generate_synthetic_panel(
            synth.SyntheticSpec(n_days=self.sizes.n_days, seed=SESSION_PANEL_SEED, target_base=0.0)
        )
        os.makedirs(self.dir, exist_ok=True)
        dates = [d.isoformat() for d in frame.dates]
        cols = frame.columns

        def rows(names, keep, blank=lambda i, j: False):
            return [
                [dates[i]] + ["" if blank(i, j) else repr(float(cols[n][i])) for j, n in enumerate(names)]
                for i in range(len(dates)) if keep(i)
            ]

        groups = {p: [n for n in frame.feature_names if n.startswith(p + "_")] for p in ("macro", "fin", "chain")}
        weekday = [d.weekday() for d in frame.dates]
        _write_csv(self.paths[0], ["date", TARGET], rows([TARGET], lambda i: True))
        # macro: weekly, on Wednesdays, so the first target days have no macro value yet
        _write_csv(self.paths[1], ["date"] + groups["macro"], rows(groups["macro"], lambda i: weekday[i] == 2))
        # fin: every 7th row missing, and one empty cell every 13th row
        _write_csv(self.paths[2], ["date"] + groups["fin"],
                   rows(groups["fin"], lambda i: i % 7 != 3, lambda i, j: i % 13 == 5 and j == i % len(groups["fin"])))
        _write_csv(self.paths[3], ["date"] + groups["chain"], rows(groups["chain"], lambda i: True))
        config = {
            "data": {"source": "csv", "csv_paths": self.paths, "target_column": TARGET},
            "model": {"epochs": self.sizes.session_epochs, "seed": self.seed},
        }
        with open(self.config_path, "w") as fh:
            json.dump(config, fh)

    def commands(self):
        base = ["--config", self.config_path, "--out", self.out]
        seeds = ",".join(str(s) for s in self.compare_seeds)
        return [
            ("select", ["select"] + base),
            ("train", ["train"] + base),
            ("evaluate", ["evaluate"] + base),
            ("compare", ["compare"] + base + ["--seeds", seeds, "--epochs", str(self.sizes.compare_epochs)]),
            ("gradcheck", ["gradcheck", "--seed", str(self.seed)]),
        ]

    def operate(self, i, watch):
        cli = self.hc["cli"]
        shutil.rmtree(self.out, ignore_errors=True)
        with contextlib.redirect_stdout(io.StringIO()):
            return {name: watch.time(name, cli.main, argv) for name, argv in self.commands()}

    def _read_json(self, name):
        with open(os.path.join(self.out, name)) as fh:
            return json.load(fh)

    def check(self, codes, checks: Checks):
        for name, code in codes.items():
            checks.record(f"{name} exits 0", code == 0, f"exit code {code}")
        try:
            self._check_outputs(checks)
        except (OSError, KeyError, ValueError) as exc:  # a command left no usable output
            checks.record("session outputs readable", False, repr(exc))

    def _check_outputs(self, checks: Checks):
        config = self.hc["config"]
        if self.expected is None:
            self.expected = reference.forward_fill(self.paths, TARGET)
        dates, columns = self.expected
        frame, _ = config.load_panel(config.DataConfig(source="csv", csv_paths=self.paths, target_column=TARGET))
        same = (list(frame.dates) == dates and list(frame.columns) == list(columns)
                and all(np.array_equal(frame.columns[n], columns[n]) for n in columns))
        checks.record("forward fill matches load_panel", same, "aligned panel differs from the reference fill")

        with open(os.path.join(self.out, "eval_predictions.csv"), newline="") as fh:
            rows = list(csv.DictReader(fh))
        actual = np.array([float(r["actual"]) for r in rows])
        predicted = np.array([float(r["predicted"]) for r in rows])
        recomputed = reference.error_metrics(actual, predicted)
        reported = self._read_json("eval_metrics.json")
        for key in ("mse", "mae", "mape"):
            checks.record(
                f"eval {key.upper()} recomputed", reference.close(recomputed[key], reported[key]),
                f"reported {reported[key]!r}, recomputed {recomputed[key]!r}",
                known_fault=MAPE_FAULT if key == "mape" else None,
            )

        trained = self._read_json("train_metrics.json")
        checks.record("train metrics equal eval metrics",
                      all(trained[k] == reported[k] for k in ("label", "seed", "mse", "mae", "mape")),
                      f"train {trained}, eval {reported}")

        comparison = self._read_json("comparison.json")
        labels = [r["label"] for r in comparison["rows"]]
        finite = all(math.isfinite(r[k]) for r in comparison["rows"] + comparison["per_seed"] for k in ("mse", "mae", "mape"))
        checks.record("comparison has five finite rows",
                      labels == COMPARE_LABELS and finite, f"labels {labels}")

    def finish(self, checks: Checks):
        scad = self._read_json("scad_selection.json")
        channels = self.hc["neural"].ModelConfig().out_channels
        return {"scad_lstm_input_width": channels * (scad["n_selected"] + 1)}

    @staticmethod
    def timings(samples):
        # the session time is the sum of each command's median, which is
        # steadier over a few sessions than the median of the sums
        return {"task_s": sum(median(v) for v in samples.values()), "subtask_s": median(samples["compare"])}

    def figures(self, samples):
        timings = self.timings(samples)
        return {"session_s": timings["task_s"], "compare_s": timings["subtask_s"],
                "sessions": len(samples["compare"]),
                **{f"{name}_s": median(v) for name, v in samples.items() if name != "compare"}}


WORKLOADS = {w.name: w for w in (SelectMC, TrainDilated, CsvSession)}

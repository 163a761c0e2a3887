"""Span recorder that wraps hybridcast entry points from outside the package.

Each entry point is replaced where its caller looks it up (a module
attribute, a class attribute, or an entry of ``cli.COMMANDS``), so the
package itself is unchanged. A wrapped call records one span: name,
start, end and the index of the enclosing span. Spans stay in memory;
self time (a span's duration minus the durations of its direct child
spans) is accumulated as spans close, and the raw spans are written out
when the run ends.
"""
from __future__ import annotations

import json
import time
from collections import defaultdict


def _conv_forward_flop(args, kwargs, result):
    layer, out = args[0], result[0]
    c_out, c_in = layer.kernel.shape[:2]
    return {"neural.conv.gflop_computed": 2e-9 * out.shape[0] * c_out * c_in * out.shape[2] * out.shape[3] * 9}


def _conv_backward_flop(args, kwargs, result):
    layer, cache = args[0], args[1]
    b, c_out, h, w = cache["out_shape"]
    c_in = layer.kernel.shape[1]
    # grad_kernel and grad_input each cost one forward's multiply-adds
    return {"neural.conv.gflop_computed": 2 * 2e-9 * b * c_out * c_in * h * w * 9}


def _lstm_step_flop(args, kwargs, result):
    params, x_t = args[0], args[1]
    batch = x_t.shape[0] if x_t.ndim == 2 else 1
    hidden, width = params.w_f.shape
    return {"neural.lstm.gflop_computed": 4 * 2e-9 * batch * width * hidden}


def _lstm_backward_flop(args, kwargs, result):
    params, states = args[0], args[1]
    batch = states[-1].h.shape[0]
    hidden, width = params.w_f.shape
    # per step: four weight-gradient GEMMs and four input-gradient GEMMs
    return {"neural.lstm.gflop_computed": len(states) * 8 * 2e-9 * batch * width * hidden}


def _penalized_fit_counts(args, kwargs, result):
    return {
        "regsel.penalized_fit.sweeps": result.iterations,
        "regsel.penalized_fit.unconverged": 0 if result.converged else 1,
    }


def entry_points(hc):
    """(span name, [(owner, attribute)], counter hook) for every traced entry point.

    ``hc`` maps module names to the imported hybridcast modules. Every
    owner listed for a name is a place some caller looks the function up;
    all of them receive the same wrapper.
    """
    cli, config, gradcheck = hc["cli"], hc["config"], hc["gradcheck"]
    neural, numcore, pipeline = hc["neural"], hc["numcore"], hc["pipeline"]
    regsel, synth = hc["regsel"], hc["synth"]
    return [
        ("regsel.penalized_fit", [(regsel, "penalized_fit")], _penalized_fit_counts),
        ("regsel.tune_penalized", [(regsel, "tune_penalized")], None),
        ("regsel.ridge_fit", [(regsel, "ridge_fit")], None),
        ("regsel.select_features", [(regsel, "select_features")], None),
        ("numcore.sym_eigenvalues", [(numcore, "sym_eigenvalues")], None),
        ("numcore.solve_spd", [(numcore, "solve_spd")], None),
        ("neural.Conv2dLayer.forward", [(neural.Conv2dLayer, "forward")], _conv_forward_flop),
        ("neural.Conv2dLayer.backward", [(neural.Conv2dLayer, "backward")], _conv_backward_flop),
        ("neural.lstm_forward", [(neural, "lstm_forward")], None),
        ("neural.lstm_backward", [(neural, "lstm_backward")], _lstm_backward_flop),
        ("neural.lstm_step", [(neural, "lstm_step")], _lstm_step_flop),
        ("neural.dense_forward", [(neural, "dense_forward")], None),
        ("neural.dense_backward", [(neural, "dense_backward")], None),
        ("neural.mse_loss", [(neural, "mse_loss"), (pipeline, "mse_loss"), (gradcheck, "mse_loss")], None),
        ("neural.adam_step", [(neural, "adam_step"), (pipeline, "adam_step")], None),
        ("neural.ForecastModel.forward", [(neural.ForecastModel, "forward")], None),
        ("neural.ForecastModel.backward", [(neural.ForecastModel, "backward")], None),
        ("neural.model_to_dict", [(neural, "model_to_dict")], None),
        ("neural.model_from_dict", [(neural, "model_from_dict")], None),
        ("pipeline.load_csv_series", [(pipeline, "load_csv_series"), (config, "load_csv_series")], None),
        ("pipeline.align_series", [(pipeline, "align_series"), (config, "align_series")], None),
        ("config.load_panel", [(config, "load_panel"), (cli, "load_panel")], None),
        ("pipeline.fit_scaler", [(pipeline, "fit_scaler")], None),
        ("pipeline.make_windows", [(pipeline, "make_windows")], None),
        ("pipeline.chrono_split", [(pipeline, "chrono_split")], None),
        ("pipeline.fit_arrays", [(pipeline, "fit_arrays")], None),
        ("pipeline.train_model", [(pipeline, "train_model")], None),
        ("pipeline.compare_variants", [(pipeline, "compare_variants")], None),
        ("pipeline.select_panel_features", [(pipeline, "select_panel_features")], None),
        ("pipeline.evaluate", [(pipeline, "evaluate")], None),
        ("synth.generate_synthetic_panel", [(synth, "generate_synthetic_panel"), (config, "generate_synthetic_panel")], None),
        ("gradcheck.central_difference", [(gradcheck, "central_difference")], None),
        ("gradcheck.run_gradient_checks", [(gradcheck, "run_gradient_checks")], None),
    ] + [
        (f"cli.{command}", [(cli.COMMANDS, command)], None)
        for command in ("select", "train", "evaluate", "compare", "gradcheck")
    ]


def _get(owner, attr):
    return owner[attr] if isinstance(owner, dict) else getattr(owner, attr)


def _set(owner, attr, value):
    if isinstance(owner, dict):
        owner[attr] = value
    else:
        setattr(owner, attr, value)


class Recorder:
    """In-memory spans and per-name totals for the traced parts of a run."""

    def __init__(self, points):
        self._points = points
        self._originals: list[tuple[object, str, object]] = []
        self.spans: list[tuple[str, float, float, int]] = []
        self._stack: list[list] = []  # [span index placeholder, child time]
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.counters: dict[str, float] = defaultdict(int)

    def _wrap(self, name, fn, hook):
        rec = self

        def traced(*args, **kwargs):
            parent = rec._stack[-1][0] if rec._stack else -1
            frame = [len(rec.spans), 0.0]
            rec.spans.append(None)  # reserve the slot so children can name it as parent
            rec._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                rec._stack.pop()
                duration = end - start
                rec.spans[frame[0]] = (name, start, end, parent)
                rec.calls[name] += 1
                rec.total_s[name] += duration
                rec.self_s[name] += duration - frame[1]
                if rec._stack:
                    rec._stack[-1][1] += duration
            if hook is not None:
                for key, value in hook(args, kwargs, result).items():
                    rec.counters[key] += value
            return result

        traced.__wrapped__ = fn
        return traced

    def __enter__(self):
        for name, owners, hook in self._points:
            fn = _get(*owners[0])
            wrapper = self._wrap(name, fn, hook)
            for owner, attr in owners:
                self._originals.append((owner, attr, _get(owner, attr)))
                _set(owner, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for owner, attr, fn in reversed(self._originals):
            _set(owner, attr, fn)
        self._originals.clear()
        return False

    def write(self, path) -> None:
        """One JSON object per line: name, start, end (perf_counter seconds), parent index."""
        with open(path, "w") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"i": i, "name": name, "start": start, "end": end, "parent": parent}) + "\n")


# Per-layer metrics of a traced run: totals over its traced set-ups and rounds.
# ``<span>.calls`` and ``<span>.self_s`` come from the spans, ``cli.<command>.s``
# is inclusive time, the rest are counters set by the hooks above.
LAYER_METRICS = [
    "regsel.penalized_fit.calls", "regsel.penalized_fit.self_s",
    "regsel.penalized_fit.sweeps", "regsel.penalized_fit.unconverged",
    "regsel.tune_penalized.self_s", "regsel.ridge_fit.self_s", "regsel.select_features.self_s",
    "numcore.sym_eigenvalues.calls", "numcore.sym_eigenvalues.self_s",
    "numcore.solve_spd.calls", "numcore.solve_spd.self_s",
    "neural.Conv2dLayer.forward.calls", "neural.Conv2dLayer.forward.self_s",
    "neural.Conv2dLayer.backward.self_s",
    "neural.lstm_forward.self_s", "neural.lstm_backward.self_s",
    "neural.lstm_step.calls", "neural.lstm_step.self_s",
    "neural.dense_forward.self_s", "neural.dense_backward.self_s", "neural.mse_loss.self_s",
    "neural.adam_step.calls", "neural.adam_step.self_s",
    "neural.ForecastModel.forward.self_s", "neural.ForecastModel.backward.self_s",
    "neural.conv.gflop_computed", "neural.lstm.gflop_computed",
    "neural.model_to_dict.self_s", "neural.model_from_dict.self_s",
    "pipeline.load_csv_series.self_s", "pipeline.align_series.self_s",
    "config.load_panel.calls", "config.load_panel.self_s",
    "pipeline.fit_scaler.self_s", "pipeline.make_windows.self_s", "pipeline.chrono_split.self_s",
    "pipeline.fit_arrays.self_s", "pipeline.train_model.calls", "pipeline.train_model.self_s",
    "pipeline.compare_variants.self_s", "pipeline.select_panel_features.self_s", "pipeline.evaluate.self_s",
    "synth.generate_synthetic_panel.self_s",
    "cli.select.s", "cli.train.s", "cli.evaluate.s", "cli.compare.s", "cli.gradcheck.s",
    "gradcheck.central_difference.calls", "gradcheck.run_gradient_checks.self_s",
    "bench.trace_overhead_s",
]


def layer_unit(metric: str) -> str:
    if metric.endswith("gflop_computed"):
        return "GFLOP"
    if metric.endswith((".calls", ".sweeps", ".unconverged")):
        return "count"
    return "s"


def layer_metrics(rec: Recorder, overhead_s: float) -> dict:
    values = {}
    for metric in LAYER_METRICS:
        base, _, kind = metric.rpartition(".")
        if metric == "bench.trace_overhead_s":
            value = overhead_s
        elif kind == "calls":
            value = rec.calls[base]
        elif kind == "self_s":
            value = rec.self_s[base]
        elif kind == "s":
            value = rec.total_s[base]
        else:
            value = rec.counters[metric]
        values[metric] = {"value": value, "unit": layer_unit(metric)}
    return values

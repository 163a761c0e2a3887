"""The benchmark's tracer still finds, and can run, every entry point it wraps.

perfbench/spans.py looks each traced function up by name where its
callers find it, and its counter hooks read the arguments and results of
some of them, so a rename in the package breaks
`perfbench/run.py --trace 1` while every other test passes. The tracer
is read from its file and executed here; nothing under perfbench/ is
written.
"""
import importlib
import json
import types
from pathlib import Path

from hybridcast import cli

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
MODULES = ("cli", "config", "gradcheck", "neural", "numcore", "pipeline", "regsel", "synth")
TINY_CONFIG = {
    "data": {"source": "synthetic", "synthetic": {"n_days": 80, "seed": 5}},
    "selection": {"grid_points": 6},
    "model": {"hidden_size": 6, "out_channels": 2, "epochs": 2, "batch_size": 16, "seed": 7},
}


def _tracer():
    spans = types.ModuleType("spans")
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), spans.__dict__)
    hc = {name: importlib.import_module(f"hybridcast.{name}") for name in MODULES}
    return spans, spans.entry_points(hc)


def test_every_traced_entry_point_resolves():
    spans, points = _tracer()
    with spans.Recorder(points):
        pass


def test_traced_session_runs_every_hook(tmp_path):
    """A tiny select/train/evaluate/compare/gradcheck session completes under the tracer.

    No variant runs the unfolded Conv2dLayer: every conv is folded into the weights after it.
    """
    config = tmp_path / "config.json"
    config.write_text(json.dumps(TINY_CONFIG))
    base = ["--config", str(config), "--out", str(tmp_path / "out")]
    spans, points = _tracer()
    with spans.Recorder(points) as rec:
        codes = [
            cli.main(argv)
            for argv in (
                ["select"] + base,
                ["train"] + base,
                ["evaluate"] + base,
                ["compare"] + base + ["--seeds", "1"],
                ["gradcheck"],
            )
        ]
    assert codes == [0] * 5
    assert rec.calls["neural.ForecastModel.forward"] > 0
    assert rec.calls["neural.Conv2dLayer.forward"] == 0
    assert rec.counters["neural.lstm.gflop_computed"] > 0
    assert rec.calls["neural.model_to_dict"] > 0  # pipeline must call them through the neural module
    assert rec.calls["neural.model_from_dict"] > 0

    # the artifact keys perfbench/workloads.py reads after a csv-session
    out = tmp_path / "out"
    scad = json.loads((out / "scad_selection.json").read_text())
    assert scad["n_selected"] == sum(r["selected"] for r in scad["rows"])
    for name in ("train_metrics.json", "eval_metrics.json"):
        metrics = json.loads((out / name).read_text())
        assert {"label", "seed", "mse", "mae", "mape"} <= set(metrics), name
    labels = [r["label"] for r in json.loads((out / "comparison.json").read_text())["rows"]]
    assert labels == ["RR-CNN", "RR-LSTM", "RR-CNN-LSTM", "RR-DILATED_CNN-LSTM", "SCAD-DILATED_CNN-LSTM"]

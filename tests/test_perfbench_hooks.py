"""The benchmark's tracer still finds every entry point it wraps.

perfbench/spans.py looks each traced function up by name where its
callers find it, so a rename in the package breaks
`perfbench/run.py --trace 1` while every other test passes. The tracer
is read from its file and executed here; nothing under perfbench/ is
written.
"""
import importlib
import types
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
MODULES = ("cli", "config", "gradcheck", "neural", "numcore", "pipeline", "regsel", "synth")


def test_every_traced_entry_point_resolves():
    spans = types.ModuleType("spans")
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), spans.__dict__)
    hc = {name: importlib.import_module(f"hybridcast.{name}") for name in MODULES}
    with spans.Recorder(spans.entry_points(hc)):
        pass

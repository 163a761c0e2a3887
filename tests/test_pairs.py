"""tools/pairs.py writes its report and then fails loudly on any broken benchmark run; tools/counts.py
fails on any traced count that differs, and tools/artifacts.py on any output file that differs."""
import importlib
import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"
PAIRS = TOOLS / "pairs.py"


@pytest.fixture
def pairs():
    spec = importlib.util.spec_from_file_location("pairs", PAIRS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def fake_bench(broken: tuple):
    """A stand-in for pairs.bench whose run at (checkout name, seed) in `broken` failed one of its 3 checks."""

    def bench(root, workload, seed, seconds):
        failed = int((root.name, seed) in broken)
        result = {"correct": not failed, "attempted": 3, "failed": failed,
                  "metrics": {"task_s": {"value": 1.0 + 0.1 * seed}}}
        figures = {"gradcheck_s": 0.1 * seed + (root.name == "parent"), "sessions": seed, "flag": True, "n": "x"}
        return {"cores": 2}, figures, result

    return bench


@pytest.mark.parametrize(
    "first_seed,broken",
    [(1, ()), (1, (("change", 2),)), (11, (("change", 12),))],
    ids=["all-correct", "one-broken", "one-broken-held-out-seeds"],
)
def test_broken_runs_are_printed_and_fail(pairs, tmp_path, monkeypatch, capsys, first_seed, broken):
    for side in ("parent", "change"):
        (tmp_path / side / "src").mkdir(parents=True)
    (tmp_path / "change" / "BENCHMARK.json").write_text(json.dumps({"run_seconds": 1}))
    monkeypatch.setattr(pairs, "bench", fake_bench(broken))
    out = tmp_path / "BENCH.json"
    argv = ["--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"),
            "--pairs", "2", "--first-seed", str(first_seed), "--workload", "train-dilated", "--out", str(out)]
    assert pairs.main(argv) == (1 if broken else 0)
    report = json.loads(out.read_text())
    assert report["seeds"] == [first_seed, first_seed + 1]
    assert report["src_statements"] == {"parent": 0, "change": 0}
    figures = report["workloads"]["train-dilated"]["figures"]
    assert set(figures) == {"gradcheck_s", "sessions"}  # numeric figures only
    s0 = first_seed
    assert figures["gradcheck_s"]["parent"]["values"] == [0.1 * s0 + 1, 0.1 * (s0 + 1) + 1]
    assert figures["gradcheck_s"]["change"]["median"] == pytest.approx(0.1 * s0 + 0.05)
    runs = report["workloads"]["train-dilated"]["runs"]
    assert [r["failed"] for r in runs["change"]] == [0, len(broken)]
    err = capsys.readouterr().err
    line = f"train-dilated seed {first_seed + 1} change: correct False, 1 of 3 checks failed"
    assert (line in err) == bool(broken)
    assert err.count("correct False") == len(broken)


def test_bench_reads_the_machine_figures_and_result_lines(pairs, monkeypatch, tmp_path):
    stdout = "\n".join([
        'machine: {"cores": 2}',
        'figures (csv-session, seed 3, raw seconds): {"gradcheck_s": 0.02, "sessions": 4}',
        '{"correct": true, "attempted": 1, "failed": 0, "metrics": {}}',
    ]) + "\n"
    monkeypatch.setattr(pairs.subprocess, "run", lambda cmd, **kw: subprocess.CompletedProcess(cmd, 0, stdout=stdout))
    machine, figures, result = pairs.bench(tmp_path, "csv-session", 3, 30)
    assert machine == {"cores": 2}
    assert figures == {"gradcheck_s": 0.02, "sessions": 4}
    assert result["correct"] is True


def test_statement_count_ignores_line_layout_and_docstrings(pairs, tmp_path):
    """Joining a statement's lines or dropping a docstring changes src_lines but not src_statements."""
    module = tmp_path / "src" / "pkg" / "m.py"
    module.parent.mkdir(parents=True)
    module.write_text('"""Module."""\ntotal = (1 +\n         2)\n\n\ndef f():\n    """Doc."""\n    return total\n')
    lines, statements = pairs.src_lines(tmp_path), pairs.src_statements(tmp_path)
    module.write_text("total = 1 + 2\ndef f(): return total\n")
    assert pairs.src_lines(tmp_path) == 2 < lines
    assert pairs.src_statements(tmp_path) == statements == 3


@pytest.fixture
def counts(monkeypatch):
    monkeypatch.syspath_prepend(str(TOOLS))
    return importlib.import_module("counts")


def traced_stdout(sweeps: int) -> str:
    """What a traced perfbench run prints: machine, figures, then the result with its per-layer metrics."""
    metrics = {"regsel.penalized_fit.calls": {"value": 257, "unit": "count"},
               "regsel.penalized_fit.sweeps": {"value": sweeps, "unit": "count"},
               "regsel.penalized_fit.self_s": {"value": 0.5 + sweeps, "unit": "s"},
               "neural.lstm.gflop_computed": {"value": 0.25, "unit": "GFLOP"}}
    result = {"correct": True, "attempted": 4, "failed": 0, "metrics": metrics}
    return "\n".join(['machine: {"nproc": 2}', 'figures (select-mc, seed 1, raw seconds): {}', json.dumps(result)]) + "\n"


@pytest.mark.parametrize("change_sweeps,code", [(12345, 0), (12346, 1)], ids=["same", "one-count-differs"])
def test_counts_prints_every_count_and_fails_on_a_difference(counts, tmp_path, monkeypatch, capsys, change_sweeps, code):
    per_layer = [{"name": name, "unit": unit, "better": "lower"} for name, unit in (
        ("regsel.penalized_fit.calls", "count"), ("regsel.penalized_fit.self_s", "s"),
        ("regsel.penalized_fit.sweeps", "count"), ("neural.lstm.gflop_computed", "GFLOP"))]
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
    (tmp_path / "change" / "BENCHMARK.json").write_text(json.dumps({"run_seconds": 30, "per_layer": per_layer}))
    commands = []

    def run(cmd, cwd, **kw):
        commands.append((Path(cwd).name, cmd[cmd.index("--seed") + 1], cmd[cmd.index("--trace") + 1]))
        stdout = traced_stdout(change_sweeps if Path(cwd).name == "change" else 12345)
        return subprocess.CompletedProcess(cmd, 0, stdout=stdout)

    monkeypatch.setattr(subprocess, "run", run)
    argv = ["--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"), "--workload", "select-mc"]
    assert counts.main(argv) == code
    assert commands == [("parent", "1", "1"), ("change", "1", "1")]
    out = capsys.readouterr().out.splitlines()
    assert out[:3] == [
        "select-mc regsel.penalized_fit.calls: parent 257, change 257",
        f"select-mc regsel.penalized_fit.sweeps: parent 12345, change {change_sweeps}" + ("  DIFFERS" if code else ""),
        "select-mc neural.lstm.gflop_computed: parent 0.25, change 0.25",
    ]
    assert out[3] == f"{code} of 3 traced counts differ"
    assert len(out) == 4  # the seconds metric is not compared


def test_counts_flags_a_metric_missing_from_one_side(counts):
    parent = {"metrics": {"a.calls": {"value": 3, "unit": "count"}}}
    lines, differ = counts.count_lines("w", ["a.calls"], parent, {"metrics": {}})
    assert (lines, differ) == (["w a.calls: parent 3, change None  DIFFERS"], 1)


@pytest.fixture
def artifacts(monkeypatch):
    monkeypatch.syspath_prepend(str(TOOLS))
    return importlib.import_module("artifacts")


def canned_cli(outputs: dict):
    """A stand-in for subprocess.run: each CLI command writes outputs[(checkout name, command)], name -> bytes."""
    commands = []

    def run(cmd, cwd, env, **kw):
        root = Path(cwd)
        assert env["PYTHONPATH"] == str(root / "src")
        out = Path(cmd[cmd.index("--out") + 1])
        data = json.loads(Path(cmd[cmd.index("--config") + 1]).read_text())["data"]
        if out.name == "csv":  # the third pass reads the panel that synth wrote
            assert data["csv_paths"] == [str(out.parent / "c9" / "panel.csv")]
        else:
            assert data["source"] == "synthetic"
        out.mkdir(exist_ok=True)
        commands.append((root.name, out.name, cmd[3]))
        for name, data in outputs.get((root.name, cmd[3]), {}).items():
            (out / name).write_bytes(data)
        return subprocess.CompletedProcess(cmd, 0)

    return run, commands


@pytest.mark.parametrize(
    "change_train,code,verdict",
    [({"model.json": b"m"}, 0, "identical"), ({"model.json": b"M"}, 1, "DIFFERS"), ({}, 1, "only in the parent")],
    ids=["same", "one-byte-differs", "one-side-lacks-a-file"],
)
def test_artifacts_compares_every_file_and_fails_on_a_difference(artifacts, tmp_path, monkeypatch, capsys,
                                                                change_train, code, verdict):
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
    outputs = {(side, "synth"): {"panel.csv": b"date,price\n"} for side in ("parent", "change")}
    outputs[("parent", "train")] = {"model.json": b"m"}
    outputs[("change", "train")] = change_train
    run, commands = canned_cli(outputs)
    monkeypatch.setattr(subprocess, "run", run)
    assert artifacts.main(["--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change")]) == code
    steps = [(out, argv[0]) for out, argv in artifacts.STEPS]
    assert commands == [("parent", *step) for step in steps] + [("change", *step) for step in steps]
    assert steps[:5] == [("c9", c) for c in ("synth", "select", "train", "evaluate", "compare")]
    assert artifacts.STEPS[5:7] == [("cnn", ["train", "--variant", "cnn", "--all-features"]), ("cnn", ["evaluate"])]
    assert steps[7:] == [("csv", c) for c in ("select", "train", "evaluate")]
    assert capsys.readouterr().out.splitlines() == [
        "c9/model.json: " + verdict,
        "c9/panel.csv: identical",
        "cnn/model.json: " + verdict,
        "csv/model.json: " + verdict,
        f"{code * 3} of 4 output files differ",
    ]

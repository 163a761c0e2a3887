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
    assert report["src_statements_by_module"] == {"parent": {}, "change": {}}
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


def test_statements_are_counted_per_module_and_changes_printed(pairs, tmp_path, monkeypatch, capsys):
    """The report keeps every module's count; the printout gives the totals and each module that changed."""
    modules = {"parent": {"m.py": "a = 1\nb = 2\n", "n.py": "c = 3\n", "gone.py": "d = 4\n"},
               "change": {"m.py": "a = 1\n", "n.py": '"""Doc."""\nc = 3\n', "pkg/new.py": "e = 5\nf = 6\n"}}
    for side, files in modules.items():
        for name, text in files.items():
            (tmp_path / side / "src" / name).parent.mkdir(parents=True, exist_ok=True)
            (tmp_path / side / "src" / name).write_text(text)
    (tmp_path / "change" / "BENCHMARK.json").write_text(json.dumps({"run_seconds": 1}))
    monkeypatch.setattr(pairs, "bench", fake_bench(()))
    out = tmp_path / "BENCH.json"
    argv = ["--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"),
            "--pairs", "2", "--workload", "select-mc", "--out", str(out)]
    assert pairs.main(argv) == 0
    report = json.loads(out.read_text())
    assert report["src_statements_by_module"] == {"parent": {"gone.py": 1, "m.py": 2, "n.py": 1},
                                                  "change": {"m.py": 1, "n.py": 1, "pkg/new.py": 2}}
    assert report["src_statements"] == {"parent": 4, "change": 4}
    printed = [line for line in capsys.readouterr().out.splitlines() if line.startswith("src statements")]
    assert printed == [
        "src statements: parent 4, change 4 (+0)",
        "src statements gone.py: parent 1, change 0 (-1)",
        "src statements m.py: parent 2, change 1 (-1)",
        "src statements pkg/new.py: parent 0, change 2 (+2)",
    ]


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
    """A stand-in for subprocess.run: each CLI command writes outputs[(checkout name, command)], name -> bytes,
    and then outputs[(checkout name, output directory, command)]."""
    commands = []

    def run(cmd, cwd, env, **kw):
        root = Path(cwd)
        assert env["PYTHONPATH"] == str(root / "src")
        config = Path(cmd[cmd.index("--config") + 1])
        out = Path(cmd[cmd.index("--out") + 1])
        work = config.parent
        doc = json.loads(config.read_text())
        if out.name == "csv":  # the third pass reads the panel that synth wrote
            assert doc["data"]["csv_paths"] == [str(work / "c9" / "panel.csv")]
        elif out.relative_to(work).parts[0] == "full":  # the fourth runs the default config
            assert doc == {}
        else:
            assert doc["data"]["source"] == "synthetic"
            assert doc["model"].get("dilation") == (3 if out.name == "d3" else None)
        out.mkdir(exist_ok=True)
        commands.append((root.name, out.relative_to(work).as_posix(), *cmd[3:cmd.index("--config")]))
        own = outputs.get((root.name, out.relative_to(work).as_posix(), cmd[3]), {})
        for name, data in (outputs.get((root.name, cmd[3]), {}) | own).items():
            (out / name).write_bytes(data)
        return subprocess.CompletedProcess(cmd, 0)

    return run, commands


def d3_outputs(rate=3):
    """Canned c9 and d3 compare rows of both sides, d3 moving c9's two dilated rows alone, and d3's checkpoint."""
    labels = ["RR-CNN", "RR-DILATED_CNN-LSTM", "SCAD-DILATED_CNN-LSTM"]
    outputs = {}
    for side in ("parent", "change"):
        for out, mses in (("c9", (1, 1, 1)), ("d3", (1, 2, 2))):
            rows = "".join(f"{label},4,{mse}\n" for label, mse in zip(labels, mses))
            outputs[(side, out, "compare")] = {"comparison_per_seed.csv": ("label,seed,mse\n" + rows).encode()}
        outputs[(side, "d3", "train")] = {"checkpoint.json": json.dumps({"config": {"dilation": rate}}).encode()}
    return outputs


@pytest.mark.parametrize(
    "change_train,code,verdict",
    [({"model.json": b"m"}, 0, "identical"), ({"model.json": b"M"}, 1, "DIFFERS"), ({}, 1, "only in the parent")],
    ids=["same", "one-byte-differs", "one-side-lacks-a-file"],
)
def test_artifacts_compares_every_file_and_fails_on_a_difference(artifacts, tmp_path, monkeypatch, capsys,
                                                                change_train, code, verdict):
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
    outputs = d3_outputs() | {(side, "synth"): {"panel.csv": b"date,price\n"} for side in ("parent", "change")}
    for side in ("parent", "change"):
        outputs[(side, "select")] = {"scad_selection.json": json.dumps({"penalty": {"lam": 0.1 + 0.2}}).encode()}
    outputs[("parent", "train")] = {"model.json": b"m"}
    outputs[("change", "train")] = change_train
    run, commands = canned_cli(outputs)
    monkeypatch.setattr(subprocess, "run", run)
    assert artifacts.main(["--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change")]) == code
    steps = [(out, *argv) for out, argv in artifacts.STEPS]
    steps[11] = ("full/fixed", "select", "--lambda", "0.30000000000000004")  # the tuned lambda, round-tripped
    assert commands == [("parent", *step) for step in steps] + [("change", *step) for step in steps]
    assert [s[:2] for s in steps[:5]] == [("c9", c) for c in ("synth", "select", "train", "evaluate", "compare")]
    assert artifacts.STEPS[5:7] == [("cnn", ["train", "--variant", "cnn", "--all-features"]), ("cnn", ["evaluate"])]
    assert steps[7:10] == [("csv", c) for c in ("select", "train", "evaluate")]
    assert artifacts.STEPS[10:12] == [("full", ["select"]),
                                      ("full/fixed", ["select", "--lambda", artifacts.TUNED_LAMBDA])]
    assert steps[12:] == [("d3", c) for c in ("compare", "train", "evaluate")]
    d3 = "checkpoint dilation 3; compare rows that differ from c9's: RR-DILATED_CNN-LSTM, SCAD-DILATED_CNN-LSTM"
    assert capsys.readouterr().out.splitlines() == [
        "c9/comparison_per_seed.csv: identical",
        "c9/model.json: " + verdict,
        "c9/panel.csv: identical",
        "c9/scad_selection.json: identical",
        "cnn/model.json: " + verdict,
        "csv/model.json: " + verdict,
        "csv/scad_selection.json: identical",
        "d3/checkpoint.json: identical",
        "d3/comparison_per_seed.csv: identical",
        "d3/model.json: " + verdict,
        "full/fixed/scad_selection.json: identical",
        "full/scad_selection.json: identical",
        f"{code * 4} of 12 output files differ",
        "d3 on the parent: " + d3,
        "d3 on the change: " + d3,
    ]


def test_artifacts_fails_when_d3_trains_at_another_rate(artifacts, tmp_path, monkeypatch, capsys):
    """Identical files on both sides still exit 1 when d3's checkpoints do not hold dilation 3."""
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
    outputs = d3_outputs(rate=2)
    for side in ("parent", "change"):
        outputs[(side, "select")] = {"scad_selection.json": json.dumps({"penalty": {"lam": 0.5}}).encode()}
    monkeypatch.setattr(subprocess, "run", canned_cli(outputs)[0])
    assert artifacts.main(["--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change")]) == 1
    assert capsys.readouterr().out.splitlines()[-3:] == [
        "0 of 7 output files differ",
        "d3 on the parent: checkpoint dilation 2; compare rows that differ from c9's: "
        "RR-DILATED_CNN-LSTM, SCAD-DILATED_CNN-LSTM",
        "d3 on the change: checkpoint dilation 2; compare rows that differ from c9's: "
        "RR-DILATED_CNN-LSTM, SCAD-DILATED_CNN-LSTM",
    ]

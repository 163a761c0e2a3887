"""tools/pairs.py writes its report and then fails loudly on any broken benchmark run."""
import importlib.util
import json
from pathlib import Path

import pytest

PAIRS = Path(__file__).resolve().parent.parent / "tools" / "pairs.py"


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
        return {"cores": 2}, result

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
    runs = report["workloads"]["train-dilated"]["runs"]
    assert [r["failed"] for r in runs["change"]] == [0, len(broken)]
    err = capsys.readouterr().err
    line = f"train-dilated seed {first_seed + 1} change: correct False, 1 of 3 checks failed"
    assert (line in err) == bool(broken)
    assert err.count("correct False") == len(broken)

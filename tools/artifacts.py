"""Output files of a parent checkout against a change, byte for byte.

    python3 tools/artifacts.py --parent DIR [--change DIR]

Each checkout is a source tree holding ``src/``, as for ``tools/pairs.py``.
In each it runs ``python -m hybridcast.cli`` on the tiny config of the
command-determinism acceptance test (c9) through synth, select, train,
evaluate and compare in one output directory, and ``train --variant cnn
--all-features`` then ``evaluate`` in a second. A third runs select, train
and evaluate with the same config read from the ``panel.csv`` that synth
wrote, so the CSV parse path is compared too. A fourth runs select on
the default config (1060 days, 20 grid points), which reaches the dense
end of the lambda path that the tiny panel never does, and then, in its
``fixed`` subdirectory, ``select --lambda`` at the lambda that tuned
select chose. It prints one line per output file, and exits 1 if any
file differs or is written on one side only.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

CONFIG = {
    "data": {"source": "synthetic", "synthetic": {"n_days": 80, "seed": 5}},
    "selection": {"grid_points": 6},
    "model": {"variant": "dilated_cnn_lstm", "hidden_size": 6, "out_channels": 2,
              "epochs": 2, "batch_size": 16, "seed": 7},
    "seeds": [4],
}
TUNED_LAMBDA = "<lambda of full/scad_selection.json>"  # a STEPS argument, read when its step runs
# (output directory, command and flags), run in order; the "csv" directory's config reads c9/panel.csv,
# and the "full" directory's is the default config
STEPS = [("c9", ["synth"]), ("c9", ["select"]), ("c9", ["train"]), ("c9", ["evaluate"]), ("c9", ["compare"]),
         ("cnn", ["train", "--variant", "cnn", "--all-features"]), ("cnn", ["evaluate"]),
         ("csv", ["select"]), ("csv", ["train"]), ("csv", ["evaluate"]),
         ("full", ["select"]), ("full/fixed", ["select", "--lambda", TUNED_LAMBDA])]


def produce(root: Path, work: Path) -> dict[str, bytes]:
    """Every file that STEPS write in checkout `root`, by its path under `work`, and its bytes."""
    work.mkdir()
    csv_data = {"source": "csv", "csv_paths": [str(work / "c9" / "panel.csv")], "target_column": "price"}
    configs = {"config.json": CONFIG, "csv-config.json": CONFIG | {"data": csv_data}, "full-config.json": {}}
    for name, doc in configs.items():
        (work / name).write_text(json.dumps(doc))
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    for out, argv in STEPS:
        cfg = work / {"csv": "csv-config.json", "full": "full-config.json"}.get(out.split("/")[0], "config.json")
        if TUNED_LAMBDA in argv:
            tuned = json.loads((work / "full" / "scad_selection.json").read_text())["penalty"]["lam"]
            argv = [repr(tuned) if a == TUNED_LAMBDA else a for a in argv]
        cmd = [sys.executable, "-m", "hybridcast.cli", *argv, "--config", str(cfg), "--out", str(work / out)]
        try:
            subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True, check=True)
        except subprocess.CalledProcessError as exc:
            print(f"{' '.join(cmd)} in {root} exited {exc.returncode}:\n{exc.stderr}", file=sys.stderr, end="")
            raise
    return {p.relative_to(work).as_posix(): p.read_bytes() for p in sorted(work.rglob("*"))
            if p.is_file() and p.relative_to(work).as_posix() not in configs}


def compare_lines(parent: dict[str, bytes], change: dict[str, bytes]) -> tuple[list[str], int]:
    """(one line per file of either side, number of files that differ or that one side lacks)."""
    lines, differ = [], 0
    for name in sorted(parent.keys() | change.keys()):
        if name not in parent or name not in change:
            verdict = "only in the " + ("change" if name not in parent else "parent")
        else:
            verdict = "identical" if parent[name] == change[name] else "DIFFERS"
        differ += verdict != "identical"
        lines.append(f"{name}: {verdict}")
    return lines, differ


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, default=Path(__file__).resolve().parent.parent)
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        files = [produce(root.resolve(), Path(tmp) / side)
                 for side, root in (("parent", args.parent), ("change", args.change))]
    lines, differ = compare_lines(*files)
    print("\n".join(lines))
    print(f"{differ} of {len(lines)} output files differ")
    return 1 if differ else 0


if __name__ == "__main__":
    raise SystemExit(main())

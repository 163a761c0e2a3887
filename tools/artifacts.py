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
select chose. A fifth, ``d3``, runs compare (which runs the selection it
needs), train and evaluate on the c9 config with ``model.dilation: 3``.
It prints one line per output file, and exits 1 if any file differs or
is written on one side only. It also prints, for each side, the dilation
of d3's checkpoint and the compare rows of d3 that differ from c9's
(dilation 2), and exits 1 unless these are 3 and the two dilated cells
alone.
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
DILATED_CELLS = ["RR-DILATED_CNN-LSTM", "SCAD-DILATED_CNN-LSTM"]
TUNED_LAMBDA = "<lambda of full/scad_selection.json>"  # a STEPS argument, read when its step runs
# (output directory, command and flags), run in order; the "csv" directory's config reads c9/panel.csv,
# the "full" directory's is the default config, and the "d3" directory's is CONFIG with dilation 3
STEPS = [("c9", ["synth"]), ("c9", ["select"]), ("c9", ["train"]), ("c9", ["evaluate"]), ("c9", ["compare"]),
         ("cnn", ["train", "--variant", "cnn", "--all-features"]), ("cnn", ["evaluate"]),
         ("csv", ["select"]), ("csv", ["train"]), ("csv", ["evaluate"]),
         ("full", ["select"]), ("full/fixed", ["select", "--lambda", TUNED_LAMBDA]),
         ("d3", ["compare"]), ("d3", ["train"]), ("d3", ["evaluate"])]


def produce(root: Path, work: Path) -> dict[str, bytes]:
    """Every file that STEPS write in checkout `root`, by its path under `work`, and its bytes."""
    work.mkdir()
    csv_data = {"source": "csv", "csv_paths": [str(work / "c9" / "panel.csv")], "target_column": "price"}
    configs = {"config.json": CONFIG, "csv-config.json": CONFIG | {"data": csv_data}, "full-config.json": {},
               "d3-config.json": CONFIG | {"model": CONFIG["model"] | {"dilation": 3}}}
    for name, doc in configs.items():
        (work / name).write_text(json.dumps(doc))
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    own = {"csv": "csv-config.json", "full": "full-config.json", "d3": "d3-config.json"}
    for out, argv in STEPS:
        cfg = work / own.get(out.split("/")[0], "config.json")
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


def d3_rates(files: dict[str, bytes]) -> tuple[int, list[str]]:
    """(dilation of d3's checkpoint, labels of d3's compare rows that differ from c9's) in one side's files."""
    rows = {out: files[f"{out}/comparison_per_seed.csv"].decode().splitlines()[1:] for out in ("c9", "d3")}
    moved = [d3.split(",")[0] for d3, c9 in zip(rows["d3"], rows["c9"]) if d3 != c9]
    return json.loads(files["d3/checkpoint.json"])["config"]["dilation"], moved


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
    rates = [d3_rates(side) for side in files]
    for side, (rate, moved) in zip(("parent", "change"), rates):
        print(f"d3 on the {side}: checkpoint dilation {rate}; compare rows that differ from c9's: {', '.join(moved)}")
    return 1 if differ or any(r != (3, DILATED_CELLS) for r in rates) else 0


if __name__ == "__main__":
    raise SystemExit(main())

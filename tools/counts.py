"""Traced counts of a parent checkout against a change.

    python3 tools/counts.py --parent DIR [--change DIR] --workload W [--workload W ...]

Each checkout is a source tree holding ``perfbench/`` and ``src/``, as for
``tools/pairs.py``. For each workload it runs ``perfbench/run.py
--workload W --seed 1 --trace 1`` in both and prints, one line per
metric, both sides' value of every per-layer metric whose unit in the
change's ``BENCHMARK.json`` is not seconds: the call, sweep and
unconverged-fit counts and the computed GFLOP, which a traced run
repeats exactly. It exits 1 if any of them differs.
"""
from __future__ import annotations

import argparse
import json
from pathlib import Path

from pairs import bench


def count_lines(workload: str, names: list[str], parent: dict, change: dict) -> tuple[list[str], int]:
    """(one line per metric with both sides' values, number of metrics that differ) for two traced results."""
    lines, differ = [], 0
    for name in names:
        values = [side["metrics"].get(name, {}).get("value") for side in (parent, change)]
        same = values[0] == values[1] and values[0] is not None
        differ += not same
        lines.append(f"{workload} {name}: parent {values[0]}, change {values[1]}" + ("" if same else "  DIFFERS"))
    return lines, differ


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, default=Path(__file__).resolve().parent.parent)
    parser.add_argument("--workload", action="append", required=True)
    args = parser.parse_args(argv)
    parent, change = args.parent.resolve(), args.change.resolve()
    benchmark = json.loads((change / "BENCHMARK.json").read_text())
    names = [m["name"] for m in benchmark["per_layer"] if m["unit"] != "s"]
    differ = 0
    for workload in args.workload:
        results = [bench(root, workload, 1, benchmark["run_seconds"], trace=1)[2] for root in (parent, change)]
        lines, n = count_lines(workload, names, *results)
        print("\n".join(lines), flush=True)
        differ += n
    print(f"{differ} of {len(names) * len(args.workload)} traced counts differ")
    return 1 if differ else 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Paired benchmark runs of a parent checkout against a change.

    python3 tools/pairs.py --parent DIR [--change DIR] --pairs N [--first-seed S0] \
                           --workload W [--workload W ...] --out BENCH_<label>.json

Each checkout is a source tree holding ``perfbench/`` and ``src/``; make
the parent one with ``git archive <rev> | tar -x -C DIR``. For seeds
S0..S0+N-1 (S0 defaults to 1; pick a later S0 for seeds held out while
the change was written) it runs ``perfbench/run.py --workload W --seed S
--trace 0`` in both, the parent first on odd seeds and the change first
on even ones, for the ``run_seconds`` of the change's ``BENCHMARK.json``.
The output holds the seeds and the machine info; per metric, both sides'
median, Q1, Q3 and every value,
and the number of pairs in which the change is lower (better); per
numeric value of the run's ``figures (...)`` line (raw seconds per
command, counts), both sides' median and every value; every
run's correctness; and the ``src/`` line and statement counts of both
checkouts, the statements also per module. Before the runs it prints
both sides' statement counts: the totals, then each module whose count
differs. For each workload and metric it prints one summary line: both
medians, the change's median against the parent's in %, and the pairs
the change won.
After writing the file it prints every run that is not correct or has a
failed check, and then exits 1.
"""
from __future__ import annotations

import argparse
import ast
import json
import statistics
import subprocess
import sys
from pathlib import Path


def bench(root: Path, workload: str, seed: int, seconds: float, trace: int = 0) -> tuple[dict, dict, dict]:
    """(machine info, figures, result) of one perfbench run."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    try:
        out = subprocess.run(cmd, cwd=root, capture_output=True, text=True, check=True).stdout.splitlines()
    except subprocess.CalledProcessError as exc:
        print(f"{' '.join(cmd)} in {root} exited {exc.returncode}:\n{exc.stderr}", file=sys.stderr, end="")
        raise
    machine = json.loads(next(line for line in out if line.startswith("machine: "))[len("machine: "):])
    figures = json.loads(next(line for line in out if line.startswith("figures (")).split(": ", 1)[1])
    return machine, figures, json.loads(out[-1])


def src_lines(root: Path) -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted((root / "src").rglob("*.py")))


def module_statements(root: Path) -> dict[str, int]:
    """AST statements per module of ``src/``, keyed by its path there, docstrings excluded:
    reformatting or joining lines leaves a count unchanged."""
    counts = {}
    for p in sorted((root / "src").rglob("*.py")):
        count = 0
        for node in ast.walk(ast.parse(p.read_text())):
            docstring = (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
                         and isinstance(node.value.value, str))
            count += isinstance(node, ast.stmt) and not docstring
        counts[p.relative_to(root / "src").as_posix()] = count
    return counts


def src_statements(root: Path) -> int:
    return sum(module_statements(root).values())


def statement_lines(by_module: dict) -> list[str]:
    """The total statement count of both sides, then one line per module whose count differs."""
    parent, change = by_module["parent"], by_module["change"]
    rows = [("", sum(parent.values()), sum(change.values()))]
    rows += [(" " + m, parent.get(m, 0), change.get(m, 0)) for m in sorted(parent.keys() | change.keys())
             if parent.get(m, 0) != change.get(m, 0)]
    return [f"src statements{name}: parent {p}, change {c} ({c - p:+d})" for name, p, c in rows]


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def figure_summaries(figures: dict) -> dict:
    """Per numeric figure that every run of both sides reports: each side's median and values."""
    out = {}
    for name, value in figures["change"][0].items():
        values = {side: [f.get(name) for f in fs] for side, fs in figures.items()}
        if type(value) in (int, float) and all(type(v) in (int, float) for vs in values.values() for v in vs):
            out[name] = {side: {"median": statistics.median(vs), "values": vs} for side, vs in values.items()}
    return out


def summary_line(workload: str, name: str, metric: dict, pairs: int) -> str:
    """Both medians, the change's median against the parent's in %, and the pairs it won."""
    parent, change = metric["parent"]["median"], metric["change"]["median"]
    delta = f"{100.0 * (change - parent) / parent:+.1f}%" if parent else "n/a"
    return (f"{workload} {name}: parent {parent:.4g}, change {change:.4g} ({delta}), "
            f"change lower in {metric['change_lower']}/{pairs} pairs")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, default=Path(__file__).resolve().parent.parent)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    seconds = json.loads((sides["change"] / "BENCHMARK.json").read_text())["run_seconds"]

    seeds = list(range(args.first_seed, args.first_seed + args.pairs))
    by_module = {side: module_statements(root) for side, root in sides.items()}
    report = {"run_seconds": seconds, "pairs": args.pairs, "seeds": seeds, "workloads": {},
              "src_lines": {side: src_lines(root) for side, root in sides.items()},
              "src_statements": {side: sum(counts.values()) for side, counts in by_module.items()},
              "src_statements_by_module": by_module}
    for line in statement_lines(by_module):
        print(line, flush=True)
    for workload in args.workload:
        runs, figures = {"parent": [], "change": []}, {"parent": [], "change": []}
        for seed in seeds:
            for side in ("parent", "change") if seed % 2 else ("change", "parent"):
                report["machine"], figs, result = bench(sides[side], workload, seed, seconds)
                runs[side].append(result)
                figures[side].append(figs)
                print(f"{workload} seed {seed} {side}: {json.dumps(result)}", file=sys.stderr, flush=True)
        metrics = {}
        for name in runs["parent"][0]["metrics"]:
            values = {side: [r["metrics"][name]["value"] for r in runs[side]] for side in runs}
            metrics[name] = dict(
                {side: summary(v) for side, v in values.items()},
                change_lower=sum(c < p for p, c in zip(values["parent"], values["change"])),
                values=values,
            )
            print(summary_line(workload, name, metrics[name], args.pairs), flush=True)
        report["workloads"][workload] = {
            "metrics": metrics,
            "figures": figure_summaries(figures),
            "runs": {side: [{k: r[k] for k in ("correct", "attempted", "failed")} for r in rs]
                     for side, rs in runs.items()},
        }
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    broken = broken_runs(report)
    for line in broken:
        print(line, file=sys.stderr)
    return 1 if broken else 0


def broken_runs(report: dict) -> list[str]:
    """One line per run of the report that is not correct or failed a check, naming its workload, side and seed."""
    return [
        f"{workload} seed {seed} {side}: correct {run['correct']}, {run['failed']} of {run['attempted']} checks failed"
        for workload, entry in report["workloads"].items()
        for side, rs in entry["runs"].items()
        for seed, run in zip(report["seeds"], rs)
        if not run["correct"] or run["failed"] > 0
    ]


if __name__ == "__main__":
    raise SystemExit(main())

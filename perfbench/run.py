"""Benchmark command for hybridcast.

    python3 perfbench/run.py --workload {select-mc,train-dilated,csv-session}
                             --seed N --seconds S --trace {0,1}

Run from the root of a source checkout: the package is imported from
``src/`` beside this directory, never from an installed copy. The last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. The lines before
it describe the machine and give the workload's figures under their own
names, in raw seconds.
"""
from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = ("cli", "config", "gradcheck", "neural", "numcore", "pipeline", "regsel", "synth")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Time of one calibration slice on the reference machine (see README) when
# the host lets it run at full speed; calibrated seconds are seconds at
# that speed.
REFERENCE_SLICE_S = 0.030


def import_package():
    """Import numpy, scipy and every hybridcast module from ``ROOT/src``; returns (modules, seconds)."""
    src = ROOT / "src"
    if not (src / "hybridcast" / "__init__.py").is_file():
        raise SystemExit(f"error: no hybridcast package under {src}; run from a source checkout")
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    import numpy  # noqa: F401  (timed: the package cannot run without it)
    import scipy  # noqa: F401

    hc = {name: importlib.import_module(f"hybridcast.{name}") for name in MODULES}
    elapsed = time.perf_counter() - t0
    loaded = Path(hc["pipeline"].__file__).resolve()
    if src.resolve() not in loaded.parents:
        raise SystemExit(f"error: hybridcast was imported from {loaded}, not from {src}")
    return hc, elapsed


def machine_info(threads: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
    }


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0  # ru_maxrss is in KiB on Linux


class Stopwatch:
    """Times program calls, with a fixed calibration slice before and after each.

    The shared two-core machine the benchmark was built on runs the same
    code up to 1.5x slower for seconds to minutes at a time. The slice (an
    interpreter loop and small matrix products, the two kinds of work the
    program spends its time on) is timed after every call, so each call
    is bracketed by two slices; dividing the call's time by their mean and
    multiplying by ``REFERENCE_SLICE_S`` gives calibrated seconds, from
    which most of the machine's slowdown has cancelled.
    """

    def __init__(self):
        import numpy as np

        self._np = np
        self._matrix = np.random.default_rng(0).standard_normal((96, 96)) / 96
        self.samples: list[tuple[str, float, int]] = []  # (name, seconds, slices before it)
        self.slices: list[float] = []
        self.calibrate()

    def time(self, name, fn, *args, **kwargs):
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        self.samples.append((name, time.perf_counter() - t0, len(self.slices)))
        self.calibrate()
        return result

    def calibrate(self) -> None:
        t0 = time.perf_counter()
        s = 0
        for i in range(300_000):
            s += i * i
        m = self._matrix
        for _ in range(150):
            m = self._np.tanh(m @ self._matrix)
        self.slices.append(time.perf_counter() - t0)

    def raw(self) -> dict[str, list[float]]:
        out = defaultdict(list)
        for name, seconds, _ in self.samples:
            out[name].append(seconds)
        return out

    def calibrated(self) -> dict[str, list[float]]:
        out = defaultdict(list)
        for name, seconds, k in self.samples:
            out[name].append(seconds * REFERENCE_SLICE_S / ((self.slices[k - 1] + self.slices[k]) / 2))
        return out


def execute(wl, sizes, seconds: float, recorder):
    """Set up, then run rounds; returns (stopwatch, checks, tracing overhead in seconds).

    Untraced (``recorder`` is None): rounds until ``seconds`` have passed.
    Traced: a fixed number of rounds, each made once untraced and once
    traced on the same inputs, so the counts repeat exactly and the
    difference of their calibrated times gives the tracing overhead; only
    traced rounds are checked.
    """
    from workloads import Checks

    traced = recorder if recorder is not None else contextlib.nullcontext()
    watch = Stopwatch()
    for _ in range(sizes.setup_repeats):
        with traced:
            watch.time("setup", wl.setup)

    checks = Checks()
    plain_watch = Stopwatch()
    start = time.perf_counter()
    i = 0
    while True:
        if recorder is not None:
            wl.operate(i, plain_watch)
            with recorder:
                out = wl.operate(i, watch)
        else:
            out = wl.operate(i, watch)
        wl.check(out, checks)
        i += 1
        if recorder is not None and i >= wl.trace_rounds:
            break
        if recorder is None and time.perf_counter() - start >= seconds:
            break
    traced_s = sum(sum(v) for name, v in watch.calibrated().items() if name != "setup")
    overhead = traced_s - sum(sum(v) for v in plain_watch.calibrated().values())
    return watch, checks, overhead


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("select-mc", "train-dilated", "csv-session"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return run(args.workload, args.seed, args.seconds, bool(args.trace))


def run(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> int:
    # BLAS threads are capped at the cores this process may use; the
    # variables must be set before numpy loads its BLAS
    threads = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(threads)
    hc, import_s = import_package()

    import spans
    import workloads

    sizes = workloads.TINY if tiny else workloads.FULL
    workdir = ROOT / ".perfbench_work" / f"{workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = workloads.WORKLOADS[workload](hc, sizes, seed, str(workdir))
        recorder = spans.Recorder(spans.entry_points(hc)) if trace else None
        watch, checks, overhead = execute(wl, sizes, seconds, recorder)
        summary = wl.finish(checks)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if trace:
        metrics = spans.layer_metrics(recorder, overhead)
        out_dir = ROOT / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        recorder.write(out_dir / f"spans-{workload}-seed{seed}.jsonl")
        figures = {}  # traced rounds carry the tracing overhead
    else:
        cal = watch.calibrated()
        # the import ran just before the first slice
        setup_s = import_s * REFERENCE_SLICE_S / watch.slices[0] + statistics.median(cal.pop("setup"))
        metrics = {"setup_s": {"value": setup_s, "unit": "s"}}
        metrics.update({name: {"value": value, "unit": "s"} for name, value in wl.timings(cal).items()})
        metrics["peak_rss_mb"] = {"value": peak_rss_mb(), "unit": "MB"}
        raw = watch.raw()
        raw_setup_s = statistics.median(raw.pop("setup"))
        figures = dict(
            wl.figures(raw), import_s=import_s, setup_s=raw_setup_s,
            calibration_slice_s=statistics.median(watch.slices), calibration_slices=len(watch.slices),
        )

    for name, detail in checks.known.items():
        print(f"known fault, counted as failed: {name}: {detail}", file=sys.stderr)
    for line in checks.unexpected:
        print(f"CHECK FAILED: {line}", file=sys.stderr)
    print("machine: " + json.dumps(machine_info(threads)))
    print(f"figures ({workload}, seed {seed}, raw seconds): " + json.dumps(dict(figures, **summary)))
    result = {"correct": not checks.unexpected, "attempted": checks.attempted, "failed": checks.failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Self-test of the benchmark's own code, at tiny sizes.

    python3 perfbench/selftest.py

Runs every workload untraced and traced on short panels, end to end with
all of its checks, and checks that each result line has the form and the
metric names ``BENCHMARK.json`` declares. It also feeds the reference
computations small cases with known answers, so a check that could no
longer fail would show. Takes about a minute on two cores; exits 1 on the
first failure.
"""
from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import run

SESSION_CHECKS = 11  # operations per csv-session round; one of them is the MAPE fault


def run_tiny(workload: str, trace: bool) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run.run(workload, seed=3, seconds=0.0, trace=trace, tiny=True)
    assert code == 0, f"{workload}: exit code {code}"
    return json.loads(buf.getvalue().strip().splitlines()[-1])


def check_reference() -> None:
    import numpy as np

    import reference

    # MAPE with |actual| in the denominator: actuals (-2, 2), predictions (1, 1)
    got = reference.error_metrics(np.array([-2.0, 2.0]), np.array([1.0, 1.0]))["mape"]
    assert got == 1.0, got

    rng = np.random.default_rng(0)
    x = rng.normal(size=(200, 4))
    y = x @ np.array([1.0, 0.0, -0.5, 0.0]) + rng.normal(size=200)
    xs = (x - x.mean(axis=0)) / x.std(axis=0, ddof=1)
    lam = 200.0
    beta = np.linalg.solve(xs.T @ xs + lam * np.eye(4), xs.T @ (y - y.mean()))
    assert reference.ridge_normal_equation_residual(x, y, lam, beta) < 1e-12
    assert reference.ridge_normal_equation_residual(x, y, lam, beta * 1.001) > 1e-4

    # a zero vector is SCAD-optimal exactly when lambda reaches max |X'y|/n
    sd = x.std(axis=0)
    g = np.abs(((x - x.mean(axis=0)) / sd).T @ (y - y.mean())) / len(y)
    assert reference.scad_kkt(x, y, np.zeros(4), g.max() * 1.01, 3.7) == 0.0
    assert reference.scad_kkt(x, y, np.zeros(4), g.max() * 0.9, 3.7) > 0.0

    calls = []
    params = {"w": np.array([1.0, 2.0])}
    numeric = reference.sampled_central_differences(
        lambda: calls.append(1) or float(params["w"] @ params["w"]), params, rng, per_block=2
    )
    idx, num = numeric["w"]
    assert np.allclose(num, 2.0 * np.array([1.0, 2.0])[idx], atol=1e-6) and len(calls) == 4
    assert np.array_equal(params["w"], [1.0, 2.0])


def main() -> int:
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, declared in ((False, spec["end_to_end"]), (True, spec["per_layer"])):
            result = run_tiny(workload, trace)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
            assert result["correct"] is True, f"{workload}: checks failed"
            assert result["attempted"] >= 1
            if workload == "csv-session":
                # exactly the MAPE check fails, once per session
                assert result["failed"] * SESSION_CHECKS == result["attempted"], result
            else:
                assert result["failed"] == 0, result
            units = {m["name"]: m["unit"] for m in declared}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == units, f"{workload}: metrics {sorted(set(got) ^ set(units))} differ from BENCHMARK.json"
            if not trace:
                assert all(v["value"] > 0 for v in result["metrics"].values()), result["metrics"]
            print(f"{workload} trace={int(trace)}: ok ({result['attempted']} checks, {result['failed']} failed)")
    check_reference()  # after the runs, which load numpy with the BLAS thread cap set
    print("reference computations: ok")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except AssertionError as exc:
        print(f"selftest FAILED: {exc}", file=sys.stderr)
        sys.exit(1)

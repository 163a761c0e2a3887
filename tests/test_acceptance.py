"""Acceptance criteria, one test per criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL
line per criterion. The heavier Monte-Carlo and end-to-end criteria
carry their own wall-clock budgets and are asserted against them.
"""
import contextlib
import json
import math
import os
import time

import numpy as np

from hybridcast import cli, gradcheck, pipeline, regsel, synth
from hybridcast.neural import receptive_field
from hybridcast.pipeline import (
    chrono_split,
    evaluate,
    fit_scaler,
    make_windows,
)
from hybridcast.regsel import PenaltySpec
from hybridcast.synth import SyntheticSpec, generate_synthetic_panel


@contextlib.contextmanager
def criterion(num: int, name: str):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {num} {name}: FAIL", flush=True)
        raise
    print(f"\nACCEPTANCE {num} {name}: PASS", flush=True)


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def test_c1_gradient_correctness():
    with criterion(1, "gradient-correctness"):
        t0 = time.perf_counter()
        checks = gradcheck.run_gradient_checks(seed=0)
        elapsed = time.perf_counter() - t0

        names = {c.block for c in checks}
        for block in (
            "conv_kernel", "conv_bias",
            "W_f", "W_i", "W_g", "W_o", "b_f", "b_i", "b_g", "b_o",
            "dense_w", "dense_b", "input",
        ):
            assert f"dilated_cnn_lstm/{block}" in names, f"missing block {block}"
        worst = max(c.max_rel_error for c in checks)
        assert worst <= 1e-4, f"worst gradient error {worst:.3e}"
        assert all(c.passed for c in checks), [c.block for c in checks if not c.passed]
        assert elapsed < 60.0, f"gradcheck took {elapsed:.1f}s"


def test_c2_ridge_algebra():
    with criterion(2, "ridge-algebra"):
        rng = np.random.default_rng(202)
        lam_grid = np.geomspace(1e-3, 1e3, 20)
        for _ in range(100):
            x = rng.standard_normal((50, 5))
            y = rng.standard_normal(50)
            lam = float(rng.uniform(0.1, 10.0))

            fit = regsel.ridge_fit(x, y, lam, center=False)
            resid = (x.T @ x + lam * np.eye(5)) @ fit.beta - x.T @ y
            assert np.max(np.abs(resid)) <= 1e-8

            ols = regsel.ols_fit(x, y, intercept=False)
            near = regsel.ridge_fit(x, y, 1e-8, center=False)
            assert np.max(np.abs(near.beta - ols.beta)) <= 1e-6

            norms = [
                np.linalg.norm(regsel.ridge_fit(x, y, float(l), center=False).beta)
                for l in lam_grid
            ]
            assert all(a >= b - 1e-12 for a, b in zip(norms, norms[1:]))


def test_c3_scad_analytics():
    with criterion(3, "scad-analytics"):
        rng = np.random.default_rng(303)
        # penalty continuity at the breakpoints
        for lam, a in ((1.0, 3.7), (0.4, 2.3), (2.5, 6.0)):
            for point in (lam, a * lam):
                lo = regsel.scad_penalty(np.nextafter(point, 0), lam, a)
                hi = regsel.scad_penalty(np.nextafter(point, np.inf), lam, a)
                assert abs(lo - hi) <= 1e-12

        # derivative vs central finite differences, off breakpoints
        lam, a, h = 1.3, 3.7, 1e-6
        checked = 0
        while checked < 100:
            b = float(rng.uniform(h, 1.5 * a * lam))
            if min(abs(b - lam), abs(b - a * lam)) < 10 * h:
                continue
            fd = (regsel.scad_penalty(b + h, lam, a) - regsel.scad_penalty(b - h, lam, a)) / (2 * h)
            assert abs(regsel.scad_penalty_derivative(b, lam, a) - fd) <= 1e-6
            checked += 1

        # threshold: continuity, oddness, non-expansiveness, identity tail
        for lam, a in ((1.0, 3.7), (0.7, 2.4)):
            for point in (2 * lam, a * lam):
                lo = regsel.scad_threshold(np.nextafter(point, 0), lam, a)
                hi = regsel.scad_threshold(np.nextafter(point, np.inf), lam, a)
                assert abs(lo - hi) <= 1e-12
            for z in rng.uniform(-3 * a * lam, 3 * a * lam, size=200):
                out = regsel.scad_threshold(float(z), lam, a)
                assert abs(out + regsel.scad_threshold(-float(z), lam, a)) <= 1e-12
                assert abs(out) <= abs(z) + 1e-12
                if abs(z) >= a * lam:
                    assert out == z

        # orthonormal design: coordinate descent equals the univariate rules
        n, m = 240, 8
        x = rng.standard_normal((n, m))
        x -= x.mean(axis=0)
        q, _ = np.linalg.qr(x)
        x = q * np.sqrt(n)
        y = rng.standard_normal(n) * 2.0
        beta0_hat = x.T @ (y - y.mean()) / n
        for kind, rule in (
            ("lasso", lambda b: regsel.soft_threshold(b, 0.35)),
            ("scad", lambda b: regsel.scad_threshold(b, 0.35, 3.7)),
        ):
            fit = regsel.penalized_fit(x, y, PenaltySpec(kind, 0.35, 3.7), tol=1e-10)
            expected = np.array([rule(float(b)) for b in beta0_hat])
            assert np.max(np.abs(fit.beta - expected)) <= 1e-8


def test_c4_receptive_fields():
    with criterion(4, "receptive-fields"):
        assert [receptive_field(3, d) for d in (1, 2, 3, 4)] == [3, 5, 7, 9]


def test_c5_selection_behavior():
    with criterion(5, "selection-behavior"):
        t0 = time.perf_counter()
        covers = smaller = 0
        for seed in range(20):
            frame, truth = generate_synthetic_panel(SyntheticSpec(seed=seed))
            rr, scad = pipeline.select_panel_features(frame)
            score = synth.score_selection(scad, truth)
            covers += bool(score["covers_support"])
            smaller += bool(scad.n_selected < rr.n_selected)
        elapsed = time.perf_counter() - t0
        assert covers >= 16, f"SCAD covered the true support in only {covers}/20 seeds"
        assert smaller >= 16, f"SCAD was smaller than ridge in only {smaller}/20 seeds"
        assert elapsed < 300.0, f"selection Monte Carlo took {elapsed:.0f}s"


def test_c6_pipeline_integrity():
    with criterion(6, "pipeline-integrity"):
        frame, _ = generate_synthetic_panel(SyntheticSpec(n_days=120, seed=11))

        n_samples = len(frame) - 5
        n_train = int(math.floor(0.9 * n_samples))
        scaler = fit_scaler(frame, train_end_index=n_train + 5)
        std = scaler.transform(frame)
        batch = make_windows(std, window=5, original=frame)

        # no lookahead on every window
        batch.check_no_lookahead()
        for last_in, tgt in zip(batch.input_last_dates, batch.target_dates):
            assert last_in < tgt

        # leakage canary: statistics must move when the test span is included
        full = fit_scaler(frame, train_end_index=len(frame))
        assert any(scaler.mean[j] != full.mean[j] for j in range(len(scaler.names)))

        # inverse standardization round-trips
        for name in frame.columns:
            back = scaler.inverse_column(name, std.columns[name])
            assert np.max(np.abs(back - frame.columns[name])) <= 1e-10

        # chronological split: exactly floor(0.9 n) / remainder, order kept
        train_b, test_b = chrono_split(batch, 0.9)
        assert len(train_b) == n_train
        assert len(test_b) == n_samples - n_train
        assert max(train_b.target_dates) < min(test_b.target_dates)


def test_c7_metrics():
    with criterion(7, "metrics"):
        m = evaluate(np.array([2.0, 2.0, 2.0]), np.array([1.0, 2.0, 3.0]))
        assert abs(m.mse - 2.0 / 3.0) <= 1e-9
        assert abs(m.mae - 2.0 / 3.0) <= 1e-9
        assert abs(m.mape - 0.4444444444444444) <= 1e-9

        rng = np.random.default_rng(707)
        for _ in range(100):
            actual = rng.uniform(0.5, 20.0, size=12)
            pred = actual + rng.standard_normal(12)
            k = float(rng.uniform(0.1, 50.0))
            base = evaluate(pred, actual)
            scaled = evaluate(k * pred, k * actual)
            assert abs(scaled.mape - base.mape) <= 1e-9 * max(1.0, base.mape)
            assert abs(scaled.mae - k * base.mae) <= 1e-9 * max(1.0, k * base.mae)


ACCEPT_EPOCHS = "15"  # criterion 8 allows reducing epochs from the default 100


def test_c8_comparison_harness(tmp_path):
    with criterion(8, "comparison-harness"):
        t0 = time.perf_counter()
        out = str(tmp_path / "cmp")
        code = cli.main(
            ["compare", "--out", out, "--seeds", "1,2,3", "--epochs", ACCEPT_EPOCHS]
        )
        assert code == 0
        report = json.load(open(os.path.join(out, "comparison.json")))
        labels = [r["label"] for r in report["rows"]]
        assert labels == [
            "RR-CNN",
            "RR-LSTM",
            "RR-CNN-LSTM",
            "RR-DILATED_CNN-LSTM",
            "SCAD-DILATED_CNN-LSTM",
        ]
        for row in report["rows"] + report["per_seed"]:
            for key in ("mse", "mae", "mape"):
                assert math.isfinite(row[key])
        assert 0.0 <= report["dilated_vs_plain_win_rate"] <= 1.0
        assert report["seeds"] == [1, 2, 3]

        # per-seed determinism: the same single-seed run twice, byte for byte
        out_a, out_b = str(tmp_path / "da"), str(tmp_path / "db")
        for out_d in (out_a, out_b):
            assert cli.main(
                ["compare", "--out", out_d, "--seeds", "2", "--epochs", ACCEPT_EPOCHS]
            ) == 0
        assert read_bytes(os.path.join(out_a, "comparison.json")) == read_bytes(
            os.path.join(out_b, "comparison.json")
        )

        elapsed = time.perf_counter() - t0
        assert elapsed < 600.0, f"comparison harness took {elapsed:.0f}s"


def test_c9_command_determinism(tmp_path):
    with criterion(9, "command-determinism"):
        config = {
            "data": {"source": "synthetic", "synthetic": {"n_days": 80, "seed": 5}},
            "selection": {"grid_points": 6},
            "model": {
                "variant": "dilated_cnn_lstm", "hidden_size": 6, "out_channels": 2,
                "epochs": 2, "batch_size": 16, "seed": 7,
            },
            "seeds": [4],
        }
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config))

        produced = {
            "synth": ["panel.csv", "ground_truth.json"],
            "select": ["rr_selection.json", "rr_selection.csv", "scad_selection.json", "scad_selection.csv"],
            "train": ["checkpoint.json", "train_metrics.json", "predictions.csv"],
            "evaluate": ["eval_metrics.json", "eval_predictions.csv"],
            "compare": ["comparison.json", "comparison.txt", "comparison_per_seed.csv"],
        }
        outs = {}
        for run_id in ("a", "b"):
            out = str(tmp_path / run_id)
            outs[run_id] = out
            base = ["--config", str(cfg_path), "--out", out]
            assert cli.main(["synth"] + base) == 0
            assert cli.main(["select"] + base) == 0
            assert cli.main(["train"] + base) == 0
            assert cli.main(["evaluate"] + base) == 0
            assert cli.main(["compare"] + base) == 0

        for files in produced.values():
            for name in files:
                a = read_bytes(os.path.join(outs["a"], name))
                b = read_bytes(os.path.join(outs["b"], name))
                assert a == b, f"{name} differs between identical runs"

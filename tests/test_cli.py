import dataclasses
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import hybridcast
from hybridcast import cli
from hybridcast.neural import ForecastModel, ModelConfig, encode_array, model_to_dict

TINY_CONFIG = {
    "data": {"source": "synthetic", "synthetic": {"n_days": 80, "seed": 5}},
    "selection": {"grid_points": 6},
    "model": {
        "variant": "dilated_cnn_lstm",
        "hidden_size": 6,
        "out_channels": 2,
        "epochs": 2,
        "batch_size": 16,
        "seed": 7,
    },
    "seeds": [1],
    "train_fraction": 0.9,
}


@pytest.fixture
def tiny_config(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(TINY_CONFIG))
    return str(path)


def run(*argv):
    return cli.main(list(argv))


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


class TestSynthCommand:
    def test_default_column_count(self, tmp_path):
        out = str(tmp_path / "o")
        assert run("synth", "--out", out, "--n-days", "30") == 0
        header = open(os.path.join(out, "panel.csv")).readline().strip().split(",")
        assert len(header) == 55  # date + 53 features + price
        assert header[0] == "date" and header[-1] == "price"
        assert os.path.exists(os.path.join(out, "ground_truth.json"))

    def test_byte_identical_rerun(self, tmp_path):
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        assert run("synth", "--out", out1, "--n-days", "40", "--seed", "9") == 0
        assert run("synth", "--out", out2, "--n-days", "40", "--seed", "9") == 0
        assert read_bytes(os.path.join(out1, "panel.csv")) == read_bytes(os.path.join(out2, "panel.csv"))
        assert read_bytes(os.path.join(out1, "ground_truth.json")) == read_bytes(
            os.path.join(out2, "ground_truth.json")
        )

    def test_too_few_days_is_usage_error(self, tmp_path):
        assert run("synth", "--out", str(tmp_path / "o"), "--n-days", "5") == 1

    def test_roundtrips_through_loader_losslessly(self, tmp_path):
        from hybridcast.pipeline import load_csv_series
        from hybridcast.synth import SyntheticSpec, generate_synthetic_panel

        out = str(tmp_path / "o")
        run("synth", "--out", out, "--n-days", "30", "--seed", "5")
        frag = load_csv_series(os.path.join(out, "panel.csv"))
        frame, _ = generate_synthetic_panel(SyntheticSpec(n_days=30, seed=5))
        assert frag.dates == frame.dates
        for name in frame.columns:  # repr() serialization keeps every bit
            assert np.array_equal(frag.columns[name], frame.columns[name]), name


class TestSelectCommand:
    def test_writes_reports(self, tiny_config, tmp_path, capsys):
        out = str(tmp_path / "o")
        assert run("select", "--config", tiny_config, "--out", out) == 0
        for name in ("rr_selection.json", "rr_selection.csv", "scad_selection.json", "scad_selection.csv"):
            assert os.path.exists(os.path.join(out, name))
        lines = capsys.readouterr().out.splitlines()
        assert any(l.startswith("rr: selected") for l in lines)
        assert any(l.startswith("scad: selected") for l in lines)

    def test_huge_lambda_warns_but_succeeds(self, tiny_config, tmp_path, capsys):
        out = str(tmp_path / "o")
        assert run("select", "--config", tiny_config, "--out", out, "--lambda", "1e9") == 0
        captured = capsys.readouterr()
        report = json.load(open(os.path.join(out, "scad_selection.json")))
        assert report["n_selected"] == 0
        assert "warning" in captured.err

    def test_missing_csv_is_data_error(self, tmp_path, capsys):
        cfg = {"data": {"source": "csv", "csv_paths": [str(tmp_path / "missing.csv")]}}
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg))
        assert run("select", "--config", str(path), "--out", str(tmp_path / "o")) == 2
        assert "missing.csv" in capsys.readouterr().err

    def test_header_only_csv_is_data_error(self, tmp_path, capsys):
        """A target CSV with a header and no rows is one error line, not an IndexError from aligning on no dates."""
        target = tmp_path / "t.csv"
        target.write_text("date,price\n")
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"data": {"source": "csv", "csv_paths": [str(target)]}}))
        assert run("select", "--config", str(path), "--out", str(tmp_path / "o")) == 2
        assert capsys.readouterr().err == f"error: {target}: no data rows\n"

    @pytest.mark.parametrize("column", ["price", "oil"])
    def test_column_in_two_csvs_is_data_error(self, tmp_path, capsys, column):
        """A column name, the target's included, may appear in only one input file."""
        dates = [f"2020-01-{d:02d}" for d in range(1, 21)]
        first = tmp_path / "a.csv"
        first.write_text("date,price,oil\n" + "".join(f"{d},{10 + i},{i % 3}\n" for i, d in enumerate(dates)))
        second = tmp_path / "b.csv"
        second.write_text(f"date,{column},gas\n" + "".join(f"{d},{i % 4},{i % 5}\n" for i, d in enumerate(dates)))
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"data": {"source": "csv", "csv_paths": [str(first), str(second)]}}))
        assert run("select", "--config", str(path), "--out", str(tmp_path / "o")) == 2
        assert f"column {column!r} appears in more than one input file" in capsys.readouterr().err

    def test_byte_identical_rerun(self, tiny_config, tmp_path):
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        run("select", "--config", tiny_config, "--out", out1)
        run("select", "--config", tiny_config, "--out", out2)
        for name in ("rr_selection.json", "scad_selection.json"):
            assert read_bytes(os.path.join(out1, name)) == read_bytes(os.path.join(out2, name))

    def test_never_loads_scipy_stats(self, tiny_config, tmp_path):
        """Importing the package and running select leaves scipy.stats unloaded: it would cost each stage ~0.6 s."""
        probe = (
            "import importlib, pkgutil, sys\n"
            "import hybridcast\n"
            "for mod in pkgutil.iter_modules(hybridcast.__path__):\n"
            "    importlib.import_module('hybridcast.' + mod.name)\n"
            "code = hybridcast.cli.main(['select', '--config', sys.argv[1], '--out', sys.argv[2]])\n"
            "print(' '.join(m for m in sys.modules if m.split('.')[:2] == ['scipy', 'stats']))\n"
            "sys.exit(code)\n"
        )
        src = os.path.dirname(os.path.dirname(hybridcast.__file__))
        proc = subprocess.run(
            [sys.executable, "-c", probe, tiny_config, str(tmp_path / "o")],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == ""
        assert os.path.exists(tmp_path / "o" / "rr_selection.json")


class TestTrainEvaluateCommands:
    def test_train_then_evaluate_reproduces_metrics(self, tiny_config, tmp_path):
        out = str(tmp_path / "o")
        run("select", "--config", tiny_config, "--out", out)
        assert run("train", "--config", tiny_config, "--out", out) == 0
        for name in ("checkpoint.json", "train_metrics.json", "predictions.csv"):
            assert os.path.exists(os.path.join(out, name))

        assert run("evaluate", "--config", tiny_config, "--out", out) == 0
        first = read_bytes(os.path.join(out, "eval_metrics.json"))
        first_preds = read_bytes(os.path.join(out, "eval_predictions.csv"))
        assert run("evaluate", "--config", tiny_config, "--out", out) == 0
        assert read_bytes(os.path.join(out, "eval_metrics.json")) == first
        assert read_bytes(os.path.join(out, "eval_predictions.csv")) == first_preds

        train_metrics = json.load(open(os.path.join(out, "train_metrics.json")))
        eval_metrics = json.load(open(os.path.join(out, "eval_metrics.json")))
        for key in ("mse", "mae", "mape"):
            assert eval_metrics[key] == train_metrics[key]

    @pytest.mark.parametrize(
        "source,edit,named",
        [
            ("synthetic", lambda cfg: cfg.update(train_fraction=0.7), "train_fraction 0.7"),
            ("synthetic", lambda cfg: cfg["data"]["synthetic"].update(seed=6), "SHA-256"),
            ("synthetic", lambda cfg: cfg["data"]["synthetic"].update(macro=12, financial_energy=26), "macro_13"),
            (
                "csv",
                lambda cfg: cfg["data"].update(target_column="macro_01"),
                "target 'macro_01' differs from the checkpoint's 'price'",
            ),
        ],
        ids=["train_fraction", "panel", "panel-lacks-column", "csv-other-target"],
    )
    def test_evaluate_on_another_split_is_data_error(self, tiny_config, tmp_path, capsys, source, edit, named):
        """A checkpoint scored against another train_fraction, panel or target, or lacking columns, fails loudly."""
        out = str(tmp_path / "o")
        cfg = json.loads(json.dumps(TINY_CONFIG))
        if source == "csv":  # the same columns, so only the target tells the two panels apart
            assert run("synth", "--config", tiny_config, "--out", out) == 0
            cfg["data"] = {"source": "csv", "csv_paths": [os.path.join(out, "panel.csv")], "target_column": "price"}
        trained = tmp_path / "trained.json"
        trained.write_text(json.dumps(cfg))
        assert run("train", "--config", str(trained), "--out", out, "--all-features") == 0
        edit(cfg)
        other = tmp_path / "other.json"
        other.write_text(json.dumps(cfg))
        capsys.readouterr()
        assert run("evaluate", "--config", str(other), "--out", out) == 2
        assert named in capsys.readouterr().err
        assert not os.path.exists(os.path.join(out, "eval_metrics.json"))

    def test_evaluate_checkpoint_wider_than_its_params_is_data_error(self, tiny_config, tmp_path, capsys):
        """An all-features checkpoint given the scaler of a selection one exits 2 naming checkpoint.params.

        The model's width is the scaler's column count, so the stored blocks cannot fit it.
        """
        wide, narrow = str(tmp_path / "wide"), str(tmp_path / "narrow")
        assert run("train", "--config", tiny_config, "--out", wide, "--all-features") == 0
        assert run("select", "--config", tiny_config, "--out", narrow) == 0
        assert run("train", "--config", tiny_config, "--out", narrow) == 0
        path = os.path.join(wide, "checkpoint.json")
        ckpt = json.load(open(path))
        scaler = json.load(open(os.path.join(narrow, "checkpoint.json")))["scaler"]
        assert len(scaler["names"]) < len(ckpt["scaler"]["names"]) == 54
        ckpt["scaler"] = scaler
        with open(path, "w") as fh:
            json.dump(ckpt, fh)
        capsys.readouterr()
        assert run("evaluate", "--config", tiny_config, "--out", wide) == 2
        err = capsys.readouterr().err
        assert "checkpoint.params" in err and "windows must be" not in err
        assert not os.path.exists(os.path.join(wide, "eval_metrics.json"))

    def test_evaluate_unbound_checkpoint_is_data_error(self, tiny_config, tmp_path, capsys):
        out = str(tmp_path / "o")
        assert run("train", "--config", tiny_config, "--out", out, "--all-features") == 0
        path = os.path.join(out, "checkpoint.json")
        ckpt = json.load(open(path))
        del ckpt["train_span_sha256"]
        with open(path, "w") as fh:
            json.dump(ckpt, fh)
        capsys.readouterr()
        assert run("evaluate", "--config", tiny_config, "--out", out) == 2
        assert "train_span_sha256" in capsys.readouterr().err

    @staticmethod
    def train_overflowing_checkpoint(config, out):
        """Train on the tiny config, then edit the checkpoint so that every forecast overflows."""
        assert run("train", "--config", config, "--out", out, "--all-features") == 0
        path = os.path.join(out, "checkpoint.json")
        ckpt = json.load(open(path))
        ckpt["params"]["dense_b"] = dataclasses.asdict(encode_array(np.array(1e308)))
        ckpt["scaler"]["sd"] = [1e10] * len(ckpt["scaler"]["sd"])
        with open(path, "w") as fh:
            json.dump(ckpt, fh)

    def test_evaluate_non_finite_predictions_is_numerical_error(self, tiny_config, tmp_path, capsys):
        """A checkpoint whose forecasts overflow exits 3 and writes no metrics or predictions."""
        out = str(tmp_path / "o")
        self.train_overflowing_checkpoint(tiny_config, out)
        capsys.readouterr()
        with np.errstate(over="ignore"):
            assert run("evaluate", "--config", tiny_config, "--out", out) == 3
        assert "predictions are not finite" in capsys.readouterr().err
        assert not os.path.exists(os.path.join(out, "eval_metrics.json"))
        assert not os.path.exists(os.path.join(out, "eval_predictions.csv"))

    def test_evaluate_overflow_prints_only_the_error(self, tiny_config, tmp_path):
        """In a fresh process with warnings shown, the overflow exits 3 with one stderr line and no RuntimeWarning."""
        out = str(tmp_path / "o")
        self.train_overflowing_checkpoint(tiny_config, out)
        src = os.path.dirname(os.path.dirname(hybridcast.__file__))
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, hybridcast.cli; sys.exit(hybridcast.cli.main(sys.argv[1:]))",
             "evaluate", "--config", tiny_config, "--out", out],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src, PYTHONWARNINGS="default"),
        )
        assert proc.returncode == 3
        assert proc.stderr.splitlines() == ["error: 8 of 8 predictions are not finite"]

    def test_train_metrics_record_epoch_history(self, tiny_config, tmp_path):
        out = str(tmp_path / "o")
        run("select", "--config", tiny_config, "--out", out)
        assert run("train", "--config", tiny_config, "--out", out, "--epochs", "3") == 0
        written = json.load(open(os.path.join(out, "train_metrics.json")))
        assert written["epochs"] == 3
        assert len(written["history"]) == 3
        assert all(isinstance(v, float) and v >= 0 for v in written["history"])
        assert written["final_train_loss"] == written["history"][-1]

    def test_train_rerun_byte_identical(self, tiny_config, tmp_path):
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        for out in (out1, out2):
            run("select", "--config", tiny_config, "--out", out)
            assert run("train", "--config", tiny_config, "--out", out) == 0
        for name in ("checkpoint.json", "train_metrics.json", "predictions.csv"):
            assert read_bytes(os.path.join(out1, name)) == read_bytes(os.path.join(out2, name))

    def test_zero_epochs_matches_no_training_oracle(self, tmp_path):
        cfg = json.loads(json.dumps(TINY_CONFIG))
        cfg["model"]["epochs"] = 0
        cfg["model"]["init_scheme"] = "zeros"
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg))
        out = str(tmp_path / "o")
        assert run("train", "--config", str(path), "--out", out, "--all-features") == 0

        from hybridcast.config import load_experiment_config, load_panel
        from hybridcast import pipeline

        config = load_experiment_config(str(path))
        frame, _ = load_panel(config.data)
        result = pipeline.train_model(frame, None, config.model, train_fraction=0.9)
        written = json.load(open(os.path.join(out, "train_metrics.json")))
        assert written["mse"] == result.metrics.mse
        assert written["mape"] == result.metrics.mape
        # zero weights predict the standardized 0, i.e. the train-span mean
        mean_price = result.scaler.inverse_column("price", np.zeros(1))[0]
        assert np.allclose(result.predictions, mean_price)

    def test_missing_selection_is_data_error(self, tiny_config, tmp_path, capsys):
        out = str(tmp_path / "o")
        assert run("train", "--config", tiny_config, "--out", out) == 2
        assert "rr_selection.json" in capsys.readouterr().err

    def test_divergent_run_exits_numerical(self, tiny_config, tmp_path, capsys):
        out = str(tmp_path / "o")
        with np.errstate(over="ignore"):
            code = run(
                "train", "--config", tiny_config, "--out", out,
                "--all-features", "--variant", "cnn", "--lr", "1e60", "--epochs", "3",
            )
        assert code == 3
        assert "epoch" in capsys.readouterr().err

    def test_bad_config_rejected_before_training(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"model": {"variant": "lstm", "epochs": -1}}))
        assert run("train", "--config", str(path), "--out", str(tmp_path / "o")) == 1

    def test_flag_overrides_are_validated(self, tiny_config, tmp_path):
        out = str(tmp_path / "o")
        assert run("train", "--config", tiny_config, "--out", out, "--all-features", "--epochs", "-3") == 1
        assert run("train", "--config", tiny_config, "--out", out, "--all-features", "--lr", "0") == 1
        assert run("train", "--config", tiny_config, "--out", out, "--all-features", "--variant", "rnn") == 1
        assert run("select", "--config", tiny_config, "--out", out, "--alpha", "2.0") == 1
        assert run("select", "--config", tiny_config, "--out", out, "--a", "1.5") == 1


class TestCompareCommand:
    def test_five_rows_and_determinism(self, tiny_config, tmp_path):
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        for out in (out1, out2):
            assert run("compare", "--config", tiny_config, "--out", out, "--seeds", "1") == 0
        # with no reports in --out, compare runs and writes the same selection as `select`
        selected = str(tmp_path / "s")
        assert run("select", "--config", tiny_config, "--out", selected) == 0
        for name in ("rr_selection.json", "rr_selection.csv", "scad_selection.json", "scad_selection.csv"):
            assert read_bytes(os.path.join(out1, name)) == read_bytes(os.path.join(selected, name)), name
        report = json.load(open(os.path.join(out1, "comparison.json")))
        labels = [r["label"] for r in report["rows"]]
        assert labels == [
            "RR-CNN", "RR-LSTM", "RR-CNN-LSTM", "RR-DILATED_CNN-LSTM", "SCAD-DILATED_CNN-LSTM",
        ]
        assert all(np.isfinite(r[k]) for r in report["rows"] for k in ("mse", "mae", "mape"))
        assert 0.0 <= report["dilated_vs_plain_win_rate"] <= 1.0
        assert read_bytes(os.path.join(out1, "comparison.json")) == read_bytes(
            os.path.join(out2, "comparison.json")
        )
        assert os.path.exists(os.path.join(out1, "comparison.txt"))
        assert os.path.exists(os.path.join(out1, "comparison_per_seed.csv"))

    def test_selection_flags_are_only_read(self, tiny_config, tmp_path, capsys, monkeypatch):
        """A report given by flag is never overwritten; with the other report missing, compare exits 2 naming it."""
        given = tmp_path / "keep" / "my_rr.json"
        given.parent.mkdir()
        given.write_text(json.dumps(SELECTION))
        before = read_bytes(given)
        out = str(tmp_path / "b")
        assert run("compare", "--config", tiny_config, "--out", out, "--rr-selection", str(given)) == 2
        assert os.path.join(out, "scad_selection.json") in capsys.readouterr().err
        assert read_bytes(given) == before

        used = []
        compare_variants = cli.pipeline.compare_variants

        def spy(frame, rr, scad, *rest):
            used.append((rr.selected_names, scad.selected_names))
            return compare_variants(frame, rr, scad, *rest)

        monkeypatch.setattr(cli.pipeline, "compare_variants", spy)
        flags = ["--rr-selection", str(given), "--scad-selection", str(given), "--seeds", "1", "--epochs", "1"]
        assert run("compare", "--config", tiny_config, "--out", out, *flags) == 0
        assert used == [(["macro_01", "macro_02"], ["macro_01", "macro_02"])]
        assert read_bytes(given) == before
        assert not os.path.exists(os.path.join(out, "rr_selection.json"))

    def test_bad_seeds_flag(self, tiny_config, tmp_path):
        assert run("compare", "--config", tiny_config, "--out", str(tmp_path / "o"), "--seeds", "x") == 1


class TestGradcheckCommand:
    def test_passes_and_lists_blocks(self, capsys):
        assert run("gradcheck", "--seed", "0") == 0
        out = capsys.readouterr().out
        for block in ("conv_kernel", "conv_bias", "W_f", "W_o", "b_f", "b_o", "dense_w", "dense_b"):
            assert block in out
        assert "worst relative error" in out

    def test_corrupted_gradient_fails(self, capsys, offset_gradient):
        offset_gradient("W_i")
        assert run("gradcheck", "--seed", "0") == 3
        assert "W_i" in capsys.readouterr().err

    def test_nan_gradient_is_the_worst(self, capsys, offset_gradient):
        """A NaN gradient entry fails its block and sets the summary's worst error to inf."""
        offset_gradient("W_f", by=np.nan, variant="lstm")
        assert run("gradcheck", "--seed", "0") == 3
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert [line.split()[1:] for line in lines if line.startswith("lstm/W_f ")] == [["inf", "FAIL"]]
        assert lines[-1].startswith("worst relative error inf over 42 blocks")
        assert captured.err == "failing blocks: lstm/W_f\n"


class TestUsageErrors:
    def test_unknown_command(self):
        assert run("frobnicate") == 1

    def test_unknown_flag(self):
        assert run("synth", "--bogus") == 1

    def test_config_file_missing(self, tmp_path):
        assert run("select", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o")) == 2

    def test_invalid_json_config(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("{not json")
        assert run("select", "--config", str(path), "--out", str(tmp_path / "o")) == 1

    def test_unknown_config_key(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"modle": {}}))
        assert run("select", "--config", str(path), "--out", str(tmp_path / "o")) == 1


CHECKPOINT_CONFIG = ModelConfig(variant="lstm", hidden_size=1)

# a well-formed checkpoint of the tiny panel's columns price and macro_01 that fails only its SHA-256 check
CHECKPOINT = {
    "format_version": 2,
    "config": dataclasses.asdict(CHECKPOINT_CONFIG),
    "params": {k: dataclasses.asdict(v) for k, v in model_to_dict(ForecastModel(CHECKPOINT_CONFIG, 2)).items()},
    "scaler": {"names": ["price", "macro_01"], "mean": [0.0, 0.0], "sd": [1.0, 1.0]},
    "target_name": "price",
    "train_fraction": TINY_CONFIG["train_fraction"],
    "train_span_sha256": "0" * 64,
}

V1_CHECKPOINT = CHECKPOINT | {
    "format_version": 1,
    "config": CHECKPOINT["config"] | {"beta1": 0.9, "beta2": 0.999, "eps": 1e-8, "loss": "mse"},
    "seed": 0,
    "n_features": 2,
    "feature_names": ["price", "macro_01"],
}

SCALER_SHORT_MEAN_CHECKPOINT = CHECKPOINT | {
    "scaler": {"names": ["price", "macro_01"], "mean": [0.0], "sd": [1.0, 1.0]},
}

NAN_SCALER_MEAN_CHECKPOINT = CHECKPOINT | {
    "scaler": {"names": ["price", "macro_01"], "mean": [0.0, float("nan")], "sd": [1.0, 1.0]},
}

ZERO_SCALER_SD_CHECKPOINT = CHECKPOINT | {
    "scaler": {"names": ["price", "macro_01"], "mean": [0.0, 0.0], "sd": [1.0, 0.0]},
}

NO_TARGET_CHECKPOINT = CHECKPOINT | {
    "scaler": {"names": ["macro_02", "macro_01"], "mean": [0.0, 0.0], "sd": [1.0, 1.0]},
}

NAN_PARAM_CHECKPOINT = CHECKPOINT | {
    "params": CHECKPOINT["params"] | {"dense_b": dataclasses.asdict(encode_array(np.array(np.nan)))},
}

BAD_ROW_SELECTION = {
    "dataset_label": "rr",
    "penalty": {"kind": "ridge", "lam": 1.0, "a": 3.7},
    "alpha": 0.05,
    "rows": [{"name": "macro_01", "coef": 0.1, "t": 1.0, "p": 0.5, "selected": "no"}],
}

FOREIGN_COLUMN_SELECTION = {
    "dataset_label": "rr",
    "penalty": {"kind": "ridge", "lam": 1.0, "a": 3.7},
    "alpha": 0.05,
    "rows": [
        {"name": "macro_01", "coef": 0.1, "t": 3.0, "p": 0.01, "selected": True},
        {"name": "macro_99", "coef": 0.1, "t": 3.0, "p": 0.01, "selected": True},
    ],
}

# a well-formed report of the tiny panel that states its derived keys: two of its three rows are selected
SELECTION = {
    "dataset_label": "rr",
    "penalty": {"kind": "ridge", "lam": 1.0, "a": 3.7},
    "alpha": 0.05,
    "rows": [
        {"name": f"macro_0{i}", "coef": 0.1, "t": 3.0, "p": 0.01, "selected": i < 3} for i in (1, 2, 3)
    ],
    "n_features": 3,
    "n_selected": 2,
    "selected_names": ["macro_01", "macro_02"],
}


@pytest.mark.parametrize(
    "name,doc,code,key",
    [
        ("config", {"model": {"epochs": "5"}}, 1, "config.model.epochs"),
        ("config", {"seeds": "12"}, 1, "config.seeds"),
        ("config", {"seeds": [1, 1]}, 1, "seed 1 is repeated"),
        ("--seeds", "1,1", 1, "seed 1 is repeated"),
        ("config", {"selection": {"alpha": "0.1"}}, 1, "config.selection.alpha"),
        ("config", {"model": 3}, 1, "config.model"),
        ("config", {"model": {"nonsense": 1}}, 1, "config.model.nonsense"),
        ("config", {"model": {"loss": "mse"}}, 1, "config.model.loss"),
        ("rr_selection.json", {}, 2, "rr_selection.rows is missing"),
        ("rr_selection.json", [1], 2, "rr_selection.json"),
        ("rr_selection.json", BAD_ROW_SELECTION, 2, "rr_selection.rows[0].selected"),
        ("rr_selection.json", FOREIGN_COLUMN_SELECTION, 2, "macro_99"),
        ("rr_selection.json", SELECTION | {"selected_names": ["macro_01"]}, 2, "rr_selection.selected_names"),
        ("rr_selection.json", SELECTION | {"n_selected": 3}, 2, "rr_selection.n_selected"),
        ("rr_selection.json", SELECTION | {"n_features": 999}, 2, "rr_selection.n_features"),
        ("rr_selection.json", SELECTION | {"penalty": {"kind": "ridge", "lambda": 1.0, "a": None}}, 2,
         "rr_selection.penalty.lambda"),
        ("checkpoint.json", {"format_version": 2}, 2, "checkpoint.config"),
        ("checkpoint.json", [1], 2, "checkpoint.json"),
        ("checkpoint.json", CHECKPOINT | {"params": {}}, 2, "checkpoint.params"),
        ("checkpoint.json", V1_CHECKPOINT, 2, "checkpoint.format_version"),
        ("checkpoint.json", SCALER_SHORT_MEAN_CHECKPOINT, 2, "checkpoint.scaler"),
        ("checkpoint.json", NAN_SCALER_MEAN_CHECKPOINT, 2, "checkpoint.scaler"),
        ("checkpoint.json", ZERO_SCALER_SD_CHECKPOINT, 2, "checkpoint.scaler"),
        ("checkpoint.json", NO_TARGET_CHECKPOINT, 2, "lack the panel's target 'price'"),
        ("checkpoint.json", NAN_PARAM_CHECKPOINT, 2, "checkpoint.params.dense_b"),
        ("checkpoint.json", CHECKPOINT, 2, "SHA-256"),
    ],
    ids=[
        "config-epochs-string", "config-seeds-string", "config-seeds-repeated", "flag-seeds-repeated",
        "config-alpha-string", "config-model-number", "config-unknown-model-key", "config-model-loss",
        "selection-empty", "selection-list", "selection-row-selected-string", "selection-column-not-in-panel",
        "selection-names-disagree-with-rows", "selection-count-disagrees-with-rows",
        "selection-width-disagrees-with-rows", "selection-old-penalty-format",
        "checkpoint-no-config", "checkpoint-list", "checkpoint-params-disagree-with-config",
        "checkpoint-v1", "checkpoint-scaler-short-mean", "checkpoint-scaler-nan-mean",
        "checkpoint-scaler-zero-sd", "checkpoint-lacks-target", "checkpoint-nan-param",
        "checkpoint-fixture-fails-only-its-sha",
    ],
)
def test_malformed_input_names_the_key(tiny_config, tmp_path, name, doc, code, key):
    """A malformed config or flag exits 1, a malformed selection report or checkpoint 2: one error line, no traceback.

    A name starting with "--" is a compare flag given the value `doc`; the rest name a JSON file holding `doc`.
    """
    out = tmp_path / "o"
    out.mkdir()
    if name.startswith("--"):
        command, config, flags = "compare", tiny_config, [name, doc]
    else:
        path = tmp_path / "bad.json" if name == "config" else out / name
        path.write_text(json.dumps(doc))
        config = str(path) if name == "config" else tiny_config
        command, flags = ("evaluate" if name == "checkpoint.json" else "train"), []
    src = os.path.dirname(os.path.dirname(hybridcast.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "hybridcast.cli", command, "--config", config, "--out", str(out), *flags],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.returncode == code, proc.stderr
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr
    assert key in proc.stderr
    assert "Traceback" not in proc.stderr

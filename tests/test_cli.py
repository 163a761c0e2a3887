import csv
import dataclasses
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

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


def write_json_file(tmp_path, doc, name="c.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def synth_config(tmp_path, **spec):
    """A config of the synthetic source whose panel has the given SyntheticSpec fields."""
    return write_json_file(tmp_path, {"data": {"synthetic": spec}}, "synth.json")


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def drop_column(cfg, name):
    """Point a one-CSV config at a copy of its panel without column `name`."""
    (path,) = cfg["data"]["csv_paths"]
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    j = rows[0].index(name)
    other = os.path.splitext(path)[0] + "-narrow.csv"
    with open(other, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(r[:j] + r[j + 1:] for r in rows)
    cfg["data"]["csv_paths"] = [other]


def flatten_column(cfg, name):
    """Point a one-CSV config at a copy of its panel whose column `name` is 1.0 on every row."""
    (path,) = cfg["data"]["csv_paths"]
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    j = rows[0].index(name)
    other = os.path.splitext(path)[0] + "-flat.csv"
    with open(other, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows[:1] + [r[:j] + ["1.0"] + r[j + 1:] for r in rows[1:]])
    cfg["data"]["csv_paths"] = [other]


class TestSynthCommand:
    def test_default_column_count(self, tmp_path):
        out = str(tmp_path / "o")
        assert run("synth", "--config", synth_config(tmp_path, n_days=30), "--out", out) == 0
        header = open(os.path.join(out, "panel.csv")).readline().strip().split(",")
        assert len(header) == 55  # date + 53 features + price
        assert header[0] == "date" and header[-1] == "price"
        assert os.path.exists(os.path.join(out, "ground_truth.json"))

    def test_byte_identical_rerun(self, tmp_path):
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        config = synth_config(tmp_path, n_days=40, seed=9)
        assert run("synth", "--config", config, "--out", out1) == 0
        assert run("synth", "--config", config, "--out", out2) == 0
        assert read_bytes(os.path.join(out1, "panel.csv")) == read_bytes(os.path.join(out2, "panel.csv"))
        assert read_bytes(os.path.join(out1, "ground_truth.json")) == read_bytes(
            os.path.join(out2, "ground_truth.json")
        )

    def test_too_few_days_is_usage_error(self, tmp_path):
        assert run("synth", "--config", synth_config(tmp_path, n_days=5), "--out", str(tmp_path / "o")) == 1

    def test_roundtrips_through_loader_losslessly(self, tmp_path):
        from hybridcast.pipeline import load_csv_series
        from hybridcast.synth import SyntheticSpec, generate_synthetic_panel

        out = str(tmp_path / "o")
        assert run("synth", "--config", synth_config(tmp_path, n_days=30, seed=5), "--out", out) == 0
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

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1"])
    def test_lambda_that_is_not_finite_and_non_negative_exits_before_the_panel_loads(
        self, tiny_config, tmp_path, capsys, monkeypatch, value
    ):
        """NaN used to select every feature and write a `"lam": NaN` that is not JSON, inf to select none."""
        monkeypatch.setattr(cli, "load_panel", lambda data: pytest.fail("the panel was loaded"))
        assert run("select", "--config", tiny_config, "--out", str(tmp_path / "o"), f"--lambda={value}") == 1
        assert capsys.readouterr().err == f"error: scad_lambda must be a finite number >= 0, got {float(value)}\n"
        assert not os.path.exists(tmp_path / "o" / "scad_selection.json")

    def test_missing_csv_is_data_error(self, tmp_path, capsys):
        cfg = {"data": {"source": "csv", "csv_paths": [str(tmp_path / "missing.csv")]}}
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg))
        assert run("select", "--config", str(path), "--out", str(tmp_path / "o")) == 2
        assert "missing.csv" in capsys.readouterr().err

    def test_csv_path_naming_a_directory_is_data_error(self, tmp_path, capsys):
        config = write_json_file(tmp_path, {"data": {"source": "csv", "csv_paths": [str(tmp_path)]}})
        assert run("select", "--config", config, "--out", str(tmp_path / "o")) == 2
        assert capsys.readouterr().err.splitlines() == [f"error: input file not found: {tmp_path}"]

    def test_csv_that_is_not_utf8_is_data_error(self, tmp_path, capsys):
        target = tmp_path / "t.csv"
        target.write_bytes(b"date,price\n2020-01-01,1\xff\n")
        config = write_json_file(tmp_path, {"data": {"source": "csv", "csv_paths": [str(target)]}})
        assert run("select", "--config", config, "--out", str(tmp_path / "o")) == 2
        assert capsys.readouterr().err.splitlines() == [f"error: {target}: byte 23 is not UTF-8 text"]

    def test_csv_with_byte_order_mark_selects_as_without(self, tiny_config, tmp_path, capsys):
        """A leading UTF-8 byte-order mark is dropped: select writes the bytes it writes for the unmarked CSV."""
        assert run("synth", "--config", tiny_config, "--out", str(tmp_path / "panel")) == 0
        plain = tmp_path / "panel" / "panel.csv"
        marked = tmp_path / "marked.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        outputs = []
        for name, csv_path in (("plain", plain), ("marked", marked)):
            config = write_json_file(tmp_path, {"data": {"source": "csv", "csv_paths": [str(csv_path)]},
                                                "selection": {"grid_points": 6}}, f"{name}.json")
            assert run("select", "--config", config, "--out", str(tmp_path / name)) == 0
            outputs.append({p.name: p.read_bytes() for p in sorted((tmp_path / name).iterdir())})
        assert outputs[0] == outputs[1] and len(outputs[0]) == 4

    def test_byte_order_mark_counts_in_the_non_utf8_offset(self, tmp_path, capsys):
        target = tmp_path / "t.csv"
        target.write_bytes(b"\xef\xbb\xbfdate,price\n2020-01-01,1\xff\n")
        config = write_json_file(tmp_path, {"data": {"source": "csv", "csv_paths": [str(target)]}})
        assert run("select", "--config", config, "--out", str(tmp_path / "o")) == 2
        assert capsys.readouterr().err.splitlines() == [f"error: {target}: byte 26 is not UTF-8 text"]

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
            ("csv", lambda cfg: drop_column(cfg, "macro_13"), "macro_13"),
            ("csv", lambda cfg: flatten_column(cfg, "macro_13"), "SHA-256"),
            (
                "csv",
                lambda cfg: cfg["data"].update(target_column="macro_01"),
                "target 'macro_01' differs from the checkpoint's 'price'",
            ),
        ],
        ids=["train_fraction", "panel", "panel-lacks-column", "panel-constant-column", "csv-other-target"],
    )
    def test_evaluate_on_another_split_is_data_error(self, tiny_config, tmp_path, capsys, source, edit, named):
        """A checkpoint scored against another train_fraction, panel or target, or lacking columns, fails loudly."""
        out = str(tmp_path / "o")
        cfg = json.loads(json.dumps(TINY_CONFIG))
        if source == "csv":  # the synthetic panel's CSV, whose target or columns an edit can change
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
        """An all-features checkpoint given the names of a selection one exits 2 naming checkpoint.params.

        The model's width is the count of its names, so the stored blocks cannot fit it.
        """
        wide, narrow = str(tmp_path / "wide"), str(tmp_path / "narrow")
        assert run("train", "--config", tiny_config, "--out", wide, "--all-features") == 0
        assert run("select", "--config", tiny_config, "--out", narrow) == 0
        assert run("train", "--config", tiny_config, "--out", narrow) == 0
        path = os.path.join(wide, "checkpoint.json")
        ckpt = json.load(open(path))
        names = json.load(open(os.path.join(narrow, "checkpoint.json")))["names"]
        assert len(names) < len(ckpt["names"]) == 54
        ckpt["names"] = names
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
    def train_overflowing_checkpoint(config, out, dense_b=1.7e308):
        """Train on the tiny config, then edit the checkpoint's dense_b so that scoring overflows.

        The standardized forecasts stay finite; with the default dense_b the tiny panel's price sd
        (about 1.17) takes them past the largest float64 on inverse scaling. With 1e155 the forecasts
        stay finite and only their squared errors overflow.
        """
        assert run("train", "--config", config, "--out", out, "--all-features") == 0
        path = os.path.join(out, "checkpoint.json")
        ckpt = json.load(open(path))
        ckpt["params"]["dense_b"] = dataclasses.asdict(encode_array(np.array(dense_b)))
        with open(path, "w") as fh:
            json.dump(ckpt, fh)

    @staticmethod
    def evaluate_with_warnings_shown(config, out):
        """Run `evaluate` in a fresh process with every warning shown, so a stray RuntimeWarning reaches stderr."""
        src = os.path.dirname(os.path.dirname(hybridcast.__file__))
        return subprocess.run(
            [sys.executable, "-c", "import sys, hybridcast.cli; sys.exit(hybridcast.cli.main(sys.argv[1:]))",
             "evaluate", "--config", config, "--out", out],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src, PYTHONWARNINGS="default"),
        )

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
        proc = self.evaluate_with_warnings_shown(tiny_config, out)
        assert proc.returncode == 3
        assert proc.stderr.splitlines() == ["error: 8 of 8 predictions are not finite"]

    def test_evaluate_overflowing_metric_is_numerical_error(self, tiny_config, tmp_path):
        """Finite forecasts near 1e155 square past the largest float64: exit 3 naming the MSE, no files."""
        out = str(tmp_path / "o")
        self.train_overflowing_checkpoint(tiny_config, out, dense_b=1e155)
        proc = self.evaluate_with_warnings_shown(tiny_config, out)
        assert proc.returncode == 3
        assert proc.stderr.splitlines() == ["error: 8 predictions give non-finite metrics: mse"]
        assert not os.path.exists(os.path.join(out, "eval_metrics.json"))
        assert not os.path.exists(os.path.join(out, "eval_predictions.csv"))

    def test_zero_actual_in_test_span_is_data_error(self, tiny_config, tmp_path, capsys, monkeypatch):
        """A zero price on the last day leaves MAPE undefined: train and compare exit 2 with one error line,
        before any training, and write nothing."""
        panel = str(tmp_path / "panel")
        assert run("synth", "--config", tiny_config, "--out", panel) == 0
        path = os.path.join(panel, "panel.csv")
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        rows[-1][rows[0].index("price")] = "0.0"
        with open(path, "w", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(rows)
        cfg = json.loads(json.dumps(TINY_CONFIG))
        cfg["data"] = {"source": "csv", "csv_paths": [path], "target_column": "price"}
        config = tmp_path / "c.json"
        config.write_text(json.dumps(cfg))
        selection = write_json_file(tmp_path, SELECTION, "selection.json")
        fits = []
        fit_arrays = cli.pipeline.fit_arrays
        monkeypatch.setattr(cli.pipeline, "fit_arrays", lambda *a: fits.append(1) or fit_arrays(*a))
        for command, flags in (("train", ["--all-features"]),
                               ("compare", ["--rr-selection", selection, "--scad-selection", selection])):
            out = tmp_path / command
            capsys.readouterr()
            assert run(command, "--config", str(config), "--out", str(out), *flags) == 2
            assert capsys.readouterr().err.splitlines() == ["error: MAPE undefined: an actual value is zero"]
            assert fits == []
            assert not out.exists() or not any(out.iterdir())

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
        assert result.history == written["history"] == []
        assert written["mse"] == result.metrics.mse
        assert written["mape"] == result.metrics.mape

    def test_missing_selection_is_data_error(self, tiny_config, tmp_path, capsys):
        out = str(tmp_path / "o")
        assert run("train", "--config", tiny_config, "--out", out) == 2
        assert "rr_selection.json" in capsys.readouterr().err

    def test_divergent_run_exits_numerical(self, tmp_path, capsys):
        out = str(tmp_path / "o")
        config = write_json_file(tmp_path, TINY_CONFIG | {"model": TINY_CONFIG["model"] | {"learning_rate": 1e60}})
        with np.errstate(over="ignore"):
            code = run("train", "--config", config, "--out", out, "--all-features", "--variant", "cnn", "--epochs", "3")
        assert code == 3
        assert "epoch" in capsys.readouterr().err

    def test_bad_config_rejected_before_training(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"model": {"variant": "lstm", "epochs": -1}}))
        assert run("train", "--config", str(path), "--out", str(tmp_path / "o")) == 1

    def test_flag_overrides_are_validated(self, tiny_config, tmp_path):
        out = str(tmp_path / "o")
        assert run("train", "--config", tiny_config, "--out", out, "--all-features", "--epochs", "-3") == 1
        assert run("train", "--config", tiny_config, "--out", out, "--all-features", "--variant", "rnn") == 1

    def test_variant_flag_keeps_the_config_dilation(self, tmp_path):
        """train --variant dilated_cnn_lstm on model.dilation 3 checkpoints dilation 3."""
        config = write_json_file(tmp_path, TINY_CONFIG | {"model": TINY_CONFIG["model"] | {"dilation": 3}})
        out = str(tmp_path / "o")
        flags = ["--all-features", "--epochs", "0", "--variant", "dilated_cnn_lstm"]
        assert run("train", "--config", config, "--out", out, *flags) == 0
        assert json.load(open(os.path.join(out, "checkpoint.json")))["config"]["dilation"] == 3


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

    def test_model_variant_is_not_read(self, tiny_config, tmp_path):
        """compare sets each cell's variant itself: a cnn model.variant writes the default variant's three files."""
        sel = str(tmp_path / "sel")
        assert run("select", "--config", tiny_config, "--out", sel) == 0
        flags = ["--rr-selection", os.path.join(sel, "rr_selection.json"),
                 "--scad-selection", os.path.join(sel, "scad_selection.json")]
        cnn = tmp_path / "cnn.json"
        cnn.write_text(json.dumps(TINY_CONFIG | {"model": TINY_CONFIG["model"] | {"variant": "cnn"}}))
        files = []
        for config in (tiny_config, str(cnn)):
            out = str(tmp_path / str(len(files)))
            assert run("compare", "--config", config, "--out", out, *flags) == 0
            files.append([read_bytes(os.path.join(out, name)) for name in (
                "comparison.json", "comparison.txt", "comparison_per_seed.csv")])
        assert files[0] == files[1]

    def test_dilated_cells_take_model_dilation_whatever_the_variant(self, tiny_config, tmp_path):
        """model.dilation 3 writes one comparison.json under a cnn_lstm and a dilated_cnn_lstm model.variant,
        and not the one of the default dilation 2."""
        sel = str(tmp_path / "sel")
        assert run("select", "--config", tiny_config, "--out", sel) == 0
        flags = ["--rr-selection", os.path.join(sel, "rr_selection.json"),
                 "--scad-selection", os.path.join(sel, "scad_selection.json")]
        reports = []
        for variant, dilation in (("cnn_lstm", 3), ("dilated_cnn_lstm", 3), ("dilated_cnn_lstm", 2)):
            model = TINY_CONFIG["model"] | {"variant": variant, "dilation": dilation}
            config = write_json_file(tmp_path, TINY_CONFIG | {"model": model}, f"{variant}-{dilation}.json")
            out = str(tmp_path / f"{variant}-{dilation}")
            assert run("compare", "--config", config, "--out", out, *flags) == 0
            reports.append(read_bytes(os.path.join(out, "comparison.json")))
        assert reports[0] == reports[1] != reports[2]

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

    @pytest.mark.parametrize(
        "command,flag,code",
        [("select", "--seed", 1), ("train", "--seed", 1), ("evaluate", "--seed", 1), ("compare", "--seed", 1),
         ("synth", "--seed", 1), ("select", "--ridge-lambda", 1), ("select", "--a", 1), ("select", "--alpha", 1),
         ("train", "--lr", 1), ("compare", "--dilation", 1), ("synth", "--n-days", 1), ("gradcheck", "--seed", 0)],
    )
    def test_removed_flags_are_unrecognized(self, tmp_path, capsys, monkeypatch, command, flag, code):
        """A setting with a config key has one way in, so these flags are gone from --help and exit 1
        (`compare --seed` included, which no longer passes as an abbreviated --seeds); gradcheck's
        --seed, which has no config key, stays."""
        monkeypatch.chdir(tmp_path)  # a flag that did parse would write the default ./out here
        with pytest.raises(SystemExit):
            run(command, "--help")
        assert bool(re.search(rf"{flag}\b", capsys.readouterr().out)) == (code == 0)
        assert run(command, flag, "0") == code
        if code:
            assert capsys.readouterr().err == f"error: unrecognized arguments: {flag} 0\n"

    def test_out_naming_a_file_is_usage_error(self, tiny_config, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("")
        assert run("select", "--config", tiny_config, "--out", str(taken)) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: cannot create output directory {taken}: File exists"]

    @pytest.mark.parametrize(
        "command,flag,what",
        [("select", "--config", "config file"), ("train", "--selection", "selection file"),
         ("evaluate", "--checkpoint", "checkpoint")],
    )
    def test_input_naming_a_directory_is_data_error(self, tmp_path, capsys, command, flag, what):
        """A JSON input path that names a directory is read as a missing file: exit 2, one error line."""
        assert run(command, "--out", str(tmp_path / "o"), flag, str(tmp_path)) == 2
        assert capsys.readouterr().err.splitlines() == [f"error: {what} not found: {tmp_path}"]


def test_readme_commands_parse():
    """Every `hybridcast` line of the README's bash blocks, with $d read as 2, is a valid command line."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    lines = [line.strip() for block in re.findall(r"```bash\n(.*?)```", readme, re.S) for line in block.splitlines()]
    commands = [shlex.split(line.replace("$d", "2"))[1:] for line in lines if line.startswith("hybridcast ")]
    assert commands
    parser = cli._build_parser()
    for argv in commands:
        assert parser.parse_args(argv).command in cli.COMMANDS


CHECKPOINT_CONFIG = ModelConfig(variant="lstm", hidden_size=1)

# a well-formed checkpoint of the tiny panel's columns price and macro_01 that fails only its SHA-256 check
CHECKPOINT = {
    "format_version": 4,
    "config": dataclasses.asdict(CHECKPOINT_CONFIG),
    "params": {k: dataclasses.asdict(v) for k, v in model_to_dict(ForecastModel(CHECKPOINT_CONFIG, 2)).items()},
    "names": ["price", "macro_01"],
    "target_name": "price",
    "train_fraction": TINY_CONFIG["train_fraction"],
    "train_span_sha256": "0" * 64,
}

# version 3 stored the scaler's names, means and sds where version 4 stores the names alone
V3_CHECKPOINT = {k: v for k, v in CHECKPOINT.items() if k != "names"} | {
    "format_version": 3,
    "scaler": {"names": ["price", "macro_01"], "mean": [0.0, 0.0], "sd": [1.0, 1.0]},
}

V2_CHECKPOINT = CHECKPOINT | {
    "format_version": 2,
    "config": CHECKPOINT["config"] | {"init_scheme": "uniform"},
}

V1_CHECKPOINT = CHECKPOINT | {
    "format_version": 1,
    "config": CHECKPOINT["config"] | {"beta1": 0.9, "beta2": 0.999, "eps": 1e-8, "loss": "mse"},
    "seed": 0,
    "n_features": 2,
    "feature_names": ["price", "macro_01"],
}

RATE_ONE_CONFIG = ModelConfig(variant="cnn", hidden_size=1)

# a format-4 cnn checkpoint as written while the plain variants stored dilation 1, which is now refused
RATE_ONE_CHECKPOINT = CHECKPOINT | {
    "config": dataclasses.asdict(RATE_ONE_CONFIG) | {"dilation": 1},
    "params": {k: dataclasses.asdict(v) for k, v in model_to_dict(ForecastModel(RATE_ONE_CONFIG, 2)).items()},
}

NO_FLOAT = "1" + "0" * 400  # a JSON int that no float holds

REPEATED_NAME_CHECKPOINT = CHECKPOINT | {"names": ["price", "macro_01", "macro_01"]}

NO_TARGET_CHECKPOINT = CHECKPOINT | {"names": ["macro_02", "macro_01"]}

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


def selecting(*names, unselected=()):
    """A report whose rows, in order, are the given names, each selected, then the `unselected` names."""
    rows = [{"name": n, "coef": 0.1, "t": 3.0, "p": 0.01, "selected": n in names} for n in names + unselected]
    return {"dataset_label": "rr", "penalty": {"kind": "ridge", "lam": 1.0, "a": 3.7}, "alpha": 0.05, "rows": rows}


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
        ("config", {"model": {"init_scheme": "zeros"}}, 1, "config.model.init_scheme"),
        ("config", {"data": {"target_column": "close"}}, 1, "config.data: target_column must be 'price'"),
        ("config", {"data": {"csv_paths": ["/nonexistent.csv"]}}, 1, "config.data: csv_paths must be []"),
        ("config", {"data": {"date_column": "day"}}, 1, "config.data: date_column must be 'date'"),
        ("config", {"data": {"source": "csv"}}, 1, "config.data: source is 'csv' but csv_paths is empty"),
        ("config", {"data": {"source": "csv", "csv_paths": ["panel.csv"], "synthetic": {"n_days": 50, "seed": 9}}},
         1, "config.data: synthetic must keep its defaults on the csv source"),
        ("config", {"selection": {"alpha": 2}}, 1, "error: unknown key config.selection.alpha"),
        ("config", {"selection": {"scad_a": 1.5}}, 1, "error: unknown key config.selection.scad_a"),
        ("config", {"selection": {"ridge_lambda": 5.0}}, 1, "error: unknown key config.selection.ridge_lambda"),
        ("config", {"selection": {"scad_lambda": -1}}, 1,
         "error: config.selection: scad_lambda must be a finite number >= 0, got -1"),
        ("config", {"selection": {"scad_lambda": float("nan")}}, 1, "invalid JSON (NaN is not a JSON number)"),
        ("config", '{"selection": {"scad_lambda": 1e999}}', 1, "invalid JSON (number 1e999 is out of range)"),
        ("config", {"model": {"learning_rate": 0}}, 1, "error: config.model: learning_rate must be > 0, got 0"),
        ("config", f'{{"model": {{"learning_rate": {NO_FLOAT}}}}}', 1,
         "error: config.model.learning_rate: 1000000000000000000000000000000000000... is out of a float's range"),
        ("config", f'{{"selection": {{"scad_lambda": {NO_FLOAT}}}}}', 1,
         "error: config.selection.scad_lambda: 1000000000000000000000000000000000000... is out of a float's range"),
        ("config", {"selection": {"grid_points": 0}}, 1, "config.selection: grid_points must be >= 1"),
        ("config", {"train_fraction": 1.5}, 1, "error: config: train_fraction must be in (0, 1), got 1.5"),
        ("config", {"data": {"synthetic": {"macro": 12}}}, 1, "config.data.synthetic.macro"),
        ("config", {"data": {"synthetic": {"lag": 2}}}, 1, "config.data.synthetic.lag"),
        ("config", {"data": {"synthetic": {"start_date": "2019-03-04"}}}, 1, "config.data.synthetic.start_date"),
        ("config", {"data": {"synthetic": {"exog_ar": 0.9}}}, 1, "config.data.synthetic.exog_ar"),
        ("config", {"selection": {"lag": 2}}, 1, "config.selection.lag"),
        ("rr_selection.json", {}, 2, "rr_selection.rows is missing"),
        ("rr_selection.json", [1], 2, "rr_selection.json"),
        ("rr_selection.json", BAD_ROW_SELECTION, 2, "rr_selection.rows[0].selected"),
        ("rr_selection.json", FOREIGN_COLUMN_SELECTION, 2, "macro_99"),
        ("rr_selection.json", SELECTION | {"selected_names": ["macro_01"]}, 2, "rr_selection.selected_names"),
        ("rr_selection.json", SELECTION | {"n_selected": 3}, 2, "rr_selection.n_selected"),
        ("rr_selection.json", SELECTION | {"n_features": 999}, 2, "rr_selection.n_features"),
        ("rr_selection.json", SELECTION | {"alpha": float("nan")}, 2, "invalid JSON (NaN is not a JSON number)"),
        ("rr_selection.json", json.dumps(SELECTION).replace("0.05", "-1e999"), 2,
         "invalid JSON (number -1e999 is out of range)"),
        ("rr_selection.json", SELECTION | {"penalty": {"kind": "ridge", "lambda": 1.0, "a": None}}, 2,
         "rr_selection.penalty.lambda"),
        ("rr_selection.json", selecting("macro_01", "macro_01"), 2, "['macro_01'] are listed more than once"),
        ("rr_selection.json", selecting("price", "macro_01"), 2, "['price'] are listed more than once"),
        ("rr_selection.json", selecting("macro_01", unselected=("macro_02", "macro_02")), 2,
         "rr_selection: ['macro_02'] are listed more than once"),
        ("checkpoint.json", {"format_version": 4}, 2, "checkpoint.config"),
        ("checkpoint.json", [1], 2, "checkpoint.json"),
        ("checkpoint.json", CHECKPOINT | {"params": {}}, 2, "checkpoint.params"),
        ("checkpoint.json", V3_CHECKPOINT, 2, "checkpoint.format_version: expected 4, got 3"),
        ("checkpoint.json", V2_CHECKPOINT, 2, "checkpoint.format_version: expected 4, got 2"),
        ("checkpoint.json", V1_CHECKPOINT, 2, "checkpoint.format_version"),
        ("checkpoint.json", REPEATED_NAME_CHECKPOINT, 2, "['macro_01'] are listed more than once"),
        ("checkpoint.json", NO_TARGET_CHECKPOINT, 2, "lack the panel's target 'price'"),
        ("checkpoint.json", NAN_PARAM_CHECKPOINT, 2, "checkpoint.params.dense_b"),
        ("checkpoint.json", CHECKPOINT, 2, "SHA-256"),
        ("checkpoint.json", CHECKPOINT | {"train_fraction": float("inf")}, 2,
         "invalid JSON (Infinity is not a JSON number)"),
        ("checkpoint.json", json.dumps(CHECKPOINT).replace('"learning_rate": 0.001', f'"learning_rate": {NO_FLOAT}'),
         2, "error: checkpoint.config.learning_rate: 1000000000000000000000000000000000000... is out of a float's range"),
        ("checkpoint.json", RATE_ONE_CHECKPOINT, 2,
         "error: checkpoint.config: dilation is the dilated variant's rate and must be >= 2, got 1"),
    ],
    ids=[
        "config-epochs-string", "config-seeds-string", "config-seeds-repeated", "flag-seeds-repeated",
        "config-alpha-string", "config-model-number", "config-unknown-model-key", "config-model-loss",
        "config-model-init-scheme", "config-synthetic-other-target", "config-synthetic-csv-paths",
        "config-synthetic-date-column", "config-csv-without-paths", "config-csv-synthetic", "config-alpha-out-of-range",
        "config-scad-a-out-of-range", "config-ridge-lambda", "config-scad-lambda-negative",
        "config-scad-lambda-nan", "config-scad-lambda-overflows", "config-learning-rate-zero",
        "config-learning-rate-int-overflows", "config-scad-lambda-int-overflows",
        "config-grid-points-zero", "config-train-fraction-out-of-range", "config-synthetic-macro",
        "config-synthetic-lag", "config-synthetic-start-date", "config-synthetic-exog-ar", "config-selection-lag",
        "selection-empty", "selection-list", "selection-row-selected-string", "selection-column-not-in-panel",
        "selection-names-disagree-with-rows", "selection-count-disagrees-with-rows",
        "selection-width-disagrees-with-rows", "selection-nan", "selection-overflows", "selection-old-penalty-format",
        "selection-repeats-a-column", "selection-selects-the-target", "selection-repeats-an-unselected-row",
        "checkpoint-no-config", "checkpoint-list", "checkpoint-params-disagree-with-config",
        "checkpoint-v3", "checkpoint-v2", "checkpoint-v1", "checkpoint-repeats-a-column", "checkpoint-lacks-target",
        "checkpoint-nan-param", "checkpoint-fixture-fails-only-its-sha", "checkpoint-infinity",
        "checkpoint-learning-rate-int-overflows", "checkpoint-cnn-rate-one",
    ],
)
def test_malformed_input_names_the_key(tiny_config, tmp_path, name, doc, code, key):
    """A malformed config or flag exits 1, a malformed selection report or checkpoint 2: one error line, no traceback.

    A name starting with "--" is a compare flag given the value `doc`; the rest name a JSON file holding `doc`,
    as written by json.dumps, or `doc` itself when it is a string.
    """
    out = tmp_path / "o"
    out.mkdir()
    if name.startswith("--"):
        command, config, flags = "compare", tiny_config, [name, doc]
    else:
        path = tmp_path / "bad.json" if name == "config" else out / name
        path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
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


def test_outputs_do_not_depend_on_blas_thread_count(tmp_path):
    """select, train --epochs 2 and evaluate on the default config write the same bytes on 1 and on 2 BLAS threads.

    The thread count is fixed before numpy loads, so each count runs the three commands in its own process.
    """
    script = (
        "import sys\n"
        "from hybridcast import cli\n"
        "for argv in (['select'], ['train', '--epochs', '2'], ['evaluate']):\n"
        "    if cli.main(argv + ['--out', sys.argv[1]]):\n"
        "        sys.exit(f'{argv[0]} failed')\n"
    )
    src = os.path.dirname(os.path.dirname(hybridcast.__file__))
    outputs = {}
    for threads in ("1", "2"):
        out = tmp_path / threads
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        proc = subprocess.run([sys.executable, "-c", script, str(out)], capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        outputs[threads] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    assert sorted(outputs["1"]) == [
        "checkpoint.json", "eval_metrics.json", "eval_predictions.csv", "predictions.csv", "rr_selection.csv",
        "rr_selection.json", "scad_selection.csv", "scad_selection.json", "train_metrics.json",
    ]
    assert outputs["1"] == outputs["2"]

import dataclasses
import json
import re
from pathlib import Path

import numpy as np
import pytest

from hybridcast.config import DataConfig, ExperimentConfig, SelectionConfig, load_experiment_config, load_panel
from hybridcast.errors import ConfigError, DataError
from hybridcast.jsonio import from_json
from hybridcast.neural import ModelConfig


def test_defaults_give_synthetic_experiment():
    config = load_experiment_config(None)
    assert config.data.source == "synthetic"
    assert config.model.variant == "dilated_cnn_lstm"
    assert config.train_fraction == 0.9
    frame, truth = load_panel(config.data)
    assert truth is not None
    assert len(frame) == 1060


def test_readme_config_block_loads(tmp_path):
    """The README's documented config, its // comments stripped, is a valid config of the default experiment.

    It names every key of the top level, `selection` and `model`, and no other; `data.synthetic` lists some.
    """
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    (block,) = re.findall(r"```jsonc\n(.*?)```", readme, re.S)
    path = tmp_path / "readme.json"
    path.write_text(re.sub(r"\s*//.*", "", block))
    config = load_experiment_config(str(path))
    default = ExperimentConfig()
    assert config.data.synthetic == default.data.synthetic
    assert config.selection == SelectionConfig()
    assert (config.model, config.seeds, config.train_fraction) == (default.model, default.seeds, default.train_fraction)
    doc = json.loads(path.read_text())
    for keys, cls in ((doc, ExperimentConfig), (doc["selection"], SelectionConfig), (doc["model"], ModelConfig)):
        assert list(keys) == [f.name for f in dataclasses.fields(cls)], cls.__name__


def test_readme_csv_block_loads():
    """The README's CSV data section is a valid config of the csv source."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    (block,) = re.findall(r"```json\n(.*?)```", readme, re.S)
    data = from_json(ExperimentConfig, json.loads(block), "config", ConfigError).data
    assert (data.source, data.date_column, data.target_column) == ("csv", "date", "close")
    assert data.csv_paths == ["prices.csv", "indicators.csv"]


def test_unknown_section_rejected():
    with pytest.raises(ConfigError, match="config.bogus"):
        from_json(ExperimentConfig, {"bogus": {}}, "config", ConfigError)


def test_bad_model_value_becomes_config_error():
    with pytest.raises(ConfigError, match="config.model: epochs must be >= 0"):
        from_json(ExperimentConfig, {"model": {"variant": "lstm", "epochs": -3}}, "config", ConfigError)


def test_csv_source_requires_paths():
    with pytest.raises(ConfigError):
        DataConfig(source="csv")


def write_csv(path, text):
    path.write_text(text)
    return str(path)


def test_multi_csv_panel_with_forward_fill(tmp_path):
    target = write_csv(
        tmp_path / "target.csv",
        "date,price\n2020-01-01,10.0\n2020-01-02,11.0\n2020-01-03,12.0\n2020-01-06,13.0\n",
    )
    exo = write_csv(
        tmp_path / "exo.csv",
        "date,oil,gas\n2020-01-01,5.0,2.0\n2020-01-03,6.0,\n2020-01-06,7.0,3.0\n",
    )
    data = DataConfig(source="csv", csv_paths=[target, exo])
    frame, truth = load_panel(data)
    assert truth is None
    assert frame.target_name == "price"
    assert list(frame.columns) == ["price", "oil", "gas"]
    # oil observed 01/03/06: the 2nd stays at the 1st's value
    assert frame.columns["oil"] == pytest.approx([5.0, 5.0, 6.0, 7.0])
    # gas missing on the 3rd: carried forward from the 1st until the 6th
    assert frame.columns["gas"] == pytest.approx([2.0, 2.0, 2.0, 3.0])


def test_single_wide_csv(tmp_path):
    panel = write_csv(
        tmp_path / "panel.csv",
        "date,price,x\n2020-01-01,1.0,9.0\n2020-01-02,2.0,8.0\n",
    )
    frame, _ = load_panel(DataConfig(source="csv", csv_paths=[panel]))
    assert frame.columns["x"] == pytest.approx([9.0, 8.0])


def test_target_not_found(tmp_path):
    exo = write_csv(tmp_path / "a.csv", "date,x\n2020-01-01,1.0\n")
    with pytest.raises(ConfigError, match="price"):
        load_panel(DataConfig(source="csv", csv_paths=[exo]))


def test_missing_target_values_are_data_error(tmp_path):
    target = write_csv(tmp_path / "t.csv", "date,price\n2020-01-01,1.0\n2020-01-02,\n")
    with pytest.raises(DataError):
        load_panel(DataConfig(source="csv", csv_paths=[target]))


def test_missing_config_file():
    with pytest.raises(DataError, match="^config file not found: /nonexistent/config.json$"):
        load_experiment_config("/nonexistent/config.json")


def test_synthetic_spec_threaded_through(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"data": {"synthetic": {"n_days": 33, "seed": 8}}}))
    config = load_experiment_config(str(path))
    frame, truth = load_panel(config.data)
    assert len(frame) == 33
    assert truth.seed == 8
    assert np.all(np.isfinite(frame.target))

"""Every dataclass document survives write_json -> read_json -> from_json unchanged.

A derived (init=False) field a document states must agree with the value its class derives.
"""
import dataclasses
from datetime import date

import numpy as np
import pytest

from hybridcast.config import DataConfig, ExperimentConfig, SelectionConfig
from hybridcast.errors import DataError
from hybridcast.jsonio import from_json, read_json, write_json
from hybridcast.neural import ModelConfig
from hybridcast.pipeline import StandardScaler
from hybridcast.synth import SyntheticSpec, generate_synthetic_panel

SPEC = SyntheticSpec(n_days=50, seed=9, weights=(1.0, -1.0, 2.0, 0.5, 1.5), start_date=date(2019, 3, 4))

DOCUMENTS = {
    "ExperimentConfig": ExperimentConfig(
        data=DataConfig(date_column="day", target_column="close", synthetic=SPEC),
        selection=SelectionConfig(alpha=0.1, ridge_lambda=5.0, scad_a=3.0, grid_points=4),
        model=ModelConfig(variant="cnn_lstm", epochs=12, learning_rate=0.01, seed=3),
        seeds=[4, 5],
        train_fraction=0.8,
    ),
    "ModelConfig": ModelConfig(variant="cnn_lstm", epochs=7, seed=3),
    "SyntheticSpec": SPEC,
    "GroundTruth": generate_synthetic_panel(SyntheticSpec(n_days=30, seed=2))[1],
    "StandardScaler": StandardScaler(
        names=["price", "x"], mean=np.array([50.5, -0.25]), sd=np.array([2.0, 0.125])
    ),
}


@pytest.mark.parametrize("kind", list(DOCUMENTS))
def test_round_trip(kind, tmp_path):
    doc = DOCUMENTS[kind]
    path = tmp_path / "doc.json"
    write_json(path, doc)
    again = from_json(type(doc), read_json(path, "document", DataError), "doc", DataError)
    assert type(again) is type(doc)
    for name, value in vars(doc).items():
        got = getattr(again, name)
        assert np.array_equal(got, value) if isinstance(value, np.ndarray) else got == value, name
    write_json(tmp_path / "again.json", again)
    assert (tmp_path / "again.json").read_bytes() == path.read_bytes()


@dataclasses.dataclass
class _Tally:
    items: list[str]
    count: int = dataclasses.field(init=False)

    def __post_init__(self):
        self.count = len(self.items)


@pytest.mark.parametrize(
    "doc,error",
    [
        ({"items": ["a", "b"]}, None),
        ({"items": ["a", "b"], "count": 2}, None),
        ({"items": ["a", "b"], "count": 3}, "tally.count: 3 disagrees with 2"),
        ({"items": ["a", "b"], "count": "2"}, "tally.count: expected int"),
        ({"items": ["a"], "total": 1}, "unknown key tally.total"),
    ],
    ids=["derived-absent", "derived-agrees", "derived-disagrees", "derived-mistyped", "unknown-key"],
)
def test_derived_field_must_agree(doc, error):
    """An init=False field is never passed to the constructor; a stated one must equal the derived value."""
    if error is None:
        assert from_json(_Tally, doc, "tally", DataError).count == len(doc["items"])
    else:
        with pytest.raises(DataError, match=error):
            from_json(_Tally, doc, "tally", DataError)

"""Every dataclass document survives write_json -> read_json -> from_json unchanged.

A derived (init=False) field a document states must agree with the value its class derives.
"""
import collections
import dataclasses
import os
import typing

import pytest

from hybridcast.config import DataConfig, ExperimentConfig, SelectionConfig
from hybridcast.errors import DataError
from hybridcast.jsonio import atomic_write_text, from_json, read_json, write_json
from hybridcast.neural import ForecastModel, ModelConfig, model_to_dict
from hybridcast.pipeline import CHECKPOINT_VERSION, Checkpoint
from hybridcast.synth import SyntheticSpec, generate_synthetic_panel

SPEC = SyntheticSpec(n_days=50, seed=9, weights=(1.0, -1.0, 2.0, 0.5, 1.5), target_base=0.0)
CKPT_CONFIG = ModelConfig(variant="cnn_lstm", hidden_size=2, out_channels=1, seed=4)

DOCUMENTS = {
    "ExperimentConfig": ExperimentConfig(
        data=DataConfig(source="csv", csv_paths=["close.csv", "macro.csv"], date_column="day", target_column="close"),
        selection=SelectionConfig(scad_lambda=0.25, grid_points=4),
        model=ModelConfig(variant="cnn_lstm", epochs=12, learning_rate=0.01, seed=3),
        seeds=[4, 5],
        train_fraction=0.8,
    ),
    "ModelConfig": ModelConfig(variant="cnn_lstm", epochs=7, seed=3),
    "SyntheticSpec": SPEC,
    "GroundTruth": generate_synthetic_panel(SyntheticSpec(n_days=30, seed=2))[1],
    "Checkpoint": Checkpoint(
        CHECKPOINT_VERSION, CKPT_CONFIG, model_to_dict(ForecastModel(CKPT_CONFIG, 2)), ["price", "x"], "price", 0.8,
        "0123456789abcdef" * 4,
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
        assert got == value, name
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


def test_one_read_evaluates_each_class_annotations_once(monkeypatch):
    """A document holding many values of one dataclass, like a selection report's rows, reads its hints once."""
    calls = collections.Counter()
    get_type_hints = typing.get_type_hints

    def counted(cls, *args, **kwargs):
        calls[cls] += 1
        return get_type_hints(cls, *args, **kwargs)

    monkeypatch.setattr(typing, "get_type_hints", counted)
    tallies = from_json(list[_Tally], [{"items": ["a"] * k} for k in range(20)], "tallies", DataError)
    assert [t.count for t in tallies] == list(range(20))
    assert max(calls.values(), default=0) <= 1, calls


def _failing_replace(src, dst):
    raise OSError("rename failed")


@pytest.mark.parametrize("text,fault", [("new", "rename"), ("new \ud800", "encode")],
                         ids=["rename-fails", "write-fails"])
def test_failed_atomic_write_keeps_the_old_file(tmp_path, monkeypatch, text, fault):
    """A write that fails partway leaves the target's old bytes and no temporary file."""
    path = tmp_path / "doc.json"
    path.write_text("old")
    if fault == "rename":
        monkeypatch.setattr(os, "replace", _failing_replace)
    with pytest.raises(OSError if fault == "rename" else UnicodeEncodeError):
        atomic_write_text(path, text)
    assert path.read_text() == "old"
    assert [p.name for p in tmp_path.iterdir()] == ["doc.json"]


@pytest.mark.parametrize(
    "number,message",
    [("NaN", "NaN is not a JSON number"), ("Infinity", "Infinity is not a JSON number"),
     ("-Infinity", "-Infinity is not a JSON number"), ("1e999", "number 1e999 is out of range"),
     ("-1e999", "number -1e999 is out of range")],
    ids=["nan", "infinity", "minus-infinity", "overflow", "minus-overflow"],
)
def test_non_finite_number_is_invalid_json(tmp_path, number, message):
    """Python's json reads these as nan or +-inf; here they fail as invalid JSON, with the error the caller names."""
    path = tmp_path / "doc.json"
    path.write_text('{"x": [1.5, %s]}' % number)
    with pytest.raises(DataError, match=rf"doc\.json: invalid JSON \({message}\)$"):
        read_json(path, "document", DataError)


def test_int_in_a_float_field_reads_as_written_while_a_float_holds_it():
    """The int itself comes back, so it is written back as read; one past the float range names its key."""
    largest = int(1.7976931348623157e308)
    for value in (largest, -largest, 3):
        got = from_json(float, value, "doc.x", DataError)
        assert type(got) is int and got == value
    with pytest.raises(DataError, match=r"^doc\.x: 10{36}\.\.\. is out of a float's range$"):
        from_json(float, 10**400, "doc.x", DataError)


def test_largest_finite_numbers_still_read(tmp_path):
    path = tmp_path / "doc.json"
    path.write_text('{"x": [1.7976931348623157e308, -1.7976931348623157e308, 5e-324, 1e-400]}')
    assert read_json(path, "document", DataError) == {"x": [1.7976931348623157e308, -1.7976931348623157e308, 5e-324, 0.0]}

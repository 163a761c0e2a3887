"""The document formats of every config and artifact: JSON and CSV text.

Writes are atomic and canonical (JSON with sorted keys, two-space indent
and a final newline; CSV with "\n" line ends), so a rerun with the same
inputs reproduces each file byte for byte. JSON reads check every value
against the type annotations of the dataclass it becomes, and a bad
document fails with the error class the caller names (ConfigError for
the config, DataError for artifacts) and the dotted path of the
offending key. A derived (init=False) dataclass field is written too, and
a document that states one must agree with what the class derives.
Documents hold JSON's own types only; none carries an array or a date.
"""
from __future__ import annotations

import csv
import dataclasses
import functools
import io
import json
import math
import os
import tempfile
import types
import typing

from .errors import DataError, ParameterError


def atomic_write_text(path, text: str) -> None:
    """Write via temp file + rename so partial files never appear."""
    path = os.fspath(path)
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def csv_text(header: list[str], rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _encode(obj):
    if dataclasses.is_dataclass(obj):
        return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def write_json(path, obj) -> None:
    """Write obj as canonical JSON; dataclasses go by their fields."""
    atomic_write_text(path, json.dumps(obj, indent=2, sort_keys=True, default=_encode) + "\n")


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"number {text} is out of range")
    return value


def _no_constant(name: str):
    raise ValueError(f"{name} is not a JSON number")


def read_json(path, what: str, error: type[Exception]) -> dict:
    """The top-level object of a JSON file.

    A missing file, or a path that is not a file, raises DataError
    naming `what`; invalid JSON or a top level that is not an object
    raises `error`. Python's NaN, Infinity and -Infinity literals, and a
    number that overflows a float (e.g. 1e999), are invalid JSON here,
    as non-finite cells are in a CSV panel.
    """
    if not os.path.isfile(path):
        raise DataError(f"{what} not found: {path}")
    with open(path) as fh:
        try:
            raw = json.load(fh, parse_float=_finite_float, parse_constant=_no_constant)
        except ValueError as exc:  # JSONDecodeError, a non-finite number, or bytes that are not UTF-8
            raise error(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(raw, dict):
        raise error(f"{path}: top level must be a JSON object, got {_shown(raw)}")
    return raw


_EXPECTED = {dict: "an object", list: "a list", tuple: "a list"}


def _shown(value) -> str:
    text = json.dumps(value)
    return text if len(text) <= 40 else text[:37] + "..."


def _is(value, cls) -> bool:
    if isinstance(value, bool):  # an int subclass, but a JSON true is no number
        return cls is bool
    return isinstance(value, (int, float) if cls is float else cls)


@functools.cache
def _type_hints(cls) -> dict:
    """A dataclass's field annotations, evaluated once per class: a document may hold many values of one class."""
    return typing.get_type_hints(cls)


def from_json(cls, raw, where: str, error: type[Exception]):
    """Check decoded JSON against a type and build a value of it.

    cls is a dataclass or an annotation its fields may carry: int,
    float (an int too, if a float can hold it), str, bool, X | None,
    list[T], tuple[T, ...], dict (any object) and dict[str, T].
    A dataclass is built from its fields, recursing into those that are
    dataclasses themselves; fields absent from the document keep their
    defaults. An init=False field is never passed to
    the constructor; if the document states it, the value must equal what
    the built object derived. An unknown, missing, mistyped or disagreeing
    key, or a value the constructor rejects with ParameterError, raises
    `error` naming the dotted path of the key under `where`; a wrong
    type names what the key expects and what it got.
    """
    if dataclasses.is_dataclass(cls):
        if not isinstance(raw, dict):
            raise error(f"{where}: expected an object, got {_shown(raw)}")
        fields = {f.name: f for f in dataclasses.fields(cls)}
        unknown = sorted(set(raw) - set(fields))
        if unknown:
            raise error("unknown key " + ", ".join(f"{where}.{k}" for k in unknown))
        hints = _type_hints(cls)
        values = {}
        for name, f in fields.items():
            if name in raw:
                values[name] = from_json(hints[name], raw[name], f"{where}.{name}", error)
            elif f.init and f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING:
                raise error(f"{where}.{name} is missing")
        try:
            obj = cls(**{k: v for k, v in values.items() if fields[k].init})
        except ParameterError as exc:
            raise error(f"{where}: {exc}") from exc
        for name, value in values.items():
            if not fields[name].init and value != getattr(obj, name):
                derived = _shown(getattr(obj, name))
                raise error(f"{where}.{name}: {_shown(value)} disagrees with {derived}, derived from the rest")
        return obj

    origin, args = typing.get_origin(cls), typing.get_args(cls)
    if origin is types.UnionType:
        (inner,) = (a for a in args if a is not type(None))  # X | None is the one union supported
        return None if raw is None else from_json(inner, raw, where, error)
    if origin in (list, tuple) and isinstance(raw, list):
        values = [from_json(args[0], v, f"{where}[{i}]", error) for i, v in enumerate(raw)]
        return values if origin is list else tuple(values)
    if origin is dict and isinstance(raw, dict):
        return {k: from_json(args[1], v, f"{where}.{k}", error) for k, v in raw.items()}
    if origin is None and _is(raw, cls):
        if cls is float and isinstance(raw, int):  # kept an int, so its bytes are written back as read
            try:
                float(raw)
            except OverflowError:
                raise error(f"{where}: {_shown(raw)} is out of a float's range") from None
        return raw
    expected = _EXPECTED.get(origin or cls) or cls.__name__
    raise error(f"{where}: expected {expected}, got {_shown(raw)}")

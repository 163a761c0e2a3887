"""The JSON document format of every config and artifact.

Writes are atomic and canonical (sorted keys, two-space indent, a final
newline), so a rerun with the same inputs reproduces each file byte for
byte. Reads check every value against the type annotations of the
dataclass it becomes, and a bad document fails with the error class the
caller names (ConfigError for the config, DataError for artifacts) and
the dotted path of the offending key.
"""
from __future__ import annotations

import dataclasses
import json
import os
import tempfile
import types
import typing
from datetime import date

import numpy as np

from .errors import MissingInputError, ParameterError


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


def _encode(obj):
    if dataclasses.is_dataclass(obj):
        return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, date):
        return obj.isoformat()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def write_json(path, obj) -> None:
    """Write obj as canonical JSON; dataclasses go by their fields, ndarrays as lists, dates in ISO form."""
    atomic_write_text(path, json.dumps(obj, indent=2, sort_keys=True, default=_encode) + "\n")


def read_json(path, what: str, error: type[Exception]) -> dict:
    """The top-level object of a JSON file.

    A missing file raises MissingInputError naming `what`; invalid JSON
    or a top level that is not an object raises `error`.
    """
    if not os.path.exists(path):
        raise MissingInputError(f"{what} not found: {path}")
    with open(path) as fh:
        try:
            raw = json.load(fh)
        except ValueError as exc:  # JSONDecodeError, or bytes that are not UTF-8
            raise error(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(raw, dict):
        raise error(f"{path}: top level must be a JSON object, got {_shown(raw)}")
    return raw


_EXPECTED = {dict: "an object", list: "a list", tuple: "a list",
             date: "an ISO date", np.ndarray: "a list of numbers"}


def _shown(value) -> str:
    text = json.dumps(value)
    return text if len(text) <= 40 else text[:37] + "..."


def _is(value, cls) -> bool:
    if isinstance(value, bool):  # an int subclass, but a JSON true is no number
        return cls is bool
    return isinstance(value, (int, float) if cls is float else cls)


def from_json(cls, raw, where: str, error: type[Exception]):
    """Check decoded JSON against a type and build a value of it.

    cls is a dataclass or an annotation its fields may carry: int,
    float (ints accepted), str, bool, X | None, list[T], tuple[T, ...],
    dict (any object), dict[str, T], date (ISO text) and np.ndarray (a
    list of numbers). A dataclass is built from its fields, recursing
    into those that are dataclasses themselves; fields absent from the
    document keep their defaults. An unknown, missing or mistyped key,
    or a value the constructor rejects with ParameterError, raises
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
        hints = typing.get_type_hints(cls)
        kwargs = {}
        for name, f in fields.items():
            if name in raw:
                kwargs[name] = from_json(hints[name], raw[name], f"{where}.{name}", error)
            elif f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING:
                raise error(f"{where}.{name} is missing")
        try:
            return cls(**kwargs)
        except ParameterError as exc:
            raise error(f"{where}: {exc}") from exc

    origin, args = typing.get_origin(cls), typing.get_args(cls)
    if origin is types.UnionType:
        (inner,) = (a for a in args if a is not type(None))  # X | None is the one union supported
        return None if raw is None else from_json(inner, raw, where, error)
    if origin in (list, tuple) and isinstance(raw, list):
        values = [from_json(args[0], v, f"{where}[{i}]", error) for i, v in enumerate(raw)]
        return values if origin is list else tuple(values)
    if origin is dict and isinstance(raw, dict):
        return {k: from_json(args[1], v, f"{where}.{k}", error) for k, v in raw.items()}
    if cls is date and isinstance(raw, str):
        try:
            return date.fromisoformat(raw)
        except ValueError:
            pass
    if cls is np.ndarray and isinstance(raw, list) and all(_is(v, float) for v in raw):
        return np.array(raw, dtype=np.float64)
    if origin is None and _is(raw, cls):
        return raw
    expected = _EXPECTED.get(origin or cls) or cls.__name__
    raise error(f"{where}: expected {expected}, got {_shown(raw)}")

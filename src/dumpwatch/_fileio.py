"""Shared file helpers: atomic replace, strict JSON reading, the one typed
reader of JSON documents, nodata encoding, and a pause of the garbage
collector while large object trees are built."""

from __future__ import annotations

import gc
import json
import math
import os
import sys
import tempfile
import typing
from contextlib import contextmanager
from dataclasses import MISSING, fields, is_dataclass
from functools import cache
from pathlib import Path
from types import NoneType, UnionType


@contextmanager
def atomic_open(path: str | os.PathLike):
    """A binary file handle on a temp file in ``path``'s directory, renamed
    over ``path`` when the block ends, and removed if the block raises."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=target.parent, prefix=target.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            yield fh
        os.replace(tmp, target)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_bytes(path: str | os.PathLike, data: bytes) -> None:
    """Write bytes via a temp file in the same directory, then rename."""
    with atomic_open(path) as fh:
        fh.write(data)


def atomic_write_text(path: str | os.PathLike, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def atomic_write_json(path: str | os.PathLike, obj) -> None:
    # allow_nan=False keeps the files strict JSON; NaN must be encoded upstream.
    # No indent: indenting falls back to the pure-Python encoder, several
    # times slower than the C one on large GeoJSON.
    atomic_write_text(path, json.dumps(obj, allow_nan=False) + "\n")


def _reject_constant(name: str):
    raise ValueError(f"non-standard constant {name}")


@contextmanager
def gc_paused():
    """Pause the cyclic garbage collector for a block that builds many
    containers but no reference cycles, such as a parsed JSON document.
    Each pass of the collector walks the containers built so far, so on a
    large GeoJSON the passes take three times as long as parsing it. A
    collector the caller had paused stays paused."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def strict_decoder() -> json.JSONDecoder:
    """The decoder ``read_json`` parses with, which refuses NaN and Infinity."""
    return json.JSONDecoder(parse_constant=_reject_constant)


def read_json(path: str | os.PathLike):
    """Parse a JSON file strictly (no NaN/Infinity); errors name the file."""
    try:
        with gc_paused():
            return json.loads(Path(path).read_text(), parse_constant=_reject_constant)
    except ValueError as exc:
        raise ValueError(f"invalid JSON in {path}: {exc}") from exc


# ``X | Y`` is a types.UnionType, but a typing.Union where X or Y is a Literal
_UNIONS = (UnionType, typing.Union)
_NAMES = {int: "integer", float: "finite number", str: "string", bool: "boolean", NoneType: "null"}


def _expected(hint, plural: bool = False) -> str:
    """What a field annotated ``hint`` takes, as messages name it."""
    origin, args, s = typing.get_origin(hint), typing.get_args(hint), "s" if plural else ""
    if origin in _UNIONS:
        return " or ".join(_expected(member, plural) for member in args)
    if origin is typing.Literal:
        return " or ".join(map(json.dumps, args))
    if origin is tuple and args[-1] is Ellipsis:
        return f"list{s} of {_expected(args[0], True)}"
    if origin is tuple:
        items = _expected(args[0], len(args) > 1) if len(set(args)) == 1 else "items"
        return f"list{s} of {len(args)} {items}"
    return _NAMES.get(hint, "object") + s


def _fits(hint, value) -> bool:
    """Whether ``value`` is of the JSON type ``hint`` takes, items unseen."""
    origin = typing.get_origin(hint)
    if origin is typing.Literal:
        return any(type(value) is type(choice) and value == choice for choice in typing.get_args(hint))
    if origin is tuple:
        return type(value) is list
    if origin is dict or hint is dict or is_dataclass(hint):
        return type(value) is dict
    if hint is float:  # an integer compares exactly, so one beyond the float range fails
        return type(value) in (int, float) and abs(value) <= sys.float_info.max
    return type(value) is hint  # so a bool is no integer


@cache
def _declared(cls) -> dict:
    """Each field of the dataclass ``cls``: its annotation, and if it is required."""
    hints = typing.get_type_hints(cls)
    return {f.name: (hints[f.name], f.default is MISSING and f.default_factory is MISSING) for f in fields(cls)}


def parse(hint, value, path: str = ""):
    """``value``, parsed JSON, as the type ``hint`` annotates, or a
    ValueError whose message starts with the ``path`` of the field at fault
    (such as ``chips[3].origin``).

    ``int`` takes an integer (not a bool), ``float`` a number whose float
    is finite (kept as given), ``str`` a string, ``bool`` a bool, and a
    ``Literal`` one of its values. ``tuple[X, ...]`` and ``tuple[X, Y]``
    take lists, a union its first member that fits, ``dict[str, X]`` and a
    bare ``dict`` objects, and a dataclass an object with its fields that
    have no default and no other key. A dataclass's ``__post_init__``
    checks ranges; its message joins ``path`` as a field's would when it
    starts with a field name and a colon.
    """
    if type(value) is hint and hint is not float:  # a string, integer or bool as declared
        return value
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in _UNIONS:
        for member in args:
            if _fits(member, value):
                return parse(member, value, path)
    elif not _fits(hint, value):
        pass
    elif origin is tuple:
        items = args[:1] * len(value) if args[-1] is Ellipsis else args
        if len(items) == len(value):
            return tuple(parse(item, v, f"{path}[{i}]") for i, (item, v) in enumerate(zip(items, value)))
    elif origin is dict:
        return {key: parse(args[1], v, f"{path}.{key}") for key, v in value.items()}
    elif is_dataclass(hint):
        return _parse_object(hint, value, path)
    else:
        return value
    raise ValueError(f"{path + ': ' if path else ''}expected {_expected(hint)}, got {shown(json.dumps(value))}")


def shown(value) -> str:
    """``value`` as a message quotes it: its text, cut to 60 characters,
    since a number in a file can run to hundreds of digits. ``parse`` and
    the range checks of the dataclasses it fills quote values this way."""
    text = str(value)
    return text if len(text) <= 60 else text[:57] + "..."


def _parse_object(cls, obj: dict, path: str):
    declared, prefix, values = _declared(cls), path + "." if path else "", {}
    for name, (hint, required) in declared.items():
        if name in obj:
            values[name] = parse(hint, obj[name], prefix + name)
        elif required:
            raise ValueError(f"{prefix}{name}: missing")
    for key in obj:
        if key not in declared:
            raise ValueError(f"{prefix}{key}: unknown field")
    try:
        return cls(**values)
    except (ValueError, OverflowError) as exc:
        message = str(exc)
        joint = "." if message.split(":")[0] in declared else ": "
        raise ValueError(f"{path}{joint}{message}" if path else message) from exc


def read_document(cls, path: str | os.PathLike):
    """The dataclass ``cls`` that the JSON file at ``path`` holds
    (``parse``); a fault raises a ValueError naming the file and the field."""
    document = read_json(path)
    try:
        return parse(cls, document)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def encode_nodata(value: float | None):
    """Encode a nodata sentinel for strict JSON (NaN has no literal)."""
    if value is None:
        return None
    if math.isnan(value):
        return "nan"
    return float(value)

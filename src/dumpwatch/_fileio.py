"""Shared file helpers: atomic replace, strict JSON reading, nodata encoding,
and a pause of the garbage collector while large object trees are built."""

from __future__ import annotations

import gc
import json
import math
import os
import tempfile
from contextlib import contextmanager
from pathlib import Path


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


def read_json(path: str | os.PathLike):
    """Parse a JSON file strictly (no NaN/Infinity); errors name the file."""
    try:
        with gc_paused():
            return json.loads(Path(path).read_text(), parse_constant=_reject_constant)
    except ValueError as exc:
        raise ValueError(f"invalid JSON in {path}: {exc}") from exc


def encode_nodata(value: float | None):
    """Encode a nodata sentinel for strict JSON (NaN has no literal)."""
    if value is None:
        return None
    if math.isnan(value):
        return "nan"
    return float(value)

"""Geo-referenced raster and polygon I/O plus pixel/world coordinate math.

Rasters use a native two-file layout: ``<base>.json`` holds the header
(dimensions, band names, transform, nodata, dtype) and ``<base>.bin`` holds
the raw little-endian float32 payload, band-major then row-major. Polygons
are columns (``Polygons``), the one geometry type from the synthetic
generator and the annotation reader to the file; ``write_geojson`` is the
one GeoJSON text writer, for annotations and detections alike. GeoJSON is
streamed both ways: the writer holds one slice of features' text at a
time, and ``read_annotations`` the file's text and flat columns, never a
parsed document (unless the file has a fault to report).

Coordinates are assumed to share one projected CRS with meter-like units;
alignment between rasters and annotations is the caller's responsibility and
is documented here rather than checked.
"""

from __future__ import annotations

import json
import math
import os
import re
import warnings
from bisect import bisect_right
from collections.abc import Sequence
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from itertools import chain
from pathlib import Path
from typing import Literal

import numpy as np

from ._fileio import (
    atomic_open,
    atomic_write_json,
    encode_nodata,
    gc_paused,
    read_document,
    read_json,
    shown,
    strict_decoder,
)

RASTER_FORMAT = "dumpwatch.raster"
RASTER_FORMAT_VERSION = 1

Point = tuple[float, float]
Ring = tuple[Point, ...]


@dataclass(frozen=True)
class GeoTransform:
    """North-up, axis-aligned mapping between pixel and world coordinates.

    ``origin_x``/``origin_y`` locate the top-left corner of pixel (0, 0).
    Both pixel sizes are positive; ``pixel_height`` is applied downward, so
    row ``r`` spans world y in ``(origin_y - (r+1)*pixel_height,
    origin_y - r*pixel_height]``.
    """

    origin_x: float
    origin_y: float
    pixel_width: float
    pixel_height: float

    def __post_init__(self):
        if not (self.pixel_width > 0):
            raise ValueError(f"pixel_width: must be > 0, got {shown(self.pixel_width)}")
        if not (self.pixel_height > 0):
            raise ValueError(f"pixel_height: must be > 0, got {shown(self.pixel_height)}")


def pixel_to_world(transform: GeoTransform, col: float, row: float) -> Point:
    """Map pixel indices to the world coordinates of the cell's top-left corner."""
    x = transform.origin_x + col * transform.pixel_width
    y = transform.origin_y - row * transform.pixel_height
    return x, y


def shift_transform(transform: GeoTransform, col: int, row: int) -> GeoTransform:
    """Transform of a window whose top-left pixel is (col, row) of the parent."""
    x, y = pixel_to_world(transform, col, row)
    return GeoTransform(x, y, transform.pixel_width, transform.pixel_height)


@dataclass(eq=False)
class Raster:
    """In-memory raster: float32 samples shaped [band, row, col].

    nodata defaults to NaN; ``None`` means every sample is valid.
    """

    samples: np.ndarray
    transform: GeoTransform
    nodata: float | None = math.nan
    band_names: tuple[str, ...] | None = None

    def __post_init__(self):
        arr = np.asarray(self.samples)
        if arr.ndim != 3:
            raise ValueError(f"samples must be [band, row, col], got ndim={arr.ndim}")
        if 0 in arr.shape:
            raise ValueError(f"empty raster: shape {arr.shape}")
        if arr.dtype != np.float32:
            arr = arr.astype(np.float32)
        self.samples = arr
        if self.band_names is not None:
            self.band_names = tuple(self.band_names)
            if len(self.band_names) != arr.shape[0]:
                raise ValueError(
                    f"{len(self.band_names)} band names for {arr.shape[0]} bands"
                )

    @property
    def band_count(self) -> int:
        return self.samples.shape[0]

    @property
    def height(self) -> int:
        return self.samples.shape[1]

    @property
    def width(self) -> int:
        return self.samples.shape[2]

    def band(self, name: str) -> np.ndarray:
        if self.band_names is None:
            raise KeyError("raster has no band names")
        try:
            return self.samples[self.band_names.index(name)]
        except ValueError:
            raise KeyError(f"no band named {name!r}") from None

    def read_rows(self, r0: int, r1: int) -> np.ndarray:
        """Samples [band, row, col] of rows ``r0`` to ``r1`` (exclusive), as
        ``RasterReader.read_rows`` gives them from a file."""
        return self.samples[:, r0:r1]

    def valid_mask(self) -> np.ndarray:
        """Boolean [row, col] mask, True where every band holds valid data."""
        if self.nodata is None:
            return np.ones(self.samples.shape[1:], dtype=bool)
        if math.isnan(self.nodata):
            return ~np.isnan(self.samples).any(axis=0)
        return ~(self.samples == self.nodata).any(axis=0)


@dataclass(frozen=True, kw_only=True)
class RasterHeader:
    """A raster's ``.json`` header, its keys in the order written."""

    format: Literal[RASTER_FORMAT]
    format_version: Literal[RASTER_FORMAT_VERSION]
    width: int
    height: int
    band_count: int
    band_names: tuple[str, ...] | None = None
    transform: GeoTransform
    nodata: float | Literal["nan"] | None = None  # encode_nodata's
    dtype: Literal["float32"]
    byte_order: Literal["little"] = "little"
    layout: Literal["band-row-col"] = "band-row-col"

    def __post_init__(self):
        for key in ("width", "height", "band_count"):
            # below 2**31, as GDAL's are: their products with floats stay floats
            if not 1 <= getattr(self, key) < 2**31:
                raise ValueError(f"{key}: must be in [1, 2**31), got {shown(getattr(self, key))}")
        t, w, h = self.transform, self.width, self.height
        if not all(map(math.isfinite, (t.origin_x + w * t.pixel_width, t.origin_y - h * t.pixel_height,
                                       w * h * (t.pixel_width * t.pixel_height)))):
            raise ValueError("transform: its world extent or area is not a finite float")
        if self.band_names and len(self.band_names) != self.band_count:
            raise ValueError(f"band_names: {len(self.band_names)} band names for {self.band_count} bands")


def _raster_paths(path: str | Path) -> tuple[Path, Path]:
    base = str(path)
    return Path(base + ".json"), Path(base + ".bin")


@contextmanager
def raster_writer(
    path: str | Path,
    band_count: int,
    height: int,
    width: int,
    transform: GeoTransform,
    nodata: float | None = math.nan,
    band_names: tuple[str, ...] | None = None,
):
    """Write a raster pair rows first: yields ``write_rows``, which takes the
    next rows as [band, row, col] samples and writes each band's rows at
    their offset in a temp payload. When the block ends with every row
    written, the payload is renamed into place and the header written; if
    it raises, the temp payload is removed and nothing is replaced."""
    header_path, payload_path = _raster_paths(path)
    header = RasterHeader(
        format=RASTER_FORMAT, format_version=RASTER_FORMAT_VERSION, width=width, height=height,
        band_count=band_count, band_names=tuple(band_names) if band_names else None, transform=transform,
        nodata=encode_nodata(nodata), dtype="float32",
    )
    written = 0
    with atomic_open(payload_path) as fh:

        def write_rows(rows: np.ndarray) -> None:
            nonlocal written
            rows = np.ascontiguousarray(rows, dtype="<f4")
            if rows.ndim != 3 or rows.shape[0] != band_count or rows.shape[2] != width:
                raise ValueError(f"rows of shape {rows.shape} for a {band_count}-band, {width} px wide raster")
            if written + rows.shape[1] > height:
                raise ValueError(f"{written + rows.shape[1]} rows for a raster of height {height}")
            for band in range(band_count):
                fh.seek((band * height + written) * width * 4)
                fh.write(rows[band])
            written += rows.shape[1]

        yield write_rows
        if written != height:
            raise ValueError(f"{payload_path}: {written} of {height} rows written")
    atomic_write_json(header_path, asdict(header))


def write_raster(raster: Raster, path: str | Path) -> None:
    """Write the two-file native raster pair at ``path`` (+ .json / .bin)."""
    with raster_writer(
        path, *raster.samples.shape, raster.transform, raster.nodata, raster.band_names
    ) as write_rows:
        write_rows(raster.samples)


class RasterReader:
    """An open raster pair whose rows are read on demand.

    The header and the payload's length are checked once, on open, so a
    truncated or padded payload raises before any row is read. Each
    ``read_rows`` reads every band's rows at their file offset straight into
    a new array; a short read raises rather than leave rows unfilled. Use as
    a context manager, or call ``close``.
    """

    def __init__(self, path: str | Path):
        header_path, payload_path = _raster_paths(path)
        if not payload_path.exists():  # read_json names a missing header
            raise FileNotFoundError(f"missing raster payload {payload_path}")
        header = read_document(RasterHeader, header_path)
        self.width, self.height, self.band_count = header.width, header.height, header.band_count
        self.transform, self.band_names = header.transform, header.band_names or None
        self.nodata = None if header.nodata is None else float(header.nodata)  # "nan" too
        self.path = payload_path
        self._file = open(payload_path, "rb")
        size = os.fstat(self._file.fileno()).st_size
        expected = self.band_count * self.height * self.width * 4
        if size != expected:
            self._file.close()
            raise ValueError(
                f"band/sample mismatch in {payload_path}: header declares "
                f"{self.band_count}x{self.height}x{self.width} float32 ({expected} "
                f"bytes) but payload holds {size} bytes"
            )

    def read_rows(self, r0: int, r1: int) -> np.ndarray:
        """Samples [band, row, col] of rows ``r0`` to ``r1`` (exclusive)."""
        if not 0 <= r0 < r1 <= self.height:
            raise ValueError(f"rows {r0}:{r1} outside a raster of height {self.height}")
        out = np.empty((self.band_count, r1 - r0, self.width), dtype="<f4")
        for band in range(self.band_count):
            self._file.seek((band * self.height + r0) * self.width * 4)
            got = self._file.readinto(out[band])
            if got != out[band].nbytes:
                raise ValueError(
                    f"short read in {self.path}: band {band} rows {r0}:{r1} gave "
                    f"{got} of {out[band].nbytes} bytes"
                )
        return out

    def close(self) -> None:
        self._file.close()

    def __enter__(self) -> RasterReader:
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def read_raster(path: str | Path) -> Raster:
    with RasterReader(path) as src:
        return Raster(
            src.read_rows(0, src.height),
            src.transform,
            nodata=src.nodata,
            band_names=src.band_names,
        )


# ---------------------------------------------------------------------------
# polygon annotations
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class Polygons(Sequence):
    """Polygons as columns, in the ragged layout of GeoArrow
    (https://geoarrow.org): every vertex's ``x`` and ``y``; ``ring_offsets``,
    where each ring's vertices start, with the end as a last entry;
    ``polygon_offsets``, where each polygon's rings (its exterior, then its
    holes) start, likewise; and one label per polygon. Rings are open (the
    first vertex is not repeated) and normalized (``_normalized``). This is
    the one polygon type, from ``dataset.generate_synthetic`` and
    ``read_annotations`` to ``write_geojson``. ``polygons[k]`` is polygon k
    alone, as columns sliced from these.
    """

    x: np.ndarray
    y: np.ndarray
    ring_offsets: np.ndarray
    polygon_offsets: np.ndarray
    labels: list[str]

    def __len__(self) -> int:
        return len(self.labels)

    def __getitem__(self, k: int) -> Polygons:
        k = range(len(self))[k]
        a, b = self.polygon_offsets[k : k + 2]
        lo, hi = self.ring_offsets[a], self.ring_offsets[b]
        offsets = self.ring_offsets[a : b + 1] - lo
        return Polygons(self.x[lo:hi], self.y[lo:hi], offsets, np.array([0, b - a]), self.labels[k : k + 1])

    def rings(self) -> list[Ring]:
        """Every ring in order, each a tuple of (x, y) closed by its first
        vertex."""
        pts = list(zip(self.x.tolist(), self.y.tolist()))
        bounds = self.ring_offsets.tolist()
        return [(*pts[a:b], pts[a]) for a, b in zip(bounds, bounds[1:])]


def _coord(value) -> float:
    """float(value), except that an integer too large for a float becomes
    +-inf, as a float literal of that size parses (and is then rejected as
    non-finite where rings are validated)."""
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _normalized(x: np.ndarray, y: np.ndarray, offsets: np.ndarray):
    """Rings in columns without their closing vertex and consecutive
    repeats: the kept x, y and ring offsets. A ring's first vertex stays,
    and each later one stays unless it equals the one before. The last run
    of equal vertices closes the ring when it repeats the first vertex and
    does not start the ring; its vertex goes too. Rings built by
    ``polygonize`` lose nothing.
    """
    sizes = np.diff(offsets)
    first, last = offsets[:-1][sizes > 0], offsets[1:][sizes > 0] - 1
    keep = np.ones(len(x), dtype=bool)
    keep[1:] = (x[1:] != x[:-1]) | (y[1:] != y[:-1])
    keep[first] = True
    run = np.maximum.accumulate(np.where(keep, np.arange(len(x)), 0))[last]
    keep[run[(run != first) & (x[run] == x[first]) & (y[run] == y[first])]] = False
    counts = np.bincount(np.repeat(np.arange(len(sizes)), sizes)[keep], minlength=len(sizes))
    kept = np.zeros(len(sizes) + 1, np.int64)
    np.cumsum(counts, out=kept[1:])
    return x[keep], y[keep], kept


def ring_is_simple(ring: Ring) -> bool:
    """Whether a closed ring is finite, never folds back along its previous
    segment, and has no two non-adjacent segments that touch or cross: the
    check ``read_annotations`` runs on every ring (``_first_bad_ring``)."""
    x, y = np.array(ring[:-1], np.float64).reshape(-1, 2).T
    return _first_bad_ring(x, y, np.array([0, len(x)])) is None


# Rings are checked in blocks of about this many segments (a longer ring on
# its own), and candidate segment pairs tested this many at a time.
_CHUNK = 1 << 13


def _first_bad_ring(x: np.ndarray, y: np.ndarray, offsets: np.ndarray) -> tuple[int, str] | None:
    """The first of the open rings in columns (``x``, ``y``, ring
    ``offsets``) that is not finite and simple, with its defect: a
    non-finite vertex, else the lowest vertex where it folds back, else the
    least pair of non-adjacent segments that touch (segment ``i`` runs from
    vertex ``i`` to the next, the last one back to vertex 0). None when
    every ring is good."""
    start, count = 0, len(offsets) - 1
    while start < count:
        stop = max(start + 1, int(np.searchsorted(offsets, offsets[start] + _CHUNK, "right")) - 1)
        if (found := _block_defect(x, y, offsets[start : stop + 1])) is not None:
            return start + found[0], found[1]
        start = stop
    return None


def _block_defect(x: np.ndarray, y: np.ndarray, offsets: np.ndarray) -> tuple[int, str] | None:
    """``_first_bad_ring`` in one numpy pass over the rings from
    ``offsets[0]`` to ``offsets[-1]``. Each ring's segments are sorted by
    their low end along x or y, whichever they cover less of in total (so
    that a comb's teeth do not all reach along its spine), and each is paired
    with the later ones of its ring whose low end it reaches and whose range
    on the other axis meets its own: touching segments share a point, so no
    touching pair is missed."""
    n, starts = np.diff(offsets), offsets[:-1]  # an open ring has a segment per vertex
    ring = np.repeat(np.arange(len(n)), n)
    a = np.arange(offsets[0], offsets[-1])  # each segment's first vertex
    k = a - starts[ring]  # and its index in the ring
    b = np.where(k == n[ring] - 1, starts[ring], a + 1)  # its last vertex
    xa, ya, xb, yb = x[a], y[a], x[b], y[b]  # segment ends
    limit, defect = len(n), None
    # overflow and inf - inf yield inf and NaN here, as in Python floats
    with np.errstate(all="ignore"):
        # fold-back at vertex k (a): p, a, b collinear and a - p, b - a opposed;
        # adjacent segments are never paired below, so only this catches it
        p = np.where(k == 0, a + n[ring] - 1, a - 1)
        xp, yp = x[p], y[p]
        ux, uy = xa - xp, ya - yp
        fold = (ux * (yb - yp) - uy * (xb - xp) == 0) & (ux * (xb - xa) + uy * (yb - ya) < 0)
        flagged = np.flatnonzero(fold | ~(np.isfinite(xa) & np.isfinite(ya)))
        if len(flagged):
            limit = int(ring[flagged[0]])
            own = slice(starts[limit], starts[limit] + n[limit])
            finite = np.isfinite(x[own]).all() and np.isfinite(y[own]).all()
            defect = f"folds back at vertex {k[flagged[0]]}" if finite else "non-finite vertex"
        x0, x1 = np.minimum(xa, xb), np.maximum(xa, xb)
        y0, y1 = np.minimum(ya, yb), np.maximum(ya, yb)
        along_y = (np.bincount(ring, y1 - y0) < np.bincount(ring, x1 - x0))[ring]
        lo, hi = np.where(along_y, y0, x0), np.where(along_y, y1, x1)
        cross_lo, cross_hi = np.where(along_y, x0, y0), np.where(along_y, x1, y1)
        # (ring, value) ranked as one integer: one searchsorted then counts,
        # for each segment in (ring, low end) order, the later ones it reaches
        # distinct values by sort and neighbour mask: np.unique would import
        # numpy.ma on its first call
        values = np.sort(np.concatenate([lo, hi]))
        values = values[np.r_[True, values[1:] != values[:-1]]]
        key = ring * len(values) + np.searchsorted(values, lo)
        reach = ring * len(values) + np.searchsorted(values, hi)
        order = np.argsort(key)
        count = np.searchsorted(key[order], reach[order], "right") - np.arange(1, len(key) + 1)
        first, total = np.cumsum(count) - count, int(count.sum())
        best = None
        for start in range(0, total, _CHUNK):
            pair = np.arange(start, min(start + _CHUNK, total))
            p = np.searchsorted(first, pair, side="right") - 1
            s, t = order[p], order[p + 1 + pair - first[p]]
            i, j = np.minimum(k[s], k[t]), np.maximum(k[s], k[t])
            keep = (j - i > 1) & (j - i < n[ring[s]] - 1)  # not adjacent
            keep &= (cross_lo[t] <= cross_hi[s]) & (cross_lo[s] <= cross_hi[t])
            s, t, i, j = s[keep], t[keep], i[keep], j[keep]
            touch = _pairs_touch(xa[s], ya[s], xb[s], yb[s], xa[t], ya[t], xb[t], yb[t])
            if touch.any():
                r, i, j = ring[s[touch]], i[touch], j[touch]
                w = np.lexsort((j, i, r))[0]
                found = (int(r[w]), int(i[w]), int(j[w]))
                best = min(best or found, found)
    if best is not None and best[0] < limit:
        return best[0], f"segments {best[1]} and {best[2]} touch"
    return None if defect is None else (limit, defect)


def _pairs_touch(x1, y1, x2, y2, x3, y3, x4, y4) -> np.ndarray:
    """Elementwise: True where closed segment (x1, y1)-(x2, y2) touches or
    crosses (x3, y3)-(x4, y4), endpoints included."""

    def orient(ax, ay, bx, by, cx, cy):
        return (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)

    lo_x12, hi_x12 = np.minimum(x1, x2), np.maximum(x1, x2)
    lo_y12, hi_y12 = np.minimum(y1, y2), np.maximum(y1, y2)
    lo_x34, hi_x34 = np.minimum(x3, x4), np.maximum(x3, x4)
    lo_y34, hi_y34 = np.minimum(y3, y4), np.maximum(y3, y4)
    d1 = orient(x3, y3, x4, y4, x1, y1)
    d2 = orient(x3, y3, x4, y4, x2, y2)
    d3 = orient(x1, y1, x2, y2, x3, y3)
    d4 = orient(x1, y1, x2, y2, x4, y4)
    touch = (((d1 > 0) & (d2 < 0)) | ((d1 < 0) & (d2 > 0))) & (
        ((d3 > 0) & (d4 < 0)) | ((d3 < 0) & (d4 > 0))
    )
    for d, px, py, lx, hx, ly, hy in (
        (d1, x1, y1, lo_x34, hi_x34, lo_y34, hi_y34),
        (d2, x2, y2, lo_x34, hi_x34, lo_y34, hi_y34),
        (d3, x3, y3, lo_x12, hi_x12, lo_y12, hi_y12),
        (d4, x4, y4, lo_x12, hi_x12, lo_y12, hi_y12),
    ):
        touch |= (d == 0) & (lx <= px) & (px <= hx) & (ly <= py) & (py <= hy)
    overlap = (lo_x12 <= hi_x34) & (lo_x34 <= hi_x12) & (lo_y12 <= hi_y34) & (lo_y34 <= hi_y12)
    return touch & overlap


def _polygon_parts(path: Path, features):
    """The one walk of a FeatureCollection's features: in file order,
    ``(feature, part or None, label, rings)`` for each polygon part (a
    Polygon has one), None for a feature of another type. It raises at the
    first malformed feature or part (not a list of rings); ``_flatten``
    checks the rings."""
    for idx, feature in enumerate(features):
        if not isinstance(feature, dict):
            raise ValueError(f"malformed feature in {path.name} feature {idx}: not an object")
        geom = feature.get("geometry") or {}
        props = feature.get("properties") or {}
        if not isinstance(geom, dict) or not isinstance(props, dict):
            raise ValueError(
                f"malformed feature in {path.name} feature {idx}: "
                "geometry or properties not an object"
            )
        gtype, coords = geom.get("type"), geom.get("coordinates")
        if gtype not in ("Polygon", "MultiPolygon"):
            yield None
            continue
        if not isinstance(coords, list):
            raise ValueError(f"malformed feature in {path.name} feature {idx}: no coordinates")
        if not coords:
            raise ValueError(
                f"malformed polygon in {path.name} feature {idx}: coordinates are [], not a "
                f"list of one or more {'rings' if gtype == 'Polygon' else 'polygons'}"
            )
        label = str(props.get("label", "dump"))
        for p, rings in [(None, coords)] if gtype == "Polygon" else enumerate(coords):
            if not isinstance(rings, list) or not rings:
                raise ValueError(
                    f"malformed polygon in {_source(path, idx, p)}: coordinates are "
                    f"{json.dumps(rings)}, not a list of one or more rings"
                )
            yield idx, p, label, rings


def _coordinates(rings: list) -> list | None:
    """The coordinates of ``rings`` in order (x, y, x, y, ...) when each is a
    list of [x, y] pairs of JSON numbers, else None. A polygon builds from
    strings and booleans too, which ``float()`` takes. A JSON value of
    length 2 whose items are numbers is a list."""
    try:
        vertices = list(chain.from_iterable(rings))
        coords = list(chain.from_iterable(vertices))
    except TypeError:  # a ring or vertex that is a number, a boolean or null
        return None
    if set(map(type, coords)) <= {int, float} and set(map(type, rings)) <= {list} and set(map(len, vertices)) <= {2}:
        return coords
    return None


def _source(path: Path, feature: int, part: int | None, ring: int | None = None) -> str:
    where = f"{path.name} feature {feature}" + ("" if part is None else f" part {part}")
    return where if ring is None else where + (", exterior" if ring == 0 else f", hole {ring - 1}")


# a character, if any, between runs of JSON whitespace
_TOKEN = re.compile("{0}(.?){0}".format(json.decoder.WHITESPACE.pattern), re.DOTALL)


def _delimiter(text: str, i: int, allowed: str) -> tuple[str, int]:
    """The character after the whitespace at ``text[i]``, which must be one
    of ``allowed``, and the index after it and the whitespace that follows."""
    token = _TOKEN.match(text, i)
    if not (c := token[1]) or c not in allowed:
        raise ValueError(f"expected one of {allowed!r} at char {i}")
    return c, token.end()


def _streamed_features(path: Path):
    """The features of the GeoJSON FeatureCollection in the file at
    ``path``, in file order, each parsed from the file's text by json's own
    decoder at its offset, so that only the text and one feature are held.
    The members of the top-level object around its ``features`` list are
    parsed and dropped but its last ``type``. It raises ValueError unless
    the text is one such object whose ``type`` is "FeatureCollection" and
    which has at most one ``features`` member, a list: ``read_annotations``
    then parses the whole text, as ``json.loads`` reads it."""
    text = path.read_text()
    decode = strict_decoder().raw_decode
    doc_type, listed = None, False
    c, i = _delimiter(text, 0, "{")
    while c != "}":
        if text[i : i + 1] != '"':
            raise ValueError(f"expected a key at char {i}")
        key, i = decode(text, i)
        _, i = _delimiter(text, i, ":")
        if key != "features":
            value, i = decode(text, i)
            if key == "type":
                doc_type = value
        elif listed or text[i : i + 1] != "[":
            raise ValueError("features: a second member, or not a list")
        else:
            listed = True
            c, i = _delimiter(text, i, "[")
            if text[i : i + 1] == "]":
                c, i = "]", i + 1
            while c != "]":
                feature, i = decode(text, i)
                yield feature
                c, i = _delimiter(text, i, ",]")
        c, i = _delimiter(text, i, ",}")
    if i != len(text) or doc_type != "FeatureCollection":
        raise ValueError("not one FeatureCollection object")


def _flatten(path: Path, features):
    """One walk of ``features``, parsed Features in file order, up to its
    first fault: each polygon part's (feature, part) index and label, and
    its rings, checked to be lists of [x, y] number pairs (``_coordinates``)
    and flattened into float64 coordinates ``_SLICE`` rings at a time.
    Returns (index, labels, first, xy, ring sizes, skipped, fault): where
    each part's rings start, the coordinates (x, y, x, y, ...) and the
    vertex count of each ring of the parts before the fault; the count of
    features of another type; the fault, or None."""
    index, labels, first, sizes, blocks, pending, skipped = [], [], [0], [], [], [], 0

    def flush() -> ValueError | None:
        """Flatten the pending rings; the fault of the first malformed one,
        whose part and the parts after it are dropped."""
        nonlocal pending
        coords, fault = _coordinates(pending), None
        if coords is None:
            q = next(q for q, ring in enumerate(pending) if _coordinates([ring]) is None)
            k = bisect_right(first, len(sizes) + q) - 1
            ring, where = pending[q], _source(path, *index[k], len(sizes) + q - first[k])
            message = f"malformed ring in {where}: {json.dumps(ring)} is not a list of vertices"
            if isinstance(ring, list):
                v = next(v for v, xy in enumerate(ring) if _coordinates([[xy]]) is None)
                message = (
                    f"malformed vertex in {where}: vertex {v} is {json.dumps(ring[v])}, "
                    "not an [x, y] pair of numbers"
                )
            fault, pending = ValueError(message), pending[: first[k] - len(sizes)]
            del index[k:], labels[k:], first[k + 1 :]
            coords = _coordinates(pending)
        try:
            blocks.append(np.array(coords, np.float64))
        except OverflowError:
            blocks.append(np.array(list(map(_coord, coords)), np.float64))
        sizes.extend(map(len, pending))
        pending = []
        return fault

    fault = None
    try:
        for part in _polygon_parts(path, features):
            if part is None:
                skipped += 1
                continue
            index.append(part[:2])  # (feature, part)
            labels.append(part[2])
            pending += part[3]
            first.append(len(sizes) + len(pending))  # where each part's rings start
            if len(pending) >= _SLICE and (fault := flush()) is not None:
                break
    except ValueError as exc:
        fault = exc
    fault = flush() or fault
    return index, labels, first, np.concatenate(blocks), sizes, skipped, fault


def read_annotations(path: str | Path) -> Polygons:
    """Load polygons from a GeoJSON FeatureCollection, as columns.

    MultiPolygons are split into one polygon per part. Features with any
    other geometry type are skipped; a single warning reports how many.
    The features are parsed one at a time from the file's text
    (``_streamed_features``), and one walk checks each part and flattens its
    rings into coordinate columns as it goes (``_flatten``), so only the
    text, one slice of parsed rings and the columns are held: on the
    ``vectorize`` field (10^4 features, 3.1 MB) tracemalloc puts the read's
    peak at 2.2x the file's bytes, where parsing the whole document took
    6.9x. On any fault, or a document the walk does not take, the whole
    text is parsed as ``json.loads`` reads it, so that a JSON syntax fault
    anywhere comes first, named by json's message, and walked again. The columns are then normalized (``_normalized``), and
    every ring is checked to keep three distinct vertices and to be finite
    and simple, in numpy. The first fault in file order, a bad ring or a
    malformed or invalid part, is reported with its feature and ring.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"missing annotation file {path}")
    # parsed features hold no reference cycles: no collector pass need walk them
    with gc_paused():
        walk = _flatten(path, _streamed_features(path))
        if walk[-1] is not None:
            doc = read_json(path)
            if not isinstance(doc, dict) or doc.get("type") != "FeatureCollection":
                raise ValueError(f"{path} is not a GeoJSON FeatureCollection")
            features = doc.get("features", [])
            if not isinstance(features, list):
                raise ValueError(f"malformed GeoJSON in {path.name}: features is not a list")
            walk = _flatten(path, features)
            del doc, features
    index, labels, first, xy, sizes, skipped, fault = walk
    del walk
    parts = len(index)
    offsets = np.cumsum([0, *sizes])
    x, y, offsets = _normalized(xy[0::2], xy[1::2], offsets)
    del xy
    counts = np.diff(offsets)
    if (short := np.flatnonzero(counts < 3)).size:
        q = int(short[0])
        parts = bisect_right(first, q) - 1
        fault = ValueError(
            f"invalid polygon in {_source(path, *index[parts])}: "
            f"ring needs >= 3 distinct vertices, got {counts[q]}"
        )
    found = _first_bad_ring(x, y, offsets[: first[parts] + 1])
    if found is not None:
        k = bisect_right(first, found[0]) - 1
        r = found[0] - first[k]
        (feature, p), where = index[k], _source(path, *index[k], r)
        if found[1] == "non-finite vertex":
            coords = read_json(path)["features"][feature]["geometry"]["coordinates"]
            raw = (coords if p is None else coords[p])[r]
            v = next(v for v, xy in enumerate(raw) if not all(math.isfinite(_coord(c)) for c in xy))
            raise ValueError(f"non-finite vertex in {where}: vertex {v} is {raw[v]}")
        raise ValueError(f"self-intersecting ring in {where}: {found[1]}")
    if fault is not None:
        raise fault
    if skipped:
        warnings.warn(
            f"skipped {skipped} non-polygon feature(s) in {path.name}", stacklevel=2
        )
    return Polygons(x, y, offsets, np.array(first, np.int64), labels)


def _float_text(values: np.ndarray, template: str) -> list[str]:
    """``template`` formatted with each float in ``values``, whose ``{!r}``
    writes it as ``json.dumps`` does, formatting each distinct value (by its
    bits) once: corners on the pixel lattice take one value per grid line."""
    bits = np.ascontiguousarray(values, dtype=np.float64).view(np.int64)
    distinct = np.sort(bits)
    new = np.ones(len(distinct), dtype=bool)
    new[1:] = distinct[1:] != distinct[:-1]
    distinct = distinct[new]
    text = np.array(list(map(template.format, distinct.view(np.float64).tolist())), dtype=object)
    return text[np.searchsorted(distinct, bits)].tolist()


# write_geojson formats and writes this many features at a time
_SLICE = 1024


def _features_text(polygons: Polygons, offsets: np.ndarray, template: str, properties: list[list[str]]) -> str:
    """The features from ``offsets[0]`` to ``offsets[-1]`` as ``write_geojson``
    writes them, joined by ", ": ``polygons`` and the ``offsets`` of their
    features are the whole document's, ``properties`` the features' own."""
    r0, r1 = polygons.polygon_offsets[[offsets[0], offsets[-1]]]
    v0, v1 = polygons.ring_offsets[[r0, r1]]
    x, y = polygons.x[v0:v1], polygons.y[v0:v1]
    vertex = list(map(str.__add__, _float_text(x, "[{!r}, "), _float_text(y, "{!r}]")))
    bounds = (polygons.ring_offsets[r0 : r1 + 1] - v0).tolist()
    rings = [", ".join(vertex[a:b]) + ", " + vertex[a] for a, b in zip(bounds, bounds[1:])]
    bounds = (polygons.polygon_offsets[offsets[0] : offsets[-1] + 1] - r0).tolist()
    parts = ["[[" + "], [".join(rings[a:b]) + "]]" for a, b in zip(bounds, bounds[1:])]
    bounds = (offsets - offsets[0]).tolist()
    geometries = [
        '{"type": "Polygon", "coordinates": ' + parts[a]
        if b - a == 1
        else '{"type": "MultiPolygon", "coordinates": [' + ", ".join(parts[a:b]) + "]"
        for a, b in zip(bounds, bounds[1:])
    ]
    return ", ".join(map(template.format, geometries, *properties))


def write_geojson(path: str | Path, polygons: Polygons, offsets: np.ndarray, properties: dict[str, list[str]]) -> None:
    """Write features as a GeoJSON FeatureCollection (atomic replace).

    Feature k holds the polygons from ``offsets[k]`` to ``offsets[k + 1]``,
    as a Polygon when it holds one and a MultiPolygon otherwise. Its
    properties are, in key order, the k-th entry of each column of
    ``properties``, given as JSON text. The text is byte for byte what
    ``json.dumps`` writes for the feature dicts, each ring closed by its
    first vertex. It is formatted and written ``_SLICE`` features at a
    time, each distinct coordinate of a slice formatted once, so only one
    slice's text is held: on the ``vectorize`` field (10^4 features, 3.1 MB)
    tracemalloc puts ``detect.export_geojson``'s peak at 1.2x the file's
    bytes, where joining the whole text took 6.2x. Non-finite coordinates
    are refused, as the strict encoder refuses them, before anything is
    written.
    """
    if not (np.isfinite(polygons.x).all() and np.isfinite(polygons.y).all()):
        raise ValueError(f"{path}: non-finite coordinates are not JSON compliant")
    keys = ", ".join(json.dumps(key) + ": {}" for key in properties)
    template = '{{"type": "Feature", "geometry": {}}}, "properties": {{' + keys + "}}}}"
    with atomic_open(path) as fh:
        fh.write(b'{"type": "FeatureCollection", "features": [')
        for k in range(0, len(offsets) - 1, _SLICE):
            k1 = min(k + _SLICE, len(offsets) - 1)
            text = _features_text(polygons, offsets[k : k1 + 1], template, [c[k:k1] for c in properties.values()])
            fh.write(((", " if k else "") + text).encode())
        fh.write(b"]}\n")


def write_annotations(polygons: Polygons, path: str | Path) -> None:
    """Write labelled polygons as a GeoJSON FeatureCollection, one Polygon
    feature each (atomic replace)."""
    labels = list(map(json.dumps, polygons.labels))
    write_geojson(path, polygons, np.arange(len(polygons) + 1), {"label": labels})

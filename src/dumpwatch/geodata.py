"""Geo-referenced raster and polygon I/O plus pixel/world coordinate math.

Rasters use a native two-file layout: ``<base>.json`` holds the header
(dimensions, band names, transform, nodata, dtype) and ``<base>.bin`` holds
the raw little-endian float32 payload, band-major then row-major. Polygon
annotations are read from and written to GeoJSON FeatureCollections.

Coordinates are assumed to share one projected CRS with meter-like units;
alignment between rasters and annotations is the caller's responsibility and
is documented here rather than checked.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from itertools import chain, islice
from operator import sub
from pathlib import Path

import numpy as np

from ._fileio import (
    atomic_write_bytes,
    atomic_write_json,
    decode_nodata,
    encode_nodata,
    gc_paused,
    read_json,
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
            raise ValueError(f"pixel_width must be > 0, got {self.pixel_width}")
        if not (self.pixel_height > 0):
            raise ValueError(f"pixel_height must be > 0, got {self.pixel_height}")


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

    def valid_mask(self) -> np.ndarray:
        """Boolean [row, col] mask, True where every band holds valid data."""
        if self.nodata is None:
            return np.ones(self.samples.shape[1:], dtype=bool)
        if math.isnan(self.nodata):
            return ~np.isnan(self.samples).any(axis=0)
        return ~(self.samples == self.nodata).any(axis=0)


def rasters_equal(a: Raster, b: Raster) -> bool:
    """Bitwise equality of samples plus matching metadata (NaN == NaN)."""
    if a.samples.shape != b.samples.shape:
        return False
    if a.samples.tobytes() != b.samples.tobytes():
        return False
    if a.transform != b.transform or a.band_names != b.band_names:
        return False
    if (a.nodata is None) != (b.nodata is None):
        return False
    if a.nodata is not None:
        return (
            math.isnan(a.nodata) and math.isnan(b.nodata)
        ) or a.nodata == b.nodata
    return True


def _raster_paths(path: str | Path) -> tuple[Path, Path]:
    base = str(path)
    return Path(base + ".json"), Path(base + ".bin")


def write_raster(raster: Raster, path: str | Path) -> None:
    """Write the two-file native raster pair at ``path`` (+ .json / .bin)."""
    header_path, payload_path = _raster_paths(path)
    header = {
        "format": RASTER_FORMAT,
        "format_version": RASTER_FORMAT_VERSION,
        "width": raster.width,
        "height": raster.height,
        "band_count": raster.band_count,
        "band_names": list(raster.band_names) if raster.band_names else None,
        "transform": {
            "origin_x": raster.transform.origin_x,
            "origin_y": raster.transform.origin_y,
            "pixel_width": raster.transform.pixel_width,
            "pixel_height": raster.transform.pixel_height,
        },
        "nodata": encode_nodata(raster.nodata),
        "dtype": "float32",
        "byte_order": "little",
        "layout": "band-row-col",
    }
    payload = np.ascontiguousarray(raster.samples, dtype="<f4").tobytes()
    atomic_write_bytes(payload_path, payload)
    atomic_write_json(header_path, header)


def read_raster(path: str | Path) -> Raster:
    header_path, payload_path = _raster_paths(path)
    if not header_path.exists():
        raise FileNotFoundError(f"missing raster header {header_path}")
    if not payload_path.exists():
        raise FileNotFoundError(f"missing raster payload {payload_path}")
    header = read_json(header_path)
    for key in ("format", "width", "height", "band_count", "transform", "dtype"):
        if key not in header:
            raise ValueError(f"malformed raster header {header_path}: missing {key!r}")
    if header["format"] != RASTER_FORMAT:
        raise ValueError(f"unrecognized raster format {header['format']!r}")
    if header.get("format_version") != RASTER_FORMAT_VERSION:
        raise ValueError(
            f"unsupported raster format version {header.get('format_version')!r}"
        )
    if header["dtype"] != "float32":
        raise ValueError(f"unsupported raster dtype {header['dtype']!r}")
    width, height, bands = header["width"], header["height"], header["band_count"]
    payload = payload_path.read_bytes()
    expected = bands * height * width * 4
    if len(payload) != expected:
        raise ValueError(
            f"band/sample mismatch in {payload_path}: header declares "
            f"{bands}x{height}x{width} float32 ({expected} bytes) but payload "
            f"holds {len(payload)} bytes"
        )
    samples = np.frombuffer(payload, dtype="<f4").reshape(bands, height, width).copy()
    t = header["transform"]
    transform = GeoTransform(
        t["origin_x"], t["origin_y"], t["pixel_width"], t["pixel_height"]
    )
    names = header.get("band_names")
    return Raster(
        samples,
        transform,
        nodata=decode_nodata(header.get("nodata")),
        band_names=tuple(names) if names else None,
    )


# ---------------------------------------------------------------------------
# polygon annotations
# ---------------------------------------------------------------------------


@dataclass
class PolygonAnnotation:
    """A polygon with an exterior ring, optional holes, and a class label.

    Rings are closed (first vertex repeated at the end) and need at least
    three distinct vertices. Full self-intersection checks run at load time
    in :func:`read_annotations`, not here, so constructed geometry stays cheap.
    """

    exterior: Ring
    holes: tuple[Ring, ...] = ()
    label: str = "dump"

    def __post_init__(self):
        self.exterior = _normalize_ring(self.exterior)
        self.holes = tuple(_normalize_ring(h) for h in self.holes)

    def rings(self) -> tuple[Ring, ...]:
        return (self.exterior, *self.holes)

    def area(self) -> float:
        """Unsigned area of the exterior minus the holes (shoelace)."""
        total = abs(_signed_area(self.exterior))
        for hole in self.holes:
            total -= abs(_signed_area(hole))
        return total


def _coord(value) -> float:
    """float(value), except that an integer too large for a float becomes
    +-inf, as a float literal of that size parses (and is then rejected as
    non-finite where rings are validated)."""
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _normalize_ring(ring) -> Ring:
    try:
        pts = [(float(x), float(y)) for x, y in ring]
    except OverflowError:
        pts = [(_coord(x), _coord(y)) for x, y in ring]
    if len(pts) >= 2 and pts[0] == pts[-1]:
        pts = pts[:-1]
    # drop consecutive duplicates; they add zero-length segments
    deduped = [pts[0]] if pts else []
    for p in pts[1:]:
        if p != deduped[-1]:
            deduped.append(p)
    if len(deduped) >= 2 and deduped[0] == deduped[-1]:
        deduped.pop()
    if len(deduped) < 3:
        raise ValueError(f"ring needs >= 3 distinct vertices, got {len(deduped)}")
    return (*deduped, deduped[0])


def _signed_area(ring: Ring) -> float:
    s = 0.0
    for (x1, y1), (x2, y2) in zip(ring[:-1], ring[1:]):
        s += x1 * y2 - x2 * y1
    return 0.5 * s


def _orient(a: Point, b: Point, c: Point) -> float:
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def _on_segment(a: Point, b: Point, p: Point) -> bool:
    return (
        min(a[0], b[0]) <= p[0] <= max(a[0], b[0])
        and min(a[1], b[1]) <= p[1] <= max(a[1], b[1])
    )


def _segments_touch(p1: Point, p2: Point, p3: Point, p4: Point) -> bool:
    """True when segment p1p2 intersects p3p4 anywhere, endpoints included."""
    d1 = _orient(p3, p4, p1)
    d2 = _orient(p3, p4, p2)
    d3 = _orient(p1, p2, p3)
    d4 = _orient(p1, p2, p4)
    if ((d1 > 0 and d2 < 0) or (d1 < 0 and d2 > 0)) and (
        (d3 > 0 and d4 < 0) or (d3 < 0 and d4 > 0)
    ):
        return True
    if d1 == 0 and _on_segment(p3, p4, p1):
        return True
    if d2 == 0 and _on_segment(p3, p4, p2):
        return True
    if d3 == 0 and _on_segment(p1, p2, p3):
        return True
    if d4 == 0 and _on_segment(p1, p2, p4):
        return True
    return False


def _ring_defect(ring: Ring) -> str | None:
    """Name the first defect that makes a closed ring non-simple, or None.

    Segment ``i`` runs from vertex ``i`` to vertex ``i + 1``.
    """
    n = len(ring) - 1  # closed ring: n segments
    # A vertex where the ring doubles back along its previous segment:
    # collinear neighbours with opposite directions. Adjacent segments are
    # not tested against each other below, so on a three-segment ring
    # nothing else would catch it.
    for k in range(n):
        a, b, c = ring[k - 1 if k else n - 1], ring[k], ring[k + 1]
        if _orient(a, b, c) == 0 and (
            (b[0] - a[0]) * (c[0] - b[0]) + (b[1] - a[1]) * (c[1] - b[1]) < 0
        ):
            return f"folds back at vertex {k}"
    # Broad phase: sweep the segments in order of their low end along one
    # axis, keeping the earlier ones whose high end reaches it. Touching
    # segments share a point, so their closed bounding boxes overlap; only
    # such pairs go on to the exact test. The sweep runs along the axis on
    # which the segments are shorter in total, since long extents along it
    # keep many segments active at once (a comb's teeth leaving one spine).
    x0, x1, y0, y1 = [], [], [], []
    for (ax, ay), (bx, by) in zip(ring[:-1], ring[1:]):
        x0.append(min(ax, bx))
        x1.append(max(ax, bx))
        y0.append(min(ay, by))
        y1.append(max(ay, by))
    lo, hi, cross_lo, cross_hi = x0, x1, y0, y1
    if sum(map(sub, y1, y0)) < sum(map(sub, x1, x0)):
        lo, hi, cross_lo, cross_hi = y0, y1, x0, x1
    active: list[int] = []
    for s in sorted(range(n), key=lo.__getitem__):
        start, c0, c1 = lo[s], cross_lo[s], cross_hi[s]
        still = []
        for t in active:
            if hi[t] < start:
                continue
            still.append(t)
            if (
                cross_lo[t] <= c1
                and c0 <= cross_hi[t]
                and abs(s - t) not in (1, n - 1)  # adjacent: share an endpoint
                and _segments_touch(ring[t], ring[t + 1], ring[s], ring[s + 1])
            ):
                return f"segments {min(s, t)} and {max(s, t)} touch"
        still.append(s)
        active = still
    return None


def ring_is_simple(ring: Ring) -> bool:
    """Check that no two non-adjacent segments of a closed ring touch or
    cross, and that the ring never folds back along its previous segment.

    A sort-and-sweep over the segments' extents along x or y, whichever
    they cover less of in total, sends only pairs whose closed bounding
    boxes overlap to the exact predicate (``_segments_touch``), so the
    verdict is that of testing every pair, in near-linear time on rings
    whose segments spread out along the sweep axis; many segments sharing
    one range on both axes still cost a range check per pair.
    """
    return _ring_defect(ring) is None


# Rings of at most this many segments are validated together, one broadcast
# per segment count; longer rings go through ring_is_simple's sweep.
_BATCH_SEGMENTS = 16


def _short_ring_defects(rings: np.ndarray) -> np.ndarray:
    """Per ring of a [ring, n + 1, 2] stack of closed n-segment rings: True
    where a coordinate is not finite or ring_is_simple would reject it.

    The same float64 formulas as ``_orient`` and ``_segments_touch``, over
    every non-adjacent segment pair whose closed bounding boxes overlap
    (the pairs the sweep tests).
    """
    n = rings.shape[1] - 1
    x, y = rings[..., 0], rings[..., 1]
    bad = ~np.isfinite(rings).all(axis=(1, 2))
    # overflow and inf - inf yield inf and NaN here, as in Python floats
    with np.errstate(all="ignore"):
        # fold-back at vertex k (b): a, b, c collinear and b - a, c - b opposed
        prev = np.r_[n - 1, 0 : n - 1]
        ax, ay, bx, by, cx, cy = x[:, prev], y[:, prev], x[:, :n], y[:, :n], x[:, 1:], y[:, 1:]
        ux, uy = bx - ax, by - ay
        turn = ux * (cy - ay) - uy * (cx - ax)
        bad |= ((turn == 0) & (ux * (cx - bx) + uy * (cy - by) < 0)).any(axis=1)
        s, t = np.triu_indices(n, 2)
        keep = t - s != n - 1  # segments 0 and n - 1 are adjacent
        s, t = s[keep], t[keep]
        if len(s):
            bad |= _pairs_touch(x[:, s], y[:, s], x[:, s + 1], y[:, s + 1],
                                x[:, t], y[:, t], x[:, t + 1], y[:, t + 1]).any(axis=1)
    return bad


def _pairs_touch(x1, y1, x2, y2, x3, y3, x4, y4) -> np.ndarray:
    """``_segments_touch`` elementwise, on pairs whose boxes overlap."""

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


def _first_bad_ring(rings: list[Ring]) -> int | None:
    """Index of the first ring that has a non-finite coordinate or is not
    simple, or None."""
    segments = np.fromiter(map(len, rings), np.intp, len(rings)) - 1
    first = len(rings)
    short = np.flatnonzero(segments <= _BATCH_SEGMENTS)
    if len(short):
        counts = segments[short]
        picked = rings if len(short) == len(rings) else map(rings.__getitem__, short.tolist())
        flat = chain.from_iterable(chain.from_iterable(picked))
        coords = np.fromiter(flat, np.float64, 2 * int((counts + 1).sum())).reshape(-1, 2)
        starts = np.cumsum(counts + 1) - (counts + 1)
        for n in np.unique(counts).tolist():
            members = np.flatnonzero(counts == n)
            step = max(1, 2**13 // n**2)  # bounds the pair arrays to ~2**13 cells
            for lo in range(0, len(members), step):
                rows = members[lo : lo + step]
                if short[rows[0]] >= first:
                    break
                bad = _short_ring_defects(coords[starts[rows, None] + np.arange(n + 1)])
                if bad.any():
                    first = min(first, int(short[rows[bad.argmax()]]))
                    break
    for i in np.flatnonzero(segments > _BATCH_SEGMENTS).tolist():
        if i >= first:
            break
        # ring_is_simple stays the entry point that perfbench/spans.py times
        if not all(map(math.isfinite, chain.from_iterable(rings[i]))) or not ring_is_simple(rings[i]):
            return i
    return first if first < len(rings) else None


def _polygon_parts(doc: dict):
    """Each feature of a FeatureCollection in file order: for every polygon
    part (a Polygon has one) ``(feature index, part index or None, label,
    coordinate rings)``, and None for a feature of another type."""
    for idx, feature in enumerate(doc.get("features", [])):
        geom = feature.get("geometry") or {}
        props = feature.get("properties") or {}
        label = str(props.get("label", "dump"))
        gtype = geom.get("type")
        if gtype == "Polygon":
            yield idx, None, label, geom["coordinates"]
        elif gtype == "MultiPolygon":
            for p, rings in enumerate(geom["coordinates"]):
                yield idx, p, label, rings
        else:
            yield None


def _check_rings(path: Path, polygons: list[PolygonAnnotation], doc: dict | None) -> None:
    """Raise for the first non-finite or non-simple ring of ``polygons``,
    naming its feature and ring and, for a non-finite one, the vertex as the
    file gives it (``doc``, read again when None)."""
    bad = _first_bad_ring([ring for poly in polygons for ring in poly.rings()])
    if bad is None:
        return
    for k, poly in enumerate(polygons):
        if bad <= len(poly.holes):
            break
        bad -= len(poly.holes) + 1
    parts = (part for part in _polygon_parts(doc or read_json(path)) if part)
    feature, p, _, raws = next(islice(parts, k, None))
    source = f"{path.name} feature {feature}" + ("" if p is None else f" part {p}")
    name = "exterior" if bad == 0 else f"hole {bad - 1}"
    ring, raw = poly.rings()[bad], raws[bad]
    if not all(map(math.isfinite, chain.from_iterable(ring))):
        v = next(v for v, xy in enumerate(raw) if not all(math.isfinite(_coord(c)) for c in xy))
        raise ValueError(f"non-finite vertex in {source}, {name}: vertex {v} is {raw[v]}")
    raise ValueError(f"self-intersecting ring in {source}, {name}: {_ring_defect(ring)}")


def read_annotations(path: str | Path) -> list[PolygonAnnotation]:
    """Load polygons from a GeoJSON FeatureCollection.

    MultiPolygons are split into one annotation per part. Features with any
    other geometry type are skipped; a single warning reports how many.
    Every ring must be finite and simple; the first one in file order that
    is not is reported with its feature and ring.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"missing annotation file {path}")
    doc = read_json(path)
    if not isinstance(doc, dict) or doc.get("type") != "FeatureCollection":
        raise ValueError(f"{path} is not a GeoJSON FeatureCollection")
    polygons: list[PolygonAnnotation] = []
    skipped = 0
    try:
        with gc_paused():
            for part in _polygon_parts(doc):
                if part is None:
                    skipped += 1
                    continue
                rings = part[3]
                polygons.append(PolygonAnnotation(rings[0], tuple(rings[1:]), label=part[2]))
    except Exception:
        # a bad ring before the malformed feature comes first in file order
        _check_rings(path, polygons, doc)
        raise
    # the parsed document is the read's largest object: drop it before the
    # checks, which reread the file only to word an error
    del doc
    _check_rings(path, polygons, None)
    if skipped:
        warnings.warn(
            f"skipped {skipped} non-polygon feature(s) in {path.name}", stacklevel=2
        )
    return polygons


def _ring_coords(ring: Ring) -> list[list[float]]:
    return [[x, y] for x, y in ring]


def write_annotations(polygons: list[PolygonAnnotation], path: str | Path) -> None:
    """Write polygons as a GeoJSON FeatureCollection (atomic replace)."""
    features = []
    for poly in polygons:
        features.append(
            {
                "type": "Feature",
                "geometry": {
                    "type": "Polygon",
                    "coordinates": [_ring_coords(r) for r in poly.rings()],
                },
                "properties": {"label": poly.label},
            }
        )
    atomic_write_json(path, {"type": "FeatureCollection", "features": features})

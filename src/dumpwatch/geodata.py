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
from itertools import chain
from operator import sub
from pathlib import Path

import numpy as np

from ._fileio import (
    atomic_write_bytes,
    atomic_write_json,
    decode_nodata,
    encode_nodata,
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


def _normalize_ring(ring) -> Ring:
    pts = [(float(x), float(y)) for x, y in ring]
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


def _validated_polygon(rings: list, label: str, source: str) -> PolygonAnnotation:
    poly = PolygonAnnotation(rings[0], tuple(rings[1:]), label=label)
    names = ("exterior", *(f"hole {j}" for j in range(len(poly.holes))))
    for name, raw, ring in zip(names, rings, poly.rings()):
        if not all(map(math.isfinite, chain.from_iterable(raw))):
            k = next(k for k, v in enumerate(raw) if not all(map(math.isfinite, v)))
            raise ValueError(
                f"non-finite vertex in {source}, {name}: vertex {k} is {raw[k]}"
            )
        # ring_is_simple stays the entry point that perfbench/spans.py times;
        # the defect is looked up again only for the error message
        if not ring_is_simple(ring):
            raise ValueError(
                f"self-intersecting ring in {source}, {name}: {_ring_defect(ring)}"
            )
    return poly


def read_annotations(path: str | Path) -> list[PolygonAnnotation]:
    """Load polygons from a GeoJSON FeatureCollection.

    MultiPolygons are split into one annotation per part. Features with any
    other geometry type are skipped; a single warning reports how many.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"missing annotation file {path}")
    doc = read_json(path)
    if not isinstance(doc, dict) or doc.get("type") != "FeatureCollection":
        raise ValueError(f"{path} is not a GeoJSON FeatureCollection")
    polygons: list[PolygonAnnotation] = []
    skipped = 0
    for idx, feature in enumerate(doc.get("features", [])):
        geom = feature.get("geometry") or {}
        props = feature.get("properties") or {}
        label = str(props.get("label", "dump"))
        gtype = geom.get("type")
        where = f"{path.name} feature {idx}"
        if gtype == "Polygon":
            polygons.append(_validated_polygon(geom["coordinates"], label, where))
        elif gtype == "MultiPolygon":
            for p, part in enumerate(geom["coordinates"]):
                polygons.append(_validated_polygon(part, label, f"{where} part {p}"))
        else:
            skipped += 1
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

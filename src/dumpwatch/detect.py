"""Tiled inference and raster-to-vector post-processing.

Probability maps come from sliding a trained model over overlapping tiles
and averaging overlapping predictions. Post-processing thresholds the map,
labels connected components, traces each component's exact pixel-boundary
outline into world-coordinate polygons (holes included), filters by area,
and exports GeoJSON. The tracing is exact: rasterizing the resulting
polygons with the pixel-center rule reproduces the thresholded mask.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import dataset as ds
from . import numerics, unet
from ._fileio import atomic_write_json
from .dataset import NormalizationStats
from .geodata import GeoTransform, PolygonAnnotation, Raster, pixel_to_world
from .numerics import Tensor
from .unet import ParameterSet, UNetConfig


@dataclass(frozen=True)
class InferenceConfig:
    tile_size: int = 256
    overlap: int = 32
    batch_size: int = 8

    def __post_init__(self):
        if self.tile_size < 1:
            raise ValueError(f"tile_size must be >= 1, got {self.tile_size}")
        if not (0 <= self.overlap < self.tile_size):
            raise ValueError(
                f"overlap must be in [0, tile_size), got {self.overlap}"
            )
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")


@dataclass(frozen=True)
class PostprocConfig:
    probability_threshold: float = 0.5
    min_area: float = 100.0  # square meters; one 10 m pixel
    connectivity: int = 8

    def __post_init__(self):
        if not (0 < self.probability_threshold < 1):
            raise ValueError(
                f"probability_threshold must be in (0, 1), got "
                f"{self.probability_threshold}"
            )
        if self.min_area < 0:
            raise ValueError(f"min_area must be >= 0, got {self.min_area}")
        if self.connectivity not in (4, 8):
            raise ValueError(f"connectivity must be 4 or 8, got {self.connectivity}")


@dataclass
class Detection:
    """One connected region: exact outline(s), pixel count, area, mean prob.

    ``polygons`` usually holds a single part; components whose pixels touch
    only at corners split into one simple polygon per touching square group,
    exported together as a MultiPolygon.
    """

    polygons: list[PolygonAnnotation]
    pixel_count: int
    area: float
    mean_probability: float


def _tile_origins(extent: int, tile: int, overlap: int) -> list[int]:
    if extent <= tile:
        return [0]
    step = tile - overlap
    origins = list(range(0, extent - tile + 1, step))
    if origins[-1] != extent - tile:
        origins.append(extent - tile)
    return origins


def predict_raster(
    params: ParameterSet,
    config: UNetConfig,
    raster: Raster,
    stats: NormalizationStats | None = None,
    icfg: InferenceConfig = InferenceConfig(),
) -> Raster:
    """Per-pixel probability map over the whole raster.

    Tiles are normalized with the checkpoint stats, edge tiles are
    reflection-padded up to tile_size, and overlapping predictions are
    averaged. Pixels with nodata in any band come back as NaN.
    """
    if raster.band_count != config.in_channels:
        raise ValueError(
            f"model expects {config.in_channels} bands, raster has "
            f"{raster.band_count}"
        )
    if stats is not None:
        if stats.band_names and raster.band_names and stats.band_names != raster.band_names:
            raise ValueError(
                f"band mismatch with checkpoint: raster {raster.band_names} vs "
                f"stats {stats.band_names}"
            )
        if len(stats.means) != raster.band_count:
            raise ValueError(
                f"stats cover {len(stats.means)} bands, raster has "
                f"{raster.band_count}"
            )
    tile = icfg.tile_size
    if tile % config.pool_factor:
        raise ValueError(
            f"tile_size {tile} must be divisible by 2**depth = {config.pool_factor}"
        )
    valid = raster.valid_mask()
    data = raster.samples.astype(np.float32, copy=True)
    if stats is not None:
        means = np.asarray(stats.means, dtype=np.float32)[:, None, None]
        stds = np.asarray(stats.stds, dtype=np.float32)[:, None, None]
        data = (data - means) / stds
    data[:, ~valid] = 0.0  # nodata cells forward as the band mean

    height, width = raster.height, raster.width
    prob_sum = np.zeros((height, width), dtype=np.float64)
    count = np.zeros((height, width), dtype=np.int32)
    tiles = [
        (r0, c0)
        for r0 in _tile_origins(height, tile, icfg.overlap)
        for c0 in _tile_origins(width, tile, icfg.overlap)
    ]
    with numerics.no_grad():
        for start in range(0, len(tiles), icfg.batch_size):
            chunk = tiles[start : start + icfg.batch_size]
            windows = []
            for r0, c0 in chunk:
                win = data[:, r0 : r0 + tile, c0 : c0 + tile]
                wh, ww = win.shape[1:]
                if (wh, ww) != (tile, tile):
                    win = ds.reflect_pad(win, ((0, tile - wh), (0, tile - ww)))
                windows.append(win)
            logits = unet.forward(params, config, Tensor(np.stack(windows)))
            probs = numerics.sigmoid_values(logits.data)[:, 0]
            for j, (r0, c0) in enumerate(chunk):
                wh = min(tile, height - r0)
                ww = min(tile, width - c0)
                prob_sum[r0 : r0 + wh, c0 : c0 + ww] += probs[j, :wh, :ww]
                count[r0 : r0 + wh, c0 : c0 + ww] += 1
    prob = (prob_sum / count).astype(np.float32)
    prob[~valid] = np.nan
    return Raster(
        prob[None],
        raster.transform,
        nodata=math.nan,
        band_names=("probability",),
    )


def threshold_probability(prob: Raster, threshold: float) -> Raster:
    """Binary raster: 1 where probability >= threshold, 0 elsewhere/nodata."""
    if not (0 < threshold < 1):
        raise ValueError(f"threshold must be in (0, 1), got {threshold}")
    grid = prob.samples[0]
    with np.errstate(invalid="ignore"):
        binary = (grid >= threshold) & prob.valid_mask()
    return Raster(
        binary.astype(np.float32)[None],
        prob.transform,
        nodata=None,
        band_names=("mask",),
    )


def connected_components(
    binary: Raster, connectivity: int = 8
) -> tuple[np.ndarray, np.ndarray]:
    """Label foreground components; labels follow first-encounter row-major
    order. Returns (labels [row, col] int32, sizes indexed by label-1)."""
    if connectivity not in (4, 8):
        raise ValueError(f"connectivity must be 4 or 8, got {connectivity}")
    # scipy.ndimage is slow to import and predict never needs it (see
    # dataset.generate_synthetic)
    from scipy import ndimage

    structure = ndimage.generate_binary_structure(2, 2 if connectivity == 8 else 1)
    labels, count = ndimage.label(binary.samples[0] != 0, structure, output=np.int32)
    sizes = np.bincount(labels.ravel(), minlength=count + 1)[1:]
    return labels, sizes


# ---------------------------------------------------------------------------
# exact boundary tracing
# ---------------------------------------------------------------------------

Vertex = tuple[int, int]  # (col, row) pixel-corner coordinates


def _split_at_repeats(walk: list[Vertex]) -> list[list[Vertex]]:
    """Break a closed edge walk into vertex-simple closed rings.

    A walk can legitimately pass through a pinch corner twice (the local
    turn rule cannot know whether the two passes belong to one ring or
    two; that depends on how the boundary arcs connect elsewhere). Each
    time a vertex repeats, the loop formed since its previous visit is
    carved out as its own ring. The combined edge set is untouched, so
    orientation signs and rasterization behaviour are preserved.
    """
    rings: list[list[Vertex]] = []
    stack: list[Vertex] = []
    index: dict[Vertex, int] = {}
    for v in walk:
        if v in index:
            i = index[v]
            rings.append(stack[i:] + [v])
            for u in stack[i + 1 :]:
                del index[u]
            del stack[i + 1 :]
        else:
            index[v] = len(stack)
            stack.append(v)
    return rings


def _trace_rings(pixels: np.ndarray, in_comp: set) -> list[list[Vertex]]:
    """Closed corner-coordinate rings bounding a set of unit pixel squares.

    Each exposed pixel side becomes a directed edge (interior kept on a
    consistent side); edges are linked into closed walks, taking the
    sharper turn at pinch corners, and any walk that still revisits a
    corner is split there so every returned ring is simple.
    """
    out_edges: dict[Vertex, list[Vertex]] = {}

    def add(a: Vertex, b: Vertex) -> None:
        out_edges.setdefault(a, []).append(b)

    for r, c in pixels:
        r, c = int(r), int(c)
        if (r - 1, c) not in in_comp:
            add((c, r), (c + 1, r))
        if (r, c + 1) not in in_comp:
            add((c + 1, r), (c + 1, r + 1))
        if (r + 1, c) not in in_comp:
            add((c + 1, r + 1), (c, r + 1))
        if (r, c - 1) not in in_comp:
            add((c, r + 1), (c, r))
    for v in out_edges:
        out_edges[v].sort()

    rings: list[list[Vertex]] = []
    for start in sorted(out_edges):
        while out_edges[start]:
            ring = [start]
            current = start
            prev_dir: tuple[int, int] | None = None
            while True:
                cands = out_edges[current]
                pick = 0
                if prev_dir is not None and len(cands) > 1:
                    for i, cand in enumerate(cands):
                        d = (cand[0] - current[0], cand[1] - current[1])
                        if prev_dir[0] * d[1] - prev_dir[1] * d[0] > 0:
                            pick = i
                            break
                nxt = cands.pop(pick)
                prev_dir = (nxt[0] - current[0], nxt[1] - current[1])
                ring.append(nxt)
                current = nxt
                if current == start:
                    break
            rings.extend(_split_at_repeats(ring))
    return rings


def _collapse_collinear(ring: list[Vertex]) -> list[Vertex]:
    pts = ring[:-1]
    n = len(pts)
    kept = []
    for i in range(n):
        prev, cur, nxt = pts[(i - 1) % n], pts[i], pts[(i + 1) % n]
        d1 = (cur[0] - prev[0], cur[1] - prev[1])
        d2 = (nxt[0] - cur[0], nxt[1] - cur[1])
        if d1[0] * d2[1] - d1[1] * d2[0] != 0:
            kept.append(cur)
    return [*kept, kept[0]]


def _ring_signed_area2(ring: list[Vertex]) -> int:
    s = 0
    for (x1, y1), (x2, y2) in zip(ring[:-1], ring[1:]):
        s += x1 * y2 - x2 * y1
    return s


def _point_in_ring(px: float, py: float, ring: list[Vertex]) -> bool:
    crossings = 0
    for (x1, y1), (x2, y2) in zip(ring[:-1], ring[1:]):
        if (y1 > py) != (y2 > py):
            if x1 + (py - y1) * (x2 - x1) / (y2 - y1) > px:
                crossings += 1
    return crossings % 2 == 1


def _to_world_ring(ring: list[Vertex], transform: GeoTransform) -> tuple:
    # reversed so exteriors run counterclockwise in world coordinates
    return tuple(pixel_to_world(transform, c, r) for c, r in reversed(ring))


def polygonize(
    labels: np.ndarray,
    transform: GeoTransform,
    probabilities: np.ndarray | None = None,
) -> list[Detection]:
    """One Detection per label, outlining its pixel squares exactly.

    ``probabilities`` (same grid as labels) feeds each detection's mean
    probability; without it the field is NaN. Area is pixel count times the
    pixel area in world units.
    """
    labels = np.asarray(labels)
    if labels.ndim != 2:
        raise ValueError("labels must be a 2-D array")
    count = int(labels.max()) if labels.size else 0
    pixel_area = transform.pixel_width * transform.pixel_height
    mean_prob = np.full(count + 1, math.nan)
    if probabilities is not None:
        probabilities = np.asarray(probabilities)
        if probabilities.shape != labels.shape:
            raise ValueError("probabilities grid must match labels")
        flat = labels.ravel()
        sums = np.bincount(flat, weights=probabilities.ravel(), minlength=count + 1)
        counts = np.bincount(flat, minlength=count + 1)
        with np.errstate(invalid="ignore"):
            mean_prob = sums / np.maximum(counts, 1)
    from scipy import ndimage  # see connected_components

    detections: list[Detection] = []
    boxes = ndimage.find_objects(labels) if count else []
    for label, box in enumerate(boxes, start=1):
        # a label absent from the grid has no box; an empty one yields no pixels
        rows, cols = box or (slice(0, 0), slice(0, 0))
        pixels = np.argwhere(labels[rows, cols] == label) + (rows.start, cols.start)
        in_comp = {(int(r), int(c)) for r, c in pixels}
        rings = [_collapse_collinear(r) for r in _trace_rings(pixels, in_comp)]
        exteriors: list[tuple[list[Vertex], int]] = []
        holes: list[list[Vertex]] = []
        for ring in rings:
            area2 = _ring_signed_area2(ring)
            if area2 > 0:
                exteriors.append((ring, area2))
            else:
                holes.append(ring)
        grouped: list[tuple[list[Vertex], list[list[Vertex]]]] = [
            (ext, []) for ext, _ in exteriors
        ]
        for hole in holes:
            if len(grouped) == 1:
                grouped[0][1].append(hole)
                continue
            # representative cell center just inside the hole's top edge
            c_v, r_v = min(hole[:-1], key=lambda v: (v[1], v[0]))
            px, py = c_v + 0.5, r_v + 0.5
            containing = [
                i
                for i, (ext, area2) in enumerate(exteriors)
                if _point_in_ring(px, py, ext)
            ]
            best = (
                min(containing, key=lambda i: exteriors[i][1]) if containing else 0
            )
            grouped[best][1].append(hole)
        polygons = [
            PolygonAnnotation(
                _to_world_ring(ext, transform),
                tuple(_to_world_ring(h, transform) for h in hole_list),
                label="detection",
            )
            for ext, hole_list in grouped
        ]
        detections.append(
            Detection(
                polygons=polygons,
                pixel_count=len(pixels),
                area=len(pixels) * pixel_area,
                mean_probability=float(mean_prob[label]),
            )
        )
    return detections


def filter_detections(
    detections: list[Detection], pcfg: PostprocConfig
) -> list[Detection]:
    """Keep detections whose area meets min_area (boundary included)."""
    return [d for d in detections if d.area >= pcfg.min_area]


def export_geojson(detections: list[Detection], path) -> None:
    """Write detections as a GeoJSON FeatureCollection (atomic replace)."""
    features = []
    for det in detections:
        parts = [
            [[[x, y] for x, y in ring] for ring in poly.rings()]
            for poly in det.polygons
        ]
        if len(parts) == 1:
            geometry = {"type": "Polygon", "coordinates": parts[0]}
        else:
            geometry = {"type": "MultiPolygon", "coordinates": parts}
        features.append(
            {
                "type": "Feature",
                "geometry": geometry,
                "properties": {
                    "area_m2": det.area,
                    "mean_probability": (
                        None
                        if math.isnan(det.mean_probability)
                        else det.mean_probability
                    ),
                    "pixel_count": det.pixel_count,
                },
            }
        )
    atomic_write_json(path, {"type": "FeatureCollection", "features": features})


def detections_from_binary(
    binary: Raster, prob: Raster, pcfg: PostprocConfig
) -> list[Detection]:
    """label -> polygonize -> area filter on an already thresholded raster."""
    labels, _ = connected_components(binary, pcfg.connectivity)
    detections = polygonize(labels, prob.transform, prob.samples[0])
    return filter_detections(detections, pcfg)

"""Tiled inference and raster-to-vector post-processing.

Probability maps come from sliding a trained model over overlapping tiles
and averaging overlapping predictions. Post-processing thresholds the map,
labels connected components, traces the exact pixel-boundary outline of
every component into world-coordinate polygons (holes included), filters
by area, and exports GeoJSON. The tracing is exact: rasterizing the
resulting polygons with the pixel-center rule reproduces the thresholded
mask. It runs over the whole label grid at once, in numpy: exposed pixel
sides are joined into straight runs, each run is linked to the next by a
sorted search, and rings are the cycles of that link. Python touches one
component at a time only to build its polygon objects, and to split and
group the rings of the few components whose outline passes a corner twice
or that touch themselves at corners.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import dataset as ds
from . import numerics, unet
from ._fileio import atomic_write_json, gc_paused
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

# Run directions as (dcol, drow), ordered as the end corners they reach from
# one start corner sort in (col, row) order: left, up, down, right.
_STEPS = np.array([(-1, 0), (0, -1), (0, 1), (1, 0)])
_RIGHT = 3
# _TURN[a, b]: at a pinch corner, a walk arriving along a leaves along b when
# the cross product a x b is positive (the sharper turn)
_TURN = _STEPS[:, None, 0] * _STEPS[None, :, 1] - _STEPS[:, None, 1] * _STEPS[None, :, 0] > 0


def _row_runs(side: np.ndarray, same: np.ndarray):
    """Row, first and last column of each maximal run of set cells along the
    rows of ``side`` whose neighbouring cells share a label (``same``)."""
    link = side[:, :-1] & side[:, 1:] & same
    first = side.copy()
    first[:, 1:] &= ~link
    last = side.copy()
    last[:, :-1] &= ~link
    row, c0 = np.nonzero(first)
    return row, c0, np.nonzero(last)[1]


def _boundary_runs(labels: np.ndarray):
    """Every component's boundary as straight runs of exposed pixel sides.

    A side is exposed where the 4-neighbour across it carries a different
    label (or lies off the grid). Sides are directed with the component on
    the same side of each: tops run right, right sides down, bottoms left,
    left sides up. Consecutive exposed sides of one label along one line
    join into a run, since the walk goes straight through the corner
    between them. Returns (label, start col, start row, end col, end row,
    direction index into _STEPS), one entry per run.
    """
    pad = np.pad(labels, 1)
    inner = pad[1:-1, 1:-1]
    fg = inner > 0
    same_row = inner[:, 1:] == inner[:, :-1]
    same_col = (inner[1:] == inner[:-1]).T
    r, a, b = _row_runs(fg & (inner != pad[:-2, 1:-1]), same_row)
    top = (r, a, a, r, b + 1, r, 3)
    r, a, b = _row_runs(fg & (inner != pad[2:, 1:-1]), same_row)
    bottom = (r, a, b + 1, r + 1, a, r + 1, 0)
    c, a, b = _row_runs((fg & (inner != pad[1:-1, 2:])).T, same_col)
    right = (a, c, c + 1, a, c + 1, b + 1, 2)
    c, a, b = _row_runs((fg & (inner != pad[1:-1, :-2])).T, same_col)
    left = (a, c, c, b + 1, c, a, 1)
    parts = (top, bottom, right, left)
    label = np.concatenate([inner[p[0], p[1]] for p in parts]).astype(np.int64)
    coords = [np.concatenate([p[k] for p in parts]).astype(np.int32) for k in range(2, 6)]
    direction = np.concatenate([np.full(len(p[0]), p[6], np.int8) for p in parts])
    return (label, *coords, direction)


def _cycles(succ: np.ndarray):
    """Each element's cycle under the permutation ``succ``, named by its least
    member, and its distance from that member along ``succ``.

    Both come by pointer doubling, so the rounds grow with the logarithm of
    the longest cycle: after a round of the first loop each element knows
    the least of the next 2**k elements, which is its cycle's least member
    once it agrees with its successor's.
    """
    idx = np.arange(len(succ), dtype=succ.dtype)
    head = np.minimum(idx, succ)
    hop = succ[succ]
    while (head[succ] != head).any():
        head = np.minimum(head, head[hop])
        hop = hop[hop]
    is_head = head == idx
    back = np.empty_like(succ)
    back[succ] = idx
    back[is_head] = idx[is_head]
    dist = (~is_head).astype(succ.dtype)
    while not is_head[back].all():
        dist += dist[back]
        back = back[back]
    return head, dist


def _trace(labels: np.ndarray):
    """Trace every component's rings at once.

    Runs are keyed by (label, start col, start row, direction), which
    orders them as (label, start corner, end corner) orders their first
    sides. A run continues with the run of its label leaving its end
    corner; where two leave it (a pinch), with the sharper turn. Rings are
    the cycles of that successor permutation, each starting at its least
    run, which leaves the ring's least corner, and the rings of one label
    come in the order of those runs. These are the rings, starts and order
    of walking each component's sides one at a time from its least
    remaining corner (``polygonize_oracle`` in the tests), without the
    corners such a walk passes straight through.

    Returns, per ring in that order, its label, whether it is an exterior
    and whether it passes a corner twice; and the rings' corners as flat
    (col, row) arrays with ring offsets, each ring from its least corner
    backwards along the walk.
    """
    label, sc, sr, ec, er, direction = _boundary_runs(labels)
    rows = labels.shape[0] + 1
    span = 4 * rows * (labels.shape[1] + 1)
    key = label * span + (sc.astype(np.int64) * rows + sr) * 4 + direction
    order = np.argsort(key)
    key, label, sc, sr, direction = (a[order] for a in (key, label, sc, sr, direction))
    target = label * span + (ec[order].astype(np.int64) * rows + er[order]) * 4
    del ec, er, order
    nxt = np.searchsorted(key, target).astype(np.int32)
    pinch = np.append(key, np.iinfo(np.int64).max)[nxt + 1] < target + 4
    succ = np.where(pinch & ~_TURN[direction, direction[nxt]], nxt + 1, nxt)
    del target, nxt, pinch
    head, dist = _cycles(succ)
    is_head = head == np.arange(len(head))
    heads = np.flatnonzero(is_head)
    ring = (np.cumsum(is_head, dtype=np.int32) - 1)[head]
    size = np.bincount(ring)
    # a ring passes a corner twice where both runs leaving a pinch are its own
    twice = (key[1:] >> 2 == key[:-1] >> 2) & (head[1:] == head[:-1])
    revisits = np.zeros(len(heads), dtype=bool)
    revisits[ring[1:][twice]] = True
    off = np.zeros(len(heads) + 1, dtype=np.int64)
    np.cumsum(size, out=off[1:])
    slot = off[ring] + (size[ring] - dist) % size[ring]
    col = np.empty_like(sc)
    row = np.empty_like(sr)
    col[slot], row[slot] = sc, sr
    # a simple ring leaves its least corner rightward when it is an exterior
    return label[heads], direction[heads] == _RIGHT, revisits, col, row, off


def _split_at_repeats(walk: list[Vertex]) -> list[list[Vertex]]:
    """Break a closed walk into vertex-simple closed rings.

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


def _grouped_polygons(
    rings: list[list[Vertex]], transform: GeoTransform
) -> list[PolygonAnnotation]:
    """Polygons of a component with several exteriors, or with a ring that
    had to be split where it passed a corner twice: each hole goes to the
    smallest exterior holding the centre of the cell inside its top-left
    corner."""
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
    if len(grouped) > 1 and holes:
        # (min col, min row, max col, max row); a point outside an
        # exterior's box is outside the exterior
        boxes = np.array([(*np.min(e, axis=0), *np.max(e, axis=0)) for e, _ in exteriors])
    for hole in holes:
        if len(grouped) == 1:
            grouped[0][1].append(hole)
            continue
        # representative cell center just inside the hole's top edge
        c_v, r_v = min(hole[:-1], key=lambda v: (v[1], v[0]))
        px, py = c_v + 0.5, r_v + 0.5
        near = (boxes[:, 0] < px) & (px < boxes[:, 2]) & (boxes[:, 1] < py) & (py < boxes[:, 3])
        containing = [
            i for i in np.flatnonzero(near).tolist() if _point_in_ring(px, py, exteriors[i][0])
        ]
        best = min(containing, key=lambda i: exteriors[i][1]) if containing else 0
        grouped[best][1].append(hole)
    return [
        PolygonAnnotation(
            _to_world_ring(ext, transform),
            tuple(_to_world_ring(h, transform) for h in hole_list),
            label="detection",
        )
        for ext, hole_list in grouped
    ]


def polygonize(
    labels: np.ndarray,
    transform: GeoTransform,
    probabilities: np.ndarray | None = None,
) -> list[Detection]:
    """One Detection per label, outlining its pixel squares exactly.

    Labels above 0 are components; a pixel side is part of an outline
    wherever the label across it differs, so two labels may touch.
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
    if count <= 0:
        return []
    pixels = np.bincount(labels[labels > 0], minlength=count + 1).tolist()
    ring_label, exterior, revisits, col, row, off = _trace(labels)
    # world corners in float64 as pixel_to_world computes them; each ring's
    # tuples are built from slices of these lists
    xs = (transform.origin_x + col.astype(np.int64) * transform.pixel_width).tolist()
    ys = (transform.origin_y - row.astype(np.int64) * transform.pixel_height).tolist()
    n_exteriors = np.bincount(ring_label[exterior], minlength=count + 1)
    simple = np.bincount(ring_label[revisits], minlength=count + 1) == 0
    # 1: one exterior, then its holes; 2: exteriors only, parts touching at
    # corners (or no rings: an absent label); 0: split and group in Python
    kind = np.where(
        simple & (n_exteriors == 1),
        1,
        np.where(simple & (n_exteriors == np.bincount(ring_label, minlength=count + 1)), 2, 0),
    )
    bounds = np.searchsorted(ring_label, np.arange(1, count + 2)).tolist()
    off = off.tolist()
    mean_prob = mean_prob.tolist()

    def world(j: int) -> tuple:
        ring = tuple(zip(xs[off[j] : off[j + 1]], ys[off[j] : off[j + 1]]))
        return ring + ring[:1]

    def corners(j: int) -> list[Vertex]:
        a, b = off[j], off[j + 1]
        back = list(zip(col[a:b].tolist(), row[a:b].tolist()))
        return [back[0], *back[:0:-1], back[0]]

    detections: list[Detection] = []
    with gc_paused():
        for label, layout in enumerate(kind.tolist()[1:], start=1):
            lo, hi = bounds[label - 1], bounds[label]
            if layout == 1:
                polygons = [
                    PolygonAnnotation(
                        world(lo), tuple(map(world, range(lo + 1, hi))), label="detection"
                    )
                ]
            elif layout == 2:
                polygons = [
                    PolygonAnnotation(world(j), label="detection") for j in range(lo, hi)
                ]
            else:
                rings: list[list[Vertex]] = []
                for j in range(lo, hi):
                    rings.extend(_split_at_repeats(corners(j)) if revisits[j] else [corners(j)])
                polygons = _grouped_polygons(rings, transform)
            detections.append(
                Detection(
                    polygons=polygons,
                    pixel_count=pixels[label],
                    area=pixels[label] * pixel_area,
                    mean_probability=mean_prob[label],
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
    with gc_paused():
        features = []
        for det in detections:
            # the JSON encoder writes the rings' tuples as lists
            parts = [poly.rings() for poly in det.polygons]
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

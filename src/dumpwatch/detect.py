"""Tiled inference and raster-to-vector post-processing.

Probability maps come from sliding a trained model over overlapping tiles
and averaging overlapping predictions. Inference streams the raster one
tile row at a time (``predict_rows``): each stripe of ``tile_size`` rows is
read once, stacked, normalized and cut into windows on its own, its windows
run in batches of their own, and rows are emitted as soon as no later tile
reaches them. What stays resident is one stripe, one batch of windows, and
the float64 sums and counts of the rows the next tile row overlaps.
Post-processing thresholds the map, labels connected components (a numpy
union-find over horizontal pixel runs, so post-processing needs no scipy),
drops the components under the minimum area from the label grid, traces
the exact pixel-boundary outline of every component left into
world-coordinate polygons (holes included), and exports GeoJSON. The
tracing is exact:
rasterizing the resulting polygons with the pixel-center rule reproduces
the thresholded mask. It runs over the whole label grid at once, in numpy:
exposed pixel sides are joined into straight runs, each run is linked to
the next by a sorted search, and rings are the cycles of that link, cut
where one passes a pinch corner twice. Each 4-connected part of a
component (found by the same run union-find as the labelling) has one
exterior ring, and the other rings along the part are its holes.
Detections stay columns (``Detections``: ``geodata.Polygons`` corner arrays
with ring and polygon offsets, plus detection offsets) from the tracer to
the GeoJSON text, which ``geodata.write_geojson`` joins from each distinct
coordinate formatted once; no Python object is built per ring.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import dataset as ds
from . import numerics, unet
from .dataset import NormalizationStats
from .geodata import (
    GeoTransform,
    Polygons,
    Raster,
    _float_text,
    write_geojson,
)
from .numerics import Tensor
from .unet import ParameterSet, UNetConfig


@dataclass(frozen=True)
class InferenceConfig:
    tile_size: int = 256
    overlap: int = 32
    batch_size: int = 8

    def __post_init__(self):
        if self.tile_size < 1:
            raise ValueError(f"tile_size: must be >= 1, got {self.tile_size}")
        if not (0 <= self.overlap < self.tile_size):
            raise ValueError(f"overlap: must be in [0, tile_size), got {self.overlap}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size: must be >= 1, got {self.batch_size}")


@dataclass(frozen=True)
class PostprocConfig:
    probability_threshold: float = 0.5
    min_area: float = 100.0  # square meters; one 10 m pixel
    connectivity: int = 8

    def __post_init__(self):
        # each message starts with its field, which a config error names
        if not (0 < self.probability_threshold < 1):
            raise ValueError(
                f"probability_threshold: must be in (0, 1), got {self.probability_threshold}"
            )
        if self.min_area < 0:
            raise ValueError(f"min_area: must be >= 0, got {self.min_area}")
        if self.connectivity not in (4, 8):
            raise ValueError(f"connectivity: must be 4 or 8, got {self.connectivity}")


@dataclass(eq=False)
class Detections:
    """Detections as columns: their ``polygons`` (``geodata.Polygons``, each
    labelled "detection"), ``offsets`` where each detection's polygons start
    (with the end as a last entry), and per detection its ``pixel_count``,
    ``area`` and ``mean_probability`` (NaN without probabilities).

    A detection usually holds a single polygon; a component whose pixels
    touch only at corners splits into one simple polygon per touching square
    group, exported together as a MultiPolygon.
    """

    polygons: Polygons
    offsets: np.ndarray
    pixel_count: np.ndarray
    area: np.ndarray
    mean_probability: np.ndarray

    def __len__(self) -> int:
        return len(self.pixel_count)


def tile_origins(extent: int, tile: int, overlap: int) -> list[int]:
    """Tile starts along an axis of ``extent`` pixels, ``tile - overlap``
    apart, the last flush with the end; one tile at 0 on a shorter axis."""
    if extent <= tile:
        return [0]
    step = tile - overlap
    origins = list(range(0, extent - tile + 1, step))
    if origins[-1] != extent - tile:
        origins.append(extent - tile)
    return origins


def predict_rows(
    params: ParameterSet,
    config: UNetConfig,
    source,
    stats: NormalizationStats | None = None,
    icfg: InferenceConfig = InferenceConfig(),
    bands: tuple[str, ...] | None = None,
):
    """Per-pixel probability rows over a raster, streamed one tile row at a
    time: an iterator of float32 [row, col] blocks that together cover the
    raster top to bottom, NaN where any band holds nodata.

    ``source`` is a ``Raster`` or a ``geodata.RasterReader``: anything with
    the raster's header attributes and ``read_rows``. Each tile row's stripe
    is read once; with ``bands``, it is first stacked to that band spec
    (``dataset.stack_bands``). Tiles are normalized with the checkpoint
    stats, edge tiles are reflection-padded up to tile_size, and overlapping
    predictions are averaged. Each block holds the rows above the next tile
    row's origin. The arguments are checked here, before any row is read.
    """
    names = tuple(bands) if bands else source.band_names
    band_count = len(names) if bands else source.band_count
    if band_count != config.in_channels:
        raise ValueError(
            f"model expects {config.in_channels} bands, raster has {band_count}"
        )
    if stats is not None:
        if stats.band_names and names and stats.band_names != names:
            raise ValueError(
                f"band mismatch with checkpoint: raster {names} vs "
                f"stats {stats.band_names}"
            )
        if len(stats.means) != band_count:
            raise ValueError(
                f"stats cover {len(stats.means)} bands, raster has {band_count}"
            )
    if icfg.tile_size % config.pool_factor:
        raise ValueError(
            f"tile_size {icfg.tile_size} must be divisible by 2**depth = "
            f"{config.pool_factor}"
        )
    return _stream_rows(params, config, source, stats, icfg, bands)


def _model_input(source, r0: int, r1: int, stats, bands):
    """Rows ``r0`` to ``r1`` as the model sees them, with their valid mask:
    stacked, normalized, and zeroed at nodata (which so forwards as the band
    mean)."""
    stripe = ds.stacked_rows(source, r0, r1, bands)
    valid = stripe.valid_mask()
    if stats is None:
        data = stripe.samples.copy()
    else:
        data = stripe.samples - np.asarray(stats.means, dtype=np.float32)[:, None, None]
        data /= np.asarray(stats.stds, dtype=np.float32)[:, None, None]
    data[:, ~valid] = 0.0
    return data, valid


def _stream_rows(params, config, source, stats, icfg, bands):
    """The tiling of ``predict_rows``, one tile row at a time. Its stripe is
    read once and its windows run in batches of at most ``batch_size``, each
    window added into the stripe's float64 sums and counts. The rows above
    the next tile row's origin are then final and emitted; the rest are
    carried into the next stripe. A window of nodata alone is not run: its
    pixels come out NaN whatever it adds. A window's forward does not depend
    on its batch (each conv runs per image, in blocks that ignore it), and
    every pixel still adds its tiles in row-major order, so the output is
    that of whole-raster inference. Held at once: one stripe, one batch of
    windows, and the carried rows."""
    tile, height, width = icfg.tile_size, source.height, source.width
    row_origins = tile_origins(height, tile, icfg.overlap)
    col_origins = tile_origins(width, tile, icfg.overlap)
    carry_sum = np.zeros((0, width), dtype=np.float64)
    carry_count = np.zeros((0, width), dtype=np.int32)
    for r0, end in zip(row_origins, [*row_origins[1:], height]):
        data, valid = _model_input(source, r0, min(r0 + tile, height), stats, bands)
        wh = len(valid)
        if wh < tile or width < tile:  # a side shorter than a tile: one window there
            data = ds.reflect_pad(data, ((0, max(tile - wh, 0)), (0, max(tile - width, 0))))
        prob_sum = np.zeros((wh, width), dtype=np.float64)
        count = np.zeros((wh, width), dtype=np.int32)
        prob_sum[: len(carry_sum)], count[: len(carry_sum)] = carry_sum, carry_count
        live = [c0 for c0 in col_origins if valid[:, c0 : c0 + tile].any()]
        for start in range(0, len(live), icfg.batch_size):
            chunk = live[start : start + icfg.batch_size]
            windows = np.stack([data[:, :, c0 : c0 + tile] for c0 in chunk])
            with numerics.no_grad():
                logits = unet.forward(params, config, Tensor(windows))
            for p, c0 in zip(numerics.sigmoid_values(logits.data)[:, 0], chunk):
                ww = min(tile, width - c0)
                prob_sum[:, c0 : c0 + ww] += p[:wh, :ww]
                count[:, c0 : c0 + ww] += 1
        del data  # freed before the next stripe is read
        n = end - r0
        with np.errstate(invalid="ignore"):  # 0 / 0 where no window ran: nodata
            prob = (prob_sum[:n] / count[:n]).astype(np.float32)
        prob[~valid[:n]] = np.nan
        carry_sum, carry_count = prob_sum[n:], count[n:]
        yield prob


def predict_raster(
    params: ParameterSet,
    config: UNetConfig,
    raster: Raster,
    stats: NormalizationStats | None = None,
    icfg: InferenceConfig = InferenceConfig(),
) -> Raster:
    """Per-pixel probability map over an in-memory raster: the rows of
    ``predict_rows`` gathered into one single-band raster."""
    rows = predict_rows(params, config, raster, stats, icfg)
    return Raster(
        np.concatenate(list(rows))[None],
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
    labels, count = _label_parts(binary.samples[0] != 0, connectivity)
    sizes = np.bincount(labels.ravel(), minlength=count + 1)[1:]
    return labels, sizes


def _label_parts(values: np.ndarray, connectivity: int) -> tuple[np.ndarray, int]:
    """Number the parts of a grid in first-encounter row-major order: pixels
    join when they are adjacent (4- or 8-connectivity) and hold the same
    non-zero value. Returns (parts [row, col] int32, 0 on zero pixels; part
    count).

    A union-find over the horizontal runs of equal non-zero pixels (after
    He, Chao & Suzuki, IEEE TIP 17(5), 2008), numbered in row-major order
    of their first pixels, in numpy rounds with no loop per pixel or run.
    Runs that touch across a row boundary form pairs: one per stretch of
    vertical contact, and under 8-connectivity one per diagonal contact
    that no vertical one already joins. Each round drops the pairs whose
    runs share a root, hooks every other pair's larger root under the least
    root it meets, then jumps pointers (``parent[parent]``) until every run
    points at its root. Roots only hook under smaller ones, so a part's
    root is its first run and ranking the roots numbers the parts as a
    row-major scan meets them. Hooking under the least root, not an
    arbitrary one, bounds the rounds by about twice the logarithm of the
    run count: a comb whose teeth hang from one spine would otherwise merge
    one tooth per round.
    """
    fg = values != 0
    same = values[:, 1:] == values[:, :-1]
    start = fg.copy()
    start[:, 1:] &= ~same
    run = (np.cumsum(start, dtype=np.int32) - 1).reshape(fg.shape)
    above = fg[1:] & (values[:-1] == values[1:])
    above[:, 1:] &= ~(above[:, :-1] & same[1:])  # the first column of each contact
    upper, lower = [run[:-1][above]], [run[1:][above]]
    if connectivity == 8:
        nw, ne, sw, se = values[:-1, :-1], values[:-1, 1:], values[1:, :-1], values[1:, 1:]
        down = fg[:-1, :-1] & (nw == se) & (ne != nw) & (sw != nw)
        up = fg[1:, :-1] & (sw == ne) & (se != sw) & (nw != sw)
        upper += [run[:-1, :-1][down], run[:-1, 1:][up]]
        lower += [run[1:, 1:][down], run[1:, :-1][up]]
    a, b = np.concatenate(upper), np.concatenate(lower)
    parent = np.arange(np.count_nonzero(start), dtype=np.int32)
    while True:
        ra, rb = parent[a], parent[b]
        cross = ra != rb
        if not cross.any():
            break
        a, b, ra, rb = a[cross], b[cross], ra[cross], rb[cross]
        np.minimum.at(parent, np.maximum(ra, rb), np.minimum(ra, rb))
        while not np.array_equal(grand := parent[parent], parent):
            parent = grand
    rank = np.cumsum(parent == np.arange(len(parent)), dtype=np.int32)
    parts = np.zeros(fg.shape, dtype=np.int32)
    parts[fg] = rank[parent][run[fg]]
    return parts, int(rank[-1]) if len(rank) else 0


# ---------------------------------------------------------------------------
# exact boundary tracing
# ---------------------------------------------------------------------------

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
    corner; where two leave it (a pinch), with the sharper turn. The walks
    are the cycles of that successor permutation, each from its least run,
    which leaves the walk's least corner, in the order of those runs. A
    walk that passes a pinch corner twice is cut there into two cycles by
    swapping the successors of the two runs arriving at the corner. Each
    ring starts at the run its walk reached first, and the rings of one
    walk come in the order they close. These are the rings, starts and
    order of walking each component's sides one at a time from its least
    remaining corner and carving out a ring each time the walk returns to
    a corner (``polygonize_oracle`` in the tests), without the corners such
    a walk passes straight through.

    Returns, per ring in that order, its label, whether it is an exterior,
    and the (row, col) of the pixel along its least run; and the rings'
    corners as flat (col, row) arrays with ring offsets, each ring from its
    start backwards along the walk.
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
    walk, step = _cycles(succ)
    pred = np.empty_like(succ)
    pred[succ] = np.arange(len(succ), dtype=succ.dtype)
    # runs k and k + 1 leave one pinch corner of a walk that passes it twice
    k = np.flatnonzero((key[1:] >> 2 == key[:-1] >> 2) & (walk[1:] == walk[:-1]))
    del key
    cycle, dist = walk, step
    if len(k):
        succ[pred[k]], succ[pred[k + 1]] = k + 1, k
        pred[k], pred[k + 1] = pred[k + 1], pred[k]
        cycle, dist = _cycles(succ)
    # a ring's first run is the one whose predecessor comes later in the
    # walk; a walk's rings are ordered by the step that closes them
    first = np.flatnonzero(step[pred] > step)
    first = first[np.lexsort((step[pred[first]], walk[first]))]
    ring = np.empty_like(succ)
    ring[cycle[first]] = np.arange(len(first), dtype=succ.dtype)
    ring = ring[cycle]
    size = np.bincount(ring)
    off = np.zeros(len(first) + 1, dtype=np.int64)
    np.cumsum(size, out=off[1:])
    slot = off[ring] + (dist[first][ring] - dist) % size[ring]
    col = np.empty_like(sc)
    row = np.empty_like(sr)
    col[slot], row[slot] = sc, sr
    # a simple ring leaves its least corner rightward, along the top of a
    # pixel, when it is an exterior, and downward, along the right side of
    # one, when it is a hole
    least = cycle[first]
    exterior = direction[least] == _RIGHT
    pixel_col = np.where(exterior, sc[least], sc[least] - 1)
    return label[first], exterior, sr[least], pixel_col, col, row, off


def polygonize(
    labels: np.ndarray,
    transform: GeoTransform,
    probabilities: np.ndarray | None = None,
) -> Detections:
    """One detection per label, outlining its pixel squares exactly, as
    columns.

    Labels above 0 are components; a pixel side is part of an outline
    wherever the label across it differs, so two labels may touch. Each
    4-connected part of a label has one exterior ring; every other ring
    bounding the part is one of its holes. A label's polygons come in the
    order of their exteriors, each with its holes in ring order. Corners
    are float64 world coordinates, as ``pixel_to_world`` computes them.
    ``probabilities`` (same grid as labels) feeds each detection's mean
    probability; without it the field is NaN. Area is pixel count times the
    pixel area in world units.
    """
    labels = np.asarray(labels)
    if labels.ndim != 2:
        raise ValueError("labels must be a 2-D array")
    count = max(int(labels.max()) if labels.size else 0, 0)
    mean_prob = np.full(count + 1, math.nan)
    labelled = labels > 0
    owners = labels[labelled]  # both sums run over labelled pixels only
    if probabilities is not None:
        probabilities = np.asarray(probabilities)
        if probabilities.shape != labels.shape:
            raise ValueError("probabilities grid must match labels")
        mean_prob = np.bincount(owners, weights=probabilities[labelled], minlength=count + 1)
    pixels = np.bincount(owners, minlength=count + 1)
    # freed before tracing: holding them raised the peak RSS of postprocess
    # on a 4096^2 raster by 18 MiB (numpy 2.4, glibc malloc)
    del labelled, owners
    # not in place: a weighted bincount over no pixel comes back int64
    with np.errstate(invalid="ignore"):
        mean_prob = mean_prob / np.maximum(pixels, 1)
    ring_label, exterior, prow, pcol, col, row, off = _trace(labels)
    # every ring runs along the pixels of one 4-connected part of its label,
    # and each part has one exterior: the part's other rings are its holes
    parts, n_parts = _label_parts(labels, 4)
    part = parts[prow, pcol]
    exteriors = np.flatnonzero(exterior)
    owner = np.empty(n_parts + 1, dtype=np.int64)
    owner[part[exteriors]] = exteriors
    # each exterior, then the holes of its part in ring order
    order = np.lexsort((~exterior, owner[part]))
    polygon_offsets = np.append(np.flatnonzero(exterior[order]), len(order))
    offsets = np.searchsorted(ring_label[exteriors], np.arange(1, count + 2))
    sizes = np.diff(off)[order]
    ring_offsets = np.zeros(len(order) + 1, dtype=np.int64)
    np.cumsum(sizes, out=ring_offsets[1:])
    corner = np.repeat(off[order] - ring_offsets[:-1], sizes) + np.arange(ring_offsets[-1])
    x = transform.origin_x + col[corner].astype(np.float64) * transform.pixel_width
    y = transform.origin_y - row[corner].astype(np.float64) * transform.pixel_height
    polygons = Polygons(x, y, ring_offsets, polygon_offsets, ["detection"] * len(exteriors))
    area = pixels[1:] * (transform.pixel_width * transform.pixel_height)
    return Detections(polygons, offsets, pixels[1:], area.astype(np.float64), mean_prob[1:])


def export_geojson(detections: Detections, path) -> None:
    """Write detections through ``geodata.write_geojson``, one feature each,
    with its area, mean probability (null when NaN) and pixel count.
    Non-finite areas and infinite means are refused, as non-finite
    coordinates are, before anything is written."""
    if not np.isfinite(detections.area).all() or np.isinf(detections.mean_probability).any():
        raise ValueError(f"{path}: non-finite areas or mean probabilities are not JSON compliant")
    means = _float_text(detections.mean_probability, "{!r}")
    for k in np.flatnonzero(np.isnan(detections.mean_probability)).tolist():
        means[k] = "null"
    properties = {
        "area_m2": _float_text(detections.area, "{!r}"),
        "mean_probability": means,
        "pixel_count": list(map(str, detections.pixel_count.tolist())),
    }
    write_geojson(path, detections.polygons, detections.offsets, properties)


def detections_from_binary(
    binary: Raster, prob: Raster, pcfg: PostprocConfig
) -> Detections:
    """Label an already thresholded raster, drop the components whose area
    falls under ``min_area`` (one of exactly ``min_area`` stays), and
    polygonize the rest.

    The kept components are renumbered 1..k in label order in the label
    grid itself, so only they are traced. Tracing and the per-label sums
    see each label apart from every other, so the detections are those of
    polygonizing every component and dropping the small ones afterwards.
    """
    labels, sizes = connected_components(binary, pcfg.connectivity)
    transform = prob.transform
    keep = sizes * (transform.pixel_width * transform.pixel_height) >= pcfg.min_area
    if not keep.all():
        lut = np.zeros(len(sizes) + 1, dtype=labels.dtype)
        lut[1:][keep] = np.arange(1, np.count_nonzero(keep) + 1)
        # mode="clip" writes into labels directly; the default mode buffers
        # a second grid for out
        np.take(lut, labels, out=labels, mode="clip")
    return polygonize(labels, transform, prob.samples[0])

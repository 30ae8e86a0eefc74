"""Tiled inference and raster-to-vector post-processing.

Probability maps come from sliding a trained model over overlapping tiles
and averaging overlapping predictions. Inference streams the raster one
tile row at a time (``predict_rows``): each stripe of ``tile_size`` rows is
read and stacked once, its windows are written as batches of network input
(``unet.model_input``: normalized, zeroed at nodata, padded) and run, and
rows are emitted as soon as no later tile reaches them. What stays resident
is one stripe, one batch of windows, and the float64 sums and counts of the
rows the next tile row overlaps.
Post-processing works on a run table, not on label grids: one pass over
the map, a block of rows at a time (``threshold_runs``), gives the
horizontal runs of pixels at or above the threshold, (row, first col,
last col), and everything after it is a numpy pass over those runs. A
union-find over runs that touch across a row boundary labels the
connected components (so post-processing needs no scipy); summed run
lengths drop the components under the minimum area before any side is
derived; and the exact pixel-boundary outline of every component left is
traced into world-coordinate polygons (holes included) and exported as
GeoJSON. A run's left and right sides are its ends, which join down the
rows while runs of its label end at the same column; its top and bottom
sides are the stretches that runs of its label in the row above or below
leave open. The tracing is exact: rasterizing the resulting polygons with
the pixel-center rule reproduces the thresholded mask. Each side run is
linked to the next by a sorted search, and rings are the cycles of that
link, cut where one passes a pinch corner twice. Each 4-connected part of
a component (the same union-find over the runs of one label whose columns
overlap) has one exterior ring, and the other rings along the part are
its holes. The grid functions (``connected_components``, ``polygonize``)
turn a grid into its runs of equal labels and run the same code, so no
label grid, padded copy or binary raster is made on the way from a
probability raster to its detections; memory is the raster, the runs, and
the foreground pixels' probabilities gathered for the mean.
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
from ._fileio import shown
from .dataset import NormalizationStats
from .geodata import (
    GeoTransform,
    Polygons,
    Raster,
    _float_text,
    write_geojson,
)
from .unet import ParameterSet, UNetConfig


@dataclass(frozen=True)
class InferenceConfig:
    tile_size: int = 256
    overlap: int = 32
    batch_size: int = 8

    def __post_init__(self):
        # below 2**31, as raster dimensions are: a raster smaller than a
        # tile is padded to it
        if not 1 <= self.tile_size < 2**31:
            raise ValueError(f"tile_size: must be in [1, 2**31), got {shown(self.tile_size)}")
        if not (0 <= self.overlap < self.tile_size):
            raise ValueError(f"overlap: must be in [0, tile_size), got {shown(self.overlap)}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size: must be >= 1, got {shown(self.batch_size)}")


@dataclass(frozen=True)
class PostprocConfig:
    probability_threshold: float = 0.5
    min_area: float = 100.0  # square meters; one 10 m pixel
    connectivity: int = 8

    def __post_init__(self):
        # each message starts with its field, which a config error names
        if not (0 < self.probability_threshold < 1):
            raise ValueError(
                f"probability_threshold: must be in (0, 1), got {shown(self.probability_threshold)}"
            )
        if self.min_area < 0:
            raise ValueError(f"min_area: must be >= 0, got {shown(self.min_area)}")
        if self.connectivity not in (4, 8):
            raise ValueError(f"connectivity: must be 4 or 8, got {shown(self.connectivity)}")


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
    (``dataset.stack_bands``). Its windows, views of the stripe, become a
    batch's input through ``unet.model_input``: normalized with the
    checkpoint stats, zeroed at nodata, and reflection-padded up to
    tile_size where the raster is shorter than a tile. Overlapping
    predictions are averaged. Each block holds the rows above the next tile
    row's origin. The arguments are checked here, before any row is read;
    a NaN probability on a valid pixel (weights that overflow) raises
    ``FloatingPointError`` when its block is reached.
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
        stripe = ds.stacked_rows(source, r0, min(r0 + tile, height), bands)
        valid = stripe.valid_mask()
        wh = len(valid)
        prob_sum = np.zeros((wh, width), dtype=np.float64)
        count = np.zeros((wh, width), dtype=np.int32)
        prob_sum[: len(carry_sum)], count[: len(carry_sum)] = carry_sum, carry_count
        live = [c0 for c0 in col_origins if valid[:, c0 : c0 + tile].any()]
        for start in range(0, len(live), icfg.batch_size):
            chunk = live[start : start + icfg.batch_size]
            # a side shorter than a tile gives one window there, padded
            x = unet.model_input(
                [stripe.samples[:, :, c0 : c0 + tile] for c0 in chunk],
                tile, stats, [valid[:, c0 : c0 + tile] for c0 in chunk],
            )
            with numerics.no_grad():
                logits = unet.forward(params, config, x)
            for p, c0 in zip(numerics.sigmoid_values(logits.data)[:, 0], chunk):
                ww = min(tile, width - c0)
                prob_sum[:, c0 : c0 + ww] += p[:wh, :ww]
                count[:, c0 : c0 + ww] += 1
        del stripe  # freed before the next stripe is read
        n = end - r0
        with np.errstate(invalid="ignore"):  # 0 / 0 where no window ran: nodata
            prob = (prob_sum[:n] / count[:n]).astype(np.float32)
        # a mean of sigmoids is finite or NaN, and a window ran over every
        # valid pixel: NaN there means the weights overflowed
        bad = np.isnan(prob)
        bad &= valid[:n]
        if bad.any():
            row, col = np.argwhere(bad)[0].tolist()
            raise FloatingPointError(f"the model gives a NaN probability at (row, col) ({r0 + row}, {col})")
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


# rows that threshold_runs compares at once: 256 of a 1024-wide raster
_BLOCK_PIXELS = 1 << 18


def threshold_runs(prob: Raster, threshold: float):
    """The horizontal runs of a single-band probability raster's pixels at
    or above ``threshold``, nodata excluded, in row-major order: (row,
    first col, last col) int64 arrays. The raster is compared a block of
    rows at a time, so no grid of its size is made."""
    if not (0 < threshold < 1):
        raise ValueError(f"threshold must be in (0, 1), got {threshold}")
    grid = prob.samples[0]
    height, width = grid.shape
    block = max(1, _BLOCK_PIXELS // width)
    # each row between two background columns, so its runs' ends pair up;
    # NaN compares false, so only a numeric nodata needs its own test
    fg = np.zeros((block, width + 2), dtype=bool)
    masked = prob.nodata is not None and not math.isnan(prob.nodata)
    edges = []
    for r0 in range(0, height, block):
        rows = grid[r0 : r0 + block]
        inner = fg[: len(rows), 1:-1]
        with np.errstate(invalid="ignore"):
            np.greater_equal(rows, threshold, out=inner)
        if masked:
            inner &= rows != prob.nodata
        edges.append(np.flatnonzero(fg[: len(rows), 1:] != fg[: len(rows), :-1]) + r0 * (width + 1))
    edge = np.concatenate(edges)
    row, first = np.divmod(edge[0::2], width + 1)
    return row, first, edge[1::2] % (width + 1) - 1


def _grid_runs(values: np.ndarray, fg: np.ndarray):
    """Row, first and last column, and value of each maximal run of equal
    values along the rows of ``values``, over the pixels ``fg`` marks, in
    row-major order."""
    step = values[:, 1:] != values[:, :-1]
    start = fg.copy()
    start[:, 1:] &= step
    stop = fg.copy()
    stop[:, :-1] &= step
    row, first = np.nonzero(start)
    return row, first, np.nonzero(stop)[1], values[row, first]


def _contacts(row, first, last, width: int, reach: int):
    """The pairs (upper, lower) of runs in adjacent rows whose columns
    overlap (``reach`` 0), or also meet at a corner (``reach`` 1), grouped
    by the lower run and in column order within a group. The runs are in
    row-major order, so the partners of a lower run are one stretch of the
    row above it, found by two sorted searches."""
    stride = width + 2  # keys of two rows stay more than a reach apart
    base = row * stride
    lo = np.searchsorted(base + last, base - stride + first - reach)
    hi = np.searchsorted(base + first, base - stride + last + reach, "right")
    count = np.maximum(hi - lo, 0)
    lower = np.repeat(np.arange(len(row)), count)
    upper = np.arange(len(lower)) + np.repeat(lo - (np.cumsum(count) - count), count)
    return upper, lower


def _union(n: int, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, int]:
    """Number the groups that the pairs (a, b) join ``n`` runs into, 1.. in
    the order of their first runs. Returns (number per run, group count).

    A union-find over runs (after He, Chao & Suzuki, IEEE TIP 17(5), 2008),
    in numpy rounds with no loop per run. Each round drops the pairs whose
    runs share a root, hooks every other pair's larger root under the least
    root it meets, then jumps pointers (``parent[parent]``) until every run
    points at its root. Roots only hook under smaller ones, so a group's
    root is its first run and ranking the roots numbers the groups in run
    order. Hooking under the least root, not an arbitrary one, bounds the
    rounds by about twice the logarithm of the run count: a comb whose
    teeth hang from one spine would otherwise merge one tooth per round.
    """
    parent = np.arange(n)
    while True:
        ra, rb = parent[a], parent[b]
        cross = ra != rb
        if not cross.any():
            break
        a, b, ra, rb = a[cross], b[cross], ra[cross], rb[cross]
        np.minimum.at(parent, np.maximum(ra, rb), np.minimum(ra, rb))
        while not np.array_equal(grand := parent[parent], parent):
            parent = grand
    rank = np.cumsum(parent == np.arange(n))
    return rank[parent], int(rank[-1]) if n else 0


def _run_pixels(row, first, length, width: int) -> np.ndarray:
    """The row-major flat index of every pixel of the runs, run by run."""
    start = np.cumsum(length) - length
    return np.repeat(row * width + first - start, length) + np.arange(int(length.sum()))


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

    The grid's runs of equal non-zero values join where they touch across a
    row boundary (``_contacts``) with equal values, and ``_union`` numbers
    the parts; the numbers are painted back run by run.
    """
    row, first, last, value = _grid_runs(values, values != 0)
    upper, lower = _contacts(row, first, last, values.shape[1], connectivity == 8)
    same = value[upper] == value[lower]
    part, count = _union(len(row), upper[same], lower[same])
    length = last - first + 1
    parts = np.zeros(values.shape, dtype=np.int32)
    parts.reshape(-1)[_run_pixels(row, first, length, values.shape[1])] = np.repeat(part, length)
    return parts, count


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


def _uncovered(first, last, owner, cover_first, cover_last):
    """The stretches of each run's columns [first, last] that its covers
    leave open, left to right. Covers are (owner run, first col, last col),
    grouped by owner and in column order within a group. Returns (run,
    first col, last col) per stretch.

    A run with k covers has k + 1 slots: before its first cover, between
    two, and after its last; empty ones are dropped.
    """
    count = np.bincount(owner, minlength=len(first))
    end = np.arange(len(first)) + np.cumsum(count)  # each run's last slot
    start = np.empty(len(first) + len(owner), dtype=first.dtype)
    stop = np.empty_like(start)
    start[end - count], stop[end] = first, last
    slot = owner + np.arange(len(owner))
    stop[slot], start[slot + 1] = cover_first - 1, cover_last + 1
    run = np.repeat(np.arange(len(first)), count + 1)
    kept = start <= stop
    return run[kept], start[kept], stop[kept]


def _edge_chains(row, col, label):
    """Runs whose ends at ``col`` (each run's first or last column) line up
    down consecutive rows with one label, as chains: (first run, last run)
    of each. Runs are in row-major order, so a stable sort by column puts
    each chain's runs next to each other."""
    order = np.argsort(col, kind="stable")
    r, c, lab = row[order], col[order], label[order]
    cut = np.ones(len(order) + 1, dtype=bool)  # between two chains
    cut[1:-1] = (c[1:] != c[:-1]) | (r[1:] != r[:-1] + 1) | (lab[1:] != lab[:-1])
    return order[cut[:-1]], order[cut[1:]]


def _sides(row, first, last, label, upper, lower):
    """Every component's boundary as straight runs of exposed pixel sides,
    from its pixel runs; ``upper`` and ``lower`` pair the runs of one label
    in adjacent rows whose columns overlap, grouped by the lower run.

    A side is exposed where the 4-neighbour across it carries a different
    label (or lies off the grid). Sides are directed with the component on
    the same side of each: tops run right, right sides down, bottoms left,
    left sides up. Consecutive exposed sides of one label along one line
    join into a run, since the walk goes straight through the corner
    between them. A pixel run's tops are the stretches that its partners
    above leave open, and its bottoms those its partners below leave open;
    its last and first columns end in a right and a left side, which join
    down the rows while runs of its label end there. Returns (label, start
    col, start row, end col, end row, direction index into _STEPS), one
    entry per side run.
    """
    r, a, b = _uncovered(first, last, lower, first[upper], last[upper])
    top = (label[r], a, row[r], b + 1, row[r], 3)
    by_upper = np.argsort(upper, kind="stable")
    upper, lower = upper[by_upper], lower[by_upper]
    r, a, b = _uncovered(first, last, upper, first[lower], last[lower])
    bottom = (label[r], b + 1, row[r] + 1, a, row[r] + 1, 0)
    s, e = _edge_chains(row, last, label)
    right = (label[s], last[s] + 1, row[s], last[s] + 1, row[e] + 1, 2)
    s, e = _edge_chains(row, first, label)
    left = (label[s], first[s], row[e] + 1, first[s], row[s], 1)
    parts = (top, bottom, right, left)
    label = np.concatenate([p[0] for p in parts]).astype(np.int64)
    coords = [np.concatenate([p[k] for p in parts]).astype(np.int32) for k in range(1, 5)]
    direction = np.concatenate([np.full(len(p[0]), p[5], np.int8) for p in parts])
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


def _trace(sides, height: int, width: int):
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
    label, sc, sr, ec, er, direction = sides
    rows = height + 1
    span = 4 * rows * (width + 1)
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
    pixel area in world units. The grid becomes its runs of equal labels,
    which ``_polygonize_runs`` traces.
    """
    labels = np.asarray(labels)
    if labels.ndim != 2:
        raise ValueError("labels must be a 2-D array")
    if probabilities is not None and np.shape(probabilities) != labels.shape:
        raise ValueError("probabilities grid must match labels")
    count = max(int(labels.max()) if labels.size else 0, 0)
    row, first, last, label = _grid_runs(labels, labels > 0)
    upper, lower = _contacts(row, first, last, labels.shape[1], 0)
    same = label[upper] == label[lower]
    return _polygonize_runs(
        (row, first, last), label.astype(np.int64), count, upper[same], lower[same],
        labels.shape, transform, probabilities,
    )


def _polygonize_runs(runs, label, count, upper, lower, shape, transform, probabilities) -> Detections:
    """``polygonize`` over pixel runs: ``runs`` (row, first col, last col)
    in row-major order, each run's ``label`` in 1..``count``, and the pairs
    (``upper``, ``lower``) of runs of one label in adjacent rows whose
    columns overlap, grouped by the lower run (``_contacts``), on a grid of
    ``shape``."""
    row, first, last = runs
    width = shape[1]
    length = last - first + 1
    pixels = np.bincount(label, weights=length, minlength=count + 1).astype(np.int64)
    mean_prob = np.full(count + 1, math.nan)
    if probabilities is not None:
        # pixel by pixel in row-major order, as a bincount over the grid adds them
        at = _run_pixels(row, first, length, width)
        mean_prob = np.bincount(
            np.repeat(label, length), weights=np.asarray(probabilities).reshape(-1)[at], minlength=count + 1
        )
        del at
    # not in place: a weighted bincount over no pixel comes back int64
    with np.errstate(invalid="ignore"):
        mean_prob = mean_prob / np.maximum(pixels, 1)
    ring_label, exterior, prow, pcol, col, crow, off = _trace(_sides(row, first, last, label, upper, lower), *shape)
    # every ring runs along the pixels of one 4-connected part of its label,
    # and each part has one exterior: the part's other rings are its holes
    part, n_parts = _union(len(row), upper, lower)
    key = row * (width + 1) + first
    part = part[np.searchsorted(key, prow.astype(np.int64) * (width + 1) + pcol, "right") - 1]
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
    y = transform.origin_y - crow[corner].astype(np.float64) * transform.pixel_height
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
    # formatted a slice of features at a time, as write_geojson writes them
    properties = {
        "area_m2": lambda s: _float_text(detections.area[s], "{!r}"),
        "mean_probability": lambda s: [
            "null" if text == "nan" else text for text in _float_text(detections.mean_probability[s], "{!r}")
        ],
        "pixel_count": lambda s: list(map(str, detections.pixel_count[s].tolist())),
    }
    write_geojson(path, detections.polygons, detections.offsets, properties)


def detections_from_runs(runs, prob: Raster, pcfg: PostprocConfig) -> tuple[Detections, int]:
    """Label the foreground ``runs`` of ``prob``'s grid (row, first col, last
    col in row-major order, as ``threshold_runs`` gives them) into
    components, drop the components whose area falls under ``min_area``
    (one of exactly ``min_area`` stays), and polygonize the rest. Returns
    the detections and the count of components before the filter.

    The small components' runs are dropped before any side is derived, and
    the kept components are renumbered 1..k in label order. Tracing and
    the per-label sums see each label apart from every other, so the
    detections are those of polygonizing every component and dropping the
    small ones afterwards.
    """
    row, first, last = runs
    transform = prob.transform
    upper, lower = _contacts(row, first, last, prob.width, pcfg.connectivity == 8)
    label, count = _union(len(row), upper, lower)
    sizes = np.bincount(label, weights=last - first + 1, minlength=count + 1)[1:]
    keep = sizes * (transform.pixel_width * transform.pixel_height) >= pcfg.min_area
    if not keep.all():
        renumber = np.zeros(count + 1, dtype=label.dtype)
        renumber[1:][keep] = np.arange(1, np.count_nonzero(keep) + 1)
        label = renumber[label]
        live = label > 0
        index = np.cumsum(live) - 1
        joined = live[upper]  # both runs of a pair are in one component
        upper, lower = index[upper[joined]], index[lower[joined]]
        row, first, last, label = row[live], first[live], last[live], label[live]
    if pcfg.connectivity == 8:  # tracing pairs only runs whose columns overlap
        overlap = (first[upper] <= last[lower]) & (first[lower] <= last[upper])
        upper, lower = upper[overlap], lower[overlap]
    detections = _polygonize_runs(
        (row, first, last), label, int(np.count_nonzero(keep)), upper, lower,
        (prob.height, prob.width), transform, prob.samples[0],
    )
    return detections, count


def detections_from_binary(
    binary: Raster, prob: Raster, pcfg: PostprocConfig
) -> tuple[Detections, int]:
    """``detections_from_runs`` over the runs of an already thresholded
    raster's non-zero pixels."""
    fg = binary.samples[0] != 0
    return detections_from_runs(_grid_runs(fg, fg)[:3], prob, pcfg)

"""Output checks for the benchmark workloads.

Each check compares the program's output with a computation made apart
from the program (``scipy.ndimage.label``, a numpy forward pass, central
finite differences, the benchmark's own rasterizers) or tests a property
the method must have. A failed check raises ``CheckFailed``.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
from scipy import ndimage


class CheckFailed(Exception):
    pass


def read_raster(base: Path) -> tuple[np.ndarray, dict]:
    """Samples [band, row, col] and header of a native raster pair."""
    header = json.loads(Path(str(base) + ".json").read_text())
    shape = (header["band_count"], header["height"], header["width"])
    samples = np.fromfile(str(base) + ".bin", dtype="<f4").reshape(shape)
    return samples, header


def read_features(path: Path) -> list[dict]:
    doc = json.loads(Path(path).read_text())
    if doc.get("type") != "FeatureCollection":
        raise CheckFailed(f"{path} is not a FeatureCollection")
    return doc["features"]


# ---------------------------------------------------------------------------
# rasterizing detections
# ---------------------------------------------------------------------------


def _parts(geometry: dict) -> list:
    if geometry["type"] == "Polygon":
        return [geometry["coordinates"]]
    if geometry["type"] == "MultiPolygon":
        return geometry["coordinates"]
    raise CheckFailed(f"unexpected geometry type {geometry['type']}")


def pixel_rings(geometry: dict, transform: dict) -> list[list[np.ndarray]]:
    """Rings as integer (col, row) pixel-corner arrays, per polygon part.

    Exact tracing puts every vertex on a pixel corner and every edge on a
    pixel side; anything else fails.
    """
    ox, oy = transform["origin_x"], transform["origin_y"]
    pw, ph = transform["pixel_width"], transform["pixel_height"]
    parts = []
    for part in _parts(geometry):
        rings = []
        for ring in part:
            xy = np.asarray(ring, dtype=np.float64)
            cr = np.stack([(xy[:, 0] - ox) / pw, (oy - xy[:, 1]) / ph], axis=1)
            ints = np.rint(cr)
            if not np.array_equal(ints, cr):
                raise CheckFailed("a detection vertex is off the pixel-corner grid")
            ints = ints.astype(np.int64)
            if not np.array_equal(ints[0], ints[-1]):
                raise CheckFailed("a detection ring is not closed")
            step = np.diff(ints, axis=0)
            if np.any((step[:, 0] != 0) & (step[:, 1] != 0)):
                raise CheckFailed("a detection edge is not along a pixel side")
            rings.append(ints)
        parts.append(rings)
    return parts


def rasterize_pixel_rings(parts) -> tuple[int, int, np.ndarray]:
    """Pixel-center even-odd fill of rectilinear rings over their bounding box.

    Returns (row0, col0, mask). A pixel's center lies inside when an odd
    number of vertical edges spanning its row lie left of it, so each
    vertical edge toggles its rows from its column on.
    """
    allv = np.concatenate([ring for rings in parts for ring in rings])
    c0, r0 = allv.min(axis=0)
    c1, r1 = allv.max(axis=0)
    toggles = np.zeros((r1 - r0, c1 - c0 + 1), dtype=np.int64)
    for rings in parts:
        for ring in rings:
            a, b = ring[:-1], ring[1:]
            vertical = (a[:, 0] == b[:, 0]) & (a[:, 1] != b[:, 1])
            for (x, ya), (_, yb) in zip(a[vertical], b[vertical]):
                toggles[min(ya, yb) - r0 : max(ya, yb) - r0, x - c0] ^= 1
    mask = (np.cumsum(toggles, axis=1)[:, :-1] % 2).astype(bool)
    return int(r0), int(c0), mask


def ring_area2(ring: np.ndarray) -> int:
    """Twice the signed shoelace area of an integer ring (exact)."""
    x, y = ring[:, 0], ring[:, 1]
    return int(np.sum(x[:-1] * y[1:] - x[1:] * y[:-1]))


def shoelace_pixels(parts) -> float:
    """Exteriors minus holes, in pixels."""
    total = 0
    for rings in parts:
        total += abs(ring_area2(rings[0])) - sum(abs(ring_area2(h)) for h in rings[1:])
    return total / 2


def check_detections(features: list[dict], binary: np.ndarray, transform: dict, min_area: float = 0.0) -> dict:
    """Detections against ``scipy.ndimage.label`` of the binary map.

    The feature count equals the count of 8-connected components whose
    area reaches ``min_area``; each feature
    rasterizes over its bounding box to exactly one component, which no
    other feature claims; its ``pixel_count`` and shoelace area equal that
    component's ``np.bincount`` size, and ``area_m2`` is that size times the
    pixel area, exactly. Returns counts for the run's record.
    """
    labels, count = ndimage.label(binary, structure=np.ones((3, 3), dtype=int))
    sizes = np.bincount(labels.ravel())
    boxes = ndimage.find_objects(labels)
    pixel_area = transform["pixel_width"] * transform["pixel_height"]
    kept = int(np.count_nonzero(sizes[1:] * pixel_area >= min_area))
    if len(features) != kept:
        raise CheckFailed(f"{len(features)} detections but {kept} components")
    claimed = np.zeros(count + 1, dtype=bool)
    max_vertices = 0
    for i, feature in enumerate(features):
        parts = pixel_rings(feature["geometry"], transform)
        max_vertices = max(max_vertices, *(len(r) - 1 for rings in parts for r in rings))
        r0, c0, mask = rasterize_pixel_rings(parts)
        h, w = mask.shape
        window = labels[r0 : r0 + h, c0 : c0 + w]
        if r0 < 0 or c0 < 0 or window.shape != mask.shape:
            raise CheckFailed(f"detection {i} extends past the raster")
        under = np.unique(window[mask])
        if len(under) != 1 or under[0] == 0:
            raise CheckFailed(f"detection {i} covers labels {under[:5].tolist()}")
        label = int(under[0])
        if claimed[label]:
            raise CheckFailed(f"component {label} matched by two detections")
        claimed[label] = True
        wrong = int(np.count_nonzero(mask != (window == label)))
        if wrong or boxes[label - 1] != (slice(r0, r0 + h), slice(c0, c0 + w)):
            raise CheckFailed(f"detection {i} differs from component {label} by {wrong} pixel(s) or its extent")
        props = feature["properties"]
        size = int(sizes[label])
        if props["pixel_count"] != size:
            raise CheckFailed(f"detection {i} pixel_count {props['pixel_count']} != {size}")
        if shoelace_pixels(parts) != size:
            raise CheckFailed(f"detection {i} shoelace area {shoelace_pixels(parts)} px != {size}")
        if props["area_m2"] != size * pixel_area:
            raise CheckFailed(f"detection {i} area_m2 {props['area_m2']} != {size} * {pixel_area}")
    return {"components": kept, "max_ring_vertices": max_vertices}


# ---------------------------------------------------------------------------
# probabilities
# ---------------------------------------------------------------------------


def check_probability_range(prob: np.ndarray, nodata: np.ndarray) -> None:
    """NaN exactly where an input band is nodata, within [0, 1] elsewhere."""
    nan = np.isnan(prob)
    if not np.array_equal(nan, nodata):
        raise CheckFailed(
            f"NaN at {int(nan.sum())} pixels, nodata at {int(nodata.sum())}, "
            f"{int(np.count_nonzero(nan != nodata))} disagree"
        )
    valid = prob[~nan]
    if valid.size and (valid.min() < 0 or valid.max() > 1):
        raise CheckFailed(f"probabilities span [{valid.min()}, {valid.max()}]")


def check_reference(prob: np.ndarray, pixels, expected, tolerance: float) -> float:
    """Program probability within ``tolerance`` of the reference at each
    sampled pixel; returns the largest difference seen."""
    worst = 0.0
    for (r, c), want in zip(pixels, expected):
        diff = abs(float(prob[r, c]) - want)
        if not diff <= tolerance:
            raise CheckFailed(f"probability at ({r}, {c}) is {prob[r, c]}, reference {want}")
        worst = max(worst, diff)
    return worst


def rasterize_polygons(rings_per_polygon, transform: dict, height: int, width: int) -> np.ndarray:
    """Pixel-center mask of the union of world-coordinate polygons.

    A center lies inside a polygon when an odd number of its edges (any
    direction) cross the center's row strictly to its right.
    """
    mask = np.zeros((height, width), dtype=bool)
    ox, oy = transform["origin_x"], transform["origin_y"]
    pw, ph = transform["pixel_width"], transform["pixel_height"]
    for rings in rings_per_polygon:
        px = [np.stack([(np.asarray(r)[:, 0] - ox) / pw, (oy - np.asarray(r)[:, 1]) / ph], axis=1) for r in rings]
        allv = np.concatenate(px)
        rows = np.arange(max(0, math.floor(allv[:, 1].min())), min(height, math.ceil(allv[:, 1].max()) + 1))
        cols = np.arange(max(0, math.floor(allv[:, 0].min())), min(width, math.ceil(allv[:, 0].max()) + 1))
        a = np.concatenate([p[:-1] for p in px])
        b = np.concatenate([p[1:] for p in px])
        yc = rows[:, None] + 0.5
        spans = (a[None, :, 1] > yc) != (b[None, :, 1] > yc)
        with np.errstate(divide="ignore", invalid="ignore"):
            xcross = a[None, :, 0] + (yc - a[None, :, 1]) * (b[None, :, 0] - a[None, :, 0]) / (
                b[None, :, 1] - a[None, :, 1]
            )
        xcross = np.where(spans, xcross, -np.inf)
        right = (xcross[:, None, :] > cols[None, :, None] + 0.5).sum(axis=2)
        if rows.size and cols.size:
            mask[rows[0] : rows[-1] + 1, cols[0] : cols[-1] + 1] |= right % 2 == 1
    return mask


def iou(a: np.ndarray, b: np.ndarray) -> float:
    union = np.count_nonzero(a | b)
    return np.count_nonzero(a & b) / union if union else 1.0


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------


def check_losses(report: dict, epochs: int) -> None:
    """Every epoch's losses finite; the last training loss below the first."""
    rows = report["epochs"]
    if len(rows) != epochs:
        raise CheckFailed(f"{len(rows)} epochs run, {epochs} asked for")
    for i, row in enumerate(rows, 1):
        if not (math.isfinite(row["train_loss"]) and math.isfinite(row["val_loss"])):
            raise CheckFailed(f"non-finite loss at epoch {i}")
    if not rows[-1]["train_loss"] < rows[0]["train_loss"]:
        raise CheckFailed(
            f"training loss went from {rows[0]['train_loss']} to {rows[-1]['train_loss']}"
        )


def unet_parameter_count(in_channels: int, depth: int, base: int) -> int:
    """Parameters of the README's U-Net: 3x3 double convs per stage, 2x2
    stride-2 upsampling, skip concatenation, a 3x3 single-channel head."""

    def conv(cin, cout):
        return 9 * cin * cout + cout

    widths = [base * 2**i for i in range(depth + 1)]
    total = 0
    cin = in_channels
    for w in widths[:-1]:
        total += conv(cin, w) + conv(w, w)
        cin = w
    total += conv(widths[-2], widths[-1]) + conv(widths[-1], widths[-1])
    for i in range(depth):
        total += 4 * widths[i + 1] * widths[i] + widths[i]
        total += conv(2 * widths[i], widths[i]) + conv(widths[i], widths[i])
    return total + conv(base, 1)


def check_gradient(analytic: dict, coords, loss_at, steps=(1e-5, 1e-6, 1e-7), rtol: float = 1e-4, atol: float = 1e-8) -> float:
    """Analytic gradient entries against central finite differences.

    ``loss_at(name, index, delta)`` evaluates the loss with one parameter
    entry shifted by delta. An entry passes when the central difference at
    one of ``steps`` agrees with it: a step that crosses a ReLU kink near
    the point skews the difference, and a smaller step then clears the
    kink. In float64 the difference quotient carries at most ~1e-9 of
    rounding for a loss of order one, inside ``atol``. Returns the largest
    relative difference among the agreeing steps.
    """
    worst = 0.0
    for name, index in coords:
        got = float(analytic[name][index])
        seen = []
        for eps in steps:
            fd = (loss_at(name, index, eps) - loss_at(name, index, -eps)) / (2 * eps)
            seen.append(fd)
            if abs(got - fd) <= atol + rtol * max(abs(got), abs(fd)):
                worst = max(worst, abs(got - fd) / max(abs(fd), atol))
                break
        else:
            raise CheckFailed(f"gradient of {name}{list(index)} is {got}, finite differences {seen}")
    return worst

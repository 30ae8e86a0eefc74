"""Slow, obviously-correct reference implementations used by the tests,
and the few helpers that only tests call.

Everything here is written with plain loops and stdlib/numpy scalar math so
that agreement with the fast vectorized code is meaningful. Keep these naive:
no shared helpers with the package beyond its containers and the ring
normalization that fills them. Tests build polygon columns
(``geodata.Polygons``) through ``polygon_columns`` alone, and read
detections back as ``DetectionRecord``s.
"""

from __future__ import annotations

import json
import math
from collections import deque
from pathlib import Path
from typing import NamedTuple

import numpy as np


# ---------------------------------------------------------------------------
# dense ops
# ---------------------------------------------------------------------------


def conv2d_oracle(x: np.ndarray, kernel: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Same-padded 3x3 correlation, six explicit loops."""
    n, cin, h, w = x.shape
    cout = kernel.shape[0]
    kh, kw = kernel.shape[2], kernel.shape[3]
    ph, pw = kh // 2, kw // 2
    out = np.zeros((n, cout, h, w), dtype=np.float64)
    for b in range(n):
        for o in range(cout):
            for i in range(h):
                for j in range(w):
                    acc = float(bias[o])
                    for c in range(cin):
                        for dy in range(kh):
                            for dx in range(kw):
                                yy = i + dy - ph
                                xx = j + dx - pw
                                if 0 <= yy < h and 0 <= xx < w:
                                    acc += float(x[b, c, yy, xx]) * float(
                                        kernel[o, c, dy, dx]
                                    )
                    out[b, o, i, j] = acc
    return out


def conv2d_grad_oracle(
    x: np.ndarray, kernel: np.ndarray, g: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients of sum(g * conv2d(x, kernel, bias)) w.r.t. x, kernel and
    bias, by the same six loops as conv2d_oracle."""
    n, cin, h, w = x.shape
    cout = kernel.shape[0]
    gx = np.zeros(x.shape, dtype=np.float64)
    gk = np.zeros(kernel.shape, dtype=np.float64)
    gb = np.zeros(cout, dtype=np.float64)
    for b in range(n):
        for o in range(cout):
            for i in range(h):
                for j in range(w):
                    go = float(g[b, o, i, j])
                    gb[o] += go
                    for c in range(cin):
                        for dy in range(3):
                            for dx in range(3):
                                yy = i + dy - 1
                                xx = j + dx - 1
                                if 0 <= yy < h and 0 <= xx < w:
                                    gx[b, c, yy, xx] += go * float(kernel[o, c, dy, dx])
                                    gk[o, c, dy, dx] += go * float(x[b, c, yy, xx])
    return gx, gk, gb


def max_pool_2x2_oracle(x: np.ndarray) -> np.ndarray:
    n, c, h, w = x.shape
    out = np.zeros((n, c, h // 2, w // 2), dtype=np.float64)
    for b in range(n):
        for ch in range(c):
            for i in range(h // 2):
                for j in range(w // 2):
                    window = [
                        x[b, ch, 2 * i, 2 * j],
                        x[b, ch, 2 * i, 2 * j + 1],
                        x[b, ch, 2 * i + 1, 2 * j],
                        x[b, ch, 2 * i + 1, 2 * j + 1],
                    ]
                    out[b, ch, i, j] = max(window)
    return out


def max_pool_2x2_grad_oracle(x: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Gradient of sum(g * max_pool_2x2(x)) w.r.t. x: each window's g goes
    to its first maximum in row-major window order."""
    n, c, h, w = x.shape
    gx = np.zeros(x.shape, dtype=x.dtype)
    for b in range(n):
        for ch in range(c):
            for i in range(h // 2):
                for j in range(w // 2):
                    best = None
                    for dy in range(2):
                        for dx in range(2):
                            v = x[b, ch, 2 * i + dy, 2 * j + dx]
                            if best is None or v > x[b, ch, best[0], best[1]]:
                                best = (2 * i + dy, 2 * j + dx)
                    gx[b, ch, best[0], best[1]] = g[b, ch, i, j]
    return gx


def transposed_conv_2x2_oracle(
    x: np.ndarray, kernel: np.ndarray, bias: np.ndarray
) -> np.ndarray:
    """Stride-2 scatter: out[b,o,2i+dy,2j+dx] += x[b,c,i,j] * k[c,o,dy,dx]."""
    n, cin, h, w = x.shape
    cout = kernel.shape[1]
    out = np.zeros((n, cout, 2 * h, 2 * w), dtype=np.float64)
    for b in range(n):
        for o in range(cout):
            out[b, o, :, :] = float(bias[o])
            for c in range(cin):
                for i in range(h):
                    for j in range(w):
                        for dy in range(2):
                            for dx in range(2):
                                out[b, o, 2 * i + dy, 2 * j + dx] += float(
                                    x[b, c, i, j]
                                ) * float(kernel[c, o, dy, dx])
    return out


def transposed_conv_2x2_grads_oracle(x: np.ndarray, kernel: np.ndarray, g: np.ndarray):
    """(gx, gk, gb) of the 2x2 stride-2 transposed conv and of sum(g * out),
    as one stacked product over the batch each: gk is the [b, 4*out, in]
    stack of per-image products of g's taps with the input, summed over
    the batch."""
    b, cin, h, w = x.shape
    cout = kernel.shape[1]
    taps = kernel.transpose(2, 3, 1, 0).reshape(4 * cout, cin)  # rows in (dy, dx, o) order
    gt = np.ascontiguousarray(g.reshape(b, cout, h, 2, w, 2).transpose(0, 3, 5, 1, 2, 4))
    gt = gt.reshape(b, 4 * cout, h * w)
    gx = np.matmul(taps.T, gt).reshape(b, cin, h, w)
    gk = np.matmul(gt, x.reshape(b, cin, h * w).transpose(0, 2, 1)).sum(axis=0)
    return gx, gk.reshape(2, 2, cout, cin).transpose(3, 2, 0, 1), g.sum(axis=(0, 2, 3))


def correlate3_batched_oracle(
    ap: np.ndarray, taps: np.ndarray, h: int, w: int
) -> np.ndarray:
    """The nine-shift 3x3 correlation over the whole batch at once: one
    stacked product per tap, accumulated over the full [b, out, h*(w+2)]
    grid. ``ap`` is [b, in, (h+2)*(w+2) + 2], zero-padded rows laid end to
    end; ``taps`` is [9, out, in] in row-major (ki, kj) order. With one input
    channel the taps are broadcast multiplies, their first sum plus 0.0."""
    n = h * (w + 2)
    product = np.multiply if taps.shape[2] == 1 else np.matmul
    acc = product(taps[0], ap[:, :, :n])
    if product is np.multiply:
        acc += 0.0
    tmp = np.empty_like(acc)
    for t in range(1, 9):
        off = (t // 3) * (w + 2) + t % 3
        product(taps[t], ap[:, :, off : off + n], out=tmp)
        acc += tmp
    return acc.reshape(*acc.shape[:2], h, w + 2)[:, :, :, :w]


def conv2d_batched_oracle(x, kernel, bias, g):
    """(out, gx, gw, gb) of the 3x3 same conv and of sum(g * out), built on
    ``correlate3_batched_oracle``; gw is one stacked product per tap, summed
    over the batch."""
    dtype = np.result_type(x, kernel, bias)
    b, cin, h, w = x.shape
    cout = kernel.shape[0]
    n, size = h * (w + 2), (h + 2) * (w + 2)

    def pad(a):
        ap = np.zeros((b, a.shape[1], size + 2), dtype=dtype)
        ap[:, :, :size].reshape(b, a.shape[1], h + 2, w + 2)[:, :, 1 : h + 1, 1 : w + 1] = a
        return ap

    taps = np.ascontiguousarray(kernel.reshape(cout, cin, 9).transpose(2, 0, 1), dtype=dtype)
    xp, gp = pad(x), pad(g)
    out = correlate3_batched_oracle(xp, taps, h, w) + bias.astype(dtype)[:, None, None]
    gout = gp[:, :, w + 3 : w + 3 + n]
    per_tap = [
        np.matmul(gout, xp[:, :, off : off + n].transpose(0, 2, 1)).sum(axis=0)
        for off in ((t // 3) * (w + 2) + t % 3 for t in range(9))
    ]
    gw = np.stack(per_tap, axis=-1).reshape(kernel.shape)
    gx = np.ascontiguousarray(
        correlate3_batched_oracle(gp, taps[::-1].transpose(0, 2, 1), h, w)
    )
    return out, gx, gw, g.sum(axis=(0, 2, 3))


def backward_oracle(loss) -> dict[int, np.ndarray]:
    """Reverse-mode walk over a dumpwatch graph that keeps every gradient,
    intermediates included: {id(vertex): d(loss)/d(vertex)}. A vertex is
    the loss tensor, an op output's graph node (``tensor._node``) or a leaf
    tensor.

    Uses only each vertex's recorded parents and gradient closure; the order
    comes from its own depth-first search.
    """
    order, seen = [], set()

    def visit(t):
        if id(t) not in seen:
            seen.add(id(t))
            for parent in t._parents:
                visit(parent)
            order.append(t)

    visit(loss)
    grads = {id(loss): np.ones_like(loss.data)}
    for node in reversed(order):
        g = grads.get(id(node))
        if g is None or node._grad_fn is None:
            continue
        for parent, pg in zip(node._parents, node._grad_fn(g)):
            if pg is not None and parent.requires_grad:
                acc = grads.get(id(parent))
                grads[id(parent)] = pg if acc is None else acc + pg
    return grads


def sigmoid_scalar(z: float) -> float:
    if z >= 0:
        return 1.0 / (1.0 + math.exp(-z))
    e = math.exp(z)
    return e / (1.0 + e)


def softplus_scalar(z: float) -> float:
    return max(z, 0.0) + math.log1p(math.exp(-abs(z)))


def weighted_bce_oracle(
    logits: np.ndarray, target: np.ndarray, pos_weight: float
) -> float:
    total = 0.0
    flat_z = logits.reshape(-1)
    flat_y = target.reshape(-1)
    for z, y in zip(flat_z, flat_y):
        z = float(z)
        y = float(y)
        total += pos_weight * y * softplus_scalar(-z) + (1.0 - y) * softplus_scalar(z)
    return total / flat_z.size


def adam_step_oracle(
    param: np.ndarray,
    grad: np.ndarray,
    m: np.ndarray,
    v: np.ndarray,
    step: int,
    lr: float,
    beta1: float,
    beta2: float,
    eps: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One bias-corrected update; `step` is the new step number (1-based)."""
    m = beta1 * m + (1.0 - beta1) * grad
    v = beta2 * v + (1.0 - beta2) * grad * grad
    m_hat = m / (1.0 - beta1**step)
    v_hat = v / (1.0 - beta2**step)
    param = param - lr * m_hat / (np.sqrt(v_hat) + eps)
    return param, m, v


# ---------------------------------------------------------------------------
# finite differences
# ---------------------------------------------------------------------------


def finite_difference_grad(f, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of scalar f at float64 x, elementwise."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = x[idx]
        x[idx] = orig + h
        fp = f(x)
        x[idx] = orig - h
        fm = f(x)
        x[idx] = orig
        grad[idx] = (fp - fm) / (2.0 * h)
        it.iternext()
    return grad


def gradcheck_rel_error(numerical: np.ndarray, analytic: np.ndarray) -> float:
    """Max abs difference scaled by the larger of 1 and either magnitude."""
    num = np.asarray(numerical, dtype=np.float64)
    ana = np.asarray(analytic, dtype=np.float64)
    scale = max(1.0, float(np.max(np.abs(num))), float(np.max(np.abs(ana))))
    return float(np.max(np.abs(num - ana))) / scale


# ---------------------------------------------------------------------------
# geometry
# ---------------------------------------------------------------------------


def polygon_columns(polygons, labels="dump", normalized=True):
    """``geodata.Polygons`` of ``polygons``, each given as its rings (the
    exterior, then the holes), each ring a sequence of (x, y) vertices,
    closed or not; with one label for all, or a list of one per polygon.
    The rings are normalized as ``read_annotations`` normalizes a file's
    (``geodata._normalized``), and a ring left with fewer than three
    distinct vertices raises ValueError; unless not ``normalized``, when
    they are taken as given."""
    from dumpwatch import geodata

    rings = [ring for poly in polygons for ring in poly]
    xy = np.array([[geodata._coord(c) for c in v] for ring in rings for v in ring], np.float64)
    xy = xy.reshape(-1, 2)
    x, y, offsets = xy[:, 0], xy[:, 1], np.cumsum([0, *map(len, rings)])
    if normalized:
        x, y, offsets = geodata._normalized(x, y, offsets)
        if (np.diff(offsets) < 3).any():
            raise ValueError("ring needs >= 3 distinct vertices")
    labels = [labels] * len(polygons) if isinstance(labels, str) else list(labels)
    return geodata.Polygons(x, y, offsets, np.cumsum([0, *map(len, polygons)]), labels)


def write_annotations_oracle(polygons, path) -> None:
    """``geodata.Polygons`` as a GeoJSON FeatureCollection, one Polygon
    feature per polygon with its label: the dict tree that
    ``geodata.write_annotations`` once built, written by ``json.dumps``
    (``atomic_write_json``)."""
    from dumpwatch._fileio import atomic_write_json

    features = [
        {
            "type": "Feature",
            "geometry": {
                "type": "Polygon",
                "coordinates": [[[x, y] for x, y in ring] for ring in poly.rings()],
            },
            "properties": {"label": poly.labels[0]},
        }
        for poly in polygons
    ]
    atomic_write_json(path, {"type": "FeatureCollection", "features": features})


def point_in_rings_oracle(rings: list[list[tuple[float, float]]], x: float, y: float) -> bool:
    """Even-odd test counting edge crossings strictly right of the point.

    Matches the scanline rasterizer arithmetic operation for operation so the
    two agree bit for bit on boundary centers.
    """
    crossings = 0
    for ring in rings:
        for (x1, y1), (x2, y2) in zip(ring[:-1], ring[1:]):
            if (y1 > y) != (y2 > y):
                cx = x1 + (y - y1) * (x2 - x1) / (y2 - y1)
                if cx > x:
                    crossings += 1
    return crossings % 2 == 1


def rasterize_oracle(polygons, transform, width: int, height: int) -> np.ndarray:
    """Per-pixel loop over centers; union of per-polygon even-odd interiors."""
    mask = np.zeros((height, width), dtype=np.uint8)
    ring_sets = [poly.rings() for poly in polygons]
    for row in range(height):
        y = transform.origin_y - (row + 0.5) * transform.pixel_height
        for col in range(width):
            x = transform.origin_x + (col + 0.5) * transform.pixel_width
            for rings in ring_sets:
                if point_in_rings_oracle(rings, x, y):
                    mask[row, col] = 1
                    break
    return mask


def iou_oracle(pred: np.ndarray, target: np.ndarray) -> float:
    """Set-based intersection over union; both empty counts as 1."""
    a = {tuple(idx) for idx in np.argwhere(np.asarray(pred) != 0)}
    b = {tuple(idx) for idx in np.argwhere(np.asarray(target) != 0)}
    if not a and not b:
        return 1.0
    return len(a & b) / len(a | b)


def connected_components_oracle(
    binary: np.ndarray, connectivity: int = 8
) -> np.ndarray:
    """BFS flood fill, labels assigned in row-major first-encounter order."""
    binary = np.asarray(binary)
    h, w = binary.shape
    labels = np.zeros((h, w), dtype=np.int32)
    if connectivity == 8:
        offsets = [(-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1)]
    else:
        offsets = [(-1, 0), (0, -1), (0, 1), (1, 0)]
    next_label = 1
    for r0 in range(h):
        for c0 in range(w):
            if binary[r0, c0] == 0 or labels[r0, c0] != 0:
                continue
            labels[r0, c0] = next_label
            queue = deque([(r0, c0)])
            while queue:
                r, c = queue.popleft()
                for dr, dc in offsets:
                    rr, cc = r + dr, c + dc
                    if 0 <= rr < h and 0 <= cc < w:
                        if binary[rr, cc] != 0 and labels[rr, cc] == 0:
                            labels[rr, cc] = next_label
                            queue.append((rr, cc))
            next_label += 1
    return labels


def _cross(a, b, c) -> float:
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def _within_box(a, b, p) -> bool:
    return (
        min(a[0], b[0]) <= p[0] <= max(a[0], b[0])
        and min(a[1], b[1]) <= p[1] <= max(a[1], b[1])
    )


def _segments_touch_oracle(p1, p2, p3, p4) -> bool:
    """Closed-segment intersection by orientation signs, endpoints included."""
    d1, d2 = _cross(p3, p4, p1), _cross(p3, p4, p2)
    d3, d4 = _cross(p1, p2, p3), _cross(p1, p2, p4)
    if d1 * d2 < 0 and d3 * d4 < 0:
        return True
    return (
        (d1 == 0 and _within_box(p3, p4, p1))
        or (d2 == 0 and _within_box(p3, p4, p2))
        or (d3 == 0 and _within_box(p1, p2, p3))
        or (d4 == 0 and _within_box(p1, p2, p4))
    )


def ring_is_simple_oracle(ring) -> bool:
    """Test every pair of non-adjacent segments of a closed ring, O(n^2).

    Adjacent segments are never tested, so a ring that folds back along its
    previous segment passes here; see ring_folds_back_oracle.
    """
    n = len(ring) - 1
    for i in range(n):
        for j in range(i + 1, n):
            if j == i + 1 or (i == 0 and j == n - 1):
                continue
            if _segments_touch_oracle(ring[i], ring[i + 1], ring[j], ring[j + 1]):
                return False
    return True


def ring_folds_back_oracle(ring) -> bool:
    """True when some vertex turns by exactly 180 degrees: its two segments
    are collinear and point in opposite directions.

    Collinearity is (b - a) x (c - a), the orientation of c against the
    segment a-b, as ``geodata`` computes it; (b - a) x (c - b) is the same
    number in exact arithmetic but rounds differently in floats."""
    n = len(ring) - 1
    for k in range(n):
        a, b, c = ring[(k - 1) % n], ring[k], ring[k + 1]
        u = (b[0] - a[0], b[1] - a[1])
        v = (c[0] - b[0], c[1] - b[1])
        if _cross(a, b, c) == 0 and u[0] * v[0] + u[1] * v[1] < 0:
            return True
    return False


# ---------------------------------------------------------------------------
# boundary tracing
# ---------------------------------------------------------------------------


def _split_at_repeats_oracle(walk):
    """Carve a closed walk into vertex-simple rings: each time a vertex
    repeats, the loop since its previous visit becomes its own ring."""
    rings, stack, index = [], [], {}
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


def walks_oracle(pixels, in_comp):
    """Walk one component's exposed pixel sides into closed walks, each
    given as its corners from start back to start; a walk may pass a
    corner twice.

    Sides are directed with the interior kept on one side. Walks start at
    the least remaining corner in (col, row) order and take the least
    remaining side; at a corner with two sides left, the first (in end
    corner order) with a positive cross product against the arriving side.
    """
    out_edges = {}
    for r, c in pixels:
        r, c = int(r), int(c)
        if (r - 1, c) not in in_comp:
            out_edges.setdefault((c, r), []).append((c + 1, r))
        if (r, c + 1) not in in_comp:
            out_edges.setdefault((c + 1, r), []).append((c + 1, r + 1))
        if (r + 1, c) not in in_comp:
            out_edges.setdefault((c + 1, r + 1), []).append((c, r + 1))
        if (r, c - 1) not in in_comp:
            out_edges.setdefault((c, r + 1), []).append((c, r))
    for v in out_edges:
        out_edges[v].sort()
    walks = []
    for start in sorted(out_edges):
        while out_edges[start]:
            ring, current, prev_dir = [start], start, None
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
            walks.append(ring)
    return walks


def _trace_rings_oracle(pixels, in_comp):
    """One component's closed rings: its walks, each split where it
    revisits a corner."""
    return [ring for walk in walks_oracle(pixels, in_comp) for ring in _split_at_repeats_oracle(walk)]


def _collapse_collinear_oracle(ring):
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


def _signed_area2_oracle(ring) -> int:
    return sum(x1 * y2 - x2 * y1 for (x1, y1), (x2, y2) in zip(ring[:-1], ring[1:]))


def _point_in_ring_oracle(px, py, ring) -> bool:
    crossings = 0
    for (x1, y1), (x2, y2) in zip(ring[:-1], ring[1:]):
        if (y1 > py) != (y2 > py):
            if x1 + (py - y1) * (x2 - x1) / (y2 - y1) > px:
                crossings += 1
    return crossings % 2 == 1


class DetectionRecord(NamedTuple):
    """One detection: each of its polygons as a list of closed rings (tuples
    of (x, y), the exterior first, then the holes), pixel count, area and
    mean probability."""

    polygons: list
    pixel_count: int
    area: float
    mean_probability: float


def detection_records(detections) -> list[DetectionRecord]:
    """``detect.Detections`` columns as one record per detection."""
    bounds = detections.offsets.tolist()
    return [
        DetectionRecord(
            [detections.polygons[j].rings() for j in range(a, b)],
            int(detections.pixel_count[k]),
            float(detections.area[k]),
            float(detections.mean_probability[k]),
        )
        for k, (a, b) in enumerate(zip(bounds, bounds[1:]))
    ]


def polygonize_oracle(labels, transform, probabilities=None):
    """One component at a time: the per-component walk that
    ``detect.polygonize`` replaced, kept as its reference. Returns one
    ``DetectionRecord`` per label.

    Rings are the walks above, split where they revisit a corner and
    stripped of collinear corners; positive pixel-space area marks an
    exterior. A component with one exterior takes every hole; otherwise a
    hole goes to the smallest exterior holding the centre of the cell just
    inside its top-left corner. World rings run in reverse, so exteriors
    are counterclockwise in world coordinates.
    """
    from scipy import ndimage

    labels = np.asarray(labels)
    count = int(labels.max()) if labels.size else 0
    pixel_area = transform.pixel_width * transform.pixel_height
    mean_prob = np.full(count + 1, math.nan)
    if probabilities is not None:
        flat = labels.ravel()
        sums = np.bincount(flat, weights=np.asarray(probabilities).ravel(), minlength=count + 1)
        counts = np.bincount(flat, minlength=count + 1)
        with np.errstate(invalid="ignore"):
            mean_prob = sums / np.maximum(counts, 1)

    def world(ring):
        return tuple(
            (
                transform.origin_x + c * transform.pixel_width,
                transform.origin_y - r * transform.pixel_height,
            )
            for c, r in reversed(ring)
        )

    detections = []
    boxes = ndimage.find_objects(labels) if count else []
    for label, box in enumerate(boxes, start=1):
        rows, cols = box or (slice(0, 0), slice(0, 0))
        pixels = np.argwhere(labels[rows, cols] == label) + (rows.start, cols.start)
        in_comp = {(int(r), int(c)) for r, c in pixels}
        rings = [_collapse_collinear_oracle(r) for r in _trace_rings_oracle(pixels, in_comp)]
        exteriors = [(r, _signed_area2_oracle(r)) for r in rings if _signed_area2_oracle(r) > 0]
        holes = [r for r in rings if _signed_area2_oracle(r) <= 0]
        grouped = [(ext, []) for ext, _ in exteriors]
        # each exterior's (min col, max col, min row, max row): a point
        # outside it crosses the ring an even number of times, so skipping
        # those exteriors only saves time on components with thousands
        boxes = [
            (min(c for c, _ in ext), max(c for c, _ in ext), min(r for _, r in ext), max(r for _, r in ext))
            for ext, _ in exteriors
        ]
        for hole in holes:
            if len(grouped) == 1:
                grouped[0][1].append(hole)
                continue
            c_v, r_v = min(hole[:-1], key=lambda v: (v[1], v[0]))
            px, py = c_v + 0.5, r_v + 0.5
            inside = [
                i for i, (ext, _) in enumerate(exteriors)
                if boxes[i][0] < px < boxes[i][1] and boxes[i][2] < py < boxes[i][3]
                and _point_in_ring_oracle(px, py, ext)
            ]
            best = min(inside, key=lambda i: exteriors[i][1]) if inside else 0
            grouped[best][1].append(hole)
        detections.append(
            DetectionRecord(
                polygons=[[world(ext), *map(world, hs)] for ext, hs in grouped],
                pixel_count=len(pixels),
                area=len(pixels) * pixel_area,
                mean_probability=float(mean_prob[label]),
            )
        )
    return detections


def export_geojson_oracle(detections, path) -> None:
    """``DetectionRecord``s as a GeoJSON FeatureCollection: the dict tree
    that ``detect.export_geojson`` once built, written by ``json.dumps``
    (``atomic_write_json``)."""
    from dumpwatch._fileio import atomic_write_json

    features = []
    for det in detections:
        parts = det.polygons
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
                    "mean_probability": None if math.isnan(det.mean_probability) else det.mean_probability,
                    "pixel_count": det.pixel_count,
                },
            }
        )
    atomic_write_json(path, {"type": "FeatureCollection", "features": features})


def predict_raster_oracle(params, config, raster, stats=None, tile=256, overlap=32, batch_size=8):
    """Whole-raster tiled inference: the raster normalized at once, every
    tile cut from it in row-major order and forwarded in batches of
    ``batch_size``, float64 sums and counts over the full raster, NaN where
    any band holds nodata. The model itself is the package's
    (``unet.forward``); only the tiling is independent."""
    from dumpwatch import numerics, unet

    samples = raster.samples
    if raster.nodata is None:
        valid = np.ones(samples.shape[1:], bool)
    elif math.isnan(raster.nodata):
        valid = ~np.isnan(samples).any(axis=0)
    else:
        valid = ~(samples == raster.nodata).any(axis=0)
    data = samples.astype(np.float32, copy=True)
    if stats is not None:
        data = (data - np.asarray(stats.means, np.float32)[:, None, None]) / np.asarray(
            stats.stds, np.float32
        )[:, None, None]
    data[:, ~valid] = 0.0

    def origins(extent):
        if extent <= tile:
            return [0]
        out = list(range(0, extent - tile + 1, tile - overlap))
        return out if out[-1] == extent - tile else out + [extent - tile]

    height, width = valid.shape
    prob_sum = np.zeros((height, width), np.float64)
    count = np.zeros((height, width), np.int32)
    tiles = [(r0, c0) for r0 in origins(height) for c0 in origins(width)]
    for start in range(0, len(tiles), batch_size):
        chunk = tiles[start : start + batch_size]
        windows = []
        for r0, c0 in chunk:
            win = data[:, r0 : r0 + tile, c0 : c0 + tile]
            pads = ((0, 0), (0, tile - win.shape[1]), (0, tile - win.shape[2]))
            windows.append(np.pad(win, pads, mode="reflect"))
        with numerics.no_grad():
            logits = unet.forward(params, config, numerics.Tensor(np.stack(windows)))
        probs = numerics.sigmoid_values(logits.data)[:, 0]
        for j, (r0, c0) in enumerate(chunk):
            wh, ww = min(tile, height - r0), min(tile, width - c0)
            prob_sum[r0 : r0 + wh, c0 : c0 + ww] += probs[j, :wh, :ww]
            count[r0 : r0 + wh, c0 : c0 + ww] += 1
    prob = (prob_sum / count).astype(np.float32)
    prob[~valid] = np.nan
    return prob


# ---------------------------------------------------------------------------
# test-only helpers
# ---------------------------------------------------------------------------


def receptive_field_radius(config) -> int:
    """Exact max distance (in input pixels) that can influence one output pixel.

    Walked backwards through the graph as an interval [lo, hi] of input
    offsets around the output pixel: a 3x3 conv widens each end by 1, 2x2
    pooling maps it to [2*lo, 2*hi + 1] (the pool window covers indices 2p
    and 2p+1), and the stride-2 upsampling maps it to [lo//2, hi//2] since
    output o depends only on input o//2. The window ends up asymmetric
    ([-10, 9] at depth 1); the returned radius is the larger extent, so
    pixels further than this from a perturbation are provably unaffected.
    """
    lo, hi = -1, 1  # output head conv
    for _ in range(config.depth):  # decoder stages, shallowest to deepest
        lo -= 2
        hi += 2
        lo //= 2  # floor handles the negative end exactly
        hi //= 2
    lo -= 2  # bottleneck convs
    hi += 2
    for _ in range(config.depth):  # encoder stages, deepest to shallowest
        lo, hi = 2 * lo, 2 * hi + 1
        lo -= 2
        hi += 2
    return max(-lo, hi)


def rasters_equal(a, b) -> bool:
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


def load_ablation(path) -> list:
    """The rows of an ablation table from its <path>.json."""
    from dumpwatch.training import AblationRow

    rows = json.loads(Path(str(path) + ".json").read_text())
    return [AblationRow(r["label"], r["loss"], r["mean_iou"]) for r in rows]

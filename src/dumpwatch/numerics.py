"""Minimal reverse-mode autodiff over numpy arrays.

Each op computes its forward value eagerly and, when an input needs a
gradient, gives its output a small graph node: a closure that maps the output
gradient to input gradients, and the vertices of the inputs. An input's
vertex is its node, or the tensor itself for a leaf (a tensor no op
produced), since leaves receive ``.grad``. The graph so holds nodes, not op
outputs: an output's array lives only while its Tensor is referenced or a
closure saved it for its gradient. A conv output that only feeds a relu, and
an up-conv output that only feeds a concatenation, are freed during the
forward pass (the ``train`` benchmark's peak RSS fell from 337 to 257 MB).

``backward`` on a scalar loss walks the nodes in reverse topological order
and accumulates gradients into every leaf with ``requires_grad`` set. The
walk consumes the graph: once a node's gradient has been passed to its
parents, the node drops its closure and its parent links, so the arrays the
closures saved are freed as the walk moves down and nothing of the graph
outlives the call. A second backward through a consumed node raises.
Repeated backward calls over fresh graphs keep accumulating into the leaves
until ``zero_grads`` resets them.

The op set is exactly what the segmentation model needs: 3x3 same-padded
convolution, 2x2 max pooling, 2x2 stride-2 transposed convolution, channel
concatenation, relu, a spatial crop, and weighted binary cross-entropy on
logits. A 3x3 convolution reads its input zero-padded into a flat buffer
(the padded layout: ``[batch, ch, (h+2)*(w+2) + 2]``, padded rows end to
end and two trailing zeros) and runs as nine shifted GEMMs, one per kernel
tap, so the heavy lifting stays in BLAS without building patch matrices.
The taps, and the weight gradient's products, run one image and one
L2-sized column block at a time; no block width depends on the batch, so
neither does an image's output. Each block's sum gets its bias while it
is still in cache and lands in the interior of the output's own padded
buffer; the cells it writes past a row's end are then zeroed. So a conv's output, whose
``data`` is the interior view, is already the input the next conv reads
(``Tensor._flat`` keeps the buffer). relu, pooling, the up-conv and
concatenation write this layout too, whether or not a gradient is recorded,
and ``unet.model_input`` writes the network input into a ``padded_tensor``
too: a forward pads nothing, and a conv's weight gradient reads the
buffer its input already holds. Concatenation wraps, without a copy, inputs
that relu and the up-conv wrote into the two channel ranges of one buffer
(the U-Net's skips). Gradients keep the layout: conv's input gradient is the
interior of the buffer its adjoint correlation writes, relu multiplies over
padded buffers, pooling writes a zero-bordered one, and concatenation's
gradient splits one by channel; only a gradient that arrives outside the
layout (the loss's, a sum, the up-conv's input gradient) is padded. With
one input channel, as in the
output conv's input gradient, the taps are broadcast multiplies, not K = 1
GEMMs. 2x2 pooling takes the maximum of column pairs, then of row pairs,
and its gradient finds the first maximum of each window again from the
input and the output, so it stores nothing of its own. The 2x2
transposed convolution is one GEMM of the [4*out, in] taps against the
flattened input, interleaved into the output (bias included) by four
strided copies; its backward runs the same GEMM shapes the other way.
relu's gradient mask is taken from its output when backward runs.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping

import numpy as np

_grad_enabled = True


@contextmanager
def no_grad():
    """Disable graph recording, e.g. for validation and inference passes."""
    global _grad_enabled
    previous = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = previous


class _Node:
    """An op output's vertex in the graph: its gradient closure and the
    vertices of the op's inputs, but not the output's array."""

    __slots__ = ("_grad_fn", "_parents")
    requires_grad = True  # recorded only where some input needs a gradient

    def __init__(self, grad_fn: Callable, parents: tuple):
        self._grad_fn: Callable | None = grad_fn
        self._parents: tuple | None = parents  # None once backward consumed it


class Tensor:
    """A float numpy array with optional gradient tracking.

    An op output that needs a gradient carries a ``_Node``; a leaf carries
    none and is its own vertex in the graph, since backward gives it
    ``.grad``. ``_grad_fn`` and ``_parents`` read the node (a leaf has no
    closure and the parents ``()``), and ``_grad_fn`` can be reassigned.
    ``_flat`` is the padded-layout buffer whose interior ``data`` views, where
    an op wrote one, else None.
    """

    __slots__ = ("data", "requires_grad", "grad", "_node", "_flat")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float32)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._node: _Node | None = None
        self._flat: np.ndarray | None = None

    @property
    def _grad_fn(self) -> Callable | None:
        return None if self._node is None else self._node._grad_fn

    @_grad_fn.setter
    def _grad_fn(self, grad_fn: Callable) -> None:
        self._node._grad_fn = grad_fn

    @property
    def _parents(self) -> tuple | None:
        return () if self._node is None else self._node._parents

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def backward(self) -> None:
        backward(self)

    def sum(self) -> "Tensor":
        shape, dtype = self.data.shape, self.data.dtype
        out = np.asarray(self.data.sum(), dtype=dtype)

        def grad_fn(g):
            return (np.broadcast_to(g, shape).astype(dtype, copy=True),)

        return _record(out, (self,), grad_fn)

    def __add__(self, other):
        other = other if isinstance(other, Tensor) else Tensor(np.asarray(other, self.data.dtype))
        if other.data.shape != self.data.shape and other.data.shape != ():
            raise ValueError(f"shape mismatch: {self.shape} + {other.shape}")
        out = self.data + other.data
        same = other.data.shape == self.data.shape

        def grad_fn(g):
            return g, (g if same else np.asarray(g.sum(), g.dtype))

        return _record(out, (self, other), grad_fn)

    def __mul__(self, other):
        other = other if isinstance(other, Tensor) else Tensor(np.asarray(other, self.data.dtype))
        if other.data.shape != self.data.shape and other.data.shape != ():
            raise ValueError(f"shape mismatch: {self.shape} * {other.shape}")
        out = self.data * other.data

        def grad_fn(g):
            ga = g * other.data
            gb = g * self.data
            if other.data.shape != self.data.shape:
                gb = np.asarray(gb.sum(), g.dtype)
            return ga, gb

        return _record(out, (self, other), grad_fn)

    __radd__ = __add__
    __rmul__ = __mul__

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}{flag})"


def _recording(parents: tuple[Tensor, ...]) -> bool:
    """Whether an op over ``parents`` records a gradient node."""
    return _grad_enabled and any(p.requires_grad for p in parents)


def _record(
    data: np.ndarray, parents: tuple[Tensor, ...], grad_fn, flat: np.ndarray | None = None
) -> Tensor:
    """Wrap an op's output, whose padded-layout buffer is ``flat`` if it has
    one; in grad mode, give it a node over its inputs' vertices. The node
    holds no Tensor but leaves, so an output's array lives only while its
    Tensor is referenced or a closure saved it."""
    out = Tensor(data)
    out._flat = flat
    if _recording(parents):
        out.requires_grad = True
        out._node = _Node(grad_fn, tuple(p._node or p for p in parents))
    return out


def _topo_order(root: Tensor | _Node) -> list[Tensor | _Node]:
    order: list[Tensor | _Node] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor | _Node, bool]] = [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        if node._parents is None:
            raise ValueError(
                "backward reached an op output whose graph an earlier backward "
                "consumed; run the forward pass again"
            )
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            stack.append((parent, False))
    return order


def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/d(tensor) into every requires_grad leaf.

    Leaves are tensors no op produced (no ``_grad_fn``), such as parameters
    and inputs. The walk visits graph nodes and leaves, never an op output's
    Tensor, so outputs no closure saved were freed in the forward pass
    (``train`` peak RSS 337 -> 257 MB). It consumes the graph: each node it
    passes drops its gradient closure and parent links (``_parents`` becomes
    None, which sets it apart from a leaf), so an intermediate's saved
    arrays and gradient are freed once they have reached its parents, and
    its ``.grad`` stays None. A second backward that reaches a consumed node
    raises ValueError; repeated calls over fresh graphs keep accumulating
    into the leaves. Each node's ``_grad_fn`` is read when the walk reaches
    it, so a wrapper assigned to ``out._grad_fn`` is the one called.
    """
    if loss.data.size != 1:
        raise ValueError(f"backward needs a scalar loss, got shape {loss.data.shape}")
    root = loss._node or loss
    order = _topo_order(root)
    grads: dict[int, np.ndarray] = {id(root): np.ones_like(loss.data)}
    while order:
        node = order.pop()
        g = grads.pop(id(node), None)
        # read at walk time: a tracer may have swapped in a wrapper
        grad_fn, parents = node._grad_fn, node._parents
        if grad_fn is None:
            if g is not None and node.requires_grad:
                node.grad = g if node.grad is None else node.grad + g
            continue
        node._grad_fn = node._parents = None
        if g is None:
            continue
        for parent, pg in zip(parents, grad_fn(g)):
            if pg is None or not parent.requires_grad:
                continue
            acc = grads.get(id(parent))
            grads[id(parent)] = pg if acc is None else acc + pg


def zero_grads(params: Iterable[Tensor] | Mapping[str, "Tensor"]) -> None:
    tensors = params.values() if isinstance(params, Mapping) else params
    for t in tensors:
        t.grad = None


# ---------------------------------------------------------------------------
# activations and loss
# ---------------------------------------------------------------------------


def relu(x: Tensor, out: np.ndarray | None = None) -> Tensor:
    """max(x, 0). A 4-D ``x`` is read and written in the padded layout, into
    ``out`` if given (a ``padded_buffer`` of its dtype, or a range of its
    channels); so is its gradient."""
    flat = None
    if x.data.ndim == 4:
        # the zero border stays zero
        flat = np.maximum(_flat_input(x.data, x._flat, x.data.dtype), 0, out=out)
        y = _interior(flat, *x.data.shape[2:])
    else:
        y = np.maximum(x.data, 0)

    def grad_fn(g):
        # g * (y > 0), subgradient 0 at the kink; the multiply keeps the
        # signed zeros the sums downstream see
        if flat is None:
            return (g * (y > 0),)
        gp = _buffer(g, g.base)
        if gp is None:  # padded once, then multiplied in place
            gp = _pad_flat(g, g.dtype)
            np.multiply(gp, flat > 0, out=gp)
        else:
            gp = gp * (flat > 0)
        return (_interior(gp, *y.shape[2:]),)

    return _record(y, (x,), grad_fn, flat)


def sigmoid_values(z: np.ndarray) -> np.ndarray:
    """Stable elementwise logistic, branch by sign so exp never overflows."""
    z = np.asarray(z)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def softplus_values(z: np.ndarray) -> np.ndarray:
    # softplus(z) = max(z, 0) + log1p(exp(-|z|)) stays finite for |z| ~ 1e4
    return np.maximum(z, 0) + np.log1p(np.exp(-np.abs(z)))


def weighted_bce_with_logits(
    logits: Tensor, target: Tensor, pos_weight: float = 1.0
) -> Tensor:
    """Mean of pos_weight*y*softplus(-z) + (1-y)*softplus(z) over all cells.

    The mean divides by the plain cell count regardless of pos_weight, and
    the target is treated as a constant (no gradient flows into it).
    """
    if logits.data.shape != target.data.shape:
        raise ValueError(
            f"logits {logits.data.shape} vs target {target.data.shape}"
        )
    if not pos_weight > 0:
        raise ValueError(f"pos_weight must be > 0, got {pos_weight}")
    y = target.data
    if not np.all((y == 0) | (y == 1)):
        raise ValueError("target must be binary (only 0 and 1)")
    z = logits.data
    per_cell = pos_weight * y * softplus_values(-z) + (1.0 - y) * softplus_values(z)
    out = np.asarray(per_cell.mean(), dtype=z.dtype)
    n = z.size

    def grad_fn(g):
        gz = (g / n) * (
            -pos_weight * y * sigmoid_values(-z) + (1.0 - y) * sigmoid_values(z)
        )
        return gz.astype(z.dtype, copy=False), None

    return _record(out, (logits, target), grad_fn)


# ---------------------------------------------------------------------------
# structural ops
# ---------------------------------------------------------------------------


def concat_channels(a: Tensor, b: Tensor) -> Tensor:
    sa, sb = a.data.shape, b.data.shape
    if len(sa) != 4 or len(sb) != 4:
        raise ValueError("concat_channels expects [batch, ch, h, w] tensors")
    if sa[0] != sb[0] or sa[2:] != sb[2:]:
        raise ValueError(f"incompatible shapes for concat: {sa} vs {sb}")
    ca = sa[1]
    fa, fb = (_flat_input(t.data, t._flat, t.data.dtype) for t in (a, b))
    # adjacent channel ranges of one buffer are wrapped; else the borders
    # line up in a copy
    flat = _joined(fa, fb, *sa[2:])
    if flat is None:
        flat = np.concatenate([fa, fb], axis=1)
    out = _interior(flat, *sa[2:])

    def grad_fn(g):
        return g[:, :ca], g[:, ca:]

    return _record(out, (a, b), grad_fn, flat)


def crop_spatial(x: Tensor, height: int, width: int) -> Tensor:
    """Keep the top-left height x width window; gradient zero-pads back."""
    b, c, h, w = x.data.shape
    if height > h or width > w or height < 1 or width < 1:
        raise ValueError(f"cannot crop {h}x{w} to {height}x{width}")
    out = x.data[:, :, :height, :width].copy()
    shape, dtype = x.data.shape, x.data.dtype

    def grad_fn(g):
        gx = np.zeros(shape, dtype)
        gx[:, :, :height, :width] = g
        return (gx,)

    return _record(out, (x,), grad_fn)


def _grid(flat: np.ndarray, h: int, w: int) -> np.ndarray:
    """The [batch, ch, h, w+2] output grid of a padded-layout buffer of an
    h x w image. Row i starts at the interior's row i; its last two cells
    are the right border of that row and the left border of the next."""
    b, c = flat.shape[:2]
    return flat[:, :, w + 3 : w + 3 + h * (w + 2)].reshape(b, c, h, w + 2)


def _interior(flat: np.ndarray, h: int, w: int) -> np.ndarray:
    """The [batch, ch, h, w] image view of a padded-layout buffer."""
    return _grid(flat, h, w)[..., :w]


def _zero_border(flat: np.ndarray, h: int, w: int) -> np.ndarray:
    """Zero every cell of a padded-layout buffer outside its interior: the
    top row and the next row's left border, the wrap-around cells of each
    grid row (through the first cell of the bottom row), and the rest of the
    bottom row with the two trailing cells. Returns ``flat``."""
    grid = _grid(flat, h, w)
    flat[:, :, : w + 3] = 0
    grid[..., w] = grid[..., w + 1] = 0  # one strided loop per channel each
    flat[:, :, w + 3 + h * (w + 2) :] = 0
    return flat


def padded_buffer(b: int, c: int, h: int, w: int, dtype) -> np.ndarray:
    """An uninitialized [b, c, (h+2)*(w+2) + 2] buffer for a [b, c, h, w]
    activation in the padded layout. relu and the up-conv write all of one
    given as ``out``, border included, so a U-Net stage's skip and the
    up-conv can write the two channel ranges that concatenation wraps."""
    return np.empty((b, c, (h + 2) * (w + 2) + 2), dtype)


def _pad_flat(a: np.ndarray, dtype) -> np.ndarray:
    """[batch, ch, h, w] -> [batch, ch, (h+2)*(w+2) + 2] under zero padding 1:
    the padded layout.

    Rows of the padded image are laid end to end; the two trailing zeros keep
    the last tap's slice in _correlate3 inside the buffer.
    """
    b, c, h, w = a.shape
    ap = np.zeros((b, c, (h + 2) * (w + 2) + 2), dtype=dtype)
    _interior(ap, h, w)[...] = a
    return ap


def _channel_range(owner, start: int, c: int, h: int, w: int) -> np.ndarray | None:
    """The ``c`` channels from address ``start`` on of ``owner``, an array
    shaped as a padded-layout buffer of h x w images: ``owner`` itself, or
    a view of a range of its channels. None where there is no such range."""
    if not isinstance(owner, np.ndarray) or owner.ndim != 3 or owner.shape[2] != (h + 2) * (w + 2) + 2:
        return None
    if owner.strides[1] <= 0:  # a broadcast or reversed array holds no buffer
        return None
    c0, rest = divmod(start - owner.ctypes.data, owner.strides[1])
    if rest or c0 < 0 or c0 + c > owner.shape[1]:
        return None
    return owner if (c0, c) == (0, owner.shape[1]) else owner[:, c0 : c0 + c]


def _buffer(data: np.ndarray, owner) -> np.ndarray | None:
    """The padded-layout buffer whose interior view [batch, ch, h, w]
    ``data`` is exactly: ``owner``, or a range of its channels (as
    concatenation's gradient splits one). None if ``data`` is not such a
    view, for example after it was re-sliced, which keeps the buffer but
    not its geometry."""
    b, c, h, w = data.shape
    flat = _channel_range(owner, data.ctypes.data - (w + 3) * data.itemsize, c, h, w)
    if flat is None or flat.shape[0] != b or flat.dtype != data.dtype:
        return None
    view = _interior(flat, h, w)
    # the same cells: a stride along an axis of one element is never used
    if view.ctypes.data != data.ctypes.data or any(
        n > 1 and s != t for n, s, t in zip(data.shape, view.strides, data.strides)
    ):
        return None
    return flat


def _flat_input(data: np.ndarray, owner, dtype) -> np.ndarray:
    """[batch, ch, h, w] ``data`` in the padded layout and ``dtype``: the
    buffer of ``owner`` it is the interior of (``_buffer``), or a padded
    copy. An activation's owner is the ``Tensor._flat`` an op wrote; a
    gradient's is its ``base``, which has a buffer's shape only where an op
    wrote the padded layout, border zeroed."""
    flat = _buffer(data, owner)
    return flat if flat is not None and flat.dtype == dtype else _pad_flat(data, dtype)


def _joined(fa: np.ndarray, fb: np.ndarray, h: int, w: int) -> np.ndarray | None:
    """The buffer whose channels are those of the padded-layout buffers
    ``fa`` then ``fb``, where they are adjacent channel ranges of one."""
    if fa.strides != fb.strides or fb.ctypes.data != fa.ctypes.data + fa.shape[1] * fa.strides[1]:
        return None
    flat = _channel_range(fa.base, fa.ctypes.data, fa.shape[1] + fb.shape[1], h, w)
    return flat if flat is not None and flat.strides == fa.strides else None


def padded_tensor(b: int, c: int, h: int, w: int, dtype) -> Tensor:
    """An empty [b, c, h, w] leaf Tensor whose ``data`` is the interior of
    a zero-bordered padded-layout buffer (its ``_flat``), for a caller or an
    op to fill: a conv reads that buffer in place, forward and for its
    weight gradient."""
    flat = _zero_border(padded_buffer(b, c, h, w, dtype), h, w)
    return _record(_interior(flat, h, w), (), None, flat)


def _channel_sums(g: np.ndarray) -> np.ndarray:
    """``g.sum(axis=(0, 2, 3))`` with the bits of that sum over a contiguous
    ``g``: for a padded-layout ``g``, one image at a time in contiguous
    scratch, since numpy sums each (image, channel) run pairwise and adds
    the runs in image order. With one channel it sums the whole batch as
    one run, so that takes a contiguous copy of it."""
    if g.flags.c_contiguous or g.shape[1] == 1:
        return np.ascontiguousarray(g).sum(axis=(0, 2, 3))
    scratch, total = np.empty(g.shape[1:], g.dtype), None
    for gi in g:
        scratch[...] = gi
        sums = scratch.sum(axis=(1, 2))
        total = sums if total is None else np.add(total, sums, out=total)
    return total


def _tap_offsets(w: int) -> list[int]:
    """Start of tap (ki, kj)'s slice in a _pad_flat row of width w + 2."""
    return [ki * (w + 2) + kj for ki in range(3) for kj in range(3)]


def _column_blocks(cin: int, cout: int, n: int, itemsize: int) -> list[tuple[int, int]]:
    """[start, end) blocks of an n-column grid whose input, product and sum
    take about 1 MiB, so the nine taps over one stay in L2 (Goto and van de
    Geijn's cache blocking, around BLAS). Widths are multiples of 64 and
    ignore the batch size. Below 4096 columns a GEMM takes OpenBLAS's
    small-matrix path and rounds differently, so the last block absorbs a
    narrower remainder."""
    width = max(4096, (1 << 20) // ((cin + 2 * cout) * itemsize) // 64 * 64)
    edges = [*range(0, n, width), n]
    if len(edges) > 2 and n - edges[-2] < 4096:
        del edges[-2]
    return list(zip(edges[:-1], edges[1:]))


def _correlate3(
    ap: np.ndarray, taps: np.ndarray, h: int, w: int, bias: np.ndarray | None = None
) -> np.ndarray:
    """3x3 correlation of a _pad_flat input with taps [9, out, in], in row-major
    (ki, kj) order, as nine shifted GEMMs, plus ``bias`` [out] if given;
    returned in the padded layout, its border not set.

    Output pixel (i, j) sits at i*(w+2) + j on an h x (w+2) grid, and tap
    (ki, kj) reads the contiguous slice starting ki*(w+2) + kj later. That
    grid is ``_grid`` of the output buffer, so the sums land in its interior
    and the two wrap-around columns per row on its border (``_zero_border``
    clears them). The taps run one image and one ``_column_blocks`` block at
    a time, in cache, and each block gets its bias there.
    """
    (b, cin), cout, n = ap.shape[:2], taps.shape[1], h * (w + 2)
    # With one input channel (K = 1) each tap is an outer product, which a
    # broadcast multiply computes ~5x faster than OpenBLAS's GEMM, with the
    # same rounding. The GEMM sums from +0.0, so a -0.0 product comes out
    # +0.0: adding 0.0 to the first tap keeps that sign, and the bits.
    product = np.multiply if cin == 1 else np.matmul
    flat = np.empty((b, cout, (h + 2) * (w + 2) + 2), dtype=np.result_type(ap, taps))
    grid = flat[:, :, w + 3 : w + 3 + n]  # _grid, flattened
    blocks = _column_blocks(cin, cout, n, flat.itemsize)
    # A block's sum builds in contiguous scratch, where each add is one loop
    # however short the grid's rows, and goes to the grid once, with its bias.
    scratch = np.empty((2, cout * max(c1 - c0 for c0, c1 in blocks)), dtype=flat.dtype)
    for i in range(b):
        for c0, c1 in blocks:
            acc, part = (a[: cout * (c1 - c0)].reshape(cout, c1 - c0) for a in scratch)
            product(taps[0], ap[i, :, c0:c1], out=acc)
            if product is np.multiply:
                acc += 0.0
            for t, off in enumerate(_tap_offsets(w)[1:], start=1):
                product(taps[t], ap[i, :, off + c0 : off + c1], out=part)
                acc += part
            if bias is None:
                grid[i, :, c0:c1] = acc
            else:
                np.add(acc, bias[:, None], out=grid[i, :, c0:c1])
    return flat


def conv2d(x: Tensor, kernel: Tensor, bias: Tensor) -> Tensor:
    """3x3 cross-correlation, stride 1, zero padding 1 (same-size output).

    kernel is [out_ch, in_ch, 3, 3]; bias is [out_ch]. The input is read in
    the padded layout: ``x._flat`` where an op or ``padded_tensor`` made
    one, else a padded copy that is not kept. The output is written in that
    layout, bias added block by block, and its ``data`` is the interior view. So is the gradient:
    ``g`` is read from the buffer it is the interior of (a gradient outside
    the layout is padded), and the input gradient is the interior of the
    zero-bordered buffer the adjoint correlation writes.
    """
    _, cin, h, w = x.data.shape
    if kernel.data.ndim != 4 or kernel.data.shape[2:] != (3, 3):
        raise ValueError(f"kernel must be [out, in, 3, 3], got {kernel.data.shape}")
    cout, ck = kernel.data.shape[:2]
    if ck != cin:
        raise ValueError(f"kernel expects {ck} input channels, input has {cin}")
    if bias.data.shape != (cout,):
        raise ValueError(f"bias shape {bias.data.shape} != ({cout},)")
    dtype = np.result_type(x.data, kernel.data, bias.data)
    taps = np.ascontiguousarray(
        kernel.data.reshape(cout, cin, 9).transpose(2, 0, 1), dtype=dtype
    )
    flat = _correlate3(_flat_input(x.data, x._flat, dtype), taps, h, w, bias.data.astype(dtype))
    out = _interior(_zero_border(flat, h, w), h, w)

    def grad_fn(g):
        gp = _flat_input(g, g.base, dtype)
        gw = None
        if kernel.requires_grad:
            xp = _flat_input(x.data, x._flat, dtype)
            # g on the output grid; the wrap-around columns read zero padding
            n = h * (w + 2)
            gout = gp[:, :, w + 3 : w + 3 + n]
            per_image = np.empty((len(g), 9, cout, cin), dtype=dtype)
            for i, gi in enumerate(gout):
                for t, off in enumerate(_tap_offsets(w)):
                    np.matmul(gi, xp[i, :, off : off + n].T, out=per_image[i, t])
            gw = per_image.sum(axis=0).transpose(1, 2, 0).reshape(kernel.data.shape)
        gx = None
        if x.requires_grad:
            # the adjoint correlates g with the flipped, transposed taps
            gflat = _correlate3(gp, taps[::-1].transpose(0, 2, 1), h, w)
            gx = _interior(_zero_border(gflat, h, w), h, w)
        gb = _channel_sums(g) if bias.requires_grad else None
        return gx, gw, gb

    return _record(out, (x, kernel, bias), grad_fn, flat)


def max_pool_2x2(x: Tensor) -> Tensor:
    """2x2 max pooling, stride 2. Ties route the gradient to the first
    maximum in row-major window order."""
    b, c, h, w = x.data.shape
    if h % 2 or w % 2:
        raise ValueError(f"spatial dims must be even for 2x2 pooling, got {h}x{w}")
    xd = x.data
    corners = ((0, 0), (0, 1), (1, 0), (1, 1))  # row-major window order
    views = [xd[:, :, dy::2, dx::2] for dy, dx in corners]
    # Column pairs, then row pairs, each with the later one first:
    # np.maximum returns its second argument on a tie, so a window keeps its
    # first maximum (and a window of -0.0 and 0.0 its sign). The column pass
    # runs over whole rows of the padded layout, whose two border cells pair
    # to a zero column the row pass drops: so its rows are one strided loop.
    rows = _grid(_flat_input(xd, x._flat, xd.dtype), h, w)
    cols = np.maximum(rows[..., 1::2], rows[..., 0::2])
    y = padded_tensor(b, c, h // 2, w // 2, xd.dtype)
    out = np.maximum(cols[:, :, 1::2, : w // 2], cols[:, :, 0::2, : w // 2], out=y.data)

    def grad_fn(g):
        # Each view of gx gets g's bits where its element is the window's
        # first maximum and zero bits elsewhere. An integer AND with an
        # all-ones or all-zeros mask keeps both exact (g * mask would write
        # -0.0 for a negative g) and is far faster than a masked copy.
        bits = np.dtype(f"u{xd.itemsize}")
        gbits = np.asarray(g, dtype=xd.dtype).view(bits)
        gx = padded_tensor(*xd.shape, xd.dtype).data
        taken = np.zeros(out.shape, dtype=bool)
        for k, (dy, dx) in enumerate(corners):
            # the maximum is one of the four: what is left is the last one's
            hit = ~taken if k == 3 else (views[k] == out) & ~taken
            keep = np.subtract(0, hit, dtype=bits)  # True -> all ones
            np.bitwise_and(gbits, keep, out=gx[:, :, dy::2, dx::2].view(bits))
            taken |= hit
        return (gx,)

    return _record(out, (x,), grad_fn, y._flat)


def transposed_conv_2x2(
    x: Tensor, kernel: Tensor, bias: Tensor, out: np.ndarray | None = None
) -> Tensor:
    """2x2 stride-2 transposed convolution (learned 2x upsampling).

    kernel is [in_ch, out_ch, 2, 2]; output is [batch, out_ch, 2h, 2w] with
    out[b, o, 2i+dy, 2j+dx] = sum_c x[b, c, i, j] * kernel[c, o, dy, dx].
    Adjoint of a 2x2 stride-2 convolution; windows never overlap, so one
    GEMM of the [4*out_ch, in_ch] taps against the flattened input gives
    every output pixel, and four strided copies interleave the taps. The
    output is written in the padded layout, into ``out`` if given (a
    ``padded_buffer`` or a range of its channels, of the output's dtype).
    """
    b, cin, h, w = x.data.shape
    if kernel.data.ndim != 4 or kernel.data.shape[2:] != (2, 2):
        raise ValueError(f"kernel must be [in, out, 2, 2], got {kernel.data.shape}")
    ck, cout = kernel.data.shape[:2]
    if ck != cin:
        raise ValueError(f"kernel expects {ck} input channels, input has {cin}")
    if bias.data.shape != (cout,):
        raise ValueError(f"bias shape {bias.data.shape} != ({cout},)")
    # rows in (dy, dx, o) order
    taps = kernel.data.transpose(2, 3, 1, 0).reshape(4 * cout, cin)
    y = np.matmul(taps, x.data.reshape(b, cin, h * w)).reshape(b, 2, 2, cout, h, w)
    dtype = np.result_type(y, bias.data)
    if out is None:
        out = padded_buffer(b, cout, 2 * h, 2 * w, dtype)
    elif out.shape != (b, cout, (2 * h + 2) * (2 * w + 2) + 2) or out.dtype != dtype:
        raise ValueError(f"out must be a {dtype} padded-layout buffer for {(b, cout, 2 * h, 2 * w)}")
    flat = _zero_border(out, 2 * h, 2 * w)
    up = _interior(flat, 2 * h, 2 * w)
    out6 = up.reshape(b, cout, h, 2, w, 2)  # a view of the padded interior
    bias3 = bias.data[:, None, None]
    for dy in (0, 1):
        for dx in (0, 1):
            np.add(y[:, dy, dx], bias3, out=out6[:, :, :, dy, :, dx])

    def grad_fn(g):
        g6 = g.reshape(b, cout, h, 2, w, 2)
        gt = np.empty((b, 2, 2, cout, h, w), dtype=g.dtype)
        for dy in (0, 1):
            for dx in (0, 1):
                gt[:, dy, dx] = g6[:, :, :, dy, :, dx]
        gt = gt.reshape(b, 4 * cout, h * w)
        gx = None
        if x.requires_grad:
            gx = np.matmul(taps.T, gt).reshape(b, cin, h, w)
        gk = None
        if kernel.requires_grad:
            gk = np.matmul(gt, x.data.reshape(b, cin, h * w).transpose(0, 2, 1)).sum(axis=0)
            gk = gk.reshape(2, 2, cout, cin).transpose(3, 2, 0, 1)
        gb = _channel_sums(g) if bias.requires_grad else None
        return gx, gk, gb

    return _record(up, (x, kernel, bias), grad_fn, flat)


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------


@dataclass
class AdamState:
    """Adam moments and step counter, keyed by parameter name."""

    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    step: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)


def adam_step(params: Mapping[str, Tensor], state: AdamState) -> None:
    """One bias-corrected Adam update in place; gradients are left alone."""
    for name, p in params.items():
        if p.grad is None:
            raise ValueError(f"parameter {name!r} has no gradient")
    state.step += 1
    c1 = 1.0 - state.beta1**state.step
    c2 = 1.0 - state.beta2**state.step
    for name, p in params.items():
        g = p.grad
        m = state.m.get(name)
        v = state.v.get(name)
        m = (1.0 - state.beta1) * g if m is None else state.beta1 * m + (1.0 - state.beta1) * g
        v = (1.0 - state.beta2) * (g * g) if v is None else state.beta2 * v + (1.0 - state.beta2) * (g * g)
        state.m[name] = m
        state.v[name] = v
        p.data = p.data - state.learning_rate * (m / c1) / (np.sqrt(v / c2) + state.epsilon)

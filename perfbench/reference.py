"""A plain numpy U-Net forward pass and tiled probability, in float64.

Written from the architecture and inference rules in the dumpwatch README,
not from its code: its own 3x3 convolution, 2x2 pooling and 2x2 stride-2
upsampling. The ``scene`` check compares the program's probabilities with
this at sampled pixels.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np


def load_checkpoint(base: Path) -> tuple[dict, dict]:
    """Manifest and float64 parameters of a ``<base>.json`` + ``.bin`` pair."""
    manifest = json.loads(Path(str(base) + ".json").read_text())
    flat = np.fromfile(str(base) + ".bin", dtype="<f4").astype(np.float64)
    params, offset = {}, 0
    for name, shape in manifest["schema"]:
        size = int(np.prod(shape))
        params[name] = flat[offset : offset + size].reshape(shape)
        offset += size
    if offset != flat.size:
        raise ValueError(f"{base}.bin holds {flat.size} values, schema needs {offset}")
    return manifest, params


def conv3x3(x: np.ndarray, kernel: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Zero-padded 3x3 cross-correlation of x [c, h, w] with kernel [o, c, 3, 3]."""
    _, h, w = x.shape
    padded = np.pad(x, ((0, 0), (1, 1), (1, 1)))
    out = np.zeros((kernel.shape[0], h, w))
    for i in range(3):
        for j in range(3):
            out += np.tensordot(kernel[:, :, i, j], padded[:, i : i + h, j : j + w], axes=(1, 0))
    return out + bias[:, None, None]


def pool2x2(x: np.ndarray) -> np.ndarray:
    c, h, w = x.shape
    return x.reshape(c, h // 2, 2, w // 2, 2).max(axis=(2, 4))


def upsample2x2(x: np.ndarray, kernel: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """out[o, 2i+a, 2j+b] = sum_c x[c, i, j] * kernel[c, o, a, b] + bias[o]."""
    _, h, w = x.shape
    out = np.einsum("cij,coab->oiajb", x, kernel).reshape(kernel.shape[1], 2 * h, 2 * w)
    return out + bias[:, None, None]


def forward(params: dict, depth: int, x: np.ndarray) -> np.ndarray:
    """Logits [h, w] of one tile x [c, h, w]."""

    def double(prefix, v):
        v = np.maximum(conv3x3(v, params[f"{prefix}.conv1.weight"], params[f"{prefix}.conv1.bias"]), 0)
        return np.maximum(conv3x3(v, params[f"{prefix}.conv2.weight"], params[f"{prefix}.conv2.bias"]), 0)

    skips = []
    for i in range(depth):
        x = double(f"enc{i}", x)
        skips.append(x)
        x = pool2x2(x)
    x = double("bottleneck", x)
    for i in reversed(range(depth)):
        x = upsample2x2(x, params[f"dec{i}.up.weight"], params[f"dec{i}.up.bias"])
        x = double(f"dec{i}", np.concatenate([x, skips[i]]))
    return conv3x3(x, params["head.weight"], params["head.bias"])[0]


def tile_origins(extent: int, tile: int, overlap: int) -> list[int]:
    """Tiles step by tile - overlap; the last one sits flush with the edge."""
    origins = list(range(0, extent - tile + 1, tile - overlap))
    if origins[-1] != extent - tile:
        origins.append(extent - tile)
    return origins


def model_input(source: np.ndarray, means, stds) -> np.ndarray:
    """Bands R, G, B, NIR, SWIR1, NDSW from the six source bands, normalized,
    with nodata pixels set to 0 (the band mean)."""
    r, g, b, nir, s1, s2 = source.astype(np.float64)
    total = s1 + s2
    with np.errstate(divide="ignore", invalid="ignore"):
        ndsw = np.where(np.abs(total) < 1e-12, 0.0, (s1 - s2) / total)
    x = np.stack([r, g, b, nir, s1, ndsw])
    x = (x - np.asarray(means)[:, None, None]) / np.asarray(stds)[:, None, None]
    x[:, np.isnan(source).any(axis=0)] = 0.0
    return x


def probabilities(params, depth, x, tile, overlap, pixels) -> list[float]:
    """Mean sigmoid over every tile covering each (row, col) in ``pixels``."""
    _, height, width = x.shape
    if height < tile or width < tile:
        raise ValueError("reference handles rasters at least one tile in size")
    rows = tile_origins(height, tile, overlap)
    cols = tile_origins(width, tile, overlap)
    cache = {}
    out = []
    for r, c in pixels:
        probs = []
        for r0 in (o for o in rows if o <= r < o + tile):
            for c0 in (o for o in cols if o <= c < o + tile):
                if (r0, c0) not in cache:
                    logits = forward(params, depth, x[:, r0 : r0 + tile, c0 : c0 + tile])
                    cache[(r0, c0)] = 1.0 / (1.0 + np.exp(-logits))
                probs.append(cache[(r0, c0)][r - r0, c - c0])
        out.append(float(np.mean(probs)))
    return out

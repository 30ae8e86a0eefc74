"""Seeded inputs for the benchmark workloads.

Scenes come from dumpwatch's own synthetic generator, so set-up time moves
with ``dataset.generate_synthetic``. The ``vectorize`` probability field is
drawn here, with a layout that fixes its component count and the vertex
count of its largest ring whatever the seed, so that every seed asks for
the same amount of work.
"""

from __future__ import annotations

import hashlib
import math
from pathlib import Path

import numpy as np

from dumpwatch import dataset, geodata

# The nodata scene set does not depend on --seed: with this scene and chip
# seed, a chip holding the NaN patch lands in the training split, so the
# NaN reaches fit_normalization every time.
NODATA_SCENE_SEED = 0
NODATA_CHIP_SEED = 0
NODATA_SCENE_SIZE = 96
NODATA_PATCH = (4, slice(30, 34), slice(30, 34))  # SWIR1 band, 4x4 pixels

SPECKLE_PITCH = 3  # 2x2 cell plus a one-pixel gap keeps speckles apart


def substream(seed: int, name: str) -> int:
    digest = hashlib.sha256(f"perfbench/{seed}/{name}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def write_scene(raster, polygons, base: Path) -> None:
    geodata.write_raster(raster, base)
    geodata.write_annotations(polygons, str(base) + ".geojson")


def train_scenes(seed: int, out_dir: Path, count: int, size: int, dumps: int) -> None:
    for i in range(count):
        cfg = dataset.SynthConfig(
            scene_size=size,
            dump_count=dumps,
            background_texture_seed=substream(seed, f"train.{i}"),
        )
        write_scene(*dataset.generate_synthetic(cfg), out_dir / f"scene_{i:03d}")


def nodata_scene(out_dir: Path) -> None:
    cfg = dataset.SynthConfig(
        scene_size=NODATA_SCENE_SIZE,
        dump_count=2,
        background_texture_seed=NODATA_SCENE_SEED,
    )
    raster, polygons = dataset.generate_synthetic(cfg)
    raster.samples[NODATA_PATCH] = np.nan
    write_scene(raster, polygons, out_dir / "scene_000")


def detection_scene(seed: int, base: Path, size: int, dumps: int, patch: int):
    """One large scene with a NaN patch in one seeded band and place;
    returns the truth polygons."""
    cfg = dataset.SynthConfig(
        scene_size=size,
        dump_count=dumps,
        background_texture_seed=substream(seed, "scene"),
    )
    raster, polygons = dataset.generate_synthetic(cfg)
    rng = np.random.default_rng(substream(seed, "scene.nodata"))
    band = int(rng.integers(0, raster.band_count))
    row, col = (int(v) for v in rng.integers(0, size - patch, 2))
    raster.samples[band, row : row + patch, col : col + patch] = np.nan
    write_scene(raster, polygons, base)
    return polygons


def speckle_field(seed: int, size: int, speckles: int, teeth: int, tooth_max: int):
    """Probability field: a two-sided comb spanning the grid, then speckles.

    The comb's spine runs the full width at row ``tooth_max``; teeth one
    pixel wide and one pixel apart rise and fall from it with seeded
    lengths in [1, tooth_max]. Its single ring has 4 vertices per tooth
    whatever the lengths. Below it, ``speckles`` slots of a pitch-3
    lattice each hold a seeded non-empty subset of a 2x2 cell, one
    8-connected component per slot. Foreground cells draw probabilities
    in [0.5, 1), background in [0, 0.5).
    """
    rng = np.random.default_rng(substream(seed, "vectorize"))
    fg = np.zeros((size, size), dtype=bool)
    spine = tooth_max
    fg[spine, :] = True
    per_side = teeth // 2
    if 2 * per_side > size:
        raise ValueError("comb teeth do not fit the grid width")
    up = rng.integers(1, tooth_max + 1, per_side)
    down = rng.integers(1, tooth_max + 1, per_side)
    for k in range(per_side):
        col = 2 * k
        fg[spine - up[k] : spine, col] = True
        fg[spine + 1 : spine + 1 + down[k], col] = True
    top = spine + tooth_max + 2
    slot_rows = (size - top) // SPECKLE_PITCH
    slot_cols = size // SPECKLE_PITCH
    if speckles > slot_rows * slot_cols:
        raise ValueError("speckles do not fit the grid")
    slots = rng.choice(slot_rows * slot_cols, speckles, replace=False)
    patterns = rng.integers(1, 16, speckles)  # non-empty 2x2 subsets
    for slot, bits in zip(slots, patterns):
        r = top + SPECKLE_PITCH * (slot // slot_cols)
        c = SPECKLE_PITCH * (slot % slot_cols)
        for k, (dr, dc) in enumerate(((0, 0), (0, 1), (1, 0), (1, 1))):
            if bits >> k & 1:
                fg[r + dr, c + dc] = True
    high = rng.uniform(0.5, 1.0, fg.shape).astype(np.float32)
    # a draw just below 0.5 can round to 0.5 in float32; keep it background
    low = np.minimum(
        rng.uniform(0.0, 0.5, fg.shape).astype(np.float32),
        np.nextafter(np.float32(0.5), np.float32(0.0)),
    )
    prob = np.where(fg, high, low)
    transform = geodata.GeoTransform(500000.0, 4200000.0, 10.0, 10.0)
    return geodata.Raster(prob[None], transform, nodata=math.nan, band_names=("probability",))

"""Training-data preparation: band stacks, masks, chips, splits, synthesis.

The default model input is a six-band stack [R, G, B, NIR, SWIR1, NDSW]
where NDSW = (SWIR1 - SWIR2) / (SWIR1 + SWIR2) is a normalized-difference
index computed from the two shortwave-infrared bands. SWIR2 itself enters
the stack only through the index.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import warnings
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Literal

import numpy as np

from . import geodata
from ._fileio import atomic_write_json, read_document, shown
from .geodata import GeoTransform, Polygons, Raster

NDSW_BAND = "NDSW"
SOURCE_BANDS = ("R", "G", "B", "NIR", "SWIR1", "SWIR2")
DEFAULT_BAND_SPEC = ("R", "G", "B", "NIR", "SWIR1", NDSW_BAND)

# Band subsets for the input ablation, in presentation order.
ABLATION_SPECS: dict[str, tuple[str, ...]] = {
    "RGB": ("R", "G", "B"),
    "RGB-NIR": ("R", "G", "B", "NIR"),
    "RGB-NIR-SWIR": ("R", "G", "B", "NIR", "SWIR1"),
    "RGB-NIR-SWIR-NDSW": DEFAULT_BAND_SPEC,
}

_NDSW_EPS = 1e-12

CATALOG_FORMAT = "dumpwatch.catalog"
CATALOG_FORMAT_VERSION = 2
SPLITS = ("train", "val", "test")


def compute_ndsw(
    swir1: np.ndarray, swir2: np.ndarray, nodata: float | None = None
) -> np.ndarray:
    """Normalized difference of the shortwave bands, in [-1, 1].

    Cells where |SWIR1 + SWIR2| < 1e-12 map to 0; nodata in either input
    propagates to the output.
    """
    s1 = np.asarray(swir1, dtype=np.float32)
    s2 = np.asarray(swir2, dtype=np.float32)
    if s1.shape != s2.shape:
        raise ValueError(f"band shapes differ: {s1.shape} vs {s2.shape}")
    total = s1 + s2
    degenerate = np.abs(total) < _NDSW_EPS
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(degenerate, np.float32(0.0), (s1 - s2) / total)
    if nodata is not None:
        if math.isnan(nodata):
            invalid = np.isnan(s1) | np.isnan(s2)
            out = np.where(invalid, np.float32(math.nan), out)
        else:
            invalid = (s1 == nodata) | (s2 == nodata)
            out = np.where(invalid, np.float32(nodata), out)
    return out.astype(np.float32)


def stack_bands(source: Raster, spec: tuple[str, ...] = DEFAULT_BAND_SPEC) -> Raster:
    """Assemble a model-input raster from named source bands.

    Every entry in ``spec`` names a source band except ``"NDSW"``, which is
    derived from SWIR1 and SWIR2.
    """
    if not spec:
        raise ValueError("band spec is empty")
    if source.band_names is None:
        raise ValueError("source raster has no band names")
    layers = [
        source.band(name) if name != NDSW_BAND
        else compute_ndsw(source.band("SWIR1"), source.band("SWIR2"), source.nodata)
        for name in spec
    ]
    return Raster(np.stack(layers), source.transform, nodata=source.nodata, band_names=tuple(spec))


def stacked_rows(source, r0: int, r1: int, bands: tuple[str, ...] | None) -> Raster:
    """Rows ``r0`` to ``r1`` of ``source`` (a ``Raster`` or an open
    ``geodata.RasterReader``), stacked to ``bands`` when given."""
    transform = geodata.shift_transform(source.transform, 0, r0)
    rows = Raster(source.read_rows(r0, r1), transform, source.nodata, source.band_names)
    return stack_bands(rows, bands) if bands else rows


# ---------------------------------------------------------------------------
# rasterization (pixel-center, even-odd)
# ---------------------------------------------------------------------------


def rasterize_mask(
    polygons: Polygons,
    transform: GeoTransform,
    width: int,
    height: int,
) -> np.ndarray:
    """Burn polygons into a uint8 [row, col] mask.

    A pixel is 1 when its center is inside any polygon under the even-odd
    rule; holes subtract. Centers exactly on a boundary edge follow the
    half-open ray-crossing convention (crossings strictly right of the
    center are counted), applied identically here and in any point test.

    Each edge crosses the rows whose center y lies in [its lower y, its
    upper y), at x1 + (y - y1) * (x2 - x1) / (y2 - y1). A polygon's rings
    cross a row an even number of times, so its crossings of that row,
    sorted, pair up into the spans of columns whose centers lie inside it,
    and a pixel any span covers is 1.
    """
    if width <= 0 or height <= 0:
        raise ValueError("mask dimensions must be positive")
    centers_x = transform.origin_x + (np.arange(width) + 0.5) * transform.pixel_width
    centers_y = transform.origin_y - (np.arange(height) + 0.5) * transform.pixel_height
    x, y, ring_offsets = polygons.x, polygons.y, polygons.ring_offsets
    succ = np.arange(1, len(x) + 1)
    succ[ring_offsets[1:] - 1] = ring_offsets[:-1]  # each ring's last edge closes it
    # centers_y falls row by row, so -centers_y is sorted
    first = np.searchsorted(-centers_y, -np.maximum(y, y[succ]), "right")
    count = np.searchsorted(-centers_y, -np.minimum(y, y[succ]), "right") - first
    edge = np.repeat(np.arange(len(x)), count)
    row = first[edge] + np.arange(len(edge)) - np.repeat(np.cumsum(count) - count, count)
    x1, y1, x2, y2 = x[edge], y[edge], x[succ[edge]], y[succ[edge]]
    y = centers_y[row]
    col = np.searchsorted(centers_x, x1 + (y - y1) * (x2 - x1) / (y2 - y1))  # centers left of it
    polygon = np.searchsorted(ring_offsets[polygons.polygon_offsets], edge, "right") - 1
    order = np.lexsort((col, row, polygon))
    start, length = col[order[0::2]], col[order[1::2]] - col[order[0::2]]
    # every span's pixels in row-major order: its first pixel, then the next ones
    pixel = np.repeat(row[order[0::2]] * width + start - np.cumsum(length) + length, length)
    mask = np.zeros(height * width, dtype=np.uint8)
    mask[pixel + np.arange(len(pixel))] = 1
    return mask.reshape(height, width)


# ---------------------------------------------------------------------------
# chips and splits
# ---------------------------------------------------------------------------


@dataclass
class Chip:
    """One training window of a scene: its samples and binary mask, views of
    the row slab and mask it was cut from or copies of them (write into
    neither; see ``cut_windows``), and its place in the scene."""

    samples: np.ndarray  # [band, size, size] float32
    mask: np.ndarray  # [size, size] uint8
    origin: tuple[int, int]  # (col, row) in the source raster
    band_names: tuple[str, ...] | None = None
    scene_id: str = ""

    @property
    def size(self) -> int:
        return self.mask.shape[0]

    def is_positive(self) -> bool:
        return bool(self.mask.any())


def extract_chips(
    image,
    mask: np.ndarray,
    chip_size: int,
    stride: int,
    negatives_per_positive: float = 1.0,
    seed: int = 0,
    scene_id: str = "",
    bands: tuple[str, ...] | None = None,
) -> list[Chip]:
    """The chips of ``image`` (a ``Raster`` or an open ``RasterReader``) and
    ``mask`` at the windows ``pick_windows`` picks, cut by ``cut_windows``."""
    mask = np.asarray(mask)
    if mask.shape != (image.height, image.width):
        raise ValueError(f"mask shape {mask.shape} does not match raster {(image.height, image.width)}")
    origins = pick_windows(mask, chip_size, stride, negatives_per_positive, seed)
    return cut_windows(image, mask, origins, chip_size, bands, scene_id)


def pick_windows(
    mask: np.ndarray, chip_size: int, stride: int, negatives_per_positive: float = 1.0, seed: int = 0
) -> list[tuple[int, int]]:
    """The (col, row) origins of a mask's positive and negative windows.

    Positives are every stride-lattice window containing at least one mask
    pixel, ordered by origin (row-major). Negatives are
    ceil(negatives_per_positive * positives) seeded-random all-zero windows
    appended after the positives. The lattice is clipped to the mask, so
    windows never extend past the edge.
    """
    height, width = mask.shape
    if chip_size < 1 or chip_size > min(height, width):
        raise ValueError(f"chip_size {chip_size} does not fit raster {height}x{width}")
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    if negatives_per_positive < 0:
        raise ValueError("negatives_per_positive must be >= 0")

    positives = [
        (col, row)
        for row in range(0, height - chip_size + 1, stride)
        for col in range(0, width - chip_size + 1, stride)
        if mask[row : row + chip_size, col : col + chip_size].any()
    ]

    wanted = math.ceil(negatives_per_positive * len(positives))
    negatives: list[tuple[int, int]] = []
    if wanted:
        rng = np.random.default_rng(seed)
        seen: set[tuple[int, int]] = set()
        budget = 200 * wanted + 200
        for _ in range(budget):
            if len(negatives) >= wanted:
                break
            row = int(rng.integers(0, height - chip_size + 1))
            col = int(rng.integers(0, width - chip_size + 1))
            if (col, row) in seen:
                continue
            seen.add((col, row))
            if mask[row : row + chip_size, col : col + chip_size].any():
                continue
            negatives.append((col, row))
        if len(negatives) < wanted:
            warnings.warn(
                f"found only {len(negatives)} of {wanted} all-negative windows",
                stacklevel=2,
            )
    return positives + negatives


def cut_windows(
    source,
    mask: np.ndarray,
    origins: list,
    chip_size: int,
    bands: tuple[str, ...] | None = None,
    scene_id: str = "",
) -> list[Chip]:
    """The chips of ``source`` (a ``Raster`` or an open
    ``geodata.RasterReader``) and its ``mask`` at the (col, row) ``origins``,
    in the order given.

    Rows are read and stacked to ``bands`` (when given) in slabs of up to
    2 * ``chip_size`` rows, in row order, each starting at the next window;
    a slab's chips are owned as ``_own_if_sparse`` decides, so memory
    follows the windows, not the scene. Values are those of a whole-scene
    stack.
    """
    order = sorted(range(len(origins)), key=lambda i: origins[i][1])
    chips, cut, top, bottom = [], [], 0, 0
    for i in order:
        col, row = origins[i]
        if row + chip_size > bottom:  # past this slab: the next starts at this window
            chips += _own_if_sparse(cut, (bottom - top) * source.width)
            cut, top, bottom, slab = [], row, min(row + 2 * chip_size, source.height), None
            slab = stacked_rows(source, top, bottom, bands)  # the last one freed first, unless viewed
        cut.append(
            Chip(
                slab.samples[:, row - top : row - top + chip_size, col : col + chip_size],
                mask[row : row + chip_size, col : col + chip_size],
                (col, row),
                slab.band_names,
                scene_id,
            )
        )
    chips += _own_if_sparse(cut, (bottom - top) * source.width)
    return [chip for _, chip in sorted(zip(order, chips), key=lambda pair: pair[0])]


@dataclass
class ChipConfig:
    chip_size: int = 100
    stride: int = 50
    negatives_per_positive: float = 1.0
    bands: tuple[str, ...] = DEFAULT_BAND_SPEC
    test_frac: float = 0.1
    val_frac: float = 0.2

    def __post_init__(self):
        # each message starts with its field, which a config error names
        for name, least in (("chip_size", 1), ("stride", 1), ("negatives_per_positive", 0)):
            if getattr(self, name) < least:
                raise ValueError(f"{name}: must be >= {least}, got {shown(getattr(self, name))}")
        for name in ("test_frac", "val_frac"):
            if not 0 <= getattr(self, name) < 1:
                raise ValueError(f"{name}: must be in [0, 1), got {shown(getattr(self, name))}")
        if self.test_frac + self.val_frac >= 1:
            raise ValueError(
                f"val_frac: test_frac + val_frac must be below 1, got "
                f"{self.test_frac} + {self.val_frac}"
            )
        if not self.bands:
            raise ValueError("bands: empty band list")
        allowed = (*SOURCE_BANDS, NDSW_BAND)
        for name in self.bands:
            if name not in allowed:
                raise ValueError(f"bands: unknown band {name!r} (allowed: {', '.join(allowed)})")


def scene_annotations(base: str | Path) -> Polygons:
    """The annotations in the .geojson beside the scene raster at ``base``;
    a scene without one holds no dump."""
    path = Path(f"{base}.geojson")
    if path.exists():
        return geodata.read_annotations(path)
    return Polygons(np.zeros(0), np.zeros(0), np.zeros(1, np.int64), np.zeros(1, np.int64), [])


def _own_if_sparse(chips: list[Chip], pixels: int) -> list[Chip]:
    """Chips cut from one array of ``pixels`` pixels per band, copied out of
    it when their windows add up to fewer pixels (so the array can be
    freed), else left as views of it, which then hold less than copies."""
    if sum(c.mask.size for c in chips) >= pixels:
        return chips
    return [replace(c, samples=c.samples.copy(), mask=c.mask.copy()) for c in chips]


@dataclass
class DatasetSplit:
    train: list[Chip]
    val: list[Chip]
    test: list[Chip]
    seed: int = 0


def split_dataset(
    chips: list[Chip],
    test_frac: float = 0.1,
    val_frac: float = 0.2,
    seed: int = 0,
) -> DatasetSplit:
    """Shuffle once with the seed, then slice off test and val by rounding;
    no chips give an empty split."""
    if test_frac < 0 or val_frac < 0 or test_frac + val_frac >= 1:
        raise ValueError(
            f"fractions must be >= 0 and sum below 1, got test={test_frac} "
            f"val={val_frac}"
        )
    n = len(chips)
    n_test = round(test_frac * n)
    n_val = round(val_frac * n)
    perm = np.random.default_rng(seed).permutation(n)
    test = [chips[i] for i in perm[:n_test]]
    val = [chips[i] for i in perm[n_test : n_test + n_val]]
    train = [chips[i] for i in perm[n_test + n_val :]]
    return DatasetSplit(train=train, val=val, test=test, seed=seed)


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NormalizationStats:
    """Per-band mean and population std fitted on the training chips only."""

    means: tuple[float, ...]
    stds: tuple[float, ...]
    band_names: tuple[str, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "means", tuple(float(m) for m in self.means))
        object.__setattr__(self, "stds", tuple(float(s) for s in self.stds))
        if len(self.means) != len(self.stds):
            raise ValueError(f"stds: means and stds differ in length ({len(self.means)} and {len(self.stds)})")
        if self.band_names is not None:
            object.__setattr__(self, "band_names", tuple(self.band_names))
            if len(self.band_names) != len(self.means):
                raise ValueError(f"band_names: {len(self.band_names)} band names for {len(self.means)} bands")
        names = self.band_names or range(len(self.means))
        for name, mean, std in zip(names, self.means, self.stds):
            if not (math.isfinite(mean) and math.isfinite(std)):
                raise ValueError(
                    f"band {name!r}: non-finite normalization stats (mean {mean}, "
                    f"std {std}); nodata pixels in the training chips?"
                )
        if any(s <= 0 for s in self.stds):
            raise ValueError(f"stds: must be positive, got {shown(self.stds)}")


def fit_normalization(train_chips: list[Chip]) -> NormalizationStats:
    """Fit per-band stats over every pixel of the training chips."""
    if not train_chips:
        raise ValueError("cannot fit normalization on an empty training set")
    stacked = np.stack([c.samples for c in train_chips])  # [n, band, s, s]
    means = stacked.mean(axis=(0, 2, 3), dtype=np.float64)
    stds = stacked.std(axis=(0, 2, 3), dtype=np.float64)
    if np.any(stds == 0):
        flat = [i for i, s in enumerate(stds) if s == 0]
        raise ValueError(f"constant band(s) {flat}: std is zero, cannot normalize")
    return NormalizationStats(
        means=tuple(means), stds=tuple(stds), band_names=train_chips[0].band_names
    )


def normalize_split(split: DatasetSplit, stats: NormalizationStats) -> DatasetSplit:
    """``split`` with each chip's samples normalized as ``unet.model_input``
    normalizes a batch. ``train`` normalizes per batch and does not call
    this; it stays for the benchmark's ``train`` check, which does."""
    from .unet import model_input  # unet imports this module

    normalized = {name: [replace(c, samples=model_input([c.samples], c.size, stats).data[0]) for c in getattr(split, name)] for name in SPLITS}
    return DatasetSplit(**normalized, seed=split.seed)


# ---------------------------------------------------------------------------
# synthetic scenes
# ---------------------------------------------------------------------------


# Per-class (mean, std) of each source band in synthetic scenes. Dump sites
# are nearly indistinguishable in RGB, mildly darker in NIR, and strongly
# separated in the shortwave bands, so NDSW carries most of the signal. That
# ordering is what the input ablation exercises.
SPECTRAL_PROFILES = {
    "background": {
        "R": (0.10, 0.030),
        "G": (0.14, 0.030),
        "B": (0.08, 0.030),
        "NIR": (0.30, 0.060),
        "SWIR1": (0.18, 0.040),
        "SWIR2": (0.16, 0.040),
    },
    "dump": {
        "R": (0.12, 0.030),
        "G": (0.13, 0.030),
        "B": (0.09, 0.030),
        "NIR": (0.24, 0.060),
        "SWIR1": (0.30, 0.040),
        "SWIR2": (0.12, 0.040),
    },
}


@dataclass
class SynthConfig:
    """Parameters for one synthetic scene."""

    scene_size: int = 256
    pixel_size: float = 10.0
    dump_count: int = 5
    dump_radius_range: tuple[float, float] = (4.0, 12.0)
    background_texture_seed: int = 0

    def __post_init__(self):
        # each message starts with its field, which a config error names
        # below 2**31, as raster dimensions are
        if not 16 <= self.scene_size < 2**31:
            raise ValueError(f"scene_size: must be in [16, 2**31), got {shown(self.scene_size)}")
        if self.pixel_size <= 0:
            raise ValueError(f"pixel_size: must be > 0, got {shown(self.pixel_size)}")
        if self.dump_count < 0:
            raise ValueError(f"dump_count: must be >= 0, got {shown(self.dump_count)}")
        rmin, rmax = self.dump_radius_range
        if not (0 < rmin <= rmax):
            raise ValueError(
                f"dump_radius_range: must be 0 < min <= max, got {shown(self.dump_radius_range)}"
            )
        if rmax >= self.scene_size / 2:
            raise ValueError(
                f"dump_radius_range: radius {rmax} too large for scene_size {self.scene_size}"
            )


_BLOB_VERTICES = 28


def generate_synthetic(config: SynthConfig) -> tuple[Raster, Polygons]:
    """Build a six-band scene with irregular elliptic dump blobs.

    Returns the source raster [R, G, B, NIR, SWIR1, SWIR2] and the polygons,
    labelled "dump", that exactly outline the painted blobs: the blob mask
    is rasterized from the very polygons that are returned.
    """
    rng = np.random.default_rng(config.background_texture_seed)
    size = config.scene_size
    ps = config.pixel_size
    transform = GeoTransform(0.0, size * ps, ps, ps)

    rmin, rmax = config.dump_radius_range
    placed: list[tuple[float, float, float]] = []
    corners: list[tuple[float, float]] = []
    for _ in range(config.dump_count):
        for _attempt in range(400):
            radius = float(rng.uniform(rmin, rmax))
            margin = 1.2 * radius + 2.0
            if 2 * margin >= size:
                continue
            cx = float(rng.uniform(margin, size - margin))
            cy = float(rng.uniform(margin, size - margin))
            if all(
                math.hypot(cx - px, cy - py) > radius + pr + 3.0
                for px, py, pr in placed
            ):
                break
        else:
            raise ValueError(
                f"could not place {shown(config.dump_count)} blobs of radius "
                f"<= {rmax} in a {size}px scene"
            )
        placed.append((cx, cy, radius))
        eccentricity = float(rng.uniform(0.65, 1.0))
        tilt = float(rng.uniform(0.0, math.pi))
        phase = float(rng.uniform(0.0, 2 * math.pi))
        jitter = rng.uniform(0.9, 1.1, _BLOB_VERTICES)
        for k in range(_BLOB_VERTICES):
            ang = phase + 2 * math.pi * k / _BLOB_VERTICES
            ex = radius * math.cos(ang) * jitter[k]
            ey = radius * eccentricity * math.sin(ang) * jitter[k]
            px = cx + ex * math.cos(tilt) - ey * math.sin(tilt)
            py = cy + ex * math.sin(tilt) + ey * math.cos(tilt)
            corners.append(geodata.pixel_to_world(transform, px, py))

    x, y = np.array(corners, np.float64).reshape(-1, 2).T
    n = len(placed)
    x, y, ring_offsets = geodata._normalized(x, y, np.arange(n + 1) * _BLOB_VERTICES)
    polygons = Polygons(x, y, ring_offsets, np.arange(n + 1), ["dump"] * n)
    mask = rasterize_mask(polygons, transform, size, size)

    # imported here, not at module level: scipy.ndimage takes about 0.3 s to
    # load, and only the stages that make scenes need it
    from scipy.ndimage import uniform_filter

    layers = []
    for band in SOURCE_BANDS:
        noise = rng.standard_normal((size, size))
        texture = uniform_filter(noise, size=5, mode="reflect")
        texture = (texture - texture.mean()) / texture.std()
        bg_mean, bg_std = SPECTRAL_PROFILES["background"][band]
        dump_mean, dump_std = SPECTRAL_PROFILES["dump"][band]
        values = np.where(
            mask == 1, dump_mean + dump_std * texture, bg_mean + bg_std * texture
        )
        layers.append(values.astype(np.float32))

    raster = Raster(
        np.stack(layers), transform, nodata=math.nan, band_names=SOURCE_BANDS
    )
    return raster, polygons


# ---------------------------------------------------------------------------
# chip catalog persistence
# ---------------------------------------------------------------------------


def _scene_digest(base: str | Path) -> str:
    """The sha256 of the scene raster at ``base``: its header, then its pixels."""
    digest = hashlib.sha256()
    for path in (f"{base}.json", f"{base}.bin"):
        with open(path, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                digest.update(block)
    return digest.hexdigest()


def save_catalog(
    path: str | Path,
    split: DatasetSplit,
    scene_dir: str | Path,
    stats: NormalizationStats | None = None,
) -> None:
    """Write the split as ``index.json``: ``scene_dir`` relative to the
    catalog, the ``_scene_digest`` of each scene the chips come from, and each
    window's scene, origin, split and whether it holds a dump, but no
    pixels. ``stats``, if given, go to ``stats.json``."""
    root = Path(path)
    chips = [(name, chip) for name in SPLITS for chip in getattr(split, name)]
    first = chips[0][1] if chips else None
    index = {
        "format": CATALOG_FORMAT,
        "format_version": CATALOG_FORMAT_VERSION,
        "chip_size": first.size if first else None,
        "band_names": list(first.band_names) if first and first.band_names else None,
        "seed": split.seed,
        "scenes": os.path.relpath(scene_dir, root),
        "scene_sha256": {s: _scene_digest(Path(scene_dir) / s) for s in sorted({c.scene_id for _, c in chips})},
        "chips": [
            {"scene": c.scene_id, "origin": list(c.origin), "split": name, "positive": c.is_positive()}
            for name, c in chips
        ],
    }
    atomic_write_json(root / "index.json", index)
    if stats is not None:
        atomic_write_json(root / "stats.json", asdict(stats))


@dataclass(frozen=True)
class ChipEntry:
    """One window of a catalog's ``index.json``."""

    scene: str
    origin: tuple[int, int]  # (col, row)
    split: Literal[SPLITS]
    positive: bool

    def __post_init__(self):
        if not self.scene:
            raise ValueError("scene: empty name")


@dataclass(frozen=True)
class CatalogIndex:
    """A catalog's ``index.json``, as ``save_catalog`` writes it."""

    format: Literal[CATALOG_FORMAT]
    format_version: Literal[CATALOG_FORMAT_VERSION]
    chip_size: int | None  # null, like band_names, in a catalog without chips
    band_names: tuple[str, ...] | None
    seed: int
    scenes: str
    scene_sha256: dict[str, str]
    chips: tuple[ChipEntry, ...]

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError(f"seed: must be >= 0, got {shown(self.seed)}")
        if not self.scenes:
            raise ValueError("scenes: empty path")
        if self.chip_size is not None and self.chip_size < 1:
            raise ValueError(f"chip_size: must be >= 1, got {shown(self.chip_size)}")
        for key in ("chip_size", "band_names"):
            if self.chips and not getattr(self, key):
                raise ValueError(f"{key}: {json.dumps(getattr(self, key))}, but the catalog has chips")


def load_catalog(path: str | Path) -> tuple[DatasetSplit, NormalizationStats | None]:
    """The split a catalog indexes, and its stats (None without stats.json).

    ``index.json`` (``CatalogIndex``) and ``stats.json`` are read first.
    Then, one scene at a time, its annotations are rasterized, its windows
    checked against them, and its ``band_names`` windows cut by
    ``cut_windows``, which reads the scene in row slabs, as ``chip`` does. A
    fault names ``index.json``, and the scene too when the scene is missing
    or unreadable, its raster is not the one chipped (its ``scene_sha256``
    differs), a window lies outside it or its annotations no longer give
    the window's recorded ``positive`` (naming the chip).
    """
    root = Path(path)
    index_path = root / "index.json"
    index = read_document(CatalogIndex, index_path)
    entries, size = index.chips, index.chip_size
    by_scene: dict[str, list[int]] = {}
    for k, entry in enumerate(entries):
        if entry.scene not in index.scene_sha256:
            raise ValueError(f"{index_path}: chips[{k}].scene: scene {entry.scene!r} has no scene_sha256")
        by_scene.setdefault(entry.scene, []).append(k)
    stats_path = root / "stats.json"
    stats = read_document(NormalizationStats, stats_path) if stats_path.exists() else None
    if stats is not None and entries and stats.band_names != index.band_names:
        raise ValueError(f"{stats_path} covers bands {stats.band_names}, but {index_path} names {index.band_names}")

    loaded: dict[int, Chip] = {}
    for name, ks in by_scene.items():
        base, digest = root / index.scenes / name, index.scene_sha256[name]
        try:
            if _scene_digest(base) != digest:
                raise ValueError(f"its sha256 is not {digest}; written again after `dumpwatch chip`? re-run it")
            polygons = scene_annotations(base)
            with geodata.RasterReader(base) as src:
                mask = rasterize_mask(polygons, src.transform, src.width, src.height)
                for k in ks:
                    (col, row), positive = entries[k].origin, entries[k].positive
                    if not (0 <= col <= src.width - size and 0 <= row <= src.height - size):
                        raise ValueError(
                            f"chips[{k}]: its {size} px window at origin [{col}, {row}] lies outside the scene's "
                            f"{src.width}x{src.height} px"
                        )
                    if mask[row : row + size, col : col + size].any() != positive:
                        raise ValueError(
                            f"chips[{k}]: recorded positive {json.dumps(positive)}, but the annotations give "
                            f"{json.dumps(not positive)}; edited after `dumpwatch chip`? re-run it"
                        )
                origins = [entries[k].origin for k in ks]
                loaded.update(zip(ks, cut_windows(src, mask, origins, size, index.band_names, name)))
        except (OSError, KeyError, ValueError) as exc:
            raise ValueError(f"{index_path}: scene {name!r} ({base}): {exc}") from exc
    buckets = {name: [loaded[k] for k, entry in enumerate(entries) if entry.split == name] for name in SPLITS}
    return DatasetSplit(**buckets, seed=index.seed), stats

"""``dumpwatch`` command line: synth, chip, train, evaluate, predict,
postprocess, ablate.

Configuration comes from a JSON file plus flag overrides (flags beat the
file, the file beats defaults; both go through ``_fileio.parse``, the one
reader of every JSON document). Every run takes one global seed; stage
randomness is derived through named substreams so, e.g., chip extraction
stays identical whether or not other stages run. ``ablate`` picks
``chip``'s windows once, then cuts and splits them and runs ``train``'s
training step once per band set, under those same substreams. Logs go to
stderr; each subcommand returns a summary, which ``main`` prints as one JSON
object on stdout with its ``wall_s`` and ``peak_rss_mb`` (null without
``/proc``).

Set DUMPWATCH_THREADS=1 before launching for the reference deterministic
mode; the value caps the BLAS thread pools and must be set before numpy
loads, which is why this module exports it ahead of its imports.
"""

from __future__ import annotations

import os
import sys

_threads = os.environ.get("DUMPWATCH_THREADS")
if _threads:
    for _var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    ):
        os.environ.setdefault(_var, _threads)

import argparse
import hashlib
import json
import logging
import math
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import dataset as ds
from . import detect, geodata, training, unet
from ._fileio import parse, read_json, shown
from .dataset import ChipConfig, DatasetSplit, SynthConfig
from .detect import InferenceConfig, PostprocConfig
from .training import Hyperparams
from .unet import UNetConfig

log = logging.getLogger("dumpwatch")


class ConfigError(Exception):
    """Invalid run configuration; message names the offending field."""


def substream(seed: int, name: str) -> int:
    """Derive a named child seed from the global seed (stable across runs)."""
    digest = hashlib.sha256(f"{seed}/{name}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


@dataclass
class PathsConfig:
    scene_dir: str = "runs/demo/scenes"
    catalog: str = "runs/demo/catalog"
    checkpoint: str = "runs/demo/model"
    probability: str = "runs/demo/probability"
    detections: str = "runs/demo/detections.geojson"
    report: str = "runs/demo/report.json"
    ablation: str = "runs/demo/ablation"
    predict_raster: str = ""  # defaults to the first scene in scene_dir


@dataclass
class SynthSection:
    scene_count: int = 1
    scene_size: int = 256
    pixel_size: float = 10.0
    dump_count: int = 5
    dump_radius_range: tuple[float, float] = (4.0, 12.0)

    def __post_init__(self):
        # scene_{i:03d} names sort in index order up to scene_999
        if not 1 <= self.scene_count <= 1000:
            raise ValueError(f"scene_count: must be in [1, 1000], got {shown(self.scene_count)}")
        self.scene_config(0)  # the per-scene checks, before any scene is written

    def scene_config(self, texture_seed: int) -> SynthConfig:
        fields = {k: v for k, v in asdict(self).items() if k != "scene_count"}
        return SynthConfig(**fields, background_texture_seed=texture_seed)


@dataclass
class ModelSection:
    depth: int = 4
    base_filters: int = 16

    def __post_init__(self):
        UNetConfig(depth=self.depth, base_filters=self.base_filters)  # its checks, before any stage runs


@dataclass
class RunConfig:
    seed: int = 0
    paths: PathsConfig = field(default_factory=PathsConfig)
    synth: SynthSection = field(default_factory=SynthSection)
    chip: ChipConfig = field(default_factory=ChipConfig)
    model: ModelSection = field(default_factory=ModelSection)
    train: Hyperparams = field(default_factory=Hyperparams)
    inference: InferenceConfig = field(default_factory=InferenceConfig)
    postprocess: PostprocConfig = field(default_factory=PostprocConfig)


def _parse_config(data) -> RunConfig:
    try:
        return parse(RunConfig, data)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def load_config(path: str | None) -> RunConfig:
    if path is None:
        return RunConfig()
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {p}")
    try:
        data = read_json(p)
    except ValueError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return _parse_config(data)


def _apply_flags(cfg: RunConfig, args: argparse.Namespace) -> RunConfig:
    """``cfg`` with the flags set, parsed again as a config file setting
    them would be."""
    data = json.loads(json.dumps(asdict(cfg)))  # keeps a NaN or infinite flag, for parse to refuse
    if args.seed is not None:
        data["seed"] = args.seed
    flags = {"probability_threshold": args.threshold, "min_area": args.min_area}
    data["postprocess"].update((key, value) for key, value in flags.items() if value is not None)
    if args.bands is not None:
        data["chip"]["bands"] = [b.strip() for b in args.bands.split(",") if b.strip()]
    return _parse_config(data)


def _scene_bases(scene_dir: str) -> list[Path]:
    root = Path(scene_dir)
    if not root.is_dir():
        raise ConfigError(f"paths.scene_dir: no such directory {root}")
    bases = sorted(
        p.with_suffix("") for p in root.glob("*.json") if p.suffixes[-2:] != [".geojson"]
    )
    bases = [b for b in bases if Path(str(b) + ".bin").exists()]
    if not bases:
        raise ConfigError(f"paths.scene_dir: no scene rasters under {root}")
    return bases


_STATUS = Path("/proc/self/status")


def _peak_rss_mb() -> float | None:
    """This process's peak resident set size so far (``VmHWM``), in MB; None
    where ``/proc`` is absent. It restarts at exec, so a subcommand run as
    its own process reads its own peak."""
    try:
        lines = _STATUS.read_text().splitlines()
    except OSError:
        return None
    kib = next((int(line.split()[1]) for line in lines if line.startswith("VmHWM:")), None)
    return None if kib is None else round(kib * 1024 / 1e6, 1)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_synth(cfg: RunConfig, args) -> dict:
    out_dir = Path(args.out) if args.out else Path(cfg.paths.scene_dir)
    written = []
    for i in range(cfg.synth.scene_count):
        synth_cfg = cfg.synth.scene_config(substream(cfg.seed, f"synth.{i}"))
        raster, polygons = ds.generate_synthetic(synth_cfg)
        base = out_dir / f"scene_{i:03d}"
        geodata.write_raster(raster, base)
        geodata.write_annotations(polygons, str(base) + ".geojson")
        geodata.read_raster(base)  # write-then-verify round trip
        written.append(str(base))
        log.info("wrote scene %s (%d blobs)", base, len(polygons))
    return {
        "command": "synth",
        "scenes": written,
        "scene_size": cfg.synth.scene_size,
        "dump_count": cfg.synth.dump_count,
        "seed": cfg.seed,
    }


def _chip(
    cfg: RunConfig, bands: tuple[str, ...], windows: dict
) -> tuple[DatasetSplit, ds.NormalizationStats | None]:
    """The chips of ``bands`` of each scene under ``paths.scene_dir``,
    split, with the normalization fitted on the training chips (None without
    any). A scene's windows, picked from its annotations' mask
    (``ds.pick_windows``), are kept in ``windows`` with the mask for a next
    call with other bands. Each scene is read in row slabs
    (``ds.cut_windows``); one without a source band that ``bands`` needs is
    refused, naming its header."""
    chip, chips = cfg.chip, []
    for base in _scene_bases(cfg.paths.scene_dir):
        with geodata.RasterReader(base) as source:
            try:
                ds.stacked_rows(source, 0, 1, bands)  # one row: a check of the bands
            except (KeyError, ValueError) as exc:
                raise ValueError(
                    f"{base}.json: {exc.args[0]} (chip.bands {','.join(bands)}; "
                    f"the scene has {','.join(source.band_names or ())})"
                ) from None
            if base not in windows:
                mask = ds.rasterize_mask(ds.scene_annotations(base), source.transform, source.width, source.height)
                seed = substream(cfg.seed, "chip")
                origins = ds.pick_windows(mask, chip.chip_size, chip.stride, chip.negatives_per_positive, seed)
                windows[base] = mask, origins
            chips += ds.cut_windows(source, *windows[base], chip.chip_size, bands, base.name)
    if not any(c.is_positive() for c in chips):
        log.warning("no positive chips extracted")
    split = ds.split_dataset(chips, chip.test_frac, chip.val_frac, substream(cfg.seed, "split"))
    return split, ds.fit_normalization(split.train) if split.train else None


def cmd_chip(cfg: RunConfig, args) -> dict:
    catalog_dir = args.out or cfg.paths.catalog
    split, stats = _chip(cfg, cfg.chip.bands, {})
    ds.save_catalog(catalog_dir, split, cfg.paths.scene_dir, stats)
    del split  # freed before the write-then-verify read, which reads every scene again
    split, _ = ds.load_catalog(catalog_dir)
    chips = split.train + split.val + split.test
    return {
        "command": "chip",
        "chips": len(chips),
        "positives": sum(1 for c in chips if c.is_positive()),
        "train": len(split.train),
        "val": len(split.val),
        "test": len(split.test),
        "catalog": str(catalog_dir),
    }


def _train(cfg: RunConfig, split: DatasetSplit, stats: ds.NormalizationStats):
    """The ``cfg.model`` U-Net trained on ``split`` normalized with ``stats``:
    its config, best parameters and training report."""
    config = UNetConfig(split.train[0].samples.shape[0], cfg.model.depth, cfg.model.base_filters)
    params = unet.build_unet(config, substream(cfg.seed, "init"))
    shuffle = substream(cfg.seed, "shuffle")
    best, report = training.train(params, config, split, cfg.train, shuffle, stats)
    return config, best, report


def cmd_train(cfg: RunConfig, args) -> dict:
    split, stats = ds.load_catalog(cfg.paths.catalog)
    if not split.train:
        raise ConfigError("paths.catalog: catalog has no training chips")
    if stats is None:
        raise ConfigError("paths.catalog: catalog is missing stats.json")
    config, best, report = _train(cfg, split, stats)
    checkpoint_path = args.out or cfg.paths.checkpoint
    ckpt = unet.checkpoint_from_params(
        config,
        best,
        normalization=stats,
        training_metadata={
            "seed": cfg.seed,
            "stopping_epoch": report.stopping_epoch,
            "pos_weight": report.pos_weight,
            "best_val_loss": min(e.val_loss for e in report.epochs),
            # pos_weight is recorded resolved, above
            "hyper": {k: v for k, v in asdict(cfg.train).items() if k != "pos_weight"},
        },
    )
    unet.save_checkpoint(ckpt, checkpoint_path)
    unet.load_checkpoint(checkpoint_path)  # write-then-verify
    report.save(cfg.paths.report)
    summary = {
        "command": "train",
        "checkpoint": str(checkpoint_path),
        "report": cfg.paths.report,
        "stopping_epoch": report.stopping_epoch,
        # the work done: chips per split, and Adam steps
        **{f"{name}_chips": len(getattr(split, name)) for name in ds.SPLITS},
        "steps": report.stopping_epoch * math.ceil(len(split.train) / cfg.train.batch_size),
        "val_loss": report.epochs[-1].val_loss,
        "val_mean_iou": report.epochs[-1].val_mean_iou,
    }
    if report.test:
        summary["test_loss"] = report.test.loss
        summary["test_mean_iou"] = report.test.mean_iou
    return summary


def _checkpoint(cfg: RunConfig) -> unet.Checkpoint:
    """The checkpoint at ``paths.checkpoint``, with the stats ``train`` records."""
    ckpt = unet.load_checkpoint(cfg.paths.checkpoint)
    if ckpt.normalization is None:
        raise ConfigError(f"{cfg.paths.checkpoint}.json: normalization: null; the checkpoint carries no stats")
    return ckpt


def cmd_evaluate(cfg: RunConfig, args) -> dict:
    ckpt = _checkpoint(cfg)
    split, _stats = ds.load_catalog(cfg.paths.catalog)
    stats = ckpt.normalization
    chips = getattr(split, args.split)
    if not chips:
        raise ConfigError(f"catalog split {args.split!r} is empty")
    names, count = chips[0].band_names, chips[0].samples.shape[0]
    if len(stats.means) != count or (stats.band_names and stats.band_names != names):
        raise ConfigError(
            f"checkpoint {cfg.paths.checkpoint} does not fit the chips of catalog "
            f"{cfg.paths.catalog}: its stats cover {len(stats.means)} bands "
            f"{stats.band_names or '(unnamed)'}, the chips have {count} {names}"
        )
    params = unet.params_from_checkpoint(ckpt)
    threshold = cfg.postprocess.probability_threshold
    metrics = training.evaluate(params, ckpt.config, chips, threshold, stats=stats)
    return {
        "command": "evaluate",
        "split": args.split,
        "count": len(chips),
        **asdict(metrics),
    }


def cmd_predict(cfg: RunConfig, args) -> dict:
    ckpt = _checkpoint(cfg)
    if cfg.inference.tile_size % ckpt.config.pool_factor:
        raise ConfigError(
            f"inference.tile_size: {cfg.inference.tile_size} is not divisible by "
            f"2**depth = {ckpt.config.pool_factor} of the checkpoint "
            f"{cfg.paths.checkpoint}"
        )
    raster_path = args.raster or cfg.paths.predict_raster
    if not raster_path:
        bases = _scene_bases(cfg.paths.scene_dir)
        raster_path = str(bases[0])
    out = args.out or cfg.paths.probability
    threshold = cfg.postprocess.probability_threshold
    above = 0
    # rows stream from the source through the model to the output, one
    # tile row at a time; neither raster is held whole
    with geodata.RasterReader(raster_path) as source:
        bands = cfg.chip.bands if source.band_names == ds.SOURCE_BANDS else None
        params = unet.params_from_checkpoint(ckpt)
        try:
            rows = detect.predict_rows(
                params, ckpt.config, source, ckpt.normalization, cfg.inference, bands
            )
        except ValueError as exc:  # its argument checks, made before any row is read
            given = f"chip.bands (--bands) {','.join(bands)}" if bands else f"the bands of {raster_path}"
            raise ConfigError(
                f"checkpoint {cfg.paths.checkpoint} does not fit {given}: {exc}"
            ) from exc
        # wall seconds pulling rows (read and forward) and writing them
        timing = {"predict_rows_s": 0.0, "write_rows_s": 0.0}
        with geodata.raster_writer(
            out, 1, source.height, source.width, source.transform,
            band_names=("probability",),
        ) as write_rows:
            clock = time.perf_counter()
            for block in rows:
                pulled = time.perf_counter()
                write_rows(block[None])
                written = time.perf_counter()
                timing["predict_rows_s"] += pulled - clock
                timing["write_rows_s"] += written - pulled
                with np.errstate(invalid="ignore"):  # NaN, nodata, compares false
                    above += int(np.count_nonzero(block >= threshold))
                clock = time.perf_counter()
        # the tiling's windows, counting those of nodata alone, which are not run
        tile, overlap = cfg.inference.tile_size, cfg.inference.overlap
        tiles = len(detect.tile_origins(source.height, tile, overlap)) * len(
            detect.tile_origins(source.width, tile, overlap)
        )
    geodata.RasterReader(out).close()  # write-then-verify: header and payload length
    return {
        "command": "predict",
        "raster": str(raster_path),
        "probability": str(out),
        "threshold": threshold,
        "pixels_above_threshold": above,
        "tiles": tiles,
        "timing": timing,  # not deterministic
    }


def cmd_postprocess(cfg: RunConfig, args) -> dict:
    prob = geodata.read_raster(cfg.paths.probability)
    grid = prob.samples[0]
    bad = np.argwhere(((grid < 0) | (grid > 1)) & prob.valid_mask())
    if len(bad):
        raise ValueError(
            f"{cfg.paths.probability}.bin: {len(bad)} probability pixel(s) outside "
            f"[0, 1], first at (row, col) {tuple(map(int, bad[0]))}"
        )
    binary = detect.threshold_probability(prob, cfg.postprocess.probability_threshold)
    detections = detect.detections_from_binary(binary, prob, cfg.postprocess)
    out = args.out or cfg.paths.detections
    detect.export_geojson(detections, out)
    summary = {
        "command": "postprocess",
        "detections": len(detections),
        "total_area_m2": sum(detections.area.tolist()),  # in label order, as summed before
        "pixels_above_threshold": int(np.count_nonzero(binary.samples)),
        "output": str(out),
    }
    del detections  # freed before the verify read, which holds the file's text
    geodata.read_annotations(out)  # write-then-verify
    return summary


def cmd_ablate(cfg: RunConfig, args) -> dict:
    if args.bands is not None:
        raise ConfigError(
            "--bands: ablate trains its own band sets "
            f"({', '.join(ds.ABLATION_SPECS)}); drop the flag"
        )
    rows, windows = [], {}
    for label, bands in ds.ABLATION_SPECS.items():
        # chip's and train's own steps, on the same windows: the full band
        # set's row is train's test
        split, stats = _chip(cfg, bands, windows)
        if stats is None:
            raise ConfigError("paths.scene_dir: the scenes give no training chips")
        config, best, report = _train(cfg, split, stats)
        metrics = report.test or training.evaluate(best, config, split.val or split.train, stats=stats)
        rows.append(training.AblationRow(label, metrics.loss, metrics.mean_iou))
        log.info("ablation %s: loss=%.4f mean_iou=%.4f", label, metrics.loss, metrics.mean_iou)
    out = args.out or cfg.paths.ablation
    training.save_ablation(rows, out)
    sys.stderr.write(training.format_ablation_table(rows) + "\n")
    return {
        "command": "ablate",
        "output": str(out),
        "rows": [asdict(r) for r in rows],
    }


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

# each subcommand: its handler and its help
_COMMANDS = {
    "synth": (cmd_synth, "generate synthetic scenes and annotations"),
    "chip": (cmd_chip, "extract a training chip catalog from scenes"),
    "train": (cmd_train, "train a segmentation model on a chip catalog"),
    "evaluate": (cmd_evaluate, "compute metrics for a checkpoint on a catalog split"),
    "predict": (cmd_predict, "run tiled inference over a raster"),
    "postprocess": (cmd_postprocess, "vectorize a probability raster into detections"),
    "ablate": (cmd_ablate, "train one model per band subset and tabulate metrics"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dumpwatch",
        description="Detect dump-site-like regions in multi-band rasters.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="path to a JSON run configuration")
        p.add_argument("--seed", type=int, help="override the global seed")
        p.add_argument(
            "--threshold", type=float, help="override the probability threshold"
        )
        p.add_argument(
            "--min-area",
            dest="min_area",
            type=float,
            help="override the minimum detection area (m^2)",
        )
        p.add_argument(
            "--bands", help="comma-separated band stack, e.g. R,G,B,NIR,SWIR1,NDSW"
        )
        p.add_argument("--out", help="override the primary output path")
        if name == "predict":
            p.add_argument("--raster", help="raster base path to predict")
        if name == "evaluate":
            p.add_argument(
                "--split", choices=ds.SPLITS, default="test", help="catalog split to evaluate (default: test)"
            )
    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    started = time.perf_counter()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
        cfg = _apply_flags(cfg, args)
        summary = _COMMANDS[args.command][0](cfg, args)
    except ConfigError as exc:
        source = f" in {args.config}" if args.config else ""
        log.error("invalid configuration%s: %s", source, exc)
        return 1
    except (FileNotFoundError, ValueError, training.TrainingDiverged) as exc:
        log.error("%s", exc)
        return 1
    # side fields that vary run to run: the subcommand's wall time and peak memory
    summary.update(wall_s=round(time.perf_counter() - started, 3), peak_rss_mb=_peak_rss_mb())
    sys.stdout.write(json.dumps(summary, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""``dumpwatch`` command line: synth, chip, train, evaluate, predict,
postprocess, ablate.

Configuration comes from a JSON file plus flag overrides (flags beat the
file, the file beats defaults). Every run takes one global seed; stage
randomness is derived through named substreams so, e.g., chip extraction
stays identical whether or not other stages run. Logs go to stderr and each
subcommand prints a single summary JSON object on stdout.

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
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import dataset as ds
from . import detect, geodata, training, unet
from ._fileio import read_json
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


@dataclass
class ModelSection:
    depth: int = 4
    base_filters: int = 16


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


def _merge_section(cls, defaults, data: dict, section: str):
    known = {f.name for f in fields(cls)}
    for key in data:
        if key not in known:
            raise ConfigError(f"{section}.{key}: unknown field")
    merged = {**{f.name: getattr(defaults, f.name) for f in fields(cls)}, **data}
    for key in ("bands",):
        if key in merged and isinstance(merged[key], list):
            merged[key] = tuple(merged[key])
    if "dump_radius_range" in merged and isinstance(merged["dump_radius_range"], list):
        merged["dump_radius_range"] = tuple(merged["dump_radius_range"])
    try:
        return cls(**merged)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"{section}: {exc}") from exc


def load_config(path: str | None) -> RunConfig:
    cfg = RunConfig()
    if path is None:
        return cfg
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {p}")
    try:
        data = read_json(p)
    except ValueError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    sections = {
        "paths": (PathsConfig, "paths"),
        "synth": (SynthSection, "synth"),
        "chip": (ChipConfig, "chip"),
        "model": (ModelSection, "model"),
        "train": (Hyperparams, "train"),
        "inference": (InferenceConfig, "inference"),
        "postprocess": (PostprocConfig, "postprocess"),
    }
    for key, value in data.items():
        if key == "seed":
            if not isinstance(value, int) or isinstance(value, bool):
                raise ConfigError("seed: must be an integer")
            cfg.seed = value
        elif key in sections:
            cls, name = sections[key]
            if not isinstance(value, dict):
                raise ConfigError(f"{name}: must be a JSON object")
            setattr(cfg, name, _merge_section(cls, getattr(cfg, name), value, name))
        else:
            raise ConfigError(f"{key}: unknown config section")
    return cfg


def _apply_flags(cfg: RunConfig, args: argparse.Namespace) -> RunConfig:
    if getattr(args, "seed", None) is not None:
        cfg.seed = args.seed
    if getattr(args, "threshold", None) is not None:
        try:
            cfg.postprocess = replace(
                cfg.postprocess, probability_threshold=args.threshold
            )
        except ValueError as exc:
            raise ConfigError(f"postprocess.probability_threshold: {exc}") from exc
    if getattr(args, "min_area", None) is not None:
        try:
            cfg.postprocess = replace(cfg.postprocess, min_area=args.min_area)
        except ValueError as exc:
            raise ConfigError(f"postprocess.min_area: {exc}") from exc
    if getattr(args, "bands", None) is not None:
        names = tuple(b.strip() for b in args.bands.split(",") if b.strip())
        if not names:
            raise ConfigError("chip.bands: empty band list")
        cfg.chip = replace(cfg.chip, bands=names)
    return cfg


def _validate_bands(bands: tuple[str, ...]) -> None:
    allowed = (*ds.SOURCE_BANDS, ds.NDSW_BAND)
    for name in bands:
        if name not in allowed:
            raise ConfigError(
                f"chip.bands: unknown band {name!r} (allowed: {', '.join(allowed)})"
            )


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


def _read_scenes(scene_dir: str):
    """Yield (scene_id, source raster, polygons) one scene at a time."""
    for base in _scene_bases(scene_dir):
        raster = geodata.read_raster(base)
        ann_path = Path(str(base) + ".geojson")
        polygons = geodata.read_annotations(ann_path) if ann_path.exists() else []
        yield base.name, raster, polygons


def _summary(obj: dict) -> None:
    sys.stdout.write(json.dumps(obj, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_synth(cfg: RunConfig, args) -> int:
    out_dir = Path(args.out) if args.out else Path(cfg.paths.scene_dir)
    written = []
    for i in range(cfg.synth.scene_count):
        try:
            synth_cfg = SynthConfig(
                scene_size=cfg.synth.scene_size,
                pixel_size=cfg.synth.pixel_size,
                dump_count=cfg.synth.dump_count,
                dump_radius_range=cfg.synth.dump_radius_range,
                background_texture_seed=substream(cfg.seed, f"synth.{i}"),
            )
        except ValueError as exc:
            raise ConfigError(f"synth: {exc}") from exc
        raster, polygons = ds.generate_synthetic(synth_cfg)
        base = out_dir / f"scene_{i:03d}"
        geodata.write_raster(raster, base)
        geodata.write_annotations(polygons, str(base) + ".geojson")
        geodata.read_raster(base)  # write-then-verify round trip
        written.append(str(base))
        log.info("wrote scene %s (%d blobs)", base, len(polygons))
    _summary(
        {
            "command": "synth",
            "scenes": written,
            "scene_size": cfg.synth.scene_size,
            "dump_count": cfg.synth.dump_count,
            "seed": cfg.seed,
        }
    )
    return 0


def cmd_chip(cfg: RunConfig, args) -> int:
    _validate_bands(cfg.chip.bands)
    catalog_dir = args.out or cfg.paths.catalog
    chips = ds.chip_scenes(
        _read_scenes(cfg.paths.scene_dir), cfg.chip, substream(cfg.seed, "chip")
    )
    positives = sum(1 for c in chips if c.is_positive())
    if positives == 0:
        log.warning("no positive chips extracted")
    if not chips:
        ds.save_catalog(
            catalog_dir, DatasetSplit(train=[], val=[], test=[], seed=cfg.seed)
        )
        _summary(
            {"command": "chip", "chips": 0, "positives": 0, "catalog": str(catalog_dir)}
        )
        return 0
    split = ds.split_dataset(
        chips, cfg.chip.test_frac, cfg.chip.val_frac, substream(cfg.seed, "split")
    )
    stats = ds.fit_normalization(split.train) if split.train else None
    ds.save_catalog(catalog_dir, split, stats)
    ds.load_catalog(catalog_dir)  # write-then-verify
    _summary(
        {
            "command": "chip",
            "chips": len(chips),
            "positives": positives,
            "train": len(split.train),
            "val": len(split.val),
            "test": len(split.test),
            "catalog": str(catalog_dir),
        }
    )
    return 0


def _build_model_config(cfg: RunConfig, in_channels: int) -> UNetConfig:
    try:
        return UNetConfig(
            in_channels=in_channels,
            depth=cfg.model.depth,
            base_filters=cfg.model.base_filters,
        )
    except ValueError as exc:
        raise ConfigError(f"model: {exc}") from exc


def cmd_train(cfg: RunConfig, args) -> int:
    split, stats = ds.load_catalog(cfg.paths.catalog)
    if not split.train:
        raise ConfigError("paths.catalog: catalog has no training chips")
    if stats is None:
        raise ConfigError("paths.catalog: catalog is missing stats.json")
    normalized = ds.normalize_split(split, stats)
    bands = split.train[0].samples.shape[0]
    config = _build_model_config(cfg, bands)
    params = unet.build_unet(config, substream(cfg.seed, "init"))
    hyper = replace(cfg.train, seed=substream(cfg.seed, "shuffle"))
    best, report = training.train(params, config, normalized, hyper)
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
            "hyper": {
                "batch_size": hyper.batch_size,
                "max_epochs": hyper.max_epochs,
                "learning_rate": hyper.learning_rate,
                "plateau_patience": hyper.plateau_patience,
                "plateau_min_delta": hyper.plateau_min_delta,
            },
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
        "val_loss": report.epochs[-1].val_loss,
        "val_mean_iou": report.epochs[-1].val_mean_iou,
    }
    if report.test:
        summary["test_loss"] = report.test.loss
        summary["test_mean_iou"] = report.test.mean_iou
    _summary(summary)
    return 0


def cmd_evaluate(cfg: RunConfig, args) -> int:
    ckpt = unet.load_checkpoint(cfg.paths.checkpoint)
    split, _stats = ds.load_catalog(cfg.paths.catalog)
    stats = ckpt.normalization
    if stats is None:
        raise ConfigError("checkpoint carries no normalization stats")
    chips = getattr(split, args.split)
    if not chips:
        raise ConfigError(f"catalog split {args.split!r} is empty")
    normalized = [ds.apply_normalization(c, stats) for c in chips]
    params = unet.params_from_checkpoint(ckpt)
    metrics = training.evaluate(
        params,
        ckpt.config,
        normalized,
        threshold=cfg.postprocess.probability_threshold,
    )
    _summary(
        {
            "command": "evaluate",
            "split": args.split,
            "count": len(chips),
            **metrics.to_json_dict(),
        }
    )
    return 0


def cmd_predict(cfg: RunConfig, args) -> int:
    ckpt = unet.load_checkpoint(cfg.paths.checkpoint)
    raster_path = args.raster or cfg.paths.predict_raster
    if not raster_path:
        bases = _scene_bases(cfg.paths.scene_dir)
        raster_path = str(bases[0])
    source = geodata.read_raster(raster_path)
    stacked = ds.stack_bands(source, cfg.chip.bands) if source.band_names == ds.SOURCE_BANDS else source
    params = unet.params_from_checkpoint(ckpt)
    prob = detect.predict_raster(
        params, ckpt.config, stacked, ckpt.normalization, cfg.inference
    )
    out = args.out or cfg.paths.probability
    geodata.write_raster(prob, out)
    geodata.read_raster(out)  # write-then-verify
    binary = detect.threshold_probability(prob, cfg.postprocess.probability_threshold)
    _summary(
        {
            "command": "predict",
            "raster": str(raster_path),
            "probability": str(out),
            "threshold": cfg.postprocess.probability_threshold,
            "pixels_above_threshold": int(binary.samples.sum()),
        }
    )
    return 0


def cmd_postprocess(cfg: RunConfig, args) -> int:
    prob = geodata.read_raster(cfg.paths.probability)
    grid = prob.samples[0]
    bad = np.argwhere(((grid < 0) | (grid > 1)) & prob.valid_mask())
    if len(bad):
        raise ValueError(
            f"{cfg.paths.probability}: {len(bad)} probability pixel(s) outside "
            f"[0, 1], first at (row, col) {tuple(map(int, bad[0]))}"
        )
    binary = detect.threshold_probability(prob, cfg.postprocess.probability_threshold)
    detections = detect.detections_from_binary(binary, prob, cfg.postprocess)
    out = args.out or cfg.paths.detections
    detect.export_geojson(detections, out)
    summary = {
        "command": "postprocess",
        "detections": len(detections),
        "total_area_m2": sum(d.area for d in detections),
        "pixels_above_threshold": int(binary.samples.sum()),
        "output": str(out),
    }
    del detections  # freed before the verify read, which holds the whole file
    geodata.read_annotations(out)  # write-then-verify
    _summary(summary)
    return 0


def cmd_ablate(cfg: RunConfig, args) -> int:
    if getattr(args, "bands", None) is not None:
        raise ConfigError(
            "--bands: ablate trains its own band sets "
            f"({', '.join(ds.ABLATION_SPECS)}); drop the flag"
        )
    # chipped once with every band; training.ablate slices each spec's channels
    bands = tuple(dict.fromkeys(b for spec in ds.ABLATION_SPECS.values() for b in spec))
    seed = substream(cfg.seed, "ablate")
    chips = ds.chip_scenes(
        _read_scenes(cfg.paths.scene_dir), replace(cfg.chip, bands=bands), seed
    )
    split = ds.split_dataset(chips, cfg.chip.test_frac, cfg.chip.val_frac, seed)
    rows = training.ablate(
        split,
        depth=cfg.model.depth,
        base_filters=cfg.model.base_filters,
        hyper=cfg.train,
        seed=seed,
    )
    out = args.out or cfg.paths.ablation
    training.save_ablation(rows, out)
    sys.stderr.write(training.format_ablation_table(rows) + "\n")
    _summary(
        {
            "command": "ablate",
            "output": str(out),
            "rows": [
                {"label": r.label, "loss": r.loss, "mean_iou": r.mean_iou}
                for r in rows
            ],
        }
    )
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dumpwatch",
        description="Detect dump-site-like regions in multi-band rasters.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        "synth": "generate synthetic scenes and annotations",
        "chip": "extract a training chip catalog from scenes",
        "train": "train a segmentation model on a chip catalog",
        "evaluate": "compute metrics for a checkpoint on a catalog split",
        "predict": "run tiled inference over a raster",
        "postprocess": "vectorize a probability raster into detections",
        "ablate": "train one model per band subset and tabulate metrics",
    }
    for name, help_text in commands.items():
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
                "--split",
                choices=("train", "val", "test"),
                default="test",
                help="catalog split to evaluate (default: test)",
            )
    return parser


_HANDLERS = {
    "synth": cmd_synth,
    "chip": cmd_chip,
    "train": cmd_train,
    "evaluate": cmd_evaluate,
    "predict": cmd_predict,
    "postprocess": cmd_postprocess,
    "ablate": cmd_ablate,
}


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
        cfg = _apply_flags(cfg, args)
        return _HANDLERS[args.command](cfg, args)
    except ConfigError as exc:
        log.error("invalid configuration: %s", exc)
        return 1
    except (FileNotFoundError, ValueError, training.TrainingDiverged) as exc:
        log.error("%s", exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""``dumpwatch`` command line: synth, chip, train, evaluate, predict,
postprocess, ablate.

Configuration comes from a JSON file plus flag overrides (flags beat the
file, the file beats defaults; both go through one check per section).
Every run takes one global seed; stage randomness is derived through named
substreams so, e.g., chip extraction stays identical whether or not other
stages run. ``ablate`` runs ``chip``'s chip step and ``train``'s training
step once per band set, under those same substreams. Logs go to stderr and
each subcommand prints a single summary JSON object on stdout.

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
import time
import typing
from dataclasses import asdict, dataclass, field, replace
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

    def __post_init__(self):
        if self.scene_count < 1:
            raise ValueError(f"scene_count: must be >= 1, got {self.scene_count}")
        self.scene_config(0)  # the per-scene checks, before any scene is written

    def scene_config(self, texture_seed: int) -> SynthConfig:
        fields = {k: v for k, v in asdict(self).items() if k != "scene_count"}
        return SynthConfig(**fields, background_texture_seed=texture_seed)


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


# per field type: the JSON values it takes, and its name in messages
_JSON_KINDS = {int: (int, "integer"), float: ((int, float), "number"), str: (str, "string")}


def _typed(value, hint, name: str):
    """``value`` for a field annotated ``hint``, a list as a tuple for a tuple
    field. Raises ConfigError naming ``name`` when its JSON type does not
    fit: an int field takes an integer (not a bool), a float field any
    number, a tuple field a list of its length and item types."""
    args = typing.get_args(hint)
    if typing.get_origin(hint) is tuple:
        many = args[-1] is Ellipsis
        items = args[:1] * len(value) if many and isinstance(value, list) else args
        if isinstance(value, list) and len(value) == len(items):
            return tuple(_typed(v, item, name) for v, item in zip(value, items))
        count = "" if many else f"{len(args)} "
        expected = f"list of {count}{_JSON_KINDS[args[0]][1]}s"
    else:
        kinds = args or (hint,)  # a union's members, or the one type
        if any(isinstance(value, _JSON_KINDS[k][0]) and not isinstance(value, bool) for k in kinds):
            return value
        expected = " or ".join(_JSON_KINDS[k][1] for k in kinds)
    raise ConfigError(f"{name}: expected {expected}, got {json.dumps(value)}")


def _merge_section(cls, defaults, data: dict, section: str):
    """``defaults`` with the fields ``data`` sets, each checked against its
    annotation."""
    hints = typing.get_type_hints(cls)
    for key in data:
        if key not in hints:
            raise ConfigError(f"{section}.{key}: unknown field")
    values = {key: _typed(value, hints[key], f"{section}.{key}") for key, value in data.items()}
    try:
        return replace(defaults, **values)
    except ValueError as exc:
        # a check whose message starts with its field is named by it
        sep = "." if str(exc).split(":")[0] in hints else ": "
        raise ConfigError(f"{section}{sep}{exc}") from exc


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
    sections = typing.get_type_hints(RunConfig)
    for key, value in data.items():
        if key not in sections:
            raise ConfigError(f"{key}: unknown config section")
        if key == "seed":
            cfg.seed = _typed(value, int, "seed")
        elif not isinstance(value, dict):
            raise ConfigError(f"{key}: must be a JSON object")
        else:
            setattr(cfg, key, _merge_section(sections[key], getattr(cfg, key), value, key))
    return cfg


def _apply_flags(cfg: RunConfig, args: argparse.Namespace) -> RunConfig:
    if args.seed is not None:
        cfg.seed = args.seed
    flags = {"probability_threshold": args.threshold, "min_area": args.min_area}
    flags = {key: value for key, value in flags.items() if value is not None}
    cfg.postprocess = _merge_section(PostprocConfig, cfg.postprocess, flags, "postprocess")
    if args.bands is not None:
        names = [b.strip() for b in args.bands.split(",") if b.strip()]
        cfg.chip = _merge_section(ChipConfig, cfg.chip, {"bands": names}, "chip")
    return cfg


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


def _summary(obj: dict) -> None:
    sys.stdout.write(json.dumps(obj, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_synth(cfg: RunConfig, args) -> int:
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


def _scenes(cfg: RunConfig):
    """Each scene under ``paths.scene_dir`` as (name, source raster,
    annotations), read one at a time. A scene without a source band that
    ``chip.bands`` needs is refused, naming its header."""
    for base in _scene_bases(cfg.paths.scene_dir):
        raster = geodata.read_raster(base)
        try:
            ds.stacked_rows(raster, 0, 1, cfg.chip.bands)  # one row: a check of the bands
        except (KeyError, ValueError) as exc:
            raise ValueError(
                f"{base}.json: {exc.args[0]} (chip.bands {','.join(cfg.chip.bands)}; "
                f"the scene has {','.join(raster.band_names or ())})"
            ) from None
        yield base.name, raster, ds.scene_annotations(base)


def _chip(cfg: RunConfig) -> tuple[DatasetSplit, ds.NormalizationStats | None]:
    """The scenes' chips of ``cfg.chip.bands``, split, with the normalization
    fitted on the training chips (None without any)."""
    chips = ds.chip_scenes(_scenes(cfg), cfg.chip, substream(cfg.seed, "chip"))
    if not any(c.is_positive() for c in chips):
        log.warning("no positive chips extracted")
    seed = substream(cfg.seed, "split")
    if chips:
        split = ds.split_dataset(chips, cfg.chip.test_frac, cfg.chip.val_frac, seed)
    else:
        split = DatasetSplit(train=[], val=[], test=[], seed=seed)
    return split, ds.fit_normalization(split.train) if split.train else None


def cmd_chip(cfg: RunConfig, args) -> int:
    catalog_dir = args.out or cfg.paths.catalog
    split, stats = _chip(cfg)
    ds.save_catalog(catalog_dir, split, cfg.paths.scene_dir, stats)
    del split  # freed before the write-then-verify read, which reads every scene again
    split, _ = ds.load_catalog(catalog_dir)
    chips = split.train + split.val + split.test
    _summary(
        {
            "command": "chip",
            "chips": len(chips),
            "positives": sum(1 for c in chips if c.is_positive()),
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


def _train(cfg: RunConfig, split: DatasetSplit, stats: ds.NormalizationStats):
    """The ``cfg.model`` U-Net trained on ``split`` normalized with ``stats``:
    its config, best parameters and training report."""
    normalized = ds.normalize_split(split, stats)
    config = _build_model_config(cfg, split.train[0].samples.shape[0])
    params = unet.build_unet(config, substream(cfg.seed, "init"))
    shuffle = substream(cfg.seed, "shuffle")
    best, report = training.train(params, config, normalized, cfg.train, shuffle)
    return config, best, report


def cmd_train(cfg: RunConfig, args) -> int:
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
    names, count = chips[0].band_names, chips[0].samples.shape[0]
    if len(stats.means) != count or (stats.band_names and stats.band_names != names):
        raise ConfigError(
            f"checkpoint {cfg.paths.checkpoint} does not fit the chips of catalog "
            f"{cfg.paths.catalog}: its stats cover {len(stats.means)} bands "
            f"{stats.band_names or '(unnamed)'}, the chips have {count} {names}"
        )
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
            **asdict(metrics),
        }
    )
    return 0


def cmd_predict(cfg: RunConfig, args) -> int:
    ckpt = unet.load_checkpoint(cfg.paths.checkpoint)
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
    _summary(
        {
            "command": "predict",
            "raster": str(raster_path),
            "probability": str(out),
            "threshold": threshold,
            "pixels_above_threshold": above,
            "tiles": tiles,
            "timing": timing,  # not deterministic
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
        "total_area_m2": sum(detections.area.tolist()),  # in label order, as summed before
        "pixels_above_threshold": int(np.count_nonzero(binary.samples)),
        "output": str(out),
    }
    del detections  # freed before the verify read, which holds the whole file
    geodata.read_annotations(out)  # write-then-verify
    _summary(summary)
    return 0


def cmd_ablate(cfg: RunConfig, args) -> int:
    if args.bands is not None:
        raise ConfigError(
            "--bands: ablate trains its own band sets "
            f"({', '.join(ds.ABLATION_SPECS)}); drop the flag"
        )
    rows = []
    for label, bands in ds.ABLATION_SPECS.items():
        # chip's and train's own steps: the full band set's row is train's test
        run = replace(cfg, chip=replace(cfg.chip, bands=bands))
        split, stats = _chip(run)
        if stats is None:
            raise ConfigError("paths.scene_dir: the scenes give no training chips")
        config, best, report = _train(run, split, stats)
        metrics = report.test or training.evaluate(
            best, config, [ds.apply_normalization(c, stats) for c in split.val or split.train]
        )
        rows.append(training.AblationRow(label, metrics.loss, metrics.mean_iou))
        log.info("ablation %s: loss=%.4f mean_iou=%.4f", label, metrics.loss, metrics.mean_iou)
    out = args.out or cfg.paths.ablation
    training.save_ablation(rows, out)
    sys.stderr.write(training.format_ablation_table(rows) + "\n")
    _summary(
        {
            "command": "ablate",
            "output": str(out),
            "rows": [asdict(r) for r in rows],
        }
    )
    return 0


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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
        cfg = _apply_flags(cfg, args)
        return _COMMANDS[args.command][0](cfg, args)
    except ConfigError as exc:
        source = f" in {args.config}" if args.config else ""
        log.error("invalid configuration%s: %s", source, exc)
        return 1
    except (FileNotFoundError, ValueError, training.TrainingDiverged) as exc:
        log.error("%s", exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())

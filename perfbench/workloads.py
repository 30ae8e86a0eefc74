"""The benchmark workloads: inputs, one round of CLI stages, checks.

A round is the sequence of CLI stage invocations a user would run on the
workload's inputs; every run attempts whole rounds, so the share of failed
operations is the same in every run. ``round`` runs each stage through the
``run`` callable it is given and returns the round's measures, or an empty
dict when a clean stage failed.
"""

from __future__ import annotations

import json
import math
import shutil
from pathlib import Path

import numpy as np
from dumpwatch import dataset, geodata, numerics, unet

import checks
import inputs
import reference

BENCH_DIR = Path(__file__).resolve().parent
CHECKPOINT = BENCH_DIR / "checkpoint" / "scene_model"


def _write_config(path: Path, config: dict) -> Path:
    path.write_text(json.dumps(config, indent=2))
    return path


def _fresh(*paths: Path) -> None:
    for p in paths:
        if p.is_dir():
            shutil.rmtree(p)
        for suffix in (".json", ".bin"):
            Path(str(p) + suffix).unlink(missing_ok=True)


class Train:
    """``chip`` then ``train`` with the CLI's default chip size and model,
    plus the nodata ``chip`` + ``train`` that a known fault fails."""

    name = "train"
    SCENES = 4
    SCENE_SIZE = 150  # a 2x2 lattice of 100 px windows at stride 50
    DUMPS = 10  # dense enough that every window holds a dump
    EPOCHS = 3  # with 2 (two Adam steps) the loss rose on some seeds
    CHIP = 100
    GRAD_CHIPS = 2
    GRAD_SIZE = 16
    GRAD_COORDS = 6

    def __init__(self, work: Path, seed: int):
        self.work, self.seed = work, seed
        self.clean = work / "clean"
        self.nodata = work / "nodata"

    def setup(self) -> None:
        for root in (self.clean, self.nodata):
            (root / "scenes").mkdir(parents=True, exist_ok=True)
        inputs.train_scenes(self.seed, self.clean / "scenes", self.SCENES, self.SCENE_SIZE, self.DUMPS)
        inputs.nodata_scene(self.nodata / "scenes")
        train = {"max_epochs": self.EPOCHS, "plateau_patience": self.EPOCHS + 1}
        self.clean_cfg = _write_config(self.work / "clean.json", {
            "seed": self.seed,
            "paths": self._paths(self.clean),
            "chip": {"negatives_per_positive": 0.0},
            "train": train,
        })
        self.nodata_cfg = _write_config(self.work / "nodata.json", {
            "seed": inputs.NODATA_CHIP_SEED,
            "paths": self._paths(self.nodata),
            "chip": {"chip_size": 48, "stride": 24},
            "model": {"depth": 2, "base_filters": 4},
            "train": {"max_epochs": 1},
        })

    @staticmethod
    def _paths(root: Path) -> dict:
        return {
            "scene_dir": str(root / "scenes"),
            "catalog": str(root / "catalog"),
            "checkpoint": str(root / "model"),
            "report": str(root / "report.json"),
        }

    def round(self, run) -> dict:
        for root in (self.clean, self.nodata):
            _fresh(root / "catalog", root / "model", root / "report.json")
        chip = run("chip", ["chip", "--config", str(self.clean_cfg)])
        train = run("train", ["train", "--config", str(self.clean_cfg)])
        # Known fault: NaN pixels reach fit_normalization, and chip fails
        # when it writes stats.json. Train follows only if chip succeeds.
        if run("chip", ["chip", "--config", str(self.nodata_cfg)], clean=False).ok:
            run("train", ["train", "--config", str(self.nodata_cfg)], clean=False)
        if not (chip.ok and train.ok):
            return {}
        chips = chip.summary["train"]
        epochs = train.summary["stopping_epoch"]
        measures = {
            "stages_ref_s": chip.ref_s + train.ref_s,
            "main_stage_ref_mpx_per_s": chips * epochs * self.CHIP**2 / 1e6 / train.ref_s,
            "stages_wall_s": chip.wall_s + train.wall_s,
            "peak_rss_mb": max(chip.peak_rss_mb, train.peak_rss_mb),
        }
        self.counts = {
            "training_chips": chips,
            "val_chips": chip.summary["val"],
            "test_chips": chip.summary["test"],
            "epochs": epochs,
            "steps": epochs * math.ceil(chips / 16),
        }
        return measures

    def check(self) -> dict:
        report = json.loads((self.clean / "report.json").read_text())
        checks.check_losses(report, self.EPOCHS)
        manifest = json.loads((self.clean / "model.json").read_text())
        cfg = manifest["config"]
        if (cfg["depth"], cfg["base_filters"]) != (4, 16):
            raise checks.CheckFailed(f"checkpoint architecture {cfg}")
        expected = checks.unet_parameter_count(cfg["in_channels"], 4, 16)
        payload = (self.clean / "model.bin").stat().st_size
        if payload != 4 * expected:
            raise checks.CheckFailed(f"payload holds {payload // 4} parameters, architecture has {expected}")
        ckpt = unet.load_checkpoint(self.clean / "model")
        reloaded = sum(a.size for a in ckpt.parameters.values())
        if reloaded != expected:
            raise checks.CheckFailed(f"reloaded {reloaded} parameters, architecture has {expected}")

        # one small float64 batch from this run's catalog and checkpoint
        split, stats = dataset.load_catalog(self.clean / "catalog")
        chips = dataset.normalize_split(split, stats).train[: self.GRAD_CHIPS]
        s = self.GRAD_SIZE
        x = np.stack([c.samples[:, :s, :s] for c in chips]).astype(np.float64)
        y = np.stack([c.mask[:s, :s] for c in chips]).astype(np.float64)[:, None]
        params = {k: numerics.Tensor(v.astype(np.float64), requires_grad=True) for k, v in ckpt.parameters.items()}
        pos_weight = report["pos_weight"]

        def loss() -> numerics.Tensor:
            logits = unet.forward(params, ckpt.config, numerics.Tensor(x))
            return numerics.weighted_bce_with_logits(logits, numerics.Tensor(y), pos_weight)

        numerics.backward(loss())
        analytic = {k: p.grad.copy() for k, p in params.items()}
        rng = np.random.default_rng(inputs.substream(self.seed, "gradcheck"))
        names = sorted(params)
        coords = []
        for _ in range(self.GRAD_COORDS):
            name = names[int(rng.integers(len(names)))]
            coords.append((name, tuple(int(rng.integers(d)) for d in params[name].data.shape)))

        def loss_at(name, index, delta):
            keep = params[name].data[index]
            params[name].data[index] = keep + delta
            with numerics.no_grad():
                value = loss().item()
            params[name].data[index] = keep
            return value

        worst = checks.check_gradient(analytic, coords, loss_at)
        return {"gradient_worst_rel_diff": worst, "parameters": expected}


class Scene:
    """``predict`` then ``postprocess`` on one large scene with a nodata
    patch, using the frozen checkpoint."""

    name = "scene"
    SIZE = 1024
    DUMPS = 40
    PATCH = 16
    TILE, OVERLAP = 256, 32  # the CLI's inference defaults
    THRESHOLD = 0.5
    SAMPLES = 8
    TOLERANCE = 1e-4
    MIN_AREA = 300.0  # m^2: drops one- and two-pixel specks, as the C4 test does
    IOU_FLOOR = 0.55

    def __init__(self, work: Path, seed: int):
        self.work, self.seed = work, seed
        self.scene = work / "scene"
        self.prob = work / "probability"
        self.detections = work / "detections.geojson"

    def setup(self) -> None:
        self.work.mkdir(parents=True, exist_ok=True)
        self.truth = inputs.detection_scene(self.seed, self.scene, self.SIZE, self.DUMPS, self.PATCH)
        self.config = _write_config(self.work / "run.json", {
            "seed": self.seed,
            "paths": {
                "checkpoint": str(CHECKPOINT),
                "probability": str(self.prob),
                "detections": str(self.detections),
            },
            "postprocess": {"min_area": self.MIN_AREA},
        })

    def round(self, run) -> dict:
        _fresh(self.prob, self.detections)
        predict = run("predict", ["predict", "--config", str(self.config), "--raster", str(self.scene)])
        post = run("postprocess", ["postprocess", "--config", str(self.config)])
        if not (predict.ok and post.ok):
            return {}
        measures = {
            "stages_ref_s": predict.ref_s + post.ref_s,
            "main_stage_ref_mpx_per_s": self.SIZE**2 / 1e6 / predict.ref_s,
            "stages_wall_s": predict.wall_s + post.wall_s,
            "peak_rss_mb": max(predict.peak_rss_mb, post.peak_rss_mb),
        }
        tiles = len(reference.tile_origins(self.SIZE, self.TILE, self.OVERLAP)) ** 2
        self.counts = {"tiles": tiles, "components": post.summary["detections"]}
        return measures

    def check(self) -> dict:
        source, header = checks.read_raster(self.scene)
        prob, _ = checks.read_raster(self.prob)
        prob = prob[0]
        nodata = np.isnan(source).any(axis=0)
        checks.check_probability_range(prob, nodata)

        manifest, params = reference.load_checkpoint(CHECKPOINT)
        norm = manifest["normalization"]
        x = reference.model_input(source, norm["means"], norm["stds"])
        truth = checks.rasterize_polygons(
            [p.rings() for p in self.truth], header["transform"], self.SIZE, self.SIZE
        )
        pixels = self._sample_pixels(truth, nodata)
        expected = reference.probabilities(
            params, manifest["config"]["depth"], x, self.TILE, self.OVERLAP, pixels
        )
        worst = checks.check_reference(prob, pixels, expected, self.TOLERANCE)

        with np.errstate(invalid="ignore"):
            binary = (prob >= self.THRESHOLD) & ~nodata
        features = checks.read_features(self.detections)
        counts = checks.check_detections(features, binary, header["transform"], self.MIN_AREA)
        found = np.zeros_like(truth)
        for feature in features:
            r0, c0, mask = checks.rasterize_pixel_rings(checks.pixel_rings(feature["geometry"], header["transform"]))
            found[r0 : r0 + mask.shape[0], c0 : c0 + mask.shape[1]] |= mask
        score = checks.iou(found, truth)
        if score < self.IOU_FLOOR:
            raise checks.CheckFailed(f"detection IoU {score:.3f} below the floor {self.IOU_FLOOR}")
        return {"reference_worst_abs_diff": worst, "iou": score, **counts}

    def _sample_pixels(self, truth: np.ndarray, nodata: np.ndarray) -> list[tuple[int, int]]:
        """Seeded valid pixels in the first two tile rows and columns, half
        of them on dumps; the reference then needs at most four tiles."""
        span = 2 * (self.TILE - self.OVERLAP)
        rng = np.random.default_rng(inputs.substream(self.seed, "scene.samples"))
        truth = truth[:span, :span]
        pool_fg = np.argwhere(truth & ~nodata[:span, :span])
        pool_bg = np.argwhere(~truth & ~nodata[:span, :span])
        half = self.SAMPLES // 2
        picks = [pool_fg[i] for i in rng.choice(len(pool_fg), min(half, len(pool_fg)), replace=False)]
        picks += [pool_bg[i] for i in rng.choice(len(pool_bg), self.SAMPLES - len(picks), replace=False)]
        return [(int(r), int(c)) for r, c in picks]


class Vectorize:
    """``postprocess`` with min_area 0 over a generated probability field:
    10^4 speckle components and one comb whose ring has 1536 vertices."""

    name = "vectorize"
    SIZE = 384  # a round short enough that a run takes the median of three
    SPECKLES = 10_000
    TEETH = 384
    TOOTH_MAX = 24

    def __init__(self, work: Path, seed: int):
        self.work, self.seed = work, seed
        self.prob = work / "probability"
        self.detections = work / "detections.geojson"

    def setup(self) -> None:
        self.work.mkdir(parents=True, exist_ok=True)
        field = inputs.speckle_field(self.seed, self.SIZE, self.SPECKLES, self.TEETH, self.TOOTH_MAX)
        geodata.write_raster(field, self.prob)
        self.config = _write_config(self.work / "vectorize.json", {
            "seed": self.seed,
            "paths": {"probability": str(self.prob), "detections": str(self.detections)},
            "postprocess": {"min_area": 0.0},
        })

    def round(self, run) -> dict:
        _fresh(self.detections)
        post = run("postprocess", ["postprocess", "--config", str(self.config)])
        if not post.ok:
            return {}
        measures = {
            "stages_ref_s": post.ref_s,
            "main_stage_ref_mpx_per_s": self.SIZE**2 / 1e6 / post.ref_s,
            "stages_wall_s": post.wall_s,
            "peak_rss_mb": post.peak_rss_mb,
        }
        self.counts = {"components": post.summary["detections"]}
        return measures

    def check(self) -> dict:
        prob, header = checks.read_raster(self.prob)
        with np.errstate(invalid="ignore"):
            binary = prob[0] >= 0.5
        features = checks.read_features(self.detections)
        return checks.check_detections(features, binary, header["transform"])


WORKLOADS = {w.name: w for w in (Train, Scene, Vectorize)}

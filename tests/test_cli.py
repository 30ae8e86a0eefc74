import contextlib
import dataclasses
import hashlib
import io
import json
import math
import subprocess
import sys
import time
import types
import typing
from pathlib import Path

import numpy as np
import pytest

from dumpwatch import cli, geodata, unet
from dumpwatch import dataset as ds
from dumpwatch.cli import (
    ConfigError,
    RunConfig,
    _apply_flags,
    build_parser,
    load_config,
    substream,
)
from dumpwatch.dataset import (
    ABLATION_SPECS,
    CatalogIndex,
    DEFAULT_BAND_SPEC,
    SOURCE_BANDS,
    Chip,
    DatasetSplit,
    NormalizationStats,
    SynthConfig,
    generate_synthetic,
    load_catalog,
    save_catalog,
    stack_bands,
)
from dumpwatch.geodata import (
    GeoTransform,
    Raster,
    read_annotations,
    read_raster,
    write_annotations,
    write_raster,
)
from dumpwatch.unet import (
    UNetConfig,
    build_unet,
    checkpoint_from_params,
    load_checkpoint,
    save_checkpoint,
)


def run_cli(argv, capsys):
    """Invoke the CLI in-process and parse the summary line from stdout."""
    code = cli.main(argv)
    out = capsys.readouterr().out
    lines = [line for line in out.splitlines() if line.strip()]
    summary = json.loads(lines[-1]) if lines else None
    return code, summary


class TestSubstream:
    def test_deterministic(self):
        assert substream(7, "chip") == substream(7, "chip")

    def test_distinct_names_and_seeds(self):
        streams = {
            substream(seed, name)
            for seed in (0, 1, 2)
            for name in ("chip", "split", "init", "shuffle", "synth.0", "synth.1")
        }
        assert len(streams) == 18

    def test_range_is_64_bit(self):
        value = substream(0, "init")
        assert 0 <= value < 2**64


class TestLoadConfig:
    def test_none_gives_defaults(self):
        cfg = load_config(None)
        assert cfg.seed == 0
        assert cfg.chip.bands == DEFAULT_BAND_SPEC
        assert cfg.model.depth == 4

    def test_sections_merge_over_defaults(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(
            json.dumps(
                {
                    "seed": 11,
                    "model": {"depth": 2},
                    "chip": {"bands": ["R", "G", "B"]},
                    "train": {"max_epochs": 3},
                    "postprocess": {"min_area": 300},  # a number field takes an integer
                    "synth": {"dump_radius_range": [3, 5.5]},
                }
            )
        )
        cfg = load_config(str(path))
        assert cfg.seed == 11
        assert cfg.model.depth == 2
        assert cfg.model.base_filters == 16  # untouched default
        assert cfg.chip.bands == ("R", "G", "B")
        assert cfg.train.max_epochs == 3
        assert cfg.train.batch_size == 16
        assert cfg.postprocess.min_area == 300
        assert cfg.synth.dump_radius_range == (3, 5.5)

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="not found"):
            load_config("/nonexistent/run.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_config(str(path))

    def test_root_must_be_object(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        with pytest.raises(ConfigError, match=r"^expected object, got \[1, 2\]$"):
            load_config(str(path))

    def test_unknown_section(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"nonsense": {}}))
        with pytest.raises(ConfigError, match="^nonsense: unknown field$"):
            load_config(str(path))

    def test_unknown_field_names_section(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"chip": {"chip_sz": 64}}))
        with pytest.raises(ConfigError, match="chip.chip_sz: unknown field"):
            load_config(str(path))

    def test_invalid_value_wrapped(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"postprocess": {"connectivity": 6}}))
        with pytest.raises(ConfigError, match="^postprocess.connectivity: must be 4 or 8, got 6$"):
            load_config(str(path))

    @pytest.mark.parametrize(
        "data, message",
        [
            ({"inference": {"tile_size": 64.0}}, "inference.tile_size: expected integer, got 64.0"),
            ({"synth": {"scene_count": 1.0}}, "synth.scene_count: expected integer, got 1.0"),
            ({"chip": {"chip_size": 32.0}}, "chip.chip_size: expected integer, got 32.0"),
            ({"chip": {"bands": "RGB"}}, 'chip.bands: expected list of strings, got "RGB"'),
            ({"chip": {"bands": ["R", 1]}}, "chip.bands[1]: expected string, got 1"),
            ({"model": {"depth": True}}, "model.depth: expected integer, got true"),
            (
                {"synth": {"dump_radius_range": [4.0, 8.0, 12.0]}},
                "synth.dump_radius_range: expected list of 2 finite numbers, got [4.0, 8.0, 12.0]",
            ),
            ({"train": {"pos_weight": None}}, 'train.pos_weight: expected finite number or "auto", got null'),
            ({"paths": {"catalog": 7}}, "paths.catalog: expected string, got 7"),
            ({"train": {"seed": 5}}, "train.seed: unknown field"),
        ],
    )
    def test_value_of_the_wrong_type_names_the_field(self, tmp_path, data, message):
        path = tmp_path / "run.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ConfigError) as exc:
            load_config(str(path))
        assert str(exc.value) == message

    @pytest.mark.parametrize(
        "data, message",
        [
            ({"chip": {"stride": 0}}, "chip.stride: must be >= 1, got 0"),
            ({"chip": {"chip_size": 0}}, "chip.chip_size: must be >= 1, got 0"),
            (
                {"chip": {"negatives_per_positive": -1}},
                "chip.negatives_per_positive: must be >= 0, got -1",
            ),
            ({"chip": {"test_frac": 1.5}}, "chip.test_frac: must be in [0, 1), got 1.5"),
            (
                {"chip": {"test_frac": 0.5, "val_frac": 0.5}},
                "chip.val_frac: test_frac + val_frac must be below 1, got 0.5 + 0.5",
            ),
            ({"synth": {"scene_count": 0}}, "synth.scene_count: must be in [1, 1000], got 0"),
            ({"synth": {"scene_count": -2}}, "synth.scene_count: must be in [1, 1000], got -2"),
            ({"synth": {"scene_size": 4}}, "synth.scene_size: must be in [16, 2**31), got 4"),
            (
                {"synth": {"scene_size": 16, "dump_radius_range": [2, 8]}},
                "synth.dump_radius_range: radius 8 too large for scene_size 16",
            ),
        ],
    )
    def test_value_out_of_range_names_the_field(self, tmp_path, data, message):
        path = tmp_path / "run.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ConfigError) as exc:
            load_config(str(path))
        assert str(exc.value) == message

    def test_seed_must_be_integer(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"seed": True}))
        with pytest.raises(ConfigError, match="seed"):
            load_config(str(path))


class TestFlags:
    def _args(self, **kwargs):
        defaults = {"seed": None, "threshold": None, "min_area": None, "bands": None}
        defaults.update(kwargs)
        import argparse

        return argparse.Namespace(**defaults)

    def test_seed_flag_beats_config(self):
        cfg = RunConfig(seed=3)
        cfg = _apply_flags(cfg, self._args(seed=9))
        assert cfg.seed == 9

    def test_threshold_and_min_area(self):
        cfg = _apply_flags(RunConfig(), self._args(threshold=0.7, min_area=250.0))
        assert cfg.postprocess.probability_threshold == 0.7
        assert cfg.postprocess.min_area == 250.0

    def test_invalid_threshold_is_config_error(self):
        with pytest.raises(ConfigError, match=r"^postprocess.probability_threshold: must be in \(0, 1\)"):
            _apply_flags(RunConfig(), self._args(threshold=1.5))

    @pytest.mark.parametrize(
        "flag, field, value", [("threshold", "probability_threshold", 1.5), ("min_area", "min_area", -1.0)]
    )
    def test_flag_and_config_file_give_one_message(self, tmp_path, flag, field, value):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"postprocess": {field: value}}))
        with pytest.raises(ConfigError) as from_file:
            load_config(str(path))
        with pytest.raises(ConfigError) as from_flag:
            _apply_flags(RunConfig(), self._args(**{flag: value}))
        assert str(from_flag.value) == str(from_file.value)
        assert str(from_file.value).startswith(f"postprocess.{field}: must be ")

    def test_bands_csv(self):
        cfg = _apply_flags(RunConfig(), self._args(bands="R, G,B"))
        assert cfg.chip.bands == ("R", "G", "B")

    def test_empty_bands_rejected(self):
        with pytest.raises(ConfigError, match="empty band list"):
            _apply_flags(RunConfig(), self._args(bands=" , "))

    def test_unknown_band_names_the_field(self):
        with pytest.raises(ConfigError, match="^chip.bands: unknown band 'XYZ'"):
            _apply_flags(RunConfig(), self._args(bands="R,XYZ"))


class TestParser:
    def test_command_required(self):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([])
        assert exc.value.code == 2

    def test_unknown_flag(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["synth", "--frobnicate"])

    def test_evaluate_split_choices(self):
        args = build_parser().parse_args(["evaluate", "--split", "val"])
        assert args.split == "val"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["evaluate", "--split", "bogus"])


@pytest.fixture(scope="class")
def ws(tmp_path_factory):
    """Run synth -> chip -> train once; later stages reuse the artifacts."""
    root = tmp_path_factory.mktemp("pipeline")
    config = {
        "seed": 7,
        "paths": {
            "scene_dir": str(root / "scenes"),
            "catalog": str(root / "catalog"),
            "checkpoint": str(root / "model"),
            "probability": str(root / "probability"),
            "detections": str(root / "detections.geojson"),
            "report": str(root / "report.json"),
            "ablation": str(root / "ablation"),
        },
        "synth": {
            "scene_count": 2,
            "scene_size": 96,
            "dump_count": 3,
            "dump_radius_range": [4.0, 9.0],
        },
        "chip": {"chip_size": 48, "stride": 24, "test_frac": 0.2, "val_frac": 0.25},
        "model": {"depth": 1, "base_filters": 4},
        "train": {"batch_size": 8, "max_epochs": 2, "learning_rate": 0.003},
        "inference": {"tile_size": 48, "overlap": 8, "batch_size": 4},
        "postprocess": {
            "probability_threshold": 0.5,
            "min_area": 0.0,
            "connectivity": 8,
        },
    }
    config_path = root / "run.json"
    config_path.write_text(json.dumps(config))

    summaries = {}
    for command in ("synth", "chip", "train"):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main([command, "--config", str(config_path)])
        assert code == 0, f"{command} failed"
        summaries[command] = json.loads(buf.getvalue().strip().splitlines()[-1])
    return {"root": root, "config": str(config_path), "summaries": summaries}


class TestEndToEnd:
    def test_synth_artifacts(self, ws):
        summary = ws["summaries"]["synth"]
        assert len(summary["scenes"]) == 2
        root = ws["root"]
        for i in range(2):
            base = root / "scenes" / f"scene_{i:03d}"
            raster = read_raster(base)
            assert raster.band_names == ("R", "G", "B", "NIR", "SWIR1", "SWIR2")
            assert raster.samples.shape == (6, 96, 96)
            polygons = read_annotations(str(base) + ".geojson")
            assert len(polygons) == 3

    def test_seed_changes_scenes(self, ws):
        a = read_raster(ws["root"] / "scenes" / "scene_000")
        b = read_raster(ws["root"] / "scenes" / "scene_001")
        assert a.samples.tobytes() != b.samples.tobytes()

    def test_chip_catalog(self, ws):
        summary = ws["summaries"]["chip"]
        assert summary["chips"] > 0
        assert summary["positives"] > 0
        assert summary["train"] + summary["val"] + summary["test"] == summary["chips"]
        split, stats = load_catalog(ws["root"] / "catalog")
        assert len(split.train) == summary["train"]
        assert stats is not None
        assert len(stats.means) == 6  # default band spec

    def test_train_checkpoint(self, ws):
        summary = ws["summaries"]["train"]
        assert summary["stopping_epoch"] >= 1
        ckpt = load_checkpoint(ws["root"] / "model")
        assert ckpt.config.depth == 1
        assert ckpt.config.in_channels == 6
        assert ckpt.normalization is not None
        assert ckpt.training_metadata["seed"] == 7
        report = json.loads((ws["root"] / "report.json").read_text())
        assert len(report["epochs"]) == summary["stopping_epoch"]

    def test_train_summary_counts_the_work(self, ws):
        summary = ws["summaries"]["train"]
        split, _ = load_catalog(ws["root"] / "catalog")
        counts = [summary[f"{name}_chips"] for name in ("train", "val", "test")]
        assert counts == [len(split.train), len(split.val), len(split.test)]
        # batch_size 8: an epoch's steps are its batches, the last one short
        assert summary["steps"] == summary["stopping_epoch"] * math.ceil(len(split.train) / 8)
        assert summary["steps"] > summary["stopping_epoch"]

    def test_evaluate(self, ws, capsys):
        code, summary = run_cli(
            ["evaluate", "--config", ws["config"], "--split", "val"], capsys
        )
        assert code == 0
        assert summary["split"] == "val"
        assert summary["count"] > 0
        assert 0.0 <= summary["mean_iou"] <= 1.0
        assert len(summary["per_chip_iou"]) == summary["count"]

    def test_predict(self, ws, capsys):
        code, summary = run_cli(["predict", "--config", ws["config"]], capsys)
        assert code == 0
        prob = read_raster(ws["root"] / "probability")
        assert prob.band_names == ("probability",)
        assert prob.samples.shape == (1, 96, 96)
        vals = prob.samples[np.isfinite(prob.samples)]
        assert np.all((vals >= 0) & (vals <= 1))
        assert summary["pixels_above_threshold"] >= 0
        assert summary["tiles"] == 9  # origins 0, 40 and 48 along each 96 px axis
        assert set(summary["timing"]) == {"predict_rows_s", "write_rows_s"}
        assert all(s >= 0 for s in summary["timing"].values())

    def test_every_summary_carries_wall_time_and_peak_memory(self, ws, capsys, monkeypatch):
        summaries = dict(ws["summaries"])
        for command in ("evaluate", "predict", "postprocess", "ablate"):
            code, summaries[command] = run_cli([command, "--config", ws["config"]], capsys)
            assert code == 0
        assert set(summaries) == set(cli._COMMANDS)
        proc = Path("/proc/self/status").exists()
        for command, summary in summaries.items():
            assert summary["command"] == command
            assert type(summary["wall_s"]) is float and summary["wall_s"] >= 0
            assert (type(summary["peak_rss_mb"]) is float and summary["peak_rss_mb"] > 0) if proc else summary["peak_rss_mb"] is None
        monkeypatch.setattr(cli, "_STATUS", ws["root"] / "no-proc" / "status")
        assert run_cli(["postprocess", "--config", ws["config"]], capsys)[1]["peak_rss_mb"] is None

    def test_predict_is_deterministic(self, ws, capsys):
        out_b = ws["root"] / "probability_second"
        code, _ = run_cli(
            ["predict", "--config", ws["config"], "--out", str(out_b)], capsys
        )
        assert code == 0
        a = read_raster(ws["root"] / "probability")
        b = read_raster(out_b)
        assert a.samples.tobytes() == b.samples.tobytes()

    def test_postprocess(self, ws, capsys):
        _, predicted = run_cli(["predict", "--config", ws["config"]], capsys)
        code, summary = run_cli(["postprocess", "--config", ws["config"]], capsys)
        assert code == 0
        assert summary["pixels_above_threshold"] == predicted["pixels_above_threshold"]
        doc = json.loads((ws["root"] / "detections.geojson").read_text())
        assert doc["type"] == "FeatureCollection"
        assert len(doc["features"]) == summary["detections"]
        for feature in doc["features"]:
            assert feature["properties"]["area_m2"] > 0

    def test_postprocess_min_area_flag(self, ws, capsys):
        code, summary = run_cli(
            [
                "postprocess",
                "--config",
                ws["config"],
                "--min-area",
                "1e9",
                "--out",
                str(ws["root"] / "filtered.geojson"),
            ],
            capsys,
        )
        assert code == 0
        assert summary["detections"] == 0

    def test_ablate(self, ws, capsys):
        code, summary = run_cli(["ablate", "--config", ws["config"]], capsys)
        assert code == 0
        labels = [row["label"] for row in summary["rows"]]
        assert labels == ["RGB", "RGB-NIR", "RGB-NIR-SWIR", "RGB-NIR-SWIR-NDSW"]
        for row in summary["rows"]:
            assert 0.0 <= row["mean_iou"] <= 1.0
        assert (ws["root"] / "ablation.json").exists()
        assert (ws["root"] / "ablation.txt").exists()

    def test_ablate_full_band_row_is_trains_test(self, ws, capsys):
        # ablate runs chip's and train's own steps, so its row for the
        # default band stack is the model train built, scored alike
        code, summary = run_cli(["ablate", "--config", ws["config"]], capsys)
        assert code == 0
        full = summary["rows"][-1]
        assert full["label"] == "RGB-NIR-SWIR-NDSW"
        test = json.loads((ws["root"] / "report.json").read_text())["test"]
        assert (full["loss"], full["mean_iou"]) == (test["loss"], test["mean_iou"])


class TestErrorExits:
    def test_ablate_rejects_bands_flag(self, tmp_path, capsys, caplog):
        # rejected before any scene is read: the scene directory need not exist
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"paths": {"scene_dir": str(tmp_path / "missing")}}))
        code, summary = run_cli(["ablate", "--config", str(cfg), "--bands", "R,G,B"], capsys)
        assert code == 1 and summary is None
        assert "--bands: ablate trains its own band sets" in caplog.text
        assert not (tmp_path / "ablation.json").exists()

    def test_ablate_accepts_config_bands(self, tmp_path, capsys, caplog):
        # chip.bands is shared with chip and train; ablate goes on to the scenes
        cfg = tmp_path / "run.json"
        cfg.write_text(
            json.dumps(
                {
                    "paths": {"scene_dir": str(tmp_path / "missing")},
                    "chip": {"bands": ["R", "G", "B"]},
                }
            )
        )
        code, _ = run_cli(["ablate", "--config", str(cfg)], capsys)
        assert code == 1
        assert "paths.scene_dir: no such directory" in caplog.text
        assert "--bands" not in caplog.text

    def test_ablate_without_training_chips(self, tmp_path, capsys, caplog):
        # a scene without a dump gives no chip to train on
        cfg = tmp_path / "run.json"
        cfg.write_text(
            json.dumps(
                {
                    "paths": {"scene_dir": str(tmp_path / "scenes"), "ablation": str(tmp_path / "ablation")},
                    "synth": {"scene_count": 1, "scene_size": 96},
                    "chip": {"chip_size": 48},
                }
            )
        )
        assert run_cli(["synth", "--config", str(cfg)], capsys)[0] == 0
        (tmp_path / "scenes" / "scene_000.geojson").unlink()
        code, summary = run_cli(["ablate", "--config", str(cfg)], capsys)
        assert code == 1 and summary is None
        assert "paths.scene_dir: the scenes give no training chips" in caplog.text
        assert not (tmp_path / "ablation.json").exists()

    def test_chip_without_scenes(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"paths": {"scene_dir": str(tmp_path / "missing")}}))
        code, summary = run_cli(["chip", "--config", str(cfg)], capsys)
        assert code == 1
        assert summary is None  # no summary JSON on failure

    def test_train_without_catalog(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"paths": {"catalog": str(tmp_path / "nope")}}))
        code, _ = run_cli(["train", "--config", str(cfg)], capsys)
        assert code == 1

    def test_bad_config_exits_one(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"postprocess": {"probability_threshold": 2.0}}))
        code, _ = run_cli(["synth", "--config", str(cfg)], capsys)
        assert code == 1

    def test_postprocess_without_probability(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(
            json.dumps({"paths": {"probability": str(tmp_path / "absent")}})
        )
        code, _ = run_cli(["postprocess", "--config", str(cfg)], capsys)
        assert code == 1


def _scene_with_vertex(root, vertex):
    """One flat source scene whose single annotation ring has ``vertex``
    (JSON text) as its second vertex."""
    return _scene_with_feature(
        root,
        '{"type": "Feature", "geometry": {"type": "Polygon", "coordinates": '
        f'[[[0, 0], {vertex}, [1, 1], [0, 0]]]}}, "properties": {{}}}}',
    )


def _scene_with_bands(root, bands):
    """One flat 32 px source scene of ``bands`` with one dump, under the
    default ``chip.bands``; its header is the file to name."""
    base = root / "scenes" / "scene_000"
    raster = Raster(np.ones((len(bands), 32, 32), np.float32), GeoTransform(0.0, 32.0, 1.0, 1.0), band_names=bands)
    write_raster(raster, base)
    Path(str(base) + ".geojson").write_text(
        '{"type": "FeatureCollection", "features": [{"type": "Feature", "properties": {}, '
        '"geometry": {"type": "Polygon", "coordinates": [[[4, 4], [12, 4], [12, 12], [4, 12], [4, 4]]]}}]}'
    )
    config = {"paths": {"scene_dir": str(root / "scenes"), "catalog": str(root / "catalog")}}
    return config, Path(str(base) + ".json")


def _scene_with_feature(root, feature):
    """One flat source scene whose annotations are the single ``feature``
    (JSON text)."""
    write_raster(
        Raster(
            np.ones((6, 16, 16), np.float32),
            GeoTransform(0.0, 16.0, 1.0, 1.0),
            band_names=SOURCE_BANDS,
        ),
        root / "scenes" / "scene_000",
    )
    path = root / "scenes" / "scene_000.geojson"
    path.write_text(f'{{"type": "FeatureCollection", "features": [{feature}]}}')
    return {"paths": {"scene_dir": str(root / "scenes")}}, path


def _chip_config(root, **chip):
    """A scene ``chip`` could cut, and ``chip`` set in the config file."""
    config, _ = _scene_with_feature(
        root,
        '{"type": "Feature", "geometry": {"type": "Polygon", "coordinates": '
        "[[[2, 2], [8, 2], [8, 8], [2, 2]]]}}",
    )
    config["paths"]["catalog"] = str(root / "catalog")
    return {**config, "chip": {"chip_size": 8, "stride": 4, **chip}}, root / "run.json"


def _catalog_with_nan_seed(root):
    path = root / "catalog" / "index.json"
    path.parent.mkdir()
    path.write_text(
        '{"format": "dumpwatch.catalog", "format_version": 2, "chip_size": null, '
        '"band_names": null, "seed": NaN, "scenes": "../scenes", "chips": []}'
    )
    return {"paths": {"catalog": str(path.parent)}}, path


def _catalog(root, stats=None, bands=("R", "G", "B")):
    """A catalog of the one 16 px window of a flat dump-free scene, of
    ``bands``, in every split, with ``stats``."""
    base = root / "scenes" / "scene_000"
    raster = Raster(np.ones((6, 16, 16), np.float32), GeoTransform(0.0, 16.0, 1.0, 1.0), band_names=SOURCE_BANDS)
    write_raster(raster, base)
    chip = Chip(stack_bands(raster, bands).samples, np.zeros((16, 16), np.uint8), (0, 0), bands, base.name)
    save_catalog(root / "catalog", DatasetSplit([chip], [chip], [chip]), root / "scenes", stats)
    return {"paths": {"catalog": str(root / "catalog")}}


def _edited_catalog(root, file, edit):
    """A catalog whose ``file`` (index.json or stats.json) holds ``edit`` of
    its JSON document."""
    config = _catalog(root, NormalizationStats((0.0,) * 3, (1.0,) * 3, ("R", "G", "B")))
    path = root / "catalog" / file
    path.write_text(json.dumps(edit(json.loads(path.read_text()))))
    return config, path


def _edited_chip(key, value):
    """An index edit that sets the first chip's ``key`` to ``value``."""
    return lambda doc: {**doc, "chips": [{**doc["chips"][0], key: value}, *doc["chips"][1:]]}


def _catalog_without_scene(root):
    config, index = _edited_catalog(root, "index.json", lambda doc: doc)
    for suffix in (".json", ".bin"):
        (root / "scenes" / f"scene_000{suffix}").unlink()
    return config, index


def _catalog_with_edited_annotations(root):
    """A catalog of a dump-free window whose scene gained a dump after it
    was chipped."""
    config, index = _edited_catalog(root, "index.json", lambda doc: doc)
    (root / "scenes" / "scene_000.geojson").write_text(
        '{"type": "FeatureCollection", "features": [{"type": "Feature", "geometry": '
        '{"type": "Polygon", "coordinates": [[[2, 2], [8, 2], [8, 8], [2, 2]]]}}]}'
    )
    return config, index


def _catalog_with_rewritten_scene(root):
    """A catalog whose scene raster was written again, with other pixels,
    after it was chipped; its annotations are unchanged."""
    config, index = _edited_catalog(root, "index.json", lambda doc: doc)
    base = root / "scenes" / "scene_000"
    raster = read_raster(base)
    write_raster(Raster(raster.samples * 2, raster.transform, band_names=raster.band_names), base)
    return config, index


def _without(key):
    return lambda doc: {k: v for k, v in doc.items() if k != key}


def _evaluate_inputs(root, bands):
    """A catalog of R,G,B chips and a checkpoint whose stats cover ``bands``
    (of R,G,B without stats when None)."""
    config = UNetConfig(in_channels=len(bands or "RGB"), depth=2, base_filters=2)
    stats = bands and NormalizationStats((0.0,) * len(bands), (1.0,) * len(bands), bands)
    save_checkpoint(checkpoint_from_params(config, build_unet(config), normalization=stats), root / "model")
    paths = {**_catalog(root)["paths"], "checkpoint": str(root / "model")}
    return {"paths": paths}, root / "model"


def _probability(root, value=0.5, header_edit=("", "")):
    samples = np.full((1, 8, 8), 0.25, np.float32)
    samples[0, 3, 5] = value
    base = root / "probability"
    write_raster(
        Raster(samples, GeoTransform(0.0, 8.0, 1.0, 1.0), band_names=("probability",)),
        base,
    )
    header = root / "probability.json"
    header.write_text(header.read_text().replace(*header_edit))
    return {"paths": {"probability": str(base)}}, header if header_edit[0] else base


def _probability_over_detections(root, header_edit, value=0.5):
    """``_probability`` with ``header_edit`` and ``value``, and an earlier
    detections.geojson where postprocess writes its output."""
    config, header = _probability(root, value, header_edit)
    earlier = root / "detections.geojson"
    earlier.write_text('{"type": "FeatureCollection", "features": []}\n')
    config["paths"]["detections"] = str(earlier)
    return config, header


def _predict_inputs(root, truncate=0, tile_size=256, bands=DEFAULT_BAND_SPEC):
    """A flat source scene of 40x24 px, its payload cut short by
    ``truncate`` bytes, and a depth-2 checkpoint of ``bands`` with their
    stats; ``tile_size`` for inference."""
    base = root / "scenes" / "scene_000"
    write_raster(
        Raster(np.ones((6, 40, 24), np.float32), GeoTransform(0.0, 40.0, 1.0, 1.0), band_names=SOURCE_BANDS),
        base,
    )
    payload = Path(str(base) + ".bin")
    payload.write_bytes(payload.read_bytes()[: payload.stat().st_size - truncate])
    config = UNetConfig(in_channels=len(bands), depth=2, base_filters=2)
    stats = NormalizationStats((0.0,) * len(bands), (1.0,) * len(bands), bands)
    save_checkpoint(checkpoint_from_params(config, build_unet(config), stats), root / "model")
    paths = {"checkpoint": str(root / "model"), "predict_raster": str(base), "probability": str(root / "out")}
    return {"paths": paths, "chip": {"bands": list(bands)}, "inference": {"tile_size": tile_size, "overlap": 0}}, payload


def _edited_checkpoint(root, edit, bands=DEFAULT_BAND_SPEC):
    """``_predict_inputs`` whose model.json holds ``edit`` of its document."""
    config, _ = _predict_inputs(root, bands=bands)
    path = root / "model.json"
    path.write_text(json.dumps(edit(json.loads(path.read_text()))))
    return config, path


def _checkpoint_with_nan_weight(root):
    """``_predict_inputs`` whose model.bin holds a NaN in head.weight."""
    config, _ = _predict_inputs(root)
    path = root / "model.bin"
    weights = np.frombuffer(path.read_bytes(), "<f4").copy()
    weights[-2] = np.nan  # the last value before head.bias
    path.write_bytes(weights.tobytes())
    return config, path


def _edited_normalization(key, value):
    """A model.json edit that sets its normalization's ``key`` to ``value``."""
    return lambda doc: {**doc, "normalization": {**doc["normalization"], key: value}}


def _edited_scene_header(root, edit):
    """``_predict_inputs`` whose scene header holds ``edit`` of its document."""
    config, _ = _predict_inputs(root)
    path = root / "scenes" / "scene_000.json"
    path.write_text(json.dumps(edit(json.loads(path.read_text()))))
    return config, path


def _without_file(build, name):
    """``build``'s inputs without their file ``name``, the file to name."""

    def without(root):
        config, _ = build(root)
        (root / name).unlink()
        return config, root / name

    return without


# (command, input builder, fragments the error must carry besides the file)
MALFORMED_INPUTS = {
    "nan-vertex": (
        "chip",
        lambda r: _scene_with_vertex(r, "[NaN, 0]"),
        ["invalid JSON", "constant NaN"],
    ),
    "1e400-vertex": (
        "chip",
        lambda r: _scene_with_vertex(r, "[1e400, 0]"),
        ["feature 0, exterior: vertex 1 is [inf, 0]"],
    ),
    "huge-integer-vertex": (
        "chip",
        lambda r: _scene_with_vertex(r, f"[1{'0' * 400}, 0]"),
        ["non-finite vertex", "feature 0, exterior: vertex 1 is [1000"],
    ),
    "string-coordinates": (
        "chip",
        lambda r: _scene_with_vertex(r, '["1", "0"]'),
        [
            "malformed vertex in",
            'feature 0, exterior: vertex 1 is ["1", "0"], not an [x, y] pair of numbers',
        ],
    ),
    "boolean-coordinate": (
        "chip",
        lambda r: _scene_with_vertex(r, "[true, 0]"),
        ["feature 0, exterior: vertex 1 is [true, 0]"],
    ),
    "null-coordinate": (
        "chip",
        lambda r: _scene_with_vertex(r, "[null, 0]"),
        ["feature 0, exterior: vertex 1 is [null, 0]"],
    ),
    "three-value-vertex": (
        "chip",
        lambda r: _scene_with_vertex(r, "[1, 0, 0]"),
        ["feature 0, exterior: vertex 1 is [1, 0, 0]"],
    ),
    "string-vertex": (
        "chip",
        lambda r: _scene_with_vertex(r, '"a"'),
        ['feature 0, exterior: vertex 1 is "a"'],
    ),
    "number-ring": (
        "chip",
        lambda r: _scene_with_feature(
            r,
            '{"type": "Feature", "geometry": {"type": "Polygon", "coordinates": '
            '[[[0, 0], [4, 0], [4, 4], [0, 0]], 5]}}',
        ),
        ["malformed ring in", "feature 0, hole 0: 5 is not a list of vertices"],
    ),
    "geometry-without-coordinates": (
        "chip",
        lambda r: _scene_with_feature(r, '{"type": "Feature", "geometry": {"type": "Polygon"}}'),
        ["malformed feature in", "feature 0: no coordinates"],
    ),
    "feature-not-an-object": (
        "chip",
        lambda r: _scene_with_feature(r, '"Feature"'),
        ["malformed feature in", "feature 0: not an object"],
    ),
    "multipolygon-without-parts": (
        "chip",
        lambda r: _scene_with_feature(
            r, '{"type": "Feature", "geometry": {"type": "MultiPolygon", "coordinates": []}}'
        ),
        ["malformed polygon in", "feature 0: coordinates are [], not a list of one or more polygons"],
    ),
    "catalog-window-outside-scene": (
        "train",
        lambda r: _edited_catalog(r, "index.json", _edited_chip("origin", [-1, 0])),
        ["index.json: scene 'scene_000' (", "chips[0]: its 16 px window at origin [-1, 0] lies outside the scene's 16x16 px"],
    ),
    "catalog-window-past-scene-edge": (
        "train",
        lambda r: _edited_catalog(r, "index.json", _edited_chip("origin", [0, 1])),
        ["index.json: scene 'scene_000' (", "chips[0]: its 16 px window at origin [0, 1] lies outside the scene's 16x16 px"],
    ),
    "catalog-scene-missing": (
        "train",
        _catalog_without_scene,
        ["index.json: scene 'scene_000' (", "scene_000.json"],
    ),
    "catalog-annotations-edited-after-chip": (
        "train",
        _catalog_with_edited_annotations,
        [
            "index.json: scene 'scene_000' (",
            "chips[0]: recorded positive false, but the annotations give true",
            "edited after `dumpwatch chip`? re-run it",
        ],
    ),
    "catalog-scene-rewritten-after-chip": (
        "train",
        _catalog_with_rewritten_scene,
        ["index.json: scene 'scene_000' (", "its sha256 is not ", "written again after `dumpwatch chip`? re-run it"],
    ),
    "catalog-scene-without-digest": (
        "train",
        lambda r: _edited_catalog(r, "index.json", lambda doc: {**doc, "scene_sha256": {}}),
        ["index.json: chips[0].scene: scene 'scene_000' has no scene_sha256"],
    ),
    "catalog-version-1": (
        "train",
        lambda r: _edited_catalog(r, "index.json", lambda doc: {**doc, "format_version": 1}),
        ["index.json: format_version: expected 2, got 1"],
    ),
    "catalog-seed-null": (
        "train",
        lambda r: _edited_catalog(r, "index.json", lambda doc: {**doc, "seed": None}),
        ["index.json: seed: expected integer, got null"],
    ),
    "catalog-seed-a-string": (
        "train",
        lambda r: _edited_catalog(r, "index.json", lambda doc: {**doc, "seed": "x"}),
        ['index.json: seed: expected integer, got "x"'],
    ),
    "catalog-chip-size-a-string": (
        "train",
        lambda r: _edited_catalog(r, "index.json", lambda doc: {**doc, "chip_size": "16"}),
        ['index.json: chip_size: expected integer or null, got "16"'],
    ),
    "catalog-split-a-list": (
        "train",
        lambda r: _edited_catalog(r, "index.json", _edited_chip("split", ["train"])),
        ['index.json: chips[0].split: expected "train" or "val" or "test", got ["train"]'],
    ),
    "catalog-bands-disagree-with-stats": (
        "train",
        lambda r: _edited_catalog(r, "index.json", lambda doc: {**doc, "band_names": ["R", "G"]}),
        ["stats.json covers bands ('R', 'G', 'B'), but", "index.json names ('R', 'G')"],
    ),
    "nan-in-catalog-index": (
        "train", _catalog_with_nan_seed, ["invalid JSON", "constant NaN"]
    ),
    "catalog-index-without-chips": (
        "train", lambda r: _edited_catalog(r, "index.json", _without("chips")), ["index.json: chips: missing"]
    ),
    "catalog-index-not-an-object": (
        "train",
        lambda r: _edited_catalog(r, "index.json", lambda doc: []),
        ["index.json: expected object, got []"],
    ),
    "catalog-chips-not-a-list": (
        "train",
        lambda r: _edited_catalog(r, "index.json", lambda doc: {**doc, "chips": 5}),
        ["index.json: chips: expected list of objects, got 5"],
    ),
    "catalog-origin-not-a-pair": (
        "train",
        lambda r: _edited_catalog(r, "index.json", _edited_chip("origin", 3)),
        ["index.json: chips[0].origin: expected list of 2 integers, got 3"],
    ),
    "stats-without-means": (
        "train", lambda r: _edited_catalog(r, "stats.json", _without("means")), ["stats.json: means: missing"]
    ),
    "stats-lengths-disagree": (
        "train",
        lambda r: _edited_catalog(r, "stats.json", lambda doc: {**doc, "stds": doc["stds"][:2]}),
        ["means and stds differ in length"],
    ),
    "evaluate-checkpoint-bands-disagree": (
        "evaluate",
        lambda r: _evaluate_inputs(r, SOURCE_BANDS),
        ["does not fit the chips of catalog", "catalog", "stats cover 6 bands", "the chips have 3"],
    ),
    "evaluate-checkpoint-band-names-disagree": (
        "evaluate",
        lambda r: _evaluate_inputs(r, ("B", "G", "R")),
        ["does not fit the chips of catalog", "('B', 'G', 'R')", "('R', 'G', 'B')"],
    ),
    "infinity-in-raster-header": (
        "postprocess",
        lambda r: _probability(r, header_edit=(': 0.0,', ': Infinity,')),
        ["invalid JSON", "constant Infinity"],
    ),
    "inf-probability-pixel": (
        "postprocess",
        lambda r: _probability(r, value=np.inf),
        ["1 probability pixel(s) outside [0, 1]", "(3, 5)"],
    ),
    "probability-pixel-below-zero": (
        "postprocess",
        lambda r: (_probability_over_detections(r, ("", ""), value=-0.5)[0], r / "probability.bin"),
        ["probability.bin: 1 probability pixel(s) outside [0, 1]", "(3, 5)"],
    ),
    "bin-truncated-by-one-row": (
        "predict",
        lambda r: _predict_inputs(r, truncate=24 * 4),
        ["band/sample mismatch", "6x40x24 float32 (23040 bytes) but payload holds 22944 bytes"],
    ),
    "tile-size-not-divisible": (
        "predict",
        lambda r: (_predict_inputs(r, tile_size=18)[0], r / "model"),
        ["inference.tile_size: 18 is not divisible by 2**depth = 4 of the checkpoint"],
    ),
    "checkpoint-bands-disagree": (
        "predict",
        lambda r: ({**_predict_inputs(r)[0], "chip": {"bands": ["R", "G", "B"]}}, r / "model"),
        ["chip.bands (--bands) R,G,B: model expects 6 bands, raster has 3"],
    ),
    "predict-unknown-band": (
        "predict",
        lambda r: (
            {**_predict_inputs(r)[0], "chip": {"bands": ["R", "G", "B", "NIR", "SWIR1", "XYZ"]}},
            r / "run.json",
        ),
        ["chip.bands: unknown band 'XYZ'"],
    ),
    "checkpoint-manifest-a-list": (
        "predict",
        lambda r: _edited_checkpoint(r, lambda doc: [doc]),
        ["model.json: expected object, got [{"],
    ),
    "checkpoint-without-schema": (
        "predict", lambda r: _edited_checkpoint(r, _without("schema")), ["model.json: schema: missing"]
    ),
    "checkpoint-depth-a-string": (
        "predict",
        lambda r: _edited_checkpoint(r, lambda doc: {**doc, "config": {**doc["config"], "depth": "2"}}),
        ['model.json: config.depth: expected integer, got "2"'],
    ),
    "checkpoint-version-99": (
        "predict",
        lambda r: _edited_checkpoint(r, lambda doc: {**doc, "format_version": 99}),
        ["model.json: format_version: expected 1, got 99"],
    ),
    "checkpoint-normalization-a-list": (
        "predict",
        lambda r: _edited_checkpoint(r, lambda doc: {**doc, "normalization": [0.0]}),
        ["model.json: normalization: expected object or null, got [0.0]"],
    ),
    "checkpoint-stats-lengths-disagree": (
        "predict",
        lambda r: _edited_checkpoint(
            r, lambda doc: {**doc, "normalization": {"means": [0.0] * 6, "stds": [1.0] * 5}}
        ),
        ["means and stds differ in length"],
    ),
    "nan-weight-in-checkpoint": (
        "predict",
        _checkpoint_with_nan_weight,
        ["non-finite weight in", "parameter 'head.weight'"],
    ),
    "transform-without-origin-x": (
        "postprocess",
        lambda r: _probability(r, header_edit=('"origin_x": 0.0, ', "")),
        ["probability.json: transform.origin_x: missing"],
    ),
    "pixel-area-overflows": (
        "postprocess",
        lambda r: _probability_over_detections(
            r, ('"pixel_width": 1.0, "pixel_height": 1.0', '"pixel_width": 1e200, "pixel_height": 1e200')
        ),
        ["probability.json: transform: its world extent or area is not a finite float"],
    ),
    "band-names-not-a-list": (
        "postprocess",
        lambda r: _probability(r, header_edit=('"band_names": ["probability"]', '"band_names": 5')),
        ["probability.json: band_names: expected list of strings or null, got 5"],
    ),
    "chip-scene-without-a-band": (
        "chip",
        lambda r: _scene_with_bands(r, ("R", "G", "B")),
        ["no band named 'NIR'", "chip.bands R,G,B,NIR,SWIR1,NDSW", "the scene has R,G,B"],
    ),
    "chip-stride-zero": (
        "chip", lambda r: _chip_config(r, stride=0), ["chip.stride: must be >= 1, got 0"]
    ),
    "chip-negative-negatives-per-positive": (
        "chip",
        lambda r: _chip_config(r, negatives_per_positive=-1),
        ["chip.negatives_per_positive: must be >= 0, got -1"],
    ),
    "chip-test-frac-above-one": (
        "chip",
        lambda r: _chip_config(r, test_frac=1.5),
        ["chip.test_frac: must be in [0, 1), got 1.5"],
    ),
    "synth-scene-count-zero": (
        "synth",
        lambda r: ({"paths": {"scene_dir": str(r / "scenes")}, "synth": {"scene_count": 0}}, r / "run.json"),
        ["synth.scene_count: must be in [1, 1000], got 0"],
    ),
    "synth-scene-count-huge-integer": (
        "synth",
        lambda r: ({"paths": {"scene_dir": str(r / "scenes")}, "synth": {"scene_count": 10**400}}, r / "run.json"),
        [f"synth.scene_count: must be in [1, 1000], got 1{'0' * 56}...\n"],
    ),
    "synth-scene-size-huge-integer": (
        "synth",
        lambda r: ({"paths": {"scene_dir": str(r / "scenes")}, "synth": {"scene_size": 10**400}}, r / "run.json"),
        [f"synth.scene_size: must be in [16, 2**31), got 1{'0' * 56}...\n"],
    ),
    "synth-pixel-size-huge-integer": (
        "synth",
        lambda r: ({"paths": {"scene_dir": str(r / "scenes")}, "synth": {"pixel_size": 10**400}}, r / "run.json"),
        ["synth.pixel_size: expected finite number, got 1000"],
    ),
    "scene-width-huge-integer": (
        "predict",
        lambda r: _edited_scene_header(r, lambda doc: {**doc, "width": 10**400}),
        # the value cut at 60 characters, as the reader's own faults cut it
        [f"scene_000.json: width: must be in [1, 2**31), got 1{'0' * 56}...\n"],
    ),
    "inference-tile-size-huge-integer": (
        "predict",
        lambda r: ({**_predict_inputs(r)[0], "inference": {"tile_size": 10**400}}, r / "run.json"),
        [f"inference.tile_size: must be in [1, 2**31), got 1{'0' * 56}...\n"],
    ),
    "stats-mean-huge-integer": (
        "train",
        lambda r: _edited_catalog(r, "stats.json", lambda doc: {**doc, "means": [10**400, 0.0, 0.0]}),
        ["stats.json: means[0]: expected finite number, got 1000"],
    ),
    "stats-mean-a-string": (
        "train",
        lambda r: _edited_catalog(r, "stats.json", lambda doc: {**doc, "means": ["0.1", 0.0, 0.0]}),
        ['stats.json: means[0]: expected finite number, got "0.1"'],
    ),
    "stats-std-true": (
        "train",
        lambda r: _edited_catalog(r, "stats.json", lambda doc: {**doc, "stds": [True, 1.0, 1.0]}),
        ["stats.json: stds[0]: expected finite number, got true"],
    ),
    "stats-band-names-a-string": (
        "train",
        lambda r: _edited_catalog(r, "stats.json", lambda doc: {**doc, "band_names": "RGB"}),
        ['stats.json: band_names: expected list of strings or null, got "RGB"'],
    ),
    "checkpoint-mean-a-string": (
        "predict",
        lambda r: _edited_checkpoint(r, _edited_normalization("means", ["0.1"] + [0.0] * 5)),
        ['model.json: normalization.means[0]: expected finite number, got "0.1"'],
    ),
    "checkpoint-std-true": (
        "predict",
        lambda r: _edited_checkpoint(r, _edited_normalization("stds", [True] + [1.0] * 5)),
        ["model.json: normalization.stds[0]: expected finite number, got true"],
    ),
    "checkpoint-band-names-a-string": (
        "predict",
        lambda r: _edited_checkpoint(r, _edited_normalization("band_names", "RGB"), bands=("R", "G", "B")),
        ['model.json: normalization.band_names: expected list of strings or null, got "RGB"'],
    ),
    "raster-header-without-height": (
        "postprocess",
        lambda r: _probability(r, header_edit=('"height": 8, ', "")),
        ["probability.json: height: missing"],
    ),
    "raster-payload-missing": (
        "predict", _without_file(_predict_inputs, "scenes/scene_000.bin"), ["missing raster payload"]
    ),
    "checkpoint-payload-missing": (
        "predict", _without_file(_predict_inputs, "model.bin"), ["missing checkpoint payload"]
    ),
    "train-catalog-without-stats": (
        "train",
        lambda r: (_catalog(r), r / "catalog" / "stats.json"),
        ["paths.catalog: catalog is missing stats.json"],
    ),
    "evaluate-checkpoint-without-stats": (
        "evaluate",
        lambda r: (_evaluate_inputs(r, None)[0], r / "model.json"),
        ["model.json: normalization: null; the checkpoint carries no stats"],
    ),
    "predict-checkpoint-without-stats": (
        "predict",
        lambda r: _edited_checkpoint(r, lambda doc: {**doc, "normalization": None}),
        ["model.json: normalization: null; the checkpoint carries no stats"],
    ),
    "predict-stats-cover-fewer-bands": (
        "predict",
        lambda r: (
            _edited_checkpoint(r, lambda doc: {**doc, "normalization": {"means": [0.0] * 5, "stds": [1.0] * 5}})[0],
            r / "model",
        ),
        ["does not fit chip.bands (--bands) R,G,B,NIR,SWIR1,NDSW: stats cover 5 bands, raster has 6"],
    ),
}


class TestMalformedInputs:
    @pytest.mark.parametrize("name", MALFORMED_INPUTS)
    def test_exits_one_naming_the_file(self, name, tmp_path, capsys, caplog, monkeypatch):
        command, build, fragments = MALFORMED_INPUTS[name]
        config, bad_file = build(tmp_path)
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(config))

        def no_forward(*args):
            raise AssertionError("a tile was run")

        monkeypatch.setattr(unet, "forward", no_forward)
        before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
        started = time.monotonic()
        code, summary = run_cli([command, "--config", str(cfg)], capsys)
        assert code == 1 and summary is None
        assert time.monotonic() - started < 5.0
        assert bad_file.name in caplog.text
        for fragment in fragments:
            assert fragment in caplog.text
        # nothing written or replaced: no predict output, earlier
        # detections.geojson left in place
        assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == before


def _resolved(hint, value):
    """``hint``, or for a union the member that takes ``value``'s JSON
    container type (None if none does)."""
    if typing.get_origin(hint) not in (types.UnionType, typing.Union):
        return hint
    return next((m for m in typing.get_args(hint) if _container(m) is type(value)), None)


def _container(hint):
    origin = typing.get_origin(hint)
    if origin is tuple:
        return list
    return dict if origin is dict or hint is dict or dataclasses.is_dataclass(hint) else None


def _declared_slots(value, hint, slots):
    """Append to ``slots`` (container, key, hint) for each value that
    ``hint`` declares within ``value``, a parsed JSON document, depth first:
    a dataclass's fields, a tuple's items and a ``dict[str, X]``'s values.
    A bare ``dict`` holds no declared fields."""
    hint = _resolved(hint, value)
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if dataclasses.is_dataclass(hint) and type(value) is dict:
        hints = typing.get_type_hints(hint)
        items = [(key, hints[key]) for key in value if key in hints]
    elif origin is dict and type(value) is dict:
        items = [(key, args[1]) for key in value]
    elif origin is tuple and type(value) is list:
        items = list(enumerate(args[:1] * len(value) if args[-1] is Ellipsis else args[: len(value)]))
    else:
        return
    for key, item in items:
        slots.append((value, key, _resolved(item, value[key])))
        _declared_slots(value[key], item, slots)


def _json_type(value):
    return "number" if type(value) in (int, float) else type(value)


def _mutated(rng, text, cls):
    """``text``, a JSON document of the dataclass ``cls``, with one seeded
    mutation of a value it declares: a key deleted, a value of another JSON
    type, a non-finite or 401-digit number, a list of numbers or names (one
    whose length another field fixes) one item longer or shorter, or the
    text truncated. Each kind that has a target is equally likely."""
    doc = json.loads(text)
    slots = []
    _declared_slots(doc, cls, slots)
    targets = {
        "delete": [(c, k) for c, k, _ in slots if type(c) is dict],
        "retype": [(c, k) for c, k, _ in slots],
        "number": [(c, k) for c, k, _ in slots if _json_type(c[k]) == "number"],
        # a list of records (index.json's chips) may hold any count of them
        "length": [
            (c[k], None) for c, k, h in slots
            if typing.get_origin(h) is tuple and not dataclasses.is_dataclass(typing.get_args(h)[0]) and c[k]
        ],
        "truncate": [(None, None)],
    }
    kinds = [kind for kind, found in targets.items() if found]
    kind = kinds[int(rng.integers(len(kinds)))]
    container, key = targets[kind][int(rng.integers(len(targets[kind])))]
    if kind == "truncate":
        return text[: int(rng.integers(len(text)))]
    if kind == "delete":
        del container[key]
    elif kind == "retype":
        others = [v for v in (None, True, 2.5, "x", [], {}) if _json_type(v) != _json_type(container[key])]
        container[key] = others[int(rng.integers(len(others)))]
    elif kind == "number":
        container[key] = "@"
        literal = ["NaN", "Infinity", "-Infinity", "1e400", "1" + "0" * 400][int(rng.integers(5))]
        return json.dumps(doc).replace('"@"', literal)
    elif rng.integers(2):
        container.append(container[0])
    else:
        container.pop()
    return json.dumps(doc)


def _check_mutations(rng, trials, root, document, cls, argv, outputs, capsys, caplog):
    """Run the CLI ``argv`` on ``document`` as it is, then on each of
    ``trials`` seeded mutations of it (``_mutated``, the document declared
    by the dataclass ``cls``). Each run writes the ``outputs`` of the
    unmutated run, byte for byte (and they are removed again), or exits 1
    naming the document, changing no other file under ``root``. Gives the
    count of each."""
    assert run_cli(argv, capsys)[0] == 0
    expected = {path: path.read_bytes() for path in outputs}
    for path in outputs:
        path.unlink()
    text = document.read_text()
    before = {p: p.read_bytes() for p in root.rglob("*") if p.is_file() and p != document}
    outcomes = {"refused": 0, "same": 0}
    for trial in range(trials):
        document.write_text(_mutated(rng, text, cls))
        caplog.clear()
        code, summary = run_cli(argv, capsys)
        if code == 0:
            assert {path: path.read_bytes() for path in outputs} == expected, f"trial {trial}"
            for path in outputs:
                path.unlink()
            outcomes["same"] += 1
        else:
            assert code == 1 and summary is None, f"trial {trial}"
            assert document.name in caplog.text, f"trial {trial}: {caplog.text}"
            outcomes["refused"] += 1
        after = {p: p.read_bytes() for p in root.rglob("*") if p.is_file() and p != document}
        assert after == before, f"trial {trial}"
    document.write_text(text)
    return outcomes


class TestCatalogIndexMutations:
    def _catalog(self, tmp_path, capsys, rng):
        """A catalog of positive and negative windows of two scenes, and
        the run config that trains a small model on it."""
        config, cfg = _chip_config(tmp_path)
        base = tmp_path / "scenes" / "scene_000"
        write_raster(
            Raster(rng.uniform(0.1, 0.5, (6, 16, 16)).astype(np.float32), GeoTransform(0.0, 16.0, 1.0, 1.0), band_names=SOURCE_BANDS),
            base,
        )
        for suffix in (".json", ".bin", ".geojson"):
            (tmp_path / "scenes" / f"scene_001{suffix}").write_bytes(Path(f"{base}{suffix}").read_bytes())
        config["paths"].update(checkpoint=str(tmp_path / "model"), report=str(tmp_path / "report.json"))
        config.update(model={"depth": 1, "base_filters": 2}, train={"max_epochs": 1, "pos_weight": 1.0})
        cfg.write_text(json.dumps(config))
        assert run_cli(["chip", "--config", str(cfg)], capsys)[0] == 0
        doc = json.loads((tmp_path / "catalog" / "index.json").read_text())
        assert len({entry["scene"] for entry in doc["chips"]}) == 2
        assert len({entry["positive"] for entry in doc["chips"]}) == 2
        return ["train", "--config", str(cfg)], [tmp_path / name for name in ("model.bin", "model.json", "report.json")]

    def test_train_exits_one_naming_the_index_or_trains_as_before(self, tmp_path, capsys, caplog):
        # each mutated index either trains the model the unmutated one
        # trains or fails naming index.json, writing nothing
        rng = np.random.default_rng(2121)
        argv, outputs = self._catalog(tmp_path, capsys, rng)
        index = tmp_path / "catalog" / "index.json"
        outcomes = _check_mutations(rng, 150, tmp_path, index, CatalogIndex, argv, outputs, capsys, caplog)
        assert outcomes["refused"] > 100

    def test_train_exits_one_naming_the_stats_or_trains_as_before(self, tmp_path, capsys, caplog):
        rng = np.random.default_rng(2626)
        argv, outputs = self._catalog(tmp_path, capsys, rng)
        stats = tmp_path / "catalog" / "stats.json"
        outcomes = _check_mutations(rng, 100, tmp_path, stats, NormalizationStats, argv, outputs, capsys, caplog)
        assert outcomes["refused"] > 70


class TestDocumentMutations:
    def test_predict_exits_one_naming_the_manifest_or_predicts_as_before(self, tmp_path, capsys, caplog):
        config, _ = _predict_inputs(tmp_path, tile_size=16)
        (tmp_path / "run.json").write_text(json.dumps(config))
        argv = ["predict", "--config", str(tmp_path / "run.json")]
        outputs = [tmp_path / "out.json", tmp_path / "out.bin"]
        rng = np.random.default_rng(2627)
        outcomes = _check_mutations(rng, 150, tmp_path, tmp_path / "model.json", unet.CheckpointManifest, argv, outputs, capsys, caplog)
        assert outcomes["refused"] > 100 and outcomes["same"] > 0

    def test_predict_exits_one_naming_the_config_or_predicts_as_before(self, tmp_path, capsys, caplog, monkeypatch):
        # the config holds every field at its default, and the inputs lie
        # where the default paths point, so a deleted key changes nothing
        monkeypatch.chdir(tmp_path)
        _predict_inputs(Path("runs/demo"))
        config = tmp_path / "run.json"
        config.write_text(json.dumps(dataclasses.asdict(RunConfig())))
        argv = ["predict", "--config", str(config)]
        outputs = [tmp_path / "runs" / "demo" / f"probability{suffix}" for suffix in (".json", ".bin")]
        rng = np.random.default_rng(2729)
        outcomes = _check_mutations(rng, 150, tmp_path, config, RunConfig, argv, outputs, capsys, caplog)
        assert outcomes["refused"] > 100 and outcomes["same"] > 20

    def test_postprocess_exits_one_naming_the_header_or_vectorizes_as_before(self, tmp_path, capsys, caplog):
        samples = np.full((1, 16, 16), 0.25, np.float32)
        samples[0, 4:9, 3:7] = 0.9
        write_raster(Raster(samples, GeoTransform(0.0, 16.0, 1.0, 1.0), band_names=("probability",)), tmp_path / "scenes" / "probability")
        paths = {"probability": str(tmp_path / "scenes" / "probability"), "detections": str(tmp_path / "out.geojson")}
        (tmp_path / "run.json").write_text(json.dumps({"paths": paths, "postprocess": {"min_area": 0.0}}))
        argv = ["postprocess", "--config", str(tmp_path / "run.json")]
        rng = np.random.default_rng(2628)
        header = tmp_path / "scenes" / "probability.json"
        outcomes = _check_mutations(rng, 150, tmp_path, header, geodata.RasterHeader, argv, [tmp_path / "out.geojson"], capsys, caplog)
        assert outcomes["refused"] > 100 and outcomes["same"] > 0


class TestProbabilityPayloadMutations:
    def test_postprocess_exits_one_naming_the_payload_or_completes(self, tmp_path, capsys, caplog):
        # a payload a few bytes or a row off in length is refused on open,
        # and a pixel outside [0, 1] (infinities too) before anything is
        # written; a NaN pixel is nodata and an in-range one a probability,
        # so both complete
        samples = np.full((1, 16, 16), 0.25, np.float32)
        samples[0, 4:9, 3:7] = 0.9
        base = tmp_path / "probability"
        write_raster(Raster(samples, GeoTransform(0.0, 16.0, 1.0, 1.0), band_names=("probability",)), base)
        payload, out = tmp_path / "probability.bin", tmp_path / "detections.geojson"
        (tmp_path / "run.json").write_text(
            json.dumps({"paths": {"probability": str(base), "detections": str(out)}, "postprocess": {"min_area": 0.0}})
        )
        argv = ["postprocess", "--config", str(tmp_path / "run.json")]
        assert run_cli(argv, capsys)[0] == 0
        original, earlier = payload.read_bytes(), out.read_bytes()
        rng = np.random.default_rng(2930)
        kinds = ["bytes", "row", "-0.5", "1.5", "inf", "-inf", "nan", "in-range"]
        for trial in range(80):
            kind = kinds[trial % len(kinds)]
            if kind in ("bytes", "row"):
                cut = int(rng.integers(1, 4)) if kind == "bytes" else 16 * 4
                data = original[:-cut] if rng.random() < 0.5 else original + original[:cut]
            else:
                pixels = np.frombuffer(original, "<f4").copy()
                pixels[int(rng.integers(pixels.size))] = rng.uniform(0, 1) if kind == "in-range" else float(kind)
                data = pixels.tobytes()
            payload.write_bytes(data)
            caplog.clear()
            code, summary = run_cli(argv, capsys)
            if kind in ("nan", "in-range"):
                assert code == 0 and summary["output"] == str(out), f"trial {trial}"
                out.write_bytes(earlier)
            else:
                assert code == 1 and summary is None, f"trial {trial}"
                assert payload.name in caplog.text, f"trial {trial}: {caplog.text}"
                assert out.read_bytes() == earlier, f"trial {trial}"
            assert sorted(p.name for p in tmp_path.iterdir()) == ["detections.geojson", "probability.bin", "probability.json", "run.json"]


class TestNodataChip:
    def test_nan_patch_fails_before_catalog_is_written(self, tmp_path, capsys, caplog):
        cfg = tmp_path / "run.json"
        cfg.write_text(
            json.dumps(
                {
                    "seed": 0,
                    "paths": {
                        "scene_dir": str(tmp_path / "scenes"),
                        "catalog": str(tmp_path / "catalog"),
                    },
                    "synth": {"scene_count": 1, "scene_size": 96, "dump_count": 2},
                    "chip": {
                        "chip_size": 48,
                        "stride": 24,
                        "negatives_per_positive": 0.0,
                        "test_frac": 0.0,
                        "val_frac": 0.0,
                    },
                }
            )
        )
        assert run_cli(["synth", "--config", str(cfg)], capsys)[0] == 0
        assert run_cli(["chip", "--config", str(cfg)], capsys)[0] == 0
        catalog = tmp_path / "catalog"
        before = {p: p.read_bytes() for p in sorted(catalog.rglob("*")) if p.is_file()}

        # a 4x4 NaN patch in the SWIR1 band, inside a window that is chipped
        base = tmp_path / "scenes" / "scene_000"
        raster = read_raster(base)
        col, row = load_catalog(catalog)[0].train[0].origin
        raster.samples[4, row + 10 : row + 14, col + 10 : col + 14] = np.nan
        write_raster(raster, base)

        code, summary = run_cli(["chip", "--config", str(cfg)], capsys)
        assert code == 1 and summary is None
        assert "band 'SWIR1': non-finite normalization stats" in caplog.text
        after = {p: p.read_bytes() for p in sorted(catalog.rglob("*")) if p.is_file()}
        assert after == before


class TestChipWithoutAnnotations:
    def test_scene_without_geojson_chips_as_an_empty_collection(self, tmp_path, capsys):
        # a scene with no .geojson beside it holds no dump: it gives no
        # positive chip, and the catalog is the one an empty
        # FeatureCollection gives
        catalogs = {}
        for case in ("missing", "empty"):
            root = tmp_path / case
            root.mkdir()
            cfg = root / "run.json"
            cfg.write_text(
                json.dumps(
                    {
                        "seed": 3,
                        "paths": {"scene_dir": str(root / "scenes"), "catalog": str(root / "catalog")},
                        "synth": {"scene_count": 2, "scene_size": 96, "dump_count": 2},
                        "chip": {"chip_size": 48, "stride": 24, "test_frac": 0.0, "val_frac": 0.0},
                    }
                )
            )
            assert run_cli(["synth", "--config", str(cfg)], capsys)[0] == 0
            annotations = root / "scenes" / "scene_001.geojson"
            if case == "missing":
                annotations.unlink()
            else:
                annotations.write_text('{"type": "FeatureCollection", "features": []}\n')
            assert run_cli(["chip", "--config", str(cfg)], capsys)[0] == 0
            files = sorted(p for p in (root / "catalog").rglob("*") if p.is_file())
            catalogs[case] = {p.relative_to(root): p.read_bytes() for p in files}
        assert catalogs["missing"] == catalogs["empty"]
        split, _ = load_catalog(tmp_path / "missing" / "catalog")
        chips = split.train + split.val + split.test
        assert any(c.is_positive() for c in chips)
        assert not any(c.is_positive() for c in chips if c.scene_id == "scene_001")


    def test_index_records_the_split_seed_with_or_without_chips(self, tmp_path, capsys):
        # without annotations or negatives no chip is cut; the empty
        # catalog records the seed the split draws from, as a full one does
        cfg = tmp_path / "run.json"
        config = {
            "seed": 3,
            "paths": {"scene_dir": str(tmp_path / "scenes"), "catalog": str(tmp_path / "catalog")},
            "synth": {"scene_count": 1, "scene_size": 96, "dump_count": 2},
            "chip": {"chip_size": 48, "stride": 24},
        }
        cfg.write_text(json.dumps(config))
        assert run_cli(["synth", "--config", str(cfg)], capsys)[0] == 0
        index = tmp_path / "catalog" / "index.json"
        seeds = []
        for chips in (True, False):
            if not chips:
                (tmp_path / "scenes" / "scene_000.geojson").unlink()
                config["chip"]["negatives_per_positive"] = 0.0
                cfg.write_text(json.dumps(config))
            code, summary = run_cli(["chip", "--config", str(cfg)], capsys)
            assert code == 0 and (summary["chips"] > 0) == chips
            seeds.append(json.loads(index.read_text())["seed"])
        assert seeds == [substream(3, "split")] * 2


class TestChipReadsRowSlabs:
    def test_chip_and_ablate_read_no_scene_whole(self, tmp_path, capsys, monkeypatch):
        # after a one-row probe of its bands, each scene is read in row slabs
        # of at most 2 * chip_size rows, by the chip step and by the
        # catalog's write-then-verify load alike
        cfg = tmp_path / "run.json"
        cfg.write_text(
            json.dumps(
                {
                    "paths": {
                        "scene_dir": str(tmp_path / "scenes"),
                        "catalog": str(tmp_path / "catalog"),
                        "ablation": str(tmp_path / "ablation"),
                    },
                    "synth": {"scene_count": 2, "scene_size": 160, "dump_count": 3},
                    "chip": {"chip_size": 32, "stride": 32},
                    "model": {"depth": 1, "base_filters": 2},
                    "train": {"batch_size": 16, "max_epochs": 1},
                }
            )
        )
        assert run_cli(["synth", "--config", str(cfg)], capsys)[0] == 0
        reads, wholes = [], []
        read_rows = geodata.RasterReader.read_rows

        def recorded(reader, r0, r1):
            reads.append((r0, r1))
            return read_rows(reader, r0, r1)

        read_raster = geodata.read_raster

        def whole(path):
            wholes.append(path)
            return read_raster(path)

        opens, annotations = [], []
        reader_init, scene_annotations = geodata.RasterReader.__init__, ds.scene_annotations

        def opened(reader, path):
            opens.append(Path(path).name)
            reader_init(reader, path)

        def annotated(base):
            annotations.append(Path(base).name)
            return scene_annotations(base)

        monkeypatch.setattr(geodata.RasterReader, "read_rows", recorded)
        monkeypatch.setattr(geodata, "read_raster", whole)
        monkeypatch.setattr(geodata.RasterReader, "__init__", opened)
        monkeypatch.setattr(ds, "scene_annotations", annotated)
        # chip opens each scene and reads its annotations once, and so does
        # the catalog's load; ablate picks each scene's windows once, from
        # one read of its annotations, and opens the scene once per band set
        sets = len(ABLATION_SPECS)
        for command, probes, scene_opens, reads_of_annotations in (("chip", 2, 2, 2), ("ablate", 2 * sets, sets, 1)):
            reads.clear(), opens.clear(), annotations.clear()
            code, _ = run_cli([command, "--config", str(cfg)], capsys)
            assert code == 0
            slabs = [r for r in reads if r != (0, 1)]
            assert len(reads) - len(slabs) == probes
            assert slabs and max(r1 - r0 for r0, r1 in slabs) <= 2 * 32, (command, reads)
            assert sorted(opens) == sorted(["scene_000", "scene_001"] * scene_opens), (command, opens)
            assert sorted(annotations) == sorted(["scene_000", "scene_001"] * reads_of_annotations), (command, annotations)
        assert wholes == []


class TestAblateWithoutTestSplit:
    def test_rows_are_the_val_metrics_of_the_model_train_makes(self, tmp_path, capsys):
        # with no test split, each row falls back to the val split, as
        # evaluate --split val scores the model train makes of the catalog
        cfg = tmp_path / "run.json"
        paths = {name: str(tmp_path / name) for name in ("scenes", "catalog", "model", "ablation")}
        config = {
            "paths": {**paths, "scene_dir": paths["scenes"], "checkpoint": paths["model"], "report": str(tmp_path / "r.json")},
            "synth": {"scene_size": 96, "dump_count": 3},
            "chip": {"chip_size": 32, "stride": 16, "test_frac": 0.0, "val_frac": 0.3},
            "model": {"depth": 1, "base_filters": 2},
            "train": {"max_epochs": 1},
        }
        del config["paths"]["scenes"], config["paths"]["model"]
        cfg.write_text(json.dumps(config))
        for command in ("synth", "chip", "train"):
            assert run_cli([command, "--config", str(cfg)], capsys)[0] == 0
        code, ablate = run_cli(["ablate", "--config", str(cfg)], capsys)
        assert code == 0
        code, val = run_cli(["evaluate", "--config", str(cfg), "--split", "val"], capsys)
        assert code == 0
        row = {r["label"]: r for r in ablate["rows"]}["RGB-NIR-SWIR-NDSW"]
        assert (row["loss"], row["mean_iou"]) == (val["loss"], val["mean_iou"])


class TestSynthSeeding:
    def test_same_seed_same_bytes(self, tmp_path, capsys):
        for name in ("a", "b"):
            code, _ = run_cli(
                [
                    "synth",
                    "--seed",
                    "5",
                    "--config",
                    self._config(tmp_path, name),
                    "--out",
                    str(tmp_path / name),
                ],
                capsys,
            )
            assert code == 0
        a = read_raster(tmp_path / "a" / "scene_000")
        b = read_raster(tmp_path / "b" / "scene_000")
        assert a.samples.tobytes() == b.samples.tobytes()

    def test_different_seed_different_bytes(self, tmp_path, capsys):
        for seed, name in ((5, "c"), (6, "d")):
            code, _ = run_cli(
                [
                    "synth",
                    "--seed",
                    str(seed),
                    "--config",
                    self._config(tmp_path, name),
                    "--out",
                    str(tmp_path / name),
                ],
                capsys,
            )
            assert code == 0
        c = read_raster(tmp_path / "c" / "scene_000")
        d = read_raster(tmp_path / "d" / "scene_000")
        assert c.samples.tobytes() != d.samples.tobytes()

    def _config(self, tmp_path, name):
        path = tmp_path / f"cfg_{name}.json"
        path.write_text(json.dumps({"synth": {"scene_size": 64, "dump_count": 2}}))
        return str(path)


class TestDetectionBytes:
    def test_postprocess_bytes_are_pinned(self, tmp_path, capsys):
        # a seeded field with a nodata patch on a transform whose corners
        # are not round numbers; the hash is of the file the dict-tree
        # exporter wrote (``export_geojson_oracle``), so it holds the writer
        # to those bytes on every numpy the CI runs
        rng = np.random.default_rng(13)
        samples = rng.uniform(size=(1, 64, 96)).astype(np.float32)
        samples[0, 10:14, 20:30] = np.nan
        transform = GeoTransform(-123.456, 7.1, 0.1, 0.3)
        write_raster(Raster(samples, transform, band_names=("probability",)), tmp_path / "probability")
        out = tmp_path / "detections.geojson"
        cfg = tmp_path / "run.json"
        paths = {"probability": str(tmp_path / "probability"), "detections": str(out)}
        cfg.write_text(json.dumps({"paths": paths, "postprocess": {"min_area": 0.05}}))
        code, summary = run_cli(["postprocess", "--config", str(cfg)], capsys)
        assert code == 0
        assert (summary["detections"], summary["total_area_m2"]) == (13, 92.01)
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digest == "bdd5a6fd3cefdd9186969f23581402391ec4bdcc650fabeab375f31cc43178ef"


class TestSynthBytes:
    def test_synth_bytes_are_pinned(self, tmp_path, capsys):
        # two small seeded scenes; the hashes are of the files that the
        # per-row rasterizer and the dict-tree annotation writer
        # (``write_annotations_oracle``) wrote, so they hold the column
        # rasterizer and the text writer to those bytes on every numpy the
        # CI runs
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"synth": {"scene_count": 2, "scene_size": 64, "dump_count": 3}}))
        out = tmp_path / "scenes"
        code, _ = run_cli(["synth", "--seed", "11", "--config", str(cfg), "--out", str(out)], capsys)
        assert code == 0
        digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}
        assert digests == {
            "scene_000.bin": "96a57a8810e200b6eb5480e47d4b58d9c14c8e9dea258a2d7e80c6e59ff890dd",
            "scene_000.geojson": "dc998072389dd7a78ed4ea0dcf8a4bc5e67155481e17dd2406aa4cd1f591e7ea",
            "scene_000.json": "abd218b7d4bc0c0ca5cc1752bb9e237e24ebbaf61083cba147a4bb70ea49b28f",
            "scene_001.bin": "5e3e2ee81a2d965381bc8477100bf08223825213b19c7bfc7b2cda38315c35c0",
            "scene_001.geojson": "afe027d42eaab6a794f2a192d092c8a3a685b03a02e038f5b1d7bf691e385395",
            "scene_001.json": "abd218b7d4bc0c0ca5cc1752bb9e237e24ebbaf61083cba147a4bb70ea49b28f",
        }


class TestProcessLevel:
    def test_module_entry_help(self):
        proc = subprocess.run(
            [sys.executable, "-m", "dumpwatch.cli", "--help"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        for command in ("synth", "chip", "train", "predict", "postprocess", "ablate"):
            assert command in proc.stdout

    def test_config_value_of_the_wrong_type_exits_without_a_traceback(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"synth": {"scene_count": 1.0}}))
        argv = ["synth", "--config", str(cfg), "--out", str(tmp_path / "s")]
        proc = subprocess.run(
            [sys.executable, "-m", "dumpwatch.cli", *argv], capture_output=True, text=True
        )
        assert proc.returncode == 1 and proc.stdout == ""
        assert "Traceback" not in proc.stderr
        assert "synth.scene_count: expected integer, got 1.0" in proc.stderr
        assert not (tmp_path / "s").exists()

    def test_threads_env_caps_blas_pools(self):
        code = (
            "import os; os.environ['DUMPWATCH_THREADS'] = '1'; "
            "import dumpwatch.cli; "
            "print(os.environ['OMP_NUM_THREADS'], os.environ['OPENBLAS_NUM_THREADS'])"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env={
                k: v
                for k, v in dict(__import__("os").environ).items()
                if not k.endswith("_NUM_THREADS") and k != "DUMPWATCH_THREADS"
            },
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["1", "1"]

    def _postprocess_loads(self, tmp_path, module):
        """Run ``postprocess`` on a 3x3 probability raster in a fresh
        interpreter: its summary, and whether ``module`` was loaded."""
        grid = np.array([[1, 0, 1], [0, 0, 1], [1, 0, 0]], dtype=np.float32)
        base = tmp_path / "probability"
        write_raster(
            Raster(0.9 * grid[None], GeoTransform(0.0, 3.0, 1.0, 1.0), band_names=("probability",)),
            base,
        )
        cfg = tmp_path / "run.json"
        cfg.write_text(
            json.dumps(
                {
                    "paths": {
                        "probability": str(base),
                        "detections": str(tmp_path / "detections.geojson"),
                    },
                    "postprocess": {"min_area": 0.0, "connectivity": 4},
                }
            )
        )
        code = (
            "import sys; from dumpwatch import cli; "
            f"code = cli.main(['postprocess', '--config', {str(cfg)!r}]); "
            f"print(code, {module!r} in sys.modules)"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        summary, last = proc.stdout.splitlines()
        return json.loads(summary), last

    def test_cli_import_leaves_scipy_ndimage_unloaded(self, tmp_path):
        # postprocess labels components in numpy and predict never labels,
        # so scipy (about 0.2 s to import) loads only to make scenes
        summary, last = self._postprocess_loads(tmp_path, "scipy")
        assert summary["detections"] == 3
        assert last == "0 False"

    def test_postprocess_leaves_numpy_ma_unloaded(self, tmp_path):
        # np.unique imports numpy.ma on first use (about 7 ms); the ring
        # check of the write-then-verify read finds distinct values without it
        summary, last = self._postprocess_loads(tmp_path, "numpy.ma")
        assert summary["detections"] == 3
        assert last == "0 False"

    @pytest.mark.skipif(
        not Path("/proc/self/status").exists(), reason="needs VmHWM from /proc/self/status"
    )
    def test_predict_peak_memory_does_not_grow_with_height(self, tmp_path):
        """predict streams stripes: a child's own peak RSS (VmHWM, which
        unlike ru_maxrss leaves out what the child inherits from pytest)
        on a raster four times as tall grows by under an eighth of the tall
        raster's payload (a whole-raster predict grew by about three times
        the payload)."""
        config = UNetConfig(in_channels=6, depth=1, base_filters=2)
        stats = NormalizationStats((0.5,) * 6, (0.3,) * 6, DEFAULT_BAND_SPEC)
        save_checkpoint(checkpoint_from_params(config, build_unet(config), stats), tmp_path / "model")
        width, height = 768, 384
        rng = np.random.default_rng(0)
        for h in (height, 4 * height):
            write_raster(
                Raster(
                    rng.random((6, h, width), dtype=np.float32) + 0.1,
                    GeoTransform(0.0, float(h), 1.0, 1.0),
                    band_names=SOURCE_BANDS,
                ),
                tmp_path / f"scene_{h}",
            )
        cfg = tmp_path / "run.json"
        cfg.write_text(
            json.dumps(
                {
                    "paths": {"checkpoint": str(tmp_path / "model"), "probability": str(tmp_path / "out")},
                    "inference": {"tile_size": 128, "overlap": 16, "batch_size": 2},
                }
            )
        )
        code = (
            "import sys; from dumpwatch import cli; code = cli.main(sys.argv[1:]); "
            "print([line.split()[1] for line in open('/proc/self/status') "
            "if line.startswith('VmHWM:')][0]); sys.exit(code)"
        )
        peak_kib = []
        for h in (height, 4 * height):
            argv = ["predict", "--config", str(cfg), "--raster", str(tmp_path / f"scene_{h}")]
            proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
            peak_kib.append(int(proc.stdout.split()[-1]))
        payload_kib = 6 * 4 * height * width * 4 // 1024
        assert peak_kib[1] - peak_kib[0] < payload_kib / 8, (peak_kib, payload_kib)

    @pytest.mark.skipif(
        not Path("/proc/self/status").exists(), reason="needs VmHWM from /proc/self/status"
    )
    def test_chip_peak_memory_does_not_grow_with_height(self, tmp_path):
        """chip reads row slabs: on a one-dump scene made four times as tall
        by background rows below it, a child's own peak RSS (VmHWM) grows by
        under an eighth of the tall scene's payload (reading and stacking
        each scene whole grew it by about twice the payload)."""
        size = 768
        raster, polygons = generate_synthetic(SynthConfig(scene_size=size, dump_count=1, background_texture_seed=3))
        filler, _ = generate_synthetic(SynthConfig(scene_size=size, dump_count=0, background_texture_seed=4))
        code = (
            "import sys; from dumpwatch import cli; code = cli.main(sys.argv[1:]); "
            "print([line.split()[1] for line in open('/proc/self/status') "
            "if line.startswith('VmHWM:')][0]); sys.exit(code)"
        )
        peak_kib, summaries = [], []
        for h in (size, 4 * size):
            root = tmp_path / f"tall_{h}"
            samples = np.concatenate([raster.samples] + [filler.samples] * (h // size - 1), axis=1)
            write_raster(Raster(samples, raster.transform, band_names=SOURCE_BANDS), root / "scenes" / "scene")
            write_annotations(polygons, root / "scenes" / "scene.geojson")
            cfg = root / "run.json"
            cfg.write_text(json.dumps({"paths": {"scene_dir": str(root / "scenes"), "catalog": str(root / "catalog")}}))
            proc = subprocess.run(
                [sys.executable, "-c", code, "chip", "--config", str(cfg)], capture_output=True, text=True
            )
            assert proc.returncode == 0, proc.stderr
            summary, peak = proc.stdout.splitlines()
            summaries.append(json.loads(summary))
            peak_kib.append(int(peak))
        assert summaries[0]["chips"] == summaries[1]["chips"] > 0
        payload_kib = 6 * 4 * size * size * 4 // 1024
        assert peak_kib[1] - peak_kib[0] < payload_kib / 8, (peak_kib, payload_kib)

    def test_threads_env_respects_existing_setting(self):
        code = (
            "import os; "
            "os.environ['DUMPWATCH_THREADS'] = '1'; "
            "os.environ['OMP_NUM_THREADS'] = '4'; "
            "import dumpwatch.cli; print(os.environ['OMP_NUM_THREADS'])"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "4"

import contextlib
import io
import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from dumpwatch import cli
from dumpwatch.cli import (
    ConfigError,
    RunConfig,
    _apply_flags,
    _validate_bands,
    build_parser,
    load_config,
    substream,
)
from dumpwatch.dataset import DEFAULT_BAND_SPEC, SOURCE_BANDS, load_catalog
from dumpwatch.geodata import (
    GeoTransform,
    Raster,
    read_annotations,
    read_raster,
    write_raster,
)
from dumpwatch.unet import load_checkpoint


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
        with pytest.raises(ConfigError, match="JSON object"):
            load_config(str(path))

    def test_unknown_section(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"nonsense": {}}))
        with pytest.raises(ConfigError, match="nonsense: unknown config section"):
            load_config(str(path))

    def test_unknown_field_names_section(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"chip": {"chip_sz": 64}}))
        with pytest.raises(ConfigError, match="chip.chip_sz: unknown field"):
            load_config(str(path))

    def test_invalid_value_wrapped(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"postprocess": {"connectivity": 6}}))
        with pytest.raises(ConfigError, match="postprocess: "):
            load_config(str(path))

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
        with pytest.raises(ConfigError, match="probability_threshold"):
            _apply_flags(RunConfig(), self._args(threshold=1.5))

    def test_bands_csv(self):
        cfg = _apply_flags(RunConfig(), self._args(bands="R, G,B"))
        assert cfg.chip.bands == ("R", "G", "B")

    def test_empty_bands_rejected(self):
        with pytest.raises(ConfigError, match="empty band list"):
            _apply_flags(RunConfig(), self._args(bands=" , "))

    def test_validate_bands(self):
        _validate_bands(("R", "NIR", "NDSW"))
        with pytest.raises(ConfigError, match="unknown band 'XYZ'"):
            _validate_bands(("R", "XYZ"))


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
        code, summary = run_cli(["postprocess", "--config", ws["config"]], capsys)
        assert code == 0
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
    write_raster(
        Raster(
            np.ones((6, 16, 16), np.float32),
            GeoTransform(0.0, 16.0, 1.0, 1.0),
            band_names=SOURCE_BANDS,
        ),
        root / "scenes" / "scene_000",
    )
    path = root / "scenes" / "scene_000.geojson"
    path.write_text(
        '{"type": "FeatureCollection", "features": [{"type": "Feature", '
        '"geometry": {"type": "Polygon", "coordinates": '
        f'[[[0, 0], {vertex}, [1, 1], [0, 0]]]}}, "properties": {{}}}}]}}'
    )
    return {"scene_dir": str(root / "scenes")}, path


def _catalog_with_nan_seed(root):
    path = root / "catalog" / "index.json"
    path.parent.mkdir()
    path.write_text(
        '{"format": "dumpwatch.catalog", "format_version": 1, "chip_size": null, '
        '"band_names": null, "seed": NaN, "chips": []}'
    )
    return {"catalog": str(path.parent)}, path


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
    return {"probability": str(base)}, header if header_edit[0] else base


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
    "nan-in-catalog-index": (
        "train", _catalog_with_nan_seed, ["invalid JSON", "constant NaN"]
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
}


class TestMalformedInputs:
    @pytest.mark.parametrize("name", MALFORMED_INPUTS)
    def test_exits_one_naming_the_file(self, name, tmp_path, capsys, caplog):
        command, build, fragments = MALFORMED_INPUTS[name]
        paths, bad_file = build(tmp_path)
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"paths": paths}))
        started = time.monotonic()
        code, summary = run_cli([command, "--config", str(cfg)], capsys)
        assert code == 1 and summary is None
        assert time.monotonic() - started < 5.0
        assert bad_file.name in caplog.text
        for fragment in fragments:
            assert fragment in caplog.text


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

    def test_cli_import_leaves_scipy_ndimage_unloaded(self):
        # predict never labels components; scipy.ndimage loads on first use
        code = (
            "import sys; import numpy as np; import dumpwatch.cli; "
            "print('scipy.ndimage' in sys.modules); "
            "from dumpwatch.detect import connected_components; "
            "from dumpwatch.geodata import GeoTransform, Raster; "
            "grid = np.array([[1, 0, 1], [0, 0, 1], [1, 0, 0]], dtype=np.float32); "
            "labels, sizes = connected_components("
            "Raster(grid[None], GeoTransform(0.0, 3.0, 1.0, 1.0), nodata=None), 4); "
            "print(labels.ravel().tolist(), sizes.tolist())"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == ["False", "[1, 0, 2, 0, 0, 2, 3, 0, 0] [1, 2, 1]"]

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

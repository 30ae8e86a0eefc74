"""The benchmark's checks catch corrupted outputs.

    python3 -m pytest perfbench/test_checks.py

Each check first passes on a correct output of the program, then fails on
the same output with one fault injected: a flipped pixel in a detection, a
dropped component, a perturbed probability at a sampled pixel, a wrong
gradient entry, a NaN where the input is valid.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import reference  # noqa: E402
import spans  # noqa: E402
from dumpwatch import dataset, detect, geodata, numerics, unet  # noqa: E402

TRANSFORM = {"origin_x": 500000.0, "origin_y": 4200000.0, "pixel_width": 10.0, "pixel_height": 10.0}


def _grid(seed: int = 3, size: int = 40) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.uniform(size=(size, size)) < 0.45


def _features(binary: np.ndarray, tmp_path: Path) -> list[dict]:
    """The program's detections for a binary grid, through its GeoJSON."""
    gt = geodata.GeoTransform(**TRANSFORM)
    raster = geodata.Raster(binary.astype(np.float32)[None], gt, nodata=None)
    labels, _ = detect.connected_components(raster, 8)
    path = tmp_path / "detections.geojson"
    detect.export_geojson(detect.polygonize(labels, gt), path)
    return checks.read_features(path)


def test_detections_pass_on_program_output(tmp_path):
    binary = _grid()
    counts = checks.check_detections(_features(binary, tmp_path), binary, TRANSFORM)
    assert counts["components"] > 10


def test_flipped_pixel_in_a_detection_fails(tmp_path):
    binary = _grid()
    features = _features(binary, tmp_path)
    sizes = [f["properties"]["pixel_count"] for f in features]
    # flip one pixel of the largest detection in the map the check sees
    parts = checks.pixel_rings(features[int(np.argmax(sizes))]["geometry"], TRANSFORM)
    r0, c0, mask = checks.rasterize_pixel_rings(parts)
    r, c = np.argwhere(mask)[len(np.argwhere(mask)) // 2]
    flipped = binary.copy()
    flipped[r0 + r, c0 + c] = False
    with pytest.raises(checks.CheckFailed):
        checks.check_detections(features, flipped, TRANSFORM)


def test_dropped_component_fails(tmp_path):
    binary = _grid()
    features = _features(binary, tmp_path)
    with pytest.raises(checks.CheckFailed, match="detections but"):
        checks.check_detections(features[:3] + features[4:], binary, TRANSFORM)


def test_wrong_area_fails(tmp_path):
    binary = _grid()
    features = _features(binary, tmp_path)
    features[2]["properties"]["area_m2"] += 1.0
    with pytest.raises(checks.CheckFailed, match="area_m2"):
        checks.check_detections(features, binary, TRANSFORM)


def _tiny_model():
    config = unet.UNetConfig(in_channels=6, depth=1, base_filters=4)
    return config, unet.build_unet(config, seed=5)


def _source(size: int = 80) -> geodata.Raster:
    cfg = dataset.SynthConfig(scene_size=size, dump_count=3, background_texture_seed=7)
    raster, _ = dataset.generate_synthetic(cfg)
    raster.samples[2, 5:9, 40:44] = np.nan
    return raster


def test_probability_reference_and_fault():
    config, params = _tiny_model()
    source = _source()
    stacked = dataset.stack_bands(source, dataset.DEFAULT_BAND_SPEC)
    stats = dataset.NormalizationStats(
        means=tuple(np.nanmean(stacked.samples, axis=(1, 2))),
        stds=tuple(np.nanstd(stacked.samples, axis=(1, 2))),
        band_names=stacked.band_names,
    )
    icfg = detect.InferenceConfig(tile_size=32, overlap=8, batch_size=4)
    prob = detect.predict_raster(params, config, stacked, stats, icfg).samples[0]
    nodata = np.isnan(source.samples).any(axis=0)
    checks.check_probability_range(prob, nodata)

    x = reference.model_input(source.samples, stats.means, stats.stds)
    weights = {k: v.data.astype(np.float64) for k, v in params.items()}
    pixels = [(3, 3), (20, 28), (30, 30), (47, 60), (79, 79)]  # interiors, overlaps, a corner
    want = reference.probabilities(weights, 1, x, 32, 8, pixels)
    assert checks.check_reference(prob, pixels, want, 1e-4) < 1e-5

    perturbed = prob.copy()
    perturbed[30, 30] += 1e-3
    with pytest.raises(checks.CheckFailed):
        checks.check_reference(perturbed, pixels, want, 1e-4)

    wrong_nan = prob.copy()
    wrong_nan[0, 0] = np.nan
    with pytest.raises(checks.CheckFailed, match="NaN"):
        checks.check_probability_range(wrong_nan, nodata)


def test_wrong_gradient_entry_fails():
    config, params = _tiny_model()
    params = {k: numerics.Tensor(v.data.astype(np.float64), requires_grad=True) for k, v in params.items()}
    rng = np.random.default_rng(11)
    x = numerics.Tensor(rng.normal(size=(2, 6, 8, 8)))
    y = numerics.Tensor((rng.uniform(size=(2, 1, 8, 8)) < 0.3).astype(np.float64))

    def loss():
        return numerics.weighted_bce_with_logits(unet.forward(params, config, x), y, 3.0)

    numerics.backward(loss())
    analytic = {k: p.grad.copy() for k, p in params.items()}

    def loss_at(name, index, delta):
        keep = params[name].data[index]
        params[name].data[index] = keep + delta
        with numerics.no_grad():
            value = loss().item()
        params[name].data[index] = keep
        return value

    coords = [("enc0.conv1.weight", (1, 2, 0, 1)), ("dec0.up.weight", (3, 0, 1, 1)), ("head.bias", (0,))]
    checks.check_gradient(analytic, coords, loss_at)
    name, index = coords[1]
    analytic[name][index] *= 1.01
    with pytest.raises(checks.CheckFailed, match="gradient"):
        checks.check_gradient(analytic, coords, loss_at)


def test_losses_must_fall():
    report = {"epochs": [{"train_loss": 1.0, "val_loss": 1.0}, {"train_loss": 0.9, "val_loss": 1.1}]}
    checks.check_losses(report, 2)
    report["epochs"][1]["train_loss"] = 1.2
    with pytest.raises(checks.CheckFailed):
        checks.check_losses(report, 2)
    report["epochs"][1]["train_loss"] = math.nan
    with pytest.raises(checks.CheckFailed):
        checks.check_losses(report, 2)


def test_parameter_count_matches_the_program():
    for depth, base in ((1, 4), (2, 8), (4, 16)):
        config = unet.UNetConfig(in_channels=6, depth=depth, base_filters=base)
        assert checks.unet_parameter_count(6, depth, base) == unet.parameter_count(config)


def test_truth_rasterizer_matches_the_program():
    cfg = dataset.SynthConfig(scene_size=96, dump_count=4, background_texture_seed=2)
    raster, polygons = dataset.generate_synthetic(cfg)
    t = raster.transform
    transform = {"origin_x": t.origin_x, "origin_y": t.origin_y, "pixel_width": t.pixel_width, "pixel_height": t.pixel_height}
    ours = checks.rasterize_polygons([p.rings() for p in polygons], transform, 96, 96)
    theirs = dataset.rasterize_mask(polygons, t, 96, 96).astype(bool)
    assert ours.sum() > 100
    np.testing.assert_array_equal(ours, theirs)


def test_benchmark_json_lists_every_per_layer_metric():
    bench = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    listed = [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]]
    assert listed == list(spans.PER_LAYER)

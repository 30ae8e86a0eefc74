"""End-to-end acceptance checks for the full pipeline.

Each test exercises one release criterion at its stated tolerance and
prints a PASS line with the measured numbers. The training-based checks
use fixed seeds throughout, so their outcomes are reproducible runs of
the same recipes, not statistical samples.
"""

import contextlib
import io
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from dumpwatch import cli
from dumpwatch import dataset as ds
from dumpwatch import detect, geodata, training, unet
from dumpwatch.dataset import NormalizationStats, SynthConfig
from dumpwatch.detect import InferenceConfig, PostprocConfig
from dumpwatch.geodata import GeoTransform, Raster
from dumpwatch.numerics import (
    Tensor,
    concat_channels,
    conv2d,
    crop_spatial,
    max_pool_2x2,
    relu,
    sigmoid_values,
    transposed_conv_2x2,
    weighted_bce_with_logits,
)
from oracles import (
    connected_components_oracle,
    conv2d_oracle,
    finite_difference_grad,
    gradcheck_rel_error,
    iou_oracle,
    max_pool_2x2_oracle,
    polygon_columns,
    rasterize_oracle,
    ring_folds_back_oracle,
    ring_is_simple_oracle,
    sigmoid_scalar,
    softplus_scalar,
    transposed_conv_2x2_oracle,
    weighted_bce_oracle,
)


# ---------------------------------------------------------------------------
# criterion 1: finite-difference gradient checks for every operator
# ---------------------------------------------------------------------------


def _fd_verify(build_loss, arrays, tol=1e-4):
    """Backprop through build_loss and compare each input's gradient
    against central finite differences."""
    tensors = [Tensor(a.astype(np.float64), requires_grad=True) for a in arrays]
    loss = build_loss(*tensors)
    loss.backward()
    for pos, base in enumerate(arrays):
        analytic = tensors[pos].grad
        assert analytic is not None

        def scalar(x):
            probe = [
                Tensor(
                    x.astype(np.float64) if i == pos else a.astype(np.float64),
                    requires_grad=False,
                )
                for i, a in enumerate(arrays)
            ]
            return float(build_loss(*probe).data)

        numeric = finite_difference_grad(scalar, base.astype(np.float64))
        err = gradcheck_rel_error(numeric, analytic)
        assert err < tol, f"input {pos}: rel err {err:.2e}"


def test_c1_gradient_checks_all_operators():
    started = time.monotonic()
    rng = np.random.default_rng(2024)
    # fixed projection makes every op's output a scalar loss
    proj = {}

    def project(t):
        key = t.data.shape
        if key not in proj:
            proj[key] = Tensor(rng.normal(size=key))
        return (t * proj[key]).sum()

    cases = 0
    for _ in range(20):
        b = int(rng.integers(1, 3))
        ci = int(rng.integers(1, 4))
        co = int(rng.integers(1, 4))
        h = int(rng.integers(2, 6)) * 2
        w = int(rng.integers(2, 6)) * 2
        x = rng.normal(size=(b, ci, h, w))
        k = rng.normal(size=(co, ci, 3, 3)) * 0.5
        bias = rng.normal(size=(co,))
        _fd_verify(lambda x, k, bb: project(conv2d(x, k, bb)), [x, k, bias])

        kt = rng.normal(size=(ci, co, 2, 2)) * 0.5
        _fd_verify(
            lambda x, k, bb: project(transposed_conv_2x2(x, k, bb)), [x, kt, bias]
        )

        # distinct values in every pooling window keep the argmax stable
        pool_in = rng.permutation(b * ci * h * w).astype(np.float64)
        pool_in = (pool_in * 0.37).reshape(b, ci, h, w)
        _fd_verify(lambda x: project(max_pool_2x2(x)), [pool_in])

        off_kink = np.where(np.abs(x) < 0.1, x + 0.5, x)
        _fd_verify(lambda x: project(relu(x)), [off_kink])

        target = (rng.uniform(size=(b, 1, h, w)) < 0.3).astype(np.float64)
        logits = rng.normal(size=(b, 1, h, w)) * 2.0
        pw = float(rng.uniform(1.0, 9.0))
        _fd_verify(
            lambda z: weighted_bce_with_logits(z, Tensor(target), pw), [logits]
        )

        _fd_verify(
            lambda x: project(crop_spatial(x, h - 1, w - 1)), [x]
        )
        other = rng.normal(size=(b, 2, h, w))
        _fd_verify(
            lambda a, bb: project(concat_channels(a, bb)), [x, other]
        )
        _fd_verify(lambda a, bb: project(a + bb), [x, x * 0.3 + 1.0])
        _fd_verify(lambda a, bb: project(a * bb), [x, rng.normal(size=x.shape)])
        _fd_verify(lambda a: a.sum(), [x])
        cases += 11
    elapsed = time.monotonic() - started
    assert elapsed < 60.0, f"gradient checks took {elapsed:.1f}s"
    print(f"C1 PASS: {cases} gradient checks, all rel err < 1e-4, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 2: forward operators match independent oracles
# ---------------------------------------------------------------------------


def _random_simple_polygon(rng, center, spread):
    count = int(rng.integers(3, 9))
    angles = np.sort(rng.uniform(0, 2 * math.pi, size=count))
    radii = rng.uniform(0.3 * spread, spread, size=count)
    ring = [
        (center[0] + r * math.cos(a), center[1] + r * math.sin(a))
        for a, r in zip(angles, radii)
    ]
    ring.append(ring[0])
    return ring


def test_c2_oracle_agreement():
    started = time.monotonic()
    rng = np.random.default_rng(77)

    for _ in range(100):
        b, ci, co = rng.integers(1, 3), rng.integers(1, 3), rng.integers(1, 3)
        h, w = rng.integers(1, 4) * 2, rng.integers(1, 4) * 2
        x = rng.normal(size=(b, ci, h, w))
        k = rng.normal(size=(co, ci, 3, 3))
        bias = rng.normal(size=(co,))
        got = conv2d(Tensor(x), Tensor(k), Tensor(bias)).data
        assert np.max(np.abs(got - conv2d_oracle(x, k, bias))) <= 1e-6

        kt = rng.normal(size=(ci, co, 2, 2))
        got = transposed_conv_2x2(Tensor(x), Tensor(kt), Tensor(bias)).data
        assert np.max(np.abs(got - transposed_conv_2x2_oracle(x, kt, bias))) <= 1e-6

        got = max_pool_2x2(Tensor(x)).data
        assert np.array_equal(got, max_pool_2x2_oracle(x))

        z = float(rng.normal() * 6)
        assert abs(float(sigmoid_values(np.float64(z))) - sigmoid_scalar(z)) <= 1e-6
        from dumpwatch.numerics import softplus_values

        assert abs(float(softplus_values(np.float64(z))) - softplus_scalar(z)) <= 1e-6

        target = (rng.uniform(size=(b, 1, h, w)) < 0.4).astype(np.float64)
        logits = rng.normal(size=(b, 1, h, w)) * 3
        pw = float(rng.uniform(0.5, 8.0))
        got = float(weighted_bce_with_logits(Tensor(logits), Tensor(target), pw).data)
        assert abs(got - weighted_bce_oracle(logits, target, pw)) <= 1e-6

    transform = GeoTransform(0.0, 24.0, 1.0, 1.0)
    for _ in range(100):
        polys = polygon_columns(
            [
                [_random_simple_polygon(rng, rng.uniform(4, 20, size=2), rng.uniform(1.5, 5))]
                for _ in range(int(rng.integers(1, 4)))
            ]
        )
        got = ds.rasterize_mask(polys, transform, 24, 24)
        assert np.array_equal(got, rasterize_oracle(polys, transform, 24, 24))

    for _ in range(100):
        grid = (rng.uniform(size=(10, 10)) < 0.5).astype(np.float32)
        raster = Raster(
            grid[None], transform, nodata=None, band_names=("m",)
        )
        conn = 4 if rng.uniform() < 0.5 else 8
        labels, _ = detect.connected_components(raster, conn)
        assert np.array_equal(labels, connected_components_oracle(grid, conn))

        pred = rng.uniform(size=(6, 6)) < 0.5
        truth = rng.uniform(size=(6, 6)) < 0.5
        assert training.iou(pred, truth) == pytest.approx(
            iou_oracle(pred, truth), abs=1e-12
        )

        ring = _random_simple_polygon(rng, (10.0, 10.0), 6.0)
        assert geodata.ring_is_simple(ring) == (
            ring_is_simple_oracle(ring) and not ring_folds_back_oracle(ring)
        )

    elapsed = time.monotonic() - started
    assert elapsed < 60.0, f"oracle comparisons took {elapsed:.1f}s"
    print(f"C2 PASS: 100+ instances per oracle within 1e-6, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 3: the model can overfit a handful of chips
# ---------------------------------------------------------------------------


def test_c3_overfit_four_chips():
    started = time.monotonic()
    cfg = SynthConfig(scene_size=128, dump_count=3, background_texture_seed=101)
    raster, polygons = ds.generate_synthetic(cfg)
    stacked = ds.stack_bands(raster, ds.DEFAULT_BAND_SPEC)
    mask = ds.rasterize_mask(polygons, raster.transform, 128, 128)
    chips = ds.extract_chips(stacked, mask, 64, 32, 0.0, seed=1)
    positives = [c for c in chips if c.is_positive()][:4]
    assert len(positives) == 4
    stats = ds.fit_normalization(positives)
    normalized = [ds.apply_normalization(c, stats) for c in positives]
    split = ds.DatasetSplit(
        train=normalized, val=normalized[:1], test=[], seed=0
    )

    config = unet.UNetConfig(in_channels=6, depth=2, base_filters=8)
    params = unet.build_unet(config, seed=7)
    hyper = training.Hyperparams(
        batch_size=4,
        max_epochs=200,
        learning_rate=3e-3,
        plateau_patience=200,
        plateau_min_delta=0.0,
    )
    _, report = training.train(params, config, split, hyper, seed=3)
    best_loss = min(e.train_loss for e in report.epochs)
    first_below = next(
        (i for i, e in enumerate(report.epochs, 1) if e.train_loss < 0.01), None
    )
    elapsed = time.monotonic() - started
    assert best_loss < 0.01, f"train loss only reached {best_loss:.4f}"
    assert elapsed < 120.0, f"overfit run took {elapsed:.1f}s"
    print(
        f"C3 PASS: loss {best_loss:.2e} (< 0.01 from epoch {first_below}), "
        f"{elapsed:.1f}s"
    )


# ---------------------------------------------------------------------------
# criterion 4: full pipeline reaches usable segmentation quality
# ---------------------------------------------------------------------------


def test_c4_end_to_end_quality():
    started = time.monotonic()
    scenes = []
    for i in range(4):
        cfg = SynthConfig(
            scene_size=192, dump_count=5, background_texture_seed=200 + i
        )
        scenes.append(ds.generate_synthetic(cfg))

    chips = []
    for raster, polygons in scenes:
        stacked = ds.stack_bands(raster, ds.DEFAULT_BAND_SPEC)
        mask = ds.rasterize_mask(
            polygons, raster.transform, raster.width, raster.height
        )
        chips.extend(ds.extract_chips(stacked, mask, 64, 32, 1.0, seed=11))
    split = ds.split_dataset(chips, 0.15, 0.2, seed=5)
    stats = ds.fit_normalization(split.train)
    normalized = ds.normalize_split(split, stats)

    config = unet.UNetConfig(in_channels=6, depth=2, base_filters=8)
    params = unet.build_unet(config, seed=21)
    hyper = training.Hyperparams(
        batch_size=16,
        max_epochs=36,
        learning_rate=2e-3,
        pos_weight=5.0,
        plateau_patience=36,
    )
    best, report = training.train(params, config, normalized, hyper, seed=9)
    assert report.test is not None
    test_iou = report.test.mean_iou
    assert test_iou >= 0.5, f"test mean IoU {test_iou:.3f} < 0.5"

    held_cfg = SynthConfig(
        scene_size=192, dump_count=5, background_texture_seed=999
    )
    held_raster, held_polygons = ds.generate_synthetic(held_cfg)
    held_stack = ds.stack_bands(held_raster, ds.DEFAULT_BAND_SPEC)
    prob = detect.predict_raster(
        params=best,
        config=config,
        raster=held_stack,
        stats=stats,
        icfg=InferenceConfig(tile_size=128, overlap=32),
    )
    detections = detect.detections_from_binary(
        detect.threshold_probability(prob, 0.5),
        prob,
        PostprocConfig(probability_threshold=0.5, min_area=300.0),
    )
    pred_mask = ds.rasterize_mask(detections.polygons, held_raster.transform, 192, 192)
    true_mask = ds.rasterize_mask(held_polygons, held_raster.transform, 192, 192)
    inter = np.logical_and(pred_mask, true_mask).sum()
    union = np.logical_or(pred_mask, true_mask).sum()
    scene_iou = inter / union
    elapsed = time.monotonic() - started
    assert scene_iou >= 0.5, f"held-out scene IoU {scene_iou:.3f} < 0.5"
    assert elapsed < 900.0, f"pipeline took {elapsed:.1f}s"
    print(
        f"C4 PASS: test mean IoU {test_iou:.3f}, held-out scene IoU "
        f"{scene_iou:.3f}, {len(detections)} detections, {elapsed:.1f}s"
    )


# ---------------------------------------------------------------------------
# criterion 5: band ablation ranks the full stack above bare RGB
# ---------------------------------------------------------------------------


def test_c5_band_ablation_margin(tmp_path):
    started = time.monotonic()
    scene_dir = tmp_path / "scenes"
    scene_dir.mkdir()
    for i in range(2):
        cfg = SynthConfig(
            scene_size=160, dump_count=4, background_texture_seed=300 + i
        )
        raster, polygons = ds.generate_synthetic(cfg)
        base = scene_dir / f"scene_{i:03d}"
        geodata.write_raster(raster, base)
        geodata.write_annotations(polygons, str(base) + ".geojson")
    config = {
        "paths": {"scene_dir": str(scene_dir), "ablation": str(tmp_path / "ablation")},
        "chip": {"chip_size": 64, "stride": 32},
        "model": {"depth": 2, "base_filters": 8},
        "train": {
            "batch_size": 16,
            "max_epochs": 16,
            "learning_rate": 2e-3,
            "pos_weight": 5.0,
            "plateau_patience": 16,
        },
    }
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config))
    expected_labels = ["RGB", "RGB-NIR", "RGB-NIR-SWIR", "RGB-NIR-SWIR-NDSW"]
    by_label: dict[str, list[float]] = {}
    for seed in (0, 1, 2):
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["ablate", "--config", str(path), "--seed", str(seed)]) == 0
        rows = json.loads((tmp_path / "ablation.json").read_text())
        assert [r["label"] for r in rows] == expected_labels
        for row in rows:
            by_label.setdefault(row["label"], []).append(row["mean_iou"])

    rgb = float(np.mean(by_label["RGB"]))
    full = float(np.mean(by_label["RGB-NIR-SWIR-NDSW"]))
    elapsed = time.monotonic() - started
    assert full >= rgb + 0.03, (
        f"full-stack IoU {full:.3f} not >= RGB {rgb:.3f} + 0.03"
    )
    print(
        f"C5 PASS: mean IoU over 3 seeds RGB={rgb:.3f} full={full:.3f} "
        f"(margin {full - rgb:.3f}), {elapsed:.1f}s"
    )


# ---------------------------------------------------------------------------
# criterion 6: bit-identical reruns under a fixed seed
# ---------------------------------------------------------------------------


def _run_pipeline(root: Path) -> None:
    root.mkdir(parents=True, exist_ok=True)
    config = {
        "seed": 13,
        "paths": {
            "scene_dir": str(root / "scenes"),
            "catalog": str(root / "catalog"),
            "checkpoint": str(root / "model"),
            "probability": str(root / "probability"),
            "detections": str(root / "detections.geojson"),
            "report": str(root / "report.json"),
            "ablation": str(root / "ablation"),
        },
        "synth": {"scene_count": 2, "scene_size": 96, "dump_count": 3},
        "chip": {"chip_size": 48, "stride": 24, "test_frac": 0.2, "val_frac": 0.25},
        "model": {"depth": 1, "base_filters": 4},
        "train": {"batch_size": 8, "max_epochs": 2, "learning_rate": 0.003},
        "inference": {"tile_size": 48, "overlap": 8, "batch_size": 4},
        "postprocess": {"probability_threshold": 0.5, "min_area": 0.0},
    }
    path = root / "run.json"
    path.write_text(json.dumps(config))
    for command in ("synth", "chip", "train", "predict", "postprocess", "ablate"):
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main([command, "--config", str(path)]) == 0, command


def test_c6_reruns_are_bit_identical(tmp_path):
    started = time.monotonic()
    run_a, run_b = tmp_path / "a", tmp_path / "b"
    _run_pipeline(run_a)
    _run_pipeline(run_b)

    def same_bytes(rel):
        assert (run_a / rel).read_bytes() == (run_b / rel).read_bytes(), rel

    same_bytes("model.bin")
    same_bytes("model.json")
    same_bytes("probability.bin")
    same_bytes("detections.geojson")
    for file_a in sorted((run_a / "catalog").rglob("*")):
        if file_a.is_file():
            rel = file_a.relative_to(run_a)
            same_bytes(rel)

    report_a = json.loads((run_a / "report.json").read_text())
    report_b = json.loads((run_b / "report.json").read_text())
    report_a.pop("metadata")  # wall time differs between runs
    report_b.pop("metadata")
    assert report_a == report_b

    same_bytes("ablation.json")
    elapsed = time.monotonic() - started
    print(f"C6 PASS: all rerun artifacts bit-identical, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 7: vectorization is exact and the area filter is sharp
# ---------------------------------------------------------------------------


def test_c7_postprocessing_exactness():
    started = time.monotonic()
    transform = GeoTransform(0.0, 32.0, 1.0, 1.0)
    rng = np.random.default_rng(55)

    hand_cases = [
        np.array([[1]]),
        np.array([[1, 0], [0, 1]]),  # diagonal pinch
        np.array([[1, 1, 1], [1, 0, 1], [1, 1, 1]]),  # hole
        np.array([[0, 0, 1, 1], [0, 1, 0, 1], [0, 1, 1, 1]]),  # pinched hole
        np.pad(np.eye(5), 1),  # diagonal staircase
    ]
    grids = [np.asarray(g, np.float32) for g in hand_cases]
    grids += [
        (rng.uniform(size=rng.integers(3, 18, size=2)) < rng.uniform(0.2, 0.8))
        .astype(np.float32)
        for _ in range(40)
    ]
    for i, grid in enumerate(grids):
        h, w = grid.shape
        raster = Raster(grid[None], transform, nodata=None, band_names=("m",))
        labels, _ = detect.connected_components(raster, 8)
        detections = detect.polygonize(labels, transform)
        back = ds.rasterize_mask(detections.polygons, transform, w, h)
        assert np.array_equal(back, grid.astype(np.uint8)), f"case {i}"
        for ring in detections.polygons.rings():
            assert geodata.ring_is_simple(ring), f"case {i}"

    # area filtering boundary: a single 10 m pixel is exactly 100 m^2
    coarse = np.full((8, 8), 0.1, dtype=np.float32)
    coarse[2, 2] = 0.9
    prob = Raster(
        coarse[None],
        GeoTransform(0.0, 80.0, 10.0, 10.0),
        nodata=math.nan,
        band_names=("probability",),
    )
    kept = detect.detections_from_binary(
        detect.threshold_probability(prob, 0.5), prob, PostprocConfig(min_area=100.0)
    )
    assert len(kept) == 1 and kept.area[0] == pytest.approx(100.0)

    # with 5 m pixels a 3-pixel blob is 75 m^2 and must be dropped
    fine = np.full((8, 8), 0.1, dtype=np.float32)
    fine[1, 1:4] = 0.9  # 3 pixels = 75 m^2
    fine[5:7, 5:7] = 0.9  # 4 pixels = 100 m^2
    prob5 = Raster(
        fine[None],
        GeoTransform(0.0, 40.0, 5.0, 5.0),
        nodata=math.nan,
        band_names=("probability",),
    )
    kept = detect.detections_from_binary(
        detect.threshold_probability(prob5, 0.5), prob5, PostprocConfig(min_area=100.0)
    )
    assert kept.area.tolist() == [pytest.approx(100.0)]
    elapsed = time.monotonic() - started
    print(
        f"C7 PASS: {len(grids)} exact vectorizations, area boundary sharp, "
        f"{elapsed:.1f}s"
    )


# ---------------------------------------------------------------------------
# criterion 8: every file format survives a write/read round trip
# ---------------------------------------------------------------------------


def test_c8_format_round_trips(tmp_path):
    started = time.monotonic()
    rng = np.random.default_rng(66)

    samples = rng.normal(size=(3, 13, 17)).astype(np.float32)
    samples[0, 2, 3] = np.nan
    raster = Raster(
        samples,
        GeoTransform(512.25, 4096.75, 10.0, 10.0),
        nodata=math.nan,
        band_names=("a", "b", "c"),
    )
    geodata.write_raster(raster, tmp_path / "r")
    loaded = geodata.read_raster(tmp_path / "r")
    assert loaded.samples.tobytes() == raster.samples.tobytes()
    assert loaded.transform == raster.transform
    assert loaded.band_names == raster.band_names
    assert math.isnan(loaded.nodata)

    config = unet.UNetConfig(in_channels=3, depth=2, base_filters=4)
    params = unet.build_unet(config, seed=3)
    stats = NormalizationStats((0.1, 0.2, 0.3), (1.0, 2.0, 3.0), ("a", "b", "c"))
    ckpt = unet.checkpoint_from_params(
        config, params, stats, {"note": 1, "nested": {"x": [1, 2]}}
    )
    unet.save_checkpoint(ckpt, tmp_path / "ck")
    reloaded = unet.load_checkpoint(tmp_path / "ck")
    assert reloaded.config == config
    assert reloaded.normalization == stats
    assert reloaded.training_metadata == {"note": 1, "nested": {"x": [1, 2]}}
    for name, arr in ckpt.parameters.items():
        assert reloaded.parameters[name].tobytes() == arr.tobytes()

    # the catalog indexes windows of scene files on disk, and its loader
    # cuts them from those files again
    bases = [tmp_path / "scenes" / f"s{i}" for i in range(2)]
    for i, base in enumerate(bases):
        scene = Raster(
            rng.uniform(0.05, 0.5, size=(6, 24, 20)).astype(np.float32),
            GeoTransform(100.0 * i, 240.0, 10.0, 10.0),
            band_names=ds.SOURCE_BANDS,
        )
        geodata.write_raster(scene, base)
        x0 = 100.0 * i + 30.0
        ring = [(x0, 60.0), (x0 + 70.0, 60.0), (x0 + 40.0, 170.0), (x0, 60.0)]
        geodata.write_annotations(polygon_columns([[ring]], ["dump"]), f"{base}.geojson")
    chip = ds.ChipConfig(chip_size=8, stride=4, bands=("R", "NIR", "NDSW"))
    chips = []
    for b in bases:
        with geodata.RasterReader(b) as source:
            mask = ds.rasterize_mask(ds.scene_annotations(b), source.transform, source.width, source.height)
            chips += ds.extract_chips(source, mask, chip.chip_size, chip.stride, 1.0, 7, b.name, chip.bands)
    split = ds.split_dataset(chips, 0.2, 0.2, seed=42)
    cat_stats = ds.fit_normalization(split.train)
    ds.save_catalog(tmp_path / "cat", split, tmp_path / "scenes", cat_stats)
    assert sorted(p.name for p in (tmp_path / "cat").iterdir()) == ["index.json", "stats.json"]
    split2, stats2 = ds.load_catalog(tmp_path / "cat")
    assert stats2 == cat_stats
    assert split2.seed == 42
    for name in ("train", "val", "test"):
        assert len(getattr(split2, name)) == len(getattr(split, name)) > 0
        for before, after in zip(getattr(split, name), getattr(split2, name)):
            assert after.samples.tobytes() == before.samples.tobytes()
            assert np.array_equal(after.mask, before.mask)
            assert after.origin == before.origin
            assert after.scene_id == before.scene_id
    assert {c.scene_id for c in chips} == {"s0", "s1"} and any(c.is_positive() for c in chips)

    polygons = polygon_columns(
        [
            [
                [(0.0, 0.0), (4.0, 0.0), (4.0, 4.0), (0.0, 4.0), (0.0, 0.0)],
                [(1.0, 1.0), (2.0, 1.0), (2.0, 2.0), (1.0, 2.0), (1.0, 1.0)],
            ],
            [[(10.0, 10.0), (12.0, 10.0), (11.0, 13.0), (10.0, 10.0)]],
        ],
        ["site", "dump"],
    )
    geodata.write_annotations(polygons, tmp_path / "ann.geojson")
    loaded_polys = geodata.read_annotations(tmp_path / "ann.geojson")
    assert len(loaded_polys) == 2
    assert loaded_polys[0].rings() == polygons[0].rings()
    assert loaded_polys[0].labels == ["site"]
    elapsed = time.monotonic() - started
    print(f"C8 PASS: raster, checkpoint, catalog, GeoJSON round trips, {elapsed:.1f}s")

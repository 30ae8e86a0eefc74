import json
import math

import numpy as np
import pytest

from dumpwatch.dataset import (
    NormalizationStats,
    SynthConfig,
    generate_synthetic,
    rasterize_mask,
)
from dumpwatch.detect import (
    Detection,
    InferenceConfig,
    PostprocConfig,
    _tile_origins,
    _trace,
    connected_components,
    detections_from_binary,
    export_geojson,
    filter_detections,
    polygonize,
    predict_raster,
    threshold_probability,
)
from dumpwatch.geodata import (
    GeoTransform,
    Raster,
    read_annotations,
    ring_is_simple,
)
from dumpwatch.numerics import Tensor
from dumpwatch.unet import (
    UNetConfig,
    build_unet,
    forward,
    receptive_field_radius,
)
from oracles import (
    connected_components_oracle,
    polygonize_oracle,
    ring_is_simple_oracle,
)

T1 = GeoTransform(0.0, 16.0, 1.0, 1.0)


def _binary_raster(grid, transform=T1):
    return Raster(
        np.asarray(grid, dtype=np.float32)[None],
        transform,
        nodata=None,
        band_names=("mask",),
    )


class TestConfigs:
    def test_inference_validation(self):
        with pytest.raises(ValueError, match="tile_size"):
            InferenceConfig(tile_size=0)
        with pytest.raises(ValueError, match="overlap"):
            InferenceConfig(tile_size=64, overlap=64)
        with pytest.raises(ValueError, match="batch_size"):
            InferenceConfig(batch_size=0)

    def test_postproc_validation(self):
        with pytest.raises(ValueError, match="probability_threshold"):
            PostprocConfig(probability_threshold=0.0)
        with pytest.raises(ValueError, match="min_area"):
            PostprocConfig(min_area=-5.0)
        with pytest.raises(ValueError, match="connectivity"):
            PostprocConfig(connectivity=6)


class TestTileOrigins:
    def test_small_extent_single_tile(self):
        assert _tile_origins(20, 32, 8) == [0]
        assert _tile_origins(32, 32, 8) == [0]

    def test_last_tile_clamped_flush(self):
        origins = _tile_origins(300, 256, 32)
        assert origins == [0, 44]
        assert origins[-1] + 256 == 300

    def test_full_coverage(self):
        for extent in (33, 64, 100, 257):
            origins = _tile_origins(extent, 32, 8)
            covered = np.zeros(extent, dtype=bool)
            for o in origins:
                covered[o : o + 32] = True
            assert covered.all()
            assert all(o + 32 <= extent for o in origins)


class TestConnectedComponents:
    def test_diagonal_pixels(self):
        grid = np.zeros((4, 4))
        grid[1, 1] = grid[2, 2] = 1
        labels8, sizes8 = connected_components(_binary_raster(grid), connectivity=8)
        assert labels8.max() == 1 and list(sizes8) == [2]
        labels4, sizes4 = connected_components(_binary_raster(grid), connectivity=4)
        assert labels4.max() == 2 and list(sizes4) == [1, 1]

    def test_labels_are_first_encounter_row_major(self):
        grid = np.zeros((3, 5))
        grid[0, 4] = 1  # first in row-major order -> label 1
        grid[2, 0] = 1  # second -> label 2
        labels, _ = connected_components(_binary_raster(grid))
        assert labels[0, 4] == 1 and labels[2, 0] == 2

    def test_u_shape_merges_into_one_label(self):
        # two prongs meet only at the bottom; they still get one label
        grid = np.zeros((3, 3))
        grid[:, 0] = 1
        grid[:, 2] = 1
        grid[2, 1] = 1
        labels, sizes = connected_components(_binary_raster(grid), connectivity=4)
        assert labels.max() == 1 and list(sizes) == [7]

    @pytest.mark.parametrize("connectivity", [4, 8])
    def test_matches_oracle(self, connectivity):
        rng = np.random.default_rng(13)
        grids = [
            (rng.uniform(size=(12, 12)) < 0.45).astype(np.float32)
            for _ in range(25)
        ]
        grids += [
            (rng.uniform(size=(64, 64)) < density).astype(np.float32)
            for density in (0.3, 0.6)
        ]
        # arms two columns apart, joined only along the last row
        arms = np.zeros((40, 41), dtype=np.float32)
        arms[:, ::2] = 1
        arms[-1, :] = 1
        grids.append(arms)
        for trial, grid in enumerate(grids):
            labels, sizes = connected_components(
                _binary_raster(grid), connectivity=connectivity
            )
            expected = connected_components_oracle(grid, connectivity)
            assert labels.dtype == np.int32, f"trial {trial}"
            assert np.array_equal(labels, expected), f"trial {trial}"
            assert np.array_equal(
                sizes, np.bincount(expected.ravel())[1:]
            ), f"trial {trial}"

    def test_empty_grid(self):
        labels, sizes = connected_components(_binary_raster(np.zeros((4, 4))))
        assert labels.max() == 0 and len(sizes) == 0


def _rasterize_back(detections, transform, width, height):
    polys = [p for det in detections for p in det.polygons]
    return rasterize_mask(polys, transform, width, height)


class TestPolygonizeExactness:
    def test_single_pixel(self):
        labels = np.zeros((4, 4), dtype=np.int32)
        labels[1, 2] = 1
        dets = polygonize(labels, T1)
        assert len(dets) == 1
        det = dets[0]
        assert det.pixel_count == 1 and det.area == 1.0
        assert len(det.polygons) == 1
        ring = det.polygons[0].exterior
        assert len(ring) == 5  # unit square
        # counterclockwise in world coordinates: positive shoelace area
        area2 = sum(
            x1 * y2 - x2 * y1 for (x1, y1), (x2, y2) in zip(ring[:-1], ring[1:])
        )
        assert area2 > 0
        assert np.array_equal(
            _rasterize_back(dets, T1, 4, 4), (labels != 0).astype(np.uint8)
        )

    def test_ring_with_hole(self):
        grid = np.zeros((5, 5))
        grid[1:4, 1:4] = 1
        grid[2, 2] = 0
        labels, _ = connected_components(_binary_raster(grid))
        dets = polygonize(labels, T1)
        assert len(dets) == 1
        assert len(dets[0].polygons) == 1
        poly = dets[0].polygons[0]
        assert len(poly.holes) == 1
        assert dets[0].pixel_count == 8
        assert np.array_equal(
            _rasterize_back(dets, T1, 5, 5), grid.astype(np.uint8)
        )

    def test_diagonal_pair_splits_into_two_parts(self):
        grid = np.zeros((4, 4))
        grid[1, 1] = grid[2, 2] = 1
        labels, _ = connected_components(_binary_raster(grid), connectivity=8)
        dets = polygonize(labels, T1)
        assert len(dets) == 1  # one component
        assert len(dets[0].polygons) == 2  # but two simple parts
        for poly in dets[0].polygons:
            assert ring_is_simple(poly.exterior)
            assert len(poly.exterior) == 5
        assert np.array_equal(
            _rasterize_back(dets, T1, 4, 4), grid.astype(np.uint8)
        )

    def test_checkerboard_block(self):
        grid = np.zeros((6, 6))
        for r in range(1, 5):
            for c in range(1, 5):
                if (r + c) % 2 == 0:
                    grid[r, c] = 1
        labels, _ = connected_components(_binary_raster(grid), connectivity=8)
        dets = polygonize(labels, T1)
        assert np.array_equal(
            _rasterize_back(dets, T1, 6, 6), grid.astype(np.uint8)
        )
        for det in dets:
            for poly in det.polygons:
                assert ring_is_simple(poly.exterior)

    def test_pinched_hole(self):
        # plus-shaped opening whose corners pinch against the outer ring
        grid = np.ones((5, 5))
        grid[2, 2] = 0
        grid[1, 1] = grid[1, 3] = grid[3, 1] = grid[3, 3] = 0
        labels, _ = connected_components(_binary_raster(grid), connectivity=8)
        dets = polygonize(labels, T1)
        assert np.array_equal(
            _rasterize_back(dets, T1, 5, 5), grid.astype(np.uint8)
        )

    def test_hole_reaching_outside_through_pinch(self):
        # the enclosed background cell touches the outside diagonally; the
        # walk revisits that corner and must be split into exterior + hole
        grid = np.array([[0, 0, 1, 1], [0, 1, 0, 1], [0, 1, 1, 1]], dtype=np.float32)
        labels, _ = connected_components(_binary_raster(grid), connectivity=8)
        dets = polygonize(labels, T1)
        assert len(dets) == 1 and len(dets[0].polygons) == 1
        poly = dets[0].polygons[0]
        assert len(poly.holes) == 1
        assert ring_is_simple(poly.exterior) and ring_is_simple(poly.holes[0])
        assert np.array_equal(
            _rasterize_back(dets, T1, 4, 3), grid.astype(np.uint8)
        )

    def test_all_rings_simple_on_large_random_grids(self):
        rng = np.random.default_rng(41)
        for trial in range(12):
            grid = (rng.uniform(size=(20, 20)) < rng.uniform(0.3, 0.7)).astype(
                np.float32
            )
            labels, _ = connected_components(_binary_raster(grid), connectivity=8)
            dets = polygonize(labels, T1)
            for det in dets:
                for poly in det.polygons:
                    for ring in [poly.exterior, *poly.holes]:
                        assert ring_is_simple(ring), f"trial {trial}"
                        assert ring_is_simple_oracle(ring), f"trial {trial}"
            assert np.array_equal(
                _rasterize_back(dets, T1, 20, 20), grid.astype(np.uint8)
            ), f"trial {trial}"

    def test_random_grids_rasterize_back_exactly(self):
        rng = np.random.default_rng(17)
        for trial in range(30):
            h, w = rng.integers(4, 14, size=2)
            grid = (rng.uniform(size=(h, w)) < rng.uniform(0.2, 0.7)).astype(
                np.float32
            )
            labels, _ = connected_components(_binary_raster(grid), connectivity=8)
            dets = polygonize(labels, T1)
            back = _rasterize_back(dets, T1, w, h)
            assert np.array_equal(back, grid.astype(np.uint8)), f"trial {trial}"
            for det in dets:
                for poly in det.polygons:
                    for ring in poly.rings():
                        assert ring_is_simple(ring), f"trial {trial}"
                        assert ring_is_simple_oracle(ring), f"trial {trial}"
            # parts of one component never overlap: total count preserved
            assert sum(d.pixel_count for d in dets) == int(grid.sum())

    def test_component_masks_reproduce_individually(self):
        rng = np.random.default_rng(23)
        grid = (rng.uniform(size=(10, 10)) < 0.5).astype(np.float32)
        labels, _ = connected_components(_binary_raster(grid), connectivity=8)
        dets = polygonize(labels, T1)
        for k, det in enumerate(dets, start=1):
            back = rasterize_mask(det.polygons, T1, 10, 10)
            assert np.array_equal(back, (labels == k).astype(np.uint8)), f"label {k}"

    def test_synthetic_blob_outlines(self):
        cfg = SynthConfig(scene_size=96, dump_count=4, background_texture_seed=21)
        raster, polygons = generate_synthetic(cfg)
        mask = rasterize_mask(polygons, raster.transform, 96, 96)
        labels, _ = connected_components(_binary_raster(mask, raster.transform))
        dets = polygonize(labels, raster.transform)
        back = _rasterize_back(dets, raster.transform, 96, 96)
        assert np.array_equal(back, mask)

    def test_nonunit_transform_area_and_rasterization(self):
        transform = GeoTransform(500.0, 4000.0, 10.0, 10.0)
        grid = np.zeros((6, 6))
        grid[2:4, 1:4] = 1
        labels, _ = connected_components(_binary_raster(grid, transform))
        dets = polygonize(labels, transform)
        assert dets[0].area == pytest.approx(600.0)  # 6 pixels * 100 m^2
        back = _rasterize_back(dets, transform, 6, 6)
        assert np.array_equal(back, grid.astype(np.uint8))

    def test_mean_probability(self):
        labels = np.zeros((3, 3), dtype=np.int32)
        labels[0, 0] = 1
        labels[0, 1] = 1
        labels[2, 2] = 2
        probs = np.zeros((3, 3))
        probs[0, 0] = 0.8
        probs[0, 1] = 0.6
        probs[2, 2] = 0.9
        dets = polygonize(labels, T1, probs)
        assert dets[0].mean_probability == pytest.approx(0.7)
        assert dets[1].mean_probability == pytest.approx(0.9)
        bare = polygonize(labels, T1)
        assert math.isnan(bare[0].mean_probability)

    def test_validation(self):
        with pytest.raises(ValueError, match="2-D"):
            polygonize(np.zeros((2, 2, 2)), T1)
        with pytest.raises(ValueError, match="probabilities"):
            polygonize(np.zeros((2, 2), dtype=np.int32), T1, np.zeros((3, 3)))

    def test_no_components(self):
        assert polygonize(np.zeros((4, 4), dtype=np.int32), T1) == []

    def test_absent_label_gives_empty_detection(self):
        labels = np.zeros((4, 4), dtype=np.int32)
        labels[0, 0] = 1
        labels[2:4, 2:4] = 3  # no pixel carries label 2
        dets = polygonize(labels, T1, np.full((4, 4), 0.75))
        assert len(dets) == 3
        assert dets[1].polygons == [] and dets[1].pixel_count == 0
        assert dets[1].area == 0.0
        assert dets[0].pixel_count == 1 and dets[2].pixel_count == 4
        assert np.array_equal(
            _rasterize_back(dets, T1, 4, 4), (labels != 0).astype(np.uint8)
        )


def _assert_same_detections(got, want):
    """Equal on every Detection field, every ring's vertices (order, start
    and float bits, by repr) and every polygon's label."""
    assert len(got) == len(want)
    for k, (g, w) in enumerate(zip(got, want)):
        assert (g.pixel_count, g.area) == (w.pixel_count, w.area), k
        assert repr(g.mean_probability) == repr(w.mean_probability), k
        assert [p.label for p in g.polygons] == [p.label for p in w.polygons], k
        assert repr([p.rings() for p in g.polygons]) == repr(
            [p.rings() for p in w.polygons]
        ), k


class TestPolygonizeMatchesOracle:
    @pytest.mark.parametrize("connectivity", [4, 8])
    @pytest.mark.parametrize("density", [0.3, 0.5, 0.7])
    @pytest.mark.parametrize("size", [12, 64, 256])
    def test_random_grids(self, size, density, connectivity):
        rng = np.random.default_rng(size * 10 + int(density * 10) + connectivity)
        grid = (rng.uniform(size=(size, size)) < density).astype(np.float32)
        labels, _ = connected_components(_binary_raster(grid), connectivity)
        probs = rng.uniform(size=grid.shape)
        transform = GeoTransform(500000.0, 4200000.0, 10.0, 10.0)
        _assert_same_detections(
            polygonize(labels, transform, probs),
            polygonize_oracle(labels, transform, probs),
        )

    @pytest.mark.parametrize(
        "grid, revisits",
        [
            # diagonal pair: two exteriors meeting at a pinch corner
            ([[1, 0], [0, 1]], False),
            # five squares touching at four pinches
            ([[1, 0, 1], [0, 1, 0], [1, 0, 1]], False),
            # a hole
            ([[1, 1, 1], [1, 0, 1], [1, 1, 1]], False),
            # a plus-shaped hole pinched against the outer ring: the hole's
            # walk passes its pinch corners twice
            (
                [
                    [1, 1, 1, 1, 1],
                    [1, 0, 1, 0, 1],
                    [1, 1, 0, 1, 1],
                    [1, 0, 1, 0, 1],
                    [1, 1, 1, 1, 1],
                ],
                True,
            ),
            # a hole reaching outside through a pinch: one walk covers both
            # and revisits that corner
            ([[0, 0, 1, 1], [0, 1, 0, 1], [0, 1, 1, 1]], True),
            # holes inside one part of a component with several parts
            (
                [
                    [1, 1, 1, 0, 0],
                    [1, 0, 1, 0, 0],
                    [1, 1, 1, 0, 0],
                    [0, 0, 0, 1, 1],
                    [0, 0, 0, 1, 1],
                ],
                False,
            ),
        ],
    )
    def test_pinches_holes_and_revisits(self, grid, revisits):
        grid = np.asarray(grid, dtype=np.float32)
        labels, _ = connected_components(_binary_raster(grid), connectivity=8)
        assert bool(_trace(labels)[2].any()) == revisits
        _assert_same_detections(polygonize(labels, T1), polygonize_oracle(labels, T1))
        h, w = grid.shape
        assert np.array_equal(
            _rasterize_back(polygonize(labels, T1), T1, w, h), grid.astype(np.uint8)
        )

    def test_touching_labels_keep_their_own_outlines(self):
        # hand-made labels: 1 and 2 share a side, so a side is exposed where
        # the label across it differs, not only where it is background
        labels = np.array([[1, 2], [1, 2]], dtype=np.int32)
        dets = polygonize(labels, T1)
        _assert_same_detections(dets, polygonize_oracle(labels, T1))
        assert dets[0].polygons[0].exterior == (
            (0.0, 16.0), (0.0, 14.0), (1.0, 14.0), (1.0, 16.0), (0.0, 16.0)
        )
        assert dets[1].polygons[0].exterior == (
            (1.0, 16.0), (1.0, 14.0), (2.0, 14.0), (2.0, 16.0), (1.0, 16.0)
        )

    def test_random_touching_labels(self):
        rng = np.random.default_rng(3)
        for trial in range(200):
            labels = rng.integers(0, 4, size=rng.integers(1, 9, size=2)).astype(np.int32)
            _assert_same_detections(
                polygonize(labels, T1), polygonize_oracle(labels, T1)
            )


class TestThresholdAndFilter:
    def test_threshold_boundary_included(self):
        prob = Raster(
            np.array([[[0.49, 0.5, 0.51]]], dtype=np.float32),
            GeoTransform(0, 1, 1, 1),
        )
        binary = threshold_probability(prob, 0.5)
        assert list(binary.samples[0, 0]) == [0.0, 1.0, 1.0]

    def test_threshold_nan_is_background(self):
        prob = Raster(
            np.array([[[np.nan, 0.9]]], dtype=np.float32), GeoTransform(0, 1, 1, 1)
        )
        binary = threshold_probability(prob, 0.5)
        assert list(binary.samples[0, 0]) == [0.0, 1.0]

    def test_threshold_validation(self):
        prob = Raster(np.zeros((1, 2, 2), dtype=np.float32), T1)
        with pytest.raises(ValueError, match="threshold"):
            threshold_probability(prob, 0.0)

    def test_area_filter_keeps_boundary(self):
        def det(area):
            return Detection(polygons=[], pixel_count=1, area=area, mean_probability=0.9)

        pcfg = PostprocConfig(min_area=100.0)
        kept = filter_detections([det(99.9), det(100.0), det(250.0)], pcfg)
        assert [d.area for d in kept] == [100.0, 250.0]


class TestExportGeojson:
    def test_polygon_and_multipolygon(self, tmp_path):
        grid = np.zeros((4, 6))
        grid[1, 1] = grid[2, 2] = 1  # diagonal pair -> MultiPolygon
        grid[1, 4] = 1  # lone pixel -> Polygon
        labels, _ = connected_components(_binary_raster(grid), connectivity=8)
        probs = np.where(grid > 0, 0.75, 0.1)
        dets = polygonize(labels, T1, probs)
        out = tmp_path / "detections.geojson"
        export_geojson(dets, out)
        doc = json.loads(out.read_text())
        types = sorted(f["geometry"]["type"] for f in doc["features"])
        assert types == ["MultiPolygon", "Polygon"]
        for feature in doc["features"]:
            props = feature["properties"]
            assert props["mean_probability"] == pytest.approx(0.75)
            assert props["area_m2"] == props["pixel_count"] * 1.0

    def test_nan_probability_exports_null(self, tmp_path):
        labels = np.zeros((2, 2), dtype=np.int32)
        labels[0, 0] = 1
        dets = polygonize(labels, T1)
        out = tmp_path / "d.geojson"
        export_geojson(dets, out)
        doc = json.loads(out.read_text())
        assert doc["features"][0]["properties"]["mean_probability"] is None

    def test_round_trip_through_annotation_reader(self, tmp_path):
        rng = np.random.default_rng(29)
        grid = (rng.uniform(size=(8, 8)) < 0.5).astype(np.float32)
        labels, _ = connected_components(_binary_raster(grid), connectivity=8)
        dets = polygonize(labels, T1)
        out = tmp_path / "d.geojson"
        export_geojson(dets, out)
        loaded = read_annotations(out)  # validates ring simplicity on load
        back = rasterize_mask(loaded, T1, 8, 8)
        assert np.array_equal(back, grid.astype(np.uint8))


def _probability_raster(grid, transform=None):
    transform = transform or GeoTransform(0.0, 10.0 * grid.shape[0], 10.0, 10.0)
    return Raster(
        np.asarray(grid, dtype=np.float32)[None],
        transform,
        nodata=math.nan,
        band_names=("probability",),
    )


class TestPostprocessPipeline:
    def test_min_area_separates_blobs(self):
        grid = np.full((12, 12), 0.1, dtype=np.float32)
        grid[2, 2] = 0.9  # single 10x10 m pixel: 100 m^2
        grid[6:9, 6:9] = 0.9  # 900 m^2
        prob = _probability_raster(grid)
        binary = threshold_probability(prob, 0.5)
        both = detections_from_binary(binary, prob, PostprocConfig(min_area=100.0))
        assert len(both) == 2
        big_only = detections_from_binary(binary, prob, PostprocConfig(min_area=150.0))
        assert len(big_only) == 1
        assert big_only[0].pixel_count == 9
        assert big_only[0].mean_probability == pytest.approx(0.9, abs=1e-6)

    def test_threshold_flag_changes_result(self):
        grid = np.full((8, 8), 0.45, dtype=np.float32)
        grid[3:5, 3:5] = 0.6
        prob = _probability_raster(grid)
        pcfg = PostprocConfig(min_area=0.0)
        low = detections_from_binary(threshold_probability(prob, 0.4), prob, pcfg)
        assert low[0].pixel_count == 64
        high = detections_from_binary(threshold_probability(prob, 0.5), prob, pcfg)
        assert high[0].pixel_count == 4


class TestPredictRaster:
    CFG = UNetConfig(in_channels=2, depth=1, base_filters=4)

    def _raster(self, h, w, seed=0, bands=2):
        rng = np.random.default_rng(seed)
        return Raster(
            rng.normal(size=(bands, h, w)).astype(np.float32),
            GeoTransform(0.0, float(h), 1.0, 1.0),
            nodata=math.nan,
            band_names=tuple(f"b{i}" for i in range(bands)),
        )

    def test_output_structure(self):
        params = build_unet(self.CFG, seed=0)
        raster = self._raster(40, 52)
        out = predict_raster(
            params, self.CFG, raster, icfg=InferenceConfig(tile_size=32, overlap=8)
        )
        assert out.samples.shape == (1, 40, 52)
        assert out.band_names == ("probability",)
        assert out.transform == raster.transform
        vals = out.samples[0]
        assert np.all((vals >= 0) & (vals <= 1))

    def test_raster_smaller_than_tile(self):
        params = build_unet(self.CFG, seed=0)
        raster = self._raster(20, 24)
        out = predict_raster(
            params, self.CFG, raster, icfg=InferenceConfig(tile_size=64, overlap=8)
        )
        assert out.samples.shape == (1, 20, 24)
        assert np.all(np.isfinite(out.samples))

    def test_nodata_propagates_as_nan(self):
        params = build_unet(self.CFG, seed=0)
        raster = self._raster(24, 24)
        raster.samples[0, 4:8, 4:8] = np.nan
        out = predict_raster(
            params, self.CFG, raster, icfg=InferenceConfig(tile_size=32, overlap=0)
        )
        assert np.isnan(out.samples[0, 4:8, 4:8]).all()
        finite = np.ones((24, 24), dtype=bool)
        finite[4:8, 4:8] = False
        assert np.isfinite(out.samples[0][finite]).all()

    def test_stats_match_manual_normalization(self):
        params = build_unet(self.CFG, seed=1)
        raster = self._raster(32, 32, seed=2)
        stats = NormalizationStats((0.5, -0.2), (2.0, 0.7), ("b0", "b1"))
        with_stats = predict_raster(
            params, self.CFG, raster, stats,
            icfg=InferenceConfig(tile_size=32, overlap=0),
        )
        manual = Raster(
            (
                raster.samples
                - np.array([0.5, -0.2], dtype=np.float32)[:, None, None]
            )
            / np.array([2.0, 0.7], dtype=np.float32)[:, None, None],
            raster.transform,
            nodata=math.nan,
            band_names=raster.band_names,
        )
        without = predict_raster(
            params, self.CFG, manual, icfg=InferenceConfig(tile_size=32, overlap=0)
        )
        assert np.array_equal(with_stats.samples, without.samples)

    def test_tiled_matches_untiled_where_tiles_are_clear(self):
        """Pixels far enough from every interior tile edge (receptive-field
        margin) must agree with a single full-raster forward pass."""
        params = build_unet(self.CFG, seed=3)
        h = w = 96
        raster = self._raster(h, w, seed=4)
        tile, overlap = 48, 24
        r = receptive_field_radius(self.CFG)
        tiled = predict_raster(
            params, self.CFG, raster,
            icfg=InferenceConfig(tile_size=tile, overlap=overlap),
        )

        from dumpwatch import numerics

        with numerics.no_grad():
            logits = forward(params, self.CFG, Tensor(raster.samples[None]))
        untiled = numerics.sigmoid_values(logits.data)[0, 0]

        def clear_1d(extent):
            ok = np.ones(extent, dtype=bool)
            for o in _tile_origins(extent, tile, overlap):
                if o > 0:
                    ok[o : o + r] = False
                if o + tile < extent:
                    ok[o + tile - r : o + tile] = False
            return ok

        mask = np.outer(clear_1d(h), clear_1d(w))
        assert mask.mean() > 0.3  # the comparison is not vacuous
        diff = np.abs(tiled.samples[0] - untiled)
        assert float(diff[mask].max()) <= 1e-5

    def test_band_count_mismatch(self):
        params = build_unet(self.CFG, seed=0)
        with pytest.raises(ValueError, match="bands"):
            predict_raster(params, self.CFG, self._raster(16, 16, bands=3))

    def test_stats_band_names_must_match(self):
        params = build_unet(self.CFG, seed=0)
        stats = NormalizationStats((0.0, 0.0), (1.0, 1.0), ("x", "y"))
        with pytest.raises(ValueError, match="band mismatch"):
            predict_raster(params, self.CFG, self._raster(16, 16), stats)

    def test_tile_size_divisibility(self):
        cfg = UNetConfig(in_channels=2, depth=3, base_filters=2)
        params = build_unet(cfg, seed=0)
        with pytest.raises(ValueError, match="divisible"):
            predict_raster(
                params, cfg, self._raster(16, 16),
                icfg=InferenceConfig(tile_size=12, overlap=0),
            )

    def test_deterministic(self):
        params = build_unet(self.CFG, seed=5)
        raster = self._raster(40, 40, seed=6)
        icfg = InferenceConfig(tile_size=32, overlap=16)
        a = predict_raster(params, self.CFG, raster, icfg=icfg)
        b = predict_raster(params, self.CFG, raster, icfg=icfg)
        assert a.samples.tobytes() == b.samples.tobytes()

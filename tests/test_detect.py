import functools
import json
import math
import time
import warnings

import numpy as np
import pytest

from dumpwatch import unet
from dumpwatch.dataset import (
    NormalizationStats,
    SynthConfig,
    generate_synthetic,
    rasterize_mask,
)
from dumpwatch.detect import (
    InferenceConfig,
    PostprocConfig,
    _label_parts,
    _tile_origins,
    connected_components,
    detections_from_binary,
    export_geojson,
    polygonize,
    predict_raster,
    predict_rows,
    threshold_probability,
)
from dumpwatch.dataset import SOURCE_BANDS, stack_bands
from dumpwatch.geodata import (
    GeoTransform,
    Raster,
    RasterReader,
    raster_writer,
    read_annotations,
    ring_is_simple,
    write_raster,
)
from dumpwatch.numerics import Tensor
from dumpwatch.unet import UNetConfig, build_unet, forward
from oracles import (
    connected_components_oracle,
    detection_records,
    export_geojson_oracle,
    polygon_columns,
    polygonize_oracle,
    predict_raster_oracle,
    receptive_field_radius,
    ring_is_simple_oracle,
    walks_oracle,
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


def _spiral(n):
    """A one-pixel-wide square path winding inwards, one pixel off itself."""
    grid = np.zeros((n, n), dtype=np.float32)
    steps = [(0, 1), (1, 0), (0, -1), (-1, 0)]
    lengths = [n - 1] * 3 + [k for k in range(n - 3, 0, -2) for _ in range(2)]
    r = c = 0
    for turn, length in enumerate(lengths):
        dr, dc = steps[turn % 4]
        r2, c2 = r + dr * length, c + dc * length
        grid[min(r, r2) : max(r, r2) + 1, min(c, c2) : max(c, c2) + 1] = 1
        r, c = r2, c2
    return grid


def _serpentine(n):
    """Every other row, joined at alternate ends into one path."""
    grid = np.zeros((n, n), dtype=np.float32)
    grid[::2] = 1
    grid[1::4, -1] = 1
    grid[3::4, 0] = 1
    return grid


def _comb(n):
    """Teeth on every other column, all hanging from a spine on the last row:
    the spine's run meets every tooth, each first in row-major order."""
    grid = np.zeros((n, n), dtype=np.float32)
    grid[:, ::2] = 1
    grid[-1] = 1
    return grid


@functools.lru_cache(maxsize=None)
def _maze(n, seed):
    """A random spanning tree of the cells at even (row, col), drawn by
    Kruskal's algorithm: one component of long winding corridors."""
    rng = np.random.default_rng(seed)
    m = (n + 1) // 2
    grid = np.zeros((n, n), dtype=np.float32)
    grid[::2, ::2] = 1
    parent = list(range(m * m))

    def find(x):
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    edges = [(u, u + 1) for u in range(m * m) if u % m < m - 1]
    edges += [(u, u + m) for u in range(m * m - m)]
    for k in rng.permutation(len(edges)).tolist():
        u, v = edges[k]
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            grid[u // m + v // m, u % m + v % m] = 1
    grid.flags.writeable = False
    return grid


ADVERSARIAL_SHAPES = {
    "spiral": lambda: _spiral(33),
    "serpentine": lambda: _serpentine(34),
    "comb": lambda: _comb(33),
    "maze": lambda: _maze(41, seed=7),
    "anti-diagonal": lambda: np.eye(30)[::-1],
    "1xN": lambda: (np.random.default_rng(1).uniform(size=(1, 60)) < 0.6).astype(np.float32),
    "Nx1": lambda: (np.random.default_rng(2).uniform(size=(60, 1)) < 0.6).astype(np.float32),
    "1x1": lambda: np.ones((1, 1)),
    "all-foreground": lambda: np.ones((17, 23)),
}

LARGE_SHAPES = {
    "spiral": lambda: _spiral(1024),
    "serpentine": lambda: _serpentine(1024),
    "comb": lambda: _comb(1024),
    "maze": lambda: _maze(1023, seed=3),
    "anti-diagonal": lambda: np.eye(1024)[::-1],
}


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
        # merge orders that break a subtly wrong labeller are rare: jumping
        # pointers only once per round mislabels about one grid in 1500
        for _ in range(3000):
            h, w = rng.integers(1, 25, 2)
            grids.append((rng.uniform(size=(h, w)) < rng.uniform(0.2, 0.8)).astype(np.float32))
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

    @pytest.mark.parametrize("connectivity", [4, 8])
    def test_label_grids_join_equal_neighbours(self, connectivity):
        # polygonize finds the 4-connected parts of each label this way;
        # a part is numbered when a row-major scan first meets it
        rng = np.random.default_rng(29)
        for trial in range(300):
            values = rng.integers(0, 4, size=rng.integers(1, 16, 2))
            own = {v: connected_components_oracle(values == v, connectivity) for v in (1, 2, 3)}
            expected = np.zeros(values.shape, dtype=np.int32)
            names = {}
            for (r, c), v in np.ndenumerate(values):
                if v:
                    expected[r, c] = names.setdefault((v, own[v][r, c]), len(names) + 1)
            parts, count = _label_parts(values, connectivity)
            assert np.array_equal(parts, expected), f"trial {trial}"
            assert count == len(names), f"trial {trial}"

    def test_empty_grid(self):
        labels, sizes = connected_components(_binary_raster(np.zeros((4, 4))))
        assert labels.max() == 0 and len(sizes) == 0

    @pytest.mark.parametrize("connectivity", [4, 8])
    @pytest.mark.parametrize("shape", ADVERSARIAL_SHAPES)
    def test_adversarial_shapes_match_oracle(self, shape, connectivity):
        grid = ADVERSARIAL_SHAPES[shape]()
        labels, sizes = connected_components(_binary_raster(grid), connectivity)
        expected = connected_components_oracle(grid, connectivity)
        assert labels.dtype == np.int32
        assert np.array_equal(labels, expected)
        assert np.array_equal(sizes, np.bincount(expected.ravel())[1:])

    @pytest.mark.parametrize("connectivity", [4, 8])
    @pytest.mark.parametrize("shape", LARGE_SHAPES)
    def test_large_adversarial_grids_match_scipy(self, shape, connectivity):
        # too large for the flood-fill oracle; scipy is the reference here
        from scipy import ndimage

        grid = LARGE_SHAPES[shape]()
        structure = ndimage.generate_binary_structure(2, 2 if connectivity == 8 else 1)
        expected, count = ndimage.label(grid, structure)
        labels, sizes = connected_components(_binary_raster(grid), connectivity)
        assert labels.dtype == np.int32
        assert np.array_equal(labels, expected)
        assert np.array_equal(sizes, np.bincount(expected.ravel(), minlength=count + 1)[1:])

    @pytest.mark.parametrize("shape", ["maze", "comb"])
    def test_large_maze_and_comb_label_quickly(self, shape):
        # guards the number of rounds: hooking each root under an arbitrary
        # smaller neighbour merges the comb one tooth per round, 512 rounds
        raster = _binary_raster(LARGE_SHAPES[shape]())
        for connectivity in (4, 8):
            start = time.perf_counter()
            connected_components(raster, connectivity)
            assert time.perf_counter() - start < 1.0


def _rasterize_back(detections, transform, width, height):
    return rasterize_mask(detections.polygons, transform, width, height)


class TestPolygonizeExactness:
    def test_single_pixel(self):
        labels = np.zeros((4, 4), dtype=np.int32)
        labels[1, 2] = 1
        dets = polygonize(labels, T1)
        assert len(dets) == 1
        (det,) = detection_records(dets)
        assert det.pixel_count == 1 and det.area == 1.0
        assert len(det.polygons) == 1
        ring = det.polygons[0][0]
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
        (det,) = detection_records(dets)
        assert len(det.polygons) == 1
        exterior, *holes = det.polygons[0]
        assert len(holes) == 1
        assert det.pixel_count == 8
        assert np.array_equal(
            _rasterize_back(dets, T1, 5, 5), grid.astype(np.uint8)
        )

    def test_diagonal_pair_splits_into_two_parts(self):
        grid = np.zeros((4, 4))
        grid[1, 1] = grid[2, 2] = 1
        labels, _ = connected_components(_binary_raster(grid), connectivity=8)
        dets = polygonize(labels, T1)
        assert len(dets) == 1  # one component
        (det,) = detection_records(dets)
        assert len(det.polygons) == 2  # but two simple parts
        for exterior, *_ in det.polygons:
            assert ring_is_simple(exterior)
            assert len(exterior) == 5
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
        for det in detection_records(dets):
            for exterior, *_ in det.polygons:
                assert ring_is_simple(exterior)

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
        (det,) = detection_records(dets)
        assert len(det.polygons) == 1
        exterior, *holes = det.polygons[0]
        assert len(holes) == 1
        assert ring_is_simple(exterior) and ring_is_simple(holes[0])
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
            for ring in dets.polygons.rings():
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
            for ring in dets.polygons.rings():
                assert ring_is_simple(ring), f"trial {trial}"
                assert ring_is_simple_oracle(ring), f"trial {trial}"
            # parts of one component never overlap: total count preserved
            assert sum(d.pixel_count for d in detection_records(dets)) == int(grid.sum())

    def test_dense_random_grid_polygonizes_quickly(self):
        # guards hole placement and ring cutting: thousands of exteriors and
        # holes in one component, once placed by a Python even-odd test per
        # (hole, exterior) pair in about 1.6 s
        rng = np.random.default_rng(22)
        grid = (rng.uniform(size=(256, 256)) < 0.7).astype(np.float32)
        labels, _ = connected_components(_binary_raster(grid), connectivity=8)
        start = time.perf_counter()
        polygonize(labels, T1)
        assert time.perf_counter() - start < 0.5

    def test_component_masks_reproduce_individually(self):
        rng = np.random.default_rng(23)
        grid = (rng.uniform(size=(10, 10)) < 0.5).astype(np.float32)
        labels, _ = connected_components(_binary_raster(grid), connectivity=8)
        dets = polygonize(labels, T1)
        for k, det in enumerate(detection_records(dets), start=1):
            back = rasterize_mask(polygon_columns(det.polygons), T1, 10, 10)
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
        assert dets.area[0] == pytest.approx(600.0)  # 6 pixels * 100 m^2
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
        assert dets.mean_probability[0] == pytest.approx(0.7)
        assert dets.mean_probability[1] == pytest.approx(0.9)
        bare = polygonize(labels, T1)
        assert math.isnan(bare.mean_probability[0])

    def test_validation(self):
        with pytest.raises(ValueError, match="2-D"):
            polygonize(np.zeros((2, 2, 2)), T1)
        with pytest.raises(ValueError, match="probabilities"):
            polygonize(np.zeros((2, 2), dtype=np.int32), T1, np.zeros((3, 3)))

    def test_no_components(self):
        assert detection_records(polygonize(np.zeros((4, 4), dtype=np.int32), T1)) == []

    def test_absent_label_gives_empty_detection(self):
        labels = np.zeros((4, 4), dtype=np.int32)
        labels[0, 0] = 1
        labels[2:4, 2:4] = 3  # no pixel carries label 2
        dets = polygonize(labels, T1, np.full((4, 4), 0.75))
        assert len(dets) == 3
        records = detection_records(dets)
        assert records[1].polygons == [] and records[1].pixel_count == 0
        assert records[1].area == 0.0
        assert records[0].pixel_count == 1 and records[2].pixel_count == 4
        assert np.array_equal(
            _rasterize_back(dets, T1, 4, 4), (labels != 0).astype(np.uint8)
        )


# an outer ring whose corner pixel touches, diagonally, a part inside its
# hole; that inner part has a one-cell hole of its own
NESTED = np.array(
    [
        [1, 1, 1, 1, 1, 1, 1],
        [1, 1, 0, 0, 0, 0, 1],
        [1, 0, 1, 1, 1, 0, 1],
        [1, 0, 1, 0, 1, 0, 1],
        [1, 0, 1, 1, 1, 0, 1],
        [1, 0, 0, 0, 0, 0, 1],
        [1, 1, 1, 1, 1, 1, 1],
    ],
    dtype=np.float32,
)


def _assert_same_detections(got, want):
    """``got``'s columns equal the ``DetectionRecord``s ``want`` on every
    field and every ring's vertices (order, start and float bits, by repr),
    and label every polygon "detection"."""
    records = detection_records(got)
    assert len(records) == len(want)
    for k, (g, w) in enumerate(zip(records, want)):
        assert (g.pixel_count, g.area) == (w.pixel_count, w.area), k
        assert repr(g.mean_probability) == repr(w.mean_probability), k
        assert repr(g.polygons) == repr(w.polygons), k
    assert got.polygons.labels == ["detection"] * len(got.polygons)


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
            # a part inside another part's hole, touching it at a corner,
            # with a hole of its own
            (NESTED, False),
        ],
    )
    def test_pinches_holes_and_revisits(self, grid, revisits):
        grid = np.asarray(grid, dtype=np.float32)
        labels, _ = connected_components(_binary_raster(grid), connectivity=8)
        walks = [
            walk
            for label in range(1, labels.max() + 1)
            for pixels in [np.argwhere(labels == label)]
            for walk in walks_oracle(pixels, {(int(r), int(c)) for r, c in pixels})
        ]
        assert any(len(set(walk)) < len(walk) - 1 for walk in walks) == revisits
        _assert_same_detections(polygonize(labels, T1), polygonize_oracle(labels, T1))
        h, w = grid.shape
        assert np.array_equal(
            _rasterize_back(polygonize(labels, T1), T1, w, h), grid.astype(np.uint8)
        )

    def test_hole_of_a_nested_part_goes_to_that_part(self):
        labels, _ = connected_components(_binary_raster(NESTED), connectivity=8)
        assert labels.max() == 1
        ((outer, *outer_holes), (inner, *inner_holes)) = detection_records(polygonize(labels, T1))[0].polygons
        assert len(outer_holes) == 1 and len(inner_holes) == 1
        # the inner part's hole is the one cell at row 3, col 3
        assert sorted(inner_holes[0][:-1]) == [(3.0, 12.0), (3.0, 13.0), (4.0, 12.0), (4.0, 13.0)]
        assert len(inner) == 5 and len(outer_holes[0]) > 5

    def test_touching_labels_keep_their_own_outlines(self):
        # hand-made labels: 1 and 2 share a side, so a side is exposed where
        # the label across it differs, not only where it is background
        labels = np.array([[1, 2], [1, 2]], dtype=np.int32)
        dets = polygonize(labels, T1)
        _assert_same_detections(dets, polygonize_oracle(labels, T1))
        first, second = detection_records(dets)
        assert first.polygons[0][0] == (
            (0.0, 16.0), (0.0, 14.0), (1.0, 14.0), (1.0, 16.0), (0.0, 16.0)
        )
        assert second.polygons[0][0] == (
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
        # components of 1, 3, 2 and 4 pixels of 10 x 10 m; those of 200 m^2
        # or more become detections, in label order
        labels = np.array([[1, 0, 2, 2, 2], [0, 0, 0, 0, 0], [3, 3, 0, 4, 4], [0, 0, 0, 4, 4]])
        transform = GeoTransform(0.0, 40.0, 10.0, 10.0)
        binary = _binary_raster(labels > 0, transform)
        prob = _probability_raster(np.linspace(0.5, 0.9, labels.size).reshape(labels.shape), transform)
        kept = detections_from_binary(binary, prob, PostprocConfig(min_area=200.0))
        assert kept.area.tolist() == [300.0, 200.0, 400.0]
        _assert_same_detections(kept, detection_records(polygonize(labels, transform, prob.samples[0]))[1:])
        assert len(detections_from_binary(binary, prob, PostprocConfig(min_area=1000.0))) == 0


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


class TestExportMatchesOracle:
    """``export_geojson`` on ``polygonize``'s columns writes the bytes that
    ``json.dumps`` writes for ``polygonize_oracle``'s objects."""

    @staticmethod
    def _assert_same_bytes(tmp_path, labels, transform=T1, probs=None):
        export_geojson(polygonize(labels, transform, probs), tmp_path / "got.geojson")
        export_geojson_oracle(polygonize_oracle(labels, transform, probs), tmp_path / "want.geojson")
        assert (tmp_path / "got.geojson").read_bytes() == (tmp_path / "want.geojson").read_bytes()

    @staticmethod
    def _assert_filtered_bytes(tmp_path, grid, connectivity, transform, probs, min_area):
        """``detections_from_binary``, which drops the small components
        before tracing, writes the bytes of the oracle chain that traces
        them all and drops them afterwards; returns the oracle's areas."""
        prob = _probability_raster(probs, transform)
        pcfg = PostprocConfig(min_area=min_area, connectivity=connectivity)
        export_geojson(detections_from_binary(_binary_raster(grid, transform), prob, pcfg), tmp_path / "got.geojson")
        labels = connected_components_oracle(grid, connectivity)
        every = polygonize_oracle(labels, transform, prob.samples[0])
        want = [d for d in every if d.area >= min_area]
        assert 0 < len(want) < len(every)  # the filter dropped some
        export_geojson_oracle(want, tmp_path / "want.geojson")
        assert (tmp_path / "got.geojson").read_bytes() == (tmp_path / "want.geojson").read_bytes()
        return [d.area for d in every]

    @pytest.mark.parametrize("connectivity", [4, 8])
    @pytest.mark.parametrize("density", [0.3, 0.6])
    def test_random_grids(self, tmp_path, density, connectivity):
        rng = np.random.default_rng(int(density * 10) + connectivity)
        grid = (rng.uniform(size=(48, 40)) < density).astype(np.float32)
        labels, _ = connected_components(_binary_raster(grid), connectivity)
        transform = GeoTransform(500000.0, 4200000.0, 10.0, 10.0)
        self._assert_same_bytes(tmp_path, labels, transform, rng.uniform(size=grid.shape))

    @pytest.mark.parametrize(
        "grid",
        [
            NESTED,  # nested parts with holes of their own
            [[1, 0, 1], [0, 1, 0], [1, 0, 1]],  # five squares at four pinches
            [[0, 0, 1, 1], [0, 1, 0, 1], [0, 1, 1, 1]],  # a hole pinched to the outside
            [[1, 1, 1, 1, 1], [1, 0, 1, 0, 1], [1, 1, 0, 1, 1], [1, 0, 1, 0, 1], [1, 1, 1, 1, 1]],
        ],
    )
    def test_holes_nested_parts_and_pinches(self, tmp_path, grid):
        labels, _ = connected_components(_binary_raster(np.asarray(grid)), connectivity=8)
        self._assert_same_bytes(tmp_path, labels)

    def test_touching_labels(self, tmp_path):
        rng = np.random.default_rng(5)
        for trial in range(20):
            labels = rng.integers(0, 5, size=rng.integers(1, 12, size=2)).astype(np.int32)
            self._assert_same_bytes(tmp_path, labels)

    def test_nan_probabilities(self, tmp_path):
        rng = np.random.default_rng(8)
        grid = (rng.uniform(size=(20, 20)) < 0.4).astype(np.float32)
        labels, _ = connected_components(_binary_raster(grid), connectivity=4)
        probs = rng.uniform(size=grid.shape)
        probs[rng.uniform(size=grid.shape) < 0.1] = np.nan  # NaN means become null
        self._assert_same_bytes(tmp_path, labels, probs=probs)
        self._assert_same_bytes(tmp_path, labels)  # no probabilities: all null

    def test_min_area_drops_some(self, tmp_path):
        rng = np.random.default_rng(9)
        grid = (rng.uniform(size=(32, 32)) < 0.35).astype(np.float32)
        self._assert_filtered_bytes(tmp_path, grid, 8, T1, rng.uniform(size=grid.shape), min_area=3.0)

    @pytest.mark.parametrize("connectivity", [4, 8])
    def test_non_integer_transform(self, tmp_path, connectivity):
        # corners such as -123.456 + 7 * 0.1 print with many digits and do
        # not round-trip through short decimal forms
        rng = np.random.default_rng(10 + connectivity)
        grid = (rng.uniform(size=(40, 50)) < 0.45).astype(np.float32)
        transform = GeoTransform(-123.456, 7.1, 0.1, 0.3)
        self._assert_filtered_bytes(tmp_path, grid, connectivity, transform, rng.uniform(size=grid.shape), min_area=0.05)

    @pytest.mark.parametrize("connectivity", [4, 8])
    @pytest.mark.parametrize("seed", [21, 22])
    def test_filter_before_tracing(self, tmp_path, seed, connectivity):
        # random grids hold holes and diagonal pinches; NESTED adds parts
        # nested in holes. The cut is the area of the second-smallest
        # component size, so detections of exactly min_area are kept, and
        # the dropped components lie between kept ones in label order
        rng = np.random.default_rng(seed)
        grid = (rng.uniform(size=(36, 44)) < 0.4).astype(np.float32)
        grid[-NESTED.shape[0] - 1 :, -NESTED.shape[1] - 1 :] = 0
        grid[-NESTED.shape[0] :, -NESTED.shape[1] :] = NESTED
        transform = GeoTransform(-123.456, 7.1, 0.1, 0.3)
        sizes = np.bincount(connected_components_oracle(grid, connectivity).ravel())[1:]
        min_area = int(np.unique(sizes)[1]) * (transform.pixel_width * transform.pixel_height)
        areas = np.array(self._assert_filtered_bytes(
            tmp_path, grid, connectivity, transform, rng.uniform(size=grid.shape), min_area
        ))
        kept = np.flatnonzero(areas >= min_area)
        assert min_area in areas
        assert (areas[kept[0] : kept[-1]] < min_area).any()

    def test_no_detections(self, tmp_path):
        self._assert_same_bytes(tmp_path, np.zeros((3, 3), dtype=np.int32))

    def test_non_finite_corners_are_refused(self, tmp_path):
        labels = np.ones((2, 2), dtype=np.int32)
        out = tmp_path / "d.geojson"
        out.write_text("earlier")
        dets = polygonize(labels, GeoTransform(0.0, 0.0, 1e200, 1e200))  # area overflows
        with pytest.raises(ValueError, match="not JSON compliant"):
            export_geojson(dets, out)
        assert out.read_text() == "earlier"


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
        assert big_only.pixel_count[0] == 9
        assert big_only.mean_probability[0] == pytest.approx(0.9, abs=1e-6)

    def test_threshold_flag_changes_result(self):
        grid = np.full((8, 8), 0.45, dtype=np.float32)
        grid[3:5, 3:5] = 0.6
        prob = _probability_raster(grid)
        pcfg = PostprocConfig(min_area=0.0)
        low = detections_from_binary(threshold_probability(prob, 0.4), prob, pcfg)
        assert low.pixel_count[0] == 64
        high = detections_from_binary(threshold_probability(prob, 0.5), prob, pcfg)
        assert high.pixel_count[0] == 4


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


class TestStreamedPredictMatchesOracle:
    """``predict_rows`` holds one stripe per tile row; its output must equal
    whole-raster inference byte for byte."""

    CFG = UNetConfig(in_channels=2, depth=2, base_filters=3)
    STATS = NormalizationStats((0.3, -0.1), (1.7, 0.6), ("b0", "b1"))

    def _raster(self, h, w, seed=0, bands=2, names=None):
        rng = np.random.default_rng(seed)
        return Raster(
            rng.normal(size=(bands, h, w)).astype(np.float32),
            GeoTransform(0.0, float(h), 1.0, 1.0),
            nodata=math.nan,
            band_names=names or tuple(f"b{i}" for i in range(bands)),
        )

    def _check(self, raster, tile, overlap, batch_size, stats=STATS, seed=0):
        params = build_unet(self.CFG, seed=seed)
        icfg = InferenceConfig(tile_size=tile, overlap=overlap, batch_size=batch_size)
        got = predict_raster(params, self.CFG, raster, stats, icfg).samples[0]
        want = predict_raster_oracle(params, self.CFG, raster, stats, tile, overlap, batch_size)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        return got

    @pytest.mark.parametrize(
        "h, w, tile, overlap, batch_size",
        [
            (20, 24, 32, 8, 8),  # smaller than a tile
            (13, 50, 16, 4, 3),  # shorter than a tile, wider than one
            (32, 80, 32, 8, 2),  # exactly one tile row
            (75, 61, 32, 8, 3),  # neither side a multiple of the step
            (90, 33, 32, 12, 1),  # batch size 1
            (70, 70, 16, 4, 50),  # one batch larger than the tiles per row
            (100, 20, 16, 0, 4),  # one window per row, batches of one
            (64, 64, 32, 0, 8),  # no overlap, sides multiples of the tile
        ],
    )
    def test_shapes(self, h, w, tile, overlap, batch_size):
        self._check(self._raster(h, w, seed=h * w), tile, overlap, batch_size)

    def test_without_stats(self):
        self._check(self._raster(50, 41, seed=9), 16, 4, 5, stats=None)

    def test_nan_patch_across_a_stripe_boundary(self):
        raster = self._raster(75, 61, seed=3)
        # tile rows start at 0, 24, 43; the patch spans the first two starts
        raster.samples[1, 20:30, 10:40] = np.nan
        raster.samples[0, 40:46, 55:61] = np.nan
        got = self._check(raster, 32, 8, 4)
        assert np.isnan(got[20:30, 10:40]).all() and np.isnan(got[40:46, 55:61]).all()
        assert np.isfinite(got).sum() == 75 * 61 - 300 - 36

    def test_windows_over_nodata_alone_are_not_run(self, monkeypatch):
        raster = self._raster(75, 61, seed=6)
        raster.samples[1, :, :33] = np.nan  # the left half is nodata
        raster.samples[0, 40:, 33:] = np.nan  # and the bottom right
        params = build_unet(self.CFG, seed=0)
        icfg = InferenceConfig(tile_size=16, overlap=4, batch_size=3)
        run = []
        real_forward = unet.forward

        def counting_forward(params, config, batch):
            run.append(len(batch.data))
            return real_forward(params, config, batch)

        with monkeypatch.context() as patch, warnings.catch_warnings():
            patch.setattr(unet, "forward", counting_forward)
            warnings.simplefilter("error")  # no 0 / 0 warning where none ran
            got = predict_raster(params, self.CFG, raster, self.STATS, icfg).samples[0]
        # valid pixels fill rows 0-39, cols 33-60: of the 6 x 5 windows, those
        # at rows 0, 12, 24, 36 and cols 24, 36, 45 reach one
        assert sum(run) == 4 * 3
        assert np.isfinite(got).sum() == 40 * 28
        want = predict_raster_oracle(params, self.CFG, raster, self.STATS, 16, 4, 3)
        assert got.tobytes() == want.tobytes()

    def test_rows_stream_before_the_raster_is_read(self):
        raster = self._raster(200, 24, seed=5)
        reads = []

        class Source:
            height, width, band_count = raster.height, raster.width, raster.band_count
            band_names, transform, nodata = raster.band_names, raster.transform, raster.nodata

            def read_rows(self, r0, r1):
                reads.append((r0, r1))
                return raster.read_rows(r0, r1)

        params = build_unet(self.CFG, seed=1)
        # two tiles per row, batches of three: no batch reaches the next row
        icfg = InferenceConfig(tile_size=16, overlap=4, batch_size=3)
        rows = predict_rows(params, self.CFG, Source(), self.STATS, icfg)
        assert reads == []  # the arguments are checked, no row is read yet
        first = next(rows)
        assert len(first) == 12 and reads == [(0, 16)]
        blocks = [first, *rows]
        origins = _tile_origins(200, 16, 4)  # 0, 12, ..., 180, then 184
        assert reads == [(r0, r0 + 16) for r0 in origins]  # each stripe once
        # one block per tile row, up to the next row's origin: a step of 12
        # rows, 4 before the last origin, and the whole last stripe
        assert [len(b) for b in blocks] == [12] * 15 + [4, 16]
        want = predict_raster_oracle(params, self.CFG, raster, self.STATS, 16, 4, 3)
        assert np.concatenate(blocks).tobytes() == want.tobytes()

    def test_file_source_with_stacked_bands_writes_the_oracle_bytes(self, tmp_path):
        cfg = UNetConfig(in_channels=3, depth=2, base_filters=2)
        params = build_unet(cfg, seed=2)
        source = self._raster(58, 45, seed=4, bands=6, names=SOURCE_BANDS)
        source.samples[:] = np.abs(source.samples) + 0.05
        source.samples[4, 30:36, 0:9] = np.nan  # SWIR1: NDSW is nodata too
        write_raster(source, tmp_path / "scene")
        bands = ("R", "NIR", "NDSW")
        icfg = InferenceConfig(tile_size=16, overlap=6, batch_size=3)
        with RasterReader(tmp_path / "scene") as src:
            with raster_writer(
                tmp_path / "streamed", 1, src.height, src.width, src.transform,
                band_names=("probability",),
            ) as write_rows:
                for rows in predict_rows(params, cfg, src, None, icfg, bands):
                    write_rows(rows[None])
        want = predict_raster_oracle(params, cfg, stack_bands(source, bands), None, 16, 6, 3)
        write_raster(
            Raster(want[None], source.transform, band_names=("probability",)),
            tmp_path / "whole",
        )
        for suffix in (".bin", ".json"):
            streamed = (tmp_path / f"streamed{suffix}").read_bytes()
            assert streamed == (tmp_path / f"whole{suffix}").read_bytes()
        assert np.isnan(want[30:36, 0:9]).all()

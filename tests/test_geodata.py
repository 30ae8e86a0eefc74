import json
import math
import time

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dumpwatch import geodata
from dumpwatch.detect import connected_components, polygonize
from dumpwatch.geodata import (
    _BATCH_SEGMENTS,
    GeoTransform,
    PolygonAnnotation,
    Raster,
    pixel_to_world,
    rasters_equal,
    read_annotations,
    read_raster,
    ring_is_simple,
    shift_transform,
    write_annotations,
    write_raster,
    _first_bad_ring,
    _short_ring_defects,
)
from oracles import (
    polygon_area_oracle,
    ring_folds_back_oracle,
    ring_is_simple_oracle,
)


class TestGeoTransform:
    def test_rejects_nonpositive_pixel_sizes(self):
        with pytest.raises(ValueError, match="pixel_width"):
            GeoTransform(0.0, 0.0, 0.0, 10.0)
        with pytest.raises(ValueError, match="pixel_height"):
            GeoTransform(0.0, 0.0, 10.0, -1.0)

    def test_pixel_to_world_is_topleft_corner(self):
        t = GeoTransform(0.0, 100.0, 10.0, 10.0)
        assert pixel_to_world(t, 0, 0) == (0.0, 100.0)
        assert pixel_to_world(t, 2, 3) == (20.0, 70.0)

    def test_shift_transform_realigns_origin(self):
        t = GeoTransform(500.0, 4000.0, 10.0, 10.0)
        shifted = shift_transform(t, 3, 7)
        assert shifted.origin_x == 530.0
        assert shifted.origin_y == 3930.0
        assert shifted.pixel_width == t.pixel_width


class TestRaster:
    def test_casts_to_float32(self):
        r = Raster(np.ones((1, 2, 2), dtype=np.float64), GeoTransform(0, 0, 1, 1))
        assert r.samples.dtype == np.float32

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError, match="band, row, col"):
            Raster(np.ones((2, 2)), GeoTransform(0, 0, 1, 1))
        with pytest.raises(ValueError, match="empty"):
            Raster(np.ones((0, 2, 2)), GeoTransform(0, 0, 1, 1))

    def test_band_name_count_must_match(self):
        with pytest.raises(ValueError, match="band names"):
            Raster(
                np.ones((2, 2, 2)),
                GeoTransform(0, 0, 1, 1),
                band_names=("only-one",),
            )

    def test_band_lookup(self):
        data = np.stack([np.zeros((2, 2)), np.ones((2, 2))])
        r = Raster(data, GeoTransform(0, 0, 1, 1), band_names=("a", "b"))
        assert r.band("b").max() == 1.0
        with pytest.raises(KeyError):
            r.band("missing")

    def test_valid_mask_nan_nodata(self):
        data = np.ones((2, 3, 3), dtype=np.float32)
        data[0, 1, 1] = np.nan
        r = Raster(data, GeoTransform(0, 0, 1, 1))
        mask = r.valid_mask()
        assert mask.sum() == 8
        assert not mask[1, 1]

    def test_valid_mask_sentinel_nodata(self):
        data = np.ones((1, 2, 2), dtype=np.float32)
        data[0, 0, 0] = -9999.0
        r = Raster(data, GeoTransform(0, 0, 1, 1), nodata=-9999.0)
        assert r.valid_mask().sum() == 3

    def test_valid_mask_none_nodata(self):
        data = np.full((1, 2, 2), np.nan, dtype=np.float32)
        r = Raster(data, GeoTransform(0, 0, 1, 1), nodata=None)
        assert r.valid_mask().all()


class TestRasterIO:
    def _sample(self, seed=0, nodata=math.nan):
        rng = np.random.default_rng(seed)
        data = rng.normal(size=(3, 5, 4)).astype(np.float32)
        data[0, 0, 0] = np.nan
        return Raster(
            data,
            GeoTransform(1200.0, 88000.0, 10.0, 10.0),
            nodata=nodata,
            band_names=("R", "G", "B"),
        )

    def test_round_trip_bit_exact(self, tmp_path):
        r = self._sample()
        base = tmp_path / "scene"
        write_raster(r, base)
        assert rasters_equal(read_raster(base), r)

    def test_round_trip_none_and_sentinel_nodata(self, tmp_path):
        for nodata in (None, -1.0):
            r = self._sample(nodata=nodata)
            base = tmp_path / f"scene_{nodata}"
            write_raster(r, base)
            assert rasters_equal(read_raster(base), r)

    def test_missing_files(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_raster(tmp_path / "absent")

    def test_truncated_payload_reports_mismatch(self, tmp_path):
        base = tmp_path / "scene"
        write_raster(self._sample(), base)
        payload = (tmp_path / "scene.bin").read_bytes()
        (tmp_path / "scene.bin").write_bytes(payload[:-4])
        with pytest.raises(ValueError, match="band/sample mismatch"):
            read_raster(base)

    def test_rejects_unknown_format(self, tmp_path):
        base = tmp_path / "scene"
        write_raster(self._sample(), base)
        header = json.loads((tmp_path / "scene.json").read_text())
        header["format"] = "something-else"
        (tmp_path / "scene.json").write_text(json.dumps(header))
        with pytest.raises(ValueError, match="format"):
            read_raster(base)

    def test_rejects_future_version(self, tmp_path):
        base = tmp_path / "scene"
        write_raster(self._sample(), base)
        header = json.loads((tmp_path / "scene.json").read_text())
        header["format_version"] = 99
        (tmp_path / "scene.json").write_text(json.dumps(header))
        with pytest.raises(ValueError, match="version"):
            read_raster(base)

    def test_header_is_valid_json_with_expected_keys(self, tmp_path):
        base = tmp_path / "scene"
        write_raster(self._sample(), base)
        header = json.loads((tmp_path / "scene.json").read_text())
        assert header["width"] == 4 and header["height"] == 5
        assert header["band_names"] == ["R", "G", "B"]
        assert header["layout"] == "band-row-col"
        assert header["nodata"] == "nan"

    @given(
        bands=st.integers(1, 4),
        h=st.integers(1, 8),
        w=st.integers(1, 8),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=20)
    def test_round_trip_property(self, tmp_path_factory, bands, h, w, seed):
        rng = np.random.default_rng(seed)
        r = Raster(
            rng.normal(size=(bands, h, w)).astype(np.float32),
            GeoTransform(0.0, float(h), 1.0, 1.0),
        )
        base = tmp_path_factory.mktemp("rio") / "r"
        write_raster(r, base)
        assert rasters_equal(read_raster(base), r)


UNIT_SQUARE = ((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0))


class TestPolygonAnnotation:
    def test_ring_closure_is_normalized(self):
        open_ring = PolygonAnnotation(UNIT_SQUARE)
        closed_ring = PolygonAnnotation((*UNIT_SQUARE, UNIT_SQUARE[0]))
        assert open_ring.exterior == closed_ring.exterior
        assert open_ring.exterior[0] == open_ring.exterior[-1]

    def test_consecutive_duplicates_dropped(self):
        ring = ((0, 0), (0, 0), (1, 0), (1, 1), (1, 1), (0, 1))
        poly = PolygonAnnotation(ring)
        assert len(poly.exterior) == 5  # 4 distinct + repeated closure

    def test_degenerate_ring_rejected(self):
        with pytest.raises(ValueError, match="3 distinct"):
            PolygonAnnotation(((0, 0), (1, 1)))
        with pytest.raises(ValueError, match="3 distinct"):
            PolygonAnnotation(((0, 0), (0, 0), (1, 1)))
        # alternating repeats survive construction but fail the simplicity check
        zigzag = PolygonAnnotation(((0, 0), (1, 1), (0, 0), (1, 1)))
        assert not ring_is_simple(zigzag.exterior)

    def test_area_square(self):
        assert PolygonAnnotation(UNIT_SQUARE).area() == pytest.approx(1.0)

    def test_area_with_hole(self):
        outer = ((0, 0), (3, 0), (3, 3), (0, 3))
        inner = ((1, 1), (2, 1), (2, 2), (1, 2))
        poly = PolygonAnnotation(outer, (inner,))
        assert poly.area() == pytest.approx(8.0)

    @given(
        n=st.integers(3, 12),
        seed=st.integers(0, 10_000),
    )
    def test_area_matches_oracle_on_star_shaped_polygons(self, n, seed):
        rng = np.random.default_rng(seed)
        angles = np.sort(rng.uniform(0, 2 * np.pi, size=n))
        if np.min(np.diff(angles)) < 1e-3:
            angles = np.linspace(0, 2 * np.pi, n, endpoint=False)
        radii = rng.uniform(1.0, 5.0, size=n)
        ring = tuple(
            (float(r * np.cos(a)), float(r * np.sin(a)))
            for r, a in zip(radii, angles)
        )
        poly = PolygonAnnotation(ring)
        assert poly.area() == pytest.approx(
            polygon_area_oracle(list(poly.exterior)), rel=1e-12
        )


class TestRingSimplicity:
    def test_square_is_simple(self):
        assert ring_is_simple(PolygonAnnotation(UNIT_SQUARE).exterior)

    def test_bowtie_is_not_simple(self):
        bowtie = PolygonAnnotation(((0, 0), (2, 2), (2, 0), (0, 2)))
        assert not ring_is_simple(bowtie.exterior)

    def test_spike_touching_edge_is_not_simple(self):
        # vertex 4 lands on the segment from vertex 0 to vertex 1
        ring = PolygonAnnotation(
            ((0, 0), (4, 0), (4, 4), (2, 4), (2, 0), (1, 3))
        ).exterior
        assert not ring_is_simple(ring)

    @pytest.mark.parametrize("transpose", [False, True])
    def test_spike_touching_edge_at_its_extreme_is_not_simple(self, transpose):
        # vertex 5 lands on the segment from vertex 1 to vertex 2, and only
        # there: the touching pairs meet at the edge of their x-ranges
        points = ((0, 0), (4, 0), (4, 4), (0, 4), (0, 3), (4, 2), (0, 1))
        if transpose:
            points = tuple((y, x) for x, y in points)
        assert not ring_is_simple(PolygonAnnotation(points).exterior)

    @pytest.mark.parametrize("transpose", [False, True])
    def test_spike_touching_edge_at_its_sweep_extreme_is_not_simple(self, transpose):
        # the ring above stretched to three times its height, so the sweep
        # runs along x (the axis the segments cover less of) and the
        # touching pairs meet at the edge of their ranges on that axis;
        # transposed, the same happens along y
        points = ((0, 0), (4, 0), (4, 12), (0, 12), (0, 9), (4, 6), (0, 3))
        if transpose:
            points = tuple((y, x) for x, y in points)
        assert not ring_is_simple(PolygonAnnotation(points).exterior)

    def test_fold_back_is_not_simple(self):
        # zero-area ring that doubles back along its previous segment; all
        # three segments are pairwise adjacent, so no pair test sees it
        assert not ring_is_simple(PolygonAnnotation(((0, 0), (2, 0), (1, 0))).exterior)

    def test_straight_continuation_is_simple(self):
        ring = PolygonAnnotation(((0, 0), (1, 0), (2, 0), (1, 1))).exterior
        assert ring_is_simple(ring)

    @given(
        st.lists(
            st.tuples(st.integers(0, 4), st.integers(0, 4)), min_size=3, max_size=12
        )
    )
    @settings(max_examples=500)
    def test_matches_oracle_on_lattice_rings(self, points):
        try:
            ring = PolygonAnnotation(points).exterior
        except ValueError:
            assume(False)  # fewer than three distinct vertices
        expected = ring_is_simple_oracle(ring) and not ring_folds_back_oracle(ring)
        assert ring_is_simple(ring) == expected

    @pytest.mark.parametrize("quarter_turns", [0, 1, 2, 3])
    def test_matches_oracle_on_rotated_comb(self, quarter_turns):
        grid = np.rot90(_comb_grid(teeth=64, tooth_max=12, seed=5), quarter_turns)
        ring = _comb_ring(grid)
        assert len(ring) == 4 * 64 + 1
        assert ring_is_simple(ring) and ring_is_simple_oracle(ring)
        # moving one vertex to a random lattice point mostly breaks the ring
        rng = np.random.default_rng(quarter_turns)
        h, w = grid.shape
        rejected = 0
        for _ in range(6):
            points = list(ring[:-1])
            k = int(rng.integers(len(points)))
            points[k] = (float(rng.integers(w + 1)), float(rng.integers(h + 1)))
            moved = PolygonAnnotation(points).exterior
            expected = ring_is_simple_oracle(moved) and not ring_folds_back_oracle(
                moved
            )
            assert ring_is_simple(moved) == expected, f"vertex {k}"
            rejected += not expected
        assert rejected > 0

    def test_twenty_thousand_vertex_comb_is_fast(self):
        # the all-pairs test takes minutes on this ring
        ring = _comb_ring(_comb_grid(teeth=5000, tooth_max=8, seed=7))
        assert len(ring) == 20_001
        start = time.perf_counter()
        assert ring_is_simple(ring)
        assert time.perf_counter() - start < 5.0

    def test_twenty_thousand_vertex_comb_turned_a_quarter_is_fast(self):
        # a vertical spine with horizontal teeth: every tooth on one side
        # starts at the spine's x, so an x-sweep keeps them all active
        grid = np.rot90(_comb_grid(teeth=5000, tooth_max=8, seed=7))
        ring = _comb_ring(grid)
        assert len(ring) == 20_001
        start = time.perf_counter()
        assert ring_is_simple(ring)
        assert time.perf_counter() - start < 1.0


def _comb_grid(teeth: int, tooth_max: int, seed: int) -> np.ndarray:
    """A one-pixel spine across the grid with one-pixel teeth, one pixel
    apart, rising and falling from it with seeded lengths in [1, tooth_max]:
    a single component whose ring has four vertices per tooth."""
    rng = np.random.default_rng(seed)
    grid = np.zeros((2 * tooth_max + 1, teeth), dtype=np.float32)
    grid[tooth_max] = 1
    up = rng.integers(1, tooth_max + 1, teeth // 2)
    down = rng.integers(1, tooth_max + 1, teeth // 2)
    for k in range(teeth // 2):
        grid[tooth_max - up[k] : tooth_max, 2 * k] = 1
        grid[tooth_max + 1 : tooth_max + 1 + down[k], 2 * k] = 1
    return grid


def _comb_ring(grid: np.ndarray):
    raster = Raster(
        grid[None],
        GeoTransform(0.0, float(grid.shape[0]), 1.0, 1.0),
        nodata=None,
    )
    labels, _ = connected_components(raster, connectivity=8)
    (detection,) = polygonize(labels, raster.transform)
    (poly,) = detection.polygons
    return poly.exterior


def _polygon_ring(n: int, radius: float = 50.0):
    """A convex, hence simple, closed ring of n lattice vertices."""
    angles = np.linspace(0.0, 2 * np.pi, n, endpoint=False)
    pts = [(float(round(radius * np.cos(a))), float(round(radius * np.sin(a)))) for a in angles]
    return PolygonAnnotation(pts).exterior


def _crossed(ring):
    """The ring with its second and third vertices swapped: two of its
    segments now cross."""
    pts = list(ring[:-1])
    pts[1], pts[2] = pts[2], pts[1]
    return PolygonAnnotation(pts).exterior


def _oracle_bad(ring) -> bool:
    return not all(map(math.isfinite, (c for v in ring for c in v))) or not (
        ring_is_simple_oracle(ring) and not ring_folds_back_oracle(ring)
    )


class TestBatchedRingValidation:
    @given(
        st.lists(
            st.lists(
                st.tuples(st.integers(0, 6), st.integers(0, 6)), min_size=3, max_size=20
            ),
            min_size=1,
            max_size=6,
        )
    )
    @settings(max_examples=300)
    def test_first_bad_ring_matches_oracles(self, point_lists):
        rings = []
        for points in point_lists:
            try:
                rings.append(PolygonAnnotation(points).exterior)
            except ValueError:
                pass  # fewer than three distinct vertices
        assume(rings)
        bad = [_oracle_bad(r) for r in rings]
        assert _first_bad_ring(rings) == (bad.index(True) if True in bad else None)
        for ring, expected in zip(rings, bad):
            n = len(ring) - 1
            if n <= _BATCH_SEGMENTS:
                assert bool(_short_ring_defects(np.array([ring]))[0]) == expected

    @pytest.mark.parametrize("segments", [_BATCH_SEGMENTS, _BATCH_SEGMENTS + 1])
    def test_rings_at_and_past_the_cutoff(self, segments, monkeypatch):
        calls = []
        sweep = geodata.ring_is_simple
        monkeypatch.setattr(geodata, "ring_is_simple", lambda r: calls.append(r) or sweep(r))
        good = _polygon_ring(segments)
        crossed = _crossed(good)
        assert len(good) == len(crossed) == segments + 1
        assert ring_is_simple_oracle(good) and not ring_is_simple_oracle(crossed)
        assert _first_bad_ring([good, good]) is None
        assert _first_bad_ring([good, crossed, good]) == 1
        # only rings past the cutoff go through the sweep
        assert len(calls) == (0 if segments <= _BATCH_SEGMENTS else 4)

    def test_mixed_lengths_report_the_first_in_order(self):
        short, long = _polygon_ring(4), _polygon_ring(_BATCH_SEGMENTS + 4)
        bad_short, bad_long = _crossed(short), _crossed(long)
        assert _first_bad_ring([short, long, bad_short, bad_long]) == 2
        assert _first_bad_ring([short, bad_long, long, bad_short]) == 1
        # a later segment count's batch starts before the first bad ring
        six = _polygon_ring(6)
        assert _first_bad_ring([six, bad_short, short, _crossed(six)]) == 1
        inf_ring = PolygonAnnotation(((0, 0), (math.inf, 0), (1, 1))).exterior
        assert _first_bad_ring([long, inf_ring, bad_long]) == 1

    def test_fold_back_and_touching_vertex(self):
        # a three-segment fold-back, and a vertex resting on a far segment
        fold = PolygonAnnotation(((0, 0), (2, 0), (1, 0))).exterior
        touch = PolygonAnnotation(((0, 0), (4, 0), (4, 4), (2, 0), (0, 4))).exterior
        assert list(_short_ring_defects(np.array([fold]))) == [True]
        assert list(_short_ring_defects(np.array([touch]))) == [True]
        assert list(_short_ring_defects(np.array([UNIT_SQUARE + (UNIT_SQUARE[0],)]))) == [False]


class TestAnnotationIO:
    def _write_doc(self, path, doc):
        path.write_text(json.dumps(doc))
        return path

    def test_round_trip(self, tmp_path):
        polys = [
            PolygonAnnotation(UNIT_SQUARE, label="dump"),
            PolygonAnnotation(
                ((10, 10), (20, 10), (20, 20), (10, 20)),
                (((12, 12), (14, 12), (14, 14), (12, 14)),),
                label="legacy",
            ),
        ]
        out = tmp_path / "ann.geojson"
        write_annotations(polys, out)
        loaded = read_annotations(out)
        assert len(loaded) == 2
        assert loaded[0].exterior == polys[0].exterior
        assert loaded[1].holes == polys[1].holes
        assert loaded[1].label == "legacy"

    def test_multipolygon_is_split(self, tmp_path):
        doc = {
            "type": "FeatureCollection",
            "features": [
                {
                    "type": "Feature",
                    "geometry": {
                        "type": "MultiPolygon",
                        "coordinates": [
                            [[[0, 0], [1, 0], [1, 1], [0, 1], [0, 0]]],
                            [[[5, 5], [6, 5], [6, 6], [5, 6], [5, 5]]],
                        ],
                    },
                    "properties": {"label": "dump"},
                }
            ],
        }
        path = self._write_doc(tmp_path / "mp.geojson", doc)
        loaded = read_annotations(path)
        assert len(loaded) == 2
        assert all(p.label == "dump" for p in loaded)

    def test_non_polygon_features_warn_once(self, tmp_path):
        doc = {
            "type": "FeatureCollection",
            "features": [
                {
                    "type": "Feature",
                    "geometry": {"type": "Point", "coordinates": [0, 0]},
                    "properties": {},
                },
                {
                    "type": "Feature",
                    "geometry": {
                        "type": "LineString",
                        "coordinates": [[0, 0], [1, 1]],
                    },
                    "properties": {},
                },
                {
                    "type": "Feature",
                    "geometry": {
                        "type": "Polygon",
                        "coordinates": [[[0, 0], [1, 0], [1, 1], [0, 1], [0, 0]]],
                    },
                    "properties": {},
                },
            ],
        }
        path = self._write_doc(tmp_path / "mixed.geojson", doc)
        with pytest.warns(UserWarning, match="2 non-polygon"):
            loaded = read_annotations(path)
        assert len(loaded) == 1

    def test_self_intersection_rejected(self, tmp_path):
        doc = {
            "type": "FeatureCollection",
            "features": [
                {
                    "type": "Feature",
                    "geometry": {
                        "type": "Polygon",
                        "coordinates": [[[0, 0], [2, 2], [2, 0], [0, 2], [0, 0]]],
                    },
                    "properties": {},
                }
            ],
        }
        path = self._write_doc(tmp_path / "bowtie.geojson", doc)
        with pytest.raises(ValueError, match="self-intersecting"):
            read_annotations(path)

    def test_rejection_names_ring_and_segments(self, tmp_path):
        square = [[0, 0], [4, 0], [4, 4], [0, 4], [0, 0]]
        good_hole = [[0.5, 0.5], [1, 0.5], [1, 1], [0.5, 1], [0.5, 0.5]]
        bowtie_hole = [[2, 2], [3, 3], [3, 2], [2, 3], [2, 2]]

        def read(geometry):
            valid = {"type": "Polygon", "coordinates": [square]}
            features = [
                {"type": "Feature", "geometry": g, "properties": {}}
                for g in (valid, geometry)
            ]
            doc = {"type": "FeatureCollection", "features": features}
            read_annotations(self._write_doc(tmp_path / "a.geojson", doc))

        with pytest.raises(
            ValueError,
            match=r"self-intersecting ring in a\.geojson feature 1, hole 1: "
            r"segments 0 and 2 touch",
        ):
            read({"type": "Polygon", "coordinates": [square, good_hole, bowtie_hole]})
        with pytest.raises(
            ValueError,
            match=r"self-intersecting ring in a\.geojson feature 1 part 1, "
            r"exterior: folds back at vertex 0",
        ):
            read(
                {
                    "type": "MultiPolygon",
                    "coordinates": [[square], [[[0, 0], [2, 0], [1, 0], [0, 0]]]],
                }
            )

    def test_non_finite_vertex_rejected(self, tmp_path):
        square = [[0, 0], [4, 0], [4, 4], [0, 4], [0, 0]]
        # json reads an out-of-range literal such as 1e400 as inf
        hole = '[[1, 1], [2, 1], [2, -1e400], [1, 1]]'
        path = tmp_path / "inf.geojson"
        path.write_text(
            '{"type": "FeatureCollection", "features": [{"type": "Feature", '
            f'"geometry": {{"type": "Polygon", "coordinates": [{square}, {hole}]}}, '
            '"properties": {}}]}'
        )
        with pytest.raises(
            ValueError,
            match=r"non-finite vertex in inf\.geojson feature 0, hole 0: vertex 2 ",
        ):
            read_annotations(path)

    def _polygons_doc(self, path, rings):
        features = [
            {"type": "Feature", "geometry": {"type": "Polygon", "coordinates": [r]}, "properties": {}}
            for r in rings
        ]
        return self._write_doc(path, {"type": "FeatureCollection", "features": features})

    def test_first_bad_ring_in_file_order_is_reported(self, tmp_path):
        short, long = _polygon_ring(4), _polygon_ring(_BATCH_SEGMENTS + 4)
        bowtie = [[0, 0], [2, 2], [2, 0], [0, 2], [0, 0]]
        path = self._polygons_doc(tmp_path / "a.geojson", [short, bowtie, long, _crossed(long)])
        with pytest.raises(
            ValueError,
            match=r"^self-intersecting ring in a\.geojson feature 1, exterior: "
            r"segments 0 and 2 touch$",
        ):
            read_annotations(path)
        path = self._polygons_doc(tmp_path / "b.geojson", [short, _crossed(long), bowtie])
        with pytest.raises(
            ValueError, match=r"^self-intersecting ring in b\.geojson feature 1, exterior: "
        ):
            read_annotations(path)

    def test_bad_ring_before_a_malformed_feature_comes_first(self, tmp_path):
        bowtie = [[0, 0], [2, 2], [2, 0], [0, 2], [0, 0]]
        two_vertices = [[0, 0], [1, 1], [0, 0]]
        path = self._polygons_doc(tmp_path / "a.geojson", [bowtie, two_vertices])
        with pytest.raises(ValueError, match="self-intersecting ring in a.geojson feature 0"):
            read_annotations(path)
        path = self._polygons_doc(tmp_path / "b.geojson", [two_vertices, bowtie])
        with pytest.raises(ValueError, match="ring needs >= 3 distinct vertices"):
            read_annotations(path)

    def test_huge_integer_vertex_rejected(self, tmp_path):
        # float() overflows on it; it counts as infinite, like 1e400
        path = tmp_path / "big.geojson"
        path.write_text(
            '{"type": "FeatureCollection", "features": [{"type": "Feature", '
            '"geometry": {"type": "Polygon", "coordinates": '
            f'[[[0, 0], [-1{"0" * 400}, 0], [1, 1], [0, 0]]]}}, "properties": {{}}}}]}}'
        )
        with pytest.raises(
            ValueError,
            match=r"non-finite vertex in big\.geojson feature 0, exterior: vertex 1 is \[-1000",
        ):
            read_annotations(path)
        assert PolygonAnnotation(((0, 0), (10**400, 0), (1, 1))).exterior[1] == (math.inf, 0.0)

    def test_json_reader_restores_the_garbage_collector(self, tmp_path):
        import gc

        from dumpwatch._fileio import read_json

        good = self._write_doc(tmp_path / "good.json", {"a": [1, 2]})
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        assert gc.isenabled()
        assert read_json(good) == {"a": [1, 2]}
        with pytest.raises(ValueError, match="invalid JSON"):
            read_json(bad)
        assert gc.isenabled()
        gc.disable()
        try:
            read_json(good)
            assert not gc.isenabled()  # a caller's choice is left alone
        finally:
            gc.enable()

    def test_nan_literal_rejected(self, tmp_path):
        path = tmp_path / "nan.geojson"
        path.write_text(
            '{"type": "FeatureCollection", "features": [{"type": "Feature", '
            '"geometry": {"type": "Polygon", "coordinates": '
            '[[[0, 0], [NaN, 0], [1, 1], [0, 0]]]}, "properties": {}}]}'
        )
        with pytest.raises(ValueError, match=r"invalid JSON in .*nan\.geojson: .*NaN"):
            read_annotations(path)

    def test_rejects_non_feature_collection(self, tmp_path):
        path = self._write_doc(tmp_path / "bad.geojson", {"type": "Polygon"})
        with pytest.raises(ValueError, match="FeatureCollection"):
            read_annotations(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_annotations(tmp_path / "absent.geojson")

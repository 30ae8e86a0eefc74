import json
import math
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dumpwatch import geodata
from dumpwatch.detect import connected_components, export_geojson, polygonize
from dumpwatch.geodata import (
    GeoTransform,
    Raster,
    RasterReader,
    pixel_to_world,
    raster_writer,
    read_annotations,
    read_raster,
    ring_is_simple,
    shift_transform,
    write_annotations,
    write_raster,
)
from oracles import (
    polygon_columns,
    rasters_equal,
    ring_folds_back_oracle,
    ring_is_simple_oracle,
    write_annotations_oracle,
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
        # a string holding every key name passes a membership test
        (tmp_path / "scene.json").write_text(json.dumps(" ".join(header)))
        with pytest.raises(ValueError, match=r"scene\.json: expected object, got \"format format_version "):
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

    def test_padded_payload_reports_mismatch_on_open(self, tmp_path):
        base = tmp_path / "scene"
        write_raster(self._sample(), base)
        with open(tmp_path / "scene.bin", "ab") as fh:
            fh.write(b"\0" * 4)
        with pytest.raises(ValueError, match="band/sample mismatch in .*scene.bin"):
            RasterReader(base)

    @pytest.mark.parametrize("value", [0, -5, 4.0, "4", True, None])
    def test_rejects_dims_that_are_not_positive_integers(self, tmp_path, value):
        base = tmp_path / "scene"
        write_raster(self._sample(), base)
        header = json.loads((tmp_path / "scene.json").read_text())
        header["width"] = value
        (tmp_path / "scene.json").write_text(json.dumps(header))
        with pytest.raises(ValueError, match=r"scene\.json: width: (must be in \[1, 2\*\*31\)|expected integer), got "):
            read_raster(base)

    def test_rejects_band_names_that_miscount_the_bands(self, tmp_path):
        base = tmp_path / "scene"
        write_raster(self._sample(), base)
        header = json.loads((tmp_path / "scene.json").read_text())
        header["band_names"] = ["R", "G"]
        (tmp_path / "scene.json").write_text(json.dumps(header))
        with pytest.raises(ValueError, match="2 band names for 3 bands"):
            read_raster(base)

    TRANSFORM = {"origin_x": 1200.0, "origin_y": 88000.0, "pixel_width": 10.0, "pixel_height": 10.0}

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("transform", list(TRANSFORM.values()), r"transform: expected object, got \[1200\.0, "),
            ("transform", {**TRANSFORM, "origin_x": None}, "transform.origin_x: expected finite number, got null"),
            ("transform", {**TRANSFORM, "pixel_width": "10"}, 'transform.pixel_width: expected finite number, got "10"'),
            ("transform", {**TRANSFORM, "origin_x": 10**400}, "transform.origin_x: expected finite number, got 1000"),
            ("transform", {**TRANSFORM, "pixel_height": 0}, "transform.pixel_height: must be > 0, got 0"),
            ("nodata", "abc", 'nodata: expected finite number or "nan" or null, got "abc"'),
            ("nodata", True, "nodata: expected .*, got true"),
            ("band_names", 5, "band_names: expected list of strings or null, got 5"),
            ("band_names", ["R", 2, "B"], r"band_names\[1\]: expected string, got 2"),
            ("format", "something-else", 'format: expected "dumpwatch.raster", got "something-else"'),
            ("format_version", 99, "format_version: expected 1, got 99"),
            ("dtype", "float64", 'dtype: expected "float32", got "float64"'),
        ],
        ids=[
            "transform-list", "origin-null", "pixel-width-string", "origin-huge-integer",
            "zero-pixel-height", "nodata-string", "nodata-boolean", "band-names-number",
            "band-name-number", "format", "format-version", "dtype",
        ],
    )
    def test_header_faults_name_the_header_file(self, tmp_path, key, value, message):
        base = tmp_path / "scene"
        write_raster(self._sample(), base)
        header = json.loads((tmp_path / "scene.json").read_text())
        header[key] = value
        (tmp_path / "scene.json").write_text(json.dumps(header))
        with pytest.raises(ValueError, match=f"^{tmp_path}/scene\\.json: {message}"):
            read_raster(base)

    def test_short_read_raises_instead_of_leaving_rows_unfilled(self, tmp_path):
        base = tmp_path / "scene"
        r = self._sample()
        write_raster(r, base)
        with RasterReader(base) as src:
            assert src.read_rows(1, 3).tobytes() == r.samples[:, 1:3].tobytes()
            # the file shrinks after the open-time length check
            with open(tmp_path / "scene.bin", "r+b") as fh:
                fh.truncate(3 * 5 * 4 * 4 - 4)
            assert src.read_rows(0, 2).tobytes() == r.samples[:, 0:2].tobytes()
            with pytest.raises(ValueError, match="short read in .*scene.bin: band 2 rows 3:5"):
                src.read_rows(3, 5)

    def test_read_rows_bounds(self, tmp_path):
        write_raster(self._sample(), tmp_path / "scene")
        with RasterReader(tmp_path / "scene") as src:
            for r0, r1 in ((-1, 2), (2, 2), (3, 6)):
                with pytest.raises(ValueError, match="outside a raster of height 5"):
                    src.read_rows(r0, r1)

    def test_rows_written_in_pieces_match_write_raster(self, tmp_path):
        r = self._sample()
        write_raster(r, tmp_path / "whole")
        with raster_writer(
            tmp_path / "pieces", 3, 5, 4, r.transform, r.nodata, r.band_names
        ) as write_rows:
            for r0, r1 in ((0, 2), (2, 3), (3, 5)):
                write_rows(r.samples[:, r0:r1])
        for suffix in (".bin", ".json"):
            assert (tmp_path / f"pieces{suffix}").read_bytes() == (
                tmp_path / f"whole{suffix}"
            ).read_bytes()

    def test_unfinished_writer_leaves_no_file(self, tmp_path):
        r = self._sample()
        write_raster(r, tmp_path / "old")
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        with pytest.raises(ValueError, match="4 of 5 rows written"):
            with raster_writer(tmp_path / "old", 3, 5, 4, r.transform) as write_rows:
                write_rows(r.samples[:, :4])
        with pytest.raises(ValueError, match="6 rows for a raster of height 5"):
            with raster_writer(tmp_path / "old", 3, 5, 4, r.transform) as write_rows:
                write_rows(r.samples[:, :4])
                write_rows(r.samples[:, :2])
        with pytest.raises(ValueError, match=r"rows of shape \(3, 4\) for a 3-band, 4 px wide raster"):
            with raster_writer(tmp_path / "old", 3, 5, 4, r.transform) as write_rows:
                write_rows(r.samples[:, 0])
        with pytest.raises(KeyError):
            with raster_writer(tmp_path / "new", 3, 5, 4, r.transform) as write_rows:
                write_rows(r.samples[:, :1])
                raise KeyError("stop")
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_io_makes_no_payload_copy(self, tmp_path):
        r = Raster(np.ones((4, 512, 512), np.float32), GeoTransform(0.0, 512.0, 1.0, 1.0))
        payload = r.samples.nbytes
        tracemalloc.start()
        try:
            write_raster(r, tmp_path / "scene")
            written_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            back = read_raster(tmp_path / "scene")
            read_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert written_peak < payload / 8
        assert payload <= read_peak < 1.125 * payload
        assert rasters_equal(back, r)

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


def _ring(points):
    """``points`` as the one closed ring of a polygon built as columns."""
    return polygon_columns([[points]]).rings()[0]


class TestRingNormalization:
    """Rings are normalized as they become columns (``_normalized``): by the
    annotation reader and the synthetic generator."""

    def test_ring_closure_is_normalized(self):
        open_ring = _ring(UNIT_SQUARE)
        closed_ring = _ring((*UNIT_SQUARE, UNIT_SQUARE[0]))
        assert open_ring == closed_ring
        assert open_ring[0] == open_ring[-1]

    def test_consecutive_duplicates_dropped(self):
        ring = ((0, 0), (0, 0), (1, 0), (1, 1), (1, 1), (0, 1))
        assert len(_ring(ring)) == 5  # 4 distinct + repeated closure

    def test_degenerate_ring_rejected(self, tmp_path):
        def read(ring):
            feature = {"type": "Feature", "geometry": {"type": "Polygon", "coordinates": [ring]}}
            path = tmp_path / "ring.geojson"
            path.write_text(json.dumps({"type": "FeatureCollection", "features": [feature]}))
            return read_annotations(path)

        with pytest.raises(ValueError, match="3 distinct"):
            read([[0, 0], [1, 1]])
        with pytest.raises(ValueError, match="3 distinct"):
            read([[0, 0], [0, 0], [1, 1]])
        # alternating repeats survive normalization but fail the simplicity check
        zigzag = ((0, 0), (1, 1), (0, 0), (1, 1))
        assert not ring_is_simple(_ring(zigzag))
        with pytest.raises(ValueError, match="self-intersecting"):
            read([list(v) for v in zigzag])


class TestRingSimplicity:
    def test_square_is_simple(self):
        assert ring_is_simple(_ring(UNIT_SQUARE))

    def test_bowtie_is_not_simple(self):
        bowtie = _ring(((0, 0), (2, 2), (2, 0), (0, 2)))
        assert not ring_is_simple(bowtie)

    def test_spike_touching_edge_is_not_simple(self):
        # vertex 4 lands on the segment from vertex 0 to vertex 1
        ring = _ring(
            ((0, 0), (4, 0), (4, 4), (2, 4), (2, 0), (1, 3))
        )
        assert not ring_is_simple(ring)

    @pytest.mark.parametrize("transpose", [False, True])
    def test_spike_touching_edge_at_its_extreme_is_not_simple(self, transpose):
        # vertex 5 lands on the segment from vertex 1 to vertex 2, and only
        # there: the touching pairs meet at the edge of their x-ranges
        points = ((0, 0), (4, 0), (4, 4), (0, 4), (0, 3), (4, 2), (0, 1))
        if transpose:
            points = tuple((y, x) for x, y in points)
        assert not ring_is_simple(_ring(points))

    @pytest.mark.parametrize("transpose", [False, True])
    def test_spike_touching_edge_at_its_sweep_extreme_is_not_simple(self, transpose):
        # the ring above stretched to three times its height, so the sweep
        # runs along x (the axis the segments cover less of) and the
        # touching pairs meet at the edge of their ranges on that axis;
        # transposed, the same happens along y
        points = ((0, 0), (4, 0), (4, 12), (0, 12), (0, 9), (4, 6), (0, 3))
        if transpose:
            points = tuple((y, x) for x, y in points)
        assert not ring_is_simple(_ring(points))

    def test_fold_back_is_not_simple(self):
        # zero-area ring that doubles back along its previous segment; all
        # three segments are pairwise adjacent, so no pair test sees it
        assert not ring_is_simple(_ring(((0, 0), (2, 0), (1, 0))))

    def test_fold_back_oracle_rounds_as_the_validator(self):
        # on the lattice this ring folds back at vertex 4; scaled by 3.7 the
        # turn there is no longer exactly collinear in floats, as long as
        # it is computed as (b - a) x (c - a) (the other grouping, (b - a)
        # x (c - b), still rounds to zero)
        points = ((0, 1), (-2, -1), (-3, 1), (-6, 6), (6, -4))
        lattice = _ring(points)
        assert ring_folds_back_oracle(lattice) and not ring_is_simple(lattice)
        scaled = _ring(tuple((3.7 * x, 3.7 * y) for x, y in points))
        expected = ring_is_simple_oracle(scaled) and not ring_folds_back_oracle(scaled)
        assert ring_is_simple(scaled) == expected

    def test_straight_continuation_is_simple(self):
        ring = _ring(((0, 0), (1, 0), (2, 0), (1, 1)))
        assert ring_is_simple(ring)

    @given(
        st.lists(
            st.tuples(st.integers(0, 4), st.integers(0, 4)), min_size=3, max_size=12
        )
    )
    @settings(max_examples=500)
    def test_matches_oracle_on_lattice_rings(self, points):
        try:
            ring = _ring(points)
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
            moved = _ring(points)
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
    (exterior,) = polygonize(labels, raster.transform).polygons.rings()
    return exterior


def _polygon_ring(n: int, radius: float = 50.0):
    """A convex, hence simple, closed ring of n lattice vertices."""
    angles = np.linspace(0.0, 2 * np.pi, n, endpoint=False)
    pts = [(float(round(radius * np.cos(a))), float(round(radius * np.sin(a)))) for a in angles]
    return _ring(pts)


def _crossed(ring):
    """The ring with its second and third vertices swapped: two of its
    segments now cross."""
    pts = list(ring[:-1])
    pts[1], pts[2] = pts[2], pts[1]
    return _ring(pts)


def _oracle_bad(ring) -> bool:
    return not all(map(math.isfinite, (c for v in ring for c in v))) or not (
        ring_is_simple_oracle(ring) and not ring_folds_back_oracle(ring)
    )


def _first_bad_ring(rings):
    """``geodata._first_bad_ring`` on closed rings, given as columns of open
    rings."""
    open_rings = [np.array(ring[:-1], np.float64).reshape(-1, 2) for ring in rings]
    x, y = np.concatenate(open_rings).T
    offsets = np.cumsum([0, *map(len, open_rings)])
    return geodata._first_bad_ring(x, y, offsets)


def _first_bad(rings):
    found = _first_bad_ring(rings)
    return None if found is None else found[0]


class TestBatchedRingValidation:
    @given(
        st.lists(
            st.lists(
                st.tuples(st.integers(0, 6), st.integers(0, 6)), min_size=3, max_size=40
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
                rings.append(_ring(points))
            except ValueError:
                pass  # fewer than three distinct vertices
        assume(rings)
        bad = [_oracle_bad(r) for r in rings]
        assert _first_bad(rings) == (bad.index(True) if True in bad else None)
        for ring, expected in zip(rings, bad):
            assert ring_is_simple(ring) == (not expected)

    @pytest.mark.parametrize("segments", [16, 17])
    def test_rings_at_and_past_the_cutoff(self, segments):
        # 16 segments was once the longest ring checked in batches
        good = _polygon_ring(segments)
        crossed = _crossed(good)
        assert len(good) == len(crossed) == segments + 1
        assert ring_is_simple_oracle(good) and not ring_is_simple_oracle(crossed)
        assert _first_bad([good, good]) is None
        assert _first_bad_ring([good, crossed, good]) == (1, "segments 0 and 2 touch")

    def test_mixed_lengths_report_the_first_in_order(self):
        short, long = _polygon_ring(4), _polygon_ring(20)
        bad_short, bad_long = _crossed(short), _crossed(long)
        assert _first_bad([short, long, bad_short, bad_long]) == 2
        assert _first_bad([short, bad_long, long, bad_short]) == 1
        six = _polygon_ring(6)
        assert _first_bad([six, bad_short, short, _crossed(six)]) == 1
        inf_ring = _ring(((0, 0), (math.inf, 0), (1, 1)))
        assert _first_bad_ring([long, inf_ring, bad_long]) == (1, "non-finite vertex")

    def test_fold_back_and_touching_vertex(self):
        # a three-segment fold-back, and a vertex resting on a far segment
        fold = _ring(((0, 0), (2, 0), (1, 0)))
        touch = _ring(((0, 0), (4, 0), (4, 4), (2, 0), (0, 4)))
        assert _first_bad_ring([fold]) == (0, "folds back at vertex 0")
        assert _first_bad_ring([touch]) == (0, "segments 0 and 2 touch")
        assert _first_bad_ring([UNIT_SQUARE + (UNIT_SQUARE[0],)]) is None

    def test_two_defects_name_the_least_pair(self):
        # segment 0 runs along y = 0 and is crossed by the vertical segments
        # 3 (x = 4) and 5 (x = 2); a sweep along x, the axis this tall ring
        # covers less of, meets the pair (0, 5) first
        points = ((0, 0), (6, 0), (6, 1), (4, 1), (4, -9), (2, -9), (2, 9), (0, 9))
        ring = _ring(points)
        assert not ring_is_simple_oracle(ring) and not ring_folds_back_oracle(ring)
        square = UNIT_SQUARE + (UNIT_SQUARE[0],)
        assert _first_bad_ring([square, ring]) == (1, "segments 0 and 3 touch")
        # a fold-back is named before any touching pair: vertex 3 turns back
        # along segment 2, and segment 4 then overlaps segment 2
        folded = _ring(((0, 0), (4, 0), (4, 4), (1, 4), (3, 4), (0, 4)))
        assert _first_bad_ring([folded]) == (0, "folds back at vertex 3")

    def test_first_bad_ring_past_the_first_block(self):
        # rings are checked in blocks of about _CHUNK segments; a ring
        # longer than that gets a block of its own
        square = UNIT_SQUARE + (UNIT_SQUARE[0],)
        comb = _comb_ring(_comb_grid(teeth=5000, tooth_max=8, seed=7))
        squares = [square] * (geodata._CHUNK // 4 + 3)
        bowtie = _ring(((0, 0), (2, 2), (2, 0), (0, 2)))
        n = len(squares)
        assert _first_bad(squares + [comb] + squares) is None
        assert _first_bad_ring(squares + [comb, bowtie]) == (n + 1, "segments 0 and 2 touch")
        assert _first_bad(squares + [bowtie, comb, bowtie]) == n
        assert _first_bad([bowtie] + squares) == 0

    def test_small_blocks_and_pair_chunks_give_the_same_verdicts(self, monkeypatch):
        rng = np.random.default_rng(3)
        lists = []
        for _ in range(150):
            rings = []
            for _ in range(rng.integers(1, 6)):
                points = rng.integers(0, 7, (rng.integers(3, 41), 2)).tolist()
                try:
                    rings.append(_ring(points))
                except ValueError:
                    pass
            lists.append(rings)
        good = [r for rings in lists for r in rings if not _oracle_bad(r)]
        bad = next(r for rings in lists for r in rings if _oracle_bad(r))
        expected = [_first_bad_ring(rings) for rings in lists]
        assert _first_bad(good + [bad]) == len(good)
        monkeypatch.setattr(geodata, "_CHUNK", 3)
        assert [_first_bad_ring(rings) for rings in lists] == expected
        assert _first_bad(good + [bad]) == len(good)

    def test_many_thousand_segment_spiral_is_fast(self):
        # one square-spiral component, 4-connected: a ring of 3 004 segments
        # whose arms nest, so most segments' ranges along either axis hold
        # those of every arm inside them
        size = 1501
        grid = np.zeros((size, size), dtype=np.float32)
        lo, hi = 0, size - 1
        while hi - lo >= 4:
            grid[lo, lo : hi + 1] = 1
            grid[lo : hi + 1, hi] = 1
            grid[hi, lo : hi + 1] = 1
            grid[lo + 2 : hi + 1, lo] = 1
            grid[lo + 2, lo : lo + 3] = 1
            lo, hi = lo + 2, hi - 2
        raster = Raster(grid[None], GeoTransform(0.0, float(size), 1.0, 1.0), nodata=None)
        labels, _ = connected_components(raster, connectivity=4)
        (exterior,) = polygonize(labels, raster.transform).polygons.rings()
        assert len(exterior) == 3005
        start = time.perf_counter()
        assert ring_is_simple(exterior)
        assert time.perf_counter() - start < 1.0


class TestAnnotationIO:
    def _write_doc(self, path, doc):
        path.write_text(json.dumps(doc))
        return path

    def test_round_trip(self, tmp_path):
        polys = polygon_columns(
            [
                [UNIT_SQUARE],
                [((10, 10), (20, 10), (20, 20), (10, 20)), ((12, 12), (14, 12), (14, 14), (12, 14))],
            ],
            ["dump", "legacy"],
        )
        out = tmp_path / "ann.geojson"
        write_annotations(polys, out)
        loaded = read_annotations(out)
        assert len(loaded) == 2
        assert loaded[0].rings()[0] == polys[0].rings()[0]
        assert loaded[1].rings()[1:] == polys[1].rings()[1:]
        assert loaded[1].labels == ["legacy"]

    def test_writes_the_bytes_of_the_dict_tree_writer(self, tmp_path):
        # holes, coordinates that are not round numbers, and labels that
        # json escapes: quotes, backslashes, non-ASCII and control characters
        polygons = polygon_columns(
            [
                [((10, 10), (20, 10), (20, 20), (10, 20)), ((12, 12), (14, 12), (14, 14), (12, 14))],
                [((-3.5, 2.25), (0.1, 0.2), (7.0 / 3.0, -1e-7)), ((0.0, 0.5), (0.2, 0.4), (0.1, 0.35))],
                [UNIT_SQUARE],
                [((1e17, -2e-300), (1e17 + 64, -2e-300), (1e17, 5.0))],
            ],
            ['say "dump"', "back\\slash", "décharge, 垃圾", "tab\tnewline\nbell\x07"],
        )
        for name, polys in (("labelled", polygons), ("empty", polygon_columns([]))):
            write_annotations(polys, tmp_path / f"{name}.geojson")
            write_annotations_oracle(polys, tmp_path / f"{name}.want.geojson")
            got = (tmp_path / f"{name}.geojson").read_bytes()
            assert got == (tmp_path / f"{name}.want.geojson").read_bytes(), name
        loaded = read_annotations(tmp_path / "labelled.geojson")
        assert loaded.labels == polygons.labels
        assert loaded.rings() == polygons.rings()

    def test_non_finite_coordinates_are_refused_naming_the_file(self, tmp_path):
        out = tmp_path / "ann.geojson"
        out.write_text("earlier")
        for bad in (math.inf, -math.inf, math.nan):
            polygons = polygon_columns([[UNIT_SQUARE], [((0, 0), (bad, 0), (1, 1))]])
            with pytest.raises(ValueError, match=r"ann\.geojson: non-finite coordinates"):
                write_annotations(polygons, out)
            assert out.read_text() == "earlier"
            assert [p.name for p in tmp_path.iterdir()] == ["ann.geojson"]

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
        assert loaded.labels == ["dump", "dump"]

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
        # a MultiPolygon's hole: the raw vertex is found from the feature and part
        hole = "[[1, 1], [2, 1], [2, 1e400], [1, 1]]"
        path.write_text(
            '{"type": "FeatureCollection", "features": [{"type": "Feature", '
            '"geometry": {"type": "MultiPolygon", "coordinates": '
            f'[[{square}], [{square}, {hole}]]}}, "properties": {{}}}}]}}'
        )
        with pytest.raises(
            ValueError,
            match=r"^non-finite vertex in inf\.geojson feature 0 part 1, hole 0: vertex 2 is \[2, inf\]$",
        ):
            read_annotations(path)

    def _polygons_doc(self, path, rings):
        features = [
            {"type": "Feature", "geometry": {"type": "Polygon", "coordinates": [r]}, "properties": {}}
            for r in rings
        ]
        return self._write_doc(path, {"type": "FeatureCollection", "features": features})

    def test_first_bad_ring_in_file_order_is_reported(self, tmp_path):
        short, long = _polygon_ring(4), _polygon_ring(20)
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
        with pytest.raises(
            ValueError,
            match=r"^invalid polygon in b\.geojson feature 0: ring needs >= 3 distinct vertices, got 2$",
        ):
            read_annotations(path)

    def test_malformed_coordinates_in_file_order(self, tmp_path):
        # float() takes "1" and true; they are rejected after the rings
        # before them are checked, like a feature that fails to parse
        bowtie = [[0, 0], [2, 2], [2, 0], [0, 2], [0, 0]]
        strings = [[0, 0], ["1", "0"], [1, 1], [0, 0]]
        path = self._polygons_doc(tmp_path / "a.geojson", [bowtie, strings])
        with pytest.raises(ValueError, match="self-intersecting ring in a.geojson feature 0"):
            read_annotations(path)
        path = self._polygons_doc(tmp_path / "b.geojson", [strings, bowtie, [[0, 0], [None, 1]]])
        with pytest.raises(
            ValueError,
            match=r'^malformed vertex in b\.geojson feature 0, exterior: vertex 1 is \["1", "0"\]',
        ):
            read_annotations(path)
        path = self._polygons_doc(tmp_path / "b.geojson", [{}])
        with pytest.raises(ValueError, match=r"^malformed ring in b\.geojson feature 0, exterior: \{\} is not a list"):
            read_annotations(path)
        path = self._polygons_doc(tmp_path / "c.geojson", [[[0, 0], [1, 0], [True, 1]]])
        with pytest.raises(ValueError, match=r"c\.geojson feature 0, exterior: vertex 2 is \[true, 1\]"):
            read_annotations(path)
        # a malformed part or feature comes after a bad ring before it, and
        # before a bad ring after it
        polygon = {"type": "Feature", "geometry": {"type": "Polygon", "coordinates": [bowtie]}, "properties": {}}
        empty = {**polygon, "geometry": {"type": "Polygon", "coordinates": []}}
        for bad, message in [
            (empty, r"malformed polygon in d\.geojson feature 0: coordinates are \[\], not a list of one or more rings"),
            (
                {**polygon, "geometry": {"type": "MultiPolygon", "coordinates": []}},
                r"malformed polygon in d\.geojson feature 0: coordinates are \[\], not a list of one or more polygons",
            ),
            ({**polygon, "properties": 5}, r"malformed feature in d\.geojson feature 0: geometry or properties not an object"),
        ]:
            path = self._write_doc(tmp_path / "d.geojson", {"type": "FeatureCollection", "features": [polygon, bad]})
            with pytest.raises(ValueError, match=r"self-intersecting ring in d\.geojson feature 0"):
                read_annotations(path)
            self._write_doc(path, {"type": "FeatureCollection", "features": [bad, polygon]})
            with pytest.raises(ValueError, match=f"^{message}$"):
                read_annotations(path)
        # within a part, a malformed vertex of the exterior precedes a hole that is not a ring
        strings_then_number = {**polygon, "geometry": {"type": "Polygon", "coordinates": [strings, 5]}}
        path = self._write_doc(tmp_path / "e.geojson", {"type": "FeatureCollection", "features": [strings_then_number]})
        with pytest.raises(ValueError, match=r"^malformed vertex in e\.geojson feature 0, exterior: vertex 1 "):
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
        assert _ring(((0, 0), (10**400, 0), (1, 1)))[1] == (math.inf, 0.0)

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
        path = self._write_doc(tmp_path / "bad.geojson", {"type": "FeatureCollection", "features": {}})
        with pytest.raises(ValueError, match=r"^malformed GeoJSON in bad\.geojson: features is not a list$"):
            read_annotations(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_annotations(tmp_path / "absent.geojson")


# ring replacements and the defect each one reports
_BAD_RINGS = {
    "bowtie": ([[0, 0], [2, 2], [2, 0], [0, 2], [0, 0]], "self-intersecting ring in {}: segments 0 and 2 touch"),
    "fold": ([[0, 0], [2, 0], [1, 0], [0, 0]], "self-intersecting ring in {}: folds back at vertex 0"),
    "number": (5, "malformed ring in {}: 5 is not a list of vertices"),
    "object": ({}, "malformed ring in {}: {{}} is not a list of vertices"),
}
_BAD_VERTICES = (["1", "0"], [True, 0], [None, 0], [1, 0, 0], "a", [1], {"x": 1}, 5)
_INF = 1.2345e300  # written as 1e400, which parses as inf


def _mutated_document(rng, name: str, stacked: bool = False):
    """A GeoJSON text of polygonized label-grid polygons, as Polygon and
    MultiPolygon features with labels and some Point features, with up to
    three faults in distinct features (``stacked``: anywhere, several in one
    part). Returns (text, the first fault's message or None, the polygons
    (rings, label) the file holds, the Point feature count); the
    message is None when ``stacked``, as is the count of faults."""
    grid = rng.integers(0, 3, size=rng.integers(2, 9, size=2))
    polygons = list(polygonize(grid, GeoTransform(-3.5, 2.25, 0.5, 0.75)).polygons)
    features, expected, i, points = [], [], 0, 0
    while i < len(polygons):
        if rng.random() < 0.1:
            features.append({"type": "Feature", "geometry": {"type": "Point", "coordinates": [0, 0]}})
            points += 1
        group = polygons[i : i + int(rng.integers(1, 4)) if rng.random() < 0.3 else i + 1]
        i += len(group)
        label = str(rng.choice(["dump", "site"]))
        coords = [[[list(v) for v in ring] for ring in p.rings()] for p in group]
        multi = len(group) > 1 or rng.random() < 0.2
        geometry = {"type": "MultiPolygon", "coordinates": coords} if multi else {"type": "Polygon", "coordinates": coords[0]}
        features.append({"type": "Feature", "geometry": geometry, "properties": {"label": label}})
        expected += [(p.rings(), label) for p in group]
    polygonal = [f for f, feat in enumerate(features) if feat["geometry"]["type"] != "Point"]
    faults = {}  # feature -> message
    for _ in range(int(rng.integers(0, 4)) if polygonal else 0):
        f = int(rng.choice(polygonal))
        if f in faults and not stacked:
            continue
        feature = features[f]
        if not isinstance(feature, dict) or not isinstance(feature.get("geometry"), dict):
            continue
        geometry = feature["geometry"]
        gtype, coords = geometry["type"], geometry.get("coordinates")
        kind = str(rng.choice([
            "feature", "geometry", "properties", "no-coordinates", "empty", "part",
            "ring", "ring", "vertex", "vertex", "short", "inf", "huge", "repeat", "repeat",
        ]))
        source = f"{name} feature {f}"
        if kind == "feature":
            features[f], message = "Feature", f"malformed feature in {source}: not an object"
        elif kind in ("geometry", "properties"):
            feature[kind] = 5 if kind == "geometry" else [1]
            message = f"malformed feature in {source}: geometry or properties not an object"
        elif not isinstance(coords, list) or not coords or not all(isinstance(c, list) and c for c in coords):
            continue  # an earlier fault here left no part to change
        elif kind == "no-coordinates":
            del geometry["coordinates"]
            message = f"malformed feature in {source}: no coordinates"
        elif kind == "empty":
            geometry["coordinates"] = []
            what = "rings" if gtype == "Polygon" else "polygons"
            message = f"malformed polygon in {source}: coordinates are [], not a list of one or more {what}"
        else:
            p = None if gtype == "Polygon" else int(rng.integers(len(coords)))
            rings = coords if p is None else coords[p]
            part = source if p is None else f"{source} part {p}"
            if kind == "part":
                if p is None:
                    continue
                coords[p] = bad = [7, []][int(rng.integers(2))]
                message = f"malformed polygon in {part}: coordinates are {json.dumps(bad)}, not a list of one or more rings"
                faults[f] = faults.get(f, message)
                continue
            r = int(rng.integers(len(rings)))
            where = part + (", exterior" if r == 0 else f", hole {r - 1}")
            ring = rings[r]
            if kind == "ring":
                bad, message = _BAD_RINGS[str(rng.choice(list(_BAD_RINGS)))]
                rings[r] = json.loads(json.dumps(bad))  # a copy that later faults may change
                message = message.format(where)
            elif kind == "short":
                rings[r] = [[0, 0], [1, 1], [0, 0]]
                message = f"invalid polygon in {part}: ring needs >= 3 distinct vertices, got 2"
            elif not isinstance(ring, list) or len(ring) < 3 or not all(isinstance(v, list) for v in ring):
                continue
            elif kind == "vertex":
                v = int(rng.integers(len(ring)))
                ring[v] = bad = json.loads(json.dumps(_BAD_VERTICES[int(rng.integers(len(_BAD_VERTICES)))]))
                message = f"malformed vertex in {where}: vertex {v} is {json.dumps(bad)}, not an [x, y] pair of numbers"
            elif kind in ("inf", "huge"):
                v, axis = int(rng.integers(1, len(ring) - 1)), int(rng.integers(2))
                if len(ring[v]) != 2:
                    continue
                ring[v] = vertex = list(ring[v])
                vertex[axis] = _INF if kind == "inf" else int(rng.choice([-1, 1])) * 10**400
                shown = [math.inf if c == _INF else c for c in vertex]
                message = f"non-finite vertex in {where}: vertex {v} is {shown}"
            else:  # repeat: normalized away
                v = int(rng.integers(len(ring)))
                ring.insert(v, ring[v])
                continue
        faults[f] = faults.get(f, message)
    text = json.dumps({"type": "FeatureCollection", "features": features}).replace(repr(_INF), "1e400")
    first = faults[min(faults)] if faults and not stacked else None
    return text, first, expected, points


class TestColumnarReader:
    def test_mutated_documents(self, tmp_path):
        # each document's faults sit in distinct features, so the first in
        # file order is the one reported; documents without one read back
        # the polygons written, repeats dropped
        rng = np.random.default_rng(2026)
        path = tmp_path / "m.geojson"
        outcomes = {"fault": 0, "read": 0}
        for trial in range(300):
            text, message, expected, points = _mutated_document(rng, path.name)
            path.write_text(text)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                try:
                    polygons = read_annotations(path)
                except ValueError as exc:
                    assert str(exc) == message, f"trial {trial}"
                    outcomes["fault"] += 1
                    continue
            assert message is None, f"trial {trial}: read, but expected {message}"
            assert [(p.rings(), *p.labels) for p in polygons] == expected, f"trial {trial}"
            assert [str(w.message) for w in caught] == (
                [f"skipped {points} non-polygon feature(s) in {path.name}"] if points else []
            ), f"trial {trial}"
            outcomes["read"] += 1
        assert min(outcomes.values()) > 50


def _outcome(path):
    """What ``read_annotations`` gives for ``path``: its columns and
    warnings, or its error's type and message."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            p = read_annotations(path)
        except ValueError as exc:
            return "error", str(exc)
    columns = (p.x.tobytes(), p.y.tobytes(), p.ring_offsets.tolist(), p.polygon_offsets.tolist(), p.labels)
    return columns, [str(w.message) for w in caught]


def _read_whole(path):
    """A stand-in for ``geodata._streamed_features`` that gives up at once,
    so that ``read_annotations`` parses the whole document."""
    raise ValueError("parse the whole document")
    yield


class TestStreamedGeoJSON:
    def _speckles(self):
        """Detections of 10^4 one-pixel components at UTM-like coordinates."""
        grid = np.zeros((200, 200), np.float32)
        grid[::2, ::2] = 1
        raster = Raster(grid[None], GeoTransform(500000.25, 4100000.75, 10.0, 10.0), nodata=None)
        labels, _ = connected_components(raster, connectivity=4)
        return polygonize(labels, raster.transform)

    def test_write_and_read_hold_a_slice_not_the_document(self, tmp_path):
        # joining the whole text took 5.9x the file's bytes and parsing the
        # whole document 7.9x
        detections = self._speckles()
        assert len(detections) == 10_000
        path = tmp_path / "detections.geojson"
        peaks = {}
        for name, step in (("write", lambda: export_geojson(detections, path)), ("read", lambda: read_annotations(path))):
            tracemalloc.start()
            try:
                step()
                peaks[name] = tracemalloc.get_traced_memory()[1] / path.stat().st_size
            finally:
                tracemalloc.stop()
        assert peaks["write"] < 2 and peaks["read"] < 4, peaks
        assert read_annotations(path).rings() == detections.polygons.rings()

    @pytest.mark.parametrize("slice_size", [1, 2, 3, 1024])
    def test_slices_join_to_the_dict_tree_writer_bytes(self, tmp_path, monkeypatch, slice_size):
        # seams between slices, a slice of one feature, a last slice that is
        # short or full, an empty document, and holes
        monkeypatch.setattr(geodata, "_SLICE", slice_size)
        rings = [[((10, 10), (20, 10), (20, 20), (10, 20)), ((12, 12), (14, 12), (14, 14), (12, 14))], [UNIT_SQUARE]]
        for count in (0, 1, 2, 3, 6, 7):
            polygons = polygon_columns([rings[k % 2] for k in range(count)], [f"site {k}" for k in range(count)])
            write_annotations(polygons, tmp_path / "got.geojson")
            write_annotations_oracle(polygons, tmp_path / "want.geojson")
            assert (tmp_path / "got.geojson").read_bytes() == (tmp_path / "want.geojson").read_bytes(), count
        many = polygon_columns([[UNIT_SQUARE]] * 2051, "dump")  # two full default slices and three over
        write_annotations(many, tmp_path / "got.geojson")
        write_annotations_oracle(many, tmp_path / "want.geojson")
        assert (tmp_path / "got.geojson").read_bytes() == (tmp_path / "want.geojson").read_bytes()

    def test_write_that_raises_after_its_first_slice_leaves_the_earlier_file(self, tmp_path, monkeypatch):
        out = tmp_path / "ann.geojson"
        out.write_bytes(b"earlier\n")
        monkeypatch.setattr(geodata, "_SLICE", 2)
        formatted = geodata._features_text
        calls = []

        def second_slice_raises(*args):
            calls.append(1)
            if len(calls) == 2:
                raise RuntimeError("formatter failed")
            return formatted(*args)

        monkeypatch.setattr(geodata, "_features_text", second_slice_raises)
        with pytest.raises(RuntimeError, match="formatter failed"):
            write_annotations(polygon_columns([[UNIT_SQUARE]] * 5), out)
        assert len(calls) == 2
        assert out.read_bytes() == b"earlier\n"
        assert [p.name for p in tmp_path.iterdir()] == ["ann.geojson"]

    def test_documents_read_as_json_loads_reads_them(self, tmp_path, monkeypatch):
        # member order, duplicate keys (the last one wins), whitespace and
        # newlines between features, a syntax fault after a geometry fault,
        # and features absent: the streamed read gives what reading the
        # document parsed whole gives, and valid ones are read without it
        square = [[0, 0], [4, 0], [4, 4], [0, 4], [0, 0]]
        bowtie = [[0, 0], [2, 2], [2, 0], [0, 2], [0, 0]]

        def feature(ring, label="dump"):
            return {"type": "Feature", "geometry": {"type": "Polygon", "coordinates": [ring]}, "properties": {"label": label}}

        fc = '"type": "FeatureCollection"'
        features = json.dumps([feature(square, "a"), feature(square, "b")])
        documents = {
            "type after features": ("{" + f'"features": {features}, {fc}' + "}", 2),
            "type replaced by a later one": ("{" + f'{fc}, "features": {features}, "type": "Polygon"' + "}", None),
            "a later type replaces another": ('{"type": "Polygon", ' + f'"features": {features}, {fc}' + "}", 2),
            "later features win": ("{" + f'{fc}, "features": [5], "features": {features}' + "}", 2),
            "later features win, empty": ("{" + f'{fc}, "features": {features}, "features": []' + "}", 0),
            "duplicate keys in a feature": (
                "{" + f'{fc}, "features": [' + '{"type": "Feature", "geometry": null, "geometry": '
                + json.dumps(feature(square)["geometry"]) + ', "properties": {"label": 1, "label": "x"}}]}',
                1,
            ),
            "whitespace and newlines": (json.dumps({"type": "FeatureCollection", "features": json.loads(features)}, indent="\t").replace(",", " ,\r\n ") + "\n\n", 2),
            "compact": (json.dumps({"type": "FeatureCollection", "features": json.loads(features)}, separators=(",", ":")), 2),
            "empty features": ("{" + f'{fc}, "features": [ \n ]' + "}", 0),
            "features absent": ("{" + fc + ', "name": {"a": [1, 2]}}', 0),
            "features null": ("{" + fc + ', "features": null}', None),
            "other members": ("{" + f'"bbox": [0, 0, 4, 4], {fc}, "crs": {{"x": null}}, "features": {features}' + "}", 2),
            "syntax fault after a geometry fault": ("{" + f'{fc}, "features": {json.dumps([feature(bowtie)])}, "x": [1,]' + "}", None),
            "NaN after a geometry fault": ("{" + f'{fc}, "features": {json.dumps([feature(bowtie)])}, "x": NaN' + "}", None),
            "syntax fault in a later feature": ("{" + f'{fc}, "features": [{json.dumps(feature(bowtie))}, {{"type": tru}}]' + "}", None),
            "extra data": ("{" + f'{fc}, "features": {features}' + "} []", None),
            "trailing comma": ("{" + f'{fc}, "features": {features},' + "}", None),
            "byte order mark": ("﻿{" + f'{fc}, "features": {features}' + "}", None),
            "not an object": (features, None),
            "empty object": ("{}", None),
            "empty text": ("", None),
        }
        path = tmp_path / "d.geojson"
        whole_reads = []
        read_json = geodata.read_json
        monkeypatch.setattr(geodata, "read_json", lambda p: whole_reads.append(p) or read_json(p))
        for name, (text, count) in documents.items():
            path.write_text(text)
            whole_reads.clear()
            streamed = _outcome(path)
            # a second features member is read whole too
            assert bool(whole_reads) == (count is None or name.startswith("later features")), name
            with monkeypatch.context() as whole:
                whole.setattr(geodata, "_streamed_features", _read_whole)
                assert _outcome(path) == streamed, name
            if count is None:
                assert streamed[0] == "error", name
            else:
                assert len(streamed[0][4]) == count, name
        assert _outcome(path)[1].startswith("invalid JSON in ")

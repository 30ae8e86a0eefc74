import hashlib
import json
import math
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dumpwatch.dataset import (
    ABLATION_SPECS,
    DEFAULT_BAND_SPEC,
    SOURCE_BANDS,
    Chip,
    ChipConfig,
    DatasetSplit,
    NormalizationStats,
    SynthConfig,
    apply_normalization,
    compute_ndsw,
    cut_windows,
    extract_chips,
    fit_normalization,
    generate_synthetic,
    load_catalog,
    normalize_split,
    rasterize_mask,
    reflect_pad,
    save_catalog,
    split_dataset,
    stack_bands,
)
from dumpwatch import cli
from dumpwatch._fileio import read_document
from dumpwatch.geodata import GeoTransform, Raster, RasterReader, write_annotations, write_raster
from oracles import polygon_columns, rasterize_oracle, rasters_equal


class TestNdsw:
    def test_known_value(self):
        s1 = np.array([[0.3]], dtype=np.float32)
        s2 = np.array([[0.1]], dtype=np.float32)
        assert compute_ndsw(s1, s2)[0, 0] == pytest.approx(0.5, abs=1e-6)

    def test_degenerate_sum_maps_to_zero(self):
        s1 = np.array([[0.0, 1e-13]], dtype=np.float32)
        s2 = np.array([[0.0, -1e-13]], dtype=np.float32)
        out = compute_ndsw(s1, s2)
        assert out[0, 0] == 0.0 and out[0, 1] == 0.0

    def test_nan_nodata_propagates(self):
        s1 = np.array([[np.nan, 0.3]], dtype=np.float32)
        s2 = np.array([[0.1, 0.1]], dtype=np.float32)
        out = compute_ndsw(s1, s2, nodata=math.nan)
        assert np.isnan(out[0, 0]) and not np.isnan(out[0, 1])

    def test_sentinel_nodata_propagates(self):
        s1 = np.array([[-9999.0, 0.3]], dtype=np.float32)
        s2 = np.array([[0.1, 0.1]], dtype=np.float32)
        out = compute_ndsw(s1, s2, nodata=-9999.0)
        assert out[0, 0] == -9999.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shapes differ"):
            compute_ndsw(np.zeros((2, 2)), np.zeros((3, 3)))

    @given(seed=st.integers(0, 1000))
    def test_bounded(self, seed):
        rng = np.random.default_rng(seed)
        s1 = rng.uniform(0.01, 1.0, (4, 4)).astype(np.float32)
        s2 = rng.uniform(0.01, 1.0, (4, 4)).astype(np.float32)
        out = compute_ndsw(s1, s2)
        assert np.all(out >= -1.0) and np.all(out <= 1.0)


class TestStackBands:
    def _source(self):
        rng = np.random.default_rng(7)
        data = rng.uniform(0.05, 0.6, (6, 4, 4)).astype(np.float32)
        return Raster(
            data, GeoTransform(0, 4, 1, 1), nodata=math.nan, band_names=SOURCE_BANDS
        )

    def test_default_spec(self):
        src = self._source()
        stacked = stack_bands(src)
        assert stacked.band_names == DEFAULT_BAND_SPEC
        assert np.array_equal(stacked.band("R"), src.band("R"))
        expected = compute_ndsw(src.band("SWIR1"), src.band("SWIR2"), src.nodata)
        assert np.array_equal(stacked.band("NDSW"), expected)

    def test_subset_spec(self):
        stacked = stack_bands(self._source(), ("B", "NIR"))
        assert stacked.band_names == ("B", "NIR")
        assert stacked.band_count == 2

    def test_errors(self):
        with pytest.raises(ValueError, match="empty"):
            stack_bands(self._source(), ())
        src = self._source()
        with pytest.raises(KeyError):
            stack_bands(src, ("R", "nope"))
        nameless = Raster(src.samples, src.transform)
        with pytest.raises(ValueError, match="band names"):
            stack_bands(nameless)

    def test_ablation_specs_table(self):
        assert list(ABLATION_SPECS) == [
            "RGB",
            "RGB-NIR",
            "RGB-NIR-SWIR",
            "RGB-NIR-SWIR-NDSW",
        ]
        assert ABLATION_SPECS["RGB-NIR-SWIR"] == ("R", "G", "B", "NIR", "SWIR1")
        assert ABLATION_SPECS["RGB-NIR-SWIR-NDSW"] == DEFAULT_BAND_SPEC


def _star_ring(rng, cx, cy, rmax, n=9):
    angles = np.linspace(0, 2 * np.pi, n, endpoint=False)
    radii = rng.uniform(0.3 * rmax, rmax, n)
    return tuple(
        (cx + float(r * np.cos(a)), cy + float(r * np.sin(a)))
        for r, a in zip(radii, angles)
    )


class TestRasterizeMask:
    T8 = GeoTransform(0.0, 8.0, 1.0, 1.0)

    def test_integer_square(self):
        square = polygon_columns([[((2, 2), (5, 2), (5, 5), (2, 5))]])
        mask = rasterize_mask(square, self.T8, 8, 8)
        expected = np.zeros((8, 8), dtype=np.uint8)
        expected[3:6, 2:5] = 1
        assert np.array_equal(mask, expected)

    def test_half_pixel_square_covers_same_cells(self):
        # centers on the left/bottom edges count, right/top do not
        square = polygon_columns([[((2.5, 2.5), (5.5, 2.5), (5.5, 5.5), (2.5, 5.5))]])
        mask = rasterize_mask(square, self.T8, 8, 8)
        expected = np.zeros((8, 8), dtype=np.uint8)
        expected[3:6, 2:5] = 1
        assert np.array_equal(mask, expected)

    def test_abutting_squares_partition(self):
        a = [((1.5, 2.5), (4.5, 2.5), (4.5, 5.5), (1.5, 5.5))]
        b = [((4.5, 2.5), (7.5, 2.5), (7.5, 5.5), (4.5, 5.5))]
        ma = rasterize_mask(polygon_columns([a]), self.T8, 8, 8)
        mb = rasterize_mask(polygon_columns([b]), self.T8, 8, 8)
        both = rasterize_mask(polygon_columns([a, b]), self.T8, 8, 8)
        assert not np.any(ma & mb)  # shared edge assigned to exactly one side
        assert np.array_equal(ma | mb, both)
        assert both.sum() == 18

    def test_hole_subtracts(self):
        outer = ((1.5, 1.5), (6.5, 1.5), (6.5, 6.5), (1.5, 6.5))
        inner = ((3.5, 3.5), (4.5, 3.5), (4.5, 4.5), (3.5, 4.5))
        mask = rasterize_mask(polygon_columns([[outer, inner]]), self.T8, 8, 8)
        no_hole = rasterize_mask(polygon_columns([[outer]]), self.T8, 8, 8)
        assert mask.sum() == no_hole.sum() - 1
        assert no_hole[4, 3] == 1 and mask[4, 3] == 0

    def test_matches_oracle_exactly(self):
        rng = np.random.default_rng(11)
        transform = GeoTransform(0.0, 20.0, 1.0, 1.0)
        for trial in range(20):
            polys = polygon_columns([
                [_star_ring(rng, rng.uniform(3, 17), rng.uniform(3, 17), 4.0)]
                for _ in range(rng.integers(1, 4))
            ])
            fast = rasterize_mask(polys, transform, 20, 20)
            slow = rasterize_oracle(polys, transform, 20, 20)
            assert np.array_equal(fast, slow), f"trial {trial}"
        square = ((4.5, 4.5), (12.5, 4.5), (12.5, 12.5), (4.5, 12.5))
        cases = {
            # the overlap of two polygons is in their union, not their XOR
            "overlap": [[square], [((8.5, 8.5), (16.5, 8.5), (16.5, 16.5), (8.5, 16.5))]],
            "hole": [[square, ((6.5, 6.5), (9.5, 6.5), (9.5, 9.5), (6.5, 9.5))]],
            # a star reaching past the left, top and right edges of the grid
            "partly outside": [[_star_ring(rng, 1.0, 18.5, 9.0)], [_star_ring(rng, 19.0, 10.0, 6.0)]],
            # whole polygons above and below the grid's rows, one wider than it
            "row span off the grid": [
                [((2.0, 21.0), (30.0, 22.0), (5.0, 30.0))],
                [((-5.0, -3.0), (8.0, -1.0), (3.0, -9.0))],
                [square],
            ],
        }
        for name, polys in cases.items():
            polys = polygon_columns(polys)
            fast = rasterize_mask(polys, transform, 20, 20)
            slow = rasterize_oracle(polys, transform, 20, 20)
            assert np.array_equal(fast, slow), name

    def test_matches_oracle_nonunit_pixels(self):
        rng = np.random.default_rng(3)
        transform = GeoTransform(500.0, 4100.0, 10.0, 10.0)
        polys = polygon_columns([
            [_star_ring(rng, 560.0, 4040.0, 35.0)],
            [_star_ring(rng, 610.0, 4070.0, 25.0)],
        ])
        fast = rasterize_mask(polys, transform, 16, 16)
        slow = rasterize_oracle(polys, transform, 16, 16)
        assert np.array_equal(fast, slow)

    def test_rejects_empty_dims(self):
        with pytest.raises(ValueError, match="positive"):
            rasterize_mask(polygon_columns([]), self.T8, 0, 8)


def _toy_raster(h=200, w=200, bands=2, seed=0):
    rng = np.random.default_rng(seed)
    return Raster(
        rng.normal(size=(bands, h, w)).astype(np.float32),
        GeoTransform(0.0, float(h) * 10.0, 10.0, 10.0),
        band_names=tuple(f"band{i}" for i in range(bands)),
    )


class TestExtractChips:
    def test_lattice_and_ordering(self):
        image = _toy_raster()
        mask = np.zeros((200, 200), dtype=np.uint8)
        mask[55, 55] = 1
        chips = extract_chips(image, mask, 100, 50, negatives_per_positive=0.5, seed=3)
        positives = [c for c in chips if c.is_positive()]
        assert [c.origin for c in positives] == [(0, 0), (50, 0), (0, 50), (50, 50)]
        negatives = [c for c in chips if not c.is_positive()]
        assert len(negatives) == 2  # ceil(0.5 * 4)
        assert chips[: len(positives)] == positives  # positives come first

    def test_chips_view_the_source_only_where_windows_cover_their_slab(self):
        # chips are cut per row slab of 2 * chip_size rows: views of it (here
        # of the source, which the slab views) where the slab's windows add
        # up to at least its pixels, else copies, so the slab can be freed
        image = _toy_raster()
        for dense, count in ((True, 9), (False, 2)):  # windows on the one 200-row slab
            mask = np.zeros((200, 200), dtype=np.uint8)
            if dense:
                mask[:, :] = 1
            else:
                mask[10, 120] = 1
            chips = extract_chips(image, mask, 100, 50, negatives_per_positive=0.0, seed=2)
            assert len(chips) == count
            for chip in chips:
                col, row = chip.origin
                assert np.array_equal(
                    chip.samples, image.samples[:, row : row + 100, col : col + 100]
                )
                assert np.array_equal(chip.mask, mask[row : row + 100, col : col + 100])
                assert np.shares_memory(chip.samples, image.samples) == dense
                assert np.shares_memory(chip.mask, mask) == dense
        assert chips[0].mask[10 - chips[0].origin[1], 120 - chips[0].origin[0]] == 1

    def test_cut_windows_keeps_the_order_given(self, tmp_path):
        # windows are read slab by slab in row order (here slabs 0:64 and
        # 40:96), but come back in the order given, each its window of the
        # whole band stack
        scene_id, raster, polygons = _two_scenes()[0]
        write_raster(raster, tmp_path / scene_id)
        mask = rasterize_mask(polygons, raster.transform, 96, 96)
        spec = ("R", "SWIR1", "NDSW")
        stacked = stack_bands(raster, spec).samples
        origins = [(64, 64), (0, 0), (16, 64), (32, 0), (0, 40)]
        with RasterReader(tmp_path / scene_id) as source:
            chips = cut_windows(source, mask, origins, 32, spec, scene_id)
        assert [c.origin for c in chips] == origins
        for chip in chips:
            col, row = chip.origin
            assert chip.samples.tobytes() == stacked[:, row : row + 32, col : col + 32].tobytes()
            assert np.array_equal(chip.mask, mask[row : row + 32, col : col + 32])
            assert chip.band_names == spec and chip.scene_id == scene_id

    def test_negative_chips_are_clean_and_unique(self):
        image = _toy_raster()
        mask = np.zeros((200, 200), dtype=np.uint8)
        mask[0:3, 0:3] = 1
        chips = extract_chips(image, mask, 100, 50, negatives_per_positive=3.0, seed=9)
        negatives = [c for c in chips if not c.is_positive()]
        assert len(negatives) == 3
        assert all(c.mask.sum() == 0 for c in negatives)
        assert len({c.origin for c in negatives}) == len(negatives)

    def test_deterministic_for_seed(self):
        image = _toy_raster()
        mask = np.zeros((200, 200), dtype=np.uint8)
        mask[100, 100] = 1
        a = extract_chips(image, mask, 64, 32, seed=5)
        b = extract_chips(image, mask, 64, 32, seed=5)
        assert [c.origin for c in a] == [c.origin for c in b]

    def test_warns_when_negatives_are_scarce(self):
        image = _toy_raster(h=20, w=20)
        mask = np.ones((20, 20), dtype=np.uint8)
        with pytest.warns(UserWarning, match="all-negative"):
            chips = extract_chips(image, mask, 10, 10, negatives_per_positive=1.0)
        assert all(c.is_positive() for c in chips)

    def test_validation(self):
        image = _toy_raster(h=50, w=50)
        mask = np.zeros((50, 50), dtype=np.uint8)
        with pytest.raises(ValueError, match="mask shape"):
            extract_chips(image, np.zeros((10, 10)), 16, 8)
        with pytest.raises(ValueError, match="chip_size"):
            extract_chips(image, mask, 51, 8)
        with pytest.raises(ValueError, match="stride"):
            extract_chips(image, mask, 16, 0)
        with pytest.raises(ValueError, match="negatives_per_positive"):
            extract_chips(image, mask, 16, 8, negatives_per_positive=-1)


def _dummy_chips(n):
    return [
        Chip(
            samples=np.full((1, 2, 2), i, dtype=np.float32),
            mask=np.zeros((2, 2), dtype=np.uint8),
            origin=(i, 0),
        )
        for i in range(n)
    ]


def _two_scenes():
    cfgs = [SynthConfig(96, dump_count=2, background_texture_seed=i) for i in (40, 41)]
    return [(f"scene_{i}", *generate_synthetic(cfg)) for i, cfg in enumerate(cfgs)]


def _scene_dir(root):
    """``root``, holding the two scenes of ``_two_scenes`` and their annotations."""
    for scene_id, raster, polygons in _two_scenes():
        write_raster(raster, root / scene_id)
        write_annotations(polygons, root / f"{scene_id}.geojson")
    return root


class TestChipConfig:
    def test_validate_bands(self):
        assert ChipConfig(bands=("R", "NIR", "NDSW")).bands == ("R", "NIR", "NDSW")
        with pytest.raises(ValueError, match=r"^bands: unknown band 'XYZ' \(allowed: R, G, B, NIR, SWIR1, SWIR2, NDSW\)"):
            ChipConfig(bands=("R", "XYZ"))
        with pytest.raises(ValueError, match="^bands: empty band list"):
            ChipConfig(bands=())


class TestChipScenes:
    # ``chip`` and ``ablate`` cut each scene of the scene directory as
    # ``extract_chips`` does on its open reader
    def test_matches_per_scene_extraction(self, tmp_path):
        chip = ChipConfig(chip_size=32, stride=16, bands=("R", "SWIR1", "NDSW"))
        cfg = cli.RunConfig(seed=3, paths=cli.PathsConfig(scene_dir=str(_scene_dir(tmp_path))), chip=chip)
        split, _ = cli._chip(cfg, chip.bands, {})
        want = []
        for scene_id, raster, polygons in _two_scenes():
            mask = rasterize_mask(polygons, raster.transform, 96, 96)
            stacked = stack_bands(raster, chip.bands)
            want += extract_chips(stacked, mask, 32, 16, 1.0, cli.substream(3, "chip"), scene_id)
        want = split_dataset(want, chip.test_frac, chip.val_frac, cli.substream(3, "split"))
        for name in ("train", "val", "test"):
            got, expected = getattr(split, name), getattr(want, name)
            assert [c.scene_id for c in got] == [c.scene_id for c in expected]
            for a, b in zip(got, expected, strict=True):
                assert a.origin == b.origin and a.band_names == b.band_names
                assert a.samples.tobytes() == b.samples.tobytes()
                assert a.mask.tobytes() == b.mask.tobytes()
        assert {c.scene_id for c in split.train} == {"scene_0", "scene_1"}

    def test_union_chips_sliced_to_a_spec_equal_that_spec_chips(self, tmp_path):
        # every band set gets the same windows in the same splits, so ablate's
        # rows differ by their bands alone
        cfg = cli.RunConfig(
            seed=2,
            paths=cli.PathsConfig(scene_dir=str(_scene_dir(tmp_path))),
            chip=ChipConfig(chip_size=32, stride=16),
        )
        windows = {}
        union, _ = cli._chip(cfg, DEFAULT_BAND_SPEC, windows)
        for spec in ABLATION_SPECS.values():
            idx = [DEFAULT_BAND_SPEC.index(band) for band in spec]
            direct, stats = cli._chip(cfg, spec, windows)
            sliced = {
                name: [replace(c, samples=c.samples[idx], band_names=spec) for c in getattr(union, name)]
                for name in ("train", "val", "test")
            }
            for name, chips in sliced.items():
                for a, b in zip(chips, getattr(direct, name), strict=True):
                    assert a.origin == b.origin and a.band_names == b.band_names
                    assert a.scene_id == b.scene_id
                    assert a.samples.shape == b.samples.shape
                    assert a.samples.tobytes() == b.samples.tobytes()
                    assert a.mask.tobytes() == b.mask.tobytes()
            assert fit_normalization(sliced["train"]) == stats


class TestSplitDataset:
    def test_frozen_counts_large(self):
        split = split_dataset(_dummy_chips(1917), 0.1, 0.2, seed=0)
        assert (len(split.test), len(split.val), len(split.train)) == (192, 383, 1342)

    def test_frozen_counts_small(self):
        split = split_dataset(_dummy_chips(10), 0.1, 0.2, seed=0)
        assert (len(split.test), len(split.val), len(split.train)) == (1, 2, 7)

    def test_partition_is_disjoint_and_complete(self):
        chips = _dummy_chips(37)
        split = split_dataset(chips, 0.15, 0.25, seed=4)
        ids = [id(c) for c in [*split.train, *split.val, *split.test]]
        assert len(ids) == 37 and len(set(ids)) == 37

    def test_deterministic(self):
        chips = _dummy_chips(20)
        a = split_dataset(chips, 0.1, 0.2, seed=8)
        b = split_dataset(chips, 0.1, 0.2, seed=8)
        assert [c.origin for c in a.train] == [c.origin for c in b.train]
        c = split_dataset(chips, 0.1, 0.2, seed=9)
        assert [x.origin for x in a.train] != [x.origin for x in c.train]

    def test_validation(self):
        # no chips (scenes without a window) give an empty split with its seed
        assert split_dataset([], 0.1, 0.2, seed=5) == DatasetSplit(train=[], val=[], test=[], seed=5)
        with pytest.raises(ValueError, match="fractions"):
            split_dataset(_dummy_chips(5), 0.6, 0.5)


class TestNormalization:
    def _chips(self, seed=0, n=8):
        rng = np.random.default_rng(seed)
        return [
            Chip(
                samples=rng.normal(
                    loc=[[[2.0]], [[-1.0]]], scale=[[[3.0]], [[0.5]]], size=(2, 8, 8)
                ).astype(np.float32),
                mask=np.zeros((8, 8), dtype=np.uint8),
                origin=(0, 0),
                band_names=("a", "b"),
            )
            for _ in range(n)
        ]

    def test_fit_matches_manual_moments(self):
        chips = self._chips()
        stats = fit_normalization(chips)
        for b in range(2):
            flat = np.concatenate(
                [c.samples[b].reshape(-1).astype(np.float64) for c in chips]
            )
            assert stats.means[b] == pytest.approx(flat.mean(), rel=1e-9)
            assert stats.stds[b] == pytest.approx(flat.std(), rel=1e-9)
        assert stats.band_names == ("a", "b")

    def test_apply_standardizes(self):
        chips = self._chips()
        stats = fit_normalization(chips)
        normalized = [apply_normalization(c, stats) for c in chips]
        flat = np.concatenate([c.samples[0].reshape(-1) for c in normalized])
        assert abs(flat.mean()) < 1e-5
        assert abs(flat.std() - 1.0) < 1e-4

    def test_normalize_split_covers_all_buckets(self):
        chips = self._chips(n=10)
        split = split_dataset(chips, 0.2, 0.2, seed=0)
        stats = fit_normalization(split.train)
        out = normalize_split(split, stats)
        assert len(out.train) == len(split.train)
        assert out.seed == split.seed
        assert not np.array_equal(out.val[0].samples, split.val[0].samples)

    def test_constant_band_rejected(self):
        chips = [
            Chip(
                samples=np.ones((1, 4, 4), dtype=np.float32),
                mask=np.zeros((4, 4), dtype=np.uint8),
                origin=(0, 0),
            )
        ]
        with pytest.raises(ValueError, match="std is zero"):
            fit_normalization(chips)

    def test_stats_round_trip(self, tmp_path):
        stats = NormalizationStats((0.1, 0.2), (1.0, 2.0), ("a", "b"))
        (tmp_path / "stats.json").write_text(json.dumps(asdict(stats)))
        loaded = read_document(NormalizationStats, tmp_path / "stats.json")
        assert loaded == stats

    def test_stats_validation(self):
        with pytest.raises(ValueError, match="positive"):
            NormalizationStats((0.0,), (0.0,))
        with pytest.raises(ValueError, match="length"):
            NormalizationStats((0.0,), (1.0, 2.0))
        with pytest.raises(ValueError, match="band 'b': non-finite"):
            NormalizationStats((0.0, math.nan), (1.0, math.nan), ("a", "b"))
        with pytest.raises(ValueError, match="band 0: non-finite"):
            NormalizationStats((0.0,), (math.inf,))
        with pytest.raises(ValueError, match="bands"):
            apply_normalization(
                _dummy_chips(1)[0], NormalizationStats((0.0, 0.0), (1.0, 1.0))
            )


class TestGenerateSynthetic:
    def test_deterministic(self):
        cfg = SynthConfig(scene_size=64, dump_count=3, background_texture_seed=42)
        r1, p1 = generate_synthetic(cfg)
        r2, p2 = generate_synthetic(cfg)
        assert rasters_equal(r1, r2)
        assert [p.rings()[0] for p in p1] == [p.rings()[0] for p in p2]

    def test_seed_changes_output(self):
        base = SynthConfig(scene_size=64, dump_count=3, background_texture_seed=1)
        other = SynthConfig(scene_size=64, dump_count=3, background_texture_seed=2)
        assert not rasters_equal(generate_synthetic(base)[0], generate_synthetic(other)[0])

    def test_scene_structure(self):
        cfg = SynthConfig(scene_size=96, dump_count=4, background_texture_seed=0)
        raster, polygons = generate_synthetic(cfg)
        assert raster.band_names == SOURCE_BANDS
        assert raster.samples.shape == (6, 96, 96)
        assert raster.transform.origin_y == 960.0
        assert len(polygons) == 4

    def test_annotations_outline_painted_pixels(self):
        # SWIR1 is painted from disjoint distributions; the rasterized
        # annotation mask must line up with the bright/dark split.
        cfg = SynthConfig(scene_size=128, dump_count=5, background_texture_seed=7)
        raster, polygons = generate_synthetic(cfg)
        mask = rasterize_mask(
            polygons, raster.transform, raster.width, raster.height
        ).astype(bool)
        assert 50 < mask.sum() < mask.size // 4
        swir1 = raster.band("SWIR1")
        assert swir1[mask].mean() == pytest.approx(0.30, abs=0.02)
        assert swir1[~mask].mean() == pytest.approx(0.18, abs=0.02)

    def test_blobs_do_not_touch(self):
        cfg = SynthConfig(scene_size=128, dump_count=5, background_texture_seed=3)
        raster, polygons = generate_synthetic(cfg)
        from oracles import connected_components_oracle

        mask = rasterize_mask(polygons, raster.transform, raster.width, raster.height)
        labels = connected_components_oracle(mask, connectivity=8)
        assert labels.max() == len(polygons)

    def test_zero_blobs(self):
        raster, polygons = generate_synthetic(
            SynthConfig(scene_size=32, dump_count=0, dump_radius_range=(2.0, 4.0))
        )
        assert len(polygons) == 0
        assert raster.band("R").std() > 0

    def test_config_validation(self):
        with pytest.raises(ValueError, match="scene_size"):
            SynthConfig(scene_size=4)
        with pytest.raises(ValueError, match="radius"):
            SynthConfig(scene_size=32, dump_radius_range=(4.0, 30.0))
        with pytest.raises(ValueError, match="dump_radius_range"):
            SynthConfig(dump_radius_range=(5.0, 3.0))


def _catalog_run(root, size=96, dumps=3):
    """One synthetic scene written under ``root``/scenes, and its chips,
    cut as ``chip`` cuts them and split."""
    raster, polygons = generate_synthetic(SynthConfig(scene_size=size, dump_count=dumps, background_texture_seed=5))
    base = root / "scenes" / "scene_005"
    write_raster(raster, base)
    write_annotations(polygons, f"{base}.geojson")
    mask = rasterize_mask(polygons, raster.transform, size, size)
    with RasterReader(base) as source:
        chips = extract_chips(source, mask, 32, 16, 1.0, seed=1, scene_id="scene_005", bands=DEFAULT_BAND_SPEC)
    return split_dataset(chips, 0.2, 0.2, seed=2)


class TestCatalogIO:
    def _assert_same_windows(self, split, loaded):
        assert loaded.seed == split.seed
        for name in ("train", "val", "test"):
            orig = getattr(split, name)
            back = getattr(loaded, name)
            assert len(back) == len(orig) > 0
            for a, b in zip(orig, back):
                assert a.samples.tobytes() == b.samples.tobytes()
                assert np.array_equal(a.mask, b.mask) and b.mask.dtype == np.uint8
                assert a.origin == b.origin
                assert a.band_names == b.band_names
                assert a.scene_id == b.scene_id

    def test_round_trip(self, tmp_path):
        split = _catalog_run(tmp_path)
        stats = fit_normalization(split.train)
        save_catalog(tmp_path / "cat", split, tmp_path / "scenes", stats)
        loaded, loaded_stats = load_catalog(tmp_path / "cat")
        assert loaded_stats == stats
        self._assert_same_windows(split, loaded)

    def test_catalog_is_an_index_and_stats(self, tmp_path):
        split = _catalog_run(tmp_path)
        save_catalog(tmp_path / "cat", split, tmp_path / "scenes", fit_normalization(split.train))
        assert sorted(p.name for p in (tmp_path / "cat").iterdir()) == ["index.json", "stats.json"]
        index = json.loads((tmp_path / "cat" / "index.json").read_text())
        assert (index["format_version"], index["scenes"]) == (2, "../scenes")
        base = tmp_path / "scenes" / "scene_005"
        digest = hashlib.sha256(Path(f"{base}.json").read_bytes() + Path(f"{base}.bin").read_bytes())
        assert index["scene_sha256"] == {"scene_005": digest.hexdigest()}
        chips = split.train + split.val + split.test
        assert [set(entry) for entry in index["chips"]] == [{"scene", "origin", "split", "positive"}] * len(chips)

    def test_moved_run_directory_still_loads(self, tmp_path):
        split = _catalog_run(tmp_path / "run")
        save_catalog(tmp_path / "run" / "cat", split, tmp_path / "run" / "scenes")
        (tmp_path / "run").rename(tmp_path / "moved")
        loaded, _ = load_catalog(tmp_path / "moved" / "cat")
        self._assert_same_windows(split, loaded)

    @pytest.mark.parametrize("size, dumps, views", [(96, 3, True), (512, 1, False)])
    def test_chips_view_their_scene_only_where_windows_cover_it(self, tmp_path, size, dumps, views):
        # where the windows add up to fewer pixels than their scene (chip)
        # or row slab (load), they are copies and it can be freed; else views
        split = _catalog_run(tmp_path, size, dumps)
        save_catalog(tmp_path / "cat", split, tmp_path / "scenes")
        loaded, _ = load_catalog(tmp_path / "cat")
        self._assert_same_windows(split, loaded)
        for chips in (split.train + split.val + split.test, loaded.train + loaded.val + loaded.test):
            assert {c.samples.base is not None for c in chips} == {views}
            assert {c.mask.base is not None for c in chips} == {views}
        windows = sum(c.mask.size for c in split.train + split.val + split.test)
        assert (windows >= size * size) == views

    def test_missing_index(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_catalog(tmp_path / "nope")

    def test_bad_version(self, tmp_path):
        split = _catalog_run(tmp_path)
        save_catalog(tmp_path / "cat", split, tmp_path / "scenes")
        index_path = tmp_path / "cat" / "index.json"
        index = json.loads(index_path.read_text())
        index["format_version"] = 1
        index_path.write_text(json.dumps(index))
        with pytest.raises(ValueError, match=r"index\.json: format_version: expected 2, got 1$"):
            load_catalog(tmp_path / "cat")

    def test_catalog_without_stats(self, tmp_path):
        split = _catalog_run(tmp_path)
        save_catalog(tmp_path / "cat", split, tmp_path / "scenes")
        _, stats = load_catalog(tmp_path / "cat")
        assert stats is None


class TestReflectPad:
    @given(
        h=st.integers(2, 6),
        w=st.integers(2, 6),
        top=st.integers(0, 12),
        bottom=st.integers(0, 12),
        left=st.integers(0, 12),
        right=st.integers(0, 12),
    )
    @settings(max_examples=40)
    def test_matches_numpy_reflect(self, h, w, top, bottom, left, right):
        arr = np.arange(h * w, dtype=np.float64).reshape(h, w)
        out = reflect_pad(arr, ((top, bottom), (left, right)))
        ref = np.pad(arr, ((top, bottom), (left, right)), mode="reflect")
        assert np.array_equal(out, ref)

    def test_leading_axes_untouched(self):
        arr = np.arange(2 * 3 * 4, dtype=np.float32).reshape(2, 3, 4)
        out = reflect_pad(arr, ((1, 2), (0, 3)))
        assert out.shape == (2, 6, 7)
        assert np.array_equal(out[:, 1:4, 0:4], arr)

    def test_one_wide_axis_uses_edge(self):
        arr = np.array([[1.0, 2.0, 3.0]])
        out = reflect_pad(arr, ((2, 2), (0, 0)))
        assert out.shape == (5, 3)
        assert np.array_equal(out, np.tile(arr, (5, 1)))

import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dumpwatch import numerics, training
from dumpwatch.dataset import Chip, NormalizationStats
from dumpwatch.numerics import Tensor, no_grad, weighted_bce_with_logits
from dumpwatch.unet import (
    Checkpoint,
    UNetConfig,
    build_unet,
    checkpoint_from_params,
    forward,
    load_checkpoint,
    model_input,
    parameter_count,
    parameter_schema,
    params_from_checkpoint,
    save_checkpoint,
)
from oracles import (
    backward_oracle,
    conv2d_oracle,
    max_pool_2x2_oracle,
    receptive_field_radius,
    transposed_conv_2x2_oracle,
)

TINY = UNetConfig(in_channels=1, depth=1, base_filters=2)
SMALL = UNetConfig(in_channels=3, depth=2, base_filters=4)


class TestConfig:
    def test_defaults(self):
        cfg = UNetConfig()
        assert (cfg.in_channels, cfg.depth, cfg.base_filters) == (6, 4, 16)
        assert cfg.pool_factor == 16

    def test_validation(self):
        with pytest.raises(ValueError, match="in_channels"):
            UNetConfig(in_channels=0)
        with pytest.raises(ValueError, match="depth"):
            UNetConfig(depth=0)
        with pytest.raises(ValueError, match="base_filters"):
            UNetConfig(base_filters=0)
        with pytest.raises(ValueError, match="kernel_size"):
            UNetConfig(kernel_size=5)
        with pytest.raises(ValueError, match="out_channels"):
            UNetConfig(out_channels=3)


class TestSchema:
    def test_frozen_parameter_count(self):
        assert parameter_count(TINY) == 447

    def test_order_and_shapes(self):
        schema = parameter_schema(SMALL)
        names = [name for name, _ in schema]
        assert names[0] == "enc0.conv1.weight"
        assert names[-1] == "head.bias"
        assert len(names) == len(set(names))
        shapes = dict(schema)
        assert shapes["enc0.conv1.weight"] == (4, 3, 3, 3)
        assert shapes["enc1.conv1.weight"] == (8, 4, 3, 3)
        assert shapes["bottleneck.conv1.weight"] == (16, 8, 3, 3)
        assert shapes["dec1.up.weight"] == (16, 8, 2, 2)
        assert shapes["dec1.conv1.weight"] == (8, 16, 3, 3)  # concat doubles input
        assert shapes["dec0.up.weight"] == (8, 4, 2, 2)
        assert shapes["head.weight"] == (1, 4, 3, 3)
        # decoder stages appear deepest-first after the bottleneck
        assert names.index("dec1.up.weight") < names.index("dec0.up.weight")

    def test_count_matches_schema_sum(self):
        for cfg in (TINY, SMALL, UNetConfig()):
            total = sum(
                int(np.prod(shape)) for _, shape in parameter_schema(cfg)
            )
            assert parameter_count(cfg) == total


class TestBuild:
    def test_deterministic_for_seed(self):
        a = build_unet(SMALL, seed=3)
        b = build_unet(SMALL, seed=3)
        assert a.keys() == b.keys()
        for name in a:
            assert a[name].data.tobytes() == b[name].data.tobytes()
        c = build_unet(SMALL, seed=4)
        assert any(
            a[name].data.tobytes() != c[name].data.tobytes() for name in a
        )

    def test_biases_zero_weights_scaled(self):
        params = build_unet(UNetConfig(in_channels=6, depth=2, base_filters=16), seed=0)
        for name, p in params.items():
            assert p.requires_grad
            assert p.data.dtype == np.float32
            if name.endswith(".bias"):
                assert not p.data.any()
        w = params["bottleneck.conv1.weight"].data  # fan_in 32*9 = 288
        expected_std = np.sqrt(2.0 / 288.0)
        assert w.std() == pytest.approx(expected_std, rel=0.1)
        assert abs(w.mean()) < 3 * expected_std / np.sqrt(w.size)


class TestForward:
    def test_output_shape(self):
        for cfg, shape in (
            (TINY, (2, 1, 8, 8)),
            (SMALL, (1, 3, 16, 12)),
            (UNetConfig(in_channels=6, depth=3, base_filters=4), (1, 6, 16, 16)),
        ):
            params = build_unet(cfg, seed=0)
            out = forward(params, cfg, Tensor(np.zeros(shape, dtype=np.float32)))
            assert out.data.shape == (shape[0], 1, shape[2], shape[3])

    def test_input_validation(self):
        params = build_unet(TINY, seed=0)
        with pytest.raises(ValueError, match="channels"):
            forward(params, TINY, Tensor(np.zeros((1, 2, 8, 8))))
        with pytest.raises(ValueError, match="divisible"):
            forward(params, TINY, Tensor(np.zeros((1, 1, 7, 8))))

    def test_matches_oracle_composition(self):
        """Recompose the whole depth-1 network from oracle ops.

        Pins the wiring: two convs per stage, pool, bottleneck, learned
        upsampling, concat with the upsampled tensor first, final head conv
        with no activation.
        """
        cfg = TINY
        params = build_unet(cfg, seed=5)
        p = {name: t.data.astype(np.float64) for name, t in params.items()}
        rng = np.random.default_rng(6)
        x = rng.normal(size=(2, 1, 6, 4))

        def double_conv(prefix, v):
            v = np.maximum(
                conv2d_oracle(v, p[f"{prefix}.conv1.weight"], p[f"{prefix}.conv1.bias"]), 0
            )
            return np.maximum(
                conv2d_oracle(v, p[f"{prefix}.conv2.weight"], p[f"{prefix}.conv2.bias"]), 0
            )

        skip = double_conv("enc0", x)
        down = max_pool_2x2_oracle(skip)
        mid = double_conv("bottleneck", down)
        up = transposed_conv_2x2_oracle(mid, p["dec0.up.weight"], p["dec0.up.bias"])
        cat = np.concatenate([up, skip], axis=1)
        dec = double_conv("dec0", cat)
        expected = conv2d_oracle(dec, p["head.weight"], p["head.bias"])

        f64_params = {name: Tensor(arr) for name, arr in p.items()}
        got = forward(f64_params, cfg, Tensor(x)).data
        assert np.allclose(got, expected, atol=1e-10)

    def test_gradients_reach_every_parameter(self):
        params = build_unet(SMALL, seed=1)
        x = Tensor(np.random.default_rng(2).normal(size=(2, 3, 8, 8)).astype(np.float32))
        out = forward(params, SMALL, x)
        out.sum().backward()
        for name, pt in params.items():
            assert pt.grad is not None, f"{name} got no gradient"
            assert pt.grad.shape == pt.data.shape
            assert np.all(np.isfinite(pt.grad))

    def test_leaf_gradients_match_walk_that_keeps_every_gradient(self):
        params = build_unet(SMALL, seed=1)
        rng = np.random.default_rng(3)
        x = Tensor(rng.normal(size=(2, 3, 8, 8)).astype(np.float32), requires_grad=True)
        y = Tensor((rng.uniform(size=(2, 1, 8, 8)) > 0.7).astype(np.float32))
        logits = forward(params, SMALL, x)
        loss = weighted_bce_with_logits(logits, y, pos_weight=3.0)
        everything = backward_oracle(loss)
        loss.backward()
        # no tensor here feeds more than two ops, so the order in which
        # either walk sums a tensor's gradients cannot change a bit
        for name, leaf in [*params.items(), ("input", x)]:
            assert leaf.grad.dtype == everything[id(leaf)].dtype
            assert leaf.grad.tobytes() == everything[id(leaf)].tobytes(), name
        # the oracle keys an op output by its vertex in the graph, its node
        assert id(logits._node) in everything and logits.grad is None and loss.grad is None

    def test_backward_frees_the_activations_while_loss_and_logits_are_held(self, monkeypatch):
        params = build_unet(SMALL, seed=1)
        rng = np.random.default_rng(4)
        x = Tensor(rng.normal(size=(2, 3, 8, 8)).astype(np.float32), requires_grad=True)
        y = Tensor((rng.uniform(size=(2, 1, 8, 8)) > 0.7).astype(np.float32))
        refs = {}  # op name -> weakrefs to the arrays of its outputs
        for name in ("conv2d", "transposed_conv_2x2", "relu", "max_pool_2x2", "concat_channels"):

            def keeping_refs(*args, _op=getattr(numerics, name), _refs=refs.setdefault(name, []), **kwargs):
                out = _op(*args, **kwargs)
                _refs.append(weakref.ref(out.data))
                return out

            monkeypatch.setattr(numerics, name, keeping_refs)
        logits = forward(params, SMALL, x)
        loss = weighted_bce_with_logits(logits, y, pos_weight=3.0)

        def alive(*names):
            return [ref() for name in names for ref in refs[name] if ref() is not None]

        # no gradient reads a conv's or an up-conv's output, so each is freed
        # once the op after it has run; the head conv's output is the logits
        assert len(refs["conv2d"]) == 11 and len(refs["transposed_conv_2x2"]) == 2
        assert [id(a) for a in alive("conv2d", "transposed_conv_2x2")] == [id(logits.data)]
        # relu's gradient reads its output, pooling its input, and a conv its
        # input (a concatenation or a relu output): those live until backward
        saved = ("relu", "max_pool_2x2", "concat_channels")
        assert len(alive(*saved)) == sum(len(refs[name]) for name in saved) == 14
        loss.backward()
        assert alive(*saved) == []
        assert logits.data.shape == (2, 1, 8, 8) and np.isfinite(loss.item())


class TestBatchInvariance:
    """Streamed predict runs each tile row's windows in batches of their own,
    not the batches a whole-raster pass would make; its bytes rest on a
    window's forward not depending on the batch it runs in."""

    @staticmethod
    def _check(cfg, x, sizes, seed):
        params = build_unet(cfg, seed=seed)
        with no_grad():
            whole = forward(params, cfg, Tensor(x)).data
            parts = np.split(x, np.cumsum(sizes)[:-1])
            split = np.concatenate([forward(params, cfg, Tensor(p)).data for p in parts])
        assert split.tobytes() == whole.tobytes()

    @pytest.mark.parametrize("depth", [1, 2, 4])
    @pytest.mark.parametrize("sizes", [[1] * 7, [3, 4], [5, 1, 1], [2, 5], [6, 1]])
    def test_stack_equals_concatenated_forwards(self, depth, sizes):
        cfg = UNetConfig(in_channels=3, depth=depth, base_filters=4)
        side = 2 * cfg.pool_factor
        x = np.random.default_rng(depth).normal(size=(7, 3, side, side)).astype(np.float32)
        self._check(cfg, x, sizes, seed=depth)

    @pytest.mark.parametrize("sizes", [[2, 3], [1] * 5])
    def test_column_blocked_convs_at_tile_size(self, sizes):
        # at 256 px the convs split each image into column blocks, which the
        # small inputs above are too narrow for
        assert len(numerics._column_blocks(6, 8, 256 * 258, 4)) > 1
        cfg = UNetConfig(in_channels=6, depth=2, base_filters=8)
        x = np.random.default_rng(3).normal(size=(5, 6, 256, 256)).astype(np.float32)
        self._check(cfg, x, sizes, seed=3)


def _stacked_then_padded(windows, side, stats=None, valid=None):
    """The network input as train and predict built it before
    ``model_input``: each window normalized (float32 subtract then divide)
    and zeroed at nodata, the batch stacked as float32, reflect-padded and
    then laid out by ``_pad_flat``."""
    images = []
    for i, window in enumerate(windows):
        if stats is not None:
            means, stds = (np.asarray(v, np.float32)[:, None, None] for v in (stats.means, stats.stds))
            window = (window - means) / stds
        window = window.copy()
        if valid is not None:
            window[:, ~valid[i]] = 0.0
        images.append(window)
    x = np.stack(images).astype(np.float32, copy=False)
    h, w = x.shape[2:]
    x = np.pad(x, ((0, 0), (0, 0), (0, side - h), (0, side - w)), mode="reflect")
    return numerics._pad_flat(x, np.float32)


class TestModelInput:
    STATS = NormalizationStats((0.3, -1.0), (0.7, 2.5))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("nodata", [None, np.nan, -9999.0], ids=["none", "nan", "numeric"])
    @pytest.mark.parametrize("with_stats", [False, True], ids=["raw", "normalized"])
    @pytest.mark.parametrize(
        "h, w, side",
        # side == h; pads longer than the axis; 1-wide axes; a square pad
        [(8, 8, 8), (5, 3, 16), (1, 4, 4), (3, 1, 8), (1, 1, 4), (6, 6, 8), (8, 2, 8)],
    )
    def test_bitwise_the_stack_pad_and_pad_flat_composition(self, h, w, side, with_stats, nodata, dtype):
        rng = np.random.default_rng(h * 100 + w * 10 + side)
        windows = [rng.normal(size=(2, h, w)).astype(dtype) for _ in range(3)]
        valid = None
        if nodata is not None:
            valid = [rng.random((h, w)) > 0.3 for _ in windows]
            for window, ok in zip(windows, valid):
                window[1, ~ok] = nodata
        stats = self.STATS if with_stats else None
        x = model_input(windows, side, stats, valid)
        assert x.data.dtype == np.float32 and x.data.shape == (3, 2, side, side)
        assert numerics._buffer(x.data, x._flat) is x._flat
        assert x._flat.tobytes() == _stacked_then_padded(windows, side, stats, valid).tobytes()

    def test_band_count_mismatch_names_both(self):
        with pytest.raises(ValueError, match="windows have 3 bands, stats cover 2"):
            model_input([np.zeros((3, 4, 4), np.float32)], 4, self.STATS)

    @given(h=st.integers(1, 6), w=st.integers(1, 6), down=st.integers(0, 12), right=st.integers(0, 12))
    @settings(max_examples=40)
    def test_reflect_matches_numpy_reflect(self, h, w, down, right):
        arr = np.arange(h * w, dtype=np.float32).reshape(1, h, w)
        side = max(h + down, w + right)
        out = model_input([arr], side).data[0, 0]
        assert np.array_equal(out, np.pad(arr[0], ((0, side - h), (0, side - w)), mode="reflect"))

    def test_reflect_pads_every_band_alike(self):
        arr = np.arange(2 * 3 * 4, dtype=np.float32).reshape(2, 3, 4)
        out = model_input([arr], 7).data[0]
        assert np.array_equal(out[:, :3, :4], arr)
        assert np.array_equal(out[1], np.pad(arr[1], ((0, 4), (0, 3)), mode="reflect"))

    def test_reflect_repeats_a_one_wide_axis(self):
        arr = np.array([[[1.0, 2.0, 3.0, 4.0]]], np.float32)
        out = model_input([arr], 4).data[0, 0]
        assert np.array_equal(out, np.tile(arr[0], (4, 1)))

    @staticmethod
    def _counted_pads(monkeypatch):
        calls = []

        def counted(a, dtype, _pad=numerics._pad_flat):
            calls.append(a.shape)
            return _pad(a, dtype)

        monkeypatch.setattr(numerics, "_pad_flat", counted)
        return calls

    def test_a_predict_forward_pads_nothing(self, monkeypatch):
        windows = [np.random.default_rng(1).normal(size=(3, 13, 16)) for _ in range(2)]
        calls = self._counted_pads(monkeypatch)
        with no_grad():
            forward(build_unet(SMALL, seed=1), SMALL, model_input(windows, 16, valid=[np.ones((13, 16), bool)] * 2))
        assert calls == []

    def test_a_training_step_pads_only_the_gradients_outside_the_layout(self, monkeypatch):
        # the loss's (the head conv's g), each up-conv's input gradient and
        # each skip's sum of its pooling and concatenation gradients; not the
        # input, for the forward or for the first conv's weight gradient
        rng = np.random.default_rng(2)
        stats = NormalizationStats((0.1, 0.2, 0.3), (1.0, 2.0, 3.0))
        chips = [
            Chip(rng.normal(size=(3, 8, 8)).astype(np.float32), (rng.random((8, 8)) < 0.3).astype(np.uint8), (0, 0))
            for _ in range(2)
        ]
        means, stds = (np.asarray(v, np.float32)[:, None, None] for v in (stats.means, stats.stds))
        grads = []
        for through_model_input in (False, True):
            params = build_unet(SMALL, seed=3)
            if through_model_input:
                calls = self._counted_pads(monkeypatch)
                logits, target = training._forward_logits(params, SMALL, chips, stats)
            else:
                x = np.stack([(c.samples - means) / stds for c in chips])
                logits = forward(params, SMALL, Tensor(x))
                target = Tensor(np.stack([c.mask for c in chips]).astype(np.float32)[:, None])
            weighted_bce_with_logits(logits, target).backward()
            grads.append(b"".join(p.grad.tobytes() for p in params.values()))
        ups = [(2, 4 * 2 ** (i + 1), 8 >> (i + 1), 8 >> (i + 1)) for i in range(2)]
        skips = [(2, 4 * 2**i, 8 >> i, 8 >> i) for i in range(2)]
        assert sorted(calls) == sorted([logits.shape, *ups, *skips])
        assert grads[0] == grads[1]


class TestReceptiveField:
    def test_frozen_values(self):
        assert receptive_field_radius(TINY) == 10
        assert receptive_field_radius(UNetConfig(in_channels=6, depth=2, base_filters=8)) == 22

    @pytest.mark.parametrize("depth,size", [(1, 28), (2, 56)])
    def test_empirical_radius(self, depth, size):
        """The center output reacts to perturbations up to r pixels up/left
        and r-1 down/right (pooling skews the window), and never beyond.
        All-positive weights keep every path alive through relu and max."""
        cfg = UNetConfig(in_channels=1, depth=depth, base_filters=2)
        params = build_unet(cfg, seed=0)
        positive = {
            name: Tensor(np.abs(t.data).astype(np.float64)) for name, t in params.items()
        }
        r = receptive_field_radius(cfg)
        rng = np.random.default_rng(1)
        base = rng.uniform(0.1, 1.0, size=(1, 1, size, size))
        cy = cx = size // 2

        def center_logit(arr):
            return forward(positive, cfg, Tensor(arr)).data[0, 0, cy, cx]

        ref = center_logit(base)
        for dy, dx, should_move in [
            (0, -r, True),
            (-r, 0, True),
            (-r, -r, True),
            (0, r - 1, True),
            (r - 1, 0, True),
            (0, -r - 1, False),
            (-r - 1, 0, False),
            (0, r, False),
            (r, 0, False),
            (r, r, False),
        ]:
            probe = base.copy()
            probe[0, 0, cy + dy, cx + dx] += 1000.0
            moved = center_logit(probe) != ref
            assert moved == should_move, f"offset ({dy}, {dx})"


class TestCheckpointIO:
    def _checkpoint(self):
        params = build_unet(SMALL, seed=7)
        stats = NormalizationStats((0.1, 0.2, 0.3), (1.0, 2.0, 3.0), ("a", "b", "c"))
        return checkpoint_from_params(
            SMALL, params, stats, {"stopping_epoch": 12, "pos_weight": 3.5}
        )

    def test_round_trip(self, tmp_path):
        ckpt = self._checkpoint()
        save_checkpoint(ckpt, tmp_path / "model")
        loaded = load_checkpoint(tmp_path / "model")
        assert loaded.config == ckpt.config
        assert loaded.normalization == ckpt.normalization
        assert loaded.training_metadata == ckpt.training_metadata
        assert loaded.parameters.keys() == ckpt.parameters.keys()
        for name in ckpt.parameters:
            assert loaded.parameters[name].tobytes() == ckpt.parameters[name].tobytes()

    def test_save_is_byte_deterministic(self, tmp_path):
        ckpt = self._checkpoint()
        save_checkpoint(ckpt, tmp_path / "a")
        save_checkpoint(ckpt, tmp_path / "b")
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
        assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()

    def test_params_round_trip_through_tensors(self, tmp_path):
        ckpt = self._checkpoint()
        save_checkpoint(ckpt, tmp_path / "model")
        params = params_from_checkpoint(load_checkpoint(tmp_path / "model"))
        for name, t in params.items():
            assert t.requires_grad and t.data.dtype == np.float32
            assert t.data.tobytes() == ckpt.parameters[name].tobytes()

    def test_wrong_shape_rejected_on_save(self, tmp_path):
        ckpt = self._checkpoint()
        ckpt.parameters["head.bias"] = np.zeros(2, dtype=np.float32)
        with pytest.raises(ValueError, match="schema mismatch"):
            save_checkpoint(ckpt, tmp_path / "model")

    def test_missing_parameter_rejected_on_save(self, tmp_path):
        ckpt = self._checkpoint()
        del ckpt.parameters["head.bias"]
        with pytest.raises(ValueError, match="missing parameter"):
            save_checkpoint(ckpt, tmp_path / "model")

    def test_unsupported_version(self, tmp_path):
        import json

        save_checkpoint(self._checkpoint(), tmp_path / "model")
        manifest = json.loads((tmp_path / "model.json").read_text())
        manifest["format_version"] = 9
        (tmp_path / "model.json").write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="model.json: format_version: expected 1, got 9$"):
            load_checkpoint(tmp_path / "model")

    def test_tampered_schema_rejected(self, tmp_path):
        import json

        save_checkpoint(self._checkpoint(), tmp_path / "model")
        manifest = json.loads((tmp_path / "model.json").read_text())
        manifest["schema"][0][1] = [9, 9, 3, 3]
        (tmp_path / "model.json").write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="schema mismatch"):
            load_checkpoint(tmp_path / "model")

    def test_corrupt_payload(self, tmp_path):
        save_checkpoint(self._checkpoint(), tmp_path / "model")
        payload = (tmp_path / "model.bin").read_bytes()
        (tmp_path / "model.bin").write_bytes(payload[:-8])
        with pytest.raises(ValueError, match="corrupt payload"):
            load_checkpoint(tmp_path / "model")

    def test_missing_files(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_checkpoint(tmp_path / "absent")

    def test_forward_identical_after_reload(self, tmp_path):
        ckpt = self._checkpoint()
        save_checkpoint(ckpt, tmp_path / "model")
        params = params_from_checkpoint(load_checkpoint(tmp_path / "model"))
        x = Tensor(np.random.default_rng(9).normal(size=(1, 3, 8, 8)).astype(np.float32))
        original = build_unet(SMALL, seed=7)
        a = forward(original, SMALL, x).data
        b = forward(params, SMALL, x).data
        assert a.tobytes() == b.tobytes()

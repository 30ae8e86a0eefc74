import itertools
import math
import tracemalloc
from contextlib import nullcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dumpwatch import numerics
from dumpwatch.numerics import (
    AdamState,
    Tensor,
    _column_blocks,
    _correlate3,
    _interior,
    _pad_flat,
    _tap_offsets,
    adam_step,
    backward,
    concat_channels,
    conv2d,
    crop_spatial,
    max_pool_2x2,
    no_grad,
    relu,
    sigmoid_values,
    softplus_values,
    transposed_conv_2x2,
    weighted_bce_with_logits,
    zero_grads,
)
from dumpwatch.unet import UNetConfig, build_unet, forward, parameter_schema
from oracles import (
    adam_step_oracle,
    conv2d_batched_oracle,
    conv2d_grad_oracle,
    conv2d_oracle,
    finite_difference_grad,
    gradcheck_rel_error,
    max_pool_2x2_grad_oracle,
    max_pool_2x2_oracle,
    sigmoid_scalar,
    softplus_scalar,
    transposed_conv_2x2_grads_oracle,
    transposed_conv_2x2_oracle,
    weighted_bce_oracle,
)


class TestTensorBasics:
    def test_dtype_policy(self):
        assert Tensor(np.zeros(3, dtype=np.int64)).data.dtype == np.float32
        assert Tensor(np.zeros(3, dtype=np.float64)).data.dtype == np.float64
        assert Tensor(np.zeros(3, dtype=np.float32)).data.dtype == np.float32

    def test_add_mul_forward(self):
        a = Tensor(np.array([1.0, 2.0]))
        b = Tensor(np.array([3.0, 5.0]))
        assert np.array_equal((a + b).data, [4.0, 7.0])
        assert np.array_equal((a * b).data, [3.0, 10.0])
        assert np.array_equal((a * 2.0).data, [2.0, 4.0])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            Tensor(np.zeros(2)) + Tensor(np.zeros(3))
        with pytest.raises(ValueError, match="shape mismatch"):
            Tensor(np.zeros(2)) * Tensor(np.zeros((2, 2)))

    def test_item_and_repr(self):
        t = Tensor(np.array(2.5), requires_grad=True)
        assert t.item() == 2.5
        assert "requires_grad" in repr(t)


class TestAutodiffMechanics:
    def test_chain_rule(self):
        x = Tensor(np.array([2.0, -1.0]), requires_grad=True)
        loss = ((x * 3.0) + 1.0).sum()
        loss.backward()
        assert np.array_equal(x.grad, [3.0, 3.0])

    def test_tensor_reused_twice_accumulates(self):
        x = Tensor(np.array([3.0]), requires_grad=True)
        loss = (x * x).sum()  # d/dx x^2 = 2x
        loss.backward()
        assert np.array_equal(x.grad, [6.0])

    def test_diamond_graph(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        a = x * 3.0
        b = x * 5.0
        loss = (a + b).sum()
        loss.backward()
        assert np.array_equal(x.grad, [8.0])

    def test_repeated_backward_accumulates_until_reset(self):
        x = Tensor(np.array([1.0]), requires_grad=True)
        (x * 2.0).sum().backward()
        (x * 2.0).sum().backward()
        assert np.array_equal(x.grad, [4.0])
        zero_grads([x])
        assert x.grad is None
        (x * 2.0).sum().backward()
        assert np.array_equal(x.grad, [2.0])

    def test_second_backward_through_a_consumed_graph_raises(self):
        x = Tensor(np.array([1.0]), requires_grad=True)
        y = x * 2.0
        loss = y.sum()
        loss.backward()
        # consumed nodes hold no closure and no parents; the leaf keeps ()
        assert loss._grad_fn is None and loss._parents is None and y._parents is None
        assert x._parents == ()
        with pytest.raises(ValueError, match="an earlier backward consumed"):
            loss.backward()
        # a fresh loss on top of a consumed node does not count it as a leaf
        with pytest.raises(ValueError, match="an earlier backward consumed"):
            (y * 3.0).sum().backward()
        assert np.array_equal(x.grad, [2.0])

    def test_backward_calls_the_closure_assigned_to_grad_fn(self):
        x = Tensor(np.array([2.0, -1.0]), requires_grad=True)
        y = relu(x * 3.0)
        calls = []
        inner = y._grad_fn

        def wrapper(g):
            calls.append(g)
            return inner(g)

        y._grad_fn = wrapper
        assert y._grad_fn is wrapper
        y.sum().backward()
        assert len(calls) == 1 and np.array_equal(x.grad, [3.0, 0.0])

    def test_zero_grads_accepts_mapping(self):
        x = Tensor(np.array([1.0]), requires_grad=True)
        (x * 1.0).sum().backward()
        zero_grads({"x": x})
        assert x.grad is None

    def test_no_grad_blocks_recording(self):
        x = Tensor(np.array([1.0]), requires_grad=True)
        with no_grad():
            y = (x * 2.0).sum()
        assert y._grad_fn is None and not y.requires_grad
        y2 = (x * 2.0).sum()
        assert y2.requires_grad  # re-enabled after the context

    def test_backward_requires_scalar(self):
        x = Tensor(np.zeros((2, 2)), requires_grad=True)
        with pytest.raises(ValueError, match="scalar"):
            backward(x * 1.0)

    def test_intermediate_grad_stays_none(self):
        x = Tensor(np.array([2.0, -1.0]), requires_grad=True)
        y = x * 3.0
        z = relu(y)
        z.sum().backward()
        assert y.requires_grad and y.grad is None and z.grad is None
        assert np.array_equal(x.grad, [3.0, 0.0])

    def test_constants_get_no_grad(self):
        x = Tensor(np.array([1.0]), requires_grad=True)
        c = Tensor(np.array([5.0]))
        (x * c).sum().backward()
        assert c.grad is None
        assert np.array_equal(x.grad, [5.0])


class TestForwardAgainstOracles:
    def test_conv2d_hand_case(self):
        x = Tensor(np.ones((1, 1, 3, 3)))
        k = Tensor(np.ones((1, 1, 3, 3)))
        b = Tensor(np.zeros(1))
        out = conv2d(x, k, b).data[0, 0]
        assert np.array_equal(out, [[4, 6, 4], [6, 9, 6], [4, 6, 4]])

    @given(
        seed=st.integers(0, 10_000),
        batch=st.integers(1, 2),
        cin=st.integers(1, 3),
        cout=st.integers(1, 3),
        h=st.integers(1, 6),
        w=st.integers(1, 6),
    )
    @settings(max_examples=30)
    def test_conv2d_matches_oracle(self, seed, batch, cin, cout, h, w):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(batch, cin, h, w))
        k = rng.normal(size=(cout, cin, 3, 3))
        b = rng.normal(size=cout)
        fast = conv2d(Tensor(x), Tensor(k), Tensor(b)).data
        assert np.allclose(fast, conv2d_oracle(x, k, b), atol=1e-10)

    def test_conv2d_validation(self):
        x = Tensor(np.zeros((1, 2, 4, 4)))
        with pytest.raises(ValueError, match="kernel"):
            conv2d(x, Tensor(np.zeros((1, 2, 2, 2))), Tensor(np.zeros(1)))
        with pytest.raises(ValueError, match="input channels"):
            conv2d(x, Tensor(np.zeros((1, 3, 3, 3))), Tensor(np.zeros(1)))
        with pytest.raises(ValueError, match="bias"):
            conv2d(x, Tensor(np.zeros((1, 2, 3, 3))), Tensor(np.zeros(2)))

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=30)
    def test_max_pool_matches_oracle(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(2, 3, 6, 4))
        fast = max_pool_2x2(Tensor(x)).data
        assert np.array_equal(fast, max_pool_2x2_oracle(x))

    def test_max_pool_rejects_odd_dims(self):
        with pytest.raises(ValueError, match="even"):
            max_pool_2x2(Tensor(np.zeros((1, 1, 3, 4))))

    def test_transposed_conv_hand_case(self):
        x = Tensor(np.array([[[[2.0]]]]))
        k = Tensor(np.array([[[[1.0, 2.0], [3.0, 4.0]]]]))
        b = Tensor(np.zeros(1))
        out = transposed_conv_2x2(x, k, b).data[0, 0]
        assert np.array_equal(out, [[2.0, 4.0], [6.0, 8.0]])

    @given(
        seed=st.integers(0, 10_000),
        cin=st.integers(1, 3),
        cout=st.integers(1, 3),
        h=st.integers(1, 4),
        w=st.integers(1, 4),
    )
    @settings(max_examples=30)
    def test_transposed_conv_matches_oracle(self, seed, cin, cout, h, w):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(2, cin, h, w))
        k = rng.normal(size=(cin, cout, 2, 2))
        b = rng.normal(size=cout)
        fast = transposed_conv_2x2(Tensor(x), Tensor(k), Tensor(b)).data
        assert np.allclose(fast, transposed_conv_2x2_oracle(x, k, b), atol=1e-10)

    def test_bce_zero_logits_is_log_two(self):
        z = Tensor(np.zeros((1, 1, 2, 2)))
        y = Tensor(np.zeros((1, 1, 2, 2)))
        loss = weighted_bce_with_logits(z, y)
        assert loss.item() == pytest.approx(math.log(2.0), rel=1e-12)

    @given(seed=st.integers(0, 10_000), pos_weight=st.floats(0.5, 50.0))
    @settings(max_examples=30)
    def test_bce_matches_oracle(self, seed, pos_weight):
        rng = np.random.default_rng(seed)
        z = rng.normal(scale=3.0, size=(2, 1, 4, 4))
        y = (rng.uniform(size=(2, 1, 4, 4)) > 0.6).astype(np.float64)
        loss = weighted_bce_with_logits(Tensor(z), Tensor(y), pos_weight)
        assert loss.item() == pytest.approx(
            weighted_bce_oracle(z, y, pos_weight), rel=1e-10
        )

    def test_bce_validation(self):
        z = Tensor(np.zeros((1, 1, 2, 2)))
        with pytest.raises(ValueError, match="logits"):
            weighted_bce_with_logits(z, Tensor(np.zeros((1, 1, 3, 3))))
        with pytest.raises(ValueError, match="binary"):
            weighted_bce_with_logits(z, Tensor(np.full((1, 1, 2, 2), 0.5)))
        with pytest.raises(ValueError, match="pos_weight"):
            weighted_bce_with_logits(z, Tensor(np.zeros((1, 1, 2, 2))), 0.0)

    def test_bce_extreme_logits_finite(self):
        z = Tensor(np.array([[[[1000.0, -1000.0]]]]))
        y = Tensor(np.array([[[[0.0, 1.0]]]]))
        loss = weighted_bce_with_logits(z, y)
        assert math.isfinite(loss.item())
        assert loss.item() == pytest.approx(1000.0, rel=1e-12)

    @given(z=st.floats(-30.0, 30.0))
    def test_sigmoid_matches_scalar_oracle(self, z):
        got = float(sigmoid_values(np.array([z]))[0])
        assert got == pytest.approx(sigmoid_scalar(z), rel=1e-14)

    def test_sigmoid_extremes_stay_in_unit_interval(self):
        vals = sigmoid_values(np.array([-1000.0, -50.0, 50.0, 1000.0]))
        assert np.all(np.isfinite(vals))
        assert np.all(vals >= 0.0) and np.all(vals <= 1.0)
        # float64 underflows the far negative tail all the way to zero
        assert 0.0 <= vals[0] <= 1e-300
        assert vals[3] == 1.0

    @given(z=st.floats(-1000.0, 1000.0))
    def test_softplus_matches_scalar_oracle(self, z):
        got = float(softplus_values(np.array([z]))[0])
        assert got == pytest.approx(softplus_scalar(z), rel=1e-14, abs=1e-300)
        assert math.isfinite(got) and got >= 0.0

    def test_float32_pipeline_stays_float32(self):
        x = Tensor(np.ones((1, 2, 4, 4), dtype=np.float32))
        k = Tensor(np.ones((3, 2, 3, 3), dtype=np.float32))
        b = Tensor(np.zeros(3, dtype=np.float32))
        out = max_pool_2x2(relu(conv2d(x, k, b)))
        assert out.data.dtype == np.float32


def fd_check(make_loss, arrays: dict[str, np.ndarray], tol=1e-6):
    """Compare analytic gradients with central differences for every input."""
    tensors = {k: Tensor(v.astype(np.float64), requires_grad=True) for k, v in arrays.items()}
    make_loss(tensors).backward()
    for name in arrays:
        def f(arr, _name=name):
            probe = {
                k: Tensor(t.data if k != _name else arr) for k, t in tensors.items()
            }
            return float(make_loss(probe).data)

        numerical = finite_difference_grad(f, arrays[name].astype(np.float64))
        err = gradcheck_rel_error(numerical, tensors[name].grad)
        assert err < tol, f"gradient mismatch for {name!r}: rel err {err:.3e}"


def _projected(out: Tensor, seed: int) -> Tensor:
    """Scalar loss sensitive to every output cell (fixed random projection)."""
    proj = np.random.default_rng(seed).normal(size=out.data.shape)
    return (out * Tensor(proj)).sum()


class TestGradcheck:
    def test_conv2d(self):
        rng = np.random.default_rng(0)
        fd_check(
            lambda t: _projected(conv2d(t["x"], t["k"], t["b"]), 99),
            {
                "x": rng.normal(size=(2, 2, 4, 3)),
                "k": rng.normal(size=(3, 2, 3, 3)),
                "b": rng.normal(size=3),
            },
        )

    def test_transposed_conv(self):
        rng = np.random.default_rng(1)
        fd_check(
            lambda t: _projected(transposed_conv_2x2(t["x"], t["k"], t["b"]), 98),
            {
                "x": rng.normal(size=(2, 3, 3, 2)),
                "k": rng.normal(size=(3, 2, 2, 2)),
                "b": rng.normal(size=2),
            },
        )

    def test_max_pool(self):
        # distinct values everywhere keep the argmax stable under FD probes
        x = np.random.default_rng(2).permutation(48).astype(np.float64).reshape(1, 2, 4, 6)
        fd_check(lambda t: _projected(max_pool_2x2(t["x"]), 97), {"x": x})

    def test_relu(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(2, 2, 3, 3))
        x = np.where(np.abs(x) < 0.05, 0.5, x)  # keep FD probes off the kink
        fd_check(lambda t: _projected(relu(t["x"]), 96), {"x": x})

    def test_bce(self):
        rng = np.random.default_rng(5)
        y = (rng.uniform(size=(2, 1, 4, 4)) > 0.5).astype(np.float64)
        fd_check(
            lambda t: weighted_bce_with_logits(t["z"], Tensor(y), pos_weight=7.0),
            {"z": rng.normal(scale=2.0, size=(2, 1, 4, 4))},
        )

    def test_crop(self):
        rng = np.random.default_rng(6)
        fd_check(
            lambda t: _projected(crop_spatial(t["x"], 3, 2), 94),
            {"x": rng.normal(size=(1, 2, 5, 4))},
        )

    def test_concat(self):
        rng = np.random.default_rng(7)
        fd_check(
            lambda t: _projected(concat_channels(t["a"], t["b"]), 93),
            {
                "a": rng.normal(size=(2, 2, 3, 3)),
                "b": rng.normal(size=(2, 3, 3, 3)),
            },
        )

    def test_add_mul_sum(self):
        rng = np.random.default_rng(8)
        fd_check(
            lambda t: ((t["a"] + t["b"]) * t["a"]).sum(),
            {"a": rng.normal(size=(3, 3)), "b": rng.normal(size=(3, 3))},
        )

    def test_composite_stage(self):
        # one encoder stage end to end: conv, relu, pool, loss
        rng = np.random.default_rng(9)

        def stage(t):
            h = relu(conv2d(t["x"], t["k"], t["b"]))
            return _projected(max_pool_2x2(h), 92)

        fd_check(
            stage,
            {
                "x": rng.normal(size=(1, 2, 4, 4)),
                "k": rng.normal(size=(2, 2, 3, 3)),
                "b": rng.normal(size=2),
            },
        )


def _conv_case(seed, batch, cin, cout, h, w, dtype=np.float64):
    rng = np.random.default_rng(seed)
    return tuple(
        rng.normal(size=shape).astype(dtype)
        for shape in ((batch, cin, h, w), (cout, cin, 3, 3), (cout,), (batch, cout, h, w))
    )


def _net_conv_shapes(config: UNetConfig, batch: int, side: int):
    """(input shape, kernel shape) of every 3x3 conv of the U-Net at a
    batch of side x side inputs."""
    shapes = []
    for name, shape in parameter_schema(config):
        if shape[2:] != (3, 3):  # biases and the 2x2 up-convs
            continue
        prefix = name.split(".")[0]  # encN, bottleneck, decN or head
        if prefix == "head":
            level = 0
        elif prefix == "bottleneck":
            level = config.depth
        else:
            level = int(prefix[3:])
        shapes.append(((batch, shape[1], side >> level, side >> level), shape))
    return shapes


# (net, batch sizes, input side): the train net (CLI defaults, 100 px chips
# padded to 112), the scene benchmark's checkpoint net at 256 px tiles and at
# the 128 and 512 px tiles an ``inference.tile_size`` can give, and the
# depth-2, 8-filter net C5 ablates at each band set's width
_NETS = [
    (UNetConfig(), (11, 3), 112),
    (UNetConfig(depth=2, base_filters=8), (5, 1), 256),
    *((UNetConfig(depth=2, base_filters=8), (1,), side) for side in (128, 512)),
    *((UNetConfig(c, depth=2, base_filters=8), (3,), 112) for c in (3, 4, 5, 6)),
]
_BLOCKED_CONV_CASES = list(
    dict.fromkeys(
        [
            *(
                (*shapes, np.float32)
                for config, batches, side in _NETS
                for b in batches
                for shapes in _net_conv_shapes(config, b, side)
            ),
            # grids of 12393 and 9471 columns: three blocks, and two whose
            # last absorbs a remainder, neither a multiple of 64
            ((2, 32, 81, 151), (32, 32, 3, 3), np.float32),
            ((2, 32, 77, 121), (32, 32, 3, 3), np.float32),
            ((2, 32, 81, 151), (1, 32, 3, 3), np.float64),
            ((2, 1, 81, 151), (32, 1, 3, 3), np.float64),
        ]
    )
)


def _case_id(value):
    if isinstance(value, tuple):
        return "x".join(map(str, value))
    return None


class TestConv2dGradients:
    @pytest.mark.parametrize("needs", list(itertools.product((False, True), repeat=3)))
    def test_requires_grad_combinations(self, needs):
        x, k, b, g = _conv_case(11, 2, 3, 2, 4, 5)
        out = conv2d(*(Tensor(a, requires_grad=r) for a, r in zip((x, k, b), needs)))
        assert out.requires_grad == any(needs)
        if not any(needs):
            assert out._grad_fn is None
            return
        grads = out._grad_fn(g)
        for got, want, needed in zip(grads, conv2d_grad_oracle(x, k, g), needs):
            if needed:
                assert got.shape == want.shape
                assert np.allclose(got, want, atol=1e-10)
            else:
                assert got is None

    @pytest.mark.parametrize(
        "batch, cin, cout, h, w",
        [
            (1, 2, 3, 1, 1),
            (2, 2, 3, 1, 7),
            (2, 2, 3, 7, 1),
            (1, 2, 3, 5, 9),
            (2, 1, 3, 4, 5),
            (2, 3, 1, 5, 4),
            (1, 1, 1, 3, 2),
        ],
    )
    def test_degenerate_and_non_square_shapes(self, batch, cin, cout, h, w):
        x, k, b, g = _conv_case(12, batch, cin, cout, h, w)
        out = conv2d(*(Tensor(a, requires_grad=True) for a in (x, k, b)))
        assert np.allclose(out.data, conv2d_oracle(x, k, b), atol=1e-10)
        for got, want in zip(out._grad_fn(g), conv2d_grad_oracle(x, k, g)):
            assert got.shape == want.shape
            assert np.allclose(got, want, atol=1e-10)

    def test_float32_stays_float32(self):
        x, k, b, g = _conv_case(13, 2, 3, 4, 6, 5, dtype=np.float32)
        out = conv2d(*(Tensor(a, requires_grad=True) for a in (x, k, b)))
        assert out.data.dtype == np.float32
        grads = out._grad_fn(g)
        assert [a.dtype for a in grads] == [np.float32] * 3
        for got, want in zip(grads, conv2d_grad_oracle(x, k, g)):
            assert np.allclose(got, want, rtol=1e-4, atol=1e-4)

    def test_grad_mode_output_keeps_no_padded_copy(self):
        rng = np.random.default_rng(5)
        k = Tensor(rng.normal(size=(8, 16, 3, 3)).astype(np.float32), requires_grad=True)
        b = Tensor(np.zeros(8, dtype=np.float32), requires_grad=True)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            x = Tensor(np.ones((2, 16, 64, 64), dtype=np.float32), requires_grad=True)
            out = conv2d(x, k, b)
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        # a padded copy of x would add (66 * 66 + 2) / (64 * 64) of x
        assert kept <= x.data.nbytes + out.data.nbytes + 32 * 1024
        assert out._grad_fn is not None

    def test_weight_gradient_holds_no_per_image_stack(self):
        # the 256 -> 256 conv at 7 x 7, batch 11: a [b, 9, out, in] stack of
        # per-image weight gradients would alone take 25.9 MB
        rng = np.random.default_rng(16)
        x, g = (rng.normal(size=(11, 256, 7, 7)).astype(np.float32) for _ in range(2))
        k = rng.normal(size=(256, 256, 3, 3)).astype(np.float32) * 0.01
        out = conv2d(*(Tensor(a, requires_grad=True) for a in (x, k, np.zeros(256, np.float32))))
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            grads = out._grad_fn(g)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert grads[1].shape == k.shape
        assert peak < 11 * 9 * 256 * 256 * 4

    def test_grad_mode_relu_of_conv_holds_one_activation(self):
        rng = np.random.default_rng(6)
        k = Tensor(rng.normal(size=(8, 16, 3, 3)).astype(np.float32), requires_grad=True)
        b = Tensor(np.zeros(8, dtype=np.float32), requires_grad=True)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            x = Tensor(np.ones((2, 16, 64, 64), dtype=np.float32), requires_grad=True)
            y = relu(conv2d(x, k, b))
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        # the graph keeps relu's output for its mask, not the conv's output
        # (another 2 * 8 * 64 * 64 float32 values)
        assert kept <= x.data.nbytes + y.data.nbytes + 32 * 1024
        assert y._parents[0]._grad_fn is not None

    @pytest.mark.parametrize(
        "shape, dtype", [((11, 16, 112, 112), np.float32), ((2, 3, 5, 7), np.float64)]
    )
    def test_one_input_channel_is_bitwise_the_gemm_loop(self, shape, dtype):
        # the head conv's input gradient (16 -> 1 at batch 11, 112 px): taps
        # [9, out, 1]. g is zero in its lower half, as a crop's gradient
        # leaves it, and channel 0's taps are all negative, so its products
        # there are -0.0; the GEMM loop gives +0.0 for them.
        b, cout, h, w = shape
        rng = np.random.default_rng(15)
        g = rng.normal(size=(b, 1, h, w)).astype(dtype)
        g[:, :, h // 2 :] = 0.0
        taps = rng.normal(size=(9, cout, 1)).astype(dtype)
        taps[:, 0] = -np.abs(taps[:, 0])
        gp = _pad_flat(g, dtype)
        n = h * (w + 2)
        want = np.matmul(taps[0], gp[:, :, :n])
        for t, off in enumerate(_tap_offsets(w)[1:], start=1):
            want += np.matmul(taps[t], gp[:, :, off : off + n])
        want = want.reshape(b, cout, h, w + 2)[:, :, :, :w]
        got = _interior(_correlate3(gp, taps, h, w), h, w)
        assert got.dtype == dtype and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "x_shape, k_shape, dtype", _BLOCKED_CONV_CASES, ids=_case_id
    )
    def test_blocked_conv_is_bitwise_the_batched_conv(self, x_shape, k_shape, dtype):
        rng = np.random.default_rng(x_shape[2] * 1000 + k_shape[0])
        x, k, bias = (rng.normal(size=s).astype(dtype) for s in (x_shape, k_shape, k_shape[:1]))
        g = rng.normal(size=(x_shape[0], k_shape[0], *x_shape[2:])).astype(dtype)
        for a in (x, g):  # -0.0 inputs, and a gradient that is zero in part
            a.reshape(-1)[::7] = -0.0
        g[:, :, : x_shape[2] // 3] = 0.0
        out = conv2d(*(Tensor(a, requires_grad=True) for a in (x, k, bias)))
        got = (out.data, *out._grad_fn(g))
        want = conv2d_batched_oracle(x, k, bias, g)
        for name, a, b in zip(("out", "gx", "gw", "gb"), got, want):
            assert a.dtype == b.dtype and a.shape == b.shape, name
            assert a.tobytes() == b.tobytes(), name

    def test_column_blocks_tile_the_grid(self):
        for cin, cout, n in [(32, 32, 12393), (32, 32, 9471), (6, 8, 66048), (8, 1, 100)]:
            blocks = _column_blocks(cin, cout, n, 4)
            assert blocks[0][0] == 0 and blocks[-1][1] == n
            assert all(a[1] == b[0] for a, b in zip(blocks, blocks[1:]))
            assert all((c1 - c0) % 64 == 0 for c0, c1 in blocks[:-1])
            assert len(blocks) == 1 or min(c1 - c0 for c0, c1 in blocks) >= 4096
        assert len(_column_blocks(32, 32, 12393, 4)) == 3
        assert len(_column_blocks(32, 32, 9471, 4)) == 2
        # few channels: every tap's GEMM, the remainder's included, has
        # M*N*K <= 10**6 and so takes OpenBLAS's small-matrix kernel
        for cin, cout, n in [(16, 8, 66048), (32, 16, 16640), (16, 16, 12768)]:
            blocks = _column_blocks(cin, cout, n, 4)
            assert blocks[0][0] == 0 and blocks[-1][1] == n and len(blocks) > 1
            assert all(a[1] == b[0] for a, b in zip(blocks, blocks[1:]))
            assert all((c1 - c0) % 64 == 0 for c0, c1 in blocks[:-1])
            assert all(1024 <= c1 - c0 and cin * cout * (c1 - c0) <= 10**6 for c0, c1 in blocks)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=20)
    def test_adjoint_identity(self, seed):
        # with zero bias, conv is linear in x and in the kernel separately
        x, k, _, g = _conv_case(seed, 2, 3, 4, 6, 5)
        out = conv2d(Tensor(x, requires_grad=True), Tensor(k, requires_grad=True), Tensor(np.zeros(4)))
        gx, gk, _ = out._grad_fn(g)
        lhs = float(np.sum(out.data * g))
        assert lhs == pytest.approx(float(np.sum(x * gx)), rel=1e-12, abs=1e-12)
        assert lhs == pytest.approx(float(np.sum(k * gk)), rel=1e-12, abs=1e-12)


def _tie_heavy(kind, seed, shape, dtype):
    """relu-zeroed normals (many all-zero windows) or integers in 0..2."""
    rng = np.random.default_rng(seed)
    if kind == "relu":
        return np.maximum(rng.normal(size=shape), 0).astype(dtype)
    return rng.integers(0, 3, size=shape).astype(dtype)


def _linear_grad(f, arr: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Gradient of sum(g * f(arr)) for f linear in arr, one unit input at a time."""
    grad = np.zeros(arr.shape)
    for idx in np.ndindex(arr.shape):
        unit = np.zeros(arr.shape)
        unit[idx] = 1.0
        grad[idx] = np.sum(g * f(unit))
    return grad


class TestPoolAndUpconvGradients:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("kind", ["relu", "int"])
    @pytest.mark.parametrize("seed", range(5))
    def test_max_pool_ties_match_oracle(self, dtype, kind, seed):
        x = _tie_heavy(kind, seed, (2, 3, 6, 8), dtype)
        g = np.random.default_rng(100 + seed).normal(size=(2, 3, 3, 4)).astype(dtype)
        out = max_pool_2x2(Tensor(x, requires_grad=True))
        assert out.data.dtype == dtype
        assert np.array_equal(out.data, max_pool_2x2_oracle(x))
        (gx,) = out._grad_fn(g)
        assert gx.dtype == dtype
        assert np.array_equal(gx, max_pool_2x2_grad_oracle(x, g))

    def test_max_pool_gradient_keeps_signed_zeros(self):
        # routed -0.0 stays -0.0, and every other cell is +0.0
        x = np.array([[[[1.0, 1.0], [0.0, 1.0]]]])
        out = max_pool_2x2(Tensor(x, requires_grad=True))
        (gx,) = out._grad_fn(np.array([[[[-0.0]]]]))
        assert np.array_equal(np.signbit(gx), [[[[True, False], [False, False]]]])

    @pytest.mark.parametrize(
        "batch, cin, cout, h, w",
        [(1, 1, 1, 1, 1), (2, 1, 3, 2, 3), (2, 3, 1, 3, 2), (1, 2, 2, 1, 4), (2, 2, 3, 4, 1)],
    )
    def test_transposed_conv_gradients_match_oracle(self, batch, cin, cout, h, w):
        rng = np.random.default_rng(batch * 100 + cin * 10 + cout)
        x = rng.normal(size=(batch, cin, h, w))
        k = rng.normal(size=(cin, cout, 2, 2))
        g = rng.normal(size=(batch, cout, 2 * h, 2 * w))
        zero = np.zeros(cout)
        out = transposed_conv_2x2(
            Tensor(x, requires_grad=True), Tensor(k, requires_grad=True), Tensor(zero)
        )
        gx, gk, gb = out._grad_fn(g)
        assert gb is None
        assert gx.shape == x.shape and gk.shape == k.shape
        want_gx = _linear_grad(lambda u: transposed_conv_2x2_oracle(u, k, zero), x, g)
        want_gk = _linear_grad(lambda u: transposed_conv_2x2_oracle(x, u, zero), k, g)
        assert np.allclose(gx, want_gx, atol=1e-12)
        assert np.allclose(gk, want_gk, atol=1e-12)
        # adjoint identity: the op is linear in x and in the kernel separately
        lhs = float(np.sum(out.data * g))
        assert lhs == pytest.approx(float(np.sum(x * gx)), rel=1e-12, abs=1e-12)
        assert lhs == pytest.approx(float(np.sum(k * gk)), rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize(
        "batch, cin, cout, h, w",
        [(1, 1, 1, 1, 1), (3, 1, 3, 2, 3), (2, 3, 1, 3, 2), (5, 2, 2, 1, 4), (11, 64, 32, 14, 14), (11, 32, 16, 28, 28)],
    )
    def test_transposed_conv_gradients_are_bitwise_the_stacked_products(self, batch, cin, cout, h, w, dtype):
        # the kernel gradient sums image by image: the bits of summing the
        # stack of per-image products over the batch, for an input held in
        # the padded layout (as pooling and relu write it) or contiguous
        rng = np.random.default_rng(batch * 100 + cin)
        x = _with_signed_zeros(rng, (batch, cin, h, w), dtype)
        k, bias = (rng.normal(size=s).astype(dtype) for s in ((cin, cout, 2, 2), (cout,)))
        g = _with_signed_zeros(rng, (batch, cout, 2 * h, 2 * w), dtype)
        want = transposed_conv_2x2_grads_oracle(x, k, g)
        for held in (Tensor(x, requires_grad=True), _padded(x)):
            held.requires_grad = True
            out = transposed_conv_2x2(held, *(Tensor(a, requires_grad=True) for a in (k, bias)))
            for name, got, expected in zip(("gx", "gk", "gb"), out._grad_fn(g), want):
                assert got.dtype == expected.dtype and got.shape == expected.shape, name
                assert got.tobytes() == expected.tobytes(), name

    def test_transposed_conv_float32_stays_float32(self):
        rng = np.random.default_rng(14)
        x, k, b = (rng.normal(size=s).astype(np.float32) for s in ((2, 3, 4, 5), (3, 2, 2, 2), (2,)))
        g = rng.normal(size=(2, 2, 8, 10)).astype(np.float32)
        out = transposed_conv_2x2(*(Tensor(a, requires_grad=True) for a in (x, k, b)))
        assert out.data.dtype == np.float32
        assert np.allclose(out.data, transposed_conv_2x2_oracle(x, k, b), rtol=1e-5, atol=1e-5)
        assert [a.dtype for a in out._grad_fn(g)] == [np.float32] * 3


def _padded(a):
    """A Tensor of ``a`` held in the padded layout, as an op writes it."""
    flat = _pad_flat(a, a.dtype)
    t = Tensor(_interior(flat, *a.shape[2:]))
    t._flat = flat
    return t


def _with_signed_zeros(rng, shape, dtype):
    a = rng.normal(size=shape).astype(dtype)
    a.reshape(-1)[::5] = -0.0
    a.reshape(-1)[1::7] = 0.0
    return a


def _pool_fold(x):
    """2x2 max pooling as a fold over the four window views from the last
    one, on a contiguous input: the reference for pooling's bits."""
    views = [x[:, :, dy::2, dx::2] for dy, dx in ((0, 0), (0, 1), (1, 0), (1, 1))]
    out = np.maximum(views[3], views[2])
    np.maximum(out, views[1], out=out)
    return np.maximum(out, views[0], out=out)


_DTYPES = [np.float32, np.float64]


class TestPaddedLayout:
    """conv, relu, pooling, the up-conv and concatenation write the padded
    layout (``Tensor._flat``) that the next conv reads, whether or not they
    record a gradient. Its border must be zero bits, even where a conv's
    column blocks wrote sums into it, and its interior must hold the bits of
    the contiguous result."""

    @staticmethod
    def _assert_buffer(flat, data, want):
        """``data``, the interior view of the buffer ``flat``, holds the bits
        of ``want``, and the border of ``flat`` is zero bits."""
        b, c, h, w = want.shape
        assert flat.shape == (b, c, (h + 2) * (w + 2) + 2) and flat.dtype == want.dtype
        border = np.ones(flat.shape[2], dtype=bool)
        border[: (h + 2) * (w + 2)].reshape(h + 2, w + 2)[1:-1, 1:-1] = False
        # top and bottom rows, left and right columns, two trailing cells
        assert border.sum() == 2 * (w + 2) + 2 * h + 2
        assert not flat[:, :, border].view(f"u{flat.itemsize}").any()
        assert data.dtype == want.dtype and data.shape == want.shape
        assert data.tobytes() == want.tobytes()

    @classmethod
    def _assert_padded(cls, out, want):
        flat = out._flat
        assert flat is not None and out.data.base is flat
        cls._assert_buffer(flat, out.data, want)

    @classmethod
    def _assert_padded_grad(cls, got, want):
        """The gradient ``got`` is the interior view of a zero-bordered
        padded-layout buffer (or of a range of its channels) and holds the
        bits of ``want``, the contiguous gradient."""
        flat = numerics._buffer(got, got.base)
        assert flat is not None
        cls._assert_buffer(flat, got, want)

    @classmethod
    def _assert_padded_in_both_modes(cls, op, inputs, want):
        """``op(*inputs)`` writes ``want`` in the padded layout under
        ``no_grad`` and where every input needs a gradient."""
        with no_grad():
            cls._assert_padded(op(*inputs), want)
        for t in inputs:
            t.requires_grad = True
        out = op(*inputs)
        assert out._grad_fn is not None
        cls._assert_padded(out, want)

    @pytest.mark.parametrize("dtype", _DTYPES)
    @pytest.mark.parametrize("padded_input", [False, True])
    @pytest.mark.parametrize(
        "batch, cin, cout, h, w",
        [
            (2, 3, 4, 1, 1),
            (2, 2, 3, 1, 6),
            (2, 2, 3, 6, 1),
            (2, 1, 4, 5, 7),
            # a grid of 64 * 130 = 8320 columns: two blocks, the last from
            # 4096 on, writing through the first cell of the bottom row
            (1, 32, 32, 64, 128),
        ],
        ids=_case_id,
    )
    def test_conv(self, batch, cin, cout, h, w, padded_input, dtype):
        x, k, bias, g = _conv_case(h * 100 + w, batch, cin, cout, h, w, dtype)
        x.reshape(-1)[::5] = -0.0
        bias += 3.0  # every wrap-around cell the taps write is nonzero
        n = h * (w + 2)
        assert len(_column_blocks(cin, cout, n, x.itemsize)) == (2 if n > 8192 else 1)
        inputs = (_padded(x) if padded_input else Tensor(x), Tensor(k), Tensor(bias))
        self._assert_padded_in_both_modes(conv2d, inputs, conv2d_batched_oracle(x, k, bias, g)[0])

    @pytest.mark.parametrize("dtype", _DTYPES)
    @pytest.mark.parametrize("padded_input", [False, True])
    @pytest.mark.parametrize("shape", [(2, 3, 1, 1), (1, 2, 1, 5), (2, 1, 4, 1), (2, 3, 6, 9)], ids=_case_id)
    def test_relu(self, shape, padded_input, dtype):
        x = _with_signed_zeros(np.random.default_rng(shape[3]), shape, dtype)
        inputs = (_padded(x) if padded_input else Tensor(x),)
        self._assert_padded_in_both_modes(relu, inputs, np.maximum(x, 0))

    @pytest.mark.parametrize("dtype", _DTYPES)
    @pytest.mark.parametrize("padded_input", [False, True])
    @pytest.mark.parametrize("shape", [(2, 3, 2, 2), (1, 2, 2, 8), (2, 1, 6, 2), (2, 3, 8, 10)], ids=_case_id)
    def test_max_pool(self, shape, padded_input, dtype):
        for kind in ("relu", "int"):
            x = _tie_heavy(kind, shape[2], shape, dtype)
            x[x == 0] = np.where(np.random.default_rng(0).random((x == 0).sum()) < 0.5, -0.0, 0.0)
            inputs = (_padded(x) if padded_input else Tensor(x),)
            self._assert_padded_in_both_modes(max_pool_2x2, inputs, _pool_fold(x))

    @pytest.mark.parametrize("dtype", _DTYPES)
    @pytest.mark.parametrize("padded_input", [False, True])
    @pytest.mark.parametrize(
        "batch, cin, cout, h, w", [(2, 3, 2, 1, 1), (1, 1, 3, 2, 5), (2, 4, 1, 3, 1)], ids=_case_id
    )
    def test_transposed_conv(self, batch, cin, cout, h, w, padded_input, dtype):
        rng = np.random.default_rng(h * 10 + w)
        x = _with_signed_zeros(rng, (batch, cin, h, w), dtype)
        k, bias = (rng.normal(size=s).astype(dtype) for s in ((cin, cout, 2, 2), (cout,)))
        # the contiguous result: the op's one GEMM, its taps interleaved
        taps = k.transpose(2, 3, 1, 0).reshape(4 * cout, cin)
        y = np.matmul(taps, x.reshape(batch, cin, h * w)).reshape(batch, 2, 2, cout, h, w)
        want = (y + bias[:, None, None]).transpose(0, 3, 4, 1, 5, 2).reshape(batch, cout, 2 * h, 2 * w)
        inputs = (_padded(x) if padded_input else Tensor(x), Tensor(k), Tensor(bias))
        self._assert_padded_in_both_modes(transposed_conv_2x2, inputs, want)

    @pytest.mark.parametrize("dtypes", [(np.float32,) * 2, (np.float64,) * 2, (np.float32, np.float64)])
    @pytest.mark.parametrize("padded", [(False, False), (True, False), (True, True)])
    @pytest.mark.parametrize("shape", [(2, 1, 1, 1), (1, 2, 1, 4), (2, 3, 5, 1), (2, 2, 4, 6)], ids=_case_id)
    def test_concat(self, shape, padded, dtypes):
        rng = np.random.default_rng(shape[2])
        a = _with_signed_zeros(rng, shape, dtypes[0])
        b = _with_signed_zeros(rng, (shape[0], 3, *shape[2:]), dtypes[1])
        inputs = tuple(_padded(v) if p else Tensor(v) for v, p in zip((a, b), padded))
        self._assert_padded_in_both_modes(concat_channels, inputs, np.concatenate([a, b], axis=1))

    def test_grad_mode_outputs_are_padded(self):
        rng = np.random.default_rng(4)
        x = Tensor(rng.normal(size=(2, 3, 4, 6)), requires_grad=True)
        c = conv2d(x, Tensor(rng.normal(size=(3, 3, 3, 3))), Tensor(rng.normal(size=3)))
        k, bias = Tensor(rng.normal(size=(3, 2, 2, 2))), Tensor(rng.normal(size=2))
        for out in (c, relu(c), max_pool_2x2(c), transposed_conv_2x2(c, k, bias), concat_channels(c, c)):
            assert out._grad_fn is not None
            self._assert_padded(out, np.ascontiguousarray(out.data))

    def test_reassigned_data_is_read_not_the_old_buffer(self):
        x, k, bias, g = _conv_case(6, 1, 2, 3, 4, 5)
        with no_grad():
            t = relu(Tensor(x))
            t.data = x  # relu's buffer is stale now
            out = conv2d(t, Tensor(k), Tensor(bias))
        self._assert_padded(out, conv2d_batched_oracle(x, k, bias, g)[0])

    @pytest.mark.parametrize("record", [False, True], ids=["no_grad", "grad"])
    def test_data_sliced_from_its_buffer_is_read_as_the_slice(self, record):
        # a slice of the buffer views it too, but with another geometry
        x, k, bias, _ = _conv_case(7, 2, 3, 3, 6, 6)
        k2, bias2, g = _conv_case(8, 2, 3, 4, 4, 4)[1:]
        params = (Tensor(k, requires_grad=record), Tensor(bias), Tensor(k2, requires_grad=record), Tensor(bias2))
        with nullcontext() if record else no_grad():
            t = relu(conv2d(Tensor(x), *params[:2]))
        assert (t._grad_fn is not None) == record
        t.data = t.data[:, :, :4, :4]
        crop = np.ascontiguousarray(t.data)
        want = conv2d_batched_oracle(crop, k2, bias2, g)
        out = conv2d(t, *params[2:])
        self._assert_padded(out, want[0])
        if record:
            assert np.array_equal(out._grad_fn(g)[1], want[2])

    @pytest.mark.parametrize("dtype", _DTYPES)
    @pytest.mark.parametrize("padded_g", [False, True], ids=["contiguous_g", "padded_g"])
    @pytest.mark.parametrize(
        "batch, cin, cout, h, w",
        [(2, 3, 4, 1, 1), (2, 2, 3, 1, 6), (2, 3, 1, 5, 7), (3, 2, 3, 6, 1), (2, 4, 5, 9, 8)],
        ids=_case_id,
    )
    def test_conv_gradients(self, batch, cin, cout, h, w, padded_g, dtype):
        # g as the loss gives it (contiguous) or as relu's gradient does;
        # either way the input gradient is padded, and every gradient has
        # the bits of the contiguous computation, the bias sum's included
        x, k, bias, g = _conv_case(h * 10 + w, batch, cin, cout, h, w, dtype)
        for a in (x, g):
            a.reshape(-1)[::5] = -0.0
        g[:, :, : h // 2] = 0.0
        want = conv2d_batched_oracle(x, k, bias, g)
        out = conv2d(*(Tensor(a, requires_grad=True) for a in (x, k, bias)))
        gx, gw, gb = out._grad_fn(_padded(g).data if padded_g else g)
        self._assert_padded_grad(gx, want[1])
        for got, expected in ((gw, want[2]), (gb, want[3])):
            assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("dtype", _DTYPES)
    @pytest.mark.parametrize(
        "shape", [(11, 16, 112, 112), (2, 3, 130, 130), (3, 1, 50, 40), (4, 2, 1, 1), (1, 4, 7, 7)], ids=_case_id
    )
    def test_channel_sums_of_a_padded_g_are_the_contiguous_sums(self, shape, dtype):
        # numpy sums a contiguous g one (image, channel) run at a time,
        # pairwise, runs of more than 8192 cells included
        g = _with_signed_zeros(np.random.default_rng(shape[1]), shape, dtype)
        g[:, 1:2] = -0.0  # a channel of -0.0 only
        got = numerics._channel_sums(_padded(g).data)
        assert got.dtype == dtype and got.tobytes() == g.sum(axis=(0, 2, 3)).tobytes()

    @pytest.mark.parametrize("dtype", _DTYPES)
    @pytest.mark.parametrize("padded_g", [False, True], ids=["contiguous_g", "padded_g"])
    @pytest.mark.parametrize("shape", [(2, 3, 1, 1), (1, 2, 1, 5), (2, 1, 4, 1), (2, 3, 6, 9)], ids=_case_id)
    def test_relu_gradient(self, shape, padded_g, dtype):
        rng = np.random.default_rng(shape[3])
        x, g = (_with_signed_zeros(rng, shape, dtype) for _ in range(2))
        gin = _padded(g).data if padded_g else g.copy()
        (got,) = relu(Tensor(x, requires_grad=True))._grad_fn(gin)
        # g * 0 is -0.0 where g < 0: the multiply, not a masked copy
        self._assert_padded_grad(got, g * (np.maximum(x, 0) > 0))
        assert gin.tobytes() == g.tobytes()  # the incoming gradient is left alone

    @pytest.mark.parametrize("dtype", _DTYPES)
    @pytest.mark.parametrize("padded_g", [False, True], ids=["contiguous_g", "padded_g"])
    @pytest.mark.parametrize("shape", [(2, 3, 2, 2), (1, 2, 2, 8), (2, 1, 6, 2), (2, 3, 8, 10)], ids=_case_id)
    def test_max_pool_gradient(self, shape, padded_g, dtype):
        x = _tie_heavy("relu", shape[2], shape, dtype)
        g = _with_signed_zeros(np.random.default_rng(shape[3]), (shape[0], shape[1], shape[2] // 2, shape[3] // 2), dtype)
        (got,) = max_pool_2x2(Tensor(x, requires_grad=True))._grad_fn(_padded(g).data if padded_g else g)
        self._assert_padded_grad(got, max_pool_2x2_grad_oracle(x, g))

    @pytest.mark.parametrize("dtype", _DTYPES)
    @pytest.mark.parametrize("shape", [(2, 1, 1, 1), (1, 2, 1, 4), (2, 3, 5, 1), (2, 2, 4, 6)], ids=_case_id)
    def test_concat_gradient_splits_the_padded_g(self, shape, dtype):
        rng = np.random.default_rng(shape[2])
        a, b = (Tensor(rng.normal(size=(shape[0], c, *shape[2:])).astype(dtype), requires_grad=True) for c in (shape[1], 3))
        g = _with_signed_zeros(rng, (shape[0], shape[1] + 3, *shape[2:]), dtype)
        gin = _padded(g).data
        ga, gb = concat_channels(a, b)._grad_fn(gin)
        for got, want in ((ga, g[:, : shape[1]]), (gb, g[:, shape[1] :])):
            self._assert_padded_grad(got, np.ascontiguousarray(want))
            assert got.base is gin.base  # channel ranges of g's buffer, not copies

    @pytest.mark.parametrize("dtype", _DTYPES)
    @pytest.mark.parametrize("batch, cin, cout, h, w", [(2, 3, 2, 1, 1), (1, 1, 3, 2, 5), (2, 4, 1, 3, 1), (3, 2, 4, 4, 3)], ids=_case_id)
    def test_transposed_conv_gradients_of_a_padded_g(self, batch, cin, cout, h, w, dtype):
        # concatenation hands the up-conv a padded g: its gradients, the
        # bias sum's included, have the bits that a contiguous g gives
        rng = np.random.default_rng(h * 10 + w)
        x = _with_signed_zeros(rng, (batch, cin, h, w), dtype)
        k, bias = (rng.normal(size=s).astype(dtype) for s in ((cin, cout, 2, 2), (cout,)))
        g = _with_signed_zeros(rng, (batch, cout, 2 * h, 2 * w), dtype)
        out = transposed_conv_2x2(*(Tensor(a, requires_grad=True) for a in (x, k, bias)))
        want = out._grad_fn(g)
        for got, expected in zip(out._grad_fn(_padded(g).data), want):
            assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("cut", ["rows", "batch", "channels"])
    def test_gradient_sliced_from_its_buffer_is_read_as_the_slice(self, cut):
        # a gradient re-sliced by rows or images views a padded buffer with
        # another geometry and is padded anew; a range of a buffer's
        # channels, as concatenation's gradient splits one, is a buffer
        x, k, bias, _ = _conv_case(9, 2, 3, 4, 4, 4)
        rng = np.random.default_rng(9)
        shape, index = {
            "rows": ((2, 4, 6, 6), np.s_[:, :, :4, :4]),
            "batch": ((3, 4, 4, 4), np.s_[1:]),
            "channels": ((2, 5, 4, 4), np.s_[:, 1:]),
        }[cut]
        g = _padded(_with_signed_zeros(rng, shape, np.float64)).data[index]
        assert (numerics._buffer(g, g.base) is not None) == (cut == "channels")
        want = conv2d_batched_oracle(x, k, bias, np.ascontiguousarray(g))
        out = conv2d(*(Tensor(a, requires_grad=True) for a in (x, k, bias)))
        gx, gw, gb = out._grad_fn(g)
        self._assert_padded_grad(gx, want[1])
        assert gw.tobytes() == want[2].tobytes() and gb.tobytes() == want[3].tobytes()

    @pytest.mark.parametrize("record", [False, True], ids=["no_grad", "grad"])
    def test_skip_and_up_conv_write_one_concatenation_buffer(self, record):
        # a U-Net stage's skip is held once: relu writes it into the second
        # channel range of a buffer, the up-conv the first, and the
        # concatenation wraps that buffer
        rng = np.random.default_rng(11)
        y, x = (Tensor(rng.normal(size=s), requires_grad=record) for s in ((2, 3, 4, 6), (2, 5, 2, 3)))
        k, bias = (Tensor(rng.normal(size=s), requires_grad=record) for s in ((5, 3, 2, 2), (3,)))
        joint = numerics.padded_buffer(2, 6, 4, 6, np.float64)
        joint[...] = np.nan  # relu and the up-conv write all of theirs, border included
        with nullcontext() if record else no_grad():
            skip = relu(y, out=joint[:, 3:])
            up = transposed_conv_2x2(x, k, bias, out=joint[:, :3])
            cat = concat_channels(up, skip)
            want = concat_channels(Tensor(np.ascontiguousarray(up.data)), Tensor(np.ascontiguousarray(skip.data)))
        assert cat._flat is joint and (cat._grad_fn is not None) == record
        self._assert_padded(cat, np.ascontiguousarray(want.data))
        with pytest.raises(ValueError, match="padded-layout buffer"):
            transposed_conv_2x2(x, k, bias, out=joint[:, :2])

    def test_grad_step_pads_only_the_input_and_the_conv_gradients(self, monkeypatch):
        # the forward pads the network input. Gradients stay in the padded
        # layout, so the backward pads only those that arrive outside it:
        # the loss's (the head conv's g), each up-conv's input gradient,
        # each skip's sum of its pooling and concatenation gradients, and
        # the input again for the first conv's weight gradient
        config = UNetConfig(in_channels=3, depth=2, base_filters=4)
        params = build_unet(config, 3)
        calls = []

        def counted(a, dtype):
            calls.append(a.shape)
            return _pad_flat(a, dtype)

        monkeypatch.setattr(numerics, "_pad_flat", counted)
        x = np.random.default_rng(3).normal(size=(2, 3, 8, 8))
        logits = forward(params, config, Tensor(x))
        assert calls == [x.shape]
        target = Tensor((np.random.default_rng(4).random(logits.shape) < 0.3).astype(np.float64))
        weighted_bce_with_logits(logits, target).backward()
        widths = [4, 8, 16]
        ups = [(2, widths[i + 1], 8 >> (i + 1), 8 >> (i + 1)) for i in range(2)]
        skips = [(2, widths[i], 8 >> i, 8 >> i) for i in range(2)]
        assert sorted(calls[1:]) == sorted([logits.shape, *ups, *skips, x.shape])
        assert all(p.grad is not None for p in params.values())

    def test_grad_step_backward_peak(self):
        # in units of the widest activation (2 x 8 x 64 x 64 float32) the
        # forward holds 9.9 and the backward peaks 3.1 above that; with
        # contiguous gradients and skips copied into the concatenation they
        # would be 11.5 and 4.1
        config = UNetConfig(in_channels=3, depth=2, base_filters=8)
        params = build_unet(config, 3)
        rng = np.random.default_rng(12)
        x = Tensor(rng.normal(size=(2, 3, 64, 64)).astype(np.float32))
        target = Tensor((rng.random((2, 1, 64, 64)) < 0.3).astype(np.float32))
        unit = 2 * 8 * 64 * 64 * 4
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            loss = weighted_bce_with_logits(forward(params, config, x), target, 3.0)
            held = tracemalloc.get_traced_memory()[0] - start
            tracemalloc.reset_peak()
            loss.backward()
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak - held < 3.5 * unit
        assert held < 10.5 * unit
        assert all(p.grad is not None for p in params.values())

    @pytest.mark.parametrize("dtype", _DTYPES)
    def test_inference_forward_is_bitwise_the_grad_mode_forward(self, dtype):
        config = UNetConfig(in_channels=3, depth=2, base_filters=4)
        params = {n: Tensor(p.data.astype(dtype), requires_grad=True) for n, p in build_unet(config, 5).items()}
        x = np.random.default_rng(5).normal(size=(2, 3, 12, 20)).astype(dtype)
        want = forward(params, config, Tensor(x)).data
        with no_grad():
            got = forward(params, config, Tensor(x))
        self._assert_padded(got, np.ascontiguousarray(want))


class TestAdam:
    def test_first_step_magnitude(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        p.grad = np.array([1.0])
        state = AdamState(learning_rate=0.1)
        adam_step({"p": p}, state)
        assert p.data[0] == pytest.approx(0.9, abs=1e-8)
        assert state.step == 1

    def test_zero_gradient_leaves_parameter_unchanged(self):
        p = Tensor(np.array([3.0, -2.0]), requires_grad=True)
        p.grad = np.zeros(2)
        adam_step({"p": p}, AdamState(learning_rate=0.5))
        assert np.array_equal(p.data, [3.0, -2.0])

    def test_missing_gradient_rejected(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        with pytest.raises(ValueError, match="no gradient"):
            adam_step({"p": p}, AdamState())

    def test_matches_oracle_over_steps(self):
        rng = np.random.default_rng(10)
        p = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
        ref_p = p.data.copy()
        ref_m = np.zeros_like(ref_p)
        ref_v = np.zeros_like(ref_p)
        state = AdamState(learning_rate=0.01, beta1=0.9, beta2=0.999, epsilon=1e-8)
        for step in range(1, 8):
            g = rng.normal(size=(3, 2))
            p.grad = g.copy()
            adam_step({"w": p}, state)
            ref_p, ref_m, ref_v = adam_step_oracle(
                ref_p, g, ref_m, ref_v, step, 0.01, 0.9, 0.999, 1e-8
            )
            assert np.allclose(p.data, ref_p, atol=1e-12), f"step {step}"
        assert state.step == 7

    def test_gradients_left_in_place(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        p.grad = np.array([2.0])
        adam_step({"p": p}, AdamState())
        assert np.array_equal(p.grad, [2.0])

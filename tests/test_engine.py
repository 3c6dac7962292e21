"""Autodiff engine: forward fixtures, brute-force oracles, gradient routing."""

import ast
import itertools
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from helpers import (SCATTER_FORMS, conv1d_oracle, conv1d_transpose_oracle,
                     conv1d_weight_grad_oracle, reduced_adversarial, scatter_form, tap_grad_oracle,
                     vbn_composite)

from segan import engine as eg
from segan.engine import Parameter, Tensor, backward, no_grad, sample_z
from segan.errors import NonScalarLossError, ShapeMismatchError
from segan.gradcheck import OP_CASES
from segan.model import GeneratorConfig
from segan.trainer import ENHANCE_BATCH


def _p(name, data):
    return Parameter(name, np.asarray(data, dtype=np.float64))


# ---------------------------------------------------------------------------
# elementwise forward fixtures


def test_add_sub_mul_values():
    a = Tensor([2.0, 3.0])
    b = Tensor([4.0, 5.0])
    assert np.array_equal(eg.add(a, b).data, [6.0, 8.0])
    assert np.array_equal(eg.sub(a, b).data, [-2.0, -2.0])
    assert np.array_equal(eg.mul(a, b).data, [8.0, 15.0])


def test_tanh_fixtures():
    x = Tensor([0.0, 100.0, -100.0])
    y = eg.tanh(x)
    assert y.data[0] == 0.0
    assert abs(y.data[1] - 1.0) < 1e-12
    assert abs(y.data[2] + 1.0) < 1e-12


def _leaky(x):
    """prelu at the discriminator's fixed LeakyReLU slope."""
    return eg.prelu(x, Tensor(np.full(x.data.shape[-1], eg.LEAKY_ALPHA, x.data.dtype)))


def test_leaky_relu_fixture():
    y = _leaky(Tensor([-1.0, 0.0, 2.0]))
    assert np.allclose(y.data, [-0.3, 0.0, 2.0])
    # float32, signed zeros included: bit-equal to the closed forms
    data = np.array([[[-2.5, 0.0], [-0.0, 1.25], [3.0, -1e-30]]], np.float32)
    x = Parameter("x", data)
    g = np.random.default_rng(0).uniform(0.5, 1.5, data.shape).astype(np.float32)
    y = _leaky(x)
    backward(eg.mul(y, Tensor(g)).sum())
    want_y = np.where(data > 0, data, eg.LEAKY_ALPHA * data)
    want_g = g * np.where(data > 0, 1.0, eg.LEAKY_ALPHA).astype(np.float32)
    assert y.dtype == x.grad.dtype == np.float32
    assert y.data.tobytes() == want_y.tobytes()
    assert x.grad.tobytes() == want_g.tobytes()


def test_prelu_relu_and_identity_limits():
    x = Tensor(np.array([[[-1.0], [2.0]]]))
    relu = eg.prelu(x, Tensor([0.0]))
    assert np.array_equal(relu.data[0, :, 0], [0.0, 2.0])
    ident = eg.prelu(x, Tensor([1.0]))
    assert np.array_equal(ident.data, x.data)


def test_prelu_slope_gradient_closed_form():
    x = Tensor(np.array([[[-3.0]]]))
    a = _p("a", [0.25])
    backward(eg.prelu(x, a).sum())
    assert a.grad[0] == -3.0


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_prelu_is_bitwise_the_closed_forms(dtype):
    # slopes < 0, +-0, in (0, 1), exactly 1, > 1, NaN and +-inf in one tensor;
    # every input row below meets every slope, signed zeros, NaN and +-inf included
    slopes = np.array([-0.7, 0.0, -0.0, 0.3, 1.0, 1.5, np.nan, np.inf, -np.inf], dtype)
    special = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 1.0, -1.0, 1e-30, -1e-30], dtype)
    rng = np.random.default_rng(3)
    data = rng.standard_normal((2, 40, slopes.size)).astype(dtype)
    data[0, :special.size] = special[:, None]
    g = rng.uniform(0.5, 1.5, data.shape).astype(dtype)
    x, a = Parameter("x", data), Parameter("a", slopes)
    with np.errstate(invalid="ignore"):
        y = eg.prelu(x, a)
        backward(eg.mul(y, Tensor(g)).sum())
        want_y = np.where(data > 0, data, slopes * data)
        # gradients land in zeroed buffers, where += turns -0.0 into +0.0
        want_gx = np.zeros_like(data) + g * np.where(data > 0, 1, slopes)
        want_ga = np.zeros_like(slopes) + (np.where(data > 0, 0, data) * g).sum(axis=(0, 1))
    assert y.dtype == x.grad.dtype == a.grad.dtype == dtype
    assert y.data.tobytes() == want_y.tobytes()
    assert x.grad.tobytes() == want_gx.tobytes()
    assert a.grad.tobytes() == want_ga.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_prelu_backward_is_bitwise_the_where_form(dtype, monkeypatch):
    # the closure's own arrays, caught before any accumulation could turn a
    # -0.0 into +0.0; -0.17 is a slope where (1 - a) + a != 1 in both dtypes
    slopes = np.array([0.0, -0.0, 0.25, 1.0, 1.5, -0.5, -0.17], dtype)
    assert ((1 - slopes[-1]) + slopes[-1]) != 1
    tiny = np.finfo(dtype).smallest_subnormal
    special = np.array([0.0, -0.0, tiny, -tiny, 3 * tiny, -3 * tiny,
                        np.inf, -np.inf, np.nan, 1.0, -1.0], dtype)
    rng = np.random.default_rng(17)
    data = rng.standard_normal((2, 30, slopes.size)).astype(dtype)
    data[0, :special.size] = special[:, None]
    data[1, :special.size] = special[::-1, None]
    g = rng.standard_normal(data.shape).astype(dtype)
    g[1, :4] = [[0.0], [-0.0], [np.inf], [-tiny]]
    got = {}
    monkeypatch.setattr(eg, "_accum", lambda t, grad: got.setdefault(id(t), grad))
    x, a = Tensor(data, requires_grad=True), Tensor(slopes, requires_grad=True)
    with np.errstate(invalid="ignore"):
        eg.prelu(x, a)._backward(g)
        want_gx = np.where(data > 0, dtype(1), slopes) * g
        want_ga = (np.where(data > 0, dtype(0), data) * g).sum(axis=(0, 1))
    assert got[id(x)].dtype == got[id(a)].dtype == dtype
    assert got[id(x)].tobytes() == want_gx.tobytes()
    assert got[id(a)].tobytes() == want_ga.tobytes()


def test_prelu_shape_validation():
    with pytest.raises(ShapeMismatchError):
        eg.prelu(Tensor(np.zeros((1, 4, 3))), Tensor([0.1, 0.2]))


def test_absolute_subgradient_zero_at_zero():
    x = _p("x", [0.0, 2.0, -1.5])
    backward(eg.absolute(x).sum())
    assert np.array_equal(x.grad, [0.0, 1.0, -1.0])


# ---------------------------------------------------------------------------
# reductions, reshape, broadcasting


def test_sum_backward_is_ones():
    x = _p("x", np.arange(12.0).reshape(3, 4))
    backward(x.sum())
    assert np.array_equal(x.grad, np.ones((3, 4)))


def test_mean_backward_is_inverse_size():
    x = _p("x", np.arange(8.0))
    backward(x.mean())
    assert np.allclose(x.grad, np.full(8, 1.0 / 8.0))


def test_mean_axis_matches_numpy_and_routes_gradient():
    data = np.arange(24.0).reshape(2, 4, 3)
    x = _p("x", data)
    out = x.mean_axis(1)
    assert np.array_equal(out.data, data.mean(axis=1, keepdims=True))
    backward(out.sum())
    assert np.allclose(x.grad, np.full_like(data, 1.0 / 4.0))


def test_reshape_roundtrips_gradient():
    x = _p("x", np.arange(6.0).reshape(2, 3))
    out = x.reshape(3, 2)
    assert np.array_equal(out.data, np.arange(6.0).reshape(3, 2))
    backward(out.sum())
    assert np.array_equal(x.grad, np.ones((2, 3)))


def test_broadcast_gradients_sum_down():
    a = _p("a", np.arange(6.0).reshape(2, 3))
    b = _p("b", [1.0, 2.0, 3.0])
    backward(eg.mul(a, b).sum())
    assert np.array_equal(a.grad, np.tile([1.0, 2.0, 3.0], (2, 1)))
    assert np.array_equal(b.grad, a.data.sum(axis=0))


def test_scalar_broadcast_gradient():
    a = _p("a", np.ones((2, 2)))
    s = _p("s", 3.0)
    backward(eg.mul(a, s).sum())
    assert s.grad == pytest.approx(4.0)


# ---------------------------------------------------------------------------
# structural ops


def test_concat_channels_values_and_backward():
    a = _p("a", np.ones((1, 2, 3)))
    b = _p("b", 2 * np.ones((1, 2, 2)))
    out = eg.concat_channels(a, b)
    assert out.shape == (1, 2, 5)
    assert np.array_equal(out.data[..., :3], a.data)
    assert np.array_equal(out.data[..., 3:], b.data)
    backward(out.sum())
    assert np.array_equal(a.grad, np.ones((1, 2, 3)))
    assert np.array_equal(b.grad, np.ones((1, 2, 2)))


def test_concat_channels_rejects_mismatched_leading_dims():
    with pytest.raises(ShapeMismatchError):
        eg.concat_channels(Tensor(np.zeros((1, 2, 1))), Tensor(np.zeros((1, 3, 1))))


def test_linear_constant_and_passthrough():
    x = Tensor(np.random.default_rng(0).standard_normal((4, 3)))
    w0 = Tensor(np.zeros((3, 1)))
    b = Tensor([0.5])
    assert np.array_equal(eg.linear(x, w0, b).data, np.full((4, 1), 0.5))
    x1 = Tensor(np.array([[1.5], [-2.0]]))
    ident = eg.linear(x1, Tensor(np.eye(1)))
    assert np.array_equal(ident.data, x1.data)


def test_linear_shape_validation():
    with pytest.raises(ShapeMismatchError):
        eg.linear(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 1))))


# ---------------------------------------------------------------------------
# convolutions against brute-force oracles


def test_conv1d_matches_bruteforce():
    rng = np.random.default_rng(0)
    for length, width, stride, cin, cout in [(8, 3, 2, 1, 1), (10, 5, 2, 2, 3),
                                             (7, 3, 1, 3, 2), (9, 1, 1, 2, 2),
                                             (5, 5, 3, 1, 2)]:
        x = rng.standard_normal((2, length, cin))
        w = rng.standard_normal((width, cin, cout))
        b = rng.standard_normal(cout)
        got = eg.conv1d(Tensor(x), Tensor(w), Tensor(b), stride=stride).data
        want = conv1d_oracle(x, w, b, stride)
        assert np.allclose(got, want, atol=1e-12), (length, width, stride)


def test_conv1d_transpose_matches_bruteforce():
    rng = np.random.default_rng(1)
    for length, width, stride, cin, cout in [(4, 3, 2, 1, 1), (6, 5, 2, 3, 2),
                                             (5, 3, 1, 2, 2), (3, 7, 3, 1, 2),
                                             (5, 1, 1, 2, 3), (4, 1, 2, 3, 1),
                                             (3, 5, 4, 2, 2), (4, 3, 4, 1, 2)]:
        y = rng.standard_normal((2, length, cin))
        w = rng.standard_normal((width, cout, cin))
        b = rng.standard_normal(cout)
        got = eg.conv1d_transpose(Tensor(y), Tensor(w), Tensor(b), stride=stride).data
        want = conv1d_transpose_oracle(y, w, b, stride)
        assert np.allclose(got, want, atol=1e-12), (length, width, stride)


@pytest.mark.parametrize("stride", [1, 2, 3, 4])
@pytest.mark.parametrize("width", [1, 3, 5])
def test_conv_and_transpose_are_each_others_gradients_bitwise(width, stride):
    # conv1d_transpose(y, w) is conv1d's x-gradient for upstream y, conv1d(x, w)
    # is conv1d_transpose's y-gradient for upstream x, and both give the same
    # weight gradient; float32, widths below and above the stride, both
    # scatter forms.
    rng = np.random.default_rng(10 * width + stride)
    x = rng.standard_normal((2, 5 * stride, 3)).astype(np.float32)
    y = rng.standard_normal((2, 5, 2)).astype(np.float32)
    w = rng.standard_normal((width, 3, 2)).astype(np.float32)

    for form in SCATTER_FORMS:
        with scatter_form(form):
            cx, cw = Parameter("x", x), Parameter("w", w)
            backward(eg.mul(eg.conv1d(cx, cw, stride=stride), Tensor(y)).sum())
            ty, tw = Parameter("y", y), Parameter("w", w)
            backward(eg.mul(eg.conv1d_transpose(ty, tw, stride=stride), Tensor(x)).sum())
            up = eg.conv1d_transpose(Tensor(y), Tensor(w), stride=stride).data

        assert np.array_equal(cx.grad, up), form
        assert np.array_equal(ty.grad, eg.conv1d(Tensor(x), Tensor(w), stride=stride).data)
        assert np.array_equal(cw.grad, tw.grad)
        assert cx.grad.dtype == ty.grad.dtype == cw.grad.dtype == np.float32


# (length of the long side, width, stride, long channels, short channels):
# 1 and 2 long channels (the one-tap and stride-tap folds of the scatter),
# SEGAN's width 31 at stride 2, a width below the stride, and stride 1;
# every length divides by its stride.
KERNEL_SHAPES = [(40, 31, 2, 1, 3), (40, 31, 2, 2, 3), (36, 31, 2, 3, 1), (40, 31, 2, 1, 1),
                 (12, 3, 4, 2, 2), (10, 5, 1, 2, 3), (9, 1, 3, 1, 2)]

# (regime, block count) of every kernel call on KERNEL_SHAPES at batch 3, per
# _BLOCK_BYTES (None: the default): "whole" is one block of the batch, "one"
# one example per block. Under 1- and 200-byte caps a block holds as many
# examples as the weights' bytes do, which is one, except at width 1, where
# 200 bytes hold all three.
KERNEL_BLOCKS = {
    None: [("whole", 1)] * 7,
    1: [("one", 3)] * 7,
    200: [("one", 3)] * 6 + [("whole", 1)],
}

# The same for the BLAS scatter at the shapes it takes (C_long > 1; None
# elsewhere): its examples are padded copies of the short rows, C_short
# values each, so the weights' bytes hold more of them.
BLAS_BLOCKS = {
    None: [None, ("whole", 1), ("whole", 1), None, ("whole", 1), ("whole", 1), None],
    1: [None, ("one", 3), ("several", 2), None, ("one", 3), ("one", 3), None],
    200: [None, ("one", 3), ("several", 2), None, ("whole", 1), ("one", 3), None],
}


def _regime(blocks):
    """"whole" for one block, "one" for one example per block, else "several"."""
    if len(blocks) == 1:
        return "whole"
    return "one" if all(ex.stop - ex.start == 1 for ex in blocks) else "several"


@pytest.mark.parametrize("block_bytes", [None, 1, 200])
@pytest.mark.parametrize("length,width,stride,c_long,c_short", KERNEL_SHAPES)
def test_conv_kernels_match_bruteforce_across_blocks(monkeypatch, block_bytes, length, width,
                                                     stride, c_long, c_short):
    if block_bytes is not None:
        monkeypatch.setattr(eg, "_BLOCK_BYTES", block_bytes)
    calls, blocks_of = [], eg._blocks

    def spy(*args):
        blocks = blocks_of(*args)
        calls.append((_regime(blocks), len(blocks)))
        return blocks
    monkeypatch.setattr(eg, "_blocks", spy)
    rng = np.random.default_rng(length * width + stride)
    out_len = -(-length // stride)
    x = rng.standard_normal((3, length, c_long))
    w = rng.standard_normal((width, c_long, c_short))
    g = rng.standard_normal((3, out_len, c_short))
    # the input gradient is the transpose of g (every length here divides by the stride)
    want = conv1d_transpose_oracle(g, w, None, stride)
    shape = KERNEL_SHAPES.index((length, width, stride, c_long, c_short))

    for form in SCATTER_FORMS:
        calls.clear()
        with scatter_form(form):
            cx, cw = Parameter("x", x), Parameter("w", w)
            y = eg.conv1d(cx, cw, stride=stride)
            backward(eg.mul(y, Tensor(g)).sum())
            up = eg.conv1d_transpose(Tensor(g), Tensor(w), stride=stride).data
        assert np.max(np.abs(y.data - conv1d_oracle(x, w, None, stride))) <= 1e-12
        assert np.max(np.abs(cw.grad - conv1d_weight_grad_oracle(x, g, width, stride))) <= 1e-12
        assert np.max(np.abs(cx.grad - want)) <= 1e-12, form
        assert np.max(np.abs(up - want)) <= 1e-12, form
        # correlate, weight gradient, then the two scatters, each by the plan
        # of its own rows
        folds = form == "fold" or eg._BLAS is None or c_long == 1
        scatter = KERNEL_BLOCKS if folds else BLAS_BLOCKS
        assert calls == ([KERNEL_BLOCKS[block_bytes][shape]] * 2
                         + [scatter[block_bytes][shape]] * 2)


def test_blocks_are_bounded_by_the_larger_of_the_cap_and_the_weights():
    # shapes alone, no weights built: (batch, example bytes, weight bytes)
    for batch, example_bytes, weight_bytes in [
            (3, 20 * 248, 744), (8, 8 * 63488, 63488 * 1024), (8, 4096 * 1984, 1984 * 32),
            (16, 512 * 3968, 3968 * 64), (5, 7 * (3 << 20), 3 << 20), (2, 9 << 20, 10),
            (2, 3 * (5 << 20), 10), (7, 1 << 20, 10), (1, 1, 1)]:
        cap = max(eg._BLOCK_BYTES, weight_bytes)
        seen = np.zeros(batch, int)
        for ex in eg._blocks(batch, example_bytes, weight_bytes):
            n = ex.stop - ex.start
            assert n >= 1 and (n == 1 or n * example_bytes <= cap)
            # no block stops short of the bound while examples are left
            assert ex.stop == batch or (n + 1) * example_bytes > cap
            seen[ex] += 1
        assert np.all(seen == 1)
    # full scale at ENHANCE_BATCH windows: these layers read their weights in one GEMM
    cfg = GeneratorConfig()
    c_in = [1, *cfg.enc_channels[:-1]]    # input channels of encoder layer k at [k - 1]
    # name: (long channels, short channels, depth); decoder layer k mirrors encoder layer k
    layers = {"enc11": (c_in[10], cfg.enc_channels[10], 11),
              "dec11": (c_in[10], cfg.enc_channels[10] + cfg.z_channels, 11),
              "dec10": (c_in[9], 2 * cfg.enc_channels[9], 10)}
    for name, (c_long, c_short, depth) in layers.items():
        row_bytes = cfg.filter_width * c_long * np.dtype(np.float32).itemsize
        rows = cfg.window // cfg.stride ** depth
        assert len(eg._blocks(ENHANCE_BATCH, rows * row_bytes, row_bytes * c_short)) == 1, name


@pytest.mark.parametrize("length,width,stride,c_long,c_short", KERNEL_SHAPES)
def test_conv_kernels_repeat_bitwise_in_float32(length, width, stride, c_long, c_short):
    rng = np.random.default_rng(5)
    x = rng.standard_normal((3, length, c_long)).astype(np.float32)
    w = rng.standard_normal((width, c_long, c_short)).astype(np.float32)
    g = rng.standard_normal((3, -(-length // stride), c_short)).astype(np.float32)

    def run():
        cx, cw = Parameter("x", x), Parameter("w", w)
        y = eg.conv1d(cx, cw, stride=stride)
        backward(eg.mul(y, Tensor(g)).sum())
        up = eg.conv1d_transpose(Tensor(g), Tensor(w), stride=stride).data
        return [y.data, cx.grad, cw.grad, up]
    first, second = run(), run()
    for a, b in zip(first, second):
        assert a.dtype == np.float32 and np.array_equal(a, b)


def _train_adv_calls(kernel):
    """The distinct arguments, arrays given by their shapes, of every call
    to the engine kernel named `kernel` in one reduced adversarial step at
    batch 16 (the train-adv workload)."""
    from segan.trainer import TrainConfig, train_step
    calls, fn = set(), getattr(eg, kernel)

    def spy(*args):
        calls.add(tuple(a.shape if isinstance(a, np.ndarray) else a for a in args))
        return fn(*args)
    setattr(eg, kernel, spy)
    try:
        train_step(*reduced_adversarial(), TrainConfig(epochs=1))
    finally:
        setattr(eg, kernel, fn)
    return sorted(calls, key=repr)


def test_weight_gradient_is_bitwise_the_transposed_product(monkeypatch):
    shapes = _train_adv_calls("_tap_grad")
    assert len(shapes) >= 10
    regimes = set()
    rng = np.random.default_rng(11)
    for block_bytes in (None, 1, 1 << 40):
        if block_bytes is not None:
            monkeypatch.setattr(eg, "_BLOCK_BYTES", block_bytes)
        for long_shape, short_shape, w_shape, stride in shapes:
            long = rng.standard_normal(long_shape).astype(np.float32)
            short = rng.standard_normal(short_shape).astype(np.float32)
            w = np.empty(w_shape, np.float32)
            example_bytes = short_shape[1] * w_shape[0] * w_shape[1] * 4
            regimes.add(_regime(eg._blocks(long_shape[0], example_bytes, w.nbytes)))
            got = eg._tap_grad(long, short, w, stride)
            assert got.shape == w_shape and got.dtype == np.float32
            assert got.tobytes() == tap_grad_oracle(long, short, w, stride).tobytes(), (
                block_bytes, long_shape, short_shape)
    assert regimes == {"one", "several", "whole"}


def test_weight_gradient_scratch_is_one_column_block():
    # g.dec4 at train-adv: 2 MB weights, four blocks of four examples; the old
    # form's zeroed accumulator, product and transposed copy peaked at 6 MB
    long_shape, short_shape, w_shape, stride = (16, 157, 64), (16, 64, 256), (31, 64, 256), 2
    rng = np.random.default_rng(12)
    long = rng.standard_normal(long_shape).astype(np.float32)
    short = rng.standard_normal(short_shape).astype(np.float32)
    w = np.empty(w_shape, np.float32)
    example_bytes = short_shape[1] * w_shape[0] * w_shape[1] * 4
    blocks = eg._blocks(long_shape[0], example_bytes, w.nbytes)
    assert len(blocks) > 1
    block = max((ex.stop - ex.start) * example_bytes for ex in blocks)
    tracemalloc.start()
    try:
        eg._tap_grad(long, short, w, stride)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * (w.nbytes + block), (peak, w.nbytes, block)


def _full_scale_decoder_scatter(k, batch=ENHANCE_BATCH):
    """(short, weight) shapes, stride and long length of the scatter of
    full-scale decoder layer k (dec1 next to the output) at `batch` windows."""
    cfg = GeneratorConfig()
    enc_in = [1, *cfg.enc_channels[:-1]]
    n = cfg.window // cfg.stride ** k
    c_short = (2 * cfg.enc_channels[k - 1] if k < len(cfg.enc_channels)
               else cfg.enc_channels[-1] + cfg.z_channels)
    pad_total = eg._conv_geometry(n * cfg.stride, cfg.filter_width, cfg.stride)[1]
    return ((batch, n, c_short), (cfg.filter_width, enc_in[k - 1], c_short),
            cfg.stride, n * cfg.stride + pad_total)


def _scatter_cases():
    """(short shape, weight shape, stride, long length) of every distinct
    train-adv scatter and of every full-scale decoder scatter at
    ENHANCE_BATCH windows."""
    cases = [call[:4] for call in _train_adv_calls("_scatter")]
    assert len(cases) >= 8
    return cases + [_full_scale_decoder_scatter(k)
                    for k in range(1, len(GeneratorConfig().enc_channels) + 1)]


@pytest.mark.skipif(eg._BLAS is None, reason="numpy's OpenBLAS was not found")
def test_scatter_forms_are_bitwise_equal(monkeypatch):
    # every train-adv scatter and every full-scale decoder scatter, in both
    # float dtypes, both forms and under four caps, from one block per
    # example to one block of the batch: each gives its shape's bytes at
    # the default cap in the numpy fold. The rule picks each form somewhere
    # under each cap. Full-scale dec8 at micro-batch 16 has C_short 512,
    # past one K panel, where the forms differ: the rule must give it the fold.
    default = eg._BLOCK_BYTES
    caps = (default, 1, 200, 1 << 40)
    cases = _scatter_cases()
    wide = _full_scale_decoder_scatter(8, batch=16)
    assert wide[1][2] > eg._BLAS_MAX_C_SHORT and wide[0][0] * wide[0][1] >= eg._BLAS_MIN_ROWS
    taken, gemm = [], eg._gemm_accumulate

    def spy(*args):
        taken.append(args[1])
        gemm(*args)
    monkeypatch.setattr(eg, "_gemm_accumulate", spy)
    rng = np.random.default_rng(13)
    forms, checked = {}, 0
    for dtype in (np.float32, np.float64):
        for short_shape, w_shape, stride, long_len in [*cases, wide]:
            short = rng.standard_normal(short_shape, dtype=dtype)
            w = rng.standard_normal(w_shape, dtype=dtype)
            monkeypatch.setattr(eg, "_BLOCK_BYTES", default)
            with scatter_form("fold"):
                want = eg._scatter(short, w, stride, long_len, dtype).tobytes()
            for block_bytes, form in itertools.product(caps, SCATTER_FORMS):
                monkeypatch.setattr(eg, "_BLOCK_BYTES", block_bytes)
                taken.clear()
                with scatter_form(form):
                    got = eg._scatter(short, w, stride, long_len, dtype)
                assert got.dtype == dtype
                assert got.tobytes() == want, (block_bytes, form, dtype, short_shape, w_shape)
                checked += 1
                forms.setdefault(block_bytes, set()).add(bool(taken))
                if taken:
                    assert w_shape[2] <= eg._BLAS_MAX_C_SHORT, (dtype, short_shape, w_shape)
                    # per block, in order: one call per tap group g, in
                    # ascending g, at the block's first output row + g
                    groups = -(-w_shape[0] // stride)
                    rows = max(-(-long_len // stride), short_shape[1] + groups)
                    blocks = eg._blocks(short_shape[0], rows * w_shape[2] * short.itemsize,
                                        w.nbytes)
                    assert taken == [ex.start * rows + g for ex in blocks for g in range(groups)]
                if (short_shape, w_shape) == wide[:2]:
                    assert not taken
                    break               # the wide case runs once, at the default cap
    assert checked == 2 * (len(cases) * len(caps) * len(SCATTER_FORMS) + 1)
    assert all(seen == {True, False} for seen in forms.values()), forms


@pytest.mark.skipif(eg._BLAS is None, reason="numpy's OpenBLAS was not found")
def test_conv_kernel_scratch_is_one_block(monkeypatch):
    # full-scale dec2-dec4 at ENHANCE_BATCH windows in float32, where the
    # scatter takes BLAS: its padded copy of the whole batch peaked at 8.0,
    # 4.0 and 4.1 MB. Each kernel body frees a block's scratch before it
    # makes the next, so each holds one block of its plan at a time: at most
    # max(_BLOCK_BYTES, weight bytes), or one example's block where that is
    # larger, as in the fold and the correlation here (8.1 MB at dec2).
    taken, gemm = [], eg._gemm_accumulate

    def spy(*args):
        taken.append(args[1])
        gemm(*args)
    monkeypatch.setattr(eg, "_gemm_accumulate", spy)
    plans, blocks_of = [], eg._blocks

    def plan(batch, example_bytes, weight_bytes):
        blocks = blocks_of(batch, example_bytes, weight_bytes)
        plans.append(max(ex.stop - ex.start for ex in blocks) * example_bytes)
        return blocks
    monkeypatch.setattr(eg, "_blocks", plan)
    rng = np.random.default_rng(16)

    def scratch(kernel, *args):
        plans.clear()
        tracemalloc.start()
        try:
            out = kernel(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        (block,) = plans
        return peak - (out.base if out.base is not None else out).nbytes, block

    for k in (2, 3, 4):
        short_shape, w_shape, stride, long_len = _full_scale_decoder_scatter(k)
        short = rng.standard_normal(short_shape).astype(np.float32)
        w = rng.standard_normal(w_shape).astype(np.float32)
        long = rng.standard_normal((short_shape[0], long_len, w_shape[1])).astype(np.float32)
        one_example = short_shape[1] * w_shape[0] * w_shape[1] * 4     # a column block's
        for form in SCATTER_FORMS:
            taken.clear()
            with scatter_form(form):
                used, block = scratch(eg._scatter, short, w, stride, long_len, np.float32)
            assert bool(taken) == (form == "blas"), (k, form)
            bound = max(eg._BLOCK_BYTES, w.nbytes, 0 if taken else one_example)
            assert block <= bound and used <= 1.1 * block, (k, form, used, block, bound)
        used, block = scratch(eg._correlate, long, w, stride, short_shape[1], np.float32)
        assert block == one_example > eg._BLOCK_BYTES
        assert used <= 1.1 * block, (k, "correlate", used, block)


def test_fold_bytes_do_not_depend_on_the_block_cap(monkeypatch):
    # the numpy fold writes each output within one block of whole examples,
    # adding its taps in ascending group order, whatever the plan: every
    # train-adv scatter, g.dec1 (C_long 1) among them, and full-scale dec1
    # and dec3 at ENHANCE_BATCH windows, under caps that give each of them
    # the whole batch in one block and at least one other plan. Unlike the
    # forms test, this runs where numpy's OpenBLAS was not found.
    default = eg._BLOCK_BYTES
    cases = [call[:4] for call in _train_adv_calls("_scatter")]
    assert any(call[1][1] == 1 for call in cases)
    cases += [_full_scale_decoder_scatter(1), _full_scale_decoder_scatter(3)]
    rng = np.random.default_rng(15)
    for short_shape, w_shape, stride, long_len in cases:
        short = rng.standard_normal(short_shape).astype(np.float32)
        w = rng.standard_normal(w_shape).astype(np.float32)
        outs, plans = set(), set()
        for block_bytes in (default, 1, 200, 1 << 40):
            monkeypatch.setattr(eg, "_BLOCK_BYTES", block_bytes)
            plans.add(len(eg._blocks(short_shape[0], short_shape[1] * w_shape[0] * w_shape[1] * 4,
                                     w.nbytes)))
            with scatter_form("fold"):
                outs.add(eg._scatter(short, w, stride, long_len, np.float32).tobytes())
        assert 1 in plans and len(plans) > 1, (short_shape, w_shape, plans)
        assert len(outs) == 1, (short_shape, w_shape)


def test_blas_accumulate_rejects_malformed_calls():
    rng = np.random.default_rng(14)
    out = np.zeros((6, 4), np.float32)
    a, b = (rng.standard_normal((4, 3)).astype(np.float32) for _ in range(2))
    frozen = out.copy()
    frozen.flags.writeable = False
    for args in [(out, 3, a, b), (out, -1, a, b),                   # rows past either end
                 (out, 0, a, b[:, :2].copy()),                      # inner sizes differ
                 (out, 0, a, np.ones((5, 3), np.float32)),          # wider than out's rows
                 (out, 0, a.astype(np.float64), b),                 # mixed dtypes
                 (out.astype(np.float16), 0, a.astype(np.float16), b.astype(np.float16)),
                 (out.astype(np.int32), 0, a.astype(np.int32), b.astype(np.int32)),
                 (out, 0, a[::2], b), (out, 0, a, b.T), (np.zeros((4, 6), np.float32).T, 0, a, b),
                 (out, 0, a.ravel(), b), (out, 0, a[:0], b), (frozen, 0, a, b),
                 (out, 0, a.tolist(), b)]:
        with pytest.raises(ValueError):
            eg._gemm_accumulate(*args)
    assert not out.any()
    if eg._BLAS is not None:
        want = rng.standard_normal((6, 4)).astype(np.float32)
        got = want.copy()
        want[2:6, :3] += a @ b[:3].T
        eg._gemm_accumulate(got, 2, a, b[:3])
        assert np.array_equal(got, want)


def test_conv1d_identity_kernel():
    x = Tensor(np.random.default_rng(2).standard_normal((2, 9, 3)))
    w = Tensor(np.eye(3)[None, :, :])
    out = eg.conv1d(x, w, stride=1)
    assert np.array_equal(out.data, x.data)


def test_conv1d_full_scale_shape():
    x = Tensor(np.zeros((1, 16384, 1), dtype=np.float32))
    w = Tensor(np.zeros((31, 1, 16), dtype=np.float32))
    assert eg.conv1d(x, w, stride=2).shape == (1, 8192, 16)


def test_conv1d_transpose_full_scale_shape():
    y = Tensor(np.zeros((1, 8, 1024), dtype=np.float32))
    w = Tensor(np.zeros((31, 512, 1024), dtype=np.float32))
    assert eg.conv1d_transpose(y, w, stride=2).shape == (1, 16, 512)


@settings(max_examples=60, deadline=None)
@given(length=st.integers(1, 50), half_width=st.integers(0, 4),
       stride=st.integers(1, 4))
def test_conv1d_output_length_is_ceil(length, half_width, stride):
    width = 2 * half_width + 1
    x = Tensor(np.zeros((1, length, 2)))
    w = Tensor(np.zeros((width, 2, 1)))
    out = eg.conv1d(x, w, stride=stride)
    assert out.shape == (1, -(-length // stride), 1)


@settings(max_examples=40, deadline=None)
@given(out_len=st.integers(1, 8), half_width=st.integers(0, 3),
       stride=st.integers(1, 3), seed=st.integers(0, 10_000))
def test_adjoint_identity_random_shapes(out_len, half_width, stride, seed):
    # The adjoint pairing needs stride | length so both maps connect the
    # same pair of spaces; the models only ever use such lengths.
    length = out_len * stride
    width = 2 * half_width + 1
    rng = np.random.default_rng(seed)
    cin, cout = int(rng.integers(1, 4)), int(rng.integers(1, 4))
    x = rng.standard_normal((2, length, cin))
    w = rng.standard_normal((width, cin, cout))
    y = rng.standard_normal((2, out_len, cout))
    lhs = float(np.sum(eg.conv1d(Tensor(x), Tensor(w), stride=stride).data * y))
    for form in SCATTER_FORMS:
        with scatter_form(form):
            rhs = float(np.sum(x * eg.conv1d_transpose(Tensor(y), Tensor(w), stride=stride).data))
        assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), abs(rhs), 1e-30), form


def test_conv_validation_errors():
    x = Tensor(np.zeros((1, 8, 2)))
    with pytest.raises(ShapeMismatchError):
        eg.conv1d(x, Tensor(np.zeros((4, 2, 1))))          # even width
    with pytest.raises(ShapeMismatchError):
        eg.conv1d(x, Tensor(np.zeros((3, 3, 1))))          # channel mismatch
    with pytest.raises(ShapeMismatchError):
        eg.conv1d(x, Tensor(np.zeros((3, 2, 1))), b=Tensor(np.zeros(2)))
    with pytest.raises(ShapeMismatchError):
        eg.conv1d_transpose(x, Tensor(np.zeros((3, 1, 3))))
    for stride in (0, -1):
        with pytest.raises(ShapeMismatchError):
            eg.conv1d(x, Tensor(np.zeros((3, 2, 1))), stride=stride)
        with pytest.raises(ShapeMismatchError):
            eg.conv1d_transpose(x, Tensor(np.zeros((3, 1, 2))), stride=stride)


# ---------------------------------------------------------------------------
# virtual batch norm


def test_vbn_centering_on_reference_mean():
    ref_mean = np.array([0.3, -1.2, 2.0])
    ref_var = np.ones(3)
    x = Tensor(np.broadcast_to(ref_mean, (2, 10, 3)).copy())
    out = eg.virtual_batch_norm(x, ref_mean, ref_var, 16,
                                Tensor(np.ones(3)), Tensor(np.zeros(3)))
    assert np.max(np.abs(out.data)) <= 1e-3


def test_vbn_gamma_zero_gives_beta():
    # beta after the rectifier: a negative beta comes out times LEAKY_ALPHA
    rng = np.random.default_rng(3)
    x = Tensor(rng.standard_normal((2, 8, 3)))
    beta = np.array([0.5, -1.0, 2.0])
    out = eg.virtual_batch_norm(x, rng.standard_normal(3), rng.uniform(0.5, 2, 3), 16,
                                Tensor(np.zeros(3)), Tensor(beta))
    assert np.allclose(out.data, np.broadcast_to([0.5, -0.3, 2.0], out.shape))


def test_vbn_large_nref_limit_is_plain_normalization():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((2, 16, 3))
    ref_mean = rng.standard_normal(3)
    ref_var = rng.uniform(0.5, 1.5, 3)
    gamma, beta = rng.uniform(0.5, 1.5, 3), rng.standard_normal(3)
    out = eg.virtual_batch_norm(Tensor(x), ref_mean, ref_var, 10**6,
                                Tensor(gamma), Tensor(beta))
    direct = gamma * (x - ref_mean) / np.sqrt(ref_var + 1e-5) + beta
    direct = np.where(direct > 0, direct, eg.LEAKY_ALPHA * direct)
    assert np.max(np.abs(out.data - direct)) < 1e-4


# the reduced discriminator's four layers at batch 16, and the gradcheck shape
_VBN_SHAPES = [(16, 512, 16), (16, 256, 32), (16, 128, 64), (16, 64, 128), (2, 20, 3)]


def _vbn_run(vbn, x, gamma, beta, ref_mean, ref_var, n_ref, g):
    x = Tensor(x, requires_grad=True)
    gamma, beta = Parameter("gamma", gamma), Parameter("beta", beta)
    out = vbn(x, ref_mean, ref_var, n_ref, gamma, beta)
    backward(eg.mul(out, Tensor(g)).sum())
    return out.data, x.grad, gamma.grad, beta.grad


def _assert_vbn_is_bitwise_the_composite(dtype, *args):
    fused = _vbn_run(eg.virtual_batch_norm, *args)
    composite = _vbn_run(lambda *a: _leaky(vbn_composite(*a)), *args)   # the oracle
    for name, a, b in zip(("out", "x.grad", "gamma.grad", "beta.grad"), fused, composite):
        assert a.dtype == b.dtype == dtype, name
        assert a.tobytes() == b.tobytes(), name


@pytest.mark.parametrize("shape", _VBN_SHAPES)
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("n_ref", [1, 16])
def test_vbn_is_bitwise_the_composite(shape, dtype, n_ref):
    rng = np.random.default_rng(sum(shape) + n_ref)
    c = shape[-1]
    _assert_vbn_is_bitwise_the_composite(
        dtype, (rng.standard_normal(shape) * 2.0 + 0.5).astype(dtype),
        rng.uniform(0.5, 1.5, c).astype(dtype), rng.standard_normal(c).astype(dtype),
        rng.standard_normal(c).astype(np.float32), rng.uniform(0.5, 1.5, c).astype(np.float32),
        n_ref, rng.standard_normal(shape).astype(dtype))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_vbn_rectifier_is_bitwise_the_composite_at_zero_and_underflow(dtype):
    # channel 0 has gamma 0 and beta 0, so every normalized value is an exact
    # zero; channel 1's gamma is the smallest subnormal, so its negative
    # values times LEAKY_ALPHA underflow to -0.0; channel 2 is ordinary
    rng = np.random.default_rng(5)
    tiny = np.finfo(dtype).smallest_subnormal
    x = rng.standard_normal((3, 8, 3)).astype(dtype)
    gamma, beta = np.array([0.0, tiny, 1.2], dtype), np.array([0.0, 0.0, -0.1], dtype)
    ref_mean, ref_var = np.zeros(3, np.float32), np.ones(3, np.float32)
    out = eg.virtual_batch_norm(Tensor(x), ref_mean, ref_var, 16, Tensor(gamma), Tensor(beta))
    assert (out.data[..., 0] == 0).all()
    assert (np.signbit(out.data[..., 1]) & (out.data[..., 1] == 0)).any()
    _assert_vbn_is_bitwise_the_composite(dtype, x, gamma, beta, ref_mean, ref_var, 16,
                                         rng.standard_normal(x.shape).astype(dtype))


def test_vbn_graph_keeps_no_array_of_x_shape_but_its_output():
    x = Tensor(np.random.default_rng(0).standard_normal((4, 32, 8)), requires_grad=True)
    out = eg.virtual_batch_norm(x, np.zeros(8), np.ones(8), 16,
                                Parameter("gamma", np.ones(8)), Parameter("beta", np.zeros(8)))
    inner = [n for n in _recorded(out) if n is not out]
    assert len(inner) == 6
    assert [n.data.shape for n in inner if n.data.shape == x.shape] == []


# ---------------------------------------------------------------------------
# losses


def test_l1_loss_fixtures():
    a = Tensor([1.0, 1.0])
    assert eg.l1_loss(a, Tensor([1.0, 1.0])).item() == 0.0
    assert eg.l1_loss(a, Tensor([0.0, 2.0])).item() == 1.0
    with pytest.raises(ShapeMismatchError):
        eg.l1_loss(a, Tensor([1.0]))


def test_l1_loss_identical_inputs_give_zero_gradients():
    a = _p("a", [1.0, -2.0, 3.0])
    b = _p("b", [1.0, -2.0, 3.0])
    backward(eg.l1_loss(a, b))
    assert np.array_equal(a.grad, np.zeros(3))
    assert np.array_equal(b.grad, np.zeros(3))


def test_lsq_loss_fixtures_exact():
    assert eg.lsq_loss(Tensor([[0.0]]), 1.0).item() == 0.5
    assert eg.lsq_loss(Tensor([[2.0]]), 0.0).item() == 2.0
    assert eg.lsq_loss(Tensor([[1.0], [1.0]]), 1.0).item() == 0.0


def test_lsq_loss_target_validation():
    with pytest.raises(ValueError):
        eg.lsq_loss(Tensor([[0.0]]), 0.5)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(-5, 5), min_size=1, max_size=8),
       st.sampled_from([0.0, 1.0]))
def test_lsq_loss_nonnegative_zero_iff_target(values, target):
    # Strict positivity holds only while (v - target)**2 is representable:
    # a gap below ~1e-154 squares to zero in float64.
    assume(all(v == target or abs(v - target) >= 1e-150 for v in values))
    d = Tensor(np.array(values)[:, None])
    loss = eg.lsq_loss(d, target).item()
    assert loss >= 0.0
    if all(v == target for v in values):
        assert loss == 0.0
    if any(v != target for v in values):
        assert loss > 0.0


# ---------------------------------------------------------------------------
# backprop machinery


def test_backward_rejects_nonscalar():
    x = _p("x", [1.0, 2.0])
    with pytest.raises(NonScalarLossError):
        backward(eg.mul(x, x))


def test_backward_accumulates_across_reuse():
    x = _p("x", [2.0])
    backward(eg.add(eg.mul(x, x), x).sum())   # d/dx (x^2 + x) = 2x + 1
    assert np.allclose(x.grad, [5.0])


def test_backward_twice_identical_gradients():
    rng = np.random.default_rng(5)
    x = _p("x", rng.standard_normal((3, 4)))
    w = _p("w", rng.standard_normal((4, 2)))

    def run():
        x.zero_grad()
        w.zero_grad()
        backward(eg.tanh(eg.linear(x, w)).mean())
        return x.grad.copy(), w.grad.copy()

    gx1, gw1 = run()
    gx2, gw2 = run()
    assert np.array_equal(gx1, gx2)
    assert np.array_equal(gw1, gw2)


def _recorded(root):
    """Every recorded node of the graph below root (root included)."""
    nodes, seen, stack = [], set(), [root]
    while stack:
        node = stack.pop()
        if id(node) in seen or node._backward is None:
            continue
        seen.add(id(node))
        nodes.append(node)
        stack.extend(node._parents)
    return nodes


def test_backward_twice_over_one_graph_adds_the_gradient_once_more():
    # each leaf feeds one op, so the second pass adds the first pass's
    # gradient exactly; stale intermediate gradients would add more again
    rng = np.random.default_rng(6)
    x = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    w1 = _p("w1", rng.standard_normal((4, 5)))
    w2 = _p("w2", rng.standard_normal((5, 2)))
    loss = eg.tanh(eg.linear(eg.tanh(eg.linear(x, w1)), w2)).sum()
    leaves = (x, w1, w2)
    backward(loss)
    once = [t.grad.copy() for t in leaves]
    backward(loss)
    for t, g in zip(leaves, once):
        assert t.grad.tobytes() == (g + g).tobytes()
    nodes = _recorded(loss)
    assert len(nodes) == 5
    assert all(node.grad is None for node in nodes)


# Graphs for the gradient-ownership rule: add(a, b) hands one upstream
# array to two parents, add(x, x) and sub(x, x) reach one tensor twice,
# reshape and mean_axis hand views, and the ops from concat on hand over
# arrays they made, which recorded parents keep. `t` returns a leaf, or a
# tanh node over one, so each op meets leaves and recorded nodes alike.
OWNERSHIP_GRAPHS = {
    "add": lambda t: eg.add(t("a", (3, 4, 5)), t("b", (3, 4, 5))),
    "add_self": lambda t: (lambda x: eg.add(x, x))(t("x", (3, 4, 5))),
    "sub_self": lambda t: (lambda x: eg.sub(x, x))(t("x", (3, 4, 5))),
    "concat": lambda t: eg.concat_channels(t("a", (3, 4, 2)), t("b", (3, 4, 3))),
    "reshape": lambda t: t("x", (3, 4, 5)).reshape(12, 5),
    "mean_axis": lambda t: t("x", (3, 4, 5)).mean_axis(1),
    # one tensor reached by two ops, each handing it an array it made (signed
    # zeros included: the product passes them on, where add would zero-fill)
    "two_ops": lambda t: (lambda x: eg.mul(eg.mul(x, t("c", (3, 4, 5), False)), eg.tanh(x)))(
        t("x", (3, 4, 5))),
    "conv1d": lambda t: eg.conv1d(t("x", (2, 9, 2)), t("w", (5, 2, 3)), t("b", (3,))),
    "conv1d_transpose": lambda t: eg.conv1d_transpose(
        t("y", (2, 5, 3)), t("w", (5, 2, 3)), t("b", (2,))),
    "prelu": lambda t: eg.prelu(t("x", (3, 4, 5)), t("s", (5,))),
    "linear": lambda t: eg.linear(t("x", (3, 4)), t("w", (4, 5)), t("b", (5,))),
    "virtual_batch_norm": lambda t: eg.virtual_batch_norm(
        t("x", (3, 4, 5)), np.linspace(-0.5, 0.5, 5), np.linspace(0.5, 1.5, 5), 2,
        t("gamma", (5,)), t("beta", (5,))),
}


def _ownership_run(graph, dtype, nodes, seen=None):
    """Build `graph`, weight it twice by arrays holding +0.0, -0.0 and
    nonzeros (periods 4 and 6, so their products hold both zeros too),
    backprop, and return the leaves. `seen` collects (node, gradient) as
    each recorded node's closure runs."""
    rng = np.random.default_rng(7)
    leaves = []

    def t(name, shape, grad=True):
        leaf = Tensor(rng.standard_normal(shape).astype(dtype), requires_grad=grad)
        if not grad:
            return leaf
        leaves.append(leaf)
        return eg.tanh(leaf) if nodes else leaf
    out = graph(t)
    w1, w2 = (Tensor(np.resize(np.array(v, dtype), out.shape))
              for v in ([0.0, -0.0, -1.5, 2.0], [-0.0, 0.0, -1.5, 2.0, 1.0, -1.0]))
    loss = eg.mul(eg.mul(out, w1), w2).sum()
    if seen is not None:
        for node in _recorded(loss):
            node._backward = (lambda f, n: lambda g: (seen.append((n, g)), f(g)))(
                node._backward, node)
    backward(loss)
    return leaves


def _zero_filled_accum(t, g):
    if t.requires_grad:
        if t.grad is None:
            t.grad = np.zeros_like(t.data)
        t.grad += g


@pytest.mark.parametrize("nodes", [False, True], ids=["leaves", "nodes"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("name", list(OWNERSHIP_GRAPHS))
def test_kept_gradients_equal_the_zero_filled_sums(monkeypatch, name, dtype, nodes):
    seen = []
    leaves = _ownership_run(OWNERSHIP_GRAPHS[name], dtype, nodes, seen)
    with monkeypatch.context() as m:
        m.setattr(eg, "_accum", _zero_filled_accum)
        want = _ownership_run(OWNERSHIP_GRAPHS[name], dtype, nodes)
    for leaf, ref in zip(leaves, want):
        assert leaf.grad.tobytes() == ref.grad.tobytes(), name
    grads = [(leaf, leaf.grad) for leaf in leaves] + seen
    for i, (t, g) in enumerate(grads):
        assert g.shape == t.shape and g.dtype == t.dtype, name
        for _, h in grads[i + 1:]:
            assert not np.shares_memory(g, h), name
    # a node kept the -0.0 a multiplication made, which a zeroed sum turns
    # into +0.0; the leaves below still match that sum byte for byte
    assert any(np.any((g == 0) & np.signbit(g)) for _, g in seen), name


def test_a_closure_cannot_write_into_its_upstream_gradient():
    x = Tensor(np.ones(4), requires_grad=True)

    def back(g):
        g *= 2.0
        eg._accum(x, g)
    y = eg._make(x.data.copy(), (x,), back)
    with pytest.raises(ValueError, match="read-only"):
        backward(eg.mul(y, Tensor(np.full(4, 3.0))).sum())
    # add passes its gradient on unchanged; both parents are recorded nodes,
    # which keep a whole writeable array, so each must get a zero-filled sum
    rng = np.random.default_rng(0)
    a, b = (eg.tanh(Tensor(rng.standard_normal(4), requires_grad=True)) for _ in range(2))
    s = eg.add(a, b)
    after = []
    add_back = s._backward
    s._backward = lambda g: (add_back(g), after.append((g, a.grad, b.grad)))
    backward(eg.mul(s, Tensor(np.full(4, -1.5))).sum())
    (g, ga, gb), = after
    assert np.array_equal(ga, g) and np.array_equal(gb, g)
    for u, v in ((ga, g), (gb, g), (ga, gb)):
        assert not np.shares_memory(u, v)


@pytest.mark.parametrize("depth", [10, 40])
def test_backward_memory_does_not_grow_with_depth(depth):
    # a node's gradient is released once its closure has run, so the walk
    # holds about one gradient, its parent's and a temporary at a time
    rng = np.random.default_rng(0)
    x = Tensor(rng.standard_normal(1 << 17), requires_grad=True)   # 1 MB
    half = Tensor(np.full(x.data.shape, 0.5))
    h = x
    for i in range(depth):
        h = eg.tanh(h) if i % 2 else eg.mul(h, half)
    loss = h.sum()
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        backward(loss)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - held < 4 * x.data.nbytes, (peak - held) / x.data.nbytes


def test_backward_closures_hold_only_parent_data_and_their_own_output():
    # an array a closure keeps beyond these (a padded copy, say) lives as
    # long as the graph does
    for name, case in OP_CASES.items():
        build_loss, _ = case(np.random.default_rng(0))
        for node in _recorded(build_loss()):
            allowed = {id(node.data)} | {id(p.data) for p in node._parents}
            for cell in node._backward.__closure__ or ():
                held = cell.cell_contents
                if isinstance(held, np.ndarray):
                    assert id(held) in allowed, (name, held.shape)


def test_unused_parameter_reports_zero_gradient():
    x = _p("x", [1.0])
    unused = _p("u", [1.0])
    backward(eg.mul(x, x).sum())
    assert np.array_equal(unused.grad, [0.0])


def test_no_grad_blocks_graph_recording():
    # every op case, under no_grad and with no parameter requiring grad
    for name, case in OP_CASES.items():
        build_loss, params = case(np.random.default_rng(0))
        with no_grad():
            losses = [build_loss()]
        for p in params:
            p.requires_grad = False
        losses.append(build_loss())
        for loss in losses:
            assert not loss.requires_grad, name
            assert loss._parents == () and loss._backward is None, name


def test_graph_nodes_are_recorded_only_in_make():
    # every op's backward passes through _make, the one hook point
    writers, scope = set(), []

    class Scan(ast.NodeVisitor):
        def visit_FunctionDef(self, node):
            scope.append(node.name)
            self.generic_visit(node)
            scope.pop()

        visit_ClassDef = visit_FunctionDef

        def visit_Attribute(self, node):
            if node.attr in ("_parents", "_backward") and not isinstance(node.ctx, ast.Load):
                writers.add(".".join(scope))
            self.generic_visit(node)

        def visit_Call(self, node):
            if (isinstance(node.func, ast.Name) and node.func.id in ("setattr", "delattr")
                    and any(isinstance(a, ast.Constant) and a.value in ("_parents", "_backward")
                            for a in node.args)):
                writers.add(".".join(scope))
            self.generic_visit(node)

    Scan().visit(ast.parse(Path(eg.__file__).read_text()))
    assert writers == {"_make", "Tensor.__init__"}


def test_detach_cuts_gradient_flow():
    x = _p("x", [3.0])
    backward(eg.mul(x.detach(), x).sum())
    assert np.array_equal(x.grad, [3.0])   # only the live branch contributes


def test_float32_preserved_through_ops():
    x = Tensor(np.zeros((1, 8, 2), dtype=np.float32))
    w = Tensor(np.zeros((3, 2, 4), dtype=np.float32))
    assert eg.conv1d(x, w).dtype == np.float32
    assert eg.tanh(x).dtype == np.float32


def test_debug_checks_flag_catches_nonfinite():
    eg.set_debug_checks(True)
    try:
        with np.errstate(over="ignore"), pytest.raises(FloatingPointError):
            eg.mul(Tensor([1e300]), Tensor([1e300]))
    finally:
        eg.set_debug_checks(False)


# ---------------------------------------------------------------------------
# latent sampling


def test_sample_z_shape_dtype_determinism():
    z1 = sample_z(2, 8, 1024, seed=7)
    z2 = sample_z(2, 8, 1024, seed=7)
    assert z1.shape == (2, 8, 1024)
    assert z1.dtype == np.float32
    assert np.array_equal(z1.data, z2.data)
    assert not np.array_equal(z1.data, sample_z(2, 8, 1024, seed=8).data)


def test_sample_z_standard_normal_statistics():
    z = sample_z(16, 256, 256, seed=0)         # 2^20 draws
    assert abs(float(z.data.mean())) < 0.01
    assert abs(float(z.data.var()) - 1.0) < 0.02

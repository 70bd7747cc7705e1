import tracemalloc

import numpy as np
import pytest

from thermofuse import ShapeError, StateError
from thermofuse.nn import (
    BatchNormLayer,
    Conv2DLayer,
    Conv2DTransposeLayer,
    DropoutLayer,
    LeakyReLULayer,
    ReLULayer,
    SigmoidLayer,
    gradient_check,
    sigmoid,
)


def test_activation_functions():
    x = np.array([-2.0, -0.5, 0.0, 0.5, 2.0])
    assert np.array_equal(ReLULayer().forward(x), [0.0, 0.0, 0.0, 0.5, 2.0])
    assert np.allclose(LeakyReLULayer().forward(x), [-0.6, -0.15, 0.0, 0.5, 2.0])
    s = sigmoid(x)
    assert np.allclose(s, 1.0 / (1.0 + np.exp(-x)))
    # stable at extreme inputs: saturates without overflow warnings
    with np.errstate(over="raise"):
        big = sigmoid(np.array([-800.0, 800.0]))
    assert big[0] == 0.0 and big[1] == 1.0


def conv_reference(x, w, b, stride):
    """Direct nested-loop convolution with SAME padding."""
    n, h, wd, c = x.shape
    f = w.shape[3]
    oh = (h + stride - 1) // stride
    ow = (wd + stride - 1) // stride
    pt, pb = _pads(h, stride)
    pl, pr = _pads(wd, stride)
    xp = np.pad(x, ((0, 0), (pt, pb), (pl, pr), (0, 0)))
    out = np.zeros((n, oh, ow, f))
    for i in range(oh):
        for j in range(ow):
            patch = xp[:, i * stride : i * stride + 3, j * stride : j * stride + 3, :]
            out[:, i, j, :] = np.tensordot(patch, w, axes=([1, 2, 3], [0, 1, 2]))
    return out + b


def _pads(extent, stride):
    if stride == 1:
        return 1, 1
    return (1, 1) if extent % 2 else (0, 1)


@pytest.mark.parametrize("stride,h,w", [(1, 5, 7), (2, 6, 8), (2, 4, 10)])
def test_conv_forward_matches_reference(stride, h, w):
    rng = np.random.default_rng(17)
    layer = Conv2DLayer(3, 4, stride=stride, rng=rng)
    x = rng.normal(size=(2, h, w, 3))
    got = layer.forward(x)
    want = conv_reference(x, layer.params["w"], layer.params["b"], stride)
    assert got.shape == want.shape
    assert np.allclose(got, want, atol=1e-12)


def test_stride_two_needs_even_extents():
    layer = Conv2DLayer(1, 1, stride=2, rng=np.random.default_rng(0))
    with pytest.raises(ShapeError):
        layer.forward(np.ones((1, 5, 6, 1)))
    with pytest.raises(ShapeError):
        Conv2DLayer(1, 1, stride=3)


def test_conv_output_extents():
    rng = np.random.default_rng(0)
    x = np.zeros((1, 8, 8, 2))
    assert Conv2DLayer(2, 5, stride=1, rng=rng).forward(x).shape == (1, 8, 8, 5)
    assert Conv2DLayer(2, 5, stride=2, rng=rng).forward(x).shape == (1, 4, 4, 5)
    t = Conv2DTransposeLayer(2, 5, rng=rng).forward(x)
    assert t.shape == (1, 16, 16, 5)


def test_conv_transpose_is_adjoint_of_strided_conv():
    # <conv(x), y> == <x, convT(y)> when both share the same kernel
    rng = np.random.default_rng(23)
    conv = Conv2DLayer(3, 2, stride=2, rng=rng)
    convt = Conv2DTransposeLayer(2, 3, rng=rng)
    convt.params["w"][:] = conv.params["w"]
    convt.params["b"][:] = 0.0
    conv.params["b"][:] = 0.0
    x = rng.normal(size=(1, 8, 8, 3))
    y = rng.normal(size=(1, 4, 4, 2))
    lhs = float((conv.forward(x) * y).sum())
    rhs = float((x * convt.forward(y)).sum())
    assert abs(lhs - rhs) < 1e-9


def test_conv_working_set_is_a_few_inputs():
    # The per-tap loop needs the padded input, the output and one tap's
    # product; an im2col column buffer alone is 9x the input.
    rng = np.random.default_rng(8)
    layer = Conv2DLayer(16, 16, stride=1, rng=rng)
    x = rng.normal(size=(1, 128, 128, 16))
    tracemalloc.start()
    try:
        layer.forward(x, grad=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * x.nbytes

    layer.forward(x, grad=True)
    padded_bytes = 130 * 130 * 16 * x.itemsize
    cached = [v for v in layer._cache if isinstance(v, np.ndarray)]
    assert cached and max(a.nbytes for a in cached) <= padded_bytes


def test_batchnorm_training_statistics():
    rng = np.random.default_rng(4)
    layer = BatchNormLayer(3)
    x = rng.normal(loc=5.0, scale=2.0, size=(4, 6, 6, 3))
    y = layer.forward(x, training=True)
    flat = y.reshape(-1, 3)
    assert np.allclose(flat.mean(axis=0), 0.0, atol=1e-10)
    assert np.allclose(flat.var(axis=0), 1.0, atol=1e-2)  # eps shifts it slightly
    # moving stats drift toward the batch stats by 1 - momentum
    want_mean = 0.99 * 0.0 + 0.01 * x.reshape(-1, 3).mean(axis=0)
    assert np.allclose(layer.buffers["moving_mean"], want_mean, atol=1e-12)


def test_batchnorm_inference_uses_moving_stats():
    layer = BatchNormLayer(2)
    layer.buffers["moving_mean"][:] = [1.0, -1.0]
    layer.buffers["moving_var"][:] = [4.0, 0.25]
    x = np.ones((1, 2, 2, 2))
    y = layer.forward(x, training=False)
    assert np.allclose(y[..., 0], (1.0 - 1.0) / np.sqrt(4.0 + 1e-3), atol=1e-12)
    assert np.allclose(y[..., 1], (1.0 + 1.0) / np.sqrt(0.25 + 1e-3), atol=1e-12)


def test_batchnorm_one_value_per_channel_uses_moving_stats():
    # A batch of one 1x1 map has no batch statistics; training mode then
    # normalizes like inference and leaves the running statistics alone.
    layer = BatchNormLayer(2)
    layer.buffers["moving_mean"][:] = [1.0, -1.0]
    layer.buffers["moving_var"][:] = [4.0, 0.25]
    x = np.array([[[[3.0, 0.5]]]])
    want = layer.forward(x, training=False)
    dy = np.array([[[[0.7, -1.3]]]])
    want_dx = layer.backward(dy)
    assert np.array_equal(layer.forward(x, training=True), want)
    assert np.array_equal(layer.backward(dy), want_dx)
    assert np.array_equal(layer.buffers["moving_mean"], [1.0, -1.0])
    assert np.array_equal(layer.buffers["moving_var"], [4.0, 0.25])


def test_dropout_scaling_and_determinism():
    x = np.ones((2, 4, 4, 3))
    layer = DropoutLayer()
    assert layer.forward(x, training=False) is x  # identity outside training
    y1 = layer.forward(x, training=True, rng=np.random.default_rng(9))
    y2 = layer.forward(x, training=True, rng=np.random.default_rng(9))
    assert np.array_equal(y1, y2)
    kept = y1 != 0.0
    assert np.allclose(y1[kept], 2.0)  # inverted scaling by 1/(1-rate)
    with pytest.raises(StateError):
        layer.forward(x, training=True)


def test_rank_validation():
    for layer in (Conv2DLayer(1, 1, rng=np.random.default_rng(0)), BatchNormLayer(1)):
        with pytest.raises(ShapeError):
            layer.forward(np.ones((4, 4, 1)))


@pytest.mark.parametrize(
    "make",
    [
        lambda rng: Conv2DLayer(2, 3, stride=1, rng=rng),
        lambda rng: Conv2DLayer(2, 3, stride=2, rng=rng),
        lambda rng: Conv2DTransposeLayer(2, 3, rng=rng),
        lambda rng: BatchNormLayer(2),
        lambda rng: ReLULayer(),
        lambda rng: LeakyReLULayer(),
        lambda rng: SigmoidLayer(),
    ],
)
def test_gradient_check_each_layer(make):
    for seed in range(3):
        rng = np.random.default_rng(100 + seed)
        layer = make(rng)
        x = rng.normal(size=(2, 6, 6, 2))
        if isinstance(layer, (ReLULayer, LeakyReLULayer)):
            x += 0.05 * np.sign(x) + 1e-3  # keep clear of the kink
        report = gradient_check(layer, x, tolerance=1e-4)
        assert report.passed, str(report)


def test_dropout_backward_is_mask_product():
    # the training-mode Jacobian is diagonal: exactly the stored mask
    rng = np.random.default_rng(7)
    layer = DropoutLayer()
    x = rng.normal(size=(2, 5, 5, 2))
    y = layer.forward(x, training=True, rng=np.random.default_rng(1))
    mask = np.where(x != 0.0, y / np.where(x == 0.0, 1.0, x), 0.0)
    dy = rng.normal(size=y.shape)
    assert np.allclose(layer.backward(dy), dy * layer._mask, atol=0.0)
    assert np.allclose(layer._mask[x != 0.0], mask[x != 0.0], atol=1e-12)


def test_gradient_check_flags_broken_backward():
    class Broken(ReLULayer):
        def backward(self, dout):
            return super().backward(dout) * 1.5

    rng = np.random.default_rng(13)
    x = rng.normal(size=(1, 4, 4, 1)) + 2.0  # all positive, no kink excuse
    report = gradient_check(Broken(), x)
    assert not report.passed
    assert report.max_rel_err > 0.1

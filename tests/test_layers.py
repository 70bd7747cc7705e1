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
from thermofuse.nn.layers import correlate, correlate_adjoint, kernel_grad


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
    # <correlate(x), dy> == <x, correlate_adjoint(dy)> and
    # <correlate(x, w2), dy> == <w2, kernel_grad(x, dy)>: the transpose
    # convolution and both gradients are adjoints of the one forward kernel.
    rng = np.random.default_rng(23)
    for stride, h, w in [(1, 5, 7), (1, 6, 4), (1, 3, 8), (2, 6, 8), (2, 4, 2)]:
        x = rng.normal(size=(2, h, w, 3))
        kernel, other = rng.normal(size=(2, 3, 3, 3, 4))
        y = correlate(x, kernel, stride)
        dy = rng.normal(size=y.shape)
        dx = correlate_adjoint(dy, kernel, stride, x.shape)
        assert dx.shape == x.shape
        assert abs(np.vdot(y, dy) - np.vdot(x, dx)) < 1e-9
        dw = kernel_grad(x, dy, stride)
        assert abs(np.vdot(correlate(x, other, stride), dy) - np.vdot(other, dw)) < 1e-9
        if stride == 2:  # the transpose layer (zero bias) is that adjoint
            transpose = Conv2DTransposeLayer(4, 3)
            transpose.params["w"][:] = kernel
            assert np.array_equal(transpose.forward(dy), dx)


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

    # Backward pads again inside the kernels: each layer keeps its input.
    layer.forward(x, grad=True)
    assert layer._cache is x
    transpose = Conv2DTransposeLayer(16, 16, rng=rng)
    transpose.forward(x, grad=True)
    assert transpose._cache is x


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


def batch_norm_training_shapes():
    """Criterion 3's five (n, h, w, c) shapes, then one value per channel."""
    for trial in range(5):
        shape_rng = np.random.default_rng(1000 + trial)
        n = int(shape_rng.integers(1, 3))
        h = 2 * int(shape_rng.integers(2, 5))
        w = 2 * int(shape_rng.integers(2, 5))
        yield n, h, w, int(shape_rng.integers(1, 4))
    yield 1, 1, 1, 3


@pytest.mark.parametrize("shape", list(batch_norm_training_shapes()))
def test_gradient_check_batch_norm_training(shape):
    # Training steps normalize with batch statistics, whose backward has
    # terms the frozen-statistics check above never reaches.
    x = np.random.default_rng(3).normal(size=shape)
    report = gradient_check(BatchNormLayer(shape[3]), x, tolerance=1e-4, training=True)
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

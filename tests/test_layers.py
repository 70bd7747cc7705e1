import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

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
from thermofuse.nn.layers import (
    _BAND_ELEMENTS,
    _DRAW_ELEMENTS,
    DROPOUT_RATE,
    KERNEL,
    LEAKY_ALPHA,
    _band_rows,
    _channel_mean,
    _channel_sum,
    correlate,
    correlate_adjoint,
    kernel_grad,
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


SPECIALS = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan]
BITS = {np.float32: np.uint32, np.float64: np.uint64}


def special_arrays(dtype, specials=SPECIALS):
    """1-D `dtype` arrays of finite values of that width mixed with
    `specials`; up to 80 values, so numpy's vector loops and their scalar
    tails both run."""
    width = np.finfo(dtype).bits
    finite = st.floats(allow_nan=False, allow_infinity=False, width=width)
    element = st.one_of(finite, st.sampled_from(specials))
    return st.lists(element, min_size=1, max_size=80).map(
        lambda values: np.array(values, dtype=dtype)
    )


def same_bits(a, b):
    return a.dtype == b.dtype and np.array_equal(
        a.view(BITS[a.dtype.type]), b.view(BITS[b.dtype.type])
    )


def forward_both_ways(layer, x):
    """The layer's output on its own and written into a copy of `x`, which
    must agree bit for bit; `x` itself stays untouched."""
    before = x.copy()
    got = layer.forward(x, grad=False)
    inside = x.copy()
    assert layer.forward(inside, grad=False, in_place=True) is inside
    assert same_bits(inside, got)
    assert same_bits(x, before)
    return got


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@given(data=st.data())
def test_leaky_relu_matches_where_formulas_bitwise(dtype, data):
    x = data.draw(special_arrays(dtype))
    dout = data.draw(special_arrays(dtype), label="dout")
    dout = np.resize(dout, x.shape)
    layer = LeakyReLULayer()
    want = np.where(x >= 0.0, x, LEAKY_ALPHA * x)
    assert same_bits(forward_both_ways(layer, x), want)
    layer.forward(x)
    want_dx = np.where(x >= 0.0, dout, LEAKY_ALPHA * dout)
    assert same_bits(layer.backward(dout), want_dx)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@given(data=st.data())
def test_relu_matches_where_formulas(dtype, data):
    x = data.draw(special_arrays(dtype))
    layer = ReLULayer()
    got = forward_both_ways(layer, x)
    want = np.where(x >= 0.0, x, 0.0)
    nan = np.isnan(x)
    # A NaN propagates (the where formula made it 0.0); every other value
    # keeps its bits, except that a -0.0 input may come out as +0.0.
    assert np.isnan(got[nan]).all()
    assert np.array_equal(got[~nan], want[~nan])
    exact = ~nan & ~((x == 0.0) & np.signbit(x))
    assert same_bits(got[exact], want[exact])
    # Backward on a finite gradient is the where formula's value; only the
    # sign of a masked zero may differ.
    finite = data.draw(special_arrays(dtype, [0.0, -0.0]), label="dout")
    dout = np.resize(finite, x.shape)
    layer.forward(x)
    dx = layer.backward(dout)
    mask = x >= 0.0
    assert dx.dtype == x.dtype
    assert np.array_equal(dx, np.where(mask, dout, 0.0))
    assert same_bits(dx[mask], dout[mask])


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
    # The extents are checked before any phase plane is built: these planes
    # would take 135 MB, the input (a broadcast view) takes none.
    x = np.broadcast_to(0.0, (1, 513, 512, 64))
    tracemalloc.start()
    try:
        with pytest.raises(ShapeError):
            Conv2DLayer(64, 1, stride=2).forward(x, grad=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


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


def _padded_reference(x, stride):
    """`x` SAME-padded for `stride`: one pixel on every side at stride 1,
    one row and column at the bottom/right at stride 2."""
    n, h, w, c = x.shape
    top, bottom, left, right = (1, 1, 1, 1) if stride == 1 else (0, 1, 0, 1)
    xp = np.zeros((n, top + h + bottom, left + w + right, c), dtype=x.dtype)
    xp[:, top : top + h, left : left + w] = x
    return xp, top, left


def _strided_taps(xp, stride, out_h, out_w):
    for i in range(KERNEL):
        for j in range(KERNEL):
            yield i, j, xp[
                :, i : i + stride * out_h : stride, j : j + stride * out_w : stride, :
            ]


def correlate_reference(x, w, stride):
    """The strided-view kernels the phase planes replaced, kept as the
    reference for their bits: tap (i, j) of the padded input xp is the
    strided view xp[:, s*p + i, s*q + j]."""
    n, h, wd, c = x.shape
    xp, _, _ = _padded_reference(x, stride)
    out_h, out_w, f = h // stride, wd // stride, w.shape[3]
    band = _band_rows(n, out_w, c, f)
    y = np.zeros((n, out_h, out_w, f), dtype=np.result_type(x, w))
    for r in range(0, out_h, band):
        y_band = y[:, r : r + band]
        for i, j, tap in _strided_taps(xp[:, stride * r :], stride, y_band.shape[1], out_w):
            y_band += (tap.reshape(-1, c) @ w[i, j]).reshape(y_band.shape)
    return y


def correlate_adjoint_reference(dy, w, stride, x_shape):
    n, h, wd, c = x_shape
    dxp, top, left = _padded_reference(np.zeros(x_shape, np.result_type(dy, w)), stride)
    out_h, out_w, f = dy.shape[1:]
    dy_flat = dy.reshape(n * out_h * out_w, f)
    for i, j, tap in _strided_taps(dxp, stride, out_h, out_w):
        tap += (dy_flat @ w[i, j].T).reshape(tap.shape)
    return dxp[:, top : top + h, left : left + wd, :]


def kernel_grad_reference(x, dy, stride):
    n, out_h, out_w, f = dy.shape
    c = x.shape[3]
    xp, _, _ = _padded_reference(x, stride)
    dy_flat = dy.reshape(n * out_h * out_w, f)
    dw = np.empty((KERNEL, KERNEL, c, f), dtype=np.result_type(x, dy))
    for i, j, tap in _strided_taps(xp, stride, out_h, out_w):
        np.matmul(tap.reshape(n * out_h * out_w, c).T, dy_flat, out=dw[i, j])
    return dw


def with_signed_zeros(rng, shape, dtype):
    """Normal values of `dtype` with about a quarter of them +0.0 or -0.0."""
    a = rng.normal(size=shape).astype(dtype)
    zeros = rng.random(shape) < 0.25
    a[zeros] = np.copysign(0.0, rng.random(shape) - 0.5)[zeros]
    return a


def same_array(got, want):
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


CHANNELS = st.sampled_from([1, 4, 16, 64])


@given(
    stride=st.sampled_from([1, 2]), n=st.integers(1, 3),
    h=st.integers(1, 40), w=st.integers(1, 40), c=CHANNELS, f=CHANNELS,
    dtype=st.sampled_from([np.float32, np.float64]), seed=st.integers(0, 2**32 - 1),
)
@example(stride=1, n=2, h=40, w=33, c=64, f=64, dtype=np.float32, seed=0)
@example(stride=2, n=3, h=40, w=40, c=64, f=16, dtype=np.float64, seed=1)
@example(stride=1, n=3, h=40, w=40, c=1, f=64, dtype=np.float32, seed=2)
@example(stride=2, n=3, h=40, w=40, c=1, f=64, dtype=np.float32, seed=3)
@example(stride=1, n=2, h=40, w=33, c=64, f=1, dtype=np.float32, seed=4)
@example(stride=2, n=3, h=40, w=40, c=64, f=1, dtype=np.float64, seed=5)
@example(stride=1, n=3, h=40, w=40, c=1, f=16, dtype=np.float64, seed=6)
@example(stride=1, n=3, h=40, w=40, c=16, f=1, dtype=np.float32, seed=7)
def test_kernels_match_strided_reference_bitwise(stride, n, h, w, c, f, dtype, seed):
    # The phase planes change where a tap is read from, not what is
    # multiplied or in which order it is summed: every kernel returns the
    # bytes of the strided-view kernels, -0.0 included. With one input
    # channel (`correlate`) or one filter (`correlate_adjoint`) at stride 1
    # the sums run as planes, without BLAS, and still give the GEMMs'
    # bytes. The first two examples split `correlate`'s GEMMs into several
    # bands. The third and fifth split one item's planes (`_plane_sum`)
    # into several bands; the last two put two of their three items in one
    # band and the third in a shorter last one. The fourth and sixth run
    # their one-term products on the stride-2 GEMMs.
    if stride == 2:
        h, w = h + h % 2, w + w % 2
    rng = np.random.default_rng(seed)
    x = with_signed_zeros(rng, (n, h, w, c), dtype)
    kernel = with_signed_zeros(rng, (KERNEL, KERNEL, c, f), dtype)
    dy = with_signed_zeros(rng, (n, h // stride, w // stride, f), dtype)
    assert same_array(correlate(x, kernel, stride), correlate_reference(x, kernel, stride))
    assert same_array(
        correlate_adjoint(dy, kernel, stride, x.shape),
        correlate_adjoint_reference(dy, kernel, stride, x.shape),
    )
    dw, want = kernel_grad(x, dy, stride), kernel_grad_reference(x, dy, stride)
    if stride == 2 and n * h == 2 and c == 1:
        # One output row of one channel makes each tap a single vector. The
        # strided kernel handed BLAS every other element of it, the phase
        # plane hands it a contiguous one, and OpenBLAS's dot and gemv
        # round the two differently. No layer of the network asks for this:
        # its one-channel stride-2 convolutions read at least 8x8 inputs.
        assert np.allclose(dw, want, rtol=1e-5, atol=1e-5)
    else:
        assert same_array(dw, want)


def test_reference_example_runs_in_bands():
    # The first example above spans three bands of `correlate`.
    assert -(-40 // _band_rows(2, 33, 64, 64)) == 3
    # `_plane_sum` bands the stack of padded items as one tall image. With
    # 64 planes an item of 42 rows of 42 or 35 values takes two bands, and
    # one of 21 rows of 21 shares a band with one more; with 16 planes a
    # band holds two of the 3 items of 42 rows of 42.
    assert 20 <= _band_rows(1, 42, 1, 64) < 40
    assert 20 <= _band_rows(1, 35, 1, 64) < 40
    assert _band_rows(1, 21, 1, 64) // 21 == 2
    assert _band_rows(1, 42, 1, 16) // 42 == 2


@pytest.mark.parametrize("shape", [(0, 8, 8), (2, 0, 8), (2, 8, 0)])
@pytest.mark.parametrize("c,f", [(3, 4), (1, 4), (4, 1)])
def test_empty_batch_or_extent_gives_empty_arrays(shape, c, f):
    # Nothing to sum is not an error: every kernel and both convolution
    # layers return arrays of the right (empty) shapes, forward and
    # backward, and zero parameter gradients. c = 1 and f = 1 take the
    # planes path at stride 1.
    rng = np.random.default_rng(0)
    x = np.zeros((*shape, c))
    kernel = rng.normal(size=(KERNEL, KERNEL, c, f))
    for stride in (1, 2):
        y = correlate(x, kernel, stride)
        assert y.shape == (shape[0], shape[1] // stride, shape[2] // stride, f)
        assert correlate_adjoint(y, kernel, stride, x.shape).shape == x.shape
        assert same_array(kernel_grad(x, y, stride), np.zeros_like(kernel))
    for layer in (
        Conv2DLayer(c, f, stride=1, rng=rng),
        Conv2DLayer(c, f, stride=2, rng=rng),
        Conv2DTransposeLayer(c, f, rng=rng),
    ):
        y = layer.forward(x)
        assert y.shape == layer._out_shape(x.shape)
        assert layer.backward(np.zeros(y.shape)).shape == x.shape
        assert not layer.grads["w"].any() and not layer.grads["b"].any()


def test_kernels_and_conv_layers_return_contiguous_arrays():
    # The adjoint adds into the padded tap source and copies that source's
    # inside into a fresh dx (the stride-2 one interleaving its phase
    # planes), and with one filter at stride 1 the planes write dx
    # directly: none returns a crop.
    rng = np.random.default_rng(4)
    x = rng.normal(size=(2, 6, 8, 3))
    kernel = rng.normal(size=(KERNEL, KERNEL, 3, 5))
    for stride in (1, 2):
        dy = rng.normal(size=(2, 6 // stride, 8 // stride, 5))
        assert correlate(x, kernel, stride).flags.c_contiguous
        assert correlate_adjoint(dy, kernel, stride, x.shape).flags.c_contiguous
        assert kernel_grad(x, dy, stride).flags.c_contiguous
    for layer in (
        Conv2DLayer(3, 5, stride=1, rng=rng),
        Conv2DLayer(3, 5, stride=2, rng=rng),
        Conv2DTransposeLayer(3, 5, rng=rng),
    ):
        y = layer.forward(x)
        assert y.flags.c_contiguous
        assert layer.backward(np.ones_like(y)).flags.c_contiguous


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

    # Backward at either stride holds one tap source at a time, beside one
    # tap's product or dx.
    for stride in (1, 2):
        layer = Conv2DLayer(16, 16, stride=stride, rng=rng)
        dy = np.ones_like(layer.forward(x, grad=True))
        tracemalloc.start()
        try:
            layer.backward(dy)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * x.nbytes, stride


def test_one_term_working_set_is_bounded():
    # A one-channel forward writes its planes through two band buffers of
    # _BAND_ELEMENTS values each. The GEMM path's peak here, the output, the
    # padded plane and one tap's product band, was 1.13x the output; the
    # planes may add no more than their two buffers to that.
    rng = np.random.default_rng(8)
    layer = Conv2DLayer(1, 16, stride=1, rng=rng)
    x = rng.normal(size=(1, 256, 256, 1))
    out_bytes = x.nbytes * 16
    tracemalloc.start()
    try:
        layer.forward(x, grad=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.14 * out_bytes + 2 * _BAND_ELEMENTS * x.itemsize

    # At stride 1 a one-filter adjoint reads dy's padded source into dx band
    # by band: no second source as large as the input, so backward keeps the
    # 16 -> 16 bound. At stride 2 it runs the GEMMs, under the same bound.
    x = rng.normal(size=(1, 128, 128, 16))
    for stride in (1, 2):
        layer = Conv2DLayer(16, 1, stride=stride, rng=rng)
        dy = np.ones_like(layer.forward(x, grad=True))
        tracemalloc.start()
        try:
            layer.backward(dy)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * x.nbytes, stride


def test_no_wrapped_layer_class_subclasses_another():
    # The benchmark's tracer wraps `forward` and `backward` on each of these
    # classes. One that inherited from another would find that class's
    # wrapper, wrap it again and count each of its spans twice.
    classes = [Conv2DLayer, Conv2DTransposeLayer, BatchNormLayer, ReLULayer,
               LeakyReLULayer, SigmoidLayer, DropoutLayer]
    for a in classes:
        for b in classes:
            assert a is b or not issubclass(a, b), (a.__name__, b.__name__)


@given(
    n=st.integers(1, 64), out_w=st.integers(1, 512),
    c=st.integers(1, 4096), f=st.integers(1, 4096),
)
def test_band_holds_a_weight_slab_and_stays_bounded(n, out_w, c, f):
    # A band's operand is its rows times the wider side of the product: at
    # least one tap's c x f slab, and at most the larger of the budget and
    # that slab, plus one row.
    row = n * out_w * max(c, f)
    operand = _band_rows(n, out_w, c, f) * row
    assert operand >= c * f
    assert operand <= max(_BAND_ELEMENTS, c * f) + row


def test_wide_layer_runs_in_one_band():
    # op2_9 of the published network at 256x256: a 16x16 map, 1536 -> 1024.
    assert _band_rows(1, 16, 1536, 1024) >= 16
    # Small layers keep the budget's band: 512 KB of float64 operand.
    assert _band_rows(8, 32, 4, 4) * 8 * 32 * 4 == _BAND_ELEMENTS


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_layers_are_born_in_their_dtype(dtype):
    # Each array is allocated once, in the layer's dtype; a seeded kernel
    # holds the float64 draws of one `uniform` call, rounded once, even
    # across the chunks it is drawn in.
    conv = Conv2DLayer(128, 64, rng=np.random.default_rng(5), dtype=dtype)
    assert conv.params["w"].size > _DRAW_ELEMENTS
    limit = np.sqrt(6.0 / (KERNEL * KERNEL * (128 + 64)))
    want = np.random.default_rng(5).uniform(-limit, limit, size=(3, 3, 128, 64))
    assert same_bits(conv.params["w"], want.astype(dtype))
    transpose = Conv2DTransposeLayer(2, 3, dtype=dtype)
    bn = BatchNormLayer(3, dtype=dtype)
    arrays = [*conv.params.values(), *transpose.params.values()]
    arrays += [*bn.params.values(), *bn.buffers.values()]
    assert {a.dtype for a in arrays} == {np.dtype(dtype)}
    assert not transpose.params["w"].any()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@given(
    shape=st.tuples(
        st.integers(1, 9), st.integers(1, 17), st.integers(1, 17), st.integers(1, 39)
    ),
    seed=st.integers(0, 2**32 - 1),
)
def test_channel_sum_and_mean_match_numpy_bitwise(dtype, shape, seed):
    x = np.random.default_rng(seed).normal(scale=100.0, size=shape).astype(dtype)
    assert same_bits(_channel_sum(x), x.sum(axis=(0, 1, 2)))
    assert same_bits(_channel_mean(x), x.mean(axis=(0, 1, 2)))


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


def _moved_batchnorm():
    layer = BatchNormLayer(3)
    layer.buffers["moving_mean"][:] = [0.5, -1.0, 2.0]
    layer.buffers["moving_var"][:] = [0.25, 4.0, 1.5]
    layer.params["gamma"][:] = [1.5, -0.5, 2.0]
    layer.params["beta"][:] = [0.1, 0.0, -0.3]
    return layer


@pytest.mark.parametrize(
    "make",
    [
        lambda: Conv2DLayer(3, 3, stride=1, rng=np.random.default_rng(1)),
        lambda: Conv2DLayer(3, 3, stride=2, rng=np.random.default_rng(1)),
        lambda: Conv2DTransposeLayer(3, 3, rng=np.random.default_rng(1)),
        _moved_batchnorm,
        ReLULayer,
        LeakyReLULayer,
        SigmoidLayer,
        DropoutLayer,
    ],
)
@pytest.mark.parametrize("training", [False, True])
@pytest.mark.parametrize("grad", [False, True])
def test_layer_forward_leaves_its_input_unchanged(make, training, grad):
    # float64 reaches every layer uncopied, so a write would land in x.
    x = np.random.default_rng(2).normal(size=(2, 4, 6, 3))
    before = x.copy()
    y = make().forward(x, training=training, rng=np.random.default_rng(3), grad=grad)
    assert np.array_equal(x, before)
    assert not np.shares_memory(x, y) or y is x  # dropout in inference is x


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


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_dropout_mask_matches_two_step_mask(dtype):
    # One expression from the same float64 draws: the values of the cast
    # mask divided by the keep rate.
    x = np.ones((2, 9, 7, 5), dtype=dtype)
    layer = DropoutLayer()
    y = layer.forward(x, training=True, rng=np.random.default_rng(17))
    old = (np.random.default_rng(17).random(x.shape) >= DROPOUT_RATE).astype(dtype)
    old /= 1.0 - DROPOUT_RATE
    assert same_bits(layer._cache, old)
    assert same_bits(y, x * old)


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
    # the training-mode Jacobian is diagonal: exactly the stored mask, which
    # backward consumes, so it is read before
    rng = np.random.default_rng(7)
    layer = DropoutLayer()
    x = rng.normal(size=(2, 5, 5, 2))
    y = layer.forward(x, training=True, rng=np.random.default_rng(1))
    mask = np.where(x != 0.0, y / np.where(x == 0.0, 1.0, x), 0.0)
    stored = layer._cache
    dy = rng.normal(size=y.shape)
    assert np.allclose(layer.backward(dy), dy * stored, atol=0.0)
    assert np.allclose(stored[x != 0.0], mask[x != 0.0], atol=1e-12)
    assert layer._cache is None


@pytest.mark.parametrize(
    "make",
    [
        lambda: Conv2DLayer(2, 3, stride=2, rng=np.random.default_rng(0)),
        lambda: Conv2DTransposeLayer(2, 3, rng=np.random.default_rng(0)),
        lambda: BatchNormLayer(2),
        ReLULayer,
        LeakyReLULayer,
        SigmoidLayer,
        DropoutLayer,
    ],
    ids=["conv", "transpose", "batchnorm", "relu", "leaky", "sigmoid", "dropout"],
)
@pytest.mark.parametrize("training", [False, True])
def test_backward_consumes_its_forward(make, training):
    # One backward per grad=True forward: it drops the cache it read, and a
    # backward with nothing pending (none yet, after a grad=False forward,
    # or a second one) is a StateError. Dropout's inference-mode pass is
    # pending too: its backward is the identity.
    layer = make()
    rng = np.random.default_rng(3)
    x = rng.normal(size=(2, 4, 4, 2))
    with pytest.raises(StateError):
        layer.backward(np.ones((2, 4, 4, 2)))
    y = layer.forward(x, training=training, rng=rng)
    dy = rng.normal(size=y.shape)
    dx = layer.backward(dy)
    assert dx.shape == x.shape
    assert layer._cache is None
    with pytest.raises(StateError):
        layer.backward(dy)
    layer.forward(x, training=training, rng=rng)
    layer.forward(x, training=training, rng=rng, grad=False)
    with pytest.raises(StateError):
        layer.backward(dy)


def test_conv_backward_shape_error_keeps_the_cache():
    layer = Conv2DLayer(2, 3, rng=np.random.default_rng(0))
    x = np.random.default_rng(1).normal(size=(2, 4, 4, 2))
    y = layer.forward(x)
    with pytest.raises(ShapeError):
        layer.backward(np.ones((2, 4, 4, 2)))
    assert layer._cache is x
    assert layer.backward(np.ones_like(y)).shape == x.shape


def test_gradient_check_flags_broken_backward():
    class Broken(ReLULayer):
        def backward(self, dout):
            return super().backward(dout) * 1.5

    rng = np.random.default_rng(13)
    x = rng.normal(size=(1, 4, 4, 1)) + 2.0  # all positive, no kink excuse
    report = gradient_check(Broken(), x)
    assert not report.passed
    assert report.max_rel_err > 0.1

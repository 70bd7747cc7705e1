"""Layer vocabulary: 3x3 convolutions, transpose convolutions, batch
normalization, activations and dropout, each with an analytic backward pass.
Their constants (leaky slope, batch-norm eps and momentum, dropout rate) are
the module-level values below, not constructor arguments. Convolutions take
an rng for their initial weights; without one the weights start at zero.

Layers operate on batched arrays shaped (batch, height, width, channels).
A layer with parameters computes in their dtype, casting its input and
gradient to it; a layer without keeps a floating input's dtype (anything
else becomes float64). A layer with parameters takes that dtype when it is
built (float64 by default; `model.build_model` passes the model's) and
allocates each array once, in it: initial kernels are drawn in float64
chunks of bounded size and written straight into the kernel, so they hold
the same values in either dtype.

Every `forward` takes `grad`: with `grad=True` (the default) the layer
keeps whatever the backward pass needs in its one backward slot, `_cache`,
and one `backward` may follow. That backward consumes the cache: it reads
it once and drops it after it has returned, so the layer keeps no
activation after its backward has run, and a backward that raises (a
convolution given a gradient of the wrong shape) leaves it pending. A
`backward` with no pending `grad=True` forward (none yet, a `grad=False`
one since, or a second `backward` after the first) raises StateError.
With `grad=False` the forward runs the same arithmetic, returns a
bit-identical result, keeps nothing and drops what an earlier forward
kept. `grad` is independent of `training`: an inference-mode forward can
still be differentiated. With `grad=False` the layers after a convolution
can also write their result into `x` itself (through numpy's `out=`)
instead of a new array; `in_place=True` asks for that. Only a caller that
owns `x` and keeps nothing else of it may ask: `model.Block` does, for the
fresh output of its own convolution. A layer called on its own never
writes its input.

The layers with parameters (both convolutions and batch normalization)
hold their last backward's parameter gradients in `grads` until their
owner takes them: `model.Model.gradients` hands them over and empties
`grads`. The four without share one `forward`, and their `params` is an
empty read-only mapping.

The activations are branch-free: ReLU is `np.maximum(x, 0.0)` and leaky
ReLU `np.maximum(x, LEAKY_ALPHA * x)`; their backward passes multiply by
the cached `x >= 0` mask (ReLU) or by the mask raised to at least
LEAKY_ALPHA. Leaky ReLU gives the bits of the `np.where` form it replaces.
ReLU differs in three corners: a NaN input comes out as NaN, not 0.0, so
it reaches the non-finite checks downstream; a -0.0 input may come out as
+0.0 (a convolution never outputs -0.0); and its backward leaves a masked
gradient as a zero of the gradient's sign, or as NaN if it is not finite.

Convolutions use SAME zero padding. With stride 1 that pads one pixel on
every side; with stride 2 (even input extents required) the output is
exactly half the input and the single leftover pad row/column goes at the
bottom/right.

Apart from the one-term products below, convolution arithmetic is one
loop over the nine kernel taps of one source (`_zero_source`): at stride 1
the SAME-padded input xp, at stride 2 the input's four phase planes
x[:, a::2, b::2] (the polyphase components a one-level Haar step also
takes), each with one trailing zero row and column. Tap (i, j), whose
(p, q) element is xp[:, s*p + i, s*q + j], is the window
plane[i % s][j % s][:, i//s : i//s + out_h, j//s : j//s + out_w]: its
rows are contiguous, so no tap is a strided gather. Three kernels take
and return unpadded C-contiguous arrays. `correlate(x, w,
s)` and `kernel_grad(x, dy, s)` read the source filled with x: the first
sums tap @ w[i, j], the second is its gradient in w, tap.T @ dy.
`correlate_adjoint(dy, w, s, x_shape)`, its adjoint in x, writes the same
source backward at both strides: every tap of a zeroed source gains dy @
w[i, j].T, and the source's inside is dx. The tests keep strided-view
kernels as the reference for the bits: the source changes where a tap is
read or written, not what is multiplied or the order of the sums. A
convolution's forward, dX and dW are those three. A transpose convolution
is the adjoint of the stride-2 convolution, doubling both extents
exactly, so it runs them the other way round: forward is the adjoint, dX
is `correlate(dy, w, 2)` and dW is `kernel_grad(dy, x, 2)`. Both cache
only their input.

A product with one term (one input channel in `correlate`, one filter in
`correlate_adjoint`) is one multiply per output, and a GEMM with a
one-term contraction gains nothing from its packing: `op2_0` at 256², 1
-> 16 channels, ran at about 1 GFLOP/s on one thread of SkylakeX
OpenBLAS, where the wide layers run at 75-100. At stride 1 those two
cases run without BLAS, as planes (`_plane_sum`) over one stride-1 tap
source: the forward reads x's at taps (i, j), the adjoint dy's at the
mirrored taps (2 - i, 2 - j). From +0.0, each tap in order adds w *
window to every output channel's plane, a band of rows at a time, and
each band goes to channels-last once. The bytes are the GEMMs': a
one-term GEMM (alpha 1, beta 0) rounds the one product once, as numpy's
multiply does, and the sums run in the same order from the same +0.0, so
a -0.0 product never shows (+0.0 + -0.0 is +0.0). The operand's shape
and the stride select the path. At stride 2 one-term products stay on
the GEMMs: no network configuration runs a one-filter stride-2 adjoint,
and the one-channel stride-2 forwards (seven per dwf=1 training step)
saved about 0.2% of a step as planes, less than run-to-run noise.
`kernel_grad` stays on its GEMMs: its contraction runs over the pixels.
"""

from __future__ import annotations

from types import MappingProxyType

import numpy as np
from numpy.lib.stride_tricks import as_strided

from ..errors import ShapeError, StateError

KERNEL = 3
# Values per band operand in `correlate` (512 KB in float64), unless one
# tap's weight slab is larger: see `_band_rows`. Also the values in each of
# the two band buffers of `_plane_sum`.
_BAND_ELEMENTS = 1 << 16
# Float64 values per draw when a kernel is initialised (512 KB).
_DRAW_ELEMENTS = 1 << 16
LEAKY_ALPHA = 0.3
BN_EPS = 1e-3
BN_MOMENTUM = 0.99
DROPOUT_RATE = 0.5

def _floating(x) -> np.ndarray:
    """`x` as an array, keeping a floating dtype and making anything else
    float64."""
    x = np.asarray(x)
    return x if np.issubdtype(x.dtype, np.floating) else x.astype(np.float64)


def sigmoid(x, out=None):
    """1 / (1 + exp(-x)), computed without overflow for large |x|, in the
    dtype of a floating `x` (float64 otherwise), into `out` if given (which
    may be `x` itself)."""
    x = _floating(x)
    if out is None:
        out = np.empty_like(x)
    pos = x >= 0.0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _channel_sum(x: np.ndarray) -> np.ndarray:
    """`x.sum(axis=(0, 1, 2))`, bit for bit and faster. Over several
    channels numpy adds the pixels in order, channel by channel, and so does
    this einsum, without the per-channel overhead of the axis reduction; a
    single channel numpy sums pairwise, so that one is left to `.sum`."""
    c = x.shape[-1]
    if c == 1:
        return x.sum(axis=(0, 1, 2))
    return np.einsum("ij->j", x.reshape(-1, c))


def _channel_mean(x: np.ndarray) -> np.ndarray:
    """`x.mean(axis=(0, 1, 2))`, bit for bit: the channel sum divided by the
    pixel count into its own array, as `np.mean` divides."""
    total = _channel_sum(x)
    return np.true_divide(total, np.intp(x[..., 0].size), out=total, casting="unsafe")


def _check_batched(x, dtype) -> np.ndarray:
    x = np.asarray(x, dtype=dtype)
    if x.ndim != 4:
        raise ShapeError(f"layers expect (batch, h, w, channels), got shape {x.shape}")
    return x


def _planes(x: np.ndarray, stride: int) -> np.ndarray:
    """`x` as the (stride, stride, n, h/stride, w/stride, c) view of the
    planes its taps come from: x[None, None] at stride 1, and at stride 2
    its four phase planes, [a, b] being x[:, a::2, b::2]."""
    if stride == 1:
        return x[None, None]
    n, h, w, c = x.shape
    return x.reshape(n, h // 2, 2, w // 2, 2, c).transpose(2, 4, 0, 1, 3, 5)


def _zero_source(shape, stride: int, dtype):
    """A zeroed tap source for an input of `shape` and the view `inside` of
    it that holds the input's planes (`_planes`): one zero row and column
    follow each plane, and at stride 1 one more precedes it, so the source
    is the SAME-padded input at stride 1 and its padded phase planes at
    stride 2. Odd extents at stride 2 raise ShapeError before anything is
    allocated."""
    n, h, w, c = shape
    if stride == 2 and (h % 2 or w % 2):
        raise ShapeError(f"stride-2 convolution needs even extents, got {h}x{w}")
    rows, cols, lead = h // stride, w // stride, 2 - stride
    src = np.zeros((stride, stride, n, lead + rows + 1, lead + cols + 1, c), dtype=dtype)
    return src, src[:, :, :, lead : lead + rows, lead : lead + cols]


def _tap_source(x: np.ndarray, stride: int) -> np.ndarray:
    """Where the taps of `x` come from (`_zero_source`), holding `x`."""
    src, inside = _zero_source(x.shape, stride, x.dtype)
    inside[...] = _planes(x, stride)
    return src


def _taps(src: np.ndarray, stride: int, r: int, rows: int, out_w: int):
    """Yield (i, j, tap) for output rows r to r + rows: tap (i, j) is the
    (batch, rows, out_w, channels) window of plane [i % stride, j % stride]
    of `src` (`_zero_source`) whose (p, q) element is padded pixel
    (stride*(r + p) + i, stride*q + j). Its rows are contiguous."""
    for i in range(KERNEL):
        for j in range(KERNEL):
            u, v = r + i // stride, j // stride
            yield i, j, src[i % stride, j % stride, :, u : u + rows, v : v + out_w]


def _band_rows(n: int, out_w: int, c: int, f: int) -> int:
    """Output rows per band of `correlate` for a batch of `n`, `out_w`
    output columns and a c -> f kernel. A band's operand (its rows times the
    wider of c and f) holds about _BAND_ELEMENTS values, rounded down, but
    never less than one tap's c x f weight slab, rounded up to whole rows.
    So a wide layer streams each slab once per band of at least its own
    size, and a band stays under the larger of the two plus one row. An
    empty row (no batch, columns or channels) counts as one value."""
    row = max(n * out_w * max(c, f), 1)
    return max(_BAND_ELEMENTS // row, (c * f + row - 1) // row)


def _plane_sum(src: np.ndarray, taps, y: np.ndarray) -> None:
    """Write into `y` (n, rows, cols, k) sums of one-term products, one
    plane per channel, read from `src`, the stride-1 tap source
    (`_tap_source`) of a one-channel array. `taps` lists, in summation
    order, ((a, b), weights): pixel (m, p, q) of the term is padded pixel
    (m, p + a, q + b), and `weights` (k values) scale it. From +0.0,
    plane[k] += weights[k] * window adds one rounded product per pixel,
    term by term.

    The n padded items are stacked as one tall image, each `per_item` rows
    of `width` values, so a window is one contiguous run of the flat source
    that goes on through the padding columns and the rows between items:
    each term is one multiply and one add over all the band's planes at
    once, and what lands in the padding is dropped. A band is whole items,
    or rows of one item when an item is larger: each of its two buffers
    holds about _BAND_ELEMENTS values (`_band_rows` of the stack as one
    tall image). Its planes go to channels-last once, when their sums are
    done."""
    n, rows, cols, k = y.shape
    if y.size == 0:
        return
    per_item, width = src.shape[3:5]
    flat = src.reshape(-1)
    terms = [(a * width + b, weights[:, None]) for (a, b), weights in taps]
    fit = _band_rows(1, width, 1, k)
    items = min(n, fit // per_item)
    band = rows if items else min(fit, rows)
    items = max(items, 1)

    def run(g, rb):  # values per plane of a band of g items, rb rows each
        return ((g - 1) * per_item + rb - 1) * width + cols

    planes = np.empty(k * run(items, band), dtype=y.dtype)
    prod = np.empty_like(planes)
    for m in range(0, n, items):
        g = min(items, n - m)
        for r in range(0, rows, band):
            rb = min(band, rows - r)
            length = run(g, rb)
            p = planes[: k * length].reshape(k, length)
            t = prod[: k * length].reshape(k, length)
            p.fill(0)
            base = (m * per_item + r) * width
            for offset, weights in terms:
                start = base + offset
                np.multiply(weights, flat[start : start + length], out=t)
                p += t
            # Plane k's pixel (m + i, r + u, v) is p[k, (i * per_item + u) *
            # width + v]; the band's last pixel is p[k, length - 1].
            steps = np.multiply(p.itemsize, (length, per_item * width, width, 1))
            done = as_strided(p, (k, g, rb, cols), steps, writeable=False)
            y[m : m + g, r : r + rb] = done.transpose(1, 2, 3, 0)


def correlate(x: np.ndarray, w: np.ndarray, stride: int) -> np.ndarray:
    """SAME-padded y = sum of tap @ w[i, j], one band of output rows at a
    time (`_band_rows`): a band's taps are gathered into one GEMM operand
    of bounded size, whatever the image size. With one input channel at
    stride 1 each product has one term, and the sums run as planes
    (`_plane_sum`) over the same tap source, taps (i, j) scaled by
    w[i, j, 0]: the bytes of the GEMMs, without calling BLAS."""
    n, h, wd, c = x.shape
    src = _tap_source(x, stride)
    out_h, out_w, f = h // stride, wd // stride, w.shape[3]
    # `_plane_sum` writes every element; the GEMM bands add into zeros.
    planes = c == 1 and stride == 1
    y = (np.empty if planes else np.zeros)((n, out_h, out_w, f), dtype=np.result_type(x, w))
    if planes:
        taps = [((i, j), w[i, j, 0]) for i in range(KERNEL) for j in range(KERNEL)]
        _plane_sum(src, taps, y)
        return y
    band = _band_rows(n, out_w, c, f)
    for r in range(0, out_h, band):
        y_band = y[:, r : r + band]
        for i, j, tap in _taps(src, stride, r, y_band.shape[1], out_w):
            y_band += (tap.reshape(-1, c) @ w[i, j]).reshape(y_band.shape)
    return y


def correlate_adjoint(
    dy: np.ndarray, w: np.ndarray, stride: int, x_shape
) -> np.ndarray:
    """Adjoint of `correlate` in its (unpadded) input of shape `x_shape`:
    `correlate`'s tap source written backward. Every tap of a zeroed source
    gains dy @ w[i, j].T, and the source's inside becomes dx.

    With one filter at stride 1 each product has one term, and dx is
    summed as planes instead (`_plane_sum`), read from dy's own stride-1
    tap source at the mirrored taps (2 - i, 2 - j), scaled by w[i, j, :, 0],
    in tap order. Where the written source's tap would miss a pixel of dx,
    the plane adds w * 0.0 from dy's padding instead of nothing, which
    leaves a sum that is never -0.0 as it was: for finite weights the bytes
    are the GEMMs'."""
    n, out_h, out_w, f = dy.shape
    dtype = np.result_type(dy, w)
    if f == 1 and stride == 1:
        dx = np.empty(x_shape, dtype=dtype)
        taps = [
            ((KERNEL - 1 - i, KERNEL - 1 - j), w[i, j, :, 0])
            for i in range(KERNEL)
            for j in range(KERNEL)
        ]
        _plane_sum(_tap_source(dy, 1), taps, dx)
        return dx
    src, inside = _zero_source(x_shape, stride, dtype)
    dy_flat = dy.reshape(n * out_h * out_w, f)
    for i, j, tap in _taps(src, stride, 0, out_h, out_w):
        tap += (dy_flat @ w[i, j].T).reshape(tap.shape)
    dx = np.empty(x_shape, dtype=dtype)
    _planes(dx, stride)[...] = inside
    return dx


def kernel_grad(x: np.ndarray, dy: np.ndarray, stride: int) -> np.ndarray:
    """Gradient of `correlate` in w: dw[i, j] = tap.T @ dy, each product
    written straight into its slot."""
    n, out_h, out_w, f = dy.shape
    c = x.shape[3]
    src = _tap_source(x, stride)
    dy_flat = dy.reshape(n * out_h * out_w, f)
    dw = np.empty((KERNEL, KERNEL, c, f), dtype=np.result_type(x, dy))
    for i, j, tap in _taps(src, stride, 0, out_h, out_w):
        np.matmul(tap.reshape(n * out_h * out_w, c).T, dy_flat, out=dw[i, j])
    return dw


class _Layer:
    """The backward slot every layer has: `_cache` holds what its last
    `grad=True` forward left for the backward, or None. A subclass supplies
    `_backward(dout, cache)`."""

    _cache = None

    def backward(self, dout):
        """`_backward` on the pending cache, which is dropped once it has
        returned (not if it raises); StateError if nothing is pending."""
        if self._cache is None:
            raise StateError(
                f"{type(self).__name__}.backward needs a pending forward with grad=True"
            )
        dx = self._backward(dout, self._cache)
        self._cache = None
        return dx


class _Conv(_Layer):
    """What both convolutions share: kernel `w` and bias `b`, the
    input-channel check, the cache (the input itself), the output-gradient
    check, the bias and its gradient. A subclass supplies its output shape,
    its unbiased forward and its (kernel, input) gradients from the kernels."""

    def __init__(self, in_channels: int, filters: int, w_channels, rng, dtype):
        self.in_channels = in_channels
        self.filters = filters
        # Without an rng the kernel stays zero, for weights that are about
        # to be overwritten. With one it is Glorot uniform (fans are receptive
        # field times channel counts), drawn chunk by chunk into the kernel.
        w = np.zeros((KERNEL, KERNEL, *w_channels), dtype=dtype)
        if rng is not None:
            limit = np.sqrt(6.0 / (KERNEL * KERNEL * sum(w_channels)))
            flat = w.reshape(-1)
            for start in range(0, flat.size, _DRAW_ELEMENTS):
                part = flat[start : start + _DRAW_ELEMENTS]
                part[:] = rng.uniform(-limit, limit, size=part.size)
        self.params = {"w": w, "b": np.zeros(filters, dtype=dtype)}
        self.grads: dict[str, np.ndarray] = {}

    def forward(self, x, training: bool = False, rng=None, grad: bool = True):
        x = _check_batched(x, self.params["w"].dtype)
        if x.shape[3] != self.in_channels:
            raise ShapeError(
                f"expected {self.in_channels} input channels, got {x.shape[3]}"
            )
        y = self._forward(x)
        y += self.params["b"]
        self._cache = x if grad else None
        return y

    def _backward(self, dout, x):
        dy = np.asarray(dout, dtype=x.dtype)
        shape = self._out_shape(x.shape)
        if dy.shape != shape:
            raise ShapeError(f"gradient shape {dy.shape} does not match output {shape}")
        self.grads["w"], dx = self._grads(x, dy)
        self.grads["b"] = _channel_sum(dy)
        return dx


class Conv2DLayer(_Conv):
    """3x3 convolution, SAME padding, stride 1 or 2.

    Weights are shaped (3, 3, in_channels, filters), bias (filters,).
    """

    def __init__(
        self, in_channels: int, filters: int, stride: int = 1, rng=None,
        dtype=np.float64,
    ):
        if stride not in (1, 2):
            raise ShapeError(f"stride must be 1 or 2, got {stride}")
        self.stride = stride
        super().__init__(in_channels, filters, (in_channels, filters), rng, dtype)

    def _out_shape(self, x_shape):
        n, h, w, _ = x_shape
        return n, h // self.stride, w // self.stride, self.filters

    def _forward(self, x):
        return correlate(x, self.params["w"], self.stride)

    def _grads(self, x, dy):
        w, s = self.params["w"], self.stride
        return kernel_grad(x, dy, s), correlate_adjoint(dy, w, s, x.shape)


class Conv2DTransposeLayer(_Conv):
    """3x3 transpose convolution, stride 2: (h, w, in) -> (2h, 2w, filters).

    Weights are shaped (3, 3, filters, in_channels), the adjoint layout of
    the stride-2 convolution it inverts spatially.
    """

    def __init__(self, in_channels: int, filters: int, rng=None, dtype=np.float64):
        super().__init__(in_channels, filters, (filters, in_channels), rng, dtype)

    def _out_shape(self, x_shape):
        n, h, w, _ = x_shape
        return n, 2 * h, 2 * w, self.filters

    def _forward(self, x):
        return correlate_adjoint(x, self.params["w"], 2, self._out_shape(x.shape))

    def _grads(self, x, dy):
        return kernel_grad(dy, x, 2), correlate(dy, self.params["w"], 2)


class BatchNormLayer(_Layer):
    """Per-channel batch normalization with running statistics.

    Training mode normalizes by batch moments and updates the running
    mean/variance with momentum BN_MOMENTUM; inference mode normalizes by
    the running statistics, and so does training mode on a batch with a
    single value per channel. BN_EPS is added inside the square root.
    """

    def __init__(self, channels: int, dtype=np.float64):
        self.channels = channels
        self.params = {
            "gamma": np.ones(channels, dtype=dtype),
            "beta": np.zeros(channels, dtype=dtype),
        }
        self.buffers = {
            "moving_mean": np.zeros(channels, dtype=dtype),
            "moving_var": np.ones(channels, dtype=dtype),
        }
        self.grads: dict[str, np.ndarray] = {}

    def forward(
        self, x, training: bool = False, rng=None, grad: bool = True,
        in_place: bool = False,
    ):
        x = _check_batched(x, self.params["gamma"].dtype)
        if x.shape[-1] != self.channels:
            raise ShapeError(f"expected {self.channels} channels, got {x.shape[-1]}")
        if training:
            if x.shape[0] == 0:
                raise StateError("batch normalization needs a non-empty batch")
            # One value per channel has no batch statistics: the output would
            # be beta whatever the input, and the constant layers after it
            # would each scale gradients by up to 1/sqrt(BN_EPS) (to ~1e30 at
            # 32x32 in a batch of one, past what float32 can square). Such a
            # batch is normalized like inference, by the running statistics.
            training = x[..., 0].size > 1
        if training:
            mean = _channel_mean(x)
        else:
            mean = self.buffers["moving_mean"]
        y = np.subtract(x, mean, out=x if in_place else None)
        if training:
            # np.var's own arithmetic, on the centred batch.
            var = _channel_mean(y * y)
            m = BN_MOMENTUM
            self.buffers["moving_mean"] = m * self.buffers["moving_mean"] + (1 - m) * mean
            self.buffers["moving_var"] = m * self.buffers["moving_var"] + (1 - m) * var
        else:
            var = self.buffers["moving_var"]
        inv_std = 1.0 / np.sqrt(var + BN_EPS)
        y *= inv_std  # now xhat
        if grad:
            self._cache = (y, inv_std, training)
            y = self.params["gamma"] * y
        else:
            self._cache = None
            y *= self.params["gamma"]
        y += self.params["beta"]
        return y

    def _backward(self, dout, cache):
        xhat, inv_std, training = cache
        dout = np.asarray(dout, dtype=xhat.dtype)
        self.grads["gamma"] = _channel_sum(dout * xhat)
        self.grads["beta"] = _channel_sum(dout)
        dxhat = dout * self.params["gamma"]
        if not training:
            return dxhat * inv_std
        m = float(np.prod(xhat.shape[:3]))
        sum_dxhat = _channel_sum(dxhat)
        sum_dxhat_xhat = _channel_sum(dxhat * xhat)
        return (inv_std / m) * (m * dxhat - sum_dxhat - xhat * sum_dxhat_xhat)


class _Pointwise(_Layer):
    """What the four parameter-free layers share: no parameters, the input
    kept (or made) floating, its own array as the output when `in_place`,
    and the cache kept only with `grad`. A subclass supplies
    `_forward(x, training, rng, grad, out) -> (y, cache)`, writing y into
    `out` when that is not None."""

    params = MappingProxyType({})

    def forward(
        self, x, training: bool = False, rng=None, grad: bool = True,
        in_place: bool = False,
    ):
        x = _floating(x)
        y, cache = self._forward(x, training, rng, grad, x if in_place else None)
        self._cache = cache if grad else None
        return y


class ReLULayer(_Pointwise):
    def _forward(self, x, training, rng, grad, out):
        mask = x >= 0.0 if grad else None
        return np.maximum(x, 0.0, out=out), mask

    def _backward(self, dout, mask):
        return _floating(dout) * mask


class LeakyReLULayer(_Pointwise):
    def _forward(self, x, training, rng, grad, out):
        mask = x >= 0.0 if grad else None
        return np.maximum(x, LEAKY_ALPHA * x, out=out), mask

    def _backward(self, dout, mask):
        dout = _floating(dout)
        return dout * np.maximum(mask, dout.dtype.type(LEAKY_ALPHA))


class SigmoidLayer(_Pointwise):
    def _forward(self, x, training, rng, grad, out):
        y = sigmoid(x, out=out)
        return y, y

    def _backward(self, dout, y):
        return dout * y * (1.0 - y)


class DropoutLayer(_Pointwise):
    """Inverted dropout: zero with probability DROPOUT_RATE, scale survivors
    by 1/(1-DROPOUT_RATE) in training mode; identity in inference mode. The
    cache is the mask backward multiplies by: in inference mode the Python
    int 1, which keeps `dout`'s dtype and values."""

    def _forward(self, x, training, rng, grad, out):
        if not training:
            return x, 1
        if rng is None:
            raise StateError("dropout in training mode needs an rng")
        # float64 draws in every dtype, so the random stream is dtype-free.
        scale = x.dtype.type(1 / (1 - DROPOUT_RATE))
        mask = (rng.random(x.shape) >= DROPOUT_RATE) * scale
        return np.multiply(x, mask, out=out), mask

    def _backward(self, dout, mask):
        return dout * mask

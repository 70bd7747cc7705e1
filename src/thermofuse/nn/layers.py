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
caches whatever the backward pass needs, and `backward` must be called
after that forward. With `grad=False` it runs the same arithmetic,
returns a bit-identical result, keeps nothing and drops what an earlier
forward kept; call `backward` only after a `grad=True` forward. `grad` is
independent of `training`: an inference-mode forward can still be
differentiated. With `grad=False` the layers after a convolution can
also write their result into `x` itself (through numpy's `out=`) instead
of a new array; `in_place=True` asks for that. Only a caller that owns
`x` and keeps nothing else of it may ask: `model.Block` does, for the
fresh output of its own convolution. A layer called on its own never
writes its input.

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

All convolution arithmetic is one loop over the nine kernel taps; tap
(i, j) of the padded input xp is the strided view xp[:, s*p + i, s*q + j].
Three kernels take and return unpadded arrays and pad inside:
`correlate(x, w, s)` sums tap(xp) @ w[i, j], `correlate_adjoint(dy, w, s,
x_shape)` is its adjoint in x and `kernel_grad(x, dy, s)` its gradient in
w. A convolution's forward, dX and dW are those three. A transpose
convolution is the adjoint of the stride-2 convolution, doubling both
extents exactly, so it runs them the other way round: forward is the
adjoint, dX is `correlate(dy, w, 2)` and dW is `kernel_grad(dy, x, 2)`.
Both cache only their input.
"""

from __future__ import annotations

import numpy as np

from ..errors import ShapeError, StateError

KERNEL = 3
# Values per band operand in `correlate` (512 KB in float64), unless one
# tap's weight slab is larger: see `_band_rows`.
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


def _same_pads(h: int, w: int, stride: int) -> tuple[int, int, int, int]:
    """(top, bottom, left, right) SAME padding of an h x w input."""
    if stride == 1:
        return 1, 1, 1, 1
    if h % 2 or w % 2:
        raise ShapeError(f"stride-2 convolution needs even extents, got {h}x{w}")
    return 0, 1, 0, 1


def _pad(x: np.ndarray, stride: int) -> np.ndarray:
    """`x` SAME-padded for `stride` (np.pad's result, without its per-call
    overhead)."""
    n, h, w, c = x.shape
    top, bottom, left, right = _same_pads(h, w, stride)
    xp = np.zeros((n, top + h + bottom, left + w + right, c), dtype=x.dtype)
    xp[:, top : top + h, left : left + w] = x
    return xp


def _taps(xp: np.ndarray, stride: int, out_h: int, out_w: int):
    """Yield (i, j, tap): the (batch, out_h, out_w, channels) strided view
    of `xp` whose (p, q) element is xp[:, stride*p + i, stride*q + j]."""
    for i in range(KERNEL):
        for j in range(KERNEL):
            yield i, j, xp[
                :, i : i + stride * out_h : stride, j : j + stride * out_w : stride, :
            ]


def _band_rows(n: int, out_w: int, c: int, f: int) -> int:
    """Output rows per band of `correlate` for a batch of `n`, `out_w`
    output columns and a c -> f kernel. A band's operand (its rows times the
    wider of c and f) holds about _BAND_ELEMENTS values, rounded down, but
    never less than one tap's c x f weight slab, rounded up to whole rows.
    So a wide layer streams each slab once per band of at least its own
    size, and a band stays under the larger of the two plus one row."""
    row = n * out_w * max(c, f)
    return max(_BAND_ELEMENTS // row, (c * f + row - 1) // row)


def correlate(x: np.ndarray, w: np.ndarray, stride: int) -> np.ndarray:
    """SAME-padded y = sum of tap(xp) @ w[i, j], one band of output rows at
    a time (`_band_rows`): a band's taps are gathered into one GEMM operand
    of bounded size, whatever the image size."""
    n, h, wd, c = x.shape
    xp = _pad(x, stride)
    out_h, out_w, f = h // stride, wd // stride, w.shape[3]
    band = _band_rows(n, out_w, c, f)
    y = np.zeros((n, out_h, out_w, f), dtype=np.result_type(x, w))
    for r in range(0, out_h, band):
        y_band = y[:, r : r + band]
        for i, j, tap in _taps(xp[:, stride * r :], stride, y_band.shape[1], out_w):
            y_band += (tap.reshape(-1, c) @ w[i, j]).reshape(y_band.shape)
    return y


def correlate_adjoint(
    dy: np.ndarray, w: np.ndarray, stride: int, x_shape
) -> np.ndarray:
    """Adjoint of `correlate` in its (unpadded) input of shape `x_shape`:
    tap(dxp) += dy @ w[i, j].T for every tap, then the padding cropped."""
    n, h, wd, c = x_shape
    pt, pb, pl, pr = _same_pads(h, wd, stride)
    dxp = np.zeros((n, pt + h + pb, pl + wd + pr, c), dtype=np.result_type(dy, w))
    out_h, out_w, f = dy.shape[1:]
    dy_flat = dy.reshape(n * out_h * out_w, f)
    for i, j, tap in _taps(dxp, stride, out_h, out_w):
        tap += (dy_flat @ w[i, j].T).reshape(tap.shape)
    return dxp[:, pt : pt + h, pl : pl + wd, :]


def kernel_grad(x: np.ndarray, dy: np.ndarray, stride: int) -> np.ndarray:
    """Gradient of `correlate` in w: dw[i, j] = tap(xp).T @ dy, each
    product written straight into its slot."""
    n, out_h, out_w, f = dy.shape
    c = x.shape[3]
    xp = _pad(x, stride)
    dy_flat = dy.reshape(n * out_h * out_w, f)
    dw = np.empty((KERNEL, KERNEL, c, f), dtype=np.result_type(x, dy))
    for i, j, tap in _taps(xp, stride, out_h, out_w):
        np.matmul(tap.reshape(n * out_h * out_w, c).T, dy_flat, out=dw[i, j])
    return dw


class _Conv:
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
        self._cache = None

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

    def backward(self, dout):
        x = self._cache
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


class BatchNormLayer:
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
        self._cache = None

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

    def backward(self, dout):
        xhat, inv_std, training = self._cache
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


class ReLULayer:
    def __init__(self):
        self.params: dict[str, np.ndarray] = {}
        self.grads: dict[str, np.ndarray] = {}
        self._mask = None

    def forward(
        self, x, training: bool = False, rng=None, grad: bool = True,
        in_place: bool = False,
    ):
        x = _floating(x)
        self._mask = x >= 0.0 if grad else None
        return np.maximum(x, 0.0, out=x if in_place else None)

    def backward(self, dout):
        return _floating(dout) * self._mask


class LeakyReLULayer:
    def __init__(self):
        self.params: dict[str, np.ndarray] = {}
        self.grads: dict[str, np.ndarray] = {}
        self._mask = None

    def forward(
        self, x, training: bool = False, rng=None, grad: bool = True,
        in_place: bool = False,
    ):
        x = _floating(x)
        self._mask = x >= 0.0 if grad else None
        return np.maximum(x, LEAKY_ALPHA * x, out=x if in_place else None)

    def backward(self, dout):
        dout = _floating(dout)
        return dout * np.maximum(self._mask, dout.dtype.type(LEAKY_ALPHA))


class SigmoidLayer:
    def __init__(self):
        self.params: dict[str, np.ndarray] = {}
        self.grads: dict[str, np.ndarray] = {}
        self._out = None

    def forward(
        self, x, training: bool = False, rng=None, grad: bool = True,
        in_place: bool = False,
    ):
        x = _floating(x)
        out = sigmoid(x, out=x if in_place else None)
        self._out = out if grad else None
        return out

    def backward(self, dout):
        return dout * self._out * (1.0 - self._out)


class DropoutLayer:
    """Inverted dropout: zero with probability DROPOUT_RATE, scale survivors
    by 1/(1-DROPOUT_RATE) in training mode; identity in inference mode."""

    def __init__(self):
        self.params: dict[str, np.ndarray] = {}
        self.grads: dict[str, np.ndarray] = {}
        self._mask = None

    def forward(
        self, x, training: bool = False, rng=None, grad: bool = True,
        in_place: bool = False,
    ):
        x = _floating(x)
        if not training:
            self._mask = None
            return x
        if rng is None:
            raise StateError("dropout in training mode needs an rng")
        # float64 draws in every dtype, so the random stream is dtype-free.
        scale = x.dtype.type(1 / (1 - DROPOUT_RATE))
        mask = (rng.random(x.shape) >= DROPOUT_RATE) * scale
        self._mask = mask if grad else None
        return np.multiply(x, mask, out=x if in_place else None)

    def backward(self, dout):
        if self._mask is None:
            return dout
        return dout * self._mask

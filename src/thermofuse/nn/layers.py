"""Layer vocabulary: 3x3 convolutions, transpose convolutions, batch
normalization, activations and dropout, each with an analytic backward pass.
Their constants (leaky slope, batch-norm eps and momentum, dropout rate) are
the module-level values below, not constructor arguments. Convolutions take
an rng for their initial weights; without one the weights start at zero.

Layers operate on batched arrays shaped (batch, height, width, channels).
A layer with parameters computes in their dtype, casting its input and
gradient to it; a layer without keeps a floating input's dtype (anything
else becomes float64). A layer constructed here holds float64 parameters;
`model.build_model` casts them to the model's dtype (float32 by default).

Every `forward` takes `grad`: with `grad=True` (the default) the layer
caches whatever the backward pass needs, and `backward` must be called
after that forward. With `grad=False` it runs the same arithmetic,
returns a bit-identical result, keeps nothing and drops what an earlier
forward kept; call `backward` only after a `grad=True` forward. `grad` is
independent of `training`: an inference-mode forward can still be
differentiated.

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
# Values per gathered tap matrix in `correlate` (512 KB in float64).
_BAND_ELEMENTS = 1 << 16
LEAKY_ALPHA = 0.3
BN_EPS = 1e-3
BN_MOMENTUM = 0.99
DROPOUT_RATE = 0.5

def _floating(x) -> np.ndarray:
    """`x` as an array, keeping a floating dtype and making anything else
    float64."""
    x = np.asarray(x)
    return x if np.issubdtype(x.dtype, np.floating) else x.astype(np.float64)


def sigmoid(x):
    """1 / (1 + exp(-x)), computed without overflow for large |x|, in the
    dtype of a floating `x` (float64 otherwise)."""
    x = _floating(x)
    out = np.empty_like(x)
    pos = x >= 0.0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


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


def correlate(x: np.ndarray, w: np.ndarray, stride: int) -> np.ndarray:
    """SAME-padded y = sum of tap(xp) @ w[i, j], one band of output rows at
    a time: a band's taps are gathered into one GEMM operand of at most
    _BAND_ELEMENTS values, whatever the image size."""
    n, h, wd, c = x.shape
    xp = _pad(x, stride)
    out_h, out_w, f = h // stride, wd // stride, w.shape[3]
    band = max(1, _BAND_ELEMENTS // (n * out_w * max(c, f)))
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

    def __init__(self, in_channels: int, filters: int, w_channels, rng):
        self.in_channels = in_channels
        self.filters = filters
        shape = (KERNEL, KERNEL, *w_channels)
        if rng is None:  # zeros, for weights that are about to be overwritten
            w = np.zeros(shape)
        else:  # Glorot uniform; fans are receptive field times channel counts
            limit = np.sqrt(6.0 / (KERNEL * KERNEL * sum(w_channels)))
            w = rng.uniform(-limit, limit, size=shape)
        self.params = {"w": w, "b": np.zeros(filters, dtype=np.float64)}
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
        self.grads["b"] = dy.sum(axis=(0, 1, 2))
        return dx


class Conv2DLayer(_Conv):
    """3x3 convolution, SAME padding, stride 1 or 2.

    Weights are shaped (3, 3, in_channels, filters), bias (filters,).
    """

    def __init__(self, in_channels: int, filters: int, stride: int = 1, rng=None):
        if stride not in (1, 2):
            raise ShapeError(f"stride must be 1 or 2, got {stride}")
        self.stride = stride
        super().__init__(in_channels, filters, (in_channels, filters), rng)

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

    def __init__(self, in_channels: int, filters: int, rng=None):
        super().__init__(in_channels, filters, (filters, in_channels), rng)

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

    def __init__(self, channels: int):
        self.channels = channels
        self.params = {
            "gamma": np.ones(channels, dtype=np.float64),
            "beta": np.zeros(channels, dtype=np.float64),
        }
        self.buffers = {
            "moving_mean": np.zeros(channels, dtype=np.float64),
            "moving_var": np.ones(channels, dtype=np.float64),
        }
        self.grads: dict[str, np.ndarray] = {}
        self._cache = None

    def forward(self, x, training: bool = False, rng=None, grad: bool = True):
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
            mean = x.mean(axis=(0, 1, 2))
            centered = x - mean
            # np.var's own arithmetic, with the centred batch kept for xhat.
            var = (centered * centered).mean(axis=(0, 1, 2))
            m = BN_MOMENTUM
            self.buffers["moving_mean"] = m * self.buffers["moving_mean"] + (1 - m) * mean
            self.buffers["moving_var"] = m * self.buffers["moving_var"] + (1 - m) * var
        else:
            centered = x - self.buffers["moving_mean"]
            var = self.buffers["moving_var"]
        inv_std = 1.0 / np.sqrt(var + BN_EPS)
        xhat = centered * inv_std
        self._cache = (xhat, inv_std, training) if grad else None
        return self.params["gamma"] * xhat + self.params["beta"]

    def backward(self, dout):
        xhat, inv_std, training = self._cache
        dout = np.asarray(dout, dtype=xhat.dtype)
        self.grads["gamma"] = (dout * xhat).sum(axis=(0, 1, 2))
        self.grads["beta"] = dout.sum(axis=(0, 1, 2))
        dxhat = dout * self.params["gamma"]
        if not training:
            return dxhat * inv_std
        m = float(np.prod(xhat.shape[:3]))
        sum_dxhat = dxhat.sum(axis=(0, 1, 2))
        sum_dxhat_xhat = (dxhat * xhat).sum(axis=(0, 1, 2))
        return (inv_std / m) * (m * dxhat - sum_dxhat - xhat * sum_dxhat_xhat)


class ReLULayer:
    def __init__(self):
        self.params: dict[str, np.ndarray] = {}
        self.grads: dict[str, np.ndarray] = {}
        self._mask = None

    def forward(self, x, training: bool = False, rng=None, grad: bool = True):
        x = _floating(x)
        mask = x >= 0.0
        self._mask = mask if grad else None
        return np.where(mask, x, 0.0)

    def backward(self, dout):
        return np.where(self._mask, dout, 0.0)


class LeakyReLULayer:
    def __init__(self):
        self.params: dict[str, np.ndarray] = {}
        self.grads: dict[str, np.ndarray] = {}
        self._mask = None

    def forward(self, x, training: bool = False, rng=None, grad: bool = True):
        x = _floating(x)
        mask = x >= 0.0
        self._mask = mask if grad else None
        return np.where(mask, x, LEAKY_ALPHA * x)

    def backward(self, dout):
        return np.where(self._mask, dout, LEAKY_ALPHA * dout)


class SigmoidLayer:
    def __init__(self):
        self.params: dict[str, np.ndarray] = {}
        self.grads: dict[str, np.ndarray] = {}
        self._out = None

    def forward(self, x, training: bool = False, rng=None, grad: bool = True):
        out = sigmoid(x)
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

    def forward(self, x, training: bool = False, rng=None, grad: bool = True):
        x = _floating(x)
        if not training:
            self._mask = None
            return x
        if rng is None:
            raise StateError("dropout in training mode needs an rng")
        # float64 draws in every dtype, so the random stream is dtype-free.
        mask = (rng.random(x.shape) >= DROPOUT_RATE).astype(x.dtype)
        mask /= 1.0 - DROPOUT_RATE
        self._mask = mask if grad else None
        return x * mask

    def backward(self, dout):
        if self._mask is None:
            return dout
        return dout * self._mask

"""Layer vocabulary: 3x3 convolutions, transpose convolutions, batch
normalization, activations and dropout, each with an analytic backward pass.
Their constants (leaky slope, batch-norm eps and momentum, dropout rate) are
the module-level values below, not constructor arguments. Convolutions take
an rng for their initial weights; without one the weights start at zero.

Activations come both as plain functions and as layer objects. Layers
operate on batched arrays shaped (batch, height, width, channels) in
float64. Every `forward` takes `grad`: with `grad=True` (the default) the
layer caches whatever the backward pass needs, and `backward` must be
called after that forward. With `grad=False` it runs the same arithmetic,
returns a bit-identical result, keeps nothing and drops what an earlier
forward kept; call `backward` only after a `grad=True` forward. `grad` is
independent of `training`: an inference-mode forward can still be
differentiated.

Convolutions use SAME zero padding. With stride 1 that pads one pixel on
every side; with stride 2 (even input extents required) the output is
exactly half the input and the single leftover pad row/column goes at the
bottom/right.

All convolution arithmetic is one loop over the nine kernel taps; tap
(i, j) of a padded input xp is the strided view xp[:, s*p + i, s*q + j].
`correlate` sums tap(xp) @ w[i, j], `correlate_adjoint` is its adjoint in
xp and `kernel_grad` its gradient in w. A convolution's forward, dX and dW
are those three, and it caches its padded input. A transpose convolution
is the adjoint of the stride-2 convolution, doubling both extents exactly,
so it runs them the other way round: forward is the adjoint, dX is
correlate over the bottom/right-padded dy, dW is the kernel gradient of
(padded dy, x), and it caches x.
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

def relu(x):
    """max(0, x), elementwise."""
    return np.maximum(0.0, x)


def leaky_relu(x):
    """x for x >= 0, LEAKY_ALPHA * x below."""
    return np.where(x >= 0.0, x, LEAKY_ALPHA * x)


def sigmoid(x):
    """1 / (1 + exp(-x)), computed without overflow for large |x|."""
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0.0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _check_batched(x) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 4:
        raise ShapeError(f"layers expect (batch, h, w, channels), got shape {x.shape}")
    return x


def _same_pads(extent: int, stride: int) -> tuple[int, int]:
    if stride == 1:
        return 1, 1
    if extent % 2:
        raise ShapeError(f"stride-2 convolution needs even extents, got {extent}")
    return 0, 1


def _taps(xp: np.ndarray, stride: int, out_h: int, out_w: int):
    """Yield (i, j, tap): the (batch, out_h, out_w, channels) strided view
    of `xp` whose (p, q) element is xp[:, stride*p + i, stride*q + j]."""
    for i in range(KERNEL):
        for j in range(KERNEL):
            yield i, j, xp[
                :, i : i + stride * out_h : stride, j : j + stride * out_w : stride, :
            ]


def correlate(
    xp: np.ndarray, w: np.ndarray, stride: int, out_h: int, out_w: int
) -> np.ndarray:
    """y = sum of tap(xp) @ w[i, j], one band of output rows at a time: a
    band's taps are gathered into one GEMM operand of at most
    _BAND_ELEMENTS values, whatever the image size."""
    n, c, f = xp.shape[0], xp.shape[3], w.shape[3]
    band = max(1, _BAND_ELEMENTS // (n * out_w * max(c, f)))
    y = np.zeros((n, out_h, out_w, f))
    for r in range(0, out_h, band):
        y_band = y[:, r : r + band]
        for i, j, tap in _taps(xp[:, stride * r :], stride, y_band.shape[1], out_w):
            y_band += (tap.reshape(-1, c) @ w[i, j]).reshape(y_band.shape)
    return y


def correlate_adjoint(
    dy: np.ndarray, w: np.ndarray, stride: int, padded_shape
) -> np.ndarray:
    """Adjoint of `correlate` in xp: tap(dxp) += dy @ w[i, j].T for every tap."""
    dxp = np.zeros(padded_shape)
    n, out_h, out_w, f = dy.shape
    dy_flat = dy.reshape(n * out_h * out_w, f)
    for i, j, tap in _taps(dxp, stride, out_h, out_w):
        tap += (dy_flat @ w[i, j].T).reshape(tap.shape)
    return dxp


def kernel_grad(xp: np.ndarray, dy: np.ndarray, stride: int) -> np.ndarray:
    """Gradient of `correlate` in w: dw[i, j] = tap(xp).T @ dy."""
    n, out_h, out_w, f = dy.shape
    c = xp.shape[3]
    dy_flat = dy.reshape(n * out_h * out_w, f)
    dw = np.empty((KERNEL, KERNEL, c, f))
    for i, j, tap in _taps(xp, stride, out_h, out_w):
        dw[i, j] = tap.reshape(n * out_h * out_w, c).T @ dy_flat
    return dw


def _check_dout(dout, shape) -> np.ndarray:
    dy = np.asarray(dout, dtype=np.float64)
    if dy.shape != shape:
        raise ShapeError(f"gradient shape {dy.shape} does not match output {shape}")
    return dy


class Conv2DLayer:
    """3x3 convolution, SAME padding, stride 1 or 2.

    Weights are shaped (3, 3, in_channels, filters), bias (filters,).
    """

    def __init__(self, in_channels: int, filters: int, stride: int = 1, rng=None):
        if stride not in (1, 2):
            raise ShapeError(f"stride must be 1 or 2, got {stride}")
        self.in_channels = in_channels
        self.filters = filters
        self.stride = stride
        w = _glorot_uniform((KERNEL, KERNEL, in_channels, filters), rng)
        self.params = {"w": w, "b": np.zeros(filters, dtype=np.float64)}
        self.grads: dict[str, np.ndarray] = {}
        self._cache = None

    def forward(self, x, training: bool = False, rng=None, grad: bool = True):
        x = _check_batched(x)
        n, h, w, c = x.shape
        if c != self.in_channels:
            raise ShapeError(
                f"expected {self.in_channels} input channels, got {c}"
            )
        s = self.stride
        pt, pb = _same_pads(h, s)
        pl, pr = _same_pads(w, s)
        xp = np.pad(x, ((0, 0), (pt, pb), (pl, pr), (0, 0)))
        y = correlate(xp, self.params["w"], s, h // s, w // s)
        y += self.params["b"]
        self._cache = (xp, (pt, pl), (h, w)) if grad else None
        return y

    def backward(self, dout):
        xp, (pt, pl), (h, w) = self._cache
        s = self.stride
        dy = _check_dout(dout, (xp.shape[0], h // s, w // s, self.filters))
        self.grads["w"] = kernel_grad(xp, dy, s)
        self.grads["b"] = dy.sum(axis=(0, 1, 2))
        dxp = correlate_adjoint(dy, self.params["w"], s, xp.shape)
        return dxp[:, pt : pt + h, pl : pl + w, :]


class Conv2DTransposeLayer:
    """3x3 transpose convolution, stride 2: (h, w, in) -> (2h, 2w, filters).

    Weights are shaped (3, 3, filters, in_channels), the adjoint layout of
    the stride-2 convolution it inverts spatially.
    """

    def __init__(self, in_channels: int, filters: int, rng=None):
        self.in_channels = in_channels
        self.filters = filters
        w = _glorot_uniform((KERNEL, KERNEL, filters, in_channels), rng)
        self.params = {"w": w, "b": np.zeros(filters, dtype=np.float64)}
        self.grads: dict[str, np.ndarray] = {}
        self._cache = None

    def forward(self, x, training: bool = False, rng=None, grad: bool = True):
        x = _check_batched(x)
        n, h, w, c = x.shape
        if c != self.in_channels:
            raise ShapeError(
                f"expected {self.in_channels} input channels, got {c}"
            )
        yp = correlate_adjoint(
            x, self.params["w"], 2, (n, 2 * h + 1, 2 * w + 1, self.filters)
        )
        y = yp[:, : 2 * h, : 2 * w, :] + self.params["b"]
        self._cache = x if grad else None
        return y

    def backward(self, dout):
        x = self._cache
        n, h, w, _ = x.shape
        dy = _check_dout(dout, (n, 2 * h, 2 * w, self.filters))
        dyp = np.pad(dy, ((0, 0), (0, 1), (0, 1), (0, 0)))
        self.grads["w"] = kernel_grad(dyp, x, 2)
        self.grads["b"] = dy.sum(axis=(0, 1, 2))
        return correlate(dyp, self.params["w"], 2, h, w)


class BatchNormLayer:
    """Per-channel batch normalization with running statistics.

    Training mode normalizes by batch moments and updates the running
    mean/variance with momentum BN_MOMENTUM; inference mode normalizes by
    the running statistics. BN_EPS is added inside the square root.
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
        x = _check_batched(x)
        if x.shape[-1] != self.channels:
            raise ShapeError(f"expected {self.channels} channels, got {x.shape[-1]}")
        if training:
            if x.shape[0] == 0:
                raise StateError("batch normalization needs a non-empty batch")
            mean = x.mean(axis=(0, 1, 2))
            var = x.var(axis=(0, 1, 2))
            m = BN_MOMENTUM
            self.buffers["moving_mean"] = m * self.buffers["moving_mean"] + (1 - m) * mean
            self.buffers["moving_var"] = m * self.buffers["moving_var"] + (1 - m) * var
        else:
            mean = self.buffers["moving_mean"]
            var = self.buffers["moving_var"]
        inv_std = 1.0 / np.sqrt(var + BN_EPS)
        xhat = (x - mean) * inv_std
        self._cache = (xhat, inv_std, training) if grad else None
        return self.params["gamma"] * xhat + self.params["beta"]

    def backward(self, dout):
        xhat, inv_std, training = self._cache
        dout = np.asarray(dout, dtype=np.float64)
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
        x = np.asarray(x, dtype=np.float64)
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
        x = np.asarray(x, dtype=np.float64)
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
        out = sigmoid(np.asarray(x, dtype=np.float64))
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
        x = np.asarray(x, dtype=np.float64)
        if not training:
            self._mask = None
            return x
        if rng is None:
            raise StateError("dropout in training mode needs an rng")
        keep = 1.0 - DROPOUT_RATE
        mask = (rng.random(x.shape) >= DROPOUT_RATE) / keep
        self._mask = mask if grad else None
        return x * mask

    def backward(self, dout):
        if self._mask is None:
            return dout
        return dout * self._mask


def _glorot_uniform(shape, rng) -> np.ndarray:
    """Glorot-uniform (3, 3, a, b) kernel; zeros without an rng, for
    weights that are about to be overwritten."""
    if rng is None:
        return np.zeros(shape)
    # Fans follow the kernel layout: receptive field times channel counts.
    limit = np.sqrt(6.0 / (KERNEL * KERNEL * (shape[2] + shape[3])))
    return rng.uniform(-limit, limit, size=shape)

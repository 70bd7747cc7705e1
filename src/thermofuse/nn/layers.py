"""Layer vocabulary: 3x3 convolutions, transpose convolutions, batch
normalization, activations and dropout, each with an analytic backward pass.

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
bottom/right. Transpose convolutions are the adjoint of the stride-2 SAME
convolution and double both spatial extents exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ShapeError, StateError

KERNEL = 3

LAYER_KINDS = frozenset(
    {
        "conv",
        "conv_transpose",
        "batchnorm",
        "leaky_relu",
        "relu",
        "sigmoid",
        "dropout",
        "concat",
        "slice",
    }
)


@dataclass(frozen=True)
class LayerSpec:
    """Declarative description of one layer in a network graph.

    `filters` only matters for the convolution kinds, `stride` likewise
    (transpose convolutions are always stride 2). `concat` and `slice` are
    structural: they have no parameters and no layer object.
    """

    kind: str
    kernel: int = KERNEL
    stride: int = 1
    filters: int = 0
    normalization: bool = False
    dropout: bool = False

    def __post_init__(self):
        if self.kind not in LAYER_KINDS:
            raise ShapeError(f"unknown layer kind {self.kind!r}")
        if self.kind in ("conv", "conv_transpose"):
            if self.kernel != KERNEL:
                raise ShapeError(f"convolutions are {KERNEL}x{KERNEL}, got {self.kernel}")
            if self.stride not in (1, 2):
                raise ShapeError(f"stride must be 1 or 2, got {self.stride}")
            if self.filters < 1:
                raise ShapeError(f"filters must be positive, got {self.filters}")


def make_layer(spec: LayerSpec, in_channels: int, rng=None):
    """Instantiate the layer object a LayerSpec describes."""
    if spec.kind == "conv":
        return Conv2DLayer(in_channels, spec.filters, spec.stride, rng)
    if spec.kind == "conv_transpose":
        return Conv2DTransposeLayer(in_channels, spec.filters, rng)
    if spec.kind == "batchnorm":
        return BatchNormLayer(in_channels)
    if spec.kind == "relu":
        return ReLULayer()
    if spec.kind == "leaky_relu":
        return LeakyReLULayer()
    if spec.kind == "sigmoid":
        return SigmoidLayer()
    if spec.kind == "dropout":
        return DropoutLayer()
    raise ShapeError(f"{spec.kind!r} is structural, not an instantiable layer")


def relu(x):
    """max(0, x), elementwise."""
    return np.maximum(0.0, x)


def leaky_relu(x, alpha: float = 0.3):
    """x for x >= 0, alpha * x below."""
    return np.where(x >= 0.0, x, alpha * x)


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


def _im2col(xp: np.ndarray, stride: int, out_h: int, out_w: int) -> np.ndarray:
    n, _, _, c = xp.shape
    cols = np.empty((n, out_h, out_w, KERNEL, KERNEL, c), dtype=np.float64)
    for i in range(KERNEL):
        for j in range(KERNEL):
            cols[:, :, :, i, j, :] = xp[
                :, i : i + stride * out_h : stride, j : j + stride * out_w : stride, :
            ]
    return cols


def _col2im(dcol: np.ndarray, padded_shape, stride: int) -> np.ndarray:
    n, out_h, out_w = dcol.shape[:3]
    dxp = np.zeros(padded_shape, dtype=np.float64)
    for i in range(KERNEL):
        for j in range(KERNEL):
            dxp[
                :, i : i + stride * out_h : stride, j : j + stride * out_w : stride, :
            ] += dcol[:, :, :, i, j, :]
    return dxp


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
        out_h, out_w = h // s, w // s
        xp = np.pad(x, ((0, 0), (pt, pb), (pl, pr), (0, 0)))
        cols = _im2col(xp, s, out_h, out_w)
        col_flat = cols.reshape(n * out_h * out_w, KERNEL * KERNEL * c)
        w_flat = self.params["w"].reshape(KERNEL * KERNEL * c, self.filters)
        y = col_flat @ w_flat + self.params["b"]
        self._cache = (
            (col_flat, xp.shape, (pt, pl), (n, h, w, c), (out_h, out_w)) if grad else None
        )
        return y.reshape(n, out_h, out_w, self.filters)

    def backward(self, dout):
        col_flat, padded_shape, (pt, pl), (n, h, w, c), (out_h, out_w) = self._cache
        dflat = np.asarray(dout, dtype=np.float64).reshape(
            n * out_h * out_w, self.filters
        )
        w_flat = self.params["w"].reshape(KERNEL * KERNEL * c, self.filters)
        self.grads["w"] = (col_flat.T @ dflat).reshape(self.params["w"].shape)
        self.grads["b"] = dflat.sum(axis=0)
        dcol = (dflat @ w_flat.T).reshape(n, out_h, out_w, KERNEL, KERNEL, c)
        dxp = _col2im(dcol, padded_shape, self.stride)
        return dxp[:, pt : pt + h, pl : pl + w, :]


class Conv2DTransposeLayer:
    """3x3 transpose convolution, stride 2: (h, w, in) -> (2h, 2w, filters).

    Weights are shaped (3, 3, filters, in_channels), the adjoint layout of
    the stride-2 convolution it inverts spatially.
    """

    def __init__(self, in_channels: int, filters: int, rng=None):
        self.in_channels = in_channels
        self.filters = filters
        self.stride = 2
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
        f = self.filters
        x_flat = x.reshape(n * h * w, c)
        # Scatter through the adjoint of a stride-2 SAME conv (2h,2w,f)->(h,w,c).
        w_flat = self.params["w"].reshape(KERNEL * KERNEL * f, c)
        dcol = (x_flat @ w_flat.T).reshape(n, h, w, KERNEL, KERNEL, f)
        yp = _col2im(dcol, (n, 2 * h + 1, 2 * w + 1, f), 2)
        y = yp[:, : 2 * h, : 2 * w, :] + self.params["b"]
        self._cache = (x_flat, (n, h, w, c)) if grad else None
        return y

    def backward(self, dout):
        x_flat, (n, h, w, c) = self._cache
        f = self.filters
        dy = np.asarray(dout, dtype=np.float64)
        if dy.shape != (n, 2 * h, 2 * w, f):
            raise ShapeError(
                f"gradient shape {dy.shape} does not match output {(n, 2*h, 2*w, f)}"
            )
        dyp = np.pad(dy, ((0, 0), (0, 1), (0, 1), (0, 0)))
        cols = _im2col(dyp, 2, h, w)
        cols_flat = cols.reshape(n * h * w, KERNEL * KERNEL * f)
        w_flat = self.params["w"].reshape(KERNEL * KERNEL * f, c)
        self.grads["w"] = (cols_flat.T @ x_flat).reshape(self.params["w"].shape)
        self.grads["b"] = dy.sum(axis=(0, 1, 2))
        return (cols_flat @ w_flat).reshape(n, h, w, c)


class BatchNormLayer:
    """Per-channel batch normalization with running statistics.

    Training mode normalizes by batch moments and updates the running
    mean/variance with momentum 0.99; inference mode normalizes by the
    running statistics. eps = 1e-3 inside the square root.
    """

    def __init__(self, channels: int, eps: float = 1e-3, momentum: float = 0.99):
        self.channels = channels
        self.eps = eps
        self.momentum = momentum
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
            m = self.momentum
            self.buffers["moving_mean"] = m * self.buffers["moving_mean"] + (1 - m) * mean
            self.buffers["moving_var"] = m * self.buffers["moving_var"] + (1 - m) * var
        else:
            mean = self.buffers["moving_mean"]
            var = self.buffers["moving_var"]
        inv_std = 1.0 / np.sqrt(var + self.eps)
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
    def __init__(self, alpha: float = 0.3):
        self.alpha = alpha
        self.params: dict[str, np.ndarray] = {}
        self.grads: dict[str, np.ndarray] = {}
        self._mask = None

    def forward(self, x, training: bool = False, rng=None, grad: bool = True):
        x = np.asarray(x, dtype=np.float64)
        mask = x >= 0.0
        self._mask = mask if grad else None
        return np.where(mask, x, self.alpha * x)

    def backward(self, dout):
        return np.where(self._mask, dout, self.alpha * dout)


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
    """Inverted dropout: zero with probability `rate`, scale survivors by
    1/(1-rate) in training mode; identity in inference mode."""

    def __init__(self, rate: float = 0.5):
        if not 0.0 <= rate < 1.0:
            raise ShapeError(f"dropout rate must be in [0, 1), got {rate}")
        self.rate = rate
        self.params: dict[str, np.ndarray] = {}
        self.grads: dict[str, np.ndarray] = {}
        self._mask = None

    def forward(self, x, training: bool = False, rng=None, grad: bool = True):
        x = np.asarray(x, dtype=np.float64)
        if not training or self.rate == 0.0:
            self._mask = None
            return x
        if rng is None:
            raise StateError("dropout in training mode needs an rng")
        keep = 1.0 - self.rate
        mask = (rng.random(x.shape) >= self.rate) / keep
        self._mask = mask if grad else None
        return x * mask

    def backward(self, dout):
        if self._mask is None:
            return dout
        return dout * self._mask


def _glorot_uniform(shape, rng) -> np.ndarray:
    # Fans follow the kernel layout: receptive field times channel counts.
    receptive = KERNEL * KERNEL
    fan_in = receptive * shape[2] if len(shape) == 4 else shape[0]
    fan_out = receptive * shape[3] if len(shape) == 4 else shape[1]
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    if rng is None:
        rng = np.random.default_rng(0)
    return rng.uniform(-limit, limit, size=shape)

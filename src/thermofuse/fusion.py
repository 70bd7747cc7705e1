"""Averaging fusion, histogram equalization and training-target assembly.

Images live in two forms: 8-bit grids (uint8, values 0-255) for I/O and
real-valued unit grids ([0,1], float64) for the model, which casts them to
its own dtype (float32 by default) and computes the mask in it. All 8-bit
rounding uses round-half-away-from-zero so results are bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError, ValidationError

CLASS_LABELS = (1, 2, 3, 4, 5)


def round_half_away(x):
    """Round to nearest integer, ties away from zero (vectorized)."""
    x = np.asarray(x, dtype=np.float64)
    return np.sign(x) * np.floor(np.abs(x) + 0.5)


def as_gray8(img) -> np.ndarray:
    """Validate and return a 2-D uint8 intensity grid."""
    arr = np.asarray(img)
    if arr.ndim != 2:
        raise ShapeError(f"expected a 2-D image, got shape {arr.shape}")
    if arr.dtype == np.uint8:
        return arr
    if not np.issubdtype(arr.dtype, np.integer):
        raise ShapeError(f"expected 8-bit intensities, got dtype {arr.dtype}")
    if arr.size and (arr.min() < 0 or arr.max() > 255):
        raise ValidationError("intensities outside [0, 255]")
    return arr.astype(np.uint8)


def to_unit(img) -> np.ndarray:
    """8-bit image -> unit-interval float64 grid (value / 255)."""
    return as_gray8(img).astype(np.float64) / 255.0


def to_uint8(values) -> np.ndarray:
    """Unit-interval grid -> 8-bit image via round(255 * value), clipped.

    Raises ValidationError on a NaN or infinite value, which has no 8-bit
    counterpart.
    """
    values = np.asarray(values, dtype=np.float64)
    if not np.isfinite(values).all():
        raise ValidationError("8-bit conversion: input has non-finite values")
    scaled = round_half_away(values * 255.0)
    return np.clip(scaled, 0, 255).astype(np.uint8)


@dataclass(frozen=True)
class RoiBox:
    """Inclusive rectangle: x spans rows, y spans columns."""

    x0: int
    y0: int
    x1: int
    y1: int
    label: int = 1

    def __post_init__(self):
        if self.x0 > self.x1 or self.y0 > self.y1:
            raise ValidationError(
                f"degenerate box corners ({self.x0},{self.y0})-({self.x1},{self.y1})"
            )
        if self.x0 < 0 or self.y0 < 0:
            raise ValidationError("box corners must be non-negative")
        if self.label not in CLASS_LABELS:
            raise ValidationError(f"class label must be in 1..5, got {self.label}")

    def validate(self, height: int, width: int) -> None:
        if self.x1 >= height or self.y1 >= width:
            raise ValidationError(
                f"box ({self.x0},{self.y0})-({self.x1},{self.y1}) exceeds "
                f"{height}x{width} image"
            )

    @property
    def rows(self) -> slice:
        return slice(self.x0, self.x1 + 1)

    @property
    def cols(self) -> slice:
        return slice(self.y0, self.y1 + 1)

    @property
    def height(self) -> int:
        return self.x1 - self.x0 + 1

    @property
    def width(self) -> int:
        return self.y1 - self.y0 + 1


def _check_same_extent(a: np.ndarray, b: np.ndarray) -> None:
    if a.shape != b.shape:
        raise ShapeError(f"extent mismatch: {a.shape} vs {b.shape}")


def average_fuse(thermal, mask) -> np.ndarray:
    """Per-pixel average round((T + M) / 2) in 8-bit space.

    For non-negative integers the half-away rounding is exactly
    (T + M + 1) // 2, which keeps the result bit-reproducible.
    """
    t = as_gray8(thermal)
    m = as_gray8(mask)
    _check_same_extent(t, m)
    return ((t.astype(np.int32) + m + 1) // 2).astype(np.uint8)


def histogram_equalize(img) -> np.ndarray:
    """Spread gray levels by the cumulative-histogram map.

    h(v) = round((cdf(v) - cdf_min) / (N - cdf_min) * 255) with cdf_min the
    smallest nonzero cdf value; single-level images come back unchanged. The
    map is computed in exact integer arithmetic.
    """
    arr = as_gray8(img)
    counts = np.bincount(arr.ravel(), minlength=256)
    cdf = counts.cumsum()
    cdf_min = int(cdf[counts.nonzero()[0][0]])
    n = arr.size
    if n == cdf_min:  # one gray level: degenerate histogram
        return arr.copy()
    # round-half-away of p/q for non-negative integers: (2p + q) // (2q)
    numer = (cdf - cdf_min) * 255
    denom = n - cdf_min
    lut = ((2 * numer + denom) // (2 * denom)).astype(np.uint8)
    return lut[arr]


def build_training_target(thermal, optical, boxes) -> np.ndarray:
    """Thermal image with the thermal-optical average embedded in each box.

    Averages are always taken from the original images, so overlapping
    boxes do not compound.
    """
    t = as_gray8(thermal)
    o = as_gray8(optical)
    _check_same_extent(t, o)
    height, width = t.shape
    for box in boxes:
        box.validate(height, width)
    target = t.copy()
    for box in boxes:
        region_t = t[box.rows, box.cols].astype(np.int32)
        region_o = o[box.rows, box.cols]
        target[box.rows, box.cols] = ((region_t + region_o + 1) // 2).astype(np.uint8)
    return target


def resize_bilinear(img, out_height: int, out_width: int) -> np.ndarray:
    """Bilinear resample with half-pixel-center sampling; returns float64."""
    if out_height < 1 or out_width < 1:
        raise ShapeError(f"target extents must be positive, got {out_height}x{out_width}")
    src = np.asarray(img, dtype=np.float64)
    if src.ndim != 2:
        raise ShapeError(f"expected a 2-D image, got shape {src.shape}")
    h, w = src.shape
    if (h, w) == (out_height, out_width):
        return src.copy()
    ys = np.clip((np.arange(out_height) + 0.5) * (h / out_height) - 0.5, 0.0, h - 1.0)
    xs = np.clip((np.arange(out_width) + 0.5) * (w / out_width) - 0.5, 0.0, w - 1.0)
    y0 = np.floor(ys).astype(np.intp)
    x0 = np.floor(xs).astype(np.intp)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    wy = (ys - y0)[:, None]
    wx = (xs - x0)[None, :]
    top = src[np.ix_(y0, x0)] * (1.0 - wx) + src[np.ix_(y0, x1)] * wx
    bottom = src[np.ix_(y1, x0)] * (1.0 - wx) + src[np.ix_(y1, x1)] * wx
    return top * (1.0 - wy) + bottom * wy


def compute_mask(model, thermal) -> np.ndarray:
    """Run the model on an 8-bit thermal image; float64 unit-form mask at
    its extent.

    Inputs whose extent differs from the model's are resampled to the model
    extent for the forward pass and the mask is resampled back. The pass is
    gradient-free (`grad=False`), so it leaves no activations on the model.
    Corrupt weights raise ValidationError instead of reaching 8-bit output:
    an overflow or invalid operation anywhere in the pass (the final
    sigmoid would saturate an infinite activation into a plausible mask),
    or a NaN or infinite mask value.
    """
    t = as_gray8(thermal)
    height, width = t.shape
    native = (model.cfg.height, model.cfg.width)
    unit = t.astype(np.float64) / 255.0
    resample = (height, width) != native
    if resample:
        unit = np.clip(resize_bilinear(unit, *native), 0.0, 1.0)
    try:
        with np.errstate(over="raise", invalid="raise"):
            mask = model.forward(unit, training=False, grad=False)
    except FloatingPointError as exc:
        raise ValidationError(f"mask stage: the model's forward pass hit {exc}") from None
    if not np.isfinite(mask).all():
        raise ValidationError("mask stage: the model produced non-finite values")
    mask = mask.astype(np.float64)
    if resample:
        mask = np.clip(resize_bilinear(mask, height, width), 0.0, 1.0)
    return mask


def full_pipeline(thermal, model) -> np.ndarray:
    """Thermal image -> equalized fused output: mask, average, equalize."""
    t = as_gray8(thermal)
    mask = to_uint8(compute_mask(model, t))
    return histogram_equalize(average_fuse(t, mask))

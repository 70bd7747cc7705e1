"""Averaging fusion, histogram equalization, training-target assembly and
bilinear resampling.

Images live in two forms: 8-bit grids (uint8, values 0-255) for I/O and
real-valued unit grids ([0,1], float64) for the model, which casts them to
its own dtype (float32 by default) and computes the mask in it. All 8-bit
rounding uses round-half-away-from-zero so results are bit-reproducible.

Bilinear resampling has one core, `resample_windows`: it resamples many
windows of one or more same-extent images in one vectorized pass (the
training crops of a box, in the thermal image and its target), and
`resize_bilinear` is its one-window case.
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
    """Validate and return a non-empty 2-D uint8 intensity grid."""
    arr = np.asarray(img)
    if arr.ndim != 2:
        raise ShapeError(f"expected a 2-D image, got shape {arr.shape}")
    if arr.size == 0:
        raise ShapeError(f"empty image {arr.shape}")
    if arr.dtype == np.uint8:
        return arr
    if not np.issubdtype(arr.dtype, np.integer):
        raise ShapeError(f"expected 8-bit intensities, got dtype {arr.dtype}")
    if arr.min() < 0 or arr.max() > 255:
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
        region = box.rows, box.cols
        target[region] = average_fuse(t[region], o[region])
    return target


def resize_bilinear(img, out_height: int, out_width: int) -> np.ndarray:
    """Bilinear resample with half-pixel-center sampling; returns float64.

    The one-window case of `resample_windows`. A uint8 image is read
    as it is; any other is first converted to float64."""
    if out_height < 1 or out_width < 1:
        raise ShapeError(f"target extents must be positive, got {out_height}x{out_width}")
    src = np.asarray(img)
    if src.dtype != np.uint8:
        src = np.asarray(src, dtype=np.float64)
    if src.ndim != 2:
        raise ShapeError(f"expected a 2-D image, got shape {src.shape}")
    if src.size == 0:
        raise ShapeError(f"empty image {src.shape}")
    h, w = src.shape
    if (h, w) == (out_height, out_width):
        return src.astype(np.float64)
    return resample_windows([src], ([0], [h]), ([0], [w]), out_height, out_width)[0][0]


def resample_windows(images, rows, cols, out_height: int, out_width: int) -> list:
    """Bilinear resample of the same n windows of each of `images` (2-D
    arrays of one extent); returns one float64 (n, out_height, out_width)
    array per image.

    `rows` and `cols` are (starts, extents) pairs of length-n integer
    sequences: window k covers rows[0][k] .. rows[0][k] + rows[1][k] - 1,
    and the same for columns; each must lie inside the images. Each window
    is sampled at half-pixel centres, bit for bit as `resize_bilinear`
    samples it on its own (a window of the output size comes back
    unchanged). The sample positions are computed once for all windows and
    images. The four corner values are gathered straight from each image
    by flat index, so a uint8 image is never copied to float64 as a whole,
    and the images are resampled one after the other, so the temporaries
    stay at the size of one image's windows.
    """
    y0, y1, wy = (a[:, :, None] for a in _bilinear_taps(*rows, out_height))
    x0, x1, wx = (a[:, None, :] for a in _bilinear_taps(*cols, out_width))
    stride = np.shape(images[0])[1]
    y0 *= stride
    y1 *= stride
    rest_x, rest_y = 1.0 - wx, 1.0 - wy
    shape = (len(y0), out_height, out_width)
    bottom = np.empty(shape)
    # One 8-byte slot per output value: the flat index of each corner in
    # turn, then the last corner's product.
    scratch = np.empty(shape)
    index = scratch.view(np.int64)

    def corner(flat, row, col):
        return flat.take(np.add(row, col, out=index))

    out = []
    for img in images:
        flat = np.ravel(img)
        # top = a(1 - wx) + b wx, bottom = c(1 - wx) + d wx, then
        # top (1 - wy) + bottom wy: that expression's operations, in its
        # order, with the products written into three buffers.
        top = np.multiply(corner(flat, y0, x0), rest_x)
        top += np.multiply(corner(flat, y0, x1), wx, out=bottom)
        top *= rest_y
        np.multiply(corner(flat, y1, x0), rest_x, out=bottom)
        bottom += np.multiply(corner(flat, y1, x1), wx, out=scratch)
        bottom *= wy
        top += bottom
        out.append(top)
    return out


def _bilinear_taps(starts, extents, out: int):
    """Along one axis, each window's two source indices (absolute) and the
    weight of the second, each (n, out): the half-pixel-centre position
    (i + 0.5) * extent / out - 0.5, clipped to the window."""
    extents = np.asarray(extents, dtype=np.intp)[:, None]
    pos = np.clip((np.arange(out) + 0.5) * (extents / out) - 0.5, 0.0, extents - 1.0)
    lo = np.floor(pos).astype(np.intp)
    hi = np.minimum(lo + 1, extents - 1)
    starts = np.asarray(starts, dtype=np.intp)[:, None]
    return lo + starts, hi + starts, pos - lo


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
    unit = to_unit(t)
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

"""Orthonormal Haar 2D DWT: forward/inverse transform and sub-band tiling.

The 2x2 block transform uses the orthonormal 1/2 normalization, so a
constant-1 image has level-1 LL equal to 2 and level-2 LL equal to 4:
approximation coefficients double in range with every level, while the
detail bands are signed. Both extents must divide by 2^levels; only one-
and two-level pyramids are supported.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass

import numpy as np

from .errors import FormatError, ShapeError


@dataclass
class DetailBands:
    """LH/HL/HH coefficient planes of one decomposition level."""

    lh: np.ndarray
    hl: np.ndarray
    hh: np.ndarray


@dataclass
class SubbandPyramid:
    """Multi-level decomposition: deepest LL plus per-level detail bands.

    ``details[k]`` holds level k+1 (level 1 is the finest); level-k planes
    have extents input/2^k.
    """

    levels: int
    ll: np.ndarray
    details: list[DetailBands]


def _check_plane(x) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ShapeError(f"expected a 2-D plane, got shape {x.shape}")
    return x


def _forward_once(x: np.ndarray) -> tuple[np.ndarray, DetailBands]:
    h, w = x.shape
    if h % 2 or w % 2:
        raise ShapeError(f"extents must be even for one Haar level, got {x.shape}")
    a = x[0::2, 0::2]
    b = x[0::2, 1::2]
    c = x[1::2, 0::2]
    d = x[1::2, 1::2]
    ll = (a + b + c + d) / 2.0
    hl = ((a + c) - (b + d)) / 2.0
    lh = ((a + b) - (c + d)) / 2.0
    hh = (a - b - c + d) / 2.0
    return ll, DetailBands(lh=lh, hl=hl, hh=hh)


def _inverse_once(ll: np.ndarray, bands: DetailBands) -> np.ndarray:
    if not (ll.shape == bands.lh.shape == bands.hl.shape == bands.hh.shape):
        raise ShapeError("sub-band planes of one level must share extents")
    lh, hl, hh = bands.lh, bands.hl, bands.hh
    h, w = ll.shape
    out = np.empty((2 * h, 2 * w), dtype=np.float64)
    out[0::2, 0::2] = (ll + hl + lh + hh) / 2.0
    out[0::2, 1::2] = (ll - hl + lh - hh) / 2.0
    out[1::2, 0::2] = (ll + hl - lh - hh) / 2.0
    out[1::2, 1::2] = (ll - hl - lh + hh) / 2.0
    return out


def dwt2_forward(image, levels: int) -> SubbandPyramid:
    """Decompose a 2-D plane into `levels` Haar sub-band levels (1 or 2)."""
    x = _check_plane(image)
    if levels not in (1, 2):
        raise ShapeError(f"levels must be 1 or 2, got {levels}")
    div = 2**levels
    if x.shape[0] % div or x.shape[1] % div:
        raise ShapeError(
            f"extents {x.shape} must divide by 2^levels = {div}"
        )
    details = []
    ll = x
    for _ in range(levels):
        ll, bands = _forward_once(ll)
        details.append(bands)
    return SubbandPyramid(levels=levels, ll=ll, details=details)


def dwt2_inverse(pyr: SubbandPyramid) -> np.ndarray:
    """Reconstruct the plane from a pyramid; exact inverse of the forward."""
    if pyr.levels != len(pyr.details) or pyr.levels < 1:
        raise ShapeError(
            f"pyramid claims {pyr.levels} levels but carries {len(pyr.details)}"
        )
    x = _check_plane(pyr.ll)
    for bands in reversed(pyr.details):
        x = _inverse_once(x, bands)
    return x


def tile_layout(pyr: SubbandPyramid) -> np.ndarray:
    """Arrange a 2-level pyramid of an NxN image into one NxN plane.

    Per level the quadrants sit LL top-left, HL to its right, LH below,
    HH on the diagonal; the level-2 tile occupies the level-1 LL slot.
    Mirrors the network's concatenation order exactly: `np.block` joins
    columns before rows.
    """
    if pyr.levels != 2:
        raise ShapeError(f"tiling needs a 2-level pyramid, got {pyr.levels}")
    lv1, lv2 = pyr.details[0], pyr.details[1]
    if pyr.ll.shape[0] != pyr.ll.shape[1]:
        raise ShapeError(f"tiling needs a square image, deepest LL is {pyr.ll.shape}")
    ll1_tile = np.block([[pyr.ll, lv2.hl], [lv2.lh, lv2.hh]])
    return np.block([[ll1_tile, lv1.hl], [lv1.lh, lv1.hh]])


def untile_layout(plane) -> SubbandPyramid:
    """Invert :func:`tile_layout`, recovering the pyramid bit-exactly."""
    x = _check_plane(plane)
    n = x.shape[0]
    if x.shape[1] != n or n % 4:
        raise ShapeError(f"tiled plane must be square with extent % 4 == 0, got {x.shape}")
    h = n // 2
    q = n // 4
    lv1 = DetailBands(
        lh=x[h:, :h].copy(), hl=x[:h, h:].copy(), hh=x[h:, h:].copy()
    )
    lv2 = DetailBands(
        lh=x[q:h, :q].copy(), hl=x[:q, q:h].copy(), hh=x[q:h, q:h].copy()
    )
    return SubbandPyramid(levels=2, ll=x[:q, :q].copy(), details=[lv1, lv2])


def write_coeff_plane(plane, path) -> None:
    """Dump a coefficient plane: u32le height, u32le width, f64le row-major."""
    x = _check_plane(plane)
    with open(path, "wb") as fh:
        fh.write(struct.pack("<II", x.shape[0], x.shape[1]))
        fh.write(x.astype("<f8").tobytes(order="C"))


def read_coeff_plane(path) -> np.ndarray:
    """Read a plane written by :func:`write_coeff_plane`."""
    with open(path, "rb") as fh:
        head = fh.read(8)
        if len(head) != 8:
            raise FormatError(f"{path}: truncated coefficient header")
        h, w = struct.unpack("<II", head)
        if h < 1 or w < 1:
            raise FormatError(f"{path}: bad extents {h}x{w}")
        # Sized before reading, so a header claiming huge extents allocates nothing.
        left = os.fstat(fh.fileno()).st_size - 8
        if left < 8 * h * w:
            raise FormatError(f"{path}: truncated coefficient payload")
        if left > 8 * h * w:
            raise FormatError(f"{path}: trailing bytes after coefficient payload")
        payload = fh.read(left)
    return np.frombuffer(payload, dtype="<f8").reshape(h, w).copy()


def rescale_for_display(plane) -> np.ndarray:
    """Affine-map a coefficient plane onto 0..255 uint8 for visualization."""
    x = _check_plane(plane)
    lo = float(x.min())
    hi = float(x.max())
    if hi <= lo:
        return np.zeros(x.shape, dtype=np.uint8)
    scaled = (x - lo) * (255.0 / (hi - lo))
    return np.floor(scaled + 0.5).astype(np.uint8)

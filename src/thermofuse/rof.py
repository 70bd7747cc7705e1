"""Region of Fusion: the single box where fused output diverges most from
the thermal input, per unit area.

Four greedy passes shrink the box one boundary strip at a time — top rows,
bottom rows, then left and right columns over the surviving row band. A
strip is removed while the dissimilarity ratio M1/M2 stays below the area
ratio A1/A2; the comparison is done by cross-multiplication (M1*A2 <
A1*M2), which is exact in integer arithmetic for "ssd" and avoids
dividing by zero when a strip carries all the dissimilarity. The measure
is "ssd", the sum of squared 8-bit differences (the default), or "ssim",
1 - SSIM over the region.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError, ValidationError
from .fusion import as_gray8
from .metrics import SSIM_WINDOW, ssim as _ssim


@dataclass(frozen=True)
class RofBox:
    """Inclusive box bounds: x1/x2 over rows, y1/y2 over columns."""

    x1: int
    x2: int
    y1: int
    y2: int
    metric: str = "ssd"
    dissim: float = 0.0

    def text_line(self) -> str:
        return f"{self.x1} {self.y1} {self.x2} {self.y2} {self.metric} {self.dissim:g}"


def dissim_ssd(a, b) -> int:
    """Sum of squared 8-bit intensity differences over a region."""
    av = np.asarray(a, dtype=np.int64)
    bv = np.asarray(b, dtype=np.int64)
    if av.shape != bv.shape:
        raise ShapeError(f"extent mismatch: {av.shape} vs {bv.shape}")
    d = av - bv
    return int((d * d).sum())


def _ssim_dissim(a, b):
    """1 - SSIM over the region; regions narrower than the SSIM window
    fall back to the squared-difference sum."""
    if min(a.shape) < SSIM_WINDOW:
        return dissim_ssd(a, b)
    return 1.0 - _ssim(a, b)


_DISSIM = {"ssd": dissim_ssd, "ssim": _ssim_dissim}


class _RegionMeasure:
    """Dissimilarity of an inclusive sub-rectangle of a fixed image pair."""

    def __init__(self, thermal, fused, metric, use_integral):
        if not isinstance(metric, str) or metric not in _DISSIM:
            raise ValidationError(f"unknown dissimilarity metric {metric!r}")
        self.name = metric
        self._sat = None
        if metric == "ssd" and use_integral:
            d = thermal.astype(np.int64) - fused
            sq = d * d
            # Summed-area table with a zero border; region sums become four
            # lookups. Integer throughout, so identical to direct summation.
            self._sat = np.zeros((sq.shape[0] + 1, sq.shape[1] + 1), dtype=np.int64)
            np.cumsum(np.cumsum(sq, axis=0), axis=1, out=self._sat[1:, 1:])
        else:
            self._thermal = thermal
            self._fused = fused
            self._fn = _DISSIM[metric]

    def __call__(self, r1, r2, c1, c2):
        if self._sat is not None:
            s = self._sat
            return int(
                s[r2 + 1, c2 + 1] - s[r1, c2 + 1] - s[r2 + 1, c1] + s[r1, c1]
            )
        region = (slice(r1, r2 + 1), slice(c1, c2 + 1))
        return self._fn(self._thermal[region], self._fused[region])


def compute_rof(thermal, fused, metric="ssd", use_integral: bool = True) -> RofBox:
    """Run the four shrink passes and return the final box.

    `metric` is "ssd" (sum of squared differences) or "ssim" (1 - SSIM);
    any other value raises ValidationError. `use_integral=False` forces
    per-strip recomputation for "ssd" (same result, kept for
    cross-checking).
    """
    t = as_gray8(thermal)
    f = as_gray8(fused)
    if t.shape != f.shape:
        raise ShapeError(f"extent mismatch: {t.shape} vs {f.shape}")
    m, n = t.shape
    measure = _RegionMeasure(t, f, metric, use_integral)

    x1, x2, y1, y2 = 0, m - 1, 0, n - 1

    def shrinkable(after) -> bool:
        """True while the strip may be removed: dissimilarity density of
        the current box stays below that of the shrunken one."""
        m1 = measure(x1, x2, y1, y2)
        a1 = (x2 - x1 + 1) * (y2 - y1 + 1)
        m2 = measure(*after)
        ax1, ax2, ay1, ay2 = after
        a2 = (ax2 - ax1 + 1) * (ay2 - ay1 + 1)
        return m1 * a2 < a1 * m2

    while x1 < x2 and shrinkable((x1 + 1, x2, y1, y2)):
        x1 += 1
    while x2 > x1 and shrinkable((x1, x2 - 1, y1, y2)):
        x2 -= 1
    while y1 < y2 and shrinkable((x1, x2, y1 + 1, y2)):
        y1 += 1
    while y2 > y1 and shrinkable((x1, x2, y1, y2 - 1)):
        y2 -= 1

    return RofBox(x1, x2, y1, y2, measure.name, measure(x1, x2, y1, y2))


def draw_box(img, box: RofBox) -> np.ndarray:
    """Copy of `img` with the box burned in as a 1-pixel 255 border."""
    arr = as_gray8(img)
    m, n = arr.shape
    if not (0 <= box.x1 <= box.x2 < m and 0 <= box.y1 <= box.y2 < n):
        raise ValidationError(
            f"box rows [{box.x1},{box.x2}] cols [{box.y1},{box.y2}] outside "
            f"{m}x{n} image"
        )
    out = arr.copy()
    out[box.x1, box.y1 : box.y2 + 1] = 255
    out[box.x2, box.y1 : box.y2 + 1] = 255
    out[box.x1 : box.x2 + 1, box.y1] = 255
    out[box.x1 : box.x2 + 1, box.y2] = 255
    return out

"""Region of Fusion: the single box where fused output diverges most from
the thermal input, per unit area.

Four greedy passes shrink the box one boundary strip at a time — top rows,
bottom rows, then left and right columns over the surviving row band. A
strip is removed while the dissimilarity density of the box (its measure M
over its area A) stays below that of the shrunken box; the comparison is
done by cross-multiplication (M1*A2 < A1*M2), which is exact in integers
and avoids dividing by zero when a strip carries all the dissimilarity.

Both measures sum one integer cost array over the region:

- "ssd" (the default): the squared 8-bit difference of each pixel.
- "ssim": rint((1 - SSIM) * 2**24) of each 11x11 window of the SSIM map
  (Wang et al., IEEE TIP 2004). A region holds the windows that lie
  wholly inside it, so its area is a window count and its density is the
  mean 1 - SSIM per window. No pass shrinks a box below one window, so an
  "ssim" box is at least 11 px on each side; an image smaller than the
  window raises ValidationError.

Every strip is answered in O(1) from one int64 summed-area table of the
costs (Crow, SIGGRAPH 1984), built once per image pair. A cost is at most
2**25, so the table cannot overflow for any image that fits in memory.
`use_integral=False` sums the region's slice of the same costs instead,
as the cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError, ValidationError
from .fusion import as_gray8
from .metrics import SSIM_WINDOW, ssim_map

# Fixed-point scale of the "ssim" costs: 1 - SSIM lies in [0, 2].
_SSIM_SCALE = 2**24


@dataclass(frozen=True)
class RofBox:
    """Inclusive box bounds: x1/x2 over rows, y1/y2 over columns."""

    x1: int
    x2: int
    y1: int
    y2: int
    metric: str = "ssd"
    dissim: int | float = 0

    def text_line(self) -> str:
        return f"{self.x1} {self.y1} {self.x2} {self.y2} {self.metric} {self.dissim}"


def _costs(thermal, fused, metric):
    """The measure's integer cost array and its margin: a region [r1, r2] x
    [c1, c2] holds the costs in [r1, r2 - margin] x [c1, c2 - margin]."""
    if not isinstance(metric, str) or metric not in ("ssd", "ssim"):
        raise ValidationError(f"unknown dissimilarity metric {metric!r}")
    if metric == "ssd":
        d = thermal.astype(np.int64) - fused
        return d * d, 0
    # rint((1 - SSIM) * scale), in place in the map `ssim_map` hands over
    dissim = ssim_map(thermal, fused)
    np.subtract(1.0, dissim, out=dissim)
    dissim *= _SSIM_SCALE
    return np.rint(dissim, out=dissim).astype(np.int64), SSIM_WINDOW - 1


def _summed_area(values: np.ndarray) -> np.ndarray:
    """Summed-area table with a zero border: s[i, j] = values[:i, :j].sum()."""
    s = np.zeros((values.shape[0] + 1, values.shape[1] + 1), dtype=values.dtype)
    np.cumsum(np.cumsum(values, axis=0), axis=1, out=s[1:, 1:])
    return s


def _box_sum(s: np.ndarray, r1, r2, c1, c2):
    """Sum over the inclusive rectangle [r1, r2] x [c1, c2], four lookups."""
    return s[r2 + 1, c2 + 1] - s[r1, c2 + 1] - s[r2 + 1, c1] + s[r1, c1]


def compute_rof(thermal, fused, metric="ssd", use_integral: bool = True) -> RofBox:
    """Run the four shrink passes and return the final box.

    `metric` is "ssd" (sum of squared differences) or "ssim" (sum of
    1 - SSIM over the windows inside the region); any other value raises
    ValidationError, as does an "ssim" image smaller than the 11-px window,
    and an empty image raises ShapeError. `use_integral=False` sums every
    region's costs directly (same boxes, kept for cross-checking). The
    returned `dissim` is the final box's measure: the integer SSD sum, or
    the mean 1 - SSIM per window.
    """
    t = as_gray8(thermal)
    f = as_gray8(fused)
    if t.shape != f.shape:
        raise ShapeError(f"extent mismatch: {t.shape} vs {f.shape}")
    costs, margin = _costs(t, f, metric)
    sat = _summed_area(costs) if use_integral else None

    def measure(r1, r2, c1, c2) -> tuple[int, int]:
        """Sum and count of the costs inside the inclusive region."""
        r2 -= margin
        c2 -= margin
        if sat is None:
            total = costs[r1 : r2 + 1, c1 : c2 + 1].sum()
        else:
            total = _box_sum(sat, r1, r2, c1, c2)
        return int(total), (r2 - r1 + 1) * (c2 - c1 + 1)

    m, n = t.shape
    x1, x2, y1, y2 = 0, m - 1, 0, n - 1

    def shrinkable(after) -> bool:
        """True while the strip may be removed: dissimilarity density of
        the current box stays below that of the shrunken one."""
        m1, a1 = measure(x1, x2, y1, y2)
        m2, a2 = measure(*after)
        return m1 * a2 < a1 * m2

    # Each extent keeps at least margin + 1 pixels: one cost entry.
    while x2 - x1 > margin and shrinkable((x1 + 1, x2, y1, y2)):
        x1 += 1
    while x2 - x1 > margin and shrinkable((x1, x2 - 1, y1, y2)):
        x2 -= 1
    while y2 - y1 > margin and shrinkable((x1, x2, y1 + 1, y2)):
        y1 += 1
    while y2 - y1 > margin and shrinkable((x1, x2, y1, y2 - 1)):
        y2 -= 1

    total, count = measure(x1, x2, y1, y2)
    dissim = total / (count * _SSIM_SCALE) if metric == "ssim" else total
    return RofBox(x1, x2, y1, y2, metric, dissim)


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

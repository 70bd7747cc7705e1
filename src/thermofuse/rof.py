"""Region of Fusion: the single box where fused output diverges most from
the thermal input, per unit area.

Four greedy passes shrink the box one boundary strip at a time — top rows,
bottom rows, then left and right columns over the surviving row band. A
strip is removed while the dissimilarity ratio M1/M2 stays below the area
ratio A1/A2; the comparison is done by cross-multiplication (M1*A2 <
A1*M2), which is exact in integer arithmetic for "ssd" and avoids
dividing by zero when a strip carries all the dissimilarity. The measure
is "ssd", the sum of squared 8-bit differences (the default), or "ssim",
1 - SSIM over the region; a region narrower than the 11-px SSIM window
falls back to the squared-difference sum.

Every strip is answered in O(1) from summed-area tables (Crow, SIGGRAPH
1984), built once per image pair: an int64 table of squared differences,
and under "ssim" a float64 table of the per-window SSIM map (Wang et al.,
IEEE TIP 2004). SSIM is local, so the SSIM of a region is the mean of the
whole-image map over the windows that lie inside it. The SSD table is
exact; the SSIM table's sums differ from direct recomputation in the last
bits, so a comparison too close to call from it is decided directly.
`use_integral=False` recomputes every region directly, for both measures,
as the cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError, ValidationError
from .fusion import as_gray8
from .metrics import SSIM_WINDOW, ssim as _ssim, ssim_map

# Allowance for direct recomputation's own rounding in 1 - SSIM: the map of
# a cropped region differs from the whole-image map by up to 3e-15 per
# window on random pairs, as the windowed means' dot products round apart.
_DIRECT_SSIM_ERR = 1e-12


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


def _summed_area(values: np.ndarray) -> np.ndarray:
    """Summed-area table with a zero border: s[i, j] = values[:i, :j].sum()."""
    s = np.zeros((values.shape[0] + 1, values.shape[1] + 1), dtype=values.dtype)
    np.cumsum(np.cumsum(values, axis=0), axis=1, out=s[1:, 1:])
    return s


def _box_sum(s: np.ndarray, r1, r2, c1, c2):
    """Sum over the inclusive rectangle [r1, r2] x [c1, c2], four lookups."""
    return s[r2 + 1, c2 + 1] - s[r1, c2 + 1] - s[r2 + 1, c1] + s[r1, c1]


class _RegionMeasure:
    """Dissimilarity of an inclusive sub-rectangle of a fixed image pair."""

    def __init__(self, thermal, fused, metric, use_integral):
        if not isinstance(metric, str) or metric not in _DISSIM:
            raise ValidationError(f"unknown dissimilarity metric {metric!r}")
        self.name = metric
        self._thermal = thermal
        self._fused = fused
        self._fn = _DISSIM[metric]
        self._sat = self._map_sat = None
        if not use_integral:
            return
        d = thermal.astype(np.int64) - fused
        # Integer throughout, so identical to direct summation.
        self._sat = _summed_area(d * d)
        if metric == "ssim" and min(thermal.shape) >= SSIM_WINDOW:
            smap = ssim_map(thermal, fused)
            self._map_sat = _summed_area(smap)
            # Bound on the rounding of one region sum: a prefix sum of map
            # values (|v| <= 1) is off by at most (rows + cols) ulps of the
            # map's size; four lookups and three differences make up the rest.
            rows, cols = smap.shape
            self._sum_err = 4 * (rows + cols + 3) * np.finfo(np.float64).eps * smap.size

    def _window_count(self, r1, r2, c1, c2) -> int:
        """Windows of the SSIM map inside the region: 0 when the region is
        narrower than the window or there is no map table."""
        if self._map_sat is None:
            return 0
        rows, cols = r2 - r1 + 2 - SSIM_WINDOW, c2 - c1 + 2 - SSIM_WINDOW
        return rows * cols if min(rows, cols) > 0 else 0

    def __call__(self, r1, r2, c1, c2):
        if self._sat is None:
            return self.direct(r1, r2, c1, c2)
        count = self._window_count(r1, r2, c1, c2)
        if not count:
            return int(_box_sum(self._sat, r1, r2, c1, c2))
        # The windows whose top-left lies in [r1, r2-W+1] x [c1, c2-W+1].
        w = SSIM_WINDOW - 1
        return 1.0 - float(_box_sum(self._map_sat, r1, r2 - w, c1, c2 - w)) / count

    def error(self, r1, r2, c1, c2) -> float:
        """Bound on |self(region) - self.direct(region)|."""
        count = self._window_count(r1, r2, c1, c2)
        return self._sum_err / count + _DIRECT_SSIM_ERR if count else 0.0

    def direct(self, r1, r2, c1, c2):
        """The measure recomputed from the region's pixels."""
        region = (slice(r1, r2 + 1), slice(c1, c2 + 1))
        return self._fn(self._thermal[region], self._fused[region])


def compute_rof(thermal, fused, metric="ssd", use_integral: bool = True) -> RofBox:
    """Run the four shrink passes and return the final box.

    `metric` is "ssd" (sum of squared differences) or "ssim" (1 - SSIM);
    any other value raises ValidationError, and an empty image raises
    ShapeError. `use_integral=False` recomputes every strip directly under
    either measure (same boxes, kept for cross-checking). The returned
    `dissim` is always the direct measure of the final box.
    """
    t = as_gray8(thermal)
    f = as_gray8(fused)
    if t.shape != f.shape:
        raise ShapeError(f"extent mismatch: {t.shape} vs {f.shape}")
    if t.size == 0:
        raise ShapeError(f"empty image {t.shape}")
    m, n = t.shape
    measure = _RegionMeasure(t, f, metric, use_integral)

    x1, x2, y1, y2 = 0, m - 1, 0, n - 1

    def shrinkable(after) -> bool:
        """True while the strip may be removed: dissimilarity density of
        the current box stays below that of the shrunken one."""
        box = (x1, x2, y1, y2)
        a1 = (x2 - x1 + 1) * (y2 - y1 + 1)
        ax1, ax2, ay1, ay2 = after
        a2 = (ax2 - ax1 + 1) * (ay2 - ay1 + 1)
        m1, m2 = measure(*box), measure(*after)
        slack = a2 * measure.error(*box) + a1 * measure.error(*after)
        if slack and abs(m1 * a2 - a1 * m2) <= slack:
            # Too close to call from the SSIM table: decide as direct
            # recomputation does.
            m1, m2 = measure.direct(*box), measure.direct(*after)
        return m1 * a2 < a1 * m2

    while x1 < x2 and shrinkable((x1 + 1, x2, y1, y2)):
        x1 += 1
    while x2 > x1 and shrinkable((x1, x2 - 1, y1, y2)):
        x2 -= 1
    while y1 < y2 and shrinkable((x1, x2, y1 + 1, y2)):
        y1 += 1
    while y2 > y1 and shrinkable((x1, x2, y1, y2 - 1)):
        y2 -= 1

    return RofBox(x1, x2, y1, y2, measure.name, measure.direct(x1, x2, y1, y2))


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

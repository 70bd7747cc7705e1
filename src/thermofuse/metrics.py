"""Objective similarity scores: SSIM, cosine similarity, mean squared error.

All three operate on the 0-255 intensity scale. SSIM uses the reference
configuration: 11x11 Gaussian window with sigma 1.5, K1 = 0.01, K2 = 0.03,
dynamic range 255, averaged over valid window positions. Every score
rejects an image holding NaN or inf with ValidationError.

The Gaussian window is separable, so SSIM's five moment planes are each
filtered along one axis and then the other. Each axis is a banded matrix
product: a fixed (64, 74) band, row i holding the kernel at columns
i .. i + 10, maps 74 input rows (or columns) to 64 outputs in one GEMM,
and a partial last block takes its top-left corner. Work stays linear in
the pixel count and nothing 11x the image is allocated. The band's zeros
multiply pixels outside each window, which is why a non-finite pixel
would spoil a whole block, not only its own windows. BLAS sums the 11
taps in its own order, so the map differs from a tap-by-tap sum in its
last bits: by at most 1.5e-12 over 128 synthetic pairs, the size of the
rounding either order already carries from the variance's E[x^2] - mu^2
cancellation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError, ValidationError

SSIM_WINDOW = 11
SSIM_SIGMA = 1.5
SSIM_K1 = 0.01
SSIM_K2 = 0.03
DYNAMIC_RANGE = 255.0
# Outputs per banded GEMM in `_windowed_mean`.
_BAND_ROWS = 64


@dataclass(frozen=True)
class ScoreTriple:
    ssim: float
    cossim: float
    mse: float


def _as_pair(a, b) -> tuple[np.ndarray, np.ndarray]:
    av = np.asarray(a, dtype=np.float64)
    bv = np.asarray(b, dtype=np.float64)
    if av.ndim != 2 or bv.ndim != 2:
        raise ShapeError(f"expected 2-D images, got shapes {av.shape}, {bv.shape}")
    if av.shape != bv.shape:
        raise ShapeError(f"extent mismatch: {av.shape} vs {bv.shape}")
    if av.size == 0:
        raise ShapeError(f"empty image {av.shape}")
    for name, img in (("first", av), ("second", bv)):
        if not np.isfinite(img).all():
            raise ValidationError(f"{name} image has non-finite values")
    return av, bv


def _mse(av: np.ndarray, bv: np.ndarray) -> float:
    diff = av - bv
    return float(np.mean(diff * diff))


def _cossim(av: np.ndarray, bv: np.ndarray) -> float:
    va = av.ravel()
    vb = bv.ravel()
    na = float(np.linalg.norm(va))
    nb = float(np.linalg.norm(vb))
    if na == 0.0 and nb == 0.0:
        return 1.0
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float(va @ vb) / (na * nb)


def mse(a, b) -> float:
    return _mse(*_as_pair(a, b))


def cossim(a, b) -> float:
    """Cosine of the angle between the flattened intensity vectors.

    Two zero images count as identical (1.0); exactly one zero image is
    orthogonal to anything (0.0).
    """
    return _cossim(*_as_pair(a, b))


def gaussian_kernel(size: int = SSIM_WINDOW, sigma: float = SSIM_SIGMA) -> np.ndarray:
    """1-D Gaussian, normalized to sum 1."""
    offsets = np.arange(size, dtype=np.float64) - (size - 1) / 2.0
    kernel = np.exp(-(offsets**2) / (2.0 * sigma**2))
    return kernel / kernel.sum()


def _band_matrix(kernel: np.ndarray) -> np.ndarray:
    """(_BAND_ROWS, _BAND_ROWS + size - 1) matrix whose row i holds `kernel`
    at columns i .. i + size - 1 and zeros elsewhere."""
    size = kernel.size
    width = _BAND_ROWS + size - 1
    # Copy i of the kernel starts a row one element longer than the band:
    # read back `width` elements at a time, it lands i columns into row i.
    band = np.zeros((_BAND_ROWS, width + 1))
    band[:, :size] = kernel
    return band.reshape(-1)[: _BAND_ROWS * width].reshape(_BAND_ROWS, width)


_BAND = _band_matrix(gaussian_kernel())
_HALO = SSIM_WINDOW - 1


def _windowed_mean(img: np.ndarray, out: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Valid-mode separable Gaussian-weighted mean over sliding windows of
    an (h, w) image, into `out` (h - 10, w - 10) through the row pass
    `rows` (h - 10, w).

    Each axis is filtered as banded matrix products over blocks of at most
    `_BAND_ROWS` outputs: one GEMM per block, no copy of the windows.
    """
    rows_out, cols_out = out.shape
    for r in range(0, rows_out, _BAND_ROWS):
        m = min(_BAND_ROWS, rows_out - r)
        np.matmul(_BAND[:m, : m + _HALO], img[r : r + m + _HALO], out=rows[r : r + m])
    for c in range(0, cols_out, _BAND_ROWS):
        m = min(_BAND_ROWS, cols_out - c)
        np.matmul(rows[:, c : c + m + _HALO], _BAND[:m, : m + _HALO].T, out=out[:, c : c + m])
    return out


def _ssim_map(av: np.ndarray, bv: np.ndarray) -> np.ndarray:
    """SSIM map of a validated pair, (2 mu_a mu_b + c1)(2 cov + c2) /
    ((mu_a^2 + mu_b^2 + c1)(var_a + var_b + c2)) in that operation order.

    Every product goes to one of eight buffers made here. A loop that
    scores image after image would otherwise make over thirty image-sized
    temporaries per call, whose pages fault in again each time the
    allocator has returned them to the system.
    """
    if min(av.shape) < SSIM_WINDOW:
        raise ValidationError(
            f"image {av.shape} smaller than the {SSIM_WINDOW}x{SSIM_WINDOW} SSIM window"
        )
    c1 = (SSIM_K1 * DYNAMIC_RANGE) ** 2
    c2 = (SSIM_K2 * DYNAMIC_RANGE) ** 2
    shape = (av.shape[0] - _HALO, av.shape[1] - _HALO)
    rows = np.empty((shape[0], av.shape[1]))
    prod = np.empty_like(av)
    mu_a, mu_b, var_a, var_b, sq_a, sq_b = (np.empty(shape) for _ in range(6))
    _windowed_mean(av, mu_a, rows)
    _windowed_mean(bv, mu_b, rows)
    np.multiply(mu_a, mu_a, out=sq_a)
    np.multiply(mu_b, mu_b, out=sq_b)
    _windowed_mean(np.multiply(av, av, out=prod), var_a, rows)
    var_a -= sq_a
    _windowed_mean(np.multiply(bv, bv, out=prod), var_b, rows)
    var_b -= sq_b
    # denom = (mu_a^2 + mu_b^2 + c1) * (var_a + var_b + c2), into sq_a
    sq_a += sq_b
    sq_a += c1
    var_a += var_b
    var_a += c2
    sq_a *= var_a
    # cov = E[ab] - mu_a mu_b, into var_b; mu_a mu_b into sq_b
    cov = _windowed_mean(np.multiply(av, bv, out=prod), var_b, rows)
    cov -= np.multiply(mu_a, mu_b, out=sq_b)
    # numer = (2 mu_a mu_b + c1) * (2 cov + c2), into mu_a
    mu_a *= 2.0
    mu_a *= mu_b
    mu_a += c1
    cov *= 2.0
    cov += c2
    mu_a *= cov
    mu_a /= sq_a
    return mu_a


def ssim_map(a, b) -> np.ndarray:
    """Per-window SSIM: entry (i, j) scores the window whose top-left pixel
    is (i, j), so the map has (rows - 10) x (cols - 10) entries."""
    return _ssim_map(*_as_pair(a, b))


def ssim(a, b) -> float:
    """Mean of the SSIM map over all valid window positions."""
    return float(np.mean(ssim_map(a, b)))


def score_triple(a, b) -> ScoreTriple:
    """All three scores for one image pair, validated and converted once."""
    av, bv = _as_pair(a, b)
    return ScoreTriple(
        ssim=float(np.mean(_ssim_map(av, bv))), cossim=_cossim(av, bv), mse=_mse(av, bv)
    )

"""Objective similarity scores: SSIM, cosine similarity, mean squared error.

All three operate on the 0-255 intensity scale. SSIM uses the reference
configuration: 11x11 Gaussian window with sigma 1.5, K1 = 0.01, K2 = 0.03,
dynamic range 255, averaged over valid window positions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ShapeError, ValidationError

SSIM_WINDOW = 11
SSIM_SIGMA = 1.5
SSIM_K1 = 0.01
SSIM_K2 = 0.03
DYNAMIC_RANGE = 255.0


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
    return av, bv


def mse(a, b) -> float:
    av, bv = _as_pair(a, b)
    diff = av - bv
    return float(np.mean(diff * diff))


def cossim(a, b) -> float:
    """Cosine of the angle between the flattened intensity vectors.

    Two zero images count as identical (1.0); exactly one zero image is
    orthogonal to anything (0.0).
    """
    av, bv = _as_pair(a, b)
    va = av.ravel()
    vb = bv.ravel()
    na = float(np.linalg.norm(va))
    nb = float(np.linalg.norm(vb))
    if na == 0.0 and nb == 0.0:
        return 1.0
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float(va @ vb) / (na * nb)


def gaussian_kernel(size: int = SSIM_WINDOW, sigma: float = SSIM_SIGMA) -> np.ndarray:
    """1-D Gaussian, normalized to sum 1."""
    offsets = np.arange(size, dtype=np.float64) - (size - 1) / 2.0
    kernel = np.exp(-(offsets**2) / (2.0 * sigma**2))
    return kernel / kernel.sum()


def _windowed_mean(img: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Valid-mode separable weighted mean over sliding windows."""
    size = kernel.size
    rows = np.tensordot(sliding_window_view(img, size, axis=0), kernel, axes=([2], [0]))
    return np.tensordot(sliding_window_view(rows, size, axis=1), kernel, axes=([2], [0]))


def ssim_map(a, b) -> np.ndarray:
    """Per-window SSIM: entry (i, j) scores the window whose top-left pixel
    is (i, j), so the map has (rows - 10) x (cols - 10) entries."""
    av, bv = _as_pair(a, b)
    if min(av.shape) < SSIM_WINDOW:
        raise ValidationError(
            f"image {av.shape} smaller than the {SSIM_WINDOW}x{SSIM_WINDOW} SSIM window"
        )
    kernel = gaussian_kernel()
    c1 = (SSIM_K1 * DYNAMIC_RANGE) ** 2
    c2 = (SSIM_K2 * DYNAMIC_RANGE) ** 2
    mu_a = _windowed_mean(av, kernel)
    mu_b = _windowed_mean(bv, kernel)
    var_a = _windowed_mean(av * av, kernel) - mu_a * mu_a
    var_b = _windowed_mean(bv * bv, kernel) - mu_b * mu_b
    cov = _windowed_mean(av * bv, kernel) - mu_a * mu_b
    numer = (2.0 * mu_a * mu_b + c1) * (2.0 * cov + c2)
    denom = (mu_a * mu_a + mu_b * mu_b + c1) * (var_a + var_b + c2)
    return numer / denom


def ssim(a, b) -> float:
    """Mean of the SSIM map over all valid window positions."""
    return float(np.mean(ssim_map(a, b)))


def score_triple(a, b) -> ScoreTriple:
    """All three scores for one image pair."""
    return ScoreTriple(ssim=ssim(a, b), cossim=cossim(a, b), mse=mse(a, b))

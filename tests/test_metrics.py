import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from thermofuse import ShapeError, ValidationError
from thermofuse import datakit, fusion, metrics, rof

from blas_kernel import blas_note


def gaussian_2d(size=11, sigma=1.5):
    half = size // 2
    g = np.exp(-np.arange(-half, half + 1) ** 2 / (2.0 * sigma**2))
    k = np.outer(g, g)
    return k / k.sum()


def ssim_brute(a, b, size=11, sigma=1.5, k1=0.01, k2=0.03, dr=255.0):
    """Window-by-window reference: weighted moments per valid position."""
    w = gaussian_2d(size, sigma)
    c1 = (k1 * dr) ** 2
    c2 = (k2 * dr) ** 2
    h, wd = a.shape
    vals = []
    for i in range(h - size + 1):
        for j in range(wd - size + 1):
            pa = a[i : i + size, j : j + size]
            pb = b[i : i + size, j : j + size]
            mu_a = (w * pa).sum()
            mu_b = (w * pb).sum()
            var_a = (w * pa * pa).sum() - mu_a**2
            var_b = (w * pb * pb).sum() - mu_b**2
            cov = (w * pa * pb).sum() - mu_a * mu_b
            vals.append(
                ((2 * mu_a * mu_b + c1) * (2 * cov + c2))
                / ((mu_a**2 + mu_b**2 + c1) * (var_a + var_b + c2))
            )
    return float(np.mean(vals))


def test_gaussian_kernel_matches_reference():
    k = metrics.gaussian_kernel()
    assert k.shape == (11,)
    assert k.sum() == pytest.approx(1.0, abs=1e-15)
    assert np.allclose(np.outer(k, k), gaussian_2d(), atol=1e-15)
    assert np.array_equal(k, k[::-1])  # symmetric


def test_mse_and_cossim_hand_values():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    b = np.array([[1.0, 2.0], [3.0, 0.0]])
    assert metrics.mse(a, b) == pytest.approx(4.0)
    assert metrics.mse(a, a) == 0.0
    cos = metrics.cossim(a, b)
    want = (1 + 4 + 9) / (np.sqrt(30.0) * np.sqrt(14.0))
    assert cos == pytest.approx(want, rel=1e-12)


def test_cossim_zero_vectors():
    z = np.zeros((3, 3))
    ones = np.ones((3, 3))
    assert metrics.cossim(z, z) == 1.0
    assert metrics.cossim(z, ones) == 0.0
    assert metrics.cossim(ones, z) == 0.0


def test_self_comparison_is_perfect():
    rng = np.random.default_rng(42)
    img = rng.integers(0, 256, size=(16, 16)).astype(np.float64)
    triple = metrics.score_triple(img, img)
    assert triple.ssim == 1.0  # exact, not approximate
    assert triple.cossim == pytest.approx(1.0, abs=1e-12)
    assert triple.mse == 0.0


def test_ssim_matches_brute_force():
    rng = np.random.default_rng(9)
    for _ in range(3):
        a = rng.integers(0, 256, size=(20, 24)).astype(np.float64)
        b = np.clip(a + rng.normal(0, 12, size=a.shape), 0, 255)
        got = metrics.ssim(a, b)
        want = ssim_brute(a, b)
        assert abs(got - want) < 1e-9


def test_ssim_symmetry_bitwise():
    rng = np.random.default_rng(14)
    a = rng.integers(0, 256, size=(18, 18)).astype(np.float64)
    b = rng.integers(0, 256, size=(18, 18)).astype(np.float64)
    assert metrics.ssim(a, b) == metrics.ssim(b, a)
    assert metrics.cossim(a, b) == metrics.cossim(b, a)
    assert metrics.mse(a, b) == metrics.mse(b, a)


def test_ssim_sensitivity():
    rng = np.random.default_rng(2)
    a = rng.integers(0, 256, size=(32, 32)).astype(np.float64)
    slight = np.clip(a + rng.normal(0, 2, size=a.shape), 0, 255)
    heavy = np.clip(a + rng.normal(0, 60, size=a.shape), 0, 255)
    assert metrics.ssim(a, heavy) < metrics.ssim(a, slight) < 1.0
    assert -1.0 <= metrics.ssim(a, 255.0 - a) <= 1.0


def test_ssim_window_requirement():
    with pytest.raises(ValidationError):
        metrics.ssim(np.zeros((10, 16)), np.zeros((10, 16)))
    # exactly one valid window works
    v = metrics.ssim(np.ones((11, 11)), np.ones((11, 11)))
    assert v == 1.0


def test_extent_mismatch_and_rank():
    with pytest.raises(ShapeError):
        metrics.mse(np.zeros((4, 4)), np.zeros((4, 5)))
    with pytest.raises(ShapeError):
        metrics.cossim(np.zeros((4, 4, 1)), np.zeros((4, 4, 1)))


@pytest.mark.parametrize("shape", [(0, 5), (5, 0), (0, 0)])
def test_empty_images_are_shape_errors(shape):
    empty = np.zeros(shape)
    for score in (metrics.mse, metrics.cossim, metrics.ssim, metrics.ssim_map,
                  metrics.score_triple):
        with pytest.raises(ShapeError):
            score(empty, empty)


def test_ssim_is_the_mean_of_its_map():
    rng = np.random.default_rng(21)
    a = rng.integers(0, 256, size=(19, 27)).astype(np.float64)
    b = rng.integers(0, 256, size=(19, 27)).astype(np.float64)
    smap = metrics.ssim_map(a, b)
    assert smap.shape == (9, 17)  # one entry per valid window position
    assert metrics.ssim(a, b) == float(np.mean(smap))
    with pytest.raises(ValidationError):
        metrics.ssim_map(np.zeros((10, 16)), np.zeros((10, 16)))


def test_score_triple_fields():
    rng = np.random.default_rng(77)
    a = rng.integers(0, 256, size=(16, 16)).astype(np.float64)
    b = rng.integers(0, 256, size=(16, 16)).astype(np.float64)
    triple = metrics.score_triple(a, b)
    assert triple.ssim == metrics.ssim(a, b)
    assert triple.cossim == metrics.cossim(a, b)
    assert triple.mse == metrics.mse(a, b)
    # uint8 inputs are accepted and promoted
    assert metrics.score_triple(a.astype(np.uint8), b.astype(np.uint8)) == triple


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("score", [metrics.ssim, metrics.ssim_map, metrics.cossim,
                                   metrics.mse, metrics.score_triple])
def test_non_finite_images_are_rejected(score, bad):
    good = np.full((16, 16), 100.0)
    spoiled = good.copy()
    spoiled[7, 3] = bad
    with pytest.raises(ValidationError, match="first image"):
        score(spoiled, good)
    with pytest.raises(ValidationError, match="second image"):
        score(good, spoiled)


def windowed_mean_direct(img, kernel):
    """Each output is the 2-D kernel times its window, summed directly."""
    windows = sliding_window_view(img, (kernel.size, kernel.size))
    return np.einsum("ijkl,kl->ij", windows, np.outer(kernel, kernel))


# Output extents below one band block, exactly one and two blocks, and
# partial last blocks on either axis.
@given(st.integers(11, 160), st.integers(11, 160), st.integers(0, 2**32 - 1))
@example(11, 11, 0)
@example(74, 138, 1)
@example(75, 160, 2)
@example(160, 12, 3)
def test_banded_filter_matches_direct_window_sum(rows, cols, seed):
    img = np.random.default_rng(seed).uniform(0.0, 65025.0, size=(rows, cols))
    kernel = metrics.gaussian_kernel()
    out, scratch = np.empty((rows - 10, cols - 10)), np.empty((rows - 10, cols))
    got = metrics._windowed_mean(img, out, scratch)
    np.testing.assert_allclose(got, windowed_mean_direct(img, kernel), rtol=1e-12, atol=0)


def test_ssim_map_memory_is_a_few_planes():
    # The windowed means allocate no copy of the windows: the traced peak
    # is a handful of float64 planes (about 10 here), not 11 per plane.
    rng = np.random.default_rng(31)
    a = rng.integers(0, 256, size=(512, 512), dtype=np.uint8)
    b = rng.integers(0, 256, size=(512, 512), dtype=np.uint8)
    tracemalloc.start()
    try:
        metrics.ssim_map(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 14 * a.size * 8


def test_ssim_map_keeps_nothing_after_a_call():
    # The scores hold no state: after a 512^2 call only the returned map
    # stays allocated.
    rng = np.random.default_rng(32)
    a = rng.integers(0, 256, size=(512, 512), dtype=np.uint8)
    b = rng.integers(0, 256, size=(512, 512), dtype=np.uint8)
    tracemalloc.start()
    try:
        smap = metrics.ssim_map(a, b)
        metrics.score_triple(a, b)
        current = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert current <= 1.05 * smap.nbytes


# Recorded before `score_triple` converted its pair once, `rof._costs`
# worked in place and the SSIM map reused its buffers: the "ssim" RoF
# lines, the three scores and the SSIM maps of the postprocess chain over
# 64 synthetic pairs, and of noisy pairs at odd extents, hashed.
PIPELINE_DIGEST = "114136551fa5709731bd478196824d1e2cd5ab45e88e166f923f44d12e318e3a"
ODD_EXTENT_DIGEST = "2a49e491c17367110bfbdc46c9d816e57afc691b58c6ebe5576a3c0125d1e278"


def test_ssim_bits_are_pinned():
    h = hashlib.sha256()
    for count, extent, seed in ((32, 128, 501), (32, 256, 502)):
        for sample in datakit.synth_pairs(count, extent, np.random.default_rng(seed)):
            t = sample.thermal
            f = fusion.histogram_equalize(fusion.average_fuse(t, sample.optical))
            box = rof.compute_rof(t, f, "ssim")
            s = metrics.score_triple(t, f)
            line = f"{box.text_line()} {s.ssim.hex()} {s.cossim.hex()} {s.mse.hex()}\n"
            h.update(line.encode())
            h.update(metrics.ssim_map(t, f).tobytes())
    assert h.hexdigest() == PIPELINE_DIGEST, blas_note()

    rng = np.random.default_rng(7)
    h = hashlib.sha256()
    for shape in [(11, 11), (11, 40), (12, 75), (74, 138), (75, 160), (97, 131),
                  (128, 128), (139, 201), (256, 256)]:
        a = rng.integers(0, 256, shape).astype(np.float64)
        b = np.clip(a + rng.normal(0, 20, shape), 0, 255)
        h.update(metrics.ssim_map(a, b).tobytes())
        h.update(metrics.ssim_map(b, a).tobytes())
        h.update(f"{metrics.score_triple(a, b)}".encode())
    assert h.hexdigest() == ODD_EXTENT_DIGEST, blas_note()

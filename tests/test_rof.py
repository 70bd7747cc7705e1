import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

from thermofuse import ShapeError, ValidationError, metrics
from thermofuse.rof import RofBox, compute_rof, dissim_ssd, draw_box


def box_iou(a, b):
    rows = min(a.x2, b.x2) - max(a.x1, b.x1) + 1
    cols = min(a.y2, b.y2) - max(a.y1, b.y1) + 1
    inter = max(rows, 0) * max(cols, 0)
    area_a = (a.x2 - a.x1 + 1) * (a.y2 - a.y1 + 1)
    area_b = (b.x2 - b.x1 + 1) * (b.y2 - b.y1 + 1)
    return inter / (area_a + area_b - inter)


def test_hand_traced_four_by_four():
    # one 2x2 patch of +100 difference; every shrink decision can be done
    # on paper: the box tightens to exactly that patch
    thermal = np.zeros((4, 4), dtype=np.uint8)
    fused = thermal.copy()
    fused[1:3, 1:3] = 100
    box = compute_rof(thermal, fused)
    assert (box.x1, box.x2, box.y1, box.y2) == (1, 2, 1, 2)
    assert box.dissim == 40000
    assert box.text_line() == "1 1 2 2 ssd 40000"


def test_identical_images_keep_full_box():
    img = np.random.default_rng(0).integers(0, 256, size=(12, 9), dtype=np.uint8)
    box = compute_rof(img, img)
    assert (box.x1, box.x2, box.y1, box.y2) == (0, 11, 0, 8)
    assert box.dissim == 0


def test_dissim_ssd_values_and_errors():
    a = np.array([[255, 0], [10, 20]], dtype=np.uint8)
    b = np.array([[0, 255], [10, 25]], dtype=np.uint8)
    assert dissim_ssd(a, b) == 255**2 + 255**2 + 25
    assert isinstance(dissim_ssd(a, b), int)
    # worst case has no wraparound: full-range difference over a big image
    big_a = np.full((200, 200), 255, dtype=np.uint8)
    big_b = np.zeros((200, 200), dtype=np.uint8)
    assert dissim_ssd(big_a, big_b) == 200 * 200 * 255**2
    with pytest.raises(ShapeError):
        dissim_ssd(a, b[:1])


@pytest.mark.parametrize("metric", ["ssd", "ssim"])
def test_integral_and_direct_agree_exactly(metric):
    # shapes on both sides of the 11-px SSIM window
    rng = np.random.default_rng(33)
    for shape in [(8, 30), (16, 16), (40, 24)] * 2:
        thermal = rng.integers(0, 256, size=shape, dtype=np.uint8)
        fused = rng.integers(0, 256, size=shape, dtype=np.uint8)
        fast = compute_rof(thermal, fused, metric, use_integral=True)
        slow = compute_rof(thermal, fused, metric, use_integral=False)
        assert fast == slow  # dataclass equality: bounds, metric and dissim


@pytest.fixture
def windowed_mean_calls(monkeypatch):
    """Shapes of the images each `metrics._windowed_mean` call averages."""
    calls = []
    windowed_mean = metrics._windowed_mean

    def counted(img, kernel):
        calls.append(img.shape)
        return windowed_mean(img, kernel)

    monkeypatch.setattr(metrics, "_windowed_mean", counted)
    return calls


def test_ssim_near_ties_decided_as_direct(windowed_mean_calls):
    # one flipped low bit in a corner leaves 1 - SSIM so close to 0 that
    # the map table's last-bit rounding cannot call the comparisons
    rng = np.random.default_rng(4)
    thermal = rng.integers(0, 256, size=(28, 32), dtype=np.uint8)
    fused = thermal.copy()
    fused[27, 30] ^= 1
    fast = compute_rof(thermal, fused, "ssim", use_integral=True)
    assert len(windowed_mean_calls) > 10  # some strips were recomputed
    assert fast == compute_rof(thermal, fused, "ssim", use_integral=False)


def _image_pairs():
    shape = st.tuples(st.integers(1, 40), st.integers(1, 40))
    return shape.flatmap(
        lambda s: st.tuples(arrays(np.uint8, s), arrays(np.uint8, s))
    )


@given(_image_pairs())
def test_ssim_table_matches_direct(pair):
    thermal, fused = pair
    assert compute_rof(thermal, fused, "ssim", use_integral=True) == compute_rof(
        thermal, fused, "ssim", use_integral=False
    )


def test_ssim_work_per_strip_is_constant(windowed_mean_calls):
    # one SSIM map for the whole pair plus the final box's direct measure:
    # five windowed means each, however many strips the passes remove
    rng = np.random.default_rng(96)
    thermal = rng.integers(0, 256, size=(96, 96), dtype=np.uint8)
    fused = thermal.copy()
    fused[30:70, 20:60] = rng.integers(0, 256, size=(40, 40), dtype=np.uint8)
    box = compute_rof(thermal, fused, metric="ssim")
    assert (box.x1, box.x2, box.y1, box.y2) != (0, 95, 0, 95)  # strips were removed
    assert len(windowed_mean_calls) <= 10


@pytest.mark.parametrize("metric", ["ssd", "ssim"])
@pytest.mark.parametrize("shape", [(0, 5), (5, 0), (0, 0)])
def test_empty_image_is_a_shape_error(metric, shape):
    empty = np.zeros(shape, dtype=np.uint8)
    with pytest.raises(ShapeError):
        compute_rof(empty, empty, metric)


def test_blob_recovery_with_noise():
    # noise can tip individual strip decisions, so exact recovery is seed
    # dependent; the acceptance suite measures the hit rate over a corpus
    rng = np.random.default_rng(7)
    thermal = rng.integers(100, 112, size=(32, 32), dtype=np.uint8)
    fused = thermal.copy()
    region = (slice(8, 20), slice(10, 25))
    fused[region] = np.clip(fused[region].astype(int) + 80, 0, 255).astype(np.uint8)
    fused = np.clip(
        fused.astype(int) + rng.normal(0, 2, size=fused.shape), 0, 255
    ).astype(np.uint8)
    got = compute_rof(thermal, fused)
    want = RofBox(8, 19, 10, 24)
    assert box_iou(got, want) >= 0.8


def test_ssim_metric_and_errors():
    rng = np.random.default_rng(55)
    thermal = rng.integers(0, 256, size=(24, 24), dtype=np.uint8)
    fused = thermal.copy()
    fused[6:18, 6:18] ^= 0xFF
    box = compute_rof(thermal, fused, metric="ssim")
    assert box.metric == "ssim"
    assert 0 <= box.x1 <= box.x2 < 24

    with pytest.raises(ValidationError):
        compute_rof(thermal, fused, metric="cosine")
    with pytest.raises(ValidationError):
        compute_rof(thermal, fused, metric=lambda a, b: 0)
    with pytest.raises(ShapeError):
        compute_rof(thermal, fused[:12])


def test_text_line_float_metric():
    box = RofBox(0, 3, 1, 4, metric="ssim", dissim=0.25)
    assert box.text_line() == "0 1 3 4 ssim 0.25"


def test_draw_box():
    img = np.zeros((8, 8), dtype=np.uint8)
    box = RofBox(2, 5, 1, 6)
    out = draw_box(img, box)
    assert img.max() == 0  # original untouched
    assert np.all(out[2, 1:7] == 255)
    assert np.all(out[5, 1:7] == 255)
    assert np.all(out[2:6, 1] == 255)
    assert np.all(out[2:6, 6] == 255)
    assert out[3, 3] == 0  # interior untouched
    with pytest.raises(ValidationError):
        draw_box(img, RofBox(2, 9, 1, 6))

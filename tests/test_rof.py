import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

from thermofuse import ShapeError, ValidationError, datakit, fusion, metrics
from thermofuse.metrics import SSIM_WINDOW
from thermofuse.rof import RofBox, compute_rof, draw_box


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


def test_ssd_sum_is_exact_and_printed_exactly():
    # worst case has no wraparound: full-range difference over a big image,
    # a sum past 2**31 that the box line prints digit for digit
    big_a = np.full((200, 200), 255, dtype=np.uint8)
    big_b = np.zeros((200, 200), dtype=np.uint8)
    box = compute_rof(big_a, big_b)
    assert box.dissim == 200 * 200 * 255**2
    assert isinstance(box.dissim, int)
    assert box.text_line() == "0 0 199 199 ssd 2601000000"
    # a fused synthetic pair, as `postprocess` makes it
    sample = datakit.synth_pairs(3, 128, np.random.default_rng(7))[0]
    fused = fusion.histogram_equalize(fusion.average_fuse(sample.thermal, sample.optical))
    assert compute_rof(sample.thermal, fused).text_line() == "17 0 127 114 ssd 78415235"


@pytest.mark.parametrize("metric", ["ssd", "ssim"])
def test_integral_and_direct_agree_exactly(metric):
    # shapes on both sides of the 11-px SSIM window
    rng = np.random.default_rng(33)
    for shape in [(8, 30), (11, 30), (16, 16), (40, 24)] * 2:
        thermal = rng.integers(0, 256, size=shape, dtype=np.uint8)
        fused = rng.integers(0, 256, size=shape, dtype=np.uint8)
        if metric == "ssim" and min(shape) < SSIM_WINDOW:
            for use_integral in (True, False):
                with pytest.raises(ValidationError):
                    compute_rof(thermal, fused, metric, use_integral=use_integral)
            continue
        fast = compute_rof(thermal, fused, metric, use_integral=True)
        slow = compute_rof(thermal, fused, metric, use_integral=False)
        assert fast == slow  # dataclass equality: bounds, metric and dissim


@pytest.fixture
def windowed_mean_calls(monkeypatch):
    """Shapes of the images each `metrics._windowed_mean` call averages."""
    calls = []
    windowed_mean = metrics._windowed_mean

    def counted(img, out, rows):
        calls.append(img.shape)
        return windowed_mean(img, out, rows)

    monkeypatch.setattr(metrics, "_windowed_mean", counted)
    return calls


def _image_pairs():
    shape = st.tuples(st.integers(1, 40), st.integers(1, 40))
    return shape.flatmap(
        lambda s: st.tuples(arrays(np.uint8, s), arrays(np.uint8, s))
    )


@given(_image_pairs())
def test_ssim_table_matches_direct(pair):
    thermal, fused = pair
    if min(thermal.shape) < SSIM_WINDOW:
        for use_integral in (True, False):
            with pytest.raises(ValidationError):
                compute_rof(thermal, fused, "ssim", use_integral=use_integral)
        return
    fast = compute_rof(thermal, fused, "ssim", use_integral=True)
    assert fast == compute_rof(thermal, fused, "ssim", use_integral=False)
    assert min(fast.x2 - fast.x1, fast.y2 - fast.y1) + 1 >= SSIM_WINDOW


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


def test_ssim_box_finds_a_scrambled_blob():
    # 1 - SSIM summed per window: the box closes in on the blob, though a
    # window straddling its edge still counts, and never drops below 11 px
    grow = SSIM_WINDOW - 1
    for seed in range(6):
        rng = np.random.default_rng(seed)
        thermal = rng.integers(0, 256, size=(64, 64), dtype=np.uint8)
        fused = thermal.copy()
        fused[20:40, 25:45] = rng.integers(0, 256, size=(20, 20), dtype=np.uint8)
        box = compute_rof(thermal, fused, "ssim")
        assert box_iou(box, RofBox(20, 39, 25, 44)) > 0
        assert 20 - grow <= box.x1 and box.x2 <= 39 + grow
        assert 25 - grow <= box.y1 and box.y2 <= 44 + grow
        assert min(box.x2 - box.x1, box.y2 - box.y1) + 1 >= SSIM_WINDOW


def test_ssim_dissim_is_the_box_mean_within_rounding():
    # each window's cost is 1 - SSIM rounded to 2**-24, so the box's mean
    # cost is within that of 1 - SSIM over the box's own pixels
    rng = np.random.default_rng(12)
    thermal = rng.integers(0, 256, size=(48, 40), dtype=np.uint8)
    fused = thermal.copy()
    fused[10:30, 5:25] ^= 0x5A
    for use_integral in (True, False):
        box = compute_rof(thermal, fused, "ssim", use_integral=use_integral)
        region = (slice(box.x1, box.x2 + 1), slice(box.y1, box.y2 + 1))
        want = 1.0 - metrics.ssim(thermal[region], fused[region])
        assert isinstance(box.dissim, float)
        assert abs(box.dissim - want) <= 2.0**-24


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
    with pytest.raises(ValidationError):
        compute_rof(thermal, fused, metric=np.array(["ssd", "ssim"]))
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

import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from thermofuse import ShapeError, ValidationError
from thermofuse import fusion, rof, wavelet
from thermofuse.fusion import RoiBox


def test_round_half_away():
    x = np.array([0.5, 1.5, 2.4, 2.5, -0.5, -1.5, -2.4])
    assert np.array_equal(fusion.round_half_away(x), [1, 2, 2, 3, -1, -2, -2])


def test_as_gray8():
    img = fusion.as_gray8([[0, 255], [7, 200]])
    assert img.dtype == np.uint8
    with pytest.raises(ShapeError):
        fusion.as_gray8(np.zeros((2, 2, 3), dtype=np.uint8))
    with pytest.raises(ValidationError):
        fusion.as_gray8([[0, 256]])
    with pytest.raises(ValidationError):
        fusion.as_gray8([[-1, 0]])


def test_unit_conversions():
    img = np.array([[0, 128, 255]], dtype=np.uint8)
    unit = fusion.to_unit(img)
    assert unit.dtype == np.float64
    assert unit[0, 0] == 0.0 and unit[0, 2] == 1.0
    back = fusion.to_uint8(unit)
    assert np.array_equal(back, img)
    # 0.5 scales to 127.5 which rounds away from zero to 128
    assert fusion.to_uint8(np.array([[0.5]]))[0, 0] == 128
    assert fusion.to_uint8(np.array([[-0.2, 1.7]])).tolist() == [[0, 255]]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_to_uint8_rejects_non_finite(bad):
    with pytest.raises(ValidationError, match="non-finite"):
        fusion.to_uint8(np.array([[0.25, bad]]))


def test_average_fuse_hand_values():
    a = np.array([[0, 10, 255, 3]], dtype=np.uint8)
    b = np.array([[0, 13, 255, 4]], dtype=np.uint8)
    out = fusion.average_fuse(a, b)
    assert out.dtype == np.uint8
    # (3+4)/2 = 3.5 rounds up; (10+13)/2 = 11.5 rounds up
    assert out.tolist() == [[0, 12, 255, 4]]
    with pytest.raises(ShapeError):
        fusion.average_fuse(a, np.zeros((2, 2), dtype=np.uint8))


def test_average_fuse_matches_float_rounding():
    rng = np.random.default_rng(6)
    a = rng.integers(0, 256, size=(31, 17), dtype=np.uint8)
    b = rng.integers(0, 256, size=(31, 17), dtype=np.uint8)
    want = fusion.round_half_away((a.astype(float) + b.astype(float)) / 2.0)
    assert np.array_equal(fusion.average_fuse(a, b), want.astype(np.uint8))


def test_histogram_equalize_two_level():
    # 3 dark pixels, 1 bright: cdf = 3/4 then 4/4
    img = np.array([[10, 10], [10, 200]], dtype=np.uint8)
    out = fusion.histogram_equalize(img)
    # lut(v) = round(255 * (cdf(v) - cdf_min) / (n - cdf_min)), cdf_min = 3
    assert out[0, 0] == 0
    assert out[1, 1] == 255
    assert out.dtype == np.uint8


def test_histogram_equalize_properties():
    rng = np.random.default_rng(15)
    img = rng.integers(40, 90, size=(32, 32), dtype=np.uint8)
    out = fusion.histogram_equalize(img)
    # monotone: pixel ordering never inverts
    flat_in = img.ravel().astype(int)
    flat_out = out.ravel().astype(int)
    order = np.argsort(flat_in, kind="stable")
    assert np.all(np.diff(flat_out[order]) >= 0)
    # narrow input range stretches to the full scale
    assert out.min() == 0 and out.max() == 255
    # constant image passes through unchanged
    flat = np.full((8, 8), 77, dtype=np.uint8)
    assert np.array_equal(fusion.histogram_equalize(flat), flat)


def test_histogram_equalize_uniform_is_near_identity():
    ramp = np.arange(256, dtype=np.uint8).reshape(16, 16)
    out = fusion.histogram_equalize(ramp)
    assert np.abs(out.astype(int) - ramp.astype(int)).max() <= 1


def test_roi_box_validation():
    box = RoiBox(2, 3, 4, 9, label=5)
    assert box.height == 3 and box.width == 7
    assert box.rows == slice(2, 5) and box.cols == slice(3, 10)
    with pytest.raises(ValidationError):
        RoiBox(3, 0, 2, 5)
    with pytest.raises(ValidationError):
        RoiBox(-1, 0, 2, 5)
    with pytest.raises(ValidationError):
        RoiBox(0, 0, 1, 1, label=6)
    with pytest.raises(ValidationError):
        RoiBox(0, 0, 4, 4).validate(4, 10)
    RoiBox(0, 0, 4, 4).validate(5, 5)


def test_build_training_target_embeds_average():
    thermal = np.full((6, 6), 100, dtype=np.uint8)
    optical = np.full((6, 6), 51, dtype=np.uint8)
    box = RoiBox(1, 2, 3, 4)
    target = fusion.build_training_target(thermal, optical, [box])
    assert target.dtype == np.uint8
    inside = target[1:4, 2:5]
    assert np.all(inside == 76)  # (100+51+1)//2
    outside = target.copy()
    outside[1:4, 2:5] = 100
    assert np.array_equal(outside, np.full((6, 6), 100, dtype=np.uint8))


def test_build_training_target_overlapping_boxes_idempotent():
    rng = np.random.default_rng(3)
    thermal = rng.integers(0, 256, size=(10, 10), dtype=np.uint8)
    optical = rng.integers(0, 256, size=(10, 10), dtype=np.uint8)
    boxes = [RoiBox(0, 0, 5, 5), RoiBox(3, 3, 8, 8)]
    once = fusion.build_training_target(thermal, optical, boxes)
    twice = fusion.build_training_target(thermal, optical, boxes + boxes)
    assert np.array_equal(once, twice)
    # overlap region equals the plain average, not a double average
    assert np.array_equal(once[3:6, 3:6], fusion.average_fuse(thermal, optical)[3:6, 3:6])


def test_build_training_target_validates_before_writing():
    thermal = np.zeros((4, 4), dtype=np.uint8)
    optical = np.ones((4, 4), dtype=np.uint8)
    with pytest.raises(ValidationError):
        fusion.build_training_target(thermal, optical, [RoiBox(0, 0, 9, 9)])


def test_resize_bilinear_identity_and_constants():
    rng = np.random.default_rng(8)
    img = rng.uniform(0, 255, size=(7, 9))
    same = fusion.resize_bilinear(img, 7, 9)
    assert np.allclose(same, img, atol=1e-12)
    assert not np.shares_memory(same, img)
    up = fusion.resize_bilinear(np.full((3, 3), 42.0), 10, 6)
    assert np.allclose(up, 42.0)
    with pytest.raises(ShapeError):
        fusion.resize_bilinear(img, 0, 5)


def test_resize_bilinear_hand_case():
    # doubling a 2x2 with half-pixel centers: corners keep source values,
    # interior interpolates at quarter offsets
    img = np.array([[0.0, 4.0], [8.0, 12.0]])
    out = fusion.resize_bilinear(img, 4, 4)
    assert out[0, 0] == 0.0 and out[3, 3] == 12.0
    assert out[0, 3] == 4.0 and out[3, 0] == 8.0
    # out[1,1] samples source (0.25, 0.25): weights 0.75/0.25 per axis
    want = 0.5625 * 0.0 + 0.1875 * 4.0 + 0.1875 * 8.0 + 0.0625 * 12.0
    assert out[1, 1] == pytest.approx(want, abs=1e-12)
    # middle rows sit 1/4 and 3/4 of the way between the source rows
    assert np.allclose(out[:, 0], [0.0, 2.0, 6.0, 8.0])
    assert np.allclose(out[0, :], [0.0, 1.0, 3.0, 4.0])


@given(st.data())
def test_resample_windows_equal_resize_bilinear(data):
    # Each window of the batched pass, bit for bit as resize_bilinear on
    # that window alone, in every image; some windows equal the output size.
    height = data.draw(st.integers(1, 60), label="height")
    width = data.draw(st.integers(1, 60), label="width")
    out_h = data.draw(st.integers(1, 40), label="out_h")
    out_w = data.draw(st.integers(1, 40), label="out_w")
    windows = data.draw(st.lists(st.tuples(
        st.integers(0, height - 1), st.integers(0, width - 1),
        st.integers(1, height), st.integers(1, width),
    ), min_size=1, max_size=6), label="windows")
    windows = [(r0, c0, min(h, height - r0), min(w, width - c0)) for r0, c0, h, w in windows]
    if data.draw(st.booleans(), label="one window of the output size"):
        out_h, out_w = windows[0][2], windows[0][3]
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16), label="seed"))
    images = (
        rng.integers(0, 256, size=(height, width), dtype=np.uint8),
        rng.uniform(-50.0, 300.0, size=(height, width)),
    )
    geometry = np.array(windows).T
    outputs = fusion.resample_windows(images, geometry[0::2], geometry[1::2], out_h, out_w)
    for image, out in zip(images, outputs):
        assert out.dtype == np.float64 and out.shape == (len(windows), out_h, out_w)
        for k, (r0, c0, h, w) in enumerate(windows):
            want = fusion.resize_bilinear(image[r0 : r0 + h, c0 : c0 + w], out_h, out_w)
            assert np.array_equal(out[k], want)


def textbook_bilinear(img, out_height, out_width):
    """The expression resize_bilinear evaluates, written out with np.ix_."""
    src = np.asarray(img, dtype=np.float64)
    h, w = src.shape
    ys = np.clip((np.arange(out_height) + 0.5) * (h / out_height) - 0.5, 0.0, h - 1.0)
    xs = np.clip((np.arange(out_width) + 0.5) * (w / out_width) - 0.5, 0.0, w - 1.0)
    y0, x0 = np.floor(ys).astype(np.intp), np.floor(xs).astype(np.intp)
    y1, x1 = np.minimum(y0 + 1, h - 1), np.minimum(x0 + 1, w - 1)
    wy, wx = (ys - y0)[:, None], (xs - x0)[None, :]
    top = src[np.ix_(y0, x0)] * (1.0 - wx) + src[np.ix_(y0, x1)] * wx
    bottom = src[np.ix_(y1, x0)] * (1.0 - wx) + src[np.ix_(y1, x1)] * wx
    return top * (1.0 - wy) + bottom * wy


def test_resize_bilinear_operation_order_is_pinned():
    # Output extents that are not powers of two give weights with many
    # bits, so any other order of the operations rounds differently. The
    # uint8 image, gathered as it is, gives the bits of its float64 copy.
    rng = np.random.default_rng(14)
    for img in (rng.integers(0, 256, size=(37, 53), dtype=np.uint8),
                rng.uniform(-1.0, 1.0, size=(41, 19))):
        for shape in ((23, 29), (60, 7), (3, 100), (37, 53)):
            assert np.array_equal(fusion.resize_bilinear(img, *shape),
                                  textbook_bilinear(img, *shape))


def test_resize_bilinear_preserves_range():
    rng = np.random.default_rng(12)
    img = rng.uniform(10, 20, size=(16, 16))
    out = fusion.resize_bilinear(img, 5, 40)
    assert out.min() >= 10.0 - 1e-12 and out.max() <= 20.0 + 1e-12


def test_compute_mask_and_full_pipeline():
    from thermofuse.model import ModelConfig, build_model

    model = build_model(ModelConfig(dwf=1, height=32, width=32), seed=2)
    rng = np.random.default_rng(30)
    thermal = rng.integers(0, 256, size=(32, 32), dtype=np.uint8)

    mask = fusion.compute_mask(model, thermal)
    assert mask.shape == (32, 32)
    assert mask.min() >= 0.0 and mask.max() <= 1.0
    # native extent means no resampling: matches a direct forward pass
    direct = model.forward(thermal.astype(np.float64) / 255.0)
    assert np.allclose(mask, np.clip(direct, 0.0, 1.0), atol=1e-12)

    # off-extent inputs come back at their own extent via resampling
    odd = rng.integers(0, 256, size=(48, 40), dtype=np.uint8)
    mask_odd = fusion.compute_mask(model, odd)
    assert mask_odd.shape == (48, 40)
    assert mask_odd.min() >= 0.0 and mask_odd.max() <= 1.0

    # the whole chain of public calls, as `infer` then `fuse --he` runs it
    fused = fusion.histogram_equalize(
        fusion.average_fuse(thermal, fusion.to_uint8(mask))
    )
    assert fused.shape == (32, 32)
    assert fused.dtype == np.uint8


@pytest.mark.parametrize("shape", [(0, 5), (5, 0), (0, 0)])
def test_empty_images_are_shape_errors(shape):
    from thermofuse.model import ModelConfig, build_model

    empty = np.zeros(shape, dtype=np.uint8)
    model = build_model(ModelConfig(dwf=1, height=32, width=32), seed=2)
    for run in (
        fusion.as_gray8,
        fusion.to_unit,
        fusion.histogram_equalize,
        lambda e: fusion.average_fuse(e, e),
        lambda e: fusion.build_training_target(e, e, []),
        lambda e: fusion.resize_bilinear(e.astype(np.float64), 4, 4),
        lambda e: fusion.compute_mask(model, e),
        lambda e: rof.compute_rof(e, e),
        lambda e: wavelet.rescale_for_display(e.astype(np.float64)),
    ):
        with pytest.raises(ShapeError):
            run(empty)


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_compute_mask_keeps_no_backward_caches():
    # Guard against inference growing training-time caches again: the
    # gradient-free pass must allocate at most a third of what a forward
    # that keeps every activation and layer cache does (about 0.12 here).
    from thermofuse.model import ModelConfig, build_model

    model = build_model(ModelConfig(dwf=1, height=256, width=256), seed=0)
    thermal = np.random.default_rng(31).integers(0, 256, size=(256, 256), dtype=np.uint8)
    inference = _traced_peak(lambda: fusion.compute_mask(model, thermal))
    caching = _traced_peak(
        lambda: model.forward(thermal / 255.0, training=False, grad=True)
    )
    assert inference <= caching / 3


def test_compute_mask_rejects_non_finite_output():
    from thermofuse.model import ModelConfig, build_model

    model = build_model(ModelConfig(dwf=1, height=32, width=32), seed=2)
    model.parameters()["output/conv/b"][...] = np.nan
    thermal = np.zeros((32, 32), dtype=np.uint8)
    with pytest.raises(ValidationError, match="mask stage"):
        fusion.compute_mask(model, thermal)
    with pytest.raises(ValidationError, match="mask stage"):
        fusion.compute_mask(model, np.zeros((40, 48), dtype=np.uint8))

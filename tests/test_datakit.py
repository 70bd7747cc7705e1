import json
import logging
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from thermofuse import FormatError, ShapeError, ThermofuseError, ValidationError
from thermofuse import datakit
from thermofuse.datakit import (
    read_annotations,
    read_pgm,
    random_crops,
    synth_pairs,
    write_annotations,
    write_pgm,
)
from thermofuse.fusion import CLASS_LABELS, RoiBox, build_training_target, resize_bilinear


def test_pgm_round_trip(tmp_path):
    rng = np.random.default_rng(4)
    img = rng.integers(0, 256, size=(13, 29), dtype=np.uint8)
    path = tmp_path / "img.pgm"
    write_pgm(img, path)
    assert np.array_equal(read_pgm(path), img)
    # writing the same grid again produces identical bytes
    again = tmp_path / "img2.pgm"
    write_pgm(read_pgm(path), again)
    assert path.read_bytes() == again.read_bytes()


def test_pgm_header_layout(tmp_path):
    path = tmp_path / "one.pgm"
    write_pgm(np.array([[200]], dtype=np.uint8), path)
    data = path.read_bytes()
    assert data == b"P5\n1 1\n255\n\xc8"
    assert len(data) == 12


def test_pgm_reader_accepts_comments_and_odd_whitespace(tmp_path):
    path = tmp_path / "c.pgm"
    path.write_bytes(b"P5 # binary\n# a comment line\n 2\t2 # extents\n255\n\x01\x02\x03\x04")
    img = read_pgm(path)
    assert img.tolist() == [[1, 2], [3, 4]]


def test_pgm_reader_allows_trailing_bytes(tmp_path):
    path = tmp_path / "t.pgm"
    path.write_bytes(b"P5\n2 1\n255\n\x09\x08junk")
    assert read_pgm(path).tolist() == [[9, 8]]


@pytest.mark.parametrize(
    "payload",
    [
        b"P2\n2 2\n255\n\x00\x00\x00\x00",  # ascii variant not supported
        b"P5\n2 2\n65535\n" + b"\x00" * 8,  # wide maxval
        b"P5\n0 2\n255\n",  # zero extent
        b"P5\n2 2\n255\n\x00\x00",  # short pixel data
        b"P5\n2 x\n255\n\x00\x00\x00\x00",  # non-numeric extent
        b"P5\n2 2\n255",  # nothing after maxval
        b"P5",  # header stops early
    ],
)
def test_pgm_reader_rejects_malformed(tmp_path, payload):
    path = tmp_path / "bad.pgm"
    path.write_bytes(payload)
    with pytest.raises(FormatError):
        read_pgm(path)


def test_write_pgm_writes_from_the_image_buffer(tmp_path):
    img = np.random.default_rng(5).integers(0, 256, size=(512, 512), dtype=np.uint8)
    path = tmp_path / "big.pgm"
    tracemalloc.start()
    try:
        write_pgm(img, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.05 * img.nbytes
    assert path.read_bytes() == b"P5\n512 512\n255\n" + img.tobytes()
    # a grid that is not C-contiguous is written in row order
    write_pgm(img.T, path)
    assert np.array_equal(read_pgm(path), img.T)


def test_write_pgm_requires_gray8(tmp_path):
    with pytest.raises(ValidationError):
        write_pgm(np.array([[300]]), tmp_path / "x.pgm")


def annotation_fixture(tmp_path, optical=True, boxes=None):
    rng = np.random.default_rng(0)
    thermal = rng.integers(0, 256, size=(40, 50), dtype=np.uint8)
    write_pgm(thermal, tmp_path / "t.pgm")
    record = {"thermal": "t.pgm"}
    if optical:
        write_pgm(255 - thermal, tmp_path / "o.pgm")
        record["optical"] = "o.pgm"
    if boxes is not None:
        record["boxes"] = boxes
    path = tmp_path / "ann.json"
    path.write_text(json.dumps([record]))
    return path, thermal


def test_read_annotations_full_record(tmp_path):
    boxes = [{"x0": 2, "y0": 3, "x1": 10, "y1": 12, "class": 3}]
    path, thermal = annotation_fixture(tmp_path, boxes=boxes)
    samples = read_annotations(path)
    assert len(samples) == 1
    sample = samples[0]
    assert sample.name == "t.pgm"
    assert np.array_equal(sample.thermal, thermal)
    assert np.array_equal(sample.optical, 255 - thermal)
    assert sample.boxes == [RoiBox(2, 3, 10, 12, label=3)]


def test_read_annotations_null_optical(tmp_path):
    path, _ = annotation_fixture(tmp_path, optical=False)
    sample = read_annotations(path)[0]
    assert sample.optical is None
    assert sample.boxes == []


def test_read_annotations_error_reports_record_index(tmp_path):
    good = {"thermal": "t.pgm"}
    bad = {"thermal": "missing.pgm"}
    write_pgm(np.zeros((8, 8), dtype=np.uint8), tmp_path / "t.pgm")
    path = tmp_path / "ann.json"
    path.write_text(json.dumps([good, bad]))
    with pytest.raises(ValidationError, match="annotation record 1"):
        read_annotations(path)


def test_read_annotations_box_errors(tmp_path):
    # second box exceeds the image: error names record and box position
    boxes = [
        {"x0": 0, "y0": 0, "x1": 5, "y1": 5, "class": 1},
        {"x0": 0, "y0": 0, "x1": 500, "y1": 5, "class": 1},
    ]
    path, _ = annotation_fixture(tmp_path, boxes=boxes)
    with pytest.raises(ValidationError, match=r"annotation record 0: box 1"):
        read_annotations(path)
    path.write_text(json.dumps([{"thermal": "t.pgm", "boxes": [{"x0": 0}]}]))
    with pytest.raises(ValidationError, match="box 0"):
        read_annotations(path)
    # box fields are JSON integers: no float, bool or string is coerced
    for key, value in (("x0", 1.9), ("y0", True), ("x1", "7")):
        box = {"x0": 0, "y0": 0, "x1": 5, "y1": 5, "class": 1, key: value}
        path, _ = annotation_fixture(tmp_path, boxes=[box])
        with pytest.raises(ValidationError, match=r"annotation record 0: box 0"):
            read_annotations(path)


def test_read_annotations_extent_mismatch(tmp_path):
    write_pgm(np.zeros((8, 8), dtype=np.uint8), tmp_path / "t.pgm")
    write_pgm(np.zeros((8, 9), dtype=np.uint8), tmp_path / "o.pgm")
    path = tmp_path / "ann.json"
    path.write_text(json.dumps([{"thermal": "t.pgm", "optical": "o.pgm"}]))
    with pytest.raises(ValidationError, match="extent"):
        read_annotations(path)


def test_read_annotations_rejects_non_array(tmp_path):
    path = tmp_path / "ann.json"
    path.write_text(json.dumps({"thermal": "t.pgm"}))
    with pytest.raises(ValidationError):
        read_annotations(path)


def test_read_annotations_rejects_non_utf8_file(tmp_path):
    path = tmp_path / "ann.json"
    path.write_bytes(b'[{"thermal": "\xff.pgm"}]')
    with pytest.raises(ValidationError, match="cannot read annotations"):
        read_annotations(path)


def test_read_annotations_rejects_deep_nesting(tmp_path):
    path = tmp_path / "ann.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    with pytest.raises(ValidationError, match="cannot read annotations"):
        read_annotations(path)


def test_read_annotations_rejects_infinite_coordinate(tmp_path):
    path, _ = annotation_fixture(tmp_path)
    path.write_text(
        '[{"thermal": "t.pgm", "boxes": '
        '[{"x0": 1e400, "y0": 0, "x1": 5, "y1": 5, "class": 1}]}]'
    )
    with pytest.raises(ValidationError, match=r"annotation record 0: box 0"):
        read_annotations(path)


def test_write_annotations_round_trip(tmp_path):
    samples = synth_pairs(2, 128, np.random.default_rng(6))
    samples.append(datakit.AnnotatedSample(samples[0].thermal, None, []))
    write_annotations(samples, tmp_path / "out")
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [
        "annotations.json",
        "optical_0000.pgm",
        "optical_0001.pgm",
        "thermal_0000.pgm",
        "thermal_0001.pgm",
        "thermal_0002.pgm",
    ]
    text = (tmp_path / "out" / "annotations.json").read_text(encoding="utf-8")
    assert text.endswith("]\n") and text.startswith('[\n  {\n    "thermal"')
    back = read_annotations(tmp_path / "out" / "annotations.json")
    assert [b.name for b in back] == ["thermal_0000.pgm", "thermal_0001.pgm", "thermal_0002.pgm"]
    for sample, read in zip(samples, back):
        assert np.array_equal(read.thermal, sample.thermal)
        assert (read.optical is None) == (sample.optical is None)
        if sample.optical is not None:
            assert np.array_equal(read.optical, sample.optical)
        assert read.boxes == sample.boxes


def make_sample(height=80, width=90, box=None, seed=1):
    rng = np.random.default_rng(seed)
    thermal = rng.integers(0, 256, size=(height, width), dtype=np.uint8)
    optical = rng.integers(0, 256, size=(height, width), dtype=np.uint8)
    boxes = [box] if box is not None else []
    return datakit.AnnotatedSample(thermal, optical, boxes, name="s")


def test_random_crops_counts_and_form():
    sample = make_sample(box=RoiBox(10, 12, 30, 40, label=2))
    pairs = random_crops(sample, per_box=6, rng=np.random.default_rng(5), crop_size=32)
    assert len(pairs) == 6
    for pair in pairs:
        assert pair.input.shape == (32, 32)
        assert pair.target.shape == (32, 32)
        assert 0.0 <= pair.input.min() and pair.input.max() <= 1.0
        assert 0.0 <= pair.target.min() and pair.target.max() <= 1.0
        # target differs from input exactly where the box got embedded
        assert not np.array_equal(pair.input, pair.target)


def test_random_crops_native_size_window_is_exact():
    # crop equal to the full image: resampling is the identity, so the
    # pair is just the normalized image and embedded target
    box = RoiBox(3, 4, 10, 11)
    sample = make_sample(height=32, width=32, box=box, seed=9)
    pairs = random_crops(sample, per_box=2, rng=np.random.default_rng(0), crop_size=32)
    want_target = build_training_target(sample.thermal, sample.optical, [box])
    for pair in pairs:
        assert np.allclose(pair.input, sample.thermal / 255.0, atol=1e-12)
        assert np.allclose(pair.target, want_target / 255.0, atol=1e-12)


def test_random_crops_unregistered_sample():
    sample = datakit.AnnotatedSample(
        np.zeros((40, 40), dtype=np.uint8), None, [RoiBox(0, 0, 5, 5)]
    )
    with pytest.raises(ValidationError, match="unregistered"):
        random_crops(sample, per_box=1, rng=np.random.default_rng(0), crop_size=32)


@pytest.mark.parametrize("crop_size", [0, -3])
def test_random_crops_rejects_non_positive_crop_size(crop_size):
    # Every box fits a window at these sizes, so each reaches the resampler,
    # which refuses the extents instead of dividing by zero or indexing with
    # a negative shape.
    sample = make_sample(box=RoiBox(10, 12, 30, 40))
    with pytest.raises(ShapeError, match="target extents must be positive"):
        random_crops(sample, per_box=2, rng=np.random.default_rng(0), crop_size=crop_size)


def test_random_crops_skips_oversized_box(caplog):
    # image smaller than any window containing the box at this crop size
    sample = make_sample(height=40, width=30, box=RoiBox(0, 0, 39, 29))
    sample.boxes.append(RoiBox(1, 1, 8, 8, label=4))
    with caplog.at_level(logging.WARNING, logger="thermofuse.datakit"):
        pairs = random_crops(
            sample, per_box=3, rng=np.random.default_rng(2), crop_size=48
        )
    assert len(pairs) == 0  # both skipped: neither fits a 48x48 window
    assert any("skip" in r.message for r in caplog.records)


def test_random_crops_deterministic():
    sample = make_sample(box=RoiBox(5, 5, 20, 20))
    a = random_crops(sample, per_box=4, rng=np.random.default_rng(3), crop_size=32)
    b = random_crops(sample, per_box=4, rng=np.random.default_rng(3), crop_size=32)
    for pa, pb in zip(a, b):
        assert np.array_equal(pa.input, pb.input)
        assert np.array_equal(pa.target, pb.target)


def per_window_crops(sample, per_box, rng, crop_size):
    """`random_crops` as one `resize_bilinear` call per window and image,
    with the same draws in the same order."""
    height, width = sample.thermal.shape
    pairs = []
    for box in sample.boxes:
        min_h, min_w = max(crop_size, box.height), max(crop_size, box.width)
        target = build_training_target(sample.thermal, sample.optical, [box])
        for _ in range(per_box):
            crop_h = int(rng.integers(min_h, height + 1))
            crop_w = int(rng.integers(min_w, width + 1))
            r0 = int(rng.integers(max(0, box.x1 - crop_h + 1), min(box.x0, height - crop_h) + 1))
            c0 = int(rng.integers(max(0, box.y1 - crop_w + 1), min(box.y0, width - crop_w) + 1))
            window = (slice(r0, r0 + crop_h), slice(c0, c0 + crop_w))
            pairs.append((
                resize_bilinear(sample.thermal[window], crop_size, crop_size) / 255.0,
                resize_bilinear(target[window], crop_size, crop_size) / 255.0,
            ))
    return pairs


@given(st.data())
def test_random_crops_equal_per_window_resize(data):
    # The batched pass against one resize per window, bit for bit: boxes
    # anywhere, boxes larger than the crop, windows equal to the crop.
    crop = data.draw(st.integers(8, 64), label="crop")
    # An image side equal to a crop of 32 or more forces that window side.
    side = st.one_of(st.just(max(32, crop)), st.integers(max(32, crop), 200))
    height = data.draw(side, label="height")
    width = data.draw(side, label="width")
    x0 = data.draw(st.integers(0, height - 1), label="x0")
    y0 = data.draw(st.integers(0, width - 1), label="y0")
    x1 = data.draw(st.integers(x0, height - 1), label="x1")
    y1 = data.draw(st.integers(y0, width - 1), label="y1")
    per_box = data.draw(st.integers(1, 8), label="per_box")
    seed = data.draw(st.integers(0, 2**16), label="seed")
    sample = make_sample(height, width, RoiBox(x0, y0, x1, y1), seed=seed)
    got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = random_crops(sample, per_box=per_box, rng=got_rng, crop_size=crop)
    want = per_window_crops(sample, per_box, want_rng, crop)
    assert len(got) == len(want) == per_box
    for pair, (want_input, want_target) in zip(got, want):
        assert pair.input.dtype == pair.target.dtype == np.float64
        assert np.array_equal(pair.input, want_input)
        assert np.array_equal(pair.target, want_target)
    # The same draws: both streams stand at the same place.
    assert got_rng.integers(2**62) == want_rng.integers(2**62)


def test_random_crops_memory_peak():
    # Gathers read the uint8 images by flat index, so besides the pairs
    # only two float64 arrays the size of one image's windows are held.
    sample = make_sample(256, 256, RoiBox(100, 110, 140, 150), seed=3)
    tracemalloc.start()
    try:
        pairs = random_crops(sample, per_box=16, rng=np.random.default_rng(1), crop_size=64)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    returned = sum(p.input.nbytes + p.target.nbytes for p in pairs)
    assert returned == 2 * 16 * 64 * 64 * 8
    assert peak <= 2.5 * returned


def test_synth_pairs_form_and_determinism():
    a = synth_pairs(3, extent=128, rng=np.random.default_rng(12))
    b = synth_pairs(3, extent=128, rng=np.random.default_rng(12))
    assert len(a) == 3
    for sa, sb in zip(a, b):
        assert np.array_equal(sa.thermal, sb.thermal)
        assert np.array_equal(sa.optical, sb.optical)
        assert sa.boxes == sb.boxes
    for sample in a:
        assert sample.thermal.shape == (128, 128)
        assert sample.thermal.dtype == np.uint8
        assert sample.optical.shape == (128, 128)
        assert 1 <= len(sample.boxes) <= 3
        for box in sample.boxes:
            box.validate(128, 128)
            assert box.label in CLASS_LABELS
            # annotated objects really differ between the two channels
            t_region = sample.thermal[box.rows, box.cols].astype(int)
            o_region = sample.optical[box.rows, box.cols].astype(int)
            assert np.abs(t_region - o_region).mean() > 10


def test_synth_pairs_extent_floor():
    with pytest.raises(ValidationError):
        synth_pairs(1, extent=64, rng=np.random.default_rng(0))


def test_synth_pairs_boxes_are_tight():
    # each box is the exact bounding rectangle of its object: the object
    # touches all four edges of the box
    samples = synth_pairs(4, extent=128, rng=np.random.default_rng(31))
    for sample in samples:
        for box in sample.boxes:
            region = sample.thermal[box.rows, box.cols].astype(int)
            background = np.median(sample.thermal)
            hot = np.abs(region - background) > 15
            if not hot.any():  # overlapping ellipse may shadow a box
                continue
            assert hot[0, :].any() or hot[-1, :].any()
            assert hot[:, 0].any() or hot[:, -1].any()


# -- property tests: every byte string parses or raises ThermofuseError ----

VALID_PGM = b"P5\n3 2\n255\n" + bytes(range(6))


@given(
    st.one_of(
        st.binary(max_size=64),
        st.binary(max_size=32).map(lambda tail: b"P5\n" + tail),
        st.tuples(st.integers(0, len(VALID_PGM)), st.binary(max_size=8)).map(
            lambda cut: VALID_PGM[: cut[0]] + cut[1]
        ),
    )
)
def test_read_pgm_any_bytes(tmp_path, data):
    path = tmp_path / "fuzz.pgm"
    path.write_bytes(data)
    try:
        image = read_pgm(path)
    except ThermofuseError:
        return
    assert image.dtype == np.uint8 and image.ndim == 2 and image.size >= 1


def read_pgm_reference(path) -> np.ndarray:
    """The byte-at-a-time tokenizer `read_pgm` replaced, kept as the
    reference for its grammar and its messages."""
    data = Path(path).read_bytes()
    pos = 0

    def token() -> bytes:
        nonlocal pos
        while pos < len(data):
            ch = data[pos : pos + 1]
            if ch == b"#":
                newline = data.find(b"\n", pos)
                pos = len(data) if newline < 0 else newline + 1
            elif ch.isspace():
                pos += 1
            else:
                break
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            if data[pos : pos + 1] == b"#":
                break
            pos += 1
        if start == pos:
            raise FormatError("truncated PGM header")
        return data[start:pos]

    magic = token()
    if magic != b"P5":
        raise FormatError(f"unsupported image magic {magic!r} (want binary P5)")
    try:
        width, height, maxval = (int(token()) for _ in range(3))
    except ValueError as exc:
        raise FormatError(f"malformed PGM header: {exc}") from None
    if width < 1 or height < 1:
        raise FormatError(f"invalid extents {width}x{height}")
    if maxval != 255:
        raise FormatError(f"unsupported maxval {maxval} (want 255)")
    if pos >= len(data) or not data[pos : pos + 1].isspace():
        raise FormatError("missing whitespace after PGM maxval")
    pos += 1
    if len(data) - pos < width * height:
        raise FormatError("truncated PGM pixel data")
    pixels = np.frombuffer(data, dtype=np.uint8, count=width * height, offset=pos)
    return pixels.reshape(height, width).copy()


def outcome(reader, path):
    """The image a reader returns, or its exception's type and message."""
    try:
        image = reader(path)
    except Exception as exc:  # noqa: BLE001 - every outcome is compared
        return type(exc), str(exc)
    return image.dtype, image.shape, image.tobytes()


# Header parts: every byte `bytes.isspace` accepts, comments that end at a
# newline or at the end of the file, numbers with signs, underscores and
# non-ASCII bytes, and tokens that are not numbers at all.
PGM_SPACE = st.sampled_from([b" ", b"\t", b"\n", b"\r", b"\x0b", b"\x0c"])
PGM_COMMENT = st.tuples(
    st.binary(max_size=6).map(lambda text: text.replace(b"\n", b"")), st.booleans()
).map(lambda c: b"#" + c[0] + (b"\n" if c[1] else b""))
PGM_GAP = st.lists(st.one_of(PGM_SPACE, PGM_COMMENT), max_size=3).map(b"".join)
PGM_NUMBER = st.one_of(
    st.integers(-2, 300).map(lambda n: str(n).encode()),
    st.sampled_from([b"+3", b"-0", b"1_0", b"_1", b"2_", b"1__0", b"+-1", b"0x10",
                     b"x", b"\xff", b"3\xe9", b"\xc2\xa0", b"\xd9\xa3"]),
)
PGM_HEADER = st.tuples(
    PGM_GAP,
    st.sampled_from([b"P5", b"P2", b"P6", b"P", b"P55"]),
    st.lists(st.tuples(PGM_GAP, PGM_NUMBER).map(b"".join), max_size=4).map(b"".join),
    PGM_GAP,
    st.binary(max_size=12),
).map(b"".join)


@given(
    st.one_of(
        PGM_HEADER,
        st.integers(0, len(VALID_PGM)).map(lambda n: VALID_PGM[:n]),
    )
)
def test_read_pgm_matches_the_reference_tokenizer(tmp_path, data):
    # The same array, or the same exception type and message, byte for byte.
    # Extents are converted as they are scanned, so "P5 x" is a malformed
    # number, not a truncated header.
    path = tmp_path / "fuzz.pgm"
    path.write_bytes(data)
    assert outcome(read_pgm, path) == outcome(read_pgm_reference, path)


COORDINATE = st.one_of(
    st.integers(-3, 20),
    st.integers(),
    st.floats(),
    st.text(max_size=4),
    st.none(),
    st.booleans(),
)
BOX = st.dictionaries(
    st.sampled_from(["x0", "y0", "x1", "y1", "class"]), COORDINATE
) | st.fixed_dictionaries({k: COORDINATE for k in ("x0", "y0", "x1", "y1", "class")})
PATH = st.sampled_from(["t.pgm", "o.pgm", "wide.pgm", "missing.pgm", "", 3, None])
RECORD = st.one_of(
    st.fixed_dictionaries(
        {"thermal": PATH},
        optional={"optical": PATH, "boxes": st.lists(BOX, max_size=3) | COORDINATE},
    ),
    COORDINATE,
)


@given(
    st.one_of(
        st.binary(max_size=64),
        st.lists(RECORD, max_size=3).map(lambda r: json.dumps(r).encode()),
        st.binary(max_size=32).map(lambda tail: b'[{"thermal": "t.pgm", ' + tail),
    )
)
def test_read_annotations_any_bytes(tmp_path, data):
    write_pgm(np.zeros((8, 8), dtype=np.uint8), tmp_path / "t.pgm")
    write_pgm(np.ones((8, 8), dtype=np.uint8), tmp_path / "o.pgm")
    write_pgm(np.ones((8, 9), dtype=np.uint8), tmp_path / "wide.pgm")
    path = tmp_path / "ann.json"
    path.write_bytes(data)
    try:
        samples = read_annotations(path)
    except ThermofuseError:
        return
    for sample in samples:
        for box in sample.boxes:
            box.validate(*sample.thermal.shape)

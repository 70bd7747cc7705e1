import struct
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from thermofuse import FormatError, ShapeError, ThermofuseError, ValidationError
from thermofuse import wavelet


def brute_level(x):
    """Reference one-level transform: explicit loop over 2x2 blocks."""
    h, w = x.shape
    ll = np.empty((h // 2, w // 2))
    hl = np.empty_like(ll)
    lh = np.empty_like(ll)
    hh = np.empty_like(ll)
    for i in range(h // 2):
        for j in range(w // 2):
            a, b = x[2 * i, 2 * j], x[2 * i, 2 * j + 1]
            c, d = x[2 * i + 1, 2 * j], x[2 * i + 1, 2 * j + 1]
            ll[i, j] = (a + b + c + d) / 2
            hl[i, j] = (a + c - b - d) / 2
            lh[i, j] = (a + b - c - d) / 2
            hh[i, j] = (a - b - c + d) / 2
    return ll, lh, hl, hh


def test_single_block_by_hand():
    x = np.array([[1.0, 2.0], [3.0, 4.0]])
    pyr = wavelet.dwt2_forward(x, levels=1)
    assert pyr.ll[0, 0] == pytest.approx(5.0)
    assert pyr.details[0].hl[0, 0] == pytest.approx(-1.0)
    assert pyr.details[0].lh[0, 0] == pytest.approx(-2.0)
    assert pyr.details[0].hh[0, 0] == pytest.approx(0.0)


def test_forward_matches_brute_force():
    rng = np.random.default_rng(11)
    for _ in range(4):
        x = rng.normal(size=(8, 12))
        pyr = wavelet.dwt2_forward(x, levels=1)
        ll, lh, hl, hh = brute_level(x)
        assert np.allclose(pyr.ll, ll, atol=1e-12)
        assert np.allclose(pyr.details[0].lh, lh, atol=1e-12)
        assert np.allclose(pyr.details[0].hl, hl, atol=1e-12)
        assert np.allclose(pyr.details[0].hh, hh, atol=1e-12)


def test_round_trip_and_energy():
    rng = np.random.default_rng(5)
    for levels in (1, 2):
        x = rng.uniform(size=(16, 24))
        pyr = wavelet.dwt2_forward(x, levels=levels)
        back = wavelet.dwt2_inverse(pyr)
        assert np.abs(back - x).max() < 1e-12
        # orthonormal: coefficient energy equals image energy
        energy = float((pyr.ll**2).sum())
        for bands in pyr.details:
            energy += float((bands.lh**2 + bands.hl**2 + bands.hh**2).sum())
        assert abs(energy - float((x**2).sum())) < 1e-10


def test_ll_range_doubles_per_level():
    x = np.ones((8, 8))
    one = wavelet.dwt2_forward(x, levels=1)
    assert np.allclose(one.ll, 2.0)
    assert np.allclose(one.details[0].hh, 0.0)
    two = wavelet.dwt2_forward(x, levels=2)
    assert np.allclose(two.ll, 4.0)


def test_unit_range_image_bounds():
    rng = np.random.default_rng(3)
    x = rng.uniform(size=(32, 32))
    two = wavelet.dwt2_forward(x, levels=2)
    assert two.ll.min() >= 0.0 and two.ll.max() <= 4.0
    one = wavelet.dwt2_forward(x, levels=1)
    assert one.ll.min() >= 0.0 and one.ll.max() <= 2.0
    # details are signed in general
    checkerboard = np.indices((8, 8)).sum(axis=0) % 2
    chk = wavelet.dwt2_forward(checkerboard.astype(float), levels=1)
    assert np.allclose(chk.details[0].hh, -1.0)
    stripes = np.tile([0.0, 1.0], (8, 4))
    assert np.allclose(wavelet.dwt2_forward(stripes, levels=1).details[0].hl, -1.0)


def test_forward_shape_validation():
    with pytest.raises(ShapeError):
        wavelet.dwt2_forward(np.ones((6, 6)), levels=2)
    with pytest.raises(ShapeError):
        wavelet.dwt2_forward(np.ones((7, 8)), levels=1)
    with pytest.raises(ShapeError):
        wavelet.dwt2_forward(np.ones((8, 8)), levels=3)
    with pytest.raises(ShapeError):
        wavelet.dwt2_forward(np.ones((8, 8, 1)), levels=1)


def test_tile_layout_places_quadrants():
    rng = np.random.default_rng(21)
    x = rng.normal(size=(16, 16))
    pyr = wavelet.dwt2_forward(x, levels=2)
    plane = wavelet.tile_layout(pyr)
    assert plane.shape == (16, 16)
    # quadrant placement: deepest LL top-left, level-1 HH bottom-right
    assert np.array_equal(plane[:4, :4], pyr.ll)
    assert np.array_equal(plane[:4, 4:8], pyr.details[1].hl)
    assert np.array_equal(plane[4:8, :4], pyr.details[1].lh)
    assert np.array_equal(plane[4:8, 4:8], pyr.details[1].hh)
    assert np.array_equal(plane[:8, 8:], pyr.details[0].hl)
    assert np.array_equal(plane[8:, :8], pyr.details[0].lh)
    assert np.array_equal(plane[8:, 8:], pyr.details[0].hh)


def test_tile_rejects_one_level_and_non_square():
    pyr = wavelet.dwt2_forward(np.ones((8, 8)), levels=1)
    with pytest.raises(ShapeError):
        wavelet.tile_layout(pyr)
    rect = wavelet.dwt2_forward(np.ones((8, 16)), levels=2)
    with pytest.raises(ShapeError):
        wavelet.tile_layout(rect)


def test_coeff_plane_io(tmp_path):
    rng = np.random.default_rng(2)
    plane = rng.normal(size=(5, 9))
    path = tmp_path / "p.coef"
    wavelet.write_coeff_plane(plane, path)
    assert path.stat().st_size == 8 + 8 * 5 * 9
    back = wavelet.read_coeff_plane(path)
    assert np.array_equal(back, plane)


@pytest.mark.parametrize(
    "layout",
    ["float64", "fortran", "strided", "float32", "big-endian"],
)
def test_coeff_plane_bytes_do_not_depend_on_layout(tmp_path, layout):
    # The file holds u32le extents and the plane as f64le, row-major,
    # whatever the dtype, byte order or memory order of the array given.
    plane = np.random.default_rng(3).normal(size=(6, 10))
    given_plane = {
        "float64": plane,
        "fortran": np.asfortranarray(plane),
        "strided": np.repeat(plane, 2, axis=1)[:, ::2],
        "float32": plane.astype(np.float32),
        "big-endian": plane.astype(">f8"),
    }[layout]
    path = tmp_path / "p.coef"
    wavelet.write_coeff_plane(given_plane, path)
    want = np.asarray(given_plane, dtype=np.float64)
    assert path.stat().st_size == 8 + 8 * want.size
    assert path.read_bytes() == struct.pack("<II", 6, 10) + want.astype("<f8").tobytes()
    assert np.array_equal(wavelet.read_coeff_plane(path), want)


def test_coeff_plane_write_makes_no_copy(tmp_path):
    plane = np.random.default_rng(4).normal(size=(256, 256))
    tracemalloc.start()
    try:
        wavelet.write_coeff_plane(plane, tmp_path / "p.coef")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.05 * plane.nbytes


def test_coeff_plane_read_goes_straight_into_the_array(tmp_path):
    plane = np.random.default_rng(5).normal(size=(256, 256))
    path = tmp_path / "p.coef"
    wavelet.write_coeff_plane(plane, path)
    tracemalloc.start()
    try:
        back = wavelet.read_coeff_plane(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * plane.nbytes
    assert back.dtype == np.float64 and back.flags.writeable
    assert np.array_equal(back.view(np.uint64), plane.view(np.uint64))


def test_coeff_plane_short_read_is_a_format_error(tmp_path, monkeypatch):
    # The file shrinks between the size check and the read.
    path = tmp_path / "p.coef"
    wavelet.write_coeff_plane(np.ones((3, 3)), path)
    path.write_bytes(path.read_bytes()[:-8])
    claimed = SimpleNamespace(st_size=8 + 8 * 9)
    monkeypatch.setattr(wavelet, "os", SimpleNamespace(fstat=lambda fd: claimed))
    with pytest.raises(FormatError, match="truncated coefficient payload"):
        wavelet.read_coeff_plane(path)


def test_coeff_plane_read_errors(tmp_path):
    path = tmp_path / "p.coef"
    wavelet.write_coeff_plane(np.ones((3, 3)), path)
    data = path.read_bytes()

    short = tmp_path / "short.coef"
    short.write_bytes(data[:-4])
    with pytest.raises(FormatError):
        wavelet.read_coeff_plane(short)

    long = tmp_path / "long.coef"
    long.write_bytes(data + b"\x00")
    with pytest.raises(FormatError):
        wavelet.read_coeff_plane(long)

    stub = tmp_path / "stub.coef"
    stub.write_bytes(data[:5])
    with pytest.raises(FormatError):
        wavelet.read_coeff_plane(stub)


@pytest.mark.parametrize("h, w", [(0xFFFFFFFF, 0xFFFFFFFF), (2, 0xB0000002)])
def test_coeff_plane_huge_extents(tmp_path, h, w):
    path = tmp_path / "huge.coef"
    path.write_bytes(struct.pack("<II", h, w) + b"\x00" * 4)
    with pytest.raises(FormatError, match="truncated"):
        wavelet.read_coeff_plane(path)


VALID_COEF = struct.pack("<II", 2, 2) + np.arange(4, dtype="<f8").tobytes()


@given(
    st.one_of(
        st.binary(max_size=64),
        st.tuples(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1)).map(
            lambda hw: struct.pack("<II", *hw) + bytes(16)
        ),
        st.tuples(st.integers(0, 40), st.binary(max_size=9)).map(
            lambda cut: VALID_COEF[: cut[0]] + cut[1]
        ),
    )
)
def test_read_coeff_plane_any_bytes(tmp_path, data):
    path = tmp_path / "fuzz.coef"
    path.write_bytes(data)
    try:
        plane = wavelet.read_coeff_plane(path)
    except ThermofuseError:
        return
    assert 8 + 8 * plane.size == len(data)


def test_rescale_for_display():
    plane = np.array([[-1.0, 0.0], [1.0, 3.0]])
    img = wavelet.rescale_for_display(plane)
    assert img.dtype == np.uint8
    assert img[0, 0] == 0 and img[1, 1] == 255
    assert img[1, 0] == 128  # (1-(-1))/4*255 = 127.5, rounds half up
    assert np.array_equal(
        wavelet.rescale_for_display(np.full((2, 2), 3.0)), np.zeros((2, 2), np.uint8)
    )


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_rescale_for_display_rejects_non_finite(bad):
    plane = np.array([[-1.0, 0.0], [1.0, 3.0]])
    plane[0, 1] = bad
    with pytest.raises(ValidationError, match="non-finite"):
        wavelet.rescale_for_display(plane)

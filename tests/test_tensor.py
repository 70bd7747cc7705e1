import numpy as np
import pytest

from thermofuse import ShapeError
from thermofuse import tensor


def test_concat_rows_and_cols_unbatched():
    a = np.arange(6.0).reshape(2, 3)
    b = np.arange(6.0, 12.0).reshape(2, 3)
    rows = tensor.concat(a, b, axis=1)
    assert rows.shape == (4, 3)
    assert np.array_equal(rows[:2], a) and np.array_equal(rows[2:], b)
    cols = tensor.concat(a, b, axis=2)
    assert cols.shape == (2, 6)
    assert np.array_equal(cols[:, 3:], b)


def test_concat_channels_rank3_and_rank4():
    a = np.ones((2, 2, 3))
    b = np.zeros((2, 2, 1))
    out = tensor.concat(a, b, axis=3)
    assert out.shape == (2, 2, 4)
    assert np.array_equal(out[..., 3], np.zeros((2, 2)))

    # rank 4 is batch-leading: table axis 3 is the numpy channel axis too
    a4 = np.ones((5, 2, 2, 3))
    b4 = np.zeros((5, 2, 2, 1))
    out4 = tensor.concat(a4, b4, axis=3)
    assert out4.shape == (5, 2, 2, 4)
    rows4 = tensor.concat(a4, a4, axis=1)
    assert rows4.shape == (5, 4, 2, 3)


def test_concat_rejects_mismatches():
    with pytest.raises(ShapeError):
        tensor.concat(np.ones((2, 3)), np.ones((2, 3, 1)), axis=1)
    with pytest.raises(ShapeError):
        tensor.concat(np.ones((2, 3)), np.ones((3, 4)), axis=1)
    with pytest.raises(ShapeError):
        tensor.concat(np.ones((2, 3)), np.ones((2, 3)), axis=0)
    with pytest.raises(ShapeError):
        tensor.concat(np.ones((2, 3)), np.ones((2, 3)), axis=3)
    with pytest.raises(ShapeError):
        tensor.concat(np.ones((2, 0)), np.ones((2, 0)), axis=1)


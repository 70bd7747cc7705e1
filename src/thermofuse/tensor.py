"""Dense array primitives every other module builds on.

Tensors are plain ``numpy.ndarray`` values in float64, row-major. Images
are height x width (x channels); batched activations prepend the batch
axis. Axis numbering in the public operations follows the network-table
convention: axis 1 = rows, axis 2 = columns, axis 3 = channels, with the
batch axis (when present) at position 0. Concretely, for arrays of rank
<= 3 the public axis k maps to numpy axis k - 1; rank-4 arrays are taken
to be batch-leading and the axis maps through unchanged.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeError

Tensor = np.ndarray


def _numpy_axis(t: Tensor, axis: int) -> int:
    if t.ndim == 4:
        if not 1 <= axis <= 3:
            raise ShapeError(f"axis must be in 1..3 for batched tensors, got {axis}")
        return axis
    if not 1 <= axis <= t.ndim:
        raise ShapeError(f"axis must be in 1..{t.ndim} for rank-{t.ndim} tensors, got {axis}")
    return axis - 1


def concat(a: Tensor, b: Tensor, axis: int) -> Tensor:
    """Join two tensors along `axis` (table convention, see module docstring).

    All extents other than the one on `axis` must match, and every extent
    must be >= 1 (no empty operands).
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.ndim != b.ndim:
        raise ShapeError(f"concat rank mismatch: {a.shape} vs {b.shape}")
    if min(a.shape, default=0) < 1 or min(b.shape, default=0) < 1:
        raise ShapeError("concat operands must have all extents >= 1")
    np_axis = _numpy_axis(a, axis)
    for d in range(a.ndim):
        if d != np_axis and a.shape[d] != b.shape[d]:
            raise ShapeError(
                f"concat extent mismatch on axis {d}: {a.shape} vs {b.shape}"
            )
    return np.concatenate([a, b], axis=np_axis)


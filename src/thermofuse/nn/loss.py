"""Log-cosh loss.

Mean over elements of log(cosh(pred - target)), evaluated in the stable
form |x| + log1p(exp(-2|x|)) - log(2) so large residuals neither overflow
nor lose the x - log(2) tail behaviour; near zero the value is x^2/2.
"""

from __future__ import annotations

import numpy as np

from ..errors import ShapeError
from .layers import _floating

_LOG2 = float(np.log(2.0))


def logcosh_loss(pred, target) -> tuple[float, np.ndarray]:
    """Return (mean log-cosh of the residual, gradient w.r.t. pred).

    The gradient is tanh(pred - target) / n where n is the element count.
    Both are computed in the dtype of a floating `pred` (float64 otherwise);
    `target` is cast to it.
    """
    pred = _floating(pred)
    target = np.asarray(target, dtype=pred.dtype)
    if pred.shape != target.shape:
        raise ShapeError(f"shape mismatch: {pred.shape} vs {target.shape}")
    x = pred - target
    ax = np.abs(x)
    per_element = ax + np.log1p(np.exp(-2.0 * ax)) - _LOG2
    loss = float(per_element.mean())
    grad = np.tanh(x) / x.size
    return loss, grad

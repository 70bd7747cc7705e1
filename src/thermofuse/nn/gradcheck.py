"""Central finite-difference checks of analytic backward passes.

A layer is probed through the scalar objective f = sum(forward(x) * R)
with a fixed random projection R, so every output element contributes with
its own weight; the analytic gradients from backward(R) are compared
element by element against (f(.+h) - f(.-h)) / 2h with h = 1e-5. R is
drawn from a generator seeded with 0, so a check is reproducible. The
forward pass must be a deterministic function of its input: no dropout in
training mode. Batch normalization qualifies in either mode, with frozen
running statistics (training=False) or with batch statistics
(training=True).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

_DENOM_FLOOR = 1e-8
_H = 1e-5
_TOLERANCE = 1e-4


@dataclass
class GradCheckEntry:
    block: str
    max_rel_err: float


@dataclass
class GradCheckReport:
    tolerance: float
    entries: list[GradCheckEntry] = field(default_factory=list)

    @property
    def max_rel_err(self) -> float:
        return max((e.max_rel_err for e in self.entries), default=0.0)

    @property
    def passed(self) -> bool:
        return all(e.max_rel_err <= self.tolerance for e in self.entries)

    def __str__(self) -> str:
        lines = [
            f"{'ok' if e.max_rel_err <= self.tolerance else 'FAIL'} "
            f"{e.block}: max rel err {e.max_rel_err:.3e}"
            for e in self.entries
        ]
        return "\n".join(lines)


def _rel_err(analytic: float, numeric: float) -> float:
    diff = abs(analytic - numeric)
    denom = max(abs(analytic), abs(numeric))
    if denom < _DENOM_FLOOR:
        return diff
    return diff / denom


def _max_rel_err_block(arr: np.ndarray, analytic: np.ndarray, f) -> float:
    worst = 0.0
    flat = arr.reshape(-1)
    ana = analytic.reshape(-1)
    for i in range(flat.size):
        old = flat[i]
        flat[i] = old + _H
        fp = f()
        flat[i] = old - _H
        fm = f()
        flat[i] = old
        numeric = (fp - fm) / (2.0 * _H)
        worst = max(worst, _rel_err(float(ana[i]), numeric))
    return worst


def gradient_check(
    layer, x, tolerance: float = _TOLERANCE, training: bool = False
) -> GradCheckReport:
    """Check a layer's backward against central differences.

    Probes the input and every parameter block; returns a report naming
    the worst relative error per block.
    """
    x = np.array(x, dtype=np.float64)
    y0 = layer.forward(x, training=training)
    projection = np.random.default_rng(0).standard_normal(y0.shape)

    def objective() -> float:
        return float(np.sum(layer.forward(x, training=training) * projection))

    dx = layer.backward(projection)
    param_grads = {name: layer.grads[name].copy() for name in layer.params}

    report = GradCheckReport(tolerance=tolerance)
    report.entries.append(
        GradCheckEntry("input", _max_rel_err_block(x, np.asarray(dx), objective))
    )
    for name, p in layer.params.items():
        report.entries.append(
            GradCheckEntry(name, _max_rel_err_block(p, param_grads[name], objective))
        )
    return report


def gradient_check_fn(fn, x) -> GradCheckReport:
    """Check a scalar function `fn(x) -> (value, grad)` the same way, at
    the default tolerance."""
    x = np.array(x, dtype=np.float64)
    _, grad = fn(x)
    grad = np.array(grad, dtype=np.float64)

    def objective() -> float:
        return float(fn(x)[0])

    report = GradCheckReport(tolerance=_TOLERANCE)
    report.entries.append(
        GradCheckEntry("input", _max_rel_err_block(x, grad, objective))
    )
    return report

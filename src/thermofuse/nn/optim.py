"""Adaptive-moment optimizer with bias-corrected moving averages.

BETA1 = 0.9 and BETA2 = 0.999 weight the first/second moment averages and
EPS = 1e-8 guards the step's denominator: the published defaults (Kingma
& Ba, arXiv 1412.6980), fixed because the training recipe uses no others;
only the learning rate is a setting. Both moments are stored directly in
bias-corrected form through the equivalent recurrence

    m <- m + c_t * (g - m),      c_t = (1 - BETA1) / (1 - BETA1^t)

whose mixing weights sum to one by construction (same real value as
dividing the plain moving average by 1 - BETA1^t, but the step-1
correction is exact: c_1 == 1.0, so the corrected first moment equals the
gradient bit-for-bit). The parameter step is lr * m / (sqrt(v) + EPS).
"""

from __future__ import annotations

import numpy as np

from ..errors import StateError, ThermofuseError

# Bytes per scratch row, one chunk of the update loop: a chunk of p, g, m,
# v and the two scratch rows stays in cache across the update's twelve
# ufunc passes. 32 K float32 values or 16 K float64 values.
_CHUNK_BYTES = 1 << 17

BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


class NonFiniteGradientError(ThermofuseError):
    """Raised when an update is rejected because gradients contain NaN/inf.

    `where`, if given, says which update it was (" at epoch 1, ...")."""

    def __init__(self, blocks: list[str], where: str = ""):
        self.blocks = blocks
        super().__init__(
            f"update rejected{where}, non-finite gradient in: " + ", ".join(blocks)
        )


class Adam:
    def __init__(self, lr: float = 1e-3):
        self.lr = lr
        self.step_count = 0
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}
        # Two rows of _CHUNK_BYTES: the temporaries of one chunk's update.
        self._scratch: np.ndarray | None = None

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]) -> None:
        """Update `params` in place from `grads` (matching keys required).

        The whole update is rejected, with the offending parameter blocks
        named, if any gradient contains a non-finite value; no state
        changes in that case, nor when the gradients' names or shapes differ
        from the parameters' (StateError), nor when a parameter is not
        C-contiguous (parameters are updated through flat views).
        """
        mismatch = [f"missing {name!r}" for name in params if name not in grads]
        mismatch += [f"unexpected {name!r}" for name in grads if name not in params]
        mismatch += [
            f"{name!r} has shape {np.shape(grads[name])}, parameter {p.shape}"
            for name, p in params.items()
            if name in grads and np.shape(grads[name]) != p.shape
        ]
        if mismatch:
            raise StateError("gradients do not match the parameters: " + "; ".join(mismatch))
        bad = [name for name, g in grads.items() if not np.isfinite(g).all()]
        if bad:
            raise NonFiniteGradientError(bad)
        loose = [name for name, p in params.items() if not p.flags.c_contiguous]
        if loose:
            raise StateError("parameters are not C-contiguous: " + ", ".join(loose))
        self.step_count += 1
        t = self.step_count
        c1 = (1.0 - BETA1) / (1.0 - BETA1**t)
        c2 = (1.0 - BETA2) / (1.0 - BETA2**t)
        for name, p in params.items():
            m = self.m.get(name)
            if m is None:
                # np.zeros can take zeroed pages from the allocator (calloc);
                # np.zeros_like writes every byte.
                m = self.m[name] = np.zeros(p.shape, p.dtype)
                self.v[name] = np.zeros(p.shape, p.dtype)
            if self._scratch is None or self._scratch.dtype != p.dtype:
                self._scratch = np.empty((2, _CHUNK_BYTES // p.itemsize), dtype=p.dtype)
            chunk = self._scratch.shape[1]
            flat = [a.reshape(-1) for a in (p, grads[name], m, self.v[name])]
            for lo in range(0, p.size, chunk):
                self._update(*(a[lo : lo + chunk] for a in flat), c1, c2)

    def _update(self, p, g, m, v, c1, c2) -> None:
        """One chunk of the update, in the operation order of

            m += c1 * (g - m);  v += c2 * (g * g - v)
            p -= lr * m / (sqrt(v) + EPS)

        through the scratch rows, so the results are bit-identical to
        those expressions and nothing is allocated."""
        s, u = self._scratch[0, : p.size], self._scratch[1, : p.size]
        np.subtract(g, m, out=s)
        s *= c1
        m += s
        np.multiply(g, g, out=s)
        s -= v
        s *= c2
        v += s
        np.multiply(m, self.lr, out=u)
        np.sqrt(v, out=s)
        s += EPS
        np.divide(u, s, out=s)
        p -= s

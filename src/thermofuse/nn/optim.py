"""Adaptive-moment optimizer with bias-corrected moving averages.

beta1 = 0.9 and beta2 = 0.999 weight the first/second moment averages;
both are stored directly in bias-corrected form through the equivalent
recurrence

    m <- m + c_t * (g - m),      c_t = (1 - beta1) / (1 - beta1^t)

whose mixing weights sum to one by construction (same real value as
dividing the plain moving average by 1 - beta1^t, but the step-1
correction is exact: c_1 == 1.0, so the corrected first moment equals the
gradient bit-for-bit). The parameter step is lr * m / (sqrt(v) + eps).
"""

from __future__ import annotations

import numpy as np

from ..errors import StateError, ThermofuseError

# Values per pass of the update loop: a chunk of p, g, m, v and the two
# scratch rows stays in cache across the update's twelve ufunc passes.
_CHUNK = 1 << 14


class NonFiniteGradientError(ThermofuseError):
    """Raised when an update is rejected because gradients contain NaN/inf."""

    def __init__(self, blocks: list[str]):
        self.blocks = blocks
        super().__init__(
            "update rejected, non-finite gradient in: " + ", ".join(blocks)
        )


class Adam:
    def __init__(
        self,
        lr: float = 1e-3,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step_count = 0
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}
        # Two rows of _CHUNK values: the temporaries of one chunk's update.
        self._scratch: np.ndarray | None = None

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]) -> None:
        """Update `params` in place from `grads` (matching keys required).

        The whole update is rejected, with the offending parameter blocks
        named, if any gradient contains a non-finite value; no state
        changes in that case, nor when a parameter is not C-contiguous
        (parameters are updated through flat views).
        """
        bad = [name for name, g in grads.items() if not np.isfinite(g).all()]
        if bad:
            raise NonFiniteGradientError(bad)
        loose = [name for name, p in params.items() if not p.flags.c_contiguous]
        if loose:
            raise StateError("parameters are not C-contiguous: " + ", ".join(loose))
        self.step_count += 1
        t = self.step_count
        c1 = (1.0 - self.beta1) / (1.0 - self.beta1**t)
        c2 = (1.0 - self.beta2) / (1.0 - self.beta2**t)
        for name, p in params.items():
            m = self.m.get(name)
            if m is None:
                m = self.m[name] = np.zeros_like(p)
                self.v[name] = np.zeros_like(p)
            if self._scratch is None or self._scratch.dtype != p.dtype:
                self._scratch = np.empty((2, _CHUNK), dtype=p.dtype)
            flat = [a.reshape(-1) for a in (p, grads[name], m, self.v[name])]
            for lo in range(0, p.size, _CHUNK):
                self._update(*(a[lo : lo + _CHUNK] for a in flat), c1, c2)

    def _update(self, p, g, m, v, c1, c2) -> None:
        """One chunk of the update, in the operation order of

            m += c1 * (g - m);  v += c2 * (g * g - v)
            p -= lr * m / (sqrt(v) + eps)

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
        s += self.eps
        np.divide(u, s, out=s)
        p -= s

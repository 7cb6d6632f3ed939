"""Adam with bias correction and an optional global-norm gradient clip."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from mtss.diffnum.tape import Tensor

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


class DivergenceError(FloatingPointError):
    """Non-finite gradient seen by the optimizer, the training divergence signal."""


class Adam:
    """Bias-corrected Adam over a fixed parameter list. Its state is the
    moment buffers ``m`` and ``v`` (one per parameter) and ``step_count``."""

    def __init__(self, params: Sequence[Tensor], lr: float = 0.005, clip_norm: float | None = None):
        self.params = list(params)
        self.lr = lr
        self.clip_norm = clip_norm
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]
        self.step_count = 0
        # One scratch buffer the size of the largest parameter, viewed at
        # each parameter's shape, keeps a step allocation-free; a clipped
        # step scales each gradient in turn into a second one.
        self._scratch = self._views()
        self._clipped = self._views() if clip_norm is not None else None

    def _views(self) -> list[np.ndarray]:
        buffer = np.empty(max((p.data.size for p in self.params), default=0))
        return [buffer[:p.data.size].reshape(p.data.shape) for p in self.params]

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None

    def step(self) -> None:
        """One update, in place, from each parameter's ``grad`` (None counts
        as zero). A non-finite gradient raises before any parameter moves."""
        grads = [p.grad if p.grad is not None else np.broadcast_to(0.0, p.data.shape)
                 for p in self.params]
        for i, g in enumerate(grads):
            if not np.isfinite(g).all():
                raise DivergenceError(f"non-finite gradient for parameter {i}")
        factor = None
        if self.clip_norm is not None:
            squares = 0.0
            for g, t in zip(grads, self._scratch):
                np.multiply(g, g, out=t)
                squares += float(t.sum())
            total = float(np.sqrt(squares))
            if total > self.clip_norm > 0:
                factor = self.clip_norm / total
        self.step_count += 1
        bc1 = 1.0 - BETA1 ** self.step_count
        bc2 = 1.0 - BETA2 ** self.step_count
        for i, (p, g, m, v, t) in enumerate(zip(self.params, grads, self.m, self.v, self._scratch)):
            if factor is not None:
                g = np.multiply(g, factor, out=self._clipped[i])
            m *= BETA1
            np.multiply(g, 1.0 - BETA1, out=t)
            m += t
            v *= BETA2
            np.multiply(g, g, out=t)
            t *= 1.0 - BETA2
            v += t
            np.divide(v, bc2, out=t)
            np.sqrt(t, out=t)
            t += EPS
            np.divide(m, t, out=t)
            t *= self.lr / bc1
            p.data -= t

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
        if lr < 0:
            raise ValueError("learning rate must be non-negative")
        self.params = list(params)
        self.lr = lr
        self.clip_norm = clip_norm
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]
        self.step_count = 0
        # Scratch buffers keep the update allocation-free on the hot path.
        self._scratch = [np.empty_like(p.data) for p in self.params]

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None

    def step(self) -> None:
        """One update, in place, from each parameter's ``grad`` (None counts as zero)."""
        grads = [p.grad if p.grad is not None else np.zeros_like(p.data) for p in self.params]
        if self.clip_norm is not None:
            total = float(np.sqrt(sum(float((g * g).sum()) for g in grads)))
            if total > self.clip_norm > 0:
                factor = self.clip_norm / total
                grads = [g * factor for g in grads]
        for i, g in enumerate(grads):
            if not np.isfinite(g).all():
                raise DivergenceError(f"non-finite gradient for parameter {i}")
        self.step_count += 1
        bc1 = 1.0 - BETA1 ** self.step_count
        bc2 = 1.0 - BETA2 ** self.step_count
        for p, g, m, v, t in zip(self.params, grads, self.m, self.v, self._scratch):
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

"""Test helpers: gradient checks against central differences, parameter
bytes, and memo-free student replies."""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from mtss.diffnum import Tape, TapeError, Tensor


def grad_check(f: Callable[[Tape, Tensor], Tensor], point: Tensor, eps: float = 1e-5) -> float:
    """Compare backward gradients of ``f`` at ``point`` with central differences.

    Returns max over coordinates of |analytic - numeric| / max(1, |analytic|).
    ``f`` must build a scalar from documented primitives on the tape it is given.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    return grad_check_params(lambda tape: f(tape, point), [point], eps)


def grad_check_params(f: Callable[[Tape], Tensor], params: Sequence[Tensor], eps: float = 1e-5) -> float:
    """grad_check over several tensors at once; returns the worst relative error."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    saved = [(p.requires_grad, p.grad) for p in params]
    for p in params:
        p.requires_grad = True
        p.grad = None
    tape = Tape()
    out = f(tape)
    if out.data.ndim != 0:
        raise TapeError(f"grad_check needs a scalar-valued function, got shape {out.shape}")
    tape.backward(out)
    analytic = [np.zeros_like(p.data) if p.grad is None else p.grad.copy() for p in params]
    for p, (rg, g) in zip(params, saved):
        p.requires_grad = rg
        p.grad = g

    worst = 0.0
    for p, ana in zip(params, analytic):
        flat = p.data.reshape(-1)
        ana_flat = ana.reshape(-1)
        for k in range(flat.size):
            orig = flat[k]
            flat[k] = orig + eps
            f_plus = float(f(Tape(record=False)).data)
            flat[k] = orig - eps
            f_minus = float(f(Tape(record=False)).data)
            flat[k] = orig
            numeric = (f_plus - f_minus) / (2.0 * eps)
            worst = max(worst, abs(ana_flat[k] - numeric) / max(1.0, abs(ana_flat[k])))
    return worst


def param_bytes(model) -> bytes:
    """Every parameter of a model as raw bytes, in parameter order."""
    return b"".join(p.data.tobytes() for p in model.params.values())


def memo_free_reply(student, history: Sequence[Sequence[int]], max_len: int) -> list[int]:
    """The student's greedy reply to ``history`` as ``StudentModel.reply``
    computes it, with every utterance encoded afresh and no encoding memo."""
    tape = Tape(record=False)
    encoded = [student.encode_utterance(tape, utterance) for utterance in history]
    action = student.action_vector(tape, tape.stack([vector for _, vector in encoded]))
    return student.decode_greedy(tape, action, encoded[-1][0], max_len)

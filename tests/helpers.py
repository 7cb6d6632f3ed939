"""Test helpers: gradient checks against central differences, parameter
bytes, a traced memory peak, and probes of the memo, the packed encoders and
the decoder."""

from __future__ import annotations

import tracemalloc
import weakref
from typing import Callable, Sequence

import numpy as np

from mtss import models
from mtss.diffnum import Tape, Tensor
from mtss.models import EncodingMemo


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
        raise ValueError(f"grad_check needs a scalar-valued function, got shape {out.shape}")
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


def traced_peak(fn: Callable[[], object]) -> tuple[int, object]:
    """(the peak bytes traced by tracemalloc while ``fn()`` runs, above what
    was allocated before it, and what it returns)."""
    tracemalloc.start()
    try:
        result = fn()
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


def param_bytes(model) -> bytes:
    """Every parameter of a model as raw bytes, in parameter order."""
    return b"".join(p.data.tobytes() for p in model.params.values())


def count_context_steps(monkeypatch) -> list[tuple[int, ...]]:
    """From now on, the input shape of each context step the encoding memo
    runs (``lstm_row_step``), one entry per step."""
    steps: list[tuple[int, ...]] = []
    step = models.lstm_row_step

    def counting(x, h, c, w, b):
        steps.append(x.shape)
        return step(x, h, c, w, b)

    monkeypatch.setattr(models, "lstm_row_step", counting)
    return steps


def record_word_encodes(monkeypatch) -> list[list[tuple[int, ...]]]:
    """From now on, the utterances of each packed word-encoder call
    (``encode_utterances``), one list per call."""
    calls: list[list[tuple[int, ...]]] = []
    encode = models._SeqModel.encode_utterances

    def recording(self, tape, utterances, vector=False):
        calls.append([tuple(u) for u in utterances])
        return encode(self, tape, utterances, vector)

    monkeypatch.setattr(models._SeqModel, "encode_utterances", recording)
    return calls


def record_context_runs(monkeypatch, student) -> list[list[int]]:
    """From now on, the sequence lengths of each ``Tape.lstm_sequence`` call
    over the student's context weights, one list per call."""
    runs: list[list[int]] = []
    run = Tape.lstm_sequence

    def recording(self, xs, h0, c0, w, b, lengths=None):
        if w is student.params["ctx_w"]:
            runs.append(lengths)
        return run(self, xs, h0, c0, w, b, lengths)

    monkeypatch.setattr(Tape, "lstm_sequence", recording)
    return runs


def count_decoded_rows(monkeypatch) -> list[int]:
    """From now on, the rows of each ``decode_greedy`` call, one entry per call."""
    rows: list[int] = []
    decode = models._SeqModel.decode_greedy

    def counting(self, actions, enc_outs, max_len):
        rows.append(len(actions))
        return decode(self, actions, enc_outs, max_len)

    monkeypatch.setattr(models._SeqModel, "decode_greedy", counting)
    return rows


def track_memos(monkeypatch) -> list[weakref.ref]:
    """From now on, a weak reference to each ``EncodingMemo`` made."""
    memos: list[weakref.ref] = []
    init = EncodingMemo.__init__

    def tracked(self, student):
        init(self, student)
        memos.append(weakref.ref(self))

    monkeypatch.setattr(EncodingMemo, "__init__", tracked)
    return memos

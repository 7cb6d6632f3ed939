"""Reverse-mode automatic differentiation on float64 numpy arrays.

A Tape records every primitive operation as it executes. Calling
``Tape.backward`` on a scalar output replays the records once in reverse
order and accumulates gradients by summation, so a tensor used several
times receives the sum of all its downstream contributions.

One tape belongs to one thread for the duration of a forward/backward
pass; tensors and finished models may be handed between threads freely.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

Array = np.ndarray


class ShapeMismatchError(ValueError):
    """An op received inputs whose shapes do not fit together."""

    def __init__(self, op: str, *shapes):
        self.op = op
        self.shapes = [tuple(s) for s in shapes]
        pretty = " vs ".join(str(s) for s in self.shapes)
        super().__init__(f"{op}: incompatible shapes {pretty}")


class TapeError(RuntimeError):
    """Backward was asked about a tensor this tape never produced."""


class Tensor:
    """A float64 array plus an optional same-shape gradient buffer."""

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad
        self.grad: Array | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def _sigmoid(x: Array) -> Array:
    # tanh form is overflow-safe and vectorizes without branching.
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def _softmax(x: Array) -> Array:
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def _gate_blocks(packed: Array) -> tuple[Array, Array, Array, Array]:
    """Views of the (input, forget, cell, output) blocks of a packed 4H vector."""
    h = packed.shape[0] // 4
    return packed[:h], packed[h:2 * h], packed[2 * h:3 * h], packed[3 * h:]


def _cell(z: Array, c_prev: Array, gates: Array) -> tuple[Array, Array, Array]:
    """LSTM cell update from the packed gate pre-activations ``z``.

    Writes the activated gates into ``gates`` and returns (h, c, tanh(c)).
    """
    gates[:] = _sigmoid(z)
    gi, gf, gc, go = _gate_blocks(gates)
    gc[:] = np.tanh(_gate_blocks(z)[2])
    c = gf * c_prev + gi * gc
    tc = np.tanh(c)
    return go * tc, c, tc


def _cell_grad(dh, dc, c_prev: Array, gates: Array, tc: Array, dz: Array) -> Array:
    """Backward of ``_cell``: writes d(loss)/dz into ``dz``, returns d(loss)/d(c_prev)."""
    gi, gf, gc, go = _gate_blocks(gates)
    dzi, dzf, dzc, dzo = _gate_blocks(dz)
    d_cn = dc + dh * go * (1.0 - tc * tc)
    dzi[:] = d_cn * gc * gi * (1.0 - gi)
    dzf[:] = d_cn * c_prev * gf * (1.0 - gf)
    dzc[:] = d_cn * gi * (1.0 - gc * gc)
    dzo[:] = dh * tc * go * (1.0 - go)
    return d_cn * gf


class _Recurrence:
    """One LSTM cell unrolled over the rows of ``xs``: the forward steps, then
    the backward pass and its weight reductions.

    The input half of the pre-activations is one batched ``xs @ wx.T + b``;
    only ``wh @ h`` runs per step.
    """

    def __init__(self, xs: Array, h0: Array, c0: Array, w: Array, b: Array):
        steps, d = xs.shape
        hidden = h0.shape[0]
        self.xs, self.wx, self.wh = xs, w[:, :d], w[:, d:]
        # Row t holds step t's input projection until the step overwrites it
        # with the activated gates.
        self.gates = xs @ self.wx.T + b
        self.tc = np.empty((steps, hidden))
        self.h_prev = np.empty((steps, hidden))
        self.c_prev = np.empty((steps, hidden))
        self.hs = np.empty((steps, hidden))
        self.h, self.c = h0, c0

    def step(self, t: int) -> Array:
        """Advance to step ``t`` (in order from 0); returns its hidden state."""
        self.h_prev[t] = self.h
        self.c_prev[t] = self.c
        self.h, self.c, self.tc[t] = _cell(self.gates[t] + self.wh @ self.h, self.c, self.gates[t])
        self.hs[t] = self.h
        return self.h

    def backward(self, dh: Array, dc: Array, dh_at: Callable[[int, Array], Array]) -> tuple[Array, ...]:
        """Gradients of (xs, h0, c0, w, b) given those of the final h and c.

        ``dh_at(t, dh)`` returns step t's whole hidden-state gradient from
        ``dh``, the part carried back through the recurrence.
        """
        dz_all = np.empty_like(self.gates)
        for t in range(len(dz_all) - 1, -1, -1):
            dc = _cell_grad(dh_at(t, dh), dc, self.c_prev[t], self.gates[t], self.tc[t], dz_all[t])
            dh = self.wh.T @ dz_all[t]
        dw = np.concatenate([dz_all.T @ self.xs, dz_all.T @ self.h_prev], axis=1)
        return dz_all @ self.wx, dh, dc, dw, dz_all.sum(axis=0)


def attend(h: Array, enc: Array, att_w: Array) -> tuple[Array, Array, Array]:
    """Dot-product attention of ``h`` over the rows of ``enc``, then the tanh
    merge of [h; context] through ``att_w``: (weights, [h; context], merged).
    """
    weights = _softmax(enc @ h)
    cat = np.concatenate([h, weights @ enc])
    return weights, cat, np.tanh(att_w @ cat)


# A tape entry is (inputs, outputs, backward) where backward maps the list
# of output gradients (None when an output is off the loss path) to one
# gradient per input, again None where nothing flows.
BackwardFn = Callable[[list], tuple]


class Tape:
    """Ordered record of executed primitives, replayed in reverse for grads.

    With ``record=False`` the ops still compute identical values but nothing
    is stored, which is the cheap mode for generation and frozen-teacher
    forward passes.
    """

    def __init__(self, record: bool = True):
        self._entries: list[tuple[tuple[Tensor, ...], tuple[Tensor, ...], BackwardFn]] = []
        self._produced: set[int] = set()
        self._record = record

    def __len__(self) -> int:
        return len(self._entries)

    # -- recording machinery -------------------------------------------------

    def _out(self, data: Array, inputs: tuple[Tensor, ...]) -> Tensor:
        t = Tensor(data)
        if self._record:
            for i in inputs:
                if i.requires_grad:
                    t.requires_grad = True
                    break
        return t

    def _emit(self, inputs: tuple[Tensor, ...], outputs: tuple[Tensor, ...], backward: BackwardFn) -> None:
        if self._record:
            self._entries.append((inputs, outputs, backward))
            for o in outputs:
                self._produced.add(id(o))

    # -- elementwise primitives ----------------------------------------------

    def add(self, a: Tensor, b: Tensor) -> Tensor:
        if a.data.shape != b.data.shape:
            raise ShapeMismatchError("add", a.shape, b.shape)
        out = self._out(a.data + b.data, (a, b))
        self._emit((a, b), (out,), lambda gs: (gs[0], gs[0]))
        return out

    def sub(self, a: Tensor, b: Tensor) -> Tensor:
        if a.data.shape != b.data.shape:
            raise ShapeMismatchError("sub", a.shape, b.shape)
        out = self._out(a.data - b.data, (a, b))
        self._emit((a, b), (out,), lambda gs: (gs[0], -gs[0]))
        return out

    def mul(self, a: Tensor, b: Tensor) -> Tensor:
        if a.data.shape != b.data.shape:
            raise ShapeMismatchError("mul", a.shape, b.shape)
        ad, bd = a.data, b.data
        out = self._out(ad * bd, (a, b))
        self._emit((a, b), (out,), lambda gs: (gs[0] * bd, gs[0] * ad))
        return out

    def scale(self, a: Tensor, k: float) -> Tensor:
        out = self._out(a.data * k, (a,))
        self._emit((a,), (out,), lambda gs: (gs[0] * k,))
        return out

    def neg(self, a: Tensor) -> Tensor:
        return self.scale(a, -1.0)

    def tanh(self, a: Tensor) -> Tensor:
        y = np.tanh(a.data)
        out = self._out(y, (a,))
        self._emit((a,), (out,), lambda gs: (gs[0] * (1.0 - y * y),))
        return out

    def log(self, a: Tensor) -> Tensor:
        ad = a.data
        out = self._out(np.log(ad), (a,))
        self._emit((a,), (out,), lambda gs: (gs[0] / ad,))
        return out

    def clamp_min(self, a: Tensor, floor: float) -> Tensor:
        mask = a.data > floor
        out = self._out(np.maximum(a.data, floor), (a,))
        self._emit((a,), (out,), lambda gs: (gs[0] * mask,))
        return out

    # -- linear algebra --------------------------------------------------------

    def matmul(self, a: Tensor, b: Tensor) -> Tensor:
        ad, bd = a.data, b.data
        if not (1 <= ad.ndim <= 2 and 1 <= bd.ndim <= 2) or ad.shape[-1] != bd.shape[0]:
            raise ShapeMismatchError("matmul", a.shape, b.shape)
        out = self._out(ad @ bd, (a, b))

        def backward(gs):
            g = gs[0]
            if ad.ndim == 2 and bd.ndim == 1:
                return np.outer(g, bd), ad.T @ g
            if ad.ndim == 2 and bd.ndim == 2:
                return g @ bd.T, ad.T @ g
            if ad.ndim == 1 and bd.ndim == 2:
                return bd @ g, np.outer(ad, g)
            return g * bd, g * ad

        self._emit((a, b), (out,), backward)
        return out

    # -- shape manipulation ----------------------------------------------------

    def concat(self, parts: Sequence[Tensor]) -> Tensor:
        if not parts or any(p.data.ndim != 1 for p in parts):
            raise ShapeMismatchError("concat", *(p.shape for p in parts))
        sizes = [p.data.shape[0] for p in parts]
        out = self._out(np.concatenate([p.data for p in parts]), tuple(parts))

        def backward(gs):
            g = gs[0]
            grads, off = [], 0
            for n in sizes:
                grads.append(g[off:off + n])
                off += n
            return tuple(grads)

        self._emit(tuple(parts), (out,), backward)
        return out

    def stack(self, rows: Sequence[Tensor]) -> Tensor:
        if not rows or any(r.data.shape != rows[0].data.shape or r.data.ndim != 1 for r in rows):
            raise ShapeMismatchError("stack", *(r.shape for r in rows))
        out = self._out(np.stack([r.data for r in rows]), tuple(rows))
        self._emit(tuple(rows), (out,), lambda gs: tuple(gs[0][i] for i in range(len(rows))))
        return out

    def take_rows(self, m: Tensor, indices: Sequence[int]) -> Tensor:
        """Row gather, i.e. embedding lookup; backward scatter-adds into ``m``."""
        if m.data.ndim != 2:
            raise ShapeMismatchError("take_rows", m.shape)
        idx = np.asarray(indices, dtype=np.intp)
        if idx.ndim != 1 or idx.size == 0:
            raise ShapeMismatchError("take_rows", (idx.size,))
        if idx.min(initial=0) < 0 or idx.max(initial=-1) >= m.data.shape[0]:
            raise IndexError(f"take_rows: index out of range for shape {m.shape}")
        out = self._out(m.data[idx], (m,))
        shape = m.data.shape

        def backward(gs):
            z = np.zeros(shape)
            np.add.at(z, idx, gs[0])
            return (z,)

        self._emit((m,), (out,), backward)
        return out

    def pick(self, m: Tensor, indices: Sequence[int]) -> Tensor:
        """One element per row of a 2-D tensor: out[i] = m[i, indices[i]]."""
        idx = np.asarray(indices, dtype=np.intp)
        if m.data.ndim != 2 or idx.shape != (m.data.shape[0],):
            raise ShapeMismatchError("pick", m.shape, (idx.size,))
        if idx.min(initial=0) < 0 or idx.max(initial=-1) >= m.data.shape[1]:
            raise IndexError(f"pick: column index out of range for shape {m.shape}")
        rows = np.arange(m.data.shape[0])
        out = self._out(m.data[rows, idx].copy(), (m,))
        shape = m.data.shape

        def backward(gs):
            z = np.zeros(shape)
            z[rows, idx] = gs[0]
            return (z,)

        self._emit((m,), (out,), backward)
        return out

    # -- reductions and normalizers --------------------------------------------

    def sum(self, a: Tensor) -> Tensor:
        out = self._out(a.data.sum(), (a,))
        shape = a.data.shape
        self._emit((a,), (out,), lambda gs: (np.full(shape, float(gs[0])),))
        return out

    def softmax(self, a: Tensor) -> Tensor:
        """Softmax over the last axis of a 1-D or 2-D tensor."""
        if a.data.ndim not in (1, 2):
            raise ShapeMismatchError("softmax", a.shape)
        s = _softmax(a.data)
        out = self._out(s, (a,))

        def backward(gs):
            g = gs[0]
            return (s * (g - (g * s).sum(axis=-1, keepdims=True)),)

        self._emit((a,), (out,), backward)
        return out

    def log_softmax(self, a: Tensor) -> Tensor:
        if a.data.ndim not in (1, 2):
            raise ShapeMismatchError("log_softmax", a.shape)
        shifted = a.data - a.data.max(axis=-1, keepdims=True)
        ls = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
        out = self._out(ls, (a,))

        def backward(gs):
            g = gs[0]
            return (g - np.exp(ls) * g.sum(axis=-1, keepdims=True),)

        self._emit((a,), (out,), backward)
        return out

    # -- fused recurrent step ----------------------------------------------------

    def lstm_step(self, x: Tensor, h: Tensor, c: Tensor, w: Tensor, b: Tensor) -> tuple[Tensor, Tensor]:
        """One LSTM cell update; gates packed as (input, forget, cell, output).

        ``w`` has shape (4H, D+H) and acts on the concatenation [x; h].
        Fused into a single record because per-gate composition would
        dominate the tape at training time.
        """
        d, hidden = x.data.shape[0] if x.data.ndim == 1 else -1, h.data.shape[0] if h.data.ndim == 1 else -1
        if (
            x.data.ndim != 1
            or h.data.ndim != 1
            or c.data.shape != h.data.shape
            or w.data.shape != (4 * hidden, d + hidden)
            or b.data.shape != (4 * hidden,)
        ):
            raise ShapeMismatchError("lstm_step", x.shape, h.shape, c.shape, w.shape, b.shape)

        xh = np.concatenate([x.data, h.data])
        gates = np.empty(4 * hidden)
        h_new, c_new, tc = _cell(w.data @ xh + b.data, c.data, gates)
        h_out = self._out(h_new, (x, h, c, w, b))
        c_out = self._out(c_new, (x, h, c, w, b))
        c_prev, wd = c.data, w.data

        def backward(gs):
            dh = gs[0] if gs[0] is not None else 0.0
            dc = gs[1] if gs[1] is not None else 0.0
            dz = np.empty(4 * hidden)
            d_cprev = _cell_grad(dh, dc, c_prev, gates, tc, dz)
            dxh = wd.T @ dz
            return dxh[:d], dxh[d:], d_cprev, np.outer(dz, xh), dz

        self._emit((x, h, c, w, b), (h_out, c_out), backward)
        return h_out, c_out

    def lstm_sequence(
        self, xs: Tensor, h0: Tensor, c0: Tensor, w: Tensor, b: Tensor
    ) -> tuple[Tensor, Tensor, Tensor]:
        """Run a whole input sequence through one LSTM cell in a single record.

        ``xs`` holds one input row per step. Returns (per-step hidden states,
        final hidden, final cell). Equivalent to chaining ``lstm_step`` but the
        weight gradient reduces to one matrix product over the sequence.
        """
        hidden = h0.data.shape[0] if h0.data.ndim == 1 else -1
        steps, d = xs.data.shape if xs.data.ndim == 2 else (-1, -1)
        if (
            xs.data.ndim != 2
            or h0.data.ndim != 1
            or c0.data.shape != h0.data.shape
            or w.data.shape != (4 * hidden, d + hidden)
            or b.data.shape != (4 * hidden,)
        ):
            raise ShapeMismatchError("lstm_sequence", xs.shape, h0.shape, c0.shape, w.shape, b.shape)

        rec = _Recurrence(xs.data, h0.data, c0.data, w.data, b.data)
        for t in range(steps):
            rec.step(t)
        hs_out = self._out(rec.hs, (xs, h0, c0, w, b))
        h_out = self._out(rec.h.copy(), (xs, h0, c0, w, b))
        c_out = self._out(rec.c.copy(), (xs, h0, c0, w, b))

        def backward(gs):
            g_hs, g_hlast, g_clast = gs
            dh = np.zeros(hidden) if g_hlast is None else g_hlast.copy()
            dc = np.zeros(hidden) if g_clast is None else g_clast.copy()
            return rec.backward(dh, dc, (lambda t, dh: dh) if g_hs is None else (lambda t, dh: dh + g_hs[t]))

        self._emit((xs, h0, c0, w, b), (hs_out, h_out, c_out), backward)
        return hs_out, h_out, c_out

    def attn_decoder_sequence(
        self,
        xs: Tensor,
        h0: Tensor,
        c0: Tensor,
        enc: Tensor,
        w: Tensor,
        b: Tensor,
        att_w: Tensor,
        out_w: Tensor,
        out_b: Tensor,
    ) -> Tensor:
        """Teacher-forced attention decoder over a whole gold prefix, fused.

        Per step: LSTM cell on the prefix embedding, dot-product attention of
        the new hidden state over ``enc`` rows, tanh merge of [hidden; context]
        through ``att_w``, linear projection to logits. Returns the (T, V)
        logit matrix; weight gradients reduce to matrix products.
        """
        hidden = h0.data.shape[0] if h0.data.ndim == 1 else -1
        steps, d = xs.data.shape if xs.data.ndim == 2 else (-1, -1)
        positions = enc.data.shape[0] if enc.data.ndim == 2 else -1
        vocab = out_w.data.shape[0] if out_w.data.ndim == 2 else -1
        if (
            xs.data.ndim != 2
            or h0.data.ndim != 1
            or c0.data.shape != h0.data.shape
            or enc.data.shape != (positions, hidden)
            or w.data.shape != (4 * hidden, d + hidden)
            or b.data.shape != (4 * hidden,)
            or att_w.data.shape != (hidden, 2 * hidden)
            or out_w.data.shape != (vocab, hidden)
            or out_b.data.shape != (vocab,)
        ):
            raise ShapeMismatchError(
                "attn_decoder_sequence",
                xs.shape, h0.shape, c0.shape, enc.shape, w.shape, b.shape,
                att_w.shape, out_w.shape, out_b.shape,
            )

        enc_data, att_w_data, out_w_data = enc.data, att_w.data, out_w.data
        rec = _Recurrence(xs.data, h0.data, c0.data, w.data, b.data)
        att = np.empty((steps, positions))
        cats = np.empty((steps, 2 * hidden))
        merged = np.empty((steps, hidden))
        for t in range(steps):
            att[t], cats[t], merged[t] = attend(rec.step(t), enc_data, att_w_data)
        logits = merged @ out_w_data.T + out_b.data
        out = self._out(logits, (xs, h0, c0, enc, w, b, att_w, out_w, out_b))

        def backward(gs):
            g = gs[0]
            d_merged = (g @ out_w_data) * (1.0 - merged * merged)
            d_cat = d_merged @ att_w_data
            d_enc = np.zeros_like(enc_data)

            def dh_at(t, dh_chain):
                nonlocal d_enc
                d_ctx = d_cat[t, hidden:]
                d_att = enc_data @ d_ctx
                d_enc += np.outer(att[t], d_ctx)
                d_scores = att[t] * (d_att - float(d_att @ att[t]))
                d_enc += np.outer(d_scores, rec.hs[t])
                return d_cat[t, :hidden] + dh_chain + enc_data.T @ d_scores

            dxs, dh0, dc0, dw, db = rec.backward(np.zeros(hidden), np.zeros(hidden), dh_at)
            return dxs, dh0, dc0, d_enc, dw, db, d_merged.T @ cats, g.T @ merged, g.sum(axis=0)

        self._emit((xs, h0, c0, enc, w, b, att_w, out_w, out_b), (out,), backward)
        return out

    # -- reverse pass ----------------------------------------------------------------

    def backward(self, output: Tensor) -> None:
        """Populate ``grad`` on every requires_grad tensor reachable from ``output``."""
        if output.data.ndim != 0:
            raise TapeError(f"backward needs a scalar output, got shape {output.shape}")
        if id(output) not in self._produced:
            raise TapeError("output tensor was not produced on this tape")

        grads: dict[int, Array] = {id(output): np.ones(())}
        owned: set[int] = set()
        wants: dict[int, Tensor] = {id(output): output} if output.requires_grad else {}

        for inputs, outputs, backward in reversed(self._entries):
            out_gs = [grads.get(id(o)) for o in outputs]
            if all(g is None for g in out_gs):
                continue
            in_gs = backward(out_gs)
            for t, g in zip(inputs, in_gs):
                if g is None:
                    continue
                tid = id(t)
                prev = grads.get(tid)
                if prev is None:
                    grads[tid] = g
                elif tid in owned:
                    prev += g
                else:
                    # First accumulation copies so op-returned buffers are
                    # never mutated; later ones add in place.
                    grads[tid] = prev + g
                    owned.add(tid)
                if t.requires_grad:
                    wants[tid] = t

        for tid, t in wants.items():
            g = np.asarray(grads[tid])
            t.grad = g if t.grad is None else t.grad + g


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

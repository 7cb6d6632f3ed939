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

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def _softmax(x: Array) -> Array:
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def _gate_blocks(packed: Array) -> tuple[Array, Array, Array, Array]:
    """Views of the (input, forget, cell, output) blocks along the last axis
    of packed 4H gates."""
    h = packed.shape[-1] // 4
    if packed.ndim == 2:
        return packed[:, :h], packed[:, h:2 * h], packed[:, 2 * h:3 * h], packed[:, 3 * h:]
    # Plain slices: a vector is the hot case, and ``...`` indexing costs more.
    return packed[:h], packed[h:2 * h], packed[2 * h:3 * h], packed[3 * h:]


def _cell(z: Array, c_prev: Array, gates: Array) -> tuple[Array, Array, Array]:
    """LSTM cell update from the packed gate pre-activations ``z`` (one 4H
    vector, or one row per sequence).

    Writes the activated gates into ``gates`` and returns (h, c, tanh(c)).
    ``z`` is scratch: the update overwrites it, so it must not overlap
    ``gates``, and tanh(c) is a view of it. Each ufunc writes through
    ``out=``, in the order of the written-out ``0.5 * (1 + tanh(0.5 * z))``
    and ``gf * c_prev + gi * gc``, so the bits are those formulas' bits.
    """
    # The sigmoid's tanh form is overflow-safe and vectorizes without branching.
    np.multiply(z, 0.5, out=gates)
    np.tanh(gates, out=gates)
    gates += 1.0
    gates *= 0.5
    gi, gf, gc, go = _gate_blocks(gates)
    zi, zf, zc, _ = _gate_blocks(z)
    np.tanh(zc, out=gc)
    c = np.multiply(gf, c_prev)
    c += np.multiply(gi, gc, out=zi)
    tc = np.tanh(c, out=zf)
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


def _pack(lengths: Sequence[int]):
    """Packed layout of sequences whose rows are given one after another:
    (sequence order, source row of each packed row, active rows per step).

    The order sorts the sequences by length, stable and descending; packed
    step t holds one row per sequence longer than t, in that order. One
    sequence is already packed, so both indices are then identity slices.
    """
    if len(lengths) == 1:
        return slice(None), slice(None), [1] * lengths[0]
    lengths = np.asarray(lengths, dtype=np.intp)
    order = np.argsort(-lengths, kind="stable")
    steps, seq = np.nonzero(np.arange(lengths.max())[:, None] < lengths[order])
    starts = np.cumsum(lengths) - lengths
    return order, starts[order][seq] + steps, np.bincount(steps).tolist()


def _unpack(packed: Array, index) -> Array:
    """Inverse of ``packed = a[index]``; an identity slice returns ``packed``."""
    if isinstance(index, slice):
        return packed
    out = np.empty_like(packed)
    out[index] = packed
    return out


class _Recurrence:
    """One LSTM cell run over n sequences in lockstep: the forward steps, then
    the backward pass and its weight reductions.

    ``xs`` is packed (PyTorch's ``pack_padded_sequence`` layout): the
    sequences are ordered by non-increasing length and step t holds
    ``sizes[t]`` rows, one per sequence still running, so those sequences are
    the first ``sizes[t]`` rows of the (n, H) state. The input half of the
    pre-activations is one ``xs @ wx.T + b`` over all rows; only the
    ``h @ wh.T`` product runs per step. Only with ``record`` does it keep
    the buffers ``backward`` reads; without, it holds just its outputs.
    """

    def __init__(self, xs: Array, h0: Array, c0: Array, w: Array, b: Array, sizes: Sequence[int],
                 record: bool):
        rows, d = xs.shape
        hidden = h0.shape[1]
        self.wx, self.wh, self.sizes = w[:, :d], w[:, d:], sizes
        # Row r holds its input projection until its step overwrites it with
        # the activated gates. The bias goes in place: the bits of ``+ b``
        # without a second buffer of that size.
        gates = xs @ self.wx.T
        gates += b
        self.hs = np.empty((rows, hidden))
        if record:
            self.gates = gates
            # Row r is [x; h_prev] of its step, so the weight gradient is one product.
            self.xh = np.empty((rows, d + hidden))
            self.xh[:, :d] = xs
            self.tc, self.c_prev = np.empty((rows, hidden)), np.empty((rows, hidden))
        # Several running sequences multiply by one contiguous copy of wh.T,
        # faster than the strided view. One runs on vectors with ``wh @ h``:
        # cheaper elementwise work, and bitwise its per-step reference, which
        # lstm_step's single ``w @ [x; h]`` product matches only to rounding.
        wide = np.ascontiguousarray(self.wh.T) if sizes[0] > 1 else None
        # Each step's pre-activations, written by the product and then
        # overwritten by the cell.
        scratch = np.empty((sizes[0], 4 * hidden))
        self.h, self.c = np.empty_like(h0), np.empty_like(c0)
        h, c = (h0[0], c0[0]) if sizes[0] == 1 else (h0, c0)
        active, start = sizes[0], 0
        for k in sizes:
            if k < active:  # sequences k.. ended at the previous step
                self.h[k:active], self.c[k:active] = h[k:], c[k:]
                h, c = (h[0], c[0]) if k == 1 else (h[:k], c[:k])
                active = k
            r = start if k == 1 else slice(start, start + k)
            z = np.matmul(self.wh, h, out=scratch[0]) if k == 1 else np.matmul(h, wide, out=scratch[:k])
            z += gates[r]
            if record:
                self.xh[r, d:], self.c_prev[r] = h, c
                h, c, self.tc[r] = _cell(z, c, gates[r])
            else:
                h, c, _ = _cell(z, c, gates[r])
            self.hs[r] = h
            start += k
        self.h[:active], self.c[:active] = h, c

    def backward(self, dh: Array, dc: Array, dhs: Array | None) -> tuple[Array, ...]:
        """Gradients of (xs, h0, c0, w, b) given those of the final h and c,
        one row per sequence, and ``dhs``: gradients of the per-step hidden
        states reaching them from outside the recurrence, one row per packed
        row, or None.
        """
        dz_all = np.empty_like(self.gates)
        final_dh, final_dc = dh, dc
        dh, dc = dh[:0], dc[:0]
        active, end = 0, len(dz_all)
        for k in reversed(self.sizes):
            if k > active:  # sequences active..k-1 end at this step
                dh, dc = np.vstack([dh, final_dh[active:k]]), np.vstack([dc, final_dc[active:k]])
                if k == 1:
                    dh, dc = dh[0], dc[0]
                active = k
            end -= k
            r = end if k == 1 else slice(end, end + k)
            g = dh if dhs is None else dh + dhs[r]
            dc = _cell_grad(g, dc, self.c_prev[r], self.gates[r], self.tc[r], dz_all[r])
            dh = self.wh.T @ dz_all[r] if k == 1 else dz_all[r] @ self.wh
        dw = dz_all.T @ self.xh
        return dz_all @ self.wx, dh.reshape(final_dh.shape), dc.reshape(final_dc.shape), dw, dz_all.sum(axis=0)


def lstm_row_step(x: Array, h: Array, c: Array, w: Array, b: Array) -> tuple[Array, Array]:
    """The final (h, c) of ``lstm_sequence`` over the one input row ``x`` from
    (h, c), on vectors and bit for bit: the input projection as a one-row
    ``x @ wx.T + b`` product, then the cell on it plus ``wh @ h``, as
    ``_Recurrence`` steps one sequence.
    """
    d = x.shape[0]
    pre = x[None] @ w[:, :d].T + b
    h, c, _ = _cell(pre[0] + w[:, d:] @ h, c, pre[0])
    return h, c


def attend(h: Array, enc: Array, att_w: Array) -> tuple[Array, Array, Array]:
    """Dot-product attention of ``h`` over the rows of ``enc``, then the tanh
    merge of [h; context] through ``att_w``: (weights, [h; context], merged).

    ``h`` is one hidden state, or a (T, H) matrix of them attended row by row
    over the (P, H) ``enc``. With a (B, P, H) ``enc``, ``h`` is (B, H) and
    row b attends over ``enc[b]``, through stacked one-row products: one row
    runs the products of a (P, H) ``enc`` and is bit for bit its result.
    """
    if enc.ndim == 3:
        weights = _softmax((h[:, None] @ enc.transpose(0, 2, 1))[:, 0])
        context = (weights[:, None] @ enc)[:, 0]
    else:
        weights = _softmax(h @ enc.T)
        context = weights @ enc
    cat = np.concatenate([h, context], axis=-1)
    return weights, cat, np.tanh(cat @ att_w.T)


# A tape entry is (inputs, outputs, backward) where backward maps the list
# of output gradients (None when an output is off the loss path) to one
# gradient per input, again None where nothing flows.
BackwardFn = Callable[[list], tuple]


class Tape:
    """Ordered record of executed primitives, replayed in reverse for grads.

    With ``record=False`` the ops compute identical values, but nothing is
    stored and the fused recurrences keep no buffer that only a backward
    pass reads: a packed word-encoder ``lstm_sequence`` call at hidden size
    150 peaks at about 8.3 kB per input row, against 12.3 kB on a recording
    tape. It is the mode for generation and frozen-teacher forward passes.
    """

    def __init__(self, record: bool = True):
        self._entries: list[tuple[tuple[Tensor, ...], tuple[Tensor, ...], BackwardFn]] = []
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

    # -- elementwise primitives ----------------------------------------------

    def add(self, a: Tensor, b: Tensor) -> Tensor:
        out = self._out(a.data + b.data, (a, b))
        self._emit((a, b), (out,), lambda gs: (gs[0], gs[0]))
        return out

    def sub(self, a: Tensor, b: Tensor) -> Tensor:
        out = self._out(a.data - b.data, (a, b))
        self._emit((a, b), (out,), lambda gs: (gs[0], -gs[0]))
        return out

    def mul(self, a: Tensor, b: Tensor) -> Tensor:
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

    # -- linear algebra --------------------------------------------------------

    def matmul(self, a: Tensor, b: Tensor) -> Tensor:
        ad, bd = a.data, b.data
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

    def take_rows(self, m: Tensor, indices: Sequence[int]) -> Tensor:
        """Row gather, i.e. embedding lookup; backward scatter-adds into ``m``."""
        idx = np.asarray(indices, dtype=np.intp)
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

    def log_softmax(self, a: Tensor) -> Tensor:
        """Log-softmax over the last axis of a 1-D or 2-D tensor; finite for any finite input."""
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
        Nothing trains or decodes through it: the models run
        ``lstm_sequence`` and ``lstm_row_step``. It is the per-step
        reference that the tests chain and perfbench wraps.
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
        self, xs: Tensor, h0: Tensor, c0: Tensor, w: Tensor, b: Tensor, lengths: Sequence[int] | None = None
    ) -> tuple[Tensor, Tensor, Tensor]:
        """Run input sequences through one LSTM cell in a single record.

        ``xs`` holds the sequences' input rows one after another, ``lengths``
        rows each; with ``lengths`` None it is one sequence, one row per step.
        ``h0`` and ``c0`` hold one initial state row per sequence, or are
        vectors for one sequence. Returns (hidden state after each row of
        ``xs``, final hidden, final cell), the final states shaped like ``h0``.

        Equivalent to chaining ``lstm_step`` over each sequence, but the
        sequences run in lockstep (see ``_Recurrence``), so the per-step loop
        follows the longest one, and the weight gradient reduces to one matrix
        product over all rows.
        """
        shape = h0.data.shape
        n, hidden = shape if len(shape) == 2 else (1, shape[0])
        order, rows, sizes = _pack([len(xs.data)] if lengths is None else lengths)
        rec = _Recurrence(xs.data[rows], h0.data.reshape(n, hidden)[order], c0.data.reshape(n, hidden)[order],
                          w.data, b.data, sizes, self._record)
        hs_out = self._out(_unpack(rec.hs, rows), (xs, h0, c0, w, b))
        h_out = self._out(_unpack(rec.h, order).reshape(shape), (xs, h0, c0, w, b))
        c_out = self._out(_unpack(rec.c, order).reshape(shape), (xs, h0, c0, w, b))

        def backward(gs):
            g_hs, g_h, g_c = gs
            dh = np.zeros((n, hidden)) if g_h is None else g_h.reshape(n, hidden)[order]
            dc = np.zeros((n, hidden)) if g_c is None else g_c.reshape(n, hidden)[order]
            dxs, dh0, dc0, dw, db = rec.backward(dh, dc, None if g_hs is None else g_hs[rows])
            return (_unpack(dxs, rows), _unpack(dh0, order).reshape(shape),
                    _unpack(dc0, order).reshape(shape), dw, db)

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
        logit matrix. The gold prefix, not the attention, feeds the next
        cell, so only the cell runs per step; the attention and every weight
        gradient are matrix products over all steps.
        """
        hidden = h0.data.shape[0]
        enc_data, att_w_data, out_w_data = enc.data, att_w.data, out_w.data
        rec = _Recurrence(xs.data, h0.data[None], c0.data[None], w.data, b.data, [1] * len(xs.data), self._record)
        att, cats, merged = attend(rec.hs, enc_data, att_w_data)
        logits = merged @ out_w_data.T + out_b.data
        out = self._out(logits, (xs, h0, c0, enc, w, b, att_w, out_w, out_b))

        def backward(gs):
            g = gs[0]
            d_merged = (g @ out_w_data) * (1.0 - merged * merged)
            d_cat = d_merged @ att_w_data
            d_ctx = d_cat[:, hidden:]
            d_att = d_ctx @ enc_data.T
            d_scores = att * (d_att - (d_att * att).sum(axis=1, keepdims=True))
            d_enc = att.T @ d_ctx + d_scores.T @ rec.hs
            dhs = d_cat[:, :hidden] + d_scores @ enc_data
            dxs, dh0, dc0, dw, db = rec.backward(np.zeros((1, hidden)), np.zeros((1, hidden)), dhs)
            return dxs, dh0[0], dc0[0], d_enc, dw, db, d_merged.T @ cats, g.T @ merged, g.sum(axis=0)

        self._emit((xs, h0, c0, enc, w, b, att_w, out_w, out_b), (out,), backward)
        return out

    # -- reverse pass ----------------------------------------------------------------

    def backward(self, output: Tensor) -> None:
        """Populate ``grad`` on every requires_grad tensor reachable from the scalar ``output``."""
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

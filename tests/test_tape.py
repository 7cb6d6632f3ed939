"""Autodiff core: forward values, gradients vs central differences, invariants."""

import numpy as np
import pytest

from helpers import grad_check, grad_check_params, traced_peak
from mtss.diffnum import Tape, Tensor, attend, lstm_row_step
from mtss.diffnum.tape import _cell, _cell_grad


def rand(rng, *shape, lo=-1.0, hi=1.0):
    return Tensor(rng.uniform(lo, hi, shape), requires_grad=True)


def weighted_sum(tape, outs, weights):
    """Sum of ``sum(out * weight)`` over the outputs: each output's gradient is its weight."""
    loss = Tensor(0.0)
    for out, weight in zip(outs, weights):
        loss = tape.add(loss, tape.sum(tape.mul(out, Tensor(weight))))
    return loss


class TestForwardValues:
    def test_softmax_symmetry(self):
        out = Tape().log_softmax(Tensor([0.0, 0.0]))
        assert np.allclose(out.data, [-np.log(2.0), -np.log(2.0)])
        assert np.allclose(np.exp(out.data), [0.5, 0.5])

    def test_tanh_odd(self):
        assert Tape().tanh(Tensor(0.0)).item() == 0.0

    def test_matmul_identity(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(3, 3))
        out = Tape().matmul(Tensor(np.eye(3)), Tensor(a))
        assert np.array_equal(out.data, a)

    def test_attend_weights_are_a_distribution(self):
        rng = np.random.default_rng(9)
        enc = rng.normal(scale=3.0, size=(5, 4))
        h = rng.normal(size=4)
        weights, cat, merged = attend(h, enc, rng.normal(size=(4, 8)))
        assert (weights >= 0).all() and abs(weights.sum() - 1.0) <= 1e-12
        assert np.array_equal(cat, np.concatenate([h, weights @ enc]))
        assert merged.shape == (4,) and np.abs(merged).max() < 1.0

    @pytest.mark.parametrize("shape", [(20,), (3, 20)], ids=["vector", "block"])
    def test_cell_is_the_written_out_formulas(self, shape):
        """The cell's in-place ufuncs give the bits of the sigmoid's tanh form
        and of the written-out cell and hidden-state formulas."""
        rng = np.random.default_rng(43)
        z, c_prev = rng.normal(scale=3.0, size=shape), rng.normal(size=shape[:-1] + (shape[-1] // 4,))
        gi, gf, _, go = np.split(0.5 * (1 + np.tanh(0.5 * z)), 4, axis=-1)
        gc = np.tanh(np.split(z, 4, axis=-1)[2])
        c = gf * c_prev + gi * gc
        gates = np.empty(shape)
        h_got, c_got, tc_got = _cell(z.copy(), c_prev, gates)
        assert np.array_equal(gates, np.concatenate([gi, gf, gc, go], axis=-1))
        assert np.array_equal(c_got, c) and np.array_equal(tc_got, np.tanh(c))
        assert np.array_equal(h_got, go * np.tanh(c))


class TestBackwardBasics:
    def test_tanh_grad_at_zero(self):
        tape = Tape()
        x = Tensor(0.0, requires_grad=True)
        tape.backward(tape.tanh(x))
        assert x.grad == pytest.approx(1.0)

    def test_product_rule(self):
        tape = Tape()
        x = Tensor(2.0, requires_grad=True)
        y = Tensor(3.0, requires_grad=True)
        tape.backward(tape.mul(x, y))
        assert float(x.grad) == 3.0 and float(y.grad) == 2.0

    def test_reuse_accumulates(self):
        tape = Tape()
        x = Tensor(3.0, requires_grad=True)
        tape.backward(tape.mul(x, x))
        assert float(x.grad) == 6.0

    def test_embedding_grad_is_scatter_add(self):
        tape = Tape()
        emb = Tensor(np.arange(6.0).reshape(3, 2), requires_grad=True)
        rows = tape.take_rows(emb, [1, 1, 2])
        tape.backward(tape.sum(rows))
        expected = np.array([[0.0, 0.0], [2.0, 2.0], [1.0, 1.0]])
        assert np.array_equal(emb.grad, expected)

    def test_lstm_step_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        d, h = 3, 5
        x = rand(rng, d)
        w = rand(rng, 4 * h, d + h, lo=-0.5, hi=0.5)
        b = rand(rng, 4 * h, lo=-0.5, hi=0.5)
        h0 = Tensor(np.zeros(h))
        c0 = Tensor(np.zeros(h))

        def loss(tape):
            h1, c1 = tape.lstm_step(x, h0, c0, w, b)
            h2, _ = tape.lstm_step(x, h1, c1, w, b)
            return tape.sum(tape.mul(h2, h2))

        assert grad_check_params(loss, [x, w, b], eps=1e-5) < 1e-4

    @pytest.mark.parametrize("record,output", [
        ("lstm_sequence", 0), ("lstm_sequence", 1), ("lstm_sequence", 2), ("attn_decoder_sequence", 0),
    ], ids=["lstm_sequence-hs", "lstm_sequence-h_last", "lstm_sequence-c_last", "attn_decoder_sequence-logits"])
    def test_fused_record_matches_finite_differences(self, record, output):
        rng = np.random.default_rng(19)
        d, h, steps, positions, vocab = 3, 4, 3, 4, 5
        args = [rand(rng, steps, d), rand(rng, h), rand(rng, h)]
        if record == "attn_decoder_sequence":
            args.append(rand(rng, positions, h))
        args += [rand(rng, 4 * h, d + h, lo=-0.5, hi=0.5), rand(rng, 4 * h, lo=-0.5, hi=0.5)]
        if record == "attn_decoder_sequence":
            args += [rand(rng, h, 2 * h), rand(rng, vocab, h), rand(rng, vocab)]

        def pick(tape):
            outs = getattr(tape, record)(*args)
            return outs if isinstance(outs, Tensor) else outs[output]

        weights = Tensor(rng.normal(size=pick(Tape(record=False)).shape))
        loss = lambda tape: tape.sum(tape.mul(pick(tape), weights))
        assert grad_check_params(loss, args, eps=1e-5) < 1e-4


class TestPackedSequences:
    """``lstm_sequence`` over several sequences runs them in lockstep; it must
    compute what one record per sequence computes."""

    D, H = 3, 4
    # Unequal and tied lengths, and one of length 1, in no particular order.
    LENGTHS = [3, 1, 4, 3, 2]

    def args(self, rng, lengths):
        n = len(lengths)
        return [rand(rng, sum(lengths), self.D), rand(rng, n, self.H), rand(rng, n, self.H),
                rand(rng, 4 * self.H, self.D + self.H, lo=-0.5, hi=0.5), rand(rng, 4 * self.H, lo=-0.5, hi=0.5)]

    @pytest.mark.parametrize("output", [0, 1, 2], ids=["hs", "h_last", "c_last"])
    def test_matches_finite_differences(self, output):
        rng = np.random.default_rng(29)
        args = self.args(rng, self.LENGTHS)
        pick = lambda tape: tape.lstm_sequence(*args, self.LENGTHS)[output]
        weights = Tensor(rng.normal(size=pick(Tape(record=False)).shape))
        loss = lambda tape: tape.sum(tape.mul(pick(tape), weights))
        assert grad_check_params(loss, args, eps=1e-5) < 1e-4

    def test_matches_one_record_per_sequence(self):
        rng = np.random.default_rng(31)
        xs, h0, c0, w, b = self.args(rng, self.LENGTHS)
        g_hs, g_h, g_c = (rng.normal(size=shape) for shape in ((len(xs.data), self.H), h0.shape, h0.shape))

        tape = Tape()
        outs = tape.lstm_sequence(xs, h0, c0, w, b, self.LENGTHS)
        tape.backward(weighted_sum(tape, outs, (g_hs, g_h, g_c)))
        packed = [o.data for o in outs] + [t.grad for t in (xs, h0, c0, w, b)]

        for t in (xs, h0, c0, w, b):
            t.grad = None
        tape = Tape()
        parts, weights, start = [], [], 0
        for i, n in enumerate(self.LENGTHS):
            rows = list(range(start, start + n))
            parts.append(tape.lstm_sequence(tape.take_rows(xs, rows), tape.take_rows(h0, [i]),
                                            tape.take_rows(c0, [i]), w, b, [n]))
            weights += [g_hs[rows], g_h[[i]], g_c[[i]]]
            start += n
        tape.backward(weighted_sum(tape, [o for part in parts for o in part], weights))
        single = [np.concatenate([part[j].data for part in parts]) for j in range(3)]
        single += [t.grad for t in (xs, h0, c0, w, b)]

        for got, expected in zip(packed, single):
            assert np.allclose(got, expected, rtol=1e-12, atol=1e-15)

    def test_one_sequence_is_bitwise_the_per_step_cell(self):
        """One sequence rounds exactly like the cell stepped with ``wh @ h``
        products, forward and backward, so inference keeps its bits; and
        ``lstm_row_step`` is a one-row sequence's final (h, c), bit for bit."""
        rng = np.random.default_rng(37)
        steps, d, h = 6, 5, 7
        xs, h0, c0 = rng.normal(size=(steps, d)), rng.normal(size=h), rng.normal(size=h)
        w, b = rng.uniform(-0.5, 0.5, (4 * h, d + h)), rng.uniform(-0.5, 0.5, 4 * h)
        g_hs, g_h, g_c = rng.normal(size=(steps, h)), rng.normal(size=h), rng.normal(size=h)
        wx, wh = w[:, :d], w[:, d:]

        gates = xs @ wx.T + b
        hs, tcs, h_prev, c_prev = (np.empty((steps, h)) for _ in range(4))
        state, cell = h0, c0
        for t in range(steps):
            h_prev[t], c_prev[t] = state, cell
            state, cell, tcs[t] = _cell(gates[t] + wh @ state, cell, gates[t])
            hs[t] = state
        dz = np.empty_like(gates)
        dh, dc = g_h.copy(), g_c.copy()
        for t in range(steps - 1, -1, -1):
            dc = _cell_grad(dh + g_hs[t], dc, c_prev[t], gates[t], tcs[t], dz[t])
            dh = wh.T @ dz[t]
        reference = [hs, state, cell, dz @ wx, dh, dc,
                     np.concatenate([dz.T @ xs, dz.T @ h_prev], axis=1), dz.sum(axis=0)]

        params = [Tensor(a, requires_grad=True) for a in (xs, h0, c0, w, b)]
        tape = Tape()
        outs = tape.lstm_sequence(*params)
        tape.backward(weighted_sum(tape, outs, (g_hs, g_h, g_c)))
        for got, expected in zip([o.data for o in outs] + [p.grad for p in params], reference):
            assert np.array_equal(got, expected)
        _, one_h, one_c = Tape(record=False).lstm_sequence(*(Tensor(a) for a in (xs[:1], h0, c0, w, b)))
        assert all(map(np.array_equal, lstm_row_step(xs[0], h0, c0, w, b), (one_h.data, one_c.data)))

    @pytest.mark.parametrize("lengths,vector", [
        ([400], False), ([100] * 4, False), ([40, 1, 100, 60, 20] * 2, False), ([400], True),
    ], ids=["one-sequence", "equal", "ragged", "vector-h0"])
    def test_no_record_tape_keeps_only_the_forward(self, lengths, vector):
        """Off the tape ``lstm_sequence`` returns a recording tape's bits
        and peaks below the recording call by more than its [x; h_prev]
        rows: it keeps no buffer that only backward reads."""
        rng = np.random.default_rng(47)
        d, h = 6, 16
        state = (h,) if vector else (len(lengths), h)
        xs, h0, c0 = rand(rng, sum(lengths), d), rand(rng, *state), rand(rng, *state)
        w, b = rand(rng, 4 * h, d + h, lo=-0.5, hi=0.5), rand(rng, 4 * h, lo=-0.5, hi=0.5)
        (recorded, kept), (unrecorded, outs) = (
            traced_peak(lambda: Tape(record=record).lstm_sequence(xs, h0, c0, w, b, lengths))
            for record in (True, False))
        for got, expected in zip(outs, kept):
            assert np.array_equal(got.data, expected.data)
        assert unrecorded < recorded - xs.data.shape[0] * (d + h) * 8


class TestGradCheckExamples:
    def test_sum_tanh(self):
        rng = np.random.default_rng(11)
        x = Tensor(rng.uniform(-1, 1, 5))
        assert grad_check(lambda t, v: t.sum(t.tanh(v)), x, eps=1e-5) < 1e-6

    def test_softmax_cross_entropy(self):
        rng = np.random.default_rng(13)
        target = np.zeros(6)
        target[2] = 1.0
        x = Tensor(rng.normal(size=6))

        def f(tape, v):
            logp = tape.log_softmax(v)
            return tape.neg(tape.sum(tape.mul(Tensor(target), logp)))

        assert grad_check(f, x, eps=1e-5) < 1e-5

    def test_constant_function(self):
        x = Tensor(np.ones(3))
        assert grad_check(lambda t, v: t.sum(Tensor(np.zeros(2))), x) == 0.0

    def test_eps_must_be_positive(self):
        with pytest.raises(ValueError):
            grad_check(lambda t, v: t.sum(v), Tensor([1.0]), eps=0.0)


# Each case: an op over inputs of the given shapes, drawn in [-1, 1).
PRIMITIVE_CASES = [
    ("add", lambda t, a, b: t.add(a, b), [(4,), (4,)]),
    ("sub", lambda t, a, b: t.sub(a, b), [(4,), (4,)]),
    ("mul", lambda t, a, b: t.mul(a, b), [(4,), (4,)]),
    ("scale", lambda t, a: t.scale(a, 1.7), [(4,)]),
    ("tanh", lambda t, a: t.tanh(a), [(4,)]),
    # "log": gold log-probabilities picked from rows, as the NLL reads them;
    # "softmax": log-softmax over the rows of a 2-D input, its second row
    # scaled by 4.
    ("log", lambda t, m: t.pick(t.log_softmax(m), [0, 3]), [(2, 4)]),
    ("softmax", lambda t, m: t.log_softmax(t.mul(m, Tensor(np.array([[1.0] * 4, [4.0] * 4])))), [(2, 4)]),
    ("log_softmax", lambda t, a: t.log_softmax(a), [(4,)]),
    ("concat", lambda t, a, b: t.concat([a, b]), [(4,), (4,)]),
    ("matvec", lambda t, m, v: t.matmul(m, v), [(2, 4), (4,)]),
]


class TestPrimitiveGradients:
    @pytest.mark.parametrize("name,op,shapes", PRIMITIVE_CASES, ids=[c[0] for c in PRIMITIVE_CASES])
    def test_against_finite_differences_50_seeds(self, name, op, shapes):
        worst = 0.0
        for seed in range(50):
            rng = np.random.default_rng(seed)
            args = [rand(rng, *shape) for shape in shapes]
            weights = Tensor(rng.normal(size=16))

            def f(tape):
                out = op(tape, *args)
                if out.data.ndim == 1:
                    out = tape.sum(tape.mul(out, Tensor(weights.data[: out.data.shape[0]])))
                elif out.data.ndim == 2:
                    out = tape.sum(out)
                return out

            worst = max(worst, grad_check_params(f, args, eps=1e-6))
        assert worst < 1e-4

    def test_matmul_all_rank_combinations(self):
        rng = np.random.default_rng(21)
        a2 = rand(rng, 3, 4)
        b2 = rand(rng, 4, 2)
        v4 = rand(rng, 4)
        v3 = rand(rng, 3)

        cases = [
            lambda t: t.sum(t.matmul(a2, b2)),
            lambda t: t.sum(t.matmul(a2, v4)),
            lambda t: t.sum(t.matmul(v3, a2)),
            lambda t: t.matmul(v4, v4),
        ]
        for f in cases:
            assert grad_check_params(f, [a2, b2, v4, v3], eps=1e-6) < 1e-6


class TestInvariants:
    def test_backward_is_linear(self):
        rng = np.random.default_rng(5)
        x = Tensor(rng.normal(size=6), requires_grad=True)
        a, b = 1.3, -0.6

        def losses(tape):
            l1 = tape.sum(tape.tanh(x))
            l2 = tape.sum(tape.mul(x, x))
            return l1, l2

        tape = Tape()
        l1, l2 = losses(tape)
        combo = tape.add(tape.scale(l1, a), tape.scale(l2, b))
        tape.backward(combo)
        combined_grad = x.grad.copy()

        grads = []
        for pick_first in (True, False):
            x.grad = None
            tape = Tape()
            l1, l2 = losses(tape)
            tape.backward(l1 if pick_first else l2)
            grads.append(x.grad.copy())
        assert np.allclose(combined_grad, a * grads[0] + b * grads[1], atol=1e-10)

    def test_forward_determinism_bit_identical(self):
        rng = np.random.default_rng(17)
        w = Tensor(rng.normal(size=(4, 4)))
        x = Tensor(rng.normal(size=4))

        def run():
            tape = Tape()
            return tape.log_softmax(tape.tanh(tape.matmul(w, x))).data.tobytes()

        assert run() == run()

    def test_softmax_rows_are_distributions(self):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            x = Tensor(rng.normal(scale=5.0, size=(3, 7)))
            log_s = Tape().log_softmax(x).data
            assert (log_s <= 0).all()
            assert np.abs(np.exp(log_s).sum(axis=-1) - 1.0).max() <= 1e-12

    def test_no_nan_inf_after_ops_on_finite_inputs(self):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            tape = Tape()
            x = Tensor(rng.normal(scale=50.0, size=8), requires_grad=True)
            # Identity input weights: the gate pre-activations are x itself.
            w = Tensor(np.hstack([np.eye(8), np.zeros((8, 2))]))
            h, c = tape.lstm_step(x, Tensor(np.zeros(2)), Tensor(np.zeros(2)), w, Tensor(np.zeros(8)))
            s = tape.log_softmax(tape.scale(x, 10.0))
            out = tape.sum(tape.mul(tape.concat([h, c, h, c]), s))
            tape.backward(out)
            assert np.isfinite(out.data).all()
            assert np.isfinite(x.grad).all()

    def test_grad_shape_matches_tensor_shape(self):
        tape = Tape()
        w = Tensor(np.ones((3, 2)), requires_grad=True)
        tape.backward(tape.sum(tape.take_rows(w, [0, 2])))
        assert w.grad.shape == w.shape

    def test_no_record_mode_matches_values(self):
        rng = np.random.default_rng(23)
        w = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
        x = Tensor(rng.normal(size=3))
        t1, t2 = Tape(), Tape(record=False)
        y1 = t1.log_softmax(t1.matmul(w, x))
        y2 = t2.log_softmax(t2.matmul(w, x))
        assert np.array_equal(y1.data, y2.data)
        assert len(t2) == 0
        assert not y2.requires_grad

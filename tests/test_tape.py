"""Autodiff core: forward values, gradients vs central differences, invariants."""

import numpy as np
import pytest

from mtss.diffnum import ShapeMismatchError, Tape, TapeError, Tensor, attend, grad_check, grad_check_params


def rand(rng, *shape, lo=-1.0, hi=1.0):
    return Tensor(rng.uniform(lo, hi, shape), requires_grad=True)


class TestForwardValues:
    def test_softmax_symmetry(self):
        out = Tape().softmax(Tensor([0.0, 0.0]))
        assert np.allclose(out.data, [0.5, 0.5])

    def test_tanh_odd(self):
        assert Tape().tanh(Tensor(0.0)).item() == 0.0

    def test_matmul_identity(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(3, 3))
        out = Tape().matmul(Tensor(np.eye(3)), Tensor(a))
        assert np.array_equal(out.data, a)

    def test_shape_mismatch_names_op_and_shapes(self):
        with pytest.raises(ShapeMismatchError, match=r"matmul.*\(2, 3\).*\(2,\)"):
            Tape().matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros(2)))
        with pytest.raises(ShapeMismatchError, match="add"):
            Tape().add(Tensor(np.zeros(2)), Tensor(np.zeros(3)))

    def test_attend_weights_are_a_distribution(self):
        rng = np.random.default_rng(9)
        enc = rng.normal(scale=3.0, size=(5, 4))
        h = rng.normal(size=4)
        weights, cat, merged = attend(h, enc, rng.normal(size=(4, 8)))
        assert (weights >= 0).all() and abs(weights.sum() - 1.0) <= 1e-12
        assert np.array_equal(cat, np.concatenate([h, weights @ enc]))
        assert merged.shape == (4,) and np.abs(merged).max() < 1.0

    def test_index_ops_validate_range(self):
        m = Tensor(np.zeros((2, 3)))
        with pytest.raises(IndexError):
            Tape().take_rows(m, [0, 2])
        with pytest.raises(IndexError):
            Tape().pick(m, [0, 3])


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

    def test_non_scalar_output_rejected(self):
        tape = Tape()
        y = tape.tanh(Tensor([1.0, 2.0], requires_grad=True))
        with pytest.raises(TapeError, match="scalar"):
            tape.backward(y)

    def test_foreign_tensor_rejected(self):
        with pytest.raises(TapeError, match="not produced"):
            Tape().backward(Tensor(1.0, requires_grad=True))

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
            logp = tape.log(tape.clamp_min(tape.softmax(v), 1e-12))
            return tape.neg(tape.sum(tape.mul(Tensor(target), logp)))

        assert grad_check(f, x, eps=1e-5) < 1e-5

    def test_constant_function(self):
        x = Tensor(np.ones(3))
        assert grad_check(lambda t, v: t.sum(Tensor(np.zeros(2))), x) == 0.0

    def test_eps_must_be_positive(self):
        with pytest.raises(ValueError):
            grad_check(lambda t, v: t.sum(v), Tensor([1.0]), eps=0.0)


PRIMITIVE_CASES = [
    ("add", lambda t, a, b: t.add(a, b), 2),
    ("sub", lambda t, a, b: t.sub(a, b), 2),
    ("mul", lambda t, a, b: t.mul(a, b), 2),
    ("scale", lambda t, a: t.scale(a, 1.7), 1),
    ("tanh", lambda t, a: t.tanh(a), 1),
    ("log", lambda t, a: t.log(t.clamp_min(a, 0.05)), 1),
    ("softmax", lambda t, a: t.softmax(a), 1),
    ("log_softmax", lambda t, a: t.log_softmax(a), 1),
    ("concat", lambda t, a, b: t.concat([a, b]), 2),
    ("matvec", lambda t, a, b: t.matmul(t.stack([a, b]), a), 2),
]


class TestPrimitiveGradients:
    @pytest.mark.parametrize("name,op,arity", PRIMITIVE_CASES, ids=[c[0] for c in PRIMITIVE_CASES])
    def test_against_finite_differences_50_seeds(self, name, op, arity):
        worst = 0.0
        for seed in range(50):
            rng = np.random.default_rng(seed)
            args = [rand(rng, 4, lo=0.1 if name == "log" else -1.0) for _ in range(arity)]
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
            return tape.softmax(tape.tanh(tape.matmul(w, x))).data.tobytes()

        assert run() == run()

    def test_softmax_rows_are_distributions(self):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            x = Tensor(rng.normal(scale=5.0, size=(3, 7)))
            s = Tape().softmax(x).data
            assert (s >= 0).all()
            assert np.abs(s.sum(axis=-1) - 1.0).max() <= 1e-12

    def test_no_nan_inf_after_ops_on_finite_inputs(self):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            tape = Tape()
            x = Tensor(rng.normal(scale=50.0, size=8), requires_grad=True)
            # Identity input weights: the gate pre-activations are x itself.
            w = Tensor(np.hstack([np.eye(8), np.zeros((8, 2))]))
            h, c = tape.lstm_step(x, Tensor(np.zeros(2)), Tensor(np.zeros(2)), w, Tensor(np.zeros(8)))
            s = tape.softmax(tape.scale(x, 10.0))
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
        y1 = t1.softmax(t1.matmul(w, x))
        y2 = t2.softmax(t2.matmul(w, x))
        assert np.array_equal(y1.data, y2.data)
        assert len(t2) == 0
        assert not y2.requires_grad

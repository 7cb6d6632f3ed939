"""Adam optimizer: hand-computed steps, edge cases, divergence signalling."""

import numpy as np
import pytest

from helpers import traced_peak
from mtss.diffnum import Adam, DivergenceError, Tensor


def step(opt, *grads):
    """One ``opt.step()`` with the given gradients on its parameters, in order."""
    for p, g in zip(opt.params, grads):
        p.grad = np.asarray(g, dtype=np.float64)
    opt.step()


def test_zero_learning_rate_leaves_params_unchanged():
    p = Tensor([1.0, -2.0])
    opt = Adam([p], lr=0.0)
    step(opt, [5.0, -3.0])
    assert np.array_equal(p.data, [1.0, -2.0])
    assert opt.step_count == 1


def test_zero_gradient_from_fresh_state_is_a_no_op():
    p = Tensor([1.5])
    step(Adam([p], lr=0.1), np.zeros(1))
    assert np.array_equal(p.data, [1.5])


def test_missing_gradient_counts_as_zero():
    p = Tensor([1.5])
    opt = Adam([p], lr=0.1)
    opt.step()
    assert np.array_equal(p.data, [1.5]) and opt.step_count == 1


def test_zero_gradient_after_warm_moments_decays():
    p = Tensor([1.0])
    opt = Adam([p], lr=0.01)
    step(opt, [2.0])
    m_before, v_before = opt.m[0].copy(), opt.v[0].copy()
    step(opt, np.zeros(1))
    assert abs(opt.m[0][0]) < abs(m_before[0])
    assert abs(opt.v[0][0]) < abs(v_before[0])


def test_first_step_moves_by_lr_times_sign():
    # After bias correction the first update is -lr * g / (|g| + eps'),
    # i.e. almost exactly -lr * sign(g).
    lr, g = 0.005, np.array([0.7, -0.2, 3.0])
    p = Tensor(np.zeros(3))
    step(Adam([p], lr=lr), g)
    eps_term = 1e-8 * np.sqrt(1.0 - 0.999)
    expected = -lr * g / (np.abs(g) + eps_term)
    assert np.allclose(p.data, expected, atol=1e-12)
    assert np.allclose(p.data, -lr * np.sign(g), rtol=1e-4)


def test_step_counter_strictly_increases():
    opt = Adam([Tensor([0.0])], lr=0.001)
    for expected in (1, 2, 3):
        step(opt, [1.0])
        assert opt.step_count == expected


def test_nan_gradient_raises_divergence_error():
    with pytest.raises(DivergenceError):
        step(Adam([Tensor([0.0])], lr=0.1), [np.nan])
    with pytest.raises(DivergenceError):
        step(Adam([Tensor([0.0])], lr=0.1), [np.inf])


def test_step_uses_tensor_grads_and_zero_grad_clears_them():
    p = Tensor([1.0], requires_grad=True)
    opt = Adam([p], lr=0.1)
    p.grad = np.array([4.0])
    opt.step()
    assert p.data[0] < 1.0
    opt.zero_grad()
    assert p.grad is None


def test_clip_norm_rescales_large_gradients():
    p1 = Tensor([0.0], requires_grad=True)
    p2 = Tensor([0.0], requires_grad=True)
    clipped = Adam([p1, p2], lr=0.1, clip_norm=1.0)
    step(clipped, [30.0], [40.0])
    # Gradients 30/40 have norm 50, so the moments see 0.6 and 0.8.
    assert clipped.m[0][0] == pytest.approx(0.1 * 0.6)
    assert clipped.m[1][0] == pytest.approx(0.1 * 0.8)


def test_zero_gradient_keeps_zero_columns_untouched():
    # Columns that never see a gradient keep their initial values exactly.
    p = Tensor(np.ones(4))
    opt = Adam([p], lr=0.05)
    g = np.array([1.0, 0.0, -2.0, 0.0])
    for _ in range(5):
        step(opt, g)
    assert p.data[1] == 1.0 and p.data[3] == 1.0
    assert p.data[0] != 1.0 and p.data[2] != 1.0


def reference_step(params, grads, m, v, step_count, lr, clip_norm=None):
    """Adam's update written out: the global-norm clip, then the 13 in-place
    operations per parameter. ``params``, ``m`` and ``v`` are updated in place."""
    if clip_norm is not None:
        total = float(np.sqrt(sum(float((g * g).sum()) for g in grads)))
        if total > clip_norm:
            grads = [g * (clip_norm / total) for g in grads]
    bc1, bc2 = 1.0 - 0.9 ** step_count, 1.0 - 0.999 ** step_count
    for p, g, m_, v_ in zip(params, grads, m, v):
        t = np.empty_like(p)
        m_ *= 0.9
        np.multiply(g, 1.0 - 0.9, out=t)
        m_ += t
        v_ *= 0.999
        np.multiply(g, g, out=t)
        t *= 1.0 - 0.999
        v_ += t
        np.divide(v_, bc2, out=t)
        np.sqrt(t, out=t)
        t += 1e-8
        np.divide(m_, t, out=t)
        t *= lr / bc1
        p -= t


SHAPES = [(7, 5), (40,), (3, 4, 6), (), (13, 2)]


@pytest.mark.parametrize("clip_norm", [None, 0.5, 1e6], ids=["no-clip", "clipped", "clip-not-reached"])
def test_step_equals_the_written_out_update_bit_for_bit(clip_norm):
    """Several steps on parameters of several shapes, one of which never gets
    a gradient, with one shared scratch buffer."""
    rng = np.random.default_rng(3)
    params = [Tensor(rng.normal(size=s)) for s in SHAPES]
    opt = Adam(params, lr=0.01, clip_norm=clip_norm)
    ref = [p.data.copy() for p in params]
    m, v = [np.zeros_like(r) for r in ref], [np.zeros_like(r) for r in ref]
    for count in range(1, 6):
        grads = [rng.normal(scale=2.0, size=s) for s in SHAPES]
        grads[1] = np.zeros(SHAPES[1])
        for p, g in zip(params, grads):
            p.grad = g.copy()
        params[1].grad = None
        opt.step()
        reference_step(ref, grads, m, v, count, 0.01, clip_norm)
        for p, r, m_opt, m_ref, v_opt, v_ref in zip(params, ref, opt.m, m, opt.v, v):
            assert p.data.tobytes() == r.tobytes()
            assert m_opt.tobytes() == m_ref.tobytes() and v_opt.tobytes() == v_ref.tobytes()


def test_a_clipped_step_allocates_less_than_half_the_largest_parameter():
    rng = np.random.default_rng(4)
    params = [Tensor(rng.normal(size=(400, 300))), Tensor(rng.normal(size=(300,)))]
    opt = Adam(params, lr=0.01, clip_norm=0.1)
    for p in params:
        p.grad = rng.normal(size=p.data.shape)
    peak, _ = traced_peak(opt.step)
    assert opt.m[0][0, 0] == pytest.approx(0.1 * 0.1 * params[0].grad[0, 0] /
                                           np.sqrt(sum((p.grad ** 2).sum() for p in params)))
    assert peak < params[0].data.nbytes / 2, peak


def test_a_non_finite_gradient_moves_nothing_with_clipping_on():
    p, q = Tensor([1.0, 2.0]), Tensor([3.0])
    opt = Adam([p, q], lr=0.1, clip_norm=1.0)
    p.grad, q.grad = np.array([1.0, 2.0]), np.array([np.inf])
    with pytest.raises(DivergenceError, match="parameter 1"):
        opt.step()
    assert opt.step_count == 0 and p.data.tolist() == [1.0, 2.0] and q.data.tolist() == [3.0]
    assert not opt.m[0].any() and not opt.v[0].any()

"""Adam optimizer: hand-computed steps, edge cases, divergence signalling."""

import numpy as np
import pytest

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


def test_negative_learning_rate_rejected():
    with pytest.raises(ValueError):
        Adam([Tensor([0.0])], lr=-1.0)


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

import numpy as np
import pytest

from sortgen import nn
from sortgen.nn import Var


def test_linear_identity():
    y = nn.linear(Var([[1.0, 2.0]]), Var(np.eye(2)), Var(np.zeros(2)))
    np.testing.assert_array_equal(y.value, [[1.0, 2.0]])


def test_linear_hand_value():
    y = nn.linear(Var([[1.0, 1.0]]), Var([[2.0, 0.0], [0.0, 3.0]]), Var([1.0, 1.0]))
    np.testing.assert_array_equal(y.value, [[3.0, 4.0]])


def test_linear_zero_input_broadcasts_bias():
    y = nn.linear(Var(np.zeros((3, 2))), Var(np.ones((2, 4))), Var(np.arange(4.0)))
    np.testing.assert_array_equal(y.value, np.tile(np.arange(4.0), (3, 1)))


def test_linear_shape_mismatch():
    with pytest.raises(ValueError, match="inner extents"):
        nn.linear(Var(np.zeros((1, 3))), Var(np.zeros((2, 2))), Var(np.zeros(2)))


def test_layer_norm_constant_input():
    y = nn.layer_norm(Var([3.0, 3.0, 3.0]), Var(np.ones(3)), Var(np.zeros(3)))
    np.testing.assert_allclose(y.value, 0.0, atol=1e-12)


def test_layer_norm_unit_variance_preserved():
    y = nn.layer_norm(Var([1.0, -1.0]), Var(np.ones(2)), Var(np.zeros(2)))
    np.testing.assert_allclose(y.value, [1.0, -1.0], atol=1e-4)


def test_layer_norm_zero_gain_gives_bias():
    bias = np.array([5.0, 6.0, 7.0])
    y = nn.layer_norm(Var([1.0, 2.0, 9.0]), Var(np.zeros(3)), Var(bias))
    np.testing.assert_array_equal(y.value, bias)


def test_layer_norm_rejects_scalar_axis():
    with pytest.raises(ValueError):
        nn.layer_norm(Var([1.0]), Var([1.0]), Var([0.0]))


def test_masked_softmax_rows_sum_to_one_over_prefix():
    T = 4
    mask = np.tril(np.ones((T, T), dtype=bool))
    y = nn.masked_softmax(Var(np.random.default_rng(0).normal(size=(T, T))), mask)
    np.testing.assert_allclose(y.value.sum(axis=-1), 1.0, atol=1e-12)
    assert (y.value[~mask] == 0.0).all()


def test_backward_sum_gives_ones():
    w = Var(np.random.default_rng(1).normal(size=(3, 4)))
    nn.backward(nn.sum_(w))
    np.testing.assert_array_equal(w.grad, np.ones((3, 4)))


def test_backward_zero_scale_gives_zero_grads():
    w = Var(np.random.default_rng(2).normal(size=(5,)))
    nn.backward(nn.mul(nn.sum_(nn.mul(w, w)), 0.0))
    np.testing.assert_array_equal(w.grad, np.zeros(5))


def test_backward_requires_scalar():
    with pytest.raises(ValueError):
        nn.backward(Var(np.zeros(3)))


def test_backward_accumulates_across_calls():
    w = Var(np.ones(3))
    loss = nn.sum_(w)
    nn.backward(loss)
    loss2 = nn.sum_(nn.mul(w, 2.0))
    nn.backward(loss2)
    np.testing.assert_array_equal(w.grad, 3.0 * np.ones(3))


def _composite_params(seed=0):
    rng = np.random.default_rng(seed)
    return {
        "W1": Var(rng.normal(size=(6, 8)) * 0.3),
        "b1": Var(rng.normal(size=8) * 0.1),
        "g": Var(np.ones(8)),
        "b": Var(np.zeros(8)),
        "W2": Var(rng.normal(size=(8, 3)) * 0.3),
        "b2": Var(rng.normal(size=3) * 0.1),
    }


def test_finite_diff_small_net():
    params = _composite_params()
    x = np.random.default_rng(3).normal(size=(4, 6))

    def loss_fn():
        h = nn.relu(nn.linear(Var(x), params["W1"], params["b1"]))
        h = nn.layer_norm(h, params["g"], params["b"])
        out = nn.sigmoid(nn.linear(h, params["W2"], params["b2"]))
        return nn.sum_(nn.mul(out, out))

    err = nn.finite_diff_check(params, loss_fn, step=1e-4, n_coords=60, seed=0)
    assert err < 1e-4


def test_finite_diff_quadratic_exact():
    w = {"W": Var(np.random.default_rng(4).normal(size=(5, 5)))}

    def loss_fn():
        return nn.mul(nn.sum_(nn.mul(w["W"], w["W"])), 0.5)

    assert nn.finite_diff_check(w, loss_fn, step=1e-4, n_coords=25) < 1e-9


def test_finite_diff_zero_step_rejected():
    w = {"W": Var(np.ones(2))}
    with pytest.raises(ValueError):
        nn.finite_diff_check(w, lambda: nn.sum_(w["W"]), step=0.0)


def test_adam_zero_gradients_leave_params():
    params = {"w": Var(np.array([1.0, -2.0]))}
    state = nn.adam_init(params, lr=0.1)
    params["w"].grad = np.zeros(2)
    nn.adam_step(params, state)
    np.testing.assert_array_equal(params["w"].value, [1.0, -2.0])


def test_adam_descends_constant_gradient():
    params = {"w": Var(np.array([0.0]))}
    state = nn.adam_init(params, lr=0.01)
    for _ in range(50):
        params["w"].grad = np.array([1.0])
        nn.adam_step(params, state)
    assert params["w"].value[0] < 0.0


def test_adam_first_step_bias_corrected():
    params = {"w": Var(np.array([0.0]))}
    state = nn.adam_init(params, lr=0.1)
    params["w"].grad = np.array([1.0])
    nn.adam_step(params, state)
    # m_hat / sqrt(v_hat) = 1 after bias correction, so delta = -lr.
    np.testing.assert_allclose(params["w"].value, [-0.1], atol=1e-8)
    assert params["w"].grad is None or not params["w"].grad.any()


def test_adam_uninitialized_state_rejected():
    with pytest.raises(ValueError):
        nn.adam_step({"w": Var(np.ones(1))}, nn.AdamState())


@pytest.mark.parametrize("x_shape", [(5, 6), (3, 4, 6)])
def test_finite_diff_fused_linear(x_shape):
    rng = np.random.default_rng(5)
    params = {"x": Var(rng.normal(size=x_shape)), "W": Var(rng.normal(size=(6, 7)) * 0.3),
              "b": Var(rng.normal(size=7) * 0.1)}
    target = rng.normal(size=x_shape[:-1] + (7,))

    def loss_fn():
        y = nn.linear(params["x"], params["W"], params["b"])
        return nn.sum_(nn.mul(nn.sigmoid(y), target))

    assert nn.finite_diff_check(params, loss_fn, step=1e-5, n_coords=80, seed=1) < 1e-6


def test_linear_gradient_matches_unfused_ops():
    rng = np.random.default_rng(6)
    x, w, b = rng.normal(size=(3, 4, 6)), rng.normal(size=(6, 5)), rng.normal(size=5)
    grads = []
    for fused in (True, False):
        xs, ws, bs = Var(x), Var(w), Var(b)
        y = nn.linear(xs, ws, bs) if fused else nn.add(nn.matmul(xs, ws), bs)
        nn.backward(nn.sum_(nn.mul(y, y)))
        grads.append((y.value, xs.grad, ws.grad, bs.grad))
    for fused, plain in zip(*grads):
        np.testing.assert_allclose(fused, plain, rtol=1e-12, atol=1e-12)


def test_constants_record_no_tape():
    c = nn.as_var(np.ones(3))
    assert not c.requires_grad
    y = nn.mul(nn.add(c, 1.0), c)
    assert not y.requires_grad and y._parents == () and y._bw is None
    with pytest.raises(ValueError, match="does not require grad"):
        nn.backward(nn.sum_(y))


def test_frozen_leaf_gets_no_grad():
    w = Var(np.ones(3))
    frozen = Var(np.full(3, 2.0), requires_grad=False)
    nn.backward(nn.sum_(nn.mul(w, frozen)))
    np.testing.assert_array_equal(w.grad, np.full(3, 2.0))
    assert frozen.grad is None

import numpy as np
import pytest

from sortgen import nn
from sortgen.nn import Var
from tests.helpers import (
    adam_init_reference,
    adam_step_reference,
    add,
    attention,
    ffn,
    finite_diff_check,
    layer_norm,
    linear,
    masked_softmax,
    matmul,
    mul,
    relu,
    reshape,
    same_bits,
    sigmoid,
    sum_,
    transpose,
)


def test_linear_identity():
    y = linear(Var([[1.0, 2.0]]), Var(np.eye(2)), Var(np.zeros(2)))
    np.testing.assert_array_equal(y.value, [[1.0, 2.0]])


def test_linear_hand_value():
    y = linear(Var([[1.0, 1.0]]), Var([[2.0, 0.0], [0.0, 3.0]]), Var([1.0, 1.0]))
    np.testing.assert_array_equal(y.value, [[3.0, 4.0]])


def test_linear_zero_input_broadcasts_bias():
    y = linear(Var(np.zeros((3, 2))), Var(np.ones((2, 4))), Var(np.arange(4.0)))
    np.testing.assert_array_equal(y.value, np.tile(np.arange(4.0), (3, 1)))


def test_linear_shape_mismatch():
    with pytest.raises(ValueError, match="inner extents"):
        linear(Var(np.zeros((1, 3))), Var(np.zeros((2, 2))), Var(np.zeros(2)))


def test_layer_norm_constant_input():
    y = layer_norm(Var([3.0, 3.0, 3.0]), Var(np.ones(3)), Var(np.zeros(3)))
    np.testing.assert_allclose(y.value, 0.0, atol=1e-12)


def test_layer_norm_unit_variance_preserved():
    y = layer_norm(Var([1.0, -1.0]), Var(np.ones(2)), Var(np.zeros(2)))
    np.testing.assert_allclose(y.value, [1.0, -1.0], atol=1e-4)


def test_layer_norm_zero_gain_gives_bias():
    bias = np.array([5.0, 6.0, 7.0])
    y = layer_norm(Var([1.0, 2.0, 9.0]), Var(np.zeros(3)), Var(bias))
    np.testing.assert_array_equal(y.value, bias)


def test_layer_norm_rejects_scalar_axis():
    with pytest.raises(ValueError):
        layer_norm(Var([1.0]), Var([1.0]), Var([0.0]))


def test_masked_softmax_rows_sum_to_one_over_prefix():
    T = 4
    mask = np.tril(np.ones((T, T), dtype=bool))
    y = masked_softmax(Var(np.random.default_rng(0).normal(size=(T, T))), mask)
    np.testing.assert_allclose(y.value.sum(axis=-1), 1.0, atol=1e-12)
    assert (y.value[~mask] == 0.0).all()


def test_backward_sum_gives_ones():
    w = Var(np.random.default_rng(1).normal(size=(3, 4)))
    nn.backward(sum_(w))
    np.testing.assert_array_equal(w.grad, np.ones((3, 4)))


def test_backward_zero_scale_gives_zero_grads():
    w = Var(np.random.default_rng(2).normal(size=(5,)))
    nn.backward(mul(sum_(mul(w, w)), 0.0))
    np.testing.assert_array_equal(w.grad, np.zeros(5))


def test_backward_requires_scalar():
    with pytest.raises(ValueError):
        nn.backward(Var(np.zeros(3)))


def test_backward_accumulates_across_calls():
    w = Var(np.ones(3))
    loss = sum_(w)
    nn.backward(loss)
    loss2 = sum_(mul(w, 2.0))
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
        h = relu(linear(Var(x), params["W1"], params["b1"]))
        h = layer_norm(h, params["g"], params["b"])
        out = sigmoid(linear(h, params["W2"], params["b2"]))
        return sum_(mul(out, out))

    err = finite_diff_check(params, loss_fn, step=1e-4, n_coords=60, seed=0)
    assert err < 1e-4


def test_finite_diff_quadratic_exact():
    w = {"W": Var(np.random.default_rng(4).normal(size=(5, 5)))}

    def loss_fn():
        return mul(sum_(mul(w["W"], w["W"])), 0.5)

    assert finite_diff_check(w, loss_fn, step=1e-4, n_coords=25) < 1e-9


def test_finite_diff_zero_step_rejected():
    w = {"W": Var(np.ones(2))}
    with pytest.raises(ValueError):
        finite_diff_check(w, lambda: sum_(w["W"]), step=0.0)


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
        y = linear(params["x"], params["W"], params["b"])
        return sum_(mul(sigmoid(y), target))

    assert finite_diff_check(params, loss_fn, step=1e-5, n_coords=80, seed=1) < 1e-6


def test_linear_gradient_matches_unfused_ops():
    rng = np.random.default_rng(6)
    x, w, b = rng.normal(size=(3, 4, 6)), rng.normal(size=(6, 5)), rng.normal(size=5)
    grads = []
    for fused in (True, False):
        xs, ws, bs = Var(x), Var(w), Var(b)
        y = linear(xs, ws, bs) if fused else add(matmul(xs, ws), bs)
        nn.backward(sum_(mul(y, y)))
        grads.append((y.value, xs.grad, ws.grad, bs.grad))
    for fused, plain in zip(*grads):
        np.testing.assert_allclose(fused, plain, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_backward_rejects_a_non_finite_loss(value):
    with pytest.raises(FloatingPointError) as exc:
        nn.backward(mul(Var(np.array([1.0])), value))
    assert str(exc.value) == "non-finite loss"


def test_constants_record_no_tape():
    c = nn.as_var(np.ones(3))
    assert not c.requires_grad
    y = mul(add(c, 1.0), c)
    assert not y.requires_grad and y._parents == () and y._bw is None
    with pytest.raises(ValueError, match="does not require grad"):
        nn.backward(sum_(y))


def test_frozen_leaf_gets_no_grad():
    w = Var(np.ones(3))
    frozen = Var(np.full(3, 2.0), requires_grad=False)
    nn.backward(sum_(mul(w, frozen)))
    np.testing.assert_array_equal(w.grad, np.full(3, 2.0))
    assert frozen.grad is None


def test_gradient_shared_by_add_is_not_written_through():
    # add hands one gradient array to both parents, and each stores it as is.
    a, b = Var(np.ones(3)), Var(np.full(3, 2.0))
    nn.backward(sum_(add(a, b)))
    assert np.shares_memory(a.grad, b.grad)
    # A second backward through a alone must leave b's stored gradient alone.
    nn.backward(sum_(mul(a, np.array([3.0, 4.0, 5.0]))))
    np.testing.assert_array_equal(a.grad, [4.0, 5.0, 6.0])
    np.testing.assert_array_equal(b.grad, [1.0, 1.0, 1.0])


def test_view_gradients_accumulate_into_new_arrays():
    # reshape and transpose hand their parent a view of their own gradient.
    x = Var(np.arange(6.0).reshape(2, 3))
    c1 = np.arange(1.0, 7.0).reshape(3, 2)
    c2 = np.arange(10.0, 16.0).reshape(3, 2)
    y = reshape(x, (3, 2))
    nn.backward(sum_(mul(y, c1)))
    assert np.shares_memory(x.grad, y.grad)
    z = transpose(x, (1, 0))
    nn.backward(sum_(mul(z, c2)))
    np.testing.assert_array_equal(x.grad, c1.reshape(2, 3) + c2.T)
    np.testing.assert_array_equal(y.grad, c1)
    # Twice more, through a new transpose: x sums three gradients, and neither
    # earlier node's gradient changes.
    nn.backward(sum_(mul(transpose(x, (1, 0)), c2)))
    np.testing.assert_array_equal(x.grad, c1.reshape(2, 3) + 2.0 * c2.T)
    np.testing.assert_array_equal(y.grad, c1)
    np.testing.assert_array_equal(z.grad, c2)


def test_finite_diff_attention_and_ffn_nodes():
    rng = np.random.default_rng(7)
    dm = 6
    params = {name: Var(rng.normal(size=(dm, dm)) * 0.4) for name in ("Wq", "Wk", "Wv", "Wo")}
    params.update({name: Var(rng.normal(size=dm) * 0.1) for name in ("bq", "bk", "bv", "bo")})
    params.update({"W1": Var(rng.normal(size=(dm, 12)) * 0.4), "b1": Var(rng.normal(size=12)),
                   "W2": Var(rng.normal(size=(12, 2)) * 0.4), "b2": Var(rng.normal(size=2)),
                   "x": Var(rng.normal(size=(2, 4, dm)))})
    target = rng.normal(size=(2, 4, 2))

    def loss_fn():
        p = params
        h = attention(p["x"], p["Wq"], p["Wk"], p["Wv"], p["Wo"],
                      p["bq"], p["bk"], p["bv"], p["bo"], n_heads=2)
        y = ffn(h, p["W1"], p["b1"], p["W2"], p["b2"])
        return sum_(mul(sigmoid(y), target))

    assert finite_diff_check(params, loss_fn, step=1e-5, n_coords=120, seed=2) < 1e-6


# ------------------------- fused block nodes --------------------------------

ATTN = ("Wq", "Wk", "Wv", "Wo", "bq", "bk", "bv", "bo")
FFN = ("W1", "b1", "W2", "b2")


def _block_params(kind, dm=8, seed=0):
    """x, the layer norm's gain and bias, and the block's weights, all moved
    off their usual init so that every gradient is generic."""
    rng = np.random.default_rng(seed)
    p = {"x": Var(rng.normal(size=(3, 5, dm))), "g": Var(1.0 + 0.2 * rng.normal(size=dm)),
         "b": Var(0.1 * rng.normal(size=dm))}
    if kind == "attention":
        p.update({name: Var(rng.normal(size=(dm, dm)) * 0.4) for name in ATTN[:4]})
        p.update({name: Var(rng.normal(size=dm) * 0.1) for name in ATTN[4:]})
    else:
        p.update({"W1": Var(rng.normal(size=(dm, 4 * dm)) * 0.4),
                  "b1": Var(rng.normal(size=4 * dm) * 0.1),
                  "W2": Var(rng.normal(size=(4 * dm, dm)) * 0.4), "b2": Var(rng.normal(size=dm))})
    return p


def _block(kind, p, fused):
    if kind == "attention":
        weights = [p[name] for name in ATTN]
        if fused:
            return nn.attention_block(p["x"], p["g"], p["b"], *weights, n_heads=2)
        return add(p["x"], attention(layer_norm(p["x"], p["g"], p["b"]), *weights, 2))
    weights = [p[name] for name in FFN]
    if fused:
        return nn.ffn_block(p["x"], p["g"], p["b"], *weights)
    return add(p["x"], ffn(layer_norm(p["x"], p["g"], p["b"]), *weights))


def _value_and_grads(build, params, seed=11):
    """build()'s value, and every parameter's gradient of sum(out * proj) +
    sum(out * out) for a fixed random proj: out gets its gradient from two
    consumers, as a residual stream does."""
    nn.zero_grads(params)
    out = build()
    proj = np.random.default_rng(seed).normal(size=out.shape)
    nn.backward(add(sum_(mul(out, proj)), sum_(mul(out, out))))
    return out.value, {name: p.grad for name, p in params.items()}


@pytest.mark.parametrize("kind", ["attention", "ffn"])
def test_block_node_equals_layer_norm_block_and_add_bit_for_bit(kind):
    params = _block_params(kind)
    fused, fused_grads = _value_and_grads(lambda: _block(kind, params, True), params)
    ref, ref_grads = _value_and_grads(lambda: _block(kind, params, False), params)
    assert same_bits(fused, ref)
    for name, g in ref_grads.items():
        assert same_bits(fused_grads[name], g), name


@pytest.mark.parametrize("kind", ["attention", "ffn"])
def test_finite_diff_block_nodes(kind):
    params = _block_params(kind, dm=6, seed=3)
    target = np.random.default_rng(4).normal(size=params["x"].shape)

    def loss_fn():
        return sum_(mul(sigmoid(_block(kind, params, True)), target))

    assert finite_diff_check(params, loss_fn, step=1e-5, n_coords=120, seed=5) < 1e-6


def test_block_node_without_input_gradient_still_trains_its_weights():
    # A constant input (no tape behind it) gets no gradient; the norm and the
    # weights still do, equal to the unfused tape's.
    for kind in ("attention", "ffn"):
        params = _block_params(kind, seed=6)
        params["x"] = Var(params["x"].value, requires_grad=False)
        fused, fused_grads = _value_and_grads(lambda: _block(kind, params, True), params)
        ref, ref_grads = _value_and_grads(lambda: _block(kind, params, False), params)
        assert fused_grads["x"] is None and ref_grads["x"] is None
        for name in params.keys() - {"x"}:
            assert same_bits(fused_grads[name], ref_grads[name]), name


def test_fused_outputs_run_one_backward_with_each_outputs_gradient():
    a = Var(np.array([1.0, 2.0]))
    calls = []

    def bw(grads):
        calls.append(list(grads))
        a._accum(grads[0] * 2.0)

    y, z = nn.fused_outputs([a.value * 2.0, a.value + 1.0], [a], bw)
    assert same_bits(y.value, [2.0, 4.0]) and same_bits(z.value, [2.0, 3.0])
    nn.backward(add(sum_(mul(y, 3.0)), sum_(y)))
    assert len(calls) == 1 and calls[0][1] is None  # z got no gradient
    assert same_bits(calls[0][0], [4.0, 4.0]) and same_bits(a.grad, [8.0, 8.0])
    frozen = nn.fused_outputs([np.ones(2)], [Var(np.ones(2), requires_grad=False)], bw)[0]
    assert not frozen.requires_grad and frozen._parents == ()


def test_flat_views_follow_adam_inits_layout():
    params = {"a": Var(np.arange(6.0).reshape(2, 3)), "b": Var(np.array([7.0]))}
    state = nn.adam_init(params)
    flat = np.arange(7.0) * 10.0
    views = nn.flat_views(params, flat)
    assert same_bits(views["a"], flat[:6].reshape(2, 3)) and same_bits(views["b"], flat[6:])
    assert all(np.shares_memory(views[name], flat) for name in params)
    for name, view in nn.flat_views(params, state.values).items():
        assert view.shape == params[name].shape
        assert same_bits(view, params[name].value)


def test_masked_softmax_rows_equal_the_minus_infinity_form_bit_for_bit():
    rng = np.random.default_rng(9)
    logits = rng.normal(size=(2, 3, 6, 6)) * 4.0
    mask = np.tri(6, dtype=bool)
    masked = np.where(mask, logits, -np.inf)
    e = np.exp(masked - masked.max(axis=-1, keepdims=True))
    assert same_bits(nn.softmax_rows(logits, mask), e / e.sum(axis=-1, keepdims=True))


# ------------------------------- Adam ---------------------------------------


def _adam_params(seed):
    rng = np.random.default_rng(seed)
    return {"w": Var(rng.normal(size=(3, 4))), "b": Var(rng.normal(size=4)),
            "s": Var(rng.normal(size=())), "t": Var(rng.normal(size=(2, 1, 3)))}


def test_flat_adam_equals_the_per_array_update_bit_for_bit():
    # 20 steps of random gradients, some missing: every value and moment
    # matches the per-array update exactly.
    flat, ref = _adam_params(0), _adam_params(0)
    state = nn.adam_init(flat, lr=0.05)
    ref_state = adam_init_reference(ref, lr=0.05)
    rng = np.random.default_rng(1)
    for step in range(20):
        for name in flat:
            if rng.uniform() < 0.25:
                flat[name].grad = ref[name].grad = None
            else:
                g = rng.normal(size=flat[name].shape) * rng.choice([1e-6, 1.0, 1e3])
                flat[name].grad, ref[name].grad = g, g.copy()
        nn.adam_step(flat, state)
        adam_step_reference(ref, ref_state)
        for name in flat:
            assert same_bits(flat[name].value, ref[name].value), (step, name)
            assert flat[name].grad is None
            assert np.shares_memory(flat[name].value, state.values)
    offset = 0
    for name, p in flat.items():
        part = slice(offset, offset + p.value.size)
        assert same_bits(state.m[part], ref_state.m[name].ravel())
        assert same_bits(state.v[part], ref_state.v[name].ravel())
        offset += p.value.size


def test_adam_rejects_a_parameter_replaced_after_init():
    params = _adam_params(2)
    state = nn.adam_init(params)
    params["b"].value = params["b"].value.copy()  # a new array: adam_step would not see it
    with pytest.raises(ValueError, match="parameter 'b' was replaced"):
        nn.adam_step(params, state)
    with pytest.raises(ValueError, match="differ"):
        nn.adam_step({"w": params["w"]}, state)


def test_adam_init_copies_read_only_arrays_into_its_writable_buffer():
    frozen = np.arange(4.0)
    frozen.flags.writeable = False
    params = {"w": Var(frozen)}
    state = nn.adam_init(params, lr=0.1)
    params["w"].grad = np.ones(4)
    nn.adam_step(params, state)
    np.testing.assert_array_equal(frozen, np.arange(4.0))
    np.testing.assert_allclose(params["w"].value, np.arange(4.0) - 0.1)

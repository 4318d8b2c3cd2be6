import dataclasses
import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sortgen import model as sortmodel
from sortgen import generation, nn, simulator, trainer, values
from sortgen.core import ConfigError, EngineConfig, ObjectiveWeights, UserContext
from sortgen.nn import Var
from tests.helpers import (
    add,
    ffn_node,
    ffn_reference,
    finite_diff_check,
    forward_reference,
    heads_reference,
    input_reference,
    mhsa_node,
    mhsa_reference,
    monotone_logits,
    monotone_logits_reference,
    mul,
    ordered_regression_loss_reference,
    param_count,
    parse_values_reference,
    pointwise_loss_reference,
    same_bits,
    save_checkpoint_reference,
    sigmoid,
    sum_,
)

# Each block as one tape node, and its primitive-op reference.
MHSA_IMPLS = [mhsa_node, mhsa_reference]
FFN_IMPLS = [ffn_node, ffn_reference]


def _random_inputs(config, n, l, seed=0):
    rng = np.random.default_rng(seed)
    emb = rng.normal(size=(n, l, config.d_emb))
    emb /= np.linalg.norm(emb, axis=-1, keepdims=True)
    user = rng.normal(size=(n, config.d_user))
    score = rng.uniform(0, 1, size=(n, l, 2))
    return emb, user, score


# ------------------------------ attention -----------------------------------


def _attn_params(dm, seed=0, zero_qk=False, identity_vo=False):
    rng = np.random.default_rng(seed)
    p = {}
    for name in ("Wq", "Wk", "Wv", "Wo"):
        p[f"a.{name}"] = Var(rng.normal(size=(dm, dm)) * 0.3)
    for name in ("bq", "bk", "bv", "bo"):
        p[f"a.{name}"] = Var(np.zeros(dm))
    if zero_qk:
        p["a.Wq"] = Var(np.zeros((dm, dm)))
        p["a.Wk"] = Var(np.zeros((dm, dm)))
    if identity_vo:
        p["a.Wv"] = Var(np.eye(dm))
        p["a.Wo"] = Var(np.eye(dm))
    return p


def test_mhsa_single_position():
    for mhsa in MHSA_IMPLS:
        dm = 8
        p = _attn_params(dm, identity_vo=True, zero_qk=True)
        x = np.random.default_rng(1).normal(size=(1, 1, dm))
        out = mhsa(Var(x), p, "a", n_heads=2)
        np.testing.assert_allclose(out.value, x, atol=1e-12)


def test_mhsa_causal_bit_for_bit():
    for mhsa in MHSA_IMPLS:
        dm, T = 8, 6
        p = _attn_params(dm)
        x = np.random.default_rng(2).normal(size=(1, T, dm))
        base = mhsa(Var(x), p, "a", n_heads=2).value
        x2 = x.copy()
        x2[0, T - 1] += 1.0
        pert = mhsa(Var(x2), p, "a", n_heads=2).value
        assert (base[0, : T - 1] == pert[0, : T - 1]).all()


def test_mhsa_uniform_logits_average_values():
    # Zero query/key projections give equal logits; attention at position t is
    # then the running mean of value vectors at positions <= t.
    for mhsa in MHSA_IMPLS:
        dm, T = 4, 5
        p = _attn_params(dm, zero_qk=True, identity_vo=True)
        x = np.random.default_rng(3).normal(size=(1, T, dm))
        out = mhsa(Var(x), p, "a", n_heads=2).value
        for t in range(T):
            np.testing.assert_allclose(out[0, t], x[0, : t + 1].mean(axis=0), atol=1e-12)


def test_ffn_zero_weights_zero_output():
    for ffn in FFN_IMPLS:
        dm = 4
        p = {"f.W1": Var(np.zeros((dm, 4 * dm))), "f.b1": Var(np.zeros(4 * dm)),
             "f.W2": Var(np.zeros((4 * dm, dm))), "f.b2": Var(np.zeros(dm))}
        x = np.random.default_rng(4).normal(size=(1, 3, dm))
        out = ffn(Var(x), p, "f")
        np.testing.assert_array_equal(out.value, 0.0)


def test_ffn_identity_construction_on_nonnegative_input():
    for ffn in FFN_IMPLS:
        dm = 3
        w1 = np.zeros((dm, 4 * dm))
        w1[:, :dm] = np.eye(dm)
        w2 = np.zeros((4 * dm, dm))
        w2[:dm, :] = np.eye(dm)
        p = {"f.W1": Var(w1), "f.b1": Var(np.zeros(4 * dm)),
             "f.W2": Var(w2), "f.b2": Var(np.zeros(dm))}
        x = np.abs(np.random.default_rng(5).normal(size=(1, 2, dm)))
        out = ffn(Var(x), p, "f")
        np.testing.assert_allclose(out.value, x, atol=1e-12)


def test_ffn_relu_clamps_negative_preactivation():
    for ffn in FFN_IMPLS:
        dm = 2
        p = {"f.W1": Var(np.eye(dm, 4 * dm)), "f.b1": Var(np.zeros(4 * dm)),
             "f.W2": Var(np.ones((4 * dm, dm))), "f.b2": Var(np.zeros(dm))}
        out = ffn(Var(-np.ones((1, 1, dm))), p, "f")
        np.testing.assert_array_equal(out.value, 0.0)


def _block_grads(block, x, params):
    """Output of block(x) and the gradients of a fixed random projection of it."""
    for p in params.values():
        p.grad = None
    xv = Var(x)
    out = block(xv, params)
    proj = np.random.default_rng(99).normal(size=out.shape)
    nn.backward(sum_(mul(out, proj)))
    return out.value, {"x": xv.grad, **{k: p.grad for k, p in params.items()}}


def _assert_grads_close(new, ref, zero=()):
    """Each gradient within 1e-10 of that gradient's largest entry. A gradient
    in `zero` is analytically zero (a key bias shifts every score of a query
    row alike, which softmax ignores), so both sides need only be rounding
    noise: below 1e-10 of the largest gradient of all."""
    scale = max(np.abs(g).max() for g in ref.values())
    for name, g in ref.items():
        if name in zero:
            assert np.abs(new[name]).max() <= 1e-10 * scale
            assert np.abs(g).max() <= 1e-10 * scale
        else:
            assert np.abs(new[name] - g).max() <= 1e-10 * np.abs(g).max(), name


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_attention_node_matches_primitive_ops(seed):
    rng = np.random.default_rng(seed)
    dm, heads = 8, 2
    params = {f"a.{name}": Var(rng.normal(size=(dm, dm)) * 0.4)
              for name in ("Wq", "Wk", "Wv", "Wo")}
    params.update({f"a.{name}": Var(rng.normal(size=dm) * 0.1)
                   for name in ("bq", "bk", "bv", "bo")})
    x = rng.normal(size=(3, 5, dm))
    results = [_block_grads(lambda v, p: mhsa(v, p, "a", heads), x, params)
               for mhsa in MHSA_IMPLS]
    (out, grads), (ref_out, ref_grads) = results
    assert np.abs(out - ref_out).max() <= 1e-12
    _assert_grads_close(grads, ref_grads, zero=("a.bk",))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_ffn_node_matches_primitive_ops(seed):
    rng = np.random.default_rng(seed)
    dm = 6
    params = {"f.W1": Var(rng.normal(size=(dm, 4 * dm)) * 0.4),
              "f.b1": Var(rng.normal(size=4 * dm) * 0.1),
              "f.W2": Var(rng.normal(size=(4 * dm, 3)) * 0.4), "f.b2": Var(rng.normal(size=3))}
    x = rng.normal(size=(4, 3, dm))
    results = [_block_grads(lambda v, p: ffn(v, p, "f"), x, params) for ffn in FFN_IMPLS]
    (out, grads), (ref_out, ref_grads) = results
    assert np.abs(out - ref_out).max() <= 1e-12
    _assert_grads_close(grads, ref_grads)


@pytest.mark.parametrize("head_mode", ["monotone", "literal"])
def test_forward_matches_primitive_op_reference(small_config, head_mode):
    cfg = dataclasses.replace(small_config, head_mode=head_mode)
    emb, user, score = _random_inputs(cfg, 6, cfg.l_o, seed=21)
    target = np.random.default_rng(22).uniform(size=(6, cfg.l_o, cfg.max_count))
    results = []
    for forward in (sortmodel.forward, lambda *args: forward_reference(*args, primitive=True)):
        params = sortmodel.init_params(cfg, seed=23)
        out = forward(cfg, params, emb, user, score)
        nn.backward(sum_(mul(add(out.click, out.pay), target)))
        results.append((out, {name: p.grad for name, p in params.items()}))
    (out, grads), (ref_out, ref_grads) = results
    assert np.abs(out.click.value - ref_out.click.value).max() <= 1e-12
    assert np.abs(out.pay.value - ref_out.pay.value).max() <= 1e-12
    _assert_grads_close(grads, ref_grads,
                        zero=tuple(f"layer{i}.attn.bk" for i in range(cfg.n_layers)))


def _fused_and_unfused(cfg, shifts=(0.0, 0.0)):
    """One step through the fused forward and loss, and one through the
    unfused tape, from the same perturbed parameters, with each head's first
    logit moved by its entry of `shifts`: asserts that the loss, the click
    and pay outputs and every parameter gradient have the same bits, and
    returns the click and pay outputs."""
    emb, user, score = _random_inputs(cfg, 7, cfg.l_o, seed=26)
    rng = np.random.default_rng(28)
    clicks = rng.integers(0, 2, size=(7, cfg.l_o))
    pays = clicks * rng.integers(0, 2, size=clicks.shape)
    results = []
    for fused in (True, False):
        params = _perturbed_params(cfg, seed=27)
        for head, shift in zip(sortmodel.HEADS, shifts):
            if cfg.head_mode == "monotone":
                params[f"{head}.thresholds"].value[0] -= shift  # the first cutpoint
            else:
                params[f"{head}.b2"].value[0] += shift
        out = (sortmodel.forward if fused else forward_reference)(cfg, params, emb, user, score)
        if cfg.loss_mode == "pointwise":
            loss = (values.pointwise_loss if fused else pointwise_loss_reference)(
                out, clicks, pays)
        else:
            ordered = values.ordered_regression_loss if fused else ordered_regression_loss_reference
            loss = ordered(out, np.cumsum(clicks, axis=1), np.cumsum(pays, axis=1))
        nn.backward(loss)
        results.append((loss.value, [out.click.value, out.pay.value],
                        {name: p.grad for name, p in params.items()}))
    (loss, outs, grads), (ref_loss, ref_outs, ref_grads) = results
    assert same_bits(loss, ref_loss)
    for a, b in zip(outs, ref_outs):
        assert same_bits(a, b)
    assert grads.keys() == ref_grads.keys()
    for name in grads:
        assert same_bits(grads[name], ref_grads[name]), name
    return outs


@pytest.mark.parametrize("max_count", [5, 1])
@pytest.mark.parametrize("loss_mode", ["ordered_regression", "pointwise"],
                         ids=["ordered", "pointwise"])
@pytest.mark.parametrize("head_mode", ["monotone", "literal"])
def test_fused_forward_and_loss_equal_the_unfused_tape_bit_for_bit(small_config, head_mode,
                                                                  loss_mode, max_count):
    # The block halves, cutpoints, masked sigmoid and loss as single nodes
    # change no bit of any output, loss or gradient. The unfused pointwise
    # loss reads the logits, the pointwise node the probabilities.
    _fused_and_unfused(dataclasses.replace(small_config, head_mode=head_mode,
                                           loss_mode=loss_mode, max_count=max_count))


@pytest.mark.parametrize("max_count", [5, 1])
@pytest.mark.parametrize("head_mode", ["monotone", "literal"])
def test_pointwise_node_equals_the_unfused_tape_with_the_clip_active(small_config, head_mode,
                                                                    max_count):
    # Each head's first logit is moved so that its median sits at a clip
    # bound, the click's upper and the pay's lower: about half the positions
    # clip, and their gradient is zero on both sides.
    cfg = dataclasses.replace(small_config, head_mode=head_mode, loss_mode="pointwise",
                              max_count=max_count)
    emb, user, score = _random_inputs(cfg, 7, cfg.l_o, seed=26)
    ref = forward_reference(cfg, _perturbed_params(cfg, seed=27), emb, user, score)
    bound = math.log((1.0 - values.PROB_CLAMP) / values.PROB_CLAMP)
    shifts = (bound - np.median(ref.click_logits.value[..., 0]),
              -bound - np.median(ref.pay_logits.value[..., 0]))
    click, pay = (p[..., 0] for p in _fused_and_unfused(cfg, shifts))
    top, bottom = 1.0 - values.PROB_CLAMP, values.PROB_CLAMP
    assert (click >= top).any() and (click < top).any()
    assert (pay <= bottom).any() and (pay > bottom).any()


@pytest.mark.parametrize("max_count", [5, 1])
def test_monotone_logits_node_equals_the_cutpoint_chain_bit_for_bit(max_count):
    rng = np.random.default_rng(29)
    params = {"score": Var(rng.normal(size=(3, 4, 1))), "t": Var(rng.normal(size=max_count))}
    target = rng.normal(size=(3, 4, max_count))
    results = []
    for fused in (True, False):
        nn.zero_grads(params)
        out = (monotone_logits(params["score"], params["t"]) if fused else
               monotone_logits_reference(params["score"], params["t"], max_count))
        nn.backward(sum_(mul(out, target)))
        results.append((out.value, params["score"].grad, params["t"].grad))
    for fused, ref in zip(*results):
        assert same_bits(fused, ref)

    def loss_fn():
        return sum_(mul(sigmoid(monotone_logits(params["score"], params["t"])),
                              target))

    assert finite_diff_check(params, loss_fn, step=1e-5, n_coords=17) < 1e-6


def _grads(params: dict) -> dict:
    return {name: p.grad for name, p in params.items() if p.grad is not None}


def _assert_same_grads(grads: dict, ref_grads: dict) -> None:
    assert grads.keys() == ref_grads.keys()
    for name in grads:
        assert same_bits(grads[name], ref_grads[name]), name


# Which outputs of the heads node the loss reads: both losses read the
# probabilities.
HEAD_OUTPUTS = {"probs": (0, 1)}


@pytest.mark.parametrize("head_mode", ["monotone", "literal"])
@pytest.mark.parametrize("used", list(HEAD_OUTPUTS))
def test_heads_node_equals_the_head_tape_bit_for_bit(small_config, head_mode, used):
    cfg = dataclasses.replace(small_config, head_mode=head_mode)
    rng = np.random.default_rng(31)
    params = _perturbed_params(cfg, seed=32)
    params["x"] = Var(rng.normal(size=(3, cfg.l_o, cfg.d_model)))
    mask = sortmodel.valid_mask(cfg.l_o, cfg.max_count).astype(np.float64)
    targets = rng.normal(size=(4, 3, cfg.l_o, cfg.max_count))

    def loss(node):
        outs = node(cfg, params, params["x"], mask)
        total = None
        for k in HEAD_OUTPUTS[used]:
            term = sum_(mul(outs[k], targets[k]))
            total = term if total is None else add(total, term)
        return outs, total

    results = []
    for node in (sortmodel._heads_node, heads_reference):
        nn.zero_grads(params)
        outs, total = loss(node)
        nn.backward(total)
        results.append(([o.value for o in outs], total.value, _grads(params)))
    (outs, total, grads), (ref_outs, ref_total, ref_grads) = results
    for a, b in zip(outs, ref_outs):
        assert same_bits(a, b)
    assert same_bits(total, ref_total)
    _assert_same_grads(grads, ref_grads)
    assert "x" in grads and "final_ln.g" in grads and "head_pay.W1" in grads
    assert finite_diff_check(params, lambda: loss(sortmodel._heads_node)[1],
                             step=1e-6, n_coords=80) < 1e-5


def test_heads_node_without_input_gradient_still_trains_the_heads(small_config):
    rng = np.random.default_rng(35)
    params = _perturbed_params(small_config, seed=36)
    x = Var(rng.normal(size=(2, small_config.l_o, small_config.d_model)), requires_grad=False)
    mask = sortmodel.valid_mask(small_config.l_o, small_config.max_count).astype(np.float64)
    results = []
    for node in (sortmodel._heads_node, heads_reference):
        nn.zero_grads(params)
        nn.backward(sum_(node(small_config, params, x, mask)[1]))  # the pay probabilities
        results.append(_grads(params))
    _assert_same_grads(*results)
    assert x.grad is None
    assert not any(name.startswith("head_click") for name in results[0])


@pytest.mark.parametrize("n, l", [(4, 3), (1, 5)])
def test_input_node_equals_the_concat_and_linear_tape_bit_for_bit(small_config, n, l):
    params = _perturbed_params(small_config, seed=33)
    emb, user, score = _random_inputs(small_config, n, l, seed=34)
    target = np.random.default_rng(37).normal(size=(n, l, small_config.d_model))

    def loss(node):
        x = node(small_config, params, emb, user, score)
        return x, sum_(mul(x, target))

    results = []
    for node in (sortmodel._input_node, input_reference):
        nn.zero_grads(params)
        x, total = loss(node)
        nn.backward(total)
        results.append((x.value, _grads(params)))
    (x, grads), (ref_x, ref_grads) = results
    assert x.shape == (n, l, small_config.d_model)
    assert same_bits(x, ref_x)
    _assert_same_grads(grads, ref_grads)
    assert grads.keys() == {"pos.table", "proj.W", "proj.b"}
    assert (grads["pos.table"][l:] == 0.0).all()
    used = {name: params[name] for name in grads}
    assert finite_diff_check(used, lambda: loss(sortmodel._input_node)[1],
                             step=1e-6, n_coords=60) < 1e-6


def test_input_node_with_a_frozen_position_table_skips_its_gradient(small_config):
    params = _perturbed_params(small_config, seed=38)
    params["pos.table"].requires_grad = False
    emb, user, score = _random_inputs(small_config, 2, 4, seed=39)
    for node in (sortmodel._input_node, input_reference):
        nn.zero_grads(params)
        nn.backward(sum_(node(small_config, params, emb, user, score)))
        assert params["pos.table"].grad is None and params["proj.W"].grad is not None


# ---------------------------- input assembly --------------------------------


def test_assemble_concat_width(small_config, small_params):
    emb, user, score = _random_inputs(small_config, 2, 3)
    x = sortmodel.assemble_input(small_config, small_params, emb, user, score)
    assert x.shape == (2, 3, small_config.d_input)
    assert small_config.d_input == 8 + 4 + 8 + 2


def test_assemble_user_block_replicated(small_config, small_params):
    emb, user, score = _random_inputs(small_config, 1, 3)
    x = sortmodel.assemble_input(small_config, small_params, emb, user, score)
    u0 = small_config.d_emb + small_config.d_position
    block = x[0, :, u0:u0 + small_config.d_user]
    assert (block == block[0]).all()


def test_assemble_rejects_empty_and_overlong(small_config, small_params):
    emb, user, score = _random_inputs(small_config, 1, small_config.l_o + 1)
    with pytest.raises(ConfigError):
        sortmodel.assemble_input(small_config, small_params, emb, user, score)
    with pytest.raises(ConfigError):
        sortmodel.assemble_input(small_config, small_params, emb[:, :0], user, score[:, :0])


def test_forward_rejects_a_wrong_feature_width(small_config, small_params):
    emb, user, score = _random_inputs(small_config, 2, 3)
    for args in ((emb[..., :-1], user, score), (emb, user[:, :-1], score),
                 (emb, user, np.concatenate([score, score[..., :1]], axis=-1))):
        with pytest.raises(ConfigError) as exc:
            sortmodel.forward(small_config, small_params, *args)
        assert str(exc.value) == "feature width mismatch"


# ------------------------------- forward ------------------------------------


def _step(config, params, batch, workspace):
    """One training step's forward, loss and backward; copies of the two
    outputs, the loss and every parameter gradient."""
    nn.zero_grads(params)
    out = sortmodel.forward(config, params, batch.emb, batch.user, batch.score,
                            workspace=workspace)
    loss = trainer._output_loss(config, out, batch, workspace)
    nn.backward(loss)
    values_ = [v.value.copy() for v in (out.click, out.pay, loss)]
    return values_, {name: p.grad.copy() for name, p in params.items()}


@pytest.mark.parametrize("head_mode", ["monotone", "literal"])
@pytest.mark.parametrize("loss_mode", ["ordered_regression", "pointwise"])
def test_workspace_steps_equal_allocating_steps_bit_for_bit(small_config, head_mode,
                                                            loss_mode):
    # Two full batches and a shorter final one through one workspace, each
    # against the same step with new arrays: outputs, loss and every
    # parameter gradient have the same bits.
    config = dataclasses.replace(small_config, head_mode=head_mode, loss_mode=loss_mode)
    params = sortmodel.init_params(config, seed=11)
    rng = np.random.default_rng(11)
    workspace = nn.Workspace()
    for step, n in enumerate((6, 6, 4)):
        emb, user, score = _random_inputs(config, n, config.l_o, seed=step)
        clicks = rng.integers(0, 2, size=(n, config.l_o))
        pays = clicks * rng.integers(0, 2, size=(n, config.l_o))
        batch = trainer._Arrays(emb, score, user, clicks, pays, np.cumsum(clicks, axis=1),
                                np.cumsum(pays, axis=1))
        want_values, want_grads = _step(config, params, batch, None)
        got_values, got_grads = _step(config, params, batch, workspace)
        assert all(same_bits(a, b) for a, b in zip(got_values, want_values)), step
        assert want_grads.keys() == got_grads.keys()
        for name, grad in want_grads.items():
            assert same_bits(got_grads[name], grad), (step, name)


def test_forwards_share_memory_only_through_a_workspace(small_config, small_params):
    emb, user, score = _random_inputs(small_config, 3, 4)

    def outputs(workspace):
        out = sortmodel.forward(small_config, small_params, emb, user, score,
                                workspace=workspace)
        return [v.value for v in (out.click, out.pay)]

    first, second = outputs(None), outputs(None)
    assert not any(np.shares_memory(a, b) for a in first for b in second)
    workspace = nn.Workspace()
    first, second = outputs(workspace), outputs(workspace)
    assert all(np.shares_memory(a, b) for a, b in zip(first, second))


def test_forward_causality_rows(small_config, small_params):
    emb, user, score = _random_inputs(small_config, 1, 5, seed=10)
    base = sortmodel.forward(small_config, small_params, emb, user, score)
    emb2 = emb.copy()
    emb2[0, 4] = np.roll(emb2[0, 4], 1)
    pert = sortmodel.forward(small_config, small_params, emb2, user, score)
    assert (base.click.value[0, :4] == pert.click.value[0, :4]).all()
    assert (base.pay.value[0, :4] == pert.pay.value[0, :4]).all()


def test_forward_probability_range_and_zero_mask(small_config, small_params):
    emb, user, score = _random_inputs(small_config, 3, 5, seed=11)
    out = sortmodel.forward(small_config, small_params, emb, user, score)
    for probs in (out.click.value, out.pay.value):
        assert probs.min() >= 0.0 and probs.max() <= 1.0
        # i > j entries exactly zero
        for j in range(5):
            assert (probs[:, j, j + 1:] == 0.0).all()


def test_forward_monotone_mode_nonincreasing(small_config, small_params):
    emb, user, score = _random_inputs(small_config, 4, 5, seed=12)
    out = sortmodel.forward(small_config, small_params, emb, user, score)
    for j in range(5):
        col = out.click.value[:, j, : j + 1]
        assert (np.diff(col, axis=-1) <= 1e-12).all()


def test_forward_zero_head_weights_half_probability():
    cfg = EngineConfig(l_s=6, l_o=4, max_count=4, d_model=16, n_heads=2,
                       n_layers=1, head_mode="literal")
    params = sortmodel.init_params(cfg, seed=0)
    for head in ("head_click", "head_pay"):
        for tail in ("W1", "b1", "W2", "b2"):
            params[f"{head}.{tail}"].value[...] = 0.0
    emb, user, score = _random_inputs(cfg, 2, 4, seed=13)
    out = sortmodel.forward(cfg, params, emb, user, score)
    for j in range(4):
        np.testing.assert_allclose(out.click.value[:, j, : j + 1], 0.5, atol=1e-12)


def test_forward_batch_determinism(small_config, small_params):
    emb, user, score = _random_inputs(small_config, 1, 4, seed=14)
    emb3 = np.repeat(emb, 3, axis=0)
    user3 = np.repeat(user, 3, axis=0)
    score3 = np.repeat(score, 3, axis=0)
    out = sortmodel.forward(small_config, small_params, emb3, user3, score3)
    assert (out.click.value[0] == out.click.value[1]).all()
    assert (out.pay.value[1] == out.pay.value[2]).all()


def test_prefix_consistency(small_config, small_params):
    emb, user, score = _random_inputs(small_config, 1, 5, seed=15)
    full = sortmodel.forward(small_config, small_params, emb, user, score)
    for t in (1, 2, 3, 4):
        part = sortmodel.forward(small_config, small_params,
                                 emb[:, :t], user, score[:, :t])
        np.testing.assert_allclose(part.click.value[0], full.click.value[0, :t],
                                   atol=1e-12)
        np.testing.assert_allclose(part.pay.value[0], full.pay.value[0, :t],
                                   atol=1e-12)


# ----------------------------- init & ckpt -----------------------------------


def test_init_deterministic(small_config):
    a = sortmodel.init_params(small_config, seed=5)
    b = sortmodel.init_params(small_config, seed=5)
    for name in a:
        assert (a[name].value == b[name].value).all()


def test_param_count_matches_closed_form(small_config, small_params):
    assert param_count(small_params) == sortmodel.expected_param_count(small_config)
    literal = dataclasses.replace(small_config, head_mode="literal")
    p = sortmodel.init_params(literal, seed=0)
    assert param_count(p) == sortmodel.expected_param_count(literal)


def test_init_logits_unsaturated(small_config):
    worst = 0.0
    for seed in range(100):
        params = sortmodel.init_params(small_config, seed=seed)
        emb, user, score = _random_inputs(small_config, 1, 5, seed=seed)
        out = forward_reference(small_config, params, emb, user, score)  # it keeps the logits
        worst = max(worst, np.abs(out.click_logits.value).max(),
                    np.abs(out.pay_logits.value).max())
    assert worst < 20.0


def test_checkpoint_round_trip(tmp_path, small_config, small_params):
    path = tmp_path / "model.ckpt"
    sortmodel.save_checkpoint(path, small_params, small_config)
    loaded, cfg = sortmodel.load_checkpoint(path)
    assert cfg == small_config
    emb, user, score = _random_inputs(small_config, 2, 5, seed=16)
    a = sortmodel.forward(small_config, small_params, emb, user, score)
    b = sortmodel.forward(cfg, loaded, emb, user, score)
    np.testing.assert_allclose(a.click.value, b.click.value, atol=1e-12)
    np.testing.assert_allclose(a.pay.value, b.pay.value, atol=1e-12)


def _params_with_special_values(config, seed):
    """Parameters with entries over the whole float64 range, and -0.0, the
    smallest subnormal, 1e308 and 0.1 among them."""
    rng = np.random.default_rng(seed)
    specials = [-0.0, 5e-324, -5e-324, 1e308, -1e308, 0.1, 0.0]
    params = {}
    for name, shape in sortmodel.param_shapes(config).items():
        flat = rng.normal(size=shape).ravel() * 10.0 ** rng.integers(-320, 300, size=math.prod(shape))
        picks = rng.choice(flat.size, size=min(flat.size, len(specials)), replace=False)
        flat[picks] = specials[:len(picks)]
        params[name] = Var(flat.reshape(shape))
    return params


@pytest.mark.parametrize("seed", [41, 42])
def test_checkpoint_bytes_and_loads_equal_the_per_element_reference(tmp_path, small_config, seed):
    params = _params_with_special_values(small_config, seed)
    path, ref_path = tmp_path / "model.ckpt", tmp_path / "reference.ckpt"
    sortmodel.save_checkpoint(path, params, small_config)
    save_checkpoint_reference(ref_path, params, small_config)
    assert path.read_bytes() == ref_path.read_bytes()
    doc = json.loads(path.read_text())
    loaded, _ = sortmodel.load_checkpoint(path)
    for name, p in params.items():
        assert same_bits(loaded[name].value, p.value), name
        assert same_bits(loaded[name].value,
                         parse_values_reference(doc["params"][name]["data"]).reshape(p.shape))


@pytest.mark.parametrize("bad", ["abc", None, [1.0]], ids=["string", "null", "nested"])
def test_checkpoint_value_errors_equal_the_per_element_reference(tmp_path, small_config, bad):
    path = tmp_path / "model.ckpt"
    sortmodel.save_checkpoint(path, sortmodel.init_params(small_config, seed=1), small_config)
    doc = json.loads(path.read_text())
    doc["params"]["proj.W"]["data"][3] = bad
    path.write_text(json.dumps(doc))
    with pytest.raises((TypeError, ValueError)) as ref:
        parse_values_reference(doc["params"]["proj.W"]["data"])
    with pytest.raises(ConfigError) as info:
        sortmodel.load_checkpoint(path)
    assert str(info.value) == f"checkpoint parameter 'proj.W': {ref.value}"


def test_checkpoint_of_another_format_is_rejected(tmp_path, small_config, small_params):
    path = tmp_path / "model.ckpt"
    sortmodel.save_checkpoint(path, small_params, small_config)
    doc = json.loads(path.read_text())
    doc["format_version"] = "sortgen-ckpt-v0"
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigError) as exc:
        sortmodel.load_checkpoint(path)
    assert str(exc.value) == "unsupported checkpoint format 'sortgen-ckpt-v0'"


def test_checkpoint_hash_verified(tmp_path, small_config, small_params):
    path = tmp_path / "model.ckpt"
    sortmodel.save_checkpoint(path, small_params, small_config)
    doc = json.loads(path.read_text())
    doc["config"]["l_o"] = 4
    doc["config"]["max_count"] = 4
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigError, match="hash"):
        sortmodel.load_checkpoint(path)


@pytest.mark.parametrize("coeffs, priority, named", [
    ({"ctr": "5"}, 0, "coeffs.ctr"), ({"ctr": float("nan")}, 0, "coeffs.ctr"),
    ({"ctr": True}, 0, "coeffs.ctr"), ({"ctr": [1]}, 0, "coeffs.ctr"),
    ({"ctr": 1.0}, "0", "priority"),
], ids=["str", "nan", "bool", "list", "str_priority"])
def test_checkpoint_with_a_bad_queue_field_is_a_config_error(tmp_path, small_config,
                                                             small_params, coeffs, priority,
                                                             named):
    # The config hash is recomputed over the edited config, so only the
    # queue's own check can refuse it, at load and not on the first rerank.
    path = tmp_path / "model.ckpt"
    sortmodel.save_checkpoint(path, small_params, small_config)
    doc = json.loads(path.read_text())
    queue = doc["config"]["queue_specs"][0]
    queue.update(coeffs=coeffs, priority=priority)
    blob = json.dumps(doc["config"], sort_keys=True)
    doc["config_hash"] = hashlib.sha256(blob.encode("utf-8")).hexdigest()
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigError, match=f"^checkpoint: queue {queue['name']}: {named} "):
        sortmodel.load_checkpoint(path)


def test_loaded_checkpoint_is_frozen(tmp_path, small_config, small_params):
    path = tmp_path / "model.ckpt"
    sortmodel.save_checkpoint(path, small_params, small_config)
    loaded, cfg = sortmodel.load_checkpoint(path)
    assert not any(p.requires_grad for p in loaded.values())
    assert not any(p.value.flags.writeable for p in loaded.values())
    emb, user, score = _random_inputs(cfg, 2, cfg.l_o, seed=17)
    out = sortmodel.forward(cfg, loaded, emb, user, score)
    for v in (out.click, out.pay):
        assert not v.requires_grad and v._parents == () and v._bw is None
    loss = sum_(out.click)
    with pytest.raises(ValueError, match="does not require grad"):
        nn.backward(loss)


def test_adam_init_fine_tunes_a_loaded_checkpoint(tmp_path, small_config, small_params):
    # The loaded arrays are immutable; adam_init copies them into its own buffer.
    path = tmp_path / "model.ckpt"
    sortmodel.save_checkpoint(path, small_params, small_config)
    loaded, cfg = sortmodel.load_checkpoint(path)
    before = {name: p.value for name, p in loaded.items()}
    for p in loaded.values():
        p.requires_grad = True
    state = nn.adam_init(loaded, lr=1e-2)
    emb, user, score = _random_inputs(cfg, 2, cfg.l_o, seed=17)
    nn.backward(sum_(sortmodel.forward(cfg, loaded, emb, user, score).click))
    nn.adam_step(loaded, state)
    assert all(p.value.flags.writeable for p in loaded.values())
    assert not all(np.array_equal(p.value, before[name]) for name, p in loaded.items())
    again, _ = sortmodel.load_checkpoint(path)
    assert all(np.array_equal(before[name], p.value) for name, p in again.items())


# -------------------------- tape-free inference ------------------------------


@pytest.mark.parametrize("head_mode", ["monotone", "literal"])
def test_infer_matches_tape_forward(small_config, head_mode):
    # The test that ties the packed weights to the parameters: every bias,
    # gain, position row and threshold is moved off its initial value, so
    # one that the packing drops or misplaces changes the output.
    cfg = dataclasses.replace(small_config, head_mode=head_mode)
    params = _perturbed_params(cfg, seed=18)
    packed = sortmodel.InferenceWeights.from_params(cfg, params)
    for l in range(1, cfg.l_o + 1):
        emb, user, score = _random_inputs(cfg, 4, l, seed=100 + l)
        out = sortmodel.forward(cfg, params, emb, user, score)
        click, pay = sortmodel.infer(packed, emb, user, score)
        assert np.abs(click - out.click.value).max() <= 1e-12
        assert np.abs(pay - out.pay.value).max() <= 1e-12


def _logit_bounds(packed):
    """Each block's per-head bound B_h on |q . k|: minus the packed Q bias's
    extra column, [n_layers, n_heads]."""
    heads = packed.config.n_heads
    return np.array([-b.qkv_b.reshape(3, heads, -1)[0, :, -1] for b in packed.blocks])


def _scaled_qk(cfg, params, factors):
    """params with each head's Wq, bq, Wk and bk columns times
    factors[layer][head], which scales its bound B_h by that factor squared."""
    dh = cfg.d_model // cfg.n_heads
    scaled = dict(params)
    for i, row in enumerate(factors):
        for name in ("Wq", "bq", "Wk", "bk"):
            value = params[f"layer{i}.attn.{name}"].value.copy()
            for h, c in enumerate(row):
                value[..., h * dh:(h + 1) * dh] *= c
            scaled[f"layer{i}.attn.{name}"] = Var(value)
    return scaled


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_spectral_bound_is_never_below_the_spectral_norm(data):
    # The bound is at least the SVD's spectral norm, up to rounding, and at
    # most n^(1/32) times it for n columns, for blocks of any rank and of
    # scales whose squared entries stay normal doubles, and 0 for a zero
    # block.
    m, n = data.draw(st.integers(1, 40), label="rows"), data.draw(st.integers(1, 24),
                                                                   label="columns")
    rank = data.draw(st.integers(0, min(m, n)), label="rank")
    scale = 10.0 ** data.draw(st.integers(-100, 100), label="scale")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    a = rng.normal(size=(m, rank)) @ rng.normal(size=(rank, n)) * scale
    if data.draw(st.booleans(), label="spiky"):
        a *= rng.lognormal(0.0, 3.0, size=n)
    got, sigma = sortmodel._spectral_bound(a), np.linalg.norm(a, 2)
    assert got >= (1.0 - 1e-12) * sigma
    assert got <= (1.0 + 1e-12) * n ** (1 / 32) * sigma
    assert (got == 0.0) == (sigma == 0.0)


def test_packing_computes_no_svd(monkeypatch):
    # The logit bounds come from matrix products, so packing the default
    # model loads no LAPACK SVD, whose pages an SVD faults into every
    # process that packs.
    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg.svd called")

    for module in (np.linalg, getattr(np.linalg, "_linalg", np.linalg)):
        monkeypatch.setattr(module, "svd", refuse)
    config = EngineConfig()
    packed = sortmodel.InferenceWeights.from_params(config, sortmodel.init_params(config))
    assert (_logit_bounds(packed) > 0.0).all()


def test_packing_refuses_a_head_whose_logit_bound_reaches_the_limit(small_config):
    # Head 1 of layer 1 alone is pushed past SHIFT_LIMIT; the error names it.
    params = _perturbed_params(small_config, seed=26)
    bounds = _logit_bounds(sortmodel.InferenceWeights.from_params(small_config, params))
    assert (bounds < 10.0).all()
    factors = np.ones_like(bounds)
    factors[1, 1] = math.sqrt(1.01 * sortmodel.SHIFT_LIMIT / bounds[1, 1])
    with pytest.raises(ConfigError, match=r"layer 1 head 1: attention logit bound 35\d\.\d+ "):
        sortmodel.InferenceWeights.from_params(small_config,
                                               _scaled_qk(small_config, params, factors))
    factors[1, 1] = math.sqrt(0.99 * sortmodel.SHIFT_LIMIT / bounds[1, 1])
    sortmodel.InferenceWeights.from_params(small_config, _scaled_qk(small_config, params, factors))


@pytest.mark.parametrize("head_mode", ["monotone", "literal"])
def test_packed_forwards_match_the_tape_at_the_edge_of_the_logit_bound(small_config, head_mode):
    # Every head's Q and K scaled so that B_h is just under SHIFT_LIMIT: the
    # GEMM shifts every score by about -350 (the shifted scores span about
    # -394 to -299 here), yet infer and extend stay finite and match the tape
    # forward, which takes each row's max, to 1e-12 relative.
    cfg = dataclasses.replace(small_config, head_mode=head_mode)
    params = _perturbed_params(cfg, seed=27)
    bounds = _logit_bounds(sortmodel.InferenceWeights.from_params(cfg, params))
    params = _scaled_qk(cfg, params, np.sqrt(0.999 * sortmodel.SHIFT_LIMIT / bounds))
    packed = sortmodel.InferenceWeights.from_params(cfg, params)
    edge = _logit_bounds(packed)
    assert ((edge > 0.998 * sortmodel.SHIFT_LIMIT) & (edge < sortmodel.SHIFT_LIMIT)).all()
    n = 3
    emb, users, score = _random_inputs(cfg, n, cfg.l_o, seed=28)
    users[:] = users[0]
    prefix = sortmodel.Prefix.empty(packed, users[0], n)
    path: list[int] = []  # the candidate chosen at each earlier step
    for t in range(cfg.l_o):
        def full(a):
            """Each candidate's whole sequence: the chosen rows, then its own."""
            return np.concatenate([np.repeat(a[path, np.arange(t)][None], n, axis=0),
                                   a[:, t, None]], axis=1)

        tape = sortmodel.forward(cfg, params, full(emb), users, full(score))
        whole = sortmodel.infer(packed, full(emb), users, full(score))
        step = sortmodel.extend(packed, prefix, packed.project(emb[:, t], score[:, t]))
        for want, got_whole, got_step in zip((tape.click.value, tape.pay.value), whole, step):
            assert np.isfinite(got_whole).all() and np.isfinite(got_step).all()
            np.testing.assert_allclose(got_whole, want, rtol=1e-12, atol=0.0)
            np.testing.assert_allclose(got_step, want[:, -1], rtol=1e-12, atol=0.0)
        path.append(t % n)
        prefix.choose(t % n)


@pytest.mark.parametrize("head_mode", ["monotone", "literal"])
def test_extend_matches_full_recomputation(small_config, head_mode):
    cfg = dataclasses.replace(small_config, head_mode=head_mode)
    params = sortmodel.init_params(cfg, seed=19)
    packed = sortmodel.InferenceWeights.from_params(cfg, params)
    rng = np.random.default_rng(20)
    user = rng.normal(size=cfg.d_user)
    n = 3
    prefix = sortmodel.Prefix.empty(packed, user, n)
    emb = np.zeros((0, cfg.d_emb))
    score = np.zeros((0, 2))
    for t in range(cfg.l_o):
        cand_emb = rng.normal(size=(n, cfg.d_emb))
        cand_score = rng.uniform(size=(n, 2))
        ext_click, ext_pay = sortmodel.extend(packed, prefix, packed.project(cand_emb, cand_score))
        full_emb = np.concatenate([np.repeat(emb[None], n, axis=0), cand_emb[:, None]], axis=1)
        full_score = np.concatenate([np.repeat(score[None], n, axis=0), cand_score[:, None]],
                                    axis=1)
        click, pay = sortmodel.infer(packed, full_emb, np.tile(user, (n, 1)), full_score)
        # The step returns the new position's rows: the full forward's last.
        assert ext_click.shape == (n, cfg.max_count)
        assert np.abs(ext_click - click[:, -1]).max() <= 1e-12
        assert np.abs(ext_pay - pay[:, -1]).max() <= 1e-12
        k = t % n
        prefix.choose(k)
        emb = np.concatenate([emb, cand_emb[k:k + 1]])
        score = np.concatenate([score, cand_score[k:k + 1]])
        assert len(prefix) == t + 1


def test_choose_copies_the_chosen_rows_slot_to_the_end_of_the_prefix(small_config):
    cfg = small_config
    packed = sortmodel.InferenceWeights.from_params(cfg, sortmodel.init_params(cfg, seed=23))
    rng = np.random.default_rng(24)
    width = 6
    prefix = sortmodel.Prefix.empty(packed, rng.normal(size=cfg.d_user), width)
    # Each head's key and value carry the packed softmax column after d_head.
    assert prefix.kv.shape == (cfg.n_layers, 2, cfg.n_heads, cfg.l_o + width,
                               cfg.d_model // cfg.n_heads + 1)
    kept = None
    while len(prefix) < cfg.l_o:
        t = len(prefix)
        parents = [-1, -1, 0, 1, 1, 1] if t + 1 < cfg.l_o else [-1, -1, -1]
        m = len(parents)
        sortmodel.extend(packed, prefix, packed.project(rng.normal(size=(m, cfg.d_emb)),
                                                        rng.uniform(size=(m, 2))), parents)
        written = prefix.kv[:, :, :, t:t + m].copy()  # row r's key and value: slot t + r
        assert kept is None or same_bits(prefix.kv[:, :, :, :t], kept)
        root = t % 2
        prefix.choose(root)
        assert same_bits(prefix.kv[:, :, :, t], written[:, :, :, root])
        children = [r for r, p in enumerate(parents) if p == root]
        if children:
            prefix.choose(children[-1])
            assert same_bits(prefix.kv[:, :, :, t + 1], written[:, :, :, children[-1]])
        kept = prefix.kv[:, :, :, :len(prefix)].copy()


def test_choose_follows_the_tree_of_the_last_extend(small_config, small_params):
    # A root first, then one of its children; nothing else extends the prefix.
    packed = sortmodel.InferenceWeights.from_params(small_config, small_params)
    rows = packed.project(np.ones((5, small_config.d_emb)), np.ones((5, 2)))
    parents = [-1, -1, 0, 1, 1]
    prefix = sortmodel.Prefix.empty(packed, np.zeros(small_config.d_user), 5)
    with pytest.raises(ConfigError, match="does not follow"):
        prefix.choose(0)  # nothing scored yet
    for path in ([2], [5], [-1], [0, 3], [1, 2], [0, 2, 2]):
        prefix = sortmodel.Prefix.empty(packed, np.zeros(small_config.d_user), 5)
        sortmodel.extend(packed, prefix, rows, parents)
        for r in path[:-1]:
            prefix.choose(r)
        with pytest.raises(ConfigError, match="does not follow"):
            prefix.choose(path[-1])
        assert len(prefix) == len(path) - 1
    prefix = sortmodel.Prefix.empty(packed, np.zeros(small_config.d_user), 5)
    sortmodel.extend(packed, prefix, rows, parents)
    prefix.choose(1)
    prefix.choose(4)
    assert len(prefix) == 2


def test_extend_rejects_a_tree_past_the_last_position(small_config, small_params):
    packed = sortmodel.InferenceWeights.from_params(small_config, small_params)
    prefix = sortmodel.Prefix.empty(packed, np.zeros(small_config.d_user), 2)
    row = packed.project(np.ones((1, small_config.d_emb)), np.ones((1, 2)))
    for _ in range(small_config.l_o - 1):
        sortmodel.extend(packed, prefix, row)
        prefix.choose(0)
    with pytest.raises(ConfigError, match=f"sequence length {small_config.l_o + 1} exceeds"):
        sortmodel.extend(packed, prefix, np.concatenate([row, row]), [-1, 0])
    assert sortmodel.extend(packed, prefix, np.concatenate([row, row]))[0].shape == (
        2, small_config.max_count)


@pytest.mark.parametrize("parents", [[-1, 0, 1], [0, -1, -1], [-1, -2, 0], [-1, 2, -1],
                                     [-1, -1, 5], [-1, 0]])
def test_extend_rejects_a_parent_that_is_not_an_earlier_root(small_config, small_params,
                                                             parents):
    packed = sortmodel.InferenceWeights.from_params(small_config, small_params)
    prefix = sortmodel.Prefix.empty(packed, np.zeros(small_config.d_user), 3)
    rows = packed.project(np.ones((3, small_config.d_emb)), np.ones((3, 2)))
    with pytest.raises(ConfigError, match="parent"):
        sortmodel.extend(packed, prefix, rows, parents)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2**32 - 1),
       head_mode=st.sampled_from(["monotone", "literal"]))
def test_every_tree_row_equals_infer_over_its_own_path(small_config, data, seed, head_mode):
    # The greedy tree of 1-5 live queues at prefix length t: each head at
    # position t, and under each head the heads live once it is chosen (a
    # queue without a next item shortens its own branch). Each row's survival
    # rows equal the last row of `infer` over its own path: the prefix, its
    # parent if any, then the row. Slots [:t] keep their bits.
    cfg = dataclasses.replace(small_config, head_mode=head_mode)
    n_queues = data.draw(st.integers(1, 5), label="queues")
    t = data.draw(st.integers(0, cfg.l_o - 2), label="t")
    has_next = data.draw(st.lists(st.booleans(), min_size=n_queues, max_size=n_queues),
                         label="has_next")
    live = list(range(n_queues))
    cursors = [2 * q for q in live]
    ends = [2 * q + 1 + nxt for q, nxt in zip(live, has_next)]
    nxt, branch = generation._tree(live, cursors, ends)
    slots, parents = cursors + nxt, [-1] * n_queues + branch
    packed = sortmodel.InferenceWeights.from_params(cfg, _perturbed_params(cfg, seed % 1000))
    emb, users, score = _random_inputs(cfg, 1, 2 * n_queues + t, seed=seed % 997)
    emb, score, user = emb[0], score[0], users[0]  # held rows, then the prefix's rows
    path = list(range(2 * n_queues, 2 * n_queues + t))
    prefix = sortmodel.Prefix.empty(packed, user, len(slots))
    for row in path:
        sortmodel.extend(packed, prefix, packed.project(emb[[row]], score[[row]]))
        prefix.choose(0)
    kept = prefix.kv[:, :, :, :t].copy()
    click, pay = sortmodel.extend(packed, prefix, packed.project(emb[slots], score[slots]),
                                  parents)
    assert same_bits(prefix.kv[:, :, :, :t], kept)
    assert click.shape == pay.shape == (len(slots), cfg.max_count)
    for depth in (0, 1):
        rows = [r for r, p in enumerate(parents) if (p >= 0) == depth]
        if not rows:
            continue
        seqs = np.array([path + [slots[parents[r]]] * depth + [slots[r]] for r in rows])
        want_click, want_pay = sortmodel.infer(packed, emb[seqs], np.tile(user, (len(rows), 1)),
                                               score[seqs])
        assert np.abs(click[rows] - want_click[:, -1]).max() <= 1e-12
        assert np.abs(pay[rows] - want_pay[:, -1]).max() <= 1e-12


def test_extend_rejects_overlong_prefix(small_config, small_params):
    packed = sortmodel.InferenceWeights.from_params(small_config, small_params)
    prefix = sortmodel.Prefix.empty(packed, np.zeros(small_config.d_user), 1)
    row = packed.project(np.ones((1, small_config.d_emb)), np.ones((1, 2)))
    for _ in range(small_config.l_o):
        sortmodel.extend(packed, prefix, row)
        prefix.choose(0)
    with pytest.raises(ConfigError, match="exceeds"):
        sortmodel.extend(packed, prefix, row)


def test_extend_rejects_more_candidates_than_the_width(small_config, small_params):
    packed = sortmodel.InferenceWeights.from_params(small_config, small_params)
    prefix = sortmodel.Prefix.empty(packed, np.zeros(small_config.d_user), 2)
    rows = packed.project(np.ones((3, small_config.d_emb)), np.ones((3, 2)))
    with pytest.raises(ConfigError, match="width of 2"):
        sortmodel.extend(packed, prefix, rows)
    with pytest.raises(ConfigError, match="width of 2"):
        sortmodel.extend(packed, prefix, rows[:0])
    assert sortmodel.extend(packed, prefix, rows[:2])[0].shape == (2, small_config.max_count)


def test_packed_step_rejects_a_wrong_feature_width(small_config, small_params):
    packed = sortmodel.InferenceWeights.from_params(small_config, small_params)
    d_emb, d_user = small_config.d_emb, small_config.d_user
    prefix = sortmodel.Prefix.empty(packed, np.zeros(d_user), 2)
    row = packed.project(np.ones((2, d_emb)), np.ones((2, 2)))
    for call in (lambda: packed.project(np.ones((2, d_emb + 1)), np.ones((2, 2))),
                 lambda: packed.project(np.ones((2, d_emb)), np.ones((2, 3))),
                 lambda: sortmodel.Prefix.empty(packed, np.zeros(d_user + 1), 2),
                 lambda: sortmodel.extend(packed, prefix, row[:, :-1])):
        with pytest.raises(ConfigError, match="feature width"):
            call()


def _perturbed_params(config, seed):
    """init_params with every entry moved, so that a bias, gain, position
    row or threshold that the packing drops or misplaces changes the output."""
    rng = np.random.default_rng(seed)
    return {name: Var(p.value + rng.normal(0.0, 0.1, size=p.value.shape))
            for name, p in sortmodel.init_params(config, seed=seed).items()}


@pytest.mark.parametrize("head_mode", ["monotone", "literal"])
def test_packed_step_matches_full_forward(small_config, head_mode):
    # At every prefix length, each candidate's new survival row from the
    # cached step equals the last row of the no-cache forward `infer` on the
    # same packed weights, and the value of each extended list from that row
    # and the prefix's running expected pay count and GMV equals
    # combined_values_batch over the full forward, all to 1e-12 relative.
    cfg = dataclasses.replace(small_config, head_mode=head_mode)
    params = _perturbed_params(cfg, seed=21)
    packed = sortmodel.InferenceWeights.from_params(cfg, params)
    weights = ObjectiveWeights(alpha=2.0, beta=3.0, gamma=1.5)
    n = 4
    emb, users, score = _random_inputs(cfg, n, cfg.l_o, seed=22)  # candidates at step t: [:, t]
    price = np.random.default_rng(23).lognormal(3.0, 0.6, size=(n, cfg.l_o))
    user = users[0]
    prefix = sortmodel.Prefix.empty(packed, user, n)
    pay_count, gmv = 0.0, 0.0
    path: list[int] = []  # the candidate chosen at each earlier step
    for t in range(cfg.l_o):
        rows = packed.project(emb[:, t], score[:, t])
        ext_click, ext_pay = sortmodel.extend(packed, prefix, rows)
        got, pay_counts, gmvs = values.step_values(ext_click, ext_pay, price[:, t], pay_count,
                                                   gmv, [], weights)

        def full(a):
            """Each candidate's whole sequence: the chosen rows, then its own."""
            return np.concatenate([np.repeat(a[path, np.arange(t)][None], n, axis=0),
                                   a[:, t, None]], axis=1)

        click, pay = sortmodel.infer(packed, full(emb), np.tile(user, (n, 1)), full(score))
        np.testing.assert_allclose(ext_click, click[:, -1], rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(ext_pay, pay[:, -1], rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(
            got, values.combined_values_batch(click, pay, full(price), weights),
            rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(pay_counts, values.expected_counts_batch(pay)[:, -1],
                                   rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(
            gmvs, values.combined_values_batch(click, pay, full(price),
                                               ObjectiveWeights(0.0, 0.0, 1.0)),
            rtol=1e-12, atol=0.0)
        path.append((3 * t + 1) % n)
        prefix.choose(path[-1])
        pay_count, gmv = pay_counts[path[-1]], gmvs[path[-1]]


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("head_mode", ["monotone", "literal"])
def test_packed_forwards_raise_on_non_finite_activations(small_config, head_mode, bad):
    # One non-finite input entry makes its row's activations non-finite; both
    # forwards refuse to return such survival rows.
    cfg = dataclasses.replace(small_config, head_mode=head_mode)
    packed = sortmodel.InferenceWeights.from_params(cfg, _perturbed_params(cfg, seed=31))
    emb, users, score = _random_inputs(cfg, 2, 3, seed=32)
    emb[1, 2, 0] = bad
    with np.errstate(invalid="ignore"), pytest.raises(FloatingPointError, match="non-finite"):
        sortmodel.infer(packed, emb, users, score)
    prefix = sortmodel.Prefix.empty(packed, users[0], 2)
    rows = packed.project(emb[:, 2], score[:, 2])
    with np.errstate(invalid="ignore"), pytest.raises(FloatingPointError, match="non-finite"):
        sortmodel.extend(packed, prefix, rows)
    assert np.isfinite(sortmodel.extend(packed, prefix, rows[:1])[0]).all()


@pytest.mark.parametrize("head_mode", ["monotone", "literal"])
def test_extend_twice_on_one_prefix_gives_identical_rows(small_config, head_mode):
    # extend writes only slot t of the rows it scores, so a second call on the
    # same prefix, even after one with other candidates, scores as the first.
    cfg = dataclasses.replace(small_config, head_mode=head_mode)
    packed = sortmodel.InferenceWeights.from_params(cfg, _perturbed_params(cfg, seed=29))
    rng = np.random.default_rng(30)
    prefix = sortmodel.Prefix.empty(packed, rng.normal(size=cfg.d_user), 3)
    for t in range(cfg.l_o):
        rows = packed.project(rng.normal(size=(3, cfg.d_emb)), rng.uniform(size=(3, 2)))
        first = sortmodel.extend(packed, prefix, rows)
        sortmodel.extend(packed, prefix, packed.project(rng.normal(size=(3, cfg.d_emb)),
                                                        rng.uniform(size=(3, 2))))
        second = sortmodel.extend(packed, prefix, rows)
        assert np.array_equal(first[0], second[0])
        assert np.array_equal(first[1], second[1])
        prefix.choose(t % 3)


def _centred(a):
    return a - a.mean(axis=-1, keepdims=True)


def _spectral_bound_formula(a):
    """f * |G^8|_F^(1/16), with f = |a|_F and G = (a/f)^T (a/f): G squared
    three times."""
    f = np.linalg.norm(a)
    g = a / f
    g = g.T @ g
    for _ in range(3):
        g = g @ g
    return f * np.linalg.norm(g) ** (1 / 16)


@pytest.mark.parametrize("head_mode", ["monotone", "literal"])
def test_inference_weights_match_their_parameters(small_config, head_mode):
    # Each packed array equals its formula over the parameters exactly: the
    # residual writers centred (each row minus its mean), each layer norm's
    # gain times sqrt(d_model) folded into the GEMM after it, and the QKV
    # GEMM's extra column after each head's, with zero weights and biases
    # -B_h, 1 and 1, B_h the head's bound on |q . k| from its Q and K
    # columns' spectral-norm bounds.
    cfg = dataclasses.replace(small_config, head_mode=head_mode)
    params = _perturbed_params(cfg, seed=24)
    packed = sortmodel.InferenceWeights.from_params(cfg, params)

    def w(name):
        return params[name].value

    d_emb, d_pos, d_user = cfg.d_emb, cfg.d_position, cfg.d_user
    proj, root_d = w("proj.W"), np.sqrt(cfg.d_model)
    assert np.array_equal(packed.item, _centred(proj[:d_emb]))
    assert np.array_equal(packed.pos, _centred(w("pos.table") @ proj[d_emb:d_emb + d_pos]
                                               + w("proj.b")))
    assert np.array_equal(packed.user, _centred(proj[d_emb + d_pos:d_emb + d_pos + d_user]))
    assert np.array_equal(packed.score, _centred(proj[d_emb + d_pos + d_user:]))
    heads, dh = cfg.n_heads, cfg.d_model // cfg.n_heads
    scale = 1.0 / np.sqrt(dh)
    for i, block in enumerate(packed.blocks):
        a, g1, b1 = f"layer{i}.attn", w(f"layer{i}.ln1.g") * root_d, w(f"layer{i}.ln1.b")
        qkv_w = np.concatenate([w(f"{a}.Wq") * scale, w(f"{a}.Wk"), w(f"{a}.Wv")], axis=1)
        qkv_b = np.concatenate([w(f"{a}.bq") * scale, w(f"{a}.bk"), w(f"{a}.bv")])
        assert block.qkv_w.shape == (cfg.d_model, 3 * heads * (dh + 1))
        packed_w = block.qkv_w.reshape(cfg.d_model, 3, heads, dh + 1)
        packed_b = block.qkv_b.reshape(3, heads, dh + 1)
        folded_w, folded_b = g1[:, None] * qkv_w, b1 @ qkv_w + qkv_b
        assert np.array_equal(packed_w[..., :dh].reshape(cfg.d_model, -1), folded_w)
        assert np.array_equal(packed_b[..., :dh].reshape(-1), folded_b)
        assert (packed_w[..., dh] == 0.0).all()
        assert (packed_b[1:, :, dh] == 1.0).all()
        for h in range(heads):
            reach = [_spectral_bound_formula(folded_w[:, c * dh:(c + 1) * dh])
                     + np.linalg.norm(folded_b[c * dh:(c + 1) * dh])
                     for c in (h, heads + h)]  # head h's Q columns, then its K columns
            assert packed_b[0, h, dh] == -reach[0] * reach[1]
        assert np.array_equal(block.out_w, _centred(w(f"{a}.Wo")))
        assert np.array_equal(block.out_b, _centred(w(f"{a}.bo")))
        f, g2, b2 = f"layer{i}.ffn", w(f"layer{i}.ln2.g") * root_d, w(f"layer{i}.ln2.b")
        assert np.array_equal(block.ffn_w1, g2[:, None] * w(f"{f}.W1"))
        assert np.array_equal(block.ffn_b1, b2 @ w(f"{f}.W1") + w(f"{f}.b1"))
        assert np.array_equal(block.ffn_w2, _centred(w(f"{f}.W2")))
        assert np.array_equal(block.ffn_b2, _centred(w(f"{f}.b2")))
    heads = ("head_click", "head_pay")
    head_w1 = np.concatenate([w(f"{h}.W1") for h in heads], axis=1)
    assert np.array_equal(packed.head_w1, (w("final_ln.g") * root_d)[:, None] * head_w1)
    assert np.array_equal(packed.head_b1, w("final_ln.b") @ head_w1
                          + np.concatenate([w(f"{h}.b1") for h in heads]))
    # The heads' second layer is -W2, widened to max_count columns a head (a
    # monotone head's one column repeated), block-diagonal with exact zeros
    # off it; its bias is the cutpoints minus b2.
    hidden, lmax = sortmodel.HEAD_HIDDEN, cfg.max_count
    assert packed.head_w2.shape == (2 * hidden, 2 * lmax)
    for k, h in enumerate(heads):
        block_w2 = packed.head_w2[k * hidden:(k + 1) * hidden, k * lmax:(k + 1) * lmax]
        assert np.array_equal(block_w2, -np.broadcast_to(w(f"{h}.W2"), (hidden, lmax)))
    assert (packed.head_w2[:hidden, lmax:] == 0.0).all()
    assert (packed.head_w2[hidden:, :lmax] == 0.0).all()
    # With the heads' outputs zeroed, the packed bias is the cutpoints alone,
    # and the tape forward's logits are minus its cutpoints (all 0 for literal
    # heads).
    zeroed = dict(params)
    for head in heads:
        for name in ("W2", "b2"):
            zeroed[f"{head}.{name}"] = Var(np.zeros_like(params[f"{head}.{name}"].value))
    cutpoints = sortmodel.InferenceWeights.from_params(cfg, zeroed).head_b2
    tape = forward_reference(cfg, zeroed, *_random_inputs(cfg, 1, 1, seed=25))
    np.testing.assert_allclose(
        cutpoints, -np.concatenate([tape.click_logits.value[0, 0], tape.pay_logits.value[0, 0]]),
        rtol=1e-14, atol=0.0)
    assert np.array_equal(packed.head_b2, cutpoints - np.concatenate(
        [np.broadcast_to(w(f"{h}.b2"), lmax) for h in heads]))
    assert np.array_equal(packed.valid, np.tile(sortmodel.valid_mask(cfg.l_o, lmax), 2))
    arrays = [getattr(packed, f.name) for f in dataclasses.fields(packed)
              if isinstance(getattr(packed, f.name), np.ndarray)]
    arrays += [a for block in packed.blocks for a in block]
    for a in arrays:
        with pytest.raises(ValueError, match="read-only"):
            a[(0,) * a.ndim] = 1.0


@pytest.mark.parametrize("head_mode", ["monotone", "literal"])
def test_the_residual_stream_is_centred(small_config, head_mode):
    # Every packed array that writes the residual stream has rows of zero
    # mean, so every stream row has zero mean, and there the norm without
    # centring, times sqrt(d_model), is the layer norm's.
    cfg = dataclasses.replace(small_config, head_mode=head_mode)
    packed = sortmodel.InferenceWeights.from_params(cfg, _perturbed_params(cfg, seed=33))
    writers = {"item": packed.item, "score": packed.score, "user": packed.user,
               "pos": packed.pos}
    for i, block in enumerate(packed.blocks):
        writers.update({f"layer{i}.{name}": getattr(block, name)
                        for name in ("out_w", "out_b", "ffn_w2", "ffn_b2")})
    for name, a in writers.items():
        assert a.shape[-1] == cfg.d_model, name
        assert np.abs(a.mean(axis=-1)).max() <= 1e-15 * np.abs(a).max(), name
    rng = np.random.default_rng(34)
    x = _centred(rng.normal(0.0, 3.0, size=(64, cfg.d_model)))
    np.testing.assert_allclose(sortmodel._norm_rows(x) * np.sqrt(cfg.d_model),
                               nn.normalize_rows(x)[0], rtol=0.0, atol=1e-15)


@pytest.mark.parametrize("head_mode", ["monotone", "literal"])
def test_inference_weights_share_no_memory_with_the_parameters(small_config, head_mode):
    # Every packed array is new, so writing a parameter in place cannot
    # change a packing made before.
    cfg = dataclasses.replace(small_config, head_mode=head_mode)
    params = _perturbed_params(cfg, seed=35)
    packed = sortmodel.InferenceWeights.from_params(cfg, params)
    arrays = {f.name: getattr(packed, f.name) for f in dataclasses.fields(packed)
              if isinstance(getattr(packed, f.name), np.ndarray)}
    for i, block in enumerate(packed.blocks):
        arrays.update({f"layer{i}.{name}": a for name, a in zip(block._fields, block)})
    for name, a in arrays.items():
        for param, p in params.items():
            assert not np.shares_memory(a, p.value), (name, param)

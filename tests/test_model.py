import dataclasses

import numpy as np
import pytest

from sortgen import model as sortmodel
from sortgen import nn, simulator, values
from sortgen.core import ConfigError, EngineConfig, ObjectiveWeights, UserContext
from sortgen.nn import Var
from tests.helpers import (
    ffn_reference,
    finite_diff_check,
    forward_reference,
    mhsa_node,
    mhsa_reference,
    monotone_logits_reference,
    ordered_regression_loss_reference,
    param_count,
    same_bits,
)

# Each block as one tape node, and its primitive-op reference.
MHSA_IMPLS = [mhsa_node, mhsa_reference]
FFN_IMPLS = [sortmodel._ffn, ffn_reference]


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
    nn.backward(nn.sum_(nn.mul(out, proj)))
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
        nn.backward(nn.sum_(nn.mul(nn.add(out.click, out.pay), target)))
        results.append((out, {name: p.grad for name, p in params.items()}))
    (out, grads), (ref_out, ref_grads) = results
    assert np.abs(out.click.value - ref_out.click.value).max() <= 1e-12
    assert np.abs(out.pay.value - ref_out.pay.value).max() <= 1e-12
    _assert_grads_close(grads, ref_grads,
                        zero=tuple(f"layer{i}.attn.bk" for i in range(cfg.n_layers)))


@pytest.mark.parametrize("max_count", [5, 1])
@pytest.mark.parametrize("loss_mode", ["ordered", "pointwise"])
@pytest.mark.parametrize("head_mode", ["monotone", "literal"])
def test_fused_forward_and_loss_equal_the_unfused_tape_bit_for_bit(small_config, head_mode,
                                                                  loss_mode, max_count):
    # The block halves, cutpoints, masked sigmoid and loss as single nodes
    # change no bit of any output, loss or gradient.
    cfg = dataclasses.replace(small_config, head_mode=head_mode, loss_mode=loss_mode,
                              max_count=max_count)
    emb, user, score = _random_inputs(cfg, 7, cfg.l_o, seed=26)
    rng = np.random.default_rng(28)
    clicks = rng.integers(0, 2, size=(7, cfg.l_o))
    pays = clicks * rng.integers(0, 2, size=clicks.shape)
    results = []
    for fused in (True, False):
        params = _perturbed_params(cfg, seed=27)
        out = (sortmodel.forward if fused else forward_reference)(cfg, params, emb, user, score)
        if loss_mode == "pointwise":
            loss = values.pointwise_loss(nn.index_last(out.click_logits, 0),
                                         nn.index_last(out.pay_logits, 0), clicks, pays)
        else:
            ordered = values.ordered_regression_loss if fused else ordered_regression_loss_reference
            loss = ordered(out, np.cumsum(clicks, axis=1), np.cumsum(pays, axis=1))
        nn.backward(loss)
        results.append((loss.value, [getattr(out, f).value for f in
                                     ("click", "pay", "click_logits", "pay_logits")],
                        {name: p.grad for name, p in params.items()}))
    (loss, outs, grads), (ref_loss, ref_outs, ref_grads) = results
    assert same_bits(loss, ref_loss)
    for a, b in zip(outs, ref_outs):
        assert same_bits(a, b)
    assert grads.keys() == ref_grads.keys()
    for name in grads:
        assert same_bits(grads[name], ref_grads[name]), name


@pytest.mark.parametrize("max_count", [5, 1])
def test_monotone_logits_node_equals_the_cutpoint_chain_bit_for_bit(max_count):
    rng = np.random.default_rng(29)
    params = {"score": Var(rng.normal(size=(3, 4, 1))), "t": Var(rng.normal(size=max_count))}
    target = rng.normal(size=(3, 4, max_count))
    results = []
    for fused in (True, False):
        nn.zero_grads(params)
        out = (sortmodel._monotone_logits(params["score"], params["t"]) if fused else
               monotone_logits_reference(params["score"], params["t"], max_count))
        nn.backward(nn.sum_(nn.mul(out, target)))
        results.append((out.value, params["score"].grad, params["t"].grad))
    for fused, ref in zip(*results):
        assert same_bits(fused, ref)

    def loss_fn():
        return nn.sum_(nn.mul(nn.sigmoid(sortmodel._monotone_logits(params["score"], params["t"])),
                              target))

    assert finite_diff_check(params, loss_fn, step=1e-5, n_coords=17) < 1e-6


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
    block = x.value[0, :, u0:u0 + small_config.d_user]
    assert (block == block[0]).all()


def test_assemble_rejects_empty_and_overlong(small_config, small_params):
    emb, user, score = _random_inputs(small_config, 1, small_config.l_o + 1)
    with pytest.raises(ConfigError):
        sortmodel.assemble_input(small_config, small_params, emb, user, score)
    with pytest.raises(ConfigError):
        sortmodel.assemble_input(small_config, small_params, emb[:, :0], user, score[:, :0])


# ------------------------------- forward ------------------------------------


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
        out = sortmodel.forward(small_config, params, emb, user, score)
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


def test_checkpoint_hash_verified(tmp_path, small_config, small_params):
    import json

    path = tmp_path / "model.ckpt"
    sortmodel.save_checkpoint(path, small_params, small_config)
    doc = json.loads(path.read_text())
    doc["config"]["l_o"] = 4
    doc["config"]["max_count"] = 4
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigError, match="hash"):
        sortmodel.load_checkpoint(path)


def test_loaded_checkpoint_is_frozen(tmp_path, small_config, small_params):
    path = tmp_path / "model.ckpt"
    sortmodel.save_checkpoint(path, small_params, small_config)
    loaded, cfg = sortmodel.load_checkpoint(path)
    assert not any(p.requires_grad for p in loaded.values())
    assert not any(p.value.flags.writeable for p in loaded.values())
    emb, user, score = _random_inputs(cfg, 2, cfg.l_o, seed=17)
    out = sortmodel.forward(cfg, loaded, emb, user, score)
    for v in (out.click, out.pay, out.click_logits, out.pay_logits):
        assert not v.requires_grad and v._parents == () and v._bw is None
    loss = nn.sum_(out.click)
    with pytest.raises(ValueError, match="does not require grad"):
        nn.backward(loss)


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
        ext = sortmodel.extend(packed, prefix, packed.project(cand_emb, cand_score))
        full_emb = np.concatenate([np.repeat(emb[None], n, axis=0), cand_emb[:, None]], axis=1)
        full_score = np.concatenate([np.repeat(score[None], n, axis=0), cand_score[:, None]],
                                    axis=1)
        click, pay = sortmodel.infer(packed, full_emb, np.tile(user, (n, 1)), full_score)
        # The step returns the new position's rows: the full forward's last.
        assert ext.click.shape == (n, cfg.max_count)
        assert np.abs(ext.click - click[:, -1]).max() <= 1e-12
        assert np.abs(ext.pay - pay[:, -1]).max() <= 1e-12
        k = t % n
        assert ext.choose(prefix, k) is prefix  # choose consumes the prefix
        emb = np.concatenate([emb, cand_emb[k:k + 1]])
        score = np.concatenate([score, cand_score[k:k + 1]])
        assert len(prefix) == t + 1


def test_extend_rejects_overlong_prefix(small_config, small_params):
    packed = sortmodel.InferenceWeights.from_params(small_config, small_params)
    prefix = sortmodel.Prefix.empty(packed, np.zeros(small_config.d_user), 1)
    row = packed.project(np.ones((1, small_config.d_emb)), np.ones((1, 2)))
    for _ in range(small_config.l_o):
        prefix = sortmodel.extend(packed, prefix, row).choose(prefix, 0)
    with pytest.raises(ConfigError, match="exceeds"):
        sortmodel.extend(packed, prefix, row)


def test_extend_rejects_more_candidates_than_the_width(small_config, small_params):
    packed = sortmodel.InferenceWeights.from_params(small_config, small_params)
    prefix = sortmodel.Prefix.empty(packed, np.zeros(small_config.d_user), 2)
    rows = packed.project(np.ones((3, small_config.d_emb)), np.ones((3, 2)))
    with pytest.raises(ConfigError, match="width of 2"):
        sortmodel.extend(packed, prefix, rows)
    assert sortmodel.extend(packed, prefix, rows[:2]).click.shape == (2, small_config.max_count)


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
        ext = sortmodel.extend(packed, prefix, packed.project(emb[:, t], score[:, t]))
        got, pay_counts, gmvs = values.step_values(ext.click, ext.pay, price[:, t], pay_count,
                                                   gmv, weights)

        def full(a):
            """Each candidate's whole sequence: the chosen rows, then its own."""
            return np.concatenate([np.repeat(a[path, np.arange(t)][None], n, axis=0),
                                   a[:, t, None]], axis=1)

        click, pay = sortmodel.infer(packed, full(emb), np.tile(user, (n, 1)), full(score))
        np.testing.assert_allclose(ext.click, click[:, -1], rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(ext.pay, pay[:, -1], rtol=1e-12, atol=0.0)
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
        prefix = ext.choose(prefix, path[-1])
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
    assert np.isfinite(sortmodel.extend(packed, prefix, rows[:1]).click).all()


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
        assert np.array_equal(first.click, second.click)
        assert np.array_equal(first.pay, second.pay)
        second.choose(prefix, t % 3)


def _centred(a):
    return a - a.mean(axis=-1, keepdims=True)


@pytest.mark.parametrize("head_mode", ["monotone", "literal"])
def test_inference_weights_match_their_parameters(small_config, head_mode):
    # Each packed array equals its formula over the parameters exactly: the
    # residual writers centred (each row minus its mean), and each layer
    # norm's gain times sqrt(d_model) folded into the GEMM after it.
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
    scale = 1.0 / np.sqrt(cfg.d_model // cfg.n_heads)
    for i, block in enumerate(packed.blocks):
        a, g1, b1 = f"layer{i}.attn", w(f"layer{i}.ln1.g") * root_d, w(f"layer{i}.ln1.b")
        qkv_w = np.concatenate([w(f"{a}.Wq") * scale, w(f"{a}.Wk"), w(f"{a}.Wv")], axis=1)
        qkv_b = np.concatenate([w(f"{a}.bq") * scale, w(f"{a}.bk"), w(f"{a}.bv")])
        assert np.array_equal(block.qkv_w, g1[:, None] * qkv_w)
        assert np.array_equal(block.qkv_b, b1 @ qkv_w + qkv_b)
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
    tape = sortmodel.forward(cfg, zeroed, *_random_inputs(cfg, 1, 1, seed=25))
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

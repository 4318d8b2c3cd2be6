import dataclasses

import numpy as np
import pytest

from sortgen import model as sortmodel
from sortgen import nn, simulator
from sortgen.core import ConfigError, EngineConfig, UserContext
from sortgen.nn import Var


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
    dm = 8
    p = _attn_params(dm, identity_vo=True, zero_qk=True)
    x = np.random.default_rng(1).normal(size=(1, 1, dm))
    out = sortmodel._mhsa(Var(x), p, "a", n_heads=2)
    np.testing.assert_allclose(out.value, x, atol=1e-12)


def test_mhsa_causal_bit_for_bit():
    dm, T = 8, 6
    p = _attn_params(dm)
    x = np.random.default_rng(2).normal(size=(1, T, dm))
    base = sortmodel._mhsa(Var(x), p, "a", n_heads=2).value
    x2 = x.copy()
    x2[0, T - 1] += 1.0
    pert = sortmodel._mhsa(Var(x2), p, "a", n_heads=2).value
    assert (base[0, : T - 1] == pert[0, : T - 1]).all()


def test_mhsa_uniform_logits_average_values():
    # Zero query/key projections give equal logits; attention at position t is
    # then the running mean of value vectors at positions <= t.
    dm, T = 4, 5
    p = _attn_params(dm, zero_qk=True, identity_vo=True)
    x = np.random.default_rng(3).normal(size=(1, T, dm))
    out = sortmodel._mhsa(Var(x), p, "a", n_heads=2).value
    for t in range(T):
        np.testing.assert_allclose(out[0, t], x[0, : t + 1].mean(axis=0), atol=1e-12)


def test_ffn_zero_weights_zero_output():
    dm = 4
    p = {"f.W1": Var(np.zeros((dm, 4 * dm))), "f.b1": Var(np.zeros(4 * dm)),
         "f.W2": Var(np.zeros((4 * dm, dm))), "f.b2": Var(np.zeros(dm))}
    x = np.random.default_rng(4).normal(size=(1, 3, dm))
    out = sortmodel._ffn(Var(x), p, "f")
    np.testing.assert_array_equal(out.value, 0.0)


def test_ffn_identity_construction_on_nonnegative_input():
    dm = 3
    w1 = np.zeros((dm, 4 * dm))
    w1[:, :dm] = np.eye(dm)
    w2 = np.zeros((4 * dm, dm))
    w2[:dm, :] = np.eye(dm)
    p = {"f.W1": Var(w1), "f.b1": Var(np.zeros(4 * dm)),
         "f.W2": Var(w2), "f.b2": Var(np.zeros(dm))}
    x = np.abs(np.random.default_rng(5).normal(size=(1, 2, dm)))
    out = sortmodel._ffn(Var(x), p, "f")
    np.testing.assert_allclose(out.value, x, atol=1e-12)


def test_ffn_relu_clamps_negative_preactivation():
    dm = 2
    p = {"f.W1": Var(np.eye(dm, 4 * dm)), "f.b1": Var(np.zeros(4 * dm)),
         "f.W2": Var(np.ones((4 * dm, dm))), "f.b2": Var(np.zeros(dm))}
    out = sortmodel._ffn(Var(-np.ones((1, 1, dm))), p, "f")
    np.testing.assert_array_equal(out.value, 0.0)


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
    assert nn.param_count(small_params) == sortmodel.expected_param_count(small_config)
    literal = dataclasses.replace(small_config, head_mode="literal")
    p = sortmodel.init_params(literal, seed=0)
    assert nn.param_count(p) == sortmodel.expected_param_count(literal)


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
    cfg = dataclasses.replace(small_config, head_mode=head_mode)
    params = sortmodel.init_params(cfg, seed=18)
    for l in range(1, cfg.l_o + 1):
        emb, user, score = _random_inputs(cfg, 4, l, seed=100 + l)
        out = sortmodel.forward(cfg, params, emb, user, score)
        click, pay = sortmodel.infer(cfg, params, emb, user, score)
        assert np.abs(click - out.click.value).max() <= 1e-12
        assert np.abs(pay - out.pay.value).max() <= 1e-12


@pytest.mark.parametrize("head_mode", ["monotone", "literal"])
def test_extend_matches_full_recomputation(small_config, head_mode):
    cfg = dataclasses.replace(small_config, head_mode=head_mode)
    params = sortmodel.init_params(cfg, seed=19)
    rng = np.random.default_rng(20)
    user = rng.normal(size=cfg.d_user)
    prefix = sortmodel.Prefix.empty(cfg, user)
    emb = np.zeros((0, cfg.d_emb))
    score = np.zeros((0, 2))
    for t in range(cfg.l_o):
        n = 3
        cand_emb = rng.normal(size=(n, cfg.d_emb))
        cand_score = rng.uniform(size=(n, 2))
        ext = sortmodel.extend(cfg, params, prefix, cand_emb, cand_score)
        full_emb = np.concatenate([np.repeat(emb[None], n, axis=0), cand_emb[:, None]], axis=1)
        full_score = np.concatenate([np.repeat(score[None], n, axis=0), cand_score[:, None]],
                                    axis=1)
        click, pay = sortmodel.infer(cfg, params, full_emb, np.tile(user, (n, 1)), full_score)
        assert ext.click.shape == (n, t + 1, cfg.max_count)
        assert np.abs(ext.click - click).max() <= 1e-12
        assert np.abs(ext.pay - pay).max() <= 1e-12
        k = t % n
        prefix = ext.choose(prefix, k)
        emb = np.concatenate([emb, cand_emb[k:k + 1]])
        score = np.concatenate([score, cand_score[k:k + 1]])
        assert len(prefix) == t + 1


def test_extend_rejects_overlong_prefix(small_config, small_params):
    prefix = sortmodel.Prefix.empty(small_config, np.zeros(small_config.d_user))
    for _ in range(small_config.l_o):
        ext = sortmodel.extend(small_config, small_params, prefix,
                               np.ones((1, small_config.d_emb)), np.ones((1, 2)))
        prefix = ext.choose(prefix, 0)
    with pytest.raises(ConfigError, match="exceeds"):
        sortmodel.extend(small_config, small_params, prefix,
                         np.ones((1, small_config.d_emb)), np.ones((1, 2)))

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sortgen.core import (
    ConfigError,
    EngineConfig,
    Item,
    ObjectiveWeights,
    QueueSpec,
    UserContext,
    config_from_raw,
    config_hash,
    engine_config_from_raw,
    load_config_file,
    parse_config_text,
    to_dict,
    validate_config,
)
from sortgen.simulator import SimConfig
from sortgen.trainer import TrainConfig


def test_default_config_valid():
    validate_config(EngineConfig())


def test_paper_style_shape_accepted():
    # 10-position lists drawn from 3 queues over a 30-item pool.
    cfg = EngineConfig(l_s=30, l_o=10, max_count=10)
    assert len(cfg.queue_specs) == 3
    validate_config(cfg)


def test_l_o_exceeds_l_s():
    with pytest.raises(ConfigError, match="l_o exceeds l_s"):
        validate_config(EngineConfig(l_s=5, l_o=10, max_count=5))


def test_head_split_arithmetic():
    with pytest.raises(ConfigError, match="not divisible"):
        validate_config(EngineConfig(d_model=10, n_heads=3))


def test_max_count_capped_at_l_o():
    with pytest.raises(ConfigError, match="max_count"):
        validate_config(EngineConfig(l_o=10, max_count=11))


def test_empty_queue_specs():
    with pytest.raises(ConfigError, match="queue_specs"):
        validate_config(EngineConfig(queue_specs=()))


def test_duplicate_queue_priorities():
    specs = (QueueSpec("a", {"ctr": 1.0}, 0), QueueSpec("b", {"cvr": 1.0}, 0))
    with pytest.raises(ConfigError, match="duplicate"):
        validate_config(EngineConfig(queue_specs=specs))


def test_item_requires_unit_norm():
    with pytest.raises(ConfigError, match="norm"):
        Item(id=0, embedding=np.ones(8), price=1.0, prior_ctr=0.5,
             prior_cvr=0.5, category=0)


def test_item_rejects_bad_priors():
    emb = np.zeros(8)
    emb[0] = 1.0
    with pytest.raises(ConfigError):
        Item(id=0, embedding=emb, price=1.0, prior_ctr=1.5, prior_cvr=0.5, category=0)
    with pytest.raises(ConfigError):
        Item(id=0, embedding=emb, price=-1.0, prior_ctr=0.5, prior_cvr=0.5, category=0)


@pytest.mark.parametrize("field, value", [
    ("embedding", [float("nan")] + [0.0] * 7),
    ("embedding", [float("inf")] + [0.0] * 7),
    ("price", float("nan")),
    ("price", float("inf")),
])
def test_item_rejects_non_finite(field, value):
    kwargs = dict(id=1, embedding=[1.0] + [0.0] * 7, price=1.0, prior_ctr=0.1,
                  prior_cvr=0.1, category=0)
    kwargs[field] = value
    with pytest.raises(ConfigError, match=f"{field}.*finite"):
        Item(**kwargs)


def test_user_context_rejects_non_finite():
    with pytest.raises(ConfigError, match="finite"):
        UserContext(np.array([0.0, float("nan"), 1.0]))


def test_weights_must_not_all_be_zero():
    with pytest.raises(ConfigError):
        ObjectiveWeights(0.0, 0.0, 0.0)


@pytest.mark.parametrize("weights, message", [
    ((float("nan"), 1.0, 1.0), "alpha: objective weight nan is not finite"),
    ((1.0, float("inf"), 1.0), "beta: objective weight inf is not finite"),
    ((1.0, 1.0, float("-inf")), "gamma: objective weight -inf is not finite"),
    ((1e308, 1e308, 1e308), "beta: objective weights sum to inf"),
    ((1.0, 1e308, 1.7e308), "gamma: objective weights sum to inf"),
])
def test_weights_must_be_finite_and_sum_finite(weights, message):
    # NaN passes a sign check; a sum that overflows makes every value infinite.
    with pytest.raises(ConfigError) as exc:
        ObjectiveWeights(*weights)
    assert str(exc.value) == message


def test_config_file_round_trip(tmp_path):
    text = """
# engine shape
l_s = 20
l_o = 8
max_count = 8
d_model = 16
n_heads = 2
queue.click = ctr:1.0
queue.mixed = ctr:0.5,ctr_cvr:0.5
partition_strategy = bfs
lambda_mmr = 0.5
alpha = 2.0
beta = 1.0
gamma = 0.5
"""
    path = tmp_path / "engine.cfg"
    path.write_text(text)
    engine, weights, raw = load_config_file(path)
    assert engine.l_s == 20 and engine.l_o == 8
    assert engine.partition_strategy == "bfs"
    assert engine.queue_specs[1].coeffs == {"ctr": 0.5, "ctr_cvr": 0.5}
    assert weights.alpha == 2.0 and weights.gamma == 0.5


def test_config_file_unknown_key():
    with pytest.raises(ConfigError, match="unknown config key"):
        engine_config_from_raw(parse_config_text("bogus = 1"))


def _parse_all(text):
    """Every parser a command applies to a config file."""
    raw = parse_config_text(text)
    return (engine_config_from_raw(raw), config_from_raw(ObjectiveWeights, raw),
            config_from_raw(SimConfig, raw, "sim."), config_from_raw(TrainConfig, raw, "train."))


@pytest.mark.parametrize("key", ["sim.session", "train.epoch", "bench.slatez", "eval.pool"])
def test_config_file_unknown_section_key(key):
    # A misspelt key would otherwise leave the field at its default without a word.
    with pytest.raises(ConfigError, match=f"unknown config key '{key}'"):
        _parse_all(f"{key} = 3")


@pytest.mark.parametrize("text", [
    "l_s = abc", "lambda_mmr = high", "template_pattern = 0,x", "alpha = lots",
    "queue.click = ctr:many", "sim.rho = fast", "train.epochs = 2.5",
])
def test_config_value_that_does_not_cast(text):
    key = text.partition(" = ")[0]
    with pytest.raises(ConfigError, match=f"^{key}: cannot read"):
        _parse_all(text)


def test_option_keys_accepted():
    text = "bench.slates = 5\nbench.overhead_us = 2.5\neval.pools = 7"
    assert _parse_all(text) == (EngineConfig(), ObjectiveWeights(), SimConfig(), TrainConfig())


def test_sim_and_train_configs_round_trip_through_config_text():
    sim = SimConfig(n_items=50, n_categories=3, sessions=77, rho=0.85, kappa=0.25,
                    base_pay=0.4, exposure_noise=0.05, gt_window=3, seed=9)
    tconf = TrainConfig(batch_size=16, epochs=3, lr=2.5e-4, eval_fraction=0.2, seed=4)
    text = "\n".join([f"sim.{k} = {v}" for k, v in to_dict(sim).items()]
                     + [f"train.{k} = {v}" for k, v in to_dict(tconf).items()])
    assert _parse_all(text) == (EngineConfig(), ObjectiveWeights(), sim, tconf)


def test_config_hash_pinned():
    # Checkpoints and datasets store this hash; a change to to_dict orphans them.
    assert config_hash(EngineConfig()) == (
        "edb28037afde6644f68e2b3d016a9a0c89b6cf521e4347fd109669d191d88c86")
    cfg = EngineConfig(
        l_s=15, l_o=6, max_count=6, partition_strategy="bfs",
        template_pattern=(0, 1, 2, 0, 1, 2),
        queue_specs=(QueueSpec("b", {"ctr_cvr": 1.0, "ctr": 2.0}, 1),
                     QueueSpec("a", {"price": 0.5}, 0),
                     QueueSpec("c", {"cvr": 1.0}, 2)))
    assert config_hash(cfg) == (
        "d120b3ba2a52b515f5f418120a4dbebbb49df100cebc426a2c68934bdfb51f60")


def test_config_dict_round_trip():
    cfg = EngineConfig(l_s=15, l_o=6, max_count=6, partition_strategy="bfs")
    assert EngineConfig.from_dict(to_dict(cfg)) == cfg


@settings(max_examples=30, deadline=None)
@given(
    l_o=st.integers(2, 8),
    extra=st.integers(0, 10),
    n_heads=st.sampled_from([1, 2, 4]),
    strategy=st.sampled_from(["dfs", "bfs"]),
)
def test_random_valid_configs_are_consumable(l_o, extra, n_heads, strategy):
    """Any config passing validation round-trips and builds a model."""
    from sortgen import model as sortmodel

    cfg = EngineConfig(l_s=l_o + extra, l_o=l_o, max_count=l_o, d_model=8 * n_heads,
                       n_heads=n_heads, n_layers=1, partition_strategy=strategy)
    validate_config(cfg)
    params = sortmodel.init_params(cfg, seed=0)
    assert "pos.table" in params
    assert EngineConfig.from_dict(to_dict(cfg)) == cfg

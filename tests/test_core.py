import dataclasses
import pickle
import re
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sortgen.core import (
    DEFAULT_QUEUE_SPECS,
    ConfigError,
    EngineConfig,
    Item,
    ObjectiveWeights,
    QueueSpec,
    UserContext,
    check_items,
    config_from_raw,
    config_hash,
    engine_config_from_raw,
    load_config_file,
    parse_config_text,
    to_dict,
)
from sortgen.simulator import SimConfig
from sortgen.trainer import TrainConfig
from tests.helpers import validate_config_reference


def test_default_config_valid():
    EngineConfig()


def test_paper_style_shape_accepted():
    # 10-position lists drawn from 3 queues over a 30-item pool.
    cfg = EngineConfig(l_s=30, l_o=10, max_count=10)
    assert len(cfg.queue_specs) == 3


def test_l_o_exceeds_l_s():
    with pytest.raises(ConfigError, match="l_o exceeds l_s"):
        EngineConfig(l_s=5, l_o=10, max_count=5)


def test_head_split_arithmetic():
    with pytest.raises(ConfigError, match="not divisible"):
        EngineConfig(d_model=10, n_heads=3)


def test_max_count_capped_at_l_o():
    with pytest.raises(ConfigError, match="max_count"):
        EngineConfig(l_o=10, max_count=11)


def test_empty_queue_specs():
    with pytest.raises(ConfigError, match="queue_specs"):
        EngineConfig(queue_specs=())


def test_duplicate_queue_priorities():
    specs = (QueueSpec("a", {"ctr": 1.0}, 0), QueueSpec("b", {"cvr": 1.0}, 0))
    with pytest.raises(ConfigError, match="duplicate"):
        EngineConfig(queue_specs=specs)


# A queue field of the wrong type, or a coefficient that is not a finite
# number, each as (name, coeffs, priority) and the field the fault names.
BAD_QUEUES = [
    (("q", {"ctr": "5"}, 0), "queue q: coeffs.ctr"),
    (("q", {"ctr": float("nan")}, 0), "queue q: coeffs.ctr"),
    (("q", {"ctr": 1.0, "cvr": float("inf")}, 0), "queue q: coeffs.cvr"),
    (("q", {"ctr": True}, 0), "queue q: coeffs.ctr"),
    (("q", {"ctr": [1]}, 0), "queue q: coeffs.ctr"),
    (("q", {"ctr": 10**400}, 0), "queue q: coeffs.ctr"),
    (("q", [("ctr", 1.0)], 0), "queue q: coeffs"),
    ((3, {"ctr": 1.0}, 0), "queue 3: name"),
    (("q", {"ctr": 1.0}, "0"), "queue q: priority"),
    (("q", {"ctr": 1.0}, True), "queue q: priority"),
    (("q", {"ctr": 1.0}, 0.0), "queue q: priority"),
]


@pytest.mark.parametrize("args, named", BAD_QUEUES)
def test_queue_spec_names_a_field_of_the_wrong_type(args, named):
    with pytest.raises(ConfigError) as info:
        QueueSpec(*args)
    assert str(info.value).startswith(named + " must be")


@pytest.mark.parametrize("coeffs, message", [
    ({"ctr": 1.0, "clicks": 2.0}, "queue q: unknown score term 'clicks'"),
    ({"ctr": 0.0, "cvr": 0}, "queue q: all coefficients zero"),
])
def test_queue_spec_rejects_an_unknown_term_and_all_zero_coefficients(coeffs, message):
    with pytest.raises(ConfigError) as exc:
        QueueSpec("q", coeffs, 0)
    assert str(exc.value) == message


def test_queue_spec_takes_int_and_float_coefficients():
    assert QueueSpec("q", {"ctr": 2, "cvr": -0.5}, 1).coeffs == {"ctr": 2, "cvr": -0.5}


def test_queue_spec_keeps_a_read_only_copy_of_its_coefficients_in_order():
    # In sorted key order, the order `to_dict` writes them in.
    given = {"ctr_cvr": 1.0, "ctr": 2.0}
    spec = QueueSpec("q", given, 0)
    given["ctr"] = 9.0
    assert list(spec.coeffs.items()) == [("ctr", 2.0), ("ctr_cvr", 1.0)]
    with pytest.raises(TypeError):
        spec.coeffs["ctr"] = 5.0
    # The default queues are shared by every default config.
    with pytest.raises(TypeError):
        EngineConfig().queue_specs[0].coeffs["ctr"] = "5"
    assert EngineConfig().queue_specs[0].coeffs["ctr"] == 5.0
    assert QueueSpec("q", spec.coeffs, 0) == spec
    assert to_dict(spec) == {"name": "q", "coeffs": {"ctr": 2.0, "ctr_cvr": 1.0}, "priority": 0}


def test_equal_configs_hash_equal():
    assert hash(EngineConfig()) == hash(EngineConfig())
    a = EngineConfig(queue_specs=(QueueSpec("q", {"ctr": 1.0, "cvr": 2.0}, 0),))
    b = EngineConfig(queue_specs=(QueueSpec("q", {"cvr": 2.0, "ctr": 1.0}, 0),))
    assert a == b and hash(a) == hash(b) and config_hash(a) == config_hash(b)
    assert len({a, b, EngineConfig(), dataclasses.replace(a, l_s=31)}) == 3
    assert pickle.loads(pickle.dumps(a)) == a


ENGINE_DEFAULTS = {f.name: f.default for f in dataclasses.fields(EngineConfig)}


def _builds(fields: dict):
    """Every way a config is built from the fields `fields` changes."""
    return (lambda: EngineConfig(**fields),
            lambda: dataclasses.replace(EngineConfig(), **fields),
            lambda: EngineConfig.from_dict({**to_dict(EngineConfig()), **fields}))


@pytest.mark.parametrize("fields, message", [
    ({"head_mode": "Monotone"}, "unknown head_mode 'Monotone'"),
    ({"loss_mode": "pointwize"}, "unknown loss_mode 'pointwize'"),
    ({"partition_strategy": "bfz"}, "unknown partition_strategy 'bfz'"),
    ({"d_model": 32, "n_heads": 3}, "d_model not divisible by n_heads"),
    ({"n_heads": 0}, "n_heads must be positive"),
])
def test_a_broken_rule_fails_wherever_a_config_is_built(fields, message):
    # The typos once trained with the ordered loss or literal heads without a
    # word, and n_heads = 0 escaped as a ZeroDivisionError.
    for build in _builds(fields):
        with pytest.raises(ConfigError) as exc:
            build()
        assert str(exc.value) == message


@pytest.mark.parametrize("field, value", [
    ("l_s", 30.5), ("n_heads", 2.0), ("window_w", True), ("seed", None), ("l_o", "10"),
    ("lambda_mmr", "x"), ("lambda_mmr", False), ("head_mode", 1), ("loss_mode", None),
    ("queue_specs", list(DEFAULT_QUEUE_SPECS)), ("queue_specs", ({"name": "a"},)),
    ("template_pattern", [0, 1]), ("template_pattern", (0, 1.0)),
    ("template_pattern", (True,) * 10),
])
def test_an_ill_typed_field_is_a_config_error_naming_it(field, value):
    # l_s = 30.5 once passed, and a string lambda_mmr escaped as a TypeError.
    with pytest.raises(ConfigError, match=f"^{field} must be "):
        EngineConfig(**{field: value})
    with pytest.raises(ConfigError, match=f"^{field} must be "):
        dataclasses.replace(EngineConfig(), **{field: value})


_INT = st.one_of(st.integers(-2, 12), st.integers(13, 10**12))
_FIELDS = st.fixed_dictionaries({}, optional={
    **{name: _INT for name in ("l_s", "l_o", "d_emb", "d_user", "d_position", "d_score",
                               "d_model", "n_layers", "max_count", "window_w", "seed")},
    "n_heads": st.one_of(st.just(0), _INT),
    "lambda_mmr": st.one_of(st.floats(-0.5, 1.5), st.floats(), st.integers(-1, 2)),
    "queue_specs": st.sampled_from([
        (), DEFAULT_QUEUE_SPECS[:1], DEFAULT_QUEUE_SPECS[::-1],
        (DEFAULT_QUEUE_SPECS[0], dataclasses.replace(DEFAULT_QUEUE_SPECS[1], priority=0))]),
    "partition_strategy": st.sampled_from(["dfs", "bfs", "bfz", "DFS", ""]),
    "loss_mode": st.sampled_from(["ordered_regression", "pointwise", "ordered", "pointwize"]),
    "head_mode": st.sampled_from(["monotone", "literal", "Monotone"]),
    "template_pattern": st.lists(st.integers(-1, 3), max_size=12).map(tuple),
})


@settings(max_examples=400, deadline=None)
@given(fields=_FIELDS)
def test_a_config_checks_itself_as_the_reference_check_does(fields):
    """Construction and dataclasses.replace raise the reference's ConfigError
    text, pass where it passes, and raise a ConfigError naming a field where
    it fails otherwise (n_heads = 0 divides by zero)."""
    try:
        validate_config_reference(SimpleNamespace(**{**ENGINE_DEFAULTS, **fields}))
        want = None
    except ConfigError as exc:
        want = str(exc)
    except ZeroDivisionError:
        want = re.compile(rf"^({'|'.join(ENGINE_DEFAULTS)}) ")
    for build in _builds(fields)[:2]:  # from_dict reads queues as dicts, not QueueSpecs
        if want is None:
            built = build()  # each value stored as given
            assert {name: getattr(built, name) for name in fields} == fields
            continue
        with pytest.raises(ConfigError) as exc:
            build()
        if isinstance(want, str):
            assert str(exc.value) == want
        else:
            assert want.match(str(exc.value))


def test_item_requires_unit_norm():
    with pytest.raises(ConfigError, match="norm"):
        Item(id=0, embedding=np.ones(8), price=1.0, prior_ctr=0.5,
             prior_cvr=0.5, category=0)


def test_user_and_item_copy_the_callers_array():
    # The types freeze their own copy: the caller's array stays writable, and
    # a later write to it does not reach the user or the item.
    feats = np.zeros(8)
    user = UserContext(feats)
    feats[0] = 1.0
    assert user.user_features[0] == 0.0
    emb = np.zeros(8)
    emb[0] = 1.0
    item = Item(id=0, embedding=emb, price=1.0, prior_ctr=0.5, prior_cvr=0.5, category=0)
    emb[1] = 0.5
    assert item.embedding[1] == 0.0
    for frozen in (user.user_features, item.embedding):
        with pytest.raises(ValueError, match="read-only"):
            frozen[0] = 2.0


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


def test_check_items_names_the_first_faulty_item_by_id():
    emb = np.eye(4)
    score = np.full((4, 2), 0.5)
    price = np.array([1.0, 2.0, -1.0, -3.0])
    with pytest.raises(ConfigError, match="^item 12: negative price$"):
        check_items(np.array([10, 11, 12, 13]), emb, score, price)
    check_items(np.array([10, 11]), emb[:2], score[:2], price[:2])
    check_items(np.zeros(0, np.int64), np.zeros((0, 4)), np.zeros((0, 2)), np.zeros(0))


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


def test_config_file_template_may_index_its_own_queues():
    # The file's queues and template are checked together, as one config.
    queues = "".join(f"queue.q{i} = ctr:1.0\n" for i in range(4))
    raw = parse_config_text(f"l_o = 4\nmax_count = 4\ntemplate_pattern = 3,2,1,0\n{queues}")
    assert engine_config_from_raw(raw).template_pattern == (3, 2, 1, 0)


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


@pytest.mark.parametrize("text, message", [
    ("l_s = 30\nl_o 10", "config line 2: expected 'key = value'"),
    ("queue.click = ctr", "queue.click: expected 'term:coefficient' pairs"),
])
def test_config_text_that_does_not_parse(text, message):
    with pytest.raises(ConfigError) as exc:
        _parse_all(text)
    assert str(exc.value) == message


@pytest.mark.parametrize("cls, field, value, message", [
    (TrainConfig, "batch_size", 2.5, "train.batch_size must be int, got 2.5"),
    (TrainConfig, "seed", 1.5, "train.seed must be int, got 1.5"),
    (TrainConfig, "epochs", "3", "train.epochs must be int, got '3'"),
    (TrainConfig, "lr", "1e-3", "train.lr must be float, got '1e-3'"),
    (SimConfig, "sessions", 2.5, "sim.sessions must be int, got 2.5"),
    (SimConfig, "n_items", True, "sim.n_items must be int, got True"),
    (SimConfig, "rho", "0.9", "sim.rho must be float, got '0.9'"),
    (ObjectiveWeights, "alpha", True, "alpha: objective weight must be float, got True"),
    (ObjectiveWeights, "alpha", "5", "alpha: objective weight must be float, got '5'"),
])
def test_an_ill_typed_sim_train_or_weight_field_is_a_config_error_naming_it(cls, field, value,
                                                                            message):
    # A fractional batch size or session count once passed, and a string
    # escaped as a TypeError. A weight's message starts with its name, which
    # a rerank request's fault reads as weights.<name>.
    with pytest.raises(ConfigError) as exc:
        cls(**{field: value})
    assert str(exc.value) == message


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
    params = sortmodel.init_params(cfg, seed=0)
    assert "pos.table" in params
    assert EngineConfig.from_dict(to_dict(cfg)) == cfg

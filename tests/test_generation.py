import dataclasses
import itertools
import math
import pickle
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sortgen import generation, model as sortmodel, simulator
from sortgen.core import (SCORE_TERMS, ConfigError, EngineConfig, ObjectiveWeights, QueueSpec,
                          UserContext, config_hash, to_dict)
from sortgen.generation import ValueModel
from sortgen.simulator import sample_pool, sample_user
from tests.helpers import (
    build_queues_reference,
    composite_score_reference,
    item_features_reference,
    load_bench_workloads,
    make_item,
    mmr_score,
    queue_ranking_reference,
    same_bits,
    similarity,
    table_items,
)


# ---------------------------- composite scores -------------------------------


def test_composite_score_paper_expression():
    # 0.5*CTR + 0.5*CTR*CVR at ctr=0.2, cvr=0.1 -> 0.11
    item = make_item(0, [1, 0, 0, 0, 0, 0, 0, 0], ctr=0.2, cvr=0.1)
    spec = QueueSpec("mixed", {"ctr": 0.5, "ctr_cvr": 0.5}, 0)
    features = sortmodel.item_features([item])
    assert math.isclose(generation.composite_score(features, spec)[0], 0.11)


def test_composite_score_single_terms():
    item = make_item(0, [1, 0, 0, 0, 0, 0, 0, 0], price=12.5, ctr=0.3, cvr=0.2)
    features = sortmodel.item_features([item])
    assert generation.composite_score(features, QueueSpec("c", {"ctr": 1.0}, 0))[0] == 0.3
    assert generation.composite_score(features, QueueSpec("p", {"price": 1.0}, 0))[0] == 12.5


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_queue_scores_survive_a_config_round_trip_bit_for_bit(small_catalog, data):
    # A checkpoint stores a queue's coefficients with sorted keys; the queue
    # keeps them in that order, so its scores add the terms in one order
    # before and after the round trip.
    terms = data.draw(st.permutations(SCORE_TERMS), label="order")
    n = data.draw(st.integers(1, len(terms)), label="terms")
    coeffs = {term: data.draw(st.floats(0.01, 10.0), label=term) for term in terms[:n]}
    for given_coeffs in (coeffs, {"ctr_cvr_price": 1.0, "price": 0.01, "ctr": 5.0}):
        config = EngineConfig(queue_specs=(QueueSpec("x", given_coeffs, 0),))
        back = EngineConfig.from_dict(to_dict(config))
        assert back == config and config_hash(back) == config_hash(config)
        assert list(back.queue_specs[0].coeffs) == sorted(given_coeffs)
        assert same_bits(generation.composite_score(small_catalog, config.queue_specs[0]),
                         generation.composite_score(small_catalog, back.queue_specs[0]))


# ------------------------------ build_queues ---------------------------------


def _abcd_pool():
    es = np.eye(8)
    ctrs = [0.9, 0.8, 0.7, 0.6]
    cvrs = [0.1, 0.95, 0.05, 0.01]
    return [make_item(i, es[i], ctr=ctrs[i], cvr=cvrs[i]) for i in range(4)]


def test_build_queues_dfs_hand_example():
    pool = _abcd_pool()
    specs = [QueueSpec("click", {"ctr": 1.0}, 0), QueueSpec("pay", {"cvr": 1.0}, 1)]
    q = generation.build_queues(sortmodel.item_features(pool), specs, "dfs", l_o=2)
    assert q.queues[0] == [0, 1]  # A, B by click score
    assert q.queues[1] == [2, 3]  # C, D remain for the pay queue


def test_build_queues_bfs_hand_example():
    pool = _abcd_pool()
    specs = [QueueSpec("click", {"ctr": 1.0}, 0), QueueSpec("pay", {"cvr": 1.0}, 1)]
    q = generation.build_queues(sortmodel.item_features(pool), specs, "bfs", l_o=2)
    assert q.queues[0] == [0, 2]  # A then best remaining click item C
    assert q.queues[1] == [1, 3]  # B then D


def test_build_queues_single_queue_strategy_independent():
    pool = _abcd_pool()
    spec = [QueueSpec("click", {"ctr": 1.0}, 0)]
    for strategy in ("dfs", "bfs"):
        q = generation.build_queues(sortmodel.item_features(pool), spec, strategy, l_o=3)
        assert q.queues[0] == [0, 1, 2]


def test_build_queues_equivalent_when_rankings_disjointly_separated():
    # Items 0,1 dominate on ctr while 2,3 dominate on cvr, so both fill
    # strategies must arrive at the same partition.
    es = np.eye(8)
    pool = [make_item(0, es[0], ctr=0.9, cvr=0.02),
            make_item(1, es[1], ctr=0.7, cvr=0.01),
            make_item(2, es[2], ctr=0.04, cvr=0.9),
            make_item(3, es[3], ctr=0.03, cvr=0.7)]
    specs = [QueueSpec("a", {"ctr": 1.0}, 0), QueueSpec("b", {"cvr": 1.0}, 1)]
    dfs = generation.build_queues(sortmodel.item_features(pool), specs, "dfs", l_o=2).queues
    bfs = generation.build_queues(sortmodel.item_features(pool), specs, "bfs", l_o=2).queues
    assert dfs == bfs == [[0, 1], [2, 3]]


def test_build_queues_partition_disjoint(small_catalog):
    rng = np.random.default_rng(1)
    pool = sample_pool(small_catalog, 12, rng)
    cfg = EngineConfig()
    q = generation.build_queues(pool, cfg.queue_specs, "bfs", l_o=5)
    seen = list(itertools.chain.from_iterable(q.queues))
    assert len(seen) == len(set(seen))
    assert all(len(queue) <= 5 for queue in q.queues)


def test_build_queues_sorted_within_queue(small_catalog):
    rng = np.random.default_rng(2)
    pool = sample_pool(small_catalog, 12, rng)
    spec = QueueSpec("click", {"ctr": 1.0}, 0)
    q = generation.build_queues(pool, [spec], "dfs", l_o=8)
    scores = generation.composite_score(q.features, spec)[q.queues[0]]
    assert all(a >= b for a, b in zip(scores, scores[1:]))


def test_build_queues_empty_pool():
    with pytest.raises(ConfigError, match="empty candidate pool"):
        sortmodel.item_features([])
    packed = sortmodel.item_features(_abcd_pool())
    empty = sortmodel.ItemFeatures(*(column[:0] for column in packed))
    with pytest.raises(ConfigError, match="empty candidate pool"):
        generation.build_queues(empty, [QueueSpec("c", {"ctr": 1.0}, 0)], "dfs", 2)


@pytest.mark.parametrize("priorities, strategy, message", [
    ((0, 0), "dfs", "duplicate queue priorities"),
    ((0, 1), "random", "unknown partition strategy 'random'"),
])
def test_build_queues_rejects_a_fault_in_its_arguments(priorities, strategy, message):
    specs = [QueueSpec("click", {"ctr": 1.0}, priorities[0]),
             QueueSpec("pay", {"cvr": 1.0}, priorities[1])]
    with pytest.raises(ConfigError) as exc:
        generation.build_queues(sortmodel.item_features(_abcd_pool()), specs, strategy, 2)
    assert str(exc.value) == message


def _fill_reference(rankings: list[list[int]], strategy: str, l_o: int) -> list[list[int]]:
    """DFS: each queue in turn takes its best l_o unassigned items. BFS: each
    round, every queue not yet full takes its best unassigned item."""
    assigned: set[int] = set()
    queues: list[list[int]] = [[] for _ in rankings]
    if strategy == "dfs":
        for queue, ranking in zip(queues, rankings):
            queue += [i for i in ranking if i not in assigned][:l_o]
            assigned.update(queue)
        return queues
    progressed = True
    while progressed:
        progressed = False
        for queue, ranking in zip(queues, rankings):
            free = [i for i in ranking if i not in assigned]
            if len(queue) < l_o and free:
                queue.append(free[0])
                assigned.add(free[0])
                progressed = True
    return queues


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_build_queues_matches_per_item_reference(data):
    # Scores come from a few levels, so exact ties (broken by id) are common.
    n = data.draw(st.integers(1, 12), label="n")
    ids = data.draw(st.lists(st.integers(-2**63, 2**63 - 1), min_size=n, max_size=n,
                             unique=True), label="ids")
    level = st.sampled_from([0.0, 0.1, 0.5, 1.0])
    es = np.eye(8)
    pool = [make_item(ids[i], es[i % 8], price=data.draw(st.sampled_from([0.0, 2.0, 10.0])),
                      ctr=data.draw(level), cvr=data.draw(level)) for i in range(n)]
    priorities = data.draw(st.permutations(range(data.draw(st.integers(1, 5)))),
                           label="priorities")
    coeff = st.sampled_from([-1.0, 0.5, 1.0, 2.0])
    specs = []
    for p in priorities:
        terms = data.draw(st.lists(st.sampled_from(SCORE_TERMS), min_size=1, max_size=3,
                                   unique=True), label="terms")
        specs.append(QueueSpec(f"q{p}", {term: data.draw(coeff) for term in terms}, p))
    strategy = data.draw(st.sampled_from(["dfs", "bfs"]), label="strategy")
    l_o = data.draw(st.integers(1, n), label="l_o")

    queues = generation.build_queues(sortmodel.item_features(pool), specs, strategy, l_o).queues
    rankings = [queue_ranking_reference(pool, s) for s in sorted(specs, key=lambda s: s.priority)]
    assert queues == _fill_reference(rankings, strategy, l_o)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_scores_and_queues_equal_the_all_terms_form(data):
    # Random packed pools and random coefficients over all five score terms.
    # With `tied`, prices and prior scores come from a few levels, so that
    # equal scores (broken by id) are common.
    n = data.draw(st.integers(1, 40), label="n")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    if data.draw(st.booleans(), label="tied"):
        score = rng.choice([0.0, 0.1, 0.5, 1.0], size=(n, 2))
        price = rng.choice([0.0, 2.0, 10.0], size=n)
    else:
        score, price = rng.uniform(size=(n, 2)), rng.lognormal(3.0, 1.0, size=n)
    emb = rng.normal(size=(n, 8))
    pool = sortmodel.ItemFeatures(rng.permutation(10 * n)[:n] - 5 * n,
                                  emb / np.linalg.norm(emb, axis=1, keepdims=True),
                                  score, price, np.zeros(n, dtype=np.int64))
    coeff = st.one_of(st.sampled_from([-1.0, 0.5, 1.0, 2.0]), st.integers(-3, 3),
                      st.floats(-10.0, 10.0, allow_nan=False))
    specs = []
    for p in data.draw(st.permutations(range(data.draw(st.integers(1, 5)))), label="priorities"):
        terms = data.draw(st.lists(st.sampled_from(SCORE_TERMS), min_size=1, max_size=5,
                                   unique=True), label="terms")
        coeffs = {term: data.draw(coeff) for term in terms}
        if not any(coeffs.values()):
            coeffs[terms[0]] = 1.0
        specs.append(QueueSpec(f"q{p}", coeffs, p))
    for spec in specs:
        assert same_bits(generation.composite_score(pool, spec),
                         composite_score_reference(pool, spec))
    l_o = data.draw(st.integers(1, n), label="l_o")
    for strategy in ("dfs", "bfs"):
        assert (generation.build_queues(pool, specs, strategy, l_o).queues
                == build_queues_reference(pool, specs, strategy, l_o))


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_item_features_equal_the_field_by_field_packing(data):
    n = data.draw(st.integers(1, 20), label="n")
    ids = data.draw(st.lists(st.integers(-2**63, 2**63 - 1), min_size=n, max_size=n,
                             unique=True), label="ids")
    unit = st.floats(0.0, 1.0)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    items = [make_item(ids[i], rng.normal(size=8),
                       price=data.draw(st.one_of(st.integers(0, 100), st.floats(0.0, 1e6))),
                       ctr=data.draw(unit), cvr=data.draw(unit),
                       cat=data.draw(st.integers(0, 7))) for i in range(n)]
    got, want = sortmodel.item_features(items), item_features_reference(items)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert same_bits(a, b) if a.dtype == np.float64 else np.array_equal(a, b)


def test_generate_matches_the_iterative_reference_at_the_served_shape(monkeypatch):
    # The default config on the benchmark's init checkpoint, replayed on its
    # request pools of 30 (rerank) and 300 (serve) candidates.
    workloads = load_bench_workloads(monkeypatch)
    common, config = workloads.common, EngineConfig()
    vm = ValueModel(config, sortmodel.init_params(config, seed=common.CHECKPOINT_SEED))
    weights = ObjectiveWeights()
    for seed in (1, 2):
        for size, catalog in ((config.l_s, workloads.RERANK_CATALOG),
                              (workloads.SERVE_POOL, workloads.SERVE_CATALOG)):
            for u, pool in common.make_requests(seed, 64, size, catalog):
                user, features = UserContext(u), sortmodel.item_features(common.to_items(pool))
                queues = generation.build_queues(features, config.queue_specs,
                                                 config.partition_strategy, config.l_o)
                fast = generation.generate(user, queues, vm, weights)
                ref = generation.generate_iterative_reference(user, queues, vm, weights)
                assert fast.rows == ref.rows and fast.sources == ref.sources
                for step, ref_step in zip(fast.steps, ref.steps):
                    got = [v for _, _, v, _ in step.candidates]
                    want = [v for _, _, v, _ in ref_step.candidates]
                    assert np.allclose(got, want, rtol=1e-12, atol=0.0)


def test_combined_values_rejects_sequences_of_different_lengths(small_config, small_params,
                                                                 weights):
    # Lengths 2, 1, 3: six items, as many as three sequences of length 2.
    es = np.eye(8)
    a, b, c = (make_item(i, es[i]) for i in range(3))
    vm = ValueModel(small_config, small_params)
    user = sample_user(np.random.default_rng(0), small_config.d_user)
    with pytest.raises(ConfigError, match="different lengths"):
        vm.combined_values([[a, b], [c], [a, b, c]], user, weights)


# ------------------------------- similarity ----------------------------------


def test_similarity_identical_orthogonal_and_half():
    a = make_item(0, [1, 0])
    b = make_item(1, [0, 1])
    c = make_item(2, [math.sqrt(0.5), math.sqrt(0.5)])
    assert math.isclose(similarity(a, a), 1.0)
    assert math.isclose(similarity(a, b), 0.0)
    assert math.isclose(similarity(a, c), 0.7071, abs_tol=1e-4)


def test_mmr_lambda_extremes_and_hand_value():
    a = make_item(0, [1, 0])
    prev = [make_item(1, [math.sqrt(0.75), 0.5])]
    assert mmr_score(a, [], 5, 1.0, 2.5) == 2.5
    lam0 = mmr_score(a, prev, 5, 0.0, 99.0)
    assert math.isclose(lam0, -math.sqrt(0.75))
    # lambda=0.8, value 2.0, max windowed sim 0.5 -> 1.5
    prev_half = [make_item(2, [0.5, math.sqrt(0.75)])]
    assert math.isclose(mmr_score(a, prev_half, 5, 0.8, 2.0), 1.5)


def test_mmr_window_limits_lookback():
    far = make_item(1, [1, 0])  # identical to candidate but outside window
    near = make_item(2, [0, 1])
    cand = make_item(0, [1, 0])
    score_windowed = mmr_score(cand, [far, near], 1, 0.0, 0.0)
    assert math.isclose(score_windowed, 0.0)  # only `near` is visible
    score_full = mmr_score(cand, [far, near], 2, 0.0, 0.0)
    assert math.isclose(score_full, -1.0)


# ----------------------------- generation ------------------------------------


def test_generate_single_queue_is_queue_order(small_config, small_params,
                                              small_catalog, weights):
    rng = np.random.default_rng(3)
    pool = table_items(sample_pool(small_catalog, small_config.l_s, rng))
    user = sample_user(rng, small_config.d_user)
    spec = [QueueSpec("click", {"ctr": 1.0}, 0)]
    q = generation.build_queues(sortmodel.item_features(pool), spec, "dfs", small_config.l_o)
    vm = ValueModel(small_config, small_params)
    trace = generation.generate(user, q, vm, weights, lam=1.0)
    expected = [pool[i].id for i in q.queues[0][: small_config.l_o]]
    assert trace.ids == expected
    assert set(trace.sources) == {0}


def test_generate_matches_iterative_reference(small_config, small_params,
                                              small_catalog, weights):
    rng = np.random.default_rng(4)
    for trial in range(20):
        pool = table_items(sample_pool(small_catalog, small_config.l_s, rng))
        user = sample_user(rng, small_config.d_user)
        lam = [1.0, 0.8, 0.5][trial % 3]
        strategy = ["dfs", "bfs"][trial % 2]
        q = generation.build_queues(sortmodel.item_features(pool), small_config.queue_specs,
                                    strategy, small_config.l_o)
        vm = ValueModel(small_config, small_params)
        fast = generation.generate(user, q, vm, weights, lam=lam)
        ref = generation.generate_iterative_reference(user, q, vm, weights,
                                                      lam=lam)
        assert fast.ids == ref.ids
        assert fast.sources == ref.sources
        # The cached steps score every candidate as full recomputation does.
        for got, want in zip(fast.steps, ref.steps):
            assert [c[:2] for c in got.candidates] == [c[:2] for c in want.candidates]
            for (_, _, v_got, _), (_, _, v_want, _) in zip(got.candidates, want.candidates):
                assert abs(v_got - v_want) <= 1e-12
        full = float(vm.combined_values([[pool[i] for i in fast.rows]], user, weights)[0])
        assert abs(fast.final_value - full) <= 1e-12 * abs(full)


def test_generate_on_packed_pool_equals_item_pool(small_config, small_params,
                                                  small_catalog, weights):
    # The greedy loop reads only the packed pool: each step's MMR score equals
    # mmr_score over the pool's Items, whose similarity is the Item-level dot
    # product, and the slate's items are the pool's.
    rng = np.random.default_rng(12)
    vm = ValueModel(small_config, small_params)
    for lam in (1.0, 0.8, 0.5):
        pool = table_items(sample_pool(small_catalog, small_config.l_s, rng))
        user = sample_user(rng, small_config.d_user)
        queues = generation.build_queues(sortmodel.item_features(pool), small_config.queue_specs,
                                         "dfs", small_config.l_o)
        trace = generation.generate(user, queues, vm, weights, lam=lam)
        by_id = {it.id: it for it in pool}
        for t, step in enumerate(trace.steps):
            prefix = [pool[i] for i in trace.rows[:t]]
            for _, item_id, value, score in step.candidates:
                assert score == mmr_score(by_id[item_id], prefix,
                                          small_config.window_w, lam, value)
        rows = list(trace.rows)
        assert trace.ids == [pool[i].id for i in rows]
        assert trace.features.cat[rows].tolist() == [pool[i].category for i in rows]
        assert trace.features.price[rows].tolist() == [pool[i].price for i in rows]
        assert np.array_equal(trace.features.emb[rows], [pool[i].embedding for i in rows])


@pytest.mark.parametrize("window_w", [0, -1])
@pytest.mark.parametrize("fn", [generation.generate, generation.generate_iterative_reference])
def test_window_below_one_is_rejected(small_config, small_params, weights, window_w, fn):
    # The window slice chosen[-0:] would be the whole prefix, not an empty one.
    # A generation takes no window of its own: it reads the model's config,
    # which refuses one below one.
    queues = generation.build_queues(sortmodel.item_features(_abcd_pool()),
                                     [QueueSpec("click", {"ctr": 1.0}, 0)], "dfs", 2)
    user = sample_user(np.random.default_rng(13), small_config.d_user)
    with pytest.raises(TypeError, match="window_w"):
        fn(user, queues, ValueModel(small_config, small_params), weights, lam=0.0,
           window_w=window_w)
    with pytest.raises(ConfigError, match="^window_w must be >= 1$"):
        dataclasses.replace(small_config, window_w=window_w)


@pytest.mark.parametrize("fn", [generation.generate, generation.generate_iterative_reference])
def test_lambda_outside_zero_one_is_rejected(small_config, small_params, weights, fn):
    queues = generation.build_queues(sortmodel.item_features(_abcd_pool()),
                                     [QueueSpec("click", {"ctr": 1.0}, 0)], "dfs", 2)
    user = sample_user(np.random.default_rng(13), small_config.d_user)
    with pytest.raises(ConfigError) as exc:
        fn(user, queues, ValueModel(small_config, small_params), weights, lam=1.5)
    assert str(exc.value) == "lambda outside [0,1]"


def test_window_of_one_sees_only_the_last_item(small_config, small_params, small_catalog,
                                               weights):
    rng = np.random.default_rng(14)
    vm = ValueModel(dataclasses.replace(small_config, window_w=1), small_params)
    for lam in (0.0, 0.5):
        pool = table_items(sample_pool(small_catalog, small_config.l_s, rng))
        queues = generation.build_queues(sortmodel.item_features(pool), small_config.queue_specs,
                                         "dfs", small_config.l_o)
        trace = generation.generate(sample_user(rng, small_config.d_user), queues, vm, weights,
                                    lam=lam)
        by_id = {it.id: it for it in pool}
        for t, step in enumerate(trace.steps):
            prefix = [pool[i] for i in trace.rows[:t]]
            for _, item_id, value, score in step.candidates:
                assert score == mmr_score(by_id[item_id], prefix, 1, lam, value)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2**32 - 1), lam=st.sampled_from([0.0, 0.5, 0.8, 1.0]),
       strategy=st.sampled_from(["dfs", "bfs"]),
       head_mode=st.sampled_from(["monotone", "literal"]))
def test_generate_matches_iterative_reference_at_any_window(small_config, small_catalog,
                                                            weights, data, seed, lam, strategy,
                                                            head_mode):
    # The cached step, its running list values and its reused similarities
    # against one full forward per candidate and the per-Item MMR reference.
    window_w = data.draw(st.integers(1, small_config.l_o + 1), label="window_w")
    cfg = dataclasses.replace(small_config, head_mode=head_mode, window_w=window_w)
    rng = np.random.default_rng(seed)
    vm = ValueModel(cfg, sortmodel.init_params(cfg, seed=int(rng.integers(1000))))
    pool = table_items(sample_pool(small_catalog, cfg.l_s, rng))
    user = sample_user(rng, cfg.d_user)
    queues = generation.build_queues(sortmodel.item_features(pool), cfg.queue_specs, strategy,
                                     cfg.l_o)
    fast = generation.generate(user, queues, vm, weights, lam=lam)
    ref = generation.generate_iterative_reference(user, queues, vm, weights, lam=lam)
    assert fast.ids == ref.ids
    assert fast.sources == ref.sources
    by_id = {it.id: it for it in pool}
    for t, (got, want) in enumerate(zip(fast.steps, ref.steps)):
        assert [c[:2] for c in got.candidates] == [c[:2] for c in want.candidates]
        prefix = [pool[i] for i in fast.rows[:t]]
        for (_, item_id, v_got, s_got), (_, _, v_want, s_want) in zip(got.candidates,
                                                                       want.candidates):
            assert abs(v_got - v_want) <= 1e-12 * abs(v_want)
            assert s_got == mmr_score(by_id[item_id], prefix, window_w, lam, v_got)
            assert s_want == mmr_score(by_id[item_id], prefix, window_w, lam, v_want)


@pytest.mark.parametrize("strategy", ["dfs", "bfs"])
@pytest.mark.parametrize("fn", [generation.generate, generation.generate_iterative_reference])
def test_trace_ids_are_the_chosen_candidates(small_config, small_params, small_catalog,
                                             weights, strategy, fn):
    # Position t of the slate is the candidate that step t chose.
    rng = np.random.default_rng(15)
    vm = ValueModel(small_config, small_params)
    for lam in (1.0, 0.5):
        pool = table_items(sample_pool(small_catalog, small_config.l_s, rng))
        user = sample_user(rng, small_config.d_user)
        queues = generation.build_queues(sortmodel.item_features(pool), small_config.queue_specs,
                                         strategy, small_config.l_o)
        trace = fn(user, queues, vm, weights, lam=lam)
        chosen = [next(iid for qi, iid, _, _ in step.candidates if qi == step.chosen_queue)
                  for step in trace.steps]
        assert trace.ids == chosen
        assert [pool[i].id for i in trace.rows] == chosen


def test_invocation_budget(small_config, small_params, small_catalog, weights):
    # Pool large enough that every queue holds l_o items, so the reference
    # evaluates exactly one candidate per queue at every step.
    rng = np.random.default_rng(5)
    n_queues = len(small_config.queue_specs)
    pool = sample_pool(small_catalog, n_queues * small_config.l_o, rng)
    user = sample_user(rng, small_config.d_user)
    q = generation.build_queues(pool, small_config.queue_specs, "dfs", small_config.l_o)
    vm = ValueModel(small_config, small_params)
    fast = generation.generate(user, q, vm, weights)
    ref = generation.generate_iterative_reference(user, q, vm, weights)
    assert fast.invocations <= small_config.l_o
    assert ref.invocations == len(small_config.queue_specs) * small_config.l_o


def test_generate_leaves_its_queues_unchanged(small_config, small_params, small_catalog,
                                              weights):
    rng = np.random.default_rng(17)
    pool = sample_pool(small_catalog, small_config.l_s, rng)
    user = sample_user(rng, small_config.d_user)
    queues = generation.build_queues(pool, small_config.queue_specs, "bfs", small_config.l_o)
    before = pickle.dumps(queues)  # every field, the pool's arrays included
    vm = ValueModel(small_config, small_params)
    for fn in (generation.generate, generation.generate_iterative_reference):
        fn(user, queues, vm, weights, lam=0.5)
        assert pickle.dumps(queues) == before
    generation.template_generate(queues, (0,) * small_config.l_o)
    assert pickle.dumps(queues) == before


def test_generators_share_one_queues_object(small_config, small_params, small_catalog, weights):
    # generate, template_generate, then generate again on one queues object:
    # each starts from the queue heads, so the last slate is the first.
    rng = np.random.default_rng(18)
    pool = sample_pool(small_catalog, small_config.l_s, rng)
    user = sample_user(rng, small_config.d_user)
    queues = generation.build_queues(pool, small_config.queue_specs, "dfs", small_config.l_o)
    vm = ValueModel(small_config, small_params)
    first = generation.generate(user, queues, vm, weights, lam=0.8)
    template = generation.template_generate(queues, (1, 0, 1))
    assert template.rows[:2] == (queues.queues[1][0], queues.queues[0][0])
    again = generation.generate(user, queues, vm, weights, lam=0.8)
    assert (again.rows, again.sources) == (first.rows, first.sources)
    assert [s.candidates for s in again.steps] == [s.candidates for s in first.steps]


def test_one_value_model_serves_concurrent_generations(small_config, small_params,
                                                       small_catalog, weights):
    # Four threads share one ValueModel and generate over the same requests:
    # each slate equals the serial one, and each trace counts its own model
    # invocations, one per two positions.
    rng = np.random.default_rng(19)
    n_queues = len(small_config.queue_specs)
    requests = []
    for _ in range(6):
        pool = sample_pool(small_catalog, n_queues * small_config.l_o, rng)
        requests.append((sample_user(rng, small_config.d_user),
                         generation.build_queues(pool, small_config.queue_specs, "dfs",
                                                 small_config.l_o)))
    vm = ValueModel(small_config, small_params)
    serial = [generation.generate(user, queues, vm, weights, lam=0.8) for user, queues in requests]
    results, errors = {}, []

    def worker(t):
        try:
            for k in range(len(requests)):
                k = (k + t) % len(requests)
                results[t, k] = generation.generate(*requests[k], vm, weights, lam=0.8)
        except Exception as exc:  # surfaced below
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(t,)) for t in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, inside the loop's Python code
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors
    assert len(results) == 4 * len(requests)
    for (_, k), trace in results.items():
        assert (trace.rows, trace.sources) == (serial[k].rows, serial[k].sources)
        assert trace.final_value == serial[k].final_value
        assert trace.invocations == (small_config.l_o + 1) // 2 <= small_config.l_o


def test_generate_no_duplicate_ids(small_config, small_params, small_catalog, weights):
    rng = np.random.default_rng(6)
    for _ in range(25):
        pool = sample_pool(small_catalog, small_config.l_s, rng)
        user = sample_user(rng, small_config.d_user)
        q = generation.build_queues(pool, small_config.queue_specs, "bfs", small_config.l_o)
        vm = ValueModel(small_config, small_params)
        ids = generation.generate(user, q, vm, weights).ids
        assert len(ids) == len(set(ids)) == small_config.l_o


def test_generate_infeasible_when_queues_too_small(small_config, small_params, weights):
    pool = _abcd_pool()
    spec = [QueueSpec("click", {"ctr": 1.0}, 0)]
    # One queue holds all 4 items of the pool, one short of a 5-item slate.
    q = generation.build_queues(sortmodel.item_features(pool), spec, "dfs", l_o=5)
    vm = ValueModel(small_config, small_params)
    user = sample_user(np.random.default_rng(7), small_config.d_user)
    with pytest.raises(generation.InfeasibleConfig):
        generation.generate(user, q, vm, weights)


# Seven queues in priority order: one per score term, then two mixed ones.
_QUEUE_SPECS = tuple(QueueSpec(f"q{p}", coeffs, p) for p, coeffs in enumerate(
    [{term: 1.0} for term in SCORE_TERMS] + [{"ctr": 1.0, "price": 0.01},
                                             {"cvr": 1.0, "price": 0.01}]))


@pytest.mark.parametrize("l_o, n_queues, strategy, lam", [
    (1, 3, "dfs", 0.8), (2, 3, "dfs", 0.8), (4, 3, "bfs", 0.5), (5, 3, "dfs", 0.8),
    (5, 1, "dfs", 0.8), (4, 1, "bfs", 0.5), (5, 2, "bfs", 0.0), (4, 3, "dfs", 1.0),
    (5, 3, "bfs", 0.0), (5, 5, "dfs", 0.8), (4, 6, "bfs", 0.5), (5, 7, "dfs", 1.0)])
def test_generate_equals_the_reference_at_edge_shapes(small_config, small_catalog, weights,
                                                      l_o, n_queues, strategy, lam):
    # Odd and even slate lengths (an odd one ends in a one-level step), one
    # queue, more queues than a tree's rows allow, and pools so small that
    # queues run dry in the middle of a slate, or all of them before its end.
    cfg = dataclasses.replace(small_config, l_o=l_o, max_count=l_o,
                              queue_specs=_QUEUE_SPECS[:n_queues])
    vm = ValueModel(cfg, sortmodel.init_params(cfg, seed=l_o + 10 * n_queues))
    rng = np.random.default_rng(l_o + 10 * n_queues)
    tree = n_queues * (n_queues + 1) <= generation.TREE_ROWS
    for size in (n_queues * l_o, l_o + 1, l_o, l_o - 1):
        if size < 1:
            continue
        pool = sample_pool(small_catalog, size, rng)
        user = sample_user(rng, cfg.d_user)
        queues = generation.build_queues(pool, cfg.queue_specs, strategy, l_o)
        if size < l_o:
            # Every queue runs dry after `size` selections, in both generators.
            for fn in (generation.generate, generation.generate_iterative_reference):
                with pytest.raises(generation.InfeasibleConfig,
                                   match=f"after {size} of {l_o} selections"):
                    fn(user, queues, vm, weights, lam=lam)
            continue
        fast = generation.generate(user, queues, vm, weights, lam=lam)
        ref = generation.generate_iterative_reference(user, queues, vm, weights, lam=lam)
        assert fast.rows == ref.rows and fast.sources == ref.sources
        assert len(fast.steps) == len(ref.steps) == l_o
        for got, want in zip(fast.steps, ref.steps):
            assert got.chosen_queue == want.chosen_queue
            assert [c[:2] for c in got.candidates] == [c[:2] for c in want.candidates]
            np.testing.assert_allclose([c[2] for c in got.candidates],
                                       [c[2] for c in want.candidates], rtol=1e-12, atol=0.0)
        useful = sum(len(step.candidates) for step in fast.steps)
        assert ref.invocations == useful
        assert ref.scored_rows == sum(len(step.candidates) * (t + 1)
                                      for t, step in enumerate(fast.steps))
        assert fast.scored_rows >= useful
        if size == n_queues * l_o:  # no queue runs dry
            assert fast.invocations == ((l_o + 1) // 2 if tree else l_o)
            # A tree wastes the branches not chosen, which one queue never has.
            assert (fast.scored_rows > useful) == (tree and n_queues > 1 and l_o > 1)


def test_trace_serializes(small_config, small_params, small_catalog, weights):
    import json

    rng = np.random.default_rng(8)
    pool = sample_pool(small_catalog, small_config.l_s, rng)
    user = sample_user(rng, small_config.d_user)
    q = generation.build_queues(pool, small_config.queue_specs, "dfs", small_config.l_o)
    vm = ValueModel(small_config, small_params)
    trace = generation.generate(user, q, vm, weights)
    doc = json.loads(trace.to_record())
    assert len(doc["item_ids"]) == small_config.l_o
    assert len(doc["source_queues"]) == small_config.l_o
    assert doc["invocations"] == trace.invocations <= small_config.l_o
    assert doc["scored_rows"] == trace.scored_rows >= small_config.l_o


# ----------------------------- template / top-queue --------------------------


def test_template_generate_follows_pattern(small_catalog):
    rng = np.random.default_rng(9)
    pool = sample_pool(small_catalog, 12, rng)
    cfg = EngineConfig()
    q = generation.build_queues(pool, cfg.queue_specs, "dfs", 5)
    pattern = (0, 1, 0, 2, 0)
    slate = generation.template_generate(q, pattern)
    assert slate.sources == pattern
    assert len(set(slate.ids)) == 5


def test_template_generate_with_every_queue_dry_is_infeasible():
    # One queue of two items, and a three-item pattern.
    q = generation.build_queues(sortmodel.item_features(_abcd_pool()),
                                [QueueSpec("click", {"ctr": 1.0}, 0)], "dfs", 2)
    with pytest.raises(generation.InfeasibleConfig) as exc:
        generation.template_generate(q, (0, 0, 0))
    assert str(exc.value) == "all queues exhausted during template generation"


def test_top_queue_generate_on_a_pool_smaller_than_l_o_is_infeasible(weights):
    with pytest.raises(generation.InfeasibleConfig) as exc:
        generation.top_queue_generate(sortmodel.item_features(_abcd_pool()), weights, 5)
    assert str(exc.value) == "pool smaller than l_o"


def test_top_queue_generate_is_pointwise_order(small_catalog, weights):
    rng = np.random.default_rng(10)
    pool = sample_pool(small_catalog, 12, rng)
    slate = generation.top_queue_generate(pool, weights, 5)
    spec = generation.top_queue_spec(weights)
    scores = generation.composite_score(slate.features, spec)[list(slate.rows)]
    assert all(a >= b for a, b in zip(scores, scores[1:]))


# ------------------------------- oracle --------------------------------------


def test_oracle_three_choose_two(small_config, small_params, weights):
    es = np.eye(8)
    pool = [make_item(i, es[i], ctr=0.3 + 0.1 * i, cvr=0.1) for i in range(3)]
    user = sample_user(np.random.default_rng(11), small_config.d_user)
    vm = ValueModel(small_config, small_params)
    best_val, best = generation.exhaustive_oracle(sortmodel.item_features(pool), user, vm,
                                                  weights, 2)
    # brute force over the 6 arrangements with the same value model
    vals = {}
    for perm in itertools.permutations(range(3), 2):
        seq = [pool[i] for i in perm]
        vals[perm] = float(vm.combined_values([seq], user, weights)[0])
    assert math.isclose(best_val, max(vals.values()), rel_tol=1e-12)
    assert len(vals) == 6


def test_oracle_single_item(small_config, small_params, weights):
    es = np.eye(8)
    pool = [make_item(0, es[0], ctr=0.4)]
    user = sample_user(np.random.default_rng(12), small_config.d_user)
    vm = ValueModel(small_config, small_params)
    best_val, best = generation.exhaustive_oracle(sortmodel.item_features(pool), user, vm,
                                                  weights, 1)
    own = float(vm.combined_values([[pool[0]]], user, weights)[0])
    assert math.isclose(best_val, own, rel_tol=1e-12)
    assert best.ids == [0]


def test_oracle_guard(small_config, small_params, weights):
    es = np.eye(8)
    pool = [make_item(i, es[i % 8] + 0.001 * np.arange(8) * (i // 8 + 1))
            for i in range(30)]
    user = sample_user(np.random.default_rng(13), small_config.d_user)
    vm = ValueModel(small_config, small_params)
    with pytest.raises(ConfigError, match="guard"):
        generation.exhaustive_oracle(sortmodel.item_features(pool), user, vm, weights, 8)


def test_oracle_pool_smaller_than_l_o(small_config, small_params, weights):
    es = np.eye(8)
    features = sortmodel.item_features([make_item(i, es[i]) for i in range(3)])
    user = sample_user(np.random.default_rng(16), small_config.d_user)
    vm = ValueModel(small_config, small_params)
    with pytest.raises(generation.InfeasibleConfig, match="pool smaller than l_o"):
        generation.exhaustive_oracle(features, user, vm, weights, 4)


def test_oracle_dominates_greedy(small_config, small_params, small_catalog, weights):
    rng = np.random.default_rng(14)
    l_o = 3
    for _ in range(5):
        pool = table_items(sample_pool(small_catalog, 6, rng))
        user = sample_user(rng, small_config.d_user)
        vm = ValueModel(small_config, small_params)
        features = sortmodel.item_features(pool)
        best_val, _ = generation.exhaustive_oracle(features, user, vm, weights, l_o)
        q = generation.build_queues(features, small_config.queue_specs, "dfs", l_o)
        trace = generation.generate(user, q, vm, weights, lam=1.0)
        assert len(trace.rows) == l_o  # the queues' slate length, not the model's 5
        greedy = float(vm.combined_values([[pool[i] for i in trace.rows]], user, weights)[0])
        assert greedy <= best_val + 1e-9


def test_memoised_window_mask_is_read_only():
    mask, has_prev = generation.window_mask(6, 2)
    assert generation.window_mask(6, 2)[0] is mask
    with pytest.raises(ValueError):
        mask[3, 0] = True
    with pytest.raises(ValueError):
        has_prev[0] = True


def test_window_similarities_equal_the_unmemoised_formula():
    l_o = EngineConfig().l_o
    rng = np.random.default_rng(8)
    generation.window_mask.cache_clear()
    for length in range(1, l_o + 3):
        emb = rng.normal(size=(length, 8))
        emb[-1] = emb[0]  # a repeated row
        for window in range(0, l_o + 3):
            t = np.arange(length)
            lag = t[:, None] - t[None, :]
            mask = (lag >= 1) & (lag <= window)
            best = np.where(mask, emb @ emb.T, -np.inf).max(axis=1, initial=-np.inf)
            want = np.where(mask.any(axis=1), best, 0.0)
            for _ in range(2):  # the mask made, then the memoised one
                assert same_bits(generation.window_similarities(emb, window), want)

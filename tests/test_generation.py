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
from sortgen.core import SCORE_TERMS, ConfigError, EngineConfig, ObjectiveWeights, QueueSpec
from sortgen.generation import ValueModel
from sortgen.simulator import sample_pool, sample_user
from tests.helpers import (
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
def test_window_below_one_is_rejected(small_config, small_params, small_catalog, weights,
                                      window_w, fn):
    # The window slice chosen[-0:] would be the whole prefix, not an empty one.
    rng = np.random.default_rng(13)
    pool = sample_pool(small_catalog, small_config.l_s, rng)
    queues = generation.build_queues(pool, small_config.queue_specs, "dfs", small_config.l_o)
    vm = ValueModel(small_config, small_params)
    with pytest.raises(ConfigError, match="window_w"):
        fn(sample_user(rng, small_config.d_user), queues, vm, weights, lam=0.0,
           window_w=window_w)


def test_window_of_one_sees_only_the_last_item(small_config, small_params, small_catalog,
                                               weights):
    rng = np.random.default_rng(14)
    vm = ValueModel(small_config, small_params)
    for lam in (0.0, 0.5):
        pool = table_items(sample_pool(small_catalog, small_config.l_s, rng))
        queues = generation.build_queues(sortmodel.item_features(pool), small_config.queue_specs,
                                         "dfs", small_config.l_o)
        trace = generation.generate(sample_user(rng, small_config.d_user), queues, vm, weights,
                                    lam=lam, window_w=1)
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
    cfg = dataclasses.replace(small_config, head_mode=head_mode)
    window_w = data.draw(st.integers(1, cfg.l_o + 1), label="window_w")
    rng = np.random.default_rng(seed)
    vm = ValueModel(cfg, sortmodel.init_params(cfg, seed=int(rng.integers(1000))))
    pool = table_items(sample_pool(small_catalog, cfg.l_s, rng))
    user = sample_user(rng, cfg.d_user)
    queues = generation.build_queues(sortmodel.item_features(pool), cfg.queue_specs, strategy,
                                     cfg.l_o)
    fast = generation.generate(user, queues, vm, weights, lam=lam, window_w=window_w)
    ref = generation.generate_iterative_reference(user, queues, vm, weights, lam=lam,
                                                  window_w=window_w)
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
    # each slate equals the serial one, and each trace counts its own l_o
    # model invocations.
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
        assert trace.invocations == small_config.l_o


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
    q = generation.build_queues(sortmodel.item_features(pool), spec, "dfs", l_o=2)
    vm = ValueModel(dataclasses.replace(small_config, l_s=4), small_params)
    user = sample_user(np.random.default_rng(7), small_config.d_user)
    with pytest.raises(generation.InfeasibleConfig):
        generation.generate(user, q, vm, weights)


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
    assert doc["invocations"] <= small_config.l_o


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
    cfg = dataclasses.replace(small_config, l_s=3, l_o=2)
    vm = ValueModel(cfg, small_params)
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
    cfg = dataclasses.replace(small_config, l_s=1, l_o=1)
    vm = ValueModel(cfg, small_params)
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
    cfg = dataclasses.replace(small_config, l_s=6, l_o=3)
    for _ in range(5):
        pool = table_items(sample_pool(small_catalog, 6, rng))
        user = sample_user(rng, cfg.d_user)
        vm = ValueModel(cfg, small_params)
        features = sortmodel.item_features(pool)
        best_val, _ = generation.exhaustive_oracle(features, user, vm, weights, 3)
        q = generation.build_queues(features, cfg.queue_specs, "dfs", 3)
        trace = generation.generate(user, q, vm, weights, lam=1.0)
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

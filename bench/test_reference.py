"""Properties of the benchmark's NumPy reference, and its agreement with sortgen.

    PYTHONPATH=src python3 -m pytest -q bench/test_reference.py
"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import common  # noqa: E402
import reference  # noqa: E402
from sortgen import model, server  # noqa: E402
from sortgen.core import EngineConfig, ObjectiveWeights, UserContext  # noqa: E402


def _checkpoint(tmp_path, head_mode="monotone", seed=3):
    """A checkpoint whose parameters are all random, so no gain or bias is trivial."""
    config = EngineConfig(head_mode=head_mode, seed=seed)
    params = model.init_params(config, seed=seed)
    rng = np.random.default_rng(seed)
    for p in params.values():
        p.value = p.value + 0.3 * rng.normal(size=p.value.shape)
    path = tmp_path / f"{head_mode}.ckpt"
    model.save_checkpoint(path, params, config)
    return path, config, params


def _inputs(rng, n, l):
    emb = rng.normal(size=(n, l, common.D_EMB))
    emb /= np.linalg.norm(emb, axis=-1, keepdims=True)
    return emb, rng.normal(size=(n, common.D_USER)), rng.uniform(0.0, 0.3, size=(n, l, 2))


@pytest.fixture(params=["monotone", "literal"])
def ckpt(request, tmp_path):
    return _checkpoint(tmp_path, request.param)


def test_outputs_at_j_ignore_later_items(ckpt):
    path, config, _ = ckpt
    ref = reference.load_checkpoint(path)
    rng = np.random.default_rng(0)
    emb, user, score = _inputs(rng, 4, config.l_o)
    base = reference.forward(ref, emb, user, score)
    for j in range(1, config.l_o):
        emb2, score2 = emb.copy(), score.copy()
        tail_emb, _, tail_score = _inputs(rng, 4, config.l_o - j)
        emb2[:, j:], score2[:, j:] = tail_emb, tail_score
        for a, b in zip(base, reference.forward(ref, emb2, user, score2)):
            np.testing.assert_allclose(a[:, :j], b[:, :j], rtol=0, atol=1e-12)


def test_survival_is_zero_where_i_exceeds_j(ckpt):
    path, config, _ = ckpt
    ref = reference.load_checkpoint(path)
    for s in reference.forward(ref, *_inputs(np.random.default_rng(1), 3, config.l_o)):
        j = np.arange(1, config.l_o + 1)[:, None]
        i = np.arange(1, config.max_count + 1)[None, :]
        assert (s[:, i > j] == 0.0).all()
        assert (s[:, i <= j] > 0.0).all()


def test_clamped_survival_is_non_increasing_in_i(ckpt):
    path, config, _ = ckpt
    ref = reference.load_checkpoint(path)
    for s in reference.forward(ref, *_inputs(np.random.default_rng(2), 5, config.l_o)):
        clamped = reference.monotone(s)
        assert (np.diff(clamped, axis=-1) <= 0.0).all()
        np.testing.assert_array_equal(reference.expected_counts(s), clamped.sum(axis=-1))
        if ref.config["head_mode"] == "monotone":  # the ordinal link needs no clamp
            np.testing.assert_array_equal(clamped, s)


def test_forward_matches_model_forward(ckpt):
    path, config, params = ckpt
    ref = reference.load_checkpoint(path)
    for n, l in ((1, 1), (3, 4), (7, config.l_o)):
        emb, user, score = _inputs(np.random.default_rng(n), n, l)
        out = model.forward(config, params, emb, user, score)
        click, pay = reference.forward(ref, emb, user, score)
        np.testing.assert_allclose(click, out.click.value, rtol=0, atol=1e-12)
        np.testing.assert_allclose(pay, out.pay.value, rtol=0, atol=1e-12)


def test_dfs_queues_are_disjoint_ranked_and_capped(tmp_path):
    path, config, _ = _checkpoint(tmp_path)
    ref = reference.load_checkpoint(path)
    (_, pool), = common.make_requests(5, 1, 40, 200)
    queues = reference.dfs_queues(pool, ref.config["queue_specs"], config.l_o)
    flat = [i for q in queues for i in q]
    assert len(flat) == len(set(flat)) and all(len(q) == config.l_o for q in queues)
    for spec, q in zip(sorted(ref.config["queue_specs"], key=lambda s: s["priority"]), queues):
        scores = [reference._queue_score(pool, i, spec["coeffs"]) for i in q]
        assert scores == sorted(scores, reverse=True)


def test_rerank_matches_server_rerank(tmp_path):
    path, config, params = _checkpoint(tmp_path)
    ref = reference.load_checkpoint(path)
    weights = ObjectiveWeights(5.0, 1.0, 1.0)
    for user, pool in common.make_requests(7, 4, 60, 300):
        reply = server.rerank(config, params, UserContext(user), common.to_items(pool), weights)
        ids, sources, value = reference.rerank(ref, user, pool, (5.0, 1.0, 1.0))
        assert reply["item_ids"] == ids and reply["source_queues"] == sources
        assert value == pytest.approx(reply["combined_value"], rel=1e-9)

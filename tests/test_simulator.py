import dataclasses
import hashlib
import json
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sortgen import core, simulator
from sortgen.core import ConfigError, EngineConfig, ObjectiveWeights
from sortgen.model import ItemFeatures, item_features
from sortgen.simulator import SimConfig
from tests.helpers import (
    click_prob, ground_truth_slate_value, pay_prob_given_click, same_bits,
    sample_catalog_reference, sample_pool_reference, samples_reference,
    simulate_session_reference, table_items,
)


ENGINE = EngineConfig(l_s=10, l_o=5, max_count=5)
SIM = SimConfig(n_items=40, sessions=50, seed=11)


def _click_prob(gt, user, features, rows, t):
    """Click probability at 1-based position t of the list of catalog rows."""
    return gt.bind(features).list_probs(user.user_features, rows)[0][t - 1]


def test_catalog_deterministic():
    a = simulator.catalog_table(30, 8, 4, seed=1)
    b = simulator.catalog_table(30, 8, 4, seed=1)
    assert (a.emb == b.emb).all() and (a.price == b.price).all()


def test_catalog_unit_norm():
    assert (abs(np.linalg.norm(simulator.catalog_table(100, 8, 4, seed=2).emb, axis=1) - 1.0)
            < 1e-6).all()


def test_catalog_category_clustering():
    catalog = simulator.catalog_table(150, 8, 4, seed=3)
    rng = np.random.default_rng(0)
    intra, inter = [], []
    for _ in range(1000):
        a, b = rng.choice(len(catalog.ids), size=2, replace=False)
        sim = float(catalog.emb[a] @ catalog.emb[b])
        (intra if catalog.cat[a] == catalog.cat[b] else inter).append(sim)
    assert np.mean(intra) > np.mean(inter)


@pytest.mark.parametrize("n_items, d_emb, n_categories, seed",
                         [(1, 8, 1, 0), (30, 8, 4, 1), (200, 8, 8, 0), (57, 3, 5, 21)])
def test_catalog_table_equals_the_per_item_reference(n_items, d_emb, n_categories, seed):
    want = sample_catalog_reference(n_items, d_emb, n_categories, seed)
    table = simulator.catalog_table(n_items, d_emb, n_categories, seed)
    for got, ref in zip(table, item_features(want)):
        assert got.dtype == ref.dtype and same_bits(got, ref)
    got = table_items(table)
    assert len(got) == len(want) == n_items
    for a, b in zip(got, want):
        assert (a.id, a.price, a.prior_ctr, a.prior_cvr, a.category) \
            == (b.id, b.price, b.prior_ctr, b.prior_cvr, b.category)
        assert same_bits(a.embedding, b.embedding)


@pytest.mark.parametrize("n_items, size, seed", [(1, 1, 0), (40, 10, 1), (40, 40, 2),
                                                  (200, 30, 3), (57, 8, 4)])
def test_sample_pool_equals_the_per_item_reference(n_items, size, seed):
    table = simulator.catalog_table(n_items, ENGINE.d_emb, 4, seed)
    packed, listed = np.random.default_rng(seed + 100), np.random.default_rng(seed + 100)
    for _ in range(3):
        got = simulator.sample_pool(table, size, packed)
        want = item_features(sample_pool_reference(table_items(table), size, listed))
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and a.shape == b.shape and same_bits(a, b)
        assert packed.bit_generator.state == listed.bit_generator.state


class _FixedTruth:
    """A bound truth whose click and pay probabilities are fixed per position."""

    def __init__(self, click, pay):
        self.click, self.pay = np.array(click, dtype=float), np.array(pay, dtype=float)

    def list_probs(self, user, rows):
        return self.click[:len(rows)], self.pay[:len(rows)]


_CERTAIN = _FixedTruth([1.0] * 10, [1.0] * 10)  # every position clicks and pays


@pytest.mark.parametrize("sim, length", [
    (SIM, ENGINE.l_o),
    (SIM, 1),
    # Many clicks, and each with a high pay probability.
    (dataclasses.replace(SIM, base_pay=1.0, rho=1.0, kappa=0.0), ENGINE.l_o),
    (dataclasses.replace(SIM, base_pay=1.0, rho=1.0, kappa=0.0), 1),
    (None, ENGINE.l_o),
    (None, 1),
], ids=["default", "default_one_position", "all_pay", "all_pay_one_position",
        "certain", "certain_one_position"])
def test_simulate_session_equals_the_per_draw_reference(sim, length):
    features = simulator.catalog_table(40, ENGINE.d_emb, 4, seed=13)
    truth = (_CERTAIN if sim is None
             else simulator.make_ground_truth(ENGINE, sim).bind(features))
    draws = np.random.default_rng(14)
    block, one = np.random.default_rng(15), np.random.default_rng(15)
    clicked = paid = 0
    for _ in range(300):
        user = draws.normal(size=ENGINE.d_user)
        rows = draws.choice(len(features.ids), size=length, replace=False)
        got = simulator.simulate_session(user, truth, rows, block)
        want = simulate_session_reference(user, truth, rows, one)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype == np.int64 and same_bits(a, b)
        assert block.bit_generator.state == one.bit_generator.state
        clicked, paid = clicked + got[0].sum(), paid + got[1].sum()
    # The refill draws ran: a click takes a second draw at its position.
    assert paid > 0 and clicked > 0
    if sim is None:
        assert clicked == paid == 300 * length


def test_session_position_decay_off():
    gt = simulator.make_ground_truth(ENGINE, dataclasses.replace(SIM, rho=1.0, kappa=0.0))
    features = simulator.catalog_table(40, 8, 4, seed=4)
    rng = np.random.default_rng(1)
    user = simulator.sample_user(rng, ENGINE.d_user)
    # With rho=1 and kappa=0 the click probability of an item is the same
    # at position 1 and position 3.
    p1 = _click_prob(gt, user, features, [0, 1, 2], 1)
    p3 = _click_prob(gt, user, features, [1, 2, 0], 3)
    assert abs(p1 - p3) < 1e-12


def test_contrast_penalizes_duplicates():
    gt = simulator.make_ground_truth(ENGINE, dataclasses.replace(SIM, kappa=0.8))
    features = simulator.catalog_table(40, 8, 4, seed=5)
    rng = np.random.default_rng(2)
    user = simulator.sample_user(rng, ENGINE.d_user)
    target = 0
    dup = [target, target]
    # construct a near-orthogonal companion
    other = 1 + int(np.argmin(np.abs(features.emb[1:] @ features.emb[target])))
    ortho = [other, target]
    p_dup = _click_prob(gt, user, features, dup, 2)
    p_ortho = _click_prob(gt, user, features, ortho, 2)
    assert p_dup < p_ortho


def test_session_counts_properties():
    gt = simulator.make_ground_truth(ENGINE, SIM)
    features = simulator.catalog_table(40, 8, 4, seed=6)
    truth = gt.bind(features)
    rng = np.random.default_rng(3)
    for _ in range(500):
        user = simulator.sample_user(rng, ENGINE.d_user)
        pool = rng.choice(len(features.ids), size=ENGINE.l_s, replace=False)
        exposed = simulator.exposure_list(features.score[:, 0], pool, ENGINE.l_o, rng, 0.1)
        clicks, pays = simulator.simulate_session(user.user_features, truth, exposed, rng)
        cum_c, cum_p = np.cumsum(clicks), np.cumsum(pays)
        assert (np.diff(cum_c) >= 0).all()
        assert (cum_c <= np.arange(1, ENGINE.l_o + 1)).all()
        assert (cum_p <= cum_c).all()  # pay requires click


def test_position_bias_visible():
    sim = dataclasses.replace(SIM, rho=0.8, sessions=0)
    gt = simulator.make_ground_truth(ENGINE, sim)
    features = simulator.catalog_table(40, 8, 4, seed=7)
    truth = gt.bind(features)
    rng = np.random.default_rng(4)
    first, last = 0, 0
    n = 10000
    for _ in range(n):
        user = simulator.sample_user(rng, ENGINE.d_user)
        pool = rng.choice(len(features.ids), size=ENGINE.l_s, replace=False)
        exposed = simulator.exposure_list(features.score[:, 0], pool, ENGINE.l_o, rng, 0.5)
        clicks, _ = simulator.simulate_session(user.user_features, truth, exposed, rng)
        first += clicks[0]
        last += clicks[-1]
    assert first > last


def test_empty_exposed_list_rejected():
    gt = simulator.make_ground_truth(ENGINE, SIM)
    features = simulator.catalog_table(40, 8, 4, seed=8)
    user = simulator.sample_user(np.random.default_rng(5), ENGINE.d_user)
    with pytest.raises(ConfigError):
        simulator.simulate_session(user.user_features, gt.bind(features), [],
                                   np.random.default_rng(6))
    with pytest.raises(ConfigError, match="^empty exposed list$"):
        simulator.build_dataset(dataclasses.replace(ENGINE, l_o=0), SIM)


# ------------------------- vectorised ground truth ---------------------------

GT_ENGINE = EngineConfig()
GT_FEATURES = simulator.catalog_table(40, GT_ENGINE.d_emb, 4, seed=9)
GT_CATALOG = table_items(GT_FEATURES)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_list_probs_match_scalar_reference(data):
    # One vectorised pass equals the per-position scalar form to float
    # rounding: GEMM and array-power orderings differ from np.dot and scalar
    # ** by ulps, so equality is to 1e-15, not bitwise.
    l_o = GT_ENGINE.l_o
    length = data.draw(st.integers(1, l_o), label="length")
    sim = SimConfig(seed=data.draw(st.integers(0, 2**16), label="seed"),
                    gt_window=data.draw(st.integers(0, l_o + 2), label="gt_window"),
                    rho=data.draw(st.sampled_from([0.5, 0.9, 1.0]), label="rho"),
                    kappa=data.draw(st.sampled_from([0.0, 0.5, 0.8, 2.0]), label="kappa"))
    gt = simulator.make_ground_truth(GT_ENGINE, sim)
    user = simulator.sample_user(np.random.default_rng(sim.seed), GT_ENGINE.d_user)
    # Drawing from the first 3 rows makes lists of repeated embeddings.
    top = data.draw(st.sampled_from([2, len(GT_CATALOG) - 1]), label="top row")
    rows = data.draw(st.lists(st.integers(0, top), min_size=length, max_size=length),
                     label="rows")
    items = [GT_CATALOG[i] for i in rows]

    click, pay = gt.bind(GT_FEATURES).list_probs(user.user_features, rows)
    want_click = [click_prob(gt, user, items, t) for t in range(1, length + 1)]
    want_pay = [pay_prob_given_click(gt, user, it) for it in items]
    assert np.abs(click - want_click).max() <= 1e-15
    assert np.abs(pay - want_pay).max() <= 1e-15

    w = ObjectiveWeights()
    paid = [c * p for c, p in zip(want_click, want_pay)]
    want_value = (w.alpha * sum(want_click) + w.beta * sum(paid)
                  + w.gamma * sum(it.price * p for it, p in zip(items, paid)))
    value = ground_truth_slate_value(gt.bind(GT_FEATURES), user, rows, w)
    assert abs(value - want_value) <= 1e-12 * abs(want_value)


# The files' bytes under the installed NumPy, as the per-Item simulator wrote
# them: the vectorised ground truth draws the same labels.
@pytest.mark.parametrize("sim, digest", [
    (SimConfig(sessions=300),
     "a19e1077daba9fd6244f3df99644e725d86174e0e974451ead03adeceb05ed2d"),
    (SimConfig(sessions=300, seed=5, kappa=0.8, rho=1.0, gt_window=2),
     "b50565c101801664aa3deccff8cef8cf94fb538e25ad2ab7dd013c3440cfb4f4"),
    # The benchmark's train world.
    (SimConfig(sessions=2000),
     "d9119ba1e68a7ad7beab10cfd9539c8baf0bf2f1f08550906bdfafa0e9f81a11"),
])
def test_write_dataset_bytes_pinned(tmp_path, sim, digest):
    path = tmp_path / "data.jsonl"
    simulator.write_dataset(simulator.build_dataset(EngineConfig(), sim), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def test_bind_allocates_per_item_terms_only():
    # A 20k-row catalog: an [n, n] float array would be 3.2 GB; the bound
    # terms are [n, 2] each, 320 kB.
    n = 20_000
    rng = np.random.default_rng(12)
    emb = rng.normal(size=(n, GT_ENGINE.d_emb))
    features = ItemFeatures(np.arange(n), emb / np.linalg.norm(emb, axis=1, keepdims=True),
                            rng.uniform(0.01, 0.5, size=(n, 2)), rng.lognormal(size=n),
                            np.zeros(n, dtype=np.int64))
    gt = simulator.make_ground_truth(GT_ENGINE, SimConfig())
    tracemalloc.start()
    try:
        truth = gt.bind(features)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
    assert truth.appeal.shape == truth.prior.shape == (n, 2)
    user = simulator.sample_user(rng, GT_ENGINE.d_user)
    click, pay = truth.list_probs(user.user_features, np.array([0, n - 1, 7]))
    assert np.isfinite(click).all() and np.isfinite(pay).all()


@pytest.mark.parametrize("field, value", [("n_items", 0), ("n_categories", 0),
                                          ("sessions", -4), ("rho", float("nan")),
                                          ("kappa", float("inf")), ("base_pay", float("-inf")),
                                          ("exposure_noise", float("nan"))])
def test_sim_config_rejects_out_of_range_values(field, value):
    rule = "must be >= " if math.isfinite(value) else "must be finite"
    with pytest.raises(ConfigError, match=f"^sim.{field} {rule}"):
        SimConfig(**{field: value})


@pytest.mark.parametrize("field, value", [("rho", 0.0), ("rho", -0.5), ("rho", 1.5),
                                          ("gt_window", -3), ("base_pay", -0.3),
                                          ("exposure_noise", -0.1)])
def test_sim_config_rejects_values_that_build_a_wrong_dataset(field, value):
    rule = r"must be in \(0, 1\]" if field == "rho" else "must be >= 0"
    with pytest.raises(ConfigError, match=f"^sim.{field} {rule}"):
        SimConfig(**{field: value})


def test_sim_config_keeps_the_edge_values():
    # gt_window 0 means no contrast window; rho 1 means no position decay.
    SimConfig(rho=1.0, gt_window=0, base_pay=0.0, exposure_noise=0.0)


def test_build_dataset_constructs_no_item(tmp_path, monkeypatch):
    def refuse(self):
        raise AssertionError("an Item was built")

    monkeypatch.setattr(core.Item, "__post_init__", refuse)
    ds = simulator.build_dataset(ENGINE, SIM)
    simulator.write_dataset(ds, tmp_path / "data.jsonl")
    assert len(simulator.read_dataset(tmp_path / "data.jsonl")) == len(ds) == SIM.sessions


@pytest.mark.parametrize("read_back", [False, True])
def test_item_views_equal_the_per_item_catalog(tmp_path, read_back):
    ds = simulator.build_dataset(ENGINE, SIM)
    if read_back:
        simulator.write_dataset(ds, tmp_path / "data.jsonl")
        ds = simulator.read_dataset(tmp_path / "data.jsonl")
    want = sample_catalog_reference(SIM.n_items, ENGINE.d_emb, SIM.n_categories, SIM.seed)
    assert ds.n_catalog == len(ds.catalog.ids) == len(want)
    for got, ref in zip(ds.catalog, item_features(want)):
        assert got.dtype == ref.dtype and same_bits(got, ref)
    # Views of the item table's rows, not copies.
    assert all(np.shares_memory(view, column) for view, column in zip(ds.catalog, ds.features))


def test_dataset_deterministic():
    a = simulator.build_dataset(ENGINE, SIM)
    b = simulator.build_dataset(ENGINE, SIM)
    for sa, sb in zip(a.samples, b.samples):
        assert (sa.labels.clicks == sb.labels.clicks).all()
        assert [i.id for i in sa.items] == [i.id for i in sb.items]


def test_dataset_round_trip(tmp_path):
    ds = simulator.build_dataset(ENGINE, dataclasses.replace(SIM, sessions=100))
    path = tmp_path / "data.jsonl"
    simulator.write_dataset(ds, path)
    again = simulator.read_dataset(path)
    path2 = tmp_path / "data2.jsonl"
    simulator.write_dataset(again, path2)
    assert path.read_bytes() == path2.read_bytes()
    assert len(again.samples) == 100
    sa, sb = ds.samples[7], again.samples[7]
    assert (sa.user.user_features == sb.user.user_features).all()
    assert (sa.labels.pays == sb.labels.pays).all()
    assert all(x.id == y.id and (x.embedding == y.embedding).all()
               for x, y in zip(sa.items, sb.items))


@pytest.mark.parametrize("read_back", [False, True])
def test_samples_view_equals_the_per_session_objects(tmp_path, read_back):
    ds = simulator.build_dataset(ENGINE, SIM)
    if read_back:
        simulator.write_dataset(ds, tmp_path / "data.jsonl")
        ds = simulator.read_dataset(tmp_path / "data.jsonl")
    want = samples_reference(ENGINE, SIM)
    got = ds.samples
    assert len(got) == len(want) == len(ds) == SIM.sessions
    shared = {}  # id -> the one Item built for that table row
    for g, w in zip(got, want):
        assert [it.id for it in g.items] == [it.id for it in w.items]
        assert all(shared.setdefault(it.id, it) is it for it in g.items)
        for a, b in zip(item_features(g.items), item_features(w.items)):
            assert a.dtype == b.dtype and same_bits(a, b)
        assert g.user.user_features.tobytes() == w.user.user_features.tobytes()
        for a, b in ((g.labels.clicks, w.labels.clicks), (g.labels.pays, w.labels.pays)):
            assert a.dtype == b.dtype == np.int64 and same_bits(a, b)
    # Rebuilt on every access, and sharing no label memory with the arrays.
    assert ds.samples is not got
    got[0].labels.clicks[:] = 7
    assert (ds.clicks[0] <= 1).all()


def test_build_write_and_read_make_no_session_objects(tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a per-session object was built")

    for name in ("UserContext", "LabelVector", "ImpressionSample"):
        monkeypatch.setattr(simulator, name, refuse)
    ds = simulator.build_dataset(ENGINE, SIM)
    simulator.write_dataset(ds, tmp_path / "data.jsonl")
    assert len(simulator.read_dataset(tmp_path / "data.jsonl")) == len(ds) == SIM.sessions


def _edited_session(ds, path, edit, session=0):
    """Write `ds` to `path` with `edit` applied to the record of session
    `session`; the record's 1-based line number."""
    simulator.write_dataset(ds, path)
    lines = path.read_text().splitlines()
    index = 1 + ds.n_catalog + session
    doc = json.loads(lines[index])
    edit(doc)
    lines[index] = json.dumps(doc, sort_keys=True)
    path.write_text("\n".join(lines) + "\n")
    return index + 1


def test_read_dataset_maps_only_matching_items_onto_catalog_rows(tmp_path):
    ds = simulator.build_dataset(ENGINE, dataclasses.replace(SIM, sessions=20))
    path = tmp_path / "data.jsonl"
    _edited_session(ds, path, lambda doc: doc["items"][2].update(price=repr(123.5)), session=3)
    again = simulator.read_dataset(path)
    # Every item that matches its catalog record is that row; the edited one
    # gets a row of its own after the catalog.
    assert len(again.features.ids) == SIM.n_items + 1
    assert (again.rows[3, 2] == SIM.n_items) and again.features.price[-1] == 123.5
    expected = ds.rows.copy()
    expected[3, 2] = SIM.n_items
    assert (again.rows == expected).all()
    assert again.samples[3].items[2].price == 123.5
    path2 = tmp_path / "data2.jsonl"
    simulator.write_dataset(again, path2)
    assert path2.read_bytes() == path.read_bytes()


@pytest.mark.parametrize("edit, message", [
    (lambda doc: doc["pays"].pop(), "clicks and pays lengths differ"),
    (lambda doc: doc["items"].pop(), "a session's items and labels differ in length: "
                                     "4 items, 5 labels"),
    (lambda doc: [doc[key].pop() for key in ("items", "clicks", "pays")],
     "8 user features and 4 items, where the first session has 8 and 5"),
    (lambda doc: doc["user"].append("0.5"),
     "9 user features and 5 items, where the first session has 8 and 5"),
    (lambda doc: doc["user"].__setitem__(0, "nan"), "user features must be finite"),
])
def test_read_dataset_rejects_a_session_that_does_not_fit_the_arrays(tmp_path, edit, message):
    ds = simulator.build_dataset(ENGINE, dataclasses.replace(SIM, sessions=5))
    path = tmp_path / "data.jsonl"
    lineno = _edited_session(ds, path, edit, session=1)
    with pytest.raises(ConfigError, match=f"at line {lineno}: {message}$"):
        simulator.read_dataset(path)


def _set_labels(clicks, pays):
    def edit(doc):
        doc["clicks"], doc["pays"] = clicks, pays
    return edit


@pytest.mark.parametrize("edit, message", [
    (lambda doc: doc["clicks"].__setitem__(0, 7), "clicks[0] is 7, not 0 or 1"),
    (lambda doc: doc["pays"].__setitem__(2, -1), "pays[2] is -1, not 0 or 1"),
    (lambda doc: doc["clicks"].__setitem__(1, 0.5), "clicks[1] is 0.5, not 0 or 1"),
    (lambda doc: doc["clicks"].__setitem__(3, True), "clicks[3] is True, not 0 or 1"),
    (_set_labels([0, 0, 1, 0, 0], [0, 1, 1, 0, 0]), "a pay without a click at position 1"),
], ids=["count", "negative", "fraction", "boolean", "pay_without_click"])
def test_read_dataset_rejects_labels_that_are_not_clicks_and_pays(tmp_path, edit, message):
    ds = simulator.build_dataset(ENGINE, dataclasses.replace(SIM, sessions=5))
    path = tmp_path / "data.jsonl"
    lineno = _edited_session(ds, path, edit, session=2)
    with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}: malformed record at line {lineno}: "
                                          f"{re.escape(message)}$"):
        simulator.read_dataset(path)


def _edited_line(ds, path, index, edit):
    """Write `ds` to `path` with `edit` applied to the record at 0-based line `index`."""
    simulator.write_dataset(ds, path)
    lines = path.read_text().splitlines()
    doc = json.loads(lines[index])
    edit(doc)
    lines[index] = json.dumps(doc, sort_keys=True)
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("index, edit, message", [
    (3, lambda doc: doc.update(price="-1.0"), r"item \d+: negative price"),
    (0, lambda doc: doc.update(format_version="sortgen-data-v0"),
     "unsupported format 'sortgen-data-v0'"),
    (0, lambda doc: doc.pop("engine_config"), "the header lacks the key 'engine_config'"),
    (0, lambda doc: doc.pop("sim_config"), "the header lacks the key 'sim_config'"),
    (3, lambda doc: doc.update(emb=["1.0"]),
     r"item 2: 1 embedding components, where the first item has 8"),
], ids=["negative_price", "format_version", "no_engine_config", "no_sim_config",
        "embedding_length"])
def test_read_dataset_names_the_line_of_a_faulty_record(tmp_path, index, edit, message):
    path = tmp_path / "data.jsonl"
    _edited_line(simulator.build_dataset(ENGINE, dataclasses.replace(SIM, sessions=5)), path,
                 index, edit)
    with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}: malformed record at line {index + 1}: "
                                          f"{message}$"):
        simulator.read_dataset(path)


def test_read_dataset_rejects_a_catalog_record_after_a_session(tmp_path):
    # The item table's first rows are the catalog.
    path = tmp_path / "data.jsonl"
    simulator.write_dataset(simulator.build_dataset(ENGINE, dataclasses.replace(SIM, sessions=3)),
                            path)
    lines = path.read_text().splitlines()
    lines.append(lines.pop(1))
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}: malformed record at line "
                                          f"{len(lines)}: a catalog record after the first session$"):
        simulator.read_dataset(path)


@pytest.mark.parametrize("index, edit, message", [
    (0, lambda doc: doc.update(format_version="sortgen-data-v0"),
     "unsupported format 'sortgen-data-v0'"),
    (0, lambda doc: doc.pop("format_version"), "unsupported format None"),
    (3, lambda doc: doc.update(price="-1.0"), r"item \d+: negative price"),
    (3, lambda doc: doc.update(emb=["1.0"]),
     r"item 2: 1 embedding components, where the first item has 8"),
], ids=["format_version", "no_format_version", "negative_price", "embedding_length"])
def test_read_catalog_names_the_line_of_a_faulty_record(tmp_path, index, edit, message):
    path = tmp_path / "catalog.jsonl"
    simulator.write_catalog(simulator.catalog_table(10, ENGINE.d_emb, 3, seed=4), path)
    lines = path.read_text().splitlines()
    doc = json.loads(lines[index])
    edit(doc)
    lines[index] = json.dumps(doc, sort_keys=True)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}: malformed record at line {index + 1}: "
                                          f"{message}$"):
        simulator.read_catalog(path)


def test_catalog_round_trip(tmp_path):
    table = simulator.catalog_table(30, ENGINE.d_emb, 4, seed=5)
    path, path2 = tmp_path / "catalog.jsonl", tmp_path / "catalog2.jsonl"
    simulator.write_catalog(table, path)
    again = simulator.read_catalog(path)
    for got, want in zip(again, table):
        assert got.dtype == want.dtype and same_bits(got, want)
    simulator.write_catalog(again, path2)
    assert path2.read_bytes() == path.read_bytes()


def test_dataset_truncated_line_reports_lineno(tmp_path):
    ds = simulator.build_dataset(ENGINE, dataclasses.replace(SIM, sessions=5))
    path = tmp_path / "data.jsonl"
    simulator.write_dataset(ds, path)
    lines = path.read_text().splitlines()
    lines[3] = lines[3][: len(lines[3]) // 2]
    path.write_text("\n".join(lines))
    with pytest.raises(ConfigError, match="line 4"):
        simulator.read_dataset(path)


def test_empty_dataset_round_trip(tmp_path):
    ds = simulator.build_dataset(ENGINE, dataclasses.replace(SIM, sessions=0))
    path = tmp_path / "empty.jsonl"
    simulator.write_dataset(ds, path)
    again = simulator.read_dataset(path)
    assert again.samples == []
    assert len(again.catalog.ids) == SIM.n_items


def test_catalog_smaller_than_pool_rejected():
    with pytest.raises(ConfigError):
        simulator.build_dataset(ENGINE, dataclasses.replace(SIM, n_items=5))


def test_every_sample_item_in_catalog():
    ds = simulator.build_dataset(ENGINE, dataclasses.replace(SIM, sessions=20))
    ids = set(ds.catalog.ids.tolist())
    for s in ds.samples:
        assert all(it.id in ids for it in s.items)

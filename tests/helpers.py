"""Plain helpers shared by test modules, and the per-item and primitive-op
references that the vectorised code in src/ is tested against.

Kept apart from conftest.py, which pytest imports itself: a test module that
imported conftest would load it a second time under another name.
"""

import hashlib
import importlib.util
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from sortgen import model as sortmodel
from sortgen import nn, simulator, trainer, values
from sortgen.core import (ConfigError, Item, ObjectiveWeights, UserContext, config_hash,
                          item_fault, to_dict)
from sortgen.model import ItemFeatures
from sortgen.nn import Var
from sortgen.server import MAX_CANDIDATES, RequestError, _pack_rows


BENCH = Path(__file__).resolve().parent.parent / "bench"


def load_bench_workloads(monkeypatch):
    """bench/workloads.py, loaded by path with the bench directory on
    sys.path for its own imports (common, reference, spans), which are taken
    out of sys.modules again if they were not there before."""
    monkeypatch.syspath_prepend(str(BENCH))
    own = [name for name in ("common", "reference", "spans") if name not in sys.modules]
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(module)
    finally:
        for name in own:
            sys.modules.pop(name, None)
    return module


def make_item(i, emb, price=10.0, ctr=0.2, cvr=0.1, cat=0):
    emb = np.asarray(emb, dtype=np.float64)
    return Item(id=i, embedding=emb / np.linalg.norm(emb), price=price,
                prior_ctr=ctr, prior_cvr=cvr, category=cat)


def validate_config_reference(config) -> None:
    """The engine config rules as a check apart from the config, which
    `EngineConfig.__post_init__` replaced. `config` is anything with the
    fields of an EngineConfig, so a config that breaks a rule can be given.
    Raise ConfigError naming the first violated invariant; n_heads = 0 raises
    ZeroDivisionError."""
    if config.l_o > config.l_s:
        raise ConfigError("l_o exceeds l_s")
    if config.max_count > config.l_o:
        raise ConfigError("max_count exceeds l_o")
    if config.window_w < 1:
        raise ConfigError("window_w must be >= 1")
    if not 0.0 <= config.lambda_mmr <= 1.0:
        raise ConfigError("lambda_mmr outside [0,1]")
    if config.d_model % config.n_heads != 0:
        raise ConfigError("d_model not divisible by n_heads")
    for dim_name in ("l_s", "l_o", "d_emb", "d_user", "d_position", "d_model",
                     "n_layers", "n_heads", "max_count"):
        if getattr(config, dim_name) < 1:
            raise ConfigError(f"{dim_name} must be positive")
    if config.d_score != 2:
        raise ConfigError("d_score must be 2 (prior_ctr, prior_cvr)")
    if not config.queue_specs:
        raise ConfigError("empty queue_specs")
    priorities = [q.priority for q in config.queue_specs]
    if len(set(priorities)) != len(priorities):
        raise ConfigError("duplicate queue priorities")
    q = len(config.queue_specs)
    if config.partition_strategy not in ("dfs", "bfs"):
        raise ConfigError(f"unknown partition_strategy {config.partition_strategy!r}")
    if config.loss_mode not in ("ordered_regression", "pointwise"):
        raise ConfigError(f"unknown loss_mode {config.loss_mode!r}")
    if config.head_mode not in ("monotone", "literal"):
        raise ConfigError(f"unknown head_mode {config.head_mode!r}")
    if config.template_pattern:
        if len(config.template_pattern) != config.l_o:
            raise ConfigError("template_pattern length must equal l_o")
        if any(not 0 <= t < q for t in config.template_pattern):
            raise ConfigError("template_pattern indexes a missing queue")


def queue_ranking_reference(pool: list[Item], spec) -> list[int]:
    """Pool indices in one queue's order, scored one item at a time: highest
    score first, then ascending id. The reference for build_queues' ranking."""

    def score(item: Item) -> float:
        terms = {
            "ctr": item.prior_ctr,
            "cvr": item.prior_cvr,
            "ctr_cvr": item.prior_ctr * item.prior_cvr,
            "price": item.price,
            "ctr_cvr_price": item.prior_ctr * item.prior_cvr * item.price,
        }
        total = 0.0
        for key, coeff in spec.coeffs.items():  # left to right, as the columns are added
            total += coeff * terms[key]
        return total

    return sorted(range(len(pool)), key=lambda i: (-score(pool[i]), pool[i].id))


def item_features_reference(items) -> ItemFeatures:
    """Items packed one field at a time: the reference for
    `model.item_features`, which packs them in one pass."""
    if not len(items):
        raise ConfigError("empty candidate pool")
    return ItemFeatures(np.array([it.id for it in items], dtype=np.int64),
                        np.stack([it.embedding for it in items]),
                        np.array([[it.prior_ctr, it.prior_cvr] for it in items], dtype=np.float64),
                        np.array([it.price for it in items], dtype=np.float64),
                        np.array([it.category for it in items], dtype=np.int64))


def composite_score_reference(features: ItemFeatures, spec) -> np.ndarray:
    """A queue's score of every packed item, with every score term computed
    whether the spec names it or not: the reference for
    `generation.composite_score`, which computes only the named ones."""
    ctr, cvr, price = features.score[:, 0], features.score[:, 1], features.price
    terms = {
        "ctr": ctr,
        "cvr": cvr,
        "ctr_cvr": ctr * cvr,
        "price": price,
        "ctr_cvr_price": ctr * cvr * price,
    }
    return sum(c * terms[k] for k, c in spec.coeffs.items())


def build_queues_reference(features: ItemFeatures, specs, strategy: str,
                           l_o: int) -> list[list[int]]:
    """The queues of `generation.build_queues` from the reference scores, with
    assigned rows marked in a NumPy array where it marks them in a list."""
    specs = sorted(specs, key=lambda s: s.priority)
    rankings = [np.lexsort((features.ids, -composite_score_reference(features, s))).tolist()
                for s in specs]
    assigned = np.zeros(len(features.ids), dtype=bool)
    queues: list[list[int]] = [[] for _ in specs]
    if strategy == "dfs":
        for qi, ranking in enumerate(rankings):
            for idx in ranking:
                if len(queues[qi]) >= l_o:
                    break
                if not assigned[idx]:
                    queues[qi].append(idx)
                    assigned[idx] = True
    else:
        while True:
            progressed = False
            for qi, ranking in enumerate(rankings):
                if len(queues[qi]) >= l_o:
                    continue
                for idx in ranking:
                    if not assigned[idx]:
                        queues[qi].append(idx)
                        assigned[idx] = True
                        progressed = True
                        break
            if not progressed:
                break
    return queues


def parse_request_reference(doc, config):
    """server.parse_rerank_request one candidate at a time, with one validated
    Item per candidate: the reference for the packed parser.

    Each candidate's fields are read in the order id, emb, price, ctr, cvr,
    cat; then its Item is built, which applies the item rules; then its id is
    checked against the earlier ones. The first failure is a RequestError
    naming candidates[i] and the field. Returns (user, items, weights, lam).
    """
    if not isinstance(doc, dict):
        raise RequestError("request: expected a key/value document")
    if "user" not in doc:
        raise RequestError("user: missing")
    if not isinstance(doc["user"], list):
        raise RequestError("user: not a list")

    def scalar(v):
        if isinstance(v, bool):
            raise TypeError(f"{v!r} is a boolean, not a number")
        return float(v)

    try:
        user = UserContext(np.array([scalar(v) for v in doc["user"]]))
    except (TypeError, ValueError, OverflowError) as exc:
        raise RequestError(f"user: {exc}") from exc
    if user.user_features.shape[0] != config.d_user:
        raise RequestError(f"user: expected {config.d_user} features")
    if "candidates" not in doc or not isinstance(doc["candidates"], list):
        raise RequestError("candidates: missing or not a list")
    if len(doc["candidates"]) > MAX_CANDIDATES:
        raise RequestError("candidates: too many")
    if len(doc["candidates"]) < config.l_o:
        raise RequestError("candidates: insufficient candidates")

    def number(v):
        if not isinstance(v, (int, float, str)):
            raise TypeError(f"{v!r} is not a number")
        return float(v)

    def integer(v):
        if isinstance(v, str):
            v = int(v)
        elif isinstance(v, float) and math.isfinite(v) and v == math.floor(v):
            v = int(v)
        if not isinstance(v, int):
            raise ValueError(f"{v!r} is not an integer")
        if not -2**63 <= v <= 2**63 - 1:
            raise ValueError(f"{v} is outside int64")
        return int(v)

    def embedding(v):
        if not isinstance(v, list):
            raise TypeError("not a list")
        v = [number(x) for x in v]
        if len(v) != config.d_emb:
            raise ValueError(f"expected {config.d_emb} components")
        return np.array(v)

    items = []
    first_index: dict[int, int] = {}
    for i, cand in enumerate(doc["candidates"]):
        where = f"candidates[{i}]"
        if not isinstance(cand, dict):
            raise RequestError(f"{where}: not a key/value document")
        fields = {}
        for key, read in (("id", integer), ("emb", embedding), ("price", number),
                          ("ctr", number), ("cvr", number), ("cat", integer)):
            if key not in cand and key != "cat":
                raise RequestError(f"{where}.{key}: missing")
            try:
                fields[key] = read(cand.get(key, 0))
            except (TypeError, ValueError, OverflowError) as exc:
                raise RequestError(f"{where}.{key}: {exc}") from exc
        try:
            items.append(Item(fields["id"], fields["emb"], fields["price"], fields["ctr"],
                              fields["cvr"], fields["cat"]))
        except ConfigError as exc:
            field = next(f for word, f in (("embedding", "emb"), ("prior_ctr", "ctr"),
                                           ("prior_cvr", "cvr"), ("price", "price"))
                         if word in str(exc))
            raise RequestError(f"{where}.{field}: {exc}") from exc
        j = first_index.setdefault(items[-1].id, i)
        if j != i:
            raise RequestError(f"{where}.id: duplicate of candidates[{j}].id")
    weights = None
    if "weights" in doc:
        w = doc["weights"]
        if not isinstance(w, dict):
            raise RequestError("weights: expected a key/value document")
        values = []
        for name in ("alpha", "beta", "gamma"):
            if name not in w:
                raise RequestError(f"weights.{name}: missing")
            try:
                values.append(scalar(w[name]))
            except (TypeError, ValueError, OverflowError) as exc:
                raise RequestError(f"weights.{name}: {exc}") from exc
        try:
            weights = ObjectiveWeights(*values)
        except ConfigError as exc:  # a fault in one weight starts with its name
            raise RequestError(f"weights.{exc}" if ":" in str(exc) else f"weights: {exc}") \
                from exc
    lam = None
    if "lambda" in doc:
        try:
            lam = scalar(doc["lambda"])
        except (TypeError, ValueError, OverflowError) as exc:
            raise RequestError(f"lambda: {exc}") from exc
        if not 0.0 <= lam <= 1.0:
            raise RequestError("lambda: outside [0,1]")
    return user, items, weights, lam


def parse_candidates_reference(cands: list, d_emb: int) -> ItemFeatures:
    """server._parse_candidates with its earlier column packer and pool check:
    a numpy array per column, and np.unique over every pool. The reference
    for the one-pass packer; both fall back to server._pack_rows."""
    pool, malformed = _pack_columns_reference(cands, d_emb), None
    if pool is None:
        pool, malformed = _pack_rows(cands, d_emb)
    fault = _pool_fault_reference(pool) or malformed
    if fault is not None:
        i, field, reason = fault
        raise RequestError(f"candidates[{i}]{'.' + field if field else ''}: {reason}")
    return pool


def _pack_columns_reference(cands: list, d_emb: int) -> ItemFeatures | None:
    try:
        ids = np.array([c["id"] for c in cands])
        emb = np.array([c["emb"] for c in cands])
        score = np.array([[c["ctr"], c["cvr"]] for c in cands])
        price = np.array([c["price"] for c in cands])
        cat = np.array([c.get("cat", 0) for c in cands])
    except (KeyError, TypeError, ValueError):
        return None
    n = len(cands)
    if (ids.dtype != np.int64 or cat.dtype != np.int64 or ids.shape != (n,) or cat.shape != (n,)
            or emb.shape != (n, d_emb) or score.shape != (n, 2) or price.shape != (n,)
            or any(a.dtype.kind not in "if" for a in (emb, score, price))):
        return None
    return ItemFeatures(ids, np.asarray(emb, dtype=np.float64),
                        np.asarray(score, dtype=np.float64),
                        np.asarray(price, dtype=np.float64), cat)


def _pool_fault_reference(pool: ItemFeatures) -> tuple[int, str, str] | None:
    if not len(pool.ids):
        return None
    fault = item_fault(pool.emb, pool.score, pool.price)
    _, first, inverse = np.unique(pool.ids, return_index=True, return_inverse=True)
    repeat = first[inverse] != np.arange(len(pool.ids))
    i = int(np.argmax(repeat))
    if repeat[i] and (fault is None or i < fault[0]):
        return i, "id", f"duplicate of candidates[{first[inverse[i]]}].id"
    return fault


# Per-Item references for the similarity and MMR arithmetic of the greedy loop
# (generation._run_greedy) and for the simulator's vectorised ground truth.


def similarity(a: Item, b: Item) -> float:
    """Cosine similarity; a plain dot product under the unit-norm invariant."""
    return _max_similarity(a.embedding, [b.embedding])


def _max_similarity(embedding: np.ndarray, recent: list[np.ndarray]) -> float:
    """Max dot product of one embedding with each of `recent`; 0 when empty."""
    return max((float(np.dot(embedding, e)) for e in recent), default=0.0)


def window_max_similarity(candidate: Item, prefix: list[Item], window_w: int) -> float:
    """Max similarity against the last min(window_w, len(prefix)) chosen items."""
    return _max_similarity(candidate.embedding, [b.embedding for b in prefix[-window_w:]])


def _mmr(lam: float, value: float, max_similarity: float) -> float:
    return lam * value - (1.0 - lam) * max_similarity


def mmr_score(candidate: Item, prefix: list[Item], window_w: int, lam: float,
              value_with_candidate: float) -> float:
    if not 0.0 <= lam <= 1.0:
        raise ConfigError("lambda outside [0,1]")
    return _mmr(lam, value_with_candidate, window_max_similarity(candidate, prefix, window_w))


def _sigmoid(z: float) -> float:
    return 1.0 / (1.0 + np.exp(-z))


def _affinity(gt, user: UserContext, item: Item) -> float:
    z = float(user.user_features @ gt.click_proj @ item.embedding
              + gt.click_appeal @ item.embedding)
    return float(np.clip(0.45 * item.prior_ctr ** 0.15 * (0.1 + 2.4 * _sigmoid(z)), 0.0, 1.0))


def _pay_affinity(gt, user: UserContext, item: Item) -> float:
    z = float(user.user_features @ gt.pay_proj @ item.embedding
              + gt.pay_appeal @ item.embedding)
    return float(np.clip(0.9 * item.prior_cvr ** 0.15 * (0.1 + 2.4 * _sigmoid(z)), 0.0, 1.0))


def click_prob(gt, user: UserContext, items, t: int) -> float:
    """Click probability at 1-based position t of an exposed list, under the
    simulator.GroundTruthModel `gt`: the reference for the list_probs of
    gt.bind(...)."""
    item = items[t - 1]
    prev = items[max(0, t - 1 - gt.window):t - 1]
    max_sim = max((float(np.dot(item.embedding, b.embedding)) for b in prev), default=0.0)
    contrast = 1.0 + gt.kappa * (0.5 - max_sim)
    p = _affinity(gt, user, item) * gt.rho ** (t - 1) * contrast
    return float(np.clip(p, 0.0, 1.0))


def pay_prob_given_click(gt, user: UserContext, item: Item) -> float:
    return float(np.clip(gt.base_pay * _pay_affinity(gt, user, item), 0.0, 1.0))


# Per-item and per-draw references for the simulator's array draws: the
# catalog as one Item a loop step, a pool as a list of Items, and a session's
# labels one rng.random() a draw.


def table_items(features) -> list[Item]:
    """The rows of the packed items `features` as Items, for the tests that
    want objects."""
    return [Item(i, emb, price, ctr, cvr, cat)
            for i, emb, price, (ctr, cvr), cat in zip(
                features.ids.tolist(), features.emb, features.price.tolist(),
                features.score.tolist(), features.cat.tolist())]


def sample_pool_reference(catalog: list[Item], size: int, rng) -> list[Item]:
    """simulator.sample_pool over a list of Items."""
    idx = rng.choice(len(catalog), size=size, replace=False)
    return [catalog[i] for i in idx]


def ground_truth_slate_value(truth, user: UserContext, rows, weights: ObjectiveWeights) -> float:
    """Deterministic expected combined value under the simulator of the slate
    made of the rows `rows` of the pool bound in the simulator.BoundTruth
    `truth`."""
    rows = np.asarray(rows, dtype=np.int64)
    click, pay_given_click = truth.list_probs(user.user_features, rows)
    pay = click * pay_given_click
    return float(weights.alpha * click.sum() + weights.beta * pay.sum()
                 + weights.gamma * (truth.features.price[rows] * pay).sum())


def sample_catalog_reference(n_items: int, d_emb: int, n_categories: int,
                             seed: int) -> list[Item]:
    """simulator.catalog_table's items, drawn and built one Item at a time."""
    rng = np.random.default_rng(seed)
    centers = rng.normal(size=(n_categories, d_emb))
    centers /= np.linalg.norm(centers, axis=1, keepdims=True)
    items = []
    for i in range(n_items):
        cat = int(rng.integers(n_categories))
        raw = centers[cat] + 0.35 * rng.normal(size=d_emb)
        emb = raw / np.linalg.norm(raw)
        items.append(Item(
            id=i,
            embedding=emb,
            price=float(rng.lognormal(mean=3.0, sigma=0.6)),
            prior_ctr=float(rng.beta(2.0, 8.0)),
            prior_cvr=float(rng.beta(2.0, 10.0)),
            category=cat,
        ))
    return items


def simulate_session_reference(user, truth, rows, rng) -> tuple[np.ndarray, np.ndarray]:
    """simulator.simulate_session with one rng.random() a draw."""
    click, pay = truth.list_probs(user, np.asarray(rows, dtype=np.int64))
    clicks, pays = [], []
    for pc, pp in zip(click.tolist(), pay.tolist()):
        clicked = rng.random() < pc
        clicks.append(clicked)
        pays.append(clicked and rng.random() < pp)
    return np.array(clicks, dtype=np.int64), np.array(pays, dtype=np.int64)


# Per-session references for the columnar simulator.Dataset: the sessions as
# objects, as build_dataset made them before it wrote arrays, and the trainer's
# split and arrays computed from those objects, item by item.


def samples_reference(engine, sim) -> list:
    """build_dataset's sessions as ImpressionSamples over the catalog's Items,
    drawn with the same RNG calls in the same order, item by item and draw by
    draw."""
    catalog = sample_catalog_reference(sim.n_items, engine.d_emb, sim.n_categories, sim.seed)
    truth = simulator.make_ground_truth(engine, sim).bind(sortmodel.item_features(catalog))
    rng = np.random.default_rng(sim.seed + 1)
    samples = []
    for _ in range(sim.sessions):
        user = simulator.sample_user(rng, engine.d_user)
        pool = rng.choice(len(catalog), size=engine.l_s, replace=False)
        exposed = simulator.exposure_list(truth.features.score[:, 0], pool, engine.l_o, rng,
                                          sim.exposure_noise)
        clicks, pays = simulate_session_reference(user.user_features, truth, exposed, rng)
        samples.append(simulator.ImpressionSample(
            user, tuple(catalog[i] for i in exposed.tolist()), values.LabelVector(clicks, pays)))
    return samples


def session_hash_split_reference(samples, eval_fraction: float) -> tuple[list[int], list[int]]:
    """trainer._session_hash_split over ImpressionSamples."""
    train_idx, eval_idx = [], []
    cut = int(eval_fraction * 1000)
    for i, s in enumerate(samples):
        digest = hashlib.sha256(s.user.user_features.tobytes()).digest()
        bucket = int.from_bytes(digest[:4], "big") % 1000
        (eval_idx if bucket < cut else train_idx).append(i)
    return train_idx, eval_idx


def to_arrays_reference(samples):
    """trainer._to_arrays of the ImpressionSamples `samples`, packed item by item."""
    user = np.stack([s.user.user_features for s in samples])
    clicks = np.stack([s.labels.clicks for s in samples])
    pays = np.stack([s.labels.pays for s in samples])
    n, l = clicks.shape
    f = sortmodel.item_features([it for s in samples for it in s.items])
    return trainer._Arrays(f.emb.reshape(n, l, -1), f.score.reshape(n, l, 2), user, clicks,
                           pays, np.cumsum(clicks, axis=1), np.cumsum(pays, axis=1))


# Tape ops and checks that only the tests use: the generic primitives the
# unfused references are composed of, each its own tape node.


def add(a, b) -> Var:
    a, b = nn.as_var(a), nn.as_var(b)

    def bw(g):
        a._accum(nn._unbroadcast(g, a.shape))
        b._accum(nn._unbroadcast(g, b.shape))

    return Var(a.value + b.value, (a, b), bw)


def neg(a) -> Var:
    a = nn.as_var(a)
    return Var(-a.value, (a,), lambda g: a._accum(-g))


def sub(a, b) -> Var:
    return add(a, neg(b))


def mul(a, b) -> Var:
    a, b = nn.as_var(a), nn.as_var(b)

    def bw(g):
        a._accum(nn._unbroadcast(g * b.value, a.shape))
        b._accum(nn._unbroadcast(g * a.value, b.shape))

    return Var(a.value * b.value, (a, b), bw)


def sigmoid(a) -> Var:
    a = nn.as_var(a)
    s = 1.0 / (1.0 + np.exp(-a.value))
    return Var(s, (a,), lambda g: a._accum(g * s * (1.0 - s)))


def log(a) -> Var:
    a = nn.as_var(a)
    return Var(np.log(a.value), (a,), lambda g: a._accum(g / a.value))


def clip(a, lo: float, hi: float) -> Var:
    """Clamp with pass-through gradient strictly inside (lo, hi)."""
    a = nn.as_var(a)
    inside = (a.value > lo) & (a.value < hi)
    return Var(np.clip(a.value, lo, hi), (a,), lambda g: a._accum(g * inside))


def sum_(a, axis=None, keepdims: bool = False) -> Var:
    a = nn.as_var(a)

    def bw(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        a._accum(np.broadcast_to(g, a.shape).copy())

    return Var(a.value.sum(axis=axis, keepdims=keepdims), (a,), bw)


def index_last(a, i: int) -> Var:
    """Select one index along the last axis (keeps remaining axes)."""
    a = nn.as_var(a)

    def bw(g):
        full = np.zeros_like(a.value)
        full[..., i] = g
        a._accum(full)

    return Var(a.value[..., i], (a,), bw)


def concat(parts, axis: int = -1) -> Var:
    parts = [nn.as_var(p) for p in parts]
    sizes = [p.value.shape[axis] for p in parts]

    def bw(g):
        offset = 0
        for p, size in zip(parts, sizes):
            idx = [slice(None)] * g.ndim
            idx[axis if axis >= 0 else g.ndim + axis] = slice(offset, offset + size)
            p._accum(g[tuple(idx)])
            offset += size

    return Var(np.concatenate([p.value for p in parts], axis=axis), tuple(parts), bw)


def reshape(a, shape) -> Var:
    a = nn.as_var(a)
    return Var(a.value.reshape(shape), (a,), lambda g: a._accum(g.reshape(a.shape)))


def tile_to(a, shape) -> Var:
    a = nn.as_var(a)
    return Var(np.broadcast_to(a.value, shape).copy(), (a,),
               lambda g: a._accum(nn._unbroadcast(g, a.shape)))


def slice_axis0(a, start: int, stop: int) -> Var:
    a = nn.as_var(a)

    def bw(g):
        full = np.zeros_like(a.value)
        full[start:stop] = g
        a._accum(full)

    return Var(a.value[start:stop], (a,), bw)


def linear(x, W, b) -> Var:
    """y = xW + b over the last axis of x (b is [d_out]), as one tape node.

    The leading axes of x fold into one 2-D GEMM, for the forward and for
    the weight gradient alike.
    """
    x, W, b = nn.as_var(x), nn.as_var(W), nn.as_var(b)
    d_in, d_out = W.value.shape
    if x.value.shape[-1] != d_in:
        raise ValueError(f"linear: inner extents differ ({x.value.shape[-1]} vs {d_in})")
    x2 = x.value.reshape(-1, d_in)
    w = W.value

    def bw(g):
        g2 = g.reshape(-1, d_out)
        if x.requires_grad:
            x._accum((g2 @ w.T).reshape(x.shape))
        if W.requires_grad:
            W._accum(x2.T @ g2)
        b._accum(g2.sum(axis=0).reshape(b.shape))

    y = x2 @ w + b.value
    return Var(y.reshape(x.shape[:-1] + (d_out,)), (x, W, b), bw)


def layer_norm(x, gain, bias) -> Var:
    """Normalize the last axis to zero mean / unit variance, then scale + shift."""
    x, gain, bias = nn.as_var(x), nn.as_var(gain), nn.as_var(bias)
    y, xhat, inv = nn._layer_norm_forward(x.value, gain, bias)

    def bw(g):
        g_x = nn._layer_norm_grads(g, xhat, inv, gain, bias, x.requires_grad)
        if g_x is not None:
            x._accum(g_x)

    return Var(y, (x, gain, bias), bw)


def ffn(x, w1, b1, w2, b2) -> Var:
    """relu(x W1 + b1) W2 + b2 over the last axis of x, as one tape node."""
    x, w1, b1, w2, b2 = (nn.as_var(v) for v in (x, w1, b1, w2, b2))
    y, grads = nn._ffn_forward(x.value.reshape(-1, w1.value.shape[0]), w1, b1, w2, b2)
    d_out = y.shape[1]

    def bw(g):
        g_x = grads(g.reshape(-1, d_out), x.requires_grad)
        if g_x is not None:
            x._accum(g_x.reshape(x.shape))

    return Var(y.reshape(x.shape[:-1] + (d_out,)), (x, w1, b1, w2, b2), bw)


def ffn_node(x: Var, params: dict, prefix: str) -> Var:
    """`ffn` on the parameters under `prefix`, with the signature of ffn_reference."""
    return ffn(x, *(params[f"{prefix}.{name}"] for name in ("W1", "b1", "W2", "b2")))


def matmul(a, b) -> Var:
    a, b = nn.as_var(a), nn.as_var(b)

    def bw(g):
        if a.requires_grad:
            a._accum(nn._unbroadcast(np.matmul(g, np.swapaxes(b.value, -1, -2)), a.shape))
        if b.requires_grad:
            b._accum(nn._unbroadcast(np.matmul(np.swapaxes(a.value, -1, -2), g), b.shape))

    return Var(np.matmul(a.value, b.value), (a, b), bw)


def exp(a) -> Var:
    a = nn.as_var(a)
    e = np.exp(a.value)
    return Var(e, (a,), lambda g: a._accum(g * e))


def transpose(a, axes) -> Var:
    a = nn.as_var(a)
    inv = np.argsort(axes)
    return Var(np.transpose(a.value, axes), (a,), lambda g: a._accum(np.transpose(g, inv)))


def relu(a) -> Var:
    a = nn.as_var(a)
    return Var(np.maximum(a.value, 0.0), (a,), lambda g: a._accum(g * (a.value > 0.0)))


def masked_softmax(a, mask: np.ndarray) -> Var:
    """Softmax over the last axis; positions where mask is False get weight 0.

    Computed with max-subtraction; masked logits are set to -inf first.
    """
    a = nn.as_var(a)
    y = nn.softmax_rows(a.value, mask)

    def bw(g):
        dot = (g * y).sum(axis=-1, keepdims=True)
        a._accum(y * (g - dot))

    return Var(y, (a,), bw)


def param_count(params) -> int:
    return sum(p.value.size for p in params.values())


def same_bits(a, b) -> bool:
    """a and b hold the same float64 bits: np.array_equal, and each zero with
    the same sign, which the sum of a later step would not show."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def finite_diff_check(params, loss_fn, step: float = 1e-4,
                      n_coords: int = 60, seed: int = 0) -> float:
    """Max relative error between analytic gradients and central differences.

    loss_fn() must rebuild the graph from the current parameter values and
    return a scalar Var. Samples n_coords coordinates uniformly across all
    parameters.
    """
    if step == 0:
        raise ValueError("finite_diff_check: step must be nonzero")
    nn.zero_grads(params)
    loss = loss_fn()
    if not np.isfinite(loss.value).all():
        raise FloatingPointError("non-finite loss in finite_diff_check")
    nn.backward(loss)
    analytic = {name: (p.grad.copy() if p.grad is not None else np.zeros_like(p.value))
                for name, p in params.items()}

    flat: list[tuple[str, int]] = []
    for name, p in params.items():
        flat.extend((name, i) for i in range(p.value.size))
    rng = np.random.default_rng(seed)
    picks = rng.choice(len(flat), size=min(n_coords, len(flat)), replace=False)

    worst = 0.0
    for k in picks:
        name, i = flat[k]
        p = params[name]
        orig = p.value.flat[i]
        p.value.flat[i] = orig + step
        up = float(loss_fn().value)
        p.value.flat[i] = orig - step
        down = float(loss_fn().value)
        p.value.flat[i] = orig
        numeric = (up - down) / (2.0 * step)
        a = float(analytic[name].flat[i])
        err = abs(a - numeric) / max(1e-8, abs(a) + abs(numeric))
        worst = max(worst, err)
    nn.zero_grads(params)
    return worst


# Primitive-op references for the one-node attention below and `ffn`, with
# the signature of ffn_node.


def mhsa_reference(x: Var, params: dict, prefix: str, n_heads: int) -> Var:
    n, l, dm = x.shape
    dh = dm // n_heads

    def split(v: Var) -> Var:
        return transpose(reshape(v, (n, l, n_heads, dh)), (0, 2, 1, 3))

    q = split(linear(x, params[f"{prefix}.Wq"], params[f"{prefix}.bq"]))
    k = split(linear(x, params[f"{prefix}.Wk"], params[f"{prefix}.bk"]))
    v = split(linear(x, params[f"{prefix}.Wv"], params[f"{prefix}.bv"]))
    scores = mul(matmul(q, transpose(k, (0, 1, 3, 2))), 1.0 / math.sqrt(dh))
    causal = np.tril(np.ones((l, l), dtype=bool))[None, None, :, :]
    att = masked_softmax(scores, causal)
    out = transpose(matmul(att, v), (0, 2, 1, 3))
    out = reshape(out, (n, l, dm))
    return linear(out, params[f"{prefix}.Wo"], params[f"{prefix}.bo"])


def ffn_reference(x: Var, params: dict, prefix: str) -> Var:
    h = relu(linear(x, params[f"{prefix}.W1"], params[f"{prefix}.b1"]))
    return linear(h, params[f"{prefix}.W2"], params[f"{prefix}.b2"])


# The unfused tape that model.forward and values.ordered_regression_loss
# were before their input, layer norms, residuals, heads and loss became
# single nodes (model._input_node, nn.attention_block, nn.ffn_block,
# model._heads_node and the loss node): each fused node must equal its part
# of it bit for bit, forward and backward.


def attention(x, wq, wk, wv, wo, bq, bk, bv, bo, n_heads: int) -> Var:
    """Causal multi-head self-attention over x [n, l, d], as one tape node:
    nn.attention_block without its layer norm and residual.

    Equal to mhsa_reference up to rounding, with one QKV GEMM on [Wq|Wk|Wv]
    and a hand-derived backward that splits the weight gradient back into
    Wq, Wk and Wv.
    """
    x, wq, wk, wv, wo, bq, bk, bv, bo = (nn.as_var(v) for v in (x, wq, wk, wv, wo, bq, bk, bv, bo))
    n, l, d = x.value.shape
    dh = d // n_heads
    scale = 1.0 / math.sqrt(dh)
    x2 = x.value.reshape(-1, d)
    w_qkv = np.concatenate([wq.value, wk.value, wv.value], axis=1)
    qkv = x2 @ w_qkv + np.concatenate([bq.value, bk.value, bv.value])
    # [n*l, 3d] -> [3, n, heads, l, dh]
    q, k, v = qkv.reshape(n, l, 3, n_heads, dh).transpose(2, 0, 3, 1, 4)
    att = nn.softmax_rows((q @ k.transpose(0, 1, 3, 2)) * scale, np.tri(l, dtype=bool))
    ctx = (att @ v).transpose(0, 2, 1, 3).reshape(-1, d)
    w_o = wo.value

    def bw(g):
        g2 = g.reshape(-1, d)
        wo._accum(ctx.T @ g2)
        bo._accum(g2.sum(axis=0))
        g_ctx = (g2 @ w_o.T).reshape(n, l, n_heads, dh).transpose(0, 2, 1, 3)
        g_att = g_ctx @ v.transpose(0, 1, 3, 2)
        g_scores = att * (g_att - (g_att * att).sum(axis=-1, keepdims=True)) * scale
        g_qkv = np.stack([g_scores @ k, g_scores.transpose(0, 1, 3, 2) @ q,
                          att.transpose(0, 1, 3, 2) @ g_ctx])
        g_qkv = g_qkv.transpose(1, 3, 0, 2, 4).reshape(-1, 3 * d)
        g_w = x2.T @ g_qkv
        g_b = g_qkv.sum(axis=0)
        for i, (w, b) in enumerate(((wq, bq), (wk, bk), (wv, bv))):
            w._accum(g_w[:, i * d:(i + 1) * d])
            b._accum(g_b[i * d:(i + 1) * d])
        if x.requires_grad:
            x._accum((g_qkv @ w_qkv.T).reshape(x.shape))

    y = ctx @ w_o + bo.value
    return Var(y.reshape(n, l, d), (x, wq, wk, wv, wo, bq, bk, bv, bo), bw)


def mhsa_node(x: Var, params: dict, prefix: str, n_heads: int) -> Var:
    """`attention` with the signature of mhsa_reference."""
    return attention(x, *(params[f"{prefix}.{name}"] for name in
                          ("Wq", "Wk", "Wv", "Wo", "bq", "bk", "bv", "bo")), n_heads)


def monotone_logits_reference(out, thresholds, max_count: int) -> Var:
    """out minus the monotone head's cutpoints, as the primitive chain."""
    t = thresholds
    first = slice_axis0(t, 0, 1)
    rest = t if max_count == 1 else slice_axis0(t, 1, max_count)
    if max_count > 1:
        softplus = log(add(1.0, exp(rest)))
        steps = concat([first, softplus], axis=0)
    else:
        steps = first
    lower = np.tril(np.ones((max_count, max_count)))
    cutpoints = matmul(lower, reshape(steps, (max_count, 1)))
    return add(out, neg(reshape(cutpoints, (max_count,))))


def monotone_logits(score, thresholds) -> Var:
    """model._monotone_forward as a tape node of its own, as model.forward
    ran it before the heads became one node."""
    score, thresholds = nn.as_var(score), nn.as_var(thresholds)
    logits, grads = sortmodel._monotone_forward(score.value, thresholds)
    return Var(logits, (score, thresholds), lambda g: score._accum(grads(g)))


def input_reference(config, params: dict, e_item, user, e_score) -> Var:
    """model._input_node as the tape of concat, slice, reshape, tile and linear."""
    n, l = e_item.shape[0], e_item.shape[1]
    sortmodel.assemble_input(config, params, e_item, user, e_score)  # its checks
    pos = tile_to(reshape(slice_axis0(params["pos.table"], 0, l), (1, l, config.d_position)),
                  (n, l, config.d_position))
    user_block = np.broadcast_to(user[:, None, :], (n, l, config.d_user))
    x = concat([e_item, pos, user_block, e_score], axis=-1)
    return linear(x, params["proj.W"], params["proj.b"])


def head_logits_reference(config, params: dict, x, ffn=ffn_node) -> list[Var]:
    """The click and pay logits of model._heads_node as the tape of
    layer_norm, the head FFNs and the cutpoint chain."""
    x = layer_norm(x, params["final_ln.g"], params["final_ln.b"])
    logits = []
    for head in sortmodel.HEADS:
        out = ffn(x, params, head)
        if config.head_mode == "monotone":
            out = monotone_logits_reference(out, params[f"{head}.thresholds"], config.max_count)
        logits.append(out)
    return logits


def heads_reference(config, params: dict, x, mask: np.ndarray,
                    ffn=ffn_node) -> tuple[Var, Var]:
    """model._heads_node as the tape: head_logits_reference, then sigmoid
    and mul by the mask. Returns click and pay."""
    click, pay = (mul(sigmoid(z), mask) for z in head_logits_reference(config, params, x, ffn))
    return click, pay


@dataclass
class ReferenceOutput(sortmodel.ModelOutput):
    """forward_reference's outputs: a ModelOutput, and the logits that the
    probabilities are the masked sigmoid of."""

    click_logits: Var | None = None
    pay_logits: Var | None = None


def forward_reference(config, params: dict, e_item, user, e_score,
                      primitive: bool = False) -> ReferenceOutput:
    """model.forward as the unfused tape: the input's concat and linear; per
    block half, layer_norm, then the one-node attention or `ffn`, then add;
    the heads as head_logits_reference, sigmoid and mul by the mask. With
    primitive=True, attention and the FFNs are mhsa_reference and
    ffn_reference instead, which round differently."""
    mhsa, ffn = (mhsa_reference, ffn_reference) if primitive else (mhsa_node, ffn_node)
    x = input_reference(config, params, e_item, user, e_score)
    for i in range(config.n_layers):
        pre = f"layer{i}"
        h = layer_norm(x, params[f"{pre}.ln1.g"], params[f"{pre}.ln1.b"])
        x = add(x, mhsa(h, params, f"{pre}.attn", config.n_heads))
        h = layer_norm(x, params[f"{pre}.ln2.g"], params[f"{pre}.ln2.b"])
        x = add(x, ffn(h, params, f"{pre}.ffn"))
    mask = sortmodel.valid_mask(e_item.shape[1], config.max_count)
    logits = head_logits_reference(config, params, x, ffn)
    click, pay = (mul(sigmoid(z), mask) for z in logits)
    return ReferenceOutput(click, pay, mask, *logits)


def _masked_bce_reference(probs, targets: np.ndarray, mask: np.ndarray) -> Var:
    p = clip(probs, values.PROB_CLAMP, 1.0 - values.PROB_CLAMP)
    pos = mul(targets * mask, log(p))
    negt = mul((1.0 - targets) * mask, log(sub(1.0, p)))
    return neg(add(pos, negt))


def ordered_regression_loss_reference(output, cum_clicks, cum_pays) -> Var:
    """values.ordered_regression_loss as the tape's BCE chain."""
    n, l, max_count = output.click.shape
    total = None
    for probs, cum in ((output.click, cum_clicks), (output.pay, cum_pays)):
        targets = sortmodel.at_least(cum, max_count)
        term = sum_(_masked_bce_reference(probs, targets, output.valid))
        total = term if total is None else add(total, term)
    return mul(total, 1.0 / n)


def pointwise_loss_reference(output: ReferenceOutput, clicks, pays) -> Var:
    """values.pointwise_loss as the tape's chain on threshold channel 0 of
    forward_reference's logits: index_last, sigmoid, clip and the BCE."""
    click_logits, pay_logits = index_last(output.click_logits, 0), index_last(output.pay_logits, 0)
    n, l = click_logits.shape
    clicks = np.asarray(clicks, dtype=np.float64)
    pays = np.asarray(pays, dtype=np.float64)
    if clicks.shape != (n, l) or pays.shape != (n, l):
        raise ValueError("label shape mismatch")
    total = None
    ones = np.ones((n, l))
    for logits, labels in ((click_logits, clicks), (pay_logits, pays)):
        p = clip(sigmoid(logits), values.PROB_CLAMP, 1.0 - values.PROB_CLAMP)
        bce = neg(add(mul(labels, log(p)), mul(ones - labels, log(sub(1.0, p)))))
        total = bce if total is None else add(total, bce)
    return mul(sum_(total), 1.0 / (2 * n * l))


def _one_list_step_values(click, pay, prices, pay_count, gmv, weights):
    """The values of lists that each extend a list with expected pay count
    `pay_count` and GMV `gmv` (scalars or one per row) by one row."""
    e_click = values.expected_counts_batch(click)
    e_pay = values.expected_counts_batch(pay)
    gmv = gmv + prices * (e_pay - pay_count)
    return weights.alpha * e_click + weights.beta * e_pay + weights.gamma * gmv, e_pay, gmv


def step_values_reference(click, pay, prices, pay_count, gmv, branch, weights):
    """values.step_values as two calls of the one-list form: the roots over
    the chosen list, then the branch rows over their roots' pay counts and
    GMVs. The reference for the one-pass tree values."""
    m = len(click) - len(branch)
    roots = _one_list_step_values(click[:m], pay[:m], prices[:m], pay_count, gmv, weights)
    children = _one_list_step_values(click[m:], pay[m:], prices[m:], roots[1][branch],
                                     roots[2][branch], weights)
    return tuple(np.concatenate(pair) for pair in zip(roots, children))


# The per-element bodies of model.save_checkpoint and of load_checkpoint's
# parameter parse: the references for their formatting and parsing.


def save_checkpoint_reference(path, params: dict, config) -> None:
    doc = {
        "format_version": sortmodel.CKPT_FORMAT,
        "config_hash": config_hash(config),
        "config": to_dict(config),
        "params": {
            name: {"shape": list(p.value.shape), "data": [repr(float(v)) for v in p.value.ravel()]}
            for name, p in params.items()
        },
    }
    Path(path).write_text(json.dumps(doc, sort_keys=True), encoding="utf-8")


def parse_values_reference(data) -> np.ndarray:
    return np.array([float(v) for v in data], dtype=np.float64)


@dataclass
class AdamReferenceState:
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def adam_init_reference(params, lr: float = 1e-3) -> AdamReferenceState:
    state = AdamReferenceState(lr=lr)
    for name, p in params.items():
        state.m[name] = np.zeros_like(p.value)
        state.v[name] = np.zeros_like(p.value)
    return state


def adam_step_reference(params, state: AdamReferenceState) -> None:
    """nn.adam_step one array at a time, replacing each parameter's array:
    the reference for the flat, in-place update."""
    state.step += 1
    t = state.step
    for name, p in params.items():
        g = p.grad if p.grad is not None else np.zeros_like(p.value)
        state.m[name] = state.beta1 * state.m[name] + (1 - state.beta1) * g
        state.v[name] = state.beta2 * state.v[name] + (1 - state.beta2) * g * g
        mhat = state.m[name] / (1 - state.beta1 ** t)
        vhat = state.v[name] / (1 - state.beta2 ** t)
        p.value = p.value - state.lr * mhat / (np.sqrt(vhat) + state.eps)
    nn.zero_grads(params)

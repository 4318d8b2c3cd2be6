"""Synthetic catalog, users, and click/pay sessions with known ground truth.

The behavior model combines a user-item affinity (driven by the item's
prior CTR and a learned-free random projection of user features onto the
embedding space), a geometric position decay, and a contrast term that
penalizes items similar to recently shown ones. Pay events only occur given
a click. Everything is deterministic per seed.

The ground truth works on packed catalog rows. `GroundTruthModel.bind`
computes its per-item terms over one packed catalog or pool once, and the
resulting `BoundTruth` gives the click and pay probabilities of any list of
its rows; `simulate_session` and `ground_truth_slate_value` take the bound
form. tests/helpers.py holds the scalar per-Item reference.

A `Dataset` is columnar: one packed item table (for a built dataset, the
catalog), and per session a row of user features, a row of table indices and
the two label rows. `build_dataset` writes each session straight into those
arrays, and the trainer gathers its batches from them. `Dataset.samples`
rebuilds the sessions as `ImpressionSample` objects for the readers that
still want them.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from sortgen.core import ConfigError, EngineConfig, Item, ObjectiveWeights, UserContext, to_dict
from sortgen.generation import window_similarities
from sortgen.model import ItemFeatures, item_features
from sortgen.values import LabelVector

DATA_FORMAT = "sortgen-data-v1"


@dataclass(frozen=True)
class SimConfig:
    n_items: int = 200
    n_categories: int = 8
    sessions: int = 20000
    rho: float = 0.9           # position decay per step
    kappa: float = 0.5         # contrast coefficient on windowed similarity
    base_pay: float = 0.3      # pay-given-click base rate
    exposure_noise: float = 0.1
    gt_window: int = 5
    seed: int = 0

    def __post_init__(self):
        for name, least in (("n_items", 1), ("n_categories", 1), ("sessions", 0)):
            if getattr(self, name) < least:
                raise ConfigError(f"sim.{name} must be >= {least}")
        for name in ("rho", "kappa", "base_pay", "exposure_noise"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"sim.{name} must be finite, got {getattr(self, name)!r}")


@dataclass
class GroundTruthModel:
    click_proj: np.ndarray  # [d_user, d_emb] user-item interaction
    pay_proj: np.ndarray
    click_appeal: np.ndarray  # [d_emb] latent appeal, absent from prior scores
    pay_appeal: np.ndarray
    rho: float
    kappa: float
    base_pay: float
    window: int

    def bind(self, features: ItemFeatures) -> BoundTruth:
        """This model's per-item terms over the rows of `features`, O(n) each."""
        return BoundTruth(
            self, features,
            appeal=features.emb @ np.stack([self.click_appeal, self.pay_appeal], axis=1),
            prior=np.array([0.45, 0.9]) * features.score ** 0.15,
            proj=np.concatenate([self.click_proj, self.pay_proj], axis=1),
        )


@dataclass(frozen=True)
class BoundTruth:
    """A GroundTruthModel bound to one packed catalog or pool."""

    model: GroundTruthModel
    features: ItemFeatures
    appeal: np.ndarray  # [n, 2]: emb @ (click_appeal, pay_appeal)
    prior: np.ndarray   # [n, 2]: (0.45, 0.9) * score ** 0.15
    proj: np.ndarray    # [d_user, 2 * d_emb]: click_proj | pay_proj

    def list_probs(self, user: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Click and pay-given-click probabilities, [l] each, at every position
        of the list exposed as the rows `rows` (int64) to the user features
        `user` [d_user], in one vectorised pass."""
        # `take` copies a few rows in a third of the time fancy indexing takes.
        gt, emb = self.model, self.features.emb.take(rows, axis=0)
        z = emb @ (user @ self.proj).reshape(2, -1).T + self.appeal.take(rows, axis=0)
        sig = 1.0 / (1.0 + np.exp(-z))  # [l, 2]: click, pay
        affinity = (self.prior.take(rows, axis=0) * (0.1 + 2.4 * sig)).clip(0.0, 1.0)
        contrast = 1.0 + gt.kappa * (0.5 - window_similarities(emb, gt.window))
        click = (affinity[:, 0] * _decay(gt.rho, len(rows)) * contrast).clip(0.0, 1.0)
        return click, (gt.base_pay * affinity[:, 1]).clip(0.0, 1.0)


@functools.lru_cache(maxsize=64)
def _decay(rho: float, length: int) -> np.ndarray:
    """rho ** [0, 1, ..., length - 1], memoised, so read-only."""
    decay = rho ** np.arange(length)
    decay.flags.writeable = False
    return decay


def make_ground_truth(engine: EngineConfig, sim: SimConfig) -> GroundTruthModel:
    rng = np.random.default_rng(sim.seed + 17)
    scale = 1.0 / np.sqrt(engine.d_user)
    return GroundTruthModel(
        click_proj=rng.normal(0.0, scale, size=(engine.d_user, engine.d_emb)) * 3.0,
        pay_proj=rng.normal(0.0, scale, size=(engine.d_user, engine.d_emb)) * 3.0,
        click_appeal=rng.normal(0.0, 2.0, size=engine.d_emb),
        pay_appeal=rng.normal(0.0, 2.0, size=engine.d_emb),
        rho=sim.rho, kappa=sim.kappa, base_pay=sim.base_pay, window=sim.gt_window,
    )


# ------------------------------ sampling ------------------------------------


def sample_catalog(n_items: int, d_emb: int, n_categories: int, seed: int) -> list[Item]:
    """Items clustered by category, log-normal prices, Beta prior scores."""
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


def sample_user(rng: np.random.Generator, d_user: int) -> UserContext:
    return UserContext(rng.normal(size=d_user))


def sample_pool(catalog: list[Item], l_s: int, rng: np.random.Generator) -> list[Item]:
    idx = rng.choice(len(catalog), size=l_s, replace=False)
    return [catalog[i] for i in idx]


def exposure_list(features: ItemFeatures, pool: np.ndarray, l_o: int,
                  rng: np.random.Generator, noise: float) -> np.ndarray:
    """The first l_o of the rows `pool` of `features` in noisy prior-CTR order,
    standing in for an upstream ranking stage."""
    scores = features.score[:, 0][pool] + noise * rng.normal(size=len(pool))
    return pool[(-scores).argsort(kind="stable")[:l_o]]


def simulate_session(user: np.ndarray, truth: BoundTruth, rows,
                     rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Click and pay labels, [l] int64 each, of the list exposed as the rows
    `rows` of the bound catalog to the user features `user`: per position one
    click draw, then a pay draw only after a click."""
    rows = np.asarray(rows, dtype=np.int64)
    if not len(rows):
        raise ConfigError("empty exposed list")
    click, pay = truth.list_probs(user, rows)
    draw = rng.random
    clicks, pays = [], []
    for pc, pp in zip(click.tolist(), pay.tolist()):
        clicked = draw() < pc
        clicks.append(clicked)
        pays.append(clicked and draw() < pp)
    return np.array(clicks, dtype=np.int64), np.array(pays, dtype=np.int64)


# ------------------------------- datasets -----------------------------------


@dataclass(frozen=True)
class ImpressionSample:
    """One session as objects; only the `Dataset.samples` view builds these."""

    user: UserContext
    items: tuple[Item, ...]
    labels: LabelVector


@dataclass(frozen=True, eq=False)
class Dataset:
    """Simulated sessions as packed arrays over one item table.

    Session i showed the table rows `rows[i]` to the user features `users[i]`
    and drew the labels `clicks[i]` and `pays[i]`. For a built dataset the
    table is the catalog, packed once; a read one adds a row for each session
    item that is not a catalog record. The trainer gathers from these arrays.
    """

    features: ItemFeatures  # the item table, packed
    items: list[Item]       # the same table's rows, as Items
    users: np.ndarray       # [N, d_user] float64
    rows: np.ndarray        # [N, l_o] int64 rows of the item table
    clicks: np.ndarray      # [N, l_o] int64
    pays: np.ndarray        # [N, l_o] int64
    catalog: list[Item]
    engine_config: dict
    sim_config: dict

    def __len__(self) -> int:
        return len(self.users)

    @property
    def samples(self) -> list[ImpressionSample]:
        """The sessions as ImpressionSamples, for the readers that want objects:
        the benchmark's untimed served_eval_loss, the demos and the tests. The
        list is rebuilt on every access, so read it once, never in a loop."""
        return [ImpressionSample(UserContext(user), tuple(self.items[r] for r in rows),
                                 LabelVector(clicks, pays))
                for user, rows, clicks, pays in zip(self.users, self.rows.tolist(),
                                                     self.clicks.copy(), self.pays.copy())]


def _pack(items: list[Item]) -> ItemFeatures:
    """item_features(items), or an empty table for no items."""
    if items:
        return item_features(items)
    return ItemFeatures(np.zeros(0, np.int64), np.zeros((0, 0)), np.zeros((0, 2)),
                        np.zeros(0), np.zeros(0, np.int64))


def build_dataset(engine: EngineConfig, sim: SimConfig) -> Dataset:
    catalog = sample_catalog(sim.n_items, engine.d_emb, sim.n_categories, sim.seed)
    if sim.n_items < engine.l_s:
        raise ConfigError("n_items smaller than l_s")
    features = item_features(catalog)
    truth = make_ground_truth(engine, sim).bind(features)
    rng = np.random.default_rng(sim.seed + 1)
    users = np.empty((sim.sessions, engine.d_user))
    rows = np.empty((sim.sessions, engine.l_o), dtype=np.int64)
    clicks, pays = np.empty_like(rows), np.empty_like(rows)
    for i in range(sim.sessions):
        user = users[i] = rng.normal(size=engine.d_user)  # sample_user's draw
        pool = rng.choice(len(catalog), size=engine.l_s, replace=False)
        exposed = rows[i] = exposure_list(features, pool, engine.l_o, rng, sim.exposure_noise)
        clicks[i], pays[i] = simulate_session(user, truth, exposed, rng)
    return Dataset(features, catalog, users, rows, clicks, pays, catalog,
                   to_dict(engine), to_dict(sim))


def _item_docs(features: ItemFeatures) -> list[dict]:
    """The file record fields of each row of `features`."""
    return [{"id": i, "emb": [repr(v) for v in emb], "price": repr(price),
             "ctr": repr(ctr), "cvr": repr(cvr), "cat": cat}
            for i, emb, price, (ctr, cvr), cat in zip(
                features.ids.tolist(), features.emb.tolist(), features.price.tolist(),
                features.score.tolist(), features.cat.tolist())]


def _catalog_lines(catalog: list[Item]) -> list[str]:
    return [json.dumps({"kind": "item", **doc}, sort_keys=True)
            for doc in _item_docs(_pack(catalog))]


def _item_from_doc(doc: dict) -> Item:
    return Item(
        id=int(doc["id"]),
        embedding=np.array([float(v) for v in doc["emb"]]),
        price=float(doc["price"]),
        prior_ctr=float(doc["ctr"]),
        prior_cvr=float(doc["cvr"]),
        category=int(doc["cat"]),
    )


def write_dataset(dataset: Dataset, path: str | Path) -> None:
    """Line-delimited self-describing records; first line is the header."""
    lines = [json.dumps({
        "format_version": DATA_FORMAT, "kind": "header",
        "engine_config": dataset.engine_config, "sim_config": dataset.sim_config,
    }, sort_keys=True)]
    lines += _catalog_lines(dataset.catalog)
    table = _item_docs(dataset.features)
    for user, rows, clicks, pays in zip(dataset.users.tolist(), dataset.rows.tolist(),
                                        dataset.clicks.tolist(), dataset.pays.tolist()):
        lines.append(json.dumps({
            "kind": "sample",
            "user": [repr(v) for v in user],
            "items": [table[r] for r in rows],
            "clicks": clicks,
            "pays": pays,
        }, sort_keys=True))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _stack(rows: list, dtype) -> np.ndarray:
    """The equal-length `rows` as one [len(rows), width] array."""
    return np.array(rows, dtype=dtype).reshape(len(rows), len(rows[0]) if rows else 0)


def _check_labels(clicks: list, pays: list) -> None:
    """A session's labels: every click and pay is the integer 0 or 1, and no
    position has a pay without a click."""
    for name, labels in (("clicks", clicks), ("pays", pays)):
        for i, v in enumerate(labels):
            if type(v) is not int or v not in (0, 1):
                raise ValueError(f"{name}[{i}] is {v!r}, not 0 or 1")
    for i, (click, pay) in enumerate(zip(clicks, pays)):
        if pay > click:
            raise ValueError(f"a pay without a click at position {i}")


def _check_header(doc: dict, keys: tuple[str, ...] = ()) -> None:
    if doc.get("format_version") != DATA_FORMAT:
        raise ValueError(f"unsupported format {doc.get('format_version')!r}")
    for key in keys:
        if key not in doc:
            raise ValueError(f"the header lacks the key {key!r}")


def read_dataset(path: str | Path) -> Dataset:
    """A file that write_dataset wrote. A session item whose id and every
    field match a catalog record is that catalog row of the item table; any
    other session item gets a row of its own.

    Any fault in a record, including an item that breaks an Item rule and a
    session whose labels are not 0 or 1 or hold a pay without a click, is a
    ConfigError naming the file and the line."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines:
        raise ConfigError(f"{path}: empty dataset file")
    catalog: list[Item] = []
    items: list[Item] = []  # the item table
    catalog_rows: dict = {}  # id -> (catalog record fields, table row)
    users, rows, clicks, pays = [], [], [], []
    header = None
    for lineno, line in enumerate(lines, start=1):
        try:
            doc = json.loads(line)
            kind = doc.pop("kind")
            if kind == "header":
                _check_header(doc, ("engine_config", "sim_config"))
                header = doc
            elif kind == "item":
                catalog_rows[doc["id"]] = (doc, len(items))
                catalog.append(_item_from_doc(doc))
                items.append(catalog[-1])
            elif kind == "sample":
                user = [float(v) for v in doc["user"]]
                session_clicks, session_pays = doc["clicks"], doc["pays"]
                if not all(map(math.isfinite, user)):
                    raise ValueError("user features must be finite")
                if len(session_clicks) != len(session_pays):
                    raise ValueError("clicks and pays lengths differ")
                if len(doc["items"]) != len(session_clicks):
                    raise ValueError(f"a session's items and labels differ in length: "
                                     f"{len(doc['items'])} items, {len(session_clicks)} labels")
                if users and (len(user), len(session_clicks)) != (len(users[0]), len(rows[0])):
                    raise ValueError(f"{len(user)} user features and {len(session_clicks)} "
                                     f"items, where the first session has {len(users[0])} "
                                     f"and {len(rows[0])}")
                _check_labels(session_clicks, session_pays)
                session = []
                for item in doc["items"]:
                    fields, row = catalog_rows.get(item["id"], (None, None))
                    if fields != item:
                        row = len(items)
                        items.append(_item_from_doc(item))
                    session.append(row)
                users.append(user)
                rows.append(session)
                clicks.append(session_clicks)
                pays.append(session_pays)
            else:
                raise KeyError(f"unknown record kind {kind!r}")
        except Exception as exc:  # a ConfigError from an Item rule too
            raise ConfigError(f"{path}: malformed record at line {lineno}: {exc}") from exc
    if header is None:
        raise ConfigError(f"{path}: missing header record at line 1")
    return Dataset(_pack(items), items, _stack(users, np.float64), _stack(rows, np.int64),
                   _stack(clicks, np.int64), _stack(pays, np.int64), catalog,
                   header["engine_config"], header["sim_config"])


def write_catalog(catalog: list[Item], path: str | Path) -> None:
    lines = [json.dumps({"format_version": DATA_FORMAT, "kind": "header"}, sort_keys=True)]
    lines += _catalog_lines(catalog)
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_catalog(path: str | Path) -> list[Item]:
    catalog: list[Item] = []
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(),
                                  start=1):
        try:
            doc = json.loads(line)
            if doc["kind"] == "header":
                _check_header(doc)
            elif doc["kind"] == "item":
                catalog.append(_item_from_doc(doc))
        except Exception as exc:
            raise ConfigError(f"{path}: malformed record at line {lineno}: {exc}") from exc
    return catalog


# ------------------------- ground-truth list values -------------------------


def ground_truth_slate_value(truth: BoundTruth, user: UserContext, rows,
                             weights: ObjectiveWeights) -> float:
    """Deterministic expected combined value under the simulator of the slate
    made of the rows `rows` of the bound pool."""
    rows = np.asarray(rows, dtype=np.int64)
    click, pay_given_click = truth.list_probs(user.user_features, rows)
    pay = click * pay_given_click
    return float(weights.alpha * click.sum() + weights.beta * pay.sum()
                 + weights.gamma * (truth.features.price[rows] * pay).sum())

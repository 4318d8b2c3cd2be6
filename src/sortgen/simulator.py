"""Synthetic catalog, users, and click/pay sessions with known ground truth.

The behavior model combines a user-item affinity (driven by the item's
prior CTR and a learned-free random projection of user features onto the
embedding space), a geometric position decay, and a contrast term that
penalizes items similar to recently shown ones. Pay events only occur given
a click. Everything is deterministic per seed.

The ground truth works on packed catalog rows. `GroundTruthModel.bind`
computes its per-item terms over one packed catalog or pool once, and the
resulting `BoundTruth` gives the click and pay probabilities of any list of
its rows; `simulate_session` takes the bound form.

A catalog and a pool are packed `ItemFeatures` rows, never `Item`s:
`catalog_table` draws the catalog into one table whose row i is the item
with id i, `sample_pool` picks a pool's rows of a table, and `read_catalog`
and `read_dataset` read item records by the grammar of a rerank request's
candidates (`core.read_item`) and pack them with `model.pack_items`. A
data file has one header, on line 1. A session's labels
(`simulate_session`, and `build_dataset` through `_draw_labels`) draw their
uniforms in blocks, the same stream as one draw at a time. tests/helpers.py
keeps the per-Item references all of these are tested against, bit for bit.

A `Dataset` is columnar: one packed item table whose first rows are the
catalog, and per session a row of user features, a row of table indices and
the two label rows. `build_dataset` writes each session straight into those
arrays (the labels through two flat lists, converted once) and builds no
`Item`; the trainer gathers its batches from them. `catalog` views the
table's catalog rows, and `samples`, the one place that builds `Item`s,
builds the sessions as objects for the readers that still want them.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from sortgen.core import (ConfigError, EngineConfig, Item, UserContext, check_field_types,
                          check_items, read_item, repeated_id, to_dict)
from sortgen.generation import window_similarities
from sortgen.model import ItemFeatures, pack_items
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
        check_field_types(self, "sim.{}")
        for name in ("rho", "kappa", "base_pay", "exposure_noise"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"sim.{name} must be finite, got {getattr(self, name)!r}")
        # gt_window 0 means no contrast window.
        for name, least in (("n_items", 1), ("n_categories", 1), ("sessions", 0),
                            ("gt_window", 0), ("base_pay", 0), ("exposure_noise", 0)):
            if getattr(self, name) < least:
                raise ConfigError(f"sim.{name} must be >= {least}")
        if not 0.0 < self.rho <= 1.0:
            raise ConfigError(f"sim.rho must be in (0, 1], got {self.rho!r}")


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


def catalog_table(n_items: int, d_emb: int, n_categories: int, seed: int) -> ItemFeatures:
    """Items clustered by category, log-normal prices, Beta prior scores, drawn
    into one packed table whose row i is the item with id i. The item rules
    are checked once over the table."""
    rng = np.random.default_rng(seed)
    centers = rng.normal(size=(n_categories, d_emb))
    centers /= np.linalg.norm(centers, axis=1, keepdims=True)
    table = ItemFeatures(np.arange(n_items, dtype=np.int64), np.empty((n_items, d_emb)),
                         np.empty((n_items, 2)), np.empty(n_items),
                         np.empty(n_items, dtype=np.int64))
    for i in range(n_items):
        cat = table.cat[i] = rng.integers(n_categories)
        raw = centers[cat] + 0.35 * rng.normal(size=d_emb)
        table.emb[i] = raw / np.linalg.norm(raw)
        table.price[i] = rng.lognormal(mean=3.0, sigma=0.6)
        table.score[i] = rng.beta(2.0, 8.0), rng.beta(2.0, 10.0)  # prior_ctr, prior_cvr
    check_items(table.ids, table.emb, table.score, table.price)
    return table


def sample_user(rng: np.random.Generator, d_user: int) -> UserContext:
    return UserContext(rng.normal(size=d_user))


def sample_pool(table: ItemFeatures, size: int, rng: np.random.Generator) -> ItemFeatures:
    """`size` distinct rows of the packed items `table`, drawn uniformly; a
    pool larger than the table is a ConfigError."""
    if size > len(table.ids):
        raise ConfigError(f"a pool of {size} items cannot be drawn from a catalog of "
                          f"{len(table.ids)} items")
    rows = rng.choice(len(table.ids), size=size, replace=False)
    return ItemFeatures(*(column[rows] for column in table))


def exposure_list(ctr: np.ndarray, pool: np.ndarray, l_o: int,
                  rng: np.random.Generator, noise: float) -> np.ndarray:
    """The first l_o of the table rows `pool` in noisy prior-CTR order, where
    `ctr` is the table's prior-CTR column (`features.score[:, 0]`), standing in
    for an upstream ranking stage."""
    scores = ctr[pool] + noise * rng.normal(size=len(pool))
    return pool[(-scores).argsort(kind="stable")[:l_o]]


def simulate_session(user: np.ndarray, truth: BoundTruth, rows,
                     rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Click and pay labels, [l] int64 each, of the list exposed as the rows
    `rows` of the bound catalog to the user features `user`, drawn by
    `_draw_labels`."""
    rows = np.asarray(rows, dtype=np.int64)
    if not len(rows):
        raise ConfigError("empty exposed list")
    clicks, pays = _draw_labels(*truth.list_probs(user, rows), rng)
    return np.array(clicks, dtype=np.int64), np.array(pays, dtype=np.int64)


def _draw_labels(click: np.ndarray, pay: np.ndarray,
                 rng: np.random.Generator) -> tuple[list, list]:
    """Click and pay labels, as lists of 0/1 ints or bools, of a list whose
    positions have the click and pay-given-click probabilities `click` and
    `pay`: per position one click draw, then a pay draw only after a click.

    The uniforms come in blocks, which is the same stream as one
    `rng.random()` a draw. Every position takes at least one draw, so the
    first block has one per position; when a click's pay or a later click
    finds the block used up, the next block has one for that draw and one for
    each later position. So no draw goes unused, and the generator ends in the
    same state as with one draw at a time."""
    n, pay = len(click), pay.tolist()
    draws, k = rng.random(n).tolist(), 0  # draws[k] is the next draw
    clicks, pays = [0] * n, [0] * n
    for j, pc in enumerate(click.tolist()):
        if k == len(draws):
            draws += rng.random(n - j).tolist()
        k += 1
        if draws[k - 1] < pc:
            if k == len(draws):
                draws += rng.random(n - j).tolist()
            clicks[j], pays[j] = 1, draws[k] < pay[j]
            k += 1
    return clicks, pays


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
    and drew the labels `clicks[i]` and `pays[i]`. The table's first
    `n_catalog` rows are the catalog; a built dataset has no other rows, and a
    read one adds a row for each session item that is not a catalog record.
    The trainer gathers from these arrays.
    """

    features: ItemFeatures  # the item table, packed
    n_catalog: int          # the catalog's rows: the table's first n_catalog
    users: np.ndarray       # [N, d_user] float64
    rows: np.ndarray        # [N, l_o] int64 rows of the item table
    clicks: np.ndarray      # [N, l_o] int64
    pays: np.ndarray        # [N, l_o] int64
    engine_config: dict
    sim_config: dict

    def __len__(self) -> int:
        return len(self.users)

    @property
    def catalog(self) -> ItemFeatures:
        """The catalog: the table's first n_catalog rows, as views."""
        return ItemFeatures(*(column[:self.n_catalog] for column in self.features))

    @property
    def samples(self) -> list[ImpressionSample]:
        """The sessions as ImpressionSamples over one shared Item per table row,
        for the readers that want objects: the benchmark's untimed
        served_eval_loss, a demo and the tests. The list is rebuilt on every
        access, so read it once, never in a loop."""
        f = self.features
        items = [Item(i, emb, price, ctr, cvr, cat)
                 for i, emb, price, (ctr, cvr), cat in zip(
                     f.ids.tolist(), f.emb, f.price.tolist(), f.score.tolist(), f.cat.tolist())]
        return [ImpressionSample(UserContext(user), tuple(items[r] for r in rows),
                                 LabelVector(clicks, pays))
                for user, rows, clicks, pays in zip(self.users, self.rows.tolist(),
                                                     self.clicks.copy(), self.pays.copy())]


def build_dataset(engine: EngineConfig, sim: SimConfig) -> Dataset:
    if sim.n_items < engine.l_s:
        raise ConfigError("n_items smaller than l_s")
    features = catalog_table(sim.n_items, engine.d_emb, sim.n_categories, sim.seed)
    truth = make_ground_truth(engine, sim).bind(features)
    ctr = features.score[:, 0].copy()
    rng = np.random.default_rng(sim.seed + 1)
    users = np.empty((sim.sessions, engine.d_user))
    rows = np.empty((sim.sessions, engine.l_o), dtype=np.int64)
    clicks, pays = [], []  # every session's labels, one after the other
    for i in range(sim.sessions):
        user = users[i] = rng.normal(size=engine.d_user)  # sample_user's draw
        pool = rng.choice(sim.n_items, size=engine.l_s, replace=False)
        exposed = rows[i] = exposure_list(ctr, pool, engine.l_o, rng, sim.exposure_noise)
        session_clicks, session_pays = _draw_labels(*truth.list_probs(user, exposed), rng)
        clicks += session_clicks
        pays += session_pays
    return Dataset(features, sim.n_items, users, rows,
                   np.array(clicks, dtype=np.int64).reshape(rows.shape),
                   np.array(pays, dtype=np.int64).reshape(rows.shape),
                   to_dict(engine), to_dict(sim))


def _item_docs(features: ItemFeatures) -> list[dict]:
    """The file record fields of each row of `features`."""
    return [{"id": i, "emb": [repr(v) for v in emb], "price": repr(price),
             "ctr": repr(ctr), "cvr": repr(cvr), "cat": cat}
            for i, emb, price, (ctr, cvr), cat in zip(
                features.ids.tolist(), features.emb.tolist(), features.price.tolist(),
                features.score.tolist(), features.cat.tolist())]


def _item_lines(docs: list[dict]) -> list[str]:
    """The catalog records of the item fields `docs`."""
    return [json.dumps({"kind": "item", **doc}, sort_keys=True) for doc in docs]


def _checked_row(doc, table: list[tuple]) -> tuple:
    """The item record `doc` as `core.read_item` reads it, with an embedding
    as long as that of the first row of `table`, checked by the item rules."""
    row = item_id, emb, score, price, _ = read_item(doc, len(table[0][1]) if table else None)
    check_items([item_id], np.array([emb]), np.array([score]), np.array([price]))
    return row


def write_dataset(dataset: Dataset, path: str | Path) -> None:
    """Line-delimited self-describing records; first line is the header."""
    lines = [json.dumps({
        "format_version": DATA_FORMAT, "kind": "header",
        "engine_config": dataset.engine_config, "sim_config": dataset.sim_config,
    }, sort_keys=True)]
    table = _item_docs(dataset.features)
    lines += _item_lines(table[:dataset.n_catalog])
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


def _record(line: str) -> tuple[object, dict]:
    """The kind and the other fields of the record on one line of a data file."""
    doc = json.loads(line)
    if not isinstance(doc, dict):
        raise ValueError("expected a key/value document")
    return doc.pop("kind"), doc


def _check_header(doc: dict, lineno: int, keys: tuple[str, ...] = ()) -> None:
    """The header record `doc`, read at line `lineno`: a file has one, on
    line 1, of this format and with the keys `keys`."""
    if lineno != 1:
        raise ValueError("a header record after line 1")
    if doc.get("format_version") != DATA_FORMAT:
        raise ValueError(f"unsupported format {doc.get('format_version')!r}")
    for key in keys:
        if key not in doc:
            raise ValueError(f"the header lacks the key {key!r}")


def read_dataset(path: str | Path) -> Dataset:
    """A file that write_dataset wrote. A session item whose id and every
    field match a catalog record is that catalog row of the item table; any
    other session item gets a row of its own.

    Any fault in a record is a ConfigError naming the file and the line:
    among them an item record that `core.read_item` does not read (the
    reader's "<field>: <reason>" follows the line) or that breaks an Item
    rule, a catalog id that an earlier catalog record holds, a catalog
    record after a session, a session that shows one id twice or whose
    labels are not 0 or 1 or hold a pay without a click, and a header
    anywhere but line 1."""
    return _read_data_file(path, sessions=True)


def _read_data_file(path: str | Path, sessions: bool) -> Dataset:
    """The records of a data file, read as `read_dataset` reads them; with
    `sessions` False, a catalog file: its header needs no configs, and a
    session record is an unknown kind."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines and sessions:
        raise ConfigError(f"{path}: empty dataset file")
    table: list[tuple] = []  # the item table's rows, as _checked_row gives them
    catalog: dict = {}  # id -> (line, catalog record fields, table row)
    users, rows, clicks, pays = [], [], [], []
    header = None
    for lineno, line in enumerate(lines, start=1):
        try:
            kind, doc = _record(line)
            if kind == "header":
                _check_header(doc, lineno, ("engine_config", "sim_config") if sessions else ())
                header = doc
            elif kind == "item":
                if users:
                    raise ValueError("a catalog record after the first session")
                row = _checked_row(doc, table)
                if row[0] in catalog:
                    raise ValueError(f"item id {row[0]} repeats the catalog record at line "
                                     f"{catalog[row[0]][0]}")
                catalog[row[0]] = (lineno, doc, len(table))
                table.append(row)
            elif kind == "sample" and sessions:
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
                    try:
                        _, fields, row = catalog[item["id"]]
                    except (TypeError, KeyError):  # not a record, no hashable id, no catalog id
                        fields = None
                    if fields is None or fields != item:
                        row = len(table)
                        table.append(_checked_row(item, table))
                    session.append(row)
                if repeat := repeated_id([table[row][0] for row in session]):
                    raise ValueError(f"items[{repeat[0]}].id: duplicate of items[{repeat[1]}].id")
                users.append(user)
                rows.append(session)
                clicks.append(session_clicks)
                pays.append(session_pays)
            else:
                raise ValueError(f"unknown record kind {kind!r}")
        except Exception as exc:  # a ConfigError from an Item rule too
            raise ConfigError(f"{path}: malformed record at line {lineno}: {exc}") from exc
    if header is None:
        raise ConfigError(f"{path}: missing header record at line 1")
    return Dataset(pack_items(table, len(table[0][1]) if table else 0), len(catalog),
                   _stack(users, np.float64), _stack(rows, np.int64),
                   _stack(clicks, np.int64), _stack(pays, np.int64),
                   header.get("engine_config"), header.get("sim_config"))


def write_catalog(catalog: ItemFeatures, path: str | Path) -> None:
    """The packed items `catalog` as a catalog file."""
    lines = [json.dumps({"format_version": DATA_FORMAT, "kind": "header"}, sort_keys=True)]
    lines += _item_lines(_item_docs(catalog))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_catalog(path: str | Path) -> ItemFeatures:
    """A file that write_catalog wrote, as one packed table. A header
    anywhere but line 1, a record of any other kind than header or item, and
    any fault in an item record, as `read_dataset` reads them, are
    ConfigErrors naming the file and the line."""
    return _read_data_file(path, sessions=False).features

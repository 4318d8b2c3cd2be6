"""Synthetic catalog, users, and click/pay sessions with known ground truth.

The behavior model combines a user-item affinity (driven by the item's
prior CTR and a learned-free random projection of user features onto the
embedding space), a geometric position decay, and a contrast term that
penalizes items similar to recently shown ones. Pay events only occur given
a click. Everything is deterministic per seed. The ground truth works on
packed catalog rows; tests/helpers.py holds its scalar per-Item reference.
"""

from __future__ import annotations

import json
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

    def list_probs(self, user: UserContext, emb: np.ndarray,
                   score: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Click and pay-given-click probabilities, [l] each, at every position
        of one exposed list given as its rows emb [l, d_emb] and score [l, 2]
        (prior_ctr, prior_cvr), in one vectorised pass."""
        u = user.user_features
        z = emb @ np.stack([u @ self.click_proj, self.click_appeal,
                            u @ self.pay_proj, self.pay_appeal], axis=1)
        sig = 1.0 / (1.0 + np.exp(-(z[:, 0::2] + z[:, 1::2])))  # [l, 2]: click, pay
        affinity = np.clip(np.array([0.45, 0.9]) * score ** 0.15 * (0.1 + 2.4 * sig), 0.0, 1.0)
        contrast = 1.0 + self.kappa * (0.5 - window_similarities(emb, self.window))
        decay = self.rho ** np.arange(len(emb))
        click = np.clip(affinity[:, 0] * decay * contrast, 0.0, 1.0)
        return click, np.clip(self.base_pay * affinity[:, 1], 0.0, 1.0)


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
    scores = features.score[pool, 0] + noise * rng.normal(size=len(pool))
    return pool[np.argsort(-scores, kind="stable")[:l_o]]


def simulate_session(user: UserContext, features: ItemFeatures, rows,
                     gt: GroundTruthModel, rng: np.random.Generator) -> LabelVector:
    """Click and pay labels of the list exposed as the rows `rows` of
    `features`: per position one click draw, then a pay draw only after a
    click."""
    rows = np.asarray(rows, dtype=np.int64)
    if not len(rows):
        raise ConfigError("empty exposed list")
    click, pay = gt.list_probs(user, features.emb[rows], features.score[rows])
    clicks, pays = [], []
    for pc, pp in zip(click.tolist(), pay.tolist()):
        clicked = rng.random() < pc
        clicks.append(int(clicked))
        pays.append(int(clicked and rng.random() < pp))
    return LabelVector(np.array(clicks), np.array(pays))


# ------------------------------- datasets -----------------------------------


@dataclass(frozen=True)
class ImpressionSample:
    user: UserContext
    items: tuple[Item, ...]
    labels: LabelVector


@dataclass
class Dataset:
    samples: list[ImpressionSample]
    catalog: list[Item]
    engine_config: dict
    sim_config: dict


def build_dataset(engine: EngineConfig, sim: SimConfig) -> Dataset:
    catalog = sample_catalog(sim.n_items, engine.d_emb, sim.n_categories, sim.seed)
    if sim.n_items < engine.l_s:
        raise ConfigError("n_items smaller than l_s")
    gt = make_ground_truth(engine, sim)
    features = item_features(catalog)
    rng = np.random.default_rng(sim.seed + 1)
    samples = []
    for _ in range(sim.sessions):
        user = sample_user(rng, engine.d_user)
        pool = rng.choice(len(catalog), size=engine.l_s, replace=False)
        exposed = exposure_list(features, pool, engine.l_o, rng, sim.exposure_noise)
        labels = simulate_session(user, features, exposed, gt, rng)
        samples.append(ImpressionSample(user, tuple(catalog[i] for i in exposed), labels))
    return Dataset(samples, catalog, to_dict(engine), to_dict(sim))


def _item_doc(it: Item) -> dict:
    return {"id": it.id, "emb": [repr(float(v)) for v in it.embedding],
            "price": repr(float(it.price)), "ctr": repr(float(it.prior_ctr)),
            "cvr": repr(float(it.prior_cvr)), "cat": it.category}


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
    for it in dataset.catalog:
        lines.append(json.dumps({"kind": "item", **_item_doc(it)}, sort_keys=True))
    for s in dataset.samples:
        lines.append(json.dumps({
            "kind": "sample",
            "user": [repr(float(v)) for v in s.user.user_features],
            "items": [_item_doc(it) for it in s.items],
            "clicks": s.labels.clicks.tolist(),
            "pays": s.labels.pays.tolist(),
        }, sort_keys=True))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_dataset(path: str | Path) -> Dataset:
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines:
        raise ConfigError(f"{path}: empty dataset file")
    catalog: list[Item] = []
    samples: list[ImpressionSample] = []
    header = None
    for lineno, line in enumerate(lines, start=1):
        try:
            doc = json.loads(line)
            kind = doc["kind"]
            if kind == "header":
                if doc.get("format_version") != DATA_FORMAT:
                    raise ConfigError(f"unsupported format {doc.get('format_version')!r}")
                header = doc
            elif kind == "item":
                catalog.append(_item_from_doc(doc))
            elif kind == "sample":
                samples.append(ImpressionSample(
                    UserContext(np.array([float(v) for v in doc["user"]])),
                    tuple(_item_from_doc(d) for d in doc["items"]),
                    LabelVector(np.array(doc["clicks"]), np.array(doc["pays"])),
                ))
            else:
                raise KeyError(f"unknown record kind {kind!r}")
        except ConfigError:
            raise
        except Exception as exc:
            raise ConfigError(f"{path}: malformed record at line {lineno}: {exc}") from exc
    if header is None:
        raise ConfigError(f"{path}: missing header record at line 1")
    return Dataset(samples, catalog, header["engine_config"], header["sim_config"])


def write_catalog(catalog: list[Item], path: str | Path) -> None:
    lines = [json.dumps({"format_version": DATA_FORMAT, "kind": "header"}, sort_keys=True)]
    lines += [json.dumps({"kind": "item", **_item_doc(it)}, sort_keys=True) for it in catalog]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_catalog(path: str | Path) -> list[Item]:
    catalog: list[Item] = []
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(),
                                  start=1):
        try:
            doc = json.loads(line)
            if doc["kind"] == "item":
                catalog.append(_item_from_doc(doc))
        except Exception as exc:
            raise ConfigError(f"{path}: malformed record at line {lineno}: {exc}") from exc
    return catalog


# ------------------------- ground-truth list values -------------------------


def ground_truth_slate_value(gt: GroundTruthModel, user: UserContext,
                             features: ItemFeatures, rows,
                             weights: ObjectiveWeights) -> float:
    """Deterministic expected combined value under the simulator of the slate
    made of the rows `rows` of `features`."""
    rows = np.asarray(rows, dtype=np.int64)
    click, pay_given_click = gt.list_probs(user, features.emb[rows], features.score[rows])
    pay = click * pay_given_click
    return float(weights.alpha * click.sum() + weights.beta * pay.sum()
                 + weights.gamma * (features.price[rows] * pay).sum())

"""Synthetic catalog, users, and click/pay sessions with known ground truth.

The behavior model combines a user-item affinity (driven by the item's
prior CTR and a learned-free random projection of user features onto the
embedding space), a geometric position decay, and a contrast term that
penalizes items similar to recently shown ones. Pay events only occur given
a click. Everything is deterministic per seed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from sortgen.core import ConfigError, EngineConfig, Item, UserContext, to_dict
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

    def affinity(self, user: UserContext, item: Item) -> float:
        z = float(user.user_features @ self.click_proj @ item.embedding
                  + self.click_appeal @ item.embedding)
        return float(np.clip(0.45 * item.prior_ctr ** 0.15 * (0.1 + 2.4 * _sigmoid(z)), 0.0, 1.0))

    def pay_affinity(self, user: UserContext, item: Item) -> float:
        z = float(user.user_features @ self.pay_proj @ item.embedding
                  + self.pay_appeal @ item.embedding)
        return float(np.clip(0.9 * item.prior_cvr ** 0.15 * (0.1 + 2.4 * _sigmoid(z)), 0.0, 1.0))

    def click_prob(self, user: UserContext, items, t: int) -> float:
        """Click probability at 1-based position t of an exposed list."""
        item = items[t - 1]
        prev = items[max(0, t - 1 - self.window):t - 1]
        max_sim = max((float(np.dot(item.embedding, b.embedding)) for b in prev), default=0.0)
        contrast = 1.0 + self.kappa * (0.5 - max_sim)
        p = self.affinity(user, item) * self.rho ** (t - 1) * contrast
        return float(np.clip(p, 0.0, 1.0))

    def pay_prob_given_click(self, user: UserContext, item: Item) -> float:
        return float(np.clip(self.base_pay * self.pay_affinity(user, item), 0.0, 1.0))


def _sigmoid(z: float) -> float:
    return 1.0 / (1.0 + np.exp(-z))


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


def exposure_list(pool: list[Item], l_o: int, rng: np.random.Generator,
                  noise: float) -> list[Item]:
    """Noisy prior-score ordering, standing in for an upstream ranking stage."""
    scores = np.array([it.prior_ctr for it in pool]) + noise * rng.normal(size=len(pool))
    order = np.argsort(-scores, kind="stable")
    return [pool[i] for i in order[:l_o]]


def simulate_session(user: UserContext, exposed: list[Item], gt: GroundTruthModel,
                     rng: np.random.Generator) -> LabelVector:
    if not exposed:
        raise ConfigError("empty exposed list")
    clicks, pays = [], []
    for t in range(1, len(exposed) + 1):
        clicked = rng.random() < gt.click_prob(user, exposed, t)
        paid = clicked and rng.random() < gt.pay_prob_given_click(user, exposed[t - 1])
        clicks.append(int(clicked))
        pays.append(int(paid))
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
    rng = np.random.default_rng(sim.seed + 1)
    samples = []
    for _ in range(sim.sessions):
        user = sample_user(rng, engine.d_user)
        pool = sample_pool(catalog, engine.l_s, rng)
        exposed = exposure_list(pool, engine.l_o, rng, sim.exposure_noise)
        labels = simulate_session(user, exposed, gt, rng)
        samples.append(ImpressionSample(user, tuple(exposed), labels))
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


def ground_truth_slate_value(gt: GroundTruthModel, user: UserContext, items,
                             alpha: float, beta: float, gamma: float) -> float:
    """Deterministic expected combined value of a slate under the simulator."""
    v_click = v_pay = v_gmv = 0.0
    items = list(items)
    for t in range(1, len(items) + 1):
        pc = gt.click_prob(user, items, t)
        pp = pc * gt.pay_prob_given_click(user, items[t - 1])
        v_click += pc
        v_pay += pp
        v_gmv += items[t - 1].price * pp
    return alpha * v_click + beta * v_pay + gamma * v_gmv

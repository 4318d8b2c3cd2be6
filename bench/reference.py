"""Independent NumPy reference for the sortgen rerank path.

Written from the method's description, not from the package: it reads a
checkpoint file itself and holds its own transformer forward, its own
survival -> expected-count -> combined-value calculus, its own depth-first
queue partition and its own MMR greedy selection. It imports nothing from
`sortgen`, so a fault that a change brings into the package cannot also
hide in the reference the benchmark checks it against.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

LN_EPS = 1e-5


@dataclass(frozen=True)
class Checkpoint:
    params: dict  # name -> float64 array
    config: dict  # the engine config as stored in the checkpoint


@dataclass(frozen=True)
class Pool:
    """A candidate pool as plain arrays, in request order."""

    ids: np.ndarray     # [N] int
    emb: np.ndarray     # [N, d_emb]
    price: np.ndarray   # [N]
    ctr: np.ndarray     # [N]
    cvr: np.ndarray     # [N]


def load_checkpoint(path) -> Checkpoint:
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    params = {
        name: np.array([float(v) for v in entry["data"]], dtype=np.float64)
        .reshape(entry["shape"])
        for name, entry in doc["params"].items()
    }
    return Checkpoint(params, doc["config"])


# ------------------------------- forward -----------------------------------


def _layer_norm(x, gain, bias):
    mu = x.mean(axis=-1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
    return gain * (x - mu) / np.sqrt(var + LN_EPS) + bias


def _attention(x, p, pre, n_heads):
    n, l, dm = x.shape
    dh = dm // n_heads

    def heads(w, b):
        return (x @ p[f"{pre}.{w}"] + p[f"{pre}.{b}"]).reshape(n, l, n_heads, dh).transpose(0, 2, 1, 3)

    q, k, v = heads("Wq", "bq"), heads("Wk", "bk"), heads("Wv", "bv")
    scores = q @ k.transpose(0, 1, 3, 2) / math.sqrt(dh)
    future = np.triu(np.ones((l, l), dtype=bool), k=1)
    scores = np.where(future, -np.inf, scores)
    weights = np.exp(scores - scores.max(axis=-1, keepdims=True))
    weights /= weights.sum(axis=-1, keepdims=True)
    out = (weights @ v).transpose(0, 2, 1, 3).reshape(n, l, dm)
    return out @ p[f"{pre}.Wo"] + p[f"{pre}.bo"]


def _head(x, p, name, cfg):
    h = np.maximum(x @ p[f"{name}.W1"] + p[f"{name}.b1"], 0.0)
    logits = h @ p[f"{name}.W2"] + p[f"{name}.b2"]
    if cfg["head_mode"] == "literal":
        return logits
    # Ordinal link: one score per position minus increasing cutpoints.
    t = p[f"{name}.thresholds"]
    steps = np.concatenate([t[:1], np.logaddexp(0.0, t[1:])])
    return logits - np.cumsum(steps)


def forward(ckpt: Checkpoint, emb, user, score):
    """Survival matrices (click, pay), each [n, l, max_count], zero where i > j.

    emb: [n, l, d_emb]; user: [n, d_user]; score: [n, l, 2].
    """
    p, cfg = ckpt.params, ckpt.config
    n, l, _ = emb.shape
    pos = np.broadcast_to(p["pos.table"][:l], (n, l, cfg["d_position"]))
    usr = np.broadcast_to(user[:, None, :], (n, l, user.shape[1]))
    x = np.concatenate([emb, pos, usr, score], axis=-1) @ p["proj.W"] + p["proj.b"]
    for i in range(cfg["n_layers"]):
        pre = f"layer{i}"
        x = x + _attention(_layer_norm(x, p[f"{pre}.ln1.g"], p[f"{pre}.ln1.b"]),
                           p, f"{pre}.attn", cfg["n_heads"])
        h = _layer_norm(x, p[f"{pre}.ln2.g"], p[f"{pre}.ln2.b"])
        h = np.maximum(h @ p[f"{pre}.ffn.W1"] + p[f"{pre}.ffn.b1"], 0.0)
        x = x + h @ p[f"{pre}.ffn.W2"] + p[f"{pre}.ffn.b2"]
    x = _layer_norm(x, p["final_ln.g"], p["final_ln.b"])
    m = cfg["max_count"]
    possible = np.arange(1, m + 1)[None, :] <= np.arange(1, l + 1)[:, None]  # i <= j
    out = []
    for name in ("head_click", "head_pay"):
        probs = 1.0 / (1.0 + np.exp(-_head(x, p, name, cfg)))
        out.append(np.where(possible, probs, 0.0))
    return out[0], out[1]


# ----------------------------- value calculus ------------------------------


def monotone(survival):
    """Clamp P(count >= i) to be non-increasing in i."""
    return np.minimum.accumulate(survival, axis=-1)


def expected_counts(survival):
    """E[count within the first j positions] = sum_i P(count >= i), per j."""
    return monotone(survival).sum(axis=-1)


def combined_value(click, pay, prices, weights):
    """alpha*E[clicks] + beta*E[pays] + gamma*sum_t price_t*(E_pay[t]-E_pay[t-1])."""
    alpha, beta, gamma = weights
    e_click, e_pay = expected_counts(click), expected_counts(pay)
    gmv = (prices * np.diff(e_pay, axis=1, prepend=0.0)).sum(axis=1)
    return alpha * e_click[:, -1] + beta * e_pay[:, -1] + gamma * gmv


# ------------------------------ generation ---------------------------------


def _queue_score(pool: Pool, i: int, coeffs: dict) -> float:
    terms = {
        "ctr": pool.ctr[i],
        "cvr": pool.cvr[i],
        "ctr_cvr": pool.ctr[i] * pool.cvr[i],
        "price": pool.price[i],
        "ctr_cvr_price": pool.ctr[i] * pool.cvr[i] * pool.price[i],
    }
    return sum(float(c) * float(terms[k]) for k, c in coeffs.items())


def dfs_queues(pool: Pool, queue_specs, l_o: int) -> list[list[int]]:
    """Fill each queue in priority order with its best l_o unclaimed items.

    A queue ranks by its score, highest first, then by ascending item id.
    """
    taken: set[int] = set()
    queues = []
    for spec in sorted(queue_specs, key=lambda s: s["priority"]):
        ranked = sorted(range(len(pool.ids)),
                        key=lambda i: (-_queue_score(pool, i, spec["coeffs"]), int(pool.ids[i])))
        queue = [i for i in ranked if i not in taken][:l_o]
        taken.update(queue)
        queues.append(queue)
    return queues


def rerank(ckpt: Checkpoint, user, pool: Pool, weights, lam=None):
    """Greedy MMR slate: (item ids, source queues, combined value of the slate)."""
    cfg = ckpt.config
    lam = cfg["lambda_mmr"] if lam is None else lam
    l_o, window = cfg["l_o"], cfg["window_w"]
    queues = dfs_queues(pool, cfg["queue_specs"], l_o)
    cursor = [0] * len(queues)
    chosen: list[int] = []
    sources: list[int] = []

    def values(rows):
        idx = np.array(rows)
        click, pay = forward(ckpt, pool.emb[idx], np.repeat(user[None], len(rows), axis=0),
                             np.stack([pool.ctr[idx], pool.cvr[idx]], axis=-1))
        return combined_value(click, pay, pool.price[idx], weights)

    for _ in range(l_o):
        heads = [(q, queue[cursor[q]]) for q, queue in enumerate(queues) if cursor[q] < len(queue)]
        if not heads:
            raise ValueError("queues exhausted before l_o picks")
        vals = values([chosen + [i] for _, i in heads])
        recent = chosen[-window:]
        best = None
        for (q, i), v in zip(heads, vals):
            sim = max((float(pool.emb[i] @ pool.emb[j]) for j in recent), default=0.0)
            score = lam * float(v) - (1.0 - lam) * sim
            if best is None or score > best[0]:  # ties keep the lower queue index
                best = (score, q, i)
        _, q, i = best
        cursor[q] += 1
        chosen.append(i)
        sources.append(q)
    final = float(values([chosen])[0])
    return [int(pool.ids[i]) for i in chosen], sources, final

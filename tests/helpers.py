"""Plain helpers shared by test modules.

Kept apart from conftest.py, which pytest imports itself: a test module that
imported conftest would load it a second time under another name.
"""

import math

import numpy as np

from sortgen import nn
from sortgen.core import Item
from sortgen.nn import Var


def make_item(i, emb, price=10.0, ctr=0.2, cvr=0.1, cat=0):
    emb = np.asarray(emb, dtype=np.float64)
    return Item(id=i, embedding=emb / np.linalg.norm(emb), price=price,
                prior_ctr=ctr, prior_cvr=cvr, category=cat)


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


# Primitive-op references for the one-node blocks nn.attention and nn.ffn,
# with the signatures of model._attention and model._ffn.


def mhsa_reference(x: Var, params: dict, prefix: str, n_heads: int) -> Var:
    n, l, dm = x.shape
    dh = dm // n_heads

    def split(v: Var) -> Var:
        return nn.transpose(nn.reshape(v, (n, l, n_heads, dh)), (0, 2, 1, 3))

    q = split(nn.linear(x, params[f"{prefix}.Wq"], params[f"{prefix}.bq"]))
    k = split(nn.linear(x, params[f"{prefix}.Wk"], params[f"{prefix}.bk"]))
    v = split(nn.linear(x, params[f"{prefix}.Wv"], params[f"{prefix}.bv"]))
    scores = nn.mul(nn.matmul(q, nn.transpose(k, (0, 1, 3, 2))), 1.0 / math.sqrt(dh))
    causal = np.tril(np.ones((l, l), dtype=bool))[None, None, :, :]
    att = nn.masked_softmax(scores, causal)
    out = nn.transpose(nn.matmul(att, v), (0, 2, 1, 3))
    out = nn.reshape(out, (n, l, dm))
    return nn.linear(out, params[f"{prefix}.Wo"], params[f"{prefix}.bo"])


def ffn_reference(x: Var, params: dict, prefix: str) -> Var:
    h = nn.relu(nn.linear(x, params[f"{prefix}.W1"], params[f"{prefix}.b1"]))
    return nn.linear(h, params[f"{prefix}.W2"], params[f"{prefix}.b2"])

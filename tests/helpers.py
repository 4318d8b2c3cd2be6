"""Plain helpers shared by test modules.

Kept apart from conftest.py, which pytest imports itself: a test module that
imported conftest would load it a second time under another name.
"""

import math

import numpy as np

from sortgen import nn
from sortgen.core import ConfigError, Item, ObjectiveWeights, UserContext
from sortgen.nn import Var
from sortgen.server import MAX_CANDIDATES, RequestError


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
    try:
        user = UserContext(np.array([float(v) for v in doc["user"]]))
    except (TypeError, ValueError) as exc:
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
        try:
            weights = ObjectiveWeights(float(w["alpha"]), float(w["beta"]), float(w["gamma"]))
        except (KeyError, TypeError, ValueError, ConfigError) as exc:
            raise RequestError(f"weights: {exc}") from exc
    lam = None
    if "lambda" in doc:
        try:
            lam = float(doc["lambda"])
        except (TypeError, ValueError) as exc:
            raise RequestError(f"lambda: {exc}") from exc
        if not 0.0 <= lam <= 1.0:
            raise RequestError("lambda: outside [0,1]")
    return user, items, weights, lam


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

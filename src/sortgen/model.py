"""The slate value network.

A pre-norm causal transformer over the concatenated (item, position, user,
prior-score) feature blocks, with two head MLPs emitting per-position
threshold logits for the click and pay objectives. Each sigmoid output
p[i, j] reads "probability that the cumulative action count within the first
j positions is at least i"; entries with i > j are forced to zero since a
length-j prefix cannot contain more than j actions.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from sortgen import nn
from sortgen.core import ConfigError, EngineConfig, config_hash, to_dict
from sortgen.nn import Var

HEAD_HIDDEN = 32

CKPT_FORMAT = "sortgen-ckpt-v1"


@dataclass
class ModelOutput:
    """Batched forward results; probs are zero-masked where i > j."""

    click: Var  # [n, l, max_count]
    pay: Var
    click_logits: Var
    pay_logits: Var
    valid: np.ndarray  # [l, max_count] bool, True where i <= j


# ------------------------------ parameters ---------------------------------


def _uniform(rng: np.random.Generator, shape, fan_in: int) -> np.ndarray:
    bound = 1.0 / math.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)


def param_shapes(config: EngineConfig) -> dict[str, tuple[int, ...]]:
    """Name and shape of every parameter, in the order init_params draws them."""
    d, dm, lmax = config.d_input, config.d_model, config.max_count
    shapes = {"pos.table": (config.l_o, config.d_position), "proj.W": (d, dm), "proj.b": (dm,)}
    for i in range(config.n_layers):
        pre = f"layer{i}"
        shapes.update({f"{pre}.ln1.g": (dm,), f"{pre}.ln1.b": (dm,)})
        shapes.update({f"{pre}.attn.{name}": (dm, dm) for name in ("Wq", "Wk", "Wv", "Wo")})
        shapes.update({f"{pre}.attn.{name}": (dm,) for name in ("bq", "bk", "bv", "bo")})
        shapes.update({f"{pre}.ln2.g": (dm,), f"{pre}.ln2.b": (dm,),
                       f"{pre}.ffn.W1": (dm, 4 * dm), f"{pre}.ffn.b1": (4 * dm,),
                       f"{pre}.ffn.W2": (4 * dm, dm), f"{pre}.ffn.b2": (dm,)})
    shapes.update({"final_ln.g": (dm,), "final_ln.b": (dm,)})
    out_width = 1 if config.head_mode == "monotone" else lmax
    for head in ("head_click", "head_pay"):
        shapes.update({f"{head}.W1": (dm, HEAD_HIDDEN), f"{head}.b1": (HEAD_HIDDEN,),
                       f"{head}.W2": (HEAD_HIDDEN, out_width), f"{head}.b2": (out_width,)})
        if config.head_mode == "monotone":
            shapes[f"{head}.thresholds"] = (lmax,)
    return shapes


def init_params(config: EngineConfig, seed: int | None = None) -> dict[str, Var]:
    """Fresh parameters: 1/sqrt(fan_in) uniform weights (W*), unit layer-norm
    gains (g), a N(0, 0.02) position table, and zeros elsewhere."""
    rng = np.random.default_rng(config.seed if seed is None else seed)
    p: dict[str, np.ndarray] = {}
    for name, shape in param_shapes(config).items():
        leaf = name.rsplit(".", 1)[1]
        if name == "pos.table":
            p[name] = rng.normal(0.0, 0.02, size=shape)
        elif leaf.startswith("W"):
            p[name] = _uniform(rng, shape, shape[0])
        else:
            p[name] = np.ones(shape) if leaf == "g" else np.zeros(shape)
    return {name: Var(arr) for name, arr in p.items()}


def expected_param_count(config: EngineConfig) -> int:
    """Closed-form parameter count for the configured shape."""
    d, dm, lmax = config.d_input, config.d_model, config.max_count
    n = config.l_o * config.d_position          # position table
    n += d * dm + dm                            # input projection
    per_layer = 2 * dm                          # ln1
    per_layer += 4 * dm * dm + 4 * dm           # attention
    per_layer += 2 * dm                         # ln2
    per_layer += dm * 4 * dm + 4 * dm + 4 * dm * dm + dm  # ffn
    n += config.n_layers * per_layer
    n += 2 * dm                                 # final ln
    out_width = 1 if config.head_mode == "monotone" else lmax
    per_head = dm * HEAD_HIDDEN + HEAD_HIDDEN + HEAD_HIDDEN * out_width + out_width
    if config.head_mode == "monotone":
        per_head += lmax
    n += 2 * per_head
    return n


# ------------------------------- forward -----------------------------------


def _check_input(config: EngineConfig, end: int, e_item: np.ndarray, user: np.ndarray) -> None:
    """Shape checks shared by both forwards; `end` is the last position + 1."""
    if e_item.shape[1] == 0:
        raise ConfigError("empty sub-list")
    if end > config.l_o:
        raise ConfigError(f"sequence length {end} exceeds position table size {config.l_o}")
    if e_item.shape[2] != config.d_emb or user.shape[-1] != config.d_user:
        raise ConfigError("feature width mismatch")


def assemble_input(config: EngineConfig, params: dict, e_item: np.ndarray,
                   user: np.ndarray, e_score: np.ndarray) -> Var:
    """Concatenate item, position, user, and prior-score blocks to [n, l, d].

    e_item: [n, l, d_emb]; user: [n, d_user]; e_score: [n, l, 2]. The data
    blocks are constants; only the position table can require grad.
    """
    n, l = e_item.shape[0], e_item.shape[1]
    _check_input(config, l, e_item, user)
    pos = nn.tile_to(
        nn.reshape(nn.slice_axis0(params["pos.table"], 0, l), (1, l, config.d_position)),
        (n, l, config.d_position),
    )
    user_block = np.broadcast_to(user[:, None, :], (n, l, config.d_user))
    return nn.concat([e_item, pos, user_block, e_score], axis=-1)


def _attention(x: Var, params: dict, prefix: str, n_heads: int) -> Var:
    return nn.attention(x, *(params[f"{prefix}.{name}"] for name in
                             ("Wq", "Wk", "Wv", "Wo", "bq", "bk", "bv", "bo")), n_heads)


def _ffn(x: Var, params: dict, prefix: str) -> Var:
    return nn.ffn(x, *(params[f"{prefix}.{name}"] for name in ("W1", "b1", "W2", "b2")))


def _head_logits(x: Var, params: dict, head: str, config: EngineConfig) -> Var:
    out = _ffn(x, params, head)
    if config.head_mode == "literal":
        return out  # [n, l, max_count], independent logits per threshold
    # Monotone ordinal link: shared score minus strictly increasing cutpoints.
    t = params[f"{head}.thresholds"]  # [max_count]
    first = nn.slice_axis0(t, 0, 1)
    rest = t if config.max_count == 1 else nn.slice_axis0(t, 1, config.max_count)
    if config.max_count > 1:
        softplus = nn.log(nn.add(1.0, nn.exp(rest)))
        steps = nn.concat([first, softplus], axis=0)
    else:
        steps = first
    lower = np.tril(np.ones((config.max_count, config.max_count)))
    cutpoints = nn.matmul(lower, nn.reshape(steps, (config.max_count, 1)))
    return nn.add(out, nn.neg(nn.reshape(cutpoints, (config.max_count,))))


def valid_mask(l: int, max_count: int) -> np.ndarray:
    """True where threshold index i (1-based) <= prefix length j (1-based)."""
    return np.arange(1, max_count + 1)[None, :] <= np.arange(1, l + 1)[:, None]


def forward(config: EngineConfig, params: dict, e_item: np.ndarray,
            user: np.ndarray, e_score: np.ndarray) -> ModelOutput:
    """Full forward pass for a batch of (sub-)lists of common length l."""
    x = assemble_input(config, params, e_item, user, e_score)
    x = nn.linear(x, params["proj.W"], params["proj.b"])
    for i in range(config.n_layers):
        pre = f"layer{i}"
        h = nn.layer_norm(x, params[f"{pre}.ln1.g"], params[f"{pre}.ln1.b"])
        x = nn.add(x, _attention(h, params, f"{pre}.attn", config.n_heads))
        h = nn.layer_norm(x, params[f"{pre}.ln2.g"], params[f"{pre}.ln2.b"])
        x = nn.add(x, _ffn(h, params, f"{pre}.ffn"))
    x = nn.layer_norm(x, params["final_ln.g"], params["final_ln.b"])

    l = e_item.shape[1]
    mask = valid_mask(l, config.max_count)
    click_logits = _head_logits(x, params, "head_click", config)
    pay_logits = _head_logits(x, params, "head_pay", config)
    click = nn.mul(nn.sigmoid(click_logits), mask.astype(np.float64))
    pay = nn.mul(nn.sigmoid(pay_logits), mask.astype(np.float64))
    for out in (click, pay):
        if not np.isfinite(out.value).all():
            raise FloatingPointError("non-finite activations in forward pass")
    return ModelOutput(click, pay, click_logits, pay_logits, mask)


class ItemFeatures(NamedTuple):
    """A sequence of items packed into arrays, one row per item."""

    ids: np.ndarray    # [n] int64
    emb: np.ndarray    # [n, d_emb]
    score: np.ndarray  # [n, 2]: (prior_ctr, prior_cvr)
    price: np.ndarray  # [n]
    cat: np.ndarray    # [n] int64


def item_features(items) -> ItemFeatures:
    """Pack a sequence of items; the only place that reads Item fields into arrays."""
    if not len(items):
        raise ConfigError("empty candidate pool")
    return ItemFeatures(np.array([it.id for it in items], dtype=np.int64),
                        np.stack([it.embedding for it in items]),
                        np.array([[it.prior_ctr, it.prior_cvr] for it in items], dtype=np.float64),
                        np.array([it.price for it in items], dtype=np.float64),
                        np.array([it.category for it in items], dtype=np.int64))


# --------------------------- tape-free inference -----------------------------
#
# The same network as `forward`, over the same parameter dict, in plain NumPy.
# It computes positions start..start+m-1 of each row and attends over the
# keys and values of positions 0..start-1, which a `Prefix` caches. The model
# is causal and everything but attention is per position, so with an empty
# prefix this is the full forward, and after a chosen prefix it is one
# incremental greedy step (KV caching).


@dataclass
class Prefix:
    """A chosen prefix for one user, cached so that the next position can be
    scored without recomputing it."""

    user: np.ndarray        # [d_user]
    keys: list[np.ndarray]  # per layer [n_heads, t, d_head]
    vals: list[np.ndarray]  # per layer [n_heads, t, d_head]
    click: np.ndarray       # [t, max_count] survival rows of the prefix
    pay: np.ndarray

    @classmethod
    def empty(cls, config: EngineConfig, user: np.ndarray) -> "Prefix":
        dh = config.d_model // config.n_heads
        kv = np.zeros((config.n_heads, 0, dh))
        rows = np.zeros((0, config.max_count))
        return cls(np.asarray(user, dtype=np.float64), [kv] * config.n_layers,
                   [kv] * config.n_layers, rows, rows)

    def __len__(self) -> int:
        return self.click.shape[0]


@dataclass
class Extension:
    """A prefix extended by each of n candidates."""

    click: np.ndarray       # [n, t+1, max_count]: prefix rows, then the new row
    pay: np.ndarray
    keys: list[np.ndarray]  # per layer [n, n_heads, 1, d_head] of the new position
    vals: list[np.ndarray]

    def choose(self, prefix: Prefix, k: int) -> Prefix:
        """The prefix extended by candidate k."""
        return Prefix(
            prefix.user,
            [np.concatenate([old, new[k]], axis=1) for old, new in zip(prefix.keys, self.keys)],
            [np.concatenate([old, new[k]], axis=1) for old, new in zip(prefix.vals, self.vals)],
            self.click[k], self.pay[k])


def _dense(x: np.ndarray, params: dict, w: str, b: str) -> np.ndarray:
    """x @ W + b over the last axis, as one 2-D GEMM."""
    wv = params[w].value
    y = x.reshape(-1, wv.shape[0]) @ wv + params[b].value
    return y.reshape(x.shape[:-1] + (wv.shape[1],))


def _norm(x: np.ndarray, params: dict, prefix: str) -> np.ndarray:
    return params[f"{prefix}.g"].value * nn.normalize_rows(x)[0] + params[f"{prefix}.b"].value


def _attend(x: np.ndarray, params: dict, prefix: str, n_heads: int,
            past_k: np.ndarray | None, past_v: np.ndarray | None):
    """Causal attention of x's m positions over past + own keys.

    Returns the attention output and x's keys and values, [n, heads, m, dh].
    """
    n, m, dm = x.shape
    dh = dm // n_heads

    def split(name: str) -> np.ndarray:
        y = _dense(x, params, f"{prefix}.W{name}", f"{prefix}.b{name}")
        return y.reshape(n, m, n_heads, dh).transpose(0, 2, 1, 3)

    q, k, v = split("q"), split("k"), split("v")
    keys, vals, t = k, v, 0
    if past_k is not None:
        t = past_k.shape[1]
        keys = np.concatenate([past_k[None].repeat(n, axis=0), k], axis=2)
        vals = np.concatenate([past_v[None].repeat(n, axis=0), v], axis=2)
    scores = (q @ keys.transpose(0, 1, 3, 2)) * (1.0 / math.sqrt(dh))
    causal = np.arange(t + m)[None, :] <= t + np.arange(m)[:, None]
    out = (nn.softmax_rows(scores, causal) @ vals).transpose(0, 2, 1, 3).reshape(n, m, dm)
    return _dense(out, params, f"{prefix}.Wo", f"{prefix}.bo"), k, v


def _head_probs(x: np.ndarray, params: dict, head: str, config: EngineConfig,
                mask: np.ndarray) -> np.ndarray:
    h = np.maximum(_dense(x, params, f"{head}.W1", f"{head}.b1"), 0.0)
    z = _dense(h, params, f"{head}.W2", f"{head}.b2")
    if config.head_mode == "monotone":
        t = params[f"{head}.thresholds"].value
        z = z - np.cumsum(np.concatenate([t[:1], np.log(1.0 + np.exp(t[1:]))]))
    return 1.0 / (1.0 + np.exp(-z)) * mask


def _infer(config: EngineConfig, params: dict, e_item: np.ndarray, user: np.ndarray,
           e_score: np.ndarray, past: Prefix | None):
    """Survival rows and per-layer keys/values of the positions in e_item.

    e_item: [n, m, d_emb]; user: [n, d_user]; e_score: [n, m, 2]. The m
    positions follow `past` (shared by every row), or start at 0.
    """
    n, m = e_item.shape[0], e_item.shape[1]
    start = 0 if past is None else len(past)
    _check_input(config, start + m, e_item, user)
    pos = params["pos.table"].value[None, start:start + m].repeat(n, axis=0)
    x = np.concatenate([e_item, pos, user[:, None].repeat(m, axis=1), e_score], axis=-1)
    x = _dense(x, params, "proj.W", "proj.b")
    keys, vals = [], []
    for i in range(config.n_layers):
        pre = f"layer{i}"
        a, k, v = _attend(_norm(x, params, f"{pre}.ln1"), params, f"{pre}.attn", config.n_heads,
                          None if past is None else past.keys[i],
                          None if past is None else past.vals[i])
        x = x + a
        h = np.maximum(_dense(_norm(x, params, f"{pre}.ln2"), params,
                              f"{pre}.ffn.W1", f"{pre}.ffn.b1"), 0.0)
        x = x + _dense(h, params, f"{pre}.ffn.W2", f"{pre}.ffn.b2")
        keys.append(k)
        vals.append(v)
    x = _norm(x, params, "final_ln")
    mask = valid_mask(start + m, config.max_count)[start:].astype(np.float64)
    click = _head_probs(x, params, "head_click", config, mask)
    pay = _head_probs(x, params, "head_pay", config, mask)
    if not (np.isfinite(click).all() and np.isfinite(pay).all()):
        raise FloatingPointError("non-finite activations in forward pass")
    return click, pay, keys, vals


def infer(config: EngineConfig, params: dict, e_item: np.ndarray, user: np.ndarray,
          e_score: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Tape-free full forward: the click and pay survival probabilities that
    `forward` computes, as plain [n, l, max_count] arrays."""
    click, pay, _, _ = _infer(config, params, e_item, user, e_score, None)
    return click, pay


def extend(config: EngineConfig, params: dict, prefix: Prefix, e_item: np.ndarray,
           e_score: np.ndarray) -> Extension:
    """Score the prefix extended by each of n candidates, computing only the
    new position. e_item: [n, d_emb]; e_score: [n, 2]."""
    n = e_item.shape[0]
    click, pay, keys, vals = _infer(config, params, e_item[:, None],
                                    prefix.user[None].repeat(n, axis=0), e_score[:, None], prefix)
    return Extension(np.concatenate([prefix.click[None].repeat(n, axis=0), click], axis=1),
                     np.concatenate([prefix.pay[None].repeat(n, axis=0), pay], axis=1),
                     keys, vals)


# ------------------------------ checkpoints --------------------------------


def save_checkpoint(path: str | Path, params: dict, config: EngineConfig) -> None:
    doc = {
        "format_version": CKPT_FORMAT,
        "config_hash": config_hash(config),
        "config": to_dict(config),
        "params": {
            name: {"shape": list(p.value.shape), "data": [repr(float(v)) for v in p.value.ravel()]}
            for name, p in params.items()
        },
    }
    Path(path).write_text(json.dumps(doc, sort_keys=True), encoding="utf-8")


def load_checkpoint(path: str | Path) -> tuple[dict[str, Var], EngineConfig]:
    """Parameters and config from a checkpoint file.

    The parameters come back frozen (requires_grad=False), so a forward over
    them records no tape; set requires_grad=True on each to fine-tune them.
    Every parameter's name and shape is checked against `param_shapes(config)`,
    and its values must be finite, so a damaged checkpoint raises ConfigError
    here, not on its first use.
    """
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    if doc.get("format_version") != CKPT_FORMAT:
        raise ConfigError(f"unsupported checkpoint format {doc.get('format_version')!r}")
    config = EngineConfig.from_dict(doc["config"])
    if config_hash(config) != doc["config_hash"]:
        raise ConfigError("checkpoint config hash mismatch")
    shapes = param_shapes(config)
    stored = doc["params"]
    missing, extra = sorted(shapes.keys() - stored.keys()), sorted(stored.keys() - shapes.keys())
    if missing or extra:
        raise ConfigError(f"checkpoint parameters do not match its config: "
                          f"missing {missing}, unexpected {extra}")
    params = {}
    for name, entry in stored.items():
        arr = np.array([float(v) for v in entry["data"]], dtype=np.float64)
        if tuple(entry["shape"]) != shapes[name] or arr.size != math.prod(shapes[name]):
            raise ConfigError(f"checkpoint parameter {name!r} has shape {entry['shape']} and "
                              f"{arr.size} values, expected shape {list(shapes[name])}")
        if not np.isfinite(arr).all():
            raise ConfigError(f"checkpoint parameter {name!r} has a non-finite value")
        params[name] = Var(arr.reshape(shapes[name]), requires_grad=False)
    return params, config

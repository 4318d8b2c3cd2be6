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
from dataclasses import dataclass, fields
from pathlib import Path
from typing import NamedTuple

import numpy as np

from sortgen import nn
from sortgen.core import ConfigError, EngineConfig, config_hash, to_dict, validate_config
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


def _monotone_logits(score: Var, thresholds: Var) -> Var:
    """The monotone ordinal link as one tape node: the shared score [n, l, 1]
    minus strictly increasing cutpoints [max_count], the running sum of the
    first threshold and the softplus of the others.

    Equal bit for bit, forward and backward, to the chain of slices, exp,
    log, concat, a lower-triangular matmul and add that it replaces
    (tests/helpers.py): the cutpoints are that matmul, not `_cutpoints`'
    cumsum, which rounds differently.
    """
    t = thresholds.value
    k = t.shape[0]
    lower = np.tri(k)
    e = np.exp(t[1:])
    softplus_in = 1.0 + e
    steps = np.concatenate([t[:1], np.log(softplus_in)])
    cut = np.matmul(lower, steps.reshape(k, 1)).reshape(k)

    def bw(g):
        score._accum(nn._unbroadcast(g, score.shape))
        g_cut = -nn._unbroadcast(g, (k,))
        g_steps = np.matmul(lower.T, g_cut.reshape(k, 1)).reshape(k)
        thresholds._accum(np.concatenate([g_steps[:1], g_steps[1:] / softplus_in * e]))

    return Var(score.value + -cut, (score, thresholds), bw)


def _ffn(x: Var, params: dict, prefix: str) -> Var:
    return nn.ffn(x, *(params[f"{prefix}.{name}"] for name in ("W1", "b1", "W2", "b2")))


def _head_logits(x: Var, params: dict, head: str, config: EngineConfig) -> Var:
    out = _ffn(x, params, head)
    if config.head_mode == "literal":
        return out  # [n, l, max_count], independent logits per threshold
    return _monotone_logits(out, params[f"{head}.thresholds"])


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
        x = nn.attention_block(x, *(params[f"{pre}.{name}"] for name in (
            "ln1.g", "ln1.b", "attn.Wq", "attn.Wk", "attn.Wv", "attn.Wo",
            "attn.bq", "attn.bk", "attn.bv", "attn.bo")), config.n_heads)
        x = nn.ffn_block(x, *(params[f"{pre}.{name}"] for name in (
            "ln2.g", "ln2.b", "ffn.W1", "ffn.b1", "ffn.W2", "ffn.b2")))
    x = nn.layer_norm(x, params["final_ln.g"], params["final_ln.b"])

    l = e_item.shape[1]
    mask = valid_mask(l, config.max_count)
    click_logits = _head_logits(x, params, "head_click", config)
    pay_logits = _head_logits(x, params, "head_pay", config)
    click = nn.sigmoid_masked(click_logits, mask.astype(np.float64))
    pay = nn.sigmoid_masked(pay_logits, mask.astype(np.float64))
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
# The same network as `forward`, in plain NumPy on `InferenceWeights`, the
# parameters packed once per checkpoint (`packed_weights`). The packing folds
# in every affine map that does not depend on the input: each layer norm's
# gain and bias go into the GEMM after it, attention's 1/sqrt(d_head) into
# the Q columns, and the heads' cutpoints and the sigmoid's sign into their
# output layer. It also centres every array that writes the residual stream
# (each row minus its mean: the input projection's blocks, `pos`, and each
# block's output and second FFN layer), so every row of the stream has zero
# mean. A layer norm reads the stream only through x - mean(x), so the norms
# drop their centring: each is `_norm_rows`, x / sqrt(sum(x^2) + d * eps),
# which is 1/sqrt(d) times the layer norm's rows, and that sqrt(d) is folded
# into its gain. So a block's halves start from `_norm_rows`, and the heads
# end in valid / (1 + exp(h @ W2 + b2)). `infer` is the full causal forward
# over whole sequences. `extend` is the greedy step: it computes only the new
# position of each candidate and attends over the keys and values of the
# chosen prefix, which a `Prefix` caches in buffers filled in place (KV
# caching), so no step copies the cache. The two share the block and head
# code and differ only in where attention's keys and values come from; the
# model is causal and everything but attention is per position, so `extend`
# equals `infer` over prefix + candidate.


def _cutpoints(thresholds: np.ndarray) -> np.ndarray:
    """A monotone head's strictly increasing cutpoints, [max_count]."""
    return np.cumsum(np.concatenate([thresholds[:1], np.log(1.0 + np.exp(thresholds[1:]))]))


def _centred(a: np.ndarray) -> np.ndarray:
    """a with each row's mean taken out: a @ (I - 11^T / d) for a residual
    writer a [..., d_model], so that what it writes has zero mean."""
    return a - a.mean(axis=-1, keepdims=True)


def _norm_rows(x: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    """Zero-mean rows x [m, d] scaled to x / sqrt(sum(x^2) + d * eps): the
    layer norm's `nn.normalize_rows(x)[0]` divided by sqrt(d), without its
    centring."""
    return x / np.sqrt(np.add.reduce(x * x, axis=-1, keepdims=True) + x.shape[-1] * eps)


def _fold_norm(g: np.ndarray, b: np.ndarray, w: np.ndarray,
               c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The GEMM (g * xhat + b) @ w + c after a layer norm as xhat @ w' + c':
    (g[:, None] * w, b @ w + c). Pass g * sqrt(d_model) to read xhat from
    `_norm_rows`."""
    return g[:, None] * w, b @ w + c


class Block(NamedTuple):
    """One transformer block's weights, with Q, K and V in one GEMM, each
    layer norm folded into the GEMM after it, and the residual writers
    centred."""

    qkv_w: np.ndarray  # [d_model, 3 * d_model]: ln1 folded into Wq / sqrt(d_head) | Wk | Wv
    qkv_b: np.ndarray  # [3 * d_model]
    out_w: np.ndarray   # attn.Wo, centred
    out_b: np.ndarray   # attn.bo, centred
    ffn_w1: np.ndarray  # ln2 folded into ffn.W1
    ffn_b1: np.ndarray
    ffn_w2: np.ndarray  # ffn.W2, centred
    ffn_b2: np.ndarray  # ffn.b2, centred


def _frozen(a: np.ndarray) -> np.ndarray:
    """A read-only view."""
    a = a.view()
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class InferenceWeights:
    """The parameters packed for `infer` and `extend`, as read-only arrays.

    The input projection is split by feature block, so that an input row is a
    sum of projected rows. Every array that writes the residual stream (the
    projection's blocks, `pos`, and each block's `out_*` and `ffn_w2`/`ffn_b2`)
    is centred, each row minus its mean, so every stream row has zero mean
    and the norms need no centring (`_norm_rows`). Each layer norm is folded
    into the GEMM after it, its gain times sqrt(d_model); Q, K and V are one
    GEMM per block, with 1/sqrt(d_head) folded into the Q columns; and the
    click and pay heads are one MLP whose second layer is block-diagonal and
    emits minus each threshold's logit: -W2 (a monotone head's single column
    repeated max_count times) with bias cutpoints - b2. Every array is new,
    none a view of a parameter, so the weights do not follow training:
    derive them again from the trained parameters.
    """

    config: EngineConfig
    item: np.ndarray    # [d_emb, d_model]: proj.W's item rows, centred
    score: np.ndarray   # [2, d_model]: its prior-score rows, centred
    user: np.ndarray    # [d_user, d_model]: its user rows, centred
    pos: np.ndarray     # [l_o, d_model]: pos.table through its position rows, plus proj.b, centred
    blocks: tuple[Block, ...]
    head_w1: np.ndarray  # [d_model, 2 * HEAD_HIDDEN]: final_ln folded into click | pay W1
    head_b1: np.ndarray
    head_w2: np.ndarray  # [2 * HEAD_HIDDEN, 2 * max_count], block-diagonal
    head_b2: np.ndarray  # [2 * max_count]: click, then pay
    valid: np.ndarray    # [l_o, 2 * max_count]: valid_mask for both heads, as 1.0 and 0.0

    def __post_init__(self):
        for f in fields(self):
            if isinstance(getattr(self, f.name), np.ndarray):
                object.__setattr__(self, f.name, _frozen(getattr(self, f.name)))
        object.__setattr__(self, "blocks",
                           tuple(Block(*map(_frozen, block)) for block in self.blocks))

    @classmethod
    def from_params(cls, config: EngineConfig, params: dict) -> "InferenceWeights":
        def w(name: str) -> np.ndarray:
            return params[name].value

        def joined(names: list[str]) -> np.ndarray:
            return np.concatenate([w(name) for name in names], axis=-1)

        item, pos, user, score = np.split(
            w("proj.W"), np.cumsum([config.d_emb, config.d_position, config.d_user]))
        scale = 1.0 / math.sqrt(config.d_model // config.n_heads)
        root_d = math.sqrt(config.d_model)
        blocks = []
        for i in range(config.n_layers):
            a, f = f"layer{i}.attn", f"layer{i}.ffn"
            qkv_w = np.concatenate([w(f"{a}.Wq") * scale, w(f"{a}.Wk"), w(f"{a}.Wv")], axis=1)
            qkv_b = np.concatenate([w(f"{a}.bq") * scale, w(f"{a}.bk"), w(f"{a}.bv")])
            blocks.append(Block(
                *_fold_norm(w(f"layer{i}.ln1.g") * root_d, w(f"layer{i}.ln1.b"), qkv_w, qkv_b),
                _centred(w(f"{a}.Wo")), _centred(w(f"{a}.bo")),
                *_fold_norm(w(f"layer{i}.ln2.g") * root_d, w(f"layer{i}.ln2.b"), w(f"{f}.W1"),
                            w(f"{f}.b1")),
                _centred(w(f"{f}.W2")), _centred(w(f"{f}.b2"))))
        heads, lmax = ("head_click", "head_pay"), config.max_count
        head_w1, head_b1 = _fold_norm(w("final_ln.g") * root_d, w("final_ln.b"),
                                      joined([f"{h}.W1" for h in heads]),
                                      joined([f"{h}.b1" for h in heads]))
        head_w2, head_b2 = np.zeros((2 * HEAD_HIDDEN, 2 * lmax)), np.zeros(2 * lmax)
        for k, h in enumerate(heads):
            rows = slice(k * HEAD_HIDDEN, (k + 1) * HEAD_HIDDEN)
            cols = slice(k * lmax, (k + 1) * lmax)
            head_w2[rows, cols] = -np.broadcast_to(w(f"{h}.W2"), (HEAD_HIDDEN, lmax))
            # Literal heads emit each threshold's logit directly: no cutpoints.
            cut = (_cutpoints(w(f"{h}.thresholds")) if config.head_mode == "monotone"
                   else np.zeros(lmax))
            head_b2[cols] = cut - w(f"{h}.b2")
        return cls(config=config, item=_centred(item), score=_centred(score),
                   user=_centred(user), pos=_centred(w("pos.table") @ pos + w("proj.b")),
                   blocks=tuple(blocks), head_w1=head_w1, head_b1=head_b1,
                   head_w2=head_w2, head_b2=head_b2,
                   valid=np.tile(valid_mask(config.l_o, lmax), 2).astype(np.float64))

    def project(self, emb: np.ndarray, score: np.ndarray) -> np.ndarray:
        """Item rows' share of the input projection: their embedding and
        prior-score blocks, [n, d_model]. emb: [n, d_emb]; score: [n, 2]."""
        if emb.shape[-1] != self.config.d_emb or score.shape[-1] != self.config.d_score:
            raise ConfigError("feature width mismatch")
        return emb @ self.item + score @ self.score


# The last packing of read-only parameters: (config, {name: array}, weights).
# It lives here because callers such as `server.rerank` pass only the
# parameter dict. The entry is replaced whole, so a thread reads a consistent
# one; two threads that miss at once both pack, and either packing is right.
_last_packed: tuple[EngineConfig, dict, InferenceWeights] | None = None


def packed_weights(config: EngineConfig, params: dict) -> InferenceWeights:
    """`InferenceWeights.from_params(config, params)`, packed once per loaded
    checkpoint: the last packing is reused while the config is equal and every
    parameter array is the same object as then and still read-only, as
    `load_checkpoint`'s are. Writable parameters (`init_params`, training) may
    be written in place, so they are packed afresh on every call. An array
    made writable, written and then frozen again between two calls is not
    noticed: replace a parameter's array to change it."""
    global _last_packed
    arrays = {name: p.value for name, p in params.items()}
    last = _last_packed
    if (last is not None and last[0] == config and last[1].keys() == arrays.keys()
            and all(a is last[1][name] and not a.flags.writeable for name, a in arrays.items())):
        return last[2]
    weights = InferenceWeights.from_params(config, params)
    if not any(a.flags.writeable for a in arrays.values()):
        _last_packed = (config, arrays, weights)
    return weights


def _finish_block(b: Block, x: np.ndarray, q: np.ndarray, k: np.ndarray, v: np.ndarray,
                  mask: np.ndarray | None) -> np.ndarray:
    """Block b on rows x [m, d_model], given their queries q (scaled by
    1/sqrt(d_head)) and the keys k and values v they attend over, each
    [n, n_heads, positions, d_head], with keys outside `mask` (None: none)
    ignored: attention, the output projection and its residual, then the
    FFN half."""
    attended = (nn.softmax_rows(q @ k.swapaxes(-1, -2), mask) @ v).swapaxes(1, 2).reshape(x.shape)
    x = x + (attended @ b.out_w + b.out_b)
    h = np.maximum(_norm_rows(x) @ b.ffn_w1 + b.ffn_b1, 0.0)
    return x + (h @ b.ffn_w2 + b.ffn_b2)


def _survival(weights: InferenceWeights, x: np.ndarray, valid: np.ndarray) -> np.ndarray:
    """The fused heads on the last block's rows x [m, d_model]: final norm,
    head MLP, then the sigmoid of the thresholds' logits, which the packed
    output layer emits negated, times `valid` (which broadcasts to the
    result). Returns [m, 2 * max_count]: click, then pay."""
    h = np.maximum(_norm_rows(x) @ weights.head_w1 + weights.head_b1, 0.0)
    probs = valid / (1.0 + np.exp(h @ weights.head_w2 + weights.head_b2))
    if not np.isfinite(probs).all():
        raise FloatingPointError("non-finite activations in forward pass")
    return probs


def infer(weights: InferenceWeights, e_item: np.ndarray, user: np.ndarray,
          e_score: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Tape-free full forward: the click and pay survival probabilities that
    `forward` computes, as plain [n, l, max_count] arrays.

    e_item: [n, l, d_emb]; user: [n, d_user]; e_score: [n, l, 2].
    """
    config = weights.config
    n, l = e_item.shape[0], e_item.shape[1]
    _check_input(config, l, e_item, user)
    dm, heads = config.d_model, config.n_heads
    x = weights.project(e_item.reshape(n * l, -1), e_score.reshape(n * l, -1)).reshape(n, l, dm)
    x = (x + (weights.pos[:l] + (user @ weights.user)[:, None])).reshape(n * l, dm)
    causal = np.arange(l)[None, :] <= np.arange(l)[:, None]
    for b in weights.blocks:
        qkv = (_norm_rows(x) @ b.qkv_w + b.qkv_b).reshape(n, l, 3, heads, -1)
        x = _finish_block(b, x, *qkv.transpose(2, 0, 3, 1, 4), causal)
    probs = _survival(weights, x, np.tile(weights.valid[:l], (n, 1))).reshape(n, l, 2, -1)
    return probs[:, :, 0], probs[:, :, 1]


@dataclass
class Prefix:
    """A chosen prefix for one user, cached so that the next position can be
    scored without recomputing it.

    The keys and values are buffers of l_o slots, allocated once per request,
    with one row per candidate that a step can score: slots [:t] of every row
    hold the prefix's keys and values, and `extend` writes candidate k's into
    slot t of row k.
    """

    inputs: np.ndarray      # [l_o, d_model]: each position's row plus the user's row
    keys: list[np.ndarray]  # per layer [width, n_heads, l_o, d_head]
    vals: list[np.ndarray]  # per layer [width, n_heads, l_o, d_head]
    length: int = 0

    @classmethod
    def empty(cls, weights: InferenceWeights, user: np.ndarray, width: int) -> "Prefix":
        """An empty prefix whose steps score at most `width` candidates each."""
        config = weights.config
        user = np.asarray(user, dtype=np.float64)
        if user.shape != (config.d_user,):
            raise ConfigError("feature width mismatch")
        shape = (width, config.n_heads, config.l_o, config.d_model // config.n_heads)
        return cls(weights.pos + user @ weights.user,
                   [np.empty(shape) for _ in range(config.n_layers)],
                   [np.empty(shape) for _ in range(config.n_layers)])

    def __len__(self) -> int:
        return self.length


@dataclass
class Extension:
    """A prefix extended by each of n candidates: the survival row of each
    candidate's new position. Its keys and values are in the prefix's slot t."""

    click: np.ndarray  # [n, max_count]
    pay: np.ndarray

    def choose(self, prefix: Prefix, k: int) -> Prefix:
        """The prefix extended by candidate k, in place: row k's slot t is
        copied into every row. This consumes `prefix`, and the prefix that
        comes back is the same object; call it once, on the prefix that
        produced this extension, before the next `extend`."""
        t = prefix.length
        for cache in (*prefix.keys, *prefix.vals):
            cache[:, :, t] = cache[k, :, t]
        prefix.length = t + 1
        return prefix


def extend(weights: InferenceWeights, prefix: Prefix, x: np.ndarray) -> Extension:
    """Score the prefix extended by each of n candidates, computing only the
    new position. x: [n, d_model], the candidates' `InferenceWeights.project`
    rows. Writes each candidate's key and value into slot t of its row of the
    prefix's cache, and leaves slots [:t] as they are."""
    config = weights.config
    n, t = x.shape[0], len(prefix)
    if t + 1 > config.l_o:
        raise ConfigError(f"sequence length {t + 1} exceeds position table size {config.l_o}")
    if x.shape != (n, config.d_model):
        raise ConfigError("feature width mismatch")
    width = prefix.keys[0].shape[0]
    if n > width:
        raise ConfigError(f"{n} candidates exceed the prefix's width of {width}")
    heads, dh = config.n_heads, config.d_model // config.n_heads
    x = x + prefix.inputs[t]
    for b, cache_k, cache_v in zip(weights.blocks, prefix.keys, prefix.vals):
        qkv = (_norm_rows(x) @ b.qkv_w + b.qkv_b).reshape(n, 3, heads, 1, dh)
        cache_k[:n, :, t] = qkv[:, 1, :, 0]
        cache_v[:n, :, t] = qkv[:, 2, :, 0]
        # The new position sees every key, so no entry is masked.
        x = _finish_block(b, x, qkv[:, 0], cache_k[:n, :, :t + 1], cache_v[:n, :, :t + 1], None)
    probs = _survival(weights, x, weights.valid[t])
    return Extension(probs[:, :config.max_count], probs[:, config.max_count:])


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
    them records no tape; set requires_grad=True on each to fine-tune them
    (`nn.adam_init` copies them into its writable flat buffer and rebinds
    each to its view of it). Their arrays are read-only, which lets
    `packed_weights` pack them once, however many requests they serve.
    The config must pass `validate_config`, every parameter's name and shape
    is checked against `param_shapes(config)`, and its values must be finite
    numbers, so a malformed or damaged checkpoint raises ConfigError here,
    not on its first use.
    """
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:  # not UTF-8, or not JSON
        raise ConfigError(f"checkpoint is not a JSON document: {exc}") from None
    version = doc.get("format_version") if isinstance(doc, dict) else None
    if version != CKPT_FORMAT:
        raise ConfigError(f"unsupported checkpoint format {version!r}")
    try:
        config = EngineConfig.from_dict(doc["config"])
        stored_hash, stored = doc["config_hash"], dict(doc["params"])
        validate_config(config)
    except KeyError as exc:
        raise ConfigError(f"checkpoint lacks the key {exc}") from None
    except (TypeError, ValueError) as exc:  # an unknown config key, or an invalid config
        raise ConfigError(f"checkpoint: {exc}") from None
    if config_hash(config) != stored_hash:
        raise ConfigError("checkpoint config hash mismatch")
    shapes = param_shapes(config)
    missing, extra = sorted(shapes.keys() - stored.keys()), sorted(stored.keys() - shapes.keys())
    if missing or extra:
        raise ConfigError(f"checkpoint parameters do not match its config: "
                          f"missing {missing}, unexpected {extra}")
    params = {}
    for name, entry in stored.items():
        try:
            arr = np.array([float(v) for v in entry["data"]], dtype=np.float64)
            shape = tuple(entry["shape"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"checkpoint parameter {name!r}: {exc}") from None
        if shape != shapes[name] or arr.size != math.prod(shapes[name]):
            raise ConfigError(f"checkpoint parameter {name!r} has shape {list(shape)} and "
                              f"{arr.size} values, expected shape {list(shapes[name])}")
        if not np.isfinite(arr).all():
            raise ConfigError(f"checkpoint parameter {name!r} has a non-finite value")
        params[name] = Var(_frozen(arr.reshape(shapes[name])), requires_grad=False)
    return params, config

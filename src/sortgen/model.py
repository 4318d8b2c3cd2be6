"""The slate value network.

A pre-norm causal transformer over the concatenated (item, position, user,
prior-score) feature blocks, with two head MLPs emitting per-position
threshold logits for the click and pay objectives. Each sigmoid output
p[i, j] reads "probability that the cumulative action count within the first
j positions is at least i"; entries with i > j are forced to zero since a
length-j prefix cannot contain more than j actions.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, fields
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
                   user: np.ndarray, e_score: np.ndarray, ws: nn.NewArrays = nn.NEW
                   ) -> np.ndarray:
    """The input rows [item | position | user | prior score], [n, l, d_input],
    a `ws.kept` array.

    e_item: [n, l, d_emb]; user: [n, d_user]; e_score: [n, l, 2]. The
    position block is pos.table's first l rows, the same for every row.
    """
    n, l = e_item.shape[0], e_item.shape[1]
    _check_input(config, l, e_item, user)
    pos = np.broadcast_to(params["pos.table"].value[:l], (n, l, config.d_position))
    user_block = np.broadcast_to(user[:, None, :], (n, l, config.d_user))
    blocks = [e_item, pos, user_block, e_score]
    width = sum(block.shape[-1] for block in blocks)
    return np.concatenate(blocks, axis=-1, out=ws.kept((n, l, width)))


def _input_node(config: EngineConfig, params: dict, e_item: np.ndarray,
                user: np.ndarray, e_score: np.ndarray, ws: nn.NewArrays = nn.NEW) -> Var:
    """The projected input, `assemble_input`'s rows @ proj.W + proj.b, as one
    tape node over pos.table, proj.W and proj.b: [n, l, d_model]. Its arrays
    come from `ws`.

    One GEMM on the concatenated rows. Equal bit for bit, forward and
    backward, to a linear node over the concatenation of the data blocks and
    pos.table's rows, sliced, reshaped and tiled, that it replaces
    (tests/helpers.py): the position rows' gradient is the input gradient's
    position columns, summed over the batch.
    """
    table, weight, bias = params["pos.table"], params["proj.W"], params["proj.b"]
    x = assemble_input(config, params, e_item, user, e_score, ws)
    n, l, d_in = x.shape
    if d_in != weight.shape[0]:
        raise ConfigError("feature width mismatch")
    x2 = x.reshape(-1, d_in)
    w = weight.value

    def bw(g):
        g2 = g.reshape(-1, w.shape[1])
        if table.requires_grad:
            g_x = np.matmul(g2, w.T, out=ws.scratch("input.g_x", x2.shape)).reshape(x.shape)
            start = config.d_emb
            g_pos = nn._unbroadcast(g_x[..., start:start + config.d_position],
                                    (1, l, config.d_position))
            full = np.zeros_like(table.value)
            full[:l] = g_pos.reshape(l, config.d_position)
            table._accum(full)
        if weight.requires_grad:
            weight._accum(x2.T @ g2)
        bias._accum(g2.sum(axis=0))

    y = np.matmul(x2, w, out=ws.kept((n * l, w.shape[1])))
    y += bias.value
    return Var(y.reshape(n, l, w.shape[1]), (table, weight, bias), bw)


def _monotone_forward(score: np.ndarray, thresholds: Var, ws: nn.NewArrays = nn.NEW):
    """The monotone ordinal link on the shared scores [n, l, 1]: the scores
    minus strictly increasing cutpoints [max_count], the running sum of the
    first threshold and the softplus of the others. Returns the logits (a
    `ws.kept` array) and their backward: a function of the logits' gradient
    that adds the thresholds' gradient and returns the scores'.

    The cutpoints are the tape's lower-triangular matmul, not `_cutpoints`'
    cumsum, which rounds differently.
    """
    t = thresholds.value
    k = t.shape[0]
    lower = np.tri(k)
    e = np.exp(t[1:])
    softplus_in = 1.0 + e
    steps = np.concatenate([t[:1], np.log(softplus_in)])
    cut = np.matmul(lower, steps.reshape(k, 1)).reshape(k)

    def grads(g: np.ndarray) -> np.ndarray:
        g_cut = -nn._unbroadcast(g, (k,))
        g_steps = np.matmul(lower.T, g_cut.reshape(k, 1)).reshape(k)
        thresholds._accum(np.concatenate([g_steps[:1], g_steps[1:] / softplus_in * e]))
        return nn._unbroadcast(g, score.shape)

    return np.add(score, -cut, out=ws.kept(score.shape[:-1] + (k,))), grads


HEADS = ("head_click", "head_pay")


def _heads_node(config: EngineConfig, params: dict, x: Var, mask: np.ndarray,
                ws: nn.NewArrays = nn.NEW) -> tuple[Var, Var]:
    """The final layer norm and both heads as one tape node over x [n, l,
    d_model]: each head's MLP, then its cutpoints (monotone) or its literal
    logits, then the sigmoid times the 0/1 `mask` [l, max_count]. Returns
    the click and pay probabilities, each [n, l, max_count], as the node's
    two outputs (`nn.fused_outputs`). Its arrays come from `ws`.

    Equal bit for bit, forward and backward, to the layer norm, FFN,
    cutpoint, sigmoid and mul nodes that it replaces (tests/helpers.py).
    """
    gain, bias = params["final_ln.g"], params["final_ln.b"]
    h, xhat, inv = nn._layer_norm_forward(x.value, gain, bias, ws=ws)
    h2 = h.reshape(-1, h.shape[-1])
    need_h = any(v.requires_grad for v in (x, gain, bias))
    parents, probs, backs = [x, gain, bias], [], []
    for head in HEADS:
        weights = [params[f"{head}.{name}"] for name in ("W1", "b1", "W2", "b2")]
        out, ffn_grads = nn._ffn_forward(h2, *weights, ws)
        z, link_grads = out.reshape(x.shape[:-1] + (out.shape[1],)), None
        if config.head_mode == "monotone":
            weights.append(params[f"{head}.thresholds"])
            z, link_grads = _monotone_forward(z, weights[-1], ws)
        s = np.negative(z, out=ws.kept(z.shape))  # s = 1 / (1 + exp(-z))
        np.exp(s, out=s)
        s += 1.0
        np.divide(1.0, s, out=s)
        parents += weights
        probs.append(np.multiply(s, mask, out=ws.kept(s.shape)))
        backs.append((s, ffn_grads, link_grads))

    def bw(grads):
        g_h = None
        for i, ((s, ffn_grads, link_grads), g_p) in enumerate(zip(backs, grads)):
            if g_p is None:
                continue
            # the sigmoid's share: g_p * mask * s * (1 - s)
            g_z = np.multiply(g_p, mask, out=ws.scratch("heads.g_z", s.shape))
            g_z *= s
            g_z *= np.subtract(1.0, s, out=ws.scratch("heads.q", s.shape))
            g_out = g_z if link_grads is None else link_grads(g_z)
            g = ffn_grads(g_out.reshape(-1, g_out.shape[-1]), need_h,
                          ws.scratch(f"heads.g_h{i}", h2.shape))
            if g is not None:
                g_h = g if g_h is None else np.add(g_h, g, out=g_h)
        if g_h is not None:
            g_x = nn._layer_norm_grads(g_h.reshape(x.shape), xhat, inv, gain, bias,
                                       x.requires_grad, ws)
            if g_x is not None:
                x._accum(g_x)

    return nn.fused_outputs(probs, parents, bw)


def valid_mask(l: int, max_count: int) -> np.ndarray:
    """True where threshold index i (1-based) <= prefix length j (1-based)."""
    return np.arange(1, max_count + 1)[None, :] <= np.arange(1, l + 1)[:, None]


def forward(config: EngineConfig, params: dict, e_item: np.ndarray,
            user: np.ndarray, e_score: np.ndarray,
            workspace: nn.Workspace | None = None) -> ModelOutput:
    """Full forward pass for a batch of (sub-)lists of common length l: the
    input node, two nodes per block and the heads node.

    Without a workspace every array is new. With one, the forward starts a
    training step that reuses the workspace's arrays (`nn.Workspace`), so
    the previous step's tape must be dead.
    """
    ws = nn.NEW if workspace is None else workspace
    ws.begin_step()
    x = _input_node(config, params, e_item, user, e_score, ws)
    for i in range(config.n_layers):
        pre = f"layer{i}"
        x = nn.attention_block(x, *(params[f"{pre}.{name}"] for name in (
            "ln1.g", "ln1.b", "attn.Wq", "attn.Wk", "attn.Wv", "attn.Wo",
            "attn.bq", "attn.bk", "attn.bv", "attn.bo")), config.n_heads, ws)
        x = nn.ffn_block(x, *(params[f"{pre}.{name}"] for name in (
            "ln2.g", "ln2.b", "ffn.W1", "ffn.b1", "ffn.W2", "ffn.b2")), ws)
    mask = valid_mask(e_item.shape[1], config.max_count)
    click, pay = _heads_node(config, params, x, mask.astype(np.float64), ws)
    for out in (click, pay):
        if not np.isfinite(out.value).all():
            raise FloatingPointError("non-finite activations in forward pass")
    return ModelOutput(click, pay, mask)


class ItemFeatures(NamedTuple):
    """A sequence of items packed into arrays, one row per item."""

    ids: np.ndarray    # [n] int64
    emb: np.ndarray    # [n, d_emb]
    score: np.ndarray  # [n, 2]: (prior_ctr, prior_cvr)
    price: np.ndarray  # [n]
    cat: np.ndarray    # [n] int64


def pack_items(rows, d_emb: int) -> ItemFeatures:
    """The item rows `rows`, each (id, emb, (ctr, cvr), price, cat) as
    `core.read_item` gives them, packed into one ItemFeatures; no rows pack
    into empty columns with d_emb embedding columns."""
    ids, emb, score, price, cat = zip(*rows) if rows else ((),) * 5
    return ItemFeatures(np.array(ids, dtype=np.int64),
                        np.array(emb, dtype=np.float64).reshape(len(ids), d_emb),
                        np.array(score, dtype=np.float64).reshape(len(ids), 2),
                        np.array(price, dtype=np.float64),
                        np.array(cat, dtype=np.int64))


def item_features(items) -> ItemFeatures:
    """Pack a sequence of items in one pass; the only place that reads Item
    fields into arrays."""
    if not len(items):
        raise ConfigError("empty candidate pool")
    return pack_items([(it.id, it.embedding, (it.prior_ctr, it.prior_cvr), it.price, it.category)
                       for it in items], len(items[0].embedding))


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
# drop their centring: each is `_norm_rows`, x / sqrt(sum(x^2) + d * nn.LN_EPS),
# which is 1/sqrt(d) times the layer norm's rows, and that sqrt(d) is folded
# into its gain. So a block's halves start from `_norm_rows`, and the heads
# end in valid / (1 + exp(h @ W2 + b2)). `infer` is the full causal forward
# over whole sequences. `extend` is the greedy step: it computes only new
# positions, a tree of rows that extend the chosen prefix (each queue head at
# position t and, under each, the heads that follow it at t + 1), and attends
# over the prefix's keys and values, which a `Prefix` caches in one buffer
# for every layer, filled in place (KV caching), so no step copies the cache.
# Every tree row writes its key and value to its own slot after the prefix,
# and an additive 0/-inf mask lets each row see the prefix, its parent and
# itself (tree attention), so each row is scored as the last position of its
# own path. `infer` uses the same attention with a causal mask. The two
# share the block and head code and differ only in where attention's keys
# and values come from and in their masks; the model is causal and
# everything but attention is per position, so `extend` equals `infer` over
# each row's path. At serving sizes a step costs what its NumPy calls cost,
# not what its arithmetic does (a 12-row tree costs about 1.35 times a 3-row
# step), so the shared code makes few calls: biases, residuals and
# activations are added or applied in place to the array the GEMM before
# them made, a tree's mask is memoised, and attention makes no reduction.
# Its softmax needs a shift only to keep exp in range, and a fixed one per
# head does (softmax is shift-invariant): a normed row has norm < 1, so
# |q . k| < B_h, the product of a bound on the spectral norm plus the bias
# norm of head h's packed Q columns and of its K columns. The bound comes
# from matrix products (`_spectral_bound`), not an SVD, so packing loads no
# LAPACK routine. The QKV GEMM writes one more column per head in each of Q,
# K and V, with zero weights and biases -B_h, 1 and 1, so q . k comes out
# shifted into (-2 B_h, 0], and the last column of exp(scores) @ v is the
# softmax's row sum, which attention divides by. Packing refuses a head with
# B_h >= SHIFT_LIMIT.


def _cutpoints(thresholds: np.ndarray) -> np.ndarray:
    """A monotone head's strictly increasing cutpoints, [max_count]."""
    return np.cumsum(np.concatenate([thresholds[:1], np.log(1.0 + np.exp(thresholds[1:]))]))


def _centred(a: np.ndarray) -> np.ndarray:
    """a with each row's mean taken out: a @ (I - 11^T / d) for a residual
    writer a [..., d_model], so that what it writes has zero mean."""
    return a - a.mean(axis=-1, keepdims=True)


def _norm_rows(x: np.ndarray) -> np.ndarray:
    """Zero-mean rows x [m, d] scaled to x / sqrt(sum(x^2) + d * nn.LN_EPS):
    the layer norm's `nn.normalize_rows(x)[0]` divided by sqrt(d), without
    its centring."""
    s = np.add.reduce(x * x, axis=-1, keepdims=True, initial=x.shape[-1] * nn.LN_EPS)
    return x / np.sqrt(s, out=s)


def _fold_norm(g: np.ndarray, b: np.ndarray, w: np.ndarray,
               c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The GEMM (g * xhat + b) @ w + c after a layer norm as xhat @ w' + c':
    (g[:, None] * w, b @ w + c). Pass g * sqrt(d_model) to read xhat from
    `_norm_rows`."""
    return g[:, None] * w, b @ w + c


# The largest attention-logit bound B_h that packing accepts: exp(-2 B_h),
# the smallest shifted exp, stays a normal double (the least is ~e^-708), and
# every row sees its own key, so no row sum underflows.
SHIFT_LIMIT = 350.0


class Block(NamedTuple):
    """One transformer block's weights, with Q, K and V in one GEMM that
    also writes each head's softmax shift and row-sum column
    (`_softmax_columns`), each layer norm folded into the GEMM after it, and
    the residual writers centred."""

    # [d_model, 3 * n_heads * (d_head + 1)]: ln1 folded into Wq / sqrt(d_head)
    # | Wk | Wv, each head's d_head columns then its zero extra column
    qkv_w: np.ndarray
    qkv_b: np.ndarray  # [3 * n_heads * (d_head + 1)]: extra columns -B_h (Q), 1 (K, V)
    out_w: np.ndarray   # attn.Wo, centred
    out_b: np.ndarray   # attn.bo, centred
    ffn_w1: np.ndarray  # ln2 folded into ffn.W1
    ffn_b1: np.ndarray
    ffn_w2: np.ndarray  # ffn.W2, centred
    ffn_b2: np.ndarray  # ffn.b2, centred


def _spectral_bound(a: np.ndarray) -> float:
    """An upper bound on the spectral norm of `a` [m, n] from matrix products
    alone: f * |G^8|_F^(1/16), with f = |a|_F and G = (a/f)^T (a/f), which
    is at most n^(1/32) times the norm. G's eigenvalues are sigma_i^2 / f^2,
    in [0, 1] and the largest at least 1/n, so its squarings neither
    overflow nor underflow. 0 for a zero block, and nan, which packing
    refuses, for one whose |a|_F overflows."""
    f = np.linalg.norm(a)
    if f == 0.0:
        return 0.0
    g = a / f
    g = g.T @ g
    for _ in range(3):
        g = g @ g
    return f * np.linalg.norm(g) ** (1 / 16)


def _softmax_columns(qkv_w: np.ndarray, qkv_b: np.ndarray, heads: int,
                     layer: int) -> tuple[np.ndarray, np.ndarray]:
    """The folded QKV GEMM `qkv_w` [d_model, 3 * d_model], `qkv_b` with one
    extra column after each head's d_head columns in each of Q, K and V: its
    weights 0, its bias -B_h in Q and 1 in K and V. B_h bounds head h's
    |q . k| over normed rows (norm < 1): (s(Wq_h) + |bq_h|)(s(Wk_h) + |bk_h|),
    with s the `_spectral_bound` of the head's columns. A ConfigError naming
    the layer and head if B_h >= SHIFT_LIMIT."""
    d = qkv_w.shape[0]
    w, b = qkv_w.reshape(d, 3, heads, -1), qkv_b.reshape(3, heads, -1)
    reach = [[_spectral_bound(w[:, j, h]) + np.linalg.norm(b[j, h]) for h in range(heads)]
             for j in (0, 1)]
    bound = np.multiply(*reach)
    for h, b_h in enumerate(bound.tolist()):
        if not b_h < SHIFT_LIMIT:
            raise ConfigError(f"layer {layer} head {h}: attention logit bound {b_h:.6g} "
                              f"is not below {SHIFT_LIMIT:g}, so its softmax could underflow")
    extra = np.stack([-bound, np.ones(heads), np.ones(heads)])[..., None]
    return (np.concatenate([w, np.zeros((d, 3, heads, 1))], axis=-1).reshape(d, -1),
            np.concatenate([b, extra], axis=-1).reshape(-1))


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
    derive them again from the trained parameters. A ConfigError if a head's
    attention-logit bound reaches SHIFT_LIMIT (`_softmax_columns`).
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
                *_softmax_columns(*_fold_norm(w(f"layer{i}.ln1.g") * root_d,
                                              w(f"layer{i}.ln1.b"), qkv_w, qkv_b),
                                  config.n_heads, i),
                _centred(w(f"{a}.Wo")), _centred(w(f"{a}.bo")),
                *_fold_norm(w(f"layer{i}.ln2.g") * root_d, w(f"layer{i}.ln2.b"), w(f"{f}.W1"),
                            w(f"{f}.b1")),
                _centred(w(f"{f}.W2")), _centred(w(f"{f}.b2"))))
        heads, lmax = HEADS, config.max_count
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


# The last packing of immutable parameters: (config, {name: array}, weights).
# It lives here because callers such as `server.rerank` pass only the
# parameter dict. The entry is replaced whole, so a thread reads a consistent
# one; two threads that miss at once both pack, and either packing is right.
_last_packed: tuple[EngineConfig, dict, InferenceWeights] | None = None


def _immutable(a: np.ndarray) -> bool:
    """Whether `a` views a `bytes` buffer, as `load_checkpoint`'s arrays do:
    NumPy refuses to make such an array writable, so its values never change."""
    while isinstance(a.base, np.ndarray):
        a = a.base
    return isinstance(a.base, bytes)


def packed_weights(config: EngineConfig, params: dict) -> InferenceWeights:
    """`InferenceWeights.from_params(config, params)`, packed once per loaded
    checkpoint: the last packing is reused while the config is equal and every
    parameter array is the same object as then, and it is kept only when
    every array is immutable, as `load_checkpoint`'s are. Any other array
    (`init_params`, training, one a caller froze) may be written between two
    calls, so such parameters are packed afresh on every call."""
    global _last_packed
    arrays = {name: p.value for name, p in params.items()}
    last = _last_packed
    if (last is not None and last[0] == config and last[1].keys() == arrays.keys()
            and all(a is last[1][name] for name, a in arrays.items())):
        return last[2]
    weights = InferenceWeights.from_params(config, params)
    if all(map(_immutable, arrays.values())):
        _last_packed = (config, arrays, weights)
    return weights


def _finish_block(b: Block, x: np.ndarray, q: np.ndarray, k: np.ndarray, v: np.ndarray,
                  mask: np.ndarray) -> np.ndarray:
    """Block b on rows x [m, d_model], given their queries q (scaled by
    1/sqrt(d_head)), the keys k and values v they attend over, each [...,
    n_heads, rows, d_head + 1] with the packed extra column (`Block`), and
    the additive attention mask `mask` (0 where a query sees a key, -inf
    where it does not), which broadcasts to the scores q @ k^T: attention,
    the output projection and its residual, then the FFN half. The scores
    come out of the GEMM already shifted, and the softmax is normalised
    after its product with v, by that product's last column; a masked key's
    exp is 0, and every query sees at least itself. Every step after the
    first GEMM but the divide works in place on the array it makes. (Dividing
    straight into the [m, d_model] rows that the output projection reads
    saves the reshape's copy but costs more calls than it saves.)"""
    e = q @ k.swapaxes(-1, -2)
    e += mask
    np.exp(e, out=e)
    summed = e @ v  # its last column: each row's sum of exp
    y = (summed[..., :-1] / summed[..., -1:]).swapaxes(-3, -2).reshape(x.shape) @ b.out_w
    y += b.out_b
    y += x
    h = _norm_rows(y) @ b.ffn_w1
    h += b.ffn_b1
    np.maximum(h, 0.0, out=h)
    out = h @ b.ffn_w2
    out += b.ffn_b2
    out += y
    return out


def _survival(weights: InferenceWeights, x: np.ndarray, valid: np.ndarray) -> np.ndarray:
    """The fused heads on the last block's rows x [m, d_model]: final norm,
    head MLP, then the sigmoid of the thresholds' logits, which the packed
    output layer emits negated, times `valid` (which broadcasts to the
    result). Returns [m, 2 * max_count]: click, then pay."""
    h = _norm_rows(x) @ weights.head_w1
    h += weights.head_b1
    np.maximum(h, 0.0, out=h)
    z = h @ weights.head_w2
    z += weights.head_b2
    np.exp(z, out=z)
    z += 1.0
    probs = np.divide(valid, z, out=z)
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
    causal = np.where(np.tri(l, dtype=bool), 0.0, -np.inf)
    for b in weights.blocks:
        qkv = (_norm_rows(x) @ b.qkv_w + b.qkv_b).reshape(n, l, 3, heads, -1)
        x = _finish_block(b, x, *qkv.transpose(2, 0, 3, 1, 4), causal)
    probs = _survival(weights, x, np.tile(weights.valid[:l], (n, 1))).reshape(n, l, 2, -1)
    return probs[:, :, 0], probs[:, :, 1]


@dataclass
class Prefix:
    """A chosen prefix for one user, cached so that the next positions can be
    scored without recomputing it.

    The keys and values are one buffer, allocated once per request and shared
    by every row a step scores: slots [:t] hold the prefix's keys and values,
    and `extend` writes row r's into slot t + r. `choose` copies a scored
    row's slot to the end of the prefix.
    """

    inputs: np.ndarray  # [l_o, d_model]: each position's row plus the user's row
    # [n_layers, 2 (key, value), n_heads, l_o + width, d_head + 1]: the
    # packed extra column (`Block`) too
    kv: np.ndarray
    length: int = 0
    base: int = 0       # the prefix's length at the last `extend`: its row 0's slot
    parents: tuple[int, ...] = ()  # the last `extend`'s parents
    chosen: int = -1    # the row of the last `extend` chosen last, -1 for none

    @classmethod
    def empty(cls, weights: InferenceWeights, user: np.ndarray, width: int) -> "Prefix":
        """An empty prefix whose steps score at most `width` rows each."""
        config = weights.config
        user = np.asarray(user, dtype=np.float64)
        if user.shape != (config.d_user,):
            raise ConfigError("feature width mismatch")
        return cls(weights.pos + user @ weights.user,
                   np.empty((config.n_layers, 2, config.n_heads, config.l_o + width,
                             config.d_model // config.n_heads + 1)))

    def __len__(self) -> int:
        return self.length

    def choose(self, r: int) -> None:
        """Extend the prefix by row r of the last `extend`, in place: its slot
        is copied to the end of the prefix, in every layer. Choose a root
        row, then, while the tree has them, one of its children."""
        if not 0 <= r < len(self.parents) or self.parents[r] != self.chosen:
            raise ConfigError(f"row {r} of the last extend does not follow the prefix")
        self.kv[:, :, :, self.length] = self.kv[:, :, :, self.base + r]
        self.length += 1
        self.chosen = r


@functools.lru_cache(maxsize=256)
def _tree_mask(t: int, parents: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray, int]:
    """For a tree of rows after a prefix of length t (`extend`'s), the
    additive attention mask [m, t + m], 0 where a row sees a key and -inf
    where it does not, each row's position [m], and the sequence length the
    tree reaches; memoised, so the arrays are read-only. A ConfigError if a
    parent is neither -1 nor an earlier root."""
    parents = np.array(parents, dtype=np.int64)
    rows = np.arange(len(parents))
    child = parents >= 0
    if (parents.ndim != 1 or (parents < -1).any() or (parents >= rows).any()
            or (parents[parents[child]] >= 0).any()):
        raise ConfigError("a row's parent must be -1 or an earlier root row")
    mask = np.zeros((len(rows), t + len(rows)))
    mask[:, t:] = np.where((rows[:, None] == rows) | (parents[:, None] == rows), 0.0, -np.inf)
    position = t + child
    mask.flags.writeable = position.flags.writeable = False
    return mask, position, t + 1 + int(child.any())


def extend(weights: InferenceWeights, prefix: Prefix, x: np.ndarray,
           parents=None) -> tuple[np.ndarray, np.ndarray]:
    """Score a tree of rows that extend the prefix, computing only their new
    positions: each row's click and pay survival rows, each [m, max_count].

    x: [m, d_model], the rows' `InferenceWeights.project` rows. parents: [m]
    ints (None: all -1). A root row (-1) is at position t, the prefix's
    length; any other row is at position t + 1 and follows the earlier root
    row it names. Every row attends over the prefix, its parent and itself,
    so each is scored as the last row of its own path. Writes row r's key and
    value into slot t + r of the prefix's buffer, one assignment per layer,
    and leaves slots [:t] as they are.
    """
    config = weights.config
    m, t = x.shape[0], len(prefix)
    if x.shape != (m, config.d_model):
        raise ConfigError("feature width mismatch")
    width = prefix.kv.shape[3] - config.l_o
    if not 0 < m <= width:
        raise ConfigError(f"{m} rows, outside 1 to the prefix's width of {width}")
    parents = (-1,) * m if parents is None else tuple(parents)
    if len(parents) != m:
        raise ConfigError(f"{len(parents)} parents for {m} rows")
    mask, position, end = _tree_mask(t, parents)
    if end > config.l_o:
        raise ConfigError(f"sequence length {end} exceeds position table size {config.l_o}")
    x = x + prefix.inputs[position]
    for b, kv in zip(weights.blocks, prefix.kv):
        qkv = _norm_rows(x) @ b.qkv_w
        qkv += b.qkv_b
        # [3, n_heads, m, d_head + 1]
        qkv = qkv.reshape(m, 3, config.n_heads, -1).transpose(1, 2, 0, 3)
        kv[:, :, t:t + m] = qkv[1:]
        x = _finish_block(b, x, qkv[0], kv[0, :, :t + m], kv[1, :, :t + m], mask)
    probs = _survival(weights, x, weights.valid[position])
    prefix.base, prefix.parents, prefix.chosen = t, parents, -1
    return probs[:, :config.max_count], probs[:, config.max_count:]


# ------------------------------ checkpoints --------------------------------


def save_checkpoint(path: str | Path, params: dict, config: EngineConfig) -> None:
    doc = {
        "format_version": CKPT_FORMAT,
        "config_hash": config_hash(config),
        "config": to_dict(config),
        "params": {
            name: {"shape": list(p.value.shape), "data": list(map(repr, p.value.ravel().tolist()))}
            for name, p in params.items()
        },
    }
    Path(path).write_text(json.dumps(doc, sort_keys=True), encoding="utf-8")


def load_checkpoint(path: str | Path) -> tuple[dict[str, Var], EngineConfig]:
    """Parameters and config from a checkpoint file.

    The parameters come back frozen (requires_grad=False), so a forward over
    them records no tape; set requires_grad=True on each to fine-tune them
    (`nn.adam_init` copies them into its writable flat buffer and rebinds
    each to its view of it). Their arrays view immutable `bytes`, so no one
    can make them writable again, which lets `packed_weights` pack them
    once, however many requests they serve.
    The config checks itself as `EngineConfig.from_dict` builds it (a fault
    reads "checkpoint: <rule>"), every parameter's name and shape is checked
    against `param_shapes(config)`, and its values must be finite numbers, so
    a malformed or damaged checkpoint raises ConfigError here, not on its
    first use.
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
            arr = np.array(list(map(float, entry["data"])), dtype=np.float64)
            shape = tuple(entry["shape"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"checkpoint parameter {name!r}: {exc}") from None
        if shape != shapes[name] or arr.size != math.prod(shapes[name]):
            raise ConfigError(f"checkpoint parameter {name!r} has shape {list(shape)} and "
                              f"{arr.size} values, expected shape {list(shapes[name])}")
        if not np.isfinite(arr).all():
            raise ConfigError(f"checkpoint parameter {name!r} has a non-finite value")
        params[name] = Var(np.frombuffer(arr.tobytes()).reshape(shapes[name]),
                           requires_grad=False)
    return params, config

"""Minimal dense-tensor kernel: reverse-mode autodiff over float64 numpy arrays.

Covers exactly the operations the model's tape needs, plus Adam: each half
of a pre-norm transformer block (layer norm, then causal multi-head
attention or the feed-forward block, then the residual) as one tape node,
the layer norm and feed-forward pieces that the model's input and heads
nodes reuse, `fused_outputs` for a node with several outputs, and the
primitives the pointwise loss is built from. Each fused node equals the
unfused tape it replaced bit for bit, forward and backward. Adam keeps every
parameter in one flat buffer, whose views the parameters' arrays become,
and updates it in place. No GPU, no mixed precision. tests/helpers.py holds
the test-only ops: the references for the fused nodes (the one-node
attention, linear, layer norm and FFN, and the primitive compositions with
concat, reshape, tile_to, slice_axis0, matmul, exp, masked_softmax and
relu), the per-array Adam, a finite-difference gradient check and a
parameter count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


class Var:
    """A node in the tape: a float64 array, its gradient, and a backward rule.

    A leaf requires grad unless built with ``requires_grad=False``. An op's
    output requires grad when any parent does, and only then keeps its
    parents and backward rule, so a forward over constants records no tape.
    """

    __slots__ = ("value", "grad", "requires_grad", "_parents", "_bw")

    def __init__(self, value, parents=(), bw=None, requires_grad: bool = True):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad: np.ndarray | None = None
        if parents:
            requires_grad = any(p.requires_grad for p in parents)
        self.requires_grad = requires_grad
        self._parents = parents if requires_grad else ()
        self._bw = bw if requires_grad else None

    @property
    def shape(self):
        return self.value.shape

    def _accum(self, g: np.ndarray) -> None:
        """Add g to .grad. The first gradient is stored as is, with no copy;
        it may be shared with another node (add hands one array to both
        parents, reshape hands a view), so a later one is added
        into a new array, never in place."""
        if not self.requires_grad:
            return
        self.grad = g if self.grad is None else self.grad + g

    def __repr__(self):
        return f"Var(shape={self.value.shape})"


def as_var(x) -> Var:
    """Wrap a raw array as a constant; a Var passes through."""
    return x if isinstance(x, Var) else Var(x, requires_grad=False)


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to `shape`."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, extent in enumerate(shape):
        if extent == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g.reshape(shape)


# ----------------------------- primitives ---------------------------------


def add(a, b) -> Var:
    a, b = as_var(a), as_var(b)

    def bw(g):
        a._accum(_unbroadcast(g, a.shape))
        b._accum(_unbroadcast(g, b.shape))

    return Var(a.value + b.value, (a, b), bw)


def neg(a) -> Var:
    a = as_var(a)
    return Var(-a.value, (a,), lambda g: a._accum(-g))


def sub(a, b) -> Var:
    return add(a, neg(b))


def mul(a, b) -> Var:
    a, b = as_var(a), as_var(b)

    def bw(g):
        a._accum(_unbroadcast(g * b.value, a.shape))
        b._accum(_unbroadcast(g * a.value, b.shape))

    return Var(a.value * b.value, (a, b), bw)


def sigmoid(a) -> Var:
    a = as_var(a)
    s = 1.0 / (1.0 + np.exp(-a.value))
    return Var(s, (a,), lambda g: a._accum(g * s * (1.0 - s)))


def log(a) -> Var:
    a = as_var(a)
    return Var(np.log(a.value), (a,), lambda g: a._accum(g / a.value))


def clip(a, lo: float, hi: float) -> Var:
    """Clamp with pass-through gradient strictly inside (lo, hi)."""
    a = as_var(a)
    inside = (a.value > lo) & (a.value < hi)
    return Var(np.clip(a.value, lo, hi), (a,), lambda g: a._accum(g * inside))


def sum_(a, axis=None, keepdims: bool = False) -> Var:
    a = as_var(a)

    def bw(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        a._accum(np.broadcast_to(g, a.shape).copy())

    return Var(a.value.sum(axis=axis, keepdims=keepdims), (a,), bw)


def index_last(a, i: int) -> Var:
    """Select one index along the last axis (keeps remaining axes)."""
    a = as_var(a)

    def bw(g):
        full = np.zeros_like(a.value)
        full[..., i] = g
        a._accum(full)

    return Var(a.value[..., i], (a,), bw)


def softmax_rows(logits: np.ndarray, mask: np.ndarray | None) -> np.ndarray:
    """Softmax over the last axis of a raw array; entries outside `mask`
    (None: no entry) get 0.

    Masked entries are exponentiated as exp(0) and then zeroed, not as
    exp(-inf), which is several times slower; the bits are the same.
    """
    if mask is None:
        e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    else:
        z = logits - np.where(mask, logits, -np.inf).max(axis=-1, keepdims=True)
        e = np.exp(np.where(mask, z, 0.0)) * mask
    return e / e.sum(axis=-1, keepdims=True)


def normalize_rows(x: np.ndarray, eps: float = 1e-5) -> tuple[np.ndarray, np.ndarray]:
    """Zero-mean, unit-variance rows of a raw array, and the inverse std.

    Equal to (x - x.mean) / sqrt(x.var + eps) bit for bit, in fewer calls.
    """
    d = x.shape[-1]
    centred = x - np.add.reduce(x, axis=-1, keepdims=True) / d
    inv = 1.0 / np.sqrt(np.add.reduce(centred * centred, axis=-1, keepdims=True) / d + eps)
    return centred * inv, inv


def _layer_norm_forward(x: np.ndarray, gain: Var, bias: Var, eps: float = 1e-5):
    """gain * xhat + bias over the last axis of x, with xhat and the inverse
    std that `_layer_norm_grads` needs."""
    if x.shape[-1] < 2:
        raise ValueError("layer_norm needs a feature axis of at least 2")
    xhat, inv = normalize_rows(x, eps)
    return gain.value * xhat + bias.value, xhat, inv


def _layer_norm_grads(g: np.ndarray, xhat: np.ndarray, inv: np.ndarray, gain: Var,
                      bias: Var, need_x: bool) -> np.ndarray | None:
    """The layer norm's backward: adds the gain and bias gradients, and
    returns the input's (None unless need_x)."""
    sum_axes = tuple(range(g.ndim - 1))
    gain._accum((g * xhat).sum(axis=sum_axes))
    bias._accum(g.sum(axis=sum_axes))
    if not need_x:
        return None
    d = g.shape[-1]
    gx = g * gain.value
    gx_mean = np.add.reduce(gx, axis=-1, keepdims=True) / d
    gx_xhat_mean = np.add.reduce(gx * xhat, axis=-1, keepdims=True) / d
    return inv * (gx - gx_mean - xhat * gx_xhat_mean)


def attention_block(x, gain, bias, wq, wk, wv, wo, bq, bk, bv, bo, n_heads: int) -> Var:
    """x + attention(layer_norm(x)): a pre-norm block's first half, causal
    multi-head self-attention over x [n, l, d] with its layer norm and
    residual, as one tape node.

    Equal bit for bit, forward and backward, to add(x, attention(layer_norm(
    x))) over the one-node attention in tests/helpers.py, which in turn
    matches the composition of linear, reshape, transpose, matmul and a
    masked softmax up to rounding. One QKV GEMM on [Wq|Wk|Wv] (concatenated
    per call, so the parameters stay separate), and a hand-derived backward
    that splits the weight gradient back into Wq, Wk and Wv.
    """
    x, gain, bias, wq, wk, wv, wo, bq, bk, bv, bo = (
        as_var(v) for v in (x, gain, bias, wq, wk, wv, wo, bq, bk, bv, bo))
    n, l, d = x.value.shape
    dh = d // n_heads
    scale = 1.0 / math.sqrt(dh)
    h, xhat, inv = _layer_norm_forward(x.value, gain, bias)
    h2 = h.reshape(-1, d)
    w_qkv = np.concatenate([wq.value, wk.value, wv.value], axis=1)
    qkv = h2 @ w_qkv + np.concatenate([bq.value, bk.value, bv.value])
    # [n*l, 3d] -> [3, n, heads, l, dh]
    q, k, v = qkv.reshape(n, l, 3, n_heads, dh).transpose(2, 0, 3, 1, 4)
    att = softmax_rows((q @ k.transpose(0, 1, 3, 2)) * scale, np.tri(l, dtype=bool))
    ctx = (att @ v).transpose(0, 2, 1, 3).reshape(-1, d)
    w_o = wo.value

    def bw(g):
        g2 = g.reshape(-1, d)
        wo._accum(ctx.T @ g2)
        bo._accum(g2.sum(axis=0))
        g_ctx = (g2 @ w_o.T).reshape(n, l, n_heads, dh).transpose(0, 2, 1, 3)
        g_att = g_ctx @ v.transpose(0, 1, 3, 2)
        g_scores = att * (g_att - (g_att * att).sum(axis=-1, keepdims=True)) * scale
        g_qkv = np.stack([g_scores @ k, g_scores.transpose(0, 1, 3, 2) @ q,
                          att.transpose(0, 1, 3, 2) @ g_ctx])
        g_qkv = g_qkv.transpose(1, 3, 0, 2, 4).reshape(-1, 3 * d)
        g_w = h2.T @ g_qkv
        g_b = g_qkv.sum(axis=0)
        for i, (w, b) in enumerate(((wq, bq), (wk, bk), (wv, bv))):
            w._accum(g_w[:, i * d:(i + 1) * d])
            b._accum(g_b[i * d:(i + 1) * d])
        g_h = (g_qkv @ w_qkv.T).reshape(x.shape)
        g_x = _layer_norm_grads(g_h, xhat, inv, gain, bias, x.requires_grad)
        x._accum(g if g_x is None else g + g_x)  # the residual, plus the norm's path

    y = ctx @ w_o + bo.value
    return Var(x.value + y.reshape(n, l, d), (x, gain, bias, wq, wk, wv, wo, bq, bk, bv, bo), bw)


def _ffn_forward(x2: np.ndarray, w1: Var, b1: Var, w2: Var, b2: Var):
    """relu(x2 W1 + b1) W2 + b2 on rows x2 [m, d_in], and its backward: a
    function of the output's gradient [m, d_out] that adds the weight
    gradients and returns x2's (None unless asked for)."""
    h = x2 @ w1.value + b1.value
    np.maximum(h, 0.0, out=h)
    w_1, w_2 = w1.value, w2.value

    def grads(g2: np.ndarray, need_x: bool) -> np.ndarray | None:
        w2._accum(h.T @ g2)
        b2._accum(g2.sum(axis=0))
        g_h = g2 @ w_2.T
        g_h *= h > 0.0
        w1._accum(x2.T @ g_h)
        b1._accum(g_h.sum(axis=0))
        return g_h @ w_1.T if need_x else None

    return h @ w_2 + b2.value, grads


def ffn_block(x, gain, bias, w1, b1, w2, b2) -> Var:
    """x + ffn(layer_norm(x)): a pre-norm block's second half, as one tape
    node; equal bit for bit, forward and backward, to add(x, ffn(layer_norm(
    x))) over the one-node layer norm and FFN in tests/helpers.py."""
    x, gain, bias, w1, b1, w2, b2 = (as_var(v) for v in (x, gain, bias, w1, b1, w2, b2))
    d = x.value.shape[-1]
    h, xhat, inv = _layer_norm_forward(x.value, gain, bias)
    y, grads = _ffn_forward(h.reshape(-1, d), w1, b1, w2, b2)

    def bw(g):
        g_h = grads(g.reshape(-1, d), True).reshape(x.shape)
        g_x = _layer_norm_grads(g_h, xhat, inv, gain, bias, x.requires_grad)
        x._accum(g if g_x is None else g + g_x)  # the residual, plus the norm's path

    return Var(x.value + y.reshape(x.shape), (x, gain, bias, w1, b1, w2, b2), bw)


def fused_outputs(values, parents, bw) -> tuple[Var, ...]:
    """One tape node with several outputs, a Var each, over `parents`.

    `bw` runs once per backward, after every output's own gradient is in,
    and gets the list of them: None for an output that received none, so
    that it can skip that output's share of the work.
    """
    grads = [None] * len(values)
    node = Var(np.zeros(0), tuple(parents), lambda _: bw(grads))

    def output(i: int) -> Var:
        def out_bw(g):
            grads[i] = g
            node._accum(node.value)  # any gradient, so that `backward` calls bw

        return Var(values[i], (node,), out_bw)

    return tuple(output(i) for i in range(len(values)))


def backward(loss: Var) -> None:
    """Accumulate d(loss)/d(node) into .grad for every reachable node."""
    if loss.value.size != 1:
        raise ValueError("backward requires a scalar loss")
    if not loss.requires_grad:
        raise ValueError("backward on a loss that does not require grad: "
                         "no parameter it depends on has requires_grad=True")
    if not np.isfinite(loss.value).all():
        raise FloatingPointError("non-finite loss")
    topo: list[Var] = []
    seen: set[int] = set()
    stack = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            stack.append((p, False))
    loss._accum(np.ones_like(loss.value))
    for node in reversed(topo):
        if node._bw is not None and node.grad is not None:
            node._bw(node.grad)


# ----------------------------- parameters ---------------------------------

ParamStore = dict  # name -> Var; Var.grad is the matching accumulator


def zero_grads(params: ParamStore) -> None:
    for p in params.values():
        p.grad = None


@dataclass
class AdamState:
    """Adam's hyper-parameters, step count and moments, over one flat buffer.

    `adam_init` copies every parameter into `values` and rebinds each
    `Var.value` to its view of it, so an update is a few vector operations
    on whole buffers, in place. `grads` holds the last step's gradients.
    """

    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    values: np.ndarray | None = None  # every parameter, flat
    grads: np.ndarray | None = None   # their gradients at the last step, flat
    m: np.ndarray | None = None
    v: np.ndarray | None = None
    views: dict = field(default_factory=dict)  # name -> (its value view, its grads view)


def flat_views(params: ParamStore, flat: np.ndarray) -> dict[str, np.ndarray]:
    """Each parameter's view of `flat` in `adam_init`'s layout: the
    parameters one after another, in the order of `params`."""
    views, offset = {}, 0
    for name, p in params.items():
        size = p.value.size
        views[name] = flat[offset:offset + size].reshape(p.value.shape)
        offset += size
    return views


def adam_init(params: ParamStore, lr: float = 1e-3, beta1: float = 0.9,
              beta2: float = 0.999, eps: float = 1e-8) -> AdamState:
    """Adam state over `params`, whose arrays become views of its flat buffer:
    write a parameter in place from now on, never replace its array."""
    total = sum(p.value.size for p in params.values())
    state = AdamState(lr=lr, beta1=beta1, beta2=beta2, eps=eps, values=np.empty(total),
                      grads=np.zeros(total), m=np.zeros(total), v=np.zeros(total))
    grads = flat_views(params, state.grads)
    for name, value in flat_views(params, state.values).items():
        value[...] = params[name].value
        params[name].value = value
        state.views[name] = (value, grads[name])
    return state


def adam_step(params: ParamStore, state: AdamState) -> None:
    """One bias-corrected Adam update, in place; gradients are zeroed
    afterwards. A parameter without a gradient counts as a zero gradient.

    Each value is computed as p - (lr * mhat) / (sqrt(vhat) + eps) with
    m = beta1 * m + (1 - beta1) * g and v = beta2 * v + ((1 - beta2) * g) * g,
    operation for operation, so the update is the same as on separate arrays.
    """
    if state.m is None:
        raise ValueError("adam_step on uninitialized state")
    if params.keys() != state.views.keys():
        raise ValueError("adam_step: the parameters differ from those adam_init was given")
    for name, p in params.items():
        value, grad = state.views[name]
        if p.value is not value:
            raise ValueError(f"adam_step: parameter {name!r} was replaced after adam_init")
        if p.grad is None:
            grad.fill(0.0)
        else:
            grad[...] = p.grad
    state.step += 1
    t = state.step
    g, m, v = state.grads, state.m, state.v
    m *= state.beta1
    m += (1 - state.beta1) * g
    v *= state.beta2
    gg = (1 - state.beta2) * g
    gg *= g
    v += gg
    update = m / (1 - state.beta1 ** t)
    update *= state.lr
    denom = np.sqrt(v / (1 - state.beta2 ** t))
    denom += state.eps
    update /= denom
    state.values -= update
    zero_grads(params)

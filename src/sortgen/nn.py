"""Minimal dense-tensor kernel: reverse-mode autodiff over float64 numpy arrays.

Covers exactly the forward operations the value model needs (linear, layer
norm, causal multi-head attention and the feed-forward block, each of the
last two as one tape node, and the primitives they are built from) plus Adam.
No GPU, no mixed precision. tests/helpers.py holds the test-only ops: the
primitive-op references for the two blocks (with masked_softmax and relu),
a finite-difference gradient check and a parameter count.
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
        parents, reshape and transpose hand views), so a later one is added
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


def matmul(a, b) -> Var:
    a, b = as_var(a), as_var(b)

    def bw(g):
        if a.requires_grad:
            a._accum(_unbroadcast(np.matmul(g, np.swapaxes(b.value, -1, -2)), a.shape))
        if b.requires_grad:
            b._accum(_unbroadcast(np.matmul(np.swapaxes(a.value, -1, -2), g), b.shape))

    return Var(np.matmul(a.value, b.value), (a, b), bw)


def sigmoid(a) -> Var:
    a = as_var(a)
    s = 1.0 / (1.0 + np.exp(-a.value))
    return Var(s, (a,), lambda g: a._accum(g * s * (1.0 - s)))


def exp(a) -> Var:
    a = as_var(a)
    e = np.exp(a.value)
    return Var(e, (a,), lambda g: a._accum(g * e))


def log(a) -> Var:
    a = as_var(a)
    return Var(np.log(a.value), (a,), lambda g: a._accum(g / a.value))


def clip(a, lo: float, hi: float) -> Var:
    """Clamp with pass-through gradient strictly inside (lo, hi)."""
    a = as_var(a)
    inside = (a.value > lo) & (a.value < hi)
    return Var(np.clip(a.value, lo, hi), (a,), lambda g: a._accum(g * inside))


def concat(parts, axis: int = -1) -> Var:
    parts = [as_var(p) for p in parts]
    sizes = [p.value.shape[axis] for p in parts]

    def bw(g):
        offset = 0
        for p, size in zip(parts, sizes):
            idx = [slice(None)] * g.ndim
            idx[axis if axis >= 0 else g.ndim + axis] = slice(offset, offset + size)
            p._accum(g[tuple(idx)])
            offset += size

    return Var(np.concatenate([p.value for p in parts], axis=axis), tuple(parts), bw)


def reshape(a, shape) -> Var:
    a = as_var(a)
    return Var(a.value.reshape(shape), (a,), lambda g: a._accum(g.reshape(a.shape)))


def transpose(a, axes) -> Var:
    a = as_var(a)
    inv = np.argsort(axes)
    return Var(np.transpose(a.value, axes), (a,), lambda g: a._accum(np.transpose(g, inv)))


def sum_(a, axis=None, keepdims: bool = False) -> Var:
    a = as_var(a)

    def bw(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        a._accum(np.broadcast_to(g, a.shape).copy())

    return Var(a.value.sum(axis=axis, keepdims=keepdims), (a,), bw)


def tile_to(a, shape) -> Var:
    a = as_var(a)
    return Var(np.broadcast_to(a.value, shape).copy(), (a,),
               lambda g: a._accum(_unbroadcast(g, a.shape)))


def slice_axis0(a, start: int, stop: int) -> Var:
    a = as_var(a)

    def bw(g):
        full = np.zeros_like(a.value)
        full[start:stop] = g
        a._accum(full)

    return Var(a.value[start:stop], (a,), bw)


def index_last(a, i: int) -> Var:
    """Select one index along the last axis (keeps remaining axes)."""
    a = as_var(a)

    def bw(g):
        full = np.zeros_like(a.value)
        full[..., i] = g
        a._accum(full)

    return Var(a.value[..., i], (a,), bw)


def softmax_rows(logits: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Softmax over the last axis of a raw array; masked-out entries get 0."""
    logits = np.where(mask, logits, -np.inf)
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def normalize_rows(x: np.ndarray, eps: float = 1e-5) -> tuple[np.ndarray, np.ndarray]:
    """Zero-mean, unit-variance rows of a raw array, and the inverse std.

    Equal to (x - x.mean) / sqrt(x.var + eps) bit for bit, in fewer calls.
    """
    d = x.shape[-1]
    centred = x - np.add.reduce(x, axis=-1, keepdims=True) / d
    inv = 1.0 / np.sqrt(np.add.reduce(centred * centred, axis=-1, keepdims=True) / d + eps)
    return centred * inv, inv


def layer_norm(x, gain, bias, eps: float = 1e-5) -> Var:
    """Normalize the last axis to zero mean / unit variance, then scale + shift."""
    x, gain, bias = as_var(x), as_var(gain), as_var(bias)
    if x.value.shape[-1] < 2:
        raise ValueError("layer_norm needs a feature axis of at least 2")
    xhat, inv = normalize_rows(x.value, eps)

    def bw(g):
        sum_axes = tuple(range(g.ndim - 1))
        gain._accum((g * xhat).sum(axis=sum_axes))
        bias._accum(g.sum(axis=sum_axes))
        if x.requires_grad:
            d = g.shape[-1]
            gx = g * gain.value
            gx_mean = np.add.reduce(gx, axis=-1, keepdims=True) / d
            gx_xhat_mean = np.add.reduce(gx * xhat, axis=-1, keepdims=True) / d
            x._accum(inv * (gx - gx_mean - xhat * gx_xhat_mean))

    return Var(gain.value * xhat + bias.value, (x, gain, bias), bw)


def linear(x, W, b) -> Var:
    """y = xW + b over the last axis of x (b is [d_out]), as one tape node.

    The leading axes of x fold into one 2-D GEMM, for the forward and for
    the weight gradient alike.
    """
    x, W, b = as_var(x), as_var(W), as_var(b)
    d_in, d_out = W.value.shape
    if x.value.shape[-1] != d_in:
        raise ValueError(f"linear: inner extents differ ({x.value.shape[-1]} vs {d_in})")
    x2 = x.value.reshape(-1, d_in)
    w = W.value

    def bw(g):
        g2 = g.reshape(-1, d_out)
        if x.requires_grad:
            x._accum((g2 @ w.T).reshape(x.shape))
        if W.requires_grad:
            W._accum(x2.T @ g2)
        b._accum(g2.sum(axis=0).reshape(b.shape))

    y = x2 @ w + b.value
    return Var(y.reshape(x.shape[:-1] + (d_out,)), (x, W, b), bw)


def attention(x, wq, wk, wv, wo, bq, bk, bv, bo, n_heads: int) -> Var:
    """Causal multi-head self-attention over x [n, l, d], as one tape node.

    Equal to the composition of linear, reshape, transpose, matmul and a
    masked softmax (tests/helpers.py), with one QKV GEMM on [Wq|Wk|Wv]
    (concatenated per call, so the parameters stay separate) and a
    hand-derived backward that splits the weight gradient back into Wq, Wk
    and Wv.
    """
    x, wq, wk, wv, wo, bq, bk, bv, bo = (as_var(v) for v in (x, wq, wk, wv, wo, bq, bk, bv, bo))
    n, l, d = x.value.shape
    dh = d // n_heads
    scale = 1.0 / math.sqrt(dh)
    x2 = x.value.reshape(-1, d)
    w_qkv = np.concatenate([wq.value, wk.value, wv.value], axis=1)
    qkv = x2 @ w_qkv + np.concatenate([bq.value, bk.value, bv.value])
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
        g_w = x2.T @ g_qkv
        g_b = g_qkv.sum(axis=0)
        for i, (w, b) in enumerate(((wq, bq), (wk, bk), (wv, bv))):
            w._accum(g_w[:, i * d:(i + 1) * d])
            b._accum(g_b[i * d:(i + 1) * d])
        if x.requires_grad:
            x._accum((g_qkv @ w_qkv.T).reshape(x.shape))

    y = ctx @ w_o + bo.value
    return Var(y.reshape(n, l, d), (x, wq, wk, wv, wo, bq, bk, bv, bo), bw)


def ffn(x, w1, b1, w2, b2) -> Var:
    """relu(x W1 + b1) W2 + b2 over the last axis of x, as one tape node."""
    x, w1, b1, w2, b2 = (as_var(v) for v in (x, w1, b1, w2, b2))
    x2 = x.value.reshape(-1, w1.value.shape[0])
    h = x2 @ w1.value + b1.value
    np.maximum(h, 0.0, out=h)
    w_1, w_2 = w1.value, w2.value

    def bw(g):
        g2 = g.reshape(-1, w_2.shape[1])
        w2._accum(h.T @ g2)
        b2._accum(g2.sum(axis=0))
        g_h = g2 @ w_2.T
        g_h *= h > 0.0
        w1._accum(x2.T @ g_h)
        b1._accum(g_h.sum(axis=0))
        if x.requires_grad:
            x._accum((g_h @ w_1.T).reshape(x.shape))

    y = h @ w_2 + b2.value
    return Var(y.reshape(x.shape[:-1] + (w_2.shape[1],)), (x, w1, b1, w2, b2), bw)


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
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def adam_init(params: ParamStore, lr: float = 1e-3, beta1: float = 0.9,
              beta2: float = 0.999, eps: float = 1e-8) -> AdamState:
    state = AdamState(lr=lr, beta1=beta1, beta2=beta2, eps=eps)
    for name, p in params.items():
        state.m[name] = np.zeros_like(p.value)
        state.v[name] = np.zeros_like(p.value)
    return state


def adam_step(params: ParamStore, state: AdamState) -> None:
    """One bias-corrected Adam update; gradients are zeroed afterwards."""
    if not state.m:
        raise ValueError("adam_step on uninitialized state")
    state.step += 1
    t = state.step
    for name, p in params.items():
        g = p.grad if p.grad is not None else np.zeros_like(p.value)
        state.m[name] = state.beta1 * state.m[name] + (1 - state.beta1) * g
        state.v[name] = state.beta2 * state.v[name] + (1 - state.beta2) * g * g
        mhat = state.m[name] / (1 - state.beta1 ** t)
        vhat = state.v[name] / (1 - state.beta2 ** t)
        p.value = p.value - state.lr * mhat / (np.sqrt(vhat) + state.eps)
    zero_grads(params)

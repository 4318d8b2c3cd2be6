"""Minimal dense-tensor kernel: reverse-mode autodiff over float64 numpy arrays.

Covers exactly the operations the model's tape needs, plus Adam: each half
of a pre-norm transformer block (layer norm, then causal multi-head
attention or the feed-forward block, then the residual) as one tape node,
the layer norm and feed-forward pieces that the model's input and heads
nodes reuse, and `fused_outputs` for a node with several outputs. Each
fused node equals the unfused tape it replaced bit for bit, forward and
backward. Adam keeps every parameter in one flat buffer, whose views the
parameters' arrays become, and updates it in place. No GPU, no mixed
precision. tests/helpers.py holds the test-only ops: the references for the
fused nodes (the one-node attention, linear, layer norm and FFN, and the
primitive compositions with add, neg, sub, mul, sigmoid, log, clip, sum_,
index_last, concat, reshape, tile_to, slice_axis0, matmul, exp,
masked_softmax and relu), the per-array Adam, a finite-difference gradient
check and a parameter count.

A tape lives as long as its loss: every node keeps its parents, the arrays
its backward reads and, after `backward`, its gradient, so dropping the loss
frees the whole step. The fused nodes take their arrays from an allocator:
`NEW` hands out a new array for every request, and a `Workspace` hands the
same arrays to every training step. A node writes into them in place
(`out=`), in the operation order of the allocating code, so both give the
same bits.
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

    __slots__ = ("value", "grad", "requires_grad", "_parents", "_bw", "__weakref__")

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


class NewArrays:
    """The fused nodes' allocator when no workspace is given: a new array for
    every request, so that nothing one forward returns shares memory with
    another forward."""

    def begin_step(self) -> None:
        """Start a training step; no-op here."""

    def kept(self, shape: tuple[int, ...]) -> np.ndarray:
        """An array that lives as long as the step's tape: a node's output, an
        array its backward reads, or a gradient it hands to a parent."""
        return np.empty(shape)

    def scratch(self, name: str, shape: tuple[int, ...]) -> np.ndarray:
        """A temporary, dead before the next request for the same `name`."""
        return np.empty(shape)


NEW = NewArrays()


class Workspace(NewArrays):
    """Arrays that training steps reuse, so that a step allocates and frees
    next to nothing: memory freed at the heap's top is handed back to the
    system, and the next step would fault it in again.

    `model.forward(..., workspace=ws)` starts a step. The i-th `kept` request
    of a step gets the buffer of the i-th request of the first step; so the
    previous step's tape must be dead when the next forward starts, as it is
    in `trainer.train`. A `scratch` name gets one buffer, shared by every
    node that asks for it. So the workspace holds one step's tape and one set
    of temporaries. A request gets a C-ordered view of its buffer's first
    elements, so a short final batch reuses the full batches' memory; one
    larger than its buffer gets a new array.
    """

    def __init__(self):
        self._kept: list[np.ndarray] = []  # flat buffers
        self._next = 0
        self._scratch: dict[str, np.ndarray] = {}

    def begin_step(self) -> None:
        self._next = 0

    def kept(self, shape: tuple[int, ...]) -> np.ndarray:
        i = self._next
        self._next += 1
        if i == len(self._kept):
            self._kept.append(np.empty(math.prod(shape)))
        return _view(self._kept[i], shape)

    def scratch(self, name: str, shape: tuple[int, ...]) -> np.ndarray:
        if name not in self._scratch:
            self._scratch[name] = np.empty(math.prod(shape))
        return _view(self._scratch[name], shape)


def _view(buffer: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """The first elements of a flat buffer as an array of `shape`, or a new
    array if the buffer is too small."""
    size = math.prod(shape)
    return buffer[:size].reshape(shape) if size <= buffer.size else np.empty(shape)


def softmax_rows(logits: np.ndarray, mask: np.ndarray,
                 out: np.ndarray | None = None) -> np.ndarray:
    """Softmax over the last axis of a raw array, into `out` if given (which
    may be `logits` itself); entries outside `mask` get 0.

    Masked entries are exponentiated as exp(0) and then zeroed, not as
    exp(-inf), which is several times slower; the bits are the same.
    """
    z = logits - np.where(mask, logits, -np.inf).max(axis=-1, keepdims=True)
    e = np.exp(np.where(mask, z, 0.0)) * mask
    return np.divide(e, e.sum(axis=-1, keepdims=True), out=out)


# The layer norm's variance offset, read by the tape's norms and by the packed
# model's (`model._norm_rows`), so that `model.infer` equals `model.forward`.
LN_EPS = 1e-5


def normalize_rows(x: np.ndarray, ws: NewArrays = NEW) -> tuple[np.ndarray, np.ndarray]:
    """Zero-mean, unit-variance rows of a raw array (a `ws.kept` array), and
    the inverse std.

    Equal to (x - x.mean) / sqrt(x.var + LN_EPS) bit for bit, in fewer calls.
    """
    d = x.shape[-1]
    xhat = np.subtract(x, np.add.reduce(x, axis=-1, keepdims=True) / d, out=ws.kept(x.shape))
    sq = np.multiply(xhat, xhat, out=ws.scratch("ln.t", x.shape))
    inv = 1.0 / np.sqrt(np.add.reduce(sq, axis=-1, keepdims=True) / d + LN_EPS)
    xhat *= inv
    return xhat, inv


def _layer_norm_forward(x: np.ndarray, gain: Var, bias: Var, ws: NewArrays = NEW):
    """gain * xhat + bias over the last axis of x, with xhat and the inverse
    std that `_layer_norm_grads` needs."""
    if x.shape[-1] < 2:
        raise ValueError("layer_norm needs a feature axis of at least 2")
    xhat, inv = normalize_rows(x, ws)
    h = np.multiply(xhat, gain.value, out=ws.kept(x.shape))
    h += bias.value
    return h, xhat, inv


def _layer_norm_grads(g: np.ndarray, xhat: np.ndarray, inv: np.ndarray, gain: Var,
                      bias: Var, need_x: bool, ws: NewArrays = NEW) -> np.ndarray | None:
    """The layer norm's backward: adds the gain and bias gradients, and
    returns the input's (None unless need_x), a `ws.kept` array."""
    sum_axes = tuple(range(g.ndim - 1))
    t = np.multiply(g, xhat, out=ws.scratch("ln.t", g.shape))
    gain._accum(t.sum(axis=sum_axes))
    bias._accum(g.sum(axis=sum_axes))
    if not need_x:
        return None
    d = g.shape[-1]
    gx = np.multiply(g, gain.value, out=ws.scratch("ln.gx", g.shape))
    gx_mean = np.add.reduce(gx, axis=-1, keepdims=True) / d
    gx_xhat_mean = np.add.reduce(np.multiply(gx, xhat, out=t), axis=-1, keepdims=True) / d
    # inv * (gx - gx_mean - xhat * gx_xhat_mean)
    gx -= gx_mean
    gx -= np.multiply(xhat, gx_xhat_mean, out=t)
    return np.multiply(gx, inv, out=ws.kept(g.shape))


def attention_block(x, gain, bias, wq, wk, wv, wo, bq, bk, bv, bo, n_heads: int,
                    ws: NewArrays = NEW) -> Var:
    """x + attention(layer_norm(x)): a pre-norm block's first half, causal
    multi-head self-attention over x [n, l, d] with its layer norm and
    residual, as one tape node; its arrays come from `ws`.

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
    m, dh = n * l, d // n_heads
    scale = 1.0 / math.sqrt(dh)
    h, xhat, inv = _layer_norm_forward(x.value, gain, bias, ws=ws)
    h2 = h.reshape(m, d)
    w_qkv = np.concatenate([wq.value, wk.value, wv.value], axis=1)
    qkv = np.matmul(h2, w_qkv, out=ws.kept((m, 3 * d)))
    qkv += np.concatenate([bq.value, bk.value, bv.value])
    # [n*l, 3d] -> [3, n, heads, l, dh]
    q, k, v = qkv.reshape(n, l, 3, n_heads, dh).transpose(2, 0, 3, 1, 4)
    att = np.matmul(q, k.transpose(0, 1, 3, 2), out=ws.kept((n, n_heads, l, l)))
    att *= scale
    softmax_rows(att, np.tri(l, dtype=bool), out=att)  # the scores, then their softmax
    ctx = ws.kept((m, d))
    np.matmul(att, v, out=ctx.reshape(n, l, n_heads, dh).transpose(0, 2, 1, 3))
    w_o = wo.value

    def bw(g):
        g2 = g.reshape(m, d)
        wo._accum(ctx.T @ g2)
        bo._accum(g2.sum(axis=0))
        g_rows = np.matmul(g2, w_o.T, out=ws.scratch("block.g_h", (m, d)))
        g_ctx = g_rows.reshape(n, l, n_heads, dh).transpose(0, 2, 1, 3)
        g_att = np.matmul(g_ctx, v.transpose(0, 1, 3, 2), out=ws.scratch("attn.g_att", att.shape))
        # g_scores = att * (g_att - (g_att * att).sum(-1)) * scale, in g_att's place
        g_att -= np.multiply(g_att, att, out=ws.scratch("attn.t", att.shape)).sum(
            axis=-1, keepdims=True)
        g_scores = np.multiply(att, g_att, out=g_att)
        g_scores *= scale
        g_qkv = ws.scratch("attn.g_qkv", (m, 3 * d))
        g_q, g_k, g_v = g_qkv.reshape(n, l, 3, n_heads, dh).transpose(2, 0, 3, 1, 4)
        np.matmul(g_scores, k, out=g_q)
        np.matmul(g_scores.transpose(0, 1, 3, 2), q, out=g_k)
        np.matmul(att.transpose(0, 1, 3, 2), g_ctx, out=g_v)
        g_w = h2.T @ g_qkv
        g_b = g_qkv.sum(axis=0)
        for i, (w, b) in enumerate(((wq, bq), (wk, bk), (wv, bv))):
            w._accum(g_w[:, i * d:(i + 1) * d])
            b._accum(g_b[i * d:(i + 1) * d])
        g_h = np.matmul(g_qkv, w_qkv.T, out=g_rows).reshape(x.shape)
        g_x = _layer_norm_grads(g_h, xhat, inv, gain, bias, x.requires_grad, ws)
        if g_x is not None:
            g_x += g  # the norm's path, plus the residual
            x._accum(g_x)

    y = np.matmul(ctx, w_o, out=ws.kept((m, d)))
    y += bo.value
    y = y.reshape(n, l, d)
    y += x.value  # the residual
    return Var(y, (x, gain, bias, wq, wk, wv, wo, bq, bk, bv, bo), bw)


def _ffn_forward(x2: np.ndarray, w1: Var, b1: Var, w2: Var, b2: Var, ws: NewArrays = NEW):
    """relu(x2 W1 + b1) W2 + b2 on rows x2 [m, d_in], and its backward: a
    function of the output's gradient [m, d_out] that adds the weight
    gradients and returns x2's (None unless asked for; into `out` if given).
    The backward writes the hidden layer's gradient over its activations, so
    it runs once."""
    h = np.matmul(x2, w1.value, out=ws.kept((x2.shape[0], w1.shape[1])))
    h += b1.value
    np.maximum(h, 0.0, out=h)
    w_1, w_2 = w1.value, w2.value

    def grads(g2: np.ndarray, need_x: bool, out: np.ndarray | None = None) -> np.ndarray | None:
        w2._accum(h.T @ g2)
        b2._accum(g2.sum(axis=0))
        active = h > 0.0
        g_h = np.matmul(g2, w_2.T, out=h)
        g_h *= active
        w1._accum(x2.T @ g_h)
        b1._accum(g_h.sum(axis=0))
        return np.matmul(g_h, w_1.T, out=out) if need_x else None

    y = np.matmul(h, w_2, out=ws.kept((x2.shape[0], w2.shape[1])))
    y += b2.value
    return y, grads


def ffn_block(x, gain, bias, w1, b1, w2, b2, ws: NewArrays = NEW) -> Var:
    """x + ffn(layer_norm(x)): a pre-norm block's second half, as one tape
    node whose arrays come from `ws`; equal bit for bit, forward and
    backward, to add(x, ffn(layer_norm(x))) over the one-node layer norm and
    FFN in tests/helpers.py."""
    x, gain, bias, w1, b1, w2, b2 = (as_var(v) for v in (x, gain, bias, w1, b1, w2, b2))
    d = x.value.shape[-1]
    h, xhat, inv = _layer_norm_forward(x.value, gain, bias, ws=ws)
    y, grads = _ffn_forward(h.reshape(-1, d), w1, b1, w2, b2, ws)

    def bw(g):
        g2 = g.reshape(-1, d)
        g_h = grads(g2, True, ws.scratch("block.g_h", g2.shape)).reshape(x.shape)
        g_x = _layer_norm_grads(g_h, xhat, inv, gain, bias, x.requires_grad, ws)
        if g_x is not None:
            g_x += g  # the norm's path, plus the residual
            x._accum(g_x)

    y = y.reshape(x.shape)
    y += x.value  # the residual
    return Var(y, (x, gain, bias, w1, b1, w2, b2), bw)


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


# Adam's moment decay rates, and the term that keeps its denominator off zero.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class AdamState:
    """Adam's learning rate, step count and moments, over one flat buffer.

    `adam_init` copies every parameter into `values` and rebinds each
    `Var.value` to its view of it, so an update is a few vector operations
    on whole buffers, in place. `grads` holds the last step's gradients.
    """

    lr: float = 1e-3
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


def adam_init(params: ParamStore, lr: float = 1e-3) -> AdamState:
    """Adam state over `params`, whose arrays become views of its flat buffer:
    write a parameter in place from now on, never replace its array."""
    total = sum(p.value.size for p in params.values())
    state = AdamState(lr=lr, values=np.empty(total), grads=np.zeros(total),
                      m=np.zeros(total), v=np.zeros(total))
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
    m *= ADAM_BETA1
    m += (1 - ADAM_BETA1) * g
    v *= ADAM_BETA2
    gg = (1 - ADAM_BETA2) * g
    gg *= g
    v += gg
    update = m / (1 - ADAM_BETA1 ** t)
    update *= state.lr
    denom = np.sqrt(v / (1 - ADAM_BETA2 ** t))
    denom += ADAM_EPS
    update /= denom
    state.values -= update
    zero_grads(params)

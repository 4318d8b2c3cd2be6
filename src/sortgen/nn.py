"""Minimal dense-tensor kernel: reverse-mode autodiff over float64 numpy arrays.

Covers exactly the forward operations the value model needs (linear, layer
norm, masked multi-head attention building blocks, feed-forward pieces) plus
Adam and a finite-difference gradient checker. No GPU, no mixed precision.
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
        if not self.requires_grad:
            return
        if self.grad is None:
            self.grad = np.zeros_like(self.value)
        self.grad += g

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


def relu(a) -> Var:
    a = as_var(a)
    return Var(np.maximum(a.value, 0.0), (a,), lambda g: a._accum(g * (a.value > 0.0)))


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


def masked_softmax(a, mask: np.ndarray) -> Var:
    """Softmax over the last axis; positions where mask is False get weight 0.

    Computed with max-subtraction; masked logits are set to -inf first.
    """
    a = as_var(a)
    y = softmax_rows(a.value, mask)

    def bw(g):
        dot = (g * y).sum(axis=-1, keepdims=True)
        a._accum(y * (g - dot))

    return Var(y, (a,), bw)


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
            gx = g * gain.value
            gx_mean = gx.mean(axis=-1, keepdims=True)
            gx_xhat_mean = (gx * xhat).mean(axis=-1, keepdims=True)
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


def param_count(params: ParamStore) -> int:
    return sum(p.value.size for p in params.values())


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


# ------------------------- gradient verification ---------------------------


def finite_diff_check(params: ParamStore, loss_fn, step: float = 1e-4,
                      n_coords: int = 60, seed: int = 0) -> float:
    """Max relative error between analytic gradients and central differences.

    loss_fn() must rebuild the graph from the current parameter values and
    return a scalar Var. Samples n_coords coordinates uniformly across all
    parameters.
    """
    if step == 0:
        raise ValueError("finite_diff_check: step must be nonzero")
    zero_grads(params)
    loss = loss_fn()
    if not np.isfinite(loss.value).all():
        raise FloatingPointError("non-finite loss in finite_diff_check")
    backward(loss)
    analytic = {name: (p.grad.copy() if p.grad is not None else np.zeros_like(p.value))
                for name, p in params.items()}

    flat: list[tuple[str, int]] = []
    for name, p in params.items():
        flat.extend((name, i) for i in range(p.value.size))
    rng = np.random.default_rng(seed)
    picks = rng.choice(len(flat), size=min(n_coords, len(flat)), replace=False)

    worst = 0.0
    for k in picks:
        name, i = flat[k]
        p = params[name]
        orig = p.value.flat[i]
        p.value.flat[i] = orig + step
        up = float(loss_fn().value)
        p.value.flat[i] = orig - step
        down = float(loss_fn().value)
        p.value.flat[i] = orig
        numeric = (up - down) / (2.0 * step)
        a = float(analytic[name].flat[i])
        err = abs(a - numeric) / max(1e-8, abs(a) + abs(numeric))
        worst = max(worst, err)
    zero_grads(params)
    return worst

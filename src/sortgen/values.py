"""List-value calculus and training losses.

Expected action counts come from the ordinal-threshold identity
E[Y] = sum_i P(Y >= i). `value_curves` gives a batch of lists' expected
counts, GMV (price times pay increment, added in position order) and
combined value (`mix`) after every position, from survival matrices
[B, l, max_count]; `step_values` values a greedy model call's tree of rows
from running sums, with the same additions in the same order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from sortgen import nn
from sortgen.core import ObjectiveWeights
from sortgen.model import ModelOutput
from sortgen.nn import Var

PROB_CLAMP = 1e-7


@dataclass(frozen=True)
class LabelVector:
    """Binary per-position click/pay indicators plus cumulative counts."""

    clicks: np.ndarray
    pays: np.ndarray

    def __post_init__(self):
        clicks = np.asarray(self.clicks, dtype=np.int64)
        pays = np.asarray(self.pays, dtype=np.int64)
        object.__setattr__(self, "clicks", clicks)
        object.__setattr__(self, "pays", pays)
        if clicks.shape != pays.shape:
            raise ValueError("clicks and pays lengths differ")

    @property
    def cum_clicks(self) -> np.ndarray:
        return np.cumsum(self.clicks)

    @property
    def cum_pays(self) -> np.ndarray:
        return np.cumsum(self.pays)


def expected_counts_batch(values: np.ndarray) -> np.ndarray:
    """[..., max_count] survival probs -> [...] expected counts, e.g.
    [B, l, max_count] -> [B, l], one per prefix.

    Each row is first clamped to a non-increasing sequence over the threshold
    axis, since literal heads may emit survival values that increase with i.
    """
    return np.minimum.accumulate(values, axis=-1).sum(axis=-1)


def mix(weights: ObjectiveWeights, click, pay, gmv):
    """The combined value alpha * clicks + beta * pays + gamma * GMV, elementwise."""
    return weights.alpha * click + weights.beta * pay + weights.gamma * gmv


def value_curves(click: np.ndarray, pay: np.ndarray, prices: np.ndarray,
                 weights: ObjectiveWeights) -> dict[str, np.ndarray]:
    """Each list's expected click and pay counts, GMV and combined value
    after each position, keyed "click", "pay", "gmv" and "combined", each
    [B, l], from click/pay [B, l, max_count] and prices [B, l]. GMV adds
    price times pay increment in position order, as `step_values` does.
    """
    e_click = expected_counts_batch(click)
    e_pay = expected_counts_batch(pay)
    gmv = np.cumsum(prices * np.diff(e_pay, axis=-1, prepend=0.0), axis=-1)
    return {"click": e_click, "pay": e_pay, "gmv": gmv,
            "combined": mix(weights, e_click, e_pay, gmv)}


def combined_values_batch(click: np.ndarray, pay: np.ndarray, prices: np.ndarray,
                          weights: ObjectiveWeights) -> np.ndarray:
    """Combined list value at full length for each sequence in the batch,
    [B]: the last column of `value_curves`' combined curve."""
    return value_curves(click, pay, prices, weights)["combined"][:, -1]


def step_values(click: np.ndarray, pay: np.ndarray, prices: np.ndarray, pay_count: float,
                gmv: float, branch, weights: ObjectiveWeights) -> tuple[np.ndarray, np.ndarray,
                                                                       np.ndarray]:
    """Combined values of the lists that a greedy model call's tree of rows
    extends, in O(rows * max_count): equal bit for bit to the last position
    of `value_curves` over the whole extended lists' survival rows.

    click/pay: [B, max_count], each row's survival row at its new position;
    prices: [B], the rows' prices; pay_count and gmv: the chosen list's
    expected pay count and GMV (0 for the empty list). The first
    B - len(branch) rows are roots, which extend the chosen list; row
    B - len(branch) + i is a child, which extends the list of the root
    `branch[i]`. Returns the values and each extended list's expected pay
    count and GMV, all [B].
    """
    e_click = expected_counts_batch(click)
    e_pay = expected_counts_batch(pay)
    m = len(e_pay) - len(branch)
    base = np.full(len(e_pay), pay_count)
    base[m:] = e_pay[branch]
    gmvs = np.subtract(e_pay, base, out=base)
    gmvs *= prices
    gmvs[:m] += gmv
    gmvs[m:] += gmvs[branch]
    return mix(weights, e_click, e_pay, gmvs), e_pay, gmvs


# ------------------------------- losses ------------------------------------


def _threshold_targets(cum_counts: np.ndarray, max_count: int) -> np.ndarray:
    """targets[n, j, i] = 1 if cumulative count at prefix j is >= i+1."""
    return (cum_counts[:, :, None] >= np.arange(1, max_count + 1)[None, None, :]).astype(np.float64)


def _clipped_bce(probs: np.ndarray, targets: np.ndarray, mask, out: np.ndarray,
                 ws: nn.NewArrays):
    """-(pos * log(p) + negt * log(1 - p)) into `out`, with p the
    probabilities `probs` clipped to [PROB_CLAMP, 1 - PROB_CLAMP], pos
    `targets` times `mask` and negt (1 - targets) times `mask`; `targets` is
    overwritten. Also returns its backward: a function of each entry's
    gradient g (a scalar) that writes the gradient of `probs` into an array
    it is given, zero where the clip is active. The arrays come from `ws`."""
    shape = probs.shape
    p = np.clip(probs, PROB_CLAMP, 1.0 - PROB_CLAMP, out=ws.kept(shape))
    pos = np.multiply(targets, mask, out=ws.kept(shape))
    negt = np.multiply(np.subtract(1.0, targets, out=targets), mask, out=ws.kept(shape))
    q = np.subtract(1.0, p, out=ws.kept(shape))
    bce = np.log(p, out=out)
    bce *= pos
    bce_q = np.log(q, out=ws.scratch("loss.b", shape))
    bce_q *= negt
    bce += bce_q

    def grad(g, into: np.ndarray) -> np.ndarray:
        inside = (probs > PROB_CLAMP) & (probs < 1.0 - PROB_CLAMP)
        # (-g * pos / p - -g * negt / q) * inside
        g_p = np.multiply(-g, pos, out=ws.scratch("loss.a", shape))
        g_p /= p
        g_q = np.multiply(-g, negt, out=ws.scratch("loss.b", shape))
        g_q /= q
        g_p -= g_q
        return np.multiply(g_p, inside, out=into)

    return np.negative(bce, out=bce), grad


def ordered_regression_loss(output: ModelOutput, cum_clicks: np.ndarray,
                            cum_pays: np.ndarray, ws: nn.NewArrays = nn.NEW) -> Var:
    """Sum of effective (i <= j) threshold cross-entropies, averaged over the batch,
    as one tape node whose arrays come from `ws`.

    cum_clicks/cum_pays: [n, l] cumulative action counts per prefix length.
    Equal bit for bit, forward and backward, to the chain of clip, log, mul,
    add, neg, sum_ and mul that it replaces (tests/helpers.py): each
    objective's term is -sum(t * log(p) + (1 - t) * log(1 - p)) over the
    valid entries, with p clipped to [PROB_CLAMP, 1 - PROB_CLAMP].
    """
    shape = output.click.shape
    mask = output.valid.astype(np.float64)
    scale = 1.0 / shape[0]
    grads, total = [], None
    for probs, cum in ((output.click, cum_clicks), (output.pay, cum_pays)):
        targets = _threshold_targets(np.asarray(cum), shape[2])
        bce, grad = _clipped_bce(probs.value, targets, mask, ws.scratch("loss.a", shape), ws)
        term = bce.sum()
        total = term if total is None else total + term
        grads.append(grad)

    def bw(g):
        for probs, grad in zip((output.click, output.pay), grads):
            probs._accum(grad(g * scale, ws.kept(shape)))

    return Var(total * scale, (output.click, output.pay), bw)


def pointwise_loss(output: ModelOutput, clicks: np.ndarray, pays: np.ndarray,
                   ws: nn.NewArrays = nn.NEW) -> Var:
    """Mean per-position binary cross-entropy on marginal action indicators,
    as one tape node whose arrays come from `ws`.

    clicks/pays: [n, l] 0/1 labels, scored against threshold channel 0 of
    the click and pay probabilities, the sigmoid of the heads' first logit
    (channel 0 is never masked). Equal bit for bit, forward and backward, to
    the chain of index_last, sigmoid, clip, log, mul, sub, add, neg, sum_ and
    mul on the logits that it replaces (tests/helpers.py), which adds the
    two objectives' BCEs entry by entry, then sums.
    """
    n, l = output.click.shape[:2]
    if np.shape(clicks) != (n, l) or np.shape(pays) != (n, l):
        raise ValueError("label shape mismatch")
    scale = 1.0 / (2 * n * l)
    grads, bces = [], []
    for probs, labels, name in ((output.click, clicks, "loss.c"), (output.pay, pays, "loss.a")):
        targets = np.array(labels, dtype=np.float64)
        bce, grad = _clipped_bce(probs.value[..., 0], targets, 1.0, ws.scratch(name, (n, l)), ws)
        bces.append(bce)
        grads.append(grad)
    total = np.add(bces[0], bces[1], out=bces[0]).sum()

    def bw(g):
        for probs, grad in zip((output.click, output.pay), grads):
            full = ws.kept(probs.shape)
            full.fill(0.0)
            grad(g * scale, full[..., 0])
            probs._accum(full)

    return Var(total * scale, (output.click, output.pay), bw)

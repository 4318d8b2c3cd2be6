"""List-value calculus and training losses.

Expected action counts come from the ordinal-threshold identity
E[Y] = sum_i P(Y >= i); per-step incremental value is the difference of
expected counts at consecutive prefix lengths, GMV value is the
price-weighted sum of pay increments, and the combined list value is the
weighted sum over objectives. All of it works on batches of survival
matrices, [B, l, max_count]; `step_values` extends a list by one position
from running sums, for the greedy step.
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


def combined_values_batch(click: np.ndarray, pay: np.ndarray, prices: np.ndarray,
                          weights: ObjectiveWeights) -> np.ndarray:
    """Combined list value at full length for each sequence in the batch.

    click/pay: [B, l, max_count]; prices: [B, l].
    """
    e_click = expected_counts_batch(click)
    e_pay = expected_counts_batch(pay)
    pay_incr = e_pay.copy()
    pay_incr[:, 1:] -= e_pay[:, :-1]
    v_gmv = (prices * pay_incr).sum(axis=1)
    return weights.alpha * e_click[:, -1] + weights.beta * e_pay[:, -1] + weights.gamma * v_gmv


def step_values(click: np.ndarray, pay: np.ndarray, prices: np.ndarray, pay_count: float,
                gmv: float, weights: ObjectiveWeights) -> tuple[np.ndarray, np.ndarray,
                                                               np.ndarray]:
    """Combined values of one list extended by each of B candidates, in
    O(B * max_count): `combined_values_batch` over the whole extended lists,
    up to the order of the GMV sum.

    click/pay: [B, max_count], the survival rows of the new position;
    prices: [B], the candidates' prices; pay_count and gmv: the list's
    expected pay count and GMV (0 for the empty list). Returns the values and
    each extended list's expected pay count and GMV, all [B].
    """
    e_click = expected_counts_batch(click)
    e_pay = expected_counts_batch(pay)
    gmv = gmv + prices * (e_pay - pay_count)
    return weights.alpha * e_click + weights.beta * e_pay + weights.gamma * gmv, e_pay, gmv


# ------------------------------- losses ------------------------------------


def _threshold_targets(cum_counts: np.ndarray, max_count: int) -> np.ndarray:
    """targets[n, j, i] = 1 if cumulative count at prefix j is >= i+1."""
    return (cum_counts[:, :, None] >= np.arange(1, max_count + 1)[None, None, :]).astype(np.float64)


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
    terms = []  # per objective: its probs Var, clipped p, 1 - p, and the two weights
    total = None
    for probs, cum in ((output.click, cum_clicks), (output.pay, cum_pays)):
        targets = _threshold_targets(np.asarray(cum), shape[2])
        p = np.clip(probs.value, PROB_CLAMP, 1.0 - PROB_CLAMP, out=ws.kept(shape))
        pos = np.multiply(targets, mask, out=ws.kept(shape))
        negt = np.multiply(np.subtract(1.0, targets, out=targets), mask, out=ws.kept(shape))
        q = np.subtract(1.0, p, out=ws.kept(shape))
        # -(pos * log(p) + negt * log(q)), summed
        bce = np.log(p, out=ws.scratch("loss.a", shape))
        bce *= pos
        bce_q = np.log(q, out=ws.scratch("loss.b", shape))
        bce_q *= negt
        bce += bce_q
        term = np.negative(bce, out=bce).sum()
        total = term if total is None else total + term
        terms.append((probs, p, q, pos, negt))

    def bw(g):
        g_bce = -(g * scale)
        for probs, p, q, pos, negt in terms:
            inside = (probs.value > PROB_CLAMP) & (probs.value < 1.0 - PROB_CLAMP)
            # (g_bce * pos / p - g_bce * negt / q) * inside
            g_p = np.multiply(g_bce, pos, out=ws.scratch("loss.a", shape))
            g_p /= p
            g_q = np.multiply(g_bce, negt, out=ws.scratch("loss.b", shape))
            g_q /= q
            g_p -= g_q
            probs._accum(np.multiply(g_p, inside, out=ws.kept(shape)))

    return Var(total * scale, (output.click, output.pay), bw)


def pointwise_loss(click_logits, pay_logits, clicks: np.ndarray, pays: np.ndarray) -> Var:
    """Mean per-position binary cross-entropy on marginal action indicators.

    click_logits/pay_logits: [n, l] position scores (threshold channel 0).
    """
    click_logits, pay_logits = nn.as_var(click_logits), nn.as_var(pay_logits)
    n, l = click_logits.shape
    clicks = np.asarray(clicks, dtype=np.float64)
    pays = np.asarray(pays, dtype=np.float64)
    if clicks.shape != (n, l) or pays.shape != (n, l):
        raise ValueError("label shape mismatch")
    total = None
    ones = np.ones((n, l))
    for logits, labels in ((click_logits, clicks), (pay_logits, pays)):
        p = nn.clip(nn.sigmoid(logits), PROB_CLAMP, 1.0 - PROB_CLAMP)
        bce = nn.neg(nn.add(nn.mul(labels, nn.log(p)),
                            nn.mul(ones - labels, nn.log(nn.sub(1.0, p)))))
        total = bce if total is None else nn.add(total, bce)
    return nn.mul(nn.sum_(total), 1.0 / (2 * n * l))

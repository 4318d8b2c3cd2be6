import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sortgen import nn, values
from sortgen.core import ObjectiveWeights
from sortgen.model import ModelOutput, valid_mask
from sortgen.nn import Var
from tests.helpers import (finite_diff_check, mul, ordered_regression_loss_reference,
                           same_bits, sigmoid, step_values_reference)


def _counts(rows):
    """Expected counts per prefix length of one [l, max_count] survival matrix."""
    return values.expected_counts_batch(np.array(rows, dtype=np.float64)[None])[0]


def _increments(rows):
    """Per-position pay increments of one survival matrix, read off the GMV
    term of combined_values_batch: row t of the batch prices position t alone."""
    pay = np.array(rows, dtype=np.float64)
    l = pay.shape[0]
    batch = np.repeat(pay[None], l, axis=0)
    return values.combined_values_batch(np.zeros_like(batch), batch, np.eye(l),
                                        ObjectiveWeights(0.0, 0.0, 1.0))


# --------------------------- expected counts ---------------------------------


def test_expected_count_sum_of_survival():
    counts = _counts([[0.9, 0.0, 0.0], [0.9, 0.4, 0.0], [0.9, 0.4, 0.1]])
    assert math.isclose(counts[2], 1.4)


def test_expected_count_zero_column():
    assert _counts([[0.0, 0.0], [0.0, 0.0]])[1] == 0.0


def test_expected_count_degenerate_two():
    assert _counts([[1.0, 0.0, 0.0], [1.0, 1.0, 0.0]])[1] == 2.0


def test_expected_count_clamps_nonmonotone_columns():
    # Literal heads may emit increasing survival values; the running minimum
    # restores a valid distribution before summation.
    assert math.isclose(_counts([[0.2, 0.0], [0.2, 0.8]])[1], 0.4)


# --------------------------- incremental values ------------------------------


def test_incremental_differencing():
    incr = _increments([[0.5, 0.0, 0.0], [0.5, 0.4, 0.0], [0.5, 0.4, 0.2]])
    np.testing.assert_allclose(incr, [0.5, 0.4, 0.2])


def test_incremental_constant_counts_zero_after_first():
    incr = _increments([[0.7, 0.0], [0.7, 0.0]])
    assert incr[0] == 0.7
    assert incr[1] == 0.0


def test_incremental_telescopes_exactly():
    rng = np.random.default_rng(8)
    raw = np.minimum.accumulate(rng.uniform(0, 1, size=(6, 6)), axis=-1)
    raw *= valid_mask(6, 6)
    total = _increments(raw).sum()
    assert abs(total - _counts(raw)[5]) < 1e-12


# ------------------------------ list value -----------------------------------


def _two_position_lists():
    """Click and pay survival matrices [1, 2, 2] and prices [1, 2] of one list."""
    click = np.array([[[0.9, 0.0], [0.9, 0.5]]])
    pay = np.array([[[0.1, 0.0], [0.15, 0.05]]])
    prices = np.array([[40.0, 60.0]])
    return click, pay, prices


def _value(click, pay, prices, alpha, beta, gamma):
    return float(values.combined_values_batch(click, pay, prices,
                                              ObjectiveWeights(alpha, beta, gamma))[0])


def test_list_value_weighted_combination():
    # alpha,beta,gamma = 5,1,1 with v_click=1.4, v_pay=0.2, v_gmv=10 -> 17.2
    lists = _two_position_lists()
    assert math.isclose(_value(*lists, 1.0, 0.0, 0.0), 1.4)   # v_click
    assert math.isclose(_value(*lists, 0.0, 1.0, 0.0), 0.2)   # v_pay
    assert math.isclose(_value(*lists, 0.0, 0.0, 1.0), 40.0 * 0.1 + 60.0 * 0.1)  # v_gmv
    assert math.isclose(_value(*lists, 5.0, 1.0, 1.0), 17.2)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_tree_step_values_equal_the_two_call_form_bit_for_bit(data):
    # One pass over a greedy call's tree (1 to 5 roots, each with 0 to 5
    # children, so some branches empty), with click and pay counted in one
    # pass over [rows, 2, max_count], equals the roots' call and then the
    # children's over their roots' counts, each objective on its own, bit
    # for bit, for monotone heads' non-increasing survival rows and literal
    # heads' unordered ones.
    m = data.draw(st.integers(1, 5), label="roots")
    counts = data.draw(st.lists(st.integers(0, 5), min_size=m, max_size=m), label="children")
    monotone = data.draw(st.booleans(), label="monotone")
    empty_prefix = data.draw(st.booleans(), label="empty prefix")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    branch = [k for k, c in enumerate(counts) for _ in range(c)]
    rows, max_count = m + len(branch), data.draw(st.integers(1, 5), label="max_count")
    click, pay = rng.uniform(size=(2, rows, max_count))
    if monotone:
        click, pay = -np.sort(-click, axis=-1), -np.sort(-pay, axis=-1)
    prices = rng.lognormal(3.0, 0.6, size=rows)
    pay_count, gmv = (0.0, 0.0) if empty_prefix else (rng.uniform(0.0, 2.0),
                                                     rng.lognormal(3.0, 0.6))
    weights = ObjectiveWeights(*rng.uniform(0.0, 3.0, size=3))
    got = values.step_values(np.stack([click, pay], axis=1), prices, pay_count, gmv,
                             np.array(branch, dtype=np.intp), weights)
    want = step_values_reference(click, pay, prices, pay_count, gmv, branch, weights)
    for a, b in zip(got, want):
        assert a.shape == (rows,)
        assert same_bits(a, b)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_chained_step_values_equal_the_value_curves_bit_for_bit(data):
    # Valuing lists position by position, as the greedy does (one position a
    # call, or a root and its child in one two-level call), gives the
    # combined, pay and GMV curves of `value_curves` over the whole lists bit
    # for bit, for monotone heads' rows and literal heads' unordered ones.
    # Each call counts click and pay in one pass, as `model.extend` returns
    # them, [rows, 2, max_count].
    n, l = data.draw(st.integers(1, 4), label="lists"), data.draw(st.integers(1, 12), label="l")
    max_count = data.draw(st.integers(1, 10), label="max_count")
    monotone = data.draw(st.booleans(), label="monotone")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    click, pay = rng.uniform(size=(2, n, l, max_count))
    if monotone:
        click, pay = -np.sort(-click, axis=-1), -np.sort(-pay, axis=-1)
    prices = rng.lognormal(3.0, 0.6, size=(n, l))
    weights = ObjectiveWeights(*rng.uniform(0.0, 3.0, size=3))
    curves = values.value_curves(click, pay, prices, weights)
    survival = np.stack([click, pay], axis=-2)  # [n, l, 2, max_count]
    for b in range(n):
        got = np.empty((3, l))  # combined, pay count and GMV after each position
        pay_count, gmv, t = 0.0, 0.0, 0
        while t < l:
            width = min(l - t, data.draw(st.integers(1, 2), label="positions per call"))
            rows = slice(t, t + width)
            scored = values.step_values(survival[b, rows], prices[b, rows], pay_count, gmv,
                                        np.zeros(width - 1, dtype=np.intp), weights)
            got[:, rows] = scored
            pay_count, gmv = scored[1][-1], scored[2][-1]
            t += width
        for row, key in zip(got, ("combined", "pay", "gmv")):
            assert same_bits(row, curves[key][b]), key


def test_list_value_all_zero_survival():
    _, _, prices = _two_position_lists()
    zero = np.zeros((1, 2, 2))
    assert _value(zero, zero, prices, 5.0, 1.0, 1.0) == 0.0


def test_list_value_gamma_zero_ignores_prices():
    click, pay, prices = _two_position_lists()
    pricey = np.array([[4000.0, 6000.0]])
    assert _value(click, pay, prices, 5.0, 1.0, 0.0) == _value(click, pay, pricey, 5.0, 1.0, 0.0)


def test_list_value_linear_in_weights():
    lists = _two_position_lists()
    assert math.isclose(_value(*lists, 10.0, 2.0, 2.0), 2.0 * _value(*lists, 5.0, 1.0, 1.0))


def test_argmax_invariant_under_positive_scaling():
    rng = np.random.default_rng(9)
    raw = np.minimum.accumulate(rng.uniform(0, 1, size=(8, 2, 2)), axis=-1)
    raw *= valid_mask(2, 2)
    _, _, prices = _two_position_lists()
    prices = np.repeat(prices, 8, axis=0)
    for c in (0.5, 1.0, 7.0):
        w = ObjectiveWeights(5.0 * c, 1.0 * c, 1.0 * c)
        vals = values.combined_values_batch(raw, raw * 0.3, prices, w)
        if c == 0.5:
            ref = int(np.argmax(vals))
        else:
            assert int(np.argmax(vals)) == ref


# ------------------------------- losses --------------------------------------


def _fake_output(click_probs, pay_probs, l, max_count):
    click = Var(np.asarray(click_probs, dtype=np.float64))
    pay = Var(np.asarray(pay_probs, dtype=np.float64))
    return ModelOutput(click, pay, valid_mask(l, max_count))


def test_ordered_regression_hand_worked():
    # l=2, one click at position 1, all click probs 0.5, pay side perfect:
    # three effective click terms of -log(0.5) each -> 2.0794.
    click = np.array([[[0.5, 0.0], [0.5, 0.5]]])
    pay = np.array([[[0.0, 0.0], [0.0, 0.0]]])  # matches zero pay labels
    out = _fake_output(click, pay, 2, 2)
    cum_clicks = np.array([[1, 1]])
    cum_pays = np.array([[0, 0]])
    loss = values.ordered_regression_loss(out, cum_clicks, cum_pays)
    assert abs(float(loss.value) - 3.0 * math.log(2.0)) < 1e-6
    assert abs(float(loss.value) - 2.0794) < 1e-3


def test_ordered_regression_perfect_predictions():
    click = np.array([[[1.0, 0.0], [1.0, 0.0]]])
    pay = np.array([[[0.0, 0.0], [0.0, 0.0]]])
    out = _fake_output(click, pay, 2, 2)
    loss = values.ordered_regression_loss(out, np.array([[1, 1]]), np.array([[0, 0]]))
    assert float(loss.value) < 1e-5


def test_ordered_regression_no_actions_zero_probs():
    out = _fake_output(np.zeros((1, 2, 2)), np.zeros((1, 2, 2)), 2, 2)
    loss = values.ordered_regression_loss(out, np.zeros((1, 2), dtype=int),
                                          np.zeros((1, 2), dtype=int))
    assert float(loss.value) < 1e-5


def _loss_inputs(seed, n=5, l=4, max_count=3):
    """Probabilities spread over [0, 1], with some past each clip bound and
    exact zeros where the mask is off, and random cumulative labels."""
    rng = np.random.default_rng(seed)
    valid = valid_mask(l, max_count)
    probs = [rng.uniform(size=(n, l, max_count)) * valid for _ in range(2)]
    probs[0][0, -1] = [1.0, 1e-9, 1.0 - 1e-9][:max_count]
    cum = [np.cumsum(rng.integers(0, 2, size=(n, l)), axis=1) for _ in range(2)]
    return probs, cum


def test_ordered_loss_node_equals_the_bce_chain_bit_for_bit():
    probs, (cum_clicks, cum_pays) = _loss_inputs(3)
    results = []
    for loss_fn in (values.ordered_regression_loss, ordered_regression_loss_reference):
        out = _fake_output(*probs, 4, 3)
        # Scaled by 3 inside a larger tape, so the node's incoming gradient is not 1.
        loss = mul(loss_fn(out, cum_clicks, cum_pays), 3.0)
        nn.backward(loss)
        results.append((loss.value, out.click.grad, out.pay.grad))
    for fused, ref in zip(*results):
        assert same_bits(fused, ref)


def test_finite_diff_ordered_loss_node():
    probs, (cum_clicks, cum_pays) = _loss_inputs(4)
    params = {"click": Var(0.05 + 0.9 * probs[0]), "pay": Var(0.05 + 0.9 * probs[1])}

    def loss_fn():
        out = ModelOutput(params["click"], params["pay"], valid_mask(4, 3))
        return values.ordered_regression_loss(out, cum_clicks, cum_pays)

    assert finite_diff_check(params, loss_fn, step=1e-6, n_coords=60) < 1e-6


def test_ordered_regression_gradient_direction():
    # Lowering p where the target holds (y >= i) must increase the loss.
    click = np.array([[[0.5, 0.0], [0.5, 0.5]]])
    pay = np.zeros((1, 2, 2))
    out = _fake_output(click, pay, 2, 2)
    loss = values.ordered_regression_loss(out, np.array([[1, 1]]), np.array([[0, 0]]))
    nn.backward(loss)
    grad = out.click.grad
    assert grad[0, 0, 0] < 0.0  # increasing p decreases loss -> lowering it increases


def _logit_output(click_logits, pay_logits):
    """A ModelOutput whose one threshold channel holds the sigmoid of the
    given [n, l] logits, as the heads compute it."""
    click, pay = (Var(sigmoid(np.asarray(z, dtype=np.float64)[..., None]).value)
                  for z in (click_logits, pay_logits))
    return ModelOutput(click, pay, valid_mask(click.shape[1], 1))


def test_pointwise_half_probability():
    logits = np.zeros((1, 3))
    loss = values.pointwise_loss(_logit_output(logits, logits),
                                 np.array([[1, 0, 1]]), np.array([[0, 0, 0]]))
    assert abs(float(loss.value) - math.log(2.0)) < 1e-9


def test_pointwise_perfect_predictions():
    big = 40.0
    labels = np.array([[1, 0]])
    logits = np.where(labels == 1, big, -big).astype(np.float64)
    loss = values.pointwise_loss(_logit_output(logits, logits), labels, labels)
    assert float(loss.value) < 1e-5


def test_pointwise_quarter_probability_all_zero_labels():
    logit = math.log(0.25 / 0.75)
    logits = np.full((1, 4), logit)
    loss = values.pointwise_loss(_logit_output(logits, logits),
                                 np.zeros((1, 4)), np.zeros((1, 4)))
    assert abs(float(loss.value) - (-math.log(0.75))) < 1e-9


def test_pointwise_length_mismatch():
    with pytest.raises(ValueError):
        values.pointwise_loss(_logit_output(np.zeros((1, 3)), np.zeros((1, 3))),
                              np.zeros((1, 2)), np.zeros((1, 2)))


def test_pointwise_gradient_is_zero_where_the_clip_is_active():
    # Logits of +-40 put the probability past a clip bound, so of the three
    # positions only the middle one has a gradient, and only on threshold
    # channel 0, the one the loss reads.
    logits = np.array([[40.0, 0.5, -40.0]])
    out = _logit_output(logits, -logits)
    out = ModelOutput(*(Var(np.concatenate([v.value, v.value], axis=-1))
                        for v in (out.click, out.pay)), valid_mask(3, 2))
    nn.backward(values.pointwise_loss(out, np.array([[1, 0, 1]]), np.array([[0, 1, 0]])))
    for probs in (out.click, out.pay):
        assert (probs.grad[0, [0, 2]] == 0.0).all()
        assert probs.grad[0, 1, 0] != 0.0 and (probs.grad[..., 1] == 0.0).all()


def test_finite_diff_pointwise_loss_node():
    probs, _ = _loss_inputs(5)
    params = {"click": Var(0.05 + 0.9 * probs[0]), "pay": Var(0.05 + 0.9 * probs[1])}
    rng = np.random.default_rng(6)
    clicks, pays = rng.integers(0, 2, size=(2, 5, 4))

    def loss_fn():
        out = ModelOutput(params["click"], params["pay"], valid_mask(4, 3))
        return values.pointwise_loss(out, clicks, pays)

    assert finite_diff_check(params, loss_fn, step=1e-6, n_coords=60) < 1e-6


# ---------------------------- label vectors ----------------------------------


def test_label_vector_rejects_lengths_that_differ():
    with pytest.raises(ValueError) as exc:
        values.LabelVector(np.array([1, 0, 1]), np.array([0, 0]))
    assert str(exc.value) == "clicks and pays lengths differ"


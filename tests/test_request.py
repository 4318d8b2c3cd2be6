"""The packed request parser against the per-Item reference parser."""

import itertools
import json
import math
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sortgen import model as sortmodel, server as srv
from sortgen.core import ObjectiveWeights
from tests.helpers import parse_candidates_reference, parse_request_reference

FAULTS = ("missing", "string", "null", "nan", "inf", "off_norm", "ctr_range", "cvr_range",
          "negative_price", "duplicate_id", "fractional_id", "id_beyond_int64", "ragged_emb",
          "bad_cat", "numeric_string")
FIELDS = ("id", "emb", "price", "ctr", "cvr")


@st.composite
def documents(draw, d_emb=8, d_user=8):
    """A valid rerank request of 5 to 14 candidates: unit-norm embeddings,
    distinct ids (some given as integral floats), and optional cats."""
    n = draw(st.integers(5, 14))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    emb = rng.normal(size=(n, d_emb))
    emb /= np.linalg.norm(emb, axis=1, keepdims=True)
    ids = rng.choice(2**40, size=n, replace=False) - 2**39
    candidates = []
    for i in range(n):
        cand = {"id": int(ids[i]), "emb": [float(v) for v in emb[i]],
                "price": float(rng.lognormal(3.0, 0.6)), "ctr": float(rng.beta(2, 8)),
                "cvr": float(rng.beta(2, 10))}
        if draw(st.booleans()):
            cand["cat"] = int(rng.integers(8))
        if draw(st.integers(0, 9)) == 0:
            cand["id"] = float(cand["id"])
        candidates.append(cand)
    return {"user": [float(v) for v in rng.normal(size=d_user)], "candidates": candidates}


@st.composite
def faulty_documents(draw):
    """A valid document with faults at up to two candidates, mostly its first
    two, and one to three faults at each, so that the order of the checks
    within a candidate and across candidates both matter. A numeric string
    is drawn among them; it reads as its number."""
    doc = draw(documents())
    cands = doc["candidates"]
    rows = draw(st.lists(st.integers(0, 1) | st.integers(0, len(cands) - 1), max_size=2))
    for i in [i for i in rows for _ in range(draw(st.integers(1, 3)))]:
        kind, field = draw(st.sampled_from(FAULTS)), draw(st.sampled_from(FIELDS))
        cand = cands[i]
        if kind == "missing":
            cand.pop(field, None)
        elif kind in ("string", "null", "nan", "inf"):
            value = {"string": "x", "null": None, "nan": math.nan, "inf": -math.inf}[kind]
            if field == "emb" and isinstance(cand.get("emb"), list) and cand["emb"]:
                cand["emb"][draw(st.integers(0, len(cand["emb"]) - 1))] = value
            else:
                cand[field] = value
        elif kind == "numeric_string" and isinstance(cand.get(field), (int, float)):
            cand[field] = repr(cand[field])  # not a fault: float() and int() read it
        elif kind == "off_norm" and isinstance(cand.get("emb"), list):
            cand["emb"] = [1.5 * v if isinstance(v, float) else v for v in cand["emb"]]
        elif kind in ("ctr_range", "cvr_range"):
            cand[kind[:3]] = draw(st.sampled_from([1.5, -0.25, 1.0 + 1e-12]))
        elif kind == "negative_price":
            cand["price"] = -draw(st.sampled_from([1.0, 1e-300]))
        elif kind == "duplicate_id" and i > 0:
            j = draw(st.integers(0, i - 1))
            if "id" in cands[j]:
                cand["id"] = cands[j]["id"]
        elif kind == "fractional_id" and isinstance(cand.get("id"), (int, float)):
            cand["id"] = cand["id"] + 0.5
        elif kind == "id_beyond_int64":
            cand["id"] = draw(st.sampled_from([2**63, -2**63 - 1, 2**70, 1e19]))
        elif kind == "ragged_emb" and isinstance(cand.get("emb"), list):
            cand["emb"] = cand["emb"][:-1] if draw(st.booleans()) else cand["emb"] + [0.0]
        elif kind == "bad_cat":
            cand["cat"] = draw(st.sampled_from([2.5, "x", None, 2**64, [1]]))
    return doc


def _outcome(parse, doc, config):
    try:
        return parse(doc, config), None
    except srv.RequestError as exc:
        return None, str(exc)


def _where(error: str) -> str:
    """The field path an error names: the text before its first ': '."""
    return error.split(": ", 1)[0]


def _assert_same_pool(pool, items):
    _assert_same_features(pool, sortmodel.item_features(items))


def _assert_same_features(pool, expected):
    for name, got, want in zip(expected._fields, pool, expected):
        assert got.dtype == want.dtype and got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), name


FUZZ = {"deadline": None,
        "suppress_health_check": [HealthCheck.too_slow, HealthCheck.data_too_large]}


@settings(max_examples=100, **FUZZ)
@given(doc=documents())
def test_valid_document_packs_like_the_reference(small_config, small_params, doc):
    # Bit for bit: the packed columns equal item_features of the reference's
    # Items, and the reply from the packed pool equals the reply from the Items.
    user, pool, _, _ = srv.parse_rerank_request(doc, small_config)
    ref_user, items, _, _ = parse_request_reference(doc, small_config)
    _assert_same_pool(pool, items)
    weights = ObjectiveWeights()
    packed = srv.rerank(small_config, small_params, user, pool, weights)
    listed = srv.rerank(small_config, small_params, ref_user, items, weights)
    for key in ("item_ids", "source_queues", "combined_value"):
        assert packed[key] == listed[key], key


@settings(max_examples=500, **FUZZ)
@given(doc=faulty_documents())
def test_faulty_document_names_the_reference_fault(small_config, small_params, doc):
    # Either both parsers accept the document and its reply has a finite value,
    # or both raise a RequestError naming the same candidates[i] and field.
    got, error = _outcome(srv.parse_rerank_request, doc, small_config)
    ref, ref_error = _outcome(parse_request_reference, doc, small_config)
    assert (error is None) == (ref_error is None), (error, ref_error)
    if error is not None:
        assert _where(error) == _where(ref_error), (error, ref_error)
        return
    _assert_same_pool(got[1], ref[1])
    reply = srv.rerank(small_config, small_params, got[0], got[1], ObjectiveWeights())
    assert math.isfinite(reply["combined_value"])


MALFORMED = ("missing", "numeric_string", "bool", "null", "nested_list", "ragged_emb",
             "short_emb", "fractional", "beyond_int64", "beyond_float", "nan", "inf",
             "duplicate_id", "not_an_object")


@st.composite
def malformed_pools(draw):
    """A valid document with one to four of the MALFORMED faults at its
    candidates (most often one), round-tripped through JSON. A fault of a
    scalar kind goes to one component when the field drawn is emb. A few
    leave the pool valid: a numeric string, a bool, a fractional price."""
    doc = draw(documents())
    cands = doc["candidates"]
    for _ in range(draw(st.sampled_from([1, 1, 2, 3, 4]))):
        i = draw(st.integers(0, 1) | st.integers(0, len(cands) - 1))
        kind, field = draw(st.sampled_from(MALFORMED)), draw(st.sampled_from(FIELDS + ("cat",)))
        cand = cands[i]
        if kind == "not_an_object":
            cands[i] = draw(st.sampled_from([[], [1.0, 2.0], "x", 7, None, True]))
        elif not isinstance(cand, dict):
            continue
        elif kind == "missing":
            cand.pop(field, None)
        elif kind == "duplicate_id" and i > 0 and isinstance(cands[i - 1], dict):
            cand["id"] = cands[i - 1].get("id", 0)
        elif kind in ("ragged_emb", "short_emb") and isinstance(cand.get("emb"), list):
            cand["emb"] = cand["emb"][:2] if kind == "short_emb" else cand["emb"] + [0.0]
        elif kind in ("numeric_string", "bool", "null", "nested_list", "fractional",
                      "beyond_int64", "beyond_float", "nan", "inf"):
            emb = cand.get("emb")
            k = (draw(st.integers(0, len(emb) - 1))
                 if field == "emb" and isinstance(emb, list) and emb else None)
            old = emb[k] if k is not None else cand.get(field, 0)
            value = {"numeric_string": repr(old), "bool": draw(st.booleans()), "null": None,
                     "nested_list": [old], "fractional": 12.5, "beyond_int64": 2**63,
                     "beyond_float": 10**400, "nan": math.nan,
                     "inf": draw(st.sampled_from([math.inf, -math.inf]))}[kind]
            if k is not None:
                emb[k] = value
            elif field != "emb":
                cand[field] = value
    return json.loads(json.dumps(doc))


@settings(max_examples=200, **FUZZ)
@given(doc=documents(), int_ids=st.booleans())
def test_valid_pool_packs_like_the_column_reference(small_config, doc, int_ids):
    # Bit for bit against the packer of numpy arrays per column. An id given
    # as an integral float sends both to the row reader, so half the pools
    # have none.
    if int_ids:
        for cand in doc["candidates"]:
            cand["id"] = int(cand["id"])
    doc = json.loads(json.dumps(doc))
    _, pool, _, _ = srv.parse_rerank_request(doc, small_config)
    _assert_same_features(pool, parse_candidates_reference(doc["candidates"],
                                                           small_config.d_emb))


@settings(max_examples=1000, **FUZZ)
@given(doc=malformed_pools())
def test_malformed_pool_gets_the_column_reference_error(small_config, doc):
    # The same error text as the packer of numpy arrays per column, or, where
    # the faults left the pool valid, the same packed pool.
    got, error = _outcome(srv.parse_rerank_request, doc, small_config)
    ref, ref_error = _outcome(lambda d, config: parse_candidates_reference(d["candidates"],
                                                                          config.d_emb),
                              doc, small_config)
    assert error == ref_error
    if error is None:
        _assert_same_features(got[1], ref)


def parse_doc(config, n=6):
    rng = np.random.default_rng(5)
    emb = rng.normal(size=(n, config.d_emb))
    emb /= np.linalg.norm(emb, axis=1, keepdims=True)
    return {"user": [0.0] * config.d_user,
            "candidates": [{"id": 100 + i, "emb": [float(v) for v in emb[i]], "price": 1.0,
                            "ctr": 0.1, "cvr": 0.1} for i in range(n)]}


@pytest.mark.parametrize("value, error", [
    (12.0, None), ("12", None), (12.5, "12.5 is not an integer"),
    ("12.0", "'12.0' is not an integer"),
])
def test_id_reads_as_an_integer(small_config, value, error):
    # Integral values read as int() read them; a fractional id is an error.
    doc = parse_doc(small_config)
    doc["candidates"][3]["id"] = value
    got, got_error = _outcome(srv.parse_rerank_request, doc, small_config)
    if error is None:
        assert got[1].ids[3] == 12
    else:
        assert got_error == f"candidates[3].id: {error}"


@pytest.mark.parametrize("kind", ["digit_string", "number", "object", "null"])
def test_user_must_be_a_list(small_config, kind):
    # A string of d_user digits and an object of d_user numeric keys would
    # each iterate to d_user numbers; both are refused as the rest are.
    d = small_config.d_user
    user = {"digit_string": "1" * d, "number": 12345678,
            "object": {str(i): 0.0 for i in range(d)}, "null": None}[kind]
    doc = parse_doc(small_config)
    doc["user"] = user
    for parse in (srv.parse_rerank_request, parse_request_reference):
        with pytest.raises(srv.RequestError, match=r"^user: "):
            parse(doc, small_config)


@pytest.mark.parametrize("key", ["user", "lambda", "weights.beta"])
def test_number_beyond_float_range_is_named(small_config, key):
    # An integer too large for a float makes float() raise OverflowError.
    doc = parse_doc(small_config)
    big = 10**400
    if key == "user":
        doc["user"] = [big] * small_config.d_user
    elif key == "lambda":
        doc["lambda"] = big
    else:
        doc["weights"] = {"alpha": 1.0, "beta": big, "gamma": 1.0}
    for parse in (srv.parse_rerank_request, parse_request_reference):
        with pytest.raises(srv.RequestError, match=rf"^{key}: "):
            parse(doc, small_config)


@pytest.mark.parametrize("first, second", itertools.combinations(
    ("id", "emb", "price", "ctr", "cvr", "cat"), 2))
def test_first_malformed_field_of_a_candidate_is_named(small_config, first, second):
    doc = parse_doc(small_config)
    doc["candidates"][2][first] = doc["candidates"][2][second] = None
    for parse in (srv.parse_rerank_request, parse_request_reference):
        with pytest.raises(srv.RequestError, match=rf"^candidates\[2\]\.{first}: "):
            parse(doc, small_config)


def test_candidate_count_is_capped(small_config):
    doc = parse_doc(small_config)
    doc["candidates"] = doc["candidates"][:1] * (srv.MAX_CANDIDATES + 1)
    with pytest.raises(srv.RequestError, match=r"^candidates: .*limit"):
        srv.parse_rerank_request(doc, small_config)


def test_fault_in_an_earlier_row_beats_a_malformed_later_row(small_config):
    # The later row stops the columnar pack; the earlier rule fault still wins.
    doc = parse_doc(small_config)
    doc["candidates"][1]["price"] = -1.0
    del doc["candidates"][4]["ctr"]
    with pytest.raises(srv.RequestError, match=r"^candidates\[1\]\.price: negative price"):
        srv.parse_rerank_request(doc, small_config)


@pytest.mark.parametrize("duplicate, fault", [(2, 4), (4, 2)])
def test_the_lower_of_a_duplicate_id_and_a_rule_fault_is_named(small_config, duplicate, fault):
    # Both rows pack; the duplicate is found over the packed ids, the rule
    # fault by item_fault, and the lower row wins.
    doc = parse_doc(small_config)
    doc["candidates"][duplicate]["id"] = doc["candidates"][0]["id"]
    doc["candidates"][fault]["price"] = math.nan
    where = (rf"candidates\[{duplicate}\]\.id" if duplicate < fault
             else rf"candidates\[{fault}\]\.price")
    for parse in (srv.parse_rerank_request, parse_request_reference):
        with pytest.raises(srv.RequestError, match=rf"^{where}: "):
            parse(doc, small_config)


@pytest.mark.parametrize("value", [True, False])
@pytest.mark.parametrize("key", ["user", "lambda", "weights.alpha", "weights.beta",
                                 "weights.gamma"])
def test_boolean_is_not_a_number(small_config, key, value):
    # JSON true and false load as Python bools, which float() reads as 1.0 and 0.0.
    doc = parse_doc(small_config)
    if key == "user":
        doc["user"][2] = value
    elif key == "lambda":
        doc["lambda"] = value
    else:
        doc["weights"] = {"alpha": 1.0, "beta": 1.0, "gamma": 1.0, key[8:]: value}
    doc = json.loads(json.dumps(doc))
    for parse in (srv.parse_rerank_request, parse_request_reference):
        with pytest.raises(srv.RequestError, match=rf"^{re.escape(key)}: "):
            parse(doc, small_config)


def test_boolean_in_a_candidate_reads_as_an_integer(small_config):
    # A packed column reads a bool as its integer, and so does the row reader.
    doc = parse_doc(small_config)
    doc["candidates"][1]["price"] = True
    doc["candidates"][3]["cat"] = False
    for parse in (srv.parse_rerank_request, parse_request_reference):
        _, pool, _, _ = parse(json.loads(json.dumps(doc)), small_config)
        pool = pool if isinstance(pool, sortmodel.ItemFeatures) else sortmodel.item_features(pool)
        assert pool.price[1] == 1.0 and pool.cat[3] == 0

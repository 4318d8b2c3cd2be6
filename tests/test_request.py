"""The packed request parser against the per-Item reference parser."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sortgen import model as sortmodel, server as srv
from sortgen.core import ObjectiveWeights
from tests.helpers import parse_request_reference

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
    expected = sortmodel.item_features(items)
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

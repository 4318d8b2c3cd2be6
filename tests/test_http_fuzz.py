"""Fuzz of the live HTTP service: every request gets a whole JSON reply.

The server runs on a thread, and each example is one request on its own
connection, written byte by byte: Hypothesis request bodies (valid, faulty,
truncated, retyped, with NaN, Infinity or 1e400 tokens), bad Content-Length
values, unknown routes, methods other than GET and POST, and malformed,
blank or overlong request lines. The reply must be a JSON 200 whose numbers
are finite, a JSON 4xx, or a JSON 500 (any JSON 5xx for a request the HTTP
layer refuses), and it must arrive before the server closes the connection.
A reply to HEAD has the headers of a JSON reply and no body. A body that
stops short of its Content-Length and then goes silent gets a JSON 408 once
the server's socket timeout passes.
"""

import json
import math
import re
import socket
import string
import threading
import time

import pytest
from hypothesis import HealthCheck, Phase, given, settings
from hypothesis import strategies as st

from sortgen import model as sortmodel, server as srv
from sortgen.core import EngineConfig
from tests.test_request import documents, faulty_documents

CONFIG = EngineConfig(l_s=10, l_o=4, d_model=16, n_layers=1, n_heads=2, max_count=4, seed=3)
FUZZ = settings(max_examples=120, deadline=None,
                suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                 max_size=3),
    max_leaves=8)
TOKENS = ("NaN", "Infinity", "-Infinity", "1e400", "-1e400", "true", "null", '"x"', "[]", "{}")
NUMBER = re.compile(r"-?\d+(\.\d+)?([eE][-+]?\d+)?")
PATH = st.text(string.ascii_letters + string.digits + "/-_.?=&%", max_size=20).map(
    lambda p: "/" + p)
WORD = st.text(string.ascii_letters + string.digits + "/-_.?=&%", min_size=1, max_size=12)


def _serve(tmp_path_factory):
    ckpt = tmp_path_factory.mktemp("fuzz") / "model.ckpt"
    sortmodel.save_checkpoint(ckpt, sortmodel.init_params(CONFIG), CONFIG)
    server = srv.make_server(str(ckpt), 0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server.server_address
    server.shutdown()
    server.server_close()
    thread.join(timeout=10)
    assert not thread.is_alive()


@pytest.fixture(scope="module")
def address(tmp_path_factory):
    yield from _serve(tmp_path_factory)


STALL_TIMEOUT_S = 0.5


@pytest.fixture(scope="module")
def stalling_address(tmp_path_factory):
    """A server whose socket timeout is STALL_TIMEOUT_S."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(srv, "SOCKET_TIMEOUT_S", STALL_TIMEOUT_S)
        yield from _serve(tmp_path_factory)


def _send(address, request: bytes) -> tuple[int, dict, bytes]:
    """Write one raw request on a fresh connection; the reply's status,
    headers and body, read to EOF. The server closes the connection after
    the reply, and may reset it when it left part of the request unread."""
    with socket.create_connection(address, timeout=10) as conn:
        conn.sendall(request)
        reply = b""
        try:
            while chunk := conn.recv(65536):
                reply += chunk
        except ConnectionResetError:
            pass
    head, sep, payload = reply.partition(b"\r\n\r\n")
    assert sep, f"no complete reply: {reply[:200]!r}"
    status_line, *header_lines = head.decode("latin-1").split("\r\n")
    fields = dict(line.split(": ", 1) for line in header_lines)
    assert fields.get("Content-Type") == "application/json", fields
    return int(status_line.split()[1]), fields, payload


def _exchange(address, method: str, path: str, headers: bytes, body: bytes = b"") -> tuple:
    """One request; the reply's status and its JSON document."""
    status, fields, payload = _send(
        address, f"{method} {path} HTTP/1.1\r\nHost: localhost\r\n".encode() + headers
        + b"\r\n" + body)
    assert int(fields["Content-Length"]) == len(payload)

    def no_constant(token):
        raise AssertionError(f"reply holds the non-JSON token {token}")

    return status, json.loads(payload, parse_constant=no_constant)


def _check_reply(status: int, doc) -> None:
    assert status == 200 or 400 <= status < 500 or status == 500, status
    if status != 200:
        assert isinstance(doc, dict) and isinstance(doc.get("error"), str), doc
        return
    assert isinstance(doc["item_ids"], list) and len(doc["item_ids"]) == CONFIG.l_o
    assert all(isinstance(v, int) for v in doc["item_ids"] + doc["source_queues"])
    assert isinstance(doc["combined_value"], float) and math.isfinite(doc["combined_value"])


@st.composite
def bodies(draw) -> bytes:
    doc = draw(documents() | faulty_documents())
    if draw(st.booleans()):
        doc["weights"] = {name: draw(st.floats() | st.booleans() | JSON_VALUES)
                          for name in ("alpha", "beta", "gamma")}
    if draw(st.booleans()):
        doc["lambda"] = draw(st.floats() | st.booleans() | JSON_VALUES)
    change = draw(st.sampled_from(["none", "token", "truncate", "retype", "replace"]))
    if change == "retype":
        doc[draw(st.sampled_from(["user", "candidates", "weights", "lambda"]))] = \
            draw(JSON_VALUES)
    elif change == "replace":
        doc = draw(JSON_VALUES)
    text = json.dumps(doc)  # a NaN or infinite float is written as its bare token
    if change == "token" and (numbers := list(NUMBER.finditer(text))):
        m = draw(st.sampled_from(numbers))
        text = text[:m.start()] + draw(st.sampled_from(TOKENS)) + text[m.end():]
    elif change == "truncate":
        text = text[:draw(st.integers(0, len(text) - 1))]
    return text.encode("utf-8")


@FUZZ
@given(body=bodies())
def test_any_rerank_body_gets_a_json_reply(address, body):
    status, doc = _exchange(address, "POST", "/rerank", b"Content-Length: %d\r\n" % len(body),
                            body)
    _check_reply(status, doc)


# Each example waits out the timeout, so only a handful run, and a failing
# one is reported as found rather than shrunk one timeout at a time.
@settings(FUZZ, max_examples=4, phases=[Phase.explicit, Phase.reuse, Phase.generate])
@given(body=bodies(), missing=st.integers(1, 200))
def test_truncated_then_silent_body_gets_a_json_408(stalling_address, body, missing):
    start = time.monotonic()
    status, doc = _exchange(stalling_address, "POST", "/rerank",
                            b"Content-Length: %d\r\n" % (len(body) + missing), body)
    elapsed = time.monotonic() - start
    assert status == 408 and doc["error"].startswith("body:"), (status, doc)
    assert STALL_TIMEOUT_S <= elapsed < STALL_TIMEOUT_S + 5.0, elapsed


def _not_a_body_length(value: str) -> bool:
    """A value that does not read as a length the server would wait for."""
    try:
        n = int(value)
    except ValueError:
        return True
    return n < 0 or n > srv.MAX_BODY_BYTES


@FUZZ
@given(length=st.integers(max_value=-1).map(str)
       | st.integers(min_value=srv.MAX_BODY_BYTES + 1).map(str)
       | st.text(string.ascii_letters + string.digits + "+-._ ", max_size=12)
       .filter(_not_a_body_length))
def test_bad_content_length_gets_a_json_400(address, length):
    # No body is sent: the header alone must be refused.
    status, doc = _exchange(address, "POST", "/rerank",
                            b"Content-Length: " + length.encode() + b"\r\n")
    assert status == 400 and "Content-Length" in doc["error"], (status, doc)


@FUZZ
@given(method=st.sampled_from(["GET", "POST"]),
       # The stdlib handler reads a path that starts with "//" from its
       # last leading "/", so "//rerank" is the route /rerank.
       path=PATH.filter(lambda p: "/" + p.lstrip("/") not in ("/rerank", "/healthz")))
def test_unknown_route_gets_a_json_404(address, method, path):
    body = b"{}" if method == "POST" else b""
    status, doc = _exchange(address, method, path, b"Content-Length: %d\r\n" % len(body), body)
    assert status == 404 and doc == {"error": "unknown route"}, (status, doc)


@FUZZ
@given(method=st.sampled_from(["PUT", "DELETE", "PATCH", "OPTIONS"]),
       path=st.sampled_from(["/rerank", "/healthz"]) | PATH, body=st.binary(max_size=64))
def test_other_methods_get_a_json_error(address, method, path, body):
    status, doc = _exchange(address, method, path, b"Content-Length: %d\r\n" % len(body), body)
    assert status == 501 and method in doc["error"], (status, doc)


@FUZZ
@given(path=st.sampled_from(["/rerank", "/healthz"]) | PATH)
def test_head_gets_json_headers_and_no_body(address, path):
    status, fields, payload = _send(address,
                                    f"HEAD {path} HTTP/1.1\r\nHost: localhost\r\n\r\n".encode())
    assert status == 501 and payload == b"" and int(fields["Content-Length"]) > 0


def _names_a_version(word: str) -> bool:
    return re.fullmatch(r"HTTP/\d+\.\d+", word) is not None


@st.composite
def malformed_request_lines(draw) -> bytes:
    """A request line that the HTTP layer refuses before any route runs."""
    kind = draw(st.sampled_from(["words", "version", "http09", "overlong", "blank"]))
    if kind == "blank":  # empty, or only whitespace
        return draw(st.text(" \t\x0b\x0c", max_size=8)).encode()
    method = draw(st.sampled_from(["GET", "POST", "PUT"]) | WORD)
    if kind == "words":  # not "method path" or "method path version"
        words = draw(st.lists(WORD, min_size=4, max_size=6) | st.lists(WORD, min_size=1,
                                                                       max_size=1))
        words[-1] = draw(st.sampled_from([words[-1], "HTTP/1.1", "HTTP/1.0"]))
    elif kind == "version":
        version = draw(WORD.filter(lambda w: not _names_a_version(w))
                       | st.integers(2, 99).map(lambda major: f"HTTP/{major}.0"))
        words = [method, draw(PATH), version]
    elif kind == "http09":  # an HTTP/0.9 request line may only be a GET
        words = [draw(WORD.filter(lambda w: w != "GET")), draw(PATH)]
    else:  # the stdlib reads at most 65536 bytes of a request line
        words = [method, "/" + "a" * draw(st.integers(65536, 70000)), "HTTP/1.1"]
    return " ".join(words).encode()


@FUZZ
@given(line=malformed_request_lines())
def test_malformed_request_line_gets_a_json_error(address, line):
    status, fields, payload = _send(address, line + b"\r\nHost: localhost\r\n\r\n")
    assert 400 <= status < 600 and int(fields["Content-Length"]) == len(payload), status
    assert isinstance(json.loads(payload)["error"], str)


@pytest.mark.parametrize("request_bytes", [b"\r\n", b" \t\r\nHost: localhost\r\n\r\n"],
                         ids=["crlf", "blank_then_headers"])
def test_empty_request_line_gets_a_json_400(address, request_bytes):
    status, fields, payload = _send(address, request_bytes)
    assert status == 400 and int(fields["Content-Length"]) == len(payload)
    assert "empty request line" in json.loads(payload)["error"]

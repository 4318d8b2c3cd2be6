"""Minimal HTTP rerank service: POST /rerank, GET /healthz.

Stateless per request; model parameters are loaded once, as read-only
arrays, and shared across the threaded handler pool. The first request packs
them into `model.InferenceWeights` (`model.packed_weights`), and later
requests reuse that packing; each request makes its own `ValueModel`, so its
invocation count is its own.
"""

from __future__ import annotations

import json
import math
import time
import traceback
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np

from sortgen import generation, model as sortmodel
from sortgen.core import (
    ConfigError,
    EngineConfig,
    Item,
    ObjectiveWeights,
    UserContext,
    config_hash,
    item_fault,
)
from sortgen.model import ItemFeatures, load_checkpoint


# Caps on one request, far above a 300-candidate pool (~75 KB of JSON).
MAX_BODY_BYTES = 8 * 2**20
MAX_CANDIDATES = 10_000
# Seconds a connection may send nothing before the server gives up on it: a
# request that stalls in its request line, headers or body gets a 408, and an
# idle connection is closed.
SOCKET_TIMEOUT_S = 10.0


class RequestError(ValueError):
    """Malformed rerank request; message carries the offending field path."""


def parse_rerank_request(doc: dict, config: EngineConfig) -> tuple[
        UserContext, ItemFeatures, ObjectiveWeights | None, float | None]:
    """The request's user, its candidate pool packed and validated (no Item per
    candidate), and its optional weights and lambda."""
    if not isinstance(doc, dict):
        raise RequestError("request: expected a key/value document")
    if "user" not in doc:
        raise RequestError("user: missing")
    if not isinstance(doc["user"], list):
        raise RequestError(f"user: expected a list of numbers, got "
                           f"{type(doc['user']).__name__}")
    try:
        user = UserContext(np.array([_scalar(v, "user") for v in doc["user"]]))
    except ConfigError as exc:
        raise RequestError(f"user: {exc}") from exc
    if user.user_features.shape[0] != config.d_user:
        raise RequestError(f"user: expected {config.d_user} features")
    if "candidates" not in doc or not isinstance(doc["candidates"], list):
        raise RequestError("candidates: missing or not a list")
    if len(doc["candidates"]) > MAX_CANDIDATES:
        raise RequestError(f"candidates: {len(doc['candidates'])} exceed the limit of "
                           f"{MAX_CANDIDATES}")
    if len(doc["candidates"]) < config.l_o:
        raise RequestError("candidates: insufficient candidates")
    pool = _parse_candidates(doc["candidates"], config.d_emb)
    weights = _parse_weights(doc["weights"]) if "weights" in doc else None
    lam = None
    if "lambda" in doc:
        lam = _scalar(doc["lambda"], "lambda")
        if not 0.0 <= lam <= 1.0:
            raise RequestError("lambda: outside [0,1]")
    return user, pool, weights, lam


def _scalar(value, field: str) -> float:
    """float(value) for the request's user entries, lambda and weights; JSON
    true and false are not numbers here."""
    if isinstance(value, bool):
        raise RequestError(f"{field}: expected a number, got {json.dumps(value)}")
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise RequestError(f"{field}: {exc}") from exc


def _parse_weights(w) -> ObjectiveWeights:
    """The request's objective weights; a fault in one names weights.<name>."""
    if not isinstance(w, dict):
        raise RequestError("weights: expected a key/value document")
    values = {}
    for name in ("alpha", "beta", "gamma"):
        if name not in w:
            raise RequestError(f"weights.{name}: missing")
        values[name] = _scalar(w[name], f"weights.{name}")
    try:
        return ObjectiveWeights(**values)
    except ConfigError as exc:  # a named weight's message starts with its name
        named = str(exc).split(": ", 1)[0] in values
        raise RequestError(f"weights{'.' if named else ': '}{exc}") from exc


# A candidate pool is packed column by column and validated in one vectorised
# pass: the item rules (core.item_fault) and duplicate ids over the packed
# rows. A fault is reported for the lowest-index faulty candidate, and within
# one candidate in the order id, emb, price, ctr, cvr, cat, then the item
# rules, then a duplicate id. Only a pool whose columns do not pack into
# numbers of the right shape is scanned row by row, to find the first
# malformed candidate.


def _parse_candidates(cands: list, d_emb: int) -> ItemFeatures:
    pool, malformed = _pack_columns(cands, d_emb), None
    if pool is None:
        pool, malformed = _pack_rows(cands, d_emb)
    fault = _pool_fault(pool) or malformed
    if fault is not None:
        i, field, reason = fault
        raise RequestError(f"candidates[{i}]{'.' + field if field else ''}: {reason}")
    return pool


def _pack_columns(cands: list, d_emb: int) -> ItemFeatures | None:
    """The pool packed column by column, or None when a column does not pack
    into plain numbers of its shape: a missing key, a string or other
    non-number, a ragged emb, or an id or cat that is not an int64 integer."""
    try:
        ids = np.array([c["id"] for c in cands])
        emb = np.array([c["emb"] for c in cands])
        score = np.array([[c["ctr"], c["cvr"]] for c in cands])
        price = np.array([c["price"] for c in cands])
        cat = np.array([c.get("cat", 0) for c in cands])
    except (KeyError, TypeError, ValueError):
        return None
    n = len(cands)
    if (ids.dtype != np.int64 or cat.dtype != np.int64 or ids.shape != (n,) or cat.shape != (n,)
            or emb.shape != (n, d_emb) or score.shape != (n, 2) or price.shape != (n,)
            or any(a.dtype.kind not in "if" for a in (emb, score, price))):
        return None
    return ItemFeatures(ids, np.asarray(emb, dtype=np.float64),
                        np.asarray(score, dtype=np.float64),
                        np.asarray(price, dtype=np.float64), cat)


class _Malformed(Exception):
    """A candidate field that does not read: (field, reason)."""


def _pack_rows(cands: list, d_emb: int) -> tuple[ItemFeatures, tuple[int, str, str] | None]:
    """Read the pool one candidate at a time: the rows before the first
    malformed candidate, packed, and that candidate's (index, field, reason)."""
    rows, malformed = [], None
    for i, cand in enumerate(cands):
        try:
            rows.append(_read_row(cand, d_emb))
        except _Malformed as exc:
            malformed = (i, *exc.args)
            break
    ids, emb, score, price, cat = zip(*rows) if rows else ((),) * 5
    return ItemFeatures(np.array(ids, dtype=np.int64),
                        np.array(emb, dtype=np.float64).reshape(-1, d_emb),
                        np.array(score, dtype=np.float64).reshape(-1, 2),
                        np.array(price, dtype=np.float64),
                        np.array(cat, dtype=np.int64)), malformed


def _read_row(cand, d_emb: int) -> tuple:
    if not isinstance(cand, dict):
        raise _Malformed("", "expected a key/value document")

    def field(key):
        if key not in cand:
            raise _Malformed(key, "missing")
        return cand[key]

    item_id = _integer(field("id"), "id")
    emb = field("emb")
    if not isinstance(emb, list):
        raise _Malformed("emb", f"expected a list of numbers, got {emb!r}")
    emb = [_number(v, "emb") for v in emb]
    if len(emb) != d_emb:
        raise _Malformed("emb", f"expected {d_emb} components")
    price = _number(field("price"), "price")
    score = (_number(field("ctr"), "ctr"), _number(field("cvr"), "cvr"))
    return item_id, emb, score, price, _integer(cand.get("cat", 0), "cat")


def _number(value, field: str) -> float:
    """A number, or a string that float() reads (bool is an int, as in a
    packed column)."""
    if isinstance(value, (int, float, str)):
        try:
            return float(value)
        except (ValueError, OverflowError):
            pass
    raise _Malformed(field, f"{value!r} does not read as a number")


def _integer(value, field: str) -> int:
    """An int, a float with an integral value, or a string that int() reads,
    inside int64."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    elif isinstance(value, str):
        try:
            value = int(value)
        except ValueError:
            pass
    if not isinstance(value, int):
        raise _Malformed(field, f"{value!r} is not an integer")
    if not -2**63 <= value < 2**63:
        raise _Malformed(field, f"{value} is outside int64")
    return int(value)


def _pool_fault(pool: ItemFeatures) -> tuple[int, str, str] | None:
    """The first packed row that breaks an item rule or repeats an earlier id."""
    if not len(pool.ids):
        return None
    fault = item_fault(pool.emb, pool.score, pool.price)
    _, first, inverse = np.unique(pool.ids, return_index=True, return_inverse=True)
    repeat = first[inverse] != np.arange(len(pool.ids))
    i = int(np.argmax(repeat))
    if repeat[i] and (fault is None or i < fault[0]):
        return i, "id", f"duplicate of candidates[{first[inverse[i]]}].id"
    return fault


def rerank(config: EngineConfig, params: dict, user: UserContext,
           items: list[Item] | ItemFeatures, weights: ObjectiveWeights,
           lam: float | None = None) -> dict:
    """Rerank one pool, given as items (packed once; the reply reuses their id
    objects, so a kept reply holds no copies) or already packed. The reply's
    lists are built at their exact length: a list built by appending keeps
    room to grow (16 slots for 10 ids), which callers that keep many replies
    would hold too."""
    start = time.perf_counter_ns()
    packed = isinstance(items, ItemFeatures)
    features = items if packed else sortmodel.item_features(items)
    vm = generation.ValueModel(config, params)
    queues = generation.build_queues(features, config.queue_specs,
                                     config.partition_strategy, config.l_o)
    trace = generation.generate(user, queues, vm, weights, lam=lam)
    latency = time.perf_counter_ns() - start
    return {
        "item_ids": trace.ids if packed else list(tuple(items[i].id for i in trace.rows)),
        "source_queues": list(trace.sources),
        "combined_value": trace.final_value,
        "latency_ns": latency,
    }


@dataclass
class _State:
    config: EngineConfig
    params: dict
    ckpt_hash: str
    weights: ObjectiveWeights


class RerankHandler(BaseHTTPRequestHandler):
    state: _State

    def log_message(self, fmt, *args):  # keep the test output quiet
        pass

    def _reply(self, code: int, doc: dict) -> None:
        try:
            body = json.dumps(doc, sort_keys=True, allow_nan=False).encode("utf-8")
        except ValueError:  # NaN and Infinity are not JSON
            field = next((k for k, v in sorted(doc.items())
                          if isinstance(v, float) and not math.isfinite(v)), "reply")
            code, doc = 500, {"error": f"internal error: {field} is not finite"}
            body = json.dumps(doc, sort_keys=True).encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        if self.command != "HEAD":  # a reply to HEAD has headers only
            self.wfile.write(body)

    def send_error(self, code, message=None, explain=None):
        """The refusals that the stdlib handler makes before a do_* method
        runs (a method other than GET and POST, a malformed or overlong
        request line, oversized headers), as JSON errors with the same
        status. A request line too malformed to name an HTTP version still
        gets a status line and headers."""
        if self.request_version == self.default_request_version:
            self.request_version = self.protocol_version
        self.close_connection = True
        self._reply(code, {"error": message or self.responses.get(code, ("error",))[0]})

    def handle_one_request(self):
        """The stdlib's, except that a request that stops inside its request
        line gets a JSON 408 once the socket times out (`parse_request` does
        the same for the headers, and `_post` for the body). A connection
        that sends no byte of a next request is still closed without one."""
        try:
            self.rfile.peek(1)  # a request's first byte, or the end of the stream
        except TimeoutError:  # idle
            self.close_connection = True
            return
        self.raw_requestline = None
        super().handle_one_request()
        if self.raw_requestline is None:  # the stdlib caught a timeout in readline
            self.requestline, self.command = "", None
            self.request_version = self.default_request_version
            self._timed_out("request line")

    def parse_request(self):
        """The stdlib's parse, except that an empty or blank request line,
        which it refuses without a reply, gets a 400 like any malformed one,
        and headers that stop short get a JSON 408 once the socket times out."""
        try:
            if super().parse_request():
                return True
        except TimeoutError:
            self._timed_out("headers")
            return False
        if not self.requestline.split():
            self.send_error(400, "Bad request syntax: empty request line")
        return False

    def _timed_out(self, part: str) -> None:
        self.send_error(408, f"{part}: nothing received for {self.timeout} s before its end; "
                             f"connection closed")

    def do_GET(self):
        if self.path != "/healthz":
            self._reply(404, {"error": "unknown route"})
            return
        state = self.state
        self._reply(200, {"status": "ok", "checkpoint_hash": state.ckpt_hash,
                          "config_hash": config_hash(state.config),
                          "param_count": sum(p.value.size for p in state.params.values())})

    def do_POST(self):
        try:
            code, doc = self._post()
        except Exception as exc:  # an internal fault gets a reply, not a dropped socket
            traceback.print_exc()
            code, doc = 500, {"error": f"internal error: {type(exc).__name__}: {exc}"}
        self._reply(code, doc)

    def _post(self) -> tuple[int, dict]:
        if self.path != "/rerank":
            return 404, {"error": "unknown route"}
        try:
            doc = json.loads(self.rfile.read(self._content_length()))
            user, pool, weights, lam = parse_rerank_request(doc, self.state.config)
        except RequestError as exc:
            return 400, {"error": str(exc)}
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            return 400, {"error": f"body: invalid document: {exc}"}
        except TimeoutError:  # the body stopped short of its Content-Length
            self.close_connection = True
            return 408, {"error": f"body: nothing received for {self.timeout} s, short of "
                                  f"Content-Length; connection closed"}
        weights = weights or self.state.weights
        return 200, rerank(self.state.config, self.state.params, user, pool, weights, lam)

    def _content_length(self) -> int:
        value = self.headers.get("Content-Length", "0")
        try:
            length = int(value)
        except ValueError:
            raise RequestError(f"Content-Length: not a number: {value!r}") from None
        if length < 0:
            raise RequestError(f"Content-Length: negative: {length}")
        if length > MAX_BODY_BYTES:
            raise RequestError(f"Content-Length: {length} exceeds the limit of "
                               f"{MAX_BODY_BYTES} bytes")
        return length


def make_server(ckpt_path: str, port: int,
                weights: ObjectiveWeights | None = None) -> ThreadingHTTPServer:
    """Build (but do not start) the rerank server; checkpoint loads eagerly."""
    import hashlib
    from pathlib import Path

    params, config = load_checkpoint(ckpt_path)
    state = _State(config, params, hashlib.sha256(Path(ckpt_path).read_bytes()).hexdigest(),
                   weights or ObjectiveWeights())
    handler = type("BoundHandler", (RerankHandler,),
                   {"state": state, "timeout": SOCKET_TIMEOUT_S})
    return ThreadingHTTPServer(("127.0.0.1", port), handler)

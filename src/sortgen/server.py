"""Minimal HTTP rerank service: POST /rerank, GET /healthz.

Stateless per request; model parameters are loaded once, as read-only
arrays, and shared across the handler threads. The first request packs
them into `model.InferenceWeights` (`model.packed_weights`), and later
requests reuse that packing. A request's generation keeps its queue cursors,
KV cache and invocation count to itself, so the handler threads share only
read-only state.

Each connection is served by a handler thread that is kept for the next one:
an idle thread if there is one, else a new thread while fewer than
`MAX_HANDLERS` run. A connection that finds all `MAX_HANDLERS` busy gets a
JSON 503 from the accepting thread and is closed. `server_close()` stops and
joins the handler threads. A reply's status line, headers and body leave in
one socket write.
"""

from __future__ import annotations

import json
import math
import queue
import socket
import struct
import threading
import time
import traceback
from collections import deque
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, HTTPServer
from itertools import chain

import numpy as np

from sortgen import generation, model as sortmodel
from sortgen.core import (
    ConfigError,
    EngineConfig,
    Item,
    ItemRecordError,
    ObjectiveWeights,
    UserContext,
    config_hash,
    item_fault,
    read_item,
    repeated_id,
)
from sortgen.model import ItemFeatures, load_checkpoint, pack_items


# Caps on one request, far above a 300-candidate pool (~75 KB of JSON).
MAX_BODY_BYTES = 8 * 2**20
MAX_CANDIDATES = 10_000
# Seconds a connection may send nothing before the server gives up on it: a
# request that stalls in its request line, headers or body gets a 408, and an
# idle connection is closed.
SOCKET_TIMEOUT_S = 10.0
# Handler threads, each serving one connection at a time. Past them a
# connection gets a 503, so stalled connections hold at most this many threads.
MAX_HANDLERS = 16
# Seconds a refused connection stays half-closed after its 503, so that a
# client still sending its body can read the 503 rather than a reset.
REFUSED_LINGER_S = 1.0


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


# A candidate pool is packed in one pass over the candidates and validated in
# one vectorised pass: the item rules (core.item_fault) and repeated ids
# (core.repeated_id) over the packed rows. A fault is reported for the
# lowest-index faulty candidate, and within one candidate in the order id,
# emb, price, ctr, cvr, cat, then the item rules, then a duplicate id. Only a
# pool whose fields do not pack into numbers of the right shape is read row by
# row, by the item-record reader that data files use too (core.read_item), to
# find the first malformed candidate; its rows pack by model.pack_items.


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
    """The pool packed in one pass over the candidates, or None when a field
    does not pack into plain numbers of its shape: a missing key, a string or
    other non-number, an emb that is not d_emb numbers, or an id or cat that
    is not an int64 integer (`_pack_rows` reads an integral float as one).

    struct reads a number as float() does and an id or cat as an exact int,
    and refuses the rest: a string, None, a list, an int past the range of
    its field. A bool reads as 1 or 0, as it does in `_pack_rows`."""
    n = len(cands)
    ints, floats = np.empty(2 * n, np.int64), np.empty((3 + d_emb) * n)
    try:
        ids, cat, price, ctr, cvr, emb = zip(*[
            (c["id"], c.get("cat", 0), c["price"], c["ctr"], c["cvr"], c["emb"]) for c in cands])
        if any(len(e) != d_emb for e in emb):  # a ragged emb would shift the rows after it
            return None
        struct.pack_into(f"{2 * n}q", ints, 0, *ids, *cat)
        struct.pack_into(f"{(3 + d_emb) * n}d", floats, 0, *price,
                         *chain.from_iterable(zip(ctr, cvr)), *chain.from_iterable(emb))
    except (KeyError, TypeError, ValueError, struct.error):
        return None
    return ItemFeatures(ints[:n], floats[3 * n:].reshape(n, d_emb),
                        floats[n:3 * n].reshape(n, 2), floats[:n], ints[n:])


def _pack_rows(cands: list, d_emb: int) -> tuple[ItemFeatures, tuple[int, str, str] | None]:
    """Read the pool one candidate at a time: the rows before the first
    malformed candidate, packed, and that candidate's (index, field, reason)."""
    rows, malformed = [], None
    for i, cand in enumerate(cands):
        try:
            rows.append(read_item(cand, d_emb))
        except ItemRecordError as exc:
            malformed = (i, *exc.args)
            break
    return pack_items(rows, d_emb), malformed


def _pool_fault(pool: ItemFeatures) -> tuple[int, str, str] | None:
    """The first packed row that breaks an item rule or repeats an earlier id."""
    if not len(pool.ids):
        return None
    fault = item_fault(pool.emb, pool.score, pool.price)
    repeat = repeated_id(pool.ids.tolist())
    if repeat is not None and (fault is None or repeat[0] < fault[0]):
        return repeat[0], "id", f"duplicate of candidates[{repeat[1]}].id"
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
    # A buffered wfile (io.DEFAULT_BUFFER_SIZE, 8 KiB): a reply that fits, as
    # all do but an error quoting a long value, leaves in one socket write when
    # the stdlib flushes it after the request.
    wbufsize = -1

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
        if self.close_connection:
            # The connection's last reply, still in the buffer: this thread
            # counts as idle before the flush sends it, so a client that
            # reconnects as soon as it has its reply finds the thread idle.
            self.server.connection_served()

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


class RerankServer(HTTPServer):
    """An HTTP server that serves each connection on a handler thread kept
    for reuse: an idle one if there is one, else a new one while fewer than
    MAX_HANDLERS run. Past that, the accepting thread answers a JSON 503 and
    closes the connection. `server_close()` stops and joins the threads."""

    def __init__(self, address, handler):
        super().__init__(address, handler)
        self._connections = queue.SimpleQueue()  # (request, address), or None to stop
        self._lock = threading.Lock()  # guards _handlers and _idle
        self._handlers: list[threading.Thread] = []
        self._idle = 0
        self._serving = threading.local()  # .busy: this thread's connection is not yet idle
        self._refused = deque()  # (monotonic time of the 503, half-closed socket)

    def process_request(self, request, client_address):
        with self._lock:
            accepted = self._idle > 0 or len(self._handlers) < MAX_HANDLERS
            if self._idle:
                self._idle -= 1
            elif accepted:
                thread = threading.Thread(target=self._serve_connections, name="rerank-handler",
                                          daemon=True)
                thread.start()
                self._handlers.append(thread)
        if not accepted:
            self._refuse(request)
            return
        self._connections.put((request, client_address))

    def _serve_connections(self) -> None:
        while (item := self._connections.get()) is not None:
            request, client_address = item
            self._serving.busy = True
            try:
                self.finish_request(request, client_address)
            except Exception:
                self.handle_error(request, client_address)
            finally:
                self.connection_served()  # if no reply was written, or it raised first
                self.shutdown_request(request)

    def connection_served(self) -> None:
        """Count the calling handler thread idle, once per connection."""
        if self._serving.busy:
            self._serving.busy = False
            with self._lock:
                self._idle += 1

    def _refuse(self, request) -> None:
        """The JSON 503 for a connection past the cap, sent by the accepting
        thread without waiting on the client. The socket is half-closed and
        kept for REFUSED_LINGER_S: closing it while the client still sends
        would reset the connection before the client reads the 503."""
        body = json.dumps({"error": f"server busy: all {MAX_HANDLERS} handler threads "
                                    f"(MAX_HANDLERS) are serving other connections; "
                                    f"connection closed"}).encode("utf-8")
        head = (f"HTTP/1.0 503 Service Unavailable\r\nContent-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\nConnection: close\r\n\r\n")
        request.setblocking(False)
        try:
            request.sendall(head.encode("ascii") + body)
            request.shutdown(socket.SHUT_WR)
        except OSError:  # the client is gone, or not reading
            self.close_request(request)
            return
        self._refused.append((time.monotonic(), request))
        self.service_actions()

    def service_actions(self):
        """Close the refused sockets held longer than REFUSED_LINGER_S, and
        the oldest past MAX_HANDLERS of them; serve_forever calls this on
        every pass of its loop."""
        now = time.monotonic()
        while self._refused and (len(self._refused) > MAX_HANDLERS
                                 or now - self._refused[0][0] > REFUSED_LINGER_S):
            self.close_request(self._refused.popleft()[1])

    def server_close(self):
        super().server_close()
        while self._refused:
            self.close_request(self._refused.popleft()[1])
        with self._lock:
            handlers, self._handlers, self._idle = self._handlers, [], 0
        for _ in handlers:
            self._connections.put(None)
        for thread in handlers:
            thread.join()


def make_server(ckpt_path: str, port: int,
                weights: ObjectiveWeights | None = None) -> RerankServer:
    """Build (but do not start) the rerank server; checkpoint loads eagerly."""
    import hashlib
    from pathlib import Path

    params, config = load_checkpoint(ckpt_path)
    state = _State(config, params, hashlib.sha256(Path(ckpt_path).read_bytes()).hexdigest(),
                   weights or ObjectiveWeights())
    handler = type("BoundHandler", (RerankHandler,),
                   {"state": state, "timeout": SOCKET_TIMEOUT_S})
    return RerankServer(("127.0.0.1", port), handler)

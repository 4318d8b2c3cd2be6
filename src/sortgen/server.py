"""Minimal HTTP rerank service: POST /rerank, GET /healthz.

Stateless per request; model parameters are loaded once and shared
read-only across the threaded handler pool.
"""

from __future__ import annotations

import json
import time
import traceback
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np

from sortgen import generation
from sortgen.core import ConfigError, EngineConfig, Item, ObjectiveWeights, UserContext
from sortgen.model import load_checkpoint


class RequestError(ValueError):
    """Malformed rerank request; message carries the offending field path."""


def parse_rerank_request(doc: dict, config: EngineConfig
                         ) -> tuple[UserContext, list[Item], ObjectiveWeights | None, float | None]:
    if not isinstance(doc, dict):
        raise RequestError("request: expected a key/value document")
    if "user" not in doc:
        raise RequestError("user: missing")
    try:
        user = UserContext(np.array([float(v) for v in doc["user"]]))
    except (TypeError, ValueError) as exc:
        raise RequestError(f"user: {exc}") from exc
    if user.user_features.shape[0] != config.d_user:
        raise RequestError(f"user: expected {config.d_user} features")
    if "candidates" not in doc or not isinstance(doc["candidates"], list):
        raise RequestError("candidates: missing or not a list")
    if len(doc["candidates"]) < config.l_o:
        raise RequestError("candidates: insufficient candidates")
    items = []
    first_index: dict[int, int] = {}
    for i, cand in enumerate(doc["candidates"]):
        try:
            items.append(Item(
                id=int(cand["id"]),
                embedding=np.array([float(v) for v in cand["emb"]]),
                price=float(cand["price"]),
                prior_ctr=float(cand["ctr"]),
                prior_cvr=float(cand["cvr"]),
                category=int(cand.get("cat", 0)),
            ))
        except (KeyError, TypeError, ValueError, ConfigError) as exc:
            raise RequestError(f"candidates[{i}]: {exc}") from exc
        if items[-1].embedding.shape[0] != config.d_emb:
            raise RequestError(f"candidates[{i}].emb: expected {config.d_emb} components")
        if not -2**63 <= items[-1].id < 2**63:
            raise RequestError(f"candidates[{i}].id: {items[-1].id} is outside int64")
        j = first_index.setdefault(items[-1].id, i)
        if j != i:
            raise RequestError(f"candidates[{i}].id: duplicate of candidates[{j}].id")
    weights = None
    if "weights" in doc:
        w = doc["weights"]
        try:
            weights = ObjectiveWeights(float(w["alpha"]), float(w["beta"]), float(w["gamma"]))
        except (KeyError, TypeError, ValueError, ConfigError) as exc:
            raise RequestError(f"weights: {exc}") from exc
    lam = None
    if "lambda" in doc:
        try:
            lam = float(doc["lambda"])
        except (TypeError, ValueError) as exc:
            raise RequestError(f"lambda: {exc}") from exc
        if not 0.0 <= lam <= 1.0:
            raise RequestError("lambda: outside [0,1]")
    return user, items, weights, lam


def rerank(config: EngineConfig, params: dict, user: UserContext, items: list[Item],
           weights: ObjectiveWeights, lam: float | None = None) -> dict:
    start = time.perf_counter_ns()
    vm = generation.ValueModel(config, params)
    queues = generation.build_queues(items, config.queue_specs,
                                     config.partition_strategy, config.l_o)
    trace = generation.generate(items, user, queues, vm, weights, lam=lam)
    chosen = trace.result
    latency = time.perf_counter_ns() - start
    return {
        "item_ids": [it.id for it in chosen.items],
        "source_queues": list(chosen.source_queues),
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
        body = json.dumps(doc, sort_keys=True).encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self):
        if self.path != "/healthz":
            self._reply(404, {"error": "unknown route"})
            return
        self._reply(200, {"status": "ok", "checkpoint_hash": self.state.ckpt_hash})

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
            user, items, weights, lam = parse_rerank_request(doc, self.state.config)
        except RequestError as exc:
            return 400, {"error": str(exc)}
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            return 400, {"error": f"body: invalid document: {exc}"}
        weights = weights or self.state.weights
        return 200, rerank(self.state.config, self.state.params, user, items, weights, lam)

    def _content_length(self) -> int:
        value = self.headers.get("Content-Length", "0")
        try:
            length = int(value)
        except ValueError:
            raise RequestError(f"Content-Length: not a number: {value!r}") from None
        if length < 0:
            raise RequestError(f"Content-Length: negative: {length}")
        return length


def make_server(ckpt_path: str, port: int,
                weights: ObjectiveWeights | None = None) -> ThreadingHTTPServer:
    """Build (but do not start) the rerank server; checkpoint loads eagerly."""
    import hashlib
    from pathlib import Path

    params, config = load_checkpoint(ckpt_path)
    state = _State(config, params, hashlib.sha256(Path(ckpt_path).read_bytes()).hexdigest(),
                   weights or ObjectiveWeights())
    handler = type("BoundHandler", (RerankHandler,), {"state": state})
    return ThreadingHTTPServer(("127.0.0.1", port), handler)

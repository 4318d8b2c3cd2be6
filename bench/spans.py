"""Spans around the calls into sortgen's public functions.

`install` wraps module attributes with timers from the benchmark's own code;
the package itself is not edited. Every span adds its duration to the
current record under its own name and under "parent>name", so a layer's
self time is its total minus the named children inside it. In the service
process one record is opened per POST, so spans of one request share it.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.records: list[defaultdict] = [defaultdict(float)]
        self._stack: list[str] = []
        self._seen: set | None = None  # prefixes computed in the current request

    def new_record(self) -> None:
        self.records.append(defaultdict(float))

    def wrap(self, name: str, fn, on_call=None, request=False):
        """Time `fn` as span `name`; `request` scopes prefix reuse to the call."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else ""
            self._stack.append(name)
            if request:
                self._seen = set()
            if on_call is not None:
                on_call(args)
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                ns = time.perf_counter_ns() - start
                self._stack.pop()
                if request:
                    self._seen = None
                rec = self.records[-1]
                rec[name] += ns
                rec[name + "#calls"] += 1
                rec[f"{parent}>{name}"] += ns
                rec[f"{parent}>{name}#calls"] += 1

        return wrapper

    def count_positions(self, args) -> None:
        """model.forward(config, params, e_item, user, e_score): count the
        rows x prefix length it computes, and how many of those prefixes
        (user + items up to that position) no earlier call in the same
        request had computed. Outside a request every call stands alone.
        Evaluation forwards inside trainer.evaluate_model are not counted."""
        if "trainer.evaluate_model" in self._stack:
            return
        e_item, user, e_score = args[2], args[3], args[4]
        n, l = e_item.shape[0], e_item.shape[1]
        seen = self._seen if self._seen is not None else set()
        new = 0
        for r in range(n):
            key = hash(user[r].tobytes())
            for j in range(l):
                key = hash((key, e_item[r, j].tobytes(), e_score[r, j].tobytes()))
                if key not in seen:
                    seen.add(key)
                    new += 1
        rec = self.records[-1]
        rec["positions"] += n * l
        rec["new_positions"] += new


def install(tracer: Tracer) -> list:
    """Wrap sortgen's layer entry points; returns what `uninstall` needs."""
    from sortgen import generation, model, nn, server, simulator, trainer, values

    targets = [
        (model, "forward", "model.forward", tracer.count_positions, False),
        (model, "load_checkpoint", "model.load_checkpoint", None, False),
        (server, "load_checkpoint", "model.load_checkpoint", None, False),
        (model, "save_checkpoint", "model.save_checkpoint", None, False),
        (values, "combined_values_batch", "values.combined_values_batch", None, False),
        (values, "ordered_regression_loss", "values.loss", None, False),
        (generation.ValueModel, "combined_values", "generation.ValueModel.combined_values",
         None, False),
        (generation, "generate", "generation.generate", None, False),
        (generation, "build_queues", "generation.build_queues", None, False),
        (server, "parse_rerank_request", "server.parse_rerank_request", None, False),
        (server, "rerank", "server.rerank", None, True),
        (nn, "backward", "nn.backward", None, False),
        (nn, "adam_step", "nn.adam_step", None, False),
        (trainer, "evaluate_model", "trainer.evaluate_model", None, False),
        (trainer, "train", "trainer.train", None, False),
        (simulator, "build_dataset", "simulator.build_dataset", None, False),
    ]
    undo = []
    for owner, attr, name, on_call, request in targets:
        original = getattr(owner, attr)
        setattr(owner, attr, tracer.wrap(name, original, on_call, request))
        undo.append((owner, attr, original))
    return undo


def totals(records) -> defaultdict:
    """Sum span records; absent keys read as zero."""
    out: defaultdict = defaultdict(float)
    for rec in records:
        for key, value in rec.items():
            out[key] += value
    return out


def uninstall(undo: list) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)


def _ms(ns: float) -> float:
    return ns / 1e6


def layer_metrics(timed: list, setup: list, per: float, epochs: float = 0.0) -> dict:
    """Per-layer figures from the span records of the timed region, divided
    by `per` (requests or optimiser steps) and, for the per-epoch figures, by
    `epochs`; the load and simulation figures come from the set-up records."""
    t, setup = totals(timed), totals(setup)
    cv = "generation.ValueModel.combined_values"
    ev = "trainer.evaluate_model"
    per = per or 1.0

    def per_epoch(value):
        return value / epochs if epochs else 0.0

    return {
        "model.forward_calls": (t["model.forward#calls"] - t[f"{ev}>model.forward#calls"]) / per,
        "model.forward_positions": t["positions"] / per,
        "model.new_position_ratio": t["new_positions"] / t["positions"] if t["positions"] else 0.0,
        "model.forward_ms": _ms(t["model.forward"] - t[f"{ev}>model.forward"]) / per,
        "generation.pack_ms": _ms(t[cv] - t[f"{cv}>model.forward"]
                                  - t[f"{cv}>values.combined_values_batch"]) / per,
        "values.combined_ms": _ms(t["values.combined_values_batch"]) / per,
        "generation.select_ms": _ms(t["generation.generate"] - t[f"generation.generate>{cv}"]) / per,
        "generation.build_queues_ms": _ms(t["generation.build_queues"]) / per,
        "server.final_value_ms": _ms(t["server.rerank"] - t["server.rerank>generation.build_queues"]
                                     - t["server.rerank>generation.generate"]) / per,
        "server.parse_ms": _ms(t["server.parse_rerank_request"]) / per,
        "model.load_checkpoint_ms": _ms(setup["model.load_checkpoint"])
        / max(setup["model.load_checkpoint#calls"], 1.0),
        "values.loss_ms": _ms(t["trainer.train>values.loss"]) / per,
        "nn.backward_ms": _ms(t["nn.backward"]) / per,
        "nn.adam_step_ms": _ms(t["nn.adam_step"]) / per,
        "trainer.evaluate_ms": per_epoch(_ms(t[ev])),
        "model.save_checkpoint_ms": per_epoch(_ms(t["model.save_checkpoint"])),
        "model.save_checkpoint_calls": per_epoch(t["model.save_checkpoint#calls"]),
        "simulator.build_dataset_s": setup["simulator.build_dataset"] / 1e9
        / max(setup["simulator.build_dataset#calls"], 1.0),
    }

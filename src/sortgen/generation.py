"""Candidate queues and slate generation.

The generator runs l_o greedy selection steps. At each step it expands the
current prefix by the head of every non-empty queue, scores all expansions
in one incremental model step that computes only the new position over the
prefix's cached attention keys and values, applies the MMR criterion
(value traded against maximum cosine similarity within a sliding window of
already-selected items), and consumes the winning head. A naive reference
that issues one full forward per candidate per step and an exhaustive
permutation oracle back the correctness tests and the latency benchmark.
"""

from __future__ import annotations

import itertools
import json
import time
from dataclasses import dataclass, field

import numpy as np

from sortgen import model as sortmodel
from sortgen import values as listvalue
from sortgen.core import (
    ConfigError,
    EngineConfig,
    Item,
    ObjectiveWeights,
    QueueSpec,
    SubList,
    UserContext,
)


class InfeasibleConfig(ConfigError):
    """All queues exhausted before the slate reached l_o items."""


def composite_score(item: Item, spec: QueueSpec) -> float:
    terms = {
        "ctr": item.prior_ctr,
        "cvr": item.prior_cvr,
        "ctr_cvr": item.prior_ctr * item.prior_cvr,
        "price": item.price,
        "ctr_cvr_price": item.prior_ctr * item.prior_cvr * item.price,
    }
    return sum(c * terms[k] for k, c in spec.coeffs.items())


@dataclass
class CandidateQueues:
    """Disjoint objective-ordered queues over the pool, plus consumption state."""

    queues: list[list[int]]  # pool indices, per queue, score-descending
    cursors: list[int] = field(default_factory=list)
    selected: np.ndarray | None = None  # bool over the pool

    def __post_init__(self):
        if not self.cursors:
            self.cursors = [0] * len(self.queues)

    def reset(self, pool_size: int) -> None:
        self.cursors = [0] * len(self.queues)
        self.selected = np.zeros(pool_size, dtype=bool)

    def head(self, qi: int) -> int | None:
        """Next unconsumed, unselected pool index of queue qi, or None."""
        queue, cur = self.queues[qi], self.cursors[qi]
        while cur < len(queue) and self.selected[queue[cur]]:
            cur += 1
        self.cursors[qi] = cur
        return queue[cur] if cur < len(queue) else None

    def consume(self, qi: int, pool_index: int) -> None:
        self.selected[pool_index] = True
        self.cursors[qi] += 1


def build_queues(pool: list[Item], specs, strategy: str, l_o: int) -> CandidateQueues:
    """Partition the pool into disjoint per-objective queues of size <= l_o.

    DFS fills whole queues in priority order; BFS deals one item per queue
    per round, again in priority order. Ties break by ascending item id.
    """
    if not pool:
        raise ConfigError("empty candidate pool")
    specs = sorted(specs, key=lambda s: s.priority)
    if len({s.priority for s in specs}) != len(specs):
        raise ConfigError("duplicate queue priorities")

    # Per queue: pool indices sorted by that queue's score desc, id asc.
    rankings = [
        sorted(range(len(pool)),
               key=lambda idx, s=s: (-composite_score(pool[idx], s), pool[idx].id))
        for s in specs
    ]
    assigned = np.zeros(len(pool), dtype=bool)
    queues: list[list[int]] = [[] for _ in specs]

    if strategy == "dfs":
        for qi, ranking in enumerate(rankings):
            for idx in ranking:
                if len(queues[qi]) >= l_o:
                    break
                if not assigned[idx]:
                    queues[qi].append(idx)
                    assigned[idx] = True
    elif strategy == "bfs":
        while True:
            progressed = False
            for qi, ranking in enumerate(rankings):
                if len(queues[qi]) >= l_o:
                    continue
                for idx in ranking:
                    if not assigned[idx]:
                        queues[qi].append(idx)
                        assigned[idx] = True
                        progressed = True
                        break
            if not progressed:
                break
    else:
        raise ConfigError(f"unknown partition strategy {strategy!r}")

    cq = CandidateQueues(queues)
    cq.reset(len(pool))
    return cq


def similarity(a: Item, b: Item) -> float:
    """Cosine similarity; a plain dot product under the unit-norm invariant."""
    return float(np.dot(a.embedding, b.embedding))


def window_max_similarity(candidate: Item, prefix: list[Item], window_w: int) -> float:
    """Max similarity against the last min(window_w, len(prefix)) chosen items."""
    if not prefix:
        return 0.0
    recent = prefix[-window_w:]
    return max(similarity(candidate, b) for b in recent)


def mmr_score(candidate: Item, prefix: list[Item], window_w: int, lam: float,
              value_with_candidate: float) -> float:
    if not 0.0 <= lam <= 1.0:
        raise ConfigError("lambda outside [0,1]")
    return lam * value_with_candidate - (1.0 - lam) * window_max_similarity(
        candidate, prefix, window_w)


# ------------------------------- traces -------------------------------------


@dataclass
class StepRecord:
    candidates: list[tuple[int, int, float, float]]  # (queue idx, item id, value, mmr)
    chosen_queue: int


@dataclass
class GenerationTrace:
    result: SubList
    steps: list[StepRecord]
    invocations: int
    wall_ns: int
    simulated_overhead_ns: int = 0

    @property
    def final_value(self) -> float:
        """Combined value of the whole slate, as scored at the last step."""
        last = self.steps[-1]
        return next(v for qi, _, v, _ in last.candidates if qi == last.chosen_queue)

    def to_record(self) -> str:
        doc = {
            "item_ids": [it.id for it in self.result.items],
            "source_queues": list(self.result.source_queues),
            "step_values": [
                [[qi, iid, v, m] for qi, iid, v, m in s.candidates] for s in self.steps
            ],
            "invocations": self.invocations,
            "wall_ns": self.wall_ns,
            "simulated_overhead_ns": self.simulated_overhead_ns,
        }
        return json.dumps(doc, sort_keys=True)


# ------------------------------ generation ----------------------------------


class ValueModel:
    """Bundles parameters + config and counts batched model invocations."""

    def __init__(self, config: EngineConfig, params: dict,
                 overhead_us: float = 0.0):
        self.config = config
        self.params = params
        self.overhead_us = overhead_us
        self.invocations = 0

    def combined_values(self, sequences: list[list[Item]], user: UserContext,
                        weights: ObjectiveWeights) -> np.ndarray:
        """One batched full forward over same-length sequences -> combined values."""
        self.invocations += 1
        emb = np.stack([np.stack([it.embedding for it in seq]) for seq in sequences])
        score = np.array([[[it.prior_ctr, it.prior_cvr] for it in seq] for seq in sequences])
        prices = np.array([[it.price for it in seq] for seq in sequences])
        u = np.stack([user.user_features] * len(sequences))
        click, pay = sortmodel.infer(self.config, self.params, emb, u, score)
        return listvalue.combined_values_batch(click, pay, prices, weights)

    def extension_values(self, cache: sortmodel.Prefix, prefix: list[Item],
                         candidates: list[Item], weights: ObjectiveWeights
                         ) -> tuple[np.ndarray, sortmodel.Extension]:
        """Combined values of `prefix` + each candidate, from one incremental
        step over the prefix's cache; the extension holds the new cache rows."""
        self.invocations += 1
        emb, score = sortmodel.item_features(candidates)
        ext = sortmodel.extend(self.config, self.params, cache, emb, score)
        prices = np.array([[it.price for it in prefix] + [c.price] for c in candidates])
        return listvalue.combined_values_batch(ext.click, ext.pay, prices, weights), ext


def _run_greedy(pool: list[Item], user: UserContext, queues: CandidateQueues,
                vm: ValueModel, weights: ObjectiveWeights, lam: float,
                window_w: int, l_o: int, cached: bool) -> GenerationTrace:
    queues.reset(len(pool))
    start_invocations = vm.invocations
    start = time.perf_counter_ns()
    prefix: list[Item] = []
    sources: list[int] = []
    steps: list[StepRecord] = []
    cache = sortmodel.Prefix.empty(vm.config, user.user_features) if cached else None

    for _ in range(l_o):
        heads = []
        for qi in range(len(queues.queues)):
            idx = queues.head(qi)
            if idx is not None:
                heads.append((qi, idx))
        if not heads:
            raise InfeasibleConfig("all queues exhausted before l_o selections")

        candidates = [pool[idx] for _, idx in heads]
        if cached:
            vals, ext = vm.extension_values(cache, prefix, candidates, weights)
        else:
            vals = np.array([vm.combined_values([prefix + [cand]], user, weights)[0]
                             for cand in candidates])

        records = []
        best = None
        for k, ((qi, idx), cand, value) in enumerate(zip(heads, candidates, vals)):
            score = mmr_score(cand, prefix, window_w, lam, float(value))
            records.append((qi, cand.id, float(value), score))
            # Queues are disjoint, so per-step candidates are distinct items;
            # strict > keeps the lowest queue index on score ties, and within
            # a queue the head is already the lowest-id top scorer.
            if best is None or score > best[0]:
                best = (score, k, qi, idx, cand)
        _, k, qi, idx, cand = best
        queues.consume(qi, idx)
        prefix.append(cand)
        sources.append(qi)
        steps.append(StepRecord(records, qi))
        if cached:
            cache = ext.choose(cache, k)

    wall = time.perf_counter_ns() - start
    invocations = vm.invocations - start_invocations
    overhead = int(invocations * vm.overhead_us * 1000)
    return GenerationTrace(SubList(tuple(prefix), tuple(sources)), steps,
                           invocations, wall, overhead)


def generate(pool: list[Item], user: UserContext, queues: CandidateQueues,
             vm: ValueModel, weights: ObjectiveWeights, lam: float | None = None,
             window_w: int | None = None) -> GenerationTrace:
    """Greedy slate construction: one incremental step per position (<= l_o
    model calls), each scoring every queue head over the cached prefix."""
    cfg = vm.config
    lam = cfg.lambda_mmr if lam is None else lam
    window_w = cfg.window_w if window_w is None else window_w
    return _run_greedy(pool, user, queues, vm, weights, lam, window_w, cfg.l_o, cached=True)


def generate_iterative_reference(pool: list[Item], user: UserContext,
                                 queues: CandidateQueues, vm: ValueModel,
                                 weights: ObjectiveWeights, lam: float | None = None,
                                 window_w: int | None = None) -> GenerationTrace:
    """Same selection semantics, but one full forward per candidate per step."""
    cfg = vm.config
    lam = cfg.lambda_mmr if lam is None else lam
    window_w = cfg.window_w if window_w is None else window_w
    return _run_greedy(pool, user, queues, vm, weights, lam, window_w, cfg.l_o, cached=False)


def template_generate(pool: list[Item], queues: CandidateQueues,
                      pattern: tuple[int, ...]) -> SubList:
    """Ablation: fixed source-queue pattern, no model evaluation.

    Falls back to the first non-empty queue when the patterned one is dry.
    """
    queues.reset(len(pool))
    prefix: list[Item] = []
    sources: list[int] = []
    for qi in pattern:
        idx = queues.head(qi)
        if idx is None:
            for alt in range(len(queues.queues)):
                idx = queues.head(alt)
                if idx is not None:
                    qi = alt
                    break
        if idx is None:
            raise InfeasibleConfig("all queues exhausted during template generation")
        queues.consume(qi, idx)
        prefix.append(pool[idx])
        sources.append(qi)
    return SubList(tuple(prefix), tuple(sources))


def top_queue_spec(weights: ObjectiveWeights) -> QueueSpec:
    """Ablation: a single pointwise-score queue replacing the objective queues."""
    return QueueSpec("ranking_top", {
        "ctr": weights.alpha,
        "ctr_cvr": weights.beta,
        "ctr_cvr_price": weights.gamma,
    }, priority=0)


def top_queue_generate(pool: list[Item], weights: ObjectiveWeights, l_o: int) -> SubList:
    spec = top_queue_spec(weights)
    queues = build_queues(pool, [spec], "dfs", l_o)
    if len(queues.queues[0]) < l_o:
        raise InfeasibleConfig("pool smaller than l_o")
    items = tuple(pool[idx] for idx in queues.queues[0][:l_o])
    return SubList(items, (0,) * l_o)


ORACLE_GUARD = 10**6


def exhaustive_oracle(pool: list[Item], user: UserContext, vm: ValueModel,
                      weights: ObjectiveWeights, l_o: int,
                      batch_size: int = 4096) -> tuple[float, SubList]:
    """Evaluate every ordered selection of l_o items; return the best.

    Feasible only at desk scale: the arrangement count P(l_s, l_o) is
    guarded at 1e6. Ties resolve to the lexicographically smallest id
    sequence.
    """
    n = len(pool)
    count = 1
    for k in range(l_o):
        count *= n - k
    if count > ORACLE_GUARD:
        raise ConfigError(f"arrangement count {count} exceeds oracle guard {ORACLE_GUARD}")

    # Lexicographic id order makes the first maximum the tie-break winner.
    order = sorted(range(n), key=lambda i: pool[i].id)
    best_val, best_perm = -np.inf, None
    perms = itertools.permutations(order, l_o)
    while True:
        chunk = list(itertools.islice(perms, batch_size))
        if not chunk:
            break
        sequences = [[pool[i] for i in perm] for perm in chunk]
        vals = vm.combined_values(sequences, user, weights)
        k = int(np.argmax(vals))
        if vals[k] > best_val:
            best_val, best_perm = float(vals[k]), chunk[k]
    items = tuple(pool[i] for i in best_perm)
    return best_val, SubList(items, (0,) * l_o)


def intra_window_similarity(items, window_w: int) -> float:
    """Mean over positions t >= 2 of max similarity to the previous window."""
    sims = [window_max_similarity(items[t], list(items[:t]), window_w)
            for t in range(1, len(items))]
    return float(np.mean(sims)) if sims else 0.0

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

import functools
import itertools
import json
import math
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
    UserContext,
)


class InfeasibleConfig(ConfigError):
    """All queues exhausted before the slate reached l_o items."""


def composite_score(features: sortmodel.ItemFeatures, spec: QueueSpec) -> np.ndarray:
    """The queue's score of every packed item, [n]."""
    ctr, cvr, price = features.score[:, 0], features.score[:, 1], features.price
    terms = {
        "ctr": ctr,
        "cvr": cvr,
        "ctr_cvr": ctr * cvr,
        "price": price,
        "ctr_cvr_price": ctr * cvr * price,
    }
    return sum(c * terms[k] for k, c in spec.coeffs.items())


@dataclass
class CandidateQueues:
    """Disjoint objective-ordered queues over the packed pool, and a read cursor
    per queue: an item is only ever taken as the head of its own queue."""

    queues: list[list[int]]  # pool indices, per queue, score-descending
    features: sortmodel.ItemFeatures  # the packed pool
    cursors: list[int] = field(default_factory=list)

    def reset(self) -> None:
        self.cursors = [0] * len(self.queues)

    def head(self, qi: int) -> int | None:
        """Next unconsumed pool index of queue qi, or None."""
        queue, cur = self.queues[qi], self.cursors[qi]
        return queue[cur] if cur < len(queue) else None

    def consume(self, qi: int) -> None:
        self.cursors[qi] += 1


def build_queues(features: sortmodel.ItemFeatures, specs, strategy: str,
                 l_o: int) -> CandidateQueues:
    """Partition the packed pool into disjoint per-objective queues of size <= l_o.

    DFS fills whole queues in priority order; BFS deals one item per queue
    per round, again in priority order. Ties break by ascending item id.
    """
    if not len(features.ids):
        raise ConfigError("empty candidate pool")
    specs = sorted(specs, key=lambda s: s.priority)
    if len({s.priority for s in specs}) != len(specs):
        raise ConfigError("duplicate queue priorities")

    # Per queue: pool indices sorted by that queue's score desc, id asc.
    rankings = [np.lexsort((features.ids, -composite_score(features, s))).tolist()
                for s in specs]
    assigned = np.zeros(len(features.ids), dtype=bool)
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

    return CandidateQueues(queues, features, [0] * len(queues))


# Similarity is cosine similarity, a dot product of unit-norm embeddings.
# tests/helpers.py holds the per-Item similarity, window_max_similarity and
# mmr_score that the greedy loop's MMR arithmetic is tested against.


@functools.lru_cache(maxsize=256)
def window_mask(length: int, window: int) -> tuple[np.ndarray, np.ndarray]:
    """The [length, length] mask of the pairs (t, s) with 1 <= t - s <= window,
    and the [length] mask of the rows with any; memoised, so both are read-only."""
    t = np.arange(length)
    lag = t[:, None] - t[None, :]
    mask = (lag >= 1) & (lag <= window)
    has_prev = mask.any(axis=1)
    mask.flags.writeable = has_prev.flags.writeable = False
    return mask, has_prev


def window_similarities(emb: np.ndarray, window: int) -> np.ndarray:
    """Each row's max similarity to the `window` rows before it, [l], from
    the rows' [l, l] Gram block; 0 for a row with none before it."""
    mask, has_prev = window_mask(len(emb), int(window))
    best = (emb @ emb.T).max(axis=1, where=mask, initial=-np.inf)
    return np.where(has_prev, best, 0.0)


# ------------------------------- traces -------------------------------------


@dataclass
class StepRecord:
    candidates: list[tuple[int, int, float, float]]  # (queue idx, item id, value, mmr)
    chosen_queue: int


@dataclass
class Slate:
    """A slate as rows of the packed pool it was chosen from."""

    features: sortmodel.ItemFeatures
    rows: tuple[int, ...]     # the slate, as pool indices
    sources: tuple[int, ...]  # the queue each slate item was taken from

    @property
    def ids(self) -> list[int]:
        """The slate's item ids, read from its pool rows without building items."""
        return self.features.ids[list(self.rows)].tolist()


@dataclass
class GenerationTrace(Slate):
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
            "item_ids": self.ids,
            "source_queues": list(self.sources),
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
    """The value network on `weights`, its parameters packed when the model
    is made (`model.packed_weights`: once per loaded checkpoint), with a count
    of batched model invocations: full forwards (`pool_values`) and greedy
    steps (`extension_values`) both run on the weights. Make one per request:
    the count is the model's own, and only the read-only weights are shared.
    """

    def __init__(self, config: EngineConfig, params: dict,
                 overhead_us: float = 0.0):
        self.config = config
        self.weights = sortmodel.packed_weights(config, params)
        self.overhead_us = overhead_us
        self.invocations = 0

    def combined_values(self, sequences: list[list[Item]], user: UserContext,
                        weights: ObjectiveWeights) -> np.ndarray:
        """One batched full forward over same-length sequences -> combined values."""
        n, l = len(sequences), len(sequences[0])
        if any(len(seq) != l for seq in sequences):
            raise ConfigError("sequences of different lengths in one batch")
        f = sortmodel.item_features([it for seq in sequences for it in seq])
        return self.pool_values(f, np.arange(n * l).reshape(n, l), user, weights)

    def pool_values(self, features: sortmodel.ItemFeatures, rows: np.ndarray,
                    user: UserContext, weights: ObjectiveWeights) -> np.ndarray:
        """Combined values of sequences of packed pool rows ([n, l] indices),
        from one batched full forward."""
        self.invocations += 1
        n = rows.shape[0]
        u = np.stack([user.user_features] * n)
        click, pay = sortmodel.infer(self.weights, features.emb[rows], u, features.score[rows])
        return listvalue.combined_values_batch(click, pay, features.price[rows], weights)

    def extension_values(self, cache: sortmodel.Prefix, x: np.ndarray, prices: np.ndarray,
                         pay_count: float, gmv: float, weights: ObjectiveWeights
                         ) -> tuple[np.ndarray, np.ndarray, np.ndarray, sortmodel.Extension]:
        """Combined values of the cached prefix extended by each candidate,
        from one incremental step, and each extended list's expected pay
        count and GMV (`values.step_values`). x: [n, d_model], the
        candidates' projected rows; prices: [n], their prices; pay_count and
        gmv: the prefix's."""
        self.invocations += 1
        ext = sortmodel.extend(self.weights, cache, x)
        return (*listvalue.step_values(ext.click, ext.pay, prices, pay_count, gmv, weights), ext)


def _run_greedy(user: UserContext, queues: CandidateQueues, vm: ValueModel,
                weights: ObjectiveWeights, lam: float | None, window_w: int | None,
                cached: bool) -> GenerationTrace:
    """The greedy loop over the queues' packed pool, queues.features."""
    cfg = vm.config
    lam = cfg.lambda_mmr if lam is None else lam
    if not 0.0 <= lam <= 1.0:
        raise ConfigError("lambda outside [0,1]")
    window_w = cfg.window_w if window_w is None else window_w
    if window_w < 1:
        raise ConfigError(f"window_w must be >= 1, got {window_w}")
    features = queues.features
    queues.reset()
    start_invocations = vm.invocations
    start = time.perf_counter_ns()
    chosen: list[int] = []  # pool indices
    sources: list[int] = []
    steps: list[StepRecord] = []
    # A queue head stays in place until it is chosen, so each (candidate,
    # chosen item) similarity is computed once and reused while the chosen
    # item is in the window.
    sims: dict[tuple[int, int], float] = {}

    def similarity(a: int, b: int) -> float:
        if (a, b) not in sims:
            sims[a, b] = float(np.dot(features.emb[a], features.emb[b]))
        return sims[a, b]

    if cached:
        # Every row a step can score is in a queue: project those rows once,
        # queue after queue, so queue qi's head is row offsets[qi] + its cursor.
        held = [idx for queue in queues.queues for idx in queue]
        offsets = list(itertools.accumulate((len(q) for q in queues.queues), initial=0))
        inputs = vm.weights.project(features.emb[held], features.score[held])
        cache = sortmodel.Prefix.empty(vm.weights, user.user_features, len(queues.queues))
        pay_count, gmv = 0.0, 0.0  # the chosen prefix's expected pay count and GMV

    for _ in range(cfg.l_o):
        heads = []
        for qi in range(len(queues.queues)):
            idx = queues.head(qi)
            if idx is not None:
                heads.append((qi, idx))
        if not heads:
            raise InfeasibleConfig("all queues exhausted before l_o selections")

        rows = [idx for _, idx in heads]
        if cached:
            slots = [offsets[qi] + queues.cursors[qi] for qi, _ in heads]
            vals, pay_counts, gmvs, ext = vm.extension_values(
                cache, inputs[slots], features.price[rows], pay_count, gmv, weights)
        else:
            vals = np.array([vm.pool_values(features, np.array([chosen + [r]]), user, weights)[0]
                             for r in rows])

        recent = chosen[-window_w:]
        records = []
        best = None
        for k, ((qi, idx), value) in enumerate(zip(heads, vals)):
            max_sim = max((similarity(idx, j) for j in recent), default=0.0)
            score = lam * float(value) - (1.0 - lam) * max_sim
            records.append((qi, int(features.ids[idx]), float(value), score))
            # Queues are disjoint, so per-step candidates are distinct items;
            # strict > keeps the lowest queue index on score ties, and within
            # a queue the head is already the lowest-id top scorer.
            if best is None or score > best[0]:
                best = (score, k, qi, idx)
        _, k, qi, idx = best
        queues.consume(qi)
        chosen.append(idx)
        sources.append(qi)
        steps.append(StepRecord(records, qi))
        if cached:
            cache = ext.choose(cache, k)
            pay_count, gmv = pay_counts[k], gmvs[k]

    wall = time.perf_counter_ns() - start
    invocations = vm.invocations - start_invocations
    overhead = int(invocations * vm.overhead_us * 1000)
    return GenerationTrace(features, tuple(chosen), tuple(sources), steps, invocations, wall,
                           overhead)


def generate(user: UserContext, queues: CandidateQueues, vm: ValueModel,
             weights: ObjectiveWeights, lam: float | None = None,
             window_w: int | None = None) -> GenerationTrace:
    """Greedy slate construction: one incremental step per position (<= l_o
    model calls), each scoring every queue head over the cached prefix."""
    return _run_greedy(user, queues, vm, weights, lam, window_w, cached=True)


def generate_iterative_reference(user: UserContext, queues: CandidateQueues,
                                 vm: ValueModel, weights: ObjectiveWeights,
                                 lam: float | None = None,
                                 window_w: int | None = None) -> GenerationTrace:
    """Same selection semantics, but one full forward per candidate per step."""
    return _run_greedy(user, queues, vm, weights, lam, window_w, cached=False)


def template_generate(queues: CandidateQueues, pattern: tuple[int, ...]) -> Slate:
    """Ablation: fixed source-queue pattern, no model evaluation.

    Falls back to the first non-empty queue when the patterned one is dry.
    """
    queues.reset()
    rows: list[int] = []
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
        queues.consume(qi)
        rows.append(idx)
        sources.append(qi)
    return Slate(queues.features, tuple(rows), tuple(sources))


def top_queue_spec(weights: ObjectiveWeights) -> QueueSpec:
    """Ablation: a single pointwise-score queue replacing the objective queues."""
    return QueueSpec("ranking_top", {
        "ctr": weights.alpha,
        "ctr_cvr": weights.beta,
        "ctr_cvr_price": weights.gamma,
    }, priority=0)


def top_queue_generate(features: sortmodel.ItemFeatures, weights: ObjectiveWeights,
                       l_o: int) -> Slate:
    queues = build_queues(features, [top_queue_spec(weights)], "dfs", l_o)
    if len(queues.queues[0]) < l_o:
        raise InfeasibleConfig("pool smaller than l_o")
    return Slate(features, tuple(queues.queues[0][:l_o]), (0,) * l_o)


ORACLE_GUARD = 10**6


def exhaustive_oracle(features: sortmodel.ItemFeatures, user: UserContext, vm: ValueModel,
                      weights: ObjectiveWeights, l_o: int,
                      batch_size: int = 4096) -> tuple[float, Slate]:
    """Evaluate every ordered selection of l_o items; return the best.

    Feasible only at desk scale: the arrangement count P(l_s, l_o) is
    guarded at 1e6. Ties resolve to the lexicographically smallest id
    sequence.
    """
    count = math.perm(len(features.ids), l_o)
    if count == 0:
        raise InfeasibleConfig("pool smaller than l_o")
    if count > ORACLE_GUARD:
        raise ConfigError(f"arrangement count {count} exceeds oracle guard {ORACLE_GUARD}")

    # Lexicographic id order makes the first maximum the tie-break winner.
    order = np.argsort(features.ids, kind="stable").tolist()
    best_val, best_perm = -np.inf, None
    perms = itertools.permutations(order, l_o)
    while True:
        chunk = list(itertools.islice(perms, batch_size))
        if not chunk:
            break
        vals = vm.pool_values(features, np.array(chunk), user, weights)
        k = int(np.argmax(vals))
        if vals[k] > best_val:
            best_val, best_perm = float(vals[k]), chunk[k]
    return best_val, Slate(features, best_perm, (0,) * l_o)


def intra_window_similarity(emb: np.ndarray, window_w: int) -> float:
    """Mean over positions t >= 2 of a slate, given as its embedding rows
    [l, d_emb], of the max similarity to the window_w rows before t."""
    sims = window_similarities(emb, window_w)[1:]
    return float(np.mean(sims)) if len(sims) else 0.0

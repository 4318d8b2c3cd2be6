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
from dataclasses import dataclass

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


@dataclass(frozen=True)
class CandidateQueues:
    """Disjoint objective-ordered queues over the packed pool. A generator
    reads them through cursors of its own, so an item is only ever taken as
    the head of its own queue, and one queues object serves any number of
    generations."""

    queues: list[list[int]]  # pool indices, per queue, score-descending
    features: sortmodel.ItemFeatures  # the packed pool


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

    return CandidateQueues(queues, features)


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
    best = np.maximum.reduce(emb @ emb.T, axis=1, where=mask, initial=-np.inf)
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
        }
        return json.dumps(doc, sort_keys=True)


# ------------------------------ generation ----------------------------------


class ValueModel:
    """The value network on `weights`, its parameters packed when the model
    is made (`model.packed_weights`: once per loaded checkpoint). It holds
    only the read-only weights, so one model serves any number of requests
    and threads; a generation counts its own model invocations in its trace.
    """

    def __init__(self, config: EngineConfig, params: dict):
        self.weights = sortmodel.packed_weights(config, params)

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
        n = rows.shape[0]
        u = np.stack([user.user_features] * n)
        click, pay = sortmodel.infer(self.weights, features.emb[rows], u, features.score[rows])
        return listvalue.combined_values_batch(click, pay, features.price[rows], weights)


def _run_greedy(user: UserContext, queues: CandidateQueues, vm: ValueModel,
                weights: ObjectiveWeights, lam: float | None, window_w: int | None,
                cached: bool) -> GenerationTrace:
    """The greedy loop over the queues' packed pool, queues.features. Its
    cursors, similarities, KV cache and invocation count are its own: the
    queues and the value model are only read."""
    cfg = vm.weights.config
    lam = cfg.lambda_mmr if lam is None else lam
    if not 0.0 <= lam <= 1.0:
        raise ConfigError("lambda outside [0,1]")
    window_w = cfg.window_w if window_w is None else window_w
    if window_w < 1:
        raise ConfigError(f"window_w must be >= 1, got {window_w}")
    features = queues.features
    cursors = [0] * len(queues.queues)
    invocations = 0
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
        heads = [(qi, queue[cur]) for qi, (queue, cur) in enumerate(zip(queues.queues, cursors))
                 if cur < len(queue)]
        if not heads:
            raise InfeasibleConfig("all queues exhausted before l_o selections")

        rows = [idx for _, idx in heads]
        if cached:
            slots = [offsets[qi] + cursors[qi] for qi, _ in heads]
            click, pay = sortmodel.extend(vm.weights, cache, inputs[slots])
            vals, pay_counts, gmvs = listvalue.step_values(click, pay, features.price[rows],
                                                           pay_count, gmv, weights)
            invocations += 1
        else:
            vals = np.array([vm.pool_values(features, np.array([chosen + [r]]), user, weights)[0]
                             for r in rows])
            invocations += len(rows)

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
        cursors[qi] += 1
        chosen.append(idx)
        sources.append(qi)
        steps.append(StepRecord(records, qi))
        if cached:
            cache.choose(k)
            pay_count, gmv = pay_counts[k], gmvs[k]

    wall = time.perf_counter_ns() - start
    return GenerationTrace(features, tuple(chosen), tuple(sources), steps, invocations, wall)


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
    cursors = [0] * len(queues.queues)
    rows: list[int] = []
    sources: list[int] = []
    for qi in pattern:
        if cursors[qi] == len(queues.queues[qi]):
            qi = next((alt for alt, queue in enumerate(queues.queues)
                       if cursors[alt] < len(queue)), None)
            if qi is None:
                raise InfeasibleConfig("all queues exhausted during template generation")
        rows.append(queues.queues[qi][cursors[qi]])
        cursors[qi] += 1
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

"""Candidate queues and slate generation.

The generator runs l_o greedy selection steps. At each step it expands the
current prefix by the head of every non-empty queue, applies the MMR
criterion (value traded against maximum cosine similarity within a sliding
window of already-selected items), and consumes the winning head. A step
that calls the model scores a two-level tree of rows in one incremental
step over the prefix's cached attention keys and values: every head at
position t, and under each head the heads that would be live once it is
chosen, at t + 1. The chosen head's branch then scores the next step
without a model call. A naive reference that issues one full forward per
candidate per step and an exhaustive permutation oracle back the
correctness tests and the latency benchmark.
"""

from __future__ import annotations

import bisect
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


# Each score term as a function of the packed pool's (ctr, cvr, price) columns.
_TERMS = {
    "ctr": lambda ctr, cvr, price: ctr,
    "cvr": lambda ctr, cvr, price: cvr,
    "ctr_cvr": lambda ctr, cvr, price: ctr * cvr,
    "price": lambda ctr, cvr, price: price,
    "ctr_cvr_price": lambda ctr, cvr, price: ctr * cvr * price,
}


def composite_score(features: sortmodel.ItemFeatures, spec: QueueSpec) -> np.ndarray:
    """The queue's score of every packed item, [n], from only the terms the
    spec names."""
    columns = features.score[:, 0], features.score[:, 1], features.price
    return sum(c * _TERMS[k](*columns) for k, c in spec.coeffs.items())


@dataclass(frozen=True)
class CandidateQueues:
    """Disjoint objective-ordered queues over the packed pool. A generator
    reads them through cursors of its own, so an item is only ever taken as
    the head of its own queue, and one queues object serves any number of
    generations."""

    queues: list[list[int]]  # pool indices, per queue, score-descending
    features: sortmodel.ItemFeatures  # the packed pool
    l_o: int  # the slate length: a generation's number of steps


def build_queues(features: sortmodel.ItemFeatures, specs, strategy: str,
                 l_o: int) -> CandidateQueues:
    """Partition the packed pool into disjoint per-objective queues of size
    <= l_o, the length of the slates generated from them.

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
    assigned = [False] * len(features.ids)
    queues: list[list[int]] = [[] for _ in specs]

    if strategy == "dfs":
        for queue, ranking in zip(queues, rankings):
            for idx in ranking:
                if len(queue) >= l_o:
                    break
                if not assigned[idx]:
                    queue.append(idx)
                    assigned[idx] = True
    elif strategy == "bfs":
        while True:
            progressed = False
            for queue, ranking in zip(queues, rankings):
                if len(queue) >= l_o:
                    continue
                for idx in ranking:
                    if not assigned[idx]:
                        queue.append(idx)
                        assigned[idx] = True
                        progressed = True
                        break
            if not progressed:
                break
    else:
        raise ConfigError(f"unknown partition strategy {strategy!r}")

    return CandidateQueues(queues, features, l_o)


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
    invocations: int  # model calls
    scored_rows: int  # rows (positions) the model computed over all its calls
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
            "scored_rows": self.scored_rows,
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
        from one batched full forward, summed in the greedy's order."""
        n = rows.shape[0]
        u = np.stack([user.user_features] * n)
        click, pay = sortmodel.infer(self.weights, features.emb[rows], u, features.score[rows])
        return listvalue.combined_values_batch(click, pay, features.price[rows], weights)


# The most rows a greedy step scores as a two-level tree (`_tree`). A tree
# of q live queues has up to q + q^2 rows. Whole generations ran faster with
# trees up to 5 queues (30 rows) and slower from 6 (42 rows), measured at
# the default model size, so a larger tree gives way to a one-level step.
TREE_ROWS = 30


def _tree(live: list[int], cursors: list[int], ends: list[int]) -> tuple[list[int], list[int]]:
    """A greedy step's rows at position t + 1, as held slots, and the branch
    of each (its parent's index in `live`): under each live queue's head, the
    heads that would be live if it were chosen, in queue order: the other
    heads, and the next item of its own queue while it has one."""
    rows, parents = [], []
    for k, qi in enumerate(live):
        for qj in live:
            slot = cursors[qj] + (qj == qi)
            if slot < ends[qj]:
                rows.append(slot)
                parents.append(k)
    return rows, parents


def _run_greedy(user: UserContext, queues: CandidateQueues, vm: ValueModel,
                weights: ObjectiveWeights, lam: float | None, cached: bool) -> GenerationTrace:
    """The greedy loop over the queues' packed pool, queues.features, with
    the MMR window of the model's config. Its cursors, similarities, KV cache
    and counts are its own: the queues and the value model are only read."""
    cfg = vm.weights.config
    lam = cfg.lambda_mmr if lam is None else lam
    if not 0.0 <= lam <= 1.0:
        raise ConfigError("lambda outside [0,1]")
    features = queues.features
    start = time.perf_counter_ns()
    # Every row a step can score is in a queue: the held rows, queue after
    # queue, so queue qi's head is held slot cursors[qi] while it is below
    # ends[qi]. What a step reads of them is gathered once, here.
    held = [idx for queue in queues.queues for idx in queue]
    ends = list(itertools.accumulate(len(queue) for queue in queues.queues))
    cursors = [end - len(queue) for end, queue in zip(ends, queues.queues)]
    held_ids = features.ids[held].tolist()
    emb = features.emb[held]
    held_emb = list(emb)  # row views, for the similarities
    prices = features.price[held]
    off_lam = 1.0 - lam
    invocations = scored_rows = 0
    picked: list[int] = []  # held slots, in slate order
    sources: list[int] = []
    steps: list[StepRecord] = []
    # A queue head stays in place until it is chosen, so each (candidate,
    # chosen item) similarity is computed once and reused while the chosen
    # item is in the window.
    sims: dict[tuple[int, int], float] = {}

    if cached:
        inputs = vm.weights.project(emb, features.score[held])
        n = len(queues.queues)
        cache = sortmodel.Prefix.empty(vm.weights, user.user_features,
                                       max(n, min(TREE_ROWS, n * (n + 1))))
        pay_count, gmv = 0.0, 0.0  # the chosen prefix's expected pay count and GMV
        pending = None  # the chosen branch of the last tree: this step, already scored

    for t in range(queues.l_o):
        live = [qi for qi, (cur, end) in enumerate(zip(cursors, ends)) if cur < end]
        if not live:
            raise InfeasibleConfig(f"all queues exhausted after {t} of {queues.l_o} selections")

        slots = [cursors[qi] for qi in live]
        if not cached:
            prefix = [held[s] for s in picked]
            vals = np.array([vm.pool_values(features, np.array([prefix + [held[slot]]]), user,
                                            weights)[0] for slot in slots])
            invocations += len(slots)
            scored_rows += len(slots) * (t + 1)
        elif pending is not None:
            first, vals, pay_counts, gmvs = pending
            tree = None
        else:
            # Score position t + 1 too while the tree's rows fit under TREE_ROWS.
            m = len(slots)
            nxt, branch = _tree(live, cursors, ends) if t + 1 < queues.l_o else ([], [])
            if m + len(nxt) > TREE_ROWS:
                nxt, branch = [], []
            rows = slots + nxt
            click, pay = sortmodel.extend(vm.weights, cache, inputs[rows], [-1] * m + branch)
            # Each root extends the chosen list; each branch row extends its root's.
            scored = listvalue.step_values(click, pay, prices[rows], pay_count, gmv, branch,
                                           weights)
            first = 0
            vals, pay_counts, gmvs = (a[:m] for a in scored)
            tree = (branch, scored) if nxt else None
            invocations += 1
            scored_rows += len(rows)

        recent = picked[-cfg.window_w:]
        records = []
        best = None
        for k, (qi, slot, value) in enumerate(zip(live, slots, vals.tolist())):
            max_sim = -math.inf if recent else 0.0
            for j in recent:
                sim = sims.get((slot, j))
                if sim is None:
                    sim = sims[slot, j] = float(np.dot(held_emb[slot], held_emb[j]))
                if sim > max_sim:
                    max_sim = sim
            score = lam * value - off_lam * max_sim
            records.append((qi, held_ids[slot], value, score))
            # Queues are disjoint, so per-step candidates are distinct items;
            # strict > keeps the lowest queue index on score ties, and within
            # a queue the head is already the lowest-id top scorer.
            if best is None or score > best[0]:
                best = (score, k, qi)
        _, k, qi = best
        picked.append(cursors[qi])
        cursors[qi] += 1
        sources.append(qi)
        steps.append(StepRecord(records, qi))
        if cached:
            cache.choose(first + k)
            pay_count, gmv = pay_counts[k], gmvs[k]
            pending = None
            if tree is not None:  # the next step is branch k, scored already
                branch, scored = tree
                lo, hi = bisect.bisect_left(branch, k), bisect.bisect_right(branch, k)
                pending = (m + lo, *(a[m + lo:m + hi] for a in scored))

    wall = time.perf_counter_ns() - start
    rows = tuple(held[s] for s in picked)
    return GenerationTrace(features, rows, tuple(sources), steps, invocations, scored_rows, wall)


def generate(user: UserContext, queues: CandidateQueues, vm: ValueModel,
             weights: ObjectiveWeights, lam: float | None = None) -> GenerationTrace:
    """Greedy slate construction over the queues' slate length l_o: each
    model call scores every queue head over the cached prefix and, while the
    tree fits under TREE_ROWS, every head that could follow each one, so
    (l_o + 1) // 2 calls at the default three queues, and at most l_o."""
    return _run_greedy(user, queues, vm, weights, lam, cached=True)


def generate_iterative_reference(user: UserContext, queues: CandidateQueues,
                                 vm: ValueModel, weights: ObjectiveWeights,
                                 lam: float | None = None) -> GenerationTrace:
    """Same selection semantics, but one full forward per candidate per step."""
    return _run_greedy(user, queues, vm, weights, lam, cached=False)


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
ORACLE_BATCH = 4096  # arrangements valued per forward


def exhaustive_oracle(features: sortmodel.ItemFeatures, user: UserContext, vm: ValueModel,
                      weights: ObjectiveWeights, l_o: int) -> tuple[float, Slate]:
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
        chunk = list(itertools.islice(perms, ORACLE_BATCH))
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

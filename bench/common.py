"""Inputs, host-speed probe, statistics and reply checks shared by the workloads."""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

import numpy as np

import reference

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

D_EMB = 8
D_USER = 8
CHECKPOINT_SEED = 0  # the served parameters do not depend on --seed


def peak_rss_mb() -> float:
    """This process's resident high-water mark. VmHWM starts afresh at exec;
    ru_maxrss would carry over the parent's peak into a spawned service."""
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def median(values) -> float:
    return percentile(values, 50.0)


# ------------------------------ host speed ----------------------------------

# The host's CPU speed drifts by up to ~1.5x over seconds to tens of seconds,
# which spread 30-s rerank medians by ~14% (IQR over 10 runs). So each
# workload times a fixed kernel of small NumPy and Python operations, written
# here and independent of sortgen, next to its measurements, and scales its
# times to the host speed at which the kernel takes REFERENCE_KERNEL_MS. A
# change to sortgen moves the scaled times as much as the raw ones; the raw
# figures are kept in the record.
REFERENCE_KERNEL_MS = 5.0


class SpeedProbe:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._x = rng.normal(size=(3, 10, 32))
        self._w = rng.normal(size=(32, 32))
        self._keys = [float(v) for v in rng.normal(size=300)]
        self.kernel_ms: list[float] = []

    def sample(self) -> float:
        """Time the kernel once; returns (and records) its milliseconds."""
        start = time.perf_counter_ns()
        for _ in range(60):
            h = np.maximum(self._x @ self._w, 0.0)
            h = (h - h.mean(axis=-1, keepdims=True)) / np.sqrt(h.var(axis=-1, keepdims=True) + 1e-5)
            e = np.exp(-np.abs(h))
            np.concatenate([h, e / e.sum(axis=-1, keepdims=True)], axis=-1)
            top = sorted(self._keys, key=lambda v: -v)[:10]
            {i: v for i, v in enumerate(top)}
        ms = (time.perf_counter_ns() - start) / 1e6
        self.kernel_ms.append(ms)
        return ms

    def factor(self, kernel_ms) -> float:
        """Scale for times measured while the kernel took `kernel_ms`."""
        return REFERENCE_KERNEL_MS / median(kernel_ms)

    def bracket(self, fn):
        """Run fn() between two kernel samples: (result, seconds, scale)."""
        before = self.sample()
        start = time.perf_counter()
        out = fn()
        seconds = time.perf_counter() - start
        return out, seconds, self.factor([before, self.sample()])


class Timings:
    """Timed samples of one run, each kept with the host-speed scale in force."""

    def __init__(self):
        self.setup_s: list[tuple[float, float]] = []
        self.latency_ms: list[tuple[float, float]] = []
        self.per_s: list[tuple[float, float]] = []  # rates, scaled by 1/scale

    def summary(self, scaled: bool = True) -> dict:
        def values(pairs, power=1):
            return [x * f ** power if scaled else x for x, f in pairs]

        latency = values(self.latency_ms)
        return {
            "setup_s": median(values(self.setup_s)),
            "latency_p50_ms": median(latency),
            "latency_p99_ms": percentile(latency, 99),
            "throughput_per_s": median(values(self.per_s, power=-1)),
        }


# ------------------------------- inputs -------------------------------------


def make_catalog(rng: np.random.Generator, n_items: int, n_categories: int = 8) -> reference.Pool:
    """Clustered unit-norm embeddings, log-normal prices, Beta prior scores."""
    centers = rng.normal(size=(n_categories, D_EMB))
    cat = rng.integers(n_categories, size=n_items)
    emb = centers[cat] / np.linalg.norm(centers[cat], axis=1, keepdims=True)
    emb = emb + 0.35 * rng.normal(size=(n_items, D_EMB))
    emb /= np.linalg.norm(emb, axis=1, keepdims=True)
    return reference.Pool(
        ids=rng.permutation(10 * n_items)[:n_items] + 1,
        emb=emb,
        price=rng.lognormal(3.0, 0.6, size=n_items),
        ctr=rng.beta(2.0, 8.0, size=n_items),
        cvr=rng.beta(2.0, 10.0, size=n_items),
    )


def sample_pool(catalog: reference.Pool, size: int, rng: np.random.Generator) -> reference.Pool:
    idx = rng.choice(len(catalog.ids), size=size, replace=False)
    return reference.Pool(catalog.ids[idx], catalog.emb[idx], catalog.price[idx],
                          catalog.ctr[idx], catalog.cvr[idx])


def make_requests(seed: int, count: int, pool_size: int, catalog_size: int):
    """`count` (user, pool) pairs drawn from one seeded catalog."""
    rng = np.random.default_rng(seed)
    catalog = make_catalog(rng, catalog_size)
    return [(rng.normal(size=D_USER), sample_pool(catalog, pool_size, rng)) for _ in range(count)]


def request_doc(user, pool: reference.Pool) -> dict:
    """The JSON body of POST /rerank."""
    return {
        "user": [float(v) for v in user],
        "candidates": [
            {"id": int(pool.ids[i]), "emb": [float(v) for v in pool.emb[i]],
             "price": float(pool.price[i]), "ctr": float(pool.ctr[i]),
             "cvr": float(pool.cvr[i]), "cat": 0}
            for i in range(len(pool.ids))
        ],
    }


def to_items(pool: reference.Pool):
    from sortgen.core import Item
    return [Item(id=int(pool.ids[i]), embedding=pool.emb[i].copy(), price=float(pool.price[i]),
                 prior_ctr=float(pool.ctr[i]), prior_cvr=float(pool.cvr[i]), category=0)
            for i in range(len(pool.ids))]


# ------------------------------- checks -------------------------------------


class Checks:
    """Collects failed correctness checks; the run is correct when none failed."""

    def __init__(self):
        self.failures: list[str] = []

    def require(self, ok: bool, message: str) -> None:
        if not ok and len(self.failures) < 50:
            self.failures.append(message)

    @property
    def correct(self) -> bool:
        return not self.failures


def check_reply(checks: Checks, tag: str, reply: dict, pool: reference.Pool,
                queues: list[list[int]], l_o: int) -> None:
    """Shape checks every reply must pass: l_o distinct ids from the request,
    each taken from the queue its source index names, and a finite value."""
    ids, sources = reply.get("item_ids"), reply.get("source_queues")
    value = reply.get("combined_value")
    shape_ok = (isinstance(ids, list) and len(ids) == l_o and len(set(ids)) == l_o
                and isinstance(sources, list) and len(sources) == l_o)
    checks.require(shape_ok, f"{tag}: expected {l_o} distinct ids with sources, got {ids} {sources}")
    checks.require(isinstance(value, float) and np.isfinite(value),
                   f"{tag}: combined_value {value!r} is not finite")
    if not shape_ok:
        return
    position = {int(pid): i for i, pid in enumerate(pool.ids)}
    for pid, q in zip(ids, sources):
        ok = pid in position and 0 <= q < len(queues) and position[pid] in queues[q]
        checks.require(ok, f"{tag}: id {pid} is not in its source queue {q}")


def check_against_reference(checks: Checks, tag: str, reply: dict, expected) -> None:
    ids, sources, value = expected
    checks.require(reply["item_ids"] == ids, f"{tag}: slate {reply['item_ids']} != reference {ids}")
    checks.require(list(reply["source_queues"]) == sources,
                   f"{tag}: sources {reply['source_queues']} != reference {sources}")
    got = reply["combined_value"]
    checks.require(abs(got - value) <= 1e-9 * max(abs(value), 1e-300),
                   f"{tag}: combined_value {got!r} != reference {value!r} within 1e-9")


def write_record(name: str, record: dict) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / name).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n",
                                encoding="utf-8")


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)

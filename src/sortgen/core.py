"""Domain types, engine configuration, and validation.

Everything here is immutable after construction and safe to share
across threads.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Item fields a queue score may combine. "ctr_cvr" is prior_ctr * prior_cvr,
# "ctr_cvr_price" additionally multiplies by price.
SCORE_TERMS = ("ctr", "cvr", "ctr_cvr", "price", "ctr_cvr_price")


class ConfigError(ValueError):
    """A configuration or domain-type invariant was violated."""


def item_fault(emb: np.ndarray, score: np.ndarray,
               price: np.ndarray) -> tuple[int, str, str] | None:
    """The first row of a packed block of items that breaks an item rule, as
    (row, field, reason), or None when every row holds.

    `emb` is [n, d], `score` is [n, 2] (prior_ctr, prior_cvr) and `price` is
    [n]. The rules, in the order one row is checked: finite embedding
    components, an embedding norm within 1e-6 of 1, prior_ctr and prior_cvr
    in [0, 1], and a finite, non-negative price. Fields are named as in a
    rerank request: emb, ctr, cvr, price.
    """
    norm = np.sqrt(np.einsum("ij,ij->i", emb, emb))
    prior = ~((score >= 0.0) & (score <= 1.0))
    rules = (
        (~np.isfinite(emb).all(axis=1), "emb", "embedding components must be finite"),
        (~(np.abs(norm - 1.0) <= 1e-6), "emb", "embedding norm {norm:.8f} not unit"),
        (prior[:, 0], "ctr", "prior_ctr outside [0,1]"),
        (prior[:, 1], "cvr", "prior_cvr outside [0,1]"),
        (~np.isfinite(price), "price", "price must be finite"),
        (price < 0.0, "price", "negative price"),
    )
    bad = np.logical_or.reduce([mask for mask, _, _ in rules])
    i = int(np.argmax(bad))
    if not bad[i]:
        return None
    field, reason = next((field, reason) for mask, field, reason in rules if mask[i])
    return i, field, reason.format(norm=norm[i])


@dataclass(frozen=True)
class Item:
    """One candidate: identity, unit-norm embedding, price, prior scores."""

    id: int
    embedding: np.ndarray
    price: float
    prior_ctr: float
    prior_cvr: float
    category: int

    def __post_init__(self):
        emb = np.asarray(self.embedding, dtype=np.float64)
        object.__setattr__(self, "embedding", emb)
        emb.flags.writeable = False
        fault = item_fault(emb.reshape(1, -1),
                           np.array([[self.prior_ctr, self.prior_cvr]], dtype=np.float64),
                           np.array([self.price], dtype=np.float64))
        if fault is not None:
            raise ConfigError(f"item {self.id}: {fault[2]}")


@dataclass(frozen=True)
class UserContext:
    """Raw user feature vector."""

    user_features: np.ndarray

    def __post_init__(self):
        feats = np.asarray(self.user_features, dtype=np.float64)
        object.__setattr__(self, "user_features", feats)
        feats.flags.writeable = False
        if not np.isfinite(feats).all():
            raise ConfigError("user features must be finite")


@dataclass(frozen=True)
class ObjectiveWeights:
    """Trade-off weights for click / conversion / GMV list values. A fault in
    one weight, or a sum that overflows at it, is a ConfigError whose message
    starts with the weight's name."""

    alpha: float = 5.0
    beta: float = 1.0
    gamma: float = 1.0

    def __post_init__(self):
        total = 0.0
        for name in ("alpha", "beta", "gamma"):
            w = getattr(self, name)
            if not math.isfinite(w):
                raise ConfigError(f"{name}: objective weight {w!r} is not finite")
            if w < 0:
                raise ConfigError(f"{name}: objective weights must be non-negative")
            total += w
            if not math.isfinite(total):
                raise ConfigError(f"{name}: objective weights sum to {total!r}")
        if total <= 0:
            raise ConfigError("objective weights sum to zero")


@dataclass(frozen=True)
class QueueSpec:
    """An objective queue: a weighted score over item fields plus a priority rank."""

    name: str
    coeffs: dict[str, float]
    priority: int

    def __post_init__(self):
        for key in self.coeffs:
            if key not in SCORE_TERMS:
                raise ConfigError(f"queue {self.name}: unknown score term {key!r}")
        if not any(c != 0.0 for c in self.coeffs.values()):
            raise ConfigError(f"queue {self.name}: all coefficients zero")


DEFAULT_QUEUE_SPECS = (
    QueueSpec("combined", {"ctr": 5.0, "ctr_cvr": 1.0, "ctr_cvr_price": 1.0}, priority=0),
    QueueSpec("pay", {"ctr_cvr": 1.0}, priority=1),
    QueueSpec("gmv", {"ctr_cvr_price": 1.0}, priority=2),
)


@dataclass(frozen=True)
class EngineConfig:
    """Shapes, generation knobs, and mode switches shared by all modules."""

    l_s: int = 30
    l_o: int = 10
    d_emb: int = 8
    d_user: int = 8
    d_position: int = 4
    d_score: int = 2
    d_model: int = 32
    n_layers: int = 2
    n_heads: int = 2
    max_count: int = 10  # number of ordered-regression thresholds per position
    lambda_mmr: float = 0.8
    window_w: int = 5
    queue_specs: tuple[QueueSpec, ...] = DEFAULT_QUEUE_SPECS
    partition_strategy: str = "dfs"
    loss_mode: str = "ordered_regression"
    head_mode: str = "monotone"  # monotone | literal
    template_pattern: tuple[int, ...] = ()
    seed: int = 0

    @property
    def d_input(self) -> int:
        return self.d_emb + self.d_position + self.d_user + self.d_score

    @classmethod
    def from_dict(cls, d: dict) -> "EngineConfig":
        d = dict(d)
        d["queue_specs"] = tuple(
            QueueSpec(q["name"], dict(q["coeffs"]), q["priority"]) for q in d["queue_specs"]
        )
        d["template_pattern"] = tuple(d.get("template_pattern", ()))
        return cls(**d)


def to_dict(config) -> dict:
    """A config dataclass as plain JSON values, field by field: nested
    dataclasses become dicts, tuples become lists, dict keys are sorted."""
    def plain(v):
        if dataclasses.is_dataclass(v):
            return {f.name: plain(getattr(v, f.name)) for f in dataclasses.fields(v)}
        if isinstance(v, (tuple, list)):
            return [plain(x) for x in v]
        if isinstance(v, dict):
            return {k: plain(x) for k, x in sorted(v.items())}
        return v
    return plain(config)


def config_hash(config: EngineConfig) -> str:
    blob = json.dumps(to_dict(config), sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def validate_config(config: EngineConfig) -> None:
    """Raise ConfigError naming the first violated invariant."""
    if config.l_o > config.l_s:
        raise ConfigError("l_o exceeds l_s")
    if config.max_count > config.l_o:
        raise ConfigError("max_count exceeds l_o")
    if config.window_w < 1:
        raise ConfigError("window_w must be >= 1")
    if not 0.0 <= config.lambda_mmr <= 1.0:
        raise ConfigError("lambda_mmr outside [0,1]")
    if config.d_model % config.n_heads != 0:
        raise ConfigError("d_model not divisible by n_heads")
    for dim_name in ("l_s", "l_o", "d_emb", "d_user", "d_position", "d_model",
                     "n_layers", "n_heads", "max_count"):
        if getattr(config, dim_name) < 1:
            raise ConfigError(f"{dim_name} must be positive")
    if config.d_score != 2:
        raise ConfigError("d_score must be 2 (prior_ctr, prior_cvr)")
    if not config.queue_specs:
        raise ConfigError("empty queue_specs")
    priorities = [q.priority for q in config.queue_specs]
    if len(set(priorities)) != len(priorities):
        raise ConfigError("duplicate queue priorities")
    q = len(config.queue_specs)
    if config.partition_strategy not in ("dfs", "bfs"):
        raise ConfigError(f"unknown partition_strategy {config.partition_strategy!r}")
    if config.loss_mode not in ("ordered_regression", "pointwise"):
        raise ConfigError(f"unknown loss_mode {config.loss_mode!r}")
    if config.head_mode not in ("monotone", "literal"):
        raise ConfigError(f"unknown head_mode {config.head_mode!r}")
    if config.template_pattern:
        if len(config.template_pattern) != config.l_o:
            raise ConfigError("template_pattern length must equal l_o")
        if any(not 0 <= t < q for t in config.template_pattern):
            raise ConfigError("template_pattern indexes a missing queue")


# ---------------------------------------------------------------------------
# Plain-text key/value configuration files.
#
#   l_s = 30
#   queue.click = ctr:1.0
#   sim.sessions = 20000
#   train.lr = 0.001
#
# Every value is cast by the type of its field's default, so a field added to
# a config dataclass is a config key with no further code.
# ---------------------------------------------------------------------------

# Keys that are command options rather than config fields.
_OPTION_KEYS = ("bench.slates", "bench.overhead_us", "eval.pools")


def parse_config_text(text: str) -> dict[str, str]:
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"config line {lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        raw[key.strip()] = value.strip()
    return raw


def _cast(key: str, value: str, default):
    """`value` read as the type of `default`: strings are lower-cased, tuples
    are comma-separated ints. A value that does not read is a ConfigError."""
    try:
        if isinstance(default, tuple):
            return tuple(int(t) for t in value.split(",")) if value else ()
        if isinstance(default, str):
            return value.lower()
        return type(default)(value)
    except ValueError:
        raise ConfigError(f"{key}: cannot read {value!r} as {type(default).__name__}") from None


def raw_value(raw: dict[str, str], key: str, default):
    """raw[key] cast to the type of `default`, or `default` when it is absent."""
    return _cast(key, raw[key], default) if key in raw else default


def config_from_raw(cls, raw: dict[str, str], prefix: str = ""):
    """An instance of the config dataclass `cls` from the keys `prefix + field`.

    A key under a non-empty prefix that names no field is an error. Top-level
    keys are shared by EngineConfig and ObjectiveWeights and are checked by
    engine_config_from_raw.
    """
    fields = dataclasses.fields(cls)
    if prefix:
        names = {prefix + f.name for f in fields}
        for key in raw:
            if key.startswith(prefix) and key not in names:
                raise ConfigError(f"unknown config key {key!r}")
    return cls(**{f.name: raw_value(raw, prefix + f.name, f.default) for f in fields})


def _parse_queue_value(name: str, value: str, priority: int) -> QueueSpec:
    coeffs: dict[str, float] = {}
    for part in value.split(","):
        term, _, coef = part.strip().partition(":")
        if not coef:
            raise ConfigError(f"queue.{name}: expected 'term:coefficient' pairs")
        coeffs[term.strip()] = _cast(f"queue.{name}", coef, 0.0)
    return QueueSpec(name, coeffs, priority)


def engine_config_from_raw(raw: dict[str, str]) -> EngineConfig:
    fields = dataclasses.fields(EngineConfig) + dataclasses.fields(ObjectiveWeights)
    top = {f.name for f in fields} - {"queue_specs"}  # queues come from queue.* keys
    for key in raw:
        if not (key in top or key in _OPTION_KEYS or key.startswith(("queue.", "sim.", "train."))):
            raise ConfigError(f"unknown config key {key!r}")
    config = config_from_raw(EngineConfig, raw)
    queues = [(key[6:], value) for key, value in raw.items() if key.startswith("queue.")]
    if queues:
        config = dataclasses.replace(config, queue_specs=tuple(
            _parse_queue_value(name, value, i) for i, (name, value) in enumerate(queues)))
    validate_config(config)
    return config


def load_config_file(path: str | Path) -> tuple[EngineConfig, ObjectiveWeights, dict[str, str]]:
    """Parse a key/value config file; returns (engine config, weights, raw map)."""
    raw = parse_config_text(Path(path).read_text(encoding="utf-8"))
    return engine_config_from_raw(raw), config_from_raw(ObjectiveWeights, raw), raw

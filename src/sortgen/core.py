"""Domain types, engine configuration, and validation.

Everything here checks itself when it is built (a fault is a ConfigError)
and is immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from collections.abc import Mapping
from dataclasses import dataclass
from pathlib import Path
from types import MappingProxyType

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
    # A few reductions decide that every row holds (a non-finite component
    # makes its norm non-finite; NaN fails every comparison); masks name a fault.
    if (np.abs(norm - 1.0).max() <= 1e-6 and score.min() >= 0.0 and score.max() <= 1.0
            and price.min() >= 0.0 and price.max() < np.inf):
        return None
    prior = ~((score >= 0.0) & (score <= 1.0))
    rules = (
        (~np.isfinite(emb).all(axis=1), "emb", "embedding components must be finite"),
        (~(np.abs(norm - 1.0) <= 1e-6), "emb", "embedding norm {norm:.8f} not unit"),
        (prior[:, 0], "ctr", "prior_ctr outside [0,1]"),
        (prior[:, 1], "cvr", "prior_cvr outside [0,1]"),
        (~np.isfinite(price), "price", "price must be finite"),
        (price < 0.0, "price", "negative price"),
    )
    i = int(np.argmax(np.logical_or.reduce([mask for mask, _, _ in rules])))
    field, reason = next((field, reason) for mask, field, reason in rules if mask[i])
    return i, field, reason.format(norm=norm[i])


def check_items(ids, emb: np.ndarray, score: np.ndarray, price: np.ndarray) -> None:
    """Raise the ConfigError "item <id>: <reason>" for the first row of a
    packed block of items (the arrays of `item_fault`, with the ids `ids`)
    that breaks an item rule."""
    fault = item_fault(emb, score, price) if len(ids) else None
    if fault is not None:
        raise ConfigError(f"item {ids[fault[0]]}: {fault[2]}")


def as_integer(value) -> int:
    """The rule for an item id or category, in a request and in a data file:
    an int, a float with an integral value, or a string that int() reads,
    inside int64. Anything else is a ValueError saying why."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    elif isinstance(value, str):
        try:
            value = int(value)
        except ValueError:
            pass
    if not isinstance(value, int):
        raise ValueError(f"{value!r} is not an integer")
    if not -2**63 <= value < 2**63:
        raise ValueError(f"{value} is outside int64")
    return int(value)


class ItemRecordError(ValueError):
    """An item record that does not read: args (field, reason), field "" when
    the record is not a key/value document; it reads as "<field>: <reason>"."""

    def __str__(self):
        return ": ".join(filter(None, self.args))


def _as_number(value) -> float:
    """float(value) for a number or a string that float() reads (a bool is an
    int, as in a packed column); anything else is a ValueError."""
    if isinstance(value, (int, float, str)):
        try:
            return float(value)
        except (ValueError, OverflowError):
            pass
    raise ValueError(f"{value!r} does not read as a number")


def as_scalar(value) -> float:
    """The rule for a lone number, in a request's user features, lambda and
    weights and in a data file's user features: float(value) for a number
    or a string that float() reads, where JSON true and false are not
    numbers. Anything else is a ValueError saying why."""
    if isinstance(value, bool):
        raise ValueError(f"expected a number, got {json.dumps(value)}")
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(str(exc)) from None


def read_item(record, d_emb: int | None) -> tuple:
    """The one reader of an item record, a rerank request's candidate and a
    data file's item alike: (id, emb, (ctr, cvr), price, cat), with an emb of
    d_emb numbers (any length for None) and cat 0 when it is absent. The
    first field that does not read, in the order id, emb, price, ctr, cvr,
    cat, is an ItemRecordError; the item rules are the caller's."""
    if not isinstance(record, dict):
        raise ItemRecordError("", "expected a key/value document")

    def field(key, read, default=None):
        if key not in record and default is None:
            raise ItemRecordError(key, "missing")
        try:
            return read(record.get(key, default))
        except ValueError as exc:
            raise ItemRecordError(key, str(exc)) from None

    def embedding(emb):
        if not isinstance(emb, list):
            raise ValueError(f"expected a list of numbers, got {emb!r}")
        emb = [_as_number(v) for v in emb]
        if d_emb is not None and len(emb) != d_emb:
            raise ValueError(f"expected {d_emb} components")
        return emb

    item_id, emb = field("id", as_integer), field("emb", embedding)
    price = field("price", _as_number)
    score = field("ctr", _as_number), field("cvr", _as_number)
    return item_id, emb, score, price, field("cat", as_integer, 0)


def repeated_id(ids: list) -> tuple[int, int] | None:
    """The first position of `ids` whose id an earlier position holds, and
    that earlier position, or None when no id repeats."""
    if len(set(ids)) == len(ids):
        return None
    first = {}
    for i, item_id in enumerate(ids):
        if (j := first.setdefault(item_id, i)) != i:
            return i, j


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
        emb = np.array(self.embedding, dtype=np.float64)  # a copy: the caller's stays writable
        object.__setattr__(self, "embedding", emb)
        emb.flags.writeable = False
        check_items([self.id], emb.reshape(1, -1),
                    np.array([[self.prior_ctr, self.prior_cvr]], dtype=np.float64),
                    np.array([self.price], dtype=np.float64))


@dataclass(frozen=True)
class UserContext:
    """Raw user feature vector."""

    user_features: np.ndarray

    def __post_init__(self):
        feats = np.array(self.user_features, dtype=np.float64)  # a copy, as in Item
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
        check_field_types(self, "{}: objective weight")
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


def _type_fault(value, default) -> str | None:
    """The type `value` should have, or None when it has the type of `default`
    as `_cast` reads it (a float field also takes an int; no field takes a
    bool; an empty tuple is one of ints)."""
    if isinstance(default, tuple):
        item = default[0] if default else 0
        ok = isinstance(value, tuple) and not any(_type_fault(x, item) for x in value)
        return None if ok else f"a tuple of {type(item).__name__}"
    types = (int, float) if isinstance(default, float) else type(default)
    ok = isinstance(value, types) and not isinstance(value, bool)
    return None if ok else type(default).__name__


def check_field_types(config, name_form: str = "{}") -> None:
    """Raise the ConfigError "<name> must be <type>, got <value>" for the
    first field of the config dataclass `config` whose value does not have
    the type of its default (`_type_fault`); `name_form` formats the name."""
    for f in dataclasses.fields(config):
        value = getattr(config, f.name)
        if kind := _type_fault(value, f.default):
            raise ConfigError(f"{name_form.format(f.name)} must be {kind}, got {value!r}")


def _finite(value: int | float) -> bool:
    """math.isfinite, and False for an int past the float range."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


@dataclass(frozen=True)
class QueueSpec:
    """An objective queue: a weighted score over item fields plus a priority
    rank. A fault names the queue and the field: a name that is not a str, a
    priority that is not an int, or a coefficient that is not a finite int or
    float (no field takes a bool).

    `coeffs` is kept as a read-only copy of the mapping given, its keys
    sorted: the order `to_dict` writes them in, and the order a queue's score
    adds its terms in, so a config read back from a checkpoint scores as the
    one it was written from.
    """

    name: str
    coeffs: Mapping[str, float]
    priority: int

    def __post_init__(self):
        if not isinstance(self.name, str):
            raise ConfigError(f"queue {self.name!r}: name must be str, got {self.name!r}")
        if _type_fault(self.priority, 0):
            raise ConfigError(f"queue {self.name}: priority must be int, got {self.priority!r}")
        if not isinstance(self.coeffs, Mapping):
            raise ConfigError(f"queue {self.name}: coeffs must be a dict, got {self.coeffs!r}")
        coeffs = dict(self.coeffs)
        for key, c in coeffs.items():
            if key not in SCORE_TERMS:
                raise ConfigError(f"queue {self.name}: unknown score term {key!r}")
            if _type_fault(c, 0.0) or not _finite(c):
                raise ConfigError(f"queue {self.name}: coeffs.{key} must be a finite number, "
                                  f"got {c!r}")
        if not any(c != 0.0 for c in coeffs.values()):
            raise ConfigError(f"queue {self.name}: all coefficients zero")
        object.__setattr__(self, "coeffs", MappingProxyType(dict(sorted(coeffs.items()))))

    def __hash__(self):
        return hash((self.name, frozenset(self.coeffs.items()), self.priority))

    def __reduce__(self):  # a read-only mapping does not pickle; its copy does
        return QueueSpec, (self.name, dict(self.coeffs), self.priority)


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

    def __post_init__(self):
        check_field_types(self)  # the types first: the rules compare values
        if self.l_o > self.l_s:
            raise ConfigError("l_o exceeds l_s")
        if self.max_count > self.l_o:
            raise ConfigError("max_count exceeds l_o")
        if self.window_w < 1:
            raise ConfigError("window_w must be >= 1")
        if not 0.0 <= self.lambda_mmr <= 1.0:
            raise ConfigError("lambda_mmr outside [0,1]")
        # n_heads = 0 is left to the positivity rule below.
        if self.n_heads and self.d_model % self.n_heads != 0:
            raise ConfigError("d_model not divisible by n_heads")
        for dim_name in ("l_s", "l_o", "d_emb", "d_user", "d_position", "d_model",
                         "n_layers", "n_heads", "max_count"):
            if getattr(self, dim_name) < 1:
                raise ConfigError(f"{dim_name} must be positive")
        if self.d_score != 2:
            raise ConfigError("d_score must be 2 (prior_ctr, prior_cvr)")
        if not self.queue_specs:
            raise ConfigError("empty queue_specs")
        priorities = [q.priority for q in self.queue_specs]
        if len(set(priorities)) != len(priorities):
            raise ConfigError("duplicate queue priorities")
        if self.partition_strategy not in ("dfs", "bfs"):
            raise ConfigError(f"unknown partition_strategy {self.partition_strategy!r}")
        if self.loss_mode not in ("ordered_regression", "pointwise"):
            raise ConfigError(f"unknown loss_mode {self.loss_mode!r}")
        if self.head_mode not in ("monotone", "literal"):
            raise ConfigError(f"unknown head_mode {self.head_mode!r}")
        if self.template_pattern:
            if len(self.template_pattern) != self.l_o:
                raise ConfigError("template_pattern length must equal l_o")
            if any(not 0 <= t < len(self.queue_specs) for t in self.template_pattern):
                raise ConfigError("template_pattern indexes a missing queue")

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
        if isinstance(v, Mapping):
            return {k: plain(x) for k, x in sorted(v.items())}
        return v
    return plain(config)


def config_hash(config: EngineConfig) -> str:
    blob = json.dumps(to_dict(config), sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


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
    values = {f.name: raw_value(raw, f.name, f.default) for f in dataclasses.fields(EngineConfig)}
    queues = [(key[6:], value) for key, value in raw.items() if key.startswith("queue.")]
    if queues:
        values["queue_specs"] = tuple(
            _parse_queue_value(name, value, i) for i, (name, value) in enumerate(queues))
    return EngineConfig(**values)


def load_config_file(path: str | Path) -> tuple[EngineConfig, ObjectiveWeights, dict[str, str]]:
    """Parse a key/value config file; returns (engine config, weights, raw map)."""
    raw = parse_config_text(Path(path).read_text(encoding="utf-8"))
    return engine_config_from_raw(raw), config_from_raw(ObjectiveWeights, raw), raw

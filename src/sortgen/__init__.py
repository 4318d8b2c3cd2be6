"""sortgen: list-level multi-objective slate re-ranking.

A small numpy library that trains a causal transformer to predict
cumulative click/purchase count distributions over list prefixes, and
greedily assembles output slates from objective-ordered candidate queues
with an MMR diversity term folded into the selection criterion.
"""

from sortgen.core import (
    ConfigError,
    EngineConfig,
    Item,
    ObjectiveWeights,
    QueueSpec,
    UserContext,
)

__all__ = [
    "ConfigError",
    "EngineConfig",
    "Item",
    "ObjectiveWeights",
    "QueueSpec",
    "UserContext",
]

__version__ = "0.1.0"

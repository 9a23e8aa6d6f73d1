"""``repro.service`` — the async batched model-serving broker.

The seam between flows/agents and model backends (ChatEDA-style uniform
service interface): a micro-batching request broker with per-model lanes,
retries with deterministic jittered backoff, per-lane circuit breakers,
deadlines and load shedding — fronted by the :class:`LLMClient` protocol
so every flow runs against a raw model or the broker with one switch
(``REPRO_SERVICE=1``).  See DESIGN.md §6 for the determinism argument.
"""

from .backends import FlakyBackend
from .broker import (BackendError, BrokerConfig, CircuitBreaker,
                     CircuitOpenError, LoadShedError, ModelBroker,
                     RequestTimeout, ServiceError, TransientBackendError,
                     get_default_broker, reset_default_broker)
from .client import LLMClient, ServiceClient, resolve_client

__all__ = [
    "BackendError", "BrokerConfig", "CircuitBreaker", "CircuitOpenError",
    "FlakyBackend", "LLMClient", "LoadShedError", "ModelBroker",
    "RequestTimeout", "ServiceClient", "ServiceError",
    "TransientBackendError", "get_default_broker", "reset_default_broker",
    "resolve_client",
]

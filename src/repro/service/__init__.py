"""The overload-hardened query service.

A pure, CLI-independent query API (:mod:`repro.service.api`) fronted by
an asyncio JSON-over-HTTP server (:mod:`repro.service.server`) built for
robustness under stress rather than raw speed: bounded admission with
explicit shedding, request coalescing onto batched model evaluation
waves, a circuit breaker around the simulation worker pool with
degraded-mode predict answers from the zero-contention lower bound,
seeded retry budgets, and first-class observability.  See
``docs/SERVICE.md``.
"""

from repro.service.api import (
    DesignAnswer,
    PredictAnswer,
    PredictRequest,
    QueryAPI,
    QueryError,
    SimulateAnswer,
)
from repro.service.config import EndpointPolicy, ServiceConfig

__all__ = [
    "QueryAPI",
    "QueryError",
    "PredictRequest",
    "PredictAnswer",
    "DesignAnswer",
    "SimulateAnswer",
    "ServiceConfig",
    "EndpointPolicy",
]

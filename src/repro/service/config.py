"""Service tuning knobs, one frozen dataclass per concern.

Every number the overload machinery consults lives here, validated at
construction, so a test (or ``repro serve`` flag) can pin the whole
regime in one place and the deterministic replay harness can run the
exact configuration the real server would.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

__all__ = ["EndpointPolicy", "ServiceConfig", "ENDPOINTS"]

#: The service's three POST endpoints, in route order.
ENDPOINTS = ("predict", "design", "simulate")


@dataclass(frozen=True)
class EndpointPolicy:
    """Admission and batching policy for one endpoint."""

    #: Token-bucket refill rate (requests/second) and burst capacity.
    rate: float = 200.0
    burst: float = 50.0
    #: Queue-depth watermark: requests beyond this many waiting are shed
    #: with a 429-style ``queue_full`` rejection.
    queue_depth: int = 64
    #: Coalescing window (seconds): requests arriving within it join one
    #: evaluation wave, up to ``max_batch`` per wave.
    coalesce_window: float = 0.01
    max_batch: int = 64
    #: Default per-request deadline (seconds) when the client sends none.
    deadline: float = 5.0

    def __post_init__(self) -> None:
        if self.rate <= 0 or self.burst <= 0:
            raise ValueError("rate and burst must be positive")
        if self.queue_depth < 1:
            raise ValueError("queue_depth must be >= 1")
        if self.coalesce_window < 0:
            raise ValueError("coalesce_window must be >= 0")
        if self.max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if self.deadline <= 0:
            raise ValueError("deadline must be positive")


@dataclass(frozen=True)
class ServiceConfig:
    """The whole serving regime: admission, breaker, retries, workers."""

    predict: EndpointPolicy = field(default_factory=EndpointPolicy)
    design: EndpointPolicy = field(
        default_factory=lambda: EndpointPolicy(rate=50.0, burst=20.0, queue_depth=32)
    )
    simulate: EndpointPolicy = field(
        default_factory=lambda: EndpointPolicy(
            rate=10.0, burst=5.0, queue_depth=8, coalesce_window=0.0, max_batch=1,
            deadline=30.0,
        )
    )
    #: Breaker: consecutive simulate failures before opening; seconds the
    #: breaker stays open before a half-open probe is allowed.
    breaker_threshold: int = 3
    breaker_recovery: float = 5.0
    #: Retry budget: retries may cost at most ``retry_ratio`` of request
    #: volume (plus ``retry_floor``); base backoff and jitter seed feed
    #: :func:`repro.backoff.backoff_delay`.
    retry_ratio: float = 0.1
    retry_floor: int = 3
    retry_backoff: float = 0.05
    #: Worker processes of the spawn pool simulate always runs on (1 is
    #: still a pool: a worker can die and trip the breaker).
    jobs: int = 2
    #: Seed for backoff jitter and chaos plans.
    seed: int = 0

    def __post_init__(self) -> None:
        if self.breaker_threshold < 1:
            raise ValueError("breaker_threshold must be >= 1")
        if self.breaker_recovery <= 0:
            raise ValueError("breaker_recovery must be positive")
        if self.retry_backoff < 0:
            raise ValueError("retry_backoff must be >= 0")
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")

    def policy(self, endpoint: str) -> EndpointPolicy:
        if endpoint not in ENDPOINTS:
            raise ValueError(f"unknown endpoint {endpoint!r}; known: {ENDPOINTS}")
        return getattr(self, endpoint)

    def with_policy(self, endpoint: str, **changes) -> "ServiceConfig":
        """A copy with one endpoint's policy fields replaced."""
        return replace(self, **{endpoint: replace(self.policy(endpoint), **changes)})

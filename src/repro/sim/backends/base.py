"""Back-end protocol and shared bookkeeping.

A back-end owns all timing-relevant state of one platform -- caches,
coherence structures, buses, memories, disks, the cluster network --
and exposes a single hot method, :meth:`MemoryBackend.access`, that the
execution engine calls once per memory reference.  ``access`` returns
the completion time of the reference; every queueing effect is realized
through the FCFS :class:`~repro.sim.memory.Server` objects the back-end
routes the request through.

Back-ends also implement :meth:`MemoryBackend.access_batch`, the
engine's fast lane: it walks a run of consecutive references that
provably cannot interact with any other process (own-cache hits that
touch no shared server and mutate no coherence state), one slot-index
lookup per reference, and advances the clock by the same two additions
per reference as the scalar loop.  The contract is strict: the cache
state, statistics and completion times after a batched run must be
bit-identical to the scalar path, so a back-end consumes only the
references it can prove are pure-local and leaves everything else to
``access``.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field

import numpy as np

from repro.core.platform import PlatformSpec
from repro.core.hierarchy import PlatformKind

__all__ = [
    "BackendStats",
    "MemoryBackend",
    "make_backend",
    "_acc",
    "timed_request",
]


def _acc(prof: dict, node: str, cause: str, cycles: float) -> None:
    """Attribute ``cycles`` to one ``(node, cause)`` profile bucket.

    The sink is a plain dict so the hot path stays a hash update; zero
    amounts (e.g. a contention-free server request) are skipped so
    profiles only carry buckets that actually happened.
    """
    if cycles != 0.0:
        key = (node, cause)
        prof[key] = prof.get(key, 0.0) + cycles


def timed_request(prof, server, t: float, service: float, node: str, cause: str,
                  wait_node: str | None = None) -> float:
    """A profiled FCFS server request: attribute service and wait.

    Splits the request's elapsed time into its service (to ``(node,
    cause)``) and its queueing wait (to ``(wait_node or node,
    "contention")``).  ``finish - t - service`` is exact on the 2^-6
    cycle grid, so the two buckets reassemble the elapsed time
    bit-exactly.  With ``prof is None`` this is just ``server.request``.
    """
    finish = server.request(t, service)
    if prof is not None:
        _acc(prof, node, cause, service)
        _acc(prof, wait_node or node, "contention", finish - t - service)
    return finish


@dataclass
class BackendStats:
    """Access-class counters every back-end maintains."""

    references: int = 0
    cache_hits: int = 0
    l2_hits: int = 0  #: served by a shared L2 (only when the platform has one)
    peer_cache: int = 0  #: served cache-to-cache inside an SMP
    local_memory: int = 0
    remote_clean: int = 0  #: served by a remote node's memory
    remote_dirty: int = 0  #: served by a remote node's cache (dirty)
    disk: int = 0  #: page faults (sub-stage of memory-served accesses)
    invalidations: int = 0
    writebacks: int = 0
    barrier_count: int = 0
    extra: dict = field(default_factory=dict)

    @property
    def miss_ratio(self) -> float:
        return 1.0 - self.cache_hits / self.references if self.references else 0.0

    @property
    def remote_ratio(self) -> float:
        if not self.references:
            return 0.0
        return (self.remote_clean + self.remote_dirty) / self.references

    def as_dict(self) -> dict:
        d = {
            k: getattr(self, k)
            for k in (
                "references",
                "cache_hits",
                "l2_hits",
                "peer_cache",
                "local_memory",
                "remote_clean",
                "remote_dirty",
                "disk",
                "invalidations",
                "writebacks",
                "barrier_count",
            )
        }
        d.update(self.extra)
        return d


class MemoryBackend(ABC):
    """One platform's cycle-accounting memory system."""

    #: Cycle-attribution sink: ``None`` (the default, zero hot-path
    #: cost) or a ``dict`` mapping ``(node, cause)`` to cycles that
    #: every timed path feeds via :func:`_acc`.  Class attribute so
    #: unprofiled back-ends pay only an attribute read per miss.
    profiler: dict | None = None
    #: Cycles of an own-cache hit; ``access_batch`` adds it once per
    #: consumed reference, as ``access`` does.
    t_hit: float

    def __init__(self, spec: PlatformSpec, home_machine_of_line: np.ndarray) -> None:
        self.spec = spec
        self.home_machine = home_machine_of_line
        self.stats = BackendStats()

    def install_profiler(self, sink: dict | None) -> None:
        """Start attributing cycles into ``sink`` (``None`` detaches).

        Sub-backends with owned timing components (e.g. the composed
        back-end's fabric) override to forward the sink.
        """
        self.profiler = sink

    @abstractmethod
    def access(self, proc: int, line: int, is_write: bool, now: float) -> float:
        """Process one reference issued at ``now``; return completion time."""

    @abstractmethod
    def access_batch(
        self,
        proc: int,
        lines,
        writes,
        works,
        start: int,
        stop: int,
        now: float,
        limit: float,
        until: float,
        times: list | None = None,
    ) -> tuple[int, float]:
        """Consume a run of pure-local hits from ``start``; ``(consumed, t)``.

        ``lines``, ``writes`` and ``works`` are one process's whole
        trace (indexable sequences of ints, bools and ints).  Every
        consumed reference must be a pure-local cache hit -- one that
        touches no shared server and mutates no state outside
        ``proc``'s own cache -- applied exactly as the scalar path would
        have (statistics, LRU stamps, dirty marks), and it advances the
        clock exactly as the engine's scalar step does: ``t +=
        works[j] + 1.0``, then ``t += t_hit``.  ``t`` starts at
        ``now``.

        The run stops before the first reference that is not a pure
        hit, at index ``stop`` (the next barrier or the end of the
        trace), after the first reference that completes past
        ``limit`` (the causality horizon; the crossing reference is
        included, as in the scalar loop), or once ``t`` reaches
        ``until`` (the next fault trigger).  When ``times`` is a list,
        each consumed reference's completion time is appended to it.
        """

    @abstractmethod
    def barrier_overhead(self) -> float:
        """Fixed cycles added when a barrier releases (sync transactions)."""

    @abstractmethod
    def install_network_spikes(self, extra_of_time) -> None:
        """Install the fault-injection network-latency hook.

        ``extra_of_time(now) -> cycles`` is added to the service time of
        every inter-node message issued at ``now`` (see
        :class:`~repro.faults.plan.NetworkSpike`).  Back-ends with a
        cluster network forward the hook to it; on an SMP, which has no
        inter-node network to perturb, it is a no-op.  Batched
        references are always pure-local cache hits, so the hook can
        never affect the batched lane -- both lanes stay
        bit-identical under any spike schedule.
        """

    @abstractmethod
    def resource_busy_cycles(self) -> dict[str, float]:
        """Busy cycles per serialized resource (bus, network, disks...).

        Divided by the simulated span this is each resource's
        utilization -- the designer's bottleneck question.
        """

    @abstractmethod
    def resource_requests(self) -> dict[str, int]:
        """Cumulative request counts per serialized resource.

        Same keys as :meth:`resource_busy_cycles`; the interval sampler
        diffs both so a timeline shows traffic (requests per window)
        alongside occupancy.
        """

    def home_of_line(self, line: int) -> int:
        """Home machine of a line; data beyond the mapped space is
        distributed round-robin by directory block."""
        if line < self.home_machine.size:
            return int(self.home_machine[line])
        return (line >> 2) % self.spec.N


def make_backend(spec: PlatformSpec, home_machine_of_line: np.ndarray) -> MemoryBackend:
    """Instantiate the back-end for a platform spec.

    Every platform -- the paper's three flat shapes and any deeper
    declarative topology -- is served by the one topology-driven
    :class:`~repro.sim.backends.composed.ComposedBackend`.  An
    unrecognized classification raises a :class:`ValueError` naming
    the platform and its kind instead of silently falling through to a
    wrong model.
    """
    from repro.sim.backends.composed import ComposedBackend

    kind = spec.kind
    if kind not in (PlatformKind.SMP, PlatformKind.COW, PlatformKind.CLUMP):
        raise ValueError(
            f"no simulator back-end for platform {spec.name!r}: "
            f"unsupported platform kind {kind!r} (supported: "
            f"{', '.join(k.name for k in PlatformKind)})"
        )
    return ComposedBackend(spec, home_machine_of_line)

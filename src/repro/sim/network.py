"""Cluster-network timing models: shared bus versus switched fabric.

The paper evaluates two representative cluster networks: bus-based
(10/100 Mb Ethernet -- one shared medium carrying every message) and
switch-based (155 Mb ATM -- contention-free pairwise paths with
queueing only at the endpoints).  Both expose the same interface: a
``transfer`` charging full-block messages (remote memory fetches) and a
``control`` charging short address-only messages (invalidations,
ownership transfers), which cost :data:`CONTROL_FRACTION` of a block
transfer.
"""

from __future__ import annotations

from repro.sim.latencies import NetworkKind
from repro.sim.memory import Server

__all__ = ["ClusterNetwork", "BusNetwork", "SwitchNetwork", "CONTROL_FRACTION"]

#: An address-only protocol message (invalidate, ack) relative to a full
#: 256-byte block transfer: roughly one quarter (64-byte minimum frame).
CONTROL_FRACTION = 0.25


class ClusterNetwork:
    """Common bookkeeping; subclasses pick the contention structure."""

    def __init__(self, kind: NetworkKind, machines: int) -> None:
        if machines < 2:
            raise ValueError("a cluster network connects at least two machines")
        self.kind = kind
        self.machines = machines
        self.messages = 0
        self.control_messages = 0
        #: Optional fault-injection hook: extra service cycles charged to
        #: every message as a function of its *issue* time (transient
        #: latency spikes from a :class:`~repro.faults.plan.FaultPlan`).
        #: ``None`` -- the default -- costs nothing on the hot path.
        self.latency_extra = None

    def _service(self, now: float, cycles: float) -> float:
        """Per-message service time, with any injected spike applied."""
        if self.latency_extra is not None:
            return cycles + self.latency_extra(now)
        return cycles

    def service_of(self, now: float, cycles: float) -> float:
        """The service time a ``transfer`` issued at ``now`` would get.

        A pure function of the issue time (spikes are deterministic in
        ``now``), exposed so the cycle-attribution profiler can split a
        message's finish time into service vs. queueing wait without
        touching any server state.  For ``control`` messages pass
        ``cycles * CONTROL_FRACTION``.
        """
        return self._service(now, cycles)

    # -- interface ------------------------------------------------------
    def transfer(self, now: float, src: int, dst: int, cycles: float) -> float:
        """Move one block from src to dst starting at ``now``; return finish."""
        raise NotImplementedError

    def control(self, now: float, src: int, dst: int, cycles: float) -> float:
        """Send a short control message; ``cycles`` is the block cost it
        is derived from."""
        raise NotImplementedError

    @property
    def busy_cycles(self) -> float:
        raise NotImplementedError


class BusNetwork(ClusterNetwork):
    """Shared-medium Ethernet: every message serializes on one channel."""

    def __init__(self, kind: NetworkKind, machines: int) -> None:
        super().__init__(kind, machines)
        self._bus = Server()

    def transfer(self, now: float, src: int, dst: int, cycles: float) -> float:
        self.messages += 1
        return self._bus.request(now, self._service(now, cycles))

    def control(self, now: float, src: int, dst: int, cycles: float) -> float:
        self.control_messages += 1
        return self._bus.request(now, self._service(now, cycles * CONTROL_FRACTION))

    @property
    def busy_cycles(self) -> float:
        return self._bus.busy_cycles


class SwitchNetwork(ClusterNetwork):
    """Switched ATM fabric: contention only at the destination port."""

    def __init__(self, kind: NetworkKind, machines: int) -> None:
        super().__init__(kind, machines)
        self._ports = [Server() for _ in range(machines)]

    def transfer(self, now: float, src: int, dst: int, cycles: float) -> float:
        self.messages += 1
        return self._ports[dst].request(now, self._service(now, cycles))

    def control(self, now: float, src: int, dst: int, cycles: float) -> float:
        self.control_messages += 1
        return self._ports[dst].request(now, self._service(now, cycles * CONTROL_FRACTION))

    @property
    def busy_cycles(self) -> float:
        return sum(p.busy_cycles for p in self._ports)

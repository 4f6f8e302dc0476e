"""Memory-system back-end of the paper's Section 5.1.

One topology-driven back-end,
:class:`~repro.sim.backends.composed.ComposedBackend`, is instantiated
from a platform's declarative tree (:mod:`repro.topology`).  The shape
of the tree picks its access path, so it covers the paper's five
simulators -- SMP (snooping bus), cluster of workstations and cluster
of SMPs (each over a bus-based Ethernet or a switched ATM) -- and
deeper multi-level fabrics.
"""

from repro.sim.backends.base import BackendStats, MemoryBackend, make_backend
from repro.sim.backends.composed import ComposedBackend, Fabric

__all__ = [
    "BackendStats",
    "ComposedBackend",
    "Fabric",
    "MemoryBackend",
    "make_backend",
]

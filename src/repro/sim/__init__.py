"""Program-driven memory-hierarchy simulators (the paper's MINT back-ends).

The paper validates its analytical model against five hand-built memory
system simulators driven by the MINT MIPS interpreter.  This package is
our substitute substrate: an SPMD execution engine interleaves
per-process memory-reference event streams (produced by the real
application kernels in :mod:`repro.apps`) and drives one
cycle-accounting back-end, built from each platform's topology tree,
for the five platforms -- SMP, cluster of workstations (bus / switch),
and cluster of SMPs (bus / switch).
"""

from repro.sim.latencies import (
    CACHE_LINE_BYTES,
    CPU_HZ,
    DIRECTORY_BLOCK_BYTES,
    ITEM_BYTES,
    LatencyTable,
    NETWORK_LATENCIES,
    NetworkKind,
    PAPER_LATENCIES,
)
from repro.sim.cache import SetAssociativeCache


def __getattr__(name):
    """Lazily expose the heavier simulator pieces.

    ``repro.sim.latencies`` is imported by the core model for its
    constants; deferring the engine/backend imports keeps that path free
    of the apps <-> sim cycle.
    """
    if name in ("SimulationEngine", "SimulationResult"):
        from repro.sim import engine

        return getattr(engine, name)
    if name in ("BackendStats", "MemoryBackend", "make_backend", "ComposedBackend", "Fabric"):
        from repro.sim import backends

        return getattr(backends, name)
    raise AttributeError(f"module 'repro.sim' has no attribute {name!r}")


__all__ = [
    "BackendStats",
    "CACHE_LINE_BYTES",
    "CPU_HZ",
    "ComposedBackend",
    "DIRECTORY_BLOCK_BYTES",
    "Fabric",
    "ITEM_BYTES",
    "LatencyTable",
    "MemoryBackend",
    "NETWORK_LATENCIES",
    "NetworkKind",
    "PAPER_LATENCIES",
    "SetAssociativeCache",
    "SimulationEngine",
    "SimulationResult",
    "make_backend",
]

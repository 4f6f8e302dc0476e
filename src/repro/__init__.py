"""repro: Du & Zhang's cluster memory-hierarchy model, reproduced.

A production-quality reproduction of *The Impact of Memory Hierarchies
on Cluster Computing* (IPPS 1999): the analytical performance model,
the program-driven memory-hierarchy simulators it was validated
against, the SPMD benchmark applications, the trace-analysis tools, and
the budget-constrained cluster-design optimizer.

Quick start::

    >>> import repro
    >>> workload = repro.PAPER_FFT                 # paper Table 2 row
    >>> platform = repro.PlatformSpec(
    ...     name="my-cluster", n=1, N=4,
    ...     cache_bytes=256 * 1024, memory_bytes=64 * 1024 * 1024,
    ...     network=repro.NetworkKind.ETHERNET_100,
    ... )
    >>> estimate = repro.evaluate(platform, workload.locality, workload.gamma,
    ...                           mode="throttled")
    >>> print(f"{estimate.e_instr_seconds:.3e}")  # seconds per instruction
    7.162e-09

A platform whose modeled queues saturate gets an infinite time and
``estimate.feasible`` is False; nothing raises.

See ``examples/`` for complete scenarios and ``DESIGN.md`` for the
paper-to-module map.
"""

from repro.core import (
    AmatBreakdown,
    ExecutionEstimate,
    MemoryHierarchy,
    MemoryLevel,
    PlatformKind,
    PlatformSpec,
    QueueSaturationError,
    StackDistanceModel,
    average_memory_access_time,
    evaluate,
)
from repro.sim.latencies import CPU_HZ, ITEM_BYTES, LatencyTable, NetworkKind, PAPER_LATENCIES
from repro.workloads import (
    PAPER_EDGE,
    PAPER_FFT,
    PAPER_LU,
    PAPER_RADIX,
    PAPER_TPCC,
    PAPER_WORKLOADS,
    WorkloadParams,
)

__version__ = "1.0.0"

__all__ = [
    "AmatBreakdown",
    "CPU_HZ",
    "ExecutionEstimate",
    "ITEM_BYTES",
    "LatencyTable",
    "MemoryHierarchy",
    "MemoryLevel",
    "NetworkKind",
    "PAPER_EDGE",
    "PAPER_FFT",
    "PAPER_LATENCIES",
    "PAPER_LU",
    "PAPER_RADIX",
    "PAPER_TPCC",
    "PAPER_WORKLOADS",
    "PlatformKind",
    "PlatformSpec",
    "QueueSaturationError",
    "StackDistanceModel",
    "WorkloadParams",
    "__version__",
    "average_memory_access_time",
    "evaluate",
]

"""Address-trace infrastructure: collection, stack distances, analysis.

The paper's methodology starts from per-processor memory-reference
traces: stack-distance curves are extracted from an address stream
(citing Coffman & Denning) and the workload parameters (alpha, beta,
gamma) are fitted to them.  The authors list trace collection and trace
analysis among the supporting tools they were still building; this
package implements both.
"""

from repro.trace.events import Trace, concatenate_traces
from repro.trace.collector import TraceCollector
from repro.trace.stackdist import (
    COLD_DISTANCE,
    hit_ratio,
    lru_hit_ratios,
    prev_occurrence,
    stack_distances,
    stack_distances_naive,
)

_ANALYSIS_NAMES = (
    "TraceCharacterization",
    "analyze_addresses",
    "analyze_trace",
    "characterize_run",
    "measure_sharing",
    "measure_sharing_fraction",
)

_LAZY_MODULES = {
    "ArrayProfile": "profiles",
    "RunProfile": "profiles",
    "profile_run": "profiles",
    # out-of-core ingestion pipeline (docs/TRACES.md)
    "TraceStoreWriter": "store",
    "TraceStoreReader": "store",
    "TraceChunk": "store",
    "write_trace": "store",
    "read_trace": "store",
    "import_address_text": "store",
    "import_address_binary": "store",
    "StreamingStackDistance": "streamdist",
    "StreamStats": "streamdist",
    "IncrementalFit": "fit",
    "Convergence": "fit",
    "ConvergenceStep": "fit",
    "IngestResult": "ingest",
    "ingest": "ingest",
}


def __getattr__(name):
    """Defer the analysis imports: they pull in the fitting module, which
    itself needs :mod:`repro.trace.stackdist` (lazy break of the cycle)."""
    if name in _ANALYSIS_NAMES:
        from repro.trace import analysis

        return getattr(analysis, name)
    if name in _LAZY_MODULES:
        import importlib

        mod = importlib.import_module(f"repro.trace.{_LAZY_MODULES[name]}")
        return getattr(mod, name)
    raise AttributeError(f"module 'repro.trace' has no attribute {name!r}")


__all__ = [
    "ArrayProfile",
    "COLD_DISTANCE",
    "Convergence",
    "ConvergenceStep",
    "IncrementalFit",
    "IngestResult",
    "RunProfile",
    "StreamStats",
    "StreamingStackDistance",
    "Trace",
    "TraceCharacterization",
    "TraceChunk",
    "TraceCollector",
    "TraceStoreReader",
    "TraceStoreWriter",
    "analyze_addresses",
    "analyze_trace",
    "characterize_run",
    "concatenate_traces",
    "hit_ratio",
    "import_address_binary",
    "import_address_text",
    "ingest",
    "lru_hit_ratios",
    "measure_sharing",
    "measure_sharing_fraction",
    "prev_occurrence",
    "profile_run",
    "read_trace",
    "stack_distances",
    "stack_distances_naive",
    "write_trace",
]

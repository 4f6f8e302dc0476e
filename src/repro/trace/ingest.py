"""End-to-end trace ingestion: raw trace -> registered workload.

The pipeline behind ``repro trace ingest``:

1. **Resolve** the source: a trace container (``.rtc``), a plain-text
   or binary address stream (imported into a container first, so every
   registered workload keeps a replayable container), or a directory
   of containers treated as one concatenated stream.
2. **Stream** the container chunk by chunk through
   :class:`~repro.trace.streamdist.StreamingStackDistance` and
   :class:`~repro.trace.fit.IncrementalFit` -- the full trace is never
   materialized, and the fit can stop early once converged.
3. **Register** the fitted :class:`~repro.workloads.params.WorkloadParams`
   in the workload directory so ``predict``/``design``/``simulate``
   accept the workload exactly like the paper's built-ins.

Every run increments the ``trace_*`` metrics (records, chunks, bytes,
spill events, records/s) in the process metrics registry and nests
``trace.ingest`` spans in the tracer, so ingestion shows up in
``--metrics-out`` / ``--trace-out`` like every other subsystem.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.obs.metrics import MetricsRegistry, REGISTRY
from repro.obs.spans import span
from repro.trace.fit import Convergence, IncrementalFit
from repro.trace.store import (
    STORE_SUFFIX,
    TraceStoreReader,
    import_address_binary,
    import_address_text,
)
from repro.trace.streamdist import StreamStats
from repro.workloads.fitting import FitResult
from repro.workloads.params import WorkloadParams
from repro.workloads.registry import (
    DEFAULT_WORKLOAD_DIR,
    RegisteredWorkload,
    save_workload,
)

__all__ = ["IngestResult", "ingest", "resolve_source"]

_TEXT_SUFFIXES = (".txt", ".text", ".addr", ".trace")
_BINARY_SUFFIXES = (".bin", ".raw")


@dataclass(frozen=True)
class IngestResult:
    """Everything one ingestion run produced."""

    name: str
    params: WorkloadParams
    fit: FitResult
    convergence: Convergence
    stream: StreamStats
    workload_path: Path  #: registered-workload document
    containers: tuple[Path, ...]  #: container(s) the stream came from
    source: str
    records: int
    bytes_read: int
    seconds: float
    torn_tail: bool
    stopped_early: bool  #: convergence stop rule cut the stream short

    @property
    def records_per_second(self) -> float:
        return self.records / self.seconds if self.seconds > 0 else 0.0

    def describe(self) -> str:
        p = self.params
        lines = [
            f"ingested {self.source} as workload {self.name!r}",
            f"  records   : {self.records:,} in {self.stream.chunks} chunks "
            f"({self.bytes_read:,} bytes, {self.records_per_second:,.0f} records/s)",
            f"  fit       : alpha={p.alpha:.4f} beta={p.beta:.4f} "
            f"gamma={p.gamma:.4f} (rmse={self.fit.rmse:.5f}, "
            f"cold={self.fit.cold_fraction:.4f})",
            f"  converged : {self.convergence.converged}"
            + (f" at chunk {self.convergence.converged_at}"
               if self.convergence.converged else "")
            + (" [stopped early]" if self.stopped_early else ""),
            f"  live items: {self.stream.live_items:,} "
            f"(peak {self.stream.peak_live_items:,}, "
            f"{self.stream.spill_events} spill events)",
            f"  registered: {self.workload_path}",
        ]
        if self.torn_tail:
            lines.append("  WARNING   : container had a torn tail "
                         "(writer did not close cleanly)")
        return "\n".join(lines)


def resolve_source(
    source: str | os.PathLike,
    *,
    workload_dir: str | os.PathLike = DEFAULT_WORKLOAD_DIR,
    name: str | None = None,
    chunk_records: int = 65536,
    compression: str = "zlib",
    binary_dtype: str = "<i8",
) -> tuple[str, list[Path]]:
    """Turn a raw source into (workload name, container paths).

    Text/binary address streams are first imported into a container
    under ``workload_dir`` so the registered workload stays replayable;
    a directory contributes every ``*.rtc`` file in sorted order.
    """
    src = Path(source)
    if not src.exists():
        raise ValueError(f"trace source {src} does not exist")
    if src.is_dir():
        containers = sorted(src.glob(f"*{STORE_SUFFIX}"))
        if not containers:
            raise ValueError(
                f"trace directory {src} holds no *{STORE_SUFFIX} containers"
            )
        return name or src.name, containers
    suffix = src.suffix.lower()
    if suffix == STORE_SUFFIX:
        return name or src.stem, [src]
    wl_name = name or src.stem
    converted = Path(workload_dir) / f"{wl_name}{STORE_SUFFIX}"
    with span("trace.ingest.import", source=str(src)):
        if suffix in _TEXT_SUFFIXES:
            import_address_text(
                src, converted, chunk_records=chunk_records,
                compression=compression,
            )
        elif suffix in _BINARY_SUFFIXES:
            import_address_binary(
                src, converted, dtype=binary_dtype,
                chunk_records=chunk_records, compression=compression,
            )
        else:
            raise ValueError(
                f"cannot ingest {src}: unknown suffix {suffix!r} "
                f"(expected {STORE_SUFFIX}, a directory, text "
                f"{_TEXT_SUFFIXES} or binary {_BINARY_SUFFIXES})"
            )
    return wl_name, [converted]


def _metrics(registry: MetricsRegistry):
    return {
        "records": registry.counter(
            "trace_ingest_records_total",
            "References folded into streaming ingestion",
        ),
        "chunks": registry.counter(
            "trace_ingest_chunks_total",
            "Chunks processed by streaming ingestion",
        ),
        "bytes": registry.counter(
            "trace_ingest_bytes_total",
            "Container bytes read by streaming ingestion",
        ),
        "spills": registry.counter(
            "trace_spill_events_total",
            "Live-item table evictions during streaming ingestion",
        ),
        "rate": registry.gauge(
            "trace_ingest_records_per_second",
            "Throughput of the most recent ingestion run",
        ),
    }


def ingest(
    source: str | os.PathLike,
    *,
    name: str | None = None,
    workload_dir: str | os.PathLike = DEFAULT_WORKLOAD_DIR,
    chunk_records: int = 65536,
    max_live_items: int | None = None,
    compression: str = "zlib",
    binary_dtype: str = "<i8",
    gamma: float | None = None,
    num_fit_points: int = 64,
    fit_every: int = 1,
    tol: float = 0.01,
    patience: int = 3,
    stop_early: bool = False,
    register: bool = True,
    metrics_registry: MetricsRegistry | None = None,
) -> IngestResult:
    """Run the full pipeline; returns the :class:`IngestResult`.

    ``fit_every`` re-fits once per N chunks (the histogram still sees
    every chunk; only the solver and the convergence record thin out).
    ``stop_early`` honours the convergence stop rule and skips the rest
    of the stream.  ``gamma`` overrides the measured value for
    address-only sources that carry no work counts.

    ``seconds``, and so records/s, spans the whole call.  In a process
    that has not fitted yet, that includes the one-time import of the
    SciPy solver at the first fit.
    """
    if fit_every < 1:
        raise ValueError("fit_every must be >= 1")
    registry = REGISTRY if metrics_registry is None else metrics_registry
    counters = _metrics(registry)
    t0 = time.perf_counter()

    with span("trace.ingest", source=str(source)):
        wl_name, containers = resolve_source(
            source,
            workload_dir=workload_dir,
            name=name,
            chunk_records=chunk_records,
            compression=compression,
            binary_dtype=binary_dtype,
        )
        fit = IncrementalFit(
            num_fit_points=num_fit_points,
            tol=tol,
            patience=patience,
            max_live_items=max_live_items,
            gamma_override=gamma,
        )
        bytes_read = 0
        torn = False
        stopped_early = False
        pending: list[np.ndarray] = []  # distances awaiting a re-fit
        pending_work = 0
        with span("trace.ingest.stream", containers=len(containers)):
            for container in containers:
                reader = TraceStoreReader(container)
                for chunk in reader.chunks():
                    counters["chunks"].inc()
                    counters["records"].inc(len(chunk))
                    pending.append(fit.engine.update(chunk.addresses))
                    pending_work += int(chunk.work.sum())
                    if len(pending) < fit_every:
                        continue
                    step = fit.update(
                        pending[0] if len(pending) == 1 else np.concatenate(pending),
                        work=pending_work,
                    )
                    pending, pending_work = [], 0
                    if stop_early and step is not None and step.converged:
                        stopped_early = True
                        break
                bytes_read += container.stat().st_size
                counters["bytes"].inc(container.stat().st_size)
                torn = torn or reader.torn_tail
                if stopped_early:
                    break
            if pending:
                fit.update(np.concatenate(pending), work=pending_work)

        stream = fit.engine.finalize()
        counters["spills"].inc(stream.spill_events)
        final_fit = fit.result()
        params = fit.params(
            wl_name, problem_size=f"{fit.records:,} ingested references"
        )
        convergence = fit.convergence()

        workload = RegisteredWorkload(
            params=params,
            source=str(source),
            container=str(containers[0]) if len(containers) == 1 else None,
            records=fit.records,
            chunks=stream.chunks,
            rmse=final_fit.rmse,
            cold_fraction=final_fit.cold_fraction,
            converged=convergence.converged,
            convergence=convergence.to_obj(),
            extras={
                "containers": [str(c) for c in containers],
                "torn_tail": torn,
                "spill_events": stream.spill_events,
                "peak_live_items": stream.peak_live_items,
            },
        )
        if register:
            with span("trace.ingest.register", workload=wl_name):
                wl_path = save_workload(workload_dir, workload)
        else:
            from repro.workloads.registry import workload_path
            wl_path = workload_path(workload_dir, wl_name)

    seconds = time.perf_counter() - t0
    counters["rate"].set(fit.records / seconds if seconds > 0 else 0.0)
    return IngestResult(
        name=wl_name,
        params=params,
        fit=final_fit,
        convergence=convergence,
        stream=stream,
        workload_path=wl_path,
        containers=tuple(containers),
        source=str(source),
        records=fit.records,
        bytes_read=bytes_read,
        seconds=seconds,
        torn_tail=torn,
        stopped_early=stopped_early,
    )

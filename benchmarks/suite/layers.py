"""Per-layer wall-clock accounting, installed from outside the program.

The benchmark times each layer by wrapping public functions and methods
for the duration of a traced operation; nothing under ``src/`` knows it
is being measured.  Every wrapped call adds its ``perf_counter_ns``
duration to its layer's total and count, and a stack of open calls
turns totals into *self* time: a call's self time is its duration minus
the durations of the wrapped calls nested inside it.

Hot calls (one per simulated reference, model evaluation or chunk) are
aggregated only.  Coarse calls -- an application run, a simulation
cell, a characterization, and the benchmark's own calls into the
runner, the design search and the ingest pipeline -- also record a
:class:`repro.obs.spans.Span`, written at exit as a Chrome trace.

Module-level functions are patched where they are looked up (for
example ``repro.cost.search.e_instr_seconds_batch``, not
``repro.core.batch``), so only the calls of the layer being measured
count.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext

__all__ = [
    "FIRES_ON",
    "PER_LAYER",
    "LayerClock",
    "installed",
    "layer_metrics",
    "region",
    "silent_layers",
]

GRIDS = ("grid-smp", "grid-cluster")

#: Wrapped call -> the workloads whose traced run must see it fire.  A
#: refactor that routes around a wrapper fails the self-check instead of
#: reporting a layer that silently went to zero.
FIRES_ON: dict[str, tuple[str, ...]] = {
    "apps.run": GRIDS,
    "sim.engine.execute": GRIDS,
    "sim.backends.access": GRIDS,
    "sim.backends.access_batch": GRIDS,
    "trace.analyze": GRIDS,
    "trace.stackdist": GRIDS,
    "trace.sharing": ("grid-cluster",),
    "workloads.fit": GRIDS + ("trace-ingest",),
    "core.evaluate": GRIDS,
    "core.batch_eval": ("design-sweep",),
    "core.lower_bound": ("design-sweep",),
    "trace.store_read": ("trace-ingest",),
    "trace.streamdist": ("trace-ingest",),
    "trace.fit_update": ("trace-ingest",),
    "workloads.register": ("trace-ingest",),
}

#: Every per-layer metric a traced run reports, with its unit.  Times
#: and counts are per operation (one grid pass, sweep or ingest); the
#: service rows cover the open-loop window.
PER_LAYER: dict[str, str] = {
    "apps.run_s": "s",
    "apps.runs": "count",
    "apps.refs": "count",
    "sim.engine.execute_s": "s",
    "sim.engine.self_s": "s",
    "sim.engine.cells": "count",
    "sim.engine.ns_per_ref": "ns",
    "sim.backends.access_s": "s",
    "sim.backends.access_calls": "count",
    "sim.backends.access_us_per_call": "us",
    "sim.backends.batch_s": "s",
    "sim.backends.batch_calls": "count",
    "sim.backends.batch_refs": "count",
    "sim.backends.batched_ref_share": "ratio",
    "sim.backends.batch_empty_ratio": "ratio",
    "trace.analyze_s": "s",
    "trace.stackdist_s": "s",
    "trace.sharing_s": "s",
    "trace.store_read_s": "s",
    "trace.streamdist_s": "s",
    "trace.fit_update_s": "s",
    "trace.chunks": "count",
    "trace.peak_live_items": "count",
    "workloads.fit_s": "s",
    "workloads.register_s": "s",
    "core.evaluate_s": "s",
    "core.evaluate_calls": "count",
    "core.batch_eval_s": "s",
    "core.batch_eval_calls": "count",
    "core.lower_bound_s": "s",
    "cost.search_s": "s",
    "cost.self_s": "s",
    "cost.candidates": "count",
    "cost.evaluated": "count",
    "cost.pruned": "count",
    "cost.memo_hits": "count",
    "cost.eval_ratio": "ratio",
    "runner.prefetch_s": "s",
    "runner.calibrate_s": "s",
    "runner.compare_s": "s",
    "runner.warm_load_s": "s",
    "runner.cache_hits": "count",
    "runner.cache_misses": "count",
    "service.waves": "count",
    "service.mean_batch": "count",
    "service.server_mean_ms": "ms",
    "service.shed": "count",
    "service.transport_ms": "ms",
    "loadgen.late_tail_ms": "ms",
    "proc.cpu_s": "s",
    "proc.wall_s": "s",
    "trace.overhead_pct": "%",
}


class LayerClock:
    """Aggregated per-layer totals, self times, call counts and spans."""

    def __init__(self) -> None:
        from repro.obs.spans import Tracer

        self.ns: defaultdict[str, int] = defaultdict(int)
        self.self_ns: defaultdict[str, int] = defaultdict(int)
        self.calls: defaultdict[str, int] = defaultdict(int)
        #: Work counted from return values (references, empty batches...).
        self.counts: defaultdict[str, int] = defaultdict(int)
        self.tracer = Tracer()
        #: One ``[nested_ns]`` accumulator per open wrapped call.
        self._stack: list[list[int]] = []

    def _close(self, name: str, frame: list[int], dt: int) -> None:
        """Book one finished call of ``dt`` ns whose frame was on top."""
        stack = self._stack
        stack.pop()
        if stack:
            stack[-1][0] += dt
        self.ns[name] += dt
        self.self_ns[name] += dt - frame[0]
        self.calls[name] += 1

    def wrap(self, name: str, fn, *, span: bool = False, observe=None):
        """``fn`` timed as layer ``name``; ``observe(result)`` counts work."""
        stack, close, clock, tracer = self._stack, self._close, time.perf_counter_ns, self.tracer

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            frame = [0]
            stack.append(frame)
            t0 = clock()
            try:
                if span:
                    with tracer.span(name):
                        result = fn(*args, **kwargs)
                else:
                    result = fn(*args, **kwargs)
            finally:
                close(name, frame, clock() - t0)
            if observe is not None:
                observe(result)
            return result

        return timed

    def wrap_iter(self, name: str, fn, *, count: str):
        """A generator function timed per ``next``; items add to ``count``."""
        stack, close, clock, counts = self._stack, self._close, time.perf_counter_ns, self.counts

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            items = iter(fn(*args, **kwargs))
            while True:
                frame = [0]
                stack.append(frame)
                t0 = clock()
                try:
                    item = next(items)
                except StopIteration:
                    return
                finally:
                    close(name, frame, clock() - t0)
                counts[count] += 1
                yield item

        return timed

    @contextmanager
    def region(self, name: str, **attrs):
        """Time a coarse call the benchmark makes itself, as a span too."""
        frame = [0]
        self._stack.append(frame)
        t0 = time.perf_counter_ns()
        try:
            with self.tracer.span(name, **attrs):
                yield
        finally:
            self._close(name, frame, time.perf_counter_ns() - t0)

    def chrome_trace(self) -> dict:
        """The recorded spans as Chrome ``trace_event`` JSON."""
        from repro.obs.profile import CycleProfile

        return CycleProfile().to_trace_events(spans=self.tracer.roots)


def region(clock: LayerClock | None, name: str, **attrs):
    """``clock.region(name)``, or nothing for an untraced operation."""
    return clock.region(name, **attrs) if clock is not None else nullcontext()


def _subclasses(cls) -> list[type]:
    out, todo = [], [cls]
    while todo:
        for sub in todo.pop().__subclasses__():
            out.append(sub)
            todo.append(sub)
    return out


def _targets(clock: LayerClock):
    """``(owner, attr, replacement)`` for every wrapped call."""
    import repro.apps.registry  # noqa: F401  (defines every application class)
    import repro.cost.search as search
    import repro.experiments.runner as runner
    import repro.sim.backends  # noqa: F401  (defines every back-end class)
    import repro.trace.analysis as analysis
    import repro.trace.fit as fit
    import repro.trace.ingest as ingest
    from repro.apps.base import SpmdApplication
    from repro.sim.backends.base import MemoryBackend
    from repro.sim.engine import SimulationEngine
    from repro.trace.store import TraceStoreReader
    from repro.trace.streamdist import StreamingStackDistance

    counts = clock.counts

    def app_refs(run):
        counts["apps.refs"] += run.total_references

    def engine_refs(result):
        counts["sim.engine.refs"] += result.total_references

    def batch_refs(result):
        consumed = result[0]
        counts["sim.backends.batch_refs"] += consumed
        if not consumed:
            counts["sim.backends.batch_empty"] += 1

    def method(owner, attr, name, **kwargs):
        return owner, attr, clock.wrap(name, vars(owner)[attr], **kwargs)

    for cls in _subclasses(SpmdApplication):
        if "run" in vars(cls):
            yield method(cls, "run", "apps.run", span=True, observe=app_refs)
    yield method(
        SimulationEngine, "execute", "sim.engine.execute", span=True, observe=engine_refs
    )
    for cls in _subclasses(MemoryBackend):
        if "access" in vars(cls):
            yield method(cls, "access", "sim.backends.access")
        if "access_batch" in vars(cls):
            yield method(
                cls, "access_batch", "sim.backends.access_batch", observe=batch_refs
            )
    yield method(runner, "analyze_trace", "trace.analyze", span=True)
    yield method(runner, "measure_sharing", "trace.sharing", span=True)
    yield method(runner, "evaluate", "core.evaluate")
    yield method(analysis, "stack_distances", "trace.stackdist", span=True)
    yield method(analysis, "fit_from_distances", "workloads.fit")
    yield method(fit, "fit_stack_distance_model", "workloads.fit")
    yield method(search, "e_instr_seconds_batch", "core.batch_eval")
    yield method(search, "e_instr_lower_bounds", "core.lower_bound")
    yield (
        TraceStoreReader,
        "chunks",
        clock.wrap_iter(
            "trace.store_read", vars(TraceStoreReader)["chunks"], count="trace.chunks"
        ),
    )
    yield method(StreamingStackDistance, "update", "trace.streamdist")
    yield method(fit.IncrementalFit, "update", "trace.fit_update")
    yield method(ingest, "save_workload", "workloads.register", span=True)


@contextmanager
def installed(clock: LayerClock):
    """Install every wrapper for the duration of the block."""
    undo = []
    try:
        for owner, attr, replacement in _targets(clock):
            undo.append((owner, attr, vars(owner)[attr]))
            setattr(owner, attr, replacement)
        yield clock
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)


def silent_layers(clock: LayerClock, workload: str) -> list[str]:
    """Wrapped calls mapped to ``workload`` that never fired."""
    return sorted(
        name
        for name, workloads in FIRES_ON.items()
        if workload in workloads and clock.calls[name] == 0
    )


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(clock: LayerClock, ops: int, extra: dict) -> dict[str, float]:
    """Every :data:`PER_LAYER` metric over ``ops`` traced operations;
    ``extra`` supplies the values the workload counted itself."""
    ns, calls, counts = clock.ns, clock.calls, clock.counts

    def secs(name: str) -> float:
        return ns[name] / 1e9 / ops

    access_calls = calls["sim.backends.access"]
    batch_calls = calls["sim.backends.access_batch"]
    batch_refs = counts["sim.backends.batch_refs"]
    values = {
        "apps.run_s": secs("apps.run"),
        "apps.runs": calls["apps.run"] / ops,
        "apps.refs": counts["apps.refs"] / ops,
        "sim.engine.execute_s": secs("sim.engine.execute"),
        "sim.engine.self_s": clock.self_ns["sim.engine.execute"] / 1e9 / ops,
        "sim.engine.cells": calls["sim.engine.execute"] / ops,
        "sim.engine.ns_per_ref": _ratio(
            ns["sim.engine.execute"], counts["sim.engine.refs"]
        ),
        "sim.backends.access_s": secs("sim.backends.access"),
        "sim.backends.access_calls": access_calls / ops,
        "sim.backends.access_us_per_call": _ratio(ns["sim.backends.access"], access_calls)
        / 1e3,
        "sim.backends.batch_s": secs("sim.backends.access_batch"),
        "sim.backends.batch_calls": batch_calls / ops,
        "sim.backends.batch_refs": batch_refs / ops,
        "sim.backends.batched_ref_share": _ratio(batch_refs, batch_refs + access_calls),
        "sim.backends.batch_empty_ratio": _ratio(
            counts["sim.backends.batch_empty"], batch_calls
        ),
        "trace.analyze_s": secs("trace.analyze"),
        "trace.stackdist_s": secs("trace.stackdist"),
        "trace.sharing_s": secs("trace.sharing"),
        "trace.store_read_s": secs("trace.store_read"),
        "trace.streamdist_s": secs("trace.streamdist"),
        "trace.fit_update_s": secs("trace.fit_update"),
        "trace.chunks": counts["trace.chunks"] / ops,
        "workloads.fit_s": secs("workloads.fit"),
        "workloads.register_s": secs("workloads.register"),
        "core.evaluate_s": secs("core.evaluate"),
        "core.evaluate_calls": calls["core.evaluate"] / ops,
        "core.batch_eval_s": secs("core.batch_eval"),
        "core.batch_eval_calls": calls["core.batch_eval"] / ops,
        "core.lower_bound_s": secs("core.lower_bound"),
        "cost.search_s": secs("cost.search"),
        "cost.self_s": clock.self_ns["cost.search"] / 1e9 / ops,
        "runner.prefetch_s": secs("runner.prefetch"),
        "runner.calibrate_s": secs("runner.calibrate"),
        "runner.compare_s": secs("runner.compare"),
        "runner.warm_load_s": secs("runner.warm_load"),
    }
    values.update(extra)
    unknown = set(values) - set(PER_LAYER)
    if unknown:
        raise KeyError(f"not per-layer metrics: {sorted(unknown)}")
    return {name: float(values.get(name, 0.0)) for name in PER_LAYER}

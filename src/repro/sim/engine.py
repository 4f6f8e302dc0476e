"""SPMD execution engine: interleaves per-process traces over a back-end.

This is the substitute for the paper's MINT front-end.  Each process
replays its recorded reference stream against the platform back-end;
a priority queue keeps global time roughly causal so that contention on
shared servers (buses, network segments, disks) is realized in the
order requests would actually arrive.  Barriers synchronize all
processes to the latest arrival plus the back-end's barrier overhead --
the waiting the analytical model captures with order statistics.

The ``horizon`` parameter trades strict causality for speed: a process
may run up to ``horizon`` cycles past the globally earliest process
before being rescheduled.  Zero gives exact earliest-first interleaving;
the default (200 cycles, a few memory accesses) is indistinguishable in
aggregate statistics and several times faster.

Two execution lanes produce bit-identical results.  The scalar lane
dispatches one ``backend.access`` per reference.  The batched lane
(``fastpath=True``, the default) first offers every step to
``backend.access_batch``, which walks the run of pure-local cache hits
that starts there -- hits that cannot touch a shared server or another
process's coherence state -- one slot-index lookup per reference, up to
the next barrier, the causality horizon or the next fault trigger, and
advances the clock with the scalar step's own additions.  The reference
that ends a run (a miss, or a hit that could queue or invalidate) is
stepped scalar at once.  Per-trace views (addresses, write flags,
compute work, barrier indices) are hoisted once at construction and
reused across ``execute`` calls rather than rebuilt per invocation.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

import numpy as np

from repro.apps.base import ApplicationRun
from repro.core.platform import PlatformSpec
from repro.faults.inject import F_DELAY, F_STALL, F_SLOW, compile_triggers
from repro.faults.plan import FaultPlan
from repro.obs.profile import CycleProfile
from repro.obs.timeline import Timeline, TimelineRecorder
from repro.sim.backends.base import BackendStats, _acc, make_backend

__all__ = ["SimulationEngine", "SimulationResult"]


@dataclass(frozen=True)
class SimulationResult:
    """Outcome of simulating one application run on one platform."""

    platform_name: str
    application: str
    total_cycles: float  #: wall clock of the parallel execution
    total_instructions: int  #: m + M summed over all processes
    total_references: int  #: M summed over all processes
    e_instr_seconds: float  #: simulated E(Instr), the paper's metric
    e_instr_cycles: float
    barrier_wait_cycles: float  #: total cycles processes spent waiting
    stats: BackendStats
    per_process_cycles: tuple[float, ...] = field(default=())
    #: Injected fault bookkeeping (zero without a ``FaultPlan``):
    #: ``fault_cycles`` is the stall time actually charged (a stall
    #: absorbed by barrier waiting charges less than its length),
    #: ``fault_events`` counts triggers that fired before the run ended.
    fault_cycles: float = 0.0
    fault_events: int = 0
    #: Per-window counter history when the engine ran with
    #: ``sample_every``; ``None`` otherwise (sampling is opt-in).
    timeline: Timeline | None = field(default=None, repr=False)
    #: Exact cycle attribution when the engine ran with ``profile=True``;
    #: ``None`` otherwise (profiling is opt-in).  Per-(topology node,
    #: cause) buckets that sum bit-exactly to ``P * total_cycles``.
    profile: CycleProfile | None = field(default=None, repr=False)

    @property
    def e_app_seconds(self) -> float:
        """Simulated wall time of the whole run."""
        return self.e_instr_seconds * self.total_instructions

    @property
    def utilizations(self) -> dict[str, float]:
        """Per-resource utilization (busy / span) measured by the back-end."""
        prefix = "utilization:"
        return {
            k[len(prefix):]: v
            for k, v in self.stats.extra.items()
            if k.startswith(prefix)
        }

    @property
    def bottleneck(self) -> str | None:
        """The busiest serialized resource, if any was exercised."""
        u = self.utilizations
        return max(u, key=u.get) if u else None

    def describe(self) -> str:
        util = ", ".join(f"{k} {100 * v:.0f}%" for k, v in self.utilizations.items())
        faults = (
            f", faults {self.fault_events} (+{self.fault_cycles:,.0f} cycles)"
            if self.fault_events
            else ""
        )
        return (
            f"{self.application} on {self.platform_name}: "
            f"{self.total_cycles:,.0f} cycles, E(Instr)={self.e_instr_seconds:.3e}s "
            f"(miss {100 * self.stats.miss_ratio:.2f}%, "
            f"remote {100 * self.stats.remote_ratio:.3f}%, "
            f"barrier wait {self.barrier_wait_cycles:,.0f}"
            + faults
            + (f"; util: {util}" if util else "")
            + ")"
        )


class SimulationEngine:
    """Replays an :class:`ApplicationRun` on a platform back-end."""

    def __init__(
        self,
        spec: PlatformSpec,
        run: ApplicationRun,
        horizon: float = 200.0,
        fastpath: bool = True,
        sample_every: float | None = None,
        fault_plan: FaultPlan | None = None,
        profile: bool = False,
    ) -> None:
        """``sample_every`` (simulated cycles) turns on interval sampling:
        the result carries a :class:`~repro.obs.timeline.Timeline` whose
        per-window counters sum exactly to the end-of-run stats.  The
        default ``None`` records nothing and adds no per-reference cost.

        ``fault_plan`` injects deterministic misbehavior (delays,
        stalls, slowdowns, network spikes -- see :mod:`repro.faults`).
        Engine-side events trigger when a process's clock first reaches
        the trigger time at a reference boundary; the batched lane
        cuts every run at the next pending trigger so both lanes stay
        bit-identical under any plan.  The default ``None`` adds no
        per-step cost.

        ``profile=True`` turns on exact cycle attribution: the result
        carries a :class:`~repro.obs.profile.CycleProfile` whose
        per-(topology node, cause) buckets sum bit-exactly to
        ``P * total_cycles`` in both lanes (see docs/OBSERVABILITY.md).
        The default ``False`` records nothing and adds no per-miss cost.
        """
        if run.num_procs != spec.total_processors:
            raise ValueError(
                f"application ran with {run.num_procs} processes but the platform "
                f"has {spec.total_processors} processors"
            )
        if horizon < 0:
            raise ValueError("horizon must be non-negative")
        if sample_every is not None and sample_every <= 0:
            raise ValueError("sample_every must be positive (or None to disable)")
        self.spec = spec
        self.run = run
        self.horizon = horizon
        self.fastpath = fastpath
        self.sample_every = sample_every
        self.fault_plan = fault_plan
        self.profile = profile
        # Compiled per-process trigger schedules (None when the plan has
        # no engine-side events); network spikes go to the back-end hook.
        self._fault_triggers = (
            compile_triggers(fault_plan, run.num_procs)
            if fault_plan is not None and fault_plan
            else None
        )
        home_proc = run.address_space.home_map()
        backend = make_backend(spec, (home_proc // spec.n).astype(np.int64))
        self.backend = backend
        if fault_plan is not None and fault_plan:
            spikes = fault_plan.network_extra
            if spikes is not None:
                backend.install_network_spikes(spikes)
        # Hoisted per-trace views, built once and shared by every
        # execute() call: the hot loop must not re-read trace attributes
        # or rebuild barrier lists per invocation.  A memoryview indexes
        # to plain Python scalars without copying the trace.
        self._views = [
            (memoryview(t.addresses), memoryview(t.is_write), memoryview(t.work))
            for t in run.traces
        ]
        self._barrier_lists = [t.barriers.tolist() for t in run.traces]
        self._lengths = [t.memory_instructions for t in run.traces]
        self._tail_works = [t.tail_work for t in run.traces]

    # ------------------------------------------------------------------
    def execute(self) -> SimulationResult:
        run, backend = self.run, self.backend
        P = run.num_procs
        views = self._views
        barrier_lists = self._barrier_lists
        lengths = self._lengths
        tail_works = self._tail_works
        use_batch = self.fastpath
        access = backend.access
        access_batch = backend.access_batch
        # Interval sampling: rec stays None on the default path, so the
        # hot loop pays only a local is-None test per step when off.
        rec = (
            TimelineRecorder(self.sample_every, backend)
            if self.sample_every is not None
            else None
        )
        #: Completion times of a batched run, collected only when sampling.
        times = [] if rec is not None else None
        # Cycle attribution: the back-end feeds (node, cause) buckets of
        # the sink dict on every miss path; the engine accounts for the
        # remaining advances itself -- compute, cache-hit time (folded
        # once at the end as references * t_hit), fault stalls, barrier
        # and finish waiting.  All quantities are multiples of 2^-6
        # cycles, so every accumulation below is exact and the buckets
        # reassemble P * total_cycles bit-exactly in every lane.
        profiling = self.profile
        if profiling:
            sink: dict = {}
            backend.install_profiler(sink)
            refs_before = backend.stats.references
        compute_cycles = 0.0  #: issue + padding work attributed to "cpu"
        slow_extra = 0.0  #: extra compute charged by F_SLOW windows
        t_hit_f = float(backend.t_hit)

        clock = [0.0] * P
        index = [0] * P
        next_barrier = [0] * P
        # Fault-injection state: per-process trigger cursor and current
        # compute-slowdown factor.  ``ftrigs is None`` on the default
        # path, costing one comparison per scheduling round.
        ftrigs = self._fault_triggers
        fidx = [0] * P
        fslow = [1.0] * P
        fault_cycles = 0.0
        fault_events = 0
        INF = float("inf")
        barrier_arrivals: list[float] = []
        waiting: list[int] = []
        barrier_wait = 0.0
        finished = 0
        seq = 0

        heap: list[tuple[float, int, int]] = [(0.0, i, p) for i, p in enumerate(range(P))]
        heapq.heapify(heap)
        horizon = self.horizon

        while heap:
            now, _, p = heapq.heappop(heap)
            limit = (heap[0][0] + horizon) if heap else INF
            addr, wr, wk = views[p]
            bl = barrier_lists[p]
            i = index[p]
            n_i = lengths[p]
            t = clock[p]
            nb = next_barrier[p]
            if ftrigs is not None:
                ftl = ftrigs[p]
                fi = fidx[p]
                fnext = ftl[fi][0] if fi < len(ftl) else INF
                factor = fslow[p]
            else:
                ftl = None
                fi = 0
                fnext = INF
                factor = 1.0
            blocked = False
            done = False

            while True:
                # Drain every fault trigger the clock has reached.  Both
                # lanes pass through this point with identical clocks (a
                # batched run stops after the crossing reference, exactly
                # where the scalar loop would land), so trigger
                # application is lane-independent by construction.
                while fnext <= t:
                    _, code, val = ftl[fi]
                    if code == F_DELAY:
                        t += val
                        fault_cycles += val
                        fault_events += 1
                        if rec is not None:
                            rec.record_fault(t, val)
                    elif code == F_STALL:
                        if val > t:
                            add = val - t
                            t = val
                            fault_cycles += add
                            fault_events += 1
                            if rec is not None:
                                rec.record_fault(t, add)
                        else:
                            # Resume time already passed (e.g. absorbed
                            # by barrier waiting): the stall costs nothing.
                            fault_events += 1
                    elif code == F_SLOW:
                        factor = val
                    else:  # F_NORMAL: slowdown window ended
                        factor = 1.0
                    fi += 1
                    fnext = ftl[fi][0] if fi < len(ftl) else INF
                if nb < len(bl) and bl[nb] == i:
                    nb += 1
                    barrier_arrivals.append(t)
                    waiting.append(p)
                    blocked = True
                    break
                if i >= n_i:
                    tw = tail_works[p]
                    if factor != 1.0:
                        t += tw * factor
                        if profiling:
                            compute_cycles += tw
                            slow_extra += tw * factor - tw
                    else:
                        t += tw
                        if profiling:
                            compute_cycles += tw
                    finished += 1
                    done = True
                    break
                if use_batch and factor == 1.0:
                    # Batched lane: the back-end walks the run of pure
                    # hits from i, cut at the next barrier, after the
                    # reference crossing the causality limit and where
                    # the next fault trigger fires -- exactly where the
                    # scalar loop would stop.
                    stop = bl[nb] if nb < len(bl) else n_i
                    k, t_run = access_batch(
                        p, addr, wr, wk, i, stop, t, limit, fnext, times
                    )
                    if k:
                        if rec is not None:
                            rec.record_batch(times)
                            times.clear()
                        if profiling:
                            # The run's compute share: its advance minus
                            # k hit latencies (the hits are folded once
                            # at the end).
                            compute_cycles += (t_run - t) - k * t_hit_f
                        t = t_run
                        i += k
                        if t > limit:
                            break
                        if i == stop or t >= fnext:
                            continue
                    # The run ended on a reference that is no pure hit:
                    # step it scalar now.
                # one instruction-stream step: compute, then the reference
                if factor != 1.0:
                    full = wk[i] * factor + 1.0
                    t += full
                    if profiling:
                        base = wk[i] + 1.0
                        compute_cycles += base
                        slow_extra += full - base
                else:
                    step = wk[i] + 1.0
                    t += step
                    if profiling:
                        compute_cycles += step
                t = access(p, addr[i], wr[i], t)
                i += 1
                if rec is not None:
                    rec.record_access(t)
                if t > limit:
                    break

            index[p] = i
            next_barrier[p] = nb
            clock[p] = t
            if ftrigs is not None:
                fidx[p] = fi
                fslow[p] = factor
            if blocked:
                # Barrier counts are equal across processes, so nobody can
                # finish before the last barrier: all P must arrive.
                if len(waiting) == P:
                    release = max(barrier_arrivals) + backend.barrier_overhead()
                    wait = sum(release - a for a in barrier_arrivals)
                    barrier_wait += wait
                    if rec is not None:
                        rec.record_barrier(release, wait)
                    for q in waiting:
                        clock[q] = release
                        seq += 1
                        heapq.heappush(heap, (release, seq, q))
                    waiting.clear()
                    barrier_arrivals.clear()
            elif not done:
                seq += 1
                heapq.heappush(heap, (t, seq, p))

        total_cycles = max(clock) if clock else 0.0
        if total_cycles > 0:
            for name, busy in backend.resource_busy_cycles().items():
                backend.stats.extra[f"utilization:{name}"] = busy / total_cycles
        total_instr = run.total_instructions
        e_cycles = total_cycles / total_instr if total_instr else 0.0
        profile = None
        if profiling:
            # Engine-side folds.  Cache hits are attributed once from the
            # back-end's reference counter: every access -- hit or miss,
            # scalar or batched -- begins with exactly one t_hit that the
            # back-end never attributes itself.  references * t_hit is a
            # product of an integer and a grid value, hence exact.
            _acc(sink, "cpu", "compute", compute_cycles)
            _acc(
                sink,
                "cache",
                "cache_hit",
                float(backend.stats.references - refs_before) * t_hit_f,
            )
            _acc(sink, "engine", "barrier_wait", barrier_wait)
            _acc(sink, "engine", "fault_stall", fault_cycles + slow_extra)
            _acc(
                sink,
                "engine",
                "finish_wait",
                sum(total_cycles - c for c in clock),
            )
            backend.install_profiler(None)  # detach: later runs attribute nothing
            profile = CycleProfile.from_sink(sink, float(P) * total_cycles)
        return SimulationResult(
            platform_name=self.spec.name,
            application=run.name,
            total_cycles=total_cycles,
            total_instructions=total_instr,
            total_references=run.total_references,
            e_instr_seconds=e_cycles * self.spec.cycle_seconds,
            e_instr_cycles=e_cycles,
            barrier_wait_cycles=barrier_wait,
            stats=backend.stats,
            per_process_cycles=tuple(clock),
            fault_cycles=fault_cycles,
            fault_events=fault_events,
            timeline=rec.finish(total_cycles) if rec is not None else None,
            profile=profile,
        )

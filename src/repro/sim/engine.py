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
dispatches one ``backend.access`` per reference.  The vectorized lane
(``fastpath=True``, the default) asks the back-end to consume whole runs
of references via ``access_batch`` -- maximal stretches of pure-local
cache hits between barriers and the causality horizon, which cannot
touch a shared server or another process's coherence state -- in single
array operations, falling back to scalar for anything that could queue,
invalidate, or miss.  Per-trace arrays (addresses, issue costs, barrier
indices) are hoisted once at construction and reused across ``execute``
calls rather than rebuilt per invocation.
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
from repro.sim.backends.base import BATCH_CHUNK, BackendStats, _acc, make_backend

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

    #: Slices shorter than this go straight to the scalar lane; a batch
    #: evaluation costs a fixed handful of array operations, which only
    #: pays for itself over longer runs.
    MIN_BATCH = 8
    #: Skip batching when fewer than this many cycles remain before the
    #: causality limit -- the window cannot fit a worthwhile run (every
    #: reference costs at least two cycles).  With ``horizon=0`` this
    #: disables batching entirely instead of regressing.
    MIN_WINDOW = 2.0 * MIN_BATCH

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
        the trigger time at a reference boundary; the vectorized lane
        cuts every batch at the next pending trigger so both lanes stay
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
        # Hoisted per-trace arrays, built once and shared by every
        # execute() call: the hot loop must not re-read trace attributes
        # or rebuild barrier lists per invocation.
        self._addresses = [t.addresses for t in run.traces]
        self._writes = [t.is_write for t in run.traces]
        self._works = [t.work for t in run.traces]
        self._barrier_lists = [t.barriers.tolist() for t in run.traces]
        self._lengths = [t.memory_instructions for t in run.traces]
        self._tail_works = [t.tail_work for t in run.traces]
        # The vectorized lane leaves timing entirely to the engine, as
        # per-trace prefix sums of the all-hit step cost (compute
        # padding + 1-cycle issue + the back-end's fixed t_hit):
        # an eligible run of k references starting at index i advances
        # the clock by sched[i+k-1] - sched[i-1], and the causality cut
        # is a single searchsorted.  Work and latencies are small
        # multiples of 0.25 cycles, far below 2**53, so these float64
        # sums are exact and bit-identical to scalar stepping.
        if fastpath:
            step = 1.0 + float(backend.t_hit)
            self._scheds = [(t.work + step).cumsum() for t in run.traces]
        else:
            self._scheds = None

    # ------------------------------------------------------------------
    def execute(self) -> SimulationResult:
        run, backend = self.run, self.backend
        P = run.num_procs
        addresses = self._addresses
        writes = self._writes
        works = self._works
        scheds = self._scheds
        barrier_lists = self._barrier_lists
        lengths = self._lengths
        tail_works = self._tail_works
        use_batch = self.fastpath
        min_batch = self.MIN_BATCH
        min_window = self.MIN_WINDOW
        # Interval sampling: rec stays None on the default path, so the
        # hot loop pays only a local is-None test per step when off.
        rec = (
            TimelineRecorder(self.sample_every, backend)
            if self.sample_every is not None
            else None
        )
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
        retry_at = [0] * P  #: batch re-attempt hints from access_batch
        # Fault-injection state: per-process trigger cursor and current
        # compute-slowdown factor.  ``ftrigs is None`` on the default
        # path, costing one comparison per scheduling round.
        ftrigs = self._fault_triggers
        fidx = [0] * P
        fslow = [1.0] * P
        fault_cycles = 0.0
        fault_events = 0
        INF = float("inf")
        # Per-process window cap, adapted to recent run lengths: the
        # eligibility scan costs O(window), so sizing the window to a
        # few times the typical miss-free run avoids scanning hundreds
        # of references to consume twenty.  Purely a performance knob --
        # consumption is always a prefix, so results are unchanged.
        caps = [192] * P
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
            limit = (heap[0][0] + horizon) if heap else float("inf")
            addr = addresses[p]
            wr = writes[p]
            wk = works[p]
            sc = scheds[p] if use_batch else None
            bl = barrier_lists[p]
            i = index[p]
            n_i = lengths[p]
            t = clock[p]
            nb = next_barrier[p]
            retry = retry_at[p]
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
                # batch is cut at the crossing reference, exactly where
                # the scalar loop would land), so trigger application is
                # lane-independent by construction.
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
                if use_batch and factor == 1.0 and i >= retry and limit - t >= min_window:
                    # Vectorized lane: cut the run at the next barrier
                    # and at the causality limit (the crossing reference
                    # is included, as in the scalar loop), then let the
                    # back-end consume the provably pure-local prefix in
                    # one shot -- bit-identical to scalar stepping.
                    stop = bl[nb] if nb < len(bl) else n_i
                    if stop - i >= min_batch:
                        base = sc[i - 1] if i else 0.0
                        hi = i + caps[p]
                        if hi > stop:
                            hi = stop
                        e = i + int(
                            np.searchsorted(sc[i:hi], limit - t + base, side="right")
                        ) + 1
                        if fnext != INF:
                            # Cut at the next fault trigger so the batch
                            # stops exactly where the scalar lane would:
                            # triggering is non-strict (t >= fnext), so
                            # side="left" finds the crossing reference,
                            # +1 includes it -- the scalar lane also
                            # completes it before the trigger fires.
                            e2 = i + int(
                                np.searchsorted(
                                    sc[i:hi], fnext - t + base, side="left"
                                )
                            ) + 1
                            if e2 < e:
                                e = e2
                        if e > hi:
                            e = hi
                        if e - i >= min_batch:
                            k, skip = backend.access_batch(p, addr[i:e], wr[i:e], t)
                            retry = i + skip
                            if k:
                                cap = 4 * k
                                caps[p] = (
                                    64 if cap < 64
                                    else BATCH_CHUNK if cap > BATCH_CHUNK
                                    else cap
                                )
                                if rec is not None:
                                    # The j-th consumed hit completes at
                                    # t + (sc[i+j] - base) -- the exact
                                    # times the scalar lane would realize.
                                    rec.record_batch(t + (sc[i:i + k] - base))
                                i += k
                                adv = float(sc[i - 1] - base)
                                t += adv
                                if profiling:
                                    # The run's compute share: the batch
                                    # advance minus k hit latencies (the
                                    # hits are folded once at the end).
                                    compute_cycles += adv - k * t_hit_f
                                if t > limit:
                                    break
                                continue
                    else:
                        retry = stop
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
                t = backend.access(p, int(addr[i]), bool(wr[i]), t)
                i += 1
                if rec is not None:
                    rec.record_access(t)
                if t > limit:
                    break

            index[p] = i
            next_barrier[p] = nb
            clock[p] = t
            retry_at[p] = retry
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

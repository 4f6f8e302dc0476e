"""Simulated-time interval sampling of back-end counters.

The engine's end-of-run :class:`~repro.sim.backends.base.BackendStats`
totals cannot show utilization ramping, miss-ratio phases, or barrier
convoys -- exactly the per-interval signal needed to check the paper's
M/G/1 contention terms phase by phase.  A :class:`TimelineRecorder`
attached to a :class:`~repro.sim.engine.SimulationEngine` partitions
simulated time into fixed windows of ``sample_every`` cycles and
attributes every counter increment to the window containing the
*completion time* of the event that caused it:

* scalar-lane accesses are attributed individually by diffing the
  back-end's counters around each ``access`` call;
* batched runs are attributed per reference from the completion times
  the back-end's ``access_batch`` reports when the engine samples --
  the clock after each consumed hit, the very value the scalar lane
  reaches there -- bucketed by the same floor-divide;
* barrier releases attribute the wait they resolved to the release
  window.

Attribution is exhaustive by construction: every mutation of the
tracked counters happens inside ``access``/``access_batch``/
``barrier_overhead``, each of which is bracketed by a recorder hook, so
the per-window deltas sum *exactly* to the end-of-run totals (the
property suite enforces this across every backend family, both lanes).
Windows with no events are simply absent.

Because batch attribution reuses the exact completion times the scalar
lane realizes, the two lanes produce bit-identical timelines.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["STAT_FIELDS", "Timeline", "TimelineRecorder", "TimelineWindow"]

#: The integer access-class counters of ``BackendStats``, in its order.
STAT_FIELDS = (
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


@dataclass(frozen=True)
class TimelineWindow:
    """Counter deltas inside one ``sample_every``-cycle window.

    ``counters`` holds the :data:`STAT_FIELDS` deltas plus
    ``barrier_wait_cycles`` (cycles of barrier waiting resolved by
    releases inside the window), ``fault_stall_cycles`` (injected fault
    delay/stall cycles resolved here, when the run carried a
    :class:`~repro.faults.plan.FaultPlan`), ``busy:<resource>`` (cycles
    each serialized resource was occupied by requests completing here)
    and ``requests:<resource>`` (how many requests they were).  Absent
    keys mean zero.
    """

    index: int
    start: float
    end: float
    counters: dict

    def get(self, key: str, default: float = 0.0) -> float:
        return self.counters.get(key, default)

    @property
    def references(self) -> float:
        return self.counters.get("references", 0)

    @property
    def miss_ratio(self) -> float:
        refs = self.counters.get("references", 0)
        if not refs:
            return 0.0
        return 1.0 - self.counters.get("cache_hits", 0) / refs

    def utilization(self, resource: str) -> float:
        """Busy fraction of ``resource`` over this window's width."""
        width = self.end - self.start
        if width <= 0:
            return 0.0
        return self.counters.get(f"busy:{resource}", 0.0) / width

    def to_obj(self) -> dict:
        return {
            "index": self.index,
            "start": self.start,
            "end": self.end,
            "counters": dict(self.counters),
        }

    @classmethod
    def from_obj(cls, obj: dict) -> "TimelineWindow":
        return cls(
            index=int(obj["index"]),
            start=float(obj["start"]),
            end=float(obj["end"]),
            counters=dict(obj["counters"]),
        )


@dataclass(frozen=True)
class Timeline:
    """The per-window history of one simulation."""

    sample_every: float
    total_cycles: float
    resources: tuple[str, ...]
    windows: tuple[TimelineWindow, ...]

    def totals(self) -> dict:
        """Sum of every counter across all windows.

        By construction this equals the end-of-run ``BackendStats``
        totals (for :data:`STAT_FIELDS`), the engine's
        ``barrier_wait_cycles``, and each resource's cumulative busy
        cycles and request count.
        """
        out: dict = {}
        for w in self.windows:
            for k, v in w.counters.items():
                out[k] = out.get(k, 0) + v
        return out

    def to_obj(self) -> dict:
        return {
            "sample_every": self.sample_every,
            "total_cycles": self.total_cycles,
            "resources": list(self.resources),
            "windows": [w.to_obj() for w in self.windows],
        }

    @classmethod
    def from_obj(cls, obj: dict) -> "Timeline":
        return cls(
            sample_every=float(obj["sample_every"]),
            total_cycles=float(obj["total_cycles"]),
            resources=tuple(obj.get("resources", ())),
            windows=tuple(TimelineWindow.from_obj(w) for w in obj["windows"]),
        )

    # ------------------------------------------------------------------
    def _merged(self, group: int) -> list[TimelineWindow]:
        """Coalesce ``group`` consecutive window indices into one row."""
        if group <= 1:
            return list(self.windows)
        merged: dict[int, dict] = {}
        for w in self.windows:
            g = w.index // group
            acc = merged.setdefault(g, {})
            for k, v in w.counters.items():
                acc[k] = acc.get(k, 0) + v
        width = group * self.sample_every
        return [
            TimelineWindow(
                index=g,
                start=g * width,
                end=min((g + 1) * width, self.total_cycles),
                counters=counters,
            )
            for g, counters in sorted(merged.items())
        ]

    def describe(self, max_rows: int = 24) -> str:
        """Text table: per-window traffic mix, utilization, barrier wait.

        When the run spans more than ``max_rows`` windows, adjacent
        windows are merged (sums stay exact) so the table stays
        readable.
        """
        if not self.windows:
            return (
                f"timeline: no events in {self.total_cycles:,.0f} cycles "
                f"(sample_every={self.sample_every:,.0f})"
            )
        span_windows = self.windows[-1].index + 1
        group = max(1, -(-span_windows // max_rows))  # ceil division
        rows = self._merged(group)
        util_cols = [r for r in self.resources]
        head = (
            f"{'window start':>14} {'refs':>9} {'miss%':>6} {'remote%':>8} "
            f"{'bar.wait':>10}"
            + "".join(f" {('u:' + r)[:12]:>12}" for r in util_cols)
        )
        lines = [
            f"timeline: {self.total_cycles:,.0f} cycles in windows of "
            f"{group * self.sample_every:,.0f}"
            + (f" ({group}x sample_every={self.sample_every:,.0f})" if group > 1 else "")
            + f", {len(rows)} active",
            head,
        ]
        for w in rows:
            refs = w.counters.get("references", 0)
            remote = w.counters.get("remote_clean", 0) + w.counters.get("remote_dirty", 0)
            lines.append(
                f"{w.start:>14,.0f} {refs:>9,} {100 * w.miss_ratio:>6.2f} "
                f"{100 * remote / refs if refs else 0.0:>8.3f} "
                f"{w.counters.get('barrier_wait_cycles', 0.0):>10,.0f}"
                + "".join(f" {100 * w.utilization(r):>11.1f}%" for r in util_cols)
            )
        return "\n".join(lines)


class TimelineRecorder:
    """Accumulates per-window counter deltas during one ``execute``.

    The engine calls :meth:`record_access` after every scalar-lane
    reference, :meth:`record_batch` after every batched run with the
    consumed hits' completion times, and :meth:`record_barrier` at each
    barrier release; :meth:`finish` freezes the result.  The recorder
    never touches simulation state, so enabling it cannot change
    results.
    """

    def __init__(self, sample_every: float, backend) -> None:
        if sample_every <= 0:
            raise ValueError("sample_every must be positive")
        self.sample_every = float(sample_every)
        self._backend = backend
        self._stats = backend.stats
        self._last_stats = self._snapshot()
        self._last_busy = dict(backend.resource_busy_cycles())
        self._last_reqs = dict(backend.resource_requests())
        self.resources = tuple(self._last_busy)
        self._wins: dict[int, dict] = {}

    def _snapshot(self) -> tuple:
        st = self._stats
        return tuple(getattr(st, f) for f in STAT_FIELDS)

    def _win(self, index: int) -> dict:
        w = self._wins.get(index)
        if w is None:
            w = self._wins[index] = {}
        return w

    # -- engine hooks ---------------------------------------------------
    def record_access(self, t: float) -> None:
        """Attribute counter changes since the last hook to time ``t``."""
        index = int(t // self.sample_every)
        snap = self._snapshot()
        if snap != self._last_stats:
            win = self._win(index)
            for name, now_v, then_v in zip(STAT_FIELDS, snap, self._last_stats):
                if now_v != then_v:
                    win[name] = win.get(name, 0) + (now_v - then_v)
            self._last_stats = snap
        busy = self._backend.resource_busy_cycles()
        if busy != self._last_busy:
            win = self._win(index)
            for name, v in busy.items():
                delta = v - self._last_busy[name]
                if delta:
                    key = f"busy:{name}"
                    win[key] = win.get(key, 0.0) + delta
            self._last_busy = busy
        reqs = self._backend.resource_requests()
        if reqs != self._last_reqs:
            win = self._win(index)
            for name, v in reqs.items():
                delta = v - self._last_reqs.get(name, 0)
                if delta:
                    key = f"requests:{name}"
                    win[key] = win.get(key, 0) + delta
            self._last_reqs = reqs

    def record_batch(self, completions) -> None:
        """Attribute one batched run of pure-local hits.

        ``completions`` holds each consumed reference's completion time,
        as ``access_batch`` reported it.  A run only ever advances
        ``references`` and ``cache_hits``; the baseline snapshot is
        refreshed so the next scalar diff starts clean.
        """
        W = self.sample_every
        counts: dict[int, int] = {}
        for t in completions:
            index = int(t // W)
            counts[index] = counts.get(index, 0) + 1
        for index, c in counts.items():
            win = self._win(index)
            win["references"] = win.get("references", 0) + c
            win["cache_hits"] = win.get("cache_hits", 0) + c
        self._last_stats = self._snapshot()

    def record_barrier(self, release: float, wait: float) -> None:
        """Attribute a barrier release (and the waiting it resolved)."""
        win = self._win(int(release // self.sample_every))
        win["barrier_wait_cycles"] = win.get("barrier_wait_cycles", 0.0) + wait
        self.record_access(release)

    def record_fault(self, t: float, cycles: float) -> None:
        """Attribute injected stall cycles (fault events) to a window.

        ``t`` is the process clock *after* the event applied -- the
        moment the stall resolved, matching the completion-time
        convention used for every other counter.  Faults mutate no
        back-end state, so no snapshot refresh is needed; the per-window
        ``fault_stall_cycles`` sum exactly to the run's
        ``SimulationResult.fault_cycles``.
        """
        win = self._win(int(t // self.sample_every))
        win["fault_stall_cycles"] = win.get("fault_stall_cycles", 0.0) + cycles

    # -- result ---------------------------------------------------------
    def finish(self, total_cycles: float) -> Timeline:
        self.record_access(total_cycles)  # sweep any residual deltas
        W = self.sample_every
        windows = tuple(
            TimelineWindow(
                index=i,
                start=i * W,
                end=min((i + 1) * W, total_cycles) if total_cycles > i * W else (i + 1) * W,
                counters=dict(sorted(w.items())),
            )
            for i, w in sorted(self._wins.items())
            if w
        )
        return Timeline(
            sample_every=W,
            total_cycles=total_cycles,
            resources=self.resources,
            windows=windows,
        )

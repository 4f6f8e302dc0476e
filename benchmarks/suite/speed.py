"""Host speed, sampled while the benchmark measures.

The reference machine shares its two cores with other tenants, and a
busy phase makes the core itself run slower: CPU time grows with wall
time, by up to twice, for seconds to hours.  No number of operations in
a run averages that out.  So while a run measures, a timer interrupts
the process every :data:`PERIOD_S` and times one :func:`tick`, a fixed
piece of interpreter work that no change to the program can speed up
or slow down: its duration measures the host alone.

:meth:`HostSpeed.seconds` then reports a timed span at the reference
speed: its wall time, less the ticks inside it, times
:data:`REFERENCE_TICK_S` over the median tick inside it.  On a quiet
reference host the two agree.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

__all__ = ["PERIOD_S", "REFERENCE_TICK_S", "HostSpeed", "tick"]

#: Time between two ticks.  A tick takes about 2% of it.
PERIOD_S = 0.02
#: A tick's duration, taken between a workload's own steps, on the
#: reference machine (Xeon, two cores, 2.1 GHz nominal) while no other
#: tenant is busy: set so that the compute workloads' scaled times match
#: their wall times measured on that quiet host.
REFERENCE_TICK_S = 0.0004
#: A span holding fewer ticks than this is scaled by the latest ones.
MIN_TICKS = 5


class _Item:
    __slots__ = ("key", "weight")

    def __init__(self, key: int, weight: int) -> None:
        self.key = key
        self.weight = weight


_ITEMS = [_Item(i, 3 * i) for i in range(256)]
_KEYS = np.random.default_rng(0).integers(0, 1 << 20, size=4096)
_VALUES = np.linspace(0.0, 1.0, 4096)


def _update(item: _Item, table: dict) -> int:
    table[item.key & 63] = table.get(item.weight & 63, 0) + item.key
    return item.key ^ item.weight


def tick() -> float:
    """Fixed work on data that fits the second-level cache, in three
    parts of about equal length, the kinds the program's own loops are
    made of:
    integer arithmetic; calls, attribute reads, dict updates and a sort;
    and small numpy sorts, searches and scans."""
    acc = 0
    for i in range(1500):
        acc = (acc * 31 + i) & 0xFFFFFFF
    table: dict = {}
    for _ in range(2):
        for item in _ITEMS:
            acc += _update(item, table)
        acc += len(sorted(table.values()))
    keys = np.sort(_KEYS)
    found = np.searchsorted(keys, _KEYS[::3])
    scanned = np.cumsum(_VALUES * 1.5 + 0.25)
    return acc + float(found[-1]) + float(scanned[-1])


class HostSpeed:
    """Ticks taken on a timer while the context is entered.

    Signal handlers run in the main thread between bytecodes, so a tick
    never overlaps a timestamp the main thread takes: every tick lies
    wholly inside or wholly outside a span.
    """

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._previous = None

    def _sample(self, signum=None, frame=None) -> None:
        t0 = time.perf_counter()
        tick()
        self.starts.append(t0)
        self.durations.append(time.perf_counter() - t0)

    def __enter__(self) -> "HostSpeed":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def slowdown(self, t0: float, t1: float) -> float:
        """The median tick in ``[t0, t1]`` over the reference tick.

        A span with fewer than :data:`MIN_TICKS` ticks uses the latest
        ticks before its end; with none at all, one is taken now.
        """
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_left(self.starts, t1)
        if hi - lo < MIN_TICKS:
            if not hi:
                self._sample()
                hi = 1
            lo = max(0, hi - MIN_TICKS)
        return statistics.median(self.durations[lo:hi]) / REFERENCE_TICK_S

    def seconds(self, t0: float, t1: float) -> float:
        """Wall seconds of ``[t0, t1]`` less its ticks, at the reference speed."""
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_left(self.starts, t1)
        busy = (t1 - t0) - sum(self.durations[lo:hi])
        return busy / self.slowdown(t0, t1)

"""Request coalescing with deadline propagation — the pure planning half.

Concurrent predict (or design) queries landing within a coalescing
window are funneled into **one** batched evaluation wave through
:meth:`repro.service.api.QueryAPI.predict_batch` /
:meth:`~repro.service.api.QueryAPI.design_batch`; per-case independence
of the batched evaluators makes the funneling invisible in the answers
(bit-identical to one-at-a-time calls, property-tested in
``tests/service/test_coalesce.py``).

This module holds the *policy*, not the transport: given a queue of
pending requests and the current time, when does the next wave dispatch
and who rides it?  Both executors — the asyncio server on the wall
clock and the overload property test on a virtual clock — call the same
:func:`next_wave`, so the deterministic replay exercises the exact
batching decisions production takes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

__all__ = ["PendingRequest", "next_wave", "percentile"]


@dataclass
class PendingRequest:
    """One admitted request waiting for its wave.

    ``deadline`` is absolute (arrival + the request's relative deadline,
    defaulted per endpoint); it propagates through the wave — checked
    before dispatch (shed as ``deadline`` if already past), and bounds
    the executor's timeout while the wave runs.
    """

    index: int
    endpoint: str
    arrival: float
    deadline: float
    payload: object = None
    #: Filled by the executor:
    outcome: str | None = field(default=None)
    answer: object = field(default=None)
    finished: float | None = field(default=None)

    @property
    def latency(self) -> float | None:
        return None if self.finished is None else self.finished - self.arrival


def next_wave(
    queue: Sequence[PendingRequest],
    free_at: float,
    window: float,
    max_batch: int,
) -> tuple[float, list[PendingRequest]]:
    """When the next wave dispatches, and which requests ride it.

    The window opens at the head request's arrival; the wave dispatches
    at ``head.arrival + window`` or when the executor frees up,
    whichever is later, and takes every request that has arrived by
    then, oldest first, up to ``max_batch``.
    """
    if not queue:
        raise ValueError("next_wave on an empty queue")
    head = queue[0]
    dispatch = max(free_at, head.arrival + window)
    riders = [p for p in queue if p.arrival <= dispatch][:max_batch]
    return dispatch, riders


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (deterministic, no interpolation)."""
    if not values:
        raise ValueError("percentile of no values")
    if not 0.0 <= q <= 100.0:
        raise ValueError("q must be in [0, 100]")
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))  # ceil without floats
    return ordered[int(rank) - 1]

"""Synthetic query streams, the deterministic replay harness, and a
minimal HTTP client.

Three consumers share this module:

* the **overload property test** replays a seeded stream against a
  :class:`~repro.service.server.ServiceCore` on a *virtual clock* —
  the same admission / breaker / coalescing / retry objects production
  uses, with only the transport and service durations modeled — so
  "p99 stays bounded and goodput holds at 5x load under a worker
  kill" is a deterministic assertion, not a flaky wall-clock hope;
* ``benchmarks/bench_service.py`` replays the same streams against a
  **real** :class:`~repro.service.server.QueryService` over localhost
  to produce ``BENCH_service.json``;
* ``repro query`` uses :func:`http_request` as its client.

Streams are pure functions of their seed (numpy PRNG, the same
discipline as :meth:`repro.faults.FaultPlan.generate`), and the replay
is a single-threaded discrete-event loop: arrivals, wave dispatches and
wave completions interleave in a fixed deterministic order, so two
replays of one seed produce byte-identical reports.
"""

from __future__ import annotations

import json
import socket
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.service.api import QueryError
from repro.service.chaos import ServiceFaultPlan
from repro.service.coalesce import PendingRequest, next_wave, percentile
from repro.service.server import ServiceCore

__all__ = [
    "SyntheticQuery",
    "generate_stream",
    "ServiceTimeModel",
    "ReplayRecord",
    "ReplayReport",
    "replay",
    "http_request",
]


# ---------------------------------------------------------------------------
# stream generation


@dataclass(frozen=True)
class SyntheticQuery:
    """One request of a synthetic stream: arrival time + wire body."""

    t: float
    endpoint: str
    body: dict


_PREDICT_SHAPES = (
    {"machines": 1, "procs_per_machine": 4},
    {"machines": 2, "procs_per_machine": 2},
    {"machines": 4, "procs_per_machine": 1},
    {"machines": 8, "procs_per_machine": 1, "cache_kb": 512},
    {"machines": 4, "procs_per_machine": 2, "network": "atm"},
)
_WORKLOAD_NAMES = ("FFT", "LU", "Radix", "EDGE")
_BUDGETS = (50_000.0, 100_000.0, 200_000.0)
#: Tiny problem sizes so a simulate dispatch costs milliseconds.
_SIM_BODIES = (
    {"app": "FFT", "app_args": {"points": 256}, "machines": 1, "procs_per_machine": 2},
    {"app": "EDGE", "app_args": {"height": 16, "width": 16}, "machines": 1, "procs_per_machine": 2},
)


def generate_stream(
    seed: int,
    *,
    duration: float,
    rate: float,
    mix: tuple[float, float, float] = (0.8, 0.1, 0.1),
    deadline_s: float | None = None,
) -> list[SyntheticQuery]:
    """A seeded Poisson query stream over ``duration`` seconds.

    ``rate`` is the offered load in requests/second; ``mix`` weights the
    (predict, design, simulate) endpoints.  ``deadline_s`` pins every
    request's relative deadline (``None`` leaves the per-endpoint policy
    default in force).
    """
    if duration <= 0 or rate <= 0:
        raise ValueError("duration and rate must be positive")
    if len(mix) != 3 or any(m < 0 for m in mix) or sum(mix) <= 0:
        raise ValueError("mix must be three non-negative weights")
    rng = np.random.default_rng(seed)
    probs = np.asarray(mix, dtype=float) / sum(mix)
    queries: list[SyntheticQuery] = []
    t = 0.0
    while True:
        t += float(rng.exponential(1.0 / rate))
        if t >= duration:
            break
        endpoint = ("predict", "design", "simulate")[int(rng.choice(3, p=probs))]
        if endpoint == "predict":
            body = dict(_PREDICT_SHAPES[int(rng.integers(len(_PREDICT_SHAPES)))])
            body["workload"] = _WORKLOAD_NAMES[int(rng.integers(len(_WORKLOAD_NAMES)))]
        elif endpoint == "design":
            body = {
                "workload": _WORKLOAD_NAMES[int(rng.integers(len(_WORKLOAD_NAMES)))],
                "budget": _BUDGETS[int(rng.integers(len(_BUDGETS)))],
            }
        else:
            body = dict(_SIM_BODIES[int(rng.integers(len(_SIM_BODIES)))])
            body["app_args"] = dict(body["app_args"])
        if deadline_s is not None:
            body["deadline_s"] = deadline_s
        queries.append(SyntheticQuery(t=round(t, 6), endpoint=endpoint, body=body))
    return queries


# ---------------------------------------------------------------------------
# deterministic replay


@dataclass(frozen=True)
class ServiceTimeModel:
    """Modeled wave service times (seconds) for the virtual replay."""

    predict_base: float = 0.004
    predict_per_item: float = 0.0005
    degraded_base: float = 0.001
    degraded_per_item: float = 0.0001
    design_base: float = 0.05
    design_per_item: float = 0.01
    simulate: float = 0.25

    def wave_seconds(self, endpoint: str, batch: int, outcome: str) -> float:
        if endpoint == "predict":
            if outcome == "degraded":
                return self.degraded_base + self.degraded_per_item * batch
            return self.predict_base + self.predict_per_item * batch
        if endpoint == "design":
            return self.design_base + self.design_per_item * batch
        return self.simulate


@dataclass
class ReplayRecord:
    """One request's fate, in arrival order."""

    endpoint: str
    arrival: float
    outcome: str  #: ok | degraded | shed
    reason: str | None  #: shed reason, None for delivered answers
    latency: float
    answer: object = None

    @property
    def admitted(self) -> bool:
        return self.reason not in ("rate_limited", "queue_full")

    @property
    def delivered(self) -> bool:
        return self.outcome in ("ok", "degraded")


@dataclass
class ReplayReport:
    """The replay's verdict: per-request records plus the aggregates the
    overload floors are asserted on."""

    duration: float
    records: list[ReplayRecord] = field(default_factory=list)

    @property
    def offered(self) -> int:
        return len(self.records)

    @property
    def delivered(self) -> int:
        return sum(1 for r in self.records if r.delivered)

    @property
    def degraded(self) -> int:
        return sum(1 for r in self.records if r.outcome == "degraded")

    @property
    def goodput(self) -> float:
        """Delivered (ok or degraded) answers per second."""
        return self.delivered / self.duration

    def sheds(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for r in self.records:
            if r.outcome == "shed":
                out[r.reason] = out.get(r.reason, 0) + 1
        return out

    def admitted_latencies(self, endpoint: str | None = None) -> list[float]:
        return [
            r.latency
            for r in self.records
            if r.admitted and (endpoint is None or r.endpoint == endpoint)
        ]

    def p99(self, endpoint: str | None = None) -> float:
        return percentile(self.admitted_latencies(endpoint), 99.0)

    def max_latency(self) -> float:
        return max((r.latency for r in self.records), default=0.0)

    def to_obj(self) -> dict:
        return {
            "duration_s": self.duration,
            "offered": self.offered,
            "delivered": self.delivered,
            "degraded": self.degraded,
            "goodput_rps": self.goodput,
            "sheds": self.sheds(),
            "p99_admitted_s": self.p99() if self.admitted_latencies() else None,
            "max_latency_s": self.max_latency(),
        }


_ARRIVAL, _COMPLETION, _DISPATCH = 1, 0, 2  # tie-break order at equal times


def replay(
    core: ServiceCore,
    stream: Sequence[SyntheticQuery],
    *,
    times: ServiceTimeModel | None = None,
    duration: float | None = None,
) -> ReplayReport:
    """Drive a :class:`ServiceCore` through a stream on a virtual clock.

    Single-server-per-endpoint discrete-event loop: admission happens at
    arrival, coalescing waves dispatch per :func:`next_wave` (the same
    policy function the asyncio server applies), answers are computed by
    the *real* :class:`~repro.service.api.QueryAPI` (so degraded-mode
    and bit-identity assertions run against production code paths), and
    only service *durations* are modeled.  Simulate dispatches consult
    the core's chaos plan: a due worker kill hard-opens the breaker,
    which sheds simulate work and degrades predict answers until the
    recovery window passes — all on the virtual clock.
    """
    times = times or ServiceTimeModel()
    chaos: ServiceFaultPlan = core.chaos
    stream = sorted(stream, key=lambda q: q.t)
    span = duration if duration is not None else (stream[-1].t + 1.0 if stream else 1.0)

    queues: dict[str, list[PendingRequest]] = {ep: [] for ep in ("predict", "design", "simulate")}
    free_at = {ep: 0.0 for ep in queues}
    #: endpoint -> (completion_time, riders) while its executor is busy
    busy: dict[str, tuple[float, list[PendingRequest]] | None] = {ep: None for ep in queues}
    records: dict[int, ReplayRecord] = {}
    order: list[int] = []
    next_idx = 0
    i = 0

    def _record(idx, endpoint, arrival, outcome, reason, latency, answer=None):
        records[idx] = ReplayRecord(endpoint, arrival, outcome, reason, latency, answer)

    def _finish_shed(p: PendingRequest, reason: str, at: float) -> None:
        latency = min(at, p.deadline) - p.arrival
        core.count_shed(p.endpoint, reason)
        core.shed_latency(p.endpoint, latency)
        core.release(p.endpoint)
        _record(p.index, p.endpoint, p.arrival, "shed", reason, latency)

    while True:
        next_arrival = stream[i].t if i < len(stream) else None
        next_completion = None
        comp_ep = None
        for ep, state in busy.items():
            if state is not None and (next_completion is None or state[0] < next_completion):
                next_completion, comp_ep = state[0], ep
        next_dispatch = None
        disp_ep = None
        for ep, queue in queues.items():
            if queue and busy[ep] is None:
                policy = core.config.policy(ep)
                t, _ = next_wave(queue, free_at[ep], policy.coalesce_window, policy.max_batch)
                if next_dispatch is None or t < next_dispatch:
                    next_dispatch, disp_ep = t, ep
        candidates = [
            (t, kind)
            for t, kind in (
                (next_completion, _COMPLETION),
                (next_arrival, _ARRIVAL),
                (next_dispatch, _DISPATCH),
            )
            if t is not None
        ]
        if not candidates:
            break
        now, kind = min(candidates)

        if kind == _COMPLETION:
            _, riders = busy[comp_ep]
            busy[comp_ep] = None
            for p in riders:
                if now > p.deadline:
                    # Work finished after the deadline: the client got a
                    # labeled 504 *at* the deadline (enforced timeout).
                    _finish_shed(p, "timeout", now)
                else:
                    latency = now - p.arrival
                    core.finish(comp_ep, p.outcome, latency)
                    core.release(comp_ep)
                    _record(p.index, comp_ep, p.arrival, p.outcome, None, latency, p.answer)
            continue

        if kind == _ARRIVAL:
            q = stream[i]
            i += 1
            idx = next_idx
            next_idx += 1
            order.append(idx)
            try:
                payload = core.parse(q.endpoint, q.body)
                deadline = core.deadline_for(q.endpoint, q.body, now)
            except QueryError as exc:
                core.requests_total.labels(endpoint=q.endpoint, outcome="error").inc()
                _record(idx, q.endpoint, now, "error", None, 0.0, exc)
                continue
            reason = core.admit(q.endpoint, now)
            if reason is not None:
                _record(idx, q.endpoint, now, "shed", reason, 0.0)
                continue
            queues[q.endpoint].append(
                PendingRequest(index=idx, endpoint=q.endpoint, arrival=now,
                               deadline=deadline, payload=payload)
            )
            continue

        # -- dispatch ---------------------------------------------------
        ep = disp_ep
        policy = core.config.policy(ep)
        _, riders = next_wave(queues[ep], free_at[ep], policy.coalesce_window, policy.max_batch)
        for p in riders:
            queues[ep].remove(p)
        live = []
        for p in riders:
            if now > p.deadline:
                _finish_shed(p, "deadline", now)
            else:
                live.append(p)
        if not live:
            continue
        if ep == "simulate":
            p = live[0]  # max_batch is 1 for simulate
            if not core.breaker.allow(now):
                _finish_shed(p, "breaker_open", now)
                continue
            core.simulate_dispatches += 1
            n = core.simulate_dispatches
            core.batch_size.labels(endpoint=ep).observe(1)
            if chaos.kill_due(n):
                # The worker died mid-request: BrokenProcessPool,
                # breaker hard-opens, the victim is shed.
                core.breaker.record_failure(now, hard=True)
                _finish_shed(p, "breaker_open", now)
                continue
            p.outcome = "ok"
            p.answer = None  # the replay models simulate cost, not results
            service = times.wave_seconds(ep, 1, "ok")
            service += chaos.stall_due(n) + chaos.extra_latency(now)
            done = now + service
            core.breaker.record_success(done)
            free_at[ep] = done
            busy[ep] = (done, [p])
            continue
        outcome = (
            core.predict_wave(live, now) if ep == "predict" else core.design_wave(live)
        )
        service = times.wave_seconds(ep, len(live), outcome) + chaos.extra_latency(now)
        done = now + service
        free_at[ep] = done
        busy[ep] = (done, live)

    return ReplayReport(
        duration=span, records=[records[idx] for idx in order if idx in records]
    )


# ---------------------------------------------------------------------------
# minimal HTTP client (stdlib sockets; the server speaks close-per-request)


def http_request(
    host: str,
    port: int,
    method: str,
    path: str,
    body: dict | None = None,
    timeout: float = 30.0,
) -> tuple[int, object]:
    """One HTTP/1.1 request; returns ``(status, parsed_body)``.

    JSON responses parse to objects; anything else (``/metrics``) comes
    back as text.
    """
    payload = json.dumps(body).encode("utf-8") if body is not None else b""
    head = (
        f"{method} {path} HTTP/1.1\r\nHost: {host}\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(payload)}\r\nConnection: close\r\n\r\n"
    )
    with socket.create_connection((host, port), timeout=timeout) as sock:
        sock.sendall(head.encode("ascii") + payload)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    raw = b"".join(chunks)
    header_blob, _, rest = raw.partition(b"\r\n\r\n")
    lines = header_blob.decode("latin-1").split("\r\n")
    status = int(lines[0].split()[1])
    content_type = ""
    for line in lines[1:]:
        name, _, value = line.partition(":")
        if name.strip().lower() == "content-type":
            content_type = value.strip()
    if content_type.startswith("application/json"):
        return status, json.loads(rest.decode("utf-8"))
    return status, rest.decode("utf-8")

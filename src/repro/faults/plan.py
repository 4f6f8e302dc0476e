"""Deterministic fault plans for the simulated cluster.

A :class:`FaultPlan` is an immutable, picklable bundle of injected
misbehaviors -- the perturbations Afzal, Hager and Wellein study when
they trace how one-off delays propagate and decay through barrier and
network terms on real clusters.  Four event kinds cover the failure
modes the paper's model silently assumes away:

* :class:`OneOffDelay` -- a process loses ``cycles`` of progress the
  first time its clock reaches ``at`` (an OS jitter blob, a page-fault
  storm, a GC pause).  Additive: the lost work is never recovered.
* :class:`NodeStall` -- a process is unresponsive from ``at`` until the
  absolute time ``at + cycles`` (a hung daemon, a rebooting NIC).
  Absorptive: time already spent past the resume point -- e.g. blocked
  in a barrier -- counts against the stall, so a stall that ends while
  the process would have been waiting anyway costs nothing.
* :class:`NodeSlowdown` -- a degraded node: every reference's compute
  padding is multiplied by ``factor`` while the clock is inside
  ``[start, end)`` (thermal throttling, a co-scheduled noisy neighbor).
* :class:`NetworkSpike` -- every inter-node message *issued* inside
  ``[start, end)`` costs ``extra_cycles`` more (a congested uplink, a
  flapping switch).  Applies to the cluster network of COW and CLUMP
  back-ends; an SMP has no cluster network, so there it is inert.

Determinism is the design constraint throughout: events trigger on the
*simulated* clock at reference boundaries, never on wall time, so a
plan replayed on the same trace yields bit-identical results -- across
runs, across process-pool workers, and across the engine's scalar and
batched lanes (see ``docs/RESILIENCE.md`` for the proof obligations
and ``tests/faults/`` for the property suite).  :meth:`FaultPlan.generate`
derives a randomized plan from a seed through ``numpy``'s PRNG with all
magnitudes quantized to quarter-cycle multiples, keeping every clock
arithmetic exact in float64.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = [
    "FaultPlan",
    "NetworkSpike",
    "NodeSlowdown",
    "NodeStall",
    "OneOffDelay",
    "parse_inject_spec",
    "plan_from_specs",
]


def _quantize(x: float) -> float:
    """Round to the engine's quarter-cycle quantum (exact in float64)."""
    return round(4.0 * float(x)) / 4.0


@dataclass(frozen=True)
class OneOffDelay:
    """Additive one-off delay: ``cycles`` joins the clock at ``at``."""

    proc: int
    at: float
    cycles: float

    kind = "delay"

    def __post_init__(self) -> None:
        if self.proc < 0:
            raise ValueError("delay proc must be >= 0")
        if self.at < 0:
            raise ValueError("delay trigger time must be >= 0")
        if self.cycles <= 0:
            raise ValueError("delay cycles must be positive")


@dataclass(frozen=True)
class NodeStall:
    """Unresponsive node: the clock jumps to ``max(clock, at + cycles)``."""

    proc: int
    at: float
    cycles: float

    kind = "stall"

    def __post_init__(self) -> None:
        if self.proc < 0:
            raise ValueError("stall proc must be >= 0")
        if self.at < 0:
            raise ValueError("stall trigger time must be >= 0")
        if self.cycles <= 0:
            raise ValueError("stall cycles must be positive")

    @property
    def resume_at(self) -> float:
        return self.at + self.cycles


@dataclass(frozen=True)
class NodeSlowdown:
    """Degraded node: compute work x ``factor`` while in ``[start, end)``."""

    proc: int
    start: float
    end: float
    factor: float

    kind = "slow"

    def __post_init__(self) -> None:
        if self.proc < 0:
            raise ValueError("slowdown proc must be >= 0")
        if self.start < 0 or self.end <= self.start:
            raise ValueError("slowdown window needs 0 <= start < end")
        if self.factor <= 0:
            raise ValueError("slowdown factor must be positive")


@dataclass(frozen=True)
class NetworkSpike:
    """Transient latency spike on every inter-node message in a window."""

    start: float
    end: float
    extra_cycles: float

    kind = "netspike"

    def __post_init__(self) -> None:
        if self.start < 0 or self.end <= self.start:
            raise ValueError("network spike window needs 0 <= start < end")
        if self.extra_cycles <= 0:
            raise ValueError("network spike extra_cycles must be positive")


FaultEvent = OneOffDelay | NodeStall | NodeSlowdown | NetworkSpike


@dataclass(frozen=True)
class FaultPlan:
    """An immutable set of fault events for one simulation."""

    events: tuple = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "events", tuple(self.events))
        for ev in self.events:
            if not isinstance(ev, (OneOffDelay, NodeStall, NodeSlowdown, NetworkSpike)):
                raise TypeError(f"not a fault event: {ev!r}")
        # Overlapping slowdowns on one process would make the effective
        # factor order-dependent; reject them outright.
        by_proc: dict[int, list[NodeSlowdown]] = {}
        for ev in self.events:
            if isinstance(ev, NodeSlowdown):
                by_proc.setdefault(ev.proc, []).append(ev)
        for proc, slows in by_proc.items():
            slows.sort(key=lambda s: s.start)
            for a, b in zip(slows, slows[1:]):
                if b.start < a.end:
                    raise ValueError(
                        f"overlapping slowdown windows on proc {proc}: "
                        f"[{a.start}, {a.end}) and [{b.start}, {b.end})"
                    )

    # ------------------------------------------------------------------
    def __bool__(self) -> bool:
        return bool(self.events)

    def validate_for(self, num_procs: int) -> None:
        """Reject events that target processes the run does not have."""
        for ev in self.events:
            proc = getattr(ev, "proc", None)
            if proc is not None and proc >= num_procs:
                raise ValueError(
                    f"{ev.kind} event targets proc {proc} but the run has "
                    f"{num_procs} processes"
                )

    def cache_key(self) -> str:
        """Deterministic string identity for disk-cache hashing."""
        return repr(tuple(sorted(self.events, key=repr)))

    def counts(self) -> dict[str, int]:
        """Event count per kind (``delay``/``stall``/``slow``/``netspike``)."""
        out: dict[str, int] = {}
        for ev in self.events:
            out[ev.kind] = out.get(ev.kind, 0) + 1
        return out

    @property
    def network_extra(self) -> Callable[[float], float] | None:
        """Per-message extra cycles as a function of issue time.

        ``None`` when the plan holds no :class:`NetworkSpike`, so
        back-ends pay nothing on the common path.  Overlapping spike
        windows add up.
        """
        spikes = tuple(
            (ev.start, ev.end, ev.extra_cycles)
            for ev in self.events
            if isinstance(ev, NetworkSpike)
        )
        if not spikes:
            return None

        def extra(now: float, _spikes=spikes) -> float:
            x = 0.0
            for start, end, cycles in _spikes:
                if start <= now < end:
                    x += cycles
            return x

        return extra

    def describe(self) -> str:
        if not self.events:
            return "fault plan: empty"
        lines = [f"fault plan: {len(self.events)} event(s)"]
        for ev in sorted(self.events, key=repr):
            if isinstance(ev, OneOffDelay):
                lines.append(f"  delay    proc {ev.proc} at {ev.at:,.0f}: +{ev.cycles:,.0f} cycles")
            elif isinstance(ev, NodeStall):
                lines.append(
                    f"  stall    proc {ev.proc} at {ev.at:,.0f}: unresponsive "
                    f"until {ev.resume_at:,.0f}"
                )
            elif isinstance(ev, NodeSlowdown):
                lines.append(
                    f"  slow     proc {ev.proc} in [{ev.start:,.0f}, {ev.end:,.0f}): "
                    f"work x{ev.factor:g}"
                )
            else:
                lines.append(
                    f"  netspike in [{ev.start:,.0f}, {ev.end:,.0f}): "
                    f"+{ev.extra_cycles:,.0f} cycles/message"
                )
        return "\n".join(lines)

    # ------------------------------------------------------------------
    @classmethod
    def generate(
        cls,
        seed: int,
        num_procs: int,
        span: float,
        delays: int = 2,
        stalls: int = 1,
        slowdowns: int = 1,
        spikes: int = 1,
        magnitude: float = 0.05,
    ) -> "FaultPlan":
        """A seeded, deterministic random plan over ``span`` cycles.

        ``magnitude`` scales event sizes relative to ``span`` (delay and
        stall lengths draw from ``[0.5, 2] * magnitude * span``; windows
        are similarly sized).  All times and magnitudes are quantized to
        quarter cycles, so the same ``(seed, num_procs, span, ...)``
        always produces the identical plan with exact clock arithmetic.
        """
        if num_procs < 1:
            raise ValueError("num_procs must be >= 1")
        if span <= 0:
            raise ValueError("span must be positive")
        if magnitude <= 0:
            raise ValueError("magnitude must be positive")
        rng = np.random.default_rng(seed)
        scale = magnitude * span
        events: list[FaultEvent] = []
        for _ in range(delays):
            events.append(
                OneOffDelay(
                    proc=int(rng.integers(num_procs)),
                    at=_quantize(rng.uniform(0.0, span)),
                    cycles=max(0.25, _quantize(rng.uniform(0.5, 2.0) * scale)),
                )
            )
        for _ in range(stalls):
            events.append(
                NodeStall(
                    proc=int(rng.integers(num_procs)),
                    at=_quantize(rng.uniform(0.0, span)),
                    cycles=max(0.25, _quantize(rng.uniform(0.5, 2.0) * scale)),
                )
            )
        # Slowdown windows must not overlap per process: carve them out
        # of disjoint lanes of the span so any count stays valid.
        for j in range(slowdowns):
            lane = span / max(1, slowdowns)
            start = _quantize(j * lane + rng.uniform(0.0, 0.4) * lane)
            width = max(0.25, _quantize(rng.uniform(0.2, 0.5) * lane))
            events.append(
                NodeSlowdown(
                    proc=int(rng.integers(num_procs)),
                    start=start,
                    end=start + width,
                    factor=max(1.25, _quantize(rng.uniform(1.5, 4.0))),
                )
            )
        for _ in range(spikes):
            start = _quantize(rng.uniform(0.0, span))
            width = max(0.25, _quantize(rng.uniform(0.5, 2.0) * scale))
            events.append(
                NetworkSpike(
                    start=start,
                    end=start + width,
                    extra_cycles=max(0.25, _quantize(rng.uniform(0.5, 2.0) * scale / 10.0)),
                )
            )
        return cls(tuple(events))


# ----------------------------------------------------------------------
# ``--inject`` spec parsing (shared by the CLI and tests)
# ----------------------------------------------------------------------
_SPEC_FIELDS: dict[str, tuple[type, tuple[str, ...]]] = {
    "delay": (OneOffDelay, ("proc", "at", "cycles")),
    "stall": (NodeStall, ("proc", "at", "cycles")),
    "slow": (NodeSlowdown, ("proc", "start", "end", "factor")),
    "netspike": (NetworkSpike, ("start", "end", "extra_cycles")),
}

#: Short aliases accepted in specs (``extra`` for ``extra_cycles``).
_FIELD_ALIASES = {"extra": "extra_cycles"}


def parse_inject_spec(text: str) -> FaultEvent:
    """Parse one ``--inject`` spec, e.g. ``delay:proc=0,at=1e5,cycles=5e4``.

    Format: ``kind:key=value,...`` with kinds ``delay``, ``stall``
    (fields ``proc, at, cycles``), ``slow`` (``proc, start, end,
    factor``) and ``netspike`` (``start, end, extra``).  Raises
    :class:`ValueError` with a usage hint on any malformed input.
    """
    kind, sep, body = text.partition(":")
    kind = kind.strip().lower()
    if kind not in _SPEC_FIELDS:
        raise ValueError(
            f"unknown fault kind {kind!r}; expected one of {', '.join(_SPEC_FIELDS)}"
        )
    cls, fields = _SPEC_FIELDS[kind]
    if not sep or not body.strip():
        raise ValueError(
            f"{kind} spec needs fields {', '.join(fields)}: "
            f"e.g. {kind}:{','.join(f'{f}=...' for f in fields)}"
        )
    kwargs: dict[str, float] = {}
    for pair in body.split(","):
        key, eq, raw = pair.partition("=")
        key = _FIELD_ALIASES.get(key.strip(), key.strip())
        if not eq or key not in fields:
            raise ValueError(
                f"bad field {pair.strip()!r} in {kind} spec; expected "
                f"{', '.join(fields)}"
            )
        try:
            kwargs[key] = int(raw) if key == "proc" else float(raw)
        except ValueError:
            raise ValueError(f"non-numeric value for {key!r}: {raw!r}") from None
    missing = [f for f in fields if f not in kwargs]
    if missing:
        raise ValueError(f"{kind} spec is missing {', '.join(missing)}")
    return cls(**kwargs)  # field validation happens in __post_init__


def plan_from_specs(specs: Iterable[str] | Sequence[str]) -> FaultPlan:
    """Build a :class:`FaultPlan` from ``--inject`` spec strings."""
    return FaultPlan(tuple(parse_inject_spec(s) for s in specs))

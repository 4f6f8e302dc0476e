"""Exact simulated-time cycle attribution: where did the cycles go?

A :class:`CycleProfile` answers, for one simulation (or a merged grid
of simulations), how many simulated cycles went to each
``(topology node, cause)`` pair -- compute, cache hits, L2, peer
caches, local memory, remote clean/dirty transfers, disk, bus/switch
contention waits, coherence traffic, barrier waits, fault stalls, and
end-of-run finish skew.

The hard invariant (property-tested in ``tests/obs/test_profile.py``):
the buckets sum **bit-exactly** to ``processors x total_cycles``, in
both engine lanes (scalar == batched), and lane choice never
changes any individual bucket.  This works because every
quantity the engine adds to a clock is a multiple of 2^-6 cycles
(quarter-cycle latencies, the 0.25 control fraction, halved barrier
terms, and quarter-quantized fault magnitudes), far below 2^53, so
float64 arithmetic on them is exact and associative.  The one escape
hatch is CLI ``--inject`` specs with off-grid magnitudes;
:meth:`CycleProfile.check_exact` detects the (documented) residue.

Like everything in ``repro.obs``, nothing here imports the simulator:
the engine and backends push cycles into a plain ``dict`` sink and
hand it to :meth:`CycleProfile.from_sink` at the end of a run.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = [
    "CAUSES",
    "SCHEMA",
    "CycleProfile",
    "describe_diff",
]

#: The closed cause taxonomy.  Every simulated cycle lands in exactly
#: one of these buckets (see docs/OBSERVABILITY.md "Cycle attribution"
#: for the full semantics of each).
CAUSES = (
    "compute",        # instruction work between references (incl. the 1-cycle issue)
    "cache_hit",      # the t_hit every reference pays at its own cache
    "l2",             # shared-L2 service
    "peer_cache",     # cache-to-cache service inside an SMP
    "local_memory",   # local DRAM service
    "remote_clean",   # clean remote transfer over an interconnect
    "remote_dirty",   # dirty remote transfer (owner flush) over an interconnect
    "disk",           # page-fault disk service
    "contention",     # queueing wait at a bus/switch port or disk
    "coherence",      # invalidation acks and ownership writebacks
    "barrier_wait",   # idle cycles at barriers (incl. barrier overhead)
    "fault_stall",    # injected delays/stalls/slowdown excess
    "finish_wait",    # skew between each proc's finish and the last finish
)

SCHEMA = "repro-profile/1"


def _merge_into(acc: dict, cycles: dict) -> None:
    for key, value in cycles.items():
        acc[key] = acc.get(key, 0.0) + value


@dataclass
class CycleProfile:
    """Per-(node, cause) simulated-cycle attribution for one or more runs.

    ``cycles`` maps ``(node, cause)`` to attributed simulated cycles;
    ``proc_cycles`` is the quantity the buckets must sum to --
    ``processors x total_cycles`` summed over the merged runs (additive
    under :meth:`merge`, unlike ``total_cycles`` itself).
    """

    cycles: dict = field(default_factory=dict)  #: (node, cause) -> cycles
    proc_cycles: float = 0.0  #: sum over runs of P * total_cycles
    runs: int = 1  #: how many simulations were merged in

    # -- construction and algebra --------------------------------------
    @classmethod
    def from_sink(cls, sink: dict, proc_cycles: float) -> "CycleProfile":
        """Wrap an engine's attribution sink (dropping zero buckets).

        Values are coerced to plain ``float`` -- NumPy float64 scalars
        convert bit-exactly, and plain floats keep JSON serialization
        and ``==`` comparisons free of NumPy scalar types downstream.
        """
        return cls(
            cycles={k: float(v) for k, v in sink.items() if v != 0.0},
            proc_cycles=float(proc_cycles),
            runs=1,
        )

    def merge(self, other: "CycleProfile") -> "CycleProfile":
        """Bucket-wise sum; exactness is preserved (grid arithmetic)."""
        merged = dict(self.cycles)
        _merge_into(merged, other.cycles)
        return CycleProfile(
            cycles=merged,
            proc_cycles=self.proc_cycles + other.proc_cycles,
            runs=self.runs + other.runs,
        )

    @classmethod
    def merged(cls, profiles) -> "CycleProfile | None":
        """Merge an iterable of profiles; ``None`` when it is empty."""
        out = None
        for p in profiles:
            out = p if out is None else out.merge(p)
        return out

    def diff(self, other: "CycleProfile") -> dict:
        """Per-bucket ``self - other`` (see :func:`describe_diff`)."""
        delta = dict(self.cycles)
        _merge_into(delta, {k: -v for k, v in other.cycles.items()})
        return {k: v for k, v in delta.items() if v != 0.0}

    # -- the invariant --------------------------------------------------
    def total_attributed(self) -> float:
        """Sum of every bucket (exact: all addends sit on the 2^-6 grid)."""
        return sum(self.cycles[k] for k in sorted(self.cycles))

    def residue(self) -> float:
        """``proc_cycles - total_attributed`` -- 0.0 iff exact."""
        return self.proc_cycles - self.total_attributed()

    def check_exact(self) -> bool:
        """True iff the buckets sum bit-exactly to ``proc_cycles``."""
        return bool(self.total_attributed() == self.proc_cycles)

    def assert_exact(self) -> None:
        if not self.check_exact():
            raise ValueError(
                f"cycle attribution is inexact: buckets sum to "
                f"{self.total_attributed()!r}, engine says "
                f"{self.proc_cycles!r} (residue {self.residue()!r}; "
                "off-grid --inject magnitudes are the one known cause)"
            )

    # -- views ----------------------------------------------------------
    def by_node(self) -> dict:
        """``{node: {cause: cycles}}``."""
        out: dict = {}
        for (node, cause), value in self.cycles.items():
            out.setdefault(node, {})[cause] = value
        return out

    def by_cause(self) -> dict:
        """``{cause: cycles}`` aggregated over nodes."""
        out: dict = {}
        for (_node, cause), value in self.cycles.items():
            out[cause] = out.get(cause, 0.0) + value
        return out

    def top_causes(self, k: int = 3) -> list:
        """The ``k`` largest causes as ``[(cause, cycles), ...]``."""
        ranked = sorted(self.by_cause().items(), key=lambda kv: (-kv[1], kv[0]))
        return ranked[:k]

    # -- serialization ---------------------------------------------------
    def to_obj(self) -> dict:
        """JSON-ready dict.  Floats survive JSON bit-exactly (repr)."""
        nodes: dict = {}
        for (node, cause), value in sorted(self.cycles.items()):
            nodes.setdefault(node, {})[cause] = value
        return {
            "schema": SCHEMA,
            "proc_cycles": self.proc_cycles,
            "runs": self.runs,
            "nodes": nodes,
        }

    @classmethod
    def from_obj(cls, obj: dict) -> "CycleProfile":
        schema = obj.get("schema")
        if schema != SCHEMA:
            raise ValueError(
                f"unsupported profile schema {schema!r} (want {SCHEMA!r})"
            )
        cycles = {
            (node, cause): float(value)
            for node, causes in (obj.get("nodes") or {}).items()
            for cause, value in causes.items()
        }
        return cls(
            cycles=cycles,
            proc_cycles=float(obj.get("proc_cycles", 0.0)),
            runs=int(obj.get("runs", 1)),
        )

    # -- renderers -------------------------------------------------------
    def describe(self, causes=None) -> str:
        """Per-(node, cause) table, largest buckets first.

        ``causes`` optionally restricts the rows (the share column and
        the exactness footer always cover the *full* profile, so a
        filtered view never pretends to sum to the total).
        """
        rows = sorted(self.cycles.items(), key=lambda kv: (-kv[1], kv[0]))
        if causes is not None:
            wanted = set(causes)
            rows = [r for r in rows if r[0][1] in wanted]
        total = self.proc_cycles
        lines = [
            f"cycle attribution over {self.runs} run{'s' if self.runs != 1 else ''} "
            f"({total:,.2f} processor-cycles):",
            f"  {'node':<24} {'cause':<14} {'cycles':>18} {'share':>7}",
        ]
        for (node, cause), value in rows:
            share = 100.0 * value / total if total else 0.0
            lines.append(f"  {node:<24} {cause:<14} {value:>18,.2f} {share:>6.2f}%")
        if not rows:
            lines.append("  (no buckets match)")
        ok = self.check_exact()
        lines.append(
            f"  attributed {self.total_attributed():,.2f} / {total:,.2f} "
            f"cycles -- {'exact' if ok else f'INEXACT (residue {self.residue()!r})'}"
        )
        return "\n".join(lines)

    def to_collapsed(self) -> str:
        """Collapsed-stack flamegraph text: ``node;cause <cycles>``.

        Ready for ``flamegraph.pl`` / speedscope, which expect integer
        sample counts -- quarter-cycle buckets are rounded for the
        picture (the JSON export keeps the exact values).
        """
        lines = []
        for (node, cause), value in sorted(
            self.cycles.items(), key=lambda kv: (-kv[1], kv[0])
        ):
            count = int(round(value))
            if count:
                lines.append(f"{node};{cause} {count}")
        return "\n".join(lines) + "\n"

    def to_trace_events(self, spans=None) -> dict:
        """Chrome ``trace_event`` JSON (load in ``chrome://tracing``).

        Simulated-time attribution renders as one pid with a thread
        per topology node, each node's causes laid end to end from
        ts=0 -- an aggregate picture of where that node's cycles went,
        not a temporal interleaving.  When ``spans`` (wall-clock
        :class:`~repro.obs.spans.Span` objects or their ``to_obj``
        dicts) are given they render as a second pid, so one trace
        holds both clocks.
        """
        events = [
            {
                "ph": "M", "pid": 1, "tid": 0, "name": "process_name",
                "args": {"name": "simulated cycles (attributed)"},
            }
        ]
        for tid, (node, causes) in enumerate(sorted(self.by_node().items()), 1):
            events.append(
                {
                    "ph": "M", "pid": 1, "tid": tid, "name": "thread_name",
                    "args": {"name": node},
                }
            )
            ts = 0.0
            for cause, value in sorted(causes.items(), key=lambda kv: (-kv[1], kv[0])):
                events.append(
                    {
                        "ph": "X", "pid": 1, "tid": tid, "name": cause,
                        "cat": "simulated", "ts": ts, "dur": value,
                        "args": {"cycles": value},
                    }
                )
                ts += value
        span_objs = [
            s.to_obj() if hasattr(s, "to_obj") else s for s in (spans or ())
        ]
        if span_objs:
            events.append(
                {
                    "ph": "M", "pid": 2, "tid": 0, "name": "process_name",
                    "args": {"name": "wall clock (spans)"},
                }
            )
            base = min(float(s.get("started_at", 0.0)) for s in span_objs)

            def _walk(obj: dict, tid: int) -> None:
                events.append(
                    {
                        "ph": "X", "pid": 2, "tid": tid, "name": obj["name"],
                        "cat": "wall",
                        "ts": (float(obj.get("started_at", 0.0)) - base) * 1e6,
                        "dur": float(obj.get("duration", 0.0)) * 1e6,
                        "args": dict(obj.get("attrs", {})),
                    }
                )
                for child in obj.get("children", ()):
                    _walk(child, tid)

            for tid, obj in enumerate(span_objs, 1):
                _walk(obj, tid)
        return {"traceEvents": events, "displayTimeUnit": "ms"}


def describe_diff(a: CycleProfile, b: CycleProfile) -> str:
    """Render ``a - b`` per bucket, largest absolute change first."""
    delta = a.diff(b)
    lines = [
        f"profile diff (A: {a.runs} run{'s' if a.runs != 1 else ''}, "
        f"{a.proc_cycles:,.2f} proc-cycles; B: {b.runs}, {b.proc_cycles:,.2f}; "
        f"A-B = {a.proc_cycles - b.proc_cycles:+,.2f}):",
        f"  {'node':<24} {'cause':<14} {'A-B cycles':>18}",
    ]
    for (node, cause), value in sorted(
        delta.items(), key=lambda kv: (-abs(kv[1]), kv[0])
    ):
        lines.append(f"  {node:<24} {cause:<14} {value:>+18,.2f}")
    if not delta:
        lines.append("  (identical attribution)")
    return "\n".join(lines)

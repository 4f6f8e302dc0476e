"""Placement-policy shoot-out on the built-in heterogeneous trees.

The scheduling layer claims that on an uneven cluster the *placement*
policy is worth as much as the hardware: the even split the paper
assumes everywhere (round-robin) leaves the fast machines idle at every
barrier, speed-proportional placement overloads machines whose caches
cannot feed their CPUs, and the memory-aware policy -- which sizes each
work share through the full hierarchy model -- dominates both by
construction.  This experiment checks that claim end to end: every
built-in mixed tree x paper workload x policy cell is evaluated through
:func:`repro.scheduling.evaluate_hetero` and the dominance invariant is
reported (the CI ``scheduling-smoke`` job asserts it).

Saturated cells are part of the story, not an error: Radix on the
mixed-CLUMP tree floods the 4-way memory bus in open mode at any cache
size, so every policy reports an infinite E(Instr) there -- no
placement can fix a machine whose memory system cannot sustain the
reference stream.

Runnable directly (the CI ``scheduling-smoke`` job does)::

    python -m repro.experiments.scheduling --json policies.json
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.amat import PAPER_REMOTE_RATE_ADJUSTMENT
from repro.scheduling import HeteroPlatform, builtin_hetero_platform, compare_policies
from repro.scheduling.policies import POLICIES
from repro.workloads.params import PAPER_WORKLOADS, WorkloadParams

__all__ = ["PolicyCell", "SchedulingResult", "run_policy_comparison"]


@dataclass(frozen=True)
class PolicyCell:
    """One (platform, application, policy) model evaluation."""

    platform: str
    application: str
    policy: str
    e_instr_seconds: float
    weights: tuple[float, ...]

    @property
    def feasible(self) -> bool:
        return math.isfinite(self.e_instr_seconds)

    def as_dict(self) -> dict:
        return {
            "platform": self.platform,
            "application": self.application,
            "policy": self.policy,
            "e_instr_seconds": self.e_instr_seconds,
            "feasible": self.feasible,
            "weights": list(self.weights),
        }


@dataclass(frozen=True)
class SchedulingResult:
    """Every cell of the policy grid plus the dominance verdict."""

    cells: tuple[PolicyCell, ...]
    policies: tuple[str, ...]

    def cell(self, platform: str, application: str, policy: str) -> PolicyCell:
        for c in self.cells:
            if (c.platform, c.application, c.policy) == (platform, application, policy):
                return c
        raise KeyError(f"no cell ({platform!r}, {application!r}, {policy!r})")

    @property
    def pairs(self) -> tuple[tuple[str, str], ...]:
        seen: dict[tuple[str, str], None] = {}
        for c in self.cells:
            seen[(c.platform, c.application)] = None
        return tuple(seen)

    @property
    def dominance_holds(self) -> bool:
        """memory-aware never slower than any other policy, on any cell.

        Holds by construction (the rival splits are descent starts), so
        a violation means the scheduling layer regressed -- this is the
        CI assertion.
        """
        for platform, application in self.pairs:
            best = self.cell(platform, application, "memory-aware").e_instr_seconds
            for policy in self.policies:
                if best > self.cell(platform, application, policy).e_instr_seconds:
                    return False
        return True

    def speedup(self, platform: str, application: str, policy: str) -> float:
        """memory-aware speedup over ``policy`` on one cell (1.0 = tie)."""
        rival = self.cell(platform, application, policy).e_instr_seconds
        best = self.cell(platform, application, "memory-aware").e_instr_seconds
        if not math.isfinite(rival) or not math.isfinite(best):
            return 1.0
        return rival / best

    @property
    def mean_speedup_over_round_robin(self) -> float:
        ratios = [
            self.speedup(platform, application, "round-robin")
            for platform, application in self.pairs
        ]
        return sum(ratios) / len(ratios) if ratios else 1.0

    def describe(self) -> str:
        lines = [
            "placement policies on the built-in mixed trees, modeled E(Instr):",
            "",
            f"{'platform':<14} {'app':<8} "
            + " ".join(f"{p:>14}" for p in self.policies)
            + f" {'ma speedup':>11}",
        ]
        for platform, application in self.pairs:
            row = [f"{platform:<14} {application:<8}"]
            for policy in self.policies:
                seconds = self.cell(platform, application, policy).e_instr_seconds
                row.append(
                    f"{'saturated':>14}" if not math.isfinite(seconds) else f"{seconds:>14.3e}"
                )
            row.append(f"{self.speedup(platform, application, 'round-robin'):>10.2f}x")
            lines.append(" ".join(row))
        lines.append("")
        lines.append(
            f"memory-aware dominance holds: {self.dominance_holds}; "
            f"mean speedup over round-robin "
            f"{self.mean_speedup_over_round_robin:.2f}x"
        )
        return "\n".join(lines)

    def as_dict(self) -> dict:
        """JSON-ready payload (the CI artifact)."""
        return {
            "policies": list(self.policies),
            "cells": [c.as_dict() for c in self.cells],
            "dominance_holds": self.dominance_holds,
            "mean_speedup_over_round_robin": self.mean_speedup_over_round_robin,
        }


def run_policy_comparison(
    platform_names: tuple[str, ...] = ("mixed-cow", "mixed-clump"),
    workloads: tuple[WorkloadParams, ...] = PAPER_WORKLOADS,
    policies: tuple[str, ...] | None = None,
    *,
    remote_rate_adjustment: float = PAPER_REMOTE_RATE_ADJUSTMENT,
) -> SchedulingResult:
    """Evaluate every (platform, workload, policy) cell analytically.

    Purely model-driven -- no simulation, so the full grid runs in
    seconds.  Saturated cells report ``inf`` rather than raising, which
    keeps Radix/mixed-clump (a genuine model outcome) in the grid.
    """
    names = tuple(POLICIES) if policies is None else policies
    platforms: list[HeteroPlatform] = [
        builtin_hetero_platform(name) for name in platform_names
    ]
    cells: list[PolicyCell] = []
    for platform in platforms:
        for params in workloads:
            # Pure capacity model (no DSM sharing term): the canned
            # trees are sized so the capacity tail separates the
            # policies; the sharing stream saturates their small buses
            # for every policy alike, which would tell us nothing.
            estimates = compare_policies(
                platform,
                params.locality,
                params.gamma,
                policies=names,
                remote_rate_adjustment=remote_rate_adjustment,
            )
            for policy, estimate in estimates.items():
                cells.append(
                    PolicyCell(
                        platform=platform.name,
                        application=params.name,
                        policy=policy,
                        e_instr_seconds=estimate.e_instr_seconds,
                        weights=tuple(p.weight for p in estimate.processes),
                    )
                )
    return SchedulingResult(cells=tuple(cells), policies=names)


def main(argv=None) -> int:
    import argparse
    import json

    parser = argparse.ArgumentParser(
        description="placement-policy comparison on the built-in mixed trees"
    )
    parser.add_argument(
        "--json", default=None, metavar="PATH",
        help="also write the comparison payload as JSON to PATH",
    )
    parser.add_argument(
        "--platforms", default="mixed-cow,mixed-clump",
        help="comma-separated built-in mixed tree names",
    )
    args = parser.parse_args(argv)

    result = run_policy_comparison(tuple(args.platforms.split(",")))
    print(result.describe())
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(result.as_dict(), fh, indent=2)
        print(f"\nwrote {args.json}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

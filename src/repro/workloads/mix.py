"""Workload mixtures: predict platforms for a blend of applications.

A machine room rarely runs one program.  Because the analytical model
consumes a locality distribution only through ``tail`` / ``cdf`` /
``rescaled``, any mixture of Table 2 workloads is itself a valid
locality model: if workload *i* contributes a fraction ``w_i`` of the
instruction stream, the mixed reference stream's stack-distance CDF is
the reference-weighted mixture of the members' CDFs

    P_mix(x) = sum_i  v_i * P_i(x),      v_i ~ w_i * gamma_i  (normalized)

(reference weights, because P(x) is a per-reference distribution), and
the mixed gamma is the instruction-weighted mean of the members'.

:class:`MixedLocality` implements the distribution protocol;
:func:`mix_workloads` builds the full :class:`MixedWorkload` bundle the
optimizer can consume in place of a single-program characterization.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.locality import StackDistanceModel
from repro.workloads.params import WorkloadParams

__all__ = ["MixedLocality", "MixedWorkload", "mix_workloads"]


@dataclass(frozen=True)
class MixedLocality:
    """Reference-weighted mixture of stack-distance models.

    Duck-type compatible with :class:`~repro.core.locality.StackDistanceModel`
    for everything the execution model uses (``cdf``, ``tail``,
    ``rescaled``); moments and sampling are intentionally not provided.
    """

    members: tuple[StackDistanceModel, ...]
    weights: tuple[float, ...]  #: per-reference weights, sum to 1

    def __post_init__(self) -> None:
        if not self.members:
            raise ValueError("a mixture needs at least one member")
        if len(self.members) != len(self.weights):
            raise ValueError("one weight per member required")
        if any(w < 0 for w in self.weights):
            raise ValueError("weights must be non-negative")
        total = sum(self.weights)
        if not np.isclose(total, 1.0):
            raise ValueError(f"weights must sum to 1, got {total}")

    def cdf(self, x):
        out = sum(w * np.asarray(m.cdf(x)) for m, w in zip(self.members, self.weights))
        return out if getattr(out, "ndim", 0) else float(out)

    def tail(self, s):
        out = sum(w * np.asarray(m.tail(s)) for m, w in zip(self.members, self.weights))
        return out if getattr(out, "ndim", 0) else float(out)

    def rescaled(self, n: int) -> "MixedLocality":
        return MixedLocality(
            members=tuple(m.rescaled(n) for m in self.members),
            weights=self.weights,
        )


@dataclass(frozen=True)
class MixedWorkload:
    """A blend of workloads, usable wherever WorkloadParams is."""

    name: str
    members: tuple[WorkloadParams, ...]
    instruction_weights: tuple[float, ...]
    locality: MixedLocality
    gamma: float
    sharing_fraction: float
    sharing_fresh_fraction: float
    sharing_procs: int

    @property
    def alpha(self) -> float:
        """Reference-weighted mean alpha (diagnostic only)."""
        return float(sum(w * m.alpha for m, w in zip(self.members, self.locality.weights)))

    @property
    def beta(self) -> float:
        """Reference-weighted mean beta (diagnostic only)."""
        return float(sum(w * m.beta for m, w in zip(self.members, self.locality.weights)))

    #: The rescale reads only ``sharing_fraction`` and ``sharing_procs``,
    #: which a mixture carries under the same names.
    sharing_at = WorkloadParams.sharing_at

    def describe(self) -> str:
        parts = ", ".join(
            f"{w:.0%} {m.name}" for m, w in zip(self.members, self.instruction_weights)
        )
        return f"{self.name}: mixture of {parts} (gamma={self.gamma:.3f})"


def mix_workloads(
    workloads: Sequence[WorkloadParams],
    weights: Sequence[float],
    name: str = "mix",
) -> MixedWorkload:
    """Blend workloads by their shares of the *instruction* stream.

    Reference-level quantities (the locality mixture, sharing fractions)
    are combined with weights ``w_i * gamma_i`` because a workload with
    more memory instructions contributes proportionally more references.
    """
    if len(workloads) == 0:
        raise ValueError("need at least one workload")
    if len(workloads) != len(weights):
        raise ValueError("one weight per workload required")
    w = np.asarray(weights, dtype=np.float64)
    if np.any(w < 0) or w.sum() <= 0:
        raise ValueError("weights must be non-negative and not all zero")
    w = w / w.sum()

    gamma = float(sum(wi * wl.gamma for wi, wl in zip(w, workloads)))
    ref_w = np.array([wi * wl.gamma for wi, wl in zip(w, workloads)])
    ref_w = ref_w / ref_w.sum()

    locality = MixedLocality(
        members=tuple(wl.locality for wl in workloads),
        weights=tuple(float(x) for x in ref_w),
    )
    sharing = float(sum(rw * wl.sharing_fraction for rw, wl in zip(ref_w, workloads)))
    if sharing > 0:
        fresh = float(
            sum(
                rw * wl.sharing_fraction * wl.sharing_fresh_fraction
                for rw, wl in zip(ref_w, workloads)
            )
            / sharing
        )
    else:
        fresh = 1.0
    procs = max(wl.sharing_procs for wl in workloads)
    return MixedWorkload(
        name=name,
        members=tuple(workloads),
        instruction_weights=tuple(float(x) for x in w),
        locality=locality,
        gamma=gamma,
        sharing_fraction=sharing,
        sharing_fresh_fraction=fresh,
        sharing_procs=procs,
    )

"""Average memory access time T (paper Eqs. 7-11 and their cluster forms).

``T`` is the per-memory-reference cost, in cycles, of traversing a
platform's memory hierarchy under a workload's locality distribution:

    T = tau_1 + (1/(gamma S)) * [ sum_i Q(lam_i, tau_i, c_i) + (H_P - 1) ]

where, per level ``i`` with stack-distance boundary ``s_i``:

* ``lam_i = gamma * S * tail(s_i) * fraction_i`` is the per-processor
  request rate reaching the level (``tail`` evaluated on the locality
  model rescaled to the platform's total process count),
* ``Q(lam, tau, c) = lam * t(o)`` is the M/D/1 rate-weighted response
  with contention population ``c`` (:func:`repro.core.contention.queued_contribution`),
* ``H_P - 1`` is the barrier order-statistics term over all P processes.

A level whose M/D/1 queue saturates (``rho >= 1``) has an infinite
response, and so does ``T``: the open model is finite only below
saturation, and the design search treats an infinite time as
infeasible.

Working in cycles with one instruction per cycle makes ``S = 1``, so the
prefactor is simply ``1/gamma``.  The cluster variants differ from the
SMP formula only through the hierarchy structure (levels, boundaries,
populations) built by :mod:`repro.core.hierarchy`, which is how the
paper's unavailable technical-report formulas are reconstructed (see
DESIGN.md section 2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

from repro.core.contention import (
    QueueSaturationError,
    barrier_term,
    mg1_response_time,
    mg1_utilization,
)
from repro.core.hierarchy import LevelKind, MemoryHierarchy
from repro.core.locality import StackDistanceModel

__all__ = [
    "PAPER_REMOTE_RATE_ADJUSTMENT",
    "MAX_ITERATIONS",
    "TOLERANCE",
    "LevelContribution",
    "AmatBreakdown",
    "average_memory_access_time",
    "zero_contention_amat",
]

#: Level kinds whose request rate receives the paper's coherence
#: adjustment (Section 5.3.2: remote-memory rate scaled up to absorb the
#: unmodeled shared-memory coherence overhead).
_REMOTE_KINDS = frozenset({LevelKind.REMOTE_MEMORY, LevelKind.REMOTE_DISK})

#: The paper's empirical adjustment: remote access rate scaled by +12.4%,
#: chosen so model-vs-simulation differences on clusters drop below 10%.
#: Only ``_REMOTE_KINDS`` levels see it, and those exist only under an
#: interconnect, so a single machine's answer is the same at any value.
PAPER_REMOTE_RATE_ADJUSTMENT = 0.124

#: Bisection limits of the throttled fixed point: at most
#: ``MAX_ITERATIONS`` halvings, stopping once the bracket is no wider
#: than ``TOLERANCE``.  The batch lane (:mod:`repro.core.batch`) runs
#: the same bisection with the same limits.
MAX_ITERATIONS = 200
TOLERANCE = 1e-9


@dataclass(frozen=True)
class LevelContribution:
    """Per-level diagnostics of one AMAT evaluation."""

    name: str
    kind: LevelKind
    boundary_items: float
    tail_probability: float  #: fraction of references reaching the level
    request_rate: float  #: lam_i, per processor, per cycle (post-adjustment)
    tau_cycles: float
    population: int
    utilization: float  #: rho of the serving resource
    response_cycles: float  #: mean contended access time t_i (inf if saturated)
    contribution_cycles: float  #: added to T per memory reference

    @property
    def saturated(self) -> bool:
        return not math.isfinite(self.response_cycles)


@dataclass(frozen=True)
class AmatBreakdown:
    """The modeled average memory access time and its decomposition."""

    total_cycles: float  #: T, cycles per memory reference (inf if saturated)
    base_cycles: float  #: tau_1, paid by every reference
    barrier_cycles: float  #: order-statistics barrier share per reference
    levels: tuple[LevelContribution, ...]
    total_processes: int
    gamma: float

    @property
    def saturated(self) -> bool:
        return not math.isfinite(self.total_cycles)

    def level(self, kind: LevelKind) -> tuple[LevelContribution, ...]:
        """All contributions of a given structural kind."""
        return tuple(lv for lv in self.levels if lv.kind is kind)

    def describe(self) -> str:
        """Readable decomposition for reports and examples."""
        lines = [f"T = {self.total_cycles:,.3f} cycles/reference (P={self.total_processes}, gamma={self.gamma:g})"]
        lines.append(f"  base cache access: {self.base_cycles:g}")
        for lv in self.levels:
            lines.append(
                f"  {lv.name:<34s} tail={lv.tail_probability:.3e} rho={lv.utilization:.3f} "
                f"t={lv.response_cycles:,.1f} -> +{lv.contribution_cycles:,.3f}"
            )
        lines.append(f"  barrier synchronization: +{self.barrier_cycles:,.3f}")
        return "\n".join(lines)


def _evaluate_once(
    hierarchy: MemoryHierarchy,
    dist: StackDistanceModel,
    gamma: float,
    remote_rate_adjustment: float,
    barrier_scale: float,
    issue_scale: float,
    sharing_fraction: float,
    sharing_fresh_fraction: float,
    contention_boost: float,
) -> AmatBreakdown:
    """One pass of the additive AMAT sum at a given issue-rate scaling.

    ``issue_scale`` multiplies every request rate; the open (paper) model
    uses 1.0, the throttled closed-system mode uses 1/CPI.
    ``sharing_fraction`` blends the remote-memory tail: a reference to
    remotely-homed data goes remote whenever it misses the *cache* --
    with probability ``sharing_fresh_fraction`` unconditionally (a
    coherence miss: its previous use was a phase ago and the line has
    been invalidated since), otherwise via the ordinary capacity tail.
    """
    contributions: list[LevelContribution] = []
    total = hierarchy.base_cycles
    saturated = False
    cache_boundary = hierarchy.levels[0].boundary_items if hierarchy.levels else 0.0

    for level in hierarchy.levels:
        tail = float(dist.tail(level.boundary_items))
        if sharing_fraction > 0.0 and level.kind is LevelKind.REMOTE_MEMORY:
            cache_tail = float(dist.tail(cache_boundary))
            miss_share = sharing_fresh_fraction + (1.0 - sharing_fresh_fraction) * cache_tail
            tail = (1.0 - sharing_fraction) * tail + sharing_fraction * miss_share
        lam = gamma * tail * level.rate_fraction * issue_scale
        if level.kind in _REMOTE_KINDS:
            lam *= 1.0 + remote_rate_adjustment
        # Burstiness: bulk-synchronous phases offer their traffic in
        # bursts, so the *queueing* terms see an elevated rate; the
        # traffic share per reference (tail) is unchanged.
        lam_q = lam * contention_boost
        rho = mg1_utilization(lam_q, level.tau_cycles, level.population)
        try:
            response = mg1_response_time(lam_q, level.tau_cycles, level.population)
        except QueueSaturationError:
            response = math.inf
            saturated = True
        # Q(lam, tau, c) / (gamma * issue_scale) == tail * fraction * t:
        # the per-reference share of this level, independent of throttling.
        adj = 1.0 + remote_rate_adjustment if level.kind in _REMOTE_KINDS else 1.0
        contribution = tail * level.rate_fraction * adj * response if lam > 0.0 else 0.0
        contributions.append(
            LevelContribution(
                name=level.name,
                kind=level.kind,
                boundary_items=level.boundary_items,
                tail_probability=tail,
                request_rate=lam,
                tau_cycles=level.tau_cycles,
                population=level.population,
                utilization=rho,
                response_cycles=response,
                contribution_cycles=contribution,
            )
        )
        total += contribution

    barrier = barrier_scale * barrier_term(hierarchy.barrier_population) / gamma
    total += barrier
    if saturated:
        total = math.inf
    return AmatBreakdown(
        total_cycles=total,
        base_cycles=hierarchy.base_cycles,
        barrier_cycles=barrier,
        levels=tuple(contributions),
        total_processes=hierarchy.total_processes,
        gamma=gamma,
    )


def average_memory_access_time(
    hierarchy: MemoryHierarchy,
    locality: StackDistanceModel,
    gamma: float,
    remote_rate_adjustment: float = 0.0,
    barrier_scale: float = 1.0,
    mode: Literal["open", "throttled"] = "open",
    sharing_fraction: float = 0.0,
    sharing_fresh_fraction: float = 1.0,
    contention_boost: float = 1.0,
) -> AmatBreakdown:
    """Evaluate the paper's AMAT model on a hierarchy and a workload.

    A saturated M/D/1 level reports an infinite response and makes the
    total infinite (:attr:`AmatBreakdown.saturated`); nothing raises.

    Parameters
    ----------
    hierarchy:
        Platform hierarchy from :mod:`repro.core.hierarchy` (carries the
        total process count used to rescale the locality model).
    locality:
        Single-process stack-distance fit of the workload.
    gamma:
        Fraction of instructions that reference memory (must be in
        ``(0, 1]``).
    remote_rate_adjustment:
        Fractional increase applied to remote-memory/disk request rates
        to absorb coherence overhead; the paper uses
        :data:`PAPER_REMOTE_RATE_ADJUSTMENT` for clusters (a single SMP
        has no remote level, so the value does not matter there).
    barrier_scale:
        Multiplier on the barrier order-statistics term (1.0 = paper's
        formula; 0.0 drops barriers, useful for ablation).
    mode:
        ``"open"`` is the paper's formula: processors offer requests at
        the full issue rate ``gamma * S`` regardless of stalls, which can
        saturate slow resources.  ``"throttled"`` (our documented
        extension) solves the closed-system fixed point in which a
        processor stalled on a miss issues nothing: request rates are
        scaled by ``1 / CPI = 1 / (1 + gamma * T)``, so utilization
        self-limits below 1 and the model stays finite, matching the
        self-throttling the simulator exhibits on slow networks.
    sharing_fraction:
        Fraction of references touching remotely-homed data (our DSM
        extension, 0 recovers the paper's pure capacity model): those
        references reach the remote-memory level whenever they miss the
        cache, independent of local-memory capacity.
    """
    if not (0.0 < gamma <= 1.0):
        raise ValueError(f"gamma must be in (0, 1], got {gamma!r}")
    if remote_rate_adjustment < 0.0:
        raise ValueError("remote_rate_adjustment must be non-negative")
    if barrier_scale < 0.0:
        raise ValueError("barrier_scale must be non-negative")
    if mode not in ("open", "throttled"):
        raise ValueError(f"unknown mode {mode!r}")

    if not (0.0 <= sharing_fraction <= 1.0):
        raise ValueError("sharing_fraction must be in [0, 1]")
    if not (0.0 <= sharing_fresh_fraction <= 1.0):
        raise ValueError("sharing_fresh_fraction must be in [0, 1]")
    if contention_boost < 1.0:
        raise ValueError("contention_boost must be >= 1 (1 = Poisson-average arrivals)")

    dist = locality.rescaled(hierarchy.total_processes)
    if mode == "open":
        return _evaluate_once(
            hierarchy, dist, gamma, remote_rate_adjustment, barrier_scale, 1.0,
            sharing_fraction, sharing_fresh_fraction, contention_boost,
        )

    # Closed-system fixed point: the issue scale s must satisfy
    # s = 1 / (1 + gamma * T(s)).  Utilization is linear in s, so the
    # saturation boundary is closed-form; inside it T(s) is increasing,
    # making g(s) = 1/(1 + gamma*T(s)) - s strictly decreasing: bisect.
    cache_boundary = hierarchy.levels[0].boundary_items if hierarchy.levels else 0.0
    unit_load = 0.0  # max over levels of (c-1) * lam_i(s=1) * tau_i
    for level in hierarchy.levels:
        tail = float(dist.tail(level.boundary_items))
        if sharing_fraction > 0.0 and level.kind is LevelKind.REMOTE_MEMORY:
            cache_tail = float(dist.tail(cache_boundary))
            miss_share = sharing_fresh_fraction + (1.0 - sharing_fresh_fraction) * cache_tail
            tail = (1.0 - sharing_fraction) * tail + sharing_fraction * miss_share
        lam1 = gamma * tail * level.rate_fraction * contention_boost
        if level.kind in _REMOTE_KINDS:
            lam1 *= 1.0 + remote_rate_adjustment
        unit_load = max(unit_load, (level.population - 1) * lam1 * level.tau_cycles)

    def evaluate_at(scale: float) -> AmatBreakdown:
        return _evaluate_once(
            hierarchy, dist, gamma, remote_rate_adjustment, barrier_scale, scale,
            sharing_fraction, sharing_fresh_fraction, contention_boost,
        )

    hi = 1.0 if unit_load < 1.0 else 0.999999 / unit_load
    result = evaluate_at(hi)
    if math.isfinite(result.total_cycles):
        g_hi = 1.0 / (1.0 + gamma * result.total_cycles) - hi
        if g_hi >= 0.0:
            return result  # self-consistent at the cap already
    lo = 0.0
    for _ in range(MAX_ITERATIONS):
        mid = 0.5 * (lo + hi)
        result = evaluate_at(mid)
        t = result.total_cycles
        if not math.isfinite(t) or 1.0 / (1.0 + gamma * t) < mid:
            hi = mid
        else:
            lo = mid
        if hi - lo <= TOLERANCE:
            break
    return evaluate_at(lo if lo > 0.0 else 0.5 * (lo + hi))


def zero_contention_amat(
    hierarchy: MemoryHierarchy,
    locality: StackDistanceModel,
    gamma: float,
    remote_rate_adjustment: float = 0.0,
    barrier_scale: float = 1.0,
    sharing_fraction: float = 0.0,
    sharing_fresh_fraction: float = 1.0,
) -> float:
    """AMAT with every queueing delay removed: an admissible lower bound.

    Replaces each level's M/D/1 response time ``tau + W`` by the bare
    service time ``tau`` (``W >= 0`` always) and keeps every other term
    of the model untouched.  Because the throttled fixed point only
    scales request *rates* (responses still satisfy ``t >= tau``) and the
    exact-MVA recursion yields ``R_i = s_i (1 + Q_i) >= s_i``, this value
    never exceeds the true AMAT under any evaluation mode — which is what
    makes it a sound branch-and-bound pruning bound for the design-space
    search (see ``docs/COST.md``).  The contention-free relaxation also
    subsumes the infinite-cache one (dropping a level's traffic entirely
    would only loosen the bound further).

    This is the scalar reference implementation; the optimizer uses the
    vectorized :func:`repro.core.batch.e_instr_lower_bounds`, which is
    tested against this function.
    """
    if not (0.0 < gamma <= 1.0):
        raise ValueError(f"gamma must be in (0, 1], got {gamma!r}")
    if remote_rate_adjustment < 0.0:
        raise ValueError("remote_rate_adjustment must be non-negative")
    if barrier_scale < 0.0:
        raise ValueError("barrier_scale must be non-negative")
    if not (0.0 <= sharing_fraction <= 1.0):
        raise ValueError("sharing_fraction must be in [0, 1]")
    if not (0.0 <= sharing_fresh_fraction <= 1.0):
        raise ValueError("sharing_fresh_fraction must be in [0, 1]")

    dist = locality.rescaled(hierarchy.total_processes)
    cache_boundary = hierarchy.levels[0].boundary_items if hierarchy.levels else 0.0
    total = hierarchy.base_cycles
    for level in hierarchy.levels:
        tail = float(dist.tail(level.boundary_items))
        if sharing_fraction > 0.0 and level.kind is LevelKind.REMOTE_MEMORY:
            cache_tail = float(dist.tail(cache_boundary))
            miss_share = sharing_fresh_fraction + (1.0 - sharing_fresh_fraction) * cache_tail
            tail = (1.0 - sharing_fraction) * tail + sharing_fraction * miss_share
        adj = 1.0 + remote_rate_adjustment if level.kind in _REMOTE_KINDS else 1.0
        total += tail * level.rate_fraction * adj * level.tau_cycles
    total += barrier_scale * barrier_term(hierarchy.barrier_population) / gamma
    return total

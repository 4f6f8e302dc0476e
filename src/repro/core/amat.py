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

The sum exists once, in :class:`AmatKernel`, vectorized over a batch of
folded hierarchies (*lanes*).  Every model entry point is a batch of
it: :func:`average_memory_access_time` and :func:`zero_contention_amat`
are batches of one, :mod:`repro.core.batch` prices whole candidate
sets, and the scheduling layer prices a platform's distinct machines
in one call.  Lanes are independent: a lane's answer does not depend
on which other lanes share its batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal, Sequence

import numpy as np

from repro.core.contention import barrier_term
from repro.core.hierarchy import LevelKind, MemoryHierarchy
from repro.core.locality import StackDistanceModel

__all__ = [
    "PAPER_REMOTE_RATE_ADJUSTMENT",
    "MAX_ITERATIONS",
    "TOLERANCE",
    "LevelContribution",
    "AmatBreakdown",
    "AmatKernel",
    "AmatLanes",
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
#: than ``TOLERANCE``.
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


@dataclass(frozen=True)
class AmatLanes:
    """The kernel's answer per lane, at each lane's final issue scale.

    Per-level arrays are ``(levels, lanes)`` in each hierarchy's level
    order; a lane with fewer levels than the deepest one is padded
    after its own levels with levels that see no traffic.
    """

    hierarchies: tuple[MemoryHierarchy, ...]
    gamma: float
    total: np.ndarray  #: T, cycles per memory reference (inf if saturated)
    barrier: np.ndarray  #: barrier share of T
    tail: np.ndarray  #: fraction of references reaching the level
    rate: np.ndarray  #: lam_i, per processor, per cycle (post-adjustment)
    utilization: np.ndarray  #: rho of the serving resource
    response: np.ndarray  #: contended access time (inf if saturated)
    contribution: np.ndarray  #: added to T per memory reference

    def breakdown(self, lane: int) -> AmatBreakdown:
        """One lane as the :class:`AmatBreakdown` of its hierarchy."""
        hierarchy = self.hierarchies[lane]
        per_level = (self.tail, self.rate, self.utilization, self.response, self.contribution)
        levels = tuple(
            LevelContribution(
                name=level.name,
                kind=level.kind,
                boundary_items=level.boundary_items,
                tail_probability=tail,
                request_rate=rate,
                tau_cycles=level.tau_cycles,
                population=level.population,
                utilization=rho,
                response_cycles=response,
                contribution_cycles=contribution,
            )
            # zip stops at the lane's own levels, before any padding.
            for level, tail, rate, rho, response, contribution in zip(
                hierarchy.levels, *(values[:, lane].tolist() for values in per_level)
            )
        )
        return AmatBreakdown(
            total_cycles=float(self.total[lane]),
            base_cycles=hierarchy.base_cycles,
            barrier_cycles=float(self.barrier[lane]),
            levels=levels,
            total_processes=hierarchy.total_processes,
            gamma=self.gamma,
        )


def _check_knobs(
    gamma, barrier_scale, contention_boost, remote_rate_adjustment,
    sharing_fraction, sharing_fresh_fraction,
) -> None:
    """The model's input checks; per-lane knobs are float arrays."""
    if not (0.0 < gamma <= 1.0):
        raise ValueError(f"gamma must be in (0, 1], got {gamma!r}")
    if (remote_rate_adjustment < 0.0).any():
        raise ValueError("remote_rate_adjustment must be non-negative")
    if barrier_scale < 0.0:
        raise ValueError("barrier_scale must be non-negative")
    for name, value in (
        ("sharing_fraction", sharing_fraction),
        ("sharing_fresh_fraction", sharing_fresh_fraction),
    ):
        if not ((0.0 <= value) & (value <= 1.0)).all():
            raise ValueError(f"{name} must be in [0, 1]")
    if contention_boost < 1.0:
        raise ValueError("contention_boost must be >= 1 (1 = Poisson-average arrivals)")


class AmatKernel:
    """The model's one kernel: the Eq. 7/11 sum over a batch of hierarchies.

    Each *lane* is one folded :class:`MemoryHierarchy` with its own
    remote-rate adjustment and sharing knobs (scalars apply to every
    lane); ``gamma``, the barrier scale and the contention boost hold
    for the batch.  The constructor checks the inputs and does the
    scale-independent work: it reads every level's tail through
    ``locality.tail`` once per distinct process count, so any locality
    model that offers ``tail`` and ``rescaled`` (a power law, a workload
    mixture) takes this one path, and it forms the zero-contention
    bound.  :meth:`solve` adds the contended terms.

    Parameters mirror :func:`average_memory_access_time`.  Every
    expression keeps one association order, and the barrier term is
    summed per lane by :func:`~repro.core.contention.barrier_term`,
    never re-reduced, so a lane's floats do not depend on the batch
    around it.
    """

    def __init__(
        self,
        hierarchies: Sequence[MemoryHierarchy],
        locality: StackDistanceModel,
        gamma: float,
        *,
        remote_rate_adjustment=0.0,
        sharing_fraction=0.0,
        sharing_fresh_fraction=1.0,
        barrier_scale: float = 1.0,
        contention_boost: float = 1.0,
    ) -> None:
        adjustment = np.asarray(remote_rate_adjustment, dtype=np.float64)
        sigma = np.asarray(sharing_fraction, dtype=np.float64)
        fresh = np.asarray(sharing_fresh_fraction, dtype=np.float64)
        _check_knobs(gamma, barrier_scale, contention_boost, adjustment, sigma, fresh)
        self.hierarchies = tuple(hierarchies)
        self.gamma = gamma
        self.boost = contention_boost
        m = len(self.hierarchies)
        depth = max((len(h.levels) for h in self.hierarchies), default=0)

        # One row per lane and level: boundary, tau, population - 1, rate
        # fraction, and whether the level is remote, remote memory, real.
        # A lane with fewer levels is padded with levels that have no
        # traffic (tail, fraction and tau all 0): their terms add 0.0.
        rows = []
        by_procs: dict[int, list[int]] = {}
        for k, h in enumerate(self.hierarchies):
            for level in h.levels:
                rows.append((
                    level.boundary_items, level.tau_cycles, level.population - 1,
                    level.rate_fraction, level.kind in _REMOTE_KINDS,
                    level.kind is LevelKind.REMOTE_MEMORY, True,
                ))
            rows.extend([(0.0,) * 7] * (depth - len(h.levels)))
            by_procs.setdefault(h.total_processes, []).append(k)
        table = np.array(rows, dtype=np.float64).reshape(m, depth, 7).transpose(2, 1, 0).copy()
        boundary, tau, pop_minus_1, rate_fraction = table[:4]
        remote, remote_memory, present = table[4:] > 0.0

        # Tails past the cache (the first level's boundary, or 0 without
        # levels) and past each level: one tail call per distinct process
        # count, on the locality rescaled to it.
        reach = np.vstack([boundary[0] if depth else np.zeros(m), boundary])
        tails = np.empty_like(reach)
        for procs, lanes in by_procs.items():
            tails[:, lanes] = locality.rescaled(procs).tail(reach[:, lanes])
        tail = np.where(present, tails[1:], 0.0)

        # Sharing: a reference to remotely-homed data reaches the remote
        # memory whenever it misses the cache -- unconditionally with
        # probability ``fresh`` (a coherence miss), otherwise via the
        # capacity tail.
        miss_share = fresh + (1.0 - fresh) * tails[0]
        blended = (1.0 - sigma) * tail + sigma * miss_share
        self.tail = np.where(remote_memory & (sigma > 0.0), blended, tail)

        #: 1 + adjustment on remote levels; 1.0 elsewhere, an exact no-op.
        self.remote_factor = np.where(remote, 1.0 + adjustment, 1.0)
        #: lam_i at unit issue scale, before the remote adjustment.
        self.lam_unit = (gamma * self.tail) * rate_fraction
        #: Visits per reference, the weight of each level's response in T:
        #: Q(lam, tau, c) / (gamma * scale) == visits * t, so a level's
        #: per-reference share does not depend on the issue scale.
        self.share = (self.tail * rate_fraction) * self.remote_factor
        self.tau = tau
        self.pop_minus_1 = pop_minus_1
        self.base = np.array([h.base_cycles for h in self.hierarchies], dtype=np.float64)
        self.barrier = np.array(
            [barrier_scale * barrier_term(h.barrier_population) / gamma for h in self.hierarchies],
            dtype=np.float64,
        )
        bound = self.base
        for visits, service in zip(self.share, self.tau):
            bound = bound + visits * service
        #: Zero-contention T: every response replaced by its service time.
        self.bound = bound + self.barrier

    def _sum_at(self, scale: np.ndarray):
        """T and its per-level terms with every request rate scaled by ``scale``."""
        lam = (self.lam_unit * scale) * self.remote_factor
        # Burstiness: bulk-synchronous phases offer their traffic in
        # bursts, so the *queueing* terms see an elevated rate; the
        # traffic share per reference is unchanged.
        rho = (self.pop_minus_1 * (lam * self.boost)) * self.tau
        response = self.tau + (rho * self.tau) / (2.0 * (1.0 - rho))  # M/D/1
        response[rho >= 1.0] = np.inf  # saturated
        contribution = np.where(lam > 0.0, self.share * response, 0.0)
        # A saturated level has lam > 0 and visits >= lam (gamma and the
        # scale are at most 1), so its contribution, and T, are inf.
        total = self.base
        for term in contribution:
            total = total + term
        return total + self.barrier, lam, rho, response, contribution

    def _throttled_scale(self) -> np.ndarray:
        """Each lane's issue scale s solving s = 1 / (1 + gamma * T(s)).

        Utilization is linear in s, so the saturation boundary is closed
        form; inside it T(s) is increasing, making
        g(s) = 1/(1 + gamma*T(s)) - s strictly decreasing: bisect, with
        a lane mask so every lane stops on its own bracket.
        """
        gamma = self.gamma
        lam1 = (self.lam_unit * self.boost) * self.remote_factor
        unit_load = np.max((self.pop_minus_1 * lam1) * self.tau, axis=0, initial=0.0)
        hi = np.where(unit_load < 1.0, 1.0, 0.999999 / unit_load)
        # Self-consistent at the cap already?  An infinite T never is:
        # 1 / (1 + gamma * inf) == 0 < s for every scale s > 0.
        capped = 1.0 / (1.0 + gamma * self._sum_at(hi)[0]) - hi >= 0.0
        lo = np.zeros_like(hi)
        active = ~capped
        for _ in range(MAX_ITERATIONS):
            if not active.any():
                break
            mid = 0.5 * (lo + hi)
            down = 1.0 / (1.0 + gamma * self._sum_at(mid)[0]) < mid
            np.copyto(hi, mid, where=active & down)
            np.copyto(lo, mid, where=active & ~down)
            active &= hi - lo > TOLERANCE
        return np.where(capped, hi, np.where(lo > 0.0, lo, 0.5 * (lo + hi)))

    def solve(self, mode: Literal["open", "throttled"]) -> AmatLanes:
        """Every lane's T and per-level terms under ``mode``.

        ``"open"`` offers requests at the full issue rate; ``"throttled"``
        scales each lane's rates by its own fixed point (see
        :func:`average_memory_access_time`).
        """
        if mode not in ("open", "throttled"):
            raise ValueError(f"unknown mode {mode!r}")
        # A saturated level's M/D/1 wait and an unloaded lane's cap
        # divide by zero before the result is replaced.
        with np.errstate(divide="ignore", invalid="ignore"):
            if mode == "open":
                scale = np.ones(len(self.hierarchies))
            else:
                scale = self._throttled_scale()
            total, lam, rho, response, contribution = self._sum_at(scale)
        return AmatLanes(
            hierarchies=self.hierarchies,
            gamma=self.gamma,
            total=total,
            barrier=self.barrier,
            tail=self.tail,
            rate=lam,
            utilization=rho,
            response=response,
            contribution=contribution,
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
    This is a batch of one of :class:`AmatKernel`.

    Parameters
    ----------
    hierarchy:
        Platform hierarchy from :mod:`repro.core.hierarchy` (carries the
        total process count used to rescale the locality model).
    locality:
        Single-process stack-distance fit of the workload, or any model
        offering ``tail`` and ``rescaled`` (e.g. a workload mixture).
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
    kernel = AmatKernel(
        [hierarchy], locality, gamma,
        remote_rate_adjustment=remote_rate_adjustment,
        sharing_fraction=sharing_fraction,
        sharing_fresh_fraction=sharing_fresh_fraction,
        barrier_scale=barrier_scale,
        contention_boost=contention_boost,
    )
    return kernel.solve(mode).breakdown(0)


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

    A batch of one of :class:`AmatKernel`'s bound, which
    :func:`repro.core.batch.e_instr_lower_bounds` prices per candidate.
    """
    kernel = AmatKernel(
        [hierarchy], locality, gamma,
        remote_rate_adjustment=remote_rate_adjustment,
        sharing_fraction=sharing_fraction,
        sharing_fresh_fraction=sharing_fresh_fraction,
        barrier_scale=barrier_scale,
    )
    return float(kernel.bound[0])

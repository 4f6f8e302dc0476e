"""Budget-constrained cluster design and upgrade (paper Eq. 6, Section 6).

``optimize_cluster`` solves  minimize E(Instr) s.t. C_cluster <= B  by
exact enumeration (the paper: "we can determine these integer variables
and solve the optimization problem by enumerating solutions"), with the
per-candidate model calls batched through the vectorized evaluator
(:mod:`repro.core.batch`): one call of the model's kernel per candidate
set, each answer exactly what :func:`~repro.core.execution.evaluate`
gives the candidate alone.  The model's knobs are a
:class:`~repro.core.batch.ModelOptions` (re-exported here), and each
candidate's sharing is the workload's recorded ``sharing_at(N)``.
``optimize_upgrade`` solves the paper's
second question -- given an existing cluster and a budget increase B',
choose the best upgraded configuration, constrained to *grow* the
current one (same or larger n, N, cache, memory; network may be
replaced), so the answer is an upgrade path rather than a forklift
replacement.  For many queries over one space (enumerated once, with
memoized evaluations), Pareto frontiers, disk caching and parallel
batch queries, use :class:`repro.cost.search.DesignSearch`, which
shares these result types.

Example -- the paper's Case 1 question ("what is the best platform this
budget can buy for this program?") on a small candidate space:

>>> from repro.cost.configspace import CandidateSpace
>>> from repro.workloads.params import PAPER_LU
>>> space = CandidateSpace(max_machines=4, memory_mb_options=(32,),
...                        cache_kb_options=(256,))
>>> result = optimize_cluster(PAPER_LU, budget=8_000.0, space=space)
>>> result.best.price <= 8_000.0 and result.best.spec.total_processors >= 2
True
>>> result.best.e_instr_seconds == min(r.e_instr_seconds for r in result.ranking)
True

and the upgrade question ("how should I spend $2,000 more on the
cluster I own?"), whose answer may only *grow* the current machine:

>>> from repro.core.platform import PlatformSpec
>>> from repro.sim.latencies import NetworkKind
>>> owned = PlatformSpec("owned", n=1, N=2, cache_bytes=256 * 1024,
...                      memory_bytes=32 * 1024**2,
...                      network=NetworkKind.ETHERNET_10)
>>> up = optimize_upgrade(PAPER_LU, owned, budget_increase=2_000.0, space=space)
>>> up.best.spec.N >= owned.N and up.speedup >= 1.0
True
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

from repro.core.batch import ModelOptions, e_instr_seconds_batch
from repro.core.execution import ExecutionEstimate, evaluate
from repro.core.platform import PlatformSpec
from repro.cost.catalog import DEFAULT_CATALOG, PriceCatalog
from repro.cost.configspace import CandidateSpace, enumerate_configurations
from repro.cost.model import assert_priceable, cluster_cost
from repro.workloads.params import WorkloadParams

__all__ = [
    "ModelOptions",
    "RankedConfiguration",
    "DesignResult",
    "UpgradeResult",
    "optimize_cluster",
    "optimize_upgrade",
]


def _predict(
    spec: PlatformSpec, workload: WorkloadParams, options: ModelOptions
) -> ExecutionEstimate:
    case = options.case(
        spec, workload.sharing_at(spec.N), workload.sharing_fresh_fraction
    )
    return evaluate(
        spec,
        workload.locality,
        workload.gamma,
        remote_rate_adjustment=case.remote_rate_adjustment,
        sharing_fraction=case.sharing_fraction,
        sharing_fresh_fraction=case.sharing_fresh_fraction,
        **options.batch_knobs,
    )


def _predict_batch(
    specs: Sequence[PlatformSpec], workload: WorkloadParams, options: ModelOptions
):
    """E(Instr) seconds for many specs, each exactly what :func:`_predict` gives."""
    fresh = workload.sharing_fresh_fraction
    return e_instr_seconds_batch(
        [options.case(spec, workload.sharing_at(spec.N), fresh) for spec in specs],
        workload.locality,
        workload.gamma,
        **options.batch_knobs,
    )


@dataclass(frozen=True)
class RankedConfiguration:
    """One feasible configuration with its price and predicted time.

    :func:`_predict` on the spec gives its full per-level breakdown.
    """

    spec: PlatformSpec
    price: float
    e_instr_seconds: float

    @property
    def cost_performance(self) -> float:
        """Price-time product: lower is more cost-effective."""
        return self.price * self.e_instr_seconds

    def as_dict(self) -> dict:
        """The JSON shape of ``repro design --json`` and ``/v1/design``."""
        return {
            "name": self.spec.name,
            "machines": self.spec.N,
            "procs_per_machine": self.spec.n,
            "cache_kb": self.spec.cache_bytes // 1024,
            "memory_mb": self.spec.memory_bytes // (1024 * 1024),
            "network": self.spec.network.value if self.spec.network else None,
            "price": self.price,
            "e_instr_seconds": self.e_instr_seconds,
        }


@dataclass(frozen=True)
class DesignResult:
    """Outcome of a budget optimization."""

    workload: WorkloadParams
    budget: float
    best: RankedConfiguration
    ranking: tuple[RankedConfiguration, ...] = field(repr=False)
    evaluated: int = 0  #: candidates the ranking was built from

    def describe(self, top: int = 5) -> str:
        lines = [
            f"optimal platform for {self.workload.name} under ${self.budget:,.0f} "
            f"({self.evaluated} candidates):"
        ]
        for i, r in enumerate(self.ranking[:top], start=1):
            mark = " <== best" if r is self.best else ""
            lines.append(
                f"  {i}. {r.spec.name:<44s} ${r.price:>8,.0f}  "
                f"E(Instr)={r.e_instr_seconds:.3e}s{mark}"
            )
        return "\n".join(lines)


def optimize_cluster(
    workload: WorkloadParams,
    budget: float,
    catalog: PriceCatalog | None = None,
    space: CandidateSpace | None = None,
    options: ModelOptions | None = None,
) -> DesignResult:
    """Paper Eq. 6: the cheapest-to-run platform a budget can buy.

    Evaluates every candidate in one vectorized batch, so ``ranking`` is
    the *complete* feasible set.  Raises ``ValueError`` when no parallel
    platform fits the budget.
    """
    catalog = catalog or DEFAULT_CATALOG
    options = options or ModelOptions()
    pairs = list(enumerate_configurations(budget, catalog=catalog, space=space))
    seconds = _predict_batch([spec for spec, _ in pairs], workload, options)
    ranked = [
        RankedConfiguration(spec=spec, price=price, e_instr_seconds=float(s))
        for (spec, price), s in zip(pairs, seconds)
        if math.isfinite(s)  # saturated => infeasible
    ]
    if not ranked:
        raise ValueError(
            f"no feasible parallel platform fits ${budget:,.0f} "
            f"(evaluated {len(pairs)} candidates)"
        )
    ranked.sort(key=lambda r: (r.e_instr_seconds, r.price))
    return DesignResult(
        workload=workload,
        budget=budget,
        best=ranked[0],
        ranking=tuple(ranked),
        evaluated=len(pairs),
    )


@dataclass(frozen=True)
class UpgradeResult:
    """Outcome of an upgrade optimization."""

    workload: WorkloadParams
    current: RankedConfiguration
    best: RankedConfiguration
    budget_increase: float
    ranking: tuple[RankedConfiguration, ...] = field(repr=False)

    @property
    def speedup(self) -> float:
        return self.current.e_instr_seconds / self.best.e_instr_seconds

    def describe(self, top: int = 5) -> str:
        lines = [
            f"upgrade for {self.workload.name}, +${self.budget_increase:,.0f} over "
            f"'{self.current.spec.name}' (E(Instr)={self.current.e_instr_seconds:.3e}s):"
        ]
        for i, r in enumerate(self.ranking[:top], start=1):
            gain = self.current.e_instr_seconds / r.e_instr_seconds
            lines.append(
                f"  {i}. {r.spec.name:<44s} +${r.price - self.current.price:>7,.0f}  "
                f"E(Instr)={r.e_instr_seconds:.3e}s  ({gain:.2f}x)"
            )
        return "\n".join(lines)


def _is_upgrade_of(candidate: PlatformSpec, current: PlatformSpec) -> bool:
    """Candidate keeps (or grows) everything the owner already has."""
    return (
        candidate.n >= current.n
        and candidate.N >= current.N
        and candidate.cache_bytes >= current.cache_bytes
        and candidate.memory_bytes >= current.memory_bytes
    )


def optimize_upgrade(
    workload: WorkloadParams,
    current: PlatformSpec,
    budget_increase: float,
    catalog: PriceCatalog | None = None,
    space: CandidateSpace | None = None,
    options: ModelOptions | None = None,
) -> UpgradeResult:
    """The paper's second question: the best way to spend B' more.

    The candidate set is restricted to configurations that structurally
    contain the current cluster; the spend limit is the current
    platform's price plus ``budget_increase``.
    """
    catalog = catalog or DEFAULT_CATALOG
    options = options or ModelOptions()
    if budget_increase < 0:
        raise ValueError("budget increase must be non-negative")
    assert_priceable(catalog, current)
    current_price = cluster_cost(catalog, current)
    total_budget = current_price + budget_increase
    pairs = [
        (spec, price)
        for spec, price in enumerate_configurations(
            total_budget, catalog=catalog, space=space
        )
        if _is_upgrade_of(spec, current)
    ]
    # The owned machine rides in the candidates' batch, at position 0.
    seconds = _predict_batch(
        [current] + [spec for spec, _ in pairs], workload, options
    ).tolist()
    current_ranked = RankedConfiguration(
        spec=current, price=current_price, e_instr_seconds=seconds[0]
    )
    ranked = [
        RankedConfiguration(spec=spec, price=price, e_instr_seconds=s)
        for (spec, price), s in zip(pairs, seconds[1:])
        if math.isfinite(s)
    ]
    if not ranked:
        ranked = [current_ranked]
    ranked.sort(key=lambda r: (r.e_instr_seconds, r.price))
    return UpgradeResult(
        workload=workload,
        current=current_ranked,
        best=ranked[0],
        budget_increase=budget_increase,
        ranking=tuple(ranked),
    )

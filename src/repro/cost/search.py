"""Pruned, parallel, batched design-space search (the Eq. 6 engine at scale).

The paper solves  minimize E(Instr) s.t. C_cluster <= B  by enumerating
every candidate and evaluating the analytical model on each.  That is
exact but wasteful: most candidates are provably worse than the best one
found early.  This module keeps the *answers* bit-for-bit identical to
exhaustive enumeration while doing far less work, with three layered
mechanisms:

1. **Batched evaluation** — candidates are evaluated through
   :func:`repro.core.batch.e_instr_seconds_batch` (bit-identical to
   scalar :func:`~repro.core.execution.evaluate`) in chunks, and a
   per-engine memo keyed on ``(workload locality/gamma, spec, sharing,
   fresh, rra)`` reuses evaluations across queries (many budgets of one
   workload share most candidates).  A second per-engine memo keeps
   each platform's folded hierarchy, so bounds and evaluations of every
   query fold a platform once.
2. **Branch-and-bound pruning** — candidates are visited in ascending
   order of the admissible zero-contention lower bound
   (:func:`repro.core.batch.e_instr_lower_bounds`); a candidate whose
   bound exceeds the incumbent's exact time can never win *or tie*, so
   it is skipped without a model evaluation.  With ``method="pareto"``
   the incumbent is the running price/time Pareto front and a candidate
   is pruned only when an already-evaluated configuration at equal or
   lower price is strictly faster than the candidate's bound — which
   provably preserves the exact frontier (see ``docs/COST.md``).
3. **Batch fan-out and a disk cache** — a *batch* of queries can fan
   out one query per worker of :class:`repro.pool.FaultTolerantPool`
   (worker crashes retry and degrade to serial); a single query always
   runs in-process.  Answers land in the ``.repro_cache/`` disk cache
   (:mod:`repro.diskcache`) keyed on (workload, catalog, space,
   options, budget, method) and the package source.

Observability: ``design_candidates_total``, ``design_evaluations_total``,
``design_pruned_total``, ``design_memo_hits_total`` and
``repro_cache_lookups_total{kind="design"}`` count the work; the bench
harness (``benchmarks/bench_optimizer.py``) records the pruning ratio.
"""

from __future__ import annotations

import math
import os
from bisect import bisect_right
from dataclasses import dataclass, field, replace
from typing import Iterable, Sequence

import numpy as np

from repro.core.batch import BatchCase, e_instr_lower_bounds, e_instr_seconds_batch
from repro.core.platform import PlatformSpec
from repro.cost.catalog import DEFAULT_CATALOG, PriceCatalog
from repro.cost.configspace import CandidateSpace, enumerate_configurations
from repro.cost.optimizer import (
    DesignResult,
    ModelOptions,
    RankedConfiguration,
    _is_upgrade_of,
)
from repro.diskcache import DiskCache
from repro.obs import metrics as obs_metrics
from repro.pool import FaultTolerantPool
from repro.workloads.params import WorkloadParams

__all__ = [
    "DesignQuery",
    "DesignSearch",
    "SearchStats",
    "SearchOutcome",
    "pareto_frontier",
    "upgrade_path",
]

#: Top size of a vectorized evaluation chunk.  Pruning walks ramp up to
#: it geometrically from ``_FIRST_CHUNK`` so the incumbent is set after
#: a handful of lowest-bound evaluations, while large spaces still
#: amortize NumPy over full-size batches.
_CHUNK = 64
_FIRST_CHUNK = 8

_METHODS = ("pruned", "pareto", "exhaustive")


# ----------------------------------------------------------------------
# Public result types
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SearchStats:
    """Work accounting of one design query."""

    candidates: int  #: priced candidates within budget
    evaluated: int  #: full model evaluations actually performed
    pruned: int  #: candidates skipped via the lower bound
    memo_hits: int = 0  #: evaluations served from the in-memory memo
    from_cache: bool = False  #: whole answer served from the disk cache

    @property
    def pruning_ratio(self) -> float:
        """Fraction of candidates never evaluated (0 = exhaustive)."""
        return self.pruned / self.candidates if self.candidates else 0.0


@dataclass(frozen=True)
class SearchOutcome:
    """A design query's answer plus its work accounting."""

    result: DesignResult
    stats: SearchStats
    #: Price/time Pareto frontier over the evaluated candidates, cheapest
    #: first.  Exact for ``method="pareto"`` and ``"exhaustive"``; under
    #: ``"pruned"`` it is a subset (pruning keeps only the optimum exact).
    frontier: tuple[RankedConfiguration, ...] = field(repr=False, default=())

    @property
    def best(self) -> RankedConfiguration:
        return self.result.best


@dataclass(frozen=True)
class DesignQuery:
    """One (workload, budget) question for the batch driver."""

    workload: WorkloadParams
    budget: float
    method: str | None = None  #: override the engine's default method


def pareto_frontier(
    ranking: Iterable[RankedConfiguration],
) -> tuple[RankedConfiguration, ...]:
    """Non-dominated (price, E(Instr)) configurations, cheapest first.

    A configuration is kept iff no other is simultaneously no more
    expensive and no slower (with one of the two strict).  Ties on both
    coordinates keep the first configuration in ranking order.
    """
    points = sorted(
        (r for r in ranking if math.isfinite(r.e_instr_seconds)),
        key=lambda r: (r.price, r.e_instr_seconds),
    )
    front: list[RankedConfiguration] = []
    for r in points:
        if front and front[-1].e_instr_seconds <= r.e_instr_seconds:
            continue  # something no dearer is already at least as fast
        front.append(r)
    return tuple(front)


def upgrade_path(
    frontier: Sequence[RankedConfiguration],
) -> tuple[RankedConfiguration, ...]:
    """A purchase trajectory along the frontier: each step *grows* the last.

    Starting from the cheapest frontier configuration, greedily append
    the next-cheapest frontier entry that structurally contains the
    current one (same or larger n, N, cache, memory — the
    ``optimize_upgrade`` notion of an upgrade), yielding the sequence of
    machines an owner could buy incrementally without ever discarding
    capacity.  Frontier entries that would require shrinking are skipped.
    """
    path: list[RankedConfiguration] = []
    for r in frontier:
        if not path or _is_upgrade_of(r.spec, path[-1].spec):
            path.append(r)
    return tuple(path)


# ----------------------------------------------------------------------
# Model plumbing shared by the serial core and the pool workers
# ----------------------------------------------------------------------
def _case_for(
    spec: PlatformSpec, workload: WorkloadParams, options: ModelOptions
) -> BatchCase:
    """Mirror ``optimizer._predict``'s per-candidate model knobs."""
    return BatchCase(
        spec,
        sharing_fraction=(
            workload.sharing_at(spec.N) if options.use_sharing else 0.0
        ),
        sharing_fresh_fraction=workload.sharing_fresh_fraction,
        remote_rate_adjustment=(
            options.remote_rate_adjustment if spec.N > 1 else 0.0
        ),
    )


def _batch_kwargs(options: ModelOptions) -> dict:
    return dict(
        mode=options.mode,
        on_saturation="inf",
        barrier_scale=options.barrier_scale,
        cache_capacity_factor=options.cache_capacity_factor,
        contention_boost=options.contention_boost,
    )


def _bound_kwargs(options: ModelOptions) -> dict:
    # The zero-contention bound has no queueing, so contention_boost
    # (which only inflates queueing rates) cannot tighten it: the bound
    # stays admissible for every boost >= 1.
    return dict(
        barrier_scale=options.barrier_scale,
        cache_capacity_factor=options.cache_capacity_factor,
    )


class _ParetoFront:
    """Running lower envelope of evaluated (price, seconds) points.

    Supports the pruning query "what is the best exact time achieved at
    price <= p so far?" in O(log k).  Prices are kept ascending with
    strictly descending times, so the answer is the rightmost point at
    or below ``p``.
    """

    def __init__(self) -> None:
        self._prices: list[float] = []
        self._seconds: list[float] = []

    def min_seconds_at(self, price: float) -> float:
        i = bisect_right(self._prices, price) - 1
        return self._seconds[i] if i >= 0 else math.inf

    def add(self, price: float, seconds: float) -> None:
        if not math.isfinite(seconds):
            return
        i = bisect_right(self._prices, price)
        if i > 0 and self._seconds[i - 1] <= seconds:
            return  # dominated by something no dearer
        self._prices.insert(i, price)
        self._seconds.insert(i, seconds)
        j = i + 1
        while j < len(self._prices) and self._seconds[j] >= seconds:
            del self._prices[j]
            del self._seconds[j]

    def points(self) -> list[tuple[float, float]]:
        return list(zip(self._prices, self._seconds))


def _search_core(
    workload: WorkloadParams,
    candidates: Sequence[tuple[int, PlatformSpec, float]],
    options: ModelOptions,
    method: str,
    memo: dict | None = None,
    hierarchies: dict | None = None,
) -> tuple[list[tuple[int, float, float]], int, int]:
    """Prune-and-evaluate one candidate set; the engine's exact core.

    ``candidates`` is ``(enumeration_index, spec, price)`` triples.  Returns
    ``(feasible, evaluated, memo_hits)`` where ``feasible`` holds
    ``(enumeration_index, price, e_instr_seconds)`` of every candidate
    whose model was computed and came back finite.  ``hierarchies`` is
    the hierarchy-fold memo handed to the batch lane; without one the
    call keeps its own, so bounds and evaluations share folds.

    Why the answers stay exact (docs/COST.md has the full argument): a
    candidate is pruned only when its admissible lower bound *strictly*
    exceeds an incumbent's exact time (at no higher price, for
    ``"pareto"``), so any candidate tying the optimum — bound <= its own
    exact time <= incumbent — is always evaluated.
    """
    locality, gamma = workload.locality, workload.gamma
    # The memo must key on the *workload* too, not just the candidate:
    # two workloads can share a spec and all sharing parameters while
    # differing in locality (alpha/beta/max_distance) or gamma, and the
    # memo outlives a single query.
    wkey = (locality, gamma)
    if hierarchies is None:
        hierarchies = {}
    cases = [_case_for(spec, workload, options) for _, spec, _ in candidates]
    feasible: list[tuple[int, float, float]] = []
    evaluated = 0
    memo_hits = 0

    def eval_positions(positions: list[int]) -> list[float]:
        nonlocal evaluated, memo_hits
        seconds: dict[int, float] = {}
        misses: list[int] = []
        for p in positions:
            case = cases[p]
            key = (
                wkey,
                case.spec,
                case.sharing_fraction,
                case.sharing_fresh_fraction,
                case.remote_rate_adjustment,
            )
            if memo is not None and key in memo:
                seconds[p] = memo[key]
                memo_hits += 1
            else:
                misses.append(p)
        if misses:
            values = e_instr_seconds_batch(
                [cases[p] for p in misses], locality, gamma,
                hierarchy_memo=hierarchies, **_batch_kwargs(options),
            )
            evaluated += len(misses)
            for p, value in zip(misses, values):
                value = float(value)
                seconds[p] = value
                if memo is not None:
                    case = cases[p]
                    memo[(
                        wkey,
                        case.spec,
                        case.sharing_fraction,
                        case.sharing_fresh_fraction,
                        case.remote_rate_adjustment,
                    )] = value
        return [seconds[p] for p in positions]

    def commit(positions: list[int], seconds: list[float]) -> None:
        for p, value in zip(positions, seconds):
            if math.isfinite(value):
                index, _, price = candidates[p]
                feasible.append((index, price, value))

    if method == "exhaustive":
        positions = list(range(len(candidates)))
        commit(positions, eval_positions(positions))
        return feasible, evaluated, memo_hits

    bounds = e_instr_lower_bounds(
        cases, locality, gamma, hierarchy_memo=hierarchies,
        **_bound_kwargs(options),
    )
    order = np.argsort(bounds, kind="stable")  # (bound, enumeration) asc

    if method == "pruned":
        incumbent = math.inf
        cursor = 0
        step = _FIRST_CHUNK
        while cursor < len(order):
            take = [
                int(p)
                for p in order[cursor:cursor + step]
                if bounds[p] <= incumbent
            ]
            if not take:
                break  # bounds ascend: everything left is prunable
            seconds = eval_positions(take)
            commit(take, seconds)
            finite = [s for s in seconds if math.isfinite(s)]
            if finite:
                incumbent = min(incumbent, min(finite))
            cursor += step
            step = min(_CHUNK, step * 2)
        return feasible, evaluated, memo_hits

    if method != "pareto":
        raise ValueError(f"unknown search method {method!r}; use one of {_METHODS}")
    front = _ParetoFront()
    pending: list[int] = []
    step = _FIRST_CHUNK

    def flush() -> None:
        seconds = eval_positions(pending)
        commit(pending, seconds)
        for p, value in zip(pending, seconds):
            front.add(candidates[p][2], value)
        pending.clear()

    for p in order:
        p = int(p)
        if front.min_seconds_at(candidates[p][2]) < bounds[p]:
            continue  # strictly dominated even in the best case
        pending.append(p)
        if len(pending) >= step:
            flush()
            step = min(_CHUNK, step * 2)
    if pending:
        flush()
    return feasible, evaluated, memo_hits


# ----------------------------------------------------------------------
# Pool workers (module-level: must be picklable)
# ----------------------------------------------------------------------
def _materialize(
    budget: float, catalog: PriceCatalog, space: CandidateSpace | None
) -> list[tuple[int, PlatformSpec, float]]:
    return [
        (i, spec, price)
        for i, (spec, price) in enumerate(
            enumerate_configurations(budget, catalog=catalog, space=space)
        )
    ]


def _solve_query(args):
    """One whole query of a batch: solved serially inside a worker."""
    workload, budget, catalog, space, options, method = args
    candidates = _materialize(budget, catalog, space)
    feasible, evaluated, memo_hits = _search_core(
        workload, candidates, options, method
    )
    return feasible, evaluated, memo_hits, len(candidates)


# ----------------------------------------------------------------------
# The engine
# ----------------------------------------------------------------------
class DesignSearch:
    """A reusable design-query engine over one catalog and candidate space.

    Construct once, then answer any number of single
    (:meth:`search`, :meth:`search_upgrade`) or batched (:meth:`run`)
    queries; the evaluation memo, the worker pool and the disk cache
    persist across queries.

    Parameters mirror :func:`repro.cost.optimizer.optimize_cluster` plus:

    ``method``
        ``"pruned"`` (default) guarantees only the optimal configuration
        (and its full tie set) is exact; ``"pareto"`` additionally keeps
        the exact price/time frontier; ``"exhaustive"`` evaluates every
        candidate (still batched, still memoized).
    ``jobs``
        Worker processes.  ``1`` (default) stays in-process; more fans
        out :meth:`run` batches one query per worker via
        :class:`repro.pool.FaultTolerantPool` (retry / degrade-to-serial
        semantics included).  Each :meth:`run` wave is counted in
        ``design_wave_lane_total{lane}`` as ``serial`` or ``pool``.
        Single queries always run in-process.
    ``cache_dir``
        Optional ``.repro_cache`` root; answers are pickled under
        ``design/<sha256>.pkl`` (:mod:`repro.diskcache`), keyed on
        everything that determines them and on the package source.
    """

    def __init__(
        self,
        catalog: PriceCatalog | None = None,
        space: CandidateSpace | None = None,
        options: ModelOptions | None = None,
        *,
        method: str = "pruned",
        jobs: int = 1,
        cache_dir: str | os.PathLike | None = None,
        metrics: obs_metrics.MetricsRegistry | None = None,
        max_retries: int = 2,
        retry_backoff: float = 0.25,
        query_timeout: float | None = None,
    ) -> None:
        if method not in _METHODS:
            raise ValueError(f"unknown search method {method!r}; use one of {_METHODS}")
        self.catalog = catalog or DEFAULT_CATALOG
        self.space = space
        self.options = options or ModelOptions()
        self.method = method
        self.metrics = metrics if metrics is not None else obs_metrics.REGISTRY
        self._candidates_total = self.metrics.counter(
            "design_candidates_total",
            "Design-space candidates priced within budget, across queries",
        )
        self._evaluations_total = self.metrics.counter(
            "design_evaluations_total",
            "Full analytical-model evaluations performed by the design search",
        )
        self._pruned_total = self.metrics.counter(
            "design_pruned_total",
            "Design candidates skipped via the admissible lower bound",
        )
        self._memo_hits_total = self.metrics.counter(
            "design_memo_hits_total",
            "Design evaluations served from the in-memory memo",
        )
        self._cache = DiskCache(cache_dir, self.metrics)
        self._pool = FaultTolerantPool(
            jobs,
            max_retries=max_retries,
            retry_backoff=retry_backoff,
            task_timeout=query_timeout,
            retries=self.metrics.counter(
                "repro_query_retries_total",
                "Design-query attempts retried after a failure",
            ),
            degradations=self.metrics.counter(
                "repro_pool_degradations_total",
                "Times a broken or timed-out process pool fell back to serial",
            ),
            kind="query",
            # Design queries carry no user seed; any fixed seed makes the
            # retry schedule reproducible while still decorrelated per task.
            jitter_seed=0,
        )
        self._wave_lane_total = self.metrics.counter(
            "design_wave_lane_total",
            "Design evaluation waves executed, by chosen lane",
            labelnames=("lane",),
        )
        self._memo: dict = {}
        #: Folded hierarchies by (spec, knobs): bounded, like ``_memo``,
        #: by the candidate space.
        self._hierarchies: dict = {}

    # ------------------------------------------------------------------
    # Disk cache
    # ------------------------------------------------------------------
    def _design_key(
        self, workload: WorkloadParams, budget: float, method: str
    ) -> tuple:
        """Disk-cache key: everything that determines a search answer."""
        return (
            workload, self.catalog, self.space, self.options, float(budget), method,
        )

    def _cached(self, key: tuple) -> SearchOutcome | None:
        cached = self._cache.load("design", key, SearchOutcome)
        if cached is None:
            return None
        return replace(cached, stats=replace(cached.stats, from_cache=True))

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def search(
        self,
        workload: WorkloadParams,
        budget: float,
        method: str | None = None,
    ) -> SearchOutcome:
        """Answer one (workload, budget) design question, in-process.

        Raises ``ValueError`` when no feasible parallel platform fits
        the budget (matching :func:`~repro.cost.optimizer.optimize_cluster`).
        """
        method = self._check_method(method)
        disk_key = self._design_key(workload, budget, method)
        cached = self._cached(disk_key)
        if cached is not None:
            return cached
        candidates = _materialize(budget, self.catalog, self.space)
        outcome = self._solve(workload, budget, candidates, method)
        self._cache.store("design", disk_key, outcome)
        return outcome

    def search_upgrade(
        self,
        workload: WorkloadParams,
        current: PlatformSpec,
        budget_increase: float,
        method: str | None = None,
    ) -> SearchOutcome:
        """The upgrade question through the pruned engine.

        Candidates are restricted to structural upgrades of ``current``
        (the :func:`~repro.cost.optimizer.optimize_upgrade` rule) under
        the current price plus ``budget_increase``; the current platform
        itself is always part of the candidate set, so the answer never
        regresses below the machine the owner already has.
        """
        from repro.cost.model import assert_priceable, cluster_cost

        method = self._check_method(method)
        if budget_increase < 0:
            raise ValueError("budget increase must be non-negative")
        assert_priceable(self.catalog, current)
        current_price = cluster_cost(self.catalog, current)
        budget = current_price + budget_increase
        candidates = [
            c for c in _materialize(budget, self.catalog, self.space)
            if _is_upgrade_of(c[1], current)
        ]
        # The owner's machine competes too (and guarantees feasibility);
        # give it an index past every enumerated one.
        next_index = max((i for i, _, _ in candidates), default=-1) + 1
        candidates.append((next_index, current, current_price))
        return self._solve(workload, budget, candidates, method)

    def run(self, queries: Sequence[DesignQuery]) -> list[SearchOutcome]:
        """Answer a batch of queries, in-process or on the pool.

        At ``jobs <= 1`` every uncached query is solved in-process: the
        candidate enumeration is shared per budget and the evaluation
        memo is shared across queries (same-workload queries at
        different budgets overlap almost completely), so a wave costs
        roughly one query's evaluations instead of Q.  Otherwise the
        pool fans one query per worker -- workers solve serially and
        cannot share the memo across processes.  Answers are identical
        either way (the memo only replays exact floats); cached answers
        never reach either path.  Results align with ``queries`` by
        position.
        """
        results: dict[int, SearchOutcome] = {}
        tasks: list[tuple[str, object]] = []
        task_meta: list[tuple[int, DesignQuery, tuple]] = []
        for i, q in enumerate(queries):
            method = self._check_method(q.method)
            disk_key = self._design_key(q.workload, q.budget, method)
            cached = self._cached(disk_key)
            if cached is not None:
                results[i] = cached
                continue
            tasks.append((
                f"{q.workload.name}@${q.budget:,.0f}",
                (q.workload, q.budget, self.catalog, self.space,
                 self.options, method),
            ))
            task_meta.append((i, q, disk_key))

        if tasks:
            lane = "serial" if self._pool.jobs <= 1 else "pool"
            self._wave_lane_total.labels(lane=lane).inc()
            if lane == "serial":
                enum_memo: dict[float, list] = {}
                for (_desc, args), (i, _q, disk_key) in zip(tasks, task_meta):
                    workload, budget, _catalog, _space, _options, method = args
                    key = float(budget)
                    if key not in enum_memo:
                        enum_memo[key] = _materialize(
                            budget, self.catalog, self.space
                        )
                    outcome = self._solve(workload, budget, enum_memo[key], method)
                    self._cache.store("design", disk_key, outcome)
                    results[i] = outcome
                return [results[i] for i in range(len(queries))]

        def collect(t: int, value) -> None:
            i, q, disk_key = task_meta[t]
            feasible, evaluated, memo_hits, total = value
            candidates = _materialize(q.budget, self.catalog, self.space)
            outcome = self._finish(
                q.workload, q.budget, candidates, feasible, evaluated,
                memo_hits,
            )
            self._cache.store("design", disk_key, outcome)
            results[i] = outcome

        self._pool.run(_solve_query, tasks, collect)
        return [results[i] for i in range(len(queries))]

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _check_method(self, method: str | None) -> str:
        method = method or self.method
        if method not in _METHODS:
            raise ValueError(f"unknown search method {method!r}; use one of {_METHODS}")
        return method

    def _solve(
        self,
        workload: WorkloadParams,
        budget: float,
        candidates: Sequence[tuple[int, PlatformSpec, float]],
        method: str,
    ) -> SearchOutcome:
        """Search ``candidates`` in-process, sharing the engine's memos."""
        feasible, evaluated, memo_hits = _search_core(
            workload, candidates, self.options, method,
            memo=self._memo, hierarchies=self._hierarchies,
        )
        return self._finish(
            workload, budget, candidates, feasible, evaluated, memo_hits
        )

    def _finish(
        self,
        workload: WorkloadParams,
        budget: float,
        candidates: Sequence[tuple[int, PlatformSpec, float]],
        feasible: Sequence[tuple[int, float, float]],
        evaluated: int,
        memo_hits: int,
    ) -> SearchOutcome:
        specs = {index: spec for index, spec, _ in candidates}
        ranked = [
            RankedConfiguration(
                spec=specs[index], price=price, e_instr_seconds=seconds,
                estimate=None,
            )
            for index, price, seconds in sorted(feasible)  # enumeration order
        ]
        ranked.sort(key=lambda r: (r.e_instr_seconds, r.price))  # stable
        stats = SearchStats(
            candidates=len(candidates),
            evaluated=evaluated,
            pruned=len(candidates) - evaluated - memo_hits,
            memo_hits=memo_hits,
        )
        self._candidates_total.inc(stats.candidates)
        self._evaluations_total.inc(stats.evaluated)
        self._pruned_total.inc(stats.pruned)
        self._memo_hits_total.inc(stats.memo_hits)
        if not ranked:
            raise ValueError(
                f"no feasible parallel platform fits ${budget:,.0f} "
                f"(evaluated {evaluated} candidates)"
            )
        result = DesignResult(
            workload=workload,
            budget=budget,
            best=ranked[0],
            ranking=tuple(ranked),
            evaluated=evaluated,
        )
        return SearchOutcome(
            result=result, stats=stats, frontier=pareto_frontier(ranked)
        )

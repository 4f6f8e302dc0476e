"""Batched, memoized design-space search (the Eq. 6 engine at scale).

The paper solves  minimize E(Instr) s.t. C_cluster <= B  by enumerating
every candidate and evaluating the analytical model on each; that is
this engine's default method, ``"exhaustive"``.  What makes many such
questions cheap, none of it changing an answer:

1. **One enumeration per engine** — the candidate space is enumerated
   and priced once, at an unbounded budget, and each budget is a price
   mask over it (enumeration prices every candidate whatever the
   budget, so the mask yields the same candidates in the same order).
2. **Batched, memoized evaluation** — candidates go through
   :func:`repro.core.batch.e_instr_seconds_batch` (each answer exactly
   what :func:`~repro.core.execution.evaluate` gives alone), each
   built by :meth:`ModelOptions.case <repro.core.batch.ModelOptions.case>`
   from the workload's recorded sharing.  The engine
   keeps one memo per workload, keyed on the workload object itself, that
   maps a candidate's enumeration index to its E(Instr): the catalog,
   space and options are fixed per engine, so an index names one model
   input, and no entry can cross workloads.  Evaluations are reused
   across queries by an int lookup, the memos of only the
   ``MEMO_WORKLOADS`` most recently searched workloads are kept, and a
   second memo folds each platform's hierarchy once.
3. **Pareto pruning** — ``method="pareto"`` visits candidates in
   ascending order of the admissible zero-contention lower bound
   (:func:`repro.core.batch.e_instr_lower_bounds`) and skips one only
   when a configuration already evaluated at equal or lower price is
   strictly faster than its bound, which keeps the optimum and the exact
   price/time frontier (see ``docs/COST.md``).  Bounds are memoised like
   evaluations, per workload by enumeration index, so a budget sweep
   computes each candidate's bound once.
4. **Batch fan-out and a disk cache** — a *batch* of queries can fan
   out one query, with its candidates, per worker of
   :class:`repro.pool.FaultTolerantPool` (worker crashes retry and
   degrade to serial); a single query always runs in-process.  Answers
   land in the ``.repro_cache/`` disk cache (:mod:`repro.diskcache`)
   keyed on (workload, catalog, space, options, budget, method) and the
   package source.

Observability: ``design_candidates_total``, ``design_evaluations_total``,
``design_pruned_total``, ``design_memo_hits_total`` and
``repro_cache_lookups_total{kind="design"}`` count the work.
"""

from __future__ import annotations

import math
import numbers
import os
import sys
from bisect import bisect_right
from dataclasses import dataclass, field, replace
from typing import Iterable, Sequence

import numpy as np

from repro.core.batch import ModelOptions, e_instr_lower_bounds, e_instr_seconds_batch
from repro.core.platform import PlatformSpec
from repro.cost.catalog import DEFAULT_CATALOG, PriceCatalog
from repro.cost.configspace import CandidateSpace, enumerate_configurations
from repro.cost.optimizer import DesignResult, RankedConfiguration, _is_upgrade_of
from repro.diskcache import DiskCache
from repro.obs import metrics as obs_metrics
from repro.pool import FaultTolerantPool
from repro.workloads.params import WorkloadParams

__all__ = [
    "METHODS",
    "DesignQuery",
    "DesignSearch",
    "SearchStats",
    "SearchOutcome",
    "pareto_frontier",
    "upgrade_path",
]

#: Top size of a vectorized evaluation chunk.  The pareto walk ramps up
#: to it geometrically from ``_FIRST_CHUNK`` so the front is set after
#: a handful of lowest-bound evaluations, while large spaces still
#: amortize NumPy over full-size batches.
_CHUNK = 64
_FIRST_CHUNK = 8

#: The design methods; the CLI and the service accept exactly these.
METHODS = ("exhaustive", "pareto")

#: Workloads whose E(Instr) and bound memos one engine keeps, the most
#: recently searched ones.  A long-lived engine (the service's) sees a
#: new workload with every custom ``alpha``/``beta``/``gamma``, and each
#: keeps up to two floats per candidate in its budgets; the paper's
#: four workloads, and a sweep over them, stay memoised.
MEMO_WORKLOADS = 8


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

    def as_dict(self) -> dict:
        """The JSON shape of these stats (``repro design --json`` and
        ``/v1/design`` both print it)."""
        return {
            "candidates": self.candidates,
            "evaluated": self.evaluated,
            "pruned": self.pruned,
            "memo_hits": self.memo_hits,
            "pruning_ratio": self.pruning_ratio,
            "from_cache": self.from_cache,
        }


@dataclass(frozen=True)
class SearchOutcome:
    """A design query's answer plus its work accounting."""

    result: DesignResult
    stats: SearchStats
    #: Price/time Pareto frontier over the evaluated candidates, cheapest
    #: first; exact under every method.
    frontier: tuple[RankedConfiguration, ...] = field(repr=False, default=())

    @property
    def best(self) -> RankedConfiguration:
        return self.result.best


@dataclass(frozen=True)
class DesignQuery:
    """One (workload, budget) question, checked on construction: the
    budget is a positive finite number (not a bool), stored as a float,
    and ``method`` is ``None`` or one of :data:`METHODS`; ``ValueError``
    otherwise."""

    workload: WorkloadParams
    budget: float
    method: str | None = None  #: override the engine's default method

    def __post_init__(self) -> None:
        budget = self.budget
        if isinstance(budget, bool) or not (
            isinstance(budget, numbers.Real) and 0 < budget <= sys.float_info.max
        ):
            raise ValueError(f"budget must be positive and finite, got {budget!r}")
        if self.method is not None and self.method not in METHODS:
            raise ValueError(
                f"unknown search method {self.method!r}; use one of {METHODS}"
            )
        object.__setattr__(self, "budget", float(budget))


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
    seconds: dict[int, float] | None = None,
    bounds: dict[int, float] | None = None,
    hierarchies: dict | None = None,
) -> tuple[list[tuple[int, float, float]], int, int]:
    """Evaluate one candidate set; the engine's exact core.

    ``candidates`` is ``(enumeration_index, spec, price)`` triples.  Returns
    ``(feasible, evaluated, memo_hits)`` where ``feasible`` holds
    ``(enumeration_index, price, e_instr_seconds)`` of every candidate
    whose model was computed and came back finite.

    ``seconds`` and ``bounds`` are this *workload's* memos of E(Instr)
    and of the lower bound, keyed by enumeration index: the caller keeps
    one pair per workload over one enumeration, catalog and
    :class:`ModelOptions`, so an index names one model input.  Without
    them the call keeps its own.  ``hierarchies`` is the hierarchy-fold
    memo handed to the batch entry points; without one the call keeps
    its own, so bounds and evaluations share folds.  A candidate's
    :class:`~repro.core.batch.BatchCase` is built only when one of its
    model values is missing.

    ``"exhaustive"`` evaluates every candidate.  ``"pareto"`` prunes a
    candidate only when its admissible lower bound *strictly* exceeds the
    exact time of one evaluated at no higher price, so neither a frontier
    member nor anything tying the optimum — bound <= its own exact time
    <= any exact time — is ever skipped (docs/COST.md has the argument).
    """
    locality, gamma = workload.locality, workload.gamma
    fresh = workload.sharing_fresh_fraction
    seconds = {} if seconds is None else seconds
    bounds = {} if bounds is None else bounds
    hierarchies = {} if hierarchies is None else hierarchies
    feasible: list[tuple[int, float, float]] = []
    evaluated = 0
    memo_hits = 0

    def cases(positions: list[int]) -> list:
        specs = (candidates[p][1] for p in positions)
        return [options.case(s, workload.sharing_at(s.N), fresh) for s in specs]

    def eval_positions(positions: list[int]) -> list[float]:
        nonlocal evaluated, memo_hits
        misses = [p for p in positions if candidates[p][0] not in seconds]
        memo_hits += len(positions) - len(misses)
        if misses:
            values = e_instr_seconds_batch(
                cases(misses), locality, gamma,
                hierarchy_memo=hierarchies, **options.batch_knobs,
            )
            evaluated += len(misses)
            for p, value in zip(misses, values.tolist()):
                seconds[candidates[p][0]] = value
        return [seconds[candidates[p][0]] for p in positions]

    def commit(positions: list[int], values: list[float]) -> None:
        for p, value in zip(positions, values):
            if math.isfinite(value):
                index, _, price = candidates[p]
                feasible.append((index, price, value))

    if method == "exhaustive":
        positions = list(range(len(candidates)))
        commit(positions, eval_positions(positions))
        return feasible, evaluated, memo_hits

    unbounded = [p for p, (index, _, _) in enumerate(candidates) if index not in bounds]
    if unbounded:
        # The zero-contention bound has no queueing, so contention_boost
        # (which only inflates queueing rates) cannot tighten it: the bound
        # stays admissible for every boost >= 1.
        values = e_instr_lower_bounds(
            cases(unbounded), locality, gamma, hierarchy_memo=hierarchies,
            barrier_scale=options.barrier_scale,
            cache_capacity_factor=options.cache_capacity_factor,
        )
        for p, value in zip(unbounded, values.tolist()):
            bounds[candidates[p][0]] = value
    bound = [bounds[index] for index, _, _ in candidates]
    order = np.argsort(bound, kind="stable")  # (bound, enumeration) asc
    front = _ParetoFront()
    pending: list[int] = []
    step = _FIRST_CHUNK

    def flush() -> None:
        values = eval_positions(pending)
        commit(pending, values)
        for p, value in zip(pending, values):
            front.add(candidates[p][2], value)
        pending.clear()

    for p in order.tolist():
        if front.min_seconds_at(candidates[p][2]) < bound[p]:
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
def _solve_query(args):
    """One whole query of a batch: solved serially inside a worker."""
    workload, candidates, options, method = args
    return _search_core(workload, candidates, options, method)


# ----------------------------------------------------------------------
# The engine
# ----------------------------------------------------------------------
class DesignSearch:
    """A reusable design-query engine over one catalog and candidate space.

    Construct once, then answer any number of single (:meth:`search`)
    or batched (:meth:`run`) queries; the candidate enumeration, the
    per-workload evaluation and bound memos, the worker pool and the disk
    cache persist across queries.

    Parameters mirror :func:`repro.cost.optimizer.optimize_cluster` plus:

    ``method``
        ``"exhaustive"`` (default) evaluates every candidate (still
        batched, still memoized), so ``ranking`` is the complete feasible
        ranking :func:`~repro.cost.optimizer.optimize_cluster` returns;
        ``"pareto"`` prunes on the lower bound and keeps the optimum
        (with its full tie set) and the exact price/time frontier, but
        ranks only the candidates it evaluated.
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
        method: str = "exhaustive",
        jobs: int = 1,
        cache_dir: str | os.PathLike | None = None,
        metrics: obs_metrics.MetricsRegistry | None = None,
    ) -> None:
        if method not in METHODS:
            raise ValueError(f"unknown search method {method!r}; use one of {METHODS}")
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
        #: Every ``(enumeration_index, spec, price)`` of the space in
        #: enumeration order, built on first use so that constructing an
        #: engine stays cheap.
        self._enumeration: list[tuple[int, PlatformSpec, float]] | None = None
        #: Per workload, E(Instr) and the lower bound by enumeration
        #: index.  The catalog, space and options are fixed, so an index
        #: names one model input; keying on the workload object keeps
        #: every entry inside its own workload.  Both hold the same
        #: workloads, least recently searched first, at most
        #: ``MEMO_WORKLOADS`` of them.
        self._seconds: dict[WorkloadParams, dict[int, float]] = {}
        self._bounds: dict[WorkloadParams, dict[int, float]] = {}
        #: Folded hierarchies by (spec, cache capacity factor): bounded,
        #: like the model memos, by the candidate space.
        self._hierarchies: dict = {}

    # ------------------------------------------------------------------
    # Disk cache
    # ------------------------------------------------------------------
    def _design_key(
        self, workload: WorkloadParams, budget: float, method: str
    ) -> tuple:
        """Disk-cache key: everything that determines a search answer."""
        return (workload, self.catalog, self.space, self.options, budget, method)

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

        Raises ``ValueError`` for a query :class:`DesignQuery` rejects, or
        when no feasible parallel platform fits the budget (matching
        :func:`~repro.cost.optimizer.optimize_cluster`).
        """
        q = DesignQuery(workload, budget, method)
        method = q.method or self.method
        disk_key = self._design_key(workload, q.budget, method)
        cached = self._cached(disk_key)
        if cached is not None:
            return cached
        outcome = self._solve(workload, q.budget, self._candidates(q.budget), method)
        self._cache.store("design", disk_key, outcome)
        return outcome

    def run(self, queries: Sequence[DesignQuery]) -> list[SearchOutcome]:
        """Answer a batch of queries, in-process or on the pool.

        At ``jobs <= 1`` every uncached query is solved in-process,
        sharing the engine's evaluation and bound memos across queries
        (same-workload queries at different budgets overlap almost
        completely), so a wave costs roughly one query's evaluations and
        bounds instead of Q.  Otherwise the pool fans one query, with its
        candidates, per worker -- workers solve serially and cannot share
        the memos across processes.  Answers are identical either way
        (the memos only replay exact floats); cached answers never reach
        either path.  Results align with ``queries`` by position.
        """
        results: dict[int, SearchOutcome] = {}
        pending: list[tuple[int, DesignQuery, str, list, tuple]] = []
        for i, q in enumerate(queries):
            method = q.method or self.method
            disk_key = self._design_key(q.workload, q.budget, method)
            cached = self._cached(disk_key)
            if cached is not None:
                results[i] = cached
                continue
            pending.append((i, q, method, self._candidates(q.budget), disk_key))

        if not pending:
            return [results[i] for i in range(len(queries))]
        lane = "serial" if self._pool.jobs <= 1 else "pool"
        self._wave_lane_total.labels(lane=lane).inc()
        if lane == "serial":
            for i, q, method, candidates, disk_key in pending:
                outcome = self._solve(q.workload, q.budget, candidates, method)
                self._cache.store("design", disk_key, outcome)
                results[i] = outcome
            return [results[i] for i in range(len(queries))]

        def collect(t: int, value) -> None:
            i, q, _method, candidates, disk_key = pending[t]
            outcome = self._finish(q.workload, q.budget, candidates, *value)
            self._cache.store("design", disk_key, outcome)
            results[i] = outcome

        tasks = [
            (f"{q.workload.name}@${q.budget:,.0f}",
             (q.workload, candidates, self.options, method))
            for _i, q, method, candidates, _key in pending
        ]
        self._pool.run(_solve_query, tasks, collect)
        return [results[i] for i in range(len(queries))]

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _candidates(self, budget: float) -> list[tuple[int, PlatformSpec, float]]:
        """``(enumeration_index, spec, price)`` of every candidate priced
        within ``budget``, in enumeration order."""
        if self._enumeration is None:
            self._enumeration = [
                (i, spec, price)
                for i, (spec, price) in enumerate(
                    enumerate_configurations(math.inf, self.catalog, self.space)
                )
            ]
        return [c for c in self._enumeration if c[2] <= budget]

    def _solve(
        self,
        workload: WorkloadParams,
        budget: float,
        candidates: Sequence[tuple[int, PlatformSpec, float]],
        method: str,
    ) -> SearchOutcome:
        """Search ``candidates`` in-process, sharing the engine's memos."""
        # Re-insert the workload's memos last, then evict the least
        # recently searched workload beyond MEMO_WORKLOADS.
        seconds = self._seconds.pop(workload, {})
        bounds = self._bounds.pop(workload, {})
        self._seconds[workload] = seconds
        self._bounds[workload] = bounds
        if len(self._seconds) > MEMO_WORKLOADS:
            oldest = next(iter(self._seconds))
            del self._seconds[oldest], self._bounds[oldest]
        feasible, evaluated, memo_hits = _search_core(
            workload, candidates, self.options, method,
            seconds=seconds,
            bounds=bounds,
            hierarchies=self._hierarchies,
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
                spec=specs[index], price=price, e_instr_seconds=seconds
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
        ranked_from = stats.candidates - stats.pruned  # evaluated or memo hits
        if not ranked:
            raise ValueError(
                f"no feasible parallel platform fits ${budget:,.0f} "
                f"(evaluated {ranked_from} candidates)"
            )
        result = DesignResult(
            workload=workload,
            budget=budget,
            best=ranked[0],
            ranking=tuple(ranked),
            evaluated=ranked_from,
        )
        return SearchOutcome(
            result=result, stats=stats, frontier=pareto_frontier(ranked)
        )

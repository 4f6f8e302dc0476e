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
3. **Parallel drivers** — a single query can shard its candidate space
   over the PR-3 :class:`repro.pool.FaultTolerantPool` (a serial probe
   of the lowest-bound candidates seeds every shard's incumbent — the
   "incumbent exchange" — and each shard prunes independently; worker
   crashes retry and degrade to serial), and a *batch* of queries fans
   out one query per worker.  Results land in the ``.repro_cache/``
   disk cache keyed on (workload, catalog, space, options, budget,
   method), with the corrupt-entry quarantine the simulation cache uses.

Observability: ``design_candidates_total``, ``design_evaluations_total``,
``design_pruned_total``, ``design_memo_hits_total`` and
``repro_cache_lookups_total{kind="design"}`` count the work; the bench
harness (``benchmarks/bench_optimizer.py``) records the pruning ratio.
"""

from __future__ import annotations

import hashlib
import math
import os
import pickle
from bisect import bisect_right
from dataclasses import dataclass, field, replace
from pathlib import Path
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
from repro.ioutil import atomic_write_bytes
from repro.obs import metrics as obs_metrics
from repro.obs.log import get_logger
from repro.pool import FaultTolerantPool
from repro.workloads.params import WorkloadParams

__all__ = [
    "DESIGN_CACHE_VERSION",
    "DesignQuery",
    "DesignSearch",
    "SearchStats",
    "SearchOutcome",
    "pareto_frontier",
    "upgrade_path",
]

_log = get_logger("repro.cost.search")

#: Bump when the pickled :class:`SearchOutcome` layout or anything that
#: determines a search answer changes shape without changing the key.
#: 2: candidate spaces can enumerate topology mutations (rack_sizes /
#:    extra_platforms) and specs may carry a declarative topology tree.
#: 3: candidate spaces grew machine-mix axes (machine_speeds,
#:    mix_max_machines) and catalogs a speed premium, so a space or
#:    catalog with non-default values no longer collides with an old
#:    entry keyed before those fields existed.
DESIGN_CACHE_VERSION = 3

#: Lowest-bound candidates evaluated serially to seed shard incumbents.
_PROBE = 32
#: Top size of a vectorized evaluation chunk.  Pruning walks ramp up to
#: it geometrically from ``_FIRST_CHUNK`` so the incumbent is set after
#: a handful of lowest-bound evaluations, while large spaces still
#: amortize NumPy over full-size batches.
_CHUNK = 64
_FIRST_CHUNK = 8
#: Below this many candidates a single query is not worth sharding.
_MIN_SHARD_WORK = 128

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

    def __init__(self, seed: Iterable[tuple[float, float]] = ()) -> None:
        self._prices: list[float] = []
        self._seconds: list[float] = []
        for price, seconds in seed:
            self.add(price, seconds)

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
    seed_points: Sequence[tuple[float, float]] = (),
    memo: dict | None = None,
    chunk: int = _CHUNK,
    hierarchies: dict | None = None,
) -> tuple[list[tuple[int, float, float]], int, int]:
    """Prune-and-evaluate one candidate set; the engine's exact core.

    ``candidates`` is ``(enumeration_index, spec, price)`` triples;
    ``seed_points`` are (price, seconds) of configurations some other
    shard already evaluated (the incumbent exchange).  Returns
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
        incumbent = min((s for _, s in seed_points), default=math.inf)
        cursor = 0
        step = min(_FIRST_CHUNK, chunk)
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
            step = min(chunk, step * 2)
        return feasible, evaluated, memo_hits

    if method != "pareto":
        raise ValueError(f"unknown search method {method!r}; use one of {_METHODS}")
    front = _ParetoFront(seed_points)
    pending: list[int] = []
    step = min(_FIRST_CHUNK, chunk)

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
            step = min(chunk, step * 2)
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


def _solve_shard(args) -> tuple[list[tuple[int, float, float]], int, int, int]:
    """One shard of a single query: re-enumerate, keep my indices, search."""
    (workload, budget, catalog, space, options, method,
     shard, nshards, skip, seed_points, chunk) = args
    mine = [
        c for c in _materialize(budget, catalog, space)
        if c[0] not in skip and c[0] % nshards == shard
    ]
    feasible, evaluated, memo_hits = _search_core(
        workload, mine, options, method, seed_points=seed_points, chunk=chunk
    )
    return feasible, evaluated, memo_hits, len(mine)


def _solve_query(args):
    """One whole query of a batch: solved serially inside a worker."""
    workload, budget, catalog, space, options, method, chunk = args
    candidates = _materialize(budget, catalog, space)
    feasible, evaluated, memo_hits = _search_core(
        workload, candidates, options, method, chunk=chunk
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
        Worker processes.  ``1`` (default) stays in-process; more shards
        single queries and fans out batch queries via
        :class:`repro.pool.FaultTolerantPool` (retry / degrade-to-serial
        semantics included).  Each :meth:`run` wave is counted in
        ``design_wave_lane_total{lane}`` as ``serial`` or ``pool``.
    ``cache_dir``
        Optional ``.repro_cache`` root; answers are pickled under
        ``design/<sha256>.pkl`` keyed on everything that determines them.
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
        chunk: int = _CHUNK,
        metrics: obs_metrics.MetricsRegistry | None = None,
        max_retries: int = 2,
        retry_backoff: float = 0.25,
        query_timeout: float | None = None,
    ) -> None:
        if method not in _METHODS:
            raise ValueError(f"unknown search method {method!r}; use one of {_METHODS}")
        if chunk < 1:
            raise ValueError("chunk must be >= 1")
        self.catalog = catalog or DEFAULT_CATALOG
        self.space = space
        self.options = options or ModelOptions()
        self.method = method
        self.chunk = chunk
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
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
        self._cache_lookups = self.metrics.counter(
            "repro_cache_lookups_total",
            ".repro_cache disk lookups by kind (sim/char/sharing) and outcome",
            labelnames=("kind", "outcome"),
        )
        self._cache_corrupt = self.metrics.counter(
            "repro_cache_corrupt_total",
            "Corrupt .repro_cache entries quarantined and recomputed, by kind",
            labelnames=("kind",),
        )
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
    def _cache_path(
        self, workload: WorkloadParams, budget: float, method: str
    ) -> Path | None:
        if self.cache_dir is None:
            return None
        payload = repr((
            DESIGN_CACHE_VERSION, workload, self.catalog, self.space,
            self.options, float(budget), method,
        ))
        digest = hashlib.sha256(payload.encode()).hexdigest()
        return self.cache_dir / "design" / f"{digest}.pkl"

    def _cache_load(self, path: Path | None) -> SearchOutcome | None:
        if path is None:
            return None
        try:
            with open(path, "rb") as f:
                outcome = pickle.load(f)
        except FileNotFoundError:
            outcome = None
        except Exception as exc:  # quarantine garbage, never crash
            self._cache_corrupt.labels(kind="design").inc()
            qdir = self.cache_dir / "quarantine"
            try:
                qdir.mkdir(parents=True, exist_ok=True)
                os.replace(path, qdir / f"design-{path.name}")
            except OSError:
                try:
                    path.unlink()
                except OSError:
                    pass
            _log.warning(
                "quarantined corrupt design-cache entry",
                path=str(path), error=f"{type(exc).__name__}: {exc}",
            )
            outcome = None
        hit = isinstance(outcome, SearchOutcome)
        self._cache_lookups.labels(
            kind="design", outcome="hit" if hit else "miss"
        ).inc()
        return outcome if hit else None

    def _cache_store(self, path: Path | None, outcome: SearchOutcome) -> None:
        if path is None:
            return
        try:
            atomic_write_bytes(path, pickle.dumps(outcome))
        except OSError:
            pass  # a cold cache is only a slowdown

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def search(
        self,
        workload: WorkloadParams,
        budget: float,
        method: str | None = None,
    ) -> SearchOutcome:
        """Answer one (workload, budget) design question.

        With ``jobs > 1`` the candidate space is sharded over the pool:
        a serial probe of the lowest-bound candidates seeds every
        shard's incumbent, shards prune independently, and the parent
        merges their evaluated sets.  Raises ``ValueError`` when no
        feasible parallel platform fits the budget (matching
        :func:`~repro.cost.optimizer.optimize_cluster`).
        """
        method = self._check_method(method)
        path = self._cache_path(workload, budget, method)
        cached = self._cache_load(path)
        if cached is not None:
            return replace(cached, stats=replace(cached.stats, from_cache=True))

        candidates = _materialize(budget, self.catalog, self.space)
        jobs = self._pool.jobs
        if jobs <= 1 or len(candidates) < max(_MIN_SHARD_WORK, 2 * _PROBE):
            feasible, evaluated, memo_hits = _search_core(
                workload, candidates, self.options, method,
                memo=self._memo, chunk=self.chunk, hierarchies=self._hierarchies,
            )
        else:
            feasible, evaluated, memo_hits = self._search_sharded(
                workload, budget, candidates, method, jobs
            )
        outcome = self._finish(
            workload, budget, candidates, feasible, evaluated, memo_hits
        )
        self._cache_store(path, outcome)
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
        feasible, evaluated, memo_hits = _search_core(
            workload, candidates, self.options, method,
            memo=self._memo, chunk=self.chunk, hierarchies=self._hierarchies,
        )
        return self._finish(
            workload, budget, candidates, feasible, evaluated, memo_hits
        )

    def run(self, queries: Sequence[DesignQuery]) -> list[SearchOutcome]:
        """Answer a batch of queries, in-process or on the pool.

        At ``jobs <= 1`` every uncached query is solved in-process: the
        candidate enumeration is shared per budget and the evaluation
        memo is shared across queries (same-workload queries at
        different budgets overlap almost completely), so a wave costs
        roughly one query's evaluations instead of Q.  Otherwise the
        pool fans one query per worker -- workers solve serially
        (sharding and fan-out don't compose) and cannot share the memo
        across processes.  Answers are identical either way (the memo
        only replays exact floats); cached answers never reach either
        path.  Results align with ``queries`` by position.
        """
        results: dict[int, SearchOutcome] = {}
        tasks: list[tuple[str, object]] = []
        task_meta: list[tuple[int, DesignQuery, Path | None]] = []
        for i, q in enumerate(queries):
            method = self._check_method(q.method)
            path = self._cache_path(q.workload, q.budget, method)
            cached = self._cache_load(path)
            if cached is not None:
                results[i] = replace(
                    cached, stats=replace(cached.stats, from_cache=True)
                )
                continue
            tasks.append((
                f"{q.workload.name}@${q.budget:,.0f}",
                (q.workload, q.budget, self.catalog, self.space,
                 self.options, method, self.chunk),
            ))
            task_meta.append((i, q, path))

        if tasks:
            lane = "serial" if self._pool.jobs <= 1 else "pool"
            self._wave_lane_total.labels(lane=lane).inc()
            if lane == "serial":
                enum_memo: dict[float, list] = {}
                for (_desc, args), (i, q, path) in zip(tasks, task_meta):
                    workload, budget, _catalog, _space, options, method, chunk = args
                    key = float(budget)
                    if key not in enum_memo:
                        enum_memo[key] = _materialize(
                            budget, self.catalog, self.space
                        )
                    candidates = enum_memo[key]
                    feasible, evaluated, memo_hits = _search_core(
                        workload, candidates, options, method,
                        memo=self._memo, chunk=chunk,
                        hierarchies=self._hierarchies,
                    )
                    outcome = self._finish(
                        q.workload, q.budget, candidates, feasible,
                        evaluated, memo_hits,
                    )
                    self._cache_store(path, outcome)
                    results[i] = outcome
                return [results[i] for i in range(len(queries))]

        def collect(t: int, value) -> None:
            i, q, path = task_meta[t]
            feasible, evaluated, memo_hits, total = value
            candidates = _materialize(q.budget, self.catalog, self.space)
            outcome = self._finish(
                q.workload, q.budget, candidates, feasible, evaluated,
                memo_hits,
            )
            self._cache_store(path, outcome)
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

    def _search_sharded(
        self,
        workload: WorkloadParams,
        budget: float,
        candidates: list[tuple[int, PlatformSpec, float]],
        method: str,
        jobs: int,
    ) -> tuple[list[tuple[int, float, float]], int, int]:
        """Partitioned single-query search with seeded incumbents."""
        cases = [_case_for(spec, workload, self.options) for _, spec, _ in candidates]
        bounds = e_instr_lower_bounds(
            cases, workload.locality, workload.gamma,
            hierarchy_memo=self._hierarchies, **_bound_kwargs(self.options),
        )
        probe_positions = [int(p) for p in np.argsort(bounds, kind="stable")[:_PROBE]]
        probe = [candidates[p] for p in probe_positions]
        feasible, evaluated, memo_hits = _search_core(
            workload, probe, self.options,
            "exhaustive",  # the probe is tiny; evaluate it all
            memo=self._memo, chunk=self.chunk, hierarchies=self._hierarchies,
        )
        seed_points = tuple((price, seconds) for _, price, seconds in feasible)
        skip = frozenset(index for index, _, _ in probe)
        nshards = min(jobs, max(1, (len(candidates) - len(probe)) // self.chunk))
        tasks = [
            (
                f"{workload.name}@${budget:,.0f}#{shard}",
                (workload, budget, self.catalog, self.space, self.options,
                 method, shard, nshards, skip, seed_points, self.chunk),
            )
            for shard in range(nshards)
        ]
        merged = list(feasible)
        totals = [evaluated, memo_hits]

        def collect(_t: int, value) -> None:
            shard_feasible, shard_evaluated, shard_memo_hits, _size = value
            merged.extend(shard_feasible)
            totals[0] += shard_evaluated
            totals[1] += shard_memo_hits

        self._pool.run(_solve_shard, tasks, collect)
        return merged, totals[0], totals[1]

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

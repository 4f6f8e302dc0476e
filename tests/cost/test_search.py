"""The batched design search must answer exactly like enumeration.

Property tests over randomized price catalogs, candidate spaces and
budgets: every method returns the identical optimal configuration --
same spec, same price, bit-identical E(Instr) -- as exhaustive
enumeration, the default method returns its complete ranking, and
``method="pareto"`` returns the exact price/time frontier.  Plus unit
coverage of the one enumeration per engine, the disk cache (hits,
quarantine), the evaluation memo, the obs counters, and the
upgrade-path emitter.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.cost.catalog import PriceCatalog
from repro.cost.configspace import CandidateSpace, enumerate_configurations
from repro.cost.optimizer import ModelOptions, optimize_cluster
from repro.cost.search import (
    METHODS,
    DesignQuery,
    DesignSearch,
    SearchOutcome,
    _ParetoFront,
    pareto_frontier,
    upgrade_path,
)
from repro.core.platform import PlatformSpec
from repro.obs.metrics import MetricsRegistry
from repro.sim.latencies import NetworkKind
from repro.workloads.params import (
    PAPER_EDGE,
    PAPER_FFT,
    PAPER_LU,
    PAPER_RADIX,
    WorkloadParams,
)

SMALL_SPACE = CandidateSpace(
    max_machines=6, memory_mb_options=(32, 64), cache_kb_options=(256,)
)


def _random_catalog(rng: np.random.Generator) -> PriceCatalog:
    return PriceCatalog(
        workstation_base=float(rng.uniform(500, 2000)),
        smp_cpu=float(rng.uniform(800, 2500)),
        smp_chassis_per_socket=float(rng.uniform(500, 2500)),
        memory_per_mb=float(rng.uniform(0.5, 3.0)),
        cache_prices={256: float(rng.uniform(40, 150)), 512: float(rng.uniform(150, 400))},
        network_prices={
            NetworkKind.ETHERNET_10: float(rng.uniform(20, 90)),
            NetworkKind.ETHERNET_100: float(rng.uniform(90, 250)),
            NetworkKind.ATM_155: float(rng.uniform(250, 700)),
        },
    )


def _random_space(rng: np.random.Generator) -> CandidateSpace:
    extra = (int(rng.choice([2, 4])),) if rng.random() < 0.7 else ()
    return CandidateSpace(
        max_machines=int(rng.integers(3, 10)),
        processor_counts=(1, *extra),
        memory_mb_options=(32, 64),
        cache_kb_options=(256, 512),
    )


def _random_workload(rng: np.random.Generator, i: int) -> WorkloadParams:
    return WorkloadParams(
        name=f"w{i}",
        alpha=float(rng.uniform(1.15, 2.2)),
        beta=float(rng.uniform(20.0, 2000.0)),
        gamma=float(rng.uniform(0.1, 0.6)),
        max_distance=float(rng.uniform(1e4, 1e7)) if rng.random() < 0.5 else None,
        sharing_fraction=float(rng.choice([0.0, 0.2])),
        sharing_procs=4,
    )


def _random_query(seed: int):
    """``(catalog, space, workload, budget)`` of one randomized query."""
    rng = np.random.default_rng(5000 + seed)
    catalog = _random_catalog(rng)
    space = _random_space(rng)
    workload = _random_workload(rng, seed)
    return catalog, space, workload, float(rng.uniform(4_000, 40_000))


def _same_best(outcome: SearchOutcome, reference) -> None:
    assert outcome.best.spec == reference.best.spec
    assert outcome.best.price == reference.best.price
    assert outcome.best.e_instr_seconds == reference.best.e_instr_seconds


def _rows(ranking) -> list[tuple]:
    return [(r.spec, r.price, r.e_instr_seconds) for r in ranking]


class TestPrunedMatchesExhaustive:
    """Every method, pruning or not, answers like ``optimize_cluster``."""

    @pytest.mark.parametrize("seed", range(6))
    def test_randomized_catalogs_and_budgets(self, seed: int) -> None:
        catalog, space, workload, budget = _random_query(seed)
        try:
            exhaustive = optimize_cluster(
                workload, budget, catalog=catalog, space=space
            )
        except ValueError:  # budget drawn below this catalog's cheapest rig
            for method in METHODS:
                with pytest.raises(ValueError, match="no feasible"):
                    DesignSearch(
                        catalog, space, method=method, metrics=MetricsRegistry()
                    ).search(workload, budget)
            return
        for method in METHODS:
            engine = DesignSearch(
                catalog, space, method=method, metrics=MetricsRegistry()
            )
            outcome = engine.search(workload, budget)
            _same_best(outcome, exhaustive)
            assert outcome.stats.candidates == exhaustive.evaluated
            assert outcome.stats.evaluated <= outcome.stats.candidates

    @pytest.mark.parametrize("seed", range(6))
    def test_default_method_ranks_every_candidate(self, seed: int) -> None:
        catalog, space, workload, budget = _random_query(seed)
        reference = optimize_cluster(workload, budget, catalog=catalog, space=space)
        outcome = DesignSearch(
            catalog, space, metrics=MetricsRegistry()
        ).search(workload, budget)
        assert _rows(outcome.result.ranking) == _rows(reference.ranking)
        assert outcome.result.evaluated == reference.evaluated

    def test_default_ranking_names_the_true_runner_up(self) -> None:
        """EDGE at $8k over the default space ranks a 2-way SMP second."""
        ranking = DesignSearch(metrics=MetricsRegistry()).search(
            PAPER_EDGE, 8_000.0
        ).result.ranking
        assert ranking[1].spec.name == "1x(n=2, 256KB, 32MB)"

    def test_paper_workloads_prune_and_agree(self) -> None:
        for workload in (PAPER_FFT, PAPER_LU, PAPER_RADIX, PAPER_EDGE):
            exhaustive = optimize_cluster(workload, 20_000.0)
            engine = DesignSearch(method="pareto", metrics=MetricsRegistry())
            outcome = engine.search(workload, 20_000.0)
            _same_best(outcome, exhaustive)
            assert outcome.stats.pruned > 0, "default space should prune"

    def test_infeasible_budget_raises_like_optimizer(self) -> None:
        engine = DesignSearch(space=SMALL_SPACE, metrics=MetricsRegistry())
        with pytest.raises(ValueError, match="no feasible"):
            engine.search(PAPER_LU, 100.0)
        with pytest.raises(ValueError, match="budget must be positive"):
            engine.search(PAPER_LU, -5.0)


class TestParetoFrontier:
    @pytest.mark.parametrize("seed", range(4))
    def test_pareto_method_keeps_exact_frontier(self, seed: int) -> None:
        rng = np.random.default_rng(7000 + seed)
        catalog = _random_catalog(rng)
        space = _random_space(rng)
        workload = _random_workload(rng, seed)
        budget = float(rng.uniform(6_000, 30_000))
        try:
            exhaustive = optimize_cluster(
                workload, budget, catalog=catalog, space=space
            )
        except ValueError:
            pytest.skip("budget drawn below this catalog's cheapest rig")
        truth = pareto_frontier(exhaustive.ranking)
        outcome = DesignSearch(
            catalog, space, method="pareto", metrics=MetricsRegistry()
        ).search(workload, budget)
        got = outcome.frontier
        assert [(r.spec, r.price, r.e_instr_seconds) for r in got] == [
            (r.spec, r.price, r.e_instr_seconds) for r in truth
        ]

    def test_frontier_is_clean(self) -> None:
        outcome = DesignSearch(
            space=SMALL_SPACE, method="pareto", metrics=MetricsRegistry()
        ).search(PAPER_EDGE, 15_000.0)
        prices = [r.price for r in outcome.frontier]
        times = [r.e_instr_seconds for r in outcome.frontier]
        assert prices == sorted(prices)
        assert times == sorted(times, reverse=True)
        assert outcome.frontier[-1].e_instr_seconds == outcome.best.e_instr_seconds

    def test_running_front_structure(self) -> None:
        front = _ParetoFront()
        assert front.min_seconds_at(1e9) == math.inf
        front.add(100.0, 5.0)
        front.add(200.0, 7.0)  # dearer and slower: ignored
        front.add(200.0, 3.0)
        front.add(50.0, 2.0)  # cheaper and faster: supersedes everything
        assert front.points() == [(50.0, 2.0)]
        assert front.min_seconds_at(49.0) == math.inf
        assert front.min_seconds_at(60.0) == 2.0

    def test_upgrade_path_grows_monotonically(self) -> None:
        outcome = DesignSearch(
            method="pareto", metrics=MetricsRegistry()
        ).search(PAPER_LU, 25_000.0)
        path = upgrade_path(outcome.frontier)
        assert path, "frontier is non-empty, so is the path"
        for earlier, later in zip(path, path[1:]):
            assert later.price >= earlier.price
            assert later.e_instr_seconds < earlier.e_instr_seconds
            assert later.spec.n >= earlier.spec.n
            assert later.spec.N >= earlier.spec.N
            assert later.spec.cache_bytes >= earlier.spec.cache_bytes
            assert later.spec.memory_bytes >= earlier.spec.memory_bytes


class TestParallelSharding:
    def test_batch_queries_match_single_queries(self) -> None:
        queries = [
            DesignQuery(PAPER_LU, 8_000.0),
            DesignQuery(PAPER_EDGE, 12_000.0),
            DesignQuery(PAPER_LU, 20_000.0),
        ]
        engine = DesignSearch(
            space=SMALL_SPACE, jobs=2, metrics=MetricsRegistry()
        )
        batch = engine.run(queries)
        assert len(batch) == 3
        for q, outcome in zip(queries, batch):
            single = DesignSearch(
                space=SMALL_SPACE, metrics=MetricsRegistry()
            ).search(q.workload, q.budget)
            _same_best(outcome, single)


class TestCachesAndMetrics:
    def test_disk_cache_round_trip(self, tmp_path) -> None:
        registry = MetricsRegistry()
        engine = DesignSearch(
            space=SMALL_SPACE, cache_dir=tmp_path, metrics=registry
        )
        first = engine.search(PAPER_LU, 9_000.0)
        assert not first.stats.from_cache
        second = DesignSearch(
            space=SMALL_SPACE, cache_dir=tmp_path, metrics=registry
        ).search(PAPER_LU, 9_000.0)
        assert second.stats.from_cache
        _same_best(second, first)
        lookups = registry.get("repro_cache_lookups_total")
        assert lookups.labels(kind="design", outcome="hit").value == 1
        assert lookups.labels(kind="design", outcome="miss").value == 1

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_batch_answers_round_trip_the_disk_cache(self, tmp_path, jobs) -> None:
        queries = [DesignQuery(PAPER_LU, 8_000.0), DesignQuery(PAPER_EDGE, 12_000.0)]
        cold = DesignSearch(
            space=SMALL_SPACE, jobs=jobs, cache_dir=tmp_path, metrics=MetricsRegistry()
        ).run(queries)
        warm_engine = DesignSearch(
            space=SMALL_SPACE, cache_dir=tmp_path, metrics=MetricsRegistry()
        )
        warm = warm_engine.run(queries)
        assert all(o.stats.from_cache for o in warm)
        for fresh, cached in zip(cold, warm):
            _same_best(cached, fresh)
        assert warm_engine.search(PAPER_LU, 8_000.0).stats.from_cache

    def test_corrupt_cache_entry_quarantined(self, tmp_path) -> None:
        registry = MetricsRegistry()
        engine = DesignSearch(
            space=SMALL_SPACE, cache_dir=tmp_path, metrics=registry
        )
        first = engine.search(PAPER_LU, 9_000.0)
        [entry] = list((tmp_path / "design").glob("*.pkl"))
        entry.write_bytes(b"not a pickle")
        again = DesignSearch(
            space=SMALL_SPACE, cache_dir=tmp_path, metrics=registry
        ).search(PAPER_LU, 9_000.0)
        assert not again.stats.from_cache
        _same_best(again, first)
        assert registry.get("repro_cache_corrupt_total").labels(kind="design").value == 1
        assert list((tmp_path / "quarantine").glob("design-*.pkl"))

    def test_memo_reused_across_budgets(self) -> None:
        registry = MetricsRegistry()
        engine = DesignSearch(
            space=SMALL_SPACE, method="exhaustive", metrics=registry
        )
        engine.search(PAPER_LU, 9_000.0)
        hits_before = registry.get("design_memo_hits_total").value
        engine.search(PAPER_LU, 12_000.0)  # superset of the same candidates
        assert registry.get("design_memo_hits_total").value > hits_before

    def test_engine_folds_each_platform_once(self, monkeypatch) -> None:
        """The engine's hierarchy memo: one fold per distinct platform
        across every query, bound and evaluation, answers unchanged."""
        queries = [
            DesignQuery(w, b)
            for w in (PAPER_LU, PAPER_FFT)
            for b in (6_000.0, 9_000.0, 12_000.0)
        ]
        expected = DesignSearch(
            space=SMALL_SPACE, method="pareto", metrics=MetricsRegistry()
        ).run(queries)
        folds = []
        real = PlatformSpec.hierarchy

        def counting(spec, *args, **kwargs):
            folds.append(spec)
            return real(spec, *args, **kwargs)

        monkeypatch.setattr(PlatformSpec, "hierarchy", counting)
        engine = DesignSearch(space=SMALL_SPACE, method="pareto", metrics=MetricsRegistry())
        got = engine.run(queries)
        got.append(engine.search(PAPER_EDGE, 9_000.0))
        distinct = {
            spec
            for b in (6_000.0, 9_000.0, 12_000.0)
            for spec, _ in enumerate_configurations(b, engine.catalog, SMALL_SPACE)
        }
        assert sorted(folds, key=repr) == sorted(distinct, key=repr)
        for outcome, reference in zip(got, expected):
            _same_best(outcome, reference)
            assert outcome.frontier == reference.frontier

    def test_one_enumeration_per_engine(self, monkeypatch) -> None:
        """Every budget of every query is a price mask over the engine's
        one enumeration; a pooled wave ships each query its candidates."""
        import repro.cost.search as search

        calls = []
        real = search.enumerate_configurations

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(search, "enumerate_configurations", counting)
        queries = [
            DesignQuery(PAPER_LU, 6_000.0),
            DesignQuery(PAPER_EDGE, 9_000.0),
            DesignQuery(PAPER_LU, 12_000.0),
            DesignQuery(PAPER_EDGE, 6_000.0),
        ]
        engine = DesignSearch(space=SMALL_SPACE, metrics=MetricsRegistry())
        engine.search(PAPER_LU, 8_000.0)
        engine.search(PAPER_FFT, 15_000.0)
        engine.run(queries)
        assert len(calls) == 1
        DesignSearch(space=SMALL_SPACE, jobs=2, metrics=MetricsRegistry()).run(queries)
        assert len(calls) == 2

    def test_result_counts_memo_served_candidates(self) -> None:
        """The result header counts the candidates its ranking was built
        from, memo hits included, as ``optimize_cluster`` does."""
        engine = DesignSearch(method="exhaustive", metrics=MetricsRegistry())
        _, second = engine.run(
            [DesignQuery(PAPER_EDGE, 8_000.0), DesignQuery(PAPER_EDGE, 9_000.0)]
        )
        assert second.stats.memo_hits > 0
        assert second.result.evaluated == second.stats.candidates
        assert f"({second.stats.candidates} candidates)" in second.result.describe()

    def test_memo_never_crosses_workloads(self) -> None:
        """Regression: the evaluation memo must key on the workload's
        locality/gamma, not just the candidate's spec and sharing
        parameters.  Two workloads differing only in locality share
        every candidate and every sharing parameter; a shared engine
        must still answer exactly like a fresh one."""
        from dataclasses import replace

        other = replace(PAPER_LU, name="LU-bigbeta", beta=PAPER_LU.beta * 4)
        shared = DesignSearch(space=SMALL_SPACE, metrics=MetricsRegistry())
        shared.search(PAPER_LU, 9_000.0)  # warms the memo with PAPER_LU
        polluted = shared.search(other, 9_000.0)
        fresh = DesignSearch(
            space=SMALL_SPACE, metrics=MetricsRegistry()
        ).search(other, 9_000.0)
        assert polluted.best.spec == fresh.best.spec
        assert polluted.best.e_instr_seconds == fresh.best.e_instr_seconds

    def test_counters_add_up(self) -> None:
        registry = MetricsRegistry()
        outcome = DesignSearch(
            space=SMALL_SPACE, metrics=registry
        ).search(PAPER_RADIX, 10_000.0)
        stats = outcome.stats
        assert stats.candidates == stats.evaluated + stats.pruned + stats.memo_hits
        assert registry.get("design_candidates_total").value == stats.candidates
        assert registry.get("design_evaluations_total").value == stats.evaluated
        assert registry.get("design_pruned_total").value == stats.pruned
        assert 0.0 <= stats.pruning_ratio <= 1.0


class TestWorkloadMemos:
    """The engine memoises E(Instr) and the lower bound per workload, by
    enumeration index: entries never cross workloads, and a budget sweep
    computes each candidate's bound once."""

    @pytest.mark.parametrize("method", METHODS)
    def test_near_twin_workloads_answer_like_fresh_engines(self, method) -> None:
        from dataclasses import replace

        twins = [
            PAPER_LU,
            replace(PAPER_LU, sharing_fraction=0.2),
            replace(PAPER_LU, sharing_procs=8),
            replace(PAPER_LU, sharing_fresh_fraction=0.5),
            replace(PAPER_LU, max_distance=4 * PAPER_LU.max_distance),
        ]
        shared = DesignSearch(space=SMALL_SPACE, method=method, metrics=MetricsRegistry())
        for budget in (12_000.0, 6_000.0, 9_000.0):
            for workload in twins:
                warm = shared.search(workload, budget)
                fresh = DesignSearch(
                    space=SMALL_SPACE, method=method, metrics=MetricsRegistry()
                ).search(workload, budget)
                assert _rows(warm.result.ranking) == _rows(fresh.result.ranking)
                assert warm.frontier == fresh.frontier
                assert warm.stats.pruned == fresh.stats.pruned

    def test_pareto_sweep_bounds_each_candidate_once(self, monkeypatch) -> None:
        import repro.cost.search as search

        lanes = []
        real = search.e_instr_lower_bounds

        def counting(cases, *args, **kwargs):
            lanes.extend(case.spec for case in cases)
            return real(cases, *args, **kwargs)

        monkeypatch.setattr(search, "e_instr_lower_bounds", counting)
        budgets = (9_000.0, 6_000.0, 20_000.0, 12_000.0)
        engine = DesignSearch(space=SMALL_SPACE, method="pareto", metrics=MetricsRegistry())
        got = engine.run([DesignQuery(PAPER_LU, b) for b in budgets])
        distinct = [
            spec for spec, _ in enumerate_configurations(max(budgets), engine.catalog, SMALL_SPACE)
        ]
        assert sorted(lanes, key=repr) == sorted(distinct, key=repr)
        for outcome, budget in zip(got, budgets):
            fresh = DesignSearch(
                space=SMALL_SPACE, method="pareto", metrics=MetricsRegistry()
            ).search(PAPER_LU, budget)
            assert _rows(outcome.result.ranking) == _rows(fresh.result.ranking)
            assert outcome.frontier == fresh.frontier

    @pytest.mark.parametrize("method", METHODS)
    def test_memos_keep_only_the_most_recent_workloads(self, method) -> None:
        """A long-lived engine keeps the memos of the MEMO_WORKLOADS most
        recently searched workloads; an evicted workload is recomputed
        and answers like a fresh engine."""
        from dataclasses import replace

        from repro.cost.search import MEMO_WORKLOADS

        custom = [
            replace(PAPER_LU, name=f"custom-{i}", beta=PAPER_LU.beta * (1.0 + i / 8))
            for i in range(20)
        ]
        engine = DesignSearch(space=SMALL_SPACE, method=method, metrics=MetricsRegistry())
        for workload in custom:
            engine.search(workload, 9_000.0)
        recent = custom[-MEMO_WORKLOADS:]
        assert list(engine._seconds) == list(engine._bounds) == recent
        assert all(engine._seconds[w] for w in recent)
        # A search refreshes its workload: the oldest kept one survives
        # the next new workload, the second oldest is evicted instead.
        again = engine.search(recent[0], 12_000.0)
        assert again.stats.memo_hits > 0
        engine.search(custom[0], 9_000.0)
        assert recent[0] in engine._seconds and recent[1] not in engine._seconds
        assert len(engine._seconds) == len(engine._bounds) == MEMO_WORKLOADS
        for workload, budget in ((custom[0], 9_000.0), (recent[1], 12_000.0),
                                 (recent[0], 12_000.0)):
            warm = engine.search(workload, budget)
            fresh = DesignSearch(
                space=SMALL_SPACE, method=method, metrics=MetricsRegistry()
            ).search(workload, budget)
            assert _rows(warm.result.ranking) == _rows(fresh.result.ranking)
            assert warm.frontier == fresh.frontier

    def test_mixed_workload_on_a_warm_engine_matches_optimize_cluster(self) -> None:
        from repro.workloads.mix import mix_workloads

        mixed = mix_workloads([PAPER_FFT, PAPER_LU], [0.6, 0.4], name="FFT+LU")
        engine = DesignSearch(space=SMALL_SPACE, metrics=MetricsRegistry())
        for workload in (PAPER_FFT, PAPER_LU, mixed):
            engine.search(workload, 9_000.0)
        reference = optimize_cluster(mixed, 12_000.0, space=SMALL_SPACE)
        outcome = engine.search(mixed, 12_000.0)
        assert outcome.stats.memo_hits > 0
        assert _rows(outcome.result.ranking) == _rows(reference.ranking)
        assert outcome.frontier == pareto_frontier(reference.ranking)


class TestValidation:
    def test_bad_method_rejected(self) -> None:
        engine = DesignSearch(metrics=MetricsRegistry())
        for method in ("genetic", "pruned"):
            with pytest.raises(ValueError, match="unknown search method"):
                DesignSearch(method=method, metrics=MetricsRegistry())
            with pytest.raises(ValueError, match="unknown search method"):
                engine.search(PAPER_LU, 9_000.0, method=method)

    def test_pool_knobs_validated(self) -> None:
        with pytest.raises(ValueError, match="jobs must be >= 1"):
            DesignSearch(jobs=0, metrics=MetricsRegistry())

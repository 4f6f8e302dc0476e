"""Tests for the budget and upgrade optimizers (paper Eq. 6)."""

import pytest

from repro.core.platform import PlatformSpec
from repro.cost.configspace import CandidateSpace
from repro.cost.optimizer import ModelOptions, optimize_cluster, optimize_upgrade
from repro.sim.latencies import NetworkKind
from repro.workloads.params import PAPER_EDGE, PAPER_LU, PAPER_RADIX, PAPER_TPCC

KB, MB = 1024, 1024 * 1024

SMALL_SPACE = CandidateSpace(
    max_machines=6, memory_mb_options=(32, 64), cache_kb_options=(256,)
)


class TestOptimizeCluster:
    def test_best_is_the_minimum(self):
        res = optimize_cluster(PAPER_LU, 8_000.0, space=SMALL_SPACE)
        assert res.best.e_instr_seconds == min(r.e_instr_seconds for r in res.ranking)
        assert res.best.price <= 8_000.0

    def test_ranking_sorted(self):
        res = optimize_cluster(PAPER_EDGE, 10_000.0, space=SMALL_SPACE)
        times = [r.e_instr_seconds for r in res.ranking]
        assert times == sorted(times)

    def test_bigger_budget_never_worse(self):
        small = optimize_cluster(PAPER_RADIX, 6_000.0, space=SMALL_SPACE)
        big = optimize_cluster(PAPER_RADIX, 30_000.0, space=SMALL_SPACE)
        assert big.best.e_instr_seconds <= small.best.e_instr_seconds

    def test_impossible_budget_raises(self):
        with pytest.raises(ValueError, match="no feasible"):
            optimize_cluster(PAPER_LU, 100.0, space=SMALL_SPACE)

    def test_radix_prefers_smp_when_affordable(self):
        """Paper Section 6: Radix (memory bound, poor locality) -> SMP."""
        res = optimize_cluster(PAPER_RADIX, 20_000.0)
        assert res.best.spec.kind.value == "a single SMP"

    def test_tpcc_prefers_smp(self):
        res = optimize_cluster(PAPER_TPCC, 20_000.0)
        assert res.best.spec.N == 1

    def test_describe(self):
        res = optimize_cluster(PAPER_LU, 8_000.0, space=SMALL_SPACE)
        text = res.describe(top=2)
        assert "optimal platform" in text and "<== best" in text

    def test_cost_performance_metric(self):
        res = optimize_cluster(PAPER_LU, 8_000.0, space=SMALL_SPACE)
        r = res.ranking[0]
        assert r.cost_performance == pytest.approx(r.price * r.e_instr_seconds)


class TestOptimizeUpgrade:
    CURRENT = PlatformSpec(
        name="current", n=1, N=2, cache_bytes=256 * KB, memory_bytes=32 * MB,
        network=NetworkKind.ETHERNET_10,
    )

    def test_candidates_contain_the_current_cluster(self):
        res = optimize_upgrade(PAPER_LU, self.CURRENT, 3_000.0, space=SMALL_SPACE)
        for r in res.ranking:
            assert r.spec.N >= 2
            assert r.spec.cache_bytes >= 256 * KB
            assert r.spec.memory_bytes >= 32 * MB

    def test_upgrade_never_slower_than_current(self):
        res = optimize_upgrade(PAPER_EDGE, self.CURRENT, 2_000.0, space=SMALL_SPACE)
        assert res.best.e_instr_seconds <= res.current.e_instr_seconds
        assert res.speedup >= 1.0

    def test_spend_cap_respected(self):
        res = optimize_upgrade(PAPER_LU, self.CURRENT, 1_000.0, space=SMALL_SPACE)
        assert res.best.price <= res.current.price + 1_000.0 + 1e-9

    def test_zero_increase_keeps_something_feasible(self):
        res = optimize_upgrade(PAPER_LU, self.CURRENT, 0.0, space=SMALL_SPACE)
        assert res.best.e_instr_seconds <= res.current.e_instr_seconds

    def test_negative_increase_rejected(self):
        with pytest.raises(ValueError):
            optimize_upgrade(PAPER_LU, self.CURRENT, -1.0)

    def test_unpriceable_current_rejected_up_front(self):
        odd = PlatformSpec(
            name="odd-cache", n=1, N=2, cache_bytes=128 * KB,
            memory_bytes=32 * MB, network=NetworkKind.ETHERNET_10,
        )
        with pytest.raises(ValueError, match="cannot be priced"):
            optimize_upgrade(PAPER_LU, odd, 1_000.0, space=SMALL_SPACE)

    def test_describe(self):
        res = optimize_upgrade(PAPER_LU, self.CURRENT, 2_000.0, space=SMALL_SPACE)
        assert "upgrade for LU" in res.describe()


class TestModelOptions:
    def test_sharing_toggle_changes_cluster_prediction(self):
        on = optimize_cluster(
            PAPER_RADIX, 8_000.0, space=SMALL_SPACE, options=ModelOptions(use_sharing=True)
        )
        off = optimize_cluster(
            PAPER_RADIX, 8_000.0, space=SMALL_SPACE, options=ModelOptions(use_sharing=False)
        )
        # with sharing off, clusters look faster than they are
        assert off.best.e_instr_seconds <= on.best.e_instr_seconds


class TestOptimizerProperties:
    def test_upgrade_monotone_in_budget_increase(self):
        current = PlatformSpec(
            name="cur", n=1, N=2, cache_bytes=256 * KB, memory_bytes=32 * MB,
            network=NetworkKind.ETHERNET_10,
        )
        results = [
            optimize_upgrade(PAPER_RADIX, current, inc, space=SMALL_SPACE)
            for inc in (0.0, 1_000.0, 3_000.0, 10_000.0)
        ]
        times = [r.best.e_instr_seconds for r in results]
        assert times == sorted(times, reverse=True)

    def test_design_best_never_beaten_by_any_candidate(self):
        from repro.cost.configspace import enumerate_configurations
        from repro.cost.optimizer import ModelOptions, _predict

        budget = 9_000.0
        res = optimize_cluster(PAPER_EDGE, budget, space=SMALL_SPACE)
        options = ModelOptions()
        for spec, price in enumerate_configurations(budget, space=SMALL_SPACE):
            est = _predict(spec, PAPER_EDGE, options)
            assert res.best.e_instr_seconds <= est.e_instr_seconds + 1e-18

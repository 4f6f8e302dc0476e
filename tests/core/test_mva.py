"""Tests for the exact MVA solver and its AMAT adapter."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.locality import StackDistanceModel
from repro.core.mva import MvaCenter, mva_smp_amat, solve_mva
from repro.core.platform import PlatformSpec
from repro.sim.latencies import ITEM_BYTES, NetworkKind
from repro.topology.build import build_hierarchy
from repro.topology.canned import smp_topology

LOC = StackDistanceModel(alpha=2.5, beta=5.0)


class TestSolver:
    def test_single_customer_no_queueing(self):
        """With one customer, response equals bare service."""
        centers = [MvaCenter("m", service=50.0, visit_ratio=0.1)]
        sol = solve_mva(centers, population=1, think_time=10.0)
        assert sol.response_times[0] == pytest.approx(50.0)
        assert sol.throughput == pytest.approx(1.0 / (10.0 + 0.1 * 50.0))

    def test_interactive_response_time_law(self):
        """X * (Z + sum v R) == k exactly (the MVA identity)."""
        centers = [
            MvaCenter("bus", service=50.0, visit_ratio=0.08),
            MvaCenter("disk", service=2000.0, visit_ratio=0.001),
        ]
        for k in (1, 2, 4, 8):
            sol = solve_mva(centers, population=k, think_time=5.0)
            cycle = sol.think_time + sum(
                c.visit_ratio * r for c, r in zip(sol.centers, sol.response_times)
            )
            assert sol.throughput * cycle == pytest.approx(k)

    def test_littles_law_at_each_center(self):
        centers = [MvaCenter("bus", service=50.0, visit_ratio=0.08)]
        sol = solve_mva(centers, population=4, think_time=5.0)
        assert sol.queue_lengths[0] == pytest.approx(
            sol.throughput * centers[0].visit_ratio * sol.response_times[0]
        )

    def test_utilization_never_exceeds_one(self):
        centers = [MvaCenter("bus", service=50.0, visit_ratio=0.5)]
        for k in (1, 2, 8, 32):
            sol = solve_mva(centers, population=k, think_time=1.0)
            assert sol.utilization(0) <= 1.0 + 1e-9

    def test_throughput_saturates_at_bottleneck(self):
        """X -> 1 / (v * s) of the bottleneck as population grows."""
        centers = [MvaCenter("bus", service=50.0, visit_ratio=0.2)]
        sol = solve_mva(centers, population=64, think_time=1.0)
        assert sol.throughput == pytest.approx(1.0 / (0.2 * 50.0), rel=0.02)

    @given(
        k=st.integers(min_value=1, max_value=16),
        s=st.floats(min_value=1.0, max_value=500.0),
        v=st.floats(min_value=0.001, max_value=0.5),
        z=st.floats(min_value=0.0, max_value=100.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_monotone_in_population(self, k, s, v, z):
        """More customers: higher throughput, never lower."""
        centers = [MvaCenter("c", service=s, visit_ratio=v)]
        a = solve_mva(centers, k, z).throughput
        b = solve_mva(centers, k + 1, z).throughput
        assert b >= a - 1e-12

    def test_validation(self):
        with pytest.raises(ValueError):
            solve_mva([MvaCenter("c", 1.0, 0.1)], population=0, think_time=1.0)
        with pytest.raises(ValueError):
            solve_mva([MvaCenter("c", 1.0, 0.1)], population=1, think_time=-1.0)
        with pytest.raises(ValueError):
            MvaCenter("c", -1.0, 0.1)


class TestSmpAmat:
    def _h(self, n=2):
        # n = 1 is the uniprocessor baseline, which is not a PlatformSpec
        # (a 1x1 shape is rejected), so fold the canned tree directly.
        return build_hierarchy(smp_topology(n, 64, 4096))

    def test_single_processor_matches_open_model(self):
        """At n = 1 both treatments are contention-free and equal."""
        from repro.core.amat import average_memory_access_time

        h = self._h(n=1)
        open_t = average_memory_access_time(h, LOC, gamma=0.3).total_cycles
        mva_t = mva_smp_amat(h, LOC, gamma=0.3)
        assert mva_t == pytest.approx(open_t, rel=1e-9)

    def test_contention_grows_with_processors(self):
        t2 = mva_smp_amat(self._h(n=2), LOC, gamma=0.3, barrier_scale=0.0)
        t8 = mva_smp_amat(self._h(n=8), LOC, gamma=0.3, barrier_scale=0.0)
        # per-process tails shrink with rescaling, but bus queueing grows;
        # compare against the contention-free baseline instead
        from repro.core.amat import average_memory_access_time

        free8 = average_memory_access_time(
            self._h(n=8), LOC, gamma=0.3, barrier_scale=0.0, contention_boost=1.0
        )
        assert t8 >= free8.base_cycles

    def test_mva_finite_where_open_saturates(self):
        """The closed network cannot saturate -- its population is finite."""
        heavy = StackDistanceModel(alpha=1.2, beta=500.0)
        h = self._h(n=4)
        from repro.core.amat import average_memory_access_time

        assert average_memory_access_time(h, heavy, gamma=0.5).saturated
        assert mva_smp_amat(h, heavy, gamma=0.5) < float("inf")

    def test_mva_between_free_and_open(self):
        """Closed-network response sits above the contention-free time."""
        h = self._h(n=4)
        free = 1.0 + sum(
            float(LOC.rescaled(4).tail(lv.boundary_items)) * lv.tau_cycles
            for lv in h.levels
        )
        t = mva_smp_amat(h, LOC, gamma=0.3, barrier_scale=0.0)
        assert t >= free - 1e-9

    def test_rejects_clusters(self):
        h = PlatformSpec(
            "cow", n=1, N=4, cache_bytes=64 * ITEM_BYTES,
            memory_bytes=4096 * ITEM_BYTES, network=NetworkKind.ATM_155,
        ).hierarchy()
        with pytest.raises(ValueError, match="machine-local"):
            mva_smp_amat(h, LOC, gamma=0.3)

    def test_gamma_validation(self):
        with pytest.raises(ValueError):
            mva_smp_amat(self._h(), LOC, gamma=0.0)


class TestEvaluateMvaMode:
    def test_smp_uses_exact_mva(self):
        from repro.core.execution import evaluate
        from repro.core.platform import PlatformSpec

        spec = PlatformSpec(name="m", n=2, N=1, cache_bytes=4 * 1024, memory_bytes=256 * 1024)
        est = evaluate(spec, LOC, gamma=0.3, mode="mva")
        expected = mva_smp_amat(spec.hierarchy(), LOC, gamma=0.3)
        assert est.amat.total_cycles == pytest.approx(expected)
        assert est.feasible
        assert est.amat.levels == ()  # aggregate-only breakdown

    def test_cluster_falls_back_to_throttled(self):
        from repro.core.execution import evaluate
        from repro.core.platform import PlatformSpec

        spec = PlatformSpec(
            name="m", n=1, N=4, cache_bytes=4 * 1024, memory_bytes=256 * 1024,
            network=NetworkKind.ATM_155,
        )
        a = evaluate(spec, LOC, gamma=0.3, mode="mva")
        b = evaluate(spec, LOC, gamma=0.3, mode="throttled")
        assert a.e_instr_seconds == pytest.approx(b.e_instr_seconds)

    def test_cache_capacity_factor_applies_to_mva(self):
        from repro.core.execution import evaluate
        from repro.core.platform import PlatformSpec

        spec = PlatformSpec(name="m", n=2, N=1, cache_bytes=4 * 1024, memory_bytes=256 * 1024)
        full = evaluate(spec, LOC, gamma=0.3, mode="mva")
        half = evaluate(spec, LOC, gamma=0.3, mode="mva", cache_capacity_factor=0.5)
        assert half.e_instr_seconds > full.e_instr_seconds

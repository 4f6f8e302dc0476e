"""Tests for the optional shared-L2 extension (model and simulator)."""

import numpy as np
import pytest

from repro.core.execution import evaluate
from repro.core.hierarchy import LevelKind
from repro.core.locality import StackDistanceModel
from repro.core.platform import PlatformSpec
from repro.sim.backends import make_backend
from repro.sim.latencies import NetworkKind

KB = 1024
LOC = StackDistanceModel(alpha=2.5, beta=5.0)


def _smp_l2(n=2):
    return PlatformSpec(
        name="l2-smp", n=n, N=1, cache_bytes=2 * KB, memory_bytes=256 * KB,
        l2_bytes=16 * KB,
    )


class TestSpec:
    def test_l2_items(self):
        assert _smp_l2().l2_items == 16 * KB // 64

    def test_l2_must_sit_between_cache_and_memory(self):
        with pytest.raises(ValueError, match="l2_bytes"):
            PlatformSpec(
                name="x", n=2, N=1, cache_bytes=2 * KB, memory_bytes=256 * KB,
                l2_bytes=1 * KB,
            )
        with pytest.raises(ValueError, match="l2_bytes"):
            PlatformSpec(
                name="x", n=2, N=1, cache_bytes=2 * KB, memory_bytes=256 * KB,
                l2_bytes=512 * KB,
            )


class TestModelSide:
    def test_hierarchy_gains_a_level(self):
        without = PlatformSpec(
            name="x", n=2, N=1, cache_bytes=2 * KB, memory_bytes=256 * KB
        ).hierarchy()
        with_l2 = _smp_l2().hierarchy()
        assert with_l2.length == without.length + 1
        l2 = [lv for lv in with_l2.levels if lv.kind is LevelKind.L2_CACHE]
        assert len(l2) == 1
        assert l2[0].tau_cycles == 10
        # the memory level's boundary moves out to the L2 capacity
        mem = [lv for lv in with_l2.levels if lv.kind is LevelKind.LOCAL_MEMORY][0]
        assert mem.boundary_items == 16 * KB // 64

    def test_l2_reduces_modeled_time(self):
        base = PlatformSpec(name="x", n=2, N=1, cache_bytes=2 * KB, memory_bytes=256 * KB)
        t0 = evaluate(base, LOC, gamma=0.3, mode="throttled").e_instr_seconds
        t1 = evaluate(_smp_l2(), LOC, gamma=0.3, mode="throttled").e_instr_seconds
        assert t1 < t0

    def test_cow_and_clump_accept_l2(self):
        cow = PlatformSpec(
            name="c", n=1, N=2, cache_bytes=2 * KB, memory_bytes=256 * KB,
            l2_bytes=16 * KB, network=NetworkKind.ATM_155,
        )
        clump = PlatformSpec(
            name="k", n=2, N=2, cache_bytes=2 * KB, memory_bytes=256 * KB,
            l2_bytes=16 * KB, network=NetworkKind.ATM_155,
        )
        for spec in (cow, clump):
            kinds = [lv.kind for lv in spec.hierarchy().levels]
            assert LevelKind.L2_CACHE in kinds


class TestSimulatorSide:
    def test_l2_hit_cheaper_than_memory(self):
        spec = _smp_l2()
        b = make_backend(spec, np.zeros(10_000, dtype=np.int64))
        b.memory.access(0)  # pre-fault the page
        t_miss = b.access(0, 8, False, 0.0) - 0.0  # L1+L2 miss -> memory
        # evict line 8 from the single L1 that holds it, keep it in L2
        b.caches[0].invalidate(8)
        t_l2 = b.access(0, 8, False, 10_000.0) - 10_000.0
        assert t_miss == pytest.approx(1 + 50)
        assert t_l2 == pytest.approx(1 + 10)
        assert b.stats.l2_hits == 1

    def test_write_invalidates_l2_copy(self):
        spec = _smp_l2()
        b = make_backend(spec, np.zeros(10_000, dtype=np.int64))
        b.memory.access(0)
        b.access(0, 8, False, 0.0)  # fills L1 and L2
        b.access(0, 8, True, 0.0)  # write hit: L2 copy must die
        b.caches[0].invalidate(8)
        t = b.access(0, 8, False, 10_000.0) - 10_000.0
        assert t == pytest.approx(1 + 50)  # memory again, not L2

    def test_cow_l2_serves_local_rereads(self):
        spec = PlatformSpec(
            name="c", n=1, N=2, cache_bytes=2 * KB, memory_bytes=256 * KB,
            l2_bytes=16 * KB, network=NetworkKind.ATM_155,
        )
        home = np.zeros(10_000, dtype=np.int64)  # everything homed on machine 0
        b = make_backend(spec, home)
        b.memories[0].access(0)
        b.access(0, 8, False, 0.0)
        b.caches[0].invalidate(8)
        t = b.access(0, 8, False, 10_000.0) - 10_000.0
        assert t == pytest.approx(1 + 10)
        assert b.stats.l2_hits == 1

    def test_simulation_with_l2_is_faster(self, edge_run_4):
        from repro.sim.engine import SimulationEngine

        base = PlatformSpec(name="b", n=4, N=1, cache_bytes=2 * KB, memory_bytes=256 * KB)
        l2 = PlatformSpec(
            name="l", n=4, N=1, cache_bytes=2 * KB, memory_bytes=256 * KB,
            l2_bytes=32 * KB,
        )
        t0 = SimulationEngine(base, edge_run_4).execute().total_cycles
        t1 = SimulationEngine(l2, edge_run_4).execute().total_cycles
        assert t1 < t0


class TestModelVsSimWithL2:
    def test_agreement_stays_reasonable(self, edge_run_4):
        """The L2-extended model must track the L2-extended simulator."""
        from repro.sim.engine import SimulationEngine
        from repro.trace.analysis import characterize_run

        spec = PlatformSpec(
            name="l2v", n=4, N=1, cache_bytes=2 * KB, memory_bytes=256 * KB,
            l2_bytes=32 * KB,
        )
        ch = characterize_run(edge_run_4)
        sim = SimulationEngine(spec, edge_run_4).execute()
        est = evaluate(
            spec, ch.params.locality, ch.params.gamma,
            mode="throttled", cache_capacity_factor=0.5,
        )
        ratio = est.e_instr_seconds / sim.e_instr_seconds
        assert 0.3 < ratio < 3.0

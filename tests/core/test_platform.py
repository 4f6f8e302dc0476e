"""Tests for PlatformSpec validation and derived properties."""

import pytest

from repro.core.hierarchy import PlatformKind
from repro.core.platform import PlatformSpec
from repro.sim.latencies import CPU_HZ, ITEM_BYTES, NetworkKind

KB = 1024
MB = 1024 * 1024


def _spec(**kw):
    base = dict(name="t", n=2, N=1, cache_bytes=256 * KB, memory_bytes=64 * MB)
    base.update(kw)
    return PlatformSpec(**base)


class TestValidation:
    def test_uniprocessor_rejected(self):
        with pytest.raises(ValueError, match="uniprocessor"):
            _spec(n=1, N=1)

    def test_cluster_requires_network(self):
        with pytest.raises(ValueError, match="network"):
            _spec(n=1, N=4, network=None)

    def test_single_smp_rejects_network(self):
        with pytest.raises(ValueError, match="network"):
            _spec(n=2, N=1, network=NetworkKind.ATM_155)

    def test_memory_must_exceed_cache(self):
        with pytest.raises(ValueError):
            _spec(cache_bytes=1 * MB, memory_bytes=1 * MB)

    def test_cache_holds_at_least_one_line(self):
        with pytest.raises(ValueError):
            _spec(cache_bytes=32)

    def test_positive_clock(self):
        with pytest.raises(ValueError):
            _spec(cpu_hz=0)


class TestClassification:
    def test_smp(self):
        assert _spec(n=4, N=1).kind is PlatformKind.SMP

    def test_cow(self):
        s = _spec(n=1, N=4, network=NetworkKind.ETHERNET_10)
        assert s.kind is PlatformKind.COW

    def test_clump(self):
        s = _spec(n=2, N=2, network=NetworkKind.ATM_155)
        assert s.kind is PlatformKind.CLUMP


class TestDerived:
    def test_items(self):
        s = _spec(cache_bytes=256 * KB, memory_bytes=64 * MB)
        assert s.cache_items == 256 * KB // ITEM_BYTES == 4096
        assert s.memory_items == 64 * MB // ITEM_BYTES

    def test_total_processors(self):
        s = _spec(n=2, N=3, network=NetworkKind.ATM_155)
        assert s.total_processors == 6

    def test_cycle_seconds(self):
        assert _spec().cycle_seconds == pytest.approx(1.0 / CPU_HZ)

    def test_describe(self):
        s = _spec(n=1, N=4, network=NetworkKind.ETHERNET_100)
        text = s.describe()
        assert "n=1" in text and "N=4" in text and "100Mb" in text


class TestScaling:
    def test_scaled_divides_sizes(self):
        s = _spec(cache_bytes=256 * KB, memory_bytes=64 * MB)
        t = s.scaled(64)
        assert t.cache_bytes == 4 * KB
        assert t.memory_bytes == 1 * MB
        assert t.name == "t/64"
        assert t.n == s.n and t.N == s.N

    def test_scale_one_is_identity_name(self):
        s = _spec()
        assert s.scaled(1).name == "t"

    def test_scaled_rejects_bad_divisor(self):
        with pytest.raises(ValueError):
            _spec().scaled(0)

    def test_scaled_preserves_ratio(self):
        for s in (
            _spec(cache_bytes=512 * KB, memory_bytes=128 * MB),
            _spec(cache_bytes=256 * KB, memory_bytes=64 * MB, l2_bytes=1 * MB),
        ):
            t = s.scaled(16)
            assert s.memory_bytes / s.cache_bytes == t.memory_bytes / t.cache_bytes
            if s.l2_bytes is not None:
                assert s.l2_bytes / s.cache_bytes == t.l2_bytes / t.cache_bytes

    @pytest.mark.parametrize("divisor", [1, 8, 64, 512])
    @pytest.mark.parametrize(
        "flat",
        [
            _spec(cache_bytes=256 * KB, memory_bytes=64 * MB, l2_bytes=1 * MB),
            _spec(
                n=1, N=4, cache_bytes=512 * KB, memory_bytes=32 * MB,
                network=NetworkKind.ATM_155, l2_bytes=2 * MB,
            ),
        ],
        ids=["smp-l2", "cow-l2"],
    )
    def test_flat_spec_scales_like_its_tree_twin(self, flat, divisor):
        """One scaling rule: a flat spec and its from_topology twin agree."""
        from repro.topology.canned import topology_for_spec

        twin = PlatformSpec.from_topology(flat.name, topology_for_spec(flat))
        a, b = flat.scaled(divisor), twin.scaled(divisor)
        assert (a.cache_bytes, a.memory_bytes, a.l2_bytes) == (
            b.cache_bytes, b.memory_bytes, b.l2_bytes
        )
        assert a.topology is None


class TestCustomLatencies:
    def test_model_uses_overridden_latencies(self):
        from repro.core.execution import evaluate
        from repro.core.locality import StackDistanceModel
        from repro.sim.latencies import LatencyTable

        loc = StackDistanceModel(alpha=2.5, beta=5.0)
        slow_memory = LatencyTable(cache_to_memory=500)
        base = _spec(cache_bytes=4 * KB, memory_bytes=1 * MB)
        slow = _spec(cache_bytes=4 * KB, memory_bytes=1 * MB, latencies=slow_memory)
        t_base = evaluate(base, loc, gamma=0.3, mode="throttled").e_instr_seconds
        t_slow = evaluate(slow, loc, gamma=0.3, mode="throttled").e_instr_seconds
        assert t_slow > t_base

    def test_simulator_uses_overridden_latencies(self):
        import numpy as np

        from repro.sim.backends import make_backend
        from repro.sim.latencies import LatencyTable

        spec = _spec(
            cache_bytes=4 * KB, memory_bytes=1 * MB,
            latencies=LatencyTable(cache_to_memory=500),
        )
        b = make_backend(spec, np.zeros(1000, dtype=np.int64))
        b.memory.access(0)
        assert b.access(0, 8, False, 0.0) == pytest.approx(1.0 + 500.0)

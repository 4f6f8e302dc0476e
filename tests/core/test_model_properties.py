"""Cross-cutting monotonicity properties of the full model."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.execution import evaluate
from repro.core.locality import StackDistanceModel
from repro.core.platform import PlatformSpec
from repro.sim.latencies import NetworkKind

KB, MB = 1024, 1024 * 1024

workloads = st.builds(
    StackDistanceModel,
    alpha=st.floats(min_value=1.3, max_value=4.0),
    beta=st.floats(min_value=1.0, max_value=1e4),
)
gammas = st.floats(min_value=0.05, max_value=0.8)


def _cow(net: NetworkKind, N: int = 4) -> PlatformSpec:
    return PlatformSpec(
        name=f"pm-{net.name}-{N}", n=1, N=N,
        cache_bytes=4 * KB, memory_bytes=1 * MB, network=net,
    )


def _eval(spec, loc, gamma, **kw):
    return evaluate(spec, loc, gamma, mode="throttled", **kw).e_instr_seconds


class TestNetworkMonotonicity:
    @given(loc=workloads, gamma=gammas, sharing=st.floats(min_value=0.0, max_value=0.5))
    @settings(max_examples=60, deadline=None)
    def test_faster_network_never_slower(self, loc, gamma, sharing):
        """E(Instr) ordering must follow the network latency ordering."""
        kw = dict(sharing_fraction=sharing, remote_rate_adjustment=0.124)
        t10 = _eval(_cow(NetworkKind.ETHERNET_10), loc, gamma, **kw)
        t100 = _eval(_cow(NetworkKind.ETHERNET_100), loc, gamma, **kw)
        assert t100 <= t10 * (1 + 1e-9)

    @given(loc=workloads, gamma=gammas)
    @settings(max_examples=60, deadline=None)
    def test_always_finite_in_throttled_mode(self, loc, gamma):
        for net in NetworkKind:
            assert math.isfinite(_eval(_cow(net), loc, gamma, sharing_fraction=0.3))


class TestParameterMonotonicity:
    @given(loc=workloads, gamma=gammas)
    @settings(max_examples=60, deadline=None)
    def test_adjustment_never_speeds_things_up(self, loc, gamma):
        spec = _cow(NetworkKind.ETHERNET_100)
        base = _eval(spec, loc, gamma, sharing_fraction=0.2)
        adj = _eval(spec, loc, gamma, sharing_fraction=0.2, remote_rate_adjustment=0.5)
        assert adj >= base * (1 - 1e-9)

    @given(loc=workloads, gamma=gammas, s1=st.floats(0, 0.4), s2=st.floats(0, 0.4))
    @settings(max_examples=60, deadline=None)
    def test_more_sharing_never_faster(self, loc, gamma, s1, s2):
        spec = _cow(NetworkKind.ATM_155)
        lo, hi = sorted([s1, s2])
        assert _eval(spec, loc, gamma, sharing_fraction=lo) <= _eval(
            spec, loc, gamma, sharing_fraction=hi
        ) * (1 + 1e-9)

    @given(loc=workloads, gamma=gammas)
    @settings(max_examples=40, deadline=None)
    def test_worse_locality_never_faster_on_smp(self, loc, gamma):
        spec = PlatformSpec(name="pm-smp", n=4, N=1, cache_bytes=4 * KB, memory_bytes=1 * MB)
        worse = StackDistanceModel(alpha=loc.alpha, beta=loc.beta * 4)
        assert _eval(spec, loc, gamma) <= _eval(spec, worse, gamma) * (1 + 1e-9)

    @given(loc=workloads, gamma=gammas)
    @settings(max_examples=40, deadline=None)
    def test_truncation_never_slower(self, loc, gamma):
        """Cutting the tail at a footprint can only remove traffic."""
        spec = PlatformSpec(name="pm-smp", n=2, N=1, cache_bytes=4 * KB, memory_bytes=1 * MB)
        truncated = StackDistanceModel(alpha=loc.alpha, beta=loc.beta, max_distance=5000.0)
        assert _eval(spec, truncated, gamma) <= _eval(spec, loc, gamma) * (1 + 1e-9)

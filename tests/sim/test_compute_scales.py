"""Per-process compute scales: the simulator's half of heterogeneity.

Two contracts:

* all-unity scales collapse to the legacy expressions, bit-identically
  -- a build with the feature and a build without it must be
  indistinguishable on homogeneous inputs;
* with real scales the scalar and vectorized lanes still agree bitwise
  (the 2^-6-grid quantization gives both lanes literally the same
  per-reference steps).
"""

import math

import numpy as np
import pytest

from repro.apps.base import AddressSpace, ApplicationRun
from repro.core.platform import PlatformSpec
from repro.sim.engine import SimulationEngine
from repro.trace.events import Trace

KB = 1024
rng = np.random.default_rng(7)


def _trace(n, procs, seed):
    r = np.random.default_rng(seed)
    addrs = r.integers(0, 4096, size=n)
    return Trace(
        addresses=np.asarray(addrs, dtype=np.int64),
        is_write=r.random(n) < 0.3,
        work=r.integers(0, 4, size=n).astype(np.int64),
        barriers=np.asarray([n // 3, 2 * n // 3], dtype=np.int64),
        tail_work=5,
    )


def _run(procs=4, n=400):
    space = AddressSpace(procs)
    space.alloc("data", (100_000,), element_bytes=64)
    return ApplicationRun(
        name="crafted", problem_size="tiny", num_procs=procs,
        traces=tuple(_trace(n, procs, seed=10 + p) for p in range(procs)),
        address_space=space, verified=True,
    )


def _smp(n=4):
    return PlatformSpec(name="s", n=n, N=1, cache_bytes=2 * KB, memory_bytes=1024 * KB)


class TestUnityCollapse:
    def test_unity_scales_bit_identical_to_no_scales(self):
        run = _run()
        base = SimulationEngine(_smp(), run).execute()
        unity = SimulationEngine(_smp(), run, compute_scales=(1.0,) * 4).execute()
        assert unity.total_cycles == base.total_cycles
        assert unity.per_process_cycles == base.per_process_cycles

    def test_unity_scales_scalar_lane_too(self):
        run = _run()
        base = SimulationEngine(_smp(), run, fastpath=False).execute()
        unity = SimulationEngine(
            _smp(), run, fastpath=False, compute_scales=(1.0,) * 4
        ).execute()
        assert unity.total_cycles == base.total_cycles


class TestScaledLanes:
    @pytest.mark.parametrize("scales", [(2.0, 2.0, 1.0, 1.0), (2.5, 1.0, 1.5, 1.0)])
    def test_scalar_and_fastpath_agree_bitwise(self, scales):
        run = _run()
        fast = SimulationEngine(_smp(), run, compute_scales=scales).execute()
        slow = SimulationEngine(
            _smp(), run, fastpath=False, compute_scales=scales
        ).execute()
        assert fast.total_cycles == slow.total_cycles
        assert fast.per_process_cycles == slow.per_process_cycles

    def test_faster_cpus_finish_sooner(self):
        run = _run()
        base = SimulationEngine(_smp(), run).execute()
        scaled = SimulationEngine(
            _smp(), run, compute_scales=(2.0, 2.0, 2.0, 2.0)
        ).execute()
        assert scaled.total_cycles < base.total_cycles

    def test_profile_accounting_survives_scales(self):
        run = _run()
        res = SimulationEngine(
            _smp(), run, compute_scales=(2.0, 1.0, 1.0, 1.0), profile=True
        ).execute()
        total = math.fsum(res.profile.cycles.values())
        assert total == res.profile.proc_cycles == 4 * res.total_cycles


class TestValidation:
    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError, match="4"):
            SimulationEngine(_smp(), _run(), compute_scales=(1.0, 2.0))

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("inf"), float("nan")])
    def test_nonpositive_rejected(self, bad):
        with pytest.raises(ValueError):
            SimulationEngine(_smp(), _run(), compute_scales=(1.0, 1.0, 1.0, bad))

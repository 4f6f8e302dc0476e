"""Tests for the execution-time model (Eqs. 3-4) and the evaluate API."""

import math

import pytest

from repro.core.execution import (
    e_app_seconds,
    e_instr_cycles,
    e_instr_seconds,
    evaluate,
)
from repro.core.locality import StackDistanceModel
from repro.core.platform import PlatformSpec
from repro.sim.latencies import CPU_HZ, NetworkKind

KB, MB = 1024, 1024 * 1024
LOC = StackDistanceModel(alpha=2.5, beta=5.0)


class TestFormulas:
    def test_eq4(self):
        # E(Instr) = (1/S + gamma T) / (n N), in cycles with S = 1
        assert e_instr_cycles(4, 0.25, 10.0) == pytest.approx((1 + 0.25 * 10) / 4)

    def test_eq4_seconds(self):
        cycles = e_instr_cycles(2, 0.5, 7.0)
        assert e_instr_seconds(2, 0.5, 7.0, CPU_HZ) == pytest.approx(cycles / CPU_HZ)

    def test_eq3(self):
        per = e_instr_seconds(2, 0.5, 7.0, CPU_HZ)
        assert e_app_seconds(1_000_000, 2, 0.5, 7.0, CPU_HZ) == pytest.approx(1e6 * per)

    def test_more_processors_divide_time(self):
        assert e_instr_cycles(8, 0.3, 5.0) == pytest.approx(e_instr_cycles(1, 0.3, 5.0) / 8)

    def test_validation(self):
        with pytest.raises(ValueError):
            e_instr_cycles(0, 0.3, 5.0)
        with pytest.raises(ValueError):
            e_instr_cycles(2, 0.0, 5.0)
        with pytest.raises(ValueError):
            e_instr_cycles(2, 0.3, -1.0)
        with pytest.raises(ValueError):
            e_instr_seconds(2, 0.3, 5.0, 0.0)
        with pytest.raises(ValueError):
            e_app_seconds(-1, 2, 0.3, 5.0, CPU_HZ)


class TestEvaluate:
    def test_wires_amat_into_eq4(self, smp_spec):
        est = evaluate(smp_spec, LOC, gamma=0.3)
        expected = (1.0 + 0.3 * est.amat.total_cycles) / smp_spec.total_processors
        assert est.e_instr_cycles == pytest.approx(expected)
        assert est.e_instr_seconds == pytest.approx(expected / smp_spec.cpu_hz)
        assert est.feasible

    def test_e_app(self, smp_spec):
        est = evaluate(smp_spec, LOC, gamma=0.3)
        assert est.e_app_seconds(10_000) == pytest.approx(1e4 * est.e_instr_seconds)

    def test_speedup_over(self, smp_spec, smp4_spec):
        a = evaluate(smp_spec, LOC, gamma=0.3)
        b = evaluate(smp4_spec, LOC, gamma=0.3)
        assert b.speedup_over(a) == pytest.approx(a.e_instr_seconds / b.e_instr_seconds)

    def test_saturated_estimate_infeasible(self):
        heavy = StackDistanceModel(alpha=1.2, beta=500.0)
        cow = PlatformSpec(
            name="sat", n=1, N=4, cache_bytes=4 * KB, memory_bytes=256 * KB,
            network=NetworkKind.ETHERNET_10,
        )
        est = evaluate(cow, heavy, gamma=0.4)
        assert not est.feasible
        assert math.isinf(est.e_instr_seconds)

    def test_platform_name_carried(self, cow_spec):
        est = evaluate(cow_spec, LOC, gamma=0.3, mode="throttled")
        assert est.platform_name == cow_spec.name

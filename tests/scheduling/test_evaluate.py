"""evaluate_hetero: the heterogeneous model and its homogeneous reduction.

The load-bearing property is *bit-identity*: on any homogeneous tree
with even shares, the heterogeneous evaluation must return exactly --
not approximately -- what ``evaluate(spec, ..., mode="open")`` returns.
The caches, the search engine and the experiment grids all assume model
results are reproducible to the last ulp, so a 1-ulp divergence here
would silently fork the two code paths.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.execution import evaluate
from repro.core.locality import StackDistanceModel
from repro.core.platform import PlatformSpec
from repro.workloads.params import PAPER_LU
from repro.scheduling import (
    HeteroPlatform,
    WorkShare,
    builtin_hetero_platform,
    evaluate_hetero,
    process_costs,
)
from repro.sim.latencies import NetworkKind

KB, MB = 1024, 1024 * 1024

workloads = st.builds(
    StackDistanceModel,
    alpha=st.floats(min_value=1.3, max_value=4.0),
    beta=st.floats(min_value=1.0, max_value=1e4),
)
gammas = st.floats(min_value=0.05, max_value=0.8)
shapes = st.tuples(
    st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=6)
).filter(lambda shape: shape[0] * shape[1] >= 2)
specs = st.builds(
    lambda shape, cache_kb, mem_mb, net: PlatformSpec(
        name=f"h-{shape[0]}x{shape[1]}", n=shape[0], N=shape[1],
        cache_bytes=cache_kb * KB, memory_bytes=mem_mb * MB,
        network=net if shape[1] > 1 else None,
    ),
    shape=shapes,
    cache_kb=st.sampled_from([4, 64, 256]),
    mem_mb=st.sampled_from([1, 8, 64]),
    net=st.sampled_from(list(NetworkKind)),
)


class TestHomogeneousBitIdentity:
    @given(spec=specs, loc=workloads, gamma=gammas,
           adj=st.sampled_from([0.0, 0.124, 0.3]))
    @settings(max_examples=80, deadline=None)
    def test_even_share_reduces_bitwise_to_evaluate_open(
        self, spec, loc, gamma, adj
    ):
        reference = evaluate(
            spec, loc, gamma, mode="open",
            remote_rate_adjustment=adj,
        )
        hetero = evaluate_hetero(
            process_costs(
                HeteroPlatform.from_spec(spec), loc, gamma,
                remote_rate_adjustment=adj,
            )
        )
        # Bitwise, not approx: both inf, or the identical float.
        assert hetero.e_instr_seconds == reference.e_instr_seconds
        if math.isfinite(reference.e_instr_seconds):
            assert hetero.e_instr_cycles == reference.e_instr_cycles

    @given(loc=workloads, gamma=gammas)
    @settings(max_examples=30, deadline=None)
    def test_deep_tree_reduces_too(self, loc, gamma):
        from repro.topology import clump_of_smps_spec

        spec = clump_of_smps_spec()
        reference = evaluate(
            spec, loc, gamma, mode="open",
            remote_rate_adjustment=0.124,
        )
        hetero = evaluate_hetero(
            process_costs(
                HeteroPlatform.from_spec(spec), loc, gamma,
                remote_rate_adjustment=0.124,
            )
        )
        assert hetero.e_instr_seconds == reference.e_instr_seconds

    def test_even_explicit_share_equals_default(self):
        spec = PlatformSpec(
            name="cow", n=1, N=4, cache_bytes=256 * KB,
            memory_bytes=64 * MB, network=NetworkKind.ETHERNET_100,
        )
        costs = process_costs(
            HeteroPlatform.from_spec(spec), StackDistanceModel(alpha=1.5, beta=50.0), 0.3
        )
        a = evaluate_hetero(costs)
        b = evaluate_hetero(costs, WorkShare.even(4))
        assert a.e_instr_seconds == b.e_instr_seconds


class TestHeterogeneous:
    @pytest.fixture()
    def cow(self):
        return builtin_hetero_platform("mixed-cow")

    def test_uneven_share_changes_the_answer(self, cow):
        costs = process_costs(
            cow, PAPER_LU.locality, PAPER_LU.gamma, remote_rate_adjustment=0.124
        )
        even = evaluate_hetero(costs)
        skew = evaluate_hetero(costs, WorkShare((0.1, 0.1, 1.0, 1.0)))
        assert even.feasible and skew.feasible
        assert even.e_instr_seconds != skew.e_instr_seconds

    def test_barrier_free_cycles_share_independent_and_per_machine(self, cow):
        loc, gamma = PAPER_LU.locality, PAPER_LU.gamma
        tilde = process_costs(
            cow, loc, gamma, remote_rate_adjustment=0.124
        ).cycles_per_instruction
        assert len(tilde) == cow.total_processors
        # mixed-cow: two fast-small machines then two slow-large ones.
        assert tilde[0] == tilde[1] and tilde[2] == tilde[3]
        assert tilde[0] != tilde[2]

    def test_straggler_sets_the_estimate(self, cow):
        loc, gamma = PAPER_LU.locality, PAPER_LU.gamma
        est = evaluate_hetero(
            process_costs(cow, loc, gamma, remote_rate_adjustment=0.124)
        )
        worst = max(
            p.weight * p.cycles_per_instruction for p in est.processes
        )
        total = math.fsum(p.weight for p in est.processes)
        assert est.e_instr_cycles == worst / total

    def test_process_metadata(self, cow):
        loc, gamma = PAPER_LU.locality, PAPER_LU.gamma
        est = evaluate_hetero(
            process_costs(cow, loc, gamma, remote_rate_adjustment=0.124)
        )
        assert [p.machine for p in est.processes] == [0, 1, 2, 3]
        assert [p.speed for p in est.processes] == [2.0, 2.0, 1.0, 1.0]
        assert est.bottleneck in est.processes
        payload = est.as_dict()
        assert payload["feasible"] and len(payload["processes"]) == 4

    def test_saturation_reports_inf_not_raise(self, cow):
        # A hot workload on the tiny mixed tree saturates in open mode.
        loc = StackDistanceModel(alpha=1.2, beta=5e4)
        est = evaluate_hetero(
            process_costs(cow, loc, 0.8, remote_rate_adjustment=0.124)
        )
        assert not est.feasible
        assert est.e_instr_seconds == math.inf


class TestErrors:
    def test_rejects_share_of_wrong_size(self):
        cow = builtin_hetero_platform("mixed-cow")
        loc = StackDistanceModel(alpha=1.5, beta=50.0)
        with pytest.raises(ValueError, match="4 processes"):
            evaluate_hetero(process_costs(cow, loc, 0.3), WorkShare((1.0, 1.0)))

    def test_rejects_bad_gamma(self):
        cow = builtin_hetero_platform("mixed-cow")
        loc = StackDistanceModel(alpha=1.5, beta=50.0)
        with pytest.raises(ValueError, match="gamma"):
            process_costs(cow, loc, 1.5)

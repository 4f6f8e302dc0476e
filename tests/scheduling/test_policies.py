"""Placement policies: dominance, homogeneous collapse, resolution."""

import math

import pytest

from repro.scheduling import (
    POLICIES,
    HeteroPlatform,
    builtin_hetero_platform,
    compare_policies,
    memory_aware,
    process_costs,
    resolve_policy,
    round_robin,
    speed_proportional,
)
from repro.core.platform import PlatformSpec
from repro.sim.latencies import NetworkKind
from repro.workloads.params import PAPER_WORKLOADS

KB, MB = 1024, 1024 * 1024

MIXED = ("mixed-cow", "mixed-clump")


def _grid():
    for name in MIXED:
        platform = builtin_hetero_platform(name)
        for params in PAPER_WORKLOADS:
            yield platform, params


class TestDominance:
    @pytest.mark.parametrize(
        "platform,params",
        list(_grid()),
        ids=[f"{n}-{w.name}" for n in MIXED for w in PAPER_WORKLOADS],
    )
    def test_memory_aware_never_loses(self, platform, params):
        """The acceptance criterion: memory-aware <= round-robin AND
        <= speed on every canned mixed tree x paper workload cell.

        Dominance is by construction (the rival splits are descent
        starts), so any violation is a regression in the descent."""
        estimates = compare_policies(
            platform, params.locality, params.gamma,
            remote_rate_adjustment=0.124,
        )
        best = estimates["memory-aware"].e_instr_seconds
        assert best <= estimates["round-robin"].e_instr_seconds
        assert best <= estimates["speed"].e_instr_seconds

    def test_memory_aware_strictly_wins_somewhere(self):
        """On mixed-cow/LU the win is large (the fast CPUs sit behind
        small caches), anchoring that the policy does real work."""
        platform = builtin_hetero_platform("mixed-cow")
        lu = next(w for w in PAPER_WORKLOADS if w.name == "LU")
        estimates = compare_policies(
            platform, lu.locality, lu.gamma,
            remote_rate_adjustment=0.124,
        )
        rr = estimates["round-robin"].e_instr_seconds
        ma = estimates["memory-aware"].e_instr_seconds
        assert math.isfinite(ma)
        assert ma < 0.75 * rr

    def test_speed_split_can_lose_to_even(self):
        """The cautionary tale the doc tells: speed-proportional
        placement backfires when the fast machines are cache-starved."""
        platform = builtin_hetero_platform("mixed-cow")
        lu = next(w for w in PAPER_WORKLOADS if w.name == "LU")
        estimates = compare_policies(
            platform, lu.locality, lu.gamma,
            remote_rate_adjustment=0.124,
        )
        assert (
            estimates["speed"].e_instr_seconds
            > estimates["round-robin"].e_instr_seconds
        )


class TestHomogeneousCollapse:
    @pytest.fixture()
    def platform(self):
        spec = PlatformSpec(
            name="cow", n=1, N=4, cache_bytes=256 * KB,
            memory_bytes=64 * MB, network=NetworkKind.ETHERNET_100,
        )
        return HeteroPlatform.from_spec(spec)

    def test_every_policy_returns_exactly_even(self, platform):
        lu = next(w for w in PAPER_WORKLOADS if w.name == "LU")
        costs = process_costs(
            platform, lu.locality, lu.gamma, remote_rate_adjustment=0.124
        )
        for name, place in POLICIES.items():
            share = place(costs)
            assert share.weights == (1.0, 1.0, 1.0, 1.0), name


class TestShapes:
    def test_round_robin_ignores_workload(self):
        platform = builtin_hetero_platform("mixed-cow")
        lu = next(w for w in PAPER_WORKLOADS if w.name == "LU")
        costs = process_costs(platform, lu.locality, lu.gamma)
        assert round_robin(costs).weights == (1.0,) * 4

    def test_speed_proportional_normalizes_by_max(self):
        platform = builtin_hetero_platform("mixed-cow")
        lu = next(w for w in PAPER_WORKLOADS if w.name == "LU")
        share = speed_proportional(process_costs(platform, lu.locality, lu.gamma))
        assert max(share.weights) == 1.0
        assert share.weights == (1.0, 1.0, 0.5, 0.5)

    def test_memory_aware_weights_grouped_by_machine_kind(self):
        platform = builtin_hetero_platform("mixed-cow")
        lu = next(w for w in PAPER_WORKLOADS if w.name == "LU")
        share = memory_aware(
            process_costs(platform, lu.locality, lu.gamma, remote_rate_adjustment=0.124)
        )
        # Symmetric processes get identical weights.
        assert share.weights[0] == share.weights[1]
        assert share.weights[2] == share.weights[3]
        assert share.policy == "memory-aware"

    def test_memory_aware_saturated_falls_back_to_speed(self):
        from repro.core.locality import StackDistanceModel

        platform = builtin_hetero_platform("mixed-cow")
        costs = process_costs(
            platform, StackDistanceModel(alpha=1.2, beta=5e4), 0.8,
            remote_rate_adjustment=0.124,
        )
        share = memory_aware(costs)
        assert share.weights == speed_proportional(costs).weights
        assert share.policy == "memory-aware"


class TestOneFoldPerPlacement:
    def test_compare_policies_folds_the_platform_once(self, folded):
        """Every policy places and is priced on one fold, however many
        shares the memory-aware descent tries."""
        platform = builtin_hetero_platform("mixed-cow")
        lu = next(w for w in PAPER_WORKLOADS if w.name == "LU")
        estimates = compare_policies(
            platform, lu.locality, lu.gamma, remote_rate_adjustment=0.124,
        )
        assert set(estimates) == set(POLICIES)
        assert folded == [platform.topology]


class TestResolution:
    def test_known_names(self):
        for name in ("round-robin", "speed", "memory-aware"):
            assert callable(resolve_policy(name))

    def test_unknown_name_lists_choices(self):
        with pytest.raises(ValueError, match="memory-aware"):
            resolve_policy("fastest-first")

    def test_compare_policies_respects_selection(self):
        platform = builtin_hetero_platform("mixed-cow")
        lu = next(w for w in PAPER_WORKLOADS if w.name == "LU")
        out = compare_policies(
            platform, lu.locality, lu.gamma, policies=("round-robin",),
            remote_rate_adjustment=0.124,
        )
        assert set(out) == {"round-robin"}

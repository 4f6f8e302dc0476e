"""Machine-mix enumeration and the heterogeneous cost model."""

import math

import pytest

from repro.cost.catalog import DEFAULT_CATALOG
from repro.cost.configspace import CandidateSpace
from repro.cost.model import cluster_cost, hetero_cluster_cost
from repro.scheduling import design_mix, enumerate_mixed_configurations
from repro.sim.latencies import NetworkKind
from repro.workloads.params import PAPER_LU

#: A deliberately tiny market so enumeration tests run in milliseconds.
SMALL_SPACE = CandidateSpace(
    processor_counts=(1,),
    cache_kb_options=(256, 512),
    memory_mb_options=(32,),
    networks=(NetworkKind.ETHERNET_10,),
    machine_speeds=(1.0, 2.0),
    mix_max_machines=4,
)


class TestHeteroCost:
    def test_flat_homogeneous_tree_matches_eq5(self):
        """On a homogeneous flat cluster the recursive pricing must
        reduce to the paper's N * (C_machine + C_net)."""
        from repro.core.platform import PlatformSpec
        from repro.topology.canned import topology_for_spec

        KB, MB = 1024, 1024 * 1024
        spec = PlatformSpec(
            name="cow", n=1, N=4, cache_bytes=256 * KB,
            memory_bytes=32 * MB, network=NetworkKind.ETHERNET_10,
        )
        tree = topology_for_spec(spec)
        assert hetero_cluster_cost(DEFAULT_CATALOG, tree) == pytest.approx(
            cluster_cost(DEFAULT_CATALOG, spec)
        )

    def test_speed_premium_charged_per_processor(self):
        from repro.scheduling.mix import MachineVariant

        slow = MachineVariant(1, 256, 32, 1.0).node()
        fast = MachineVariant(1, 256, 32, 2.0).node()
        delta = hetero_cluster_cost(DEFAULT_CATALOG, fast) - hetero_cluster_cost(
            DEFAULT_CATALOG, slow
        )
        assert delta == pytest.approx(DEFAULT_CATALOG.speed_premium_per_unit)


class TestEnumeration:
    def test_every_candidate_is_affordable_and_mixed(self):
        budget = 12_000.0
        candidates = list(
            enumerate_mixed_configurations(budget, space=SMALL_SPACE)
        )
        assert candidates
        for cand in candidates:
            assert cand.cost <= budget
            assert not cand.topology.is_homogeneous
            assert len(cand.counts) == 2
            total = sum(count for _, count in cand.counts)
            assert 2 <= total <= SMALL_SPACE.mix_max_machines

    def test_budget_prunes(self):
        wide = list(enumerate_mixed_configurations(12_000.0, space=SMALL_SPACE))
        tight = list(enumerate_mixed_configurations(6_000.0, space=SMALL_SPACE))
        assert len(tight) < len(wide)
        assert all(c.cost <= 6_000.0 for c in tight)

    def test_rejects_nonpositive_budget(self):
        with pytest.raises(ValueError, match="budget"):
            next(enumerate_mixed_configurations(0.0, space=SMALL_SPACE))


class TestDesignMix:
    def test_ranked_feasible_and_affordable(self):
        top = design_mix(
            PAPER_LU.locality, PAPER_LU.gamma, 12_000.0, space=SMALL_SPACE,
            top=3, remote_rate_adjustment=0.124,
        )
        assert 1 <= len(top) <= 3
        times = [c.e_instr_seconds for c in top]
        assert times == sorted(times)
        for cand in top:
            assert cand.feasible and math.isfinite(cand.e_instr_seconds)
            assert cand.cost <= 12_000.0
            assert cand.policy == "memory-aware"

    def test_policy_flows_through(self):
        top = design_mix(
            PAPER_LU.locality, PAPER_LU.gamma, 12_000.0, space=SMALL_SPACE,
            top=1, policy="round-robin", remote_rate_adjustment=0.124,
        )
        assert top and top[0].policy == "round-robin"

    def test_memory_aware_never_worse_than_round_robin_on_the_winner(self):
        kw = dict(space=SMALL_SPACE, top=1, remote_rate_adjustment=0.124)
        best_ma = design_mix(
            PAPER_LU.locality, PAPER_LU.gamma, 12_000.0, policy="memory-aware", **kw
        )
        best_rr = design_mix(
            PAPER_LU.locality, PAPER_LU.gamma, 12_000.0, policy="round-robin", **kw
        )
        assert best_ma[0].e_instr_seconds <= best_rr[0].e_instr_seconds

    def test_as_dict_is_json_ready(self):
        import json

        top = design_mix(
            PAPER_LU.locality, PAPER_LU.gamma, 12_000.0, space=SMALL_SPACE,
            top=1, remote_rate_adjustment=0.124,
        )
        payload = json.dumps([c.as_dict() for c in top])
        assert "memory-aware" in payload

    def test_folds_each_scored_mix_once(self, folded):
        design_mix(
            PAPER_LU.locality, PAPER_LU.gamma, 12_000.0, space=SMALL_SPACE,
            top=3, remote_rate_adjustment=0.124,
        )
        scored = [
            c.topology
            for c in enumerate_mixed_configurations(12_000.0, space=SMALL_SPACE)
        ]
        assert scored and folded == scored

    def test_top_must_be_positive(self):
        with pytest.raises(ValueError, match="top"):
            design_mix(PAPER_LU.locality, PAPER_LU.gamma, 1000.0, top=0)

"""End-to-end integration tests: the paper's full methodology in miniature.

These tests exercise the complete pipeline -- application execution,
trace characterization, analytical model, simulator -- and assert the
*qualitative* reproduction targets: model and simulator must agree on
which platform wins, network quality must matter most for the programs
the paper says it matters for, and the model must track the simulator
within a loose factor even uncalibrated.
"""

import math

import pytest

from repro.core.execution import evaluate
from repro.core.platform import PlatformSpec
from repro.sim.engine import SimulationEngine
from repro.sim.latencies import NetworkKind
from repro.trace.analysis import characterize_run

KB = 1024


@pytest.fixture(scope="module")
def specs():
    return {
        "smp": PlatformSpec(name="i-smp", n=4, N=1, cache_bytes=2 * KB, memory_bytes=512 * KB),
        "cow-eth": PlatformSpec(
            name="i-cow-eth", n=1, N=4, cache_bytes=2 * KB, memory_bytes=512 * KB,
            network=NetworkKind.ETHERNET_10,
        ),
        "cow-atm": PlatformSpec(
            name="i-cow-atm", n=1, N=4, cache_bytes=2 * KB, memory_bytes=512 * KB,
            network=NetworkKind.ATM_155,
        ),
    }


class TestSimulatedPlatformOrdering:
    def test_smp_beats_ethernet_cow_for_radix(self, radix_run_4, specs):
        """Section 6: Radix wants the short hierarchy of an SMP."""
        smp = SimulationEngine(specs["smp"], radix_run_4).execute()
        cow = SimulationEngine(specs["cow-eth"], radix_run_4).execute()
        assert smp.e_instr_seconds < cow.e_instr_seconds / 5

    def test_network_penalty_hits_sharing_heavy_apps_hardest(self, specs):
        """Moving from an SMP to an ATM cluster must cost all-to-all FFT
        far more than nearest-neighbour EDGE (the paper's Section 6
        contrast).  Default problem sizes: at the tiny test sizes EDGE's
        halo-to-interior ratio is inflated and the contrast vanishes."""
        from repro.apps.registry import make_application

        def penalty(run):
            smp = SimulationEngine(specs["smp"], run).execute().e_instr_seconds
            atm = SimulationEngine(specs["cow-atm"], run).execute().e_instr_seconds
            return atm / smp

        fft = penalty(make_application("FFT", num_procs=4).run())
        edge = penalty(make_application("EDGE", num_procs=4).run())
        assert fft > 3 * edge
        assert edge < 3.0  # EDGE barely suffers on a switched cluster

    def test_every_simulated_reference_is_accounted(self, lu_run_4, specs):
        res = SimulationEngine(specs["smp"], lu_run_4).execute()
        assert res.stats.references == lu_run_4.total_references
        served = (
            res.stats.cache_hits
            + res.stats.l2_hits
            + res.stats.peer_cache
            + res.stats.local_memory
            + res.stats.remote_clean
            + res.stats.remote_dirty
        )
        assert served == res.stats.references
        # page faults are a sub-stage of memory-served accesses
        assert res.stats.disk <= res.stats.local_memory + res.stats.remote_clean


class TestModelTracksSimulator:
    @pytest.mark.parametrize("platform", ["smp", "cow-atm"])
    def test_uncalibrated_model_within_a_small_factor(
        self, all_runs_4, specs, platform
    ):
        spec = specs[platform]
        for name, run in all_runs_4.items():
            ch = characterize_run(run)
            sim = SimulationEngine(spec, run).execute()
            est = evaluate(
                spec,
                ch.params.locality,
                ch.params.gamma,
                mode="throttled",
                sharing_fraction=ch.params.sharing_fraction if spec.N > 1 else 0.0,
                sharing_fresh_fraction=ch.params.sharing_fresh_fraction,
                cache_capacity_factor=0.5,
            )
            ratio = est.e_instr_seconds / sim.e_instr_seconds
            assert 0.1 < ratio < 10.0, f"{name} on {platform}: ratio {ratio:.2f}"

    def test_model_and_sim_agree_on_the_radix_winner(self, radix_run_4, specs):
        ch = characterize_run(radix_run_4)
        cal = dict(
            mode="throttled", cache_capacity_factor=0.5,
            sharing_fresh_fraction=ch.params.sharing_fresh_fraction,
        )
        model_smp = evaluate(specs["smp"], ch.params.locality, ch.params.gamma, **cal)
        model_cow = evaluate(
            specs["cow-eth"], ch.params.locality, ch.params.gamma,
            sharing_fraction=ch.params.sharing_fraction, **cal,
        )
        sim_smp = SimulationEngine(specs["smp"], radix_run_4).execute()
        sim_cow = SimulationEngine(specs["cow-eth"], radix_run_4).execute()
        model_says_smp = model_smp.e_instr_seconds < model_cow.e_instr_seconds
        sim_says_smp = sim_smp.e_instr_seconds < sim_cow.e_instr_seconds
        assert model_says_smp == sim_says_smp == True  # noqa: E712


class TestPublicApi:
    def test_top_level_exports_resolve(self):
        import repro

        for name in repro.__all__:
            assert getattr(repro, name) is not None

    def test_subpackage_exports_resolve(self):
        import repro.core as core
        import repro.sim as sim
        import repro.trace as trace
        import repro.workloads as workloads
        import repro.cost as cost
        import repro.apps as apps

        for mod in (core, sim, trace, workloads, cost, apps):
            for name in mod.__all__:
                assert getattr(mod, name) is not None, f"{mod.__name__}.{name}"

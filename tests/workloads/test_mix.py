"""Tests for workload mixtures."""

import numpy as np
import pytest

from repro.core.execution import evaluate
from repro.core.locality import StackDistanceModel
from repro.workloads.mix import MixedLocality, MixedWorkload, mix_workloads
from repro.workloads.params import PAPER_EDGE, PAPER_FFT, PAPER_RADIX


class TestMixedLocality:
    def test_cdf_is_weighted_sum(self):
        a = StackDistanceModel(1.5, 10.0)
        b = StackDistanceModel(2.5, 100.0)
        mix = MixedLocality(members=(a, b), weights=(0.25, 0.75))
        for x in (0.0, 5.0, 1000.0):
            assert mix.cdf(x) == pytest.approx(0.25 * a.cdf(x) + 0.75 * b.cdf(x))
            assert mix.tail(x) == pytest.approx(1.0 - mix.cdf(x))

    def test_rescaled_rescales_members(self):
        a = StackDistanceModel(1.5, 10.0)
        b = StackDistanceModel(2.5, 100.0)
        mix = MixedLocality(members=(a, b), weights=(0.5, 0.5)).rescaled(4)
        assert mix.members[0].beta == pytest.approx(2.5)
        assert mix.members[1].beta == pytest.approx(25.0)

    def test_array_inputs(self):
        mix = MixedLocality(
            members=(StackDistanceModel(1.5, 10.0),), weights=(1.0,)
        )
        out = mix.tail(np.array([1.0, 10.0, 100.0]))
        assert out.shape == (3,)
        assert np.all(np.diff(out) < 0)

    def test_validation(self):
        a = StackDistanceModel(1.5, 10.0)
        with pytest.raises(ValueError):
            MixedLocality(members=(), weights=())
        with pytest.raises(ValueError):
            MixedLocality(members=(a,), weights=(0.5,))
        with pytest.raises(ValueError):
            MixedLocality(members=(a, a), weights=(1.5, -0.5))


class TestMixWorkloads:
    def test_single_member_is_identity(self):
        mix = mix_workloads([PAPER_FFT], [1.0])
        assert mix.gamma == pytest.approx(PAPER_FFT.gamma)
        assert mix.locality.tail(100.0) == pytest.approx(PAPER_FFT.locality.tail(100.0))
        assert mix.sharing_fraction == pytest.approx(PAPER_FFT.sharing_fraction)

    def test_gamma_is_instruction_weighted(self):
        mix = mix_workloads([PAPER_FFT, PAPER_EDGE], [0.5, 0.5])
        assert mix.gamma == pytest.approx(0.5 * PAPER_FFT.gamma + 0.5 * PAPER_EDGE.gamma)

    def test_reference_weights_favor_memory_heavy_members(self):
        mix = mix_workloads([PAPER_FFT, PAPER_EDGE], [0.5, 0.5])
        # EDGE has higher gamma, so it owns more of the reference stream
        assert mix.locality.weights[1] > mix.locality.weights[0]

    def test_weights_normalized(self):
        mix = mix_workloads([PAPER_FFT, PAPER_RADIX], [2.0, 6.0])
        assert mix.instruction_weights == pytest.approx((0.25, 0.75))

    def test_validation(self):
        with pytest.raises(ValueError):
            mix_workloads([], [])
        with pytest.raises(ValueError):
            mix_workloads([PAPER_FFT], [1.0, 2.0])
        with pytest.raises(ValueError):
            mix_workloads([PAPER_FFT], [-1.0])

    def test_describe(self):
        mix = mix_workloads([PAPER_FFT, PAPER_RADIX], [0.5, 0.5], name="m")
        assert "50% FFT" in mix.describe()


class TestModelIntegration:
    def test_evaluate_accepts_mixture(self, smp_spec):
        mix = mix_workloads([PAPER_FFT, PAPER_RADIX], [0.5, 0.5])
        est = evaluate(smp_spec, mix.locality, mix.gamma, mode="throttled")
        assert est.e_instr_seconds > 0

    def test_mixture_time_between_members(self, smp_spec):
        """E(Instr) of a blend lies between the members' times."""
        def t(workload):
            return evaluate(
                smp_spec, workload.locality, workload.gamma,
                mode="throttled",
            ).e_instr_seconds

        fft, radix = t(PAPER_FFT), t(PAPER_RADIX)
        mix = mix_workloads([PAPER_FFT, PAPER_RADIX], [0.5, 0.5])
        mixed = evaluate(
            smp_spec, mix.locality, mix.gamma, mode="throttled"
        ).e_instr_seconds
        lo, hi = sorted([fft, radix])
        assert lo * 0.9 <= mixed <= hi * 1.1

    def test_optimizer_accepts_mixture(self):
        from repro.cost import optimize_cluster
        from repro.cost.configspace import CandidateSpace

        mix = mix_workloads([PAPER_FFT, PAPER_EDGE], [0.7, 0.3], name="blend")
        space = CandidateSpace(max_machines=3, memory_mb_options=(32,), cache_kb_options=(256,))
        res = optimize_cluster(mix, 10_000.0, space=space)
        assert res.best.e_instr_seconds > 0

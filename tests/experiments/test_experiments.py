"""Integration tests of the experiment modules at reduced size."""

import math
from dataclasses import replace

import pytest

from repro.core.platform import PlatformSpec
from repro.experiments.casestudies import run_case_studies, run_fft_claim
from repro.experiments.figures import FigureResult, _run_figure
from repro.experiments.recommendations import run_recommendations
from repro.experiments.runner import DEFAULT_CALIBRATION
from repro.experiments.speed import run_speed_comparison
from repro.experiments.table2 import run_table2
from repro.cost.configspace import CandidateSpace
from repro.sim.latencies import NetworkKind

KB = 1024

MINI_SMPS = (
    PlatformSpec(name="M1", n=2, N=1, cache_bytes=2 * KB, memory_bytes=256 * KB),
)
MINI_COWS = (
    PlatformSpec(
        name="M2", n=1, N=2, cache_bytes=2 * KB, memory_bytes=256 * KB,
        network=NetworkKind.ATM_155,
    ),
)


class TestTable2:
    def test_structure_checks(self, small_runner):
        res = run_table2(small_runner)
        assert len(res.rows) == 4
        assert res.gamma_ordering_matches()
        text = res.describe()
        assert "FFT" in text and "Radix" in text and "paper" in text


class TestMiniFigures:
    def test_mini_smp_figure(self, small_runner):
        # _run_figure over unscaled mini specs: bypass scaling with scale=1
        import repro.experiments.figures as figs

        res = figs.FigureResult(
            figure="mini",
            rows=tuple(
                small_runner.compare(["EDGE", "FFT"], MINI_SMPS, DEFAULT_CALIBRATION)
            ),
            calibration=DEFAULT_CALIBRATION,
            paper_bound=0.05,
        )
        assert 0 < res.worst_error < 10.0
        assert 0 <= res.ordering_agreement() <= 1.0
        assert "mini" in res.describe()

    def test_mini_cow_figure(self, small_runner):
        rows = small_runner.compare(
            ["EDGE"], MINI_COWS, replace(DEFAULT_CALIBRATION, remote_rate_adjustment=0.124)
        )
        assert all(math.isfinite(r.modeled) for r in rows)
        assert all(r.simulated > 0 for r in rows)

    def test_ordering_agreement_perfect_when_identical(self):
        from repro.core.validation import ComparisonRow

        rows = (
            ComparisonRow("A", "C1", 1.0, 1.0),
            ComparisonRow("A", "C2", 2.0, 2.0),
        )
        res = FigureResult(figure="x", rows=rows, calibration=DEFAULT_CALIBRATION, paper_bound=0.05)
        assert res.ordering_agreement() == 1.0
        assert res.worst_error == 0.0


SMALL_SPACE = CandidateSpace(max_machines=4, memory_mb_options=(32,), cache_kb_options=(256,))


class TestCaseStudies:
    def test_fft_claim_direction(self):
        claim = run_fft_claim()
        # equal cost, ATM must win clearly (paper: 4x)
        assert abs(claim.ethernet_price - claim.atm_price) / claim.ethernet_price < 0.02
        assert claim.ratio > 2.0
        assert "FFT" in claim.describe() or "Ethernet" in claim.describe()

    def test_case_studies_reduced_space(self):
        res = run_case_studies(space=SMALL_SPACE)
        assert not res.smp_fits_5k
        assert not res.smp_cluster_fits_5k
        # Case 1: every $5k winner is a cluster of workstations
        for r in res.budget_5k.values():
            assert r.best.spec.N >= 2 and r.best.spec.n == 1
        # upgrades never lose performance
        for r in res.upgrades.values():
            assert r.speedup >= 1.0
        assert "Case 1" in res.describe()


class TestRecommendations:
    def test_all_assignments_match_paper(self):
        res = run_recommendations()
        assert res.all_match_paper
        assert "OK" in res.describe()


class TestSpeed:
    def test_model_orders_of_magnitude_faster(self, small_runner):
        res = run_speed_comparison(small_runner, app="EDGE", model_repeats=5)
        assert res.model_seconds < res.simulation_seconds
        assert res.speedup > 10
        assert "faster" in res.describe()

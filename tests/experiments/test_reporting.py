"""Tests for the report assembler (with stubbed experiment runners).

The individual experiments are covered by their own tests; here the
target is the glue -- section assembly, ordering, and the CSV export
wiring -- using fast fakes so the test doesn't re-run six minutes of
simulation.
"""

import pytest

import repro.experiments.reporting as reporting
from repro.core.validation import ComparisonRow
from repro.experiments.figures import FigureResult
from repro.experiments.runner import DEFAULT_CALIBRATION
from repro.experiments.table2 import Table2Result, Table2Row
from repro.workloads.params import PAPER_FFT, WorkloadParams


class _Stub:
    def __init__(self, text: str) -> None:
        self._text = text

    def describe(self) -> str:
        return self._text


def _fake_figure(name: str) -> FigureResult:
    rows = (ComparisonRow("FFT", "C1", 1.0e-8, 1.1e-8),)
    return FigureResult(figure=name, rows=rows, calibration=DEFAULT_CALIBRATION, paper_bound=0.05)


def _fake_table2() -> Table2Result:
    measured = WorkloadParams("FFT", alpha=1.4, beta=0.2, gamma=0.21)
    return Table2Result(rows=(Table2Row(measured=measured, paper=PAPER_FFT),))


@pytest.fixture
def stubbed(monkeypatch):
    monkeypatch.setattr(reporting, "run_table2", lambda r: _fake_table2())
    monkeypatch.setattr(reporting, "run_figure2", lambda r: _fake_figure("F2"))
    monkeypatch.setattr(reporting, "run_figure3", lambda r: _fake_figure("F3"))
    monkeypatch.setattr(reporting, "run_figure4", lambda r: _fake_figure("F4"))
    monkeypatch.setattr(reporting, "run_case_studies", lambda: _Stub("CASESTUDIES"))
    monkeypatch.setattr(reporting, "run_recommendations", lambda: _Stub("PRINCIPLES"))
    monkeypatch.setattr(reporting, "run_sensitivity", lambda: [_Stub("SENSITIVITY")])
    monkeypatch.setattr(reporting, "run_coherence_traffic", lambda r: _Stub("COHERENCE"))
    monkeypatch.setattr(reporting, "run_beta_scaling", lambda: [_Stub("BETA")])
    monkeypatch.setattr(reporting, "run_ablations", lambda r: _Stub("ABLATIONS"))
    monkeypatch.setattr(reporting, "run_speed_comparison", lambda r: _Stub("SPEED"))


class TestGenerateReport:
    def test_all_sections_present_in_order(self, stubbed):
        text = reporting.generate_report(runner=object(), verbose=False)
        sections = [
            "## Table 2", "## Figure 2", "## Figure 3", "## Figure 4",
            "## Section 6 -- case studies", "## Section 6 -- principles",
            "## Central claim", "## Section 5.3.1", "## Section 5.2",
            "## Design-choice ablations", "## Section 5.3 -- model vs simulation",
        ]
        positions = [text.index(s) for s in sections]
        assert positions == sorted(positions)
        for marker in ("CASESTUDIES", "PRINCIPLES", "SENSITIVITY", "COHERENCE",
                       "BETA", "ABLATIONS", "SPEED"):
            assert marker in text

    def test_data_dir_writes_csvs(self, stubbed, tmp_path):
        reporting.generate_report(runner=object(), verbose=False, data_dir=tmp_path)
        for name in ("table2.csv", "figure2.csv", "figure3.csv", "figure4.csv"):
            assert (tmp_path / name).exists(), name
        assert "FFT" in (tmp_path / "figure2.csv").read_text()

    def test_no_data_dir_writes_nothing(self, stubbed, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        reporting.generate_report(runner=object(), verbose=False)
        assert not list(tmp_path.iterdir())

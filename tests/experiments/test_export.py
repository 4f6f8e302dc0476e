"""Tests for the CSV/JSON result exporters."""

import csv
import io
import json
import math

import pytest

from repro.core.validation import ComparisonRow
from repro.experiments.export import figure_to_csv, result_to_json, table2_to_csv, write_text
from repro.experiments.figures import FigureResult
from repro.experiments.runner import DEFAULT_CALIBRATION
from repro.experiments.table2 import Table2Result, Table2Row
from repro.workloads.params import PAPER_FFT, WorkloadParams


def _figure():
    rows = (
        ComparisonRow("FFT", "C1", 1.0e-8, 1.1e-8),
        ComparisonRow("LU", "C1", 3.0e-8, 2.5e-8),
    )
    return FigureResult(figure="Fig-X", rows=rows, calibration=DEFAULT_CALIBRATION, paper_bound=0.05)


def _table2():
    measured = WorkloadParams("FFT", alpha=1.4, beta=0.2, gamma=0.21, problem_size="4K points")
    return Table2Result(rows=(Table2Row(measured=measured, paper=PAPER_FFT),))


class TestCsv:
    def test_figure_csv_round_trips(self):
        text = figure_to_csv(_figure())
        rows = list(csv.DictReader(io.StringIO(text)))
        assert len(rows) == 2
        assert rows[0]["application"] == "FFT"
        assert float(rows[0]["modeled_seconds"]) == pytest.approx(1.0e-8)
        assert float(rows[1]["relative_difference"]) == pytest.approx(0.2)

    def test_table2_csv_round_trips(self):
        text = table2_to_csv(_table2())
        rows = list(csv.DictReader(io.StringIO(text)))
        assert len(rows) == 1
        assert float(rows[0]["alpha_paper"]) == pytest.approx(1.21)
        assert float(rows[0]["gamma_measured"]) == pytest.approx(0.21)


class TestJson:
    def test_figure_json_parses(self):
        data = json.loads(result_to_json(_figure()))
        assert data["figure"] == "Fig-X"
        assert len(data["rows"]) == 2
        assert data["calibration"]["mode"] == "throttled"

    def test_infinities_become_null(self):
        rows = (ComparisonRow("A", "C", math.inf, 1.0),)
        res = FigureResult(figure="f", rows=rows, calibration=DEFAULT_CALIBRATION, paper_bound=0.1)
        data = json.loads(result_to_json(res))
        assert data["rows"][0]["modeled"] is None

    def test_enums_serialize_by_value(self):
        from repro.experiments.recommendations import run_recommendations

        data = json.loads(result_to_json(run_recommendations()))
        assert "LU" in data["assignments"]


class TestWrite:
    def test_write_creates_parents(self, tmp_path):
        p = write_text(tmp_path / "nested" / "out.csv", figure_to_csv(_figure()))
        assert p.exists()
        assert "FFT" in p.read_text()

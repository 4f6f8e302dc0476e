"""The two-level CLUMP-of-SMPs scenario: model vs simulator, end to end."""

import json
import math
from dataclasses import replace

from repro.experiments.runner import DEFAULT_CALIBRATION
from repro.experiments.topologies import (
    TwoLevelResult,
    _platforms,
    run_two_level_comparison,
)

CAL = replace(DEFAULT_CALIBRATION, remote_rate_adjustment=0.124)


class TestPlatforms:
    def test_two_level_plus_flat_strawmen(self):
        specs = _platforms()
        assert len(specs) == 3
        deep, *flat = specs
        assert deep.topology is not None and deep.topology.depth == 2
        # same machine shape, only the interconnect structure differs
        for s in flat:
            assert s.topology is None
            assert (s.n, s.N) == (deep.n, deep.N)
            assert s.cache_bytes == deep.cache_bytes
            assert s.memory_bytes == deep.memory_bytes

    def test_scenario_not_expressible_flat(self):
        deep = _platforms()[0]
        assert len(deep.topology.interconnects) == 2
        assert deep.network is None  # no single network kind describes it


class TestTwoLevelComparison:
    def test_every_cell_finite_and_positive(self, small_runner):
        res = run_two_level_comparison(
            small_runner, applications=("EDGE",), calibration=CAL
        )
        assert len(res.rows) == 3
        for r in res.rows:
            assert math.isfinite(r.modeled) and r.modeled > 0
            assert r.simulated > 0
        assert res.calibration is CAL
        assert len(res.two_level_rows) == 1
        assert 0 <= res.ordering_agreement <= 1.0
        assert res.worst_error >= res.mean_error >= 0

    def test_describe_and_json_payload(self, small_runner):
        res = run_two_level_comparison(
            small_runner, applications=("EDGE",), calibration=CAL
        )
        text = res.describe()
        assert "clump-of-smps" in text
        assert "ordering agreement" in text
        payload = json.loads(json.dumps(res.as_dict()))
        assert payload["two_level_platform"] == "clump-of-smps"
        assert len(payload["rows"]) == 3
        assert payload["worst_error"] == res.worst_error
        assert payload["ordering_agreement"] == res.ordering_agreement

    def test_ordering_agreement_counts_pairs(self):
        from repro.core.validation import ComparisonRow

        rows = (
            ComparisonRow("A", "deep", 1.0, 1.0),
            ComparisonRow("A", "flat", 2.0, 2.0),
            ComparisonRow("B", "deep", 3.0, 4.0),
            ComparisonRow("B", "flat", 4.0, 3.0),  # ranking flipped
        )
        res = TwoLevelResult(rows=rows, calibration=CAL, two_level_name="deep")
        assert res.ordering_agreement == 0.5

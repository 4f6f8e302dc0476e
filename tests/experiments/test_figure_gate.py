"""Figures 2-4 regression gate at the benchmark grids' application sizes.

Pins, per figure, the mean and worst model-vs-simulation error, the
configuration-ordering agreement and the calibration the runner picks.
A change that moves any of them changed a model or simulator answer;
work on the model-vs-simulation gap is judged against these numbers.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.experiments.figures import run_figure2, run_figure3, run_figure4
from repro.experiments.runner import DEFAULT_CALIBRATION, ExperimentRunner

#: The grid-smp and grid-cluster benchmark workloads' application sizes.
APP_KWARGS = {
    "FFT": {"points": 256},
    "LU": {"order": 32},
    "EDGE": {"height": 32, "width": 32},
    "Radix": {"num_keys": 2048, "key_bits": 16},
}

#: figure -> (mean error, worst error, ordering agreement, calibration).
#: Ordering agreement is agreeing pairs over all (app, config pair)s:
#: 4 apps x C(6,2), C(5,2) and C(4,2) pairs.
GATE = {
    2: (
        0.24767284709759496,
        0.7028309605629194,
        56 / 60,
        replace(DEFAULT_CALIBRATION, cache_capacity_factor=0.35),
    ),
    3: (
        0.34557698909037754,
        0.8403953242785897,
        34 / 40,
        replace(DEFAULT_CALIBRATION, cache_capacity_factor=1.0),
    ),
    4: (
        0.4629794792023515,
        0.8093450893290468,
        21 / 24,
        replace(
            DEFAULT_CALIBRATION,
            cache_capacity_factor=1.0,
            remote_rate_adjustment=0.124,
            false_sharing=False,
        ),
    ),
}


@pytest.fixture(scope="module")
def figures():
    runner = ExperimentRunner(jobs=1, cache_dir=None, app_kwargs=APP_KWARGS)
    return {
        2: run_figure2(runner),
        3: run_figure3(runner),
        4: run_figure4(runner),
    }


@pytest.mark.parametrize("number", sorted(GATE))
def test_figure_matches_the_gate(figures, number):
    mean, worst, ordering, calibration = GATE[number]
    result = figures[number]
    assert result.mean_error == pytest.approx(mean, rel=1e-6)
    assert result.worst_error == pytest.approx(worst, rel=1e-6)
    assert result.ordering_agreement() == ordering
    assert result.calibration == calibration

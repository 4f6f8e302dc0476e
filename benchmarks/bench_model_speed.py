"""Section 5.3's cost claim: modeling vs simulating one configuration.

The paper: model 0.5-1 s and ~100 bytes vs > 20 minutes per simulation.
Benchmarks the model evaluation directly (pytest-benchmark statistics)
and prints the measured model-vs-simulation wall-clock ratio.
"""

from conftest import report

from repro.experiments.runner import DEFAULT_CALIBRATION
from repro.experiments.speed import run_speed_comparison


def test_model_speed(benchmark, runner):
    result = run_speed_comparison(runner, app="FFT")
    report("Section 5.3: model vs simulation cost", result.describe())
    assert result.speedup > 100  # paper: three to four orders of magnitude

    from repro.experiments.configs import TABLE3_SMPS, scaled

    spec = scaled(TABLE3_SMPS[0])
    cal = DEFAULT_CALIBRATION
    benchmark(runner.model, "FFT", spec, cal)

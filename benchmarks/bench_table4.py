"""Table 4: the selected clusters of workstations C7-C11."""

from dataclasses import replace

from conftest import report

from repro.experiments.configs import TABLE4_COWS, scaled
from repro.experiments.runner import DEFAULT_CALIBRATION


def test_table4(benchmark, runner):
    lines = [f"{'name':<5s} {'N':>2s} {'cache':>7s} {'memory':>8s} {'network':<14s}"]
    for s in TABLE4_COWS:
        lines.append(
            f"{s.name:<5s} {s.N:>2d} {s.cache_bytes // 1024:>6d}K "
            f"{s.memory_bytes // (1024*1024):>7d}M {s.network.value:<14s}"
        )
    report("Table 4: selected clusters of workstations (CPU speed 200 MHz)", "\n".join(lines))

    specs = [scaled(s) for s in TABLE4_COWS]
    cal = replace(DEFAULT_CALIBRATION, remote_rate_adjustment=0.124)
    runner.characterization("FFT")
    for s in specs:
        runner.sharing("FFT", s)  # measured inputs cached outside the timer

    def model_all():
        return [runner.model("FFT", s, cal) for s in specs]

    estimates = benchmark(model_all)
    assert all(e.feasible for e in estimates)

"""Table 3: the selected SMP configurations C1-C6.

Prints the paper's rows and benchmarks one analytical-model evaluation
per configuration (the workload is the measured FFT characterization).
"""

from conftest import report

from repro.experiments.configs import TABLE3_SMPS, scaled
from repro.experiments.runner import DEFAULT_CALIBRATION


def test_table3(benchmark, runner):
    lines = [f"{'name':<5s} {'n':>2s} {'cache':>7s} {'memory':>8s}"]
    for s in TABLE3_SMPS:
        lines.append(
            f"{s.name:<5s} {s.n:>2d} {s.cache_bytes // 1024:>6d}K {s.memory_bytes // (1024*1024):>7d}M"
        )
    report("Table 3: selected SMPs (CPU speed 200 MHz)", "\n".join(lines))

    specs = [scaled(s) for s in TABLE3_SMPS]
    cal = DEFAULT_CALIBRATION
    runner.characterization("FFT")  # warm the cache outside the timer

    def model_all():
        return [runner.model("FFT", s, cal) for s in specs]

    estimates = benchmark(model_all)
    assert all(e.feasible for e in estimates)

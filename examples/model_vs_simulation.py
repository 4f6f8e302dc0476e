#!/usr/bin/env python
"""Model vs simulation on one application (the Figures 2-4 methodology).

Runs EDGE through both prediction paths on a scaled SMP, a cluster of
workstations and a cluster of SMPs, and prints the per-platform
comparison with the model's level-by-level AMAT decomposition -- the
kind of insight the closed form gives that a simulator's single number
does not.

Run:  python examples/model_vs_simulation.py
"""

import time

from repro.core.batch import ModelOptions
from repro.core.platform import PlatformSpec
from repro.experiments.runner import ExperimentRunner
from repro.sim.latencies import NetworkKind

KB, MB = 1024, 1024 * 1024

PLATFORMS = [
    PlatformSpec(name="SMP n=2", n=2, N=1, cache_bytes=4 * KB, memory_bytes=1 * MB),
    PlatformSpec(
        name="COW 4 x 100Mb", n=1, N=4, cache_bytes=4 * KB, memory_bytes=1 * MB,
        network=NetworkKind.ETHERNET_100,
    ),
    PlatformSpec(
        name="CLUMP 2 x 2 ATM", n=2, N=2, cache_bytes=4 * KB, memory_bytes=1 * MB,
        network=NetworkKind.ATM_155,
    ),
]


def main() -> None:
    runner = ExperimentRunner()
    calibration = ModelOptions(
        cache_capacity_factor=0.5, contention_boost=2.0, remote_rate_adjustment=0.124
    )

    app = "EDGE"
    print(f"application: {app}; calibration: {calibration.describe()}\n")
    for spec in PLATFORMS:
        t0 = time.perf_counter()
        sim = runner.simulate(app, spec)
        sim_dt = time.perf_counter() - t0
        t0 = time.perf_counter()
        est = runner.model(app, spec, calibration)
        model_dt = time.perf_counter() - t0

        err = abs(est.e_instr_seconds - sim.e_instr_seconds) / sim.e_instr_seconds
        print(f"== {spec.name} ==")
        print(f"  simulated E(Instr) = {sim.e_instr_seconds:.3e}s   [{sim_dt:6.2f}s wall]")
        print(f"  modeled   E(Instr) = {est.e_instr_seconds:.3e}s   [{model_dt * 1e3:6.2f}ms wall]")
        print(f"  difference {100 * err:.1f}%")
        print("  model decomposition:")
        for line in est.amat.describe().splitlines():
            print("   ", line)
        print(
            f"  simulator counters: miss {100 * sim.stats.miss_ratio:.2f}%, "
            f"remote {100 * sim.stats.remote_ratio:.3f}%, "
            f"{sim.stats.invalidations:,} invalidations"
        )
        print()


if __name__ == "__main__":
    main()

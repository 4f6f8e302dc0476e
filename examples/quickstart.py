#!/usr/bin/env python
"""Quickstart: predict a workload's performance on three platforms.

The paper's core workflow in thirty lines: describe a workload by its
(alpha, beta, gamma) characterization, describe candidate platforms by
their memory hierarchies, and let the analytical model rank them --
no simulation required.

Run:  python examples/quickstart.py
"""

import repro

KB, MB = 1024, 1024 * 1024


def main() -> None:
    # The paper's FFT workload (Table 2).
    workload = repro.PAPER_FFT
    print(f"workload: {workload.describe()}\n")

    # Three platforms of comparable hardware generation (200 MHz CPUs).
    platforms = [
        repro.PlatformSpec(
            name="4-way SMP", n=4, N=1, cache_bytes=256 * KB, memory_bytes=128 * MB
        ),
        repro.PlatformSpec(
            name="4 workstations / 100Mb Ethernet", n=1, N=4,
            cache_bytes=256 * KB, memory_bytes=64 * MB,
            network=repro.NetworkKind.ETHERNET_100,
        ),
        repro.PlatformSpec(
            name="2 x 2-way SMPs / 155Mb ATM", n=2, N=2,
            cache_bytes=256 * KB, memory_bytes=64 * MB,
            network=repro.NetworkKind.ATM_155,
        ),
    ]

    # Each platform's memory hierarchy as the model sees it (Figure 1).
    for spec in platforms:
        print(spec.hierarchy().describe())
        print()

    # Predict E(Instr) -- the paper's Eq. 4 -- on each platform.
    print(f"{'platform':<36s} {'E(Instr)':>12s} {'T (cycles/ref)':>16s}")
    estimates = []
    for spec in platforms:
        est = repro.evaluate(
            spec,
            workload.locality,
            workload.gamma,
            mode="throttled",  # self-limiting closed-system variant
            sharing_fraction=workload.sharing_at(spec.N),
            sharing_fresh_fraction=workload.sharing_fresh_fraction,
        )
        estimates.append(est)
        print(f"{spec.name:<36s} {est.e_instr_seconds:>12.3e} {est.amat.total_cycles:>16,.1f}")

    best = min(estimates, key=lambda e: e.e_instr_seconds)
    print(f"\nbest platform for {workload.name}: {best.platform_name}")


if __name__ == "__main__":
    main()

#!/usr/bin/env python
"""Design for a job mix, and price the L2 extension (library extensions).

Two capabilities beyond the paper's text, built on its own machinery:

1. **Workload mixtures** -- a machine room runs a blend of programs;
   the locality model composes linearly per reference, so the optimizer
   can design for the blend directly.
2. **Longer hierarchies** -- the paper motivates its model with "the
   memory hierarchy length continues to increase"; adding a shared L2
   (one more level, exactly the model's generic k) shows what the
   1999-era platforms were about to gain.

Run:  python examples/workload_mix.py
"""

import repro
from repro.core.execution import evaluate
from repro.cost import optimize_cluster
from repro.workloads import mix_workloads

KB, MB = 1024, 1024 * 1024


def main() -> None:
    # --- 1. a 60/25/15 science mix ------------------------------------
    mix = mix_workloads(
        [repro.PAPER_FFT, repro.PAPER_RADIX, repro.PAPER_EDGE],
        [0.60, 0.25, 0.15],
        name="science-mix",
    )
    print(mix.describe())
    result = optimize_cluster(mix, budget=15_000.0)
    print(result.describe(top=3))
    print()

    # --- 2. what would an L2 have bought? ------------------------------
    base = repro.PlatformSpec(
        name="4-way SMP (no L2)", n=4, N=1,
        cache_bytes=256 * KB, memory_bytes=64 * MB,
    )
    with_l2 = repro.PlatformSpec(
        name="4-way SMP + 2MB shared L2", n=4, N=1,
        cache_bytes=256 * KB, memory_bytes=64 * MB, l2_bytes=2 * MB,
    )
    print(f"{'platform':<28s} {'k':>3s} {'E(Instr)':>12s}")
    for spec in (base, with_l2):
        est = evaluate(spec, mix.locality, mix.gamma, mode="throttled")
        print(
            f"{spec.name:<28s} {spec.hierarchy().length:>3d} "
            f"{est.e_instr_seconds:>12.3e}"
        )
    print("\n(the L2 inserts one hierarchy level and absorbs part of the")
    print(" memory-bus traffic -- the k+1 case of the paper's generic model)")


if __name__ == "__main__":
    main()

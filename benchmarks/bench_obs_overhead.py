"""Profiling overhead: engine throughput with cycle attribution off vs on.

The exact cycle-attribution profiler (``repro.obs.profile``) promises
to be cheap enough to leave on: per simulated reference it adds a few
float accumulations into a plain dict, and the batched fast path
folds each run of hits into one accumulation.  This benchmark
holds that promise to a number.  For the FFT workload on the paper's
three platform families it measures references simulated per second
with ``profile=False`` and ``profile=True``, in both the scalar lane
and the batched fast path, and gates the worst-cell overhead at
``--max-overhead-pct`` (default imported from
:data:`repro.obs.ledger.BENCH_FLOORS`, the same ceiling the ledger
stamps into every run record).

Every profiled cell is also checked for the profiler's hard invariant
-- attributed cycles sum bit-exactly to ``P * total_cycles`` -- and
for result identity against the unprofiled run, so the benchmark
doubles as an end-to-end smoke test: a profiler that got fast by
getting wrong fails here, not in a report.

Results land in ``BENCH_obs.json`` (or ``--output``).

Run::

    PYTHONPATH=src python benchmarks/bench_obs_overhead.py [--quick]
"""

from __future__ import annotations

import argparse
import sys
import time

from bench_engine_throughput import KB, MB, _identical, _specs, provenance
from repro.apps.registry import make_application
from repro.obs.ledger import BENCH_FLOORS
from repro.sim.engine import SimulationEngine

#: Acceptance ceiling: profiling may cost at most this percentage of
#: throughput on the *worst* cell.  Shared with the run ledger so every
#: recorded run carries the regime it was gated under.
MAX_OVERHEAD_PCT = BENCH_FLOORS["obs_overhead_pct"]


def _time_once(spec, run, horizon: float, fastpath: bool, profile: bool):
    engine = SimulationEngine(
        spec, run, horizon=horizon, fastpath=fastpath, profile=profile
    )
    t0 = time.perf_counter()
    result = engine.execute()
    return result, time.perf_counter() - t0


def run_benchmark(quick: bool = False, horizon: float = 200.0) -> dict:
    points = 1024 if quick else 4096
    repeats = 2 if quick else 5
    app = make_application("FFT", num_procs=4, seed=0, points=points)
    run = app.run()
    refs = run.total_references

    cells = []
    for label, spec in _specs(256 * KB, 64 * MB):
        for fastpath in (False, True):
            # Interleave off/on and keep each mode's best time, so slow
            # drift on a shared machine penalizes both modes equally.
            off_t = on_t = float("inf")
            for _ in range(repeats):
                off_res, dt = _time_once(spec, run, horizon, fastpath, False)
                off_t = min(off_t, dt)
                on_res, dt = _time_once(spec, run, horizon, fastpath, True)
                on_t = min(on_t, dt)
            if not _identical(off_res, on_res):
                raise AssertionError(
                    f"profiling changed the simulation on {label} "
                    f"fastpath={fastpath}: {off_res.total_cycles} != "
                    f"{on_res.total_cycles}"
                )
            if on_res.profile is None or not on_res.profile.check_exact():
                raise AssertionError(
                    f"profile inexact on {label} fastpath={fastpath}: "
                    f"{on_res.profile}"
                )
            overhead_pct = (on_t / off_t - 1.0) * 100.0
            cells.append(
                {
                    "platform": label,
                    "fastpath": fastpath,
                    "off_seconds": off_t,
                    "on_seconds": on_t,
                    "off_refs_per_second": refs / off_t,
                    "on_refs_per_second": refs / on_t,
                    "overhead_pct": overhead_pct,
                    "exact": True,
                    "identical": True,
                }
            )

    return {
        "benchmark": "obs_overhead",
        "application": "FFT",
        "points": points,
        "total_references": refs,
        "horizon": horizon,
        "quick": quick,
        "max_overhead_pct": MAX_OVERHEAD_PCT,
        "provenance": provenance(),
        "cells": cells,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--quick", action="store_true",
                    help="shrink the workload for a sub-minute smoke run")
    ap.add_argument("--horizon", type=float, default=200.0)
    ap.add_argument("--output", default="BENCH_obs.json")
    ap.add_argument("--max-overhead-pct", type=float, default=MAX_OVERHEAD_PCT,
                    help="fail if the worst cell's profiling overhead "
                         "exceeds this percentage (default: %(default)s)")
    args = ap.parse_args(argv)

    payload = run_benchmark(quick=args.quick, horizon=args.horizon)

    from repro.ioutil import atomic_write_json

    atomic_write_json(args.output, payload)

    worst = max(payload["cells"], key=lambda c: c["overhead_pct"])
    for cell in payload["cells"]:
        lane = "fast" if cell["fastpath"] else "scalar"
        print(
            f"{cell['platform']:>10} {lane:>6}: "
            f"off {cell['off_refs_per_second']:>12,.0f} refs/s, "
            f"on {cell['on_refs_per_second']:>12,.0f} refs/s, "
            f"overhead {cell['overhead_pct']:+6.2f}%"
        )
    print(
        f"worst overhead {worst['overhead_pct']:+.2f}% "
        f"({worst['platform']}, fastpath={worst['fastpath']}); "
        f"ceiling {args.max_overhead_pct:.1f}%"
    )
    if worst["overhead_pct"] > args.max_overhead_pct:
        print(
            f"FAIL: profiling overhead {worst['overhead_pct']:.2f}% exceeds "
            f"the {args.max_overhead_pct:.1f}% ceiling",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Engine throughput: scalar lane vs batched fast path, plus grids.

Measures references simulated per second for the FFT workload on the
paper's three platform families, with ``fastpath`` off and on, and
verifies on every cell that the two lanes return bit-identical
:class:`SimulationResult`s.  Results land in ``BENCH_engine.json``
next to the repository root (or ``--output``).

The speedup is a ratio of two lanes that share the cache code and
index the traces the same way, so it also moves when the scalar lane
gets faster; compare the refs/s columns against the parent before
reading a lower ratio as a slower batched lane.

``--grid`` adds the grid-throughput comparison in two sections:

* ``sim_grid`` -- a quick-scale experiment grid run end-to-end through
  :class:`~repro.experiments.runner.ExperimentRunner` in-process
  (``jobs=1``) and on the process pool (``jobs=4``), with result
  identity verified cell by cell.
* ``design_wave`` -- a workloads x budgets design-search wave answered
  by one :class:`~repro.cost.search.DesignSearch` and by a fresh engine
  per query, both at ``jobs=1`` (core-count independent), with answer
  identity verified.

Simulation compute is the same on both sides of ``sim_grid`` (every
path runs the same per-cell engine), so the in-process win is
everything *around* the sims -- process-pool spawn, per-cell trace
regeneration in workers, and result pickling.  At quick scale that
overhead is most of the pool's cost.  ``design_wave``'s win is the
evaluation memo and per-budget enumeration one engine shares across a
wave's queries.  The ``--require-grid-speedup`` floors are set at a
level every supported host clears with margin; per-host peaks belong
in the JSON, not in the gate.

Run::

    PYTHONPATH=src python benchmarks/bench_engine_throughput.py [--quick] [--grid]

``--quick`` shrinks the workload for a sub-minute smoke run (used by
CI); the default size matches the paper-scale platform parameters
(256 KB caches, 64 MB memories).
"""

from __future__ import annotations

import argparse
import datetime
import json
import platform
import subprocess
import sys
import time

import numpy

from repro.apps.registry import make_application
from repro.core.platform import PlatformSpec
from repro.sim.engine import SimulationEngine
from repro.sim.latencies import NetworkKind

KB, MB = 1024, 1024 * 1024

#: Acceptance floor: the batched lane must beat the scalar lane by this
#: factor on at least the SMP cell (the paper's primary platform).
#: CI's ``tests`` job gates ``--quick`` on it.
REQUIRED_SPEEDUP = 3.0

#: Acceptance floor for ``--require-grid-speedup``: the in-process
#: grid must beat the process pool by this factor on the quick-scale
#: ``sim_grid`` section.  Measured 4.5-5.8x on a 2-core host (the
#: pool's spawn + per-cell regeneration + IPC are pure overhead); the
#: floor sits well below the typical measurement so the CI gate fails
#: on regressions, not on scheduler noise or extra cores speeding the
#: pool up.
GRID_REQUIRED_SPEEDUP = 2.0

#: The full-scale floor is lower by design, not by accident: big cells
#: are simulation-bound, simulation compute is the same in-process and
#: on the pool, and running in-process can only remove the
#: orchestration overhead around it.  Measured 1.9x on a 2-core host.
FULL_GRID_REQUIRED_SPEEDUP = 1.3

#: Same idea for the ``design_wave`` section: one engine shares
#: per-budget enumeration and the evaluation memo across a wave's
#: queries, which a fresh engine per query cannot.  Measured 2.7-2.8x
#: on the quick 40-query wave; gated at a conservative floor.
WAVE_REQUIRED_SPEEDUP = 1.3


def _git_rev() -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except OSError:
        return None
    return out.stdout.strip() or None if out.returncode == 0 else None


def provenance() -> dict:
    """Where and when this benchmark ran, for comparing BENCH files."""
    return {
        "git_rev": _git_rev(),
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"
        ),
        "hostname": platform.node(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "platform": platform.platform(),
    }


def _specs(cache_bytes: int, memory_bytes: int) -> list[tuple[str, PlatformSpec]]:
    return [
        (
            "smp",
            PlatformSpec(
                name="bench-smp", n=4, N=1,
                cache_bytes=cache_bytes, memory_bytes=memory_bytes,
            ),
        ),
        (
            "cow-atm",
            PlatformSpec(
                name="bench-cow", n=1, N=4,
                cache_bytes=cache_bytes, memory_bytes=memory_bytes,
                network=NetworkKind.ATM_155,
            ),
        ),
        (
            "clump-atm",
            PlatformSpec(
                name="bench-clump", n=2, N=2,
                cache_bytes=cache_bytes, memory_bytes=memory_bytes,
                network=NetworkKind.ATM_155,
            ),
        ),
    ]


def _time_once(spec: PlatformSpec, run, horizon: float, fastpath: bool):
    engine = SimulationEngine(spec, run, horizon=horizon, fastpath=fastpath)
    t0 = time.perf_counter()
    result = engine.execute()
    return result, time.perf_counter() - t0


def _identical(a, b) -> bool:
    return (
        a.total_cycles == b.total_cycles
        and a.per_process_cycles == b.per_process_cycles
        and a.barrier_wait_cycles == b.barrier_wait_cycles
        and a.stats.as_dict() == b.stats.as_dict()
    )


def run_benchmark(quick: bool = False, horizon: float = 200.0) -> dict:
    points = 1024 if quick else 4096
    repeats = 2 if quick else 5
    app = make_application("FFT", num_procs=4, seed=0, points=points)
    run = app.run()
    refs = run.total_references

    cells = []
    for label, spec in _specs(256 * KB, 64 * MB):
        # Interleave the lanes and keep each lane's best time, so slow
        # drift on a shared machine penalizes both lanes equally.
        scalar_t = batched_t = float("inf")
        for _ in range(repeats):
            scalar_res, dt = _time_once(spec, run, horizon, False)
            scalar_t = min(scalar_t, dt)
            batched_res, dt = _time_once(spec, run, horizon, True)
            batched_t = min(batched_t, dt)
        if not _identical(scalar_res, batched_res):
            raise AssertionError(
                f"fast path diverged from scalar on {label}: "
                f"{scalar_res.total_cycles} != {batched_res.total_cycles}"
            )
        cells.append(
            {
                "platform": label,
                "scalar_seconds": scalar_t,
                "batched_seconds": batched_t,
                "scalar_refs_per_second": refs / scalar_t,
                "batched_refs_per_second": refs / batched_t,
                "speedup": scalar_t / batched_t,
                "identical": True,
            }
        )

    return {
        "benchmark": "engine_throughput",
        "application": "FFT",
        "points": points,
        "total_references": refs,
        "horizon": horizon,
        "quick": quick,
        "provenance": provenance(),
        "cells": cells,
    }


def _grid_specs(quick: bool) -> list[PlatformSpec]:
    """The sim-grid's platform sweep: small caches-and-cells so the
    grid is orchestration-bound (the regime where the pool's overhead
    shows)."""
    cache, mem = 256 * KB, 8 * MB
    specs = [
        PlatformSpec(name="grid-smp2", n=2, N=1, cache_bytes=cache, memory_bytes=mem),
        PlatformSpec(
            name="grid-smp2-l2", n=2, N=1, cache_bytes=cache, memory_bytes=mem,
            l2_bytes=1024 * KB,
        ),
        PlatformSpec(
            name="grid-cow2", n=1, N=2, cache_bytes=cache, memory_bytes=mem,
            network=NetworkKind.ATM_155,
        ),
        PlatformSpec(name="grid-smp4", n=4, N=1, cache_bytes=cache, memory_bytes=mem),
        PlatformSpec(
            name="grid-cow4", n=1, N=4, cache_bytes=cache, memory_bytes=mem,
            network=NetworkKind.ATM_155,
        ),
        PlatformSpec(
            name="grid-clump2x2", n=2, N=2, cache_bytes=cache, memory_bytes=mem,
            network=NetworkKind.ATM_155,
        ),
        PlatformSpec(
            name="grid-cow4-eth", n=1, N=4, cache_bytes=cache, memory_bytes=mem,
            network=NetworkKind.ETHERNET_100,
        ),
        PlatformSpec(
            name="grid-smp4-big", n=4, N=1, cache_bytes=2 * cache, memory_bytes=2 * mem,
        ),
    ]
    return specs[:4] if quick else specs


def _run_sim_grid(jobs: int, cells, app_kwargs, repeats: int):
    """Best-of-``repeats`` wall time for the grid at ``jobs`` workers,
    plus the per-cell results for cross-path identity checking.

    Each repeat uses a fresh runner (no disk cache), so the pool pays
    exactly what a user-invoked grid pays: worker spawn, per-cell trace
    regeneration in the workers, and result pickling.  Keeping the best
    time per side is conservative for the in-process speedup (it
    forgives the pool its slowest spawn).
    """
    from repro.experiments.runner import ExperimentRunner
    from repro.obs.metrics import MetricsRegistry

    best = float("inf")
    rows = None
    for _ in range(repeats):
        runner = ExperimentRunner(
            app_kwargs=app_kwargs, jobs=jobs,
            metrics=MetricsRegistry(), cache_dir=None,
        )
        t0 = time.perf_counter()
        runner.prefetch_simulations(cells)
        results = [runner.simulate(name, spec) for name, spec in cells]
        best = min(best, time.perf_counter() - t0)
        rows = results
    return best, rows


def run_grid_benchmark(quick: bool = False) -> dict:
    """Grid throughput: in-process vs pool sim grids, and one shared
    engine vs a fresh engine per query on design waves."""
    from repro.cost import CandidateSpace
    from repro.cost.search import DesignQuery, DesignSearch
    from repro.obs.metrics import MetricsRegistry
    from repro.workloads.params import PAPER_WORKLOADS

    # --- sim grid -----------------------------------------------------
    app_kwargs = {"FFT": {"points": 16 if quick else 64}}
    cells = [("FFT", spec) for spec in _grid_specs(quick)]
    repeats = 2 if quick else 3
    jobs = 4  # what a multicore user would configure; pool spawns this many

    pool_t, pool_rows = _run_sim_grid(jobs, cells, app_kwargs, repeats)
    local_t, local_rows = _run_sim_grid(1, cells, app_kwargs, repeats)
    if not all(_identical(x, y) for x, y in zip(pool_rows, local_rows)):
        raise AssertionError("sim-grid results differ between pool and in-process")

    sim_grid = {
        "cells": len(cells),
        "application": "FFT",
        "app_kwargs": app_kwargs["FFT"],
        "pool_jobs": jobs,
        "pool_seconds": pool_t,
        "in_process_seconds": local_t,
        "pool_cells_per_second": len(cells) / pool_t,
        "in_process_cells_per_second": len(cells) / local_t,
        "in_process_vs_pool_speedup": pool_t / local_t,
        "identical": True,
    }

    # --- design wave --------------------------------------------------
    budgets = [6000.0 + 1500.0 * k for k in range(10 if quick else 40)]
    space = CandidateSpace(
        max_machines=6, memory_mb_options=(32, 64), cache_kb_options=(256,)
    )
    queries = [DesignQuery(w, b) for w in PAPER_WORKLOADS for b in budgets]

    def _engine():
        return DesignSearch(space=space, jobs=1, metrics=MetricsRegistry())

    # The shared engine runs first, so any first-call warm-up counts
    # against the side whose speedup is claimed.
    t0 = time.perf_counter()
    shared = _engine().run(queries)
    shared_t = time.perf_counter() - t0
    t0 = time.perf_counter()
    per_query = [_engine().run([q])[0] for q in queries]
    per_query_t = time.perf_counter() - t0
    wave_identical = all(
        a.best.spec == b.best.spec
        and a.best.e_instr_seconds == b.best.e_instr_seconds
        for a, b in zip(per_query, shared)
    )
    if not wave_identical:
        raise AssertionError(
            "design-wave answers diverged: shared engine vs fresh engine per query"
        )

    design_wave = {
        "queries": len(queries),
        "workloads": len(PAPER_WORKLOADS),
        "budgets": len(budgets),
        "per_query_seconds": per_query_t,
        "shared_seconds": shared_t,
        "per_query_queries_per_second": len(queries) / per_query_t,
        "shared_queries_per_second": len(queries) / shared_t,
        "shared_vs_per_query_speedup": per_query_t / shared_t,
        "identical": True,
    }

    return {
        "required_speedup": (
            GRID_REQUIRED_SPEEDUP if quick else FULL_GRID_REQUIRED_SPEEDUP
        ),
        "wave_required_speedup": WAVE_REQUIRED_SPEEDUP,
        "quick": quick,
        "sim_grid": sim_grid,
        "design_wave": design_wave,
    }


#: Prior-run summaries kept in the output JSON's ``history`` list.
HISTORY_LIMIT = 20


def _history_entry(payload: dict) -> dict:
    """The compact per-run record appended to the output's history."""
    entry = {
        "provenance": payload.get("provenance", {}),
        "quick": payload.get("quick"),
        "cells": [
            {"platform": c["platform"], "speedup": c["speedup"]}
            for c in payload.get("cells", [])
        ],
    }
    grid = payload.get("grid")
    if grid:
        entry["grid"] = {
            "sim_grid_speedup": grid["sim_grid"]["in_process_vs_pool_speedup"],
            "design_wave_speedup": grid["design_wave"]["shared_vs_per_query_speedup"],
        }
    return entry


def _attach_history(payload: dict, output: str, limit: int = HISTORY_LIMIT) -> None:
    """Carry forward the previous output's run history, bounded.

    Each benchmark run *appends* a provenance-stamped summary instead of
    overwriting the file's past, so ``BENCH_engine.json`` accumulates a
    comparable trajectory across commits.  A missing, corrupt, or
    pre-history output simply starts a fresh list.
    """
    history: list = []
    try:
        with open(output, encoding="utf-8") as fh:
            prev = json.load(fh)
        history = list(prev.get("history", []))
    except (OSError, ValueError):
        pass
    history.append(_history_entry(payload))
    payload["history"] = history[-limit:]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--quick", action="store_true", help="small FFT, two repeats")
    ap.add_argument("--horizon", type=float, default=200.0)
    ap.add_argument("--output", default="BENCH_engine.json")
    ap.add_argument(
        "--require-speedup", action="store_true",
        help=f"exit nonzero unless the SMP cell reaches {REQUIRED_SPEEDUP}x",
    )
    ap.add_argument(
        "--grid", action="store_true",
        help="also run the grid-throughput comparison (in-process vs pool "
        "grid, shared vs per-query design engine)",
    )
    ap.add_argument(
        "--require-grid-speedup", action="store_true",
        help=(
            "exit nonzero unless the in-process grid beats the pool by "
            f"{GRID_REQUIRED_SPEEDUP}x and the shared design engine beats a "
            f"fresh engine per query by {WAVE_REQUIRED_SPEEDUP}x (implies --grid)"
        ),
    )
    args = ap.parse_args(argv)

    payload = run_benchmark(quick=args.quick, horizon=args.horizon)
    if args.grid or args.require_grid_speedup:
        payload["grid"] = run_grid_benchmark(quick=args.quick)
    from repro.ioutil import atomic_write_json

    _attach_history(payload, args.output)
    atomic_write_json(args.output, payload)

    for cell in payload["cells"]:
        print(
            f"{cell['platform']:10s} scalar {cell['scalar_refs_per_second']:>10,.0f} refs/s"
            f"  batched {cell['batched_refs_per_second']:>10,.0f} refs/s"
            f"  speedup {cell['speedup']:.2f}x  identical={cell['identical']}"
        )
    if "grid" in payload:
        sg, dw = payload["grid"]["sim_grid"], payload["grid"]["design_wave"]
        print(
            f"sim grid    pool {sg['pool_cells_per_second']:>8.1f} cells/s"
            f"  in-process {sg['in_process_cells_per_second']:>8.1f} cells/s"
            f"  speedup {sg['in_process_vs_pool_speedup']:.2f}x"
            f"  identical={sg['identical']}"
        )
        print(
            f"design wave per-query {dw['per_query_queries_per_second']:>7.1f} q/s"
            f"  shared {dw['shared_queries_per_second']:>8.1f} q/s"
            f"  speedup {dw['shared_vs_per_query_speedup']:.2f}x"
            f"  identical={dw['identical']}"
        )
    print(f"wrote {args.output}")

    failed = False
    if args.require_speedup:
        smp = next(c for c in payload["cells"] if c["platform"] == "smp")
        if smp["speedup"] < REQUIRED_SPEEDUP:
            print(
                f"FAIL: SMP speedup {smp['speedup']:.2f}x < {REQUIRED_SPEEDUP}x",
                file=sys.stderr,
            )
            failed = True
    if args.require_grid_speedup:
        sg, dw = payload["grid"]["sim_grid"], payload["grid"]["design_wave"]
        floor = payload["grid"]["required_speedup"]
        if sg["in_process_vs_pool_speedup"] < floor:
            print(
                "FAIL: sim-grid in-process speedup "
                f"{sg['in_process_vs_pool_speedup']:.2f}x < {floor}x",
                file=sys.stderr,
            )
            failed = True
        if dw["shared_vs_per_query_speedup"] < WAVE_REQUIRED_SPEEDUP:
            print(
                "FAIL: design-wave shared-engine speedup "
                f"{dw['shared_vs_per_query_speedup']:.2f}x < {WAVE_REQUIRED_SPEEDUP}x",
                file=sys.stderr,
            )
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

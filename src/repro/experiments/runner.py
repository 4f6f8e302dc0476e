"""Experiment orchestration: run apps, characterize, simulate, model.

The validation methodology (paper Section 5) needs, per application:
one single-process run for the Table 2 characterization, one run at
each processor count appearing in the platform tables, a simulation per
(application, configuration) cell, and a model evaluation per cell.
:class:`ExperimentRunner` memoizes every stage.

Simulation cells are independent of each other, so :meth:`compare` and
:meth:`calibrate` fan uncached cells out over a ``concurrent.futures``
process pool (``jobs`` workers, default ``os.cpu_count()``).  Results
are additionally persisted under ``.repro_cache/sim/<sha256>.pkl``
(:mod:`repro.diskcache`), keyed on everything that determines the
outcome -- application name and constructor overrides, seed, engine
horizon, the full platform spec, sampling, faults and profiling -- plus
the package source, so re-running a grid reloads finished cells
instead of resimulating them.

The model's free constants are a :class:`~repro.core.batch.ModelOptions`,
the type the design engine takes too.  The paper calibrates exactly
one of them (the 12.4% remote-access-rate adjustment); our scaled-down
reproduction exposes three more (cache associativity derating,
burstiness boost, barrier scale -- see DESIGN.md) and
:meth:`ExperimentRunner.calibrate` picks one global setting per figure
by grid search against the simulator, precisely the procedure the
authors describe for their adjustment.  :data:`DEFAULT_CALIBRATION` is
the setting an experiment uses without self-calibration.
"""

from __future__ import annotations

import itertools
import json
import os
from dataclasses import replace
from typing import Iterable, Sequence

import numpy as np

from repro.apps.base import ApplicationRun
from repro.apps.registry import make_application
from repro.core.batch import ModelOptions, e_instr_seconds_batch
from repro.core.execution import ExecutionEstimate, evaluate
from repro.core.platform import PlatformSpec
from repro.core.validation import ComparisonRow
from repro.diskcache import DiskCache
from repro.experiments.configs import SCALE
from repro.faults.plan import FaultPlan
from repro.obs import metrics as obs_metrics
from repro.obs.log import get_logger
from repro.obs.spans import Span, Tracer, get_tracer
from repro.pool import FaultTolerantPool
from repro.sim.engine import SimulationEngine, SimulationResult
from repro.trace.analysis import analyze_trace, measure_sharing
from repro.workloads.params import WorkloadParams

__all__ = ["ExperimentRunner", "DEFAULT_CALIBRATION"]

_log = get_logger("repro.experiments.runner")


def _chaos_fire(var: str) -> bool:
    """Deterministic fault hook for the resilience suite and CI smoke.

    When the environment variable ``var`` names a marker path, exactly
    one caller across every process claims it (``O_CREAT | O_EXCL`` is
    atomic on every platform we run on) and returns True; everyone else
    -- including the retry of the sabotaged cell -- sees False.  Unset
    means never fire, so production runs pay one dict lookup.
    """
    target = os.environ.get(var)
    if not target:
        return False
    try:
        fd = os.open(target, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except OSError:
        return False
    os.close(fd)
    return True


def _simulate_cell(
    args: tuple[
        str, int, dict, PlatformSpec, float, float | None, FaultPlan | None, bool
    ]
) -> tuple[SimulationResult, dict]:
    """Pool worker: one (app, config) simulation.  Module-level for
    pickling.  The application run is regenerated in the worker rather
    than shipped -- trace generation is a deterministic function of
    (name, procs, seed, kwargs), and :class:`ApplicationRun` holds
    unpicklable address-space closures.  Returns the result plus the
    worker's span (serialized) so the parent's trace covers pool work.

    The ``REPRO_CHAOS_*_ONCE`` hooks let the resilience tests and the
    CI fault smoke sabotage exactly one cell attempt (hard crash,
    raised exception, or interrupt) without monkeypatching across
    process boundaries.
    """
    if _chaos_fire("REPRO_CHAOS_CRASH_ONCE"):
        os._exit(3)  # simulate a worker killed mid-cell (OOM, SIGKILL)
    if _chaos_fire("REPRO_CHAOS_RAISE_ONCE"):
        raise RuntimeError("injected failure (REPRO_CHAOS_RAISE_ONCE)")
    if _chaos_fire("REPRO_CHAOS_INTERRUPT_ONCE"):
        raise KeyboardInterrupt
    name, seed, kwargs, spec, horizon, sample_every, fault_plan, profile = args
    tracer = Tracer()
    with tracer.span(
        f"simulate:{name}@{spec.name}", worker=os.getpid(), procs=spec.total_processors
    ):
        app = make_application(
            name, num_procs=spec.total_processors, seed=seed, **kwargs
        )
        run = app.run()
        if not run.verified:
            raise RuntimeError(f"{name} at {run.num_procs} processes failed its numeric oracle")
        result = SimulationEngine(
            spec,
            run,
            horizon=horizon,
            sample_every=sample_every,
            fault_plan=fault_plan,
            profile=profile,
        ).execute()
    return result, tracer.roots[0].to_obj()


#: Used when an experiment is run without self-calibration.
DEFAULT_CALIBRATION = ModelOptions(cache_capacity_factor=0.5, remote_rate_adjustment=0.0)


class ExperimentRunner:
    """Memoizing pipeline behind every experiment module."""

    def __init__(
        self,
        seed: int = 0,
        horizon: float = 200.0,
        app_kwargs: dict[str, dict] | None = None,
        jobs: int | None = None,
        cache_dir: str | os.PathLike | None = ".repro_cache",
        sample_every: float | None = None,
        metrics: "obs_metrics.MetricsRegistry | None" = None,
        fault_plan: FaultPlan | None = None,
        cell_timeout: float | None = None,
        max_retries: int = 2,
        retry_backoff: float = 0.25,
        profile: bool = False,
    ) -> None:
        """``app_kwargs`` overrides application constructor arguments per
        name (e.g. smaller problem sizes in the test suite).

        ``jobs`` bounds the process pool used to simulate independent
        (app, config) cells; ``None`` means ``os.cpu_count()`` and ``1``
        disables the pool (:meth:`prefetch_simulations` says how a grid
        picks in-process or pool).  ``cache_dir`` is where simulation
        results persist across processes and runs; ``None`` disables
        the disk cache.

        ``sample_every`` (simulated cycles) makes every simulation carry
        a per-window :class:`~repro.obs.timeline.Timeline`; it is part
        of the disk-cache key.  ``metrics`` is the registry the runner
        reports its disk-cache effectiveness into (default: the
        process-default :data:`repro.obs.metrics.REGISTRY`).

        ``fault_plan`` runs every simulation under the given injected
        faults (see :mod:`repro.faults`); it is part of the disk-cache
        key, so faulted and clean grids never mix.  ``cell_timeout``
        (wall seconds, ``None`` = unlimited) bounds each pooled cell;
        when a cell exceeds it the pool is abandoned and the remaining
        cells run serially.  A cell attempt that fails is retried up to
        ``max_retries`` times with exponential backoff starting at
        ``retry_backoff`` seconds before the failure becomes an error.

        ``profile=True`` makes every simulation carry an exact
        :class:`~repro.obs.profile.CycleProfile` (see
        :meth:`profiles`); it is part of the disk-cache key.
        """
        self.seed = seed
        self.horizon = horizon
        self.app_kwargs = app_kwargs or {}
        self.jobs = jobs if jobs is not None else (os.cpu_count() or 1)
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")
        if sample_every is not None and sample_every <= 0:
            raise ValueError("sample_every must be positive (or None to disable)")
        self.sample_every = sample_every
        self.fault_plan = fault_plan
        self.profile = bool(profile)
        self.cell_timeout = cell_timeout
        self.max_retries = max_retries
        self.retry_backoff = retry_backoff
        self.metrics = metrics if metrics is not None else obs_metrics.REGISTRY
        self._cache = DiskCache(cache_dir, self.metrics)
        self._cell_retries = self.metrics.counter(
            "repro_cell_retries_total",
            "Simulation-cell attempts retried after a failure",
        )
        self._pool_degradations = self.metrics.counter(
            "repro_pool_degradations_total",
            "Times a broken or timed-out process pool fell back to serial",
        )
        #: Lane the most recent :meth:`prefetch_simulations` grid used,
        #: ``"serial"`` or ``"pool"`` (``None`` until a grid ran); also
        #: recorded per grid in the ``repro_grid_lane_total{lane}``
        #: counter.
        self.last_grid_lane: str | None = None
        self._grid_lane_total = self.metrics.counter(
            "repro_grid_lane_total",
            "Experiment grids executed, by chosen execution lane",
            labelnames=("lane",),
        )
        # Knob validation (cell_timeout / max_retries / retry_backoff)
        # lives in the shared pool since PR 4.  Backoff jitter is seeded
        # from the cell seed so retry timing replays bit-identically.
        self._pool = FaultTolerantPool(
            self.jobs,
            max_retries=max_retries,
            retry_backoff=retry_backoff,
            task_timeout=cell_timeout,
            retries=self._cell_retries,
            degradations=self._pool_degradations,
            kind="cell",
            jitter_seed=self.seed,
        )
        self._runs: dict[tuple[str, int], ApplicationRun] = {}
        self._chars: dict[str, WorkloadParams] = {}
        self._sharing: dict[tuple[str, int, int], tuple[float, float]] = {}
        self._sims: dict[tuple[str, str], SimulationResult] = {}

    # ------------------------------------------------------------------
    # disk-cache keys: every input that determines the value
    # ------------------------------------------------------------------
    def _sim_key(self, name: str, spec: PlatformSpec) -> tuple:
        return (
            name,
            sorted(self.app_kwargs.get(name, {}).items()),
            self.seed,
            float(self.horizon),
            json.dumps(spec.to_dict(), sort_keys=True),
            None if self.sample_every is None else float(self.sample_every),
            self.fault_plan.cache_key() if self.fault_plan else None,
            self.profile,
        )

    def _app_key(self, name: str, *extra) -> tuple:
        """Key of derived per-app results (characterization, sharing) --
        everything that determines them except the platform."""
        return (name, sorted(self.app_kwargs.get(name, {}).items()), self.seed, extra)

    # ------------------------------------------------------------------
    def application_run(self, name: str, procs: int) -> ApplicationRun:
        key = (name, procs)
        if key not in self._runs:
            app = make_application(
                name, num_procs=procs, seed=self.seed, **self.app_kwargs.get(name, {})
            )
            run = app.run()
            if not run.verified:
                raise RuntimeError(f"{name} at {procs} processes failed its numeric oracle")
            self._runs[key] = run
        return self._runs[key]

    def characterization(self, name: str) -> WorkloadParams:
        """Table 2 methodology: fit (alpha, beta, gamma) on one processor."""
        if name not in self._chars:
            disk_key = self._app_key(name)
            params = self._cache.load("char", disk_key, WorkloadParams)
            if params is None:
                with get_tracer().span(f"characterize:{name}"):
                    run = self.application_run(name, 1)
                    ch = analyze_trace(
                        run.traces[0], name=name, problem_size=run.problem_size
                    )
                    params = ch.params
                self._cache.store("char", disk_key, params)
            self._chars[name] = params
        return self._chars[name]

    def sharing(
        self, name: str, spec: PlatformSpec, include_false_sharing: bool = True
    ) -> tuple[float, float]:
        """Measured (sharing, fresh) of the app at this platform shape."""
        if spec.N < 2:
            return 0.0, 1.0
        key = (name, spec.total_processors, spec.N, include_false_sharing)
        if key not in self._sharing:
            disk_key = self._app_key(name, *key[1:])
            value = self._cache.load("sharing", disk_key, tuple)
            if value is None:
                with get_tracer().span(f"sharing:{name}@N{spec.N}"):
                    run = self.application_run(name, spec.total_processors)
                    value = measure_sharing(
                        run, machines=spec.N, include_false_sharing=include_false_sharing
                    )
                self._cache.store("sharing", disk_key, value)
            self._sharing[key] = value
        return self._sharing[key]

    def simulate(self, name: str, spec: PlatformSpec) -> SimulationResult:
        key = (name, spec.name)
        if key not in self._sims:
            disk_key = self._sim_key(name, spec)
            result = self._cache.load("sim", disk_key, SimulationResult)
            if result is None:
                result = self._run_cell(name, spec)
                self._cache.store("sim", disk_key, result)
            self._sims[key] = result
        return self._sims[key]

    def _run_cell(self, name: str, spec: PlatformSpec) -> SimulationResult:
        """Simulate one cell in-process, reusing the run memo."""
        run = self.application_run(name, spec.total_processors)
        with get_tracer().span(
            f"simulate:{name}@{spec.name}", procs=spec.total_processors
        ):
            result = SimulationEngine(
                spec,
                run,
                horizon=self.horizon,
                sample_every=self.sample_every,
                fault_plan=self.fault_plan,
                profile=self.profile,
            ).execute()
        _log.debug(
            "simulated cell", app=name, spec=spec.name,
            cycles=f"{result.total_cycles:.0f}",
        )
        return result

    def timelines(self) -> dict[str, "object"]:
        """``app@platform -> Timeline`` for every sampled cell so far."""
        return {
            f"{app}@{spec_name}": r.timeline
            for (app, spec_name), r in sorted(self._sims.items())
            if r.timeline is not None
        }

    def profiles(self) -> dict[str, "object"]:
        """``app@platform -> CycleProfile`` for every profiled cell so far."""
        return {
            f"{app}@{spec_name}": r.profile
            for (app, spec_name), r in sorted(self._sims.items())
            if r.profile is not None
        }

    def merged_profile(self) -> "object | None":
        """One :class:`~repro.obs.profile.CycleProfile` over every
        profiled cell so far (``None`` when nothing was profiled).
        Bucket-wise sums stay exact, so the merged profile's attributed
        cycles still equal the summed per-cell totals bit-exactly."""
        from repro.obs.profile import CycleProfile

        return CycleProfile.merged(self.profiles().values())

    def prefetch_simulations(
        self, cells: Sequence[tuple[str, PlatformSpec]]
    ) -> None:
        """Fill the simulation memo for every (app, spec) cell, using the
        disk cache first and simulating whatever remains.

        Uncached cells go to the process pool when ``jobs > 1`` and more
        than one cell needs work; otherwise they are simulated eagerly
        in-process, sharing the ``(name, procs)`` application-run memo.
        The chosen lane (``"pool"`` or ``"serial"``) is recorded in
        ``repro_grid_lane_total{lane}`` and :attr:`last_grid_lane`.
        Cells are independent simulations, so both lanes return results
        bit-identical to ``simulate`` calls.

        Either way every finished cell is checkpointed to the disk
        cache *immediately*, so an interrupted grid resumes from exactly
        the cells it completed.  The pool additionally retries failed
        cell attempts with exponential backoff, and a broken or
        deadline-blown pool degrades to serial execution of the
        remaining cells instead of failing the grid.
        """
        todo: list[tuple[str, PlatformSpec]] = []
        seen: set[tuple[str, str]] = set()
        for name, spec in cells:
            key = (name, spec.name)
            if key in self._sims or key in seen:
                continue
            result = self._cache.load("sim", self._sim_key(name, spec), SimulationResult)
            if result is not None:
                self._sims[key] = result
            else:
                seen.add(key)
                todo.append((name, spec))
        lane = "pool" if self.jobs > 1 and len(todo) > 1 else "serial"
        self.last_grid_lane = lane
        self._grid_lane_total.labels(lane=lane).inc()
        if not todo:
            return
        tracer = get_tracer()
        _log.debug("prefetching cells", todo=len(todo), jobs=self.jobs, lane=lane)
        with tracer.span(f"prefetch:{len(todo)}cells", jobs=self.jobs, lane=lane):
            if lane == "serial":
                for name, spec in todo:
                    self._finish_cell(name, spec, self._run_cell(name, spec))
                return
            tasks = [
                (f"{name}@{spec.name}", self._cell_args(name, spec))
                for name, spec in todo
            ]
            self._pool.run(
                _simulate_cell,
                tasks,
                lambda i, value: self._finish_cell(*todo[i], *value, tracer),
            )

    # -- pool plumbing (retry/degrade/kill live in repro.pool) -----------
    def _cell_args(self, name: str, spec: PlatformSpec) -> tuple:
        return (
            name,
            self.seed,
            self.app_kwargs.get(name, {}),
            spec,
            self.horizon,
            self.sample_every,
            self.fault_plan,
            self.profile,
        )

    def _finish_cell(self, name, spec, result, span_obj=None, tracer=None) -> None:
        """Memoize and checkpoint one completed cell."""
        self._sims[(name, spec.name)] = result
        self._cache.store("sim", self._sim_key(name, spec), result)
        if span_obj is not None:
            tracer.attach(Span.from_obj(span_obj))

    def model(
        self, name: str, spec: PlatformSpec, calibration: ModelOptions
    ) -> ExecutionEstimate:
        params = self.characterization(name)
        # Sharing off reads no measured pair, so none is measured.
        sharing = (
            self.sharing(name, spec, calibration.false_sharing)
            if calibration.use_sharing
            else (0.0, 1.0)
        )
        case = calibration.case(spec, *sharing)
        return evaluate(
            spec,
            params.locality,
            params.gamma,
            remote_rate_adjustment=case.remote_rate_adjustment,
            sharing_fraction=case.sharing_fraction,
            sharing_fresh_fraction=case.sharing_fresh_fraction,
            **calibration.batch_knobs,
        )

    # ------------------------------------------------------------------
    def compare(
        self,
        apps: Sequence[str],
        specs: Sequence[PlatformSpec],
        calibration: ModelOptions,
    ) -> list[ComparisonRow]:
        """Model and simulate every (app, config) cell of a figure."""
        self.prefetch_simulations([(app, spec) for app in apps for spec in specs])
        rows = []
        for app in apps:
            for spec in specs:
                sim = self.simulate(app, spec)
                est = self.model(app, spec, calibration)
                rows.append(
                    ComparisonRow(
                        application=app,
                        configuration=spec.name,
                        modeled=est.e_instr_seconds,
                        simulated=sim.e_instr_seconds,
                    )
                )
        return rows

    def calibrate(
        self,
        apps: Iterable[str],
        specs: Iterable[PlatformSpec],
        cache_factors: Iterable[float] = (1.0, 0.7, 0.5, 0.35),
        boosts: Iterable[float] = (1.0, 2.0, 4.0, 8.0),
        barrier_scales: Iterable[float] = (0.0, 0.25, 1.0),
        adjustments: Iterable[float] = (0.0,),
        false_sharing_options: Iterable[bool] = (True, False),
    ) -> tuple[ModelOptions, float]:
        """Grid-search the global constants against the simulator.

        Minimizes the worst-case relative error over every cell -- the
        same criterion the paper's single 12.4% adjustment was chosen
        by -- keeping the first minimum in grid order.  Simulations are
        cached, and each cell's model answer is exactly :meth:`model`'s:
        one :func:`~repro.core.batch.e_instr_seconds_batch`
        call per (cache factor, boost, barrier scale, app) covers every
        (adjustment, false-sharing option, spec) case, and each
        platform's hierarchy is folded once per cache factor.
        """
        apps, specs = tuple(apps), tuple(specs)
        self.prefetch_simulations([(app, spec) for app in apps for spec in specs])
        sims = {
            app: np.array([self.simulate(app, spec).e_instr_seconds for spec in specs])
            for app in apps
        }
        needs_fs = any(spec.N > 1 for spec in specs)
        fs_options = tuple(false_sharing_options) if needs_fs else (True,)
        tails = list(itertools.product(adjustments, fs_options))
        hierarchies: dict = {}
        best: tuple[ModelOptions, float] | None = None
        for kappa, boost, bscale in itertools.product(cache_factors, boosts, barrier_scales):
            knobs = ModelOptions(
                cache_capacity_factor=kappa, contention_boost=boost, barrier_scale=bscale
            )
            grid = [
                replace(knobs, remote_rate_adjustment=adj, false_sharing=fs)
                for adj, fs in tails
            ]
            worst = np.zeros(len(grid))
            for app in apps:
                params = self.characterization(app)
                est = e_instr_seconds_batch(
                    [
                        cal.case(spec, *self.sharing(app, spec, cal.false_sharing))
                        for cal in grid
                        for spec in specs
                    ],
                    params.locality,
                    params.gamma,
                    hierarchy_memo=hierarchies,
                    **knobs.batch_knobs,
                ).reshape(len(grid), len(specs))
                # A saturated (inf) estimate makes its point's error inf.
                err = np.abs(est - sims[app]) / sims[app]
                worst = np.maximum(worst, err.max(axis=1, initial=0.0))
            for cal, cal_worst in zip(grid, worst.tolist()):
                if best is None or cal_worst < best[1]:
                    best = (cal, cal_worst)
        assert best is not None
        return best

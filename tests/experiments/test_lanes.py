"""How ``jobs`` routes a grid or a design wave, and how the choice shows.

``jobs`` alone picks the path: uncached grid cells go to the process
pool when ``jobs > 1`` and more than one cell needs work, and are
simulated in-process otherwise; a design wave runs in-process at
``jobs <= 1``.  The chosen lane (``serial`` or ``pool``) lands in
``repro_grid_lane_total{lane}`` / ``design_wave_lane_total{lane}`` and
the run report, and a ``jobs=1`` grid must never spawn a process pool
(asserted through ``FaultTolerantPool.pools_spawned``, not timing).
Both paths return the same rows, and the disk cache written by one
serves the other (per-cell keys do not depend on the path).
"""

from __future__ import annotations

from repro.core.platform import PlatformSpec
from repro.experiments.runner import DEFAULT_CALIBRATION, ExperimentRunner
from repro.obs.metrics import MetricsRegistry
from repro.sim.latencies import NetworkKind

KB = 1024

APPS = ["EDGE", "FFT"]
SPECS = [
    PlatformSpec(name="l-smp", n=2, N=1, cache_bytes=2 * KB, memory_bytes=256 * KB),
    PlatformSpec(
        name="l-cow", n=1, N=2, cache_bytes=2 * KB, memory_bytes=256 * KB,
        network=NetworkKind.ETHERNET_100,
    ),
]
CELLS = [(name, spec) for name in APPS for spec in SPECS]


def _runner(small_app_kwargs, **kwargs) -> ExperimentRunner:
    kwargs.setdefault("metrics", MetricsRegistry())
    return ExperimentRunner(app_kwargs=small_app_kwargs, **kwargs)


def _lane_counts(registry, name: str) -> dict[str, int]:
    counter = registry.get(name)
    return {labels["lane"]: int(s.value) for labels, s in counter.samples()}


class TestRunnerLanes:
    def test_jobs1_never_spawns_a_pool(self, small_app_kwargs):
        """A single-job grid simulates every cell in-process, eagerly."""
        runner = _runner(small_app_kwargs, jobs=1, cache_dir=None)
        runner.prefetch_simulations(CELLS)
        assert runner._pool.pools_spawned == 0
        assert runner.last_grid_lane == "serial"
        assert _lane_counts(runner.metrics, "repro_grid_lane_total") == {"serial": 1}
        assert set(runner._sims) == {(name, spec.name) for name, spec in CELLS}

    def test_multicore_grid_uses_the_pool(self, small_app_kwargs):
        runner = _runner(small_app_kwargs, jobs=2, cache_dir=None)
        runner.prefetch_simulations(CELLS)
        assert runner.last_grid_lane == "pool"
        assert runner._pool.pools_spawned == 1

    def test_chosen_lane_recorded_in_metrics(self, small_app_kwargs):
        """Each grid counts the lane it took: one cell in-process, then
        several on the pool, on the same runner."""
        runner = _runner(small_app_kwargs, jobs=2, cache_dir=None)
        runner.prefetch_simulations(CELLS[:1])
        runner.prefetch_simulations(CELLS[1:])
        assert runner.last_grid_lane == "pool"
        assert _lane_counts(runner.metrics, "repro_grid_lane_total") == {
            "serial": 1, "pool": 1,
        }

    def test_report_header_names_the_lane(self, small_app_kwargs):
        from repro.experiments.reporting import _lane_summary

        runner = _runner(small_app_kwargs, jobs=1, cache_dir=None)
        runner.prefetch_simulations(CELLS)
        line = _lane_summary(runner)
        assert "`jobs=1`" in line
        assert "serial: 1" in line
        # stub runners (reporting tests) degrade to no line at all
        assert _lane_summary(object()) == ""

    def test_single_cell_grid_runs_serial(self, small_app_kwargs):
        runner = _runner(small_app_kwargs, jobs=2, cache_dir=None)
        runner.prefetch_simulations(CELLS[:1])
        assert runner.last_grid_lane == "serial"
        assert runner._pool.pools_spawned == 0

    def test_pool_rows_equal_in_process_rows(self, small_app_kwargs):
        cal = DEFAULT_CALIBRATION
        in_process = _runner(small_app_kwargs, jobs=1, cache_dir=None)
        pooled = _runner(small_app_kwargs, jobs=2, cache_dir=None)
        assert pooled.compare(APPS, SPECS, cal) == in_process.compare(APPS, SPECS, cal)
        assert pooled.last_grid_lane == "pool"

    def test_pool_cache_serves_in_process_runner(self, small_app_kwargs, tmp_path):
        """A pooled grid warms the disk cache for an in-process runner,
        which then never simulates (proved by breaking simulation, not
        by timing)."""
        writer = _runner(small_app_kwargs, jobs=2, cache_dir=tmp_path)
        writer.prefetch_simulations(CELLS)
        assert writer.last_grid_lane == "pool"

        reader = _runner(small_app_kwargs, jobs=1, cache_dir=tmp_path)

        def _boom(*a, **kw):  # pragma: no cover - must never run
            raise AssertionError("warm-cache run tried to simulate")

        reader.application_run = _boom
        reader.prefetch_simulations(CELLS)
        for name, spec in CELLS:
            assert reader.simulate(name, spec) == writer.simulate(name, spec)


class TestDesignLanes:
    SPACE_KW = dict(
        max_machines=4, memory_mb_options=(32,), cache_kb_options=(256,)
    )

    def _queries(self):
        from repro.cost.search import DesignQuery
        from repro.workloads.params import PAPER_FFT, PAPER_LU

        return [
            DesignQuery(w, b)
            for w in (PAPER_FFT, PAPER_LU)
            for b in (8000.0, 15000.0, 30000.0)
        ]

    def _wave(self, queries, jobs, registry=None):
        from repro.cost import CandidateSpace
        from repro.cost.search import DesignSearch

        engine = DesignSearch(
            space=CandidateSpace(**self.SPACE_KW), jobs=jobs,
            metrics=registry if registry is not None else MetricsRegistry(),
        )
        return engine.run(queries)

    @staticmethod
    def _same_answers(left, right):
        assert len(left) == len(right)
        for a, b in zip(left, right):
            assert a.best.spec == b.best.spec
            assert a.best.e_instr_seconds == b.best.e_instr_seconds

    def test_single_job_wave_matches_fresh_engine_per_query(self):
        """A ``jobs=1`` wave answers in-process on one shared memo,
        exactly as a fresh engine per query would."""
        queries = self._queries()
        self._same_answers(
            self._wave(queries, jobs=1),
            [self._wave([q], jobs=1)[0] for q in queries],
        )

    def test_single_job_wave_matches_pool_answers(self):
        queries = self._queries()
        self._same_answers(self._wave(queries, jobs=1), self._wave(queries, jobs=2))

    def test_wave_lane_recorded_in_metrics(self):
        from repro.cost.search import DesignQuery
        from repro.workloads.params import PAPER_FFT

        registry = MetricsRegistry()
        self._wave([DesignQuery(PAPER_FFT, 8000.0)], jobs=1, registry=registry)
        assert _lane_counts(registry, "design_wave_lane_total") == {"serial": 1}

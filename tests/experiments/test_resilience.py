"""Fault tolerance of the experiment harness.

Every failure mode the runner claims to survive is exercised for real:
corrupt cache entries are quarantined and recomputed, a worker raising
is retried, a worker killed mid-cell degrades the pool to serial, an
interrupt mid-grid leaves checkpoints a fresh runner resumes from, and
a permanently failing cell surfaces as an error instead of a hang.

Cross-process sabotage uses the ``REPRO_CHAOS_*_ONCE`` hooks: the env
var names a marker path and exactly one worker attempt claims it, so
each scenario fires deterministically once per test.
"""

from __future__ import annotations

import itertools
import multiprocessing
import pickle
import time

import pytest

from repro.experiments.runner import DEFAULT_CALIBRATION, ExperimentRunner
from repro.obs.metrics import MetricsRegistry
from tests.experiments.test_runner_parallel import APPS, SPECS

CAL = DEFAULT_CALIBRATION


def _runner(small_app_kwargs, **kwargs) -> ExperimentRunner:
    kwargs.setdefault("retry_backoff", 0.0)
    # A private registry per runner so counter assertions are not
    # polluted by other tests sharing the process-default REGISTRY.
    kwargs.setdefault("metrics", MetricsRegistry())
    return ExperimentRunner(app_kwargs=small_app_kwargs, **kwargs)


def _corrupt_count(runner: ExperimentRunner, kind: str) -> float:
    return runner.metrics.get("repro_cache_corrupt_total").labels(kind=kind).value


@pytest.fixture(scope="module")
def expected_rows(small_app_kwargs):
    """The uninterrupted grid every resilience scenario must reproduce."""
    return _runner(small_app_kwargs, jobs=1, cache_dir=None).compare(APPS, SPECS, CAL)


class TestQuarantine:
    def _poison(self, path, data=b"\x80\x04 this is not a pickle"):
        path.write_bytes(data)
        return data

    def test_corrupt_sim_entry_recomputed_and_quarantined(
        self, small_app_kwargs, tmp_path
    ):
        cold = _runner(small_app_kwargs, jobs=1, cache_dir=tmp_path)
        expected = cold.simulate("EDGE", SPECS[0])
        (entry,) = (tmp_path / "sim").glob("*.pkl")
        garbage = self._poison(entry)

        warm = _runner(small_app_kwargs, jobs=1, cache_dir=tmp_path)
        result = warm.simulate("EDGE", SPECS[0])
        assert result == expected  # recomputed, not aborted
        assert _corrupt_count(warm, "sim") == 1

        # The bytes moved aside intact for post-mortem inspection and
        # the slot was rewritten with a good entry.
        quarantined = tmp_path / "quarantine" / f"sim-{entry.name}"
        assert quarantined.read_bytes() == garbage
        assert pickle.loads(entry.read_bytes()) == expected

    def test_truncated_pickle_is_treated_as_corrupt(
        self, small_app_kwargs, tmp_path
    ):
        cold = _runner(small_app_kwargs, jobs=1, cache_dir=tmp_path)
        expected = cold.characterization("EDGE")
        (entry,) = (tmp_path / "char").glob("*.pkl")
        entry.write_bytes(entry.read_bytes()[:-7])  # torn write

        warm = _runner(small_app_kwargs, jobs=1, cache_dir=tmp_path)
        assert warm.characterization("EDGE") == expected
        assert _corrupt_count(warm, "char") == 1
        assert (tmp_path / "quarantine" / f"char-{entry.name}").exists()

    def test_missing_file_is_an_ordinary_miss_not_corruption(
        self, small_app_kwargs, tmp_path
    ):
        runner = _runner(small_app_kwargs, jobs=1, cache_dir=tmp_path)
        runner.simulate("EDGE", SPECS[0])
        assert _corrupt_count(runner, "sim") == 0
        assert not (tmp_path / "quarantine").exists()


class TestPoolFailures:
    def test_worker_raising_is_retried(
        self, small_app_kwargs, tmp_path, monkeypatch, expected_rows
    ):
        monkeypatch.setenv("REPRO_CHAOS_RAISE_ONCE", str(tmp_path / "raise.marker"))
        runner = _runner(small_app_kwargs, jobs=2, cache_dir=None)
        assert runner.compare(APPS, SPECS, CAL) == expected_rows
        assert runner.metrics.get("repro_cell_retries_total").value == 1

    def test_worker_killed_mid_cell_degrades_to_serial(
        self, small_app_kwargs, tmp_path, monkeypatch, expected_rows
    ):
        monkeypatch.setenv("REPRO_CHAOS_CRASH_ONCE", str(tmp_path / "crash.marker"))
        runner = _runner(small_app_kwargs, jobs=2, cache_dir=None)
        assert runner.compare(APPS, SPECS, CAL) == expected_rows
        assert runner.metrics.get("repro_pool_degradations_total").value == 1

    def test_cell_timeout_degrades_to_serial(
        self, small_app_kwargs, monkeypatch, expected_rows
    ):
        # No cell can finish in a millisecond, so the first deadline
        # check abandons the pool and the grid completes serially.
        runner = _runner(
            small_app_kwargs, jobs=2, cache_dir=None, cell_timeout=0.001
        )
        assert runner.compare(APPS, SPECS, CAL) == expected_rows
        assert runner.metrics.get("repro_pool_degradations_total").value == 1

    def test_permanent_failure_raises_instead_of_hanging(
        self, small_app_kwargs, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_CHAOS_RAISE_ONCE", str(tmp_path / "raise.marker"))
        runner = _runner(
            small_app_kwargs, jobs=2, cache_dir=None, max_retries=0
        )
        with pytest.raises(RuntimeError, match="failed after 1 attempt"):
            runner.compare(APPS, SPECS, CAL)

    def test_interrupt_mid_grid_then_resume_reproduces_exactly(
        self, small_app_kwargs, tmp_path, monkeypatch, expected_rows
    ):
        """The killed-and-resumed acceptance criterion.

        An interrupt lands mid-grid; the runner must clean up its pool
        and propagate it.  A fresh runner pointed at the same cache
        directory then resumes from the checkpoints and produces the
        identical uninterrupted rows.
        """
        cache = tmp_path / "cache"
        monkeypatch.setenv(
            "REPRO_CHAOS_INTERRUPT_ONCE", str(tmp_path / "intr.marker")
        )
        interrupted = _runner(small_app_kwargs, jobs=2, cache_dir=cache)
        with pytest.raises(KeyboardInterrupt):
            interrupted.compare(APPS, SPECS, CAL)

        # The pool was killed, not leaked: every worker exits promptly.
        deadline = time.monotonic() + 10.0
        while multiprocessing.active_children() and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not multiprocessing.active_children()

        resumed = _runner(small_app_kwargs, jobs=2, cache_dir=cache)
        assert resumed.compare(APPS, SPECS, CAL) == expected_rows


def test_single_job_grid_checkpoints_each_cell(
    small_app_kwargs, tmp_path, monkeypatch
):
    """An in-process grid writes each cell to disk as it finishes: when
    the third of four cells fails, a fresh runner on the same cache
    directory serves the first two without simulating."""
    from repro.sim.engine import SimulationEngine

    execute = SimulationEngine.execute
    calls = itertools.count(1)

    def third_call_fails(engine):
        if next(calls) == 3:
            raise RuntimeError("injected failure on the third cell")
        return execute(engine)

    monkeypatch.setattr(SimulationEngine, "execute", third_call_fails)
    cells = [(app, spec) for app in APPS for spec in SPECS]
    failing = _runner(small_app_kwargs, jobs=1, cache_dir=tmp_path)
    with pytest.raises(RuntimeError, match="third cell"):
        failing.prefetch_simulations(cells)

    resumed = _runner(small_app_kwargs, jobs=1, cache_dir=tmp_path)

    def _boom(*a, **kw):  # pragma: no cover - must never run
        raise AssertionError("a checkpointed cell was simulated again")

    resumed.application_run = _boom
    for name, spec in cells[:2]:
        resumed.simulate(name, spec)
    lookups = resumed.metrics.get("repro_cache_lookups_total")
    assert lookups.labels(kind="sim", outcome="hit").value == 2


class TestKnobValidation:
    def test_cell_timeout_must_be_positive(self, small_app_kwargs):
        with pytest.raises(ValueError, match="cell_timeout"):
            _runner(small_app_kwargs, cell_timeout=0)

    def test_max_retries_must_be_nonnegative(self, small_app_kwargs):
        with pytest.raises(ValueError, match="max_retries"):
            _runner(small_app_kwargs, max_retries=-1)

    def test_retry_backoff_must_be_nonnegative(self, small_app_kwargs):
        with pytest.raises(ValueError, match="retry_backoff"):
            _runner(small_app_kwargs, retry_backoff=-0.5)

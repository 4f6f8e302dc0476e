"""Parallel experiment grid and the on-disk simulation cache.

The acceptance bar: a grid run with ``jobs > 1`` produces exactly the
same :class:`ComparisonRow` list as the serial run, and a warm-cache
rerun never re-simulates (proved by making simulation impossible, not
by timing it).
"""

from __future__ import annotations

import pytest

from repro.core.platform import PlatformSpec
from repro.experiments.runner import DEFAULT_CALIBRATION, ExperimentRunner
from repro.sim.latencies import NetworkKind

KB = 1024

APPS = ["EDGE", "FFT"]
SPECS = [
    PlatformSpec(name="p-smp", n=2, N=1, cache_bytes=2 * KB, memory_bytes=256 * KB),
    PlatformSpec(
        name="p-cow", n=1, N=2, cache_bytes=2 * KB, memory_bytes=256 * KB,
        network=NetworkKind.ETHERNET_100,
    ),
]


def _runner(small_app_kwargs, **kwargs) -> ExperimentRunner:
    return ExperimentRunner(app_kwargs=small_app_kwargs, **kwargs)


class TestParallelGrid:
    def test_parallel_rows_equal_serial(self, small_app_kwargs, tmp_path):
        serial = _runner(small_app_kwargs, jobs=1, cache_dir=tmp_path / "a")
        parallel = _runner(small_app_kwargs, jobs=2, cache_dir=tmp_path / "b")
        cal = DEFAULT_CALIBRATION
        assert parallel.compare(APPS, SPECS, cal) == serial.compare(APPS, SPECS, cal)

    def test_parallel_without_disk_cache(self, small_app_kwargs, tmp_path):
        serial = _runner(small_app_kwargs, jobs=1, cache_dir=tmp_path)
        parallel = _runner(small_app_kwargs, jobs=2, cache_dir=None)
        cal = DEFAULT_CALIBRATION
        assert parallel.compare(APPS, SPECS, cal) == serial.compare(APPS, SPECS, cal)

    def test_jobs_must_be_positive(self, small_app_kwargs):
        with pytest.raises(ValueError):
            _runner(small_app_kwargs, jobs=0)


class TestDiskCache:
    def test_cache_files_land_under_cache_dir(self, small_app_kwargs, tmp_path):
        runner = _runner(small_app_kwargs, jobs=1, cache_dir=tmp_path)
        runner.simulate("EDGE", SPECS[0])
        runner.characterization("EDGE")
        assert len(list((tmp_path / "sim").glob("*.pkl"))) == 1
        assert len(list((tmp_path / "char").glob("*.pkl"))) == 1

    def test_cache_dir_none_writes_nothing(self, small_app_kwargs, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        runner = _runner(small_app_kwargs, jobs=1, cache_dir=None)
        runner.simulate("EDGE", SPECS[0])
        assert not list(tmp_path.rglob("*.pkl"))

    def test_warm_rerun_never_resimulates(self, small_app_kwargs, tmp_path, monkeypatch):
        cal = DEFAULT_CALIBRATION
        cold = _runner(small_app_kwargs, jobs=1, cache_dir=tmp_path)
        expected = cold.compare(APPS, SPECS, cal)

        # A fresh runner on the warm cache must answer entirely from
        # disk: make simulating at all a hard error and compare again.
        import repro.experiments.runner as runner_mod

        class Boom:
            def __init__(self, *a, **k):
                raise AssertionError("simulated despite a warm cache")

        monkeypatch.setattr(runner_mod, "SimulationEngine", Boom)
        warm = _runner(small_app_kwargs, jobs=1, cache_dir=tmp_path)
        assert warm.compare(APPS, SPECS, cal) == expected

    def test_horizon_changes_the_cache_key(self, small_app_kwargs, tmp_path):
        a = _runner(small_app_kwargs, jobs=1, cache_dir=tmp_path)
        b = _runner(small_app_kwargs, jobs=1, cache_dir=tmp_path, horizon=0.0)
        a.simulate("EDGE", SPECS[0])
        b.simulate("EDGE", SPECS[0])
        assert len(list((tmp_path / "sim").glob("*.pkl"))) == 2

    def test_corrupt_cache_entry_is_recomputed(self, small_app_kwargs, tmp_path):
        runner = _runner(small_app_kwargs, jobs=1, cache_dir=tmp_path)
        path = runner._cache.path("sim", runner._sim_key("EDGE", SPECS[0]))
        path.parent.mkdir(parents=True)
        path.write_bytes(b"not a pickle")
        result = runner.simulate("EDGE", SPECS[0])
        assert result.total_cycles > 0

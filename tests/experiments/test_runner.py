"""Tests for the experiment runner: caching, comparison, calibration."""

import itertools
import math
from dataclasses import replace

import pytest

import repro.experiments.runner as runner_module
from repro.core.platform import PlatformSpec
from repro.experiments.runner import DEFAULT_CALIBRATION, ExperimentRunner
from repro.sim.latencies import NetworkKind

KB = 1024

SPECS = [
    PlatformSpec(name="r-smp", n=2, N=1, cache_bytes=2 * KB, memory_bytes=256 * KB),
]

CLUSTER_SPECS = SPECS + [
    PlatformSpec(
        name="r-cow", n=1, N=2, cache_bytes=2 * KB, memory_bytes=256 * KB,
        network=NetworkKind.ETHERNET_10,
    ),
    PlatformSpec(
        name="r-clump", n=2, N=2, cache_bytes=2 * KB, memory_bytes=256 * KB,
        network=NetworkKind.ATM_155,
    ),
]


def _scalar_calibrate(
    runner, apps, specs, cache_factors, boosts, barrier_scales, adjustments,
    false_sharing_options,
):
    """The grid search as one ``runner.model`` call per cell: the
    per-cell search whose bookkeeping the batched ``calibrate`` must
    reproduce exactly."""
    sims = {
        (app, spec.name): runner.simulate(app, spec).e_instr_seconds
        for app in apps
        for spec in specs
    }
    best = None
    needs_fs = any(spec.N > 1 for spec in specs)
    fs_options = tuple(false_sharing_options) if needs_fs else (True,)
    for kappa, boost, bscale, adj, fs in itertools.product(
        cache_factors, boosts, barrier_scales, adjustments, fs_options
    ):
        cal = replace(
            DEFAULT_CALIBRATION,
            cache_capacity_factor=kappa,
            contention_boost=boost,
            barrier_scale=bscale,
            remote_rate_adjustment=adj,
            false_sharing=fs,
        )
        worst = 0.0
        for app in apps:
            for spec in specs:
                est = runner.model(app, spec, cal).e_instr_seconds
                sim = sims[(app, spec.name)]
                if not math.isfinite(est):
                    worst = math.inf
                    break
                worst = max(worst, abs(est - sim) / sim)
            if worst == math.inf:
                break
        if best is None or worst < best[1]:
            best = (cal, worst)
    return best


@pytest.fixture
def scalar_evaluate_calls(monkeypatch):
    """Counts per-cell ``evaluate`` calls made through the runner module."""
    calls = []
    real = runner_module.evaluate

    def counting(*args, **kwargs):
        calls.append(args[0].name)
        return real(*args, **kwargs)

    monkeypatch.setattr(runner_module, "evaluate", counting)
    return calls


class TestCaching:
    def test_application_run_cached(self, small_runner):
        a = small_runner.application_run("EDGE", 2)
        b = small_runner.application_run("EDGE", 2)
        assert a is b

    def test_characterization_cached(self, small_runner):
        a = small_runner.characterization("EDGE")
        assert a is small_runner.characterization("EDGE")
        assert a.name == "EDGE"

    def test_simulation_cached(self, small_runner):
        a = small_runner.simulate("EDGE", SPECS[0])
        assert a is small_runner.simulate("EDGE", SPECS[0])

    def test_sharing_for_single_machine_is_trivial(self, small_runner):
        assert small_runner.sharing("EDGE", SPECS[0]) == (0.0, 1.0)


class TestModelAndCompare:
    def test_model_finite_on_smp(self, small_runner):
        est = small_runner.model("EDGE", SPECS[0], DEFAULT_CALIBRATION)
        assert math.isfinite(est.e_instr_seconds)

    def test_compare_grid_complete(self, small_runner):
        rows = small_runner.compare(["EDGE", "FFT"], SPECS, DEFAULT_CALIBRATION)
        assert len(rows) == 2
        assert {r.application for r in rows} == {"EDGE", "FFT"}
        assert all(r.simulated > 0 and r.modeled > 0 for r in rows)


class TestCalibrate:
    def test_calibration_picks_a_grid_point(self, small_runner):
        cal, err = small_runner.calibrate(
            ["EDGE"],
            SPECS,
            cache_factors=(1.0, 0.5),
            boosts=(1.0, 2.0),
            barrier_scales=(0.0, 1.0),
        )
        assert cal.cache_capacity_factor in (1.0, 0.5)
        assert cal.contention_boost in (1.0, 2.0)
        assert math.isfinite(err)

    def test_calibration_beats_or_matches_any_grid_point(self, small_runner):
        grid = dict(cache_factors=(1.0, 0.5), boosts=(1.0,), barrier_scales=(0.0, 1.0))
        cal, err = small_runner.calibrate(["EDGE"], SPECS, **grid)
        sim = small_runner.simulate("EDGE", SPECS[0]).e_instr_seconds
        for kappa in grid["cache_factors"]:
            for b in grid["barrier_scales"]:
                est = small_runner.model(
                    "EDGE", SPECS[0],
                    replace(
                        DEFAULT_CALIBRATION, cache_capacity_factor=kappa, barrier_scale=b
                    ),
                )
                assert err <= abs(est.e_instr_seconds - sim) / sim + 1e-12


class TestCalibrateMatchesScalarSearch:
    """``calibrate`` prices its grid in batches, with no per-cell
    ``evaluate`` call; a per-cell search checks its bookkeeping: every
    (adjustment, false-sharing, platform) case, exact ties keeping the
    first grid point, and generator inputs consumed once."""

    def test_cluster_grid_from_generators(self, small_runner, scalar_evaluate_calls):
        apps = ["EDGE", "FFT"]
        grid = dict(
            cache_factors=(1.0, 0.5),
            boosts=(1.0, 4.0),
            barrier_scales=(0.0, 1.0),
            adjustments=(0.0, 0.124, 0.3),
            false_sharing_options=(True, False),
        )
        got = small_runner.calibrate(
            (app for app in apps),
            (spec for spec in CLUSTER_SPECS),
            **{name: (value for value in values) for name, values in grid.items()},
        )
        assert scalar_evaluate_calls == []
        want = _scalar_calibrate(small_runner, apps, CLUSTER_SPECS, **grid)
        assert got == want
        # The winner lies past the first option of the innermost axes,
        # so a search that skipped any (adjustment, false-sharing) case
        # would miss it.
        assert (got[0].remote_rate_adjustment, got[0].false_sharing) == (0.3, False)

    def test_exact_ties_keep_the_first_grid_point(
        self, small_runner, scalar_evaluate_calls
    ):
        # model() zeroes the adjustment on a single machine, so 0.3 and
        # 0.0 tie exactly on an SMP-only grid and 0.3 comes first.
        grid = dict(
            cache_factors=(1.0, 0.5),
            boosts=(1.0, 2.0),
            barrier_scales=(0.0, 1.0),
            adjustments=(0.3, 0.0),
            false_sharing_options=(True, False),
        )
        got = small_runner.calibrate(["EDGE", "FFT"], SPECS, **grid)
        assert scalar_evaluate_calls == []
        assert got == _scalar_calibrate(small_runner, ["EDGE", "FFT"], SPECS, **grid)
        assert got[0].remote_rate_adjustment == 0.3


class TestValidationFailures:
    def test_unverified_app_raises(self, monkeypatch, small_app_kwargs):
        runner = ExperimentRunner(app_kwargs=small_app_kwargs)
        run = runner.application_run("EDGE", 1)
        object.__setattr__(run, "verified", False)
        runner._runs.clear()
        import repro.experiments.runner as runner_mod

        class FakeApp:
            def run(self_inner):
                return run

        monkeypatch.setattr(runner_mod, "make_application", lambda *a, **k: FakeApp())
        with pytest.raises(RuntimeError, match="oracle"):
            runner.application_run("EDGE", 1)

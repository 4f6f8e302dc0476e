"""Shared benchmark fixtures: one memoizing runner for the whole session.

Application executions and simulations are cached in the session-scoped
:class:`~repro.experiments.runner.ExperimentRunner`, so the expensive
pieces run once no matter how many benches touch them; the ``benchmark``
fixture then times the paper-relevant fast paths (model evaluations,
trace analyses, optimizations).

``report`` prints reproduction tables with pytest's capture suspended,
so the paper-vs-measured rows are visible in a normal ``pytest
benchmarks/ --benchmark-only`` run (and land in any tee'd log).
"""

from __future__ import annotations

import sys

import pytest

from repro.core.batch import ModelOptions
from repro.experiments.runner import ExperimentRunner

_CAPMAN = None


@pytest.fixture(autouse=True)
def _grab_capture_manager(request):
    """Remember the capture manager so report() can suspend fd capture."""
    global _CAPMAN
    _CAPMAN = request.config.pluginmanager.getplugin("capturemanager")
    yield


def report(title: str, body: str) -> None:
    """Print a reproduction table past pytest's capture."""
    text = f"\n{'=' * 72}\n{title}\n{'=' * 72}\n{body}"
    if _CAPMAN is not None:
        with _CAPMAN.global_and_fixture_disabled():
            print(text, flush=True)
    else:  # plain python execution
        print(text, file=sys.__stdout__, flush=True)


@pytest.fixture(scope="session")
def runner() -> ExperimentRunner:
    return ExperimentRunner()


@pytest.fixture(scope="session")
def smp_calibration(runner) -> ModelOptions:
    """The Figure 2 calibration, shared by the SMP benches."""
    from repro.experiments.configs import TABLE3_SMPS, scaled
    from repro.experiments.table2 import TABLE2_APPS

    cal, _ = runner.calibrate(TABLE2_APPS, [scaled(s) for s in TABLE3_SMPS], adjustments=(0.0,))
    return cal

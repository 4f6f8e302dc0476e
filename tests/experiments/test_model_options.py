"""One knob type for every model caller: the figure calibration and the design path.

:class:`repro.core.batch.ModelOptions` replaced the runner's own
calibration type, whose ``describe()`` text ``repro validate`` and
``repro report`` print, and the design engine's options, which spelled
"sharing off" differently (the design path kept the workload's fresh
fraction, the runner passed 1.0).  The literals below were recorded
from the two types before they merged.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.core.batch import BatchCase, ModelOptions
from repro.core.platform import PlatformSpec
from repro.cost.optimizer import _predict, _predict_batch
from repro.experiments.runner import DEFAULT_CALIBRATION, ExperimentRunner
from repro.sim.latencies import NetworkKind
from repro.workloads.params import PAPER_FFT, PAPER_LU

KB, MB = 1024, 1024 * 1024

CLUMP = PlatformSpec(
    "opt-clump", n=2, N=4, cache_bytes=4 * KB, memory_bytes=1 * MB,
    network=NetworkKind.ATM_155,
)
COW = PlatformSpec(
    "opt-cow", n=1, N=4, cache_bytes=4 * KB, memory_bytes=1 * MB,
    network=NetworkKind.ETHERNET_100,
)

#: ``describe()`` of the default calibration and of the three
#: calibrations ``test_figure_gate.py`` expects, then sharing variants.
DESCRIBED = [
    (
        DEFAULT_CALIBRATION,
        "mode=throttled, cache_capacity_factor=0.5, contention_boost=1, barrier_scale=1, "
        "remote_rate_adjustment=0, sharing=on (with false sharing)",
    ),
    (
        replace(DEFAULT_CALIBRATION, cache_capacity_factor=0.35),
        "mode=throttled, cache_capacity_factor=0.35, contention_boost=1, barrier_scale=1, "
        "remote_rate_adjustment=0, sharing=on (with false sharing)",
    ),
    (
        replace(DEFAULT_CALIBRATION, cache_capacity_factor=1.0),
        "mode=throttled, cache_capacity_factor=1, contention_boost=1, barrier_scale=1, "
        "remote_rate_adjustment=0, sharing=on (with false sharing)",
    ),
    (
        replace(
            DEFAULT_CALIBRATION,
            cache_capacity_factor=1.0,
            remote_rate_adjustment=0.124,
            false_sharing=False,
        ),
        "mode=throttled, cache_capacity_factor=1, contention_boost=1, barrier_scale=1, "
        "remote_rate_adjustment=0.124, sharing=on",
    ),
    (
        replace(DEFAULT_CALIBRATION, use_sharing=False),
        "mode=throttled, cache_capacity_factor=0.5, contention_boost=1, barrier_scale=1, "
        "remote_rate_adjustment=0, sharing=off",
    ),
]


@pytest.mark.parametrize("options, text", DESCRIBED)
def test_describe_prints_the_calibration_text(options, text):
    assert options.describe() == text


def test_default_calibration_is_the_runners_old_default():
    assert DEFAULT_CALIBRATION == ModelOptions(
        cache_capacity_factor=0.5, remote_rate_adjustment=0.0
    )


class TestCase:
    def test_sharing_on_keeps_the_pair(self):
        case = ModelOptions(remote_rate_adjustment=0.3).case(CLUMP, 0.25, 0.5)
        assert case == BatchCase(CLUMP, 0.25, 0.5, 0.3)

    def test_sharing_off_is_zero_sharing_and_all_fresh(self):
        case = ModelOptions(use_sharing=False).case(CLUMP, 0.25, 0.5)
        assert case == BatchCase(CLUMP, 0.0, 1.0, ModelOptions().remote_rate_adjustment)

    def test_batch_knobs_hold_the_batch_wide_knobs(self):
        options = ModelOptions(
            mode="open", barrier_scale=0.25, cache_capacity_factor=0.7, contention_boost=4.0
        )
        assert options.batch_knobs == {
            "mode": "open",
            "barrier_scale": 0.25,
            "cache_capacity_factor": 0.7,
            "contention_boost": 4.0,
        }


#: ``runner.model`` E(Instr) with sharing off, ``float.hex``, by (app,
#: platform, remote-rate adjustment, contention boost).
RUNNER_SHARING_OFF = {
    ("FFT", "opt-clump", 0.0, 1.0): "0x1.27aa1029ea604p-29",
    ("FFT", "opt-clump", 0.124, 2.0): "0x1.2c1aecb1fb869p-29",
    ("FFT", "opt-cow", 0.0, 1.0): "0x1.f9d3c324c525cp-29",
    ("LU", "opt-clump", 0.0, 1.0): "0x1.03af1e53301d9p-29",
    ("LU", "opt-cow", 0.124, 2.0): "0x1.9a5b95ab69cb1p-29",
}


def test_runner_with_sharing_off_returns_the_same_floats():
    runner = ExperimentRunner(
        jobs=1,
        cache_dir=None,
        app_kwargs={"FFT": {"points": 1024}, "LU": {"order": 32, "block": 8}},
    )
    specs = {spec.name: spec for spec in (CLUMP, COW)}
    for (app, name, adjustment, boost), expected in RUNNER_SHARING_OFF.items():
        options = replace(
            DEFAULT_CALIBRATION,
            use_sharing=False,
            remote_rate_adjustment=adjustment,
            contention_boost=boost,
        )
        got = runner.model(app, specs[name], options).e_instr_seconds
        assert got.hex() == expected, (app, name)
    # Sharing is measured only when it is read, and it moves the cell.
    assert runner._sharing == {}
    on = runner.model("FFT", CLUMP, DEFAULT_CALIBRATION).e_instr_seconds
    assert on.hex() != RUNNER_SHARING_OFF[("FFT", "opt-clump", 0.0, 1.0)]


#: The design path with sharing off: ``_predict`` on the CLUMP, then
#: ``_predict_batch`` on (CLUMP, COW), ``float.hex``.
DESIGN_SHARING_OFF = {
    "FFT": ("0x1.1ff03ca5019c3p-27", "0x1.aca0c4716ed13p-27"),
    "LU": ("0x1.65f8b32d775a7p-27", "0x1.11c758e88d60dp-26"),
}


@pytest.mark.parametrize("workload", [PAPER_FFT, PAPER_LU], ids=lambda w: w.name)
def test_design_path_with_sharing_off_returns_the_same_floats(workload):
    options = ModelOptions(use_sharing=False)
    clump, cow = DESIGN_SHARING_OFF[workload.name]
    assert _predict(CLUMP, workload, options).e_instr_seconds.hex() == clump
    batch = _predict_batch([CLUMP, COW], workload, options)
    assert [float(x).hex() for x in batch] == [clump, cow]
    on = _predict(CLUMP, workload, ModelOptions()).e_instr_seconds
    assert on.hex() != clump

"""Section 5.3's closing claim: the model is orders of magnitude faster.

"The modeling computation for each of all the above configurations took
between 0.5 and 1 second, and required only about a hundred bytes of
memory.  In contrast, it usually took more than 20 minutes to obtain
one simulation result."  We time one model evaluation against one
simulation of the same (application, configuration) cell and report the
speedup; on modern hardware both sides are faster, but the *ratio*
(three to four orders of magnitude) is the reproducible content.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.core.batch import ModelOptions
from repro.experiments.configs import TABLE3_SMPS, scaled
from repro.experiments.runner import DEFAULT_CALIBRATION, ExperimentRunner

__all__ = ["SpeedResult", "run_speed_comparison"]


@dataclass(frozen=True)
class SpeedResult:
    application: str
    configuration: str
    model_seconds: float
    simulation_seconds: float
    #: Same simulation with the engine's batched fast path disabled
    #: (0.0 when the scalar lane was not timed).
    scalar_simulation_seconds: float = 0.0

    @property
    def speedup(self) -> float:
        return self.simulation_seconds / self.model_seconds if self.model_seconds else float("inf")

    @property
    def engine_speedup(self) -> float:
        """Vectorized engine over scalar engine on this cell."""
        if not self.simulation_seconds or not self.scalar_simulation_seconds:
            return 1.0
        return self.scalar_simulation_seconds / self.simulation_seconds

    def describe(self) -> str:
        text = (
            f"model vs simulation wall time ({self.application} on {self.configuration}):\n"
            f"  model:      {self.model_seconds * 1e3:9.3f} ms   (paper: 0.5-1 s)\n"
            f"  simulation: {self.simulation_seconds:9.3f} s    (paper: > 20 min)\n"
            f"  model is {self.speedup:,.0f}x faster"
        )
        if self.scalar_simulation_seconds:
            text += (
                f"\n  scalar-lane simulation: {self.scalar_simulation_seconds:9.3f} s"
                f"  (fast path is {self.engine_speedup:.2f}x faster, bit-identical)"
            )
        return text


def run_speed_comparison(
    runner: ExperimentRunner | None = None,
    app: str = "FFT",
    calibration: ModelOptions | None = None,
    model_repeats: int = 100,
) -> SpeedResult:
    """Time the two prediction paths on one representative cell."""
    runner = runner or ExperimentRunner()
    calibration = calibration or DEFAULT_CALIBRATION
    spec = scaled(TABLE3_SMPS[0])

    # Warm the caches (application run + characterization) so both sides
    # time only their own work, exactly as the paper compares them.
    runner.characterization(app)
    runner.application_run(app, spec.total_processors)

    t0 = time.perf_counter()
    for _ in range(model_repeats):
        runner.model(app, spec, calibration)
    model_seconds = (time.perf_counter() - t0) / model_repeats

    from repro.sim.engine import SimulationEngine

    run = runner.application_run(app, spec.total_processors)
    t0 = time.perf_counter()
    SimulationEngine(spec, run, horizon=runner.horizon).execute()
    simulation_seconds = time.perf_counter() - t0

    t0 = time.perf_counter()
    SimulationEngine(spec, run, horizon=runner.horizon, fastpath=False).execute()
    scalar_simulation_seconds = time.perf_counter() - t0

    return SpeedResult(
        application=app,
        configuration=spec.name,
        model_seconds=model_seconds,
        simulation_seconds=simulation_seconds,
        scalar_simulation_seconds=scalar_simulation_seconds,
    )

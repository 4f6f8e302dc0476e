"""Fault injection for the simulated cluster (and the tools around it).

Two halves, one theme -- what happens when nodes misbehave:

* :mod:`repro.faults.plan` -- deterministic, seeded
  :class:`~repro.faults.plan.FaultPlan` objects (one-off delays,
  stalls, degraded nodes, network-latency spikes) that
  :class:`~repro.sim.engine.SimulationEngine` and every back-end
  consume with bit-identical results across the scalar and batched
  lanes;
* :mod:`repro.faults.inject` -- the engine-facing compilation of a
  plan into per-process trigger schedules.

The harness-resilience half (cell retries, cache quarantine,
checkpoint/resume) lives with
:class:`~repro.experiments.runner.ExperimentRunner`; the fault model
and its guarantees are documented in ``docs/RESILIENCE.md``.
"""

from repro.faults.inject import compile_triggers
from repro.faults.plan import (
    FaultPlan,
    NetworkSpike,
    NodeSlowdown,
    NodeStall,
    OneOffDelay,
    parse_inject_spec,
    plan_from_specs,
)

__all__ = [
    "FaultPlan",
    "NetworkSpike",
    "NodeSlowdown",
    "NodeStall",
    "OneOffDelay",
    "compile_triggers",
    "parse_inject_spec",
    "plan_from_specs",
]

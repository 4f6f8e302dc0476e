"""Golden answers of the simulator back-end on fixed inputs.

Each digest below covers one run's whole observable outcome: total
cycles, per-process clocks, barrier waits, every stats counter, the
per-resource busy cycles and request counts, and -- for profiled runs --
every ``(node, cause)`` bucket and ``proc_cycles``.

The digests were recorded from the bespoke SMP, COW and CLUMP back-ends
that the topology-composed back-end replaced (one class per platform
shape, since deleted), each driven through :class:`SimulationEngine` on
exactly these inputs; both engine lanes gave the same digest for every
case.  :class:`~repro.sim.backends.composed.ComposedBackend` must
reproduce every one in both lanes.  Regenerate them only for an
intended change of simulator semantics, and record that change.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.sim.engine import SimulationEngine
from tests.sim.test_fastpath_equivalence import SPECS, _SPEC_IDS, _random_run

#: Case name -> (seed of the synthetic run, or None for ``fft_run_4``;
#: whether the engine profiles).
CASES = {
    "seed0": (0, False),
    "seed1": (1, False),
    "seed2": (2, False),
    "fft": (None, False),
    "profiled": (1, True),
}

#: (spec name, case name) -> digest of the recorded outcome.
GOLDEN = {
    ("eq-smp", "seed0"): "2824320ca7c21a61",
    ("eq-smp", "seed1"): "992ce61bfa8884e8",
    ("eq-smp", "seed2"): "0f61d3dfb524a6ec",
    ("eq-smp", "fft"): "661d2f2e42fbd6ad",
    ("eq-smp", "profiled"): "f138cac23491c2e7",
    ("eq-smp-l2", "seed0"): "9900d438ef1135c1",
    ("eq-smp-l2", "seed1"): "82c61de872d029f4",
    ("eq-smp-l2", "seed2"): "88a8f9ff4a482c89",
    ("eq-smp-l2", "fft"): "a0f74bc5938a6796",
    ("eq-smp-l2", "profiled"): "f6d2ffccad620b4a",
    ("eq-cow-bus", "seed0"): "cee6d4dd9758bdd1",
    ("eq-cow-bus", "seed1"): "ac06898ccc697358",
    ("eq-cow-bus", "seed2"): "3a4b5147a1b553a4",
    ("eq-cow-bus", "fft"): "f00aeb39adee2f49",
    ("eq-cow-bus", "profiled"): "522035983cb663f5",
    ("eq-cow-switch", "seed0"): "196b729742731215",
    ("eq-cow-switch", "seed1"): "a7dfe06fe3389513",
    ("eq-cow-switch", "seed2"): "5d57a1e591904df4",
    ("eq-cow-switch", "fft"): "132e917755e6ea02",
    ("eq-cow-switch", "profiled"): "c0b70e44e24ead67",
    ("eq-clump", "seed0"): "b79461402a0e1aca",
    ("eq-clump", "seed1"): "f0c5331d9254d55e",
    ("eq-clump", "seed2"): "e672e6afdbdf3d25",
    ("eq-clump", "fft"): "02bd858bf67698a1",
    ("eq-clump", "profiled"): "4f82c89702760c49",
}


def digest(engine: SimulationEngine, result) -> str:
    """A short hash of everything a run lets a caller observe."""
    backend = engine.backend
    payload = {
        "total_cycles": result.total_cycles,
        "per_process_cycles": list(result.per_process_cycles),
        "barrier_wait_cycles": result.barrier_wait_cycles,
        "stats": result.stats.as_dict(),
        "busy": backend.resource_busy_cycles(),
        "requests": backend.resource_requests(),
    }
    if result.profile is not None:
        payload["profile"] = sorted(
            [node, cause, cycles]
            for (node, cause), cycles in result.profile.cycles.items()
        )
        payload["proc_cycles"] = result.profile.proc_cycles
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@pytest.mark.parametrize("spec", SPECS, ids=_SPEC_IDS)
@pytest.mark.parametrize("case", list(CASES))
@pytest.mark.parametrize("fastpath", [False, True], ids=["scalar", "batched"])
def test_matches_golden(spec, case, fastpath, fft_run_4):
    seed, profile = CASES[case]
    run = fft_run_4 if seed is None else _random_run(spec.total_processors, seed)
    engine = SimulationEngine(spec, run, fastpath=fastpath, profile=profile)
    result = engine.execute()
    if profile:
        assert result.profile.check_exact()
    assert digest(engine, result) == GOLDEN[spec.name, case], result.describe()

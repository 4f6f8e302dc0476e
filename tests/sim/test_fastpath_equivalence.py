"""The vectorized engine fast path must be bit-identical to scalar.

Property tests: for every backend family (SMP snooping bus, COW on the
Ethernet bus, COW on the ATM switch, CLUMP) and a spread of random
seeds and horizons, the batched engine's :class:`SimulationResult` --
total cycles, per-process clocks, barrier waits, and every stats
counter -- equals the scalar engine's exactly.  Not approximately:
``==`` on floats.  The fast path only reorders exact float64 additions
of quarter-cycle quanta, so any drift is a bug.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps.base import AddressSpace, ApplicationRun
from repro.core.platform import PlatformSpec
from repro.sim.engine import SimulationEngine
from repro.sim.latencies import NetworkKind
from repro.topology.canned import deepen_spec
from repro.trace.events import Trace

KB = 1024

#: One spec per backend family, small caches so misses and coherence
#: traffic are frequent (the fast path must cut correctly, not just
#: stream hits).  The L2 variant exercises the stricter write gate.
SPECS = [
    PlatformSpec(name="eq-smp", n=4, N=1, cache_bytes=2 * KB, memory_bytes=256 * KB),
    PlatformSpec(
        name="eq-smp-l2", n=4, N=1, cache_bytes=2 * KB, memory_bytes=256 * KB,
        l2_bytes=8 * KB,
    ),
    PlatformSpec(
        name="eq-cow-bus", n=1, N=4, cache_bytes=2 * KB, memory_bytes=256 * KB,
        network=NetworkKind.ETHERNET_100,
    ),
    PlatformSpec(
        name="eq-cow-switch", n=1, N=4, cache_bytes=2 * KB, memory_bytes=256 * KB,
        network=NetworkKind.ATM_155,
    ),
    PlatformSpec(
        name="eq-clump", n=2, N=2, cache_bytes=2 * KB, memory_bytes=256 * KB,
        network=NetworkKind.ATM_155,
    ),
]

_SPEC_IDS = [s.name for s in SPECS]

#: A two-level CLUMP-of-SMPs (racks of switched machines): the
#: vectorized lane must stay exact on a non-flat hierarchy too.
DEEP = deepen_spec(
    PlatformSpec(
        name="eq-flat8", n=2, N=4, cache_bytes=2 * KB, memory_bytes=256 * KB,
        network=NetworkKind.ETHERNET_100,
    ),
    rack_size=2,
)


def _random_run(procs: int, seed: int, refs: int = 800) -> ApplicationRun:
    """A synthetic SPMD run with enough locality to engage the fast path
    and enough sharing to force scalar fallbacks."""
    rng = np.random.default_rng(seed)
    space = AddressSpace(procs)
    space.alloc("data", (100_000,), element_bytes=64)
    n_barriers = int(rng.integers(1, 4))
    traces = []
    for p in range(procs):
        # runs of repeated lines (hits) over a private stripe, salted
        # with shared lines every process touches (coherence traffic)
        blocks = rng.integers(p * 128, p * 128 + 96, size=refs // 4 + 1)
        addrs = np.repeat(blocks, 4)[:refs].copy()
        shared = rng.random(refs) < 0.08
        addrs[shared] = rng.integers(0, 64, size=int(shared.sum()))
        barriers = np.sort(
            rng.choice(np.arange(1, refs), size=n_barriers, replace=False)
        )
        traces.append(
            Trace(
                addresses=addrs.astype(np.int64),
                is_write=rng.random(refs) < 0.3,
                work=rng.integers(0, 4, size=refs).astype(np.int64),
                barriers=barriers.astype(np.int64),
                tail_work=int(rng.integers(0, 50)),
            )
        )
    return ApplicationRun(
        name="random", problem_size=f"seed={seed}", num_procs=procs,
        traces=tuple(traces), address_space=space, verified=True,
    )


def _assert_identical(scalar, batched) -> None:
    assert batched.total_cycles == scalar.total_cycles
    assert batched.per_process_cycles == scalar.per_process_cycles
    assert batched.barrier_wait_cycles == scalar.barrier_wait_cycles
    assert batched.stats.as_dict() == scalar.stats.as_dict()


@pytest.mark.parametrize("spec", SPECS + [DEEP], ids=_SPEC_IDS + ["deep"])
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
@pytest.mark.parametrize("horizon", [0.0, 200.0])
def test_random_traces_identical(spec, seed, horizon):
    run = _random_run(spec.total_processors, seed)
    scalar = SimulationEngine(spec, run, horizon=horizon, fastpath=False).execute()
    batched = SimulationEngine(spec, run, horizon=horizon, fastpath=True).execute()
    _assert_identical(scalar, batched)


@pytest.mark.parametrize("spec", SPECS, ids=_SPEC_IDS)
@pytest.mark.parametrize("horizon", [200.0, 5000.0])
def test_fft_identical(spec, horizon, fft_run_4):
    scalar = SimulationEngine(spec, fft_run_4, horizon=horizon, fastpath=False).execute()
    batched = SimulationEngine(spec, fft_run_4, horizon=horizon, fastpath=True).execute()
    _assert_identical(scalar, batched)


@pytest.mark.parametrize("spec", SPECS, ids=_SPEC_IDS)
def test_lu_identical(spec, lu_run_4):
    scalar = SimulationEngine(spec, lu_run_4, fastpath=False).execute()
    batched = SimulationEngine(spec, lu_run_4, fastpath=True).execute()
    _assert_identical(scalar, batched)


def _scalar_calls(spec, run, fastpath: bool) -> tuple[int, int]:
    """``(scalar access calls, total references)`` of one simulation."""
    engine = SimulationEngine(spec, run, fastpath=fastpath)
    backend = engine.backend
    access = backend.access
    calls = 0

    def counting(*args):
        nonlocal calls
        calls += 1
        return access(*args)

    backend.access = counting
    result = engine.execute()
    return calls, result.total_references


@pytest.mark.parametrize("spec", SPECS, ids=_SPEC_IDS)
def test_fast_path_actually_engages(spec, fft_run_4):
    """Guard against silent fallback, by the work each lane consumed:
    the batched lane leaves fewer scalar ``access`` calls than there
    are references, and disabling ``fastpath`` makes exactly one per
    reference.  A back-end that declined every batch would keep every
    answer bit-identical and fail only here."""
    calls, refs = _scalar_calls(spec, fft_run_4, fastpath=True)
    assert calls < refs
    calls, refs = _scalar_calls(spec, fft_run_4, fastpath=False)
    assert calls == refs

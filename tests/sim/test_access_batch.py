"""Direct tests of the batched lane's kernel, ``access_batch``.

Each case builds two identical back-ends, brings both to the same
coherence state through scalar ``access`` calls, then hands one a
hand-made run through ``access_batch`` and steps the other through the
same references one scalar ``access`` at a time, as the engine's scalar
loop does.  The run must stop exactly at the cut the case sets up -- a
reference that is no pure hit, ``stop``, the reference crossing
``limit``, or ``until`` -- and leave the clock, the statistics, every
cache's tags, LRU stamps and dirty marks, and the directory exactly as
the scalar steps did.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.platform import PlatformSpec
from repro.sim.backends import make_backend
from repro.sim.engine import SimulationEngine
from repro.sim.latencies import NetworkKind

KB = 1024
INF = float("inf")

SMP = PlatformSpec(name="k-smp", n=4, N=1, cache_bytes=2 * KB, memory_bytes=256 * KB)
SMP_L2 = PlatformSpec(
    name="k-smp-l2", n=4, N=1, cache_bytes=2 * KB, memory_bytes=256 * KB,
    l2_bytes=8 * KB,
)
COW = PlatformSpec(
    name="k-cow", n=1, N=2, cache_bytes=2 * KB, memory_bytes=256 * KB,
    network=NetworkKind.ATM_155,
)
CLUMP = PlatformSpec(
    name="k-clump", n=2, N=2, cache_bytes=2 * KB, memory_bytes=256 * KB,
    network=NetworkKind.ATM_155,
)

#: Lines of four directory blocks (4 lines each): A and A1 share block
#: 0, B is in block 1, C in block 2, D in block 3.
A, A1, B, C, D = 0, 1, 4, 8, 12


def _pair(spec, setup):
    """Two back-ends of ``spec`` brought to the same state by the scalar
    ``(proc, line, is_write)`` steps of ``setup``."""
    home = np.zeros(64, dtype=np.int64)
    out = []
    for _ in range(2):
        backend = make_backend(spec, home)
        t = 0.0
        for proc, line, is_write in setup:
            t = backend.access(proc, line, is_write, t + 1.0)
        out.append(backend)
    return out


def _views(run):
    """The engine's trace views of ``(line, is_write, work)`` triples."""
    lines = np.array([r[0] for r in run], dtype=np.int64)
    writes = np.array([r[1] for r in run], dtype=bool)
    works = np.array([r[2] for r in run], dtype=np.int64)
    return memoryview(lines), memoryview(writes), memoryview(works)


def _scalar(backend, proc, run, count, now):
    """The engine's scalar step over the first ``count`` references."""
    t = now
    times = []
    for line, is_write, work in run[:count]:
        t += work + 1.0
        t = backend.access(proc, line, is_write, t)
        times.append(t)
    return t, times


def _state(backend):
    """Everything a run of hits could change, per cache and directory."""
    caches = list(backend._own)
    if getattr(backend, "l2", None) is not None:
        caches.append(backend.l2)
    for l2 in getattr(backend, "l2s", None) or ():
        caches.append(l2)
    state = [
        (
            c._flat_tags.tolist(),
            c._flat_stamps.tolist(),
            c._flat_dirty.tolist(),
            c._tick,
            dict(c._slot_of),
        )
        for c in caches
    ]
    protocol = getattr(backend, "protocol", None)
    if protocol is not None:
        directory = protocol.directory
        state.append((dict(directory._owner), {
            b: sorted(h) for b, h in directory._holders.items()
        }))
    return state


def _check(spec, setup, proc, run, consumed, stop=None, limit=INF, until=INF, now=100.0):
    batched, scalar = _pair(spec, setup)
    lines, writes, works = _views(run)
    times: list[float] = []
    k, t = batched.access_batch(
        proc, lines, writes, works, 0, len(run) if stop is None else stop,
        now, limit, until, times,
    )
    assert k == consumed
    t_scalar, times_scalar = _scalar(scalar, proc, run, consumed, now)
    assert t == t_scalar
    assert times == times_scalar
    assert batched.stats.as_dict() == scalar.stats.as_dict()
    assert _state(batched) == _state(scalar)
    return batched


def _step(spec):
    """One hit's cycles with no padding work."""
    return 1.0 + make_backend(spec, np.zeros(1, dtype=np.int64)).t_hit


class TestSmp:
    # proc 0 holds A and B; C is held by proc 0 and proc 1.
    SETUP = [(0, A, False), (0, B, False), (0, C, False), (1, C, False)]

    def test_write_to_a_peer_held_line_cuts(self):
        run = [
            (A, False, 0),
            (A, True, 2),  # clean, no peer: silent upgrade, marks dirty
            (B, False, 1),
            (A, True, 0),  # dirty: pure at once
            (C, True, 3),  # proc 1 holds C: the invalidation goes scalar
            (B, False, 0),
        ]
        backend = _check(SMP, self.SETUP, 0, run, consumed=4)
        assert backend.caches[0].is_dirty(A)
        assert not backend.caches[0].is_dirty(C)

    def test_read_miss_cuts(self):
        run = [(B, False, 0), (D, False, 0), (A, False, 0)]
        _check(SMP, self.SETUP, 0, run, consumed=1)

    def test_stop_cuts(self):
        run = [(A, False, 0), (B, False, 0), (A, False, 0), (B, False, 0)]
        _check(SMP, self.SETUP, 0, run, consumed=2, stop=2)

    def test_limit_crossing_is_included(self):
        run = [(A, False, 0)] * 6
        step = _step(SMP)
        _check(SMP, self.SETUP, 0, run, consumed=3, limit=100.0 + 2.5 * step)

    def test_until_cuts_once_reached(self):
        run = [(A, False, 0)] * 6
        step = _step(SMP)
        _check(SMP, self.SETUP, 0, run, consumed=2, until=100.0 + 2 * step)
        _check(SMP, self.SETUP, 0, run, consumed=3, until=100.0 + 2.5 * step)


class TestSmpL2:
    SETUP = [(0, A, True), (0, B, False)]  # A dirty in proc 0's cache

    @pytest.mark.parametrize("line", [A, B], ids=["dirty", "clean"])
    def test_any_write_cuts(self, line):
        run = [(A, False, 0), (B, False, 1), (line, True, 0), (A, False, 0)]
        _check(SMP_L2, self.SETUP, 0, run, consumed=2)


class TestCow:
    # Machine 0 writes A (owning block 0) and reads A1 (same block) and
    # B; machine 1 reads C after machine 0 wrote it, so machine 0 keeps
    # C dirty in its cache but no longer owns block 2.
    SETUP = [
        (0, A, True), (0, A1, False), (0, B, False), (0, C, True), (1, C, False),
    ]

    def test_write_to_an_unowned_block_cuts(self):
        run = [
            (A1, True, 0),  # clean line of an owned block: silent upgrade
            (B, False, 2),
            (A, True, 1),
            (B, True, 0),  # block 1 is shared, not owned: scalar
            (A, False, 0),
        ]
        backend = _check(COW, self.SETUP, 0, run, consumed=3)
        assert backend.caches[0].is_dirty(A1)

    def test_stale_dirty_mark_is_not_ownership(self):
        run = [(A, False, 0), (C, True, 0), (A, False, 0)]
        batched = _check(COW, self.SETUP, 0, run, consumed=1)
        assert batched.caches[0].is_dirty(C)

    def test_limit_and_until(self):
        run = [(A, False, 1), (A1, False, 0), (B, False, 2), (A, True, 0)] * 2
        step = _step(COW)
        _check(COW, self.SETUP, 0, run, consumed=1, limit=100.0)
        _check(COW, self.SETUP, 0, run, consumed=2, until=100.0 + 2 * step + 1)
        _check(COW, self.SETUP, 0, run, consumed=5, stop=5)


class TestClump:
    # Proc 0 (machine 0) writes A (dirty, block 0 owned by machine 0)
    # and reads B (clean); it writes C, then proc 2 (machine 1) reads
    # C, which drops machine 0's ownership of block 2 but leaves the
    # dirty mark; it writes D, then proc 1 (same machine) reads D,
    # which downgrades proc 0's copy to clean.
    SETUP = [
        (0, A, True), (0, B, False), (0, C, True), (2, C, False),
        (0, D, True), (1, D, False),
    ]

    def test_write_to_a_clean_line_cuts(self):
        run = [
            (A, False, 0),
            (A, True, 1),  # dirty and directory-exclusive: pure
            (B, False, 0),
            (B, True, 0),  # clean: needs the snoop layer
            (A, False, 0),
        ]
        _check(CLUMP, self.SETUP, 0, run, consumed=3)

    @pytest.mark.parametrize("line", [C, D], ids=["unowned", "downgraded"])
    def test_write_needs_both_layers_quiet(self, line):
        run = [(A, True, 0), (line, True, 0), (A, False, 0)]
        _check(CLUMP, self.SETUP, 0, run, consumed=1)

    def test_stop_limit_until(self):
        run = [(A, True, 0), (B, False, 3)] * 3
        step = _step(CLUMP)
        _check(CLUMP, self.SETUP, 0, run, consumed=4, stop=4)
        _check(CLUMP, self.SETUP, 0, run, consumed=2, limit=100.0 + step)
        _check(CLUMP, self.SETUP, 0, run, consumed=1, until=100.0 + step)


def _calls(spec, run, **kwargs):
    """``(proc, start, consumed)`` of every ``access_batch`` call of one
    engine run, and its result."""
    engine = SimulationEngine(spec, run, **kwargs)
    backend = engine.backend
    kernel = backend.access_batch
    calls = []

    def recording(proc, lines, writes, works, start, *rest):
        k, t = kernel(proc, lines, writes, works, start, *rest)
        calls.append((proc, start, k))
        return k, t

    backend.access_batch = recording
    return calls, engine.execute()


@pytest.mark.parametrize(
    "spec",
    [SMP, PlatformSpec(name="k-cow4", n=1, N=4, cache_bytes=2 * KB,
                       memory_bytes=256 * KB, network=NetworkKind.ATM_155), CLUMP],
    ids=["smp", "cow", "clump"],
)
def test_engine_steps_the_cutting_reference_at_once(spec, fft_run_4):
    """A run that ends on a reference that is no pure hit hands it to
    ``access`` at once: no process is offered the same index twice."""
    calls, _ = _calls(spec, fft_run_4)
    assert sum(k for _, _, k in calls) > 0
    last: dict[int, int] = {}
    for proc, start, _ in calls:
        assert start > last.get(proc, -1)
        last[proc] = start


def test_sampled_runs_stay_on_the_kernel(fft_run_4):
    """Interval sampling keeps the batched lane: the kernel still
    consumes hits and reports their completion times."""
    calls, result = _calls(SMP, fft_run_4, sample_every=5_000.0)
    consumed = sum(k for _, _, k in calls)
    assert consumed > result.total_references // 2
    assert result.timeline.totals()["references"] == result.stats.references

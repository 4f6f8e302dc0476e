"""Property-based invariants of the back-ends under random traffic."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.platform import PlatformSpec
from repro.sim.backends import make_backend
from repro.sim.latencies import NetworkKind

KB = 1024

accesses = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=3),  # proc
        st.integers(min_value=0, max_value=300),  # line
        st.booleans(),  # write
    ),
    min_size=1,
    max_size=150,
)


def _home(items=10_000, machines=2):
    return ((np.arange(items) // 4) % machines).astype(np.int64)


def _drive(backend, stream, procs):
    clocks = [0.0] * procs
    for proc, line, write in stream:
        p = proc % procs
        clocks[p] = backend.access(p, line, write, clocks[p] + 1.0)
    return clocks


def _check_counters(backend, stream):
    st_ = backend.stats
    assert st_.references == len(stream)
    served = (
        st_.cache_hits
        + st_.l2_hits
        + st_.peer_cache
        + st_.local_memory
        + st_.remote_clean
        + st_.remote_dirty
    )
    assert served == st_.references
    # page faults are a sub-stage of memory-served accesses
    assert st_.disk <= st_.local_memory + st_.remote_clean
    for field in ("cache_hits", "invalidations", "writebacks", "disk"):
        assert getattr(st_, field) >= 0


class TestSmpInvariants:
    @given(stream=accesses)
    @settings(max_examples=60, deadline=None)
    def test_counters_account_for_every_reference(self, stream):
        spec = PlatformSpec(name="p", n=4, N=1, cache_bytes=1 * KB, memory_bytes=256 * KB)
        b = make_backend(spec, _home(machines=1))
        _drive(b, stream, 4)
        _check_counters(b, stream)

    @given(stream=accesses)
    @settings(max_examples=60, deadline=None)
    def test_time_moves_forward(self, stream):
        spec = PlatformSpec(name="p", n=4, N=1, cache_bytes=1 * KB, memory_bytes=256 * KB)
        b = make_backend(spec, _home(machines=1))
        clock = 0.0
        for proc, line, write in stream:
            finish = b.access(proc % 4, line, write, clock + 1.0)
            assert finish >= clock + 1.0
            clock = finish

    @given(stream=accesses)
    @settings(max_examples=40, deadline=None)
    def test_no_line_cached_twice_dirty(self, stream):
        """At most one cache may hold a line dirty (write-invalidate)."""
        spec = PlatformSpec(name="p", n=4, N=1, cache_bytes=1 * KB, memory_bytes=256 * KB)
        b = make_backend(spec, _home(machines=1))
        _drive(b, stream, 4)
        for line in {line for _, line, _ in stream}:
            dirty_holders = sum(1 for c in b.caches if c.is_dirty(line))
            assert dirty_holders <= 1

    @given(stream=accesses)
    @settings(max_examples=40, deadline=None)
    def test_written_line_exclusive(self, stream):
        """After any write, no other cache still holds the line."""
        spec = PlatformSpec(name="p", n=2, N=1, cache_bytes=1 * KB, memory_bytes=256 * KB)
        b = make_backend(spec, _home(machines=1))
        last_writer: dict[int, int] = {}
        clocks = [0.0, 0.0]
        for proc, line, write in stream:
            p = proc % 2
            clocks[p] = b.access(p, line, write, clocks[p] + 1.0)
            if write:
                last_writer[line] = p
        for line, writer in last_writer.items():
            # if the writer still holds it dirty, nobody else may hold it
            if b.caches[writer].is_dirty(line):
                others = [c for i, c in enumerate(b.caches) if i != writer]
                assert not any(c.contains(line) for c in others)


class TestCowInvariants:
    @given(stream=accesses)
    @settings(max_examples=50, deadline=None)
    def test_counters_and_directory_consistency(self, stream):
        spec = PlatformSpec(
            name="p", n=1, N=4, cache_bytes=1 * KB, memory_bytes=256 * KB,
            network=NetworkKind.ATM_155,
        )
        b = make_backend(spec, _home(machines=4))
        _drive(b, stream, 4)
        _check_counters(b, stream)
        # directory exclusivity: a dirty block's lines live only at the owner
        for block, owner in list(b.protocol.directory._owner.items()):
            for m, cache in enumerate(b.caches):
                if m == owner:
                    continue
                for l in range(block * 4, block * 4 + 4):
                    assert not cache.contains(l)

    @given(stream=accesses)
    @settings(max_examples=30, deadline=None)
    def test_bus_and_switch_serve_identical_traffic(self, stream):
        """Topology changes timing, never the access classification."""
        def counts(net):
            spec = PlatformSpec(
                name="p", n=1, N=4, cache_bytes=1 * KB, memory_bytes=256 * KB,
                network=net,
            )
            b = make_backend(spec, _home(machines=4))
            _drive(b, stream, 4)
            s = b.stats
            return (s.cache_hits, s.local_memory, s.remote_clean, s.remote_dirty)

        assert counts(NetworkKind.ETHERNET_10) == counts(NetworkKind.ATM_155)


class TestClumpInvariants:
    @given(stream=accesses)
    @settings(max_examples=50, deadline=None)
    def test_counters_account_for_every_reference(self, stream):
        spec = PlatformSpec(
            name="p", n=2, N=2, cache_bytes=1 * KB, memory_bytes=256 * KB,
            network=NetworkKind.ETHERNET_100,
        )
        b = make_backend(spec, _home(machines=2))
        _drive(b, stream, 4)
        _check_counters(b, stream)

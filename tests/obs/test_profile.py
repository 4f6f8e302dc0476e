"""The cycle-attribution profiler: exactness, lane invariance, plumbing.

The profiler's contract is unusually strong and therefore unusually
testable: every simulated cycle lands in exactly one (topology node,
cause) bucket, and the buckets sum *bit-exactly* (float ``==``, no
tolerance) to ``P * total_cycles``.  The property tests here drive the
same random traces, platform specs, and fault plans as the fast-path
equivalence suite through both engine lanes and assert both the sum
invariant and that lane choice never changes any bucket.

Unit tests cover the :class:`~repro.obs.profile.CycleProfile` value
type (merge, diff, round-trip, exports) and the run ledger.
"""

from __future__ import annotations

import json

import pytest

from repro.obs.ledger import (
    BENCH_FLOORS,
    ledger_path,
    make_entry,
    read_entries,
    read_ledger,
    record_run,
    describe_entries,
)
from repro.obs.profile import CAUSES, CycleProfile, describe_diff
from repro.sim.engine import SimulationEngine
from tests.sim.test_fastpath_equivalence import (
    SPECS,
    _SPEC_IDS,
    _assert_identical,
    _random_run,
)

# ---------------------------------------------------------------------------
# CycleProfile value type


def _profile(cycles, proc_cycles):
    return CycleProfile(cycles=dict(cycles), proc_cycles=proc_cycles)


class TestCycleProfile:
    def test_exactness_check(self):
        p = _profile({("cpu", "compute"): 3.0, ("memory", "local_memory"): 1.5}, 4.5)
        assert p.check_exact()
        assert p.residue() == 0.0
        p.assert_exact()

    def test_inexact_detected(self):
        p = _profile({("cpu", "compute"): 3.0}, 4.5)
        assert not p.check_exact()
        assert p.residue() == 1.5
        with pytest.raises(ValueError):
            p.assert_exact()

    def test_merge_sums_buckets_and_runs(self):
        a = _profile({("cpu", "compute"): 3.0, ("disk", "disk"): 1.0}, 4.0)
        b = _profile({("cpu", "compute"): 2.0, ("l2", "l2"): 5.0}, 7.0)
        m = a.merge(b)
        assert m.cycles[("cpu", "compute")] == 5.0
        assert m.cycles[("disk", "disk")] == 1.0
        assert m.cycles[("l2", "l2")] == 5.0
        assert m.proc_cycles == 11.0
        assert m.runs == 2
        assert m.check_exact()

    def test_merged_classmethod(self):
        assert CycleProfile.merged([]) is None
        a = _profile({("cpu", "compute"): 1.0}, 1.0)
        b = _profile({("cpu", "compute"): 2.0}, 2.0)
        m = CycleProfile.merged([a, b])
        assert m.cycles[("cpu", "compute")] == 3.0
        assert m.runs == 2

    def test_diff(self):
        a = _profile({("cpu", "compute"): 3.0, ("disk", "disk"): 1.0}, 4.0)
        b = _profile({("cpu", "compute"): 2.0, ("l2", "l2"): 5.0}, 7.0)
        d = b.diff(a)
        assert d[("cpu", "compute")] == -1.0
        assert d[("disk", "disk")] == -1.0
        assert d[("l2", "l2")] == 5.0

    def test_top_causes(self):
        p = _profile(
            {
                ("cpu", "compute"): 1.0,
                ("network", "remote_clean"): 10.0,
                ("network", "contention"): 7.0,
                ("memory", "local_memory"): 3.0,
            },
            21.0,
        )
        assert p.top_causes(2) == [("remote_clean", 10.0), ("contention", 7.0)]

    def test_by_node_and_cause(self):
        p = _profile(
            {("network", "remote_clean"): 2.0, ("network", "contention"): 3.0},
            5.0,
        )
        assert p.by_node() == {
            "network": {"remote_clean": 2.0, "contention": 3.0}
        }
        assert p.by_cause() == {"remote_clean": 2.0, "contention": 3.0}

    def test_obj_round_trip_bit_exact(self):
        p = _profile(
            {("cpu", "compute"): 3.140625, ("network[atm]", "coherence"): 0.015625},
            3.15625,
        )
        obj = p.to_obj()
        json.dumps(obj)  # JSON-serializable as-is
        back = CycleProfile.from_obj(obj)
        assert back.cycles == p.cycles
        assert back.proc_cycles == p.proc_cycles
        assert back.runs == p.runs

    def test_from_obj_rejects_foreign_schema(self):
        with pytest.raises(ValueError):
            CycleProfile.from_obj({"schema": "not-a-profile", "nodes": {}})

    def test_from_sink_drops_zero_buckets(self):
        p = CycleProfile.from_sink(
            {("cpu", "compute"): 2.0, ("disk", "disk"): 0.0}, 2.0
        )
        assert ("disk", "disk") not in p.cycles
        assert p.check_exact()

    def test_describe_flags_exactness(self):
        p = _profile({("cpu", "compute"): 2.0}, 2.0)
        assert "exact" in p.describe()
        bad = _profile({("cpu", "compute"): 2.0}, 3.0)
        assert "INEXACT" in bad.describe()

    def test_describe_cause_filter(self):
        p = _profile(
            {("cpu", "compute"): 2.0, ("disk", "disk"): 1.0}, 3.0
        )
        text = p.describe(causes=["disk"])
        assert "disk" in text
        assert "compute" not in text

    def test_collapsed_stack_format(self):
        p = _profile(
            {("cpu", "compute"): 10.0, ("memory", "local_memory"): 2.0}, 12.0
        )
        lines = p.to_collapsed().splitlines()
        assert lines[0] == "cpu;compute 10"
        assert lines[1] == "memory;local_memory 2"

    def test_trace_events_shape(self):
        p = _profile({("cpu", "compute"): 10.0}, 10.0)
        obj = p.to_trace_events()
        events = obj["traceEvents"]
        assert isinstance(events, list) and events
        complete = [e for e in events if e.get("ph") == "X"]
        assert complete and all("ts" in e and "dur" in e for e in complete)
        json.dumps(obj)

    def test_describe_diff(self):
        a = _profile({("cpu", "compute"): 3.0}, 3.0)
        b = _profile({("cpu", "compute"): 5.0}, 5.0)
        assert "compute" in describe_diff(a, b)
        assert "identical" in describe_diff(a, a)


# ---------------------------------------------------------------------------
# The run ledger


class TestLedger:
    def test_record_and_read_round_trip(self, tmp_path):
        prof = _profile({("cpu", "compute"): 2.0, ("disk", "disk"): 1.0}, 3.0)
        record_run(
            tmp_path, app="FFT", platform="smp", lane="tensor",
            config_hash="abc123", total_cycles=3.0, references=10, profile=prof,
        )
        record_run(
            tmp_path, app="LU", platform="cow", lane="serial",
            config_hash="def456", total_cycles=7.0,
        )
        entries = read_entries(ledger_path(tmp_path))
        assert [e["app"] for e in entries] == ["FFT", "LU"]
        assert entries[0]["exact"] is True
        assert entries[0]["top_causes"][0]["cause"] == "compute"
        assert entries[0]["floors"] == BENCH_FLOORS
        assert "references" not in entries[1]

    def test_read_skips_corrupt_and_foreign_lines(self, tmp_path):
        path = ledger_path(tmp_path)
        path.parent.mkdir(parents=True, exist_ok=True)
        good = json.dumps(make_entry(
            app="FFT", platform="smp", lane="serial",
            config_hash="x", total_cycles=1.0,
        ))
        path.write_text(
            "not json at all\n"
            '{"schema": "someone-elses/9", "app": "nope"}\n'
            + good + "\n",
            encoding="utf-8",
        )
        entries = read_entries(path)
        assert len(entries) == 1
        assert entries[0]["app"] == "FFT"

    def test_read_missing_file(self, tmp_path):
        assert read_entries(tmp_path / "absent.jsonl") == []

    def test_truncated_last_line_is_skipped_and_counted(self, tmp_path):
        """A crash mid-append leaves a torn final line; the reader must
        keep every whole entry and report the damage instead of dying."""
        record_run(tmp_path, app="FFT", platform="smp", lane="serial",
                   config_hash="a", total_cycles=1.0)
        record_run(tmp_path, app="LU", platform="cow", lane="serial",
                   config_hash="b", total_cycles=2.0)
        path = ledger_path(tmp_path)
        path.write_bytes(path.read_bytes()[:-10])  # tear the last record

        entries, malformed = read_ledger(path)
        assert [e["app"] for e in entries] == ["FFT"]
        assert malformed == 1

    def test_torn_multibyte_utf8_is_malformed_not_a_crash(self, tmp_path):
        path = ledger_path(tmp_path)
        path.parent.mkdir(parents=True, exist_ok=True)
        good = json.dumps(make_entry(
            app="FFT", platform="smp", lane="serial",
            config_hash="x", total_cycles=1.0,
        )).encode("utf-8")
        # A record holding non-ASCII text, torn mid-codepoint.
        torn = json.dumps({"schema": "repro/run-ledger/1", "app": "café"})
        torn_bytes = torn.encode("utf-8")[:-2]
        path.write_bytes(good + b"\n" + torn_bytes)

        entries, malformed = read_ledger(path)
        assert len(entries) == 1 and malformed == 1

    def test_malformed_count_distinguishes_garbage_from_foreign_schema(
        self, tmp_path
    ):
        path = ledger_path(tmp_path)
        path.parent.mkdir(parents=True, exist_ok=True)
        good = json.dumps(make_entry(
            app="FFT", platform="smp", lane="serial",
            config_hash="x", total_cycles=1.0,
        ))
        path.write_text(
            "not json at all\n"          # malformed
            "[1, 2, 3]\n"                 # valid JSON, not an object: malformed
            '{"schema": "someone-elses/9"}\n'  # foreign but well-formed: skipped quietly
            + good + "\n"
            + '{"torn": ',                # truncated tail: malformed
            encoding="utf-8",
        )
        entries, malformed = read_ledger(path)
        assert len(entries) == 1
        assert malformed == 3

    def test_describe_surfaces_the_malformed_count(self, tmp_path):
        e = make_entry(app="FFT", platform="smp", lane="serial",
                       config_hash="x", total_cycles=1.0)
        assert "2 malformed lines skipped" in describe_entries([e], malformed=2)
        assert "1 malformed line skipped" in describe_entries([], malformed=1)
        assert "malformed" not in describe_entries([e])
        assert "malformed" not in describe_entries([])

    def test_describe(self, tmp_path):
        assert "empty" in describe_entries([])
        e = make_entry(app="FFT", platform="smp", lane="serial",
                       config_hash="deadbeef", total_cycles=1.0)
        text = describe_entries([e])
        assert "FFT" in text and "deadbeef"[:12] in text

    def test_entries_are_json_native(self):
        # np.float64 bucket values and np.bool_ exactness flags must be
        # coerced before they reach json.dumps (np.bool_ is not a bool).
        import numpy as np

        prof = CycleProfile.from_sink(
            {("cpu", "compute"): np.float64(2.0)}, np.float64(2.0)
        )
        entry = make_entry(
            app="FFT", platform="smp", lane="serial",
            config_hash="x", total_cycles=2.0, profile=prof,
        )
        json.dumps(entry)


# ---------------------------------------------------------------------------
# The hard invariant, property-tested across lanes


@pytest.mark.parametrize("spec", SPECS, ids=_SPEC_IDS)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_attribution_exact_and_lane_invariant(spec, seed):
    """Every cycle attributed, bit-exactly, in both lanes -- and the
    per-(node, cause) buckets are identical across lanes."""
    run = _random_run(spec.total_processors, seed)
    scalar = SimulationEngine(spec, run, fastpath=False, profile=True).execute()
    batched = SimulationEngine(spec, run, fastpath=True, profile=True).execute()

    _assert_identical(scalar, batched)
    for res in (scalar, batched):
        prof = res.profile
        assert prof is not None
        assert prof.check_exact()
        assert prof.total_attributed() == prof.proc_cycles
        assert prof.proc_cycles == spec.total_processors * res.total_cycles
        assert all(cause in CAUSES for _, cause in prof.cycles)
    assert batched.profile.cycles == scalar.profile.cycles


@pytest.mark.parametrize("spec", SPECS, ids=_SPEC_IDS)
@pytest.mark.parametrize("fastpath", [False, True], ids=["scalar", "batched"])
def test_attribution_exact_under_faults(spec, fastpath):
    """Fault plans (delays, stalls, slowdowns, spikes) route their
    cycles into the ``fault_stall`` bucket without breaking exactness."""
    from repro.faults.plan import FaultPlan

    run = _random_run(spec.total_processors, 3)
    plan = FaultPlan.generate(
        seed=7, num_procs=spec.total_processors, span=100_000.0
    )
    res = SimulationEngine(
        spec, run, fault_plan=plan, fastpath=fastpath, profile=True
    ).execute()
    prof = res.profile
    assert prof.check_exact()
    if res.fault_cycles:
        assert prof.cycles.get(("engine", "fault_stall"), 0.0) > 0.0


@pytest.mark.parametrize("spec", SPECS[:2], ids=_SPEC_IDS[:2])
def test_profiling_never_changes_the_simulation(spec):
    """`profile=True` is observation only: results are bit-identical
    with it on and off, in both per-cell lanes."""
    run = _random_run(spec.total_processors, 2)
    for fastpath in (False, True):
        off = SimulationEngine(spec, run, fastpath=fastpath).execute()
        on = SimulationEngine(spec, run, fastpath=fastpath, profile=True).execute()
        _assert_identical(off, on)
        assert off.profile is None


def test_profiler_detaches_after_run():
    """The engine detaches the sink at finish: later traffic on the same
    backend must not bleed cycles into the first run's profile."""
    spec = SPECS[0]
    run = _random_run(spec.total_processors, 0)
    engine = SimulationEngine(spec, run, profile=True)
    first = engine.execute()
    snapshot = dict(first.profile.cycles)
    backend = engine.backend
    assert backend.profiler is None
    for line in range(10_000, 10_064):  # cold lines: every one misses
        backend.access(0, line, False, 0.0)
    assert first.profile.cycles == snapshot


# ---------------------------------------------------------------------------
# Runner plumbing: merge, process pool, disk cache


def _runner(tmp_path, **kwargs):
    from repro.experiments.runner import ExperimentRunner
    from repro.obs.metrics import MetricsRegistry

    return ExperimentRunner(
        app_kwargs={"FFT": {"points": 256}},
        cache_dir=tmp_path / "cache",
        metrics=MetricsRegistry(),
        profile=True,
        **kwargs,
    )


def test_runner_carries_and_merges_profiles(tmp_path):
    spec = SPECS[0]
    runner = _runner(tmp_path)
    res = runner.simulate("FFT", spec)
    assert res.profile is not None and res.profile.check_exact()
    profs = runner.profiles()
    assert f"FFT@{spec.name}" in profs
    merged = runner.merged_profile()
    assert merged is not None and merged.check_exact()


def test_runner_profile_survives_disk_cache(tmp_path):
    spec = SPECS[0]
    first = _runner(tmp_path).simulate("FFT", spec)
    cached = _runner(tmp_path).simulate("FFT", spec)
    assert cached.profile is not None
    assert cached.profile.cycles == first.profile.cycles
    assert cached.profile.proc_cycles == first.profile.proc_cycles


def test_runner_cache_separates_profiled_and_unprofiled(tmp_path):
    from repro.experiments.runner import ExperimentRunner
    from repro.obs.metrics import MetricsRegistry

    spec = SPECS[0]
    _runner(tmp_path).simulate("FFT", spec)
    plain = ExperimentRunner(
        app_kwargs={"FFT": {"points": 256}},
        cache_dir=tmp_path / "cache",
        metrics=MetricsRegistry(),
    ).simulate("FFT", spec)
    assert plain.profile is None

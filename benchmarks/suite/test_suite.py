"""Tests of the benchmark itself.  From the repository root::

    PYTHONPATH=src python -m pytest benchmarks/suite
"""

from __future__ import annotations

import itertools
import json
import time

import pytest

import compare
import layers
import run
import speed
import stats
import workloads

TINY_GRID = {"apps": ("FFT",), "platforms": ("C1", "C5"), "app_kwargs": {"FFT": {"points": 64}}}


def test_the_code_reports_the_metrics_benchmark_json_names():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in bench["workloads"]] == list(workloads.NAMES)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == workloads.E2E
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == layers.PER_LAYER
    assert bench["run_seconds"] == run.DEFAULT_SECONDS


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert stats.tail(list(range(1, 1001))) == (99.0, 990)
    assert stats.tail(list(range(1000, 0, -1))) == (99.0, 990)
    assert stats.tail(list(range(11))) == (100.0 / 11, 0)
    assert stats.tail(list(range(10))) is None
    assert stats.tail(list(range(40)), beyond=4) == (90.0, 35)


def test_host_speed_scales_a_span_by_its_median_tick():
    ref = speed.REFERENCE_TICK_S
    host = speed.HostSpeed()
    host.starts = [float(t) for t in range(10)]
    host.durations = [2 * ref] * 8 + [4 * ref, 4 * ref]
    # [0.5, 7.5) holds the ticks at 1..7, all twice the reference.
    assert host.slowdown(0.5, 7.5) == 2.0
    assert host.seconds(0.5, 7.5) == pytest.approx((7.0 - 7 * 2 * ref) / 2.0)
    # Too few ticks inside: the latest five before the span's end count.
    assert host.slowdown(8.5, 9.5) == 2.0
    assert host.seconds(8.5, 9.5) == pytest.approx((1.0 - 4 * ref) / 2.0)
    with speed.HostSpeed() as live:
        deadline = time.perf_counter() + 10 * speed.PERIOD_S
        while time.perf_counter() < deadline:
            pass
    assert len(live.durations) >= speed.MIN_TICKS
    assert 0 < live.seconds(live.starts[0], live.starts[-1])


def test_self_time_subtracts_nested_wrapped_calls():
    clock = layers.LayerClock()
    inner = clock.wrap("inner", lambda: time.sleep(0.002))

    def body():
        time.sleep(0.002)
        inner()
        inner()

    outer = clock.wrap("outer", body)
    chunks = clock.wrap_iter("chunks", lambda: iter("ab"), count="items")
    with clock.region("top"):
        outer()
        assert list(chunks()) == ["a", "b"]
    assert dict(clock.calls) == {"inner": 2, "outer": 1, "chunks": 3, "top": 1}
    assert clock.counts["items"] == 2
    assert clock.self_ns["inner"] == clock.ns["inner"]
    assert clock.self_ns["outer"] == clock.ns["outer"] - clock.ns["inner"]
    assert clock.self_ns["top"] == clock.ns["top"] - clock.ns["outer"] - clock.ns["chunks"]
    assert clock.ns["outer"] >= 6_000_000 and clock.self_ns["outer"] >= 2_000_000
    names = [span.name for span in clock.tracer.roots]
    assert names == ["top"]


def test_compare_verdicts_on_synthetic_runs():
    base = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.3]
    assert compare.verdict(base, [x * 0.8 for x in base], "lower", 0.1) == "better"
    assert compare.verdict(base, [x * 1.2 for x in base], "lower", 0.1) == "worse"
    assert compare.verdict(base, [x * 1.2 for x in base], "higher", 0.1) == "better"
    assert compare.verdict(base, [x * 1.05 for x in base], "lower", 0.1) == "unchanged"
    assert compare.verdict(base, base[::-1], "lower", 0.1) == "unchanged"
    noisy = [50.0, 150.0, 80.0, 120.0, 100.0, 60.0, 140.0, 90.0, 110.0, 100.0]
    assert compare.verdict(base, noisy, "lower", 0.1) == "unresolved"
    assert compare.verdict(noisy, [10.0] * 10, "lower", 0.1) == "better"
    assert compare.verdict(base, [x * 1.2 for x in base], "lower", None) == "worse"
    assert compare.verdict(base, [x * 1.01 for x in base], "lower", None) == "worse"
    assert compare.verdict(base, base[1:] + base[:1], "lower", None) == "unchanged"
    assert compare.seedwise_verdict({0: 0.1, 1: 0.2}, {0: 0.1, 1: 0.2}, "lower") == "unchanged"
    assert compare.seedwise_verdict({0: 0.1, 1: 0.2}, {0: 0.1, 1: 0.3}, "lower") == "worse"
    assert compare.seedwise_verdict({0: 0.1, 1: 0.2}, {0: 0.0, 1: 0.3}, "lower") == "unresolved"

    def runs(failed, scale):
        return [
            {"workload": "w", "seed": s, "trace": 0, "attempted": 10, "failed": failed,
             "e2e": {"op_ms": scale * v}, "diagnostics": {"model_mean_err": 0.25}}
            for s, v in enumerate(base)
        ]

    bounds = {"op_ms": ("ms", "lower", 0.1)}
    rows, flags = compare.compare(runs(0, 1.0), runs(0, 1.0), bounds)
    assert [(r["metric"], r["verdict"]) for r in rows] == [
        ("op_ms", "unchanged"), ("model_mean_err", "unchanged")
    ]
    assert flags == []
    rows, flags = compare.compare(runs(0, 1.0), runs(1, 1.5), bounds)
    assert rows[0]["verdict"] == "worse"
    assert flags == ["w: failed ratio rose from 0 to 0.1"]


def _in_process_spawn(tmp_path, golden):
    """``run._spawn`` without the subprocess, on a tiny SMP grid."""
    dirs = itertools.count()

    def spawn(mode, name, seed, seconds, trace):
        if mode == "setup":
            return {"setup_s": 0.5}
        work = tmp_path / f"run{next(dirs)}"
        work.mkdir()
        wl = workloads.create(name, seed, work, golden, **TINY_GRID)
        return dict(wl.measure(seconds), own_setup_s=0.5)

    return spawn


def test_a_tampered_golden_digest_fails_an_op_and_the_exit(tmp_path, monkeypatch, capsys):
    work = tmp_path / "golden"
    work.mkdir()
    good = workloads.create("grid-smp", 0, work, {}, **TINY_GRID)
    table = {"grid-smp": {"0": good.golden_value(good.op(None))}}
    argv = ["--workload", "grid-smp", "--seconds", "0.01"]

    monkeypatch.setattr(run, "_spawn", _in_process_spawn(tmp_path, table))
    assert run.main(argv) == 0
    summary = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert summary["correct"] and summary["failed"] == 0 and summary["attempted"] == 2

    cell = sorted(table["grid-smp"]["0"])[0]
    table["grid-smp"]["0"][cell] = "0" * 16
    assert run.main(argv) == 1
    out = capsys.readouterr().out.splitlines()
    summary = json.loads(out[-1])
    assert summary["correct"] is False and summary["failed"] == 1
    assert f"grid-smp       PROBLEM golden digest differs: {cell}" in out


def test_a_tiny_traced_design_sweep(tmp_path):
    from repro.cost import search

    original = search.e_instr_seconds_batch
    wl = workloads.create("design-sweep", 0, tmp_path, budgets=2, low=6_000.0, high=8_000.0, checks=2)
    assert sorted(q.budget for q in wl.queries) == [6_000.0] * 4 + [8_000.0] * 4
    clock = layers.LayerClock()
    result = wl.measure(0.01, clock)
    assert result["failed"] == 0 and result["problems"] == []
    assert result["attempted"] == 8 * 2
    assert layers.silent_layers(clock, "design-sweep") == []
    assert result["layers"]["cost.candidates"] > 0
    assert result["layers"]["core.lower_bound_s"] > 0
    assert set(result["layers"]) == set(layers.PER_LAYER)
    assert search.e_instr_seconds_batch is original

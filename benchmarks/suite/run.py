"""One benchmark for the whole system.

Runs each workload in a fresh subprocess, one at a time, prints every
metric by name with its unit, checks every output, and ends with one
JSON line holding ``correct``, ``attempted``, ``failed`` and
``metrics``.  Exits non-zero when any output is wrong.  From the
repository root::

    python3 benchmarks/suite/run.py [--workload NAME]... [--seed N]
        [--seconds S] [--runs K] [--trace [0|1]] [--out PATH]

``--seconds`` is the measuring time per run: ``BENCHMARK.json`` invokes
the command with its ``run_seconds`` there, which is also the default.
Untraced (the default), the JSON line carries the end-to-end metrics.
With ``--trace`` it carries the per-layer split instead, and a Chrome
trace per workload lands in ``benchmarks/suite/out/``.  ``--runs K``
repeats every workload K times with seeds N, N+1, ...; ``--out`` keeps
every run, stamped with its provenance, for ``compare.py``.  See
README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import workloads
from layers import PER_LAYER

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parents[1]
SRC = ROOT / "src"
OUT = SUITE / "out"

DEFAULT_SECONDS = 20.0
#: Set-up probes per run; with the measured run's own set-up, setup_s
#: is the median of this many plus one.
SETUP_PROBES = 3
#: How long a child may take beyond its measuring time.
CHILD_GRACE_S = 120.0


def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument(
        "--workload", action="append", choices=workloads.NAMES,
        help="workload to run (repeatable; default: all five)",
    )
    ap.add_argument("--seed", type=int, default=0, help="seed of every generated input")
    ap.add_argument(
        "--seconds", type=float, default=DEFAULT_SECONDS,
        help="measuring time per run (default %(default)g)",
    )
    ap.add_argument("--runs", type=int, default=1, help="runs per workload")
    ap.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="report the per-layer split instead of the end-to-end metrics",
    )
    ap.add_argument("--out", help="write every run, with provenance, to this JSON file")
    ap.add_argument("--child", choices=("setup", "run"), help=argparse.SUPPRESS)
    ap.add_argument("--result", help=argparse.SUPPRESS)
    ap.add_argument("--spawned-at", type=float, help=argparse.SUPPRESS)
    return ap


# ---------------------------------------------------------------------------
# child: one workload in a fresh interpreter


def _child(args) -> int:
    from layers import LayerClock, silent_layers
    from speed import HostSpeed

    name = args.workload[0]
    result_path = Path(args.result)
    work = result_path.with_name("work")
    work.mkdir()
    wl = None
    try:
        # Set-up is timed at the reference speed, like the operations.
        with HostSpeed() as speed:
            wl = workloads.create(name, args.seed, work)
            setup_s = wl.setup_seconds(args.spawned_at, speed)
        if args.child == "setup":
            result = {"setup_s": setup_s}
        else:
            clock = LayerClock() if args.trace else None
            result = wl.measure(args.seconds, clock)
            result["own_setup_s"] = setup_s
            if clock is not None:
                result["problems"] += [
                    f"layer never fired: {n}" for n in silent_layers(clock, name)
                ]
                trace = OUT / f"trace-{name}-seed{args.seed}.json"
                trace.write_text(json.dumps(clock.chrome_trace()), encoding="utf-8")
                result["chrome_trace"] = str(trace.relative_to(ROOT))
    finally:
        if wl is not None:
            wl.close()
        shutil.rmtree(work, ignore_errors=True)
    result_path.write_text(json.dumps(result), encoding="utf-8")
    return 0


# ---------------------------------------------------------------------------
# parent: orchestration and reporting


def _spawn(mode: str, name: str, seed: int, seconds: float, trace: int) -> dict | None:
    """Run one child to completion; its result, or ``None`` if it failed."""
    box = Path(tempfile.mkdtemp(prefix=f"{mode}-", dir=OUT))
    result_path = box / "result.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(SUITE)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    # One BLAS thread: the benchmark's load stays within two cores.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    cmd = [
        sys.executable, str(SUITE / "run.py"), "--child", mode, "--workload", name,
        "--seed", str(seed), "--seconds", repr(seconds), "--trace", str(trace),
        "--result", str(result_path),
    ]
    cmd += ["--spawned-at", repr(time.perf_counter())]
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL, stdout=2,
        start_new_session=True,
    )
    timeout = 60.0 if mode == "setup" else seconds + CHILD_GRACE_S
    try:
        code = proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        code = None
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    try:
        if code != 0:
            reason = "timed out" if code is None else f"exited with {code}"
            print(f"error: {name} ({mode}) {reason}", file=sys.stderr)
            return None
        return json.loads(result_path.read_text(encoding="utf-8"))
    finally:
        shutil.rmtree(box, ignore_errors=True)


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict | None:
    """Set-up probes, then the measured run; one result record."""
    setups = []
    for _ in range(SETUP_PROBES):
        probe = _spawn("setup", name, seed, seconds, 0)
        if probe is None:
            return None
        setups.append(probe["setup_s"])
    result = _spawn("run", name, seed, seconds, trace)
    if result is None:
        return None
    setups.append(result.pop("own_setup_s"))
    result["e2e"] = {"setup_s": statistics.median(setups), **result["e2e"]}
    result.update(
        workload=name, seed=seed, trace=trace, seconds=seconds, setup_samples=setups,
        correct=result["failed"] == 0 and not result["problems"],
    )
    return result


def report(result: dict) -> None:
    """Print one run's metrics, one per line, with units."""
    name = result["workload"]
    print(
        f"# {name} seed={result['seed']} trace={result['trace']}: "
        f"{result['attempted']} ops, {result['failed']} failed, golden {result['golden']}"
    )
    if result["trace"]:
        rows = [(m, v, PER_LAYER[m]) for m, v in result["layers"].items()]
    else:
        rows = [(m, v, workloads.E2E[m]) for m, v in result["e2e"].items()]
    rows += [(m, v, workloads.DIAGNOSTICS[m][0]) for m, v in result["diagnostics"].items()]
    for metric, value, unit in rows:
        print(f"{name:<14} {metric:<34} {value:>16.6g} {unit}")
    for problem in result["problems"]:
        print(f"{name:<14} PROBLEM {problem}")
    sys.stdout.flush()


def summarize(results: list[dict], trace: int) -> dict:
    """The final JSON line: medians per metric over each workload's runs.

    With one workload the metric names are bare; with several they are
    ``<workload>/<metric>``.
    """
    units = PER_LAYER if trace else workloads.E2E
    source = "layers" if trace else "e2e"
    by_workload: dict[str, list[dict]] = {}
    for r in results:
        by_workload.setdefault(r["workload"], []).append(r)
    metrics = {}
    for name, runs in by_workload.items():
        for metric, unit in units.items():
            key = metric if len(by_workload) == 1 else f"{name}/{metric}"
            value = statistics.median(r[source][metric] for r in runs)
            metrics[key] = {"value": value, "unit": unit}
    return {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }


def write_out(path: str, argv: list[str], results: list[dict]) -> None:
    """Keep every run, stamped with where and when it ran."""
    sys.path[:0] = [str(SRC), str(ROOT / "benchmarks")]
    from bench_engine_throughput import provenance

    payload = {
        "schema": "repro-bench-suite/1",
        "argv": argv,
        "provenance": provenance(),
        "runs": results,
    }
    Path(path).write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _parser().parse_args(argv)
    if args.seconds <= 0 or args.runs < 1:
        print("error: --seconds must be positive and --runs at least 1", file=sys.stderr)
        return 2
    if args.child:
        return _child(args)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the program's source is missing: {SRC / 'repro'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    results = []
    for k in range(args.runs):
        for name in args.workload or workloads.NAMES:
            result = run_workload(name, args.seed + k, args.seconds, args.trace)
            if result is None:
                return 1
            report(result)
            results.append(result)
    if args.out:
        write_out(args.out, argv, results)
    summary = summarize(results, args.trace)
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

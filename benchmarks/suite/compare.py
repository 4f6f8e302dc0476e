"""Compare two sets of benchmark runs, metric by metric and workload by workload.

From the repository root::

    python3 benchmarks/suite/compare.py A.json B.json
    python3 benchmarks/suite/compare.py benchmarks/suite/baseline.json#A new.json

A is the parent and B the change.  Both are files written by ``run.py
--out``; ``PATH#NAME`` picks one set out of ``baseline.json``.  Only
untraced runs count.  For every (metric, workload) the tool prints each
side's quartiles and a verdict:

``better``
    B wins at least nine tenths of the runs paired in order, and the
    medians differ by more than A's interquartile distance.
``unresolved``
    not better, and either side's interquartile distance is wider than
    the metric's bound -- unless every run of B reads better than every
    run of A, which is ``unchanged``.
``worse``
    B's median is worse than A's by more than the bound.
``unchanged``
    otherwise.

End-to-end metrics take their bound from ``BENCHMARK.json``.
Deterministic diagnostics are compared seed by seed and must be equal;
a change that helps some seeds and hurts others is ``unresolved``.  The
other diagnostics have no bound: they are better or worse only by the
nine-tenths rule.  The host's own figures (``op_wall_ms``,
``host_slowdown``) are not compared.  A rise in a workload's failed
ratio is flagged.
Exits 1 when anything is worse or a failed ratio rose.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from stats import quartiles, relative_spread
from workloads import DIAGNOSTICS

ROOT = Path(__file__).resolve().parents[2]


def load_runs(spec: str) -> list[dict]:
    """The untraced runs of ``PATH`` or of set ``NAME`` in ``PATH#NAME``."""
    path, _, name = spec.partition("#")
    obj = json.loads(Path(path).read_text(encoding="utf-8"))
    if name:
        obj = obj["sets"][name]
    return [r for r in obj["runs"] if not r["trace"]]


def load_bounds(path: Path = ROOT / "BENCHMARK.json") -> dict[str, tuple[str, str, float]]:
    """End-to-end metric -> ``(unit, better, bound)``."""
    bench = json.loads(path.read_text(encoding="utf-8"))
    return {m["name"]: (m["unit"], m["better"], m["bound"]) for m in bench["end_to_end"]}


def verdict(a: list[float], b: list[float], better: str, bound: float | None) -> str:
    """The verdict on one metric's runs, A the parent and B the change."""
    sign = 1.0 if better == "lower" else -1.0
    qa, qb = quartiles(a), quartiles(b)
    worse_by = sign * (qb[1] - qa[1])  # > 0 when B's median is worse
    pairs = list(zip(a, b))
    wins = sum(sign * (y - x) < 0 for x, y in pairs)
    losses = sum(sign * (y - x) > 0 for x, y in pairs)
    iqr_a = qa[2] - qa[0]
    if wins >= 0.9 * len(pairs) and -worse_by > iqr_a:
        return "better"
    if bound is None:
        return "worse" if losses >= 0.9 * len(pairs) and worse_by > iqr_a else "unchanged"
    if max(relative_spread(a), relative_spread(b)) > bound:
        every_better = all(sign * (y - x) < 0 for x in a for y in b)
        return "unchanged" if every_better else "unresolved"
    return "worse" if worse_by > bound * abs(qa[1]) else "unchanged"


def seedwise_verdict(a: dict[int, float], b: dict[int, float], better: str) -> str:
    """Verdict on a deterministic metric: equal on every shared seed?"""
    sign = 1.0 if better == "lower" else -1.0
    changes = [sign * (b[s] - a[s]) for s in sorted(a.keys() & b.keys())]
    if not changes:
        return "unresolved"
    if all(c == 0 for c in changes):
        return "unchanged"
    if all(c <= 0 for c in changes):
        return "better"
    if all(c >= 0 for c in changes):
        return "worse"
    return "unresolved"


def _failed_ratio(runs: list[dict]) -> float:
    return sum(r["failed"] for r in runs) / max(1, sum(r["attempted"] for r in runs))


def compare(a_runs: list[dict], b_runs: list[dict], bounds: dict) -> tuple[list[dict], list[str]]:
    """One row per (workload, metric), plus failed-ratio flags."""
    rows, flags = [], []
    workloads = [w for w in dict.fromkeys(r["workload"] for r in a_runs)
                 if any(r["workload"] == w for r in b_runs)]
    for wl in workloads:
        a = [r for r in a_runs if r["workload"] == wl]
        b = [r for r in b_runs if r["workload"] == wl]
        fa, fb = _failed_ratio(a), _failed_ratio(b)
        if fb > fa:
            flags.append(f"{wl}: failed ratio rose from {fa:.4g} to {fb:.4g}")
        metrics = [(m, "e2e") + bounds[m] for m in bounds]
        metrics += [(m, "diagnostics") + DIAGNOSTICS[m][:2] + (None,)
                    for m in a[0]["diagnostics"]
                    if m in b[0]["diagnostics"] and DIAGNOSTICS[m][1]]
        for metric, source, unit, better, bound in metrics:
            va = [r[source][metric] for r in a]
            vb = [r[source][metric] for r in b]
            if source == "diagnostics" and DIAGNOSTICS[metric][2]:
                v = seedwise_verdict(
                    {r["seed"]: x for r, x in zip(a, va)},
                    {r["seed"]: x for r, x in zip(b, vb)},
                    better,
                )
            else:
                v = verdict(va, vb, better, bound)
            rows.append({"workload": wl, "metric": metric, "unit": unit,
                         "a": quartiles(va), "b": quartiles(vb), "verdict": v})
    return rows, flags


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("a", help="parent runs (PATH or PATH#SET)")
    ap.add_argument("b", help="changed runs (PATH or PATH#SET)")
    args = ap.parse_args(argv)
    rows, flags = compare(load_runs(args.a), load_runs(args.b), load_bounds())
    print(f"{'workload':<14} {'metric':<20} {'A q1 / median / q3':>36}   "
          f"{'B q1 / median / q3':>36}  verdict")
    for row in rows:
        qa = " / ".join(f"{x:.5g}" for x in row["a"])
        qb = " / ".join(f"{x:.5g}" for x in row["b"])
        print(f"{row['workload']:<14} {row['metric']:<20} {qa:>36}   {qb:>36}  "
              f"{row['verdict']} ({row['unit']})")
    for flag in flags:
        print(f"FLAG {flag}")
    return 1 if flags or any(r["verdict"] == "worse" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())

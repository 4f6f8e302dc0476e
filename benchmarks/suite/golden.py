"""Golden outputs the benchmark checks at seeds 0 and 1.

``golden.json`` holds, per seed, the digest of every simulated grid
cell (total cycles, per-process cycles and access statistics) and the
streaming fit of the ingest workload.  These change only when the
simulator's or the fit's semantics change; a speed-up must leave them
untouched.  Other seeds are reported as ``skipped``.

Regenerate after an intended semantic change, from the repository root::

    PYTHONPATH=src python benchmarks/suite/golden.py
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

__all__ = ["PATH", "SEEDS", "check", "load"]

PATH = Path(__file__).resolve().with_name("golden.json")
SEEDS = (0, 1)
#: Workloads with golden outputs (the design sweep checks itself against
#: exhaustive search instead; the service against in-process answers).
WORKLOADS = ("grid-smp", "grid-cluster", "trace-ingest")


def load(path: Path = PATH) -> dict:
    """``{workload: {seed: value}}``; empty when there is no golden file."""
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        return {}


def check(expected: dict | None, observed: dict) -> tuple[str, set]:
    """``("ok" | "mismatch" | "skipped", keys that differ)``."""
    if expected is None:
        return "skipped", set()
    bad = {k for k in expected.keys() | observed.keys() if expected.get(k) != observed.get(k)}
    return ("mismatch" if bad else "ok"), bad


def main() -> int:
    import workloads

    work = PATH.parent / "out" / "golden-work"
    table: dict = {}
    for name in WORKLOADS:
        for seed in SEEDS:
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            wl = workloads.create(name, seed, work, golden={})
            try:
                wl.prepare()
                table.setdefault(name, {})[str(seed)] = wl.golden_value(wl.op(None))
            finally:
                wl.close()
            print(f"{name} seed {seed}: done", file=sys.stderr)
    shutil.rmtree(work, ignore_errors=True)
    PATH.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

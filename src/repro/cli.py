"""Command-line interface: the integrated tool the paper's conclusion plans.

"We believe software that integrates these tools will provide a timely
and effective vehicle to support the design of cost effective parallel
cluster computing."  This module is that vehicle:

.. code-block:: bash

    python -m repro design --workload Radix --budget 20000
    python -m repro design --workload LU --budget 8000 --budget 16000 \\
        --budget 32000 --pareto --jobs 4 --cache-dir .repro_cache
    python -m repro upgrade --workload FFT --budget-increase 3000 \\
        --machines 4 --network ethernet100 --memory-mb 32
    python -m repro characterize --app EDGE --procs 4
    python -m repro predict --workload FFT --machines 4 --network atm
    python -m repro recommend --alpha 1.3 --beta 90 --gamma 0.31
    python -m repro simulate --app FFT --machines 1 --procs-per-machine 4 \\
        --sample-every 50000 --metrics-out metrics.json
    python -m repro profile --app FFT --machines 4 --out prof.json \\
        --flamegraph-out prof.folded --trace-out trace.json
    python -m repro profile --diff prof_a.json prof_b.json
    python -m repro faults --app FFT --machines 4 \\
        --inject delay:proc=0,at=1e5,cycles=5e4 --propagation
    python -m repro obs summary metrics.json
    python -m repro obs ledger --last 10

Workloads can be the paper's Table 2 names (FFT, LU, Radix, EDGE,
TPC-C) or explicit ``--alpha/--beta/--gamma`` triples.

Observability: ``--log-level`` controls the structured stderr logger;
simulating commands accept ``--sample-every N`` (simulated-time
timelines) and ``--metrics-out PATH`` (metrics + spans + timelines
JSON, rendered later by ``repro obs summary``).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from repro.obs.log import get_logger, set_level
from repro.obs.profile import CAUSES

from repro.core.amat import PAPER_REMOTE_RATE_ADJUSTMENT
from repro.core.execution import MODES
from repro.core.platform import PlatformSpec
from repro.cost.catalog import DEFAULT_CATALOG
from repro.cost.configspace import CandidateSpace
from repro.cost.optimizer import ModelOptions, _predict, optimize_upgrade
from repro.cost.recommend import recommend
from repro.cost.search import METHODS
from repro.service.api import (
    MAX_PROCESSORS,
    PLATFORM_KEYS,
    REQUEST_KEYS,
    WORKLOAD_KEYS,
    QueryError,
    platform_from_obj,
    registered_workloads,
    workload_from_obj,
)
from repro.sim.latencies import NAMED_NETWORKS
from repro.workloads.params import NAMED_WORKLOADS, WorkloadParams

__all__ = ["main", "build_parser"]


# -- argparse value validators -----------------------------------------
# argparse reports ArgumentTypeError as "argument --x: <message>", so a
# bad value fails at parse time with a pointed message instead of
# surfacing later as an opaque simulator exception.
def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return value


def _nonnegative_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
    if not value >= 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _fraction(text: str) -> float:
    """A proportion in (0, 1] -- e.g. gamma, the memory-reference rate."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
    if not 0 < value <= 1:
        raise argparse.ArgumentTypeError(f"must be in (0, 1], got {value}")
    return value


def _rack_size(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 2:
        raise argparse.ArgumentTypeError(f"a rack holds >= 2 machines, got {value}")
    return value


def _out_path(text: str) -> str:
    """An output file path: parent must exist, target must not be a dir.

    Catching this at the argparse layer means a long simulation never
    completes only to die on the final write.
    """
    from pathlib import Path

    path = Path(text)
    if path.is_dir():
        raise argparse.ArgumentTypeError(
            f"{text!r} is a directory, not a writable file path"
        )
    if not path.parent.is_dir():
        raise argparse.ArgumentTypeError(
            f"parent directory {str(path.parent)!r} does not exist"
        )
    return str(path)


def _existing_file(text: str) -> str:
    from pathlib import Path

    if not Path(text).is_file():
        raise argparse.ArgumentTypeError(f"no such file: {text!r}")
    return str(text)


def _bounded_platform(path, platform):
    """``platform``, loaded from ``path``, if it has at most
    :data:`MAX_PROCESSORS` processors -- the bound the shape flags get.
    The count is closed-form on the tree, so no machine is expanded."""
    if platform.total_processors > MAX_PROCESSORS:
        raise argparse.ArgumentTypeError(
            f"{path}: {platform.total_processors} processors exceed the "
            f"limit of {MAX_PROCESSORS}"
        )
    return platform


def _platform_arg(text: str) -> PlatformSpec:
    """Resolve ``--platform``: a built-in name or a topology JSON/YAML file.

    Malformed files die here, at the argparse layer, with the loader's
    pointed message -- never as a traceback from inside the simulator.
    """
    from pathlib import Path

    from repro.topology import BUILTIN_PLATFORMS, builtin_platform, load_platform_file

    if text in BUILTIN_PLATFORMS:
        return builtin_platform(text)
    path = Path(text)
    if path.exists() or path.suffix.lower() in (".json", ".yaml", ".yml"):
        try:
            platform = load_platform_file(path)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        return _bounded_platform(path, platform)
    known = ", ".join(sorted(BUILTIN_PLATFORMS))
    raise argparse.ArgumentTypeError(
        f"{text!r} is neither a built-in platform ({known}) nor a "
        "platform file (.json/.yaml/.yml)"
    )


#: Placement policies ``repro schedule``/``repro predict`` accept
#: (mirrors ``repro.scheduling.POLICIES``; the scheduling package is
#: imported lazily like every other heavy dependency).
_POLICY_CHOICES = ("round-robin", "speed", "memory-aware")


def _hetero_platform_arg(text: str):
    """Resolve ``schedule --platform``: a mixed built-in or a topology file.

    Accepts the heterogeneous built-ins (mixed-cow, mixed-clump), the
    homogeneous built-ins (a homogeneous tree is a legal scheduling
    platform -- every policy returns the even split), or a topology
    JSON/YAML file, which unlike ``--platform`` elsewhere may hold a
    genuinely heterogeneous tree.
    """
    from pathlib import Path

    from repro.scheduling import (
        HeteroPlatform,
        builtin_hetero_platform,
        load_hetero_platform_file,
    )
    from repro.topology import BUILTIN_PLATFORMS, builtin_platform
    from repro.topology.canned import BUILTIN_MIXED_TOPOLOGIES

    if text in BUILTIN_MIXED_TOPOLOGIES:
        return builtin_hetero_platform(text)
    if text in BUILTIN_PLATFORMS:
        return HeteroPlatform.from_spec(builtin_platform(text))
    path = Path(text)
    if path.exists() or path.suffix.lower() in (".json", ".yaml", ".yml"):
        try:
            platform = load_hetero_platform_file(path)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        return _bounded_platform(path, platform)
    known = ", ".join(sorted([*BUILTIN_MIXED_TOPOLOGIES, *BUILTIN_PLATFORMS]))
    raise argparse.ArgumentTypeError(
        f"{text!r} is neither a built-in platform ({known}) nor a "
        "platform file (.json/.yaml/.yml)"
    )


def _request_obj(args: argparse.Namespace, keys) -> dict:
    """The set flags named like request ``keys``, as a /v1 body: the CLI
    and the service then parse the same keys with the same parsers."""
    return {k: getattr(args, k) for k in keys if getattr(args, k, None) is not None}


def _workload_from(args: argparse.Namespace) -> WorkloadParams:
    return workload_from_obj(
        _request_obj(args, WORKLOAD_KEYS), getattr(args, "workload_dir", None)
    )


def _resolve_app(args: argparse.Namespace) -> None:
    """Make an ingested workload's replay app constructible by name.

    Built-in applications win; otherwise a registered workload that
    kept its trace container is installed as a
    :class:`~repro.apps.replay.ReplayApplication` factory, so
    ``simulate``/``profile``/``faults`` accept ingested workloads
    exactly like the paper's benchmarks.
    """
    from repro.apps.registry import APPLICATIONS, register_application

    name = getattr(args, "app", None)
    if not name or name in APPLICATIONS:
        return
    registered = registered_workloads(args.workload_dir)
    workload = registered.get(name)
    if workload is None or not workload.container:
        known = sorted(APPLICATIONS) + sorted(
            n for n, w in registered.items() if w.container and n not in APPLICATIONS
        )
        raise SystemExit(
            f"unknown application {name!r}; known: {', '.join(known)}"
        )
    container = workload.container

    def factory(num_procs=1, seed=0, **kw):
        from repro.apps.replay import ReplayApplication

        return ReplayApplication(
            container, name=name, num_procs=num_procs, seed=seed, **kw
        )

    register_application(name, factory)


def _add_workload_dir_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--workload-dir", default=".repro_workloads", metavar="DIR",
        help="registry of ingested workloads ('repro trace ingest'; "
        "'' disables)",
    )


def _add_workload_args(p: argparse.ArgumentParser, registry: bool = True) -> None:
    p.add_argument(
        "--workload",
        help="a Table 2 name (" + ", ".join(NAMED_WORKLOADS) + ") or an "
        "ingested workload from --workload-dir",
    )
    p.add_argument("--alpha", type=_positive_float, help="locality tail exponent (> 1)")
    p.add_argument("--beta", type=_positive_float, help="locality scale in 64-byte items")
    p.add_argument(
        "--gamma", type=_fraction,
        help="memory-referencing instruction fraction, in (0, 1]",
    )
    if registry:
        _add_workload_dir_arg(p)


def _add_platform_args(p: argparse.ArgumentParser, files: bool = True) -> None:
    p.add_argument("--machines", type=_positive_int, default=4, help="machine count N")
    p.add_argument(
        "--procs-per-machine", type=_positive_int, default=1,
        help="processors per machine n",
    )
    p.add_argument(
        "--cache-kb", type=_positive_int, default=256, help="per-processor cache (KB)"
    )
    p.add_argument(
        "--memory-mb", type=_positive_int, default=64, help="per-machine memory (MB)"
    )
    p.add_argument(
        "--network", choices=sorted(NAMED_NETWORKS), default="ethernet100",
        help="cluster network (ignored for a single machine)",
    )
    p.add_argument(
        "--l2-kb", type=_positive_int, default=None,
        help="optional per-machine shared L2 (KB; hierarchy-length extension)",
    )
    if not files:
        return
    p.add_argument(
        "--platform", type=_platform_arg, default=None, metavar="NAME_OR_FILE",
        help="declarative platform: a built-in name (clump-of-smps, "
        "cow-of-racks) or a topology JSON/YAML file; overrides the shape "
        "flags above",
    )


def _add_runner_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--jobs", type=_positive_int, default=None,
        help="simulation worker processes (default: all cores; 1 simulates "
        "in-process)",
    )
    p.add_argument(
        "--horizon", type=_nonnegative_float, default=200.0,
        help="engine causality horizon in cycles (0 = exact interleaving)",
    )
    p.add_argument(
        "--cache-dir", default=".repro_cache",
        help="simulation result cache directory ('' disables caching)",
    )
    p.add_argument(
        "--sample-every", type=_positive_float, default=None, metavar="CYCLES",
        help="record a per-backend timeline window every CYCLES simulated "
        "cycles (off by default; costs simulation throughput)",
    )
    p.add_argument(
        "--metrics-out", default=None, metavar="PATH",
        help="write metrics, spans and timelines as JSON to PATH on exit "
        "(inspect with 'repro obs summary PATH')",
    )
    p.add_argument(
        "--inject", action="append", default=[], metavar="SPEC",
        help="inject a fault into every simulation: kind:key=value,... with "
        "kinds delay/stall (proc,at,cycles), slow (proc,start,end,factor), "
        "netspike (start,end,extra); repeatable",
    )
    p.add_argument(
        "--cell-timeout", type=_positive_float, default=None, metavar="SECONDS",
        help="wall-clock limit per pooled simulation cell (exceeding it "
        "degrades the grid to serial execution)",
    )
    p.add_argument(
        "--max-retries", type=int, default=2, metavar="N",
        help="retries per failed simulation cell before the grid errors",
    )


def _fault_plan_from(args: argparse.Namespace):
    """Build the ``--inject`` fault plan, or ``None`` when unused."""
    specs = getattr(args, "inject", None)
    if not specs:
        return None
    from repro.faults.plan import plan_from_specs

    try:
        return plan_from_specs(specs)
    except ValueError as exc:
        raise SystemExit(f"--inject: {exc}") from None


def _runner_from(args: argparse.Namespace, **extra):
    from repro.experiments.runner import ExperimentRunner

    if args.max_retries < 0:
        raise SystemExit("--max-retries must be >= 0")
    return ExperimentRunner(
        horizon=args.horizon,
        jobs=args.jobs,
        cache_dir=args.cache_dir or None,
        sample_every=args.sample_every,
        fault_plan=_fault_plan_from(args),
        cell_timeout=args.cell_timeout,
        max_retries=args.max_retries,
        **extra,
    )


def _finish_observability(args: argparse.Namespace, runner=None) -> None:
    """Dump the run's metrics/spans/timelines when ``--metrics-out`` is set."""
    if getattr(args, "metrics_out", None) is None:
        return
    from repro.obs.summary import write_payload

    timelines = runner.timelines() if runner is not None else None
    profiles = runner.profiles() if runner is not None else None
    write_payload(args.metrics_out, timelines=timelines, profiles=profiles)
    get_logger("repro.cli").info(
        "wrote observability payload", path=args.metrics_out
    )


def _export_profile(
    profile, out=None, flamegraph_out=None, trace_out=None
) -> None:
    """Write a profile's JSON / collapsed-stack / Chrome-trace exports."""
    from repro.ioutil import atomic_write_json, atomic_write_text
    from repro.obs.spans import get_tracer

    log = get_logger("repro.cli")
    if out is not None:
        atomic_write_json(out, profile.to_obj())
        log.info("wrote cycle-attribution profile", path=out)
    if flamegraph_out is not None:
        atomic_write_text(flamegraph_out, profile.to_collapsed())
        log.info("wrote collapsed-stack flamegraph", path=flamegraph_out)
    if trace_out is not None:
        atomic_write_json(
            trace_out, profile.to_trace_events(spans=get_tracer().roots)
        )
        log.info("wrote Chrome trace_event JSON", path=trace_out)


def _ledger_record(args: argparse.Namespace, runner, spec, res) -> None:
    """Append one ``ledger.jsonl`` line for a simulating CLI run.

    Only runs with a cache directory leave a ledger trail; the config
    hash covers everything that determines the outcome (app + overrides,
    seed, horizon, the full platform spec, the fault plan).
    """
    if not getattr(args, "cache_dir", None):
        return
    import hashlib

    from repro.obs.ledger import record_run

    plan = _fault_plan_from(args)
    payload = json.dumps(
        {
            "app": args.app,
            "app_args": sorted(getattr(args, "app_arg", []) or []),
            "seed": args.seed,
            "horizon": args.horizon,
            "spec": spec.to_dict(),
            "faults": plan.cache_key() if plan else None,
        },
        sort_keys=True,
    )
    record_run(
        args.cache_dir,
        app=args.app,
        platform=spec.name,
        lane=runner.last_grid_lane or "serial",
        config_hash=hashlib.sha256(payload.encode()).hexdigest(),
        total_cycles=res.total_cycles,
        references=res.total_references,
        profile=res.profile,
    )


def _stats_line(stats) -> str:
    """One human line of :class:`repro.cost.search.SearchStats`."""
    line = (
        f"{stats.candidates} candidates, {stats.evaluated} evaluated, "
        f"{stats.pruned} pruned ({100 * stats.pruning_ratio:.0f}%), "
        f"{stats.memo_hits} memo hits"
    )
    if stats.from_cache:
        line += " [cached answer]"
    return line


def _design_payload(outcome, include_frontier: bool) -> dict:
    from repro.cost.search import upgrade_path

    result = outcome.result
    payload = {
        "workload": result.workload.name,
        "budget": result.budget,
        "best": result.best.as_dict(),
        "stats": outcome.stats.as_dict(),
    }
    if include_frontier:
        payload["frontier"] = [r.as_dict() for r in outcome.frontier]
        payload["upgrade_path"] = [
            r.as_dict() for r in upgrade_path(outcome.frontier)
        ]
    return payload


def _frontier_text(outcome) -> str:
    from repro.cost.search import upgrade_path

    path = {r.spec.name for r in upgrade_path(outcome.frontier)}
    lines = ["price/performance frontier (* = on the incremental upgrade path):"]
    for r in outcome.frontier:
        mark = "*" if r.spec.name in path else " "
        lines.append(
            f"  {mark} {r.spec.name:<44s} ${r.price:>8,.0f}  "
            f"E(Instr)={r.e_instr_seconds:.3e}s"
        )
    return "\n".join(lines)


def _validate_upgrade_args(args: argparse.Namespace) -> None:
    """Reject upgrade questions no candidate could ever answer.

    The upgrade search only considers configurations that *grow* the
    current cluster within the candidate space, so a current platform
    outside the catalog (odd cache size) or already past the space's
    bounds would silently enumerate nothing (or die deep in pricing).
    Fail at the CLI boundary with argparse-style messages instead.
    """
    space = CandidateSpace()
    problems: list[str] = []
    if args.cache_kb not in DEFAULT_CATALOG.cache_prices:
        problems.append(
            f"argument --cache-kb: {args.cache_kb} is not a catalog cache "
            f"option {sorted(DEFAULT_CATALOG.cache_prices)}"
        )
    if args.l2_kb is not None and args.l2_kb not in DEFAULT_CATALOG.l2_prices:
        problems.append(
            f"argument --l2-kb: {args.l2_kb} is not a catalog L2 "
            f"option {sorted(DEFAULT_CATALOG.l2_prices)}"
        )
    if args.machines > space.max_machines:
        problems.append(
            f"argument --machines: {args.machines} already exceeds the "
            f"candidate space's maximum of {space.max_machines}; "
            "nothing could grow it"
        )
    if args.procs_per_machine > max(space.processor_counts):
        problems.append(
            f"argument --procs-per-machine: {args.procs_per_machine} already "
            f"exceeds the largest candidate SMP ({max(space.processor_counts)}"
            "-way); nothing could grow it"
        )
    if args.memory_mb > max(space.memory_mb_options):
        problems.append(
            f"argument --memory-mb: {args.memory_mb} already exceeds the "
            f"largest candidate memory ({max(space.memory_mb_options)} MB); "
            "nothing could grow it"
        )
    if problems:
        raise SystemExit("upgrade: error: " + "; ".join(problems))


def _platform_from(args: argparse.Namespace, name: str = "platform") -> PlatformSpec:
    if getattr(args, "platform", None) is not None:
        return args.platform
    return platform_from_obj(_request_obj(args, PLATFORM_KEYS), name)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Cost-effective cluster design with the Du & Zhang (IPPS 1999) model.",
    )
    parser.add_argument(
        "--log-level", choices=("debug", "info", "warning", "error"), default=None,
        help="structured-logger threshold (default: info; overrides -q/--verbose)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "design", help="optimal platform for one or more budgets (paper Eq. 6)"
    )
    _add_workload_args(p)
    p.add_argument(
        "--budget", type=_positive_float, action="append", required=True,
        help="dollars; repeat to answer several budgets in one run",
    )
    p.add_argument("--top", type=_positive_int, default=5, help="ranking entries to print")
    p.add_argument(
        "--method", choices=METHODS, default="exhaustive",
        help="search strategy -- both return the identical optimum and "
        "frontier; 'exhaustive' (default) ranks every candidate, 'pareto' "
        "prunes on a lower bound and ranks only what it evaluated",
    )
    p.add_argument(
        "--jobs", type=_positive_int, default=1,
        help="worker processes for the design search (1 = in-process)",
    )
    p.add_argument(
        "--pareto", action="store_true",
        help="print the price/performance frontier and its upgrade path",
    )
    p.add_argument(
        "--rack-size", type=_rack_size, action="append", default=[],
        metavar="M",
        help="also enumerate each flat cluster re-wired as switched racks "
        "of M machines (topology mutation; repeatable)",
    )
    p.add_argument(
        "--add-platform", type=_platform_arg, action="append", default=[],
        metavar="NAME_OR_FILE",
        help="extra candidate platform (built-in name or topology file) "
        "competing with the enumerated grid; must be catalog-priceable "
        "(repeatable)",
    )
    p.add_argument(
        "--mix", action="store_true",
        help="rank heterogeneous machine mixes (two unlike node shapes, "
        "scheduled memory-aware) instead of homogeneous platforms",
    )
    p.add_argument(
        "--json", action="store_true", dest="as_json",
        help="emit machine-readable JSON instead of text",
    )
    p.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="design-answer disk cache, e.g. .repro_cache (off by default)",
    )
    p.add_argument(
        "--metrics-out", default=None, metavar="PATH",
        help="write search metrics as JSON to PATH on exit",
    )

    p = sub.add_parser("upgrade", help="best way to spend a budget increase")
    _add_workload_args(p)
    _add_platform_args(p)
    p.add_argument(
        "--budget-increase", type=_positive_float, required=True, help="dollars"
    )
    p.add_argument("--top", type=_positive_int, default=5)

    p = sub.add_parser("predict", help="E(Instr) of a workload on a platform")
    _add_workload_args(p)
    _add_platform_args(p)
    p.add_argument(
        "--mode", choices=MODES, default="throttled",
        help="contention treatment (open = the paper's formula, mva = exact "
        "closed-network MVA on SMPs)",
    )
    p.add_argument(
        "--policy", choices=_POLICY_CHOICES, default=None,
        help="route the prediction through the scheduling layer under this "
        "placement policy (requires --mode open; per-process breakdown)",
    )

    p = sub.add_parser(
        "schedule",
        help="compare placement policies for a workload on a (mixed) platform",
    )
    _add_workload_args(p)
    p.add_argument(
        "--platform", type=_hetero_platform_arg, required=True,
        metavar="NAME_OR_FILE",
        help="built-in tree (mixed-cow, mixed-clump, clump-of-smps, "
        "cow-of-racks) or a topology JSON/YAML file -- heterogeneous "
        "trees welcome",
    )
    p.add_argument(
        "--policy", action="append", choices=_POLICY_CHOICES, default=None,
        help="policy to evaluate (repeatable; default: all of them)",
    )
    p.add_argument(
        "--json", action="store_true", dest="as_json",
        help="emit machine-readable JSON instead of text",
    )

    p = sub.add_parser("recommend", help="the Section 6 design rule for a workload")
    _add_workload_args(p)

    p = sub.add_parser(
        "characterize", help="run a benchmark and fit (alpha, beta, gamma) from its trace"
    )
    p.add_argument("--app", required=True, help="FFT, LU, Radix, EDGE or TPC-C")
    p.add_argument("--procs", type=_positive_int, default=1)
    p.add_argument("--seed", type=int, default=0)
    _add_workload_dir_arg(p)

    p = sub.add_parser("report", help="run the full paper reproduction (slow)")
    _add_runner_args(p)
    p.add_argument(
        "-q", "--quiet", action="store_true",
        help="only warnings and errors (log level warning)",
    )
    p.add_argument(
        "--verbose", action="store_true",
        help="per-cell progress detail (log level debug)",
    )

    p = sub.add_parser(
        "validate", help="run one validation figure (model vs simulator)"
    )
    p.add_argument(
        "--figure", type=int, choices=(2, 3, 4), required=True,
        help="2 = SMPs, 3 = clusters of workstations, 4 = clusters of SMPs",
    )
    _add_runner_args(p)

    p = sub.add_parser(
        "simulate", help="simulate one application on one platform"
    )
    p.add_argument(
        "--app", required=True,
        help="FFT, LU, Radix, EDGE, TPC-C or an ingested workload "
        "(replayed from its trace container)",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--app-arg", action="append", default=[], metavar="KEY=VALUE",
        help="application constructor override, e.g. --app-arg points=1024 "
        "(repeatable)",
    )
    _add_workload_dir_arg(p)
    _add_platform_args(p)
    _add_runner_args(p)
    p.add_argument(
        "--profile-out", type=_out_path, default=None, metavar="PATH",
        help="profile the run (exact cycle attribution) and write the "
        "profile JSON to PATH (render/compare with 'repro profile')",
    )

    p = sub.add_parser(
        "profile",
        help="exact cycle attribution: where did the simulated cycles go?",
    )
    p.add_argument(
        "--app", default=None, help="FFT, LU, Radix, EDGE or TPC-C"
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--app-arg", action="append", default=[], metavar="KEY=VALUE",
        help="application constructor override (repeatable)",
    )
    _add_workload_dir_arg(p)
    p.add_argument(
        "--cause", action="append", default=[], choices=CAUSES, metavar="CAUSE",
        help="restrict the printed table to these causes (repeatable; "
        "one of: " + ", ".join(CAUSES) + ")",
    )
    p.add_argument(
        "--out", type=_out_path, default=None, metavar="PATH",
        help="write the profile as JSON (exact values; diffable later)",
    )
    p.add_argument(
        "--flamegraph-out", type=_out_path, default=None, metavar="PATH",
        help="write collapsed-stack text ('node;cause cycles') for "
        "flamegraph.pl / speedscope",
    )
    p.add_argument(
        "--trace-out", type=_out_path, default=None, metavar="PATH",
        help="write Chrome trace_event JSON combining simulated-cycle "
        "attribution with the run's wall-clock spans",
    )
    p.add_argument(
        "--diff", nargs=2, type=_existing_file, default=None,
        metavar=("A.json", "B.json"),
        help="instead of running, render the per-bucket difference "
        "between two profile JSONs (A - B)",
    )
    _add_platform_args(p)
    _add_runner_args(p)

    p = sub.add_parser(
        "faults",
        help="fault-injection demo: clean vs faulted run of one application",
    )
    p.add_argument("--app", default="FFT", help="FFT, LU, Radix, EDGE or TPC-C")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--app-arg", action="append", default=[], metavar="KEY=VALUE",
        help="application constructor override (repeatable)",
    )
    _add_workload_dir_arg(p)
    p.add_argument(
        "--gen-seed", type=int, default=None, metavar="SEED",
        help="generate a seeded random fault plan sized to the clean run "
        "(combines with --inject; used alone when no --inject is given)",
    )
    p.add_argument(
        "--propagation", action="store_true",
        help="also sweep one-off delay sizes and report how they decay "
        "through the barrier-wait term",
    )
    _add_platform_args(p)
    _add_runner_args(p)

    p = sub.add_parser(
        "trace",
        help="trace containers and streaming ingestion (docs/TRACES.md)",
    )
    trace_sub = p.add_subparsers(dest="trace_command", required=True)
    p = trace_sub.add_parser(
        "ingest",
        help="stream a raw trace, fit (alpha, beta, gamma) out of core, "
        "register the result as a workload",
    )
    p.add_argument(
        "source",
        help="a trace container (*.rtc), a directory of containers, a "
        "plain-text address stream (.txt/.addr) or a raw binary one "
        "(.bin/.raw)",
    )
    p.add_argument(
        "--name", default=None,
        help="workload name to register (default: derived from the source)",
    )
    _add_workload_dir_arg(p)
    p.add_argument(
        "--chunk-records", type=_positive_int, default=65536, metavar="N",
        help="records per streamed chunk -- the pipeline never holds more "
        "than one chunk of the trace",
    )
    p.add_argument(
        "--max-live-items", type=_positive_int, default=None, metavar="N",
        help="bound the live-item table; overflow evicts the least-recent "
        "items (distances stay exact below the bound; default unbounded)",
    )
    p.add_argument(
        "--compression", choices=("none", "zlib", "lz4"), default="zlib",
        help="container codec for imported sources (lz4 needs the lz4 "
        "package)",
    )
    p.add_argument(
        "--binary-dtype", default="<i8", metavar="DTYPE",
        help="numpy dtype of raw binary address streams (default <i8)",
    )
    p.add_argument(
        "--gamma", type=_fraction, default=None,
        help="gamma override for address-only sources carrying no work "
        "counts",
    )
    p.add_argument(
        "--num-fit-points", type=_positive_int, default=64, metavar="N",
        help="log-spaced CDF points per fit (matches the offline default)",
    )
    p.add_argument(
        "--fit-every", type=_positive_int, default=1, metavar="N",
        help="re-fit once per N chunks (the histogram still sees every "
        "chunk)",
    )
    p.add_argument(
        "--tol", type=_positive_float, default=0.01,
        help="convergence threshold on the relative (alpha, beta, gamma) "
        "deltas",
    )
    p.add_argument(
        "--patience", type=_positive_int, default=3, metavar="N",
        help="consecutive below-tol fits required to declare convergence",
    )
    p.add_argument(
        "--stop-early", action="store_true",
        help="stop streaming once the convergence rule holds",
    )
    p.add_argument(
        "--convergence-out", type=_out_path, default=None, metavar="PATH",
        help="write the per-chunk (alpha, beta, gamma) trajectory as JSON",
    )
    p.add_argument(
        "--metrics-out", default=None, metavar="PATH",
        help="write trace_* metrics and ingest spans as JSON on exit",
    )
    p = trace_sub.add_parser(
        "info", help="describe a trace container (header + frame scan)"
    )
    p.add_argument("container", type=_existing_file)
    p = trace_sub.add_parser("list", help="list registered workloads")
    _add_workload_dir_arg(p)

    p = sub.add_parser("obs", help="observability utilities")
    obs_sub = p.add_subparsers(dest="obs_command", required=True)
    p = obs_sub.add_parser(
        "summary", help="render a --metrics-out JSON payload as text"
    )
    p.add_argument("payload", help="path to a --metrics-out JSON file")
    p.add_argument(
        "--max-windows", type=int, default=24,
        help="timeline rows per table (adjacent windows merge beyond this)",
    )
    p = obs_sub.add_parser(
        "ledger", help="show the append-only run ledger of a cache dir"
    )
    p.add_argument(
        "--cache-dir", default=".repro_cache",
        help="cache directory whose ledger.jsonl to read",
    )
    p.add_argument(
        "--last", type=_positive_int, default=20, metavar="N",
        help="most recent entries to show",
    )

    p = sub.add_parser(
        "serve",
        help="run the overload-hardened query service (see docs/SERVICE.md)",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8321, help="0 = ephemeral")
    p.add_argument(
        "--jobs", type=_positive_int, default=2,
        help="simulation worker processes behind the circuit breaker",
    )
    p.add_argument("--seed", type=int, default=0, help="backoff-jitter seed")
    p.add_argument(
        "--cache-dir", default=".repro_cache",
        help="design/simulation disk cache ('' disables)",
    )
    _add_workload_dir_arg(p)
    p.add_argument(
        "--inject", action="append", default=[], metavar="SPEC",
        help="service fault spec (repeatable): workerkill:after=N, "
        "poolstall:after=N,duration=S, slowdep:at=T,duration=S,extra=S",
    )
    p.add_argument(
        "--rate", type=_positive_float, default=None,
        help="token-bucket refill (requests/s) applied to every endpoint",
    )
    p.add_argument(
        "--burst", type=_positive_float, default=None,
        help="token-bucket burst capacity applied to every endpoint",
    )
    p.add_argument(
        "--queue-depth", type=_positive_int, default=None,
        help="admission watermark applied to every endpoint",
    )
    p.add_argument(
        "--coalesce-ms", type=_positive_float, default=None,
        help="coalescing window (milliseconds) for predict/design waves",
    )
    p.add_argument(
        "--deadline-s", type=_positive_float, default=None,
        help="default per-request deadline applied to every endpoint",
    )
    p.add_argument(
        "--breaker-threshold", type=_positive_int, default=3,
        help="consecutive simulate failures that open the breaker",
    )
    p.add_argument(
        "--breaker-recovery", type=_positive_float, default=5.0,
        help="seconds the breaker stays open before a half-open probe",
    )

    p = sub.add_parser(
        "query", help="ask a running 'repro serve' one question"
    )
    p.add_argument(
        "endpoint", choices=("predict", "design", "simulate"),
        help="which /v1/ endpoint to call",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8321)
    p.add_argument(
        "--deadline-s", type=_positive_float, default=None,
        help="relative request deadline (server default when omitted)",
    )
    p.add_argument(
        "--mode", choices=MODES, default="throttled",
        help="evaluation mode (predict only)",
    )
    p.add_argument(
        "--budget", type=_positive_float, default=None,
        help="dollars (design only)",
    )
    p.add_argument("--app", default="FFT", help="application (simulate only)")
    p.add_argument("--seed", type=int, default=0, help="trace seed (simulate only)")
    p.add_argument(
        "--app-arg", action="append", default=[], metavar="KEY=VALUE",
        help="application constructor override (simulate only; repeatable)",
    )
    _add_workload_args(p, registry=False)
    _add_platform_args(p, files=False)
    return parser


def _parse_app_args(pairs: Sequence[str]) -> dict[str, object]:
    """Parse repeated ``KEY=VALUE`` overrides, guessing int/float/str."""
    out: dict[str, object] = {}
    for pair in pairs:
        key, sep, raw = pair.partition("=")
        if not sep or not key:
            raise SystemExit(f"--app-arg expects KEY=VALUE, got {pair!r}")
        value: object = raw
        for cast in (int, float):
            try:
                value = cast(raw)
                break
            except ValueError:
                continue
        out[key] = value
    return out


def _trace_command(args: argparse.Namespace) -> int:
    """Dispatch ``repro trace ingest|info|list``."""
    if args.trace_command == "ingest":
        from repro.trace.ingest import ingest

        if not args.workload_dir:
            raise SystemExit("trace ingest: --workload-dir must not be empty")
        try:
            result = ingest(
                args.source,
                name=args.name,
                workload_dir=args.workload_dir,
                chunk_records=args.chunk_records,
                max_live_items=args.max_live_items,
                compression=args.compression,
                binary_dtype=args.binary_dtype,
                gamma=args.gamma,
                num_fit_points=args.num_fit_points,
                fit_every=args.fit_every,
                tol=args.tol,
                patience=args.patience,
                stop_early=args.stop_early,
            )
        except ValueError as exc:
            raise SystemExit(f"trace ingest: {exc}") from None
        print(result.describe())
        if args.convergence_out is not None:
            result.convergence.export_json(args.convergence_out)
            get_logger("repro.cli").info(
                "wrote convergence trajectory", path=args.convergence_out
            )
        _finish_observability(args)
        return 0

    if args.trace_command == "info":
        from repro.trace.store import TraceStoreReader

        try:
            reader = TraceStoreReader(args.container)
            summary = reader.scan()
        except ValueError as exc:
            raise SystemExit(f"trace info: {exc}") from None
        print(f"trace container {args.container}")
        print(f"  format     : {reader.header['format']} "
              f"(version {reader.header['version']}, "
              f"{reader.header['address_width']}-bit addresses)")
        print(f"  compression: {reader.compression} "
              f"(chunk_records={reader.chunk_records})")
        print(f"  records    : {summary['records']:,} in "
              f"{summary['chunks']} chunks, {summary['barriers']} barriers")
        print(f"  max address: {summary['max_address']:,} "
              f"({summary['bytes']:,} bytes on disk)")
        if not summary["clean_close"]:
            print("  note       : header says unclean close "
                  "(records counted by frame scan)")
        if summary["torn_tail"]:
            print("  WARNING    : torn tail -- the final frame is truncated")
        return 0

    assert args.trace_command == "list"
    registered = registered_workloads(args.workload_dir)
    if not registered:
        print(f"no registered workloads in {args.workload_dir!r}")
        return 0
    print(f"registered workloads in {args.workload_dir!r}:")
    for name, wl in sorted(registered.items()):
        p = wl.params
        line = (
            f"  {name:<20s} alpha={p.alpha:<8.4f} beta={p.beta:<12.4f} "
            f"gamma={p.gamma:.4f}  {wl.records:>12,} records"
        )
        if wl.converged:
            line += "  [converged]"
        if wl.container:
            line += f"  ({wl.container})"
        print(line)
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)

    level = args.log_level
    if level is None and getattr(args, "quiet", False):
        level = "warning"
    if level is None and getattr(args, "verbose", False):
        level = "debug"
    if level is not None:
        set_level(level)
    try:
        return _run(args)
    except QueryError as exc:  # a request the shared parsers reject
        raise SystemExit(f"{args.command}: {exc}") from None


def _run(args: argparse.Namespace) -> int:
    if args.command == "design" and args.mix:
        from repro.scheduling import design_mix

        workload = _workload_from(args)
        payloads = []
        for budget in args.budget:
            mixes = design_mix(
                workload.locality, workload.gamma, budget,
                top=args.top, remote_rate_adjustment=PAPER_REMOTE_RATE_ADJUSTMENT,
            )
            if args.as_json:
                payloads.append(
                    {"budget": budget, "mixes": [m.as_dict() for m in mixes]}
                )
                continue
            print(f"best machine mixes under ${budget:,.0f} (memory-aware):")
            if not mixes:
                print("  no feasible mix within budget")
            for rank, mix in enumerate(mixes, 1):
                print(
                    f"  {rank}. {mix.name}: ${mix.cost:,.0f}, "
                    f"E(Instr) = {mix.e_instr_seconds:.3e} s"
                )
        if args.as_json:
            print(json.dumps(payloads, indent=2))
        return 0

    if args.command == "design":
        from repro.cost.search import DesignQuery, DesignSearch

        workload = _workload_from(args)
        space = None
        if args.rack_size or args.add_platform:
            from repro.cost.model import assert_priceable

            for extra in args.add_platform:
                try:
                    assert_priceable(DEFAULT_CATALOG, extra)
                except ValueError as exc:
                    raise SystemExit(f"--add-platform: {exc}") from None
            space = CandidateSpace(
                rack_sizes=tuple(args.rack_size),
                extra_platforms=tuple(args.add_platform),
            )
        engine = DesignSearch(
            space=space, jobs=args.jobs, cache_dir=args.cache_dir or None
        )
        try:
            outcomes = engine.run(
                [DesignQuery(workload, b, args.method) for b in args.budget]
            )
        except ValueError as exc:
            raise SystemExit(f"design: {exc}") from None
        if args.as_json:
            print(json.dumps(
                [_design_payload(o, args.pareto) for o in outcomes], indent=2
            ))
        else:
            for i, outcome in enumerate(outcomes):
                if i:
                    print()
                print(outcome.result.describe(top=args.top))
                print("search: " + _stats_line(outcome.stats))
                if args.pareto:
                    print(_frontier_text(outcome))
            print(f"\nSection 6 rule: {recommend(workload).platform}")
        _finish_observability(args)
        return 0

    if args.command == "upgrade":
        workload = _workload_from(args)
        _validate_upgrade_args(args)
        current = _platform_from(args, name="current cluster")
        result = optimize_upgrade(workload, current, args.budget_increase)
        print(result.describe(top=args.top))
        return 0

    if args.command == "predict" and args.policy:
        from repro.scheduling import (
            HeteroPlatform,
            evaluate_hetero,
            process_costs,
            resolve_policy,
        )

        workload = _workload_from(args)
        spec = _platform_from(args)
        if args.mode != "open":
            raise SystemExit(
                "predict: --policy routes through the scheduling layer, which "
                "supports --mode open only (the throttled/mva fixed points fold "
                "the barrier inside their iteration; see docs/SCHEDULING.md)"
            )
        case = ModelOptions().case(
            spec, workload.sharing_at(spec.N), workload.sharing_fresh_fraction
        )
        costs = process_costs(
            HeteroPlatform.from_spec(spec),
            workload.locality,
            workload.gamma,
            remote_rate_adjustment=case.remote_rate_adjustment,
            sharing_fraction=case.sharing_fraction,
            sharing_fresh_fraction=case.sharing_fresh_fraction,
        )
        est = evaluate_hetero(costs, resolve_policy(args.policy)(costs))
        print(spec.describe())
        print(est.describe())
        return 0

    if args.command == "predict":
        workload = _workload_from(args)
        spec = _platform_from(args)
        est = _predict(spec, workload, ModelOptions(mode=args.mode))
        print(spec.describe())
        print(est.amat.describe())
        print(f"E(Instr) = {est.e_instr_seconds:.3e} s/instruction")
        return 0

    if args.command == "schedule":
        from repro.scheduling import compare_policies

        workload = _workload_from(args)
        platform = args.platform
        policies = tuple(args.policy) if args.policy else None
        # Pure capacity model (no DSM sharing term), like the policy
        # experiment: sharing traffic hits every policy alike and would
        # saturate the small built-in trees for all of them.
        estimates = compare_policies(
            platform,
            workload.locality,
            workload.gamma,
            policies=policies,
            remote_rate_adjustment=PAPER_REMOTE_RATE_ADJUSTMENT,
        )
        if args.as_json:
            print(json.dumps(
                {name: est.as_dict() for name, est in estimates.items()}, indent=2
            ))
            return 0
        print(platform.describe())
        print()
        for i, est in enumerate(estimates.values()):
            if i:
                print()
            print(est.describe())
        if "memory-aware" in estimates and "round-robin" in estimates:
            best = estimates["memory-aware"]
            rival = estimates["round-robin"]
            if best.feasible and rival.feasible:
                print(
                    f"\nmemory-aware speedup over round-robin: "
                    f"{best.speedup_over(rival):.2f}x"
                )
        return 0

    if args.command == "recommend":
        workload = _workload_from(args)
        print(recommend(workload).describe())
        return 0

    if args.command == "characterize":
        from repro.apps.registry import make_application
        from repro.trace.analysis import characterize_run

        _resolve_app(args)
        app = make_application(args.app, num_procs=args.procs, seed=args.seed)
        run = app.run()
        ch = characterize_run(run)
        print(
            f"ran {run.name} ({run.problem_size}) on {run.num_procs} process(es): "
            f"verified={run.verified}, {run.total_references:,} references"
        )
        print(ch.describe())
        p = ch.params
        print(
            f"sharing: {100 * p.sharing_fraction:.1f}% remote-partition references, "
            f"{100 * p.sharing_fresh_fraction:.1f}% coherence-fresh"
        )
        return 0

    if args.command == "report":
        from repro.experiments.reporting import generate_report

        runner = _runner_from(args)
        print(generate_report(runner=runner, verbose=not args.quiet))
        _finish_observability(args, runner)
        return 0

    if args.command == "validate":
        from repro.experiments.figures import run_figure2, run_figure3, run_figure4

        run = {2: run_figure2, 3: run_figure3, 4: run_figure4}[args.figure]
        runner = _runner_from(args)
        print(run(runner=runner).describe())
        _finish_observability(args, runner)
        return 0

    if args.command == "simulate":
        _resolve_app(args)
        app_kwargs = _parse_app_args(args.app_arg)
        runner = _runner_from(
            args,
            seed=args.seed,
            app_kwargs={args.app: app_kwargs} if app_kwargs else None,
            profile=args.profile_out is not None,
        )
        spec = _platform_from(args, name="cli")
        res = runner.simulate(args.app, spec)
        print(res.describe())
        if res.timeline is not None:
            print()
            print(res.timeline.describe())
        if res.profile is not None:
            print()
            print(res.profile.describe())
            _export_profile(res.profile, out=args.profile_out)
        _ledger_record(args, runner, spec, res)
        _finish_observability(args, runner)
        return 0

    if args.command == "profile":
        from repro.obs.profile import CycleProfile, describe_diff

        if args.diff is not None:
            profs = []
            for path in args.diff:
                with open(path, encoding="utf-8") as fh:
                    obj = json.load(fh)
                try:
                    profs.append(CycleProfile.from_obj(obj))
                except ValueError as exc:
                    raise SystemExit(f"--diff: {path}: {exc}") from None
            print(describe_diff(profs[0], profs[1]))
            return 0
        if not args.app:
            raise SystemExit(
                "profile: provide --app NAME to profile a run, "
                "or --diff A.json B.json to compare two saved profiles"
            )
        _resolve_app(args)
        app_kwargs = _parse_app_args(args.app_arg)
        runner = _runner_from(
            args,
            seed=args.seed,
            app_kwargs={args.app: app_kwargs} if app_kwargs else None,
            profile=True,
        )
        spec = _platform_from(args, name="cli")
        res = runner.simulate(args.app, spec)
        prof = res.profile
        if prof is None:  # can only happen via a stale/foreign cache entry
            raise SystemExit(
                "profile: the simulation result carries no profile "
                "(stale cache entry?); clear the cache dir and rerun"
            )
        print(res.describe())
        print()
        print(prof.describe(causes=args.cause or None))
        _export_profile(
            prof,
            out=args.out,
            flamegraph_out=args.flamegraph_out,
            trace_out=args.trace_out,
        )
        _ledger_record(args, runner, spec, res)
        _finish_observability(args, runner)
        return 0

    if args.command == "faults":
        from repro.experiments.faults import run_delay_propagation
        from repro.faults.plan import FaultPlan, parse_inject_spec
        from repro.sim.engine import SimulationEngine

        _resolve_app(args)
        app_kwargs = _parse_app_args(args.app_arg)
        runner = _runner_from(
            args,
            seed=args.seed,
            app_kwargs={args.app: app_kwargs} if app_kwargs else None,
        )
        spec = _platform_from(args, name="cli")
        run = runner.application_run(args.app, spec.total_processors)
        clean = SimulationEngine(
            spec, run, horizon=args.horizon, sample_every=args.sample_every
        ).execute()

        try:
            events = [parse_inject_spec(s) for s in args.inject]
        except ValueError as exc:
            raise SystemExit(f"--inject: {exc}") from None
        gen_seed = args.gen_seed
        if gen_seed is None and not events:
            gen_seed = args.seed  # demo default: a seeded random plan
        if gen_seed is not None:
            events.extend(
                FaultPlan.generate(
                    gen_seed, spec.total_processors, span=clean.total_cycles
                ).events
            )
        try:
            plan = FaultPlan(tuple(events))
            plan.validate_for(spec.total_processors)
        except ValueError as exc:
            raise SystemExit(f"invalid fault plan: {exc}") from None

        faulted = SimulationEngine(
            spec, run, horizon=args.horizon, sample_every=args.sample_every,
            fault_plan=plan,
        ).execute()
        print(plan.describe())
        print()
        print(f"clean:   {clean.describe()}")
        print(f"faulted: {faulted.describe()}")
        slip = faulted.total_cycles - clean.total_cycles
        print(
            f"finish-line slip: {slip:,.0f} cycles "
            f"({100 * slip / clean.total_cycles:.2f}% of the clean run); "
            f"extra barrier wait "
            f"{faulted.barrier_wait_cycles - clean.barrier_wait_cycles:,.0f}"
        )
        if args.propagation:
            print()
            print(run_delay_propagation(runner, name=args.app, spec=spec).describe())
        _finish_observability(args, runner)
        return 0

    if args.command == "trace":
        return _trace_command(args)

    if args.command == "obs":
        if args.obs_command == "ledger":
            from repro.obs.ledger import describe_entries, ledger_path, read_ledger

            entries, malformed = read_ledger(ledger_path(args.cache_dir))
            print(describe_entries(entries, last=args.last, malformed=malformed))
            return 0
        from repro.obs.summary import summarize

        with open(args.payload, encoding="utf-8") as fh:
            payload = json.load(fh)
        print(summarize(payload, max_windows=args.max_windows))
        return 0

    if args.command == "serve":
        import asyncio

        from repro.service.api import QueryAPI
        from repro.service.chaos import service_plan_from_specs
        from repro.service.config import ENDPOINTS, ServiceConfig
        from repro.service.server import run_service

        try:
            chaos = service_plan_from_specs(args.inject)
        except ValueError as exc:
            raise SystemExit(f"--inject: {exc}") from None
        config = ServiceConfig(
            breaker_threshold=args.breaker_threshold,
            breaker_recovery=args.breaker_recovery,
            jobs=args.jobs,
            seed=args.seed,
        )
        overrides = {
            "rate": args.rate,
            "burst": args.burst,
            "queue_depth": args.queue_depth,
            "deadline": args.deadline_s,
        }
        if args.coalesce_ms is not None:
            overrides["coalesce_window"] = args.coalesce_ms / 1000.0
        overrides = {k: v for k, v in overrides.items() if v is not None}
        for endpoint in ENDPOINTS:
            applicable = dict(overrides)
            if endpoint == "simulate":
                applicable.pop("coalesce_window", None)  # never coalesced
            if applicable:
                config = config.with_policy(endpoint, **applicable)
        api = QueryAPI(
            cache_dir=args.cache_dir or None,
            workload_dir=args.workload_dir or None,
        )
        if chaos:
            print(chaos.describe(), file=sys.stderr)
        try:
            asyncio.run(
                run_service(
                    api, config, host=args.host, port=args.port, chaos=chaos
                )
            )
        except KeyboardInterrupt:
            pass
        return 0

    if args.command == "query":
        from repro.service.loadgen import http_request

        # The server parses the body; a missing workload or budget is its 400.
        body = _request_obj(args, REQUEST_KEYS[args.endpoint])
        if args.endpoint == "simulate" and args.app_arg:
            body["app_args"] = _parse_app_args(args.app_arg)
        try:
            status, answer = http_request(
                args.host, args.port, "POST", f"/v1/{args.endpoint}", body
            )
        except OSError as exc:
            raise SystemExit(
                f"cannot reach service at {args.host}:{args.port}: {exc}"
            ) from None
        print(json.dumps(answer, indent=2, sort_keys=True))
        return 0 if status == 200 else 1

    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())

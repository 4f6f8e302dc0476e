"""The pure query API: predict / design / simulate, no CLI, no sockets.

Every service endpoint bottoms out here, and everything here is a plain
synchronous function over the same model entry points the CLI prints
from — :func:`repro.core.batch.e_instr_seconds_batch` for predictions
(with the default :class:`~repro.core.batch.ModelOptions`),
:class:`repro.cost.search.DesignSearch` for design queries, and the
experiment runner's simulation path for submissions.  The serving layer
(:mod:`repro.service.server`) adds queues, deadlines and breakers on
top; tests call this module directly to establish the bit-identity
contracts the server then inherits:

* ``predict`` answers are computed through the batched evaluator,
  whose lanes are independent: a case priced inside a wide, mixed batch
  gets exactly the float :func:`repro.core.execution.evaluate` gives it
  alone (``tests/cost/test_batch_eval.py``), so a request coalesced into
  a 100-wide wave returns the **bit-identical** float it would get alone.
* ``design`` answers route through one shared :class:`DesignSearch`
  engine whose memo replays exact floats, so coalesced design waves are
  likewise bit-identical to one-at-a-time calls.
* ``predict_degraded`` answers are *exactly*
  :func:`repro.core.amat.zero_contention_amat` — an admissible lower
  bound with every queueing delay removed — flagged ``degraded: true``
  so a client can tell a best-effort floor from a full model answer.
"""

from __future__ import annotations

import inspect
import math
import sys
from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.core.amat import zero_contention_amat
from repro.core.execution import MODES, e_instr_seconds
from repro.core.platform import PlatformSpec
from repro.core.batch import ModelOptions
from repro.cost.optimizer import _predict_batch
from repro.cost.search import DesignQuery, DesignSearch
from repro.sim.latencies import NAMED_NETWORKS as NETWORKS
from repro.workloads.params import NAMED_WORKLOADS as WORKLOADS, WorkloadParams

__all__ = [
    "QueryError",
    "QueryAPI",
    "PredictRequest",
    "PredictAnswer",
    "DesignAnswer",
    "SimulateAnswer",
    "WORKLOADS",
    "NETWORKS",
    "WORKLOAD_KEYS",
    "PLATFORM_KEYS",
    "MAX_PROCESSORS",
    "MAX_SIMULATED_CACHE_KB",
    "MAX_SIMULATED_MEMORY_MB",
    "MAX_SIMULATED_APP_ARGS",
    "REQUEST_KEYS",
    "request_body",
    "registered_workloads",
    "workload_from_obj",
    "platform_from_obj",
    "design_query",
    "deadline_from_obj",
]

KB, MB = 1024, 1024 * 1024


class QueryError(ValueError):
    """A malformed or unanswerable query (the service's 400)."""


# ---------------------------------------------------------------------------
# request / answer shapes


@dataclass(frozen=True)
class PredictRequest:
    """One predict question: a workload on a platform, under a mode."""

    workload: WorkloadParams
    spec: PlatformSpec
    mode: str = "throttled"

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise QueryError(f"mode must be one of {MODES}, got {self.mode!r}")


def _finite_or_none(x: float) -> float | None:
    return x if math.isfinite(x) else None


@dataclass(frozen=True)
class PredictAnswer:
    """E(Instr) for one (workload, platform) pair.

    ``degraded`` answers carry ``amat_cycles`` — the exact
    :func:`~repro.core.amat.zero_contention_amat` value the seconds were
    derived from — so clients (and tests) can audit the bound.
    """

    workload: str
    platform: str
    e_instr_seconds: float
    feasible: bool
    mode: str
    degraded: bool = False
    amat_cycles: float | None = None

    def to_obj(self) -> dict:
        obj = {
            "workload": self.workload,
            "platform": self.platform,
            "e_instr_seconds": _finite_or_none(self.e_instr_seconds),
            "feasible": self.feasible,
            "mode": self.mode,
            "degraded": self.degraded,
        }
        if self.amat_cycles is not None:
            obj["amat_cycles"] = self.amat_cycles
        return obj


@dataclass(frozen=True)
class DesignAnswer:
    """The optimal platform for a (workload, budget) design query."""

    workload: str
    budget: float
    best: dict
    stats: dict
    degraded: bool = False

    def to_obj(self) -> dict:
        return {
            "workload": self.workload,
            "budget": self.budget,
            "best": dict(self.best),
            "stats": dict(self.stats),
            "degraded": self.degraded,
        }


@dataclass(frozen=True)
class SimulateAnswer:
    """Outcome of one submitted simulation run."""

    app: str
    platform: str
    seed: int
    total_cycles: float
    total_references: int
    e_instr_seconds: float
    degraded: bool = False

    def to_obj(self) -> dict:
        return {
            "app": self.app,
            "platform": self.platform,
            "seed": self.seed,
            "total_cycles": self.total_cycles,
            "total_references": self.total_references,
            "e_instr_seconds": self.e_instr_seconds,
            "degraded": self.degraded,
        }


# ---------------------------------------------------------------------------
# request parsing: one parser per vocabulary, shared by the server and the
# CLI (whose flags become these keys).  Each raises QueryError: the
# server's 400, the CLI's ``<command>: <message>`` exit.

#: The largest platform a request may describe, in processors.  Folding
#: a platform walks one leaf path per machine, and predict waves run one
#: at a time, so an unbounded shape would stall every predict queued
#: behind it; the candidate space's largest platform has 64.
MAX_PROCESSORS = 1024

#: The largest cache (``cache_kb``, ``l2_kb``) and memory (``memory_mb``)
#: a simulate request may describe.  The simulator allocates tag, stamp
#: and dirty arrays for every line of every cache, about 17 bytes per
#: 64-byte line (1.1 MB for a 4 MB cache, per processor), so an
#: unbounded size would exhaust a worker's memory before the first
#: reference.  Memory is a page table that grows with the pages an
#: application touches, so its limit only keeps sizes plausible.  Predict
#: folds sizes into floats and takes any size within float range.
MAX_SIMULATED_CACHE_KB = 4 * 1024
MAX_SIMULATED_MEMORY_MB = 64 * 1024

#: The largest value of each integer constructor argument a simulate
#: request may pass in ``app_args``.  Constructors only check that sizes
#: divide among the processes, and ``run()`` allocates the application's
#: arrays and its trace from them, so an unbounded size (FFT ``points``
#: of 2**40) would exhaust a worker's memory after the request was
#: admitted.  The paper's four programs stop at its Table 2 sizes (FFT
#: 64K points, LU 512x512, Radix 1M keys, EDGE 128x128), an LU block at
#: the largest order, Radix keys at 64 bits and digits at 16 (a
#: 64K-bucket histogram per pass), iteration counts at 64, and the CG
#: grid and the TPC-C sizes at 16 times their defaults.  An integer
#: argument with no ceiling here is refused.
MAX_SIMULATED_APP_ARGS = {
    "points": 65_536,
    "order": 512,
    "block": 512,
    "num_keys": 1 << 20,
    "digit_bits": 16,
    "key_bits": 64,
    "height": 128,
    "width": 128,
    "iterations": 64,
    "grid": 768,
    "warehouses": 64,
    "transactions": 320_000,
    "items": 131_072,
    "customers_per_warehouse": 48_000,
}

_FLOAT_MAX = sys.float_info.max

WORKLOAD_KEYS = ("workload", "alpha", "beta", "gamma")
PLATFORM_KEYS = (
    "machines", "procs_per_machine", "cache_kb", "memory_mb", "network", "l2_kb", "name",
)

#: The keys each endpoint's body may carry; any other key is a 400.
REQUEST_KEYS = {
    "predict": (*WORKLOAD_KEYS, *PLATFORM_KEYS, "mode", "deadline_s"),
    "design": (*WORKLOAD_KEYS, "budget", "method", "deadline_s"),
    "simulate": ("app", "seed", "app_args", *PLATFORM_KEYS, "deadline_s"),
}


def request_body(endpoint: str, obj) -> dict:
    """``obj`` as an ``endpoint`` body: a JSON object of known keys."""
    if not isinstance(obj, dict):
        raise QueryError("request body must be a JSON object")
    keys = REQUEST_KEYS[endpoint]
    for key in obj:
        if key not in keys:
            raise QueryError(f"unknown key {key!r}; {endpoint} takes {', '.join(keys)}")
    return obj


def registered_workloads(workload_dir: str | None) -> dict:
    """Workloads ingested into ``workload_dir`` (``repro trace ingest``),
    by name; ``None`` or ``""`` is an empty registry."""
    if not workload_dir:
        return {}
    from repro.workloads.registry import load_registry

    try:
        return load_registry(workload_dir)
    except ValueError as exc:
        raise QueryError(str(exc)) from None


def workload_from_obj(obj: Mapping, workload_dir: str | None = None) -> WorkloadParams:
    """A workload from ``{"workload": NAME}`` or explicit parameters.

    NAME is a built-in Table 2 name or else a workload registered in
    ``workload_dir``, which is read only for a name that is not built
    in, so a corrupt registry cannot break ``"FFT"``.
    """
    name = obj.get("workload")
    if name is not None:
        if not isinstance(name, str):
            raise QueryError(f"'workload' must be a string, got {name!r}")
        if name in WORKLOADS:
            return WORKLOADS[name]
        registered = registered_workloads(workload_dir)
        if name not in registered:
            known = ", ".join([*WORKLOADS, *sorted(registered)])
            raise QueryError(f"unknown workload {name!r}; known: {known}")
        return registered[name].params
    try:
        return WorkloadParams(
            "custom",
            alpha=float(obj["alpha"]),
            beta=float(obj["beta"]),
            gamma=float(obj["gamma"]),
        )
    except KeyError as exc:
        raise QueryError(
            "provide 'workload' or all of 'alpha'/'beta'/'gamma'"
        ) from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise QueryError(f"bad workload: {exc}") from exc


def platform_from_obj(obj: Mapping, name: str = "query") -> PlatformSpec:
    """A flat platform from the shape keys; the only code that builds a
    flat :class:`PlatformSpec` from shape values.  At most
    :data:`MAX_PROCESSORS` processors, and every size in bytes fits a
    float."""

    def _pos_int(key: str, default: int, unit: int = 1) -> int:
        value = obj.get(key, default)
        if isinstance(value, bool) or not (
            isinstance(value, int) and 1 <= value * unit <= _FLOAT_MAX
        ):
            raise QueryError(
                f"{key!r} must be a positive integer within float range, got {value!r}"
            )
        return value

    machines, procs = _pos_int("machines", 4), _pos_int("procs_per_machine", 1)
    if machines * procs > MAX_PROCESSORS:
        raise QueryError(
            f"bad platform: {machines} x {procs} processors exceed the limit "
            f"of {MAX_PROCESSORS}"
        )
    network = obj.get("network", "ethernet100")
    if not isinstance(network, str):
        raise QueryError(f"'network' must be a string, got {network!r}")
    if network not in NETWORKS:
        raise QueryError(
            f"unknown network {network!r}; known: {', '.join(sorted(NETWORKS))}"
        )
    l2_kb = obj.get("l2_kb")
    try:
        return PlatformSpec(
            name=str(obj.get("name", name)),
            n=procs,
            N=machines,
            cache_bytes=_pos_int("cache_kb", 256, KB) * KB,
            memory_bytes=_pos_int("memory_mb", 64, MB) * MB,
            network=NETWORKS[network] if machines > 1 else None,
            l2_bytes=_pos_int("l2_kb", 1, KB) * KB if l2_kb is not None else None,
        )
    except ValueError as exc:
        raise QueryError(f"bad platform: {exc}") from exc


def _check_app_arg(app: str, key: str, value, annotation) -> None:
    """One ``app_args`` value against its constructor annotation: an
    ``int`` is an integer (not a bool) from 1 to its
    :data:`MAX_SIMULATED_APP_ARGS` ceiling, a ``float`` a finite number."""
    if annotation in (int, "int"):
        if isinstance(value, bool) or not isinstance(value, int):
            raise QueryError(f"app_args {key!r} of {app} must be an integer, got {value!r}")
        limit = MAX_SIMULATED_APP_ARGS.get(key)
        if limit is None:
            raise QueryError(f"app_args {key!r} of {app} has no simulate ceiling")
        if not 1 <= value <= limit:
            raise QueryError(
                f"app_args {key!r} of {app} must be from 1 to {limit} to simulate, "
                f"got {value}"
            )
    elif annotation in (float, "float"):
        if isinstance(value, bool) or not (
            isinstance(value, (int, float)) and math.isfinite(value)
        ):
            raise QueryError(f"app_args {key!r} of {app} must be a finite number, got {value!r}")


def design_query(workload: WorkloadParams, budget, method=None) -> DesignQuery:
    """A :class:`DesignQuery`, its budget and method checks as QueryError."""
    try:
        return DesignQuery(workload, budget, method)
    except ValueError as exc:
        raise QueryError(str(exc)) from None


def deadline_from_obj(obj, policy_deadline: float) -> float:
    """The relative deadline in seconds, ``deadline_s`` or the endpoint
    policy's deadline: positive, finite and at most the policy's, so
    every request is answered or shed within that time."""
    if not isinstance(obj, dict):
        raise QueryError("request body must be a JSON object")
    rel = obj.get("deadline_s", policy_deadline)
    if isinstance(rel, bool) or not (
        isinstance(rel, (int, float)) and 0 < rel <= _FLOAT_MAX
    ):
        raise QueryError(f"'deadline_s' must be a positive finite number, got {rel!r}")
    if rel > policy_deadline:
        raise QueryError(
            f"'deadline_s' must be at most the endpoint's deadline of "
            f"{policy_deadline:g} s, got {rel!r}"
        )
    return float(rel)


# ---------------------------------------------------------------------------


class QueryAPI:
    """The service's brain: pure, deterministic, transport-free.

    One instance is shared by every request the server handles; the
    only mutable state is the design engine's evaluation memo, which
    replays exact values, so answers are independent of request
    interleaving.  Simulations run in the server's worker pool from
    :meth:`simulate_args`.
    """

    def __init__(
        self,
        *,
        cache_dir: str | None = None,
        workload_dir: str | None = None,
        horizon: float = 200.0,
        metrics=None,
    ) -> None:
        #: Registry of ingested workloads that request bodies may name.
        self.workload_dir = workload_dir
        self.horizon = horizon
        kwargs = {"metrics": metrics} if metrics is not None else {}
        self._search = DesignSearch(cache_dir=cache_dir, **kwargs)

    # -- predict --------------------------------------------------------
    def predict(
        self, workload: WorkloadParams, spec: PlatformSpec, mode: str = "throttled"
    ) -> PredictAnswer:
        """E(Instr) with the CLI ``repro predict`` knobs, as an answer."""
        return self.predict_batch([PredictRequest(workload, spec, mode)])[0]

    def predict_batch(self, requests: Sequence[PredictRequest]) -> list[PredictAnswer]:
        """Answer many predict requests in one batched evaluation wave.

        Requests sharing a (workload, mode) evaluate as a single
        :func:`~repro.cost.optimizer._predict_batch` call, the knobs of
        ``repro predict``; per-case independence makes
        each answer bit-identical to a batch of one — which is why
        ``predict`` itself routes through here and the server's
        coalescer can't change any answer.
        """
        answers: list[PredictAnswer | None] = [None] * len(requests)
        groups: dict[tuple[WorkloadParams, str], list[int]] = {}
        for i, req in enumerate(requests):
            groups.setdefault((req.workload, req.mode), []).append(i)
        for (workload, mode), indices in groups.items():
            seconds = _predict_batch(
                [requests[i].spec for i in indices], workload, ModelOptions(mode=mode)
            )
            for pos, i in enumerate(indices):
                value = float(seconds[pos])
                answers[i] = PredictAnswer(
                    workload=workload.name,
                    platform=requests[i].spec.name,
                    e_instr_seconds=value,
                    feasible=math.isfinite(value),
                    mode=mode,
                )
        return answers  # type: ignore[return-value]

    def predict_degraded(
        self, workload: WorkloadParams, spec: PlatformSpec, mode: str = "throttled"
    ) -> PredictAnswer:
        """The zero-contention lower bound, explicitly flagged degraded.

        Used when the breaker is open: no queueing solve, no pool — just
        the admissible bound :func:`zero_contention_amat`, always finite
        and never above the true answer.
        """
        case = ModelOptions().case(
            spec, workload.sharing_at(spec.N), workload.sharing_fresh_fraction
        )
        bound = zero_contention_amat(
            spec.hierarchy(),
            workload.locality,
            workload.gamma,
            remote_rate_adjustment=case.remote_rate_adjustment,
            sharing_fraction=case.sharing_fraction,
            sharing_fresh_fraction=case.sharing_fresh_fraction,
        )
        return PredictAnswer(
            workload=workload.name,
            platform=spec.name,
            e_instr_seconds=e_instr_seconds(
                spec.total_processors, workload.gamma, bound, spec.cpu_hz
            ),
            feasible=True,
            mode=mode,
            degraded=True,
            amat_cycles=bound,
        )

    # -- design ---------------------------------------------------------
    def design(
        self, workload: WorkloadParams, budget: float, method: str | None = None
    ) -> DesignAnswer:
        return self.design_batch([design_query(workload, budget, method)])[0]

    def design_batch(self, queries: Sequence[DesignQuery]) -> list[DesignAnswer]:
        """Answer design queries through one shared in-process engine.

        The engine's evaluation memo is shared across the batch (and
        across batches), and memo hits replay exact floats, so batching
        never changes an answer — only how much work it costs.
        """
        try:
            outcomes = self._search.run(queries)
        except ValueError as exc:
            raise QueryError(str(exc)) from exc
        return [
            DesignAnswer(
                workload=o.result.workload.name,
                budget=o.result.budget,
                best=o.result.best.as_dict(),
                stats=o.stats.as_dict(),
            )
            for o in outcomes
        ]

    # -- simulate -------------------------------------------------------
    def simulate_args(
        self,
        app: str,
        spec: PlatformSpec,
        *,
        seed: int = 0,
        app_args: Mapping | None = None,
    ) -> tuple:
        """Validated args for :func:`repro.experiments.runner._simulate_cell`.

        The server ships this tuple to its worker pool.  Raises
        :class:`QueryError` for an unknown application, a seed that is
        not a non-negative integer, non-object ``app_args``, a cache or
        memory beyond :data:`MAX_SIMULATED_CACHE_KB` /
        :data:`MAX_SIMULATED_MEMORY_MB`, ``app_args`` the application
        rejects for ``spec.total_processors`` processes, or an
        ``app_args`` value that does not match its constructor
        annotation or exceeds its :data:`MAX_SIMULATED_APP_ARGS`
        ceiling, so the 400 fires before any worker is touched or any
        array allocated.  The application is constructed, not run:
        constructors only check their arguments, and the trace is
        generated in ``run()``.
        """
        from repro.apps.registry import APPLICATIONS, make_application

        if not isinstance(app, str):
            raise QueryError("'app' must be an application name string")
        if app not in APPLICATIONS:
            raise QueryError(
                f"unknown application {app!r}; known: {', '.join(sorted(APPLICATIONS))}"
            )
        if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
            raise QueryError(f"'seed' must be a non-negative integer, got {seed!r}")
        kwargs = app_args or {}
        if not isinstance(kwargs, dict):
            raise QueryError("'app_args' must be an object")
        for key, size, limit in (
            ("cache_kb", spec.cache_bytes // KB, MAX_SIMULATED_CACHE_KB),
            ("l2_kb", (spec.l2_bytes or 0) // KB, MAX_SIMULATED_CACHE_KB),
            ("memory_mb", spec.memory_bytes // MB, MAX_SIMULATED_MEMORY_MB),
        ):
            if size > limit:
                raise QueryError(
                    f"{key!r} must be at most {limit} to simulate, got {size}"
                )
        try:
            application = make_application(app, spec.total_processors, seed, **kwargs)
        except (TypeError, ValueError, ArithmeticError) as exc:
            raise QueryError(
                f"bad app_args for {app} on {spec.total_processors} processes: {exc}"
            ) from None
        params = inspect.signature(type(application)).parameters
        for key, value in kwargs.items():
            _check_app_arg(app, key, value, params[key].annotation)
        return (app, seed, dict(kwargs), spec, self.horizon, None, None, False)

    @staticmethod
    def simulate_answer(res, *, seed: int) -> SimulateAnswer:
        return SimulateAnswer(
            app=res.application,
            platform=res.platform_name,
            seed=seed,
            total_cycles=float(res.total_cycles),
            total_references=int(res.total_references),
            e_instr_seconds=float(res.e_instr_seconds),
        )

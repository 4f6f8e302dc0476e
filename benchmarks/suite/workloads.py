"""The benchmark's five workloads.

Each workload makes its inputs from the seed, sets up the way a user
would (imports, construction, server boot), repeats one operation until
the run's time is spent, and checks every output.  The constructor is
the set-up: a set-up probe constructs a workload and exits.

The grids' and the design sweep's sizes are constructor arguments, so
tests can run a tiny instance of the same code; the defaults are the
benchmark's, and every other size is a constant.  Every grid and search
runs in-process with ``jobs=1`` and default lane arguments, and the
load of the serving workload comes from two connections: the benchmark
never uses more than the two cores of the machine it was sized on.
"""

from __future__ import annotations

import hashlib
import json
import re
import resource
import shutil
import socket
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import golden as goldens
from layers import LayerClock, installed, layer_metrics, region
from speed import HostSpeed
from stats import tail

__all__ = ["DIAGNOSTICS", "E2E", "NAMES", "create", "repeat", "sim_digest"]

NAMES = ("grid-smp", "grid-cluster", "design-sweep", "trace-ingest", "serve-predict")

#: End-to-end metrics every workload reports untraced: name -> unit.
E2E = {"setup_s": "s", "op_ms": "ms", "work_per_s": "1/s", "peak_rss_mb": "MiB"}

#: Workload-specific metrics printed beside the end-to-end ones:
#: name -> (unit, better, deterministic).  Deterministic metrics repeat
#: exactly for a seed, so the comparison tool checks them seed by seed.
DIAGNOSTICS = {
    "grid_cold_s": ("s", "lower", False),
    "grid_warm_s": ("s", "lower", False),
    "model_mean_err": ("ratio", "lower", True),
    "model_worst_err": ("ratio", "lower", True),
    "model_order_agree": ("ratio", "higher", True),
    "design_evaluated": ("count", "lower", True),
    "gen_s": ("s", "lower", False),
    "predict_tail_ms": ("ms", "lower", False),
    "predict_tail_pct": ("%", "higher", False),
    "predict_over_limit": ("count", "lower", False),
    "ops": ("count", "higher", False),
    # The host, not the program: printed and kept, never compared.
    "op_wall_ms": ("ms", None, False),
    "host_slowdown": ("ratio", None, False),
}

#: The serving workload's latency limit on its tail percentile.
LATENCY_LIMIT_MS = 100.0


def _median(values) -> float:
    return float(statistics.median(values))


def sim_digest(result) -> str:
    """Digest of everything a simulation reports about one cell."""
    payload = json.dumps(
        [result.total_cycles, list(result.per_process_cycles), result.stats.as_dict()],
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def repeat(seconds: float, op, clock: LayerClock | None):
    """Run ``op`` until ``seconds`` are spent; returns ``(plain, traced)``.

    ``op(clock)`` returns a sample whose ``"seconds"`` is the operation's
    own timed span.  Untraced, every operation is plain.  Traced,
    operations alternate plain and traced, at least one of each, so the
    run measures its own tracing overhead.  A new operation starts only
    if a typical one still fits in the remaining time.
    """
    plain: list[dict] = []
    traced: list[dict] = []
    durations: list[float] = []
    start = time.perf_counter()
    while True:
        t0, c0 = time.perf_counter(), time.process_time()
        if clock is not None and len(traced) < len(plain):
            with installed(clock):
                sample = op(clock)
            sample["cpu_s"] = time.process_time() - c0
            sample["wall_s"] = time.perf_counter() - t0
            traced.append(sample)
        else:
            plain.append(op(None))
        durations.append(time.perf_counter() - t0)
        if plain and (clock is None or traced):
            if time.perf_counter() - start + _median(durations) > seconds:
                return plain, traced


class Workload:
    """One workload: set up in the constructor, measured by :meth:`measure`."""

    name = ""

    def __init__(self, seed: int, work: Path, golden: dict | None = None) -> None:
        self.seed = seed
        self.work = Path(work)
        table = goldens.load() if golden is None else golden
        self.expected = table.get(self.name, {}).get(str(seed))
        #: Samples the host's speed while untraced operations run.
        self.speed: HostSpeed | None = None

    def setup_seconds(self, spawned_at: float, speed: HostSpeed) -> float:
        """Seconds from process start to the first timed call, at the
        reference speed (``speed`` sampled the set-up)."""
        return speed.seconds(spawned_at, time.perf_counter())

    def span(self, t0: float, t1: float) -> float:
        """Seconds of ``[t0, t1]``: at the reference speed while the
        host's speed is sampled, else wall seconds."""
        return t1 - t0 if self.speed is None else self.speed.seconds(t0, t1)

    def prepare(self) -> None:
        """Write the run's input files, before any timed operation."""

    def op(self, clock: LayerClock | None) -> dict:
        raise NotImplementedError

    def outcome(self, plain: list[dict], traced: list[dict]) -> dict:
        """``work_per_s``, diagnostics and checks over the samples, plus
        the per-layer values the workload counts itself (``layer_extra``)."""
        raise NotImplementedError

    def measure(self, seconds: float, clock: LayerClock | None = None) -> dict:
        """Repeat the operation for ``seconds`` and check every output.

        Untraced, the host's speed is sampled throughout and every timing
        is at the reference speed (see :mod:`speed`).  Returns ``e2e`` and
        ``diagnostics`` as medians over the untraced operations,
        ``layers`` from the traced ones (``None`` untraced), and
        ``attempted``/``failed`` operation counts plus the golden status.
        """
        self.prepare()
        host = {}
        if clock is None:
            with HostSpeed() as self.speed:
                start = time.perf_counter()
                plain, traced = repeat(seconds, self.op, clock)
                host["host_slowdown"] = self.speed.slowdown(start, time.perf_counter())
            self.speed = None
        else:
            plain, traced = repeat(seconds, self.op, clock)
        # Read before outcome(): its checks are the benchmark's work, not the program's.
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result = self.outcome(plain, traced)
        extra = result.pop("layer_extra")
        result["e2e"] = {
            "op_ms": _median([s["seconds"] for s in plain]) * 1e3,
            "work_per_s": result.pop("work_per_s"),
            "peak_rss_mb": peak_rss_mb,
        }
        result["diagnostics"].update(
            ops=len(plain),
            op_wall_ms=_median([s["wall_s"] for s in plain]) * 1e3,
            **host,
        )
        result["op_samples_ms"] = [s["seconds"] * 1e3 for s in plain]
        result["layers"] = None
        if clock is not None:
            overhead = (
                _median([s["seconds"] for s in traced])
                / _median([s["seconds"] for s in plain])
                - 1.0
            )
            extra["proc.cpu_s"] = _median([s["cpu_s"] for s in traced])
            extra["proc.wall_s"] = _median([s["wall_s"] for s in traced])
            extra["trace.overhead_pct"] = 100.0 * overhead
            result["layers"] = layer_metrics(clock, len(traced), extra)
        return result

    def close(self) -> None:
        """Release what the set-up started."""


# ---------------------------------------------------------------------------
# simulation grids


#: A coarser calibration search than ``calibrate``'s default, so a grid
#: operation stays short enough to repeat within one run.
CALIBRATION_GRID = {
    "cache_factors": (0.5,),
    "boosts": (1.0, 4.0),
    "barrier_scales": (0.0, 1.0),
}


class Grid(Workload):
    """Validation grid: simulate, calibrate and compare, cold then warm.

    One operation runs ``prefetch_simulations``, ``calibrate`` and
    ``compare`` into a fresh cache directory, then a second runner
    repeats ``calibrate`` and ``compare`` on the same directory, reading
    back what the first one wrote.  ``apps``, ``platforms`` and
    ``app_kwargs`` default to the subclass's constants.
    """

    APPS: tuple[str, ...] = ()
    PLATFORMS: tuple[str, ...] = ()
    APP_KWARGS: dict = {}
    ADJUSTMENTS: tuple[float, ...] = ()

    def __init__(
        self,
        seed: int,
        work: Path,
        golden: dict | None = None,
        *,
        apps: tuple[str, ...] | None = None,
        platforms: tuple[str, ...] | None = None,
        app_kwargs: dict | None = None,
    ) -> None:
        super().__init__(seed, work, golden)
        from repro.experiments.configs import ALL_CONFIGS, scaled
        from repro.experiments.figures import FigureResult
        from repro.experiments.runner import ExperimentRunner
        from repro.obs.metrics import MetricsRegistry

        self._runner_cls = ExperimentRunner
        self._registry_cls = MetricsRegistry
        self._figure_cls = FigureResult
        self.apps = tuple(apps or self.APPS)
        self.specs = [scaled(ALL_CONFIGS[name]) for name in platforms or self.PLATFORMS]
        self.cells = [(app, spec) for app in self.apps for spec in self.specs]
        self.app_kwargs = self.APP_KWARGS if app_kwargs is None else app_kwargs
        self.calibrate_kwargs = dict(CALIBRATION_GRID, adjustments=self.ADJUSTMENTS)
        self._ops = 0

    def _runner(self, cache: Path, metrics):
        return self._runner_cls(
            seed=self.seed,
            jobs=1,
            cache_dir=cache,
            app_kwargs=self.app_kwargs,
            metrics=metrics,
        )

    def _pass(self, runner, clock, load_region: str):
        with region(clock, load_region):
            runner.prefetch_simulations(self.cells)
        t = time.perf_counter()
        with region(clock, "runner.calibrate"):
            cal, _worst = runner.calibrate(self.apps, self.specs, **self.calibrate_kwargs)
        with region(clock, "runner.compare"):
            rows = runner.compare(self.apps, self.specs, cal)
        return cal, rows, t

    def op(self, clock):
        self._ops += 1
        cache = self.work / f"cache-{self._ops}"
        registries = (self._registry_cls(), self._registry_cls())
        cold = self._runner(cache, registries[0])
        t0 = time.perf_counter()
        cal, rows, t_prefetched = self._pass(cold, clock, "runner.prefetch")
        t1 = time.perf_counter()
        warm_cal, warm_rows, _ = self._pass(
            self._runner(cache, registries[1]), clock, "runner.warm_load"
        )
        t2 = time.perf_counter()
        sims = {f"{app}@{spec.name}": cold.simulate(app, spec) for app, spec in self.cells}
        shutil.rmtree(cache)
        lookups = {"hit": 0.0, "miss": 0.0}
        for registry in registries:
            for labels, series in registry.get("repro_cache_lookups_total").samples():
                lookups[labels["outcome"]] += series.value
        warm_wrong = {
            f"{a.application}@{a.configuration}"
            for a, b in zip(rows, warm_rows)
            if a != b or warm_cal != cal
        }
        return {
            "seconds": self.span(t0, t2),
            "wall_s": t2 - t0,
            "cold_s": self.span(t0, t1),
            "warm_s": self.span(t1, t2),
            "prefetch_s": self.span(t0, t_prefetched),
            "refs": sum(r.total_references for r in sims.values()),
            "digests": {cell: sim_digest(r) for cell, r in sims.items()},
            "rows": rows,
            "calibration": cal,
            "warm_wrong": warm_wrong,
            "cache_hits": lookups["hit"],
            "cache_misses": lookups["miss"],
        }

    def golden_value(self, sample: dict) -> dict:
        return sample["digests"]

    def outcome(self, plain, traced):
        first = plain[0]
        status, bad = goldens.check(self.expected, first["digests"])
        problems = [f"golden digest differs: {cell}" for cell in sorted(bad)]
        failed = 0
        for n, sample in enumerate(plain + traced):
            unstable = {c for c, d in sample["digests"].items() if d != first["digests"][c]}
            problems += [f"operation {n}: {c} differs from operation 0" for c in sorted(unstable)]
            problems += [f"operation {n}: warm row differs: {c}" for c in sorted(sample["warm_wrong"])]
            failed += len(bad | unstable | sample["warm_wrong"])
        figure = self._figure_cls("bench", tuple(first["rows"]), first["calibration"], 0.0)
        return {
            "work_per_s": _median([s["refs"] / s["prefetch_s"] for s in plain]),
            "diagnostics": {
                "grid_cold_s": _median([s["cold_s"] for s in plain]),
                "grid_warm_s": _median([s["warm_s"] for s in plain]),
                "model_mean_err": figure.mean_error,
                "model_worst_err": figure.worst_error,
                "model_order_agree": figure.ordering_agreement(),
            },
            "layer_extra": {
                "runner.cache_hits": _median([s["cache_hits"] for s in traced] or [0]),
                "runner.cache_misses": _median([s["cache_misses"] for s in traced] or [0]),
            },
            "attempted": len(self.cells) * (len(plain) + len(traced)),
            "failed": failed,
            "golden": status,
            "problems": problems,
        }


class GridSmp(Grid):
    """Hit-heavy: the batched fast path and the engine loop do most of the work."""

    name = "grid-smp"
    APPS = ("FFT", "LU", "EDGE")
    PLATFORMS = ("C1", "C2", "C3", "C4", "C5", "C6")
    APP_KWARGS = {
        "FFT": {"points": 256},
        "LU": {"order": 32},
        "EDGE": {"height": 32, "width": 32},
    }
    ADJUSTMENTS = (0.0,)


class GridCluster(Grid):
    """Miss-heavy: scalar coherence events dominate the simulation."""

    name = "grid-cluster"
    APPS = ("Radix", "FFT")
    PLATFORMS = ("C8", "C10", "C13", "C15")
    APP_KWARGS = {
        "Radix": {"num_keys": 2048, "key_bits": 16},
        "FFT": {"points": 64},
    }
    ADJUSTMENTS = (0.0, 0.124, 0.3, 0.6)


# ---------------------------------------------------------------------------
# design search


class DesignSweep(Workload):
    """Pareto design search over the paper workloads and a budget sweep.

    Every (workload, budget) pair of ``budgets`` evenly spaced budgets
    in ``[low, high]`` is asked once, in an order drawn from the seed.
    The set of candidates evaluated per query does not depend on the
    order (only which of them the shared memo serves), so every seed
    asks for the same amount of work.  After the timed sweeps,
    ``checks`` sampled queries are answered again by exhaustive search:
    the pareto method must return the same best configuration, whatever
    the model computes.
    """

    name = "design-sweep"
    RACK_SIZES = (2, 4)

    def __init__(
        self,
        seed: int,
        work: Path,
        golden: dict | None = None,
        *,
        budgets: int = 10,
        low: float = 4_000.0,
        high: float = 43_000.0,
        checks: int = 8,
    ) -> None:
        super().__init__(seed, work, golden)
        import numpy as np

        from repro.cost import CandidateSpace
        from repro.cost.search import DesignQuery, DesignSearch
        from repro.obs.metrics import MetricsRegistry
        from repro.workloads.params import PAPER_WORKLOADS

        self._search_cls = DesignSearch
        self._registry_cls = MetricsRegistry
        rng = np.random.default_rng(seed)
        pairs = [(w, float(b)) for w in PAPER_WORKLOADS for b in np.linspace(low, high, budgets)]
        self.queries = [DesignQuery(*pairs[int(i)]) for i in rng.permutation(len(pairs))]
        self.check_indices = sorted(
            int(i) for i in rng.choice(len(self.queries), size=min(checks, len(self.queries)), replace=False)
        )
        self.space = CandidateSpace(rack_sizes=self.RACK_SIZES)

    def _search(self, method: str):
        return self._search_cls(
            space=self.space, jobs=1, method=method, metrics=self._registry_cls()
        )

    def op(self, clock):
        search = self._search("pareto")
        t0 = time.perf_counter()
        with region(clock, "cost.search", queries=len(self.queries)):
            outcomes = search.run(self.queries)
        t1 = time.perf_counter()
        totals = {"candidates": 0, "evaluated": 0, "pruned": 0, "memo_hits": 0}
        for o in outcomes:
            for key in totals:
                totals[key] += getattr(o.stats, key)
        return {
            "seconds": self.span(t0, t1),
            "wall_s": t1 - t0,
            "answers": [(o.best.spec, o.best.e_instr_seconds) for o in outcomes],
            **totals,
        }

    def outcome(self, plain, traced):
        first = plain[0]["answers"]
        problems = []
        failed = 0
        for n, sample in enumerate(plain + traced):
            unstable = sum(a != b for a, b in zip(sample["answers"], first))
            if unstable:
                problems.append(f"operation {n}: {unstable} answers differ from operation 0")
            failed += unstable
        exhaustive = self._search("exhaustive").run([self.queries[i] for i in self.check_indices])
        wrong = [
            i
            for i, o in zip(self.check_indices, exhaustive)
            if (o.best.spec, o.best.e_instr_seconds) != first[i]
        ]
        problems += [f"pareto best differs from exhaustive best on query {i}" for i in wrong]
        failed += len(wrong)

        def per_op(key):
            return _median([s[key] for s in traced] or [0])

        candidates, evaluated = per_op("candidates"), per_op("evaluated")
        return {
            "work_per_s": _median([len(self.queries) / s["seconds"] for s in plain]),
            "diagnostics": {"design_evaluated": plain[0]["evaluated"]},
            "layer_extra": {
                "cost.candidates": candidates,
                "cost.evaluated": evaluated,
                "cost.pruned": per_op("pruned"),
                "cost.memo_hits": per_op("memo_hits"),
                "cost.eval_ratio": evaluated / candidates if candidates else 0.0,
            },
            "attempted": len(self.queries) * (len(plain) + len(traced)),
            "failed": failed,
            "golden": "skipped",
            "problems": problems,
        }


# ---------------------------------------------------------------------------
# streaming trace ingestion


class TraceIngest(Workload):
    """Streaming ingestion of a seeded Zipf trace container.

    The container is benchmark input, written once per run before the
    timed operations (reported as ``gen_s``).  The generator lives here
    rather than in the program so the program cannot change the input.
    It draws one chunk at a time, so its memory stays far below the
    ingest's and ``peak_rss_mb`` is the program's.
    """

    name = "trace-ingest"
    RECORDS = 1_000_000
    FOOTPRINT = 50_000
    CHUNK_RECORDS = 65_536
    ZIPF_EXPONENT = 1.3

    def __init__(self, seed: int, work: Path, golden: dict | None = None) -> None:
        super().__init__(seed, work, golden)
        from repro.obs.metrics import MetricsRegistry
        from repro.trace.ingest import ingest
        from repro.trace.store import TraceStoreWriter

        self._ingest = ingest
        self._registry_cls = MetricsRegistry
        self._writer_cls = TraceStoreWriter
        self.container = self.work / "input.rtc"
        self.gen_s = 0.0

    def prepare(self) -> None:
        import numpy as np

        t0 = time.perf_counter()
        rng = np.random.default_rng(self.seed)
        with self._writer_cls(self.container, chunk_records=self.CHUNK_RECORDS) as writer:
            for start in range(0, self.RECORDS, self.CHUNK_RECORDS):
                size = min(self.CHUNK_RECORDS, self.RECORDS - start)
                addrs = (rng.zipf(self.ZIPF_EXPONENT, size=size) - 1) % self.FOOTPRINT
                writer.append(addrs, work=2)
        self.gen_s = time.perf_counter() - t0

    def op(self, clock):
        t0 = time.perf_counter()
        with region(clock, "trace.ingest"):
            result = self._ingest(
                self.container,
                name="bench",
                workload_dir=self.work / "workloads",
                chunk_records=self.CHUNK_RECORDS,
                metrics_registry=self._registry_cls(),
            )
        t1 = time.perf_counter()
        p = result.params
        return {
            "seconds": self.span(t0, t1),
            "wall_s": t1 - t0,
            "records": result.records,
            "fit": {"alpha": p.alpha, "beta": p.beta, "gamma": p.gamma, "records": result.records},
            "peak_live_items": result.stream.peak_live_items,
        }

    def golden_value(self, sample: dict) -> dict:
        return sample["fit"]

    def outcome(self, plain, traced):
        first = plain[0]["fit"]
        status, bad = goldens.check(self.expected, first)
        problems = [f"golden fit differs: {key}" for key in sorted(bad)]
        failed = 0
        for n, sample in enumerate(plain + traced):
            if sample["fit"] != first:
                problems.append(f"operation {n}: fit differs from operation 0")
            failed += bool(bad) or sample["fit"] != first
        return {
            "work_per_s": _median([s["records"] / s["seconds"] for s in plain]),
            "diagnostics": {"gen_s": self.gen_s},
            "layer_extra": {
                "trace.peak_live_items": max(
                    (s["peak_live_items"] for s in traced), default=0
                ),
            },
            "attempted": len(plain) + len(traced),
            "failed": failed,
            "golden": status,
            "problems": problems,
        }


# ---------------------------------------------------------------------------
# the query service


def _free_port() -> int:
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


_SAMPLE = re.compile(r"^([A-Za-z_:][A-Za-z0-9_:]*)(?:\{(.*)\})?\s+(\S+)$")
_LABEL = re.compile(r'(\w+)="((?:[^"\\]|\\.)*)"')


def parse_prometheus(text: str) -> list[tuple[str, dict, float]]:
    """``(name, labels, value)`` for every sample line of an exposition."""
    out = []
    for line in text.splitlines():
        m = _SAMPLE.match(line)
        if m and not line.startswith("#"):
            out.append((m.group(1), dict(_LABEL.findall(m.group(2) or "")), float(m.group(3))))
    return out


class ServePredict(Workload):
    """The real ``repro serve`` under an open-loop Poisson predict stream.

    Two sender threads replay ``generate_stream`` on schedule; each
    request is timed from when it was due, so a stall counts against the
    requests queued behind it.  The last ``CLOSED_SHARE`` of the run is
    a closed loop on the same two connections, sending back to back: the
    answers per second it reaches is the service's capacity at that
    concurrency.  Every answer is checked against in-process
    ``QueryAPI.predict`` on the same body after the timed window.
    """

    name = "serve-predict"
    CONNECTIONS = 2
    #: Open-loop requests per second.
    RATE = 40.0
    CLOSED_SHARE = 0.2

    def __init__(self, seed: int, work: Path, golden: dict | None = None) -> None:
        super().__init__(seed, work, golden)
        from repro.service.loadgen import generate_stream, http_request

        self._generate = generate_stream
        self._http = http_request
        self.port = _free_port()
        self._log = open(self.work / "server.log", "wb")
        self._started = time.perf_counter()
        self.server = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--port", str(self.port), "--jobs", "1", "--cache-dir", "",
            ],
            cwd=self.work,
            stdin=subprocess.DEVNULL,
            stdout=self._log,
            stderr=subprocess.STDOUT,
        )
        self.server_wall_s = 0.0
        try:
            self._wait_healthy()
        except BaseException:
            self.close()
            raise
        self._booted = time.perf_counter()

    def _wait_healthy(self, timeout: float = 60.0) -> None:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.server.poll() is not None:
                raise RuntimeError(f"repro serve exited with {self.server.returncode} during boot")
            try:
                status, _ = self._http("127.0.0.1", self.port, "GET", "/healthz", None, 1.0)
                if status == 200:
                    return
            except OSError:
                pass
            time.sleep(0.01)
        raise RuntimeError("repro serve did not answer /healthz within 60 s")

    def setup_seconds(self, spawned_at: float, speed: HostSpeed) -> float:
        return speed.seconds(self._started, self._booted)

    def close(self) -> None:
        if self.server.poll() is None:
            self.server.terminate()
            try:
                self.server.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.server.kill()
                self.server.wait()
            self.server_wall_s = time.perf_counter() - self._started
        self._log.close()

    def _send(self, body: dict):
        try:
            return self._http("127.0.0.1", self.port, "POST", "/v1/predict", body, 30.0)
        except (OSError, ValueError, IndexError) as exc:  # transport failure: a failed op
            return 0, f"{type(exc).__name__}: {exc}"

    def _open_loop(self, stream) -> list[tuple]:
        """``(body, due, sent, done, status, answer)`` per request."""
        records: list = [None] * len(stream)
        order = iter(range(len(stream)))
        lock = threading.Lock()
        start = time.perf_counter() + 0.05

        def sender():
            while True:
                with lock:
                    i = next(order, None)
                if i is None:
                    return
                due = start + stream[i].t
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                sent = time.perf_counter()
                status, answer = self._send(stream[i].body)
                records[i] = (stream[i].body, due, sent, time.perf_counter(), status, answer)

        threads = [threading.Thread(target=sender) for _ in range(self.CONNECTIONS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        return records

    def _closed_loop(self, bodies: list[dict], seconds: float) -> tuple[list[tuple], float]:
        records: list[tuple] = []
        lock = threading.Lock()
        t0 = time.perf_counter()
        stop = t0 + seconds

        def sender(k: int):
            i = k
            while time.perf_counter() < stop:
                body = bodies[i % len(bodies)]
                status, answer = self._send(body)
                with lock:
                    records.append((body, status, answer))
                i += self.CONNECTIONS

        threads = [threading.Thread(target=sender, args=(k,)) for k in range(self.CONNECTIONS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        return records, time.perf_counter() - t0

    def measure(self, seconds, clock=None):
        from repro.service.api import QueryAPI, platform_from_obj, workload_from_obj

        open_s = seconds * (1.0 - self.CLOSED_SHARE)
        stream = self._generate(self.seed, duration=open_s, rate=self.RATE, mix=(1.0, 0.0, 0.0))
        with region(clock, "loadgen.open_loop", requests=len(stream)):
            opened = self._open_loop(stream)
        with region(clock, "loadgen.scrape_metrics"):
            _, exposition = self._http("127.0.0.1", self.port, "GET", "/metrics", None, 30.0)
        with region(clock, "loadgen.closed_loop"):
            closed, closed_elapsed = self._closed_loop(
                [q.body for q in stream], seconds * self.CLOSED_SHARE
            )
        self.close()
        server_rusage = resource.getrusage(resource.RUSAGE_CHILDREN)

        api = QueryAPI(cache_dir=None)
        expected: dict[str, dict] = {}

        def correct(body, status, answer) -> bool:
            key = json.dumps(body, sort_keys=True)
            if key not in expected:
                local = api.predict(
                    workload_from_obj(body), platform_from_obj(body), body.get("mode", "throttled")
                )
                expected[key] = json.loads(json.dumps(local.to_obj()))
            return status == 200 and answer == expected[key]

        failures = [r[4:] for r in opened if not correct(r[0], r[4], r[5])]
        failures += [r[1:] for r in closed if not correct(*r)]
        problems = [f"request failed: {status} {answer}" for status, answer in failures[:5]]

        latencies = [(r[3] - r[1]) * 1e3 for r in opened]
        late = [(r[2] - r[1]) * 1e3 for r in opened]
        client_mean = statistics.fmean((r[3] - r[2]) * 1e3 for r in opened)
        tail_pct, tail_ms = tail(latencies) or (100.0, max(latencies))

        served = {}
        shed = 0.0
        for name, labels, value in parse_prometheus(exposition):
            if name == "service_shed_total":
                shed += value
            elif labels.get("endpoint") == "predict":
                served[name] = value
        waves = served.get("service_batch_size_count", 0.0)
        server_mean = (
            1e3 * served.get("service_latency_seconds_sum", 0.0)
            / served.get("service_latency_seconds_count", 1.0)
        )
        result = {
            "e2e": {
                "op_ms": _median(latencies),
                "work_per_s": len(closed) / closed_elapsed,
                "peak_rss_mb": server_rusage.ru_maxrss / 1024.0,
            },
            "diagnostics": {
                "predict_tail_ms": tail_ms,
                "predict_tail_pct": tail_pct,
                "predict_over_limit": float(sum(v > LATENCY_LIMIT_MS for v in latencies)),
                "ops": float(len(opened)),
            },
            "attempted": len(opened) + len(closed),
            "failed": len(failures),
            "golden": "skipped",
            "problems": problems,
            "layers": None,
        }
        if clock is not None:
            if not waves:
                problems.append("the server's /metrics shows no predict wave")
            result["layers"] = layer_metrics(
                clock,
                1,
                {
                    "service.waves": waves,
                    "service.mean_batch": served.get("service_batch_size_sum", 0.0) / waves
                    if waves
                    else 0.0,
                    "service.server_mean_ms": server_mean,
                    "service.shed": shed,
                    "service.transport_ms": client_mean - server_mean,
                    "loadgen.late_tail_ms": (tail(late) or (100.0, max(late)))[1],
                    "proc.cpu_s": server_rusage.ru_utime + server_rusage.ru_stime,
                    "proc.wall_s": self.server_wall_s,
                },
            )
        return result


CLASSES = {
    cls.name: cls for cls in (GridSmp, GridCluster, DesignSweep, TraceIngest, ServePredict)
}


def create(name: str, seed: int, work: Path, golden: dict | None = None, **sizes) -> Workload:
    """Set up workload ``name`` (imports, construction, server boot)."""
    return CLASSES[name](seed, work, golden, **sizes)

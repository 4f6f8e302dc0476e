"""The serving layer: a deterministic core inside an asyncio shell.

Two classes, split along the testability boundary:

* :class:`ServiceCore` — every *decision* the service makes (admit or
  shed, degrade or answer, retry or give up) plus all metrics, written
  clock-explicit: methods take ``now`` and never read a clock.  The
  overload property tests drive this exact object on a virtual clock
  (:func:`repro.service.loadgen.replay`), so the shed/degrade/retry
  trajectory asserted in CI is the one production runs.

* :class:`QueryService` — the asyncio shell: a hand-rolled HTTP/1.1
  JSON server on :func:`asyncio.start_server` (stdlib only, no
  ``http.server``), per-endpoint coalescing loops feeding batched
  evaluation waves, a :class:`~concurrent.futures.ProcessPoolExecutor`
  for simulate work with the circuit breaker wrapped around it, and
  chaos hooks that really do kill workers.

Routes: ``POST /v1/predict``, ``POST /v1/design``, ``POST
/v1/simulate``, ``GET /metrics`` (Prometheus text), ``GET /healthz``.
Shed responses carry ``{"shed": true, "reason": ...}`` with status 429
(``rate_limited``/``queue_full``), 503 (``breaker_open``) or 504
(``deadline``/``timeout``); degraded answers are 200s flagged
``"degraded": true``.
"""

from __future__ import annotations

import asyncio
import json
import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

from repro.backoff import RetryBudget, backoff_delay
from repro.obs import metrics as obs_metrics
from repro.obs.log import get_logger
from repro.obs.spans import get_tracer
from repro.service.admission import AdmissionController
from repro.service.api import (
    PredictRequest,
    QueryAPI,
    QueryError,
    deadline_from_obj,
    design_query,
    platform_from_obj,
    request_body,
    workload_from_obj,
)
from repro.service.breaker import CLOSED, CircuitBreaker
from repro.service.chaos import ServiceFaultPlan
from repro.service.coalesce import PendingRequest, next_wave
from repro.service.config import ENDPOINTS, ServiceConfig

__all__ = ["ServiceCore", "QueryService", "SHED_STATUS", "ROUTES"]

_log = get_logger("repro.service")

#: Route table: path -> endpoint name (POST only).
ROUTES = {f"/v1/{ep}": ep for ep in ENDPOINTS}

#: HTTP status for each shed reason.
SHED_STATUS = {
    "rate_limited": 429,
    "queue_full": 429,
    "breaker_open": 503,
    "deadline": 504,
    "timeout": 504,
}


class ServiceCore:
    """Admission, breaker, retry and degradation decisions + metrics.

    Pure in the sense that matters for determinism: given the same
    sequence of (method, now) calls it makes the same decisions and
    leaves the same metrics behind, with no hidden clock or RNG — the
    backoff jitter is derived from ``config.seed``.
    """

    def __init__(
        self,
        api: QueryAPI,
        config: ServiceConfig | None = None,
        *,
        chaos: ServiceFaultPlan | None = None,
        metrics: obs_metrics.MetricsRegistry | None = None,
    ) -> None:
        self.api = api
        self.config = config or ServiceConfig()
        self.chaos = chaos or ServiceFaultPlan()
        self.metrics = metrics if metrics is not None else obs_metrics.REGISTRY
        self.requests_total = self.metrics.counter(
            "service_requests_total",
            "Service requests by endpoint and outcome (ok/degraded/shed/error)",
            labelnames=("endpoint", "outcome"),
        )
        self.shed_total = self.metrics.counter(
            "service_shed_total",
            "Requests refused or abandoned, by reason",
            labelnames=("reason",),
        )
        self.latency_seconds = self.metrics.histogram(
            "service_latency_seconds",
            "Request latency by endpoint (admitted requests only)",
            labelnames=("endpoint",),
            buckets=obs_metrics.log_buckets(1e-4, 1e2),
        )
        self.queue_depth = self.metrics.gauge(
            "service_queue_depth",
            "Admitted requests currently queued or in flight, per endpoint",
            labelnames=("endpoint",),
        )
        self.batch_size = self.metrics.histogram(
            "service_batch_size",
            "Coalesced wave sizes by endpoint",
            labelnames=("endpoint",),
            buckets=(1, 2, 4, 8, 16, 32, 64, 128),
        )
        self.retries_total = self.metrics.counter(
            "service_retries_total",
            "Request attempts retried within the retry budget, by endpoint",
            labelnames=("endpoint",),
        )
        self.breaker_state = self.metrics.gauge(
            "service_breaker_state",
            "Worker-pool circuit breaker: 0=closed, 1=open, 2=half_open",
        )
        self.breaker = CircuitBreaker(
            failure_threshold=self.config.breaker_threshold,
            recovery=self.config.breaker_recovery,
            on_transition=self.breaker_state.set,
        )
        self.breaker_state.set(CLOSED)
        self.admission = AdmissionController(self.config)
        self.retry_budget = RetryBudget(
            ratio=self.config.retry_ratio, floor=self.config.retry_floor
        )
        #: Simulate dispatches so far — the chaos plan's clock.
        self.simulate_dispatches = 0
        for ep in ENDPOINTS:
            self.queue_depth.labels(endpoint=ep).set(0)

    # -- admission ------------------------------------------------------
    def admit(self, endpoint: str, now: float) -> str | None:
        """``None`` to proceed, else the shed reason (already counted)."""
        reason = self.admission.try_admit(endpoint, now)
        if reason is not None:
            self.count_shed(endpoint, reason)
            return reason
        self.retry_budget.note_request()
        self.queue_depth.labels(endpoint=endpoint).set(self.admission.depth(endpoint))
        return None

    def release(self, endpoint: str) -> None:
        self.admission.release(endpoint)
        self.queue_depth.labels(endpoint=endpoint).set(self.admission.depth(endpoint))

    def count_shed(self, endpoint: str, reason: str) -> None:
        self.shed_total.labels(reason=reason).inc()
        self.requests_total.labels(endpoint=endpoint, outcome="shed").inc()

    def finish(self, endpoint: str, outcome: str, latency: float) -> None:
        """Record a *delivered* answer (ok/degraded/error) and its latency."""
        self.requests_total.labels(endpoint=endpoint, outcome=outcome).inc()
        self.latency_seconds.labels(endpoint=endpoint).observe(max(0.0, latency))

    def shed_latency(self, endpoint: str, latency: float) -> None:
        """Latency of an admitted-then-shed request (deadline/timeout)."""
        self.latency_seconds.labels(endpoint=endpoint).observe(max(0.0, latency))

    # -- retries --------------------------------------------------------
    def retry_delay(self, endpoint: str, attempt: int, token: object) -> float | None:
        """Seconds to back off before a retry, or ``None`` if the budget
        refuses (retries must never amplify overload)."""
        if not self.retry_budget.allow_retry():
            return None
        self.retries_total.labels(endpoint=endpoint).inc()
        return backoff_delay(
            self.config.retry_backoff,
            attempt,
            seed=self.config.seed,
            tokens=("service", endpoint, token),
        )

    # -- answers --------------------------------------------------------
    def degrade_predicts(self, now: float) -> bool:
        """Predict queries degrade whenever the breaker is not closed."""
        return self.breaker.state(now) != CLOSED

    def predict_wave(self, riders: list[PendingRequest], now: float) -> str:
        """Answer a coalesced predict wave in place; returns the outcome.

        With the breaker closed the wave is one batched model
        evaluation (bit-identical to per-request calls); otherwise every
        rider gets the zero-contention degraded answer.
        """
        self.batch_size.labels(endpoint="predict").observe(len(riders))
        if self.degrade_predicts(now):
            for r in riders:
                q: PredictRequest = r.payload
                r.answer = self.api.predict_degraded(q.workload, q.spec, q.mode)
                r.outcome = "degraded"
            return "degraded"
        answers = self.api.predict_batch([r.payload for r in riders])
        for r, a in zip(riders, answers):
            r.answer, r.outcome = a, "ok"
        return "ok"

    def design_wave(self, riders: list[PendingRequest]) -> str:
        """Answer a coalesced design wave in place (always full-fidelity:
        design search is in-process model work, not pool work)."""
        self.batch_size.labels(endpoint="design").observe(len(riders))
        answers = self.api.design_batch([r.payload for r in riders])
        for r, a in zip(riders, answers):
            r.answer, r.outcome = a, "ok"
        return "ok"

    # -- wire shapes ----------------------------------------------------
    @staticmethod
    def shed_obj(endpoint: str, reason: str) -> dict:
        return {"shed": True, "endpoint": endpoint, "reason": reason}

    def parse(self, endpoint: str, obj: dict) -> object:
        """Endpoint payload -> the pure-API argument object (QueryError
        on malformed input, before any queueing)."""
        body = request_body(endpoint, obj)
        if endpoint == "predict":
            return PredictRequest(
                workload_from_obj(body, self.api.workload_dir),
                platform_from_obj(body),
                body.get("mode", "throttled"),
            )
        if endpoint == "design":
            return design_query(
                workload_from_obj(body, self.api.workload_dir),
                body.get("budget"),
                body.get("method"),
            )
        return self.api.simulate_args(
            body.get("app"),
            platform_from_obj(body),
            seed=body.get("seed", 0),
            app_args=body.get("app_args"),
        )

    def deadline_for(self, endpoint: str, obj: dict, arrival: float) -> float:
        """Absolute deadline: client ``deadline_s`` or the policy default."""
        return arrival + deadline_from_obj(obj, self.config.policy(endpoint).deadline)


# ---------------------------------------------------------------------------


class QueryService:
    """The asyncio HTTP shell around a :class:`ServiceCore`."""

    def __init__(
        self,
        api: QueryAPI | None = None,
        config: ServiceConfig | None = None,
        *,
        chaos: ServiceFaultPlan | None = None,
        metrics: obs_metrics.MetricsRegistry | None = None,
    ) -> None:
        self.core = ServiceCore(
            api or QueryAPI(), config, chaos=chaos, metrics=metrics
        )
        self._server: asyncio.AbstractServer | None = None
        #: Admitted predict/design requests with their reply futures, in
        #: arrival order (arrival is stamped and the entry appended with
        #: no await in between).
        self._queues: dict[str, list[tuple[PendingRequest, asyncio.Future]]] = {
            "predict": [],
            "design": [],
        }
        self._queue_event: dict[str, asyncio.Event] = {}
        self._wave_tasks: list[asyncio.Task] = []
        self._pool: ProcessPoolExecutor | None = None
        self._next_index = 0
        self._t0: float = 0.0
        self.port: int | None = None

    # -- lifecycle ------------------------------------------------------
    async def start(self, host: str = "127.0.0.1", port: int = 0) -> None:
        loop = asyncio.get_running_loop()
        self._t0 = loop.time()
        self._queue_event = {ep: asyncio.Event() for ep in self._queues}
        self._wave_tasks = [
            loop.create_task(self._wave_loop(ep)) for ep in self._queues
        ]
        self._server = await asyncio.start_server(self._handle_conn, host, port)
        self.port = self._server.sockets[0].getsockname()[1]
        _log.info("service listening", host=host, port=self.port)

    async def stop(self) -> None:
        for task in self._wave_tasks:
            task.cancel()
        for task in self._wave_tasks:
            try:
                await task
            except asyncio.CancelledError:
                pass
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        self._shutdown_pool()

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        async with self._server:
            await self._server.serve_forever()

    # -- worker pool ----------------------------------------------------
    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            # spawn, not fork: forking under a live event loop with open
            # connections inherits held locks into the worker, which can
            # deadlock the very first simulate. A spawned worker starts
            # clean; the extra startup cost is paid once per breaker
            # cycle, not per request.
            self._pool = ProcessPoolExecutor(
                max_workers=self.core.config.jobs,
                mp_context=multiprocessing.get_context("spawn"),
            )
        return self._pool

    def _shutdown_pool(self) -> None:
        if self._pool is None:
            return
        processes = list(getattr(self._pool, "_processes", {}).values())
        self._pool.shutdown(wait=False, cancel_futures=True)
        for proc in processes:
            try:
                proc.terminate()
            except Exception:
                pass
        self._pool = None

    def _chaos_kill_worker(self) -> None:
        """Really SIGKILL one pool worker (the ``workerkill`` fault)."""
        if self._pool is None:
            return
        for proc in getattr(self._pool, "_processes", {}).values():
            try:
                proc.kill()
            except Exception:
                pass
            _log.warning("chaos: killed pool worker", pid=proc.pid)
            return

    # -- HTTP plumbing --------------------------------------------------
    async def _handle_conn(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            status, body = await self._handle_request(reader)
        except Exception as exc:  # never let a handler kill the acceptor
            _log.warning("request handler error", error=str(exc))
            status, body = 500, {"error": str(exc)}
        if isinstance(body, str):  # /metrics: raw Prometheus text
            payload = body.encode("utf-8")
            ctype = "text/plain; version=0.0.4"
        else:
            payload = json.dumps(body).encode("utf-8")
            ctype = "application/json"
        head = (
            f"HTTP/1.1 {status} {_REASONS.get(status, 'OK')}\r\n"
            f"Content-Type: {ctype}\r\n"
            f"Content-Length: {len(payload)}\r\n"
            "Connection: close\r\n\r\n"
        )
        try:
            writer.write(head.encode("ascii") + payload)
            await writer.drain()
        except ConnectionError:
            pass
        finally:
            writer.close()

    async def _handle_request(self, reader: asyncio.StreamReader):
        request_line = (await reader.readline()).decode("latin-1").strip()
        if not request_line:
            return 400, {"error": "empty request"}
        parts = request_line.split()
        if len(parts) != 3:
            return 400, {"error": f"malformed request line: {request_line!r}"}
        method, path, _version = parts
        content_length = 0
        while True:
            line = (await reader.readline()).decode("latin-1")
            if line in ("\r\n", "\n", ""):
                break
            name, _, value = line.partition(":")
            if name.strip().lower() == "content-length":
                try:
                    content_length = int(value.strip())
                except ValueError:
                    return 400, {"error": "bad Content-Length"}
        if method == "GET":
            return self._handle_get(path)
        if method != "POST":
            return 405, {"error": f"method {method} not allowed"}
        endpoint = ROUTES.get(path)
        if endpoint is None:
            return 404, {"error": f"no such route {path!r}"}
        raw = await reader.readexactly(content_length) if content_length else b""
        try:
            obj = json.loads(raw.decode("utf-8")) if raw else {}
        except (UnicodeDecodeError, ValueError):
            return 400, {"error": "request body is not valid JSON"}
        return await self._dispatch(endpoint, obj)

    def _handle_get(self, path: str):
        if path == "/metrics":
            return 200, self.core.metrics.to_prometheus()
        if path == "/healthz":
            now = asyncio.get_running_loop().time()
            return 200, {
                "ok": True,
                "breaker": self.core.breaker.state_name(now),
                "endpoints": sorted(ROUTES),
            }
        return 404, {"error": f"no such route {path!r}"}

    # -- request dispatch ----------------------------------------------
    async def _dispatch(self, endpoint: str, obj: dict):
        loop = asyncio.get_running_loop()
        now = loop.time()
        tracer = get_tracer()
        with tracer.span(f"service:{endpoint}"):
            try:
                payload = self.core.parse(endpoint, obj)
                deadline = self.core.deadline_for(endpoint, obj, now)
            except QueryError as exc:
                self.core.requests_total.labels(
                    endpoint=endpoint, outcome="error"
                ).inc()
                return 400, {"error": str(exc)}
            reason = self.core.admit(endpoint, now)
            if reason is not None:
                return SHED_STATUS[reason], self.core.shed_obj(endpoint, reason)
            try:
                if endpoint == "simulate":
                    return await self._run_simulate(payload, now, deadline)
                return await self._enqueue_wave(endpoint, payload, now, deadline)
            finally:
                self.core.release(endpoint)

    async def _enqueue_wave(self, endpoint: str, payload, arrival, deadline):
        """Queue a predict/design request for its coalescing loop."""
        loop = asyncio.get_running_loop()
        pending = PendingRequest(
            index=self._next_index, endpoint=endpoint,
            arrival=arrival, deadline=deadline, payload=payload,
        )
        self._next_index += 1
        fut: asyncio.Future = loop.create_future()
        pending.answer = None
        pending_future = (pending, fut)
        self._queues[endpoint].append(pending_future)
        self._queue_event[endpoint].set()
        timeout = max(0.0, deadline - loop.time())
        try:
            await asyncio.wait_for(asyncio.shield(fut), timeout=timeout)
        except asyncio.TimeoutError:
            # The wave (or the queue wait) outran the deadline; the
            # client gets a labeled 504 *at* the deadline, never a hang.
            try:
                self._queues[endpoint].remove(pending_future)
            except ValueError:
                pass  # already dispatched; the wave result is discarded
            self.core.count_shed(endpoint, "timeout")
            self.core.shed_latency(endpoint, loop.time() - arrival)
            return SHED_STATUS["timeout"], self.core.shed_obj(endpoint, "timeout")
        outcome = pending.outcome or "error"
        latency = loop.time() - arrival
        if outcome in ("ok", "degraded"):
            self.core.finish(endpoint, outcome, latency)
            return 200, pending.answer.to_obj()
        if outcome == "deadline":
            self.core.count_shed(endpoint, "deadline")
            self.core.shed_latency(endpoint, latency)
            return SHED_STATUS["deadline"], self.core.shed_obj(endpoint, "deadline")
        self.core.finish(endpoint, "error", latency)
        return 400, {"error": str(pending.answer)}

    async def _wave_loop(self, endpoint: str) -> None:
        """Coalesce queued requests into batched evaluation waves.

        The executor is free whenever the loop comes round, so
        :func:`next_wave` with ``free_at = now`` decides when the next
        wave leaves and who rides it, as in the deterministic replay.
        An injected slow dependency is paid after the riders are fixed,
        as part of the wave's service time.
        """
        loop = asyncio.get_running_loop()
        policy = self.core.config.policy(endpoint)
        queue = self._queues[endpoint]
        while True:
            if not queue:
                self._queue_event[endpoint].clear()
                await self._queue_event[endpoint].wait()
                continue
            now = loop.time()
            dispatch, riders = next_wave(
                [pending for pending, _fut in queue],
                now,
                policy.coalesce_window,
                policy.max_batch,
            )
            if dispatch > now:
                # Wait out the window, then plan again: requests may have
                # joined or timed out of the queue meanwhile.
                await asyncio.sleep(dispatch - now)
                continue
            # Every queued request arrived by ``now``, so the riders are
            # the oldest entries of the queue.
            wave = queue[: len(riders)]
            del queue[: len(riders)]
            live: list[PendingRequest] = []
            for pending, fut in wave:
                if now > pending.deadline:
                    pending.outcome = "deadline"
                    if not fut.done():
                        fut.set_result(None)
                else:
                    live.append(pending)
            if not live:
                continue
            try:
                if endpoint == "predict":
                    await loop.run_in_executor(
                        None, self.core.predict_wave, live, now
                    )
                else:
                    await loop.run_in_executor(
                        None, self.core.design_wave, live
                    )
            except QueryError as exc:
                for pending in live:
                    pending.outcome, pending.answer = "error", exc
            except asyncio.CancelledError:
                raise
            except Exception as exc:  # a wave must never kill the loop
                _log.warning("wave failed", endpoint=endpoint, error=str(exc))
                for pending in live:
                    pending.outcome, pending.answer = "error", exc
            extra = self.core.chaos.extra_latency(now - self._t0)
            if extra > 0.0:  # injected slow dependency under the wave
                await asyncio.sleep(extra)
            for _pending, fut in wave:
                if not fut.done():
                    fut.set_result(None)

    # -- simulate (pool + breaker) --------------------------------------
    async def _run_simulate(self, args: tuple, arrival: float, deadline: float):
        loop = asyncio.get_running_loop()
        from repro.experiments.runner import _simulate_cell

        attempt = 0
        while True:
            now = loop.time()
            if now > deadline:
                self.core.count_shed("simulate", "deadline")
                self.core.shed_latency("simulate", now - arrival)
                return SHED_STATUS["deadline"], self.core.shed_obj(
                    "simulate", "deadline"
                )
            if not self.core.breaker.allow(now):
                self.core.count_shed("simulate", "breaker_open")
                return SHED_STATUS["breaker_open"], self.core.shed_obj(
                    "simulate", "breaker_open"
                )
            self.core.simulate_dispatches += 1
            dispatch_no = self.core.simulate_dispatches
            extra = self.core.chaos.extra_latency(now - self._t0)
            if extra > 0.0:
                await asyncio.sleep(extra)
            pool = self._ensure_pool()
            future = pool.submit(_simulate_cell, args)
            if self.core.chaos.kill_due(dispatch_no):
                self._chaos_kill_worker()
            stall = self.core.chaos.stall_due(dispatch_no)
            if stall > 0.0:
                pool.submit(_stall_worker, stall)
            try:
                result, _span = await asyncio.wait_for(
                    asyncio.wrap_future(future),
                    timeout=max(0.0, deadline - loop.time()),
                )
            except asyncio.TimeoutError:
                future.cancel()
                self.core.breaker.record_failure(loop.time())
                self.core.count_shed("simulate", "timeout")
                self.core.shed_latency("simulate", loop.time() - arrival)
                return SHED_STATUS["timeout"], self.core.shed_obj(
                    "simulate", "timeout"
                )
            except BrokenProcessPool:
                # The pool is gone: retrying cannot help until the
                # breaker's recovery window replaces it.  Hard-open and
                # shed (PR 3's detection, serving-path edition).
                self._shutdown_pool()
                self.core.breaker.record_failure(loop.time(), hard=True)
                self.core.count_shed("simulate", "breaker_open")
                return SHED_STATUS["breaker_open"], self.core.shed_obj(
                    "simulate", "breaker_open"
                )
            except Exception as exc:
                self.core.breaker.record_failure(loop.time())
                delay = self.core.retry_delay("simulate", attempt + 1, args[0])
                if delay is not None and loop.time() + delay <= deadline:
                    attempt += 1
                    await asyncio.sleep(delay)
                    continue
                self.core.finish("simulate", "error", loop.time() - arrival)
                return 500, {"error": str(exc)}
            self.core.breaker.record_success(loop.time())
            answer = self.core.api.simulate_answer(result, seed=args[1])
            self.core.finish("simulate", "ok", loop.time() - arrival)
            return 200, answer.to_obj()


def _stall_worker(seconds: float) -> None:
    """Pool task that wedges one worker (the ``poolstall`` fault)."""
    import time

    time.sleep(seconds)


_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


async def run_service(
    api: QueryAPI,
    config: ServiceConfig,
    *,
    host: str = "127.0.0.1",
    port: int = 8321,
    chaos: ServiceFaultPlan | None = None,
) -> None:
    """Start a service and run until cancelled (the ``repro serve`` body)."""
    service = QueryService(api, config, chaos=chaos)
    await service.start(host, port)
    try:
        await service.serve_forever()
    except asyncio.CancelledError:
        pass
    finally:
        await service.stop()

"""The real asyncio server, end to end over localhost sockets.

Each test boots a :class:`QueryService` on an ephemeral port, drives it
with the same minimal HTTP client ``repro query`` uses, and shuts it
down. Simulation tests exercise the real worker pool (spawn context),
including an actual SIGKILLed worker tripping the breaker into
degraded mode.
"""

from __future__ import annotations

import asyncio
import functools
import json

import pytest

from repro.cli import main
from repro.cost.search import METHODS
from repro.obs.metrics import MetricsRegistry
from repro.service.api import QueryAPI, platform_from_obj, workload_from_obj
from repro.service.chaos import ServiceFaultPlan, SlowDependency, WorkerKill
from repro.service.config import ServiceConfig
from repro.service.loadgen import http_request
from repro.service.server import QueryService

PLATFORM = {
    "machines": 2,
    "procs_per_machine": 2,
    "cache_kb": 256,
    "memory_mb": 64,
    "network": "ethernet100",
}
SIM_BODY = {
    "app": "FFT",
    "app_args": {"points": 256},
    "machines": 1,
    "procs_per_machine": 2,
    "cache_kb": 64,
    "memory_mb": 64,
}


def drive(client, config=None, chaos=None, api=None):
    """Boot a service, run ``client(request)`` in a worker thread, stop.

    ``request(method, path, body=None)`` is a blocking single-request
    HTTP client bound to the ephemeral port.
    """

    async def _main():
        service = QueryService(
            api or QueryAPI(cache_dir=None),
            config or ServiceConfig(jobs=1),
            chaos=chaos,
            metrics=MetricsRegistry(),
        )
        await service.start(port=0)
        loop = asyncio.get_running_loop()

        def request(method, path, body=None, timeout=60.0):
            return http_request(
                "127.0.0.1", service.port, method, path, body, timeout=timeout
            )

        try:
            return await loop.run_in_executor(
                None, functools.partial(client, request, service)
            )
        finally:
            await service.stop()

    return asyncio.run(_main())


class TestRoutes:
    def test_predict_roundtrip_matches_the_pure_api(self):
        def client(request, service):
            return request("POST", "/v1/predict", {"workload": "FFT", **PLATFORM})

        status, obj = drive(client)
        assert status == 200
        from repro.service.api import WORKLOADS, platform_from_obj

        expected = QueryAPI(cache_dir=None).predict(
            WORKLOADS["FFT"], platform_from_obj(PLATFORM)
        )
        assert obj["e_instr_seconds"] == expected.e_instr_seconds
        assert obj["degraded"] is False

    def test_design_roundtrip(self):
        def client(request, service):
            return request("POST", "/v1/design", {"workload": "LU", "budget": 50_000})

        status, obj = drive(client)
        assert status == 200
        assert obj["best"]["price"] <= 50_000
        assert set(obj["stats"]) == {
            "candidates", "evaluated", "pruned", "memo_hits", "pruning_ratio",
            "from_cache",
        }

    def test_bad_body_is_a_400_with_an_error_message(self):
        def client(request, service):
            return [
                request("POST", "/v1/predict", {"workload": "nope"}),
                request("POST", "/v1/design", {"workload": "FFT", "budget": -1}),
                request("POST", "/v1/simulate", {"app": 42}),
                request("POST", "/v1/design",
                        {"workload": "FFT", "budget": 9_000, "method": "pruned"}),
            ]

        answers = drive(client)
        for status, obj in answers:
            assert status == 400
            assert "error" in obj
        assert all(m in answers[-1][1]["error"] for m in METHODS)

    def test_oversize_and_non_finite_numbers_are_400s(self):
        # json.loads admits NaN and Infinity, and an integer too large for
        # a float used to escape the parser as an OverflowError (a 500).
        def client(request, service):
            return [
                request("POST", "/v1/predict",
                        {"alpha": 10**401, "beta": 5, "gamma": 0.3, **PLATFORM}),
                request("POST", "/v1/predict",
                        {"workload": "FFT", "deadline_s": float("nan"), **PLATFORM}),
                request("POST", "/v1/design",
                        {"workload": "FFT", "budget": float("inf")}),
            ]

        answers = drive(client)
        assert [status for status, _ in answers] == [400, 400, 400]
        for (_, obj), message in zip(answers, (
            "bad workload: int too large", "must be a positive finite",
            "must be positive and finite",
        )):
            assert message in obj["error"]

    def test_unknown_route_and_method(self):
        def client(request, service):
            return [
                request("GET", "/v1/elsewhere"),
                request("PUT", "/v1/predict", {}),
            ]

        (s404, _), (s405, _) = drive(client)
        assert (s404, s405) == (404, 405)

    def test_healthz_reports_breaker_state(self):
        def client(request, service):
            return request("GET", "/healthz")

        status, obj = drive(client)
        assert status == 200
        assert obj["ok"] is True
        assert obj["breaker"] == "closed"

    def test_metrics_endpoint_speaks_prometheus_text(self):
        def client(request, service):
            request("POST", "/v1/predict", {"workload": "FFT", **PLATFORM})
            return request("GET", "/metrics")

        status, text = drive(client)
        assert status == 200
        assert isinstance(text, str)
        assert 'service_requests_total{endpoint="predict",outcome="ok"} 1' in text
        assert "service_breaker_state 0" in text
        assert "service_queue_depth" in text
        assert "service_latency_seconds" in text


class TestAdmission:
    def test_rate_limit_answers_429_with_reason(self):
        config = ServiceConfig(jobs=1).with_policy("predict", rate=1.0, burst=2.0)

        def client(request, service):
            return [
                request("POST", "/v1/predict", {"workload": "FFT", **PLATFORM})
                for _ in range(6)
            ]

        results = drive(client, config=config)
        statuses = [s for s, _ in results]
        assert statuses.count(200) >= 2
        shed = [obj for s, obj in results if s == 429]
        assert shed, "burst-exhausted requests must shed"
        assert all(o == {"shed": True, "endpoint": "predict", "reason": "rate_limited"} for o in shed)

    def test_coalesced_answers_match_direct_calls(self):
        # A wide window guarantees concurrent requests ride one wave.
        config = ServiceConfig(jobs=1).with_policy(
            "predict", coalesce_window=0.25, max_batch=64
        )
        bodies = [
            {"workload": name, **PLATFORM} for name in ("FFT", "LU", "Radix", "EDGE")
        ]

        def client(request, service):
            import concurrent.futures

            with concurrent.futures.ThreadPoolExecutor(len(bodies)) as pool:
                futs = [
                    pool.submit(request, "POST", "/v1/predict", body)
                    for body in bodies
                ]
                results = [f.result() for f in futs]
            batch_metric = service.core.metrics.get("service_batch_size")
            return results, batch_metric.labels(endpoint="predict").sum

        results, batched = drive(client, config=config)
        api = QueryAPI(cache_dir=None)
        from repro.service.api import WORKLOADS, platform_from_obj

        for body, (status, obj) in zip(bodies, results):
            assert status == 200
            direct = api.predict(
                WORKLOADS[body["workload"]], platform_from_obj(body)
            )
            assert obj["e_instr_seconds"] == direct.e_instr_seconds
        assert batched == len(bodies), "requests must actually coalesce"

    def test_a_bad_request_fails_alone(self):
        # An infinite alpha (JSON 1e999) is rejected at parse time, so
        # it never joins the wave the valid request rides.
        config = ServiceConfig(jobs=1).with_policy(
            "predict", coalesce_window=0.25, max_batch=64
        )
        bodies = [
            {"workload": "FFT", **PLATFORM},
            {"alpha": float("inf"), "beta": 5, "gamma": 0.3, **PLATFORM},
        ]

        def client(request, service):
            import concurrent.futures

            with concurrent.futures.ThreadPoolExecutor(len(bodies)) as pool:
                futs = [
                    pool.submit(request, "POST", "/v1/predict", body)
                    for body in bodies
                ]
                return [f.result() for f in futs]

        (ok_status, ok), (bad_status, bad) = drive(client, config=config)
        assert ok_status == 200 and ok["e_instr_seconds"] > 0
        assert bad_status == 400
        assert "alpha and beta must be finite" in bad["error"]

    def test_riders_are_fixed_before_a_slow_dependency(self):
        # A rides the wave that leaves at 0.05 s and pays the injected
        # 1 s delay; B arrives during that delay and must wait for the
        # next wave, exactly as the deterministic replay decides.
        config = ServiceConfig(jobs=1).with_policy("predict", coalesce_window=0.05)
        chaos = ServiceFaultPlan((SlowDependency(at=0.0, duration=60.0, extra=1.0),))

        def client(request, service):
            import concurrent.futures
            import time

            with concurrent.futures.ThreadPoolExecutor(2) as pool:
                a = pool.submit(
                    request, "POST", "/v1/predict", {"workload": "FFT", **PLATFORM}
                )
                time.sleep(0.3)
                b = pool.submit(
                    request, "POST", "/v1/predict", {"workload": "LU", **PLATFORM}
                )
                results = [a.result(), b.result()]
            batch_metric = service.core.metrics.get("service_batch_size")
            return results, batch_metric.labels(endpoint="predict").count

        results, waves = drive(client, config=config, chaos=chaos)
        assert [status for status, _ in results] == [200, 200]
        assert waves == 2, "B joined a wave dispatched before it arrived"


class TestSimulatePath:
    def test_simulate_roundtrip_through_the_worker_pool(self):
        from repro.experiments.runner import ExperimentRunner

        def client(request, service):
            return request("POST", "/v1/simulate", SIM_BODY)

        status, obj = drive(client, config=ServiceConfig(jobs=1))
        assert status == 200
        runner = ExperimentRunner(
            seed=0, jobs=1, cache_dir=None, app_kwargs={"FFT": {"points": 256}}
        )
        expected = runner.simulate("FFT", platform_from_obj(SIM_BODY))
        assert obj["total_cycles"] == float(expected.total_cycles)
        assert obj["degraded"] is False

    def test_killed_worker_trips_breaker_and_degrades_predicts(self):
        chaos = ServiceFaultPlan((WorkerKill(after=1),))

        def client(request, service):
            sim = request("POST", "/v1/simulate", SIM_BODY)
            predict = request("POST", "/v1/predict", {"workload": "FFT", **PLATFORM})
            health = request("GET", "/healthz")
            return sim, predict, health

        (sim_status, sim_obj), (p_status, p_obj), (_, health) = drive(
            client, config=ServiceConfig(jobs=1), chaos=chaos
        )
        # The dead pool surfaces as an explicit labeled shed...
        assert sim_status == 503
        assert sim_obj == {"shed": True, "endpoint": "simulate", "reason": "breaker_open"}
        # ...opens the breaker...
        assert health["breaker"] == "open"
        # ...and predict falls back to the labeled zero-contention bound.
        assert p_status == 200
        assert p_obj["degraded"] is True
        assert "amat_cycles" in p_obj

    def test_bad_app_args_are_a_400_and_leave_the_breaker_closed(self):
        # A constructor error used to reach the pool, retry to the
        # breaker threshold and open the breaker for every client.
        body = {"app": "FFT", "app_args": {"bogus": 1}, "machines": 1,
                "procs_per_machine": 2}

        def client(request, service):
            bad = request("POST", "/v1/simulate", body)
            health = request("GET", "/healthz")
            predict = request("POST", "/v1/predict", {"workload": "FFT", **PLATFORM})
            return bad, health, predict, service.core.simulate_dispatches

        (status, obj), (_, health), (p_status, p_obj), dispatches = drive(
            client, config=ServiceConfig(jobs=1)
        )
        assert status == 400
        assert "'bogus'" in obj["error"]
        assert dispatches == 0
        assert health["breaker"] == "closed"
        assert p_status == 200 and p_obj["degraded"] is False

    def test_untyped_or_oversized_app_args_are_a_400_before_any_worker(self):
        # Both constructed fine and used to fail (or allocate) in run(),
        # in the worker, counting against the breaker.
        bodies = [{**SIM_BODY, "app_args": {"points": points}} for points in (256.0, 2**40)]

        def client(request, service):
            bad = [request("POST", "/v1/simulate", body) for body in bodies]
            health = request("GET", "/healthz")
            return bad, health, service.core.simulate_dispatches

        bad, (_, health), dispatches = drive(client, config=ServiceConfig(jobs=1))
        assert [status for status, _ in bad] == [400, 400]
        assert "must be an integer, got 256.0" in bad[0][1]["error"]
        assert "must be from 1 to 65536 to simulate" in bad[1][1]["error"]
        assert dispatches == 0
        assert health["breaker"] == "closed"

    def test_client_deadline_is_enforced_with_a_504(self):
        def client(request, service):
            body = dict(SIM_BODY, deadline_s=0.001)
            return request("POST", "/v1/simulate", body)

        status, obj = drive(client, config=ServiceConfig(jobs=1))
        assert status == 504
        assert obj["reason"] in ("deadline", "timeout")
        assert obj["shed"] is True


class TestCliParity:
    """``repro query`` and the CLI commands against the real server."""

    FLAGS = ["--workload", "LU", "--machines", "2", "--procs-per-machine", "2",
             "--cache-kb", "128", "--network", "atm"]

    def test_query_predict_prints_the_pure_api_answer(self, capsys):
        def client(request, service):
            argv = ["query", "predict", "--port", str(service.port),
                    "--mode", "open", *self.FLAGS]
            return main(argv), capsys.readouterr().out

        code, out = drive(client)
        body = {"workload": "LU", "machines": 2, "procs_per_machine": 2,
                "cache_kb": 128, "network": "atm"}
        expected = QueryAPI(cache_dir=None).predict(
            workload_from_obj(body), platform_from_obj(body), "open"
        )
        assert code == 0
        assert out == json.dumps(expected.to_obj(), indent=2, sort_keys=True) + "\n"

    def test_query_design_prints_the_design_json_stats(self, capsys):
        def client(request, service):
            argv = ["query", "design", "--port", str(service.port),
                    "--workload", "FFT", "--budget", "20000"]
            return main(argv), capsys.readouterr().out

        code, out = drive(client)
        assert code == 0
        served = json.loads(out)
        assert main(["design", "--workload", "FFT", "--budget", "20000",
                     "--json", "--cache-dir", ""]) == 0
        [printed] = json.loads(capsys.readouterr().out)
        assert "pruning_ratio" in served["stats"]
        assert served["stats"] == printed["stats"]
        assert served["best"] == printed["best"]

    def test_query_has_no_platform_flag(self, capsys):
        # It used to parse --platform and then send the shape defaults.
        with pytest.raises(SystemExit) as exc:
            main(["query", "predict", "--workload", "FFT",
                  "--platform", "clump-of-smps"])
        assert exc.value.code == 2
        assert "--platform" in capsys.readouterr().err

    def test_registered_workload_answers_like_the_cli(self, tmp_path, capsys):
        from repro.workloads.params import WorkloadParams
        from repro.workloads.registry import RegisteredWorkload, save_workload

        wl_dir = str(tmp_path / "workloads")
        params = WorkloadParams(
            "mine", alpha=1.4, beta=300.0, gamma=0.3, max_distance=40_000.0,
            sharing_fraction=0.1,
        )
        save_workload(wl_dir, RegisteredWorkload(params=params, source="test"))
        body = {"workload": "mine", **PLATFORM}

        def client(request, service):
            return request("POST", "/v1/predict", body)

        status, obj = drive(
            client, api=QueryAPI(cache_dir=None, workload_dir=wl_dir)
        )
        assert status == 200 and obj["workload"] == "mine"
        assert main(["predict", "--workload", "mine", "--workload-dir", wl_dir,
                     "--machines", "2", "--procs-per-machine", "2"]) == 0
        line = capsys.readouterr().out.splitlines()[-1]
        assert line == f"E(Instr) = {obj['e_instr_seconds']:.3e} s/instruction"

        from repro.cost.optimizer import ModelOptions, _predict

        cli_seconds = _predict(
            platform_from_obj(body), params, ModelOptions()
        ).e_instr_seconds
        assert obj["e_instr_seconds"] == cli_seconds

"""The pure query API: parsing, answer shapes, and the two exactness
contracts the service advertises.

* full-fidelity ``predict`` goes through the same batched evaluator
  with the same knobs as ``repro predict`` (remote-rate adjustment on
  clusters, sharing fractions from the workload, saturation -> inf);
* ``predict_degraded`` is *exactly* ``zero_contention_amat`` — the
  admissible bound, not an approximation of it.
"""

from __future__ import annotations

import json
import math

import pytest

from repro.core.amat import zero_contention_amat
from repro.core.execution import e_instr_seconds
from repro.service.api import (
    KB,
    NETWORKS,
    WORKLOADS,
    PredictRequest,
    QueryAPI,
    QueryError,
    platform_from_obj,
    workload_from_obj,
)


@pytest.fixture(scope="module")
def api():
    return QueryAPI(cache_dir=None)


SHAPES = (
    {"machines": 1, "procs_per_machine": 4},
    {"machines": 4, "procs_per_machine": 1},
    {"machines": 4, "procs_per_machine": 2, "network": "atm", "cache_kb": 512},
)


class TestParsing:
    def test_named_workload(self):
        assert workload_from_obj({"workload": "FFT"}) is WORKLOADS["FFT"]

    def test_custom_workload(self):
        w = workload_from_obj({"alpha": 1.8, "beta": 700, "gamma": 0.4})
        assert (w.alpha, w.beta, w.gamma) == (1.8, 700.0, 0.4)

    def test_unknown_workload_is_a_query_error(self):
        with pytest.raises(QueryError, match="unknown workload"):
            workload_from_obj({"workload": "nope"})
        with pytest.raises(QueryError, match="'workload' must be a string"):
            workload_from_obj({"workload": ["FFT"], "machines": 2})

    @pytest.mark.parametrize("key", ["alpha", "beta"])
    def test_non_finite_locality_is_a_query_error(self, key):
        body = {"alpha": 1.5, "beta": 5.0, "gamma": 0.3, "machines": 2}
        body[key] = json.loads("1e999")
        with pytest.raises(QueryError, match="alpha and beta must be finite"):
            workload_from_obj(body)

    def test_missing_params_is_a_query_error(self):
        with pytest.raises(QueryError, match="alpha"):
            workload_from_obj({"alpha": 1.5})

    def test_registered_workload(self, tmp_path):
        from repro.workloads.params import WorkloadParams
        from repro.workloads.registry import RegisteredWorkload, save_workload

        params = WorkloadParams("mine", alpha=1.4, beta=300.0, gamma=0.3)
        save_workload(tmp_path, RegisteredWorkload(params=params, source="test"))
        assert workload_from_obj({"workload": "mine"}, str(tmp_path)) == params
        with pytest.raises(QueryError, match="unknown workload 'mine'"):
            workload_from_obj({"workload": "mine"})  # no registry given

    def test_corrupt_registry_cannot_break_a_built_in_name(self, tmp_path):
        (tmp_path / "bad.workload.json").write_text("{not json")
        assert workload_from_obj({"workload": "FFT"}, str(tmp_path)) is WORKLOADS["FFT"]
        with pytest.raises(QueryError, match="bad.workload.json"):
            workload_from_obj({"workload": "mine"}, str(tmp_path))

    def test_platform_defaults_and_units(self):
        spec = platform_from_obj({})
        assert (spec.N, spec.n) == (4, 1)
        assert spec.cache_bytes == 256 * KB
        assert spec.network is NETWORKS["ethernet100"]

    def test_single_machine_drops_the_network(self):
        spec = platform_from_obj(
            {"machines": 1, "procs_per_machine": 2, "network": "atm"}
        )
        assert spec.network is None

    def test_bad_platform_values(self):
        with pytest.raises(QueryError, match="machines"):
            platform_from_obj({"machines": 0})
        with pytest.raises(QueryError, match="machines"):
            platform_from_obj({"machines": 2.5})
        with pytest.raises(QueryError, match="network"):
            platform_from_obj({"network": "token-ring"})
        with pytest.raises(QueryError, match="'network' must be a string"):
            platform_from_obj({"workload": "FFT", "network": ["atm"]})

    def test_bad_mode_is_a_query_error(self):
        with pytest.raises(QueryError, match="mode"):
            PredictRequest(WORKLOADS["FFT"], platform_from_obj({}), mode="magic")


class TestPredict:
    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("name", ["FFT", "TPC-C"])
    def test_matches_the_model_with_cli_knobs(self, api, name, shape):
        from repro.core.batch import BatchCase, e_instr_seconds_batch

        workload = WORKLOADS[name]
        spec = platform_from_obj(shape)
        answer = api.predict(workload, spec)
        expected = e_instr_seconds_batch(
            [
                BatchCase(
                    spec,
                    sharing_fraction=workload.sharing_at(spec.N),
                    sharing_fresh_fraction=workload.sharing_fresh_fraction,
                    remote_rate_adjustment=0.124 if spec.N > 1 else 0.0,
                )
            ],
            workload.locality,
            workload.gamma,
            mode="throttled",
        )[0]
        assert answer.e_instr_seconds == float(expected)
        assert answer.feasible == math.isfinite(float(expected))
        assert not answer.degraded

    def test_infeasible_serializes_as_null_not_inf(self, api):
        # A tiny cache on a slow network saturates the throttled model.
        workload = WORKLOADS["Radix"]
        spec = platform_from_obj(
            {"machines": 16, "cache_kb": 1, "memory_mb": 1, "network": "ethernet10"}
        )
        answer = api.predict(workload, spec)
        if not answer.feasible:
            assert answer.to_obj()["e_instr_seconds"] is None

    @pytest.mark.parametrize("shape", SHAPES)
    def test_degraded_is_exactly_zero_contention_amat(self, api, shape):
        workload = WORKLOADS["LU"]
        spec = platform_from_obj(shape)
        answer = api.predict_degraded(workload, spec)
        bound = zero_contention_amat(
            spec.hierarchy(),
            workload.locality,
            workload.gamma,
            remote_rate_adjustment=0.124 if spec.N > 1 else 0.0,
            sharing_fraction=workload.sharing_at(spec.N),
            sharing_fresh_fraction=workload.sharing_fresh_fraction,
        )
        assert answer.amat_cycles == bound
        assert answer.e_instr_seconds == e_instr_seconds(
            spec.total_processors, workload.gamma, bound, spec.cpu_hz
        )
        assert answer.degraded and answer.feasible
        assert answer.to_obj()["degraded"] is True

    def test_degraded_never_exceeds_the_full_answer(self, api):
        # The zero-contention AMAT is an admissible lower bound.
        for name in ("FFT", "LU", "EDGE"):
            workload = WORKLOADS[name]
            spec = platform_from_obj({"machines": 4, "procs_per_machine": 2})
            full = api.predict(workload, spec)
            floor = api.predict_degraded(workload, spec)
            assert floor.e_instr_seconds <= full.e_instr_seconds


class TestDesign:
    def test_matches_design_search_directly(self, api):
        from repro.cost.search import DesignQuery, DesignSearch

        workload = WORKLOADS["FFT"]
        answer = api.design(workload, 100_000.0)
        (outcome,) = DesignSearch(jobs=1).run(
            [DesignQuery(workload, 100_000.0)]
        )
        assert answer.best == outcome.result.best.as_dict()
        assert answer.best["price"] <= 100_000.0
        assert answer.stats["candidates"] == outcome.stats.candidates

    def test_cli_json_best_is_the_service_best(self, api, capsys):
        import json

        from repro.cli import main

        argv = ["design", "--workload", "EDGE", "--budget", "12000",
                "--json", "--cache-dir", ""]
        assert main(argv) == 0
        [payload] = json.loads(capsys.readouterr().out)
        assert payload["best"] == api.design(WORKLOADS["EDGE"], 12_000.0).best

    def test_bad_budget_is_a_query_error(self, api):
        with pytest.raises(QueryError, match="budget"):
            api.design(WORKLOADS["FFT"], -5.0)


class TestSimulate:
    def test_unknown_app_rejected_before_any_worker(self, api):
        with pytest.raises(QueryError, match="unknown application"):
            api.simulate_args(
                "NotAnApp",
                platform_from_obj({"machines": 1, "procs_per_machine": 2}),
            )

    def test_submit_matches_the_runner(self, api):
        from repro.experiments.runner import ExperimentRunner, _simulate_cell

        spec = platform_from_obj(
            {"machines": 1, "procs_per_machine": 2, "cache_kb": 64}
        )
        # What the server submits to a pool worker, run in-process.
        args = api.simulate_args("FFT", spec, seed=3, app_args={"points": 256})
        answer = api.simulate_answer(_simulate_cell(args)[0], seed=3)
        runner = ExperimentRunner(
            seed=3, jobs=1, cache_dir=None, app_kwargs={"FFT": {"points": 256}}
        )
        expected = runner.simulate("FFT", spec)
        assert answer.total_cycles == float(expected.total_cycles)
        assert answer.e_instr_seconds == float(expected.e_instr_seconds)
        assert answer.seed == 3
        obj = answer.to_obj()
        assert isinstance(obj["total_cycles"], float)  # JSON-safe, not np
        assert isinstance(obj["total_references"], int)


#: ``repro predict`` shape flags and the ``/v1/predict`` keys they mean:
#: an SMP, a COW, a CLUMP, an L2 CLUMP and a slow-network COW.
PARITY_SHAPES = [
    (["--machines", "1", "--procs-per-machine", "4"],
     {"machines": 1, "procs_per_machine": 4}),
    (["--machines", "4"], {"machines": 4}),
    (["--machines", "4", "--procs-per-machine", "2", "--network", "atm",
      "--cache-kb", "512"],
     {"machines": 4, "procs_per_machine": 2, "network": "atm", "cache_kb": 512}),
    (["--machines", "2", "--procs-per-machine", "2", "--l2-kb", "1024",
      "--memory-mb", "128"],
     {"machines": 2, "procs_per_machine": 2, "l2_kb": 1024, "memory_mb": 128}),
    (["--machines", "8", "--network", "ethernet10", "--cache-kb", "64",
      "--memory-mb", "32"],
     {"machines": 8, "network": "ethernet10", "cache_kb": 64, "memory_mb": 32}),
]


class TestCliParity:
    """``repro predict`` flags and the matching ``/v1/predict`` body
    resolve the same request and price it to the same float."""

    @pytest.mark.parametrize("mode", ["open", "throttled", "mva"])
    @pytest.mark.parametrize("flags, body", PARITY_SHAPES)
    def test_flags_and_body_agree(self, api, flags, body, mode):
        from repro.cli import _platform_from, _workload_from, build_parser
        from repro.cost.optimizer import ModelOptions, _predict

        for name in WORKLOADS:
            args = build_parser().parse_args(
                ["predict", "--workload", name, "--mode", mode, *flags]
            )
            spec, workload = _platform_from(args), _workload_from(args)
            assert spec == platform_from_obj(body, "platform")
            assert workload == workload_from_obj({"workload": name})
            cli = _predict(spec, workload, ModelOptions(mode=mode)).e_instr_seconds
            served = api.predict(
                workload_from_obj({"workload": name}), platform_from_obj(body), mode
            )
            assert served.e_instr_seconds == cli

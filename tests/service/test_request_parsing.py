"""The one request parser, at the server's boundary.

``ServiceCore.parse`` and ``ServiceCore.deadline_for`` see whatever
``json.loads`` made of a request body, which includes ``NaN``,
``Infinity`` and integers of hundreds of digits.  Each call must return
a request or raise :class:`QueryError` (the 400): any other exception
escapes ``_dispatch`` as a 500.  A predict request the parser admits
must also be answerable, or it fails every request coalesced into its
wave.
"""

from __future__ import annotations

import json
import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.obs.metrics import MetricsRegistry
from repro.service.api import (
    MAX_PROCESSORS,
    MAX_SIMULATED_APP_ARGS,
    MAX_SIMULATED_CACHE_KB,
    MAX_SIMULATED_MEMORY_MB,
    REQUEST_KEYS,
    PredictRequest,
    QueryAPI,
    QueryError,
)
from repro.service.config import ENDPOINTS
from repro.service.server import ServiceCore
from repro.workloads.params import WorkloadParams
from repro.workloads.registry import RegisteredWorkload, save_workload

HUGE = 10**401  # json.loads accepts integers of up to 4,300 digits


@pytest.fixture(scope="module")
def core(tmp_path_factory):
    wl_dir = tmp_path_factory.mktemp("workloads")
    params = WorkloadParams("mine", alpha=1.4, beta=300.0, gamma=0.3)
    save_workload(wl_dir, RegisteredWorkload(params=params, source="test"))
    api = QueryAPI(cache_dir=None, workload_dir=str(wl_dir))
    return ServiceCore(api, metrics=MetricsRegistry())


class TestBoundaryCases:
    @pytest.mark.parametrize(
        "endpoint, body, message",
        [
            ("predict", {"alpha": HUGE, "beta": 5, "gamma": 0.3},
             "bad workload: int too large to convert to float"),
            ("predict", {"workload": "FFT", "memory_mb": HUGE}, "within float range"),
            ("predict", {"workload": "FFT", "cache_kb": 10**306, "memory_mb": 10**307},
             "'cache_kb' must be a positive integer within float range"),
            ("design", {"workload": "FFT", "budget": HUGE}, "positive and finite"),
            ("design", {"workload": "FFT", "budget": float("nan")}, "positive and finite"),
            ("design", {"workload": "FFT", "budget": float("inf")}, "positive and finite"),
        ],
        ids=["alpha-huge", "memory-huge", "cache-beyond-float", "budget-huge",
             "budget-nan", "budget-inf"],
    )
    def test_parse_rejects_non_finite_numbers(self, core, endpoint, body, message):
        with pytest.raises(QueryError, match=message):
            core.parse(endpoint, body)

    @pytest.mark.parametrize(
        "deadline", [HUGE, float("nan"), float("inf"), -float("inf"), 0, True],
        ids=["huge", "nan", "inf", "-inf", "zero", "bool"],
    )
    def test_deadline_must_be_positive_and_finite(self, core, deadline):
        with pytest.raises(QueryError, match="'deadline_s' must be a positive finite"):
            core.deadline_for("predict", {"deadline_s": deadline}, 0.0)

    def test_deadline_defaults_to_the_policy(self, core):
        assert core.deadline_for("design", {}, 10.0) == (
            10.0 + core.config.policy("design").deadline
        )
        assert core.deadline_for("design", {"deadline_s": 2}, 10.0) == 12.0

    def test_deadline_is_at_most_the_policy_deadline(self, core):
        for endpoint in ENDPOINTS:
            limit = core.config.policy(endpoint).deadline
            assert core.deadline_for(endpoint, {"deadline_s": limit}, 1.0) == 1.0 + limit
            for deadline in (1e300, limit * 1.5):
                with pytest.raises(QueryError, match=(
                    f"'deadline_s' must be at most the endpoint's deadline of {limit:g} s"
                )):
                    core.deadline_for(endpoint, {"deadline_s": deadline}, 0.0)

    def test_simulated_sizes_are_bounded_before_any_allocation(self, core, monkeypatch):
        from repro.sim.cache import SetAssociativeCache

        def allocate(*args, **kwargs):
            raise AssertionError("the parser built a simulated cache")

        monkeypatch.setattr(SetAssociativeCache, "__init__", allocate)
        sim = {"app": "FFT", "app_args": {"points": 256}, "machines": 1,
               "procs_per_machine": 2, "memory_mb": 16_384}
        for key, limit in (("cache_kb", MAX_SIMULATED_CACHE_KB),
                           ("l2_kb", MAX_SIMULATED_CACHE_KB),
                           ("memory_mb", MAX_SIMULATED_MEMORY_MB)):
            assert core.parse("simulate", {**sim, key: limit})[3] is not None
            with pytest.raises(QueryError, match=f"'{key}' must be at most {limit} "):
                core.parse("simulate", {**sim, key: limit + 1})
        with pytest.raises(QueryError, match="'cache_kb' must be at most"):
            core.parse("simulate", {**sim, "cache_kb": 10_000_000})
        # Predict folds sizes into floats: any size within float range.
        request = core.parse("predict", {"workload": "FFT", "cache_kb": 10_000_000,
                                         "memory_mb": 10**9, "l2_kb": 10**8})
        assert request.spec.cache_bytes == 10_000_000 * 1024

    @pytest.mark.parametrize(
        "extra, message",
        [
            ({"app_args": {"bogus": 1}}, "unexpected keyword argument 'bogus'"),
            ({"app_args": {"points": 256}, "procs_per_machine": 32},
             "row count 16 must be divisible by num_procs 32"),
            ({"app_args": {"num_procs": 2}}, "multiple values for argument .num_procs."),
            ({"seed": -1}, "'seed' must be a non-negative integer"),
        ],
        ids=["unknown-arg", "too-many-processes", "reserved-arg", "negative-seed"],
    )
    def test_simulate_args_are_checked_against_the_application(self, core, extra, message):
        body = {"app": "FFT", "machines": 1, "procs_per_machine": 2, **extra}
        with pytest.raises(QueryError, match=message):
            core.parse("simulate", body)

    def test_app_args_are_typed_and_bounded_before_any_run(self, core, monkeypatch):
        from repro.apps.fft import FftApplication

        def run(self):
            raise AssertionError("the parser ran the application")

        monkeypatch.setattr(FftApplication, "run", run)
        body = {"app": "FFT", "machines": 1, "procs_per_machine": 2}
        limit = MAX_SIMULATED_APP_ARGS["points"]
        for points, message in (
            (256.0, "app_args 'points' of FFT must be an integer, got 256.0"),
            (2**40, f"app_args 'points' of FFT must be from 1 to {limit} to simulate"),
            (4 * limit, f"must be from 1 to {limit} to simulate, got {4 * limit}"),
        ):
            with pytest.raises(QueryError, match=message):
                core.parse("simulate", {**body, "app_args": {"points": points}})
        assert core.parse("simulate", {**body, "app_args": {"points": limit}})[2] == {
            "points": limit
        }
        with pytest.raises(QueryError, match="'threshold' of EDGE must be a finite number"):
            core.parse("simulate", {**body, "app": "EDGE", "app_args": {"threshold": "8"}})

    def test_every_integer_app_arg_has_a_ceiling(self):
        """Each integer constructor argument of a built-in application
        has a simulate ceiling at or above its default."""
        import inspect

        from repro.apps.registry import APPLICATIONS, make_application

        seen = set()
        for name in APPLICATIONS:
            app = make_application(name, 1, 0)
            for key, param in inspect.signature(type(app)).parameters.items():
                if param.annotation in (int, "int") and key not in ("num_procs", "seed"):
                    seen.add(key)
                    assert getattr(app, key) <= MAX_SIMULATED_APP_ARGS[key], (name, key)
        assert seen == set(MAX_SIMULATED_APP_ARGS)

    def test_budget_and_method_reach_the_design_query(self, core):
        query = core.parse("design", {"workload": "LU", "budget": 9000,
                                      "method": "pareto"})
        assert (query.budget, query.method) == (9000.0, "pareto")
        assert isinstance(query.budget, float)
        for budget in (True, "9000", 0, -1):
            with pytest.raises(QueryError, match="budget"):
                core.parse("design", {"workload": "LU", "budget": budget})
        with pytest.raises(QueryError, match="unknown search method"):
            core.parse("design", {"workload": "LU", "budget": 9000,
                                  "method": "pruned"})

    def test_platform_limit_boundary(self, core):
        for machines, procs in ((MAX_PROCESSORS, 1), (MAX_PROCESSORS // 4, 4)):
            request = core.parse("predict", {"workload": "FFT", "machines": machines,
                                             "procs_per_machine": procs})
            assert request.spec.total_processors == MAX_PROCESSORS
        for machines, procs in ((MAX_PROCESSORS + 1, 1), (MAX_PROCESSORS // 4 + 1, 4),
                                (2, 10**300)):
            with pytest.raises(QueryError, match="exceed the limit of 1024"):
                core.parse("predict", {"workload": "FFT", "machines": machines,
                                       "procs_per_machine": procs})

    def test_registered_workload_is_resolved(self, core):
        request = core.parse("predict", {"workload": "mine"})
        assert request.workload.name == "mine"
        with pytest.raises(QueryError, match="known: .*mine"):
            core.parse("predict", {"workload": "yours"})

    def test_unknown_key_is_rejected(self, core):
        # A misspelt shape key used to fall back to the default silently.
        with pytest.raises(QueryError, match="unknown key 'procs'"):
            core.parse("predict", {"workload": "FFT", "procs": 4})
        with pytest.raises(QueryError, match="unknown key 'machines'"):
            core.parse("design", {"workload": "FFT", "budget": 9000, "machines": 2})


# -- the fuzz --------------------------------------------------------------
_scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(10**420), max_value=10**420)
    | st.sampled_from([0, 1, -1, 2, 4, 64, 1024, 1025, HUGE, -HUGE])
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=8)
    | st.sampled_from(["FFT", "LU", "mine", "throttled", "open", "mva", "pareto",
                       "exhaustive", "atm", "ethernet100", "FFT\x00"])
)
_json = st.recursive(
    _scalars,
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=6), children, max_size=3),
    max_leaves=8,
)
_KEYS = sorted({key for keys in REQUEST_KEYS.values() for key in keys})
_bodies = st.dictionaries(
    st.sampled_from(_KEYS) | st.text(max_size=6), _json, max_size=8
) | _json


def _parse_or_query_error(call):
    try:
        return call()
    except QueryError:
        return None


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(endpoint=st.sampled_from(ENDPOINTS), body=_bodies)
def test_any_json_body_parses_or_is_a_query_error(core, endpoint, body):
    # Round-trip first: the server only ever sees what json.loads returns.
    body = json.loads(json.dumps(body))
    _parse_or_query_error(lambda: core.parse(endpoint, body))
    deadline = _parse_or_query_error(lambda: core.deadline_for(endpoint, body, 0.0))
    assert deadline is None or (math.isfinite(deadline) and deadline > 0)


_shape_values = (
    st.integers(min_value=-2, max_value=10**310)
    | st.sampled_from([1, 2, 4, 1024, 10**305, 10**306, HUGE])
    | st.floats(allow_nan=True, allow_infinity=True)
)
_workload_values = st.floats(allow_nan=True, allow_infinity=True) | st.integers(
    min_value=-(10**420), max_value=10**420
)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    shape=st.dictionaries(
        st.sampled_from(["machines", "procs_per_machine", "cache_kb",
                         "memory_mb", "l2_kb"]),
        _shape_values, max_size=5,
    ),
    triple=st.none() | st.fixed_dictionaries(
        {"alpha": _workload_values, "beta": _workload_values,
         "gamma": _workload_values}
    ),
)
def test_an_admitted_predict_is_answerable(core, shape, triple):
    body = {**shape, **(triple or {"workload": "FFT"})}
    request = _parse_or_query_error(lambda: core.parse("predict", body))
    if request is None:
        return
    assert isinstance(request, PredictRequest)
    assert request.spec.total_processors <= MAX_PROCESSORS
    core.api.predict_batch([request])
    core.api.predict_degraded(request.workload, request.spec, request.mode)

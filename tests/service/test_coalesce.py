"""Coalescing: the wave policy, and the bit-identity property.

The acceptance criterion for the whole coalescing feature is that it is
*invisible* in the answers: any partition of a request set into waves
returns, request for request, the identical floats a batch-of-one would.
These tests exercise that property over randomized request sets and
randomized partitions, for predict and for design.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cost.search import DesignQuery
from repro.service.api import (
    WORKLOADS,
    PredictRequest,
    QueryAPI,
    platform_from_obj,
)
from repro.service.coalesce import PendingRequest, next_wave, percentile


def _pending(index, arrival, deadline=1e9, endpoint="predict"):
    return PendingRequest(
        index=index, endpoint=endpoint, arrival=arrival, deadline=deadline
    )


class TestNextWave:
    def test_window_opens_at_the_head_arrival(self):
        queue = [_pending(0, 1.0), _pending(1, 1.004), _pending(2, 1.2)]
        dispatch, riders = next_wave(queue, free_at=0.0, window=0.01, max_batch=64)
        assert dispatch == pytest.approx(1.01)
        assert [p.index for p in riders] == [0, 1]  # 1.2 missed the wave

    def test_busy_executor_delays_and_widens_the_wave(self):
        queue = [_pending(0, 1.0), _pending(1, 1.004), _pending(2, 1.2)]
        dispatch, riders = next_wave(queue, free_at=2.0, window=0.01, max_batch=64)
        assert dispatch == 2.0
        assert [p.index for p in riders] == [0, 1, 2]

    def test_max_batch_caps_the_wave(self):
        queue = [_pending(i, 0.0) for i in range(10)]
        _, riders = next_wave(queue, free_at=0.0, window=0.0, max_batch=4)
        assert [p.index for p in riders] == [0, 1, 2, 3]

    def test_zero_window_dispatches_immediately(self):
        queue = [_pending(0, 5.0)]
        dispatch, riders = next_wave(queue, free_at=0.0, window=0.0, max_batch=1)
        assert dispatch == 5.0 and len(riders) == 1

    def test_empty_queue_is_an_error(self):
        with pytest.raises(ValueError, match="empty"):
            next_wave([], 0.0, 0.01, 64)


class TestPercentile:
    def test_nearest_rank(self):
        values = list(range(1, 101))
        assert percentile(values, 99.0) == 99
        assert percentile(values, 50.0) == 50
        assert percentile(values, 100.0) == 100

    def test_small_samples(self):
        assert percentile([3.0], 99.0) == 3.0
        assert percentile([1.0, 9.0], 99.0) == 9.0

    def test_validation(self):
        with pytest.raises(ValueError):
            percentile([], 50.0)
        with pytest.raises(ValueError):
            percentile([1.0], 101.0)


# ---------------------------------------------------------------------------
# the bit-identity property


_SHAPES = (
    {"machines": 1, "procs_per_machine": 4},
    {"machines": 2, "procs_per_machine": 2},
    {"machines": 4, "procs_per_machine": 1},
    {"machines": 8, "procs_per_machine": 1, "cache_kb": 512},
    {"machines": 4, "procs_per_machine": 2, "network": "atm"},
    {"machines": 16, "procs_per_machine": 1, "cache_kb": 64, "memory_mb": 32},
)
_NAMES = tuple(WORKLOADS)
_MODES = ("throttled", "open", "mva")


def _random_requests(rng, count):
    return [
        PredictRequest(
            WORKLOADS[_NAMES[int(rng.integers(len(_NAMES)))]],
            platform_from_obj(_SHAPES[int(rng.integers(len(_SHAPES)))]),
            _MODES[int(rng.integers(len(_MODES)))],
        )
        for _ in range(count)
    ]


class TestPredictBitIdentity:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_any_coalescing_partition_is_invisible(self, seed):
        """Singles, one big wave, and a random partition all agree
        bit-for-bit, across mixed workloads, shapes and modes."""
        rng = np.random.default_rng(seed)
        requests = _random_requests(rng, 24)

        api = QueryAPI(cache_dir=None)
        singles = [api.predict(r.workload, r.spec, r.mode) for r in requests]
        one_wave = QueryAPI(cache_dir=None).predict_batch(requests)

        partitioned_api = QueryAPI(cache_dir=None)
        partitioned = []
        i = 0
        while i < len(requests):
            width = int(rng.integers(1, 7))
            partitioned.extend(
                partitioned_api.predict_batch(requests[i : i + width])
            )
            i += width

        for a, b, c in zip(singles, one_wave, partitioned):
            # Exact float equality — coalescing must be invisible.
            assert a.e_instr_seconds == b.e_instr_seconds == c.e_instr_seconds
            assert a.feasible == b.feasible == c.feasible

    def test_batch_answers_keep_request_order(self):
        requests = [
            PredictRequest(WORKLOADS["FFT"], platform_from_obj(_SHAPES[0])),
            PredictRequest(WORKLOADS["LU"], platform_from_obj(_SHAPES[1])),
            PredictRequest(WORKLOADS["FFT"], platform_from_obj(_SHAPES[2])),
        ]
        answers = QueryAPI(cache_dir=None).predict_batch(requests)
        assert [a.workload for a in answers] == ["FFT", "LU", "FFT"]


class TestDesignBitIdentity:
    def test_coalesced_design_waves_match_singles(self):
        queries = [
            DesignQuery(WORKLOADS["FFT"], 100_000.0),
            DesignQuery(WORKLOADS["LU"], 50_000.0),
            DesignQuery(WORKLOADS["FFT"], 100_000.0),  # duplicate: memo replay
        ]
        singles_api = QueryAPI(cache_dir=None)
        singles = [singles_api.design(q.workload, q.budget) for q in queries]
        batched = QueryAPI(cache_dir=None).design_batch(queries)
        for a, b in zip(singles, batched):
            assert a.best == b.best  # exact floats inside
            assert a.budget == b.budget

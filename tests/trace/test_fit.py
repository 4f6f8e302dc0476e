"""Tests for incremental (alpha, beta, gamma) fitting and convergence."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.trace.fit as trace_fit
from repro.trace.fit import CONVERGENCE_SCHEMA, ConvergenceStep, IncrementalFit
from repro.trace.ingest import ingest
from repro.trace.stackdist import stack_distances
from repro.trace.store import TraceStoreWriter
from repro.workloads.fitting import fit_from_distances


def _zipf_addresses(seed, n=6000, footprint=400):
    rng = np.random.default_rng(seed)
    return (rng.zipf(1.4, size=n) - 1) % footprint


class TestBitIdentity:
    """The equivalence contract: same histogram, grid, solver -> same fit."""

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000),
           st.integers(min_value=1, max_value=2000))
    def test_incremental_equals_inmemory(self, seed, chunk):
        addrs = _zipf_addresses(seed, n=4000, footprint=250)
        fit = IncrementalFit(gamma_override=0.3)
        for i in range(0, len(addrs), chunk):
            fit.update_from_addresses(addrs[i : i + chunk])
        incremental = fit.result()
        reference = fit_from_distances(stack_distances(addrs))
        assert incremental.alpha == reference.alpha
        assert incremental.beta == reference.beta
        assert incremental.rmse == reference.rmse
        assert incremental.cold_fraction == reference.cold_fraction
        assert incremental.max_distance == reference.max_distance

    def test_chunk_boundary_invariance(self):
        addrs = _zipf_addresses(42)
        results = []
        for chunk in (137, 512, 1999, len(addrs)):
            fit = IncrementalFit(gamma_override=0.25)
            for i in range(0, len(addrs), chunk):
                fit.update_from_addresses(addrs[i : i + chunk])
            results.append(fit.result())
        for r in results[1:]:
            assert r.alpha == results[0].alpha
            assert r.beta == results[0].beta
            assert r.rmse == results[0].rmse


class TestConvergence:
    def test_stop_rule_and_record(self):
        addrs = _zipf_addresses(1, n=40_000, footprint=300)
        fit = IncrementalFit(gamma_override=0.3, tol=0.05, patience=2)
        for i in range(0, len(addrs), 2000):
            fit.update_from_addresses(addrs[i : i + 2000])
        conv = fit.convergence()
        assert conv.converged
        assert conv.converged_at is not None
        steps = conv.steps
        assert len(steps) == 20
        # a stationary tail: every step of the stable window is below tol
        idx = conv.converged_at
        window = [s for s in steps if s.chunk >= idx][:2]
        for s in window:
            assert max(s.d_alpha, s.d_beta, s.d_gamma) < 0.05
        assert steps[-1].converged

    def test_step_fields(self):
        fit = IncrementalFit(gamma_override=0.5)
        step = fit.update_from_addresses(_zipf_addresses(2, n=500))
        assert isinstance(step, ConvergenceStep)
        obj = step.to_obj()
        for field in ("chunk", "records", "alpha", "beta", "gamma", "rmse",
                      "d_alpha", "d_beta", "d_gamma", "converged"):
            assert field in obj

    def test_export_json(self, tmp_path):
        fit = IncrementalFit(gamma_override=0.5)
        for i in range(3):
            fit.update_from_addresses(_zipf_addresses(i, n=800))
        out = tmp_path / "conv.json"
        fit.convergence().export_json(out)
        doc = json.loads(out.read_text())
        assert doc["schema"] == CONVERGENCE_SCHEMA
        assert len(doc["steps"]) == 3

    def test_measured_gamma_accumulates(self):
        fit = IncrementalFit()
        addrs = np.arange(100, dtype=np.int64)
        # work == 3 per reference -> gamma = M/(m+M) = 100/400
        fit.update(stack_distances(addrs), work=300)
        assert fit.gamma == pytest.approx(0.25)

    def test_params_round_trip(self):
        fit = IncrementalFit(gamma_override=0.4)
        fit.update_from_addresses(_zipf_addresses(9, n=3000))
        p = fit.params("ingested", problem_size="3,000 refs")
        assert p.name == "ingested"
        assert p.gamma == 0.4
        assert p.alpha > 1.0 and p.beta > 0.0


class TestOneSolvePerUpdate:
    def test_ingest_solves_once_per_chunk(self, tmp_path, monkeypatch):
        """``result()`` and ``params()`` reuse the last update's fit."""
        solves = []
        solver = trace_fit.fit_stack_distance_model

        def counting(*args, **kwargs):
            solves.append(args)
            return solver(*args, **kwargs)

        monkeypatch.setattr(trace_fit, "fit_stack_distance_model", counting)
        addrs = _zipf_addresses(4, n=5000, footprint=300)
        container = tmp_path / "z.rtc"
        with TraceStoreWriter(container, chunk_records=1024) as writer:
            writer.append(addrs, work=1)
        result = ingest(container, name="z", workload_dir=tmp_path / "wl")
        assert result.stream.chunks == 5
        assert len(solves) == 5

        fresh = fit_from_distances(stack_distances(addrs))
        assert result.fit.alpha == fresh.alpha == result.params.alpha
        assert result.fit.beta == fresh.beta == result.params.beta
        assert result.fit.rmse == fresh.rmse
        assert result.fit.cold_fraction == fresh.cold_fraction
        assert result.fit.max_distance == fresh.max_distance

    def test_no_reuse_still_raises(self):
        fit = IncrementalFit()
        assert fit.update(stack_distances(np.arange(50))) is None
        with pytest.raises(ValueError, match="no reuse"):
            fit.result()

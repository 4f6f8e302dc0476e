"""A case's answer must not depend on the batch it is priced in.

``evaluate`` is the model's kernel on a batch of one;
``e_instr_seconds_batch`` runs the same kernel over many platforms at
once.  The service's coalescer and the figure calibration rely on
batch-composition independence: for randomized platforms (SMP / COW /
CLUMP, with and without L2, all networks, topology trees), randomized
workload parameters (alpha, beta, truncation, gamma, sharing, coherence
adjustment, burstiness) and both analytic modes, a case priced inside a
wide, mixed batch must equal the same case alone through ``evaluate``
with ``==`` on float64 — including ``inf`` on saturated candidates.
That holds too when the per-case knobs vary inside one batch (what
``ExperimentRunner.calibrate`` sends) and when a hierarchy memo is
shared across calls.  The zero-contention lower bound must never exceed
the true E(Instr) in any mode, a single machine's answer never moves
with the remote-rate adjustment, and a saturated platform is ``inf``
everywhere without any option.  ``tests/core/test_model_golden.py``
pins the answers themselves.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.amat import PAPER_REMOTE_RATE_ADJUSTMENT, AmatKernel, zero_contention_amat
from repro.core.batch import BatchCase, e_instr_lower_bounds, e_instr_seconds_batch
from repro.core.execution import MODES, evaluate
from repro.core.locality import StackDistanceModel
from repro.core.platform import PlatformSpec
from repro.scheduling import HeteroPlatform, evaluate_hetero, process_costs
from repro.sim.latencies import NetworkKind
from repro.topology.canned import clump_of_smps_spec, deepen_spec

KB = 1024
MB = 1024 * KB

_NETWORKS = [NetworkKind.ETHERNET_10, NetworkKind.ETHERNET_100, NetworkKind.ATM_155]


def _random_spec(rng: np.random.Generator, i: int) -> PlatformSpec:
    while True:
        n = int(rng.choice([1, 2, 4, 8]))
        N = int(rng.choice([1, 2, 4, 8, 16]))
        if n * N >= 2:
            break
    cache_kb = int(rng.choice([2, 64, 256, 512]))
    memory_mb = int(rng.choice([4, 32, 64, 128]))
    l2_bytes = None
    if rng.random() < 0.3:
        l2_kb = 4 * cache_kb
        if cache_kb < l2_kb < memory_mb * KB:
            l2_bytes = l2_kb * KB
    return PlatformSpec(
        name=f"rand-{i}",
        n=n,
        N=N,
        cache_bytes=cache_kb * KB,
        memory_bytes=memory_mb * MB,
        network=None if N == 1 else _NETWORKS[int(rng.integers(len(_NETWORKS)))],
        l2_bytes=l2_bytes,
    )


def _random_tree_spec(rng: np.random.Generator, i: int) -> PlatformSpec:
    """A two-level topology tree: a deepened flat cluster or a clump of SMPs."""
    cache_kb = int(rng.choice([2, 64, 256]))
    memory_mb = int(rng.choice([4, 32, 128]))
    intra = _NETWORKS[int(rng.integers(len(_NETWORKS)))]
    inter = _NETWORKS[int(rng.integers(len(_NETWORKS)))]
    if rng.random() < 0.5:
        N = int(rng.choice([4, 8, 16]))
        flat = PlatformSpec(
            name=f"flat-{i}",
            n=int(rng.choice([1, 2, 4])),
            N=N,
            cache_bytes=cache_kb * KB,
            memory_bytes=memory_mb * MB,
            network=inter,
        )
        rack = int(rng.choice([r for r in (2, 4, 8) if N % r == 0 and N // r >= 2]))
        return deepen_spec(flat, rack, intra_network=intra)
    return clump_of_smps_spec(
        name=f"tree-{i}",
        racks=int(rng.choice([2, 3])),
        machines_per_rack=int(rng.choice([2, 4])),
        procs_per_machine=int(rng.choice([1, 2, 4])),
        cache_bytes=cache_kb * KB,
        memory_bytes=memory_mb * MB,
        intra_network=intra,
        inter_network=inter,
    )


def _random_case(rng: np.random.Generator, spec: PlatformSpec) -> BatchCase:
    return BatchCase(
        spec,
        sharing_fraction=float(rng.choice([0.0, 0.1, 0.6])),
        sharing_fresh_fraction=float(rng.choice([0.0, 0.35, 1.0])),
        remote_rate_adjustment=float(rng.choice([0.0, 0.124, 0.5])),
    )


def _random_workload(rng: np.random.Generator) -> tuple[StackDistanceModel, float]:
    alpha = float(rng.uniform(1.15, 2.6))
    beta = float(rng.uniform(5.0, 5000.0))
    max_distance = float(rng.uniform(1e5, 1e8)) if rng.random() < 0.5 else None
    gamma = float(rng.uniform(0.05, 1.0))
    return StackDistanceModel(alpha=alpha, beta=beta, max_distance=max_distance), gamma


def _uniform_cases(rng: np.random.Generator, specs) -> list[BatchCase]:
    """One draw of the per-case knobs, shared by every spec."""
    knobs = _random_case(rng, specs[0])
    return [dataclasses.replace(knobs, spec=spec) for spec in specs]


def _random_kwargs(rng: np.random.Generator) -> dict:
    """Batch-wide knobs of ``e_instr_seconds_batch``."""
    return dict(
        barrier_scale=float(rng.choice([0.0, 1.0, 2.5])),
        cache_capacity_factor=float(rng.choice([0.5, 1.0])),
        contention_boost=float(rng.choice([1.0, 2.0])),
    )


def _alone(cases, locality, gamma, mode, **kwargs):
    """``evaluate`` per case, alone, with the case's own knobs."""
    return [
        evaluate(
            case.spec, locality, gamma, mode=mode,
            sharing_fraction=case.sharing_fraction,
            sharing_fresh_fraction=case.sharing_fresh_fraction,
            remote_rate_adjustment=case.remote_rate_adjustment,
            **kwargs,
        ).e_instr_seconds
        for case in cases
    ]


@pytest.mark.parametrize("mode", ["open", "throttled"])
@pytest.mark.parametrize("seed", range(8))
def test_batch_matches_scalar_bitwise(mode: str, seed: int) -> None:
    """Batch-composition independence: every case of a wide, mixed
    batch -- flat and topology-tree platforms, cases sharing one set of
    knobs beside cases whose sharing, fresh fraction and remote
    adjustment vary case by case (what ``calibrate`` sends) -- equals
    the same case alone through ``evaluate``."""
    rng = np.random.default_rng(1234 + seed)
    specs = [_random_spec(rng, i) for i in range(12)]
    specs += [_random_tree_spec(rng, i) for i in range(6)]
    locality, gamma = _random_workload(rng)
    kwargs = _random_kwargs(rng)
    cases = _uniform_cases(rng, specs) + [_random_case(rng, spec) for spec in specs]
    expected = _alone(cases, locality, gamma, mode, **kwargs)
    got = e_instr_seconds_batch(cases, locality, gamma, mode=mode, **kwargs)
    assert got.dtype == np.float64
    for j, (want, have) in enumerate(zip(expected, got)):
        assert want == have, (
            f"mismatch at candidate {j} ({cases[j]}): "
            f"alone={want!r} batched={have!r}"
        )


def test_shared_hierarchy_memo_matches_fresh_calls() -> None:
    """One memo across calls and cache factors answers exactly what
    memo-less calls answer, and folds each (platform, cache factor)
    key once."""
    rng = np.random.default_rng(55)
    specs = [_random_spec(rng, i) for i in range(8)]
    specs += [_random_tree_spec(rng, i) for i in range(4)]
    cases = [_random_case(rng, spec) for spec in specs + specs[:4]]
    locality, gamma = _random_workload(rng)
    memo: dict = {}
    for _ in range(2):
        for ccf in (0.5, 1.0):
            for mode in ("open", "throttled"):
                fresh = e_instr_seconds_batch(
                    cases, locality, gamma, mode=mode, cache_capacity_factor=ccf
                )
                shared = e_instr_seconds_batch(
                    cases, locality, gamma, mode=mode, cache_capacity_factor=ccf,
                    hierarchy_memo=memo,
                )
                assert np.array_equal(fresh, shared)
            fresh = e_instr_lower_bounds(
                cases, locality, gamma, cache_capacity_factor=ccf
            )
            shared = e_instr_lower_bounds(
                cases, locality, gamma, cache_capacity_factor=ccf, hierarchy_memo=memo
            )
            assert np.array_equal(fresh, shared)
    assert len(memo) == len(specs) * 2
    for (spec, ccf), hierarchy in memo.items():
        assert hierarchy == spec.hierarchy(cache_capacity_factor=ccf)


@pytest.mark.parametrize("mode", ["open", "throttled", "mva"])
def test_lower_bound_is_admissible(mode: str) -> None:
    rng = np.random.default_rng(99)
    for trial in range(6):
        specs = [_random_spec(rng, i) for i in range(10)]
        locality, gamma = _random_workload(rng)
        cases = _uniform_cases(rng, specs)
        kwargs = _random_kwargs(rng)
        boost = kwargs.pop("contention_boost")
        bounds = e_instr_lower_bounds(cases, locality, gamma, **kwargs)
        truth = _alone(
            cases, locality, gamma, mode, contention_boost=boost, **kwargs
        )
        for j, (lb, t) in enumerate(zip(bounds, truth)):
            assert math.isfinite(lb)
            assert lb <= t, (
                f"bound not admissible for candidate {j} in mode {mode}: "
                f"LB={lb!r} > E={t!r} ({specs[j].describe()})"
            )


def test_lower_bound_matches_scalar_reference() -> None:
    """Each batched bound is exactly ``zero_contention_amat`` alone,
    converted by Eq. 4."""
    rng = np.random.default_rng(7)
    specs = [_random_spec(rng, i) for i in range(10)]
    locality, gamma = _random_workload(rng)
    cases = _uniform_cases(rng, specs)
    kwargs = _random_kwargs(rng)
    kwargs.pop("contention_boost")
    ccf = kwargs.pop("cache_capacity_factor")
    bounds = e_instr_lower_bounds(
        cases, locality, gamma, cache_capacity_factor=ccf, **kwargs
    )
    for case, lb in zip(cases, bounds):
        spec = case.spec
        amat = zero_contention_amat(
            spec.hierarchy(cache_capacity_factor=ccf), locality, gamma,
            remote_rate_adjustment=case.remote_rate_adjustment,
            sharing_fraction=case.sharing_fraction,
            sharing_fresh_fraction=case.sharing_fresh_fraction,
            **kwargs,
        )
        want = ((1.0 + gamma * amat) / spec.total_processors) / spec.cpu_hz
        assert lb == want


def test_per_case_knobs_match_scalar() -> None:
    """BatchCase carries per-candidate sharing / coherence adjustments,
    and each case of the batch equals ``evaluate`` alone with its own."""
    rng = np.random.default_rng(21)
    locality, gamma = _random_workload(rng)
    cases = []
    for i in range(8):
        spec = _random_spec(rng, i)
        cases.append(
            BatchCase(
                spec,
                sharing_fraction=float(rng.choice([0.0, 0.25, 0.8])),
                sharing_fresh_fraction=float(rng.uniform(0.0, 1.0)),
                remote_rate_adjustment=0.124 if spec.N > 1 else 0.0,
            )
        )
    got = e_instr_seconds_batch(cases, locality, gamma, mode="throttled")
    for case, have in zip(cases, got):
        want = evaluate(
            case.spec,
            locality,
            gamma,
            mode="throttled",
            remote_rate_adjustment=case.remote_rate_adjustment,
            sharing_fraction=case.sharing_fraction,
            sharing_fresh_fraction=case.sharing_fresh_fraction,
        ).e_instr_seconds
        assert want == have


@settings(max_examples=60, deadline=None)
@given(
    n=st.sampled_from([2, 4, 8]),
    cache_kb=st.sampled_from([2, 64, 256, 512]),
    memory_mb=st.sampled_from([4, 32, 128]),
    l2=st.booleans(),
    alpha=st.floats(1.15, 2.6),
    beta=st.floats(5.0, 5000.0),
    max_distance=st.none() | st.floats(1e5, 1e8),
    gamma=st.floats(0.05, 1.0),
    sharing=st.sampled_from([0.0, 0.1, 0.6]),
    barrier_scale=st.sampled_from([0.0, 1.0, 2.5]),
    cache_capacity_factor=st.sampled_from([0.5, 1.0]),
    contention_boost=st.sampled_from([1.0, 2.0]),
)
def test_single_machine_ignores_the_remote_adjustment(
    n, cache_kb, memory_mb, l2, alpha, beta, max_distance, gamma, sharing,
    barrier_scale, cache_capacity_factor, contention_boost,
) -> None:
    """The adjustment scales only remote levels, which need an
    interconnect, so callers may pass it without an ``N > 1`` guard."""
    spec = PlatformSpec(
        "one-machine", n=n, N=1, cache_bytes=cache_kb * KB,
        memory_bytes=memory_mb * MB,
        l2_bytes=4 * cache_kb * KB if l2 and 4 * cache_kb < memory_mb * KB else None,
    )
    locality = StackDistanceModel(alpha=alpha, beta=beta, max_distance=max_distance)
    knobs = dict(
        barrier_scale=barrier_scale,
        cache_capacity_factor=cache_capacity_factor,
        contention_boost=contention_boost,
    )
    for mode in MODES:
        answers = []
        for adjustment in (0.0, PAPER_REMOTE_RATE_ADJUSTMENT):
            answers.append(
                evaluate(
                    spec, locality, gamma, mode=mode, sharing_fraction=sharing,
                    remote_rate_adjustment=adjustment, **knobs,
                ).e_instr_seconds
            )
            case = BatchCase(
                spec, sharing_fraction=sharing, remote_rate_adjustment=adjustment
            )
            answers.append(
                e_instr_seconds_batch([case], locality, gamma, mode=mode, **knobs)[0]
            )
        assert answers == [answers[0]] * 4, (mode, answers)


def test_mva_mode_is_exact_on_smps_and_throttled_on_clusters() -> None:
    """``mode="mva"`` prices a single SMP with ``mva_smp_amat`` and a
    cluster with the throttled kernel, in a batch as alone."""
    from repro.core.mva import mva_smp_amat

    loc = StackDistanceModel(alpha=1.6, beta=800.0)
    smp = PlatformSpec("mva-smp", n=4, N=1, cache_bytes=256 * KB, memory_bytes=64 * MB)
    cow = PlatformSpec(
        "mva-cow", n=1, N=4, cache_bytes=256 * KB, memory_bytes=64 * MB,
        network=NetworkKind.ATM_155,
    )
    got = e_instr_seconds_batch(
        [BatchCase(smp), BatchCase(cow)], loc, 0.3, mode="mva"
    )
    exact = mva_smp_amat(smp.hierarchy(), loc, 0.3)
    assert got[0] == ((1.0 + 0.3 * exact) / smp.total_processors) / smp.cpu_hz
    assert got[1] == evaluate(cow, loc, 0.3, mode="throttled").e_instr_seconds
    for spec, have in zip([smp, cow], got):
        assert evaluate(spec, loc, 0.3, mode="mva").e_instr_seconds == have


def test_saturation_is_inf_in_every_lane() -> None:
    """A saturating open-model platform is ``inf`` and infeasible through
    ``evaluate``, the batch entry point and the scheduling layer, with no
    option passed."""
    loc = StackDistanceModel(alpha=1.2, beta=5000.0)
    hot = PlatformSpec(
        "hot", n=1, N=16, cache_bytes=2 * KB, memory_bytes=4 * MB,
        network=NetworkKind.ETHERNET_10,
    )
    scalar = evaluate(hot, loc, 0.9, mode="open")
    assert not scalar.feasible
    assert scalar.e_instr_seconds == math.inf
    batch = e_instr_seconds_batch([BatchCase(hot)], loc, 0.9, mode="open")
    assert batch.tolist() == [math.inf]
    hetero = evaluate_hetero(process_costs(HeteroPlatform.from_spec(hot), loc, 0.9))
    assert not hetero.feasible
    assert hetero.e_instr_seconds == math.inf


def test_empty_batch_and_validation() -> None:
    loc = StackDistanceModel(alpha=1.6, beta=800.0)
    assert e_instr_seconds_batch([], loc, 0.3).size == 0
    assert e_instr_lower_bounds([], loc, 0.3).size == 0
    smp = BatchCase(
        PlatformSpec("v", n=2, N=1, cache_bytes=256 * KB, memory_bytes=64 * MB)
    )
    with pytest.raises(ValueError, match="gamma"):
        e_instr_seconds_batch([smp], loc, 0.0)
    with pytest.raises(ValueError, match="mode"):
        e_instr_seconds_batch([smp], loc, 0.3, mode="bogus")
    with pytest.raises(ValueError, match="sharing_fraction"):
        e_instr_seconds_batch(
            [dataclasses.replace(smp, sharing_fraction=1.5)], loc, 0.3
        )
    with pytest.raises(ValueError, match="contention_boost"):
        e_instr_seconds_batch([smp], loc, 0.3, contention_boost=0.5)


def test_mixed_locality_goes_through_the_kernel() -> None:
    """Workload mixtures take the one kernel, like a power law.

    ``MixedLocality`` only promises ``tail``/``cdf``/``rescaled``, which
    is all the kernel reads: a batch equals the kernel over the folded
    platforms and each case alone through ``evaluate``, and the bound
    is exactly ``zero_contention_amat`` and admissible.
    """
    from repro.workloads.mix import mix_workloads
    from repro.workloads.params import PAPER_FFT, PAPER_RADIX

    mixed = mix_workloads([PAPER_FFT, PAPER_RADIX], [0.7, 0.3], name="blend")
    rng = np.random.default_rng(17)
    specs = [_random_spec(rng, i) for i in range(8)]
    cases = [BatchCase(spec) for spec in specs]
    for mode in ("open", "throttled"):
        got = e_instr_seconds_batch(cases, mixed.locality, mixed.gamma, mode=mode)
        want = _alone(cases, mixed.locality, mixed.gamma, mode)
        assert list(got) == want
        amat = AmatKernel(
            [spec.hierarchy() for spec in specs], mixed.locality, mixed.gamma
        ).solve(mode).total
        for spec, have, t in zip(specs, got, amat):
            assert have == ((1.0 + mixed.gamma * t) / spec.total_processors) / spec.cpu_hz
    bounds = e_instr_lower_bounds(cases, mixed.locality, mixed.gamma)
    truth = _alone(cases, mixed.locality, mixed.gamma, "throttled")
    for spec, lb, t in zip(specs, bounds, truth):
        assert math.isfinite(lb) and lb <= t
        amat = zero_contention_amat(spec.hierarchy(), mixed.locality, mixed.gamma)
        assert lb == ((1.0 + mixed.gamma * amat) / spec.total_processors) / spec.cpu_hz


def test_optimizer_accepts_workload_mixture() -> None:
    """The pareto search answers mixture queries identically to exhaustive."""
    from repro.cost import DesignSearch, optimize_cluster
    from repro.workloads.mix import mix_workloads
    from repro.workloads.params import PAPER_EDGE, PAPER_LU

    mixed = mix_workloads([PAPER_LU, PAPER_EDGE], [0.5, 0.5], name="lu-edge")
    exhaustive = optimize_cluster(mixed, budget=12_000.0)
    outcome = DesignSearch(method="pareto").search(mixed, budget=12_000.0)
    assert outcome.best.spec == exhaustive.best.spec
    assert outcome.best.e_instr_seconds == exhaustive.best.e_instr_seconds

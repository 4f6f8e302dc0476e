"""Golden answers of the analytical model on fixed inputs.

Each digest below hashes the ``float.hex`` of every number a model entry
point lets a caller observe on one case: E(Instr) seconds for the
randomized batches of ``tests/cost/test_batch_eval.py`` (seeds 0-7, both
analytic modes, per-case knobs varying inside the batch) and their
zero-contention bounds; the full :class:`~repro.core.amat.AmatBreakdown`
(total, base, barrier and every :class:`~repro.core.amat.LevelContribution`
field) on an SMP, an SMP with L2, a bus COW, a switched COW, a CLUMP, a
two-level tree and a saturating cluster, under default and non-default
knobs; ``mode="mva"`` on an SMP and on clusters; a workload mixture; and
the scheduling layer's per-machine costs.

The digests were recorded from the per-case scalar transcription of the
model that the vectorized kernel replaced (since deleted).  Every entry
point must reproduce them exactly, and a case priced inside a wide,
mixed batch must give the same digest as the case priced alone.
Regenerate them only for an intended change of model semantics, and
record that change.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro.core.amat import average_memory_access_time, zero_contention_amat
from repro.core.batch import BatchCase, e_instr_lower_bounds, e_instr_seconds_batch
from repro.core.execution import evaluate
from repro.core.locality import StackDistanceModel
from repro.core.platform import PlatformSpec
from repro.scheduling import HeteroPlatform, process_costs
from repro.scheduling.platform import builtin_hetero_platform
from repro.sim.latencies import NetworkKind
from repro.topology.canned import clump_of_smps_spec
from repro.workloads.mix import MixedLocality
from tests.cost.test_batch_eval import (
    _random_case,
    _random_kwargs,
    _random_spec,
    _random_tree_spec,
    _random_workload,
    _uniform_cases,
)

KB = 1024
MB = 1024 * KB

#: The named platforms of the breakdown cases.
PLATFORMS = {
    "smp": PlatformSpec("g-smp", n=4, N=1, cache_bytes=64 * KB, memory_bytes=32 * MB),
    "smp-l2": PlatformSpec(
        "g-smp-l2", n=4, N=1, cache_bytes=64 * KB, memory_bytes=64 * MB,
        l2_bytes=1 * MB,
    ),
    "cow-bus": PlatformSpec(
        "g-cow-bus", n=1, N=8, cache_bytes=64 * KB, memory_bytes=32 * MB,
        network=NetworkKind.ETHERNET_100,
    ),
    "cow-switch": PlatformSpec(
        "g-cow-switch", n=1, N=8, cache_bytes=64 * KB, memory_bytes=32 * MB,
        network=NetworkKind.ATM_155,
    ),
    "clump": PlatformSpec(
        "g-clump", n=4, N=4, cache_bytes=256 * KB, memory_bytes=64 * MB,
        network=NetworkKind.ATM_155,
    ),
    "tree": clump_of_smps_spec(
        name="g-tree", racks=2, machines_per_rack=4, procs_per_machine=2,
        cache_bytes=64 * KB, memory_bytes=32 * MB,
        intra_network=NetworkKind.ATM_155, inter_network=NetworkKind.ETHERNET_100,
    ),
    "saturating": PlatformSpec(
        "g-hot", n=1, N=16, cache_bytes=2 * KB, memory_bytes=4 * MB,
        network=NetworkKind.ETHERNET_10,
    ),
}

#: The locality of the breakdown cases: a truncated power law light
#: enough for the open model to stay finite, plus a heavy one that
#: saturates it on the slow cluster.
LOCALITY = StackDistanceModel(alpha=2.0, beta=10.0, max_distance=2e5)
HEAVY = StackDistanceModel(alpha=1.2, beta=5000.0)
GAMMA = 0.35

#: Knob sets of the breakdown cases: all defaults, and every knob moved.
KNOBS = {
    "default": dict(
        remote_rate_adjustment=0.0, sharing_fraction=0.0,
        sharing_fresh_fraction=1.0, barrier_scale=1.0,
        contention_boost=1.0, cache_capacity_factor=1.0,
    ),
    "knobs": dict(
        remote_rate_adjustment=0.124, sharing_fraction=1e-4,
        sharing_fresh_fraction=0.35, barrier_scale=2.5,
        contention_boost=1.5, cache_capacity_factor=0.5,
    ),
}

#: A workload mixture: reference-weighted blend of two power laws.
MIXTURE = MixedLocality(
    members=(LOCALITY, StackDistanceModel(alpha=2.5, beta=5.0)), weights=(0.6, 0.4)
)


def _hex(x) -> str:
    return float(x).hex()


def _digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _breakdown(amat) -> dict:
    """Every observable field of an :class:`AmatBreakdown`."""
    return {
        "total": _hex(amat.total_cycles),
        "base": _hex(amat.base_cycles),
        "barrier": _hex(amat.barrier_cycles),
        "processes": amat.total_processes,
        "gamma": _hex(amat.gamma),
        "levels": [
            [
                lv.name, lv.kind.value, _hex(lv.boundary_items),
                _hex(lv.tail_probability), _hex(lv.request_rate),
                _hex(lv.tau_cycles), lv.population, _hex(lv.utilization),
                _hex(lv.response_cycles), _hex(lv.contribution_cycles),
            ]
            for lv in amat.levels
        ],
    }


def _estimate(est) -> dict:
    return {
        "amat": _breakdown(est.amat),
        "cycles": _hex(est.e_instr_cycles),
        "seconds": _hex(est.e_instr_seconds),
    }


def _seconds(spec: PlatformSpec, gamma: float, amat_cycles: float) -> float:
    """E(Instr) seconds from a T, as the batch entry points convert it."""
    return ((1.0 + gamma * amat_cycles) / spec.total_processors) / spec.cpu_hz


# ----------------------------------------------------------------------
# The randomized batches of test_batch_eval
def seeded_batch(seed: int):
    """The cases, locality, gamma and knobs ``test_batch_eval`` builds."""
    rng = np.random.default_rng(1234 + seed)
    specs = [_random_spec(rng, i) for i in range(12)]
    specs += [_random_tree_spec(rng, i) for i in range(6)]
    locality, gamma = _random_workload(rng)
    kwargs = _random_kwargs(rng)
    cases = _uniform_cases(rng, specs) + [_random_case(rng, spec) for spec in specs]
    return cases, locality, gamma, kwargs


def _case_knobs(case: BatchCase) -> dict:
    return dict(
        remote_rate_adjustment=case.remote_rate_adjustment,
        sharing_fraction=case.sharing_fraction,
        sharing_fresh_fraction=case.sharing_fresh_fraction,
    )


def seeded_seconds_alone(seed: int, mode: str) -> list[str]:
    cases, locality, gamma, kwargs = seeded_batch(seed)
    return [
        _hex(evaluate(
            case.spec, locality, gamma, mode=mode, **_case_knobs(case), **kwargs
        ).e_instr_seconds)
        for case in cases
    ]


def seeded_seconds_batched(seed: int, mode: str) -> list[str]:
    cases, locality, gamma, kwargs = seeded_batch(seed)
    return [
        _hex(s)
        for s in e_instr_seconds_batch(cases, locality, gamma, mode=mode, **kwargs)
    ]


def _bound_knobs(kwargs: dict) -> dict:
    return dict(barrier_scale=kwargs["barrier_scale"])


def seeded_bounds_alone(seed: int) -> list[str]:
    cases, locality, gamma, kwargs = seeded_batch(seed)
    ccf = kwargs["cache_capacity_factor"]
    return [
        _hex(_seconds(case.spec, gamma, zero_contention_amat(
            case.spec.hierarchy(cache_capacity_factor=ccf), locality, gamma,
            **_case_knobs(case), **_bound_knobs(kwargs),
        )))
        for case in cases
    ]


def seeded_bounds_batched(seed: int) -> list[str]:
    cases, locality, gamma, kwargs = seeded_batch(seed)
    return [
        _hex(s)
        for s in e_instr_lower_bounds(
            cases, locality, gamma,
            cache_capacity_factor=kwargs["cache_capacity_factor"],
            **_bound_knobs(kwargs),
        )
    ]


# ----------------------------------------------------------------------
# Named platforms
def _split(knobs: dict):
    k = dict(knobs)
    ccf = k.pop("cache_capacity_factor")
    return ccf, k


def breakdown_payload(platform: str, knobs: str, mode: str) -> dict:
    spec = PLATFORMS[platform]
    locality = HEAVY if platform == "saturating" else LOCALITY
    ccf, k = _split(KNOBS[knobs])
    return _breakdown(average_memory_access_time(
        spec.hierarchy(cache_capacity_factor=ccf), locality, GAMMA, mode=mode, **k
    ))


def bound_payload(platform: str, knobs: str) -> str:
    spec = PLATFORMS[platform]
    locality = HEAVY if platform == "saturating" else LOCALITY
    ccf, k = _split(KNOBS[knobs])
    k.pop("contention_boost")
    return _hex(zero_contention_amat(
        spec.hierarchy(cache_capacity_factor=ccf), locality, GAMMA, **k
    ))


def mva_payload(platform: str, knobs: str) -> dict:
    spec = PLATFORMS[platform]
    return _estimate(evaluate(spec, LOCALITY, GAMMA, mode="mva", **KNOBS[knobs]))


def mixture_payload(platform: str, mode: str) -> dict:
    spec = PLATFORMS[platform]
    knobs = dict(remote_rate_adjustment=0.124, sharing_fraction=1e-4)
    return {
        "estimate": _estimate(evaluate(spec, MIXTURE, GAMMA, mode=mode, **knobs)),
        "bound": _hex(zero_contention_amat(spec.hierarchy(), MIXTURE, GAMMA, **knobs)),
    }


def process_costs_payload(platform: str) -> list[str]:
    if platform in PLATFORMS:
        hetero = HeteroPlatform.from_spec(PLATFORMS[platform])
    else:
        hetero = builtin_hetero_platform(platform)
    costs = process_costs(
        hetero, LOCALITY, GAMMA, remote_rate_adjustment=0.124,
        sharing_fraction=1e-4, sharing_fresh_fraction=0.5,
    )
    return [_hex(t) for t in costs.amat_cycles]


SEEDS = range(8)
MODES = ("open", "throttled")
BREAKDOWN_CASES = [
    (platform, knobs, mode)
    for platform in PLATFORMS
    for knobs in KNOBS
    for mode in MODES
]
BOUND_CASES = [(platform, knobs) for platform in PLATFORMS for knobs in KNOBS]
MVA_CASES = [
    (platform, knobs)
    for platform in ("smp", "smp-l2", "cow-switch", "clump")
    for knobs in KNOBS
]
MIXTURE_CASES = [
    (platform, mode) for platform in ("smp", "cow-bus", "clump", "tree") for mode in MODES
]
COSTS_CASES = ["clump", "tree", "mixed-cow", "mixed-clump"]


def record() -> dict:
    """Every digest of this module, computed on the tree under test."""
    golden = {}
    for seed in SEEDS:
        for mode in MODES:
            golden["seconds", seed, mode] = _digest(seeded_seconds_alone(seed, mode))
        golden["bounds", seed] = _digest(seeded_bounds_alone(seed))
    for case in BREAKDOWN_CASES:
        golden[("breakdown",) + case] = _digest(breakdown_payload(*case))
    for case in BOUND_CASES:
        golden[("bound",) + case] = _digest(bound_payload(*case))
    for case in MVA_CASES:
        golden[("mva",) + case] = _digest(mva_payload(*case))
    for case in MIXTURE_CASES:
        golden[("mixture",) + case] = _digest(mixture_payload(*case))
    for platform in COSTS_CASES:
        golden["costs", platform] = _digest(process_costs_payload(platform))
    return golden


#: Case key -> digest of the recorded answer.
GOLDEN: dict[tuple, str] = {
    ('seconds', 0, 'open'): 'a8bf87828627e2f8',
    ('seconds', 0, 'throttled'): '12824f7d8b05beee',
    ('bounds', 0): '0d5f9da7eb222adf',
    ('seconds', 1, 'open'): '0dc928059ecc680a',
    ('seconds', 1, 'throttled'): '047888c730cc07a8',
    ('bounds', 1): 'b1147d0e1692881b',
    ('seconds', 2, 'open'): 'e068ba80f38027f9',
    ('seconds', 2, 'throttled'): '0b4f79944e069114',
    ('bounds', 2): '95769ab0d17f5b79',
    ('seconds', 3, 'open'): '0db4b8739faa24e1',
    ('seconds', 3, 'throttled'): 'cd2539942ffdcf55',
    ('bounds', 3): '6df832b0b002f6c2',
    ('seconds', 4, 'open'): 'a8bf87828627e2f8',
    ('seconds', 4, 'throttled'): '9aee2e343b43bbb6',
    ('bounds', 4): 'ef7d5a5c3d2f9c6c',
    ('seconds', 5, 'open'): '49dbd07933a3117e',
    ('seconds', 5, 'throttled'): '1b44e5504799f472',
    ('bounds', 5): '6197f8194d0ae4b4',
    ('seconds', 6, 'open'): 'ac911e1d94f9d82a',
    ('seconds', 6, 'throttled'): 'fbde2eeda836352d',
    ('bounds', 6): '91339681a646328d',
    ('seconds', 7, 'open'): 'a8bf87828627e2f8',
    ('seconds', 7, 'throttled'): 'fa9dac46aa7b22d8',
    ('bounds', 7): '28b042f184493968',
    ('breakdown', 'smp', 'default', 'open'): 'be0d90d37ff415e3',
    ('breakdown', 'smp', 'default', 'throttled'): 'eb8bf3cbea947684',
    ('breakdown', 'smp', 'knobs', 'open'): '35f9b4ca55a89a0b',
    ('breakdown', 'smp', 'knobs', 'throttled'): 'fc3623ccbf89fb6c',
    ('breakdown', 'smp-l2', 'default', 'open'): '58d1f66e4ac45f01',
    ('breakdown', 'smp-l2', 'default', 'throttled'): 'dc9909bddbd3a634',
    ('breakdown', 'smp-l2', 'knobs', 'open'): '1327312898cb6440',
    ('breakdown', 'smp-l2', 'knobs', 'throttled'): 'e7af308072e7678c',
    ('breakdown', 'cow-bus', 'default', 'open'): 'f02291bfbbe9d25e',
    ('breakdown', 'cow-bus', 'default', 'throttled'): '4d160854b3ba9538',
    ('breakdown', 'cow-bus', 'knobs', 'open'): 'ae68de8a81a532e1',
    ('breakdown', 'cow-bus', 'knobs', 'throttled'): 'cfcc44328080c289',
    ('breakdown', 'cow-switch', 'default', 'open'): 'a53b01d110a6eac7',
    ('breakdown', 'cow-switch', 'default', 'throttled'): '81ebad1e16d9bbca',
    ('breakdown', 'cow-switch', 'knobs', 'open'): '47f92ff18fdf2f14',
    ('breakdown', 'cow-switch', 'knobs', 'throttled'): '09306487acec7caf',
    ('breakdown', 'clump', 'default', 'open'): '2a61bbc91a876531',
    ('breakdown', 'clump', 'default', 'throttled'): '9df8588237f30f29',
    ('breakdown', 'clump', 'knobs', 'open'): 'dd3ca145ae57c035',
    ('breakdown', 'clump', 'knobs', 'throttled'): 'a25b24d12e41307e',
    ('breakdown', 'tree', 'default', 'open'): '3c5859da86018669',
    ('breakdown', 'tree', 'default', 'throttled'): 'aa9795e9099984b2',
    ('breakdown', 'tree', 'knobs', 'open'): 'e0361ce40613e427',
    ('breakdown', 'tree', 'knobs', 'throttled'): '4b5db6c9ad702d21',
    ('breakdown', 'saturating', 'default', 'open'): 'd9a2b8a2e8a4a0c2',
    ('breakdown', 'saturating', 'default', 'throttled'): '4a26e75ce1150ae5',
    ('breakdown', 'saturating', 'knobs', 'open'): '2eb3b3e5f20a160b',
    ('breakdown', 'saturating', 'knobs', 'throttled'): '8c1aa121cb621886',
    ('bound', 'smp', 'default'): 'ab4c87b0ede48e6d',
    ('bound', 'smp', 'knobs'): '14df8db18d246d5c',
    ('bound', 'smp-l2', 'default'): 'c626f3872751f542',
    ('bound', 'smp-l2', 'knobs'): '47df7d89d4c77b00',
    ('bound', 'cow-bus', 'default'): '515ae90aa03a5ff3',
    ('bound', 'cow-bus', 'knobs'): 'f48e3cbd42f03d67',
    ('bound', 'cow-switch', 'default'): '515ae90aa03a5ff3',
    ('bound', 'cow-switch', 'knobs'): '1d8225ffeaf16295',
    ('bound', 'clump', 'default'): '053f8b682cb4cc3f',
    ('bound', 'clump', 'knobs'): 'ff615e11e720f6e1',
    ('bound', 'tree', 'default'): '93f31cac0d90d4f3',
    ('bound', 'tree', 'knobs'): '9c92ad6f1a090ed0',
    ('bound', 'saturating', 'default'): '3ec1015be1afb78a',
    ('bound', 'saturating', 'knobs'): 'a974c78f65cf8841',
    ('mva', 'smp', 'default'): '0158734247e3fe6e',
    ('mva', 'smp', 'knobs'): '180cfa8501cc55c2',
    ('mva', 'smp-l2', 'default'): '36c84763353a0efa',
    ('mva', 'smp-l2', 'knobs'): '4691a87a29dfbea0',
    ('mva', 'cow-switch', 'default'): 'f621f4fe4af078d3',
    ('mva', 'cow-switch', 'knobs'): 'ba774811c6008e5f',
    ('mva', 'clump', 'default'): 'a037e6e190936205',
    ('mva', 'clump', 'knobs'): 'c922ff7d78c4201a',
    ('mixture', 'smp', 'open'): '3659de99dd9bd520',
    ('mixture', 'smp', 'throttled'): 'dde4be946aadb934',
    ('mixture', 'cow-bus', 'open'): '63449f964d1f7867',
    ('mixture', 'cow-bus', 'throttled'): 'd39078408b51fc1f',
    ('mixture', 'clump', 'open'): '8166750522e123ca',
    ('mixture', 'clump', 'throttled'): '30603b2d59a727c8',
    ('mixture', 'tree', 'open'): 'd15534777c11f3c0',
    ('mixture', 'tree', 'throttled'): '4c46a874f4463528',
    ('costs', 'clump'): '08a5c7d5daea9ac8',
    ('costs', 'tree'): '59746c72ad53ff87',
    ('costs', 'mixed-cow'): '5adb202e26a54fbf',
    ('costs', 'mixed-clump'): '8fa95f6336d06c72',
}


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("seed", SEEDS)
def test_seconds_alone_and_batched(seed, mode):
    """Each case through ``evaluate`` alone, and the whole mixed batch in
    one ``e_instr_seconds_batch`` call, give the recorded answers."""
    want = GOLDEN["seconds", seed, mode]
    assert _digest(seeded_seconds_alone(seed, mode)) == want
    assert _digest(seeded_seconds_batched(seed, mode)) == want


@pytest.mark.parametrize("seed", SEEDS)
def test_bounds_alone_and_batched(seed):
    want = GOLDEN["bounds", seed]
    assert _digest(seeded_bounds_alone(seed)) == want
    assert _digest(seeded_bounds_batched(seed)) == want


@pytest.mark.parametrize("case", BREAKDOWN_CASES, ids="-".join)
def test_breakdown(case):
    assert _digest(breakdown_payload(*case)) == GOLDEN[("breakdown",) + case]


@pytest.mark.parametrize("case", BOUND_CASES, ids="-".join)
def test_zero_contention_bound(case):
    assert _digest(bound_payload(*case)) == GOLDEN[("bound",) + case]


@pytest.mark.parametrize("case", MVA_CASES, ids="-".join)
def test_mva_mode(case):
    assert _digest(mva_payload(*case)) == GOLDEN[("mva",) + case]


@pytest.mark.parametrize("case", MIXTURE_CASES, ids="-".join)
def test_workload_mixture(case):
    assert _digest(mixture_payload(*case)) == GOLDEN[("mixture",) + case]


@pytest.mark.parametrize("platform", COSTS_CASES)
def test_process_costs(platform):
    assert _digest(process_costs_payload(platform)) == GOLDEN["costs", platform]


if __name__ == "__main__":  # pragma: no cover - regeneration helper
    for key, value in record().items():
        print(f"    {key!r}: {value!r},")

"""The model over candidate platforms: E(Instr) and its lower bound per case.

The design-space optimizer (:mod:`repro.cost.search`), the service's
predict waves and the figure calibration evaluate one workload against
many platforms.  This module folds each platform into its
:class:`~repro.core.hierarchy.MemoryHierarchy`, prices the whole batch
in one call of the model's kernel, :class:`repro.core.amat.AmatKernel`,
and converts T into seconds per instruction with the paper's Eq. 4.
:func:`repro.core.execution.evaluate` is the same kernel on a batch of
one, and the kernel's lanes are independent, so a case priced inside a
wide, mixed batch gets exactly the float it gets alone
(``tests/cost/test_batch_eval.py``; ``tests/core/test_model_golden.py``
pins the answers).  A saturated candidate comes back ``inf``.
``mode="mva"`` prices single SMPs with the exact closed-network
recursion (:func:`repro.core.mva.mva_smp_amat`) and clusters with the
throttled fixed point, as :func:`~repro.core.execution.evaluate` does.

The module also exposes :func:`e_instr_lower_bounds`: a closed-form
**admissible lower bound** on E(Instr) per candidate (zero-contention
relaxation — every M/D/1 response is at least its service time, and the
exact-MVA response ``R_i = s_i (1 + Q_i)`` is at least ``s_i``), the
quantity branch-and-bound pruning needs.  See ``docs/COST.md`` for the
admissibility argument.

Folding a platform into its :class:`~repro.core.hierarchy.MemoryHierarchy`
is per-case Python work that repeats whenever a caller evaluates the
same platform again.  Both entry points therefore take an optional
``hierarchy_memo``: a caller-owned dict of folds keyed on ``(spec,
cache_capacity_factor)``.  A fold is a pure function of that key, so
reusing one changes no answer.  Without a memo, a call still folds each
distinct platform once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, Sequence

import numpy as np

from repro.core.amat import AmatKernel
from repro.core.execution import MODES
from repro.core.hierarchy import MemoryHierarchy, PlatformKind
from repro.core.locality import StackDistanceModel
from repro.core.mva import mva_smp_amat
from repro.core.platform import PlatformSpec

__all__ = ["BatchCase", "e_instr_seconds_batch", "e_instr_lower_bounds"]


@dataclass(frozen=True)
class BatchCase:
    """One candidate of a batch: a platform plus its per-candidate knobs.

    The optimizer's per-candidate inputs (measured sharing depends on the
    machine count, the paper's remote-rate adjustment applies to clusters
    only) ride here; batch-constant knobs (mode, barrier scale, ...) are
    arguments of :func:`e_instr_seconds_batch`.
    """

    spec: PlatformSpec
    sharing_fraction: float = 0.0
    sharing_fresh_fraction: float = 1.0
    remote_rate_adjustment: float = 0.0


def _folds(
    cases: Sequence[BatchCase], cache_capacity_factor: float, memo: dict | None
) -> list[MemoryHierarchy]:
    """Every case's ``spec.hierarchy(...)``, each key folded at most once per ``memo``."""
    memo = {} if memo is None else memo
    hierarchies = []
    for case in cases:
        key = (case.spec, cache_capacity_factor)
        hierarchy = memo.get(key)
        if hierarchy is None:
            hierarchy = memo[key] = case.spec.hierarchy(
                cache_capacity_factor=cache_capacity_factor
            )
        hierarchies.append(hierarchy)
    return hierarchies


def _kernel(
    cases: Sequence[BatchCase],
    hierarchies: Sequence[MemoryHierarchy],
    locality: StackDistanceModel,
    gamma: float,
    barrier_scale: float,
    contention_boost: float = 1.0,
) -> AmatKernel:
    """The kernel over folded platforms, with each case's own knobs."""
    return AmatKernel(
        hierarchies,
        locality,
        gamma,
        remote_rate_adjustment=np.array([c.remote_rate_adjustment for c in cases]),
        sharing_fraction=np.array([c.sharing_fraction for c in cases]),
        sharing_fresh_fraction=np.array([c.sharing_fresh_fraction for c in cases]),
        barrier_scale=barrier_scale,
        contention_boost=contention_boost,
    )


def _seconds(cases: Sequence[BatchCase], gamma: float, amat: np.ndarray) -> np.ndarray:
    """Eq. 4 per case, ``((1 + gamma T) / (n N)) / clock``; ``inf`` stays ``inf``."""
    procs = np.array([case.spec.total_processors for case in cases], dtype=np.float64)
    hz = np.array([case.spec.cpu_hz for case in cases], dtype=np.float64)
    return ((1.0 + gamma * amat) / procs) / hz


def e_instr_seconds_batch(
    cases: Sequence[BatchCase],
    locality: StackDistanceModel,
    gamma: float,
    *,
    mode: Literal["open", "throttled", "mva"] = "open",
    barrier_scale: float = 1.0,
    cache_capacity_factor: float = 1.0,
    contention_boost: float = 1.0,
    hierarchy_memo: dict | None = None,
) -> np.ndarray:
    """E(Instr) in seconds for every candidate, each exactly its ``evaluate``.

    Each :class:`BatchCase` brings its platform and its per-candidate
    knobs; the keyword arguments hold for the whole batch.  A saturated
    candidate comes back ``inf``.  ``hierarchy_memo`` is a caller-owned
    dict of hierarchy folds to read and fill (see the module docstring).
    """
    if not cases:
        return np.empty(0, dtype=np.float64)
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    hierarchies = _folds(cases, cache_capacity_factor, hierarchy_memo)
    kernel = _kernel(cases, hierarchies, locality, gamma, barrier_scale, contention_boost)
    amat = kernel.solve("throttled" if mode == "mva" else mode).total
    if mode == "mva":
        # As in evaluate(): the exact closed network on single SMPs.
        for k, case in enumerate(cases):
            if case.spec.kind is PlatformKind.SMP:
                amat[k] = mva_smp_amat(
                    hierarchies[k], locality, gamma, barrier_scale=barrier_scale
                )
    return _seconds(cases, gamma, amat)


def e_instr_lower_bounds(
    cases: Sequence[BatchCase],
    locality: StackDistanceModel,
    gamma: float,
    *,
    barrier_scale: float = 1.0,
    cache_capacity_factor: float = 1.0,
    hierarchy_memo: dict | None = None,
) -> np.ndarray:
    """Admissible lower bound on E(Instr) seconds per candidate.

    Zero-contention relaxation of the model: every M/D/1 response time is
    at least its uncontended service time (``t = tau + W``, ``W >= 0``),
    the throttled fixed point only scales *rates* (responses still
    ``>= tau``), and the exact-MVA response ``R_i = s_i (1 + Q_i)`` is at
    least ``s_i`` — so for every evaluation mode the true E(Instr) is
    ``>=`` this closed form.  No queueing, no bisection: O(levels) per
    candidate, which is what makes branch-and-bound pruning profitable.
    Each value is exactly :func:`repro.core.amat.zero_contention_amat`
    converted by Eq. 4.  ``hierarchy_memo`` is as for
    :func:`e_instr_seconds_batch`.
    """
    if not cases:
        return np.empty(0, dtype=np.float64)
    hierarchies = _folds(cases, cache_capacity_factor, hierarchy_memo)
    kernel = _kernel(cases, hierarchies, locality, gamma, barrier_scale)
    return _seconds(cases, gamma, kernel.bound)

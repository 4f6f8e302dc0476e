"""The model over candidate platforms: E(Instr) and its lower bound per case.

The design-space optimizer (:mod:`repro.cost.search`), the service's
predict waves and the figure calibration evaluate one workload against
many platforms.  Every one of them names the model's global knobs with
:class:`ModelOptions`: :meth:`ModelOptions.case` builds each platform's
:class:`BatchCase`, and :attr:`ModelOptions.batch_knobs` holds the
keyword arguments shared by the whole batch.  This module folds each
platform into its
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

from repro.core.amat import PAPER_REMOTE_RATE_ADJUSTMENT, AmatKernel
from repro.core.execution import MODES
from repro.core.hierarchy import MemoryHierarchy, PlatformKind
from repro.core.locality import StackDistanceModel
from repro.core.mva import mva_smp_amat
from repro.core.platform import PlatformSpec

__all__ = ["BatchCase", "ModelOptions", "e_instr_seconds_batch", "e_instr_lower_bounds"]


@dataclass(frozen=True)
class BatchCase:
    """One candidate of a batch: a platform plus its per-candidate knobs.

    The per-candidate inputs (measured sharing depends on the machine
    count, the paper's remote-rate adjustment applies to clusters only)
    ride here, built by :meth:`ModelOptions.case`; batch-constant knobs
    (mode, barrier scale, ...) are arguments of
    :func:`e_instr_seconds_batch`.
    """

    spec: PlatformSpec
    sharing_fraction: float = 0.0
    sharing_fresh_fraction: float = 1.0
    remote_rate_adjustment: float = 0.0


@dataclass(frozen=True)
class ModelOptions:
    """The model's global knobs, one value for every case of a batch.

    The figure calibration (:meth:`repro.experiments.runner.ExperimentRunner.calibrate`
    returns one), the design engine, the CLI and the service all pass
    their knobs as this type.  The defaults are the design engine's:
    the throttled fixed point, the paper's 12.4% remote-rate adjustment,
    no capacity derating and the sharing term on.

    ``use_sharing=False`` is the paper's pure capacity model: every case
    gets sharing 0 and fresh fraction 1, whatever pair it was built
    from.  ``false_sharing`` is read only by the experiment runner,
    which measures each cell's (sharing, fresh) pair on the
    application's traces with or without same-phase multi-writer block
    contention (:meth:`~repro.experiments.runner.ExperimentRunner.sharing`).
    The design path takes its pair from the workload's recorded
    ``sharing_at(N)``, which :func:`repro.trace.analysis.characterize_run`
    measures with false sharing included.
    """

    mode: str = "throttled"
    remote_rate_adjustment: float = PAPER_REMOTE_RATE_ADJUSTMENT
    barrier_scale: float = 1.0
    cache_capacity_factor: float = 1.0
    contention_boost: float = 1.0
    use_sharing: bool = True  #: apply the measured sharing term
    #: Include same-phase multi-writer block contention in the measured
    #: sharing inputs (see repro.trace.analysis.measure_sharing).
    false_sharing: bool = True

    def case(self, spec: PlatformSpec, sharing: float, fresh: float) -> BatchCase:
        """``spec`` as one case of a batch, given its (sharing, fresh) pair."""
        if not self.use_sharing:
            sharing, fresh = 0.0, 1.0
        return BatchCase(spec, sharing, fresh, self.remote_rate_adjustment)

    @property
    def batch_knobs(self) -> dict:
        """The batch-wide keyword arguments of :func:`e_instr_seconds_batch`
        and :func:`~repro.core.execution.evaluate`."""
        return {
            "mode": self.mode,
            "barrier_scale": self.barrier_scale,
            "cache_capacity_factor": self.cache_capacity_factor,
            "contention_boost": self.contention_boost,
        }

    def describe(self) -> str:
        return (
            f"mode={self.mode}, cache_capacity_factor={self.cache_capacity_factor:g}, "
            f"contention_boost={self.contention_boost:g}, barrier_scale={self.barrier_scale:g}, "
            f"remote_rate_adjustment={self.remote_rate_adjustment:g}, "
            f"sharing={'on' if self.use_sharing else 'off'}"
            f"{' (with false sharing)' if self.use_sharing and self.false_sharing else ''}"
        )


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

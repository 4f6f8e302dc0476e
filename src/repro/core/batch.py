"""Vectorized batch evaluation of the analytical model (the model's fast lane).

The design-space optimizer (:mod:`repro.cost.search`) evaluates the
same workload against hundreds-to-thousands of candidate platforms.
Calling :func:`repro.core.execution.evaluate` per candidate pays Python
interpreter overhead per hierarchy level per bisection step; this module
evaluates a whole *batch* of candidates with NumPy, grouping candidates
by hierarchy level structure and replicating the scalar arithmetic
elementwise.

Like the simulator's array fast path (``tests/sim/test_fastpath_equivalence``),
the contract is **bit identity**: for every candidate,
:func:`e_instr_seconds_batch` returns *exactly* the float64 that
``evaluate(...).e_instr_seconds`` returns — same operations, same
association order, same branch decisions, including the throttled-mode
fixed-point bisection (run with per-lane masks so every lane takes the
same lo/hi trajectory as the scalar solver).  Property-tested in
``tests/cost/test_batch_eval.py``.

Two details make bit identity non-trivial and are handled explicitly:

* barrier terms use :func:`repro.core.contention.barrier_term` per
  candidate (scalar summation) rather than a vectorized cumsum, because
  NumPy's pairwise ``sum`` and ``cumsum`` may disagree in the last ulp;
* the sharing blend ``(1-sigma)*tail + sigma*miss_share`` is applied
  unconditionally in the vector lane — with ``sigma == 0`` the float64
  result is exactly ``tail`` (``1.0*t + 0.0*m == t`` for finite
  ``m >= 0``, ``t >= 0``), matching the scalar lane's skipped branch.

A saturated candidate comes back ``inf``, as it does from ``evaluate``.
``mode="mva"`` and duck-typed locality models that are not the
power-law :class:`~repro.core.locality.StackDistanceModel` (e.g.
:class:`repro.workloads.mix.MixedLocality`, which only promises
``tail``/``cdf``/``rescaled``) fall back to the scalar lane; results
remain identical by construction.

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

import math
from dataclasses import dataclass
from typing import Literal, Sequence

import numpy as np

from repro.core.amat import MAX_ITERATIONS, TOLERANCE, _REMOTE_KINDS, zero_contention_amat
from repro.core.contention import barrier_term
from repro.core.execution import MODES, evaluate
from repro.core.hierarchy import LevelKind, MemoryHierarchy
from repro.core.locality import StackDistanceModel
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


def _validate(gamma: float, barrier_scale: float, contention_boost: float, cases) -> None:
    """The scalar solver's input checks, once per batch + once per case."""
    if not (0.0 < gamma <= 1.0):
        raise ValueError(f"gamma must be in (0, 1], got {gamma!r}")
    if barrier_scale < 0.0:
        raise ValueError("barrier_scale must be non-negative")
    if contention_boost < 1.0:
        raise ValueError("contention_boost must be >= 1 (1 = Poisson-average arrivals)")
    for case in cases:
        if case.remote_rate_adjustment < 0.0:
            raise ValueError("remote_rate_adjustment must be non-negative")
        if not (0.0 <= case.sharing_fraction <= 1.0):
            raise ValueError("sharing_fraction must be in [0, 1]")
        if not (0.0 <= case.sharing_fresh_fraction <= 1.0):
            raise ValueError("sharing_fresh_fraction must be in [0, 1]")


class _LevelGroup:
    """Candidates sharing one hierarchy level-kind signature, as arrays.

    All per-level and per-candidate scalars are gathered into float64
    arrays; every kernel expression below copies the scalar lane's
    association order (comments cite the scalar source).
    """

    def __init__(
        self,
        signature: tuple[LevelKind, ...],
        members: list[int],
        hierarchies: list[MemoryHierarchy],
        cases: list[BatchCase],
        locality: StackDistanceModel,
        gamma: float,
        barrier_scale: float,
        contention_boost: float,
    ) -> None:
        self.signature = signature
        self.members = np.asarray(members, dtype=np.intp)
        self.gamma = gamma
        self.boost = contention_boost
        m = len(members)
        L = len(signature)
        self.remote = [kind in _REMOTE_KINDS for kind in signature]

        base = np.empty(m)
        barrier = np.empty(m)
        procs = np.empty(m)
        hz = np.empty(m)
        beta = np.empty(m)
        expo = np.empty(m)
        maxd = np.full(m, np.inf)
        one_rra = np.empty(m)
        sf = np.empty(m)
        fresh = np.empty(m)
        cache_boundary = np.empty(m)
        boundary = np.empty((L, m))
        tau = np.empty((L, m))
        pop_minus_1 = np.empty((L, m))
        rate_fraction = np.empty((L, m))
        dists: dict[int, StackDistanceModel] = {}
        for k, i in enumerate(members):
            h = hierarchies[i]
            case = cases[i]
            dist = dists.get(h.total_processes)
            if dist is None:
                dist = dists[h.total_processes] = locality.rescaled(h.total_processes)
            base[k] = h.base_cycles
            # Scalar: barrier_scale * barrier_term(pop) / gamma, with the
            # harmonic number summed by the scalar code path.
            barrier[k] = barrier_scale * barrier_term(h.barrier_population) / gamma
            procs[k] = case.spec.total_processors
            hz[k] = case.spec.cpu_hz
            beta[k] = dist.beta
            expo[k] = 1.0 - dist.alpha
            if dist.max_distance is not None:
                maxd[k] = dist.max_distance
            one_rra[k] = 1.0 + case.remote_rate_adjustment
            sf[k] = case.sharing_fraction
            fresh[k] = case.sharing_fresh_fraction
            cache_boundary[k] = h.levels[0].boundary_items if h.levels else 0.0
            for j, level in enumerate(h.levels):
                boundary[j, k] = level.boundary_items
                tau[j, k] = level.tau_cycles
                pop_minus_1[j, k] = level.population - 1
                rate_fraction[j, k] = level.rate_fraction

        def tails_at(s: np.ndarray) -> np.ndarray:
            # Scalar StackDistanceModel.tail: power term, then the
            # max_distance clamp (inf sentinel == no clamp).
            out = np.power(np.maximum(s, 0.0) / beta + 1.0, expo)
            return np.where(s >= maxd, 0.0, out)

        cache_tail = tails_at(cache_boundary)
        # Scalar: fresh + (1 - fresh) * cache_tail
        miss_share = fresh + (1.0 - fresh) * cache_tail

        self.tau = tau
        self.pop_minus_1 = pop_minus_1
        self.base = base
        self.barrier = barrier
        self.procs = procs
        self.hz = hz
        self.one_rra = one_rra
        # lam pre-factor a_j = (gamma * tail) * rf  (scalar: gamma * tail * rf * scale)
        self.a = np.empty((L, m))
        # contribution pre-factor ((tail * rf) * adj)
        self.badj = np.empty((L, m))
        for j, kind in enumerate(signature):
            t = tails_at(boundary[j])
            if kind is LevelKind.REMOTE_MEMORY:
                # Scalar blend (skipped when sigma == 0; identical then).
                t = (1.0 - sf) * t + sf * miss_share
            b = t * rate_fraction[j]
            self.a[j] = gamma * t * rate_fraction[j]
            self.badj[j] = b * one_rra if self.remote[j] else b

    # ------------------------------------------------------------------
    def _amat_at(self, scale: np.ndarray, sel: np.ndarray) -> np.ndarray:
        """One `_evaluate_once` pass over the selected lanes: T(scale)."""
        total = self.base[sel].copy()
        saturated = np.zeros(sel.size, dtype=bool)
        for j in range(len(self.signature)):
            tau = self.tau[j][sel]
            lam = self.a[j][sel] * scale
            if self.remote[j]:
                lam = lam * self.one_rra[sel]  # scalar: lam *= 1.0 + rra
            lam_q = lam * self.boost
            rho = (self.pop_minus_1[j][sel] * lam_q) * tau
            waiting = (rho * tau) / (2.0 * (1.0 - rho))
            response = tau + waiting
            level_saturated = rho >= 1.0
            response = np.where(level_saturated, np.inf, response)
            saturated |= level_saturated
            contribution = np.where(lam > 0.0, self.badj[j][sel] * response, 0.0)
            total = total + contribution
        total = total + self.barrier[sel]
        return np.where(saturated, np.inf, total)

    def amat_open(self) -> np.ndarray:
        sel = np.arange(self.members.size)
        return self._amat_at(np.ones(sel.size), sel)

    def amat_throttled(self) -> np.ndarray:
        """The scalar fixed-point bisection, lane-masked.

        Every lane reproduces the scalar lo/hi trajectory: the at-cap
        early return, the bisection branch decisions, the post-update
        convergence test, and the final evaluation point.
        """
        m = self.members.size
        gamma = self.gamma
        unit_load = np.zeros(m)
        for j in range(len(self.signature)):
            lam1 = self.a[j] * self.boost
            if self.remote[j]:
                lam1 = lam1 * self.one_rra
            unit_load = np.maximum(unit_load, (self.pop_minus_1[j] * lam1) * self.tau[j])

        with np.errstate(divide="ignore"):
            hi = np.where(unit_load < 1.0, 1.0, 0.999999 / unit_load)
        everyone = np.arange(m)
        t_hi = self._amat_at(hi, everyone)
        g_hi = 1.0 / (1.0 + gamma * t_hi) - hi
        done_at_cap = np.isfinite(t_hi) & (g_hi >= 0.0)
        result = np.where(done_at_cap, t_hi, np.nan)

        active = ~done_at_cap
        lo = np.zeros(m)
        for _ in range(MAX_ITERATIONS):
            sel = np.flatnonzero(active)
            if sel.size == 0:
                break
            mid = 0.5 * (lo[sel] + hi[sel])
            t_mid = self._amat_at(mid, sel)
            go_hi = ~np.isfinite(t_mid) | (1.0 / (1.0 + gamma * t_mid) < mid)
            hi[sel] = np.where(go_hi, mid, hi[sel])
            lo[sel] = np.where(go_hi, lo[sel], mid)
            converged = (hi[sel] - lo[sel]) <= TOLERANCE
            active[sel[converged]] = False

        rest = np.flatnonzero(~done_at_cap)
        if rest.size:
            final_scale = np.where(
                lo[rest] > 0.0, lo[rest], 0.5 * (lo[rest] + hi[rest])
            )
            result[rest] = self._amat_at(final_scale, rest)
        return result

    def e_instr_seconds(self, mode: str) -> np.ndarray:
        amat = self.amat_open() if mode == "open" else self.amat_throttled()
        # Scalar: ((1.0 + gamma * T) / total_processors) / cpu_hz, with
        # inf propagating through both divisions unchanged.
        return ((1.0 + self.gamma * amat) / self.procs) / self.hz

    def lower_bound_seconds(self) -> np.ndarray:
        """Admissible E(Instr) bound: every response replaced by tau.

        ``contribution >= ((tail*rf)*adj) * tau`` whenever the level sees
        traffic, and is zero exactly when the bound term is zero, so the
        sum lower-bounds T in open, throttled and MVA modes alike.
        """
        total = self.base.copy()
        for j in range(len(self.signature)):
            total = total + self.badj[j] * self.tau[j]
        total = total + self.barrier
        return ((1.0 + self.gamma * total) / self.procs) / self.hz


def _fold(spec: PlatformSpec, cache_capacity_factor: float, memo: dict) -> MemoryHierarchy:
    """``spec.hierarchy(...)``, folded at most once per ``memo``."""
    key = (spec, cache_capacity_factor)
    hierarchy = memo.get(key)
    if hierarchy is None:
        hierarchy = memo[key] = spec.hierarchy(cache_capacity_factor=cache_capacity_factor)
    return hierarchy


def _build_groups(
    cases: list[BatchCase],
    locality: StackDistanceModel,
    gamma: float,
    barrier_scale: float,
    contention_boost: float,
    cache_capacity_factor: float,
    hierarchy_memo: dict | None,
) -> list[_LevelGroup]:
    memo = {} if hierarchy_memo is None else hierarchy_memo
    hierarchies = []
    members: dict[tuple[LevelKind, ...], list[int]] = {}
    for i, case in enumerate(cases):
        h = _fold(case.spec, cache_capacity_factor, memo)
        hierarchies.append(h)
        members.setdefault(tuple(level.kind for level in h.levels), []).append(i)
    return [
        _LevelGroup(
            sig, idx, hierarchies, cases, locality, gamma, barrier_scale, contention_boost
        )
        for sig, idx in members.items()
    ]


def _scalar_lane(
    cases: list[BatchCase],
    locality: StackDistanceModel,
    gamma: float,
    mode: str,
    barrier_scale: float,
    cache_capacity_factor: float,
    contention_boost: float,
) -> np.ndarray:
    return np.array(
        [
            evaluate(
                case.spec,
                locality,
                gamma,
                remote_rate_adjustment=case.remote_rate_adjustment,
                barrier_scale=barrier_scale,
                mode=mode,  # type: ignore[arg-type]
                sharing_fraction=case.sharing_fraction,
                sharing_fresh_fraction=case.sharing_fresh_fraction,
                cache_capacity_factor=cache_capacity_factor,
                contention_boost=contention_boost,
            ).e_instr_seconds
            for case in cases
        ],
        dtype=np.float64,
    )


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
    """E(Instr) in seconds for every candidate, bit-identical to ``evaluate``.

    Each :class:`BatchCase` brings its platform and its per-candidate
    knobs; the keyword arguments hold for the whole batch.  A saturated
    candidate comes back ``inf``.  ``hierarchy_memo`` is a caller-owned
    dict of hierarchy folds to read and fill (see the module docstring).
    """
    if not cases:
        return np.empty(0, dtype=np.float64)
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    _validate(gamma, barrier_scale, contention_boost, cases)
    # The vector kernel reads the power law's (alpha, beta, max_distance)
    # directly; duck-typed distributions (e.g. MixedLocality) only promise
    # tail/cdf/rescaled, so they take the scalar lane.
    if mode == "mva" or not isinstance(locality, StackDistanceModel):
        return _scalar_lane(
            cases, locality, gamma, mode, barrier_scale, cache_capacity_factor,
            contention_boost,
        )
    out = np.empty(len(cases), dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        for group in _build_groups(
            cases, locality, gamma, barrier_scale, contention_boost,
            cache_capacity_factor, hierarchy_memo,
        ):
            out[group.members] = group.e_instr_seconds(mode)
    return out


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
    ``hierarchy_memo`` is as for :func:`e_instr_seconds_batch`.
    """
    if not cases:
        return np.empty(0, dtype=np.float64)
    _validate(gamma, barrier_scale, 1.0, cases)
    out = np.empty(len(cases), dtype=np.float64)
    if not isinstance(locality, StackDistanceModel):
        # Duck-typed distributions take the scalar reference bound, which
        # only consumes the tail/rescaled protocol.
        memo = {} if hierarchy_memo is None else hierarchy_memo
        for k, case in enumerate(cases):
            hierarchy = _fold(case.spec, cache_capacity_factor, memo)
            lb_t = zero_contention_amat(
                hierarchy, locality, gamma,
                remote_rate_adjustment=case.remote_rate_adjustment,
                barrier_scale=barrier_scale,
                sharing_fraction=case.sharing_fraction,
                sharing_fresh_fraction=case.sharing_fresh_fraction,
            )
            out[k] = ((1.0 + gamma * lb_t) / case.spec.total_processors) / case.spec.cpu_hz
        return out
    for group in _build_groups(
        cases, locality, gamma, barrier_scale, 1.0, cache_capacity_factor,
        hierarchy_memo,
    ):
        out[group.members] = group.lower_bound_seconds()
    return out

"""Placement policies: one folded platform -> :class:`WorkShare`.

A policy is a function of :class:`~repro.scheduling.evaluate.ProcessCosts`
(the platform folded once for one workload).  Three policies, in
increasing order of model awareness:

* ``round-robin`` -- the paper's even split; ignores heterogeneity.
* ``speed`` -- weights proportional to relative CPU speed; right when
  the workload never leaves the cache, wrong as soon as memory behavior
  differs across machines (a fast CPU behind a small cache stalls).
* ``memory-aware`` -- weights equalize each process's *weighted* cost
  ``w[p] * c[p]`` through the analytical model (Silva et al.,
  arXiv:1302.5679 argue for exactly this kind of hierarchy-aware
  placement).  Because the share-independent part ``c~[p]`` dominates,
  a couple of fixed-point sweeps over the barrier coupling converge to
  machine precision.

All policies normalize weights by their maximum, so on a homogeneous
platform every policy returns exactly ``(1.0, ..., 1.0)`` -- the even
share -- keeping the homogeneous reduction bit-identical.
"""

from __future__ import annotations

import math
from typing import Callable, Mapping

from repro.core.locality import StackDistanceModel
from repro.scheduling.evaluate import (
    HeteroEstimate,
    ProcessCosts,
    evaluate_hetero,
    process_costs,
)
from repro.scheduling.platform import HeteroPlatform
from repro.scheduling.shares import WorkShare

__all__ = [
    "POLICIES",
    "round_robin",
    "speed_proportional",
    "memory_aware",
    "resolve_policy",
    "compare_policies",
]

_REFINE_STEP = 2.0  #: initial multiplicative step of the share descent
_REFINE_STOP = 1.002  #: stop once the step shrinks below this factor


def _normalized(weights: list[float], policy: str) -> WorkShare:
    top = max(weights)
    return WorkShare(tuple(w / top for w in weights), policy=policy)


def round_robin(costs: ProcessCosts) -> WorkShare:
    """The paper's even split: every process gets the same slice."""
    return WorkShare.even(costs.total_processors, policy="round-robin")


def speed_proportional(costs: ProcessCosts) -> WorkShare:
    """Weights proportional to relative CPU speed, blind to memory."""
    return _normalized(list(costs.speeds), "speed")


def memory_aware(costs: ProcessCosts) -> WorkShare:
    """Minimize modeled E(Instr) over work shares, hierarchy-aware.

    Candidate starts are the even split, the speed split and the
    equal-arrival split ``w[p] = 1/c~[p]`` (every process reaches the
    barrier at the same expected time); the best is refined by a
    monotone multiplicative descent, one weight per *group* of
    identical processes, scored through :func:`evaluate_hetero` on the
    same ``costs``.  The even and speed splits are among the starts, so
    memory-aware never loses to round-robin or speed-proportional on
    any input -- by construction, not by luck.  When the model
    saturates (infinite ``c~``) relative memory costs carry no signal
    and the speed split is returned as-is.
    """
    tilde = costs.cycles_per_instruction
    if not all(math.isfinite(c) for c in tilde):
        return WorkShare(speed_proportional(costs).weights, policy="memory-aware")
    if len(set(zip(tilde, costs.speeds))) == 1:
        # Homogeneous in the model's eyes: the even split is the answer
        # (and keeps the bit-identical homogeneous reduction).
        return WorkShare.even(costs.total_processors, policy="memory-aware")

    def cost(weights: list[float]) -> float:
        return evaluate_hetero(costs, _normalized(weights, "memory-aware")).e_instr_cycles

    starts = [
        list(round_robin(costs).weights),
        list(speed_proportional(costs).weights),
        [1.0 / c for c in tilde],
    ]
    weights, best = min(((w, cost(w)) for w in starts), key=lambda pair: pair[1])

    # Processes on identical machines are symmetric: one knob per group.
    groups: dict[tuple[float, float], list[int]] = {}
    for index, key in enumerate(zip(tilde, costs.speeds)):
        groups.setdefault(key, []).append(index)
    step = _REFINE_STEP
    while step > _REFINE_STOP and math.isfinite(best):
        improved = False
        for members in groups.values():
            for factor in (step, 1.0 / step):
                trial = list(weights)
                for index in members:
                    trial[index] *= factor
                trial_cost = cost(trial)
                if trial_cost < best:
                    weights, best, improved = trial, trial_cost, True
        if not improved:
            step = math.sqrt(step)
    return _normalized(weights, "memory-aware")


POLICIES: Mapping[str, Callable[[ProcessCosts], WorkShare]] = {
    "round-robin": round_robin,
    "speed": speed_proportional,
    "memory-aware": memory_aware,
}


def resolve_policy(name: str) -> Callable[[ProcessCosts], WorkShare]:
    if name not in POLICIES:
        known = ", ".join(sorted(POLICIES))
        raise ValueError(f"unknown scheduling policy {name!r}; known policies: {known}")
    return POLICIES[name]


def compare_policies(
    platform: HeteroPlatform,
    locality: StackDistanceModel,
    gamma: float,
    policies: tuple[str, ...] | None = None,
    **model_kwargs,
) -> dict[str, HeteroEstimate]:
    """Evaluate each named policy on one platform/workload pair.

    The platform is folded once (:func:`process_costs`, taking
    ``model_kwargs``); every policy places and is priced on that fold.
    """
    names = tuple(POLICIES) if policies is None else policies
    costs = process_costs(platform, locality, gamma, **model_kwargs)
    return {name: evaluate_hetero(costs, resolve_policy(name)(costs)) for name in names}

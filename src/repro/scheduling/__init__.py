"""Memory-aware scheduling over heterogeneous topology trees.

The paper's model assumes every processor is identical; this package
relaxes that.  A :class:`HeteroPlatform` wraps any topology tree (mixed
machine shapes, per-machine relative CPU speeds), a :class:`WorkShare`
splits a phase's instructions unevenly across processes, and the model
prices the result in two steps:

* :func:`process_costs` folds every machine once (one memory hierarchy
  per machine) and prices each process's barrier-free AMAT -- the only
  function here that folds a tree;
* :func:`evaluate_hetero` prices one work share on those costs: the
  generalized barrier order statistic
  (:func:`repro.core.contention.expected_max_exponential`) and the
  straggler-bound aggregate ``E(Instr) = max_p(w_p c_p) / sum(w)``.

Three placement policies ship in :mod:`repro.scheduling.policies` --
``round-robin`` (the paper's even split), ``speed`` (CPU-proportional)
and ``memory-aware`` (equalizes modeled per-process cost, after Silva
et al., arXiv:1302.5679).  Each is a function of the costs, so placing
and pricing a platform folds it once however many shares a policy
tries.  On homogeneous trees every path reduces bit-for-bit to
:func:`repro.core.execution.evaluate` with ``mode="open"`` -- the
invariant that lets this layer share caches and reports with the rest
of the library.  See docs/SCHEDULING.md.
"""

from repro.scheduling.evaluate import (
    HeteroEstimate,
    ProcessCosts,
    ProcessEstimate,
    evaluate_hetero,
    process_costs,
)
from repro.scheduling.mix import (
    MixCandidate,
    design_mix,
    enumerate_mixed_configurations,
)
from repro.scheduling.platform import (
    HeteroPlatform,
    builtin_hetero_platform,
    load_hetero_platform_file,
)
from repro.scheduling.policies import (
    POLICIES,
    compare_policies,
    memory_aware,
    resolve_policy,
    round_robin,
    speed_proportional,
)
from repro.scheduling.shares import WorkShare

__all__ = [
    "HeteroPlatform",
    "builtin_hetero_platform",
    "load_hetero_platform_file",
    "WorkShare",
    "ProcessCosts",
    "ProcessEstimate",
    "HeteroEstimate",
    "process_costs",
    "evaluate_hetero",
    "POLICIES",
    "round_robin",
    "speed_proportional",
    "memory_aware",
    "resolve_policy",
    "compare_policies",
    "MixCandidate",
    "design_mix",
    "enumerate_mixed_configurations",
]

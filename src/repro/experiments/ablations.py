"""Ablations of the design choices DESIGN.md calls out.

Each ablation isolates one modeling/simulation decision and quantifies
its effect on the validation agreement, using one representative cell
per platform class:

* **associativity** -- simulate with 2-way (the paper) vs 16-way caches
  and compare each against the associativity-blind model; at 64-line
  scaled caches even full associativity cannot rescue LRU from cyclic
  thrashing, which is why the calibrated ``cache_capacity_factor``
  derates the modeled capacity instead of assuming more ways help;
* **truncation** -- fitted power law with vs without the footprint cut:
  the untruncated tail invents disk traffic the program cannot generate;
* **sharing** -- the DSM sharing term on vs off against a cluster
  simulation: capacity tails alone cannot see coherence traffic;
* **throttling** -- open (paper) vs closed-system mode on a saturating
  network: the open form diverges, the throttled form lands near the
  simulator;
* **peer-cache level** -- the optional cache-to-cache level in the SMP
  model (the simulator always has the 15-cycle path);
* **contention treatment** -- the paper's open M/G/1 form vs our
  throttled fixed point vs the textbook-exact closed-network MVA, all
  against the same simulated SMP cell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace as dc_replace

from repro.core.amat import PAPER_REMOTE_RATE_ADJUSTMENT
from repro.core.execution import evaluate
from repro.core.locality import StackDistanceModel
from repro.core.platform import PlatformSpec
from repro.experiments.runner import ExperimentRunner
from repro.sim.latencies import NetworkKind

__all__ = ["AblationRow", "AblationResult", "run_ablations"]

KB = 1024


@dataclass(frozen=True)
class AblationRow:
    ablation: str
    variant: str
    e_instr_seconds: float
    reference: float  #: the simulated (or baseline) value it is judged against

    @property
    def error(self) -> float:
        if not math.isfinite(self.e_instr_seconds):
            return math.inf
        return abs(self.e_instr_seconds - self.reference) / self.reference


@dataclass(frozen=True)
class AblationResult:
    rows: tuple[AblationRow, ...]

    def of(self, ablation: str) -> tuple[AblationRow, ...]:
        return tuple(r for r in self.rows if r.ablation == ablation)

    def describe(self) -> str:
        lines = ["ablations (one representative cell each):"]
        current = None
        for r in self.rows:
            if r.ablation != current:
                current = r.ablation
                lines.append(f"  -- {r.ablation} --")
            val = "saturated (inf)" if not math.isfinite(r.e_instr_seconds) else f"{r.e_instr_seconds:.3e}s"
            lines.append(
                f"     {r.variant:<44s} {val:>16s}  vs ref {r.reference:.3e}s "
                f"({'inf' if not math.isfinite(r.error) else f'{100 * r.error:.1f}%'})"
            )
        return "\n".join(lines)


def run_ablations(runner: ExperimentRunner | None = None) -> AblationResult:
    """Run every ablation; returns printable rows (used by the bench)."""
    runner = runner or ExperimentRunner()
    rows: list[AblationRow] = []

    smp = PlatformSpec(name="abl-smp", n=2, N=1, cache_bytes=4 * KB, memory_bytes=1024 * KB)
    cow = PlatformSpec(
        name="abl-cow", n=1, N=4, cache_bytes=4 * KB, memory_bytes=1024 * KB,
        network=NetworkKind.ATM_155,
    )
    cow_slow = dc_replace(cow, name="abl-cow-10", network=NetworkKind.ETHERNET_10)
    app = "FFT"
    params = runner.characterization(app)
    sigma, fresh = runner.sharing(app, cow)

    # ------------------------------------------------------- associativity
    sim2 = runner.simulate(app, smp).e_instr_seconds
    smp16 = dc_replace(smp, name="abl-smp-16way", cache_ways=16)
    sim16 = runner.simulate(app, smp16).e_instr_seconds
    model_raw = evaluate(
        smp, params.locality, params.gamma, mode="throttled",
        barrier_scale=0.0,
    ).e_instr_seconds
    rows += [
        AblationRow("cache associativity", "simulated, 2-way (paper)", sim2, sim2),
        AblationRow("cache associativity", "simulated, 16-way", sim16, sim2),
        AblationRow("cache associativity", "model (fully associative), vs 2-way", model_raw, sim2),
        AblationRow("cache associativity", "model (fully associative), vs 16-way", model_raw, sim16),
    ]

    # ---------------------------------------------------------- truncation
    untruncated = StackDistanceModel(alpha=params.alpha, beta=params.beta)
    sim_ref = sim2
    for label, loc in (
        ("truncated at footprint (measured)", params.locality),
        ("raw power law (paper Eq. 1)", untruncated),
    ):
        est = evaluate(smp, loc, params.gamma, mode="throttled").e_instr_seconds
        rows.append(AblationRow("footprint truncation", label, est, sim_ref))

    # ------------------------------------------------------------- sharing
    sim_cow = runner.simulate(app, cow).e_instr_seconds
    for label, s in (
        ("sharing term on (measured sigma)", sigma),
        ("sharing term off (paper capacity-only)", 0.0),
    ):
        est = evaluate(
            cow, params.locality, params.gamma, mode="throttled",
            sharing_fraction=s, sharing_fresh_fraction=fresh,
            remote_rate_adjustment=PAPER_REMOTE_RATE_ADJUSTMENT,
        ).e_instr_seconds
        rows.append(AblationRow("DSM sharing term", label, est, sim_cow))

    # ---------------------------------------------------------- throttling
    sim_slow = runner.simulate(app, cow_slow).e_instr_seconds
    for label, mode in (("throttled (closed system)", "throttled"), ("open (paper)", "open")):
        est = evaluate(
            cow_slow, params.locality, params.gamma, mode=mode,
            sharing_fraction=sigma, sharing_fresh_fraction=fresh,
            remote_rate_adjustment=PAPER_REMOTE_RATE_ADJUSTMENT,
        ).e_instr_seconds
        rows.append(AblationRow("saturation handling", label, est, sim_slow))

    # ------------------------------------------------ contention treatment
    from repro.core.execution import e_instr_seconds as _eis
    from repro.core.mva import mva_smp_amat

    hierarchy = smp.hierarchy()
    for label, mode in (("throttled fixed point", "throttled"), ("open M/G/1 (paper)", "open")):
        est = evaluate(smp, params.locality, params.gamma, mode=mode).e_instr_seconds
        rows.append(AblationRow("contention treatment", label, est, sim2))
    t_mva = mva_smp_amat(hierarchy, params.locality, params.gamma)
    rows.append(
        AblationRow(
            "contention treatment",
            "exact closed-network MVA",
            _eis(smp.total_processors, params.gamma, t_mva, smp.cpu_hz),
            sim2,
        )
    )

    # ------------------------------------------------------ peer-cache level
    for label, peer in (("without peer-cache level (paper Eq. 11)", False), ("with peer-cache level", True)):
        est = evaluate(
            smp, params.locality, params.gamma, mode="throttled",
            include_peer_cache=peer,
        ).e_instr_seconds
        rows.append(AblationRow("SMP peer-cache level", label, est, sim2))

    return AblationResult(rows=tuple(rows))

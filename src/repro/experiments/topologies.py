"""The new two-level scenario, end to end: CLUMP-of-SMPs vs flat CLUMPs.

The declarative topology IR can state a platform the paper's three-kind
enum cannot: racks of SMPs joined by an intra-rack ATM switch, with the
racks themselves on an inter-rack Ethernet bus -- two interconnect
levels with different contention classes in one machine.  This
experiment runs that platform through both halves of the methodology
(the program-driven simulator and the Eq. 7 analytical model, which
folds one queueing level per interconnect) next to the two flat
single-network CLUMPs of the same machine shape, and reports the
model-vs-simulation gap for every cell -- the same quantity the paper's
validation figures plot for the flat platforms.

Runnable directly (the CI ``topology-smoke`` job does)::

    python -m repro.experiments.topologies --json comparison.json
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.amat import PAPER_REMOTE_RATE_ADJUSTMENT
from repro.core.batch import ModelOptions
from repro.core.platform import PlatformSpec
from repro.core.validation import ComparisonRow, format_table
from repro.experiments.runner import ExperimentRunner
from repro.sim.latencies import NetworkKind
from repro.topology import clump_of_smps_spec

__all__ = ["TwoLevelResult", "run_two_level_comparison"]


@dataclass(frozen=True)
class TwoLevelResult:
    """Model-vs-simulation cells for the two-level platform and its
    flat single-network strawmen."""

    rows: tuple[ComparisonRow, ...]
    calibration: ModelOptions
    two_level_name: str

    @property
    def worst_error(self) -> float:
        return max(r.error for r in self.rows)

    @property
    def mean_error(self) -> float:
        return sum(r.error for r in self.rows) / len(self.rows)

    @property
    def two_level_rows(self) -> tuple[ComparisonRow, ...]:
        return tuple(r for r in self.rows if r.configuration == self.two_level_name)

    @property
    def ordering_agreement(self) -> float:
        """Fraction of per-app platform pairs ranked identically by model
        and simulator -- does Eq. 7 still pick the right machine when one
        of the choices has two interconnect levels?"""
        apps = sorted({r.application for r in self.rows})
        agree = total = 0
        for app in apps:
            cells = [r for r in self.rows if r.application == app]
            for i in range(len(cells)):
                for j in range(i + 1, len(cells)):
                    total += 1
                    m = cells[i].modeled - cells[j].modeled
                    s = cells[i].simulated - cells[j].simulated
                    if m * s > 0 or (m == 0 and s == 0):
                        agree += 1
        return agree / total if total else 1.0

    def describe(self) -> str:
        header = (
            "two-level CLUMP-of-SMPs vs flat CLUMPs, modeled vs simulated "
            "E(Instr):\n"
            f"calibration: {self.calibration.describe()}\n"
        )
        footer = (
            f"\nmean model-vs-simulation gap {100 * self.mean_error:.1f}%, "
            f"worst {100 * self.worst_error:.1f}%; "
            f"two-level platform worst "
            f"{100 * max(r.error for r in self.two_level_rows):.1f}%; "
            f"ordering agreement {100 * self.ordering_agreement:.0f}%"
        )
        return header + format_table(self.rows) + footer

    def as_dict(self) -> dict:
        """JSON-ready payload (the CI artifact)."""
        return {
            "two_level_platform": self.two_level_name,
            "rows": [
                {
                    "application": r.application,
                    "configuration": r.configuration,
                    "modeled_seconds": r.modeled,
                    "simulated_seconds": r.simulated,
                    "relative_error": r.error,
                }
                for r in self.rows
            ],
            "mean_error": self.mean_error,
            "worst_error": self.worst_error,
            "ordering_agreement": self.ordering_agreement,
        }


def _platforms() -> list[PlatformSpec]:
    """The two-level demo platform plus its flat strawmen.

    All three share the machine shape (4 double-processor machines,
    2KB caches, 256KB memories -- the library's laptop scale), so the
    only difference is the interconnect structure: two levels vs one
    network that the old enum could express.
    """
    deep = clump_of_smps_spec()
    flat = [
        PlatformSpec(
            name=f"flat-clump[{net.value}]",
            n=deep.n,
            N=deep.N,
            cache_bytes=deep.cache_bytes,
            memory_bytes=deep.memory_bytes,
            network=net,
        )
        for net in (NetworkKind.ATM_155, NetworkKind.ETHERNET_100)
    ]
    return [deep, *flat]


def run_two_level_comparison(
    runner: ExperimentRunner | None = None,
    applications: tuple[str, ...] = ("FFT", "LU"),
    calibration: ModelOptions | None = None,
) -> TwoLevelResult:
    """Model and simulate every (application, platform) cell.

    As with the paper figures, the model's global constants are fitted
    against the (cached) simulations first unless a calibration is
    passed in -- the reported gap is then the residual the fit cannot
    remove, which is the honest measure of how well Eq. 7 extends to a
    second interconnect level.
    """
    runner = runner or ExperimentRunner()
    specs = _platforms()
    if calibration is None:
        calibration, _ = runner.calibrate(
            applications,
            specs,
            adjustments=(0.0, PAPER_REMOTE_RATE_ADJUSTMENT, 0.3, 0.6),
        )
    rows = runner.compare(applications, specs, calibration)
    return TwoLevelResult(
        rows=tuple(rows),
        calibration=calibration,
        two_level_name=specs[0].name,
    )


def main(argv=None) -> int:
    import argparse
    import json

    parser = argparse.ArgumentParser(
        description="two-level CLUMP-of-SMPs validation (model vs simulator)"
    )
    parser.add_argument(
        "--json", default=None, metavar="PATH",
        help="also write the comparison payload as JSON to PATH",
    )
    parser.add_argument(
        "--apps", default="FFT,LU",
        help="comma-separated application list (default: FFT,LU)",
    )
    args = parser.parse_args(argv)

    # CI-smoke problem sizes: seconds, not minutes.
    runner = ExperimentRunner(
        app_kwargs={
            "FFT": {"points": 1024},
            "LU": {"order": 64, "block": 16},
            "Radix": {"num_keys": 4096},
            "EDGE": {"height": 32, "width": 32, "iterations": 2},
        }
    )
    result = run_two_level_comparison(
        runner, applications=tuple(args.apps.split(","))
    )
    print(result.describe())
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(result.as_dict(), fh, indent=2)
        print(f"\nwrote {args.json}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Incremental (alpha, beta, gamma) fitting with convergence diagnostics.

The offline path (:func:`repro.workloads.fitting.fit_from_distances`)
needs every stack distance at once.  Streaming ingestion instead feeds
distances chunk by chunk into an exact integer **histogram** -- the
empirical CDF evaluated at any capacity is then one cumulative-sum
lookup, so the hit-ratio curve the solver sees is *bit-identical* to
what the offline path computes from the same distances (both count
``#{d < cap}``; for integer distances and float capacities that is
``cum[ceil(cap)]``).  Re-fitting after each chunk yields a
:class:`Convergence` record -- the trajectory of (alpha, beta, gamma)
and their per-chunk deltas -- plus a stop rule: once every relative
delta stays below ``tol`` for ``patience`` consecutive fits, the
parameters are declared converged and an ingester may stop early.

gamma = M / (m + M) needs no fitting; it accumulates exactly from the
per-reference ``work`` counts when the source carries them.

>>> import numpy as np
>>> from repro.trace.stackdist import stack_distances
>>> rng = np.random.default_rng(7)
>>> stream = rng.zipf(1.8, 4000) % 500
>>> fit = IncrementalFit(tol=0.05, patience=2)
>>> for chunk in np.split(stream, 8):
...     _ = fit.update(stack_distances_chunked(fit, chunk))
>>> fit.steps[-1].chunk
8
>>> bool(0.0 <= fit.result().cold_fraction <= 1.0)
True
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from repro.ioutil import atomic_write_json
from repro.trace.streamdist import StreamingStackDistance
from repro.workloads.fitting import FitResult, fit_stack_distance_model
from repro.workloads.params import WorkloadParams

__all__ = ["ConvergenceStep", "Convergence", "IncrementalFit",
           "stack_distances_chunked"]

#: Schema tag of the exported convergence JSON.
CONVERGENCE_SCHEMA = "repro-trace-convergence/1"


def stack_distances_chunked(
    fit: "IncrementalFit", chunk: np.ndarray
) -> np.ndarray:
    """Doctest helper: distances of one chunk via the fit's own engine."""
    return fit.engine.update(chunk)


@dataclass(frozen=True)
class ConvergenceStep:
    """One per-chunk snapshot of the running fit."""

    chunk: int  #: 1-based index of the chunk that produced this fit
    records: int  #: cumulative references folded into the histogram
    alpha: float
    beta: float
    gamma: float
    rmse: float  #: CDF residual of this fit
    d_alpha: float  #: relative change of alpha vs the previous fit
    d_beta: float  #: relative change of beta vs the previous fit
    d_gamma: float  #: relative change of gamma vs the previous fit
    converged: bool  #: stop rule satisfied as of this step

    def to_obj(self) -> dict:
        return {
            "chunk": self.chunk,
            "records": self.records,
            "alpha": self.alpha,
            "beta": self.beta,
            "gamma": self.gamma,
            "rmse": self.rmse,
            "d_alpha": self.d_alpha,
            "d_beta": self.d_beta,
            "d_gamma": self.d_gamma,
            "converged": self.converged,
        }


@dataclass(frozen=True)
class Convergence:
    """The full (alpha, beta, gamma) trajectory of an ingestion run."""

    steps: tuple[ConvergenceStep, ...]
    tol: float  #: relative-delta threshold of the stop rule
    patience: int  #: consecutive below-tol fits required
    converged_at: int | None  #: chunk index where the rule first held

    @property
    def converged(self) -> bool:
        return self.converged_at is not None

    def to_obj(self) -> dict:
        return {
            "schema": CONVERGENCE_SCHEMA,
            "tol": self.tol,
            "patience": self.patience,
            "converged_at": self.converged_at,
            "steps": [s.to_obj() for s in self.steps],
        }

    def export_json(self, path: str | Path) -> Path:
        """Write the trajectory atomically as JSON."""
        return atomic_write_json(path, self.to_obj())


def _rel_delta(new: float, old: float) -> float:
    denom = max(abs(old), 1e-12)
    return abs(new - old) / denom


class IncrementalFit:
    """Accumulate stack distances chunk by chunk; fit after each chunk.

    Parameters
    ----------
    num_fit_points:
        Log-spaced capacities per fit (matches the offline default, 64).
    tol, patience:
        Stop rule: converged once ``d_alpha``, ``d_beta`` and
        ``d_gamma`` all stay below ``tol`` for ``patience`` consecutive
        fits.
    max_live_items:
        Passed to the embedded :class:`StreamingStackDistance` when the
        caller uses :attr:`engine` rather than bringing distances.
    gamma_override:
        Fixed gamma for address-only sources that carry no ``work``
        counts (measured gamma would be exactly 1.0).
    """

    def __init__(
        self,
        *,
        num_fit_points: int = 64,
        tol: float = 0.01,
        patience: int = 3,
        max_live_items: int | None = None,
        gamma_override: float | None = None,
    ) -> None:
        if tol <= 0:
            raise ValueError("tol must be positive")
        if patience < 1:
            raise ValueError("patience must be at least 1")
        self.num_fit_points = int(num_fit_points)
        self.tol = float(tol)
        self.patience = int(patience)
        self.gamma_override = gamma_override
        self.engine = StreamingStackDistance(max_live_items=max_live_items)
        self._hist = np.zeros(0, dtype=np.int64)  # hist[k] = #warm distances == k
        self._cold = 0
        self._refs = 0
        self._work = 0
        self.steps: list[ConvergenceStep] = []
        self._streak = 0
        self._converged_at: int | None = None
        self._fit: FitResult | None = None  # fit of the histogram as it stands

    # ------------------------------------------------------------------
    def update(
        self, distances: np.ndarray, work: int | np.ndarray = 0
    ) -> ConvergenceStep | None:
        """Fold one chunk of distances in and re-fit.

        Returns the new :class:`ConvergenceStep`, or ``None`` while the
        stream has shown no reuse yet (locality is undefined without at
        least one warm reference).
        """
        d = np.ascontiguousarray(distances, dtype=np.int64).reshape(-1)
        warm = d[d >= 0]
        self._refs += d.size
        self._cold += d.size - warm.size
        self._work += int(np.sum(work))
        if warm.size:
            top = int(warm.max()) + 1
            if top > self._hist.size:
                grown = np.zeros(top, dtype=np.int64)
                grown[: self._hist.size] = self._hist
                self._hist = grown
            self._hist += np.bincount(warm, minlength=self._hist.size)
        if self._refs == 0 or self._hist.size == 0:
            return None

        fit = self._fit = self._fit_now()
        gamma = self.gamma
        prev = self.steps[-1] if self.steps else None
        if prev is None:
            deltas = (float("inf"),) * 3
        else:
            deltas = (
                _rel_delta(fit.alpha, prev.alpha),
                _rel_delta(fit.beta, prev.beta),
                _rel_delta(gamma, prev.gamma),
            )
        if max(deltas) < self.tol:
            self._streak += 1
        else:
            self._streak = 0
        chunk_index = len(self.steps) + 1
        if self._streak >= self.patience and self._converged_at is None:
            self._converged_at = chunk_index
        step = ConvergenceStep(
            chunk=chunk_index,
            records=self._refs,
            alpha=fit.alpha,
            beta=fit.beta,
            gamma=gamma,
            rmse=fit.rmse,
            d_alpha=deltas[0],
            d_beta=deltas[1],
            d_gamma=deltas[2],
            converged=self._converged_at is not None,
        )
        self.steps.append(step)
        return step

    def update_from_addresses(
        self, addresses: np.ndarray, work: int | np.ndarray = 0
    ) -> ConvergenceStep | None:
        """Convenience: run the embedded engine, then :meth:`update`."""
        return self.update(self.engine.update(addresses), work=work)

    # ------------------------------------------------------------------
    def _fit_now(self) -> FitResult:
        """Fit from the histogram, bit-identical to the offline path.

        Mirrors :func:`repro.workloads.fitting.fit_from_distances`: same
        log-spaced capacities, and hit ratios ``#{d < cap} / refs``
        computed as ``cum[ceil(cap)]`` -- for integer distances there is
        no integer in ``[cap, ceil(cap))``, so the counts (and therefore
        the solver inputs and outputs) match ``lru_hit_ratios`` exactly.
        """
        from repro.core.locality import StackDistanceModel

        warm_total = int(self._hist.sum())
        if warm_total == 0:
            raise ValueError("trace has no reuse at all; locality is undefined")
        cold_fraction = 1.0 - warm_total / self._refs
        max_distance = float(np.flatnonzero(self._hist)[-1]) + 1.0
        top = max(max_distance, 2.0)
        caps = np.unique(np.geomspace(1.0, top, self.num_fit_points))
        cum = np.concatenate([[0], np.cumsum(self._hist)])
        idx = np.clip(np.ceil(caps).astype(np.int64), 0, self._hist.size)
        hits = cum[idx] / self._refs
        base = fit_stack_distance_model(caps, hits, cold_fraction=cold_fraction)
        truncated = StackDistanceModel(
            alpha=base.model.alpha, beta=base.model.beta, max_distance=max_distance
        )
        return FitResult(
            model=truncated,
            rmse=base.rmse,
            points=base.points,
            cold_fraction=base.cold_fraction,
            max_distance=max_distance,
        )

    # ------------------------------------------------------------------
    @property
    def records(self) -> int:
        return self._refs

    @property
    def gamma(self) -> float:
        """Measured M / (m + M), or the override for address-only sources."""
        if self.gamma_override is not None:
            return float(self.gamma_override)
        total = self._refs + self._work
        return self._refs / total if total else 0.0

    @property
    def converged(self) -> bool:
        return self._converged_at is not None

    def result(self) -> FitResult:
        """The final fit over everything folded in so far.

        Only :meth:`update` folds data in, and it re-fits, so its fit is
        reused here rather than solved again.
        """
        if self._fit is None:
            return self._fit_now()  # raises: nothing with reuse folded in
        return self._fit

    def convergence(self) -> Convergence:
        """The full trajectory plus the stop-rule outcome."""
        return Convergence(
            steps=tuple(self.steps),
            tol=self.tol,
            patience=self.patience,
            converged_at=self._converged_at,
        )

    def params(self, name: str, problem_size: str = "ingested") -> WorkloadParams:
        """Package the fit as a model-ready :class:`WorkloadParams`."""
        fit = self.result()
        return WorkloadParams(
            name=name,
            alpha=fit.alpha,
            beta=fit.beta,
            gamma=self.gamma,
            problem_size=problem_size,
            max_distance=fit.max_distance,
        )

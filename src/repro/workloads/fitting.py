"""Least-squares fit of the power-law locality model to measured distances.

The paper: "Using the standard least squares techniques, we fit
equations (1) and (2) to the data, and determined the values of alpha
and beta for the applications."  We fit the cumulative form (Eq. 1) to
the empirical stack-distance CDF evaluated at logarithmically spaced
capacities -- log spacing because memory-hierarchy sizes span five
orders of magnitude and the fit must weight every decade, not just the
dense small-distance region.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.locality import StackDistanceModel
from repro.trace.stackdist import lru_hit_ratios

__all__ = ["FitResult", "fit_stack_distance_model", "fit_from_distances"]


@dataclass(frozen=True)
class FitResult:
    """Outcome of a locality fit."""

    model: StackDistanceModel
    rmse: float  #: root-mean-square CDF residual at the fit points
    points: int  #: number of CDF points fitted
    cold_fraction: float  #: share of references that were first touches
    max_distance: float | None = None  #: largest finite distance observed

    @property
    def alpha(self) -> float:
        return self.model.alpha

    @property
    def beta(self) -> float:
        return self.model.beta


def fit_stack_distance_model(
    capacities: np.ndarray,
    hit_ratios: np.ndarray,
    cold_fraction: float = 0.0,
    initial: tuple[float, float] = (1.5, 100.0),
) -> FitResult:
    """Fit P(x) = 1 - (x/beta + 1)^(1-alpha) to empirical (x, hit ratio).

    Parameters
    ----------
    capacities:
        LRU capacities (items) at which the empirical CDF was evaluated.
    hit_ratios:
        Empirical hit ratios at those capacities (must be in [0, 1] and
        non-decreasing in capacity).
    cold_fraction:
        Diagnostic only; carried into the result.
    initial:
        Starting (alpha, beta) for the trust-region solver.
    """
    # SciPy is imported here, not at module level: it is the only SciPy
    # user in the package, and loading it costs every process ~0.4 s and
    # ~40 MiB, so only a process that fits a locality model pays for it.
    from scipy.optimize import least_squares

    x = np.ascontiguousarray(capacities, dtype=np.float64)
    y = np.ascontiguousarray(hit_ratios, dtype=np.float64)
    if x.ndim != 1 or x.shape != y.shape:
        raise ValueError("capacities and hit_ratios must be parallel 1-D arrays")
    if x.size < 2:
        raise ValueError("need at least two CDF points to fit two parameters")
    if np.any(x <= 0):
        raise ValueError("capacities must be positive")
    if np.any((y < 0) | (y > 1)):
        raise ValueError("hit ratios must lie in [0, 1]")

    def residuals(theta: np.ndarray) -> np.ndarray:
        alpha, beta = theta
        return 1.0 - np.power(x / beta + 1.0, 1.0 - alpha) - y

    sol = least_squares(
        residuals,
        x0=np.asarray(initial, dtype=np.float64),
        bounds=([1.0 + 1e-6, 1e-6], [64.0, 1e12]),
        method="trf",
    )
    alpha, beta = float(sol.x[0]), float(sol.x[1])
    rmse = float(np.sqrt(np.mean(sol.fun**2)))
    return FitResult(
        model=StackDistanceModel(alpha=alpha, beta=beta),
        rmse=rmse,
        points=int(x.size),
        cold_fraction=float(cold_fraction),
    )


def fit_from_distances(
    distances: np.ndarray,
    num_points: int = 64,
) -> FitResult:
    """Fit the locality model directly to a stack-distance array.

    Evaluates the empirical CDF at ``num_points`` log-spaced capacities
    between 1 and the largest finite distance, then delegates to
    :func:`fit_stack_distance_model`.
    Cold references count as misses at every capacity, exactly as they
    behave in a real hierarchy (compulsory misses).
    """
    d = np.ascontiguousarray(distances)
    if d.size == 0:
        raise ValueError("cannot fit an empty distance array")
    warm = d[d >= 0]
    if warm.size == 0:
        raise ValueError("trace has no reuse at all; locality is undefined")
    cold_fraction = 1.0 - warm.size / d.size
    max_distance = float(warm.max()) + 1.0
    top = max(max_distance, 2.0)
    caps = np.unique(np.geomspace(1.0, top, num_points))
    hits = lru_hit_ratios(d, caps)
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

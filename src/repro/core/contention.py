"""Contention models: M/D/1 queueing and barrier order statistics.

The paper models simultaneous accesses to a shared resource (SMP memory
bus, cluster network, shared disk) as a memoryless-arrival, general-
service, one-server (M/G/1) queue with *deterministic* service time
``tau`` -- i.e. M/D/1.  A request issued by one processor competes with
the traffic of the other ``c - 1`` agents sharing the resource, each
contributing Poisson traffic at rate ``lam``, so the interfering arrival
rate is ``(c - 1) * lam`` and the mean response time is

    t = tau + W = (2 tau - (c-1) lam tau^2) / (2 (1 - (c-1) lam tau)).

At ``c = 1`` this reduces to ``tau`` (no contention), recovering the
uniprocessor model of Jacob et al. that the paper cites as its base.

Barrier synchronization is modeled with order statistics: with ``c``
processes each reaching the barrier after an Exp(lam_b) interval, the
barrier cycle is the maximum of ``c`` exponentials, whose expectation is
``H_c / lam_b`` with ``H_c`` the c-th harmonic number; the mean *waiting*
time of a process is therefore ``(H_c - 1) / lam_b``.

All rates are per cycle and all times in cycles throughout this library
(one instruction per cycle at the paper's 200 MHz clock), which makes
``lam * tau`` the dimensionless utilization directly.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

__all__ = [
    "QueueSaturationError",
    "harmonic_number",
    "mg1_utilization",
    "mg1_waiting_time",
    "mg1_response_time",
    "queued_contribution",
    "barrier_cycle_time",
    "barrier_wait_time",
    "barrier_term",
    "expected_max_exponential",
    "generalized_barrier_terms",
]


class QueueSaturationError(ValueError):
    """Raised when offered load meets or exceeds service capacity (rho >= 1).

    The open-queue approximation is meaningless at or beyond saturation;
    the optimizer treats configurations that saturate as infeasible.
    """

    def __init__(self, rho: float, message: str | None = None) -> None:
        self.rho = rho
        super().__init__(message or f"M/D/1 queue saturated: utilization rho={rho:.4g} >= 1")


def harmonic_number(c: int | np.ndarray):
    """H_c = sum_{i=1..c} 1/i, exactly for integer c >= 0 (H_0 = 0).

    Vectorized over numpy integer arrays; exact summation is used rather
    than the digamma approximation because the paper's ``c`` values are
    tiny (2-32 processors).
    """
    arr = np.asarray(c)
    if arr.ndim == 0:
        cv = int(arr)
        if cv < 0:
            raise ValueError(f"harmonic_number requires c >= 0, got {cv}")
        return float(np.sum(1.0 / np.arange(1, cv + 1))) if cv else 0.0
    if np.any(arr < 0):
        raise ValueError("harmonic_number requires c >= 0")
    top = int(arr.max()) if arr.size else 0
    cum = np.concatenate([[0.0], np.cumsum(1.0 / np.arange(1, top + 1))])
    return cum[arr]


def mg1_utilization(lam: float, tau: float, population: int) -> float:
    """Utilization rho = (population - 1) * lam * tau of the shared server.

    ``lam`` is the per-agent request rate, ``tau`` the deterministic
    service time, and ``population`` the number of agents sharing the
    resource.  Following the paper, an agent's own other requests are not
    counted as interference (hence ``population - 1``).
    """
    if lam < 0 or tau < 0:
        raise ValueError("rate and service time must be non-negative")
    if population < 1:
        raise ValueError(f"population must be >= 1, got {population}")
    return (population - 1) * lam * tau


def mg1_waiting_time(lam: float, tau: float, population: int) -> float:
    """Mean queueing delay W = rho * tau / (2 (1 - rho)) for M/D/1.

    Raises :class:`QueueSaturationError` when rho >= 1.
    """
    rho = mg1_utilization(lam, tau, population)
    if rho >= 1.0:
        raise QueueSaturationError(rho)
    return rho * tau / (2.0 * (1.0 - rho))


def mg1_response_time(lam: float, tau: float, population: int) -> float:
    """Mean response time t = tau + W; the paper's t_i(o) closed form.

    Equals ``(2 tau - (c-1) lam tau^2) / (2 (1 - (c-1) lam tau))`` and
    reduces to ``tau`` when ``population == 1``.
    """
    return tau + mg1_waiting_time(lam, tau, population)


def queued_contribution(lam: float, tau: float, population: int) -> float:
    """Q(lam, tau, c) = lam * t(o): rate-weighted response-time contribution.

    This is the term the paper's Eq. 11 sums per memory level:

        Q = (lam tau - 1/2 (c-1) lam^2 tau^2) / (1 - (c-1) lam tau).

    Dividing the sum of Q terms by the reference rate ``gamma * S``
    converts them back into per-reference time.
    """
    return lam * mg1_response_time(lam, tau, population)


def barrier_cycle_time(lam_b: float, population: int) -> float:
    """E[X] = H_c / lam_b: expected barrier cycle (max of c exponentials)."""
    if lam_b <= 0:
        raise ValueError(f"barrier access rate must be positive, got {lam_b!r}")
    if population < 1:
        raise ValueError(f"population must be >= 1, got {population}")
    return harmonic_number(population) / lam_b


def barrier_wait_time(lam_b: float, population: int) -> float:
    """Mean barrier waiting time t(b) = (H_c - 1) / lam_b; zero for c = 1.

    The average process arrives 1/lam_b before the cycle completes, so
    its wait is the cycle minus its own inter-arrival time.
    """
    if population == 1:
        return 0.0
    return barrier_cycle_time(lam_b, population) - 1.0 / lam_b


@lru_cache(maxsize=4096)
def barrier_term(population: int) -> float:
    """The rate-independent barrier summand of Eq. 11: H_c - 1.

    The barrier-variable access rate cancels when the barrier wait is
    folded into the average memory access time (the paper's Eq. 9 -> 11
    step), leaving the pure harmonic term 1/2 + 1/3 + ... + 1/c.

    A pure function of the integer population, so it is cached: every
    call returns the float of the first, and the model's kernel adds it
    per lane, never re-reduced.  Invalid populations are never cached
    and raise every time.
    """
    if population < 1:
        raise ValueError(f"population must be >= 1, got {population}")
    return harmonic_number(population) - 1.0 if population > 1 else 0.0


def _validated_groups(rates, counts) -> tuple[list[float], list[int], int]:
    """Shared validation for the grouped-exponential helpers below."""
    rs = [float(r) for r in rates]
    if not rs:
        raise ValueError("at least one rate group is required")
    cs = [1] * len(rs) if counts is None else [int(c) for c in counts]
    if len(cs) != len(rs):
        raise ValueError(
            f"rates and counts must align: {len(rs)} rates vs {len(cs)} counts"
        )
    for r in rs:
        if not (r > 0.0 and math.isfinite(r)):
            raise ValueError(f"rates must be positive and finite, got {r!r}")
    for c in cs:
        if c < 1:
            raise ValueError(f"group counts must be >= 1, got {c}")
    return rs, cs, sum(cs)


#: Inclusion-exclusion term budget for the exact rational path below.
#: prod(m_g + 1) terms; 4096 covers e.g. 5 unlike groups of 7 machines
#: each in well under a millisecond, far beyond any canned tree.
_EXACT_MAX_TERMS = 4096


def expected_max_exponential(rates, counts=None) -> float:
    """E[max] of independent exponentials, grouped by rate.

    ``rates[g]`` is the rate of ``counts[g]`` i.i.d. Exp variables
    (``counts`` defaults to one each).  This generalizes the paper's
    barrier order statistic from ``H_c / lam`` (equal rates) to unequal
    per-process rates -- the quantity a heterogeneous barrier needs.

    Three evaluation paths, chosen for exactness first:

    * all rates equal -- dispatch to :func:`barrier_cycle_time`, so the
      homogeneous answer is *bit-identical* to the paper's ``H_c/lam``;
    * few enough inclusion-exclusion terms -- the exact alternating sum
      ``sum_{j != 0} (-1)^(|j|+1) prod C(m_g, j_g) / sum j_g lam_g``
      evaluated in :class:`~fractions.Fraction` arithmetic (the float
      sum cancels catastrophically; rationals do not);
    * otherwise -- composite Simpson on the substituted survival
      integral ``E = (1/lam_0) \\int_0^1 (1 - prod (1 - x^{a_g})^{m_g})
      / x dx`` with ``x = u^2`` (bounded smooth integrand).
    """
    rs, cs, total = _validated_groups(rates, counts)
    first = rs[0]
    if all(r == first for r in rs[1:]):
        return barrier_cycle_time(first, total)
    # Merge equal-rate groups so the exact path's term count is minimal.
    merged: dict[float, int] = {}
    for r, c in zip(rs, cs):
        merged[r] = merged.get(r, 0) + c
    grs = list(merged)
    gms = [merged[r] for r in grs]
    terms = 1
    for m in gms:
        terms *= m + 1
    if terms <= _EXACT_MAX_TERMS:
        from fractions import Fraction
        from itertools import product

        frs = [Fraction(r) for r in grs]  # Fraction(float) is exact
        acc = Fraction(0)
        for combo in product(*(range(m + 1) for m in gms)):
            j = sum(combo)
            if j == 0:
                continue
            coeff = 1
            for m, k in zip(gms, combo):
                coeff *= math.comb(m, k)
            term = Fraction(coeff) / sum(f * k for f, k in zip(frs, combo))
            acc += term if j % 2 else -term
        return float(acc)
    lam0 = min(grs)
    a = [r / lam0 for r in grs]

    def integrand(u: float) -> float:
        if u <= 0.0:
            return 0.0  # the substituted integrand vanishes at u = 0
        x = u * u
        prod = 1.0
        for ag, m in zip(a, gms):
            prod *= (1.0 - x ** ag) ** m
        return 2.0 * (1.0 - prod) / u

    n = 16384  # composite Simpson intervals (even)
    h = 1.0 / n
    s = integrand(0.0) + integrand(1.0)
    s += 4.0 * math.fsum(integrand((2 * i - 1) * h) for i in range(1, n // 2 + 1))
    s += 2.0 * math.fsum(integrand(2 * i * h) for i in range(1, n // 2))
    return (s * h / 3.0) / lam0


def generalized_barrier_terms(rates, counts=None) -> tuple[float, ...]:
    """Per-group dimensionless barrier waits, generalizing ``H_c - 1``.

    A process reaching barriers at rate ``lam_g`` waits ``E[max] -
    1/lam_g`` per barrier; multiplying by ``lam_g`` gives the
    dimensionless per-barrier-interval term ``b_g = lam_g E[max] - 1``
    that drops into Eq. 11 exactly where ``H_c - 1`` sits today.  With
    all rates equal every ``b_g`` *is* :func:`barrier_term` (returned
    directly, bit-identically); otherwise ``b_g >= 0`` always, larger
    for faster groups (they wait on the stragglers).
    """
    rs, cs, total = _validated_groups(rates, counts)
    first = rs[0]
    if all(r == first for r in rs[1:]):
        return (barrier_term(total),) * len(rs)
    expected = expected_max_exponential(rs, cs)
    return tuple(max(0.0, r * expected - 1.0) for r in rs)


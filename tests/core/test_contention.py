"""Tests for the M/D/1 and barrier order-statistics contention models."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.contention import (
    QueueSaturationError,
    barrier_cycle_time,
    barrier_term,
    barrier_wait_time,
    harmonic_number,
    mg1_response_time,
    mg1_utilization,
    mg1_waiting_time,
    queued_contribution,
)


class TestHarmonic:
    def test_known_values(self):
        assert harmonic_number(0) == 0.0
        assert harmonic_number(1) == pytest.approx(1.0)
        assert harmonic_number(2) == pytest.approx(1.5)
        assert harmonic_number(4) == pytest.approx(1.0 + 0.5 + 1 / 3 + 0.25)

    def test_vectorized(self):
        out = harmonic_number(np.array([0, 1, 2, 3]))
        np.testing.assert_allclose(out, [0.0, 1.0, 1.5, 1.5 + 1 / 3])

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            harmonic_number(-1)
        with pytest.raises(ValueError):
            harmonic_number(np.array([1, -2]))


class TestMD1:
    def test_no_contention_at_population_one(self):
        assert mg1_response_time(0.5, 100.0, 1) == pytest.approx(100.0)
        assert mg1_waiting_time(0.5, 100.0, 1) == 0.0

    def test_paper_closed_form(self):
        """t(o) = (2 tau - (c-1) lam tau^2) / (2 (1 - (c-1) lam tau))."""
        lam, tau, c = 0.004, 50.0, 4
        other = (c - 1) * lam
        expected = (2 * tau - other * tau**2) / (2 * (1 - other * tau))
        assert mg1_response_time(lam, tau, c) == pytest.approx(expected)

    def test_uniprocessor_limit_matches_jacob(self):
        """n = 1 must reduce to the plain access time (the paper's check)."""
        for tau in (1.0, 50.0, 2000.0):
            assert mg1_response_time(0.9, tau, 1) == tau

    def test_saturation_raises(self):
        with pytest.raises(QueueSaturationError) as exc:
            mg1_response_time(0.5, 10.0, 3)  # rho = 2*0.5*10 = 10
        assert exc.value.rho == pytest.approx(10.0)

    def test_exact_saturation_boundary(self):
        with pytest.raises(QueueSaturationError):
            mg1_waiting_time(0.5, 1.0, 3)  # rho = 1 exactly

    def test_utilization(self):
        assert mg1_utilization(0.01, 50.0, 3) == pytest.approx(1.0)
        assert mg1_utilization(0.0, 50.0, 8) == 0.0

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            mg1_utilization(-0.1, 1.0, 2)
        with pytest.raises(ValueError):
            mg1_utilization(0.1, -1.0, 2)
        with pytest.raises(ValueError):
            mg1_utilization(0.1, 1.0, 0)

    @given(
        lam=st.floats(min_value=0.0, max_value=0.01),
        tau=st.floats(min_value=0.1, max_value=50.0),
        c=st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=200)
    def test_response_at_least_service(self, lam, tau, c):
        if mg1_utilization(lam, tau, c) < 1.0:
            assert mg1_response_time(lam, tau, c) >= tau

    @given(
        tau=st.floats(min_value=0.1, max_value=50.0),
        c=st.integers(min_value=2, max_value=8),
    )
    @settings(max_examples=100)
    def test_waiting_increases_with_rate(self, tau, c):
        lam_lo, lam_hi = 0.001, 0.002
        if mg1_utilization(lam_hi, tau, c) < 1.0:
            assert mg1_waiting_time(lam_lo, tau, c) <= mg1_waiting_time(lam_hi, tau, c)

    def test_queued_contribution_is_rate_weighted(self):
        lam, tau, c = 0.003, 40.0, 4
        assert queued_contribution(lam, tau, c) == pytest.approx(
            lam * mg1_response_time(lam, tau, c)
        )


class TestBarrier:
    def test_cycle_time(self):
        assert barrier_cycle_time(0.5, 1) == pytest.approx(2.0)
        assert barrier_cycle_time(0.5, 2) == pytest.approx(3.0)  # H_2/0.5

    def test_wait_time_zero_for_one_process(self):
        assert barrier_wait_time(0.5, 1) == 0.0

    def test_wait_time_matches_harmonic(self):
        lam = 0.25
        for c in (2, 3, 8):
            expected = (harmonic_number(c) - 1.0) / lam
            assert barrier_wait_time(lam, c) == pytest.approx(expected)

    def test_barrier_term(self):
        assert barrier_term(1) == 0.0
        assert barrier_term(2) == pytest.approx(0.5)
        assert barrier_term(4) == pytest.approx(0.5 + 1 / 3 + 0.25)

    def test_barrier_term_is_cached_on_population(self):
        first = barrier_term(24)
        assert first == harmonic_number(24) - 1.0
        assert barrier_term(24) is first
        for _ in range(2):  # a rejected population is never cached
            with pytest.raises(ValueError):
                barrier_term(0)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            barrier_cycle_time(0.0, 2)
        with pytest.raises(ValueError):
            barrier_cycle_time(0.5, 0)
        with pytest.raises(ValueError):
            barrier_term(0)

    @given(c=st.integers(min_value=2, max_value=64))
    def test_wait_grows_with_population(self, c):
        assert barrier_wait_time(1.0, c + 1) > barrier_wait_time(1.0, c)


class TestExpectedMaxExponential:
    """The generalized barrier order statistic (heterogeneous barriers)."""

    @given(lam=st.floats(min_value=1e-6, max_value=1e6),
           pop=st.integers(min_value=1, max_value=64))
    @settings(max_examples=60, deadline=None)
    def test_equal_rates_bit_identical_to_paper_form(self, lam, pop):
        from repro.core.contention import expected_max_exponential

        # Bitwise: the homogeneous path must dispatch, not approximate.
        assert expected_max_exponential([lam] * pop) == barrier_cycle_time(lam, pop)
        assert expected_max_exponential([lam], counts=[pop]) == barrier_cycle_time(
            lam, pop
        )

    def test_two_rates_match_hand_inclusion_exclusion(self):
        from repro.core.contention import expected_max_exponential

        a, b = 1.0, 3.0
        # E[max(Exp(a), Exp(b))] = 1/a + 1/b - 1/(a+b).
        expect = 1 / a + 1 / b - 1 / (a + b)
        assert expected_max_exponential([a, b]) == pytest.approx(expect, rel=1e-12)

    def test_simpson_path_agrees_with_exact(self):
        from fractions import Fraction
        from itertools import product

        from repro.core.contention import _EXACT_MAX_TERMS, expected_max_exponential

        # 71 x 71 inclusion-exclusion terms blow the exact budget and
        # force the quadrature path; re-derive the exact alternating
        # sum here in Fraction arithmetic as the reference.
        rates, counts = [1.0, 2.0], [70, 70]
        assert (counts[0] + 1) * (counts[1] + 1) > _EXACT_MAX_TERMS
        frs = [Fraction(r) for r in rates]
        acc = Fraction(0)
        for combo in product(*(range(m + 1) for m in counts)):
            j = sum(combo)
            if j == 0:
                continue
            coeff = 1
            for m, k in zip(counts, combo):
                coeff *= math.comb(m, k)
            term = Fraction(coeff) / sum(f * k for f, k in zip(frs, combo))
            acc += term if j % 2 else -term
        simpson = expected_max_exponential(rates, counts)
        assert simpson == pytest.approx(float(acc), rel=1e-12)

    @given(rs=st.lists(st.sampled_from([0.5, 1.0, 2.0, 5.0]), min_size=1,
                       max_size=5))
    @settings(max_examples=60, deadline=None)
    def test_at_least_the_slowest_mean(self, rs):
        from repro.core.contention import expected_max_exponential

        # E[max] >= max of the individual means = 1/min(rates).
        assert expected_max_exponential(rs) >= 1.0 / min(rs) - 1e-12

    def test_adding_a_variable_never_decreases_the_max(self):
        from repro.core.contention import expected_max_exponential

        base = expected_max_exponential([1.0, 2.0])
        assert expected_max_exponential([1.0, 2.0, 4.0]) > base

    def test_rejects_bad_rates(self):
        from repro.core.contention import expected_max_exponential

        with pytest.raises(ValueError, match="positive"):
            expected_max_exponential([1.0, 0.0])
        with pytest.raises(ValueError, match="align"):
            expected_max_exponential([1.0], counts=[1, 2])
        with pytest.raises(ValueError, match="at least one"):
            expected_max_exponential([])


class TestGeneralizedBarrierTerms:
    @given(lam=st.floats(min_value=1e-3, max_value=1e3),
           pop=st.integers(min_value=1, max_value=32))
    @settings(max_examples=60, deadline=None)
    def test_equal_rates_collapse_to_barrier_term(self, lam, pop):
        from repro.core.contention import generalized_barrier_terms

        out = generalized_barrier_terms([lam], counts=[pop])
        assert out == (barrier_term(pop),)

    @given(rs=st.lists(st.sampled_from([0.25, 1.0, 3.0, 8.0]), min_size=2,
                       max_size=5))
    @settings(max_examples=60, deadline=None)
    def test_nonnegative_and_faster_groups_wait_more(self, rs):
        from repro.core.contention import generalized_barrier_terms

        terms = generalized_barrier_terms(rs)
        assert all(b >= 0.0 for b in terms)
        # b_g = lam_g E[max] - 1 is monotone in lam_g: a faster group
        # (higher barrier-arrival rate) strictly waits longer.
        for (ra, ba), (rb, bb) in zip(zip(rs, terms), zip(rs[1:], terms[1:])):
            if ra < rb:
                assert ba <= bb
            elif ra > rb:
                assert ba >= bb
            else:
                assert ba == bb

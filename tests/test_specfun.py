"""Special-function kernel tests against independent oracles."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from gaussbayes import specfun
from gaussbayes.specfun import (DomainError, RangeError, bessel_i, bessel_i_log_scaled,
                                bessel_i_scaled_row, bessel_i_scaled_rows)


def series_oracle(n, x, terms=80):
    """Plain power series sum_k (x/2)^(n+2k) / (k! (n+k)!), summed directly.

    80 terms reach machine precision for |x| <= 30 while keeping the exact
    integer factorials convertible to float.
    """
    total = 0.0
    for k in range(terms):
        total += (x / 2.0) ** (n + 2 * k) / (math.factorial(k) * math.factorial(n + k))
    return total


# frozen from the power-series oracle: sum_k 1/(k!(k+1)!)
I1_AT_2 = 1.5906368546373291


class TestBesselI:
    def test_zero_argument(self):
        assert bessel_i(0, 0.0) == 1.0
        assert bessel_i(3, 0.0) == 0.0

    def test_order_symmetry(self):
        assert bessel_i(3, 1.7) == bessel_i(-3, 1.7)

    def test_power_series_oracle(self):
        assert bessel_i(1, 2.0) == pytest.approx(I1_AT_2, rel=1e-14)
        assert series_oracle(1, 2.0) == pytest.approx(I1_AT_2, rel=1e-15)
        for n, x in [(0, 0.5), (2, 7.0), (5, 13.0), (11, 24.0)]:
            assert bessel_i(n, x) == pytest.approx(series_oracle(n, x), rel=1e-12)

    def test_negative_argument_parity(self):
        assert bessel_i(2, -4.0) == pytest.approx(series_oracle(2, 4.0), rel=1e-12)
        assert bessel_i(3, -4.0) == pytest.approx(-series_oracle(3, 4.0), rel=1e-12)

    def test_large_argument_against_scipy(self):
        iv = pytest.importorskip("scipy.special").iv
        for n, x in [(0, 40.0), (4, 80.0), (12, 300.0), (2, 600.0)]:
            assert bessel_i(n, x) == pytest.approx(float(iv(n, x)), rel=1e-11)

    def test_overflow_signals_range_error(self):
        with pytest.raises(RangeError):
            bessel_i(0, 800.0)

    def test_order_out_of_range(self):
        with pytest.raises(DomainError):
            bessel_i(10**6 + 1, 1.0)
        with pytest.raises(DomainError):
            bessel_i_log_scaled(-(10**6 + 1), 1.0)

    @staticmethod
    def _no_rows(x, nmax):
        raise AssertionError("recurrence run")

    def test_underflowing_order_skips_the_recurrence(self, monkeypatch):
        monkeypatch.setattr(specfun, "bessel_i_scaled_rows", self._no_rows)
        assert bessel_i(10**5, 1.0) == 0.0
        assert bessel_i_log_scaled(-1200, 600.0) == 0.0
        with pytest.raises(DomainError):
            bessel_i(10**6 + 1, 1e-300)

    @pytest.mark.parametrize("x,n0", [(1e-3, 69), (1.0, 157), (600.0, 1021)])
    def test_shortcut_starts_where_the_value_underflows(self, x, n0, monkeypatch):
        # n0 is the first order the bound sends to 0.0: its value rounds to
        # 0 in 40 digits, and the order below still runs the recurrence
        from mpmath import besseli, exp, mp
        with mp.workdps(40):
            assert float(besseli(n0, x) * exp(-x)) == 0.0
            below = float(besseli(n0 - 1, x) * exp(-x))
        assert bessel_i_log_scaled(n0 - 1, x) == pytest.approx(below, rel=1e-10, abs=5e-324)
        monkeypatch.setattr(specfun, "bessel_i_scaled_rows", self._no_rows)
        assert bessel_i_log_scaled(n0, x) == 0.0
        with pytest.raises(AssertionError, match="recurrence"):
            bessel_i_log_scaled(n0 - 1, x)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(-20, 20), st.floats(-30.0, 30.0))
    @example(0, 5e-324)  # the smallest subnormal: x/2 underflows to 0
    @example(1, 5e-324)
    def test_parity_identity(self, n, x):
        a = bessel_i(n, x)
        b = (-1.0) ** n * bessel_i(n, -x)
        assert a == pytest.approx(b, rel=1e-10, abs=1e-300)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 15), st.floats(0.1, 30.0))
    def test_recurrence(self, n, x):
        lhs = bessel_i(n - 1, x) - bessel_i(n + 1, x)
        rhs = (2.0 * n / x) * bessel_i(n, x)
        assert lhs == pytest.approx(rhs, rel=1e-8)


class TestScaled:
    def test_zero(self):
        assert bessel_i_log_scaled(0, 0.0) == 1.0

    def test_asymptotic_oracle(self):
        # e^{-x} I_0(x) ~ (1 + 1/(8x)) / sqrt(2 pi x)
        oracle = (1.0 + 1.0 / 400.0) / math.sqrt(2.0 * math.pi * 50.0)
        assert bessel_i_log_scaled(0, 50.0) == pytest.approx(oracle, rel=1e-3)

    def test_negative_argument(self):
        expected = math.exp(-4.0) * series_oracle(2, 4.0)
        assert bessel_i_log_scaled(2, -4.0) == pytest.approx(expected, rel=1e-12)

    def test_finite_for_huge_arguments(self):
        val = bessel_i_log_scaled(3, 5000.0)
        assert 0.0 < val < 1.0

    def test_rows_match_scalar(self):
        for x in (-17.3, 0.0, 0.4, 9.0, 120.0):
            row = bessel_i_scaled_row(x, 12)
            for n in range(13):
                assert row[n] == pytest.approx(bessel_i_log_scaled(n, x),
                                               rel=1e-11, abs=1e-280)

    @pytest.mark.parametrize("x", [-24.9, 24.9, -25.1, 25.1, -1e-3, 1e-3, 0.0, 300.0])
    def test_scalar_is_one_row_entry(self, x):
        for n in (0, 1, 4, 9):
            assert bessel_i_log_scaled(n, x) == bessel_i_scaled_rows([x], n)[0, n]

    def test_rows_vectorized(self):
        xs = np.array([-6.0, 0.0, 2.5, 33.0])
        rows = bessel_i_scaled_rows(xs, 8)
        for i, x in enumerate(xs):
            np.testing.assert_allclose(rows[i], bessel_i_scaled_row(float(x), 8),
                                       rtol=1e-12, atol=1e-290)

    @settings(max_examples=200, deadline=None)
    @given(st.floats(5e-324, specfun.SMALL_ARG), st.integers(0, 40))
    @example(5e-324, 1)
    @example(1e-100, 3)
    @example(1.753698880558503e-152, 2)  # scipy's ive(2, x) returns 0.0 here
    def test_rows_at_tiny_arguments(self, x, nmax):
        # the backward recurrence overflows below ~1e-56; these rows come
        # from the two-term series (or, at SMALL_ARG, the recurrence)
        mpmath = pytest.importorskip("mpmath")
        rows = bessel_i_scaled_rows([x, -x], nmax)
        for n in range(nmax + 1):
            with mpmath.workdps(40):
                want = float(mpmath.besseli(n, x) * mpmath.exp(-x))
            assert rows[0, n] == pytest.approx(want, rel=1e-12, abs=1e-305)
            assert rows[1, n] == pytest.approx((-1.0) ** n * want, rel=1e-12, abs=1e-305)

    def test_small_branch_meets_recurrence(self):
        x = specfun.SMALL_ARG
        below = bessel_i_scaled_rows([x * (1.0 - 1e-12)], 9)[0]
        above = bessel_i_scaled_rows([x], 9)[0]
        np.testing.assert_allclose(below, above, rtol=1e-11)

    def test_nonfinite_row_raises(self, monkeypatch):
        monkeypatch.setattr(specfun, "_miller_scaled",
                            lambda xs, nmax: np.full((xs.size, nmax + 1), np.nan))
        with pytest.raises(DomainError):
            bessel_i_scaled_rows([1.0], 3)

    def test_tiny_arguments_downstream(self):
        from gaussbayes import phase
        assert phase.coherent_hom_outcome_density(1.0, 1e-200) == pytest.approx(
            phase.coherent_hom_outcome_density(1.0, 0.0), rel=1e-14)
        assert math.isfinite(phase.squeezed_het_posterior_variance(1.0, 0.5, 1e-170))


class TestJacobiAnger:
    def test_partial_sums_converge_monotonically(self):
        # e^{x cos t} = sum_n I_n(x) e^{i n t}; symmetric partial sums
        for x in (0.7, 5.0, 20.0):
            row = bessel_i_scaled_row(x, 80)
            for theta in (0.0, 0.9, 2.2):
                target = math.exp(x * (math.cos(theta) - 1.0))  # scaled by e^{-x}
                errs = []
                for cap in range(5, 80, 5):
                    partial = row[0] + 2.0 * sum(row[n] * math.cos(n * theta)
                                                 for n in range(1, cap + 1))
                    errs.append(abs(target - partial))
                assert errs[-1] < 1e-12
                slack = 1e-15 * math.exp(min(x, 1.0))
                assert all(b <= a + slack for a, b in zip(errs, errs[1:]))

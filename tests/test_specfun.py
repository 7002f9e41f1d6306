"""Special-function kernel tests against independent oracles."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from gaussbayes import specfun
from gaussbayes.specfun import (DomainError, RangeError, bessel_i, bessel_i_log_scaled,
                                bessel_i_scaled_rows)


def series_oracle(n, x, terms=80):
    """Plain power series sum_k (x/2)^(n+2k) / (k! (n+k)!), summed directly.

    80 terms reach machine precision for |x| <= 30 while keeping the exact
    integer factorials convertible to float.
    """
    total = 0.0
    for k in range(terms):
        total += (x / 2.0) ** (n + 2 * k) / (math.factorial(k) * math.factorial(n + k))
    return total


def old_start(x, nmax):
    """The start order of the rule the converged start replaced:
    b + 40 + ceil(2 sqrt(b + 1)), b = max(nmax, ceil(x))."""
    b = max(nmax, math.ceil(x))
    return b + 40 + math.ceil(2.0 * math.sqrt(b + 1.0))


def miller_row(x, nmax, start):
    """e^{-x} I_n(x), n = 0..nmax, x >= 0: the ratio recurrence of
    ``specfun._miller_scaled`` from order ``start``, in its operations and
    their order, on Python floats."""
    r = h = 0.0
    row = [0.0] * (nmax + 1)
    for k in range(start, 0, -1):
        r = x / (x * r + 2.0 * k)
        h = (h + 1.0) * r
        if k <= nmax:
            row[k] = r
    p = row[0] = 1.0 / (1.0 + 2.0 * h)
    for k in range(1, nmax + 1):
        p = row[k] = row[k] * p
    return np.array(row)


def old_rule_rows(xs, orders):
    """{(x, nmax): row} on the old start rule.  Orders that share a start
    (all those below ceil(x)) run the same operations down to order 1, so
    their rows are prefixes of the longest one's, which is run once."""
    rows = {}
    for x in xs:
        runs = {}
        for n in sorted(orders, reverse=True):
            start = old_start(x, n)
            if start not in runs:
                runs[start] = miller_row(x, n, start)
            rows[x, n] = runs[start][:n + 1]
    return rows


# the grid of the start-rule oracle: x from 0 and the smallest subnormal
# to the largest supported size, orders from 0 to 1000
GRID_XS = [0.0, 5e-324, 1e-300, 1e-100, 1e-10, 1e-3, 0.3, 1.0, 2.5, 7.0, 20.0, 60.0,
           200.0, 700.0, 3e3, 1e4, 1e5, 1e6]
GRID_ORDERS = [0, 1, 2, 3, 4, 6, 9, 14, 21, 33, 50, 75, 113, 170, 256, 384, 577, 866, 1000]


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
            row = bessel_i_scaled_rows([x], 12)[0]
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
            np.testing.assert_allclose(rows[i], bessel_i_scaled_rows([float(x)], 8)[0],
                                       rtol=1e-12, atol=1e-290)

    @settings(max_examples=200, deadline=None)
    @given(st.floats(5e-324, 1e-4), st.integers(0, 40))
    @example(5e-324, 1)
    @example(1e-100, 3)
    @example(1.753698880558503e-152, 2)  # scipy's ive(2, x) returns 0.0 here
    def test_rows_at_tiny_arguments(self, x, nmax):
        # the ratio recurrence cannot overflow: r_k = x / (2k + x r_{k+1})
        # is x / 2k to rounding here, down to the smallest subnormal
        mpmath = pytest.importorskip("mpmath")
        rows = bessel_i_scaled_rows([x, -x, 0.0], nmax)
        np.testing.assert_array_equal(rows[2], np.eye(1, nmax + 1)[0])
        for n in range(nmax + 1):
            with mpmath.workdps(40):
                want = float(mpmath.besseli(n, x) * mpmath.exp(-x))
            assert rows[0, n] == pytest.approx(want, rel=1e-12, abs=1e-305)
            assert rows[1, n] == pytest.approx((-1.0) ** n * want, rel=1e-12, abs=1e-305)

    def test_rows_do_not_depend_on_the_batch(self):
        # each argument runs the recurrence from its own start order: a
        # large argument appended to the batch changes no other row's bits
        xs = np.random.default_rng(3).uniform(0.1, 20.0, 2000)
        alone = bessel_i_scaled_rows(xs, 10)
        with_large = bessel_i_scaled_rows(np.append(xs, 300.0), 10)
        assert np.sum(np.any(with_large[:-1] != alone, axis=1)) == 0

    @pytest.mark.parametrize("nmax", [0, 1, 9, 60])
    def test_mixed_batch_equals_rows_alone(self, nmax):
        xs = np.array([0.0, 5e-324, 1e-300, -1e-4, 1e-4, -2.5, 7.0, -40.0, 300.0, 0.0, 704.2])
        batch = bessel_i_scaled_rows(xs, nmax)
        for x, row in zip(xs, batch):
            np.testing.assert_array_equal(row, bessel_i_scaled_rows([x], nmax)[0])

    @settings(max_examples=60, deadline=None)
    @given(st.floats(-1e4, 1e4), st.integers(0, 300))
    @example(5e-324, 300)
    @example(-5e-324, 1)
    @example(1e-300, 7)
    @example(-1e-300, 0)
    @example(0.0, 300)
    @example(1e4, 300)
    @example(-1e4, 0)
    def test_one_argument_row_is_its_batch_row(self, x, nmax):
        # one argument runs the recurrence on Python floats: the same
        # operations in the same order as in a batch, so the same bits
        batch = bessel_i_scaled_rows([0.3, x, -17.0], nmax)
        assert bessel_i_scaled_rows([x], nmax)[0].tobytes() == batch[1].tobytes()

    def test_one_argument_row_calls_no_numpy_divide(self, monkeypatch):
        calls = []
        divide = np.divide

        def counting(*args, **kwargs):
            calls.append(args)
            return divide(*args, **kwargs)

        monkeypatch.setattr(np, "divide", counting)
        bessel_i_scaled_rows([50.0], 200)
        assert calls == []
        bessel_i_scaled_rows([50.0, 1.0], 200)
        assert calls

    @pytest.fixture(scope="class")
    def old_rows(self):
        return old_rule_rows(GRID_XS, GRID_ORDERS)

    def test_start_rule_keeps_the_old_rows_on_one_argument(self, old_rows):
        # the start n0 + ceil(40 / log1p(n0 / x)) damps the start error by
        # e^-80, far below rounding: every bit of the old rule's rows holds
        for (x, n), want in old_rows.items():
            assert bessel_i_scaled_rows([x], n)[0].tobytes() == want.tobytes(), (x, n)

    def test_start_rule_keeps_the_old_rows_on_a_batch(self, old_rows):
        # one batch of every (x, order) pair up to x = 1e5, each argument
        # at its own order; a batch runs one numpy pass per order, and
        # x = 1e6 would take a million of them
        pairs = [(x, n) for (x, n) in old_rows if x <= 1e5]
        rows = bessel_i_scaled_rows([x for x, _ in pairs], [n for _, n in pairs])
        for (x, n), row in zip(pairs, rows):
            assert row[:n + 1].tobytes() == old_rows[x, n].tobytes(), (x, n)

    def test_per_argument_orders_equal_separate_calls(self):
        rng = np.random.default_rng(11)
        xs = np.concatenate([[0.0, 5e-324, -5e-324, 1e-300, -1e-4], rng.uniform(-60.0, 60.0, 40),
                             [300.0, -704.2]])
        orders = rng.integers(0, 90, xs.size)
        orders[:3] = (0, 89, 1)
        rows = bessel_i_scaled_rows(xs, orders)
        assert rows.shape == (xs.size, orders.max() + 1)
        for x, n, row in zip(xs, orders, rows):
            assert row[:n + 1].tobytes() == bessel_i_scaled_rows([x], int(n))[0].tobytes()
            # past its own order a row holds zeros, -0.0 at the odd orders
            # of a negative argument (the parity sign)
            assert np.all(row[n + 1:] == 0.0)
        # one order broadcast over x, and one argument with an order array
        np.testing.assert_array_equal(bessel_i_scaled_rows(xs, [7]), bessel_i_scaled_rows(xs, 7))
        assert (bessel_i_scaled_rows([2.5], np.array([9])).tobytes()
                == bessel_i_scaled_rows([2.5], 9).tobytes())

    def test_empty_batch_keeps_its_width(self):
        assert bessel_i_scaled_rows([], 3).shape == (0, 4)
        assert bessel_i_scaled_rows([], []).shape == (0, 1)

    def test_order_array_out_of_range(self):
        with pytest.raises(DomainError):
            bessel_i_scaled_rows([1.0, 2.0], [3, 10**6 + 1])

    # a negative order raised IndexError, or gave an all-zero row where
    # e^-2 I_0(2) = 0.308
    @pytest.mark.parametrize("x,nmax", [([1.0], -1), ([1.0, 2.0], -1), ([1.0, 2.0], [2, -1]),
                                        ([1.0, 2.0], np.array([-3]))])
    def test_negative_order_raises(self, x, nmax):
        with pytest.raises(DomainError, match="order out of supported range"):
            bessel_i_scaled_rows(x, nmax)

    def test_rows_match_mpmath_across_orders_and_arguments(self):
        mpmath = pytest.importorskip("mpmath")
        xs = np.array([1e-3, 0.37, 2.0, 11.5, 48.0, 250.0])
        rows = bessel_i_scaled_rows(xs, 60)
        worst = 0.0
        with mpmath.workdps(40):
            for x, row in zip(xs, rows):
                for n in range(0, 61, 3):
                    want = float(mpmath.besseli(n, x) * mpmath.exp(-x))
                    if want > 1e-300:
                        worst = max(worst, abs(row[n] - want) / want)
        assert worst < 1e-13

    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf, 1e300, -1.000001e6])
    def test_argument_out_of_range_raises(self, x):
        # the recurrence would run |x| steps, or none once the start order
        # overflows an int64, where it would return the row of x = 0
        with pytest.raises(DomainError):
            bessel_i_scaled_rows([1.0, x], 3)
        with pytest.raises(DomainError):
            bessel_i_log_scaled(2, x)

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
            row = bessel_i_scaled_rows([x], 80)[0]
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

"""Special-function kernel: modified Bessel functions I_n of integer order.

Everything here is self-contained, so accuracy is set by the algorithm
below rather than by whatever a third-party library happens to do.  Every
value is an entry of a row of exponentially scaled values e^{-|x|} I_n(x),
n = 0..nmax, vectorized over x, from Miller's normalized backward
recurrence written for the ratios I_k / I_{k-1}, which cannot overflow
(Gautschi, SIAM Review 9, 24 (1967)); x = 0 gives the exact row
(1, 0, ..., 0).  A single argument, as in the per-outcome Bessel series,
runs the same recurrence in Python floats and gets the same bits.
Negative arguments go through the parity identity I_n(-x) = (-1)^n I_n(x).
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "RangeError",
    "DomainError",
    "bessel_i",
    "bessel_i_log_scaled",
    "bessel_i_scaled_row",
    "bessel_i_scaled_rows",
]

# exp(x) overflows IEEE double just above this
_EXP_OVERFLOW = 709.0

_MAX_ORDER = 10**6

_LOG_UNDERFLOW = -1075.0 * math.log(2.0)  # a double below e^this rounds to 0


class RangeError(OverflowError):
    """Unscaled evaluation would overflow (the e^|x| factor)."""


class DomainError(ValueError):
    """Argument outside the function's domain (e.g. a non-finite argument)."""


def _miller_scaled(xs: np.ndarray, nmax: int) -> np.ndarray:
    """e^{-x} I_n(x) for n = 0..nmax, x >= 0, vectorized over xs.

    Miller's backward recurrence in ratio form, which cannot overflow:
    r_k = I_k / I_{k-1} = x / (2k + x r_{k+1}) and
    h_k = sum_{j>=k} I_j / I_{k-1} = r_k (1 + h_{k+1}), both 0 above the
    start order b + 40 + ceil(2 sqrt(b + 1)), b = max(nmax, ceil(x)).
    Normalizing with I_0(x) + 2 sum_k I_k(x) = e^x gives
    e^{-x} I_0 = 1 / (1 + 2 h_1), and the running product of the ratios
    the other orders.  Each argument starts at its own order, so a row's
    bits do not depend on the rest of the batch.  A single argument runs
    the same operations in the same order on Python floats, which gives
    the same bits without a numpy call per order.
    """
    if xs.size == 1:
        x = float(xs[0])
        b = max(nmax, math.ceil(x))
        r = h = 0.0
        for k in range(b + 40 + math.ceil(2.0 * math.sqrt(b + 1.0)), nmax, -1):
            r = x / (x * r + 2.0 * k)
            h = (h + 1.0) * r
        row = [0.0] * (nmax + 1)
        for k in range(nmax, 0, -1):
            r = x / (x * r + 2.0 * k)
            h = (h + 1.0) * r
            row[k] = r
        p = row[0] = 1.0 / (1.0 + 2.0 * h)
        for k in range(1, nmax + 1):
            p = row[k] = row[k] * p
        return np.array([row])
    b = np.maximum(nmax, np.ceil(xs))
    start = (b + 40.0 + np.ceil(2.0 * np.sqrt(b + 1.0))).astype(np.int64)
    order = np.argsort(-start)
    x = xs[order]
    # the arguments active at order k, start >= k, are a prefix of x
    ks = np.arange(start.max(initial=0), 0, -1)
    active = x.size - np.searchsorted(start[order][::-1], ks)
    rows = np.empty((nmax + 1, x.size))
    r = np.zeros(x.size)
    h = np.zeros(x.size)
    m = 0
    for k, m_k in zip(ks.tolist(), active.tolist()):
        if m_k != m:
            m = m_k
            xk, rk, hk = x[:m], r[:m], h[:m]
        np.multiply(xk, rk, out=rk)
        rk += 2.0 * k
        np.divide(xk, rk, out=rk)
        hk += 1.0
        hk *= rk
        if k <= nmax:
            rows[k] = r
    rows[0] = 1.0 / (1.0 + 2.0 * h)
    np.multiply.accumulate(rows, axis=0, out=rows)
    out = np.empty((x.size, nmax + 1))
    out[order] = rows.T
    return out


def bessel_i_scaled_rows(x, nmax: int) -> np.ndarray:
    """Rows of e^{-|x|} I_n(x) for n = 0..nmax, vectorized over x.

    The parity sign for negative arguments is applied, so
    ``rows[i, n] == exp(-|x_i|) * I_n(x_i)`` for every real x_i.  Orders
    are nonnegative; use I_{-n} = I_n for negative orders.
    """
    if nmax > _MAX_ORDER:
        raise DomainError("order out of supported range")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    # the recurrence starts above |x|: bound its length as the order's
    if not np.all(np.abs(x) <= _MAX_ORDER):
        raise DomainError(f"bessel argument must be finite and at most {_MAX_ORDER:g} in size")
    out = _miller_scaled(np.abs(x), nmax)
    neg = x < 0.0
    if np.any(neg):
        out[neg] *= (-1.0) ** np.arange(nmax + 1)[None, :]
    if not np.all(np.isfinite(out)):
        raise DomainError("scaled Bessel rows are not finite")
    return out


def bessel_i_scaled_row(x: float, nmax: int) -> np.ndarray:
    """Single row of e^{-|x|} I_n(x), n = 0..nmax."""
    return bessel_i_scaled_rows([x], nmax)[0]


def bessel_i_log_scaled(n: int, x: float) -> float:
    """Exponentially scaled modified Bessel function e^{-|x|} I_n(x), the
    last entry of the row up to order |n|; finite for every finite x.
    Returns 0.0 at once where the power series' upper bound on its log,
    n (log|x| - log 2) - log n! + x^2/(4(n+1)) - |x|, lies below the
    underflow of a double (not log(|x|/2): |x|/2 is 0 at x = 5e-324)."""
    n = abs(int(n))
    if n > _MAX_ORDER:
        raise DomainError("order out of supported range")
    ax = abs(float(x))
    if ax != 0.0 and (n * (math.log(ax) - math.log(2.0)) - math.lgamma(n + 1.0)
                      + ax * ax / (4.0 * (n + 1)) - ax < _LOG_UNDERFLOW):
        return 0.0
    return float(bessel_i_scaled_rows([x], n)[0, n])


def bessel_i(n: int, x: float) -> float:
    """Modified Bessel function of the first kind I_n(x), integer order.

    Satisfies I_n = I_{-n} and I_n(-x) = (-1)^n I_n(x).  Raises
    :class:`RangeError` once the e^|x| scaling overflows.
    """
    x = float(x)
    if abs(x) > _EXP_OVERFLOW and math.isfinite(x):  # non-finite x: DomainError below
        raise RangeError(f"I_{n}({x}): e^|x| scaling overflows for |x| > {_EXP_OVERFLOW}")
    return bessel_i_log_scaled(n, x) * math.exp(abs(x))

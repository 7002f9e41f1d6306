"""Special-function kernel: modified Bessel functions I_n of integer order.

Everything here is self-contained, so accuracy is set by the algorithm
below rather than by whatever a third-party library happens to do.  Every
value is an entry of a row of exponentially scaled values e^{-|x|} I_n(x),
n = 0..nmax, vectorized over x, from Miller's normalized backward
recurrence written for the ratios I_k / I_{k-1}, which cannot overflow
(Gautschi, SIAM Review 9, 24 (1967)); x = 0 gives the exact row
(1, 0, ..., 0).  The recurrence starts at order
n0 + ceil(40 / log1p(n0 / x)), n0 = max(nmax, 1): by the ratio bound
I_k / I_{k-1} <= e^{-asinh(k/x)} (Amos, Math. Comp. 28, 239 (1974)) an
error at the start is damped by e^-80 or more before order nmax, and the
start never exceeds b + 40 + ceil(2 sqrt(b + 1)), b = max(nmax, ceil(x)),
the rule it replaced, whose rows it reproduces bit for bit.  ``nmax`` may
be one order per argument: one recurrence pass then serves rows of
different lengths, each with the bits of its own call.  A single argument,
as in the per-outcome Bessel series, runs the same recurrence in Python
floats and gets the same bits.  Negative arguments go through the parity
identity I_n(-x) = (-1)^n I_n(x).
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "RangeError",
    "DomainError",
    "bessel_i",
    "bessel_i_log_scaled",
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


def _miller_scaled(xs: np.ndarray, nmax) -> np.ndarray:
    """e^{-x} I_n(x) for n = 0..nmax, x >= 0, vectorized over xs.

    Miller's backward recurrence in ratio form, which cannot overflow:
    r_k = I_k / I_{k-1} = x / (2k + x r_{k+1}) and
    h_k = sum_{j>=k} I_j / I_{k-1} = r_k (1 + h_{k+1}), both 0 above the
    start order.  An error at the start is damped by
    prod r_k^2 <= e^{-2 sum asinh(k/x)} on the way down to n0 = max(nmax, 1),
    and asinh(y) >= log1p(y): so the start n0 + ceil(40 / log1p(n0/x))
    damps it by e^-80 or more, far below rounding.  The start never goes
    above b + 40 + ceil(2 sqrt(b + 1)), b = max(nmax, ceil(x)), the rule it
    replaced, whose rows it reproduces bit for bit.  Normalizing with
    I_0(x) + 2 sum_k I_k(x) = e^x gives e^{-x} I_0 = 1 / (1 + 2 h_1), and
    the running product of the ratios the other orders.

    ``nmax`` is an int, or one order per argument (an int array shaped
    like ``xs``): a row then has max(nmax) + 1 entries, zero past its own
    order.  Each argument starts at its own order, so a row's bits depend
    on its argument and order only, not on the rest of the batch.  A
    single argument runs the same operations in the same order on Python
    floats, which gives the same bits without a numpy call per order.
    """
    if xs.size == 1:
        x = float(xs[0])
        if isinstance(nmax, np.ndarray):
            nmax = int(nmax[0])
        b = max(nmax, math.ceil(x))
        start = b + 40 + math.ceil(2.0 * math.sqrt(b + 1.0))
        if x > 0.0:
            n0 = max(nmax, 1)
            start = min(start, n0 + math.ceil(40.0 / math.log1p(n0 / x)))
        r = h = 0.0
        for k in range(start, nmax, -1):
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
    orders = np.broadcast_to(nmax, xs.shape)
    width = (int(orders.max(initial=0)) if isinstance(nmax, np.ndarray) else nmax) + 1
    b = np.maximum(orders, np.ceil(xs))
    n0 = np.maximum(orders, 1)
    # x = 0 and a subnormal x send n0 / x to inf, and the start to n0
    with np.errstate(divide="ignore", over="ignore"):
        lead = np.ceil(40.0 / np.log1p(n0 / xs))
    start = np.minimum(b + 40.0 + np.ceil(2.0 * np.sqrt(b + 1.0)), n0 + lead).astype(np.int64)
    order = np.argsort(-start)
    x = xs[order]
    # the arguments active at order k, start >= k, are a prefix of x
    ks = np.arange(start.max(initial=0), 0, -1)
    active = x.size - np.searchsorted(start[order][::-1], ks)
    rows = np.empty((width, x.size))
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
        if k < width:
            rows[k] = r
    rows[0] = 1.0 / (1.0 + 2.0 * h)
    # a zero ratio just past an argument's own order zeroes the rest of
    # its row in the running product
    own = orders[order]
    short = np.flatnonzero(own < width - 1)
    rows[own[short] + 1, short] = 0.0
    for k in range(1, width):
        np.multiply(rows[k], rows[k - 1], out=rows[k])
    out = np.empty((x.size, width))
    out[order] = rows.T
    return out


def bessel_i_scaled_rows(x, nmax) -> np.ndarray:
    """Rows of e^{-|x|} I_n(x) for n = 0..nmax, vectorized over x.

    The parity sign for negative arguments is applied, so
    ``rows[i, n] == exp(-|x_i|) * I_n(x_i)`` for every real x_i.  Orders
    are nonnegative, and a negative one raises ``DomainError``; use
    I_{-n} = I_n for negative orders.  ``nmax`` is
    one order for every argument, or one per argument, broadcast over x:
    then each row has max(nmax) + 1 entries, those past its own order 0,
    and its other entries are those of a call with that order alone.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    low = top = nmax
    if not isinstance(nmax, (int, np.integer)):
        nmax = np.broadcast_to(np.asarray(nmax, dtype=np.int64), x.shape)
        low, top = nmax.min(initial=0), nmax.max(initial=0)
    if low < 0 or top > _MAX_ORDER:
        raise DomainError("order out of supported range")
    # the recurrence starts above |x|: bound its length as the order's
    if not np.all(np.abs(x) <= _MAX_ORDER):
        raise DomainError(f"bessel argument must be finite and at most {_MAX_ORDER:g} in size")
    out = _miller_scaled(np.abs(x), nmax)
    neg = x < 0.0
    if np.any(neg):
        out[neg] *= (-1.0) ** np.arange(out.shape[1])[None, :]
    if not np.all(np.isfinite(out)):
        raise DomainError("scaled Bessel rows are not finite")
    return out


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

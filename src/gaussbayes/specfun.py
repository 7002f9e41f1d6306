"""Special-function kernel: modified Bessel functions I_n of integer order.

Everything here is self-contained, so accuracy is set by the algorithm
below rather than by whatever a third-party library happens to do.  Every
value is an entry of a row of exponentially scaled values e^{-|x|} I_n(x),
n = 0..nmax, vectorized over x: below SMALL_ARG two power-series terms,
beyond it a normalized backward (Miller) recurrence.  Negative arguments
go through the parity identity I_n(-x) = (-1)^n I_n(x).
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

# Below this argument two power-series terms give I_n to rounding (the
# third is under eps/2 relative), and the backward recurrence, which
# overflows in p * 2k/x below x ~ 1e-56, is not used.
SMALL_ARG = 1e-4

# exp(x) overflows IEEE double just above this
_EXP_OVERFLOW = 709.0

_MAX_ORDER = 10**6

_LOG_UNDERFLOW = -1075.0 * math.log(2.0)  # a double below e^this rounds to 0


class RangeError(OverflowError):
    """Unscaled evaluation would overflow (the e^|x| factor)."""


class DomainError(ValueError):
    """Argument outside the function's domain (e.g. a non-finite argument)."""


def _miller_start_order(nmax: int, xmax: float) -> int:
    big = max(nmax, int(math.ceil(xmax)))
    return big + 40 + int(math.ceil(2.0 * math.sqrt(big + 1.0)))


def _miller_scaled(xs: np.ndarray, nmax: int) -> np.ndarray:
    """e^{-x} I_n(x) for n = 0..nmax, x > 0, vectorized over xs.

    Normalized backward recurrence: run p_{k-1} = p_{k+1} + (2k/x) p_k
    down from a start order well above max(nmax, x), then normalize with
    I_0(x) + 2 sum_k I_k(x) = e^x.
    """
    xs = np.asarray(xs, dtype=float)
    mstart = _miller_start_order(nmax, float(xs.max()))
    p_hi = np.zeros_like(xs)
    p = np.full_like(xs, 1e-280)
    rows = np.zeros((xs.size, nmax + 1))
    norm = np.zeros_like(xs)
    inv_x = 1.0 / xs
    for k in range(mstart, 0, -1):
        p_lo = p_hi + (2.0 * k) * inv_x * p
        p_hi, p = p, p_lo
        if k - 1 <= nmax:
            rows[:, k - 1] = p
        norm += 2.0 * p if k > 1 else p
        big = p > 1e250
        if np.any(big):
            shrink = np.where(big, 1e-250, 1.0)
            p = p * shrink
            p_hi = p_hi * shrink
            norm = norm * shrink
            rows *= shrink[:, None]
    return rows / norm[:, None]


def _small_scaled(xs: np.ndarray, nmax: int) -> np.ndarray:
    """e^{-x} I_n(x) for n = 0..nmax and 0 <= x < SMALL_ARG, vectorized:
    e^{-x} (x/2)^n / n! (1 + x^2 / (4(n+1))).  The leading factor is taken
    in log space as n (log x - log 2): x/2 underflows to 0 for the smallest
    subnormal x, where I_0(x) = 1 is still well defined."""
    n = np.arange(nmax + 1)
    lgam = np.array([math.lgamma(k + 1.0) for k in n])
    x = xs[:, None]
    with np.errstate(divide="ignore", invalid="ignore", under="ignore"):
        lead = np.exp(n * (np.log(x) - math.log(2.0)) - lgam)
    lead[:, 0] = 1.0  # 0 * log 0 is nan at x = 0
    return lead * (1.0 + 0.25 * x * x / (n + 1.0)) * np.exp(-x)


def bessel_i_scaled_rows(x, nmax: int) -> np.ndarray:
    """Rows of e^{-|x|} I_n(x) for n = 0..nmax, vectorized over x.

    The parity sign for negative arguments is applied, so
    ``rows[i, n] == exp(-|x_i|) * I_n(x_i)`` for every real x_i.  Orders
    are nonnegative; use I_{-n} = I_n for negative orders.
    """
    if nmax > _MAX_ORDER:
        raise DomainError("order out of supported range")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if not np.all(np.isfinite(x)):
        raise DomainError("bessel argument must be finite")
    out = np.zeros((x.size, nmax + 1))
    ax = np.abs(x)
    small = ax < SMALL_ARG
    if np.any(small):
        out[small] = _small_scaled(ax[small], nmax)
    if not np.all(small):
        out[~small] = _miller_scaled(ax[~small], nmax)
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

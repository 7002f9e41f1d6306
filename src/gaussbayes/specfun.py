"""Special-function kernel: modified Bessel functions I_n, the confluent
hypergeometric limit function 0F1, and the gamma function.

Everything here is self-contained (power series, backward recurrence,
asymptotics) so that accuracy is controlled by an explicit truncation
policy rather than by whatever a third-party library happens to do.
Integer-order I_n is evaluated by power series for small arguments and by
a normalized backward (Miller) recurrence on exponentially scaled values
beyond that; negative arguments go through the parity identity
I_n(-x) = (-1)^n I_n(x) to avoid alternating-series cancellation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SeriesControl",
    "DEFAULT_CONTROL",
    "TruncationError",
    "RangeError",
    "DomainError",
    "bessel_i",
    "bessel_i_log_scaled",
    "bessel_i_scaled_row",
    "bessel_i_scaled_rows",
    "hyp0f1",
    "gamma_fn",
]

# Branch point between the power series and the scaled recurrence.  Chosen
# so that both branches agree to better than 1e-9 in an overlap test.
SERIES_CUTOFF = 25.0

# Below this argument two power-series terms give I_n to rounding (the
# third is under eps/2 relative), and the backward recurrence, which
# overflows in p * 2k/x below x ~ 1e-56, is not used.
SMALL_ARG = 1e-4

# exp(x) overflows IEEE double just above this
_EXP_OVERFLOW = 709.0


class TruncationError(RuntimeError):
    """A series did not converge within the allowed number of terms."""


class RangeError(OverflowError):
    """Unscaled evaluation would overflow (the e^|x| factor)."""


class DomainError(ValueError):
    """Argument outside the function's domain (e.g. a gamma pole)."""


@dataclass(frozen=True)
class SeriesControl:
    """Truncation policy for the series in this module.

    A series is accepted once the relative contribution of a term stays
    below ``rel_tol`` for three consecutive terms (guards against even/odd
    terms vanishing identically), or once terms fall below the underflow
    floor ``abs_tol``.
    """

    max_terms: int = 500
    rel_tol: float = 1e-12
    abs_tol: float = 1e-300

    def __post_init__(self):
        if self.max_terms < 1:
            raise ValueError("max_terms must be >= 1")
        if self.rel_tol <= 0 or self.abs_tol <= 0:
            raise ValueError("tolerances must be positive")


DEFAULT_CONTROL = SeriesControl()


def _series_i(n: int, x: float, ctl: SeriesControl) -> float:
    """Power series for I_n(x), n >= 0, x >= 0."""
    if x == 0.0:
        return 1.0 if n == 0 else 0.0
    # leading coefficient (x/2)^n / n! in log space; may underflow for huge n.
    # log x - log 2, not log(x/2): x/2 underflows to 0 for the smallest
    # subnormal x, where I_0(x) = 1 is still well defined.
    log_lead = n * (math.log(x) - math.log(2.0)) - math.lgamma(n + 1.0)
    if log_lead < -745.0:
        return 0.0
    lead = math.exp(log_lead)
    term = 1.0
    total = 1.0
    quarter_x2 = 0.25 * x * x
    small_count = 0
    for k in range(1, ctl.max_terms + 1):
        term *= quarter_x2 / (k * (n + k))
        total += term
        if term < ctl.rel_tol * total or lead * term < ctl.abs_tol:
            small_count += 1
            if small_count >= 3:
                return lead * total
        else:
            small_count = 0
    raise TruncationError(
        f"I_{n}({x}) power series not converged after {ctl.max_terms} terms"
    )


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
    e^{-x} (x/2)^n / n! (1 + x^2 / (4(n+1))), the leading factor in log
    space as in ``_series_i``."""
    n = np.arange(nmax + 1)
    lgam = np.array([math.lgamma(k + 1.0) for k in n])
    x = xs[:, None]
    with np.errstate(divide="ignore", invalid="ignore", under="ignore"):
        lead = np.exp(n * (np.log(x) - math.log(2.0)) - lgam)
    lead[:, 0] = 1.0  # 0 * log 0 is nan at x = 0
    return lead * (1.0 + 0.25 * x * x / (n + 1.0)) * np.exp(-x)


def bessel_i_scaled_rows(x, nmax: int, ctl: SeriesControl = DEFAULT_CONTROL) -> np.ndarray:
    """Rows of e^{-|x|} I_n(x) for n = 0..nmax, vectorized over x.

    The parity sign for negative arguments is applied, so
    ``rows[i, n] == exp(-|x_i|) * I_n(x_i)`` for every real x_i.  Orders
    are nonnegative; use I_{-n} = I_n for negative orders.
    """
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


def bessel_i_scaled_row(x: float, nmax: int, ctl: SeriesControl = DEFAULT_CONTROL) -> np.ndarray:
    """Single row of e^{-|x|} I_n(x), n = 0..nmax."""
    return bessel_i_scaled_rows([x], nmax, ctl)[0]


def bessel_i_log_scaled(n: int, x: float, ctl: SeriesControl = DEFAULT_CONTROL) -> float:
    """Exponentially scaled modified Bessel function e^{-|x|} I_n(x).

    Finite for every finite x; this is the workhorse behind the series
    summations elsewhere in the package.
    """
    n = abs(int(n))
    x = float(x)
    if not math.isfinite(x):
        raise DomainError("bessel argument must be finite")
    sign = (-1.0) ** n if x < 0.0 else 1.0
    ax = abs(x)
    if ax <= SERIES_CUTOFF:
        return sign * _series_i(n, ax, ctl) * math.exp(-ax)
    return sign * float(_miller_scaled(np.array([ax]), n)[0, n])


def bessel_i(n: int, x: float, ctl: SeriesControl = DEFAULT_CONTROL) -> float:
    """Modified Bessel function of the first kind I_n(x), integer order.

    Satisfies I_n = I_{-n} and I_n(-x) = (-1)^n I_n(x).  Raises
    :class:`RangeError` once the e^|x| scaling overflows.
    """
    n = abs(int(n))
    if abs(n) > 10**6:
        raise DomainError("order out of supported range")
    x = float(x)
    if not math.isfinite(x):
        raise DomainError("bessel argument must be finite")
    sign = (-1.0) ** n if x < 0.0 else 1.0
    ax = abs(x)
    if ax <= SERIES_CUTOFF:
        return sign * _series_i(n, ax, ctl)
    if ax > _EXP_OVERFLOW:
        raise RangeError(f"I_{n}({x}): e^|x| scaling overflows for |x| > {_EXP_OVERFLOW}")
    return sign * float(_miller_scaled(np.array([ax]), n)[0, n]) * math.exp(ax)


def hyp0f1(b: float, z: float, ctl: SeriesControl = DEFAULT_CONTROL) -> float:
    """Confluent hypergeometric limit function 0F1(b; z).

    Power series sum_k z^k / ((b)_k k!); b must not be a non-positive
    integer.
    """
    b = float(b)
    z = float(z)
    if b <= 0.0 and b == int(b):
        raise DomainError(f"0F1 undefined at non-positive integer b={b}")
    term = 1.0
    total = 1.0
    small_count = 0
    for k in range(ctl.max_terms):
        term *= z / ((b + k) * (k + 1.0))
        total += term
        if abs(term) < ctl.rel_tol * abs(total) or abs(term) < ctl.abs_tol:
            small_count += 1
            if small_count >= 3:
                return total
        else:
            small_count = 0
    raise TruncationError(f"0F1({b}; {z}) not converged after {ctl.max_terms} terms")


def gamma_fn(z: float) -> float:
    """Euler gamma function for real z, poles excluded."""
    z = float(z)
    if z <= 0.0 and z == int(z):
        raise DomainError(f"gamma pole at z={z}")
    return math.gamma(z)

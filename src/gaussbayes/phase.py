"""Bayesian phase estimation with flat priors.

Coherent probes with heterodyne detection have closed forms throughout;
squeezed probes with heterodyne detection and coherent probes with
homodyne detection reduce to Bessel-function series; squeezed probes with
homodyne detection are handled purely numerically by the generic engine.

The squeezed-heterodyne series are stated as double sums over two
Jacobi-Anger indices.  One index is resummed in closed form here using
the addition theorem sum_k I_k(u) I_{n-k}(v) = I_n(u+v), which leaves a
single sum with all-positive terms.  The value is identical, but the
literal double sum loses up to e^{4 alpha |beta| tanh r} digits to
cancellation, which makes it unusable in double precision in part of the
supported parameter range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import specfun
from .bayes import (CIRCLE_GRID_NODES, GAUSS_LEGENDRE, AverageVariance, Circle,
                    GaussianOutcomeStrategy, GridDistribution, PriorRule,
                    _linear_outcome_rule, _quadrature_outcome_grid,
                    average_posterior_variance, gaussian_outcome_density, trapezoid)
from .measurement import Measurement, MeasurementKind
from .phasespace import ProbeSpec, gamma_qq

__all__ = [
    "TruncationError",
    "PhaseTask",
    "HET_SUPPORT",
    "HOM_SUPPORT",
    "flat_prior",
    "coherent_het_likelihood",
    "coherent_het_posterior_variance",
    "coherent_het_average_variance",
    "squeezed_het_likelihood",
    "squeezed_het_posterior_variance",
    "squeezed_het_average_variance",
    "squeezed_hom_likelihood",
    "coherent_hom_outcome_density",
    "coherent_hom_circular_moment",
    "HeterodynePhaseStrategy",
    "HomodynePhaseStrategy",
    "task_strategy",
    "average_variance_numeric",
]

HET_SUPPORT = Circle(-math.pi, math.pi)
HOM_SUPPORT = Circle(0.0, math.pi)


class TruncationError(RuntimeError):
    """A series tail exceeds its bound at the series' own index cutoff."""


# largest share of a series' sum its two outermost terms may carry
_TAIL_TOL = 1e-10
# largest share of a series' sum the rounding of its terms, eps sum |terms|,
# may carry: the harness cross-check tolerance
_CANCEL_TOL = 1e-6


def _hom_cutoff(a: float, b: float) -> int:
    """Index cutoff of the coherent-homodyne series in I_2n(a) I_n(b):
    Bessel terms decay once the order passes the argument, so
    N = ceil(4 + 2 max(|a|, |b|)) leaves a negligible tail."""
    return int(math.ceil(4.0 + 2.0 * max(abs(a), abs(b))))


def _sh_cutoff(alpha: float, r: float, rho_max: float) -> int:
    """Index cutoff for the resummed series: the n-th term couples I_n(u)
    with I_{2n}(v) at u = rho^2 tanh r, v = 2 alpha rho (1 - tanh r), so it
    dies as soon as either order outruns its argument; the smaller of the
    two scales bounds the sum.  The additive floor covers small arguments,
    where the factorial decay of I_n only reaches ~1e-10 past order ~14;
    the tail check still guards the result."""
    t = math.tanh(r)
    u_max = rho_max * rho_max * t
    v_max = 2.0 * alpha * rho_max * (1.0 - t)
    return int(math.ceil(14.0 + 2.5 * min(u_max, v_max / 2.0 + 2.0)))


def _half_range(terms):
    """Fold the terms t_n, n = 0..N along the last axis, of a series
    symmetric in n onto the half range, in place: weights 1, 2, ..., 2, so
    their sum is the full sum over n = -N..N."""
    terms[..., 1:] *= 2.0
    return terms


def _check_tail(terms, totals):
    """Raise TruncationError where the outermost terms exceed _TAIL_TOL of
    the total, or where the terms cancel so far that their rounding exceeds
    _CANCEL_TOL.  ``terms`` are the half-range terms of ``_half_range``:
    the last, 2 |t_N|, is the pair n = -N and n = N, and the sum of their
    magnitudes is sum |t_n| over the full range."""
    mag, totals = np.abs(terms), np.abs(totals)
    if np.any(mag[..., -1] > _TAIL_TOL * np.maximum(totals, 1e-300)):
        raise TruncationError(f"series tail exceeds {_TAIL_TOL:g} of the sum at the index cutoff")
    if np.any(np.finfo(float).eps * mag.sum(axis=-1) > _CANCEL_TOL * totals):
        raise TruncationError(f"series terms cancel: rounding exceeds {_CANCEL_TOL:g} of the sum")


def flat_prior(support: Circle, n: Optional[int] = None) -> GridDistribution:
    return GridDistribution.uniform(support, n)


@dataclass(frozen=True)
class PhaseTask:
    """Flat-prior phase estimation with a Gaussian probe.

    Heterodyne tasks live on [-pi, pi) and need a strictly positive
    displacement (a rotation-invariant probe carries no phase reference);
    probe squeezing, when present, is along the optimal direction psi=pi.
    Homodyne tasks live on [0, pi) and accept any squeezing angle.
    """

    probe: ProbeSpec
    measurement: Measurement

    def __post_init__(self):
        alpha = complex(self.probe.alpha)
        if alpha.imag != 0.0 or alpha.real < 0.0:
            raise ValueError("probe displacement must be real and >= 0")
        if self.measurement.kind is MeasurementKind.HETERODYNE:
            if alpha.real <= 0.0:
                raise ValueError("heterodyne phase estimation needs alpha > 0")
            if self.probe.s > 0.0 and not math.isclose(self.probe.psi, math.pi):
                raise ValueError("heterodyne probes are squeezed along psi = pi")

    @property
    def support(self) -> Circle:
        if self.measurement.kind is MeasurementKind.HETERODYNE:
            return HET_SUPPORT
        return HOM_SUPPORT


# ---------------------------------------------------------------------------
# coherent probe, heterodyne detection (closed forms)


def _het_moments(alpha: float, r: float, thetas):
    """Husimi mean alpha e^{-i theta} and covariance (vxx, vyy, vxy) of
    D(alpha) S(-r) |0> rotated by theta: R diag(vx, vy) R^T with R the
    rotation by -theta and vx, vy = (1 + e^{+-2r}) / 4."""
    half_sum = (math.cosh(2.0 * r) + 1.0) / 4.0
    half_diff = math.sinh(2.0 * r) / 4.0
    c2, s2 = np.cos(2.0 * thetas), np.sin(2.0 * thetas)
    cov = (half_sum + half_diff * c2, half_sum - half_diff * c2, -half_diff * s2)
    return alpha * np.exp(-1j * thetas), cov


def coherent_het_likelihood(alpha: float, beta: complex, thetas):
    """p(beta | theta) for a coherent probe: (1/pi) e^{-|e^{i theta} beta - alpha|^2}."""
    return squeezed_het_likelihood(alpha, 0.0, beta, thetas)


def coherent_het_posterior_variance(alpha: float, abs_beta: float) -> float:
    """Circular posterior variance I_1(k) / (k I_0(k)), k = 2 alpha |beta|."""
    k = 2.0 * alpha * abs_beta
    if k == 0.0:
        return 0.5
    # both factors grow like e^k; evaluate the ratio through scaled values
    i0, i1 = specfun.bessel_i_scaled_rows([k], 1)[0]
    return float(i1 / (k * i0))


def coherent_het_average_variance(alpha: float) -> float:
    """Average circular variance (1 - e^{-alpha^2}) / (2 alpha^2); 1/2 at alpha=0."""
    x = float(alpha) ** 2
    if x == 0.0:
        return 0.5
    return -math.expm1(-x) / (2.0 * x)


# ---------------------------------------------------------------------------
# squeezed probe, heterodyne detection (single-sum series)


def squeezed_het_likelihood(alpha: float, r: float, beta: complex, thetas):
    """p(beta | theta) for the probe D(alpha) S(-r) |0>."""
    return gaussian_outcome_density(complex(beta),
                                    *_het_moments(alpha, r, np.asarray(thetas, dtype=float)))


def _sh_rows(alpha, r, rho, n_max):
    """Scaled Bessel rows for the resummed series at radial nodes rho.

    Returns (rows_u, rows_v) with rows_u[:, n] = e^{-u} I_n(u) at
    u = rho^2 tanh r and rows_v[:, k] = e^{-v} I_k(v) at
    v = 2 alpha rho (1 - tanh r); both argument families are nonnegative,
    so every term in the sums below is positive.  Several radii run both
    families in one recurrence pass, each argument at its own order; one
    radius runs each on the Python-float path.
    """
    t = math.tanh(r)
    u = rho * rho * t
    v = 2.0 * alpha * rho * (1.0 - t)
    if rho.size == 1:
        return (specfun.bessel_i_scaled_rows(u, n_max),
                specfun.bessel_i_scaled_rows(v, 2 * n_max + 3))
    rows = specfun.bessel_i_scaled_rows(np.concatenate([u, v]),
                                        np.repeat([n_max, 2 * n_max + 3], rho.size))
    return rows[:rho.size, :n_max + 1], rows[rho.size:]


def _sh_terms(rows_u, rows_v, n_max: int):
    """Half-range terms, n = 0..n_max, of the two series symmetric in n:
    the normalization I_n(u) I_2n(v) and the variance series
    I_n(u) [2 I_2n(v) - I_|2n-2|(v) - I_2n+2(v)], scaled.  The variance
    series sums to 2 k (1 - <cos 2(theta - est)>), k the normalization sum."""
    v_even = rows_v[:, 0:2 * n_max + 3:2]  # I_0, I_2, ..., I_2N+2
    norm = rows_u * v_even[:, :-1]
    bracket = 2.0 * v_even[:, :-1]
    bracket[:, 1:] -= v_even[:, :-2]
    bracket[:, 0] -= v_even[:, 1]
    bracket -= v_even[:, 1:]
    bracket *= rows_u
    return _half_range(norm), _half_range(bracket)


def _sh_point(alpha, r, babs):
    """Normalization sum k and variance sum at one radius."""
    n_max = _sh_cutoff(alpha, r, babs)
    norm, var = _sh_terms(*_sh_rows(alpha, r, np.array([float(babs)]), n_max), n_max)
    k = norm.sum(axis=1)
    _check_tail(norm, k)
    return float(k[0]), float(var.sum())


def squeezed_het_posterior_variance(alpha: float, r: float, abs_beta: float) -> float:
    """Circular posterior variance at outcome radius |beta| (angle drops out)."""
    k, s = _sh_point(alpha, r, abs_beta)
    # <sin^2(theta - est)> = (1 - <cos 2(theta - est)>) / 2 = s / (4 k)
    return 0.25 * s / k


def _sh_radial_extent(alpha: float, r: float) -> float:
    # the outcome density decays as e^{-(1 - tanh r)(rho - alpha)^2}
    return alpha + 7.0 / math.sqrt(1.0 - math.tanh(r))


# level-0 radial nodes per 8 units of outcome radius, of the series and the
# engine alike
_RADIAL_BASE = 128


def _radial_rule(alpha: float, r: float, base: int, level: int):
    """Trapezoid nodes and weights on the outcome radius [0, extent]; the
    level-0 step stays comparable across extents, and each level halves it."""
    extent = _sh_radial_extent(alpha, r)
    return trapezoid(0.0, extent, base * max(1, math.ceil(extent / 8.0)) * 2**level + 1)


def squeezed_het_average_variance(alpha: float, r: float) -> AverageVariance:
    """Average circular posterior variance by radial quadrature of the series.

    Runs on the engine's radial rule, ``_radial_rule`` at ``_RADIAL_BASE``,
    the rule of ``HeterodynePhaseStrategy``, and on the engine's
    step-halving driver with one Richardson extrapolation, which evaluates
    the series once per radial node across levels (levels 0 and 1 in one
    call, one recurrence pass) and stops when the gap between two
    successive extrapolated values is within 1e-6 relative.
    Returns the driver's result with ``method="series"``: ``std_error`` is
    that gap, ``levels`` the levels it ran.  Raises ToleranceError carrying
    the last extrapolated value when level 4 does not get there.
    """
    n_max = _sh_cutoff(alpha, r, _sh_radial_extent(alpha, r))
    t = math.tanh(r)

    def integrand(rho):
        norm, var_terms = _sh_terms(*_sh_rows(alpha, r, rho, n_max), n_max)
        var_terms *= 0.5
        s = var_terms.sum(axis=1)
        # tail measured against the normalization sum: V_post = s/(2k) <= 1/2
        k = norm.sum(axis=1)
        _check_tail(var_terms, k)
        # p(rho) V_post(rho) 2 pi rho = rho e^{-(1-t)(rho-alpha)^2} s / cosh r
        return rho * np.exp(-(1.0 - t) * (rho - alpha) ** 2) * s / math.cosh(r)

    res = _quadrature_outcome_grid(lambda level: _radial_rule(alpha, r, _RADIAL_BASE, level),
                                   integrand, 1e-6, 4)
    return replace(res, method="series")


# ---------------------------------------------------------------------------
# coherent probe, homodyne detection (series); squeezed probe (numeric only)


def _hom_moments(alpha: float, r: float, phi_s: float, thetas):
    """q-homodyne mean sqrt2 alpha cos theta and variance gamma_qq(r, phi_s
    + 2 theta) / 2 of D(alpha) S(r e^{i phi_s}) |0> rotated by theta."""
    return math.sqrt(2.0) * alpha * np.cos(thetas), gamma_qq(r, phi_s + 2.0 * thetas) / 2.0


def squeezed_hom_likelihood(alpha: float, r: float, phi_s: float, q: float, thetas):
    """p(q | theta) for the probe D(alpha) S(r e^{i phi_s}) |0>."""
    return gaussian_outcome_density(q, *_hom_moments(alpha, r, phi_s,
                                                      np.asarray(thetas, dtype=float)))


def _hom_series(alpha, q):
    """Scaled Bessel rows e^{-|a|} I_k(a) and e^{-|b|} I_k(b) at
    a = 2 sqrt2 q alpha, b = -alpha^2, the index range n = -N..N, the
    tail-checked normalization sum over I_2n(a) I_n(b), and |a|, |b|."""
    a = 2.0 * math.sqrt(2.0) * q * alpha
    b = -alpha * alpha
    n_max = _hom_cutoff(a, b)
    rows_a = specfun.bessel_i_scaled_rows(a, 2 * n_max + 2)[0]
    rows_b = specfun.bessel_i_scaled_rows(b, n_max)[0]
    terms = _half_range(rows_a[0:2 * n_max + 1:2] * rows_b)
    total = float(terms.sum())
    _check_tail(terms, total)
    return rows_a, rows_b, np.arange(-n_max, n_max + 1), total, abs(a), abs(b)


def coherent_hom_outcome_density(alpha: float, q: float) -> float:
    """p(q) = e^{-q^2-alpha^2} sum_m I_{2m}(2 sqrt2 q alpha) I_m(-alpha^2) / sqrt(pi)."""
    _, _, _, total, ea, eb = _hom_series(alpha, q)
    return math.exp(-q * q - alpha * alpha + ea + eb) / math.sqrt(math.pi) * total


def coherent_hom_circular_moment(alpha: float, q: float) -> complex:
    """<e^{i theta}> under the posterior p(theta | q) on [0, pi].

    Real part: ratio of single Bessel sums.  Imaginary part: the double
    sum over m, n = -N..N of b_m a_n num/den, b_m = I_|m|(-alpha^2) and
    a_n = I_|2n|(2 sqrt2 q alpha) scaled, with the quartic integer
    denominator den = (4(n-m)^2 - 1)(4(n+m)^2 - 1) and
    num = 1 - 4m^2 - 4n^2.  num/den = -[K(n+m) + K(n-m)]/2 with
    K(d) = 1/(4d^2 - 1), and b is even in m, so the double sum is
    -b^T (K * a), one Toeplitz product (``np.convolve``) in O(N^2) flops
    without N^2 arrays.  The estimator is the argument of the returned
    complex number.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    rows_a, rows_b, n, norm, _, _ = _hom_series(alpha, q)
    re = float((rows_a[np.abs(2 * n + 1)] * rows_b[np.abs(n)]).sum()) / norm
    d = np.arange(1 - n.size, n.size, dtype=float)  # n - m = -2N..2N
    kern = 1.0 / (4.0 * d * d - 1.0)
    dbl = -float(rows_b[np.abs(n)] @ np.convolve(kern, rows_a[np.abs(2 * n)], mode="valid"))
    im = 2.0 / math.pi * dbl / norm
    return complex(re, im)


# ---------------------------------------------------------------------------
# strategies for the generic engine


class HeterodynePhaseStrategy(GaussianOutcomeStrategy):
    """Phase encoding on D(alpha) S(-r) |0> read out by heterodyne detection.

    Outcome moments as in ``squeezed_het_likelihood``.  Outcome quadrature runs over the radial
    coordinate only (``radial_outcomes``): on the flat prior on the full
    circle the posterior is covariant under rotations of beta, so the
    angular integral contributes a factor 2 pi |beta| (checked by the
    rotational-covariance property tests and against the full polar
    grid).  On any other prior quadrature raises ``PriorSymmetryError``;
    Monte Carlo, which draws beta in the plane, serves every prior.
    ``base_radial`` sets the level-0 radial node count; its default,
    ``_RADIAL_BASE``, is the rule of the Bessel series
    ``squeezed_het_average_variance``, so both lay the same radii.

    ``phase_symmetric``: the theta = 0 law has the real mean alpha and
    axes along x and y (vxy = 0), and theta rotates it by -theta.  So a
    real outcome x has the log-likelihood c0 + x gx + x^2 c3, even in
    theta, and on the flat prior of ``flat_prior`` (an even node count)
    the engine folds such rows onto the nodes theta > 0, exact to
    rounding since the midpoint nodes are +-(k + 1/2) h.  The radial
    outcomes fold as they are; Monte Carlo folds its draws beta as |beta|,
    which the rotation leaves with the same posterior spread.  |beta| has
    the same law at every theta, so where every prior count folds Monte
    Carlo draws no theta: it draws beta from the theta = 0 law, whose
    moments are (alpha, ((1 + e^{2r})/4, (1 + e^{-2r})/4, 0)).
    """

    phase_symmetric = True
    radial_outcomes = True

    def __init__(self, alpha: float, r: float = 0.0, base_radial: int = _RADIAL_BASE):
        if alpha <= 0:
            raise ValueError("alpha must be positive")
        self.alpha = float(alpha)
        self.r = float(r)
        self.base_radial = base_radial
        self.support = HET_SUPPORT
        super().__init__(lambda t: _het_moments(self.alpha, self.r, t), self._nodes,
                         dim=2, circular=True)

    def _nodes(self, level):
        rho, wr = _radial_rule(self.alpha, self.r, self.base_radial, level)
        return rho.astype(complex), 2.0 * math.pi * rho * wr


class HomodynePhaseStrategy(GaussianOutcomeStrategy):
    """Phase encoding on D(alpha) S(r e^{i phi_s}) |0> read out by q-homodyne,
    outcome moments as in ``squeezed_hom_likelihood``.

    The outcome rule is ``bayes._linear_outcome_rule`` on
    +-(sqrt2 alpha + 6 e^{|r|}/sqrt2 + 1), sized by the narrowest outcome
    sd over theta, e^{-|r|}/sqrt2: 128 level-0 nodes on every benchmark
    and config row (r <= 0.5 at n <= 4 photons), up to 512 on tighter
    squeezing."""

    def __init__(self, alpha: float, r: float = 0.0, phi_s: float = 0.0):
        self.alpha = float(alpha)
        self.r = float(r)
        self.phi_s = float(phi_s)
        self.support = HOM_SUPPORT
        extent = math.sqrt(2.0) * self.alpha + 6.0 * math.exp(abs(self.r)) / math.sqrt(2.0) + 1.0
        super().__init__(
            lambda t: _hom_moments(self.alpha, self.r, self.phi_s, t),
            _linear_outcome_rule(-extent, extent, math.exp(-abs(self.r)) / math.sqrt(2.0)),
            dim=1, circular=True)


def task_strategy(task: PhaseTask):
    alpha = complex(task.probe.alpha).real
    if task.measurement.kind is MeasurementKind.HETERODYNE:
        return HeterodynePhaseStrategy(alpha, task.probe.s)
    return HomodynePhaseStrategy(alpha, task.probe.s, task.probe.psi)


def average_variance_numeric(task: PhaseTask, method: str = "quadrature",
                             samples: int = 100_000,
                             rng: Optional[np.random.Generator] = None,
                             grid_nodes: Optional[int] = None,
                             rel_tol: float = 1e-6) -> AverageVariance:
    """Average circular posterior variance via the generic engine, on at
    most ``grid_nodes`` prior nodes (default ``bayes.CIRCLE_GRID_NODES``).

    Quadrature runs on the periodic midpoint rule on [-pi, pi) and on
    Gauss-Legendre nodes on [0, pi): the homodyne likelihood is not
    pi-periodic, so the midpoint rule is only second order there.
    """
    strategy = task_strategy(task)
    rule = GAUSS_LEGENDRE if task.support == HOM_SUPPORT else None
    n_max = CIRCLE_GRID_NODES if grid_nodes is None else grid_nodes
    return average_posterior_variance(strategy, PriorRule(task.support, None, n_max, rule),
                                      method=method, samples=samples, rng=rng, rel_tol=rel_tol)

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
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import specfun
from .bayes import (CIRCLE_GRID_NODES, GAUSS_LEGENDRE, AverageVariance, Circle,
                    GaussianOutcomeStrategy, GridDistribution, PriorRule,
                    _quadrature_outcome_grid, average_posterior_variance,
                    gaussian_outcome_density, midpoint, trapezoid)
from .measurement import Measurement, MeasurementKind
from .phasespace import ProbeSpec, gamma_qq

__all__ = [
    "TruncationError",
    "PhaseTask",
    "phase_of_outcome",
    "HET_SUPPORT",
    "HOM_SUPPORT",
    "flat_prior",
    "coherent_het_likelihood",
    "coherent_het_outcome_density",
    "coherent_het_posterior",
    "coherent_het_posterior_variance",
    "coherent_het_average_variance",
    "squeezed_het_likelihood",
    "squeezed_het_outcome_density",
    "squeezed_het_posterior_variance",
    "squeezed_het_estimator",
    "squeezed_het_average_variance",
    "coherent_hom_likelihood",
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


def _check_tail(terms, totals):
    """Raise TruncationError where the outermost terms (n = -N and n = N,
    the first and last along the last axis) exceed _TAIL_TOL of the total,
    or where the terms cancel so far that their rounding exceeds _CANCEL_TOL."""
    mag, totals = np.abs(terms), np.abs(totals)
    if np.any(mag[..., 0] + mag[..., -1] > _TAIL_TOL * np.maximum(totals, 1e-300)):
        raise TruncationError(f"series tail exceeds {_TAIL_TOL:g} of the sum at the index cutoff")
    if np.any(np.finfo(float).eps * mag.sum(axis=-1) > _CANCEL_TOL * totals):
        raise TruncationError(f"series terms cancel: rounding exceeds {_CANCEL_TOL:g} of the sum")


def phase_of_outcome(beta: complex) -> float:
    """phi_beta in the decomposition beta = |beta| e^{-i phi_beta}."""
    return -math.atan2(complex(beta).imag, complex(beta).real)


def _wrap(angle: float, support: Circle) -> float:
    return (angle - support.lo) % support.span + support.lo


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


def coherent_het_outcome_density(alpha: float, beta: complex) -> float:
    """p(beta) = e^{-(alpha^2+|beta|^2)} I_0(2 alpha |beta|) / pi."""
    babs = abs(complex(beta))
    i0 = specfun.bessel_i_scaled_row(2.0 * alpha * babs, 0)[0]
    return math.exp(-(alpha - babs) ** 2) * float(i0) / math.pi


def coherent_het_posterior(alpha: float, beta: complex) -> GridDistribution:
    """Posterior e^{2 alpha |beta| cos(theta - phi_beta)} / (2 pi I_0)."""
    babs = abs(complex(beta))
    phi = phase_of_outcome(beta)
    return GridDistribution.from_function(
        HET_SUPPORT, lambda t: np.exp(2.0 * alpha * babs * (np.cos(t - phi) - 1.0)))


def coherent_het_posterior_variance(alpha: float, abs_beta: float) -> float:
    """Circular posterior variance I_1(k) / (k I_0(k)), k = 2 alpha |beta|."""
    k = 2.0 * alpha * abs_beta
    if k == 0.0:
        return 0.5
    # both factors grow like e^k; evaluate the ratio through scaled values
    i0, i1 = specfun.bessel_i_scaled_row(k, 1)
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
    so every term in the sums below is positive.
    """
    t = math.tanh(r)
    u = rho * rho * t
    v = 2.0 * alpha * rho * (1.0 - t)
    rows_u = specfun.bessel_i_scaled_rows(u, n_max)
    rows_v = specfun.bessel_i_scaled_rows(v, 2 * n_max + 3)
    return rows_u, rows_v


def _sh_sum(rows_u, rows_v, order_shift: int, n_max: int):
    """Terms I_n(u) I_{|2n + shift|}(v), scaled, for |n| <= n_max."""
    n = np.arange(-n_max, n_max + 1)
    return rows_u[:, np.abs(n)] * rows_v[:, np.abs(2 * n + order_shift)]


def _sh_var_terms(rows_u, rows_v, n_max: int):
    """Terms I_n(u) [2 I_2n(v) - I_2n-2(v) - I_2n+2(v)], scaled, whose sum
    over n is 2 k (1 - <cos 2(theta - est)>) with k the normalization sum."""
    n = np.arange(-n_max, n_max + 1)
    bracket = (2.0 * rows_v[:, np.abs(2 * n)]
               - rows_v[:, np.abs(2 * n - 2)]
               - rows_v[:, np.abs(2 * n + 2)])
    return rows_u[:, np.abs(n)] * bracket


def _sh_point(alpha, r, babs):
    """Normalization sum k, the Bessel rows and the cutoff at one radius."""
    n_max = _sh_cutoff(alpha, r, babs)
    rows_u, rows_v = _sh_rows(alpha, r, np.array([float(babs)]), n_max)
    terms = _sh_sum(rows_u, rows_v, 0, n_max)
    k = terms.sum(axis=1)
    _check_tail(terms, k)
    return float(k[0]), rows_u, rows_v, n_max


def squeezed_het_outcome_density(alpha: float, r: float, beta: complex) -> float:
    """p(beta) for the squeezed probe as a Bessel series.

    Equals e^{-(1-t)(|beta|-alpha)^2} sum_n I_n(|beta|^2 t)
    I_{2n}(2 alpha |beta| (1-t)) / (pi cosh r) with t = tanh r; at r = 0
    only n = 0 survives and the coherent form is recovered.
    """
    babs = abs(complex(beta))
    k = _sh_point(alpha, r, babs)[0]
    t = math.tanh(r)
    return math.exp(-(1.0 - t) * (babs - alpha) ** 2) * k / (math.pi * math.cosh(r))


def squeezed_het_posterior_variance(alpha: float, r: float, abs_beta: float) -> float:
    """Circular posterior variance at outcome radius |beta| (angle drops out)."""
    k, rows_u, rows_v, n_max = _sh_point(alpha, r, abs_beta)
    # <sin^2(theta - est)> = (1 - <cos 2(theta - est)>) / 2 = sum / (4 k)
    return float(0.25 * _sh_var_terms(rows_u, rows_v, n_max).sum() / k)


def squeezed_het_estimator(alpha: float, r: float, beta: complex) -> Optional[float]:
    """Phase estimator arg <e^{i theta}>: phi_beta when the moment series is
    positive, phi_beta + pi when negative, None when it vanishes."""
    k, rows_u, rows_v, n_max = _sh_point(alpha, r, abs(complex(beta)))
    moment = float(_sh_sum(rows_u, rows_v, 1, n_max).sum())
    if k > 0:
        moment /= k
    if abs(moment) < 1e-12:
        return None
    phi = phase_of_outcome(beta)
    if moment < 0.0:
        phi += math.pi
    return _wrap(phi, HET_SUPPORT)


def _sh_radial_extent(alpha: float, r: float) -> float:
    # the outcome density decays as e^{-(1 - tanh r)(rho - alpha)^2}
    return alpha + 7.0 / math.sqrt(1.0 - math.tanh(r))


def _radial_rule(alpha: float, r: float, base: int, level: int):
    """Trapezoid nodes and weights on the outcome radius [0, extent]; the
    level-0 step stays comparable across extents, and each level halves it."""
    extent = _sh_radial_extent(alpha, r)
    return trapezoid(0.0, extent, base * max(1, math.ceil(extent / 8.0)) * 2**level + 1)


def squeezed_het_average_variance(alpha: float, r: float) -> float:
    """Average circular posterior variance by radial quadrature of the series.

    The engine's step-halving driver with one Richardson extrapolation to
    1e-6 relative, which evaluates the series once per radial node across
    levels; raises ToleranceError carrying the last value when level 4
    does not get there.
    """
    n_max = _sh_cutoff(alpha, r, _sh_radial_extent(alpha, r))
    t = math.tanh(r)

    def integrand(rho):
        rows_u, rows_v = _sh_rows(alpha, r, rho, n_max)
        var_terms = 0.5 * _sh_var_terms(rows_u, rows_v, n_max)
        s = var_terms.sum(axis=1)
        # tail measured against the normalization sum: V_post = s/(2k) <= 1/2
        k = _sh_sum(rows_u, rows_v, 0, n_max).sum(axis=1)
        _check_tail(var_terms, k)
        # p(rho) V_post(rho) 2 pi rho = rho e^{-(1-t)(rho-alpha)^2} s / cosh r
        return rho * np.exp(-(1.0 - t) * (rho - alpha) ** 2) * s / math.cosh(r)

    return _quadrature_outcome_grid(lambda level: _radial_rule(alpha, r, 512, level),
                                    integrand, 1e-6, 4).value


# ---------------------------------------------------------------------------
# coherent probe, homodyne detection (series); squeezed probe (numeric only)


def _hom_moments(alpha: float, r: float, phi_s: float, thetas):
    """q-homodyne mean sqrt2 alpha cos theta and variance gamma_qq(r, phi_s
    + 2 theta) / 2 of D(alpha) S(r e^{i phi_s}) |0> rotated by theta."""
    return math.sqrt(2.0) * alpha * np.cos(thetas), gamma_qq(r, phi_s + 2.0 * thetas) / 2.0


def coherent_hom_likelihood(alpha: float, q: float, thetas):
    """p(q | theta) = e^{-(q - sqrt2 alpha cos theta)^2} / sqrt(pi)."""
    return squeezed_hom_likelihood(alpha, 0.0, 0.0, q, thetas)


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
    n = np.arange(-n_max, n_max + 1)
    terms = rows_a[np.abs(2 * n)] * rows_b[np.abs(n)]
    total = float(terms.sum())
    _check_tail(terms, total)
    return rows_a, rows_b, n, total, abs(a), abs(b)


def coherent_hom_outcome_density(alpha: float, q: float) -> float:
    """p(q) = e^{-q^2-alpha^2} sum_m I_{2m}(2 sqrt2 q alpha) I_m(-alpha^2) / sqrt(pi)."""
    _, _, _, total, ea, eb = _hom_series(alpha, q)
    return math.exp(-q * q - alpha * alpha + ea + eb) / math.sqrt(math.pi) * total


def coherent_hom_circular_moment(alpha: float, q: float) -> complex:
    """<e^{i theta}> under the posterior p(theta | q) on [0, pi].

    Real part: ratio of single Bessel sums; imaginary part: double sum
    with the quartic integer denominator.  The estimator is the argument
    of the returned complex number.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    rows_a, rows_b, n, norm, _, _ = _hom_series(alpha, q)
    re = float((rows_a[np.abs(2 * n + 1)] * rows_b[np.abs(n)]).sum()) / norm
    nm, nn = np.meshgrid(n, n, indexing="ij")
    num = 1.0 - 4.0 * nm.astype(float) ** 2 - 4.0 * nn.astype(float) ** 2
    den = ((2 * nn - 2 * nm - 1) * (2 * nn - 2 * nm + 1)
           * (2 * nn + 2 * nm + 1) * (2 * nn + 2 * nm - 1)).astype(float)
    dbl = rows_b[np.abs(nm)] * rows_a[np.abs(2 * nn)] * num / den
    im = 2.0 / math.pi * float(dbl.sum()) / norm
    return complex(re, im)


# ---------------------------------------------------------------------------
# strategies for the generic engine


class HeterodynePhaseStrategy(GaussianOutcomeStrategy):
    """Phase encoding on D(alpha) S(-r) |0> read out by heterodyne detection.

    Outcome moments as in ``squeezed_het_likelihood``.  Outcome quadrature runs over the radial
    coordinate only: the posterior is covariant under rotations of beta,
    so the angular integral contributes a factor 2 pi |beta| (checked by
    the rotational-covariance property tests).  Setting
    ``angular_symmetry=False`` integrates the full polar grid instead, one
    radial rule per angle.
    """

    def __init__(self, alpha: float, r: float = 0.0, base_radial: int = 128,
                 angular_nodes: int = 256, angular_symmetry: bool = True):
        if alpha <= 0:
            raise ValueError("alpha must be positive")
        self.alpha = float(alpha)
        self.r = float(r)
        self.base_radial = base_radial
        self.angular_nodes = angular_nodes
        self.angular_symmetry = angular_symmetry
        self.outcome_rows = 1 if angular_symmetry else angular_nodes
        self.support = HET_SUPPORT
        super().__init__(lambda t: _het_moments(self.alpha, self.r, t), self._nodes,
                         dim=2, circular=True)

    def _nodes(self, level):
        rho, wr = _radial_rule(self.alpha, self.r, self.base_radial, level)
        if self.angular_symmetry:
            return rho.astype(complex), 2.0 * math.pi * rho * wr
        ang, wa = midpoint(-math.pi, math.pi, self.angular_nodes)
        betas = (np.exp(-1j * ang)[:, None] * rho[None, :]).ravel()
        weights = (wa[:, None] * (rho * wr)[None, :]).ravel()
        return betas, weights


class HomodynePhaseStrategy(GaussianOutcomeStrategy):
    """Phase encoding on D(alpha) S(r e^{i phi_s}) |0> read out by q-homodyne,
    outcome moments as in ``squeezed_hom_likelihood``."""

    def __init__(self, alpha: float, r: float = 0.0, phi_s: float = 0.0):
        self.alpha = float(alpha)
        self.r = float(r)
        self.phi_s = float(phi_s)
        self.support = HOM_SUPPORT
        extent = math.sqrt(2.0) * self.alpha + 6.0 * math.exp(abs(self.r)) / math.sqrt(2.0) + 1.0
        super().__init__(
            lambda t: _hom_moments(self.alpha, self.r, self.phi_s, t),
            lambda level: trapezoid(-extent, extent, 512 * 2**level + 1),
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

"""Priors, grid posteriors, estimators, and average-variance engines.

The universal posterior representation is a density tabulated on a grid
(:class:`GridDistribution`), with closed-form conjugate updates available
for the Gaussian and Gamma families.  Average posterior variances are
computed either by deterministic quadrature over the outcome space or by
seeded Monte Carlo; both engines consume one strategy class,
:class:`GaussianOutcomeStrategy`, built from the outcome mean and
covariance given the parameter and an outcome-quadrature rule.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np

__all__ = [
    "GaussianPrior",
    "GammaPrior",
    "Interval",
    "Circle",
    "GridDistribution",
    "InconsistentOutcomeError",
    "ToleranceError",
    "gaussian_update",
    "gamma_update",
    "grid_update",
    "evidence",
    "mean_estimator",
    "variance_mse",
    "circular_mean",
    "variance_circular",
    "fisher_information_prior",
    "van_trees_bound",
    "AverageVariance",
    "GaussianOutcomeStrategy",
    "gaussian_outcome_density",
    "sample_gaussian_outcomes",
    "trapezoid",
    "average_posterior_variance",
    "LINEAR_GRID_NODES",
    "CIRCLE_GRID_NODES",
]

LINEAR_GRID_NODES = 2001
CIRCLE_GRID_NODES = 2048

_MC_CHUNK = 4096  # fixed chunk size keeps Monte Carlo draws schedule-independent


class InconsistentOutcomeError(ValueError):
    """The observed outcome has zero probability under the prior."""


class ToleranceError(RuntimeError):
    """Quadrature failed to reach the requested tolerance.

    Carries the best available estimate in ``estimate``/``std_error``.
    """

    def __init__(self, msg, estimate=None, std_error=None):
        super().__init__(msg)
        self.estimate = estimate
        self.std_error = std_error


# ---------------------------------------------------------------------------
# prior families and grid distributions


@dataclass(frozen=True)
class GaussianPrior:
    mu0: float
    var0: float

    def __post_init__(self):
        if self.var0 <= 0:
            raise ValueError("prior variance must be positive")


@dataclass(frozen=True)
class GammaPrior:
    a: float
    b: float

    def __post_init__(self):
        if self.a <= 0 or self.b <= 0:
            raise ValueError("gamma parameters must be positive")

    def mean(self) -> float:
        return self.a / self.b

    def variance(self) -> float:
        return self.a / self.b**2


@dataclass(frozen=True)
class Interval:
    lo: float
    hi: float

    def __post_init__(self):
        if not self.hi > self.lo:
            raise ValueError("empty interval")


@dataclass(frozen=True)
class Circle:
    """Periodic support; ``lo`` and ``hi`` label the same point."""

    lo: float
    hi: float

    def __post_init__(self):
        if not self.hi > self.lo:
            raise ValueError("empty circle")

    @property
    def span(self) -> float:
        return self.hi - self.lo


Support = Union[Interval, Circle]


@dataclass(frozen=True, eq=False)
class GridDistribution:
    """Probability density tabulated on a grid over an interval or circle.

    Interval grids include both endpoints and integrate by the trapezoid
    rule.  Circle grids place nodes at cell midpoints with uniform weights
    (the periodic trapezoid rule), which integrates smooth non-periodic
    densities at second order and periodic ones spectrally.
    """

    support: Support
    nodes: np.ndarray
    density: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float).copy()
        dens = np.asarray(self.density, dtype=float).copy()
        if nodes.ndim != 1 or nodes.shape != dens.shape:
            raise ValueError("nodes and density must be 1-D and equally long")
        if np.any(np.diff(nodes) <= 0):
            raise ValueError("nodes must be strictly increasing")
        if np.any(dens < 0):
            raise ValueError("density must be nonnegative")
        nodes.setflags(write=False)
        dens.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "density", dens)
        total = float(self.weights @ dens)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"density integrates to {total!r}, not 1")

    @property
    def weights(self) -> np.ndarray:
        if isinstance(self.support, Circle):
            h = self.support.span / self.nodes.size
            return np.full(self.nodes.size, h)
        w = np.empty(self.nodes.size)
        d = np.diff(self.nodes)
        w[0] = d[0] / 2.0
        w[-1] = d[-1] / 2.0
        w[1:-1] = (d[:-1] + d[1:]) / 2.0
        return w

    def integrate(self, values=None) -> float:
        f = self.density if values is None else np.asarray(values) * self.density
        return float(self.weights @ f)

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Inverse-CDF draws from the tabulated density."""
        if isinstance(self.support, Circle):
            h = self.support.span / self.nodes.size
            edges = np.concatenate([self.nodes - h / 2.0, [self.nodes[-1] + h / 2.0]])
            mass = self.weights * self.density
        else:
            mids = 0.5 * (self.nodes[:-1] + self.nodes[1:])
            edges = np.concatenate([[self.nodes[0]], mids, [self.nodes[-1]]])
            mass = np.diff(edges) * self.density
        cdf = np.concatenate([[0.0], np.cumsum(mass)])
        cdf /= cdf[-1]
        return np.interp(rng.random(size), cdf, edges)

    # constructors -----------------------------------------------------

    @staticmethod
    def uniform(support: Support, n: Optional[int] = None) -> "GridDistribution":
        if isinstance(support, Circle):
            n = CIRCLE_GRID_NODES if n is None else n
            h = support.span / n
            nodes = support.lo + (np.arange(n) + 0.5) * h
            dens = np.full(n, 1.0 / support.span)
        else:
            n = LINEAR_GRID_NODES if n is None else n
            nodes = np.linspace(support.lo, support.hi, n)
            dens = np.full(n, 1.0 / (support.hi - support.lo))
        return GridDistribution(support, nodes, dens)

    @staticmethod
    def from_function(support: Support, fn, n: Optional[int] = None) -> "GridDistribution":
        base = GridDistribution.uniform(support, n)
        dens = np.asarray(fn(base.nodes), dtype=float)
        dens = np.clip(dens, 0.0, None)
        total = float(base.weights @ dens)
        if total <= 0:
            raise ValueError("density function integrates to zero")
        return GridDistribution(support, base.nodes, dens / total)

    @staticmethod
    def from_gaussian(prior: GaussianPrior, n: int = LINEAR_GRID_NODES,
                      span_sigmas: float = 6.0) -> "GridDistribution":
        sd = math.sqrt(prior.var0)
        support = Interval(prior.mu0 - span_sigmas * sd, prior.mu0 + span_sigmas * sd)
        return GridDistribution.from_function(
            support, lambda t: np.exp(-0.5 * ((t - prior.mu0) / sd) ** 2), n)


LikelihoodFn = Callable[[np.ndarray, object], np.ndarray]


# ---------------------------------------------------------------------------
# conjugate and grid updates


def gaussian_update(prior: GaussianPrior, like_mean: float, like_var: float) -> GaussianPrior:
    """Gaussian-conjugate update for a Gaussian likelihood in the parameter."""
    if like_var <= 0:
        raise ValueError("likelihood variance must be positive")
    denom = prior.var0 + like_var
    mu = (like_var * prior.mu0 + prior.var0 * like_mean) / denom
    var = like_var * prior.var0 / denom
    return GaussianPrior(mu, var)


def gamma_update(prior: GammaPrior, outcomes: Sequence[float]) -> GammaPrior:
    """Gamma-conjugate update for zero-mean Gaussian scale estimation.

    After m outcomes q_i the parameters become (a + m/2, b + sum q_i^2 / 2).
    The accumulation is a sequential fold so that chained single-outcome
    updates and one batched update agree bit for bit.
    """
    outcomes = np.asarray(outcomes, dtype=float)
    if outcomes.size == 0:
        raise ValueError("outcomes must be nonempty")
    a, b = prior.a, prior.b
    for q in outcomes:
        a += 0.5
        b += float(q) * float(q) / 2.0
    return GammaPrior(a, b)


def evidence(prior: GridDistribution, like: LikelihoodFn, outcome) -> float:
    vals = np.asarray(like(prior.nodes, outcome), dtype=float)
    if not np.all(np.isfinite(vals)):
        raise ValueError("likelihood is not finite on the prior grid")
    return float(prior.weights @ (prior.density * vals))


def grid_update(prior: GridDistribution, like: LikelihoodFn, outcome) -> GridDistribution:
    """Bayes update of a tabulated prior; renormalizes on the same grid."""
    vals = np.asarray(like(prior.nodes, outcome), dtype=float)
    if not np.all(np.isfinite(vals)):
        raise ValueError("likelihood is not finite on the prior grid")
    post = prior.density * vals
    total = float(prior.weights @ post)
    if total <= 0.0:
        raise InconsistentOutcomeError("outcome has zero probability under the prior")
    return GridDistribution(prior.support, prior.nodes, post / total)


# ---------------------------------------------------------------------------
# estimators and spreads


def mean_estimator(d: GridDistribution) -> float:
    if isinstance(d.support, Circle):
        raise ValueError("mean estimator is undefined on a circle; use circular_mean")
    return d.integrate(d.nodes)


def variance_mse(d: GridDistribution, est: float) -> float:
    if isinstance(d.support, Circle):
        raise ValueError("use variance_circular on circular supports")
    return d.integrate((d.nodes - est) ** 2)


def circular_mean(d: GridDistribution, tol: float = 1e-12) -> Optional[float]:
    """arg <e^{i theta}>; None when the circular moment vanishes."""
    if not isinstance(d.support, Circle):
        raise ValueError("circular mean requires a circular support")
    c = complex(d.integrate(np.cos(d.nodes)), d.integrate(np.sin(d.nodes)))
    if abs(c) < tol:
        return None
    return math.atan2(c.imag, c.real)


def variance_circular(d: GridDistribution, est: Optional[float]) -> float:
    """Mean of sin^2(theta - est); est=None (flat posterior) uses 0, which is
    exact because sin^2 averages to the same value against a flat density."""
    if not isinstance(d.support, Circle):
        raise ValueError("circular variance requires a circular support")
    e = 0.0 if est is None else est
    return d.integrate(np.sin(d.nodes - e) ** 2)


# ---------------------------------------------------------------------------
# information quantities


def fisher_information_prior(prior) -> float:
    """Fisher information of the prior; 1/var for a Gaussian, central
    differences of log density for a grid (zero-density nodes excluded)."""
    if isinstance(prior, GaussianPrior):
        return 1.0 / prior.var0
    if not isinstance(prior, GridDistribution):
        raise TypeError("prior must be GaussianPrior or GridDistribution")
    p = prior.density
    dp = np.gradient(p, prior.nodes)
    good = p > 1e-300
    if not np.all(good):
        warnings.warn("zero-density nodes excluded from prior Fisher information",
                      RuntimeWarning)
    integrand = np.zeros_like(p)
    integrand[good] = dp[good] ** 2 / p[good]
    return float(prior.weights @ integrand)


def van_trees_bound(prior_fi: float, qfi: float) -> float:
    """Bayesian Cramer-Rao lower bound 1/(prior FI + QFI)."""
    if prior_fi < 0 or qfi < 0 or prior_fi + qfi == 0:
        raise ValueError("information terms must be nonnegative and not both zero")
    return 1.0 / (prior_fi + qfi)


# ---------------------------------------------------------------------------
# average posterior variance engines


@dataclass(frozen=True)
class AverageVariance:
    value: float
    std_error: float
    method: str
    detail: str = ""


def trapezoid(lo: float, hi: float, n: int):
    """Nodes and weights of the n-node trapezoid rule on [lo, hi]."""
    nodes = np.linspace(lo, hi, n)
    weights = np.full(n, nodes[1] - nodes[0])
    weights[0] *= 0.5
    weights[-1] *= 0.5
    return nodes, weights


def gaussian_outcome_density(m, mean, cov):
    """p(m) of a Gaussian outcome in direct form, broadcast over m and the
    moments: real m, mean and variance ``cov`` (homodyne), or complex
    m = x + iy and mean with ``cov = (vxx, vyy, vxy)`` (heterodyne).  The
    reference for the low-rank kernel: no terms in its exponent cancel."""
    d = m - mean
    if not isinstance(cov, tuple):
        return np.exp(-(d**2) / (2.0 * cov)) / np.sqrt(2.0 * math.pi * cov)
    vxx, vyy, vxy = cov
    det = vxx * vyy - vxy * vxy
    dx, dy = np.real(d), np.imag(d)
    quad = (vyy * dx * dx - 2.0 * vxy * dx * dy + vxx * dy * dy) / det
    return np.exp(-0.5 * quad) / (2.0 * math.pi * np.sqrt(det))


def sample_gaussian_outcomes(mean, cov, rng: np.random.Generator, size: int):
    """``size`` outcomes with the moments of ``gaussian_outcome_density``:
    mean + sd z in 1-D; mean + L z in 2-D, z = standard_normal((size, 2))
    and L the lower Cholesky factor of the covariance."""
    if not isinstance(cov, tuple):
        return mean + np.sqrt(cov) * rng.standard_normal(size)
    vxx, vyy, vxy = cov
    l11 = np.sqrt(vxx)
    l21 = vxy / l11
    l22 = np.sqrt(vyy - l21 * l21)
    z = rng.standard_normal((size, 2))
    return mean + l11 * z[:, 0] + 1j * (l21 * z[:, 0] + l22 * z[:, 1])


class GaussianOutcomeStrategy:
    """Estimation strategy whose outcome given theta is Gaussian.

    ``moments(thetas)`` maps theta to the outcome mean and covariance:
    ``(mean, var)`` for a real homodyne outcome (``dim=1``),
    ``(mean, (vxx, vyy, vxy))`` for a heterodyne outcome beta = x + iy
    (``dim=2``, complex mean).  ``nodes(level)`` is the task's outcome
    quadrature rule, (outcomes, weights).  The log-likelihood is quadratic
    in the outcome: log p(m | theta) = sum_k a_k(m) c_k(theta), with
    features a = (1, q, q^2) or (1, x, y, x^2, y^2, xy) and coefficients
    c(theta) from the moments.
    """

    def __init__(self, moments, nodes, dim: int, circular: bool):
        if dim not in (1, 2):
            raise ValueError("outcome dimension must be 1 or 2")
        self._moments = moments
        self._nodes = nodes
        self.dim = dim
        self.circular = circular

    def outcome_moments(self, thetas):
        return self._moments(np.asarray(thetas, dtype=float))

    def outcome_nodes(self, level):
        return self._nodes(level)

    def outcome_features(self, outcomes) -> np.ndarray:
        """a(m), one row per outcome."""
        if self.dim == 1:
            q = np.real(np.atleast_1d(outcomes)).astype(float)
            return np.stack([np.ones_like(q), q, q * q], axis=1)
        b = np.atleast_1d(np.asarray(outcomes, dtype=complex))
        x, y = b.real, b.imag
        return np.stack([np.ones_like(x), x, y, x * x, y * y, x * y], axis=1)

    def node_coefficients(self, thetas) -> np.ndarray:
        """c(theta), one column per node."""
        mean, cov = self.outcome_moments(thetas)
        if self.dim == 1:
            prec = 1.0 / cov
            return np.stack([-0.5 * (mean * mean * prec + np.log(2.0 * math.pi * cov)),
                             mean * prec, -0.5 * prec])
        vxx, vyy, vxy = cov
        det = vxx * vyy - vxy * vxy
        pxx, pyy, pxy = vyy / det, vxx / det, -vxy / det
        mx, my = mean.real, mean.imag
        gx = pxx * mx + pxy * my
        gy = pxy * mx + pyy * my
        c0 = -0.5 * (mx * gx + my * gy) - np.log(2.0 * math.pi * np.sqrt(det))
        return np.stack([c0, gx, gy, -0.5 * pxx, -0.5 * pyy, -pxy])

    def likelihood_matrix(self, thetas, outcomes):
        """p(m | theta) with one row per outcome and one column per theta."""
        return np.exp(self.outcome_features(outcomes) @ self.node_coefficients(thetas))

    def sample_outcomes_given(self, thetas, rng):
        """One outcome per theta."""
        thetas = np.asarray(thetas, dtype=float)
        return sample_gaussian_outcomes(*self.outcome_moments(thetas), rng, thetas.size)


# one row block of the likelihood kernel: small enough to stay in L2 cache
_KERNEL_BLOCK_BYTES = 512 * 1024
# floor of log p in the kernel: numpy's SIMD exp takes a 15-100x slower
# path for results below about e^-708 (AVX-512 build, numpy 2.4), which
# the far tails of a peaked likelihood hit.  A cell below e^-707 = 9e-308
# counts as 9e-308.
_LOG_FLOOR = -707.0


class _SpreadCalculator:
    """Posterior variance and evidence for batches of outcomes.

    Low-rank likelihood kernel: the node coefficients C (k x nodes) are
    computed once per engine call; each block of outcome rows A (rows x
    k) then costs exp(A @ C), in place in one reused cache-sized buffer,
    and one product with the weighted moment matrix, which collects every
    node-space reduction.  The dense outcome x node likelihood is never
    formed.  Rounding: log p carries an absolute error, hence p a relative
    error, of about c eps (|log p| + (|m|^2 + |mu|^2) / sigma^2) for the
    outcome m, its mean mu and its variance sigma^2 along the narrowest
    axis; the tests hold c = 16 (measured up to 6).
    The circular variance uses
    mean sin^2(theta - e) = 1/2 - [cos 2e <cos 2theta> + sin 2e <sin 2theta>]/2.
    """

    def __init__(self, prior: GridDistribution, strategy: GaussianOutcomeStrategy,
                 moment_tol: float = 1e-12):
        self.strategy = strategy
        self.circular = strategy.circular
        self.moment_tol = moment_tol
        w = prior.weights * prior.density
        nodes = prior.nodes
        if self.circular:
            cols = [w, w * np.cos(nodes), w * np.sin(nodes),
                    w * np.cos(2.0 * nodes), w * np.sin(2.0 * nodes)]
        else:
            cols = [w, w * nodes, w * nodes**2]
        self.moments = np.column_stack(cols)
        self.coeffs = strategy.node_coefficients(nodes)
        rows = max(8, _KERNEL_BLOCK_BYTES // (8 * nodes.size))
        self._buf = np.empty((rows, nodes.size))

    def finish(self, m):
        """(posterior variance, evidence) from the moment sums m."""
        z = m[:, 0]
        ok = z > 0.0
        zi = np.where(ok, z, 1.0)
        if self.circular:
            c1r, c1i = m[:, 1] / zi, m[:, 2] / zi
            c2r, c2i = m[:, 3] / zi, m[:, 4] / zi
            est = np.where(np.hypot(c1r, c1i) > self.moment_tol,
                           np.arctan2(c1i, c1r), 0.0)
            v = 0.5 * (1.0 - c2r * np.cos(2.0 * est) - c2i * np.sin(2.0 * est))
        else:
            mean = m[:, 1] / zi
            v = np.maximum(m[:, 2] / zi - mean**2, 0.0)
        v[~ok] = 0.0
        return v, z

    def spreads(self, outcomes):
        feats = self.strategy.outcome_features(outcomes)
        m = np.empty((feats.shape[0], self.moments.shape[1]))
        rows = self._buf.shape[0]
        for i in range(0, feats.shape[0], rows):
            blk = feats[i:i + rows]
            buf = self._buf[:blk.shape[0]]
            np.matmul(blk, self.coeffs, out=buf)
            np.maximum(buf, _LOG_FLOOR, out=buf)
            np.exp(buf, out=buf)
            np.matmul(buf, self.moments, out=m[i:i + rows])
        return self.finish(m)


def _quadrature_outcome_grid(level_value, rel_tol, max_level):
    """Step-halving driver over ``level_value(level)``, the outcome average
    on a rule whose step halves with each level; ToleranceError carries
    the last value when ``max_level`` is passed."""
    prev = None
    for level in range(max_level + 1):
        value = level_value(level)
        if prev is not None:
            # one Richardson step cancels the trapezoid h^2 error, so the
            # returned value carries error well below the |delta|/3 estimate
            delta = value - prev
            if abs(delta) / 3.0 <= max(rel_tol * abs(value), 1e-300):
                return AverageVariance(value + delta / 3.0, abs(delta) / 3.0,
                                       "quadrature", f"levels={level + 1}")
        prev = value
    raise ToleranceError("outcome quadrature did not converge "
                         f"(last delta at level {max_level})",
                         estimate=prev, std_error=None)


def _monte_carlo(strategy, prior, samples, rng):
    if rng is None:
        raise ValueError("Monte Carlo requires a seeded generator")
    calc = _SpreadCalculator(prior, strategy)
    # Chan's merge of the per-chunk count, mean and sum of squared deviations
    done, mean, m2 = 0, 0.0, 0.0
    while done < samples:
        m = min(_MC_CHUNK, samples - done)
        thetas = prior.sample(rng, m)
        outcomes = strategy.sample_outcomes_given(thetas, rng)
        v, _ = calc.spreads(outcomes)
        chunk_mean = float(v.mean())
        chunk_m2 = float(((v - chunk_mean) ** 2).sum())
        delta = chunk_mean - mean
        total = done + m
        mean += delta * m / total
        m2 += chunk_m2 + delta * delta * done * m / total
        done = total
    se = math.sqrt(m2 / samples / samples)
    return AverageVariance(mean, se, "monte-carlo", f"samples={samples}")


def average_posterior_variance(strategy, prior: GridDistribution, method: str = "quadrature",
                               samples: int = 100_000, rng: Optional[np.random.Generator] = None,
                               rel_tol: float = 1e-6, max_level: int = 5) -> AverageVariance:
    """Outcome-averaged posterior variance of an estimation strategy.

    ``method`` is "quadrature" (deterministic, Richardson step-halving
    error estimate) or "montecarlo" (theta ~ prior, m ~ p(m|theta),
    standard error reported).  Monte Carlo draws are chunked at a fixed
    size so results depend only on the generator's seed.
    """
    if method == "quadrature":
        calc = _SpreadCalculator(prior, strategy)

        def level_value(level):
            outcomes, weights = strategy.outcome_nodes(level)
            v, z = calc.spreads(outcomes)
            return float(weights @ (z * v))
        return _quadrature_outcome_grid(level_value, rel_tol, max_level)
    if method == "montecarlo":
        return _monte_carlo(strategy, prior, samples, rng)
    raise ValueError(f"unknown method {method!r}")

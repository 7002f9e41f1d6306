"""Priors, grid posteriors, estimators, and average-variance engines.

The universal posterior representation is a density tabulated on a grid
(:class:`GridDistribution`), with closed-form conjugate updates available
for the Gaussian and Gamma families.  Average posterior variances are
computed either by deterministic quadrature over the outcome space and
the prior, or by seeded Monte Carlo; both engines consume one strategy
class, :class:`GaussianOutcomeStrategy`, built from the outcome mean and
covariance given the parameter and an outcome-quadrature rule.  A
:class:`PriorRule` tabulates a prior at any node count, which lets the
quadrature engine choose its prior grid.
"""

from __future__ import annotations

import dataclasses
import functools
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
    "PriorRule",
    "MIDPOINT",
    "TRAPEZOID",
    "GAUSS_LEGENDRE",
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
    "midpoint",
    "trapezoid",
    "gauss_legendre",
    "average_posterior_variance",
    "LINEAR_GRID_NODES",
    "CIRCLE_GRID_NODES",
]

LINEAR_GRID_NODES = 2001
CIRCLE_GRID_NODES = 2048

# quadrature rules of a prior grid, keys of _RULES
MIDPOINT = "midpoint"              # cell midpoints, equal weights
TRAPEZOID = "trapezoid"            # both endpoints, half weights there
GAUSS_LEGENDRE = "gauss-legendre"  # Legendre roots mapped onto the support

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


@functools.lru_cache(maxsize=32)
def _legendre(n: int):
    """Gauss-Legendre nodes and weights on [-1, 1], read-only.  Cached:
    ``leggauss`` is a dense eigen-solve, 9-12 ms at n = 128, more than a
    whole engine row on its grid."""
    x, w = np.polynomial.legendre.leggauss(n)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def midpoint(lo: float, hi: float, n: int):
    """Nodes and weights of the n-node midpoint rule on [lo, hi), the
    periodic trapezoid rule on a circle."""
    h = (hi - lo) / n
    return lo + (np.arange(n) + 0.5) * h, np.full(n, h)


def trapezoid(lo: float, hi: float, n: int):
    """Nodes and weights of the n-node trapezoid rule on [lo, hi]."""
    nodes = np.linspace(lo, hi, n)
    weights = np.full(n, nodes[1] - nodes[0])
    weights[0] *= 0.5
    weights[-1] *= 0.5
    return nodes, weights


def gauss_legendre(lo: float, hi: float, n: int):
    """Nodes and weights of the n-node Gauss-Legendre rule on [lo, hi]."""
    x, w = _legendre(n)
    half = 0.5 * (hi - lo)
    return lo + (x + 1.0) * half, w * half


_RULES = {MIDPOINT: midpoint, TRAPEZOID: trapezoid, GAUSS_LEGENDRE: gauss_legendre}


@dataclass(frozen=True, eq=False)
class GridDistribution:
    """Probability density tabulated on the nodes of a quadrature rule.

    ``rule`` names the rule of ``_RULES`` whose nodes and weights on the
    support the grid carries: ``MIDPOINT`` (the default on a circle, where
    it is the periodic trapezoid rule), ``TRAPEZOID`` (the default on an
    interval) or ``GAUSS_LEGENDRE``.  The periodic midpoint rule
    integrates smooth periodic densities spectrally and non-periodic ones
    at second order; Gauss-Legendre is spectral for any smooth integrand.
    Weights are computed on access, never stored.
    """

    support: Support
    nodes: np.ndarray
    density: np.ndarray
    rule: Optional[str] = None

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float).copy()
        dens = np.asarray(self.density, dtype=float).copy()
        if nodes.ndim != 1 or nodes.shape != dens.shape:
            raise ValueError("nodes and density must be 1-D and equally long")
        if np.any(np.diff(nodes) <= 0):
            raise ValueError("nodes must be strictly increasing")
        if np.any(dens < 0):
            raise ValueError("density must be nonnegative")
        if self.rule is None:
            object.__setattr__(self, "rule", _default_rule(self.support))
        elif self.rule not in _RULES:
            raise ValueError(f"unknown quadrature rule {self.rule!r}")
        nodes.setflags(write=False)
        dens.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "density", dens)
        total = float(self.weights @ dens)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"density integrates to {total!r}, not 1")

    @property
    def weights(self) -> np.ndarray:
        return _RULES[self.rule](self.support.lo, self.support.hi, self.nodes.size)[1]

    def integrate(self, values=None) -> float:
        f = self.density if values is None else np.asarray(values) * self.density
        return float(self.weights @ f)

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Inverse-CDF draws from the density, constant on one cell per node."""
        if self.rule == MIDPOINT:
            h = (self.support.hi - self.support.lo) / self.nodes.size
            edges = np.concatenate([self.nodes - h / 2.0, [self.nodes[-1] + h / 2.0]])
            mass = self.weights * self.density
        elif self.rule == GAUSS_LEGENDRE:
            # cells of the nodes' own weights: each node lies inside its
            # cell (Chebyshev-Markov-Stieltjes separation)
            w = self.weights
            edges = np.concatenate([[self.support.lo], self.support.lo + np.cumsum(w)])
            edges[-1] = self.support.hi
            mass = w * self.density
        else:
            mids = 0.5 * (self.nodes[:-1] + self.nodes[1:])
            edges = np.concatenate([[self.nodes[0]], mids, [self.nodes[-1]]])
            mass = np.diff(edges) * self.density
        cdf = np.concatenate([[0.0], np.cumsum(mass)])
        cdf /= cdf[-1]
        return np.interp(rng.random(size), cdf, edges)

    # constructors -----------------------------------------------------

    @staticmethod
    def uniform(support: Support, n: Optional[int] = None,
                rule: Optional[str] = None) -> "GridDistribution":
        """The flat density on ``n`` nodes of ``rule`` (default: the
        support's rule)."""
        rule = _default_rule(support) if rule is None else rule
        if n is None:
            n = CIRCLE_GRID_NODES if isinstance(support, Circle) else LINEAR_GRID_NODES
        nodes = _RULES[rule](support.lo, support.hi, n)[0]
        return GridDistribution(support, nodes, np.full(n, 1.0 / (support.hi - support.lo)), rule)

    @staticmethod
    def from_function(support: Support, fn, n: Optional[int] = None,
                      rule: Optional[str] = None) -> "GridDistribution":
        base = GridDistribution.uniform(support, n, rule)
        dens = np.asarray(fn(base.nodes), dtype=float)
        dens = np.clip(dens, 0.0, None)
        total = float(base.weights @ dens)
        if total <= 0:
            raise ValueError("density function integrates to zero")
        return GridDistribution(support, base.nodes, dens / total, base.rule)

    @staticmethod
    def from_gaussian(prior: GaussianPrior, n: int = LINEAR_GRID_NODES,
                      span_sigmas: float = 6.0) -> "GridDistribution":
        return PriorRule.gaussian(prior, n, span_sigmas).grid(n)


def _default_rule(support: Support) -> str:
    return MIDPOINT if isinstance(support, Circle) else TRAPEZOID


@dataclass(frozen=True)
class PriorRule:
    """A prior that can be tabulated at any node count, n -> grid.

    ``grid(n, rule)`` is the prior on ``n`` nodes of ``rule`` (default:
    the support's own).  The quadrature engine tabulates it on ``rule``,
    doubling ``n`` until two counts agree and using at most ``max_nodes``
    nodes; Monte Carlo draws on ``grid(max_nodes)``.  ``density`` is the
    unnormalized density, None for the flat prior.
    """

    support: Support
    density: Optional[Callable[[np.ndarray], np.ndarray]]
    max_nodes: int
    rule: Optional[str] = None

    def grid(self, n: int, rule: Optional[str] = None) -> GridDistribution:
        if self.density is None:
            return GridDistribution.uniform(self.support, n, rule)
        return GridDistribution.from_function(self.support, self.density, n, rule)

    def counts(self):
        """The node counts the quadrature engine tries: 64 doubling (65,
        129, ... on the trapezoid rule, whose step then halves), the last
        one ``max_nodes``."""
        odd = int((self.rule or _default_rule(self.support)) == TRAPEZOID)
        n = 64 + odd
        while n < self.max_nodes:
            yield n
            n = 2 * n - odd
        yield self.max_nodes

    @staticmethod
    def gaussian(prior: GaussianPrior, max_nodes: int,
                 span_sigmas: float = 6.0) -> "PriorRule":
        """``prior`` truncated to mu0 +- span_sigmas sd, on trapezoid grids."""
        sd = math.sqrt(prior.var0)
        support = Interval(prior.mu0 - span_sigmas * sd, prior.mu0 + span_sigmas * sd)
        return PriorRule(support, lambda t: np.exp(-0.5 * ((t - prior.mu0) / sd) ** 2),
                         max_nodes)


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
    return GridDistribution(prior.support, prior.nodes, post / total, prior.rule)


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


def circular_mean(d: GridDistribution) -> Optional[float]:
    """arg <e^{i theta}>; None when the circular moment is below 1e-12."""
    if not isinstance(d.support, Circle):
        raise ValueError("circular mean requires a circular support")
    c = complex(d.integrate(np.cos(d.nodes)), d.integrate(np.sin(d.nodes)))
    if abs(c) < 1e-12:
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
    """An average posterior variance and how it was computed: the
    quadrature's outcome ``levels`` and ``prior_nodes``, or the Monte
    Carlo ``samples`` (0 where a field does not apply)."""

    value: float
    std_error: float
    method: str
    levels: int = 0
    prior_nodes: int = 0
    samples: int = 0


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
    quadrature rule, (outcomes, weights): ``outcome_rows`` trapezoid rules
    of equal length laid end to end, each with a step that halves with
    the level, so its nodes at one level are its even nodes at the next.
    The log-likelihood is quadratic in the outcome: log p(m | theta) =
    sum_k a_k(m) c_k(theta), with features a = (1, q, q^2) or
    (1, x, y, x^2, y^2, xy) and coefficients c(theta) from the moments.
    """

    outcome_rows = 1

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
# the kernel buffer starts on a cache line: at a 16-byte offset, which the
# allocator hands out depending on the process's allocation history, the
# Monte Carlo kernel ran 30% slower (2-vCPU AVX-512 Xeon, numpy 2.4)
_KERNEL_ALIGN_BYTES = 64
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

    def __init__(self, prior: GridDistribution, strategy: GaussianOutcomeStrategy):
        self.strategy = strategy
        self.circular = strategy.circular
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
        raw = np.empty(rows * nodes.size + _KERNEL_ALIGN_BYTES // 8)
        start = -raw.ctypes.data % _KERNEL_ALIGN_BYTES // 8
        self._buf = raw[start:start + rows * nodes.size].reshape(rows, nodes.size)

    def finish(self, m):
        """(posterior variance, evidence) from the moment sums m."""
        z = m[:, 0]
        ok = z > 0.0
        zi = np.where(ok, z, 1.0)
        if self.circular:
            c1r, c1i = m[:, 1] / zi, m[:, 2] / zi
            c2r, c2i = m[:, 3] / zi, m[:, 4] / zi
            est = np.where(np.hypot(c1r, c1i) > 1e-12,
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


def _quadrature_outcome_grid(rule, integrand, rel_tol, max_level):
    """Step-halving driver with one Richardson extrapolation.

    ``rule(level)`` gives (points, weights) of trapezoid rules, trapezoid
    axis last, whose step halves with each level, so the points of one
    level are ``points[..., 0::2]`` of the next; ``integrand(points)``
    gives one value per point.  Each point is evaluated once: a level
    takes its even points' values from the level before and evaluates
    only ``points[..., 1::2]``.  ToleranceError carries the last value
    when ``max_level`` is passed.
    """
    prev = prev_points = prev_values = None
    for level in range(max_level + 1):
        points, weights = rule(level)
        if prev_values is None:
            values = integrand(points)
        else:
            # a rule that is not nested is a programming error, not a
            # domain failure, so it is not a ValueError a caller may catch
            if not np.array_equal(points[..., 0::2], prev_points):
                raise RuntimeError(f"outcome rule is not nested at level {level}")
            values = np.empty(points.shape)
            values[..., 0::2] = prev_values
            values[..., 1::2] = integrand(points[..., 1::2])
        value = float(weights.ravel() @ values.ravel())
        if prev is not None:
            # one Richardson step cancels the trapezoid h^2 error, so the
            # returned value carries error well below the |delta|/3 estimate
            delta = value - prev
            if abs(delta) / 3.0 <= max(rel_tol * abs(value), 1e-300):
                return AverageVariance(value + delta / 3.0, abs(delta) / 3.0,
                                       "quadrature", levels=level + 1)
        prev, prev_points, prev_values = value, points, values
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
    return AverageVariance(mean, se, "monte-carlo", prior_nodes=prior.nodes.size,
                           samples=samples)


def _grid_quadrature(strategy, prior: GridDistribution, rel_tol, max_level):
    """Outcome quadrature on one prior grid."""
    calc = _SpreadCalculator(prior, strategy)
    rows = strategy.outcome_rows

    def rule(level):
        outcomes, weights = strategy.outcome_nodes(level)
        return outcomes.reshape(rows, -1), weights.reshape(rows, -1)

    def integrand(outcomes):
        v, z = calc.spreads(outcomes.ravel())
        return (z * v).reshape(outcomes.shape)
    res = _quadrature_outcome_grid(rule, integrand, rel_tol, max_level)
    return dataclasses.replace(res, prior_nodes=prior.nodes.size)


def _refined_quadrature(strategy, prior: PriorRule, rel_tol, max_level):
    """Outcome quadrature on prior grids of doubling node count.

    Stops when two consecutive counts agree within rel_tol and returns
    the finer one, its error the outcome-step error plus the gap; the
    rules converge spectrally, so the gap bounds the finer count's
    prior-grid error.  ToleranceError carries the last value when
    ``prior.max_nodes`` is reached first.
    """
    prev = gap = None
    for n in prior.counts():
        res = _grid_quadrature(strategy, prior.grid(n, prior.rule), rel_tol, max_level)
        if prev is not None:
            gap = abs(res.value - prev.value)
            if gap <= max(rel_tol * abs(res.value), 1e-300):
                return dataclasses.replace(res, std_error=res.std_error + gap)
        prev = res
    raise ToleranceError(f"prior quadrature did not converge within {prior.max_nodes} nodes",
                         estimate=prev.value,
                         std_error=None if gap is None else prev.std_error + gap)


def average_posterior_variance(strategy, prior: Union[GridDistribution, PriorRule],
                               method: str = "quadrature", samples: int = 100_000,
                               rng: Optional[np.random.Generator] = None,
                               rel_tol: float = 1e-6, max_level: int = 5) -> AverageVariance:
    """Outcome-averaged posterior variance of an estimation strategy.

    ``method`` is "quadrature" (deterministic, Richardson step-halving
    error estimate) or "montecarlo" (theta ~ prior, m ~ p(m|theta),
    standard error reported).  On a ``PriorRule`` quadrature also
    chooses the prior node count (``_refined_quadrature``) and Monte
    Carlo draws on the rule's grid of ``max_nodes``; a
    ``GridDistribution`` is used as it is.  Monte Carlo draws are
    chunked at a fixed size so results depend only on the generator's
    seed.
    """
    if method == "quadrature":
        if isinstance(prior, PriorRule):
            return _refined_quadrature(strategy, prior, rel_tol, max_level)
        return _grid_quadrature(strategy, prior, rel_tol, max_level)
    if method == "montecarlo":
        if isinstance(prior, PriorRule):
            prior = prior.grid(prior.max_nodes)
        return _monte_carlo(strategy, prior, samples, rng)
    raise ValueError(f"unknown method {method!r}")

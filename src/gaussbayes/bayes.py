"""Priors, grid posteriors, estimators, and average-variance engines.

The universal posterior representation is a density tabulated on a grid
(:class:`GridDistribution`), with closed-form conjugate updates available
for the Gaussian and Gamma families.  Average posterior variances are
computed either by deterministic quadrature over the outcome space and
the prior, or by seeded Monte Carlo; both engines consume one strategy
class, :class:`GaussianOutcomeStrategy`, built from the outcome mean and
covariance given the parameter and an outcome-quadrature rule.  A
:class:`PriorRule` tabulates a prior at any node count, which lets both
engines choose the prior grid they integrate posteriors on.
"""

from __future__ import annotations

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
    "PriorSymmetryError",
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


class PriorSymmetryError(ValueError):
    """The strategy's outcome rule is exact only on a prior of a symmetry
    the given prior lacks (``GaussianOutcomeStrategy.radial_outcomes``)."""


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


# leggauss builds a dense n x n matrix: 4096 nodes take seconds and
# ~300 MB, 300001 would take 671 GiB
_MAX_LEGENDRE_NODES = 4096


@functools.lru_cache(maxsize=32)
def _legendre(n: int):
    """Gauss-Legendre nodes and weights on [-1, 1], read-only.  Cached:
    ``leggauss`` is a dense eigen-solve, 9-12 ms at n = 128, more than a
    whole engine row on its grid."""
    if n > _MAX_LEGENDRE_NODES:
        raise ValueError(f"{n} Gauss-Legendre nodes: at most {_MAX_LEGENDRE_NODES} are supported")
    x, w = np.polynomial.legendre.leggauss(n)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def _midpoint_dot(lo: float, hi: float, f: np.ndarray, g):
    return (hi - lo) / f.size * float(f.sum() if g is None else f @ g)


def _trapezoid_step(lo: float, hi: float, n: int) -> float:
    # not np.linspace's first node gap, (lo + h) - lo, which cancels the
    # digits of |lo| / h: 3.0e-12 relative on [-1.3, 2.9] at 300001 nodes
    if n < 2:
        raise ValueError(f"the trapezoid rule needs at least 2 nodes, got {n}")
    return (hi - lo) / (n - 1)


def _trapezoid_dot(lo: float, hi: float, f: np.ndarray, g):
    if g is None:
        total = f.sum() - 0.5 * (f[0] + f[-1])
    else:
        total = f @ g - 0.5 * (f[0] * g[0] + f[-1] * g[-1])
    return _trapezoid_step(lo, hi, f.size) * float(total)


def _gauss_legendre_dot(lo: float, hi: float, f: np.ndarray, g):
    w = gauss_legendre(lo, hi, f.size)[1]
    return float(w @ f if g is None else (w * f) @ g)


def midpoint(lo: float, hi: float, n: int):
    """Nodes and weights of the n-node midpoint rule on [lo, hi), the
    periodic trapezoid rule on a circle."""
    if n < 1:
        raise ValueError(f"the midpoint rule needs at least 1 node, got {n}")
    h = (hi - lo) / n
    return lo + (np.arange(n) + 0.5) * h, np.full(n, h)


def trapezoid(lo: float, hi: float, n: int):
    """Nodes and weights of the n-node trapezoid rule on [lo, hi]."""
    h = _trapezoid_step(lo, hi, n)
    # np.linspace(lo, hi, n) bit for bit, by its own formula, without its
    # argument handling, which took longer than the arithmetic
    nodes = np.arange(n, dtype=float)
    nodes *= h
    nodes += lo
    nodes[-1] = hi
    weights = np.empty(n)
    weights.fill(h)  # np.full's wrapper alone takes longer
    weights[0] *= 0.5
    weights[-1] *= 0.5
    return nodes, weights


# level-0 node counts of a linear outcome rule, and its largest level-0
# step in outcome sds
_LINEAR_BASES = (128, 256, 512)
_LINEAR_STEP_SDS = 0.4


def _linear_outcome_rule(lo: float, hi: float, scale: float):
    """The nested outcome rule level -> ``trapezoid(lo, hi, n0 2^level + 1)``
    of a real Gaussian outcome whose narrowest law has the sd ``scale``.
    n0 is the first of ``_LINEAR_BASES`` whose step (hi - lo) / n0 is at
    most 0.4 ``scale``, and the last where none is; each level halves the
    step.  On a Gaussian of sd ``scale`` the trapezoid rule at step h errs
    by about e^{-2 pi^2 (scale / h)^2} (Trefethen and Weideman, SIAM Rev.
    56, 385 (2014)): 6e-8 at h = 1.1 sd, far below rounding at 0.4 sd.  An
    average posterior variance converges more slowly than its outcome
    law: on the homodyne phase row (n, r, psi) = (1, 0.5, pi/2) level 0,
    at 0.34 sd, errs by 3.7e-14 relative and level 1 by 2e-16, and the
    Richardson step of ``_quadrature_outcome_grid`` keeps a third of the
    first, within the error it quotes."""
    n0 = next((n for n in _LINEAR_BASES if hi - lo <= _LINEAR_STEP_SDS * scale * n),
              _LINEAR_BASES[-1])
    return lambda level: trapezoid(lo, hi, n0 * 2**level + 1)


def gauss_legendre(lo: float, hi: float, n: int):
    """Nodes and weights of the n-node Gauss-Legendre rule on [lo, hi]."""
    if n < 1:
        raise ValueError(f"the Gauss-Legendre rule needs at least 1 node, got {n}")
    x, w = _legendre(n)
    half = 0.5 * (hi - lo)
    return lo + (x + 1.0) * half, w * half


# each rule's function, (lo, hi, n) -> (nodes, weights), and its integral
# sum_i w_i f_i g_i (g = 1 when None) on the n = f.size nodes of [lo, hi],
# made without an array of weights where the rule has one step
_RULES = {MIDPOINT: (midpoint, _midpoint_dot),
          TRAPEZOID: (trapezoid, _trapezoid_dot),
          GAUSS_LEGENDRE: (gauss_legendre, _gauss_legendre_dot)}


def _rule(name: str):
    """The (rule, dot) entry of ``_RULES`` named ``name``."""
    try:
        return _RULES[name]
    except KeyError:
        raise ValueError(f"unknown quadrature rule {name!r}") from None


@dataclass(frozen=True, eq=False)
class GridDistribution:
    """Probability density tabulated on the nodes of a quadrature rule.

    ``rule`` names the rule of ``_RULES`` whose nodes and weights on the
    support the grid carries: ``MIDPOINT`` (the default on a circle, where
    it is the periodic trapezoid rule), ``TRAPEZOID`` (the default on an
    interval) or ``GAUSS_LEGENDRE``.  The periodic midpoint rule
    integrates smooth periodic densities spectrally and non-periodic ones
    at second order; Gauss-Legendre is spectral for any smooth integrand.
    ``nodes`` and ``density`` are read-only copies of the arrays passed in.
    Weights are the rule function's, computed on access; integrals do not
    build them: ``_dot`` takes the midpoint and trapezoid sums from the
    rule's one step.  The tables that depend on the grid alone (``_w``,
    weights * density, ``_z_low``, ``_mirror``, ``_folded``,
    ``_moments`` and ``sample``'s ``_cdf``) are made on first use, by an
    engine or ``sample``, kept with the grid and read-only; a grid that
    neither reaches, such as a ``grid_update`` posterior, holds none.
    """

    support: Support
    nodes: np.ndarray
    density: np.ndarray
    rule: Optional[str] = None

    def __post_init__(self):
        # copies: the caller may still write through the arrays it passed
        nodes = np.array(self.nodes, dtype=float)
        dens = np.array(self.density, dtype=float)
        if nodes.ndim != 1:
            raise ValueError("nodes and density must be 1-D and equally long")
        if not np.all(np.diff(nodes) > 0):  # a nan node fails too
            raise ValueError("nodes must be strictly increasing")
        if self.rule is None:
            object.__setattr__(self, "rule", _default_rule(self.support))
        nodes.setflags(write=False)
        self._take(nodes, dens)

    def _take(self, nodes: np.ndarray, dens: np.ndarray):
        """Check ``dens`` on the checked, read-only ``nodes`` and keep both
        as they are; ``dens`` becomes read-only."""
        if nodes.shape != dens.shape:
            raise ValueError("nodes and density must be 1-D and equally long")
        if dens.size == 0:
            raise ValueError("a grid needs at least one node")
        if dens.min() < 0.0:
            raise ValueError("density must be nonnegative")
        dens.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "density", dens)
        total = self._dot(dens)  # raises on an unknown rule
        # written so that a nan total (a nan density) fails too
        if not abs(total - 1.0) <= 1e-9:
            raise ValueError(f"density integrates to {total!r}, not 1")

    @staticmethod
    def _of(support: Support, rule: str, nodes: np.ndarray, dens: np.ndarray):
        """The grid of the checked, read-only ``nodes`` and the density
        ``dens``, both taken without a copy: no caller may hold ``dens``."""
        grid = object.__new__(GridDistribution)
        object.__setattr__(grid, "support", support)
        object.__setattr__(grid, "rule", rule)
        grid._take(nodes, dens)
        return grid

    @property
    def weights(self) -> np.ndarray:
        rule_fn, _ = _rule(self.rule)
        return rule_fn(self.support.lo, self.support.hi, self.nodes.size)[1]

    def _dot(self, f: np.ndarray, g: Optional[np.ndarray] = None) -> float:
        """sum_i w_i f_i g_i over the grid's weights w (g = 1 when None),
        for node-length f and g."""
        _, dot = _rule(self.rule)
        return dot(self.support.lo, self.support.hi, f, g)

    def integrate(self, values=None) -> float:
        if values is None:
            return self._dot(self.density)
        # contiguous: numpy sums a zero-stride (broadcast) operand in one
        # running sum, off BLAS, with an error growing like N eps
        return self._dot(self.density,
                         np.ascontiguousarray(np.broadcast_to(values, self.density.shape)))

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Inverse-CDF draws from the density, constant on one cell per node."""
        cdf, edges = self._cdf
        # np.interp is several times faster on sorted queries; each value
        # is the same, so the draws are scattered back in generator order
        u = rng.random(size)
        order = np.argsort(u)
        draws = np.empty(size)
        draws[order] = np.interp(u[order], cdf, edges)
        return draws

    # tables of the grid alone, made on first use and kept ------------

    @functools.cached_property
    def _cdf(self):
        """(cdf, edges) of ``sample``: the cell edges, one cell per node,
        and the normalized cumulative mass at each edge."""
        if self.rule == MIDPOINT:
            h = (self.support.hi - self.support.lo) / self.nodes.size
            edges = np.concatenate([self.nodes - h / 2.0, [self.nodes[-1] + h / 2.0]])
            mass = self._w
        elif self.rule == GAUSS_LEGENDRE:
            # cells of the nodes' own weights: each node lies inside its
            # cell (Chebyshev-Markov-Stieltjes separation)
            w = self.weights
            edges = np.concatenate([[self.support.lo], self.support.lo + np.cumsum(w)])
            edges[-1] = self.support.hi
            mass = self._w
        else:
            mids = 0.5 * (self.nodes[:-1] + self.nodes[1:])
            edges = np.concatenate([[self.nodes[0]], mids, [self.nodes[-1]]])
            mass = np.diff(edges) * self.density
        cdf = np.concatenate([[0.0], np.cumsum(mass)])
        cdf /= cdf[-1]
        return _read_only(cdf), _read_only(edges)

    @functools.cached_property
    def _w(self) -> np.ndarray:
        """weights * density, the kernel's weighted prior."""
        return _read_only(self.weights * self.density)

    @functools.cached_property
    def _z_low(self) -> float:
        """The evidence below which a kernel row is redone with a shift:
        floored cells add at most e^-707 sum(w) to a row's evidence, less
        than eps/2 of any evidence above e^-670 sum(w)."""
        return math.exp(_LOG_FLOOR + 37.0) * float(self._w.sum())

    @functools.cached_property
    def _mirror(self) -> bool:
        """True for a flat grid on an even number of midpoint nodes of the
        full circle [-pi, pi): its nodes are +-(k + 1/2) h, mirror symmetric
        about 0 to rounding, and a rotation of theta leaves the prior flat."""
        n = self.nodes.size
        return (self.rule == MIDPOINT and n % 2 == 0 and _flat_full_circle(self)
                and np.array_equal(self.nodes, midpoint(-math.pi, math.pi, n)[0]))

    @functools.cached_property
    def _folded(self):
        """The nodes theta > 0 of a ``_mirror`` grid, and the folded
        kernel's moment columns on them, (2w, 2w cos 2theta)."""
        n = self.nodes.size
        half = self.nodes[n // 2:]
        w2 = 2.0 * self._w[n // 2:]
        return half, _read_only(np.column_stack([w2, w2 * np.cos(2.0 * half)]))

    def _moments(self, circular: bool, odd: bool = False) -> np.ndarray:
        """The weighted moment columns of the full kernel, on every node or,
        with ``odd``, contiguous on the odd nodes: (1, cos, sin, cos 2,
        sin 2)(theta) when ``circular``, else (1, d, d^2) of d = theta - c,
        about the support midpoint c, which every count shares: for a
        posterior narrow beside its mean, E[d^2] - E[d]^2 cancels far
        less than E[theta^2] - E[theta]^2."""
        memo, key = vars(self).setdefault("_moment_columns", {}), (circular, odd)
        if key not in memo:
            if odd:
                cols = np.ascontiguousarray(self._moments(circular)[1::2])
            elif circular:
                w, nodes = self._w, self.nodes
                cols = np.column_stack([w, w * np.cos(nodes), w * np.sin(nodes),
                                        w * np.cos(2.0 * nodes), w * np.sin(2.0 * nodes)])
            else:
                w, d = self._w, self.nodes - 0.5 * (self.support.lo + self.support.hi)
                cols = np.column_stack([w, w * d, w * d**2])
            memo[key] = _read_only(cols)
        return memo[key]

    # constructors -----------------------------------------------------

    @staticmethod
    def uniform(support: Support, n: Optional[int] = None,
                rule: Optional[str] = None) -> "GridDistribution":
        """The flat density on ``n`` nodes of ``rule`` (default: the
        support's rule)."""
        return GridDistribution.from_function(support, None, n, rule)

    @staticmethod
    def from_function(support: Support, fn, n: Optional[int] = None,
                      rule: Optional[str] = None) -> "GridDistribution":
        """The density ``fn`` (None: flat), clipped at 0 and normalized, on
        ``n`` nodes of ``rule`` (default: the support's rule)."""
        rule = _default_rule(support) if rule is None else rule
        if n is None:
            n = CIRCLE_GRID_NODES if isinstance(support, Circle) else LINEAR_GRID_NODES
        rule_fn, dot = _rule(rule)
        nodes = _read_only(rule_fn(support.lo, support.hi, n)[0])
        if not np.all(np.diff(nodes) > 0):  # a support too narrow for n distinct floats
            raise ValueError("nodes must be strictly increasing")
        if fn is None:
            dens = np.full(n, 1.0 / (support.hi - support.lo))
        else:
            dens = np.clip(np.asarray(fn(nodes), dtype=float), 0.0, None)
            if dens.shape != nodes.shape:
                raise ValueError(f"density function gave shape {dens.shape} on {n} nodes")
            total = dot(support.lo, support.hi, dens, None)
            if not total > 0:  # nan too
                raise ValueError(f"density function integrates to {total!r}")
            dens /= total
        return GridDistribution._of(support, rule, nodes, dens)

    @staticmethod
    def from_gaussian(prior: GaussianPrior, n: int = LINEAR_GRID_NODES,
                      span_sigmas: float = 6.0) -> "GridDistribution":
        rule = PriorRule.gaussian(prior, n, span_sigmas)
        return GridDistribution.from_function(rule.support, rule.density, n, rule.rule)


def _default_rule(support: Support) -> str:
    return MIDPOINT if isinstance(support, Circle) else TRAPEZOID


@dataclass(frozen=True)
class PriorRule:
    """A prior that can be tabulated at any node count, n -> grid.

    ``rule`` names the rule of its grids; None resolves to the support's
    own on construction.  ``grid(n, rule)`` is the prior on ``n`` nodes
    of ``rule`` (default: the prior's ``rule``).  A grid of a flat or
    ``_GaussianDensity`` density on at most ``_ENGINE_GRID_NODES`` nodes
    is built once per process and kept, with the kernel tables the
    engines make on it, among the ``_ENGINE_GRIDS`` used last, keyed by
    (support, density, n, rule): rules of every ``max_nodes`` share their
    counts.  A grid of any other density function is built afresh.

    Both engines integrate posteriors on ``grid(n)``, doubling ``n`` over
    ``counts()`` until two counts agree and using at most ``max_nodes``
    nodes.  Monte Carlo draws theta from ``grid(max_nodes)`` on the
    support's own rule, whatever rule and count it integrates on; where
    every count folds (a flat midpoint rule on [-pi, pi) with an even
    ``max_nodes``, under a ``phase_symmetric`` strategy) it draws no theta
    and builds no such grid.  ``density`` is the unnormalized density,
    None for the flat prior.
    """

    support: Support
    density: Optional[Callable[[np.ndarray], np.ndarray]]
    max_nodes: int
    rule: Optional[str] = None

    def __post_init__(self):
        if self.rule is None:
            object.__setattr__(self, "rule", _default_rule(self.support))
        _rule(self.rule)  # raises on an unknown rule
        least = 2 if self.rule == TRAPEZOID else 1
        if self.max_nodes < least:
            raise ValueError(f"max_nodes must be at least {least}, got {self.max_nodes}")

    def grid(self, n: int, rule: Optional[str] = None) -> GridDistribution:
        rule = self.rule if rule is None else rule
        value = self.density is None or isinstance(self.density, _GaussianDensity)
        if not value or n > _ENGINE_GRID_NODES:
            return GridDistribution.from_function(self.support, self.density, n, rule)
        return _cached_engine_grid(self.support, self.density, n, rule)

    def counts(self):
        """The node counts the engines try: 64 doubling (65, 129, ... on
        the trapezoid rule, whose step then halves), the last one
        ``max_nodes``.  Each trapezoid count 2n - 1 holds every node of
        count n, bit for bit, so the engines run its kernel on its odd
        nodes only (``_refine_count``); a ceiling that is not 2n - 1, and
        every count of the other rules, is evaluated afresh."""
        odd = int(self.rule == TRAPEZOID)
        n = 64 + odd
        while n < self.max_nodes:
            yield n
            n = 2 * n - odd
        yield self.max_nodes

    @staticmethod
    def gaussian(prior: GaussianPrior, max_nodes: int,
                 span_sigmas: float = 6.0) -> "PriorRule":
        """``prior`` truncated to mu0 +- span_sigmas sd, on trapezoid grids.
        Its density is a ``_GaussianDensity``, a value: rules of equal
        priors and spans share their kept grids (``grid``)."""
        sd = math.sqrt(prior.var0)
        support = Interval(prior.mu0 - span_sigmas * sd, prior.mu0 + span_sigmas * sd)
        return PriorRule(support, _GaussianDensity(prior.mu0, sd), max_nodes)


@dataclass(frozen=True)
class _GaussianDensity:
    """The unnormalized density exp(-((t - mu0) / sd)^2 / 2), compared and
    hashed by value."""

    mu0: float
    sd: float

    def __call__(self, t):
        return np.exp(-0.5 * ((t - self.mu0) / self.sd) ** 2)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


# the kept grids' bounds (``PriorRule.grid``): 32 grids of at most 4097
# nodes, with their tables about 0.4 MB each at 4097 nodes
_ENGINE_GRIDS = 32
_ENGINE_GRID_NODES = 4097


@functools.lru_cache(maxsize=_ENGINE_GRIDS)
def _cached_engine_grid(support: Support, density, n: int, rule: str) -> GridDistribution:
    return GridDistribution.from_function(support, density, n, rule)


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
    return prior.integrate(vals)


def grid_update(prior: GridDistribution, like: LikelihoodFn, outcome) -> GridDistribution:
    """Bayes update of a tabulated prior; renormalizes on the same grid.

    Raises ``InconsistentOutcomeError`` when the outcome has probability 0
    on every node.  A likelihood made with ``gaussian_outcome_density`` is
    0.0 wherever its exponent lies below ``_LOG_FLOOR`` = -707, so this
    happens for a Gaussian outcome whose exponent is below -707 at every
    node: a homodyne outcome more than 37.6 standard deviations from every
    node's mean, for one.  ``evidence`` is 0.0 there.
    """
    vals = np.asarray(like(prior.nodes, outcome), dtype=float)
    if not np.all(np.isfinite(vals)):
        raise ValueError("likelihood is not finite on the prior grid")
    post = prior.density * vals
    total = prior._dot(post)
    if total <= 0.0:
        raise InconsistentOutcomeError("outcome has zero probability under the prior")
    post /= total
    return GridDistribution._of(prior.support, prior.rule, prior.nodes, post)


# ---------------------------------------------------------------------------
# estimators and spreads


def mean_estimator(d: GridDistribution) -> float:
    if isinstance(d.support, Circle):
        raise ValueError("mean estimator is undefined on a circle; use circular_mean")
    return d._dot(d.nodes, d.density)


def variance_mse(d: GridDistribution, est: float) -> float:
    if isinstance(d.support, Circle):
        raise ValueError("use variance_circular on circular supports")
    f = d.nodes - est
    f **= 2
    return d._dot(f, d.density)


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
    return prior._dot(integrand)


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


# floor of log p: numpy's SIMD exp takes a 15-100x slower path for
# results below about e^-708 (AVX-512 build, numpy 2.4), which the far
# tails of a peaked likelihood hit.  In the kernel a cell below
# e^-707 = 9e-308 counts as 9e-308; gaussian_outcome_density returns 0.0
# there.
_LOG_FLOOR = -707.0


def gaussian_outcome_density(m, mean, cov):
    """p(m) of a Gaussian outcome in direct form, broadcast over m and the
    moments: real m, mean and variance ``cov`` (homodyne), or complex
    m = x + iy and mean with ``cov = (vxx, vyy, vxy)`` (heterodyne).  The
    reference for the low-rank kernel: no terms in its exponent cancel.

    Where the exponent lies below ``_LOG_FLOOR`` = -707 the density is
    exactly 0.0, although exp still gives a subnormal value down to an
    exponent of about -745.  Every other value is the direct formula's,
    bit for bit.  On arrays the exponent and the
    density are formed in one array: the fresh difference m - mean (1-D)
    or the fresh quadratic form (2-D).
    """
    d = m - mean
    if isinstance(cov, tuple):
        vxx, vyy, vxy = cov
        det = vxx * vyy - vxy * vxy
        dx, dy = np.real(d), np.imag(d)
        expo = (vyy * dx * dx - 2.0 * vxy * dx * dy + vxx * dy * dy) / det
        expo *= -0.5
        norm = 2.0 * math.pi * np.sqrt(det)
    else:
        if isinstance(d, np.ndarray):
            # the exponent is formed in d: it needs the full shape and a
            # float type
            shape = np.broadcast(d, cov).shape
            if d.shape != shape or d.dtype.kind != "f":
                d = np.broadcast_to(d, shape).astype(np.result_type(d, 1.0))
        d **= 2
        d /= -2.0 * cov
        expo, norm = d, np.sqrt(2.0 * math.pi * cov)
    below = expo < _LOG_FLOOR
    if not isinstance(expo, np.ndarray):
        return np.float64(0.0) if below else np.exp(expo) / norm
    np.maximum(expo, _LOG_FLOOR, out=expo)
    np.exp(expo, out=expo)
    np.copyto(expo, 0.0, where=below)
    expo /= norm
    return expo


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

    ``phase_symmetric`` is a fact of the class, not a setting: True when
    the heterodyne law at theta is the theta = 0 law rotated by -theta,
    and the theta = 0 law has a real mean and vxy = 0, so that a real
    outcome's likelihood is even in theta (``_SpreadCalculator`` folds).
    ``radial_outcomes``: True when the outcome rule lays the radii |beta|
    only, each weighted by 2 pi |beta|, which is exact only when the
    posterior is covariant under rotations of beta, that is on a prior
    flat on the full circle [-pi, pi) (``_flat_full_circle``); quadrature
    raises ``PriorSymmetryError`` on any other prior.
    """

    outcome_rows = 1
    phase_symmetric = False
    radial_outcomes = False

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
        # each feature is written into its column of one array, without
        # np.stack's wrapper and copies
        if self.dim == 1:
            q = np.real(np.atleast_1d(outcomes))
            a = np.empty((q.shape[0], 3) + q.shape[1:])
            a[:, 0] = 1.0
            a[:, 1] = q
            np.multiply(a[:, 1], a[:, 1], out=a[:, 2])
            return a
        b = np.atleast_1d(np.asarray(outcomes, dtype=complex))
        x, y = b.real, b.imag
        a = np.empty((b.shape[0], 6) + b.shape[1:])
        a[:, 0] = 1.0
        a[:, 1] = x
        a[:, 2] = y
        np.multiply(x, x, out=a[:, 3])
        np.multiply(y, y, out=a[:, 4])
        np.multiply(x, y, out=a[:, 5])
        return a

    def node_coefficients(self, thetas) -> np.ndarray:
        """c(theta), one column per node."""
        # each coefficient is written into its row of one array, without
        # np.stack's wrapper and copies
        mean, cov = self.outcome_moments(thetas)
        if self.dim == 1:
            prec = 1.0 / cov
            c = np.empty((3,) + np.shape(prec))
            c[0] = -0.5 * (mean * mean * prec + np.log(2.0 * math.pi * cov))
            c[1] = mean * prec
            c[2] = -0.5 * prec
            return c
        vxx, vyy, vxy = cov
        det = vxx * vyy - vxy * vxy
        pxx, pyy, pxy = vyy / det, vxx / det, -vxy / det
        mx, my = mean.real, mean.imag
        c = np.empty((6,) + np.shape(det))
        c[1] = gx = pxx * mx + pxy * my
        c[2] = gy = pxy * mx + pyy * my
        c[0] = -0.5 * (mx * gx + my * gy) - np.log(2.0 * math.pi * np.sqrt(det))
        c[3] = -0.5 * pxx
        c[4] = -0.5 * pyy
        c[5] = -pxy
        return c

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

# heterodyne features (1, x, y, x^2, y^2, xy): those that vanish at a real
# outcome, and the rest, whose coefficients a folded kernel keeps
_Y_FEATURES = [2, 4, 5]
_X_FEATURES = [0, 1, 3]


def _flat_full_circle(prior: Union[GridDistribution, PriorRule]) -> bool:
    """True for a prior flat on the full circle [-pi, pi): a ``PriorRule``
    without a density (its density function is not inspected, so no node
    is built), or a grid of equal densities."""
    if prior.support != Circle(-math.pi, math.pi):
        return False
    if isinstance(prior, PriorRule):
        return prior.density is None
    return prior.density.min() == prior.density.max()


class _SpreadCalculator:
    """Posterior variance and evidence for batches of outcome features.

    Low-rank likelihood kernel: the node coefficients C (k x nodes) are
    computed once per calculator.  ``spreads`` takes feature rows A
    (rows x k), ``strategy.outcome_features`` of single outcomes or their
    sums over rounds, which callers form once for every calculator they
    run them on.  Each block of rows costs exp(A @ C), in place in one
    reused cache-sized buffer, and one product with the weighted moment
    matrix, which collects every node-space reduction.  The dense outcome
    x node likelihood is never formed.  Rounding: log p carries an
    absolute error, hence p a relative error, of about
    c eps (|log p| + (|m|^2 + |mu|^2) / sigma^2) for the outcome m, its
    mean mu and its variance sigma^2 along the narrowest axis; the tests
    hold c = 16 (measured up to 6).
    The circular variance uses
    mean sin^2(theta - e) = 1/2 - [cos 2e <cos 2theta> + sin 2e <sin 2theta>]/2.
    log p is floored at ``_LOG_FLOOR`` before the exp; a row whose
    evidence comes near what the floor adds is redone with its largest
    log p shifted to 0, so no posterior is flattened.  The kernel buffer
    is a view into ``scratch``, a ``_kernel_scratch`` made for the prior's
    node count, which calculators on grids of other counts may share.
    The prior's own tables (its weighted density and moment columns, the
    mirror check, the folded columns) are the grid's, which keeps them for
    every calculator on it.

    Nesting: ``coarse`` is a calculator on this grid's even nodes, built
    with ``keep``, which holds the unshifted moment sums of each feature
    array it reduced, by identity.  When ``spreads`` gets such an array it
    runs the kernel on its odd nodes only, on ``coeffs[:, 1::2]`` and
    ``moments[1::2]`` and a view of ``scratch``, and adds the coarse sums
    scaled by the ratio of this grid's weights to the coarse grid's at the
    shared nodes (one number on a trapezoid rule, exactly 1/2 on a flat
    prior); the coarse sums are released then.  The sums are added in
    another order than the full kernel's, so (v, z) moves by a few eps
    relative; a row whose combined evidence is below ``z_low`` is redone
    on the full kernel with its shift, as on any other calculator.

    Folding: when the strategy is ``phase_symmetric`` and the prior is a
    flat grid on an even number of midpoint nodes of [-pi, pi) (the
    grid's ``_mirror``), a call whose y features are all zero (real
    outcomes) runs on the n/2 nodes theta > 0 with doubled weights, the
    features (1, x, x^2) and the moments (1, cos 2theta).  Its likelihood
    is even in theta and the nodes are mirror symmetric, so each dropped
    node repeats a kept one to rounding: the sin moments vanish, the
    estimate is 0 or pi, and v = (1 - <cos 2theta>)/2.  Every other call,
    and every call on any other prior or strategy, runs the full kernel.
    """

    def __init__(self, prior: GridDistribution, strategy: GaussianOutcomeStrategy,
                 scratch: np.ndarray, coarse: Optional["_SpreadCalculator"] = None,
                 keep: bool = False):
        self.strategy = strategy
        self.circular = strategy.circular
        self._prior = prior
        n = prior.nodes.size
        rows = _block_rows(n)
        self._scratch = scratch
        self._buf = scratch[:rows * n].reshape(rows, n)
        self._coarse = coarse
        if coarse is not None:
            self._ratio = float(prior._w[0::2].sum()) / float(coarse._prior._w.sum())
        # (features, unshifted moment sums) by id(features); the features
        # are held so that their id is not reused
        self._sums = {} if keep else None
        self.symmetric = strategy.phase_symmetric and prior._mirror
        if self.symmetric:
            half, cols = prior._folded
            rows = scratch.size // half.size
            self._fold = (strategy.node_coefficients(half)[_X_FEATURES], cols,
                          scratch[:rows * half.size].reshape(rows, half.size))

    # the full kernel's coefficients, made on first use: a folding
    # calculator may never need them
    @functools.cached_property
    def coeffs(self):
        return self.strategy.node_coefficients(self._prior.nodes)

    @functools.cached_property
    def moments(self):
        return self._prior._moments(self.circular)

    @functools.cached_property
    def _odd(self):
        """The kernel on the odd nodes, which the coarse grid lacks."""
        coeffs = np.ascontiguousarray(self.coeffs[:, 1::2])
        n = coeffs.shape[1]
        rows = self._scratch.size // n
        return (coeffs, self._prior._moments(self.circular, odd=True),
                self._scratch[:rows * n].reshape(rows, n))

    def finish(self, m):
        """(posterior variance, evidence) from the moment sums m: those of
        the full kernel, or the folded kernel's (1, cos 2theta)."""
        z = m[:, 0]
        ok = z > 0.0
        # a row of zero evidence divides by 1 and gets the variance 0; the
        # np.where and the write are skipped where there is none
        every = ok.all()
        zi = z if every else np.where(ok, z, 1.0)
        if m.shape[1] == 2:
            v = 0.5 * (1.0 - m[:, 1] / zi)
        elif self.circular:
            c1r, c1i = m[:, 1] / zi, m[:, 2] / zi
            c2r, c2i = m[:, 3] / zi, m[:, 4] / zi
            est = np.where(np.hypot(c1r, c1i) > 1e-12,
                           np.arctan2(c1i, c1r), 0.0)
            v = 0.5 * (1.0 - c2r * np.cos(2.0 * est) - c2i * np.sin(2.0 * est))
        else:
            mean = m[:, 1] / zi
            v = np.maximum(m[:, 2] / zi - mean**2, 0.0)
        if not every:
            v[~ok] = 0.0
        return v, z

    @staticmethod
    def _reduce(feats, kernel, out, shift=None):
        """Moment sums of exp(log p) for the outcome rows ``feats`` into
        ``out``, on ``kernel`` = (coefficients, moments, buffer); with
        ``shift``, each row's largest log p is subtracted first and
        written to ``shift``."""
        coeffs, moments, kbuf = kernel
        rows = kbuf.shape[0]
        for i in range(0, feats.shape[0], rows):
            blk = feats[i:i + rows]
            buf = kbuf[:blk.shape[0]]
            np.matmul(blk, coeffs, out=buf)
            if shift is not None:
                top = np.max(buf, axis=1, out=shift[i:i + rows])
                buf -= top[:, None]
            np.maximum(buf, _LOG_FLOOR, out=buf)
            np.exp(buf, out=buf)
            np.matmul(buf, moments, out=out[i:i + rows])

    def spreads(self, feats):
        """(posterior variance, evidence) per row of the outcome features
        ``feats`` (``strategy.outcome_features``, or sums of them)."""
        sent = feats
        kept = None if self._coarse is None else self._coarse._sums.pop(id(feats), None)
        if self.symmetric and not feats[:, _Y_FEATURES].any():
            feats, kernel = feats[:, _X_FEATURES], self._fold
        else:
            kernel = (self.coeffs, self.moments, self._buf)
        m = np.empty((feats.shape[0], kernel[1].shape[1]))
        if kept is None:
            self._reduce(feats, kernel, m)
        else:
            self._reduce(feats, self._odd, m)
            m += self._ratio * kept[1]
        if self._sums is not None:
            self._sums[id(sent)] = sent, m
        # a row whose evidence the floor may have flattened is redone with
        # its largest log p at 0, and the shift goes back into the evidence
        low = np.flatnonzero(m[:, 0] < self._prior._z_low)
        if low.size == 0:
            return self.finish(m)
        m = m.copy()  # the kept sums stay unshifted
        shift = np.empty(low.size)
        m_low = np.empty((low.size, m.shape[1]))
        self._reduce(feats[low], kernel, m_low, shift)
        m[low] = m_low
        v, z = self.finish(m)
        z[low] *= np.exp(shift)
        return v, z


def _block_rows(nodes: int) -> int:
    """Outcome rows per kernel block on a grid of ``nodes`` nodes."""
    return max(8, _KERNEL_BLOCK_BYTES // (8 * nodes))


def _kernel_scratch(*nodes: int) -> np.ndarray:
    """An uninitialized buffer that starts on a cache line and holds one
    kernel block on a grid of any of the node counts ``nodes``."""
    size = max(_block_rows(n) * n for n in nodes)
    raw = np.empty(size + _KERNEL_ALIGN_BYTES // 8)
    start = -raw.ctypes.data % _KERNEL_ALIGN_BYTES // 8
    return raw[start:start + size]


def _quadrature_outcome_grid(rule, integrand, rel_tol, max_level):
    """Step-halving driver with one Richardson extrapolation.

    ``rule(level)`` gives (points, weights) of trapezoid rules, trapezoid
    axis last, whose step halves with each level, so the points of one
    level are ``points[..., 0::2]`` of the next; ``integrand(points)``
    gives one value per point.  Each point is evaluated once.  No level
    before 1 can stop, so the first call gets level 1's whole grid, and
    level 0 reads its values from the even points; from level 2 on a
    level takes its even points' values from the level before and
    evaluates only ``points[..., 1::2]``.  So ``integrand`` runs once per
    level from level 1 on, ``max_level`` times at most (once, on level 0,
    when ``max_level`` is 0), and ``rule`` once per level, level 0 first.

    Level k returns E_k = T_k + (T_k - T_{k-1})/3 of its trapezoid sum
    T_k, and quotes the error of that value: |T_1 - T_0|/3 at level 1,
    where E_1 is the only extrapolated value, and |E_k - E_{k-1}| from
    level 2 on.  It stops at the first level whose quoted error is within
    rel_tol |T_k|.  When ``max_level`` is passed, ToleranceError carries
    the last extrapolated value and its quoted error (T_0 and None when
    there is only level 0).
    """
    def check_nested(level, points, coarse):
        # a rule that is not nested is a programming error, not a
        # domain failure, so it is not a ValueError a caller may catch
        if not np.array_equal(points[..., 0::2], coarse):
            raise RuntimeError(f"outcome rule is not nested at level {level}")

    points, weights = rule(0)
    if max_level == 0:
        values = integrand(points)
    else:
        fine = rule(1)
        check_nested(1, fine[0], points)
        fine_values = integrand(fine[0])
        values = fine_values[..., 0::2]
    prev, best = float(weights.ravel() @ values.ravel()), None
    for level in range(1, max_level + 1):
        if level == 1:
            (points, weights), values = fine, fine_values
        else:
            coarse, coarse_values = points, values
            points, weights = rule(level)
            check_nested(level, points, coarse)
            values = np.empty(points.shape)
            values[..., 0::2] = coarse_values
            values[..., 1::2] = integrand(points[..., 1::2])
        value = float(weights.ravel() @ values.ravel())
        # one Richardson step cancels the trapezoid h^2 error, so the
        # returned value carries error well below |delta|/3; the gap
        # between two extrapolated values is the error it does carry
        delta = value - prev
        extrapolated = value + delta / 3.0
        err = abs(delta) / 3.0 if best is None else abs(extrapolated - best.value)
        best = AverageVariance(extrapolated, err, "quadrature", levels=level + 1)
        if err <= max(rel_tol * abs(value), 1e-300):
            return best
        prev = value
    raise ToleranceError("outcome quadrature did not converge "
                         f"(last delta at level {max_level})",
                         estimate=prev if best is None else best.value,
                         std_error=None if best is None else best.std_error)


def _refine_count(strategy, prior: Union[GridDistribution, PriorRule], evaluate, rel_tol):
    """``evaluate(calc) -> (value, result)`` on ``_SpreadCalculator``s of
    ``strategy``, one kernel buffer for all of them.  A
    ``GridDistribution`` is evaluated once, as it is: (result, None, True).
    A ``PriorRule`` is evaluated on ``prior.grid(n)``, kept with its kernel
    tables where ``PriorRule.grid`` keeps it, for the counts n of
    ``prior.counts()`` up to the first whose value agrees with
    the previous count's within rel_tol |value|: its (result, gap, True),
    or at ``prior.max_nodes`` (result, last gap or None, False).  A count
    whose ``evaluate`` raises ToleranceError gives no value, so the next is
    compared with none; only the ceiling count raises it.

    On the trapezoid rule a count 2n - 1 after count n holds every node of
    count n, so its calculator gets count n's as ``coarse``: on the
    feature arrays both reduce, which ``evaluate`` passes to each count as
    the same objects, it runs the kernel on its odd nodes only.  A search
    up to count N then costs N kernel columns per outcome row, not about
    2N; its values move by a few eps relative.  Any other count (the
    midpoint and Gauss-Legendre rules, or a ceiling such as 200 after 129)
    runs its full kernel, bit for bit as alone.
    """
    if isinstance(prior, GridDistribution):
        counts, grid, trapezoid = [prior.nodes.size], lambda n: prior, False
    else:
        counts, grid, trapezoid = list(prior.counts()), prior.grid, prior.rule == TRAPEZOID
    # one kernel buffer for every count: a buffer per count would have its
    # pages faulted in afresh each time
    scratch = _kernel_scratch(*counts)
    coarse = prev = gap = None
    for n, following in zip(counts, counts[1:] + [None]):
        nests = trapezoid and following == 2 * n - 1
        calc = _SpreadCalculator(grid(n), strategy, scratch, coarse, keep=nests)
        try:
            value, result = evaluate(calc)
        except ToleranceError:
            # finer counts may converge; the kept sums still serve the next
            if following is None:
                raise
            value = None
        # the sums count n kept and this count did not use go with it
        calc._coarse = None
        coarse = calc if nests else None
        if prev is not None and value is not None:
            gap = abs(value - prev)
            if gap <= max(rel_tol * abs(value), 1e-300):
                calc._sums = None  # Monte Carlo's later chunks keep nothing
                return result, gap, True
        prev = value
    return result, gap, isinstance(prior, GridDistribution)


def _folds_every_count(strategy, prior: Union[GridDistribution, PriorRule]) -> bool:
    """True when every ``_SpreadCalculator`` that ``_refine_count`` can
    build on ``prior`` folds: a ``phase_symmetric`` strategy on a
    ``_mirror`` grid, or on a flat rule whose every grid is one (the
    midpoint rule on [-pi, pi) and an even ceiling, since the counts below
    it, 64 doubling, are even)."""
    if not strategy.phase_symmetric:
        return False
    if isinstance(prior, GridDistribution):
        return prior._mirror
    return prior.rule == MIDPOINT and prior.max_nodes % 2 == 0 and _flat_full_circle(prior)


def _monte_carlo(strategy, prior: Union[GridDistribution, PriorRule], samples, rng, rel_tol):
    """Seeded Monte Carlo in chunks of ``_MC_CHUNK`` draws.

    Theta is drawn from a ``GridDistribution``, or from a ``PriorRule``'s
    grid of ``max_nodes`` on the support's own rule (``PriorRule.grid``),
    and one outcome per theta; the grid keeps its inverse CDF
    (``GridDistribution._cdf``), which serves every chunk and call.  Where
    every calculator folds (``_folds_every_count``) a draw enters only
    through |beta|, whose law is the same at every theta: the
    law at theta is the theta = 0 law rotated by -theta.  There no theta
    is drawn and no ceiling grid built; each outcome is drawn from the
    theta = 0 law, exactly the law of |beta| under the prior.  The first
    chunk's means choose the calculator (``_refine_count``; on a rule
    without agreement, the ceiling count's), which serves every chunk.
    The draws do not depend on the count; ``std_error`` is the standard
    error plus the last gap.  Each chunk's features are formed once per
    reduction and shared by every count the search tries, as one array,
    so a nested trapezoid count reduces only its odd nodes on the first
    chunk and adds the sums of the count before (``_refine_count``);
    later chunks run the chosen count's full kernel and keep no sums.
    """
    if rng is None:
        raise ValueError("Monte Carlo requires a seeded generator")
    if samples < 1:
        raise ValueError(f"Monte Carlo needs at least one sample, got {samples}")
    if _folds_every_count(strategy, prior):
        moments = strategy.outcome_moments(0.0)

        def draw_outcomes(m):
            return sample_gaussian_outcomes(*moments, rng, m)
    else:
        draw = (prior if isinstance(prior, GridDistribution)
                else prior.grid(prior.max_nodes, _default_rule(prior.support)))

        def draw_outcomes(m):
            return strategy.sample_outcomes_given(draw.sample(rng, m), rng)
    calc = gap = None
    # Chan's merge of the per-chunk count, mean and sum of squared deviations
    done, mean, m2 = 0, 0.0, 0.0
    while done < samples:
        m = min(_MC_CHUNK, samples - done)
        outcomes = draw_outcomes(m)
        feats = {}  # by calc.symmetric: each count of the search shares them

        def spreads(calc):
            # rotation covariance on the flat full-circle prior: beta and
            # |beta| have the same posterior spread, and |beta| folds; a
            # sum of features over rounds must not be reduced so
            if calc.symmetric not in feats:
                feats[calc.symmetric] = strategy.outcome_features(
                    np.abs(outcomes) if calc.symmetric else outcomes)
            return calc.spreads(feats[calc.symmetric])[0]
        if calc is None:
            def evaluate(calc):
                v = spreads(calc)
                return float(v.mean()), (calc, v)
            (calc, v), gap, _ = _refine_count(strategy, prior, evaluate, rel_tol)
        else:
            v = spreads(calc)
        chunk_mean = float(v.mean())
        chunk_m2 = float(((v - chunk_mean) ** 2).sum())
        delta = chunk_mean - mean
        total = done + m
        mean += delta * m / total
        m2 += chunk_m2 + delta * delta * done * m / total
        done = total
    se = math.sqrt(m2 / samples / samples)
    return AverageVariance(mean, se + (gap or 0.0), "monte-carlo",
                           prior_nodes=calc._prior.nodes.size, samples=samples)


def _quadrature(strategy, prior: Union[GridDistribution, PriorRule], rel_tol, max_level):
    """Outcome quadrature (``_quadrature_outcome_grid``) on each calculator
    of ``_refine_count``.  Each level's rule and the features of the
    outcomes the driver's integrand call evaluates are made once, on the
    first count that reaches the level, and every count shares them.  The
    driver's first call takes levels 0 and 1 at once, so a count that
    stops at level k makes k ``spreads`` calls.  A nested trapezoid count
    reduces only its odd prior nodes on each feature array the count
    before reduced, to a few eps relative of its grid alone.  On a
    ``PriorRule`` the error is the outcome-step error plus the gap between
    the last two counts: the rules converge spectrally, so the gap bounds
    the finer count's prior-grid error.  ToleranceError carries the last
    value when no two counts agree; where no two successive counts gave
    values (a rule of one count), which no second count can check, it
    says so.  A ``radial_outcomes`` strategy on a prior that is not flat
    on the full circle raises ``PriorSymmetryError``: its rule would
    integrate the wrong outcome law.
    """
    if strategy.radial_outcomes and not _flat_full_circle(prior):
        raise PriorSymmetryError("a radial outcome rule needs a prior flat on the full "
                                 "circle [-pi, pi); use method='montecarlo'")
    rows = strategy.outcome_rows
    fresh = []  # the features of the outcomes of each integrand call
    rules = {}  # by level; a dict, not functools.cache, whose wrapper costs more per op

    def rule(level):
        if level not in rules:
            outcomes, weights = strategy.outcome_nodes(level)
            rules[level] = outcomes.reshape(rows, -1), weights.reshape(rows, -1)
        return rules[level]

    def evaluate(calc):
        call = 0

        def integrand(outcomes):
            # every count's driver makes the same calls in the same order:
            # level 1's whole grid, then the new points of each level
            nonlocal call
            if call == len(fresh):
                fresh.append(strategy.outcome_features(outcomes.ravel()))
            v, z = calc.spreads(fresh[call])
            call += 1
            return (z * v).reshape(outcomes.shape)
        res = _quadrature_outcome_grid(rule, integrand, rel_tol, max_level)
        return res.value, (res, calc._prior.nodes.size)
    (res, nodes), gap, agreed = _refine_count(strategy, prior, evaluate, rel_tol)
    res = AverageVariance(res.value, res.std_error if gap is None else res.std_error + gap,
                          res.method, res.levels, nodes)
    if agreed:
        return res
    if gap is None:
        raise ToleranceError(f"no two successive counts within {prior.max_nodes} nodes gave "
                             "values, and one count cannot check the prior-grid error: pass "
                             "a GridDistribution or a larger max_nodes", estimate=res.value)
    raise ToleranceError(f"prior quadrature did not converge within {prior.max_nodes} nodes",
                         estimate=res.value, std_error=res.std_error)


def average_posterior_variance(strategy, prior: Union[GridDistribution, PriorRule],
                               method: str = "quadrature", samples: int = 100_000,
                               rng: Optional[np.random.Generator] = None,
                               rel_tol: float = 1e-6, max_level: int = 5) -> AverageVariance:
    """Outcome-averaged posterior variance of an estimation strategy.

    ``method`` is "quadrature" (deterministic step halving, returning the
    Richardson-extrapolated value with the gap to the previous level's
    extrapolated value as its outcome-step error; ``_quadrature``) or
    "montecarlo" (theta ~ prior, m ~ p(m|theta), standard error reported,
    ``samples`` >= 1; ``_monte_carlo``).  Both run one path for either prior type
    (``_refine_count``).  A ``GridDistribution`` is used as it is.  On a
    ``PriorRule`` both choose the prior node count, doubling it until two
    counts agree within ``rel_tol``, and add the gap to ``std_error``:
    quadrature raises ``ToleranceError`` when no two counts agree, Monte
    Carlo (which chooses on its first chunk and draws theta from the
    rule's grid of ``max_nodes``) then runs on the ceiling count.  Monte
    Carlo draws are chunked at a fixed size so results depend only on the
    generator's seed.
    """
    if method == "quadrature":
        return _quadrature(strategy, prior, rel_tol, max_level)
    if method == "montecarlo":
        return _monte_carlo(strategy, prior, samples, rng, rel_tol)
    raise ValueError(f"unknown method {method!r}")

"""Bayesian estimation of a squeezing strength with q-homodyne readout.

The channel acts on moments through the symplectic diag(e^{-r}, e^{r})
(squeezing direction known and fixed to phi = 0), so the likelihood is a
Gaussian whose mean and width both carry the parameter.  Displaced probes
are handled on an r-grid; the vacuum probe admits a Gamma-conjugate
treatment in the precision of the outcome distribution.

Conjugacy bookkeeping: the outcome given r is N(0, delta^2) with
delta = e^{-r}/sqrt2 for a vacuum probe.  The Gamma family is conjugate
in the precision lambda = 1/delta^2 = 2 e^{2r}; the (a, b) update rule
(a + m/2, b + sum q_i^2/2) is exactly the textbook precision update, and
r is recovered through r = ln(lambda/2)/2 = -ln(sqrt2 delta).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import bayes
from .bayes import (AverageVariance, GammaPrior, GaussianOutcomeStrategy, GaussianPrior,
                    GridDistribution, Interval, PriorRule, average_posterior_variance,
                    gaussian_outcome_density, trapezoid)
from .phasespace import GaussianState, ProbeSpec, _symplectic_apply, gamma_qq

__all__ = [
    "SqueezeTask",
    "squeeze_channel",
    "homodyne_likelihood",
    "conditional_moments",
    "vacuum_gamma_update",
    "delta_to_r",
    "r_to_delta",
    "precision_of_r",
    "gamma_prior_r_grid",
    "gamma_density_over_r",
    "posterior",
    "SqueezeStrategy",
    "average_variance",
    "van_trees_bound",
    "EnergySplitResult",
    "energy_split_scan",
]


@dataclass(frozen=True)
class SqueezeTask:
    """Squeezing-strength estimation with a Gaussian prior over r."""

    probe: ProbeSpec
    prior: GaussianPrior
    grid_nodes: int = bayes.LINEAR_GRID_NODES
    span_sigmas: float = 6.0

    def __post_init__(self):
        alpha = complex(self.probe.alpha)
        if alpha.imag != 0.0 or alpha.real < 0.0:
            raise ValueError("probe displacement must be real and >= 0")

    def prior_rule(self) -> PriorRule:
        """The prior truncated to ``span_sigmas``, on at most ``grid_nodes`` nodes."""
        return PriorRule.gaussian(self.prior, self.grid_nodes, self.span_sigmas)

    def prior_grid(self) -> GridDistribution:
        return GridDistribution.from_gaussian(self.prior, self.grid_nodes,
                                              self.span_sigmas)


def squeeze_channel(st: GaussianState, r: float) -> GaussianState:
    """Moment map of the estimated squeezer at phi = 0: diag(e^{-r}, e^{r}).

    Goes through the shared symplectic update, so the result carries the
    uncertainty invariant of ``st``.
    """
    return _symplectic_apply(st, np.diag([math.exp(-r), math.exp(r)]))


def conditional_moments(probe: ProbeSpec, r):
    """Mean and standard deviation of the q outcome given the strength r."""
    r = np.asarray(r, dtype=float)
    alpha_r = complex(probe.alpha).real
    g = gamma_qq(probe.s, probe.psi)
    mu = math.sqrt(2.0) * alpha_r * np.exp(-r)
    sd = np.exp(-r) * math.sqrt(g / 2.0)
    return mu, sd


def homodyne_likelihood(probe: ProbeSpec, r, q):
    """p(q | r): Gaussian with mean sqrt2 Re(alpha) e^{-r} and variance
    e^{-2r} (cosh 2s - cos psi sinh 2s)/2; vectorized over r."""
    mu, sd = conditional_moments(probe, r)
    return gaussian_outcome_density(q, mu, sd * sd)


# ---------------------------------------------------------------------------
# vacuum probe: Gamma conjugacy


def delta_to_r(delta: float) -> float:
    return -math.log(math.sqrt(2.0) * delta)


def r_to_delta(r: float) -> float:
    return math.exp(-r) / math.sqrt(2.0)


def precision_of_r(r):
    return 2.0 * np.exp(2.0 * np.asarray(r, dtype=float))


def vacuum_gamma_update(prior: GammaPrior, outcomes: Sequence[float]) -> GammaPrior:
    """Conjugate update for the vacuum probe; see the module docstring for
    the delta/precision/r bookkeeping."""
    return bayes.gamma_update(prior, outcomes)


def gamma_density_over_r(gp: GammaPrior, r_nodes) -> np.ndarray:
    """Density over r induced by a Gamma density over the precision
    lambda = 2 e^{2r} (Jacobian dlambda/dr = 2 lambda included)."""
    lam = precision_of_r(r_nodes)
    log_dens = (gp.a * np.log(gp.b) + gp.a * np.log(lam) - gp.b * lam
                + math.log(2.0) - math.lgamma(gp.a))
    return np.exp(log_dens)


def gamma_prior_r_grid(gp: GammaPrior, lo: float, hi: float,
                       n: int = bayes.LINEAR_GRID_NODES) -> GridDistribution:
    return GridDistribution.from_function(Interval(lo, hi),
                                          lambda r: gamma_density_over_r(gp, r), n)


# ---------------------------------------------------------------------------
# grid posterior and the generic engine


def posterior(task: SqueezeTask, q: float,
              prior_grid: Optional[GridDistribution] = None) -> GridDistribution:
    grid = task.prior_grid() if prior_grid is None else prior_grid
    return bayes.grid_update(grid, lambda r, m: homodyne_likelihood(task.probe, r, m), q)


class SqueezeStrategy(GaussianOutcomeStrategy):
    """Engine adapter for squeezing estimation.

    The conditional outcome scale e^{-r} spans orders of magnitude across
    a wide prior, and the posterior variance as a function of q has
    structure at every one of those scales down to the narrowest
    conditional (V(q -> 0) climbs back to the prior variance: an outcome
    at the origin only rules the small-r branch out).  The outcome
    quadrature therefore runs on a two-sided geometrically spaced grid,
    i.e. a uniform trapezoid in log |q|, which resolves all scales and
    keeps clean step-halving behavior.  The two halves q < 0 and q > 0
    are two trapezoid rules end to end.
    """

    outcome_rows = 2

    def __init__(self, probe: ProbeSpec, prior: GaussianPrior,
                 span_sigmas: float = 6.0):
        self.probe = probe
        sd0 = math.sqrt(prior.var0)
        r_lo = prior.mu0 - span_sigmas * sd0
        r_hi = prior.mu0 + span_sigmas * sd0
        mu_lo, sd_lo = conditional_moments(probe, np.array([r_lo]))
        _, sd_hi = conditional_moments(probe, np.array([r_hi]))
        self._u_hi = math.log(float(mu_lo[0]) + 9.0 * float(sd_lo[0]))
        self._u_lo = math.log(float(sd_hi[0])) - 8.0
        super().__init__(self._moments, self._nodes, dim=1, circular=False)

    def _moments(self, rs):
        mu, sd = conditional_moments(self.probe, rs)
        return mu, sd * sd

    def _nodes(self, level):
        u, wu = trapezoid(self._u_lo, self._u_hi, 256 * 2**level + 1)
        q = np.exp(u)
        w = q * wu  # dq = e^u du
        return np.concatenate([-q[::-1], q]), np.concatenate([w[::-1], w])


def average_variance(task: SqueezeTask, method: str = "quadrature",
                     samples: int = 20_000,
                     rng: Optional[np.random.Generator] = None,
                     rel_tol: float = 1e-5) -> AverageVariance:
    strategy = SqueezeStrategy(task.probe, task.prior, task.span_sigmas)
    return average_posterior_variance(strategy, task.prior_rule(), method=method,
                                      samples=samples, rng=rng, rel_tol=rel_tol)


def van_trees_bound(n: float, sigma0sq: float) -> float:
    """Bayesian quantum bound 1/(1/sigma0^2 + 2 (2n+1)^2): Gaussian-prior
    Fisher information plus the photon-number-optimized QFI."""
    if n < 0:
        raise ValueError("photon number must be >= 0")
    return 1.0 / (1.0 / sigma0sq + 2.0 * (2.0 * n + 1.0) ** 2)


# ---------------------------------------------------------------------------
# energy split between displacement and squeezing at fixed photon number


@dataclass(frozen=True)
class EnergySplitResult:
    best_alpha: float
    best_s: float
    best_value: float
    table: tuple  # rows (s, alpha, value, std_error)


def energy_split_scan(n: float, prior: GaussianPrior, n_points: int = 64,
                      psi: float = 0.0, method: str = "quadrature",
                      samples: int = 20_000, seed: Optional[int] = None,
                      grid_nodes: int = bayes.LINEAR_GRID_NODES) -> EnergySplitResult:
    """Scan probe splits |alpha|^2 + sinh^2 s = n and minimize the average
    posterior variance along the constant-photon-number contour."""
    if n < 0:
        raise ValueError("photon number must be >= 0")
    if n == 0:
        splits = [(0.0, 0.0)]
    else:
        s_vals = np.linspace(0.0, math.asinh(math.sqrt(n)), n_points)
        splits = [(float(math.sqrt(max(n - math.sinh(s) ** 2, 0.0))), float(s))
                  for s in s_vals]
    rows = []
    for idx, (alpha, s) in enumerate(splits):
        task = SqueezeTask(ProbeSpec(alpha, s, psi), prior, grid_nodes)
        rng = None
        if method.startswith("m"):
            rng = np.random.default_rng(np.random.SeedSequence((0 if seed is None else seed, idx)))
        res = average_variance(task, method=method, samples=samples, rng=rng)
        rows.append((s, alpha, res.value, res.std_error))
    best = min(rows, key=lambda row: row[2])
    return EnergySplitResult(best_alpha=best[1], best_s=best[0], best_value=best[2],
                             table=tuple(rows))

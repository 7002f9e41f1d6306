"""Bayesian estimation of a squeezing strength with q-homodyne readout.

The channel acts on moments through the symplectic diag(e^{-r}, e^{r})
(squeezing direction known and fixed to phi = 0), so the likelihood is a
Gaussian whose mean and width both carry the parameter.  Displaced probes
are handled on an r-grid; the vacuum probe admits a Gamma-conjugate
treatment in the precision of the outcome distribution.

Conjugacy bookkeeping: the outcome given r is N(0, delta^2) with
delta = e^{-r}/sqrt2 for a vacuum probe.  The Gamma family is conjugate
in the precision lambda = 1/delta^2 = 2 e^{2r}; the (a, b) update rule
(a + m/2, b + sum q_i^2/2) of ``bayes.gamma_update`` is exactly the
textbook precision update, and
r is recovered through r = ln(lambda/2)/2 = -ln(sqrt2 delta).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import bayes
from .bayes import (AverageVariance, GammaPrior, GaussianOutcomeStrategy, GaussianPrior,
                    GridDistribution, Interval, PriorRule, average_posterior_variance,
                    gaussian_outcome_density, trapezoid)
from .phasespace import ProbeSpec, gamma_qq

__all__ = [
    "SqueezeTask",
    "homodyne_likelihood",
    "conditional_moments",
    "precision_of_r",
    "gamma_prior_r_grid",
    "gamma_density_over_r",
    "posterior",
    "SqueezeStrategy",
    "average_variance",
    "van_trees_bound",
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


def precision_of_r(r):
    return 2.0 * np.exp(2.0 * np.asarray(r, dtype=float))


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
    grid = task.prior_rule().grid(task.grid_nodes) if prior_grid is None else prior_grid
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
    are two trapezoid rules end to end, spanning the outcomes of the
    prior ``support`` (``SqueezeTask.prior_rule().support``).
    """

    outcome_rows = 2

    def __init__(self, probe: ProbeSpec, support: Interval):
        self.probe = probe
        mu_lo, sd_lo = conditional_moments(probe, np.array([support.lo]))
        _, sd_hi = conditional_moments(probe, np.array([support.hi]))
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
    prior = task.prior_rule()
    return average_posterior_variance(SqueezeStrategy(task.probe, prior.support), prior,
                                      method=method, samples=samples, rng=rng, rel_tol=rel_tol)


def van_trees_bound(n: float, sigma0sq: float) -> float:
    """Bayesian quantum bound 1/(1/sigma0^2 + 2 (2n+1)^2): Gaussian-prior
    Fisher information plus the photon-number-optimized QFI."""
    if n < 0:
        raise ValueError("photon number must be >= 0")
    return 1.0 / (1.0 / sigma0sq + 2.0 * (2.0 * n + 1.0) ** 2)


"""Bayesian displacement estimation with Gaussian priors.

Heterodyne and homodyne detection on a squeezed-vacuum probe both yield
Gaussian likelihoods in the displacement, so every posterior is available
in closed form; the grid/Monte Carlo engines are kept wired up as
independent cross-checks of those formulas.  The isotropic complex prior
is stored as two independent real Gaussians with a shared variance, which
is exact because the heterodyne likelihood factorizes for probes squeezed
along phi = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import bayes
from .bayes import (AverageVariance, GaussianOutcomeStrategy, GaussianPrior,
                    PriorRule, average_posterior_variance)
from .measurement import HETERODYNE, Measurement, MeasurementKind
from .phasespace import gamma_qq

__all__ = [
    "DisplacementTask",
    "het_coordinate_variance",
    "het_posterior",
    "het_avg_total_variance",
    "hom_posterior",
    "hom_avg_variance_q",
    "squeezing_threshold",
    "repeated_variance",
    "HeterodyneCoordinateStrategy",
    "HomodyneQuadratureStrategy",
    "het_avg_total_variance_numeric",
    "hom_avg_variance_q_numeric",
]


@dataclass(frozen=True)
class DisplacementTask:
    """Estimation of a complex displacement under an isotropic Gaussian prior."""

    sigma0sq: float
    alpha0: complex = 0j
    probe_r: float = 0.0
    probe_phi: float = 0.0  # homodyne only; heterodyne probes are fixed to phi=0
    measurement: Measurement = HETERODYNE

    def __post_init__(self):
        if self.sigma0sq <= 0:
            raise ValueError("prior variance must be positive")

    def prior_r(self) -> GaussianPrior:
        return GaussianPrior(complex(self.alpha0).real, self.sigma0sq)

    def prior_i(self) -> GaussianPrior:
        return GaussianPrior(complex(self.alpha0).imag, self.sigma0sq)


def _het_like_var(r: float, coord: str) -> float:
    # per-coordinate heterodyne likelihood variance (1 + e^{-+2r})/4
    sign = -1.0 if coord == "R" else 1.0
    return (1.0 + math.exp(sign * 2.0 * r)) / 4.0


def het_coordinate_variance(sigma0sq: float, r: float, coord: str) -> float:
    """Posterior variance of one displacement coordinate after heterodyne:
    [1/sigma0^2 + 2(1 +- tanh r)]^{-1} with + for the squeezed coordinate."""
    sign = 1.0 if coord == "R" else -1.0
    return 1.0 / (1.0 / sigma0sq + 2.0 * (1.0 + sign * math.tanh(r)))


def het_posterior(task: DisplacementTask, beta: complex):
    """Closed-form posterior after heterodyne outcome beta.

    Returns (posterior for Re alpha, posterior for Im alpha); both are
    Gaussian because the factorized likelihood is conjugate to the prior.
    """
    if task.measurement.kind is not MeasurementKind.HETERODYNE:
        raise ValueError("task is not a heterodyne task")
    beta = complex(beta)
    post_r = bayes.gaussian_update(task.prior_r(), beta.real, _het_like_var(task.probe_r, "R"))
    post_i = bayes.gaussian_update(task.prior_i(), beta.imag, _het_like_var(task.probe_r, "I"))
    return post_r, post_i


def het_avg_total_variance(sigma0sq: float, r: float) -> float:
    """Average total posterior variance for heterodyne; outcome-independent.

    Equals 2 sigma0^2/(1 + 2 sigma0^2) at r = 0, which is also the minimum
    over r.
    """
    return (het_coordinate_variance(sigma0sq, r, "R")
            + het_coordinate_variance(sigma0sq, r, "I"))


def hom_posterior(task: DisplacementTask, q: float):
    """Closed-form posterior after a q-quadrature homodyne outcome.

    Returns (posterior for Re alpha, prior for Im alpha); the orthogonal
    quadrature is untouched by the measurement.
    """
    if task.measurement.kind is not MeasurementKind.HOMODYNE:
        raise ValueError("task is not a homodyne task")
    g = gamma_qq(task.probe_r, task.probe_phi)
    post_r = bayes.gaussian_update(task.prior_r(), q / math.sqrt(2.0), g / 4.0)
    return post_r, task.prior_i()


def hom_avg_variance_q(sigma0sq: float, r: float) -> float:
    """Average posterior variance of the measured quadrature coordinate,
    probe squeezed along the measurement: (1/sigma0^2 + 4 e^{2r})^{-1}."""
    return 1.0 / (1.0 / sigma0sq + 4.0 * math.exp(2.0 * r))


def squeezing_threshold(sigma0sq: float) -> Optional[float]:
    """Probe squeezing above which homodyne beats heterodyne in total variance.

    For sigma0^2 >= 1/2 heterodyne is never beaten and None is returned;
    otherwise the threshold is -ln(1 - 2 sigma0^2)/2.
    """
    if sigma0sq <= 0:
        raise ValueError("prior variance must be positive")
    if sigma0sq >= 0.5:
        return None
    return -0.5 * math.log(1.0 - 2.0 * sigma0sq)


def repeated_variance(sigma0sq: float, r: float, m: int) -> float:
    """Posterior variance after m homodyne rounds with the same probe:
    (1/sigma0^2 + 4 m e^{2r})^{-1}, the fixed point of the conjugate
    recursion."""
    if m < 0:
        raise ValueError("round count must be >= 0")
    return 1.0 / (1.0 / sigma0sq + 4.0 * m * math.exp(2.0 * r))


# ---------------------------------------------------------------------------
# engine strategies (numerical cross-checks of the closed forms)


def _coordinate_model(prior: GaussianPrior, gain: float, like_var: float):
    """Moment map and outcome rule of an outcome ~ N(gain theta, like_var):
    ``bayes._linear_outcome_rule`` over the prior-induced mean range
    gain (mu0 +- 9 sigma0) plus 9 likelihood sd on either side, sized by
    the sd of the outcome's marginal, sqrt(gain^2 sigma0^2 + like_var).
    That sd is at least the span / (18 sqrt2), so the rule always has 128
    level-0 nodes.  9 sd, not 7: at 7 the span drops 1.0e-12 relative of
    the (sigma0^2, r) = (100, 1) homodyne value, which ``std_error`` does
    not count."""
    sd0 = math.sqrt(prior.var0)
    locs = gain * np.array([prior.mu0 - 9.0 * sd0, prior.mu0 + 9.0 * sd0])
    pad = 9.0 * math.sqrt(like_var)
    lo = float(min(locs)) - pad
    hi = float(max(locs)) + pad
    return (lambda t: (gain * t, np.full(t.shape, like_var)),
            bayes._linear_outcome_rule(lo, hi, math.hypot(gain * sd0, math.sqrt(like_var))))


class HeterodyneCoordinateStrategy(GaussianOutcomeStrategy):
    """One real coordinate of the heterodyne displacement problem."""

    def __init__(self, sigma0sq, r, coord="R", mu0=0.0):
        self.prior = GaussianPrior(mu0, sigma0sq)
        super().__init__(*_coordinate_model(self.prior, 1.0, _het_like_var(r, coord)),
                         dim=1, circular=False)


class HomodyneQuadratureStrategy(GaussianOutcomeStrategy):
    """q-homodyne displacement problem; outcome q ~ N(sqrt2 theta, Gqq/2)."""

    def __init__(self, sigma0sq, r, phi=0.0, mu0=0.0):
        self.prior = GaussianPrior(mu0, sigma0sq)
        super().__init__(*_coordinate_model(self.prior, math.sqrt(2.0), gamma_qq(r, phi) / 2.0),
                         dim=1, circular=False)


def _coordinate_engine(strategy, method, samples, rng) -> AverageVariance:
    # 8 sigma keeps the grid-truncation bias of the conjugate posterior
    # variance below machine noise, which the Monte Carlo standard error
    # of this outcome-independent quantity would otherwise expose
    prior = PriorRule.gaussian(strategy.prior, bayes.LINEAR_GRID_NODES, span_sigmas=8.0)
    return average_posterior_variance(strategy, prior, method=method,
                                      samples=samples, rng=rng)


def het_avg_total_variance_numeric(sigma0sq: float, r: float, method: str = "quadrature",
                                   samples: int = 100_000,
                                   rng: Optional[np.random.Generator] = None) -> AverageVariance:
    """Engine evaluation of the heterodyne total variance (both coordinates).

    An unsqueezed probe (r = 0) gives both coordinates one likelihood, so
    quadrature, which is deterministic, evaluates the R coordinate once and
    counts it twice; Monte Carlo draws each coordinate afresh.  The errors
    of deterministic parts add linearly, those of independent draws in
    quadrature.  When a coordinate raises ToleranceError, the total's
    carries the sum of both coordinates' estimates and errors.
    """
    coords = ["R"]
    if method != "quadrature" or _het_like_var(r, "R") != _het_like_var(r, "I"):
        coords.append("I")
    parts, failed = [], None
    for coord in coords:
        try:
            parts.append(_coordinate_engine(HeterodyneCoordinateStrategy(sigma0sq, r, coord),
                                            method, samples, rng))
        except bayes.ToleranceError as exc:
            failed = exc
            parts.append(AverageVariance(exc.estimate, exc.std_error, method))
    if len(parts) == 1:
        parts.append(parts[0])
    value = parts[0].value + parts[1].value
    errs = [p.std_error for p in parts]
    err = None if None in errs else sum(errs) if method == "quadrature" else math.hypot(*errs)
    if failed is not None:
        raise bayes.ToleranceError(f"{failed} (in one coordinate of the total)",
                                   estimate=value, std_error=err) from failed
    # the finer grid and the deeper level of the two; draws of both
    return AverageVariance(value, err, parts[0].method,
                           levels=max(p.levels for p in parts),
                           prior_nodes=max(p.prior_nodes for p in parts),
                           samples=sum(p.samples for p in parts))


def hom_avg_variance_q_numeric(sigma0sq: float, r: float, method: str = "quadrature",
                               samples: int = 100_000,
                               rng: Optional[np.random.Generator] = None) -> AverageVariance:
    """Engine evaluation of ``hom_avg_variance_q``: probe squeezed along
    the measured quadrature (phi = 0)."""
    return _coordinate_engine(HomodyneQuadratureStrategy(sigma0sq, r), method, samples, rng)

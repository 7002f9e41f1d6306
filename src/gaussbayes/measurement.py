"""Homodyne and heterodyne detection: outcome densities and samplers.

Heterodyne outcomes are complex numbers beta with density
(1/pi) F(|beta><beta|, rho); equivalently a bivariate Gaussian in
(Re beta, Im beta) with covariance (cov + 1/2)/2.  Homodyne outcomes are
real quadrature values; homodyne at angle theta is defined as q-homodyne
after rotating the state by -theta, which fixes the sign convention once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .bayes import gaussian_outcome_density, sample_gaussian_outcomes
from .phasespace import GaussianState, rotate
# not called here: the benchmark's tracer (perfbench/tracer.py) wraps
# measurement.fidelity by name, so the name stays bound
from .phasespace import fidelity  # noqa: F401

__all__ = [
    "MeasurementKind",
    "Measurement",
    "HETERODYNE",
    "homodyne",
    "heterodyne_density",
    "homodyne_density",
    "homodyne_moments",
    "husimi_moments",
    "sample_outcomes",
]


class MeasurementKind(Enum):
    HETERODYNE = "heterodyne"
    HOMODYNE = "homodyne"


@dataclass(frozen=True)
class Measurement:
    kind: MeasurementKind
    quadrature_angle: float = 0.0  # homodyne only; 0 measures q

    def __post_init__(self):
        if self.kind is MeasurementKind.HOMODYNE:
            if not (0.0 <= self.quadrature_angle < math.pi):
                raise ValueError("quadrature angle must lie in [0, pi)")


HETERODYNE = Measurement(MeasurementKind.HETERODYNE)


def homodyne(angle: float = 0.0) -> Measurement:
    return Measurement(MeasurementKind.HOMODYNE, angle)


def heterodyne_density(st: GaussianState, beta):
    """Probability density over the complex plane for heterodyne outcome
    beta, the bivariate Gaussian of ``husimi_moments``; vectorized in beta."""
    out = gaussian_outcome_density(np.asarray(beta, dtype=complex), *_heterodyne_law(st))
    return float(out) if out.ndim == 0 else out


def husimi_moments(st: GaussianState):
    """Mean (complex) and 2x2 covariance of the heterodyne outcome in
    (Re beta, Im beta) coordinates."""
    mean = (st.mean[0] + 1j * st.mean[1]) / math.sqrt(2.0)
    cov = (st.cov + 0.5 * np.eye(2)) / 2.0
    return mean, cov


def _heterodyne_law(st: GaussianState):
    """``husimi_moments`` with the covariance as (vxx, vyy, vxy), read from
    the state's covariance entries without building a 2x2 array."""
    mean = (st.mean[0] + 1j * st.mean[1]) / math.sqrt(2.0)
    cov = st.cov
    return mean, ((cov[0, 0] + 0.5) / 2.0, (cov[1, 1] + 0.5) / 2.0, cov[0, 1] / 2.0)


def homodyne_moments(st: GaussianState, angle: float = 0.0):
    """Mean and variance of the measured quadrature."""
    rotated = rotate(st, -angle) if angle != 0.0 else st
    return float(rotated.mean[0]), float(rotated.cov[0, 0])


def homodyne_density(st: GaussianState, q, angle: float = 0.0):
    """Gaussian marginal of the (rotated) Wigner function; vectorized in q."""
    out = gaussian_outcome_density(np.asarray(q, dtype=float), *homodyne_moments(st, angle))
    return float(out) if out.ndim == 0 else out


def sample_outcomes(st: GaussianState, meas: Measurement, rng: np.random.Generator, size: int):
    """Draw ``size`` independent outcomes; deterministic given the generator state."""
    if meas.kind is MeasurementKind.HOMODYNE:
        return sample_gaussian_outcomes(*homodyne_moments(st, meas.quadrature_angle), rng, size)
    return sample_gaussian_outcomes(*_heterodyne_law(st), rng, size)

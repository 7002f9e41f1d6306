"""Single-mode Gaussian state algebra.

States are (mean, covariance) pairs in the quadrature convention
x = (q, p), vacuum covariance = identity/2.  The Wigner function and the
Gaussian fidelity use the doubled second-moment matrix G = 2*cov; fixing
that factor here once reproduces every closed form downstream.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "GaussianState",
    "ProbeSpec",
    "vacuum",
    "coherent",
    "displace",
    "squeeze",
    "rotate",
    "squeeze_matrix",
    "rotation_matrix",
    "gamma_qq",
    "wigner",
    "fidelity",
    "mean_photon",
    "qfi_fidelity",
]

_UNCERTAINTY_TOL = 1e-9
# det(cov) = c00*c11 - c01^2 is the difference of two products of size
# kappa = |c00*c11| + c01^2, so its rounding error grows with kappa: the
# entries of a strongly squeezed state are large while det stays 1/4.
# Checks on det allow this many eps*kappa on top of their absolute slack.
_DET_ROUNDING = 16.0
_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True, eq=False)
class GaussianState:
    """First-moment vector (2,) and symmetric covariance matrix (2,2).

    ``det`` is the state's uncertainty invariant det(cov), which every
    Gaussian unitary preserves.  The unitaries below carry it unchanged
    rather than re-deriving it from rounded entries: it is exactly 1/4 for
    every state that descends from the vacuum, and for a state built from
    a given covariance, pure or mixed, it is that covariance's determinant,
    taken once here when ``det`` is omitted.  A given ``det`` must agree
    with ``cov`` to rounding.
    """

    mean: np.ndarray
    cov: np.ndarray
    det: float | None = field(default=None, kw_only=True)

    def __post_init__(self):
        mean = np.array(self.mean, dtype=float).reshape(2)
        (c00, c01), (c10, c11) = np.asarray(self.cov, dtype=float).reshape(2, 2).tolist()
        # np.allclose(cov, cov.T, atol=1e-12) on scalars: the numpy call
        # costs more than the rest of the constructor together
        if not abs(c01 - c10) <= 1e-12 + 1e-5 * min(abs(c01), abs(c10)):
            raise ValueError("covariance must be symmetric")
        c01 = 0.5 * (c01 + c10)
        prod, sq = c00 * c11, c01 * c01
        det_cov = prod - sq
        slack = max(_UNCERTAINTY_TOL, _DET_ROUNDING * _EPS * (abs(prod) + sq))
        if not (c00 > 0 and det_cov >= 0.25 - slack):
            raise ValueError("covariance violates the uncertainty relation")
        det = det_cov if self.det is None else float(self.det)
        if not abs(det - det_cov) <= slack:
            raise ValueError("det does not match the covariance")
        cov = np.array([[c00, c01], [c01, c11]])
        mean.setflags(write=False)
        cov.setflags(write=False)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)
        object.__setattr__(self, "det", det)


@dataclass(frozen=True)
class ProbeSpec:
    """Displaced squeezed probe: D(alpha) S(s e^{i psi}) |0>."""

    alpha: complex = 0j
    s: float = 0.0
    psi: float = 0.0

    def __post_init__(self):
        if self.s < 0:
            raise ValueError("squeezing strength must be >= 0")

    def state(self) -> GaussianState:
        return displace(squeeze(vacuum(), self.s, self.psi), self.alpha)

    def mean_photon(self) -> float:
        return abs(self.alpha) ** 2 + math.sinh(self.s) ** 2


def vacuum() -> GaussianState:
    return GaussianState(np.zeros(2), 0.5 * np.eye(2))


def coherent(alpha: complex) -> GaussianState:
    return displace(vacuum(), alpha)


def displace(st: GaussianState, alpha: complex) -> GaussianState:
    alpha = complex(alpha)
    shift = math.sqrt(2.0) * np.array([alpha.real, alpha.imag])
    return GaussianState(st.mean + shift, st.cov, det=st.det)


def squeeze_matrix(r: float, phi: float = 0.0) -> np.ndarray:
    """Symplectic matrix of the squeezer S(r e^{i phi}) acting on (q, p)."""
    ch, sh = math.cosh(r), math.sinh(r)
    c, s = math.cos(phi), math.sin(phi)
    return np.array([[ch - c * sh, s * sh], [s * sh, ch + c * sh]])


def rotation_matrix(theta: float) -> np.ndarray:
    # clockwise: R(theta) |alpha> has mean sqrt(2)*alpha*(cos t, -sin t)
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, s], [-s, c]])


def gamma_qq(r: float, phi):
    """Doubled q-variance cosh 2r - cos(phi) sinh 2r of the squeezed vacuum
    S(r e^{i phi}) |0>; vectorized over phi."""
    return np.cosh(2.0 * r) - np.cos(phi) * np.sinh(2.0 * r)


def _symplectic_apply(st: GaussianState, m: np.ndarray) -> GaussianState:
    """Moments under the symplectic matrix m (det m = 1).

    The covariance goes to m cov m^T, except that its smaller diagonal
    entry is set from the carried invariant, (st.det + c01^2) / (larger
    one).  Computed from m cov m^T alone, det(cov) would keep the rounding
    made at the largest covariance of a word of unitaries; tied to st.det
    it stays within a few eps*kappa of the invariant, which the result
    carries on.  Dividing by the larger entry, which has only a relative
    rounding error, keeps every entry as accurate as m cov m^T gives it.
    """
    (a, b), (b2, c) = (m @ st.cov @ m.T).tolist()
    b = 0.5 * (b + b2)
    if a >= c:
        c = (st.det + b * b) / a
    else:
        a = (st.det + b * b) / c
    return GaussianState(m @ st.mean, [[a, b], [b, c]], det=st.det)


def squeeze(st: GaussianState, r: float, phi: float = 0.0) -> GaussianState:
    return _symplectic_apply(st, squeeze_matrix(r, phi))


def rotate(st: GaussianState, theta: float) -> GaussianState:
    return _symplectic_apply(st, rotation_matrix(theta))


def wigner(st: GaussianState, x) -> float | np.ndarray:
    """Wigner function at phase-space point(s) x = (q, p).

    Accepts a single point of shape (2,) or an array of points (..., 2).
    """
    x = np.asarray(x, dtype=float)
    gam = 2.0 * st.cov
    det = np.linalg.det(gam)
    if det <= 0:
        raise ValueError("degenerate state: second-moment matrix is singular")
    ginv = np.linalg.inv(gam)
    d = x - st.mean
    quad = np.einsum("...i,ij,...j->...", d, ginv, d)
    out = np.exp(-quad) / (math.pi * math.sqrt(det))
    return float(out) if out.ndim == 0 else out


def fidelity(a: GaussianState, b: GaussianState) -> float:
    """Uhlmann fidelity of two single-mode Gaussian states.

    Closed form in the first moments and the doubled covariances
    G = 2*cov; exact for mixed states of one mode as well.  Determinants
    come from the carried invariants ``det``: lam = (1 - det G_a)(1 - det G_b)
    is exactly 0 for pure states, and with c11 = (det + c01^2) / c00 for
    each state det(cov_a + cov_b) is a sum of nonnegative terms, accurate
    also where the entries of a squeezed state dwarf its determinant.
    """
    (a0, a1), (_, a2) = a.cov.tolist()
    (b0, b1), (_, b2) = b.cov.tolist()
    cross = a0 * b1 - b0 * a1
    det_s = a.det * (1.0 + b0 / a0) + b.det * (1.0 + a0 / b0) + cross * cross / (a0 * b0)
    d0, d1 = (a.mean - b.mean).tolist()
    # d^T (G_a + G_b)^{-1} d = d^T S^{-1} d / 2, S = cov_a + cov_b, in the
    # eigenbasis of S: its large eigenvalue big is a sum of nonnegative terms
    # and the small one det_s / big (the adjugate form cancels along big)
    s0, s1, s2 = a0 + b0, a1 + b1, a2 + b2
    half = 0.5 * (s0 - s2)
    h = math.hypot(half, s1)
    big = 0.5 * (s0 + s2) + h
    u0, u1 = (half + h, s1) if half >= 0.0 else (s1, h - half)
    norm = math.hypot(u0, u1)
    if norm == 0.0:  # S is a multiple of the identity
        u0, norm = 1.0, 1.0
    p = (d0 * u0 + d1 * u1) / norm
    q = (d1 * u0 - d0 * u1) / norm
    quad = 0.5 * (p * p / big + q * q * big / det_s)
    lam = max((1.0 - 4.0 * a.det) * (1.0 - 4.0 * b.det), 0.0)
    f = 2.0 * math.exp(-quad) / (math.sqrt(4.0 * det_s + lam) - math.sqrt(lam))
    return min(max(f, 0.0), 1.0)


def mean_photon(st: GaussianState) -> float:
    return 0.5 * float(st.mean @ st.mean) + 0.5 * (float(np.trace(st.cov)) - 1.0)


def qfi_fidelity(state_family, theta: float) -> float:
    """Quantum Fisher information from a fidelity finite difference.

    ``state_family`` maps a parameter value to a GaussianState; the QFI at
    ``theta`` is estimated as 8(1 - sqrt(F[rho(theta), rho(theta+dtheta)]))
    / dtheta^2 with dtheta = 1e-4.  Slightly negative results from
    rounding are clamped to 0 with a warning.
    """
    dtheta = 1e-4
    f = fidelity(state_family(theta), state_family(theta + dtheta))
    val = 8.0 * (1.0 - math.sqrt(f)) / (dtheta * dtheta)
    if val < 0.0:
        warnings.warn("negative QFI estimate clamped to 0 (rounding)", RuntimeWarning)
        return 0.0
    return val

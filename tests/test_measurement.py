"""Measurement densities and samplers."""

import math

import numpy as np
import pytest

from gaussbayes import bayes
from gaussbayes import measurement as meas
from gaussbayes import phasespace as ps
from gaussbayes.measurement import HETERODYNE, homodyne

SQ2 = math.sqrt(2.0)


def rng_for(*lane):
    return np.random.default_rng(np.random.SeedSequence((515, *lane)))


class TestHeterodyneDensity:
    def test_peak_of_coherent(self):
        st = ps.coherent(0.7 + 0.2j)
        assert meas.heterodyne_density(st, 0.7 + 0.2j) == pytest.approx(1 / math.pi)

    def test_squeezed_vacuum_origin(self):
        r = 0.8
        st = ps.squeeze(ps.vacuum(), r)
        assert meas.heterodyne_density(st, 0.0) == pytest.approx(
            1.0 / (math.pi * math.cosh(r)), rel=1e-12)

    def test_normalization(self):
        st = ps.displace(ps.squeeze(ps.vacuum(), 0.7, 0.9), 1.0 - 0.5j)
        mean, cov = meas.husimi_moments(st)
        sd = math.sqrt(float(np.max(np.diag(cov))))
        extent = abs(mean) + 10.0 * sd
        rho = np.linspace(0.0, extent, 801)
        ang = np.linspace(-math.pi, math.pi, 181)[:-1]
        total = 0.0
        for a in ang:
            w = complex(math.cos(a), math.sin(a))
            vals = np.array([meas.heterodyne_density(st, r_ * w) for r_ in rho])
            total += float(np.trapezoid(vals * rho, rho))
        assert total * (2 * math.pi / ang.size) == pytest.approx(1.0, abs=1e-5)

    def test_broadcasts_and_matches_coherent_overlap(self):
        # Q(beta) = <beta|rho|beta> / pi, the fidelity with a coherent state
        st = ps.displace(ps.squeeze(ps.vacuum(), 0.7, 0.9), 1.0 - 0.5j)
        betas = np.array([[0.0, 1.0 - 0.5j, 2.5], [2.0 + 1.0j, -0.3j, -1.5 + 2.0j]])
        got = meas.heterodyne_density(st, betas)
        assert got.shape == betas.shape
        want = [[ps.fidelity(ps.coherent(b), st) / math.pi for b in row] for row in betas]
        np.testing.assert_allclose(got, want, rtol=1e-13)
        assert isinstance(meas.heterodyne_density(st, 0.5j), float)

    def test_is_the_outcome_law_of_husimi_moments(self):
        # the density reads its law from the state's covariance entries; it
        # must be husimi_moments' law bit for bit
        rng = rng_for(8)
        betas = rng.normal(size=8) + 1j * rng.normal(size=8)
        for r, phi, re, im in rng.uniform(-2.0, 2.0, size=(50, 4)):
            st = ps.displace(ps.squeeze(ps.vacuum(), abs(r), phi), complex(re, im))
            mean, cov = meas.husimi_moments(st)
            np.testing.assert_array_equal(
                meas.heterodyne_density(st, betas),
                bayes.gaussian_outcome_density(betas, mean, (cov[0, 0], cov[1, 1], cov[0, 1])))

    def test_displacement_covariance(self):
        # p_alpha(beta) = p_0(beta - alpha)
        base = ps.squeeze(ps.vacuum(), 0.5, 1.3)
        displaced = ps.displace(base, 0.8 + 0.3j)
        for b in (0.0, 0.4 - 0.2j, 1.2 + 0.9j):
            assert meas.heterodyne_density(displaced, b) == pytest.approx(
                meas.heterodyne_density(base, b - (0.8 + 0.3j)), rel=1e-12)


class TestHomodyneDensity:
    def test_vacuum(self):
        assert meas.homodyne_density(ps.vacuum(), 0.0) == pytest.approx(
            1.0 / math.sqrt(math.pi), rel=1e-14)

    def test_squeezed_displaced_closed_form(self):
        # rotated displaced-squeezed state against the explicit marginal
        alpha, r, phi, theta = 0.9, 0.5, 0.8, 0.6
        st = ps.rotate(ps.displace(ps.squeeze(ps.vacuum(), r, phi), alpha), theta)
        gqq = math.cosh(2 * r) - math.cos(phi + 2 * theta) * math.sinh(2 * r)
        for q in (-1.0, 0.3, 2.2):
            want = math.exp(-((q - SQ2 * alpha * math.cos(theta)) ** 2) / gqq) \
                / math.sqrt(math.pi * gqq)
            assert meas.homodyne_density(st, q) == pytest.approx(want, rel=1e-12)

    def test_normalization(self):
        st = ps.displace(ps.squeeze(ps.vacuum(), 1.0, 0.4), -0.7 + 1.1j)
        mu, var = meas.homodyne_moments(st)
        qs = np.linspace(mu - 10 * math.sqrt(var), mu + 10 * math.sqrt(var), 4001)
        assert float(np.trapezoid(meas.homodyne_density(st, qs), qs)) == pytest.approx(
            1.0, abs=1e-8)

    def test_angle_is_rotated_q(self):
        st = ps.displace(ps.squeeze(ps.vacuum(), 0.6, 1.1), 0.5 + 0.5j)
        angle = 0.9
        rotated = ps.rotate(st, -angle)
        for q in (-0.5, 0.0, 1.5):
            assert meas.homodyne_density(st, q, angle) == pytest.approx(
                meas.homodyne_density(rotated, q, 0.0), rel=1e-14)

    def test_angle_validation(self):
        with pytest.raises(ValueError):
            homodyne(math.pi)
        with pytest.raises(ValueError):
            homodyne(-0.1)


class TestSampler:
    def test_homodyne_clt(self):
        n = 100_000
        qs = meas.sample_outcomes(ps.vacuum(), homodyne(), rng_for(1), n)
        assert abs(qs.mean()) < 3.0 * math.sqrt(0.5) / math.sqrt(n)

    def test_heterodyne_clt(self):
        n = 100_000
        betas = meas.sample_outcomes(ps.coherent(1.0), HETERODYNE, rng_for(2), n)
        assert abs(betas.real.mean() - 1.0) < 3.0 / math.sqrt(n)
        assert betas.real.var() == pytest.approx(0.5, rel=0.05)
        assert betas.imag.var() == pytest.approx(0.5, rel=0.05)

    def test_draws_match_reference_constructions(self):
        # homodyne: the same draws as rng.normal, bit for bit; heterodyne:
        # z = standard_normal((n, 2)) times the Cholesky factor, to rounding
        st = ps.displace(ps.squeeze(ps.vacuum(), 0.6, 0.7), 0.8 + 0.2j)
        for angle in (0.0, 1.1):
            mu, var = meas.homodyne_moments(st, angle)
            np.testing.assert_array_equal(
                meas.sample_outcomes(st, homodyne(angle), rng_for(6), 500),
                rng_for(6).normal(mu, math.sqrt(var), 500))
        mean, cov = meas.husimi_moments(st)
        z = rng_for(7).standard_normal((500, 2)) @ np.linalg.cholesky(cov).T
        np.testing.assert_allclose(meas.sample_outcomes(st, HETERODYNE, rng_for(7), 500),
                                   mean + z[:, 0] + 1j * z[:, 1], rtol=0, atol=4e-15)

    def test_determinism(self):
        st = ps.displace(ps.squeeze(ps.vacuum(), 0.4, 0.2), 0.3)
        a = meas.sample_outcomes(st, HETERODYNE, rng_for(3), 64)
        b = meas.sample_outcomes(st, HETERODYNE, rng_for(3), 64)
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("alpha,r,phi", [(0.0, 0.0, 0.0), (1.2, 0.5, 0.7),
                                             (-0.4 + 0.9j, 1.0, 2.1)])
    def test_moments_match_densities(self, alpha, r, phi):
        st = ps.displace(ps.squeeze(ps.vacuum(), r, phi), alpha)
        n = 100_000
        qs = meas.sample_outcomes(st, homodyne(), rng_for(4, int(r * 10)), n)
        mu, var = meas.homodyne_moments(st)
        assert abs(qs.mean() - mu) < 4.0 * math.sqrt(var / n)
        assert abs(qs.var() - var) < 4.0 * var * math.sqrt(2.0 / (n - 1))
        betas = meas.sample_outcomes(st, HETERODYNE, rng_for(5, int(r * 10)), n)
        bmean, bcov = meas.husimi_moments(st)
        assert abs(betas.real.mean() - bmean.real) < 4.0 * math.sqrt(bcov[0, 0] / n)
        assert abs(betas.imag.mean() - bmean.imag) < 4.0 * math.sqrt(bcov[1, 1] / n)
        assert abs(betas.real.var() - bcov[0, 0]) < 4.0 * bcov[0, 0] * math.sqrt(2.0 / n)
        cov_ri = float(np.cov(betas.real, betas.imag)[0, 1])
        spread = math.sqrt(bcov[0, 0] * bcov[1, 1])
        assert abs(cov_ri - bcov[0, 1]) < 4.0 * spread * math.sqrt(2.0 / n)

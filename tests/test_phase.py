"""Phase estimation: closed forms, Bessel series vs quadrature, engine checks."""

import math

import numpy as np
import pytest

from gaussbayes import bayes, phase
from gaussbayes.bayes import Circle, GridDistribution
from gaussbayes.measurement import HETERODYNE, homodyne
from gaussbayes.phasespace import ProbeSpec
from gaussbayes.phase import TruncationError

SQ2 = math.sqrt(2.0)


def circle_grid(support, k):
    lo, span = support.lo, support.hi - support.lo
    h = span / k
    return support.lo + (np.arange(k) + 0.5) * h, h


class TestCoherentHeterodyne:
    def test_flat_posterior_at_zero_outcome(self):
        d = phase.coherent_het_posterior(1.0, 0.0)
        np.testing.assert_allclose(d.density, 1.0 / (2 * math.pi), rtol=1e-12)

    def test_posterior_mean_is_outcome_phase(self):
        beta = 1.3 * complex(math.cos(0.7), -math.sin(0.7))
        d = phase.coherent_het_posterior(1.0, beta)
        assert bayes.circular_mean(d) == pytest.approx(0.7, abs=1e-9)
        assert d.integrate() == pytest.approx(1.0, abs=1e-9)

    def test_vpost_flat_limit(self):
        assert phase.coherent_het_posterior_variance(1.7, 0.0) == 0.5

    @pytest.mark.parametrize("alpha,babs", [(1.0, 1.0), (2.0, 5.0), (0.3, 2.0),
                                            (10.0, 10.0)])
    def test_vpost_against_quadrature(self, alpha, babs):
        th, h = circle_grid(Circle(-math.pi, math.pi), 32768)
        dens = np.exp(2 * alpha * babs * (np.cos(th) - 1.0))
        dens /= dens.sum() * h
        want = float((dens * np.sin(th) ** 2).sum() * h)
        assert phase.coherent_het_posterior_variance(alpha, babs) == pytest.approx(
            want, rel=1e-8)
        if alpha >= 10.0 and babs >= 10.0:
            assert phase.coherent_het_posterior_variance(alpha, babs) < 0.01

    def test_vpost_against_scipy(self):
        special = pytest.importorskip("scipy.special")
        for k in np.geomspace(1e-6, 600.0, 61):
            # alpha = 1/2 makes k = 2 alpha |beta| equal to |beta| exactly
            want = special.i1e(k) / (k * special.i0e(k))
            assert phase.coherent_het_posterior_variance(0.5, k) == pytest.approx(
                want, rel=1e-13)

    def test_average_variance_values(self):
        assert phase.coherent_het_average_variance(1.0) == pytest.approx(
            (1 - math.exp(-1.0)) / 2.0, rel=1e-14)
        assert phase.coherent_het_average_variance(1e-6) == pytest.approx(0.5, abs=1e-9)
        v10 = phase.coherent_het_average_variance(math.sqrt(10.0))
        assert v10 == pytest.approx(0.05, rel=1e-3)

    def test_outcome_density(self):
        # p(beta) integrates to 1 and matches the direct theta average
        alpha = 1.2
        th, h = circle_grid(Circle(-math.pi, math.pi), 8192)
        for babs in (0.0, 0.7, 2.5):
            got = phase.coherent_het_outcome_density(alpha, babs)
            want = float(phase.coherent_het_likelihood(alpha, babs, th).mean())
            assert got == pytest.approx(want, rel=1e-12)
        rho = np.linspace(0.0, alpha + 8.0, 2001)
        dens = np.array([phase.coherent_het_outcome_density(alpha, b) for b in rho])
        assert float(np.trapezoid(2 * math.pi * rho * dens, rho)) == pytest.approx(
            1.0, abs=1e-6)


class TestSqueezedHeterodyne:
    def test_likelihood_reduces_to_coherent(self):
        th = np.linspace(-math.pi, math.pi, 64)
        np.testing.assert_allclose(
            phase.squeezed_het_likelihood(1.0, 0.0, 0.4 + 0.2j, th),
            phase.coherent_het_likelihood(1.0, 0.4 + 0.2j, th), rtol=1e-14)

    def test_likelihood_peak(self):
        r = 0.6
        got = phase.squeezed_het_likelihood(1.0, r, 1.0 + 0j, 0.0)
        assert got == pytest.approx(1.0 / (math.pi * math.cosh(r)), rel=1e-13)

    def test_likelihood_normalization_over_outcomes(self):
        alpha, r, theta = 0.8, 0.5, 0.9
        ext = alpha + 7.0 / math.sqrt(1 - math.tanh(r))
        rho = np.linspace(0, ext, 1201)
        ang, ha = circle_grid(Circle(-math.pi, math.pi), 256)
        total = 0.0
        for a in ang:
            b = rho * complex(math.cos(a), math.sin(a))
            total += float(np.trapezoid(
                phase.squeezed_het_likelihood(alpha, r, 1.0, theta) * 0.0
                + np.array([phase.squeezed_het_likelihood(alpha, r, bb, theta)
                            for bb in b]) * rho, rho)) * ha
        assert total == pytest.approx(1.0, abs=1e-5)

    def test_outcome_density_reduction_and_quadrature(self):
        # r=0 collapses to the coherent closed form
        assert phase.squeezed_het_outcome_density(1.0, 0.0, 0.7 + 0.1j) == pytest.approx(
            phase.coherent_het_outcome_density(1.0, abs(0.7 + 0.1j)), rel=1e-12)
        th, h = circle_grid(Circle(-math.pi, math.pi), 16384)
        for (alpha, r, beta) in [(1.0, 0.25, 1.0 + 0j), (2.0, 0.75, 1.5 + 0.3j),
                                 (0.4, 1.25, 3.0 - 1.0j)]:
            want = float(phase.squeezed_het_likelihood(alpha, r, beta, th).mean())
            got = phase.squeezed_het_outcome_density(alpha, r, beta)
            assert got == pytest.approx(want, rel=1e-8)

    def test_outcome_density_normalization(self):
        alpha, r = 1.0, 0.5
        ext = phase._sh_radial_extent(alpha, r)
        rho = np.linspace(0.0, ext, 3001)
        dens = np.array([phase.squeezed_het_outcome_density(alpha, r, b) for b in rho])
        assert float(np.trapezoid(2 * math.pi * rho * dens, rho)) == pytest.approx(
            1.0, abs=1e-4)

    def test_estimator_matches_grid_oracle(self):
        prior = phase.flat_prior(phase.HET_SUPPORT, 4096)
        for (alpha, r, beta) in [(1.0, 0.0, 0.8 + 0.3j),
                                 (1.0, 0.5, 0.5 * np.exp(-0.4j)),
                                 (1.0, 0.5, 0.05j),
                                 (0.7, 1.0, -0.2 + 0.02j)]:
            est = phase.squeezed_het_estimator(alpha, r, beta)
            post = bayes.grid_update(
                prior, lambda t, m: phase.squeezed_het_likelihood(alpha, r, m, t), beta)
            want = bayes.circular_mean(post)
            assert est == pytest.approx(want, abs=1e-6)

    def test_posterior_variance_coherent_limit(self):
        for alpha, babs in ((0.4, 0.3), (1.3, 0.7), (2.0, 2.5)):
            assert phase.squeezed_het_posterior_variance(alpha, 0.0, babs) == pytest.approx(
                phase.coherent_het_posterior_variance(alpha, babs), rel=1e-12)

    def test_posterior_variance_flat_at_origin(self):
        # |beta| = 0 carries no phase information: sin^2 averages to 1/2;
        # tiny radii go through the small-argument Bessel rows
        for babs in (0.0, 1e-170, 5e-324):
            assert phase.squeezed_het_posterior_variance(1.0, 0.5, babs) == pytest.approx(
                0.5, rel=1e-12)

    def test_posterior_variance_matches_grid_oracle(self):
        prior = phase.flat_prior(phase.HET_SUPPORT, 4096)
        for alpha, r, babs in ((1.0, 0.25, 0.8), (0.6, 0.75, 2.0), (2.2, 1.1, 1.4)):
            post = bayes.grid_update(
                prior, lambda t, m: phase.squeezed_het_likelihood(alpha, r, m, t), babs)
            want = bayes.variance_circular(post, bayes.circular_mean(post))
            assert phase.squeezed_het_posterior_variance(alpha, r, babs) == pytest.approx(
                want, rel=1e-9)

    def test_estimator_coherent_case_is_outcome_phase(self):
        beta = 0.9 * complex(math.cos(1.1), -math.sin(1.1))
        assert phase.squeezed_het_estimator(1.0, 0.0, beta) == pytest.approx(1.1, abs=1e-12)

    def test_estimator_flag_at_origin(self):
        assert phase.squeezed_het_estimator(1.0, 0.3, 0.0) is None

    def test_average_variance_reduction(self):
        for alpha in (0.5, 1.0, 2.0):
            assert phase.squeezed_het_average_variance(alpha, 0.0) == pytest.approx(
                phase.coherent_het_average_variance(alpha), abs=1e-6)

    def test_average_variance_vs_engine(self):
        series = phase.squeezed_het_average_variance(1.0, 0.25)
        task = phase.PhaseTask(ProbeSpec(1.0, 0.25, math.pi), HETERODYNE)
        engine = phase.average_variance_numeric(task)
        assert series == pytest.approx(engine.value, abs=1e-4)
        assert series < phase.coherent_het_average_variance(1.0)

    def test_fixed_energy_orderings(self):
        n = 2.0
        r = 1.25
        # not enough energy for r=1.25 at n=2? sinh^2(1.25) = 2.60 > 2: use n=3
        n = 3.0
        worse = phase.squeezed_het_average_variance(math.sqrt(n - math.sinh(r) ** 2), r)
        assert worse > phase.coherent_het_average_variance(math.sqrt(n))


class TestCoherentHomodyne:
    def test_likelihood_values(self):
        assert phase.coherent_hom_likelihood(1.7, 0.3, math.pi / 2) == pytest.approx(
            math.exp(-0.09) / math.sqrt(math.pi), rel=1e-13)

    def test_squeezed_likelihood_reduction(self):
        th = np.linspace(0, math.pi, 33)
        np.testing.assert_allclose(
            phase.squeezed_hom_likelihood(0.9, 0.0, 0.3, 0.2, th),
            phase.coherent_hom_likelihood(0.9, 0.2, th), rtol=1e-13)

    def test_likelihood_matches_measurement_module(self):
        from gaussbayes import measurement as meas
        from gaussbayes import phasespace as ps
        alpha, r, psi = 0.8, 0.5, 1.1
        probe = ps.displace(ps.squeeze(ps.vacuum(), r, psi), alpha)
        for theta in (0.0, 0.7, 2.4):
            rotated = ps.rotate(probe, theta)
            for q in (-1.0, 0.5):
                assert phase.squeezed_hom_likelihood(alpha, r, psi, q, theta) == \
                    pytest.approx(float(meas.homodyne_density(rotated, q)), rel=1e-12)

    def test_outcome_density_vacuum_limit(self):
        for q in (-1.2, 0.0, 0.8):
            assert phase.coherent_hom_outcome_density(0.0, q) == pytest.approx(
                math.exp(-q * q) / math.sqrt(math.pi), rel=1e-12)

    def test_outcome_density_quadrature(self):
        th, h = circle_grid(Circle(0.0, math.pi), 16384)
        for (alpha, q) in [(1.0, 0.5), (2.5, -1.3), (0.4, 3.0)]:
            want = float(phase.coherent_hom_likelihood(alpha, q, th).mean())
            assert phase.coherent_hom_outcome_density(alpha, q) == pytest.approx(
                want, rel=1e-8)

    def test_outcome_density_normalization(self):
        alpha = 1.3
        qs = np.linspace(-SQ2 * alpha - 7, SQ2 * alpha + 7, 4001)
        dens = np.array([phase.coherent_hom_outcome_density(alpha, q) for q in qs])
        assert float(np.trapezoid(dens, qs)) == pytest.approx(1.0, abs=1e-6)

    def test_circular_moment_against_grid(self):
        th, h = circle_grid(Circle(0.0, math.pi), 4096)
        for (alpha, q) in [(1.0, 1.0), (1.8, -0.7), (0.5, 2.0)]:
            like = phase.coherent_hom_likelihood(alpha, q, th)
            post = like / (like.sum() * h)
            want = complex((np.exp(1j * th) * post).sum() * h)
            got = phase.coherent_hom_circular_moment(alpha, q)
            assert got == pytest.approx(want, abs=1e-6)

    def test_circular_moment_real_part_vanishes_at_q0(self):
        got = phase.coherent_hom_circular_moment(1.0, 0.0)
        assert got.real == pytest.approx(0.0, abs=1e-14)

    def test_circular_moment_flat_limit(self):
        got = phase.coherent_hom_circular_moment(1e-7, 0.6)
        assert got == pytest.approx(2j / math.pi, abs=1e-7)

    def test_homodyne_blindness_reflection(self):
        # posteriors for q and -q are mirror images theta -> pi - theta
        alpha, q = 1.1, 0.6
        prior = phase.flat_prior(phase.HOM_SUPPORT)
        post_a = bayes.grid_update(
            prior, lambda t, m: phase.coherent_hom_likelihood(alpha, m, t), q)
        post_b = bayes.grid_update(
            prior, lambda t, m: phase.coherent_hom_likelihood(alpha, m, t), -q)
        np.testing.assert_allclose(post_a.density, post_b.density[::-1], rtol=1e-10)


class TestNumericEngine:
    def test_vacuum_probe(self):
        task = phase.PhaseTask(ProbeSpec(0.0), homodyne())
        assert phase.average_variance_numeric(task).value == pytest.approx(0.5, abs=1e-6)

    def test_homodyne_beats_heterodyne(self):
        for n in (0.5, 2.0):
            task = phase.PhaseTask(ProbeSpec(math.sqrt(n)), homodyne())
            hom = phase.average_variance_numeric(task).value
            assert hom <= phase.coherent_het_average_variance(math.sqrt(n)) + 1e-9

    def test_rotational_covariance_of_variance(self):
        strat = phase.HeterodynePhaseStrategy(1.0, 0.4)
        prior = phase.flat_prior(phase.HET_SUPPORT)
        beta = 0.9 - 0.4j
        for phi0 in (0.0, 1.0, 2.5):
            rot = beta * complex(math.cos(phi0), -math.sin(phi0))
            post = bayes.grid_update(
                prior, lambda t, m: strat.likelihood_matrix(t, [m])[0], rot)
            v = bayes.variance_circular(post, bayes.circular_mean(post))
            if phi0 == 0.0:
                v0 = v
            else:
                assert v == pytest.approx(v0, rel=1e-10)

    def test_full_polar_grid_matches_symmetric_path(self):
        sym = phase.average_variance_numeric(phase.PhaseTask(ProbeSpec(1.0), HETERODYNE))
        strat = phase.HeterodynePhaseStrategy(1.0, 0.0, angular_symmetry=False,
                                              angular_nodes=64)
        full = bayes.average_posterior_variance(strat, phase.flat_prior(phase.HET_SUPPORT))
        assert full.value == pytest.approx(sym.value, abs=1e-8)

    def test_task_validation(self):
        with pytest.raises(ValueError):
            phase.PhaseTask(ProbeSpec(0.0), HETERODYNE)  # needs alpha > 0
        with pytest.raises(ValueError):
            phase.PhaseTask(ProbeSpec(1.0, 0.5, 0.0), HETERODYNE)  # psi must be pi
        with pytest.raises(ValueError):
            phase.PhaseTask(ProbeSpec(1.0j), homodyne())  # alpha must be real


class TestTruncation:
    def test_default_scales_with_arguments(self):
        assert phase._hom_cutoff(10.0, 0.0) == 24
        assert phase._hom_cutoff(-3.0, -10.0) == 24
        assert phase._hom_cutoff(0.0, 0.0) == 4

    def test_corrupted_truncation_detected(self, monkeypatch):
        monkeypatch.setattr(phase, "_sh_cutoff", lambda alpha, r, rho_max: 1)
        with pytest.raises(TruncationError):
            phase.squeezed_het_outcome_density(2.0, 0.75, 3.0 + 0j)

    @pytest.mark.parametrize("fn", [phase.coherent_hom_outcome_density,
                                    phase.coherent_hom_circular_moment])
    def test_short_homodyne_cutoff_raises(self, fn, monkeypatch):
        # with one index each side the moment would be 1.409 - 0.101j, |.| > 1
        fn(2.0, 1.0)
        monkeypatch.setattr(phase, "_hom_cutoff", lambda a, b: 1)
        with pytest.raises(TruncationError):
            fn(2.0, 1.0)

    @pytest.mark.parametrize("fn", [phase.coherent_hom_outcome_density,
                                    phase.coherent_hom_circular_moment])
    @pytest.mark.parametrize("q", [7.0, 7.034, -7.034])
    def test_cancelling_homodyne_series_raises(self, fn, q):
        # the alternating terms sum to ~e^{-2 alpha^2} of their size: at
        # q = 7 the density came out -7.65 and the moment 1.5 + 1.91j
        with pytest.raises(TruncationError, match="cancel"):
            fn(4.742, q)

    def test_homodyne_series_does_not_cancel_on_the_checked_box(self):
        # alpha in [0.1, 3] x q in [-6, 6]: the box of verify criterion 6
        for alpha in np.linspace(0.1, 3.0, 12):
            for q in np.linspace(-6.0, 6.0, 25):
                assert phase.coherent_hom_outcome_density(alpha, q) > 0.0
                assert abs(phase.coherent_hom_circular_moment(alpha, q)) <= 1.0

    def test_duality_on_parameter_box(self):
        # seeded samples over alpha in [0.1, 3], r in [0, 1.25]
        rng = np.random.default_rng(np.random.SeedSequence(41))
        th, h = circle_grid(Circle(-math.pi, math.pi), 16384)
        for _ in range(10):
            alpha = float(rng.uniform(0.1, 3.0))
            r = float(rng.uniform(0.0, 1.25))
            babs = float(rng.uniform(0.0, alpha + 3.0))
            beta = babs * np.exp(-1j * rng.uniform(-math.pi, math.pi))
            want = float(phase.squeezed_het_likelihood(alpha, r, beta, th).mean())
            got = phase.squeezed_het_outcome_density(alpha, r, beta)
            assert got == pytest.approx(want, rel=1e-6, abs=1e-300)

"""Squeezing-strength estimation tests."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gaussbayes import bayes, phasespace as ps, squeezing as sq
from gaussbayes.bayes import GammaPrior, GaussianPrior
from gaussbayes.measurement import homodyne_density
from gaussbayes.phasespace import ProbeSpec

SQ2 = math.sqrt(2.0)


def rng_for(*lane):
    return np.random.default_rng(np.random.SeedSequence((31337, *lane)))


class TestChannel:
    """The estimated squeezer is ``phasespace.squeeze`` at phi = 0."""

    def test_coherent_mean_map(self):
        st_ = ps.squeeze(ps.coherent(2.0), 1.0)
        np.testing.assert_allclose(st_.mean, [SQ2 * 2.0 * math.exp(-1.0), 0.0],
                                   rtol=1e-14)

    def test_identity_at_zero(self):
        probe = ProbeSpec(1.0 + 0j, 0.4, 0.9).state()
        out = ps.squeeze(probe, 0.0)
        np.testing.assert_allclose(out.mean, probe.mean)
        np.testing.assert_allclose(out.cov, probe.cov)

    @settings(max_examples=25, deadline=None)
    @given(st.floats(-1.5, 1.5), st.floats(-2, 2), st.floats(-2, 2))
    def test_hyperbolic_invariant(self, r, q0, p0):
        st_ = ps.GaussianState(np.array([q0, p0]), 0.5 * np.eye(2))
        out = ps.squeeze(st_, r)
        assert out.mean[0] * out.mean[1] == pytest.approx(q0 * p0, abs=1e-10)


class TestLikelihood:
    def test_vacuum_reduction(self):
        r = 0.7
        delta = math.exp(-r) / SQ2
        for q in (-0.5, 0.0, 1.0):
            want = math.exp(-q * q / (2 * delta**2)) / (delta * math.sqrt(2 * math.pi))
            got = sq.homodyne_likelihood(ProbeSpec(0.0), r, q)
            assert float(got) == pytest.approx(want, rel=1e-13)

    def test_matches_measurement_module(self):
        probe = ProbeSpec(1.4, 0.6, 0.9)
        for r in (-0.5, 0.3, 1.2):
            channel_out = ps.squeeze(probe.state(), r)
            for q in (-1.0, 0.7):
                assert float(sq.homodyne_likelihood(probe, r, q)) == pytest.approx(
                    float(homodyne_density(channel_out, q)), rel=1e-12)

    def test_peak_location(self):
        probe = ProbeSpec(5.0)
        qs = np.linspace(0.0, 12.0, 20001)
        dens = np.array([float(sq.homodyne_likelihood(probe, 1.0, q)) for q in qs])
        assert qs[np.argmax(dens)] == pytest.approx(SQ2 * 5.0 * math.exp(-1.0), abs=1e-3)

    @settings(max_examples=20, deadline=None)
    @given(st.floats(0.0, 3.0), st.floats(0.0, 1.2), st.floats(0.0, 2 * math.pi),
           st.floats(-1.0, 1.0))
    def test_normalization(self, alpha, s, psi, r):
        probe = ProbeSpec(alpha, s, psi)
        mu, sd = sq.conditional_moments(probe, np.array([r]))
        qs = np.linspace(float(mu[0]) - 9 * float(sd[0]), float(mu[0]) + 9 * float(sd[0]),
                         4001)
        dens = sq.homodyne_likelihood(probe, r, qs)
        assert float(np.trapezoid(dens, qs)) == pytest.approx(1.0, abs=1e-10)


class TestGammaConjugacy:
    def test_delta_r_mapping(self):
        # the precision is 1/delta^2 of the vacuum outcome width delta = e^{-r}/sqrt2
        for r in (-0.6, 0.0, 1.3):
            delta = float(sq.conditional_moments(ProbeSpec(0.0), r)[1])
            assert delta == pytest.approx(math.exp(-r) / SQ2, rel=1e-15)
            assert sq.precision_of_r(r) == pytest.approx(1.0 / delta**2, rel=1e-14)

    def test_chain_equals_batch_exactly(self):
        prior = GammaPrior(2.0, 1.0)
        qs = [0.3, -0.9, 1.4, 0.2]
        chained = prior
        for q in qs:
            chained = bayes.gamma_update(chained, [q])
        assert chained == bayes.gamma_update(prior, qs)

    def test_density_over_r_at_large_shape(self):
        # Gamma(a) overflows for a > 171.6, which a vacuum probe reaches
        # after about 340 conjugate outcomes
        from scipy import stats
        gp = GammaPrior(400.0, 1.0)
        r = np.array([2.4, 2.65, 2.9])
        lam = sq.precision_of_r(r)
        # density over lambda times the Jacobian dlambda/dr = 2 lambda
        want = stats.gamma.logpdf(lam, gp.a, scale=1.0 / gp.b) + np.log(2.0 * lam)
        np.testing.assert_allclose(sq.gamma_density_over_r(gp, r), np.exp(want), rtol=1e-12)

    def test_grid_posterior_matches_gamma(self):
        gp = GammaPrior(2.0, 1.0)
        grid = sq.gamma_prior_r_grid(gp, -3.0, 3.0, 4001)
        task = sq.SqueezeTask(ProbeSpec(0.0), GaussianPrior(0.0, 1.0))
        for q in (0.25, 0.7, -1.3):
            post = sq.posterior(task, q, prior_grid=grid)
            closed = sq.gamma_density_over_r(bayes.gamma_update(gp, [q]), post.nodes)
            assert float(np.max(np.abs(post.density - closed))) < 1e-4


class TestPosterior:
    def test_contraction_from_informative_outcome(self):
        task = sq.SqueezeTask(ProbeSpec(5.0), GaussianPrior(1.0, 0.25))
        q = float(sq.conditional_moments(task.probe, np.array([1.0]))[0][0])
        post = sq.posterior(task, q)
        mean = bayes.mean_estimator(post)
        assert bayes.variance_mse(post, mean) < 0.25

    def test_flat_ish_prior_concentrates_near_truth(self):
        task = sq.SqueezeTask(ProbeSpec(5.0), GaussianPrior(0.0, 25.0),
                              grid_nodes=8001)
        r_true = 1.0
        rng = rng_for(5)
        mu, sd = sq.conditional_moments(task.probe, np.array([r_true]))
        q = float(rng.normal(mu[0], sd[0]))
        post = sq.posterior(task, q)
        mean = bayes.mean_estimator(post)
        spread = math.sqrt(bayes.variance_mse(post, mean))
        assert spread < 1.0
        assert abs(mean - r_true) < 4.0 * spread


class TestAverageVariance:
    def test_ratio_decreases_with_displacement(self):
        prior = GaussianPrior(1.0, 0.25)
        ratios = []
        for alpha in (0.0, 1.0, 2.0, 5.0):
            task = sq.SqueezeTask(ProbeSpec(alpha), prior)
            ratios.append(sq.average_variance(task).value / prior.var0)
        assert all(b < a for a, b in zip(ratios, ratios[1:]))
        assert ratios[0] > 0.5  # vacuum probe barely improves on the prior

    @pytest.mark.parametrize("grid_nodes", [0, 1])
    def test_too_few_prior_nodes_is_a_value_error(self, grid_nodes):
        # the trapezoid prior needs two nodes; fewer divided by zero
        task = sq.SqueezeTask(ProbeSpec(0.5), GaussianPrior(0.0, 1.0), grid_nodes=grid_nodes)
        with pytest.raises(ValueError, match=f"at least 2, got {grid_nodes}"):
            sq.average_variance(task)

    def test_quadrature_vs_monte_carlo(self):
        task = sq.SqueezeTask(ProbeSpec(2.0), GaussianPrior(-0.5, 1.0))
        quad = sq.average_variance(task)
        mc = sq.average_variance(task, method="montecarlo", samples=20_000,
                                 rng=rng_for(1))
        assert abs(quad.value - mc.value) <= 4.0 * math.hypot(mc.std_error,
                                                              quad.std_error)

    def test_van_trees(self):
        assert sq.van_trees_bound(0.0, 1.0) == pytest.approx(1.0 / 3.0)
        assert sq.van_trees_bound(1.0, 1.0) == pytest.approx(1.0 / 19.0)
        prior = GaussianPrior(-0.5, 1.0)
        for (alpha, s) in [(1.0, 0.0), (0.5, 0.5), (0.0, 1.0)]:
            task = sq.SqueezeTask(ProbeSpec(alpha, s, 0.0), prior)
            n = task.probe.mean_photon()
            got = sq.average_variance(task)
            assert got.value >= sq.van_trees_bound(n, 1.0) - 3.0 * got.std_error


def energy_split(n, points):
    """Harness rows splitting n = alpha^2 + sinh^2 s over s in [0, asinh sqrt n]."""
    from gaussbayes import harness
    cfg = harness.parse_config("\n".join([
        "task = Squeeze", "r0 = -0.5", "sigma0sq = 1.0", f"n = {n!r}",
        f"s = 0:{math.asinh(math.sqrt(n))!r}:{points}"]))
    records = harness.run(cfg)
    assert all(rec.status == "ok" for rec in records)
    return records


class TestEnergySplit:
    def test_small_energy_prefers_mixed_split(self):
        best = min(energy_split(0.25, 16), key=lambda rec: rec.avg_variance)
        s = best.params["s"]
        assert s > 0.0
        assert 0.25 - math.sinh(s) ** 2 > 0.0  # alpha^2 of the best row

    def test_zero_energy_trivial(self):
        (rec,) = energy_split(0.0, 1)
        assert rec.params["s"] == 0.0 and rec.mean_photon == 0.0

    def test_minimum_below_endpoints(self):
        values = [rec.avg_variance for rec in energy_split(1.0, 12)]
        assert min(values) <= values[0] + 1e-12
        assert min(values) <= values[-1] + 1e-12

    def test_validation(self):
        with pytest.raises(ValueError):
            sq.SqueezeTask(ProbeSpec(1.0j), GaussianPrior(0.0, 1.0))

"""Prior updates, grid machinery, estimators, bounds, and the engines."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gaussbayes import bayes, displacement as disp, measurement as meas, phase
from gaussbayes import phasespace as ps, squeezing as sq
from gaussbayes.bayes import (Circle, GammaPrior, GaussianPrior, GridDistribution,
                              InconsistentOutcomeError, Interval, ToleranceError,
                              average_posterior_variance)
from gaussbayes.phasespace import ProbeSpec


def gaussian_like(sigma_sq):
    def like(thetas, m):
        return np.exp(-((m - thetas) ** 2) / (2 * sigma_sq)) / math.sqrt(2 * math.pi * sigma_sq)
    return like


def rng_for(*lane):
    return np.random.default_rng(np.random.SeedSequence((99, *lane)))


class TestGaussianUpdate:
    def test_equal_variance_midpoint(self):
        post = bayes.gaussian_update(GaussianPrior(0.0, 1.0), 2.0, 1.0)
        assert post.mu0 == pytest.approx(1.0)
        assert post.var0 == pytest.approx(0.5)

    def test_uninformative_likelihood(self):
        prior = GaussianPrior(0.37, 2.1)
        post = bayes.gaussian_update(prior, 100.0, 1e12)
        assert post.mu0 == pytest.approx(prior.mu0, abs=1e-9)
        assert post.var0 == pytest.approx(prior.var0, rel=1e-9)

    def test_direct_substitution_and_grid_cross_check(self):
        post = bayes.gaussian_update(GaussianPrior(0.3, 0.25), 1.0, 0.5)
        assert post.mu0 == pytest.approx((0.5 * 0.3 + 0.25 * 1.0) / 0.75, rel=1e-14)
        assert post.var0 == pytest.approx(0.125 / 0.75, rel=1e-14)
        grid = GridDistribution.from_gaussian(GaussianPrior(0.3, 0.25), 4001)
        gpost = bayes.grid_update(grid, gaussian_like(0.5), 1.0)
        mean = bayes.mean_estimator(gpost)
        assert mean == pytest.approx(post.mu0, abs=1e-6)
        assert bayes.variance_mse(gpost, mean) == pytest.approx(post.var0, abs=1e-6)

    @settings(max_examples=50, deadline=None)
    @given(st.floats(0.01, 10.0), st.floats(0.01, 10.0),
           st.floats(-3.0, 3.0), st.floats(-3.0, 3.0))
    def test_posterior_variance_contracts(self, var0, like_var, mu0, m):
        post = bayes.gaussian_update(GaussianPrior(mu0, var0), m, like_var)
        assert post.var0 < min(var0, like_var)


class TestGammaUpdate:
    def test_direct_rule(self):
        post = bayes.gamma_update(GammaPrior(1.0, 1.0), [math.sqrt(2.0)])
        assert post.a == pytest.approx(1.5)
        assert post.b == pytest.approx(2.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            bayes.gamma_update(GammaPrior(2.0, 1.0), [])

    def test_moments(self):
        # a'=3, b'=2: mean 3/2, variance 2(2a+m)/(2b+sum q^2)^2 = 12/16 = 3/4
        post = bayes.gamma_update(GammaPrior(2.0, 1.0), [1.0, 1.0])
        assert post.mean() == pytest.approx(1.5)
        assert post.variance() == pytest.approx(2.0 * 6.0 / 16.0)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.floats(-3, 3), min_size=2, max_size=6))
    def test_chain_equals_batch(self, qs):
        prior = GammaPrior(1.3, 0.7)
        chained = prior
        for q in qs:
            chained = bayes.gamma_update(chained, [q])
        batched = bayes.gamma_update(prior, qs)
        assert chained.a == pytest.approx(batched.a, rel=1e-12)
        assert chained.b == pytest.approx(batched.b, rel=1e-12)


class TestGridDistribution:
    def test_validation(self):
        with pytest.raises(ValueError):
            GridDistribution(Interval(0, 1), np.array([0.0, 0.0, 1.0]), np.ones(3))
        with pytest.raises(ValueError):
            GridDistribution(Interval(0, 1), np.linspace(0, 1, 3),
                             np.array([1.0, -0.1, 1.0]))
        with pytest.raises(ValueError):
            GridDistribution(Interval(0, 1), np.linspace(0, 1, 3), np.ones(3) * 3.0)

    def test_circle_flat_sin2_is_half(self):
        for support in (Circle(-math.pi, math.pi), Circle(0.0, math.pi)):
            d = GridDistribution.uniform(support, 512)
            assert bayes.variance_circular(d, 0.123) == pytest.approx(0.5, abs=1e-12)

    def test_sampler_matches_distribution(self):
        d = GridDistribution.from_gaussian(GaussianPrior(0.5, 0.04), 2001)
        draws = d.sample(rng_for(1), 200_000)
        assert draws.mean() == pytest.approx(0.5, abs=4 * 0.2 / math.sqrt(200_000) + 1e-4)
        assert draws.var() == pytest.approx(0.04, rel=0.02)

    def test_circle_sampler(self):
        d = GridDistribution.uniform(Circle(-math.pi, math.pi))
        draws = d.sample(rng_for(2), 50_000)
        assert np.all(draws >= -math.pi - 0.01) and np.all(draws <= math.pi + 0.01)
        assert abs(np.exp(1j * draws).mean()) < 0.02


def _sample_by_support(d, rng, size):
    """GridDistribution.sample as it was before grids carried their rule:
    cells chosen by the support type."""
    if isinstance(d.support, Circle):
        h = d.support.span / d.nodes.size
        edges = np.concatenate([d.nodes - h / 2.0, [d.nodes[-1] + h / 2.0]])
        mass = np.full(d.nodes.size, h) * d.density
    else:
        mids = 0.5 * (d.nodes[:-1] + d.nodes[1:])
        edges = np.concatenate([[d.nodes[0]], mids, [d.nodes[-1]]])
        mass = np.diff(edges) * d.density
    cdf = np.concatenate([[0.0], np.cumsum(mass)])
    cdf /= cdf[-1]
    return np.interp(rng.random(size), cdf, edges)


class TestGridRules:
    @pytest.mark.parametrize("support", [Interval(0.5, 1.5), Circle(0.0, math.pi),
                                         Interval(-3.0, 7.0)])
    @pytest.mark.parametrize("n", [1, 2, 5, 16, 64])
    def test_gauss_legendre_integrates_degree_2n_minus_1(self, support, n):
        d = GridDistribution.uniform(support, n, bayes.GAUSS_LEGENDRE)
        span = support.hi - support.lo
        t = (2.0 * d.nodes - support.lo - support.hi) / span  # back on [-1, 1]
        for k in range(2 * n):
            exact = span / (k + 1) if k % 2 == 0 else 0.0  # int t^k over the support
            assert abs(d.weights @ t**k - exact) <= 1e-14 * span
        # not one degree more: P_n vanishes on the nodes, but int P_n^2 > 0
        p_n = np.polynomial.legendre.Legendre.basis(n)(t)
        assert d.weights @ p_n**2 < 0.5 * span / (2 * n + 1)

    def test_gauss_legendre_sampler_is_uniform_on_a_flat_grid(self):
        for support in (Interval(0.5, 2.0), phase.HOM_SUPPORT):
            d = GridDistribution.uniform(support, 64, bayes.GAUSS_LEGENDRE)
            size = 200_000
            draws = d.sample(rng_for(3), size)
            lo, hi = support.lo, support.hi
            span = hi - lo
            assert draws.min() >= lo and draws.max() <= hi
            assert abs(draws.mean() - (lo + hi) / 2.0) <= 4.0 * span / math.sqrt(12.0 * size)
            var_se = math.sqrt((span**4 / 80.0 - span**4 / 144.0) / size)
            assert abs(draws.var() - span**2 / 12.0) <= 4.0 * var_se

    def test_grid_update_keeps_the_rule(self):
        for rule in (bayes.MIDPOINT, bayes.TRAPEZOID, bayes.GAUSS_LEGENDRE):
            prior = bayes.PriorRule.gaussian(GaussianPrior(0.2, 0.5), 65).grid(65, rule)
            post = bayes.grid_update(prior, gaussian_like(0.8), -0.4)
            assert prior.rule == post.rule == rule
            np.testing.assert_array_equal(post.weights, prior.weights)

    def test_default_rules_and_validation(self):
        assert GridDistribution.uniform(Circle(0.0, 1.0), 8).rule == bayes.MIDPOINT
        assert GridDistribution.uniform(Interval(0.0, 1.0), 9).rule == bayes.TRAPEZOID
        with pytest.raises(ValueError, match="unknown quadrature rule"):
            GridDistribution(Interval(0, 1), np.linspace(0, 1, 3), np.ones(3), "simpson")

    @pytest.mark.parametrize("grid", [
        GridDistribution.uniform(phase.HET_SUPPORT, 512),
        GridDistribution.from_function(phase.HOM_SUPPORT, lambda t: 1.0 + np.cos(t) ** 2, 300),
        GridDistribution.from_gaussian(GaussianPrior(-0.5, 1.0), 513),
        GridDistribution.from_function(Interval(-1.0, 3.0), lambda t: np.exp(-t * t), 2001),
    ])
    def test_midpoint_and_trapezoid_draws_are_unchanged(self, grid):
        want = _sample_by_support(grid, np.random.default_rng(17), 10_000)
        np.testing.assert_array_equal(grid.sample(np.random.default_rng(17), 10_000), want)


class TestRuleTable:
    @pytest.mark.parametrize("rule,fn", [(bayes.MIDPOINT, bayes.midpoint),
                                         (bayes.TRAPEZOID, bayes.trapezoid),
                                         (bayes.GAUSS_LEGENDRE, bayes.gauss_legendre)])
    @pytest.mark.parametrize("support,n", [(phase.HET_SUPPORT, 300), (phase.HOM_SUPPORT, 64),
                                           (Interval(-0.7, 2.3), 65)])
    def test_uniform_grid_is_the_table_entry(self, rule, fn, support, n):
        d = GridDistribution.uniform(support, n, rule)
        nodes, weights = fn(support.lo, support.hi, n)
        np.testing.assert_array_equal(d.nodes, nodes)
        np.testing.assert_array_equal(d.weights, weights)

    def test_trapezoid_prior_weights_are_the_rule_weights(self):
        rule = bayes.PriorRule.gaussian(GaussianPrior(-0.5, 1.0), 2001)
        lo, hi = rule.support.lo, rule.support.hi
        for n in (65, 513, 2001):
            np.testing.assert_array_equal(rule.grid(n).weights, bayes.trapezoid(lo, hi, n)[1])

    @pytest.mark.parametrize("k", [16, 256])
    def test_full_polar_grid_angles_are_the_midpoint_rule(self, k):
        strat = phase.HeterodynePhaseStrategy(1.0, 0.3, angular_nodes=k,
                                              angular_symmetry=False)
        rho, wr = phase._radial_rule(1.0, 0.3, strat.base_radial, 1)
        # the angular rule as the strategy wrote it out before the rule
        # table; at power-of-two counts, the default 256 among them, the
        # division by k is exact and both forms round alike
        ang = -math.pi + (np.arange(k) + 0.5) * 2.0 * math.pi / k
        wa = np.full(k, 2.0 * math.pi / k)
        betas, weights = strat.outcome_nodes(1)
        np.testing.assert_array_equal(betas, (np.exp(-1j * ang)[:, None] * rho[None, :]).ravel())
        np.testing.assert_array_equal(weights, (wa[:, None] * (rho * wr)[None, :]).ravel())

    @pytest.mark.parametrize("probe,prior", [
        (ProbeSpec(1.5, 0.4, 0.0), GaussianPrior(-0.5, 1.0)),
        (ProbeSpec(0.0, 0.8, math.pi / 2), GaussianPrior(0.3, 0.2)),
    ])
    def test_squeeze_outcome_grid_from_the_prior_support(self, probe, prior):
        strat = sq.SqueezeStrategy(probe, sq.SqueezeTask(probe, prior).prior_rule().support)
        # the grid as the strategy built it from (prior, 6 sigma) before
        sd0 = math.sqrt(prior.var0)
        mu_lo, sd_lo = sq.conditional_moments(probe, np.array([prior.mu0 - 6.0 * sd0]))
        _, sd_hi = sq.conditional_moments(probe, np.array([prior.mu0 + 6.0 * sd0]))
        u_hi = math.log(float(mu_lo[0]) + 9.0 * float(sd_lo[0]))
        u_lo = math.log(float(sd_hi[0])) - 8.0
        for level in range(3):
            u, wu = bayes.trapezoid(u_lo, u_hi, 256 * 2**level + 1)
            q, w = np.exp(u), np.exp(u) * wu
            nodes, weights = strat.outcome_nodes(level)
            np.testing.assert_array_equal(nodes, np.concatenate([-q[::-1], q]))
            np.testing.assert_array_equal(weights, np.concatenate([w[::-1], w]))


class TestGridUpdate:
    def test_flat_times_constant_is_flat(self):
        d = GridDistribution.uniform(Interval(0.0, 2.0), 201)
        post = bayes.grid_update(d, lambda t, m: np.full_like(t, 0.7), 0.0)
        np.testing.assert_allclose(post.density, d.density, rtol=1e-12)

    def test_conjugate_closure(self):
        prior = GaussianPrior(0.2, 0.5)
        grid = GridDistribution.from_gaussian(prior, 4001)
        post = bayes.grid_update(grid, gaussian_like(0.8), -0.4)
        exact = bayes.gaussian_update(prior, -0.4, 0.8)
        mean = bayes.mean_estimator(post)
        assert mean == pytest.approx(exact.mu0, abs=1e-6)
        assert bayes.variance_mse(post, mean) == pytest.approx(exact.var0, abs=1e-6)

    def test_circular_posterior_from_flat_prior(self):
        alpha, phi_b = 0.5, 0.3  # alpha |beta| = 1 at |beta| = 2
        prior = GridDistribution.uniform(Circle(-math.pi, math.pi))
        beta = 2.0 * complex(math.cos(phi_b), -math.sin(phi_b))
        post = bayes.grid_update(
            prior, lambda t, m: phase.coherent_het_likelihood(alpha, m, t), beta)
        want = np.exp(2.0 * (np.cos(post.nodes - phi_b) - 1.0))
        want /= (want.sum() * 2 * math.pi / post.nodes.size)
        np.testing.assert_allclose(post.density, want, rtol=1e-9)
        assert bayes.circular_mean(post) == pytest.approx(phi_b, abs=1e-9)

    def test_zero_evidence(self):
        d = GridDistribution.from_gaussian(GaussianPrior(0.0, 0.01), 501)
        with pytest.raises(InconsistentOutcomeError):
            bayes.grid_update(d, gaussian_like(1e-4), 1e3)


class TestEvidence:
    def test_constant_likelihood(self):
        d = GridDistribution.uniform(Interval(0.0, 1.0), 101)
        assert bayes.evidence(d, lambda t, m: np.full_like(t, 0.37), 0) == pytest.approx(0.37)

    def test_gaussian_convolution(self):
        prior = GaussianPrior(0.4, 0.3)
        grid = GridDistribution.from_gaussian(prior, 4001, 8.0)
        m = 1.1
        got = bayes.evidence(grid, gaussian_like(0.6), m)
        total_var = 0.3 + 0.6
        want = math.exp(-((m - 0.4) ** 2) / (2 * total_var)) / math.sqrt(2 * math.pi * total_var)
        assert got == pytest.approx(want, rel=1e-8)

    def test_flat_phase_prior_matches_series(self):
        alpha = 1.0
        prior = GridDistribution.uniform(Circle(0.0, math.pi), 4096)
        for q in (-0.8, 0.5, 1.7):
            got = bayes.evidence(
                prior, lambda t, m: phase.coherent_hom_likelihood(alpha, m, t), q)
            assert got == pytest.approx(
                phase.coherent_hom_outcome_density(alpha, q), rel=1e-6)


class TestEstimators:
    def test_symmetric_density(self):
        d = GridDistribution.from_function(Interval(-1.0, 3.0),
                                           lambda t: np.exp(-((t - 1.0) ** 2)), 2001)
        assert bayes.mean_estimator(d) == pytest.approx(1.0, abs=1e-10)

    def test_gaussian_grid_moments(self):
        d = GridDistribution.from_gaussian(GaussianPrior(0.7, 0.01), 2001)
        assert bayes.mean_estimator(d) == pytest.approx(0.7, abs=1e-8)
        assert bayes.variance_mse(d, 0.7) == pytest.approx(0.01, rel=1e-6)

    def test_gamma_grid_moments(self):
        a, b = 2.0, 3.0
        d = GridDistribution.from_function(
            Interval(1e-9, 8.0), lambda t: t ** (a - 1) * np.exp(-b * t), 8001)
        mean = bayes.mean_estimator(d)
        assert mean == pytest.approx(a / b, abs=1e-6)
        assert bayes.variance_mse(d, mean) == pytest.approx(a / b**2, abs=1e-5)

    def test_circle_rejected_for_linear_ops(self):
        d = GridDistribution.uniform(Circle(0.0, math.pi))
        with pytest.raises(ValueError):
            bayes.mean_estimator(d)
        with pytest.raises(ValueError):
            bayes.variance_mse(d, 0.0)


class TestCircularStats:
    def test_von_mises_center(self):
        d = GridDistribution.from_function(
            Circle(-math.pi, math.pi), lambda t: np.exp(3.0 * np.cos(t - 0.9)), 2048)
        assert bayes.circular_mean(d) == pytest.approx(0.9, abs=1e-10)

    def test_flat_returns_none(self):
        d = GridDistribution.uniform(Circle(-math.pi, math.pi))
        assert bayes.circular_mean(d) is None

    def test_variance_flat_and_delta(self):
        flat = GridDistribution.uniform(Circle(-math.pi, math.pi))
        assert bayes.variance_circular(flat, 1.234) == pytest.approx(0.5, abs=1e-12)
        sharp = GridDistribution.from_function(
            Circle(-math.pi, math.pi), lambda t: np.exp(200.0 * np.cos(t - 0.4)), 8192)
        assert bayes.variance_circular(sharp, 0.4) == pytest.approx(0.0, abs=1e-2)

    def test_pi_shift_invariance(self):
        d = GridDistribution.from_function(
            Circle(-math.pi, math.pi), lambda t: np.exp(np.cos(t)), 2048)
        assert bayes.variance_circular(d, 0.3) == pytest.approx(
            bayes.variance_circular(d, 0.3 + math.pi), rel=1e-12)

    def test_posterior_variance_closed_form(self):
        alpha, babs = 1.0, 1.0
        prior = GridDistribution.uniform(Circle(-math.pi, math.pi))
        post = bayes.grid_update(
            prior, lambda t, m: phase.coherent_het_likelihood(alpha, m, t), complex(babs))
        got = bayes.variance_circular(post, bayes.circular_mean(post))
        assert got == pytest.approx(phase.coherent_het_posterior_variance(alpha, babs),
                                    abs=1e-10)


class TestInformation:
    def test_gaussian_prior_fisher(self):
        assert bayes.fisher_information_prior(GaussianPrior(0.3, 1.0)) == 1.0
        assert bayes.fisher_information_prior(GaussianPrior(0.0, 0.25)) == 4.0

    def test_grid_fisher(self):
        d = GridDistribution.from_gaussian(GaussianPrior(0.0, 0.25), 4001)
        assert bayes.fisher_information_prior(d) == pytest.approx(4.0, abs=1e-3)

    def test_van_trees(self):
        assert bayes.van_trees_bound(1.0, 4.0) == pytest.approx(0.2)
        assert bayes.van_trees_bound(1.0, 2.0) == pytest.approx(1.0 / 3.0)
        assert bayes.van_trees_bound(2.5, 0.0) == pytest.approx(0.4)
        with pytest.raises(ValueError):
            bayes.van_trees_bound(0.0, 0.0)
        with pytest.raises(ValueError):
            bayes.van_trees_bound(-1.0, 1.0)


class TestEngines:
    def test_quadrature_matches_closed_forms(self):
        res = disp.het_avg_total_variance_numeric(0.25, 0.0)
        assert res.value == pytest.approx(1.0 / 3.0, abs=1e-6)
        res = disp.hom_avg_variance_q_numeric(1.0, 0.0)
        assert res.value == pytest.approx(0.2, abs=1e-6)

    def test_phase_heterodyne_closed_form(self):
        from gaussbayes.measurement import HETERODYNE
        task = phase.PhaseTask(ProbeSpec(1.0), HETERODYNE)
        res = phase.average_variance_numeric(task)
        assert res.value == pytest.approx((1 - math.exp(-1.0)) / 2.0, abs=1e-6)

    def test_vacuum_homodyne_is_half(self):
        from gaussbayes.measurement import homodyne
        task = phase.PhaseTask(ProbeSpec(0.0), homodyne())
        assert phase.average_variance_numeric(task).value == pytest.approx(0.5, abs=1e-6)

    def test_monte_carlo_agrees_with_quadrature(self):
        # shared test points across the three problem families
        strat = disp.HeterodyneCoordinateStrategy(0.5, 0.3, "R")
        prior = GridDistribution.from_gaussian(strat.prior, 2001, 8.0)
        quad = average_posterior_variance(strat, prior)
        mc = average_posterior_variance(strat, prior, method="montecarlo",
                                        samples=20_000, rng=rng_for(10))
        assert abs(mc.value - quad.value) <= 4.0 * math.hypot(mc.std_error,
                                                              quad.std_error) + 1e-9
        from gaussbayes.measurement import HETERODYNE
        task = phase.PhaseTask(ProbeSpec(1.0), HETERODYNE)
        quad = phase.average_variance_numeric(task)
        mc = phase.average_variance_numeric(task, method="montecarlo",
                                            samples=20_000, rng=rng_for(11))
        assert abs(mc.value - quad.value) <= 4.0 * math.hypot(mc.std_error, quad.std_error)
        stask = sq.SqueezeTask(ProbeSpec(1.5, 0.4, 0.0), GaussianPrior(-0.5, 1.0))
        quad = sq.average_variance(stask)
        mc = sq.average_variance(stask, method="montecarlo", samples=20_000,
                                 rng=rng_for(12))
        assert abs(mc.value - quad.value) <= 4.0 * math.hypot(mc.std_error, quad.std_error)

    def test_average_variance_never_exceeds_prior_spread(self):
        # linear case: bounded by the prior variance; circular: by 1/2
        strat = disp.HomodyneQuadratureStrategy(0.7, 0.2)
        prior = GridDistribution.from_gaussian(strat.prior, 2001, 8.0)
        assert average_posterior_variance(strat, prior).value <= 0.7
        from gaussbayes.measurement import homodyne
        for alpha in (0.0, 0.6, 2.0):
            task = phase.PhaseTask(ProbeSpec(alpha), homodyne())
            assert phase.average_variance_numeric(task).value <= 0.5 + 1e-9

    def test_tolerance_error_carries_estimate(self):
        strat = disp.HeterodyneCoordinateStrategy(0.25, 0.0, "R")
        prior = GridDistribution.from_gaussian(strat.prior, 2001, 8.0)
        with pytest.raises(ToleranceError) as err:
            average_posterior_variance(strat, prior, max_level=0)
        assert err.value.estimate == pytest.approx(1.0 / 6.0, abs=1e-4)

    def test_montecarlo_requires_rng(self):
        strat = disp.HeterodyneCoordinateStrategy(0.25, 0.0, "R")
        prior = GridDistribution.from_gaussian(strat.prior, 201, 8.0)
        with pytest.raises(ValueError):
            average_posterior_variance(strat, prior, method="montecarlo", samples=10)

    def test_monte_carlo_merges_chunks_exactly(self):
        # three chunks, the last one partial: the merged mean and standard
        # error are those of all spreads at once
        strat = disp.HomodyneQuadratureStrategy(0.7, 0.2)
        prior = GridDistribution.from_gaussian(strat.prior, 301, 8.0)
        samples = 2 * bayes._MC_CHUNK + 123
        res = average_posterior_variance(strat, prior, method="montecarlo",
                                         samples=samples, rng=rng_for(13))
        rng = rng_for(13)
        calc = bayes._SpreadCalculator(prior, strat)
        spreads = []
        for size in (bayes._MC_CHUNK, bayes._MC_CHUNK, 123):
            outcomes = strat.sample_outcomes_given(prior.sample(rng, size), rng)
            spreads.append(calc.spreads(outcomes)[0])
        v = np.concatenate(spreads)
        assert res.value == pytest.approx(v.mean(), rel=1e-13)
        assert res.std_error == pytest.approx(v.std() / math.sqrt(v.size), rel=1e-10)


# ---------------------------------------------------------------------------
# the Gaussian-outcome strategy and its low-rank likelihood kernel

KINDS = ("het", "het_full", "hom", "squeeze", "disp_het", "disp_hom")


@st.composite
def engine_cases(draw, kinds=KINDS):
    """(kind, strategy, prior grid, outcomes): nodes of the strategy's own
    outcome rule and outcomes sampled from it, in counts that split into
    several kernel blocks with a partial last one."""
    kind = draw(st.sampled_from(kinds))
    n = draw(st.integers(600, 2100))
    alpha = draw(st.floats(0.1, 3.0))
    r = draw(st.floats(0.0, 1.5))
    angle = draw(st.floats(0.0, 2.0 * math.pi))
    if kind == "het":
        strat = phase.HeterodynePhaseStrategy(alpha, r)
    elif kind == "het_full":
        strat = phase.HeterodynePhaseStrategy(alpha, r, base_radial=8,
                                              angular_nodes=draw(st.integers(3, 40)),
                                              angular_symmetry=False)
    elif kind == "hom":
        strat = phase.HomodynePhaseStrategy(alpha, r, angle)
    elif kind == "squeeze":
        gp = GaussianPrior(draw(st.floats(-1.0, 1.0)), draw(st.floats(0.05, 1.0)))
        strat = sq.SqueezeStrategy(ProbeSpec(alpha, r, angle),
                                   bayes.PriorRule.gaussian(gp, n).support)
        prior = GridDistribution.from_gaussian(gp, n, 6.0)
    else:
        sigma0sq, mu0 = draw(st.floats(0.05, 2.0)), draw(st.floats(-2.0, 2.0))
        if kind == "disp_het":
            strat = disp.HeterodyneCoordinateStrategy(sigma0sq, r, draw(st.sampled_from("RI")),
                                                      mu0)
        else:
            strat = disp.HomodyneQuadratureStrategy(sigma0sq, r, angle, mu0)
        prior = GridDistribution.from_gaussian(strat.prior, n, 8.0)
    if kind in ("het", "het_full", "hom"):
        prior = phase.flat_prior(strat.support, n)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    nodes, _ = strat.outcome_nodes(0)
    picked = rng.choice(nodes, size=min(nodes.size, draw(st.integers(1, 250))), replace=False)
    sampled = strat.sample_outcomes_given(prior.sample(rng, draw(st.integers(1, 250))), rng)
    return kind, strat, prior, np.concatenate([picked, sampled])


def pointwise_likelihood(kind, strat, thetas, m):
    """p(m | theta) from the module-level density of each task, which the
    engine does not use."""
    if kind in ("het", "het_full"):
        return phase.squeezed_het_likelihood(strat.alpha, strat.r, m, thetas)
    if kind == "hom":
        return phase.squeezed_hom_likelihood(strat.alpha, strat.r, strat.phi_s, m.real, thetas)
    if kind == "squeeze":
        return sq.homodyne_likelihood(strat.probe, thetas, m.real)
    mean, var = strat.outcome_moments(thetas)
    return gaussian_like(var[0])(mean, m.real)


class TestGaussianOutcomeKernel:
    @settings(max_examples=80, deadline=None)
    @given(engine_cases())
    def test_blocked_spreads_match_dense_likelihood(self, case):
        _, strat, prior, outcomes = case
        calc = bayes._SpreadCalculator(prior, strat)
        v, z = calc.spreads(outcomes)
        v_ref, z_ref = calc.finish(strat.likelihood_matrix(prior.nodes, outcomes)
                                   @ calc.moments)
        # below ~1e-280 the kernel's floor of 9e-308 per cell shows
        seen = z_ref > 1e-280
        np.testing.assert_allclose(z[seen], z_ref[seen], rtol=1e-12)
        # v is a difference of posterior moments (1/2 - <cos 2(theta - est)>/2
        # or <theta^2> - <theta>^2); its rounding scales with those moments
        scale = 1.0 if strat.circular else float(np.max(prior.nodes**2))
        np.testing.assert_allclose(v[seen], v_ref[seen], rtol=1e-12, atol=1e-14 * scale)

    @settings(max_examples=60, deadline=None)
    @given(engine_cases())
    def test_likelihood_within_documented_rounding(self, case):
        # |error in log p| <= c eps (1 + |log p| + (|m|^2 + |mu|^2) / sigma^2),
        # c = 16; sigma^2 is the outcome variance along its narrowest axis
        kind, strat, prior, outcomes = case
        thetas = prior.nodes[::7]
        like = strat.likelihood_matrix(thetas, outcomes)
        mean, cov = strat.outcome_moments(thetas)
        var_min = cov if strat.dim == 1 else np.linalg.eigvalsh(
            np.stack([np.stack([cov[0], cov[2]], -1), np.stack([cov[2], cov[1]], -1)], -2))[:, 0]
        for row, m in zip(like, outcomes):
            want = pointwise_likelihood(kind, strat, thetas, m)
            seen = want > 1e-290
            log_want = np.log(want[seen])
            size = 1.0 + np.abs(log_want) + ((abs(m) ** 2 + np.abs(mean) ** 2) / var_min)[seen]
            err = np.abs(np.log(row[seen]) - log_want)
            assert np.all(err <= 16.0 * np.finfo(float).eps * size)

    def test_moment_maps_match_rotated_probes(self):
        # the engine's outcome moments against the phase-space module
        thetas = np.linspace(-3.0, 3.0, 7)
        het = phase.HeterodynePhaseStrategy(1.3, 0.6)
        mean, (vxx, vyy, vxy) = het.outcome_moments(thetas)
        hom = phase.HomodynePhaseStrategy(0.8, 0.5, 1.1)
        q_mean, q_var = hom.outcome_moments(thetas)
        for k, t in enumerate(thetas):
            st_het = ps.rotate(ProbeSpec(1.3, 0.6, math.pi).state(), t)
            b_mean, b_cov = meas.husimi_moments(st_het)
            assert mean[k] == pytest.approx(b_mean, abs=1e-14)
            np.testing.assert_allclose([vxx[k], vyy[k], vxy[k]],
                                       [b_cov[0, 0], b_cov[1, 1], b_cov[0, 1]], atol=1e-14)
            mu, var = meas.homodyne_moments(ps.rotate(ProbeSpec(0.8, 0.5, 1.1).state(), t))
            assert (q_mean[k], q_var[k]) == pytest.approx((mu, var), abs=1e-14)

    def test_samplers_use_mean_plus_cholesky_draws(self):
        # 1-D: mean + sd z; 2-D: mean + L z with z = standard_normal((n, 2))
        thetas = np.linspace(-3.0, 3.0, 50)
        hom = phase.HomodynePhaseStrategy(0.8, 0.5, 1.1)
        mu, var = hom.outcome_moments(thetas)
        z = np.random.default_rng(5).standard_normal(thetas.size)
        np.testing.assert_allclose(hom.sample_outcomes_given(thetas, np.random.default_rng(5)),
                                   mu + np.sqrt(var) * z, rtol=1e-14)
        het = phase.HeterodynePhaseStrategy(1.3, 0.6)
        mean, (vxx, vyy, vxy) = het.outcome_moments(thetas)
        z = np.random.default_rng(6).standard_normal((thetas.size, 2))
        got = het.sample_outcomes_given(thetas, np.random.default_rng(6))
        for k in range(thetas.size):
            chol = np.linalg.cholesky([[vxx[k], vxy[k]], [vxy[k], vyy[k]]])
            x, y = chol @ z[k]
            assert got[k] == pytest.approx(mean[k] + complex(x, y), abs=1e-13)

    @pytest.mark.parametrize("n", [7, 301, 2001, 2048])
    def test_kernel_buffer_starts_on_a_cache_line(self, n):
        strat = disp.HomodyneQuadratureStrategy(0.7, 0.2)
        calc = bayes._SpreadCalculator(GridDistribution.from_gaussian(strat.prior, n, 8.0), strat)
        assert calc._buf.ctypes.data % 64 == 0
        assert calc._buf.flags.c_contiguous and calc._buf.shape[1] == n

    def test_validation(self):
        with pytest.raises(ValueError):
            bayes.GaussianOutcomeStrategy(lambda t: (t, t), lambda level: None, dim=3,
                                          circular=False)


# ---------------------------------------------------------------------------
# nested outcome nodes: the step-halving driver evaluates each node once


def _engine_row(kind):
    """One quadrature row per strategy: (strategy, prior grid)."""
    if kind == "het":
        return phase.HeterodynePhaseStrategy(1.8, 1.0), phase.flat_prior(phase.HET_SUPPORT, 256)
    if kind == "het_full":
        strat = phase.HeterodynePhaseStrategy(1.0, 0.3, angular_nodes=16,
                                              angular_symmetry=False)
        return strat, phase.flat_prior(phase.HET_SUPPORT, 256)
    if kind == "hom":
        return phase.HomodynePhaseStrategy(1.0, 0.4, 0.3), phase.flat_prior(phase.HOM_SUPPORT, 256)
    if kind == "squeeze":
        gp = GaussianPrior(-0.5, 1.0)
        return (sq.SqueezeStrategy(ProbeSpec(1.5, 0.4, 0.0),
                                   bayes.PriorRule.gaussian(gp, 401).support),
                GridDistribution.from_gaussian(gp, 401, 6.0))
    if kind == "disp_het":
        strat = disp.HeterodyneCoordinateStrategy(0.25, 0.2, "I")
    else:
        strat = disp.HomodyneQuadratureStrategy(0.7, 0.2, 0.4)
    return strat, GridDistribution.from_gaussian(strat.prior, 401, 8.0)


def full_reevaluation(level_value, rel_tol, max_level):
    """The step-halving loop that evaluates every node of every level:
    (extrapolated value, levels)."""
    prev = None
    for level in range(max_level + 1):
        value = level_value(level)
        if prev is not None:
            delta = value - prev
            if abs(delta) / 3.0 <= max(rel_tol * abs(value), 1e-300):
                return value + delta / 3.0, level + 1
        prev = value
    raise AssertionError("no convergence")


def _levels(result):
    return result.levels


class TestNestedOutcomeNodes:
    @pytest.mark.parametrize("kind", KINDS)
    def test_strategy_rules_are_nested(self, kind):
        strat, _ = _engine_row(kind)
        rows = strat.outcome_rows
        for level in range(5):
            coarse = strat.outcome_nodes(level)[0].reshape(rows, -1)
            fine = strat.outcome_nodes(level + 1)[0].reshape(rows, -1)
            assert np.array_equal(fine[:, 0::2], coarse)

    @pytest.mark.parametrize("alpha,r", [(0.3, 0.0), (1.8, 1.0), (4.0, 1.25)])
    def test_radial_rule_is_nested(self, alpha, r):
        for level in range(5):
            coarse = phase._radial_rule(alpha, r, 128, level)[0]
            fine = phase._radial_rule(alpha, r, 128, level + 1)[0]
            assert np.array_equal(fine[0::2], coarse)

    @pytest.mark.parametrize("kind", KINDS)
    def test_engine_matches_full_reevaluation(self, kind):
        strat, prior = _engine_row(kind)
        calc = bayes._SpreadCalculator(prior, strat)

        def level_value(level):
            outcomes, weights = strat.outcome_nodes(level)
            v, z = calc.spreads(outcomes)
            return float(weights @ (z * v))
        want, levels = full_reevaluation(level_value, 1e-6, 5)
        got = average_posterior_variance(strat, prior)
        assert got.value == pytest.approx(want, rel=1e-14)
        assert _levels(got) == levels

    def test_series_matches_full_reevaluation(self):
        alpha, r = 1.8, 1.0
        n_max = phase._sh_cutoff(alpha, r, phase._sh_radial_extent(alpha, r))
        t = math.tanh(r)

        def level_value(level):
            rho, w = phase._radial_rule(alpha, r, 512, level)
            rows_u, rows_v = phase._sh_rows(alpha, r, rho, n_max)
            s = (0.5 * phase._sh_var_terms(rows_u, rows_v, n_max)).sum(axis=1)
            return float(w @ (rho * np.exp(-(1.0 - t) * (rho - alpha) ** 2) * s / math.cosh(r)))
        want, _ = full_reevaluation(level_value, 1e-6, 4)
        assert phase.squeezed_het_average_variance(alpha, r) == pytest.approx(want, rel=1e-14)

    @pytest.mark.parametrize("kind", KINDS)
    def test_each_outcome_node_is_evaluated_once(self, kind, monkeypatch):
        # cost guard: the kernel sees exactly the nodes of the finest level
        strat, prior = _engine_row(kind)
        rows = []
        spreads = bayes._SpreadCalculator.spreads

        def counting(calc, outcomes):
            rows.append(np.size(outcomes))
            return spreads(calc, outcomes)
        monkeypatch.setattr(bayes._SpreadCalculator, "spreads", counting)
        levels = _levels(average_posterior_variance(strat, prior))
        assert levels >= 2
        assert len(rows) == levels
        assert sum(rows) == strat.outcome_nodes(levels - 1)[0].size

    def test_series_evaluates_each_radial_node_once(self, monkeypatch):
        from gaussbayes import specfun
        radii = []
        rows = specfun.bessel_i_scaled_rows

        def counting(x, nmax):
            radii.append(np.size(x))
            return rows(x, nmax)
        monkeypatch.setattr(specfun, "bessel_i_scaled_rows", counting)
        driver = phase._quadrature_outcome_grid
        # stop after level 1: any gap passes rel_tol = 1
        monkeypatch.setattr(phase, "_quadrature_outcome_grid",
                            lambda rule, integrand, rel_tol, max_level:
                            driver(rule, integrand, 1.0, 1))
        phase.squeezed_het_average_variance(1.8, 1.0)
        # one u row and one v row per radius; levels 0 and 1
        assert sum(radii) == 2 * phase._radial_rule(1.8, 1.0, 512, 1)[0].size

    def test_non_nested_rule_raises(self):
        def shifted(level):
            return bayes.trapezoid(0.0, 1.0 + level, 4 * 2**level + 1)
        with pytest.raises(RuntimeError, match="not nested") as err:
            bayes._quadrature_outcome_grid(shifted, np.square, 1e-12, 3)
        assert not isinstance(err.value, (ValueError, ToleranceError))

    def test_non_nested_rule_is_not_a_row_status(self, monkeypatch):
        from gaussbayes import harness
        # read as one rule, the two halves of the squeeze grid are not nested
        monkeypatch.setattr(sq.SqueezeStrategy, "outcome_rows", 1)
        cfg = harness.parse_config("task = Squeeze\nalpha = 0.5\nsigma0sq = 1")
        with pytest.raises(RuntimeError, match="not nested"):
            harness.run(cfg)

    def test_short_series_cutoff_still_raises(self, monkeypatch):
        monkeypatch.setattr(phase, "_sh_cutoff", lambda alpha, r, rho_max: 1)
        with pytest.raises(phase.TruncationError):
            phase.squeezed_het_average_variance(2.0, 0.75)


# ---------------------------------------------------------------------------
# prior-grid refinement: the engine chooses the prior node count


def _task_engine(task, p):
    """One quadrature row of a harness task through its entry point:
    (result, [(strategy, prior rule)] whose values it sums)."""
    from gaussbayes.measurement import HETERODYNE, homodyne
    if task in ("PhaseHet", "PhaseHom"):
        if task == "PhaseHet":
            t = phase.PhaseTask(ProbeSpec(p["alpha"], p["r"], math.pi), HETERODYNE)
            rule = bayes.PriorRule(phase.HET_SUPPORT, None, bayes.CIRCLE_GRID_NODES)
        else:
            t = phase.PhaseTask(ProbeSpec(p["alpha"], p["r"], p["psi"]), homodyne())
            rule = bayes.PriorRule(phase.HOM_SUPPORT, None, bayes.CIRCLE_GRID_NODES,
                                   bayes.GAUSS_LEGENDRE)
        return phase.average_variance_numeric(t), [(phase.task_strategy(t), rule)]
    if task == "Squeeze":
        alpha = math.sqrt(p["n"] - math.sinh(p["s"]) ** 2)
        t = sq.SqueezeTask(ProbeSpec(alpha, p["s"], 0.0), GaussianPrior(p["r0"], p["sigma0sq"]))
        return (sq.average_variance(t),
                [(sq.SqueezeStrategy(t.probe, t.prior_rule().support), t.prior_rule())])
    v, r = p["sigma0sq"], p["r"]
    if task == "DisplacementHet":
        strats = [disp.HeterodyneCoordinateStrategy(v, r, c) for c in "RI"]
        got = disp.het_avg_total_variance_numeric(v, r)
    else:
        strats = [disp.HomodyneQuadratureStrategy(v, r)]
        got = disp.hom_avg_variance_q_numeric(v, r)
    return got, [(s, bayes.PriorRule.gaussian(s.prior, bayes.LINEAR_GRID_NODES, 8.0))
                 for s in strats]


def _reference(strat, rule):
    """A high-resolution value: 8192 midpoint or 8193 trapezoid prior
    nodes, or 1024 Gauss-Legendre nodes where the midpoint rule is second
    order, a 4x finer heterodyne radial step (as the benchmark's
    references) and a 100x tighter outcome tolerance."""
    if isinstance(strat, phase.HeterodynePhaseStrategy):
        strat = phase.HeterodynePhaseStrategy(strat.alpha, strat.r, base_radial=512)
    if rule.rule == bayes.GAUSS_LEGENDRE:
        grid = rule.grid(1024, bayes.GAUSS_LEGENDRE)
    else:
        grid = rule.grid(8192 if isinstance(rule.support, Circle) else 8193)
    return average_posterior_variance(strat, grid, rel_tol=1e-8, max_level=7).value


# a parameter sample of every quadrature task, with the corners that need
# the most prior nodes or that the midpoint rule on [0, pi) got wrong
C3_ROWS = [
    ("PhaseHet", dict(alpha=0.5, r=0.15)),
    ("PhaseHet", dict(alpha=2.0, r=0.5)),
    ("PhaseHet", dict(alpha=4.0, r=1.25)),
    ("PhaseHom", dict(alpha=0.7, r=0.0, psi=0.0)),
    ("PhaseHom", dict(alpha=1.0, r=0.0, psi=0.0)),
    ("PhaseHom", dict(alpha=2.0, r=0.5, psi=0.0)),
    ("PhaseHom", dict(alpha=4.0, r=1.0, psi=math.pi / 2)),
    ("Squeeze", dict(n=2.0, s=0.5, r0=-0.5, sigma0sq=1.0)),
    ("Squeeze", dict(n=8.0, s=1.5, r0=-0.5, sigma0sq=1.0)),
    ("Squeeze", dict(n=16.0, s=1.0, r0=0.0, sigma0sq=4.0)),
    ("DisplacementHet", dict(sigma0sq=0.5, r=0.3)),
    ("DisplacementHet", dict(sigma0sq=10.0, r=1.5)),
    ("DisplacementHom", dict(sigma0sq=0.25, r=0.0)),
    ("DisplacementHom", dict(sigma0sq=10.0, r=1.5)),
]


class TestPriorRefinement:
    @pytest.mark.parametrize("task,p", C3_ROWS)
    def test_reported_error_covers_the_real_error(self, task, p):
        # |got - ref| is got's whole error: outcome steps and prior grid
        got, parts = _task_engine(task, p)
        ref = sum(_reference(strat, rule) for strat, rule in parts)
        # 1e-13 relative: the rounding of the quadrature sums in both
        # values, which no step-halving or grid-doubling gap resolves
        assert abs(got.value - ref) <= got.std_error + 1e-13 * abs(ref)
        # and the bar is not vacuous: at most the outcome and prior-grid
        # tolerances, 1e-5 relative for Squeeze and 1e-6 elsewhere
        assert got.std_error <= 2.0 * (1e-5 if task == "Squeeze" else 1e-6) * abs(ref)

    @pytest.mark.parametrize("task,p", [
        ("PhaseHet", dict(alpha=1.0, r=0.25)),
        ("PhaseHom", dict(alpha=1.5, r=0.3, psi=math.pi / 2)),
        ("Squeeze", dict(n=3.0, s=0.5, r0=-0.5, sigma0sq=1.0)),
        ("DisplacementHet", dict(sigma0sq=0.5, r=0.3)),
        ("DisplacementHom", dict(sigma0sq=1.0, r=0.3)),
    ])
    def test_cost_guard_prior_cells(self, task, p, monkeypatch):
        # cells = outcome rows x prior nodes passed to the kernel; the
        # fixed grid, 2048 midpoint or 2001 trapezoid nodes, is the one
        # every quadrature row ran on before the engine chose the count
        cells = []
        spreads = bayes._SpreadCalculator.spreads

        def counting(calc, outcomes):
            cells.append(np.size(outcomes) * calc.moments.shape[0])
            return spreads(calc, outcomes)
        monkeypatch.setattr(bayes._SpreadCalculator, "spreads", counting)
        got, parts = _task_engine(task, p)
        refined = sum(cells)
        assert got.prior_nodes <= 256
        cells.clear()
        for strat, rule in parts:
            average_posterior_variance(strat, rule.grid(rule.max_nodes))
        assert refined < sum(cells) / 4

    def test_counts_double_up_to_the_ceiling(self):
        flat = bayes.PriorRule(phase.HET_SUPPORT, None, 2048)
        assert list(flat.counts()) == [64, 128, 256, 512, 1024, 2048]
        gauss = bayes.PriorRule.gaussian(GaussianPrior(0.0, 1.0), 2001)
        assert list(gauss.counts()) == [65, 129, 257, 513, 1025, 2001]
        assert list(bayes.PriorRule(phase.HOM_SUPPORT, None, 100, bayes.GAUSS_LEGENDRE)
                    .counts()) == [64, 100]

    def test_ceiling_raises_with_the_estimate(self):
        # alpha = 4, r = 1.25 needs 256 nodes
        from gaussbayes.measurement import HETERODYNE
        task = phase.PhaseTask(ProbeSpec(4.0, 1.25, math.pi), HETERODYNE)
        want = phase.average_variance_numeric(task)
        with pytest.raises(ToleranceError, match="within 128 nodes") as err:
            phase.average_variance_numeric(task, grid_nodes=128)
        assert err.value.estimate == pytest.approx(want.value, rel=1e-3)
        assert err.value.std_error >= abs(err.value.estimate - want.value)

    def test_monte_carlo_draws_on_the_ceiling_grid(self):
        # a prior rule and its grid of max_nodes nodes give the same draws
        strat = disp.HomodyneQuadratureStrategy(0.7, 0.2)
        rule = bayes.PriorRule.gaussian(strat.prior, 301, 8.0)
        got = average_posterior_variance(strat, rule, method="montecarlo", samples=5000,
                                         rng=rng_for(14))
        want = average_posterior_variance(strat, GridDistribution.from_gaussian(
            strat.prior, 301, 8.0), method="montecarlo", samples=5000, rng=rng_for(14))
        assert got == want
        assert (got.prior_nodes, got.samples, got.levels) == (301, 5000, 0)

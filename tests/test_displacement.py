"""Closed-form displacement estimation against grid and engine oracles."""

import math

import numpy as np
import pytest

from gaussbayes import bayes, displacement as disp
from gaussbayes.bayes import GaussianPrior, GridDistribution
from gaussbayes.measurement import HETERODYNE, MeasurementKind, Measurement, homodyne

SQ2 = math.sqrt(2.0)


def rng_for(*lane):
    return np.random.default_rng(np.random.SeedSequence((7211, *lane)))


def het_task(sigma0sq, r=0.0, alpha0=0j):
    return disp.DisplacementTask(sigma0sq, alpha0, probe_r=r)


def hom_task(sigma0sq, r=0.0, phi=0.0, alpha0=0j):
    return disp.DisplacementTask(sigma0sq, alpha0, probe_r=r, probe_phi=phi,
                                 measurement=homodyne())


class TestHeterodynePosterior:
    def test_coherent_probe_example(self):
        post_r, post_i = disp.het_posterior(het_task(0.5), 1.0 + 0j)
        assert post_r.mu0 == pytest.approx(4 * 0.5 / (4 * 0.5 + 2), rel=1e-14)
        assert post_r.var0 == pytest.approx(0.25, rel=1e-14)
        assert post_i.mu0 == pytest.approx(0.0, abs=1e-14)

    def test_large_squeezing_limit(self):
        post_r, _ = disp.het_posterior(het_task(0.7, r=20.0), 0.3 + 0j)
        assert post_r.var0 == pytest.approx(1.0 / (1.0 / 0.7 + 4.0), rel=1e-8)

    def test_prior_mean_is_fixed_point(self):
        alpha0 = 0.4 - 0.6j
        post_r, post_i = disp.het_posterior(het_task(0.8, 0.5, alpha0), alpha0)
        assert post_r.mu0 == pytest.approx(alpha0.real, rel=1e-12)
        assert post_i.mu0 == pytest.approx(alpha0.imag, rel=1e-12)

    def test_grid_cross_check_randomized(self):
        # outcomes drawn from the predictive so the posterior stays well
        # inside the prior grid the oracle integrates on
        rng = rng_for(1)
        for _ in range(50):
            s0 = float(rng.uniform(0.05, 2.0))
            r = float(rng.uniform(0.0, 1.5))
            alpha = complex(rng.normal(scale=math.sqrt(s0)),
                            rng.normal(scale=math.sqrt(s0)))
            beta = alpha + complex(rng.normal(scale=0.8), rng.normal(scale=0.8))
            post_r, post_i = disp.het_posterior(het_task(s0, r), beta)
            for coord, post, m in (("R", post_r, beta.real), ("I", post_i, beta.imag)):
                strat = disp.HeterodyneCoordinateStrategy(s0, r, coord)
                grid = GridDistribution.from_gaussian(GaussianPrior(0.0, s0), 2001, 8.0)
                gpost = bayes.grid_update(
                    grid, lambda t, mm: strat.likelihood_matrix(t, [mm])[0], m)
                mean = bayes.mean_estimator(gpost)
                assert mean == pytest.approx(post.mu0, abs=1e-6)
                assert bayes.variance_mse(gpost, mean) == pytest.approx(post.var0, abs=1e-6)


class TestHeterodyneAverage:
    def test_closed_value(self):
        assert disp.het_avg_total_variance(0.25, 0.0) == pytest.approx(1.0 / 3.0, rel=1e-15)

    def test_minimized_at_zero_squeezing(self):
        base = disp.het_avg_total_variance(0.25, 0.0)
        for r in np.linspace(0.05, 5.0, 25):
            assert disp.het_avg_total_variance(0.25, float(r)) > base

    def test_wide_prior_limit(self):
        assert disp.het_avg_total_variance(1e6, 0.0) == pytest.approx(1.0, abs=1e-5)


class TestHomodynePosterior:
    def test_worked_example(self):
        post_r, post_i = disp.hom_posterior(hom_task(1.0), SQ2)
        assert post_r.mu0 == pytest.approx(0.8, rel=1e-14)
        assert post_r.var0 == pytest.approx(0.2, rel=1e-14)
        assert post_i.var0 == pytest.approx(1.0)

    def test_wrong_angle_is_worse(self):
        aligned = disp.hom_posterior(hom_task(0.5, r=0.7, phi=0.0), 0.3)[0]
        anti = disp.hom_posterior(hom_task(0.5, r=0.7, phi=math.pi), 0.3)[0]
        assert anti.var0 > aligned.var0

    def test_personick_case(self):
        post_r, _ = disp.hom_posterior(hom_task(0.6), 0.1)
        assert post_r.var0 == pytest.approx(0.6 / (4 * 0.6 + 1), rel=1e-12)

    def test_grid_cross_check_randomized(self):
        rng = rng_for(2)
        for _ in range(50):
            s0 = float(rng.uniform(0.05, 2.0))
            r = float(rng.uniform(0.0, 1.5))
            alpha_r = float(rng.normal(scale=math.sqrt(s0)))
            q = math.sqrt(2.0) * alpha_r + float(rng.normal(scale=0.8))
            post_r, _ = disp.hom_posterior(hom_task(s0, r), q)
            strat = disp.HomodyneQuadratureStrategy(s0, r)
            grid = GridDistribution.from_gaussian(GaussianPrior(0.0, s0), 2001, 8.0)
            gpost = bayes.grid_update(
                grid, lambda t, mm: strat.likelihood_matrix(t, [mm])[0], q)
            mean = bayes.mean_estimator(gpost)
            assert mean == pytest.approx(post_r.mu0, abs=1e-6)
            assert bayes.variance_mse(gpost, mean) == pytest.approx(post_r.var0, abs=1e-6)


class TestHomodyneAverage:
    def test_values(self):
        assert disp.hom_avg_variance_q(1.0, 0.0) == pytest.approx(0.2, rel=1e-15)
        assert disp.hom_avg_variance_q(1.0, 0.5) == pytest.approx(
            1.0 / (1.0 + 4.0 * math.e), rel=1e-14)

    def test_strong_squeezing_total(self):
        s0 = 0.8
        assert disp.hom_avg_variance_q(s0, 20.0) == pytest.approx(0.0, abs=1e-17)
        total = s0 + disp.hom_avg_variance_q(s0, 20.0)
        assert total == pytest.approx(s0, rel=1e-12)

    def test_van_trees_saturation(self):
        for s0 in (0.1, 0.5, 1.0, 3.0):
            for r in (0.0, 0.4, 1.2):
                assert disp.hom_avg_variance_q(s0, r) == bayes.van_trees_bound(
                    1.0 / s0, 4.0 * math.exp(2.0 * r))

    def test_single_coordinate_ordering(self):
        # homodyne at r=0 never loses to any heterodyne squeezing
        for s0 in np.linspace(0.05, 10.0, 30):
            hom = disp.hom_avg_variance_q(float(s0), 0.0)
            assert hom == pytest.approx(s0 / (1 + 4 * s0), rel=1e-12)
            for r in (0.0, 0.5, 2.0, 10.0):
                het_r = disp.het_coordinate_variance(float(s0), r, "R")
                assert hom <= het_r + 1e-15


class TestThreshold:
    def test_formula(self):
        assert disp.squeezing_threshold(0.25) == pytest.approx(-0.5 * math.log(0.5),
                                                               rel=1e-12)

    def test_boundary_none(self):
        assert disp.squeezing_threshold(0.5) is None
        assert disp.squeezing_threshold(0.9) is None

    def test_root_finder_oracle(self):
        s0 = 0.1
        het = disp.het_avg_total_variance(s0, 0.0)

        def total_gap(r):
            return s0 + disp.hom_avg_variance_q(s0, r) - het

        lo, hi = 0.0, 5.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if total_gap(mid) > 0:
                lo = mid
            else:
                hi = mid
        assert disp.squeezing_threshold(s0) == pytest.approx(0.5 * (lo + hi), abs=1e-9)


class TestRepeated:
    def test_values(self):
        assert disp.repeated_variance(1.0, 0.0, 3) == pytest.approx(1.0 / 13.0, rel=1e-15)
        assert disp.repeated_variance(0.7, 0.3, 0) == pytest.approx(0.7)
        assert disp.repeated_variance(1.0, 0.5, 10) == pytest.approx(
            1.0 / (1.0 + 40.0 * math.e), rel=1e-14)

    def test_matches_chained_posteriors(self):
        task = hom_task(1.0)
        prior_var = 1.0
        for _ in range(3):
            t = disp.DisplacementTask(prior_var, measurement=homodyne())
            prior_var = disp.hom_posterior(t, 0.37)[0].var0
        assert prior_var == pytest.approx(disp.repeated_variance(1.0, 0.0, 3), rel=1e-13)

    def test_validation(self):
        with pytest.raises(ValueError):
            disp.repeated_variance(1.0, 0.0, -1)


class TestEngines:
    def test_quadrature_reproduces_closed_forms(self):
        got = disp.het_avg_total_variance_numeric(0.25, 0.6)
        assert got.value == pytest.approx(disp.het_avg_total_variance(0.25, 0.6), abs=1e-6)
        got = disp.hom_avg_variance_q_numeric(0.5, 0.4)
        assert got.value == pytest.approx(disp.hom_avg_variance_q(0.5, 0.4), abs=1e-6)

    def test_a_failed_coarse_count_does_not_end_the_count_search(self):
        # the 65-node count's outcome quadrature fails at its last level;
        # the finer counts converge and agree
        got = disp.hom_avg_variance_q_numeric(100.0, 1.0)
        assert got.value == pytest.approx(disp.hom_avg_variance_q(100.0, 1.0), rel=1e-9)

    def test_outcome_span_covers_the_tails(self):
        # on +-(7 sigma0 gain + 7 sd) the span dropped 1.0e-12 relative of
        # this value, 20x its quoted std_error
        got = disp.hom_avg_variance_q_numeric(100.0, 1.0)
        assert abs(got.value - disp.hom_avg_variance_q(100.0, 1.0)) <= got.std_error

    @pytest.mark.parametrize("sigma0sq", [0.01, 1.0, 1e4])
    @pytest.mark.parametrize("r", [-2.0, 0.0, 2.0])
    def test_cost_guard_128_outcome_nodes(self, sigma0sq, r):
        for strat in (disp.HomodyneQuadratureStrategy(sigma0sq, r, 0.7),
                      disp.HeterodyneCoordinateStrategy(sigma0sq, r, "R", mu0=3.0)):
            assert strat.outcome_nodes(0)[0].size == 129

    def test_total_tolerance_error_carries_both_coordinates(self):
        # at sigma0^2 = 1e4 the ceiling count of the R coordinate fails; the
        # total's error carries R counted twice, not R alone
        with pytest.raises(bayes.ToleranceError) as err:
            disp.het_avg_total_variance_numeric(1e4, 0.0)
        assert err.value.estimate == pytest.approx(disp.het_avg_total_variance(1e4, 0.0),
                                                   rel=1e-6)

    def test_monte_carlo_within_four_se(self):
        mc = disp.het_avg_total_variance_numeric(
            0.25, 0.0, method="montecarlo", samples=20_000, rng=rng_for(3))
        assert abs(mc.value - 1.0 / 3.0) <= 4.0 * mc.std_error + 1e-9
        mc = disp.hom_avg_variance_q_numeric(
            1.0, 0.0, method="montecarlo", samples=20_000, rng=rng_for(4))
        assert abs(mc.value - 0.2) <= 4.0 * mc.std_error + 1e-9

    @pytest.mark.parametrize("r, method, engines", [(0.0, "quadrature", 1),
                                                    (0.3, "quadrature", 2),
                                                    (0.0, "montecarlo", 2)])
    def test_cost_guard_unsqueezed_quadrature_runs_one_coordinate(
            self, monkeypatch, r, method, engines):
        coords = []
        engine = disp._coordinate_engine

        def counted(strategy, *args):
            coords.append(strategy)
            return engine(strategy, *args)
        monkeypatch.setattr(disp, "_coordinate_engine", counted)
        got = disp.het_avg_total_variance_numeric(0.5, r, method=method, samples=4096,
                                                  rng=rng_for(5))
        assert len(coords) == engines
        if engines == 1:
            # the I coordinate, run on its own, is the R coordinate bit for bit
            i_part = engine(disp.HeterodyneCoordinateStrategy(0.5, r, "I"), method, 0, None)
            r_part = engine(coords[0], method, 0, None)
            assert i_part == r_part
            assert got.value == r_part.value + i_part.value
            # deterministic errors add linearly
            assert got.std_error == r_part.std_error + i_part.std_error

    def test_task_validation(self):
        with pytest.raises(ValueError):
            disp.DisplacementTask(0.0)
        with pytest.raises(ValueError):
            disp.het_posterior(hom_task(1.0), 0.2)
        with pytest.raises(ValueError):
            disp.hom_posterior(het_task(1.0), 0.2)

"""Prior updates, grid machinery, estimators, bounds, and the engines."""

import copy
import gc
import math
import sys
import threading
import time
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gaussbayes import bayes, displacement as disp, measurement as meas, phase
from gaussbayes import phasespace as ps, squeezing as sq
from gaussbayes.bayes import (Circle, GammaPrior, GaussianPrior, GridDistribution,
                              InconsistentOutcomeError, Interval, PriorSymmetryError,
                              ToleranceError, average_posterior_variance)
from gaussbayes.phasespace import ProbeSpec


def gaussian_like(sigma_sq):
    def like(thetas, m):
        return np.exp(-((m - thetas) ** 2) / (2 * sigma_sq)) / math.sqrt(2 * math.pi * sigma_sq)
    return like


def rng_for(*lane):
    return np.random.default_rng(np.random.SeedSequence((99, *lane)))


def spreads_at(calc, outcomes):
    """The kernel's (posterior variance, evidence) at single outcomes."""
    return calc.spreads(calc.strategy.outcome_features(outcomes))


@pytest.fixture
def cold_engine_grids():
    """An empty engine grid cache: a test that counts grid builds counts
    every one, whatever ran before it."""
    bayes._cached_engine_grid.cache_clear()


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

    @pytest.mark.parametrize("nodes", [[0.0, np.nan, 1.0], [0.0, 0.5, np.nan],
                                       # 129 nodes on 45 ulps: some round alike
                                       bayes.trapezoid(1.0, 1.0 + 1e-14, 129)[0]])
    def test_nan_and_repeated_nodes_are_rejected(self, nodes):
        # a nan node compares false both ways, so the order test must
        # hold at every gap, not fail at none
        with pytest.raises(ValueError, match="strictly increasing"):
            GridDistribution(Interval(0, 1), nodes, np.ones(len(nodes)))

    def test_a_rule_grid_with_a_nan_node_is_rejected(self, monkeypatch):
        # no finite support gives a rule a nan node; a stand-in rule does
        dot = bayes._RULES[bayes.TRAPEZOID][1]
        monkeypatch.setitem(bayes._RULES, bayes.TRAPEZOID,
                            (lambda lo, hi, n: (np.array([0.0, np.nan, 1.0]), None), dot))
        with pytest.raises(ValueError, match="strictly increasing"):
            GridDistribution.from_function(Interval(0.0, 1.0), None, 3)

    def test_nan_density_is_rejected(self):
        with pytest.raises(ValueError, match="integrates to nan"):
            GridDistribution(Interval(0, 1), np.linspace(0, 1, 5), [1.0, np.nan, 1.0, 1.0, 1.0])
        with pytest.raises(ValueError, match="integrates to nan"):
            GridDistribution.from_function(Interval(0, 1),
                                           lambda t: np.where(t > 0.5, np.nan, 1.0), 11)

    @pytest.mark.parametrize("rule", [bayes.MIDPOINT, bayes.TRAPEZOID, bayes.GAUSS_LEGENDRE])
    def test_empty_grid_is_rejected(self, rule):
        with pytest.raises(ValueError):
            GridDistribution(Interval(0, 1), np.array([]), np.array([]), rule)

    def test_one_node_trapezoid_grid_is_rejected(self):
        with pytest.raises(ValueError, match="at least 2 nodes, got 1"):
            GridDistribution.uniform(Interval(0, 1), 1)
        with pytest.raises(ValueError, match="at least 2 nodes, got 1"):
            GridDistribution(Interval(0, 1), [0.5], [1.0])

    @pytest.mark.parametrize("support,rule", [(Circle(-1.0, 1.0), None),
                                              (Interval(0, 2), bayes.MIDPOINT),
                                              (Interval(0, 2), bayes.GAUSS_LEGENDRE)])
    def test_one_node_grids_of_the_other_rules_work(self, support, rule):
        grid = GridDistribution.uniform(support, 1, rule)
        assert grid.nodes.tolist() == [0.5 * (support.lo + support.hi)]
        assert grid.integrate() == 1.0

    @pytest.mark.parametrize("rule,least", [(None, 2), (bayes.TRAPEZOID, 2),
                                            (bayes.MIDPOINT, 1), (bayes.GAUSS_LEGENDRE, 1)])
    def test_prior_rule_needs_a_node_count_its_rule_can_take(self, rule, least):
        for n in (least - 1, -3):
            with pytest.raises(ValueError, match=f"at least {least}, got {n}"):
                bayes.PriorRule(Interval(0, 1), None, n, rule)
        prior = bayes.PriorRule(Interval(0, 1), None, least, rule)
        assert prior.grid(least, rule).integrate() == pytest.approx(1.0, rel=1e-15)

    @pytest.mark.parametrize("rule", [bayes.MIDPOINT, bayes.TRAPEZOID, bayes.GAUSS_LEGENDRE])
    @pytest.mark.parametrize("entry", ["uniform", "from_function", "PriorRule",
                                       "average_posterior_variance"])
    def test_unknown_rules_and_bad_density_functions_raise_value_errors(self, entry, rule):
        strat, gauss = _squeeze_rule(3.0, 0.5)

        def build(fn, rule, support=gauss.support):
            if entry == "uniform":
                return GridDistribution.uniform(support, 129, rule)
            if entry == "from_function":
                return GridDistribution.from_function(support, fn, 129, rule)
            prior = bayes.PriorRule(support, fn, 129, rule)
            if entry == "PriorRule":
                return prior.grid(129, rule)
            return average_posterior_variance(strat, prior, rel_tol=1e-3)
        with pytest.raises(ValueError, match="unknown quadrature rule 'simpson'"):
            build(gauss.density, "simpson")
        build(gauss.density, rule)
        # 129 nodes on a support 45 ulps wide: some round to the same float
        with pytest.raises(ValueError, match="strictly increasing"):
            build(gauss.density, rule, Interval(1.0, 1.0 + 1e-14))
        if entry != "uniform":
            # a scalar, and one value too few, where one value per node is due
            for fn in (lambda t: 1.0, lambda t: np.ones(t.size - 1)):
                with pytest.raises(ValueError, match="density function gave shape"):
                    build(fn, rule)

    @pytest.mark.parametrize("rule", [bayes.MIDPOINT, bayes.TRAPEZOID, bayes.GAUSS_LEGENDRE])
    @pytest.mark.parametrize("fn", [None, lambda t: np.exp(-0.5 * ((t - 0.3) / 0.7) ** 2),
                                    lambda t: t])  # clipped at 0 below 0
    def test_a_rule_grid_is_the_validated_constructors(self, fn, rule, cold_engine_grids):
        support = Interval(-1.3, 2.9)
        for n in (1, 2, 129, 2000):
            if rule == bayes.TRAPEZOID and n < 2:
                continue
            rule_fn, dot = bayes._RULES[rule]
            nodes = rule_fn(support.lo, support.hi, n)[0]
            if fn is None:
                dens = np.full(n, 1.0 / (support.hi - support.lo))
            else:
                dens = np.maximum(fn(nodes), 0.0)
                dens = dens / dot(support.lo, support.hi, dens, None)
            want = GridDistribution(support, nodes, dens, rule)
            # the public builder, and the prior rule's grid on its own rule
            for grid in (GridDistribution.from_function(support, fn, n, rule),
                         bayes.PriorRule(support, fn, n, rule).grid(n)):
                assert grid.rule == want.rule and grid.support == want.support
                np.testing.assert_array_equal(grid.nodes, want.nodes)
                np.testing.assert_array_equal(grid.density, want.density)
                assert not grid.nodes.flags.writeable and not grid.density.flags.writeable
                assert vars(grid).keys() == vars(want).keys()

    @pytest.mark.parametrize("read_only_view", [False, True])
    def test_caller_writes_do_not_reach_the_grid(self, read_only_view):
        nodes, dens = np.linspace(0.0, 1.0, 11), np.ones(11)
        args = (nodes, dens)
        if read_only_view:
            args = tuple(a.view() for a in args)
            for a in args:
                a.setflags(write=False)
        d = GridDistribution(Interval(0.0, 1.0), *args)
        nodes[3] += 0.05
        dens[3] = 7.0
        np.testing.assert_array_equal(d.nodes, np.linspace(0.0, 1.0, 11))
        np.testing.assert_array_equal(d.density, np.ones(11))
        assert not d.nodes.flags.writeable and not d.density.flags.writeable

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

    def test_a_prior_rule_grids_on_its_own_rule(self):
        for support, rule in ((phase.HET_SUPPORT, bayes.MIDPOINT),
                              (Interval(0.0, 1.0), bayes.TRAPEZOID)):
            prior = bayes.PriorRule(support, None, 512)
            assert prior.rule == prior.grid(128).rule == rule
        grid = bayes.PriorRule(phase.HOM_SUPPORT, None, 512, bayes.GAUSS_LEGENDRE).grid(128)
        assert grid.rule == bayes.GAUSS_LEGENDRE
        np.testing.assert_array_equal(grid.nodes, bayes.gauss_legendre(0.0, math.pi, 128)[0])

    def test_default_rules_and_validation(self):
        assert GridDistribution.uniform(Circle(0.0, 1.0), 8).rule == bayes.MIDPOINT
        assert GridDistribution.uniform(Interval(0.0, 1.0), 9).rule == bayes.TRAPEZOID
        with pytest.raises(ValueError, match="unknown quadrature rule"):
            GridDistribution(Interval(0, 1), np.linspace(0, 1, 3), np.ones(3), "simpson")

    @pytest.mark.parametrize("rule,least", [(bayes.MIDPOINT, 1), (bayes.GAUSS_LEGENDRE, 1),
                                            (bayes.TRAPEZOID, 2)])
    def test_too_few_nodes_raise_a_typed_error(self, rule, least):
        rule_fn = bayes._RULES[rule][0]
        for n in (least - 1, -3):
            with pytest.raises(ValueError, match=f"at least {least} nodes?, got {n}"):
                rule_fn(0.0, 1.0, n)
            with pytest.raises(ValueError, match=f"got {n}"):
                GridDistribution.uniform(Circle(0.0, 1.0), n, rule)
        assert rule_fn(0.0, 1.0, least)[0].size == least

    @pytest.mark.parametrize("grid", [
        GridDistribution.uniform(phase.HET_SUPPORT, 512),
        GridDistribution.from_function(phase.HOM_SUPPORT, lambda t: 1.0 + np.cos(t) ** 2, 300),
        GridDistribution.from_gaussian(GaussianPrior(-0.5, 1.0), 513),
        GridDistribution.from_function(Interval(-1.0, 3.0), lambda t: np.exp(-t * t), 2001),
    ])
    def test_midpoint_and_trapezoid_draws_are_unchanged(self, grid):
        want = _sample_by_support(grid, np.random.default_rng(17), 10_000)
        np.testing.assert_array_equal(grid.sample(np.random.default_rng(17), 10_000), want)


def assert_same_bits(got, want):
    """got and want hold the same floats, bit for bit: -0.0 is not 0.0."""
    got, want = np.asarray(got), np.asarray(want)
    assert (got.dtype, got.shape) == (want.dtype, want.shape)
    assert got.tobytes() == want.tobytes()


def linspace_trapezoid(lo, hi, n):
    """The trapezoid rule as np.linspace and np.full wrote it: the oracle of
    ``bayes.trapezoid``."""
    weights = np.full(n, (hi - lo) / (n - 1))
    weights[0] *= 0.5
    weights[-1] *= 0.5
    return np.linspace(lo, hi, n), weights


def radial_t_range(alpha, r):
    """The t range of ``phase._radial_rule``."""
    extent = phase._sh_radial_extent(alpha, r)
    return phase._RADIAL_T_LO, extent + math.log(-math.expm1(-extent))


class TestRuleTable:
    # the outcome rules' 2^k + 1 nodes, where h = (hi - lo) / 2^k is exact,
    # and the prior rules' 2001, where it rounds
    @pytest.mark.parametrize("n", [2, 3, 129, 1025, 2001, 4097])
    @pytest.mark.parametrize("lo,hi", [(-7.5, -2.25), (-1.3, 2.9),
                                       (1.0, 1.0 + 1e-14),  # 45 ulps
                                       radial_t_range(4.0, 1.25), radial_t_range(0.1, 0.05)])
    def test_trapezoid_is_bitwise_the_linspace_form(self, lo, hi, n):
        for got, want in zip(bayes.trapezoid(lo, hi, n), linspace_trapezoid(lo, hi, n)):
            assert_same_bits(got, want)

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

    # not Gauss-Legendre at 300001 nodes: leggauss is a dense eigen-solve,
    # n^2 doubles (720 GB) there, and the rule stops at 4096 nodes
    @pytest.mark.parametrize("rule,n", [
        (rule, n) for rule in (bayes.MIDPOINT, bayes.TRAPEZOID, bayes.GAUSS_LEGENDRE)
        for n in (2, 3, 65, 2001, 300001) if (rule, n) != (bayes.GAUSS_LEGENDRE, 300001)])
    def test_weights_are_bitwise_the_rule_weights(self, rule, n):
        # each rule's weights as written before the grid stopped building
        # nodes for them, except the trapezoid step: (hi - lo) / (n - 1),
        # not the gap between np.linspace's first two nodes
        lo, hi = -1.3, 2.9
        if rule == bayes.MIDPOINT:
            want = np.full(n, (hi - lo) / n)
        elif rule == bayes.TRAPEZOID:
            want = np.full(n, (hi - lo) / (n - 1))
            want[0] *= 0.5
            want[-1] *= 0.5
        else:
            want = np.polynomial.legendre.leggauss(n)[1] * (0.5 * (hi - lo))
        support = Circle(lo, hi) if rule == bayes.MIDPOINT else Interval(lo, hi)
        d = GridDistribution.uniform(support, n, rule)
        np.testing.assert_array_equal(bayes._RULES[rule][0](lo, hi, n)[1], want)
        np.testing.assert_array_equal(d.weights, want)

    @pytest.mark.parametrize("rule", [bayes.MIDPOINT, bayes.TRAPEZOID])
    @pytest.mark.parametrize("n", [2001, 300001])
    def test_flat_grid_integrates_to_one(self, rule, n):
        # np.linspace's first node gap as the trapezoid step lost the digits
        # of |lo| / h: this grid integrated to 1 - 3.0e-12 at 300001 nodes
        lo, hi = -1.3, 2.9
        support = Circle(lo, hi) if rule == bayes.MIDPOINT else Interval(lo, hi)
        d = GridDistribution.uniform(support, n, rule)
        assert abs(d.integrate() - 1.0) <= 8.0 * np.finfo(float).eps

    @pytest.mark.parametrize("rule,n", [
        (rule, n) for rule in (bayes.MIDPOINT, bayes.TRAPEZOID, bayes.GAUSS_LEGENDRE)
        for n in (2, 3, 65, 2001, 300001) if (rule, n) != (bayes.GAUSS_LEGENDRE, 300001)])
    def test_integrals_agree_with_the_weights(self, rule, n):
        # n = 2 is the trapezoid grid whose step is hi - lo: np.linspace's
        # second node is hi itself
        lo, hi = -1.3, 2.9
        support = Circle(lo, hi) if rule == bayes.MIDPOINT else Interval(lo, hi)
        # not a flat density: BLAS sums a long run of equal terms with a
        # one-sided rounding error, ~1e3 eps at 300001 nodes, in the weights
        # product as much as in a step times a sum
        d = GridDistribution.from_function(support, lambda t: np.exp(-t * t), n, rule)
        w = d.weights
        rng = rng_for(17, n)
        eps = np.finfo(float).eps
        for f, g in [(rng.standard_normal(n), rng.standard_normal(n)),
                     (rng.random(n), np.exp(rng.standard_normal(n))),
                     (rng.standard_normal(n), None), (d.density, d.nodes)]:
            prod = f if g is None else f * g
            assert abs(d._dot(f, g) - w @ prod) <= 8.0 * eps * float(np.abs(w * prod).sum())
        # integrate takes node values, broadcast values and none
        for values in (list(np.cos(d.nodes)), np.array([0.7]), 0.7, None):
            prod = d.density * (1.0 if values is None else np.asarray(values))
            tol = 8.0 * eps * float(np.abs(w * prod).sum())
            assert abs(d.integrate(values) - w @ prod) <= tol

    @pytest.mark.parametrize("n", [4097, 300001])
    def test_too_many_legendre_nodes_raise_before_allocating(self, n, monkeypatch):
        def no_solve(n):
            raise AssertionError("leggauss called")
        monkeypatch.setattr(np.polynomial.legendre, "leggauss", no_solve)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="Gauss-Legendre nodes"):
                GridDistribution.uniform(Interval(-1.3, 2.9), n, bayes.GAUSS_LEGENDRE)
            with pytest.raises(ValueError, match="Gauss-Legendre nodes"):
                bayes.PriorRule(phase.HOM_SUPPORT, None, n, bayes.GAUSS_LEGENDRE).grid(
                    n, bayes.GAUSS_LEGENDRE)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * n

    def test_legendre_rule_accepts_its_largest_node_count(self, monkeypatch):
        calls = []

        def stub(n):
            calls.append(n)
            return np.zeros(n), np.zeros(n)
        monkeypatch.setattr(np.polynomial.legendre, "leggauss", stub)
        bayes._legendre.cache_clear()
        try:
            assert bayes.gauss_legendre(0.0, 1.0, 4096)[0].size == 4096
        finally:
            bayes._legendre.cache_clear()
        assert calls == [4096]

    def test_trapezoid_prior_weights_are_the_rule_weights(self):
        rule = bayes.PriorRule.gaussian(GaussianPrior(-0.5, 1.0), 2001)
        lo, hi = rule.support.lo, rule.support.hi
        for n in (65, 513, 2001):
            np.testing.assert_array_equal(rule.grid(n).weights, bayes.trapezoid(lo, hi, n)[1])

    @pytest.mark.parametrize("probe,prior", [
        (ProbeSpec(1.5, 0.4, 0.0), GaussianPrior(-0.5, 1.0)),
        (ProbeSpec(0.0, 0.8, math.pi / 2), GaussianPrior(0.3, 0.2)),
    ])
    def test_squeeze_outcome_grid_from_the_prior_support(self, probe, prior):
        strat = sq.SqueezeStrategy(probe, sq.SqueezeTask(probe, prior).prior_rule().support)
        # the rule from (prior, 6 sigma): a trapezoid in v under
        # q = a sinh v, a the narrowest conditional sd and
        # V = asinh(q_hi / a), q_hi the widest conditional's mean plus 9 sds
        sd0 = math.sqrt(prior.var0)
        mu_lo, sd_lo = sq.conditional_moments(probe, np.array([prior.mu0 - 6.0 * sd0]))
        _, sd_hi = sq.conditional_moments(probe, np.array([prior.mu0 + 6.0 * sd0]))
        a = float(sd_hi[0])
        v_hi = math.asinh((float(mu_lo[0]) + 9.0 * float(sd_lo[0])) / a)
        for level in range(3):
            v, wv = bayes.trapezoid(-v_hi, v_hi, 256 * 2**level + 1)
            nodes, weights = strat.outcome_nodes(level)
            np.testing.assert_array_equal(nodes, a * np.sinh(v))
            np.testing.assert_array_equal(weights, a * np.cosh(v) * wv)


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

    def test_posterior_shares_the_prior_nodes_and_is_read_only(self):
        prior = GridDistribution.from_gaussian(GaussianPrior(0.2, 0.5), 401)
        kept = gaussian_like(0.8)(prior.nodes, -0.4)  # a likelihood the caller keeps
        post = bayes.grid_update(prior, lambda t, m: kept, -0.4)
        assert post.nodes is prior.nodes
        assert not post.density.flags.writeable
        with pytest.raises(ValueError):
            post.density[0] = 1.0
        want = prior.density * kept
        want = want / prior._dot(want)
        kept[:] = 1.0
        np.testing.assert_array_equal(post.density, want)

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
                prior, lambda t, m: phase.squeezed_hom_likelihood(alpha, 0.0, 0.0, m, t), q)
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

    @pytest.mark.parametrize("max_level", [1, 2, 3])
    def test_tolerance_error_carries_the_extrapolated_value(self, max_level):
        # past level 0 the error carries what the driver would have
        # returned at max_level: the extrapolated value and its quoted
        # error.  The default radial rule stops at level 1 near rounding,
        # so the row runs on a coarse one (7 level-0 radii) that does not
        # converge by level 3
        strat = phase.HeterodynePhaseStrategy(1.8, 1.0, base_radial=8)
        prior = phase.flat_prior(phase.HET_SUPPORT, 128)
        calc = bayes._SpreadCalculator(prior, strat, bayes._kernel_scratch(128))
        sums = []
        for level in range(max_level + 1):
            outcomes, weights = strat.outcome_nodes(level)
            v, z = spreads_at(calc, outcomes)
            sums.append(float(weights @ (z * v)))
        ext = [t + (t - s) / 3.0 for s, t in zip(sums, sums[1:])]
        want_err = abs(sums[1] - sums[0]) / 3.0 if max_level == 1 else abs(ext[-1] - ext[-2])
        with pytest.raises(ToleranceError) as err:
            average_posterior_variance(strat, prior, rel_tol=1e-16, max_level=max_level)
        assert err.value.estimate == pytest.approx(ext[-1], rel=1e-14)
        assert abs(err.value.std_error - want_err) <= 1e-14 * ext[-1]

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
        calc = bayes._SpreadCalculator(prior, strat, bayes._kernel_scratch(prior.nodes.size))
        spreads = []
        for size in (bayes._MC_CHUNK, bayes._MC_CHUNK, 123):
            outcomes = strat.sample_outcomes_given(prior.sample(rng, size), rng)
            spreads.append(spreads_at(calc, outcomes)[0])
        v = np.concatenate(spreads)
        assert res.value == pytest.approx(v.mean(), rel=1e-13)
        assert res.std_error == pytest.approx(v.std() / math.sqrt(v.size), rel=1e-10)


# ---------------------------------------------------------------------------
# the Gaussian-outcome strategy and its low-rank likelihood kernel


def summed_features(strat, outcomes):
    """Features of the rows of ``outcomes``, each summed over its rounds."""
    rows, rounds = outcomes.shape
    return strat.outcome_features(outcomes.ravel()).reshape(rows, rounds, -1).sum(axis=1)


class PolarHeterodyne(phase.HeterodynePhaseStrategy):
    """The heterodyne strategy on the full polar grid, the oracle of its
    radial quadrature: one radial rule per angle of the ``angular_nodes``
    midpoint rule on [-pi, pi), one row per angle.  Its complex outcomes
    run the full kernel, and its rule holds on any prior."""

    radial_outcomes = False

    def __init__(self, alpha, r, angular_nodes, base_radial=128):
        super().__init__(alpha, r, base_radial)
        self.angular_nodes = angular_nodes

    def _nodes(self, level):
        rho, wr = phase._radial_rule(self.alpha, self.r, self.base_radial, level)
        ang, wa = bayes.midpoint(-math.pi, math.pi, self.angular_nodes)
        return np.exp(-1j * ang)[:, None] * rho, wa[:, None] * (rho * wr)


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
        strat = PolarHeterodyne(alpha, r, draw(st.integers(3, 40)), base_radial=8)
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
    nodes = strat.outcome_nodes(0)[0].ravel()
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


def dense_spreads(strat, prior, outcomes):
    """(posterior variance, evidence) per outcome, reduced here from the
    dense outcome x node likelihood on the prior's full grid times its
    moment columns: 1, theta, theta^2 or the five circular ones."""
    t = prior.nodes
    cols = ([np.ones_like(t), np.cos(t), np.sin(t), np.cos(2.0 * t), np.sin(2.0 * t)]
            if strat.circular else [np.ones_like(t), t, t * t])
    w = prior.weights * prior.density
    m = strat.likelihood_matrix(t, outcomes) @ np.stack([w * c for c in cols], axis=1)
    z = m[:, 0]
    mom = m[:, 1:] / np.where(z > 0.0, z, 1.0)[:, None]
    if strat.circular:
        c1, c2 = mom[:, 0] + 1j * mom[:, 1], mom[:, 2] + 1j * mom[:, 3]
        est = np.where(np.abs(c1) > 1e-12, np.angle(c1), 0.0)
        v = 0.5 * (1.0 - (c2 * np.exp(-2j * est)).real)
    else:
        v = np.maximum(mom[:, 1] - mom[:, 0] ** 2, 0.0)
    return np.where(z > 0.0, v, 0.0), z


def stacked_features(strat, outcomes):
    """``outcome_features`` as np.stack wrote it: the oracle of its one-array form."""
    if strat.dim == 1:
        q = np.real(np.atleast_1d(outcomes)).astype(float)
        return np.stack([np.ones_like(q), q, q * q], axis=1)
    b = np.atleast_1d(np.asarray(outcomes, dtype=complex))
    x, y = b.real, b.imag
    return np.stack([np.ones_like(x), x, y, x * x, y * y, x * y], axis=1)


def stacked_coefficients(strat, thetas):
    """``node_coefficients`` as np.stack wrote it: the oracle of its one-array form."""
    mean, cov = strat.outcome_moments(thetas)
    if strat.dim == 1:
        prec = 1.0 / cov
        return np.stack([-0.5 * (mean * mean * prec + np.log(2.0 * math.pi * cov)),
                         mean * prec, -0.5 * prec])
    vxx, vyy, vxy = cov
    det = vxx * vyy - vxy * vxy
    pxx, pyy, pxy = vyy / det, vxx / det, -vxy / det
    mx, my = mean.real, mean.imag
    gx = pxx * mx + pxy * my
    gy = pxy * mx + pyy * my
    c0 = -0.5 * (mx * gx + my * gy) - np.log(2.0 * math.pi * np.sqrt(det))
    return np.stack([c0, gx, gy, -0.5 * pxx, -0.5 * pyy, -pxy])


def where_finish(calc, m):
    """``_SpreadCalculator.finish`` as it took np.where and wrote the
    zero-evidence rows on every call: its oracle."""
    z = m[:, 0]
    ok = z > 0.0
    zi = np.where(ok, z, 1.0)
    if m.shape[1] == 2:
        v = 0.5 * (1.0 - m[:, 1] / zi)
    elif calc.circular:
        c1r, c1i = m[:, 1] / zi, m[:, 2] / zi
        c2r, c2i = m[:, 3] / zi, m[:, 4] / zi
        est = np.where(np.hypot(c1r, c1i) > 1e-12, np.arctan2(c1i, c1r), 0.0)
        v = 0.5 * (1.0 - c2r * np.cos(2.0 * est) - c2i * np.sin(2.0 * est))
    else:
        mean = m[:, 1] / zi
        v = np.maximum(m[:, 2] / zi - mean**2, 0.0)
    v[~ok] = 0.0
    return v, z


def _squeeze_model():
    strat, rule = _squeeze_rule(3.0, 0.5)
    return strat, (rule.support.lo, rule.support.hi)


# (strategy, theta range) of each outcome model, dim 1 then dim 2
OUTCOME_MODELS = {
    "PhaseHom": lambda: (phase.HomodynePhaseStrategy(1.5, 0.3, math.pi / 2), (0.0, math.pi)),
    "Squeeze": _squeeze_model,
    "DisplacementHom": lambda: (disp.HomodyneQuadratureStrategy(1.0, 0.3), (-8.0, 8.0)),
    "PhaseHet": lambda: (phase.HeterodynePhaseStrategy(1.5, 0.25), (-math.pi, math.pi)),
}


class TestKernelHelpersBitwise:
    """The kernel's helpers, rewritten in place, against the forms they
    replaced, kept above as oracles: every bit the same."""

    @pytest.mark.parametrize("model", sorted(OUTCOME_MODELS))
    @pytest.mark.parametrize("size", [None, 1, 4096])  # a scalar, one element, an MC chunk
    def test_features_and_coefficients(self, model, size):
        strat, (lo, hi) = OUTCOME_MODELS[model]()
        rng = rng_for(31, size or 0)
        thetas = rng.uniform(lo, hi, size)
        outcomes = 3.0 * rng.standard_normal(size)
        if strat.dim == 2:
            outcomes = outcomes + 3j * rng.standard_normal(size)
        if size is None:  # Python scalars
            thetas = float(thetas)
            outcomes = complex(outcomes) if strat.dim == 2 else float(outcomes)
        assert_same_bits(strat.outcome_features(outcomes), stacked_features(strat, outcomes))
        assert_same_bits(strat.node_coefficients(thetas), stacked_coefficients(strat, thetas))

    @pytest.mark.parametrize("model,columns", [("PhaseHet", 2), ("PhaseHom", 5),
                                               ("DisplacementHom", 3)])
    @pytest.mark.parametrize("rows", [257, 4096])
    def test_finish(self, model, columns, rows):
        # the folded kernel's (1, cos 2theta), the circular and the linear
        # moment sums; the zero-evidence rows take the ~ok path
        strat, _ = OUTCOME_MODELS[model]()
        calc = object.__new__(bayes._SpreadCalculator)
        calc.circular = strat.circular
        rng = rng_for(32, rows)
        z = rng.uniform(0.1, 2.0, rows)
        m = np.column_stack([z] + [z * rng.uniform(-1.0, 1.0, rows)
                                   for _ in range(columns - 1)])
        if columns == 3:
            m[:, 2] = np.abs(m[:, 2]) + 1e-3 * z
        zeros = m.copy()
        zeros[[0, 5, rows - 1]] = 0.0
        zeros[7, 0] = -0.0
        zeros[9, 0] = np.nan
        for sums in (m, zeros):
            got, want = calc.finish(sums.copy()), where_finish(calc, sums.copy())
            for g, w in zip(got, want):
                assert_same_bits(g, w)


class TestGaussianOutcomeKernel:
    @settings(max_examples=80, deadline=None)
    @given(engine_cases())
    def test_blocked_spreads_match_dense_likelihood(self, case):
        _, strat, prior, outcomes = case
        calc = bayes._SpreadCalculator(prior, strat, bayes._kernel_scratch(prior.nodes.size))
        v, z = spreads_at(calc, outcomes)
        v_ref, z_ref = dense_spreads(strat, prior, outcomes)
        # below ~1e-280 the kernel's floor of 9e-308 per cell shows
        seen = z_ref > 1e-280
        np.testing.assert_allclose(z[seen], z_ref[seen], rtol=1e-12)
        # v is a difference of posterior moments (1/2 - <cos 2(theta - est)>/2
        # or <theta^2> - <theta>^2); its rounding scales with those moments
        scale = 1.0 if strat.circular else float(np.max(prior.nodes**2))
        np.testing.assert_allclose(v[seen], v_ref[seen], rtol=1e-12, atol=1e-14 * scale)

    def test_linear_variance_does_not_depend_on_the_support_offset(self):
        # outcome mean theta, variance 0.01, flat 257-node grid; every node,
        # outcome and product is dyadic, so only the moment reduction can
        # round differently on [9, 11] than on [-1, 1]
        class Unnormalized(bayes.GaussianOutcomeStrategy):
            # without log(2 pi sigma^2)/2, the same at every node, which
            # rounds differently beside mu^2/sigma^2 of another size
            def node_coefficients(self, thetas):
                c = super().node_coefficients(thetas)
                c[0] += 0.5 * math.log(2.0 * math.pi * 0.01)
                return c

        def average(lo, hi):
            strat = Unnormalized(
                lambda thetas: (thetas, np.full_like(thetas, 0.01)),
                lambda level: bayes.trapezoid(lo - 1.0, hi + 1.0, 64 * 2**level + 1), 1, False)
            return average_posterior_variance(
                strat, GridDistribution.uniform(Interval(lo, hi), 257)).value
        near, far = average(-1.0, 1.0), average(9.0, 11.0)
        assert abs(far - near) <= 1e-14 * near

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
        prior = GridDistribution.from_gaussian(strat.prior, n, 8.0)
        calc = bayes._SpreadCalculator(prior, strat, bayes._kernel_scratch(n))
        assert calc._buf.ctypes.data % 64 == 0
        assert calc._buf.flags.c_contiguous and calc._buf.shape[1] == n

    def test_validation(self):
        with pytest.raises(ValueError):
            bayes.GaussianOutcomeStrategy(lambda t: (t, t), lambda level: None, dim=3,
                                          circular=False)

    def test_floor_does_not_flatten_a_peaked_posterior(self):
        # coherent alpha = 1 heterodyne, features summed over N rounds: every
        # log p of a row lies far below the floor, yet the posterior is
        # peaked, N APV -> 1/F = 1/2; a flattened row gives v = 1/2, N v = N
        n_rounds, draws = 1024, 4000
        strat = phase.HeterodynePhaseStrategy(1.0, 0.0)
        prior = GridDistribution.uniform(phase.HET_SUPPORT, 4096)
        calc = bayes._SpreadCalculator(prior, strat, bayes._kernel_scratch(prior.nodes.size))
        rng = rng_for(15)
        napv = []
        for thetas in np.array_split(prior.sample(rng, draws), 40):
            outcomes = strat.sample_outcomes_given(np.repeat(thetas, n_rounds), rng)
            feats = summed_features(strat, outcomes.reshape(thetas.size, n_rounds))
            napv.append(n_rounds * calc.spreads(feats)[0])
        napv = np.concatenate(napv)
        assert abs(napv.mean() - 0.5) <= 4.0 * napv.std() / math.sqrt(draws)


@st.composite
def fold_cases(draw):
    """(strategy, flat prior on an even node count, real outcomes): the
    strategy's radial nodes and the radii of sampled outcomes."""
    strat = phase.HeterodynePhaseStrategy(draw(st.floats(0.1, 4.0)), draw(st.floats(0.0, 1.5)))
    prior = phase.flat_prior(phase.HET_SUPPORT, 2 * draw(st.integers(32, 1050)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    radial = strat.outcome_nodes(draw(st.integers(0, 2)))[0]
    sampled = strat.sample_outcomes_given(prior.sample(rng, draw(st.integers(1, 250))), rng)
    return strat, prior, np.concatenate([radial, np.abs(sampled)])


def kernel_columns(monkeypatch, rows=None):
    """Patch the kernel to record the node count of each call, and the
    call's outcome rows into ``rows`` when it is given."""
    cols = []
    reduce = bayes._SpreadCalculator._reduce

    def counting(feats, kernel, out, shift=None):
        cols.append(kernel[0].shape[1])
        if rows is not None:
            rows.append(feats.shape[0])
        return reduce(feats, kernel, out, shift)
    monkeypatch.setattr(bayes._SpreadCalculator, "_reduce", staticmethod(counting))
    return cols


def unfolded(strat):
    """The same strategy with its symmetry fact withheld: the full kernel
    on every row."""
    strat = copy.copy(strat)
    strat.phase_symmetric = False
    return strat


class TestPhaseFold:
    @settings(max_examples=60, deadline=None)
    @given(fold_cases())
    def test_folded_rows_match_the_dense_full_grid(self, case):
        strat, prior, outcomes = case
        calc = bayes._SpreadCalculator(prior, strat, bayes._kernel_scratch(prior.nodes.size))
        assert calc.symmetric
        v, z = spreads_at(calc, outcomes)
        v_ref, z_ref = dense_spreads(strat, prior, outcomes)
        seen = z_ref > 1e-280
        np.testing.assert_allclose(z[seen], z_ref[seen], rtol=1e-12)
        np.testing.assert_allclose(v[seen], v_ref[seen], rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("n,k", [(512, 256), (64, 32)])
    def test_folded_rows_match_the_polar_grid(self, n, k):
        # the polar grid's angles are -pi + (j + 1/2) 2pi/k; with n/k even
        # each is a whole number of prior steps, so the posterior at
        # rho e^{-i angle} is the one at rho moved along the grid, with the
        # same spread and evidence
        prior = phase.flat_prior(phase.HET_SUPPORT, n)
        scratch = bayes._kernel_scratch(n)
        for alpha, r in [(0.5, 0.0), (1.8, 1.0), (4.0, 1.25)]:
            radial = phase.HeterodynePhaseStrategy(alpha, r)
            polar = PolarHeterodyne(alpha, r, k)
            rho = radial.outcome_nodes(1)[0]
            v, z = spreads_at(bayes._SpreadCalculator(prior, radial, scratch), rho)
            v_p, z_p = spreads_at(bayes._SpreadCalculator(prior, polar, scratch),
                                  polar.outcome_nodes(1)[0].ravel())
            seen = np.broadcast_to(z > 1e-280, (k, rho.size)).ravel()
            np.testing.assert_allclose(z_p[seen], np.tile(z, k)[seen], rtol=1e-12)
            np.testing.assert_allclose(v_p[seen], np.tile(v, k)[seen], rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("n", [512, 2048])
    @pytest.mark.parametrize("alpha,r", [(0.5, 0.0), (1.0, 0.25), (2.0, 0.5), (4.0, 1.5)])
    def test_monte_carlo_radii_match_the_full_kernel(self, n, alpha, r):
        # the spread at |beta| on the folded kernel against the spread at
        # beta on the full one; they differ by the theta grid's aliasing
        # error, which is rounding here but shows on coarse grids (1e-3 at
        # 64 nodes, alpha = 4, r = 1.5); the rotated value is the one the
        # radial quadrature computes
        strat = phase.HeterodynePhaseStrategy(alpha, r)
        prior = phase.flat_prior(phase.HET_SUPPORT, n)
        rng = rng_for(18, n)
        betas = strat.sample_outcomes_given(prior.sample(rng, 2000), rng)
        scratch = bayes._kernel_scratch(n)
        v, _ = spreads_at(bayes._SpreadCalculator(prior, strat, scratch), np.abs(betas))
        v_full, _ = spreads_at(bayes._SpreadCalculator(prior, unfolded(strat), scratch), betas)
        assert np.max(np.abs(v - v_full)) <= 1e-13

    def test_monte_carlo_runs_on_the_radii_of_its_draws(self):
        strat = phase.HeterodynePhaseStrategy(1.5, 0.25)
        prior = phase.flat_prior(phase.HET_SUPPORT, 512)
        # one chunk of draws
        rng = rng_for(19)
        res = average_posterior_variance(strat, prior, method="montecarlo", samples=4000,
                                         rng=rng)
        replayed = rng_for(19)
        betas = theta_zero_draws(strat, replayed, 4000)
        calc = bayes._SpreadCalculator(prior, strat, bayes._kernel_scratch(512))
        v = spreads_at(calc, np.abs(betas))[0]
        assert res.value == pytest.approx(v.mean(), rel=1e-13)
        assert rng.bit_generator.state == replayed.bit_generator.state

    @pytest.mark.parametrize("alpha,r", [(0.5, 0.0), (1.0, 0.25), (1.5, 0.5), (2.0, 0.5)])
    def test_theta_zero_radii_have_the_law_of_the_prior_draws(self, alpha, r):
        # |beta| drawn from the theta = 0 law against |beta| of beta drawn
        # at theta ~ the flat 512-node prior: the mean and variance of
        # |beta| and the mean folded spread, within 4 combined SE
        strat = phase.HeterodynePhaseStrategy(alpha, r)
        prior = phase.flat_prior(phase.HET_SUPPORT, 512)
        size = 2**17
        rng = rng_for(40, round(100 * alpha), round(100 * r))
        direct = np.abs(theta_zero_draws(strat, rng, size))
        per_theta = np.abs(strat.sample_outcomes_given(prior.sample(rng, size), rng))
        calc = bayes._SpreadCalculator(phase.flat_prior(phase.HET_SUPPORT, 128), strat,
                                       bayes._kernel_scratch(128))

        def stats(rho):
            # (statistic, its standard error): the variance's from the
            # fourth central moment
            dev = rho - rho.mean()
            var = float((dev**2).mean())
            v = spreads_at(calc, rho)[0]
            return [(rho.mean(), math.sqrt(var / size)),
                    (var, math.sqrt(((dev**4).mean() - var**2) / size)),
                    (v.mean(), v.std() / math.sqrt(size))]
        for (a, sa), (b, sb) in zip(stats(direct), stats(per_theta)):
            assert abs(a - b) <= 4.0 * math.hypot(sa, sb)

    @pytest.mark.parametrize("alpha,r", [(0.5, 0.0), (1.5, 0.0), (1.0, 0.25), (2.0, 0.5)])
    def test_monte_carlo_on_the_theta_zero_law_meets_the_references(self, alpha, r):
        # the closed form at r = 0, the Bessel series at r > 0
        from gaussbayes.measurement import HETERODYNE
        task = phase.PhaseTask(ProbeSpec(alpha, r, math.pi if r > 0 else 0.0), HETERODYNE)
        res = phase.average_variance_numeric(task, method="montecarlo", samples=2**15,
                                             rng=rng_for(41, round(100 * alpha), round(100 * r)),
                                             grid_nodes=512)
        ref = (phase.coherent_het_average_variance(alpha) if r == 0.0
               else phase.squeezed_het_average_variance(alpha, r).value)
        assert abs(res.value - ref) <= 4.0 * res.std_error

    def test_cost_guard_folded_monte_carlo_draws_no_theta(self, monkeypatch,
                                                          cold_engine_grids):
        # an mc_phasehet-sized op: 8192 draws on a 512-node ceiling; no
        # theta drawn, no outcome drawn per theta, no ceiling grid built
        from gaussbayes.measurement import HETERODYNE
        calls, grids = [], []
        sample = GridDistribution.sample
        given_ = phase.HeterodynePhaseStrategy.sample_outcomes_given
        build = GridDistribution.from_function  # every prior grid's one builder
        monkeypatch.setattr(GridDistribution, "sample",
                            lambda *a: calls.append("sample") or sample(*a))
        monkeypatch.setattr(phase.HeterodynePhaseStrategy, "sample_outcomes_given",
                            lambda *a: calls.append("given") or given_(*a))
        monkeypatch.setattr(GridDistribution, "from_function",
                            lambda sup, fn, n, *a: grids.append(n) or build(sup, fn, n, *a))
        task = phase.PhaseTask(ProbeSpec(1.0, 0.25, math.pi), HETERODYNE)
        res = phase.average_variance_numeric(task, method="montecarlo", samples=8192,
                                             rng=rng_for(42), grid_nodes=512)
        assert calls == [] and res.samples == 8192
        assert grids == [64, 128] and res.prior_nodes == 128

    @pytest.mark.parametrize("case", ["non-flat", "odd", "hom-support", "legendre",
                                      "complex", "summed"])
    def test_other_rows_run_the_full_kernel_bitwise(self, case, monkeypatch):
        strat = phase.HeterodynePhaseStrategy(1.3, 0.6)
        prior = phase.flat_prior(phase.HET_SUPPORT, 512)
        outcomes = strat.outcome_nodes(1)[0]
        feats = strat.outcome_features(outcomes)
        if case == "non-flat":
            prior = GridDistribution.from_function(phase.HET_SUPPORT,
                                                   lambda t: np.exp(np.cos(t)), 512)
        elif case == "odd":
            prior = phase.flat_prior(phase.HET_SUPPORT, 511)
        elif case == "hom-support":
            prior = phase.flat_prior(phase.HOM_SUPPORT, 512)
        elif case == "legendre":
            prior = GridDistribution.uniform(phase.HET_SUPPORT, 512, bayes.GAUSS_LEGENDRE)
        else:
            rng = rng_for(20)
            outcomes = strat.sample_outcomes_given(prior.sample(rng, 3000), rng)
            feats = strat.outcome_features(outcomes)
            if case == "summed":
                # complex outcomes of four rounds per row, features summed
                feats = summed_features(strat, outcomes.reshape(-1, 4))
        scratch = bayes._kernel_scratch(prior.nodes.size)
        calc = bayes._SpreadCalculator(prior, strat, scratch)
        assert calc.symmetric == (case in ("complex", "summed"))
        cols = kernel_columns(monkeypatch)
        v, z = calc.spreads(feats)
        assert set(cols) == {prior.nodes.size}
        v_full, z_full = bayes._SpreadCalculator(prior, unfolded(strat), scratch).spreads(feats)
        np.testing.assert_array_equal(v, v_full)
        np.testing.assert_array_equal(z, z_full)

    @pytest.mark.parametrize("method", ["montecarlo", "quadrature"])
    def test_cost_guard_folded_rows_run_on_half_the_nodes(self, method, monkeypatch):
        # an mc_phasehet-sized op: 8192 draws on at most 512 nodes; and a
        # radial quadrature row on the prior counts it refines through
        from gaussbayes.measurement import HETERODYNE
        cols = kernel_columns(monkeypatch)
        task = phase.PhaseTask(ProbeSpec(1.0, 0.25, math.pi), HETERODYNE)
        res = phase.average_variance_numeric(task, method=method, samples=8192,
                                             rng=rng_for(21), grid_nodes=512)
        assert cols and set(cols) <= {n // 2 for n in (64, 128, 256, 512)}
        if method == "montecarlo":
            # the first chunk on 64 and 128 nodes, which agree
            assert res.prior_nodes == 128 and set(cols) == {32, 64}


def _direct_density(m, mean, cov):
    """gaussian_outcome_density as the direct formula, without the floor,
    and its exponent."""
    d = m - mean
    if not isinstance(cov, tuple):
        expo = -(d**2) / (2.0 * cov)
        return np.exp(expo) / np.sqrt(2.0 * math.pi * cov), expo
    vxx, vyy, vxy = cov
    det = vxx * vyy - vxy * vxy
    dx, dy = np.real(d), np.imag(d)
    expo = -0.5 * ((vyy * dx * dx - 2.0 * vxy * dx * dy + vxx * dy * dy) / det)
    return np.exp(expo) / (2.0 * math.pi * np.sqrt(det)), expo


class TestRadialRulePrior:
    """The radial outcome rule of ``HeterodynePhaseStrategy`` is exact only
    on a prior flat on the full circle; quadrature refuses any other."""

    # alpha = 1, r = 0 under the von Mises prior e^{2 cos theta}: the
    # conjugate value, int d^2 beta e^{-|beta|^2 - alpha^2} [I0(k') - I2(k')]
    # / (2 pi I0(2)) with k' = |2 + 2 alpha beta|, on a polar trapezoid
    # grid; the radial rule returned 0.438344 +- 2.3e-9 here
    VON_MISES_APV = 0.2351574

    @staticmethod
    def von_mises(t):
        return np.exp(2.0 * np.cos(t))

    @pytest.mark.parametrize("as_grid", [False, True])
    def test_von_mises_quadrature_raises(self, as_grid):
        strat = phase.HeterodynePhaseStrategy(1.0, 0.0)
        prior = bayes.PriorRule(phase.HET_SUPPORT, self.von_mises, 512)
        with pytest.raises(PriorSymmetryError, match="flat on the full circle"):
            average_posterior_variance(strat, prior.grid(512) if as_grid else prior)

    def test_von_mises_monte_carlo_draws_beta_in_the_plane(self):
        strat = phase.HeterodynePhaseStrategy(1.0, 0.0)
        prior = bayes.PriorRule(phase.HET_SUPPORT, self.von_mises, 512)
        res = average_posterior_variance(strat, prior, method="montecarlo", samples=20000,
                                         rng=rng_for(30))
        assert abs(res.value - self.VON_MISES_APV) <= 4.0 * res.std_error

    @pytest.mark.parametrize("prior", [
        bayes.PriorRule(Circle(0.0, 2.0 * math.pi), None, 512),
        bayes.PriorRule(phase.HOM_SUPPORT, None, 512),
        GridDistribution.from_function(Circle(-math.pi, math.pi), lambda t: 1.5 + np.sin(t), 64),
    ])
    def test_other_priors_raise(self, prior):
        with pytest.raises(PriorSymmetryError):
            average_posterior_variance(phase.HeterodynePhaseStrategy(1.0, 0.3), prior)

    def test_flat_rule_is_checked_without_nodes(self, monkeypatch):
        # a flat PriorRule passes on its fields alone: no grid is built,
        # no density evaluated
        def no_grid(*args, **kwargs):
            raise AssertionError("grid built")
        # every prior grid's one builder: PriorRule.grid and uniform call it
        monkeypatch.setattr(GridDistribution, "from_function", no_grid)
        for rule in (None, bayes.GAUSS_LEGENDRE):
            assert bayes._flat_full_circle(bayes.PriorRule(phase.HET_SUPPORT, None, 2048, rule))
        assert not bayes._flat_full_circle(
            bayes.PriorRule(phase.HET_SUPPORT, self.von_mises, 2048))

    def test_flat_priors_run(self):
        # every prior the phase tasks build: flat grids and rules on the
        # full circle, on either rule
        strat = phase.HeterodynePhaseStrategy(1.0, 0.3)
        want = average_posterior_variance(strat, phase.flat_prior(phase.HET_SUPPORT, 256))
        got = average_posterior_variance(
            strat, GridDistribution.from_function(phase.HET_SUPPORT, np.ones_like, 256))
        assert got == want
        average_posterior_variance(strat, bayes.PriorRule(phase.HET_SUPPORT, None, 512,
                                                          bayes.GAUSS_LEGENDRE))

    def test_other_strategies_take_any_prior(self):
        strat = phase.HomodynePhaseStrategy(1.0, 0.0)
        prior = bayes.PriorRule(phase.HOM_SUPPORT, lambda t: np.exp(np.cos(2.0 * t)), 512,
                                bayes.GAUSS_LEGENDRE)
        assert 0.0 < average_posterior_variance(strat, prior).value < 0.5


class TestOutcomeDensity:
    @pytest.mark.parametrize("het", [False, True])
    def test_zero_past_the_floor_and_the_direct_formula_elsewhere(self, het):
        rng = rng_for(16)
        if het:
            m = 45.0 * (rng.standard_normal(4000) + 1j * rng.standard_normal(4000))
            mean, cov = 0.3 - 0.2j, (0.9, 0.4, 0.25)
        else:
            m, mean, cov = np.linspace(-60.0, 60.0, 4001), 0.7, 1.3
        want, expo = _direct_density(m, mean, cov)
        got = bayes.gaussian_outcome_density(m, mean, cov)
        past = expo < bayes._LOG_FLOOR
        assert 0 < past.sum() < past.size
        assert np.all(got[past] == 0.0) and not np.any(np.signbit(got[past]))
        np.testing.assert_array_equal(got[~past], want[~past])
        for k in rng.choice(m.size, 300, replace=False):
            one = bayes.gaussian_outcome_density(m[k].item(), mean, cov)
            assert np.ndim(one) == 0
            assert one == (0.0 if past[k] else _direct_density(m[k].item(), mean, cov)[0])

    @pytest.mark.parametrize("het", [False, True])
    def test_moments_broadcast_over_theta(self, het):
        # one outcome against a grid of moments, as the likelihoods call it
        thetas = np.linspace(-3.0, 3.0, 301)
        if het:
            strat = phase.HeterodynePhaseStrategy(40.0, 0.4)
        else:
            strat = phase.HomodynePhaseStrategy(40.0, 0.4, 0.3)
        mean, cov = strat.outcome_moments(thetas)
        m = mean[200].item() + 0.3  # likely near theta = 1, past the floor far away
        want, expo = _direct_density(m, mean, cov)
        got = bayes.gaussian_outcome_density(m, mean, cov)
        past = expo < bayes._LOG_FLOOR
        assert 0 < past.sum() < past.size
        assert np.all(got[past] == 0.0)
        np.testing.assert_array_equal(got[~past], want[~past])

    def test_outcome_past_the_floor_at_every_node_has_zero_evidence(self):
        # exponents in (-745, -707) still have a subnormal exp, but the
        # floored density is 0.0 there, so the update has nothing to keep
        prior = GridDistribution.uniform(Interval(-1.0, 1.0), 201)

        def like(t, m):
            return bayes.gaussian_outcome_density(m, t, 0.5)
        far = 1.0 + 27.0  # exponent -729 at the nearest node
        assert _direct_density(far, 1.0, 0.5)[0] > 0.0
        assert bayes.evidence(prior, like, far) == 0.0
        with pytest.raises(InconsistentOutcomeError):
            bayes.grid_update(prior, like, far)
        near = 1.0 + 26.0  # exponent -676: a posterior piled on the last node
        post = bayes.grid_update(prior, like, near)
        assert np.argmax(post.density) == prior.nodes.size - 1


def traced_peak(fn) -> int:
    """Peak bytes traced while ``fn`` runs, after one warm-up call."""
    fn()
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()


class TestAllocationGuard:
    # peak bytes allocated per call, in units of one N-length float array;
    # counted, not timed, so the bound is the same on every machine.  Each
    # N-length temporary of these sizes is 2.4 MB of fresh pages whenever
    # the allocator has given the last one back
    N = 300_000

    def test_grid_update_and_estimators(self):
        grid = GridDistribution.from_gaussian(GaussianPrior(0.3, 1.2), self.N, 10.0)
        like = gaussian_like(0.5)

        def op():
            post = bayes.grid_update(grid, like, 0.9)
            return bayes.variance_mse(post, bayes.mean_estimator(post))
        # the likelihood's own two arrays, then the posterior beside its
        # likelihood and the variance's one temporary
        assert traced_peak(op) <= 2.5 * 8 * self.N

    def test_grid_update_and_estimators_build_no_weights(self, monkeypatch):
        rule = bayes.PriorRule.gaussian(GaussianPrior(0.3, 1.2), 2001)
        grids = [rule.grid(n, r) for n, r in [(2001, bayes.TRAPEZOID), (2000, bayes.MIDPOINT),
                                               (65, bayes.GAUSS_LEGENDRE)]]

        def no_weights(lo, hi, n):
            raise AssertionError("a weights array was built")
        # Gauss-Legendre may read its cached weights; the one-step rules
        # must build none
        for r in (bayes.MIDPOINT, bayes.TRAPEZOID):
            monkeypatch.setitem(bayes._RULES, r, (no_weights, bayes._RULES[r][1]))
        for grid in grids:
            post = bayes.grid_update(grid, gaussian_like(0.5), 0.9)
            assert bayes.variance_mse(post, bayes.mean_estimator(post)) > 0.0

    def test_homodyne_density(self):
        st = ps.squeeze(ps.vacuum(), 1.0, 0.0)
        q = np.linspace(-56.0, 56.0, self.N)  # more than half past the floor
        # the result and the floor's boolean mask
        assert traced_peak(lambda: meas.homodyne_density(st, q, 0.3)) <= 1.25 * 8 * self.N

    def test_one_kernel_buffer_per_engine_call(self, monkeypatch):
        strat = disp.HomodyneQuadratureStrategy(0.7, 0.2)
        rule = bayes.PriorRule.gaussian(strat.prior, bayes.LINEAR_GRID_NODES, 8.0)
        # the same prior on the midpoint rule, whose counts do not nest
        mid = bayes.PriorRule(rule.support, rule.density, 2000, bayes.MIDPOINT)
        per_count = [[average_posterior_variance(strat, r.grid(n, r.rule), rel_tol=1e-6)
                      for n in r.counts()] for r in (rule, mid)]
        made = []
        scratch = bayes._kernel_scratch

        def counting(*counts):
            made.append(counts)
            return scratch(*counts)
        monkeypatch.setattr(bayes, "_kernel_scratch", counting)
        got = []
        for r, values in zip((rule, mid), per_count):
            made.clear()
            res = average_posterior_variance(strat, r, rel_tol=1e-6)
            assert len(made) == 1 and res.prior_nodes > 65
            want = next(w for w in values if w.prior_nodes == res.prior_nodes)
            assert res.levels == want.levels
            got.append((res, want))
        # the value of its own count's grid on a buffer of its own: to
        # rounding where the count nests on the one before, whose moment
        # sums it adds in another order, and bitwise where it does not
        (res, want), (res_mid, want_mid) = got
        assert res.value == pytest.approx(want.value, rel=1e-14)
        assert res_mid.value == want_mid.value


# ---------------------------------------------------------------------------
# nested outcome nodes: the step-halving driver evaluates each node once


def _engine_row(kind):
    """One quadrature row per strategy: (strategy, prior grid)."""
    if kind == "het":
        return phase.HeterodynePhaseStrategy(1.8, 1.0), phase.flat_prior(phase.HET_SUPPORT, 256)
    if kind == "het_full":
        strat = PolarHeterodyne(1.0, 0.3, 16)
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
    (extrapolated value, its quoted error, levels).  The error is
    |T_1 - T_0|/3 at level 1 and the gap between successive extrapolated
    values from level 2 on."""
    prev = prev_ext = None
    for level in range(max_level + 1):
        value = level_value(level)
        if prev is not None:
            ext = value + (value - prev) / 3.0
            err = abs(value - prev) / 3.0 if prev_ext is None else abs(ext - prev_ext)
            if err <= max(rel_tol * abs(value), 1e-300):
                return ext, err, level + 1
            prev_ext = ext
        prev = value
    raise AssertionError("no convergence")


def level_by_level_driver(rule, integrand, rel_tol, max_level):
    """The step-halving driver that calls ``integrand`` once per level,
    level 0 first, each level on its odd points only."""
    prev = prev_points = prev_values = best = None
    for level in range(max_level + 1):
        points, weights = rule(level)
        if prev_values is None:
            values = integrand(points)
        else:
            assert np.array_equal(points[..., 0::2], prev_points)
            values = np.empty(points.shape)
            values[..., 0::2] = prev_values
            values[..., 1::2] = integrand(points[..., 1::2])
        value = float(weights.ravel() @ values.ravel())
        if prev is not None:
            delta = value - prev
            extrapolated = value + delta / 3.0
            err = abs(delta) / 3.0 if best is None else abs(extrapolated - best.value)
            best = bayes.AverageVariance(extrapolated, err, "quadrature", levels=level + 1)
            if err <= max(rel_tol * abs(value), 1e-300):
                return best
        prev, prev_points, prev_values = value, points, values
    raise AssertionError("no convergence")


def series_integrand(alpha, r):
    """The squeezed-heterodyne series' radial integrand, written from the
    Bessel rows: rho e^{-(1-t)(rho-alpha)^2} s(rho) / cosh r."""
    n_max = phase._sh_cutoff(alpha, r, phase._sh_radial_extent(alpha, r))
    t = math.tanh(r)

    def integrand(rho):
        rows_u, rows_v = phase._sh_rows(alpha, r, rho, n_max)
        s = (0.5 * phase._sh_terms(rows_u, rows_v, n_max)[1]).sum(axis=1)
        return rho * np.exp(-(1.0 - t) * (rho - alpha) ** 2) * s / math.cosh(r)
    return integrand


def uniform_radial_rule(alpha, r, base, level):
    """The oracle of ``phase._radial_rule``: the trapezoid rule uniform in
    the radius on [0, extent], ``base`` level-0 steps per 8 units of
    radius.  An integrand rho f(rho) leaves it h^2 and h^4 errors from
    rho = 0, so it converges slowly but shares no node map with the rule
    it checks."""
    extent = phase._sh_radial_extent(alpha, r)
    return bayes.trapezoid(0.0, extent, base * max(1, math.ceil(extent / 8.0)) * 2**level + 1)


def _levels(result):
    return result.levels


class TestNestedOutcomeNodes:
    @pytest.mark.parametrize("kind", KINDS)
    def test_strategy_rules_are_nested(self, kind):
        # along the last axis, the one the driver halves
        strat, _ = _engine_row(kind)
        for level in range(5):
            coarse = strat.outcome_nodes(level)[0]
            fine = strat.outcome_nodes(level + 1)[0]
            assert np.array_equal(fine[..., 0::2], coarse)

    @pytest.mark.parametrize("alpha,r", [(0.3, 0.0), (1.8, 1.0), (4.0, 1.25)])
    def test_radial_rule_is_nested(self, alpha, r):
        for level in range(5):
            coarse = phase._radial_rule(alpha, r, phase._RADIAL_BASE, level)[0]
            fine = phase._radial_rule(alpha, r, phase._RADIAL_BASE, level + 1)[0]
            assert np.array_equal(fine[0::2], coarse)

    @pytest.mark.parametrize("kind", KINDS)
    def test_engine_matches_full_reevaluation(self, kind):
        strat, prior = _engine_row(kind)
        calc = bayes._SpreadCalculator(prior, strat, bayes._kernel_scratch(prior.nodes.size))

        def level_value(level):
            outcomes, weights = strat.outcome_nodes(level)
            v, z = spreads_at(calc, outcomes.ravel())
            return float(weights.ravel() @ (z * v))
        want, err, levels = full_reevaluation(level_value, 1e-6, 5)
        got = average_posterior_variance(strat, prior)
        assert got.value == pytest.approx(want, rel=1e-14)
        assert abs(got.std_error - err) <= 1e-14 * abs(want)
        assert _levels(got) == levels

    def test_series_matches_full_reevaluation(self):
        alpha, r = 1.8, 1.0
        integrand = series_integrand(alpha, r)

        def level_value(level):
            rho, w = phase._radial_rule(alpha, r, phase._RADIAL_BASE, level)
            return float(w @ integrand(rho))
        want, err, levels = full_reevaluation(level_value, 1e-6, 4)
        got = phase.squeezed_het_average_variance(alpha, r)
        assert got.value == pytest.approx(want, rel=1e-14)
        assert abs(got.std_error - err) <= 1e-14 * abs(want)
        assert (got.levels, got.method) == (levels, "series")

    @pytest.mark.parametrize("alpha,r", [(1.8, 1.0), (0.345, 1.0), (1.0, 0.25)])
    def test_series_lays_the_engine_radii(self, alpha, r, monkeypatch):
        rules = []
        driver = phase._quadrature_outcome_grid

        def recording(rule, integrand, rel_tol, max_level):
            rules.append(rule)
            return driver(rule, integrand, rel_tol, max_level)
        monkeypatch.setattr(phase, "_quadrature_outcome_grid", recording)
        phase.squeezed_het_average_variance(alpha, r)
        strat = phase.HeterodynePhaseStrategy(alpha, r)
        for level in range(3):
            rho = rules[0](level)[0]
            nodes = strat.outcome_nodes(level)[0]
            assert np.array_equal(nodes.real, rho) and not nodes.imag.any()

    @pytest.mark.parametrize("alpha,r", [(1.8, 1.0), (0.345, 1.0), (1.0, 0.25)])
    def test_series_error_covers_the_fine_rule(self, alpha, r):
        # reference: the same series on the 4x finer base-512 rule, driven
        # to a gap of 1e-12 relative; both sit near rounding, so the bound
        # takes the rounding floor of 1e-13 relative
        fine = bayes._quadrature_outcome_grid(
            lambda level: phase._radial_rule(alpha, r, 512, level),
            series_integrand(alpha, r), 1e-12, 6)
        got = phase.squeezed_het_average_variance(alpha, r)
        assert abs(got.value - fine.value) <= got.std_error + 1e-13 * abs(fine.value)

    @pytest.mark.parametrize("kind", KINDS)
    def test_each_outcome_node_is_evaluated_once(self, kind, monkeypatch):
        # cost guard: the kernel sees exactly the nodes of the finest level,
        # level 1's whole grid in the first call
        strat, prior = _engine_row(kind)
        rows = []
        spreads = bayes._SpreadCalculator.spreads

        def counting(calc, feats):
            rows.append(len(feats))
            return spreads(calc, feats)
        monkeypatch.setattr(bayes._SpreadCalculator, "spreads", counting)
        levels = _levels(average_posterior_variance(strat, prior))
        assert levels >= 2
        assert len(rows) == levels - 1
        assert sum(rows) == strat.outcome_nodes(levels - 1)[0].size

    @pytest.mark.parametrize("n,s", [(0.0, 0.0), (0.25, 0.25), (4.0, 1.0)])
    def test_cost_guard_squeeze_one_rule_per_level(self, n, s, monkeypatch):
        # cost guard: a Squeeze level is one trapezoid rule of 256 2^k + 1
        # outcome nodes, not two laid end to end, and each node of the
        # finest level has its features made once, for every prior count
        strat, rule = _squeeze_rule(n, s)
        shapes, made = [], []
        nodes, features = strat.outcome_nodes, strat.outcome_features

        def recording(level):
            q, w = nodes(level)
            shapes.append((q.shape, w.shape))
            return q, w
        monkeypatch.setattr(strat, "outcome_nodes", recording)
        monkeypatch.setattr(strat, "outcome_features",
                            lambda outcomes: made.append(outcomes.size) or features(outcomes))
        res = average_posterior_variance(strat, rule, rel_tol=1e-5)
        assert res.levels >= 2
        assert shapes == [((256 * 2**k + 1,),) * 2 for k in range(res.levels)]
        assert len(made) == res.levels - 1 and sum(made) == 256 * 2**(res.levels - 1) + 1

    @pytest.mark.parametrize("alpha,r", [(1.0, 0.25), (1.8, 1.0)])
    def test_phase_het_row_stops_at_level_1(self, alpha, r, monkeypatch):
        # cost guard: a PhaseHet row stops on the gap between levels 0 and
        # 1, and on every prior count the kernel sees exactly the outcome
        # nodes of level 1, in one call
        from gaussbayes.measurement import HETERODYNE
        rows = {}
        spreads = bayes._SpreadCalculator.spreads

        def counting(calc, feats):
            rows.setdefault(calc._prior.nodes.size, []).append(len(feats))
            return spreads(calc, feats)
        monkeypatch.setattr(bayes._SpreadCalculator, "spreads", counting)
        task = phase.PhaseTask(ProbeSpec(alpha, r, math.pi), HETERODYNE)
        got = phase.average_variance_numeric(task)
        assert got.levels == 2
        assert len(rows) >= 2 and max(rows) == got.prior_nodes
        level_1 = phase.task_strategy(task).outcome_nodes(1)[0].size
        assert all(sent == [level_1] for sent in rows.values())

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
        assert sum(radii) == 2 * phase._radial_rule(1.8, 1.0, phase._RADIAL_BASE, 1)[0].size

    def test_series_row_sends_the_level_1_radii(self, monkeypatch):
        # cost guard: a series row stops at level 1, and the Bessel rows
        # see each radius of that level once, one u and one v argument,
        # in one recurrence pass
        from gaussbayes import harness, specfun
        radii = []
        rows = specfun.bessel_i_scaled_rows

        def counting(x, nmax):
            radii.append(np.size(x))
            return rows(x, nmax)
        monkeypatch.setattr(specfun, "bessel_i_scaled_rows", counting)
        rec = harness.run(harness.parse_config("task = PhaseHet\nalpha = 1.8\nr = 1.0"))[0]
        assert (rec.status, rec.method) == ("ok", "series")
        assert radii == [2 * phase._radial_rule(1.8, 1.0, phase._RADIAL_BASE, 1)[0].size]

    @pytest.mark.parametrize("rule,level", [
        # nodes that move, a node count that is not 2n - 1, and a rule that
        # nests at level 1 only
        (lambda level: bayes.trapezoid(0.0, 1.0 + level, 4 * 2**level + 1), 1),
        (lambda level: bayes.trapezoid(0.0, 1.0, 4 * 2**level + 2), 1),
        (lambda level: bayes.trapezoid(0.0, 1.0 + (level > 1), 4 * 2**level + 1), 2),
    ])
    def test_non_nested_rule_raises(self, rule, level):
        calls = []

        def integrand(points):
            calls.append(points)
            return np.square(points)
        with pytest.raises(RuntimeError, match=f"not nested at level {level}") as err:
            bayes._quadrature_outcome_grid(rule, integrand, 1e-12, 3)
        assert not isinstance(err.value, (ValueError, ToleranceError))
        # checked on every level, before the integrand call that needs it
        assert len(calls) == level - 1

    def test_non_nested_rule_is_not_a_row_status(self, monkeypatch):
        from gaussbayes import harness
        nodes = sq.SqueezeStrategy._nodes

        def moving(strat, level):
            # nodes that move with the level: not nested
            q, w = nodes(strat, level)
            return q * (1.0 + level), w
        monkeypatch.setattr(sq.SqueezeStrategy, "_nodes", moving)
        cfg = harness.parse_config("task = Squeeze\nalpha = 0.5\nsigma0sq = 1")
        with pytest.raises(RuntimeError, match="not nested"):
            harness.run(cfg)

    def test_short_series_cutoff_still_raises(self, monkeypatch):
        monkeypatch.setattr(phase, "_sh_cutoff", lambda alpha, r, rho_max: 1)
        with pytest.raises(phase.TruncationError):
            phase.squeezed_het_average_variance(2.0, 0.75)


def two_row_rule(level):
    """Two trapezoid rules of different lengths laid as rows."""
    nodes, weights = zip(*(bayes.trapezoid(lo, hi, 4 * 2**level + 1)
                           for lo, hi in ((0.0, 1.0), (-1.0, 2.0))))
    return np.stack(nodes), np.stack(weights)


class TestLinearOutcomeRule:
    # 0.4 * 2.5 is 1.0 to the bit, so a span of 128 is exactly 0.4 sd per
    # step at 128 nodes
    @pytest.mark.parametrize("span,n0", [(128.0, 128), (128.5, 256), (256.0, 256),
                                         (257.0, 512), (512.0, 512), (1e4, 512)])
    def test_first_base_whose_step_is_at_most_0_4_sd(self, span, n0):
        rule = bayes._linear_outcome_rule(-1.0, span - 1.0, 2.5)
        for level in range(3):
            points, weights = rule(level)
            assert points.size == n0 * 2**level + 1
            assert (points[0], points[-1]) == (-1.0, span - 1.0)
            assert np.array_equal((points, weights), bayes.trapezoid(-1.0, span - 1.0,
                                                                     points.size))


class TestOutcomeDriver:
    def recording(self, calls):
        def integrand(points):
            calls.append(points.copy())
            return np.exp(points)
        return integrand

    def test_first_call_gets_level_1_whole(self):
        calls = []
        res = bayes._quadrature_outcome_grid(two_row_rule, self.recording(calls), 1e-10, 8)
        assert np.array_equal(calls[0], two_row_rule(1)[0])
        for level, points in enumerate(calls[1:], start=2):
            assert np.array_equal(points, two_row_rule(level)[0][:, 1::2])
        assert res.levels >= 4

    @pytest.mark.parametrize("rel_tol", [1e-2, 1e-6, 1e-10])
    def test_integrand_runs_levels_minus_one_times(self, rel_tol):
        calls = []
        res = bayes._quadrature_outcome_grid(two_row_rule, self.recording(calls), rel_tol, 8)
        assert len(calls) == res.levels - 1
        # each point of the finest level once
        assert sum(c.size for c in calls) == two_row_rule(res.levels - 1)[0].size

    def test_level_0_alone_raises_with_its_sum(self):
        calls = []
        with pytest.raises(ToleranceError, match="level 0") as err:
            bayes._quadrature_outcome_grid(two_row_rule, self.recording(calls), 1e-10, 0)
        points, weights = two_row_rule(0)
        assert len(calls) == 1 and np.array_equal(calls[0], points)
        assert err.value.estimate == float(weights.ravel() @ np.exp(points).ravel())
        assert err.value.std_error is None

    @pytest.mark.parametrize("kind", KINDS)
    def test_engine_equals_the_level_by_level_driver(self, kind, monkeypatch):
        strat, prior = _engine_row(kind)
        got = average_posterior_variance(strat, prior)
        monkeypatch.setattr(bayes, "_quadrature_outcome_grid", level_by_level_driver)
        want = average_posterior_variance(strat, prior)
        assert got.levels == want.levels
        # the kernel's BLAS products round a row by its place in the block,
        # so level 0's rows read inside level 1's call and alone may differ
        # in the last bits (2 of 129 disp_hom rows, in v)
        tol = 4.0 * np.finfo(float).eps * abs(want.value)
        assert abs(got.value - want.value) <= tol
        assert abs(got.std_error - want.std_error) <= tol

    @pytest.mark.parametrize("alpha,r", [(1.8, 1.0), (1.0, 0.25)])
    def test_series_equals_the_level_by_level_driver(self, alpha, r, monkeypatch):
        got = phase.squeezed_het_average_variance(alpha, r)
        monkeypatch.setattr(phase, "_quadrature_outcome_grid", level_by_level_driver)
        want = phase.squeezed_het_average_variance(alpha, r)
        assert (got.value, got.std_error, got.levels) == (want.value, want.std_error, want.levels)


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
    # a row whose raw |delta|/3 is 280x the real error of its returned value
    ("PhaseHet", dict(alpha=1.8, r=1.0)),
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

        def counting(calc, feats):
            cells.append(len(feats) * calc.moments.shape[0])
            return spreads(calc, feats)
        monkeypatch.setattr(bayes._SpreadCalculator, "spreads", counting)
        got, parts = _task_engine(task, p)
        refined = sum(cells)
        assert got.prior_nodes <= 256
        cells.clear()
        for strat, rule in parts:
            average_posterior_variance(strat, rule.grid(rule.max_nodes))
        assert refined < sum(cells) / 4

    def test_cost_guard_one_rule_and_features_per_level(self, monkeypatch):
        # the Squeeze row (s = 1, n = 4) runs its outcome levels on three
        # counts: each level's rule and features are made once, for all
        strat, rule = _squeeze_rule(4.0, 1.0)
        made = []
        nodes, features = strat.outcome_nodes, strat.outcome_features
        monkeypatch.setattr(strat, "outcome_nodes",
                            lambda level: made.append("rule") or nodes(level))
        monkeypatch.setattr(strat, "outcome_features",
                            lambda outcomes: made.append("features") or features(outcomes))
        cols = kernel_columns(monkeypatch)
        res = average_posterior_variance(strat, rule, rel_tol=1e-5)
        # the 129- and 257-node counts nest on the count before and run
        # their odd nodes only, 64 and 128 kernel columns; each count's
        # first call takes levels 0 and 1 at once
        assert cols == [65, 64, 128] and (res.prior_nodes, res.levels) == (257, 2)
        assert made == ["rule", "rule", "features"]

    @pytest.mark.parametrize("task,p,counts", [
        # the Squeeze row above, and a PhaseHom row
        ("Squeeze", dict(n=4.0, s=1.0, r0=-0.5, sigma0sq=1.0), 3),
        ("PhaseHom", dict(alpha=1.5, r=0.3, psi=math.pi / 2), 2),
    ])
    def test_cost_guard_coefficients_once_per_count_and_finish_once_per_spreads(
            self, task, p, counts, monkeypatch):
        # each count makes its node coefficients once, a nested count on
        # its odd nodes only, and finishes each reduction once
        made, nodes = [], []

        def counting(owner, name):
            method = getattr(owner, name)

            def wrapper(*args, **kwargs):
                made.append(name)
                return method(*args, **kwargs)
            monkeypatch.setattr(owner, name, wrapper)
        counting(bayes._SpreadCalculator, "__init__")
        counting(bayes._SpreadCalculator, "spreads")
        counting(bayes._SpreadCalculator, "finish")
        coefficients = bayes.GaussianOutcomeStrategy.node_coefficients
        monkeypatch.setattr(bayes.GaussianOutcomeStrategy, "node_coefficients",
                            lambda strat, thetas: nodes.append(np.size(thetas))
                            or coefficients(strat, thetas))
        _task_engine(task, p)
        if task == "Squeeze":
            # each SqueezeStrategy checks the coefficients at its support's
            # two ends; the engine's and the one _task_engine returns
            assert nodes[:1] == [2] and nodes.count(2) == 2
            nodes.remove(2)
            nodes.remove(2)
            assert nodes == [65, 64, 128]
        else:
            assert nodes == [64, 128]  # Gauss-Legendre counts never nest
        assert made.count("__init__") == counts
        # each count stops at level 1, in one spreads call
        assert made.count("spreads") == made.count("finish") == counts

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
        # theta comes from the rule's grid of max_nodes nodes, whatever
        # count the engine integrates the posteriors on
        strat = disp.HomodyneQuadratureStrategy(0.7, 0.2)
        rule = bayes.PriorRule.gaussian(strat.prior, 301, 8.0)
        rng = rng_for(14)
        got = average_posterior_variance(strat, rule, method="montecarlo", samples=5000,
                                         rng=rng)
        v, _, replayed = replay_monte_carlo(strat, rule, 5000, got.prior_nodes, rng_for(14))
        assert got.value == pytest.approx(v.mean(), rel=1e-13)
        assert rng.bit_generator.state == replayed.bit_generator.state
        assert (got.prior_nodes, got.samples, got.levels) == (129, 5000, 0)


def theta_zero_draws(strat, rng, size):
    """``size`` outcomes of the theta = 0 law: mean + L z, written out."""
    mean, (vxx, vyy, vxy) = strat.outcome_moments(0.0)
    z = rng.standard_normal((size, 2))
    l11 = math.sqrt(vxx)
    l21 = vxy / l11
    return mean + l11 * z[:, 0] + 1j * (l21 * z[:, 0] + math.sqrt(vyy - l21 * l21) * z[:, 1])


def replay_monte_carlo(strat, rule, samples, nodes, rng, folded=False):
    """The engine's Monte Carlo draws, made here: theta from the rule's
    ceiling grid on the support's own rule, in the engine's chunks, and
    one outcome per theta, or, ``folded``, no theta and the outcomes of
    the theta = 0 law; then each draw's posterior spread on
    ``rule.grid(nodes)``, at |beta| where that grid folds.
    Returns the spreads, the thetas (None when ``folded``) and the
    generator after the draws."""
    draw = rule.grid(rule.max_nodes, bayes._default_rule(rule.support))
    calc = bayes._SpreadCalculator(rule.grid(nodes), strat,
                                   bayes._kernel_scratch(nodes))
    vs, ts = [], []
    for start in range(0, samples, bayes._MC_CHUNK):
        size = min(bayes._MC_CHUNK, samples - start)
        if folded:
            outcomes = theta_zero_draws(strat, rng, size)
        else:
            ts.append(draw.sample(rng, size))
            outcomes = strat.sample_outcomes_given(ts[-1], rng)
        vs.append(spreads_at(calc, np.abs(outcomes) if calc.symmetric else outcomes)[0])
    return np.concatenate(vs), np.concatenate(ts) if ts else None, rng


def _squeeze_rule(n, s, grid_nodes=bayes.LINEAR_GRID_NODES):
    """(strategy, prior rule) of a Squeeze row at prior N(-0.5, 1)."""
    task = sq.SqueezeTask(ProbeSpec(math.sqrt(n - math.sinh(s) ** 2), s, 0.0),
                          GaussianPrior(-0.5, 1.0), grid_nodes=grid_nodes)
    rule = task.prior_rule()
    return sq.SqueezeStrategy(task.probe, rule.support), rule


# (strategy, prior rule, rel_tol) of each task family's Monte Carlo rows:
# the entry points' rules and tolerances
MC_CASES = {
    "Squeeze": lambda: (*_squeeze_rule(3.0, 0.5), 1e-5),
    "PhaseHet-folded": lambda: (phase.HeterodynePhaseStrategy(1.5, 0.25),
                                bayes.PriorRule(phase.HET_SUPPORT, None, 2048), 1e-6),
    # PhaseHet rules whose grids do not all fold: their draws keep theta
    "PhaseHet-odd": lambda: (phase.HeterodynePhaseStrategy(1.5, 0.25),
                             bayes.PriorRule(phase.HET_SUPPORT, None, 2047), 1e-6),
    "PhaseHet-legendre": lambda: (phase.HeterodynePhaseStrategy(1.5, 0.25),
                                  bayes.PriorRule(phase.HET_SUPPORT, None, 2048,
                                                  bayes.GAUSS_LEGENDRE), 1e-6),
    "PhaseHet-non-flat": lambda: (phase.HeterodynePhaseStrategy(1.5, 0.25),
                                  bayes.PriorRule(phase.HET_SUPPORT,
                                                  lambda t: np.exp(np.cos(t)), 2048), 1e-6),
    "PhaseHom": lambda: (phase.HomodynePhaseStrategy(1.0, 0.5, math.pi / 2),
                         bayes.PriorRule(phase.HOM_SUPPORT, None, 2048, bayes.GAUSS_LEGENDRE),
                         1e-6),
    "DisplacementHet": lambda: (
        disp.HeterodyneCoordinateStrategy(0.5, 0.3, "R"),
        bayes.PriorRule.gaussian(GaussianPrior(0.0, 0.5), bayes.LINEAR_GRID_NODES, 8.0), 1e-6),
}


# the cases on which every count folds: their draws are the theta = 0 law's
FOLDED = {"PhaseHet-folded"}


class TestMonteCarloNodeCount:
    @pytest.mark.parametrize("case", list(MC_CASES))
    def test_draws_are_the_ceiling_grids(self, case, monkeypatch):
        # every theta drawn bitwise from the ceiling grid on the support's
        # own rule, once per chunk (none where every count folds), the
        # generator left where those draws and the outcomes leave it, and
        # the posteriors integrated on the chosen count of the rule's own
        # quadrature
        strat, rule, rel_tol = MC_CASES[case]()
        drawn = []
        sample = GridDistribution.sample
        monkeypatch.setattr(GridDistribution, "sample",
                            lambda grid, rng, size: drawn.append(sample(grid, rng, size))
                            or drawn[-1])
        rng = rng_for(22)
        res = average_posterior_variance(strat, rule, method="montecarlo", samples=6000,
                                         rng=rng, rel_tol=rel_tol)
        monkeypatch.undo()
        assert res.prior_nodes in set(rule.counts()) - {next(rule.counts())}
        v, thetas, replayed = replay_monte_carlo(strat, rule, 6000, res.prior_nodes,
                                                 rng_for(22), folded=case in FOLDED)
        if case in FOLDED:
            assert drawn == [] and thetas is None
        else:
            assert len(drawn) == 2
            np.testing.assert_array_equal(np.concatenate(drawn), thetas)
        assert res.value == pytest.approx(v.mean(), rel=1e-13)
        assert rng.bit_generator.state == replayed.bit_generator.state
        assert (res.samples, res.levels) == (6000, 0)

    @pytest.mark.parametrize("case", list(MC_CASES))
    def test_value_within_rel_tol_of_the_ceiling(self, case):
        # the same draws integrated on the ceiling count of the rule's own
        # quadrature: Gauss-Legendre on [0, pi), where the midpoint grid
        # the draws come from is second order
        strat, rule, rel_tol = MC_CASES[case]()
        res = average_posterior_variance(strat, rule, method="montecarlo", samples=6000,
                                         rng=rng_for(23), rel_tol=rel_tol)
        v = replay_monte_carlo(strat, rule, 6000, rule.max_nodes, rng_for(23),
                               folded=case in FOLDED)[0]
        assert abs(res.value - v.mean()) <= rel_tol * abs(res.value)

    def test_no_agreement_falls_back_to_the_ceiling(self):
        # s = 1, n = 4 needs 257 nodes: at a 129-node ceiling no two
        # counts agree, and the engine runs on the ceiling grid, as a
        # ceiling-grid prior does, and adds the last gap
        strat, rule = _squeeze_rule(4.0, 1.0, grid_nodes=129)
        res = average_posterior_variance(strat, rule, method="montecarlo", samples=8192,
                                         rng=rng_for(24), rel_tol=1e-5)
        want = average_posterior_variance(strat, rule.grid(129), method="montecarlo",
                                          samples=8192, rng=rng_for(24), rel_tol=1e-5)
        # 129 nodes nest on 65: the moment sums are added in another order
        assert res.value == pytest.approx(want.value, rel=1e-14) and res.prior_nodes == 129
        means = [replay_monte_carlo(strat, rule, bayes._MC_CHUNK, n, rng_for(24))[0].mean()
                 for n in (65, 129)]
        gap = abs(means[1] - means[0])
        assert gap > 1e-5 * abs(means[1])
        assert res.std_error >= want.std_error + gap - 1e-14 * abs(want.value)
        # a 128-node ceiling does not nest on 65: its grid's value bit for bit
        strat, rule = _squeeze_rule(4.0, 1.0, grid_nodes=128)
        res = average_posterior_variance(strat, rule, method="montecarlo", samples=8192,
                                         rng=rng_for(24), rel_tol=1e-5)
        want = average_posterior_variance(strat, rule.grid(128), method="montecarlo",
                                          samples=8192, rng=rng_for(24), rel_tol=1e-5)
        assert res.value == want.value and res.prior_nodes == 128
        assert res.std_error > want.std_error

    def test_rel_tol_sets_the_count(self):
        # the row that needs 257 nodes at the Squeeze tolerance 1e-5
        strat, rule = _squeeze_rule(4.0, 1.0)
        counts = [average_posterior_variance(strat, rule, method="montecarlo", samples=4096,
                                             rng=rng_for(27), rel_tol=rel_tol).prior_nodes
                  for rel_tol in (1e-3, 1e-5, 1e-11)]
        assert counts == [129, 257, 513]

    def test_cost_guard_kernel_cells(self, monkeypatch):
        # an 8192-draw Squeeze op on a 2001-node ceiling, at the row that
        # needs the most nodes; the ceiling grid cost 2 x 4096 x 2001 cells
        strat, rule = _squeeze_rule(4.0, 1.0)
        rows = []
        cols = kernel_columns(monkeypatch, rows)
        res = average_posterior_variance(strat, rule, method="montecarlo", samples=8192,
                                         rng=rng_for(25), rel_tol=1e-5)
        assert res.prior_nodes < 2001
        assert np.dot(rows, cols) <= 2 * 4096 * 2001 / 5

    def test_cost_guard_features_once_per_chunk(self, monkeypatch):
        # two chunks, the first searched over 65, 129 and 257 nodes: each
        # chunk's features are formed once, and every count shares them;
        # 129 and 257 nest on the count before and run their odd nodes only
        strat, rule = _squeeze_rule(4.0, 1.0)
        formed = []
        features = strat.outcome_features
        monkeypatch.setattr(strat, "outcome_features",
                            lambda outcomes: formed.append(len(outcomes)) or features(outcomes))
        cols = kernel_columns(monkeypatch)
        res = average_posterior_variance(strat, rule, method="montecarlo", samples=8192,
                                         rng=rng_for(25), rel_tol=1e-5)
        assert cols == [65, 64, 128, 257] and res.prior_nodes == 257
        assert formed == [4096, 4096]

    def test_a_grid_is_a_one_count_rule(self):
        # the flat 64-node grid and the rule whose only count is 64: one
        # path, the same draws, calculator and value bit for bit; only
        # quadrature, which needs two counts to agree, tells them apart
        strat = phase.HeterodynePhaseStrategy(1.5, 0.25)
        grid = phase.flat_prior(phase.HET_SUPPORT, 64)
        rule = bayes.PriorRule(phase.HET_SUPPORT, None, 64)
        on_grid, on_rule = (average_posterior_variance(strat, prior, method="montecarlo",
                                                       samples=6000, rng=rng_for(28))
                            for prior in (grid, rule))
        assert on_grid == on_rule and on_grid.prior_nodes == 64
        assert average_posterior_variance(strat, grid).prior_nodes == 64
        with pytest.raises(ToleranceError, match="within 64 nodes") as err:
            average_posterior_variance(strat, rule)
        assert err.value.std_error is None
        assert "one count cannot check the prior-grid error" in str(err.value)
        assert "GridDistribution or a larger max_nodes" in str(err.value)

    @pytest.mark.parametrize("samples", [0, -5])
    def test_samples_must_be_positive(self, samples):
        strat, rule, _ = MC_CASES["DisplacementHet"]()
        with pytest.raises(ValueError, match="at least one sample"):
            average_posterior_variance(strat, rule, method="montecarlo", samples=samples,
                                       rng=rng_for(26))


# ---------------------------------------------------------------------------
# nested prior counts: a trapezoid count 2n - 1 runs the kernel only on the
# nodes count n lacks


def searched_spreads(monkeypatch, strat, prior, feats):
    """(grid, v, z, kernel columns) of each count of the engine's count
    search on the feature rows ``feats``, passed to every count as one
    array; no two counts agree, so the search runs to the ceiling."""
    cols = kernel_columns(monkeypatch)
    seen = []

    def evaluate(calc):
        start = len(cols)
        v, z = calc.spreads(feats)
        seen.append((calc._prior, v.copy(), z.copy(), cols[start:]))
        return float(len(seen)), None
    bayes._refine_count(strat, prior, evaluate, 0.0)
    return seen


def spreads_alone(strat, grid, feats):
    """(v, z) of ``feats`` on ``grid``, on a calculator and buffer of its own."""
    scratch = bayes._kernel_scratch(grid.nodes.size)
    return bayes._SpreadCalculator(grid, strat, scratch).spreads(feats)


def drifting_heterodyne():
    """A 2-D strategy of this file's own, on an interval: the heterodyne
    outcome's mean and covariance both move with theta."""
    def moments(t):
        cov = (0.6 + 0.1 * t * t, 0.4 + 0.05 * np.cos(t), 0.1 * np.sin(t))
        return (1.0 + 0.5j) * t + 0.3j * t * t, cov

    def nodes(level):
        raise AssertionError("this strategy has no outcome rule")
    return bayes.GaussianOutcomeStrategy(moments, nodes, dim=2, circular=False)


def _sampled(strat, rule, size, seed):
    rng = rng_for(30, seed)
    draw = rule.grid(rule.max_nodes, bayes._default_rule(rule.support))
    return strat.sample_outcomes_given(draw.sample(rng, size), rng)


def _tail_case():
    # homodyne outcomes up to 60 sd past every node's mean: each such row's
    # evidence is below the floor's reach, so each count redoes it shifted
    strat = disp.HomodyneQuadratureStrategy(0.7, 0.2)
    rule = bayes.PriorRule.gaussian(strat.prior, 257, 8.0)
    return strat, rule, np.concatenate([np.linspace(-60.0, 60.0, 41),
                                        _sampled(strat, rule, 300, 1)])


def _drifting_case():
    strat = drifting_heterodyne()
    rule = bayes.PriorRule(Interval(-1.0, 2.0), lambda t: np.exp(-t * t), 513)
    return strat, rule, _sampled(strat, rule, 700, 2)


# (strategy, trapezoid prior rule whose every count nests, outcomes)
NESTED_CASES = {
    "Squeeze": lambda: (*_squeeze_rule(4.0, 1.0, grid_nodes=513),
                        _squeeze_rule(4.0, 1.0)[0].outcome_nodes(1)[0]),
    "2-D": _drifting_case,
    "tail": _tail_case,
}


class TestNestedPriorCounts:
    @pytest.mark.parametrize("case", list(NESTED_CASES))
    def test_nested_counts_match_their_grids_alone(self, case, monkeypatch):
        strat, rule, outcomes = NESTED_CASES[case]()
        feats = strat.outcome_features(outcomes)
        seen = searched_spreads(monkeypatch, strat, rule, feats)
        assert [grid.nodes.size for grid, *_ in seen] == list(rule.counts())
        # the first count has nothing to reuse: its grid alone, bit for bit
        grid, v, z, cols = seen[0]
        v0, z0 = spreads_alone(strat, grid, feats)
        assert cols[0] == grid.nodes.size
        assert np.array_equal(v, v0) and np.array_equal(z, z0)
        scale = max(rule.support.lo ** 2, rule.support.hi ** 2)
        for (coarse, *_), (grid, v, z, cols) in zip(seen, seen[1:]):
            n = grid.nodes.size
            assert np.array_equal(grid.nodes[0::2], coarse.nodes)
            # the odd nodes only; tail rows again on the full kernel
            assert cols == ([n // 2, n] if case == "tail" else [n // 2])
            v0, z0 = spreads_alone(strat, grid, feats)
            np.testing.assert_allclose(z, z0, rtol=1e-14, atol=0.0)
            np.testing.assert_allclose(v, v0, rtol=1e-14, atol=1e-14 * scale)
        if case == "tail":
            assert (z0 < 1e-300).sum() >= 20 and (z0 > 1e-3).sum() >= 250

    def test_kept_sums_are_unshifted_and_released_once_used(self):
        # the tail rows are redone shifted; the sums kept for the next
        # count are the unshifted ones, and that count takes them away
        strat, rule, outcomes = _tail_case()
        feats = strat.outcome_features(outcomes)
        scratch = bayes._kernel_scratch(65, 129)
        coarse = bayes._SpreadCalculator(rule.grid(65), strat, scratch, keep=True)
        coarse.spreads(feats)
        kept = coarse._sums[id(feats)][1]
        want = np.empty_like(kept)
        coarse._reduce(feats, (coarse.coeffs, coarse.moments, coarse._buf), want)
        assert np.array_equal(kept, want)
        fine = bayes._SpreadCalculator(rule.grid(129), strat, scratch, coarse)
        fine.spreads(feats)
        assert coarse._sums == {} and fine._sums is None

    def test_a_ceiling_that_does_not_nest_runs_its_own_grid(self, monkeypatch):
        # 200 after 129 shares only the end nodes: its full kernel, bitwise
        strat, rule = _squeeze_rule(4.0, 1.0, grid_nodes=200)
        feats = strat.outcome_features(strat.outcome_nodes(1)[0])
        seen = searched_spreads(monkeypatch, strat, rule, feats)
        assert [(grid.nodes.size, cols) for grid, _, _, cols in seen] == [
            (65, [65]), (129, [64]), (200, [200])]
        grid, v, z, _ = seen[-1]
        v0, z0 = spreads_alone(strat, grid, feats)
        assert np.array_equal(v, v0) and np.array_equal(z, z0)

    @pytest.mark.parametrize("case", ["PhaseHet-odd", "PhaseHom", "midpoint-2n-1", "grid"])
    def test_other_priors_run_every_count_alone(self, case, monkeypatch):
        # midpoint and Gauss-Legendre counts never nest, not even the
        # midpoint count 2n - 1 (127 after 64, 2047 after 1024), and a grid
        # is one count: each count's spreads are its grid's alone, bitwise
        if case == "midpoint-2n-1":
            strat = disp.HomodyneQuadratureStrategy(0.7, 0.2)
            gauss = bayes.PriorRule.gaussian(strat.prior, 127, 8.0)
            prior = bayes.PriorRule(gauss.support, gauss.density, 127, bayes.MIDPOINT)
        elif case == "grid":
            strat, rule = _squeeze_rule(4.0, 1.0, grid_nodes=129)
            prior = rule.grid(129)
        else:
            strat, prior, _ = MC_CASES[case]()
        rule = prior if isinstance(prior, bayes.PriorRule) else None
        outcomes = (_sampled(strat, rule, 200, 3) if rule is not None
                    else strat.sample_outcomes_given(prior.sample(rng_for(30, 3), 200),
                                                     rng_for(30, 4)))
        feats = strat.outcome_features(outcomes)
        seen = searched_spreads(monkeypatch, strat, prior, feats)
        want = [prior.nodes.size] if rule is None else list(rule.counts())
        assert [grid.nodes.size for grid, *_ in seen] == want
        for grid, v, z, cols in seen:
            assert cols == [grid.nodes.size]
            v0, z0 = spreads_alone(strat, grid, feats)
            assert np.array_equal(v, v0) and np.array_equal(z, z0)

    @pytest.mark.parametrize("case", ["PhaseHet-odd", "PhaseHom", "grid"])
    def test_monte_carlo_on_other_priors_is_bitwise(self, case, monkeypatch):
        # every chunk's spreads on the chosen count, bit for bit those of
        # the engine's draws replayed on that count's grid alone
        if case == "grid":
            strat, rule = _squeeze_rule(4.0, 1.0, grid_nodes=129)
            prior, rel_tol = rule.grid(129), 1e-5
        else:
            strat, rule, rel_tol = MC_CASES[case]()
            prior = rule
        seen = []
        spreads = bayes._SpreadCalculator.spreads

        def recording(calc, feats):
            v, z = spreads(calc, feats)
            seen.append((calc._prior.nodes.size, v.copy()))
            return v, z
        monkeypatch.setattr(bayes._SpreadCalculator, "spreads", recording)
        res = average_posterior_variance(strat, prior, method="montecarlo", samples=6000,
                                         rng=rng_for(29), rel_tol=rel_tol)
        monkeypatch.undo()
        got = np.concatenate([v for n, v in seen if n == res.prior_nodes])
        v = replay_monte_carlo(strat, rule, 6000, res.prior_nodes, rng_for(29))[0]
        assert np.array_equal(got, v)


# ---------------------------------------------------------------------------
# engine prior grids: built once per process with their kernel tables


class TestEngineGrids:
    @pytest.mark.parametrize("task,p", [
        ("PhaseHom", dict(alpha=1.5, r=0.3, psi=math.pi / 2)),
        ("PhaseHet", dict(alpha=1.0, r=0.25)),
        ("Squeeze", dict(n=3.0, s=0.5, r0=-0.5, sigma0sq=1.0)),
        ("DisplacementHom", dict(sigma0sq=1.0, r=0.3)),
        ("DisplacementHet", dict(sigma0sq=0.5, r=0.3)),
    ])
    def test_warm_quadrature_equals_cold(self, task, p, cold_engine_grids):
        cold, _ = _task_engine(task, p)
        built = bayes._cached_engine_grid.cache_info().misses
        warm, parts = _task_engine(task, p)
        info = bayes._cached_engine_grid.cache_info()
        assert info.misses == built and info.hits >= built > 0
        # value, std_error, levels and prior_nodes, bit for bit
        assert warm == cold
        # the same prior as a density function, which is never kept
        for strat, rule in parts:
            if rule.density is not None:
                fn = bayes.PriorRule(rule.support, lambda t, f=rule.density: f(t),
                                     rule.max_nodes, rule.rule)
                assert (average_posterior_variance(strat, fn, rel_tol=1e-5)
                        == average_posterior_variance(strat, rule, rel_tol=1e-5))

    @pytest.mark.parametrize("case", ["Squeeze", "PhaseHet-folded"])
    def test_warm_monte_carlo_equals_cold(self, case, cold_engine_grids):
        strat, rule, rel_tol = MC_CASES[case]()
        runs = []
        for _ in range(2):
            rng = rng_for(33)
            res = average_posterior_variance(strat, rule, method="montecarlo", samples=6000,
                                             rng=rng, rel_tol=rel_tol)
            runs.append((res, rng.bit_generator.state))
        assert bayes._cached_engine_grid.cache_info().hits > 0
        assert runs[0] == runs[1]

    def test_grids_and_tables_are_read_only(self, cold_engine_grids):
        strat = phase.HeterodynePhaseStrategy(1.0, 0.3)
        grid = bayes.PriorRule(phase.HET_SUPPORT, None, 512).grid(128)
        calc = bayes._SpreadCalculator(grid, strat, bayes._kernel_scratch(128))
        spreads_at(calc, strat.outcome_nodes(0)[0])
        spreads_at(calc, strat.sample_outcomes_given(grid.sample(rng_for(34), 100),
                                                     rng_for(35)))
        arrays = [grid.nodes, grid.density, grid._w, *grid._folded, *grid._cdf,
                  *(grid._moments(circular, odd) for circular in (False, True)
                    for odd in (False, True))]
        assert not any(a.flags.writeable for a in arrays)
        # another ceiling and the support's rule named: the same grid
        assert bayes.PriorRule(phase.HET_SUPPORT, None, 2048).grid(128, bayes.MIDPOINT) is grid

    def test_every_key_field_tells_grids_apart(self, cold_engine_grids):
        gauss = bayes.PriorRule.gaussian(GaussianPrior(0.0, 1.0), 2001)
        grid = gauss.grid(65)
        others = [bayes.PriorRule(gauss.support, None, 2001).grid(65),
                  bayes.PriorRule.gaussian(GaussianPrior(0.0, 1.0), 2001, 5.0).grid(65),
                  gauss.grid(129),
                  gauss.grid(65, bayes.MIDPOINT)]
        assert len({id(g) for g in [grid, *others]}) == 5
        assert not np.array_equal(others[0].density, grid.density)
        # equal fields on another rule object, of another ceiling
        again = bayes.PriorRule.gaussian(GaussianPrior(0.0, 1.0), 513)
        assert again.grid(65, bayes.TRAPEZOID) is grid

    def test_a_density_function_is_never_kept(self, cold_engine_grids):
        strat, gauss = _squeeze_rule(3.0, 0.5)

        def density(t):
            return np.exp(-0.5 * ((t + 0.5) / 1.0) ** 2)
        ref = weakref.ref(density)
        rule = bayes.PriorRule(gauss.support, density, gauss.max_nodes)
        got = average_posterior_variance(strat, rule, rel_tol=1e-5)
        average_posterior_variance(strat, rule, method="montecarlo", samples=5000,
                                   rng=rng_for(36), rel_tol=1e-5)
        assert bayes._cached_engine_grid.cache_info().currsize == 0
        assert got == average_posterior_variance(strat, gauss, rel_tol=1e-5)
        del density, rule
        gc.collect()
        assert ref() is None

    def test_the_cache_is_bounded(self, cold_engine_grids):
        rules = [bayes.PriorRule(Circle(0.0, 1.0 + k), None, 64)
                 for k in range(bayes._ENGINE_GRIDS + 8)]
        for rule in rules:
            rule.grid(64)
        assert bayes._cached_engine_grid.cache_info().currsize == bayes._ENGINE_GRIDS
        assert rules[-1].grid(64) is rules[-1].grid(64)
        # a grid of more than _ENGINE_GRID_NODES nodes is built, not kept
        wide = bayes.PriorRule(Interval(0.0, 1.0), None, 2 * bayes._ENGINE_GRID_NODES)
        assert wide.grid(bayes._ENGINE_GRID_NODES) is wide.grid(bayes._ENGINE_GRID_NODES)
        big = bayes._ENGINE_GRID_NODES + 1
        assert wide.grid(big) is not wide.grid(big)
        assert bayes._cached_engine_grid.cache_info().currsize == bayes._ENGINE_GRIDS

    def test_a_callers_grid_keeps_its_tables(self, cold_engine_grids):
        het = phase.HeterodynePhaseStrategy(1.0, 0.3)
        squeeze, rule = _squeeze_rule(3.0, 0.5)
        for strat, grid in ((het, phase.flat_prior(phase.HET_SUPPORT, 256)),
                            (squeeze, rule.grid(129)),
                            (squeeze, GridDistribution.from_gaussian(GaussianPrior(-0.5, 1.0),
                                                                     129))):
            fields = {k: getattr(grid, k) for k in ("support", "nodes", "density", "rule")}
            assert vars(grid).keys() == fields.keys()  # no tables before an engine call
            runs = [(average_posterior_variance(strat, grid, rel_tol=1e-5),
                     average_posterior_variance(strat, grid, method="montecarlo",
                                                samples=5000, rng=rng_for(37), rel_tol=1e-5))
                    for _ in range(2)]
            assert type(grid) is GridDistribution
            assert all(getattr(grid, k) is v for k, v in fields.items())
            arrays = []
            for k, v in vars(grid).items():
                if k not in fields:  # a table: an array, or a tuple or dict of them
                    arrays += (v.values() if isinstance(v, dict)
                               else v if isinstance(v, tuple) else [v])
            arrays = [a for a in arrays if isinstance(a, np.ndarray)]
            assert arrays and not any(a.flags.writeable for a in arrays)
            # the second call reads the tables the first made: bit for bit
            assert runs[0] == runs[1]
        # a posterior that reaches no engine gains no table
        post = bayes.grid_update(rule.grid(129), gaussian_like(0.8), -0.4)
        bayes.variance_mse(post, bayes.mean_estimator(post))
        assert vars(post).keys() == fields.keys()
        # a rule's grid is the kept one; the public constructors build afresh
        assert rule.grid(129) is rule.grid(129)
        assert (GridDistribution.from_function(rule.support, rule.density, 129)
                is not GridDistribution.from_function(rule.support, rule.density, 129))
        gauss = GaussianPrior(-0.5, 1.0)
        assert (GridDistribution.from_gaussian(gauss, 129)
                is not GridDistribution.from_gaussian(gauss, 129))


# ---------------------------------------------------------------------------
# the odd-node kernel's coefficients, made on the odd nodes alone


class TestOddNodeCoefficients:
    @pytest.mark.parametrize("kind", KINDS + ("2-D",))
    @pytest.mark.parametrize("n", [65, 129, 256, 401, 2001])
    def test_odd_coefficients_are_the_full_ones_bit_for_bit(self, kind, n):
        if kind == "2-D":
            strat, support = drifting_heterodyne(), Interval(-1.0, 2.0)
        else:
            strat, prior = _engine_row(kind)
            support = prior.support
        calc = bayes._SpreadCalculator(GridDistribution.uniform(support, n), strat,
                                       bayes._kernel_scratch(n))
        odd = calc._odd[0]
        assert "coeffs" not in vars(calc)  # the odd kernel did not make them
        assert odd.flags.c_contiguous
        assert odd.tobytes() == np.ascontiguousarray(calc.coeffs[:, 1::2]).tobytes()


# ---------------------------------------------------------------------------
# kernel helpers: a call's row blocks on every core, bit for bit

_HELPERS = {}  # by count: a test pool's threads live as long as the process


def with_helpers(monkeypatch, count, lag=0.0):
    """Run the kernel on ``bayes._KernelHelpers(count)`` for the rest of the
    test; returns ``record_blocks(monkeypatch, lag)``."""
    if count not in _HELPERS:
        _HELPERS[count] = bayes._KernelHelpers(count)
    monkeypatch.setattr(bayes, "_helpers", _HELPERS[count])
    return record_blocks(monkeypatch, lag)


def record_blocks(monkeypatch, lag=0.0):
    """A list that gets (thread, first row) of each kernel block run for
    the rest of the test; ``lag`` seconds of sleep before each of the
    calling thread's blocks leave the helpers time to claim blocks of
    their own."""
    ran = []
    block = bayes._kernel_block
    caller = threading.get_ident()

    def recording(feats, kernel, kbuf, out, shift, i):
        ran.append((threading.get_ident(), i))
        if lag and threading.get_ident() == caller:
            time.sleep(lag)
        return block(feats, kernel, kbuf, out, shift, i)
    monkeypatch.setattr(bayes, "_kernel_block", recording)
    return ran


def _split_full():
    strat, prior = _engine_row("squeeze")  # 401 nodes: 163 rows a block
    outcomes = strat.sample_outcomes_given(prior.sample(rng_for(41), 2500), rng_for(42))
    feats = strat.outcome_features(outcomes)
    return lambda: spreads_alone(strat, prior, feats), 2500, 163


def _split_folded():
    strat = phase.HeterodynePhaseStrategy(1.5, 0.25)
    prior = phase.flat_prior(phase.HET_SUPPORT, 256)  # 128 folded nodes: 512 rows
    outcomes = strat.sample_outcomes_given(prior.sample(rng_for(43), 3000), rng_for(44))
    feats = strat.outcome_features(np.abs(outcomes))

    def spreads():
        calc = bayes._SpreadCalculator(prior, strat, bayes._kernel_scratch(256))
        assert calc.symmetric
        return calc.spreads(feats)
    return spreads, 3000, 512


def _split_nested():
    strat, rule, outcomes = _drifting_case()
    outcomes = np.concatenate([outcomes, _sampled(strat, rule, 1800, 5)])
    feats = strat.outcome_features(outcomes)

    def spreads():
        # 64 odd nodes in a buffer of 65 and 129 nodes: 1023 rows a block
        scratch = bayes._kernel_scratch(65, 129)
        coarse = bayes._SpreadCalculator(rule.grid(65), strat, scratch, keep=True)
        coarse.spreads(feats)
        fine = bayes._SpreadCalculator(rule.grid(129), strat, scratch, coarse)
        v, z = fine.spreads(feats)
        assert coarse._sums == {}  # the odd kernel ran
        return v, z
    return spreads, feats.shape[0], 1023


def _split_redo():
    strat, rule, _ = _tail_case()
    grid = rule.grid(257)  # 255 rows a block
    feats = strat.outcome_features(np.linspace(-60.0, 60.0, 2001))
    low = spreads_alone(strat, grid, feats)[1] < grid._z_low
    assert low.sum() > 3 * 255  # the shift redo is a call of its own blocks
    return lambda: spreads_alone(strat, grid, feats), 2001, 255


SPLIT_CASES = {"full": _split_full, "folded": _split_folded, "nested": _split_nested,
               "redo": _split_redo}


def _overflow_rows(rows):
    """(kernel, feature rows) whose log-likelihood overflows to -inf in
    the kernel's first product, on every row: q^2 = 1.5e308 on a homodyne
    outcome of variance 1/3."""
    strat = disp.HomodyneQuadratureStrategy(0.7, 0.2)
    grid = bayes.PriorRule.gaussian(strat.prior, 257, 8.0).grid(257)
    calc = bayes._SpreadCalculator(grid, strat, bayes._kernel_scratch(257))
    assert calc.coeffs[2].max() < -1.2
    feats = strat.outcome_features(np.zeros(rows))
    feats[:, 2] = 1.5e308
    return (calc.coeffs, calc.moments, calc._buf), feats


class TestKernelHelpers:
    @pytest.mark.parametrize("case", list(SPLIT_CASES))
    def test_helpers_give_the_serial_bits(self, case, monkeypatch):
        spreads, rows, block = SPLIT_CASES[case]()
        assert rows > block and rows % block != 0  # several blocks, a short last one
        with_helpers(monkeypatch, 0)
        want = spreads()
        for count in (1, 2):
            ran = with_helpers(monkeypatch, count, lag=0.002)
            got = spreads()
            assert len({thread for thread, _ in ran}) > 1  # a helper ran blocks
            for a, b in zip(got, want):
                assert a.tobytes() == b.tobytes()

    def test_many_helpers_and_callers_lose_no_block(self, monkeypatch):
        # more threads than cores, switching every microsecond: each block
        # is claimed once, and two callers sharing the helpers get their
        # serial bits
        cases = [SPLIT_CASES["full"](), SPLIT_CASES["folded"]()]
        with_helpers(monkeypatch, 0)
        want = [spreads() for spreads, _, _ in cases]
        ran = with_helpers(monkeypatch, 3)
        got, errors = [None, None], []

        def call(k):
            try:
                for _ in range(5):
                    v, z = cases[k][0]()
                    assert v.tobytes() == want[k][0].tobytes()
                    assert z.tobytes() == want[k][1].tobytes()
                got[k] = True
            except BaseException as exc:
                errors.append(exc)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            callers = [threading.Thread(target=call, args=(k,)) for k in (0, 1)]
            for t in callers:
                t.start()
            for t in callers:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in callers)
        assert errors == [] and got == [True, True]
        # 5 calls of 16 blocks and 5 of 6, each block once
        starts = sorted(i for _, i in ran)
        assert starts == sorted(5 * list(range(0, 2500, 163)) + 5 * list(range(0, 3000, 512)))

    def test_a_task_no_helper_took_holds_no_array(self):
        # a helper that never wakes: the caller runs every block, and the
        # task left in the queue keeps none of the call's arrays alive
        pool = bayes._KernelHelpers(0)
        pool.count = 1
        strat, prior = _engine_row("squeeze")
        calc = bayes._SpreadCalculator(prior, strat, bayes._kernel_scratch(401))
        kernel = (calc.coeffs, calc.moments, calc._buf)
        feats = strat.outcome_features(np.linspace(-3.0, 3.0, 2500))
        out, want = np.empty((2500, 3)), np.empty((2500, 3))
        bayes._SpreadCalculator._reduce(feats, kernel, want)
        pool.run(feats, kernel, out, None)
        assert pool._tasks.qsize() == 1 and out.tobytes() == want.tobytes()
        held = [weakref.ref(a) for a in (feats, out)]
        del feats, out
        assert [ref() for ref in held] == [None, None]

    @pytest.mark.parametrize("setting", ["ignore", "raise", "filter-error", "record"])
    def test_errstate_and_warning_filters_act_as_on_one_block(self, setting, monkeypatch):
        # every row's log p overflows; a helper runs blocks in the caller's
        # numpy error state and meets the caller's warning filters
        kernel, feats = _overflow_rows(1000)
        block = kernel[2].shape[0]

        def reduce(rows):
            out = np.empty((rows, kernel[1].shape[1]))
            with warnings.catch_warnings(record=True) as seen:
                warnings.simplefilter("error" if setting == "filter-error" else "always")
                with np.errstate(over={"ignore": "ignore", "raise": "raise"}.get(setting, "warn")):
                    try:
                        bayes._SpreadCalculator._reduce(feats[:rows], kernel, out)
                        raised = None
                    except (FloatingPointError, RuntimeWarning) as exc:
                        raised = type(exc)
            return raised, [str(w.message) for w in seen]
        with_helpers(monkeypatch, 0)
        one = reduce(block)
        serial = reduce(1000)
        ran = with_helpers(monkeypatch, 1, lag=0.002)
        split = reduce(1000)
        assert len({thread for thread, _ in ran}) > 1
        blocks = -(-1000 // block)
        expected = {"ignore": (None, []), "raise": (FloatingPointError, []),
                    "filter-error": (RuntimeWarning, [])}.get(
            setting, (None, ["overflow encountered in matmul"]))
        assert one == expected
        if setting == "record":
            assert serial == split == (None, blocks * expected[1])
        else:
            assert serial == split == expected

    def test_a_forked_child_runs_a_monte_carlo_row(self, monkeypatch):
        # the parent's helper thread is not in the child, which makes its
        # own helper, runs blocks on it and gets the parent's value
        import multiprocessing
        monkeypatch.setattr(bayes, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(bayes, "_helpers", None)
        ran = record_blocks(monkeypatch, lag=0.002)
        strat, rule, rel_tol = MC_CASES["Squeeze"]()

        def row():
            return average_posterior_variance(strat, rule, method="montecarlo", samples=5000,
                                              rng=rng_for(45), rel_tol=rel_tol)
        want = row()
        parents = bayes._helpers
        assert parents.count == 1 and len({thread for thread, _ in ran}) == 2

        def child_row():
            ran.clear()
            got = row()
            send.send((got, bayes._helpers is not parents,
                       len({thread for thread, _ in ran})))
        ctx = multiprocessing.get_context("fork")
        recv, send = ctx.Pipe(duplex=False)
        child = ctx.Process(target=child_row)
        child.start()
        try:
            arrived = recv.poll(120)
            if arrived:
                child.join(timeout=120)
            assert arrived and not child.is_alive() and child.exitcode == 0
            assert recv.recv() == (want, True, 2)
        finally:
            if child.is_alive():
                child.kill()

    @pytest.mark.parametrize("task,p", [
        ("PhaseHom", dict(alpha=2.0, r=0.5, psi=math.pi / 2)),
        ("PhaseHom", dict(alpha=2.0, r=0.0, psi=0.0)),
        ("PhaseHet", dict(alpha=2.0, r=0.5)),
        ("Squeeze", dict(n=4.0, s=1.0, r0=-0.5, sigma0sq=1.0)),
        ("Squeeze", dict(n=2.0, s=0.0, r0=-0.5, sigma0sq=1.0)),
        ("DisplacementHet", dict(sigma0sq=1.0, r=0.3)),
        ("DisplacementHom", dict(sigma0sq=0.25, r=0.0)),
    ])
    def test_cost_guard_one_block_calls_never_reach_the_helpers(self, task, p, monkeypatch):
        # a benchmark quadrature row's kernel calls are one block each (at
        # most 513 rows on 129 nodes), which run serially with no hand-off
        reached, rows = [], []
        monkeypatch.setattr(bayes, "_kernel_helpers", lambda: reached.append(1))
        kernel_columns(monkeypatch, rows)
        _task_engine(task, p)
        assert rows and reached == []

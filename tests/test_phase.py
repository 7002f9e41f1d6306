"""Phase estimation: closed forms, Bessel series vs quadrature, engine checks."""

import functools
import itertools
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gaussbayes import bayes, displacement as disp, harness, phase, specfun
from gaussbayes.bayes import Circle, GridDistribution
from gaussbayes.measurement import HETERODYNE, Measurement, MeasurementKind, homodyne
from gaussbayes.phasespace import ProbeSpec
from gaussbayes.phase import TruncationError
from test_bayes import PolarHeterodyne, series_integrand, uniform_radial_rule

SQ2 = math.sqrt(2.0)
ROOT = Path(__file__).resolve().parents[1]


def circle_grid(support, k):
    lo, span = support.lo, support.hi - support.lo
    h = span / k
    return support.lo + (np.arange(k) + 0.5) * h, h


def flat_het_posterior(alpha, beta):
    """Coherent-heterodyne posterior on the flat prior's grid."""
    return bayes.grid_update(phase.flat_prior(phase.HET_SUPPORT),
                             lambda t, m: phase.coherent_het_likelihood(alpha, m, t), beta)


class TestCoherentHeterodyne:
    def test_flat_posterior_at_zero_outcome(self):
        d = flat_het_posterior(1.0, 0.0)
        np.testing.assert_allclose(d.density, 1.0 / (2 * math.pi), rtol=1e-12)

    def test_posterior_mean_is_outcome_phase(self):
        beta = 1.3 * complex(math.cos(0.7), -math.sin(0.7))
        d = flat_het_posterior(1.0, beta)
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

    def test_one_radius_calls_no_numpy_divide(self, monkeypatch):
        # one radius runs each Bessel family on the Python-float path
        calls = []
        divide = np.divide

        def counting(*args, **kwargs):
            calls.append(args)
            return divide(*args, **kwargs)

        monkeypatch.setattr(np, "divide", counting)
        phase.squeezed_het_posterior_variance(1.5, 0.25, 2.0)
        assert calls == []

    def test_radial_rows_in_one_pass_equal_rows_per_radius(self):
        # both families of several radii run in one recurrence pass, each
        # argument at its own order: the rows of each radius alone
        alpha, r, n_max = 2.5, 0.25, 30
        rho = np.array([0.0, 1e-170, 0.4, 2.0, 5.5, 11.0])
        rows_u, rows_v = phase._sh_rows(alpha, r, rho, n_max)
        assert rows_u.shape == (rho.size, n_max + 1) and rows_v.shape == (rho.size, 2 * n_max + 4)
        for i, x in enumerate(rho):
            u, v = phase._sh_rows(alpha, r, np.array([x]), n_max)
            assert rows_u[i].tobytes() == u[0].tobytes()
            assert rows_v[i].tobytes() == v[0].tobytes()

    def test_average_variance_reduction(self):
        for alpha in (0.5, 1.0, 2.0):
            assert phase.squeezed_het_average_variance(alpha, 0.0).value == pytest.approx(
                phase.coherent_het_average_variance(alpha), abs=1e-6)

    def test_average_variance_vs_engine(self):
        series = phase.squeezed_het_average_variance(1.0, 0.25).value
        task = phase.PhaseTask(ProbeSpec(1.0, 0.25, math.pi), HETERODYNE)
        engine = phase.average_variance_numeric(task)
        assert series == pytest.approx(engine.value, abs=1e-4)
        assert series < phase.coherent_het_average_variance(1.0)

    def test_fixed_energy_orderings(self):
        n = 2.0
        r = 1.25
        # not enough energy for r=1.25 at n=2? sinh^2(1.25) = 2.60 > 2: use n=3
        n = 3.0
        worse = phase.squeezed_het_average_variance(math.sqrt(n - math.sinh(r) ** 2), r).value
        assert worse > phase.coherent_het_average_variance(math.sqrt(n))


class TestCoherentHomodyne:
    def test_likelihood_values(self):
        assert phase.squeezed_hom_likelihood(1.7, 0.0, 0.0, 0.3, math.pi / 2) == \
            pytest.approx(math.exp(-0.09) / math.sqrt(math.pi), rel=1e-13)

    def test_squeezed_likelihood_reduction(self):
        # unsqueezed, the angle drops out: e^{-(q - sqrt2 alpha cos theta)^2} / sqrt(pi)
        th = np.linspace(0, math.pi, 33)
        np.testing.assert_allclose(
            phase.squeezed_hom_likelihood(0.9, 0.0, 0.3, 0.2, th),
            np.exp(-(0.2 - SQ2 * 0.9 * np.cos(th)) ** 2) / math.sqrt(math.pi), rtol=1e-13)

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
            want = float(phase.squeezed_hom_likelihood(alpha, 0.0, 0.0, q, th).mean())
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
            like = phase.squeezed_hom_likelihood(alpha, 0.0, 0.0, q, th)
            post = like / (like.sum() * h)
            want = complex((np.exp(1j * th) * post).sum() * h)
            got = phase.coherent_hom_circular_moment(alpha, q)
            assert got == pytest.approx(want, abs=1e-6)

    def test_circular_moment_real_part_vanishes_at_q0(self):
        got = phase.coherent_hom_circular_moment(1.0, 0.0)
        assert got.real == pytest.approx(0.0, abs=1e-14)

    @staticmethod
    def double_sum_moment(alpha, q):
        """Imaginary part of the circular moment as the literal double sum
        over the quartic denominator, and eps times the sum of its terms'
        magnitudes, both scaled as the moment."""
        rows_a, rows_b, n, norm, _, _ = phase._hom_series(alpha, q)
        nm, nn = np.meshgrid(n, n, indexing="ij")
        num = 1.0 - 4.0 * nm.astype(float) ** 2 - 4.0 * nn.astype(float) ** 2
        den = ((2 * nn - 2 * nm - 1) * (2 * nn - 2 * nm + 1)
               * (2 * nn + 2 * nm + 1) * (2 * nn + 2 * nm - 1)).astype(float)
        terms = rows_b[np.abs(nm)] * rows_a[np.abs(2 * nn)] * num / den
        scale = 2.0 / math.pi / norm
        return scale * float(terms.sum()), scale * np.finfo(float).eps * float(np.abs(terms).sum())

    def test_toeplitz_moment_matches_the_double_sum(self):
        # num/den = -[K(n+m) + K(n-m)]/2, K(d) = 1/(4d^2 - 1): the
        # convolution is the double sum to rounding
        for alpha in np.linspace(0.1, 3.0, 7):
            for q in np.linspace(-6.0, 6.0, 13):
                want, eps_mag = self.double_sum_moment(alpha, q)
                got = phase.coherent_hom_circular_moment(alpha, q).imag
                assert abs(got - want) <= 8.0 * eps_mag, (alpha, q)

    def test_circular_moment_flat_limit(self):
        got = phase.coherent_hom_circular_moment(1e-7, 0.6)
        assert got == pytest.approx(2j / math.pi, abs=1e-7)

    def test_homodyne_blindness_reflection(self):
        # posteriors for q and -q are mirror images theta -> pi - theta
        alpha, q = 1.1, 0.6
        prior = phase.flat_prior(phase.HOM_SUPPORT)
        post_a = bayes.grid_update(
            prior, lambda t, m: phase.squeezed_hom_likelihood(alpha, 0.0, 0.0, m, t), q)
        post_b = bayes.grid_update(
            prior, lambda t, m: phase.squeezed_hom_likelihood(alpha, 0.0, 0.0, m, t), -q)
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
        strat = PolarHeterodyne(1.0, 0.0, 64)
        full = bayes.average_posterior_variance(strat, phase.flat_prior(phase.HET_SUPPORT))
        assert full.value == pytest.approx(sym.value, abs=1e-8)

    def test_no_prior_nodes_is_a_value_error(self):
        task = phase.PhaseTask(ProbeSpec(1.0), HETERODYNE)
        with pytest.raises(ValueError, match="at least 1, got 0"):
            phase.average_variance_numeric(task, grid_nodes=0)

    def test_task_validation(self):
        with pytest.raises(ValueError):
            phase.PhaseTask(ProbeSpec(0.0), HETERODYNE)  # needs alpha > 0
        with pytest.raises(ValueError):
            phase.PhaseTask(ProbeSpec(1.0, 0.5, 0.0), HETERODYNE)  # psi must be pi
        with pytest.raises(ValueError):
            phase.PhaseTask(ProbeSpec(1.0j), homodyne())  # alpha must be real

    # settings the task's formulas never read: each gave the value of its
    # default, silently
    @pytest.mark.parametrize("build", [
        lambda: phase.PhaseTask(ProbeSpec(1.0, 0.5, 0.3), homodyne(0.7)),
        lambda: phase.PhaseTask(ProbeSpec(1.0), Measurement(MeasurementKind.HETERODYNE, 0.7)),
        lambda: disp.DisplacementTask(1.0, measurement=homodyne(1.2)),
        lambda: disp.DisplacementTask(1.0, probe_r=0.5, probe_phi=1.0),
    ], ids=["phase-homodyne-angle", "phase-heterodyne-angle", "displacement-homodyne-angle",
            "displacement-heterodyne-phi"])
    def test_settings_no_formula_reads_are_rejected(self, build):
        with pytest.raises(ValueError, match="angle must be 0|squeezed along phi = 0"):
            build()


def level0_nodes(alpha, r, psi=0.0):
    return phase.HomodynePhaseStrategy(alpha, r, psi).outcome_nodes(0)[0].size - 1


class TestHomodyneOutcomeRule:
    @pytest.mark.parametrize("alpha", [0.5, 2.0])
    @pytest.mark.parametrize("r", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("psi", [0.0, math.pi / 2])
    def test_value_matches_a_4096_node_rule(self, alpha, r, psi):
        # the engine's value against a 4096-node outcome rule on the prior
        # grid the engine chose
        task = phase.PhaseTask(ProbeSpec(alpha, r, psi), homodyne())
        got = phase.average_variance_numeric(task)
        strat = phase.task_strategy(task)
        points = strat.outcome_nodes(0)[0]
        lo, hi = points[0], points[-1]
        fine = bayes.GaussianOutcomeStrategy(
            strat.outcome_moments, lambda level: bayes.trapezoid(lo, hi, 4096 * 2**level + 1),
            dim=1, circular=True)
        grid = GridDistribution.uniform(phase.HOM_SUPPORT, got.prior_nodes, bayes.GAUSS_LEGENDRE)
        ref = bayes.average_posterior_variance(fine, grid, rel_tol=1e-12).value
        assert abs(got.value - ref) <= max(got.std_error, 4.0 * np.finfo(float).eps * ref)
        # and that error is small: a fixed 128 nodes are off by 4e-9 to
        # 1.3e-8 relative at r = 1, and quote it
        assert abs(got.value - ref) <= 1e-13 * ref

    def test_cost_guard_128_nodes_on_config_and_benchmark_rows(self, monkeypatch):
        config = harness.load_config(ROOT / "configs" / "phase_hom_squeezed.cfg")
        rows = [dict(zip(config.sweep, values))
                for values in itertools.product(*config.sweep.values())]
        monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
        import ops
        rows += ops.PHASEHOM_COH + ops.PHASEHOM_SQ
        assert len(rows) == 14 + 20
        for p in rows:
            assert level0_nodes(harness._resolve_alpha(p, "r"), p["r"], p["psi"]) == 128, p

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 10.0])
    @pytest.mark.parametrize("r", [-2.0, 0.0, 0.75, 1.5, 4.0])
    def test_at_most_512_nodes(self, alpha, r):
        assert level0_nodes(alpha, r) in (128, 256, 512)


@functools.lru_cache(maxsize=None)
def uniform_rule_reference(alpha, r):
    """The series on the uniform radial rule at base 512, driven to a gap
    of 1e-12 relative: its h^4 error is about a fifteenth of that gap."""
    return bayes._quadrature_outcome_grid(
        lambda level: uniform_radial_rule(alpha, r, 512, level),
        series_integrand(alpha, r), 1e-12, 8).value


class TestRadialOutcomeRule:
    @pytest.mark.parametrize("alpha,r", [(0.1, 0.05), (0.1, 1.25), (0.5, 0.75), (1.0, 0.5),
                                         (2.0, 0.25), (3.0, 1.0), (4.0, 0.05), (4.0, 1.25)])
    @pytest.mark.parametrize("path", ["series", "engine"])
    def test_value_matches_the_uniform_rule(self, path, alpha, r):
        # the mapped rule against an oracle that shares no node with it;
        # 1e-13 relative is the rounding floor of a radial average
        ref = uniform_rule_reference(alpha, r)
        if path == "series":
            got = phase.squeezed_het_average_variance(alpha, r)
            # the series quotes an error at that floor
            assert got.std_error <= 1e-13 * got.value
        else:
            got = phase.average_variance_numeric(
                phase.PhaseTask(ProbeSpec(alpha, r, math.pi), HETERODYNE))
        assert abs(got.value - ref) <= got.std_error + 1e-13 * abs(got.value)

    @pytest.mark.parametrize("alpha,r", [(0.01, 1e-6), (2.0, 1e-6)])
    def test_smallest_radius_reaches_finite_bessel_rows(self, alpha, r, monkeypatch):
        calls = []
        rows = specfun.bessel_i_scaled_rows

        def recording(x, nmax):
            out = rows(x, nmax)
            calls.append((np.min(x), np.isfinite(out).all()))
            return out
        monkeypatch.setattr(specfun, "bessel_i_scaled_rows", recording)
        got = phase.squeezed_het_average_variance(alpha, r)
        rho_min = phase._radial_rule(alpha, r, phase._RADIAL_BASE, 0)[0][0]
        assert rho_min == pytest.approx(1.523e-8, rel=1e-3)
        # the smallest argument is u = rho^2 tanh r at the smallest radius
        assert min(x for x, _ in calls) == pytest.approx(rho_min**2 * math.tanh(r), rel=1e-12)
        assert all(finite for _, finite in calls)
        # squeezing by r lowers the coherent variance, by at most r of it
        # (about r / 2 of it as alpha -> 0, 0.8 r at alpha = 4)
        coherent = phase.coherent_het_average_variance(alpha)
        assert math.isfinite(got.value)
        assert (1.0 - r) * coherent - got.std_error <= got.value < coherent


class TestTruncation:
    def test_default_scales_with_arguments(self):
        assert phase._hom_cutoff(10.0, 0.0) == 24
        assert phase._hom_cutoff(-3.0, -10.0) == 24
        assert phase._hom_cutoff(0.0, 0.0) == 4

    @pytest.mark.parametrize("call", [
        lambda: phase.squeezed_het_average_variance(2.0, 0.75),
        lambda: phase.squeezed_het_posterior_variance(2.0, 0.75, 3.0)])
    def test_short_cutoff_raises_on_half_range_sums(self, call, monkeypatch):
        call()
        monkeypatch.setattr(phase, "_sh_cutoff", lambda alpha, r, rho_max: 1)
        with pytest.raises(TruncationError):
            call()

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 12), st.floats(1e-12, 1e-8), st.integers(0, 2**32 - 1))
    def test_half_range_check_tests_the_full_range_quantities(self, n_max, edge, seed):
        # a series symmetric in n, folded onto n = 0..N, fails the tail
        # check exactly where |t_-N| + |t_N| > _TAIL_TOL of the sum does
        half = np.random.default_rng(seed).uniform(-0.2, 1.0, n_max + 1)
        half[-1] = edge * half[:-1].sum()
        full = np.concatenate([half[:0:-1], half])
        total = full.sum()
        tail = abs(full[0]) + abs(full[-1]) > phase._TAIL_TOL * abs(total)
        cancel = np.finfo(float).eps * np.abs(full).sum() > phase._CANCEL_TOL * abs(total)
        folded = phase._half_range(half.copy())
        assert folded.sum() == pytest.approx(total, rel=1e-14)
        if tail or cancel:
            with pytest.raises(TruncationError):
                phase._check_tail(folded, total)
        else:
            phase._check_tail(folded, total)

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
        # seeded samples over alpha in [0.1, 3], r in [0, 1.25]: the series
        # at |beta| against the grid posterior of the likelihood at beta
        rng = np.random.default_rng(np.random.SeedSequence(41))
        prior = phase.flat_prior(phase.HET_SUPPORT, 4096)
        for _ in range(10):
            alpha = float(rng.uniform(0.1, 3.0))
            r = float(rng.uniform(0.0, 1.25))
            babs = float(rng.uniform(0.0, alpha + 3.0))
            beta = babs * np.exp(-1j * rng.uniform(-math.pi, math.pi))
            post = bayes.grid_update(
                prior, lambda t, m: phase.squeezed_het_likelihood(alpha, r, m, t), beta)
            want = bayes.variance_circular(post, bayes.circular_mean(post))
            got = phase.squeezed_het_posterior_variance(alpha, r, babs)
            assert got == pytest.approx(want, rel=1e-9)

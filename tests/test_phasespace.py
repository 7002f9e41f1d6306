"""Gaussian state algebra tests."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from gaussbayes import phasespace as ps

SQ2 = math.sqrt(2.0)
EPS = np.finfo(float).eps


def det_rounding_bound(c):
    """8 eps kappa: det(cov) is the difference of two products of size kappa,
    so even the correctly rounded covariance misses its det by ~eps*kappa."""
    return 8 * EPS * (abs(c[0, 0] * c[1, 1]) + c[0, 1] ** 2)


def random_pure_state(rng):
    st_ = ps.squeeze(ps.vacuum(), rng.uniform(0, 1.2), rng.uniform(0, 2 * math.pi))
    return ps.displace(st_, complex(rng.normal(), rng.normal()))


class TestConstructors:
    def test_vacuum(self):
        v = ps.vacuum()
        np.testing.assert_allclose(v.mean, [0.0, 0.0])
        assert np.linalg.det(v.cov) == pytest.approx(0.25)
        assert ps.mean_photon(v) == 0.0

    def test_displace(self):
        np.testing.assert_allclose(ps.coherent(1.0).mean, [SQ2, 0.0])
        np.testing.assert_allclose(ps.coherent(1j).mean, [0.0, SQ2])
        back = ps.displace(ps.displace(ps.vacuum(), 0.3 - 0.8j), -0.3 + 0.8j)
        np.testing.assert_allclose(back.mean, [0.0, 0.0], atol=1e-15)

    def test_squeeze_covariances(self):
        r = 0.6
        ax = ps.squeeze(ps.vacuum(), r, 0.0)
        np.testing.assert_allclose(np.diag(ax.cov),
                                   [math.exp(-2 * r) / 2, math.exp(2 * r) / 2],
                                   rtol=1e-14)
        pi_ = ps.squeeze(ps.vacuum(), r, math.pi)
        np.testing.assert_allclose(np.diag(pi_.cov),
                                   [math.exp(2 * r) / 2, math.exp(-2 * r) / 2],
                                   rtol=1e-14)
        assert np.linalg.det(ps.squeeze(ps.vacuum(), 1.3, 0.77).cov) == pytest.approx(0.25)

    def test_general_squeeze_covariance(self):
        r, phi = 0.45, 1.2
        covmat = ps.squeeze(ps.vacuum(), r, phi).cov
        ch, sh = math.cosh(2 * r), math.sinh(2 * r)
        want = 0.5 * np.array([[ch - math.cos(phi) * sh, math.sin(phi) * sh],
                               [math.sin(phi) * sh, ch + math.cos(phi) * sh]])
        np.testing.assert_allclose(covmat, want, rtol=1e-13)

    def test_rotation_sign(self):
        rot = ps.rotate(ps.coherent(1.0), math.pi / 2)
        np.testing.assert_allclose(rot.mean, [0.0, -SQ2], atol=1e-15)

    def test_rotation_periodicity_and_invariance(self):
        st_ = random_pure_state(np.random.default_rng(3))
        full = ps.rotate(st_, 2 * math.pi)
        np.testing.assert_allclose(full.mean, st_.mean, atol=1e-12)
        np.testing.assert_allclose(full.cov, st_.cov, atol=1e-12)
        vac = ps.rotate(ps.vacuum(), 1.1)
        np.testing.assert_allclose(vac.cov, ps.vacuum().cov, atol=1e-15)

    def test_validation(self):
        with pytest.raises(ValueError):
            ps.GaussianState(np.zeros(2), np.array([[0.5, 0.1], [0.0, 0.5]]))
        with pytest.raises(ValueError):
            ps.GaussianState(np.zeros(2), 0.1 * np.eye(2))
        with pytest.raises(ValueError):
            ps.ProbeSpec(1.0, -0.2)


class TestWigner:
    def test_vacuum_origin(self):
        assert ps.wigner(ps.vacuum(), (0.0, 0.0)) == pytest.approx(1 / math.pi)

    def test_peak_at_mean(self):
        assert ps.wigner(ps.coherent(1.0), (SQ2, 0.0)) == pytest.approx(1 / math.pi)

    def test_normalization(self):
        rng = np.random.default_rng(7)
        for _ in range(3):
            st_ = random_pure_state(rng)
            sd = math.sqrt(float(np.max(np.diag(st_.cov))))
            ax = np.linspace(-12 * sd, 12 * sd, 601)
            pts = np.stack(np.meshgrid(st_.mean[0] + ax, st_.mean[1] + ax,
                                       indexing="ij"), axis=-1)
            h = ax[1] - ax[0]
            assert float(ps.wigner(st_, pts).sum() * h * h) == pytest.approx(1.0, abs=1e-6)


class TestFidelity:
    def test_self(self):
        st_ = random_pure_state(np.random.default_rng(0))
        assert ps.fidelity(st_, st_) == pytest.approx(1.0, abs=1e-12)

    def test_vacuum_coherent_overlap(self):
        assert ps.fidelity(ps.vacuum(), ps.coherent(1.0)) == pytest.approx(
            math.exp(-1.0), rel=1e-12)

    def test_vacuum_squeezed(self):
        assert ps.fidelity(ps.vacuum(), ps.squeeze(ps.vacuum(), 1.0)) == pytest.approx(
            1.0 / math.cosh(1.0), rel=1e-12)

    @pytest.mark.parametrize("r", [1.0, 4.0, 8.0])
    @pytest.mark.parametrize("theta", [0.0, 0.9, 2.0])
    @pytest.mark.parametrize("shift", [1e-3, 1e-3j, 2e-3 - 1e-3j])
    def test_strongly_squeezed_pure_pair(self, r, theta, shift):
        # pure states with equal covariance: F = exp(-d^T (4 cov)^{-1} d), and
        # (4 cov)^{-1} = adj(cov) because det cov = 1/4
        a = ps.rotate(ps.squeeze(ps.vacuum(), r, 0.3), theta)
        b = ps.displace(a, shift)
        d = a.mean - b.mean
        adj = np.array([[a.cov[1, 1], -a.cov[0, 1]], [-a.cov[0, 1], a.cov[0, 0]]])
        want = math.exp(-float(d @ adj @ d))
        assert ps.fidelity(a, b) == pytest.approx(want, rel=1e-12)
        assert ps.fidelity(b, a) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("r", [1.0, 4.0, 8.0])
    @pytest.mark.parametrize("quad", [0.1, 0.5, 1.0, 2.0])
    def test_shift_along_anti_squeezed_axis(self, r, quad):
        # d along the eigenvector of variance e^{2r}/2: F = exp(-|d|^2 e^{-2r}/2).
        # The adjugate form of the exponent cancels there, by up to
        # eps e^{4r} relative; 1 - F is what qfi_fidelity differences
        a = ps.rotate(ps.squeeze(ps.vacuum(), r, 0.3), 0.9)
        axis = np.linalg.eigh(a.cov)[1][:, 1]
        d = math.sqrt(2.0 * quad) * math.exp(r) * axis
        b = ps.GaussianState(a.mean + d, a.cov, det=a.det)
        want = -math.expm1(-float(d @ d) * math.exp(-2.0 * r) / 2.0)
        assert 1.0 - ps.fidelity(a, b) == pytest.approx(want, rel=1e-12)
        assert 1.0 - ps.fidelity(b, a) == pytest.approx(want, rel=1e-12)

    def test_mixed_states(self):
        # thermal states of mean photon number n1, n2: F = 1 / (sqrt(..) - sqrt(..))
        def thermal(n):
            return ps.GaussianState(np.zeros(2), (n + 0.5) * np.eye(2))
        n1, n2 = 0.3, 1.7
        want = 1.0 / (math.sqrt((n1 + 1) * (n2 + 1)) - math.sqrt(n1 * n2)) ** 2
        assert ps.fidelity(thermal(n1), thermal(n2)) == pytest.approx(want, rel=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_symmetry_and_range(self, seed):
        rng = np.random.default_rng(seed)
        a, b = random_pure_state(rng), random_pure_state(rng)
        fab, fba = ps.fidelity(a, b), ps.fidelity(b, a)
        assert fab == pytest.approx(fba, rel=1e-10, abs=1e-14)
        assert 0.0 <= fab <= 1.0


class TestMeanPhoton:
    def test_coherent(self):
        assert ps.mean_photon(ps.coherent(1.5 - 0.5j)) == pytest.approx(2.5, rel=1e-14)

    def test_squeezed(self):
        assert ps.mean_photon(ps.squeeze(ps.vacuum(), 1.0)) == pytest.approx(
            math.sinh(1.0) ** 2, rel=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(st.floats(0.0, 2.0), st.floats(0.0, 2 * math.pi),
           st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))
    def test_displaced_squeezed_formula(self, r, psi, ar, ai):
        alpha = complex(ar, ai)
        st_ = ps.displace(ps.squeeze(ps.vacuum(), r, psi), alpha)
        assert ps.mean_photon(st_) == pytest.approx(
            abs(alpha) ** 2 + math.sinh(r) ** 2, rel=1e-10, abs=1e-10)


class TestPurity:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    @example(81269)  # det(cov) - 1/4 drifted to -2.2e-11
    @example(1651586)  # det(cov) - 1/4 drifted to -7.7e-12
    @example(437587580)  # squeezed so far that det's rounding alone exceeded 1e-9
    def test_unitary_words_preserve_purity(self, seed):
        rng = np.random.default_rng(seed)
        st_ = ps.vacuum()
        for _ in range(8):
            op = rng.integers(3)
            if op == 0:
                st_ = ps.displace(st_, complex(rng.normal(), rng.normal()))
            elif op == 1:
                st_ = ps.squeeze(st_, rng.uniform(0, 1.5), rng.uniform(0, 2 * math.pi))
            else:
                st_ = ps.rotate(st_, rng.uniform(0, 2 * math.pi))
        assert abs(float(np.linalg.det(st_.cov)) - 0.25) <= det_rounding_bound(st_.cov)
        assert st_.det == 0.25

    def test_mixed_state_carries_its_invariant(self):
        thermal = ps.GaussianState(np.zeros(2), 1.5 * np.eye(2))
        out = ps.rotate(ps.displace(ps.squeeze(thermal, 1.2, 0.4), 0.3j), 0.7)
        assert out.det == thermal.det == 2.25
        assert abs(float(np.linalg.det(out.cov)) - 2.25) <= det_rounding_bound(out.cov)
        with pytest.raises(ValueError):
            ps.GaussianState(np.zeros(2), 0.5 * np.eye(2), det=0.3)


class TestQfi:
    def test_displacement_family_saturates_bound(self):
        for r in (0.0, 0.4, 1.0):
            fam = lambda t: ps.displace(ps.squeeze(ps.vacuum(), r, 0.0), t)
            bound = 4.0 * math.exp(2.0 * r)
            assert ps.qfi_fidelity(fam, 0.0) == pytest.approx(bound, rel=1e-3)

    def test_phase_family_on_vacuum(self):
        assert ps.qfi_fidelity(lambda t: ps.rotate(ps.vacuum(), t), 0.5) == 0.0

    def test_squeezing_family_bound(self):
        for alpha, s, psi in [(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.7, 0.5, 1.0),
                              (1.2, 0.8, math.pi / 2)]:
            probe = ps.ProbeSpec(alpha, s, psi)
            n = probe.mean_photon()
            fam = lambda t: ps.squeeze(probe.state(), t)
            qfi = ps.qfi_fidelity(fam, 0.0)
            assert qfi <= 2.0 * (2.0 * n + 1.0) ** 2 + 1e-2

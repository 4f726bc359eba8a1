import math

import numpy as np
import pytest
from scipy.fft import irfft2, rfft2
from scipy.linalg import expm

from srcortex import build_propagator, heat_evolve, kernel_column
from srcortex.heat import _evolve_batch


def angular_second_difference(g, beta: float, dtheta: float) -> np.ndarray:
    """Periodic second difference along the last axis, scaled by beta^2/dtheta^2."""
    g = np.asarray(g, dtype=float)
    coeff = beta**2 / dtheta**2
    return coeff * (np.roll(g, 1, axis=-1) - 2.0 * g + np.roll(g, -1, axis=-1))


def dense_generator(n, k, beta, h):
    """Independent dense assembly of the semi-discrete operator.

    Built straight from the finite differences (directional central
    difference applied twice plus the periodic angular stencil), never
    touching the Fourier path under test.
    """

    def directional(g, theta):
        dx = (np.roll(g, -1, axis=0) - np.roll(g, 1, axis=0)) / (2.0 * h)
        dy = (np.roll(g, -1, axis=1) - np.roll(g, 1, axis=1)) / (2.0 * h)
        return math.cos(theta) * dx + math.sin(theta) * dy

    def apply(g):
        out = np.empty_like(g)
        for j in range(k):
            th = j * math.pi / k
            out[:, :, j] = directional(directional(g[:, :, j], th), th)
        out += angular_second_difference(g, beta, math.pi / k)
        return out

    dim = n * n * k
    mat = np.zeros((dim, dim))
    basis = np.zeros(dim)
    for idx in range(dim):
        basis[:] = 0.0
        basis[idx] = 1.0
        mat[:, idx] = apply(basis.reshape(n, n, k)).ravel()
    return mat


def cn_step_matrix(mat, dtau):
    """Dense Crank-Nicolson step ``(I - dtau/2 B)^-1 (I + dtau/2 B)``."""
    eye = np.eye(len(mat))
    return np.linalg.solve(eye - 0.5 * dtau * mat, eye + 0.5 * dtau * mat)


def factored_generator(prop, r, s):
    """Mode (r, s) generator rebuilt from the propagator's eigenpairs."""
    vecs = prop.eigvecs[r, s]
    return (vecs * prop.eigvals[r, s]) @ vecs.T


def assembled_generator(prop, r, s):
    """Mode (r, s) generator from the angular stencil and the stored symbol."""
    k = prop.n_orient
    ang = angular_second_difference(np.eye(k), prop.beta, math.pi / k)
    return ang - np.diag(prop.d2h[r, s])


class TestAngularDifference:
    def test_constant_maps_to_zero(self):
        np.testing.assert_array_equal(
            angular_second_difference(np.full(8, 3.0), 0.7, math.pi / 8), 0.0
        )

    def test_cosine_eigenvector(self):
        k, beta = 12, 0.9
        dtheta = math.pi / k
        g = np.cos(2 * np.arange(k) * dtheta)
        expected = beta**2 * (2 * math.cos(2 * dtheta) - 2) / dtheta**2 * g
        np.testing.assert_allclose(
            angular_second_difference(g, beta, dtheta), expected, atol=1e-12
        )

    def test_telescoping_sum_vanishes(self):
        rng = np.random.default_rng(0)
        g = rng.standard_normal(9)
        assert angular_second_difference(g, 1.3, 0.3).sum() == pytest.approx(0.0, abs=1e-12)


class TestSpectralSymbol:
    """``d2h[r, s, k] = (d / h)^2`` with the directional-difference symbol
    ``d = cos(theta_k) sin(2 pi r / N) + sin(theta_k) sin(2 pi s / N)``."""

    def test_dc_mode_is_zero(self):
        prop = build_propagator(8, 4, 0.5, 0.01)
        np.testing.assert_array_equal(prop.d2h[0, 0], 0.0)

    def test_vertical_orientation_kills_first_axis(self):
        # theta = pi/2 (index K/2): the cos factor vanishes on first-axis modes
        prop = build_propagator(8, 4, 0.5, 0.01, h=1.0)
        assert np.abs(prop.d2h[:, 0, 2]).max() == pytest.approx(0.0, abs=1e-15)

    def test_direct_evaluation(self):
        # N=4, h=1, mode (1, 0), theta=0 -> sin(pi/2)^2 = 1
        prop = build_propagator(4, 4, 0.5, 0.01, h=1.0)
        assert prop.d2h[1, 0, 0] == pytest.approx(1.0)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            build_propagator(1, 4, 0.5, 0.01)
        with pytest.raises(ValueError):
            build_propagator(8, 1, 0.5, 0.01)
        with pytest.raises(ValueError):
            build_propagator(8, 4, 0.5, 0.01, h=0.0)

    def test_matches_propagator_grid(self):
        n, k, h = 6, 4, 0.5
        prop = build_propagator(n, k, 0.5, 0.01, h=h)
        for r in (0, 1, 4):
            for s in (0, 2):
                for kk in (0, 1, 3):
                    theta = kk * math.pi / k
                    d = math.cos(theta) * math.sin(2 * math.pi * r / n) + math.sin(
                        theta
                    ) * math.sin(2 * math.pi * s / n)
                    assert prop.d2h[r, s, kk] == pytest.approx((d / h) ** 2)


class TestPropagator:
    def test_mode_matrices_symmetric(self):
        prop = build_propagator(6, 5, 0.8, 0.02)
        for r, s in [(0, 0), (1, 3), (2, 2), (5, 1)]:
            mat = assembled_generator(prop, r, s)
            assert np.abs(mat - mat.T).max() == 0.0
            vecs = prop.eigvecs[r, s]
            np.testing.assert_allclose(vecs.T @ vecs, np.eye(5), atol=1e-12)
            np.testing.assert_allclose(
                factored_generator(prop, r, s), mat, atol=1e-12 * np.abs(mat).max()
            )

    def test_zero_mode_is_pure_angular(self):
        prop = build_propagator(6, 4, 0.8, 0.02)
        g = np.arange(4.0)
        np.testing.assert_allclose(
            factored_generator(prop, 0, 0) @ g,
            angular_second_difference(g, 0.8, math.pi / 4),
            atol=1e-12,
        )

    def test_cn_step_eigenvalues_stable(self):
        # the dense step matrix is symmetric (a rational function of the
        # symmetric generator); its spectrum is that of every mode's
        # one-step ratios, conjugate modes (r, s) ~ (-r, -s) filling in
        # the half grid the propagator stores
        n, k = 6, 6
        prop = build_propagator(n, k, 0.7, 0.05)
        step = cn_step_matrix(dense_generator(n, k, prop.beta, prop.h), prop.dtau)
        vals = np.linalg.eigvalsh(0.5 * (step + step.T))
        assert np.all(np.abs(vals) <= 1.0 + 1e-12)
        assert np.all(vals > -1.0)
        ratios = prop.step_ratios(1)
        full = [
            ratios[r, s] if s <= n // 2 else ratios[-r % n, n - s]
            for r in range(n)
            for s in range(n)
        ]
        np.testing.assert_allclose(np.sort(vals), np.sort(np.ravel(full)), atol=1e-12)


class TestHeatEvolve:
    def setup_method(self):
        self.prop = build_propagator(8, 4, 0.5, 0.01)
        rng = np.random.default_rng(42)
        self.a = rng.standard_normal((8, 8, 4))

    def test_tau_zero_is_identity(self):
        np.testing.assert_array_equal(heat_evolve(self.a, self.prop, 0.0), self.a)

    def test_rejects_non_multiple_tau(self):
        with pytest.raises(ValueError, match="multiple"):
            heat_evolve(self.a, self.prop, 0.015)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            heat_evolve(np.zeros((8, 8, 3)), self.prop, 0.1)

    def test_mass_conservation(self):
        out = heat_evolve(self.a, self.prop, 0.7)
        assert abs(out.sum() - self.a.sum()) <= 1e-10 * abs(self.a.sum())

    def test_matches_dense_exponential(self):
        mat = dense_generator(8, 4, self.prop.beta, self.prop.h)
        expected = (expm(0.5 * mat) @ self.a.ravel()).reshape(8, 8, 4)
        got = heat_evolve(self.a, self.prop, 0.5)
        rel = np.linalg.norm(got - expected) / np.linalg.norm(expected)
        assert rel < 1e-3

    def test_spectral_equals_stepping(self):
        # 30 literal Crank-Nicolson steps of the dense generator
        mat = dense_generator(8, 4, self.prop.beta, self.prop.h)
        step = np.linalg.matrix_power(cn_step_matrix(mat, self.prop.dtau), 30)
        expected = (step @ self.a.ravel()).reshape(8, 8, 4)
        spec = heat_evolve(self.a, self.prop, 0.3)
        assert np.linalg.norm(spec - expected) < 1e-12 * np.linalg.norm(spec)

    def test_semigroup(self):
        ab = heat_evolve(heat_evolve(self.a, self.prop, 0.2), self.prop, 0.3)
        full = heat_evolve(self.a, self.prop, 0.5)
        assert np.linalg.norm(ab - full) <= 1e-12 * np.linalg.norm(full)

    def test_contraction(self):
        out = heat_evolve(self.a, self.prop, 1.0)
        assert np.linalg.norm(out) <= np.linalg.norm(self.a) * (1.0 + 1e-12)

    @pytest.mark.parametrize("batch, rtol", [(9, 0.0), (1, 1e-12)])
    def test_interleaved_product_matches_split_product(self, batch, rtol):
        # reference: the propagator applied to the real and imaginary parts
        # of the spectrum as two separate products
        prop = build_propagator(16, 8, 0.5, 0.01)
        stacks = np.random.default_rng(43).random((16, 16, 8, batch))
        pm = prop.propagator(30)
        hats = rfft2(stacks, axes=(0, 1))
        split = irfft2(pm @ hats.real + 1j * (pm @ hats.imag), s=(16, 16), axes=(0, 1))
        got = _evolve_batch(stacks, prop, 30)
        assert np.abs(got - split).max() <= rtol * np.abs(split).max()


class TestKernelColumn:
    def test_column_sums_to_one(self):
        prop = build_propagator(6, 3, 0.6, 0.02)
        col = kernel_column(prop, 2, 3, 1, 0.4)
        assert col.sum() == pytest.approx(1.0, abs=1e-12)

    def test_rejects_out_of_range(self):
        prop = build_propagator(6, 3, 0.6, 0.02)
        with pytest.raises(ValueError):
            kernel_column(prop, 6, 0, 0, 0.1)

    def test_kernel_symmetric(self):
        prop = build_propagator(6, 3, 0.6, 0.02)
        rng = np.random.default_rng(3)
        for _ in range(5):
            p = tuple(rng.integers(0, s) for s in (6, 6, 3))
            q = tuple(rng.integers(0, s) for s in (6, 6, 3))
            cp = kernel_column(prop, *p, 0.3)
            cq = kernel_column(prop, *q, 0.3)
            assert cp[q] == pytest.approx(cq[p], abs=1e-10)

    def test_long_time_uniform_limit(self):
        # odd N: every non-constant mode is damped (even N keeps undamped
        # Nyquist aliases, a known artifact of the wide spatial stencil)
        prop = build_propagator(5, 3, 1.0, 0.05)
        col = kernel_column(prop, 1, 2, 0, 50.0)
        assert np.abs(col - 1.0 / col.size).max() < 1e-10

    def test_anisotropic_spread(self):
        n, k = 32, 8
        prop = build_propagator(n, k, 0.01, 0.01)
        k0 = 1
        tau = 0.14  # calibrated so the along-line spread is about 3 px
        img = kernel_column(prop, n // 2, n // 2, k0, tau).sum(axis=2)
        ii, jj = np.meshgrid(
            np.arange(n) - n // 2, np.arange(n) - n // 2, indexing="ij"
        )
        th = k0 * math.pi / k
        along = ii * math.cos(th) + jj * math.sin(th)
        across = -ii * math.sin(th) + jj * math.cos(th)
        w = np.abs(img)
        m_along = (w * along**2).sum() / w.sum()
        m_across = (w * across**2).sum() / w.sum()
        assert 2.0 < math.sqrt(m_along) < 4.0  # spread near the 3 px target
        assert m_along / m_across > 2.0

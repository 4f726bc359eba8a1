import math

import numpy as np
import pytest
from scipy.fft import irfft2, rfft2
from scipy.linalg import expm

from srcortex import (
    angular_second_difference,
    build_propagator,
    heat_evolve,
    kernel_column,
    solve_cyclic_tridiagonal,
    spectral_symbol,
)
from srcortex.heat import _evolve_batch


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
    def test_dc_mode_is_zero(self):
        for k in range(1, 5):
            assert spectral_symbol(1, 1, k, 8, 4) == 0.0

    def test_vertical_orientation_kills_first_axis(self):
        # theta = pi/2 (k index K/2 + 1 for K even): cos factor vanishes
        k = 3  # with K=4, theta = (3-1)*pi/4 = pi/2
        assert spectral_symbol(5, 1, k, 8, 4) == pytest.approx(0.0, abs=1e-15)

    def test_direct_evaluation(self):
        # N=4, r-1=1, s-1=0, theta=0 -> sin(pi/2) = 1
        assert spectral_symbol(2, 1, 1, 4, 4) == pytest.approx(1.0)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            spectral_symbol(0, 1, 1, 8, 4)
        with pytest.raises(ValueError):
            spectral_symbol(1, 1, 5, 8, 4)

    def test_matches_propagator_grid(self):
        n, k = 6, 4
        prop = build_propagator(n, k, 0.5, 0.01, h=1.0)
        for r in (1, 2, 5):
            for s in (1, 3):
                for kk in (1, 2, 4):
                    d = spectral_symbol(r, s, kk, n, k)
                    assert prop.d2h[r - 1, s - 1, kk - 1] == pytest.approx(d * d)


class TestCyclicTridiagonal:
    def test_identity(self):
        rhs = np.array([1.0, -2.0, 3.0, 0.5])
        out = solve_cyclic_tridiagonal(np.ones(4), 0.0, 0.0, rhs)
        np.testing.assert_allclose(out, rhs, atol=1e-14)

    def test_unit_row_sum_system(self):
        # diag 3, off -1, corner -1: rows sum to 1 so the solution of
        # A x = ones is ones
        out = solve_cyclic_tridiagonal(np.full(3, 3.0), -1.0, -1.0, np.ones(3))
        np.testing.assert_allclose(out, np.ones(3), atol=1e-14)

    def test_random_spd_matches_dense(self):
        rng = np.random.default_rng(7)
        k = 8
        for _ in range(5):
            off = rng.standard_normal(k - 1)
            corner = float(rng.standard_normal())
            diag = np.abs(rng.standard_normal(k)) + 2.0 * (
                np.abs(np.r_[off, corner]) + np.abs(np.r_[corner, off])
            )
            rhs = rng.standard_normal(k)
            dense = np.diag(diag)
            dense[np.arange(k - 1), np.arange(1, k)] = off
            dense[np.arange(1, k), np.arange(k - 1)] = off
            dense[0, -1] = dense[-1, 0] = corner
            expected = np.linalg.solve(dense, rhs)
            got = solve_cyclic_tridiagonal(diag, off, corner, rhs)
            assert np.linalg.norm(got - expected) < 1e-12 * np.linalg.norm(rhs)

    def test_needs_three_entries(self):
        with pytest.raises(ValueError):
            solve_cyclic_tridiagonal(np.ones(2), 0.1, 0.1, np.ones(2))


class TestPropagator:
    def test_mode_matrices_symmetric(self):
        prop = build_propagator(6, 5, 0.8, 0.02)
        for r, s in [(0, 0), (1, 3), (2, 2), (5, 1)]:
            mat = prop.mode_matrix(r, s)
            assert np.abs(mat - mat.T).max() == 0.0

    def test_zero_mode_is_pure_angular(self):
        prop = build_propagator(6, 4, 0.8, 0.02)
        mat = prop.mode_matrix(0, 0)
        g = np.arange(4.0)
        np.testing.assert_allclose(
            mat @ g, angular_second_difference(g, 0.8, math.pi / 4), atol=1e-12
        )

    def test_cn_step_eigenvalues_stable(self):
        prop = build_propagator(6, 6, 0.7, 0.05)
        for r, s in [(0, 0), (1, 2), (3, 3)]:
            b = prop.mode_matrix(r, s)
            m_minus = np.eye(6) - 0.5 * prop.dtau * b
            m_plus = np.eye(6) + 0.5 * prop.dtau * b
            vals = np.linalg.eigvals(np.linalg.solve(m_minus, m_plus))
            assert np.all(np.abs(vals) <= 1.0 + 1e-12)
            assert np.all(vals.real > -1.0)


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
        spec = heat_evolve(self.a, self.prop, 0.3)
        step = heat_evolve(self.a, self.prop, 0.3, method="stepping")
        assert np.linalg.norm(spec - step) < 1e-10 * np.linalg.norm(spec)

    def test_semigroup(self):
        for method in ("spectral", "stepping"):
            ab = heat_evolve(
                heat_evolve(self.a, self.prop, 0.2, method), self.prop, 0.3, method
            )
            full = heat_evolve(self.a, self.prop, 0.5, method)
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

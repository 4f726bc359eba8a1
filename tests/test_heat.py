import math

import numpy as np
import pytest
from scipy.fft import irfft2, rfft2
from scipy.linalg import expm

from srcortex import ModelConfig, build_propagator, heat_evolve, kernel_column
from srcortex import heat
from srcortex.heat import (
    SINGLE_FLUSH,
    _evolve_batch,
    _sines,
    _symmetry_classes,
    mode_product_buffer,
)

# (N, K): odd and even K, odd N and N mod 4 = 0 and 2
GRIDS = [(4, 2), (3, 3), (7, 5), (6, 6), (10, 4), (8, 16)]


def angular_second_difference(g, beta: float, dtheta: float) -> np.ndarray:
    """Periodic second difference along the last axis, scaled by beta^2/dtheta^2."""
    g = np.asarray(g, dtype=float)
    coeff = beta**2 / dtheta**2
    return coeff * (np.roll(g, 1, axis=-1) - 2.0 * g + np.roll(g, -1, axis=-1))


def full_symbol(n, k):
    """``d[r, s, k]^2 / h^2`` on every (N, N) mode, the reference for ``prop.d2h``.

    ``d = cos(theta_k) S[r] + sin(theta_k) S[s]`` with ``build_propagator``'s
    sines, broadcast over the whole grid; the propagator keeps only the
    rows of its canonical generators.
    """
    _, sines = _sines(n)
    theta = np.arange(k) * (math.pi / k)
    d = (
        np.cos(theta)[None, None, :] * sines[:, None, None]
        + np.sin(theta)[None, None, :] * sines[None, :, None]
    )
    h = 1.0 / math.sqrt(n)
    return (d / h) ** 2


def dense_generator(n, k, beta):
    """Independent dense assembly of the semi-discrete operator.

    Built straight from the finite differences (directional central
    difference applied twice plus the periodic angular stencil), never
    touching the Fourier path under test.  The spatial step is
    ``build_propagator``'s h = 1/sqrt(N).
    """
    h = 1.0 / math.sqrt(n)

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


def grid_entry(prop, r, s):
    """Index of half-spectrum mode (r, s) on the propagator's distinct grid."""
    for rows, cols, us, vs in prop.pieces:
        if rows.start <= r < rows.stop and cols.start <= s < cols.stop:
            return (
                us.start + (r - rows.start) * us.step,
                vs.start + (s - cols.start) * vs.step,
            )
    raise ValueError(f"mode ({r}, {s}) lies in no piece")


def expanded(prop, table):
    """A distinct-grid table expanded to every (N, N//2+1) half-spectrum mode."""
    n = prop.n_pixels
    return np.array(
        [[table[grid_entry(prop, r, s)] for s in range(n // 2 + 1)] for r in range(n)]
    )


def distinct_eigenpairs(prop):
    """Eigenvalues (U, V, K) and eigenvectors (U, V, K, K) of every distinct generator.

    Each takes its canonical generator's eigenpairs, the eigenvectors'
    rows (orientations) permuted by its orientation map.
    """
    perm = prop.maps[prop.map_index]
    return prop.eigvals[prop.canon], prop.eigvecs[prop.canon[..., None], perm]


def factored_generator(prop, r, s):
    """Mode (r, s) generator rebuilt from its distinct eigenpairs."""
    vals, vecs = (x[grid_entry(prop, r, s)] for x in distinct_eigenpairs(prop))
    return (vecs * vals) @ vecs.T


def distinct_generators(prop):
    """Every distinct generator of the grid, assembled from a mode it serves."""
    k = prop.n_orient
    ang = angular_second_difference(np.eye(k), prop.beta, math.pi / k)
    symbol = full_symbol(prop.n_pixels, k)
    d2h = np.empty(prop.canon.shape + (k,))
    for rows, cols, us, vs in prop.pieces:
        d2h[us, vs] = symbol[rows, cols]
    return ang - d2h[..., None] * np.eye(k)


def assembled_generator(prop, symbol, r, s):
    """Mode (r, s) generator from the angular stencil and the ``full_symbol`` table."""
    k = prop.n_orient
    ang = angular_second_difference(np.eye(k), prop.beta, math.pi / k)
    return ang - np.diag(symbol[r, s])


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
    """``full_symbol(n, k)[r, s, k] = (d / h)^2`` with the directional-difference
    symbol ``d = cos(theta_k) sin(2 pi r / N) + sin(theta_k) sin(2 pi s / N)``
    and the grid spacing h = 1/sqrt(N); ``prop.d2h`` holds its canonical rows."""

    def test_dc_mode_is_zero(self):
        np.testing.assert_array_equal(full_symbol(8, 4)[0, 0], 0.0)

    def test_vertical_orientation_kills_first_axis(self):
        # theta = pi/2 (index K/2): the cos factor vanishes on first-axis modes
        assert np.abs(full_symbol(8, 4)[:, 0, 2]).max() == pytest.approx(0.0, abs=1e-15)

    def test_direct_evaluation(self):
        # N=4, h=1/2, mode (1, 0), theta=0 -> sin(pi/2)^2 / h^2 = 4
        assert full_symbol(4, 4)[1, 0, 0] == pytest.approx(4.0)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            build_propagator(1, 4, 0.5, 0.01)
        with pytest.raises(ValueError):
            build_propagator(8, 1, 0.5, 0.01)

    def test_matches_propagator_grid(self):
        n, k = 6, 4
        symbol = full_symbol(n, k)
        h = 1.0 / math.sqrt(n)
        for r in (0, 1, 4):
            for s in (0, 2):
                for kk in (0, 1, 3):
                    theta = kk * math.pi / k
                    d = math.cos(theta) * math.sin(2 * math.pi * r / n) + math.sin(
                        theta
                    ) * math.sin(2 * math.pi * s / n)
                    assert symbol[r, s, kk] == pytest.approx((d / h) ** 2)

    @pytest.mark.parametrize("n", [6, 8, 10, 100])
    def test_bitwise_symmetric(self, n):
        # S[N/2 - j] = S[j]: mode r and N/2 - r share one generator
        d2h = full_symbol(n, 16)
        for r in range(n):
            np.testing.assert_array_equal(d2h[(n // 2 - r) % n], d2h[r])
        for s in range(n // 2 + 1):
            np.testing.assert_array_equal(d2h[:, n // 2 - s], d2h[:, s])

    @pytest.mark.parametrize("n, k", [(100, 16), (200, 16), (200, 15), (101, 16), (64, 15),
                                      (32, 8)])
    def test_propagator_keeps_the_canonical_rows_and_their_factoring(self, n, k):
        # prop.d2h is the full table on the canonical pairs, bit for bit, and
        # factoring the generators built from the full table, stacked up
        # front and in one eigh call, gives the propagator's eigenpairs bit
        # for bit; gathering their operators through an int64 (U V, K) table
        # of orientation maps gives its operators
        beta = ModelConfig.beta_for(n, k)
        prop = build_propagator(n, k, beta, 0.01)
        q, _ = _sines(n)
        cols, s_first = np.unique(q[: n // 2 + 1], return_index=True)
        pairs, canon, map_index, maps = _symmetry_classes(np.unique(q), cols, k)
        d2h = full_symbol(n, k)[s_first[pairs[0]], s_first[pairs[1]]]
        assert prop.d2h.shape == (len(pairs[0]), k)
        np.testing.assert_array_equal(prop.d2h, d2h)
        generators = angular_second_difference(np.eye(k), beta, math.pi / k) - (
            d2h[:, :, None] * np.eye(k)
        )
        vals, vecs = np.linalg.eigh(generators)
        np.minimum(vals, 0.0, out=vals)
        assert prop.eigvals.shape == (len(pairs[0]), k)
        assert prop.eigvecs.shape == (len(pairs[0]), k, k)
        np.testing.assert_array_equal(prop.eigvals, vals)
        np.testing.assert_array_equal(prop.eigvecs, vecs)
        np.testing.assert_array_equal(prop.canon, canon)
        np.testing.assert_array_equal(prop.map_index, map_index)
        np.testing.assert_array_equal(prop.maps, maps)
        perm = maps[map_index].reshape(-1, k)
        index = canon.ravel()[:, None, None], perm[:, :, None], perm[:, None, :]
        z = 0.5 * prop.dtau * vals
        for m in (1, 500):
            rho = ((1.0 + z) / (1.0 - z)) ** m
            double = (vecs * rho[:, None, :]) @ np.swapaxes(vecs, -1, -2)
            single = double.astype(np.float32)
            single[np.abs(single) < SINGLE_FLUSH] = 0.0
            shape = canon.shape + (k, k)
            assert prop.float64_propagator(m).tobytes() == double[index].reshape(shape).tobytes()
            assert prop.propagator(m).tobytes() == single[index].reshape(shape).tobytes()


class TestPropagator:
    def test_mode_matrices_symmetric(self):
        prop = build_propagator(6, 5, 0.8, 0.02)
        symbol = full_symbol(6, 5)
        for r, s in [(0, 0), (1, 3), (2, 2), (5, 1)]:
            mat = assembled_generator(prop, symbol, r, s)
            assert np.abs(mat - mat.T).max() == 0.0
            vecs = distinct_eigenpairs(prop)[1][grid_entry(prop, r, s)]
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
        step = cn_step_matrix(dense_generator(n, k, prop.beta), prop.dtau)
        vals = np.linalg.eigvalsh(0.5 * (step + step.T))
        assert np.all(np.abs(vals) <= 1.0 + 1e-12)
        assert np.all(vals > -1.0)
        ratios = expanded(prop, prop.step_ratios(1)[prop.canon])
        full = [
            ratios[r, s] if s <= n // 2 else ratios[-r % n, n - s]
            for r in range(n)
            for s in range(n)
        ]
        np.testing.assert_allclose(np.sort(vals), np.sort(np.ravel(full)), atol=1e-12)

    @pytest.mark.parametrize("n, k", GRIDS, ids=[str(n) for n, _ in GRIDS])
    def test_every_mode_rebuilt_from_its_distinct_eigenpairs(self, n, k):
        # the pieces tile the half spectrum once, and each mode's generator
        # comes back from the eigenpairs its canonical generator lends it
        prop = build_propagator(n, k, 0.8, 0.02)
        covered = np.zeros((n, n // 2 + 1), dtype=int)
        for rows, cols, _, _ in prop.pieces:
            covered[rows, cols] += 1
        np.testing.assert_array_equal(covered, 1)
        symbol = full_symbol(n, k)
        for r in range(n):
            for s in range(n // 2 + 1):
                mat = assembled_generator(prop, symbol, r, s)
                np.testing.assert_allclose(
                    factored_generator(prop, r, s), mat, rtol=0.0,
                    atol=1e-12 * np.abs(mat).max(),
                )

    @pytest.mark.parametrize("n, k", GRIDS + [(100, 16)])
    def test_every_distinct_eigenbasis_orthonormal(self, n, k):
        _, vecs = distinct_eigenpairs(build_propagator(n, k, 0.8, 0.02))
        gram = np.swapaxes(vecs, -1, -2) @ vecs
        assert np.abs(gram - np.eye(k)).max() <= 1e-12

    @pytest.mark.parametrize("n, k", [(200, 16), (200, 15), (100, 16), (31, 9), (30, 8),
                                      (7, 5)])
    def test_operator_equals_multiplying_out_every_distinct_generator(self, n, k):
        # oracle: each distinct generator's own eigenpairs, multiplied out as
        # V diag(rho^m) V^T; permuting the canonical operator gives the same
        # bits, in float64 and in the flushed float32 operator
        prop = build_propagator(n, k, ModelConfig.beta_for(n, k), 0.01)
        vals, vecs = distinct_eigenpairs(prop)
        z = 0.5 * prop.dtau * vals
        for m in (1, 500):
            rho = ((1.0 + z) / (1.0 - z)) ** m
            expected = (vecs * rho[..., None, :]) @ np.swapaxes(vecs, -1, -2)
            np.testing.assert_array_equal(prop.float64_propagator(m), expected)
            single = expected.astype(np.float32)
            single[np.abs(single) < SINGLE_FLUSH] = 0.0
            np.testing.assert_array_equal(prop.propagator(m), single)

    @pytest.mark.parametrize("beta", [ModelConfig.beta_for(100, 16), 0.05])
    def test_matches_factoring_every_distinct_generator(self, beta):
        # oracle: eigh on each distinct generator, no symmetry used
        prop = build_propagator(100, 16, beta, 0.01)
        vals, vecs = np.linalg.eigh(distinct_generators(prop))
        z = 0.5 * prop.dtau * np.minimum(vals, 0.0)
        for m in (1, 500):
            rho = ((1.0 + z) / (1.0 - z)) ** m
            expected = (vecs * rho[..., None, :]) @ np.swapaxes(vecs, -1, -2)
            assert np.abs(prop.float64_propagator(m) - expected).max() <= 1e-11

    @pytest.mark.parametrize("n, k, factored", [
        (200, 16, 1326),  # 51 angles a per axis: a <= b under the axis swap
        (200, 15, 2601),  # odd K: no axis swap, 51 x 51
        (100, 16, 351),
        (7, 5, 16),
    ])
    def test_factors_one_generator_per_symmetry_class(self, monkeypatch, n, k, factored):
        eigh, sizes = np.linalg.eigh, []

        def counted(mats):
            sizes.append(math.prod(mats.shape[:-2]))
            return eigh(mats)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        build_propagator(n, k, 0.05, 0.01)
        assert sum(sizes) == factored  # in contiguous parts, one call each

    @pytest.mark.parametrize("n", [3, 7, 101, 199, 8, 10, 200])
    def test_mirrored_modes_have_negated_sines_bitwise(self, n):
        q, sines = _sines(n)
        j = np.arange(n)
        np.testing.assert_array_equal(q[(n - j) % n], -q[j])
        np.testing.assert_array_equal(sines[(n - j) % n], -sines[j])
        d2h = full_symbol(n, 4)
        np.testing.assert_array_equal(d2h[(n - j) % n][:, (n - j) % n], d2h)

    def test_paper_size_factors_distinct_generators_only(self):
        prop = build_propagator(200, 16, 0.05, 0.01)
        assert prop.canon.shape == (101, 51) and prop.map_index.shape == (101, 51)
        assert prop.map_index.dtype == np.uint8 and prop.maps.shape == (4, 16)
        assert prop.eigvals.shape == (1326, 16)
        assert prop.eigvecs.shape == (1326, 16, 16)
        assert prop.propagator(1).shape == (101, 51, 16, 16)


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
        mat = dense_generator(8, 4, self.prop.beta)
        expected = (expm(0.5 * mat) @ self.a.ravel()).reshape(8, 8, 4)
        got = heat_evolve(self.a, self.prop, 0.5)
        rel = np.linalg.norm(got - expected) / np.linalg.norm(expected)
        assert rel < 1e-3

    @pytest.mark.parametrize("n", [8, 10, 7])
    def test_spectral_equals_stepping(self, n):
        # 30 literal Crank-Nicolson steps of the dense generator
        prop = build_propagator(n, 4, 0.5, 0.01)
        a = np.random.default_rng(42).standard_normal((n, n, 4))
        mat = dense_generator(n, 4, prop.beta)
        step = np.linalg.matrix_power(cn_step_matrix(mat, prop.dtau), 30)
        expected = (step @ a.ravel()).reshape(n, n, 4)
        spec = heat_evolve(a, prop, 0.3)
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
        # reference: the propagator, expanded to every mode, applied to the
        # real and imaginary parts of the spectrum as two separate products
        prop = build_propagator(16, 8, 0.5, 0.01)
        stacks = np.random.default_rng(43).random((16, 16, 8, batch))
        pm = expanded(prop, prop.float64_propagator(30))
        hats = rfft2(stacks, axes=(0, 1))
        split = irfft2(pm @ hats.real + 1j * (pm @ hats.imag), s=(16, 16), axes=(0, 1))
        got = _evolve_batch(stacks, prop, 30)
        assert np.abs(got - split).max() <= rtol * np.abs(split).max()


class TestProductBuffer:
    @pytest.mark.parametrize("dtype, rtol", [(np.float64, 1e-12), (np.float32, 1e-6)])
    @pytest.mark.parametrize("m", [0, 30])
    def test_held_buffer_matches_a_new_one(self, dtype, rtol, m):
        # the LHE layout: the batch on the leading axis of the memory, evolved
        # through the trailing-axis view, with a mode-product buffer held by
        # the caller and reused from call to call
        prop = build_propagator(12, 8, 0.5, 0.01)
        powers = np.random.default_rng(45).random((5, 12, 12, 8)).astype(dtype)
        stacks = np.moveaxis(powers, 0, -1)
        expected = _evolve_batch(stacks, prop, m)
        product = mode_product_buffer(prop, 5, dtype)
        assert product.shape == (12, 7, 8, 5) and product.flags.c_contiguous
        product.fill(np.nan)
        for _ in range(2):
            got = _evolve_batch(stacks, prop, m, product)
            assert got.dtype == expected.dtype == dtype
            assert not np.shares_memory(got, product) and not np.shares_memory(got, stacks)
            assert np.abs(got - expected).max() <= rtol * np.abs(expected).max()


def per_piece_evolution(stack, prop, m):
    """One (N, N, K) stack evolved with one (K, K) @ (K, 2) product per mode."""
    pm = prop.propagator(m) if stack.dtype == np.float32 else prop.float64_propagator(m)
    spec = rfft2(stack, axes=(0, 1))[..., None]
    out = np.empty_like(spec)
    for rows, cols, us, vs in prop.pieces:
        np.matmul(pm[us, vs], spec.view(stack.dtype)[rows, cols],
                  out=out.view(stack.dtype)[rows, cols])
    return heat.irfft2(out, prop.n_pixels)[..., 0]


class TestGroupedProduct:
    """The half spectrum grouped into the blocks of ``pieces``, one batched matmul each."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("n, k", GRIDS + [(9, 16), (100, 16)])
    def test_matches_the_per_piece_product(self, n, k, dtype):
        # one stack takes the blocks as a batch does: float32, the runs'
        # dtype, bit for bit; float64, which the runs never evolve, to
        # roundoff (it reads equal bit for bit too)
        prop = build_propagator(n, k, 0.3, 0.01)
        stack = np.random.default_rng(46).random((n, n, k)).astype(dtype)
        got = _evolve_batch(stack[..., None], prop, 30)[..., 0]
        expected = per_piece_evolution(stack, prop, 30)
        assert got.dtype == expected.dtype == dtype
        if dtype == np.float32:
            np.testing.assert_array_equal(got, expected)
        else:
            np.testing.assert_allclose(got, expected, rtol=0.0,
                                       atol=16 * np.finfo(dtype).eps * np.abs(expected).max())

    @pytest.mark.parametrize("n, k", GRIDS + [(100, 16), (200, 16), (101, 15)])
    def test_pieces_tile_the_half_spectrum_once(self, n, k):
        # each mode lies in one piece, which takes its generator on the
        # distinct grid in strides of +1 or -1 along both axes
        prop = build_propagator(n, k, 0.3, 0.01)
        q, _ = _sines(n)
        r_grid = np.unique(q, return_inverse=True)[1]
        s_grid = np.unique(q[: n // 2 + 1], return_inverse=True)[1]
        covered = np.zeros((n, n // 2 + 1), dtype=int)
        for rows, cols, us, vs in prop.pieces:
            assert us.step in (1, -1) and vs.step in (1, -1)
            covered[rows, cols] += 1
            np.testing.assert_array_equal(np.arange(prop.canon.shape[0])[us], r_grid[rows])
            np.testing.assert_array_equal(np.arange(prop.canon.shape[1])[vs], s_grid[cols])
        np.testing.assert_array_equal(covered, 1)
        # even N: three row runs (up, down, up) by two column runs; odd N:
        # two row runs by one column run
        if n in (100, 200, 101):
            assert len(prop.pieces) == (2 if n % 2 else 6)


class TestSinglePrecision:
    @pytest.fixture(scope="class")
    def prop(self):
        n, k = 32, 16
        return build_propagator(n, k, ModelConfig.beta_for(n, k), 0.01)

    def test_propagator_has_no_subnormal_entries(self, prop):
        single = prop.propagator(125)
        assert single.dtype == np.float32
        nonzero = np.abs(single[single != 0.0])
        assert SINGLE_FLUSH == np.finfo(np.float32).eps ** 2
        assert nonzero.min() >= SINGLE_FLUSH > np.finfo(np.float32).tiny
        # flushed entries only; the rest is the float64 operator, rounded
        kept = single != 0.0
        np.testing.assert_array_equal(
            single[kept], prop.float64_propagator(125).astype(np.float32)[kept])

    def test_propagator_cached_without_the_float64_one_it_built(self, prop):
        # a float32 run holds one operator; a float64 one cached before stays
        assert prop.propagator(60) is prop.propagator(60)
        assert ("float64", 60) not in prop._prop_cache
        exact = prop.float64_propagator(90)
        assert prop.propagator(90) is prop.propagator(90)
        assert prop._prop_cache[("float64", 90)] is exact

    def test_evolution_keeps_the_dtype(self, prop):
        stacks = np.random.default_rng(44).random((32, 32, 16, 3))
        exact = _evolve_batch(stacks, prop, 125)
        single = _evolve_batch(stacks.astype(np.float32), prop, 125)
        assert exact.dtype == np.float64 and single.dtype == np.float32
        assert np.abs(single - exact).max() <= 1e-5 * np.abs(exact).max()


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


@pytest.mark.parametrize("n,tau", [(64, 1.25), (64, 5.0), (100, 1.25), (100, 5.0)])
def test_default_coupling_strength(n, tau):
    # at the default beta the angular term is weak: over tau the source
    # orientation loses 2 tau beta^2/dtheta^2 of its mass (about 8e-5 to
    # 2e-3 here), as the heat module docstring states
    k, k0 = 16, 3
    beta = ModelConfig.beta_for(n, k)
    col = kernel_column(build_propagator(n, k, beta, 0.01), n // 2, n // 2, k0, tau)
    left = 1.0 - col[:, :, k0].sum()
    assert left == pytest.approx(2.0 * tau * beta**2 / (math.pi / k) ** 2, rel=0.02)

import dataclasses
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.ndimage import gaussian_filter

import srcortex
from srcortex import (
    ModelConfig,
    build_cake_bank,
    build_propagator,
    fit_polynomial,
    heat_evolve,
    kernel_column,
    lift,
    local_mean,
    model_drift,
    project,
)
from srcortex import dynamics
from srcortex.core import BLOCK, as_stack, relative_change
from srcortex.dynamics import (
    _combine,
    _evolved_powers,
    _fidelity_constant,
    _forcing,
    _horner,
    _interaction,
    _primitive_coeffs,
    _weights,
    gd_step,
    lhe_energy,
    run_model,
    sigmoid,
    sigmoid_hat,
)
from srcortex.experiment import _write_trace
from srcortex.heat import mode_product_buffer
from srcortex.stimuli import StimulusSpec, poggendorff_gratings


def expand_coefficients(a, poly):
    """Coefficient fields C_i with sum_i C_i(xi) b^i = poly(a(xi) - b).

    The binomial expansion of ``sum_j c_j (a(xi) - a(eta))^j`` collected
    by powers of ``a(eta)``: ``C_i = sum_p W[p, i] a^p``.
    """
    a = as_stack(a)
    weights = _weights(poly.coeffs)
    return [_horner(a, weights[:, i]) for i in range(len(weights))]


def wc_interaction(a, prop, tau, alpha):
    """Heat evolution of the voxelwise activity sigmoid, in float64."""
    return heat_evolve(sigmoid(a, alpha), prop, tau)


def lhe_interaction(a, prop, tau, poly):
    """Kernel average of the polynomial contrast sigmoid, in float64.

    Computes ``sum_i C_i(xi) * exp(tau L)[a^i](xi)``; the zeroth power
    evolves to the constant 1 and is folded in directly.
    """
    a = as_stack(a)
    n = len(poly.coeffs) - 1
    powers = np.empty((n,) + a.shape)
    product = mode_product_buffer(prop, n, a.dtype)
    evolved = _evolved_powers(a, powers, prop, tau, product)
    prim = _primitive_coeffs(poly.coeffs)
    return _combine(a, _weights(poly.coeffs), evolved, np.zeros_like(a), prim, product)[0]


def unblocked_combine(a, weights, evolved):
    """The interaction and the energy's H from full-size rows ``R = W[:, 1:] E^T + W[:, :1]``.

    One row per degree over the whole stack, then Horner in ``a`` over
    R for the interaction and over ``R_q / (q + 1)`` for H.
    """
    nmax = evolved.shape[-1]
    weights = weights.astype(a.dtype, copy=False)
    rows = np.matmul(weights[:, 1:], evolved.reshape(-1, nmax).T)
    rows += weights[:, :1]
    rows = rows.reshape((len(weights),) + a.shape)
    h = rows[-1] / len(rows)
    for q in range(len(rows) - 2, -1, -1):
        h *= a
        h += rows[q] / (q + 1)
    return _horner(a, rows), h


def energy_reference(a, a0, mu, cfg, prop):
    """The LHE energy with every power up to the primitive's degree evolved.

    The kernel double sum ``sum K(xi, eta) Sigma(a(xi) - a(eta))``
    expanded binomially voxel by voxel, each ``K[a^i]`` a separate
    float64 evolution, then summed.
    """
    prim = _primitive_coeffs(fit_polynomial(cfg.alpha, cfg.poly_degree).coeffs)
    evolved = [np.ones_like(a)] + [heat_evolve(a**i, prop, cfg.tau)
                                   for i in range(1, len(prim))]
    field = sum(prim[j] * math.comb(j, i) * (-1.0) ** i * a ** (j - i) * evolved[i]
                for j in range(len(prim)) for i in range(j + 1))
    w_a0, w_mu = (cfg.lam, 1.0) if cfg.forcing == "continuous" else (1.0, cfg.lam)
    return (0.5 * w_a0 * ((a - a0) ** 2).sum() + 0.5 * w_mu * ((a - mu) ** 2).sum()
            - field.sum() / 4.0)


def evaluation(cfg, prop, a0, mu, dtype=np.float64):
    """``_interaction`` for the state-free arrays a0 and mu: their forcing and constant."""
    return _interaction(cfg, prop, _forcing(cfg, a0, mu), _fidelity_constant(cfg, a0, mu), dtype)


def gd_reference(f0, cfg, bank, prop):
    """The plain descent loop: a <- G(a) until |G(a) - a| / |G(a)| < tol.

    Evaluates the kernel terms in ``run_model``'s dtype.  Returns the
    final stack, the number of steps and the relative changes.
    """
    a0 = lift(f0, bank)
    mu = local_mean(a0, cfg.sigma_mu)
    forcing = _forcing(cfg, a0, mu)
    interaction = evaluation(cfg, prop, a0, mu, dynamics.RUN_DTYPE)
    a, rel_history = a0, []
    for _ in range(cfg.max_iters):
        inter, _ = interaction(a)
        new_a = gd_step(a, forcing, inter, cfg)
        rel_history.append(relative_change(new_a, a))
        a = new_a
        if rel_history[-1] < cfg.tol:
            break
    return a, len(rel_history), rel_history


class TestSigmoids:
    def test_sigmoid_anchors(self):
        assert sigmoid(0.5, 20.0) == 0.0
        assert sigmoid(0.0, 20.0) == 1.0
        assert sigmoid(1.0, 20.0) == -1.0

    def test_sigmoid_nonincreasing(self):
        r = np.linspace(-2, 3, 501)
        assert np.all(np.diff(sigmoid(r, 5.0)) <= 0.0)

    def test_sigmoid_hat_anchors(self):
        alpha = 8.0
        assert sigmoid_hat(0.0, alpha) == 0.0
        assert sigmoid_hat(1.0 / alpha, alpha) == 1.0

    def test_sigmoid_hat_odd(self):
        r = np.linspace(-2, 2, 10001)
        np.testing.assert_array_equal(sigmoid_hat(r, 6.0), -sigmoid_hat(-r, 6.0))

    def test_hat_is_shifted_negated_sigmoid(self):
        r = np.linspace(-3, 3, 10001)
        np.testing.assert_array_equal(sigmoid_hat(r, 7.0), -sigmoid(r + 0.5, 7.0))

    @pytest.mark.parametrize("alpha", [6.0, 20.0])
    def test_sigmoid_keeps_float32(self, alpha):
        # unclamped inputs lie within 1/alpha of 1/2, where r - 1/2 is exact
        # (Sterbenz), and alpha (r - 1/2) is exact in float64 for these
        # slopes: the float32 result is the float64 one, rounded
        r = 0.5 + np.random.default_rng(15).uniform(-1.5, 1.5, 10001) / alpha
        single, double = r.astype(np.float32), r.astype(np.float32).astype(np.float64)
        got, exact = sigmoid(single, alpha), sigmoid(double, alpha)
        assert (got.dtype, exact.dtype) == (np.float32, np.float64)
        np.testing.assert_array_equal(got, exact.astype(np.float32))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_sigmoid_into_out_matches_a_new_array(self, dtype):
        # the WC evaluation clamps its kept stack in place
        r = np.random.default_rng(16).uniform(-1.0, 2.0, (8, 8, 4)).astype(dtype)
        expected = sigmoid(r, 6.0)
        out = np.full_like(r, np.nan)
        assert sigmoid(r, 6.0, out=out) is out
        np.testing.assert_array_equal(out, expected)
        assert sigmoid(r, 6.0, out=r) is r
        np.testing.assert_array_equal(r, expected)


class TestPolynomialFit:
    def test_alpha8_degree9_regression(self):
        poly = fit_polynomial(8.0, 9)
        # frozen value of the plain least-squares fit; the corner of the
        # clamp bounds how well any degree-9 polynomial can do (minimax
        # is ~0.26), so the error is recorded rather than assumed small
        assert poly.sup_error == pytest.approx(0.3036943705, abs=1e-6)
        assert poly.sup_error < 0.35

    def test_degree_one_positive_slope(self):
        poly = fit_polynomial(4.0, 1)
        assert poly.coeffs[1] > 0.0
        assert poly.coeffs[0] == 0.0

    def test_fit_is_odd(self):
        poly = fit_polynomial(6.0, 7)
        assert np.all(poly.coeffs[0::2] == 0.0)
        r = np.linspace(-1, 1, 101)
        vals = np.polyval(poly.coeffs[::-1], r)
        np.testing.assert_allclose(vals, -vals[::-1], atol=1e-12)

    def test_rejects_bad_degrees(self):
        with pytest.raises(ValueError):
            fit_polynomial(5.0, 4)
        with pytest.raises(ValueError):
            fit_polynomial(5.0, 17)

    @pytest.mark.parametrize("alpha,degree", [(1.0, 9), (6.0, 4), (6.0, 17), (6.0, -1)])
    def test_config_and_fit_reject_alike(self, alpha, degree):
        with pytest.raises(ValueError) as from_fit:
            fit_polynomial(alpha, degree)
        with pytest.raises(ValueError) as from_config:
            ModelConfig(model="lhe", lam=2.0, alpha=alpha, sigma_mu=1.0, dt=0.15,
                        dtau=0.01, tau=0.1, poly_degree=degree)
        assert str(from_config.value) == str(from_fit.value)


class TestExpandCoefficients:
    def test_degree_one_identity(self):
        from srcortex.dynamics import PolyCoeffs

        poly = PolyCoeffs(np.array([0.0, 1.0]), 0.0)
        a = np.random.default_rng(0).random((3, 3, 2))
        c0, c1 = expand_coefficients(a, poly)
        np.testing.assert_allclose(c0, a)
        np.testing.assert_allclose(c1, -1.0)

    def test_binomial_reconstruction(self):
        rng = np.random.default_rng(1)
        a = rng.random((4, 4, 3))
        poly = fit_polynomial(5.0, 3)
        fields = expand_coefficients(a, poly)
        for b in rng.random(8):
            lhs = sum(fields[i] * b**i for i in range(len(fields)))
            rhs = np.polyval(poly.coeffs[::-1], a - b)
            assert np.abs(lhs - rhs).max() < 1e-12

    def test_primitive_table_is_the_combine_table_shifted(self):
        # W_Sigma[p, i] = W[p - 1, i] / p: the energy reuses the combine's rows
        for coeffs in (fit_polynomial(6.0, 5).coeffs, fit_polynomial(8.0, 9).coeffs):
            w = _weights(coeffs)
            p = np.arange(1, len(w) + 1)[:, None]
            np.testing.assert_allclose(_weights(_primitive_coeffs(coeffs))[1:, :-1],
                                       w / p, rtol=1e-14, atol=0.0)

    def test_zero_stack(self):
        poly = fit_polynomial(3.0, 5)
        fields = expand_coefficients(np.zeros((2, 2, 2)), poly)
        for i, f in enumerate(fields):
            np.testing.assert_allclose(f, poly.coeffs[i] * (-1.0) ** i)

    def test_weight_table_expands_polynomial(self):
        rng = np.random.default_rng(12)
        for coeffs in (fit_polynomial(6.0, 9).coeffs,
                       _primitive_coeffs(fit_polynomial(6.0, 9).coeffs)):
            w = _weights(coeffs)
            n = len(coeffs) - 1
            assert np.all(w[np.add.outer(np.arange(n + 1), np.arange(n + 1)) > n] == 0.0)
            for x, y in rng.uniform(-1.0, 1.0, (8, 2)):
                lhs = x ** np.arange(n + 1) @ w @ y ** np.arange(n + 1)
                rhs = np.polyval(coeffs[::-1], x - y)
                assert abs(lhs - rhs) < 1e-12


@pytest.fixture(scope="module")
def small_prop():
    return build_propagator(6, 3, 0.5, 0.01)


@pytest.fixture(scope="module")
def small_kernel(small_prop):
    n, k = 6, 3
    dim = n * n * k
    mat = np.empty((dim, dim))
    for idx in range(dim):
        i, j, kk = np.unravel_index(idx, (n, n, k))
        mat[:, idx] = kernel_column(small_prop, i, j, kk, 0.1).ravel()
    return mat


class TestInteractions:
    def test_wc_neutral_activation(self, small_prop):
        a = np.full((6, 6, 3), 0.5)
        np.testing.assert_allclose(wc_interaction(a, small_prop, 0.1, 20.0), 0.0)

    def test_wc_saturated_constant(self, small_prop):
        a = np.ones((6, 6, 3))
        np.testing.assert_allclose(
            wc_interaction(a, small_prop, 0.1, 20.0), -1.0, atol=1e-12
        )

    def test_wc_rejects_non_finite_stack(self, small_prop):
        a = np.full((6, 6, 3), 0.5)
        a[1, 2, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            wc_interaction(a, small_prop, 0.1, 20.0)

    def test_wc_matches_kernel_sum(self, small_prop, small_kernel):
        rng = np.random.default_rng(2)
        a = rng.random((6, 6, 3))
        expected = (small_kernel @ sigmoid(a, 6.0).ravel()).reshape(6, 6, 3)
        got = wc_interaction(a, small_prop, 0.1, 6.0)
        assert np.abs(got - expected).max() < 1e-8

    def test_lhe_constant_zero_contrast(self, small_prop):
        poly = fit_polynomial(6.0, 5)
        a = np.full((6, 6, 3), 0.42)
        np.testing.assert_allclose(
            lhe_interaction(a, small_prop, 0.1, poly), 0.0, atol=1e-12
        )

    @pytest.mark.parametrize("degree", [3, 5])
    def test_lhe_matches_kernel_double_sum(self, small_prop, small_kernel, degree):
        rng = np.random.default_rng(3)
        a = rng.random((6, 6, 3))
        poly = fit_polynomial(6.0, degree)
        flat = a.ravel()
        contrast = flat[:, None] - flat[None, :]
        expected = (small_kernel * np.polyval(poly.coeffs[::-1], contrast)).sum(
            axis=1
        ).reshape(6, 6, 3)
        got = lhe_interaction(a, small_prop, 0.1, poly)
        assert np.abs(got - expected).max() < 1e-8

    def test_lhe_flip_antisymmetry(self, small_prop):
        rng = np.random.default_rng(4)
        a = rng.random((6, 6, 3))
        poly = fit_polynomial(6.0, 5)
        flipped = (a.max() + a.min()) - a
        left = lhe_interaction(flipped, small_prop, 0.1, poly)
        right = -lhe_interaction(a, small_prop, 0.1, poly)
        assert np.abs(left - right).max() < 1e-10


class TestLocalMean:
    def test_constant_unchanged(self):
        a = np.full((8, 8, 2), 0.3)
        np.testing.assert_allclose(local_mean(a, 2.0), 0.3)

    def test_mass_preserved_per_slice(self):
        rng = np.random.default_rng(5)
        a = rng.random((16, 16, 3))
        out = local_mean(a, 1.7)
        for k in range(3):
            assert out[:, :, k].sum() == pytest.approx(
                a[:, :, k].sum(), rel=1e-10
            )

    def test_delta_second_moment(self):
        n, sigma = 33, 2.0
        a = np.zeros((n, n, 1))
        a[n // 2, n // 2, 0] = 1.0
        out = local_mean(a, sigma)[:, :, 0]
        idx = np.arange(n) - n // 2
        m2 = (out * idx[:, None] ** 2).sum() / out.sum()
        assert abs(m2 - sigma**2) / sigma**2 < 0.05

    @pytest.mark.parametrize("sigma", [0.5, 1.0, 6.5, 20.0])
    @pytest.mark.parametrize("n", [8, 9, 32, 100, 200])
    def test_equals_the_wrapped_gaussian_filter(self, n, sigma):
        # oracle: scipy's periodic 4-sigma filter, kernels longer than the
        # axis (n = 8, 9 and 32 at sigma 20) and odd n included
        a = np.random.default_rng(n).random((n, n, 2))
        expected = gaussian_filter(a, (sigma, sigma, 0.0), mode="wrap", truncate=4.0)
        got = local_mean(a, sigma)
        assert got.shape == a.shape and got.dtype == np.float64 and got.flags.c_contiguous
        err = np.abs(got - expected).max()
        assert err <= 1e-13 * np.abs(expected).max()


class TestGdStep:
    @pytest.mark.parametrize("inter_dtype", [np.float32, np.float64])
    def test_matches_the_reference_formula_bitwise(self, inter_dtype):
        cfg = ModelConfig(model="wc", lam=0.7, alpha=2.0, sigma_mu=1.0,
                          dt=0.3, dtau=0.01, tau=0.1)
        rng = np.random.default_rng(9)
        a, forcing = rng.standard_normal((2, 6, 6, 3))
        inter = rng.standard_normal((6, 6, 3)).astype(inter_dtype)
        # the interaction's weight s/2M is 1/2: s = +1, M = 1
        expected = a + cfg.dt * (-(1.0 + cfg.lam) * a + forcing + 0.5 * inter)
        np.testing.assert_array_equal(gd_step(a, forcing, inter, cfg), expected)

    def test_blocks_match_the_unblocked_formula_bitwise(self):
        # 49,152 entries: one full block of the passes and part of a second
        cfg = ModelConfig(model="wc", lam=0.7, alpha=2.0, sigma_mu=1.0,
                          dt=0.3, dtau=0.01, tau=0.1)
        rng = np.random.default_rng(10)
        a, forcing = rng.standard_normal((2, 128, 128, 3))
        inter = rng.standard_normal((128, 128, 3)).astype(np.float32)
        assert a.size > BLOCK
        expected = a + cfg.dt * (-(1.0 + cfg.lam) * a + forcing + 0.5 * inter)
        np.testing.assert_array_equal(gd_step(a, forcing, inter, cfg), expected)

    def test_fixed_point(self):
        cfg = ModelConfig(model="wc", lam=1.5, alpha=2.0, sigma_mu=1.0,
                          dt=0.2, dtau=0.01, tau=0.1)
        rng = np.random.default_rng(6)
        a0 = rng.random((4, 4, 2))
        mu = rng.random((4, 4, 2))
        a = (cfg.lam * a0 + mu) / (1.0 + cfg.lam)
        out = gd_step(a, _forcing(cfg, a0, mu), np.zeros_like(a), cfg)
        np.testing.assert_allclose(out, a, atol=1e-14)

    def test_zero_dt_like_freeze(self):
        # dt is constrained positive; the update must reduce to identity
        # as the drift vanishes
        cfg = ModelConfig(model="wc", lam=0.0, alpha=2.0, sigma_mu=1.0,
                          dt=1.0, dtau=0.01, tau=0.1)
        a = np.random.default_rng(7).random((3, 3, 2))
        out = gd_step(a, _forcing(cfg, a, a), np.zeros_like(a), cfg)
        np.testing.assert_allclose(out, a, atol=1e-14)

    def test_geometric_decay(self):
        cfg = ModelConfig(model="wc", lam=0.0, alpha=2.0, sigma_mu=1.0,
                          dt=0.25, dtau=0.01, tau=0.1)
        a = np.random.default_rng(8).random((3, 3, 2))
        zeros = np.zeros_like(a)
        out = gd_step(a, _forcing(cfg, zeros, zeros), zeros, cfg)
        np.testing.assert_allclose(out, (1.0 - cfg.dt) * a, atol=1e-14)


def _small_gratings(n=48, k=6):
    spec = StimulusSpec(n_pixels=n, bar_width=7, grating_period=6,
                        line_thickness=1.5)
    return poggendorff_gratings(spec), build_cake_bank(n, k, 5)


def _tiny_lhe(scale=1.0, max_iters=500):
    """Arguments of run_model for LHE on 32 x 32 x 8 gratings scaled by ``scale``."""
    spec = StimulusSpec(n_pixels=32, bar_width=8, grating_period=8,
                        line_thickness=3)
    cfg = ModelConfig(model="lhe", lam=2.0, alpha=8.0, sigma_mu=1.0, dt=0.15,
                      dtau=0.01, tau=0.1, forcing="discrete-paper",
                      max_iters=max_iters)
    prop = build_propagator(32, 8, cfg.beta_for(32, 8), cfg.dtau)
    return scale * poggendorff_gratings(spec), cfg, build_cake_bank(32, 8, 5), prop


# rel_history and energies of an LHE run on 48 x 48 x 8, printed exactly
_THREAD_COUNT_RUN = """
import json
from srcortex import ModelConfig, StimulusSpec, build_cake_bank, build_propagator
from srcortex import poggendorff_gratings
from srcortex.dynamics import run_model
n, k = 48, 8
f0 = poggendorff_gratings(StimulusSpec(n_pixels=n, bar_width=8, grating_period=6,
                                       line_thickness=1.5))
cfg = ModelConfig(model="lhe", lam=2.0, alpha=6.0, sigma_mu=1.0, dt=0.15,
                  dtau=0.05, tau=0.25, poly_degree=5, max_iters=20)
prop = build_propagator(n, k, cfg.beta_for(n, k), cfg.dtau)
res = run_model(f0, cfg, build_cake_bank(n, k, 3), prop)
print(json.dumps([[x.hex() for x in res.rel_history], [x.hex() for x in res.energies]]))
"""


class TestRunModel:
    @pytest.mark.parametrize("model", ["wc", "lhe"])
    def test_run_caches_only_the_operator_it_evolves_with(self, model):
        # the float32 operator under the plain key m: what propagator(m)
        # returns, built once per run
        f0, cfg, bank, prop = _tiny_run(8.0, 0.5, model=model)
        res = run_model(f0, dataclasses.replace(cfg, max_iters=3), bank, prop)
        assert res.interaction_dtype == "float32"
        m = prop.step_count(cfg.tau)
        assert list(prop._prop_cache) == [m]
        assert prop._prop_cache[m] is prop.propagator(m)
        assert prop._prop_cache[m].dtype == np.float32

    def test_wc_large_lambda_reproduces_lift(self):
        f0, bank = _small_gratings()
        cfg = ModelConfig(model="wc", lam=1e3, alpha=20.0, sigma_mu=2.0,
                          dt=1.0 / 1001.0, dtau=0.01, tau=0.2)
        prop = build_propagator(48, 6, cfg.beta_for(48, 6), cfg.dtau)
        res = run_model(f0, cfg, bank, prop)
        assert res.converged
        ref = project(lift(f0, bank))
        rel = np.linalg.norm(res.image - ref) / np.linalg.norm(ref)
        assert rel < 0.01

    def test_lhe_constant_stimulus_stays_constant(self):
        _, bank = _small_gratings()
        cfg = ModelConfig(model="lhe", lam=2.0, alpha=8.0, sigma_mu=1.0,
                          dt=0.15, dtau=0.01, tau=0.2)
        prop = build_propagator(48, 6, cfg.beta_for(48, 6), cfg.dtau)
        res = run_model(np.full((48, 48), 0.6), cfg, bank, prop)
        assert res.converged
        assert res.image.max() - res.image.min() < 1e-6

    def test_nonconvergence_reported_not_raised(self):
        f0, bank = _small_gratings()
        cfg = ModelConfig(model="wc", lam=0.01, alpha=20.0, sigma_mu=2.0,
                          dt=0.1, dtau=0.01, tau=0.2, max_iters=2, tol=1e-12)
        prop = build_propagator(48, 6, cfg.beta_for(48, 6), cfg.dtau)
        res = run_model(f0, cfg, bank, prop)
        assert not res.converged
        assert res.iterations == 2

    def test_divergence_raises_at_first_non_finite_change(self):
        f0, cfg, bank, prop = _tiny_lhe(scale=50.0)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(FloatingPointError, match=r"iteration [1-5]$"):
                run_model(f0, cfg, bank, prop)

    def test_wc_non_finite_interaction_raises_at_its_iteration(self, monkeypatch):
        evolve, calls = dynamics._evolve_batch, []

        def poisoned(*args):
            calls.append(args)
            out = evolve(*args)
            if len(calls) == 3:
                out[0, 0, 0] = np.nan
            return out

        monkeypatch.setattr(dynamics, "_evolve_batch", poisoned)
        with pytest.raises(FloatingPointError, match=r"^WC run diverged: .* at iteration 3$"):
            run_model(*_tiny_wc())
        assert len(calls) == 3

    def test_blas_held_at_one_thread_and_restored(self, monkeypatch):
        functions = dynamics._blas_thread_functions()
        if functions is None:
            pytest.skip("numpy's BLAS is not OpenBLAS")
        get, set_ = functions
        seen = []

        def counting(a, b, *rest):
            seen.append(get())
            return relative_change(a, b, *rest)

        monkeypatch.setattr(dynamics, "relative_change", counting)
        caller = get()
        set_(2)
        try:
            run_model(*_tiny_lhe(max_iters=5))
            after_return = get()
            f0, cfg, bank, prop = _tiny_lhe(scale=50.0)
            with np.errstate(over="ignore", invalid="ignore"):
                with pytest.raises(FloatingPointError):
                    run_model(f0, cfg, bank, prop)
            after_raise = get()
        finally:
            set_(caller)
        assert (after_return, after_raise) == (2, 2)
        assert seen and set(seen) == {1}

    def test_runs_unchanged_without_blas_thread_control(self, monkeypatch):
        # 32 x 32 x 8 = 8192 entries: below OpenBLAS's 10,000-entry cutoff
        # for threaded dot products, so the unpinned run sums in the same order
        case = _tiny_lhe(max_iters=20)
        pinned = run_model(*case)
        monkeypatch.setattr(dynamics, "_blas_thread_functions", lambda: None)
        plain = run_model(*case)
        np.testing.assert_array_equal(plain.stack, pinned.stack)
        np.testing.assert_array_equal(plain.image, pinned.image)
        assert (plain.iterations, plain.converged) == (pinned.iterations, pinned.converged)
        assert plain.rel_history == pinned.rel_history
        assert plain.energies == pinned.energies

    def test_result_independent_of_blas_thread_count(self):
        # 48 x 48 x 8 = 18432 entries: above the threaded-dot cutoff, where
        # an unpinned norm sums in an order set by the thread count
        env = dict(os.environ)
        src = str(Path(srcortex.__file__).resolve().parent.parent)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        runs = []
        for threads in ("1", "2"):
            env["OPENBLAS_NUM_THREADS"] = threads
            proc = subprocess.run([sys.executable, "-c", _THREAD_COUNT_RUN], env=env,
                                  capture_output=True, text=True, timeout=300, check=True)
            runs.append(json.loads(proc.stdout))
        assert runs[0] == runs[1]

    def test_wc_forms_no_fidelity_constant(self, monkeypatch):
        # the WC evaluation has no energy, so neither a run nor the drift
        # forms the constant, and their bytes equal those of calls that
        # hand the evaluation the run's constant
        f0, cfg, bank, prop = case = _tiny_wc()
        constant, interaction = dynamics._fidelity_constant, dynamics._interaction
        calls = []

        def counted(*args):
            calls.append(args)
            return constant(*args)

        monkeypatch.setattr(dynamics, "_fidelity_constant", counted)
        a0 = lift(f0, bank)
        mu = local_mean(a0, cfg.sigma_mu)
        skipped = run_model(*case), model_drift(a0, a0, mu, cfg, prop)
        assert calls == []

        def handed(cfg, prop, forcing, _, dtype=np.float64):
            return interaction(cfg, prop, forcing, constant(cfg, a0, mu), dtype)

        monkeypatch.setattr(dynamics, "_interaction", handed)
        res, drift = run_model(*case), model_drift(a0, a0, mu, cfg, prop)
        assert res.stack.tobytes() == skipped[0].stack.tobytes()
        assert (res.rel_history, res.iterations) == (skipped[0].rel_history, skipped[0].iterations)
        assert drift.tobytes() == skipped[1].tobytes()

    def test_wc_residual_bounded_by_stopping_rule(self):
        f0, bank = _small_gratings()
        cfg = ModelConfig(model="wc", lam=0.5, alpha=4.0, sigma_mu=2.0,
                          dt=0.3, dtau=0.01, tau=0.2, tol=1e-5)
        prop = build_propagator(48, 6, cfg.beta_for(48, 6), cfg.dtau)
        res = run_model(f0, cfg, bank, prop)
        assert res.converged
        a0 = lift(f0, bank)
        mu = local_mean(a0, cfg.sigma_mu)
        drift = model_drift(res.stack, a0, mu, cfg, prop)
        # one Lipschitz step separates the returned state from the one the
        # stopping rule certified: ||drift|| <= (tol/dt) (1 + L dt) ||A||
        lip = (1.0 + cfg.lam) + 0.5 * cfg.alpha
        bound = cfg.tol / cfg.dt * (1.0 + lip * cfg.dt)
        assert np.linalg.norm(drift) <= bound * np.linalg.norm(res.stack)


def _tiny_run(alpha, tau, model="lhe"):
    """``_tiny_lhe`` with another slope, kernel width or model."""
    f0, cfg, bank, prop = _tiny_lhe()
    return f0, dataclasses.replace(cfg, model=model, alpha=alpha, tau=tau), bank, prop


def _tiny_wc():
    """WC at the paper's lam, alpha and dt on the tiny grid.

    The sigmoid is unclamped in about three quarters of the voxels of
    its fixed point (at lam = 2 the state stays below 1/2 - 1/alpha).
    """
    f0, cfg, bank, prop = _tiny_run(20.0, 0.5, model="wc")
    return f0, dataclasses.replace(cfg, lam=0.01, dt=0.1, sigma_mu=2.0), bank, prop


class TestAnderson:
    @pytest.mark.parametrize("case", [
        pytest.param(lambda: _tiny_run(6.0, 0.5), id="6.0"),
        pytest.param(lambda: _tiny_run(8.0, 0.5), id="8.0"),
        pytest.param(_tiny_wc, id="wc"),
    ])
    def test_fewer_evaluations_to_the_same_stopping_rule(self, case):
        # LHE's five-pair history and WC's one secant pair against the plain loop
        f0, cfg, bank, prop = case()
        res = run_model(f0, cfg, bank, prop)
        gd_stack, gd_steps, _ = gd_reference(f0, cfg, bank, prop)
        assert res.converged and res.iterations < gd_steps
        assert res.rel_history[-1] < cfg.tol
        a0 = lift(f0, bank)
        drift = model_drift(res.stack, a0, local_mean(a0, cfg.sigma_mu), cfg, prop)
        assert cfg.dt * np.linalg.norm(drift) <= cfg.tol * np.linalg.norm(res.stack)
        # Both runs stop on the same residual rule, so both lie about
        # rel / (1 - q) from the fixed point, q the slowest contraction;
        # which is nearer depends on where each one's last residual fell
        # below tol.  Measured ratios of the distances: 0.89 (LHE, alpha 6),
        # 1.05 (LHE, alpha 8) and 0.52 (WC, 20 evaluations against 51).
        fixed, _, _ = gd_reference(f0, dataclasses.replace(cfg, tol=1e-6), bank, prop)

        def dist(stack):
            return np.linalg.norm(stack - fixed) / np.linalg.norm(fixed)

        assert dist(res.stack) <= 1.1 * dist(gd_stack)

    def test_single_precision_run_reaches_the_float64_fixed_point(self):
        f0, cfg, bank, prop = _tiny_lhe()
        res = run_model(f0, cfg, bank, prop)
        assert res.interaction_dtype == "float32" and res.stack.dtype == np.float64
        assert res.converged
        a0 = lift(f0, bank)
        drift = model_drift(res.stack, a0, local_mean(a0, cfg.sigma_mu), cfg, prop)
        assert drift.dtype == np.float64
        assert cfg.dt * np.linalg.norm(drift) <= cfg.tol * np.linalg.norm(res.stack)
        assert np.all(np.diff(res.energies) <= 0.0)

    def test_wc_single_precision_run_reaches_the_float64_fixed_point(self, monkeypatch):
        f0, cfg, bank, prop = _tiny_wc()
        res = run_model(f0, cfg, bank, prop)
        assert res.interaction_dtype == "float32" and res.stack.dtype == np.float64
        assert res.converged
        a0 = lift(f0, bank)
        drift = model_drift(res.stack, a0, local_mean(a0, cfg.sigma_mu), cfg, prop)
        assert drift.dtype == np.float64
        assert cfg.dt * np.linalg.norm(drift) <= cfg.tol * np.linalg.norm(res.stack)
        # the same run with float64 kernel terms: same steps, and stacks
        # 1.9e-8 apart (relative) where the sigmoid is unclamped in 74% of
        # the voxels
        monkeypatch.setattr(dynamics, "RUN_DTYPE", np.float64)
        double = run_model(f0, cfg, bank, prop)
        assert double.interaction_dtype == "float64"
        assert res.iterations == double.iterations
        assert np.linalg.norm(res.stack - double.stack) <= 1e-7 * np.linalg.norm(double.stack)

    def test_one_evaluation_per_state(self, monkeypatch, tmp_path):
        # each evaluated state costs one batched heat evolution, which yields
        # both its interaction and its energy; the returned state costs none
        evolve, calls = dynamics._evolve_batch, []

        def counted(*args):
            calls.append(args)
            return evolve(*args)

        monkeypatch.setattr(dynamics, "_evolve_batch", counted)
        res = run_model(*_tiny_lhe())
        assert res.converged and len(calls) == res.iterations
        assert len(res.energies) == len(res.rel_history)
        _write_trace(tmp_path / "trace.csv", res)
        rows = (tmp_path / "trace.csv").read_text().splitlines()[1:]
        assert rows == [f"{p},{rel!r},{res.energies[p - 1]!r}"
                        for p, rel in enumerate(res.rel_history, start=1)]

    @staticmethod
    def _force_energy(monkeypatch, index, value):
        """Replace the energy of the ``index``-th evaluated state (from 1) by ``value(energy)``.

        Returns the evaluated states, as ``_combine`` receives them, and
        the descent steps, as ``gd_step`` returns them.
        """
        combine, energy, step = dynamics._combine, dynamics._energy_from_terms, dynamics.gd_step
        evaluated, steps = [], []

        def watched(a, *args):
            evaluated.append(a)
            return combine(a, *args)

        def forced(*args):
            e = energy(*args)
            return value(e) if len(evaluated) == index else e

        def recorded(*args):
            steps.append(step(*args))
            return steps[-1]

        monkeypatch.setattr(dynamics, "_combine", watched)
        monkeypatch.setattr(dynamics, "_energy_from_terms", forced)
        monkeypatch.setattr(dynamics, "gd_step", recorded)
        return evaluated, steps

    def _forced(self, monkeypatch, value):
        """Run with the third energy, the first extrapolated state's, replaced."""
        case = _tiny_run(6.0, 0.5)
        base = run_model(*case)
        evaluated, steps = self._force_energy(monkeypatch, 3, value)
        res = run_model(*case)
        assert base.rejected_steps == 0 and res.rejected_steps >= 1
        assert res.converged
        assert res.iterations == len(res.rel_history) + res.rejected_steps
        # the rejected state is followed by the plain step of the last accepted one
        assert evaluated[3] is steps[1]
        return res

    def test_rejected_first_picard_step_restarts_from_the_plain_step(self, monkeypatch):
        # the second evaluated state is Phi(a0), extrapolated with no pair
        # recorded; its energy is forced up, and the next evaluated state
        # is the plain step G(a0)
        evaluated, steps = self._force_energy(monkeypatch, 2, lambda e: e + 1e6)
        res = run_model(*_tiny_run(6.0, 0.5))
        assert res.rejected_steps >= 1 and res.converged
        assert res.iterations == len(res.rel_history) + res.rejected_steps
        assert evaluated[1] is not steps[0]
        assert evaluated[2] is steps[0]
        assert np.all(np.diff(res.energies) <= 0.0)

    @staticmethod
    def _affine_errors(dim, updates):
        """Relative distances from the fixed point of an affine map, one per update.

        ``G(x) = x + dt (forcing - (1 + lam) x + S x / 2)`` with S symmetric.
        The first update is checked to be the Picard step.
        """
        assert dim <= dynamics.ANDERSON_WINDOW
        cfg = ModelConfig(model="lhe", lam=2.0, alpha=6.0, sigma_mu=1.0, dt=0.15,
                          dtau=0.01, tau=0.1)
        rng = np.random.default_rng(dim)
        m = rng.standard_normal((dim, dim))
        coupling, forcing = m + m.T, rng.standard_normal(dim)

        def step(x):
            return x + cfg.dt * (forcing - (1.0 + cfg.lam) * x + 0.5 * coupling @ x)

        fixed = np.linalg.solve((1.0 + cfg.lam) * np.eye(dim) - 0.5 * coupling, forcing)
        history = dynamics._AndersonHistory(dim, cfg)
        x = rng.standard_normal(dim)
        picard = (forcing + 0.5 * coupling @ x) / (1.0 + cfg.lam)
        x = history.extrapolate(x, step(x))
        np.testing.assert_allclose(x, picard, rtol=1e-12, atol=1e-12)
        errors = [np.linalg.norm(x - fixed) / np.linalg.norm(fixed)]
        for _ in range(updates - 1):
            x = history.extrapolate(x, step(x))
            errors.append(np.linalg.norm(x - fixed) / np.linalg.norm(fixed))
        return errors

    @pytest.mark.parametrize("dim", [1, 2, 3, 5])
    def test_affine_map_reaches_its_fixed_point_in_dim_plus_one_updates(self, dim,
                                                                         monkeypatch):
        # type-II Anderson on an affine map is GMRES: the first update is
        # the Picard step, and once dim independent residual differences
        # are recorded the next update is the fixed point.  Exactly so
        # with float64 rows
        monkeypatch.setattr(dynamics, "RUN_DTYPE", np.float64)
        assert self._affine_errors(dim, dim + 1)[-1] <= 1e-10

    @pytest.mark.parametrize("dim", [1, 2, 3, 5])
    def test_affine_map_with_single_precision_rows(self, dim):
        # float32 rows perturb only the correction dphi^T gamma, which
        # shrinks with the residual: measured 2.2e-9 .. 7.1e-8 after dim + 1
        # updates and at most 7.7e-15 after dim + 2
        assert dynamics.RUN_DTYPE == np.float32
        errors = self._affine_errors(dim, dim + 3)
        assert errors[dim] <= 1e-5
        assert errors[dim + 2] <= 1e-10

    def test_forced_rejection_keeps_energy_descending(self, monkeypatch):
        res = self._forced(monkeypatch, lambda e: e + 1e6)
        assert np.all(np.diff(res.energies) <= 0.0)

    def test_nan_energy_is_a_rejection(self, monkeypatch):
        res = self._forced(monkeypatch, lambda e: math.nan)
        assert np.all(np.isfinite(res.energies))

    def test_wc_forced_rejection_restarts_from_the_last_plain_step(self, monkeypatch):
        # the third evaluated state is the first extrapolated one; its
        # relative change is made to exceed the last accepted one's
        case = _tiny_wc()
        base = run_model(*case)
        change, step = dynamics.relative_change, dynamics.gd_step
        evaluated, steps = [], []

        def forced(g, a, *rest):
            rel = change(g, a, *rest)
            return rel + 1.0 if len(steps) == 3 else rel

        def recorded(a, *args):
            evaluated.append(a)
            steps.append(step(a, *args))
            return steps[-1]

        monkeypatch.setattr(dynamics, "relative_change", forced)
        monkeypatch.setattr(dynamics, "gd_step", recorded)
        res = run_model(*case)
        assert base.rejected_steps == 0 and res.rejected_steps >= 1
        assert res.converged and res.energies is None
        assert res.iterations == len(res.rel_history) + res.rejected_steps
        assert max(res.rel_history) < 1.0  # the forced change was not accepted
        # the rejected state was extrapolated, and the next evaluated state
        # is the plain step of the last accepted one
        assert evaluated[2] is not steps[1]
        assert evaluated[3] is steps[1]


class TestSecantPair:
    """The WC solver's one-pair Anderson update, on flat stacks."""

    @staticmethod
    def _states(size, seed=52):
        rng = np.random.default_rng(seed)
        return [rng.random(size) for _ in range(4)]  # x0, g0, x1, g1

    def test_first_call_returns_g_itself(self):
        x0, g0, _, _ = self._states(100)
        pair = dynamics._SecantPair(100)
        assert pair.extrapolate(x0, g0) is g0
        np.testing.assert_array_equal(pair.f_prev, g0 - x0)

    def test_update_on_a_ragged_stack_equals_the_unblocked_one(self):
        # 3 BLOCK / 2 entries: one whole block and a half one.  The dots
        # are summed per block in block order, the update is taken whole
        size = 3 * BLOCK // 2
        x0, g0, x1, g1 = self._states(size)
        g_prev, f = g0.copy(), g1 - x1
        df = f - (g0 - x0)
        pair = dynamics._SecantPair(size)
        pair.extrapolate(x0, g0)
        got = pair.extrapolate(x1, g1)  # written over g0
        blocks = [slice(0, BLOCK), slice(BLOCK, size)]
        dot_f = sum(float(df[b] @ f[b]) for b in blocks)
        dot_df = sum(float(df[b] @ df[b]) for b in blocks)
        np.testing.assert_array_equal(got, g1 - dot_f / dot_df * (g1 - g_prev))
        np.testing.assert_array_equal(pair.f_prev, f)

    def test_equal_residuals_return_the_plain_step(self):
        # df = 0: the secant has no slope, so the update is g
        x0, g0, _, _ = self._states(100)
        pair = dynamics._SecantPair(100)
        pair.extrapolate(x0, g0.copy())
        assert pair.extrapolate(x0, g0) is g0

    def test_update_writes_over_g_prev_and_allocates_no_stack(self):
        size = 8 * BLOCK
        x0, g0, x1, g1 = self._states(size)
        pair = dynamics._SecantPair(size)
        pair.extrapolate(x0, g0)
        tracemalloc.start()
        try:
            got = pair.extrapolate(x1, g1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.shares_memory(got, g0) and not np.shares_memory(got, g1)
        # with no spare buffer, the update's one block scratch, not a stack
        assert peak < 3 * BLOCK * g0.itemsize < g0.nbytes


class TestEnergy:
    def _cfg(self, **kw):
        base = dict(model="lhe", lam=2.0, alpha=6.0, sigma_mu=1.0,
                    dt=0.15, dtau=0.01, tau=0.1, poly_degree=5)
        base.update(kw)
        return ModelConfig(**base)

    def test_fidelity_terms_vanish_when_equal(self, small_prop):
        rng = np.random.default_rng(9)
        a = rng.random((6, 6, 3))
        cfg = self._cfg()
        e = lhe_energy(a, a, a, cfg, small_prop)
        cfg_big_lam = self._cfg(lam=50.0, dt=0.01)
        assert lhe_energy(a, a, a, cfg_big_lam, small_prop) == pytest.approx(e)

    def test_constant_activation_zero_energy(self, small_prop):
        a = np.full((6, 6, 3), 0.31)
        assert lhe_energy(a, a, a, self._cfg(), small_prop) == pytest.approx(0.0, abs=1e-12)

    def test_finite_difference_gradient(self, small_prop):
        self._check_gradient(self._cfg(), small_prop)

    def test_finite_difference_gradient_discrete_paper(self, small_prop):
        self._check_gradient(self._cfg(forcing="discrete-paper"), small_prop)

    def _check_gradient(self, cfg, small_prop):
        rng = np.random.default_rng(10)
        shape = (6, 6, 3)
        a = 0.2 + 0.6 * rng.random(shape)
        a0 = 0.2 + 0.6 * rng.random(shape)
        mu = 0.2 + 0.6 * rng.random(shape)
        drift = model_drift(a, a0, mu, cfg, small_prop)
        eps = 1e-4
        for _ in range(5):
            v = rng.standard_normal(shape)
            v /= np.linalg.norm(v)
            fd = (
                lhe_energy(a + eps * v, a0, mu, cfg, small_prop)
                - lhe_energy(a - eps * v, a0, mu, cfg, small_prop)
            ) / (2.0 * eps)
            analytic = -float((drift * v).sum())
            assert abs(fd - analytic) <= 1e-4 * abs(analytic)

    @pytest.mark.parametrize("forcing", ["continuous", "discrete-paper"])
    def test_energy_matches_all_powers_evolved(self, forcing):
        # reference: every power up to the primitive's degree evolved
        # through the kernel, expanded voxel by voxel, then summed, with
        # the fidelity terms as |a - a0|^2 and |a - mu|^2.  lam = 0 drops
        # one of them.  70 x 70 x 8 = 39,200 entries: one full block of
        # the energy's pass and a ragged one
        rng = np.random.default_rng(13)
        for lam in (0.0, 2.0):
            cfg = self._cfg(poly_degree=9, tau=0.2, forcing=forcing, lam=lam)
            for n, k in ((16, 4), (70, 8)):
                prop = build_propagator(n, k, 0.05, 0.01)
                a, a0, mu = (0.2 + 0.6 * rng.random((n, n, k)) for _ in range(3))
                expected = energy_reference(a, a0, mu, cfg, prop)
                got = lhe_energy(a, a0, mu, cfg, prop)
                assert type(got) is float
                assert abs(got - expected) <= 1e-12 * abs(expected), (lam, n, k)

    def test_energy_descent_along_trajectory(self, small_prop):
        rng = np.random.default_rng(11)
        shape = (6, 6, 3)
        a = 0.2 + 0.6 * rng.random(shape)
        a0 = 0.2 + 0.6 * rng.random(shape)
        mu = 0.2 + 0.6 * rng.random(shape)
        cfg = self._cfg(dt=0.5 / 3.0)
        poly = fit_polynomial(cfg.alpha, cfg.poly_degree)
        energy = lhe_energy(a, a0, mu, cfg, small_prop)
        for _ in range(25):
            inter = lhe_interaction(a, small_prop, cfg.tau, poly)
            a = gd_step(a, _forcing(cfg, a0, mu), inter, cfg)
            new_energy = lhe_energy(a, a0, mu, cfg, small_prop)
            assert new_energy <= energy + 1e-6 * abs(energy)
            energy = new_energy

    def test_energy_requires_lhe(self, small_prop):
        cfg = ModelConfig(model="wc", lam=1.0, alpha=2.0, sigma_mu=1.0,
                          dt=0.2, dtau=0.01, tau=0.1)
        with pytest.raises(ValueError):
            lhe_energy(np.zeros((6, 6, 3)), np.zeros((6, 6, 3)),
                       np.zeros((6, 6, 3)), cfg, small_prop)


class TestBlockedCombine:
    """The combine, the energy's sums included, passes over the stack in blocks of ``BLOCK``.

    70 x 70 x 8 = 39,200 entries: one full block and a ragged one.
    ``TestEnergy.test_energy_matches_all_powers_evolved`` checks the
    energy on that grid too.
    """

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_interaction_and_sums_equal_the_unblocked_rows(self, dtype):
        # H's block and the energy's two float64 blocks share a thread's
        # scratch; at degrees 1 and 3 they would overlap if laid out wrong
        n, k = 70, 8
        assert BLOCK < n * n * k < 2 * BLOCK
        prop = build_propagator(n, k, ModelConfig.beta_for(n, k), 0.01)
        rng = np.random.default_rng(23)
        a, forcing = (0.2 + 0.6 * rng.random((n, n, k)) for _ in range(2))
        for degree in (1, 3, 9):
            coeffs = fit_polynomial(6.0, degree).coeffs
            weights, prim = _weights(coeffs), _primitive_coeffs(coeffs)
            powers = np.empty((degree,) + a.shape, dtype)
            product = mode_product_buffer(prop, degree, dtype)
            evolved = _evolved_powers(a, powers, prop, 0.5, product)
            term, sums = _combine(a, weights, evolved, forcing, prim, product)
            expected_term, h = unblocked_combine(powers[0], weights, evolved)
            assert term.dtype == dtype
            np.testing.assert_array_equal(term, expected_term)
            sigma = np.polyval(prim[::-1], a)
            expected = ((a * a).sum(), (a * forcing).sum(), (sigma + a * h).sum())
            assert all(type(got) is float for got in sums)
            for got, want in zip(sums, expected):
                assert abs(got - want) <= 1e-12 * abs(want), (degree, got, want)

    def test_energy_matches_the_dense_kernel_double_sum(self, monkeypatch, small_prop,
                                                       small_kernel):
        # 6 x 6 x 3 = 108 entries in blocks of 40: two full blocks and a
        # ragged one, against sum K(xi, eta) Sigma(a(xi) - a(eta)) with
        # the kernel as a dense matrix
        monkeypatch.setattr(dynamics, "BLOCK", 40)
        rng = np.random.default_rng(24)
        a, a0, mu = (0.2 + 0.6 * rng.random((6, 6, 3)) for _ in range(3))
        cfg = ModelConfig(model="lhe", lam=2.0, alpha=6.0, sigma_mu=1.0, dt=0.15,
                          dtau=0.01, tau=0.1, poly_degree=5)
        prim = _primitive_coeffs(fit_polynomial(cfg.alpha, cfg.poly_degree).coeffs)
        flat = a.ravel()
        sigma = np.polyval(prim[::-1], flat[:, None] - flat[None, :])
        expected = (0.5 * cfg.lam * ((a - a0) ** 2).sum() + 0.5 * ((a - mu) ** 2).sum()
                    - (small_kernel * sigma).sum() / 4.0)
        assert abs(lhe_energy(a, a0, mu, cfg, small_prop) - expected) <= 1e-12 * abs(expected)


class TestKeptArrays:
    """Each evaluation keeps its mode-product buffer between calls.

    The stacks it hands the heat layer are staged in that buffer, and on
    a grid too small for the buffer to hold every thread's combine
    scratch (as here, 32 x 32 x 8) LHE keeps the calling thread's.  Each
    test runs both models.
    """

    def _case(self, model):
        n, k = 32, 8
        prop = build_propagator(n, k, ModelConfig.beta_for(n, k), 0.01)
        rng = np.random.default_rng(21)
        a0, mu, a, b = (0.2 + 0.6 * rng.random((n, n, k)) for _ in range(4))
        cfg = ModelConfig(model=model, lam=2.0, alpha=6.0, sigma_mu=1.0,
                          dt=0.15, dtau=0.01, tau=0.5, poly_degree=9)
        return cfg, prop, a0, mu, a, b

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_successive_calls_do_not_alias(self, dtype):
        for model in ("lhe", "wc"):
            cfg, prop, a0, mu, a, b = self._case(model)
            evaluate = evaluation(cfg, prop, a0, mu, dtype)
            term, energy = evaluate(a)
            first = term.copy()
            term_b, energy_b = evaluate(b)
            assert term.dtype == term_b.dtype == dtype
            np.testing.assert_array_equal(term, first)
            for state, got in ((a, (term, energy)), (b, (term_b, energy_b))):
                fresh_term, fresh_energy = evaluation(cfg, prop, a0, mu, dtype)(state)
                np.testing.assert_array_equal(got[0], fresh_term)
                assert got[1] == fresh_energy

    def test_warm_evaluation_allocation_budget(self):
        # numpy reports its arrays to tracemalloc.  A warm float32 LHE
        # evaluation allocates the forward spectrum (about nine stacks),
        # then in its place the nine evolved stacks, and one single stack,
        # the interaction: measured peak 10.14 (11.13 while it also made a
        # full-size H).  A WC one holds about one stack at a time: the
        # forward spectrum, which the inverse works in, then the evolved
        # stack (measured peak 1.22-1.30).  The kept arrays live in the
        # closure
        for model, budget in (("lhe", 11), ("wc", 3)):
            cfg, prop, a0, mu, a, _ = self._case(model)
            evaluate = evaluation(cfg, prop, a0, mu, np.float32)
            evaluate(a)  # builds the single-precision propagator
            tracemalloc.start()
            try:
                evaluate(a)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            stack = a0.size * np.dtype(np.float32).itemsize
            assert peak <= budget * stack, (model, peak / stack)

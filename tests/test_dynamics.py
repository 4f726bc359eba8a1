import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import srcortex
from srcortex import (
    ModelConfig,
    build_cake_bank,
    build_propagator,
    fit_polynomial,
    heat_evolve,
    kernel_column,
    lhe_energy,
    lhe_interaction,
    lift,
    local_mean,
    model_drift,
    project,
    relative_change,
    run_model,
)
from srcortex import dynamics
from srcortex.dynamics import (
    _forcing,
    _model_poly,
    _primitive_coeffs,
    _weights,
    expand_coefficients,
    gd_step,
    sigmoid,
    sigmoid_hat,
    wc_interaction,
)
from srcortex.stimuli import StimulusSpec, poggendorff_gratings


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


class TestExpandCoefficients:
    def test_degree_one_identity(self):
        from srcortex.dynamics import PolyCoeffs

        poly = PolyCoeffs(1, np.array([0.0, 1.0]), 2.0, 0.0)
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


class TestGdStep:
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
        out = gd_step(a, _forcing(cfg, a, a), (2.0 * cfg.m_scale) * a - a - a, cfg)
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
from srcortex import poggendorff_gratings, run_model
n, k = 48, 8
f0 = poggendorff_gratings(StimulusSpec(n_pixels=n, bar_width=8, grating_period=6,
                                       line_thickness=1.5))
cfg = ModelConfig(model="lhe", lam=2.0, alpha=6.0, sigma_mu=1.0, dt=0.15,
                  dtau=0.05, tau=0.25, poly_degree=5, max_iters=20)
prop = build_propagator(n, k, cfg.beta_for(n, k), cfg.dtau)
res = run_model(f0, cfg, build_cake_bank(n, k, 3), prop, trace_energy=True)
print(json.dumps([[x.hex() for x in res.rel_history], [x.hex() for x in res.energies]]))
"""


class TestRunModel:
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

    def test_blas_held_at_one_thread_and_restored(self, monkeypatch):
        functions = dynamics._blas_thread_functions()
        if functions is None:
            pytest.skip("numpy's BLAS is not OpenBLAS")
        get, set_ = functions
        seen = []

        def counting(a, b):
            seen.append(get())
            return relative_change(a, b)

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
        pinned = run_model(*case, trace_energy=True)
        monkeypatch.setattr(dynamics, "_blas_thread_functions", lambda: None)
        plain = run_model(*case, trace_energy=True)
        np.testing.assert_array_equal(plain.stack, pinned.stack)
        np.testing.assert_array_equal(plain.image, pinned.image)
        assert (plain.iterations, plain.converged, plain.last_change) == (
            pinned.iterations, pinned.converged, pinned.last_change)
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
        lip = (1.0 + cfg.lam) + cfg.alpha / (2.0 * cfg.m_scale)
        bound = cfg.tol / cfg.dt * (1.0 + lip * cfg.dt)
        assert np.linalg.norm(drift) <= bound * np.linalg.norm(res.stack)


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
        # through the kernel, expanded voxel by voxel, then summed
        prop = build_propagator(16, 4, 0.05, 0.01)
        rng = np.random.default_rng(13)
        a, a0, mu = (0.2 + 0.6 * rng.random((16, 16, 4)) for _ in range(3))
        cfg = self._cfg(poly_degree=9, tau=0.2, forcing=forcing)
        prim = _primitive_coeffs(_model_poly(cfg).coeffs)
        evolved = [np.ones_like(a)] + [heat_evolve(a**i, prop, cfg.tau)
                                       for i in range(1, len(prim))]
        field = sum(prim[j] * math.comb(j, i) * (-1.0) ** i * a ** (j - i) * evolved[i]
                    for j in range(len(prim)) for i in range(j + 1))
        w_a0, w_mu = (cfg.lam, 1.0) if forcing == "continuous" else (1.0, cfg.lam)
        expected = (0.5 * w_a0 * ((a - a0) ** 2).sum() + 0.5 * w_mu * ((a - mu) ** 2).sum()
                    - field.sum() / (4.0 * cfg.m_scale))
        got = lhe_energy(a, a0, mu, cfg, prop)
        assert type(got) is float
        assert abs(got - expected) <= 1e-12 * abs(expected)

    def test_energy_descent_along_trajectory(self, small_prop):
        rng = np.random.default_rng(11)
        shape = (6, 6, 3)
        a = 0.2 + 0.6 * rng.random(shape)
        a0 = 0.2 + 0.6 * rng.random(shape)
        mu = 0.2 + 0.6 * rng.random(shape)
        cfg = self._cfg(dt=0.5 / 3.0)
        poly = _model_poly(cfg)
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

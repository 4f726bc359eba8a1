"""Acceptance suite: one test per criterion, each printing PASS/FAIL.

Run with ``pytest tests/test_acceptance.py -v -s``.  The figure
reproductions (criteria 7 and 8) run the full 200-pixel pipeline and
take a few minutes together.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import expm

from srcortex import (
    ModelConfig,
    StimulusSpec,
    build_cake_bank,
    build_propagator,
    fit_polynomial,
    heat_evolve,
    kernel_column,
    lift,
    local_mean,
    model_drift,
    poggendorff_gratings,
    project,
)
from srcortex.dynamics import lhe_energy, run_model
from srcortex.experiment import measure_offset
from srcortex.stimuli import poggendorff_classic

from test_dynamics import expand_coefficients, lhe_interaction
from test_heat import dense_generator


def _report(num, name, ok, detail):
    print(f"\nACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'} -- {detail}")
    return ok


def gratings64():
    return poggendorff_gratings(
        StimulusSpec(n_pixels=64, bar_width=10, grating_period=8, line_thickness=1.5)
    )


@pytest.fixture(scope="module")
def paper_bank():
    return build_cake_bank(200, 16, 5)


@pytest.fixture(scope="module")
def paper_prop():
    return build_propagator(200, 16, ModelConfig.beta_for(200, 16), 0.01)


def test_criterion_1_heat_solver_oracle():
    t0 = time.perf_counter()
    n, k, beta, dtau, tau = 8, 4, 0.5, 0.01, 0.5
    prop = build_propagator(n, k, beta, dtau)
    rng = np.random.default_rng(42)
    a = rng.standard_normal((n, n, k))
    mat = dense_generator(n, k, beta)
    expected = (expm(tau * mat) @ a.ravel()).reshape(n, n, k)
    got = heat_evolve(a, prop, tau)
    rel = float(np.linalg.norm(got - expected) / np.linalg.norm(expected))
    elapsed = time.perf_counter() - t0
    ok = rel < 1e-3 and elapsed < 5.0
    assert _report(1, "heat solver vs dense exponential", ok,
                   f"rel error {rel:.2e} (<1e-3), runtime {elapsed:.2f}s (<5s)")


def test_criterion_2_conservation_symmetry_suite():
    t0 = time.perf_counter()
    n, k = 16, 8
    prop = build_propagator(n, k, 0.5, 0.01)
    rng = np.random.default_rng(7)
    a = rng.standard_normal((n, n, k))

    out = heat_evolve(a, prop, 0.4)
    mass = abs(out.sum() - a.sum()) / abs(a.sum())

    sym_err = 0.0
    for _ in range(20):
        p = tuple(rng.integers(0, s) for s in (n, n, k))
        q = tuple(rng.integers(0, s) for s in (n, n, k))
        cp = kernel_column(prop, *p, 0.2)
        cq = kernel_column(prop, *q, 0.2)
        sym_err = max(sym_err, abs(float(cp[q] - cq[p])))

    two = heat_evolve(heat_evolve(a, prop, 0.15), prop, 0.25)
    semi = float(np.linalg.norm(two - out) / np.linalg.norm(out))

    contraction = float(np.linalg.norm(out)) <= float(np.linalg.norm(a)) * (1 + 1e-12)
    elapsed = time.perf_counter() - t0
    ok = (mass <= 1e-10 and sym_err <= 1e-10 and semi <= 1e-12
          and contraction and elapsed < 10.0)
    assert _report(2, "conservation/symmetry suite", ok,
                   f"mass {mass:.1e} (<1e-10), symmetry {sym_err:.1e} (<1e-10), "
                   f"semigroup {semi:.1e} (<1e-12), contraction {contraction}, "
                   f"runtime {elapsed:.1f}s (<10s)")


def test_criterion_3_anisotropy():
    n, k = 32, 8
    prop = build_propagator(n, k, ModelConfig.beta_for(n, k), 0.01)
    k0 = 1
    tau = 0.14  # along-line spread of about 3 px
    img = kernel_column(prop, n // 2, n // 2, k0, tau).sum(axis=2)
    ii, jj = np.meshgrid(np.arange(n) - n // 2, np.arange(n) - n // 2, indexing="ij")
    th = k0 * math.pi / k
    along = ii * math.cos(th) + jj * math.sin(th)
    across = -ii * math.sin(th) + jj * math.cos(th)
    w = np.abs(img)
    ratio = float((w * along**2).sum() / (w * across**2).sum())
    sigma = math.sqrt(float((w * along**2).sum() / w.sum()))
    ok = ratio > 2.0
    assert _report(3, "anisotropic spread", ok,
                   f"along/across moment ratio {ratio:.2f} (>2) at "
                   f"along-sigma {sigma:.2f}px")


def test_criterion_4_lhe_interaction_oracle():
    n, k, tau = 6, 3, 0.1
    prop = build_propagator(n, k, 0.5, 0.01)
    dim = n * n * k
    kernel = np.empty((dim, dim))
    for idx in range(dim):
        i, j, kk = np.unravel_index(idx, (n, n, k))
        kernel[:, idx] = kernel_column(prop, i, j, kk, tau).ravel()
    rng = np.random.default_rng(3)
    a = rng.random((n, n, k))
    worst_inter = 0.0
    for degree in (3, 5):
        poly = fit_polynomial(6.0, degree)
        flat = a.ravel()
        contrast = flat[:, None] - flat[None, :]
        oracle = (kernel * np.polyval(poly.coeffs[::-1], contrast)).sum(axis=1)
        got = lhe_interaction(a, prop, tau, poly).ravel()
        worst_inter = max(worst_inter, float(np.abs(got - oracle).max()))

    poly = fit_polynomial(6.0, 5)
    fields = expand_coefficients(a, poly)
    worst_expand = 0.0
    for b in rng.random(10):
        lhs = sum(fields[i] * b**i for i in range(len(fields)))
        rhs = np.polyval(poly.coeffs[::-1], a - b)
        worst_expand = max(worst_expand, float(np.abs(lhs - rhs).max()))
    ok = worst_inter < 1e-8 and worst_expand < 1e-12
    assert _report(4, "LHE interaction oracle", ok,
                   f"interaction vs double sum {worst_inter:.1e} (<1e-8), "
                   f"expansion identity {worst_expand:.1e} (<1e-12)")


def test_criterion_5_energy_descent_and_gradient():
    # descent on the downscaled gratings at dt = 0.5/(1+lam)
    f0 = gratings64()
    bank = build_cake_bank(64, 8, 5)
    cfg = replace(ModelConfig.paper("lhe"), dt=0.5 / 3.0, forcing="continuous")
    prop = build_propagator(64, 8, cfg.beta_for(64, 8), cfg.dtau)
    res = run_model(f0, cfg, bank, prop)
    energies = np.array(res.energies)
    ascent = float(np.max(energies[1:] - energies[:-1] - 1e-6 * np.abs(energies[:-1])))
    descent_ok = ascent <= 0.0 and res.converged

    # finite-difference gradient of the energy vs the drift on a tiny grid
    rng = np.random.default_rng(10)
    shape = (6, 3)
    prop6 = build_propagator(6, 3, 0.5, 0.01)
    cfg6 = replace(ModelConfig.paper("lhe"), alpha=6.0, tau=0.1, poly_degree=5,
                   forcing="continuous")
    a = 0.2 + 0.6 * rng.random((6, 6, 3))
    a0 = 0.2 + 0.6 * rng.random((6, 6, 3))
    mu = 0.2 + 0.6 * rng.random((6, 6, 3))
    drift = model_drift(a, a0, mu, cfg6, prop6)
    eps, worst = 1e-4, 0.0
    for _ in range(5):
        v = rng.standard_normal((6, 6, 3))
        v /= np.linalg.norm(v)
        fd = (lhe_energy(a + eps * v, a0, mu, cfg6, prop6)
              - lhe_energy(a - eps * v, a0, mu, cfg6, prop6)) / (2 * eps)
        analytic = -float((drift * v).sum())
        worst = max(worst, abs(fd - analytic) / abs(analytic))
    grad_ok = worst < 1e-4
    ok = descent_ok and grad_ok
    assert _report(5, "energy descent + gradient check", ok,
                   f"descent: converged={res.converged} in {res.iterations} iters, "
                   f"worst ascent {ascent:.1e} (<=0); gradient rel err "
                   f"{worst:.1e} (<1e-4)")


def test_criterion_6_reconstruction(paper_bank):
    errs = {}
    for name, img in (
        ("classic", poggendorff_classic(StimulusSpec(grating_period=0.0))),
        ("gratings", poggendorff_gratings(StimulusSpec())),
    ):
        rec = project(lift(img, paper_bank))
        errs[name] = float(np.linalg.norm(rec - img) / np.linalg.norm(img))
    ok = all(e < 1e-2 for e in errs.values())
    assert _report(6, "lift/project reconstruction", ok,
                   f"classic {errs['classic']:.2e}, gratings {errs['gratings']:.2e} "
                   f"(<1e-2 each)")


def test_criterion_7_figure_reproduction(paper_bank, paper_prop):
    # exact captioned parameters; the forcing follows the printed update
    # rule (stimulus at unit weight), which is what produced the figures
    spec = StimulusSpec()
    f0 = poggendorff_gratings(spec)
    results = {}
    for name, cfg in (("wc-4b", ModelConfig.paper("wc")),
                      ("lhe-5b", ModelConfig.paper("lhe"))):
        t0 = time.perf_counter()
        res = run_model(f0, cfg, paper_bank, paper_prop)
        elapsed = time.perf_counter() - t0
        off = measure_offset(res.image, spec)
        results[name] = (off, elapsed, res.converged)
    ok = all(
        off is not None and off != 0.0 and elapsed < 300.0
        for off, elapsed, _ in results.values()
    )
    detail = "; ".join(
        f"{name}: offset={off if off is None else round(off, 2)}px, "
        f"{elapsed:.0f}s, converged={conv}"
        for name, (off, elapsed, conv) in results.items()
    )
    assert _report(7, "figure reproduction (completion present)", ok, detail)


def test_criterion_8_inpainting_to_perception(paper_bank, paper_prop):
    spec = StimulusSpec()
    f0 = poggendorff_gratings(spec)
    taus = (0.1, 0.5, 2.5)
    offsets = []
    for tau in taus:
        cfg = replace(ModelConfig.paper("lhe"), alpha=6.0, tau=tau)
        res = run_model(f0, cfg, paper_bank, paper_prop)
        offsets.append(measure_offset(res.image, spec))
    detected = all(o is not None for o in offsets)
    monotone = detected and all(
        offsets[i] <= offsets[i + 1] + 1e-9 for i in range(len(offsets) - 1)
    )
    anchored = detected and abs(offsets[0]) <= 1.0
    ok = detected and monotone and anchored
    detail = (
        f"offsets {[None if o is None else round(o, 2) for o in offsets]} "
        f"for tau {list(taus)}; monotone={monotone}, |offset(0.1)|<=1px={anchored}"
    )
    # Measured at these parameters: offsets [None, -1.59, -4.13] px.  At
    # tau = 0.1 the probe detects no path, so the criterion fails on
    # detection before the 1px anchor is checked; the detected offsets lie
    # on the negative side and grow with tau.  The probe reads translated
    # paths correctly (test_rolled_path_inside_transparent_bar), so the
    # cause lies in the dynamics or the orientation grid; it is not
    # diagnosed further.
    assert _report(8, "inpainting-to-perception transition", ok, detail)


def test_criterion_9_stability_boundary():
    f0 = gratings64()
    bank = build_cake_bank(64, 8, 5)
    results = {}
    # the criterion pins dt = 1/(1+lam) and the grid; the sigmoid slope is
    # set to 1.5 so the decay term dominates the interaction Lipschitz
    # constant (at the captioned slopes the boundary step provably
    # oscillates, which the sufficient condition does not account for)
    for model in ("wc", "lhe"):
        paper = ModelConfig.paper(model)
        cfg = replace(paper, alpha=1.5, dt=1.0 / (1.0 + paper.lam))
        prop = build_propagator(64, 8, cfg.beta_for(64, 8), cfg.dtau)
        res = run_model(f0, cfg, bank, prop)
        results[model] = res
    ok = all(r.converged for r in results.values())
    detail = "; ".join(
        f"{m}: converged={r.converged} in {r.iterations} iters"
        for m, r in results.items()
    )
    assert _report(9, "gradient-descent stability boundary", ok, detail)

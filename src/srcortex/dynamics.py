"""Activation dynamics: sigmoids, interaction terms and the descent loop.

Both models evolve an activation stack ``a`` by explicit time stepping of

    da/dt = -(1 + lam) a + lam a0 + mu + (1/2M) * S[a]

where ``S`` applies the heat kernel to a sigmoid of the activity (WC) or
of the local contrast (LHE).  Under ``forcing="discrete-paper"`` the
stimulus and its local mean swap weights: ``a0 + lam mu``.

The LHE contrast term is made separable by replacing the clamped-linear
sigmoid with an odd polynomial fit.  Expanding ``sum_j c_j (x - y)^j``
binomially gives one weight table

    W[p, i] = (-1)^i c_{p+i} binom(p+i, i),   the weight of x^p y^i,

so with K the heat kernel and E_i = K[a^i] (E_0 = 1) the interaction is

    S[a](xi) = sum_p a(xi)^p * sum_i W[p, i] E_i(xi):

one small matmul of the table with the evolved powers, then a Horner
pass in ``a``.  The powers a^1 .. a^n are built once per iteration and
the same evolved stacks serve the interaction and the energy.

The LHE flow is the gradient descent of an explicit energy: the two
fidelity terms whose gradient is ``(1 + lam) a`` minus the forcing
(``lam/2 |a - a0|^2 + 1/2 |a - mu|^2``, or ``1/2 |a - a0|^2 +
lam/2 |a - mu|^2`` under the discrete-paper forcing), minus 1/(4M) times
the kernel double sum of the even primitive Sigma of the polynomial.
That double sum is ``sum_{p,i} W_Sigma[p, i] <a^p, K a^i>``: a Gram
product of the powers with their evolutions, plus the terms with p = 0
or i = 0.  Those are sums of a^j alone, because the kernel conserves
mass (``sum K[f] = sum f``); in particular the degree-(n+1) term needs
no evolved a^(n+1).  The finite-difference gradient of this energy
matches the implemented drift.
"""

import contextlib
import ctypes
import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.ndimage import gaussian_filter

from .cakes import lift
from .core import LHE, MAX_POLY_DEGREE, WC, ModelConfig, as_stack
from .core import project, relative_change
from .heat import HeatPropagator, _evolve_batch, heat_evolve

FIT_SAMPLES = 2001
# (get, set) thread-count symbols of the OpenBLAS numpy links: the
# suffixed ILP64 build numpy wheels ship, then a plain system build
_BLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


def sigmoid(r, alpha: float):
    """Decreasing saturation of activity: -clamp(alpha * (r - 1/2), -1, 1)."""
    return -np.clip(alpha * (np.asarray(r, dtype=float) - 0.5), -1.0, 1.0)


def sigmoid_hat(r, alpha: float):
    """Odd saturation of contrast: clamp(alpha * r, -1, 1)."""
    return np.clip(alpha * np.asarray(r, dtype=float), -1.0, 1.0)


@dataclass
class PolyCoeffs:
    """Odd-polynomial fit of the contrast sigmoid on [-1, 1].

    ``coeffs[i]`` multiplies r^i (even entries are zero); ``sup_error``
    is the recorded maximum fit deviation over the sample grid.
    """

    degree: int
    coeffs: np.ndarray
    alpha: float
    sup_error: float


def fit_polynomial(alpha: float, degree: int) -> PolyCoeffs:
    """Least-squares odd-monomial fit of ``sigmoid_hat`` over [-1, 1]."""
    if alpha <= 1:
        raise ValueError("alpha must be > 1")
    if degree < 1 or degree % 2 == 0:
        raise ValueError("degree must be odd and >= 1")
    if degree > MAX_POLY_DEGREE:
        raise ValueError(f"degree capped at {MAX_POLY_DEGREE}")
    r = np.linspace(-1.0, 1.0, FIT_SAMPLES)
    target = sigmoid_hat(r, alpha)
    exponents = np.arange(1, degree + 1, 2)
    basis = r[:, None] ** exponents[None, :]
    sol, *_ = np.linalg.lstsq(basis, target, rcond=None)
    coeffs = np.zeros(degree + 1)
    coeffs[exponents] = sol
    sup_error = float(np.abs(basis @ sol - target).max())
    return PolyCoeffs(degree, coeffs, alpha, sup_error)


def expand_coefficients(a, poly: PolyCoeffs) -> list[np.ndarray]:
    """Coefficient fields C_i with sum_i C_i(xi) b^i = poly(a(xi) - b).

    The binomial expansion of ``sum_j c_j (a(xi) - a(eta))^j`` collected
    by powers of ``a(eta)``: ``C_i = sum_p W[p, i] a^p``.
    """
    a = as_stack(a)
    weights = _weights(poly.coeffs)
    return [_horner(a, weights[:, i]) for i in range(len(weights))]


def _weights(coeffs) -> np.ndarray:
    """W[p, i]: weight of x^p y^i in ``sum_j coeffs[j] (x - y)^j``."""
    n = len(coeffs) - 1
    w = np.zeros((n + 1, n + 1))
    for j, c in enumerate(coeffs):
        for i in range(j + 1):
            w[j - i, i] = (-1.0) ** i * math.comb(j, i) * c
    return w


def _horner(a, rows):
    """``sum_p rows[p] a^p`` by Horner's rule; rows are scalars or stacks."""
    out = np.empty_like(a)
    out[...] = rows[-1]
    for row in rows[-2::-1]:
        out *= a
        out += row
    return out


def _primitive_coeffs(coeffs) -> np.ndarray:
    """Even primitive (vanishing at 0) of an odd polynomial, termwise."""
    prim = np.zeros(len(coeffs) + 1)
    for j, c in enumerate(coeffs):
        if c != 0.0:
            prim[j + 1] = c / (j + 1)
    return prim


def wc_interaction(a, prop: HeatPropagator, tau: float, alpha: float, sign: float = 1.0):
    """Heat evolution of the voxelwise activity sigmoid."""
    return heat_evolve(sign * sigmoid(as_stack(a), alpha), prop, tau)


def lhe_interaction(a, prop: HeatPropagator, tau: float, poly: PolyCoeffs):
    """Kernel average of the polynomial contrast sigmoid.

    Computes ``sum_i C_i(xi) * exp(tau L)[a^i](xi)``; the zeroth power
    evolves to the constant 1 and is folded in directly.
    """
    a = as_stack(a)
    _, evolved = _evolved_powers(a, prop, tau, poly.degree)
    return _combine(a, _weights(poly.coeffs), evolved)


def _evolved_powers(a, prop, tau, nmax):
    """Monomials a^1 .. a^nmax and their heat evolutions.

    The powers lie on a leading axis, ``(nmax, N, N, K)``; the evolved
    stacks come back with the batch on the trailing axis,
    ``(N, N, K, nmax)``, as ``_evolve_batch`` returns them.
    """
    powers = np.empty((nmax,) + a.shape)
    powers[0] = a
    for i in range(1, nmax):
        np.multiply(powers[i - 1], a, out=powers[i])
    stacks = np.moveaxis(powers, 0, -1)
    m = prop.step_count(tau)
    if m == 0:
        return powers, stacks
    return powers, _evolve_batch(stacks, prop, m)


def _combine(a, weights, evolved):
    """``sum_{p,i} W[p, i] a^p E_i`` with E_0 = 1: a matmul, then Horner in a."""
    nmax = evolved.shape[-1]
    rows = weights[:, 1:] @ evolved.reshape(-1, nmax).T
    rows += weights[:, :1]
    return _horner(a, rows.reshape((len(weights),) + a.shape))


def local_mean(a0, sigma_mu: float):
    """Spatial Gaussian blur of each orientation slice (periodic, 4-sigma)."""
    if sigma_mu <= 0:
        raise ValueError("sigma_mu must be > 0")
    return gaussian_filter(
        as_stack(a0), sigma=(sigma_mu, sigma_mu, 0.0), mode="wrap", truncate=4.0
    )


def _fidelity_weights(cfg: ModelConfig) -> tuple[float, float]:
    """Weights of the stimulus a0 and of its local mean mu in the forcing."""
    if cfg.forcing == "continuous":
        return cfg.lam, 1.0
    return 1.0, cfg.lam  # the discrete-compatibility role swap


def _forcing(cfg: ModelConfig, a0, mu):
    w_a0, w_mu = _fidelity_weights(cfg)
    return w_a0 * a0 + w_mu * mu


def _nonlinearity_sign(cfg: ModelConfig) -> float:
    return 1.0 if cfg.sigma_sign == "paper" else -1.0


def _model_poly(cfg: ModelConfig) -> PolyCoeffs:
    poly = fit_polynomial(cfg.alpha, cfg.poly_degree)
    sign = _nonlinearity_sign(cfg)
    if sign < 0:
        poly = PolyCoeffs(poly.degree, -poly.coeffs, poly.alpha, poly.sup_error)
    return poly


def _interaction(cfg: ModelConfig, prop: HeatPropagator):
    """The model's interaction term as a function of ``a``: the WC/LHE branch.

    The function returns the term and, for LHE, the powers a^1 .. a^n
    with their evolutions, which the energy reuses (None for WC).
    """
    if cfg.model == WC:
        sign = _nonlinearity_sign(cfg)
        return lambda a: (wc_interaction(a, prop, cfg.tau, cfg.alpha, sign), None)
    poly = _model_poly(cfg)
    weights = _weights(poly.coeffs)

    def lhe(a):
        powers, evolved = _evolved_powers(a, prop, cfg.tau, poly.degree)
        return _combine(a, weights, evolved), (powers, evolved)

    return lhe


def _drift(a, forcing, inter, cfg: ModelConfig):
    return -(1.0 + cfg.lam) * a + forcing + inter / (2.0 * cfg.m_scale)


def gd_step(a, forcing, inter, cfg: ModelConfig) -> np.ndarray:
    """One explicit descent update from precomputed forcing and interaction."""
    return a + cfg.dt * _drift(a, forcing, inter, cfg)


def model_drift(a, a0, mu, cfg: ModelConfig, prop: HeatPropagator) -> np.ndarray:
    """Right-hand side of the evolution at state ``a``."""
    a = as_stack(a)
    inter, _ = _interaction(cfg, prop)(a)
    return _drift(a, _forcing(cfg, a0, mu), inter, cfg)


def lhe_energy(a, a0, mu, cfg: ModelConfig, prop: HeatPropagator) -> float:
    """Energy whose negative gradient is the LHE drift.

    Two quadratic fidelity terms weighted as in the forcing, plus the
    kernel-averaged even primitive of the polynomial contrast sigmoid.
    The primitive is integrated termwise (so Sigma(0) = 0); the
    interaction term enters with coefficient -1/(4M), which is what
    makes the printed flow its exact gradient descent.
    """
    if cfg.model != LHE:
        raise ValueError("energy is defined for the LHE model")
    a = as_stack(a)
    poly = _model_poly(cfg)
    powers, evolved = _evolved_powers(a, prop, cfg.tau, poly.degree)
    prim_weights = _weights(_primitive_coeffs(poly.coeffs))
    return _energy_from_terms(a, a0, mu, cfg, prim_weights, powers, evolved)


def _energy_from_terms(a, a0, mu, cfg, prim_weights, powers, evolved) -> float:
    """Energy from the powers a^1 .. a^n and their evolutions E_1 .. E_n.

    ``prim_weights`` is the (n+2, n+2) weight table of the primitive.
    The double sum is ``sum_{p,i} W[p, i] <a^p, K a^i>``; with p, i >= 1
    that is the Gram product of the powers with the evolved stacks, and
    with p = 0 or i = 0 it is ``sum a^j`` because K conserves mass.
    """
    w_a0, w_mu = _fidelity_weights(cfg)
    fidelity = 0.5 * w_a0 * float(((a - a0) ** 2).sum())
    mean_term = 0.5 * w_mu * float(((a - mu) ** 2).sum())
    nmax = len(powers)
    flat = powers.reshape(nmax, -1)
    gram = flat @ evolved.reshape(-1, nmax)
    sums = np.empty(nmax + 2)  # sum a^j, j = 0 .. n+1
    sums[0] = a.size
    sums[1:-1] = flat.sum(axis=1)
    sums[-1] = flat[-1] @ a.ravel()
    double_sum = (
        float((prim_weights[1:-1, 1:-1] * gram).sum())
        + float(prim_weights[:, 0] @ sums)
        + float(prim_weights[0, 1:] @ sums[1:])
    )
    inter = -double_sum / (4.0 * cfg.m_scale)
    return fidelity + mean_term + inter


@dataclass
class RunResult:
    """Outcome of a model run: projected image plus loop diagnostics."""

    image: np.ndarray
    stack: np.ndarray
    iterations: int
    converged: bool
    last_change: float
    rel_history: list
    energies: list | None = None


@functools.cache
def _blas_thread_functions():
    """numpy's OpenBLAS thread-count getter and setter, or None.

    Looked up through the handle of numpy's core extension, whose symbol
    search covers the BLAS it links.  None for a BLAS of another vendor
    (or numpy 1.x, which keeps the extension elsewhere).
    """
    try:
        from numpy._core import _multiarray_umath
    except ImportError:
        return None
    lib = ctypes.CDLL(_multiarray_umath.__file__)
    for get_name, set_name in _BLAS_THREAD_SYMBOLS:
        try:
            get, set_ = getattr(lib, get_name), getattr(lib, set_name)
        except AttributeError:
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        return get, set_
    return None


@contextlib.contextmanager
def _single_blas_thread():
    """Hold numpy's OpenBLAS at one thread, then restore the caller's count.

    The loop's BLAS calls are small and memory-bound; spread over a
    thread pool, the idle workers spin on the cores the FFT threads and
    sibling sweep processes need, and a dot product split over threads
    sums in an order that depends on the machine's core count.  The
    count is process-wide.  Without OpenBLAS this does nothing.
    """
    functions = _blas_thread_functions()
    if functions is None:
        yield
        return
    get, set_ = functions
    previous = get()
    set_(1)
    try:
        yield
    finally:
        set_(previous)


@_single_blas_thread()
def run_model(
    f0,
    cfg: ModelConfig,
    bank,
    prop: HeatPropagator,
    trace_energy: bool = False,
) -> RunResult:
    """Lift, iterate to the stopping rule, project.

    Non-convergence within ``cfg.max_iters`` is reported through the
    ``converged`` flag, not an exception; a non-finite relative change
    raises ``FloatingPointError`` naming the iteration.  With
    ``trace_energy`` (LHE only) the energy sequence E(A_0) .. E(A_P) is
    recorded; it reuses the powers and evolved powers already built for
    the interaction.  numpy's BLAS runs on one thread for the whole call,
    so the result does not depend on the machine's core count.
    """
    a0 = lift(f0, bank)
    mu = local_mean(a0, cfg.sigma_mu)
    forcing = _forcing(cfg, a0, mu)
    interaction = _interaction(cfg, prop)
    trace_energy = trace_energy and cfg.model == LHE
    if trace_energy:
        prim_weights = _weights(_primitive_coeffs(_model_poly(cfg).coeffs))

    a = a0
    rel_history = []
    energies = [] if trace_energy else None
    converged = False
    for p in range(1, cfg.max_iters + 1):
        inter, terms = interaction(a)
        if trace_energy:
            energies.append(_energy_from_terms(a, a0, mu, cfg, prim_weights, *terms))
        del terms  # free the powers before the next iteration builds its own
        new_a = gd_step(a, forcing, inter, cfg)
        rel = relative_change(new_a, a)
        if not math.isfinite(rel):
            raise FloatingPointError(
                f"{cfg.model.upper()} run diverged: relative change is {rel} "
                f"at iteration {p}"
            )
        rel_history.append(rel)
        a = new_a
        if rel < cfg.tol:
            converged = True
            break
    if trace_energy:
        energies.append(lhe_energy(a, a0, mu, cfg, prop))

    return RunResult(
        image=project(a),
        stack=a,
        iterations=len(rel_history),
        converged=converged,
        last_change=rel_history[-1],
        rel_history=rel_history,
        energies=energies,
    )

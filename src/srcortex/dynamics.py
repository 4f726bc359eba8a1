"""Activation dynamics: sigmoids, interaction terms and the descent loop.

Both models evolve an activation stack ``a`` by explicit time stepping of

    da/dt = -(1 + lam) a + lam a0 + mu + (s/2M) * S[a]

where ``S`` applies the heat kernel to a sigmoid of the activity (WC) or
of the local contrast (LHE).  The sign s = +1 and the normalizer M = 1
are both fixed, so the one scalar s/2M = 1/2 is ``INTERACTION_SCALE``.
Under ``forcing="discrete-paper"`` the stimulus and its local mean swap
weights: ``a0 + lam mu``.

The LHE contrast term is made separable by replacing the clamped-linear
sigmoid with an odd polynomial fit.  Expanding ``sum_j c_j (x - y)^j``
binomially gives one weight table

    W[p, i] = (-1)^i c_{p+i} binom(p+i, i),   the weight of x^p y^i,

so with K the heat kernel and E_i = K[a^i] (E_0 = 1) the interaction is

    S[a](xi) = sum_p a(xi)^p * sum_i W[p, i] E_i(xi):

one small matmul of the table with the evolved powers, giving one row
R_p = sum_i W[p, i] E_i per degree, then a Horner pass in ``a``.  The
combine does both a block of ``BLOCK`` entries at a time, so the rows
exist only for the block in hand.
``_interaction`` is the one place a model is evaluated: it builds the
fit and its weight table once, and each call evolves the powers a^1 ..
a^n once, for the interaction and the energy alike.

The LHE flow is the gradient descent of an explicit energy: the two
fidelity terms whose gradient is ``(1 + lam) a`` minus the forcing
(``lam/2 |a - a0|^2 + 1/2 |a - mu|^2``, or ``1/2 |a - a0|^2 +
lam/2 |a - mu|^2`` under the discrete-paper forcing), minus s/(4M) times
the kernel double sum of the even primitive Sigma of the polynomial,
``sum_{p,i} W_Sigma[p, i] <a^p, K a^i>``.  With weights w_a0 and w_mu
the fidelity terms expand to ``(w_a0 + w_mu)/2 |a|^2 - a . forcing +
C``, ``C = (w_a0 |a0|^2 + w_mu |mu|^2) / 2``, so an evaluation reads
the forcing, which the descent step needs anyway, and one constant
formed per run.  Sigma's weight table is the
polynomial's shifted by one degree, ``W_Sigma[p, i] = W[p - 1, i] / p``
for p >= 1, so the terms with p >= 1 are ``sum_x a H(a)`` with
``H = sum_q a^q R_q / (q + 1)``, which the combine evaluates from each
block's rows in the same pass as the interaction.  The terms
with p = 0 are ``sum_i W_Sigma[0, i] sum_x K[a^i] = sum_x Sigma(-a)``,
because the kernel conserves mass (``sum K[f] = sum f``), and
Sigma(-a) = Sigma(a).  So the double sum is ``sum_x (a H(a) +
Sigma(a))`` and costs no evolution or product beyond the interaction's;
in particular the degree-(n+1) term needs no evolved a^(n+1).  The
combine sums it, ``|a|^2`` and ``a . forcing`` block by block, so H
never exists beyond a block.  The finite-difference gradient of this
energy matches the implemented drift.

Precision: ``run_model`` evaluates the kernel terms of both models in
float32 (``RUN_DTYPE``), where the FFTs and the mode product are
cheaper, and adds the interaction to its float64 state.  For WC
these are the sigmoid and its evolution; for LHE the powers, their
evolutions, the rows, the interaction and H.  The LHE Anderson history
stores its difference rows and its last residual and iterate in
``RUN_DTYPE`` too; each new pair is formed in float64 before it is
stored, and the extrapolation's Gram matrix and ``Phi(x)`` are float64,
so the rows' rounding enters only the correction, which vanishes at the
fixed point.  The state, the descent step, the WC secant pair, the
stopping rule and the energy's fidelity terms, Sigma, the product a H
and the sums stay float64.
``model_drift`` and ``lhe_energy`` evaluate wholly in float64.  An
evaluation keeps one working array for as long as it lives (a whole run
in ``run_model``): the evolution's complex mode-product buffer, the
half spectrum of its stacks.  The sigmoid stack (WC) or the n powers
(LHE) are staged in it, since the mode product overwrites all of it
and only the forward transform reads them; from the inverse transform
until the next call stages them, the same memory holds every thread's
scratch: the combine's (a block's rows and its block of ``a`` cast to
``RUN_DTYPE``, since the first power is overwritten by then, then H's
block and the energy's two float64 blocks) and, between calls, the
descent step's, the stopping rule's and the accelerator's.  On an LHE
grid of about one block, where it cannot hold one thread's combine
scratch, the evaluation keeps a second array that can, and lends that
instead; no thread keeps scratch of its own.  ``_interaction`` takes a0
and mu and forms the forcing, and for LHE C, before it returns the
evaluation, which keeps neither: a run holds mu only while its
evaluation is built and a0 only as its first state.
The large arrays a call allocates are the forward spectrum, the
evolved stacks in its memory, and the interaction.

Threads: every full-stack pass of the descent loop is one
``core.run_blocks`` call: the WC sigmoid, the LHE cast of the state and
its powers, the combine, the descent step (``gd_step``), the stopping
rule (``relative_change``) and both passes of either accelerator; the
mode product runs on the pool a block of the heat layer's ``pieces``
at a time.  Every thread's scratch is carved from the mode-product
buffer, which is idle from the inverse transform to the next
evaluation, so on a grid of a couple of blocks a pass whose scratch
that buffer holds only once runs on the calling thread alone.  Only
the calling thread enters the functions the benchmark's recorder
wraps, once per evaluation each.

``run_model`` seeks the fixed point of the descent step
``G(a) = a + dt * drift(a)`` and stops when ``|G(a) - a| / |G(a)| <
tol``.  Near the fixed point the plain iteration ``a <- G(a)`` contracts
slowly (about 0.993 per step for LHE, 0.88 for WC), so both models use
type-II Anderson acceleration (Walker & Ni, SIAM J. Numer. Anal. 49(4),
2011).  LHE extrapolates, from the last five pairs, the Picard map
``Phi(a) = (forcing + S[a]/2) / (1 + lam)``: the model equation solved
for ``a``, of which G moves only ``(1 + lam) dt`` of the way (0.45 for
the figures).  Its step is guarded by the energy: each interaction
evaluation yields the energy of its state, an extrapolated state (the
first Picard step included) that does not lower it is rejected, and the
run restarts from the plain step with the history cleared.  So the
accepted energies never rise, as long as the plain step descends (dt in
the stable range).  WC has no energy.  It extrapolates G itself from one
secant pair (1.4-1.8 ms per update at N=200, K=16 on one thread,
against 6.9-7.7 ms for the sigmoid and the heat layer of an
evaluation), guarded by the relative
change: an extrapolated state whose step changes it no less than the
last accepted state's did is rejected in the same way.
"""

import contextlib
import ctypes
import functools
import math
from dataclasses import dataclass

import numpy as np

from .cakes import lift
from .core import BLOCK, LHE, WC, ModelConfig, as_stack, check_fit
from .core import project, relative_change, run_blocks
from .heat import HeatPropagator, _evolve_batch, irfft2, mode_product_buffer, rfft2, staged_stacks

FIT_SAMPLES = 2001
ANDERSON_WINDOW = 5  # secant pairs the LHE solver extrapolates from
RUN_DTYPE = np.float32  # run_model's kernel terms (both models) and LHE Anderson history
INTERACTION_SCALE = 0.5  # s/2M, the interaction's weight in the drift
MAX_MEAN_WRAPS = 1024  # axis lengths the local mean's kernel may span
# (get, set) thread-count symbols of the OpenBLAS numpy links: the
# suffixed ILP64 build numpy wheels ship, then a plain system build
_BLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


def sigmoid(r, alpha: float, out=None):
    """Decreasing saturation of activity: -clamp(alpha * (r - 1/2), -1, 1).

    Computes in ``out``'s dtype into ``out`` if given (a C-contiguous
    array, which may be ``r`` itself), else in float32 for a float32
    ``r`` and float64 otherwise into a new array.  The cast and the
    shift are one pass, and the negation rides on the slope: clamping is
    odd, so ``clip(-alpha x)`` is the negated clamp bit for bit.  The
    pass is one ``run_blocks`` call.
    """
    r = np.asarray(r)
    if out is None:
        out = np.empty(r.shape, np.float32 if r.dtype == np.float32 else np.float64)
    r_flat, out_flat = r.reshape(-1), out.reshape(-1)

    def block(b, _):
        out_b = np.subtract(r_flat[b], 0.5, out=out_flat[b], dtype=out.dtype)
        out_b *= -alpha
        np.clip(out_b, -1.0, 1.0, out=out_b)

    run_blocks(block, out.size)
    return out


def sigmoid_hat(r, alpha: float):
    """Odd saturation of contrast: clamp(alpha * r, -1, 1)."""
    return np.clip(alpha * np.asarray(r, dtype=float), -1.0, 1.0)


@dataclass
class PolyCoeffs:
    """Odd-polynomial fit of the contrast sigmoid on [-1, 1].

    ``coeffs[i]`` multiplies r^i (even entries are zero; the degree is
    ``len(coeffs) - 1``); ``sup_error`` is the recorded maximum fit
    deviation over the sample grid.
    """

    coeffs: np.ndarray
    sup_error: float


def fit_polynomial(alpha: float, degree: int) -> PolyCoeffs:
    """Least-squares odd-monomial fit of ``sigmoid_hat`` over [-1, 1]."""
    check_fit(alpha, degree)
    r = np.linspace(-1.0, 1.0, FIT_SAMPLES)
    target = sigmoid_hat(r, alpha)
    exponents = np.arange(1, degree + 1, 2)
    basis = r[:, None] ** exponents[None, :]
    sol, *_ = np.linalg.lstsq(basis, target, rcond=None)
    coeffs = np.zeros(degree + 1)
    coeffs[exponents] = sol
    sup_error = float(np.abs(basis @ sol - target).max())
    return PolyCoeffs(coeffs, sup_error)


def _weights(coeffs) -> np.ndarray:
    """W[p, i]: weight of x^p y^i in ``sum_j coeffs[j] (x - y)^j``."""
    n = len(coeffs) - 1
    w = np.zeros((n + 1, n + 1))
    for j, c in enumerate(coeffs):
        for i in range(j + 1):
            w[j - i, i] = (-1.0) ** i * math.comb(j, i) * c
    return w


def _horner(a, rows, out=None):
    """``sum_p rows[p] a^p`` by Horner's rule, into ``out`` or a new array.

    Rows are scalars or arrays of a's shape; ``out`` may be the last row.
    """
    if out is None:
        out = np.empty_like(a)
    out[...] = rows[-1]
    for row in rows[-2::-1]:
        out *= a
        out += row
    return out


def _primitive_coeffs(coeffs) -> np.ndarray:
    """Even primitive (vanishing at 0) of an odd polynomial, termwise."""
    return np.concatenate(([0.0], coeffs / np.arange(1, len(coeffs) + 1)))


def _evolved_powers(a, powers, prop, tau, product):
    """Heat evolutions E_1 .. E_nmax of the monomials a^1 .. a^nmax, in the powers' dtype.

    ``powers`` is a C-contiguous ``(nmax, N, N, K)`` array: ``a`` is
    cast into ``powers[0]``, the higher powers are built in the rest of
    it, and they reach ``_evolve_batch`` as its ``(N, N, K, nmax)`` view.
    ``product`` is the evolution's mode-product buffer, in which
    ``powers`` may be staged (``staged_stacks``).  The cast and the
    powers are one ``run_blocks`` pass over a block of every power at a
    time.  The evolved stacks come back as a new array with the batch on
    the trailing axis, ``(N, N, K, nmax)``.
    """
    flat, a_flat = powers.reshape(len(powers), -1), a.reshape(-1)

    def block(b, _):
        np.copyto(flat[0, b], a_flat[b], casting="same_kind")
        for i in range(1, len(flat)):
            np.multiply(flat[i - 1, b], flat[0, b], out=flat[i, b])

    run_blocks(block, flat.shape[1])
    return _evolve_batch(np.moveaxis(powers, 0, -1), prop, prop.step_count(tau), product)


def _row_scratch(degree: int, dtype) -> int:
    """Rows of one thread's combine scratch in ``dtype``: a block's rows and cast of ``a``.

    Or, where more (float32 at degree 1), the energy's two float64 blocks and H's row.
    """
    energy = 2 * np.dtype(np.float64).itemsize // np.dtype(dtype).itemsize + 1
    return max(degree + 2, energy)


def _combine(a, weights, evolved, forcing, prim, spare=None):
    """The interaction ``sum_{p,i} W[p, i] a^p E_i`` (E_0 = 1) and the energy's sums.

    One ``run_blocks`` pass in the evolved stacks' dtype, on
    ``_row_scratch`` rows of scratch per thread that ``spare`` lends.
    Each block of ``a`` is cast to that dtype, and its rows ``R_p =
    sum_i W[p, i] E_i`` are one small matmul; both go to the end of the
    thread's scratch.  A Horner pass in ``a`` over the rows
    gives the interaction, and one over ``R_q / (q + 1)`` gives ``H =
    sum_q a^q R_q / (q + 1)`` over the last row.  The entries before it
    then hold two float64 blocks, in which the energy's sums ``|a|^2``,
    ``a . forcing`` and ``sum_x (Sigma(a) + a H)`` are taken (``prim``
    holds Sigma's coefficients).  Returns the interaction, a new array of
    a's shape, and the sums, each added in block order; no full-size row
    or H is kept.
    """
    dtype, nmax = evolved.dtype, evolved.shape[-1]
    weights = weights.astype(dtype, copy=False)
    divisors = np.arange(1, len(weights) + 1, dtype=dtype)[:, None]
    term = np.empty(a.shape, dtype)
    a_flat, f_flat, term_flat = a.ravel(), forcing.ravel(), term.ravel()
    e_flat = evolved.reshape(-1, nmax)

    def block(b, scratch):
        a_b, f_b = a_flat[b], f_flat[b]
        s, width = scratch.reshape(-1), a_b.size
        r = s[s.size - len(weights) * width :].reshape(len(weights), -1)
        np.matmul(weights[:, 1:], e_flat[b].T, out=r)
        r += weights[:, :1]
        cast = s[s.size - (len(weights) + 1) * width :][:width]
        np.copyto(cast, a_b, casting="same_kind")
        _horner(cast, r, out=term_flat[b])
        r /= divisors
        h_b = _horner(cast, r, out=r[-1])
        # the energy's two float64 blocks, 16 bytes an entry, end before H's
        square, sigma = s.view(np.uint8)[: 16 * width].view(np.float64).reshape(2, -1)
        d = np.multiply(a_b, a_b, out=square)
        total = _horner(d, prim[::2], out=sigma)
        # a H as H widened, then times a: a mixed-dtype product would take
        # numpy's cast buffer
        np.copyto(square, h_b)
        square *= a_b
        total += square
        return float(a_b @ a_b), float(a_b @ f_b), float(total.sum())

    sums = [0.0, 0.0, 0.0]
    for part in run_blocks(block, a.size, spare, _row_scratch(nmax, dtype), dtype):
        sums = [total + b for total, b in zip(sums, part)]
    return term, sums


def local_mean(a0, sigma_mu: float):
    """Spatial Gaussian blur of each orientation slice (periodic, 4-sigma).

    The kernel is the sampled Gaussian exp(-x^2 / (2 sigma_mu^2)) on
    |x| <= int(4 sigma_mu + 1/2), normalized to sum 1 and wrapped onto
    the periodic N-pixel axis (a kernel longer than the axis wraps more
    than once): ``scipy.ndimage.gaussian_filter``'s with ``mode="wrap"``
    and ``truncate=4``.  The blur multiplies each slice's ``rfft2`` half
    spectrum by that of the separable 2D kernel, which is real since the
    kernel is even, and inverts the product with ``heat.irfft2``.

    All ``2 radius + 1`` taps are built before they are wrapped, so a
    width whose kernel spans more than ``MAX_MEAN_WRAPS`` axis lengths
    is rejected: the taps of a width near 1e8 would take gigabytes, and
    at the cap the blur already gives each slice its mean to within a
    relative 1e-6.
    """
    if sigma_mu <= 0:
        raise ValueError("sigma_mu must be > 0")
    a = as_stack(a0)
    n = a.shape[0]
    radius = int(4.0 * sigma_mu + 0.5)
    if 2 * radius + 1 > MAX_MEAN_WRAPS * n:
        raise ValueError(f"sigma_mu={sigma_mu:g}: the local mean's kernel spans more than "
                         f"{MAX_MEAN_WRAPS} times the N={n} pixel axis")
    taps = np.arange(-radius, radius + 1)
    weights = np.exp(-0.5 * (taps / sigma_mu) ** 2)
    kernel = np.bincount(taps % n, weights / weights.sum(), minlength=n)
    spec = rfft2(a)
    spec *= rfft2(np.outer(kernel, kernel)).real[..., None]
    return irfft2(spec, n)


def _forcing(cfg: ModelConfig, a0, mu):
    w_a0, w_mu = cfg.fidelity_weights
    return w_a0 * a0 + w_mu * mu


def _fidelity_constant(cfg: ModelConfig, a0, mu) -> float:
    """``(w_a0 |a0|^2 + w_mu |mu|^2) / 2``, the part of the fidelity energy free of ``a``."""
    w_a0, w_mu = cfg.fidelity_weights
    a0, mu = a0.ravel(), mu.ravel()
    return 0.5 * (w_a0 * float(a0 @ a0) + w_mu * float(mu @ mu))


def _interaction(cfg: ModelConfig, prop: HeatPropagator, a0, mu, dtype=np.float64):
    """The model evaluation: a function of the state ``a`` giving ``(term, energy)``.

    ``term`` is the interaction S[a] before its scale s/2M; ``energy``
    is the energy of ``a`` for LHE and None for WC.  From the lifted
    image ``a0`` and its local mean ``mu`` this is the one place that
    forms the forcing (``_forcing``), which the evaluation offers as
    ``forcing`` for the descent step, and, for LHE only, the fidelity
    constant (``_fidelity_constant``): the LHE energy's fidelity terms
    are ``(w_a0 + w_mu) |a|^2 / 2 - a . forcing + constant``, so the
    evaluation holds neither a0 nor mu.  The kernel
    terms are computed from ``a`` cast to ``dtype`` (by the sigmoid in
    the same pass for WC; into the first LHE power, and block by block
    in the combine), and ``term`` comes back in ``dtype``: the WC
    sigmoid and its evolution, or the LHE powers, their evolutions and
    the combine.  The LHE energy's fidelity terms,
    primitive and sums take ``a`` itself.  The LHE fit and its weight
    table are built here, once.

    The evaluation allocates one working array, here: the heat layer's
    mode-product buffer.  The stacks it hands the heat layer (the
    sigmoid stack, or the powers) are staged in it (``staged_stacks``),
    and the same memory, idle from the inverse transform to the next
    call, lends the combine its threads' scratch (on an LHE grid of
    about one block, a second array does); the evaluation offers it as
    ``spare`` for the descent step's, the stopping rule's and the
    accelerator's scratch between calls.
    Each call returns a new ``term``.
    No call checks ``a``: ``model_drift`` and ``lhe_energy`` validate it
    first.  In ``run_model`` a WC state is ``a0`` or a step whose
    relative change was found finite, and a non-finite LHE state gives a
    non-finite energy, which the run rejects.
    """
    forcing = _forcing(cfg, a0, mu)
    if cfg.model == WC:
        m = prop.step_count(cfg.tau)
        product = mode_product_buffer(prop, 1, dtype)
        stack = staged_stacks(product)

        def wc(a):
            sigmoid(a, cfg.alpha, out=stack[0])
            return _evolve_batch(np.moveaxis(stack, 0, -1), prop, m, product)[..., 0], None

        wc.forcing, wc.spare = forcing, stack
        return wc
    constant = _fidelity_constant(cfg, a0, mu)
    coeffs = fit_polynomial(cfg.alpha, cfg.poly_degree).coeffs
    weights = _weights(coeffs)
    prim = _primitive_coeffs(coeffs)
    n = cfg.poly_degree
    product = mode_product_buffer(prop, n, dtype)
    powers = staged_stacks(product)
    entries = _row_scratch(n, dtype) * min(BLOCK, forcing.size)
    spare = powers if powers.size >= entries else np.empty(entries, dtype)

    def lhe(a):
        evolved = _evolved_powers(a, powers, prop, cfg.tau, product)
        # the powers' memory is idle from here to the next call
        term, sums = _combine(a, weights, evolved, forcing, prim, spare)
        return term, _energy_from_terms(sums, constant, cfg)

    lhe.forcing, lhe.spare = forcing, spare
    return lhe


def _drift(a, forcing, inter, cfg: ModelConfig, out=None, scaled=None):
    """``-(1 + lam) a + forcing + inter / 2``, summed in that order into ``out`` or a new array.

    ``inter / 2`` is formed in ``scaled``, an array of inter's shape, or a new one.
    """
    g = np.multiply(a, -(1.0 + cfg.lam), out=out)
    g += forcing
    g += np.multiply(inter, INTERACTION_SCALE, out=scaled)
    return g


def gd_step(a, forcing, inter, cfg: ModelConfig, spare=None) -> np.ndarray:
    """One explicit descent update from precomputed forcing and interaction.

    ``a + dt * drift`` into a new float64 array, one ``run_blocks``
    pass: each block's drift and update are done while it is in cache,
    so every array is read from memory once.  The scaled interaction of
    each block goes to the thread's scratch, a block of inter's dtype
    that ``spare`` lends.
    """
    g = np.empty(a.shape)
    flat = [x.ravel() for x in (g, a, forcing, inter)]

    def block(b, scratch):
        out, a_b, f_b, i_b = (x[b] for x in flat)
        _drift(a_b, f_b, i_b, cfg, out, scratch[0, : len(out)])
        out *= cfg.dt
        out += a_b

    run_blocks(block, g.size, spare, 1, inter.dtype)
    return g


def model_drift(a, a0, mu, cfg: ModelConfig, prop: HeatPropagator) -> np.ndarray:
    """Right-hand side of the evolution at state ``a``."""
    a = as_stack(a)
    interaction = _interaction(cfg, prop, a0, mu)
    return _drift(a, interaction.forcing, interaction(a)[0], cfg)


def lhe_energy(a, a0, mu, cfg: ModelConfig, prop: HeatPropagator) -> float:
    """Energy whose negative gradient is the LHE drift.

    Two quadratic fidelity terms weighted as in the forcing, plus the
    kernel-averaged even primitive of the polynomial contrast sigmoid.
    The primitive is integrated termwise (so Sigma(0) = 0); the
    interaction term enters with coefficient -s/(4M), half the drift's
    scale with the opposite sign, which is what makes the printed flow
    its exact gradient descent.  ``run_model`` records this energy for
    each evaluated state, from the same ``_interaction`` call, with the
    kernel terms in float32.
    """
    if cfg.model != LHE:
        raise ValueError("energy is defined for the LHE model")
    return _interaction(cfg, prop, a0, mu)(as_stack(a))[1]


def _energy_from_terms(sums, constant: float, cfg: ModelConfig) -> float:
    """Energy of ``a`` from the combine's ``sums``: ``|a|^2``, ``a . forcing`` and the double sum.

    The fidelity terms ``w_a0/2 |a - a0|^2 + w_mu/2 |a - mu|^2`` are
    expanded as ``(w_a0 + w_mu)/2 |a|^2 - a . forcing + constant``, with
    ``forcing = w_a0 a0 + w_mu mu`` and ``constant = (w_a0 |a0|^2 + w_mu
    |mu|^2) / 2`` formed once per run.  Sigma's weight table is the
    combine's shifted by one degree,
    ``W_Sigma[p, i] = W[p - 1, i] / p`` for p >= 1, so the terms with
    p >= 1 of the double sum ``sum_{p,i} W_Sigma[p, i] <a^p, K a^i>`` are
    ``sum_x a H(a)``.  The terms with p = 0 are ``sum_i W_Sigma[0, i]
    sum_x K[a^i] = sum_x Sigma(-a)`` because K conserves mass, and Sigma
    is even, so the combine evaluates it as a polynomial in ``a * a``.
    The double sum enters with half the interaction's scale, negated.
    """
    w_a0, w_mu = cfg.fidelity_weights
    norm, cross, double_sum = sums
    inter = -0.5 * INTERACTION_SCALE * double_sum
    return 0.5 * (w_a0 + w_mu) * norm - cross + constant + inter


@dataclass
class RunResult:
    """Outcome of a model run: projected image plus loop diagnostics.

    ``iterations`` counts interaction evaluations: one per entry of
    ``rel_history`` (the accepted iterates' relative changes, the last
    one the stopping rule's) plus ``rejected_steps``, the extrapolations
    the guard turned down (the energy for LHE, the relative change for
    WC).  ``energies``
    (LHE only) pairs with ``rel_history``: entry i is the energy of the
    i-th accepted evaluated state, from the same evaluation.  The
    returned state G(a) is never evaluated, so it has no entry.
    """

    image: np.ndarray
    stack: np.ndarray
    iterations: int
    converged: bool
    rel_history: list
    energies: list | None = None
    rejected_steps: int = 0
    interaction_dtype: str = "float64"


class _SecantPair:
    """Type-II Anderson mixing with one secant pair, the WC solver's.

    Keeps only the residual ``f_prev = G(x) - x`` and the image
    ``g_prev = G(x)`` of the last accepted iterate, no difference rows.
    With ``f = G(x) - x`` and ``df = f - f_prev`` the next iterate is
    ``G(x) - gamma (G(x) - g_prev)``, ``gamma = (df . f) / (df . df)``:
    ``_AndersonHistory``'s update with one pair.  The dots and the
    update are one ``run_blocks`` pass each.  Each block's ``df`` is
    formed in ``f_prev``, which then takes ``f``, so a thread's only
    scratch is a block of ``f``, lent by ``spare``, a buffer that
    nothing reads between the caller's updates (``run_model`` lends the
    evaluation's idle memory).  The next iterate is written over
    ``g_prev``, the caller's previous G(x), which the caller no longer
    reads, so an update allocates no stack.
    """

    def __init__(self, size: int, spare=None):
        self.spare = spare
        self.f_prev = np.empty(size)
        self.g_prev = None  # None until an iterate is recorded

    def clear(self):
        """Forget the pair; the next two accepted iterates start a new one."""
        self.g_prev = None

    def extrapolate(self, x, g):
        """Record the accepted iterate x with g = G(x); return the next iterate.

        With no previous iterate recorded, or a zero ``df``, this is g,
        the plain descent step.
        """
        x_flat, g_flat = x.ravel(), g.ravel()
        g_prev, self.g_prev = self.g_prev, g_flat
        if g_prev is None:
            np.subtract(g_flat, x_flat, out=self.f_prev)
            return g

        def record(b, scratch):
            g_b, x_b, fp_b = g_flat[b], x_flat[b], self.f_prev[b]
            f_b = np.subtract(g_b, x_b, out=scratch[0, : len(g_b)])
            df_b = np.subtract(f_b, fp_b, out=fp_b)
            dots = float(df_b @ f_b), float(df_b @ df_b)
            fp_b[...] = f_b
            return dots

        dot_f = dot_df = 0.0
        for block_f, block_df in run_blocks(record, g_flat.size, self.spare, 1):
            dot_f += block_f
            dot_df += block_df
        if dot_df == 0.0:
            return g
        gamma = dot_f / dot_df

        def update(b, _):
            g_b, out_b = g_flat[b], g_prev[b]
            out_b -= g_b
            out_b *= gamma
            out_b += g_b  # g - gamma (g - g_prev)

        run_blocks(update, g_flat.size)
        return g_prev.reshape(g.shape)


class _AndersonHistory:
    """Type-II Anderson mixing on the LHE Picard map (Walker & Ni, 2011).

    The descent step ``G(a) = a + dt * drift(a)`` moves only
    ``(1 + lam) dt`` of the way to the model equation solved for ``a``,
    the Picard map ``Phi(a) = a + beta (G(a) - a) = (forcing + S[a]/2) /
    (1 + lam)``, ``beta = 1 / ((1 + lam) dt)``.  The history extrapolates
    Phi.  It holds the differences of the residuals ``f = G(x) - x`` and
    of the images ``Phi(x)`` of consecutive accepted iterates in two
    preallocated ``(ANDERSON_WINDOW, size)`` ring buffers, ``df`` and
    ``dphi = dx + beta df``.  The next iterate is ``Phi(x) - dphi^T
    gamma``, with gamma solving the Gram system ``df df^T gamma = df f``
    (least squares, so a singular Gram matrix gives the minimum-norm
    gamma); Phi's residual is ``beta f``, and gamma does not depend on
    that scale.  The order of the pairs in the ring does not matter to
    that solution.  The Gram matrix is kept and only the new pair's row
    and column are computed.

    The rings and the last accepted ``f`` and ``x`` are stored in
    ``RUN_DTYPE`` (float32), as copies rather than references to the
    caller's stacks.  Each new pair is formed in float64 from the
    float64 ``x`` and ``G(x)`` and the stored previous ones, then
    rounded into its slot.  The Gram matrix and the right-hand side
    ``df f`` are float64 sums over the stored rows, widened a block at
    a time, and ``Phi(x)`` is float64; the correction ``dphi^T gamma``
    is taken in ``RUN_DTYPE``, like the rows it combines, and vanishes
    at the fixed point.  An update reads ``x`` and ``G(x)`` once, in
    two ``run_blocks`` passes, and its one new stack is the returned
    iterate.  Each thread's block scratch (the widened df rows, the new
    df row and f; then the correction) is lent by ``spare``, a buffer
    that nothing reads between the caller's updates (``run_model`` hands
    the history its evaluation's idle memory).
    """

    def __init__(self, size: int, cfg: ModelConfig, spare=None):
        self.spare = spare
        self.beta = 1.0 / ((1.0 + cfg.lam) * cfg.dt)
        self.df = np.empty((ANDERSON_WINDOW, size), RUN_DTYPE)
        self.dphi = np.empty((ANDERSON_WINDOW, size), RUN_DTYPE)
        self.f_prev = np.empty(size, RUN_DTYPE)
        self.x_prev = np.empty(size, RUN_DTYPE)
        self.gram = np.empty((ANDERSON_WINDOW, ANDERSON_WINDOW))
        self.pairs = 0  # valid pairs, in slots 0 .. pairs-1 until the ring wraps
        self.slot = 0  # the slot the next pair overwrites
        self.recorded = False  # whether f_prev and x_prev hold an iterate

    def clear(self):
        """Forget every pair; the next two accepted iterates start a new one.

        The Gram matrix needs no reset: its valid block is empty, and
        each new pair writes its row and column over every valid slot.
        """
        self.pairs = self.slot = 0
        self.recorded = False

    def extrapolate(self, x, g):
        """Record the accepted iterate x with g = G(x); return the next iterate.

        With no pair recorded yet this is ``Phi(x)`` itself.  The
        returned iterate is always a new float64 array.  The first pass
        writes ``Phi(x)`` into it while recording the pair, and the
        second subtracts the correction.
        """
        x_flat, g_flat = x.ravel(), g.ravel()
        if self.recorded:
            self.pairs = min(self.pairs + 1, ANDERSON_WINDOW)
        pairs, slot = self.pairs, self.slot
        out = np.empty(x_flat.size)

        def record(b, scratch):
            x_b = x_flat[b]
            # one block of the df rows widened, of the new df row and of f
            rows, pair = np.split(scratch[:, : len(x_b)], [ANDERSON_WINDOW])
            f_b = np.subtract(g_flat[b], x_b, out=pair[1])
            out_b = np.multiply(f_b, self.beta, out=out[b])
            out_b += x_b  # Phi(x)
            f_prev, x_prev = self.f_prev[b], self.x_prev[b]
            dots = None  # df . df[slot] and df . f
            if pairs:
                d = np.subtract(f_b, f_prev, out=pair[0])
                self.df[slot, b] = d
                d *= self.beta
                d += x_b
                d -= x_prev  # dx + beta df
                self.dphi[slot, b] = d
                rows = rows[:pairs]
                rows[...] = self.df[:pairs, b]
                d[...] = rows[slot]  # the stored df row
                dots = rows @ pair.T
            f_prev[...] = f_b
            x_prev[...] = x_b
            return dots

        partial = run_blocks(record, out.size, self.spare, ANDERSON_WINDOW + 2)
        self.recorded = True
        if pairs:
            dots = np.zeros((pairs, 2))
            for block_dots in partial:
                dots += block_dots
            self.gram[slot, :pairs] = self.gram[:pairs, slot] = dots[:, 0]
            self.slot = (slot + 1) % ANDERSON_WINDOW
            gram = self.gram[:pairs, :pairs]
            gamma = np.linalg.lstsq(gram, dots[:, 1], rcond=None)[0].astype(self.dphi.dtype)

            def correct(b, scratch):
                out_b = out[b]
                # the correction, in the rows' dtype
                c = scratch[0, : len(out_b)]
                out_b -= np.matmul(gamma, self.dphi[:pairs, b], out=c)

            run_blocks(correct, out.size, self.spare, 1, self.dphi.dtype)
        return out.reshape(x.shape)


@functools.cache
def _blas_thread_functions():
    """numpy's OpenBLAS thread-count getter and setter, or None.

    Looked up through the handle of numpy's core extension, whose symbol
    search covers the BLAS it links.  None for a BLAS of another vendor.
    """
    from numpy._core import _multiarray_umath
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
    count is process-wide, so it also keeps the block pool's helpers'
    BLAS calls on one thread each.  Without OpenBLAS this does nothing.
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
def run_model(f0, cfg: ModelConfig, bank, prop: HeatPropagator) -> RunResult:
    """Lift, iterate to the stopping rule, project.

    Both models stop at the first evaluated state ``a`` whose descent
    step ``G(a) = gd_step(a, ...)`` satisfies ``relative_change(G(a), a)
    < cfg.tol``, and return ``G(a)``.  Both iterate with type-II Anderson
    acceleration.  LHE extrapolates the Picard map ``Phi(a) = a + (G(a)
    - a) / ((1 + lam) dt)`` from five pairs (``_AndersonHistory``); with
    no pair recorded its next state is ``Phi(a)`` itself.  Each such
    state counts as extrapolated and is guarded by the energy that each
    interaction evaluation yields: one whose energy is non-finite or
    above that of the last accepted state is rejected, and the run
    restarts from the plain step G of the last accepted state with the
    history cleared.  A plain step has nothing to fall back to and is
    accepted; for dt in the stable range it descends, and if its energy
    does not fall it clears the history, so no extrapolation builds on
    an ascending (for example diverging) run.  WC extrapolates G itself
    from one pair (``_SecantPair``), guarded by the relative change: an
    extrapolated state whose relative change is not below the last
    accepted state's is rejected in the same way.  A non-finite relative
    change raises before that guard is consulted.

    ``cfg.max_iters`` caps the interaction evaluations.  Non-convergence
    is reported through the ``converged`` flag, not an exception; a
    non-finite relative change raises ``FloatingPointError`` naming the
    evaluation.  numpy's BLAS runs on one thread for the whole call, so
    the result does not depend on the machine's core count.  The kernel
    terms of both models (the WC sigmoid and its evolution, the LHE
    powers, evolutions and combine) are evaluated in ``RUN_DTYPE``
    (float32), and the LHE Anderson history is stored in it; everything
    else is float64.
    """
    a = lift(f0, bank)  # the initial state a0, which lives on only as the first state
    interaction = _interaction(cfg, prop, a, local_mean(a, cfg.sigma_mu), RUN_DTYPE)
    spare = interaction.spare  # idle between evaluations: every other pass's scratch
    lhe = cfg.model == LHE
    history = _AndersonHistory(a.size, cfg, spare) if lhe else _SecantPair(a.size, spare)

    g = None  # G of the last accepted state: where a rejection restarts
    extrapolated = False
    rel_history = []
    energies = [] if lhe else None
    rejected = 0
    converged = False
    for p in range(1, cfg.max_iters + 1):
        inter, energy = interaction(a)
        if lhe:
            if energies and not (math.isfinite(energy) and energy <= energies[-1]):
                history.clear()
                if extrapolated:
                    rejected += 1
                    a, extrapolated = g, False
                    continue
            energies.append(energy)
        step = gd_step(a, interaction.forcing, inter, cfg, spare)
        del inter  # the kernel term is not needed past the step
        rel = relative_change(step, a, spare)
        if not math.isfinite(rel):
            raise FloatingPointError(
                f"{cfg.model.upper()} run diverged: relative change is {rel} "
                f"at iteration {p}"
            )
        if not lhe and extrapolated and rel >= rel_history[-1]:
            history.clear()
            rejected += 1
            a, extrapolated = g, False
            continue
        g = step
        rel_history.append(rel)
        if rel < cfg.tol:
            converged = True
            break
        a = history.extrapolate(a, g)
        extrapolated = a is not g

    return RunResult(
        image=project(g),
        stack=g,
        iterations=p,
        converged=converged,
        rel_history=rel_history,
        energies=energies,
        rejected_steps=rejected,
        interaction_dtype=np.dtype(RUN_DTYPE).name,
    )

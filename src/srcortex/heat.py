"""Anisotropic heat semigroup on the orientation stack.

The continuum generator is the sub-Riemannian Laplacian

    du/dtau = X_theta^2 u + beta^2 d^2u/dtheta^2,   X_theta = cos(theta) d_x + sin(theta) d_y,

discretized as a directional second difference in space plus a periodic
second difference in the angle.  With spatial step h = 1/sqrt(N) and
angular step dtheta = pi/K, the angular coefficient is beta^2/dtheta^2,
against a per-mode spatial symbol d^2/h^2 of up to 2N (|d| <= sqrt 2).
The coherency ``ModelConfig.beta_for`` = K/(N^2 sqrt 2) makes it
K^4/(2 pi^2 N^4), 3.3e-5 at N=100, K=16 against up to 200: over tau a
voxel loses about 2 tau beta^2/dtheta^2 of its mass to other
orientations (3.3e-4 at tau = 5), so the kernel is nearly K uncoupled
directional diffusions.  Where K/(N^2 sqrt 2) comes from is not
recorded, and PAPER.md holds only the paper's abstract, so the paper's
own value cannot be checked here.

A 2D DFT over the spatial axes decouples the evolution into one
independent K x K linear ODE system per spatial mode:

    d/dt u = B_rs u,   B_rs = Lambda_K - diag_k( d[r,s,k]^2 / h^2 )

where ``Lambda_K`` is the angular operator and ``d`` the spectral symbol
of the directional central difference.  Each ``B_rs`` is real symmetric
negative semidefinite, so the Crank-Nicolson step ``M- u' = M+ u`` is
unconditionally stable and mass-conserving.

The symbol is ``d = cos(theta_k) S[r] + sin(theta_k) S[s]`` with
``S[j] = sin(2 pi j / N)``; for even N, ``S[N/2 - j] = S[j]``, so
``B_rs`` depends only on (S[r], S[s]): 101 x 51 distinct generators at
N=200, not 200 x 101 modes.  Two reflections of the orientation grid
relate these further (Citti & Sarti, JMIV 2006, for the continuum
group).  The mirror ``S[-j] = -S[j]`` gives the generator at (-a, b)
from the one at (a, b) with orientation k -> -k, since theta_{-k} =
pi - theta_k; for even K, the axis swap gives the one at (b, a) with
k -> K/2 - k, since theta_{K/2-k} = pi/2 - theta_k.  The angular
stencil is invariant under both, so the generators are the same
matrices with rows and columns permuted, and their eigenvectors are
the canonical ones with the orientations permuted.  Only the canonical
generators, a >= 0 and for even K a <= b, are diagonalized, once: 1,326
of the 5,151 at N=200, K=16 (351 of 1,326 at N=100; 2,601 at N=200,
K=15, which has no axis swap).  The symbol d^2/h^2 and the eigenpairs
are kept for those generators only, as (P, K) and (P, K, K) tables:
0.17 MB and 2.7 MB at N=200, K=16, against 5.1 MB and 10.5 MB for
every mode and every distinct generator.  Each distinct generator
keeps the index of its canonical one and which of the four orientation
maps (identity, mirror, axis swap, both) takes it there, as a uint8.  m
Crank-Nicolson steps are applied in one pass as the propagator ``V
diag(rho^m) V^T`` with ``rho = (1 + dtau*w/2) / (1 - dtau*w/2)``,
multiplied out for the P canonical generators.  The distinct
generators' operators are those with rows and columns permuted, equal
bit for bit to multiplying out their own permuted eigenvectors.  Along
each axis a mode's index on the distinct grid runs in steps of +1 or
-1, so the half spectrum splits into a few blocks, each taking a
strided block of the distinct propagators.

A batch of B stacks, one stack included, takes one (K, K) @ (K, 2B)
product per mode, one batched matmul per block, on the block pool.
Even N from 6 up has 6 blocks (the first axis runs up, down and up on
the distinct grid, the second up and down), odd N 2.  Measured on 2 vCPUs
(float32, K=16, the product alone, medians of 41 calls in two runs),
width 1 then 2: one stack 0.75-0.77 and 0.72-0.75 ms at N=100, 3.1
and 1.8-2.0 ms at N=200; nine stacks 1.6-2.0 and 0.95-1.04 ms at
N=100, 5.9-6.1 and 3.2-3.6 ms at N=200.  Gathering one stack's modes
by generator into a second buffer for one matmul over the distinct
generators took 0.6 and 1.9-2.4 ms on the calling thread, so it would
pay only where one stack runs on one thread, which no benchmark
workload does.

The evolution computes in the dtype of the stacks it is handed: float32
stacks (the WC and LHE evaluations') use ``propagator(m)``, float64
stacks ``float64_propagator(m)``.  Both come from one build, which
multiplies out the P canonical operators in float64; for float32 it
casts them and sets every entry below float32 eps^2 (about 1.4e-14) to
zero before the gather.  The gather only permutes entries, so this is
the float64 operator cast and flushed, bit for bit, with no float64
(U, V, K, K) operator made on the way (traced peak 7.2 MB on one
thread and 7.6 MB on two at N=200, K=16, against 7.8 and 8.1 MB while
the gather held a whole int64 (U V, K) table of orientation maps, and
17.7 MB when it was cast from the float64 one).  Without
the flush, 13% of the cast entries at N=100 (17% at N=200) are
subnormal, and products of small entries with small spectral
coefficients go subnormal too.  At
N=100, K=16 with nine stacks the mode product took 27.4 ms unflushed,
2.1 ms flushed and 3.9 ms in float64 (one thread of a 2-vCPU machine).
The dropped entries lie far below float32's resolution of the results.

Every FFT of the package, the lift's and the local mean's included, is
``rfft2`` or ``irfft2`` here.  They call scipy's compiled pocketfft
kernel, ``scipy/fft/_pocketfft/pypocketfft``, directly, with the
arguments ``scipy.fft`` hands it, so their results are scipy's bit for
bit.  The module is loaded from its file once, at import: importing the
``scipy.fft`` package loads ``scipy.special`` and about 300 other
modules with it, and a fresh ``import srcortex, srcortex.cli`` took
0.38-0.39 s and 56.1-56.3 MB of resident memory that way, against
0.09-0.17 s and 31.4 MB with the kernel loaded alone (2 vCPUs); every
process pays it, the sweep's workers included.  ``numpy.fft`` needs no
import of scipy either, but its forward real transform of a float32
(200, 200, 16, 1) stack took 9.5-14.4 ms against pocketfft's 1.8-2.0
ms on one thread, and its results are not pocketfft's bit for bit.

The inverse transform (``irfft2``) starts in place in the mode-product
buffer.  A caller that evolves the same shapes on every iteration (the
WC and LHE evaluations) holds the mode-product buffer for the whole
run, and it is the one working array such a caller keeps: the stacks
it hands the heat layer are staged in that buffer, which the mode
product overwrites in full (``staged_stacks``), since they are dead
once the forward transform has read them, and from the inverse
transform until the next stacks are staged the same memory serves as
scratch.  Then the forward spectrum and the real result are the only
arrays a call allocates, and the result takes the memory the spectrum
has just released.  Measured at N=100 and N=200
(float32, nine stacks), no call after the first faults in fresh pages;
an LHE run at N=100 takes about 10k minor page faults in all, most of
them in set-up.

The mode product, the factoring and the propagator's assembly run on
``core``'s block pool; a batch of any size takes one part per block of
``pieces``.  ``build_propagator`` diagonalizes the canonical generators in
contiguous parts, one ``eigh`` call each, on generators each part forms
for itself, and the operator build both multiplies out and gathers in
contiguous parts.  A gather part reads its operators' entries through
one flat index into the canonical ones, made from its span's
orientation maps and a (4, K^2) table of where each map takes every
entry: a 1-D ``take``, which at N=200 takes about a third of the time
of indexing rows and columns.  Every part writes into an array the
calling thread made.  Every generator and every mode is computed
alone, so the results are equal bit for bit at any width.  Measured at
N=200, K=16 on 2 vCPUs (shared machine, widths alternated, two
processes), one thread then two: factoring 23.8-23.9 -> 16.4-16.5 ms
(24.8-27.8 -> 18.1-18.5 ms while it copied a whole (P, K, K) generator
stack up front; medians of 21 calls); the 500-step float32 operator
10.7-11.2 -> 8.7-8.8 ms (14.8-16.2 -> 11.0 ms while it indexed rows and
columns through a whole (U V, K) table of maps; medians of 15 calls).
"""

import math
from dataclasses import dataclass, field
from importlib.machinery import EXTENSION_SUFFIXES
from importlib.util import find_spec, module_from_spec, spec_from_file_location
from pathlib import Path

import numpy as np

from .core import as_stack, pool_width, run_parts, run_spans, steps_of

# single-precision propagator entries below this are set to zero
SINGLE_FLUSH = float(np.finfo(np.float32).eps) ** 2


def _load_pocketfft(directory: Path):
    """scipy's compiled pocketfft module, ``pypocketfft``, loaded from its file in ``directory``.

    Loaded by path, so that the ``scipy.fft`` package, and with it
    ``scipy.special``, is never imported.
    """
    for suffix in EXTENSION_SUFFIXES:
        path = directory / f"pypocketfft{suffix}"
        if path.is_file():
            spec = spec_from_file_location("scipy.fft._pocketfft.pypocketfft", path)
            module = module_from_spec(spec)
            spec.loader.exec_module(module)
            return module
    raise ImportError(f"scipy's pypocketfft extension module is not in {directory}")


_pocketfft = _load_pocketfft(
    Path(find_spec("scipy").submodule_search_locations[0], "fft", "_pocketfft")
)


@dataclass
class HeatPropagator:
    """Precomputed factorization of the one-step evolution.

    ``eigvals``/``eigvecs`` hold the spectral factorization of the
    canonical generators under the mirror and axis swap (eigenvalues
    clipped to <= 0; the operator is negative semidefinite by
    construction, the clip removes roundoff).  Every distinct ``B_rs``
    is its canonical generator ``canon`` with the orientations mapped
    by ``maps[map_index]``.
    """

    n_pixels: int
    n_orient: int
    beta: float
    dtau: float
    d2h: np.ndarray  # (P, K): d^2 / h^2 of the P canonical generators, in factoring order
    eigvals: np.ndarray  # (P, K)
    eigvecs: np.ndarray  # (P, K, K), columns are eigenvectors
    # (U, V): the canonical generator of each distinct one, U, V distinct
    # S[r], S[s] (r < N, s <= N//2); (U, V) uint8 and (4, K): orientation k
    # of distinct generator (u, v) is orientation maps[map_index[u, v], k]
    # of its canonical one
    canon: np.ndarray
    map_index: np.ndarray
    maps: np.ndarray
    # (rows, cols, us, vs): half-spectrum modes [rows, cols] take the
    # generators [us, vs] of the distinct grid (us, vs of step +1 or -1)
    pieces: list
    _prop_cache: dict = field(default_factory=dict, repr=False)

    def step_count(self, tau: float) -> int:
        return steps_of(tau, self.dtau)

    def step_ratios(self, m: int) -> np.ndarray:
        """Eigenvalues of the m-step propagator, per canonical generator and eigenvector."""
        z = 0.5 * self.dtau * self.eigvals
        return ((1.0 + z) / (1.0 - z)) ** m

    def propagator(self, m: int) -> np.ndarray:
        """Dense (U, V, K, K) float32 m-step operator on the distinct grid.

        The operator float32 stacks (the WC and LHE evaluations') evolve
        with: entries below ``SINGLE_FLUSH`` are 0.  Cached under ``m``.
        """
        return self._operator(m, np.float32)

    def float64_propagator(self, m: int) -> np.ndarray:
        """``propagator(m)`` in float64 and unflushed, for float64 stacks."""
        return self._operator(m, np.float64)

    def _operator(self, m: int, dtype) -> np.ndarray:
        """The m-step operator in ``dtype``, built on first use and cached.

        Multiplied out in float64 for the P canonical generators, which
        float32 then casts and flushes; each distinct generator's
        operator is its canonical one with rows and columns permuted.
        Both steps run in contiguous parts on the block pool.
        """
        key = m if dtype == np.float32 else ("float64", m)
        cached = self._prop_cache.get(key)
        if cached is None:
            rho = self.step_ratios(m)
            k = self.n_orient
            # the scaled eigenvectors too are made here: a helper allocates
            # nothing larger than a block
            canonical, scaled = np.empty(self.eigvecs.shape), np.empty(self.eigvecs.shape)

            def multiply(start, stop):
                vecs = self.eigvecs[start:stop]
                np.multiply(vecs, rho[start:stop, None, :], out=scaled[start:stop])
                np.matmul(scaled[start:stop], np.swapaxes(vecs, -1, -2),
                          out=canonical[start:stop])

            run_spans(multiply, len(canonical), k * k)
            del scaled
            if dtype == np.float32:
                canonical = canonical.astype(np.float32)
                canonical[np.abs(canonical) < SINGLE_FLUSH] = 0.0
            canon, map_index = self.canon.ravel(), self.map_index.ravel()
            # entry (i, j) of a distinct operator is entry (map[i], map[j]) of
            # its canonical one: per map, the flat index of each such entry
            entries = (self.maps[:, :, None] * k + self.maps[:, None, :]).reshape(-1, k * k)
            source = canonical.reshape(-1)
            cached = np.empty(self.canon.shape + (k, k), dtype)
            flat = cached.reshape(-1, k * k)

            def gather(start, stop):
                index = entries[map_index[start:stop]]  # a block of indices
                index += canon[start:stop, None] * (k * k)
                np.take(source, index, out=flat[start:stop])

            run_spans(gather, len(canon), k * k)
            self._prop_cache[key] = cached
        return cached


def build_propagator(n_pixels: int, n_orient: int, beta: float, dtau: float) -> HeatPropagator:
    """Assemble the per-mode generators and factor one per symmetry class.

    The spatial grid spacing h = 1/sqrt(N) enters the symbol as 1/h^2: the
    N x N pixel grid covers a sqrt(N)-wide square domain.  The canonical
    generators are diagonalized in contiguous parts on the block pool.
    """
    n, k = n_pixels, n_orient
    if n < 2 or k < 2:
        raise ValueError("need n_pixels >= 2 and n_orient >= 2")
    if beta <= 0 or dtau <= 0:
        raise ValueError("beta and dtau must be positive")
    h = 1.0 / math.sqrt(n)
    dtheta = math.pi / k
    ang_coeff = beta**2 / dtheta**2

    q, sines = _sines(n)
    ang = np.zeros((k, k))
    for j in range(k):
        ang[j, j] -= 2.0 * ang_coeff
        ang[j, (j + 1) % k] += ang_coeff
        ang[j, (j - 1) % k] += ang_coeff

    # real inputs need only the non-negative frequencies along the second
    # spatial axis (the conjugate modes share the same generator); its
    # distinct angles are the non-negative half of the first axis's
    nh = n // 2 + 1
    rows, r_grid = np.unique(q, return_inverse=True)
    cols, s_first, s_grid = np.unique(q[:nh], return_index=True, return_inverse=True)
    pairs, canon, map_index, maps = _symmetry_classes(rows, cols, k)
    # sines[s_first[i]] is the sine of the angle cols[i]
    theta = np.arange(k) * dtheta
    d = (
        np.cos(theta) * sines[s_first[pairs[0]], None]
        + np.sin(theta) * sines[s_first[pairs[1]], None]
    )
    d2h = (d / h) ** 2
    count, eye = len(d2h), np.arange(k)
    vals, vecs = np.empty((count, k)), np.empty((count, k, k))

    def factor(start, stop):
        # each part forms its own generators: a block, not the whole stack
        generators = np.broadcast_to(ang, (stop - start, k, k)).copy()
        generators[:, eye, eye] -= d2h[start:stop]
        vals[start:stop], vecs[start:stop] = np.linalg.eigh(generators)

    run_spans(factor, count, k * k)
    np.minimum(vals, 0.0, out=vals)

    return HeatPropagator(
        n_pixels=n,
        n_orient=k,
        beta=beta,
        dtau=dtau,
        d2h=d2h,
        eigvals=vals,
        eigvecs=vecs,
        canon=canon,
        map_index=map_index,
        maps=maps,
        pieces=_pieces(r_grid, s_grid),
    )


def _sines(n):
    """Angles 2 pi j / N in units of pi / N, folded, and their sines S[j].

    The fold keeps each angle's sine while making the angles of mirrored
    modes exact negatives, so that ``S[(N - j) % N] = -S[j]`` bitwise and
    the first axis's distinct angles are symmetric about 0.  Even N
    folds into [-N/2, N/2] by sin(x) = sin(pi - x), which also makes
    ``S[N/2 - j] = S[j]`` bitwise; odd N folds into (-N, N).  Along
    each axis the angles run in steps of 2 or -2, so a mode's index on
    the sorted distinct angles runs in steps of +1 or -1 (``_runs``).
    """
    idx = np.arange(n)
    q = 2 * idx
    if n % 2 == 0:
        q = np.where(4 * idx <= n, q, np.where(4 * idx <= 3 * n, n - q, q - 2 * n))
    else:
        q = np.where(2 * idx < n, q, q - 2 * n)
    return q, np.sin(np.pi * q / n)


def _symmetry_classes(rows, cols, k):
    """The canonical generators, and how every distinct generator maps onto one.

    ``rows`` and ``cols`` are the sorted distinct angles of the two
    axes; ``rows`` is symmetric about 0 and ``cols`` is its non-negative
    half.  The generator at angles (a, b) is the one at (-a, b) with the
    orientations mapped k -> -k (mirror) and, for even K, the one at
    (b, a) with k -> K/2 - k (axis swap); both together map k -> K/2 + k.
    The canonical generators are those with a >= 0, and for even K only
    a <= b.  Returns ``pairs``, their (a, b) as indices into ``cols``
    (sorted, so a <= b holds for the indices too); ``canon``, the index
    into ``pairs`` of the canonical generator of each distinct one
    (U, V); ``map_index`` (U, V, uint8) and the four orientation maps
    ``maps`` (4, K): an eigenvector of distinct generator (u, v) has at
    orientation k the entry its canonical generator's eigenvector has at
    ``maps[map_index[u, v], k]``.
    """
    nc = len(cols)
    keep = np.ones((nc, nc), dtype=bool)
    if k % 2 == 0:
        keep = np.triu(keep)
    pairs = np.nonzero(keep)
    slot = np.cumsum(keep).reshape(nc, nc) - 1
    a = np.searchsorted(cols, np.abs(rows))[:, None]
    b = np.arange(nc)
    swap = (a > b) & (k % 2 == 0)
    canon = slot[np.where(swap, b, a), np.where(swap, a, b)]
    orient = np.arange(k)
    # indexed by mirror + 2 * swap; odd K never takes the last two
    maps = np.stack([orient, -orient % k, (k // 2 - orient) % k, (k // 2 + orient) % k])
    map_index = ((rows < 0)[:, None] + 2 * swap).astype(np.uint8)
    return pairs, canon, map_index, maps


def _pieces(r_grid, s_grid):
    """The half spectrum as blocks ``(rows, cols, us, vs)``.

    Modes ``[rows, cols]`` take the generators ``[us, vs]`` of the
    distinct grid.
    """
    return [(rs, cs, us, vs) for rs, us in _runs(r_grid) for cs, vs in _runs(s_grid)]


def _runs(index):
    """Split an index map into runs of step +1 or -1: (source slice, target slice) per run."""
    index = index.tolist()

    def extends(i, step):
        return i < len(index) and index[i] - index[i - 1] == step

    runs, start = [], 0
    while start < len(index):
        step = -1 if extends(start + 1, -1) else 1
        stop = start + 1
        while extends(stop, step):
            stop += 1
        end = index[start] + step * (stop - start)
        target = slice(index[start], end if end >= 0 else None, step)
        runs.append((slice(start, stop), target))
        start = stop
    return runs


def heat_evolve(a, prop: HeatPropagator, tau: float):
    """Evolve a stack by the heat semigroup for time tau = m * dtau.

    Rejects tau that is not an integer multiple of dtau (no silent
    rounding); tau = 0 returns a copy of the input.
    """
    a = as_stack(a)
    _check_shape(a, prop)
    return _evolve_batch(a[..., None], prop, prop.step_count(tau))[..., 0]


def _check_shape(a, prop):
    if a.shape[:3] != (prop.n_pixels, prop.n_pixels, prop.n_orient):
        raise ValueError(
            f"stack shape {a.shape} does not match propagator "
            f"({prop.n_pixels}, {prop.n_pixels}, {prop.n_orient})"
        )


def mode_product_buffer(prop: HeatPropagator, batch: int, dtype) -> np.ndarray:
    """The half spectrum ``(N, N//2 + 1, K, batch)`` that ``_evolve_batch`` takes.

    Complex, of the precision of real stacks of ``dtype``.
    """
    n = prop.n_pixels
    return np.empty((n, n // 2 + 1, prop.n_orient, batch), np.result_type(dtype, np.complex64))


def staged_stacks(product) -> np.ndarray:
    """``(B, N, N, K)`` real stacks over the memory of ``product``, a ``mode_product_buffer``.

    The batch B and the grid come from the buffer's ``(N, N//2 + 1, K,
    B)`` shape.  The mode product overwrites all of ``product``, which
    holds at least N^2 K B reals.  Stacks staged here may be handed to
    ``_evolve_batch`` with ``product`` (its forward transform is their
    only reader), and the memory may serve as scratch from the inverse
    transform until the next stacks are staged.
    """
    n, _, k, batch = product.shape
    real = product.reshape(-1).view(product.real.dtype)
    return real[: batch * n * n * k].reshape(batch, n, n, k)


def _evolve_batch(stacks, prop, m, product=None):
    """Evolve (N, N, K, B) real stacks by m steps into a new array of the same shape.

    The result has the stacks' dtype, float64 or float32.  m = 0 is the
    identity and returns a copy.  Each mode's real propagator multiplies
    the complex spectrum viewed as interleaved (re, im) reals, so one
    real product serves both parts.  Each block of ``prop.pieces`` takes
    one batched matmul, a (K, K) @ (K, 2B) product per mode, into the
    half spectrum ``product``; the blocks run on the block pool.
    ``product``, a ``mode_product_buffer``, is overwritten; None
    allocates it.  The stacks may be staged in ``product``
    (``staged_stacks``): only the forward transform reads them, before
    the mode product overwrites it.
    """
    if m == 0:
        return stacks.copy()
    pm = prop.propagator(m) if stacks.dtype == np.float32 else prop.float64_propagator(m)
    spec = rfft2(stacks).view(stacks.dtype)
    if product is None:
        product = mode_product_buffer(prop, stacks.shape[-1], stacks.dtype)
    real = product.view(stacks.dtype)

    def multiply(part, _):
        rows, cols, us, vs = prop.pieces[part]
        np.matmul(pm[us, vs], spec[rows, cols], out=real[rows, cols])

    run_parts(multiply, len(prop.pieces))
    del spec  # the inverse's output takes the forward spectrum's memory
    return irfft2(product, prop.n_pixels)


def rfft2(x):
    """Real forward FFT of ``x`` over axes (0, 1), on ``pool_width()`` threads.

    The one forward FFT of the lift, the local mean and the heat layer:
    the kernel call of ``scipy.fft.rfft2(x, axes=(0, 1))``, bit for bit.
    ``x`` is a float32 or float64 array of any strides.
    """
    return _pocketfft.r2c(x, (0, 1), True, 0, None, pool_width())


def irfft2(spec, n):
    """Real inverse of ``rfft2`` over axes (0, 1), for an N x N grid.

    The one inverse real FFT of the lift, the local mean and the heat
    layer.  Axis 0 is inverted in place in ``spec``, which is overwritten,
    then axis 1 into a new C-contiguous array, on ``pool_width()``
    threads: the kernel calls of scipy's ``ifft(axis=0,
    overwrite_x=True)`` and ``irfft(n=n, axis=1)``, bit for bit.
    scipy's one-call ``irfft2`` copies the whole spectrum.
    """
    spec = _pocketfft.c2c(spec, (0,), False, 2, spec, pool_width())
    return _pocketfft.c2r(spec, (1,), n, False, 2, None, pool_width())


def kernel_column(prop: HeatPropagator, i: int, j: int, k: int, tau: float):
    """Heat evolution of the discrete delta at voxel (i, j, k).

    Materializes one column of the interaction kernel; columns sum to 1
    (mass conservation) and the kernel is symmetric (self-adjoint
    generator).
    """
    n, ko = prop.n_pixels, prop.n_orient
    if not (0 <= i < n and 0 <= j < n and 0 <= k < ko):
        raise ValueError(f"voxel index ({i}, {j}, {k}) out of range")
    delta = np.zeros((n, n, ko))
    delta[i, j, k] = 1.0
    return heat_evolve(delta, prop, tau)

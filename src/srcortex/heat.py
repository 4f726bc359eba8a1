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

Each block also keeps one partner slot.  For even N the rows r and
N/2 - r share a generator, and so do the columns s and N/2 - s, so a
generator serves up to four modes; the slot says which of them a mode
is (S = 4 slots, 8 blocks at N=100 and N=200).  For odd N every
generator serves one mode (S = 1).  A batch of stacks, the LHE powers,
takes one (K, K) @ (K, 2B) product per mode, one batched matmul per
block.  One stack would make that 20,200 (K, K) @ (K, 2) BLAS calls at
N=200, whose call overhead dominates, so it is gathered instead: each
block copies its modes into its slot of a ``(U, V, K, S)`` complex
array, one matmul applies each distinct generator to its (K, 2S)
right-hand side (5,151 products at N=200), and the blocks are
scattered back.  Measured on one thread of a 2-vCPU machine (float32,
K=16), per-block then gathered: one stack 1.17 -> 0.58 ms at N=100
and 4.5 -> 2.3 ms at N=200; two stacks 1.2 -> 2.2 ms at N=100; nine
2.3 -> 4.0 ms at N=100 and 11 -> 25 ms at N=200, where copying the
wider chunks costs more than the calls it saves.  So only a batch of
one is gathered.  In float32 the two products are equal bit for bit;
in float64 OpenBLAS may sum a (K, 2S) right-hand side in another order
than a (K, 2) one (seen at K >= 16), which moves results by an ulp.

The evolution computes in the dtype of the stacks it is handed: float64
stacks use ``propagator(m)`` as it is, float32 stacks (the WC and LHE
evaluations') its single-precision copy.  That copy sets every entry
below float32 eps^2 (about 1.4e-14) to zero.  Without the flush, 13% of
the cast entries at N=100 (17% at N=200) are subnormal, and products of
small entries with small spectral coefficients go subnormal too.  At
N=100, K=16 with nine stacks the mode product took 27.4 ms unflushed,
2.1 ms flushed and 3.9 ms in float64 (one thread of a 2-vCPU machine).
The dropped entries lie far below float32's resolution of the results.

The inverse transform, ``irfft2`` here, inverts the complex axis in
place in the mode-product buffer (for one stack, in the forward
spectrum the products were scattered into), then the real axis into a
new array.  A caller that evolves the same shapes on every iteration
(the WC and LHE evaluations) holds the mode-product buffer for the
whole run; then the forward spectrum and the real result are the only
arrays a call allocates, and for a batch the result takes the memory
the spectrum has just released.  Measured at N=100 and N=200 (float32,
nine stacks), no call after the first faults in fresh pages; an LHE run
at N=100 takes about 10k minor page faults in all, most of them in
set-up.

The batched mode product, the factoring and the propagator's assembly
run on ``core``'s block pool; the gathered one-stack product stays on
the calling thread.  A batch takes one part per block of ``pieces``.
``build_propagator`` diagonalizes the canonical generators in
contiguous parts, one ``eigh`` call each, and ``propagator(m)`` both
multiplies out and gathers in contiguous parts, each written into an
array the calling thread made.  Every generator and every mode is
computed alone, so the results are equal bit for bit at any width.
Measured at N=200, K=16 on 2 vCPUs (medians of 21 calls, widths
alternated in one process, shared machine), one thread then two:
factoring 38-40 -> 25-26 ms, the 500-step operator 17-19 -> 12 ms.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.fft import ifft, irfft, rfft2

from .core import as_stack, run_parts, run_spans, steps_of

# single-precision propagator entries below this are set to zero
SINGLE_FLUSH = float(np.finfo(np.float32).eps) ** 2


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
    # (rows, cols, us, vs, slot): half-spectrum modes [rows, cols] take the
    # generators [us, vs] of the distinct grid (us, vs of step +1 or -1),
    # as partner ``slot`` of those that share a generator (``_pieces``)
    pieces: list
    _prop_cache: dict = field(default_factory=dict, repr=False)

    def step_count(self, tau: float) -> int:
        return steps_of(tau, self.dtau)

    def step_ratios(self, m: int) -> np.ndarray:
        """Eigenvalues of the m-step propagator, per canonical generator and eigenvector."""
        z = 0.5 * self.dtau * self.eigvals
        return ((1.0 + z) / (1.0 - z)) ** m

    def propagator(self, m: int) -> np.ndarray:
        """Dense (U, V, K, K) m-step operator on the distinct grid.

        Multiplied out for the P canonical generators, then each
        distinct generator's operator is its canonical one with rows and
        columns permuted; both steps run in contiguous parts on the
        block pool.
        """
        cached = self._prop_cache.get(m)
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
            canon = self.canon.ravel()
            perm = self.maps[self.map_index].reshape(-1, k)
            cached = np.empty(self.canon.shape + (k, k))
            flat = cached.reshape(-1, k, k)

            def gather(start, stop):
                p = perm[start:stop]
                flat[start:stop] = canonical[canon[start:stop, None, None], p[:, :, None],
                                             p[:, None, :]]

            run_spans(gather, len(canon), k * k)
            self._prop_cache[m] = cached
        return cached

    def single_propagator(self, m: int) -> np.ndarray:
        """``propagator(m)`` in float32, entries below ``SINGLE_FLUSH`` set to 0.

        Built on first use from ``propagator(m)`` and cached.  A float64
        operator that this build added to the cache is dropped, so a
        float32 run holds one operator; one already cached stays.
        """
        key = ("float32", m)
        cached = self._prop_cache.get(key)
        if cached is None:
            added = m not in self._prop_cache
            cached = self.propagator(m).astype(np.float32)
            if added:
                del self._prop_cache[m]
            cached[np.abs(cached) < SINGLE_FLUSH] = 0.0
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
    generators = np.broadcast_to(ang, (len(pairs[0]), k, k)).copy()
    eye = np.arange(k)
    generators[:, eye, eye] -= d2h
    vals, vecs = np.empty((len(generators), k)), np.empty(generators.shape)

    def factor(start, stop):
        vals[start:stop], vecs[start:stop] = np.linalg.eigh(generators[start:stop])

    run_spans(factor, len(generators), k * k)
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
    """The half spectrum as blocks ``(rows, cols, us, vs, slot)``.

    Modes ``[rows, cols]`` take the generators ``[us, vs]`` of the
    distinct grid, and each block keeps one partner slot: which of the
    up to four modes sharing a generator (two rows times two columns,
    for even N) it is.  No two modes share a generator and a slot.
    """
    row_runs, col_runs = _runs(r_grid), _runs(s_grid)
    col_slots = 1 + max(slot for _, _, slot in col_runs)
    return [
        (rs, cs, us, vs, r_slot * col_slots + c_slot)
        for rs, us, r_slot in row_runs
        for cs, vs, c_slot in col_runs
    ]


def _runs(index):
    """Split an index map into runs of step +1 or -1 that keep one partner slot.

    The slot of a source is how many earlier sources share its target:
    0, or 1 for the second of two partners.  Returns (source slice,
    target slice, slot) per run.
    """
    index = index.tolist()
    slot, seen = [], {}
    for target in index:
        slot.append(seen.get(target, 0))
        seen[target] = slot[-1] + 1

    def extends(i, step):
        return i < len(index) and slot[i] == slot[i - 1] and index[i] - index[i - 1] == step

    runs, start = [], 0
    while start < len(index):
        step = -1 if extends(start + 1, -1) else 1
        stop = start + 1
        while extends(stop, step):
            stop += 1
        end = index[start] + step * (stop - start)
        target = slice(index[start], end if end >= 0 else None, step)
        runs.append((slice(start, stop), target, slot[start]))
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
    """The complex buffer ``_evolve_batch`` takes for ``batch`` real stacks of ``dtype``.

    For a batch, the half spectrum ``(N, N//2 + 1, K, batch)``.  For one
    stack, ``(2, U, V, K, S)``: the half-spectrum modes gathered by
    generator into S partner slots, and their product.  It is
    zero-filled, so the slots that no mode takes only ever hold zeros.
    """
    ctype = np.result_type(dtype, np.complex64)
    if batch == 1:
        slots = 1 + max(piece[-1] for piece in prop.pieces)
        return np.zeros((2,) + prop.canon.shape + (prop.n_orient, slots), ctype)
    n = prop.n_pixels
    return np.empty((n, n // 2 + 1, prop.n_orient, batch), ctype)


def _evolve_batch(stacks, prop, m, product=None):
    """Evolve (N, N, K, B) real stacks by m steps into a new array of the same shape.

    The result has the stacks' dtype, float64 or float32.  m = 0 is the
    identity and returns a copy.  Each mode's real propagator multiplies
    the complex spectrum viewed as interleaved (re, im) reals, so one
    real product serves both parts.  A batch takes one batched matmul
    per block of ``prop.pieces``, a (K, K) @ (K, 2B) product per mode,
    into the half spectrum ``product``.  One stack is gathered by
    generator instead: each block copies its modes into its partner
    slot of ``product[0]``, one matmul applies every distinct generator
    to its (K, 2S) right-hand side into ``product[1]``, and the blocks
    are scattered back into the forward spectrum.  Gathering pays only
    for a batch of one (measured crossover in the module docstring).
    A batch's blocks run on the block pool, the one stack's on the
    calling thread.  ``product``, a ``mode_product_buffer``, is
    overwritten; None allocates it.
    """
    if m == 0:
        return stacks.copy()
    pm = prop.single_propagator(m) if stacks.dtype == np.float32 else prop.propagator(m)
    spec = rfft2(stacks, axes=(0, 1), workers=-1)
    if product is None:
        product = mode_product_buffer(prop, stacks.shape[-1], stacks.dtype)
    if stacks.shape[-1] == 1:
        gathered, evolved = product
        for rows, cols, us, vs, slot in prop.pieces:
            gathered[us, vs, :, slot] = spec[rows, cols, :, 0]
        np.matmul(pm, gathered.view(stacks.dtype), out=evolved.view(stacks.dtype))
        for rows, cols, us, vs, slot in prop.pieces:
            spec[rows, cols, :, 0] = evolved[us, vs, :, slot]
        return irfft2(spec, prop.n_pixels)
    spec, real = spec.view(stacks.dtype), product.view(stacks.dtype)

    def multiply(part, _):
        rows, cols, us, vs = prop.pieces[part][:4]
        np.matmul(pm[us, vs], spec[rows, cols], out=real[rows, cols])

    run_parts(multiply, len(prop.pieces))
    del spec  # the inverse's output takes the forward spectrum's memory
    return irfft2(product, prop.n_pixels)


def irfft2(spec, n):
    """Real inverse of ``rfft2`` over axes (0, 1), for an N x N grid.

    The complex axis 0 is inverted in place in ``spec``, which is
    overwritten, then the real axis 1 into a new array, both on every
    core.  (scipy's one-call ``irfft2`` copies the whole spectrum for
    its complex axis.)
    """
    spec = ifft(spec, axis=0, overwrite_x=True, workers=-1)
    return irfft(spec, n=n, axis=1, overwrite_x=True, workers=-1)


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

"""Anisotropic heat semigroup on the orientation stack.

The generator couples a directional second difference in space (the
direction rotating with the orientation index) with a periodic second
difference in the angle, weighted by the coherency ``beta``.  A 2D DFT
over the spatial axes decouples the evolution into one independent K x K
linear ODE system per spatial mode:

    d/dt u = B_rs u,   B_rs = Lambda_K - diag_k( d[r,s,k]^2 / h^2 )

where ``Lambda_K`` is the angular operator and ``d`` the spectral symbol
of the directional central difference.  Each ``B_rs`` is real symmetric
negative semidefinite, so the Crank-Nicolson step ``M- u' = M+ u`` is
unconditionally stable and mass-conserving.

Every ``B_rs`` is diagonalized once, and m Crank-Nicolson steps are
applied in one pass as the propagator ``V diag(rho^m) V^T`` with
``rho = (1 + dtau*w/2) / (1 - dtau*w/2)``.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.fft import irfft2, rfft2

from .core import as_stack, steps_of

_EIG_CHUNK = 4096  # modes factored per batch to bound temporary memory


@dataclass
class HeatPropagator:
    """Precomputed per-mode factorization of the one-step evolution.

    ``eigvals``/``eigvecs`` hold the spectral factorization of every
    ``B_rs`` (eigenvalues clipped to <= 0; the operator is negative
    semidefinite by construction, the clip removes roundoff).
    """

    n_pixels: int
    n_orient: int
    beta: float
    dtau: float
    h: float
    d2h: np.ndarray  # (N, N, K): d[r,s,k]^2 / h^2
    eigvals: np.ndarray  # (N, N//2+1, K), real-transform half grid
    eigvecs: np.ndarray  # (N, N//2+1, K, K), columns are eigenvectors
    _prop_cache: dict = field(default_factory=dict, repr=False)

    def step_count(self, tau: float) -> int:
        return steps_of(tau, self.dtau)

    def step_ratios(self, m: int) -> np.ndarray:
        """Eigenvalues of the m-step propagator, per mode and eigenvector."""
        z = 0.5 * self.dtau * self.eigvals
        return ((1.0 + z) / (1.0 - z)) ** m

    def propagator(self, m: int) -> np.ndarray:
        """Dense (N, N//2+1, K, K) m-step operator on the half-spectrum."""
        cached = self._prop_cache.get(m)
        if cached is None:
            rho = self.step_ratios(m)
            cached = (self.eigvecs * rho[..., None, :]) @ np.swapaxes(
                self.eigvecs, -1, -2
            )
            self._prop_cache[m] = cached
        return cached


def build_propagator(
    n_pixels: int, n_orient: int, beta: float, dtau: float, h: float | None = None
) -> HeatPropagator:
    """Assemble and factor the per-mode generators.

    ``h`` is the spatial grid spacing entering the symbol as 1/h^2; the
    default 1/sqrt(N) makes the N x N pixel grid cover a sqrt(N)-wide
    square domain.
    """
    n, k = n_pixels, n_orient
    if n < 2 or k < 2:
        raise ValueError("need n_pixels >= 2 and n_orient >= 2")
    if beta <= 0 or dtau <= 0:
        raise ValueError("beta and dtau must be positive")
    if h is None:
        h = 1.0 / math.sqrt(n)
    if h <= 0:
        raise ValueError("h must be positive")
    dtheta = math.pi / k
    ang_coeff = beta**2 / dtheta**2

    sines = np.sin(2.0 * np.pi * np.arange(n) / n)
    theta = np.arange(k) * dtheta
    d = (
        np.cos(theta)[None, None, :] * sines[:, None, None]
        + np.sin(theta)[None, None, :] * sines[None, :, None]
    )
    d2h = (d / h) ** 2

    ang = np.zeros((k, k))
    for j in range(k):
        ang[j, j] -= 2.0 * ang_coeff
        ang[j, (j + 1) % k] += ang_coeff
        ang[j, (j - 1) % k] += ang_coeff

    # real inputs need only the non-negative frequencies along the second
    # spatial axis (the conjugate modes share the same generator)
    nh = n // 2 + 1
    flat_d2h = d2h[:, :nh].reshape(-1, k)
    modes = flat_d2h.shape[0]
    eigvals = np.empty((modes, k))
    eigvecs = np.empty((modes, k, k))
    eye = np.arange(k)
    for start in range(0, modes, _EIG_CHUNK):
        stop = min(start + _EIG_CHUNK, modes)
        block = np.broadcast_to(ang, (stop - start, k, k)).copy()
        block[:, eye, eye] -= flat_d2h[start:stop]
        w, v = np.linalg.eigh(block)
        eigvals[start:stop] = w
        eigvecs[start:stop] = v
    np.minimum(eigvals, 0.0, out=eigvals)

    return HeatPropagator(
        n_pixels=n,
        n_orient=k,
        beta=beta,
        dtau=dtau,
        h=h,
        d2h=d2h,
        eigvals=eigvals.reshape(n, nh, k),
        eigvecs=eigvecs.reshape(n, nh, k, k),
    )


def heat_evolve(a, prop: HeatPropagator, tau: float):
    """Evolve a stack by the heat semigroup for time tau = m * dtau.

    Rejects tau that is not an integer multiple of dtau (no silent
    rounding); tau = 0 returns the input unchanged.
    """
    a = as_stack(a)
    _check_shape(a, prop)
    m = prop.step_count(tau)
    if m == 0:
        return a.copy()
    out = _evolve_batch(a[..., None], prop, m)
    return out[..., 0]


def _check_shape(a, prop):
    if a.shape[:3] != (prop.n_pixels, prop.n_pixels, prop.n_orient):
        raise ValueError(
            f"stack shape {a.shape} does not match propagator "
            f"({prop.n_pixels}, {prop.n_pixels}, {prop.n_orient})"
        )


def _evolve_batch(stacks, prop, m):
    """Evolve (N, N, K, B) real stacks by m steps; returns the same shape.

    Each mode's real propagator multiplies the complex spectrum viewed as
    interleaved (re, im) reals: one real (K, K) @ (K, 2B) product per
    mode instead of one for each part.
    """
    n = prop.n_pixels
    hats = rfft2(stacks, axes=(0, 1), workers=-1)
    pm = prop.propagator(m)
    out = (pm @ hats.view(np.float64)).view(np.complex128)
    return irfft2(out, s=(n, n), axes=(0, 1), workers=-1)


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

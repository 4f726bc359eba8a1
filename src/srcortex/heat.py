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

Two equivalent drivers are provided.  ``method="stepping"`` performs the
literal sequence of Crank-Nicolson solves, each an O(K) cyclic
tridiagonal (Thomas) solve per mode.  ``method="spectral"`` (default)
diagonalizes every ``B_rs`` once and applies the m-step propagator
``V diag(rho^m) V^T`` with ``rho = (1 + dtau*w/2) / (1 - dtau*w/2)`` --
the same operator as m stepping rounds, computed in one pass.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.fft import fft2, ifft2, irfft2, rfft2

from .core import as_stack, steps_of

_EIG_CHUNK = 4096  # modes factored per batch to bound temporary memory


def angular_second_difference(g, beta: float, dtheta: float) -> np.ndarray:
    """Periodic second difference along the last axis, scaled by beta^2/dtheta^2."""
    g = np.asarray(g, dtype=float)
    if g.shape[-1] < 2:
        raise ValueError("need at least two orientations")
    coeff = beta**2 / dtheta**2
    return coeff * (np.roll(g, 1, axis=-1) - 2.0 * g + np.roll(g, -1, axis=-1))


def spectral_symbol(r: int, s: int, k: int, n_pixels: int, n_orient: int) -> float:
    """Directional-derivative symbol of spatial mode (r, s) at orientation k.

    Indices are 1-based grid labels: the DC mode is r = s = 1 and the
    slice angle is theta = (k - 1) * pi / K.  The value is unscaled; the
    assembled generator divides by the grid spacing h.
    """
    if not (1 <= r <= n_pixels and 1 <= s <= n_pixels):
        raise ValueError("spatial indices must lie in 1..N")
    if not (1 <= k <= n_orient):
        raise ValueError("orientation index must lie in 1..K")
    theta = (k - 1) * math.pi / n_orient
    return math.cos(theta) * math.sin(2.0 * math.pi * (r - 1) / n_pixels) + math.sin(
        theta
    ) * math.sin(2.0 * math.pi * (s - 1) / n_pixels)


def solve_cyclic_tridiagonal(diag, off, corner, rhs) -> np.ndarray:
    """Solve a symmetric cyclic tridiagonal system in O(K).

    ``diag`` is the main diagonal (length K), ``off`` the sub/super
    diagonal (scalar or length K-1) and ``corner`` the (0, K-1) = (K-1, 0)
    entry.  Uses the Sherman-Morrison rank-one correction of two plain
    Thomas solves; requires K >= 3 and a matrix with nonzero pivots
    (guaranteed for diagonally dominant or SPD systems).
    """
    diag = np.asarray(diag, dtype=float)
    rhs = np.asarray(rhs)
    k = diag.shape[0]
    if k < 3:
        raise ValueError("cyclic solver needs K >= 3")
    if rhs.shape != (k,):
        raise ValueError("rhs length must match diag")
    off = np.broadcast_to(np.asarray(off, dtype=float), (k - 1,)).copy()
    corner = float(corner)

    gamma = -diag[0]
    mod = diag.copy()
    mod[0] = diag[0] - gamma
    mod[-1] = diag[-1] - corner * corner / gamma
    y = _thomas(mod, off, rhs)
    u = np.zeros(k)
    u[0] = gamma
    u[-1] = corner
    z = _thomas(mod, off, u)
    vy = y[0] + (corner / gamma) * y[-1]
    vz = z[0] + (corner / gamma) * z[-1]
    denom = 1.0 + vz
    if denom == 0.0:
        raise ValueError("singular cyclic correction")
    return y - (vy / denom) * z


def _thomas(diag, off, rhs):
    """Plain symmetric tridiagonal solve (no cyclic corners)."""
    k = diag.shape[0]
    denom = np.empty(k)
    work = np.empty(k, dtype=np.result_type(rhs.dtype, float))
    denom[0] = diag[0]
    if denom[0] == 0.0:
        raise ValueError("zero pivot in Thomas solve")
    work[0] = rhs[0]
    lower = np.empty(k - 1)
    for i in range(1, k):
        lower[i - 1] = off[i - 1] / denom[i - 1]
        denom[i] = diag[i] - lower[i - 1] * off[i - 1]
        if denom[i] == 0.0:
            raise ValueError("zero pivot in Thomas solve")
        work[i] = rhs[i] - lower[i - 1] * work[i - 1]
    out = np.empty_like(work)
    out[-1] = work[-1] / denom[-1]
    for i in range(k - 2, -1, -1):
        out[i] = (work[i] - off[i] * out[i + 1]) / denom[i]
    return out


@dataclass
class HeatPropagator:
    """Precomputed per-mode factorization of the one-step evolution.

    ``eigvals``/``eigvecs`` hold the spectral factorization of every
    ``B_rs`` (eigenvalues clipped to <= 0; the operator is negative
    semidefinite by construction, the clip removes roundoff).  The
    Crank-Nicolson factors ``M-``/``M+`` are reassembled from ``d2h``
    and ``ang_coeff`` when the stepping driver is used.
    """

    n_pixels: int
    n_orient: int
    beta: float
    dtau: float
    h: float
    ang_coeff: float  # beta^2 / dtheta^2
    d2h: np.ndarray  # (N, N, K): d[r,s,k]^2 / h^2
    eigvals: np.ndarray  # (N, N//2+1, K), real-transform half grid
    eigvecs: np.ndarray  # (N, N//2+1, K, K), columns are eigenvectors
    _prop_cache: dict = field(default_factory=dict, repr=False)

    def step_count(self, tau: float) -> int:
        return steps_of(tau, self.dtau)

    def mode_matrix(self, r: int, s: int) -> np.ndarray:
        """Dense K x K generator of spatial mode (r, s), 0-based indices."""
        k = self.n_orient
        mat = np.zeros((k, k))
        for j in range(k):
            mat[j, j] -= 2.0 * self.ang_coeff
            mat[j, (j + 1) % k] += self.ang_coeff
            mat[j, (j - 1) % k] += self.ang_coeff
        mat -= np.diag(self.d2h[r, s])
        return mat

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
        ang_coeff=ang_coeff,
        d2h=d2h,
        eigvals=eigvals.reshape(n, nh, k),
        eigvecs=eigvecs.reshape(n, nh, k, k),
    )


def heat_evolve(a, prop: HeatPropagator, tau: float, method: str = "spectral"):
    """Evolve a stack by the heat semigroup for time tau = m * dtau.

    Rejects tau that is not an integer multiple of dtau (no silent
    rounding); tau = 0 returns the input unchanged.
    """
    a = as_stack(a)
    _check_shape(a, prop)
    m = prop.step_count(tau)
    if m == 0:
        return a.copy()
    out = _evolve_batch(a[..., None], prop, m, method)
    return out[..., 0]


def _check_shape(a, prop):
    if a.shape[:3] != (prop.n_pixels, prop.n_pixels, prop.n_orient):
        raise ValueError(
            f"stack shape {a.shape} does not match propagator "
            f"({prop.n_pixels}, {prop.n_pixels}, {prop.n_orient})"
        )


def _evolve_batch(stacks, prop, m, method="spectral"):
    """Evolve (N, N, K, B) real stacks by m steps; returns the same shape.

    The spectral driver multiplies each mode's real propagator into the
    complex spectrum viewed as interleaved (re, im) reals: one real
    (K, K) @ (K, 2B) product per mode instead of one for each part.
    """
    n = prop.n_pixels
    if method == "spectral":
        hats = rfft2(stacks, axes=(0, 1), workers=-1)
        pm = prop.propagator(m)
        out = (pm @ hats.view(np.float64)).view(np.complex128)
        return irfft2(out, s=(n, n), axes=(0, 1), workers=-1)
    if method == "stepping":
        hats = fft2(stacks, axes=(0, 1))
        out = _cn_stepping(hats, prop, m)
        return np.real(ifft2(out, axes=(0, 1)))
    raise ValueError(f"unknown method {method!r}")


def _cn_stepping(hats, prop, m):
    """Literal Crank-Nicolson rounds: M- u' = M+ u per mode and step."""
    n, k = prop.n_pixels, prop.n_orient
    if k < 3:
        raise ValueError("stepping driver needs K >= 3; use method='spectral'")
    batch = hats.shape[-1]
    u = hats.reshape(n * n, k, batch)
    half = 0.5 * prop.dtau
    om = -half * prop.ang_coeff  # off-diagonal and corner of M-
    dm = 1.0 + half * (2.0 * prop.ang_coeff + prop.d2h.reshape(n * n, k))
    dp = 2.0 - dm  # M+ diagonal
    op = -om

    factors = _cyclic_factors(dm, om, k)
    for _ in range(m):
        rhs = dp[..., None] * u + op * (np.roll(u, 1, axis=1) + np.roll(u, -1, axis=1))
        u = _cyclic_solve(factors, rhs)
    return u.reshape(n, n, k, batch)


def _cyclic_factors(dm, om, k):
    """Batched Sherman-Morrison/Thomas factorization of M- (shape (M, K))."""
    gamma = -dm[:, 0]
    mod = dm.copy()
    mod[:, 0] = 2.0 * dm[:, 0]
    mod[:, -1] = dm[:, -1] - om * om / gamma
    denom = np.empty_like(mod)
    lower = np.empty((mod.shape[0], k - 1))
    denom[:, 0] = mod[:, 0]
    for i in range(1, k):
        lower[:, i - 1] = om / denom[:, i - 1]
        denom[:, i] = mod[:, i] - lower[:, i - 1] * om
    u_vec = np.zeros_like(mod)
    u_vec[:, 0] = gamma
    u_vec[:, -1] = om
    z = _thomas_batched(denom, lower, om, u_vec[..., None])[..., 0]
    corner_over_gamma = om / gamma
    vz = z[:, 0] + corner_over_gamma * z[:, -1]
    return denom, lower, om, z, corner_over_gamma, 1.0 + vz


def _cyclic_solve(factors, rhs):
    denom, lower, om, z, cog, denom_sm = factors
    y = _thomas_batched(denom, lower, om, rhs)
    vy = y[:, 0] + cog[:, None] * y[:, -1]
    return y - (vy / denom_sm[:, None])[:, None, :] * z[..., None]


def _thomas_batched(denom, lower, om, rhs):
    """Back-substitution with precomputed elimination factors.

    ``denom``/``lower`` come from ``_cyclic_factors``; ``rhs`` has shape
    (M, K, B) and may be complex.
    """
    k = denom.shape[1]
    work = np.empty_like(rhs)
    work[:, 0] = rhs[:, 0]
    for i in range(1, k):
        work[:, i] = rhs[:, i] - lower[:, i - 1, None] * work[:, i - 1]
    out = np.empty_like(work)
    out[:, -1] = work[:, -1] / denom[:, -1, None]
    for i in range(k - 2, -1, -1):
        out[:, i] = (work[:, i] - om * out[:, i + 1]) / denom[:, i, None]
    return out


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

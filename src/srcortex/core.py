"""Grid data types, projection, norms and the shared model configuration.

Images are square ``(N, N)`` float arrays; activation stacks are
``(N, N, K)`` float arrays whose last axis indexes orientations
``theta_k = k * pi / K`` (axis 0 is the first spatial coordinate, axis 1
the second; orientations are periodic modulo K, identifying theta and
theta + pi).  All operations are pure functions of their arguments.
"""

import math
from dataclasses import dataclass, field

import numpy as np

WC = "wc"
LHE = "lhe"
MAX_POLY_DEGREE = 15  # contrast-sigmoid fit; above it the fit is ill-conditioned


def as_image(arr) -> np.ndarray:
    """Validate and return a square 2D float image."""
    img = np.asarray(arr, dtype=float)
    if img.ndim != 2 or img.shape[0] != img.shape[1]:
        raise ValueError(f"image must be square 2D, got shape {img.shape}")
    if not np.all(np.isfinite(img)):
        raise ValueError("image contains non-finite values")
    return img


def as_stack(arr) -> np.ndarray:
    """Validate and return an (N, N, K) activation stack."""
    a = np.asarray(arr, dtype=float)
    if a.ndim != 3 or a.shape[0] != a.shape[1]:
        raise ValueError(f"stack must have shape (N, N, K), got {a.shape}")
    if a.shape[2] < 1:
        raise ValueError("stack needs at least one orientation")
    if not np.all(np.isfinite(a)):
        raise ValueError("stack contains non-finite values")
    return a


def project(a) -> np.ndarray:
    """Project a stack back to the retinal plane: plain sum over orientations."""
    return as_stack(a).sum(axis=2)


def relative_change(a, b) -> float:
    """``||a - b|| / ||a||`` with the Euclidean norm over all entries.

    Returns 0 when both arguments vanish and +inf when only ``a`` does.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    diff = np.linalg.norm((a - b).ravel())
    denom = np.linalg.norm(a.ravel())
    if denom == 0.0:
        return 0.0 if diff == 0.0 else math.inf
    return float(diff / denom)


def renormalize(img) -> np.ndarray:
    """Affinely rescale an image to span [0, 1].

    Constant images map to all 0.5 by convention.
    """
    img = np.asarray(img, dtype=float)
    lo = float(img.min())
    hi = float(img.max())
    if hi == lo:
        return np.full_like(img, 0.5)
    return (img - lo) / (hi - lo)


@dataclass
class ModelConfig:
    """Scalar parameters of the activation models.

    Fields follow the evolution equation
    ``da/dt = -(1 + lam) a + lam a0 + mu + (1/2M) * interaction``:

    - ``model``: "wc" (sigmoid of activity) or "lhe" (sigmoid of contrast)
    - ``lam``: fidelity weight (>= 0)
    - ``alpha``: sigmoid slope (> 1)
    - ``sigma_mu``: std in pixels of the Gaussian local-mean filter
    - ``m_scale``: interaction normalizer M
    - ``beta``: spatial/angular coherency of the diffusion; None derives
      the default K / (N^2 sqrt(2)) once the grid is known
    - ``dt``: gradient-descent step, constrained to dt <= 1/(1 + lam)
    - ``dtau``: inner step of the heat solver
    - ``tau``: total diffusion time; must be an integer multiple of dtau
    - ``tol``: relative-change stopping threshold
    - ``poly_degree``: odd degree of the contrast-sigmoid fit (LHE only)
    - ``forcing``: "continuous" uses lam*a0 + mu, "discrete-paper" swaps
      the roles to a0 + lam*mu
    - ``sigma_sign``: "paper" keeps the decreasing sigmoid, "flipped"
      negates the interaction nonlinearity
    """

    model: str
    lam: float
    alpha: float
    sigma_mu: float
    dt: float
    dtau: float
    tau: float
    m_scale: float = 1.0
    beta: float | None = None
    tol: float = 1e-4
    poly_degree: int = 9
    max_iters: int = 500
    forcing: str = "continuous"
    sigma_sign: str = "paper"

    def __post_init__(self):
        if self.model not in (WC, LHE):
            raise ValueError(f"model must be 'wc' or 'lhe', got {self.model!r}")
        if self.lam < 0:
            raise ValueError("lam must be >= 0")
        if self.alpha <= 1:
            raise ValueError("alpha must be > 1")
        if self.sigma_mu <= 0:
            raise ValueError("sigma_mu must be > 0")
        if self.m_scale <= 0:
            raise ValueError("m_scale must be > 0")
        if self.beta is not None and self.beta <= 0:
            raise ValueError("beta must be > 0")
        if self.dt <= 0:
            raise ValueError("dt must be > 0")
        limit = 1.0 / (1.0 + self.lam)
        if self.dt > limit * (1 + 1e-12):
            raise ValueError(f"dt={self.dt} violates stability bound 1/(1+lam)={limit}")
        if self.dtau <= 0:
            raise ValueError("dtau must be > 0")
        if self.tau < 0:
            raise ValueError("tau must be >= 0")
        steps_of(self.tau, self.dtau)  # raises if tau is not a multiple
        if self.tol <= 0:
            raise ValueError("tol must be > 0")
        if self.poly_degree < 1 or self.poly_degree % 2 == 0:
            raise ValueError("poly_degree must be odd and >= 1")
        if self.poly_degree > MAX_POLY_DEGREE:
            raise ValueError(f"poly_degree capped at {MAX_POLY_DEGREE}")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.forcing not in ("continuous", "discrete-paper"):
            raise ValueError(f"unknown forcing {self.forcing!r}")
        if self.sigma_sign not in ("paper", "flipped"):
            raise ValueError(f"unknown sigma_sign {self.sigma_sign!r}")

    def beta_for(self, n_pixels: int, n_orient: int) -> float:
        """Coherency actually used on an N x K grid (default K/(N^2 sqrt 2))."""
        if self.beta is not None:
            return self.beta
        return default_beta(n_pixels, n_orient)


def default_beta(n_pixels: int, n_orient: int) -> float:
    """Default coherency between spatial and angular sampling units."""
    return n_orient / (n_pixels**2 * math.sqrt(2.0))


def steps_of(tau: float, dtau: float) -> int:
    """Number of inner steps in ``tau``; rejects non-integer multiples."""
    m = int(round(tau / dtau))
    if m < 0 or abs(tau - m * dtau) > 1e-9 * max(1.0, abs(tau)):
        raise ValueError(f"tau={tau} is not an integer multiple of dtau={dtau}")
    return m

"""Grid data types, projection, norms and the shared model configuration.

Images are square ``(N, N)`` float arrays; activation stacks are
``(N, N, K)`` float arrays whose last axis indexes orientations
``theta_k = k * pi / K`` (axis 0 is the first spatial coordinate, axis 1
the second; orientations are periodic modulo K, identifying theta and
theta + pi).  All operations are pure functions of their arguments.
"""

import math
from dataclasses import dataclass

import numpy as np

WC = "wc"
LHE = "lhe"
MODELS = (WC, LHE)
FORCINGS = ("continuous", "discrete-paper")
MAX_POLY_DEGREE = 15  # contrast-sigmoid fit; above it the fit is ill-conditioned
# entries per block of a blocked float64 pass: 256 KB, so a block's few
# arrays stay in a core's L2 cache between the operations on it
BLOCK = 1 << 15


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
    Both arrays are read once, a block of ``BLOCK`` entries at a time,
    with no full-size difference array.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    a, b = a.ravel(), b.ravel()
    scratch = np.empty(min(BLOCK, a.size))
    diff = denom = 0.0
    for start in range(0, a.size, BLOCK):
        x = a[start : start + BLOCK]
        d = np.subtract(x, b[start : start + BLOCK], out=scratch[: x.size])
        diff += float(d @ d)
        denom += float(x @ x)
    if denom == 0.0:
        return 0.0 if diff == 0.0 else math.inf
    return math.sqrt(diff) / math.sqrt(denom)


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
    ``da/dt = -(1 + lam) a + lam a0 + mu + (s/2M) * interaction`` with
    the sign s = +1 and the interaction normalizer M = 1 both fixed:

    - ``model``: "wc" (sigmoid of activity) or "lhe" (sigmoid of contrast)
    - ``lam``: fidelity weight (>= 0)
    - ``alpha``: sigmoid slope (> 1)
    - ``sigma_mu``: std in pixels of the Gaussian local-mean filter
    - ``dt``: gradient-descent step, constrained to dt <= 1/(1 + lam)
    - ``dtau``: inner step of the heat solver
    - ``tau``: total diffusion time; must be an integer multiple of dtau
    - ``tol``: relative-change stopping threshold
    - ``poly_degree``: odd degree of the contrast-sigmoid fit (LHE only)
    - ``forcing``: "continuous" uses lam*a0 + mu, "discrete-paper" swaps
      the roles to a0 + lam*mu

    ``paper(model)`` holds the values of each model's gratings figure.
    """

    model: str
    lam: float
    alpha: float
    sigma_mu: float
    dt: float
    dtau: float
    tau: float
    tol: float = 1e-4
    poly_degree: int = 9
    max_iters: int = 500
    forcing: str = "continuous"

    def __post_init__(self):
        if self.model not in MODELS:
            raise ValueError(f"model must be 'wc' or 'lhe', got {self.model!r}")
        if self.lam < 0:
            raise ValueError("lam must be >= 0")
        check_fit(self.alpha, self.poly_degree)
        if self.sigma_mu <= 0:
            raise ValueError("sigma_mu must be > 0")
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
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.forcing not in FORCINGS:
            raise ValueError(f"unknown forcing {self.forcing!r}")

    @classmethod
    def paper(cls, model: str) -> "ModelConfig":
        """The model's parameters for the N = 200 gratings figure.

        WC and LHE differ in lam, alpha, sigma_mu and dt; both run tau = 5
        in steps dtau = 0.01 under the discrete-paper forcing, with the
        defaults for the rest.  The values are the N = 200 ones; callers
        that run a smaller figure scale them themselves.  An unknown
        model gets LHE's values and is rejected by ``__post_init__``.
        """
        wc = model == WC
        return cls(
            model=model,
            lam=0.01 if wc else 2.0,
            alpha=20.0 if wc else 8.0,
            sigma_mu=6.5 if wc else 1.0,
            dt=0.1 if wc else 0.15,
            dtau=0.01,
            tau=5.0,
            forcing="discrete-paper",
        )

    @property
    def fidelity_weights(self) -> tuple[float, float]:
        """Weights of the stimulus a0 and of its local mean mu in the forcing."""
        if self.forcing == "continuous":
            return self.lam, 1.0
        return 1.0, self.lam  # the discrete-compatibility role swap

    @staticmethod
    def beta_for(n_pixels: int, n_orient: int) -> float:
        """Coherency K/(N^2 sqrt 2) on an N x K grid; ``heat``'s docstring states its strength."""
        return n_orient / (n_pixels**2 * math.sqrt(2.0))


def check_fit(alpha: float, degree: int) -> None:
    """The contrast fit's rules: slope alpha > 1, odd degree in [1, MAX_POLY_DEGREE]."""
    if alpha <= 1:
        raise ValueError("alpha must be > 1")
    if degree < 1 or degree % 2 == 0 or degree > MAX_POLY_DEGREE:
        raise ValueError(f"poly_degree must be odd and in [1, {MAX_POLY_DEGREE}], got {degree}")


def steps_of(tau: float, dtau: float) -> int:
    """Number of inner steps in ``tau``; rejects non-integer multiples."""
    m = int(round(tau / dtau))
    if m < 0 or abs(tau - m * dtau) > 1e-9 * max(1.0, abs(tau)):
        raise ValueError(f"tau={tau} is not an integer multiple of dtau={dtau}")
    return m

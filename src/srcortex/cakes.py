"""Frequency-wedge (cake) wavelet bank and the orientation lifting.

The bank tiles the frequency plane with K angular wedges whose profiles
are cardinal B-splines in the angle, periodized over pi so that each
real filter responds to orientation rather than direction.  Summed over
k the profiles form an exact partition of unity; a raised-cosine radial
taper rolls the response off between 0.9 * Nyquist and Nyquist, and the
DC bin is split equally across the K filters.  Lifting an image is
correlation with every filter, done in the Fourier domain.

Orientation convention: filter k responds to lines oriented along the
spatial direction (cos theta_k, sin theta_k), theta_k = k * pi / K, in
(axis 0, axis 1) coordinates.  Such a line carries its energy on the
frequency ray at theta_k + pi/2, which is where the wedge k is centered.

Filtering keeps only the real part of the output; for this construction
the filters are real and even in frequency, so the discarded imaginary
part is pure roundoff.  The DFT makes all spatial boundaries periodic.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.fft import fft2, ifft2
from scipy.interpolate import BSpline

from .core import as_image

TAPER_START = 0.9  # fraction of the Nyquist radius where the roll-off begins


@dataclass
class WaveletBank:
    """K complex filters stored in the Fourier domain plus their metadata.

    ``pou_residual`` records the worst deviation of the filter sum from 1
    over the retained (un-tapered) frequencies; it is measured at build
    time, never assumed.
    """

    n_pixels: int
    n_orient: int
    profile_order: int
    filters: np.ndarray  # (K, N, N) complex, Fourier domain
    pou_residual: float


def retained_mask(n_pixels: int) -> np.ndarray:
    """Frequencies below the taper band, where the partition of unity is exact."""
    rho = _freq_radius(n_pixels)
    return rho <= TAPER_START * (n_pixels / 2.0)


def build_cake_bank(n_pixels: int, n_orient: int, profile_order: int) -> WaveletBank:
    """Construct the wavelet bank for an N x N grid and K orientations."""
    n, k, bw = n_pixels, n_orient, profile_order
    if n < 8 or n % 2 != 0:
        raise ValueError("n_pixels must be even and >= 8")
    if k < 2:
        raise ValueError("n_orient must be >= 2")
    if bw < 1:
        raise ValueError("profile_order must be >= 1")

    rho = _freq_radius(n)
    u = np.fft.fftfreq(n) * n
    phi = np.arctan2(u[None, :], u[:, None])  # frequency angle from axis 0 toward axis 1
    taper = _radial_taper(rho, n)

    filters = _build_filters(n, k, bw, phi, taper)
    filters[:, 0, 0] = 1.0 / k  # split the DC bin equally

    mask = retained_mask(n)
    residual = float(np.abs(filters.sum(axis=0) - 1.0)[mask].max())
    return WaveletBank(n, k, bw, filters, residual)


def _build_filters(n, k, bw, phi, taper) -> np.ndarray:
    dtheta = np.pi / k
    spline = _cardinal_bspline(bw)
    half_support = (bw + 1) / 2.0 * dtheta
    reach = int(np.ceil((half_support + np.pi / 2.0) / np.pi))
    filters = np.empty((k, n, n), dtype=complex)
    for j in range(k):
        center = j * dtheta + np.pi / 2.0
        # angular offset folded to [-pi/2, pi/2): distance modulo pi, which
        # merges each wedge with its antipodal twin
        base = (phi - center + np.pi / 2.0) % np.pi - np.pi / 2.0
        profile = np.zeros((n, n))
        for q in range(-reach, reach + 1):
            profile += spline((base + q * np.pi) / dtheta)
        filters[j] = profile * taper
    return filters


def _cardinal_bspline(order: int):
    """Centered cardinal B-spline of the given degree, 0 outside its support."""
    knots = np.arange(order + 2) - (order + 1) / 2.0
    basis = BSpline.basis_element(knots, extrapolate=False)

    def evaluate(x):
        return np.nan_to_num(basis(x), copy=False)

    return evaluate


def _freq_radius(n: int) -> np.ndarray:
    u = np.fft.fftfreq(n) * n
    return np.hypot(u[:, None], u[None, :])


def _radial_taper(rho: np.ndarray, n: int) -> np.ndarray:
    # raised cosine from 0.9 * Nyquist out to the spectral corner; ending
    # the roll-off at the corner rather than at Nyquist keeps the
    # reconstruction loss on anti-aliased stimuli below the percent level
    start = TAPER_START * (n / 2.0)
    corner = n / math.sqrt(2.0)
    t = np.ones_like(rho)
    ramp = rho > start
    t[ramp] = 0.5 * (1.0 + np.cos(np.pi * (rho[ramp] - start) / (corner - start)))
    return t


def lift(f, bank: WaveletBank) -> np.ndarray:
    """Lift an image to the (N, N, K) orientation stack.

    Slice k is the real part of the inverse DFT of ``psi_hat_k * f_hat``:
    the response of every filter at every position via the convolution
    theorem.
    """
    img = as_image(f)
    if img.shape[0] != bank.n_pixels:
        raise ValueError(
            f"image size {img.shape[0]} does not match bank size {bank.n_pixels}"
        )
    fhat = fft2(img)
    responses = ifft2(bank.filters * fhat[None, :, :], axes=(1, 2))
    return np.ascontiguousarray(np.real(responses).transpose(1, 2, 0))


def pou_check(bank: WaveletBank) -> float:
    """Max deviation of the filter sum from 1 over retained frequencies.

    The projection-after-lifting error is bounded by this residual (plus
    taper leakage on the rolled-off band) times the image norm.
    """
    mask = retained_mask(bank.n_pixels)
    return float(np.abs(bank.filters.sum(axis=0) - 1.0)[mask].max())

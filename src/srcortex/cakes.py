"""Frequency-wedge (cake) wavelet bank and the orientation lifting.

The bank tiles the frequency plane with K angular wedges whose profiles
are cardinal B-splines in the angle, periodized over pi so that each
real filter responds to orientation rather than direction.  Summed over
k the profiles form an exact partition of unity; a raised-cosine radial
taper rolls the response off between 0.9 * Nyquist and the spectral
corner, and the DC bin is split equally across the K filters.  Lifting
an image is correlation with every filter, done in the Fourier domain.

Orientation convention: filter k responds to lines oriented along the
spatial direction (cos theta_k, sin theta_k), theta_k = k * pi / K, in
(axis 0, axis 1) coordinates.  Such a line carries its energy on the
frequency ray at theta_k + pi/2, which is where the wedge k is centered.

The filters are real and even in frequency, so the bank stores each on
``rfft2``'s half plane, (N, N//2 + 1): rows in DFT order, columns 0 to
N/2.  Off the Nyquist lines a wedge is even as it stands: the mirrored
frequency's angle differs by pi and its radius not at all.  On the
Nyquist row and column the grid has one frequency, -N/2, for both N/2
and -N/2, and the wedge differs at the two (by up to 0.47 at N = 200,
K = 16).  There the bank stores the mean of the two, the even part of
the filter.  So lifting a real image gives a real stack, and
``irfft2`` discards nothing; full-plane filters evaluated at -N/2 alone
give the Poggendorff gratings at N = 200 and 100 an imaginary part of
1e-3 and 5e-3 of the real part.  The DFT makes all spatial boundaries
periodic.

A frequency at angle t (in units of pi/K from wedge 0's center) lies
in the support of the order + 1 wedges j with |t - j| < (order + 1)/2,
modulo K, and its position y in the B-spline's unit knot interval is
the same for all of them.  So the bank is built from the spline's
order + 1 polynomial pieces, each evaluated once at every frequency
and added to the wedge it belongs to; no wedge is evaluated off its
angular support.  Each piece is added through one flat index into the
bank, ``wedge * size + point``: a 1-D scatter, which takes about half
the time of one through a (wedge, point) index.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.fft import rfft2

from .core import as_image, pool_width
from .heat import irfft2

TAPER_START = 0.9  # fraction of the Nyquist radius where the roll-off begins


@dataclass
class WaveletBank:
    """K real, even filters on ``rfft2``'s half plane plus their metadata.

    ``filters[k]`` holds filter k at the frequencies of an N x N image's
    ``rfft2``; its values at the other half follow by evenness.
    ``pou_residual`` records the worst deviation of the filter sum from 1
    over the retained (un-tapered) frequencies; it is measured at build
    time, never assumed.
    """

    n_pixels: int
    n_orient: int
    profile_order: int
    filters: np.ndarray  # (K, N, N//2 + 1) float64, Fourier half plane
    pou_residual: float


def retained_mask(n_pixels: int) -> np.ndarray:
    """Half-plane frequencies below the taper band, where the partition of unity is exact."""
    u, v = _half_plane(n_pixels)
    return np.hypot(u, v) <= TAPER_START * (n_pixels / 2.0)


def check_bank_sizes(n_pixels: int | None, n_orient: int, profile_order: int) -> None:
    """The bank's rules on its sizes; ``n_pixels=None`` (not yet known) skips the grid rule."""
    if n_pixels is not None and (n_pixels < 8 or n_pixels % 2 != 0):
        raise ValueError(f"n_pixels must be even and >= 8, got {n_pixels}")
    if n_orient < 2:
        raise ValueError("n_orient must be >= 2")
    if profile_order < 1:
        raise ValueError("profile_order must be >= 1")


def build_cake_bank(n_pixels: int, n_orient: int, profile_order: int) -> WaveletBank:
    """Construct the wavelet bank for an N x N grid and K orientations."""
    check_bank_sizes(n_pixels, n_orient, profile_order)
    n, k, bw = n_pixels, n_orient, profile_order

    u, v = _half_plane(n)
    filters = _wedges(u, v, n, k, bw)
    nyq = n // 2
    # the even part on the Nyquist lines: the column v = -N/2 is its own
    # mirror, with row u taken to -u; the row u = -N/2 takes (-N/2, v) to
    # (-N/2, -v), where the wedge has its value at (N/2, v)
    column = filters[:, :, nyq]
    column += column[:, -np.arange(n) % n]
    column *= 0.5
    row = filters[:, nyq, :nyq]
    row += _wedges(float(nyq), v[0, :nyq], n, k, bw)
    row *= 0.5
    filters[:, 0, 0] = 1.0 / k  # split the DC bin equally

    bank = WaveletBank(n, k, bw, filters, pou_residual=math.nan)
    bank.pou_residual = pou_check(bank)
    return bank


def _half_plane(n: int):
    """Frequencies (u, v) of ``rfft2``'s half plane, as (N, 1) and (1, N//2 + 1).

    Both in DFT order, so the Nyquist column is at v = -N/2.
    """
    u = np.fft.fftfreq(n) * n
    return u[:, None], u[None, : n // 2 + 1]


def _wedges(u, v, n, k, bw) -> np.ndarray:
    """The K tapered wedge profiles at the frequencies (u, v), shape (K,) + their shape."""
    dtheta = np.pi / k
    phi = np.arctan2(v, u)  # frequency angle from axis 0 toward axis 1
    taper = _radial_taper(np.hypot(u, v), n)
    # angle from wedge 0's center, modulo pi, in units of dtheta: [0, K]
    t = (phi - np.pi / 2.0) % np.pi / dtheta
    shifted = t - (bw + 1) / 2.0
    below = np.floor(shifted)
    # wedges first, ..., first + bw hold t in their support, at x = t - j
    first = below.astype(np.intp).ravel() + 1
    pieces = _bspline_pieces(bw, shifted - below)
    filters = np.zeros((k,) + taper.shape)
    flat = filters.reshape(-1)
    points = np.arange(taper.size)
    # wedge first + m sits at x = y + (bw - m) - (bw + 1)/2: piece bw - m;
    # below K = bw + 1 a point's pieces wrap onto one wedge, and add there
    for m, piece in enumerate(reversed(pieces)):
        flat[(first + m) % k * taper.size + points] += (piece * taper).ravel()
    return filters


def _bspline_pieces(order: int, y) -> list:
    """The centered cardinal B-spline of degree ``order`` at x = y + i - (order + 1)/2.

    One array per i = 0 .. order: for y in [0, 1) these are the
    spline's order + 1 polynomial pieces, each at the same position y of
    its unit knot interval.  Built by the Cox-de Boor recurrence on unit
    knots, from degree 0 up; every term is a product of non-negative
    factors.
    """
    pieces = [np.ones_like(y)]
    for d in range(1, order + 1):
        # piece i of degree d: from pieces i (rising) and i - 1 (falling) of degree d - 1
        rising = [(y + i) / d * p for i, p in enumerate(pieces)] + [0.0]
        falling = [0.0] + [(d - i - y) / d * p for i, p in enumerate(pieces)]
        pieces = [r + f for r, f in zip(rising, falling)]
    return pieces


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

    Slice k is ``irfft2(psi_hat_k * rfft2(f))``: the response of every
    filter at every position via the convolution theorem, real because
    the filters are real and even.
    """
    img = as_image(f)
    n = bank.n_pixels
    if img.shape[0] != n:
        raise ValueError(f"image size {img.shape[0]} does not match bank size {n}")
    spec = np.moveaxis(bank.filters, 0, -1) * rfft2(img, workers=pool_width())[..., None]
    return irfft2(spec, n)


def pou_check(bank: WaveletBank) -> float:
    """Max deviation of the filter sum from 1 over retained frequencies.

    The projection-after-lifting error is bounded by this residual (plus
    taper leakage on the rolled-off band) times the image norm.
    """
    mask = retained_mask(bank.n_pixels)
    return float(np.abs(bank.filters.sum(axis=0) - 1.0)[mask].max())

import math

import numpy as np
import pytest
from scipy.fft import fft2, ifft2
from scipy.interpolate import BSpline
from scipy.ndimage import gaussian_filter

from srcortex import build_cake_bank, cakes, lift, pou_check, project
from srcortex.cakes import WaveletBank, _bspline_pieces, _radial_taper, retained_mask


@pytest.fixture(scope="module")
def bank64():
    return build_cake_bank(64, 8, 5)


def test_build_validates_sizes():
    for args in [(7, 8, 5), (9, 8, 5), (16, 1, 5), (16, 8, 0)]:
        with pytest.raises(ValueError):
            build_cake_bank(*args)


def test_partition_of_unity_below_taper(bank64):
    assert bank64.pou_residual < 1e-6
    assert pou_check(bank64) == bank64.pou_residual


def test_paper_configuration_residual():
    bank = build_cake_bank(200, 16, 5)
    assert bank.pou_residual < 1e-3


def test_real_filters_give_the_complex_bank_bits():
    # the filters are real; storing them as complex changes no bit of
    # the residual or of a lifted stack
    bank = build_cake_bank(48, 8, 5)
    assert bank.filters.dtype == np.float64
    assert bank.filters.shape == (8, 48, 25)
    as_complex = WaveletBank(48, 8, 5, bank.filters.astype(complex), math.nan)
    assert pou_check(as_complex) == bank.pou_residual
    img = np.random.default_rng(3).random((48, 48))
    np.testing.assert_array_equal(lift(img, as_complex), lift(img, bank))


def reference_spline(order):
    """scipy's centered cardinal B-spline of the given degree, 0 outside its support."""
    knots = np.arange(order + 2) - (order + 1) / 2.0
    basis = BSpline.basis_element(knots, extrapolate=False)
    return lambda x: np.nan_to_num(basis(x))


def shifted_filters(n, k, bw, reach):
    """Full-plane (K, N, N) wedges with the spline shifts q pi, |q| <= reach, summed in order of q.

    Each is evaluated at the DFT frequencies as they are, so the
    Nyquist row and column take the wedge at -N/2 only.
    """
    dtheta = np.pi / k
    spline = reference_spline(bw)
    u = np.fft.fftfreq(n) * n
    phi = np.arctan2(u[None, :], u[:, None])
    taper = _radial_taper(np.hypot(u[:, None], u[None, :]), n)
    filters = np.empty((k, n, n))
    for j in range(k):
        base = (phi - (j * dtheta + np.pi / 2.0) + np.pi / 2.0) % np.pi - np.pi / 2.0
        profile = np.zeros((n, n))
        for q in range(-reach, reach + 1):
            profile += spline((base + q * np.pi) / dtheta)
        filters[j] = profile * taper
    filters[:, 0, 0] = 1.0 / k
    return filters


def even_half(full):
    """The even part of full-plane (K, N, N) filters on rfft2's half plane."""
    n = full.shape[-1]
    mirror = -np.arange(n) % n
    return (0.5 * (full + full[:, mirror][:, :, mirror]))[:, :, : n // 2 + 1]


def full_plane(half, n):
    """(K, N, N) filters from their half plane, by evenness."""
    full = np.empty(half.shape[:2] + (n,))
    full[:, :, : n // 2 + 1] = half
    rows, cols = -np.arange(n) % n, -np.arange(n // 2 + 1, n) % n
    full[:, :, n // 2 + 1 :] = half[:, rows][:, :, cols]
    return full


@pytest.mark.parametrize("k, needed", [(16, 0), (4, 1)])
def test_bank_sums_every_shift_that_reaches_the_support(k, needed):
    # |q| <= 2 covers every shift that can reach a support of half-width
    # 3 pi / K, and K = 4 needs |q| = 1; the bank holds the even part of
    # the filters with every shift summed
    n, bw = 32, 5
    every = shifted_filters(n, k, bw, 2)
    bank = build_cake_bank(n, k, bw)
    assert bank.filters.shape == (k, n, n // 2 + 1)
    assert np.abs(bank.filters - even_half(every)).max() <= 1e-14
    assert np.array_equal(shifted_filters(n, k, bw, needed), every)
    if needed:
        assert not np.array_equal(shifted_filters(n, k, bw, needed - 1), every)


def scattered_by_wedge_and_point(u, v, n, k, bw):
    """``cakes._wedges`` adding each piece through a 2-D (wedge, point) index: its reference."""
    phi = np.arctan2(v, u)
    taper = _radial_taper(np.hypot(u, v), n)
    t = (phi - np.pi / 2.0) % np.pi / (np.pi / k)
    shifted = t - (bw + 1) / 2.0
    below = np.floor(shifted)
    first = below.astype(np.intp).ravel() + 1
    pieces = _bspline_pieces(bw, shifted - below)
    filters = np.zeros((k,) + taper.shape)
    flat = filters.reshape(k, -1)
    points = np.arange(taper.size)
    for m, piece in enumerate(reversed(pieces)):
        flat[(first + m) % k, points] += (piece * taper).ravel()
    return filters


@pytest.mark.parametrize("k, order", [(2, 5), (3, 5), (4, 5), (6, 5), (16, 5), (16, 1),
                                      (16, 3), (16, 7)])
@pytest.mark.parametrize("n", [32, 200])
def test_flat_scatter_gives_the_wedge_and_point_scatter_bits(monkeypatch, n, k, order):
    # below K = order + 1 a point's pieces wrap onto one wedge and add up there
    bank = build_cake_bank(n, k, order)
    monkeypatch.setattr(cakes, "_wedges", scattered_by_wedge_and_point)
    reference = build_cake_bank(n, k, order)
    assert bank.filters.tobytes() == reference.filters.tobytes()
    assert bank.pou_residual == reference.pou_residual


@pytest.mark.parametrize("n, k", [(200, 16), (64, 8)])
def test_bank_is_the_even_part_of_the_full_plane_filters(n, k):
    every = shifted_filters(n, k, 5, 2)
    half = even_half(every)
    bank = build_cake_bank(n, k, 5)
    assert np.abs(bank.filters - half).max() <= 1e-14
    # the full-plane filters differ from their even part on the Nyquist lines only
    assert np.abs(half - every[:, :, : n // 2 + 1]).max() > 0.1
    inner = np.ones(n, dtype=bool)
    inner[n // 2] = False
    assert np.abs(half - every[:, :, : n // 2 + 1])[:, inner, : n // 2].max() <= 1e-14


@pytest.mark.parametrize("n, k", [(32, 16), (32, 4), (64, 8), (200, 16)])
def test_lift_is_the_real_part_of_the_full_plane_lift(n, k):
    bank = build_cake_bank(n, k, 5)
    img = np.random.default_rng(n + k).random((n, n))
    full = ifft2(shifted_filters(n, k, 5, 2) * fft2(img), axes=(1, 2))
    expected = np.real(full).transpose(1, 2, 0)
    got = lift(img, bank)
    # the blocked passes ravel the state, so the stack must be laid out as indexed
    assert got.shape == (n, n, k) and got.dtype == np.float64 and got.flags.c_contiguous
    err = np.abs(got - expected).max()
    assert err <= 1e-12 * np.abs(expected).max()


@pytest.mark.parametrize("n, k", [(32, 4), (64, 8), (200, 16)])
def test_stored_bank_is_real_in_space(n, k):
    # the even filters' full-plane inverse DFTs are real
    spatial = ifft2(full_plane(build_cake_bank(n, k, 5).filters, n), axes=(1, 2))
    assert np.abs(spatial.imag).max() <= 1e-12 * np.abs(spatial.real).max()


@pytest.mark.parametrize("order", range(1, 8))
def test_bspline_pieces_match_scipy(order):
    # on a grid through every knot and beyond both ends of the support
    h = (order + 1) / 2.0
    x = np.concatenate([np.arange(-h - 2.0, h + 2.0 + 1e-9, 1.0 / 16.0),
                        np.random.default_rng(order).uniform(-h - 1.0, h + 1.0, 500)])
    piece = np.floor(x + h).astype(int)
    values = np.array(_bspline_pieces(order, x + h - piece))
    inside = (piece >= 0) & (piece <= order)
    ours = np.where(inside, values[np.clip(piece, 0, order), np.arange(x.size)], 0.0)
    np.testing.assert_allclose(ours, reference_spline(order)(x), rtol=0, atol=1e-15)


def test_two_wedges_sum_to_one():
    bank = build_cake_bank(32, 2, 1)
    mask = retained_mask(32)
    total = bank.filters.sum(axis=0)
    assert total.shape == mask.shape == (32, 17)
    assert np.abs(total[mask] - 1.0).max() < 1e-12


def test_all_pass_single_filter_bank_has_zero_residual():
    # degenerate K=1 bank built directly; build_cake_bank requires K >= 2
    filters = np.ones((1, 16, 9), dtype=complex)
    bank = WaveletBank(16, 1, 1, filters, 0.0)
    assert pou_check(bank) == 0.0


def test_broken_bank_has_large_residual(bank64):
    broken = WaveletBank(
        bank64.n_pixels,
        bank64.n_orient,
        bank64.profile_order,
        bank64.filters.copy(),
        bank64.pou_residual,
    )
    broken.filters[0] = 0.0
    assert broken.filters.shape == (8, 64, 33)
    assert pou_check(broken) >= 0.5


def test_lift_zero_image(bank64):
    a = lift(np.zeros((64, 64)), bank64)
    assert a.shape == (64, 64, 8)
    assert np.all(a == 0.0)


def test_lift_constant_dc_split(bank64):
    a = lift(np.full((64, 64), 0.37), bank64)
    np.testing.assert_allclose(project(a), 0.37, atol=1e-12)


def test_lift_linear(bank64):
    rng = np.random.default_rng(0)
    f = rng.random((64, 64))
    g = rng.random((64, 64))
    left = lift(1.5 * f - 0.3 * g, bank64)
    right = 1.5 * lift(f, bank64) - 0.3 * lift(g, bank64)
    np.testing.assert_allclose(left, right, atol=1e-12)


def test_lift_size_mismatch(bank64):
    with pytest.raises(ValueError):
        lift(np.zeros((32, 32)), bank64)


def _line_image(n, theta, thickness=2.0):
    """Dark line through the center along direction (cos t, sin t)."""
    idx = np.arange(n) - (n - 1) / 2.0
    # signed distance to the line: project onto the unit normal
    dist = -math.sin(theta) * idx[:, None] + math.cos(theta) * idx[None, :]
    return np.where(np.abs(dist) <= thickness / 2.0, 0.0, 1.0)


def test_lift_line_orientation_argmax(bank64):
    k = bank64.n_orient
    for j in (0, 2, 3, 5):
        img = _line_image(64, j * math.pi / k)
        a = lift(img, bank64)
        energy = np.abs(a).sum(axis=(0, 1))
        assert int(np.argmax(energy)) == j


def test_rotation_covariance_quarter_turn():
    bank = build_cake_bank(64, 8, 5)
    rng = np.random.default_rng(5)
    f = gaussian_filter(rng.random((64, 64)), 1.5, mode="wrap")
    a = lift(f, bank)
    # rotating the image a quarter turn = rotating each slice and shifting
    # the orientation index by K/2
    rot = lift(np.rot90(f), bank)
    expected = np.roll(np.rot90(a, axes=(0, 1)), shift=bank.n_orient // 2, axis=2)
    err = np.linalg.norm(rot - expected) / np.linalg.norm(expected)
    assert err < 1e-2


def test_reconstruction_on_smooth_image(bank64):
    rng = np.random.default_rng(2)
    f = gaussian_filter(rng.random((64, 64)), 2.0, mode="wrap")
    rec = project(lift(f, bank64))
    assert np.linalg.norm(rec - f) / np.linalg.norm(f) < 1e-2

import math

import numpy as np
import pytest
from scipy.ndimage import gaussian_filter

from srcortex import (
    WaveletBank,
    build_cake_bank,
    lift,
    pou_check,
    project,
)
from srcortex.cakes import retained_mask


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


def test_two_wedges_sum_to_one():
    bank = build_cake_bank(32, 2, 1)
    mask = retained_mask(32)
    total = bank.filters.sum(axis=0)
    assert np.abs(total[mask] - 1.0).max() < 1e-12


def test_all_pass_single_filter_bank_has_zero_residual():
    # degenerate K=1 bank built directly; build_cake_bank requires K >= 2
    filters = np.ones((1, 16, 16), dtype=complex)
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

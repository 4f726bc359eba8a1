import math

import numpy as np
import pytest

from srcortex import ModelConfig, project, renormalize
from srcortex.core import BLOCK, relative_change, steps_of
from srcortex.imgio import read_pgm, to_bytes_image, write_pgm


def test_project_zero_stack():
    assert np.all(project(np.zeros((4, 4, 3))) == 0.0)


def test_project_constant_sums_over_orientations():
    a = np.full((5, 5, 16), 0.25)
    np.testing.assert_allclose(project(a), 16 * 0.25)


def test_project_linear():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((6, 6, 4))
    b = rng.standard_normal((6, 6, 4))
    np.testing.assert_allclose(
        project(2.0 * a + 0.5 * b), 2.0 * project(a) + 0.5 * project(b), rtol=1e-12
    )


def test_relative_change_identical():
    a = np.ones((3, 3, 2))
    assert relative_change(a, a) == 0.0


def test_relative_change_against_zero():
    a = np.full((3, 3, 2), 0.7)
    assert relative_change(a, np.zeros_like(a)) == pytest.approx(1.0)


def test_relative_change_single_bump():
    a = np.ones((4, 4, 2))
    b = a.copy()
    b[0, 0, 0] += 0.1
    # ||a - b|| = 0.1, ||a|| = sqrt(32)
    assert relative_change(a, b) == pytest.approx(0.1 / math.sqrt(32))


def test_relative_change_zero_reference():
    z = np.zeros((2, 2, 2))
    b = np.ones_like(z)
    assert relative_change(z, z) == 0.0
    assert relative_change(z, b) == math.inf


def test_relative_change_across_blocks():
    # two full blocks and part of a third, against the unblocked norms
    rng = np.random.default_rng(4)
    a, b = rng.standard_normal((2, 5 * BLOCK // 2))
    expected = np.linalg.norm(a - b) / np.linalg.norm(a)
    assert relative_change(a, b) == pytest.approx(expected, rel=1e-14)
    tail = np.zeros_like(a)
    tail[-1] = 1.0
    assert relative_change(a, a - tail) == pytest.approx(1.0 / np.linalg.norm(a), rel=1e-14)


def test_relative_change_shape_mismatch():
    with pytest.raises(ValueError):
        relative_change(np.zeros((2, 2, 2)), np.zeros((2, 2, 3)))


def test_renormalize_two_values():
    img = np.array([[2.0, 4.0], [2.0, 4.0]])
    np.testing.assert_allclose(renormalize(img), [[0.0, 1.0], [0.0, 1.0]])


def test_renormalize_identity_on_unit_span():
    img = np.array([[0.0, 0.25], [0.75, 1.0]])
    np.testing.assert_allclose(renormalize(img), img)


def test_renormalize_constant_maps_to_half():
    np.testing.assert_allclose(renormalize(np.full((3, 3), 7.0)), 0.5)


def test_renormalize_idempotent():
    rng = np.random.default_rng(1)
    img = rng.random((8, 8)) * 3.0 - 1.0
    once = renormalize(img)
    np.testing.assert_allclose(renormalize(once), once, atol=1e-15)


def test_config_stability_bound():
    with pytest.raises(ValueError, match="stability"):
        ModelConfig(model="wc", lam=1.0, alpha=2.0, sigma_mu=1.0,
                    dt=0.6, dtau=0.01, tau=0.1)
    ModelConfig(model="wc", lam=1.0, alpha=2.0, sigma_mu=1.0,
                dt=0.5, dtau=0.01, tau=0.1)  # at the boundary: fine


def test_config_tau_multiple_of_dtau():
    with pytest.raises(ValueError, match="multiple"):
        ModelConfig(model="wc", lam=0.0, alpha=2.0, sigma_mu=1.0,
                    dt=0.5, dtau=0.01, tau=0.015)
    assert steps_of(2.5, 0.01) == 250
    assert steps_of(0.0, 0.01) == 0


def test_config_rejects_bad_values():
    good = dict(model="lhe", lam=2.0, alpha=8.0, sigma_mu=1.0,
                dt=0.15, dtau=0.01, tau=0.5)
    ModelConfig(**good)
    for key, bad in [
        ("model", "foo"), ("lam", -1.0), ("alpha", 1.0), ("sigma_mu", 0.0),
        ("dt", 0.0), ("dtau", -0.1), ("tau", -1.0),
    ]:
        with pytest.raises(ValueError):
            ModelConfig(**{**good, key: bad})
    with pytest.raises(ValueError):
        ModelConfig(**good, poly_degree=4)
    with pytest.raises(ValueError):
        ModelConfig(**good, poly_degree=17)


def test_paper_rejects_an_unknown_model():
    with pytest.raises(ValueError, match="model must be 'wc' or 'lhe', got 'nope'"):
        ModelConfig.paper("nope")


def test_beta_for_matches_grid_formula():
    assert ModelConfig.beta_for(200, 16) == pytest.approx(16 / (200**2 * math.sqrt(2)))


def test_pgm_roundtrip(tmp_path):
    img = np.array([[0.0, 0.5, 1.0], [0.25, 0.75, 0.1], [0.9, 0.2, 0.6]])
    path = tmp_path / "img.pgm"
    write_pgm(path, img)
    back = read_pgm(path)
    np.testing.assert_allclose(back, np.floor(img * 255 + 0.5) / 255.0)


def test_quantization_rounds_half_up():
    # 0.5 * 255 = 127.5 -> 128 under round-half-up
    assert to_bytes_image(np.array([[0.5]]))[0, 0] == 128
    assert to_bytes_image(np.array([[0.0]]))[0, 0] == 0
    assert to_bytes_image(np.array([[1.0]]))[0, 0] == 255


def test_pgm_deterministic_bytes(tmp_path):
    rng = np.random.default_rng(3)
    img = rng.random((16, 16))
    p1, p2 = tmp_path / "a.pgm", tmp_path / "b.pgm"
    write_pgm(p1, img)
    write_pgm(p2, img)
    assert p1.read_bytes() == p2.read_bytes()


def test_pgm_truncated_data_names_file(tmp_path):
    path = tmp_path / "short.pgm"
    path.write_bytes(b"P5\n4 4\n255\n" + bytes(10))
    with pytest.raises(ValueError, match=r"short\.pgm: PGM data truncated: 10 of 16"):
        read_pgm(path)


def test_pgm_bad_header_names_file(tmp_path):
    path = tmp_path / "cut.pgm"
    path.write_bytes(b"P5\n4 # width, then nothing\n")
    with pytest.raises(ValueError, match=r"cut\.pgm: PGM header ends after 2 of 4"):
        read_pgm(path)
    path.write_bytes(b"P5\n4 x\n255\n" + bytes(16))
    with pytest.raises(ValueError, match=r"cut\.pgm: PGM header fields .* not integers"):
        read_pgm(path)

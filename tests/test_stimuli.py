import math

import numpy as np
import pytest

from srcortex import StimulusSpec, poggendorff_gratings
from srcortex.imgio import to_bytes_image
from srcortex.stimuli import (
    BACKGROUND,
    CLASSIC,
    GRATINGS,
    SUBGRID,
    _line_coverage,
    poggendorff_classic,
)


def classic_spec(**kw):
    base = dict(n_pixels=200, bar_width=30, grating_period=0.0)
    base.update(kw)
    return StimulusSpec(**base)


class TestSpec:
    def test_invariants(self):
        with pytest.raises(ValueError):
            StimulusSpec(bar_width=0)
        with pytest.raises(ValueError):
            StimulusSpec(bar_width=120)
        with pytest.raises(ValueError):
            StimulusSpec(incidence_angle=0.0)
        with pytest.raises(ValueError):
            StimulusSpec(incidence_angle=math.pi / 2)
        with pytest.raises(ValueError):
            StimulusSpec(bar_gray=1.5)

    def test_paper_figure(self):
        assert StimulusSpec.paper(200) == StimulusSpec()
        classic = StimulusSpec.paper(200, CLASSIC)
        assert classic == classic_spec() and classic.kind == CLASSIC
        with pytest.raises(ValueError, match="unknown stimulus kind 'grating'"):
            StimulusSpec.paper(200, "grating")

    def test_kind_follows_the_period(self):
        assert classic_spec().kind == "classic"
        assert StimulusSpec(grating_period=25).kind == "gratings"
        assert poggendorff_classic(classic_spec()).shape == (200, 200)

    def test_continuation_through_center(self):
        spec = classic_spec()
        assert spec.continuation_row(spec.center) == pytest.approx(spec.center)
        dx = 10.0
        drop = spec.continuation_row(spec.center + dx) - spec.center
        assert drop == pytest.approx(-math.tan(spec.incidence_angle) * dx)


class TestClassic:
    def test_requires_zero_period(self):
        with pytest.raises(ValueError):
            poggendorff_classic(StimulusSpec(grating_period=25))

    def test_deterministic(self):
        a = poggendorff_classic(classic_spec())
        b = poggendorff_classic(classic_spec())
        assert np.array_equal(a, b)

    def test_values_in_unit_interval(self):
        img = poggendorff_classic(classic_spec())
        assert img.min() >= 0.0 and img.max() <= 1.0

    def test_bar_region_uniform_gray(self):
        spec = classic_spec()
        img = poggendorff_classic(spec)
        cols = np.arange(200)
        in_bar = np.abs(cols - spec.center) < spec.bar_width / 2
        assert np.all(img[:, in_bar] == spec.bar_gray)
        assert in_bar.sum() == 30

    def test_right_segment_on_analytic_continuation(self):
        spec = classic_spec()
        img = poggendorff_classic(spec)
        # subpixel darkest row per column must sit on the continuation
        for col in range(int(spec.bar_right) + 3, int(spec.bar_right) + 20):
            column = img[:, col]
            j = int(np.argmin(column))
            num = column[j - 1] - column[j + 1]
            den = column[j - 1] - 2 * column[j] + column[j + 1]
            sub = j + 0.5 * num / den if den > 0 else float(j)
            assert abs(sub - spec.continuation_row(col)) < 0.5

    @pytest.mark.parametrize("generator,period", [
        (poggendorff_classic, 0.0), (poggendorff_gratings, 25.0),
    ])
    def test_mirror_symmetry(self, generator, period):
        spec = classic_spec(grating_period=period)
        mirrored = classic_spec(
            grating_period=period,
            incidence_angle=math.pi - spec.incidence_angle,
        )
        img = to_bytes_image(generator(spec))
        other = to_bytes_image(generator(mirrored))
        diff = np.abs(img.astype(int)[:, ::-1] - other.astype(int))
        assert diff.max() <= 1  # one gray level after quantization


class TestGratings:
    def test_requires_positive_period(self):
        with pytest.raises(ValueError):
            poggendorff_gratings(classic_spec())

    def test_line_count(self):
        spec = StimulusSpec()  # period 25 at N=200
        img = poggendorff_gratings(spec)
        row = img[2, :]
        cols = np.arange(200)
        outside = np.abs(cols - spec.center) >= spec.bar_width / 2
        dark = (row < 0.3) & outside
        # count dark runs
        runs = int(np.sum(dark[1:] & ~dark[:-1]) + dark[0])
        assert 7 <= runs <= 9

    def test_invisible_bar_leaves_lines_continuous(self):
        spec = StimulusSpec(bar_gray=BACKGROUND)
        img = poggendorff_gratings(spec)
        for col in range(90, 110):
            center = spec.continuation_row(col)
            rows = np.arange(int(center) - 3, int(center) + 4)
            assert img[rows, col].min() < 0.3

    def test_values_in_unit_interval(self):
        img = poggendorff_gratings(StimulusSpec())
        assert img.min() >= 0.0 and img.max() <= 1.0

    def test_deterministic(self):
        assert np.array_equal(
            poggendorff_gratings(StimulusSpec()), poggendorff_gratings(StimulusSpec())
        )

    def test_collinear_continuations(self):
        # with the bar hidden every left line continues exactly across
        spec = StimulusSpec(bar_gray=1.0)
        img = poggendorff_gratings(spec)
        visible = poggendorff_gratings(StimulusSpec())
        cols = np.arange(200)
        outside = np.abs(cols - spec.center) >= spec.bar_width / 2
        assert np.array_equal(img[:, outside], visible[:, outside])


def every_subsample_coverage(spec, periodic):
    """Line coverage from all 16 subsample tests at every pixel: ``_line_coverage``'s reference."""
    n, c = spec.n_pixels, spec.center
    cos_a, sin_a = math.cos(spec.incidence_angle), math.sin(spec.incidence_angle)
    wrap = spec.grating_period * sin_a
    half = spec.line_thickness / 2.0
    idx = np.arange(n, dtype=float)
    offsets = (np.arange(SUBGRID) + 0.5) / SUBGRID - 0.5
    inside = np.zeros((n, n), dtype=np.uint16)
    for dr in offsets:
        rowpart = cos_a * (idx + dr - c)
        for dc in offsets:
            colpart = sin_a * (idx + dc - c)
            dist = rowpart[:, None] + colpart[None, :]
            if periodic:
                dist = (dist + wrap / 2.0) % wrap - wrap / 2.0
            inside += np.abs(dist) <= half
    return inside.astype(float) / SUBGRID**2


def assert_reference_coverage(spec):
    periodic = spec.kind == GRATINGS
    got = _line_coverage(spec, periodic)
    assert got.tobytes() == every_subsample_coverage(spec, periodic).tobytes(), spec


class TestEdgeBand:
    """Only pixels near a line edge take the subsample tests; the coverage keeps its bits."""

    @pytest.mark.parametrize("kind", [CLASSIC, GRATINGS])
    @pytest.mark.parametrize("n", [8, 32, 100, 101, 200])
    def test_coverage_is_every_subsample_tested(self, n, kind):
        for alpha in (0.3, math.pi / 3, 1.2, 2.0, 2.8):
            for thickness in (0.5, 1.5, 2.0, 6.0):
                period = 25.0 * n / 200 if kind == GRATINGS else 0.0
                assert_reference_coverage(StimulusSpec(
                    n_pixels=n, bar_width=0.15 * n, incidence_angle=alpha,
                    line_thickness=thickness, grating_period=period,
                ))

    @pytest.mark.parametrize("n", [8, 32, 100, 101, 200])
    def test_overlapping_edge_bands(self, n):
        # 2.6 px between lines: the bands of neighbouring edges overlap
        for thickness in (0.5, 1.5, 2.0):
            assert_reference_coverage(StimulusSpec(
                n_pixels=n, bar_width=0.15 * n, incidence_angle=math.pi / 3,
                line_thickness=thickness, grating_period=3.0,
            ))

    @pytest.mark.parametrize("alpha", [0.3, math.pi / 3, 1.2, 2.0, 2.8])
    def test_edge_through_a_subsample(self, alpha):
        # lines whose edge passes exactly through the subsample of a pixel
        # nearest to them: that pixel's centre lies a full subsample reach
        # out, on the band's outer boundary up to rounding
        n, c = 9, 4.0
        cos_a, sin_a = math.cos(alpha), math.sin(alpha)
        dr = -math.copysign(0.375, cos_a)
        for i in range(n):
            for j in range(n):
                d = cos_a * (i + dr - c) + sin_a * (j - 0.375 - c)
                if d > 0.25:
                    assert_reference_coverage(StimulusSpec(
                        n_pixels=n, bar_width=1.0, incidence_angle=alpha,
                        line_thickness=2.0 * d, grating_period=0.0,
                    ))

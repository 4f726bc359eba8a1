import math

import numpy as np
import pytest

from srcortex import StimulusSpec, poggendorff_gratings
from srcortex.imgio import to_bytes_image
from srcortex.stimuli import BACKGROUND, CLASSIC, poggendorff_classic


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

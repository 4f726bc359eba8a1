"""Procedural Poggendorff test images.

Geometry lives in screen coordinates: axis 0 is the row (increasing
downward), axis 1 the column.  The transversal goes up-screen from left
to right at ``incidence_angle`` radians above the horizontal, passing
through the image center, so its exact continuation on the far side of
the bar is known analytically.  The occluding bar is vertical and
centered.  With a positive ``grating_period`` the single transversal is
replaced by the infinite family of parallels spaced ``grating_period``
apart horizontally, every one of which continues collinearly across the
bar.

Lines are drawn with coverage anti-aliasing (4 x 4 subpixel area
sampling) because staircase edges would leak into spurious orientation
responses downstream.  Generation is deterministic: equal specs give
bitwise-equal images.

Only pixels near a line edge take the 16 subsample tests.  A pixel's
subsamples lie within ``s = 0.375 (|cos alpha| + |sin alpha|)`` of its
centre along the lines' normal, and the (wrapped) distance d to the
nearest line is 1-Lipschitz, so a pixel whose centre has d < half - s
(half the line thickness) lies wholly on a line and one with d > half
+ s wholly off every line.  The band in between, widened by 1e-9
against rounding of about 1e-13, runs the tests through the same
expressions as a test of every pixel would, so every count and the
image are the same bit for bit.  The band holds 9.4% of the pixels of
the N = 200 gratings figure, 18.9% at N = 100 and 1.2% of the classic
figure.
"""

import math
from dataclasses import dataclass

import numpy as np

SUBGRID = 4  # anti-aliasing subsamples per axis
# slack of the edge band (``_line_coverage``) over the distances' rounding, about 1e-13
EDGE_MARGIN = 1e-9
CLASSIC, GRATINGS = "classic", "gratings"
STIMULUS_KINDS = (CLASSIC, GRATINGS)
BACKGROUND = 1.0  # gray of the background
LINE_VALUE = 0.0  # gray of the lines


@dataclass
class StimulusSpec:
    """Geometry of one Poggendorff image and the gray of its bar.

    ``grating_period`` = 0 selects the classic single-transversal figure.
    The defaults are the paper's figure at N = 200; its lines are
    ``LINE_VALUE`` on ``BACKGROUND``.
    """

    n_pixels: int = 200
    bar_width: float = 30.0
    incidence_angle: float = math.pi / 3.0
    line_thickness: float = 2.0
    grating_period: float = 25.0
    bar_gray: float = 0.5

    def __post_init__(self):
        if self.n_pixels < 8:
            raise ValueError("n_pixels must be >= 8")
        if not 0 < self.bar_width < self.n_pixels / 2:
            raise ValueError("bar_width must lie in (0, N/2)")
        if not 0 < self.incidence_angle < math.pi or self.incidence_angle == math.pi / 2:
            raise ValueError("incidence_angle must lie in (0, pi) and not be pi/2")
        if self.line_thickness <= 0:
            raise ValueError("line_thickness must be > 0")
        if self.grating_period < 0:
            raise ValueError("grating_period must be >= 0")
        if not 0.0 <= self.bar_gray <= 1.0:
            raise ValueError("bar_gray must lie in [0, 1]")

    @classmethod
    def paper(cls, n_pixels: int, kind: str = GRATINGS) -> "StimulusSpec":
        """The paper's figure at N pixels: the defaults' lengths times N/200, lines >= 1.5 px."""
        if kind not in STIMULUS_KINDS:
            raise ValueError(f"unknown stimulus kind {kind!r}")
        scale = n_pixels / cls.n_pixels
        return cls(
            n_pixels=n_pixels,
            bar_width=cls.bar_width * scale,
            grating_period=cls.grating_period * scale if kind == GRATINGS else 0.0,
            line_thickness=max(1.5, cls.line_thickness * scale),
        )

    @property
    def kind(self) -> str:
        """``GRATINGS`` for a positive ``grating_period``, else ``CLASSIC``."""
        return GRATINGS if self.grating_period > 0 else CLASSIC

    @property
    def center(self) -> float:
        return (self.n_pixels - 1) / 2.0

    @property
    def bar_left(self) -> float:
        return self.center - self.bar_width / 2.0

    @property
    def bar_right(self) -> float:
        return self.center + self.bar_width / 2.0

    def continuation_row(self, col) -> np.ndarray:
        """Row of the exact central-transversal continuation at a column."""
        return self.center - math.tan(self.incidence_angle) * (
            np.asarray(col, dtype=float) - self.center
        )


def poggendorff_classic(spec: StimulusSpec) -> np.ndarray:
    """Single transversal interrupted by the central bar."""
    if spec.grating_period != 0:
        raise ValueError("classic stimulus requires grating_period == 0")
    coverage = _line_coverage(spec, periodic=False)
    return _compose(spec, coverage)


def poggendorff_gratings(spec: StimulusSpec) -> np.ndarray:
    """Parallel-grating background interrupted by the central bar."""
    if spec.grating_period <= 0:
        raise ValueError("gratings stimulus requires grating_period > 0")
    coverage = _line_coverage(spec, periodic=True)
    return _compose(spec, coverage)


def _line_coverage(spec: StimulusSpec, periodic: bool) -> np.ndarray:
    n = spec.n_pixels
    c = spec.center
    cos_a = math.cos(spec.incidence_angle)
    sin_a = math.sin(spec.incidence_angle)
    # perpendicular spacing between neighbouring grating lines
    wrap = spec.grating_period * sin_a
    half = spec.line_thickness / 2.0

    def distance(rowpart, colpart):
        """Signed distance to the nearest line, from its row and column parts."""
        dist = rowpart + colpart
        if periodic:
            dist = (dist + wrap / 2.0) % wrap - wrap / 2.0
        return dist

    idx = np.arange(n, dtype=float)
    # a subsample lies at most ``reach`` from its pixel centre along the
    # lines' normal; the margin covers the distances' rounding
    reach = (SUBGRID - 1) / (2 * SUBGRID) * (abs(cos_a) + abs(sin_a)) + EDGE_MARGIN
    centre = np.abs(distance(cos_a * (idx - c)[:, None], sin_a * (idx - c)[None, :]))
    inside = np.where(centre < half - reach, SUBGRID**2, 0).astype(np.uint16)
    # only pixels in the band around an edge have subsamples on both sides
    rows, cols = np.nonzero(np.abs(centre - half) <= reach)
    band = np.zeros(len(rows), np.uint16)
    offsets = (np.arange(SUBGRID) + 0.5) / SUBGRID - 0.5
    for dr in offsets:
        rowpart = cos_a * (idx + dr - c)
        for dc in offsets:
            colpart = sin_a * (idx + dc - c)
            band += np.abs(distance(rowpart[rows], colpart[cols])) <= half
    inside[rows, cols] = band
    return inside.astype(float) / SUBGRID**2


def _compose(spec: StimulusSpec, coverage: np.ndarray) -> np.ndarray:
    img = BACKGROUND * (1.0 - coverage) + LINE_VALUE * coverage
    # a background-colored bar is treated as transparent, so collinearity
    # can be inspected with the occluder disabled
    if spec.bar_gray != BACKGROUND:
        cols = np.arange(spec.n_pixels, dtype=float)
        in_bar = np.abs(cols - spec.center) < spec.bar_width / 2.0
        img[:, in_bar] = spec.bar_gray
    return np.clip(img, 0.0, 1.0)

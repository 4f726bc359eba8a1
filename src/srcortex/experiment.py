"""Experiment orchestration: run configs end to end and probe completion.

``run_experiment`` generates or loads the stimulus, builds the wavelet
bank and the heat propagator, runs the model loop, writes the artifacts
(input/output/crop images, per-iteration trace and ``report.json``, the
run's one record) and measures the completion offset.  ``run_sweep``
repeats an experiment over a parameter list in worker processes, one per
value up to four, each on its share of the CPUs; it writes no file
beyond each value's run.

The completion offset is the signed perpendicular displacement, in
pixels at the bar's right edge, of the completed dark path inside the
bar from the exact collinear continuation.  Positive values point
toward the perceptually expected (misaligned) attachment, which for an
up-right transversal lies below the true continuation.  Intensities in
the search band are min-max normalized first, so the probe is invariant
to global affine rescalings of the output; when the normalized contrast
of the path stays below the detection threshold there is no completion
and None is returned.
"""

import dataclasses
import json
import logging
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .cakes import build_cake_bank, check_bank_sizes
from .core import ModelConfig, as_image, cpu_count, renormalize, set_pool_width
from .dynamics import RunResult, fit_polynomial, run_model
from .heat import build_propagator
from .imgio import read_image, write_pgm
from .stimuli import GRATINGS, StimulusSpec, poggendorff_classic, poggendorff_gratings

CONTRAST_THRESHOLD = 0.05  # normalized valley depth below which nothing completed
BAND_HALFWIDTH = 10.0  # rows searched on each side of the continuation
EDGE_MARGIN = 2.0  # columns skipped inside each bar edge
SEED_HALFWIDTH = 3.0  # seed search radius around the center crossing
TRACK_SLACK = 2.0  # rows the tracked valley may move between neighbouring columns
# the ModelConfig fields a sweep may vary
SWEEPABLE = ("tau", "alpha", "lam", "sigma_mu", "dt", "dtau", "tol")

logger = logging.getLogger(__name__)


@dataclass
class ExperimentConfig:
    """One model run: dynamics parameters plus stimulus or input image.

    Exactly one of ``stimulus``/``input_path`` must be set.  A stimulus is
    checked against the bank's sizes and the probe here; a file, once read.
    """

    model_cfg: ModelConfig
    out_dir: str
    stimulus: StimulusSpec | None = None
    input_path: str | None = None
    n_orient: int = 16
    profile_order: int = 5
    sweep_param: str | None = None
    sweep_values: tuple = ()

    def __post_init__(self):
        if (self.stimulus is None) == (self.input_path is None):
            raise ValueError("exactly one of stimulus/input_path must be given")
        size = None if self.stimulus is None else self.stimulus.n_pixels
        check_bank_sizes(size, self.n_orient, self.profile_order)
        if self.stimulus is not None:
            _probe_bands(self.stimulus)
        if self.sweep_param is not None:
            if self.sweep_param not in SWEEPABLE:
                raise ValueError(
                    f"cannot sweep {self.sweep_param!r}; choose one of "
                    f"{', '.join(SWEEPABLE)}"
                )
            if not self.sweep_values:
                raise ValueError("sweep_param given without sweep_values")
            _sweep_configs(self)
        elif self.sweep_values:
            raise ValueError("sweep_values given without sweep_param")


def _sweep_configs(cfg: ExperimentConfig) -> list:
    """Each value's validated single-run config; it writes ``<out_dir>/<param>=<value:g>/``."""
    subcfgs, dirs = [], {}
    for value in cfg.sweep_values:
        name = f"{cfg.sweep_param}={value:g}"
        if name in dirs:
            raise ValueError(
                f"sweep values {dirs[name]!r} and {value!r} share the "
                f"output directory {name!r}"
            )
        dirs[name] = value
        subcfgs.append(dataclasses.replace(
            cfg,
            model_cfg=dataclasses.replace(cfg.model_cfg, **{cfg.sweep_param: value}),
            out_dir=str(Path(cfg.out_dir) / name),
            sweep_param=None,
            sweep_values=(),
        ))
    return subcfgs


def _probe_bands(spec: StimulusSpec) -> list:
    """(column, rows within ``BAND_HALFWIDTH`` of the continuation) per probed column.

    Rejects a spec that leaves fewer than 3 columns to probe, or whose
    continuation leaves some column's band empty.
    """
    cols = range(int(math.ceil(spec.bar_left + EDGE_MARGIN)),
                 int(math.floor(spec.bar_right - EDGE_MARGIN)) + 1)
    if len(cols) < 3:
        raise ValueError(f"offset probe: a {spec.bar_width:g} px bar leaves {len(cols)} "
                         f"probed columns, fewer than 3")
    bands = []
    for col in cols:
        center = float(spec.continuation_row(col))
        rows = np.arange(max(0, math.floor(center - BAND_HALFWIDTH)),
                         min(spec.n_pixels, math.ceil(center + BAND_HALFWIDTH) + 1))
        if rows.size == 0:
            raise ValueError(f"offset probe: at column {col} the continuation row {center:.1f} "
                             f"lies over {BAND_HALFWIDTH:g} rows outside the image")
        bands.append((col, rows))
    return bands


def measure_offset(output, spec: StimulusSpec):
    """Offset of the completed path from the exact continuation, or None.

    Tracks the connected intensity valley across the bar interior: the
    search is seeded at the band minimum of the central column and each
    neighbouring column is searched in a continuity window around the
    previously tracked row (the valley may bend, but not jump), always
    clamped to the band around the analytic continuation.  Tracking
    keeps the probe from locking onto the dark bleed of the stub ends
    near the bar edges, which is not part of the completed path.  A line
    through the tracked (subpixel) minima is then evaluated at the bar's
    right edge.
    """
    img = np.asarray(output, dtype=float)
    bands = _probe_bands(spec)
    cols = np.array([col for col, _ in bands])
    vals = [img[rows, col] for col, rows in bands]

    allvals = np.concatenate(vals)
    vmin, vmax = float(allvals.min()), float(allvals.max())
    if vmax - vmin < 1e-12:
        return None  # flat band: nothing completed
    norms = [(v - vmin) / (vmax - vmin) for v in vals]

    # detection: is there dark content in the band at all?
    depths = [float(np.median(norm) - norm.min()) for norm in norms]
    if float(np.median(depths)) < CONTRAST_THRESHOLD:
        return None

    # The stimulus (and hence the steady state) is symmetric under a half
    # turn about the image center, so the completed path of the central
    # transversal crosses the bar center near zero deviation; the valley
    # is seeded there and tracked outward, each column searched in a
    # continuity window around the previous deviation (the path may bend,
    # not jump).  The window also keeps the track off the fans of
    # oriented rays that each stub end radiates into the bar.
    tracked = np.empty(cols.size)

    def track(idx, prev, halfwidth):  # tracks column idx, returns its deviation
        rows, norm = bands[idx][1], norms[idx]
        center = float(spec.continuation_row(cols[idx]))
        window = np.abs(rows - center - prev) <= halfwidth
        if not np.any(window):
            window = np.ones_like(rows, dtype=bool)
        j = int(np.argmin(np.where(window, norm, np.inf)))
        tracked[idx] = _parabolic_min(rows, norm, j)
        return tracked[idx] - center

    mid = cols.size // 2
    seed_dev = track(mid, 0.0, SEED_HALFWIDTH)
    for outward in (range(mid + 1, cols.size), range(mid - 1, -1, -1)):
        prev = seed_dev
        for idx in outward:
            prev = track(idx, prev, TRACK_SLACK)

    fit = np.polyfit(cols.astype(float), tracked, 1)
    fitted_row = float(np.polyval(fit, spec.bar_right))
    expected_row = float(spec.continuation_row(spec.bar_right))
    # +row displacement at the right edge = the perceptually expected side
    # (below the true continuation for an up-right transversal; the cosine
    # factor flips the sign for down-right ones)
    return float((fitted_row - expected_row) * math.cos(spec.incidence_angle))


def _parabolic_min(rows, vals, j) -> float:
    """Subpixel minimum via a parabola through the argmin and neighbors."""
    if j == 0 or j == len(vals) - 1:
        return float(rows[j])
    denom = vals[j - 1] - 2.0 * vals[j] + vals[j + 1]
    if denom <= 0:
        return float(rows[j])
    shift = 0.5 * (vals[j - 1] - vals[j + 1]) / denom
    return float(rows[j] + np.clip(shift, -0.5, 0.5))


def make_stimulus(spec: StimulusSpec) -> np.ndarray:
    if spec.kind == GRATINGS:
        return poggendorff_gratings(spec)
    return poggendorff_classic(spec)


def run_experiment(cfg: ExperimentConfig) -> dict:
    """Execute one configuration and write its artifacts.

    Returns the report dictionary (also written as report.json).
    Report contents are a pure function of the config, so repeated runs
    produce identical files.
    """
    t0 = time.perf_counter()
    if cfg.stimulus is not None:
        f0 = make_stimulus(cfg.stimulus)
        stimulus_kind = cfg.stimulus.kind
    else:  # a file is checked before anything is built or written
        f0 = as_image(read_image(cfg.input_path))
        check_bank_sizes(f0.shape[0], cfg.n_orient, cfg.profile_order)
        stimulus_kind = "file"
    n = f0.shape[0]
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    mc = cfg.model_cfg
    bank = build_cake_bank(n, cfg.n_orient, cfg.profile_order)
    prop = build_propagator(n, cfg.n_orient, mc.beta_for(n, cfg.n_orient), mc.dtau)
    result = run_model(f0, mc, bank, prop)

    offset = None
    if cfg.stimulus is not None:
        offset = measure_offset(result.image, cfg.stimulus)

    write_pgm(out / "input.pgm", f0)
    write_pgm(out / "output.pgm", renormalize(result.image))
    write_pgm(out / "crop.pgm", renormalize(_central_crop(result.image, cfg)))
    _write_trace(out / "trace.csv", result)
    report = _build_report(cfg, stimulus_kind, bank, prop, result, offset)
    _write_report(out, report)
    elapsed = time.perf_counter() - t0
    logger.info("%s: %d iterations (%d rejected) in %.1fs", cfg.out_dir,
                report["iterations"], report["rejected_steps"], elapsed)
    return report


def _central_crop(img: np.ndarray, cfg: ExperimentConfig) -> np.ndarray:
    n = img.shape[0]
    if cfg.stimulus is not None:
        half = int(cfg.stimulus.bar_width / 2 + 15)
    else:
        half = n // 4
    c = n // 2
    lo, hi = max(0, c - half), min(n, c + half)
    return img[lo:hi, lo:hi]


def _write_trace(path, result: RunResult) -> None:
    columns = {"relative_change": result.rel_history, "energy": result.energies}
    columns = {name: values for name, values in columns.items() if values is not None}
    with open(path, "w") as fh:
        fh.write(",".join(["p", *columns]) + "\n")
        for p, row in enumerate(zip(*columns.values(), strict=True), start=1):
            fh.write(",".join([str(p), *map(repr, row)]) + "\n")


def _build_report(cfg, stimulus_kind, bank, prop, result: RunResult, offset) -> dict:
    """The run's settings, outcome and numerics health, all a pure function of the config.

    ``angular_coupling`` is ``tau beta^2 / dtheta^2``, the kernel's
    angular diffusion over the run's tau (``heat``'s docstring);
    ``state_range`` the final stack's ``[min, max]``, whose width bounds
    the LHE contrasts that the fit must cover on [-1, 1]; and, for a
    stimulus, ``transversal_channel`` the orientation of its transversal,
    ``(alpha + pi/2) mod pi``, in channels of ``dtheta = pi/K``.
    """
    mc = cfg.model_cfg
    dtheta = math.pi / cfg.n_orient
    report = {
        "stimulus": stimulus_kind,
        "n_pixels": prop.n_pixels,
        "n_orient": cfg.n_orient,
        "profile_order": cfg.profile_order,
        **dataclasses.asdict(mc),
        "beta": prop.beta,
        "iterations": result.iterations,
        "rejected_steps": result.rejected_steps,
        "converged": result.converged,
        "final_relative_change": result.rel_history[-1],
        "offset_detected": offset is not None,
        "offset_px": offset,
        "pou_residual": bank.pou_residual,
        "interaction_dtype": result.interaction_dtype,
        "angular_coupling": mc.tau * prop.beta**2 / dtheta**2,
        "state_range": [float(result.stack.min()), float(result.stack.max())],
    }
    if result.energies is not None:  # LHE
        report["energy_initial"] = result.energies[0]
        report["energy_final"] = result.energies[-1]
        report["poly_sup_error"] = fit_polynomial(mc.alpha, mc.poly_degree).sup_error
    if cfg.stimulus is not None:
        report["stimulus_spec"] = dataclasses.asdict(cfg.stimulus)
        transversal = (cfg.stimulus.incidence_angle + math.pi / 2.0) % math.pi
        report["transversal_channel"] = transversal / dtheta
    return report


def _write_report(out: Path, report: dict) -> None:
    with open(out / "report.json", "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")


def run_sweep(cfg: ExperimentConfig) -> list[dict]:
    """Run the configured parameter sweep in worker processes, one per value up to four.

    Each worker's block pool and FFTs get its share of this process's
    CPUs, ``max(1, cpus // workers)`` threads, so that the workers do
    not contend for the cores (three values on two CPUs run one thread
    each).  Returns the reports in ``sweep_values`` order; each value writes its
    run to ``<out_dir>/<param>=<value:g>/`` and the sweep nothing else.
    """
    if cfg.sweep_param is None:
        raise ValueError("config has no sweep specification")
    subcfgs = _sweep_configs(cfg)
    workers = min(len(subcfgs), 4)
    share = max(1, cpu_count() // workers)
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_sweep_worker, subcfgs, [share] * len(subcfgs)))


def _sweep_worker(cfg: ExperimentConfig, width: int) -> dict:
    """One sweep value, in a worker process whose block pool runs on ``width`` threads.

    ``run_experiment`` is looked up in this module's namespace at call
    time, so a wrapper installed there runs in the workers too.
    """
    set_pool_width(width)
    return run_experiment(cfg)

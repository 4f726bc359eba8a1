"""Experiment orchestration: run configs end to end and probe completion.

``run_experiment`` generates or loads the stimulus, builds the wavelet
bank and the heat propagator, runs the model loop, writes the artifacts
(input/output/crop images, per-iteration trace, flat-text and JSON
reports) and measures the completion offset.  ``run_sweep`` repeats an
experiment over a parameter list in parallel worker processes.

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
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .cakes import build_cake_bank
from .core import LHE, ModelConfig, renormalize
from .dynamics import RunResult, run_model
from .heat import build_propagator
from .imgio import read_image, write_pgm
from .stimuli import StimulusSpec, poggendorff_classic, poggendorff_gratings

CONTRAST_THRESHOLD = 0.05
BAND_HALFWIDTH = 10.0
EDGE_MARGIN = 2.0
SEED_HALFWIDTH = 3.0  # seed search radius around the center crossing


@dataclass
class ExperimentConfig:
    """One model run: dynamics parameters plus stimulus or input image.

    Exactly one of ``stimulus``/``input_path`` must be set.
    """

    model_cfg: ModelConfig
    out_dir: str
    stimulus: StimulusSpec | None = None
    input_path: str | None = None
    n_orient: int = 16
    profile_order: int = 5
    band_halfwidth: float = BAND_HALFWIDTH
    sweep_param: str | None = None
    sweep_values: tuple = ()

    def __post_init__(self):
        if (self.stimulus is None) == (self.input_path is None):
            raise ValueError("exactly one of stimulus/input_path must be given")
        if self.n_orient < 2:
            raise ValueError("n_orient must be >= 2")
        if self.profile_order < 1:
            raise ValueError("profile_order must be >= 1")
        if self.sweep_param is not None:
            if not self.sweep_values:
                raise ValueError("sweep_param given without sweep_values")
            dirs = {}
            for v in self.sweep_values:
                dataclasses.replace(self.model_cfg, **{self.sweep_param: v})
                name = _sweep_dir(self.sweep_param, v)
                if name in dirs:
                    raise ValueError(
                        f"sweep values {dirs[name]!r} and {v!r} share the "
                        f"output directory {name!r}"
                    )
                dirs[name] = v


def _sweep_dir(param: str, value) -> str:
    """Output subdirectory of one sweep value."""
    return f"{param}={value:g}"


def measure_offset(
    output,
    spec: StimulusSpec,
    band_halfwidth: float = BAND_HALFWIDTH,
    contrast_threshold: float = CONTRAST_THRESHOLD,
    edge_margin: float = EDGE_MARGIN,
):
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
    n = img.shape[0]
    lo = int(math.ceil(spec.bar_left + edge_margin))
    hi = int(math.floor(spec.bar_right - edge_margin))
    cols = np.arange(lo, hi + 1)
    if cols.size < 3:
        raise ValueError("bar too narrow for the offset probe")

    bands = []
    for col in cols:
        center = spec.continuation_row(col)
        rows = np.arange(
            max(0, int(math.floor(center - band_halfwidth))),
            min(n, int(math.ceil(center + band_halfwidth)) + 1),
        )
        bands.append((rows, img[rows, col]))

    allvals = np.concatenate([v for _, v in bands])
    vmin, vmax = float(allvals.min()), float(allvals.max())
    if vmax - vmin < 1e-12:
        return None  # flat band: nothing completed
    norms = [(rows, (vals - vmin) / (vmax - vmin)) for rows, vals in bands]

    # detection: is there dark content in the band at all?
    depths = [float(np.median(norm) - norm.min()) for _, norm in norms]
    if float(np.median(depths)) < contrast_threshold:
        return None

    # The stimulus (and hence the steady state) is symmetric under a half
    # turn about the image center, so the completed path of the central
    # transversal crosses the bar center near zero deviation; the valley
    # is seeded there and tracked outward, each column searched in a
    # continuity window around the previous deviation (the path may bend,
    # not jump).  The window also keeps the track off the fans of
    # oriented rays that each stub end radiates into the bar.
    slack = 2.0
    mid = cols.size // 2
    order = list(range(mid, cols.size)) + list(range(mid - 1, -1, -1))
    tracked = np.empty(cols.size)
    prev_dev = {}
    for idx in order:
        rows, norm = norms[idx]
        dev = rows - spec.continuation_row(cols[idx])
        prev = prev_dev.get(idx, 0.0 if idx == mid else None)
        window = np.abs(dev - prev) <= (SEED_HALFWIDTH if idx == mid else slack)
        if not np.any(window):
            window = np.ones_like(rows, dtype=bool)
        j = int(np.argmin(np.where(window, norm, np.inf)))
        sub = _parabolic_min(rows, norm, j)
        tracked[idx] = sub
        sub_dev = sub - float(spec.continuation_row(cols[idx]))
        if idx >= mid and idx + 1 < cols.size:
            prev_dev[idx + 1] = sub_dev
        if idx <= mid and idx - 1 >= 0:
            prev_dev[idx - 1] = sub_dev

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
    if spec.grating_period > 0:
        return poggendorff_gratings(spec)
    return poggendorff_classic(spec)


def run_experiment(cfg: ExperimentConfig) -> dict:
    """Execute one configuration and write its artifacts.

    Returns the report dictionary (also written as report.txt/json).
    Report contents are a pure function of the config, so repeated runs
    produce identical files.
    """
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()

    if cfg.stimulus is not None:
        f0 = make_stimulus(cfg.stimulus)
        stimulus_kind = "gratings" if cfg.stimulus.grating_period > 0 else "classic"
    else:
        f0 = read_image(cfg.input_path)
        stimulus_kind = "file"
    n = f0.shape[0]

    mc = cfg.model_cfg
    bank = build_cake_bank(n, cfg.n_orient, cfg.profile_order)
    prop = build_propagator(n, cfg.n_orient, mc.beta_for(n, cfg.n_orient), mc.dtau)
    result = run_model(f0, mc, bank, prop, trace_energy=mc.model == LHE)

    offset = None
    if cfg.stimulus is not None:
        offset = measure_offset(result.image, cfg.stimulus, cfg.band_halfwidth)

    write_pgm(out / "input.pgm", f0)
    write_pgm(out / "output.pgm", renormalize(result.image))
    write_pgm(out / "crop.pgm", renormalize(_central_crop(result.image, cfg)))
    _write_trace(out / "trace.csv", result)
    report = _build_report(cfg, stimulus_kind, n, result, offset)
    _write_report(out, report)
    elapsed = time.perf_counter() - t0
    print(f"[srcortex] {cfg.out_dir}: {report['iterations']} iters in {elapsed:.1f}s")
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
    with open(path, "w") as fh:
        if result.energies is not None:
            fh.write("p,relative_change,energy\n")
            for p, rel in enumerate(result.rel_history, start=1):
                fh.write(f"{p},{rel!r},{result.energies[p]!r}\n")
        else:
            fh.write("p,relative_change\n")
            for p, rel in enumerate(result.rel_history, start=1):
                fh.write(f"{p},{rel!r}\n")


def _build_report(cfg, stimulus_kind, n, result: RunResult, offset) -> dict:
    mc = cfg.model_cfg
    report = {
        "model": mc.model,
        "stimulus": stimulus_kind,
        "n_pixels": n,
        "n_orient": cfg.n_orient,
        "profile_order": cfg.profile_order,
        "lam": mc.lam,
        "alpha": mc.alpha,
        "sigma_mu": mc.sigma_mu,
        "m_scale": mc.m_scale,
        "beta": mc.beta_for(n, cfg.n_orient),
        "dt": mc.dt,
        "dtau": mc.dtau,
        "tau": mc.tau,
        "tol": mc.tol,
        "max_iters": mc.max_iters,
        "poly_degree": mc.poly_degree,
        "forcing": mc.forcing,
        "sigma_sign": mc.sigma_sign,
        "iterations": result.iterations,
        "converged": result.converged,
        "final_relative_change": result.last_change,
        "offset_detected": offset is not None,
        "offset_px": offset,
    }
    if result.energies is not None:
        report["energy_initial"] = result.energies[0]
        report["energy_final"] = result.energies[-1]
    if cfg.stimulus is not None:
        report["stimulus_spec"] = cfg.stimulus.to_text().strip().replace("\n", ";")
    return report


def _format_value(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    return repr(value) if isinstance(value, float) else str(value)


def _write_report(out: Path, report: dict) -> None:
    with open(out / "report.txt", "w") as fh:
        for key, value in report.items():
            fh.write(f"{key}={_format_value(value)}\n")
    with open(out / "report.json", "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")


def run_sweep(cfg: ExperimentConfig, max_workers: int | None = None) -> list[dict]:
    """Run the configured parameter sweep over a pool of worker processes.

    The pool has ``max_workers`` processes, by default one per value up
    to four; ``max_workers=1`` runs the values in turn in this process.

    Each value gets ``<out_dir>/<param>=<value>/``; a summary of the
    offsets lands in ``<out_dir>/sweep_summary.txt``.
    """
    if cfg.sweep_param is None:
        raise ValueError("config has no sweep specification")
    subcfgs = []
    for value in cfg.sweep_values:
        subcfgs.append(
            dataclasses.replace(
                cfg,
                model_cfg=dataclasses.replace(cfg.model_cfg, **{cfg.sweep_param: value}),
                out_dir=str(Path(cfg.out_dir) / _sweep_dir(cfg.sweep_param, value)),
                sweep_param=None,
                sweep_values=(),
            )
        )
    workers = max_workers or min(len(subcfgs), 4)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            reports = list(pool.map(run_experiment, subcfgs))
    else:
        reports = [run_experiment(sub) for sub in subcfgs]

    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "sweep_summary.txt", "w") as fh:
        fh.write(f"param={cfg.sweep_param}\n")
        for value, rep in zip(cfg.sweep_values, reports):
            fh.write(
                f"{cfg.sweep_param}={value:g} offset_px={_format_value(rep['offset_px'])} "
                f"iterations={rep['iterations']} converged={_format_value(rep['converged'])}\n"
            )
    return reports

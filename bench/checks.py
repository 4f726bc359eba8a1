"""Correctness checks of one workload run.

Each check compares the program's output with a computation made apart
from it, or tests a property the method must have.  A check returns
``(name, ok, detail)``.
"""

import hashlib
import json
from pathlib import Path

import numpy as np

from srcortex import heat_evolve, lift, local_mean, model_drift, project

MASS_TOL = 1e-10
RECONSTRUCTION_TOL = 1e-2
# relative slack for roundoff when comparing consecutive energies
ENERGY_SLACK = 1e-9


def heat_semigroup(prop, tau: float, seed: int):
    """Mass conservation and norm contraction on a random stack from the seed."""
    rng = np.random.default_rng(seed)
    a = rng.random((prop.n_pixels, prop.n_pixels, prop.n_orient))
    out = heat_evolve(a, prop, tau)
    mass = abs(float(out.sum()) - float(a.sum())) / float(np.abs(a).sum())
    ratio = float(np.linalg.norm(out) / np.linalg.norm(a))
    return [
        ("heat.mass", mass <= MASS_TOL, f"tau={tau:g} relative mass change {mass:.1e}"),
        ("heat.contraction", ratio <= 1.0 + 1e-12, f"tau={tau:g} norm ratio {ratio:.6f}"),
    ]


def reconstruction(f0, bank):
    rec = project(lift(f0, bank))
    err = float(np.linalg.norm(rec - f0) / np.linalg.norm(f0))
    return ("cakes.reconstruction", err < RECONSTRUCTION_TOL, f"relative error {err:.2e}")


def fixed_point(stack, a0, mu, mc, prop):
    """dt * ||drift(final)|| / ||final|| must be below the stopping tolerance."""
    drift = model_drift(stack, a0, mu, mc, prop)
    res = mc.dt * float(np.linalg.norm(drift) / np.linalg.norm(stack))
    return ("dynamics.fixed_point", res <= mc.tol, f"residual {res:.3e} (tol {mc.tol:g})")


def lifted_inputs(f0, bank, sigma_mu):
    a0 = lift(f0, bank)
    return a0, local_mean(a0, sigma_mu)


def output_image(out_dir, stack):
    """output.pgm equals the round-half-up quantization of the renormalized projection."""
    img = stack.sum(axis=2)
    lo, hi = img.min(), img.max()
    unit = (img - lo) / (hi - lo) if hi > lo else np.full_like(img, 0.5)
    pixels = np.clip(np.floor(unit * 255.0 + 0.5), 0, 255).astype(np.uint8)
    n = img.shape[0]
    expected = f"P5\n{n} {n}\n255\n".encode("ascii") + pixels.tobytes()
    ok = (Path(out_dir) / "output.pgm").read_bytes() == expected
    return ("experiment.output_pgm", ok, "bytes equal" if ok else "bytes differ")


def offset(report):
    off = report["offset_px"]
    return ("experiment.offset", off is not None, f"offset_px={off}")


def energy_rise(out_dir) -> float:
    """Largest rise between consecutive energies of trace.csv, minus roundoff slack.

    Positive means the traced energy went up.  0 for traces without energy.
    """
    lines = (Path(out_dir) / "trace.csv").read_text().split()
    if "energy" not in lines[0]:
        return 0.0
    energies = np.array([float(line.split(",")[2]) for line in lines[1:]])
    rises = np.diff(energies) - ENERGY_SLACK * np.abs(energies[:-1])
    return float(max(rises.max(initial=0.0), 0.0))


def fingerprint(out_dir) -> dict:
    out = Path(out_dir)
    report = json.loads((out / "report.json").read_text())
    return {
        "iterations": report["iterations"],
        "offset_px": report["offset_px"],
        "output_sha256": hashlib.sha256((out / "output.pgm").read_bytes()).hexdigest(),
    }

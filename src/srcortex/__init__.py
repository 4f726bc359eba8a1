"""Orientation-lifted neural-field models of visual completion.

The pipeline: a grayscale image is lifted to a position-orientation stack
with a bank of frequency-wedge (cake) wavelets, neuronal interactions are
mediated by an anisotropic heat kernel on the lifted space, and a
gradient-descent loop drives a Wilson-Cowan (WC) or local histogram
equalization (LHE) activation model to steady state.  Poggendorff-type
test stimuli and a completion-offset probe are included.
"""

from .core import ModelConfig, project, relative_change, renormalize
from .imgio import read_image
from .cakes import WaveletBank, build_cake_bank, lift, pou_check
from .heat import HeatPropagator, build_propagator, heat_evolve, kernel_column
from .dynamics import (
    PolyCoeffs,
    fit_polynomial,
    lhe_energy,
    lhe_interaction,
    local_mean,
    model_drift,
    run_model,
)
from .stimuli import StimulusSpec, poggendorff_classic, poggendorff_gratings
from .experiment import ExperimentConfig, measure_offset, run_experiment, run_sweep

__all__ = [
    "ModelConfig",
    "project",
    "relative_change",
    "renormalize",
    "read_image",
    "WaveletBank",
    "build_cake_bank",
    "lift",
    "pou_check",
    "HeatPropagator",
    "build_propagator",
    "heat_evolve",
    "kernel_column",
    "PolyCoeffs",
    "fit_polynomial",
    "lhe_energy",
    "lhe_interaction",
    "local_mean",
    "model_drift",
    "run_model",
    "StimulusSpec",
    "poggendorff_classic",
    "poggendorff_gratings",
    "ExperimentConfig",
    "measure_offset",
    "run_experiment",
    "run_sweep",
]

__version__ = "0.1.0"

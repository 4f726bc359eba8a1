"""Orientation-lifted neural-field models of visual completion.

The pipeline: a grayscale image is lifted to a position-orientation stack
with a bank of frequency-wedge (cake) wavelets, neuronal interactions are
mediated by an anisotropic heat kernel on the lifted space, and a
gradient-descent loop drives a Wilson-Cowan (WC) or local histogram
equalization (LHE) activation model to steady state.  Poggendorff-type
test stimuli and a completion-offset probe are included.
"""

from .core import ModelConfig, project, renormalize
from .cakes import build_cake_bank, lift, pou_check
from .heat import build_propagator, heat_evolve, kernel_column
from .dynamics import fit_polynomial, local_mean, model_drift
from .stimuli import StimulusSpec, poggendorff_gratings
from .experiment import ExperimentConfig, run_experiment, run_sweep

__all__ = [
    "ModelConfig",
    "project",
    "renormalize",
    "build_cake_bank",
    "lift",
    "pou_check",
    "build_propagator",
    "heat_evolve",
    "kernel_column",
    "fit_polynomial",
    "local_mean",
    "model_drift",
    "StimulusSpec",
    "poggendorff_gratings",
    "ExperimentConfig",
    "run_experiment",
    "run_sweep",
]

__version__ = "0.1.0"

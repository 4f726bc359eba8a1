"""Sweep the kernel width: the completion offset against tau.

Repeats the contrast-model (LHE) run, ``ModelConfig.paper("lhe")`` at
alpha = 6, for tau = 0.1, 0.5 and 2.5, and prints each run's iterations,
convergence and the offset probe's signed displacement of the completed
path from the collinear continuation (positive = toward the perceptually
expected attachment, None = no path detected).  The paper expects
collinear fill-in for narrow kernels and a growing positive displacement
for wide ones; this implementation does not show that.  At N=200 it
measures [None, -1.59, -4.13] px, at --quick (N=100) +0.47, +1.33 and
-1.74 px.  The README's paragraph on criterion 8 and ROADMAP item 5
discuss the gap.  Pass --quick for a half-size run.
"""

import dataclasses
import sys
import time
from pathlib import Path

from srcortex import ExperimentConfig, ModelConfig, StimulusSpec, run_sweep

quick = "--quick" in sys.argv
n = 100 if quick else 200
out = Path(__file__).parent / "out" / f"05_sweep_n{n}"

cfg = ExperimentConfig(
    model_cfg=dataclasses.replace(ModelConfig.paper("lhe"), alpha=6.0, tau=0.1),
    out_dir=str(out),
    stimulus=StimulusSpec.paper(n),
    sweep_param="tau",
    sweep_values=(0.1, 0.5, 2.5),
)
t0 = time.perf_counter()
reports = run_sweep(cfg)
print(f"finished in {time.perf_counter() - t0:.0f}s")
for tau, rep in zip(cfg.sweep_values, reports):
    print(f"tau={tau:>4}: offset = {rep['offset_px']} px, "
          f"iterations = {rep['iterations']}, converged = {rep['converged']}")

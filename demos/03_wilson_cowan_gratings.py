"""Wilson-Cowan completion of the Poggendorff gratings.

Runs the activity-sigmoid model with the gratings figure's parameters,
``ModelConfig.paper("wc")``, and probes the completed path inside the
occluding bar.  Pass --quick for a half-size run, which scales sigma_mu
by N/200 and tau by (N/200)^2.
"""

import dataclasses
import sys
import time
from pathlib import Path

from srcortex import ExperimentConfig, ModelConfig, StimulusSpec, run_experiment

quick = "--quick" in sys.argv
n = 100 if quick else 200
scale = n / 200.0
out = Path(__file__).parent / "out" / f"03_wc_n{n}"

paper = ModelConfig.paper("wc")
cfg = ExperimentConfig(
    model_cfg=dataclasses.replace(
        paper, sigma_mu=paper.sigma_mu * scale, tau=paper.tau * scale**2
    ),
    out_dir=str(out),
    stimulus=StimulusSpec.paper(n),
)
t0 = time.perf_counter()
report = run_experiment(cfg)
print(f"finished in {time.perf_counter() - t0:.0f}s")
print(f"iterations: {report['iterations']} (converged={report['converged']})")
print(f"completion offset: {report['offset_px']} px "
      "(positive = toward the perceptually expected segment)")
print(f"outputs in {out}")

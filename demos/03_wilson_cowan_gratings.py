"""Wilson-Cowan completion of the Poggendorff gratings.

Runs the activity-sigmoid model with the parameters used for the
gratings figure and probes the completed path inside the occluding bar.
Pass --quick for a half-size run.
"""

import sys
import time
from pathlib import Path

from srcortex import ExperimentConfig, ModelConfig, StimulusSpec, run_experiment

quick = "--quick" in sys.argv
n = 100 if quick else 200
scale = n / 200.0
out = Path(__file__).parent / "out" / f"03_wc_n{n}"

cfg = ExperimentConfig(
    model_cfg=ModelConfig(
        model="wc", lam=0.01, alpha=20.0, sigma_mu=6.5 * scale,
        dt=0.1, dtau=0.01, tau=5.0 * scale**2, forcing="discrete-paper",
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

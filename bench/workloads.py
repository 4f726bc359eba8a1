"""The benchmark's workloads: Poggendorff gratings, K=16, bw=5, discrete-paper forcing.

Each workload is a figure the paper's acceptance criteria name, at a size
that keeps one run under a minute on two cores:

- ``wc-gratings-n200``: the WC figure of criterion 7 at paper size.  One
  stack per iteration through the heat layer; set-up is about a fifth of
  the run, so set-up gains show here.
- ``lhe-gratings-n100``: the captioned LHE figure at half size, tau scaled
  by 1/4 as in ``demos/04 --quick``.  Ten evolved powers per iteration plus
  combine and energy; set-up is under 1%.
- ``lhe-tau-sweep-n100``: the tau sweep of criterion 8 at half size,
  through ``run_sweep`` with a process pool, so single-run gains that cost
  the sweep under contention show here.

The stimulus does not depend on the seed: the program is deterministic
and its fingerprint (iterations, offset, output checksum) must repeat
exactly.  The seed drives the random stack of the heat checks.
"""

import dataclasses
import os
import time
from dataclasses import dataclass

from srcortex import (
    ExperimentConfig,
    ModelConfig,
    StimulusSpec,
    build_cake_bank,
    build_propagator,
    poggendorff_gratings,
)

PROFILE_ORDER = 5


@dataclass(frozen=True)
class Workload:
    name: str
    stimulus: StimulusSpec
    model: ModelConfig
    n_orient: int = 16
    sweep_taus: tuple = ()  # non-empty: run through run_sweep over tau

    @property
    def taus(self) -> tuple:
        return self.sweep_taus or (self.model.tau,)

    @property
    def n_pixels(self) -> int:
        return self.stimulus.n_pixels

    def model_for(self, tau: float) -> ModelConfig:
        return dataclasses.replace(self.model, tau=tau)

    def config(self, out_dir: str) -> ExperimentConfig:
        return ExperimentConfig(
            model_cfg=self.model,
            out_dir=out_dir,
            stimulus=self.stimulus,
            n_orient=self.n_orient,
            profile_order=PROFILE_ORDER,
            sweep_param="tau" if self.sweep_taus else None,
            sweep_values=self.sweep_taus,
        )

    def value_dirs(self, out_dir: str) -> list[str]:
        """Output directory of each tau, as run_sweep names them."""
        if not self.sweep_taus:
            return [out_dir]
        return [os.path.join(out_dir, f"tau={tau:g}") for tau in self.sweep_taus]


def _wc(tau):
    return ModelConfig(model="wc", lam=0.01, alpha=20.0, sigma_mu=6.5, dt=0.1,
                       dtau=0.01, tau=tau, forcing="discrete-paper")


def _lhe(alpha, tau):
    return ModelConfig(model="lhe", lam=2.0, alpha=alpha, sigma_mu=1.0, dt=0.15,
                       dtau=0.01, tau=tau, forcing="discrete-paper")


PAPER = StimulusSpec()  # 200 px, 30 px bar, 25 px gratings, 2 px lines
HALF = StimulusSpec(n_pixels=100, bar_width=15, grating_period=12.5, line_thickness=1.5)

WORKLOADS = {
    w.name: w
    for w in (
        Workload("wc-gratings-n200", PAPER, _wc(5.0)),
        Workload("lhe-gratings-n100", HALF, _lhe(8.0, 1.25)),
        Workload("lhe-tau-sweep-n100", HALF, _lhe(6.0, 0.1), sweep_taus=(0.1, 0.5, 2.5)),
    )
}


def tiny(w: Workload, forcing: str = "continuous") -> Workload:
    """The same workload path on a 32 x 32 x 8 grid, for the self-test.

    Under the default continuous forcing the traced LHE energy is the one
    the flow descends, so no operation fails and every check runs.
    """
    return dataclasses.replace(
        w,
        name=f"{w.name}-tiny-{forcing}",
        stimulus=StimulusSpec(n_pixels=32, bar_width=8, grating_period=8, line_thickness=3),
        n_orient=8,
        model=dataclasses.replace(w.model, tau=0.1, forcing=forcing),
        sweep_taus=(0.05, 0.1, 0.2) if w.sweep_taus else (),
    )


def time_setup(w: Workload) -> float:
    """Seconds spent before the first descent iteration, summed over taus.

    Calls the public functions ``run_experiment`` calls before its loop:
    stimulus, wavelet bank, propagator factorization and the first
    assembled m-step propagator.  A sweep pays this once per value.
    """
    total = 0.0
    for tau in w.taus:
        mc = w.model_for(tau)
        start = time.perf_counter()
        poggendorff_gratings(w.stimulus)
        build_cake_bank(w.n_pixels, w.n_orient, PROFILE_ORDER)
        prop = build_propagator(
            w.n_pixels, w.n_orient, mc.beta_for(w.n_pixels, w.n_orient), mc.dtau
        )
        prop.propagator(prop.step_count(tau))
        total += time.perf_counter() - start
        del prop
    return total

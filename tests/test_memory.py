"""What an LHE run keeps: no a0 or mu, a single-precision Anderson history, a bounded peak.

numpy reports its arrays to ``tracemalloc``, so the peak of a run counts
every stack it allocates.  The bound is in float64 stacks of the run's
grid, so it does not depend on the grid's size once a stack exceeds
``BLOCK`` entries (below that, the kept block scratches count as whole
stacks).
"""

import dataclasses
import gc
import tracemalloc
import weakref

import numpy as np

from srcortex import (
    ModelConfig,
    StimulusSpec,
    build_cake_bank,
    build_propagator,
    poggendorff_gratings,
    run_model,
)
from srcortex import dynamics
from srcortex.core import BLOCK
from srcortex.dynamics import _fidelity_constant, _forcing, _interaction


def _lhe_case(n, k, tau=0.5):
    cfg = dataclasses.replace(ModelConfig.paper("lhe"), tau=tau)
    prop = build_propagator(n, k, cfg.beta_for(n, k), cfg.dtau)
    f0 = poggendorff_gratings(StimulusSpec.paper(n))
    return f0, cfg, build_cake_bank(n, k, 5), prop


def test_lhe_evaluation_holds_neither_a0_nor_mu():
    n, k = 16, 4
    cfg = dataclasses.replace(ModelConfig.paper("lhe"), tau=0.1)
    prop = build_propagator(n, k, cfg.beta_for(n, k), cfg.dtau)
    rng = np.random.default_rng(31)
    a0, mu, a = (0.2 + 0.6 * rng.random((n, n, k)) for _ in range(3))
    evaluate = _interaction(cfg, prop, _forcing(cfg, a0, mu), _fidelity_constant(cfg, a0, mu),
                            dynamics.RUN_DTYPE)
    _, energy = evaluate(a)
    refs = weakref.ref(a0), weakref.ref(mu)
    del a0, mu
    gc.collect()
    assert [ref() for ref in refs] == [None, None]
    assert evaluate(a)[1] == energy


def test_lhe_run_releases_a0_and_mu_after_its_first_state(monkeypatch):
    # mu is dropped once the forcing and the fidelity constant are formed;
    # a0, the first state, once the first extrapolation replaces it
    refs, alive = {}, []
    lift, local_mean, energy = dynamics.lift, dynamics.local_mean, dynamics._energy_from_terms

    def kept(name, fn):
        def wrapper(*args):
            out = fn(*args)
            refs[name] = weakref.ref(out)
            return out
        return wrapper

    def watched(*args):
        gc.collect()
        alive.append([name for name, ref in sorted(refs.items()) if ref() is not None])
        return energy(*args)

    monkeypatch.setattr(dynamics, "lift", kept("a0", lift))
    monkeypatch.setattr(dynamics, "local_mean", kept("mu", local_mean))
    monkeypatch.setattr(dynamics, "_energy_from_terms", watched)
    res = run_model(*_lhe_case(32, 8))
    assert res.converged and res.iterations >= 3
    assert alive[0] == ["a0"]
    assert all(names == [] for names in alive[1:])


def test_anderson_history_is_stored_in_run_dtype():
    size = 3 * BLOCK // 2  # one full block and a ragged one
    cfg = ModelConfig.paper("lhe")
    history = dynamics._AndersonHistory(size, cfg)
    for array in (history.df, history.dphi, history.f_prev, history.x_prev):
        assert array.dtype == dynamics.RUN_DTYPE
    rng = np.random.default_rng(32)
    for _ in range(3):
        x = rng.random(size)
        nxt = history.extrapolate(x, x + rng.random(size))
        assert nxt.dtype == np.float64
        assert not any(np.shares_memory(x, kept) for kept in (history.f_prev, history.x_prev))
    assert history.pairs == 2


def test_lhe_run_peak_in_stacks():
    # 64 x 64 x 16 = two blocks.  Measured peaks: 34.2 float64 stacks with
    # float64 rings and an evaluation that kept a0 and mu, 29.9 with
    # float32 rings and neither kept; the bound leaves 1.1 stacks (4%)
    # above the latter and fails the former
    n, k = 64, 16
    case = _lhe_case(n, k)
    f0, cfg, bank, prop = case
    run_model(f0, dataclasses.replace(cfg, max_iters=1), bank, prop)  # builds the propagator
    tracemalloc.start()
    try:
        res = run_model(*case)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.converged and res.iterations > dynamics.ANDERSON_WINDOW
    stacks = peak / (n * n * k * np.dtype(np.float64).itemsize)
    assert stacks <= 31.0, stacks

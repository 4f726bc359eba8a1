"""What a run keeps: one working array per evaluation, no a0 or mu, a
single-precision Anderson history, a bounded peak.

numpy reports its arrays to ``tracemalloc``, so the peak of a run counts
every stack it allocates.  The bounds are in float64 stacks of the run's
grid, so they do not depend on the grid's size once a stack exceeds
``BLOCK`` entries (below that, the kept block scratches count as whole
stacks).
"""

import dataclasses
import gc
import tracemalloc
import weakref

import numpy as np
import pytest

from srcortex import (
    ModelConfig,
    StimulusSpec,
    build_cake_bank,
    build_propagator,
    poggendorff_gratings,
)
from srcortex import core, dynamics
from srcortex.core import BLOCK
from srcortex.dynamics import _interaction, run_model


def _case(model, n, k, tau=0.5):
    cfg = dataclasses.replace(ModelConfig.paper(model), tau=tau)
    prop = build_propagator(n, k, cfg.beta_for(n, k), cfg.dtau)
    f0 = poggendorff_gratings(StimulusSpec.paper(n))
    return f0, cfg, build_cake_bank(n, k, 5), prop


def _lhe_case(n, k, tau=0.5):
    return _case("lhe", n, k, tau)


def _peak_in_stacks(case):
    """Traced peak of ``run_model`` on ``case``, its propagator built, in float64 stacks."""
    f0, cfg, bank, prop = case
    run_model(f0, dataclasses.replace(cfg, max_iters=1), bank, prop)  # builds the propagator
    tracemalloc.start()
    try:
        res = run_model(*case)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return res, peak / (f0.size * prop.n_orient * np.dtype(np.float64).itemsize)


def test_lhe_evaluation_holds_neither_a0_nor_mu():
    n, k = 16, 4
    cfg = dataclasses.replace(ModelConfig.paper("lhe"), tau=0.1)
    prop = build_propagator(n, k, cfg.beta_for(n, k), cfg.dtau)
    rng = np.random.default_rng(31)
    a0, mu, a = (0.2 + 0.6 * rng.random((n, n, k)) for _ in range(3))
    evaluate = _interaction(cfg, prop, a0, mu, dynamics.RUN_DTYPE)
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


def test_anderson_update_allocates_only_its_iterate(monkeypatch):
    # lent a buffer that holds every thread's block scratch (run_model
    # lends the evaluation's idle one), an update allocates only the
    # iterate it returns, and its iterates equal a history's without one
    monkeypatch.setattr(core, "_width", 2)
    size = 3 * BLOCK
    cfg = ModelConfig.paper("lhe")
    spare = np.empty(2 * (dynamics.ANDERSON_WINDOW + 2) * BLOCK)
    lent, own = dynamics._AndersonHistory(size, cfg, spare), dynamics._AndersonHistory(size, cfg)
    rng = np.random.default_rng(34)
    for _ in range(4):
        x = rng.random(size)
        g = x + rng.random(size)
        tracemalloc.start()
        try:
            nxt = lent.extrapolate(x, g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # beyond the iterate, under one float64 block: numpy's casting
        # buffers (about 72 kB), against 1.8 MB for a thread's scratch
        assert peak < nxt.nbytes + BLOCK * np.dtype(np.float64).itemsize, peak - nxt.nbytes
        assert nxt.tobytes() == own.extrapolate(x, g).tobytes()
    assert lent.pairs == 3


@pytest.mark.parametrize("width", [1, 2])
def test_lhe_run_peak_in_stacks(monkeypatch, width):
    # 64 x 64 x 16 = two blocks.  Measured peaks: 34.2 float64 stacks with
    # float64 rings and an evaluation that kept a0 and mu, 29.9 with
    # float32 rings and neither kept, then 26.2 on one thread and 28.9 on
    # two with the helpers' scratch carved from the idle mode-product
    # buffer.  With the powers staged in that buffer and every thread's
    # scratch carved from it, 19.2 and 21.9: there the buffer holds one
    # thread's combine scratch, so on two threads the calling thread
    # keeps its own.  With no full-size H and the energy's sums taken in
    # the combine's scratch, 18.7 and 21.4.  With each pass on as many
    # threads as the buffer holds scratch arrays, the combine and the
    # Anderson update run on the calling thread alone there and allocate
    # no scratch: 18.68 and 18.67.  The bound leaves 3% above the first
    monkeypatch.setattr(core, "_width", width)
    res, stacks = _peak_in_stacks(_lhe_case(64, 16))
    assert res.converged and res.iterations > dynamics.ANDERSON_WINDOW
    assert stacks <= 19.3, stacks


@pytest.mark.parametrize("width", [1, 2])
def test_wc_run_peak_in_stacks(monkeypatch, width):
    # 64 x 64 x 16, tau = 5 as in the WC figure.  Measured peak 6.53-6.54
    # float64 stacks at either width with the sigmoid stack staged in the
    # half-spectrum buffer every batch takes (7.11-7.12 with one stack
    # gathered by generator into a second layout).
    # With the step and the secant update carving their block scratch
    # from that buffer, 6.16 on one thread.  On two the buffer holds one
    # secant block, so that update runs on the calling thread alone, and
    # the peak, 6.54, was the stopping rule's: its calling thread
    # allocated a block for each thread.  With the stopping rule's block
    # carved from that buffer too, 6.17 on one thread and 6.29 on two.
    # The bounds leave 3%
    monkeypatch.setattr(core, "_width", width)
    res, stacks = _peak_in_stacks(_case("wc", 64, 16, tau=5.0))
    assert res.converged and res.rejected_steps >= 1
    assert stacks <= {1: 6.35, 2: 6.48}[width], stacks


@pytest.mark.parametrize("width", [1, 2])
def test_operator_build_holds_no_float64_operator(monkeypatch, width):
    # the float32 operator is gathered from the P canonical ones, cast and
    # flushed, each span of the gather taking its own orientation maps: the
    # build's peak is at most the result and one float64 (P, K, K) array,
    # 8.0 MB at N=200, K=16, below the 15.8 MB of the result and a float64
    # (U, V, K, K) operator.  Multiplying out holds two float64 (P, K, K)
    # arrays; the gather holds the result, the float32 canonical operators
    # and a block of indices per thread.  Measured 7.2 MB at width 1 and
    # 7.6 MB at width 2 (7.8 and 8.1 MB with a whole (U V, K) table of maps)
    monkeypatch.setattr(core, "_width", width)
    n, k = 200, 16
    prop = build_propagator(n, k, ModelConfig.beta_for(n, k), 0.01)
    tracemalloc.start()
    try:
        single = prop.propagator(500)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert single.dtype == np.float32
    bound = single.nbytes + prop.eigvecs.nbytes
    assert peak <= bound < 3 * single.nbytes


@pytest.mark.parametrize("model", ["wc", "lhe"])
def test_a_run_lends_the_step_and_the_stopping_rule_its_buffer(monkeypatch, model):
    # both take their scratch from the evaluation's mode-product buffer,
    # idle between evaluations.  At 64 x 64 x 16 the LHE powers hold one
    # thread's combine scratch, so the evaluation keeps no second array
    buffers, lent = [], []
    make = dynamics.mode_product_buffer

    def kept(*args):
        buffers.append(make(*args))
        return buffers[-1]

    def lending(name, fn):
        def wrapper(*args):
            lent.append((name, args[-1]))
            return fn(*args)
        return wrapper

    monkeypatch.setattr(dynamics, "mode_product_buffer", kept)
    for name in ("gd_step", "relative_change"):
        monkeypatch.setattr(dynamics, name, lending(name, getattr(dynamics, name)))
    f0, cfg, bank, prop = _case(model, 64, 16)
    run_model(f0, dataclasses.replace(cfg, max_iters=3), bank, prop)
    [buffer] = buffers
    assert [name for name, _ in lent] == ["gd_step", "relative_change"] * 3
    assert all(np.shares_memory(spare, buffer) for _, spare in lent)


@pytest.mark.parametrize("width", [1, 2])
@pytest.mark.parametrize("model", ["wc", "lhe"])
def test_an_evaluation_keeps_one_working_array(monkeypatch, model, width):
    # past its calls, the only memory of more than a block an evaluation
    # holds is its mode-product buffer: the stacks it hands the heat layer
    # and every thread's scratch live in that buffer.  80 x 80 x 16 is
    # 3.1 blocks, enough for the buffer to hold two threads' combine scratch
    monkeypatch.setattr(core, "_width", width)
    f0, cfg, bank, prop = _case(model, 80, 16)
    prop.propagator(prop.step_count(cfg.tau))  # cached before tracing
    rng = np.random.default_rng(33)
    states = [0.2 + 0.6 * rng.random((80, 80, 16)) for _ in range(2)]
    buffers = []
    make = dynamics.mode_product_buffer

    def kept(*args):
        buffers.append(make(*args))
        return buffers[-1]

    monkeypatch.setattr(dynamics, "mode_product_buffer", kept)
    forcing = states[0].copy()  # made before tracing, like a run's
    monkeypatch.setattr(dynamics, "_forcing", lambda cfg, a0, mu: forcing)
    tracemalloc.start()
    try:
        evaluate = _interaction(cfg, prop, states[0], states[1], dynamics.RUN_DTYPE)
        for a in states:
            evaluate(a)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    [buffer] = buffers
    assert buffer.nbytes <= held < buffer.nbytes + BLOCK * np.dtype(dynamics.RUN_DTYPE).itemsize

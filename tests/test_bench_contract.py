"""The package names the benchmark uses must keep resolving.

``bench/recorder.py`` gets its per-layer split by replacing names in the
package's module namespaces.  A refactor that renames or removes one of
them breaks ``bench/run_bench.py --trace 1``; these checks catch that in
the test suite.  The recorder is imported, never installed.  The
workloads and checks also call the package untraced: the workload
configs and the set-up timing are run here on the self-test grid.
"""

import importlib.util
import inspect
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from srcortex import ModelConfig, StimulusSpec, build_cake_bank, build_propagator
from srcortex import poggendorff_gratings
from srcortex.dynamics import run_model

BENCH = Path(__file__).resolve().parent.parent / "bench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def recorder():
    return load("recorder")


@pytest.fixture(scope="module")
def workloads():
    return load("workloads")


def test_traced_names_resolve(recorder):
    missing = [f"{module.__name__}.{name}" for module, name, _ in recorder.TRACED
               if not callable(getattr(module, name, None))]
    assert missing == []


def test_untraced_names_resolve(recorder):
    for name in ("run_experiment", "run_model", "ProcessPoolExecutor"):
        assert callable(getattr(recorder.experiment, name, None)), name
    assert callable(getattr(recorder.heat.HeatPropagator, "propagator", None))


def test_evolve_sites_resolve(recorder):
    for module in recorder.EVOLVE_SITES:
        assert callable(getattr(module, "_evolve_batch", None)), module.__name__


def test_wrapped_signatures(recorder):
    # the recorder's own wrappers call these with fixed arguments:
    # _assembly_span as propagator(prop, m), _counted_evolve as
    # _evolve_batch(stacks, prop, m, *rest), reading the batch from stacks.shape[-1]
    params = inspect.signature(recorder.heat.HeatPropagator.propagator).parameters
    assert list(params) == ["self", "m"]
    for module in recorder.EVOLVE_SITES:
        params = list(inspect.signature(module._evolve_batch).parameters)
        assert params[:3] == ["stacks", "prop", "m"], module.__name__
    prop = build_propagator(8, 4, 0.05, 0.01)
    stacks = np.zeros((8, 8, 4, 5), dtype=np.float32)
    assert recorder.heat._evolve_batch(stacks, prop, 3).shape == stacks.shape


def test_counted_evolve_matches_the_unwrapped_call(recorder):
    # the traced run's wrapper, built without installing the recorder
    rec = recorder.Recorder(trace=True)
    evolve = recorder.heat._evolve_batch
    counted = rec._counted_evolve(evolve)
    prop = build_propagator(16, 8, 0.05, 0.01)
    batch = 3
    stacks = np.random.default_rng(0).random((16, 16, 8, batch))
    np.testing.assert_array_equal(
        counted(stacks, prop, 30), evolve(stacks, prop, 30)
    )
    assert rec.counts["evolve_calls"] == 1
    assert rec.counts["stacks_evolved"] == batch


def test_wc_run_reaches_the_traced_names(recorder, monkeypatch):
    # wc_sigmoid_pct and evolve_calls read one sigmoid and one evolution
    # per evaluation, iter_ms the gaps between the relative changes, one
    # per evaluation (a rejected extrapolation's included), and
    # assemble_s the one propagator build; the recorder's own wrappers,
    # patched as install does.  The second run forces a rejection: the
    # third evaluation, the first extrapolated one, reads a relative
    # change above the last accepted one's (the first run rejects its
    # sixth)
    dynamics = recorder.dynamics
    change = dynamics.relative_change
    n, k = 32, 8
    f0 = poggendorff_gratings(StimulusSpec(n_pixels=n, bar_width=8, grating_period=8,
                                           line_thickness=3))
    cfg = ModelConfig(model="wc", lam=0.01, alpha=20.0, sigma_mu=2.0, dt=0.1,
                      dtau=0.01, tau=0.5, max_iters=6)
    bank = build_cake_bank(n, k, 5)
    propagator = recorder.heat.HeatPropagator.propagator

    def traced_run(relative_change):
        rec = recorder.Recorder(trace=True)
        monkeypatch.setattr(recorder.heat.HeatPropagator, "propagator",
                            rec._assembly_span(propagator))
        wrapped = {
            "sigmoid": rec.span("dynamics.wc_sigmoid", dynamics.sigmoid),
            "relative_change": rec.span("dynamics.relative_change", relative_change),
            "_evolve_batch": rec.span("heat.evolve",
                                      rec._counted_evolve(dynamics._evolve_batch)),
        }
        for name, fn in wrapped.items():
            monkeypatch.setattr(dynamics, name, fn)
        res = run_model(f0, cfg, bank, build_propagator(n, k, cfg.beta_for(n, k), cfg.dtau))
        monkeypatch.undo()
        return rec, res

    calls = []

    def forced(g, a):
        calls.append(None)
        return change(g, a) + (1.0 if len(calls) == 3 else 0.0)

    for relative_change, rejected in ((change, 0), (forced, 1)):
        rec, res = traced_run(relative_change)
        names = [span[0] for span in rec.spans]
        assert res.iterations == 6 and res.rejected_steps >= rejected
        assert names.count("heat.assemble") == 1
        for span in ("dynamics.wc_sigmoid", "heat.evolve", "dynamics.relative_change"):
            assert names.count(span) == res.iterations, span
        assert rec.counts["evolve_calls"] == rec.counts["stacks_evolved"] == res.iterations


def test_lhe_run_reaches_the_traced_names(recorder, monkeypatch):
    # iter_ms reads the gaps between the relative changes, one per
    # accepted iteration; evolve_calls one evolution of the powers per
    # evaluation, and combine_pct and energy_pct one combine and one
    # energy per evaluation, the rejected extrapolations' included.  The
    # combine and energy spans are wrapped as the recorder's TRACED
    # table names them
    rec = recorder.Recorder(trace=True)
    dynamics = recorder.dynamics
    traced = {name: span for module, name, span in recorder.TRACED if module is dynamics}
    wrapped = {
        "relative_change": rec.span("dynamics.relative_change", dynamics.relative_change),
        "_evolve_batch": rec.span("heat.evolve", rec._counted_evolve(dynamics._evolve_batch)),
    }
    for name in ("_combine", "_energy_from_terms"):
        wrapped[name] = rec.span(traced[name], getattr(dynamics, name))
    for name, fn in wrapped.items():
        monkeypatch.setattr(dynamics, name, fn)
    n, k = 32, 8
    f0 = poggendorff_gratings(StimulusSpec(n_pixels=n, bar_width=8, grating_period=8,
                                           line_thickness=3))
    cfg = ModelConfig(model="lhe", lam=0.5, alpha=6.0, sigma_mu=2.0, dt=0.15,
                      dtau=0.01, tau=0.5, max_iters=10)
    res = run_model(f0, cfg, build_cake_bank(n, k, 5),
                    build_propagator(n, k, cfg.beta_for(n, k), cfg.dtau))
    names = [span[0] for span in rec.spans]
    assert res.iterations == 10 and res.rejected_steps >= 1
    assert names.count("dynamics.relative_change") == len(res.rel_history)
    assert names.count("heat.evolve") == rec.counts["evolve_calls"] == res.iterations
    assert rec.counts["stacks_evolved"] == res.iterations * cfg.poly_degree
    for span in ("dynamics.combine", "dynamics.energy"):
        assert names.count(span) == res.iterations, span


def test_built_objects_carry_the_recorded_attributes():
    prop = build_propagator(8, 4, 0.05, 0.01)
    for name in ("_prop_cache", "eigvals", "eigvecs", "d2h", "n_orient", "n_pixels"):
        assert hasattr(prop, name), name
    bank = build_cake_bank(8, 4, 3)
    assert hasattr(bank, "filters") and hasattr(bank, "pou_residual")


def test_checks_imports_resolve():
    load("checks")  # raises ImportError if a name it imports is gone


@pytest.mark.parametrize("name", ["wc-gratings-n200", "lhe-gratings-n100", "lhe-tau-sweep-n100"])
def test_workload_setup_runs(workloads, name, tmp_path):
    small = workloads.tiny(workloads.WORKLOADS[name])
    small.config(str(tmp_path))
    assert workloads.time_setup(small) > 0.0


def test_workload_models_are_the_figures(workloads):
    # the workloads write the figures' parameters out; each must be
    # ModelConfig.paper's set plus only what the workload varies
    paper = ModelConfig.paper
    expected = {
        "wc-gratings-n200": paper("wc"),
        "lhe-gratings-n100": replace(paper("lhe"), tau=1.25),
        "lhe-tau-sweep-n100": replace(paper("lhe"), alpha=6.0, tau=0.1),
    }
    assert {name: w.model for name, w in workloads.WORKLOADS.items()} == expected

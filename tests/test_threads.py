"""The block pool: equal results at any width, a fresh pool in forked workers, FFTs on the width.

Widths are forced by setting ``core._width``.  The run grid, 72 x 72 x
16, is 2.53 blocks, so the threads get uneven shares and the last block
is ragged.  The recorder's span stack is not thread-safe, so the names
it wraps must be entered from the calling thread only.
"""

import dataclasses
import hashlib
import importlib.util
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import srcortex.experiment as experiment
from srcortex import ExperimentConfig, ModelConfig, StimulusSpec, build_propagator, cakes, core
from srcortex import dynamics, heat, poggendorff_gratings, run_experiment

ROOT = Path(__file__).resolve().parent.parent
WIDTHS = (1, 2, 3)
FFT_MODULES = (heat, cakes, dynamics)  # the modules that call scipy.fft


def _config(model, out_dir):
    mc = ModelConfig.paper(model)
    if model == "lhe":
        mc = dataclasses.replace(mc, tau=1.25)  # the LHE workload's quarter of the paper's
    return ExperimentConfig(model_cfg=mc, out_dir=str(out_dir),
                            stimulus=StimulusSpec.paper(72), n_orient=16)


def _runs(monkeypatch, tmp_path, model):
    """report.json, output.pgm and the final stack of run_experiment at each width."""
    results = []
    run_model = experiment.run_model

    def kept(*args):
        results.append(run_model(*args))
        return results[-1]

    monkeypatch.setattr(experiment, "run_model", kept)
    outputs = []
    for width in WIDTHS:
        monkeypatch.setattr(core, "_width", width)
        cfg = _config(model, tmp_path / f"w{width}")
        run_experiment(cfg)
        out = Path(cfg.out_dir)
        outputs.append([(out / "report.json").read_bytes(), (out / "output.pgm").read_bytes(),
                        results[-1].stack.tobytes()])
    return outputs


class TestPool:
    def test_parts_come_back_in_order(self, monkeypatch):
        monkeypatch.setattr(core, "_width", 3)
        assert core.run_parts(lambda part, _: part * part, 7) == [p * p for p in range(7)]

    def test_width_threads_run_at_once(self, monkeypatch):
        # each part waits until all three threads hold one
        monkeypatch.setattr(core, "_width", 3)
        barrier = threading.Barrier(3, timeout=30)

        def part(_, thread):
            barrier.wait()
            return thread

        assert sorted(core.run_parts(part, 3)) == [0, 1, 2]

    def test_every_part_is_claimed_once_under_contention(self, monkeypatch):
        # more threads than cores and a short switch interval; a part
        # claimed twice or lost shows in the per-thread records
        monkeypatch.setattr(core, "_width", 8)
        done = [[] for _ in range(8)]

        def part(p, thread):
            time.sleep(0)  # let the other threads claim
            done[thread].append(p)
            return p

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            results = core.run_parts(part, 5000)
        finally:
            sys.setswitchinterval(interval)
        assert results == list(range(5000))
        assert sorted(p for parts in done for p in parts) == list(range(5000))
        assert sum(1 for parts in done if parts) > 1

    def test_callers_on_several_threads_share_the_helpers(self, monkeypatch):
        monkeypatch.setattr(core, "_width", 3)
        monkeypatch.setattr(core, "_helpers", None)  # made by the racing callers
        results = {}

        def caller(c):
            results[c] = core.run_parts(lambda part, _: (time.sleep(0), c * part)[1], 300)

        callers = [threading.Thread(target=caller, args=(c,)) for c in range(4)]
        for t in callers:
            t.start()
        for t in callers:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in callers)
        assert results == {c: [c * part for part in range(300)] for c in range(4)}

    def test_helpers_take_the_callers_error_state(self, monkeypatch):
        monkeypatch.setattr(core, "_width", 2)
        barrier = threading.Barrier(2, timeout=30)

        def part(_, thread):
            barrier.wait()
            return np.geterr()["invalid"]

        with np.errstate(invalid="raise"):
            assert core.run_parts(part, 2) == ["raise", "raise"]

    def test_a_part_error_is_raised_after_every_part_ran(self, monkeypatch):
        monkeypatch.setattr(core, "_width", 2)
        done = []

        def part(p, _):
            if p == 1:
                raise ValueError("part 1")
            done.append(p)

        with pytest.raises(ValueError, match="part 1"):
            core.run_parts(part, 5)
        assert sorted(done) == [0, 2, 3, 4]

    @pytest.mark.parametrize("count, entries", [(351, 256), (1, 10), (200, 200), (7, 1)])
    @pytest.mark.parametrize("threads", WIDTHS)
    def test_split_covers_the_range_in_equal_shares(self, count, entries, threads):
        spans = core.split(count, entries, threads)
        assert [start for start, _ in spans[1:]] == [stop for _, stop in spans[:-1]]
        assert spans[0][0] == 0 and spans[-1][1] == count
        assert len(spans) % threads == 0 or len(spans) == count
        sizes = [stop - start for start, stop in spans]
        assert max(sizes) - min(sizes) <= 1


@pytest.mark.parametrize("model", ["wc", "lhe"])
def test_runs_are_equal_byte_for_byte_at_any_width(monkeypatch, tmp_path, model):
    n, k = 72, 16
    assert 2 * core.BLOCK < n * n * k < 3 * core.BLOCK
    first, *others = _runs(monkeypatch, tmp_path, model)
    for width, outputs in zip(WIDTHS[1:], others):
        assert outputs == first, width


@pytest.mark.parametrize("n, k", [(100, 16), (64, 15), (8, 4)])
def test_setup_is_equal_byte_for_byte_at_any_width(monkeypatch, n, k):
    def digest(width):
        monkeypatch.setattr(core, "_width", width)
        prop = build_propagator(n, k, ModelConfig.beta_for(n, k), 0.01)
        m = prop.step_count(1.25)
        arrays = (prop.eigvals, prop.eigvecs, prop.float64_propagator(m), prop.propagator(m),
                  poggendorff_gratings(StimulusSpec.paper(n)))
        return [hashlib.sha256(np.ascontiguousarray(a)).hexdigest() for a in arrays]

    first = digest(WIDTHS[0])
    for width in WIDTHS[1:]:
        assert digest(width) == first, width


def test_stacks_staged_in_the_buffer_evaluate_as_fresh_arrays(monkeypatch):
    # an evaluation stages the stacks it hands the heat layer in its
    # mode-product buffer, where the mode product overwrites them, one
    # stack (WC, LHE at degree 1) as a batch.  The idle buffer then lends
    # every thread its scratch.  Over several calls at every width the
    # results equal those of evaluations on fresh arrays, on even and odd N
    k = 16
    evolve = dynamics._evolve_batch
    for n in (72, 71):
        rng = np.random.default_rng(41)
        states = [0.2 + 0.6 * rng.random((n, n, k)) for _ in range(3)]
        for model, degree in (("wc", 9), ("lhe", 9), ("lhe", 1)):
            cfg = dataclasses.replace(ModelConfig.paper(model), tau=0.1, poly_degree=degree)
            prop = build_propagator(n, k, cfg.beta_for(n, k), cfg.dtau)

            def evaluation():
                return dynamics._interaction(cfg, prop, states[0], 0.0, dynamics.RUN_DTYPE)

            with monkeypatch.context() as fresh:
                fresh.setattr(dynamics, "staged_stacks",
                              lambda product: np.zeros((product.shape[-1], n, n, k),
                                                       dynamics.RUN_DTYPE))
                expected = [evaluation()(a) for a in states]
            inside = []

            def watched(stacks, prop, m, product):
                inside.append(np.shares_memory(stacks, product))
                return evolve(stacks, prop, m, product)

            monkeypatch.setattr(dynamics, "_evolve_batch", watched)
            for width in WIDTHS:
                monkeypatch.setattr(core, "_width", width)
                evaluate = evaluation()
                for a, (term, energy) in zip(states, expected):
                    got_term, got_energy = evaluate(a)
                    case = (n, model, degree, width)
                    assert got_term.tobytes() == term.tobytes(), case
                    assert got_energy == energy, case
            assert inside and all(inside)
            monkeypatch.undo()


def _record_fft_workers(monkeypatch) -> list:
    """Wrap the scipy.fft names bound in ``FFT_MODULES``; each call appends (module, workers)."""
    calls = []
    for module in FFT_MODULES:
        for name, fn in list(vars(module).items()):
            if getattr(fn, "__module__", "").startswith("scipy.fft"):
                def wrapper(*args, _fn=fn, _module=module.__name__, **kwargs):
                    calls.append((_module, kwargs.get("workers")))
                    return _fn(*args, **kwargs)
                monkeypatch.setattr(module, name, wrapper)
    return calls


@pytest.mark.parametrize("width", (1, 2))
def test_every_fft_runs_on_the_pool_width(monkeypatch, width):
    # scipy reads workers=-1 as os.cpu_count(), not the CPUs this process
    # may use nor a sweep worker's share, and no argument as one thread
    calls = _record_fft_workers(monkeypatch)
    monkeypatch.setattr(core, "_width", width)
    n, k = 32, 8
    bank = cakes.build_cake_bank(n, k, 3)
    a = cakes.lift(np.random.default_rng(3).random((n, n)), bank)
    dynamics.local_mean(a, 6.5)
    for model in ("wc", "lhe"):
        cfg = dataclasses.replace(ModelConfig.paper(model), tau=0.1)
        prop = build_propagator(n, k, cfg.beta_for(n, k), cfg.dtau)
        dynamics._interaction(cfg, prop, a, 0.0, dynamics.RUN_DTYPE)(a)
    assert {module for module, _ in calls} == {module.__name__ for module in FFT_MODULES}
    assert {workers for _, workers in calls} == {core.pool_width()}


def test_traced_names_are_entered_from_the_main_thread_only(monkeypatch, tmp_path):
    spec = importlib.util.spec_from_file_location("bench_recorder", ROOT / "bench" / "recorder.py")
    recorder = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(recorder)
    names = [(module, name) for module, name, _ in recorder.TRACED]
    names += [(module, "_evolve_batch") for module in recorder.EVOLVE_SITES]
    names.append((heat.HeatPropagator, "propagator"))
    entered = {}

    def watched(label, fn):
        def wrapper(*args, **kwargs):
            entered.setdefault(label, set()).add(threading.current_thread() is
                                                 threading.main_thread())
            return fn(*args, **kwargs)
        return wrapper

    for owner, name in names:
        label = f"{getattr(owner, '__name__', owner)}.{name}"
        monkeypatch.setattr(owner, name, watched(label, getattr(owner, name)))
    monkeypatch.setattr(core, "_width", 2)
    for model in ("lhe", "wc"):
        run_experiment(_config(model, tmp_path / model))
    assert "srcortex.dynamics._combine" in entered and "HeatPropagator.propagator" in entered
    assert {label: threads for label, threads in entered.items() if threads != {True}} == {}


FORK_PROBE = """
import json, sys, threading
import srcortex.experiment as experiment
from srcortex import ExperimentConfig, ModelConfig, StimulusSpec, cakes, core, dynamics, heat

core.set_pool_width(2)
core.run_parts(lambda part, thread: thread, 4)  # starts the parent's helper threads
experiment.cpu_count = lambda: 4  # two sweep values: each worker's share is two
run_experiment = experiment.run_experiment
fft_workers = set()  # the workers argument of every scipy.fft call in this process

def recording(fn):
    def wrapper(*args, **kwargs):
        fft_workers.add(kwargs.get("workers"))
        return fn(*args, **kwargs)
    return wrapper

for module in (heat, cakes, dynamics):
    for name, fn in list(vars(module).items()):
        if getattr(fn, "__module__", "").startswith("scipy.fft"):
            setattr(module, name, recording(fn))

def reporting(cfg):
    fft_workers.clear()
    report = run_experiment(cfg)
    barrier = threading.Barrier(2, timeout=60)  # both of the worker's threads at once

    def part(_, thread):
        barrier.wait()
        return thread

    report["threads"] = sorted(core.run_parts(part, 2))
    report["width"] = core.pool_width()
    report["fft_workers"] = sorted(fft_workers, key=str)
    return report

experiment.run_experiment = reporting
spec = StimulusSpec(n_pixels=32, bar_width=8, grating_period=8, line_thickness=3)
cfg = ExperimentConfig(model_cfg=ModelConfig.paper("lhe"), out_dir=sys.argv[1], stimulus=spec,
                       n_orient=8, sweep_param="tau", sweep_values=(0.05, 0.1))
reports = experiment.run_sweep(cfg)
print(json.dumps([[r["width"], r["threads"], r["fft_workers"]] for r in reports]))
"""


@pytest.mark.skipif(sys.platform != "linux", reason="sweep workers are forked on Linux")
def test_forked_sweep_workers_make_their_own_pool(tmp_path):
    # the parent's helper threads are not inherited; a worker that used
    # the inherited executor would wait for them forever.  Each worker's
    # FFTs run on its share of the CPUs too
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH"))
                                        if p)
    proc = subprocess.Popen([sys.executable, "-c", FORK_PROBE, str(tmp_path / "sweep")],
                            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=120)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the workers too
        proc.communicate()
        pytest.fail("the sweep did not finish")
    assert proc.returncode == 0, err
    assert out.strip() == "[[2, [0, 1], [2]], [2, [0, 1], [2]]]"

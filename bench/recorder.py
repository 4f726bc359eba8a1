"""Records each run_experiment call, with optional spans around every layer.

``src/`` is not edited.  The recorder replaces, for the duration of a
measurement, the names each layer is reached through in the package's
module namespaces (``srcortex.heat.rfft2``, ``srcortex.dynamics._combine``,
...) with wrappers, and restores them afterwards.

Untraced, three names are wrapped: ``experiment.run_experiment``, to
time the call and save its record next to the run's artifacts,
``experiment.run_model``, to keep the final stack for the correctness
checks, and ``experiment.ProcessPoolExecutor``, to give sweep workers a
recorder.  Traced, every call in ``TRACED`` also records a span: name,
start, end and the index of the enclosing span.

Records are saved as files in the run's output directory
(``bench_record.json`` and ``final_stack.npy``) because ``run_sweep``
calls ``run_experiment`` in worker processes; forked workers inherit the
wrappers, spawned ones install them through the pool initializer.
"""

import contextlib
import functools
import json
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

import srcortex.dynamics as dynamics
import srcortex.experiment as experiment
import srcortex.heat as heat

RECORD_FILE = "bench_record.json"
STACK_FILE = "final_stack.npy"

# (module, name, span): every name through which a layer is called
TRACED = (
    (experiment, "make_stimulus", "stimuli.generate"),
    (experiment, "build_cake_bank", "cakes.build"),
    (experiment, "build_propagator", "heat.factor"),
    (experiment, "measure_offset", "experiment.probe"),
    (experiment, "write_pgm", "experiment.write"),
    (experiment, "_write_trace", "experiment.write"),
    (experiment, "_write_report", "experiment.write"),
    (dynamics, "lift", "cakes.lift"),
    (dynamics, "local_mean", "dynamics.local_mean"),
    (dynamics, "_evolved_powers", "dynamics.powers"),
    (dynamics, "_combine", "dynamics.combine"),
    (dynamics, "_energy_from_terms", "dynamics.energy"),
    (dynamics, "lhe_energy", "dynamics.energy"),
    (dynamics, "sigmoid", "dynamics.wc_sigmoid"),
    (dynamics, "gd_step", "dynamics.gd_step"),
    (dynamics, "relative_change", "dynamics.relative_change"),
    (dynamics, "project", "core.project"),
    (heat, "rfft2", "heat.rfft2"),
    (heat, "irfft2", "heat.irfft2"),
)
# _evolve_batch is reached from heat_evolve (WC) and _evolved_powers (LHE)
EVOLVE_SITES = (heat, dynamics)

_active = None  # the Recorder installed in this process, if any


class Recorder:
    """Wraps the layer entry points and turns each run into a record."""

    def __init__(self, trace: bool):
        self.trace = trace
        self._patched = []
        self._reset()

    def _reset(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self._open = []
        self.counts = {"evolve_calls": 0, "stacks_evolved": 0, "modeprod_flops": 0}
        self.result = self.bank = self.prop = None

    # -- installation -------------------------------------------------

    def install(self):
        self._patch(experiment, "run_experiment", self._recorded(experiment.run_experiment))
        self._patch(experiment, "run_model", self._keep("result", experiment.run_model))
        self._patch(
            experiment,
            "ProcessPoolExecutor",
            functools.partial(ProcessPoolExecutor, initializer=ensure_installed,
                              initargs=(self.trace,)),
        )
        if self.trace:
            for module, name, span in TRACED:
                self._patch(module, name, self.span(span, getattr(module, name)))
            for module in EVOLVE_SITES:
                fn = self._counted_evolve(module._evolve_batch)
                self._patch(module, "_evolve_batch", self.span("heat.evolve", fn))
            self._patch(experiment, "build_cake_bank",
                        self._keep("bank", experiment.build_cake_bank))
            self._patch(experiment, "build_propagator",
                        self._keep("prop", experiment.build_propagator))
            self._patch(heat.HeatPropagator, "propagator",
                        self._assembly_span(heat.HeatPropagator.propagator))

    def uninstall(self):
        while self._patched:
            owner, name, original = self._patched.pop()
            setattr(owner, name, original)

    def _patch(self, owner, name, replacement):
        self._patched.append((owner, name, getattr(owner, name)))
        setattr(owner, name, replacement)

    # -- wrappers -----------------------------------------------------

    def span(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append([name, time.perf_counter(), 0.0,
                               self._open[-1] if self._open else -1])
            self._open.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                self._open.pop()
                self.spans[idx][2] = time.perf_counter()

        return wrapper

    def _counted_evolve(self, fn):
        @functools.wraps(fn)
        def counted(stacks, prop, m, *rest):
            k, batch = prop.n_orient, stacks.shape[-1]
            modes = prop.n_pixels * (prop.n_pixels // 2 + 1)
            self.counts["evolve_calls"] += 1
            self.counts["stacks_evolved"] += batch
            # two real (K x K) @ (K x B) products per half-spectrum mode
            self.counts["modeprod_flops"] += 2 * 2 * k * k * batch * modes
            return fn(stacks, prop, m, *rest)

        return counted

    def _assembly_span(self, fn):
        assemble = self.span("heat.assemble", fn)

        @functools.wraps(fn)
        def propagator(prop, m):
            if m in prop._prop_cache:
                return fn(prop, m)
            return assemble(prop, m)

        return propagator

    def _keep(self, attr, fn):
        @functools.wraps(fn)
        def keep(*args, **kwargs):
            out = fn(*args, **kwargs)
            setattr(self, attr, out)
            return out

        return keep

    def _recorded(self, fn):
        run = self.span("experiment.run", fn)

        @functools.wraps(fn)
        def run_experiment(cfg):
            self._reset()
            start = time.perf_counter()
            report = run(cfg)
            wall = time.perf_counter() - start
            save_record(cfg.out_dir, self._record(wall), self.result.stack)
            self._reset()
            return report

        return run_experiment

    def _record(self, wall: float) -> dict:
        record = {"wall_s": wall, "spans": self.spans, "counts": self.counts}
        if self.bank is not None:
            record["bank_bytes"] = self.bank.filters.nbytes
            record["pou_residual"] = self.bank.pou_residual
        if self.prop is not None:
            p = self.prop
            cached = sum(a.nbytes for a in p._prop_cache.values())
            record["propagator_bytes"] = (
                p.eigvals.nbytes + p.eigvecs.nbytes + p.d2h.nbytes + cached
            )
        return record


def ensure_installed(trace: bool) -> None:
    """Install a recorder in this process unless one is already active.

    Used as the pool initializer: forked workers inherit the parent's
    recorder, spawned workers start from a fresh import and need one.
    """
    global _active
    if _active is None:
        _active = Recorder(trace)
        _active.install()


@contextlib.contextmanager
def recording(trace: bool):
    """A recorder installed for the enclosed runs."""
    global _active
    if _active is not None:
        raise RuntimeError("a recorder is already installed")
    _active = Recorder(trace)
    _active.install()
    try:
        yield _active
    finally:
        _active.uninstall()
        _active = None


def save_record(out_dir, record: dict, stack) -> None:
    out = Path(out_dir)
    np.save(out / STACK_FILE, stack)
    (out / RECORD_FILE).write_text(json.dumps(record))


def load_record(out_dir) -> tuple[dict, np.ndarray]:
    out = Path(out_dir)
    return json.loads((out / RECORD_FILE).read_text()), np.load(out / STACK_FILE)

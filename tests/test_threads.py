"""The block pool: equal results at any width, a fresh pool in forked workers, FFTs on the width.

A pass that needs scratch runs on as many threads as its lent buffer
holds scratch arrays (``core.run_blocks``).

Widths are forced by setting ``core._width``.  The run grid, 72 x 72 x
16, is 2.53 blocks, so the threads get uneven shares and the last block
is ragged.  The recorder's span stack is not thread-safe, so the names
it wraps must be entered from the calling thread only.
"""

import dataclasses
import hashlib
import importlib.util
import math
import os
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
import types
from pathlib import Path

import numpy as np
import pytest

import srcortex.experiment as experiment
from srcortex import ExperimentConfig, ModelConfig, StimulusSpec, build_propagator, cakes, core
from srcortex import dynamics, heat, poggendorff_gratings, run_experiment

ROOT = Path(__file__).resolve().parent.parent
WIDTHS = (1, 2, 3)
FFT_MODULES = (heat, cakes, dynamics)  # the modules that call heat's FFTs


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


def _address(array) -> int:
    return array.__array_interface__["data"][0]


class TestThreadScratch:
    """One scratch array per thread, carved from the lent buffer: as many as it holds.

    The arrays are float32 and the buffer float64, as a float32
    evaluation lends float64 passes its memory.  Every buffer has a few
    bytes to spare, short of another array.
    """

    SHAPE, DTYPE = (3, 50), np.float32

    @pytest.mark.parametrize("width", WIDTHS)
    def test_arrays_are_the_buffers_memory_in_thread_order(self, monkeypatch, width):
        monkeypatch.setattr(core, "_width", width)
        nbytes = math.prod(self.SHAPE) * np.dtype(self.DTYPE).itemsize
        for held in sorted({0, 1, width - 1, width}):
            buffer = np.empty((held * nbytes + nbytes // 2) // 8)
            scratch = core._thread_scratch(buffer, 10, self.SHAPE, self.DTYPE)
            assert len(scratch) == max(held, 1), (width, held)
            for array in scratch:
                assert array.shape == self.SHAPE and array.dtype == self.DTYPE
                assert array.flags.c_contiguous
            if held == 0:
                assert not np.shares_memory(scratch[0], buffer)
            else:
                assert [_address(x) - _address(buffer) for x in scratch] == [
                    thread * nbytes for thread in range(held)]

    @pytest.mark.parametrize("width", WIDTHS)
    def test_no_more_arrays_than_threads(self, monkeypatch, width):
        # a buffer that holds more arrays than the pass has threads: the
        # width, or fewer parts
        monkeypatch.setattr(core, "_width", width)
        buffer = np.empty(4 * math.prod(self.SHAPE))  # eight float32 arrays
        assert len(core._thread_scratch(buffer, 10, self.SHAPE, self.DTYPE)) == width
        assert len(core._thread_scratch(buffer, 1, self.SHAPE, self.DTYPE)) == 1

    def test_no_buffer_gives_one_fresh_array(self, monkeypatch):
        monkeypatch.setattr(core, "_width", 3)
        [array] = core._thread_scratch(None, 10, self.SHAPE, self.DTYPE)
        assert array.shape == self.SHAPE and array.dtype == self.DTYPE

    @pytest.mark.parametrize("width", WIDTHS)
    def test_run_blocks_hands_each_block_a_threads_array(self, monkeypatch, width):
        # three blocks, the last ragged, and a buffer of two arrays of 3 rows
        monkeypatch.setattr(core, "_width", width)
        size, block = 5 * core.BLOCK // 2, core.BLOCK
        buffer = np.empty(2 * 3 * block)
        seen = core.run_blocks(lambda b, scratch: (b, scratch), size, buffer, 3)
        assert [b for b, _ in seen] == [slice(i * block, (i + 1) * block) for i in range(3)]
        starts = {_address(scratch) - _address(buffer) for _, scratch in seen}
        assert starts <= {thread * 3 * block * 8 for thread in range(min(width, 2))}
        assert all(scratch.shape == (3, block) for _, scratch in seen)
        assert core.run_blocks(lambda b, scratch: scratch, size) == [None] * 3


def _traced(call):
    """``call()`` and the traced peak of its allocations."""
    tracemalloc.start()
    try:
        out = call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, peak


class TestOneArrayBuffer:
    """Lent a buffer that holds one thread's scratch, a pass at width 3 runs on it alone.

    It gives the bytes of a run at width 1 and allocates, beyond what it
    returns, less than that one scratch array: numpy's casting buffers
    and small arrays.  Four blocks and a ragged one.
    """

    SIZE = 7 * core.BLOCK // 2 + 7

    @staticmethod
    def _check(monkeypatch, make, spare, returns_new=True):
        """``make()`` gives a pass; run one at width 1 and one at width 3, traced.

        ``returns_new``: the pass allocates the array it returns.
        """
        monkeypatch.setattr(core, "_width", 1)
        expected = make()()
        run = make()
        monkeypatch.setattr(core, "_width", 3)
        got, peak = _traced(run)
        if isinstance(got, tuple):  # the combine's term and sums
            (got, sums), (expected, expected_sums) = got, expected
            assert sums == expected_sums
        assert got.tobytes() == expected.tobytes()
        assert peak - got.nbytes * returns_new < spare.nbytes, peak

    def _arrays(self, count):
        rng = np.random.default_rng(66)
        return [rng.random(self.SIZE) for _ in range(count)]

    def test_combine(self, monkeypatch):
        a, forcing = self._arrays(2)
        coeffs = dynamics.fit_polynomial(6.0, 9).coeffs
        weights, prim = dynamics._weights(coeffs), dynamics._primitive_coeffs(coeffs)
        evolved = np.random.default_rng(67).random((self.SIZE, 9)).astype(dynamics.RUN_DTYPE)
        spare = np.empty(dynamics._row_scratch(9, dynamics.RUN_DTYPE) * core.BLOCK,
                         dynamics.RUN_DTYPE)
        self._check(monkeypatch,
                    lambda: lambda: dynamics._combine(a, weights, evolved, forcing, prim, spare),
                    spare)

    def test_gd_step(self, monkeypatch):
        cfg = ModelConfig.paper("lhe")
        a, forcing, inter = self._arrays(3)
        inter = (inter - 0.5).astype(dynamics.RUN_DTYPE)
        spare = np.empty(core.BLOCK, inter.dtype)
        self._check(monkeypatch, lambda: lambda: dynamics.gd_step(a, forcing, inter, cfg, spare),
                    spare)

    def test_relative_change(self, monkeypatch):
        a, b = self._arrays(2)
        spare = np.empty(core.BLOCK)
        monkeypatch.setattr(core, "_width", 1)
        expected = core.relative_change(a, b)
        monkeypatch.setattr(core, "_width", 3)
        got, peak = _traced(lambda: core.relative_change(a, b, spare))
        assert got == expected
        assert peak < spare.nbytes, peak

    def test_secant_pair(self, monkeypatch):
        # the update writes over the first call's g, a fresh copy each time
        x0, g0, x1, g1 = self._arrays(4)
        spare = np.empty(core.BLOCK)

        def make():
            pair = dynamics._SecantPair(self.SIZE, spare)
            pair.extrapolate(x0, g0.copy())
            return lambda: pair.extrapolate(x1, g1)

        self._check(monkeypatch, make, spare, returns_new=False)

    def test_anderson_history(self, monkeypatch):
        # two recorded pairs, then an update that extrapolates from them
        cfg = ModelConfig.paper("lhe")
        states = self._arrays(6)
        spare = np.empty((dynamics.ANDERSON_WINDOW + 2) * core.BLOCK)

        def make():
            history = dynamics._AndersonHistory(self.SIZE, cfg, spare)
            for x, g in zip(states[0:4:2], states[1:4:2]):
                history.extrapolate(x, g)
            return lambda: history.extrapolate(states[4], states[5])

        self._check(monkeypatch, make, spare)


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


def serial_sigmoid(r, alpha, out):
    """The WC sigmoid in one pass over the whole array, into ``out``."""
    np.subtract(r, 0.5, out=out, dtype=out.dtype)
    out *= -alpha
    return np.clip(out, -1.0, 1.0, out=out)


def serial_gd_step(a, forcing, inter, cfg):
    """``a + dt (-(1 + lam) a + forcing + inter / 2)`` over whole arrays, in that order."""
    g = np.multiply(a, -(1.0 + cfg.lam))
    g += forcing
    g += np.multiply(inter, dynamics.INTERACTION_SCALE)
    g *= cfg.dt
    g += a
    return g


def serial_relative_change(a, b, order=list):
    """``||a - b|| / ||a||`` on one thread, the blocks' squared norms added in ``order``."""
    a, b = a.ravel(), b.ravel()
    diff = denom = 0.0
    for start in order(range(0, a.size, core.BLOCK)):
        x = a[start : start + core.BLOCK]
        d = x - b[start : start + core.BLOCK]
        diff += float(d @ d)
        denom += float(x @ x)
    if denom == 0.0:
        return 0.0 if diff == 0.0 else math.inf
    return math.sqrt(diff) / math.sqrt(denom)


class SerialSecantPair:
    """The one-pair update on one thread, on copies: ``g - gamma (g - g_prev)``.

    ``gamma = (df . f) / (df . df)``, each dot summed a block at a time
    in block order; None before a pair exists, and g itself where ``df``
    vanishes.
    """

    def __init__(self):
        self.f_prev = self.g_prev = None

    def extrapolate(self, x, g):
        f = g - x
        f_prev, g_prev, self.f_prev, self.g_prev = self.f_prev, self.g_prev, f, g.copy()
        if f_prev is None:
            return None
        df = f - f_prev
        blocks = [slice(start, start + core.BLOCK) for start in range(0, f.size, core.BLOCK)]
        dot_f = dot_df = 0.0
        for b in blocks:
            dot_f += float(df[b] @ f[b])
            dot_df += float(df[b] @ df[b])
        if dot_df == 0.0:
            return g
        out = g_prev - g
        out *= dot_f / dot_df
        out += g
        return out


# below one block; one block and a ragged one; four blocks, where the
# blocks' sums added in another order than block order change the bits
POOLED_SIZES = (1000, 3 * core.BLOCK // 2 + 7, 7 * core.BLOCK // 2 + 7)


class TestPooledPasses:
    """The descent loop's full-stack passes equal their serial references at every width."""

    @staticmethod
    def _arrays(size, count, seed):
        rng = np.random.default_rng(seed)
        return [rng.random(size) for _ in range(count)]

    @pytest.mark.parametrize("size", POOLED_SIZES)
    @pytest.mark.parametrize("width", WIDTHS)
    def test_sigmoid(self, monkeypatch, width, size):
        monkeypatch.setattr(core, "_width", width)
        [r] = self._arrays(size, 1, 61)
        for dtype in (np.float64, np.float32):
            expected = serial_sigmoid(r, 20.0, np.empty(size, dtype))
            assert dynamics.sigmoid(r.astype(dtype), 20.0).tobytes() == expected.tobytes()
            out = np.empty(size, dtype)
            assert dynamics.sigmoid(r, 20.0, out=out) is out
            assert out.tobytes() == expected.tobytes()
        in_place = r.copy()
        dynamics.sigmoid(in_place, 20.0, out=in_place)
        assert in_place.tobytes() == serial_sigmoid(r, 20.0, np.empty(size)).tobytes()

    @pytest.mark.parametrize("size", POOLED_SIZES)
    @pytest.mark.parametrize("width", WIDTHS)
    def test_gd_step(self, monkeypatch, width, size):
        monkeypatch.setattr(core, "_width", width)
        cfg = dataclasses.replace(ModelConfig.paper("wc"), lam=0.7, dt=0.3)
        a, forcing, inter = self._arrays(size, 3, 62)
        inter = (inter - 0.5).astype(dynamics.RUN_DTYPE)
        expected = serial_gd_step(a, forcing, inter, cfg).tobytes()
        spare = np.empty(width * min(core.BLOCK, size), inter.dtype)
        assert dynamics.gd_step(a, forcing, inter, cfg, spare).tobytes() == expected
        assert dynamics.gd_step(a, forcing, inter, cfg).tobytes() == expected

    @pytest.mark.parametrize("size", POOLED_SIZES)
    @pytest.mark.parametrize("width", WIDTHS)
    def test_relative_change(self, monkeypatch, width, size):
        # blocks of unequal scale: on four blocks the ratio reads the order
        # in which their sums are added
        monkeypatch.setattr(core, "_width", width)
        scale = np.repeat([1.0, 1e-5, 1e3, 1e-2], core.BLOCK)[:size]
        a, b = self._arrays(size, 2, 67)
        a, b = a * scale, b * scale * 1.1
        expected = serial_relative_change(a, b)
        if size > 3 * core.BLOCK:
            assert serial_relative_change(a, b, reversed) != expected
        assert core.relative_change(a, b) == expected
        assert core.relative_change(a, b, np.empty(width * min(core.BLOCK, size))) == expected
        zero = np.zeros(size)
        assert core.relative_change(zero, zero) == 0.0
        assert core.relative_change(zero, b) == math.inf

    @pytest.mark.parametrize("size", POOLED_SIZES)
    @pytest.mark.parametrize("width", WIDTHS)
    def test_secant_pair(self, monkeypatch, width, size):
        # the first call, two updates (the second writes over the first
        # update's g_prev), then a repeated residual: df = 0
        monkeypatch.setattr(core, "_width", width)
        pair = dynamics._SecantPair(size, np.empty(width * min(core.BLOCK, size)))
        reference = SerialSecantPair()
        x0, g0, x1, g1, x2, g2 = self._arrays(size, 6, 64)
        assert pair.extrapolate(x0, g0) is g0
        reference.extrapolate(x0, g0)
        for x, g in ((x1, g1), (x2, g2)):
            expected = reference.extrapolate(x, g)
            assert pair.extrapolate(x, g).tobytes() == expected.tobytes()
            assert pair.f_prev.tobytes() == reference.f_prev.tobytes()
        same = g2.copy()  # the last residual again
        assert pair.extrapolate(x2, same) is same

    @pytest.mark.parametrize("width", WIDTHS[1:])
    def test_passes_run_on_every_thread(self, monkeypatch, width):
        # with a spare buffer to carve from, every pass hands parts to the
        # helpers.  The first parts of each pass wait until every thread
        # holds one
        monkeypatch.setattr(core, "_width", width)
        size = 7 * core.BLOCK // 2 + 7
        run_parts, seen = core.run_parts, {}

        def recorded(fn, parts, threads=None):
            barrier = threading.Barrier(width, timeout=30)

            def part(p, thread):
                if p < width:
                    barrier.wait()
                seen.setdefault(name, set()).add(thread)
                return fn(p, thread)
            return run_parts(part, parts, threads)

        monkeypatch.setattr(core, "run_parts", recorded)
        cfg = ModelConfig.paper("wc")
        a, b, c = self._arrays(size, 3, 65)
        spare = np.empty(width * core.BLOCK)
        pair = dynamics._SecantPair(size, spare)
        pair.extrapolate(a, b)
        for name, call in (("sigmoid", lambda: dynamics.sigmoid(a, 20.0)),
                           ("gd_step", lambda: dynamics.gd_step(a, b, c, cfg, spare)),
                           ("relative_change", lambda: core.relative_change(a, b, spare)),
                           ("secant", lambda: pair.extrapolate(b, c))):
            call()
        assert seen == {name: set(range(width))
                        for name in ("sigmoid", "gd_step", "relative_change", "secant")}


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
                return dynamics._interaction(cfg, prop, states[0], states[1],
                                             dynamics.RUN_DTYPE)

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


def _record_fft_threads(monkeypatch) -> list:
    """Wrap the pocketfft kernel ``heat`` calls; each call appends (caller, nthreads).

    The caller is the module of the function that called ``heat.rfft2``
    or ``heat.irfft2``; ``heat`` passes nthreads last, by position.
    """
    calls = []
    kernel = heat._pocketfft

    def recording(fn):
        def wrapper(*args):
            calls.append((sys._getframe(2).f_globals["__name__"], args[-1]))
            return fn(*args)
        return wrapper

    monkeypatch.setattr(heat, "_pocketfft", types.SimpleNamespace(
        **{name: recording(getattr(kernel, name)) for name in ("r2c", "c2c", "c2r")}))
    return calls


@pytest.mark.parametrize("width", (1, 2))
def test_every_fft_runs_on_the_pool_width(monkeypatch, width):
    # pocketfft reads nthreads=0 as its system default and no argument as
    # one thread, neither the CPUs this process may use nor a sweep
    # worker's share
    calls = _record_fft_threads(monkeypatch)
    monkeypatch.setattr(core, "_width", width)
    n, k = 32, 8
    bank = cakes.build_cake_bank(n, k, 3)
    a = cakes.lift(np.random.default_rng(3).random((n, n)), bank)
    dynamics.local_mean(a, 6.5)
    for model in ("wc", "lhe"):
        cfg = dataclasses.replace(ModelConfig.paper(model), tau=0.1)
        prop = build_propagator(n, k, cfg.beta_for(n, k), cfg.dtau)
        dynamics._interaction(cfg, prop, a, a, dynamics.RUN_DTYPE)(a)
    assert {module for module, _ in calls} == {module.__name__ for module in FFT_MODULES}
    assert {threads for _, threads in calls} == {core.pool_width()}


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
import json, sys, threading, types
import srcortex.experiment as experiment
from srcortex import ExperimentConfig, ModelConfig, StimulusSpec, core, heat

core.set_pool_width(2)
core.run_parts(lambda part, thread: thread, 4)  # starts the parent's helper threads
experiment.cpu_count = lambda: 4  # two sweep values: each worker's share is two
run_experiment = experiment.run_experiment
fft_threads = set()  # the nthreads argument of every pocketfft call in this process
kernel = heat._pocketfft

def recording(fn):
    def wrapper(*args):
        fft_threads.add(args[-1])  # heat passes nthreads last, by position
        return fn(*args)
    return wrapper

heat._pocketfft = types.SimpleNamespace(
    **{name: recording(getattr(kernel, name)) for name in ("r2c", "c2c", "c2r")})

def reporting(cfg):
    fft_threads.clear()
    report = run_experiment(cfg)
    barrier = threading.Barrier(2, timeout=60)  # both of the worker's threads at once

    def part(_, thread):
        barrier.wait()
        return thread

    report["threads"] = sorted(core.run_parts(part, 2))
    report["width"] = core.pool_width()
    report["fft_threads"] = sorted(fft_threads, key=str)
    return report

experiment.run_experiment = reporting
spec = StimulusSpec(n_pixels=32, bar_width=8, grating_period=8, line_thickness=3)
cfg = ExperimentConfig(model_cfg=ModelConfig.paper("lhe"), out_dir=sys.argv[1], stimulus=spec,
                       n_orient=8, sweep_param="tau", sweep_values=(0.05, 0.1))
reports = experiment.run_sweep(cfg)
print(json.dumps([[r["width"], r["threads"], r["fft_threads"]] for r in reports]))
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

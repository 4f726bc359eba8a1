"""Runs one workload: timed rounds, set-up samples, checks and metrics.

An operation is one ``run_experiment`` call: one per round for a single
run, one per tau for the sweep.  Untraced rounds repeat until the run
length has passed, and the end-to-end metrics are their medians.  A
traced run first makes one traced round, then the same untraced rounds:
the per-layer metrics come from the traced round, and its wall minus the
untraced median is the tracing overhead.
"""

import hashlib
import json
import resource
import shutil
import statistics
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import srcortex.experiment as experiment
from srcortex import build_cake_bank, build_propagator, fit_polynomial, poggendorff_gratings

import checks
from recorder import load_record, recording
from workloads import PROFILE_ORDER, Workload, time_setup

RUNS_DIR = ".bench_runs"
# set-up is sampled at least this often and for at least this long; the
# median of many short samples is steadier than a few
SETUP_SAMPLES = 5
SETUP_SECONDS = 3.0

END_TO_END = {
    "run_s": "s",
    "setup_s": "s",
    "iterations": "count",
    "peak_rss_mb": "MB",
}

# name: (unit, better).  Layers only one model has (LHE powers, combine and
# energy; the WC sigmoid) are given as their share of the runs' time, 0
# where the model lacks the layer; a time would read 0 on every such run.
PER_LAYER = {
    "stimuli.generate_s": ("s", "lower"),
    "cakes.build_s": ("s", "lower"),
    "cakes.lift_s": ("s", "lower"),
    "cakes.bank_mb": ("MB", "lower"),
    "heat.factor_s": ("s", "lower"),
    "heat.assemble_s": ("s", "lower"),
    "heat.propagator_mb": ("MB", "lower"),
    "heat.evolve_calls": ("count", "lower"),
    "heat.stacks_evolved": ("count", "lower"),
    "heat.rfft2_ms": ("ms", "lower"),
    "heat.irfft2_ms": ("ms", "lower"),
    "heat.modeprod_ms": ("ms", "lower"),
    "heat.modeprod_gflops": ("GFLOP/s", "higher"),
    "dynamics.local_mean_s": ("s", "lower"),
    "dynamics.powers_pct": ("%", "lower"),
    "dynamics.combine_pct": ("%", "lower"),
    "dynamics.energy_pct": ("%", "lower"),
    "dynamics.wc_sigmoid_pct": ("%", "lower"),
    "dynamics.step_ms": ("ms", "lower"),
    "dynamics.iter_ms": ("ms", "lower"),
    "core.project_ms": ("ms", "lower"),
    "experiment.probe_ms": ("ms", "lower"),
    "experiment.write_ms": ("ms", "lower"),
    "experiment.sweep_speedup": ("ratio", "higher"),
    "bank.pou_residual": ("abs", "lower"),
    "poly.sup_error": ("abs", "lower"),
    "numerics.contrast_max": ("act", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


@dataclass
class Op:
    """One run_experiment call: where it wrote, its tau, its record and final stack."""

    out_dir: str
    tau: float
    record: dict
    stack: np.ndarray


@dataclass
class Round:
    wall: float
    ops: list


def run_round(w: Workload, out_dir: Path, traced: bool) -> Round:
    cfg = w.config(str(out_dir))
    with recording(traced):
        start = time.perf_counter()
        if w.sweep_taus:
            experiment.run_sweep(cfg)  # the pool size the CLI uses
        else:
            experiment.run_experiment(cfg)
        wall = time.perf_counter() - start
    ops = [Op(d, tau, *load_record(d)) for d, tau in zip(w.value_dirs(str(out_dir)), w.taus)]
    return Round(wall, ops)


def _peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) * 1024 / 1e6


def run_workload(w: Workload, seed: int, seconds: float, trace: bool, root: Path,
                 setup_samples: int = SETUP_SAMPLES,
                 setup_seconds: float = SETUP_SECONDS) -> dict:
    base = root / RUNS_DIR / w.name
    shutil.rmtree(base, ignore_errors=True)
    # traced first, so that a cold first run does not make its overhead negative
    traced = [run_round(w, base / "traced", traced=True)] if trace else []
    untraced = []
    start = time.perf_counter()
    while not untraced or time.perf_counter() - start < seconds:
        untraced.append(run_round(w, base / f"round{len(untraced)}", traced=False))
    peak_rss = _peak_rss_mb()
    rounds = traced + untraced
    run_s = statistics.median(r.wall for r in untraced)

    found = run_checks(w, rounds, seed, root)
    if trace:
        metrics = layer_metrics(w, traced[0], run_s)
        units = {name: unit for name, (unit, _) in PER_LAYER.items()}
    else:
        setup = []
        start = time.perf_counter()
        while len(setup) < setup_samples or time.perf_counter() - start < setup_seconds:
            setup.append(time_setup(w))
        metrics = {
            "run_s": run_s,
            "setup_s": statistics.median(setup),
            "iterations": sum(f["iterations"] for f in found["fingerprints"].values()),
            "peak_rss_mb": peak_rss,
        }
        units = END_TO_END
    return {
        "correct": all(ok for _, ok, _ in found["checks"]),
        "attempted": sum(len(r.ops) for r in rounds),
        "failed": len(found["failed"]),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "checks": found["checks"],
        "failures": found["failed"],
        "fingerprints": found["fingerprints"],
    }


def run_checks(w: Workload, rounds: list, seed: int, root: Path) -> dict:
    """Every check of the run.

    An operation whose traced energy rises is counted as failed (the
    ``lhe_energy``/forcing fault); every other check decides ``correct``,
    over the operations that did not fail.
    """
    f0 = poggendorff_gratings(w.stimulus)
    bank = build_cake_bank(w.n_pixels, w.n_orient, PROFILE_ORDER)
    prop = build_propagator(
        w.n_pixels, w.n_orient, w.model.beta_for(w.n_pixels, w.n_orient), w.model.dtau
    )
    a0, mu = checks.lifted_inputs(f0, bank, w.model.sigma_mu)
    found = [checks.reconstruction(f0, bank)]
    for tau in w.taus:
        found += checks.heat_semigroup(prop, tau, seed)

    failed = {}
    reports = defaultdict(set)
    prints = defaultdict(list)
    for r in rounds:
        for op in r.ops:
            report_text = (Path(op.out_dir) / "report.json").read_text()
            reports[op.tau].add(report_text)
            prints[op.tau].append(checks.fingerprint(op.out_dir))
            rise = checks.energy_rise(op.out_dir)
            if rise > 0:
                failed[op.out_dir] = (
                    f"energy rises by {rise:.3g}: dynamics._energy_from_terms/lhe_energy "
                    f"ignore cfg.forcing={w.model.forcing!r}"
                )
                continue
            label = f"{Path(op.out_dir).relative_to(root / RUNS_DIR)}"
            op_checks = (
                checks.fixed_point(op.stack, a0, mu, w.model_for(op.tau), prop),
                checks.output_image(op.out_dir, op.stack),
                checks.offset(json.loads(report_text)),
            )
            found += [(name, ok, f"{label}: {detail}") for name, ok, detail in op_checks]

    current = {}
    for tau in w.taus:
        key = f"tau={tau:g}"
        same = len(reports[tau]) == 1 and all(p == prints[tau][0] for p in prints[tau])
        found.append(("experiment.repeatable", same,
                      f"{key}: {len(prints[tau])} runs, identical report.json and output.pgm"))
        current[key] = {"report": min(reports[tau]), "fingerprint": prints[tau][0]}
    for key, same in _against_reference(w, root, current).items():
        found.append(("experiment.reference", same,
                      f"{key}: same report.json and output.pgm as earlier runs of this source"))
    fingerprints = {key: entry["fingerprint"] for key, entry in current.items()}
    return {"checks": found, "failed": failed, "fingerprints": fingerprints}


def _against_reference(w: Workload, root: Path, current: dict) -> dict:
    """Compare with what earlier runs of the same package source stored; store if none did."""
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "srcortex").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    path = root / RUNS_DIR / "reference" / digest.hexdigest()[:16] / f"{w.name}.json"
    if not path.exists():
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(current, sort_keys=True))
    stored = json.loads(path.read_text())
    return {key: stored.get(key) == entry for key, entry in current.items()}


def layer_metrics(w: Workload, traced: Round, untraced_wall: float) -> dict:
    """Per-layer metrics from the spans of the traced round.

    Times are self times: a span's duration minus that of its child spans.
    Work of the dynamics layer done for the energy trace is counted as
    ``dynamics.energy``.
    """
    self_s = defaultdict(float)
    counts = Counter()
    gaps = []
    for op in traced.ops:
        spans = op.record["spans"]
        child = [0.0] * len(spans)
        bucket = []
        for name, t0, t1, parent in spans:
            if parent >= 0:
                child[parent] += t1 - t0
                if name.startswith("dynamics.") and bucket[parent] == "dynamics.energy":
                    name = "dynamics.energy"
            bucket.append(name)
        for (_, t0, t1, _), name, inner in zip(spans, bucket, child):
            self_s[name] += t1 - t0 - inner
        # one relative_change per iteration: the gaps between them are iterations
        ends = [t1 for name, _, t1, _ in spans if name == "dynamics.relative_change"]
        gaps += np.diff(ends).tolist()
        counts.update(op.record["counts"])

    records = [op.record for op in traced.ops]
    run_total = sum(r["wall_s"] for r in records)

    def ms(name):
        return 1e3 * self_s[name]

    def pct(name):
        return 100.0 * self_s[name] / run_total

    poly_error = 0.0  # WC has no polynomial contrast fit
    if w.model.model == "lhe":
        poly_error = fit_polynomial(w.model.alpha, w.model.poly_degree).sup_error
    return {
        "stimuli.generate_s": self_s["stimuli.generate"],
        "cakes.build_s": self_s["cakes.build"],
        "cakes.lift_s": self_s["cakes.lift"],
        "cakes.bank_mb": max(r["bank_bytes"] for r in records) / 1e6,
        "heat.factor_s": self_s["heat.factor"],
        "heat.assemble_s": self_s["heat.assemble"],
        "heat.propagator_mb": max(r["propagator_bytes"] for r in records) / 1e6,
        "heat.evolve_calls": counts["evolve_calls"],
        "heat.stacks_evolved": counts["stacks_evolved"],
        "heat.rfft2_ms": ms("heat.rfft2"),
        "heat.irfft2_ms": ms("heat.irfft2"),
        "heat.modeprod_ms": ms("heat.evolve"),
        "heat.modeprod_gflops": counts["modeprod_flops"] / self_s["heat.evolve"] / 1e9,
        "dynamics.local_mean_s": self_s["dynamics.local_mean"],
        "dynamics.powers_pct": pct("dynamics.powers"),
        "dynamics.combine_pct": pct("dynamics.combine"),
        "dynamics.energy_pct": pct("dynamics.energy"),
        "dynamics.wc_sigmoid_pct": pct("dynamics.wc_sigmoid"),
        "dynamics.step_ms": ms("dynamics.gd_step") + ms("dynamics.relative_change"),
        "dynamics.iter_ms": 1e3 * statistics.median(gaps),
        "core.project_ms": ms("core.project"),
        "experiment.probe_ms": ms("experiment.probe"),
        "experiment.write_ms": ms("experiment.write"),
        "experiment.sweep_speedup": run_total / traced.wall,
        "bank.pou_residual": max(r["pou_residual"] for r in records),
        "poly.sup_error": poly_error,
        "numerics.contrast_max": max(float(np.ptp(op.stack)) for op in traced.ops),
        "trace.overhead_s": traced.wall - untraced_wall,
    }

"""Self-test of the benchmark on a 32 x 32 x 8 grid, in seconds.

Runs every workload path (single run and process-pool sweep, untraced and
traced) with every check, and confirms that the checks flag a rising
energy trace and a corrupted output image.  Not part of the test suite;
run it after changing the benchmark:

    python3 bench/selftest.py
"""

import json
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
from harness import END_TO_END, PER_LAYER, RUNS_DIR, run_workload  # noqa: E402
from workloads import WORKLOADS, tiny  # noqa: E402


# 32 px is too coarse for the 1e-2 reconstruction bound (the radial taper
# covers a large share of the spectrum): the check must report it, not pass
EXPECTED_FAILING = {"cakes.reconstruction"}


def check_workloads(problems: list) -> None:
    for w in map(tiny, WORKLOADS.values()):
        prints = {}
        for trace in (False, True):
            res = run_workload(w, seed=7, seconds=0.0, trace=trace, root=ROOT,
                               setup_samples=2, setup_seconds=0.0)
            # the result must serialize as run_bench.py prints it
            json.dumps({k: res[k] for k in ("correct", "attempted", "failed", "metrics")})
            want = set(PER_LAYER if trace else END_TO_END)
            label = f"{w.name} trace={int(trace)}"
            if set(res["metrics"]) != want:
                problems.append(f"{label}: metrics {sorted(set(res['metrics']) ^ want)}")
            bad = {c[0] for c in res["checks"] if not c[1]}
            if bad != EXPECTED_FAILING or res["failed"]:
                problems.append(f"{label}: failing checks {bad}, failed {res['failed']}")
            if res["attempted"] != len(w.taus) * (2 if trace else 1):
                problems.append(f"{label}: attempted {res['attempted']}")
            prints[trace] = res["fingerprints"]
            print(f"{label}: attempted {res['attempted']} failed {res['failed']} "
                  f"correct {res['correct']}")
        if prints[False] != prints[True]:
            problems.append(f"{w.name}: traced fingerprints differ")

    # under the paper's forcing the traced energy rises: operations fail
    w = tiny(WORKLOADS["lhe-tau-sweep-n100"], forcing="discrete-paper")
    res = run_workload(w, seed=7, seconds=0.0, trace=False, root=ROOT,
                       setup_samples=1, setup_seconds=0.0)
    print(f"{w.name}: attempted {res['attempted']} failed {res['failed']}")
    if not res["failed"] or any(
        "ignore cfg.forcing" not in reason for reason in res["failures"].values()
    ):
        problems.append(f"{w.name}: energy fault not reported: {res['failures']}")


def check_detectors(problems: list) -> None:
    scratch = ROOT / RUNS_DIR / "selftest"
    scratch.mkdir(parents=True, exist_ok=True)
    trace = scratch / "trace.csv"
    trace.write_text("p,relative_change,energy\n1,0.1,-5.0\n2,0.01,-6.0\n3,0.001,-5.5\n")
    if not checks.energy_rise(scratch) > 0.4:
        problems.append("energy check misses a rising trace")
    trace.write_text("p,relative_change,energy\n1,0.1,-5.0\n2,0.01,-6.0\n3,0.001,-6.5\n")
    if checks.energy_rise(scratch) != 0.0:
        problems.append("energy check flags a falling trace")

    w = tiny(WORKLOADS["wc-gratings-n200"])
    out = ROOT / RUNS_DIR / w.name / "round0"
    stack = checks.np.load(out / "final_stack.npy")
    shutil.copy(out / "output.pgm", scratch / "output.pgm")
    if not checks.output_image(scratch, stack)[1]:
        problems.append("output check rejects the program's own image")
    raw = bytearray((scratch / "output.pgm").read_bytes())
    raw[-1] ^= 1
    (scratch / "output.pgm").write_bytes(bytes(raw))
    if checks.output_image(scratch, stack)[1]:
        problems.append("output check accepts a corrupted image")


def main() -> int:
    problems = []
    check_workloads(problems)
    check_detectors(problems)
    for p in problems:
        print("PROBLEM", p)
    print("selftest", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

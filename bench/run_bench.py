"""srcortex benchmark: time to solution on Poggendorff workloads.

Usage, from the root of a source checkout:

    python3 bench/run_bench.py --workload lhe-gratings-n100 --seed 1 --seconds 5 --trace 0

Runs the workload through ``run_experiment``/``run_sweep`` from ``src/``,
checks the outputs, and prints one line per check, one fingerprint line
per tau, and as the last line a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (end-to-end metrics with
``--trace 0``, per-layer metrics with ``--trace 1``).  Run outputs go to
``.bench_runs/`` in the checkout.  See bench/README.md.
"""

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "srcortex" / "__init__.py").is_file():
        print(f"no srcortex package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from harness import run_workload
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    result = run_workload(WORKLOADS[args.workload], args.seed, args.seconds,
                          bool(args.trace), ROOT)
    for name, ok, detail in result.pop("checks"):
        print(f"check {name} {'ok' if ok else 'FAIL'}: {detail}")
    for out_dir, reason in result.pop("failures").items():
        print(f"failed {out_dir}: {reason}")
    fingerprints = result.pop("fingerprints")
    for key, fp in fingerprints.items():
        print("fingerprint " + json.dumps({"workload": args.workload, "value": key, **fp}))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

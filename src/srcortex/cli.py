"""Command-line entry point.

Exit codes: 0 success, 1 usage/config errors, 2 runtime failures.
"""

import argparse
import dataclasses
import sys

from .core import FORCINGS, MODELS, ModelConfig
from .experiment import SWEEPABLE, ExperimentConfig, run_experiment, run_sweep
from .stimuli import GRATINGS, STIMULUS_KINDS, StimulusSpec


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit with code 1
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> _Parser:
    p = _Parser(
        prog="srcortex",
        description=(
            "Run an orientation-lifted WC/LHE completion model on a "
            "Poggendorff stimulus or an input image."
        ),
    )
    p.add_argument("--model", choices=MODELS, required=True)
    src = p.add_mutually_exclusive_group()
    src.add_argument(
        "--stimulus",
        choices=STIMULUS_KINDS,
        help="generated test figure (default: gratings unless --input is given)",
    )
    src.add_argument("--input", metavar="PATH", help="PGM/PNG image to process")
    p.add_argument("--N", type=int, default=StimulusSpec.n_pixels, help="stimulus size in pixels")
    p.add_argument("--K", type=int, default=ExperimentConfig.n_orient,
                   help="number of orientations")
    p.add_argument("--bw", type=int, default=ExperimentConfig.profile_order,
                   help="angular profile order")
    # no defaults: config_from_args takes what is not given from ModelConfig.paper
    p.add_argument("--lambda", dest="lam", type=float, help="fidelity weight")
    p.add_argument("--alpha", type=float, help="sigmoid slope")
    p.add_argument("--sigma-mu", type=float, help="local-mean Gaussian std (pixels)")
    p.add_argument("--dt", type=float, help="descent step")
    p.add_argument("--dtau", type=float, help="heat solver step")
    p.add_argument("--tau", type=float, help="kernel diffusion time")
    p.add_argument("--tol", type=float, help="stopping threshold")
    p.add_argument("--max-iters", type=int)
    p.add_argument("--poly-degree", type=int, help="odd degree of the LHE contrast fit")
    p.add_argument("--sweep", metavar="PARAM=v1,v2,...",
                   help=f"run once per value of one of {', '.join(SWEEPABLE)}")
    p.add_argument("--out", metavar="DIR", default="out", help="output directory")
    p.add_argument("--forcing", choices=FORCINGS)
    return p


def config_from_args(args) -> ExperimentConfig:
    # every ModelConfig field has a flag whose dest is the field's name
    given = {f.name: getattr(args, f.name) for f in dataclasses.fields(ModelConfig)
             if getattr(args, f.name) is not None}
    model_cfg = dataclasses.replace(ModelConfig.paper(args.model), **given)
    stimulus = None
    if args.input is None:
        stimulus = StimulusSpec.paper(args.N, args.stimulus or GRATINGS)
    sweep_param, sweep_values = (None, ())
    if args.sweep:  # ExperimentConfig checks the param and that values are given
        param, _, tail = args.sweep.partition("=")
        sweep_param = param.strip()
        sweep_values = tuple(float(v) for v in tail.split(",") if v.strip())
    return ExperimentConfig(
        model_cfg=model_cfg,
        out_dir=args.out,
        stimulus=stimulus,
        input_path=args.input,
        n_orient=args.K,
        profile_order=args.bw,
        sweep_param=sweep_param,
        sweep_values=sweep_values,
    )


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits on usage errors and --help
        return int(exc.code or 0)
    try:
        cfg = config_from_args(args)
    except ValueError as exc:
        print(f"srcortex: error: {exc}", file=sys.stderr)
        return 1
    try:
        if cfg.sweep_param is not None:
            reports = run_sweep(cfg)
            for value, rep in zip(cfg.sweep_values, reports):
                print(f"{cfg.sweep_param}={value:g}: offset_px={rep['offset_px']}")
        else:
            rep = run_experiment(cfg)
            print(
                f"done: iterations={rep['iterations']} "
                f"converged={rep['converged']} offset_px={rep['offset_px']}"
            )
    except Exception as exc:
        print(f"srcortex: runtime error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())

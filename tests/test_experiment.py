import dataclasses
import json
import math
import sys
import warnings

import numpy as np
import pytest

from srcortex import (
    ExperimentConfig,
    ModelConfig,
    StimulusSpec,
    build_cake_bank,
    build_propagator,
    fit_polynomial,
    poggendorff_gratings,
    run_experiment,
    run_sweep,
)
from srcortex import experiment
from srcortex.cli import build_parser, config_from_args, main
from srcortex.dynamics import RunResult, run_model
from srcortex.experiment import _build_report, measure_offset
from srcortex.imgio import write_pgm
from srcortex.stimuli import BACKGROUND, STIMULUS_KINDS, poggendorff_classic

# every file a single run writes
ARTIFACTS = ("input.pgm", "output.pgm", "crop.pgm", "trace.csv", "report.json")


def paper_spec():
    return StimulusSpec()  # 200 px, 30 px bar, pi/3, 25 px gratings


class TestMeasureOffset:
    def test_raw_stimulus_has_no_completion(self):
        spec = paper_spec()
        assert measure_offset(poggendorff_gratings(spec), spec) is None

    def test_flat_image_has_no_completion(self):
        spec = paper_spec()
        assert measure_offset(np.full((200, 200), 0.5), spec) is None

    def test_exact_collinear_line_scores_zero(self):
        spec = paper_spec()
        visible = poggendorff_gratings(dataclasses.replace(spec, bar_gray=1.0))
        off = measure_offset(visible, spec)
        assert off is not None and abs(off) <= 0.5

    def test_classic_collinear_line_scores_zero(self):
        spec = StimulusSpec(grating_period=0.0)
        visible = poggendorff_classic(dataclasses.replace(spec, bar_gray=1.0))
        off = measure_offset(visible, spec)
        assert off is not None and abs(off) <= 0.5

    def test_affine_intensity_invariance(self):
        spec = paper_spec()
        visible = poggendorff_gratings(dataclasses.replace(spec, bar_gray=1.0))
        a = measure_offset(visible, spec)
        b = measure_offset(0.25 + 0.5 * visible, spec)
        assert a == pytest.approx(b, abs=1e-12)

    def test_known_shift_is_recovered(self):
        # paint a line displaced parallel to the continuation by a known
        # amount (within the center-crossing seed window) inside the bar
        spec = paper_spec()
        img = poggendorff_gratings(spec)
        shift = 2.0  # rows downward
        cols = np.arange(int(spec.bar_left) + 1, int(spec.bar_right))
        for col in cols:
            r = spec.continuation_row(col) + shift
            lo = int(math.floor(r - 1))
            for row in range(lo, lo + 3):
                img[row, col] = min(img[row, col], abs(row - r) / 2.0)
        off = measure_offset(img, spec)
        assert off is not None
        assert off == pytest.approx(shift * math.cos(spec.incidence_angle), abs=0.6)

    @pytest.mark.parametrize("roll", [2, 4, -4])
    def test_rolled_path_inside_transparent_bar(self, roll):
        # the continuation inside a see-through bar, translated by ``roll``
        # rows, lies roll * cos(angle) px off perpendicular to the lines
        spec = paper_spec()
        img = poggendorff_gratings(dataclasses.replace(spec, bar_gray=BACKGROUND))
        in_bar = np.abs(np.arange(spec.n_pixels) - spec.center) < spec.bar_width / 2.0
        img[:, in_bar] = np.roll(img[:, in_bar], roll, axis=0)
        off = measure_offset(img, spec)
        assert off == pytest.approx(roll * math.cos(spec.incidence_angle), abs=0.1)


class TestMirrorOracle:
    """The figure mirrored (incidence pi - pi/3) reads the same completion.

    Its stimulus is the figure's with the rows flipped, bit for bit, so
    the model's output must be the flipped output and the probe must
    read the same offset, in the same number of evaluations: a probe or
    solver change that breaks the sign convention shows here.  Measured
    at N = 48 and 64, K = 8, tau 0.5: images within 2e-8 (WC) and 1e-4
    (LHE) relative, offsets within 4e-7 and 1e-4 px.
    """

    @pytest.mark.parametrize("n", [48, 64])
    @pytest.mark.parametrize("model", ["wc", "lhe"])
    def test_mirrored_figure_reads_the_same_offset(self, model, n):
        k = 8
        spec = StimulusSpec.paper(n)
        mirrored = dataclasses.replace(spec, incidence_angle=math.pi - math.pi / 3.0)
        f0 = poggendorff_gratings(spec)
        np.testing.assert_array_equal(poggendorff_gratings(mirrored), f0[::-1])
        cfg = dataclasses.replace(ModelConfig.paper(model), tau=0.5)
        if model == "wc":
            cfg = dataclasses.replace(cfg, sigma_mu=cfg.sigma_mu * n / 200)
        bank = build_cake_bank(n, k, 5)
        prop = build_propagator(n, k, cfg.beta_for(n, k), cfg.dtau)
        res = run_model(f0, cfg, bank, prop)
        flipped = run_model(f0[::-1], cfg, bank, prop)
        assert (flipped.iterations, flipped.rejected_steps) == (
            res.iterations, res.rejected_steps)
        rel = np.linalg.norm(flipped.image - res.image[::-1]) / np.linalg.norm(res.image)
        assert rel <= (1e-6 if model == "wc" else 1e-3)
        offset, mirrored_offset = measure_offset(res.image, spec), measure_offset(
            flipped.image, mirrored)
        assert offset is not None and mirrored_offset is not None
        assert mirrored_offset == pytest.approx(offset, abs=1e-3)


def quick_config(tmp_path, **overrides):
    model_kw = dict(model="lhe", lam=2.0, alpha=6.0, sigma_mu=1.0,
                    dt=0.15, dtau=0.05, tau=0.25, poly_degree=5,
                    max_iters=60)
    model_kw.update(overrides.pop("model_kw", {}))
    cfg_kw = dict(
        model_cfg=ModelConfig(**model_kw),
        out_dir=str(tmp_path / "run"),
        stimulus=StimulusSpec(n_pixels=48, bar_width=8, grating_period=6,
                              line_thickness=1.5),
        n_orient=8,
        profile_order=3,
    )
    cfg_kw.update(overrides)
    return ExperimentConfig(**cfg_kw)


class TestExperimentConfig:
    def test_requires_exactly_one_source(self, tmp_path):
        with pytest.raises(ValueError):
            quick_config(tmp_path, stimulus=None)
        with pytest.raises(ValueError):
            quick_config(tmp_path, input_path="x.pgm")  # stimulus also set

    def test_sweep_values_validated(self, tmp_path):
        with pytest.raises(ValueError):
            quick_config(tmp_path, sweep_param="dt", sweep_values=(0.9,))

    def test_sweep_values_without_param_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="sweep_values given without sweep_param"):
            quick_config(tmp_path, sweep_values=(0.1, 0.5))

    @pytest.mark.parametrize("param,values", [("n_orient", (8, 16)), ("model", ("wc",))])
    def test_only_sweepable_fields_swept(self, tmp_path, param, values):
        with pytest.raises(ValueError, match=f"cannot sweep '{param}'.*tau, alpha"):
            quick_config(tmp_path, sweep_param=param, sweep_values=values)

    def test_steep_transversal_rejected_before_running(self, tmp_path):
        # at column 44 the continuation crosses row ~127, more than the
        # band's half-width below the 100-row image
        spec = StimulusSpec(n_pixels=100, bar_width=15, incidence_angle=1.5)
        match = r"column 44 .*continuation row 127\.\d"
        with pytest.raises(ValueError, match=match):
            quick_config(tmp_path, stimulus=spec)
        classic = dataclasses.replace(spec, grating_period=0.0)
        for case, img in ((spec, poggendorff_gratings(spec)),
                          (classic, poggendorff_classic(classic))):
            with pytest.raises(ValueError, match=match):
                measure_offset(img, case)

    def test_bar_too_narrow_to_probe_rejected_before_running(self, tmp_path):
        # a 4.8 px bar less the 2 px edge margins leaves no column to probe
        spec = StimulusSpec(n_pixels=32, bar_width=4.8)
        with pytest.raises(ValueError, match=r"4\.8 px bar leaves 0 probed columns"):
            quick_config(tmp_path, stimulus=spec)

    def test_sweep_values_sharing_a_directory_rejected(self, tmp_path):
        # f"{6.0000001:g}" == "6": both runs would write alpha=6/
        with pytest.raises(ValueError, match="6.0000001.*'alpha=6'"):
            quick_config(tmp_path, sweep_param="alpha", sweep_values=(6.0, 6.0000001))


class TestRunExperiment:
    def test_writes_artifacts_and_report(self, tmp_path):
        cfg = quick_config(tmp_path)
        report = run_experiment(cfg)
        out = tmp_path / "run"
        assert {path.name for path in out.iterdir()} == set(ARTIFACTS)
        assert report["model"] == "lhe"
        assert report["stimulus"] == "gratings"
        assert report["iterations"] >= 1
        assert "energy_final" in report
        # numerics health: the bank's partition of unity, the fit, the dtype
        assert 0.0 <= report["pou_residual"] < 1e-10
        assert report["poly_sup_error"] == fit_polynomial(6.0, 5).sup_error
        assert report["interaction_dtype"] == "float32"
        parsed = json.loads((out / "report.json").read_text())
        assert parsed["iterations"] == report["iterations"]
        trace = (out / "trace.csv").read_text().splitlines()
        assert trace[0] == "p,relative_change,energy"
        assert len(trace) == report["iterations"] - report["rejected_steps"] + 1

    def test_wc_report_has_no_fit_and_float32_interaction(self, tmp_path):
        stimulus = StimulusSpec(n_pixels=48, bar_width=8, grating_period=0.0,
                                line_thickness=1.5)
        report = run_experiment(quick_config(tmp_path, stimulus=stimulus,
                                             model_kw={"model": "wc"}))
        assert report["stimulus"] == "classic"
        assert report["interaction_dtype"] == "float32"
        assert "poly_sup_error" not in report and "pou_residual" in report
        assert report["beta"] == ModelConfig.beta_for(48, 8)
        trace = (tmp_path / "run" / "trace.csv").read_text().splitlines()
        assert trace[0] == "p,relative_change"
        assert trace[-1] == f"{report['iterations']},{report['final_relative_change']!r}"

    @pytest.mark.parametrize("model", ["lhe", "wc"])
    def test_every_trace_field_parses_as_a_float(self, tmp_path, model):
        # the trace is read back with float(), as bench/checks.py reads the
        # energies; a numpy scalar would be written as "np.float64(...)"
        report = run_experiment(quick_config(tmp_path, model_kw={"model": model}))
        rows = (tmp_path / "run" / "trace.csv").read_text().splitlines()[1:]
        assert len(rows) == report["iterations"] - report["rejected_steps"]
        for row in rows:
            p, *values = row.split(",")
            assert int(p) >= 1 and len(values) == (2 if model == "lhe" else 1)
            assert all(math.isfinite(float(value)) for value in values), row

    def test_deterministic_artifacts(self, tmp_path):
        cfg1 = quick_config(tmp_path, out_dir=str(tmp_path / "a"))
        cfg2 = quick_config(tmp_path, out_dir=str(tmp_path / "b"))
        run_experiment(cfg1)
        run_experiment(cfg2)
        assert {path.name for path in (tmp_path / "a").iterdir()} == set(ARTIFACTS)
        for name in ARTIFACTS:
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()

    @pytest.mark.parametrize("kind", STIMULUS_KINDS)
    def test_report_rebuilds_the_stimulus_spec(self, tmp_path, kind):
        cfg = quick_config(tmp_path, stimulus=StimulusSpec.paper(48, kind),
                           model_kw={"model": "wc"})
        report = run_experiment(cfg)
        written = json.loads((tmp_path / "run" / "report.json").read_text())
        assert written["stimulus"] == kind
        assert StimulusSpec(**report["stimulus_spec"]) == cfg.stimulus
        assert StimulusSpec(**written["stimulus_spec"]) == cfg.stimulus

    def test_input_image_path(self, tmp_path):
        img = poggendorff_gratings(
            StimulusSpec(n_pixels=48, bar_width=8, grating_period=6)
        )
        path = tmp_path / "input.pgm"
        write_pgm(path, img)
        cfg = quick_config(tmp_path, stimulus=None, input_path=str(path))
        report = run_experiment(cfg)
        assert report["stimulus"] == "file"
        assert report["offset_px"] is None  # no geometry to probe
        assert "transversal_channel" not in report and "angular_coupling" in report

    def test_report_places_the_run_on_its_grids(self, tmp_path, monkeypatch):
        # the final stack's range, the coupling of the orientations over tau
        # and the transversal's orientation in channels
        results = []

        def recorded(*args):
            results.append(run_model(*args))
            return results[-1]

        monkeypatch.setattr(experiment, "run_model", recorded)
        report = run_experiment(quick_config(tmp_path))
        stack = results[0].stack
        assert report["state_range"] == [stack.min(), stack.max()]
        beta = ModelConfig.beta_for(48, 8)
        assert report["angular_coupling"] == 0.25 * beta**2 / (math.pi / 8) ** 2
        # pi/3 + pi/2 in channels of pi/8
        assert report["transversal_channel"] == pytest.approx(20 / 3, rel=1e-15)
        written = json.loads((tmp_path / "run" / "report.json").read_text())
        for key in ("state_range", "angular_coupling", "transversal_channel"):
            assert written[key] == report[key]


@pytest.mark.parametrize("model, n, tau, coupling", [
    ("wc", 200, 5.0, 1.04e-5),  # the WC figure
    ("lhe", 100, 1.25, 4.15e-5),  # the half-size LHE figure
])
def test_figures_report_their_coupling_and_channel(model, n, tau, coupling):
    mc = dataclasses.replace(ModelConfig.paper(model), tau=tau)
    cfg = ExperimentConfig(model_cfg=mc, out_dir="unused", stimulus=StimulusSpec.paper(n))
    prop = build_propagator(n, 16, mc.beta_for(n, 16), mc.dtau)
    stack = np.array([[[-0.5, 0.25]]])
    result = RunResult(image=stack.sum(axis=2), stack=stack, iterations=1, converged=True,
                       rel_history=[0.0])
    report = _build_report(cfg, "gratings", build_cake_bank(n, 16, 5), prop, result, None)
    assert report["angular_coupling"] == pytest.approx(coupling, rel=5e-3)
    # the transversal at 150 degrees lies a third of the way from channel 13 to 14
    assert report["transversal_channel"] == pytest.approx(13 + 1 / 3, rel=1e-15)
    assert report["state_range"] == [-0.5, 0.25]


class TestSweep:
    def test_sweep_runs_and_summarizes(self, tmp_path):
        cfg = quick_config(
            tmp_path,
            out_dir=str(tmp_path / "sweep"),
            sweep_param="tau",
            sweep_values=(0.25, 0.05),  # descending: the reports keep this order
        )
        reports = run_sweep(cfg)
        # the per-value runs are the sweep's only output
        assert {path.name for path in (tmp_path / "sweep").iterdir()} == {"tau=0.25", "tau=0.05"}
        for tau in cfg.sweep_values:
            assert (tmp_path / "sweep" / f"tau={tau:g}" / "report.json").exists()
        assert [rep["tau"] for rep in reports] == [0.25, 0.05]

    def test_pooled_sweep_matches_serial(self, tmp_path):
        # each worker process writes what a run in this process writes
        run_sweep(quick_config(tmp_path, out_dir=str(tmp_path / "sweep"),
                               sweep_param="tau", sweep_values=(0.05, 0.25)))
        for tau in (0.05, 0.25):
            direct = tmp_path / f"direct{tau:g}"
            run_experiment(quick_config(tmp_path, out_dir=str(direct),
                                        model_kw={"tau": tau}))
            assert (tmp_path / "sweep" / f"tau={tau:g}" / "report.json").read_bytes() == (
                direct / "report.json"
            ).read_bytes()


class TestCli:
    def test_missing_input_file_is_clean_error(self, tmp_path, capsys):
        code = main(["--model", "wc", "--input", str(tmp_path / "nope.pgm"),
                     "--out", str(tmp_path / "o"), "--lambda", "0.5",
                     "--dt", "0.5"])
        assert code == 2
        assert "error" in capsys.readouterr().err.lower()
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("shape, message", [
        ((51, 51), "n_pixels must be even and >= 8, got 51"),
        ((48, 64), "image must be square 2D, got shape (48, 64)"),
    ])
    def test_bad_input_file_exit_code_two_before_building(
            self, tmp_path, capsys, monkeypatch, shape, message):
        path, out = tmp_path / "bad.pgm", tmp_path / "P"
        write_pgm(path, np.full(shape, 0.5))
        built = []
        monkeypatch.setattr("srcortex.experiment.build_propagator",
                            lambda *args: built.append(args))
        code = main(["--model", "wc", "--input", str(path), "--out", str(out)])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not out.exists() and built == []

    @pytest.mark.parametrize("model", ["wc", "lhe"])
    def test_figure_scales_with_n(self, model):
        # the half-size figure the demos' --quick runs and the benchmark draw
        def stimulus(*flags):
            args = build_parser().parse_args(["--model", model, *flags])
            return config_from_args(args).stimulus

        assert stimulus("--N", "100") == StimulusSpec(
            n_pixels=100, bar_width=15, grating_period=12.5, line_thickness=1.5)
        assert stimulus() == StimulusSpec()

    def test_usage_error_exit_code_one(self):
        assert main(["--model", "nope"]) == 1

    def test_invalid_config_exit_code_one(self, capsys):
        # dt violates the stability bound for the given lambda
        code = main(["--model", "lhe", "--lambda", "4.0", "--dt", "0.5"])
        assert code == 1
        assert "error" in capsys.readouterr().err.lower()

    @pytest.mark.parametrize("flag, value, field", [
        ("--tau", "inf", "tau"), ("--tol", "nan", "tol"), ("--sigma-mu", "inf", "sigma_mu")])
    def test_non_finite_parameter_exit_code_one(self, tmp_path, capsys, flag, value, field):
        out = tmp_path / "P"
        code = main(["--model", "wc", flag, value, "--out", str(out)])
        assert code == 1
        assert f"srcortex: error: {field} must be finite, got {value}\n" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag, value, message", [
        ("--alpha", "1e308",
         "srcortex: error: alpha must be > 1 and <= 3.40282e+38 (float32), got 1e+308\n"),
        ("--sigma-mu", "1e300",
         "srcortex: runtime error: sigma_mu=1e+300: the local mean's kernel spans more "
         "than 1024 times the N=64 pixel axis\n"),
    ])
    def test_parameter_beyond_float32_or_the_grid_names_its_field(
            self, tmp_path, capsys, flag, value, message):
        # one error line, and no numpy warning on the way to it
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["--model", "wc", "--N", "64", flag, value, "--out", str(tmp_path / "P")])
        assert code == (1 if flag == "--alpha" else 2)
        assert capsys.readouterr().err == message

    def test_bad_sweep_value_names_the_flag(self, tmp_path, capsys):
        out = tmp_path / "o"
        code = main(["--model", "wc", "--sweep", "tau=0.1,abc", "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == (
            "srcortex: error: --sweep: could not convert string to float: 'abc'\n")
        assert not out.exists()

    def test_png_without_pillow_exit_code_two_before_writing(self, tmp_path, capsys,
                                                             monkeypatch):
        monkeypatch.setitem(sys.modules, "PIL", None)  # importing PIL raises ImportError
        path, out = tmp_path / "x.png", tmp_path / "P"
        path.write_bytes(b"\x89PNG\r\n\x1a\n")
        code = main(["--model", "wc", "--input", str(path), "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == (
            "srcortex: runtime error: PNG support needs Pillow: pip install Pillow\n")
        assert not out.exists()

    def test_colliding_sweep_exit_code_one(self, tmp_path, capsys):
        code = main(["--model", "lhe", "--sweep", "alpha=6,6.0000001",
                     "--out", str(tmp_path / "o")])
        assert code == 1
        assert "share the output directory" in capsys.readouterr().err

    def test_odd_size_exit_code_one_before_writing(self, tmp_path, capsys):
        out = tmp_path / "P"
        code = main(["--model", "wc", "--N", "51", "--out", str(out)])
        assert code == 1
        assert "n_pixels must be even" in capsys.readouterr().err
        assert not out.exists()

    def test_narrow_bar_exit_code_one_before_running(self, tmp_path, capsys):
        out = tmp_path / "P"
        code = main(["--model", "wc", "--N", "32", "--K", "8", "--out", str(out)])
        assert code == 1
        assert "probed columns" in capsys.readouterr().err
        assert not out.exists()

    def test_empty_sweep_exit_code_one(self, tmp_path, capsys):
        code = main(["--model", "lhe", "--sweep", "tau=", "--out", str(tmp_path / "o")])
        assert code == 1
        assert "sweep_param given without sweep_values" in capsys.readouterr().err

    def test_unsweepable_param_exit_code_one(self, tmp_path, capsys):
        code = main(["--model", "lhe", "--sweep", "n_orient=8,16",
                     "--out", str(tmp_path / "o")])
        assert code == 1
        assert "cannot sweep 'n_orient'" in capsys.readouterr().err

    def test_divergence_exit_code_two(self, tmp_path, capsys, monkeypatch):
        # a stimulus far outside [0, 1] drives contrasts beyond the fit domain
        monkeypatch.setattr("srcortex.experiment.make_stimulus",
                            lambda spec: 50.0 * poggendorff_gratings(spec))
        with np.errstate(over="ignore", invalid="ignore"):
            code = main(["--model", "lhe", "--N", "48", "--K", "8",
                         "--alpha", "8", "--dt", "0.15", "--tau", "0.1",
                         "--forcing", "discrete-paper", "--out", str(tmp_path / "o")])
        assert code == 2
        assert "diverged" in capsys.readouterr().err

    def test_small_end_to_end_run(self, tmp_path, capsys):
        code = main([
            "--model", "lhe", "--stimulus", "gratings",
            "--N", "48", "--K", "8", "--bw", "3",
            "--lambda", "2.0", "--alpha", "6.0", "--sigma-mu", "1.0",
            "--dt", "0.15", "--dtau", "0.05", "--tau", "0.25",
            "--poly-degree", "5", "--max-iters", "40",
            "--out", str(tmp_path / "cli"),
        ])
        assert code == 0
        assert (tmp_path / "cli" / "report.json").exists()
        assert "done:" in capsys.readouterr().out

    def test_every_model_field_has_a_flag_with_its_default(self):
        # the model is required; every other field defaults to the figure's value
        parser = build_parser()
        dests = {action.dest for action in parser._actions}
        for f in dataclasses.fields(ModelConfig):
            assert f.name in dests, f.name
            if f.name != "model":
                assert parser.get_default(f.name) is None, f.name
        for model in ("wc", "lhe"):
            args = parser.parse_args(["--model", model])
            assert config_from_args(args).model_cfg == ModelConfig.paper(model)

    @pytest.mark.parametrize("model", ["wc", "lhe"])
    @pytest.mark.parametrize("flag, field, value", [
        ("--tau", "tau", 0.5),
        ("--sigma-mu", "sigma_mu", 3.0),
        ("--max-iters", "max_iters", 7),
        ("--forcing", "forcing", "continuous"),
    ])
    def test_one_flag_changes_only_its_field(self, model, flag, field, value):
        args = build_parser().parse_args(["--model", model, flag, str(value)])
        expected = dataclasses.replace(ModelConfig.paper(model), **{field: value})
        assert config_from_args(args).model_cfg == expected

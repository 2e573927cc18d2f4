"""End-to-end command tests: exit codes, artifacts, config precedence."""

import csv
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import tula.cli
import tula.transform
from tula.analysis import classify_regime, estimate_lsi
from tula.cli import dump_config, load_config, main, run_gradient_suite
from tula.dynamics import TransformedPotential
from tula.sampler import ChainRun, SamplerConfig, run_tula
from tula.targets import ExampleKind, make_example, parse_target_name


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


class TestConfigHandling:
    def test_dump_load_round_trip(self, tmp_path):
        opts = {"target": "t3_2", "b": 0.75, "assumption": "A4", "L": 6.0}
        path = tmp_path / "config.json"
        dump_config(opts, path)
        assert load_config(path) == opts

    def test_flags_override_config_which_overrides_defaults(self, tmp_path):
        cfg = tmp_path / "classify.json"
        dump_config({"assumption": "strong", "vartheta": 2.5, "b": 0.5,
                     "rho": 1.0, "d": 1}, cfg)
        # config alone: vartheta 2.5 > rho/(2b) = 1, the weak branch
        rc = main(["classify", "--config", str(cfg), "--out", str(tmp_path / "a")])
        assert rc == 0
        assert read_json(tmp_path / "a" / "verdict.json")["regime"] == "weak_poincare"
        # the explicit flag wins: vartheta 0.5 < 1 is super-Poincare
        rc = main(["classify", "--config", str(cfg), "--vartheta", "0.5",
                   "--out", str(tmp_path / "b")])
        assert rc == 0
        assert read_json(tmp_path / "b" / "verdict.json")["regime"] == "super_poincare"

    def test_unknown_config_key_is_a_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        dump_config({"assumption": "strong", "vartheta": 1.0, "b": 0.5,
                     "rho": 1.0, "stepsize": 0.1}, cfg)
        rc = main(["classify", "--config", str(cfg)])
        assert rc == 2
        assert "stepsize" in capsys.readouterr().err

    def test_config_must_be_object(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        rc = main(["classify", "--config", str(path)])
        assert rc == 2

    def test_missing_config_file(self, tmp_path):
        rc = main(["classify", "--config", str(tmp_path / "absent.json")])
        assert rc == 2

    @pytest.mark.parametrize("options, key", [
        ({"chains": 2.7}, "chains"),
        ({"steps": "20"}, "steps"),
        ({"skip_diagnostics": "no"}, "skip_diagnostics"),
        ({"d": True}, "d"),
        ({"kappa": "3"}, "kappa"),
        ({"threshold": [5.0, "6"]}, "threshold"),
    ])
    def test_config_value_of_the_wrong_type_names_its_key(self, tmp_path, capsys, options, key):
        """Config values skipped the flags' types: 2.7 chains ran 2, "no"
        skipped the diagnostics and "3" for kappa died with a TypeError."""
        cfg = tmp_path / "config.json"
        dump_config({"target": "t", "d": 2, "kappa": 3.0, "gamma": 0.01, "steps": 20,
                     **options}, cfg)
        out = tmp_path / "out"
        rc = main(["sample", "--config", str(cfg), "--out", str(out)])
        assert rc == 2
        assert f"error: config key {key!r} must be of type " in capsys.readouterr().err
        assert not out.exists()

    def test_null_config_value_means_unset(self, tmp_path):
        """null leaves a key at its default, or, for a required option, missing."""
        cfg = tmp_path / "config.json"
        dump_config({"target": "t2_3", "gamma": 0.01, "steps": 20, "seed": None,
                     "chains": None, "burn_in": None, "skip_diagnostics": None}, cfg)
        assert main(["sample", "--config", str(cfg), "--out", str(tmp_path / "a")]) == 0
        assert main(["sample", "--target", "t2_3", "--gamma", "0.01", "--steps", "20",
                     "--out", str(tmp_path / "b")]) == 0
        for name in ("chain.csv", "summary.json", "diagnostics.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        dump_config({"target": "t2_3", "gamma": None, "steps": 20}, cfg)
        assert main(["sample", "--config", str(cfg), "--out", str(tmp_path / "c")]) == 2

    def test_integer_serves_a_float_option(self, tmp_path):
        cfg = tmp_path / "config.json"
        dump_config({"assumption": "strong", "vartheta": 2, "b": 1, "rho": 1}, cfg)
        assert main(["classify", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        direct = classify_regime("strong", vartheta=2.0, dimension=1, b=1.0, rho=1.0)
        assert read_json(tmp_path / "verdict.json") == direct.to_dict()


class TestUsageErrors:
    def test_no_command_exits_via_argparse(self):
        with pytest.raises(SystemExit):
            main([])

    def test_missing_target(self, capsys):
        assert main(["check", "--assumption", "A4"]) == 2
        assert "target" in capsys.readouterr().err

    def test_unknown_target(self, capsys):
        assert main(["check", "--target", "cauchy", "--assumption", "A4"]) == 2
        assert "unknown target" in capsys.readouterr().err

    def test_sample_needs_gamma_and_steps(self, tmp_path, capsys):
        rc = main(["sample", "--target", "t2_3", "--out", str(tmp_path)])
        assert rc == 2
        assert "gamma" in capsys.readouterr().err

    @pytest.mark.parametrize("target, name", [
        (["--target", "t", "--d", "2", "--kappa", "inf"], "kappa"),
        (["--target", "t2_3", "--b", "inf"], "b"),
        (["--target", "example6", "--d", "2", "--vartheta", "inf"], "vartheta"),
        (["--target", "warmup", "--d", "2", "--knot", "inf"], "knot"),
    ])
    def test_non_finite_target_parameter_names_it(self, tmp_path, capsys, target, name):
        """`--kappa inf` died with an OverflowError traceback (exit 1), and
        `--vartheta inf` said "b must be positive, got 0.0"."""
        rc = main(["gradcheck", *target, "--points", "4", "--out", str(tmp_path)])
        assert rc == 2
        assert f"error: {name} must be positive and finite" in capsys.readouterr().err

    def test_non_finite_init_scale_names_the_option(self, tmp_path, capsys):
        rc = main(["sample", "--target", "t2_3", "--gamma", "0.01", "--steps", "10",
                   "--init-scale", "nan", "--out", str(tmp_path)])
        assert rc == 2
        assert "init_scale" in capsys.readouterr().err

    @pytest.mark.parametrize("target, option", [("example6", "vartheta"), ("warmup", "knot")])
    def test_zero_tail_parameter_names_the_option(self, tmp_path, capsys, target, option):
        """0 is a value, not a missing option: it reaches the zoo, which
        rejects it by name, instead of silently becoming the default 1."""
        rc = main(["gradcheck", "--target", target, "--d", "2", f"--{option}", "0",
                   "--points", "4", "--out", str(tmp_path)])
        assert rc == 2
        assert option in capsys.readouterr().err

    @pytest.mark.parametrize("threshold", ["-1", "nan"])
    def test_threshold_that_is_not_a_radius_names_the_option(self, tmp_path, capsys, threshold):
        """A negative threshold made a tail check that cannot fail, and NaN
        failed inside the quadrature without naming the option.  Either is
        a usage error before any step runs, so the run writes nothing."""
        rc = main(["sample", "--target", "t2_3", "--gamma", "0.01", "--steps", "50",
                   "--threshold", threshold, "--out", str(tmp_path)])
        assert rc == 2
        assert "thresholds" in capsys.readouterr().err
        assert not (tmp_path / "chain.csv").exists()
        assert not (tmp_path / "diagnostics.json").exists()

    @pytest.mark.parametrize("argv, option", [
        (["check", "--assumption", "A1", "--grid-min", "nan"], "grid"),
        (["lsi", "--r-max", "nan"], "r_max"),
    ])
    def test_non_finite_cutoff_names_the_option(self, tmp_path, capsys, argv, option):
        rc = main([*argv, "--target", "example6", "--d", "2", "--out", str(tmp_path)])
        assert rc == 2
        assert option in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["lsi", "--grid-size", "100000000000"],
         "grid_size must lie in [16, 1048576], got 100000000000"),
        *((["check", "--assumption", "A1", "--grid-points", n],
           f"grid_points must be at least 2, got {n}") for n in ("-1", "0", "1")),
        (["check", "--assumption", "A1", "--grid-points", "100000000000"],
         "grid_points must be at most 1048576, got 100000000000"),
        (["gradcheck", "--points", "100000000000"],
         "num_points must lie in [1, 1048576], got 100000000000"),
    ], ids=["grid-size-1e11", "grid-points-neg1", "grid-points-0", "grid-points-1",
            "grid-points-1e11", "points-1e11"])
    def test_grid_size_out_of_range_names_the_option(self, tmp_path, capsys, argv, message):
        """A grid too large to allocate, or with fewer than two radii, is a
        usage error naming its option, raised before any grid is built:
        `--grid-size 100000000000` died allocating 745 GiB with exit 1, and
        `--grid-points -1` exited 2 with numpy's message."""
        tracemalloc.start()
        try:
            rc = main([*argv, "--target", "t3_2", "--out", str(tmp_path)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert peak < 16 * 2**20
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("argv, name", [
        (["check", "--target", "t3_2", "--assumption", "A1", "--A", "nan"], "A"),
        (["check", "--target", "t3_2", "--assumption", "A3", "--rho", "-1"], "rho"),
        (["check", "--target", "t3_2", "--assumption", "A4", "--L", "inf"], "L"),
        (["classify", "--assumption", "strong", "--vartheta", "1", "--b", "0.5",
          "--rho", "nan"], "rho"),
    ])
    def test_constant_out_of_range_names_it(self, tmp_path, capsys, argv, name):
        """A NaN, infinite or out-of-range constant is a usage error naming
        it; before, these wrote a report or a verdict."""
        assert main([*argv, "--out", str(tmp_path)]) == 2
        assert f"error: {name} must lie in " in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_classify_needs_constants(self, capsys):
        assert main(["classify", "--assumption", "strong", "--b", "0.5"]) == 2

    @pytest.mark.parametrize("argv", [
        ["sample", "--target", "t2_3", "--gamma", "0.01", "--steps", "10", "--seed", "-1"],
        ["gradcheck", "--target", "t2_3", "--points", "4", "--seed", "-1"],
    ])
    def test_negative_seed_names_it(self, tmp_path, capsys, argv):
        """`--seed -1` exited 2 with numpy's "expected non-negative integer",
        which names nothing."""
        assert main([*argv, "--out", str(tmp_path)]) == 2
        assert "error: seed must be an integer >= 0, got -1" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_option_contradicting_the_target_name_is_a_usage_error(self, tmp_path, capsys):
        """`--target t2_3 --d 5 --kappa 7` ran d = 2, kappa = 3 and echoed
        d = 5, kappa = 7 into gradcheck.json."""
        rc = main(["gradcheck", "--target", "t2_3", "--d", "5", "--kappa", "7",
                   "--points", "4", "--out", str(tmp_path)])
        assert rc == 2
        assert "dimension 5 contradicts target 't2_3'" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())
        assert main(["gradcheck", "--target", "t2_3", "--d", "2", "--kappa", "3",
                     "--points", "4", "--out", str(tmp_path)]) == 0

    @pytest.mark.parametrize("argv, named", [
        (["--target", "example3", "--d", "4", "--b", "0.75", "--kappa", "9", "--knot", "7"],
         "target 'example3' takes no kappa, b, knot; it takes vartheta"),
        (["--target", "t2_3", "--knot", "7"], "target 't' takes no knot; it takes kappa and b"),
    ])
    def test_parameter_the_target_does_not_take_is_a_usage_error(self, tmp_path, capsys,
                                                                  argv, named):
        """example3 built b = d/(2 vartheta) = 2 and t2_3 ignored the knot, yet
        both exited 0 and echoed the unused values into gradcheck.json."""
        rc = main(["gradcheck", *argv, "--points", "4", "--out", str(tmp_path)])
        assert rc == 2
        assert f"error: {named}" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())


class TestClassifyCommand:
    def test_matches_library_verdict(self, tmp_path):
        rc = main(["classify", "--assumption", "dissipativity", "--vartheta", "1.0",
                   "--d", "3", "--b", "0.75", "--alpha", "2.0", "--A", "3.0",
                   "--out", str(tmp_path)])
        assert rc == 0
        payload = read_json(tmp_path / "verdict.json")
        direct = classify_regime("dissipativity", vartheta=1.0, dimension=3,
                                 b=0.75, alpha=2.0, A=3.0).to_dict()
        assert payload == direct

    def test_stdout_carries_the_verdict(self, tmp_path, capsys):
        main(["classify", "--assumption", "strong", "--vartheta", "0.5",
              "--b", "0.5", "--d", "3", "--rho", "1.0", "--out", str(tmp_path)])
        out = json.loads(capsys.readouterr().out)
        assert out["regime"] == "super_poincare"


    def test_witness_out_of_float_range_is_a_usage_error(self, tmp_path, capsys):
        rc = main(["classify", "--assumption", "strong", "--vartheta", "1", "--b", "1e300",
                   "--beta", "1.25", "--rho", "1", "--out", str(tmp_path)])
        assert rc == 2
        assert "witness leaves float range" in capsys.readouterr().err
        assert not (tmp_path / "verdict.json").exists()


class TestCheckCommand:
    def test_passing_candidate_exits_zero(self, tmp_path):
        rc = main(["check", "--target", "t3_2", "--b", "0.75",
                   "--assumption", "A4", "--L", "6.0", "--out", str(tmp_path)])
        assert rc == 0
        payload = read_json(tmp_path / "assumption.json")
        assert payload["pass"] is True
        assert payload["fitted_constants"]["L"] == 6.0
        echo = payload["target"]
        assert echo["target"] == "t3_2" and echo["b"] == 0.75

    def test_failing_candidate_exits_one(self, tmp_path):
        rc = main(["check", "--target", "t3_2", "--b", "0.75",
                   "--assumption", "A4", "--L", "0.5", "--out", str(tmp_path)])
        assert rc == 1
        assert read_json(tmp_path / "assumption.json")["pass"] is False

    def test_tail_flag_maps_to_constant(self, tmp_path):
        rc = main(["check", "--target", "t3_2", "--b", "0.75",
                   "--assumption", "A5", "--C-tail", "0.001", "--out", str(tmp_path)])
        assert rc == 1
        payload = read_json(tmp_path / "assumption.json")
        assert payload["fitted_constants"]["C_tail"] == 0.001

    def test_custom_grid(self, tmp_path):
        rc = main(["check", "--target", "t3_2", "--b", "0.75",
                   "--assumption", "A4", "--L", "6.0", "--grid-min", "2.0",
                   "--grid-max", "50.0", "--grid-points", "64",
                   "--out", str(tmp_path)])
        assert rc == 0
        grid = read_json(tmp_path / "assumption.json")["grid"]
        assert len(grid) == 64
        assert grid[0] == pytest.approx(2.0)
        assert grid[-1] == pytest.approx(50.0)

    def test_grid_flags_fill_in_from_the_default_grid(self, tmp_path):
        """With the knot at 100 the default grid runs over [100, 200]; a
        lone --grid-points keeps those ends instead of ending at 100."""
        args = ["check", "--target", "t", "--d", "2", "--kappa", "3", "--b", "1e-4",
                "--assumption", "A1"]
        assert main([*args, "--out", str(tmp_path / "default")]) in (0, 1)
        default = read_json(tmp_path / "default" / "assumption.json")["grid"]
        assert main([*args, "--grid-points", "64", "--out", str(tmp_path / "sized")]) in (0, 1)
        grid = read_json(tmp_path / "sized" / "assumption.json")["grid"]
        assert len(default) == 512 and len(grid) == 64
        assert (grid[0], grid[-1]) == (default[0], default[-1]) == (100.0, 200.0)


class TestLsiCommand:
    def test_artifacts_match_direct_estimate(self, tmp_path):
        rc = main(["lsi", "--target", "example3", "--d", "4",
                   "--grid-size", "256", "--out", str(tmp_path)])
        assert rc == 0
        payload = read_json(tmp_path / "lsi.json")
        entry = make_example(ExampleKind.EXAMPLE3, 4, vartheta=1.0)
        direct = estimate_lsi(TransformedPotential(entry.potential, entry.transform),
                              grid_size=256)
        assert payload["bound"] == pytest.approx(direct.bound, rel=1e-12)
        assert payload["a0"] == pytest.approx(direct.a0, rel=1e-12)
        assert payload["bound"] == pytest.approx(16.0 / 28.0, rel=1e-3)
        with open(tmp_path / "lsi_table.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["r", "lambda1", "lambda2", "beta_bar"]
        assert len(rows) == 257
        assert float(rows[1][0]) == pytest.approx(direct.radii[0])

    def test_inapplicable_profile_exits_one(self, tmp_path, capsys):
        rc = main(["lsi", "--target", "t2_1", "--b", "1.0", "--out", str(tmp_path)])
        assert rc == 1
        assert "nonpositive" in capsys.readouterr().err


class TestGradcheckCommand:
    def test_small_suite_passes(self, tmp_path):
        rc = main(["gradcheck", "--target", "t", "--d", "2", "--kappa", "2.5",
                   "--points", "40", "--seed", "1", "--out", str(tmp_path)])
        assert rc == 0
        payload = read_json(tmp_path / "gradcheck.json")
        assert payload["pass"] is True
        assert payload["points"] == 40
        assert payload["grad_max_rel"] < payload["grad_tol"]
        assert payload["hess_max_rel"] < payload["hess_tol"]

    def test_suite_rejects_empty(self):
        entry = make_example(ExampleKind.MULTIVARIATE_T, 2, kappa=2.5)
        tp = TransformedPotential(entry.potential, entry.transform)
        with pytest.raises(ValueError, match="num_points"):
            run_gradient_suite(tp, num_points=0)

    @pytest.mark.parametrize("num_points", [2.5, 40.0, np.float64(40.0), True, "40"])
    def test_suite_rejects_a_count_that_is_not_an_integer(self, num_points):
        """num_points=2.5 failed inside numpy with a TypeError, and
        num_points=True ran one point."""
        entry = make_example(ExampleKind.MULTIVARIATE_T, 2, kappa=2.5)
        tp = TransformedPotential(entry.potential, entry.transform)
        with pytest.raises(ValueError, match="num_points must be an integer"):
            run_gradient_suite(tp, num_points=num_points)

    @pytest.mark.parametrize("argv, echo", [
        (["--target", "t2_3"], {"target": "t2_3"}),
        (["--target", "example3", "--d", "2", "--vartheta", "2"],
         {"target": "example3", "d": 2, "vartheta": 2.0}),
        (["--target", "warmup", "--d", "2", "--knot", "0.5"],
         {"target": "warmup", "d": 2, "knot": 0.5}),
    ])
    def test_target_echo_holds_only_given_options(self, tmp_path, argv, echo):
        assert main(["gradcheck", *argv, "--points", "4", "--out", str(tmp_path)]) == 0
        assert read_json(tmp_path / "gradcheck.json")["target"] == echo


class TestSampleCommand:
    def test_artifacts_without_diagnostics(self, tmp_path):
        rc = main(["sample", "--target", "t2_3", "--gamma", "0.01",
                   "--steps", "200", "--seed", "0", "--skip-diagnostics",
                   "--out", str(tmp_path)])
        assert rc == 0
        summary = read_json(tmp_path / "summary.json")
        assert summary["any_diverged"] is False
        assert summary["chains"][0]["recorded"] == 201
        assert summary["target"]["target"] == "t2_3"
        assert "transform" in summary
        assert not (tmp_path / "diagnostics.json").exists()

        with open(tmp_path / "trace.csv", newline="") as fh:
            trace = list(csv.DictReader(fh))
        assert len(trace) == 201
        with open(tmp_path / "chain.csv", newline="") as fh:
            chain_rows = [r for r in csv.DictReader(fh) if r["space"] == "x"]
        # the trace radius is the norm of the paired chain.csv x row
        x0 = np.array([float(chain_rows[0]["coord0"]), float(chain_rows[0]["coord1"])])
        assert float(trace[0]["radius_x"]) == pytest.approx(np.linalg.norm(x0), rel=1e-12)

    def test_diagnostics_artifact(self, tmp_path):
        rc = main(["sample", "--target", "t2_3", "--gamma", "0.01",
                   "--steps", "400", "--seed", "2", "--chains", "2",
                   "--threshold", "2.0", "--threshold", "5.0",
                   "--out", str(tmp_path)])
        assert rc == 0
        payload = read_json(tmp_path / "diagnostics.json")
        assert payload["burn_in"] == 200  # half of the recorded rows
        assert [t["threshold"] for t in payload["tails"]] == [2.0, 5.0]
        assert "pass" in payload

    def test_threshold_zero_from_config_is_kept(self, tmp_path):
        """Only a missing threshold means the default 5; 0 is a radius."""
        config = tmp_path / "sample.json"
        dump_config({"threshold": 0}, config)
        rc = main(["sample", "--config", str(config), "--target", "t2_3", "--gamma", "0.01",
                   "--steps", "100", "--out", str(tmp_path)])
        assert rc == 0
        tails = read_json(tmp_path / "diagnostics.json")["tails"]
        assert [t["threshold"] for t in tails] == [0.0]

    def test_empty_threshold_list_is_a_usage_error(self, tmp_path, capsys):
        config = tmp_path / "sample.json"
        dump_config({"threshold": []}, config)
        rc = main(["sample", "--config", str(config), "--target", "t2_3", "--gamma", "0.01",
                   "--steps", "100", "--out", str(tmp_path)])
        assert rc == 2
        assert "threshold" in capsys.readouterr().err
        assert not (tmp_path / "chain.csv").exists()

    def test_tail_error_floored_when_no_radius_exceeds(self, tmp_path):
        """With no recorded radius past T the series error is 0; the check
        falls back to the reference's binomial error at the radius ESS."""
        rc = main(["sample", "--target", "t2_3", "--gamma", "0.005", "--steps", "400",
                   "--out", str(tmp_path)])
        assert rc == 0
        payload = read_json(tmp_path / "diagnostics.json")
        (tail,) = payload["tails"]
        p, ess = tail["reference"], payload["ks"]["ess"]
        assert tail["empirical"] == 0.0 and 0.0 < p < 0.01
        assert tail["std_error"] == pytest.approx(math.sqrt(p * (1.0 - p) / ess), rel=1e-12)
        assert tail["within_3se"] is True

    def test_explicit_burn_in(self, tmp_path):
        rc = main(["sample", "--target", "t2_3", "--gamma", "0.01",
                   "--steps", "120", "--seed", "2", "--burn-in", "30",
                   "--out", str(tmp_path)])
        assert rc == 0
        assert read_json(tmp_path / "diagnostics.json")["burn_in"] == 30

    def test_maps_each_chain_through_h_once(self, tmp_path, monkeypatch):
        """chain.csv, trace.csv, the summary and the diagnostics share one
        mapping of each chain through h."""
        calls = []
        h_forward = tula.transform.h_forward

        def counted(t, x):
            calls.append(len(x))
            return h_forward(t, x)

        monkeypatch.setattr(tula.transform, "h_forward", counted)
        rc = main(["sample", "--target", "t2_3", "--gamma", "0.01",
                   "--steps", "200", "--seed", "0", "--chains", "2",
                   "--out", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "diagnostics.json").exists()
        assert calls == [201, 201]

    def test_divergence_exits_one_without_diagnostics(self, tmp_path, capsys):
        rc = main(["sample", "--target", "example6", "--d", "2",
                   "--gamma", "5.0", "--steps", "300", "--seed", "1",
                   "--out", str(tmp_path)])
        assert rc == 1
        assert "divergence" in capsys.readouterr().err
        assert read_json(tmp_path / "summary.json")["any_diverged"] is True
        assert not (tmp_path / "diagnostics.json").exists()


def _row_by_row_chain_csv(run, path):
    """``write_chain_csv`` as first written: each row joined on its own."""
    dim = run.ys[0].shape[1]
    header = ["chain", "step", "space"] + [f"coord{i}" for i in range(dim)]
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for chain, (y_arr, x_arr, step_arr) in enumerate(zip(run.ys, run.xs, run.steps)):
            lines = []
            for step, y_row, x_row in zip(step_arr.tolist(), y_arr.tolist(), x_arr.tolist()):
                lines.append(f"{chain},{step},y,{','.join(map(repr, y_row))}\r\n")
                lines.append(f"{chain},{step},x,{','.join(map(repr, x_row))}\r\n")
            fh.write("".join(lines))


def _row_by_row_trace_csv(run, path):
    """``cmd_sample``'s trace.csv as first written: one f-string per radius."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("chain,step,radius_x\n")
        for chain, (x_arr, step_arr) in enumerate(zip(run.xs, run.steps)):
            radii = np.linalg.norm(x_arr, axis=1).tolist()
            fh.write("".join(f"{chain},{s},{r!r}\n" for s, r in zip(step_arr.tolist(), radii)))


@pytest.mark.parametrize("d", [1, 2, 5])
@pytest.mark.parametrize("thin", [1, 3])
def test_sample_csv_files_equal_the_row_by_row_writers(tmp_path, monkeypatch, d, thin):
    """chain.csv and trace.csv, formatted column by column, are byte for byte
    the row-by-row writers' files, also when a diverged chain was cut short."""
    entry = parse_target_name(f"t{d}_3")
    tp = TransformedPotential(entry.potential, entry.transform)
    cfg = SamplerConfig(step_size=0.005, num_steps=300, seed=5, thin=thin, num_chains=3)
    full = run_tula(tp, cfg)
    cut = full.ys[1].shape[0] // 3
    run = ChainRun(config=cfg, ys=(full.ys[0], full.ys[1][:cut], full.ys[2]),
                   steps=(full.steps[0], full.steps[1][:cut], full.steps[2]),
                   diverged=(False, True, False), transform=tp.transform)
    monkeypatch.setattr(tula.cli, "run_tula", lambda tp, cfg: run)
    out = tmp_path / "out"
    assert main(["sample", "--target", f"t{d}_3", "--gamma", "0.005", "--steps", "300",
                 "--thin", str(thin), "--chains", "3", "--out", str(out)]) == 1
    _row_by_row_chain_csv(run, tmp_path / "chain.csv")
    _row_by_row_trace_csv(run, tmp_path / "trace.csv")
    for name in ("chain.csv", "trace.csv"):
        assert (out / name).read_bytes() == (tmp_path / name).read_bytes()


def test_sample_calls_each_traced_function_once(tmp_path, monkeypatch):
    """The benchmark's tracer wraps these names as `tula.cli` globals, so
    `cmd_sample` must look each up there, once per run."""
    names = ("run_tula", "write_chain_csv", "run_summary", "radial_diagnostics")
    calls = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, _name=name, _fn=getattr(tula.cli, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(tula.cli, name, counted)
    rc = main(["sample", "--target", "t2_3", "--gamma", "0.01", "--steps", "50",
               "--chains", "2", "--out", str(tmp_path)])
    assert rc == 0
    assert calls == dict.fromkeys(names, 1)


@pytest.mark.parametrize("command, shown", [
    ("sample", "number of chains (default 1)"),
    ("check", "output directory (default .)"),
    ("lsi", "profile grid size in [16, 2**20] (default 1024)"),
    ("classify", "tail exponent in (1, 2] (default 2.0)"),
    ("gradcheck", "sample size in [1, 2**20] (default 1000)"),
])
def test_help_shows_the_table_defaults(capsys, command, shown):
    with pytest.raises(SystemExit) as exit_info:
        main([command, "--help"])
    assert exit_info.value.code == 0
    assert shown in " ".join(capsys.readouterr().out.split())


def test_import_does_not_load_scipy():
    """The package runs on numpy alone: importing the CLI, and with it every
    tula module, loads no scipy module."""
    src = Path(tula.transform.__file__).resolve().parents[1]
    path = os.pathsep.join(filter(None, (str(src), os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path}
    code = ("import sys, tula.cli; "
            "print([m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')])")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True, timeout=60)
    assert proc.stdout.strip() == "[]"


# the 61 names `tula` exported before its surface came from the modules' `__all__`
_EARLIER_SURFACE = """
    AssumptionKind AssumptionReport ChainRun DiagnosticsReport DivergenceError ExampleKind
    G1Report GinSpec HessianEigenvalues IsotropicPotential ItoDecomposition LsiEstimate
    NotApplicableError RadialQuadrature RadialTransform Regime RegimeVerdict SamplerConfig
    TargetZooEntry TransformedForm TransformedPotential UndefinedMomentError
    available_targets check_assumption classify_regime effective_sample_size estimate_lsi
    g_eval g_inverse ginbeta2_profile ginbeta2_transform grad_factor h_forward h_inverse
    hessian_eigenvalues ito_drift_diffusion ito_drift_parts kl_quadrature_1d
    log_det_jacobian make_example make_multivariate_t parse_target_name plan_step_size
    radial_diagnostics radial_log_density run_summary run_tula run_ula tula_step
    transform_from_dict transform_from_json transform_to_dict transform_to_json
    transformed_gradient transformed_log_density transformed_value value_radial
    verify_g1_assumption warmup_profile warmup_transform write_chain_csv
""".split()
_MODULES = (tula.analysis, tula.dynamics, tula.sampler, tula.targets, tula.transform)


def test_package_exports_every_public_name_of_its_modules():
    """`tula.__all__` is the five modules' `__all__` and `__version__`; it
    keeps every earlier name, and each name is its module's very object."""
    assert len(set(_EARLIER_SURFACE)) == 61
    assert set(_EARLIER_SURFACE) | {"__version__"} <= set(tula.__all__)
    assert sorted(tula.__all__) == sorted(
        ["__version__", *(name for module in _MODULES for name in module.__all__)])
    for module in _MODULES:
        for name in module.__all__:
            assert getattr(tula, name) is getattr(module, name), (module.__name__, name)
    assert "cli" not in tula.__all__


def test_no_name_is_exported_by_two_modules():
    """A star import would let the later module's name shadow the earlier's."""
    owners: dict[str, list[str]] = {}
    for module in (*_MODULES, tula.cli):
        for name in module.__all__:
            owners.setdefault(name, []).append(module.__name__)
    assert {name: mods for name, mods in owners.items() if len(mods) > 1} == {}


def test_top_level_names_are_exported_by_their_modules():
    """Every name `tula` exports, other than its version, is in the
    `__all__` of the module it comes from."""
    for name in tula.__all__:
        if name == "__version__":
            continue
        module = sys.modules[getattr(tula, name).__module__]
        assert name in module.__all__, (name, module.__name__)

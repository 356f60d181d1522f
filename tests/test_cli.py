import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fusecluster import cli
from fusecluster.cli import main, parse_grid, parse_int_grid


def run_in(tmp_path, argv, env=None):
    cwd = os.getcwd()
    old_env = {}
    try:
        os.chdir(tmp_path)
        if env:
            for k, v in env.items():
                old_env[k] = os.environ.get(k)
                os.environ[k] = v
        return main(argv)
    finally:
        os.chdir(cwd)
        for k, v in old_env.items():
            if v is None:
                os.environ.pop(k, None)
            else:
                os.environ[k] = v


# --lambda-grid texts that are usage errors, each with the message naming
# why: a listed lambda that is not finite and positive, or a range bound
# that is not finite.
BAD_LAMBDA_GRIDS = [
    *(pytest.param(g, "lambda must be finite and positive", id=g)
      for g in ("8,nan", "8,0", "8,-2", "8,inf")),
    *(pytest.param(g, f"grid '{g}' has a bound that is not finite", id=g)
      for g in ("1:inf:1", "nan:8:1")),
]


class TestParseGrid:
    def test_colon_range_inclusive(self):
        grid = parse_grid("0:1:0.25")
        assert grid == (0.0, 0.25, 0.5, 0.75, 1.0)

    def test_comma_list(self):
        assert parse_grid("0.2,0.5,1.0") == (0.2, 0.5, 1.0)

    def test_int_grid(self):
        assert parse_int_grid("10,50") == (10, 50)

    def test_int_grid_rejects_fractional_values(self):
        with pytest.raises(ValueError, match="4.5"):
            parse_int_grid("10,4.5")

    def test_fractional_step_count(self):
        assert len(parse_grid("0:1:0.02")) == 51

    def test_range_points_carry_no_float_noise(self):
        assert parse_grid("0.2:1.0:0.1") == (0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)
        assert parse_grid("0:1:0.02") == tuple(i / 50 for i in range(51))

    def test_empty_range_raises(self):
        with pytest.raises(ValueError, match="empty"):
            parse_grid("1:0:0.1")

    @pytest.mark.parametrize("text", ["1:inf:1", "-inf:1:1", "nan:1:0.1", "0:1:nan", "0:1:inf"])
    def test_non_finite_range_bound_raises_naming_the_grid(self, text):
        with pytest.raises(ValueError, match=f"grid '{text}' has a bound that is not finite"):
            parse_grid(text)


class TestExitCodes:
    def test_version_exits_zero(self, tmp_path, capsys):
        assert run_in(tmp_path, ["version"]) == 0
        assert capsys.readouterr().out.strip() == "0.1.0"

    def test_unknown_flag_is_usage_error(self, tmp_path):
        assert run_in(tmp_path, ["theory", "--nope"]) == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["cluster", "--input", "toy.csv", "--lambda", "1", "--rho", "1e-8"],
            ["oracle-check", "--trials", "1", "--epsilon-scale", "2"],
        ],
    )
    def test_deleted_settings_are_unknown_flags(self, tmp_path, capsys, argv):
        # --rho weighed a term the solved objective no longer has, and the
        # bound check runs at the epsilon it measures; neither is a flag.
        (tmp_path / "toy.csv").write_text("0.0,0.0\n9.0,9.0\n")
        assert run_in(tmp_path, argv) == 1
        assert f"unrecognized arguments: {argv[-2]}" in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path)) == ["toy.csv"]

    def test_module_runs_as_a_process(self, tmp_path):
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))

        def run(*args):
            cmd = [sys.executable, "-m", "fusecluster.cli", *args]
            return subprocess.run(cmd, cwd=tmp_path, env=env, capture_output=True, text=True)

        ok = run("version")
        assert (ok.returncode, ok.stdout) == (0, "0.1.0\n")
        bad = run("version", "--nope")
        assert bad.returncode == 1
        assert "unrecognized arguments: --nope" in bad.stderr

    def test_missing_subcommand_is_usage_error(self, tmp_path):
        assert run_in(tmp_path, []) == 1

    def test_runtime_error_exits_two(self, tmp_path):
        # kappa >= 1 makes the guarantee evaluation fail at runtime.
        assert run_in(tmp_path, ["theory", "--kappa", "1.5"]) == 2

    def test_empty_grid_exits_two(self, tmp_path):
        assert run_in(tmp_path, ["theory", "--p0-grid", "1:0:0.1"]) == 2
        assert not (tmp_path / "theory_guarantees.csv").exists()

    def test_non_finite_grid_bound_exits_two_naming_the_grid(self, tmp_path, capsys):
        assert run_in(tmp_path, ["theory", "--p0-grid", "nan:1:0.1"]) == 2
        assert "grid 'nan:1:0.1' has a bound that is not finite" in capsys.readouterr().err
        assert not (tmp_path / "theory_guarantees.csv").exists()

    def test_nan_solver_setting_exits_nonzero(self, tmp_path, capsys):
        (tmp_path / "toy.csv").write_text("0.0,0.0\n9.0,9.0\n")
        argv = ["cluster", "--input", "toy.csv", "--lambda", "1", "--tol", "nan"]
        assert run_in(tmp_path, argv) == 2
        assert "objective_rel_tol must be finite" in capsys.readouterr().err
        assert not (tmp_path / "labels.csv").exists()

    def test_fractional_m_grid_exits_two(self, tmp_path, capsys):
        argv = ["simulate", "--preset", "fig3a", "--m-grid", "4.5", "--out-dir", "."]
        assert run_in(tmp_path, argv) == 2
        assert "4.5 is not an integer" in capsys.readouterr().err
        assert not (tmp_path / "fig3a_success.csv").exists()

    def test_missing_input_file_exits_two(self, tmp_path):
        code = run_in(tmp_path, ["cluster", "--input", "nope.csv", "--lambda", "1"])
        assert code == 2

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["cluster", "--penalty", "lp", "--sigma", "-1"], "--sigma applies to --penalty h1"),
            (["cluster", "--penalty", "h1", "--p", "7"], "--p applies to --penalty lp"),
            (["cluster", "--p", "0.5"], "--p applies to --penalty lp"),
            (["simulate", "--preset", "fig3a", "--p0", "0.5"], "--p0 applies to single-run"),
            (["simulate", "--preset", "fig3a", "--lambda", "8"], "--lambda applies to single-run"),
            (
                ["simulate", "--preset", "fig3c", "--merge-tol", "0.1"],
                "--merge-tol applies to single-run",
            ),
            (
                ["simulate", "--preset", "fig4-dataset1", "--trials", "1"],
                "--trials applies to success-grid",
            ),
            (
                ["simulate", "--preset", "fig4-dataset1", "--m-grid", "4"],
                "--m-grid applies to success-grid",
            ),
            (
                ["simulate", "--preset", "fig4-dataset2", "--p0-grid", "1.0"],
                "--p0-grid applies to success-grid",
            ),
            (
                ["simulate", "--preset", "fig4-dataset2", "--lambda-grid", "8"],
                "--lambda-grid applies to success-grid",
            ),
        ],
    )
    def test_flag_the_run_does_not_read_is_usage_error(self, tmp_path, capsys, argv, message):
        # Each flag is read only by the other penalty or the other kind of
        # preset; accepting it would run as if it had not been given.
        (tmp_path / "toy.csv").write_text("0.0,0.0\n0.1,0.0\n9.0,9.0\n9.1,9.0\n")
        if argv[0] == "cluster":
            argv = argv + ["--input", "toy.csv", "--lambda", "2.0"]
        assert run_in(tmp_path, argv + ["--out-dir", "."]) == 1
        assert message in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["toy.csv"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["theory"],
            ["simulate", "--preset", "fig4-dataset1"],
            ["cluster", "--input", "toy.csv", "--lambda", "2"],
            ["wine", "--wine-csv", "wine.data"],
            ["oracle-check"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_negative_seed_is_usage_error(self, tmp_path, capsys, argv):
        # numpy rejects negative seeds; the parser does so before any
        # directory is created or any run starts.
        (tmp_path / "toy.csv").write_text("0.0,0.0\n9.0,9.0\n")
        assert run_in(tmp_path, argv + ["--seed", "-1", "--out-dir", "o"]) == 1
        assert "--seed must be non-negative, got -1" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "flags",
        [["--out-dir", "o"], ["--seed", "-1"], ["--threads", "1"], ["--config", "run.cfg"]],
        ids=["out-dir", "seed", "threads", "config"],
    )
    def test_version_takes_no_flags(self, tmp_path, capsys, flags):
        # version reads no flag, so each one is a usage error, and it
        # creates nothing.
        (tmp_path / "run.cfg").write_text("seed=1\n")
        assert run_in(tmp_path, ["version", *flags]) == 1
        assert "unrecognized arguments" in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["run.cfg"]

    @pytest.mark.parametrize("name", ["missing.cfg", "run.cfg"])
    def test_version_rejects_config_unopened(self, tmp_path, capsys, monkeypatch, name):
        # Only the subcommands that take --config read it: version rejects
        # the flag itself and opens no file, present or missing.
        (tmp_path / "run.cfg").write_text("seed=1\n")
        opened = []
        monkeypatch.setattr(cli, "open", lambda path, *a, **k: opened.append(path), raising=False)
        assert run_in(tmp_path, ["version", "--config", name]) == 1
        assert "unrecognized arguments: --config" in capsys.readouterr().err
        assert opened == []

    @pytest.mark.parametrize("lam", ["nan", "inf", "0", "-1"])
    @pytest.mark.parametrize(
        "argv",
        [["cluster", "--input", "toy.csv"], ["simulate", "--preset", "fig4-dataset1"]],
        ids=lambda argv: argv[0],
    )
    def test_bad_lambda_is_a_usage_error_before_the_out_dir(self, tmp_path, capsys, argv, lam):
        (tmp_path / "toy.csv").write_text("0.0,0.0\n9.0,9.0\n")
        assert run_in(tmp_path, argv + [f"--lambda={lam}", "--out-dir", "o"]) == 1
        assert "--lambda: lambda must be finite and positive" in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["toy.csv"]

    @pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["cluster", "--input", "toy.csv", "--lambda", "1"],
            ["simulate", "--preset", "fig4-dataset1"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_bad_merge_tol_is_a_usage_error_before_the_out_dir(self, tmp_path, capsys, argv, tol):
        (tmp_path / "toy.csv").write_text("0.0,0.0\n9.0,9.0\n")
        assert run_in(tmp_path, argv + [f"--merge-tol={tol}", "--out-dir", "o"]) == 1
        assert "--merge-tol must be finite and positive" in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["toy.csv"]

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["cluster", "--sigma", "-1"], "h1 takes sigma > 0"),
            (["cluster", "--sigma", "nan"], "h1 takes sigma > 0"),
            (["cluster", "--penalty", "lp", "--p", "1.5"], "lp takes 0 < p <= 1"),
            (["cluster", "--penalty", "lp", "--p", "nan"], "lp takes 0 < p <= 1"),
            # a flag the penalty does not read is named first
            (["cluster", "--penalty", "lp", "--sigma", "-1"], "--sigma applies to --penalty h1"),
            (["simulate", "--preset", "fig3a", "--sigma", "0"], "h1 takes sigma > 0"),
            (["wine", "--wine-csv", "wine.data", "--sigma", "-1"], "h1 takes sigma > 0"),
            (["cluster", "--sigma", "inf"], "h1 takes sigma > 0"),
        ],
    )
    def test_bad_sigma_or_p_is_a_usage_error_before_the_out_dir(
        self, tmp_path, capsys, argv, message
    ):
        # PenaltySpec's rule, applied to the flags before --out-dir is made.
        (tmp_path / "toy.csv").write_text("0.0,0.0\n9.0,9.0\n")
        if argv[0] == "cluster":
            argv = argv + ["--input", "toy.csv", "--lambda", "1"]
        assert run_in(tmp_path, argv + ["--out-dir", "o"]) == 1
        assert message in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["toy.csv"]

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["oracle-check", "--K", "1"], "K must be at least 2, got 1"),
            (["oracle-check", "--M", "1"], "M must be at least 2, got 1"),
            (["simulate", "--preset", "fig3a", "--m-grid", "1"], "M must be at least 2, got 1"),
        ],
    )
    def test_single_cluster_or_point_exits_two_naming_it(self, tmp_path, capsys, argv, message):
        assert run_in(tmp_path, argv + ["--out-dir", "."]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["cluster", "--input", "toy.csv", "--lambda", "2", "--penalty", "lp", "--sigma", "1"],
            ["simulate", "--preset", "fig3a", "--p0", "0.5"],
            ["wine", "--p0-grid", "1.0"],
        ],
        ids=["cluster", "simulate", "wine"],
    )
    def test_usage_error_creates_no_out_dir(self, tmp_path, monkeypatch, argv):
        # The flags are checked before --out-dir is created.
        monkeypatch.delenv("FUSECLUSTER_DATA_DIR", raising=False)
        (tmp_path / "toy.csv").write_text("0.0,0.0\n9.0,9.0\n")
        assert run_in(tmp_path, argv + ["--out-dir", "o"]) == 1
        assert not (tmp_path / "o").exists()


class TestTheoryCommand:
    def test_writes_expected_columns(self, tmp_path):
        assert run_in(tmp_path, ["theory", "--p0-grid", "0:1:0.5", "--out-dir", "."]) == 0
        lines = (tmp_path / "theory_guarantees.csv").read_text().splitlines()
        assert lines[0].startswith("# fusecluster-version:")
        assert lines[1].startswith("# argv:")
        assert lines[2].startswith("# seed:")
        header = lines[3].split(",")
        assert header == [
            "p0",
            "gamma0",
            "delta0",
            "beta0",
            "eta0",
            "eta0_approx",
            "approx_valid",
            "success_lower_bound",
        ]
        assert len(lines) == 4 + 3

    def test_preset_names_output(self, tmp_path):
        assert run_in(tmp_path, ["theory", "--preset", "fig2", "--p0-grid", "0:1:0.5"]) == 0
        assert (tmp_path / "fig2_guarantees.csv").exists()


class TestClusterCommand:
    def test_identical_rows_share_a_label(self, tmp_path):
        (tmp_path / "toy.csv").write_text("1.0,2.0\n1.0,2.0\n")
        code = run_in(
            tmp_path,
            ["cluster", "--input", "toy.csv", "--lambda", "0.1", "--penalty", "h1"],
        )
        assert code == 0
        rows = [
            line.split(",")
            for line in (tmp_path / "labels.csv").read_text().splitlines()
            if not line.startswith("#")
        ][1:]
        labels = [r[1] for r in rows]
        assert labels[0] == labels[1]

    def test_labeled_input_adds_truth_column(self, tmp_path):
        (tmp_path / "toy.csv").write_text("0.0,0.0,0\n0.1,0.0,0\n9.0,9.0,1\n9.1,9.0,1\n")
        code = run_in(
            tmp_path,
            [
                "cluster", "--input", "toy.csv", "--labeled",
                "--lambda", "2.0", "--sigma", "0.3",
            ],
        )
        assert code == 0
        header = [
            line for line in (tmp_path / "labels.csv").read_text().splitlines()
            if not line.startswith("#")
        ][0]
        assert header == "point_id,label,truth_label"

    def test_labels_need_not_start_at_zero(self, tmp_path, capsys):
        (tmp_path / "toy.csv").write_text("0.0,0.0,1\n0.1,0.0,1\n9.0,9.0,2\n9.1,9.0,2\n")
        argv = ["cluster", "--input", "toy.csv", "--labeled", "--lambda", "2.0", "--sigma", "0.3"]
        assert run_in(tmp_path, argv) == 0
        assert "ari: 1.0000" in capsys.readouterr().out

    def test_one_labeled_point_scores_ari_one(self, tmp_path, capsys):
        (tmp_path / "one.csv").write_text("0.5,-1.0,3\n")
        argv = ["cluster", "--input", "one.csv", "--labeled", "--lambda", "2.0", "--sigma", "0.3"]
        assert run_in(tmp_path, argv) == 0
        assert "ari: 1.0000" in capsys.readouterr().out

    @pytest.mark.parametrize("max_iters, converged", [(None, "true"), ("1", "false")])
    def test_stdout_reports_iterations_and_convergence(self, tmp_path, capsys, max_iters, converged):
        # The stdout line carries the outer iteration count and whether the
        # objective settled before --max-iters; no output file changes.
        (tmp_path / "toy.csv").write_text("0.0,0.0\n0.1,0.0\n9.0,9.0\n9.1,9.0\n")
        argv = ["cluster", "--input", "toy.csv", "--lambda", "2.0", "--sigma", "0.3"]
        if max_iters is not None:
            argv += ["--max-iters", max_iters]
        assert run_in(tmp_path, argv) == 0
        iterations = [
            line.split(",")[0]
            for line in (tmp_path / "trace.csv").read_text().splitlines()
            if not line.startswith("#")
        ][-1]
        out = capsys.readouterr().out
        assert out == f"clusters: 2  iterations: {iterations}  converged: {converged}\n"
        if max_iters is not None:
            assert iterations == max_iters

    def test_missing_entries_accepted(self, tmp_path):
        (tmp_path / "toy.csv").write_text("1.0,,2.0\n1.0,NaN,2.0\n")
        code = run_in(
            tmp_path,
            ["cluster", "--input", "toy.csv", "--lambda", "0.5", "--sigma", "1.0"],
        )
        assert code == 0

    def test_power_penalty_flags(self, tmp_path):
        (tmp_path / "toy.csv").write_text("0.0,0.0\n0.1,0.0\n9.0,9.0\n9.1,9.0\n")
        code = run_in(
            tmp_path,
            [
                "cluster", "--input", "toy.csv", "--lambda", "0.2",
                "--penalty", "lp", "--p", "0.5",
            ],
        )
        assert code == 0
        rows = [
            line.split(",")
            for line in (tmp_path / "labels.csv").read_text().splitlines()
            if not line.startswith("#")
        ][1:]
        labels = [r[1] for r in rows]
        assert labels[0] == labels[1] and labels[2] == labels[3]
        assert labels[0] != labels[2]

    def test_power_penalty_defaults_to_p_one_half(self, tmp_path):
        (tmp_path / "toy.csv").write_text("0.0,0.0\n0.1,0.0\n9.0,9.0\n9.1,9.0\n")
        argv = ["cluster", "--input", "toy.csv", "--lambda", "0.2", "--penalty", "lp"]
        outputs = []
        for extra in ([], ["--p", "0.5"]):
            assert run_in(tmp_path, argv + extra) == 0
            outputs.append([
                [line for line in (tmp_path / name).read_text().splitlines() if line[:1] != "#"]
                for name in ("labels.csv", "centroids.csv", "trace.csv")
            ])
        assert outputs[0] == outputs[1]

    def test_tau_flag_is_gone(self, tmp_path, capsys):
        (tmp_path / "toy.csv").write_text("0.0,0.0\n0.1,0.0\n9.0,9.0\n9.1,9.0\n")
        argv = [
            "cluster", "--input", "toy.csv", "--lambda", "0.2",
            "--penalty", "lp", "--tau", "1e-9",
        ]
        assert run_in(tmp_path, argv) == 1
        assert "unrecognized arguments: --tau" in capsys.readouterr().err
        assert not (tmp_path / "labels.csv").exists()


class TestConfigFile:
    def test_config_supplies_defaults_flags_still_win(self, tmp_path):
        (tmp_path / "cfg.ini").write_text("p0-grid=0:1:0.5\nM=4\n")
        code = run_in(
            tmp_path,
            ["theory", "--config", "cfg.ini", "--M", "6", "--out-dir", "."],
        )
        assert code == 0
        lines = (tmp_path / "theory_guarantees.csv").read_text().splitlines()
        assert len(lines) == 4 + 3  # grid came from the config file
        # eta0 column reflects M=6 from the flag, not M=4 from the file:
        # at p0=1 with the default parameters eta0(M=6) != eta0(M=4).
        from fusecluster.theory import evaluate_guarantees

        row = dict(zip(lines[3].split(","), lines[-1].split(",")))
        rep = evaluate_guarantees(p0=1.0, P=50, kappa=0.5, mu0=1.5, K=2, M=6)
        assert float(row["eta0"]) == pytest.approx(rep.eta0, rel=1e-12)

    def test_unknown_config_key_is_usage_error(self, tmp_path):
        (tmp_path / "cfg.ini").write_text("bogus=1\n")
        assert run_in(tmp_path, ["theory", "--config", "cfg.ini"]) == 1

    @pytest.mark.parametrize("value, truth_column", [("true", True), ("false", False)])
    def test_config_sets_flag_on_or_off(self, tmp_path, value, truth_column):
        (tmp_path / "toy.csv").write_text("0.0,0.0,0\n0.1,0.0,0\n9.0,9.0,1\n9.1,9.0,1\n")
        (tmp_path / "cfg.ini").write_text(f"labeled={value}\n")
        argv = ["cluster", "--config", "cfg.ini", "--input", "toy.csv"]
        assert run_in(tmp_path, argv + ["--lambda", "2.0", "--sigma", "0.3"]) == 0
        header = [
            line for line in (tmp_path / "labels.csv").read_text().splitlines()
            if not line.startswith("#")
        ][0]
        assert ("truth_label" in header.split(",")) == truth_column

    @pytest.mark.parametrize("config, flag", [("true", "--labeled=false"), ("false", "--labeled")])
    def test_command_line_switch_wins_over_config(self, tmp_path, config, flag):
        (tmp_path / "toy.csv").write_text("0.0,0.0,0\n0.1,0.0,0\n9.0,9.0,1\n9.1,9.0,1\n")
        (tmp_path / "cfg.ini").write_text(f"labeled={config}\n")
        argv = ["cluster", "--config", "cfg.ini", "--input", "toy.csv", flag]
        assert run_in(tmp_path, argv + ["--lambda", "2.0", "--sigma", "0.3"]) == 0
        header = (tmp_path / "labels.csv").read_text().splitlines()[3]
        assert ("truth_label" in header.split(",")) == (config == "false")

    def test_true_is_an_ordinary_value_of_other_keys(self, tmp_path):
        (tmp_path / "cfg.ini").write_text("out-dir=true\np0-grid=0:1:0.5\n")
        assert run_in(tmp_path, ["theory", "--config", "cfg.ini"]) == 0
        assert (tmp_path / "true" / "theory_guarantees.csv").exists()

    def test_bad_typed_config_value_is_usage_error(self, tmp_path):
        (tmp_path / "cfg.ini").write_text("M=abc\n")
        assert run_in(tmp_path, ["theory", "--config", "cfg.ini"]) == 1

    def test_flag_config_value_other_than_true_false_is_usage_error(self, tmp_path):
        (tmp_path / "toy.csv").write_text("0.0,0.0\n9.0,9.0\n")
        (tmp_path / "cfg.ini").write_text("labeled=no\n")
        argv = ["cluster", "--config", "cfg.ini", "--input", "toy.csv", "--lambda", "1"]
        assert run_in(tmp_path, argv) == 1
        assert not (tmp_path / "labels.csv").exists()

    def test_config_value_outside_choices_is_usage_error(self, tmp_path, capsys):
        (tmp_path / "toy.csv").write_text("0.0,0.0\n9.0,9.0\n")
        (tmp_path / "cfg.ini").write_text("penalty=bogus\n")
        argv = ["cluster", "--config", "cfg.ini", "--input", "toy.csv", "--lambda", "1"]
        assert run_in(tmp_path, argv) == 1
        assert "argument --penalty: invalid choice: 'bogus'" in capsys.readouterr().err
        assert not (tmp_path / "labels.csv").exists()

    @pytest.mark.parametrize("flag, written", [([], "fig3a"), (["--preset", "fig3c"], "fig3c")])
    def test_config_satisfies_required_option(self, tmp_path, flag, written):
        (tmp_path / "cfg.ini").write_text("preset=fig3a\n")
        argv = [
            "simulate", "--config", "cfg.ini", "--trials", "1", "--p0-grid", "1.0",
            "--m-grid", "4", "--lambda-grid", "8", "--out-dir", ".",
        ]
        assert run_in(tmp_path, argv + flag) == 0
        assert sorted(os.listdir(tmp_path)) == ["cfg.ini", f"{written}_success.csv"]

    def test_keys_are_flag_names(self, tmp_path):
        (tmp_path / "toy.csv").write_text("0.0,0.0\n9.0,9.0\n")
        (tmp_path / "cfg.ini").write_text("lambda=2.0\n")
        argv = ["cluster", "--config", "cfg.ini", "--input", "toy.csv"]
        assert run_in(tmp_path, argv) == 0
        # lambda is read by the single-run presets only.
        (tmp_path / "sim.ini").write_text("preset=fig4-dataset1\nlambda=8\n")
        argv = ["simulate", "--config", "sim.ini", "--max-iters", "5", "--out-dir", "."]
        assert run_in(tmp_path, argv) == 0

    def test_dest_spelling_is_not_a_key(self, tmp_path):
        (tmp_path / "cfg.ini").write_text("p0_grid=0:1:0.5\n")
        assert run_in(tmp_path, ["theory", "--config", "cfg.ini"]) == 1
        assert not (tmp_path / "theory_guarantees.csv").exists()

    def test_missing_config_file_is_usage_error(self, tmp_path):
        assert run_in(tmp_path, ["theory", "--config", "nope.ini"]) == 1

    def test_config_file_that_is_not_utf8_is_usage_error(self, tmp_path, capsys):
        (tmp_path / "bad.cfg").write_bytes(b"\xffM=4\n")
        assert run_in(tmp_path, ["theory", "--config", "bad.cfg"]) == 1
        assert capsys.readouterr().err.startswith("fusecluster: error: ")
        assert os.listdir(tmp_path) == ["bad.cfg"]

    def test_header_records_the_given_argv(self, tmp_path):
        (tmp_path / "cfg.ini").write_text("p0-grid=0:1:0.5\nM=4\n")
        argv = ["theory", "--config", "cfg.ini", "--out-dir", "."]
        assert run_in(tmp_path, argv) == 0
        lines = (tmp_path / "theory_guarantees.csv").read_text().splitlines()
        assert lines[1] == "# argv: theory --config cfg.ini --out-dir ."


class TestOracleCheckCommand:
    def test_json_report(self, tmp_path):
        code = run_in(
            tmp_path,
            ["oracle-check", "--M", "3", "--P", "12", "--trials", "40", "--out-dir", "."],
        )
        assert code == 0
        payload = json.loads((tmp_path / "oracle_check.json").read_text())
        assert list(payload)[:3] == ["fusecluster-version", "argv", "seed"]
        assert payload["trials"] == 40
        assert set(
            [
                "gamma0",
                "beta0",
                "eta0",
                "common_obs_deficit_rate",
                "pair_feasible_rate",
                "truth_defeat_rate",
                "all_ok",
            ]
        ) <= set(payload)


class TestWineCommand:
    def test_env_var_data_dir(self, tmp_path, wine_csv):
        data_dir = os.path.dirname(wine_csv)
        target = os.path.join(data_dir, "wine.data")
        if not os.path.exists(target):
            import shutil

            shutil.copy(wine_csv, target)
        code = run_in(
            tmp_path,
            ["wine", "--p0-grid", "1.0", "--lambda-grid", "30", "--out-dir", "."],
            env={"FUSECLUSTER_DATA_DIR": data_dir},
        )
        assert code == 0
        assert (tmp_path / "wine_summary.csv").exists()
        assert (tmp_path / "wine_pca_p1.csv").exists()

    def test_synthetic_table(self, tmp_path, synthetic_wine):
        path, _, _ = synthetic_wine()
        argv = ["wine", "--wine-csv", path, "--p0-grid", "1.0", "--lambda-grid", "30"]
        with pytest.warns(UserWarning, match="checksum"):
            assert run_in(tmp_path, argv + ["--out-dir", "."]) == 0
        lines = (tmp_path / "wine_summary.csv").read_text().splitlines()
        assert lines[3] == "p0,best_lambda,ari,clusters"
        assert len(lines) == 4 + 1

    def test_m_per_class_below_one_exits_two_naming_it(self, tmp_path, capsys, synthetic_wine):
        path, _, _ = synthetic_wine()
        argv = ["wine", "--wine-csv", path, "--m-per-class", "-5", "--out-dir", "."]
        assert run_in(tmp_path, argv) == 2
        assert "m_per_class must be at least 1, got -5" in capsys.readouterr().err

    @pytest.mark.parametrize("grid, message", BAD_LAMBDA_GRIDS)
    def test_bad_lambda_grid_is_a_usage_error_before_any_solve(
        self, tmp_path, capsys, monkeypatch, synthetic_wine, grid, message
    ):
        path, _, _ = synthetic_wine()
        solves = []
        monkeypatch.setattr("fusecluster.cli.cluster_once", lambda *a, **k: solves.append(a))
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        argv = ["wine", "--wine-csv", path, "--lambda-grid", grid, "--out-dir", "o"]
        assert run_in(run_dir, argv) == 1
        assert message in capsys.readouterr().err
        assert solves == []
        assert os.listdir(run_dir) == []

    def test_missing_wine_path_is_usage_error(self, tmp_path):
        env_backup = os.environ.pop("FUSECLUSTER_DATA_DIR", None)
        try:
            assert run_in(tmp_path, ["wine", "--p0-grid", "1.0"]) == 1
        finally:
            if env_backup is not None:
                os.environ["FUSECLUSTER_DATA_DIR"] = env_backup


class TestSimulateCommand:
    def test_fig4_preset_outputs(self, tmp_path):
        code = run_in(
            tmp_path,
            [
                "simulate", "--preset", "fig4-dataset1", "--p0", "0.9",
                "--max-iters", "40", "--out-dir", ".",
            ],
        )
        assert code == 0
        for suffix in ("labels", "centroids", "trace", "pca"):
            assert (tmp_path / f"fig4-dataset1_{suffix}.csv").exists()
        pca = (tmp_path / "fig4-dataset1_pca.csv").read_text().splitlines()
        assert pca[3] == "point_id,truth_label,pc1,pc2,centroid_pc1,centroid_pc2"
        assert len(pca) == 4 + 600

    def test_success_grid_reduced(self, tmp_path):
        code = run_in(
            tmp_path,
            [
                "simulate", "--preset", "fig3a", "--trials", "1",
                "--p0-grid", "1.0", "--m-grid", "4", "--lambda-grid", "8",
                "--out-dir", ".",
            ],
        )
        assert code == 0
        lines = (tmp_path / "fig3a_success.csv").read_text().splitlines()
        assert lines[3] == "p0,M,success_rate,kappa,mu0"
        assert len(lines) == 4 + 1

    def test_p0_above_one_is_rejected(self, tmp_path, capsys):
        argv = ["simulate", "--preset", "fig4-dataset1", "--p0", "1.5", "--out-dir", "."]
        assert run_in(tmp_path, argv) == 2
        assert "p0 must lie in [0, 1]" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("grid, message", BAD_LAMBDA_GRIDS)
    def test_bad_lambda_grid_is_a_usage_error_before_any_solve(
        self, tmp_path, capsys, monkeypatch, grid, message
    ):
        def no_solve(*args, **kwargs):
            raise AssertionError("solved before the grid was checked")

        monkeypatch.setattr("fusecluster.analysis.cluster_once", no_solve)
        argv = ["simulate", "--preset", "fig3a", "--lambda-grid", grid, "--out-dir", "o"]
        assert run_in(tmp_path, argv) == 1
        assert message in capsys.readouterr().err
        assert os.listdir(tmp_path) == []

    def test_zero_trials_is_an_error(self, tmp_path, capsys):
        argv = ["simulate", "--preset", "fig3a", "--trials", "0", "--out-dir", "."]
        assert run_in(tmp_path, argv) == 2
        assert "trials must be at least 1" in capsys.readouterr().err
        assert not (tmp_path / "fig3a_success.csv").exists()

"""Command line entry points, config handling, and trace files."""

import csv
import json
import subprocess
import sys

import numpy as np
import pytest

from crcalc import ConfigError
from crcalc.cli import build_run_config, load_config, main


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


class TestConfigParsing:
    def test_defaults_when_no_config(self):
        cfg = build_run_config({})
        assert cfg.problem_name == "example1"
        assert cfg.strategy.kind == "newton"
        assert cfg.optimizer.max_iters == 100
        assert cfg.example.alpha == 1.0 + 1.0j

    def test_complex_fields_accept_strings(self):
        cfg = build_run_config({"problem": {"alpha": "0.5-0.25j", "beta": 0.1}})
        assert cfg.example.alpha == 0.5 - 0.25j
        assert cfg.example.beta == 0.1 + 0j

    def test_unknown_keys_rejected_with_path(self):
        with pytest.raises(ConfigError, match="problem"):
            build_run_config({"problem": {"alhpa": 1.0}})
        with pytest.raises(ConfigError, match="top-level"):
            build_run_config({"problems": {}})

    def test_bad_complex_string_rejected(self):
        with pytest.raises(ConfigError, match="alpha"):
            build_run_config({"problem": {"alpha": "not a number"}})

    def test_bad_types_rejected(self):
        with pytest.raises(ConfigError, match="max_iters"):
            build_run_config({"optimizer": {"max_iters": "many"}})
        with pytest.raises(ConfigError, match="decay"):
            build_run_config({"problem": {"name": "lms"}, "lms": {"decay": "yes"}})

    def test_domain_validation(self):
        with pytest.raises(ConfigError, match="noise_var"):
            build_run_config({"problem": {"noise_var": -1.0}})
        with pytest.raises(ConfigError, match="algorithm"):
            build_run_config({"algorithm": {"kind": "bfgs"}})
        with pytest.raises(ConfigError, match="r_diag"):
            build_run_config({"problem": {"name": "lms"}, "lms": {"r_diag": [1.0, 0.0, 1.0, 1.0]}})

    @pytest.mark.parametrize(
        "command, payload",
        [
            ("lms", {"lms": {"step_size": float("nan")}}),
            ("optimize", {"problem": {"name": "example2", "noise_var": float("nan")}}),
            ("lms", {"lms": {"noise_var": float("inf")}}),
            ("lms", {"lms": {"r_diag": [float("inf"), 1.0, 1.0, 1.0]}}),
            ("lms", {"lms": {"a_ref": ["nan", "0", "0", "0"]}}),
            ("optimize", {"problem": {"z0": "nan"}}),
            ("optimize", {"problem": {"alpha": float("-inf")}}),
            ("lms", {"lms": {"step_size": 10**400}}),
        ],
    )
    def test_non_finite_numbers_rejected(self, tmp_path, capsys, command, payload):
        cfg = write_config(tmp_path, payload)
        assert main([command, "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "finite" in err

    def test_polynomial_lengths_must_agree(self):
        payload = {
            "problem": {
                "name": "custom-polynomial",
                "quad_diag": [2.0, 2.0],
                "conj_diag": ["0.1+0.1j"],
                "linear": ["1+0j", "0+0j"],
            }
        }
        with pytest.raises(ConfigError, match="length"):
            build_run_config(payload)

    def test_seed_override_applies_everywhere(self):
        cfg = build_run_config(
            {"problem": {"seed": 5}, "lms": {"seed": 9}}, seed_override=42
        )
        assert cfg.example.seed == 42
        assert cfg.lms.seed == 42

    def test_json_errors_carry_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"problem": }')
        with pytest.raises(ConfigError, match="line 1"):
            load_config(str(path))

    def test_missing_file_reported(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(str(tmp_path / "absent.json"))


class TestOptimizeCommand:
    def test_happy_path_writes_trace(self, tmp_path, capsys):
        out = str(tmp_path / "trace.csv")
        code = main(["optimize", "--out", out])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "status: converged" in stdout
        assert "hessian: local_min" in stdout
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == [
            "iter",
            "z0.re",
            "z0.im",
            "loss",
            "grad_norm",
            "step_norm",
            "q_condition",
            "q_positive_definite",
        ]
        assert [r[0] for r in rows[1:]] == [str(k) for k in range(len(rows) - 1)]
        # Every numeric cell parses back.
        for row in rows[1:]:
            for cell in row[:-1]:
                float(cell)

    def test_quiet_suppresses_stdout(self, capsys):
        code = main(["optimize", "--quiet"])
        assert code == 0
        assert capsys.readouterr().out == ""

    def test_max_iters_exit_code(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {
                "algorithm": {"kind": "identity"},
                "optimizer": {"max_iters": 2, "grad_tol": 1e-14},
            },
        )
        code = main(["optimize", "--config", cfg])
        assert code == 2
        assert "status: max_iters" in capsys.readouterr().out

    def test_unidentifiable_problem_exit_code(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {"problem": {"alpha": "1+0j", "beta": "1+0j"}},
        )
        code = main(["optimize", "--config", cfg])
        assert code == 3
        assert "error:" in capsys.readouterr().err

    def test_config_error_exit_code(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"bogus": {}})
        code = main(["optimize", "--config", cfg])
        assert code == 1
        assert "config error" in capsys.readouterr().err

    def test_polynomial_problem_runs(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {
                "problem": {
                    "name": "custom-polynomial",
                    "quad_diag": [2.0, 3.0],
                    "conj_diag": ["0.5+0.5j", "0.25-0.1j"],
                    "linear": ["1-1j", "-0.5+0.3j"],
                    "z0": ["2+2j", "-1+1j"],
                }
            },
        )
        code = main(["optimize", "--config", cfg])
        assert code == 0
        assert "status: converged" in capsys.readouterr().out


class TestCheckCommand:
    def test_example_checks_pass(self, tmp_path, capsys):
        out = str(tmp_path / "report.txt")
        code = main(["check", "--out", out])
        assert code == 0
        stdout = capsys.readouterr().out
        lines = [ln for ln in stdout.splitlines() if ln]
        assert all("PASS" in ln for ln in lines[:-1])
        assert "FAIL" not in stdout
        assert lines[-1].endswith("checks passed")
        with open(out) as fh:
            assert fh.read().strip() == stdout.strip()

    def test_lms_checks_pass(self, tmp_path, capsys):
        # The lms problem routes to moment checks instead.
        cfg = write_config(tmp_path, {"problem": {"name": "lms"}})
        code = main(["check", "--config", cfg])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "wiener-stationarity" in stdout
        assert "FAIL" not in stdout


class TestLmsCommand:
    def test_happy_path_and_trace(self, tmp_path, capsys):
        out = str(tmp_path / "lms.csv")
        cfg = write_config(
            tmp_path,
            {"problem": {"name": "lms"}, "lms": {"steps": 50, "n": 2}},
        )
        code = main(["lms", "--config", cfg, "--out", out])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "final_misalignment" in stdout
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["step", "err_power_smoothed", "misalignment"]
        assert len(rows) == 51
        assert rows[1][0] == "1"
        assert rows[-1][0] == "50"

    def test_divergent_step_exit_code(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {"problem": {"name": "lms"}, "lms": {"steps": 500, "step_size": 100.0}},
        )
        code = main(["lms", "--config", cfg])
        assert code == 3
        assert capsys.readouterr().err.strip().endswith("at step 4")

    def test_non_finite_estimate_is_not_success(self, tmp_path, capsys):
        # A finite input power of 1e300 overflows the estimate norm to
        # infinity on the first step; that must end as a failure, never
        # as exit 0.
        cfg = write_config(tmp_path, {"lms": {"r_diag": [1e300, 1.0, 1.0, 1.0]}})
        code = main(["lms", "--config", cfg])
        assert code != 0
        assert "nan" not in capsys.readouterr().out.lower()


class TestDeterminism:
    def test_identical_runs_identical_bytes(self, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        cfg = write_config(tmp_path, {"problem": {"noise_var": 0.1}})
        assert main(["optimize", "--config", cfg, "--out", str(out1), "--quiet"]) == 0
        assert main(["optimize", "--config", cfg, "--out", str(out2), "--quiet"]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_seed_changes_the_data(self, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        cfg = write_config(tmp_path, {"problem": {"noise_var": 0.1}})
        assert main(["optimize", "--config", cfg, "--out", str(out1), "--quiet", "--seed", "1"]) == 0
        assert main(["optimize", "--config", cfg, "--out", str(out2), "--quiet", "--seed", "2"]) == 0
        assert out1.read_bytes() != out2.read_bytes()

    def test_lms_runs_are_reproducible(self, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        cfg = write_config(
            tmp_path,
            {"problem": {"name": "lms"}, "lms": {"steps": 100, "noise_var": 0.05}},
        )
        assert main(["lms", "--config", cfg, "--out", str(out1), "--quiet"]) == 0
        assert main(["lms", "--config", cfg, "--out", str(out2), "--quiet"]) == 0
        assert out1.read_bytes() == out2.read_bytes()


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "crcalc.cli", "optimize", "--quiet"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout == ""

    def test_help_lists_subcommands(self):
        proc = subprocess.run(
            [sys.executable, "-m", "crcalc.cli", "--help"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        for name in ("optimize", "check", "lms"):
            assert name in proc.stdout

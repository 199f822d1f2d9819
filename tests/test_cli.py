"""Command line entry points, config handling, and trace files."""

import argparse
import contextlib
import csv
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from crcalc import ConfigError, cli
from crcalc.cli import _fmt_vector, _write_lms_trace, _write_optimize_trace, build_run_config, load_config, main
from crcalc.lms import CHUNK_STEPS, SimulationResult
from crcalc.optim import IterationRecord

from ._oracles import per_row_lms_trace, reference_fmt_complex


SRC = Path(__file__).resolve().parents[1] / "src"
README = Path(__file__).resolve().parents[1] / "README.md"


def run_cli(*args):
    """``python -m crcalc.cli ARGS`` in a child process that imports crcalc from ``src/``."""
    paths = filter(None, [str(SRC), os.environ.get("PYTHONPATH")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
    return subprocess.run([sys.executable, "-m", "crcalc.cli", *args], capture_output=True, text=True, env=env)


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
            ("lms", {"lms": {"r_diag": [1e300, 1.0, 1.0, 1.0], "a_ref": ["1e300", "0", "0", "0"]}}),
            # Finite settings whose synthesized samples overflow.
            ("optimize", {"problem": {"alpha": "1e308+0j", "beta": "0", "z_true": "10"}}),
            ("check", {"problem": {"alpha": "1e308+0j", "beta": "0", "z_true": "10"}}),
            # Finite samples whose moments, or the curvature |alpha|^2, overflow.
            ("optimize", {"problem": {"alpha": -2.6e228}}),
            ("check", {"problem": {"alpha": 0, "z_true": -1e308}}),
            ("optimize", {"problem": {"z_true": 1.7976931348623157e308}}),
            # A Wiener solution whose output power overflows.
            ("lms", {"lms": {"a_ref": [0.25, "-2j", 1e308, "0.5-0.25j"]}}),
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

    @pytest.mark.parametrize(
        "command, payload, message",
        [
            ("optimize", {"problem": {"seed": "3"}}, "problem.seed must be an integer, got '3'"),
            ("lms", {"lms": {"seed": 1.5}}, "lms.seed must be an integer, got 1.5"),
        ],
    )
    def test_configured_seed_is_checked_under_an_override(self, tmp_path, capsys, command, payload, message):
        assert main([command, "--config", write_config(tmp_path, payload), "--seed", "3"]) == 1
        assert capsys.readouterr().err == f"config error: {message}\n"

    def test_json_errors_carry_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"problem": }')
        with pytest.raises(ConfigError, match="line 1"):
            load_config(str(path))

    def test_missing_file_reported(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(str(tmp_path / "absent.json"))

    @pytest.mark.parametrize("command", ["optimize", "check", "lms"])
    @pytest.mark.parametrize(
        "flag, relative, message",
        [
            ("--config", ".", "{path}: Is a directory"),
            ("--config", "absent.json", "config file not found: {path}"),
            ("--config", "utf16.json", "{path}: 'utf-8' codec can't decode byte 0xff in position 0: "
             "invalid start byte"),
            ("--out", ".", "{path}: Is a directory"),
            ("--out", "absent/out.csv", "{path}: No such file or directory"),
        ],
    )
    def test_unusable_paths_are_one_line_config_errors(self, tmp_path, capsys, command, flag, relative, message):
        (tmp_path / "utf16.json").write_bytes(b"\xff\xfe{\x00}\x00")
        path = str(tmp_path / relative)
        argv = [command, flag, path]
        if flag == "--out":
            payload = {"problem": {"name": "lms"}, "lms": {"steps": 20}} if command == "lms" else {}
            argv += ["--config", write_config(tmp_path, payload)]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err == f"config error: {message.format(path=path)}\n"
        assert captured.out == ""


_POLY = {"problem": {"name": "custom-polynomial", "quad_diag": [2.0], "conj_diag": ["0"], "linear": ["1"]}}

#: Every numeric config key: the command that reads it, a config around
#: it, its path, what it takes and its sign, if any.
NUMERIC_KEYS = [
    ("optimize", {}, "problem.noise_var", "real", "nonnegative"),
    ("optimize", {}, "problem.n_samples", "count", "positive"),
    ("optimize", {}, "problem.seed", "count", "nonnegative"),
    ("optimize", _POLY, "problem.constant", "real", ""),
    ("optimize", _POLY, "problem.quad_diag", "real", ""),
    ("lms", {}, "lms.n", "count", "positive"),
    ("lms", {}, "lms.steps", "count", "nonnegative"),
    ("lms", {}, "lms.step_size", "real", "positive"),
    ("lms", {}, "lms.noise_var", "real", "nonnegative"),
    ("lms", {}, "lms.seed", "count", "nonnegative"),
    ("lms", {}, "lms.r_diag", "real", "positive"),
    ("optimize", {}, "algorithm.damping", "real", "nonnegative"),
    ("optimize", {}, "optimizer.step_size", "real", "positive"),
    ("optimize", {}, "optimizer.max_iters", "count", "positive"),
    ("optimize", {}, "optimizer.grad_tol", "real", "nonnegative"),
    ("optimize", {}, "optimizer.armijo_beta", "real", "positive"),
    ("optimize", {}, "optimizer.armijo_c1", "real", "positive"),
]
#: The list keys among them, with their lengths in the configs above.
LIST_LENGTHS = {"problem.quad_diag": 1, "lms.r_diag": 4}


def _with_value(base, path, value):
    """``base`` with ``value`` at ``path``, as the first entry of a list key, and where it landed."""
    section, key = path.split(".")
    config = json.loads(json.dumps(base))
    if path in LIST_LENGTHS:
        value, path = [value] + [1.0] * (LIST_LENGTHS[path] - 1), f"{path}[0]"
    config.setdefault(section, {})[key] = value
    return config, path


def _bad_numbers():
    for command, base, path, kind, sign in NUMERIC_KEYS:
        what = "a finite real number" if kind == "real" else "an integer"
        cases = [("1", f"must be {what}, got '1'"), (True, f"must be {what}, got True")]
        if sign:
            cases.append((0 if sign == "positive" else -1, f"must be {sign}"))
        if kind == "real":
            cases.append((10**400, f"must be a finite real number, got {10**400}"))
        for value, message in cases:
            yield pytest.param(command, base, path, value, message, id=f"{path}-{message[:40]}")


class TestNumericKeys:
    @pytest.mark.parametrize("command, base, path, value, message", _bad_numbers())
    def test_a_bad_number_is_one_config_error_naming_the_key(self, tmp_path, capsys, command, base, path, value, message):
        config, where = _with_value(base, path, value)
        assert main([command, "--config", write_config(tmp_path, config)]) == 1
        assert capsys.readouterr().err == f"config error: {where} {message}\n"

    @pytest.mark.parametrize(
        "command, path, code, err",
        [
            ("optimize", "problem.n_samples", 1, "config error: problem.n_samples: must be at most 10000000\n"),
            ("lms", "lms.n", 1, "config error: lms.n: must be at most 500\n"),
            ("lms", "lms.steps", 1, "config error: lms.steps: must be at most 2500000 for lms.n = 4\n"),
            ("optimize", "problem.seed", 0, ""),
            ("lms", "lms.seed", 0, ""),
            ("optimize", "optimizer.max_iters", 0, ""),
        ],
    )
    def test_a_count_past_the_float_range_is_a_count(self, tmp_path, capsys, command, path, code, err):
        # Sizes meet their bound; a seed or an iteration cap that large is valid.
        config, _ = _with_value({}, path, 10**400)
        assert main([command, "--config", write_config(tmp_path, config), "--quiet"]) == code
        assert capsys.readouterr().err == err

    def test_null_is_the_default_where_the_default_is_none(self):
        cfg = build_run_config({"optimizer": {"step_size": None}, "output": {"path": None}})
        assert cfg.optimizer.step_size is None and cfg.out_path is None
        with pytest.raises(ConfigError, match=r"^optimizer\.max_iters must be an integer, got None$"):
            build_run_config({"optimizer": {"max_iters": None}})

    def test_the_readme_config_runs(self, tmp_path, capsys):
        section = README.read_text(encoding="utf-8").split("### Configuration file", 1)[1]
        block = section.split("```json\n", 1)[1].split("```", 1)[0]
        path = tmp_path / "readme.json"
        path.write_text(block)
        assert main(["optimize", "--config", str(path)]) == 0
        assert "status: converged" in capsys.readouterr().out


class TestSizeBound:
    """At most 10**7 entries in any array a run sizes from its config.

    Only ``build_run_config`` runs here, so nothing of these sizes is
    allocated.
    """

    @pytest.mark.parametrize("n, most", [(1, 10**7), (3, 3333333), (4, 2500000), (500, 20000)])
    def test_steps_up_to_the_bound_for_each_n(self, n, most):
        raw = {"problem": {"name": "lms"}, "lms": {"n": n, "steps": most}}
        assert build_run_config(raw).lms.steps == most
        raw["lms"]["steps"] = most + 1
        with pytest.raises(ConfigError, match=rf"^lms\.steps: must be at most {most} for lms\.n = {n}$"):
            build_run_config(raw)

    def test_lms_n_up_to_the_check_sample(self):
        # check draws 20000 samples of length n.
        assert build_run_config({"lms": {"n": 500, "steps": 0}}).lms.n == 500
        with pytest.raises(ConfigError, match=r"^lms\.n: must be at most 500$"):
            build_run_config({"lms": {"n": 501, "steps": 0}})

    @pytest.mark.parametrize("name", ["example1", "example2"])
    def test_n_samples_up_to_the_bound(self, name):
        assert build_run_config({"problem": {"name": name, "n_samples": 10**7}}).example.n_samples == 10**7
        with pytest.raises(ConfigError, match=r"^problem\.n_samples: must be at most 10000000$"):
            build_run_config({"problem": {"name": name, "n_samples": 10**7 + 1}})

    def test_polynomial_n_up_to_the_dense_check_forms(self):
        # check builds 2n x 2n dense forms, so (2n)**2 stays within 10**7.
        def raw(n):
            coeffs = ["1"] * n
            return {"problem": {"name": "custom-polynomial", "quad_diag": [2.0] * n,
                                "conj_diag": coeffs, "linear": coeffs}}

        assert build_run_config(raw(1581)).poly.quad_diag.shape == (1581,)
        with pytest.raises(ConfigError, match=r"^problem\.quad_diag: must have at most 1581 entries$"):
            build_run_config(raw(1582))

    def test_past_the_bound_is_one_line_and_exit_1(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"problem": {"name": "lms"}, "lms": {"n": 16, "steps": 625001}})
        assert main(["lms", "--config", cfg]) == 1
        captured = capsys.readouterr()
        assert captured.err == "config error: lms.steps: must be at most 625000 for lms.n = 16\n"
        assert captured.out == ""


OVERFLOW_POLYNOMIAL = {"name": "custom-polynomial", "conj_diag": ["0"], "linear": ["1"], "z0": ["1"]}


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

    def test_curvature_near_the_top_of_the_float_range_converges(self, tmp_path, capsys):
        # Symmetrising the blocks never doubles an entry, and the real
        # form doubles 6e307 only to 1.2e308, still finite.
        cfg = write_config(tmp_path, {"problem": dict(OVERFLOW_POLYNOMIAL, quad_diag=[6e307])})
        assert main(["optimize", "--config", cfg]) == 0
        assert "status: converged" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "config",
        [
            {"algorithm": {"damping": 1e308}},
            {"problem": dict(OVERFLOW_POLYNOMIAL, quad_diag=[1e308])},
        ],
    )
    def test_a_scaling_whose_real_form_overflows_is_named(self, tmp_path, capsys, config):
        cfg = write_config(tmp_path, config)
        assert main(["optimize", "--config", cfg]) == 3
        err = capsys.readouterr().err
        assert "scaling overflows its real-coordinate form" in err
        assert "damping" not in err

    @pytest.mark.parametrize("kind", ["gauss_newton", "quasi_gauss_newton"])
    @pytest.mark.parametrize(
        "problem",
        [
            {"name": "example1"},
            {
                "name": "custom-polynomial",
                "quad_diag": [2.0, 3.0, 1.0, 4.0],
                "conj_diag": ["0.5+0.5j", "0.25-0.1j", "0.1j", "-1"],
                "linear": ["1-1j", "-0.5+0.3j", "2", "0.5j"],
                "z0": ["2+2j", "-1+1j", "0", "1"],
            },
        ],
    )
    def test_gauss_newton_on_a_field_is_a_config_error(self, tmp_path, problem, kind):
        cfg = write_config(tmp_path, {"problem": problem, "algorithm": {"kind": kind}})
        proc = run_cli("optimize", "--config", cfg)
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("config error: algorithm.kind")


class TestUnallocatableSizes:
    @pytest.mark.parametrize(
        "command, config",
        [
            ("lms", {"lms": {"n": 10**16}}),
            ("lms", {"lms": {"n": 10**19}}),
            ("lms", {"lms": {"steps": 10**16}}),
            ("lms", {"lms": {"steps": 10**20}}),
            ("optimize", {"problem": {"name": "example1", "n_samples": 10**16}}),
        ],
    )
    def test_size_past_the_address_space_is_a_config_error(self, tmp_path, command, config):
        # Each size is past the address space or numpy's index type; the
        # size bound refuses it before anything is allocated.
        cfg = write_config(tmp_path, config)
        proc = run_cli(command, "--config", cfg)
        assert proc.returncode == 1
        assert proc.stderr.startswith("config error: ")
        assert "Traceback" not in proc.stderr


# Well-typed values for each kind of config key, the extremes of the
# float range included, and values that no key accepts: JSON's
# non-finite tokens, strings that parse to non-finite complex numbers,
# and values of the wrong type.
ORDINARY = st.sampled_from([0.5, 1, 2, 0.25, 1e-3, 3])
REALS = st.one_of(
    ORDINARY,
    ORDINARY,
    st.sampled_from([0, -1, -0.25, 1e308, -1e308, 1e-320, -1e-320, 10**20, -(10**20)]),
    st.floats(allow_nan=False, allow_infinity=False),
)
COMPLEXES = st.one_of(REALS, st.sampled_from(["1+1j", "0.5-0.25j", "-2j", "1e308+1e308j", "1e-320j"]))
INTS = st.integers(-2, 10**20)
# Sizes stay at 64 or below, so no draw allocates much.
SIZES = st.integers(-2, 64)
BAD = st.one_of(
    st.sampled_from([None, True, False, "", "many", "nan", "inf", "-inf", "1e400j", [], {}, [[1.0]]]),
    st.sampled_from([float("nan"), float("inf"), float("-inf")]),
)
# Each key's well-typed values; a list key is filled in by cli_configs.
SECTIONS = {
    "problem": {
        "name": st.sampled_from(["example1", "example2", "lms", "custom-polynomial"]),
        "alpha": COMPLEXES,
        "beta": COMPLEXES,
        "z_true": COMPLEXES,
        "noise_var": REALS,
        "n_samples": SIZES,
        "seed": INTS,
        "z0": COMPLEXES,
        "quad_diag": REALS,
        "conj_diag": COMPLEXES,
        "linear": COMPLEXES,
        "constant": REALS,
    },
    "lms": {
        "n": SIZES,
        "steps": SIZES,
        "step_size": REALS,
        "decay": st.booleans(),
        "noise_var": REALS,
        "seed": INTS,
        "a_ref": COMPLEXES,
        "r_diag": REALS,
    },
    "algorithm": {
        "kind": st.sampled_from(["identity", "newton", "quasi_newton", "gauss_newton", "quasi_gauss_newton"]),
        "damping": REALS,
    },
    "optimizer": {
        "step_size": REALS,
        "max_iters": SIZES,
        "grad_tol": REALS,
        "backtracking": st.sampled_from(["armijo", "off"]),
        "armijo_beta": REALS,
        "armijo_c1": REALS,
        "record_trace": st.booleans(),
    },
    "output": {"path": st.just("ignored.csv"), "quiet": st.booleans()},
}
LIST_KEYS = {"quad_diag", "conj_diag", "linear", "a_ref", "r_diag"}


@st.composite
def cli_configs(draw):
    """A subcommand, a config object and a seed override.

    Half the draws are well typed throughout, so they reach the
    numerics with extreme but finite values.  In the rest any key may
    hold a bad value, any section may be of the wrong type, and unknown
    keys and sections appear.  A section may be missing in both.  The
    list keys of a section share one length, except where the list
    itself is bad; ``problem.z0`` is a list for the polynomial.
    """
    clean = draw(st.booleans())

    def bad():
        return not clean and not draw(st.integers(0, 3))

    config = {}
    for section, keys in SECTIONS.items():
        if draw(st.integers(0, 3)) == 0:
            continue
        if bad():
            config[section] = draw(BAD)
            continue
        length = draw(st.integers(1, 4))
        body = {}
        for key in draw(st.lists(st.sampled_from(sorted(keys)), unique=True)):
            if bad():
                body[key] = draw(BAD)
            elif key in LIST_KEYS or (key == "z0" and body.get("name") == "custom-polynomial"):
                body[key] = draw(st.lists(keys[key], min_size=length, max_size=length))
            else:
                body[key] = draw(keys[key])
        if bad():
            body["unknown_key"] = 1
        config[section] = body
    if bad():
        config["unknown_section"] = {}
    command = draw(st.sampled_from(["optimize", "check", "lms"]))
    seed = draw(st.one_of(st.none(), INTS))
    return command, config, seed


class TestConfigProperty:
    @settings(derandomize=True, deadline=None, max_examples=200, suppress_health_check=[HealthCheck.too_slow])
    @given(cli_configs())
    def test_any_config_gives_an_exit_code_and_no_traceback(self, drawn):
        # In process, so a traceback would be an exception out of main;
        # a RuntimeWarning is one too, under the suite's warning filter.
        command, config, seed = drawn
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "config.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(config, fh)
            argv = [command, "--config", path, "--out", os.path.join(tmp, "out.csv")]
            if seed is not None:
                argv += ["--seed", str(seed)]
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
                code = main(argv)
        assert code in (0, 1, 2, 3)
        assert "Traceback" not in err.getvalue()


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

    @pytest.mark.parametrize(
        "problem",
        [
            {
                "name": "custom-polynomial",
                "quad_diag": [2.0, 3.0],
                "conj_diag": ["0.5+0.5j", "0.25-0.1j"],
                "linear": ["1-1j", "-0.5+0.3j"],
                "z0": ["1e200", "0"],
            },
            {"name": "example2", "z0": "1e200"},
            {"name": "example2", "z0": "1e308"},
        ],
    )
    def test_overflowing_start_fails_checks_and_still_reports(self, tmp_path, problem):
        # The loss overflows at the start (at 1e308 the differenced
        # curvature too), so the checks that evaluate it read FAIL; the
        # rest of the report is still produced.
        cfg = write_config(tmp_path, {"problem": problem})
        proc = run_cli("check", "--config", cfg)
        assert proc.returncode == 2
        assert "FAIL" in proc.stdout
        assert proc.stdout.splitlines()[-1].endswith("checks passed")
        assert "Warning" not in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_lms_checks_that_overflow_fail_and_still_report(self, tmp_path, capsys):
        # The sampled gradient overflows at r = 1e308; the check reads
        # FAIL instead of printing numpy warnings.
        cfg = write_config(tmp_path, {"problem": {"name": "lms"}, "lms": {"r_diag": [1e308, 1.0, 1.0, 1.0]}})
        assert main(["check", "--config", cfg]) == 2
        out = capsys.readouterr().out
        assert "wiener-stationarity" in out and "expected-gradient-agreement: residual=nan" in out

    @pytest.mark.parametrize("n", [64, 256, 500])
    def test_lms_checks_pass_on_long_filters(self, tmp_path, capsys, n):
        # A fixed tolerance failed these correct models once the
        # sampling error, which grows with n, passed it.
        cfg = write_config(tmp_path, {"problem": {"name": "lms"}, "lms": {"n": n}})
        assert main(["check", "--config", cfg]) == 0
        assert "FAIL" not in capsys.readouterr().out

    def test_gradient_biased_by_ten_standard_errors_fails(self, tmp_path, capsys, monkeypatch):
        # The tolerance is five standard errors of the drawn sample,
        # relative to |R a - p|, so a shift of ten of them fails.
        config = {"problem": {"name": "lms"}, "lms": {"n": 16}}
        drawn = []
        unbiased = cli.instantaneous_gradient

        def biased(a, xi, eta):
            sample = unbiased(a, xi, eta)
            standard_error = np.sqrt(np.sum(np.var(sample, axis=0)) / sample.shape[0])
            drawn.append((a, standard_error))
            return sample + 10.0 * standard_error / np.sqrt(sample.shape[1])

        monkeypatch.setattr(cli, "instantaneous_gradient", biased)
        assert main(["check", "--config", write_config(tmp_path, config)]) == 2
        (line,) = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("expected-gradient-agreement")]
        ((a, standard_error),) = drawn
        model = cli._build_signal_model(build_run_config(config))
        tol = 5.0 * standard_error / np.linalg.norm(model.r_matrix @ a - model.p)
        assert line.endswith(f"tol={tol:.1e} FAIL")
        assert float(line.split()[1].removeprefix("residual=")) > 1.5 * tol

    def test_unidentifiable_closed_form_exit_code(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"problem": {"alpha": "1+0j", "beta": "1+0j"}})
        code = main(["check", "--config", cfg])
        assert code == 3
        assert "error:" in capsys.readouterr().err

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


class TestNumberFormatting:
    SPECIAL = [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -2.5e-310, 1.7e308, -1.7e308, 1.0, -1.0 / 3.0, 123456.789e-7]

    def pairs(self):
        """Every special value as the real part with every one as the imaginary part."""
        z = np.empty(len(self.SPECIAL) ** 2, dtype=complex)
        z.real = np.repeat(self.SPECIAL, len(self.SPECIAL))
        z.imag = np.tile(self.SPECIAL, len(self.SPECIAL))
        return z

    def test_vectors_print_as_the_entrywise_formatter_did(self):
        special = self.pairs()
        rng = np.random.default_rng(5)
        vectors = [special, special.real.copy(), np.array([complex(-0.0, -0.0)])] + [
            (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * 10.0 ** rng.integers(-300, 300, n)
            for n in (1, 2, 17, 256)
        ]
        for values in vectors:
            assert _fmt_vector(values) == f"[{', '.join(reference_fmt_complex(v) for v in values)}]"

    def test_trace_z_columns_print_as_the_entrywise_formatter_did(self, tmp_path):
        z = self.pairs()
        path = tmp_path / "trace.csv"
        _write_optimize_trace(str(path), [IterationRecord(0, z, 1.0, 0.0, 0.0, 1.0, None)], z.shape[0])
        with open(path, newline="") as fh:
            row = list(csv.reader(fh))[1]
        expected = [f"{float(c):.17g}" for v in z for c in (np.real(v), np.imag(v))]
        assert row[1 : 1 + 2 * z.shape[0]] == expected


class TestLmsTraceBytes:
    SPECIAL = [-0.0, 5e-324, 1e308, np.inf, 0.0, np.nan, -np.inf, 1.0 / 3.0]

    @pytest.mark.parametrize("steps", [0, 1, CHUNK_STEPS - 1, CHUNK_STEPS, CHUNK_STEPS + 1])
    def test_chunked_writer_writes_the_per_row_bytes(self, tmp_path, steps):
        rng = np.random.default_rng(steps)

        def column(length, shift):
            values = np.abs(rng.standard_normal(length)) * 10.0 ** rng.integers(-320, 308, length)
            special = np.roll(self.SPECIAL, shift)[:length]
            values[: special.shape[0]] = special
            values[-special.shape[0] :] = special[::-1]
            return values

        sim = SimulationResult(
            a_hat=np.zeros(2, dtype=complex),
            wiener=np.ones(2, dtype=complex),
            misalignment=column(steps + 1, 3),
            error_power=column(steps, 0),
            smoothed_error_power=column(steps, 0),
            steps=steps,
        )
        _write_lms_trace(str(tmp_path / "chunked.csv"), sim)
        per_row_lms_trace(str(tmp_path / "per_row.csv"), sim)
        chunked = (tmp_path / "chunked.csv").read_bytes()
        assert chunked == (tmp_path / "per_row.csv").read_bytes()
        assert chunked.count(b"\r\n") == steps + 1


class TestEntryPoint:
    def test_module_invocation(self):
        proc = run_cli("optimize", "--quiet")
        assert proc.returncode == 0
        assert proc.stdout == ""

    def test_help_lists_subcommands(self):
        proc = run_cli("--help")
        assert proc.returncode == 0
        for name in ("optimize", "check", "lms"):
            assert name in proc.stdout

    def test_parser_is_built_once_per_process(self, tmp_path, monkeypatch, capsys):
        built = []
        init = argparse.ArgumentParser.__init__

        def spy(parser, *args, **kwargs):
            init(parser, *args, **kwargs)
            if parser.prog == "crcalc":  # subparsers are named "crcalc <command>"
                built.append(parser)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy)
        lms = write_config(tmp_path, {"problem": {"name": "lms"}, "lms": {"steps": 20}})
        cli._build_parser.cache_clear()
        try:
            for _ in range(3):
                assert main(["optimize", "--quiet"]) == 0
                assert main(["check", "--quiet"]) == 0
                assert main(["lms", "--config", lms, "--quiet"]) == 0
        finally:
            cli._build_parser.cache_clear()
        assert len(built) == 1

    @pytest.mark.parametrize("command", ["optimize", "check", "lms"])
    def test_a_call_after_a_usage_error_and_help_matches_a_fresh_process(self, tmp_path, capsys, command):
        with pytest.raises(SystemExit) as usage:
            main([command, "--no-such-flag"])
        assert usage.value.code == 2
        with pytest.raises(SystemExit) as shown:
            main(["--help"])
        assert shown.value.code == 0
        captured = capsys.readouterr()
        assert "usage: crcalc" in captured.err and "usage: crcalc" in captured.out

        payload = {"problem": {"name": "lms"}, "lms": {"steps": 30, "n": 2}} if command == "lms" else {}
        out = tmp_path / "out.txt"
        argv = [command, "--config", write_config(tmp_path, payload), "--out", str(out), "--seed", "7"]
        code = main(argv)
        captured = capsys.readouterr()
        written = out.read_bytes()
        out.unlink()
        fresh = run_cli(*argv)
        assert (code, captured.out, captured.err) == (fresh.returncode, fresh.stdout, fresh.stderr)
        assert written == out.read_bytes()

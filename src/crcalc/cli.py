"""The ``crcalc`` command line tool.

Three subcommands drive the library from a JSON config file:

- ``optimize``: minimize a configured problem and trace the iterations
- ``check``: run the derivative and curvature identity suite
- ``lms``: simulate the adaptive filter and trace its progress

Complex scalars in configs are strings like ``"1.5-0.25j"``.  Traces
are CSV with one header row, complex quantities split into ``.re`` and
``.im`` columns, and floats printed with 17 significant digits, so a
rerun with the same config and seed reproduces the bytes exactly.

Exit codes: 0 success (converged, or all checks passed), 1 bad
configuration, 2 no convergence within the iteration budget (or a
failed check), 3 divergence or a singular or unidentifiable model.
"""

from __future__ import annotations

import argparse
import cmath
import contextlib
import csv
import functools
import itertools
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from .coords import StructureMatrices, matrix_residual, project_admissible, vector_residual
from .errors import ConfigError, CrcalcError
from .hessian import assemble, hessian_quad, second_order_predict
from .lms import CHUNK_STEPS, SignalModel, draw_signals, instantaneous_gradient, simulate, wiener_solution
from .lsq import LsqProblem, gauss_newton_quad, loss_field
from .optim import (
    OptimizerConfig,
    QStrategy,
    check_minimum,
    descent_step,
    minimize,
)
from .problems import (
    Example1Problem,
    PolynomialParams,
    example1_closed_form,
    example1_loss_field,
    example2_as_lsq,
    polynomial_field,
    polynomial_stationary_point,
)
from .wirtinger import cogradients, cogradients_fd, stationarity_residual

PROBLEM_NAMES = ("example1", "example2", "lms", "custom-polynomial")

#: Most entries of any array a run sizes from its config: the (steps, n)
#: signal and estimate histories of ``lms``, the (20000, n) sample that
#: ``check`` draws for an lms problem, the n_samples-long data of
#: example1 and example2, and the dense 2n x 2n forms that ``check``
#: builds for a custom-polynomial.  Runs at this bound peak below about
#: 2 GB.
_MAX_ENTRIES = 10**7

#: Samples ``check`` draws to average the stochastic gradient of an lms problem.
_CHECK_SAMPLES = 20000

#: Standard errors of the sample mean by which that average may miss
#: R a - p.  Past five, a correct model fails with probability below
#: 1e-6 by the central limit theorem, whatever n is.
_GRADIENT_STANDARD_ERRORS = 5.0


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _fmt_vector(values: np.ndarray) -> str:
    """``[a+bj, ...]`` with 12 significant digits; a NaN or signed-zero imaginary part prints as ``+``."""
    parts = (f"{v.real:.12g}{'-' if v.imag < 0 else '+'}{abs(v.imag):.12g}j" for v in values.tolist())
    return f"[{', '.join(parts)}]"


@contextlib.contextmanager
def _file_errors(path: str):
    """Report an OS error on ``path``, such as a directory or a missing parent, as a config error."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(f"{path}: {exc.strerror}") from None


def _finite(convert, value, path: str):
    """``convert(value)``, rejecting NaN, infinities and integers too large for a float."""
    try:
        number = convert(value)
    except OverflowError:
        number = None
    if number is None or not cmath.isfinite(number):
        raise ConfigError(f"{path}: expected a finite number, got {value!r}")
    return number


def _parse_complex(value, path: str) -> complex:
    if isinstance(value, bool):
        raise ConfigError(f"{path}: expected a complex scalar, got a boolean")
    if isinstance(value, (int, float)):
        return _finite(complex, value, path)
    if isinstance(value, str):
        try:
            parsed = complex(value.replace(" ", ""))
        except ValueError:
            raise ConfigError(f"{path}: cannot parse {value!r}, expected 'a+bj'") from None
        return _finite(complex, parsed, path)
    raise ConfigError(f"{path}: expected a complex scalar, got {type(value).__name__}")


def _parse_complex_list(value, path: str) -> np.ndarray:
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{path}: expected a non-empty list")
    return np.array([_parse_complex(v, f"{path}[{i}]") for i, v in enumerate(value)])


def _parse_real_list(value, path: str) -> np.ndarray:
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{path}: expected a non-empty list")
    return np.array([_parse_real(v, f"{path}[{i}]") for i, v in enumerate(value)])


def _parse_real(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a real number")
    return _finite(float, value, path)


def _parse_int(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path}: expected an integer")
    return value


def _parse_bool(value, path: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{path}: expected true or false")
    return value


def _parse_str(value, path: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{path}: expected a string")
    return value


class _Section:
    """One config section with strict key handling."""

    def __init__(self, data, name: str):
        if data is None:
            data = {}
        if not isinstance(data, dict):
            raise ConfigError(f"{name}: expected an object")
        self.data = dict(data)
        self.name = name
        self.seen: set[str] = set()

    def get(self, key: str, parser, default=...):
        self.seen.add(key)
        if key not in self.data:
            if default is ...:
                raise ConfigError(f"{self.name}.{key}: required key is missing")
            return default
        return parser(self.data[key], f"{self.name}.{key}")

    def finish(self):
        unknown = sorted(set(self.data) - self.seen)
        if unknown:
            raise ConfigError(f"{self.name}: unknown key(s) {', '.join(unknown)}")


def _seed(section: _Section, override: int | None) -> int:
    seed = section.get("seed", _parse_int, 0)
    return seed if override is None else override


@dataclass(frozen=True)
class ExampleSettings:
    alpha: complex
    beta: complex
    z_true: complex
    noise_var: float
    n_samples: int
    seed: int
    z0: complex


@dataclass(frozen=True)
class PolySettings:
    quad_diag: np.ndarray
    conj_diag: np.ndarray
    linear: np.ndarray
    constant: float
    z0: np.ndarray


@dataclass(frozen=True)
class LmsSettings:
    n: int
    steps: int
    step_size: float
    decay: bool
    noise_var: float
    seed: int
    a_ref: np.ndarray
    r_diag: np.ndarray


@dataclass(frozen=True)
class RunConfig:
    problem_name: str
    example: ExampleSettings | None
    poly: PolySettings | None
    lms: LmsSettings | None
    strategy: QStrategy
    optimizer: OptimizerConfig
    out_path: str | None
    quiet: bool
    check_seed: int


def load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except OSError as exc:
        raise ConfigError(f"{path}: {exc.strerror}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be an object")
    return raw


def build_run_config(
    raw: dict,
    seed_override: int | None = None,
    out_override: str | None = None,
    quiet: bool = False,
) -> RunConfig:
    known = {"problem", "algorithm", "optimizer", "lms", "output"}
    unknown = sorted(set(raw) - known)
    if unknown:
        raise ConfigError(f"unknown top-level key(s) {', '.join(unknown)}")

    problem = _Section(raw.get("problem"), "problem")
    name = problem.get("name", _parse_str, "example1")
    if name not in PROBLEM_NAMES:
        raise ConfigError(f"problem.name: expected one of {PROBLEM_NAMES}, got {name!r}")

    example = None
    poly = None
    if name in ("example1", "example2"):
        example = ExampleSettings(
            alpha=problem.get("alpha", _parse_complex, complex(1, 1)),
            beta=problem.get("beta", _parse_complex, complex(0.3, -0.2)),
            z_true=problem.get("z_true", _parse_complex, complex(2, -1)),
            noise_var=problem.get("noise_var", _parse_real, 0.05),
            n_samples=problem.get("n_samples", _parse_int, 200),
            seed=_seed(problem, seed_override),
            z0=problem.get("z0", _parse_complex, complex(0, 0)),
        )
        if example.noise_var < 0:
            raise ConfigError("problem.noise_var: must be nonnegative")
        if example.n_samples < 1:
            raise ConfigError("problem.n_samples: must be positive")
        if example.n_samples > _MAX_ENTRIES:
            raise ConfigError(f"problem.n_samples: must be at most {_MAX_ENTRIES}")
    elif name == "custom-polynomial":
        quad_diag = problem.get("quad_diag", _parse_real_list)
        most = math.isqrt(_MAX_ENTRIES) // 2
        if quad_diag.shape[0] > most:
            raise ConfigError(f"problem.quad_diag: must have at most {most} entries")
        poly = PolySettings(
            quad_diag=quad_diag,
            conj_diag=problem.get("conj_diag", _parse_complex_list),
            linear=problem.get("linear", _parse_complex_list),
            constant=problem.get("constant", _parse_real, 0.0),
            z0=problem.get(
                "z0", _parse_complex_list, np.zeros(quad_diag.shape[0], dtype=complex)
            ),
        )
        lengths = {poly.quad_diag.shape[0], poly.conj_diag.shape[0], poly.linear.shape[0], poly.z0.shape[0]}
        if len(lengths) != 1:
            raise ConfigError("problem: coefficient lists and z0 must share a length")
    problem.finish()

    lms_settings = None
    if "lms" in raw or name == "lms":
        lms_sec = _Section(raw.get("lms"), "lms")
        n = lms_sec.get("n", _parse_int, 4)
        if n < 1:
            raise ConfigError("lms.n: must be positive")
        if n > _MAX_ENTRIES // _CHECK_SAMPLES:
            raise ConfigError(f"lms.n: must be at most {_MAX_ENTRIES // _CHECK_SAMPLES}")
        default_ref = np.zeros(n, dtype=complex)
        default_ref[0] = 1.0
        lms_settings = LmsSettings(
            n=n,
            steps=lms_sec.get("steps", _parse_int, 1000),
            step_size=lms_sec.get("step_size", _parse_real, 0.05),
            decay=lms_sec.get("decay", _parse_bool, False),
            noise_var=lms_sec.get("noise_var", _parse_real, 0.0),
            seed=_seed(lms_sec, seed_override),
            a_ref=lms_sec.get("a_ref", _parse_complex_list, default_ref),
            r_diag=lms_sec.get("r_diag", _parse_real_list, np.ones(n)),
        )
        lms_sec.finish()
        if lms_settings.steps < 0:
            raise ConfigError("lms.steps: must be nonnegative")
        if lms_settings.steps > _MAX_ENTRIES // n:
            raise ConfigError(f"lms.steps: must be at most {_MAX_ENTRIES // n} for lms.n = {n}")
        if lms_settings.step_size <= 0:
            raise ConfigError("lms.step_size: must be positive")
        if lms_settings.noise_var < 0:
            raise ConfigError("lms.noise_var: must be nonnegative")
        if lms_settings.a_ref.shape[0] != n or lms_settings.r_diag.shape[0] != n:
            raise ConfigError("lms: a_ref and r_diag must have length n")
        if np.any(lms_settings.r_diag <= 0):
            raise ConfigError("lms.r_diag: entries must be positive")

    algo = _Section(raw.get("algorithm"), "algorithm")
    kind = algo.get("kind", _parse_str, "newton")
    damping = algo.get("damping", _parse_real, 0.0)
    algo.finish()
    try:
        strategy = QStrategy(kind=kind, damping=damping)
    except ValueError as exc:
        raise ConfigError(f"algorithm: {exc}") from None

    opt = _Section(raw.get("optimizer"), "optimizer")
    step_size = opt.get("step_size", _parse_real, None)
    kwargs = dict(
        step_size=step_size,
        max_iters=opt.get("max_iters", _parse_int, 100),
        grad_tol=opt.get("grad_tol", _parse_real, 1e-8),
        backtracking=opt.get("backtracking", _parse_str, "armijo"),
        armijo_beta=opt.get("armijo_beta", _parse_real, 0.5),
        armijo_c1=opt.get("armijo_c1", _parse_real, 1e-4),
        record_trace=opt.get("record_trace", _parse_bool, True),
    )
    opt.finish()
    try:
        optimizer = OptimizerConfig(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"optimizer: {exc}") from None

    output = _Section(raw.get("output"), "output")
    out_path = output.get("path", _parse_str, None)
    quiet_cfg = output.get("quiet", _parse_bool, False)
    output.finish()

    return RunConfig(
        problem_name=name,
        example=example,
        poly=poly,
        lms=lms_settings,
        strategy=strategy,
        optimizer=optimizer,
        out_path=out_override if out_override is not None else out_path,
        quiet=quiet or quiet_cfg,
        check_seed=seed_override if seed_override is not None else 0,
    )


def _build_example(cfg: RunConfig) -> Example1Problem:
    ex = cfg.example
    try:
        return Example1Problem.synthesize(
            alpha=ex.alpha,
            beta=ex.beta,
            z_true=ex.z_true,
            noise_var=ex.noise_var,
            n_samples=ex.n_samples,
            seed=ex.seed,
        )
    except ValueError as exc:
        raise ConfigError(f"problem: {exc}") from None


def _build_target(cfg: RunConfig):
    """Target object, its loss as a field, start point, and a closed-form solver.

    The field is the target itself unless the target is a least-squares
    problem, which is read through its loss field.
    """
    if cfg.problem_name == "example1":
        prob = _build_example(cfg)
        field = example1_loss_field(prob)
        return field, field, np.array([cfg.example.z0]), lambda: np.array(
            [example1_closed_form(prob)]
        )
    if cfg.problem_name == "example2":
        prob = _build_example(cfg)
        lsq = example2_as_lsq(prob)
        return lsq, loss_field(lsq), np.array([cfg.example.z0]), lambda: np.array(
            [example1_closed_form(prob)]
        )
    if cfg.problem_name == "custom-polynomial":
        params = PolynomialParams(
            quad_diag=cfg.poly.quad_diag,
            conj_diag=cfg.poly.conj_diag,
            linear=cfg.poly.linear,
            constant=cfg.poly.constant,
        )
        field = polynomial_field(params)
        return field, field, cfg.poly.z0.copy(), lambda: polynomial_stationary_point(params)
    raise ConfigError(f"problem {cfg.problem_name!r} is not an optimization target; use the lms subcommand")


def _build_signal_model(cfg: RunConfig) -> SignalModel:
    lm = cfg.lms
    if lm is None:
        raise ConfigError("the lms section is required for this command")
    try:
        return SignalModel.from_reference(
            np.diag(lm.r_diag), lm.a_ref, noise_var=lm.noise_var, seed=lm.seed
        )
    except ValueError as exc:
        raise ConfigError(f"lms: {exc}") from None


def _write_optimize_trace(path: str, trace, n: int) -> None:
    header = ["iter"]
    for i in range(n):
        header += [f"z{i}.re", f"z{i}.im"]
    header += ["loss", "grad_norm", "step_norm", "q_condition", "q_positive_definite"]
    with _file_errors(path), open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for rec in trace:
            row = [str(rec.iteration)]
            for v in rec.z.tolist():
                row += [f"{v.real:.17g}", f"{v.imag:.17g}"]
            row += [_fmt(rec.loss), _fmt(rec.grad_norm), _fmt(rec.step_norm), _fmt(rec.q_condition)]
            if rec.q_positive_definite is None:
                row.append("")
            else:
                row.append("1" if rec.q_positive_definite else "0")
            writer.writerow(row)


def _write_lms_trace(path: str, sim) -> None:
    # CSV as csv.writer writes it (rows end in \r\n); no field ever needs
    # quoting.  Each chunk of rows is one %-format over its flat fields.
    smoothed, misalignment = sim.smoothed_error_power, sim.misalignment[1:]
    with _file_errors(path), open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("step,err_power_smoothed,misalignment\r\n")
        for start in range(0, sim.steps, CHUNK_STEPS):
            stop = min(start + CHUNK_STEPS, sim.steps)
            rows = zip(range(start + 1, stop + 1), smoothed[start:stop].tolist(), misalignment[start:stop].tolist())
            fh.write(("%d,%.17g,%.17g\r\n" * (stop - start)) % tuple(itertools.chain.from_iterable(rows)))


def cmd_optimize(cfg: RunConfig) -> int:
    target, field, z0, _ = _build_target(cfg)
    if cfg.strategy.kind.endswith("gauss_newton") and not isinstance(target, LsqProblem):
        raise ConfigError(
            f"algorithm.kind: {cfg.strategy.kind} needs a least-squares problem (example2)"
        )
    result = minimize(target, z0, cfg.strategy, cfg.optimizer)
    if cfg.out_path:
        _write_optimize_trace(cfg.out_path, result.trace, z0.shape[0])
    classification = check_minimum(hessian_quad(field, result.z))
    if not cfg.quiet:
        print(f"problem: {cfg.problem_name}")
        print(f"algorithm: {cfg.strategy.kind} (damping {_fmt(cfg.strategy.damping)})")
        print(f"status: {result.reason} after {result.iterations} iteration(s)")
        print(f"z: {_fmt_vector(result.z)}")
        print(f"loss: {_fmt(result.loss)}")
        print(f"grad_norm: {_fmt(result.grad_norm)}")
        print(f"hessian: {classification}")
        if cfg.out_path:
            print(f"trace: {cfg.out_path}")
    return 0 if result.converged else 2


@dataclass
class _Check:
    name: str
    residual: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.residual <= self.tol


def _guarded(compute, failed=float("inf")):
    """Run one check's evaluation with numpy's floating-point warnings silenced.

    A :class:`CrcalcError` from it, such as a non-finite evaluation at a
    start where the loss overflows, gives ``failed`` (an infinite
    residual), so the affected checks read FAIL and the report still
    completes.
    """
    try:
        with np.errstate(all="ignore"):
            return compute()
    except CrcalcError:
        return failed


def _optimization_checks(cfg: RunConfig) -> list[_Check]:
    target, field, z0, closed_form = _build_target(cfg)
    n = z0.shape[0]
    rng = np.random.default_rng(cfg.check_seed)
    points = [z0] + [
        z0 + rng.standard_normal(n) + 1j * rng.standard_normal(n) for _ in range(3)
    ]
    checks: list[_Check] = []
    inf = float("inf")

    def derivatives():
        conj_analytic = conj_fd = agreement = 0.0
        for z in points:
            pair = cogradients(field, z)
            fd = cogradients_fd(field, z)
            scale = max(1.0, float(np.max(np.abs(pair.dz), initial=0.0)))
            conj_analytic = max(conj_analytic, pair.conjugation_residual() / scale)
            conj_fd = max(conj_fd, fd.conjugation_residual() / scale)
            agreement = max(agreement, float(np.max(np.abs(pair.dz - fd.dz))) / scale)
        return conj_analytic, conj_fd, agreement

    conj_analytic, conj_fd, agreement = _guarded(derivatives, (inf, inf, inf))
    checks.append(_Check("conjugate-pairing-analytic", conj_analytic, 1e-8))
    checks.append(_Check("conjugate-pairing-differenced", conj_fd, 1e-5))
    checks.append(_Check("derivative-agreement", agreement, 1e-6))

    def curvature():
        quad = hessian_quad(field, z0)
        scale_h = max(1.0, float(np.max(np.abs(quad.hzz))))
        assembled = assemble(quad)
        dense = StructureMatrices(n)
        congruence = float(
            np.max(np.abs(dense.J.conj().T @ assembled.hc_complex @ dense.J - assembled.hrr))
        )
        eig_r = np.sort(np.linalg.eigvalsh(assembled.hrr))
        eig_c = np.sort(np.linalg.eigvalsh(assembled.hc_complex))
        doubling = float(np.max(np.abs(eig_r - 2.0 * eig_c))) / max(1.0, float(np.max(np.abs(eig_r))))
        return quad.invariant_residual() / scale_h, congruence / scale_h, doubling

    invariants, congruence, doubling = _guarded(curvature, (inf, inf, inf))
    checks.append(_Check("curvature-block-invariants", invariants, 1e-8))

    step = 0.3 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))

    def representation_spread():
        preds = [
            second_order_predict(field, z0, step, rep) for rep in ("z", "c-complex", "c-real", "r")
        ]
        return (max(preds) - min(preds)) / max(1.0, abs(preds[0]))

    checks.append(_Check("representation-agreement", _guarded(representation_spread), 1e-10))
    checks.append(_Check("real-hessian-congruence", congruence, 1e-12))
    checks.append(_Check("eigenvalue-doubling", doubling, 1e-8))

    probe = rng.standard_normal((2 * n, 2 * n)) + 1j * rng.standard_normal((2 * n, 2 * n))
    once = project_admissible(probe)
    idem = float(np.max(np.abs(project_admissible(once) - once))) / max(1.0, float(np.max(np.abs(once))))
    checks.append(_Check("projector-idempotence", idem, 1e-10))

    def step_residual(kind):
        delta_c, _ = descent_step(target, z0, QStrategy(kind, damping=cfg.strategy.damping))
        return vector_residual(delta_c) / max(1.0, float(np.max(np.abs(delta_c))))

    kinds = ["identity", "newton", "quasi_newton"]
    if isinstance(target, LsqProblem):
        kinds += ["gauss_newton", "quasi_gauss_newton"]
    for kind in kinds:
        checks.append(_Check(f"descent-step-{kind}", _guarded(lambda: step_residual(kind)), 1e-9))

    def gauss_newton_admissibility():
        gn = gauss_newton_quad(target, z0).dense()
        return matrix_residual(gn) / max(1.0, float(np.max(np.abs(gn))))

    if isinstance(target, LsqProblem):
        checks.append(_Check("gauss-newton-admissibility", _guarded(gauss_newton_admissibility), 1e-10))

    zstar = closed_form()
    stat = _guarded(lambda: stationarity_residual(field, zstar))
    checks.append(_Check("closed-form-stationarity", stat, 1e-8))
    return checks


def _lms_checks(cfg: RunConfig) -> list[_Check]:
    model = _build_signal_model(cfg)
    target = wiener_solution(model)
    checks = []
    stat = float(np.max(np.abs(model.r_matrix @ target - model.p)))
    scale = max(1.0, float(np.max(np.abs(model.p))))
    checks.append(_Check("wiener-stationarity", stat / scale, 1e-10))

    rng = np.random.default_rng(cfg.check_seed + 1)
    a_probe = target + 0.5 * (rng.standard_normal(model.n) + 1j * rng.standard_normal(model.n))

    def gradient_agreement():
        xi, eta = draw_signals(model, _CHECK_SAMPLES)
        sample = instantaneous_gradient(a_probe, xi, eta)
        expected = model.r_matrix @ a_probe - model.p
        scale = max(float(np.linalg.norm(expected)), 1e-12)
        residual = float(np.linalg.norm(np.mean(sample, axis=0) - expected)) / scale
        # The sample mean's error has expected squared norm equal to the
        # summed per-coordinate variances over the sample count.
        standard_error = float(np.sqrt(np.sum(np.var(sample, axis=0)) / _CHECK_SAMPLES)) / scale
        return residual, _GRADIENT_STANDARD_ERRORS * standard_error

    residual, tol = _guarded(gradient_agreement, (float("inf"), float("nan")))
    checks.append(_Check("expected-gradient-agreement", residual, tol))
    return checks


def cmd_check(cfg: RunConfig) -> int:
    if cfg.problem_name == "lms":
        checks = _lms_checks(cfg)
    else:
        checks = _optimization_checks(cfg)
    lines = []
    for chk in checks:
        status = "PASS" if chk.passed else "FAIL"
        lines.append(f"{chk.name}: residual={chk.residual:.3e} tol={chk.tol:.1e} {status}")
    failed = [chk for chk in checks if not chk.passed]
    summary = f"{len(checks) - len(failed)}/{len(checks)} checks passed"
    if cfg.out_path:
        with _file_errors(cfg.out_path), open(cfg.out_path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines + [summary]) + "\n")
    if not cfg.quiet:
        for line in lines:
            print(line)
        print(summary)
    return 0 if not failed else 2


def cmd_lms(cfg: RunConfig) -> int:
    model = _build_signal_model(cfg)
    lm = cfg.lms
    sim = simulate(model, steps=lm.steps, step_size=lm.step_size, decay=lm.decay)
    if cfg.out_path:
        _write_lms_trace(cfg.out_path, sim)
    if not cfg.quiet:
        print(f"steps: {sim.steps}")
        print(f"wiener: {_fmt_vector(sim.wiener)}")
        print(f"estimate: {_fmt_vector(sim.a_hat)}")
        print(f"final_misalignment: {_fmt(sim.misalignment[-1])}")
        if sim.steps:
            print(f"final_smoothed_error_power: {_fmt(sim.smoothed_error_power[-1])}")
        if cfg.out_path:
            print(f"trace: {cfg.out_path}")
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of this process, built on first use; parsing does not change it."""
    parser = argparse.ArgumentParser(
        prog="crcalc",
        description="Complex-valued optimization with conjugate-coordinate calculus.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("optimize", "minimize a configured problem"),
        ("check", "run the identity and consistency checks"),
        ("lms", "simulate the adaptive filter"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", metavar="PATH", help="JSON config file")
        cmd.add_argument("--out", metavar="PATH", help="trace or report output path")
        cmd.add_argument("--seed", type=int, default=None, help="override configured seeds")
        cmd.add_argument("--quiet", action="store_true", help="suppress stdout")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        raw = load_config(args.config) if args.config else {}
        cfg = build_run_config(
            raw, seed_override=args.seed, out_override=args.out, quiet=args.quiet
        )
        if args.command == "optimize":
            return cmd_optimize(cfg)
        if args.command == "check":
            return cmd_check(cfg)
        return cmd_lms(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except CrcalcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (MemoryError, ValueError) as exc:
        # numpy's answer to a configured size that cannot be allocated
        print(f"config error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

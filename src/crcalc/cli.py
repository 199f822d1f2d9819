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
import csv
import json
import sys
from dataclasses import dataclass

import numpy as np

from .coords import StructureMatrices, matrix_residual, project_admissible, vector_residual
from .errors import ConfigError, CrcalcError, Diverged, SingularMatrix, Unidentifiable
from .hessian import assemble, hessian_quad, second_order_predict
from .lms import SignalModel, draw_signals, simulate, wiener_solution
from .lsq import LsqProblem, gauss_newton_hessian, loss_field
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


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _fmt_complex(z: complex) -> str:
    re, im = float(np.real(z)), float(np.imag(z))
    sign = "+" if im >= 0 or np.isnan(im) else "-"
    return f"{re:.12g}{sign}{abs(im):.12g}j"


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
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
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
            seed=problem.get("seed", _parse_int, 0),
            z0=problem.get("z0", _parse_complex, complex(0, 0)),
        )
        if example.noise_var < 0:
            raise ConfigError("problem.noise_var: must be nonnegative")
        if example.n_samples < 1:
            raise ConfigError("problem.n_samples: must be positive")
    elif name == "custom-polynomial":
        quad_diag = problem.get("quad_diag", _parse_real_list)
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
        default_ref = np.zeros(n, dtype=complex)
        default_ref[0] = 1.0
        lms_settings = LmsSettings(
            n=n,
            steps=lms_sec.get("steps", _parse_int, 1000),
            step_size=lms_sec.get("step_size", _parse_real, 0.05),
            decay=lms_sec.get("decay", _parse_bool, False),
            noise_var=lms_sec.get("noise_var", _parse_real, 0.0),
            seed=lms_sec.get("seed", _parse_int, 0),
            a_ref=lms_sec.get("a_ref", _parse_complex_list, default_ref),
            r_diag=lms_sec.get("r_diag", _parse_real_list, np.ones(n)),
        )
        lms_sec.finish()
        if lms_settings.steps < 0:
            raise ConfigError("lms.steps: must be nonnegative")
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

    if seed_override is not None:
        if example is not None:
            example = ExampleSettings(**{**example.__dict__, "seed": seed_override})
        if lms_settings is not None:
            lms_settings = LmsSettings(**{**lms_settings.__dict__, "seed": seed_override})

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
    return Example1Problem.synthesize(
        alpha=ex.alpha,
        beta=ex.beta,
        z_true=ex.z_true,
        noise_var=ex.noise_var,
        n_samples=ex.n_samples,
        seed=ex.seed,
    )


def _build_target(cfg: RunConfig):
    """Target object, start point, and an optional closed-form solver."""
    if cfg.problem_name == "example1":
        prob = _build_example(cfg)
        return example1_loss_field(prob), np.array([cfg.example.z0]), lambda: np.array(
            [example1_closed_form(prob)]
        )
    if cfg.problem_name == "example2":
        prob = _build_example(cfg)
        return example2_as_lsq(prob), np.array([cfg.example.z0]), lambda: np.array(
            [example1_closed_form(prob)]
        )
    if cfg.problem_name == "custom-polynomial":
        params = PolynomialParams(
            quad_diag=cfg.poly.quad_diag,
            conj_diag=cfg.poly.conj_diag,
            linear=cfg.poly.linear,
            constant=cfg.poly.constant,
        )
        return polynomial_field(params), cfg.poly.z0.copy(), lambda: polynomial_stationary_point(params)
    raise ConfigError(f"problem {cfg.problem_name!r} is not an optimization target; use the lms subcommand")


def _build_signal_model(cfg: RunConfig) -> SignalModel:
    lm = cfg.lms
    if lm is None:
        raise ConfigError("the lms section is required for this command")
    return SignalModel.from_reference(
        np.diag(lm.r_diag), lm.a_ref, noise_var=lm.noise_var, seed=lm.seed
    )


def _write_optimize_trace(path: str, trace, n: int) -> None:
    header = ["iter"]
    for i in range(n):
        header += [f"z{i}.re", f"z{i}.im"]
    header += ["loss", "grad_norm", "step_norm", "q_condition", "q_positive_definite"]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for rec in trace:
            row = [str(rec.iteration)]
            for i in range(n):
                row += [_fmt(rec.z[i].real), _fmt(rec.z[i].imag)]
            row += [_fmt(rec.loss), _fmt(rec.grad_norm), _fmt(rec.step_norm), _fmt(rec.q_condition)]
            if rec.q_positive_definite is None:
                row.append("")
            else:
                row.append("1" if rec.q_positive_definite else "0")
            writer.writerow(row)


def _write_lms_trace(path: str, sim) -> None:
    # CSV as csv.writer writes it (rows end in \r\n); no field ever needs quoting.
    rows = zip(range(1, sim.steps + 1), sim.smoothed_error_power.tolist(), sim.misalignment[1:].tolist())
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("step,err_power_smoothed,misalignment\r\n")
        fh.writelines(f"{k},{p:.17g},{m:.17g}\r\n" for k, p, m in rows)


def _final_quad(target, z):
    if isinstance(target, LsqProblem):
        return hessian_quad(loss_field(target), z)
    return hessian_quad(target, z)


def cmd_optimize(cfg: RunConfig) -> int:
    target, z0, _ = _build_target(cfg)
    result = minimize(target, z0, cfg.strategy, cfg.optimizer)
    if cfg.out_path:
        _write_optimize_trace(cfg.out_path, result.trace, z0.shape[0])
    classification = check_minimum(_final_quad(target, result.z))
    if not cfg.quiet:
        coords = ", ".join(_fmt_complex(v) for v in result.z)
        print(f"problem: {cfg.problem_name}")
        print(f"algorithm: {cfg.strategy.kind} (damping {_fmt(cfg.strategy.damping)})")
        print(f"status: {result.reason} after {result.iterations} iteration(s)")
        print(f"z: [{coords}]")
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


def _optimization_checks(cfg: RunConfig) -> list[_Check]:
    target, z0, closed_form = _build_target(cfg)
    field = loss_field(target) if isinstance(target, LsqProblem) else target
    n = z0.shape[0]
    rng = np.random.default_rng(cfg.check_seed)
    points = [z0] + [
        z0 + rng.standard_normal(n) + 1j * rng.standard_normal(n) for _ in range(3)
    ]
    checks: list[_Check] = []

    conj_analytic = 0.0
    conj_fd = 0.0
    agreement = 0.0
    agreement_tol = 1e-6
    for z in points:
        pair = cogradients(field, z)
        fd = cogradients_fd(field, z)
        scale = max(1.0, float(np.max(np.abs(pair.dz), initial=0.0)))
        conj_analytic = max(conj_analytic, pair.conjugation_residual() / scale)
        conj_fd = max(conj_fd, fd.conjugation_residual() / scale)
        agreement = max(agreement, float(np.max(np.abs(pair.dz - fd.dz))) / scale)
    checks.append(_Check("conjugate-pairing-analytic", conj_analytic, 1e-8))
    checks.append(_Check("conjugate-pairing-differenced", conj_fd, 1e-5))
    checks.append(_Check("derivative-agreement", agreement, agreement_tol))

    quad = hessian_quad(field, z0)
    scale_h = max(1.0, float(np.max(np.abs(quad.hzz))))
    checks.append(_Check("curvature-block-invariants", quad.invariant_residual() / scale_h, 1e-8))

    spread = 0.0
    step = 0.3 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    preds = [
        second_order_predict(field, z0, step, rep) for rep in ("z", "c-complex", "c-real", "r")
    ]
    spread = (max(preds) - min(preds)) / max(1.0, abs(preds[0]))
    checks.append(_Check("representation-agreement", spread, 1e-10))

    assembled = assemble(quad)
    dense = StructureMatrices(n)
    congruence = float(
        np.max(np.abs(dense.J.conj().T @ assembled.hc_complex @ dense.J - assembled.hrr))
    ) / scale_h
    checks.append(_Check("real-hessian-congruence", congruence, 1e-12))

    eig_r = np.sort(np.linalg.eigvalsh(assembled.hrr))
    eig_c = np.sort(np.linalg.eigvalsh(assembled.hc_complex))
    doubling = float(np.max(np.abs(eig_r - 2.0 * eig_c))) / max(1.0, float(np.max(np.abs(eig_r))))
    checks.append(_Check("eigenvalue-doubling", doubling, 1e-8))

    probe = rng.standard_normal((2 * n, 2 * n)) + 1j * rng.standard_normal((2 * n, 2 * n))
    once = project_admissible(probe)
    idem = float(np.max(np.abs(project_admissible(once) - once))) / max(1.0, float(np.max(np.abs(once))))
    checks.append(_Check("projector-idempotence", idem, 1e-10))

    kinds = ["identity", "newton", "quasi_newton"]
    if isinstance(target, LsqProblem):
        kinds += ["gauss_newton", "quasi_gauss_newton"]
    for kind in kinds:
        try:
            delta_c, _ = descent_step(target, z0, QStrategy(kind, damping=cfg.strategy.damping))
            resid = vector_residual(delta_c) / max(1.0, float(np.max(np.abs(delta_c))))
        except CrcalcError:
            resid = float("inf")
        checks.append(_Check(f"descent-step-{kind}", resid, 1e-9))

    if isinstance(target, LsqProblem):
        gn = gauss_newton_hessian(target, z0)
        gn_adm = matrix_residual(gn) / max(1.0, float(np.max(np.abs(gn))))
        checks.append(_Check("gauss-newton-admissibility", gn_adm, 1e-10))

    zstar = closed_form()
    stat = stationarity_residual(field, zstar)
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
    xi, eta = draw_signals(model, 20000)
    err = eta - xi @ np.conj(a_probe)
    sample_grad = -np.mean(xi * np.conj(err)[:, None], axis=0)
    expected = model.r_matrix @ a_probe - model.p
    rel = float(np.linalg.norm(sample_grad - expected) / max(np.linalg.norm(expected), 1e-12))
    checks.append(_Check("expected-gradient-agreement", rel, 5e-2))
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
    if not cfg.quiet:
        for line in lines:
            print(line)
        print(summary)
    if cfg.out_path:
        with open(cfg.out_path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines + [summary]) + "\n")
    return 0 if not failed else 2


def cmd_lms(cfg: RunConfig) -> int:
    model = _build_signal_model(cfg)
    lm = cfg.lms
    sim = simulate(model, steps=lm.steps, step_size=lm.step_size, decay=lm.decay)
    if cfg.out_path:
        _write_lms_trace(cfg.out_path, sim)
    if not cfg.quiet:
        print(f"steps: {sim.steps}")
        print(f"wiener: [{', '.join(_fmt_complex(v) for v in sim.wiener)}]")
        print(f"estimate: [{', '.join(_fmt_complex(v) for v in sim.a_hat)}]")
        print(f"final_misalignment: {_fmt(sim.misalignment[-1])}")
        if sim.steps:
            print(f"final_smoothed_error_power: {_fmt(sim.smoothed_error_power[-1])}")
        if cfg.out_path:
            print(f"trace: {cfg.out_path}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
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
    except (Diverged, SingularMatrix, Unidentifiable) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except CrcalcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

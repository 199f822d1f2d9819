"""The benchmark's workloads: inputs drawn from a seed, the ops, and their gates.

Each workload is a list of ops that a single client runs in a closed
loop, one after the other.  An op is one user-visible action: a call of
the in-process CLI entry point ``crcalc.cli.main`` or of the public
``minimize``.  Its ``run`` is the timed part; its ``check`` compares the
output with a reference afterwards, untimed, and returns a failure
reason or None.

Problem sizes follow a fixed low-discrepancy ladder that does not depend
on the seed, so every seed gives the same mix of sizes and the seed
only changes the data.  A workload is a fixed rotation of distinct ops
that the worker runs over and over, so a window holds the same mix of
op kinds whatever its length, and every op is timed many times.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import crcalc
import crcalc.cli
import crcalc.lms
import crcalc.lsq
import crcalc.optim
import crcalc.problems
import crcalc.wirtinger

_GOLDEN = (5**0.5 - 1) / 2


def ladder(j: int, lo: int, hi: int) -> int:
    """Size of the j-th op of a kind: a golden-ratio sweep over [lo, hi]."""
    return lo + int(round((hi - lo) * ((0.5 + j * _GOLDEN) % 1.0)))


@dataclass
class Op:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], "str | None"]
    prepare: Callable[[], None] | None = None


@dataclass
class Workload:
    name: str
    ops: list[Op]
    #: Ops per traced cycle; each cycle repeats the same ops, so per-op counts repeat.
    cycle: int
    #: Calls of the callables the benchmark builds (model, jacobian, field).
    calls: Counter = field(default_factory=Counter)


def _cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = crcalc.cli.main(argv)
    return code, buf.getvalue()


def _complex_str(z) -> str:
    return repr(complex(z))


def _cplx(rng, size=None, scale=1.0):
    return scale * (rng.standard_normal(size) + 1j * rng.standard_normal(size)) / np.sqrt(2.0)


def _write_json(path: str, obj) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)
    return path


def _summary(out: str) -> dict[str, str]:
    fields = {}
    for line in out.splitlines():
        key, sep, value = line.partition(": ")
        if sep:
            fields[key] = value
    return fields


def _parse_vector(text: str) -> np.ndarray:
    return np.array([complex(v) for v in text.strip("[]").split(", ")])


def _close(got, ref, rel: float) -> bool:
    got = np.asarray(got)
    ref = np.asarray(ref)
    return got.shape == ref.shape and float(np.max(np.abs(got - ref))) <= rel * max(
        1.0, float(np.max(np.abs(ref)))
    )


def _check_optimize(result, reference: Callable[[], np.ndarray]) -> str | None:
    """Gate for ``crcalc optimize``: exit 0, converged, local minimum, reference z."""
    code, out = result
    if code != 0:
        return f"exit code {code}"
    fields = _summary(out)
    if not fields.get("status", "").startswith("converged"):
        return f"status {fields.get('status')!r}"
    if fields.get("hessian") != "local_min":
        return f"hessian {fields.get('hessian')!r}"
    # z is printed with 12 significant digits.
    if not _close(_parse_vector(fields["z"]), reference(), 1e-9):
        return "z differs from the closed form"
    return None


# -- lsq-fit ------------------------------------------------------------------


def _example2_config(rng, m: int) -> dict:
    return {
        "problem": {
            "name": "example2",
            "alpha": _complex_str(rng.uniform(0.9, 1.5) * np.exp(2j * np.pi * rng.uniform())),
            "beta": _complex_str(rng.uniform(0.1, 0.5) * np.exp(2j * np.pi * rng.uniform())),
            "z_true": _complex_str(_cplx(rng, scale=2.0)),
            "noise_var": float(rng.uniform(0.02, 0.1)),
            "n_samples": m,
            "seed": int(rng.integers(2**31)),
            "z0": _complex_str(_cplx(rng)),
        }
    }


def _example2_reference(problem: dict) -> Callable[[], np.ndarray]:
    def reference():
        prob = crcalc.problems.Example1Problem.synthesize(
            alpha=complex(problem["alpha"]),
            beta=complex(problem["beta"]),
            z_true=complex(problem["z_true"]),
            noise_var=problem["noise_var"],
            n_samples=problem["n_samples"],
            seed=problem["seed"],
        )
        return np.array([crcalc.problems.example1_closed_form(prob)])

    return reference


def _nonlinear_model(rng, m: int, n: int, calls: Counter):
    """g(z) = A z + B conj(z) + gamma (C z)^2 with its analytic Jacobian pair.

    Small residual and a start near the truth keep both Newton and
    Gauss-Newton inside their region of convergence.
    """
    a = _cplx(rng, (m, n))
    b = _cplx(rng, (m, n), 0.3)
    c = _cplx(rng, (m, n), 1.0 / np.sqrt(n))
    gamma = 0.2

    def model(z):
        calls["model"] += 1
        return a @ z + b @ np.conj(z) + gamma * (c @ z) ** 2

    def jacobian(z):
        calls["jacobian"] += 1
        return crcalc.wirtinger.JacobianPair(a + 2.0 * gamma * (c @ z)[:, None] * c, b)

    z_true = _cplx(rng, n, 1.5)
    clean = a @ z_true + b @ np.conj(z_true) + gamma * (c @ z_true) ** 2
    y = clean + _cplx(rng, m, 0.05)
    z0 = z_true + _cplx(rng, n, 0.3)
    g = crcalc.wirtinger.VectorField(m, model, jacobian_fn=jacobian, name="bench model")
    return g, y, z0


#: Distinct ops in each workload's rotation.
LSQ_FIT_OPS = 16
FIELD_SOLVE_OPS = 12
LMS_STREAM_OPS = 16


def lsq_fit(seed: int, workdir: str) -> Workload:
    """Rotation: example2 Newton, nonlinear Newton, example2 GN, nonlinear GN."""
    ops: list[Op] = []
    calls: Counter = Counter()
    newton_z: dict[int, np.ndarray] = {}
    # The loss is O(0.1); a tighter gradient tolerance than this sits at
    # the rounding level of the Armijo test and can stall either strategy.
    config = crcalc.optim.OptimizerConfig(grad_tol=1e-6)
    for j in range(LSQ_FIT_OPS // 4):
        rng = np.random.default_rng([seed, j])
        cfg = _example2_config(rng, ladder(j, 700, 1100))
        reference = _example2_reference(cfg["problem"])
        g, y, z0 = _nonlinear_model(rng, ladder(j, 100, 160), 4, calls)
        for kind in ("newton", "gauss_newton"):
            path = _write_json(
                os.path.join(workdir, f"example2-{j}-{kind}.json"),
                {**cfg, "algorithm": {"kind": kind}},
            )
            ops.append(
                Op(
                    f"example2-{kind}",
                    lambda path=path: _cli(["optimize", "--config", path]),
                    lambda res, ref=reference: _check_optimize(res, ref),
                )
            )

            def run(g=g, y=y, z0=z0, kind=kind):
                problem = crcalc.lsq.LsqProblem(g=g, y=y)
                return crcalc.optim.minimize(problem, z0, crcalc.optim.QStrategy(kind), config)

            def check(res, j=j, kind=kind):
                if not res.converged:
                    return f"{kind} stopped: {res.reason} after {res.iterations} iterations"
                if kind == "newton":
                    newton_z[j] = res.z
                elif j in newton_z and not _close(res.z, newton_z[j], 1e-5):
                    return "Newton and Gauss-Newton answers differ"
                return None

            ops.append(Op(f"nonlinear-{kind}", run, check))
    return Workload("lsq-fit", ops, cycle=8, calls=calls)


# -- field-solve --------------------------------------------------------------


def _polynomial_problem(rng, n: int) -> dict:
    c = rng.uniform(1.0, 3.0, n)
    d = c * rng.uniform(0.0, 0.8, n) * np.exp(2j * np.pi * rng.uniform(size=n))
    return {
        "name": "custom-polynomial",
        "quad_diag": c.tolist(),
        "conj_diag": [_complex_str(v) for v in d],
        "linear": [_complex_str(v) for v in _cplx(rng, n, 2.0)],
        "constant": float(rng.uniform(-1.0, 1.0)),
        "z0": [_complex_str(v) for v in _cplx(rng, n)],
    }


def _polynomial_reference(problem: dict) -> Callable[[], np.ndarray]:
    def reference():
        params = crcalc.problems.PolynomialParams(
            quad_diag=np.array(problem["quad_diag"]),
            conj_diag=np.array([complex(v) for v in problem["conj_diag"]]),
            linear=np.array([complex(v) for v in problem["linear"]]),
            constant=problem["constant"],
        )
        return crcalc.problems.polynomial_stationary_point(params)

    return reference


def _convex_field(rng, n: int, calls: Counter, q0: float):
    """f = q + q^2 / 4 with q(z) = u^H P u + Re(u^T D u), u = z - center.

    q is a positive definite quadratic in (Re z, Im z), so f is smooth,
    strictly convex and not quadratic, and its only stationary point is
    the center.  No analytic derivatives are attached.  The start point
    lies in a random direction at q = q0, because Newton's iteration
    count depends mostly on q there; so the op's cost does not move
    with the seed.
    """
    m = _cplx(rng, (n, n), 1.0 / np.sqrt(n))
    p = m.conj().T @ m + 0.5 * np.eye(n)
    d = np.diag(0.3 * rng.uniform(size=n) * np.exp(2j * np.pi * rng.uniform(size=n)))
    center = _cplx(rng, n, 1.5)

    def q_of(z):
        u = z - center
        return float(np.real(np.conj(u) @ p @ u) + np.real(u @ d @ u)), u

    def fn(z):
        calls["field"] += 1
        q, _ = q_of(z)
        return q + 0.25 * q * q

    def dz_row(z):
        q, u = q_of(z)
        return (1.0 + 0.5 * q) * (np.conj(u) @ p + u @ d)

    convex = crcalc.wirtinger.ScalarField(fn, name="bench convex field")
    step = _cplx(rng, n, 1.0)
    z0 = center + step * np.sqrt(q0 / q_of(center + step)[0])
    return convex, z0, center, dz_row


def field_solve(seed: int, workdir: str) -> Workload:
    """Rotation: polynomial optimize (CLI), differenced-field Newton, polynomial check (CLI)."""
    ops: list[Op] = []
    calls: Counter = Counter()
    for j in range(FIELD_SOLVE_OPS // 3):
        rng = np.random.default_rng([seed, j])
        problem = _polynomial_problem(rng, ladder(j, 224, 288))
        path = _write_json(
            os.path.join(workdir, f"poly-{j}.json"),
            {"problem": problem, "algorithm": {"kind": "newton"}},
        )
        reference = _polynomial_reference(problem)
        ops.append(
            Op(
                "polynomial-optimize",
                lambda path=path: _cli(["optimize", "--config", path]),
                lambda res, ref=reference: _check_optimize(res, ref),
            )
        )

        convex, z0, center, dz_row = _convex_field(rng, 8, calls, ladder(j, 4, 16))

        def run(convex=convex, z0=z0):
            return crcalc.optim.minimize(convex, z0, crcalc.optim.QStrategy("newton"))

        def check(res, center=center, dz_row=dz_row):
            if not res.converged:
                return f"stopped: {res.reason} after {res.iterations} iterations"
            if float(np.max(np.abs(dz_row(res.z)))) > 1e-6:
                return "differenced field is not stationary"
            if not _close(res.z, center, 1e-5):
                return "minimizer differs from the field's center"
            return None

        ops.append(Op("field-newton", run, check))

        check_path = _write_json(
            os.path.join(workdir, f"check-{j}.json"),
            {"problem": _polynomial_problem(rng, ladder(j, 32, 64))},
        )
        check_seed = str(int(rng.integers(2**31)))

        def check_report(res):
            code, out = res
            lines = out.strip().splitlines()
            if code != 0:
                return f"exit code {code}"
            if not lines or any(not line.endswith(" PASS") for line in lines[:-1]):
                return "a check did not PASS"
            done, _, total = lines[-1].split()[0].partition("/")
            if done != total or int(total) != len(lines) - 1:
                return f"summary {lines[-1]!r}"
            return None

        ops.append(
            Op(
                "polynomial-check",
                lambda p=check_path, s=check_seed: _cli(["check", "--config", p, "--seed", s]),
                check_report,
            )
        )
    return Workload("field-solve", ops, cycle=6, calls=calls)


# -- lms-stream ---------------------------------------------------------------


def _lms_reference(lms: dict):
    """Plain numpy LMS recursion on the library's ``draw_signals`` inputs.

    Returns the final estimate, the misalignment after every step
    (starting at the zero estimate) and the final smoothed error power.
    """
    n = lms["n"]
    r = np.diag(lms["r_diag"])
    a_ref = np.array([complex(v) for v in lms["a_ref"]])
    model = crcalc.lms.SignalModel.from_reference(r, a_ref, noise_var=lms["noise_var"], seed=lms["seed"])
    xi, eta = crcalc.lms.draw_signals(model, lms["steps"])
    wiener = np.linalg.solve(model.r_matrix, model.p)
    norm_w = np.linalg.norm(wiener)
    mu = lms["step_size"]
    a = np.zeros(n, dtype=complex)
    mis = np.empty(lms["steps"] + 1)
    mis[0] = np.linalg.norm(a - wiener) / norm_w
    smoothed = 0.0
    for k in range(lms["steps"]):
        err = eta[k] - np.vdot(a, xi[k])
        a = a + mu * xi[k] * np.conj(err)
        power = abs(err) ** 2
        smoothed = power if k == 0 else 0.95 * smoothed + 0.05 * power
        mis[k + 1] = np.linalg.norm(a - wiener) / norm_w
    return a, mis, smoothed


def _rel_close(got: float, ref: float, rel: float = 1e-12) -> bool:
    return abs(got - ref) <= rel * abs(ref)


def lms_stream(seed: int, workdir: str) -> Workload:
    """Eight configs, n in {4, 16} x two r_diag spreads x {quiet, CSV trace}.

    The rotation holds 16 ops, two step counts per config, so op times
    spread evenly instead of bunching at a few step counts, which would
    put the median on a gap between two bunches.  Each op recurs once
    per pass, which is what the byte-identical trace check compares.
    """
    rng = np.random.default_rng([seed, 0])
    configs = []
    for k in range(8):
        n = (4, 16)[(k // 2) % 2]
        spread = (3.0, 30.0)[k // 4] * rng.uniform(0.8, 1.25)
        r_diag = np.geomspace(1.0, spread, n)
        r_diag = r_diag / r_diag.mean()
        configs.append(
            {
                "n": n,
                "step_size": float(0.2 / n),
                "noise_var": float(rng.uniform(0.001, 0.05)),
                "seed": int(rng.integers(2**31)),
                "a_ref": [_complex_str(v) for v in _cplx(rng, n)],
                "r_diag": r_diag.tolist(),
            }
        )
    references: dict[int, tuple] = {}
    trace_digest: dict[int, str] = {}

    def make(k: int) -> Op:
        lms = {**configs[k % 8], "steps": ladder(k, 2000, 4000)}
        path = _write_json(os.path.join(workdir, f"lms-{k}.json"), {"problem": {"name": "lms"}, "lms": lms})
        argv = ["lms", "--config", path]
        trace_path = None
        if k % 2:
            trace_path = os.path.join(workdir, f"lms-{k}.csv")
            argv += ["--out", trace_path]

        def prepare():
            if trace_path and os.path.exists(trace_path):
                os.remove(trace_path)

        def check(res):
            code, out = res
            if code != 0:
                return f"exit code {code}"
            if k not in references:
                references[k] = _lms_reference(lms)
            a_ref, mis_ref, smoothed_ref = references[k]
            fields = _summary(out)
            # The estimate is printed with 12 significant digits, the
            # misalignment and error power with 17.
            if not _close(_parse_vector(fields["estimate"]), a_ref, 1e-11):
                return "estimate differs from the reference recursion"
            if not _rel_close(float(fields["final_misalignment"]), mis_ref[-1]):
                return "final misalignment differs from the reference recursion"
            if not _rel_close(float(fields["final_smoothed_error_power"]), smoothed_ref):
                return "smoothed error power differs from the reference recursion"
            if trace_path is None:
                return None
            with open(trace_path, "rb") as fh:
                data = fh.read()
            digest = hashlib.sha256(data).hexdigest()
            if trace_digest.setdefault(k, digest) != digest:
                return "same-seed trace is not byte-identical"
            rows = data.decode().splitlines()[1:]
            mis = np.array([float(row.rsplit(",", 1)[1]) for row in rows])
            if mis.shape != mis_ref[1:].shape or np.any(np.abs(mis - mis_ref[1:]) > 1e-12 * np.abs(mis_ref[1:])):
                return "trace misalignment differs from the reference recursion"
            return None

        return Op("lms-trace" if trace_path else "lms-quiet", lambda: _cli(argv), check, prepare)

    return Workload("lms-stream", [make(k) for k in range(LMS_STREAM_OPS)], cycle=8)


WORKLOADS = {"lsq-fit": lsq_fit, "field-solve": field_solve, "lms-stream": lms_stream}

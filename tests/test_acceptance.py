"""End-to-end acceptance checks.

Each check prints exactly one summary line, so a full run reads as a
checklist.  The lines bypass pytest capture; the module can also be
executed directly with ``python3 tests/test_acceptance.py``.
"""

import contextlib
import json
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import crcalc
from crcalc import (
    Example1Problem,
    JacobianPair,
    LsqProblem,
    OptimizerConfig,
    QStrategy,
    ScalarField,
    SignalModel,
    StructureMatrices,
    VectorField,
    assemble,
    check_minimum,
    cogradients,
    cogradients_fd,
    compose,
    conjugate_field,
    descent_step,
    draw_signals,
    example1_closed_form,
    example1_loss_field,
    example2_as_lsq,
    gauss_newton_quad,
    hessian_quad,
    instantaneous_gradient,
    is_admissible_matrix,
    is_holomorphic,
    loss,
    matrix_residual,
    minimize,
    newton_quad,
    project_admissible,
    second_order_predict,
    simulate,
    stationarity_residual,
)
from crcalc.cli import main as cli_main

try:
    from ._oracles import (
        dense_c,
        dense_j,
        dense_s,
        quartic_norm_field,
        random_complex_matrix,
        random_complex_vector,
        random_poly_vector_field,
        random_quadratic_loss,
        real_fd_hessian,
        z_to_r,
    )
except ImportError:  # direct execution outside the package
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from _oracles import (
        dense_c,
        dense_j,
        dense_s,
        quartic_norm_field,
        random_complex_matrix,
        random_complex_vector,
        random_poly_vector_field,
        random_quadratic_loss,
        real_fd_hessian,
        z_to_r,
    )


def _emit(line, capsys=None):
    if capsys is not None:
        with capsys.disabled():
            print(line)
    else:
        print(line)


@contextlib.contextmanager
def criterion(number, name, capsys=None):
    try:
        yield
    except BaseException:
        _emit(f"ACCEPTANCE {number:02d} {name}: FAIL", capsys)
        raise
    _emit(f"ACCEPTANCE {number:02d} {name}: PASS", capsys)


def _criterion_01(capsys=None):
    with criterion(1, "holomorphy-classification", capsys):
        start = time.perf_counter()
        a = np.array([1.0 - 1.0j, 2.0 + 0.5j])

        holo = {
            "square": (
                lambda z: z**2,
                lambda z: JacobianPair([[2.0 * z[0]]], [[0.0]]),
                [0.4 + 0.2j],
            ),
            "exp": (
                lambda z: np.exp(z),
                lambda z: JacobianPair([[np.exp(z[0])]], [[0.0]]),
                [0.0 + 0j],
            ),
            "inner": (
                lambda z: np.array([np.conj(a) @ z]),
                lambda z: JacobianPair(np.conj(a)[None, :], np.zeros((1, 2))),
                [0.1 + 0.1j, -0.3 + 0j],
            ),
        }
        not_holo = {
            "conj": (
                lambda z: np.conj(z),
                lambda z: JacobianPair([[0.0]], [[1.0]]),
                [0.8 + 0.3j],
            ),
            "real-part": (
                lambda z: np.real(z).astype(complex),
                lambda z: JacobianPair([[0.5]], [[0.5]]),
                [0.8 + 0.3j],
            ),
            "imag-part": (
                lambda z: np.imag(z).astype(complex),
                lambda z: JacobianPair([[-0.5j]], [[0.5j]]),
                [0.8 + 0.3j],
            ),
            "mod-squared": (
                lambda z: (z * np.conj(z)).astype(complex),
                lambda z: JacobianPair([[np.conj(z[0])]], [[z[0]]]),
                [0.8 + 0.3j],
            ),
            "modulus": (
                lambda z: np.abs(z).astype(complex),
                lambda z: JacobianPair(
                    [[np.conj(z[0]) / (2.0 * abs(z[0]))]], [[z[0] / (2.0 * abs(z[0]))]]
                ),
                [0.8 + 0.3j],
            ),
        }

        for name, (fn, jac, center) in holo.items():
            analytic = VectorField(1, fn, jacobian_fn=jac, name=name)
            plain = VectorField(1, fn, name=name)
            rep_a = is_holomorphic(analytic, center=center)
            rep_p = is_holomorphic(plain, center=center)
            assert rep_a.holomorphic and rep_a.tol == 1e-9, name
            assert rep_p.holomorphic and rep_p.tol == 1e-5, name

        for name, (fn, jac, center) in not_holo.items():
            analytic = VectorField(1, fn, jacobian_fn=jac, name=name)
            plain = VectorField(1, fn, name=name)
            assert not is_holomorphic(analytic, center=center).holomorphic, name
            assert not is_holomorphic(plain, center=center).holomorphic, name

        assert time.perf_counter() - start < 1.0


def _criterion_02(capsys=None):
    with criterion(2, "derivative-identities", capsys):
        start = time.perf_counter()
        rng = np.random.default_rng(2026)
        tol = 1e-5
        for trial in range(200):
            n = int(rng.integers(1, 5))
            m = int(rng.integers(1, 5))
            ref = random_poly_vector_field(rng, n, m, scale=0.4)
            plain = VectorField(m, ref.fn, name="plain")
            z = random_complex_vector(rng, n, scale=0.6)

            fd = cogradients_fd(plain, z)
            scale = max(1.0, float(np.abs(fd.jz).max()), float(np.abs(fd.jzbar).max()))

            # Conjugated map: derivative blocks swap and conjugate.
            fd_conj = cogradients_fd(conjugate_field(plain), z)
            assert np.abs(fd_conj.jzbar - np.conj(fd.jz)).max() <= tol * scale
            assert np.abs(fd_conj.jz - np.conj(fd.jzbar)).max() <= tol * scale

            # Real losses carry conjugate derivative rows.
            sq = ScalarField(
                lambda w: float(np.real(np.conj(plain(w)) @ plain(w))), name="norm sq"
            )
            sq_pair = cogradients_fd(sq, z)
            assert np.abs(sq_pair.dzbar - np.conj(sq_pair.dz)).max() <= tol * max(
                1.0, float(np.abs(sq_pair.dz).max())
            )

            # First-order change decomposes over both blocks.
            delta = random_complex_vector(rng, n)
            t = 1e-4
            direct = (plain(z + t * delta) - plain(z - t * delta)) / (2.0 * t)
            predicted = fd.jz @ delta + fd.jzbar @ np.conj(delta)
            assert np.abs(direct - predicted).max() <= tol * max(1.0, float(np.abs(direct).max()))

            # Chain rule in both blocks for a composite map.
            if trial % 4 == 0:
                outer_ref = random_poly_vector_field(rng, m, int(rng.integers(1, 4)), scale=0.4)
                outer = VectorField(outer_ref.m, outer_ref.fn, name="outer plain")
                combo = compose(outer, plain)
                fd_combo = cogradients_fd(combo, z)
                go = cogradients_fd(outer, plain(z))
                chained_jz = go.jz @ fd.jz + go.jzbar @ np.conj(fd.jzbar)
                chained_jzbar = go.jz @ fd.jzbar + go.jzbar @ np.conj(fd.jz)
                cscale = max(1.0, float(np.abs(chained_jz).max()))
                assert np.abs(fd_combo.jz - chained_jz).max() <= tol * cscale
                assert np.abs(fd_combo.jzbar - chained_jzbar).max() <= tol * cscale

        assert time.perf_counter() - start < 10.0


def _criterion_03(capsys=None):
    with criterion(3, "structure-algebra", capsys):
        for n in range(1, 9):
            mats = StructureMatrices(n)
            j, s, c = mats.J, mats.S, mats.C
            eye = np.eye(2 * n)
            assert np.abs(np.linalg.inv(j) - 0.5 * j.conj().T).max() <= 1e-12
            assert np.abs(s @ s - eye).max() <= 1e-12
            assert abs(np.linalg.det(s) - (-1.0) ** n) <= 1e-12
            assert np.abs(0.5 * j.conj().T @ s @ j - c).max() <= 1e-12
            assert np.abs(0.5 * j.T @ s @ j - eye).max() <= 1e-12
            assert np.abs(j - dense_j(n)).max() == 0.0
            assert np.abs(s - dense_s(n)).max() == 0.0
            assert np.abs(c - dense_c(n)).max() == 0.0


def _criterion_04(capsys=None):
    with criterion(4, "admissible-projector", capsys):
        rng = np.random.default_rng(404)
        for _ in range(500):
            n = int(rng.integers(1, 5))
            m = random_complex_matrix(rng, 2 * n, 2 * n)
            pm = project_admissible(m)
            assert np.abs(project_admissible(pm) - pm).max() <= 1e-10
            assert matrix_residual(pm) <= 1e-10
            # Generic draws are not fixed points; admissible ones are.
            assert matrix_residual(m) > 1e-6
            assert np.abs(project_admissible(pm) - pm).max() <= 1e-10
            invertible = pm + (2.0 + float(np.abs(pm).max())) * np.eye(2 * n)
            assert matrix_residual(np.linalg.inv(invertible)) <= 1e-10


def _criterion_05(capsys=None):
    with criterion(5, "curvature-representations", capsys):
        rng = np.random.default_rng(505)
        for _ in range(50):
            n = int(rng.integers(1, 5))
            _, quad = random_quadratic_loss(rng, n)
            built = assemble(quad)
            hc, hs, hrr = built.hc_complex, built.hc_real, built.hrr
            scale = max(1.0, float(np.abs(hc).max()))

            assert np.abs(hs - dense_s(n) @ hc).max() <= 1e-8 * scale
            dense = dense_j(n).conj().T @ hc @ dense_j(n)
            assert np.abs(dense.imag).max() <= 1e-10 * scale
            assert np.abs(hrr - dense.real).max() <= 1e-8 * scale

            ev_c = np.sort(np.linalg.eigvalsh(hc))
            ev_r = np.sort(np.linalg.eigvalsh(hrr))
            assert np.abs(ev_r - 2.0 * ev_c).max() <= 1e-8 * scale

            sv_c = np.sort(np.linalg.svd(hc, compute_uv=False))
            sv_s = np.sort(np.linalg.svd(hs, compute_uv=False))
            assert np.abs(sv_c - sv_s).max() <= 1e-8 * scale

            back = crcalc.complex_from_real(hrr)
            assert np.abs(back - hc).max() <= 1e-8 * scale


def _criterion_06(capsys=None):
    with criterion(6, "second-order-agreement", capsys):
        rng = np.random.default_rng(606)
        reps = ("z", "c-complex", "c-real", "r")
        fields = []
        for _ in range(40):
            n = int(rng.integers(1, 5))
            field, _ = random_quadratic_loss(rng, n)
            fields.append((field, n))
        fields.append((quartic_norm_field(with_analytic=True), 2))
        for field, n in fields:
            z = random_complex_vector(rng, n, scale=0.7)
            delta = random_complex_vector(rng, n, scale=0.3)
            values = [second_order_predict(field, z, delta, representation=r) for r in reps]
            spread = max(values) - min(values)
            assert spread <= 1e-10 * max(1.0, abs(values[0]))


def _criterion_07(capsys=None):
    with criterion(7, "scalar-channel-closed-forms", capsys):
        start = time.perf_counter()
        rng = np.random.default_rng(707)
        for _ in range(20):
            alpha = complex(rng.standard_normal() + 1j * rng.standard_normal())
            beta = 0.5 * complex(rng.standard_normal() + 1j * rng.standard_normal())
            if abs(abs(alpha) - abs(beta)) < 1e-3:
                alpha *= 2.0
            problem = Example1Problem.synthesize(
                alpha, beta, 1.5 - 0.5j, noise_var=0.1, n_samples=64, seed=11
            )
            field = example1_loss_field(problem)

            coupling = 0.5 * (abs(alpha) ** 2 + abs(beta) ** 2)
            expected = np.array(
                [[coupling, np.conj(alpha) * beta], [alpha * np.conj(beta), coupling]]
            )
            hc = assemble(hessian_quad(field, np.array([0.3 + 0.1j]))).hc_complex
            assert np.abs(hc - expected).max() <= 1e-12 * max(1.0, float(np.abs(expected).max()))

            z_hat = example1_closed_form(problem)
            assert stationarity_residual(field, np.array([z_hat])) <= 1e-10

        balanced = Example1Problem.synthesize(
            1.0 + 0j, np.exp(0.9j), 1.0 + 1.0j, n_samples=32, seed=3
        )
        hc = assemble(
            hessian_quad(example1_loss_field(balanced), np.array([0.0 + 0j]))
        ).hc_complex
        eigs = np.linalg.eigvalsh(hc)
        assert eigs.min() <= 1e-10 * float(np.trace(hc).real)
        assert check_minimum(hessian_quad(example1_loss_field(balanced), np.array([0j]))) == "singular"

        assert time.perf_counter() - start < 1.0


def _criterion_08(capsys=None):
    with criterion(8, "residual-form-equivalence", capsys):
        rng = np.random.default_rng(808)
        problem = Example1Problem.synthesize(
            1.0 + 1.0j, 0.3 - 0.2j, 2.0 - 1.0j, noise_var=0.05, n_samples=200, seed=0
        )
        lsq = example2_as_lsq(problem)
        field = example1_loss_field(problem)
        z_hat = example1_closed_form(problem)

        for _ in range(5):
            z = random_complex_vector(rng, 1, scale=2.0)
            assert abs(loss(lsq, z) - field(z)) <= 1e-12 * max(1.0, field(z))
            hn = newton_quad(lsq, z).dense()
            gn = gauss_newton_quad(lsq, z).dense()
            assert np.abs(hn - gn).max() <= 1e-12 * max(1.0, float(np.abs(gn).max()))

        # The conjugate-coupling entry of the curvature is alpha-bar beta.
        gn = gauss_newton_quad(lsq, np.array([0.0 + 0j])).dense()
        coupling = np.conj(problem.alpha) * problem.beta
        assert abs(gn[0, 1] - coupling) <= 1e-12
        assert abs(coupling) > 0.1

        for _ in range(10):
            z0 = random_complex_vector(rng, 1, scale=4.0)
            result = minimize(lsq, z0, QStrategy(kind="newton"))
            assert result.converged and result.iterations == 1
            assert abs(result.z[0] - z_hat) <= 1e-8


def _criterion_09(capsys=None):
    with criterion(9, "newton-vs-oracle", capsys):
        rng = np.random.default_rng(909)
        for _ in range(100):
            n = int(rng.integers(1, 4))
            m = int(rng.integers(1, 4))
            g = random_poly_vector_field(rng, n, m, scale=0.3)
            y = random_complex_vector(rng, m)
            w_half = random_complex_matrix(rng, m, m, scale=0.3)
            problem = LsqProblem(g, y, w_half @ w_half.conj().T + np.eye(m))
            z = random_complex_vector(rng, n, scale=0.4)

            hn = newton_quad(problem, z).dense()
            hrr = real_fd_hessian(lambda r: loss(problem, r[:n] + 1j * r[n:]), z_to_r(z))
            j = dense_j(n)
            oracle = 0.25 * j @ hrr @ j.conj().T
            scale = max(1.0, float(np.abs(oracle).max()))
            assert np.abs(hn - oracle).max() <= 1e-4 * scale

        for _ in range(10):
            n = int(rng.integers(1, 4))
            m = int(rng.integers(1, 4))
            g = random_poly_vector_field(rng, n, m, scale=0.4, holomorphic=True)
            problem = LsqProblem(g, random_complex_vector(rng, m))
            z = random_complex_vector(rng, n)
            quad = gauss_newton_quad(problem, z)
            uzz, uzbz = quad.hzz, quad.hzbz
            assert np.abs(uzbz).max() <= 1e-10
            jz = cogradients(g, z).jz
            expected = 0.5 * jz.conj().T @ problem.w @ jz
            assert np.abs(uzz - expected).max() <= 1e-10 * max(1.0, float(np.abs(expected).max()))


def _criterion_10(capsys=None):
    with criterion(10, "strategy-convergence", capsys):
        start = time.perf_counter()
        problem = Example1Problem.synthesize(
            1.0 + 1.0j, 0.3 - 0.2j, 2.0 - 1.0j, noise_var=0.05, n_samples=200, seed=0
        )
        field = example1_loss_field(problem)
        lsq = example2_as_lsq(problem)
        z_hat = example1_closed_form(problem)
        z0 = np.array([4.0 + 3.0j])

        cases = {
            "identity": field,
            "newton": field,
            "quasi_newton": field,
            "gauss_newton": lsq,
            "quasi_gauss_newton": lsq,
        }
        for kind, target in cases.items():
            config = OptimizerConfig(max_iters=2000, grad_tol=1e-8)
            result = minimize(target, z0, QStrategy(kind=kind), config)
            assert result.converged, kind
            assert abs(result.z[0] - z_hat) <= 1e-6, kind
            losses = result.trace.losses
            assert all(b <= a + 1e-15 for a, b in zip(losses, losses[1:])), kind
            delta_c, _ = descent_step(target, z0, QStrategy(kind=kind))
            assert crcalc.vector_residual(delta_c) <= 1e-9 * max(1.0, float(np.abs(delta_c).max()))

        assert time.perf_counter() - start < 5.0


def _criterion_11(capsys=None):
    with criterion(11, "adaptive-filter", capsys):
        a_ref = np.array([1.0 - 0.5j, 0.25 + 0j, -0.5 + 1.0j, 0.3 + 0.2j])
        model = SignalModel.white(a_ref, noise_var=0.0, seed=0)
        result = simulate(model, steps=5000, step_size=0.05)
        assert result.misalignment[-1] <= 1e-3

        r = np.array(
            [
                [2.0, 0.5 + 0.5j, 0.1 + 0j],
                [0.5 - 0.5j, 2.0, 0.5 + 0.5j],
                [0.1 + 0j, 0.5 - 0.5j, 2.0],
            ]
        )
        noisy = SignalModel.from_reference(r, np.array([1.0 + 0j, -0.5 + 0.5j, 0.25 - 1.0j]), noise_var=0.1, seed=7)
        a = np.array([0.4 - 0.1j, 0.9 + 0.2j, -0.3 + 0.6j])
        xi, eta = draw_signals(noisy, 100000)
        grads = instantaneous_gradient(a, xi, eta)
        sample_mean = grads.mean(axis=0)
        expected = noisy.r_matrix @ a - noisy.p
        assert np.abs(sample_mean - expected).max() <= 0.02 * max(1.0, float(np.abs(expected).max()))
        # Spot check the stacked form against the one-sample form.
        np.testing.assert_allclose(
            grads[0], instantaneous_gradient(a, xi[0], eta[0]), atol=1e-12
        )


def _criterion_12(tmp_path=None, capsys=None):
    with criterion(12, "reproducible-traces", capsys):
        own_tmp = None
        if tmp_path is None:
            own_tmp = tempfile.TemporaryDirectory()
            tmp_path = Path(own_tmp.name)
        try:
            cfg_opt = tmp_path / "opt.json"
            cfg_opt.write_text(json.dumps({"problem": {"noise_var": 0.1, "seed": 6}}))
            first = tmp_path / "first.csv"
            second = tmp_path / "second.csv"
            assert cli_main(["optimize", "--config", str(cfg_opt), "--out", str(first), "--quiet"]) == 0
            assert cli_main(["optimize", "--config", str(cfg_opt), "--out", str(second), "--quiet"]) == 0
            assert first.read_bytes() == second.read_bytes()
            assert first.stat().st_size > 0

            cfg_lms = tmp_path / "lms.json"
            cfg_lms.write_text(
                json.dumps({"problem": {"name": "lms"}, "lms": {"steps": 200, "noise_var": 0.05}})
            )
            lms_first = tmp_path / "lms_first.csv"
            lms_second = tmp_path / "lms_second.csv"
            assert cli_main(["lms", "--config", str(cfg_lms), "--out", str(lms_first), "--quiet"]) == 0
            assert cli_main(["lms", "--config", str(cfg_lms), "--out", str(lms_second), "--quiet"]) == 0
            assert lms_first.read_bytes() == lms_second.read_bytes()
        finally:
            if own_tmp is not None:
                own_tmp.cleanup()


def test_01_holomorphy_classification(capsys):
    _criterion_01(capsys)


def test_02_derivative_identities(capsys):
    _criterion_02(capsys)


def test_03_structure_algebra(capsys):
    _criterion_03(capsys)


def test_04_admissible_projector(capsys):
    _criterion_04(capsys)


def test_05_curvature_representations(capsys):
    _criterion_05(capsys)


def test_06_second_order_agreement(capsys):
    _criterion_06(capsys)


def test_07_scalar_channel_closed_forms(capsys):
    _criterion_07(capsys)


def test_08_residual_form_equivalence(capsys):
    _criterion_08(capsys)


def test_09_newton_vs_oracle(capsys):
    _criterion_09(capsys)


def test_10_strategy_convergence(capsys):
    _criterion_10(capsys)


def test_11_adaptive_filter(capsys):
    _criterion_11(capsys)


def test_12_reproducible_traces(tmp_path, capsys):
    _criterion_12(tmp_path, capsys)


if __name__ == "__main__":
    checks = [
        _criterion_01,
        _criterion_02,
        _criterion_03,
        _criterion_04,
        _criterion_05,
        _criterion_06,
        _criterion_07,
        _criterion_08,
        _criterion_09,
        _criterion_10,
        _criterion_11,
        _criterion_12,
    ]
    failures = 0
    for check in checks:
        try:
            check()
        except BaseException as exc:
            failures += 1
            print(f"  {type(exc).__name__}: {exc}", file=sys.stderr)
    print(f"{len(checks) - failures}/{len(checks)} criteria passed")
    sys.exit(0 if failures == 0 else 1)

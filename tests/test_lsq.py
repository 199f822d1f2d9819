"""Weighted residual losses and their curvature approximations."""

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crcalc import (
    DimensionError,
    Example1Problem,
    HessianQuad,
    JacobianPair,
    LsqProblem,
    NonFiniteEvaluation,
    OptimizerConfig,
    QStrategy,
    SingularQ,
    VectorField,
    cogradients,
    cogradients_fd,
    complex_from_real,
    descent_step,
    example2_as_lsq,
    gauss_newton_quad,
    hessian_quad,
    is_admissible_matrix,
    is_admissible_vector,
    loss,
    loss_field,
    loss_pair,
    minimize,
    newton_quad,
    real_hessian,
    residual,
    swap,
)
from crcalc import coords, lsq
from crcalc.hessian import FD_SECOND_STEP
from ._oracles import (
    dense_j,
    dense_lsq_curvature,
    dense_s,
    dense_weight,
    random_complex_matrix,
    random_complex_vector,
    random_poly_vector_field,
    real_fd_hessian,
    stacked_jacobian,
    z_to_r,
)

RNG = np.random.default_rng


def scalar_square_problem(y_val=2.0 + 1.0j, analytic=True):
    """Model z |-> z^2 with one observation."""
    jac = (lambda z: JacobianPair([[2.0 * z[0]]], [[0.0]])) if analytic else None
    g = VectorField(1, lambda z: z**2, jacobian_fn=jac, name="square")
    return LsqProblem(g, np.array([y_val]))


def random_problem(rng, n, m, holomorphic=False, scale=0.4):
    g = random_poly_vector_field(rng, n, m, scale=scale, holomorphic=holomorphic)
    y = random_complex_vector(rng, m)
    w_half = random_complex_matrix(rng, m, m, scale=0.3)
    w = w_half @ w_half.conj().T + np.eye(m)
    return LsqProblem(g, y, w)


WEIGHT_KINDS = ("identity", "scalar", "diagonal", "dense")


@st.composite
def nonlinear_problems(draw, weights=WEIGHT_KINDS):
    """A random nonlinear LsqProblem and a point.

    The model is analytic or differenced.  The weight is drawn from
    ``weights``: the default identity, a positive scalar, a positive
    diagonal, or a dense Hermitian positive definite matrix.
    """
    rng = RNG(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 4))
    m = draw(st.integers(1, 8))
    g = random_poly_vector_field(rng, n, m, scale=0.4)
    if draw(st.booleans()):
        g = VectorField(m, g.fn, name="differenced model")
    kind = draw(st.sampled_from(weights))
    w = None
    if kind == "scalar":
        w = float(rng.uniform(0.1, 3.0))
    elif kind == "diagonal":
        w = rng.uniform(0.1, 3.0, m)
    elif kind == "dense":
        w_half = random_complex_matrix(rng, m, m, scale=0.3)
        w = w_half @ w_half.conj().T + np.eye(m)
    return LsqProblem(g, random_complex_vector(rng, m), w), random_complex_vector(rng, n, scale=0.5)


class TestProblemConstruction:
    def test_default_weight_is_identity(self):
        problem = scalar_square_problem()
        np.testing.assert_array_equal(dense_weight(problem), np.eye(1))

    def test_weight_must_be_hermitian(self):
        g = VectorField(2, lambda z: z)
        with pytest.raises(ValueError):
            LsqProblem(g, np.zeros(2, dtype=complex), np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_weight_must_be_positive_definite(self):
        g = VectorField(2, lambda z: z)
        with pytest.raises(ValueError):
            LsqProblem(g, np.zeros(2, dtype=complex), -np.eye(2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.inf)])
    @pytest.mark.parametrize("where", [(1, 1), (0, 1)])
    def test_dense_weight_must_be_finite(self, bad, where):
        # Before the finiteness check a NaN passed the Hermitian test
        # and the Cholesky factorization, and an inf warned there.
        g = VectorField(2, lambda z: z)
        w = np.eye(2, dtype=complex)
        w[where] = w[where[::-1]] = bad
        with pytest.raises(ValueError, match="weight must be finite"):
            LsqProblem(g, np.zeros(2, dtype=complex), w)

    def test_observation_length_checked(self):
        g = VectorField(2, lambda z: z)
        with pytest.raises(ValueError):
            LsqProblem(g, np.zeros(3, dtype=complex))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
    def test_observations_must_be_finite(self, bad):
        g = VectorField(2, lambda z: z)
        with pytest.raises(ValueError, match="finite"):
            LsqProblem(g, np.array([1.0, bad]))

    @pytest.mark.parametrize("w", [0.0, -1.0, np.nan, np.inf, 1.0 + 1.0j])
    def test_scalar_weight_must_be_real_finite_and_positive(self, w):
        g = VectorField(2, lambda z: z)
        with pytest.raises(ValueError) as info:
            LsqProblem(g, np.zeros(2, dtype=complex), w)
        assert not isinstance(info.value, DimensionError)

    @pytest.mark.parametrize("w", [[1.0, -1.0], [1.0, np.nan]])
    def test_diagonal_weight_must_be_finite_and_positive(self, w):
        g = VectorField(2, lambda z: z)
        with pytest.raises(ValueError) as info:
            LsqProblem(g, np.zeros(2, dtype=complex), np.array(w))
        assert not isinstance(info.value, DimensionError)

    def test_diagonal_weight_length_checked(self):
        g = VectorField(2, lambda z: z)
        with pytest.raises(DimensionError):
            LsqProblem(g, np.zeros(2, dtype=complex), np.ones(3))

    def test_dense_view_of_structured_weights(self):
        sample = Example1Problem.synthesize(1 + 1j, 0.3 - 0.2j, 2 - 1j, 0.05, 7, 0)
        np.testing.assert_array_equal(dense_weight(example2_as_lsq(sample)), np.eye(7) / 7)
        g = VectorField(3, lambda z: np.concatenate([z, z, z]))
        np.testing.assert_array_equal(dense_weight(LsqProblem(g, np.zeros(3))), np.eye(3))
        diagonal = LsqProblem(g, np.zeros(3), [1.0, 2.0, 0.5])
        np.testing.assert_array_equal(dense_weight(diagonal), np.diag([1.0, 2.0, 0.5]))

    def test_structured_weights_skip_the_dense_check(self, monkeypatch):
        # Neither the I/m weight of example2 nor the default identity is
        # expanded to m x m or factored when the problem is built.
        def refuse(*args):
            raise AssertionError("a structured weight was Cholesky-checked")

        monkeypatch.setattr(lsq, "_hpd_cholesky", refuse)
        monkeypatch.setattr(coords, "_hpd_cholesky", refuse)
        m = 1000
        sample = Example1Problem.synthesize(1 + 1j, 0.3 - 0.2j, 2 - 1j, 0.05, m, 0)
        g = VectorField(m, lambda z: np.full(m, z[0]))
        tracemalloc.start()
        try:
            example2_as_lsq(sample)
            LsqProblem(g, np.zeros(m))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < m * m


class TestLossAndDerivatives:
    def test_frozen_scalar_loss(self):
        problem = scalar_square_problem(y_val=2.0 + 0j)
        # e = 2 - 1 = 1 at z = 1, so the loss is 1/2.
        assert loss(problem, np.array([1.0 + 0j])) == pytest.approx(0.5)
        np.testing.assert_allclose(residual(problem, np.array([1.0 + 0j])), [1.0])

    def test_overflowing_form_is_infinite(self):
        # The residual is finite but e^H W e overflows; the form is
        # nonnegative, so the loss is inf, not NaN.
        problem = example2_as_lsq(
            Example1Problem.synthesize(1 + 1j, 0.3 - 0.2j, 2 - 1j, 0.05, 50, 0)
        )
        assert np.all(np.isfinite(residual(problem, [1e200])))
        assert loss(problem, [1e200]) == np.inf

    def test_overflowing_scalar_weight_is_infinite(self):
        g = VectorField(2, lambda z: z, name="identity model")
        problem = LsqProblem(g, np.array([1e5, -2e5 + 1j]), 1e300)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert loss(problem, np.zeros(2)) == np.inf

    def test_cogradient_row_and_gradient_are_conjugate_pair(self):
        rng = RNG(81)
        problem = random_problem(rng, 2, 4)
        z = random_complex_vector(rng, 2)
        pair = loss_pair(problem, z)
        np.testing.assert_array_equal(pair.dzbar, np.conj(pair.dz))
        grad = np.conj(np.concatenate([pair.dz, pair.dzbar]))
        assert is_admissible_vector(grad, tol=1e-12)

    def test_cogradient_matches_differenced_loss(self):
        rng = RNG(82)
        for _ in range(5):
            n = int(rng.integers(1, 4))
            m = int(rng.integers(1, 5))
            problem = random_problem(rng, n, m)
            z = random_complex_vector(rng, n, scale=0.5)
            pair = loss_pair(problem, z)
            from crcalc import ScalarField

            plain = ScalarField(lambda w: loss(problem, w), name="plain loss")
            fd = cogradients_fd(plain, z)
            scale = max(1.0, float(np.abs(pair.dz).max()))
            assert np.abs(pair.dz - fd.dz).max() <= 1e-5 * scale

    def test_loss_field_bridges_to_generic_machinery(self):
        rng = RNG(83)
        for _ in range(20):
            n = int(rng.integers(1, 4))
            m = int(rng.integers(1, 6))
            problem = random_problem(rng, n, m)
            z = random_complex_vector(rng, n, scale=0.5)
            field = loss_field(problem)
            assert field(z) == loss(problem, z)
            pair = cogradients(field, z)
            np.testing.assert_array_equal(pair.dz, loss_pair(problem, z).dz)
            # The optimiser reads Newton blocks through this path; it must not round.
            quad = hessian_quad(field, z)
            hc = newton_quad(problem, z).dense()
            np.testing.assert_array_equal(quad.hzz, hc[:n, :n])
            np.testing.assert_array_equal(quad.hzbz, hc[:n, n:])


class TestGaussNewton:
    def test_projected_form_is_admissible_and_psd(self):
        rng = RNG(84)
        for _ in range(10):
            n = int(rng.integers(1, 4))
            m = int(rng.integers(1, 5))
            problem = random_problem(rng, n, m)
            z = random_complex_vector(rng, n)
            gn = gauss_newton_quad(problem, z).dense()
            assert is_admissible_matrix(gn, tol=1e-10)
            assert np.abs(gn - gn.conj().T).max() <= 1e-12
            assert np.linalg.eigvalsh(gn).min() >= -1e-10

    def test_projection_preserves_admissible_quadratic_forms(self):
        # On paired variations the raw and projected curvature agree.
        rng = RNG(85)
        problem = random_problem(rng, 2, 3)
        z = random_complex_vector(rng, 2)
        gmat = stacked_jacobian(problem, z)
        raw = gmat.conj().T @ dense_weight(problem) @ gmat
        gn = gauss_newton_quad(problem, z).dense()
        for _ in range(10):
            dz = random_complex_vector(rng, 2)
            dc = np.concatenate([dz, np.conj(dz)])
            lhs = np.real(np.conj(dc) @ raw @ dc)
            rhs = np.real(np.conj(dc) @ gn @ dc)
            assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)

    def test_holomorphic_model_gives_block_diagonal_form(self):
        rng = RNG(86)
        problem = random_problem(rng, 3, 4, holomorphic=True)
        z = random_complex_vector(rng, 3)
        quad = gauss_newton_quad(problem, z)
        uzz, uzbz = quad.hzz, quad.hzbz
        assert np.abs(uzbz).max() <= 1e-10
        jz = cogradients(problem.g, z).jz
        expected = 0.5 * jz.conj().T @ dense_weight(problem) @ jz
        np.testing.assert_allclose(uzz, expected, atol=1e-10)


class TestNewton:
    def test_frozen_scalar_square_model(self):
        # g = z^2, W = 1: H = GN - corrections gives the blocks
        # [[2|z|^2, -conj(e)], [-e, 2|z|^2]] in (z, conj z) coordinates.
        z0 = 1.0 + 0.5j
        problem = scalar_square_problem(y_val=2.0 + 1.0j)
        z = np.array([z0])
        e = (2.0 + 1.0j) - z0**2
        expected = np.array(
            [
                [2.0 * abs(z0) ** 2, -np.conj(e)],
                [-e, 2.0 * abs(z0) ** 2],
            ]
        )
        got = newton_quad(problem, z).dense()
        assert np.abs(got - expected).max() <= 1e-9

    @staticmethod
    def oracle_draws():
        """Random problems, each with a point and its real-space curvature oracle and scale.

        The last draw has many residual components.
        """
        rng = RNG(87)
        draws = []
        for _ in range(8):
            n = int(rng.integers(1, 3))
            m = int(rng.integers(1, 4))
            draws.append((random_problem(rng, n, m, scale=0.3), random_complex_vector(rng, n, scale=0.4)))
        draws.append((random_problem(rng, 2, 20, scale=0.3), random_complex_vector(rng, 2, scale=0.4)))
        for problem, z in draws:
            n = z.shape[0]
            hrr = real_fd_hessian(lambda r: loss(problem, r[:n] + 1j * r[n:]), z_to_r(z))
            oracle = complex_from_real(hrr)
            yield problem, z, oracle, max(1.0, float(np.abs(oracle).max()))

    def test_matches_real_space_oracle_on_random_problems(self):
        # Each draw is checked with the analytic model and with the same
        # model differenced, which nests two differencing levels.
        for problem, z, oracle, scale in self.oracle_draws():
            plain = VectorField(problem.m, problem.g.fn, name="differenced model")
            for model in (problem.g, plain):
                hn = newton_quad(LsqProblem(model, problem.y, dense_weight(problem)), z).dense()
                assert np.abs(hn - oracle).max() <= 1e-4 * scale

    def test_differenced_model_keeps_the_central_stencil(self, monkeypatch):
        # A differenced G carries noise that a forward stencil amplifies:
        # forward differencing measured 6.4e-4 * scale against the oracle
        # on these draws, past the 1e-4 * scale bound that central holds.
        # So the jacobians are the 4n central probes +x, -x, +y, -y per
        # coordinate at relative step eps**(1/4), then G at z.
        points = []

        def recording(field, w):
            points.append(np.array(w, dtype=complex))
            return cogradients(field, w)

        monkeypatch.setattr(lsq, "cogradients", recording)
        for problem, z, oracle, scale in self.oracle_draws():
            plain = VectorField(problem.m, problem.g.fn, name="differenced model")
            points.clear()
            hn = newton_quad(LsqProblem(plain, problem.y, dense_weight(problem)), z).dense()
            assert np.abs(hn - oracle).max() <= 1e-4 * scale
            want = []
            for i in range(z.shape[0]):
                ex = np.zeros_like(z)
                ex[i] = FD_SECOND_STEP * max(1.0, abs(z[i].real))
                ey = np.zeros_like(z)
                ey[i] = 1j * FD_SECOND_STEP * max(1.0, abs(z[i].imag))
                want += [z + ex, z - ex, z + ey, z - ey]
            want.append(z)
            assert len(points) == 4 * z.shape[0] + 1
            for got, expected in zip(points, want):
                np.testing.assert_array_equal(got, expected)

    def test_result_is_hermitian_and_admissible(self):
        rng = RNG(88)
        problem = random_problem(rng, 2, 3)
        z = random_complex_vector(rng, 2)
        hn = newton_quad(problem, z).dense()
        assert np.abs(hn - hn.conj().T).max() <= 1e-12
        assert is_admissible_matrix(hn, tol=1e-12)

    def test_linear_model_collapses_to_gauss_newton(self):
        rng = RNG(89)
        a = random_complex_matrix(rng, 3, 2)
        b = random_complex_matrix(rng, 3, 2)
        g = VectorField(
            3,
            lambda z: a @ z + b @ np.conj(z),
            jacobian_fn=lambda z: JacobianPair(a, b),
            name="linear",
        )
        problem = LsqProblem(g, random_complex_vector(rng, 3))
        z = random_complex_vector(rng, 2)
        np.testing.assert_allclose(
            newton_quad(problem, z).dense(), gauss_newton_quad(problem, z).dense(), atol=1e-12
        )

    def test_zero_residual_collapses_to_gauss_newton(self):
        rng = RNG(90)
        problem_model = random_poly_vector_field(rng, 2, 3, scale=0.4)
        z_star = random_complex_vector(rng, 2)
        problem = LsqProblem(problem_model, problem_model(z_star))
        gn = gauss_newton_quad(problem, z_star).dense()
        hn = newton_quad(problem, z_star).dense()
        assert np.abs(hn - gn).max() <= 1e-9

    def test_quad_view_matches_matrix_blocks(self):
        rng = RNG(91)
        problem = random_problem(rng, 2, 3)
        z = random_complex_vector(rng, 2)
        quad = newton_quad(problem, z)
        hn = quad.dense()
        np.testing.assert_allclose(quad.hzz, hn[:2, :2], atol=1e-12)
        np.testing.assert_allclose(quad.hzbz, hn[:2, 2:], atol=1e-12)

    def test_jacobian_evaluations_do_not_grow_with_m(self):
        # One Gauss-Newton jacobian plus the 2n forward probes of one
        # differenced weighted row, whatever the residual count.
        rng = RNG(92)
        n = 2
        for m in (3, 40):
            problem = random_problem(rng, n, m, scale=0.2)
            analytic = problem.g.jacobian_fn
            calls = []

            def counted(z, _inner=analytic):
                calls.append(1)
                return _inner(z)

            g = VectorField(m, problem.g.fn, jacobian_fn=counted, name="counted model")
            newton_quad(LsqProblem(g, problem.y, dense_weight(problem)), random_complex_vector(rng, n, scale=0.3))
            assert len(calls) == 2 * n + 1

    @pytest.mark.parametrize("kind", ["newton", "gauss_newton"])
    def test_overflowing_curvature_is_a_typed_error_without_warnings(self, kind):
        # The residual is exactly zero at z = 0.5, so the loss row and the
        # probe rows stay finite while G^H G = 1e320 overflows.  A numpy
        # warning would be raised first, under the suite's warning filter.
        g = VectorField(1, lambda z: 1e160 * z, jacobian_fn=lambda z: JacobianPair([[1e160]], [[0.0]]))
        problem = LsqProblem(g, [1e160 * 0.5])
        with pytest.raises(SingularQ, match=f"^{kind} scaling is not finite$"):
            descent_step(problem, np.array([0.5 + 0j]), QStrategy(kind))


    @pytest.mark.parametrize("kind", ["newton", "gauss_newton"])
    def test_overflowing_derivative_row_is_a_typed_error_without_warnings(self, kind):
        # G^H e = 1e160 * -5e159 overflows, so the row holds inf and NaN
        # and its conjugation residual is NaN.
        g = VectorField(1, lambda z: 1e160 * z, jacobian_fn=lambda z: JacobianPair([[1e160]], [[0.0]]))
        problem = LsqProblem(g, [1.0])
        z = np.array([0.5 + 0j])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert not np.all(np.isfinite(loss_pair(problem, z).dz))
            with pytest.raises(NonFiniteEvaluation, match="derivative rows are not finite"):
                descent_step(problem, z, QStrategy(kind))


class TestCurvatureBlockProperties:
    @settings(derandomize=True, deadline=None)
    @given(nonlinear_problems())
    def test_blocks_equal_the_dense_recipe(self, draw):
        problem, z = draw
        n = z.shape[0]
        gauss, newton = dense_lsq_curvature(problem, z)
        gn = gauss_newton_quad(problem, z)
        assert isinstance(gn, HessianQuad)
        np.testing.assert_array_equal(gn.hzz, gauss[:n, :n])
        np.testing.assert_array_equal(gn.hzbz, gauss[:n, n:])
        np.testing.assert_array_equal(gn.dense(), gauss)
        quad = newton_quad(problem, z)
        for got, want in zip(
            (quad.hzz, quad.hzbz, quad.hzzb, quad.hzbzb),
            (newton[:n, :n], newton[:n, n:], newton[n:, :n], newton[n:, n:]),
        ):
            np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(quad.dense(), newton)

    @settings(derandomize=True, deadline=None)
    @given(nonlinear_problems())
    def test_loss_field_reads_the_newton_blocks_unchanged(self, draw):
        problem, z = draw
        got = hessian_quad(loss_field(problem), z)
        want = newton_quad(problem, z)
        for name in ("hzz", "hzbz", "hzzb", "hzbzb"):
            np.testing.assert_array_equal(getattr(got, name), getattr(want, name))

    @settings(derandomize=True, deadline=None)
    @given(nonlinear_problems())
    def test_real_gauss_newton_is_the_real_normal_matrix(self, draw):
        # Gr = G J maps real steps to model changes, so the real-coordinate
        # Gauss-Newton Hessian is Re(Gr^H W Gr).
        problem, z = draw
        gr = stacked_jacobian(problem, z) @ dense_j(z.shape[0])
        want = np.real(gr.conj().T @ dense_weight(problem) @ gr)
        gn = gauss_newton_quad(problem, z)
        got = real_hessian(gn.hzz, gn.hzbz)
        assert np.abs(got - want).max() <= 1e-12 * max(1.0, float(np.abs(want).max()))

    @settings(derandomize=True, deadline=None)
    @given(nonlinear_problems())
    def test_both_curvatures_hold_their_invariants_exactly(self, draw):
        problem, z = draw
        for quad in (gauss_newton_quad(problem, z), newton_quad(problem, z)):
            assert quad.invariant_residual() == 0.0

    def test_gauss_newton_is_newton_on_a_linear_model(self):
        # A linear model's Newton correction is exactly zero, so the two
        # Hermitized curvatures are the same bits.
        sample = Example1Problem.synthesize(1 + 1j, 0.3 - 0.2j, 2 - 1j, 0.05, 200, 0)
        problem = example2_as_lsq(sample)
        z = np.array([0.5 + 0.5j])
        gauss = gauss_newton_quad(problem, z)
        assert np.all(np.imag(np.diagonal(gauss.hzz)) == 0.0)
        np.testing.assert_array_equal(newton_quad(problem, z).dense(), gauss.dense())

    @settings(derandomize=True, deadline=None)
    @given(nonlinear_problems(weights=("identity", "scalar", "diagonal")))
    def test_structured_weight_matches_its_dense_matrix(self, draw):
        # The structured products only drop the exact zeros of the
        # dense ones, so every result agrees bit for bit.
        problem, z = draw
        dense = LsqProblem(problem.g, problem.y, dense_weight(problem))
        np.testing.assert_array_equal(loss(problem, z), loss(dense, z))
        got, want = loss_pair(problem, z), loss_pair(dense, z)
        np.testing.assert_array_equal(got.dz, want.dz)
        np.testing.assert_array_equal(got.dzbar, want.dzbar)
        for quad in (gauss_newton_quad, newton_quad):
            got, want = quad(problem, z), quad(dense, z)
            for name in ("hzz", "hzbz", "hzzb", "hzbzb"):
                np.testing.assert_array_equal(getattr(got, name), getattr(want, name))


def counted_model(base: VectorField, calls: dict) -> VectorField:
    """``base`` with its model and jacobian calls tallied in ``calls``."""

    def fn(z):
        calls["model"] += 1
        return base.fn(z)

    def jac(z):
        calls["jacobian"] += 1
        return base.jacobian_fn(z)

    return VectorField(base.m, fn, jacobian_fn=jac, name="counted model")


def sign_model() -> VectorField:
    """A model whose value and jacobian tell -0 from +0 in the real part of z_0."""

    def fn(z):
        return np.copysign(1.0, z.real[0]) * np.array([1.0 + z[0] * z[1], z[1] - np.conj(z[0]) ** 2])

    def jac(z):
        s = np.copysign(1.0, z.real[0])
        jz = s * np.array([[z[1], z[0]], [0.0, 1.0]])
        jzbar = s * np.array([[0.0, 0.0], [-2.0 * np.conj(z[0]), 0.0]])
        return JacobianPair(jz, jzbar)

    return VectorField(2, fn, jacobian_fn=jac, name="sign model")


def results(problem, z):
    """Every public least-squares quantity at z, as a list of arrays."""
    pair = loss_pair(problem, z)
    out = [residual(problem, z), np.array(loss(problem, z)), pair.dz, pair.dzbar]
    for quad in (gauss_newton_quad(problem, z), newton_quad(problem, z)):
        out += [quad.hzz, quad.hzbz]
    return out


class TestEvaluationRecord:
    """Each point's residual and jacobian are formed once and never go stale."""

    @pytest.mark.parametrize("kind", ["newton", "gauss_newton"])
    def test_model_and_jacobian_calls_per_run(self, kind):
        # One model call per loss evaluation, at the start and at each
        # trial; one jacobian per iterate, shared by its derivative row
        # and its curvature; and for Newton the 2n forward probe jacobians
        # of the differenced weighted row.  Each step here is accepted at its
        # first trial.
        rng = RNG(2)
        n, m = 2, 8
        base = random_poly_vector_field(rng, n, m, scale=0.3)
        z_true = random_complex_vector(rng, n, 0.5)
        y = base(z_true) + 0.01 * random_complex_vector(rng, m)
        calls = {"model": 0, "jacobian": 0}
        problem = LsqProblem(counted_model(base, calls), y)
        result = minimize(problem, z_true + 0.1, QStrategy(kind), OptimizerConfig(grad_tol=1e-10))
        assert result.converged and result.iterations == 5
        probes = 2 * n * result.iterations if kind == "newton" else 0
        assert calls == {"model": result.iterations + 1, "jacobian": result.iterations + 1 + probes}

    def test_cli_classification_reuses_the_final_record(self):
        # minimize ends on the derivative row at result.z, so the Newton
        # curvature there needs only its 2n forward probe jacobians.
        rng = RNG(2)
        base = random_poly_vector_field(rng, 2, 8, scale=0.3)
        calls = {"model": 0, "jacobian": 0}
        problem = LsqProblem(counted_model(base, calls), random_complex_vector(rng, 8))
        result = minimize(problem, random_complex_vector(rng, 2, 0.5), QStrategy("gauss_newton"))
        before = dict(calls)
        hessian_quad(loss_field(problem), result.z)
        assert calls == {"model": before["model"], "jacobian": before["jacobian"] + 4}

    def test_results_equal_a_fresh_problem_bit_for_bit(self):
        rng = RNG(7)
        g = sign_model()
        y = random_complex_vector(rng, 2)
        w = np.array([0.5, 2.0])
        problem = LsqProblem(g, y, w)
        caller_y = y.copy()
        shared = LsqProblem(g, caller_y, w)
        caller_y[:] = 100.0
        a = np.array([0.3 - 0.2j, -0.4 + 0.1j])
        zero_plus = np.array([complex(0.0, 0.5), 0.2 - 0.1j])
        zero_minus = np.array([complex(-0.0, 0.5), 0.2 - 0.1j])
        moving = a.copy()
        sequence = [a, zero_plus, a, zero_minus, zero_plus, zero_minus, moving]
        for step, z in enumerate(sequence + [moving]):
            if step == len(sequence):
                # The caller's own array, written in place since last time.
                moving[0] += 0.25
            want = results(LsqProblem(g, y, w), z.copy())
            for target in (problem, shared):
                got = results(target, z)
                for value, reference in zip(got, want):
                    assert value.tobytes() == reference.tobytes()
                for value in got:
                    if value.ndim and value.flags.writeable:
                        value[...] = np.nan
        assert results(problem, zero_plus)[1] != results(problem, zero_minus)[1]

    def test_observations_are_a_read_only_copy(self):
        g = VectorField(2, lambda z: z)
        y = np.array([1.0 + 0j, 2.0])
        problem = LsqProblem(g, y)
        y[0] = 5.0
        assert problem.y[0] == 1.0
        with pytest.raises(ValueError):
            problem.y[0] = 3.0
        e = residual(problem, np.zeros(2))
        e[0] = 9.0
        assert residual(problem, np.zeros(2))[0] == 1.0

    def test_non_finite_probe_jacobian_raises_at_that_probe(self):
        # The jacobian at z, then the forward probes +x, +y of the first
        # coordinate and +x of the second, the first non-finite one; no
        # probe after it is evaluated.
        rng = RNG(3)
        base = random_poly_vector_field(rng, 2, 5)
        z = random_complex_vector(rng, 2, 0.5)
        calls = {"model": 0, "jacobian": 0}

        def jac(w):
            calls["jacobian"] += 1
            pair = base.jacobian_fn(w)
            if w[1].real > z[1].real:
                pair.jz[0, 0] = np.nan
            return pair

        problem = LsqProblem(VectorField(5, base.fn, jacobian_fn=jac), random_complex_vector(rng, 5))
        message = "weighted conjugate jacobian row returned non-finite values at"
        with pytest.raises(NonFiniteEvaluation, match=message):
            newton_quad(problem, z)
        assert calls["jacobian"] == 4


    def test_non_finite_row_at_the_point_raises_before_any_probe(self):
        # The weighted row at z is formed from the record's G and checked as
        # a probe row is; with it non-finite, no probe jacobian is taken.
        # Only the jacobian at z itself is non-finite.
        rng = RNG(3)
        base = random_poly_vector_field(rng, 2, 5)
        z = random_complex_vector(rng, 2, 0.5)
        calls = {"model": 0, "jacobian": 0}

        def jac(w):
            calls["jacobian"] += 1
            pair = base.jacobian_fn(w)
            if np.array_equal(w, z):
                pair.jzbar[1, 0] = np.inf
            return pair

        problem = LsqProblem(VectorField(5, base.fn, jacobian_fn=jac), random_complex_vector(rng, 5))
        message = "weighted conjugate jacobian row returned non-finite values at"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteEvaluation, match=message):
                newton_quad(problem, z)
        assert calls["jacobian"] == 1


class TestSwapConsistency:
    def test_gradient_swap_identity(self):
        # The conjugated half of the derivative row is the swap of the
        # gradient stack, mirroring the vector pairing rule.
        rng = RNG(93)
        problem = random_problem(rng, 3, 4)
        z = random_complex_vector(rng, 3)
        pair = loss_pair(problem, z)
        grad = np.conj(np.concatenate([pair.dz, pair.dzbar]))
        np.testing.assert_allclose(swap(grad), np.conj(grad), atol=1e-13)
        np.testing.assert_allclose(dense_s(3) @ grad, np.conj(grad), atol=1e-13)

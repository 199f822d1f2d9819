"""Descent strategies, the minimize loop, and stationary point analysis."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crcalc import (
    CrcalcError,
    DimensionError,
    Diverged,
    HessianQuad,
    InadmissibleQ,
    JacobianPair,
    NonFiniteEvaluation,
    LsqProblem,
    OptimizerConfig,
    PolynomialParams,
    QStrategy,
    RelationViolation,
    ScalarField,
    SingularQ,
    VectorField,
    WirtingerPair,
    assemble,
    check_minimum,
    cogradients,
    descent_step,
    gauss_newton_quad,
    hessian_quad,
    is_admissible_vector,
    lagrangian,
    loss_field,
    loss_pair,
    minimize,
    newton_quad,
    polynomial_field,
    real_hessian,
    stationarity_residual,
    vector_residual,
)
from crcalc import optim
from ._oracles import (
    dense_check_minimum,
    dense_descent_step,
    quartic_norm_field,
    random_complex_matrix,
    random_complex_vector,
    random_poly_vector_field,
    random_quadratic_loss,
    reference_minimize,
    schur_newton_update,
)
from .test_lsq import nonlinear_problems

RNG = np.random.default_rng

ALL_KINDS = ("identity", "newton", "quasi_newton", "gauss_newton", "quasi_gauss_newton")


def modulus_squared_field():
    def cograd(z):
        return WirtingerPair(np.conj(z), z)

    def hess(z):
        n = z.shape[0]
        return HessianQuad(np.eye(n), np.zeros((n, n)))

    return ScalarField(
        lambda z: float(np.real(np.conj(z) @ z)),
        cogradient_fn=cograd,
        hessian_fn=hess,
        name="|z|^2",
    )


def cusp_field(at=(1.0,)):
    """sum |z - at|, minimal at ``at``, with a claimed derivative row of
    ones that insists on moving, so no step length satisfies Armijo there."""
    at = np.asarray(at, dtype=complex)
    ones = np.ones(at.shape[0], dtype=complex)
    return ScalarField(
        lambda z: float(np.sum(np.abs(z - at))),
        cogradient_fn=lambda z: WirtingerPair(ones, ones),
        name="cusp",
    )


def linear_lsq_problem(rng, n=2, m=4):
    a = random_complex_matrix(rng, m, n)
    b = 0.3 * random_complex_matrix(rng, m, n)
    g = VectorField(
        m,
        lambda z: a @ z + b @ np.conj(z),
        jacobian_fn=lambda z: JacobianPair(a, b),
        name="linear model",
    )
    return LsqProblem(g, random_complex_vector(rng, m))


def quadratic_minimizer(field_quad, a, n):
    """Dense oracle for the minimizer of the quadratic test family."""
    hc = np.block(
        [
            [field_quad.hzz, field_quad.hzbz],
            [field_quad.hzzb, field_quad.hzbzb],
        ]
    )
    g0 = np.concatenate([0.5 * a, 0.5 * np.conj(a)])
    return -np.linalg.solve(hc, g0)[:n]


class TestConfigValidation:
    def test_strategy_kind_checked(self):
        with pytest.raises(ValueError):
            QStrategy(kind="bfgs")
        with pytest.raises(ValueError):
            QStrategy(damping=-1.0)

    def test_optimizer_config_checked(self):
        with pytest.raises(ValueError):
            OptimizerConfig(step_size=0.0)
        with pytest.raises(ValueError):
            OptimizerConfig(max_iters=0)
        with pytest.raises(ValueError):
            OptimizerConfig(backtracking="wolfe")
        with pytest.raises(ValueError):
            OptimizerConfig(armijo_beta=1.0)

    @pytest.mark.parametrize("max_iters", [2.5, 3.0, float("inf"), float("nan"), "3", True])
    def test_max_iters_must_be_an_integer(self, max_iters):
        with pytest.raises(ValueError, match="max_iters must be an integer"):
            OptimizerConfig(max_iters=max_iters)

    @pytest.mark.parametrize("max_iters", [3, np.int64(3), np.uint8(3)])
    def test_python_and_numpy_integer_max_iters_run(self, max_iters):
        result = minimize(
            modulus_squared_field(),
            np.array([1.0 + 1.0j]),
            QStrategy("identity"),
            OptimizerConfig(step_size=0.1, max_iters=max_iters, grad_tol=0.0),
        )
        assert (result.reason, result.iterations) == ("max_iters", 3)

    def test_gauss_strategies_need_residual_structure(self):
        calls = []

        def fn(z):
            calls.append(z)
            return float(np.real(np.vdot(z, z)))

        field = ScalarField(fn, name="counted |z|^2")
        z0 = np.array([1.0 + 0j])
        for kind in ("gauss_newton", "quasi_gauss_newton"):
            for run in (
                lambda: descent_step(field, z0, QStrategy(kind=kind)),
                lambda: minimize(field, z0, QStrategy(kind=kind)),
            ):
                with pytest.raises(ValueError) as info:
                    run()
                assert isinstance(info.value, CrcalcError)
        assert calls == []

    def test_misshapen_model_jacobian_is_a_dimension_error(self):
        model = VectorField(
            2,
            lambda z: z,
            jacobian_fn=lambda z: JacobianPair(np.eye(3), np.zeros((3, 3))),
            name="3 x 3 jacobian",
        )
        problem = LsqProblem(model, np.array([1.0 + 0j, -1.0j]))
        with pytest.raises(DimensionError, match="3 x 3 jacobian"):
            minimize(problem, np.array([0.5 + 0j, 0.5j]), QStrategy(kind="gauss_newton"))


class TestDescentStep:
    def test_identity_step_is_negative_gradient(self):
        field = modulus_squared_field()
        z = np.array([1.0 + 2.0j, -0.5 + 0j])
        delta_c, diag = descent_step(field, z, QStrategy(kind="identity"))
        np.testing.assert_allclose(delta_c, -np.concatenate([z, np.conj(z)]), atol=1e-12)
        assert diag.positive_definite
        assert diag.condition == pytest.approx(1.0)
        assert diag.predicted_decrease < 0.0

    def test_steps_are_admissible_for_every_kind(self):
        rng = RNG(100)
        problem = linear_lsq_problem(rng)
        z = random_complex_vector(rng, 2)
        for kind in ALL_KINDS:
            delta_c, _ = descent_step(problem, z, QStrategy(kind=kind))
            assert is_admissible_vector(delta_c, tol=1e-9)

    def test_newton_step_solves_quadratic_in_one_move(self):
        rng = RNG(101)
        for _ in range(5):
            n = int(rng.integers(1, 4))
            field, quad = random_quadratic_loss(rng, n, definite=True)
            # Recover the coefficient a from the derivative row at zero.
            a = 2.0 * np.conj(field.cogradient_fn(np.zeros(n, dtype=complex)).dz)
            target = quadratic_minimizer(quad, a, n)
            z = random_complex_vector(rng, n)
            delta_c, diag = descent_step(field, z, QStrategy(kind="newton"))
            assert diag.positive_definite
            np.testing.assert_allclose(z + delta_c[:n], target, atol=1e-9)

    def test_quasi_newton_equals_newton_without_coupling(self):
        rng = RNG(102)
        n = 3
        p_raw = random_complex_matrix(rng, n, n)
        p = 0.5 * (p_raw + p_raw.conj().T) + 2.0 * np.eye(n)
        a = random_complex_vector(rng, n)

        def fn(z):
            return float(np.real(np.conj(a) @ z)) + float(np.real(np.conj(z) @ p @ z))

        def cograd(z):
            dz = 0.5 * np.conj(a) + np.conj(z) @ p
            return WirtingerPair(dz, np.conj(dz))

        def hess(z):
            return HessianQuad(p, np.zeros((n, n)))

        field = ScalarField(fn, cogradient_fn=cograd, hessian_fn=hess, name="uncoupled")
        z = random_complex_vector(rng, n)
        full, _ = descent_step(field, z, QStrategy(kind="newton"))
        blockwise, _ = descent_step(field, z, QStrategy(kind="quasi_newton"))
        np.testing.assert_allclose(blockwise, full, atol=1e-11)

    def test_zero_curvature_raises_singular(self):
        a = np.array([1.0 - 1.0j])
        field = ScalarField(
            lambda z: float(np.real(np.conj(a) @ z)),
            cogradient_fn=lambda z: WirtingerPair(0.5 * np.conj(a), 0.5 * a),
            hessian_fn=lambda z: HessianQuad(np.zeros((1, 1)), np.zeros((1, 1))),
            name="affine",
        )
        with pytest.raises(SingularQ):
            descent_step(field, np.array([0.0 + 0j]), QStrategy(kind="newton"))
        delta_c, diag = descent_step(field, np.array([0.0 + 0j]), QStrategy(kind="newton", damping=1.0))
        np.testing.assert_allclose(delta_c, -np.concatenate([0.5 * a, 0.5 * np.conj(a)]), atol=1e-12)


def random_polynomial(rng, n):
    """Separable polynomial with nonzero conj_diag, and its dense curvature.

    Each component's eigenvalues c - |d| and c + |d| keep |d| at least
    30% away from c, so the draws are definite or indefinite but never
    close to singular.
    """
    c = 0.5 + rng.random(n)
    ratio = np.where(rng.random(n) < 0.5, rng.uniform(0.1, 0.7, n), rng.uniform(1.3, 2.0, n))
    d = c * ratio * np.exp(2j * np.pi * rng.random(n))
    params = PolynomialParams(c, d, random_complex_vector(rng, n))
    hc = np.block([[np.diag(c), np.diag(np.conj(d))], [np.diag(d), np.diag(c)]]).astype(complex)
    return polynomial_field(params), hc


def block_diagonal_part(m):
    """The quasi scaling diag(A, conj(A)) of a dense admissible M."""
    n = m.shape[0] // 2
    out = np.zeros_like(m, dtype=complex)
    out[:n, :n] = m[:n, :n]
    out[n:, n:] = np.conj(m[:n, :n])
    return out


def gate_draws():
    """(target, z, strategy, dense scaling M, conjugate gradient) draws.

    Every strategy kind the target admits, with and without damping.
    """
    rng = RNG(110)
    draws = []
    for _ in range(12):
        n = int(rng.integers(1, 7))
        field, hc = random_polynomial(rng, n)
        z = random_complex_vector(rng, n)
        pair = field.cogradient_fn(z)
        dense = {
            "identity": np.eye(2 * n, dtype=complex),
            "newton": hc,
            "quasi_newton": block_diagonal_part(hc),
        }
        draws.append((field, z, dense, np.conj(np.concatenate([pair.dz, pair.dzbar]))))
    for _ in range(6):
        n = int(rng.integers(1, 4))
        m_obs = int(rng.integers(2 * n, 4 * n + 3))
        problem = LsqProblem(random_poly_vector_field(rng, n, m_obs), random_complex_vector(rng, m_obs))
        z = random_complex_vector(rng, n, scale=0.5)
        pair = loss_pair(problem, z)
        newton, gauss = newton_quad(problem, z).dense(), gauss_newton_quad(problem, z).dense()
        dense = {
            "identity": np.eye(2 * n, dtype=complex),
            "newton": newton,
            "quasi_newton": block_diagonal_part(newton),
            "gauss_newton": gauss,
            "quasi_gauss_newton": block_diagonal_part(gauss),
        }
        draws.append((problem, z, dense, np.conj(np.concatenate([pair.dz, pair.dzbar]))))
    for target, z, dense, grad_c in draws:
        n = z.shape[0]
        for kind, m in dense.items():
            for damping in (0.0, 0.3):
                yield target, z, QStrategy(kind, damping), m + damping * np.eye(2 * n), grad_c


class TestDescentGates:
    """The step and its diagnostics against dense complex linear algebra."""

    def test_step_solves_the_complex_system(self):
        for target, z, strategy, m, grad_c in gate_draws():
            delta_c, _ = descent_step(target, z, strategy)
            expected = -np.linalg.solve(m, grad_c)
            assert np.linalg.norm(delta_c - expected) <= 1e-10 * np.linalg.norm(expected)
            assert vector_residual(delta_c) <= 1e-12 * max(1.0, float(np.max(np.abs(delta_c))))

    def test_condition_is_the_two_norm_condition(self):
        for target, z, strategy, m, _ in gate_draws():
            _, diag = descent_step(target, z, strategy)
            expected = np.linalg.cond(m)
            assert abs(diag.condition - expected) <= 1e-8 * expected

    def test_definiteness_agrees_with_cholesky(self):
        checked = 0
        for target, z, strategy, m, _ in gate_draws():
            eigs = np.abs(np.linalg.eigvalsh(m))
            if eigs.min() <= 1e-6 * eigs.max():
                continue
            try:
                np.linalg.cholesky(m)
                expected = True
            except np.linalg.LinAlgError:
                expected = False
            _, diag = descent_step(target, z, strategy)
            assert diag.positive_definite == expected
            checked += 1
        assert checked >= 40

    def test_singular_limit_sits_at_inverse_eps(self):
        # Eigenvalues c_k of the scaling: a ratio of 1e17 is past
        # 1 / eps (about 4.5e15), a ratio of 1e13 is not.
        z = np.array([1.0 + 1.0j, -0.5 + 0.2j])
        b = np.array([1.0 + 0j, 1.0j])
        zero = np.zeros(2, dtype=complex)
        singular = polynomial_field(PolynomialParams(np.array([1.0, 1e-17]), zero, b))
        with pytest.raises(SingularQ):
            descent_step(singular, z, QStrategy("newton"))
        solvable = polynomial_field(PolynomialParams(np.array([1.0, 1e-13]), zero, b))
        _, diag = descent_step(solvable, z, QStrategy("newton"))
        assert diag.condition == pytest.approx(1e13, rel=1e-12)


class TestScalingGate:
    """InadmissibleQ fires on the top blocks: A Hermitian, B symmetric."""

    A = np.array([[3.0, 1.0 + 1.0j], [1.0 - 1.0j, 2.0]])
    B = np.array([[0.5, 0.2j], [0.2j, 0.1 - 0.3j]])

    def step(self, a, b):
        z = np.array([1.0 + 2.0j, -0.5 + 0j])
        pair = cogradients(modulus_squared_field(), z)
        return optim._descent_step(z, pair, (a, b), "newton")

    def perturbed(self, rel):
        # The gate's scale is the largest entry, 3.
        kick = np.array([[0.0, rel * 3.0], [0.0, 0.0]])
        return [(self.A + kick, self.B), (self.A, self.B + kick)]

    def test_asymmetry_past_the_tolerance_is_rejected(self):
        for a, b in self.perturbed(1e-6):
            with pytest.raises(InadmissibleQ):
                self.step(a, b)

    def test_rounding_level_asymmetry_is_accepted(self):
        for a, b in self.perturbed(1e-13):
            self.step(a, b)

    def blocks(self, diagonal):
        """(A, B), or their diagonals stored as such."""
        return (np.diag(self.A), np.diag(self.B).copy()) if diagonal else (self.A, self.B.copy())

    @pytest.mark.parametrize("diagonal", [True, False])
    def test_a_scaling_whose_real_form_overflows_is_singular(self, diagonal):
        # A damping of 1e308 keeps A finite and doubles it past the range.
        a, b = self.blocks(diagonal)
        a = a + 1e308 * (1.0 if diagonal else np.eye(2))
        with pytest.raises(SingularQ, match="overflows its real-coordinate form"):
            self.step(a, b)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(np.nan, 1.0), complex(1.0, np.nan)])
    @pytest.mark.parametrize("diagonal", [True, False])
    def test_a_non_finite_b_k_is_singular(self, bad, diagonal):
        # Its residual passes any tolerance test, and eigvalsh of a 2 x 2
        # block with a NaN diagonal can return finite eigenvalues.
        a, b = self.blocks(diagonal)
        b[(1,) * b.ndim] = bad
        with pytest.raises(SingularQ):
            self.step(a, b)


def structured_step(z, pair, a, b, kind):
    """The package's step from the top blocks (A, B) in their storage, with
    the sorted eigenvalues of the real form of the scaling it solved against."""
    delta_z, diag = optim._descent_step(z, pair, (a, b), kind)
    return delta_z, diag, np.sort(np.linalg.eigvalsh(real_hessian(a, b)), axis=None)


def diagonal_blocks(rng, n, kind="mixed"):
    """Diagonals of top blocks (A, B) with |b_k| at least 30% away from |a_k|.

    ``kind`` picks the signs of the 2x2 real blocks' eigenvalues
    2 (a_k -+ |b_k|): ``"definite"``, ``"negative"`` or ``"mixed"``.
    """
    a = 0.5 + rng.random(n)
    ratio = rng.uniform(0.1, 0.7, n)
    if kind == "negative":
        a = -a
    elif kind == "mixed":
        ratio = np.where(rng.random(n) < 0.5, ratio, rng.uniform(1.3, 2.0, n))
    b = np.abs(a) * ratio * np.exp(2j * np.pi * rng.random(n))
    return a.astype(complex), b


def singular_diagonal_blocks(rng, n):
    """:func:`diagonal_blocks` with a_k = |b_k| for one k, b_k real.

    With b_k real the real form of component k is diagonal with a zero
    entry, so the dense factorisation sees an exact zero eigenvalue too;
    with a complex b_k it sees about 1e-15 and may pass the 1 / eps gate.
    """
    a, b = diagonal_blocks(rng, n)
    k = int(rng.integers(n))
    b[k] = abs(b[k]) * (1.0, -1.0)[int(rng.integers(2))]
    a[k] = abs(b[k])
    return a, b


def step_point(rng, n):
    z = random_complex_vector(rng, n)
    dz = random_complex_vector(rng, n)
    return z, WirtingerPair(dz, np.conj(dz))


def factored_shapes(monkeypatch):
    """A list that records the shape of every matrix np.linalg.eigvalsh and solve are given."""
    shapes = []
    for name in ("eigvalsh", "solve"):
        def spy(m, *args, _original=getattr(np.linalg, name)):
            shapes.append(np.shape(m))
            return _original(m, *args)

        monkeypatch.setattr(np.linalg, name, spy)
    return shapes


def assert_same_step(got, want):
    (delta_z, diag, eigs), (ref_z, ref_diag, ref_eigs) = got, want
    assert_same_bits(delta_z, ref_z)
    assert_same_bits(eigs, ref_eigs)
    assert diag.positive_definite is ref_diag.positive_definite
    for field in ("condition", "predicted_decrease"):
        assert_same_bits(getattr(diag, field), getattr(ref_diag, field))


class TestDiagonalScaling:
    """Diagonal scalings against the dense factorisation of ``tests/_oracles.py``."""

    def assert_close_step(self, a, b, rng):
        n = a.shape[0]
        assert real_hessian(a, b).shape == (n, 2, 2)
        z, pair = step_point(rng, n)
        delta_z, diag, eigs = structured_step(z, pair, a, b, "newton")
        ref_z, ref_diag, ref_eigs = dense_descent_step(z, pair, a, b, "newton")
        assert np.max(np.abs(eigs - ref_eigs)) <= 1e-13 * np.max(np.abs(ref_eigs))
        assert diag.positive_definite is ref_diag.positive_definite
        assert abs(diag.condition - ref_diag.condition) <= 1e-12 * ref_diag.condition
        assert np.linalg.norm(delta_z - ref_z) <= 1e-12 * np.linalg.norm(ref_z)

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 8), st.sampled_from(("definite", "negative", "mixed")))
    def test_step_matches_the_dense_factorisation(self, seed, n, kind):
        rng = RNG(seed)
        self.assert_close_step(*diagonal_blocks(rng, n, kind), rng)

    def test_step_matches_the_dense_factorisation_at_n_256(self):
        rng = RNG(113)
        self.assert_close_step(*diagonal_blocks(rng, 256), rng)

    @settings(derandomize=True, deadline=None, max_examples=30)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 8), st.sampled_from((0.0, 0.5)))
    def test_identity_keeps_its_bits(self, seed, n, damping):
        rng = RNG(seed)
        field, _ = random_polynomial(rng, n)
        z = random_complex_vector(rng, n)
        delta_c, diag = descent_step(field, z, QStrategy("identity", damping))
        a = np.eye(n, dtype=complex)
        if damping > 0.0:
            a = a + damping * np.eye(n)
        ref_z, ref_diag, _ = dense_descent_step(z, cogradients(field, z), a, np.zeros((n, n), complex), "identity")
        assert_same_bits(delta_c, np.concatenate([ref_z, np.conj(ref_z)]))
        assert diag.positive_definite is ref_diag.positive_definite
        for name in ("condition", "predicted_decrease"):
            assert_same_bits(getattr(diag, name), getattr(ref_diag, name))

    @settings(derandomize=True, deadline=None, max_examples=30)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 8))
    def test_uncoupled_scalings_keep_their_bits(self, seed, n):
        rng = RNG(seed)
        a, _ = diagonal_blocks(rng, n)
        a *= np.where(rng.random(n) < 0.5, 1.0, -1.0)
        b = np.zeros(n, dtype=complex)
        z, pair = step_point(rng, n)
        assert_same_step(structured_step(z, pair, a, b, "quasi_newton"), dense_descent_step(z, pair, a, b, "quasi_newton"))

    @settings(derandomize=True, deadline=None, max_examples=30)
    @given(st.integers(0, 2**32 - 1), st.sampled_from(("definite", "negative", "mixed")))
    def test_one_component_keeps_its_bits(self, seed, kind):
        rng = RNG(seed)
        a, b = diagonal_blocks(rng, 1, kind)
        z, pair = step_point(rng, 1)
        assert_same_step(structured_step(z, pair, a, b, "newton"), dense_descent_step(z, pair, a, b, "newton"))

    def test_quasi_newton_on_a_separable_field_keeps_its_bits(self):
        rng = RNG(114)
        for n in (1, 3, 40):
            field, _ = random_polynomial(rng, n)
            z = random_complex_vector(rng, n)
            delta_c, diag = descent_step(field, z, QStrategy("quasi_newton", 0.5))
            a = hessian_quad(field, z).blocks()[0] + 0.5 * np.eye(n)
            pair = cogradients(field, z)
            ref_z, ref_diag, _ = dense_descent_step(z, pair, a, np.zeros((n, n), complex), "quasi_newton")
            assert_same_bits(delta_c[:n], ref_z)
            assert_same_bits(diag.condition, ref_diag.condition)

    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 8))
    def test_singular_draws_raise_the_same_error(self, seed, n):
        rng = RNG(seed)
        a, b = singular_diagonal_blocks(rng, n)
        z, pair = step_point(rng, n)
        with pytest.raises(SingularQ):
            dense_descent_step(z, pair, a, b, "newton")
        with pytest.raises(SingularQ):
            structured_step(z, pair, a, b, "newton")

    @settings(derandomize=True, deadline=None, max_examples=20)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 8))
    def test_complex_diagonal_a_is_inadmissible_on_both_paths(self, seed, n):
        rng = RNG(seed)
        a, b = diagonal_blocks(rng, n)
        k = int(rng.integers(n))
        a[k] += 1e-6j
        z, pair = step_point(rng, n)
        with pytest.raises(InadmissibleQ):
            dense_descent_step(z, pair, a, b, "newton")
        with pytest.raises(InadmissibleQ):
            structured_step(z, pair, a, b, "newton")

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 8),
        st.sampled_from(("definite", "negative", "mixed", "singular", "zero")),
    )
    def test_check_minimum_classes_agree(self, seed, n, kind):
        rng = RNG(seed)
        a, b = diagonal_blocks(rng, n, "mixed" if kind in ("singular", "zero") else kind)
        if kind == "singular":
            a, b = singular_diagonal_blocks(rng, n)
        elif kind == "zero":
            a, b = 0.0 * a, 0.0 * b
        quad = HessianQuad(a, b)
        expected = dense_check_minimum(quad)
        assert check_minimum(quad) == expected
        if kind in ("definite", "negative", "singular", "zero"):
            assert expected == {
                "definite": "local_min",
                "negative": "saddle_or_max",
                "singular": "singular",
                "zero": "singular",
            }[kind]

    def test_no_2n_by_2n_real_hessian_is_factored(self, monkeypatch):
        # Every form factored is an (n, 2, 2) stack, never a 2n x 2n matrix.
        shapes = factored_shapes(monkeypatch)
        rng = RNG(117)
        field, _ = random_polynomial(rng, 5)
        z0 = random_complex_vector(rng, 5)
        for kind in ("identity", "newton", "quasi_newton"):
            for damping in (0.0, 0.5):
                minimize(field, z0, QStrategy(kind, damping), OptimizerConfig(max_iters=3))
                descent_step(field, z0, QStrategy(kind, damping))
        check_minimum(hessian_quad(field, z0))
        assert len(shapes) > 30
        assert set(shapes) == {(5, 2, 2)}

    def test_n_by_n_blocks_are_factored_as_one_2n_by_2n_form(self, monkeypatch):
        # Storage is what the source declares: n x n blocks whose
        # off-diagonal entries are all zero are still factored dense, as
        # is the differenced curvature of a separable field.
        shapes = factored_shapes(monkeypatch)
        rng = RNG(115)
        a, b = (np.diag(block) for block in diagonal_blocks(rng, 5))
        z, pair = step_point(rng, 5)
        assert_same_step(structured_step(z, pair, a, b, "newton"), dense_descent_step(z, pair, a, b, "newton"))
        check_minimum(HessianQuad(a, b))
        field, _ = random_polynomial(rng, 5)
        differenced = ScalarField(field.fn, cogradient_fn=field.cogradient_fn, name="differenced")
        for kind in ("newton", "quasi_newton"):
            descent_step(differenced, z, QStrategy(kind, 0.5))
        check_minimum(hessian_quad(differenced, z))
        assert set(shapes) == {(10, 10)}


class TestNewtonUpdate:
    """The library's one Newton solve against the paper's z-only Schur-complement form."""

    @staticmethod
    def newton_step(quad, pair):
        z = np.zeros(quad.n, dtype=complex)
        return optim._descent_step(z, pair, (quad.hzz, quad.hzbz), "newton")[0]

    def test_matches_full_block_solve(self):
        rng = RNG(103)
        for _ in range(10):
            n = int(rng.integers(1, 4))
            _, quad = random_quadratic_loss(rng, n, definite=True)
            dz = random_complex_vector(rng, n)
            pair = WirtingerPair(dz, np.conj(dz))
            hc = assemble(quad).hc_complex
            rhs = np.concatenate([np.conj(dz), dz])
            expected = -np.linalg.solve(hc, rhs)[:n]
            np.testing.assert_allclose(schur_newton_update(quad, pair), expected, atol=1e-10)
            np.testing.assert_allclose(self.newton_step(quad, pair), schur_newton_update(quad, pair), atol=1e-10)

    def test_uncoupled_blocks_reduce_to_plain_solve(self):
        n = 2
        p = np.array([[3.0, 0.5], [0.5, 2.0]], dtype=complex)
        quad = HessianQuad(p, np.zeros((n, n)))
        dz = np.array([1.0 + 1.0j, -2.0 + 0.5j])
        pair = WirtingerPair(dz, np.conj(dz))
        expected = schur_newton_update(quad, pair)
        np.testing.assert_allclose(expected, -np.linalg.solve(p, np.conj(dz)), atol=1e-12)
        np.testing.assert_allclose(self.newton_step(quad, pair), expected, atol=1e-12)


class TestLeastSquaresScaling:
    """A least-squares problem's Newton scalings, read from ``newton_quad``, have the bits of its loss field's."""

    @settings(derandomize=True, deadline=None)
    @given(nonlinear_problems(), st.sampled_from(("newton", "quasi_newton")), st.sampled_from((0.0, 0.5)))
    def test_newton_scaling_is_the_loss_field_curvature(self, draw, kind, damping):
        # The loss field is a plain field, so its scaling goes through
        # hessian_quad and its symmetry gate; the problem's comes from lsq.
        problem, z = draw
        field = loss_field(problem)
        quad = hessian_quad(field, z)
        assert quad.presym_residual == 0.0
        strategy = QStrategy(kind, damping)
        got = optim._scaling(problem, z, strategy)
        for value, want in zip(got, optim._scaling(field, z, strategy)):
            assert_same_bits(value, want)
        if (kind, damping) == ("newton", 0.0):
            assert_same_bits(got[0], quad.hzz)
            assert_same_bits(got[1], quad.hzbz)


class TestMinimize:
    def test_every_strategy_reaches_the_optimum(self):
        rng = RNG(104)
        problem = linear_lsq_problem(rng, n=2, m=5)
        z0 = random_complex_vector(rng, 2)
        for kind in ALL_KINDS:
            config = OptimizerConfig(max_iters=4000, grad_tol=1e-8)
            result = minimize(problem, z0, QStrategy(kind=kind), config)
            assert result.converged, kind
            assert result.grad_norm <= 1e-8

    def test_newton_converges_in_one_step(self):
        rng = RNG(105)
        field, _ = random_quadratic_loss(rng, 3, definite=True)
        result = minimize(field, random_complex_vector(rng, 3), QStrategy(kind="newton"))
        assert result.converged
        assert result.iterations == 1
        assert stationarity_residual(field, result.z) <= 1e-10

    def test_armijo_keeps_losses_non_increasing(self):
        field = quartic_norm_field(with_analytic=True)
        result = minimize(
            field,
            np.array([1.5 + 1.0j, -0.5 + 0.5j]),
            QStrategy(kind="newton"),
            OptimizerConfig(max_iters=100, grad_tol=1e-9),
        )
        assert result.converged
        losses = result.trace.losses
        assert all(b <= a + 1e-15 for a, b in zip(losses, losses[1:]))

    def test_trace_records_are_contiguous(self):
        field = modulus_squared_field()
        result = minimize(
            field,
            np.array([1.0 + 1.0j]),
            QStrategy(kind="identity"),
            OptimizerConfig(step_size=0.1, max_iters=5, grad_tol=0.0),
        )
        assert not result.converged
        assert result.reason == "max_iters"
        assert [rec.iteration for rec in result.trace] == list(range(6))

    def test_trace_can_be_disabled(self):
        field = modulus_squared_field()
        result = minimize(
            field,
            np.array([1.0 + 0j]),
            QStrategy(kind="newton"),
            OptimizerConfig(record_trace=False),
        )
        assert result.converged
        assert len(result.trace) == 0

    def test_divergence_carries_partial_trace(self):
        field = quartic_norm_field(with_analytic=True)
        config = OptimizerConfig(step_size=1.0, backtracking="off", max_iters=50)
        with pytest.raises(Diverged) as info:
            minimize(field, np.array([2.0 + 0j]), QStrategy(kind="identity"), config)
        assert len(info.value.trace) >= 1

    def test_non_finite_starting_loss_diverges_for_every_target(self):
        problem = linear_lsq_problem(RNG(108), n=1)
        zero = np.zeros(1, dtype=complex)
        poly = polynomial_field(PolynomialParams(np.array([1.0]), zero, np.array([1.0 + 0j])))
        z0 = np.array([1e200 + 0j])
        for target in (poly, loss_field(problem), problem):
            with pytest.raises(Diverged, match="loss inf at the starting point"):
                minimize(target, z0, QStrategy(kind="newton"))

    def test_wrong_size_derivatives_raise_a_typed_error(self):
        inner = modulus_squared_field()
        z0 = np.array([1.0 + 1.0j, -0.5j])
        long_rows = ScalarField(inner.fn, cogradient_fn=lambda z: inner.cogradient_fn(np.ones(3)))
        big_blocks = ScalarField(
            inner.fn, cogradient_fn=inner.cogradient_fn, hessian_fn=lambda z: inner.hessian_fn(np.ones(3))
        )
        for field, kind in ((long_rows, "identity"), (big_blocks, "newton")):
            with pytest.raises(DimensionError):
                minimize(field, z0, QStrategy(kind=kind))

    def test_derivative_row_is_evaluated_once_per_iterate(self):
        calls = []
        inner = modulus_squared_field()

        def cograd(z):
            calls.append(1)
            return inner.cogradient_fn(z)

        field = ScalarField(inner.fn, cogradient_fn=cograd, name="counted |z|^2")
        result = minimize(
            field,
            np.array([1.0 + 1.0j, -0.5j]),
            QStrategy(kind="identity"),
            OptimizerConfig(step_size=0.4),
        )
        assert result.converged
        assert result.iterations > 10
        assert len(calls) == result.iterations + 1

    def test_armijo_backs_off_from_a_non_finite_trial(self):
        # The first trial lands near z = -3.6e12, where exp(|z|^2)
        # overflows; the line search must shrink the step, not raise.
        def fn(z):
            return float(np.exp(np.real(np.conj(z) @ z)))

        def cograd(z):
            dz = np.conj(z) * np.exp(np.real(np.conj(z) @ z))
            return WirtingerPair(dz, np.conj(dz))

        field = ScalarField(fn, cogradient_fn=cograd, name="exp |z|^2")
        z0 = np.array([5.0 + 0j])
        result = minimize(field, z0, QStrategy(kind="identity"), OptimizerConfig(step_size=10.0))
        assert result.converged
        assert abs(result.z[0]) <= 1e-8
        with pytest.raises(Diverged):
            minimize(
                field,
                z0,
                QStrategy(kind="identity"),
                OptimizerConfig(step_size=10.0, backtracking="off"),
            )

    def test_outcome_does_not_depend_on_a_constant_offset(self):
        rng = RNG(107)
        n = 4
        c = 1.0 + rng.random(n)
        d = 0.5 * c * np.exp(2j * np.pi * rng.random(n))
        b = random_complex_vector(rng, n)
        z0 = random_complex_vector(rng, n, scale=3.0)
        results = [
            minimize(polynomial_field(PolynomialParams(c, d, b, constant)), z0, QStrategy("newton"))
            for constant in (0.0, 1e13)
        ]
        assert all(result.converged for result in results)
        assert results[0].iterations == results[1].iterations
        np.testing.assert_allclose(results[1].z, results[0].z, rtol=0.0, atol=1e-9)

    def test_uphill_direction_fails_the_line_search_without_a_trial(self):
        # An indefinite Newton scaling whose step points uphill.  Trying
        # it, Armijo accepted a step of rounding size once c1 alpha
        # slope fell below an ulp of the loss, and repeated the point
        # until max_iters.
        rng = RNG(3)
        field, hc = random_polynomial(rng, 2)
        z0 = random_complex_vector(rng, 2)
        assert np.linalg.eigvalsh(hc).min() < 0.0
        for constant in (0.0, 1e13):
            calls = []

            def fn(z, constant=constant, calls=calls):
                calls.append(z)
                return field.fn(z) + constant

            target = ScalarField(fn, cogradient_fn=field.cogradient_fn, hessian_fn=field.hessian_fn)
            result = minimize(target, z0, QStrategy("newton"), OptimizerConfig(max_iters=20))
            assert (result.reason, result.iterations, len(calls)) == ("line_search_failed", 0, 1)
            (last,) = result.trace
            assert last.step_norm == 0.0 and last.q_positive_definite is False
            assert np.isfinite(last.q_condition)
            np.testing.assert_array_equal(result.z, z0)
            calls.clear()
            off = minimize(target, z0, QStrategy("newton"), OptimizerConfig(max_iters=3, backtracking="off"))
            # Without backtracking the uphill step is taken: Newton
            # lands on the saddle.
            assert off.trace[0].step_norm > 0.0
            assert off.iterations >= 1 and len(calls) == 1 + off.iterations

    def test_an_overflowing_slope_prints_no_warning(self):
        # |z|^2 from 1e154: the slope 2 Re(dz delta_z) overflows.
        field = polynomial_field(PolynomialParams(np.array([1.0]), np.array([0j]), np.array([0j])))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            minimize(field, np.array([1e154 + 0j]), QStrategy("newton"))

    def test_an_overflowing_trial_point_diverges_without_a_warning(self):
        # z + alpha delta_z = 10 - 1e308 * 10 is past the float range.
        config = OptimizerConfig(step_size=1e308, backtracking="off")
        with pytest.raises(Diverged):
            minimize(modulus_squared_field(), np.array([10.0 + 0j]), QStrategy("identity"), config)

    def test_an_overflowing_real_row_gives_a_non_finite_step_without_a_warning(self):
        # 2 Re(dz) = 3e308 is past the float range, although dz is not.
        field = ScalarField(
            lambda z: 0.0, cogradient_fn=lambda z: WirtingerPair(np.array([1.5e308 + 0j]), np.array([1.5e308 + 0j]))
        )
        delta_c, _ = descent_step(field, np.zeros(1, dtype=complex), QStrategy("identity"))
        assert not np.all(np.isfinite(delta_c))
        assert minimize(field, np.zeros(1, dtype=complex), QStrategy("identity")).reason == "line_search_failed"

    @pytest.mark.parametrize("start", [1e154, 1.3e154])
    def test_newton_converges_where_the_doubled_slope_overflows(self, start):
        # Loss |z|^2 is finite there, and one Newton step lands on 0.
        field = polynomial_field(PolynomialParams(np.array([1.0]), np.array([0j]), np.array([0j])))
        z0 = np.array([start + 0j])
        result = minimize(field, z0, QStrategy("newton"))
        assert (result.reason, result.iterations, result.z[0]) == ("converged", 1, 0)
        assert assert_matches_reference(field, z0, QStrategy("newton"), OptimizerConfig()) == "converged"

    def test_cusp_minimum_fails_the_line_search(self):
        result = minimize(cusp_field(), np.array([1.0 + 0j]), QStrategy(kind="identity"))
        assert not result.converged
        assert result.reason == "line_search_failed"

    def test_no_backtracking_takes_one_trial_per_step(self):
        calls = []
        inner = quartic_norm_field(with_analytic=True)

        def fn(z):
            calls.append(1)
            return inner.fn(z)

        field = ScalarField(fn, cogradient_fn=inner.cogradient_fn, hessian_fn=inner.hessian_fn)
        strategy = QStrategy(kind="newton")
        config = OptimizerConfig(step_size=0.5, backtracking="off", max_iters=30)
        result = minimize(field, np.array([1.5 + 1.0j, -0.5 + 0.5j]), strategy, config)
        assert result.iterations > 5
        assert len(calls) == 1 + result.iterations
        for rec in result.trace[:-1]:
            delta_c, _ = descent_step(inner, rec.z, strategy)
            assert rec.step_norm == pytest.approx(0.5 * np.linalg.norm(delta_c[:2]), rel=1e-14)

    def test_terminal_row_has_a_zero_step(self):
        runs = {
            "converged": (modulus_squared_field(), OptimizerConfig(step_size=1.0)),
            "max_iters": (modulus_squared_field(), OptimizerConfig(step_size=0.1, max_iters=3)),
            "line_search_failed": (cusp_field(), OptimizerConfig()),
        }
        for reason, (field, config) in runs.items():
            result = minimize(field, np.array([1.0 + 0j]), QStrategy(kind="identity"), config)
            assert result.reason == reason
            last = result.trace[-1]
            assert last.iteration == result.iterations
            assert last.step_norm == 0.0
            if reason == "line_search_failed":
                assert last.q_condition == 1.0
                assert last.q_positive_definite is True
            else:
                assert np.isnan(last.q_condition)
                assert last.q_positive_definite is None

    def test_result_never_aliases_the_start(self):
        z0 = np.zeros(2, dtype=complex)
        result = minimize(modulus_squared_field(), z0, QStrategy(kind="newton"))
        assert result.converged and result.iterations == 0
        assert result.z is not z0
        result.z[0] = 5.0
        np.testing.assert_array_equal(z0, np.zeros(2))
        np.testing.assert_array_equal(result.trace[-1].z, np.zeros(2))


@st.composite
def minimize_runs(draw):
    """A target, a start, an admissible strategy and an optimizer config.

    The target is a random separable polynomial field (convex or not),
    analytic or differenced, a random nonlinear least-squares problem
    with an analytic or differenced model under no, a scalar or a
    diagonal weight, or a cusp at the start point.
    """
    rng = RNG(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.sampled_from((1, 2, 3, 4)))
    family = draw(
        st.sampled_from(("polynomial", "differenced polynomial", "lsq", "differenced lsq", "cusp"))
    )
    z0 = random_complex_vector(rng, n, scale=draw(st.sampled_from((0.5, 3.0))))
    if family == "cusp":
        target = cusp_field(z0.copy())
        kinds = ("identity", "newton", "quasi_newton")
    elif family.endswith("polynomial"):
        params = PolynomialParams(
            rng.uniform(-2.0, 2.0, n),
            random_complex_vector(rng, n),
            random_complex_vector(rng, n),
            float(rng.standard_normal()),
        )
        target = polynomial_field(params)
        if family.startswith("differenced"):
            target = ScalarField(target.fn, name=family)
        kinds = ("identity", "newton", "quasi_newton")
    else:
        m = draw(st.integers(1, 6))
        g = random_poly_vector_field(rng, n, m, scale=0.4)
        if family.startswith("differenced"):
            g = VectorField(m, g.fn, name="differenced model")
        w = draw(st.sampled_from((None, "scalar", "diagonal")))
        if w == "scalar":
            w = float(rng.uniform(0.1, 3.0))
        elif w == "diagonal":
            w = rng.uniform(0.1, 3.0, m)
        target = LsqProblem(g, random_complex_vector(rng, m), w)
        kinds = ALL_KINDS
    strategy = QStrategy(draw(st.sampled_from(kinds)), draw(st.sampled_from((0.0, 0.5))))
    config = OptimizerConfig(
        step_size=draw(st.sampled_from((None, 0.3, 3.0, 30.0))),
        max_iters=draw(st.sampled_from((1, 6, 40))),
        grad_tol=draw(st.sampled_from((1e-8, 1e-2))),
        backtracking=draw(st.sampled_from(("armijo", "off"))),
        armijo_beta=draw(st.sampled_from((0.5, 0.3))),
        record_trace=draw(st.booleans()),
    )
    return target, z0, strategy, config


def assert_same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert (got.dtype, got.shape) == (want.dtype, want.shape)
    assert got.tobytes() == want.tobytes(), (got, want)


def assert_same_records(records, want):
    assert len(records) == len(want)
    for rec, expected in zip(records, want):
        got = (
            rec.iteration,
            rec.z,
            rec.loss,
            rec.grad_norm,
            rec.step_norm,
            rec.q_condition,
            rec.q_positive_definite,
        )
        assert got[0] == expected[0] and got[6] is expected[6]
        for value, reference in zip(got[1:6], expected[1:6]):
            assert_same_bits(value, reference)


def assert_matches_reference(target, z0, strategy, config):
    """``minimize`` and :func:`reference_minimize` agree bit for bit, exits included."""
    try:
        want = reference_minimize(target, z0, strategy, config)
    except CrcalcError as exc:
        with pytest.raises(type(exc)) as info:
            minimize(target, z0, strategy, config)
        assert type(info.value) is type(exc)
        assert str(info.value) == str(exc)
        if isinstance(exc, Diverged):
            assert_same_records(info.value.trace, exc.trace)
        return type(exc).__name__
    result = minimize(target, z0, strategy, config)
    z, loss, grad_norm, converged, reason, iterations, records = want
    assert (result.reason, result.converged, result.iterations) == (reason, converged, iterations)
    for value, reference in ((result.z, z), (result.loss, loss), (result.grad_norm, grad_norm)):
        assert_same_bits(value, reference)
    assert_same_records(result.trace, records)
    return reason


class TestReferenceLoop:
    """``minimize`` against the frozen loop of ``tests/_oracles.py``."""

    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(minimize_runs())
    def test_runs_equal_the_reference_bit_for_bit(self, run):
        assert_matches_reference(*run)

    def test_each_exit_equals_the_reference(self):
        quartic = quartic_norm_field(with_analytic=True)
        runs = (
            (cusp_field(), np.array([1.0 + 0j]), QStrategy(kind="identity"), OptimizerConfig()),
            (
                quartic,
                np.array([2.0 + 0j]),
                QStrategy(kind="identity"),
                OptimizerConfig(step_size=1.0, backtracking="off", max_iters=50),
            ),
            (
                modulus_squared_field(),
                np.array([1.0 + 1.0j]),
                QStrategy(kind="identity"),
                OptimizerConfig(step_size=0.1, max_iters=5, grad_tol=0.0),
            ),
            (quartic, np.array([1.5 + 1.0j, -0.5 + 0.5j]), QStrategy(kind="newton"), OptimizerConfig()),
            (
                modulus_squared_field(),
                np.array([1.0 + 1.0j]),
                QStrategy(kind="identity"),
                OptimizerConfig(step_size=1e-30, backtracking="off"),
            ),
        )
        exits = [assert_matches_reference(*run) for run in runs]
        assert exits == ["line_search_failed", "Diverged", "max_iters", "converged", "no_progress"]

    @pytest.mark.parametrize("kind", ["newton", "gauss_newton"])
    @pytest.mark.parametrize("seed", range(4))
    def test_a_step_that_leaves_z_unchanged_ends_the_run(self, seed, kind):
        # With no gradient tolerance a fit reaches the rounding floor of
        # its loss, where an accepted step rounds back to z; every later
        # iteration would repeat it, so the run stops there instead of
        # at max_iters.
        rng = RNG(seed)
        base = random_poly_vector_field(rng, 2, 8, scale=0.3)
        z_true = random_complex_vector(rng, 2, 0.5)
        problem = LsqProblem(base, base(z_true) + 0.01 * random_complex_vector(rng, 8))
        config = OptimizerConfig(grad_tol=0.0)
        assert assert_matches_reference(problem, z_true + 0.1, QStrategy(kind), config) == "no_progress"
        result = minimize(problem, z_true + 0.1, QStrategy(kind), config)
        assert not result.converged and result.iterations < 20
        last = result.trace[-1]
        assert (last.iteration, last.step_norm) == (result.iterations, 0.0)
        assert last.q_positive_definite is not None and np.isfinite(last.q_condition)


class TestStationaryClassification:
    def test_frozen_classifications(self):
        field = modulus_squared_field()
        quad = hessian_quad(field, np.zeros(1, dtype=complex))
        assert check_minimum(quad) == "local_min"

        concave = ScalarField(lambda z: -float(np.real(np.conj(z) @ z)), name="-|z|^2")
        assert check_minimum(hessian_quad(concave, np.zeros(1, dtype=complex))) == "saddle_or_max"

        saddle = ScalarField(lambda z: float(np.real(z[0] ** 2)), name="Re z^2")
        assert check_minimum(hessian_quad(saddle, np.zeros(1, dtype=complex))) == "indefinite"

        flat = HessianQuad(np.array([[1.0 + 0j]]), np.array([[1.0 + 0j]]))
        assert check_minimum(flat) == "singular"

    def test_matches_the_complex_eigenvalues(self):
        rng = RNG(108)
        for _ in range(20):
            n = int(rng.integers(1, 5))
            _, quad = random_quadratic_loss(rng, n, scale=1.0)
            eigs = np.linalg.eigvalsh(assemble(quad).hc_complex)
            if np.all(eigs > 0.0):
                expected = "local_min"
            elif np.all(eigs < 0.0):
                expected = "saddle_or_max"
            else:
                expected = "indefinite"
            assert check_minimum(quad) == expected

    def test_rejects_blocks_that_break_their_invariants(self):
        not_hermitian = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)
        with pytest.raises(RelationViolation):
            check_minimum(HessianQuad(not_hermitian, np.zeros((2, 2))))

    @pytest.mark.parametrize("diagonal", [True, False])
    def test_rejects_blocks_whose_real_form_overflows(self, diagonal):
        # Finite blocks, but 2 A overflows: eigvalsh of the infinite form
        # gave NaN eigenvalues, which classified as "indefinite".
        a = np.array([[1e308, 0.0], [0.0, 1.0]], dtype=complex)
        if not diagonal:
            a[0, 1] = a[1, 0] = 0.5
        with pytest.raises(NonFiniteEvaluation, match="overflow"):
            check_minimum(HessianQuad(a, np.zeros((2, 2))))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_blocks(self, bad):
        with pytest.raises(CrcalcError):
            check_minimum(HessianQuad([[bad]], [[0.0]]))


class TestLagrangian:
    def test_value_and_derivatives(self):
        rng = RNG(106)
        field = modulus_squared_field()
        w0 = np.array([1.0 - 0.5j])
        constraint = VectorField(
            1,
            lambda z: z - w0,
            jacobian_fn=lambda z: JacobianPair(np.eye(1), np.zeros((1, 1))),
            name="pin",
        )
        lam = np.array([0.4 + 0.8j])
        lag = lagrangian(field, constraint, lam)
        z = random_complex_vector(rng, 1)
        expected = float(np.real(np.conj(z) @ z)) + float(np.real(np.conj(lam) @ (z - w0)))
        assert lag(z) == pytest.approx(expected)
        from crcalc import cogradients_fd

        exact = cogradients(lag, z)
        fd = cogradients_fd(ScalarField(lag.fn, name="fd view"), z)
        np.testing.assert_allclose(exact.dz, fd.dz, atol=1e-6)
        # Stationarity of |z|^2 + Re{conj(lam)(z - w0)} sits at -lam/2.
        assert stationarity_residual(lag, -0.5 * lam) <= 1e-12

    def test_multiplier_length_checked(self):
        field = modulus_squared_field()
        constraint = VectorField(2, lambda z: np.concatenate([z, z]))
        with pytest.raises(DimensionError):
            lagrangian(field, constraint, np.array([1.0 + 0j]))

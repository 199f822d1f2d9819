"""Worked estimation problems with closed-form answers."""

import numpy as np
import pytest

from crcalc import (
    Example1Problem,
    PolynomialParams,
    QStrategy,
    Unidentifiable,
    assemble,
    check_minimum,
    cogradients,
    cogradients_fd,
    example1_closed_form,
    example1_loss_field,
    example2_as_lsq,
    gauss_newton_quad,
    hessian_quad,
    loss,
    minimize,
    newton_quad,
    polynomial_field,
    polynomial_stationary_point,
    stationarity_residual,
    ScalarField,
)
from ._oracles import example1_expanded_loss

RNG = np.random.default_rng


def default_problem(noise_var=0.05, seed=0):
    return Example1Problem.synthesize(
        alpha=1.0 + 1.0j,
        beta=0.3 - 0.2j,
        z_true=2.0 - 1.0j,
        noise_var=noise_var,
        n_samples=200,
        seed=seed,
    )


def curvature_closed_form(alpha, beta):
    """Hand-derived constant curvature of the scalar channel loss."""
    coupling = 0.5 * (abs(alpha) ** 2 + abs(beta) ** 2)
    return np.array(
        [
            [coupling, np.conj(alpha) * beta],
            [alpha * np.conj(beta), coupling],
        ]
    )


class TestScalarChannelProblem:
    def test_synthesis_is_deterministic(self):
        a = default_problem(seed=4)
        b = default_problem(seed=4)
        np.testing.assert_array_equal(a.samples, b.samples)
        assert a.m == 200

    def test_stored_moments_match_samples(self):
        problem = default_problem()
        np.testing.assert_allclose(problem.mean_y, problem.samples.mean())
        np.testing.assert_allclose(problem.mean_conj_y, np.conj(problem.samples).mean())
        np.testing.assert_allclose(problem.mean_abs2, np.mean(np.abs(problem.samples) ** 2))

    @pytest.mark.parametrize(
        "alpha, beta, samples",
        [
            (1.0, 0.0, [1e308, 1e308]),  # the mean of y overflows
            (1.0, 0.0, [1e160]),  # the mean of |y|^2 overflows
            (1e200, 0.0, [1.0]),  # |alpha|^2 overflows
            (0.0, 1e200j, [1.0]),  # |beta|^2 overflows
        ],
    )
    def test_moments_past_the_float_range_are_rejected(self, alpha, beta, samples):
        with pytest.raises(ValueError, match="must be finite"):
            Example1Problem(alpha, beta, np.array(samples, dtype=complex))

    def test_loss_field_matches_direct_average(self):
        problem = default_problem()
        field = example1_loss_field(problem)
        z = 1.2 - 0.4j
        direct = 0.5 * np.mean(
            np.abs(problem.samples - problem.alpha * z - problem.beta * np.conj(z)) ** 2
        )
        assert field(np.array([z])) == pytest.approx(direct, rel=1e-12)

    def test_expanded_loss_identity(self):
        rng = RNG(120)
        problem = default_problem()
        field = example1_loss_field(problem)
        for _ in range(20):
            z = complex(rng.standard_normal() + 1j * rng.standard_normal())
            assert example1_expanded_loss(problem, z) == pytest.approx(
                field(np.array([z])), rel=1e-12, abs=1e-12
            )

    def test_analytic_rows_match_differencing(self):
        problem = default_problem()
        field = example1_loss_field(problem)
        z = np.array([0.7 + 0.3j])
        exact = cogradients(field, z)
        fd = cogradients_fd(ScalarField(field.fn, name="plain"), z)
        np.testing.assert_allclose(exact.dz, fd.dz, atol=1e-7)

    def test_constant_curvature_matches_hand_formula(self):
        rng = RNG(121)
        for _ in range(10):
            alpha = complex(rng.standard_normal() + 1j * rng.standard_normal())
            beta = 0.5 * complex(rng.standard_normal() + 1j * rng.standard_normal())
            problem = Example1Problem.synthesize(alpha, beta, 1.0 + 1.0j, n_samples=50, seed=7)
            field = example1_loss_field(problem)
            quad = hessian_quad(field, np.array([0.2 - 0.1j]))
            hc = assemble(quad).hc_complex
            np.testing.assert_allclose(hc, curvature_closed_form(alpha, beta), atol=1e-12)

    def test_closed_form_estimate_is_stationary(self):
        problem = default_problem()
        field = example1_loss_field(problem)
        z_hat = example1_closed_form(problem)
        assert stationarity_residual(field, np.array([z_hat])) <= 1e-12

    def test_noise_free_estimate_recovers_truth(self):
        problem = Example1Problem.synthesize(
            alpha=1.0 + 1.0j, beta=0.3 - 0.2j, z_true=2.0 - 1.0j, noise_var=0.0, n_samples=10
        )
        assert example1_closed_form(problem) == pytest.approx(2.0 - 1.0j, abs=1e-12)

    def test_one_sided_channels(self):
        # With beta = 0 the estimate is mean(y)/alpha; with alpha = 0 it
        # is conj(mean(y)/beta).
        direct = Example1Problem.synthesize(2.0 + 0j, 0.0, 1.0 - 1.0j, n_samples=20)
        assert example1_closed_form(direct) == pytest.approx(direct.mean_y / 2.0, abs=1e-12)
        mirrored = Example1Problem.synthesize(0.0, 2.0 + 0j, 1.0 - 1.0j, n_samples=20)
        assert example1_closed_form(mirrored) == pytest.approx(
            np.conj(mirrored.mean_y) / 2.0, abs=1e-12
        )

    def test_balanced_channels_are_unidentifiable(self):
        problem = Example1Problem.synthesize(
            alpha=1.0 + 0j, beta=np.exp(0.7j), z_true=1.0 + 0j, n_samples=20
        )
        with pytest.raises(Unidentifiable):
            example1_closed_form(problem)
        field = example1_loss_field(problem)
        quad = hessian_quad(field, np.array([0.0 + 0j]))
        assert check_minimum(quad) == "singular"

    def test_curvature_degenerates_as_channels_balance(self):
        alpha = 1.0 + 0.5j
        eigs = []
        for gap in (0.5, 0.1, 0.01):
            beta = (abs(alpha) - gap) * np.exp(0.3j)
            hc = curvature_closed_form(alpha, beta)
            eigs.append(np.linalg.eigvalsh(hc).min())
        assert eigs[0] > eigs[1] > eigs[2] > 0.0


class TestResidualFormBridge:
    def test_losses_agree_exactly(self):
        problem = default_problem()
        lsq = example2_as_lsq(problem)
        field = example1_loss_field(problem)
        rng = RNG(122)
        for _ in range(10):
            z = np.array([complex(rng.standard_normal() + 1j * rng.standard_normal())])
            assert loss(lsq, z) == pytest.approx(field(z), rel=1e-12)

    def test_gauss_newton_matches_hand_curvature(self):
        problem = default_problem()
        lsq = example2_as_lsq(problem)
        gn = gauss_newton_quad(lsq, np.array([0.4 + 0.2j])).dense()
        np.testing.assert_allclose(
            gn, curvature_closed_form(problem.alpha, problem.beta), atol=1e-12
        )

    def test_newton_equals_gauss_newton(self):
        problem = default_problem()
        lsq = example2_as_lsq(problem)
        z = np.array([1.0 - 0.7j])
        np.testing.assert_allclose(
            newton_quad(lsq, z).dense(), gauss_newton_quad(lsq, z).dense(), atol=1e-12
        )

    def test_newton_strategy_converges_in_one_step(self):
        problem = default_problem()
        lsq = example2_as_lsq(problem)
        z_hat = example1_closed_form(problem)
        result = minimize(lsq, np.array([5.0 + 5.0j]), QStrategy(kind="newton"))
        assert result.converged
        assert result.iterations == 1
        assert result.z[0] == pytest.approx(z_hat, abs=1e-9)

    def test_off_diagonal_coupling_is_nonzero(self):
        problem = default_problem()
        lsq = example2_as_lsq(problem)
        gn = gauss_newton_quad(lsq, np.array([0.0 + 0j])).dense()
        assert abs(gn[0, 1]) > 0.1


class TestPolynomialFamily:
    def params(self):
        return PolynomialParams(
            quad_diag=np.array([2.0, 3.0]),
            conj_diag=np.array([0.5 + 0.5j, 0.25 - 0.1j]),
            linear=np.array([1.0 - 1.0j, -0.5 + 0.3j]),
            constant=0.7,
        )

    def test_frozen_value(self):
        params = PolynomialParams(
            quad_diag=np.array([2.0]),
            conj_diag=np.array([0.0 + 0j]),
            linear=np.array([0.0 + 0j]),
            constant=1.0,
        )
        field = polynomial_field(params)
        # 2 |z|^2 + 1 at z = 1 + i.
        assert field(np.array([1.0 + 1.0j])) == pytest.approx(5.0)

    def test_analytic_rows_match_differencing(self):
        params = self.params()
        field = polynomial_field(params)
        z = np.array([0.3 - 0.8j, -0.2 + 0.4j])
        exact = cogradients(field, z)
        fd = cogradients_fd(ScalarField(field.fn, name="plain"), z)
        np.testing.assert_allclose(exact.dz, fd.dz, atol=1e-7)

    def test_stationary_point_closed_form(self):
        params = self.params()
        field = polynomial_field(params)
        z_star = polynomial_stationary_point(params)
        assert stationarity_residual(field, z_star) <= 1e-12

    def test_definite_case_classified_as_minimum(self):
        params = self.params()
        field = polynomial_field(params)
        quad = hessian_quad(field, polynomial_stationary_point(params))
        assert check_minimum(quad) == "local_min"

    def test_balanced_component_is_unidentifiable(self):
        params = PolynomialParams(
            quad_diag=np.array([1.0]),
            conj_diag=np.array([np.exp(0.4j)]),
            linear=np.array([1.0 + 0j]),
        )
        with pytest.raises(Unidentifiable):
            polynomial_stationary_point(params)

    @pytest.mark.parametrize("c, d, b", [(1e155, 0j, 1.0), (1.0, 1e155j, 1.0), (2.0, 1.99j, 1e307)])
    def test_a_closed_form_past_the_float_range_is_not_returned(self, c, d, b):
        # The last point is about 3.5e308, past the range although c b is not.
        params = PolynomialParams(np.array([c]), np.array([d]), np.array([b + 0j]))
        with pytest.raises(Unidentifiable, match="overflows"):
            polynomial_stationary_point(params)

    def test_a_closed_form_near_the_top_of_the_float_range_is_returned(self):
        # c b overflows on the way, but the point, -b / 4, is representable.
        params = PolynomialParams(np.array([2.0, 2.0]), np.array([0j, 0.5j]), np.array([1.7e308, 1.7e308j]))
        point = polynomial_stationary_point(params)
        assert point[0] == -1.7e308 / 4.0
        # Component 2 couples z and conj(z): its point is 1.7e308 times that for b = 1j.
        expected = 0.5 * (2.0 * 1j - np.conj(0.5j) * np.conj(1j)) / (0.25 - 4.0)
        assert point[1] == pytest.approx(expected * 1.7e308, rel=1e-15)

    @pytest.mark.parametrize(
        "key, bad", [("quad_diag", np.inf), ("conj_diag", complex(0.0, np.nan)), ("linear", np.nan),
                     ("constant", -np.inf)]
    )
    def test_non_finite_coefficients_are_rejected(self, key, bad):
        coefficients = {"quad_diag": [1.0, 2.0], "conj_diag": [0j, 0.5j], "linear": [1 + 0j, 0j], "constant": 0.5}
        coefficients[key] = bad if key == "constant" else [coefficients[key][0], bad]
        with pytest.raises(ValueError, match="finite"):
            PolynomialParams(**coefficients)

    def test_newton_reaches_stationary_point(self):
        params = self.params()
        field = polynomial_field(params)
        result = minimize(field, np.array([2.0 + 2.0j, -1.0 + 1.0j]), QStrategy(kind="newton"))
        assert result.converged
        np.testing.assert_allclose(result.z, polynomial_stationary_point(params), atol=1e-8)

"""Stochastic-gradient adaptive filtering against closed-form moments."""

import numpy as np
import pytest

from crcalc import (
    Diverged,
    LmsState,
    SignalModel,
    draw_signals,
    instantaneous_gradient,
    lms_step,
    max_stable_step,
    simulate,
    wiener_solution,
)
from crcalc.lms import DIVERGENCE_NORM

RNG = np.random.default_rng


def toeplitz_model(noise_var=0.0, seed=0):
    r = np.array(
        [
            [2.0, 0.5 + 0.5j, 0.1 + 0j],
            [0.5 - 0.5j, 2.0, 0.5 + 0.5j],
            [0.1 + 0j, 0.5 - 0.5j, 2.0],
        ]
    )
    a_ref = np.array([1.0 - 0.5j, 0.25 + 0j, -0.5 + 1.0j])
    return SignalModel.from_reference(r, a_ref, noise_var=noise_var, seed=seed), a_ref


class TestModelConstruction:
    def test_from_reference_sets_cross_correlation(self):
        model, a_ref = toeplitz_model()
        np.testing.assert_allclose(model.p, model.r_matrix @ a_ref)

    def test_white_model(self):
        a_ref = np.array([1.0 + 1.0j, 0.5 + 0j])
        model = SignalModel.white(a_ref)
        np.testing.assert_array_equal(model.r_matrix, np.eye(2))
        np.testing.assert_allclose(model.p, a_ref)

    def test_covariance_must_be_hermitian_positive(self):
        with pytest.raises(ValueError):
            SignalModel(2, np.array([[1.0, 1.0], [0.0, 1.0]]), np.zeros(2, dtype=complex))
        with pytest.raises(ValueError):
            SignalModel(2, -np.eye(2), np.zeros(2, dtype=complex))

    def test_noise_var_must_be_nonnegative(self):
        with pytest.raises(ValueError):
            SignalModel(1, np.eye(1), np.zeros(1, dtype=complex), noise_var=-0.1)


class TestClosedForms:
    def test_wiener_solution_recovers_reference(self):
        model, a_ref = toeplitz_model()
        np.testing.assert_allclose(wiener_solution(model), a_ref, atol=1e-12)

    def test_white_wiener_is_cross_correlation(self):
        model = SignalModel.white(np.array([2.0 - 1.0j]))
        np.testing.assert_allclose(wiener_solution(model), [2.0 - 1.0j])

    def test_max_stable_step_frozen(self):
        model = SignalModel(2, np.diag([1.0, 2.0]).astype(complex), np.zeros(2, dtype=complex))
        assert max_stable_step(model) == pytest.approx(1.0)


class TestUpdateRule:
    def test_frozen_scalar_step(self):
        # a=0, xi=1, eta=1, alpha=1/2: error is 1 and the update lands at 1/2.
        state = LmsState(np.zeros(1, dtype=complex), step_size=0.5)
        new = lms_step(state, np.array([1.0 + 0j]), 1.0 + 0j)
        np.testing.assert_allclose(new.a_hat, [0.5 + 0j])
        assert new.k == 1

    def test_instantaneous_gradient_frozen(self):
        a = np.array([0.5 + 0j])
        xi = np.array([1.0 + 1.0j])
        eta = 2.0 + 0j
        e = eta - np.conj(a) @ xi
        np.testing.assert_allclose(instantaneous_gradient(a, xi, eta), -xi * np.conj(e))

    def test_update_moves_against_gradient(self):
        state = LmsState(np.array([0.2 + 0.1j, -0.4 + 0j]), step_size=0.05)
        xi = np.array([1.0 - 1.0j, 0.5 + 0.5j])
        eta = 0.3 + 0.7j
        new = lms_step(state, xi, eta)
        expected = state.a_hat - 0.05 * instantaneous_gradient(state.a_hat, xi, eta)
        np.testing.assert_allclose(new.a_hat, expected)

    def test_decay_schedule(self):
        state = LmsState(np.zeros(1, dtype=complex), k=3, step_size=0.1, decay=True)
        assert state.current_step == pytest.approx(0.025)
        fixed = LmsState(np.zeros(1, dtype=complex), k=3, step_size=0.1)
        assert fixed.current_step == pytest.approx(0.1)


class TestSignalSynthesis:
    def test_shapes_and_determinism(self):
        model, _ = toeplitz_model(noise_var=0.1, seed=5)
        xi1, eta1 = draw_signals(model, 50)
        xi2, eta2 = draw_signals(model, 50)
        assert xi1.shape == (50, 3)
        assert eta1.shape == (50,)
        np.testing.assert_array_equal(xi1, xi2)
        np.testing.assert_array_equal(eta1, eta2)

    def test_sample_moments_match_model(self):
        model, a_ref = toeplitz_model(noise_var=0.05, seed=11)
        xi, eta = draw_signals(model, 40000)
        cov = xi.T @ xi.conj() / xi.shape[0]
        assert np.abs(cov - model.r_matrix).max() <= 0.05 * np.abs(model.r_matrix).max()
        pseudo = xi.T @ xi / xi.shape[0]
        assert np.abs(pseudo).max() <= 0.05 * np.abs(model.r_matrix).max()
        cross = xi.T @ eta.conj() / xi.shape[0]
        assert np.abs(cross - model.p).max() <= 0.05 * max(1.0, np.abs(model.p).max())

    def test_noise_variance_realized(self):
        model, a_ref = toeplitz_model(noise_var=0.25, seed=13)
        xi, eta = draw_signals(model, 40000, a_ref=a_ref)
        noise = eta - xi @ np.conj(a_ref)
        assert np.var(noise) == pytest.approx(0.25, rel=0.05)

    def test_expected_gradient_matches_moment_form(self):
        # Sample average of the stochastic gradient against R a - p.
        model, _ = toeplitz_model(noise_var=0.1, seed=17)
        a = np.array([0.3 - 0.2j, 1.0 + 0j, -0.7 + 0.4j])
        xi, eta = draw_signals(model, 100000)
        grads = np.empty_like(xi)
        for i in range(xi.shape[0]):
            grads[i] = instantaneous_gradient(a, xi[i], eta[i])
        sample_mean = grads.mean(axis=0)
        expected = model.r_matrix @ a - model.p
        scale = max(1.0, float(np.abs(expected).max()))
        assert np.abs(sample_mean - expected).max() <= 0.02 * scale


class TestSimulation:
    def test_noise_free_convergence(self):
        model, a_ref = toeplitz_model(noise_var=0.0, seed=0)
        result = simulate(model, steps=5000, step_size=0.05)
        assert result.misalignment[-1] <= 1e-3
        np.testing.assert_allclose(result.a_hat, a_ref, atol=1e-2)

    def test_repeat_runs_are_bitwise_identical(self):
        model, _ = toeplitz_model(noise_var=0.1, seed=3)
        r1 = simulate(model, steps=200, step_size=0.02)
        r2 = simulate(model, steps=200, step_size=0.02)
        np.testing.assert_array_equal(r1.a_hat, r2.a_hat)
        np.testing.assert_array_equal(r1.misalignment, r2.misalignment)
        np.testing.assert_array_equal(r1.smoothed_error_power, r2.smoothed_error_power)

    def test_misalignment_is_relative_to_wiener(self):
        model, a_ref = toeplitz_model()
        result = simulate(model, steps=10, step_size=0.01)
        expected0 = np.linalg.norm(-a_ref) / np.linalg.norm(a_ref)
        assert result.misalignment[0] == pytest.approx(expected0)
        assert result.misalignment.shape == (11,)

    def test_custom_start_and_reference(self):
        model, a_ref = toeplitz_model()
        result = simulate(model, steps=5, step_size=0.01, a0=a_ref)
        assert result.misalignment[0] == pytest.approx(0.0, abs=1e-14)

    def test_error_power_smoothing_shape(self):
        model, _ = toeplitz_model(noise_var=0.2, seed=9)
        result = simulate(model, steps=300, step_size=0.02)
        assert result.error_power.shape == (300,)
        assert result.smoothed_error_power.shape == (300,)
        assert result.smoothed_error_power[0] == pytest.approx(result.error_power[0])

    def test_decay_schedule_runs(self):
        model, _ = toeplitz_model(noise_var=0.05, seed=21)
        result = simulate(model, steps=500, step_size=0.5, decay=True)
        assert np.isfinite(result.misalignment[-1])

    def test_oversized_step_diverges_with_partial_trace(self):
        model, _ = toeplitz_model(noise_var=0.0, seed=2)
        with pytest.raises(Diverged) as info:
            simulate(model, steps=2000, step_size=50.0)
        partial = info.value.trace
        assert partial is not None
        assert partial.steps < 2000

    def test_divergence_trace_stops_at_first_estimate_past_the_bound(self):
        model, _ = toeplitz_model(noise_var=0.0, seed=2)
        with pytest.raises(Diverged, match="at step 3$") as info:
            simulate(model, steps=2000, step_size=50.0)
        partial = info.value.trace
        estimates = iterated_estimates(model, 2000, 50.0)
        norms = np.linalg.norm(estimates[:5], axis=1)
        assert np.all(norms[:4] <= DIVERGENCE_NORM) and norms[4] > DIVERGENCE_NORM
        assert partial.steps == 4
        np.testing.assert_array_equal(partial.a_hat, estimates[4])
        assert partial.misalignment.shape == (5,)
        assert partial.error_power.shape == partial.smoothed_error_power.shape == (4,)
        assert np.all(np.isfinite(partial.misalignment))

    def test_stability_threshold_bounds_the_mean_recursion(self):
        # The expected update is a - alpha (R a - p); iterating it just
        # below the threshold contracts to the Wiener solution and just
        # above it blows up.
        model, a_ref = toeplitz_model(noise_var=0.0, seed=4)
        bound = max_stable_step(model)

        def run_mean(alpha, iters=800):
            a = np.zeros(model.n, dtype=complex)
            for _ in range(iters):
                a = a - alpha * (model.r_matrix @ a - model.p)
            return np.linalg.norm(a - a_ref)

        assert run_mean(0.99 * bound) <= 1e-6
        assert run_mean(1.01 * bound) > np.linalg.norm(a_ref)

    def test_conservative_sample_path_converges(self):
        model, _ = toeplitz_model(noise_var=0.0, seed=4)
        result = simulate(model, steps=4000, step_size=0.05)
        assert result.misalignment[-1] < 1e-2 * result.misalignment[0]


def iterated_estimates(model, steps, step_size, decay=False, a_ref=None, a0=None):
    """Every estimate visited by ``lms_step`` on the ``draw_signals`` inputs."""
    xi, eta = draw_signals(model, steps, a_ref=a_ref)
    state = LmsState(
        np.zeros(model.n, dtype=complex) if a0 is None else a0, step_size=step_size, decay=decay
    )
    visited = [state.a_hat]
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(steps):
            state = lms_step(state, xi[k], eta[k])
            visited.append(state.a_hat)
    return np.array(visited)


class TestSimulationMatchesSingleSteps:
    @pytest.mark.parametrize("decay", [False, True])
    @pytest.mark.parametrize("given", [False, True])
    def test_estimate_is_iterated_lms_step(self, decay, given):
        model, a_ref = toeplitz_model(noise_var=0.1, seed=31)
        kwargs = {}
        if given:
            rng = RNG(5)
            kwargs = dict(
                a_ref=a_ref + 0.1 * rng.standard_normal(3),
                a0=rng.standard_normal(3) + 1j * rng.standard_normal(3),
            )
        result = simulate(model, steps=400, step_size=0.3, decay=decay, **kwargs)
        estimates = iterated_estimates(model, 400, 0.3, decay=decay, **kwargs)
        np.testing.assert_array_equal(result.a_hat, estimates[-1])
        wiener = wiener_solution(model)
        expected = np.linalg.norm(estimates - wiener, axis=1) / np.linalg.norm(wiener)
        np.testing.assert_allclose(result.misalignment, expected, rtol=1e-14)
        xi, eta = draw_signals(model, 400, a_ref=kwargs.get("a_ref"))
        errors = np.array([eta[k] - np.conj(estimates[k]) @ xi[k] for k in range(400)])
        np.testing.assert_allclose(result.error_power, np.abs(errors) ** 2, rtol=1e-14)

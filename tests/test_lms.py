"""Stochastic-gradient adaptive filtering against closed-form moments."""

import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from crcalc import (
    Diverged,
    SignalModel,
    draw_signals,
    instantaneous_gradient,
    max_stable_step,
    simulate,
    wiener_solution,
)
from crcalc import lms
from crcalc.coords import DimensionError
from crcalc.lms import CHUNK_STEPS, DIVERGENCE_NORM, ERROR_SMOOTHING

from ._oracles import numpy_scalar_lms_loop, random_complex_matrix, random_complex_vector, reference_lms

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

    def test_moments_must_be_finite(self):
        with pytest.raises(ValueError, match="finite"):
            SignalModel.from_reference(np.diag([np.inf, 1, 1, 1]), [1, 0, 0, 0])
        with pytest.raises(ValueError, match="finite"):
            SignalModel(2, np.eye(2), np.array([np.nan, 0.0]))
        with pytest.raises(ValueError, match="finite"):
            SignalModel(1, np.eye(1), np.zeros(1, dtype=complex), noise_var=np.inf)


    @pytest.mark.parametrize(
        "r_diag, a_ref",
        [
            ([1.0], [1e308 + 1e308j]),  # |a|^2 overflows
            ([1e-320], [1e300]),  # a is finite, |a|^2 is not
        ],
    )
    def test_wiener_solution_and_power_must_be_finite(self, r_diag, a_ref):
        # Drawing the reference a^H xi, or the misalignment, overflowed.
        with pytest.raises(ValueError, match="Wiener solution and its output power must be finite"):
            SignalModel.from_reference(np.diag(r_diag), a_ref)

    @pytest.mark.parametrize("n", [np.float64(2.0), "2"])
    def test_filter_length_must_be_an_integer(self, n):
        with pytest.raises(ValueError, match=f"^n must be an integer, got {re.escape(repr(n))}$"):
            SignalModel(n, np.eye(2), [1, 1j])

    def test_numpy_integer_lengths_are_accepted(self):
        model = SignalModel(np.int64(2), np.eye(2), [1, 1j], seed=3)
        plain = SignalModel(2, np.eye(2), [1, 1j], seed=3)
        assert model.n == 2
        for got, want in zip(draw_signals(model, np.int32(5)), draw_signals(plain, 5)):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("steps", [5.0, True, None])
    def test_step_count_must_be_an_integer(self, steps):
        model = SignalModel(2, np.eye(2), [1, 1j])
        message = f"^steps must be an integer, got {re.escape(repr(steps))}$"
        with pytest.raises(ValueError, match=message):
            draw_signals(model, steps)
        with pytest.raises(ValueError, match=message):
            simulate(model, steps, step_size=0.1)


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
    """The reference recursion ``simulate`` is held to, on hand-worked numbers."""

    def test_frozen_scalar_step(self):
        # a=0, xi=1, eta=1, alpha=1/2: error is 1 and the update lands at 1/2.
        visited = reference_lms(np.array([[1.0 + 0j]]), np.array([1.0 + 0j]), 0.5)
        np.testing.assert_allclose(visited, [[0.0], [0.5 + 0j]])

    def test_instantaneous_gradient_frozen(self):
        a = np.array([0.5 + 0j])
        xi = np.array([1.0 + 1.0j])
        eta = 2.0 + 0j
        e = eta - np.conj(a) @ xi
        np.testing.assert_allclose(instantaneous_gradient(a, xi, eta), -xi * np.conj(e))

    def test_a_stack_gives_one_gradient_per_sample(self):
        rng = RNG(8)
        a = random_complex_vector(rng, 3)
        xi = random_complex_matrix(rng, 5, 3)
        eta = random_complex_vector(rng, 5)
        rows = instantaneous_gradient(a, xi, eta)
        assert rows.shape == (5, 3)
        for k in range(5):
            np.testing.assert_allclose(rows[k], instantaneous_gradient(a, xi[k], eta[k]), rtol=1e-14)

    @pytest.mark.parametrize(
        "xi, eta",
        [
            (np.ones(2), 1.0),
            (np.ones((4, 2)), np.ones(4)),
            (np.ones((4, 3)), np.ones(3)),
            (np.ones((4, 3)), 1.0),
            (np.ones(3), np.ones(1)),
            (np.ones((2, 4, 3)), np.ones((2, 4))),
        ],
    )
    def test_mismatched_shapes_rejected(self, xi, eta):
        with pytest.raises(DimensionError):
            instantaneous_gradient(np.ones(3), xi, eta)

    def test_update_moves_against_gradient(self):
        a = np.array([0.2 + 0.1j, -0.4 + 0j])
        xi = np.array([1.0 - 1.0j, 0.5 + 0.5j])
        eta = 0.3 + 0.7j
        visited = reference_lms(xi[None, :], np.array([eta]), 0.05, a0=a)
        expected = a - 0.05 * instantaneous_gradient(a, xi, eta)
        np.testing.assert_allclose(visited[1], expected)

    def test_decay_schedule(self):
        # xi=1, eta=1 from a=0 with alpha=1/2: the second step moves by
        # 1/4 of the error 1/2 under decay and by 1/2 of it without.
        xi, eta = np.ones((2, 1), dtype=complex), np.ones(2, dtype=complex)
        np.testing.assert_allclose(reference_lms(xi, eta, 0.5, decay=True)[:, 0], [0.0, 0.5, 0.625])
        np.testing.assert_allclose(reference_lms(xi, eta, 0.5)[:, 0], [0.0, 0.5, 0.75])


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
        sample_mean = instantaneous_gradient(a, xi, eta).mean(axis=0)
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
    """Every estimate the reference recursion visits on the ``draw_signals`` inputs."""
    xi, eta = draw_signals(model, steps, a_ref=a_ref)
    return reference_lms(xi, eta, step_size, decay=decay, a0=a0)


@st.composite
def lms_runs(draw):
    """A random Hermitian positive definite model in n = 1 to 16 and a run on it.

    The step is a drawn multiple of ``max_stable_step``, from well below
    it to far above, constant or decaying; ``a0`` and ``a_ref`` are the
    defaults or drawn.
    """
    rng = RNG(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 16))
    m = random_complex_matrix(rng, n, n)
    r = m @ m.conj().T + draw(st.sampled_from([1e-3, 0.1, 1.0])) * np.eye(n)
    r = 0.5 * (r + r.conj().T)
    noise_var, seed = draw(st.sampled_from([0.0, 0.1])), draw(st.integers(0, 2**16))
    model = SignalModel.from_reference(r, random_complex_vector(rng, n), noise_var=noise_var, seed=seed)
    step_size = draw(st.sampled_from([0.01, 0.3, 0.9, 1.1, 3.0, 30.0])) * max_stable_step(model)
    kwargs = {}
    if draw(st.booleans()):
        kwargs["a0"] = random_complex_vector(rng, n)
    if draw(st.booleans()):
        kwargs["a_ref"] = random_complex_vector(rng, n)
    return model, draw(st.integers(0, 300)), step_size, draw(st.booleans()), kwargs


class TestSimulationMatchesSingleSteps:
    @pytest.mark.parametrize("decay", [False, True])
    @pytest.mark.parametrize("given", [False, True])
    def test_estimate_is_the_reference_recursion(self, decay, given):
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

    @settings(derandomize=True, deadline=None)
    @given(lms_runs())
    def test_simulate_visits_the_reference_estimates(self, run):
        # A divergent run's partial trace is the reference's prefix up
        # to the first estimate past the bound.
        model, steps, step_size, decay, kwargs = run
        estimates = iterated_estimates(model, steps, step_size, decay=decay, **kwargs)
        with np.errstate(over="ignore", invalid="ignore"):
            past = np.flatnonzero(~(np.linalg.norm(estimates[1:], axis=1) <= DIVERGENCE_NORM))
        done = int(past[0]) + 1 if past.size else steps
        event("diverged" if past.size else "stayed within the bound")
        try:
            result = simulate(model, steps, step_size, decay=decay, **kwargs)
        except Diverged as exc:
            assert past.size
            result = exc.trace
        else:
            assert not past.size
        assert result.steps == done
        np.testing.assert_array_equal(result.a_hat, estimates[done])
        wiener = wiener_solution(model)
        expected = np.linalg.norm(estimates[: done + 1] - wiener, axis=1) / np.linalg.norm(wiener)
        np.testing.assert_allclose(result.misalignment, expected, rtol=1e-14)
        xi, eta = draw_signals(model, steps, a_ref=kwargs.get("a_ref"))
        errors = np.array([complex(eta[k]) - complex(np.conj(estimates[k]) @ xi[k]) for k in range(done)])
        np.testing.assert_array_equal(result.error_power, np.abs(errors) ** 2)


def simulate_with_history(model, steps, step_size, decay=False, **kwargs):
    """``simulate``'s result, or a divergence's partial one, with copies of its loop's estimates and errors."""
    histories = []
    recursion = lms._recursion

    def spy(*args):
        estimates, errors = recursion(*args)
        # simulate shifts the history by the Wiener solution in place.
        histories.append((estimates.copy(), errors.copy()))
        return estimates, errors

    with mock.patch.object(lms, "_recursion", spy):
        try:
            result = simulate(model, steps, step_size, decay=decay, **kwargs)
        except Diverged as exc:
            result = exc.trace
    ((estimates, errors),) = histories
    return result, estimates, errors


def assert_bits_of_numpy_scalar_loop(model, steps, step_size, decay=False, a_ref=None, a0=None):
    """``simulate`` visits the numpy-scalar loop's estimates and errors, as uint64 views, up to its reported prefix."""
    result, estimates, errors = simulate_with_history(model, steps, step_size, decay=decay, a_ref=a_ref, a0=a0)
    xi, eta = draw_signals(model, steps, a_ref=a_ref)
    start = np.zeros(model.n, dtype=complex) if a0 is None else np.asarray(a0, dtype=complex)
    want_estimates, want_errors = numpy_scalar_lms_loop(xi, eta, step_size, decay, start)
    done = result.steps
    np.testing.assert_array_equal(estimates[: done + 1].view(np.uint64), want_estimates[: done + 1].view(np.uint64))
    np.testing.assert_array_equal(errors[:done].view(np.uint64), want_errors[:done].view(np.uint64))
    np.testing.assert_array_equal(result.a_hat.view(np.uint64), want_estimates[done].view(np.uint64))
    return result, estimates, errors


class TestLoopMatchesNumpyScalarLoop:
    @settings(derandomize=True, deadline=None)
    @given(lms_runs())
    def test_simulate_is_the_numpy_scalar_loop_bit_for_bit(self, run):
        model, steps, step_size, decay, kwargs = run
        result, _, _ = assert_bits_of_numpy_scalar_loop(model, steps, step_size, decay=decay, **kwargs)
        with np.errstate(over="ignore", invalid="ignore"):
            within = np.linalg.norm(result.a_hat) <= DIVERGENCE_NORM
        event("stayed within the bound" if within else "diverged")

    @pytest.mark.parametrize(
        "n, steps, decay",
        [
            (3, 0, False),
            (3, 1, False),
            (1, 500, False),
            (3, 500, True),
            (2, CHUNK_STEPS - 1, False),
            (2, CHUNK_STEPS, True),
            (2, CHUNK_STEPS + 1, False),
        ],
    )
    def test_edge_lengths(self, n, steps, decay):
        rng = RNG(n + steps)
        model = SignalModel.white(random_complex_vector(rng, n), noise_var=0.05, seed=steps)
        result, _, errors = assert_bits_of_numpy_scalar_loop(model, steps, 0.3 / n, decay=decay, a0=random_complex_vector(rng, n))
        assert result.steps == steps
        # The smoothing runs on across chunk boundaries.
        smoothed, running = [], 0.0
        for k, power in enumerate((np.abs(errors) ** 2).tolist()):
            running = power if k == 0 else (1.0 - ERROR_SMOOTHING) * running + ERROR_SMOOTHING * power
            smoothed.append(running)
        np.testing.assert_array_equal(result.smoothed_error_power, smoothed)

    @pytest.mark.parametrize("n", [1, 4])
    def test_start_at_the_wiener_solution_without_noise_has_zero_errors(self, n):
        # At n = 1, and for a Wiener solution with one nonzero entry,
        # draw_signals' a^H xi and the loop's vdot round alike, so every
        # error is exactly zero and the estimate never moves.  Elsewhere
        # the two products may sum in different orders.
        rng = RNG(n)
        a_ref = np.zeros(n, dtype=complex)
        a_ref[0] = complex(*rng.standard_normal(2))
        r = np.diag(np.geomspace(1.0, 10.0, n))
        model = SignalModel.from_reference(r, a_ref, noise_var=0.0, seed=n)
        wiener = wiener_solution(model)
        result, estimates, errors = assert_bits_of_numpy_scalar_loop(model, 300, 0.1, a0=wiener)
        assert result.steps == 300
        assert np.all(errors == 0.0)
        np.testing.assert_array_equal(estimates, np.broadcast_to(wiener, estimates.shape))

"""Stochastic descent for the complex mean-square-error cost.

For the linear estimate a^H xi of a scalar eta, the cost
E{|eta - a^H xi|^2} has derivative -E{xi conj(e)} with respect to
conj(a), so following the instantaneous negative of that derivative
gives the update

    a <- a + alpha * xi * conj(e),    e = eta - a^H xi.

Its fixed point in the mean is the Wiener solution inv(R) p with
R = E{xi xi^H} and p = E{xi conj(eta)}.  For a constant step the mean
recursion is stable for alpha below 2 over the largest eigenvalue
of R.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coords import DimensionError, as_complex_vector
from .errors import Diverged, SingularMatrix

#: Estimate norm beyond which a run is declared divergent.
DIVERGENCE_NORM = 1e9

#: Smoothing weight for the reported error-power average.
ERROR_SMOOTHING = 0.05

_MOMENT_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class SignalModel:
    """Second-order description of the input and reference signals.

    Parameters
    ----------
    n : int
        Filter length.
    r_matrix : ndarray
        Input covariance E{xi xi^H}, Hermitian positive definite.
    p : ndarray
        Cross moment E{xi conj(eta)}.
    noise_var : float
        Variance of the additive circular noise on the reference.
    seed : int
        Seed for the deterministic signal generator.
    """

    n: int
    r_matrix: np.ndarray
    p: np.ndarray
    noise_var: float = 0.0
    seed: int = 0

    def __post_init__(self):
        r = np.asarray(self.r_matrix, dtype=complex)
        p = np.atleast_1d(np.asarray(self.p, dtype=complex))
        if r.shape != (self.n, self.n):
            raise DimensionError(f"covariance has shape {r.shape}, expected ({self.n}, {self.n})")
        if p.shape != (self.n,):
            raise DimensionError(f"cross moment has shape {p.shape}, expected ({self.n},)")
        scale = max(1.0, float(np.max(np.abs(r), initial=0.0)))
        if float(np.max(np.abs(r - r.conj().T))) > _MOMENT_TOL * scale:
            raise ValueError("covariance must be Hermitian")
        try:
            chol = np.linalg.cholesky(r)
        except np.linalg.LinAlgError as exc:
            raise ValueError("covariance must be positive definite") from exc
        if not self.noise_var >= 0.0:
            raise ValueError("noise_var must be nonnegative")
        object.__setattr__(self, "r_matrix", r)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "_chol", chol)

    @classmethod
    def from_reference(cls, r_matrix, a_ref, noise_var: float = 0.0, seed: int = 0) -> "SignalModel":
        """Model whose Wiener solution is exactly ``a_ref``.

        Sets p = R a_ref, which is the cross moment produced by the
        reference eta = a_ref^H xi + noise.
        """
        a = as_complex_vector(a_ref)
        r = np.asarray(r_matrix, dtype=complex)
        return cls(n=a.shape[0], r_matrix=r, p=r @ a, noise_var=noise_var, seed=seed)

    @classmethod
    def white(cls, a_ref, noise_var: float = 0.0, seed: int = 0) -> "SignalModel":
        """Unit-covariance model with Wiener solution ``a_ref``."""
        a = as_complex_vector(a_ref)
        return cls.from_reference(np.eye(a.shape[0]), a, noise_var=noise_var, seed=seed)


@dataclass(frozen=True, eq=False)
class LmsState:
    """Filter estimate, step index, and stepsize schedule.

    With ``decay`` the stepsize at index k is ``step_size / (k + 1)``,
    otherwise it stays constant.
    """

    a_hat: np.ndarray
    k: int = 0
    step_size: float = 0.01
    decay: bool = False

    def __post_init__(self):
        a = as_complex_vector(self.a_hat)
        if not self.step_size > 0.0:
            raise ValueError("step_size must be positive")
        if self.k < 0:
            raise ValueError("step index must be nonnegative")
        object.__setattr__(self, "a_hat", a)

    @property
    def current_step(self) -> float:
        return self.step_size / (self.k + 1) if self.decay else self.step_size


def instantaneous_gradient(a_hat, xi, eta) -> np.ndarray:
    """Single-sample estimate of the conjugate derivative of the cost.

    Returns -xi conj(e) with e = eta - a_hat^H xi; its expectation is
    R a_hat - p, which vanishes exactly at the Wiener solution.
    """
    a = as_complex_vector(a_hat)
    x = as_complex_vector(xi)
    if x.shape != a.shape:
        raise DimensionError("input and filter lengths differ")
    err = complex(eta) - complex(np.conj(a) @ x)
    return -x * np.conj(err)


def lms_step(state: LmsState, xi, eta) -> LmsState:
    """One stochastic descent update of the filter estimate."""
    grad = instantaneous_gradient(state.a_hat, xi, eta)
    a_next = state.a_hat - state.current_step * grad
    return LmsState(a_next, k=state.k + 1, step_size=state.step_size, decay=state.decay)


def wiener_solution(model: SignalModel) -> np.ndarray:
    """The mean-square-error minimizer inv(R) p."""
    try:
        return np.linalg.solve(model.r_matrix, model.p)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrix("input covariance is singular") from exc


def max_stable_step(model: SignalModel) -> float:
    """Largest constant stepsize with a stable mean recursion, 2 / max eig R."""
    eigs = np.linalg.eigvalsh(model.r_matrix)
    top = float(eigs[-1])
    if top <= 0.0:
        raise SingularMatrix("input covariance is not positive definite")
    return 2.0 / top


def draw_signals(model: SignalModel, steps: int, a_ref=None) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic batch of inputs and references from the model seed.

    Inputs are circular Gaussian with covariance R, built as L w from
    the Cholesky factor and unit draws whose real and imaginary parts
    carry variance one half each.  References are a_ref^H xi plus
    circular noise of the model's variance; ``a_ref`` defaults to the
    Wiener solution, which keeps the realized moments consistent with
    (R, p).

    Returns
    -------
    xi : ndarray, shape (steps, n)
    eta : ndarray, shape (steps,)
    """
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    a = wiener_solution(model) if a_ref is None else as_complex_vector(a_ref)
    if a.shape != (model.n,):
        raise DimensionError("reference filter length differs from the model")
    rng = np.random.default_rng(model.seed)
    w_re = rng.standard_normal((steps, model.n))
    w_im = rng.standard_normal((steps, model.n))
    v_re = rng.standard_normal(steps)
    v_im = rng.standard_normal(steps)
    w = (w_re + 1j * w_im) / np.sqrt(2.0)
    chol = getattr(model, "_chol")
    xi = w @ chol.T
    noise = np.sqrt(model.noise_var / 2.0) * (v_re + 1j * v_im)
    eta = xi @ np.conj(a) + noise
    return xi, eta


@dataclass(frozen=True, eq=False)
class SimulationResult:
    """Full history of a simulated adaptive run.

    ``misalignment`` has one entry per visited estimate (steps + 1,
    starting at the initial one) and is the distance to the Wiener
    solution, relative to its norm when that is nonzero.
    ``smoothed_error_power`` is an exponential moving average of
    |e|^2 with weight 0.05.
    """

    a_hat: np.ndarray
    wiener: np.ndarray
    misalignment: np.ndarray
    error_power: np.ndarray
    smoothed_error_power: np.ndarray
    steps: int


def _row_norms(rows: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of a complex matrix, with no temporary of its size."""
    flat = rows.view(float)
    return np.sqrt(np.einsum("ij,ij->i", flat, flat))


def simulate(
    model: SignalModel,
    steps: int,
    step_size: float,
    decay: bool = False,
    a_ref=None,
    a0=None,
) -> SimulationResult:
    """Run the adaptive filter on synthesized signals.

    Parameters
    ----------
    model : SignalModel
        Moments, noise level, and seed.
    steps : int
        Number of updates.
    step_size : float
        Constant stepsize, or the numerator of the 1/k schedule when
        ``decay`` is set.
    a_ref : array-like, optional
        Reference filter generating the desired signal; Wiener solution
        by default.
    a0 : array-like, optional
        Initial estimate, zero by default.

    Notes
    -----
    The loop runs the :func:`lms_step` recursion on plain arrays and
    visits the same estimates bit for bit; misalignment and error power
    are computed from the stored history after it.

    Raises
    ------
    Diverged
        If the estimate norm passes 1e9 or is not finite; the partial
        result rides on the exception.
    """
    if not step_size > 0.0:
        raise ValueError("step_size must be positive")
    xi, eta = draw_signals(model, steps, a_ref=a_ref)
    target = wiener_solution(model)
    a = np.zeros(model.n, dtype=complex) if a0 is None else as_complex_vector(a0)
    if a.shape != (model.n,):
        raise DimensionError("input and filter lengths differ")
    mu = step_size / (np.arange(steps) + 1) if decay else np.full(steps, float(step_size))
    estimates = np.empty((steps + 1, model.n), dtype=complex)
    estimates[0] = a
    errors = np.empty(steps, dtype=complex)
    # Past a divergence the estimate overflows; the first bad step is
    # found and reported below, so the overflow itself is expected.
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(steps):
            x = xi[k]
            err = eta[k] - np.vdot(a, x)
            errors[k] = err
            a = estimates[k + 1] = a + mu[k] * (x * np.conj(err))
        norms = _row_norms(estimates[1:])
        bad = np.flatnonzero(~(norms <= DIVERGENCE_NORM))
        done = int(bad[0]) + 1 if bad.size else steps
        a_hat = estimates[done].copy()
        # In place, so the history is the only array of its size.
        offsets = estimates[: done + 1]
        offsets -= target
        dist = _row_norms(offsets)
        err_power = np.abs(errors[:done]) ** 2
    target_norm = float(np.linalg.norm(target))
    misalignment = dist / target_norm if target_norm > 0.0 else dist
    smoothed = np.empty(done)
    running = 0.0
    for k, power in enumerate(err_power.tolist()):
        running = power if k == 0 else (1.0 - ERROR_SMOOTHING) * running + ERROR_SMOOTHING * power
        smoothed[k] = running
    result = SimulationResult(
        a_hat=a_hat,
        wiener=target,
        misalignment=misalignment,
        error_power=err_power,
        smoothed_error_power=smoothed,
        steps=done,
    )
    if bad.size:
        norm = float(norms[done - 1])
        raise Diverged(f"estimate norm {norm:.3e} is not within {DIVERGENCE_NORM:.0e} at step {done - 1}", trace=result)
    return result

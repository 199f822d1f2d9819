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

from .coords import _array, _hpd_cholesky, _number, _read_only, as_complex_vector
from .errors import Diverged, SingularMatrix

#: Estimate norm beyond which a run is declared divergent.
DIVERGENCE_NORM = 1e9

#: Smoothing weight for the reported error-power average.
ERROR_SMOOTHING = 0.05

#: Steps whose array entries are converted to Python numbers at once, by
#: the LMS loop, the error-power smoothing and the CLI's trace writer.
#: Converting a whole run at once would take up to about 70 B per step;
#: a chunk keeps it near 100 kB, at no measurable cost per step.
CHUNK_STEPS = 1024


class SignalModel:
    """Second-order description of the input and reference signals.

    Parameters
    ----------
    n : int
        Filter length, positive; a bool or any other non-integer raises ValueError.
    r_matrix : ndarray
        Input covariance E{xi xi^H}, Hermitian positive definite.
    p : ndarray
        Cross moment E{xi conj(eta)}.
    noise_var : float
        Variance of the additive circular noise on the reference.
    seed : int
        Seed for the deterministic signal generator.

    Every entry must be finite, and so must the squared norm and the
    output power p^H inv(R) p of the Wiener solution; ValueError is
    raised otherwise.  The Wiener solution is solved here, once, and
    read by :func:`wiener_solution`, :func:`draw_signals` and
    :func:`simulate`.
    """

    __slots__ = ("n", "r_matrix", "p", "noise_var", "seed", "_chol", "_wiener")

    def __init__(self, n: int, r_matrix, p, noise_var: float = 0.0, seed: int = 0):
        _number(n, "n", sign="positive")
        r = _array(r_matrix, "r_matrix", shape=(n, n))
        p = _array(p, "p", shape=(n,))
        # A NaN or infinite noise_var shares this message; its type is checked with its sign.
        bad_noise = noise_var != noise_var or noise_var in (np.inf, -np.inf)
        if not (np.all(np.isfinite(r)) and np.all(np.isfinite(p))) or bad_noise:
            raise ValueError("covariance, cross moment and noise_var must be finite")
        chol = _hpd_cholesky(r, "covariance")
        # Past the float range no reference eta = a^H xi + noise, a the
        # Wiener solution, can be drawn and no misalignment measured.
        with np.errstate(over="ignore", invalid="ignore"):
            wiener = np.linalg.solve(r, p)
            sizes = [np.vdot(wiener, wiener).real, np.vdot(p, wiener).real]
        if not np.all(np.isfinite(sizes)):
            raise ValueError("the Wiener solution and its output power must be finite")
        _number(noise_var, "noise_var", kind="real", sign="nonnegative")
        self.n, self.r_matrix, self.p, self.noise_var = n, _read_only(r.copy()), _read_only(p.copy()), noise_var
        self.seed, self._chol, self._wiener = _number(seed, "seed", sign="nonnegative"), chol, wiener

    @classmethod
    def from_reference(cls, r_matrix, a_ref, noise_var: float = 0.0, seed: int = 0) -> "SignalModel":
        """Model whose Wiener solution is exactly ``a_ref``.

        Sets p = R a_ref, which is the cross moment produced by the
        reference eta = a_ref^H xi + noise.  A product that is not
        finite is rejected by the model's own validation.
        """
        a = _array(a_ref, "a_ref", finite=True)
        r = _array(r_matrix, "r_matrix", shape=a.shape * 2)
        with np.errstate(invalid="ignore", over="ignore"):
            p = r @ a
        return cls(n=a.shape[0], r_matrix=r, p=p, noise_var=noise_var, seed=seed)

    @classmethod
    def white(cls, a_ref, noise_var: float = 0.0, seed: int = 0) -> "SignalModel":
        """Unit-covariance model with Wiener solution ``a_ref``."""
        a = as_complex_vector(a_ref, "a_ref")
        return cls.from_reference(np.eye(a.shape[0]), a, noise_var=noise_var, seed=seed)


def instantaneous_gradient(a_hat, xi, eta) -> np.ndarray:
    """Stochastic estimate of the conjugate derivative of the cost.

    Returns -xi conj(e) with e = eta - a_hat^H xi; its expectation is
    R a_hat - p, which vanishes exactly at the Wiener solution.  ``xi``
    is one input of length n with a scalar ``eta``, or a (k, n) stack
    of inputs with k references, giving one row per sample.
    """
    a = _array(a_hat, "a_hat", finite=True)
    x = _array(xi, "xi", shape=(a.shape, ("k", *a.shape)))
    e = _array(eta, "eta", shape=x.shape[:-1])
    err = e - x @ np.conj(a)
    return -x * np.conj(err)[..., None]


def wiener_solution(model: SignalModel) -> np.ndarray:
    """The mean-square-error minimizer inv(R) p, solved once by the model."""
    return model._wiener.copy()


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
    _number(steps, "steps", sign="nonnegative", size=True)
    a = model._wiener if a_ref is None else _array(a_ref, "a_ref", shape=(model.n,), finite=True)
    rng = np.random.default_rng(model.seed)
    # The draws keep their order and every value its arithmetic, but each
    # goes through one real buffer into a preallocated complex array, and
    # the noise reuses the unit draws' memory once xi is formed.
    draws = np.empty((steps, model.n))
    w = np.empty((steps, model.n), dtype=complex)
    w.real = rng.standard_normal(out=draws)
    w.imag = rng.standard_normal(out=draws)
    w /= np.sqrt(2.0)
    xi = w @ model._chol.T
    noise = w.reshape(-1)[:steps]
    part = draws.reshape(-1)[:steps]
    noise.real = rng.standard_normal(out=part)
    noise.imag = rng.standard_normal(out=part)
    del draws, part
    noise *= np.sqrt(model.noise_var / 2.0)
    eta = xi @ np.conj(a)
    eta += noise
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


def _recursion(xi: np.ndarray, eta: np.ndarray, mu: np.ndarray, a0: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every estimate a <- a + mu_k xi_k conj(e_k) visits, the start first, and every error.

    Each step makes the numpy calls a plain ``a + mu[k] * (xi[k] *
    np.conj(e))`` makes, on the same operands in the same order, so the
    bits are the same.  The scalars are Python numbers taken from
    ``tolist`` chunks, and conj(e) and mu_k reach numpy through two 0-d
    complex buffers: that skips numpy's conversion of a scalar operand
    on every call, and a 0-d operand is cheaper than a shape-(1,) one,
    which takes the broadcast path.  numpy casts a real mu_k to complex
    for the product anyway.  The loop runs on past a divergence.
    """
    steps, n = xi.shape
    estimates = np.empty((steps + 1, n), dtype=complex)
    estimates[0] = a0
    errors = np.empty(steps, dtype=complex)
    t = np.empty(n, dtype=complex)
    # Zeroed, not empty: uninitialised memory can hold subnormals.
    conj_err = np.zeros((), dtype=complex)
    alpha = np.zeros((), dtype=complex)
    a = estimates[0]
    for start in range(0, steps, CHUNK_STEPS):
        stop = min(start + CHUNK_STEPS, steps)
        chunk_errors = []
        for x, a_next, eta_k, mu_k in zip(
            xi[start:stop], estimates[start + 1 : stop + 1], eta[start:stop].tolist(), mu[start:stop].tolist()
        ):
            err = eta_k - complex(np.vdot(a, x))
            chunk_errors.append(err)
            conj_err[()] = err.conjugate()
            alpha[()] = mu_k
            np.multiply(x, conj_err, out=t)
            np.multiply(alpha, t, out=t)
            np.add(a, t, out=a_next)
            a = a_next
        errors[start:stop] = chunk_errors
    return estimates, errors


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
    The loop is the update a <- a + alpha_k xi_k conj(e_k) on plain
    arrays, with alpha_k = step_size / (k + 1) under ``decay``, and 0-d
    buffers for its scalar operands; misalignment and error power are
    computed from the stored history after it.

    Raises
    ------
    Diverged
        If the estimate norm passes 1e9 or is not finite; the partial
        result rides on the exception.
    """
    _number(step_size, "step_size", kind="real", sign="positive")
    xi, eta = draw_signals(model, steps, a_ref=a_ref)
    target = wiener_solution(model)
    a = np.zeros(model.n, dtype=complex) if a0 is None else _array(a0, "a0", shape=(model.n,))
    mu = step_size / (np.arange(steps) + 1) if decay else np.full(steps, float(step_size))
    # Past a divergence the estimate overflows; the first bad step is
    # found and reported below, so the overflow itself is expected.
    with np.errstate(over="ignore", invalid="ignore"):
        estimates, errors = _recursion(xi, eta, mu, a)
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
    for start in range(0, done, CHUNK_STEPS):
        for k, power in enumerate(err_power[start : start + CHUNK_STEPS].tolist(), start):
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

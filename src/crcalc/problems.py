"""Worked estimation problems with known closed-form answers.

Two views of the same scalar model run through the whole stack.  The
observation g(z) = alpha z + beta conj(z) is linear in the pair
(z, conj(z)) but not holomorphic in z whenever beta is nonzero, which
makes it the smallest model that exercises both derivative blocks.  Its
averaged squared-error loss has a constant curvature with off-diagonal
block 2 conj(alpha) beta, so the conjugate coupling never vanishes for
a genuinely mixed model, and the unique minimizer

    z = (conj(alpha) <y> - beta <conj(y)>) / (|alpha|^2 - |beta|^2)

exists exactly when |alpha| differs from |beta|.  At |alpha| = |beta|
the model collapses onto a one-real-dimensional ray and the estimate is
not unique.

A third family of separable polynomial losses provides configurable
optimization targets with per-component closed forms.
"""

from __future__ import annotations

import numpy as np

from .coords import _array, _number, _read_only
from .errors import Unidentifiable
from .hessian import HessianQuad
from .lsq import LsqProblem
from .wirtinger import JacobianPair, ScalarField, VectorField, WirtingerPair

_IDENT_TOL = 1e-10


class Example1Problem:
    """Scalar estimation data for the model alpha z + beta conj(z).

    Stores the samples together with the three moments the loss
    expansion needs: the sample means of y and of |y|^2.  The mean of
    conj(y) is the conjugate of the mean of y.  alpha and beta must be
    finite complex numbers, the samples a finite vector, and those
    moments and the curvature |alpha|^2 + |beta|^2 finite, or ValueError
    is raised: otherwise no loss value is.
    """

    __slots__ = ("alpha", "beta", "samples", "mean_y", "mean_abs2")

    def __init__(self, alpha: complex, beta: complex, samples):
        alpha = complex(_number(alpha, "alpha", kind="complex"))
        beta = complex(_number(beta, "beta", kind="complex"))
        samples = _array(samples, "samples", finite=True)
        with np.errstate(over="ignore", invalid="ignore"):
            mean_y = complex(np.mean(samples))
            mean_abs2 = float(np.mean(np.abs(samples) ** 2))
            curvature = np.abs(alpha) ** 2 + np.abs(beta) ** 2
        if not (np.isfinite(mean_y) and np.isfinite(mean_abs2) and np.isfinite(curvature)):
            raise ValueError("the squared moments of the model and samples must be finite")
        self.alpha, self.beta, self.samples = alpha, beta, _read_only(samples.copy())
        self.mean_y, self.mean_abs2 = mean_y, mean_abs2

    @property
    def m(self) -> int:
        return self.samples.shape[0]

    @property
    def mean_conj_y(self) -> complex:
        return np.conj(self.mean_y)

    @classmethod
    def synthesize(
        cls,
        alpha: complex,
        beta: complex,
        z_true: complex,
        noise_var: float = 0.0,
        n_samples: int = 100,
        seed: int = 0,
    ) -> "Example1Problem":
        """Draw samples y = alpha z + beta conj(z) + circular noise."""
        named = ((alpha, "alpha"), (beta, "beta"), (z_true, "z_true"))
        alpha, beta, z = (complex(_number(value, name, kind="complex")) for value, name in named)
        _number(n_samples, "n_samples", sign="positive", size=True)
        _number(noise_var, "noise_var", kind="real", sign="nonnegative")
        rng = np.random.default_rng(_number(seed, "seed", sign="nonnegative"))
        # A clean sample past the float range is rejected as not finite.
        with np.errstate(over="ignore", invalid="ignore"):
            clean = alpha * z + beta * np.conj(z)
        noise = np.sqrt(noise_var / 2.0) * (
            rng.standard_normal(n_samples) + 1j * rng.standard_normal(n_samples)
        )
        return cls(alpha=alpha, beta=beta, samples=clean + noise)


def example1_loss_field(problem: Example1Problem) -> ScalarField:
    """The averaged squared-error loss as a scalar field on C^1.

    Carries the analytic derivative rows and the constant curvature
    blocks, so every representation-level identity in the package can
    be checked on it exactly.
    """
    alpha, beta = problem.alpha, problem.beta
    coupling = 0.5 * (abs(alpha) ** 2 + abs(beta) ** 2)
    lin = 0.5 * (alpha * problem.mean_conj_y + np.conj(beta) * problem.mean_y)

    def fn(z):
        zz = complex(z[0])
        fit = problem.samples - (alpha * zz + beta * np.conj(zz))
        return 0.5 * float(np.mean(np.abs(fit) ** 2))

    def cograd(z):
        zz = complex(z[0])
        dz = alpha * np.conj(beta) * zz + coupling * np.conj(zz) - lin
        return WirtingerPair(np.array([dz]), np.array([np.conj(dz)]))

    def hess(z):
        return HessianQuad(coupling, np.conj(alpha) * beta)

    return ScalarField(fn, cogradient_fn=cograd, hessian_fn=hess, name="scalar estimation loss")


def example1_closed_form(problem: Example1Problem) -> complex:
    """The unique loss minimizer, when the model is identifiable.

    Raises
    ------
    Unidentifiable
        When |alpha| and |beta| agree to within 1e-10 of the parameter
        scale, in which case the model only observes one real linear
        combination of (Re z, Im z) and no unique minimizer exists.
    """
    alpha, beta = problem.alpha, problem.beta
    denom = abs(alpha) ** 2 - abs(beta) ** 2
    scale = abs(alpha) ** 2 + abs(beta) ** 2
    if scale == 0.0 or abs(denom) <= _IDENT_TOL * scale:
        raise Unidentifiable(
            "the model alpha z + beta conj(z) with |alpha| = |beta| determines z "
            "only up to a one-real-parameter family"
        )
    return (np.conj(alpha) * problem.mean_y - beta * problem.mean_conj_y) / denom


def example2_as_lsq(problem: Example1Problem) -> LsqProblem:
    """The same estimation posed as a weighted least-squares fit.

    The model broadcasts alpha z + beta conj(z) across all m samples
    and the weight is the scalar 1/m (W = I/m, never formed as a
    matrix), so the least-squares loss equals the averaged loss
    exactly.  The model is linear in (z, conj(z)) with
    constant analytic jacobians, hence its Newton and Gauss-Newton
    Hessians coincide and one unit Newton step lands on the minimizer.
    """
    m = problem.m
    alpha, beta = problem.alpha, problem.beta
    ones = np.ones((m, 1), dtype=complex)

    g = VectorField(
        m,
        lambda z: (alpha * complex(z[0]) + beta * np.conj(complex(z[0]))) * np.ones(m, dtype=complex),
        jacobian_fn=lambda z: JacobianPair(alpha * ones, beta * ones),
        name="broadcast scalar model",
    )
    return LsqProblem(g=g, y=problem.samples, w=1.0 / m)


class PolynomialParams:
    """Coefficients of a separable real quadratic in (z, conj(z)).

    The loss is

        sum_k  c_k |z_k|^2 + Re{d_k z_k^2} + Re{conj(b_k) z_k}  + e0

    with real c, complex d and b.  Component k has positive definite
    curvature exactly when c_k > |d_k| and an indefinite one when
    c_k < |d_k|, so the family covers well-posed and pathological
    optimization targets alike.  Every coefficient must be finite, or
    ValueError is raised.
    """

    __slots__ = ("quad_diag", "conj_diag", "linear", "constant")

    def __init__(self, quad_diag, conj_diag, linear, constant: float = 0.0):
        c = _array(quad_diag, "quad_diag", real=True, finite=True)
        d = _array(conj_diag, "conj_diag", shape=c.shape, finite=True)
        b = _array(linear, "linear", shape=c.shape, finite=True)
        self.quad_diag, self.conj_diag, self.linear = _read_only(c.copy()), _read_only(d.copy()), _read_only(b.copy())
        self.constant = float(_number(constant, "constant", kind="real"))

    @property
    def n(self) -> int:
        return self.quad_diag.shape[0]


def polynomial_field(params: PolynomialParams) -> ScalarField:
    """The separable quadratic as a batched scalar field, its analytic curvature given as diagonals."""
    c, d, b, e0 = params.quad_diag, params.conj_diag, params.linear, params.constant

    def fn(z):
        # Summed over the last axis, so a (k, n) stack gives k values.
        return (
            np.sum(c * np.abs(z) ** 2, axis=-1)
            + np.sum(np.real(d * z**2), axis=-1)
            + np.sum(np.real(np.conj(b) * z), axis=-1)
            + e0
        )

    def cograd(z):
        dz = c * np.conj(z) + d * z + 0.5 * np.conj(b)
        return WirtingerPair(dz, np.conj(dz))

    def hess(z):
        return HessianQuad(c, np.conj(d))

    return ScalarField(fn, cogradient_fn=cograd, hessian_fn=hess, name="polynomial loss", batched=True)


def polynomial_stationary_point(params: PolynomialParams) -> np.ndarray:
    """Solve the per-component 2 x 2 stationarity system in closed form.

    Raises
    ------
    Unidentifiable
        If any component has |c_k| = |d_k|, where the quadratic form is
        singular and the stationary point is not unique, or when
        |c_k|^2 + |d_k|^2 or the stationary point is past the float
        range.
    """
    c, d, b = params.quad_diag, params.conj_diag, params.linear
    overflow = "the closed form overflows the float range"
    with np.errstate(over="ignore", invalid="ignore"):
        det = np.abs(d) ** 2 - c**2
        scale = np.abs(d) ** 2 + c**2
    if not np.all(np.isfinite(scale)):
        raise Unidentifiable(overflow)
    bad = (scale == 0.0) | (np.abs(det) <= _IDENT_TOL * np.maximum(scale, 1.0))
    if np.any(bad):
        raise Unidentifiable("a component has singular curvature, no unique stationary point")
    # Each system is solved for b_k scaled by a power of two to below 1,
    # so c_k b_k cannot overflow where the point does not; the scaling is
    # exact, and a point in range comes out bit for bit.
    exponent = np.maximum(np.frexp(np.maximum(np.abs(b.real), np.abs(b.imag)))[1], 0)
    unit_b = _times_power_of_two(b, -exponent)
    with np.errstate(over="ignore", invalid="ignore"):
        unit_point = 0.5 * (c * unit_b - np.conj(d) * np.conj(unit_b)) / det
        point = _times_power_of_two(unit_point, exponent)
    if not np.all(np.isfinite(point)):
        raise Unidentifiable(overflow)
    return point


def _times_power_of_two(x: np.ndarray, exponent: np.ndarray) -> np.ndarray:
    """x * 2**exponent for complex x, exact unless it leaves the normal float range."""
    return np.ldexp(x.real, exponent) + 1j * np.ldexp(x.imag, exponent)

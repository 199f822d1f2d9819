"""Descent methods driven by conjugate-coordinate curvature.

Every method here takes steps of the form

    delta_c = -alpha * inv(M) (d loss / d c)^H

where M is an admissible Hermitian scaling picked by a
:class:`QStrategy`: the identity, the full Newton Hessian, its
block-diagonal part, the Gauss-Newton Hessian of a least-squares
problem, or its block-diagonal part.  Admissibility of M is what keeps
the top and bottom halves of delta_c conjugates of each other, so the
iteration never leaves the set of valid conjugate-coordinate vectors,
and positive definiteness of M is what makes the predicted first-order
change nonpositive for every gradient.

Every admissible M has the form [[A, B], [conj(B), conj(A)]], so a
scaling travels from its builder to the solver as the top-block pair
(A, B) alone; the bottom pair is conjugate by construction and M is
never assembled.  What is checked is what the real-coordinate solve
relies on: A Hermitian and B symmetric.

When A and B come as length-n diagonals, as for the identity and for a
separable loss that declares it, the scaling keeps them so and
:func:`~crcalc.hessian.real_hessian` gives J^H M J as n 2 x 2 real
blocks, one per component: the 2n x 2n real Hessian is not built.  The
gates on the scaling, its condition and its definiteness are the same
quantities in both storages, and this module never looks at the storage.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coords import _COND_LIMIT, _number, as_complex_vector
from .errors import (
    ConfigError,
    DimensionError,
    Diverged,
    InadmissibleQ,
    NonFiniteEvaluation,
    SingularQ,
)
from .hessian import (
    HessianQuad,
    _add_to_diagonal,
    _invariant_residual,
    _solve_real,
    _tol_scale,
    hessian_quad,
    real_hessian,
)
from .lsq import LsqProblem, gauss_newton_quad, loss_field, newton_quad
from .wirtinger import JacobianPair, ScalarField, VectorField, WirtingerPair, cogradients

STRATEGY_KINDS = (
    "identity",
    "newton",
    "quasi_newton",
    "gauss_newton",
    "quasi_gauss_newton",
)

#: Default step size per strategy; curvature-scaled steps start at 1.
DEFAULT_STEP_SIZE = {
    "identity": 0.1,
    "newton": 1.0,
    "quasi_newton": 1.0,
    "gauss_newton": 1.0,
    "quasi_gauss_newton": 1.0,
}

#: Loss growth above the starting loss treated as numerical divergence.
DIVERGENCE_LOSS = 1e12

_Q_ADMISSIBLE_TOL = 1e-9
_MAX_BACKTRACKS = 60
_SINGULAR_TOL = 1e-10


@dataclass(frozen=True)
class QStrategy:
    """Choice of descent scaling matrix.

    ``damping`` adds that multiple of the identity to the scaling,
    which is the usual remedy when a Newton matrix is indefinite or
    near-singular.
    """

    kind: str = "newton"
    damping: float = 0.0

    def __post_init__(self):
        if self.kind not in STRATEGY_KINDS:
            raise ValueError(f"kind must be one of {STRATEGY_KINDS}, got {self.kind!r}")
        _number(self.damping, "damping", real=True, sign="nonnegative")


@dataclass(frozen=True)
class OptimizerConfig:
    """Iteration controls for :func:`minimize`.

    ``step_size`` of None picks the strategy default (1.0 for
    curvature-scaled strategies, 0.1 for the identity).  Termination is
    on the infinity norm of the loss derivative row.
    """

    step_size: float | None = None
    max_iters: int = 100
    grad_tol: float = 1e-8
    backtracking: str = "armijo"
    armijo_beta: float = 0.5
    armijo_c1: float = 1e-4
    record_trace: bool = True

    def __post_init__(self):
        if self.step_size is not None:
            _number(self.step_size, "step_size", real=True, sign="positive")
        if _number(self.max_iters, "max_iters") < 1:
            raise ValueError("max_iters must be at least 1")
        _number(self.grad_tol, "grad_tol", real=True, sign="nonnegative")
        if self.backtracking not in ("off", "armijo"):
            raise ValueError("backtracking must be 'off' or 'armijo'")
        for name in ("armijo_beta", "armijo_c1"):
            if not 0.0 < _number(getattr(self, name), name, real=True) < 1.0:
                raise ValueError(f"{name} must lie in (0, 1)")


@dataclass(frozen=True, eq=False)
class StepDiagnostics:
    """What the scaling looked like when a step was computed."""

    kind: str
    positive_definite: bool
    condition: float
    predicted_decrease: float


@dataclass(frozen=True, eq=False)
class IterationRecord:
    """One row of an optimization trace.

    ``z`` and ``loss`` describe the iterate the step was taken from;
    the remaining fields describe that step.  The terminal row carries
    a zero step, and NaN and None diagnostics unless its line search
    failed or its step left z unchanged.
    """

    iteration: int
    z: np.ndarray
    loss: float
    grad_norm: float
    step_norm: float
    q_condition: float
    q_positive_definite: bool | None


class IterationTrace(list):
    """The :class:`IterationRecord` rows of a run, in order: a list with a loss view."""

    @property
    def losses(self) -> np.ndarray:
        return np.array([rec.loss for rec in self])


@dataclass(frozen=True, eq=False)
class MinimizeResult:
    """Terminal state of a :func:`minimize` run.

    ``reason`` is one of:

    - ``"converged"``: the derivative row's infinity norm is at most
      ``grad_tol``; the only reason with ``converged`` true;
    - ``"max_iters"``: ``max_iters`` steps were taken;
    - ``"line_search_failed"``: the scaled direction does not point
      downhill, or 60 Armijo trials all failed the decrease test;
    - ``"no_progress"``: an accepted step left z unchanged bit for bit,
      so every later iteration would repeat it.
    """

    z: np.ndarray
    loss: float
    grad_norm: float
    converged: bool
    reason: str
    iterations: int
    trace: IterationTrace


def _as_field(target, strategy: QStrategy) -> ScalarField:
    """The loss of ``target`` as a scalar field, checked against ``strategy``.

    A least-squares problem's loss and row are read through
    :func:`~crcalc.lsq.loss_field`; a Gauss-Newton scaling needs one, so
    asking for it on a plain field is a configuration error.
    """
    if isinstance(target, LsqProblem):
        return loss_field(target)
    if not isinstance(target, ScalarField):
        raise TypeError(f"expected a ScalarField or LsqProblem, got {type(target).__name__}")
    if strategy.kind.endswith("gauss_newton"):
        raise ConfigError(f"{strategy.kind} scalings need a least-squares problem")
    return target


def _scaling(target, z: np.ndarray, strategy: QStrategy) -> tuple[np.ndarray, np.ndarray]:
    """Top blocks (A, B) of the scaling M = [[A, B], [conj(B), conj(A)]], as stored at the source.

    A least-squares problem's curvature comes straight from lsq, a plain field's from hessian_quad.
    """
    n = z.shape[0]
    kind = strategy.kind
    if kind == "identity":
        return np.full(n, 1.0 + strategy.damping, dtype=complex), np.zeros(n, dtype=complex)
    if not isinstance(target, LsqProblem):
        quad = hessian_quad(target, z)
    elif kind.endswith("gauss_newton"):
        quad = gauss_newton_quad(target, z)
    else:
        quad = newton_quad(target, z)
    a, b = quad.hzz, quad.hzbz
    if kind.startswith("quasi_"):
        b = np.zeros_like(b, dtype=complex)
    if strategy.damping > 0.0:
        a = _add_to_diagonal(a, strategy.damping)
    return a, b


def descent_step(target, p, strategy: QStrategy = QStrategy()) -> tuple[np.ndarray, StepDiagnostics]:
    """Scaled descent direction in conjugate coordinates, at unit step.

    Returns the admissible vector delta_c = -inv(M) (d loss / d c)^H
    together with diagnostics of the scaling M: positive definiteness,
    the 2-norm condition number, and the first-order loss change
    predicted for a unit step.  Definiteness and condition come from
    the eigenvalues of the real-coordinate form J^H M J, which are
    twice those of M, and the step is solved there in real arithmetic
    as delta_c = J delta_r.  When A and B are stored as diagonals,
    :func:`~crcalc.hessian.real_hessian` gives that form as n 2 x 2
    real blocks, one per component, factored with the same gates.

    Raises
    ------
    InadmissibleQ
        If the top blocks (A, B) of the scaling are not A Hermitian and
        B symmetric to 1e-9 relative; the bottom pair is their
        conjugate by construction.
    SingularQ
        If the scaling cannot be solved against, damping in the
        strategy being the usual fix, holds NaN or infinity, or has
        finite entries that overflow its real-coordinate form.
    ConfigError
        If a Gauss-Newton kind is asked of a target that is not a
        least-squares problem; raised before anything is evaluated.
    """
    field = _as_field(target, strategy)
    z = as_complex_vector(p)
    pair = cogradients(field, z)
    delta_z, diag = _descent_step(z, pair, _scaling(target, z, strategy), strategy.kind)
    return np.concatenate([delta_z, np.conj(delta_z)]), diag


def _descent_step(
    z: np.ndarray, pair: WirtingerPair, scaling: tuple[np.ndarray, np.ndarray], kind: str
) -> tuple[np.ndarray, StepDiagnostics]:
    """:func:`descent_step` from the derivative row and the scaling (A, B) at z.

    Returns the step in z alone, ``(delta_z, diagnostics)``; the
    conjugate half of delta_c is conj(delta_z) and is never built here.
    """
    a, b = scaling
    # Entries that are not finite, or that overflow when doubled into the
    # real form, are reported by the gates below, not by numpy warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        resid = _invariant_residual(a, b)
        hrr = real_hessian(a, b)
    # A non-finite residual passes the tolerance test, and eigvalsh, which
    # reads one triangle, can return finite eigenvalues for a NaN entry.
    if not np.isfinite(resid):
        raise SingularQ(f"{kind} scaling is not finite")
    if resid > _Q_ADMISSIBLE_TOL * _tol_scale(a, b):
        raise InadmissibleQ(
            f"{kind} scaling is not Hermitian admissible "
            f"(A Hermitian, B symmetric), residual {resid:.3e}"
        )
    # Finite blocks past about 9e307 overflow when doubled; no damping
    # brings such a form back into range.
    if not np.all(np.isfinite(hrr)):
        raise SingularQ(f"{kind} scaling overflows its real-coordinate form")
    n = z.shape[0]
    try:
        eigs = np.linalg.eigvalsh(hrr)
    except np.linalg.LinAlgError as exc:
        raise SingularQ(f"{kind} scaling is singular; add damping") from exc
    magnitudes = np.abs(eigs)
    smallest = float(magnitudes.min())
    condition = float(magnitudes.max()) / smallest if smallest > 0.0 else float("inf")
    if not np.isfinite(condition) or condition > _COND_LIMIT:
        raise SingularQ(
            f"{kind} scaling is numerically singular "
            f"(condition {condition:.3e}); add damping"
        )
    # The derivative row in real coordinates, (d loss / d c) J.  Far from
    # the origin it, the step and their product, a diagnostic, may
    # overflow; a step that is not finite fails minimize's line search.
    with np.errstate(over="ignore", invalid="ignore"):
        row_r = np.concatenate([(pair.dz + pair.dzbar).real, (pair.dzbar - pair.dz).imag])
        try:
            delta_r = _solve_real(hrr, -row_r)
        except np.linalg.LinAlgError as exc:
            raise SingularQ(f"{kind} scaling is singular; add damping") from exc
        delta_z = delta_r[:n] + 1j * delta_r[n:]
        predicted_decrease = float(row_r @ delta_r)
    diag = StepDiagnostics(
        kind=kind,
        positive_definite=bool(eigs.min() > 0.0),
        condition=condition,
        predicted_decrease=predicted_decrease,
    )
    return delta_z, diag


def minimize(
    target,
    z0,
    strategy: QStrategy = QStrategy(),
    config: OptimizerConfig = OptimizerConfig(),
) -> MinimizeResult:
    """Iterate scaled descent steps until the derivative row is small.

    Parameters
    ----------
    target : ScalarField or LsqProblem
        Real loss to minimize.
    z0 : array-like
        Starting point in C^n.
    strategy : QStrategy
        Scaling choice and damping.
    config : OptimizerConfig
        Step size, iteration and tolerance controls.  With Armijo
        backtracking the recorded loss sequence is non-increasing, and
        a trial point whose loss is not finite is rejected like any
        other trial that fails the decrease test; a scaled direction
        that is not a descent direction (its slope is not negative, as
        under an indefinite scaling) fails the line search without a
        trial.  With backtracking ``"off"`` the first trial is taken
        whatever its loss.

    Returns
    -------
    MinimizeResult
        Its ``z`` is a fresh array, never the caller's ``z0``.  The
        trace holds one row per step taken and one terminal row with a
        zero step; after a failed line search or a step that leaves z
        unchanged, that row carries the step's scaling diagnostics,
        otherwise NaN and None.

    Raises
    ------
    Diverged
        If the loss is not finite at the starting point, or an accepted
        step's loss is not finite or exceeds the starting loss by more
        than 1e12, so adding a constant to the loss changes nothing;
        the partial trace rides on the exception.
    ConfigError
        If a Gauss-Newton kind is asked of a target that is not a
        least-squares problem; raised before anything is evaluated.
    """
    field = _as_field(target, strategy)
    z = as_complex_vector(z0).copy()
    trace = IterationTrace()
    alpha0 = config.step_size if config.step_size is not None else DEFAULT_STEP_SIZE[strategy.kind]
    armijo = config.backtracking == "armijo"

    def record(step_norm: float) -> None:
        """Trace the current iterate and the step taken from it."""
        if config.record_trace:
            q = (diag.condition, diag.positive_definite) if diag is not None else (float("nan"), None)
            trace.append(IterationRecord(k, z.copy(), loss_here, grad_norm, step_norm, *q))

    loss_here = _trial_loss(field, z)
    if not np.isfinite(loss_here):
        raise Diverged(f"loss {loss_here!r} at the starting point", trace=trace)
    loss_limit = loss_here + DIVERGENCE_LOSS

    reason = "max_iters"
    diag: StepDiagnostics | None = None
    for k in range(config.max_iters + 1):
        pair = cogradients(field, z)
        grad_norm = float(np.max(np.abs(pair.dz), initial=0.0))
        if grad_norm <= config.grad_tol:
            reason = "converged"
            break
        if k == config.max_iters:
            break
        delta_z, diag = _descent_step(z, pair, _scaling(target, z, strategy), strategy.kind)
        # Far from the origin the slope, a trial point or the step norm
        # may overflow; what is not finite fails the tests below.
        with np.errstate(over="ignore", invalid="ignore"):
            # Half the directional slope 2 Re(dz delta_z): doubling it
            # first would overflow where the loss and the step still do not.
            half_slope = float(np.real(pair.dz @ delta_z))
            if armijo and not half_slope < 0.0:
                # No step length decreases the loss along a direction that
                # does not point downhill (an overflowed slope included),
                # so no trial is made.
                reason = "line_search_failed"
                break

            alpha = alpha0
            for _ in range(_MAX_BACKTRACKS if armijo else 1):
                candidate = z + alpha * delta_z
                loss_new = _trial_loss(field, candidate)
                if not armijo or loss_new <= loss_here + config.armijo_c1 * alpha * 2.0 * half_slope:
                    break
                alpha *= config.armijo_beta
            else:
                reason = "line_search_failed"
                break
            step_norm = float(np.linalg.norm(alpha * delta_z))

        if candidate.tobytes() == z.tobytes():
            # The step rounds away: every later iteration would repeat this one.
            reason = "no_progress"
            break
        record(step_norm)
        if not loss_new <= loss_limit:
            raise Diverged(f"loss reached {loss_new!r} at iteration {k}", trace=trace)
        z, loss_here, diag = candidate, loss_new, None

    record(0.0)
    return MinimizeResult(
        z=z,
        loss=loss_here,
        grad_norm=grad_norm,
        converged=reason == "converged",
        reason=reason,
        iterations=k,
        trace=trace,
    )


def _trial_loss(field: ScalarField, z: np.ndarray) -> float:
    """Loss at the start or a line-search trial point, inf where it is not finite.

    A far-off point may overflow, so numpy's floating-point warnings
    are silenced; the non-finite value they announce fails every
    comparison the caller makes.
    """
    try:
        with np.errstate(all="ignore"):
            return field(z)
    except NonFiniteEvaluation:
        return float("inf")


def check_minimum(quad: HessianQuad) -> str:
    """Classify a stationary point from its curvature blocks.

    Returns one of ``"local_min"``, ``"saddle_or_max"``,
    ``"indefinite"``, or ``"singular"``.  The eigenvalues are those of
    the real-coordinate Hessian, twice those of the complex form, so
    their signs are the same; any eigenvalue within 1e-10 of zero,
    relative to the spectral radius, reports ``"singular"``.  Blocks
    stored as diagonals are factored as the n 2 x 2 real blocks
    :func:`~crcalc.hessian.real_hessian` gives for them, one per
    component, with the same rule.

    Raises
    ------
    RelationViolation
        If the blocks violate their invariants.
    NonFiniteEvaluation
        If a block holds NaN or infinity, or the real-coordinate Hessian
        overflows; such blocks have no classification.
    """
    quad.check_invariants()
    with np.errstate(over="ignore"):
        form = real_hessian(quad.hzz, quad.hzbz)
    if not np.all(np.isfinite(form)):
        raise NonFiniteEvaluation("curvature blocks overflow their real-coordinate form")
    eigs = np.linalg.eigvalsh(form)
    radius = float(np.max(np.abs(eigs), initial=0.0))
    if radius == 0.0 or float(np.min(np.abs(eigs))) <= _SINGULAR_TOL * radius:
        return "singular"
    if np.all(eigs > 0.0):
        return "local_min"
    if np.all(eigs < 0.0):
        return "saddle_or_max"
    return "indefinite"


def lagrangian(loss_field: ScalarField, constraint: VectorField, multiplier) -> ScalarField:
    """Real-valued Lagrangian loss(z) + Re{lambda^H g(z)}.

    One complex multiplier entry per constraint component carries both
    real penalties Re g and Im g.  Analytic derivatives are attached
    when both the loss and the constraint have them.

    Raises
    ------
    DimensionError
        If the multiplier length differs from the constraint dimension.
    """
    lam = as_complex_vector(multiplier)
    if lam.shape[0] != constraint.m:
        raise DimensionError(
            f"multiplier has length {lam.shape[0]}, constraint has {constraint.m} components"
        )

    def fn(z):
        return loss_field(z) + float(np.real(np.conj(lam) @ constraint(z)))

    cograd = None
    if loss_field.cogradient_fn is not None and constraint.jacobian_fn is not None:
        def cograd(z):
            base = cogradients(loss_field, z)
            jac: JacobianPair = cogradients(constraint, z)
            dz = base.dz + 0.5 * (np.conj(lam) @ jac.jz + lam @ np.conj(jac.jzbar))
            dzbar = base.dzbar + 0.5 * (np.conj(lam) @ jac.jzbar + lam @ np.conj(jac.jz))
            return WirtingerPair(dz, dzbar)

    return ScalarField(fn, cogradient_fn=cograd, name=f"lagrangian of {loss_field.name}")

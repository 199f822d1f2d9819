"""First-order calculus for functions of a complex vector.

Derivatives here are taken with respect to z and conj(z) as if they
were independent variables.  For a map f the two row blocks

    df/dz    = (df/dx - i df/dy) / 2
    df/dconj = (df/dx + i df/dy) / 2

capture everything the real derivative knows; f is holomorphic exactly
when the second block vanishes.  Real-valued losses are never
holomorphic, but their two blocks are conjugates of each other, so a
single row determines the whole first-order behavior:

    f(z + dz) = f(z) + 2 Re{ (df/dz) dz } + o(dz).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .coords import DimensionError, MetricTensor, _number, as_complex_vector
from .errors import ConjugationMismatch, NonFiniteEvaluation, SingularMatrix

#: Relative step for first-derivative central differences.
FD_FIRST_STEP = float(np.finfo(float).eps) ** (1.0 / 3.0)

#: Conjugate-pairing tolerance for analytic derivatives of real fields.
CONJ_TOL_ANALYTIC = 1e-8

#: Conjugate-pairing tolerance when derivatives come from differencing.
CONJ_TOL_FD = 1e-5

#: Holomorphy residual threshold with analytic derivative blocks.
HOLO_TOL_ANALYTIC = 1e-9

#: Holomorphy residual threshold with differenced derivative blocks.
HOLO_TOL_FD = 1e-5

_REAL_DUST = 1e-10


class WirtingerPair:
    """First-derivative rows of a real scalar field.

    Attributes
    ----------
    dz : ndarray
        Row d f / d z, length n.
    dzbar : ndarray
        Row d f / d conj(z), length n.  Equals conj(dz) for any
        real-valued field.
    """

    __slots__ = ("dz", "dzbar")

    def __init__(self, dz, dzbar):
        dz = np.atleast_1d(np.asarray(dz, dtype=complex))
        dzbar = np.atleast_1d(np.asarray(dzbar, dtype=complex))
        if dz.shape != dzbar.shape or dz.ndim != 1:
            raise DimensionError("derivative rows must be vectors of equal length")
        self.dz = dz
        self.dzbar = dzbar

    @property
    def n(self) -> int:
        return self.dz.shape[0]

    def conjugation_residual(self) -> float:
        """Infinity-norm violation of dzbar = conj(dz); NaN or inf where a row is not finite."""
        with np.errstate(over="ignore", invalid="ignore"):
            return float(np.max(np.abs(np.conj(self.dz) - self.dzbar), initial=0.0))


class JacobianPair:
    """Derivative blocks of a vector map, each of shape m x n.

    ``jz`` holds d f / d z and ``jzbar`` holds d f / d conj(z).  The map
    is holomorphic on a region exactly when jzbar vanishes there.
    """

    __slots__ = ("jz", "jzbar")

    def __init__(self, jz, jzbar):
        jz = np.atleast_2d(np.asarray(jz, dtype=complex))
        jzbar = np.atleast_2d(np.asarray(jzbar, dtype=complex))
        if jz.shape != jzbar.shape:
            raise DimensionError("jacobian blocks must share a shape")
        self.jz = jz
        self.jzbar = jzbar

    @property
    def shape(self) -> tuple[int, int]:
        return self.jz.shape


class ScalarField:
    """A real-valued function of a complex vector.

    Parameters
    ----------
    fn : callable
        Maps a 1-D complex array to a real scalar.  A complex return
        with imaginary dust below 1e-10 (relative) is truncated;
        anything larger raises ValueError, since the calculus in this
        package assumes real-valued losses.
    cogradient_fn : callable, optional
        Maps a point to a :class:`WirtingerPair`.  Used instead of
        differencing when present; any other return value is rejected.
    hessian_fn : callable, optional
        Maps a point to its curvature as a
        :class:`~crcalc.hessian.HessianQuad`, the top pair (A, B), as
        two length-n diagonals where both are diagonal; the bottom pair
        is their conjugate.  The curvature module symmetrizes the pair,
        keeps its storage, and rejects any other return value.
    name : str, optional
        Label for reports and traces.
    batched : bool, optional
        Declares that ``fn`` also maps a (k, n) stack of points to k
        values, one per row.  Differencing then evaluates a whole probe
        set in one call; a single point is still passed as a 1-D array.
        Each value is checked as a single call's would be, and the
        first failing row raises that call's error.  A batched ``fn``
        that computes each row as the row-wise one does gives the same
        bits, but numpy does not promise that for every shape (a
        complex product can round differently for a 1-row stack), so
        pin it for the shapes used.
    """

    def __init__(
        self,
        fn: Callable[[np.ndarray], float],
        cogradient_fn: Callable[[np.ndarray], WirtingerPair] | None = None,
        hessian_fn=None,
        name: str = "scalar field",
        batched: bool = False,
    ):
        self.fn = fn
        self.cogradient_fn = cogradient_fn
        self.hessian_fn = hessian_fn
        self.name = name
        self.batched = bool(batched)

    def __call__(self, p) -> float:
        z = as_complex_vector(p)
        return self._checked(complex(self.fn(z)), z)

    def _checked(self, value: complex, z: np.ndarray) -> float:
        if not (math.isfinite(value.real) and math.isfinite(value.imag)):
            raise NonFiniteEvaluation(f"{self.name} returned a non-finite value at {z!r}")
        if abs(value.imag) > _REAL_DUST * max(1.0, abs(value.real)):
            raise ValueError(f"{self.name} must be real-valued, got {value!r}")
        return value.real

    def _evaluate_stack(self, stack: np.ndarray) -> np.ndarray:
        """The field at each row of a (k, n) stack, as k reals in row order."""
        if not self.batched:
            return np.array([self(row) for row in stack])
        k = stack.shape[0]
        values = np.asarray(self.fn(stack), dtype=complex)
        if values.shape != (k,):
            raise DimensionError(
                f"{self.name} returned shape {values.shape} for {k} points, expected ({k},)"
            )
        re, im = values.real, values.imag
        if not np.all(np.isfinite(values) & (np.abs(im) <= _REAL_DUST * np.fmax(1.0, np.abs(re)))):
            for value, z in zip(values, stack):
                self._checked(complex(value), z)
        return re


class VectorField:
    """A map from C^n to C^m.

    Parameters
    ----------
    m : int
        Output dimension; a bool or any other non-integer raises ValueError.
    fn : callable
        Maps a 1-D complex array to a length-m complex array.
    jacobian_fn : callable, optional
        Maps a point to a :class:`JacobianPair`.  Used instead of
        differencing when present; any other return value is rejected.
    name : str, optional
        Label for reports and traces.
    """

    def __init__(
        self,
        m: int,
        fn: Callable[[np.ndarray], np.ndarray],
        jacobian_fn: Callable[[np.ndarray], JacobianPair] | None = None,
        name: str = "vector field",
    ):
        self.m = int(_number(m, "m"))
        self.fn = fn
        self.jacobian_fn = jacobian_fn
        self.name = name

    def __call__(self, p) -> np.ndarray:
        z = as_complex_vector(p)
        value = np.atleast_1d(np.asarray(self.fn(z), dtype=complex))
        if value.shape != (self.m,):
            raise DimensionError(
                f"{self.name} returned shape {value.shape}, expected ({self.m},)"
            )
        if not np.all(np.isfinite(value)):
            raise NonFiniteEvaluation(f"{self.name} returned non-finite values at {z!r}")
        return value

    def _evaluate_stack(self, stack: np.ndarray) -> np.ndarray:
        """The map at each row of a (k, n) stack, as a (k, m) array in row order."""
        return np.array([self(row) for row in stack])


def _fd_blocks(
    evaluate: Callable[[np.ndarray], np.ndarray], z: np.ndarray, base: float, m: int, centre=None
):
    """Difference jz and jzbar of a map with m outputs.

    Without ``centre`` the stencil is central and the centre point is
    never evaluated: 4n probes, coordinate by coordinate +x, -x, +y, -y.
    Given ``centre``, the map's m values at z, it is forward: 2n probes,
    +x, +y per coordinate, each differenced against ``centre``.  The
    probes form one (kn, n) stack in that order, which ``evaluate`` maps
    to (kn, m) values in row order; a field's ``_evaluate_stack`` gives a
    batched field the whole stack in one call and any other field one
    row at a time.
    """
    n = z.shape[0]
    # fmax, like the builtin max, keeps the base step for a NaN coordinate.
    hx = base * np.fmax(1.0, np.abs(z.real))
    hy = base * np.fmax(1.0, np.abs(z.imag))
    ex = np.diag(hx)
    ey = np.diag(1j * hy)
    # Row k i + s is side s of coordinate i.  z - ex is not z + (-ex) for a
    # signed zero, so each side keeps its own add or subtract.
    if centre is None:
        stack = np.empty((n, 4, n), dtype=complex)
        np.add(z, ex, out=stack[:, 0])
        np.subtract(z, ex, out=stack[:, 1])
        np.add(z, ey, out=stack[:, 2])
        np.subtract(z, ey, out=stack[:, 3])
    else:
        stack = np.empty((n, 2, n), dtype=complex)
        np.add(z, ex, out=stack[:, 0])
        np.add(z, ey, out=stack[:, 1])
    k = stack.shape[1]
    values = evaluate(stack.reshape(k * n, n))
    # (n, k, m) in call order -> k C-ordered m x n blocks.
    f = np.ascontiguousarray(values.reshape(n, k, m).transpose(1, 2, 0))
    # A difference past the float range comes back non-finite, for the caller's gates.
    with np.errstate(over="ignore", invalid="ignore"):
        if centre is None:
            dfdx = (f[0] - f[1]) / (2.0 * hx)
            dfdy = (f[2] - f[3]) / (2.0 * hy)
        else:
            dfdx = (f[0] - centre[:, None]) / hx
            dfdy = (f[1] - centre[:, None]) / hy
        return 0.5 * (dfdx - 1j * dfdy), 0.5 * (dfdx + 1j * dfdy)


def cogradients_fd(field, p, step: float | None = None):
    """Derivative blocks by central differences in each real coordinate.

    The per-coordinate step is ``h * max(1, |coordinate|)`` where ``h``
    defaults to eps**(1/3).  Returns a :class:`WirtingerPair` for a
    :class:`ScalarField` and a :class:`JacobianPair` for a
    :class:`VectorField`.

    Raises
    ------
    NonFiniteEvaluation
        If any probe evaluation is non-finite.
    ValueError
        If ``step`` is not a positive finite real.
    """
    base = FD_FIRST_STEP if step is None else float(_number(step, "step", real=True, sign="positive"))
    z = as_complex_vector(p)
    if isinstance(field, ScalarField):
        jz, jzbar = _fd_blocks(field._evaluate_stack, z, base, 1)
        return WirtingerPair(jz[0], jzbar[0])
    if isinstance(field, VectorField):
        jz, jzbar = _fd_blocks(field._evaluate_stack, z, base, field.m)
        return JacobianPair(jz, jzbar)
    raise TypeError(f"expected a ScalarField or VectorField, got {type(field).__name__}")


def cogradients(field, p):
    """Analytic derivative blocks when available, differenced otherwise.

    For a :class:`ScalarField` the conjugate pairing dzbar = conj(dz) is
    checked and :class:`ConjugationMismatch` raised on failure, with the
    tighter tolerance applied to analytic derivatives; a non-finite
    pairing residual raises :class:`NonFiniteEvaluation`.  A
    ``cogradient_fn`` that does not return a :class:`WirtingerPair`, or
    rows whose length differs from the point's, and a ``jacobian_fn``
    that does not return a :class:`JacobianPair`, or blocks that are not
    m x n, raise :class:`DimensionError`.
    """
    z = as_complex_vector(p)
    if isinstance(field, ScalarField):
        if field.cogradient_fn is not None:
            pair = field.cogradient_fn(z)
            if not isinstance(pair, WirtingerPair):
                raise DimensionError(
                    f"{field.name}: cogradient_fn must return a WirtingerPair, got {type(pair).__name__}"
                )
            if pair.n != z.shape[0]:
                raise DimensionError(
                    f"{field.name}: derivative rows have length {pair.n}, expected {z.shape[0]}"
                )
            tol = CONJ_TOL_ANALYTIC
        else:
            pair = cogradients_fd(field, z)
            tol = CONJ_TOL_FD
        scale = max(1.0, float(np.max(np.abs(pair.dz), initial=0.0)))
        resid = pair.conjugation_residual()
        # A NaN residual would pass the tolerance test below.
        if not math.isfinite(resid):
            raise NonFiniteEvaluation(
                f"{field.name}: derivative rows are not finite, conjugation residual {resid}"
            )
        if resid > tol * scale:
            raise ConjugationMismatch(
                f"{field.name}: derivative rows of a real field must be conjugate, "
                f"residual {resid:.3e} exceeds {tol * scale:.3e}"
            )
        return pair
    if isinstance(field, VectorField):
        if field.jacobian_fn is not None:
            pair = field.jacobian_fn(z)
            if not isinstance(pair, JacobianPair):
                raise DimensionError(
                    f"{field.name}: jacobian_fn must return a JacobianPair, got {type(pair).__name__}"
                )
            if pair.shape != (field.m, z.shape[0]):
                raise DimensionError(
                    f"{field.name}: jacobian blocks have shape {pair.shape}, "
                    f"expected {(field.m, z.shape[0])}"
                )
            return pair
        return cogradients_fd(field, z)
    raise TypeError(f"expected a ScalarField or VectorField, got {type(field).__name__}")


@dataclass(frozen=True)
class HolomorphyReport:
    """Outcome of a holomorphy probe over a sample set."""

    holomorphic: bool
    max_residual: float
    tol: float
    points: int


def is_holomorphic(
    field: VectorField,
    points=None,
    *,
    center=None,
    samples: int = 16,
    tol: float | None = None,
    seed: int = 0,
) -> HolomorphyReport:
    """Probe whether the conjugate derivative block vanishes on a region.

    Either pass an explicit non-empty iterable of ``points`` or a
    ``center``; in the latter case the point set is the center plus
    ``samples`` draws from a complex Gaussian ball of radius 1 around
    it, generated deterministically from ``seed``.  The default
    threshold is 1e-9 when the field carries analytic jacobians and
    1e-5 under differencing.  A conjugate block holding NaN or infinity
    at any point is not holomorphic: ``max_residual`` is then NaN or
    infinite.
    """
    if not isinstance(field, VectorField):
        raise TypeError("holomorphy is a property of vector maps")
    if points is None:
        if center is None:
            raise ValueError("provide points or a center")
        z0 = as_complex_vector(center)
        rng = np.random.default_rng(_number(seed, "seed", sign="nonnegative"))
        pts = [z0]
        for _ in range(_number(samples, "samples", sign="nonnegative")):
            g = rng.standard_normal(z0.shape[0]) + 1j * rng.standard_normal(z0.shape[0])
            g /= np.sqrt(2.0)
            norm = float(np.linalg.norm(g))
            pts.append(z0 + g / max(1.0, norm))
    else:
        pts = [as_complex_vector(q) for q in points]
        if not pts:
            raise ValueError("the sample set must be non-empty")
    if tol is None:
        tol = HOLO_TOL_ANALYTIC if field.jacobian_fn is not None else HOLO_TOL_FD
    worst = 0.0
    for q in pts:
        pair = cogradients(field, q)
        # np.maximum keeps a NaN, which the builtin max would drop.
        worst = float(np.maximum(worst, np.max(np.abs(pair.jzbar), initial=0.0)))
    return HolomorphyReport(holomorphic=worst <= tol, max_residual=worst, tol=tol, points=len(pts))


def gradient(field: ScalarField, p, metric: MetricTensor | None = None) -> np.ndarray:
    """Steepest-ascent direction of a real field under a metric.

    Solves omega @ g = (df/dz)^H; with the identity metric this is just
    the conjugated derivative row.  The returned direction satisfies the
    defining property that df along v is maximized over unit v at
    v parallel to g.
    """
    pair = cogradients(field, p)
    rhs = np.conj(pair.dz)
    if metric is None:
        return rhs
    omega = metric.omega if isinstance(metric, MetricTensor) else MetricTensor(metric).omega
    if omega.shape[0] != rhs.shape[0]:
        raise DimensionError("metric dimension does not match the field")
    try:
        return np.linalg.solve(omega, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrix("metric is singular") from exc


def stationarity_residual(field: ScalarField, p) -> float:
    """Infinity norm of df/dz; zero at stationary points.

    Because dzbar = conj(dz) for a real field, either row vanishing
    implies the other does.
    """
    pair = cogradients(field, p)
    return float(np.max(np.abs(pair.dz), initial=0.0))


def first_order_predict(field: ScalarField, p, delta_z) -> float:
    """First-order value estimate f(p) + 2 Re{(df/dz) dz}."""
    z = as_complex_vector(p)
    dz = as_complex_vector(delta_z)
    pair = cogradients(field, z)
    return field(z) + 2.0 * float(np.real(pair.dz @ dz))


def differential(pair: JacobianPair, delta_z) -> np.ndarray:
    """First-order change of a vector map: jz @ dz + jzbar @ conj(dz)."""
    dz = as_complex_vector(delta_z)
    return pair.jz @ dz + pair.jzbar @ np.conj(dz)


def conjugate_field(field: VectorField) -> VectorField:
    """The pointwise conjugate map, with derivative blocks exchanged.

    If f has blocks (jz, jzbar) then conj(f) has blocks
    (conj(jzbar), conj(jz)).
    """
    jac = None
    if field.jacobian_fn is not None:
        def jac(z, _inner=field.jacobian_fn):
            pair = _inner(z)
            return JacobianPair(np.conj(pair.jzbar), np.conj(pair.jz))

    return VectorField(
        m=field.m,
        fn=lambda z: np.conj(field(z)),
        jacobian_fn=jac,
        name=f"conj({field.name})",
    )


def compose(outer: VectorField, inner: VectorField) -> VectorField:
    """The composition outer(inner(z)) with chained derivative blocks.

    When both maps carry analytic jacobians the composite gets

        jz    = Jo jz_i + Jo_bar conj(jzbar_i)
        jzbar = Jo jzbar_i + Jo_bar conj(jz_i)

    with Jo, Jo_bar evaluated at inner(z); otherwise the composite falls
    back to differencing.
    """
    jac = None
    if outer.jacobian_fn is not None and inner.jacobian_fn is not None:
        def jac(z):
            gi = cogradients(inner, z)
            go = cogradients(outer, inner(z))
            return JacobianPair(
                go.jz @ gi.jz + go.jzbar @ np.conj(gi.jzbar),
                go.jz @ gi.jzbar + go.jzbar @ np.conj(gi.jz),
            )

    return VectorField(
        m=outer.m,
        fn=lambda z: outer(inner(z)),
        jacobian_fn=jac,
        name=f"{outer.name} after {inner.name}",
    )

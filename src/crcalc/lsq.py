"""Weighted least squares for complex-valued, possibly non-holomorphic models.

The loss is half the weighted squared residual

    loss(z) = (y - g(z))^H W (y - g(z)) / 2

with a Hermitian positive definite weight W, kept by its structure: a
positive real scalar (W = w I), a positive real diagonal, or a dense
Hermitian positive definite m x m matrix.  The loss, its derivative row
and both curvatures touch W only through three products, W e, e^H W e
and G^H W G, so a scalar or diagonal weight costs O(m) and no m x m
array is formed.  Both derivative blocks of the model enter through the
m x 2n compound jacobian G = [jz, jzbar], stacked from
:func:`~crcalc.wirtinger.cogradients` of the model.

Each quantity has one form:

- :func:`loss_pair`, the derivative row as a
  :class:`~crcalc.wirtinger.WirtingerPair`; the gradient is its
  conjugate.
- :func:`gauss_newton_quad`, the Gauss-Newton Hessian: the admissible
  projection of the normal matrix G^H W G, which is itself not
  admissible.
- :func:`newton_quad`, the full Newton Hessian: the Gauss-Newton blocks
  minus the projected derivative of one weighted row, (W e) @ conj(G),
  differenced once with the weight held fixed.  That correction
  vanishes for models linear in (z, conj(z)) and at zero residual.

Both curvatures are :class:`~crcalc.hessian.HessianQuad` top blocks
(A, B): an admissible matrix is [[A, B], [conj(B), conj(A)]], so the
projection needs just the top blocks of the matrix it projects, and
the dense 2n x 2n form is :meth:`~crcalc.hessian.HessianQuad.dense`.

The model is evaluated once per point.  A problem keeps one record, of
the last point it was asked about: a read-only copy of the point, keyed
by its bytes, with e and G each formed on first need.  So the loss, the
derivative row and a curvature at one point cost one model call and one
jacobian between them.  The Newton correction adds its probe jacobians:
2n forward probes with an analytic model jacobian, 4n central probes
with a differenced one.  An Armijo trial forms only e and its loss, and
the row at an accepted trial reuses that e.  The record's arrays and
``y`` are the problem's own and read-only, so no caller's write can
make the record stale; :func:`residual` returns a writable copy of e.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .coords import DimensionError, _hpd_cholesky, as_complex_vector, swap
from .errors import NonFiniteEvaluation
from .hessian import FD_FORWARD_STEP, FD_SECOND_STEP, HessianQuad
from .wirtinger import ScalarField, VectorField, WirtingerPair, _fd_blocks, cogradients


class _Weight:
    """A least-squares weight W for m residuals, stored by its structure.

    ``values`` is a positive real scalar (0-d, W = values I), a positive
    real diagonal (1-d) or a dense Hermitian positive definite matrix
    (2-d); ``w`` of None is the scalar 1.  Each form is validated at the
    cost its structure allows: a scalar or diagonal must be real, finite
    and positive, O(m); a dense matrix must be m x m, finite, Hermitian
    to 1e-10 (relative) and admit a Cholesky factorization.  The three
    products follow the order of the dense ones, so a scalar or diagonal
    gives the same bits as the matrix it stands for: the dense products
    only add exact zeros.
    """

    __slots__ = ("values",)

    def __init__(self, w, m: int):
        values = np.asarray(1.0 if w is None else w)
        if values.ndim == 2:
            values = values.astype(complex, copy=False)
            if values.shape != (m, m):
                raise DimensionError(f"weight has shape {values.shape}, expected square of size {m}")
            _hpd_cholesky(values, "weight")
        else:
            if values.shape not in ((), (m,)):
                raise DimensionError(f"weight has shape {values.shape}, expected (), ({m},) or ({m}, {m})")
            if np.any(np.imag(values) != 0.0):
                raise ValueError("a scalar or diagonal weight must be real")
            values = np.real(values).astype(float)
            if not np.all(np.isfinite(values) & (values > 0.0)):
                raise ValueError("a scalar or diagonal weight must be finite and positive")
        self.values = values

    def apply(self, e: np.ndarray) -> np.ndarray:
        """W e."""
        if self.values.ndim == 2:
            return self.values @ e
        return self.values * e

    def form(self, e: np.ndarray) -> complex:
        """e^H W e, real up to rounding."""
        if self.values.ndim == 2:
            return np.conj(e) @ self.values @ e
        return (np.conj(e) * self.values) @ e

    def congruence(self, g: np.ndarray) -> np.ndarray:
        """G^H W G."""
        gh = g.conj().T
        if self.values.ndim == 2:
            return gh @ self.values @ g
        return (gh * self.values) @ g

    def dense(self, m: int) -> np.ndarray:
        """W as a complex m x m matrix."""
        if self.values.ndim == 2:
            return self.values
        return np.diag(np.broadcast_to(self.values, (m,)).astype(complex))


class LsqProblem:
    """Data, model, and weight of a weighted least-squares fit.

    Parameters
    ----------
    g : VectorField
        Model map from C^n to C^m.
    y : ndarray
        Observations, length m, every entry finite; a NaN or infinite
        observation raises ValueError.  Kept as a read-only copy.
    w : float, ndarray, optional
        Hermitian positive definite weight, in one of three forms, each
        validated once here at the cost its structure allows:

        - a real scalar (0-d), the weight w I: finite and positive;
        - a real vector of length m, the diagonal of W: every entry
          finite and positive;
        - an m x m matrix: every entry finite, the Hermitian residual
          not above 1e-10 (relative), and a Cholesky factorization must
          succeed.

        The scalar 1 (identity) when omitted.  A scalar or diagonal is
        never expanded to m x m by the loss, the derivative row or the
        curvatures.

    Attributes
    ----------
    w : ndarray
        The weight as a dense complex m x m matrix, built on first read
        and cached; the least-squares functions do not read it.
    """

    def __init__(self, g: VectorField, y, w=None):
        if not isinstance(g, VectorField):
            raise TypeError("the model must be a VectorField")
        y = np.atleast_1d(np.array(y, dtype=complex))
        if y.shape != (g.m,):
            raise DimensionError(f"observations have shape {y.shape}, expected ({g.m},)")
        if not np.all(np.isfinite(y)):
            raise ValueError("observations must be finite")
        y.flags.writeable = False
        self.g = g
        self.y = y
        self._weight = _Weight(w, g.m)
        self._last: _Point | None = None

    @property
    def m(self) -> int:
        return self.g.m

    @cached_property
    def w(self) -> np.ndarray:
        return self._weight.dense(self.m)

    def _point(self, p) -> "_Point":
        """The evaluation record of p: the last one while p keeps its bytes, else a new one."""
        z = as_complex_vector(p)
        point = self._last
        if point is None or point.key != z.tobytes():
            point = self._last = _Point(self.g, self.y, z)
        return point


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


class _Point:
    """One point of a fit with its residual e and compound jacobian G, each formed on first read.

    All three arrays are the record's own and read-only.  It is keyed by
    the point's bytes, so -0 and +0 or two NaN payloads are distinct points.
    """

    __slots__ = ("key", "z", "_g", "_y", "_e", "_gmat")

    def __init__(self, g: VectorField, y: np.ndarray, z: np.ndarray):
        self.key = z.tobytes()
        self.z = _read_only(z.copy())
        self._g, self._y = g, y
        self._e = self._gmat = None

    @property
    def e(self) -> np.ndarray:
        """Data misfit y - g(z)."""
        if self._e is None:
            self._e = _read_only(self._y - self._g(self.z))
        return self._e

    @property
    def gmat(self) -> np.ndarray:
        """The m x 2n model jacobian G = [d g / d z, d g / d conj(z)]."""
        if self._gmat is None:
            pair = cogradients(self._g, self.z)
            self._gmat = _read_only(np.concatenate([pair.jz, pair.jzbar], axis=1))
        return self._gmat


def residual(problem: LsqProblem, p) -> np.ndarray:
    """Data misfit e = y - g(z), a fresh writable array."""
    return problem._point(p).e.copy()


def loss(problem: LsqProblem, p) -> float:
    """Half the weighted squared residual; real by Hermitian symmetry of W.

    The form is nonnegative, so where it overflows on a finite residual
    the loss is inf.
    """
    e = problem._point(p).e
    with np.errstate(over="ignore", invalid="ignore"):
        value = 0.5 * float(np.real(problem._weight.form(e)))
    return value if np.isfinite(value) else float("inf")


def loss_pair(problem: LsqProblem, p) -> WirtingerPair:
    """The loss derivative row [d loss / d z, d loss / d conj(z)], split in halves.

    The row is the conjugate of the admissible gradient
    (B + S conj(B)) / 2 with B = -G^H W e, so ``dzbar`` is ``conj(dz)``
    and the gradient stack is ``conj`` of the row.
    """
    point = problem._point(p)
    # A row past the float range comes back non-finite, for cogradients' gate.
    with np.errstate(over="ignore", invalid="ignore"):
        b = -(point.gmat.conj().T @ problem._weight.apply(point.e))
        row = np.conj(0.5 * (b + swap(np.conj(b))))
    n = row.shape[0] // 2
    return WirtingerPair(row[:n], row[n:])


def _projected_blocks(mat: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Top blocks of the admissible projection (M + S conj(M) S) / 2."""
    return 0.5 * (mat[:n, :n] + np.conj(mat[n:, n:])), 0.5 * (mat[:n, n:] + np.conj(mat[n:, :n]))


def _hermitized(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A Hermitized and B symmetrized, so the block invariants hold exactly."""
    return 0.5 * (a + a.conj().T), 0.5 * (b + b.T)


def _gauss_newton_blocks(problem: LsqProblem, point: _Point) -> tuple[np.ndarray, np.ndarray]:
    """Top blocks of the projected normal matrix, Hermitian to rounding."""
    gmat = point.gmat
    return _projected_blocks(problem._weight.congruence(gmat), gmat.shape[1] // 2)


def gauss_newton_quad(problem: LsqProblem, p) -> HessianQuad:
    """Gauss-Newton curvature blocks: the admissible projection of G^H W G.

    The top blocks (U_zz, U_zbz) of the projected normal matrix, formed
    once, with A Hermitized and B symmetrized so the block invariants
    hold exactly; the bottom row of blocks is their conjugate.  The
    dense form is positive semidefinite, positive definite whenever G
    has full column rank, and agrees with the raw normal matrix on
    every admissible variation even though the raw matrix itself is not
    admissible.
    """
    # Blocks past the float range come back non-finite, for the step's gate to report.
    with np.errstate(over="ignore", invalid="ignore"):
        return HessianQuad(*_hermitized(*_gauss_newton_blocks(problem, problem._point(p))))


def newton_quad(problem: LsqProblem, p) -> HessianQuad:
    """Curvature blocks of the loss in conjugate coordinates.

    The second-order term sum_i (W e)_i d conj(G_i) is linear in the
    residual components, so with ``we = W e`` held fixed at the point a
    single weighted row ``we @ conj(G(w))`` is differenced once, and the
    top blocks of its admissible projection are subtracted from the
    Gauss-Newton blocks.  A is then Hermitized and B symmetrized, so the
    block invariants hold exactly.

    With an analytic model jacobian the record's G is exact to rounding,
    so the row at the point itself is formed from it and the row is
    forward-differenced against it: 2n probe jacobians, relative step
    eps**(1/2).  A differenced G carries differencing noise that a
    forward stencil would amplify, so a model without a ``jacobian_fn``
    keeps the central stencil: 4n probe jacobians, relative step
    eps**(1/4).  Both errors are O(1e-8).  An analytic model linear in
    (z, conj(z)) gets exactly zero correction, since each probe row is
    formed by the same operations as the row at the point.

    e and G come from the point's record, shared with :func:`loss` and
    :func:`loss_pair`; each probe jacobian is read through
    :func:`~crcalc.wirtinger.cogradients` and so checked as any other,
    and every weighted row, the one at the point included, must be
    finite.
    """
    point = problem._point(p)
    g, n = problem.g, point.z.shape[0]
    we = problem._weight.apply(point.e)
    buf = np.empty((g.m, 2 * n), dtype=complex)

    def weighted_row(jz: np.ndarray, jzbar: np.ndarray, w: np.ndarray, out: np.ndarray) -> None:
        """we @ conj([jz, jzbar]) into ``out``, both blocks conjugated into the one buffer."""
        np.conjugate(jz, out=buf[:, :n])
        np.conjugate(jzbar, out=buf[:, n:])
        np.matmul(we, buf, out=out)
        if not np.isfinite(out).all():
            raise NonFiniteEvaluation(
                f"weighted conjugate jacobian row returned non-finite values at {w!r}"
            )

    def weighted_rows(stack: np.ndarray) -> np.ndarray:
        """The weighted row at each probe; the first non-finite one raises before the next is evaluated."""
        rows = np.empty((stack.shape[0], 2 * n), dtype=complex)
        for w, row in zip(stack, rows):
            pair = cogradients(g, w)
            weighted_row(pair.jz, pair.jzbar, w, row)
        return rows

    with np.errstate(over="ignore", invalid="ignore"):
        if g.jacobian_fn is None:
            jz, jzbar = _fd_blocks(weighted_rows, point.z, FD_SECOND_STEP, 2 * n)
        else:
            centre = np.empty(2 * n, dtype=complex)
            weighted_row(point.gmat[:, :n], point.gmat[:, n:], point.z, centre)
            jz, jzbar = _fd_blocks(weighted_rows, point.z, FD_FORWARD_STEP, 2 * n, centre)
        gauss_a, gauss_b = _gauss_newton_blocks(problem, point)
        corr_a, corr_b = _projected_blocks(np.concatenate([jz, jzbar], axis=1), n)
        return HessianQuad(*_hermitized(gauss_a - corr_a, gauss_b - corr_b))


def loss_field(problem: LsqProblem, name: str | None = None) -> ScalarField:
    """Wrap the weighted least-squares loss as a scalar field.

    The field carries the analytic derivative row and the Newton
    curvature blocks, so the generic first- and second-order machinery
    applies to it unchanged.
    """
    return ScalarField(
        fn=lambda z: loss(problem, z),
        cogradient_fn=lambda z: loss_pair(problem, z),
        hessian_fn=lambda z: newton_quad(problem, z),
        name=name or "least-squares loss",
    )

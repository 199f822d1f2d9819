"""Second-order structure of real-valued fields of a complex vector.

The curvature of a real field splits into four n x n blocks, the
derivatives of the conjugated first-derivative rows with respect to z
and conj(z).  Writing A = Hzz, B = Hzbz, C = Hzzb, D = Hzbzb:

    A is Hermitian, B is symmetric, C = conj(B), D = conj(A).

So the top pair (A, B) is the whole curvature: :class:`HessianQuad`
stores only that pair and reads C and D off it.  Three equivalent
2n x 2n assemblies are used downstream: the Hermitian form
[[A, B], [C, D]] in conjugate coordinates, its row-swapped symmetric
sibling, and the real-coordinate Hessian, related by the congruence
with the coordinate-change matrix.  All three encode the same
quadratic form, so second-order predictions agree across them to
rounding.  A source whose top blocks are diagonal may give them as two
length-n diagonals; that storage is kept, never inferred from zeros, and
its real-coordinate Hessian is the n real 2 x 2 blocks of a direct sum.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .coords import DimensionError, as_complex_vector, swap_rows
from .errors import NonFiniteEvaluation, RelationViolation, SymmetryViolation
from .wirtinger import ScalarField, VectorField, cogradients, cogradients_fd

#: Relative step for differencing first-derivative rows a second time.
FD_SECOND_STEP = float(np.finfo(float).eps) ** 0.25

#: Relative step for forward-differencing a row whose centre value is exact to rounding.
FD_FORWARD_STEP = float(np.finfo(float).eps) ** 0.5

#: Pre-symmetrization residual allowance for blocks differenced from a row.
SYM_TOL_FD = 1e-4

#: Pre-symmetrization residual allowance for analytic blocks.
SYM_TOL_ANALYTIC = 1e-8

_INVARIANT_TOL = 1e-8


def _residual(*terms: np.ndarray) -> float:
    """Largest |entry| over ``terms``: np.maximum keeps a NaN, the builtin max may drop it."""
    return float(reduce(np.maximum, [np.max(np.abs(term)) for term in terms]))


def _invariant_residual(a: np.ndarray, b: np.ndarray) -> float:
    """Worst entry of A - A^H and B - B^T, for n x n blocks or length-n diagonals."""
    return _residual(a - a.conj().T, b - b.T)


def _tol_scale(a: np.ndarray, b: np.ndarray) -> float:
    """max(1, max|A|, max|B|), the scale of every curvature tolerance."""
    return max(1.0, float(np.max(np.abs(a), initial=0.0)), float(np.max(np.abs(b), initial=0.0)))


class HessianQuad:
    """The curvature of a real field, carried as its two top blocks.

    Attributes
    ----------
    hzz, hzbz : ndarray
        Blocks A = d/dz (df/dz)^H and B = d/dconj (df/dz)^H, both n x n
        or both length-n diagonals (a scalar is one); see :meth:`blocks`.
    hzzb, hzbzb : ndarray
        The bottom blocks d/dz (df/dconj)^H = conj(B) and
        d/dconj (df/dconj)^H = conj(A), read off the top pair.
    presym_residual : float
        Infinity-norm distance between the raw blocks and the
        symmetrized ones, recorded by :func:`hessian_quad`.  Keyword
        only.
    """

    __slots__ = ("hzz", "hzbz", "presym_residual")

    def __init__(self, hzz, hzbz, *, presym_residual: float = 0.0):
        hzz = np.atleast_1d(np.asarray(hzz, dtype=complex))
        hzbz = np.atleast_1d(np.asarray(hzbz, dtype=complex))
        if hzz.ndim > 2 or hzz.shape != hzz.shape[:1] * hzz.ndim or hzbz.shape != hzz.shape:
            raise DimensionError("curvature blocks must share an n x n or length-n shape")
        self.hzz = hzz
        self.hzbz = hzbz
        self.presym_residual = presym_residual

    @property
    def n(self) -> int:
        return self.hzz.shape[0]

    @property
    def hzzb(self) -> np.ndarray:
        return np.conj(self.hzbz)

    @property
    def hzbzb(self) -> np.ndarray:
        return np.conj(self.hzz)

    def blocks(self) -> tuple[np.ndarray, np.ndarray]:
        """The top pair (A, B) as n x n matrices, whichever storage holds it."""
        if self.hzz.ndim == 1:
            return np.diag(self.hzz), np.diag(self.hzbz)
        return self.hzz, self.hzbz

    def dense(self) -> np.ndarray:
        """The Hermitian 2n x 2n form [[A, B], [conj(B), conj(A)]]."""
        a, b = self.blocks()
        return np.block([[a, b], [np.conj(b), np.conj(a)]])

    def invariant_residual(self) -> float:
        """Worst violation of A Hermitian and B symmetric, infinity norm."""
        return _invariant_residual(self.hzz, self.hzbz)

    def check_invariants(self) -> None:
        """Raise :class:`RelationViolation` if the block constraints fail.

        The allowance is 1e-8 relative to the larger of the top blocks.
        Non-finite blocks satisfy no constraint and raise
        :class:`NonFiniteEvaluation` instead.
        """
        with np.errstate(invalid="ignore", over="ignore"):
            resid = self.invariant_residual()
        if not np.isfinite(resid):
            raise NonFiniteEvaluation("curvature blocks are not finite")
        if resid > _INVARIANT_TOL * _tol_scale(self.hzz, self.hzbz):
            raise RelationViolation(
                f"curvature blocks violate their invariants, residual {resid:.3e}"
            )


@dataclass(frozen=True, eq=False)
class AssembledHessians:
    """Dense 2n x 2n curvature matrices in the three representations.

    ``hc_complex`` is Hermitian, ``hc_real`` (its row-swapped form) is
    complex symmetric, and ``hrr`` is the real symmetric Hessian in
    stacked real coordinates.  Eigenvalues of ``hrr`` are exactly twice
    those of ``hc_complex``; the two share singular values with
    ``hc_real``.
    """

    hc_complex: np.ndarray
    hc_real: np.ndarray
    hrr: np.ndarray

    @property
    def n(self) -> int:
        return self.hc_complex.shape[0] // 2


def _finish_quad(a: np.ndarray, b: np.ndarray, tol: float, context: str) -> HessianQuad:
    """Symmetrize a raw top pair (A, B), complex arrays in either storage, into a curvature.

    The pair is A - (A - A^H) / 2 and B - (B - B^T) / 2.  An exactly
    Hermitian A and symmetric B come back bit for bit, with
    ``presym_residual`` 0.0, and no block is summed with its own copy,
    so finite entries up to the float range stay finite.
    """
    with np.errstate(invalid="ignore", over="ignore"):
        hzz = a - 0.5 * (a - a.conj().T)
        hzbz = b - 0.5 * (b - b.T)
        resid = _residual(a - hzz, b - hzbz)
    # A NaN or infinite entry in either raw block makes the residual
    # non-finite, and a NaN residual would pass the tolerance test.
    if not np.isfinite(resid):
        raise NonFiniteEvaluation(f"{context}: curvature blocks are not finite")
    scale = _tol_scale(hzz, hzbz)
    if resid > tol * scale:
        raise SymmetryViolation(
            f"{context}: raw curvature blocks violate symmetry, "
            f"residual {resid:.3e} exceeds {tol * scale:.3e}"
        )
    return HessianQuad(hzz, hzbz, presym_residual=resid)


def _values_only_hessian(field: ScalarField, z: np.ndarray) -> np.ndarray:
    """Real Hessian in r = (Re z, Im z) from the field's values alone.

    With h_i = eps**(1/4) max(1, |r_i|), the diagonal is the 3-point
    stencil (f(+i) - 2 f(r) + f(-i)) / h_i^2 and entry (i, j) off it the
    seven-point stencil

        (f(++) - f(+i) - f(+j) + 2 f(r) - f(-i) - f(-j) + f(--)) / (2 h_i h_j),

    which reuses the diagonal probes: 4n^2 + 2n + 1 probes for n complex
    coordinates.  The field takes them in 2n chunks, one per real
    coordinate i in order: +i, -i, then ++ and -- for each j > i; the
    centre closes the last chunk.  No chunk has more than 4n rows.  The
    upper triangle is mirrored, so the result is symmetric bit for bit.
    """
    n = z.shape[0]
    dim = 2 * n
    r = np.concatenate([z.real, z.imag])
    # fmax, like the builtin max, keeps the base step for a NaN coordinate.
    h = FD_SECOND_STEP * np.fmax(1.0, np.abs(r))
    up, down = r + h, r - h
    f_up, f_down = np.empty(dim), np.empty(dim)
    pair_sums = np.zeros((dim, dim))
    for i in range(dim):
        later = np.arange(i + 1, dim)
        k = 2 * later.size + 2
        rows = np.tile(r, (k + (i == dim - 1), 1))
        rows[:k:2, i] = up[i]
        rows[1:k:2, i] = down[i]
        rows[2 * (later - i), later] = up[later]
        rows[2 * (later - i) + 1, later] = down[later]
        points = np.empty((rows.shape[0], n), dtype=complex)
        points.real, points.imag = rows[:, :n], rows[:, n:]
        values = field._evaluate_stack(points)
        f_up[i], f_down[i] = values[0], values[1]
        pair_sums[i, later] = values[2:k:2] + values[3:k:2]
    centre = values[-1]
    bend = f_up + f_down - 2.0 * centre
    mixed = np.triu((pair_sums - 2.0 * centre - bend[:, None] - bend) / (2.0 * np.outer(h, h)), 1)
    return mixed + mixed.T + np.diag(bend / h**2)


def hessian_quad(field: ScalarField, p) -> HessianQuad:
    """Curvature blocks of a real field at a point, by one of three paths.

    - A field with a ``hessian_fn`` gives its blocks as a
      :class:`HessianQuad` in either storage, symmetrized with the 1e-8
      relative allowance.  No field calls.
    - A field with a ``cogradient_fn`` but no ``hessian_fn`` has its
      conjugated row (df/dz)^H differenced once more with a relative
      step of eps**(1/4): 4n row calls.  A real field has
      df/dconj = conj(df/dz), so C = conj(B) and D = conj(A) need no
      second differencing.  The two differencing orders disagree by
      O(h^2), and the blocks are symmetrized with the 1e-4 allowance.
      The stencil stays central: a field cannot say whether its row is
      analytic or itself differenced, and a forward stencil amplifies
      the noise of a differenced row past that allowance.
    - A field with values only has its real Hessian H in r = (x, y)
      differenced from 4n^2 + 2n + 1 field calls (3-point stencil on the
      diagonal, seven-point mixed stencil off it, same step).  H is
      symmetric by construction, so ``presym_residual`` is 0.0 and no
      symmetry gate applies; the top pair is read off H by the
      congruence that :func:`complex_from_real` inverts.  The probes go
      to the field in 2n chunks of at most 4n points, so a batched field
      gets 2n calls.

    Raises
    ------
    SymmetryViolation
        If the raw blocks of the first two paths sit farther from the
        symmetrized ones than the allowance, which signals inconsistent
        analytic derivatives or a rough field.
    NonFiniteEvaluation
        If a probe's value or a raw block holds NaN or infinity.
    DimensionError
        If ``hessian_fn`` returns anything but a :class:`HessianQuad`,
        or its blocks are not n x n or length n at a point of length n.
    """
    z = as_complex_vector(p)
    n = z.shape[0]
    if field.hessian_fn is not None:
        quad = field.hessian_fn(z)
        if not isinstance(quad, HessianQuad):
            raise DimensionError(
                f"{field.name}: hessian_fn must return a HessianQuad, got {type(quad).__name__}"
            )
        if quad.n != n:
            raise DimensionError(f"{field.name}: curvature blocks must be {n} x {n} or length {n}")
        return _finish_quad(quad.hzz, quad.hzbz, SYM_TOL_ANALYTIC, field.name)

    if field.cogradient_fn is None:
        # Overflow and inf - inf make non-finite blocks, which _finish_quad rejects.
        with np.errstate(over="ignore", invalid="ignore"):
            hzz, hzbz = _top_pair(_values_only_hessian(field, z))
        # The pair is exactly Hermitian and symmetric: a zero allowance holds.
        return _finish_quad(hzz, hzbz, 0.0, field.name)

    dz_conj = VectorField(n, lambda w: np.conj(cogradients(field, w).dz), name=f"d({field.name})/dz^H")
    ju = cogradients_fd(dz_conj, z, step=FD_SECOND_STEP)
    return _finish_quad(ju.jz, ju.jzbar, SYM_TOL_FD, field.name)


def _add_to_diagonal(a: np.ndarray, shift: float) -> np.ndarray:
    """A + shift I, in the storage of A."""
    return a + shift * (np.eye(a.shape[0]) if a.ndim == 2 else 1.0)


def real_hessian(hzz: np.ndarray, hzbz: np.ndarray) -> np.ndarray:
    """Real-coordinate Hessian of an admissible curvature matrix.

    For M = [[A, B], [conj(B), conj(A)]] the congruence J^H M J with the
    coordinate-change matrix is

        2 [[Re(A + B), -Im(A - B)], [Im(A + B), Re(A - B)]],

    built here from the top blocks A = ``hzz`` and B = ``hzbz`` alone.
    It is symmetric when A is Hermitian and B symmetric, and its
    eigenvalues are twice those of M, so the two share their condition
    number and their definiteness.

    Given length-n diagonals, it returns the (n, 2, 2) stack of the
    direct sum's blocks, the entries at rows and columns k and n + k,
    which numpy's linalg functions factor block by block.
    """
    total = hzz + hzbz
    diff = hzz - hzbz
    n = total.shape[0]
    if total.ndim == 1:
        form = np.empty((n, 2, 2))
        form[:, 0, 0], form[:, 0, 1] = total.real, -diff.imag
        form[:, 1, 0], form[:, 1, 1] = total.imag, diff.real
    else:
        form = np.empty((2 * n, 2 * n))
        form[:n, :n], form[:n, n:] = total.real, -diff.imag
        form[n:, :n], form[n:, n:] = total.imag, diff.real
    form *= 2.0
    return form


def _solve_real(form: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve a form from :func:`real_hessian` against rhs = [x; y]."""
    if form.ndim == 2:
        return np.linalg.solve(form, rhs)
    n = form.shape[0]
    # Component k's block acts on (x_k, y_k); a column vector per block.
    pairs = np.linalg.solve(form, rhs.reshape(2, n).T[..., np.newaxis])
    return pairs[..., 0].T.ravel()


def assemble(quad: HessianQuad) -> AssembledHessians:
    """Build the three 2n x 2n representations from curvature blocks.

    The Hermitian form is :meth:`HessianQuad.dense` and the
    real-coordinate Hessian is :func:`real_hessian` of the n x n top
    blocks, real by construction.

    Raises
    ------
    RelationViolation
        If the blocks violate their invariants.
    NonFiniteEvaluation
        If a block holds NaN or infinity.
    """
    quad.check_invariants()
    hc = quad.dense()
    return AssembledHessians(hc_complex=hc, hc_real=swap_rows(hc), hrr=real_hessian(*quad.blocks()))


def _top_pair(hrr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The top pair (A, B) of a real symmetric 2n x 2n Hessian.

    A = (Hxx + Hyy)/4 + i(Hyx - Hxy)/4 and B = (Hxx - Hyy)/4 + i(Hyx + Hxy)/4;
    an exactly symmetric H gives an exactly Hermitian A and symmetric B.
    """
    n = hrr.shape[0] // 2
    p = hrr[:n, :n]
    q = hrr[:n, n:]
    qt = hrr[n:, :n]
    r = hrr[n:, n:]
    return 0.25 * (p + r + 1j * (qt - q)), 0.25 * (p - r + 1j * (qt + q))


def complex_from_real(hrr: np.ndarray) -> np.ndarray:
    """Recover the Hermitian conjugate-coordinate form from a real Hessian.

    Applies the inverse congruence (a quarter of the sandwich with the
    coordinate-change matrix) for the top blocks and assembles them with
    :meth:`HessianQuad.dense`.  The input must be real symmetric of even
    dimension.
    """
    hrr = np.asarray(hrr, dtype=float)
    if hrr.ndim != 2 or hrr.shape[0] != hrr.shape[1] or hrr.shape[0] % 2:
        raise DimensionError(f"expected an even square matrix, got shape {hrr.shape}")
    return HessianQuad(*_top_pair(hrr)).dense()


_REPRESENTATIONS = ("z", "c-complex", "c-real", "r")


def second_order_predict(field: ScalarField, p, delta_z, representation: str = "z") -> float:
    """Second-order value estimate of a real field after a step.

    The four representations carry the same expansion:

    - ``"z"``: value + 2 Re{(df/dz) dz} + Re{dz^H A dz + dz^H B conj(dz)}
    - ``"c-complex"``: Hermitian quadratic form in (dz, conj(dz))
    - ``"c-real"``: transposed form against the row-swapped matrix
    - ``"r"``: real quadratic form in (Re dz, Im dz)

    Results agree to rounding, which is exercised by the test suite.
    """
    if representation not in _REPRESENTATIONS:
        raise ValueError(f"representation must be one of {_REPRESENTATIONS}")
    z = as_complex_vector(p)
    dz = as_complex_vector(delta_z)
    if dz.shape != z.shape:
        raise DimensionError("step dimension does not match the point")
    value = field(z)
    pair = cogradients(field, z)
    quad = hessian_quad(field, z)

    if representation == "z":
        a, b = quad.blocks()
        lin = 2.0 * float(np.real(pair.dz @ dz))
        second = float(np.real(np.conj(dz) @ a @ dz + np.conj(dz) @ b @ np.conj(dz)))
        return value + lin + second

    assembled = assemble(quad)
    dc = np.concatenate([dz, np.conj(dz)])
    row_c = np.concatenate([pair.dz, pair.dzbar])
    lin = float(np.real(row_c @ dc))
    if representation == "c-complex":
        second = 0.5 * float(np.real(np.conj(dc) @ assembled.hc_complex @ dc))
        return value + lin + second
    if representation == "c-real":
        second = 0.5 * float(np.real(dc @ assembled.hc_real @ dc))
        return value + lin + second
    dr = np.concatenate([dz.real, dz.imag])
    row_r = np.concatenate([pair.dz + pair.dzbar, 1j * (pair.dz - pair.dzbar)])
    lin_r = float(np.real(row_r @ dr))
    second = 0.5 * float(dr @ assembled.hrr @ dr)
    return value + lin_r + second

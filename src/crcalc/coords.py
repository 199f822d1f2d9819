"""Coordinate systems for complex-valued optimization.

A point can be carried in three equivalent ways: as a complex vector
``z`` of length n, as the stacked real coordinates ``r = (x, y)`` of
length 2n, or as the conjugate-coordinate vector ``c = (z, conj(z))``
of length 2n.  The conjugate representation is the one the calculus in
the rest of the package is written against: vectors and matrices living
there must respect a pairing constraint (the bottom half mirrors the
top half under conjugation), and this module owns the predicates,
projections, and dense structure matrices that express it.
"""

from __future__ import annotations

import cmath
import functools
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, InadmissibleVector, SingularMatrix

#: Default absolute tolerance (infinity norm) for admissibility checks.
ADMISSIBLE_TOL = 1e-9

_COND_LIMIT = 1.0 / np.finfo(float).eps

_HERMITIAN_TOL = 1e-10

_DTYPES = (np.dtype(complex), np.dtype(float))

_KINDS = {
    "integer": ((int, np.integer), "an integer"),
    "real": ((int, float, np.integer, np.floating), "a finite real number"),
    "complex": ((int, float, complex, np.number), "a finite complex number"),
}


def as_complex_vector(value, name: str = "point") -> np.ndarray:
    """Coerce a point-like value to a 1-D complex128 array by the array rule of :func:`_array`.

    A non-empty 1-D complex128 ndarray comes back as the very same
    object, anything else as a fresh copy.  Callers must not write into
    the result.
    """
    if type(value) is np.ndarray and value.ndim == 1 and value.dtype == np.complex128 and value.size:
        return value
    return _array(value, name)


def _array(value, name: str, real: bool = False, shape=("n",), finite: bool = False) -> np.ndarray:
    """``value`` as a complex128 array, or with ``real`` a float64 one, of the ``shape`` given.

    ``shape`` gives each axis length, an int or a letter that stands for
    one length wherever it appears; a tuple of shapes allows each.  numpy
    must read ``value`` as integers, reals or, unless ``real``, complex
    numbers, with one entry or more: a scalar is a vector of length 1
    where a vector and no scalar is allowed, and a :class:`ComplexPoint`
    gives its z.  Any other value raises ValueError naming ``name``, as
    with ``finite`` does a NaN or infinite entry; a wrong shape,
    DimensionError.  An ndarray of that dtype and shape comes back as the
    very same object, anything else as a fresh array: a value type copies it.
    """
    arr = value
    if not (type(arr) is np.ndarray and arr.dtype == _DTYPES[real] and arr.size and _fits(arr.shape, shape)):
        shapes = shape if shape and type(shape[0]) is tuple else (shape,)
        vector = len(shapes) == 1 and len(shapes[0]) == 1
        if isinstance(value, ComplexPoint):
            value = value.z
        try:
            arr = np.asarray(value)
        except ValueError:  # a ragged nesting
            arr = None
        if arr is None or arr.dtype.kind not in ("iuf" if real else "iufc"):
            # Named by its dtype, or a scalar by its type: never by its entries.
            got = arr.dtype if isinstance(value, np.ndarray) or (arr is not None and arr.ndim) else type(value).__name__
            what = "a vector" if vector else "an array"
            raise ValueError(f"{name} must be {what} of {'real' if real else 'complex'} numbers, got {got}")
        if not arr.ndim and () not in shapes and any(len(s) == 1 for s in shapes):
            arr = np.atleast_1d(arr)
        if not (arr.size and _fits(arr.shape, shape)):
            if vector and arr.ndim == 1 and arr.size:
                raise DimensionError(f"{name} has length {arr.shape[0]}, expected {shapes[0][0]}")
            expected = " or ".join("(" + ", ".join(map(str, s)) + "," * (len(s) == 1) + ")" for s in shapes)
            what = "vector" if vector else f"array of shape {expected}"
            raise DimensionError(f"{name} must be a non-empty {what}, got shape {arr.shape}")
        arr = arr.astype(_DTYPES[real])
    if finite and not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    return arr


@functools.lru_cache(maxsize=256)
def _fits(shape: tuple, spec: tuple) -> bool:
    """Whether ``shape`` is the shape ``spec`` of :func:`_array`; cached, as the per-iteration types meet few shapes."""
    shapes = spec if spec and type(spec[0]) is tuple else (spec,)
    return any(tuple(dict(zip(s, shape)).get(a) if isinstance(a, str) else a for a in s) == shape for s in shapes)


def _number(value, name: str, kind: str = "integer", sign: str = "", size: bool = False):
    """``value`` if it is a count, or by ``kind`` a finite real or complex, of its ``sign``; a ``size`` fits np.intp."""
    types, what = _KINDS[kind]
    try:
        number = not isinstance(value, bool) and isinstance(value, types)
        number = number and (kind == "integer" or cmath.isfinite(value))
    except OverflowError:  # an integer too large for a float
        number = False
    if not number:
        raise ValueError(f"{name} must be {what}, got {value!r}")
    if sign and not (value > 0 if sign == "positive" else value >= 0):
        raise ValueError(f"{name} must be {sign}")
    if size and value > np.iinfo(np.intp).max:
        raise ValueError(f"{name} must be at most {np.iinfo(np.intp).max}")
    return value


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def _even_square(m: np.ndarray) -> np.ndarray:
    """``m`` if it is a non-empty square matrix of even size; DimensionError otherwise."""
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] % 2 or not m.size:
        raise DimensionError(f"expected a non-empty even square matrix, got shape {m.shape}")
    return m


def _hpd_cholesky(m: np.ndarray, what: str) -> np.ndarray:
    """Lower Cholesky factor of a Hermitian positive definite matrix.

    Every entry must be finite, and the Hermitian residual must not
    exceed 1e-10 relative to the largest entry (at least 1); ``what``
    names the matrix in the ValueError raised otherwise, or when the
    factorization fails.
    """
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{what} must be finite")
    scale = max(1.0, float(np.max(np.abs(m), initial=0.0)))
    if float(np.max(np.abs(m - m.conj().T))) > _HERMITIAN_TOL * scale:
        raise ValueError(f"{what} must be Hermitian")
    try:
        return np.linalg.cholesky(m)
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"{what} must be positive definite") from exc


def _halves(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    if v.shape[0] % 2:
        raise DimensionError(f"length {v.shape[0]} is not even")
    n = v.shape[0] // 2
    return v[:n], v[n:]


class ComplexPoint:
    """A point z in C^n, kept as a read-only copy."""

    __slots__ = ("z",)

    def __init__(self, z):
        self.z = _read_only(_array(z, "z", finite=True).copy())

    @property
    def n(self) -> int:
        return self.z.shape[0]


class RealCoordinates:
    """Stacked real coordinates r = (x, y) in R^2n, kept as a read-only copy."""

    __slots__ = ("r",)

    def __init__(self, r):
        r = _array(r, "r", real=True, finite=True)
        if r.shape[0] % 2:
            raise DimensionError(f"expected an even-length real vector, got shape {r.shape}")
        self.r = _read_only(r.copy())

    @property
    def n(self) -> int:
        return self.r.shape[0] // 2


class ConjugateCoordinates:
    """Conjugate coordinates c = (z, conj(z)), validated at construction and kept read-only."""

    __slots__ = ("c", "tol")

    def __init__(self, c, tol: float = ADMISSIBLE_TOL):
        c = _array(c, "c", finite=True)
        if c.shape[0] % 2:
            raise DimensionError(f"expected an even-length vector, got shape {c.shape}")
        resid = vector_residual(c)
        if not resid <= _number(tol, "tol", kind="real", sign="nonnegative"):
            raise InadmissibleVector(
                f"conjugate pairing violated: residual {resid:.3e} exceeds tol {tol:.3e}"
            )
        self.c = _read_only(c.copy())
        self.tol = tol

    @property
    def n(self) -> int:
        return self.c.shape[0] // 2


class StructureMatrices:
    """Dense 2n x 2n structure matrices for tests and diagnostics.

    Attributes
    ----------
    n : int
        Complex dimension.
    J : ndarray
        Maps stacked real coordinates to conjugate coordinates, c = J r.
        Satisfies inv(J) = J^H / 2.
    S : ndarray
        Block swap.  Symmetric, involutory, det S = (-1)^n.
    C : ndarray
        Block signature diag(I, -I).  Equals J^H S J / 2.

    Hot paths never materialize these; they apply the corresponding
    block operations directly.  Dense forms exist so identities can be
    checked by plain matrix arithmetic.
    """

    def __init__(self, n: int):
        if _number(n, "n", size=True) < 1:
            raise DimensionError("dimension must be positive")
        eye = np.eye(n)
        zero = np.zeros((n, n))
        self.n = n
        self.J = np.block([[eye, 1j * eye], [eye, -1j * eye]])
        self.S = np.block([[zero, eye], [eye, zero]])
        self.C = np.block([[eye, zero], [zero, -eye]])


def swap(x: np.ndarray) -> np.ndarray:
    """Exchange the two n-blocks of a vector, or all four blocks of a matrix.

    For a vector this is S @ x; for a matrix it is S @ X @ S, applied
    blockwise without forming S.  Involutory in both cases.
    """
    x = np.asarray(x)
    if x.ndim == 1:
        top, bottom = _halves(x)
        return np.concatenate([bottom, top])
    if x.ndim == 2:
        n = _even_square(x).shape[0] // 2
        out = np.empty_like(x)
        out[:n, :n] = x[n:, n:]
        out[n:, n:] = x[:n, :n]
        out[:n, n:] = x[n:, :n]
        out[n:, :n] = x[:n, n:]
        return out
    raise DimensionError(f"expected a vector or matrix, got ndim {x.ndim}")


def swap_rows(m: np.ndarray) -> np.ndarray:
    """Premultiply by the block swap: exchange the top and bottom row blocks."""
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] % 2:
        raise DimensionError(f"expected a matrix with an even row count, got shape {m.shape}")
    n = m.shape[0] // 2
    return np.vstack([m[n:], m[:n]])


def vector_residual(b: np.ndarray) -> float:
    """Infinity-norm distance of b from the admissible set conj(b) = S b."""
    b = _array(b, "b")
    return float(np.max(np.abs(np.conj(b) - swap(b))))


def matrix_residual(m: np.ndarray) -> float:
    """Infinity-norm distance of M from the admissible set M = S conj(M) S."""
    m = _even_square(_array(m, "m", shape=("rows", "cols")))
    return float(np.max(np.abs(m - swap(np.conj(m)))))


def is_admissible_vector(b, tol: float = ADMISSIBLE_TOL) -> bool:
    """Whether b satisfies the pairing constraint conj(b) = S b within tol."""
    return vector_residual(b) <= _number(tol, "tol", kind="real", sign="nonnegative")


def is_admissible_matrix(m, tol: float = ADMISSIBLE_TOL) -> bool:
    """Whether M satisfies the block pairing M = S conj(M) S within tol."""
    return matrix_residual(m) <= _number(tol, "tol", kind="real", sign="nonnegative")


def project_admissible(m) -> np.ndarray:
    """Project a square even-dimension matrix onto the admissible set.

    Computes (M + S conj(M) S) / 2.  Idempotent; leaves admissible
    matrices fixed.  The result is Hermitian whenever M is.
    """
    m = _even_square(_array(m, "m", shape=("rows", "cols")))
    return 0.5 * (m + swap(np.conj(m)))


def to_real(p) -> RealCoordinates:
    """Stack real and imaginary parts: z -> r = (Re z, Im z)."""
    z = as_complex_vector(p, "p")
    return RealCoordinates(np.concatenate([z.real, z.imag]))


def to_conjugate(p) -> ConjugateCoordinates:
    """Pair a complex point with its conjugate: z -> c = (z, conj(z))."""
    z = as_complex_vector(p, "p")
    return ConjugateCoordinates(np.concatenate([z, np.conj(z)]))


def from_conjugate(c, tol: float = ADMISSIBLE_TOL) -> ComplexPoint:
    """Map conjugate coordinates back to the complex point.

    Applies r = J^H c / 2 blockwise and reads off z = x + iy, which
    symmetrizes away any residual within ``tol``.  Raises
    :class:`InadmissibleVector` if the pairing constraint fails.
    """
    cv = ConjugateCoordinates(c.c if isinstance(c, ConjugateCoordinates) else c, tol).c
    top, bottom = _halves(cv)
    x = 0.5 * (top + bottom)
    y = 0.5j * (bottom - top)
    return ComplexPoint(x.real + 1j * y.real)


class MetricTensor:
    """Hermitian positive definite inner-product matrix on C^n, n >= 1.

    Every entry must be finite and the matrix Hermitian to 1e-10
    (relative); definiteness is established once at construction by
    attempting a Cholesky factorization.  A matrix that fails any of
    these raises ValueError.  ``omega`` is kept as a read-only copy.
    """

    __slots__ = ("omega",)

    def __init__(self, omega):
        om = _array(omega, "omega", shape=("n", "n")).copy()
        _hpd_cholesky(om, "metric")
        self.omega = _read_only(om)

    @classmethod
    def identity(cls, n: int) -> "MetricTensor":
        return cls(np.eye(_number(n, "n", sign="positive", size=True)))

    @property
    def n(self) -> int:
        return self.omega.shape[0]


@dataclass(frozen=True, eq=False)
class TransformReport:
    """Residuals from checking how quantities move under z -> A z.

    All residuals are rounding-level for any invertible A; they certify
    that the three transformation laws (tangent vectors push forward by
    A, derivative rows pull back by inv(A), the metric transforms by
    congruence with inv(A)) cohere with each other.
    """

    omega_xi: np.ndarray
    differential_residual: float
    inner_product_residual: float
    gradient_residual: float

    @property
    def max_residual(self) -> float:
        return max(
            self.differential_residual,
            self.inner_product_residual,
            self.gradient_residual,
        )


def verify_transform_laws(a_matrix, p, metric: MetricTensor | None = None, seed: int = 0) -> TransformReport:
    """Check the change-of-coordinates laws for the linear map xi = A z.

    Parameters
    ----------
    a_matrix : ndarray
        Invertible n x n matrix defining the new coordinates.
    p : ComplexPoint or array-like
        Base point; fixes the dimension and seeds nothing else, the laws
        are pointwise exact for a linear map.
    metric : MetricTensor, optional
        Inner-product matrix in the original coordinates (identity when
        omitted).
    seed : int
        Seed for the deterministic probe vectors and rows.

    Returns
    -------
    TransformReport
        Transformed metric and the residuals of three checks: the
        differential row applied to a pushed-forward vector is
        invariant, probe inner products are preserved by the
        transformed metric, and steepest-ascent directions push forward
        like tangent vectors.

    Raises
    ------
    SingularMatrix
        If A is singular or too ill-conditioned to invert reliably.
    """
    z = as_complex_vector(p, "p")
    n = z.shape[0]
    a = _array(a_matrix, "a_matrix", shape=(n, n))
    omega = np.eye(n) if metric is None else metric.omega
    if omega.shape != (n, n):
        raise DimensionError("metric dimension does not match the point")

    try:
        a_inv = np.linalg.inv(a)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrix("coordinate change matrix is singular") from exc
    if np.linalg.cond(a) > _COND_LIMIT:
        raise SingularMatrix("coordinate change matrix is numerically singular")

    omega_xi = a_inv.conj().T @ omega @ a_inv

    rng = np.random.default_rng(_number(seed, "seed", sign="nonnegative"))
    probes = rng.standard_normal((4, n)) + 1j * rng.standard_normal((4, n))
    rows = rng.standard_normal((4, n)) + 1j * rng.standard_normal((4, n))

    diff_resid = 0.0
    grad_resid = 0.0
    for gamma in rows:
        for v in probes:
            # Row in new coordinates is gamma @ inv(A); applied to w = A v.
            diff_resid = max(diff_resid, abs(gamma @ v - (gamma @ a_inv) @ (a @ v)))
        grad_old = np.linalg.solve(omega, np.conj(gamma))
        grad_new = np.linalg.solve(omega_xi, np.conj(gamma @ a_inv))
        grad_resid = max(grad_resid, float(np.max(np.abs(grad_new - a @ grad_old))))

    inner_resid = 0.0
    for v1 in probes:
        for v2 in probes:
            before = np.conj(v1) @ omega @ v2
            after = np.conj(a @ v1) @ omega_xi @ (a @ v2)
            inner_resid = max(inner_resid, abs(after - before))

    return TransformReport(
        omega_xi=omega_xi,
        differential_residual=float(diff_resid),
        inner_product_residual=float(inner_resid),
        gradient_residual=float(grad_resid),
    )

"""Exception types shared across the toolkit."""

from __future__ import annotations


class CrcalcError(Exception):
    """Base class for every error raised by this package."""


class DimensionError(CrcalcError, ValueError):
    """An array has the wrong shape, length, or parity for the operation."""


class InadmissibleVector(CrcalcError, ValueError):
    """A conjugate-coordinate vector fails the pairing constraint."""


class InadmissibleQ(CrcalcError, ValueError):
    """A descent scaling's top blocks (A, B) are not A Hermitian, B symmetric."""


class SingularMatrix(CrcalcError):
    """A matrix that must be inverted or factored is singular."""


class SingularQ(SingularMatrix):
    """The descent scaling matrix cannot be solved against."""


class NonFiniteEvaluation(CrcalcError, ArithmeticError):
    """A field evaluation produced NaN or infinity."""


class ConjugationMismatch(CrcalcError):
    """Analytic derivatives of a real-valued field break the conjugate pairing."""


class SymmetryViolation(CrcalcError):
    """Raw second-derivative blocks violate their symmetry constraints."""


class RelationViolation(CrcalcError):
    """Assembled curvature representations disagree beyond tolerance."""


class Diverged(CrcalcError):
    """An iteration escaped toward infinity or produced non-finite values.

    The partial iteration history, when one was being recorded, is attached
    as the ``trace`` attribute.
    """

    def __init__(self, message: str, trace: object | None = None):
        super().__init__(message)
        self.trace = trace


class Unidentifiable(CrcalcError):
    """The requested estimate is not unique for these model parameters."""


class ConfigError(CrcalcError, ValueError):
    """A run configuration is malformed or out of range."""

"""Exception types shared across the package.

Every error carries a short machine-readable ``code`` string; the CLI
prints it in its ``error: <CODE>: <detail>`` records.
"""

from __future__ import annotations

__all__ = [
    "GibbsError",
    "InvalidInputError",
    "AntipodalError",
    "InvalidPairError",
    "SingularCayleyError",
    "OutOfDomainError",
]


class GibbsError(Exception):
    """Base class for all errors raised by this package."""

    code = "ERROR"

    def __init__(self, message: str, *, code: str | None = None):
        super().__init__(message)
        if code is not None:
            self.code = code


class InvalidInputError(GibbsError, ValueError):
    """An argument fails a precondition (shape, NaN, non-rotation, ...)."""

    code = "INVALID_INPUT"


class AntipodalError(InvalidInputError):
    """The two vectors point in (numerically) opposite directions.

    No single smallest rotation maps ``p`` onto ``q``; every half turn
    about an axis in the perpendicular-bisector plane does.  ``basis``
    holds two orthonormal vectors spanning that plane (rows of a (2, 3)
    array).
    """

    code = "ANTIPODAL"

    def __init__(self, message: str, *, basis=None):
        super().__init__(message)
        self.basis = basis


class InvalidPairError(InvalidInputError):
    """A pair-alignment precondition failed; ``condition`` names which one.

    ``condition`` is one of ``LENGTH_MISMATCH``, ``ANGLE_MISMATCH`` or
    ``ANTIPODAL``.  ``index`` is the flat batch row that failed, or
    ``None`` when no row is named.
    """

    def __init__(
        self, message: str, *, condition: str = "INVALID_PAIR", index: int | None = None
    ):
        super().__init__(message, code=condition)
        self.condition = condition
        self.index = index


class SingularCayleyError(GibbsError):
    """The Cayley map is undefined: the matrix has a -1 eigenvalue.

    ``det_magnitude`` reports |det(U + I)|, the proxy used to detect the
    singularity.
    """

    code = "SINGULAR_CAYLEY"

    def __init__(self, message: str, *, det_magnitude: float | None = None):
        super().__init__(message)
        self.det_magnitude = det_magnitude


class OutOfDomainError(GibbsError, ValueError):
    """The operation is not defined for this input's domain (wrong
    dimension, or a half-turn encoding where a finite vector is required)."""

    code = "OUT_OF_DOMAIN"

"""The Cayley map between orthogonal and antisymmetric matrices, any size.

``cayley_forward`` sends a rotation ``U`` (no -1 eigenvalue) to the
antisymmetric ``S = (U - I)(U + I)^-1``; ``cayley_inverse`` sends ``S``
back to ``U = (I + S)(I - S)^-1``.  The two factors in each product
commute, so either order works; the implementation solves linear systems
instead of forming inverses.

In three dimensions the antisymmetric matrix carries exactly a Gibbs
vector, which makes this module the slow, dimension-agnostic oracle for
the rational fast paths in :mod:`gibbsrot.core`.
"""

from __future__ import annotations

import numpy as np

from .core import TOL_ORTHO_INPUT, _as_float, _as_vec3, _check_tol, is_pi_encoded
from .errors import InvalidInputError, OutOfDomainError, SingularCayleyError

__all__ = [
    "TOL_CAYLEY_SINGULAR",
    "SkewMatrix",
    "cayley_forward",
    "cayley_inverse",
    "skew_from_vector",
    "vector_from_skew",
]

# Relative |det(U + I)| threshold (against the 2**n scale of U + I for an
# orthogonal U) below which the map is reported singular.
TOL_CAYLEY_SINGULAR = 1e-12

# Antisymmetry drift tolerated before packing a computed S into storage.
_TOL_ANTISYMMETRY = 1e-12


class SkewMatrix:
    """Antisymmetric matrix stored by its strictly-subdiagonal entries.

    Only the coefficients below the diagonal are kept (row-major); the
    diagonal is zero and the upper triangle is the exact negation, so the
    dense form is antisymmetric bit for bit.
    """

    __slots__ = ("n", "_packed")

    def __init__(self, n: int, packed):
        if not isinstance(n, (int, np.integer)):
            raise InvalidInputError(f"n must be an integer, got {n!r}")
        if n < 1:
            raise InvalidInputError(f"n must be at least 1, got {n}")
        packed = _as_float(packed, "packed")
        want = n * (n - 1) // 2
        if packed.shape != (want,):
            raise InvalidInputError(
                f"packed subdiagonal for n={n} must have shape ({want},), "
                f"got {packed.shape}"
            )
        if np.isnan(packed).any():
            raise InvalidInputError("skew coefficients contain NaN")
        self.n = int(n)
        self._packed = packed

    @classmethod
    def from_array(cls, a, *, tol: float = _TOL_ANTISYMMETRY) -> "SkewMatrix":
        """Pack a (numerically) antisymmetric square array.

        The symmetric residue ``(A + A^T)/2`` must stay within ``tol`` of
        zero, scaled by the largest entry; it is discarded so the stored
        matrix is exactly antisymmetric.
        """
        _check_tol(tol)
        a = _as_square(a, "matrix")
        n = a.shape[0]
        scale = max(1.0, float(np.abs(a).max()))
        residue = float(np.abs(a + a.T).max()) / 2.0
        if residue > tol * scale:
            raise InvalidInputError(
                f"matrix is not antisymmetric within {tol:g} "
                f"(symmetric residue {residue:.3e}, scale {scale:g})"
            )
        exact = (a - a.T) / 2.0
        return cls(n, exact[np.tril_indices(n, -1)])

    def to_array(self) -> np.ndarray:
        """Dense form; exactly antisymmetric by construction."""
        out = np.zeros((self.n, self.n))
        rows, cols = np.tril_indices(self.n, -1)
        out[rows, cols] = self._packed
        out[cols, rows] = -self._packed
        return out

    def __array__(self, dtype=None, copy=None):
        arr = self.to_array()
        return arr.astype(dtype) if dtype is not None else arr

    def __eq__(self, other):
        if not isinstance(other, SkewMatrix):
            return NotImplemented
        return self.n == other.n and np.array_equal(self._packed, other._packed)

    def __repr__(self):
        return f"SkewMatrix(n={self.n}, packed={self._packed.tolist()})"


def _as_square(u, name: str) -> np.ndarray:
    a = _as_float(u, name)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InvalidInputError(f"{name} must be square, got shape {a.shape}")
    if not a.size:
        raise InvalidInputError(f"{name} must be at least 1x1, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise InvalidInputError(f"{name} has non-finite entries")
    return a


def _require_special_orthogonal(u: np.ndarray, tol: float) -> None:
    res = float(np.abs(u.T @ u - np.eye(u.shape[0])).max())
    dev = abs(float(np.linalg.det(u)) - 1.0)
    if res > tol or dev > tol:
        raise InvalidInputError(
            f"not a rotation matrix within {tol:g} (orthogonality residual "
            f"{res:.3e}, determinant deviation {dev:.3e})",
            code="NOT_ROTATION",
        )


def cayley_forward(u, *, tol: float = TOL_ORTHO_INPUT) -> SkewMatrix:
    """Antisymmetric image ``(U - I)(U + I)^-1`` of a rotation matrix.

    Raises :class:`SingularCayleyError` when ``U + I`` is singular (the
    rotation has a half-turn plane), reporting |det(U + I)| as the
    diagnostic.  Implemented as a linear solve, not an explicit inverse.
    """
    _check_tol(tol)
    u = _as_square(u, "matrix")
    _require_special_orthogonal(u, tol)
    n = u.shape[0]
    eye = np.eye(n)
    det = float(np.linalg.det(u + eye))
    if abs(det) <= TOL_CAYLEY_SINGULAR * 2.0**n:
        raise SingularCayleyError(
            f"U + I is singular (|det| = {abs(det):.3e}); the rotation "
            "contains a half turn and has no antisymmetric image",
            det_magnitude=abs(det),
        )
    # Solve S (U + I) = (U - I) by transposing both sides.
    s = np.linalg.solve((u + eye).T, (u - eye).T).T
    return SkewMatrix.from_array(s)


def cayley_inverse(s) -> np.ndarray:
    """Rotation ``(I + S)(I - S)^-1`` of an antisymmetric matrix.

    Accepts a :class:`SkewMatrix` or any array passing its antisymmetry
    check.  ``I - S`` is always invertible for real antisymmetric ``S``.
    The output is orthogonal with determinant +1 to roundoff.
    """
    if not isinstance(s, SkewMatrix):
        s = SkewMatrix.from_array(s)
    a = s.to_array()
    eye = np.eye(s.n)
    # Solve U (I - S) = (I + S) by transposing both sides.
    return np.linalg.solve((eye - a).T, (eye + a).T).T


def skew_from_vector(r) -> SkewMatrix:
    """3x3 antisymmetric carrier of a finite Gibbs vector.

    The dense form satisfies ``S @ v == cross(v, r)``, matching the
    package's matrix convention.  Input :func:`is_pi_encoded` flags has no
    finite carrier and raises :class:`OutOfDomainError`.
    """
    a = _as_vec3(r, "r")
    if a.shape != (3,):
        raise InvalidInputError(f"r must be a single 3-vector, got shape {a.shape}")
    if is_pi_encoded(a):
        raise OutOfDomainError("half-turn encodings have no finite antisymmetric carrier")
    x, y, z = a
    return SkewMatrix(3, np.array([-z, y, -x]))


def vector_from_skew(s) -> np.ndarray:
    """Gibbs vector carried by a 3x3 antisymmetric matrix (exact inverse
    of :func:`skew_from_vector`).  Other sizes raise
    :class:`OutOfDomainError`."""
    if not isinstance(s, SkewMatrix):
        s = SkewMatrix.from_array(s)
    if s.n != 3:
        raise OutOfDomainError(
            f"only 3x3 antisymmetric matrices carry a Gibbs vector, got n={s.n}"
        )
    a = s.to_array()
    return np.array([a[1, 2], a[2, 0], a[0, 1]])

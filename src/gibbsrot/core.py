"""Gibbs-vector core: the 3-vector encoding of rotations and the fast
vector <-> matrix conversions.

A rotation is stored as a plain 3-vector ``r`` parallel to the rotation
axis with ``|r| = tan(theta/2)``.  Half turns (theta = pi) have no finite
encoding; they are stored with the largest component at the float ceiling
and are detected by ``|r| >= PI_ENCODING_THRESHOLD`` (the "pi-encoding
regime").

Finite-regime conversions use only addition, subtraction, multiplication
and division: no square roots and no trigonometric calls on those paths.
All operations accept single values or stacked arrays (leading batch
dimensions, numpy-style).

Convention
----------
``gibbs_to_matrix`` uses the classical rational form with the
antisymmetric term oriented so that one probe fixes the handedness::

    rotate_vector((1, 0, 0), (0, 1, 0)) == (0, 0, -1)

``U(r) @ v`` turns column vectors through ``-theta`` about ``r`` in the
right-hand-rule sense; equivalently, ``U(r)`` re-expresses coordinates in
a frame turned by ``+theta`` about ``r``.  Every module in the package is
consistent with this single choice.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError

__all__ = [
    "PI_ENCODING_MAGNITUDE",
    "PI_ENCODING_THRESHOLD",
    "TOL_ORTHO_INPUT",
    "TOL_ORTHO_OUTPUT",
    "TOL_PI_TRACE",
    "RotationCheck",
    "gibbs_to_matrix",
    "matrix_to_gibbs",
    "rotate_vector",
    "invert",
    "is_rotation_matrix",
    "is_pi_encoded",
    "pi_encode",
]

# Largest finite float64; half-turn encodings put their largest component here.
PI_ENCODING_MAGNITUDE = float(np.finfo(np.float64).max)

# |r| at or beyond a quarter of the float ceiling is read as a half turn.
# The margin keeps |r| computations for genuine encodings clear of overflow.
PI_ENCODING_THRESHOLD = PI_ENCODING_MAGNITUDE / 4.0

# Orthogonality / determinant tolerance when accepting matrices from outside
# (drifted inputs are tolerated) and the tighter bound our own outputs meet.
TOL_ORTHO_INPUT = 1e-9
TOL_ORTHO_OUTPUT = 1e-12

# A matrix with 1 + trace at or below this is routed to the half-turn
# extraction instead of the generic rational inverse.
TOL_PI_TRACE = 1e-12

_EYE3 = np.eye(3)


# ---------------------------------------------------------------------------
# validation helpers


def _as_vec3(x, name: str) -> np.ndarray:
    """Coerce to a float array with last axis 3; reject NaN components."""
    try:
        a = np.asarray(x, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InvalidInputError(f"{name} is not numeric: {exc}") from exc
    if a.ndim == 0 or a.shape[-1] != 3:
        raise InvalidInputError(
            f"{name} must have 3 components on the last axis, got shape {a.shape}"
        )
    if np.isnan(a).any():
        raise InvalidInputError(f"{name} contains NaN components")
    return a


def _as_matrix3(x, name: str) -> np.ndarray:
    try:
        a = np.asarray(x, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InvalidInputError(f"{name} is not numeric: {exc}") from exc
    if a.ndim < 2 or a.shape[-2:] != (3, 3):
        raise InvalidInputError(f"{name} must be 3x3 (last two axes), got shape {a.shape}")
    return a


def _det3(u: np.ndarray) -> np.ndarray:
    """Determinant of stacked 3x3 matrices by cofactor expansion."""
    return (
        u[..., 0, 0] * (u[..., 1, 1] * u[..., 2, 2] - u[..., 1, 2] * u[..., 2, 1])
        - u[..., 0, 1] * (u[..., 1, 0] * u[..., 2, 2] - u[..., 1, 2] * u[..., 2, 0])
        + u[..., 0, 2] * (u[..., 1, 0] * u[..., 2, 1] - u[..., 1, 1] * u[..., 2, 0])
    )


@dataclass(frozen=True)
class RotationCheck:
    """Outcome of :func:`is_rotation_matrix`.

    ``ok`` aggregates over any batch: every matrix must pass.  The residuals
    are maxima over the batch, so a failing entry is always visible.
    """

    ok: bool
    max_orthogonality_residual: float
    max_det_deviation: float

    def __bool__(self) -> bool:
        return self.ok


def is_rotation_matrix(u, *, tol: float = TOL_ORTHO_INPUT) -> RotationCheck:
    """Check orthogonality (``U^T U = I``) and ``det U = +1`` within ``tol``.

    Returns a :class:`RotationCheck`; it is truthy exactly when both hold.
    NaN or infinite entries are rejected with :class:`InvalidInputError`.
    An empty batch passes with residuals 0.0.
    """
    a = _as_matrix3(u, "matrix")
    if not np.isfinite(a).all():
        raise InvalidInputError("matrix has non-finite entries")
    if a.size == 0:
        return RotationCheck(True, 0.0, 0.0)
    gram = np.einsum("...ji,...jk->...ik", a, a)
    res = float(np.abs(gram - _EYE3).max())
    dev = float(np.abs(_det3(a) - 1.0).max())
    return RotationCheck(bool(res <= tol and dev <= tol), res, dev)


def _require_rotation(u: np.ndarray, tol: float) -> None:
    chk = is_rotation_matrix(u, tol=tol)
    if not chk:
        raise InvalidInputError(
            "not a rotation matrix within tolerance "
            f"{tol:g} (orthogonality residual {chk.max_orthogonality_residual:.3e}, "
            f"determinant deviation {chk.max_det_deviation:.3e})",
            code="NOT_ROTATION",
        )


# ---------------------------------------------------------------------------
# pi-encoding regime


def _pi_mask(r: np.ndarray) -> np.ndarray:
    """Boolean mask of rows with |r| >= PI_ENCODING_THRESHOLD.

    Works at any magnitude: the norm comparison is done on components
    scaled by the largest one, so nothing overflows below the ceiling.
    """
    a = np.abs(r)
    m = a.max(axis=-1)
    inf = np.isinf(m)
    safe = np.where(m == 0.0, 1.0, m)
    with np.errstate(over="ignore", invalid="ignore"):
        z = r / safe[..., None]
        q = (z * z).sum(axis=-1)
        lim = np.square(PI_ENCODING_THRESHOLD / safe)
    lim = np.where(m == 0.0, np.inf, lim)
    with np.errstate(invalid="ignore"):
        mask = q >= lim
    return mask | inf


def is_pi_encoded(r) -> bool | np.ndarray:
    """True where ``r`` lies in the half-turn (pi-encoding) regime."""
    a = _as_vec3(r, "r")
    mask = _pi_mask(a)
    return bool(mask) if mask.ndim == 0 else mask


def pi_encode(axis) -> np.ndarray:
    """Half-turn encoding along ``axis``: the direction rescaled so its
    largest |component| sits at the float ceiling.

    ``axis`` need not be unit length, only nonzero and finite.
    """
    a = _as_vec3(axis, "axis")
    if not np.isfinite(a).all():
        raise InvalidInputError("axis has non-finite components")
    m = np.abs(a).max(axis=-1)
    if (m == 0.0).any():
        raise InvalidInputError("axis must be nonzero")
    return (a / m[..., None]) * PI_ENCODING_MAGNITUDE


def _unit_axis(r: np.ndarray) -> np.ndarray:
    """Unit direction of nonzero rows; overflow-safe, infinity-tolerant.

    Rows containing +-inf keep only the infinite components (the finite
    ones vanish in the limit).
    """
    a = np.abs(r)
    m = a.max(axis=-1, keepdims=True)
    inf_rows = np.isinf(m)
    safe = np.where(m == 0.0, 1.0, m)
    with np.errstate(invalid="ignore"):
        z = np.where(inf_rows, np.where(np.isinf(r), np.sign(r), 0.0), r / safe)
    n = np.sqrt((z * z).sum(axis=-1, keepdims=True))
    return z / n


# ---------------------------------------------------------------------------
# rational kernels (elementary arithmetic only; no sqrt, no trig)

# Largest |component| the fused batch kernel accepts: products of two
# components stay <= 1e200, far from overflow, and the bound is far below
# PI_ENCODING_THRESHOLD, so the fused path never sees an encoded row.
_FUSED_MAGNITUDE_LIMIT = 1e100


def _matrix_from_gibbs_fused(r: np.ndarray) -> np.ndarray:
    """Fast batched form of the rational map for moderate magnitudes.

    One fused outer product supplies all nine ``r_i r_j`` terms; the
    cross-product part is added into the six off-diagonal slots before a
    single in-place doubling covers the factor 2 on both.  Elementary
    arithmetic only; same values as the direct form up to rounding.
    Callers guarantee max|component| <= _FUSED_MAGNITUDE_LIMIT.
    """
    rho = np.einsum("ni,ni->n", r, r)
    out = np.einsum("ni,nj->nij", r, r)
    x, y, z = r[:, 0], r[:, 1], r[:, 2]
    out[:, 0, 1] += z
    out[:, 1, 0] -= z
    out[:, 0, 2] -= y
    out[:, 2, 0] += y
    out[:, 1, 2] += x
    out[:, 2, 1] -= x
    out += out
    k = 1.0 - rho
    out[:, 0, 0] += k
    out[:, 1, 1] += k
    out[:, 2, 2] += k
    out /= (1.0 + rho)[:, None, None]
    return out


def _matrix_from_gibbs_direct(r):
    """Textbook rational map r -> U, unscaled.

    Exact on ``fractions.Fraction`` inputs: every entry is the literal
    ratio of the defining polynomials.  Only +, -, *, / appear.  Use the
    scaled variant for float work near the ceiling.
    """
    x, y, z = r[..., 0], r[..., 1], r[..., 2]
    rho = x * x + y * y + z * z
    d = 1 + rho
    k = 1 - rho
    m00 = k + 2 * x * x
    m01 = 2 * (x * y + z)
    m02 = 2 * (x * z - y)
    m10 = 2 * (x * y - z)
    m11 = k + 2 * y * y
    m12 = 2 * (y * z + x)
    m20 = 2 * (x * z + y)
    m21 = 2 * (y * z - x)
    m22 = k + 2 * z * z
    rows = np.stack(
        [m00, m01, m02, m10, m11, m12, m20, m21, m22], axis=-1
    ).reshape(r.shape[:-1] + (3, 3))
    return rows / d[..., None, None]


def _matrix_from_gibbs_scaled(r: np.ndarray) -> np.ndarray:
    """Overflow-guarded rational map r -> U for the finite regime.

    Components are divided by ``c = max(|r|_inf, 1)`` and the quotient is
    rebuilt from the scaled pieces; algebraically identical to the direct
    form, but safe for |r| up to the pi-encoding threshold.  Elementary
    arithmetic only.
    """
    c = np.maximum(np.abs(r).max(axis=-1), 1.0)
    w = 1.0 / c
    s = r * w[..., None]
    x, y, z = s[..., 0], s[..., 1], s[..., 2]
    w2 = w * w
    sq = x * x + y * y + z * z
    with np.errstate(under="ignore"):
        d = w2 + sq
        k = w2 - sq
        m00 = k + 2 * x * x
        m01 = 2 * (x * y + w * z)
        m02 = 2 * (x * z - w * y)
        m10 = 2 * (x * y - w * z)
        m11 = k + 2 * y * y
        m12 = 2 * (y * z + w * x)
        m20 = 2 * (x * z + w * y)
        m21 = 2 * (y * z - w * x)
        m22 = k + 2 * z * z
        rows = np.stack(
            [m00, m01, m02, m10, m11, m12, m20, m21, m22], axis=-1
        ).reshape(r.shape[:-1] + (3, 3))
        return rows / d[..., None, None]


def _gibbs_from_matrix_direct(u):
    """Textbook rational map U -> r away from half turns.

    Exact on ``fractions.Fraction`` inputs; inverse of the direct map by
    back substitution.  Elementary arithmetic only.
    """
    d = 1 + u[..., 0, 0] + u[..., 1, 1] + u[..., 2, 2]
    num = np.stack(
        [
            u[..., 1, 2] - u[..., 2, 1],
            u[..., 2, 0] - u[..., 0, 2],
            u[..., 0, 1] - u[..., 1, 0],
        ],
        axis=-1,
    )
    return num / d[..., None]


def _gibbs_from_matrix_half_turn(u: np.ndarray) -> np.ndarray:
    """Half-turn extraction via the largest-diagonal column.

    Add one to the pivot diagonal entry, divide the pivot column through,
    then rescale so the largest |component| sits exactly at the float
    ceiling.  Elementary arithmetic only; ties pick the lowest index.

    The pivot column is symmetrized with the matching row first: a
    half-turn matrix is symmetric, so this changes nothing for exact
    inputs, but for almost-half-turns that land here through the trace
    test it cancels the leftover antisymmetric part, which would
    otherwise tilt the recovered axis at first order.
    """
    flat = u.reshape(-1, 3, 3)
    diag = np.stack([flat[:, 0, 0], flat[:, 1, 1], flat[:, 2, 2]], axis=-1)
    k = diag.argmax(axis=-1)
    idx = np.arange(flat.shape[0])
    col = 0.5 * (flat[idx, :, k] + flat[idx, k, :])
    col[idx, k] += 1.0
    den = 1.0 + diag[idx, k]
    if (den <= 0.0).any():
        raise InvalidInputError(
            "half-turn extraction failed: no diagonal entry above -1 "
            "(input is too far from a rotation matrix)"
        )
    v = col / den[:, None]
    vmax = np.abs(v).max(axis=-1)
    out = (v / vmax[:, None]) * PI_ENCODING_MAGNITUDE
    return out.reshape(u.shape[:-2] + (3,))


# ---------------------------------------------------------------------------
# public conversions


def gibbs_to_matrix(r) -> np.ndarray:
    """Rotation matrix for the Gibbs vector ``r``.

    Finite-regime inputs go through the rational form (elementary
    arithmetic only).  Pi-encoded inputs return the exact half-turn limit
    ``2 u u^T - I`` about the unit axis ``u = r/|r|``.

    The output is orthogonal with residual and determinant deviation
    within ``TOL_ORTHO_OUTPUT``.

    >>> gibbs_to_matrix([0.0, 0.0, 0.0]).tolist()
    [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    """
    a = _as_vec3(r, "r")
    flat = a.reshape(-1, 3)
    if flat.shape[0] and np.abs(flat).max() < _FUSED_MAGNITUDE_LIMIT:
        return _matrix_from_gibbs_fused(flat).reshape(a.shape[:-1] + (3, 3))
    pi = _pi_mask(flat)
    out = np.empty((flat.shape[0], 3, 3))
    fin = ~pi
    if fin.any():
        out[fin] = _matrix_from_gibbs_scaled(flat[fin])
    if pi.any():
        axis = _unit_axis(flat[pi])
        out[pi] = 2.0 * axis[:, :, None] * axis[:, None, :] - _EYE3
    return out.reshape(a.shape[:-1] + (3, 3))


def matrix_to_gibbs(
    u,
    *,
    check: bool = True,
    pi_trace_tol: float = TOL_PI_TRACE,
    ortho_tol: float = TOL_ORTHO_INPUT,
) -> np.ndarray:
    """Gibbs vector of a rotation matrix.

    Matrices with ``1 + trace > pi_trace_tol`` use the generic rational
    extraction; the rest (half turns) use the largest-diagonal column and
    come back pi-encoded.  Both paths are elementary arithmetic only.

    ``check=True`` validates the input against ``ortho_tol`` first and
    raises :class:`InvalidInputError` for non-rotations.
    """
    a = _as_matrix3(u, "matrix")
    if check:
        _require_rotation(a, ortho_tol)
    flat = a.reshape(-1, 3, 3)
    tr1 = 1.0 + flat[:, 0, 0] + flat[:, 1, 1] + flat[:, 2, 2]
    pi = tr1 <= pi_trace_tol
    out = np.empty((flat.shape[0], 3))
    fin = ~pi
    if fin.any():
        out[fin] = _gibbs_from_matrix_direct(flat[fin])
    if pi.any():
        out[pi] = _gibbs_from_matrix_half_turn(flat[pi])
    return out.reshape(a.shape[:-2] + (3,))


def rotate_vector(r, s) -> np.ndarray:
    """Apply the rotation encoded by ``r`` to the vector ``s``.

    Exactly ``gibbs_to_matrix(r) @ s`` (the two paths agree bit for bit).
    ``s`` must be finite; ``r`` may be pi-encoded.

    >>> rotate_vector([1.0, 0.0, 0.0], [0.0, 1.0, 0.0]).tolist()
    [0.0, 0.0, -1.0]
    """
    a = _as_vec3(r, "r")
    b = _as_vec3(s, "s")
    if not np.isfinite(b).all():
        raise InvalidInputError("s has non-finite components")
    try:
        np.broadcast_shapes(a.shape, b.shape)
    except ValueError:
        raise InvalidInputError(
            f"shapes do not broadcast: r {a.shape}, s {b.shape}"
        ) from None
    u = gibbs_to_matrix(a)
    return (u @ b[..., None])[..., 0]


def invert(r) -> np.ndarray:
    """Gibbs vector of the inverse rotation: plain negation.

    Works in both regimes; a pi-encoding stays a pi-encoding of the same
    half turn.
    """
    a = _as_vec3(r, "r")
    return -a

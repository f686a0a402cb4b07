"""Conversions between Gibbs vectors and the neighbouring representations.

Quaternions, axis-angle pairs, and intrinsic z-y-x Euler angles each get a
pair of maps to and from the Gibbs vector (through the rotation matrix
where that is the natural meeting point).  Besides serving users, these
are the independent oracles the test suite checks the rational fast paths
against.

A quaternion is ``core``'s homogeneous pair ``(w : v)`` scaled to unit
length.  Every op runs on ``core``'s component columns, the caller's
batch shape kept, and writes rows once, at the output; norms are summed
in written order (``w^2 + x^2 + y^2 + z^2``), as ``np.sum`` sums a row.

Conventions
-----------
* Quaternions are arrays ``[w, x, y, z]`` (scalar part first) with unit
  norm: ``w**2 + x**2 + y**2 + z**2 == 1`` within ``TOL_QUATERNION_NORM``.
  The canonical representative has ``w >= 0``; when ``w == 0`` the first
  nonzero of ``(x, y, z)`` is positive; zeros are +0.0.  The canonical
  form is lossy over the unit quaternions (q and -q collapse, to the same
  bytes) but lossless over rotations.
* ``quaternion_multiply(a, b)`` is the standard quaternion product.  In
  this package's matrix convention that composes as
  ``quaternion_to_matrix(quaternion_multiply(a, b)) ==
  quaternion_to_matrix(b) @ quaternion_to_matrix(a)``, so the partner of
  ``compose(r, s)`` is ``quaternion_multiply(gibbs_to_quaternion(s),
  gibbs_to_quaternion(r))``.
* Axis-angle pairs carry a unit axis and an angle in ``(-pi, pi]``; the
  Gibbs vector along the same axis has length ``tan(angle / 2)``.
* Euler angles are intrinsic z-y-x: ``yaw`` about z first, then ``pitch``
  about the new y, then ``roll`` about the newest x, all expressed in the
  package's column-vector matrix convention.  Any fixed convention would
  do for a comparison baseline; this one is declared and tested.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .core import (
    PI_ENCODING_THRESHOLD,
    TOL_ORTHO_INPUT,
    _as_float,
    _as_vec3,
    _broadcast,
    _columns,
    _encode_half_turns,
    _homogeneous,
    _inner,
    _pivot_row,
    _quotient_rows,
    _rotation_columns,
    _unpack,
)
from .errors import InvalidInputError

__all__ = [
    "TOL_QUATERNION_NORM",
    "TOL_QUATERNION_REAL",
    "AxisAngle",
    "EulerAngles",
    "gibbs_to_quaternion",
    "quaternion_to_gibbs",
    "quaternion_multiply",
    "canonicalize_quaternion",
    "quaternion_to_matrix",
    "matrix_to_quaternion",
    "gibbs_to_axis_angle",
    "axis_angle_to_gibbs",
    "euler_to_matrix",
    "matrix_to_euler",
]

# Tolerance on |q|^2 - 1 for accepting a quaternion as unit.
TOL_QUATERNION_NORM = 1e-12

# Real parts at or below this magnitude are treated as zero, i.e. as half
# turns.  The value is the reciprocal of PI_ENCODING_THRESHOLD so the
# quaternion and Gibbs encodings of "as close to a half turn as a float
# can express" hand off to each other exactly.
TOL_QUATERNION_REAL = 1.0 / PI_ENCODING_THRESHOLD


class AxisAngle(NamedTuple):
    """Unit rotation axis and signed angle in ``(-pi, pi]`` radians."""

    axis: np.ndarray
    angle: float


class EulerAngles(NamedTuple):
    """Intrinsic z-y-x angles in radians: yaw about z, then pitch about
    the rotated y, then roll about the resulting x."""

    yaw: float
    pitch: float
    roll: float


# ---------------------------------------------------------------------------
# quaternion helpers


def _norm_sq(q):
    """``|q|^2`` of quaternions given as their four components (column
    arrays or numbers), summed ``w^2 + x^2 + y^2 + z^2`` left to right:
    bit for bit ``np.sum(q * q, axis=-1)`` on the rows."""
    w, x, y, z = q
    return w * w + x * x + y * y + z * z


def _as_quaternion(q, name: str = "q"):
    """The float array of the quaternions ``q`` and its components as
    :func:`core._unpack` gives them, after the shape check and, on those
    components, the finiteness and unit-norm checks."""
    a = _as_float(q, name)
    if a.ndim == 0 or a.shape[-1] != 4:
        raise InvalidInputError(f"{name} must have shape (..., 4) as [w, x, y, z], got {a.shape}")
    c = _unpack(a)
    one = a.ndim == 1
    if not (all(map(math.isfinite, c)) if one else np.isfinite(c).all()):
        raise InvalidInputError(f"{name} has non-finite entries")
    if one:
        err = abs(_norm_sq(c) - 1.0)
    else:  # huge entries square to inf, without a warning as on one row's floats
        with np.errstate(over="ignore"):
            err = np.abs(_norm_sq(c) - 1.0).max(initial=0.0)
    if err > TOL_QUATERNION_NORM:
        raise InvalidInputError(
            f"{name} is not unit length: |q|^2 - 1 = {err:.3e} "
            f"exceeds {TOL_QUATERNION_NORM:g}"
        )
    return a, c


def canonicalize_quaternion(q) -> np.ndarray:
    """Canonical sign representative: ``w >= 0``; for ``w == 0`` the first
    nonzero imaginary component is positive.  Zeros come back as +0.0.

    Only signs are touched (no renormalization), so the operation is
    idempotent bit for bit.
    """
    return _canonical_signs(_as_quaternion(q)[1])


def _canonical_signs(q) -> np.ndarray:
    """:func:`canonicalize_quaternion` of unit quaternions given as their
    components ``q`` (from :func:`_as_quaternion`; one row's Python floats
    as a list), written into rows: times -1 where the first nonzero
    component is negative, then ``+ 0.0`` turns -0.0 into +0.0, so ``q``
    and ``-q`` give the same bytes."""
    w, x, y, z = q
    if type(q) is list:  # -0.0 and 0.0 are false, so ``or`` finds the lead
        sign = -1.0 if (w or x or y or z) < 0.0 else 1.0
    else:
        lead = np.where(w != 0.0, w, np.where(x != 0.0, x, np.where(y != 0.0, y, z)))
        sign = np.where(lead < 0.0, -1.0, 1.0)
    return _quotient_rows([c * sign + 0.0 for c in q])


def _unit_quaternion(q) -> np.ndarray:
    """Canonical unit quaternions, as rows, of the homogeneous pairs
    given as ``(4,) + batch`` component columns ``q = (w, x, y, z)`` the
    caller owns, or as one pair's four Python floats in a list, ``|q|^2``
    from :func:`_norm_sq`."""
    if type(q) is list:  # math.sqrt is correctly rounded, as np.sqrt is
        n = math.sqrt(_norm_sq(q))
        return _canonical_signs([c / n for c in q])
    q /= np.sqrt(_norm_sq(q))
    return _canonical_signs(q.tolist() if q.ndim == 1 else q)


def quaternion_multiply(a, b) -> np.ndarray:
    """Quaternion product ``a * b`` (scalar-first layout, broadcasting).

    The output is not renormalized; products of unit inputs stay unit to
    roundoff.  Note the matrix correspondence runs right to left:
    ``quaternion_to_matrix(a * b) == quaternion_to_matrix(b) @
    quaternion_to_matrix(a)``.
    """
    a, (aw, ax, ay, az) = _as_quaternion(a, "a")
    b, (bw, bx, by, bz) = _as_quaternion(b, "b")
    _broadcast(("a", "b"), a, b)
    w = aw * bw
    w -= ax * bx
    w -= ay * by
    w -= az * bz
    out = [w]
    # aw b_i + a_i bw + a_j b_k - a_k b_j, (i, j, k) cycling x, y, z
    for ai, bi, aj, bk, ak, bj in (
        (ax, bx, ay, bz, az, by), (ay, by, az, bx, ax, bz), (az, bz, ax, by, ay, bx),
    ):
        c = aw * bi
        c += ai * bw
        c += aj * bk
        c -= ak * bj
        out.append(c)
    return _quotient_rows(out)


def gibbs_to_quaternion(r) -> np.ndarray:
    """Canonical unit quaternion of a Gibbs vector: the homogeneous pair
    ``(w : v)`` normalized.

    Finite rows use the max-abs scaled pair ``(1, r) / max(|r|_inf, 1)``,
    so magnitudes near the encoding threshold cannot overflow.  Half-turn
    encodings have ``w = 0`` and map to ``(0, axis)``.
    """
    w, v = _homogeneous(_columns(_as_vec3(r, "r"), 1))
    return _unit_quaternion(np.stack((w, *v)))


def quaternion_to_gibbs(q) -> np.ndarray:
    """Gibbs vector of a unit quaternion: the imaginary part divided by
    the real part.  Real parts within ``TOL_QUATERNION_REAL`` of zero are
    half turns and produce the encoding about the imaginary direction.
    """
    w, *v = _as_quaternion(q)[1]
    half = np.abs(w) <= TOL_QUATERNION_REAL
    # the half turns are divided by 1, so they hold their axis v
    return _encode_half_turns(_quotient_rows(v, np.where(half, 1.0, w)), np.flatnonzero(half))


def quaternion_to_matrix(q) -> np.ndarray:
    """Rotation matrix of a unit quaternion, in the package's
    column-vector convention (matches ``gibbs_to_matrix`` of the
    corresponding Gibbs vector, half turns included)."""
    w, x, y, z = _as_quaternion(q)[1]
    k = 2.0 * w
    k *= w
    k -= 1.0  # 2 w^2 - 1
    e = [None] * 9  # entry (i, j) is e[3 i + j]
    for ii, c in zip((0, 4, 8), (x, y, z)):
        d = 2.0 * c
        d *= c
        d += k  # 2 c^2 + 2 w^2 - 1
        e[ii] = d
    # 2 (a b + w c) goes to entry (i, j), 2 (a b - w c) to (j, i)
    for a_, b_, c, ij, ji in ((x, y, z, 1, 3), (x, z, y, 6, 2), (y, z, x, 5, 7)):
        p = a_ * b_
        t = w * c
        d = p + t
        d *= 2.0
        e[ij] = d
        p -= t
        p *= 2.0
        e[ji] = p
    u = _quotient_rows(e)
    return u.reshape(u.shape[:-1] + (3, 3))


def matrix_to_quaternion(u, *, check: bool = True, ortho_tol: float = TOL_ORTHO_INPUT) -> np.ndarray:
    """Canonical unit quaternion of a rotation matrix.

    Normalizes the row of Shepperd's pivot table with the largest
    diagonal entry, ``4 q_k (w, x, y, z)``: the same row
    ``matrix_to_gibbs`` divides, and never one that is small.  Set
    ``check=False`` to skip the orthogonality test for matrices already
    known to be rotations.
    """
    cols = _rotation_columns(u, check, ortho_tol)
    if type(cols) is list:
        return _unit_quaternion(_pivot_row(cols))
    # a batch's huge entries (check=False) overflow quietly, as one matrix's floats do
    with np.errstate(over="ignore", invalid="ignore"):
        return _unit_quaternion(_pivot_row(cols))


# ---------------------------------------------------------------------------
# axis-angle


def gibbs_to_axis_angle(r) -> AxisAngle:
    """Unit axis and angle of a Gibbs vector: for the homogeneous pair
    ``(w : v)``, the axis ``v/|v|`` and ``angle = 2 atan2(|v|, w)``, which
    is ``2 atan(|r|)``.

    The zero vector has no axis; by convention it reports axis (0, 0, 1)
    with angle 0.  Half-turn encodings have ``w = 0`` and report their
    axis with angle pi.  Batched input yields stacked axes and an angle
    array.
    """
    w, v = _homogeneous(_columns(_as_vec3(r, "r"), 1))
    n = np.sqrt(_inner(v, v))
    zero = n == 0.0
    axis = _quotient_rows(v, np.where(zero, 1.0, n))
    axis[zero] = (0.0, 0.0, 1.0)
    angle = 2.0 * np.arctan2(n, w)
    return AxisAngle(axis, float(angle) if np.ndim(angle) == 0 else angle)


def axis_angle_to_gibbs(axis, angle=None) -> np.ndarray:
    """Gibbs vector ``tan(angle/2) * axis``; accepts an :class:`AxisAngle`
    or a separate axis and angle.

    The angle is first reduced to ``(-pi, pi]`` (a float-accurate
    reduction: values many turns out lose precision as usual).  An angle
    of exactly pi after reduction produces the half-turn encoding.
    """
    if angle is None:
        if not isinstance(axis, AxisAngle):
            raise InvalidInputError("angle is missing: give an AxisAngle or axis and angle")
        axis, angle = axis
    a = _as_vec3(axis, "axis")
    ang = _as_float(angle, "angle")
    if not np.isfinite(ang).all():
        raise InvalidInputError("angle must be finite")
    a, ang = _broadcast(("axis", "angle"), a, ang[..., None])
    u = _columns(a, 1)
    with np.errstate(over="ignore"):  # an overflowed |axis|^2 fails the check as inf
        norm2 = _inner(u, u)
    if (np.abs(norm2 - 1.0) > 1e-9).any():
        raise InvalidInputError("axis must be unit length (within 1e-9 on |axis|^2)")
    u /= np.sqrt(norm2)
    th = np.remainder(ang[..., 0] + np.pi, 2.0 * np.pi) - np.pi
    half = np.abs(th) == np.pi
    # the half turns are scaled by 1, so they hold the unit axis
    out = np.stack(u * np.where(half, 1.0, np.tan(th / 2.0)), axis=-1)
    return _encode_half_turns(out, np.flatnonzero(half))


# ---------------------------------------------------------------------------
# Euler angles (intrinsic z-y-x)


def euler_to_matrix(yaw, pitch=None, roll=None) -> np.ndarray:
    """Rotation matrix of intrinsic z-y-x angles, in the package's
    column-vector convention.

    Accepts an :class:`EulerAngles`, a single (..., 3) array of
    ``[yaw, pitch, roll]``, or three separate angle arrays.
    """
    if pitch is None and roll is None:
        arr = _as_float(yaw, "angles")
        if arr.shape[-1:] != (3,):
            raise InvalidInputError(
                f"expected [yaw, pitch, roll] along the last axis, got {arr.shape}"
            )
        yaw, pitch, roll = arr[..., 0], arr[..., 1], arr[..., 2]
    if pitch is None or roll is None:
        missing = "pitch" if pitch is None else "roll"
        raise InvalidInputError(f"{missing} is missing: give [yaw, pitch, roll] or three angles")
    names = ("yaw", "pitch", "roll")
    a, b, c = _broadcast(names, *map(_as_float, (yaw, pitch, roll), names))
    if not (np.isfinite(a).all() and np.isfinite(b).all() and np.isfinite(c).all()):
        raise InvalidInputError("angles must be finite")
    ca, sa = np.cos(a), np.sin(a)
    cb, sb = np.cos(b), np.sin(b)
    cc, sc = np.cos(c), np.sin(c)
    u = np.empty(a.shape + (3, 3))
    u[..., 0, 0] = ca * cb
    u[..., 0, 1] = sa * cc + ca * sb * sc
    u[..., 0, 2] = sa * sc - ca * sb * cc
    u[..., 1, 0] = -sa * cb
    u[..., 1, 1] = ca * cc - sa * sb * sc
    u[..., 1, 2] = ca * sc + sa * sb * cc
    u[..., 2, 0] = sb
    u[..., 2, 1] = -cb * sc
    u[..., 2, 2] = cb * cc
    return u


def matrix_to_euler(u, *, check: bool = True, ortho_tol: float = TOL_ORTHO_INPUT) -> EulerAngles:
    """Intrinsic z-y-x angles of a rotation matrix.

    Yaw and roll land in ``(-pi, pi]`` and pitch in ``[-pi/2, pi/2]``.
    The extraction is built from two-argument arctangents whose operands
    share a common cos(pitch) factor, so it stays accurate arbitrarily
    close to gimbal lock.  Only when that factor is exactly zero (yaw and
    roll truly collapsed into one angle) does the canonical representative
    with ``roll = 0`` come back.
    """
    cols = _rotation_columns(u, check, ortho_tol)
    u00, u01, u02, u10, _, _, sb, u21, u22 = cols
    # sb = u20 is sin(pitch); hypot(yaw entries) recovers |cos(pitch)|
    # without the precision cliff of arcsin near +/-1.
    cb = np.hypot(u00, u10)
    pitch = np.arctan2(sb, cb)
    # at gimbal lock roll is 0 and yaw is read off the first row
    locked = cb == 0.0
    yaw = np.where(locked, np.arctan2(u01, np.where(sb >= 0.0, -u02, u02)), np.arctan2(-u10, u00))
    roll = np.where(locked, 0.0, np.arctan2(-u21, u22))
    yaw, roll = (np.where(x == -np.pi, np.pi, x) for x in (yaw, roll))
    if yaw.ndim == 0:
        return EulerAngles(float(yaw), float(pitch), float(roll))
    return EulerAngles(yaw, pitch, roll)

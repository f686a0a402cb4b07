"""Rotations that carry given vectors onto given vectors.

A single pair (p, q) of equal-length vectors pins a rotation down only up
to a one-parameter family: every member of the straight line

    r(gamma) = (q x p + gamma (p + q)) / (p . (p + q))

maps p onto q (under this package's ``rotate_vector`` convention), with
gamma sweeping from the smallest rotation (gamma = 0, axis along q x p)
out to the half turn about p + q in the limit gamma -> +/-inf.  A second
pair selects one member of that line, giving the unique rotation that
carries a rigid pair onto a rigid pair — which is exactly one alignment
step of a moving frame, so a whole curve's worth of frames chains into
:func:`frame_transport`.

All solvers here are rational in their inputs (square roots appear only
in validation and in unit-vector preprocessing, never in the solution
formulas).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

# ``compose`` stays a module attribute although the chain below runs on
# ``compose_scan``: the perfbench sweep trace wraps
# ``gibbsrot.alignment.compose`` and counts its calls.
from .algebra import compose, compose_scan
from .core import (
    _as_float,
    _columns,
    _cross,
    _dot,
    matrix_to_gibbs,
    pi_encode,
    rotate_vector,
)
from .errors import AntipodalError, InvalidInputError, InvalidPairError

__all__ = [
    "TOL_LEN",
    "TOL_ALIGN_SINGULAR",
    "AlignmentLine",
    "TransportResult",
    "align_family",
    "align_line",
    "align_pair",
    "align_pair_unchecked",
    "frame_transport",
]

# Relative tolerance for the validity preconditions: equal lengths within
# each pair, equal subtended angles across pairs, and the antipodal test.
# Inputs typically arrive from float pipelines, so exact equality would be
# useless; every solver takes a ``tol`` override.
TOL_LEN = 1e-9

# Relative half-width of the window around a vanishing gamma denominator
# inside which the answer is snapped to the half-turn limit.  Kept well
# below TOL_LEN: a denominator of relative size d leaves the *rotation*
# only ~2d away from the half turn, so snapping at 1e-12 perturbs mapped
# vectors by ~1e-12 while letting gamma grow to ~1e12 before the ratio
# itself turns to noise.
TOL_ALIGN_SINGULAR = 1e-12


@dataclass(frozen=True, eq=False)
class AlignmentLine:
    """The straight line of Gibbs vectors rotating ``p`` onto ``q``.

    ``base`` is the gamma = 0 member (the smallest rotation, axis along
    q x p); ``direction`` is the coefficient of gamma (parallel to
    p + q); ``valid_domain`` describes which gamma values are admissible.
    """

    base: np.ndarray
    direction: np.ndarray
    valid_domain: str = field(
        default="all finite gamma; the limit gamma -> +/-inf is the half turn about p + q"
    )

    def member(self, gamma) -> np.ndarray:
        """Evaluate ``base + gamma * direction`` (broadcasting over gamma)."""
        g = _as_float(gamma, "gamma")
        return self.base + g[..., None] * self.direction


class TransportResult(NamedTuple):
    """Output of :func:`frame_transport`: per-step rotations and their
    running compositions (``cumulative[i]`` maps frame 0 onto frame i;
    ``cumulative[0]`` is the zero vector)."""

    steps: np.ndarray
    cumulative: np.ndarray


# ---------------------------------------------------------------------------
# validation helpers


def _as_vectors(v, name: str) -> np.ndarray:
    a = _as_float(v, name)
    if a.ndim == 0 or a.shape[-1] != 3:
        raise InvalidInputError(f"{name} must have shape (..., 3), got {a.shape}")
    if not np.isfinite(a).all():
        raise InvalidInputError(f"{name} has non-finite entries")
    return a


def _norms(flat: np.ndarray) -> np.ndarray:
    """Euclidean norms over the last axis: the square root of
    ``_dot(flat, flat)``, whose trailing ``+ 0`` a sum of squares (never
    -0) does not need."""
    x, y, z = flat[..., 0], flat[..., 1], flat[..., 2]
    s = x * x
    s += y * y
    s += z * z
    return np.sqrt(s)


def _first(mask: np.ndarray) -> int:
    return int(np.flatnonzero(mask)[0])


def _perp_basis(p: np.ndarray) -> np.ndarray:
    """Two orthonormal rows spanning the plane perpendicular to ``p``."""
    unit = p / _norms(p[None, :])[0]
    pick = np.argmin(np.abs(unit))
    seed = np.zeros(3)
    seed[pick] = 1.0
    e1 = _cross(unit, seed)
    e1 /= _norms(e1[None, :])[0]
    e2 = _cross(unit, e1)
    e2 /= _norms(e2[None, :])[0]
    return np.stack([e1, e2])


def _check_pair_lengths(
    p: np.ndarray, q: np.ndarray, np_: np.ndarray, nq: np.ndarray, tol: float, label: str
) -> None:
    if (np_ == 0.0).any():
        raise InvalidInputError(f"{label}: zero vector at index {_first(np_ == 0.0)}")
    if (nq == 0.0).any():
        raise InvalidInputError(f"{label}: zero vector at index {_first(nq == 0.0)}")
    bad = np.abs(np_ - nq) > tol * np_
    if bad.any():
        i = _first(bad)
        raise InvalidPairError(
            f"{label}: lengths differ at index {i}: |p| = {np_[i]:.17g}, "
            f"|q| = {nq[i]:.17g} (relative tolerance {tol:g})",
            condition="LENGTH_MISMATCH",
        )


# ---------------------------------------------------------------------------
# single-pair alignment


def align_family(p, q, *, tol: float = TOL_LEN) -> AlignmentLine:
    """The full line of rotations carrying ``p`` onto ``q`` (single pair).

    Raises :class:`AntipodalError` when q is (numerically) -p; the error
    carries an orthonormal basis of the perpendicular plane, every half
    turn about which is a solution.
    """
    pp = _as_vectors(p, "p")
    qq = _as_vectors(q, "q")
    if pp.shape != (3,) or qq.shape != (3,):
        raise InvalidInputError(
            "align_family takes single 3-vectors; use align_line for batches"
        )
    den = _line_denominators(pp[None, :], qq[None, :], tol)[0]
    return AlignmentLine(base=_cross(qq, pp) / den, direction=(pp + qq) / den)


def _line_denominators(p: np.ndarray, q: np.ndarray, tol: float) -> np.ndarray:
    """The denominators ``p . (p + q)`` of (n, 3) pairs' alignment lines,
    after the length and antipodal checks."""
    np_, nq = _norms(p), _norms(q)
    _check_pair_lengths(p, q, np_, nq, tol, "align")
    den = _dot(p, p + q)
    anti = den <= tol * np_ * np_
    if anti.any():
        i = _first(anti)
        raise AntipodalError(
            f"antipodal pair at index {i}: q is opposite to p, every half "
            "turn about the perpendicular plane is a solution",
            basis=_perp_basis(p[i]),
        )
    return den


def align_line(p, q, gamma, *, tol: float = TOL_LEN) -> np.ndarray:
    """The family member at parameter ``gamma``: the Gibbs vector
    ``(q x p + gamma (p + q)) / (p . (p + q))``, batched and broadcasting.

    ``rotate_vector(align_line(p, q, g), p) == q`` (to roundoff) for every
    finite ``g``; lengths must agree within ``tol`` and antipodal pairs
    raise :class:`AntipodalError`.
    """
    pp = _as_vectors(p, "p")
    qq = _as_vectors(q, "q")
    g = _as_float(gamma, "gamma")
    if not np.isfinite(g).all():
        raise InvalidInputError("gamma must be finite")
    try:
        pp, qq = np.broadcast_arrays(pp, qq)
        g = np.broadcast_to(g, pp.shape[:-1])
    except ValueError:
        raise InvalidInputError(
            f"shapes do not broadcast: p {pp.shape}, q {qq.shape}, gamma {g.shape}"
        ) from None
    shape = pp.shape
    flat_p = pp.reshape(-1, 3)
    flat_q = qq.reshape(-1, 3)
    flat_g = g.reshape(-1)
    den = _line_denominators(flat_p, flat_q, tol)
    num = _cross(flat_q, flat_p) + flat_g[:, None] * (flat_p + flat_q)
    return (num / den[:, None]).reshape(shape)


# ---------------------------------------------------------------------------
# two-pair alignment


def align_pair_unchecked(p1, q1, p2, q2) -> np.ndarray:
    """The raw two-pair formula with no validity checking.

    Evaluates ``gamma = -[(q1 x p1) . (p2 - q2)] / [(p1 + q1) . (p2 - q2)]``
    and returns the corresponding member of pair 1's line.  The formula
    produces *some* vector for almost any four inputs, solution or not —
    it does not know whether the pairs are rigidly compatible, and a
    vanishing denominator yields non-finite output.  Prefer
    :func:`align_pair`, which validates and handles every degeneracy.
    """
    a1 = _as_vectors(p1, "p1")
    b1 = _as_vectors(q1, "q1")
    a2 = _as_vectors(p2, "p2")
    b2 = _as_vectors(q2, "q2")
    try:
        a1, b1, a2, b2 = np.broadcast_arrays(a1, b1, a2, b2)
    except ValueError:
        raise InvalidInputError("pair shapes do not broadcast") from None
    d = a2 - b2
    c1 = _cross(b1, a1)
    s1 = a1 + b1
    with np.errstate(divide="ignore", invalid="ignore"):
        gamma = -_dot(c1, d) / _dot(s1, d)
        num = c1 + gamma[..., None] * s1
        return num / _dot(a1, s1)[..., None]


def align_pair(p1, q1, p2, q2, *, tol: float = TOL_LEN) -> np.ndarray:
    """The unique rotation carrying the rigid pair (p1, p2) onto (q1, q2).

    Preconditions (each within relative ``tol``): |p1| = |q1|,
    |p2| = |q2|, and p1 . p2 = q1 . q2 — a rigid motion preserves lengths
    and the subtended angle.  Violations raise :class:`InvalidPairError`
    naming the failed condition (``LENGTH_MISMATCH`` or
    ``ANGLE_MISMATCH``), because the raw formula would happily return a
    non-solution.  A p1 antipodal to q1 raises the error with condition
    ``ANTIPODAL`` (pair order carries no meaning, so callers may swap the
    pairs if the other one is regular).

    Degeneracies are handled exactly:

    * both pairs fixed -> the zero vector (identity);
    * one pair fixed -> the member of the other pair's line parallel to
      the fixed vector (the rotation must fix it), or the half turn about
      it when the moving pair is antipodal;
    * vanishing gamma denominator with nonzero numerator -> the half-turn
      encoding about p1 + q1 (the gamma -> inf limit of the line);
    * 0/0 with p2 parallel to p1 -> the smallest rotation (gamma = 0;
      the second pair adds no constraint);
    * 0/0 otherwise -> orthonormal-frame reconstruction of the matrix,
      converted back to a Gibbs vector.

    Batched: all four arguments broadcast together over leading axes.
    """
    a1 = _as_vectors(p1, "p1")
    b1 = _as_vectors(q1, "q1")
    a2 = _as_vectors(p2, "p2")
    b2 = _as_vectors(q2, "q2")
    try:
        a1, b1, a2, b2 = np.broadcast_arrays(a1, b1, a2, b2)
    except ValueError:
        raise InvalidInputError(
            f"pair shapes do not broadcast: {a1.shape}, {b1.shape}, "
            f"{a2.shape}, {b2.shape}"
        ) from None
    shape = a1.shape
    # (n, 3) views of contiguous component columns: every component read
    # below is contiguous
    a1, b1, a2, b2 = (_columns(x.reshape(-1, 3), 1).T for x in (a1, b1, a2, b2))

    n_a1, n_b1 = _norms(a1), _norms(b1)
    n_a2, n_b2 = _norms(a2), _norms(b2)
    _check_pair_lengths(a1, b1, n_a1, n_b1, tol, "pair 1")
    _check_pair_lengths(a2, b2, n_a2, n_b2, tol, "pair 2")

    tol_a1 = tol * n_a1
    dot_p = _dot(a1, a2)
    dot_q = _dot(b1, b2)
    bad = np.abs(dot_p - dot_q) > tol_a1 * n_a2
    if bad.any():
        i = _first(bad)
        raise InvalidPairError(
            f"subtended angles differ at index {i}: p1.p2 = {dot_p[i]:.17g} "
            f"but q1.q2 = {dot_q[i]:.17g} (relative tolerance {tol:g})",
            condition="ANGLE_MISMATCH",
        )

    s1 = a1 + b1
    den1 = _dot(a1, s1)
    anti1 = den1 <= tol_a1 * n_a1
    if anti1.any():
        i = _first(anti1)
        raise InvalidPairError(
            f"pair 1 is antipodal at index {i}: no one-parameter family "
            "exists; swap the pairs if pair 2 is regular",
            condition="ANTIPODAL",
        )

    d = a2 - b2
    n_d = _norms(d)
    fixed1 = _norms(a1 - b1) <= tol_a1
    fixed2 = n_d <= tol * n_a2
    fixed = fixed1 | fixed2
    out = _align_pair_general(a1, b1, a2, b2, s1, d, n_d, den1, fixed, n_a1, n_a2, tol)
    if not fixed.any():
        return out.reshape(shape)

    only1 = np.flatnonzero(fixed1 & ~fixed2)
    if only1.size:
        out[only1] = _member_fixing(a2[only1], b2[only1], a1[only1], n_a2[only1], tol)
        _verify_rows(out, only1, a1, b1, a2, b2, n_a1, n_a2, tol)

    only2 = np.flatnonzero(~fixed1 & fixed2)
    if only2.size:
        out[only2] = _member_fixing(a1[only2], b1[only2], a2[only2], n_a1[only2], tol)
        _verify_rows(out, only2, a1, b1, a2, b2, n_a1, n_a2, tol)

    # Both pairs fixed: the identity.
    out[np.flatnonzero(fixed1 & fixed2)] = 0.0
    return out.reshape(shape)


def _align_pair_general(a1, b1, a2, b2, s1, d, n_d, den1, fixed, n_a1, n_a2, tol):
    """The gamma formula on every row, then the rows where its
    denominator vanishes patched by index: the half-turn limit, the
    smallest member, or the triad.  Rows where ``fixed`` is set are left
    for the caller to overwrite.  The result is written once, as
    row-major (n, 3)."""
    c1 = _cross(b1, a1)
    num_g = _dot(c1, d)
    den_g = _dot(s1, d)
    out = np.empty(c1.shape)
    with np.errstate(divide="ignore", invalid="ignore"):
        gamma = -num_g / den_g
        for i in range(3):
            np.divide(c1[:, i] + gamma * s1[:, i], den1, out=out[:, i])

    singular = np.flatnonzero(
        ~fixed & (np.abs(den_g) <= TOL_ALIGN_SINGULAR * _norms(s1) * n_d)
    )
    if not singular.size:
        return out

    is_hard = np.abs(num_g[singular]) > TOL_ALIGN_SINGULAR * _norms(c1[singular]) * n_d[singular]
    hard = singular[is_hard]
    if hard.size:
        # gamma -> inf: the half turn about p1 + q1.
        out[hard] = pi_encode(s1[hard])

    both = singular[~is_hard]
    if both.size:
        parallel = _norms(_cross(a2[both], a1[both])) <= tol * n_a2[both] * n_a1[both]
        sub = both[parallel]
        # The second pair repeats the first; take the smallest member.
        out[sub] = c1[sub] / den1[sub, None]
        stubborn = both[~parallel]
        if stubborn.size:
            out[stubborn] = _triad(a1[stubborn], b1[stubborn], a2[stubborn], b2[stubborn])

    _verify_rows(out, singular, a1, b1, a2, b2, n_a1, n_a2, tol)
    return out


def _member_fixing(
    p: np.ndarray, q: np.ndarray, v: np.ndarray, n_p: np.ndarray, tol: float
) -> np.ndarray:
    """The member of (p, q)'s alignment line parallel to ``v`` — the
    rotation carrying p onto q while fixing the direction of v.

    When the line's direction (p + q) is itself parallel to v, no finite
    member qualifies and the half turn about v is the limit solution.
    The (p, q) pair must not be antipodal *unless* it is perpendicular to
    v, in which case the half turn works; otherwise the caller's residual
    check rejects.
    """
    den = _dot(p, p + q)
    anti = den <= tol * n_p ** 2
    out = np.empty_like(p)
    if anti.any():
        # p -> q is a half turn; the only candidate fixing v is the half
        # turn about v itself (valid when v is perpendicular to p).
        out[anti] = pi_encode(v[anti])
    reg = ~anti
    if reg.any():
        c = _cross(q[reg], p[reg])
        s = p[reg] + q[reg]
        cv = _cross(c, v[reg])
        sv = _cross(s, v[reg])
        sv2 = _dot(sv, sv)
        degenerate = sv2 <= (tol * _norms(s) * _norms(v[reg])) ** 2
        gamma = np.zeros(sv2.shape)
        ok = ~degenerate
        gamma[ok] = -_dot(cv[ok], sv[ok]) / sv2[ok]
        member = (c + gamma[:, None] * s) / den[reg, None]
        if degenerate.any():
            member[degenerate] = pi_encode(v[reg][degenerate])
        out[reg] = member
    return out


def _triad(a1, b1, a2, b2) -> np.ndarray:
    """Orthonormal-frame fallback: build right-handed frames on each pair
    and convert the frame-to-frame matrix back to a Gibbs vector."""
    e1 = a1 / _norms(a1)[:, None]
    w = a2 - _dot(a2, e1)[:, None] * e1
    e2 = w / _norms(w)[:, None]
    e3 = _cross(e1, e2)
    f1 = b1 / _norms(b1)[:, None]
    x = b2 - _dot(b2, f1)[:, None] * f1
    f2 = x / _norms(x)[:, None]
    f3 = _cross(f1, f2)
    m = (
        f1[:, :, None] * e1[:, None, :]
        + f2[:, :, None] * e2[:, None, :]
        + f3[:, :, None] * e3[:, None, :]
    )
    return matrix_to_gibbs(m, check=False)


def _verify_rows(out, idx, a1, b1, a2, b2, n_a1, n_a2, tol) -> None:
    """Residual check for the rows ``idx`` solved by a degenerate branch:
    the result must actually map both pairs.  The preconditions admit
    inputs perturbed at ``tol``, so the gate is a comfortable multiple of
    it."""
    r = out[idx]
    res1 = _norms(rotate_vector(r, a1[idx]) - b1[idx]) / n_a1[idx]
    res2 = _norms(rotate_vector(r, a2[idx]) - b2[idx]) / n_a2[idx]
    gate = max(1e3 * tol, 1e-8)
    bad = (res1 > gate) | (res2 > gate)
    if bad.any():
        k = int(np.argmax(bad))
        raise InvalidPairError(
            f"pairs at index {int(idx[k])} pass the length checks but admit no "
            f"common rotation (residuals {float(res1[k]):.3e}, "
            f"{float(res2[k]):.3e})",
            condition="ANGLE_MISMATCH",
        )


# ---------------------------------------------------------------------------
# frame transport


def frame_transport(frames, *, tol: float = TOL_LEN) -> TransportResult:
    """Chain of alignment rotations along a sequence of (tangent, normal)
    frames.

    ``frames`` is an (n, 2, 3) array (or a list of (tangent, normal)
    pairs).  Tangents are normalized and normals re-orthogonalized
    against them (raw inputs merely need nonzero length and a normal not
    parallel to its tangent).  ``steps[i]`` is the rotation carrying
    frame i onto frame i+1 (from :func:`align_pair` on the unit tangent
    and normal pairs); ``cumulative[i]`` composes steps 0..i-1, mapping
    frame 0 onto frame i.  Alignment failures are re-raised with the
    offending step attached.
    """
    f = _as_float(frames, "frames")
    if f.ndim != 3 or f.shape[1:] != (2, 3):
        raise InvalidInputError(
            f"frames must have shape (n, 2, 3) as (tangent, normal) rows, got {f.shape}"
        )
    if not np.isfinite(f).all():
        raise InvalidInputError("frames have non-finite entries")
    n = f.shape[0]
    if n == 0:
        raise InvalidInputError("frames is empty")
    t = f[:, 0]
    m = f[:, 1]
    nt = _norms(t)
    nm = _norms(m)
    for label, bad in (("tangent", nt == 0.0), ("normal", nm == 0.0)):
        if bad.any():
            raise InvalidInputError(f"zero {label} at frame {_first(bad)}")
    that = t / nt[:, None]
    w = m - _dot(m, that)[:, None] * that
    nw = _norms(w)
    sick = nw <= tol * nm
    if sick.any():
        raise InvalidInputError(
            f"normal parallel to tangent at frame {_first(sick)}"
        )
    nhat = w / nw[:, None]

    if n == 1:
        steps = np.zeros((0, 3))
        return TransportResult(steps, np.zeros((1, 3)))

    try:
        steps = align_pair(that[:-1], that[1:], nhat[:-1], nhat[1:], tol=tol)
    except InvalidPairError as e:
        step = _locate_bad_step(that, nhat, tol)
        err = InvalidPairError(
            f"step {step} -> {step + 1}: {e}", condition=e.condition
        )
        err.step = step
        raise err from e

    cumulative = np.zeros((n, 3))
    cumulative[1:] = compose_scan(steps)
    return TransportResult(steps, cumulative)


def _locate_bad_step(that: np.ndarray, nhat: np.ndarray, tol: float) -> int:
    """Find the first step the batched alignment choked on."""
    for i in range(that.shape[0] - 1):
        try:
            align_pair(that[i], that[i + 1], nhat[i], nhat[i + 1], tol=tol)
        except InvalidPairError:
            return i
    return that.shape[0] - 2

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
:func:`frame_transport`.  A polyline needs no frames: ``gibbsrot sweep``
takes its rotation-minimizing frame from ``_polyline_transport``, each
step one rational vector of two reflections (``_reflection_pairs``).

Every solver here is rational in its inputs.  Square roots appear only in
validation and preprocessing (the norms behind the tolerance checks, the
row routing, the unit scaling of routed rows, of ``frame_transport``'s
frames and of polyline tangents, and the bases of :func:`_perp_basis`),
never in a solution formula.

As in ``core``, each public op unpacks every input once into component
columns with the caller's batch shape kept, so one row runs on numpy
scalars.  Flat ``(3, -1)`` views appear only where rows are picked by
index: rescaled rows, rows solved off the gamma path, error messages.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

# ``compose`` stays a module attribute, unused here: the perfbench sweep
# trace wraps ``gibbsrot.alignment.compose`` and counts its calls.
from .algebra import compose, compose_scan
from .core import (
    _as_float,
    _broadcast,
    _check_tol,
    _columns,
    _cross,
    _dehomogenize,
    _dot,
    _inner,
    _max_abs,
    _pivot_row,
    _quotient_rows,
    _rotate_by_pair,
    _row_pairs,
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

# A pair solution whose quaternion has |w| <= 1e-12 |(w, v)| (within ~2e-12
# rad of a half turn) is returned as the half-turn encoding.  Kept well
# below TOL_LEN: snapping moves mapped vectors by ~2e-12 of their length,
# and angles a mere 1e-11 short of pi still come back finite.
TOL_ALIGN_SINGULAR = 1e-12

# A row stays on the gamma formula while |(p1 + q1) . (p2 - q2)| exceeds
# this times |p1 + q1| |p2|; the rest leave the gamma path.  Gamma's
# error grows like the inverse of that ratio.  On 6e6 rotations with the
# axis tilted 1e-2 ... 1e-12 and 0 rad out of the p1-p2 plane (theta in
# [0.1, 3]) the gamma rows map both pairs within 1.9e-11 at cuts from
# 1.5e-5 up, and within 1.5e-10 at 1.2e-5.  Normalizing by |p2 - q2| in
# place of |p2| needs a cut near 1e-2 for the same accuracy: gamma's
# error also grows as p2 nears the axis and barely moves.
_GAMMA_CUT = 2e-5

# align_pair solves rows whose squared norms (summed over all four
# inputs, and of p1 and of p2 alone) lie within these bounds as given.
# Inside them no product the checks or the gamma formula form, up to
# cubic in a pair's length and times TOL_LEN, overflows or goes
# subnormal.  Other rows have each pair scaled by the exact power of two
# that brings max|p| into [0.5, 1): every rule is homogeneous in each
# pair, so that changes no result.
_SQ_NORM_HI = 2.0**400
_SQ_NORM_LO = 2.0**-400


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
        """Evaluate ``base + gamma * direction`` (broadcasting over gamma);
        ``gamma`` must be finite, as for :func:`align_line`."""
        return self.base + _as_gamma(gamma)[..., None] * self.direction


class TransportResult(NamedTuple):
    """Output of :func:`frame_transport`: per-step rotations and their
    running compositions (``cumulative[i]`` maps frame 0 onto frame i;
    ``cumulative[0]`` is the zero vector)."""

    steps: np.ndarray
    cumulative: np.ndarray


# ---------------------------------------------------------------------------
# validation helpers


def _as_vectors(v, name: str, finite: bool = True) -> np.ndarray:
    a = _as_float(v, name)
    if a.ndim == 0 or a.shape[-1] != 3:
        raise InvalidInputError(f"{name} must have shape (..., 3), got {a.shape}")
    if finite:
        _require_finite(a, name)
    return a


def _require_finite(a: np.ndarray, name: str) -> None:
    if not np.isfinite(a).all():
        raise InvalidInputError(f"{name} has non-finite entries")


def _as_gamma(gamma) -> np.ndarray:
    g = _as_float(gamma, "gamma")
    if not np.isfinite(g).all():
        raise InvalidInputError("gamma must be finite")
    return g


def _norms(v: np.ndarray) -> np.ndarray:
    """Euclidean norms of component columns."""
    return np.sqrt(_inner(v, v))


def _in_input_units(x, e, i: int) -> float:
    """Flat batch row ``i`` of ``x`` times ``2**e[i]``: for ``x`` formed
    from rows scaled so that it shrank by ``2**-e``, its value in the
    caller's units.  ``e`` is None when no row was scaled."""
    x = np.ravel(x)[i]
    if e is None:
        return x
    with np.errstate(over="ignore"):
        return np.ldexp(x, e[i])


def _first(mask) -> int:
    return int(np.flatnonzero(mask)[0])


def _perp_basis(p: np.ndarray) -> np.ndarray:
    """Two orthonormal rows spanning the plane perpendicular to the
    3-vector ``p`` (one row, so its own component columns)."""
    unit = p / _norms(p)
    e1 = _cross(unit, np.eye(3)[np.argmin(np.abs(unit))])
    e1 /= _norms(e1)
    e2 = _cross(unit, e1)
    e2 /= _norms(e2)
    return np.stack([e1, e2])


def _check_pair_lengths(np_, nq, tol: float, label: str, e=None) -> None:
    """Raise unless every row's lengths ``np_`` and ``nq`` (of one batch
    shape) are nonzero and agree within ``tol``; ``e`` is the rows'
    scaling (see :func:`_in_input_units`) for the message."""
    for n in (np_, nq):
        if not n.all():
            raise InvalidInputError(f"{label}: zero vector at index {_first(n == 0.0)}")
    bad = np.abs(np_ - nq) > tol * np_
    if bad.any():
        i = _first(bad)
        raise InvalidPairError(
            f"{label}: lengths differ at index {i}: "
            f"|p| = {_in_input_units(np_, e, i):.17g}, "
            f"|q| = {_in_input_units(nq, e, i):.17g} (relative tolerance {tol:g})",
            condition="LENGTH_MISMATCH",
            index=i,
        )


# ---------------------------------------------------------------------------
# single-pair alignment


def align_family(p, q, *, tol: float = TOL_LEN) -> AlignmentLine:
    """The full line of rotations carrying ``p`` onto ``q`` (single pair).

    Raises :class:`AntipodalError` when q is (numerically) -p; the error
    carries an orthonormal basis of the perpendicular plane, every half
    turn about which is a solution.
    """
    _check_tol(tol)
    pp = _as_vectors(p, "p")
    qq = _as_vectors(q, "q")
    if pp.shape != (3,) or qq.shape != (3,):
        raise InvalidInputError(
            "align_family takes single 3-vectors; use align_line for batches"
        )
    # one row is its own component columns
    den = _line_denominators(pp, qq, tol)
    return AlignmentLine(base=_cross(qq, pp) / den, direction=(pp + qq) / den)


def _line_denominators(p: np.ndarray, q: np.ndarray, tol: float):
    """The denominators ``p . (p + q)`` of the alignment lines of pairs
    given as component columns, after the length and antipodal checks."""
    np_, nq = _norms(p), _norms(q)
    _check_pair_lengths(np_, nq, tol, "align")
    den = _dot(p, p + q)
    anti = den <= tol * np_ * np_
    if anti.any():
        i = _first(anti)
        raise AntipodalError(
            f"antipodal pair at index {i}: q is opposite to p, every half "
            "turn about the perpendicular plane is a solution",
            basis=_perp_basis(p.reshape(3, -1)[:, i]),
        )
    return den


def align_line(p, q, gamma, *, tol: float = TOL_LEN) -> np.ndarray:
    """The family member at parameter ``gamma``: the Gibbs vector
    ``(q x p + gamma (p + q)) / (p . (p + q))``, batched and broadcasting.

    ``rotate_vector(align_line(p, q, g), p) == q`` (to roundoff) for every
    finite ``g``; lengths must agree within ``tol`` and antipodal pairs
    raise :class:`AntipodalError`.
    """
    _check_tol(tol)
    pp, qq, g = _broadcast(
        p=_as_vectors(p, "p"), q=_as_vectors(q, "q"), gamma=_as_gamma(gamma)[..., None]
    )
    p, q = _columns(pp, 1), _columns(qq, 1)
    den = _line_denominators(p, q, tol)
    num = _cross(q, p)
    num += g[..., 0] * (p + q)
    return _quotient_rows(num, den)


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
    a1, b1, a2, b2 = (_columns(x, 1) for x in _broadcast_pairs((p1, q1, p2, q2)))
    d = a2 - b2
    c1 = _cross(b1, a1)
    s1 = a1 + b1
    with np.errstate(divide="ignore", invalid="ignore"):
        gamma = -_dot(c1, d) / _dot(s1, d)
        return _quotient_rows(c1 + gamma * s1, _dot(a1, s1))


def align_pair(p1, q1, p2, q2, *, tol: float = TOL_LEN) -> np.ndarray:
    """The unique rotation carrying the rigid pair (p1, p2) onto (q1, q2).

    Preconditions (each within relative ``tol``): |p1| = |q1|,
    |p2| = |q2|, and p1 . p2 = q1 . q2 — a rigid motion preserves lengths
    and the subtended angle.  Violations raise :class:`InvalidPairError`
    naming the failed condition (``LENGTH_MISMATCH`` or
    ``ANGLE_MISMATCH``) and the flat batch row (``index``), because the
    raw formula would happily return a non-solution.  A p1 antipodal to
    q1 raises the error with condition ``ANTIPODAL`` (pair order carries
    no meaning, so callers may swap the pairs if the other one is
    regular).

    Each row is solved by one of four rules, chosen from that row alone:

    * the gamma formula of :func:`align_pair_unchecked`, on rows where
      its denominator (p1 + q1) . (p2 - q2) is well away from zero;
    * otherwise, with p1 not parallel to p2, the matrix ``Q P^-1``
      carrying the frame ``P = [p1, p2, p1 x p2]`` onto
      ``Q = [q1, q2, q1 x q2]``, read off Shepperd's pivot table as in
      :func:`matrix_to_gibbs` — half turns and rows with a fixed pair
      included;
    * p2 parallel to p1 -> the smallest rotation (gamma = 0; the second
      pair adds no constraint);
    * both pairs fixed -> the zero vector (identity).

    Rows solved off the gamma path must map both pairs, or the call
    raises ``ANGLE_MISMATCH``.

    Batched: all four arguments broadcast together over leading axes.
    """
    _check_tol(tol)
    # Finiteness is checked on the squared norms in _align_pairs; if the
    # shapes fail, the full per-input checks run first, in argument order,
    # so the error raised is the one they give.
    try:
        pairs = _broadcast_pairs((p1, q1, p2, q2), finite=False)
    except InvalidInputError:
        for v, name in zip((p1, q1, p2, q2), _PAIR_NAMES):
            _as_vectors(v, name)
        raise
    return _align_pairs(*(_columns(x, 1) for x in pairs), tol)


_PAIR_NAMES = ("p1", "q1", "p2", "q2")


def _broadcast_pairs(vectors, finite: bool = True) -> list[np.ndarray]:
    """``p1, q1, p2, q2`` checked in turn and broadcast together."""
    return _broadcast(**{n: _as_vectors(v, n, finite) for v, n in zip(vectors, _PAIR_NAMES)})


def _align_pairs(a1, b1, a2, b2, tol: float) -> np.ndarray:
    """:func:`align_pair` on the component columns of its four inputs,
    ``(3,) + batch`` each, finiteness not yet checked; returns the rows
    as a view of the solution's own component columns.  Reads its inputs
    only, so they may be views of one array."""
    e1 = e2 = None
    with np.errstate(over="ignore"):
        sq_a1, sq_b1, sq_a2, sq_b2 = (_inner(x, x) for x in (a1, b1, a2, b2))
        total = sq_a1 + sq_b1
        total += sq_a2
        total += sq_b2
        if total.size and not (
            total.max() <= _SQ_NORM_HI and min(sq_a1.min(), sq_a2.min()) >= _SQ_NORM_LO
        ):
            for x, name in zip((a1, b1, a2, b2), _PAIR_NAMES):
                _require_finite(x, name)
            far = np.flatnonzero(
                (total > _SQ_NORM_HI) | (np.minimum(sq_a1, sq_a2) < _SQ_NORM_LO)
            )
            a1, b1, e1 = _rescale_pair(a1, b1, far)
            a2, b2, e2 = _rescale_pair(a2, b2, far)
            sq_a1, sq_b1, sq_a2, sq_b2 = (_inner(x, x) for x in (a1, b1, a2, b2))

    n_a1, n_b1, n_a2, n_b2 = map(np.sqrt, (sq_a1, sq_b1, sq_a2, sq_b2))
    _check_pair_lengths(n_a1, n_b1, tol, "pair 1", e1)
    _check_pair_lengths(n_a2, n_b2, tol, "pair 2", e2)

    tol_a1 = tol * n_a1
    dot_p = _inner(a1, a2)
    dot_q = _inner(b1, b2)
    bad = np.abs(dot_p - dot_q) > tol_a1 * n_a2
    if bad.any():
        i = _first(bad)
        e = None if e1 is None else e1 + e2
        raise InvalidPairError(
            f"subtended angles differ at index {i}: "
            f"p1.p2 = {_in_input_units(dot_p, e, i):.17g} "
            f"but q1.q2 = {_in_input_units(dot_q, e, i):.17g} "
            f"(relative tolerance {tol:g})",
            condition="ANGLE_MISMATCH",
            index=i,
        )

    s1 = a1 + b1
    den1 = _inner(a1, s1)
    anti1 = den1 <= tol_a1 * n_a1
    if anti1.any():
        i = _first(anti1)
        raise InvalidPairError(
            f"pair 1 is antipodal at index {i}: no one-parameter family "
            "exists; swap the pairs if pair 2 is regular",
            condition="ANTIPODAL",
            index=i,
        )

    d = a2 - b2
    den_g = _inner(s1, d)
    # (c1 + gamma s1) / den1 with gamma = -(c1.d) / den_g, the sign of
    # gamma carried by the subtraction; folded into c1, which becomes the
    # output
    out = _cross(b1, a1)
    with np.errstate(divide="ignore", invalid="ignore"):
        gamma = _dot(out, d)
        gamma /= den_g
        out -= gamma * s1
        out /= den1

    # Off the gamma path: rows with pair 1 fixed, whose line holds every
    # rotation about p1, and rows whose gamma denominator is small against
    # |s1| |p2| (pair 2 fixed included).
    fixed1 = _norms(a1 - b1) <= tol_a1
    off = np.flatnonzero(fixed1 | (np.abs(den_g) <= _GAMMA_CUT * _norms(s1) * n_a2))
    if off.size:
        flat = [x.reshape(3, -1) for x in (out, a1, b1, a2, b2)]
        n1, n2 = np.ravel(n_a1), np.ravel(n_a2)
        unit = [x[:, off] / n[off] for x, n in zip(flat[1:], (n1, n1, n2, n2))]
        flat[0][:, off] = _solve_off_gamma(*unit, np.ravel(fixed1)[off], tol)
        _verify_rows(*flat, off, n1, n2, tol)
    # rows laid out as the columns are, with no copy (np.moveaxis costs
    # ~3 us on one row)
    return out.transpose(*range(1, out.ndim), 0)


def _rescale_pair(p: np.ndarray, q: np.ndarray, rows: np.ndarray):
    """The pair's component columns ``p``, ``q`` with the flat batch
    ``rows`` scaled by the power of two ``2**-e`` that brings each row's
    max|p| into [0.5, 1) (rows with p = 0 stay), and ``e`` of every row,
    flat, 0 outside ``rows``."""
    e = np.zeros(p[0].size, dtype=int)
    e[rows] = np.frexp(_max_abs(p.reshape(3, -1)[:, rows]))[1]
    k = -e.reshape(p.shape[1:])
    return np.ldexp(p, k), np.ldexp(q, k), e


def _solve_off_gamma(p1, q1, p2, q2, fixed1, tol):
    """Solutions of the (3, k) columns that leave the gamma path, as
    columns, each pair scaled to unit |p| (every rule is homogeneous in
    each pair): zero where both pairs are fixed, the smallest member of
    pair 1's line where p2 is parallel to p1, and the pivot kernel on
    every other row."""
    out = np.zeros(p1.shape)
    c, e = _cross(p1, p2), p2 - q2
    parallel = _dot(c, c) <= tol * tol
    both = fixed1 & (_dot(e, e) <= tol * tol)
    pivot = np.flatnonzero(~(parallel | both))
    if pivot.size:
        row = _pair_pivot_row(p1[:, pivot], q1[:, pivot], p2[:, pivot], q2[:, pivot])
        out[:, pivot] = _dehomogenize(row[0], row[1:], TOL_ALIGN_SINGULAR**2).T
    smallest = np.flatnonzero(parallel & ~both)
    if smallest.size:
        a, b = p1[:, smallest], q1[:, smallest]
        out[:, smallest] = _cross(b, a) / _dot(a, a + b)
    return out


def _pair_pivot_row(p1, q1, p2, q2):
    """Homogeneous solution ``4 k q_i (w, x, y, z)`` of the rotation
    carrying (p1, p2) onto (q1, q2), for rows with p1 not parallel to p2.

    With ``P = [p1, p2, c]``, ``c = p1 x p2``, ``k = |c|^2 = det P`` and
    ``Q = [q1, q2, q1 x q2]``, the rows of ``adj P`` are ``p2 x c``,
    ``c x p1`` and ``c``, so ``k U = Q adj P`` is polynomial in the inputs
    (Black's TRIAD without its normalizations).  It goes to Shepperd's
    table with ``k`` in place of 1; the largest row, as in
    :func:`matrix_to_gibbs`, is returned as ``(4,) + batch`` columns, and
    its ``v / w`` is the Gibbs vector.  Takes component columns; exact on
    ``fractions.Fraction``.  Elementary arithmetic only.
    """
    c = _cross(p1, p2)
    a, b, n = _cross(p2, c), _cross(c, p1), _cross(q1, q2)
    # k U = q1 a^T + q2 b^T + n c^T; entry (i, j) is component column 3 i + j
    ku = np.array([
        q1[i] * a[j] + q2[i] * b[j] + n[i] * c[j] for i in range(3) for j in range(3)
    ])
    return _pivot_row(ku, _dot(c, c))


def _verify_rows(out, a1, b1, a2, b2, idx, n_a1, n_a2, tol) -> None:
    """Residual check for the rows ``idx`` solved off the gamma path, all
    given as flat component columns and norms: the result must actually
    map both pairs.  The preconditions admit inputs perturbed at ``tol``,
    so the gate is a comfortable multiple of it."""
    p = np.stack([a1[:, idx], a2[:, idx]], axis=1)
    q = np.stack([b1[:, idx], b2[:, idx]], axis=1)
    moved = _rotate_by_pair(*_row_pairs(out[:, idx]), p)
    res1, res2 = _norms(np.moveaxis(moved, -1, 0) - q) / np.stack([n_a1[idx], n_a2[idx]])
    gate = max(1e3 * tol, 1e-8)
    bad = (res1 > gate) | (res2 > gate)
    if bad.any():
        k = int(np.argmax(bad))
        i = int(idx[k])
        raise InvalidPairError(
            f"pairs at index {i} pass the length checks but admit no "
            f"common rotation (residuals {float(res1[k]):.3e}, "
            f"{float(res2[k]):.3e})",
            condition="ANGLE_MISMATCH",
            index=i,
        )


# ---------------------------------------------------------------------------
# frame transport


def _reflection_pairs(v1, t0, t1):
    """Pairs ``(v1 . v2 : v2 x v1)`` of the rotation-minimizing steps
    ``H_v2 H_v1``, ``v2 = t1 - H_v1 t0``, ``H_a`` the reflection in the plane
    normal to ``a`` (Wang, Juttler, Zheng & Liu, ACM TOG 2008), for component
    columns of chords ``v1`` and unit tangents ``t0``, ``t1`` at their ends:
    each carries ``t0`` onto ``t1``; ``v2 = 0`` gives ``(0 : 0)``.  Exact on
    ``fractions.Fraction``; elementary arithmetic only."""
    k = _inner(v1, t0)
    k /= _inner(v1, v1)
    k += k
    v2 = t1 - t0  # first, so a straight run's v2 is k v1 and its step 0
    v2 += k * v1
    return _inner(v1, v2), _cross(v2, v1)


def _polyline_transport(points: np.ndarray, tol: float = TOL_LEN):
    """The first normal and binormal ((2, 3), :func:`_perp_basis`) and the
    :class:`TransportResult` of the rotation-minimizing frame along an (n, 3)
    polyline, n >= 2, by :func:`_reflection_pairs` on central-difference
    tangents.  Coincident neighbours raise :class:`InvalidInputError`, a
    repeated sample takes the smallest rotation, and a step with |v2| <= tol
    raises :class:`InvalidPairError` (``ANTIPODAL``, ``index`` the step; the
    caller checks ``tol``).  Each tangent, chord and pair is scaled by a power
    of two, so scaling the curve by one keeps the steps bit for bit."""
    # below 2^1022 no difference (at most 2 max|p|) overflows
    x = _columns(np.ldexp(points, min(0, 1022 - np.frexp(np.abs(points).max())[1])), 1)
    t = np.concatenate([x[:, 1:2] - x[:, :1], x[:, 2:] - x[:, :-2], x[:, -1:] - x[:, -2:-1]], 1)
    v1 = x[:, 1:] - x[:, :-1]
    t, v1 = (np.ldexp(a, -np.frexp(_max_abs(a))[1]) for a in (t, v1))
    norms = _norms(t)
    if (norms == 0.0).any():
        raise InvalidInputError(
            f"polyline has coincident points near sample {_first(norms == 0.0)}"
        )
    t /= norms
    v1 = np.where(_max_abs(v1) == 0.0, t[:, :-1], v1)  # a repeated sample
    w, v = _reflection_pairs(v1, t[:, :-1], t[:, 1:])
    short = _inner(v, v) + w * w <= tol * tol * _inner(v1, v1)  # |v1| |v2| = |(w, v)|
    if short.any():
        i = _first(short)
        raise InvalidPairError(
            f"step {i} -> {i + 1}: the polyline doubles back along its chord (tangent "
            f"{i + 1} mirrors tangent {i} within tolerance {tol:g}); no step is defined",
            condition="ANTIPODAL",
            index=i,
        )
    e = -np.frexp(np.maximum(np.abs(w), _max_abs(v)))[1]  # w^2 clear of underflow
    steps = _dehomogenize(np.ldexp(w, e), np.ldexp(v, e), TOL_ALIGN_SINGULAR**2)
    cumulative = np.zeros((x.shape[1], 3))
    cumulative[1:] = compose_scan(steps)
    return _perp_basis(t[:, 0]), TransportResult(steps, cumulative)


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
    _check_tol(tol)
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
    # tangent and normal component columns, (3, n) each
    t, m = _columns(f, 2).reshape(2, 3, n)
    nt, nm = _norms(t), _norms(m)
    for label, bad in (("tangent", nt == 0.0), ("normal", nm == 0.0)):
        if bad.any():
            raise InvalidInputError(f"zero {label} at frame {_first(bad)}")
    that = t / nt
    w = m - _dot(m, that) * that
    nw = _norms(w)
    sick = nw <= tol * nm
    if sick.any():
        raise InvalidInputError(f"normal parallel to tangent at frame {_first(sick)}")
    nhat = w / nw

    if n == 1:
        return TransportResult(np.zeros((0, 3)), np.zeros((1, 3)))

    try:
        steps = _align_pairs(that[:, :-1], that[:, 1:], nhat[:, :-1], nhat[:, 1:], tol)
    except InvalidPairError as e:
        step = e.index
        err = InvalidPairError(
            f"step {step} -> {step + 1}: {e}", condition=e.condition, index=step
        )
        err.step = step
        raise err from e

    cumulative = np.zeros((n, 3))
    cumulative[1:] = compose_scan(steps)
    return TransportResult(steps, cumulative)


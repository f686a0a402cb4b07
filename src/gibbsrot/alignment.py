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
row routing, the unit vectors of routed rows, frames and polyline tangents,
and :func:`_perp_basis`), never in a solution formula.  Every formula is
homogeneous in each pair, so rows far from unit scale are solved on pairs
scaled by exact powers of two (``core._pow2_scale``; both two-pair solvers
share one gate and this one range rule, ``_in_range``), and a line member
past the float range comes back as its limit, the half turn about p + q.

As in ``core``, each public op unpacks every input once into component
columns with the caller's batch shape kept.  One row of :func:`align_pair`
in range is checked on Python floats (``core._unpack``) and solved there
on the gamma path, else as a batch of one; other rows, and one row of
``align_line``, run the column code, where no overflow passes silently.
"""

from __future__ import annotations

import math
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
    _encode_half_turns,
    _inner,
    _max_abs,
    _pivot_row,
    _pow2_scale,
    _quotient_rows,
    _rotate_by_pair,
    _row_pairs,
    _unpack,
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
# error also grows as p2 nears the axis and barely moves.  A row that
# passes the checks with either pair fixed within tol has
# |(p1 + q1) . (p2 - q2)| <= ~2 tol |p1 + q1| |p2| (3 tol bounds it with
# room), where gamma is a ratio of noise terms, so the cut applied is
# max(_GAMMA_CUT, 3 tol): above tol ~6.7e-6 (= cut / 3) it grows with tol.
_GAMMA_CUT = 2e-5

# Rows whose squared norms (summed over all inputs, and of each p alone) lie
# within these bounds are solved as given (_in_range): no product the checks
# or the gamma formula form, up to cubic in a pair's length and times
# TOL_LEN, overflows or goes subnormal there.
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
        ``gamma`` must be finite, and a member past the float range is the
        half turn about p + q, as for :func:`align_line`."""
        *rows, g = np.broadcast_arrays(self.base, self.direction, _as_gamma(gamma)[..., None])
        return _member(*(np.moveaxis(x, -1, 0) for x in rows), np.ones(g.shape[:-1]), 0, g[..., 0])


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


def _sqrt(x):
    """``np.sqrt``, or on a Python float ``math.sqrt``: the same correctly
    rounded root, with no numpy scalar."""
    return math.sqrt(x) if type(x) is float else np.sqrt(x)


def _norms(v):
    """Euclidean norms of component columns, or of one row's floats."""
    return _sqrt(_inner(v, v))


def _in_input_units(x, e, i: int) -> float:
    """Flat batch row ``i`` of ``x``, formed from rows scaled so that it
    shrank by ``2**-e``, times ``2**e[i]``: its value in the caller's units."""
    return _pow2_scale(*(a.flat[i] for a in np.broadcast_arrays(x, -e)))[0]


def _first(mask) -> int | None:
    """The flat index of the first True row of ``mask`` (a batch's array,
    or one row's bool), or None."""
    if type(mask) is bool or not mask.ndim:
        return 0 if mask else None
    return int(np.flatnonzero(mask)[0]) if mask.any() else None


def _perp_basis(p: np.ndarray) -> np.ndarray:
    """Two orthonormal rows spanning the plane perpendicular to the
    nonzero 3-vector ``p`` (one row, so its own component columns), |p|^2
    in range: a unit tangent, or a ``p`` that ``_in_range`` passed."""
    unit = p / _norms(p)
    e1 = _cross(unit, np.eye(3)[np.argmin(np.abs(unit))])
    e1 /= _norms(e1)
    e2 = _cross(unit, e1)
    e2 /= _norms(e2)
    return np.stack([e1, e2])


def _check_pair_lengths(np_, nq, tol: float, label: str, e) -> None:
    """Raise unless every row's lengths ``np_`` and ``nq`` are nonzero and
    agree within ``tol``; ``e`` is their scaling (:func:`_in_input_units`)."""
    for n in (np_, nq):
        if (i := _first(n == 0.0)) is not None:
            raise InvalidInputError(f"{label}: zero vector at index {i}")
    if (i := _first(abs(np_ - nq) > tol * np_)) is not None:
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
    turn about which is a solution.  The direction grows as 1 / |p|: past
    the float range (p subnormal) the line has no float form and raises
    :class:`InvalidInputError` (``align_line`` takes gamma of order |p|).
    """
    _check_tol(tol)
    pp = _as_vectors(p, "p")
    qq = _as_vectors(q, "q")
    if pp.shape != (3,) or qq.shape != (3,):
        raise InvalidInputError(
            "align_family takes single 3-vectors; use align_line for batches"
        )
    # one row is its own component columns
    c, s, den, e = _checked_line(pp, qq, tol)
    s = _pow2_scale(s / den, e)[0]  # (p, q) scaled by 2**-e scale s / den by 2**e
    if not np.isfinite(s).all():
        raise InvalidInputError("align_family: the direction is past the float range")
    return AlignmentLine(base=c / den, direction=s)


def _line(p, q):
    """``q x p``, ``p + q`` and ``p . (p + q)`` of pairs given as component
    columns, or as one row's floats (lists): their lines
    r(gamma) = (q x p + gamma (p + q)) / (p . (p + q)).
    Exact on ``fractions.Fraction``; elementary arithmetic only."""
    s = p + q if isinstance(p, np.ndarray) else [p[0] + q[0], p[1] + q[1], p[2] + q[2]]
    return _cross(q, p), s, _inner(p, s)


def _checked_line(p: np.ndarray, q: np.ndarray, tol: float):
    """:func:`_line` of the pairs brought into range by :func:`_in_range`,
    after the length and antipodal checks, and the rows' exponents ``e``
    of that scaling."""
    (p, q), sq, (e,) = _in_range((p, q), ("p", "q"))
    np_, nq = map(_sqrt, sq)
    _check_pair_lengths(np_, nq, tol, "align", e)
    c, s, den = _line(p, q)
    if (i := _first(den <= tol * np_ * np_)) is not None:
        raise AntipodalError(
            f"antipodal pair at index {i}: q is opposite to p, every half "
            "turn about the perpendicular plane is a solution",
            basis=_perp_basis(p.reshape(3, -1)[:, i]),
        )
    return c, s, den, e


def align_line(p, q, gamma, *, tol: float = TOL_LEN) -> np.ndarray:
    """The family member at parameter ``gamma``: the Gibbs vector
    ``(q x p + gamma (p + q)) / (p . (p + q))``, batched and broadcasting.

    ``rotate_vector(align_line(p, q, g), p) == q`` (to roundoff) for every
    finite ``g``; lengths must agree within ``tol`` and antipodal pairs
    raise :class:`AntipodalError`.
    """
    _check_tol(tol)
    pp, qq, g = _broadcast(
        ("p", "q", "gamma"), _as_vectors(p, "p"), _as_vectors(q, "q"), _as_gamma(gamma)[..., None]
    )
    return _member(*_checked_line(_columns(pp, 1), _columns(qq, 1), tol), g[..., 0])


def _member(c, s, den, e, g):
    """Rows ``(c + gamma s) / den``, ``gamma = g 2**-e``, of lines given as
    component columns ``c``, ``s`` and columns ``den``, ``g`` of one batch
    shape.  Rows that overflow are formed again from the pair scaled by
    gamma's exponent, and past the float range are its half-turn encoding."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        # e = 0, no row scaled; a speed-only shortcut, kept: without it
        # align_line ran 12% slower on one row and 5-8% at 16384 rows
        ge = g if type(e) is int else _pow2_scale(g, e)[0]
        out = _quotient_rows(c + ge * s, den)
        if np.isfinite(out).all():
            return out
        far = ~np.isfinite(out).all(axis=-1)
        f, k = _pow2_scale(g[None])  # gamma 2**-e = f 2**(k - e), f in [0.5, 1)
        v = _pow2_scale(c, k - e)[0] + f * s
        r = _quotient_rows(v, _pow2_scale(den, k - e)[0])
        past = far & ~np.isfinite(r).all(axis=-1)
        out[far] = np.where(past[..., None], np.moveaxis(v, 0, -1), r)[far]
    return _encode_half_turns(out, np.flatnonzero(past))


# ---------------------------------------------------------------------------
# two-pair alignment


def align_pair_unchecked(p1, q1, p2, q2) -> np.ndarray:
    """The raw two-pair formula with no validity checking.

    Evaluates ``gamma = -[(q1 x p1) . (p2 - q2)] / [(p1 + q1) . (p2 - q2)]``
    and returns the corresponding member of pair 1's line: *some* vector
    for almost any four inputs, solution or not.  Pairs far from unit scale
    are first scaled by powers of two as :func:`align_pair` scales them (the
    formula is homogeneous in each pair); then the formula runs under one
    ``np.errstate``.  On pairs of equal lengths a row is non-finite only where
    a denominator, (p1 + q1) . (p2 - q2) or p1 . (p1 + q1), vanishes or is
    too small for gamma to be a float.  Prefer :func:`align_pair`, which
    validates and handles every degeneracy.
    """
    pairs = [_columns(x, 1) for x in _broadcast_pairs((p1, q1, p2, q2))]
    a1, b1, a2, b2 = _in_range(pairs, _PAIR_NAMES)[0]
    c1, s1, den1 = _line(a1, b1)
    d = a2 - b2
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        # both denominators as _dot sums them: -0 (three -0 products) is +0
        return _quotient_rows(_gamma_member(c1, s1, d, _dot(s1, d), den1 + 0))


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

    Each row is solved by one of three rules, chosen from that row alone:

    * the gamma formula of :func:`align_pair_unchecked`, on rows where
      its denominator (p1 + q1) . (p2 - q2) is well away from zero;
    * otherwise, where pair 2 adds no constraint (p2 parallel to p1
      within ``tol``, or both pairs exactly fixed), the smallest rotation
      carrying p1 onto q1 (gamma = 0; the identity on fixed pairs);
    * otherwise the matrix ``Q P^-1`` carrying the frame
      ``P = [p1, p2, p1 x p2]`` onto ``Q = [q1, q2, q1 x q2]``, read off
      Shepperd's pivot table as in :func:`matrix_to_gibbs` — half turns
      included, and rows with a pair fixed only within ``tol`` (sent here
      by the cut on the gamma denominator, which grows as ``3 tol`` above
      tol ~6.7e-6), so ``tol`` never snaps a small rotation to the identity.

    Rows solved off the gamma path must map both pairs, or the call
    raises ``ANGLE_MISMATCH``.

    Batched: all four arguments broadcast together over leading axes.
    """
    _check_tol(tol)
    tol = float(tol)  # a numpy scalar's or Fraction's too: one arithmetic for every route
    return _align_pairs(*map(_unpack, _broadcast_pairs((p1, q1, p2, q2))), tol)


_PAIR_NAMES = ("p1", "q1", "p2", "q2")


def _broadcast_pairs(vectors) -> tuple[np.ndarray, ...]:
    """``p1, q1, p2, q2`` shape-checked in turn and broadcast together, the
    one gate of both two-pair solvers.  Finiteness is left to
    :func:`_in_range`, which checks it on the squared norms."""
    try:
        return _broadcast(_PAIR_NAMES, *map(_as_vectors, vectors, _PAIR_NAMES, (False,) * 4))
    except InvalidInputError:
        # the full per-input checks run first, in argument order, so the
        # error raised is the one they give
        for v, name in zip(vectors, _PAIR_NAMES):
            _as_vectors(v, name)
        raise


def _align_pairs(a1, b1, a2, b2, tol: float) -> np.ndarray:
    """:func:`align_pair` on the component columns of its four inputs,
    ``(3,) + batch`` each, or on one row's Python floats (lists),
    finiteness not yet checked: the range rule and the rigidity checks,
    then :func:`_solve_pairs`."""
    cols, sq, (e1, e2) = _in_range((a1, b1, a2, b2), _PAIR_NAMES)
    a1, b1, a2, b2 = cols
    n_a1, n_b1, n_a2, n_b2 = map(_sqrt, sq)
    _check_pair_lengths(n_a1, n_b1, tol, "pair 1", e1)
    _check_pair_lengths(n_a2, n_b2, tol, "pair 2", e2)

    dot_p = _inner(a1, a2)
    dot_q = _inner(b1, b2)
    if (i := _first(abs(dot_p - dot_q) > tol * n_a1 * n_a2)) is not None:
        raise InvalidPairError(
            f"subtended angles differ at index {i}: "
            f"p1.p2 = {_in_input_units(dot_p, e1 + e2, i):.17g} "
            f"but q1.q2 = {_in_input_units(dot_q, e1 + e2, i):.17g} "
            f"(relative tolerance {tol:g})",
            condition="ANGLE_MISMATCH",
            index=i,
        )
    return _solve_pairs(*cols, n_a1, n_a2, tol)


def _solve_pairs(a1, b1, a2, b2, n_a1, n_a2, tol: float) -> np.ndarray:
    """The rotations carrying pairs (p1, p2) onto (q1, q2) that are rigid
    within ``tol``, given as in :func:`_align_pairs` but in range, with the
    lengths ``n_a1`` of p1 and ``n_a2`` of p2: the antipodal check, then each
    row solved once.  Returns the rows as a view of the solution's own
    component columns, or one row's new array.  Reads its inputs only, so
    they may be views of one array."""
    one = type(a1) is list  # one row of floats
    out, s1, den1 = _line(a1, b1)
    if (i := _first(den1 <= tol * n_a1 * n_a1)) is not None:
        raise InvalidPairError(
            f"pair 1 is antipodal at index {i}: no one-parameter family "
            "exists; swap the pairs if pair 2 is regular",
            condition="ANTIPODAL",
            index=i,
        )

    d = [a2[0] - b2[0], a2[1] - b2[1], a2[2] - b2[2]] if one else a2 - b2
    den_g = _inner(s1, d)
    # Off the gamma path: rows whose gamma denominator is small against
    # |s1| |p2|, each row with a pair fixed within tol included (see _GAMMA_CUT).
    off = abs(den_g) <= max(_GAMMA_CUT, 3 * tol) * _norms(s1) * n_a2
    if one:  # the gamma member, or on as a batch of one from the checked floats
        if not off:
            return np.array(_gamma_member(out, s1, d, den_g, den1))
        out, a1, b1, a2, b2 = map(np.array, (out, a1, b1, a2, b2))
    else:  # off rows are solved again below, whatever their gamma member gave
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            _gamma_member(out, s1, d, den_g, den1)
    off = np.flatnonzero(off)
    if off.size:
        flat = [x.reshape(3, -1) for x in (out, a1, b1, a2, b2)]
        n1, n2 = np.ravel(n_a1), np.ravel(n_a2)
        unit = [x[:, off] / n[off] for x, n in zip(flat[1:], (n1, n1, n2, n2))]
        r = _solve_off_gamma(*unit, tol)
        _verify_rows(r, *unit, off, tol)
        flat[0][:, off] = r.T
    # rows laid out as the columns are, with no copy (np.moveaxis costs
    # ~3 us on one row)
    return out.transpose(*range(1, out.ndim), 0)


def _gamma_member(c1, s1, d, den_g, den1):
    """``c1`` overwritten, component by component, with the member
    ``(c1 + gamma s1) / den1`` of pair 1's line at
    ``gamma = -(c1 . d) / den_g``, the sign of gamma carried by the
    subtraction; columns or one row's floats.  Elementary arithmetic only."""
    gamma = _dot(c1, d)
    gamma /= den_g
    for i in range(3):
        c1[i] -= gamma * s1[i]
        c1[i] /= den1
    return c1


def _in_range(cols, names):
    """The component columns ``cols`` of pairs ``p, q, ...`` (``(3,) +
    batch`` each), their squared norms and each pair's exponents ``e``
    (0 on unscaled rows).  Rows whose squares leave [_SQ_NORM_LO,
    _SQ_NORM_HI] (summed over all inputs, or of a ``p``) have each pair
    scaled by ``2**-e``, ``e`` the exponent of max|p| (``core._pow2_scale``),
    after every input is checked finite in turn (``names``); a batch sums
    the squares per row only if a screen on each input's largest and
    smallest fails.  One row given as lists comes back as given in range."""
    one = type(cols[0]) is list
    # a speed-only path, kept: without it one-row align_family took 27 us
    # instead of 18 and align_pair_unchecked 35 instead of 21 (2-vCPU Xeon
    # VM, numpy 2.4.6); floats overflow to inf with no warning to suppress
    if one or cols[0].ndim == 1:
        xs = cols if one else [x.tolist() for x in cols]
        sq = list(map(_inner, xs, xs))
        if sum(sq) <= _SQ_NORM_HI and min(sq[::2]) >= _SQ_NORM_LO:
            return cols, sq, [0] * (len(sq) // 2)
        cols = list(map(np.asarray, cols))
    with np.errstate(over="ignore"):
        sq = [_inner(x, x) for x in cols]
        # the sum of each input's largest square bounds every row's sum
        if not sq[0].size or (
            sum(x.max() for x in sq) <= _SQ_NORM_HI
            and min(x.min() for x in sq[::2]) >= _SQ_NORM_LO
        ):
            return cols, sq, [0] * len(sq[::2])
        for x, name in zip(cols, names):
            _require_finite(x, name)
        far = (sum(sq) > _SQ_NORM_HI) | (np.min(sq[::2], axis=0) < _SQ_NORM_LO)
        es = [np.where(far, _pow2_scale(p)[1], 0) for p in cols[::2]]
        cols = [_pow2_scale(x, es[i // 2])[0] for i, x in enumerate(cols)]
        return cols, [_inner(x, x) for x in cols], es


def _solve_off_gamma(p1, q1, p2, q2, tol):
    """Rows solving the (3, k) columns that leave the gamma path, each pair
    scaled to unit |p| (every rule is homogeneous in each pair), from one
    homogeneous pair per row: the smallest member (p1 . (p1 + q1) : q1 x p1)
    where pair 2 adds no constraint (p2 parallel to p1 within ``tol``, or
    both pairs exactly fixed: q1 x p1 is +0), else the pivot kernel's."""
    c = _cross(p1, p2)
    k = _inner(c, c)
    smallest = (k <= tol * tol) | ((p1 == q1).all(axis=0) & (p2 == q2).all(axis=0))
    c1, _, den1 = _line(p1, q1)
    pair = np.where(smallest, [den1, *c1], _pair_pivot_row(p1, q1, p2, q2, c, k))
    return _dehomogenize(pair[0], pair[1:], TOL_ALIGN_SINGULAR**2)


def _pair_pivot_row(p1, q1, p2, q2, c, k):
    """Homogeneous solution ``4 k q_i (w, x, y, z)`` of the rotation
    carrying (p1, p2) onto (q1, q2), for rows with p1 not parallel to p2.

    With ``P = [p1, p2, c]``, the caller's ``c = p1 x p2`` and
    ``k = |c|^2 = det P``, and ``Q = [q1, q2, q1 x q2]``, the rows of
    ``adj P`` are ``p2 x c``, ``c x p1`` and ``c``, so ``k U = Q adj P`` is
    polynomial in the inputs (Black's TRIAD without its normalizations).
    It goes to Shepperd's table with ``k`` in place of 1; the largest row,
    as in :func:`matrix_to_gibbs`, is returned as ``(4,) + batch`` columns,
    and its ``v / w`` is the Gibbs vector.  Takes component columns; exact
    on ``fractions.Fraction``.  Elementary arithmetic only.
    """
    a, b, n = _cross(p2, c), _cross(c, p1), _cross(q1, q2)
    # k U = q1 a^T + q2 b^T + n c^T; entry (i, j) is component column 3 i + j
    ku = np.array([
        q1[i] * a[j] + q2[i] * b[j] + n[i] * c[j] for i in range(3) for j in range(3)
    ])
    return _pivot_row(ku, k)


def _verify_rows(r, p1, q1, p2, q2, idx, tol) -> None:
    """Residual check |U p - q| of the rows ``r`` solved off the gamma path
    (flat batch rows ``idx``) on the unit (3, k) columns they were solved
    from: each must map both pairs.  The preconditions admit inputs
    perturbed at ``tol``, so the gate is a comfortable multiple of it."""
    moved = _rotate_by_pair(*_row_pairs(_columns(r, 1)), np.stack([p1, p2], axis=1))
    res1, res2 = _norms(np.moveaxis(moved, -1, 0) - np.stack([q1, q2], axis=1))
    gate = max(1e3 * tol, 1e-8)
    if (k := _first((res1 > gate) | (res2 > gate))) is not None:
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
    # below 2^1022 no difference (at most 2 max|p|) overflows; e is max|p|'s exponent
    x = _columns(_pow2_scale(points, max(_pow2_scale(points.ravel())[1] - 1022, 0))[0], 1)
    t = np.concatenate([x[:, 1:2] - x[:, :1], x[:, 2:] - x[:, :-2], x[:, -1:] - x[:, -2:-1]], 1)
    v1 = x[:, 1:] - x[:, :-1]
    t, v1 = _pow2_scale(t)[0], _pow2_scale(v1)[0]
    norms = _norms(t)
    if (i := _first(norms == 0.0)) is not None:
        raise InvalidInputError(f"polyline has coincident points near sample {i}")
    t /= norms
    v1 = np.where(_max_abs(v1) == 0.0, t[:, :-1], v1)  # a repeated sample
    w, v = _reflection_pairs(v1, t[:, :-1], t[:, 1:])
    # each pair scaled up only, which is exact, so its squared norm and w^2
    # clear underflow and v / w is still rounded once; the bound scales with
    # it, quietly to inf (the step is then short)
    pair = np.concatenate([w[None], v])
    e = np.minimum(_pow2_scale(pair)[1], 0)
    pair = _pow2_scale(pair, e)[0]
    bound = _pow2_scale(tol * tol * _inner(v1, v1), e + e)[0]
    short = _inner(pair[1:], pair[1:]) + pair[0] * pair[0] <= bound  # |v1| |v2| = |(w, v)|
    if (i := _first(short)) is not None:
        raise InvalidPairError(
            f"step {i} -> {i + 1}: the polyline doubles back along its chord (tangent "
            f"{i + 1} mirrors tangent {i} within tolerance {tol:g}); no step is defined",
            condition="ANTIPODAL",
            index=i,
        )
    steps = _dehomogenize(pair[0], pair[1:], TOL_ALIGN_SINGULAR**2)
    cumulative = np.concatenate([np.zeros((1, 3)), compose_scan(steps)])
    return _perp_basis(t[:, 0]), TransportResult(steps, cumulative)


def frame_transport(frames, *, tol: float = TOL_LEN) -> TransportResult:
    """Chain of alignment rotations along a sequence of (tangent, normal)
    frames.

    ``frames`` is an (n, 2, 3) array (or a list of (tangent, normal)
    pairs).  Tangents are normalized and normals re-orthogonalized
    against them (raw inputs merely need nonzero length and a normal not
    parallel to its tangent).  ``steps[i]`` is the rotation carrying
    frame i onto frame i+1 (solved as :func:`align_pair` solves the unit
    tangent and normal pairs, which are rigid by construction, so ``tol``
    bounds only the parallel and antipodal tests); ``cumulative[i]``
    composes steps 0..i-1, mapping frame 0 onto frame i.  Alignment
    failures are re-raised with the offending step attached.
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
    # tangent and normal component columns, (3, n) each, at unit scale
    t, m = (_pow2_scale(x)[0] for x in _columns(f, 2).reshape(2, 3, n))
    nt, nm = _norms(t), _norms(m)
    for label, bad in (("tangent", nt == 0.0), ("normal", nm == 0.0)):
        if (i := _first(bad)) is not None:
            raise InvalidInputError(f"zero {label} at frame {i}")
    that = t / nt
    w = m - _dot(m, that) * that
    nw = _norms(w)
    if (i := _first(nw <= tol * nm)) is not None:
        raise InvalidInputError(f"normal parallel to tangent at frame {i}")
    nhat = w / nw
    # no rigidity check: a tol below the unit vectors' rounding would fail it
    n1, n2 = _norms(that)[:-1], _norms(nhat)[:-1]
    try:
        steps = _solve_pairs(that[:, :-1], that[:, 1:], nhat[:, :-1], nhat[:, 1:], n1, n2, tol)
    except InvalidPairError as e:
        step = e.index
        err = InvalidPairError(
            f"step {step} -> {step + 1}: {e}", condition=e.condition, index=step
        )
        err.step = step
        raise err from e
    return TransportResult(steps, np.concatenate([np.zeros((1, 3)), compose_scan(steps)]))


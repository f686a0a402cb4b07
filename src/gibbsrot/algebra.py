"""Composition of rotations directly on Gibbs vectors.

The product of two encoded rotations is again a rational expression in
the operands: no matrices, no square roots, no trigonometry.  The order
convention (fixed once by an oracle experiment against matrix products)
is::

    gibbs_to_matrix(compose(r, s)) == gibbs_to_matrix(r) @ gibbs_to_matrix(s)

so on column vectors ``compose(r, s)`` applies ``s`` first, then ``r``.
Equivalently it matches the quaternion product ``q(s) * q(r)`` under the
ratio map.

Every composition runs on one kernel.  A Gibbs vector ``r`` is the ratio
``v / w`` of a homogeneous pair ``(w : v)``, the meeting point ``core``
shares with the matrix conversions.  :func:`compose` takes each operand
row's pair from ``core._row_pairs``, as ``gibbs_to_matrix`` does:
``(1, r)`` below ``core._PAIR_LIMIT``, else ``(1/c, r/c)`` with
``c = max(|r|_inf, 1)``, and ``w = 0`` exactly for half turns.
Pairs multiply as Hamilton products (``|q1 q2| = |q1| |q2|``, so the
result never vanishes) and are divided once at the end: ``v / w``, or
the half-turn encoding along ``v`` where ``w`` vanished.  The operands
are unpacked once into component columns (one row into Python floats),
and the Hamilton product takes and returns ``v`` as its three columns.
It always multiplies by both weights; with ``w = 1`` it is the textbook
quotient rule, exact on ``fractions.Fraction``.
:func:`compose_scan` chains the kernel into an inclusive prefix scan of
``ceil(log2 n)`` batched rounds, on pairs rescaled by exact powers of two.
"""

from __future__ import annotations

import numpy as np

from .core import (
    _as_float,
    _as_vec3,
    _broadcast,
    _columns,
    _dehomogenize,
    _homogeneous,
    _inner,
    _max_abs,
    _quotient_rows,
    _row_pairs,
    _unpack,
)
from .errors import InvalidInputError

__all__ = ["TOL_COMPOSE_SINGULAR", "compose", "compose_scan", "compose_sequence"]

# Relative threshold deciding that the composite's w vanished (the
# composite is a half turn).
TOL_COMPOSE_SINGULAR = 1e-12


def _hamilton(w1, v1, w2, v2):
    """Hamilton product of homogeneous pairs in :func:`compose` order:
    the pair for "apply ``(w2 : v2)``, then ``(w1 : v1)``".

    ``w = w1 w2 - v1.v2`` and ``v = w2 v1 + w1 v2 - v1 x v2``, with each
    ``v`` given and returned as three component columns; the weights may
    be scalars.  Elementary arithmetic only; exact on
    ``fractions.Fraction``.
    """
    x1, y1, z1 = v1
    x2, y2, z2 = v2
    w = w1 * w2 - _inner(v1, v2)
    v = []
    # component i: w2 a1 + w1 a2 - (b1 c2 - c1 b2), (a, b, c) cycling x, y, z
    for a1, a2, b1, c2, c1, b2 in (
        (x1, x2, y1, z2, z1, y2), (y1, y2, z1, x2, x1, z2), (z1, z2, x1, y2, y1, x2),
    ):
        e = w2 * a1
        e += w1 * a2
        c = b1 * c2
        c -= c1 * b2
        e -= c
        v.append(e)
    return w, tuple(v)


def _compose_direct(r, s):
    """Textbook rational composition: the Hamilton kernel with ``w = 1``.

    Exact on ``fractions.Fraction`` inputs.  Elementary arithmetic only;
    no overflow guard and no half-turn encode, so float callers use
    :func:`compose`.
    """
    w, v = _hamilton(1, np.moveaxis(r, -1, 0), 1, np.moveaxis(s, -1, 0))
    return _quotient_rows(v, w)


def compose(r, s) -> np.ndarray:
    """Gibbs vector of the composite rotation (``s`` first, then ``r``).

    Satisfies ``gibbs_to_matrix(compose(r, s)) ==
    gibbs_to_matrix(r) @ gibbs_to_matrix(s)`` to rounding.  Operands
    broadcast; half-turn operands are accepted and half-turn composites
    come back pi-encoded.  Never returns NaN for valid inputs.

    >>> compose([1.0, 0, 0], [0, 1.0, 0]).tolist()
    [1.0, 1.0, -1.0]
    """
    a, b = _broadcast(("r", "s"), _as_vec3(r, "r"), _as_vec3(s, "s"))
    w, v = _hamilton(*_row_pairs(_unpack(a)), *_row_pairs(_unpack(b)))
    return _dehomogenize(w, v, TOL_COMPOSE_SINGULAR * TOL_COMPOSE_SINGULAR)


def compose_scan(vectors) -> np.ndarray:
    """Inclusive prefix compositions of an (n, 3) sequence.

    ``out[k]`` applies ``vectors[0]`` first and ``vectors[k]`` last, i.e.
    ``out[k] == compose(vectors[k], out[k - 1])``.  A Hillis-Steele scan:
    ``ceil(log2 n)`` rounds of batched Hamilton products, each round's
    pairs rescaled by an exact power of two, so it stays free of square
    roots and overflow.  Rounding grows with the depth ``log2 n`` rather
    than with ``n``.  An empty sequence gives an empty (0, 3) result.

    >>> compose_scan([[0, 1.0, 0], [1.0, 0, 0]]).tolist()
    [[0.0, 1.0, 0.0], [1.0, 1.0, -1.0]]
    """
    arr = _as_vec3(vectors, "vectors")
    if arr.ndim != 2:
        raise InvalidInputError(
            f"vectors must be a sequence of 3-vectors, got shape {arr.shape}"
        )
    q = np.vstack(_homogeneous(_columns(arr, 1)))  # the pairs (w : v) as four columns
    d = 1
    while d < arr.shape[0]:
        w, v = _hamilton(q[0, d:], q[1:, d:], q[0, :-d], q[1:, :-d])
        out = q[:, d:]
        out[0], out[1:] = w, v
        # pairs of max-abs at most 1 have products of max-abs at most 4, so
        # scaling each row's max-abs into [0.5, 1) cannot overflow
        np.ldexp(out, -np.frexp(np.maximum(np.abs(w), _max_abs(v)))[1], out=out)
        d *= 2
    return _dehomogenize(q[0], q[1:], TOL_COMPOSE_SINGULAR * TOL_COMPOSE_SINGULAR)


def compose_sequence(vectors) -> np.ndarray:
    """Left fold of :func:`compose` over a non-empty sequence.

    ``compose_sequence([g2, g1, g0])`` encodes "apply g0, then g1, then
    g2" on column vectors.  It is the last prefix of
    :func:`compose_scan` over the reversed sequence.  An empty sequence
    raises :class:`InvalidInputError`.
    """
    arr = np.atleast_2d(_as_float(vectors, "vectors"))
    if arr.shape[0] == 0:
        raise InvalidInputError("cannot compose an empty sequence")
    return compose_scan(arr[::-1])[-1]

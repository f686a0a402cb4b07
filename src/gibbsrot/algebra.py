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
``v / w`` of a homogeneous pair ``(w : v)``; each row is mapped to
``(1/c, r/c)`` with ``c = max(|r|_inf, 1)``, and half turns to ``w = 0``
exactly.  Pairs multiply as Hamilton products (``|q1 q2| = |q1| |q2|``,
so the result never vanishes) and are divided once at the end: ``v / w``,
or the half-turn encoding along ``v`` where ``w`` vanished.  The same
kernel with ``w = 1`` is the textbook quotient rule, exact on
``fractions.Fraction``.  :func:`compose_scan` chains the kernel into an
inclusive prefix scan of ``ceil(log2 n)`` batched rounds.
"""

from __future__ import annotations

import numpy as np

from .core import PI_ENCODING_THRESHOLD, _as_vec3, _pi_mask, pi_encode
from .errors import InvalidInputError

__all__ = ["TOL_COMPOSE_SINGULAR", "compose", "compose_scan", "compose_sequence"]

# Relative threshold deciding that the composite's w vanished (the
# composite is a half turn).
TOL_COMPOSE_SINGULAR = 1e-12

# |r| >= PI_ENCODING_THRESHOLD needs max|component| >= threshold / sqrt(3),
# so only rows at or above half the threshold go through the half-turn mask.
_HALF_TURN_SCREEN = PI_ENCODING_THRESHOLD / 2.0


def _homogeneous(r: np.ndarray):
    """Homogeneous pairs ``(w, v)`` of (n, 3) Gibbs rows, max-abs 1 each.

    Finite rows map to ``(1/c, r/c)`` with ``c = max(|r|_inf, 1)``.  Half
    turns (pi-encoded rows and rows with infinite components) get
    ``w = 0`` exactly; infinite rows keep only the signs of their
    infinite components.  Elementary arithmetic only.
    """
    m = np.abs(r).max(axis=-1)
    c = np.maximum(m, 1.0)
    w = 1.0 / c
    with np.errstate(invalid="ignore"):
        v = r / c[:, None]
    big = np.flatnonzero(m >= _HALF_TURN_SCREEN)
    if big.size:
        w[big[_pi_mask(r[big])]] = 0.0
        inf = big[np.isinf(m[big])]
        v[inf] = np.where(np.isinf(r[inf]), np.sign(r[inf]), 0.0)
    return w, v


def _hamilton(w1, v1, w2, v2):
    """Hamilton product of homogeneous pairs in :func:`compose` order:
    the pair for "apply ``(w2 : v2)``, then ``(w1 : v1)``".

    ``w = w1 w2 - v1.v2`` and ``v = w2 v1 + w1 v2 - v1 x v2``.
    Elementary arithmetic only; exact on ``fractions.Fraction``.
    """
    x1, y1, z1 = v1[..., 0], v1[..., 1], v1[..., 2]
    x2, y2, z2 = v2[..., 0], v2[..., 1], v2[..., 2]
    w = w1 * w2 - (x1 * x2 + y1 * y2 + z1 * z2)
    v = np.stack(
        [
            w2 * x1 + w1 * x2 - (y1 * z2 - z1 * y2),
            w2 * y1 + w1 * y2 - (z1 * x2 - x1 * z2),
            w2 * z1 + w1 * z2 - (x1 * y2 - y1 * x2),
        ],
        axis=-1,
    )
    return w, v


def _dehomogenize(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Gibbs rows ``v / w`` of (n,) / (n, 3) pairs; the half-turn
    encoding along ``v`` where ``w^2 <= tol^2 (w^2 + |v|^2)``."""
    ww = w * w
    tol_sq = TOL_COMPOSE_SINGULAR * TOL_COMPOSE_SINGULAR
    singular = ww <= tol_sq * (ww + np.einsum("ni,ni->n", v, v))
    with np.errstate(divide="ignore", invalid="ignore"):
        out = v / w[:, None]
    if singular.any():
        out[singular] = pi_encode(v[singular])
    return out


def _compose_direct(r, s):
    """Textbook rational composition: the Hamilton kernel with ``w = 1``.

    Exact on ``fractions.Fraction`` inputs.  Elementary arithmetic only;
    no overflow guard and no half-turn encode, so float callers use
    :func:`compose`.
    """
    w, v = _hamilton(1, r, 1, s)
    return v / w[..., None]


def compose(r, s) -> np.ndarray:
    """Gibbs vector of the composite rotation (``s`` first, then ``r``).

    Satisfies ``gibbs_to_matrix(compose(r, s)) ==
    gibbs_to_matrix(r) @ gibbs_to_matrix(s)`` to rounding.  Operands
    broadcast; half-turn operands are accepted and half-turn composites
    come back pi-encoded.  Never returns NaN for valid inputs.

    >>> compose([1.0, 0, 0], [0, 1.0, 0]).tolist()
    [1.0, 1.0, -1.0]
    """
    a = _as_vec3(r, "r")
    b = _as_vec3(s, "s")
    try:
        a, b = np.broadcast_arrays(a, b)
    except ValueError:
        raise InvalidInputError(
            f"shapes do not broadcast: r {a.shape}, s {b.shape}"
        ) from None
    w1, v1 = _homogeneous(a.reshape(-1, 3))
    w2, v2 = _homogeneous(b.reshape(-1, 3))
    w, v = _hamilton(w1, v1, w2, v2)
    return _dehomogenize(w, v).reshape(a.shape)


def compose_scan(vectors) -> np.ndarray:
    """Inclusive prefix compositions of an (n, 3) sequence.

    ``out[k]`` applies ``vectors[0]`` first and ``vectors[k]`` last, i.e.
    ``out[k] == compose(vectors[k], out[k - 1])``.  A Hillis-Steele scan:
    ``ceil(log2 n)`` rounds of batched Hamilton products, each round
    renormalized by the max-abs of its pairs, so it stays free of square
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
    w, v = _homogeneous(arr)
    d = 1
    while d < arr.shape[0]:
        wp, vp = _hamilton(w[d:], v[d:], w[:-d], v[:-d])
        scale = np.maximum(np.abs(wp), np.abs(vp).max(axis=-1))
        w[d:] = wp / scale
        v[d:] = vp / scale[:, None]
        d *= 2
    return _dehomogenize(w, v)


def compose_sequence(vectors) -> np.ndarray:
    """Left fold of :func:`compose` over a non-empty sequence.

    ``compose_sequence([g2, g1, g0])`` encodes "apply g0, then g1, then
    g2" on column vectors.  It is the last prefix of
    :func:`compose_scan` over the reversed sequence.  An empty sequence
    raises :class:`InvalidInputError`.
    """
    arr = np.atleast_2d(vectors)
    if arr.shape[0] == 0:
        raise InvalidInputError("cannot compose an empty sequence")
    return compose_scan(arr[::-1])[-1]
